import json
import math
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from maxplus import MaxPlusScalar, ONE, TropMatrix, TropVector, ZERO, project, residual, scalars_equal


def s(v):
    return MaxPlusScalar(v)


class TestAdd:
    def test_max(self):
        assert s(3) + s(5) == s(5)

    def test_zero_neutral(self):
        assert ZERO + ZERO == ZERO
        assert ZERO + s(7) == s(7)
        assert s(7) + ZERO == s(7)

    def test_idempotent(self):
        assert s(-2) + s(-2) == s(-2)


class TestMul:
    def test_plus(self):
        assert s(3) * s(5) == s(8)

    def test_zero_absorbing(self):
        assert ZERO * s(7) == ZERO
        assert s(7) * ZERO == ZERO

    def test_one_neutral(self):
        assert ONE * s(4) == s(4)
        assert s(-3) * ONE == s(-3)


class TestResidual:
    def test_finite(self):
        assert residual(s(5), s(3)) == 2

    def test_divide_by_zero_gives_top(self):
        r = residual(s(5), ZERO)
        assert r == math.inf

    def test_zero_numerator(self):
        assert residual(ZERO, s(3)) == -math.inf

    def test_top_refuses_conversion(self):
        with pytest.raises(ValueError):
            MaxPlusScalar(residual(s(5), ZERO))

    def test_clamp(self):
        # the +inf residual of a zero column gives that column no weight
        g = TropVector.of(1, 0)
        x = TropVector.of(5, 2)
        with_zero = TropMatrix([TropVector.zero(2), g])
        assert project(with_zero, x) == project(TropMatrix([g]), x) == TropVector.of(3, 2)


class TestConstruction:
    def test_neg_inf_float_is_zero(self):
        assert MaxPlusScalar(float("-inf")) == ZERO

    def test_zero_has_one_encoding(self):
        zeros = [
            MaxPlusScalar(), MaxPlusScalar(float("-inf")), MaxPlusScalar("-inf"),
            MaxPlusScalar.from_json("-inf"), ZERO * s(7), s(-1e308) * s(-1e308),
        ]
        for z in zeros:
            assert z == ZERO and hash(z) == hash(ZERO)
            assert z.as_float() == -math.inf
            assert TropVector([z]).sort_key() == (-math.inf,)

    def test_rejects_pos_inf_and_nan(self):
        with pytest.raises(ValueError, match="^max-plus scalar must be finite or -inf, got inf$"):
            MaxPlusScalar(float("inf"))
        with pytest.raises(ValueError, match="^max-plus scalar must be finite or -inf, got nan$"):
            MaxPlusScalar(float("nan"))
        with pytest.raises(ValueError, match="^max-plus scalar is too large for a float$"):
            MaxPlusScalar(10**400)
        with pytest.raises(ValueError, match="^max-plus scalar must be finite or -inf, got inf$"):
            s(1e308) * s(1e308)

    @pytest.mark.parametrize("value", [2**53 + 1, -(2**53) - 1, 2**60 + 1, 3**40])
    def test_rejects_an_int_no_float_holds(self, value):
        # float() would round it, and a rounded input gives a wrong answer
        message = f"^max-plus scalar {value} is an integer that no float holds exactly$"
        with pytest.raises(ValueError, match=message):
            MaxPlusScalar(value)
        with pytest.raises(ValueError, match=message):
            MaxPlusScalar.from_json(value)

    @pytest.mark.parametrize("value", [2**53, -(2**53), 2**60, 2**1023, 0, -7])
    def test_keeps_an_int_a_float_holds(self, value):
        assert MaxPlusScalar(value).as_float() == value
        assert MaxPlusScalar.from_json(value).to_json() == value

    def test_none_is_not_a_scalar(self):
        # the zero is -inf (or no argument); None has no meaning here
        with pytest.raises(TypeError):
            MaxPlusScalar(None)

    @pytest.mark.parametrize("value", [True, False])
    def test_bool_is_not_a_scalar(self, value):
        # as from_json refuses a JSON true: it is not the number 1
        with pytest.raises(TypeError, match=f"^max-plus scalar must be a number, got {value}$"):
            MaxPlusScalar(value)

    @pytest.mark.parametrize(
        "value", [Fraction(1, 3), Decimal("0.1"), Fraction(2**53 + 1), Decimal(2**53 + 1)]
    )
    def test_rejects_a_value_float_would_round(self, value):
        message = f"^max-plus scalar {re.escape(repr(value))} is not exactly a float$"
        with pytest.raises(ValueError, match=message):
            MaxPlusScalar(value)

    @pytest.mark.parametrize("value", ["3", "0", "-Infinity", " -inf", "-INF", "-1e400"])
    def test_rejects_a_string_other_than_neg_inf(self, value):
        message = f"^max-plus scalar {re.escape(repr(value))} is not exactly a float$"
        with pytest.raises(ValueError, match=message):
            MaxPlusScalar(value)

    @pytest.mark.parametrize(
        "value, expected",
        [(Fraction(1, 2), 0.5), (Decimal("-2.25"), -2.25), (Fraction(2**53), 2.0**53),
         ("-inf", -math.inf)],
    )
    def test_keeps_a_value_that_converts_exactly(self, value, expected):
        assert MaxPlusScalar(value) == MaxPlusScalar(expected)
        assert type(MaxPlusScalar(value).as_float()) is float


class TestOrder:
    def test_order_via_add(self):
        rng = random.Random(11)
        for _ in range(500):
            a = s(rng.randint(-9, 9)) if rng.random() > 0.2 else ZERO
            b = s(rng.randint(-9, 9)) if rng.random() > 0.2 else ZERO
            assert (a <= b) == (a + b == b)

    def test_zero_is_bottom(self):
        assert ZERO <= s(-1000)

    def test_equal_only_to_scalars(self):
        # a scalar never equals the number it holds
        assert s(1) != 1 and s(1) != 1.0 and ZERO != -math.inf and ZERO != "-inf"
        assert s(1) == s(1.0) and ZERO == s("-inf")

    def test_comparisons_follow_the_values(self):
        rng = random.Random(12)
        for _ in range(300):
            a, b = rand(rng), rand(rng)
            x, y = a.as_float(), b.as_float()
            assert (a < b, a <= b, a > b, a >= b) == (x < y, x <= y, x > y, x >= y)


def rand(rng):
    return ZERO if rng.random() < 0.25 else s(rng.randint(-9, 9))


class TestLaws:
    def test_distributivity(self):
        rng = random.Random(1)
        for _ in range(1000):
            a, b, c = rand(rng), rand(rng), rand(rng)
            assert a * (b + c) == a * b + a * c

    def test_associativity_commutativity(self):
        rng = random.Random(2)
        for _ in range(1000):
            a, b, c = rand(rng), rand(rng), rand(rng)
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a + b == b + a
            assert a * b == b * a

    def test_monotonicity(self):
        rng = random.Random(3)
        for _ in range(1000):
            a, a2, b = rand(rng), rand(rng), rand(rng)
            if not a <= a2:
                a, a2 = a2, a
            assert a + b <= a2 + b
            assert a * b <= a2 * b

    def test_galois_connection(self):
        rng = random.Random(4)
        for _ in range(1000):
            a = s(rng.randint(-9, 9))
            lam = s(rng.randint(-9, 9))
            b = s(rng.randint(-9, 9))
            r = residual(b, a)
            assert (lam * a <= b) == (lam.as_float() <= r)


# values at the edges of the one JSON rule: a negative zero, a decimal, the
# least subnormal, 2**53 (above it floats skip odd integers), a near-overflow
# integer and the semiring zero
JSON_EDGES = [-0.0, 0.1, 5e-324, 2.0**53, 1e308, -math.inf]


class TestJson:
    def test_round_trip(self):
        for v in [s(3), s(-2.5), ZERO, *map(s, JSON_EDGES)]:
            assert MaxPlusScalar.from_json(v.to_json()) == v

    def test_edge_encodings(self):
        # an int when integral (its exact value), "-inf" for the zero, else the float
        got = [(type(e), e) for e in (s(v).to_json() for v in JSON_EDGES)]
        assert got == [(int, 0), (float, 0.1), (float, 5e-324), (int, 2**53),
                       (int, int(1e308)), (str, "-inf")]

    def test_zero_encodes_as_string(self):
        assert ZERO.to_json() == "-inf"

    def test_integral_floats_encode_as_int(self):
        assert s(3.0).to_json() == 3

    def test_bad_input(self):
        with pytest.raises(ValueError):
            MaxPlusScalar.from_json("inf")
        with pytest.raises(ValueError):
            MaxPlusScalar.from_json([1])


    @pytest.mark.parametrize("text", ["-1e400", "-Infinity"])
    def test_number_read_as_minus_inf_is_refused(self, text):
        # json reads both as the float -inf; the zero is the string "-inf" only
        value = json.loads(text)
        assert value == -math.inf
        message = '^a JSON number must be finite \\(the zero is "-inf"\\), got -inf$'
        with pytest.raises(ValueError, match=message):
            MaxPlusScalar.from_json(value)
        with pytest.raises(ValueError, match=message):
            TropVector.from_json([0, value])
        # the float -inf is still the zero outside JSON
        assert MaxPlusScalar(value) == ZERO


class TestTolerantEquality:
    def test_exact_by_default(self):
        assert not scalars_equal(s(1), s(1.0000001))

    def test_tolerance_applies_to_finite_only(self):
        assert scalars_equal(s(1), s(1.0000001), 1e-6)
        assert not scalars_equal(ZERO, s(-1e9), 1e-6)
        assert scalars_equal(ZERO, ZERO, 1e-6)

    @pytest.mark.parametrize("tolerance", [-1, -0.5, math.nan, math.inf])
    def test_tolerance_is_finite_and_nonnegative(self, tolerance):
        # the CLI's --tolerance rule: a negative one would make 1 unequal to 1
        for a, b in ((s(1), s(1)), (s(1), s(2)), (ZERO, ZERO), (ZERO, s(1))):
            with pytest.raises(ValueError, match="^tolerance must be a finite number >= 0, got "):
                scalars_equal(a, b, tolerance)
