import math
import random

import pytest

from maxplus import (
    DimensionMismatch,
    MaxPlusScalar,
    TropMatrix,
    TropVector,
    ZERO,
    combine,
    left_residual,
    project,
)

import oracle
from util import exact, exact_all, rand_cone, rand_vector, vec


def mat(*cols):
    return TropMatrix([vec(*c) for c in cols])


class TestCombine:
    def test_coordinatewise_max(self):
        M = mat((0, 1), (2, 0))
        assert combine(M, [MaxPlusScalar(0), MaxPlusScalar(0)]) == vec(2, 1)

    def test_all_zero_coefficients(self):
        M = mat((0, 1), (2, 0))
        assert combine(M, [ZERO, ZERO]) == TropVector.zero(2)

    def test_single_scaled_column(self):
        M = mat((0, 1), (2, 0))
        assert combine(M, [MaxPlusScalar(2), ZERO]) == vec(2, 3)

    def test_dimension_mismatch(self):
        M = mat((0, 1), (2, 0))
        with pytest.raises(DimensionMismatch):
            combine(M, [MaxPlusScalar(0)])

    def test_against_oracle(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(1, 5)
            C = rand_cone(rng, n)
            lams = [
                ZERO if rng.random() < 0.3 else MaxPlusScalar(rng.randint(-5, 5))
                for _ in range(C.ngens)
            ]
            got = combine(C.generators, lams)
            terms = [(k, oracle.exact(lam.to_json())) for k, lam in enumerate(lams)]
            assert exact(got) == oracle.combine(exact_all(C.generators), terms, n)


class TestLeftResidual:
    def test_hand_example(self):
        M = mat((0, 1), (2, 0))
        r = left_residual(M, vec(2, 1))
        assert r == [0, 0]

    def test_column_equals_target(self):
        M = mat((0, 1))
        assert left_residual(M, vec(0, 1)) == [0]

    def test_zero_column_gives_top(self):
        M = TropMatrix([vec("-inf", "-inf"), vec(0, 0)], dim=2)
        r = left_residual(M, vec(1, 2))
        assert r[0] == math.inf
        assert r[1] == 1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch, match="^dim 2 vs 3$"):
            left_residual(mat((0, 1)), vec(0, 1, 2))


class TestProject:
    def test_member_is_fixed(self):
        M = mat((0, 1), (2, 0))
        assert project(M, vec(2, 1)) == vec(2, 1)

    def test_hand_example(self):
        M = mat((0, 1), (2, 0))
        assert project(M, vec(0, 0)) == vec(0, 0)

    def test_zero_vector(self):
        M = mat((0, 1), (2, 0))
        assert project(M, TropVector.zero(2)) == TropVector.zero(2)

    def test_empty_matrix(self):
        M = TropMatrix([], dim=3)
        assert project(M, vec(1, 2, 3)) == TropVector.zero(3)


class TestProjectionProperties:
    def test_below_idempotent_monotone(self):
        rng = random.Random(8)
        for _ in range(400):
            n = rng.randint(1, 5)
            C = rand_cone(rng, n)
            M = C.generators
            x = rand_vector(rng, n, nonzero=False)
            p = project(M, x)
            assert p.join(x) == x
            assert project(M, p) == p
            y = x.join(rand_vector(rng, n, nonzero=False))
            py = project(M, y)
            assert p.join(py) == py

    def test_fixed_point_characterizes_membership(self):
        rng = random.Random(9)
        for _ in range(400):
            n = rng.randint(1, 5)
            C = rand_cone(rng, n)
            x = rand_vector(rng, n, nonzero=False)
            fixed = project(C.generators, x) == x
            assert fixed == oracle.cone_member(exact_all(C.generators), exact(x))


class TestVector:
    def test_dim_validation(self):
        with pytest.raises(ValueError):
            TropVector([])

    def test_json_round_trip(self):
        # the edges of the one JSON rule, as in test_semiring.py
        for v in (vec(1, "-inf", -2.5), vec(-0.0, 0.1, 5e-324, 2.0**53, 1e308, -math.inf)):
            assert TropVector.from_json(v.to_json()) == v
            # the vector's one-pass encoding is its scalars', type included
            typed = [(type(e), e) for e in v.to_json()]
            assert typed == [(type(e), e) for e in (c.to_json() for c in v)]


    def test_coordinates_must_be_scalars(self):
        with pytest.raises(TypeError, match="^coordinates must be MaxPlusScalar, got 1$"):
            TropVector([1, 2])

    def test_coordinates_read_as_scalars(self):
        v = vec(1, "-inf", -2.5)
        assert v[0] == MaxPlusScalar(1) and v[-1] == MaxPlusScalar(-2.5) and v[1] == ZERO
        assert v[1:] == (ZERO, MaxPlusScalar(-2.5))
        assert list(v) == [MaxPlusScalar(1), ZERO, MaxPlusScalar(-2.5)]
        assert {type(c) for c in (*v[1:], *v, v[0])} == {MaxPlusScalar}
        with pytest.raises(IndexError):
            v[3]

    def test_equal_to_the_vector_of_its_scalars(self):
        v = vec(1, "-inf", -2.5)
        w = TropVector([MaxPlusScalar(1), ZERO, MaxPlusScalar(-2.5)])
        assert v == w and hash(v) == hash(w) and TropVector(v) == v
        assert v != vec(1, "-inf", -2) and v != (1.0, -math.inf, -2.5)
        # -0.0 and 0.0 are one scalar, so one vector
        assert vec(-0.0, 1) == vec(0, 1) and hash(vec(-0.0, 1)) == hash(vec(0, 1))

    def test_repr_and_sort_key(self):
        v = vec(1, "-inf", -2.5)
        assert repr(v) == "TropVector(1, -inf, -2.5)"
        assert v.sort_key() is v.sort_key()
        typed = [(type(c), c) for c in v.sort_key()]
        assert typed == [(float, 1), (float, -math.inf), (float, -2.5)]

    def test_scale(self):
        assert vec(1, "-inf").scale(MaxPlusScalar(2)) == vec(3, "-inf")
        assert vec(1, 2).scale(ZERO).is_zero_vector
        # a sum that overflows to -inf is the zero, one that overflows to +inf is refused
        assert vec(-1e308, 0).scale(MaxPlusScalar(-1e308)) == vec("-inf", -1e308)
        with pytest.raises(ValueError, match="^max-plus scalar must be finite or -inf, got inf$"):
            vec(1e308, 0).scale(MaxPlusScalar(1e308))

    def test_join(self):
        assert vec(1, "-inf", 0).join(vec(0, 2, "-inf")) == vec(1, 2, 0)
        with pytest.raises(DimensionMismatch, match="^dim 2 vs 3$"):
            vec(1, 2).join(vec(1, 2, 3))

    def test_zero(self):
        assert TropVector.zero(2) == vec("-inf", "-inf") and TropVector.zero(2).is_zero_vector
        assert not vec("-inf", 0).is_zero_vector
        with pytest.raises(ValueError, match="^vector dimension must be at least 1$"):
            TropVector.zero(0)


class TestMatrix:
    def test_mixed_dims_rejected(self):
        with pytest.raises(DimensionMismatch):
            TropMatrix([vec(1, 2), vec(1, 2, 3)])

    def test_empty_needs_dim(self):
        with pytest.raises(ValueError):
            TropMatrix([])

    @pytest.mark.parametrize("dim", [2.5, 2.0, True, 0, -1, "2"])
    def test_dim_must_be_an_integer_at_least_one(self, dim):
        for cols in ([], [vec(1, 2)]):
            with pytest.raises(ValueError, match="dim"):
                TropMatrix(cols, dim=dim)
        assert TropMatrix([], dim=2).dim == TropMatrix([vec(1, 2)], dim=2).dim == 2

    def test_repr(self):
        assert repr(mat((0, 1), (2, "-inf"))) == "TropMatrix([TropVector(0, 1), TropVector(2, -inf)])"
        assert repr(TropMatrix([], dim=2)) == "TropMatrix([])"

    def test_json_round_trip(self):
        M = mat((0, 1), (2, "-inf"))
        back = TropMatrix.from_json(M.to_json())
        assert (back.columns, back.dim) == (M.columns, M.dim)
