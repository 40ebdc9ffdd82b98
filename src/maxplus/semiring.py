"""Exact scalar arithmetic in the max-plus semiring (R u {-inf}, max, +)."""

from __future__ import annotations

import math

_NEG_INF = -math.inf


class MaxPlusScalar:
    """An element of R u {-inf} with addition max and multiplication +.

    The value is a float and the additive zero is -inf (also read from "-inf").
    +inf and NaN are refused at construction, so max and + never meet -inf + inf
    and never make NaN; so are a bool (TypeError) and any value that float()
    would change (2**53 + 1, Fraction(1, 3)).  Instances are immutable and hashable.
    """

    __slots__ = ("_value",)

    def __init__(self, value: int | float = _NEG_INF):
        if isinstance(value, bool):
            raise TypeError(f"max-plus scalar must be a number, got {value!r}")
        try:
            v = float(value)
        except OverflowError as exc:
            raise ValueError("max-plus scalar is too large for a float") from exc
        if not v < math.inf:  # +inf or NaN
            raise ValueError(f"max-plus scalar must be finite or -inf, got {value!r}")
        if v != value and value != "-inf":
            if isinstance(value, int):
                raise ValueError(f"max-plus scalar {value} is an integer that no float holds exactly")
            raise ValueError(f"max-plus scalar {value!r} is not exactly a float")
        self._value = v

    @property
    def is_zero(self) -> bool:
        return self._value == _NEG_INF

    def as_float(self) -> float:
        """Finite value, or -inf for the semiring zero."""
        return self._value

    def __add__(self, other: "MaxPlusScalar") -> "MaxPlusScalar":
        # semiring addition: max
        return self if self._value >= other._value else other

    def __mul__(self, other: "MaxPlusScalar") -> "MaxPlusScalar":
        # semiring multiplication: +; zero is absorbing, and so is a sum
        # that overflows to -inf
        v = self._value + other._value
        return ZERO if v == _NEG_INF else MaxPlusScalar(v)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MaxPlusScalar):
            return NotImplemented
        return self._value == other._value

    def __hash__(self) -> int:
        return hash(self._value)

    def __le__(self, other: "MaxPlusScalar") -> bool:
        return self._value <= other._value

    def __lt__(self, other: "MaxPlusScalar") -> bool:
        return self._value < other._value

    def __ge__(self, other: "MaxPlusScalar") -> bool:
        return self._value >= other._value

    def __gt__(self, other: "MaxPlusScalar") -> bool:
        return self._value > other._value

    def __repr__(self) -> str:
        return f"MaxPlusScalar({self._value:g})"

    def to_json(self):
        """JSON encoding of the value, by the rule of ``_floats_to_json``."""
        return _floats_to_json((self._value,))[0]

    @classmethod
    def from_json(cls, obj) -> "MaxPlusScalar":
        """The value of a JSON number, or the zero from the string "-inf"
        only: a number that reads as -inf (-1e400, -Infinity) is refused."""
        if type(obj) is int:  # the common case first; type(True) is bool, refused below
            return cls(obj)
        if obj == "-inf":
            return ZERO
        if isinstance(obj, bool) or not isinstance(obj, (int, float)):
            raise ValueError(f"expected a number or \"-inf\", got {obj!r}")
        if obj == _NEG_INF:
            raise ValueError(f"a JSON number must be finite (the zero is \"-inf\"), got {obj!r}")
        return cls(obj)


ZERO = MaxPlusScalar()
ONE = MaxPlusScalar(0)


def _floats_to_json(values) -> list:
    """The JSON encoding of max-plus values given as floats: an int when
    integral (so -0.0 is 0 and 1e308 its exact int), "-inf" for the zero,
    else the float."""
    return [int(v) if v.is_integer() else v if v != _NEG_INF else "-inf" for v in values]


def residual(b: MaxPlusScalar, a: MaxPlusScalar) -> float:
    """Greatest lam with lam * a <= b (max-plus division b / a), as a float.

    +inf, the top of the residuated order, when a is the zero; it has no
    MaxPlusScalar counterpart.  -inf when only b is the zero.
    """
    return math.inf if a._value == _NEG_INF else b._value - a._value


def _check_tolerance(tolerance: float) -> None:
    """A tolerance is a finite number >= 0, as the CLI's --tolerance."""
    if not 0.0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be a finite number >= 0, got {tolerance!r}")


def scalars_equal(a: MaxPlusScalar, b: MaxPlusScalar, tolerance: float = 0.0) -> bool:
    """Equality with optional absolute tolerance on finite values.

    -inf only ever equals -inf, regardless of tolerance.  ValueError when
    the tolerance is negative, NaN or infinite.
    """
    if tolerance == 0.0:
        return a == b
    _check_tolerance(tolerance)
    if a.is_zero or b.is_zero:
        return a == b
    return abs(a._value - b._value) <= tolerance
