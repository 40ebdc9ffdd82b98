"""Exact scalar arithmetic in the max-plus semiring (R u {-inf}, max, +)."""

from __future__ import annotations

import math


class MaxPlusScalar:
    """An element of R u {-inf} with addition max and multiplication +.

    The additive zero (-inf) is a tagged state rather than an IEEE float
    sentinel: zero * x must stay zero, and -inf + inf would decay to NaN.
    Instances are immutable and hashable.
    """

    __slots__ = ("_value",)

    def __init__(self, value: int | float | None = None):
        if value is None:
            self._value: float | None = None
            return
        try:
            v = float(value)
        except OverflowError:
            raise ValueError("max-plus scalar is too large for a float") from None
        if v == -math.inf:
            self._value = None
        elif math.isfinite(v):
            self._value = v
        else:
            raise ValueError(f"max-plus scalar must be finite or -inf, got {value!r}")

    @property
    def is_zero(self) -> bool:
        return self._value is None

    def as_float(self) -> float:
        """Finite value, or -inf for the semiring zero."""
        return -math.inf if self._value is None else self._value

    def __add__(self, other: "MaxPlusScalar") -> "MaxPlusScalar":
        # semiring addition: max
        if self._value is None:
            return other
        if other._value is None or self._value >= other._value:
            return self
        return other

    def __mul__(self, other: "MaxPlusScalar") -> "MaxPlusScalar":
        # semiring multiplication: +; zero is absorbing
        if self._value is None or other._value is None:
            return ZERO
        return MaxPlusScalar(self._value + other._value)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MaxPlusScalar):
            return NotImplemented
        return self._value == other._value

    def __hash__(self) -> int:
        return hash(self._value)

    def __le__(self, other: "MaxPlusScalar") -> bool:
        if self._value is None:
            return True
        if other._value is None:
            return False
        return self._value <= other._value

    def __lt__(self, other: "MaxPlusScalar") -> bool:
        return self <= other and self != other

    def __ge__(self, other: "MaxPlusScalar") -> bool:
        return other <= self

    def __gt__(self, other: "MaxPlusScalar") -> bool:
        return other < self

    def __repr__(self) -> str:
        return "MaxPlusScalar(-inf)" if self._value is None else f"MaxPlusScalar({self._value:g})"

    def to_json(self):
        """JSON encoding: finite values as numbers, the zero as "-inf"."""
        if self._value is None:
            return "-inf"
        if self._value.is_integer():
            return int(self._value)
        return self._value

    @classmethod
    def from_json(cls, obj) -> "MaxPlusScalar":
        if obj == "-inf":
            return ZERO
        if isinstance(obj, bool) or not isinstance(obj, (int, float)):
            raise ValueError(f"expected a number or \"-inf\", got {obj!r}")
        return cls(obj)


ZERO = MaxPlusScalar()
ONE = MaxPlusScalar(0)


def residual(b: MaxPlusScalar, a: MaxPlusScalar) -> float:
    """Greatest lam with lam * a <= b (max-plus division b / a), as a float.

    +inf, the top of the residuated order, when a is the zero; it has no
    MaxPlusScalar counterpart.  -inf when only b is the zero.
    """
    if a.is_zero:
        return math.inf
    if b.is_zero:
        return -math.inf
    return b.as_float() - a.as_float()


def scalars_equal(a: MaxPlusScalar, b: MaxPlusScalar, tolerance: float = 0.0) -> bool:
    """Equality with optional absolute tolerance on finite values.

    -inf only ever equals -inf, regardless of tolerance.
    """
    if tolerance == 0.0:
        return a == b
    if a.is_zero or b.is_zero:
        return a.is_zero and b.is_zero
    return abs(a.as_float() - b.as_float()) <= tolerance
