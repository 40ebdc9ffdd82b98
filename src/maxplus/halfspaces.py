"""Max-plus affine half-spaces and containment tests."""

from __future__ import annotations

import math
from operator import add

from .convex_sets import ConvexSet
from .linalg import DimensionMismatch, Record, TropVector
from .semiring import MaxPlusScalar, _check_tolerance


_OVERFLOW = "the half-space form overflows a float"


def _form(coeffs: tuple, x: tuple) -> float:
    """max_i (coeffs_i + x_i) on ``sort_key()`` floats; ValueError if a term overflows a float."""
    if len(coeffs) != len(x):
        raise DimensionMismatch(f"dim {len(coeffs)} vs {len(x)}")
    value = max(map(add, coeffs, x))
    if value == math.inf:
        raise ValueError(_OVERFLOW)
    return value


def eval_form(coeffs: TropVector, x: TropVector) -> MaxPlusScalar:
    """Max-plus linear form: max_i (coeffs_i + x_i); ValueError if a term overflows a float."""
    return MaxPlusScalar(_form(coeffs.sort_key(), x.sort_key()))


def _check_side(side: str) -> None:
    if side not in ("plus", "minus"):
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")


class HalfSpace(Record):
    """The region where psi_plus(x) + a_plus >= psi_minus(x) + a_minus.

    The minus side is the opposite half-space (reversed inequality);
    boundary points belong to both sides.  A side is "plus" or "minus".
    """

    __slots__ = ("plus_coeffs", "plus_const", "minus_coeffs", "minus_const")

    def __init__(self, plus_coeffs: TropVector, plus_const: MaxPlusScalar,
                 minus_coeffs: TropVector, minus_const: MaxPlusScalar):
        if plus_coeffs.dim != minus_coeffs.dim:
            raise DimensionMismatch(f"dim {plus_coeffs.dim} vs {minus_coeffs.dim}")
        super().__init__(plus_coeffs, plus_const, minus_coeffs, minus_const)

    @property
    def dim(self) -> int:
        return self.plus_coeffs.dim

    def contains(self, x: TropVector, side: str, tolerance: float = 0.0) -> bool:
        return self._holds([x.sort_key()], 1, side, tolerance)

    def contains_ray(self, r: TropVector, side: str, tolerance: float = 0.0) -> bool:
        """Homogeneous inequality for a recession direction (constants drop)."""
        return self._holds([r.sort_key()], 0, side, tolerance)

    def _holds(self, rows: list, npoints: int, side: str, tolerance: float) -> bool:
        """Whether the chosen side holds at each ``sort_key()`` row in turn, the
        first ``npoints`` points and the rest rays (constants drop), its larger
        side raised by tolerance (a -inf stays -inf); ValueError when the
        tolerance is negative, NaN or infinite."""
        _check_side(side)
        plus, minus = self.plus_coeffs.sort_key(), self.minus_coeffs.sort_key()
        plus_const, minus_const = self.plus_const.as_float(), self.minus_const.as_float()
        for k, x in enumerate(rows):
            lhs, rhs = _form(plus, x), _form(minus, x)
            if k < npoints:
                lhs, rhs = max(lhs, plus_const), max(rhs, minus_const)
            if side == "minus":
                lhs, rhs = rhs, lhs
            if tolerance:
                _check_tolerance(tolerance)
                lhs += tolerance
                if lhs == math.inf:
                    raise ValueError(_OVERFLOW)
            if lhs < rhs:
                return False
        return True

    def contains_set(self, A: ConvexSet, side: str, tolerance: float = 0.0) -> bool:
        """Whether the whole V-represented set lies in the chosen side.

        Checking the points against the affine inequality and the rays against
        the homogeneous one is exact: a max-plus combination of satisfying
        generators satisfies the same inequality (the convex-combination
        constraint lets the constant absorb into the point coefficients).  A
        tolerance t relaxes the half-space itself, so the rays are relaxed by
        t too: on the plus side, plus(r) + t >= minus(r).
        """
        if A.dim != self.dim:
            raise DimensionMismatch(f"dim {self.dim} vs {A.dim}")
        return self._holds(A._rows, A._npoints, side, tolerance)

    def to_json(self) -> dict:
        return {
            "plus": {"coeffs": self.plus_coeffs.to_json(), "const": self.plus_const.to_json()},
            "minus": {"coeffs": self.minus_coeffs.to_json(), "const": self.minus_const.to_json()},
        }

    @classmethod
    def from_json(cls, obj) -> "HalfSpace":
        if not isinstance(obj, dict) or "plus" not in obj or "minus" not in obj:
            raise ValueError("half-space document needs \"plus\" and \"minus\" objects")
        def part(o, name):
            if not isinstance(o, dict) or "coeffs" not in o or "const" not in o:
                raise ValueError(f"half-space \"{name}\" needs \"coeffs\" and \"const\"")
            return TropVector.from_json(o["coeffs"]), MaxPlusScalar.from_json(o["const"])
        pc, pk = part(obj["plus"], "plus")
        mc, mk = part(obj["minus"], "minus")
        return cls(pc, pk, mc, mk)
