"""Max-plus affine half-spaces and containment tests."""

from __future__ import annotations

from .convex_sets import ConvexSet
from .linalg import DimensionMismatch, Record, TropVector
from .semiring import MaxPlusScalar, ZERO, _check_tolerance


_OVERFLOW = "the half-space form overflows a float"


def eval_form(coeffs: TropVector, x: TropVector) -> MaxPlusScalar:
    """Max-plus linear form: max_i (coeffs_i + x_i); ValueError if a term overflows a float."""
    if coeffs.dim != x.dim:
        raise DimensionMismatch(f"dim {coeffs.dim} vs {x.dim}")
    out = ZERO
    try:
        for a, v in zip(coeffs, x):
            out = out + a * v
    except ValueError:
        raise ValueError(_OVERFLOW) from None
    return out


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
        return self._holds(x, self.plus_const, self.minus_const, side, tolerance)

    def contains_ray(self, r: TropVector, side: str, tolerance: float = 0.0) -> bool:
        """Homogeneous inequality for a recession direction (constants drop)."""
        return self._holds(r, ZERO, ZERO, side, tolerance)

    def _holds(self, x: TropVector, plus_const: MaxPlusScalar, minus_const: MaxPlusScalar,
               side: str, tolerance: float) -> bool:
        """The chosen side's inequality at x, its larger side raised by tolerance
        (a -inf stays -inf); ValueError when the tolerance is negative, NaN or
        infinite."""
        _check_side(side)
        lhs = eval_form(self.plus_coeffs, x) + plus_const
        rhs = eval_form(self.minus_coeffs, x) + minus_const
        if side == "minus":
            lhs, rhs = rhs, lhs
        if tolerance:
            _check_tolerance(tolerance)
            try:
                lhs = lhs * MaxPlusScalar(tolerance)
            except ValueError:
                raise ValueError(_OVERFLOW) from None
        return lhs >= rhs

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
        if not all(self.contains(p, side, tolerance) for p in A.points):
            return False
        return all(self.contains_ray(r, side, tolerance) for r in A.rays)

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
