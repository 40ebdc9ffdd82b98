"""Finitely generated max-plus convex sets: co(points) + cone(rays)."""

from __future__ import annotations

import math
import warnings
from functools import cached_property

from .cones import Cone, NotMember, _project, _refusal, cones_equal
from .linalg import DimensionMismatch, Record, TropMatrix, TropVector, _read_rows
from .semiring import MaxPlusScalar, _floats_to_json


class SetDecomposition(Record):
    """Certificate: target = convex combination of extreme points, plus rays.

    Point coefficients max out at 0 (the convex-combination constraint);
    point_terms plus ray_terms never exceed dim + 1 entries.
    """

    __slots__ = ("point_terms", "ray_terms", "target")

    def __init__(self, point_terms: tuple[tuple[int, MaxPlusScalar], ...],
                 ray_terms: tuple[tuple[int, MaxPlusScalar], ...], target: TropVector):
        super().__init__(point_terms, ray_terms, target)

    def recombine(self, A: "ConvexSet") -> TropVector:
        out = TropVector.zero(A.dim)
        for k, coeff in self.point_terms:
            out = out.join(TropVector._of_floats(A._rows[k]).scale(coeff))
        for h, coeff in self.ray_terms:
            out = out.join(TropVector._of_floats(A._rows[A._npoints + h]).scale(coeff))
        return out

    def to_json(self) -> dict:
        return {
            "point_terms": [{"index": k, "coeff": c.to_json()} for k, c in self.point_terms],
            "ray_terms": [{"index": h, "coeff": c.to_json()} for h, c in self.ray_terms],
            "target": self.target.to_json(),
        }


class ConvexSet:
    """A = co(points) + cone(rays), both finite, in V-representation.

    The point list must be non-empty; zero-vector rays are stripped with a
    warning (they add nothing and would break ray normalization).  The set
    holds the ``sort_key()`` float rows of its points, then of its rays,
    which ``from_json`` reads straight from the document.  A set is
    immutable, so its ``points`` and ``rays`` (``TropMatrix`` views of those
    rows), its homogenization, its extreme points and its recession cone are
    built on first use and then reused.
    """

    def __init__(self, points: TropMatrix, rays: TropMatrix | None = None):
        if points.ncols == 0:
            raise ValueError("a convex set needs at least one point")
        if rays is not None and rays.dim != points.dim:
            raise DimensionMismatch(f"points dim {points.dim} vs rays dim {rays.dim}")
        self._setup([p.sort_key() for p in points], [r.sort_key() for r in rays or ()], points.dim)

    def _setup(self, points: list[tuple], rays: list[tuple], dim: int) -> None:
        kept = [r for r in rays if max(r) != -math.inf]
        if len(kept) != len(rays):
            warnings.warn("dropping zero-vector rays from convex set", stacklevel=3)
        self._rows = points + kept
        self._npoints, self._dim = len(points), dim
        self._cone = self._extreme = self._recession = None

    @classmethod
    def from_vectors(cls, points, rays=()) -> "ConvexSet":
        pts = list(points)
        if not pts:
            raise ValueError("a convex set needs at least one point")
        dim = pts[0].dim
        return cls(TropMatrix(pts, dim=dim), TropMatrix(rays, dim=dim))

    @cached_property
    def points(self) -> TropMatrix:
        return TropMatrix(map(TropVector._of_floats, self._rows[: self._npoints]), self._dim)

    @cached_property
    def rays(self) -> TropMatrix:
        return TropMatrix(map(TropVector._of_floats, self._rows[self._npoints:]), self._dim)

    @property
    def dim(self) -> int:
        return self._dim

    def __repr__(self) -> str:
        return f"ConvexSet(points={list(self.points.columns)!r}, rays={list(self.rays.columns)!r})"

    def homogenize(self) -> Cone:
        """Lift to dimension n+1: points get last coordinate 0, rays -inf.

        This is the closure of the homogenization cone of the set, with the
        recession directions sitting in the last-coordinate-zero slice.  The
        same cone is returned on every call, so its rows, its ray table and
        each extremality verdict are computed at most once.
        """
        if self._cone is None:
            rows, p = self._rows, self._npoints
            lifted = [g + (0.0,) for g in rows[:p]] + [g + (-math.inf,) for g in rows[p:]]
            self._cone = Cone._of_coords(lifted, self._dim + 1)
        return self._cone

    def lift(self, x: TropVector) -> TropVector:
        """(x, 0): the point x in the dimension of the homogenization."""
        if x.dim != self.dim:
            raise DimensionMismatch(f"dim {self.dim} vs {x.dim}")
        return TropVector._of_floats(x.sort_key() + (0.0,))

    def member(self, x: TropVector) -> bool:
        return self.homogenize()._covers(self.lift(x))

    def extreme_points(self) -> list[TropVector]:
        """All extreme points, lex-sorted (with -inf below every finite value).

        These are the input points whose lift spans a ray the basis of the
        homogenization keeps, so each is returned as given, without arithmetic.
        Only the rays of lifted points have their verdicts tested, on the
        first call; the set keeps the sorted list and each call returns a
        new copy of it.
        """
        if self._extreme is None:
            cone = self.homogenize()
            # the lifted coordinates (p, 0) sort as the points p
            origin = cone._ray_table()[1]
            kept = sorted(self._rows[origin[j]] for j in cone._basis_entries(stop=self._npoints))
            self._extreme = list(map(TropVector._of_floats, kept))
        return list(self._extreme)

    def recession(self) -> Cone:
        """Recession cone: the basis of the rays' cone, read off the lifted
        basis (a lifted ray, -inf last, is covered by lifted rays only).
        Only the rays of lifted rays have their verdicts tested, on the
        first call; every later call returns that same cone."""
        if self._recession is None:
            cone = self.homogenize()
            norms, basis = cone._ray_table()[0], cone._basis_entries(start=self._npoints)
            self._recession = Cone._of_coords([norms[j][: self.dim] for j in basis], self.dim)
        return self._recession

    def decompose(self, x: TropVector) -> SetDecomposition:
        """Write a member as a convex combination of extreme points plus
        extreme recession rays, with at most dim + 1 terms in total."""
        lifted_x = self.lift(x)
        cone = self.homogenize()
        try:
            cone_dec = cone.decompose(lifted_x)
        except NotMember as exc:
            raise NotMember("vector is not a member of the convex set",
                            TropVector._of_floats(exc.projection.sort_key()[: self.dim])) from None
        p, terms = self._npoints, cone_dec.terms
        point_terms = tuple((k, coeff) for k, coeff in terms if k < p)
        ray_terms = tuple((k - p, coeff) for k, coeff in terms if k >= p)
        return SetDecomposition(point_terms, ray_terms, x)

    def is_extreme(self, x: TropVector) -> bool:
        """Whether a member is an extreme point of the set.

        Every extreme point of a finitely generated set is one of its
        points, so a member is extreme when it is in ``extreme_points()``:
        the verdicts of the lifted points' rays.  A non-member is refused
        with ``NotMember``, which carries the cut ``_project`` cover of the
        lifted x on the lifted generator rows.
        """
        if not self.member(x):
            rows = self.homogenize()._generator_rows()[0]
            cover = _project(rows, self.lift(x).sort_key())[1]
            raise _refusal("vector is not a member of the convex set", cover, self.dim)
        return x in self.extreme_points()

    def to_json(self) -> dict:
        encode = list(map(_floats_to_json, self._rows))
        return {"points": encode[: self._npoints], "rays": encode[self._npoints:]}

    @classmethod
    def from_json(cls, obj) -> "ConvexSet":
        if not isinstance(obj, dict) or "points" not in obj:
            raise ValueError("set document must be an object with a \"points\" field")
        if obj["points"] == []:
            raise ValueError("a convex set needs at least one point")
        points, dim = _read_rows(obj["points"])
        rays, rays_dim = _read_rows(obj["rays"]) if obj.get("rays", []) != [] else ([], dim)
        if rays_dim != dim:
            raise DimensionMismatch(f"points dim {dim} vs rays dim {rays_dim}")
        convex_set = cls.__new__(cls)
        convex_set._setup(points, rays, dim)
        return convex_set


def sets_equal(a: ConvexSet, b: ConvexSet) -> bool:
    """Set equality as equality of the homogenizations: mutual membership of
    the points plus mutual containment of the rays' cones."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"dim {a.dim} vs {b.dim}")
    return cones_equal(a.homogenize(), b.homogenize())
