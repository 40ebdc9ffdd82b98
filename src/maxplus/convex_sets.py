"""Finitely generated max-plus convex sets: co(points) + cone(rays)."""

from __future__ import annotations

import warnings

from .cones import Cone, NotMember, _covered, _rows
from .linalg import DimensionMismatch, Record, TropMatrix, TropVector
from .semiring import ONE, ZERO, MaxPlusScalar


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
            out = out.join(A.points[k].scale(coeff))
        for h, coeff in self.ray_terms:
            out = out.join(A.rays[h].scale(coeff))
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
    warning (they add nothing and would break ray normalization).  A set is
    immutable, so its homogenization is built on first use and then reused.
    """

    def __init__(self, points: TropMatrix, rays: TropMatrix | None = None):
        if points.ncols == 0:
            raise ValueError("a convex set needs at least one point")
        if rays is None:
            rays = TropMatrix([], dim=points.dim)
        if rays.dim != points.dim:
            raise DimensionMismatch(f"points dim {points.dim} vs rays dim {rays.dim}")
        kept = [r for r in rays.columns if not r.is_zero_vector]
        if len(kept) != rays.ncols:
            warnings.warn("dropping zero-vector rays from convex set", stacklevel=2)
        self._points = points
        self._rays = TropMatrix(kept, dim=points.dim)
        self._cone = None

    @classmethod
    def from_vectors(cls, points, rays=()) -> "ConvexSet":
        pts = list(points)
        if not pts:
            raise ValueError("a convex set needs at least one point")
        dim = pts[0].dim
        return cls(TropMatrix(pts, dim=dim), TropMatrix(rays, dim=dim))

    @property
    def points(self) -> TropMatrix:
        return self._points

    @property
    def rays(self) -> TropMatrix:
        return self._rays

    @property
    def dim(self) -> int:
        return self._points.dim

    def __repr__(self) -> str:
        return f"ConvexSet(points={list(self._points.columns)!r}, rays={list(self._rays.columns)!r})"

    def homogenize(self) -> Cone:
        """Lift to dimension n+1: points get last coordinate 0, rays -inf.

        This is the closure of the homogenization cone of the set, with the
        recession directions sitting in the last-coordinate-zero slice.  The
        same cone is returned on every call, so its basis is computed once.
        """
        if self._cone is None:
            lifted = [TropVector((*p, ONE)) for p in self._points.columns]
            lifted += [TropVector((*r, ZERO)) for r in self._rays.columns]
            self._cone = Cone(TropMatrix(lifted, dim=self.dim + 1))
        return self._cone

    def lift(self, x: TropVector) -> TropVector:
        """(x, 0): the point x in the dimension of the homogenization."""
        if x.dim != self.dim:
            raise DimensionMismatch(f"dim {self.dim} vs {x.dim}")
        return TropVector((*x, ONE))

    def member(self, x: TropVector) -> bool:
        return self.homogenize().member(self.lift(x))

    def extreme_points(self) -> list[TropVector]:
        """All extreme points, lex-sorted (with -inf below every finite value).

        These are the input points whose lift spans a ray the basis of the
        homogenization keeps, so each is returned as given, without arithmetic.
        """
        p = self._points.ncols
        out = [self._points[idx] for _, idx in self.homogenize()._basis_entries() if idx < p]
        out.sort(key=lambda v: v.sort_key())
        return out

    def recession(self) -> Cone:
        """Recession cone, as the basis of the cone generated by the rays."""
        return Cone(self._rays).extract_basis()

    def decompose(self, x: TropVector) -> SetDecomposition:
        """Write a member as a convex combination of extreme points plus
        extreme recession rays, with at most dim + 1 terms in total."""
        lifted_x = self.lift(x)
        cone = self.homogenize()
        try:
            cone_dec = cone.decompose(lifted_x)
        except NotMember as exc:
            raise NotMember(
                "vector is not a member of the convex set",
                TropVector(list(exc.projection)[: self.dim]),
            ) from None
        p = self._points.ncols
        point_terms = []
        ray_terms = []
        for k, coeff in cone_dec.terms:
            if k < p:
                point_terms.append((k, coeff))
            else:
                ray_terms.append((k - p, coeff))
        return SetDecomposition(tuple(point_terms), tuple(ray_terms), x)

    def minkowski_sum(self, other: "ConvexSet") -> "ConvexSet":
        """Max-plus Minkowski sum: pairwise joins of points, union of rays."""
        if other.dim != self.dim:
            raise DimensionMismatch(f"dim {self.dim} vs {other.dim}")
        points = []
        for pa in self._points.columns:
            for pb in other._points.columns:
                j = pa.join(pb)
                if j not in points:
                    points.append(j)
        rays = list(self._rays.columns)
        for r in other._rays.columns:
            if r not in rays:
                rays.append(r)
        return ConvexSet(TropMatrix(points, dim=self.dim), TropMatrix(rays, dim=self.dim))

    def is_extreme(self, x: TropVector) -> bool:
        """Whether a member is an extreme point of the set.

        The lifted (x, 0) goes through the removal test behind the cone
        basis, against the lifted rays and the lifted points other than x
        (a point equal to x lies on its ray): x is extreme unless they cover
        it.  O(mn) for m generators in dimension n.
        """
        cone = self.homogenize()
        lifted_x = self.lift(x)
        proj = cone.project(lifted_x)
        if proj != lifted_x:
            raise NotMember(
                "vector is not a member of the convex set",
                TropVector(list(proj)[: self.dim]),
            )
        others = _rows(g for g in cone.generators if g != lifted_x)
        return not _covered(others, _rows([lifted_x])[0])

    def to_json(self) -> dict:
        return {"points": self._points.to_json(), "rays": self._rays.to_json()}

    @classmethod
    def from_json(cls, obj) -> "ConvexSet":
        if not isinstance(obj, dict) or "points" not in obj:
            raise ValueError("set document must be an object with a \"points\" field")
        points = TropMatrix.from_json(obj["points"])
        rays = TropMatrix.from_json(obj.get("rays", []), dim=points.dim)
        return cls(points, rays)


def sets_equal(a: ConvexSet, b: ConvexSet) -> bool:
    """Set equality by mutual membership of points plus mutual ray containment."""
    if not all(b.member(p) for p in a.points):
        return False
    if not all(a.member(p) for p in b.points):
        return False
    ra, rb = Cone(a.rays), Cone(b.rays)
    return ra.contains_cone(rb) and rb.contains_cone(ra)
