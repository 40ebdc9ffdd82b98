"""Finitely generated max-plus convex sets: co(points) + cone(rays)."""

from __future__ import annotations

import warnings

from .cones import Cone, NotMember, cones_equal
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
    immutable, so its homogenization, its extreme points and its recession
    cone are built on first use and then reused.
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
        self._extreme = None
        self._recession = None

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
        same cone is returned on every call, so its rows, its ray table and
        each extremality verdict are computed at most once.
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
            coords, origin = cone._generator_coords(), cone._ray_table()[1]
            kept = [origin[j] for j in cone._basis_entries(stop=self._points.ncols)]
            self._extreme = [self._points[idx] for idx in sorted(kept, key=coords.__getitem__)]
        return list(self._extreme)

    def recession(self) -> Cone:
        """Recession cone: the basis of the rays' cone, read off the lifted
        basis (a lifted ray, -inf last, is covered by lifted rays only).
        Only the rays of lifted rays have their verdicts tested, on the
        first call; every later call returns that same cone."""
        if self._recession is None:
            cone = self.homogenize()
            norms, basis = cone._ray_table()[0], cone._basis_entries(start=self._points.ncols)
            rays = [TropVector.of(*norms[j][: self.dim]) for j in basis]
            self._recession = Cone(TropMatrix(rays, dim=self.dim))
        return self._recession

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

    def is_extreme(self, x: TropVector) -> bool:
        """Whether a member is an extreme point of the set.

        Every extreme point of a finitely generated set is one of its
        points, so a member is extreme when it is in ``extreme_points()``:
        the verdicts of the lifted points' rays.  A non-member is refused
        with ``NotMember``, which carries the cut projection.
        """
        if not self.member(x):
            projection = self.homogenize().project(self.lift(x))
            raise NotMember(
                "vector is not a member of the convex set", TropVector(list(projection)[: self.dim])
            )
        return x in self.extreme_points()

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
    """Set equality as equality of the homogenizations: mutual membership of
    the points plus mutual containment of the rays' cones."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"dim {a.dim} vs {b.dim}")
    return cones_equal(a.homogenize(), b.homogenize())
