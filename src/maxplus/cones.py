"""Finitely generated max-plus cones: membership, extreme rays, basis, decomposition."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import List, Tuple

from .linalg import DimensionMismatch, TropMatrix, TropVector, left_residual, project
from .semiring import MaxPlusScalar


class NotMember(ValueError):
    """Raised when a decomposition is requested for a vector outside the cone/set.

    The canonical projection is attached as a certificate: it is the greatest
    element of the cone below the query, and differs from the query.
    """

    def __init__(self, message: str, projection: TropVector):
        super().__init__(message)
        self.projection = projection


@dataclass(frozen=True)
class ConeDecomposition:
    """Certificate that target = max over terms of coeff + generator[index].

    Indices refer to the cone's own generator list; at most one term per
    generator and at most dim terms in total, each on an extreme ray.
    """

    terms: Tuple[Tuple[int, MaxPlusScalar], ...]
    target: TropVector

    def recombine(self, cone: "Cone") -> TropVector:
        out = TropVector.zero(cone.dim)
        for k, coeff in self.terms:
            out = out.join(cone.generators[k].scale(coeff))
        return out

    def to_json(self) -> dict:
        return {
            "terms": [{"index": k, "coeff": c.to_json()} for k, c in self.terms],
            "target": self.target.to_json(),
        }


def _ray_normalize(g: TropVector) -> Tuple[TropVector, MaxPlusScalar]:
    """Shift a nonzero vector so its maximum coordinate is 0.

    Returns (normalized vector, shift) with g = shift + normalized.
    """
    shift = g.max_coord()
    return g.scale(MaxPlusScalar(-shift.as_float())), shift


def _rows(vectors) -> List[Tuple[int, tuple]]:
    """(bitmask of the finite coordinates, ``sort_key()`` floats) per vector."""
    rows = []
    for v in vectors:
        coords = v.sort_key()
        rows.append((sum(1 << i for i, c in enumerate(coords) if c != -math.inf), coords))
    return rows


def _covered(rows: List[Tuple[int, tuple]], j: int) -> bool:
    """Whether row j is the max-plus combination of the other rows (``_rows``).

    Each other row g enters at its greatest scale
    lam = min over finite g_i of x_i - g_i, x being row j; x is covered when
    these scaled rows reach it on every coordinate.  The float operations
    are those of ``project``, so the answer equals ``project(others, x) == x``.
    """
    support, x = rows[j]
    cover = [-math.inf] * len(x)
    for k, (g_support, g) in enumerate(rows):
        # g finite where x is -inf gives lam = -inf: g adds nothing
        if k == j or g_support & ~support:
            continue
        lam = math.inf
        for xi, gi in zip(x, g):
            if gi != -math.inf and xi - gi < lam:
                lam = xi - gi
        # left now only by float overflow, which project clamps to the zero
        if not -math.inf < lam < math.inf:
            continue
        for i, gi in enumerate(g):
            if gi != -math.inf:
                v = lam + gi
                if v > x[i]:
                    return False
                if v > cover[i]:
                    cover[i] = v
    return tuple(cover) == x


class Cone:
    """Finitely generated max-plus cone in V-representation.

    Zero-vector generators are stripped at construction (with a warning):
    they contribute nothing and break ray normalization.
    """

    def __init__(self, generators: TropMatrix):
        kept = [g for g in generators.columns if not g.is_zero_vector]
        if len(kept) != generators.ncols:
            warnings.warn("dropping zero-vector generators from cone", stacklevel=2)
        self._generators = TropMatrix(kept, dim=generators.dim)

    @classmethod
    def from_vectors(cls, vectors, dim: int | None = None) -> "Cone":
        return cls(TropMatrix(vectors, dim=dim))

    @property
    def generators(self) -> TropMatrix:
        return self._generators

    @property
    def dim(self) -> int:
        return self._generators.dim

    @property
    def ngens(self) -> int:
        return self._generators.ncols

    def __repr__(self) -> str:
        return f"Cone({list(self._generators.columns)!r})"

    def project(self, x: TropVector) -> TropVector:
        if x.dim != self.dim:
            raise DimensionMismatch(f"dim {self.dim} vs {x.dim}")
        return project(self._generators, x)

    def member(self, x: TropVector) -> bool:
        return self.project(x) == x

    def contains_cone(self, other: "Cone") -> bool:
        return all(self.member(g) for g in other.generators)

    def is_extreme_generator(self, k: int) -> bool:
        """Generator k is not a max-plus combination of the other generators.

        The removal test of ``_covered`` on the raw generator rows.  A
        generator with a scaled copy elsewhere in the list is covered by it,
        so this matches extremality only on a list that is duplicate-free on
        rays; extract_basis deduplicates before applying the same test.
        """
        if not 0 <= k < self.ngens:
            raise IndexError(f"generator index {k} out of range")
        return not _covered(_rows(self._generators.columns), k)

    def _basis_entries(self) -> List[Tuple[TropVector, int, MaxPlusScalar]]:
        """(normalized generator, original index, shift) per extreme ray.

        Normalized representatives are deduplicated (smallest original index
        wins), sorted lexicographically, then each is kept unless the others
        cover it (``_covered``, the test behind ``is_extreme_generator``).
        """
        seen = {}
        for idx, g in enumerate(self._generators.columns):
            norm, shift = _ray_normalize(g)
            if norm not in seen:
                seen[norm] = (idx, shift)
        entries = sorted(
            ((norm, idx, shift) for norm, (idx, shift) in seen.items()),
            key=lambda e: e[0].sort_key(),
        )
        rows = _rows(e[0] for e in entries)
        return [e for j, e in enumerate(entries) if not _covered(rows, j)]

    def extract_basis(self) -> "Cone":
        """One ray-normalized representative per extreme ray, lex-sorted."""
        basis = [norm for norm, _, _ in self._basis_entries()]
        return Cone(TropMatrix(basis, dim=self.dim))

    def decompose(self, x: TropVector) -> ConeDecomposition:
        """Write a member as a max-plus sum of at most dim extreme generators.

        Per finite coordinate of x, among the maximally scaled basis
        generators that attain it, a pointwise-minimal one is selected
        (smallest basis index on ties); indices are mapped back to the
        original generator list.
        """
        proj = self.project(x)
        if proj != x:
            raise NotMember("vector is not a member of the cone", proj)

        entries = self._basis_entries()
        basis = TropMatrix([e[0] for e in entries], dim=self.dim)
        lams = [r.clamp_to_max_plus() for r in left_residual(basis, x)]
        scaled = [g.scale(lam) for g, lam in zip(basis.columns, lams)]

        selected: List[int] = []
        for i in range(self.dim):
            if x[i].is_zero:
                continue
            candidates = [k for k in range(basis.ncols) if scaled[k][i] == x[i]]
            minimal = [
                k
                for k in candidates
                if not any(scaled[j] <= scaled[k] and scaled[j] != scaled[k] for j in candidates)
            ]
            pick = minimal[0]
            if pick not in selected:
                selected.append(pick)

        # greedy pruning: drop any term the remaining ones already cover
        for k in sorted(selected, key=lambda k: entries[k][1]):
            rest = [j for j in selected if j != k]
            cover = TropVector.zero(self.dim)
            for j in rest:
                cover = cover.join(scaled[j])
            if cover == x:
                selected = rest

        terms = []
        for k in selected:
            _, orig_idx, shift = entries[k]
            # lam + normalized = (lam - shift) + original generator
            coeff = lams[k] * MaxPlusScalar(-shift.as_float())
            terms.append((orig_idx, coeff))
        terms.sort(key=lambda t: t[0])
        return ConeDecomposition(tuple(terms), x)

    def to_json(self) -> dict:
        return {"generators": self._generators.to_json()}

    @classmethod
    def from_json(cls, obj) -> "Cone":
        if not isinstance(obj, dict) or "generators" not in obj:
            raise ValueError("cone document must be an object with a \"generators\" field")
        dim = obj.get("dim")
        return cls(TropMatrix.from_json(obj["generators"], dim=dim))


def cones_equal(a: Cone, b: Cone) -> bool:
    """Set equality of the represented cones (mutual generator membership)."""
    return a.contains_cone(b) and b.contains_cone(a)

