"""Finitely generated max-plus cones: membership, extreme rays, basis, decomposition."""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left
from functools import cached_property
from itertools import chain

from .linalg import DimensionMismatch, Record, TropMatrix, TropVector, _read_rows, project
from .semiring import MaxPlusScalar, _floats_to_json


class NotMember(ValueError):
    """Raised when a decomposition is requested for a vector outside the cone/set.

    The canonical projection is attached as a certificate: it is the greatest
    element of the cone below the query, and differs from the query.
    """

    def __init__(self, message: str, projection: TropVector):
        super().__init__(message)
        self.projection = projection


class ConeDecomposition(Record):
    """Certificate that target = max over terms of coeff + generator[index].

    Indices refer to the cone's own generator list; at most one term per
    generator and at most dim terms in total, each on an extreme ray.
    """

    __slots__ = ("terms", "target")

    def __init__(self, terms: tuple[tuple[int, MaxPlusScalar], ...], target: TropVector):
        super().__init__(terms, target)

    def recombine(self, cone: "Cone") -> TropVector:
        out = TropVector.zero(cone.dim)
        for k, coeff in self.terms:
            out = out.join(TropVector._of_floats(cone._coords[k]).scale(coeff))
        return out

    def to_json(self) -> dict:
        return {
            "terms": [{"index": k, "coeff": c.to_json()} for k, c in self.terms],
            "target": self.target.to_json(),
        }


def _row(coords: tuple) -> tuple:
    """The generator row of ``sort_key()`` coordinates: (the bitmask of the
    finite ones, their (i, g_i))."""
    if -math.inf not in coords:
        return (1 << len(coords)) - 1, tuple(enumerate(coords))
    pairs = tuple([pair for pair in enumerate(coords) if pair[1] != -math.inf])
    return sum([1 << i for i, _ in pairs]), pairs


# The exact domain: every finite value is an integral float of size at most
# 2**51.  There x_i - g_i (size <= 2**52) and lam + g_i (< 2**53) are floats
# that never round.
_EXACT_LIMIT = 2.0**51


def _exact(values) -> bool:
    """Whether every finite float among ``values`` is in the exact domain."""
    finite = set(values)
    finite.discard(-math.inf)
    return all(map(float.is_integer, finite)) and max(map(abs, finite), default=0.0) <= _EXACT_LIMIT


def _ray(coords: tuple) -> tuple:
    """Nonzero ``sort_key()`` coordinates shifted to maximum 0 (c - top, as ``scale``)."""
    top = max(coords)
    return tuple([c - top for c in coords])


class _Rows(list):
    """A table of ``_row`` values, with whether every value in it is in the
    exact domain; one of rays in it keeps its ``columns`` and, in ``orders``,
    each column's row indices by ascending value, sorted when first read."""

    __slots__ = ("exact", "columns", "orders")

    def __init__(self, rows, exact: bool, columns=None):
        super().__init__(rows)
        self.exact, self.columns = exact, columns
        self.orders = [None] * len(columns or ())


def _table(coords: list, rays: bool = False) -> _Rows:
    """The ``_row`` of each of the ``sort_key()`` coordinates, flagged; ``rays`` keep columns."""
    exact = _exact(chain.from_iterable(coords))
    return _Rows(map(_row, coords), exact, list(zip(*coords)) if rays and exact else None)


def _project(rows: list, x: tuple, skip: int | None = None) -> tuple[list, tuple]:
    """(lams, cover) by the float operations of ``project``, rounding
    included: lams[k] = min over row k's pairs of x_i - g_i, and the cover,
    the projection of x, is the max of lam + g_i over the rows.  A row whose
    lam is not finite (-inf: g is finite where x is not; +inf: overflow,
    which ``project`` clamps), and ``rows[skip]``, add nothing."""
    cover, lams = [-math.inf] * len(x), []
    for k, (_, row) in enumerate(rows):
        lam = math.inf
        for i, gi in row:
            if x[i] - gi < lam:
                lam = x[i] - gi
        lams.append(lam)
        if k == skip or not math.isfinite(lam):
            continue
        for i, gi in row:
            v = lam + gi
            if v > cover[i]:
                cover[i] = v
    return lams, tuple(cover)


def _refusal(message: str, cover: tuple, n: int) -> NotMember:
    """``NotMember`` carrying the first n coordinates of a ``_project``
    cover; a cover that overflowed to +inf is refused as ``project`` refuses it."""
    if math.inf in cover:
        raise ValueError("max-plus scalar must be finite or -inf, got inf")
    return NotMember(message, TropVector._of_floats(cover[:n]))


def _covered(rows: _Rows, x: tuple, skip: int | None = None) -> bool:
    """Whether the vector with ``sort_key()`` coordinates ``x`` is a max-plus
    combination of ``rows`` (a ``_table``), leaving out ``rows[skip]``: the
    answer of ``project(M, x) == x`` for M the rows taken.  In the exact
    domain (``_EXACT_LIMIT``: integers of size at most 2**51, flagged on the
    table when it was built and checked on x here) ``_covered_exact`` decides
    it exactly, pruning on a table of rays, which is asked only about its own
    ray ``skip`` (``Cone._verdict``).  Elsewhere x is covered when the
    ``_project`` cover is x.
    """
    if rows.columns:
        return _covered_exact(rows, x, rows[skip][0], skip)
    if rows.exact:
        need = 0  # the finite coordinates of x, as a bitmask
        for i, xi in enumerate(x):
            if xi != -math.inf:
                if not xi.is_integer() or abs(xi) > _EXACT_LIMIT:
                    break
                need |= 1 << i
        else:
            return _covered_exact(rows, x, need, skip)
    return _project(rows, x, skip)[1] == x


def _covered_exact(rows: _Rows, x: tuple, need: int, skip: int | None) -> bool:
    """``_covered`` in exact arithmetic, by the covering criterion: each row
    g enters at its greatest scale lam = min over its pairs of x_i - g_i, and
    x is covered when every finite x_i (the bits of ``need``) is attained,
    lam + g_i == x_i, by some row.  A row finite where x is not (a -inf
    difference) adds nothing, so its pairs are not read.

    A table of rays prunes, as its rows and x have maximum 0: g attains x_i
    only if g_i >= x_i, because lam <= x_l - g_l = x_l <= 0 at l = argmax g.
    A top coordinate of x is read first, then the lowest one not yet
    attained; each scans only its rows with g_i >= x_i, a suffix of
    ``orders[i]`` found by bisection, and if none attains it, it witnesses
    that x is not covered.  Other tables take all rows in one scan.
    """
    got, outside, columns, orders = 0, ~need, rows.columns, rows.orders
    i = x.index(0.0) if columns else -1
    while got != need:
        if not columns:
            pairs, want = enumerate(rows), need
        else:
            if orders[i] is None:
                orders[i] = sorted(range(len(rows)), key=columns[i].__getitem__)
            ks = orders[i][bisect_left(orders[i], x[i], key=columns[i].__getitem__):]
            pairs, want = zip(ks, map(rows.__getitem__, ks)), 1 << i
        for k, (support, row) in pairs:
            if support & outside or k == skip:
                continue
            lam, hit = math.inf, 0
            for j, gj in row:
                d = x[j] - gj
                if d < lam:
                    lam, hit = d, 1 << j
                elif d == lam:
                    hit |= 1 << j
            got |= hit
            if got & want == want:
                break
        else:
            return False
        rest = need & ~got
        i = (rest & -rest).bit_length() - 1
    return True


class Cone:
    """Finitely generated max-plus cone in V-representation.

    Zero-vector generators are stripped at construction (with a warning):
    they contribute nothing and break ray normalization.  The cone holds the
    ``sort_key()`` float rows of its generators, read by ``from_json`` straight
    from the document.  A cone is immutable, so its ``generators`` (a
    ``TropMatrix`` view of those rows), generator rows, table of distinct rays
    and basis cone are built on first use and then reused.  The generator
    rows serve membership; every extremality answer reads one verdict per
    distinct ray (``_verdict``), computed the first time a query reads it
    and then kept.  On integer input of size at most 2**51 (the exact domain
    of ``_covered``) every removal test runs in exact arithmetic, and a verdict
    reads, per coordinate x_i of its ray, only the rays g with g_i >= x_i (the
    only ones that can attain it); any other input takes the float loop of
    ``_project`` over every ray.
    """

    def __init__(self, generators: TropMatrix):
        self._setup([g.sort_key() for g in generators.columns], generators.dim)

    def _setup(self, coords: list[tuple], dim: int) -> None:
        self._coords = [g for g in coords if max(g) != -math.inf]
        if len(self._coords) != len(coords):
            warnings.warn("dropping zero-vector generators from cone", stacklevel=3)
        self._dim = dim
        self._table = self._rays = self._verdicts = self._basis = None

    @classmethod
    def _of_coords(cls, coords: list[tuple], dim: int) -> "Cone":
        """The cone of checked ``sort_key()`` rows, with no vector built."""
        cone = cls.__new__(cls)
        cone._setup(coords, dim)
        return cone

    @classmethod
    def from_vectors(cls, vectors, dim: int | None = None) -> "Cone":
        return cls(TropMatrix(vectors, dim=dim))

    @cached_property
    def generators(self) -> TropMatrix:
        return TropMatrix(map(TropVector._of_floats, self._coords), self._dim)

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def ngens(self) -> int:
        return len(self._coords)

    def __repr__(self) -> str:
        return f"Cone({list(self.generators.columns)!r})"

    def project(self, x: TropVector) -> TropVector:
        if x.dim != self.dim:
            raise DimensionMismatch(f"dim {self.dim} vs {x.dim}")
        return project(self.generators, x)

    def member(self, x: TropVector) -> bool:
        return self.project(x) == x

    def _generator_rows(self) -> tuple[_Rows, list[tuple]]:
        """(``_table`` of the generators, their ``sort_key()`` coordinates),
        built on first use; a generator is also a removal test's target."""
        if self._table is None:
            self._table = _table(self._coords)
        return self._table, self._coords

    def _covers(self, x: TropVector) -> bool:
        """``member(x)``, for x of the cone's dimension, as the removal test
        on the generator rows."""
        return _covered(self._generator_rows()[0], x.sort_key())

    def contains_cone(self, other: "Cone") -> bool:
        """Every generator of ``other`` is a member: one removal test per
        distinct generator, in first-seen order, except in the exact domain,
        where one equal to a generator of this cone is a member untested."""
        if other.dim != self.dim:
            raise DimensionMismatch(f"dim {self.dim} vs {other.dim}")
        rows, coords = self._generator_rows()
        held = set(coords) if rows.exact else ()
        return all(_covered(rows, g) for g in dict.fromkeys(other._coords) if g not in held)

    def is_extreme_generator(self, k: int) -> bool:
        """Generator k is not a max-plus combination of the other generators.

        False when another generator is a scaled copy of it (the same
        ``_ray``); otherwise the verdict of its ray in ``_ray_table``, the
        test behind ``extract_basis``, so the two always agree.  Both read
        generator k's ray off the table: counted among every generator's
        ray, and found among the sorted distinct rays by bisection.
        """
        if isinstance(k, bool) or not isinstance(k, int):
            raise TypeError(f"generator index must be an int, got {k!r}")
        if not 0 <= k < self.ngens:
            raise IndexError(f"generator index {k} out of range")
        norms, _, _, rays = self._ray_table()
        return rays.count(rays[k]) == 1 and self._verdict(bisect_left(norms, rays[k]))

    def _ray_table(self) -> tuple[list[tuple], list[int], _Rows, list[tuple]]:
        """(normalized coordinates, smallest original index, ``_table``) of
        the distinct rays, and each generator's ray, built on first use with
        every verdict unknown.

        The cached coordinates are normalized by ``_ray``, deduplicated
        (smallest original index wins) and sorted (``sort_key()`` order):
        the basis order.  Only the coordinates of the generators are read,
        not their rows.  The table's exact-domain flag is that of the
        normalized coordinates, which are the verdicts' targets.
        """
        if self._rays is None:
            rays, seen = list(map(_ray, self._coords)), {}
            for idx, ray in enumerate(rays):
                seen.setdefault(ray, idx)
            norms = sorted(seen)
            self._rays = norms, [seen[norm] for norm in norms], _table(norms, rays=True), rays
            self._verdicts = [None] * len(norms)
        return self._rays

    def _verdict(self, j: int) -> bool:
        """Whether ray j of ``_ray_table`` is extreme: the other distinct
        rays do not cover it (``_covered``).  The one extremality test, which
        every extremality answer reads; tested on first use and kept.
        """
        verdict = self._verdicts[j]
        if verdict is None:
            norms, _, rows, _ = self._rays
            verdict = self._verdicts[j] = not _covered(rows, norms[j], j)
        return verdict

    def _basis_entries(self, start: int = 0, stop: int | None = None) -> list[int]:
        """The extreme rays, as indices into ``_ray_table`` (basis order),
        among the rays whose original index is in [start, stop) (all by
        default); only their verdicts are tested.
        """
        indices = self._ray_table()[1]
        stop = self.ngens if stop is None else stop
        return [j for j, idx in enumerate(indices) if start <= idx < stop and self._verdict(j)]

    def extract_basis(self) -> "Cone":
        """One ray-normalized representative per extreme ray, lex-sorted.

        The basis cone is built on the first call, which reads every ray's
        verdict; every later call returns that same cone.
        """
        if self._basis is None:
            norms = self._ray_table()[0]
            self._basis = Cone._of_coords([norms[j] for j in self._basis_entries()], self.dim)
        return self._basis

    def decompose(self, x: TropVector) -> ConeDecomposition:
        """Write a member as a max-plus sum of at most dim extreme generators.

        One ``_project`` pass on the cached generator rows gives membership
        (the cover is x), a refusal's projection (the cover) and each
        generator's residual lam, its greatest scale below x.  Per finite
        coordinate x_i, the ray table is scanned in basis order, skipping
        rays known to be covered: the term is the first ray whose generator
        of smallest original index, scaled by its lam, attains x_i and
        whose verdict is extreme.  Only verdicts of rays that attain some
        x_i are tested, and only the terms get a scaled row.  Then, in
        original-index order, a term is dropped when the others still reach
        x.  Raises ArithmeticError when float rounding leaves a coordinate
        of a member attained only outside the basis.
        """
        if x.dim != self.dim:
            raise DimensionMismatch(f"dim {self.dim} vs {x.dim}")
        table, coords = self._generator_rows()
        target = x.sort_key()
        lams, cover = _project(table, target)
        if cover != target:
            raise _refusal("vector is not a member of the cone", cover, self.dim)

        origin, verdicts = self._ray_table()[1], self._verdicts
        terms: dict[int, tuple] = {}  # a term's original index -> its scaled generator
        for i, xi in enumerate(target):
            if xi == -math.inf:
                continue
            for j, idx in enumerate(origin):
                if (verdicts[j] is not False and lams[idx] + coords[idx][i] == xi
                        and self._verdict(j)):
                    break
            else:
                raise ArithmeticError(f"no basis generator attains coordinate {i} of the member")
            if idx not in terms:
                terms[idx] = tuple(map(lams[idx].__add__, coords[idx]))

        # greedy pruning: drop any term the remaining ones already cover
        selected = sorted(terms)
        for idx in sorted(terms):
            rest = [k for k in selected if k != idx]
            cover = tuple(map(max, zip([-math.inf] * self.dim, *(terms[k] for k in rest))))
            if cover == target:
                selected = rest

        return ConeDecomposition(tuple((idx, MaxPlusScalar(lams[idx])) for idx in selected), x)

    def to_json(self) -> dict:
        """The generators; an empty list also states the dimension, which
        ``from_json`` needs to read it back."""
        doc = {"generators": list(map(_floats_to_json, self._coords))}
        if not self.ngens:
            doc["dim"] = self.dim
        return doc

    @classmethod
    def from_json(cls, obj) -> "Cone":
        if not isinstance(obj, dict) or "generators" not in obj:
            raise ValueError("cone document must be an object with a \"generators\" field")
        return cls._of_coords(*_read_rows(obj["generators"], dim=obj.get("dim")))


def cones_equal(a: Cone, b: Cone) -> bool:
    """Set equality of the represented cones: mutual ``contains_cone``, which in
    the exact domain tests no generator that both cones hold verbatim."""
    return a.contains_cone(b) and b.contains_cone(a)

