"""Random instance generators and conversions shared across the test suite."""

import random
from fractions import Fraction

import oracle
from maxplus import (
    Cone,
    ConeDecomposition,
    ConvexSet,
    MaxPlusScalar,
    NotMember,
    SetDecomposition,
    TropMatrix,
    TropVector,
    ZERO,
    left_residual,
    project,
)
from maxplus.render import PX_PER_UNIT, _fmt

NEG = float("-inf")

# the reason of every strict xfail that the exact oracle raises today
ROADMAP_ITEM_4 = (
    "ROADMAP item 4: the library computes in binary floats, so one-decimal and "
    "near-overflow answers are not exact"
)


def floats(v) -> list:
    return [c.as_float() for c in v]


def exact(v) -> tuple:
    """A library vector as the exact oracle reads it: a float is its exact
    binary value, -inf is ``oracle.NEG``."""
    return oracle.vec(v.to_json())


def exact_all(vectors) -> list:
    return [exact(v) for v in vectors]


def vec(*values) -> TropVector:
    return TropVector.of(*values)


def rand_scalar(rng: random.Random, lo=-5, hi=5, p_zero=0.2) -> MaxPlusScalar:
    if rng.random() < p_zero:
        return ZERO
    return MaxPlusScalar(rng.randint(lo, hi))


def rand_vector(rng: random.Random, n: int, p_zero=0.2, nonzero=True) -> TropVector:
    while True:
        v = TropVector([rand_scalar(rng, p_zero=p_zero) for _ in range(n)])
        if not nonzero or not v.is_zero_vector:
            return v


def rand_cone(rng: random.Random, n: int, max_gens=7) -> Cone:
    m = rng.randint(1, max_gens)
    return Cone(TropMatrix([rand_vector(rng, n) for _ in range(m)], dim=n))


def rand_cone_member(rng: random.Random, C: Cone) -> TropVector:
    """Random linear combination of the generators (may be the zero vector)."""
    out = TropVector.zero(C.dim)
    for g in C.generators:
        lam = rand_scalar(rng, p_zero=0.4)
        out = out.join(g.scale(lam))
    return out


def corpus_value(k: int, tenths: bool, huge: bool = False) -> tuple:
    """The number k of a seeded corpus as ``(float, exact)``: k itself,
    k/10 (exactly Fraction(k, 10)) when ``tenths``, or k * 2e306 (exactly
    that float's value) when ``huge``."""
    if huge:
        return k * 2e306, oracle.exact(k * 2e306)
    if tenths:
        return k / 10, oracle.exact(Fraction(k, 10))
    return k, k


def combination(pairs: list, coeffs: list, n: int) -> tuple:
    """The max-plus combination of ``(vector, exact)`` pairs with
    ``(float, exact)`` coefficients, in floats by the library and exactly
    by the oracle, as one ``(vector, exact)`` pair."""
    v = TropVector.zero(n)
    for (g, _), (lam, _) in zip(pairs, coeffs):
        v = v.join(g.scale(MaxPlusScalar(lam)))
    terms = [(k, lam) for k, (_, lam) in enumerate(coeffs)]
    return v, oracle.combine([e for _, e in pairs], terms, n)


def mixed_pairs(rng: random.Random, n: int, tenths: bool, huge: bool = False) -> list:
    """Nonzero vectors with scaled duplicates, max-plus combinations and
    -inf entries, as ``(vector, exact)`` pairs; one-decimal values when
    ``tenths``, and multiples of 2e306 when ``huge`` (coordinates up to
    1.6e308 in size, so x_i - g_i can overflow while every scaled copy and
    combination stays finite).  The exact value is computed from the
    generating numbers, never read back from the float vector."""

    def num(lo, hi):
        return corpus_value(rng.randint(lo, hi), tenths, huge)

    def ray():
        coords = [(NEG, oracle.NEG) if rng.random() < 0.2 else num(-50, 50) for _ in range(n)]
        coords[rng.randrange(n)] = num(-50, 50)
        return TropVector.of(*(f for f, _ in coords)), tuple(e for _, e in coords)

    base = [ray() for _ in range(rng.randint(1, 6))]
    gens = list(base)
    for _ in range(rng.randint(0, 3)):
        gens.append(combination([rng.choice(base)], [num(-30, 30)], n))
    for _ in range(rng.randint(0, 3)):
        picked = rng.sample(base, min(len(base), 2))
        gens.append(combination(picked, [num(-30, 30) for _ in picked], n))
    rng.shuffle(gens)
    return gens


def mixed_vectors(rng: random.Random, n: int, tenths: bool, huge: bool = False) -> list:
    """The vectors of ``mixed_pairs``."""
    return [v for v, _ in mixed_pairs(rng, n, tenths, huge)]


# the seeded corpora: integer, one-decimal, near-overflow, and -inf-heavy
CORPORA = ("integer", "tenths", "huge", "-inf")


def corpus_vectors(rng: random.Random, n: int, kind: str) -> list:
    """Nonzero vectors of the corpus ``kind``: ``mixed_vectors`` with
    integer, one-decimal or near-overflow values, or for "-inf" integer
    vectors with about half of their coordinates -inf."""
    if kind == "-inf":
        return [rand_vector(rng, n, p_zero=0.5) for _ in range(rng.randint(1, 8))]
    return mixed_vectors(rng, n, kind == "tenths", kind == "huge")


def corpus_coeff(rng: random.Random, kind: str, hi: int = 9) -> MaxPlusScalar:
    """A coefficient in [-9, hi] units of the corpus ``kind``: small enough
    that a near-overflow vector scaled by it stays finite."""
    return MaxPlusScalar(corpus_value(rng.randint(-9, hi), kind == "tenths", kind == "huge")[0])


def rand_set(rng: random.Random, n: int, max_points=6, max_rays=3, with_rays=True) -> ConvexSet:
    p = rng.randint(1, max_points)
    q = rng.randint(0, max_rays) if with_rays else 0
    points = TropMatrix([rand_vector(rng, n, nonzero=False) for _ in range(p)], dim=n)
    rays = TropMatrix([rand_vector(rng, n) for _ in range(q)], dim=n)
    return ConvexSet(points, rays)


def rand_set_member(rng: random.Random, A: ConvexSet) -> TropVector:
    """Random convex combination of points, joined with a random ray part."""
    alphas = [rng.randint(-5, 0) for _ in A.points]
    alphas[rng.randrange(len(alphas))] = 0
    out = TropVector.zero(A.dim)
    for p, a in zip(A.points, alphas):
        out = out.join(p.scale(MaxPlusScalar(a)))
    for r in A.rays:
        out = out.join(r.scale(rand_scalar(rng, lo=-3, hi=3, p_zero=0.5)))
    return out


def outcome(call):
    """What ``call()`` returns, or the refusal it raises (with the projection
    a NotMember carries), so answers and refusals compare alike."""
    try:
        return call()
    except NotMember as exc:
        return ("NotMember", exc.projection)
    except ArithmeticError as exc:
        return ("ArithmeticError", str(exc))


def reference_member(A: ConvexSet, x: TropVector) -> bool:
    """Set membership by the canonical projection of the homogenization."""
    lifted = A.lift(x)
    return A.homogenize().project(lifted) == lifted


def reference_contains_cone(a: Cone, b: Cone) -> bool:
    """Every generator of ``b`` is a member of ``a`` by ``project``."""
    return all(a.member(g) for g in b.generators)


def reference_sets_equal(a: ConvexSet, b: ConvexSet) -> bool:
    """Mutual membership of the points plus mutual containment of the ray
    cones, each by ``project``."""
    ra, rb = Cone(a.rays), Cone(b.rays)
    return (
        all(reference_member(b, p) for p in a.points)
        and all(reference_member(a, p) for p in b.points)
        and reference_contains_cone(ra, rb)
        and reference_contains_cone(rb, ra)
    )


def reference_recession(A: ConvexSet) -> Cone:
    """The basis of the cone generated by the rays alone."""
    return Cone(A.rays).extract_basis()


def reference_cone_decompose(C: Cone, x: TropVector) -> ConeDecomposition:
    """``Cone.decompose`` by ``project`` and ``left_residual``: refuse unless
    the projection is x, scale each generator the basis keeps (at its
    original index) by its left residual, take per finite coordinate the
    first in basis order attaining it, then prune greedily in index order."""
    proj = C.project(x)
    if proj != x:
        raise NotMember("vector is not a member of the cone", proj)
    origin = C._ray_table()[1]
    indices = [origin[j] for j in C._basis_entries()]
    gens = [C.generators[idx] for idx in indices]
    lams = left_residual(TropMatrix(gens, dim=C.dim), x)
    rows = [tuple(lam + gi for gi in g.sort_key()) for g, lam in zip(gens, lams)]
    target = x.sort_key()
    selected = []
    for i, xi in enumerate(target):
        if xi == NEG:
            continue
        pick = next((k for k, row in enumerate(rows) if row[i] == xi), None)
        if pick is None:
            raise ArithmeticError(f"no basis generator attains coordinate {i} of the member")
        if pick not in selected:
            selected.append(pick)
    for k in sorted(selected, key=indices.__getitem__):
        rest = [j for j in selected if j != k]
        if tuple(map(max, zip([NEG] * C.dim, *(rows[j] for j in rest)))) == target:
            selected = rest
    terms = sorted((indices[k], MaxPlusScalar(lams[k])) for k in selected)
    return ConeDecomposition(tuple(terms), x)


def reference_set_decompose(A: ConvexSet, x: TropVector) -> SetDecomposition:
    """``reference_cone_decompose`` of (x, 0) in the homogenization, its
    terms split into points and rays, a refusal's projection cut to dim."""
    try:
        dec = reference_cone_decompose(A.homogenize(), A.lift(x))
    except NotMember as exc:
        projection = TropVector(list(exc.projection)[: A.dim])
        raise NotMember("vector is not a member of the convex set", projection) from None
    p = A.points.ncols
    points = tuple((k, c) for k, c in dec.terms if k < p)
    return SetDecomposition(points, tuple((k - p, c) for k, c in dec.terms if k >= p), x)


def reference_is_extreme(A: ConvexSet, x: TropVector) -> bool:
    """Refuse unless ``project`` of the homogenization keeps (x, 0); then x
    is extreme when it is an input point whose normalized lifted ray the
    ``project``-based basis of the homogenization keeps."""
    cone, lifted = A.homogenize(), A.lift(x)
    proj = cone.project(lifted)
    if proj != lifted:
        projection = TropVector(list(proj)[: A.dim])
        raise NotMember("vector is not a member of the convex set", projection)
    return x in A.points and normalized(lifted) in reference_basis(cone)


def reference_shading_rects(A: ConvexSet, frame, grid: int) -> list:
    """The render grid as one exact ``oracle.set_member`` call per cell, on
    the exact values of the set and of the float cell centre, merged into
    horizontal run rectangles, one list per row: what
    ``render._shading_rects`` must draw, row after row."""
    points, rays = exact_all(A.points), exact_all(A.rays)
    rows = []
    dx = (frame.x1 - frame.x0) / grid
    dy = (frame.y1 - frame.y0) / grid
    for row in range(grid):
        y = frame.y1 - (row + 0.5) * dy
        rects = []
        rows.append(rects)
        run_start = None
        for col in range(grid + 1):
            inside = False
            if col < grid:
                x = frame.x0 + (col + 0.5) * dx
                inside = oracle.set_member(points, rays, (oracle.exact(x), oracle.exact(y)))
            if inside and run_start is None:
                run_start = col
            elif not inside and run_start is not None:
                x_left = frame.px(frame.x0 + run_start * dx)
                x_right = frame.px(frame.x0 + col * dx)
                y_top = frame.py(y + dy / 2)
                rects.append(
                    f'<rect x="{_fmt(x_left)}" y="{_fmt(y_top)}" '
                    f'width="{_fmt(x_right - x_left)}" height="{_fmt(dy * PX_PER_UNIT)}" '
                    f'fill="#c8d8f0"/>'
                )
                run_start = None
    return rows


def normalized(g: TropVector) -> TropVector:
    """The nonzero vector g scaled to maximum 0: its ray."""
    return g.scale(MaxPlusScalar(-max(g.sort_key())))


def reference_basis(C: Cone) -> list:
    """The removal test as a loop over public ``project``: deduplicated,
    lex-sorted normalized generators, each kept unless the others reach it."""
    entries = sorted(set(map(normalized, C.generators)), key=TropVector.sort_key)
    kept = []
    for j, norm in enumerate(entries):
        others = TropMatrix(entries[:j] + entries[j + 1:], dim=C.dim)
        if project(others, norm) != norm:
            kept.append(norm)
    return kept


def reference_extreme_points(A: ConvexSet) -> list:
    """Extreme points read off the normalized basis of the homogenization:
    each generator with a finite last coordinate, shifted so that coordinate
    is 0 and cut back to the set's dimension, lex-sorted."""
    out = []
    for g in A.homogenize().extract_basis().generators:
        last = g[A.dim]
        if not last.is_zero:
            rescaled = g.scale(MaxPlusScalar(-last.as_float()))
            out.append(TropVector(list(rescaled)[: A.dim]))
    return sorted(out, key=lambda v: v.sort_key())


def fig1_set() -> ConvexSet:
    return ConvexSet.from_vectors(
        [vec(5, 2), vec(4, 0), vec(3, 2), vec(1, 3), vec(2, 5)],
        [vec(0, 1), vec(2, 0)],
    )


def fig1_extreme_points():
    return [vec(1, 3), vec(2, 5), vec(3, 2), vec(4, 0), vec(5, 2)]


def same_ray(u: TropVector, v: TropVector) -> bool:
    """Whether two nonzero vectors generate the same max-plus ray."""
    mu, mv = max(u.sort_key()), max(v.sort_key())
    return u.scale(MaxPlusScalar(-mu)) == v.scale(MaxPlusScalar(-mv))
