"""Random instance generators and conversions shared across the test suite."""

import random

from maxplus import Cone, ConvexSet, MaxPlusScalar, NotMember, TropMatrix, TropVector, ZERO
from maxplus.render import PX_PER_UNIT, _fmt

NEG = float("-inf")


def floats(v) -> list:
    return [c.as_float() for c in v]


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


def mixed_vectors(rng: random.Random, n: int, tenths: bool) -> list:
    """Nonzero vectors with scaled duplicates, max-plus combinations and
    -inf entries; one-decimal values when ``tenths``."""

    def num(lo, hi):
        k = rng.randint(lo, hi)
        return k / 10 if tenths else k

    def ray():
        coords = [NEG if rng.random() < 0.2 else num(-50, 50) for _ in range(n)]
        coords[rng.randrange(n)] = num(-50, 50)
        return TropVector.of(*coords)

    base = [ray() for _ in range(rng.randint(1, 6))]
    gens = list(base)
    for _ in range(rng.randint(0, 3)):
        gens.append(rng.choice(base).scale(MaxPlusScalar(num(-30, 30))))
    for _ in range(rng.randint(0, 3)):
        out = TropVector.zero(n)
        for g in rng.sample(base, min(len(base), 2)):
            out = out.join(g.scale(MaxPlusScalar(num(-30, 30))))
        gens.append(out)
    rng.shuffle(gens)
    return gens


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


def reference_shading_rects(A: ConvexSet, frame, grid: int) -> list:
    """The render grid as one ``A.member`` call per cell, merged into
    horizontal run rectangles: what ``render._shading_rects`` must draw."""
    rects = []
    dx = (frame.x1 - frame.x0) / grid
    dy = (frame.y1 - frame.y0) / grid
    for row in range(grid):
        y = frame.y1 - (row + 0.5) * dy
        run_start = None
        for col in range(grid + 1):
            inside = False
            if col < grid:
                x = frame.x0 + (col + 0.5) * dx
                inside = A.member(TropVector.of(x, y))
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
    return rects


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
    mu, mv = u.max_coord(), v.max_coord()
    return u.scale(MaxPlusScalar(-mu.as_float())) == v.scale(MaxPlusScalar(-mv.as_float()))
