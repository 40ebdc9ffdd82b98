"""Seeded generator of the benchmark's input documents.

Values are drawn as integers in "units": whole numbers for integer
geometries, tenths for decimal ones (scale 10), so members are built
exactly.  Documents are JSON text as the library and the CLI read them;
decimal geometries come out with one-decimal coordinates such as ``3.7``.
``None`` stands for -inf while generating.  Scaling all coordinates by the
same positive factor preserves max-plus membership, so the oracle can label
candidates directly in units.
"""

from __future__ import annotations

import json
import random

import oracle

SPAN = 20  # coordinates are drawn from [-SPAN, SPAN] in whole units


def _finite(rng: random.Random, scale: int) -> int:
    return rng.randint(-SPAN * scale, SPAN * scale)


def vector(rng: random.Random, n: int, scale: int, neg: float) -> tuple:
    """Random vector with a share `neg` of -inf coordinates, never all -inf."""
    v = [None if rng.random() < neg else _finite(rng, scale) for _ in range(n)]
    if all(c is None for c in v):
        v[rng.randrange(n)] = _finite(rng, scale)
    return tuple(v)


def _scaled(v: tuple, lam: int) -> tuple:
    return tuple(None if c is None else c + lam for c in v)


def join(vectors) -> tuple:
    return tuple(
        max((c for c in col if c is not None), default=None) for col in zip(*vectors)
    )


def cone(rng, n, m, scale=1, duplicates=0.0, combinations=0.0, neg=0.1) -> list:
    """m generators; the given shares are scaled duplicates and max-plus
    combinations of other generators (both redundant for the basis)."""
    n_dup = round(m * duplicates)
    n_comb = round(m * combinations)
    gens = [vector(rng, n, scale, neg) for _ in range(m - n_dup - n_comb)]
    base = list(gens)
    for _ in range(n_dup):
        gens.append(_scaled(rng.choice(base), rng.randint(-3 * scale, 3 * scale)))
    for _ in range(n_comb):
        picks = rng.sample(base, min(len(base), rng.randint(2, 3)))
        gens.append(join(_scaled(g, rng.randint(-5 * scale, 5 * scale)) for g in picks))
    rng.shuffle(gens)
    return gens


def convex_set(rng, n, p, r, scale=1, combinations=0.0, neg=0.1, ray_neg=0.3) -> tuple:
    """(points, rays); a share of the points are convex combinations of others."""
    n_comb = round(p * combinations)
    points = [vector(rng, n, scale, neg) for _ in range(p - n_comb)]
    base = list(points)
    for _ in range(n_comb):
        points.append(set_member(rng, base, [], scale))
    rng.shuffle(points)
    rays = [vector(rng, n, scale, ray_neg) for _ in range(r)]
    return points, rays


def _top(*values):
    return max((v for v in values if v is not None), default=None)


def _form(coeffs, x):
    return _top(*(a + v for a, v in zip(coeffs, x) if a is not None and v is not None))


def halfspace(rng, n, points, rays, scale=1, neg=0.3) -> tuple:
    """(plus_coeffs, plus_const, minus_coeffs, minus_const) whose plus side
    holds the set co(points) + cone(rays) with some generator on the
    boundary, so that a whole-set check scans every generator.
    """
    plus, plus_const = vector(rng, n, scale, 0.0), _finite(rng, scale)
    minus, minus_const = vector(rng, n, scale, neg), _finite(rng, scale)
    # (plus side, minus side) per generator; the plus side is always finite.
    sides = [(_top(_form(plus, p), plus_const), _top(_form(minus, p), minus_const)) for p in points]
    sides += [(_form(plus, r), _form(minus, r)) for r in rays]
    shift = max(rhs - lhs for lhs, rhs in sides if rhs is not None)
    minus = tuple(None if c is None else c - shift for c in minus)
    return plus, plus_const, minus, minus_const - shift


def cone_member(rng, gens, scale=1) -> tuple:
    """Max-plus combination of 1..n generators with random coefficients."""
    n = len(gens[0])
    picks = rng.sample(gens, rng.randint(1, min(n, len(gens))))
    return join(_scaled(g, rng.randint(-5 * scale, 5 * scale)) for g in picks)


def set_member(rng, points, rays, scale=1) -> tuple:
    """Convex combination (coefficients <= 0, one equal to 0) of points, plus rays."""
    picks = rng.sample(points, rng.randint(1, min(len(points), 3)))
    coeffs = [0] + [rng.randint(-5 * scale, 0) for _ in picks[1:]]
    terms = [_scaled(p, c) for p, c in zip(picks, coeffs)]
    if rays and rng.random() < 0.5:
        terms.append(_scaled(rng.choice(rays), rng.randint(-5 * scale, 5 * scale)))
    return join(terms)


def _bump(rng, x, scale) -> tuple:
    i = rng.choice([i for i, c in enumerate(x) if c is not None])
    return tuple(c + rng.randint(1, 3 * scale) if j == i else c for j, c in enumerate(x))


def cone_non_member(rng, gens, scale=1) -> tuple:
    """A member with one finite coordinate raised, or failing that a random vector."""
    n = len(gens[0])
    for _ in range(50):
        x = _bump(rng, cone_member(rng, gens, scale), scale)
        if not oracle.cone_member(gens, x):
            return x
    while True:
        x = vector(rng, n, scale, 0.0)
        if not oracle.cone_member(gens, x):
            return x


def set_non_member(rng, points, rays, scale=1) -> tuple:
    n = len(points[0])
    for _ in range(50):
        x = _bump(rng, set_member(rng, points, rays, scale), scale)
        if not oracle.set_member(points, rays, x):
            return x
    while True:
        x = vector(rng, n, scale, 0.0)
        if not oracle.set_member(points, rays, x):
            return x


def value(u, scale):
    """JSON value of a unit count: "-inf", an int, or a one-decimal float."""
    if u is None:
        return "-inf"
    return u if scale == 1 else u / scale


def values(v, scale) -> list:
    return [value(u, scale) for u in v]


def vector_text(v, scale) -> str:
    return json.dumps(values(v, scale))


def cone_text(gens, scale) -> str:
    return json.dumps({"generators": [values(g, scale) for g in gens]})


def set_text(points, rays, scale) -> str:
    return json.dumps(
        {"points": [values(p, scale) for p in points], "rays": [values(r, scale) for r in rays]}
    )


def halfspace_text(hs, scale) -> str:
    pc, pk, mc, mk = hs
    return json.dumps(
        {
            "plus": {"coeffs": values(pc, scale), "const": value(pk, scale)},
            "minus": {"coeffs": values(mc, scale), "const": value(mk, scale)},
        }
    )
