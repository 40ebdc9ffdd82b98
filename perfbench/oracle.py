"""Exact reference checks for the benchmark, over int and fractions.Fraction.

Independent of the library under test: membership is a coordinate cover
(every finite coordinate of the query is attained by some maximally scaled
generator), computed with exact rationals.  Inputs are read from their
document text with ``parse_float=Fraction``, so ``0.1`` means 1/10, not the
nearest binary float.  Library outputs are read as the exact value they
state: a float output is its exact binary value.  The semiring zero (-inf)
is ``NEG``; integral values are kept as ``int`` so integer inputs stay fast.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

NEG = None


def exact(v):
    """One scalar from a JSON document or a library output, as int/Fraction/NEG."""
    if isinstance(v, bool):
        raise ValueError(f"not a scalar: {v!r}")
    if isinstance(v, str):
        if v == "-inf":
            return NEG
        v = Fraction(v)
    elif isinstance(v, float):
        if v == -math.inf:
            return NEG
        v = Fraction(v)  # raises on inf and nan
    elif not isinstance(v, (int, Fraction)):
        raise ValueError(f"not a scalar: {v!r}")
    if isinstance(v, Fraction) and v.denominator == 1:
        return v.numerator
    return v


def vec(values) -> tuple:
    return tuple(exact(v) for v in values)


def load(text: str):
    """Parse a document, reading decimals from their decimal text."""
    return json.loads(text, parse_float=Fraction)


def coefficient(g, x):
    """Greatest lam with lam + g <= x, or NEG when g can cover nothing of x."""
    lam = NEG
    for gi, xi in zip(g, x):
        if gi is NEG:
            continue
        if xi is NEG:
            return NEG
        d = xi - gi
        if lam is NEG or d < lam:
            lam = d
    return lam


def uncovered(gens, x) -> list:
    """Finite coordinates of x that no maximally scaled generator attains."""
    lams = [coefficient(g, x) for g in gens]
    usable = [(g, lam) for g, lam in zip(gens, lams) if lam is not NEG]
    return [
        i
        for i, xi in enumerate(x)
        if xi is not NEG
        and not any(g[i] is not NEG and lam + g[i] == xi for g, lam in usable)
    ]


def cone_member(gens, x) -> bool:
    return not uncovered(gens, x)


def lift_points(points) -> list:
    return [tuple(p) + (0,) for p in points]


def lift_rays(rays) -> list:
    return [tuple(r) + (NEG,) for r in rays]


def set_member(points, rays, x) -> bool:
    """x in co(points) + cone(rays), via the lifted coordinate cover."""
    return cone_member(lift_points(points) + lift_rays(rays), tuple(x) + (0,))


def combine(gens, terms, dim):
    """Pointwise max of coeff + gens[index] over (index, coeff) terms."""
    out = [NEG] * dim
    for k, coeff in terms:
        if coeff is NEG:
            continue
        for i, gi in enumerate(gens[k]):
            if gi is not NEG and (out[i] is NEG or coeff + gi > out[i]):
                out[i] = coeff + gi
    return tuple(out)


def _terms(raw, count) -> list:
    terms = [(t["index"], exact(t["coeff"])) for t in raw]
    indices = [k for k, _ in terms]
    if any(isinstance(k, bool) or not isinstance(k, int) or not 0 <= k < count for k in indices):
        raise ValueError(f"term index out of range: {indices}")
    if len(set(indices)) != len(indices):
        raise ValueError(f"repeated term index: {indices}")
    return terms


def cone_certificate_ok(gens, x, doc) -> bool:
    """At most n terms, recombining exactly to x."""
    terms = _terms(doc["terms"], len(gens))
    return len(terms) <= len(x) and combine(gens, terms, len(x)) == tuple(x)


def set_certificate_ok(points, rays, x, doc) -> bool:
    """At most n+1 terms, point coefficients peaking at exactly 0, recombining to x."""
    pts = _terms(doc["point_terms"], len(points))
    rs = _terms(doc["ray_terms"], len(rays))
    n = len(x)
    if not pts or len(pts) + len(rs) > n + 1:
        return False
    if max((c for _, c in pts if c is not NEG), default=NEG) != 0:
        return False
    out = combine(list(points) + list(rays), pts + [(len(points) + h, c) for h, c in rs], n)
    return out == tuple(x)


def _irredundant(kept, others=()) -> bool:
    """No kept vector lies in the cone of the remaining kept vectors plus others."""
    others = list(others)
    return all(
        not cone_member(kept[:k] + kept[k + 1:] + others, v) for k, v in enumerate(kept)
    )


def basis_ok(gens, basis) -> bool:
    """basis generates exactly cone(gens) and no kept ray is covered by the others."""
    basis = [tuple(b) for b in basis]
    if any(all(v is NEG for v in b) for b in basis):
        return False
    return (
        _irredundant(basis)
        and all(cone_member(basis, g) for g in gens)
        and all(cone_member(gens, b) for b in basis)
    )


def extreme_points_ok(points, rays, ext) -> bool:
    """ext are members, irredundant, and with the rays generate the set."""
    lifted_ext = lift_points(ext)
    lifted_rays = lift_rays(rays)
    return (
        all(set_member(points, rays, e) for e in ext)
        and _irredundant(lifted_ext, lifted_rays)
        and all(cone_member(lifted_ext + lifted_rays, p) for p in lift_points(points))
    )


def extreme_points(points, rays) -> list:
    """The extreme points of co(points) + cone(rays): the irredundant distinct points."""
    lifted = list(dict.fromkeys(lift_points(points)))
    lifted_rays = lift_rays(rays)
    return [
        p[:-1]
        for k, p in enumerate(lifted)
        if not cone_member(lifted[:k] + lifted[k + 1:] + lifted_rays, p)
    ]


def form(coeffs, x):
    """max_i (coeffs_i + x_i)."""
    out = NEG
    for a, v in zip(coeffs, x):
        if a is not NEG and v is not NEG and (out is NEG or a + v > out):
            out = a + v
    return out


def _geq(a, b) -> bool:
    return b is NEG or (a is not NEG and a >= b)


def _max(a, b):
    return b if a is NEG or (b is not NEG and b > a) else a


def halfspace_contains(hs, x, side) -> bool:
    """hs = (plus_coeffs, plus_const, minus_coeffs, minus_const)."""
    pc, pk, mc, mk = hs
    lhs, rhs = _max(form(pc, x), pk), _max(form(mc, x), mk)
    return _geq(lhs, rhs) if side == "plus" else _geq(rhs, lhs)


def halfspace_contains_set(hs, points, rays, side) -> bool:
    """Points against the affine inequality, rays against the homogeneous one."""
    pc, _, mc, _ = hs
    if not all(halfspace_contains(hs, p, side) for p in points):
        return False
    for r in rays:
        lhs, rhs = form(pc, r), form(mc, r)
        if not (_geq(lhs, rhs) if side == "plus" else _geq(rhs, lhs)):
            return False
    return True


def halfspace_of(doc) -> tuple:
    return (
        vec(doc["plus"]["coeffs"]),
        exact(doc["plus"]["const"]),
        vec(doc["minus"]["coeffs"]),
        exact(doc["minus"]["const"]),
    )
