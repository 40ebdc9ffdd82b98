"""The paper's statements as seeded property tests, checked exactly.

Each statement runs on three corpora of ``util.mixed_pairs``: integer,
one-decimal (``tenths``) and near-overflow (``huge``) coordinates.  The
exact oracle (``perfbench/oracle.py``) gets the geometry and the targets
from the numbers that generated them, and the library's answers as the
exact values they state.  The integer corpora pass; a corpus the float
library fails today is a strict xfail that names ROADMAP item 4.

Refs: Gaubert & Katz, LAA 421 (2007); Butkovic, Schneider & Sergeev,
LAA 421 (2007).
"""

import json
import random

import pytest

import oracle
from maxplus import Cone, ConvexSet, MaxPlusScalar, NotMember, TropMatrix
from maxplus.cli import EXIT_OK, main

from util import ROADMAP_ITEM_4, combination, corpus_value, exact_all, mixed_pairs

KINDS = {"integer": (False, False), "tenths": (True, False), "huge": (False, True)}

# Coefficients of targets and rescalings stay within +-9 units: a huge
# corpus has coordinates up to 1.6e308, and 9 * 2e306 more stays finite.
SPREAD = 9


def corpora(*failing):
    """The three corpora as the ``kind`` parameter, those in ``failing`` as
    strict xfails."""
    xfail = pytest.mark.xfail(strict=True, raises=AssertionError, reason=ROADMAP_ITEM_4)
    return pytest.mark.parametrize(
        "kind", [pytest.param(k, marks=xfail) if k in failing else k for k in KINDS]
    )


def coefficient(rng, kind, hi=SPREAD):
    """A seeded coefficient of the corpus ``kind``, ``(float, exact)``."""
    return corpus_value(rng.randint(-SPREAD, hi), *KINDS[kind])


def mixed_cone(rng, kind):
    """A cone of dimension 1-5 and its ``(vector, exact)`` generator pairs."""
    n = rng.randint(1, 5)
    pairs = mixed_pairs(rng, n, *KINDS[kind])
    return Cone(TropMatrix([v for v, _ in pairs], dim=n)), pairs


def mixed_set(rng, kind):
    """A set of dimension 1-4 and its ``(vector, exact)`` point and ray pairs."""
    n = rng.randint(1, 4)
    points = mixed_pairs(rng, n, *KINDS[kind])
    rays = mixed_pairs(rng, n, *KINDS[kind])[: rng.randint(0, 3)]
    return ConvexSet.from_vectors([v for v, _ in points], [v for v, _ in rays]), points, rays


def same_ray(u, v) -> bool:
    """Whether two nonzero exact vectors span the same ray."""
    if any((a is oracle.NEG) != (b is oracle.NEG) for a, b in zip(u, v)):
        return False
    return len({a - b for a, b in zip(u, v) if a is not oracle.NEG}) == 1


def extreme(gens, v) -> bool:
    """v spans an extreme ray of cone(gens): the generators off its ray do
    not generate it."""
    return not oracle.cone_member([g for g in gens if not same_ray(g, v)], v)


def exacts(pairs) -> list:
    return [e for _, e in pairs]


@corpora("tenths", "huge")
def test_cone_members_decompose_into_n_extreme_generators(kind):
    rng = random.Random(1201)
    failed = total = 0
    for _ in range(200):
        C, pairs = mixed_cone(rng, kind)
        gens = exacts(pairs)
        for _ in range(3):
            picked = rng.sample(pairs, min(len(pairs), rng.randint(1, 3)))
            x, ex = combination(picked, [coefficient(rng, kind) for _ in picked], C.dim)
            total += 1
            try:
                doc = C.decompose(x).to_json()
            except (NotMember, ArithmeticError):
                failed += 1
                continue
            failed += not (
                oracle.cone_certificate_ok(gens, ex, doc)
                and all(extreme(gens, gens[t["index"]]) for t in doc["terms"])
            )
    assert failed == 0, f"{failed} of {total} members"


@corpora("tenths", "huge")
def test_set_members_decompose_into_n_plus_1_extreme_points_and_rays(kind):
    rng = random.Random(1202)
    failed = total = 0
    for _ in range(200):
        A, point_pairs, ray_pairs = mixed_set(rng, kind)
        points, rays = exacts(point_pairs), exacts(ray_pairs)
        ext = oracle.extreme_points(points, rays)
        for _ in range(3):
            coeffs = [coefficient(rng, kind, hi=0) for _ in points]
            coeffs[rng.randrange(len(points))] = corpus_value(0, *KINDS[kind])
            picked = list(point_pairs)
            for r in ray_pairs:
                if rng.random() < 0.5:
                    picked.append(r)
                    coeffs.append(coefficient(rng, kind))
            x, ex = combination(picked, coeffs, A.dim)
            total += 1
            try:
                doc = A.decompose(x).to_json()
            except (NotMember, ArithmeticError):
                failed += 1
                continue
            failed += not (
                oracle.set_certificate_ok(points, rays, ex, doc)
                and all(points[t["index"]] in ext for t in doc["point_terms"])
                and all(extreme(rays, rays[t["index"]]) for t in doc["ray_terms"])
            )
    assert failed == 0, f"{failed} of {total} members"


@corpora("tenths", "huge")
def test_minkowski_verify_holds(kind, tmp_path, capsys):
    """A = co(ext A) + rec A, as the CLI reports it: the benchmark's check
    of ``minkowski-verify``, its output read from the decimal text."""
    rng = random.Random(1203)
    path = tmp_path / "set.json"
    failed = 0
    for _ in range(150):
        A, point_pairs, ray_pairs = mixed_set(rng, kind)
        points, rays = exacts(point_pairs), exacts(ray_pairs)
        path.write_text(json.dumps(A.to_json()))
        code = main(["minkowski-verify", "--set", str(path)])
        doc = oracle.load(capsys.readouterr().out)
        ext = [oracle.vec(p) for p in doc["extreme_points"]]
        failed += not (
            code == EXIT_OK
            and doc["holds"] is True
            and oracle.extreme_points_ok(points, rays, ext)
            and oracle.basis_ok(rays, [oracle.vec(r) for r in doc["recession_basis"]])
        )
    assert failed == 0, f"{failed} of 150 sets"


@corpora("tenths", "huge")
def test_extreme_points_are_exact(kind):
    rng = random.Random(1204)
    failed = 0
    for _ in range(200):
        A, points, rays = mixed_set(rng, kind)
        ext = exact_all(A.extreme_points())
        failed += not oracle.extreme_points_ok(exacts(points), exacts(rays), ext)
    assert failed == 0, f"{failed} of 200 sets"


@corpora("tenths", "huge")
def test_basis_is_exact_and_invariant_under_shuffling_and_rescaling(kind):
    rng = random.Random(1205)
    failed = 0
    for _ in range(200):
        C, pairs = mixed_cone(rng, kind)
        basis = list(C.extract_basis().generators)
        gens = list(C.generators)
        rng.shuffle(gens)
        rescaled = [g.scale(MaxPlusScalar(coefficient(rng, kind)[0])) for g in gens]
        again = list(Cone(TropMatrix(rescaled, dim=C.dim)).extract_basis().generators)
        failed += not (oracle.basis_ok(exacts(pairs), exact_all(basis)) and again == basis)
    assert failed == 0, f"{failed} of 200 cones"
