"""Tests of the benchmark itself: generator, oracle and span accounting.

Run from the root of the checkout:  python -m pytest perfbench/tests -q
"""

import random
import sys
from array import array
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import gen  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from maxplus import Cone, ConvexSet, TropVector  # noqa: E402


def texts(workload) -> list:
    out = []
    for cones, sets, plane, _ in workload.shapes:
        for g in cones + sets + [plane]:
            out.append(g.text)
            out += [t for t, _, _ in getattr(g, "members", []) + getattr(g, "non_members", [])]
    return out


def test_generator_is_deterministic_per_seed(tmp_path):
    a = texts(workloads.Query(7, str(tmp_path)))
    assert a == texts(workloads.Query(7, str(tmp_path)))
    assert a != texts(workloads.Query(8, str(tmp_path)))
    build = workloads.Build(7, str(tmp_path))
    first = [g.text for g in build._geometries(3)[1]]
    assert first == [g.text for g in workloads.Build(7, str(tmp_path))._geometries(3)[1]]


def test_decimal_geometries_have_one_decimal_text():
    rng = random.Random(1)
    units = gen.cone(rng, 3, 5, scale=10)
    doc = oracle.load(gen.cone_text(units, 10))
    values = [v for g in doc["generators"] for v in g if v != "-inf"]
    assert all(isinstance(v, (int, Fraction)) and (10 * v).denominator == 1 for v in values)
    assert any(isinstance(v, Fraction) for v in values)


def test_generated_halfspace_holds_its_set():
    rng = random.Random(2)
    points, rays = gen.convex_set(rng, 4, 10, 3)
    hs = gen.halfspace(rng, 4, points, rays)
    assert oracle.halfspace_contains_set(hs, points, rays, "plus")


def lib_vec(v):
    return TropVector.of(*(float("-inf") if c is oracle.NEG else c for c in v))


@pytest.mark.parametrize("seed", range(6))
def test_oracle_agrees_with_library_on_integers(seed):
    rng = random.Random(seed)
    gens = gen.cone(rng, 4, 12, duplicates=0.25, combinations=0.25)
    cone = Cone.from_vectors([lib_vec(g) for g in gens])
    for x in [gen.cone_member(rng, gens) for _ in range(5)] + [
        gen.cone_non_member(rng, gens) for _ in range(5)
    ]:
        assert oracle.cone_member(gens, x) == cone.member(lib_vec(x))
    member = gen.cone_member(rng, gens)
    assert oracle.cone_certificate_ok(gens, member, cone.decompose(lib_vec(member)).to_json())
    basis = cone.extract_basis().to_json()["generators"]
    assert oracle.basis_ok(gens, [oracle.vec(b) for b in basis])

    points, rays = gen.convex_set(rng, 3, 8, 2, combinations=0.25)
    cset = ConvexSet.from_vectors([lib_vec(p) for p in points], [lib_vec(r) for r in rays])
    for x in [gen.set_member(rng, points, rays) for _ in range(5)] + [
        gen.set_non_member(rng, points, rays) for _ in range(5)
    ]:
        assert oracle.set_member(points, rays, x) == cset.member(lib_vec(x))
    member = gen.set_member(rng, points, rays)
    cert = cset.decompose(lib_vec(member)).to_json()
    assert oracle.set_certificate_ok(points, rays, member, cert)
    ext = [oracle.vec(p.to_json()) for p in cset.extreme_points()]
    assert oracle.extreme_points_ok(points, rays, ext)
    assert sorted(ext, key=str) == sorted(oracle.extreme_points(points, rays), key=str)


def test_oracle_rejects_wrong_answers():
    gens = [(0, 1), (2, 0)]
    assert not oracle.basis_ok(gens, [(0, 1)])  # misses a generator
    assert not oracle.basis_ok(gens, [(0, 1), (2, 0), (2, 1)])  # (2, 1) is covered
    assert not oracle.basis_ok(gens, [(0, 1), (2, 0), (0, 0)])  # (0, 0) is not in the cone
    cert = {"terms": [{"index": 0, "coeff": 0}, {"index": 1, "coeff": 0}]}
    assert oracle.cone_certificate_ok(gens, (2, 1), cert)
    assert not oracle.cone_certificate_ok(gens, (2, 2), cert)
    points = [(0, 0), (1, -1)]
    good = {"point_terms": [{"index": 0, "coeff": 0}, {"index": 1, "coeff": -1}], "ray_terms": []}
    assert oracle.set_certificate_ok(points, [], (0, 0), good)
    shifted = {"point_terms": [{"index": 0, "coeff": -1}, {"index": 1, "coeff": -2}],
               "ray_terms": []}
    assert not oracle.set_certificate_ok(points, [], (-1, -1), shifted)  # point max is not 0


def test_oracle_flags_float_residuation():
    # 0.3 - 0.1 != 0.2 in binary floats; read as decimal text, (0.2, 0.3)
    # is 0.2 + (0, 0.1), so a member.
    gens = [oracle.vec(oracle.load("[0, 0.1]"))]
    x = oracle.vec(oracle.load("[0.2, 0.3]"))
    assert x == (Fraction(1, 5), Fraction(3, 10))
    assert oracle.cone_member(gens, x) is True
    check = workloads.member_ok(oracle.cone_member(gens, x))
    library = Cone.from_vectors([TropVector.of(0, 0.1)]).member(TropVector.of(0.2, 0.3))
    assert check({"member": library}) is (library is True)
    assert check({"member": False}) is False


def test_self_time_on_synthetic_span_tree():
    #  root [0, 10]
    #    a [1, 4]      (child g [2, 3])
    #    b [3.5, 6]    overlaps a: covered once
    #    c [9, 12]     runs past root: clipped at 10
    spans = [(0, 10, -1), (1, 4, 0), (2, 3, 1), (3.5, 6, 0), (9, 12, 0)]
    start = array("d", [s for s, _, _ in spans])
    end = array("d", [e for _, e, _ in spans])
    parent = array("i", [p for _, _, p in spans])
    assert list(tracing.self_times(start, end, parent)) == pytest.approx([4, 2, 1, 2.5, 3])
    names = array("i", [0, 1, 2, 1, 2])
    assert list(tracing.under(names, parent, 1)) == [0, 0, 1, 0, 0]


def test_tracer_counts_calls_and_restores():
    import maxplus.cli  # noqa: F401  (render and cli are traced too)
    import maxplus.cones as cones

    original = cones.Cone.member
    cone = Cone.from_vectors([TropVector.of(0, 1, 2), TropVector.of(2, 0, 1)])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cone.member(TropVector.of(2, 1, 2))
    finally:
        tracer.restore()
    assert cones.Cone.member is original
    assert tracer.skipped == []
    out = tracing.summary(tracer)
    assert out["cones.Cone.member.calls"] == 1
    assert out["linalg.project.calls"] == 1
    assert out["semiring.residual.calls"] == 6
    assert out["linalg.residual_evals_computed"] == 6
    total = tracer.end[0] - tracer.start[0]
    own = sum(v for k, v in out.items() if k.endswith(".self_s"))
    assert own == pytest.approx(total)
