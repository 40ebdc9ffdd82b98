"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import random

from maxplus import (
    Cone,
    ConvexSet,
    MaxPlusScalar,
    TropMatrix,
    TropVector,
    ZERO,
    cones_equal,
    HalfSpace,
    project,
    residual,
    sets_equal,
)

import oracle
from util import (
    exact,
    exact_all,
    fig1_extreme_points,
    fig1_set,
    rand_cone,
    rand_cone_member,
    rand_set,
    rand_set_member,
    rand_vector,
    same_ray,
    vec,
)


def report(criterion, label):
    print(f"PASS  criterion {criterion}: {label}")


def test_criterion_1_figure_golden():
    A = fig1_set()
    assert A.extreme_points() == fig1_extreme_points()
    rec = A.recession()
    expected = [vec(0, 1), vec(2, 0)]
    assert rec.ngens == 2
    for e in expected:
        assert any(same_ray(e, g) for g in rec.generators)
    report(1, "figure golden test (extreme points and recession rays, tolerance 0)")


def test_criterion_2_redundancy_robustness():
    rng = random.Random(101)
    A = fig1_set()
    extras = []
    while len(extras) < 10:
        x = rand_set_member(rng, A)
        assert A.member(x)
        extras.append(x)
    extended = ConvexSet(TropMatrix(list(A.points) + extras, dim=2), A.rays)
    assert extended.extreme_points() == A.extreme_points()
    assert cones_equal(extended.recession(), A.recession())
    assert set(extended.recession().generators) == set(A.recession().generators)
    report(2, "10 appended redundant members change no output")


def test_criterion_3_cone_decomposition():
    rng = random.Random(102)
    for _ in range(200):
        n = rng.choice([2, 3, 4])
        C = rand_cone(rng, n, max_gens=6)
        basis_rays = list(C.extract_basis().generators)
        for _ in range(10):
            x = rand_cone_member(rng, C)
            d = C.decompose(x)
            assert len(d.terms) <= n
            assert d.recombine(C) == x
            for k, _ in d.terms:
                assert any(same_ray(C.generators[k], b) for b in basis_rays)
    report(3, "cone members decompose into <= n extreme generators, exactly")


def test_criterion_4_compact_minkowski():
    rng = random.Random(103)
    for _ in range(200):
        n = rng.choice([2, 3, 4])
        A = rand_set(rng, n, max_points=6, with_rays=False)
        ext = set(A.extreme_points())
        for _ in range(10):
            x = rand_set_member(rng, A)
            d = A.decompose(x)
            assert len(d.point_terms) <= n + 1
            assert d.ray_terms == ()
            assert d.recombine(A) == x
            coeff_max = ZERO
            for k, c in d.point_terms:
                coeff_max = coeff_max + c
                assert A.points[k] in ext
            assert coeff_max == MaxPlusScalar(0)
    report(4, "compact sets: <= n+1 extreme-point terms, max coefficient 0, exact")


def test_criterion_5_general_decomposition():
    rng = random.Random(104)
    for _ in range(200):
        n = rng.choice([2, 3, 4])
        A = rand_set(rng, n, max_points=6)
        ext = set(A.extreme_points())
        rec_basis = list(A.recession().generators)
        for _ in range(10):
            x = rand_set_member(rng, A)
            d = A.decompose(x)
            assert len(d.point_terms) + len(d.ray_terms) <= n + 1
            assert d.recombine(A) == x
            for k, _ in d.point_terms:
                assert A.points[k] in ext
            for h, _ in d.ray_terms:
                assert any(same_ray(A.rays[h], b) for b in rec_basis)
        reconstructed = ConvexSet.from_vectors(sorted(ext, key=lambda v: v.sort_key()), rec_basis)
        assert sets_equal(A, reconstructed)
    report(5, "unbounded sets: points + rays <= n+1, identity co(ext)+rec verified")


def test_criterion_6_basis_theorem():
    rng = random.Random(105)
    for _ in range(200):
        C = rand_cone(rng, rng.randint(1, 5))
        B = C.extract_basis()
        assert cones_equal(C, B)
        gens = list(C.generators)
        rng.shuffle(gens)
        rescaled = [g.scale(MaxPlusScalar(rng.randint(-4, 4))) for g in gens]
        B2 = Cone(TropMatrix(rescaled, dim=C.dim)).extract_basis()
        assert set(B.generators) == set(B2.generators)
    report(6, "basis mutually generates the cone and is invariant to shuffling/rescaling")


def test_criterion_7_oracle_equivalence():
    rng = random.Random(106)
    members = non_members = 0
    for _ in range(5000):
        n = rng.randint(1, 5)
        C = rand_cone(rng, n)
        if rng.random() < 0.5:
            x = rand_cone_member(rng, C)
        else:
            x = rand_vector(rng, n, nonzero=False)
        got = C.member(x)
        assert got == oracle.cone_member(exact_all(C.generators), exact(x))
        members += got
        non_members += not got
    assert members > 500 and non_members > 500
    report(7, f"member agrees with the exact oracle on 5000 pairs "
              f"({members} members, {non_members} non-members)")


def test_criterion_8_lifted_extreme_cross_check():
    rng = random.Random(107)
    for _ in range(100):
        A = rand_set(rng, rng.randint(1, 4))
        lifted_ext = {TropVector(list(p) + [MaxPlusScalar(0)]) for p in A.extreme_points()}
        finite_last = set()
        for g in A.homogenize().extract_basis().generators:
            last = g[A.dim]
            if not last.is_zero:
                finite_last.add(g.scale(MaxPlusScalar(-last.as_float())))
        assert lifted_ext == finite_last
    report(8, "extreme points match the finite-last-coordinate basis of the lift")


def test_criterion_9_face_counterexample():
    A = ConvexSet.from_vectors([vec(0, 0), vec(0, -2)])
    F = ConvexSet.from_vectors([vec(0, -1), vec(0, -2)])
    H = HalfSpace(vec(0, 1), ZERO, TropVector.zero(2), MaxPlusScalar(0))
    p = vec(0, -1)
    assert all(A.member(g) for g in F.points)
    assert all(H.contains(g, "minus") for g in F.points)
    assert F.member(p)
    assert F.is_extreme(p)
    assert not A.is_extreme(p)
    report(9, "face instance: extreme in the face, not extreme in the set")


def test_criterion_10_law_suite():
    rng = random.Random(108)

    def scalar():
        return ZERO if rng.random() < 0.25 else MaxPlusScalar(rng.randint(-9, 9))

    for _ in range(10000):
        a, b, c = scalar(), scalar(), scalar()
        assert a + a == a
        assert a * (b + c) == a * b + a * c
    for _ in range(10000):
        a = MaxPlusScalar(rng.randint(-9, 9))
        lam = MaxPlusScalar(rng.randint(-9, 9))
        b = MaxPlusScalar(rng.randint(-9, 9))
        assert (lam * a <= b) == (lam.as_float() <= residual(b, a))
    for _ in range(10000):
        n = rng.randint(1, 4)
        C = rand_cone(rng, n, max_gens=5)
        M = C.generators
        x = rand_vector(rng, n, nonzero=False)
        p = project(M, x)
        assert p.join(x) == x
        assert project(M, p) == p
        y = x.join(rand_vector(rng, n, nonzero=False))
        py = project(M, y)
        assert p.join(py) == py
    report(10, "10000 randomized cases per law: idempotency, distributivity, "
               "Galois connection, projection properties")
