import random

import pytest

from maxplus import cones as cones_module
from maxplus import (
    Cone,
    ConvexSet,
    DimensionMismatch,
    MaxPlusScalar,
    NotMember,
    TropMatrix,
    TropVector,
    ZERO,
    cones_equal,
    sets_equal,
)

import oracle
from util import (
    CORPORA,
    NEG,
    ROADMAP_ITEM_4,
    combination,
    corpus_coeff,
    corpus_value,
    corpus_vectors,
    exact,
    exact_all,
    fig1_extreme_points,
    fig1_set,
    mixed_pairs,
    mixed_vectors,
    outcome,
    rand_set,
    rand_set_member,
    reference_cone_decompose,
    reference_contains_cone,
    reference_extreme_points,
    reference_is_extreme,
    reference_member,
    reference_recession,
    reference_set_decompose,
    reference_sets_equal,
    same_ray,
    vec,
)


class TestHomogenize:
    def test_single_point(self):
        A = ConvexSet.from_vectors([vec(5, 2)])
        assert list(A.homogenize().generators) == [vec(5, 2, 0)]

    def test_fig1(self):
        gens = list(fig1_set().homogenize().generators)
        assert gens == [
            vec(5, 2, 0),
            vec(4, 0, 0),
            vec(3, 2, 0),
            vec(1, 3, 0),
            vec(2, 5, 0),
            vec(0, 1, "-inf"),
            vec(2, 0, "-inf"),
        ]

    def test_point_plus_ray(self):
        A = ConvexSet.from_vectors([vec(0, 0)], [vec(0, 1)])
        assert list(A.homogenize().generators) == [vec(0, 0, 0), vec(0, 1, "-inf")]

    def test_lift(self):
        A = fig1_set()
        assert A.lift(vec(1, "-inf")) == vec(1, "-inf", 0)
        with pytest.raises(DimensionMismatch, match="dim 2 vs 3"):
            A.lift(vec(1, 2, 3))


class TestMember:
    def test_extreme_point_is_member(self):
        assert fig1_set().member(vec(5, 2))

    def test_outside_point(self):
        assert not fig1_set().member(vec(0, 0))

    def test_singleton(self):
        assert ConvexSet.from_vectors([vec(0, 0)]).member(vec(0, 0))

    def test_agrees_with_oracle(self):
        rng = random.Random(31)
        for _ in range(300):
            n = rng.randint(1, 4)
            A = rand_set(rng, n)
            x = rand_set_member(rng, A) if rng.random() < 0.5 else vec(
                *[rng.randint(-6, 6) for _ in range(n)]
            )
            expect = oracle.set_member(exact_all(A.points), exact_all(A.rays), exact(x))
            assert A.member(x) == expect


class TestExtremePoints:
    def test_fig1(self):
        assert fig1_set().extreme_points() == fig1_extreme_points()

    def test_redundant_point_ignored(self):
        A = fig1_set()
        assert A.member(vec(4, 1))
        extended = ConvexSet(
            TropMatrix(list(A.points) + [vec(4, 1)], dim=2), A.rays
        )
        assert extended.extreme_points() == fig1_extreme_points()

    def test_singleton(self):
        assert ConvexSet.from_vectors([vec(0, 0)]).extreme_points() == [vec(0, 0)]

    def test_each_call_returns_a_new_list(self):
        A = fig1_set()
        ext = A.extreme_points()
        ext.reverse()
        ext.append(vec(9, 9))
        del ext[0]
        assert A.extreme_points() == fig1_extreme_points()
        assert A.extreme_points() is not A.extreme_points()

    def test_near_overflow_point_returned_as_given(self):
        A = ConvexSet.from_vectors([vec(-1e308, 1e308), vec(0, 0)])
        assert A.extreme_points() == [vec(-1e308, 1e308), vec(0, 0)]
        assert all(A.is_extreme(p) for p in A.extreme_points())

    def test_input_points_on_mixed_sets(self):
        """Every extreme point is an input point; on integer sets the list is
        the one read off the normalized lifted basis."""
        rng = random.Random(81)
        for k in range(200):
            n = rng.randint(1, 4)
            tenths = k % 2 == 1
            points = mixed_vectors(rng, n, tenths)
            rays = mixed_vectors(rng, n, tenths)[: rng.randint(0, 3)]
            A = ConvexSet.from_vectors(points, rays)
            ext = A.extreme_points()
            assert ext and all(p in A.points for p in ext)
            if not tenths:
                assert ext == reference_extreme_points(A)


class TestRecession:
    def test_fig1(self):
        rec = fig1_set().recession()
        assert cones_equal(rec, Cone.from_vectors([vec(0, 1), vec(2, 0)]))

    def test_compact_set(self):
        rec = ConvexSet.from_vectors([vec(0, 0)]).recession()
        assert rec.ngens == 0
        # the empty cone's document reads back (the CLI's recession, then --cone)
        back = Cone.from_json(rec.to_json())
        assert (back.ngens, back.dim) == (0, 2)

    def test_duplicate_ray_collapses(self):
        A = ConvexSet.from_vectors([vec(0, 0)], [vec(0, 1), vec(-2, -1)])
        assert list(A.recession().generators) == [vec(-1, 0)]

    def test_recession_independence_sampled(self):
        rng = random.Random(32)
        for _ in range(50):
            A = rand_set(rng, rng.randint(1, 4))
            members = [rand_set_member(rng, A) for _ in range(2)]
            for u in A.recession().generators:
                for lam in range(-3, 4):
                    for v in members:
                        assert A.member(v.join(u.scale(MaxPlusScalar(lam))))


def _decompose_corpus():
    """Seed 35: 200 sets of points and rays with scaled duplicates, max-plus
    combinations, -inf entries and, for half of them, one-decimal values;
    4 targets each, a target being a convex combination of the points
    joined with scaled rays.  Yields (set, exact points, exact rays,
    tenths, [(target, exact target)])."""
    rng = random.Random(35)
    for _ in range(200):
        n = rng.randint(1, 4)
        tenths = rng.random() < 0.5
        points = mixed_pairs(rng, n, tenths)
        rays = mixed_pairs(rng, n, tenths)[: rng.randint(0, 3)]
        A = ConvexSet.from_vectors([v for v, _ in points], [v for v, _ in rays])
        targets = []
        for _ in range(4):
            alphas = [rng.randint(-30, 0) for _ in points]
            alphas[rng.randrange(len(points))] = 0
            picked, coeffs = list(points), [corpus_value(a, tenths) for a in alphas]
            for r in rays:
                if rng.random() < 0.5:
                    picked.append(r)
                    coeffs.append(corpus_value(rng.randint(-30, 30), tenths))
            targets.append(combination(picked, coeffs, n))
        yield A, [e for _, e in points], [e for _, e in rays], tenths, targets


class TestDecompose:
    def test_fig1_interior(self):
        A = fig1_set()
        d = A.decompose(vec(5, 5))
        assert len(d.point_terms) + len(d.ray_terms) <= 3
        assert d.recombine(A) == vec(5, 5)

    def test_extreme_point_decomposes_as_itself(self):
        A = fig1_set()
        d = A.decompose(vec(4, 0))
        assert d.point_terms == ((1, MaxPlusScalar(0)),)
        assert d.ray_terms == ()

    def test_certificate_is_an_immutable_value(self):
        A = fig1_set()
        d = A.decompose(vec(4, 0))
        assert d == A.decompose(vec(4, 0)) and hash(d) == hash(A.decompose(vec(4, 0)))
        assert d != A.decompose(vec(5, 5))
        assert repr(d) == (
            "SetDecomposition(point_terms=((1, MaxPlusScalar(0)),), ray_terms=(), "
            "target=TropVector(4, 0))"
        )
        with pytest.raises(AttributeError):
            d.ray_terms = ()

    def test_compact_endpoint(self):
        A = ConvexSet.from_vectors([vec(0, 0), vec(2, 1)])
        d = A.decompose(vec(2, 1))
        assert d.point_terms == ((1, MaxPlusScalar(0)),)

    def test_non_member_raises(self):
        with pytest.raises(NotMember):
            fig1_set().decompose(vec(0, 0))

    def test_dimension_mismatch_names_the_set_dims(self):
        with pytest.raises(DimensionMismatch, match="dim 2 vs 3"):
            fig1_set().decompose(vec(1, 2, 3))

    def test_compact_certificates_random(self):
        rng = random.Random(33)
        for _ in range(100):
            n = rng.randint(1, 4)
            A = rand_set(rng, n, with_rays=False)
            ext = set(A.extreme_points())
            for _ in range(5):
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

    def test_general_certificates_random(self):
        rng = random.Random(34)
        for _ in range(100):
            n = rng.randint(1, 4)
            A = rand_set(rng, n)
            ext = set(A.extreme_points())
            rec_basis = list(A.recession().generators)
            for _ in range(5):
                x = rand_set_member(rng, A)
                d = A.decompose(x)
                assert len(d.point_terms) + len(d.ray_terms) <= n + 1
                assert d.recombine(A) == x
                for k, _ in d.point_terms:
                    assert A.points[k] in ext
                for h, _ in d.ray_terms:
                    assert any(same_ray(A.rays[h], b) for b in rec_basis)


    def test_certificates_on_mixed_sets(self):
        """Integer inputs always decompose, into a certificate the exact
        oracle accepts; on one-decimal inputs float rounding may refuse
        (NotMember, or ArithmeticError for a member) but a returned
        certificate recombines to the target in floats."""
        made = {True: 0, False: 0}
        for A, points, rays, tenths, targets in _decompose_corpus():
            n = A.dim
            lifted_basis = list(A.homogenize().extract_basis().generators)
            rec_basis = list(A.recession().generators)
            for x, ex in targets:
                try:
                    d = A.decompose(x)
                except (NotMember, ArithmeticError) as exc:
                    assert tenths
                    assert A.member(x) == isinstance(exc, ArithmeticError)
                    continue
                made[not tenths] += 1
                assert len(d.point_terms) + len(d.ray_terms) <= n + 1
                assert max(c.as_float() for _, c in d.point_terms) == 0
                if tenths:
                    assert d.recombine(A) == x
                else:
                    assert oracle.set_certificate_ok(points, rays, ex, d.to_json())
                for k, _ in d.point_terms:
                    lifted = TropVector(list(A.points[k]) + [MaxPlusScalar(0)])
                    assert any(same_ray(lifted, b) for b in lifted_basis)
                for h, _ in d.ray_terms:
                    assert any(same_ray(A.rays[h], b) for b in rec_basis)
        assert made[True] > 350 and made[False] > 250, made

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=ROADMAP_ITEM_4)
    def test_one_decimal_certificates_are_exact(self):
        """The one-decimal half of the corpus above against the exact
        oracle: every target is a member, so each must get a certificate
        that recombines to it exactly."""
        failed = total = 0
        for A, points, rays, tenths, targets in _decompose_corpus():
            if not tenths:
                continue
            for x, ex in targets:
                total += 1
                try:
                    doc = A.decompose(x).to_json()
                    failed += not oracle.set_certificate_ok(points, rays, ex, doc)
                except (NotMember, ArithmeticError):
                    failed += 1
        assert failed == 0, f"{failed} of {total} one-decimal members"


class TestMinkowskiSum:
    def test_representation_identity_fig1(self):
        A = fig1_set()
        B = ConvexSet.from_vectors(A.extreme_points(), list(A.recession().generators))
        assert sets_equal(A, B)

    def test_self_sum_contains_self(self):
        # a set holds the join of two members: both coefficients 0
        rng = random.Random(35)
        for _ in range(30):
            A = rand_set(rng, rng.randint(1, 3), max_points=4)
            for _ in range(5):
                assert A.member(rand_set_member(rng, A).join(rand_set_member(rng, A)))

    def test_representation_identity_random(self):
        rng = random.Random(36)
        for _ in range(50):
            A = rand_set(rng, rng.randint(1, 4))
            B = ConvexSet.from_vectors(A.extreme_points(), list(A.recession().generators))
            assert sets_equal(A, B)


class TestIsExtreme:
    def test_fig1_extreme(self):
        assert fig1_set().is_extreme(vec(3, 2))

    def test_fig1_non_extreme_member(self):
        A = fig1_set()
        assert A.member(vec(5, 3))
        assert not A.is_extreme(vec(5, 3))

    def test_singleton(self):
        assert ConvexSet.from_vectors([vec(0, 0)]).is_extreme(vec(0, 0))

    def test_listed_non_extreme_point(self):
        # (5, 3) is a member of fig1, so listing it leaves the set unchanged
        base = fig1_set()
        A = ConvexSet.from_vectors(list(base.points) + [vec(5, 3)], list(base.rays))
        assert not A.is_extreme(vec(5, 3))
        assert A.is_extreme(vec(3, 2))
        assert A.extreme_points() == fig1_extreme_points()

    def test_listed_point_reached_by_ray(self):
        A = ConvexSet.from_vectors([vec(0, 0), vec(1, 1)], [vec(0, 0)])
        assert A.is_extreme(vec(0, 0))
        assert not A.is_extreme(vec(1, 1))

    def test_matches_extended_extreme_points(self):
        # appending a member to the point list leaves the set unchanged
        rng = random.Random(38)
        for _ in range(150):
            A = rand_set(rng, rng.randint(1, 4))
            for x in list(A.points)[:2] + [rand_set_member(rng, A)]:
                extended = ConvexSet(TropMatrix(list(A.points) + [x], dim=A.dim), A.rays)
                assert A.is_extreme(x) == (x in extended.extreme_points())

    def test_non_member_raises(self, monkeypatch):
        # the projection is the cover of one pass on the lifted rows, not Cone.project's
        monkeypatch.setattr(Cone, "project", lambda *args: pytest.fail("Cone.project ran"))
        with pytest.raises(NotMember) as exc:
            fig1_set().is_extreme(vec(0, 9))
        assert exc.value.projection == vec(0, 3)
        with pytest.raises(NotMember) as exc:
            fig1_set().decompose(vec(0, 9))
        assert exc.value.projection == vec(0, 3)

    @pytest.mark.parametrize("kind", CORPORA)
    def test_reads_the_extreme_points(self, kind):
        """A point that ``member`` accepts is extreme when it is one of the
        extreme points; on integer input that is exact."""
        rng = random.Random(f"extreme point:{kind}")
        answers = set()
        for _ in range(150):
            n = rng.randint(1, 4)
            points = corpus_vectors(rng, n, kind)
            rays = corpus_vectors(rng, n, kind)[: rng.randint(0, 3)]
            A = ConvexSet.from_vectors(points, rays)
            extreme = A.extreme_points()
            exact_extreme = oracle.extreme_points(exact_all(points), exact_all(rays))
            for p in points:
                if not A.member(p):
                    continue
                answer = A.is_extreme(p)
                assert answer == (p in extreme)
                if kind in ("integer", "-inf"):
                    assert answer == (exact(p) in exact_extreme)
                answers.add(answer)
        assert answers == {True, False}

    def test_integer_input_takes_the_exact_form(self, monkeypatch):
        # the membership test and the verdicts of the lifted points' rays
        def fail(*args):
            raise AssertionError("the float form ran on integer input")

        monkeypatch.setattr(cones_module, "_project", fail)
        A = fig1_set()
        assert A.is_extreme(vec(3, 2)) and not A.is_extreme(vec(5, 3))

    def test_dimension_mismatch_names_the_set_dims(self):
        with pytest.raises(DimensionMismatch, match="dim 2 vs 3"):
            fig1_set().is_extreme(vec(1, 2, 3))

    def test_remark_on_extreme_combinations(self):
        # if an extreme point equals a convex combination of two members,
        # it must coincide with one of them, taken with coefficient 0
        rng = random.Random(37)
        A = fig1_set()
        ext = A.extreme_points()
        for _ in range(300):
            x = ext[rng.randrange(len(ext))]
            y = rand_set_member(rng, A)
            z = rand_set_member(rng, A)
            a = rng.randint(-4, 0)
            b = 0 if a < 0 else rng.randint(-4, 0)
            alpha, beta = MaxPlusScalar(a), MaxPlusScalar(b)
            if y.scale(alpha).join(z.scale(beta)) == x:
                assert (x == y and a == 0) or (x == z and b == 0)


class TestInvariants:
    def test_convexity_closure_sampled(self):
        rng = random.Random(38)
        for _ in range(50):
            A = rand_set(rng, rng.randint(1, 4))
            u = rand_set_member(rng, A)
            v = rand_set_member(rng, A)
            a = rng.randint(-4, 0)
            b = 0 if a < 0 else rng.randint(-4, 0)
            comb = u.scale(MaxPlusScalar(a)).join(v.scale(MaxPlusScalar(b)))
            assert A.member(comb)

    def test_cross_section_consistency(self):
        rng = random.Random(39)
        for _ in range(50):
            A = rand_set(rng, rng.randint(1, 4))
            lifted_ext = {TropVector(list(p) + [MaxPlusScalar(0)]) for p in A.extreme_points()}
            finite_last = set()
            for g in A.homogenize().extract_basis().generators:
                last = g[A.dim]
                if not last.is_zero:
                    finite_last.add(g.scale(MaxPlusScalar(-last.as_float())))
            assert lifted_ext == finite_last


class TestHomogenizationCache:
    """The lifted cone is built on first use and kept: a set is immutable."""

    def test_homogenize_returns_the_same_cone(self):
        A = fig1_set()
        assert A.homogenize() is A.homogenize()

    def test_repeated_calls_match_a_fresh_set_per_call(self):
        rng = random.Random(71)
        for _ in range(120):
            n = rng.randint(1, 4)
            tenths = rng.random() < 0.5
            points = mixed_vectors(rng, n, tenths)
            rays = mixed_vectors(rng, n, tenths)[: rng.randint(0, 3)]
            targets = list(points[:2]) + mixed_vectors(rng, n, tenths)[:1]
            x = TropVector.zero(n)
            for p in points:
                k = rng.randint(-30, 0)
                x = x.join(p.scale(MaxPlusScalar(k / 10 if tenths else k)))
            targets.append(x.join(points[0]))

            def fresh():
                return ConvexSet.from_vectors(points, rays)

            A = fresh()
            for _ in range(3):
                assert A.extreme_points() == fresh().extreme_points()
                for x in targets:
                    assert A.member(x) == fresh().member(x)
                    assert outcome(lambda: A.decompose(x)) == outcome(lambda: fresh().decompose(x))
                    assert outcome(lambda: A.is_extreme(x)) == outcome(
                        lambda: fresh().is_extreme(x)
                    )

    @pytest.mark.parametrize("kind", CORPORA)
    def test_outcomes_do_not_depend_on_call_order(self, kind):
        """decompose, extreme_points and recession read only the verdicts of
        the lifted rays they need; the order of the calls on a fresh set
        changes no certificate, refusal, basis or point."""
        rng = random.Random(f"set call order:{kind}")
        for _ in range(40):
            n = rng.randint(1, 4)
            points = corpus_vectors(rng, n, kind)
            rays = corpus_vectors(rng, n, kind)[: rng.randint(0, 3)]
            targets = points[:2] + corpus_vectors(rng, n, kind)[:2]
            for _ in range(2):
                x = TropVector.zero(n)
                for p in points:
                    x = x.join(p.scale(corpus_coeff(rng, kind, hi=0)))
                for r in rays:
                    x = x.join(r.scale(corpus_coeff(rng, kind)))
                targets.append(x.join(points[0]))

            def answers(order):
                A, out = ConvexSet.from_vectors(points, rays), {}
                for step in order:
                    if step == "basis":
                        out[step] = A.homogenize().extract_basis().to_json()
                    elif step == "extreme points":
                        out[step] = [p.to_json() for p in A.extreme_points()]
                    elif step == "recession":
                        out[step] = A.recession().to_json()
                    else:
                        out[step] = outcome(lambda: A.decompose(targets[step]).to_json())
                return out

            order = [*range(len(targets)), "extreme points", "recession", "basis"]
            shuffled = rng.sample(order, len(order))
            assert answers(order) == answers(order[::-1]) == answers(shuffled)

    def test_second_call_runs_no_removal_test(self, monkeypatch):
        calls, passes = [], []
        covered, project_rows = cones_module._covered, cones_module._project
        monkeypatch.setattr(
            cones_module, "_covered", lambda *args: calls.append(args) or covered(*args)
        )
        monkeypatch.setattr(
            cones_module, "_project", lambda *args: passes.append(args) or project_rows(*args)
        )
        scans = []
        entries = Cone._basis_entries
        monkeypatch.setattr(
            Cone, "_basis_entries", lambda self, **kw: scans.append(kw) or entries(self, **kw)
        )
        A = fig1_set()
        assert A.extreme_points() == fig1_extreme_points()
        rec = A.recession()
        assert calls
        assert scans == [{"stop": 5}, {"start": 5}]
        done = len(calls)
        # each read is kept: no removal test and no verdict scan the second time
        assert A.extreme_points() == fig1_extreme_points()
        assert A.recession() is rec
        assert len(calls) == done
        assert len(scans) == 2
        # no removal test per decompose, only one projection pass on the
        # cached lifted rows
        one_pass = (A.homogenize()._generator_rows()[0], vec(5, 5, 0).sort_key())
        for _ in range(2):
            assert A.decompose(vec(5, 5)).recombine(A) == vec(5, 5)
            assert len(calls) == done
        assert passes == [one_pass, one_pass]


class TestCachedRows:
    """Set membership, set and cone equality and the recession cone read the
    cached generator rows; they answer as the ``project``-based definitions."""

    def test_seeded_corpus_matches_reference(self):
        rng = random.Random(73)
        seen = {"member": set(), "sets_equal": set(), "contains_cone": set()}
        for case in range(150):
            n = rng.randint(1, 4)
            tenths, huge = case % 3 == 1, case % 3 == 2
            points = mixed_vectors(rng, n, tenths, huge)
            rays = mixed_vectors(rng, n, tenths, huge)[: rng.randint(0, 3)]
            A = ConvexSet.from_vectors(points, rays)

            rec = A.recession()
            assert list(rec.generators) == list(reference_recession(A).generators)
            assert rec.dim == n

            targets = list(points[:2]) + mixed_vectors(rng, n, tenths, huge)[:2]
            x = TropVector.zero(n)
            for p in points:
                k = rng.randint(-30, 0)
                x = x.join(p.scale(MaxPlusScalar(k * 2e306 if huge else k / 10 if tenths else k)))
            targets.append(x)
            for t in targets:
                answer = A.member(t)
                assert answer == reference_member(A, t)
                seen["member"].add(answer)

            others = [
                ConvexSet.from_vectors(A.extreme_points(), list(rec.generators)),
                ConvexSet.from_vectors(points + targets[2:3], rays),
                ConvexSet.from_vectors(targets[2:4], rays[:1]),
            ]
            for B in others:
                for X, Y in ((A, B), (B, A)):
                    answer = sets_equal(X, Y)
                    assert answer == reference_sets_equal(X, Y)
                    seen["sets_equal"].add(answer)

            cones = [A.homogenize(), others[0].homogenize(), Cone.from_vectors(points),
                     Cone(TropMatrix(points + rays, dim=n)), rec]
            for K in cones:
                for L in cones:
                    if K.dim != L.dim:
                        continue
                    answer = K.contains_cone(L)
                    assert answer == reference_contains_cone(K, L)
                    assert cones_equal(K, L) == (answer and reference_contains_cone(L, K))
                    seen["contains_cone"].add(answer)
        assert all(answers == {True, False} for answers in seen.values()), seen

    def test_second_query_builds_no_generator_rows(self, monkeypatch):
        calls, targets = [], []
        row, covered = cones_module._row, cones_module._covered
        monkeypatch.setattr(cones_module, "_row", lambda c: calls.append(c) or row(c))
        monkeypatch.setattr(
            cones_module, "_covered", lambda *args: targets.append(args) or covered(*args)
        )
        A = fig1_set()
        B = ConvexSet.from_vectors(fig1_extreme_points(), [vec(-1, 0), vec(0, -2)])
        assert A.member(vec(5, 2)) and not A.member(vec(0, 0))
        assert sets_equal(A, B) and sets_equal(B, A)
        # A's and B's lifted generators; a query is a target, not a row
        lifted = A.homogenize()._generator_rows()[1] + B.homogenize()._generator_rows()[1]
        assert len(lifted) == 7 + 7 and calls == lifted
        del calls[:], targets[:]
        assert A.member(vec(5, 2)) and not A.member(vec(0, 0))
        assert calls == []
        rows = A.homogenize()._generator_rows()[0]
        assert targets == [(rows, vec(5, 2, 0).sort_key()), (rows, vec(0, 0, 0).sort_key())]
        del calls[:]
        assert sets_equal(A, B) and sets_equal(B, A)
        assert A.homogenize().contains_cone(B.homogenize())
        assert calls == []

    def test_basis_builds_rows_of_distinct_rays_only(self, monkeypatch):
        calls = []
        row = cones_module._row
        monkeypatch.setattr(cones_module, "_row", lambda c: calls.append(c) or row(c))
        # (4, 2) is (2, 0) scaled: six generators, five distinct rays
        C = Cone.from_vectors([vec(0, 1), vec(2, 0), vec(4, 2), vec(2, 1), vec(1, 3), vec(3, 0)])
        assert C.extract_basis().ngens == 2
        rays = C._ray_table()[0]
        assert len(rays) == 5 and calls == rays
        # the extreme points and the recession cone read the lifted ray table only
        A = fig1_set()
        del calls[:]
        assert A.extreme_points() == fig1_extreme_points()
        assert A.recession().ngens == 2
        assert calls == A.homogenize()._ray_table()[0]
        # a membership test is the first to build the generator rows
        del calls[:]
        assert A.member(vec(5, 2))
        assert calls == A.homogenize()._generator_coords()

    def test_sets_equal_names_the_set_dimensions(self):
        with pytest.raises(DimensionMismatch, match="^dim 2 vs 3$"):
            sets_equal(fig1_set(), ConvexSet.from_vectors([vec(0, 0, 0)]))
        with pytest.raises(DimensionMismatch, match="^dim 3 vs 2$"):
            sets_equal(ConvexSet.from_vectors([vec(0, 0, 0)]), fig1_set())


class TestConstruction:
    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            ConvexSet(TropMatrix([], dim=2))

    def test_from_vectors_needs_a_point(self):
        with pytest.raises(ValueError, match="a convex set needs at least one point"):
            ConvexSet.from_vectors([])
        with pytest.raises(ValueError, match="a convex set needs at least one point"):
            ConvexSet.from_vectors([], [vec(0, 1)])

    @pytest.mark.parametrize("doc", [{"points": []}, {"points": [], "rays": [[0, 1]]}])
    def test_from_json_needs_a_point(self, doc):
        # the constructor's words, not the matrix's "empty matrix needs an
        # explicit dimension", whose remedy (a "dim" field) a set has not
        with pytest.raises(ValueError, match="^a convex set needs at least one point$"):
            ConvexSet.from_json(doc)

    @pytest.mark.parametrize("points, rays", [([[0, 1]], [[0]]), ([[0]], [["-inf", 0], [1, 0]])])
    def test_from_json_names_the_points_and_rays_dims(self, points, rays):
        # the constructor's words: a set document declares no dimension
        message = f"^points dim {len(points[0])} vs rays dim {len(rays[0])}$"
        with pytest.raises(DimensionMismatch, match=message):
            ConvexSet.from_json({"points": points, "rays": rays})
        with pytest.raises(DimensionMismatch, match=message):
            ConvexSet(TropMatrix.from_json(points), TropMatrix.from_json(rays))

    def test_from_json_reads_rays_of_the_points_dim(self):
        for doc in ({"points": [[0, 1]]}, {"points": [[0, 1]], "rays": []},
                    {"points": [[0, 1]], "rays": [[1, "-inf"]]}):
            A = ConvexSet.from_json(doc)
            assert A.to_json() == {"points": [[0, 1]], "rays": doc.get("rays", [])}

    def test_zero_rays_stripped_with_warning(self):
        with pytest.warns(UserWarning):
            A = ConvexSet(
                TropMatrix([vec(0, 0)], dim=2),
                TropMatrix([TropVector.zero(2)], dim=2),
            )
        assert A.rays.ncols == 0

    def test_repr_lists_points_and_rays(self):
        A = ConvexSet.from_vectors([vec(0, 1)], [vec(1, "-inf")])
        assert repr(A) == "ConvexSet(points=[TropVector(0, 1)], rays=[TropVector(1, -inf)])"

    def test_json_round_trip(self):
        A = fig1_set()
        B = ConvexSet.from_json(A.to_json())
        assert list(B.points) == list(A.points)
        assert list(B.rays) == list(A.rays)


class TestDecomposeOnCachedRows:
    """Cone and set decomposition and ``is_extreme`` test membership on the
    cached generator rows; certificates and refusals are those of the
    ``project``/``left_residual`` path."""

    def test_seeded_corpus_matches_reference(self):
        rng = random.Random(79)

        def kind(result):
            if isinstance(result, bool):
                return result
            if isinstance(result, tuple):  # a refusal, as ``outcome`` reports it
                return result[0]
            return type(result).__name__

        seen = {"cone": set(), "set": set(), "is_extreme": set()}
        for case in range(150):
            n = rng.randint(1, 4)
            tenths, huge = case % 3 == 1, case % 3 == 2
            gens = mixed_vectors(rng, n, tenths, huge)
            rays = mixed_vectors(rng, n, tenths, huge)[: rng.randint(0, 3)]
            C, A = Cone.from_vectors(gens), ConvexSet.from_vectors(gens, rays)

            targets = list(gens[:2]) + mixed_vectors(rng, n, tenths, huge)[:2]
            targets.append(TropVector.zero(n))
            for top in (0, 30):  # a convex and a conic combination of the generators
                x = TropVector.zero(n)
                for g in gens:
                    k = rng.randint(-30, top)
                    lam = k * 2e306 if huge else k / 10 if tenths else k
                    x = x.join(g.scale(MaxPlusScalar(lam)))
                targets.append(x)
            for t in targets:
                for name, got, want in (
                    ("cone", lambda: C.decompose(t), lambda: reference_cone_decompose(C, t)),
                    ("set", lambda: A.decompose(t), lambda: reference_set_decompose(A, t)),
                    ("is_extreme", lambda: A.is_extreme(t), lambda: reference_is_extreme(A, t)),
                ):
                    result = outcome(got)
                    assert result == outcome(want)
                    seen[name].add(kind(result))

            # a wrong dimension is refused first, with the message of ``project``
            for call in (C.project, C.decompose, A.decompose, A.is_extreme):
                with pytest.raises(DimensionMismatch, match=f"^dim {n} vs {n + 1}$"):
                    call(TropVector.zero(n + 1))
        assert seen["cone"] == {"ConeDecomposition", "NotMember", "ArithmeticError"}, seen
        assert seen["set"] == {"SetDecomposition", "NotMember", "ArithmeticError"}, seen
        assert seen["is_extreme"] == {True, False, "NotMember"}, seen


class TestRefusalProjection:
    """Every refusal carries the canonical projection, from the one
    projection pass: on the integer and -inf corpora it is the exact
    oracle's max of the maximally scaled generators (cut to n for a set),
    and on every corpus it has the bytes of ``Cone.project``."""

    @pytest.mark.parametrize("kind", CORPORA)
    def test_is_the_canonical_projection(self, kind):
        rng = random.Random(f"refusal projection:{kind}")
        judged = {"cone": 0, "set": 0, "is_extreme": 0}
        for _ in range(60):
            n = rng.randint(1, 4)
            gens = corpus_vectors(rng, n, kind)
            rays = corpus_vectors(rng, n, kind)[: rng.randint(0, 2)]
            C, A = Cone.from_vectors(gens), ConvexSet.from_vectors(gens, rays)
            lifted = oracle.lift_points(exact_all(gens)) + oracle.lift_rays(exact_all(rays))
            targets = corpus_vectors(rng, n, kind)[:3]
            x = TropVector.zero(n)
            for g in rng.sample(gens, min(len(gens), 2)):
                x = x.join(g.scale(corpus_coeff(rng, kind)))
            for t in targets + [x]:
                for name, call, cone, target, generators in (
                    ("cone", C.decompose, C, t, exact_all(gens)),
                    ("set", A.decompose, A.homogenize(), A.lift(t), lifted),
                    ("is_extreme", A.is_extreme, A.homogenize(), A.lift(t), lifted),
                ):
                    result = outcome(lambda: call(t))
                    if not (isinstance(result, tuple) and result[0] == "NotMember"):
                        continue
                    projection = result[1]
                    assert repr(projection.sort_key()) == repr(
                        cone.project(target).sort_key()[:n])
                    if kind in ("integer", "-inf"):
                        ex = exact(target)
                        terms = [(k, oracle.coefficient(g, ex)) for k, g in enumerate(generators)]
                        assert exact(projection) == oracle.combine(generators, terms, len(ex))[:n]
                    judged[name] += 1
        assert min(judged.values()) > 30, judged

