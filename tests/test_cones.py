import random

import pytest

from maxplus import cones as cones_module
from maxplus import (
    Cone,
    DimensionMismatch,
    MaxPlusScalar,
    NotMember,
    TropMatrix,
    TropVector,
    cones_equal,
    project,
)

import oracle
from util import (
    NEG,
    ROADMAP_ITEM_4,
    combination,
    corpus_value,
    exact,
    exact_all,
    floats,
    mixed_pairs,
    mixed_vectors,
    outcome,
    rand_cone,
    rand_cone_member,
    rand_vector,
    same_ray,
    vec,
)


def cone(*gens):
    return Cone.from_vectors([vec(*g) for g in gens])


class TestMember:
    def test_example_member(self):
        assert cone((0, 1), (2, 0)).member(vec(2, 1))

    def test_example_non_member(self):
        assert not cone((0, 1), (2, 0)).member(vec(3, 0))

    def test_zero_vector_always_member(self):
        assert cone((0, 1), (2, 0)).member(TropVector.zero(2))
        assert Cone(TropMatrix([], dim=2)).member(TropVector.zero(2))

    def test_agrees_with_oracle(self):
        rng = random.Random(21)
        for _ in range(500):
            n = rng.randint(1, 5)
            C = rand_cone(rng, n)
            x = rand_cone_member(rng, C) if rng.random() < 0.5 else rand_vector(rng, n, nonzero=False)
            assert C.member(x) == oracle.cone_member(exact_all(C.generators), exact(x))


class TestExtremeGenerator:
    def test_both_rays_extreme(self):
        C = cone((0, 1), (2, 0))
        assert C.is_extreme_generator(0)
        assert C.is_extreme_generator(1)

    def test_redundant_generator(self):
        C = cone((0, 1), (2, 0), (2, 1))
        assert not C.is_extreme_generator(2)

    def test_single_generator(self):
        assert cone((0, 1)).is_extreme_generator(0)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            cone((0, 1)).is_extreme_generator(1)


class TestExtractBasis:
    def test_drops_redundant_and_normalizes(self):
        basis = cone((0, 1), (2, 0), (2, 1)).extract_basis()
        assert list(basis.generators) == [vec(-1, 0), vec(0, -2)]

    def test_single_ray(self):
        basis = cone((0, 1)).extract_basis()
        assert list(basis.generators) == [vec(-1, 0)]

    def test_same_ray_deduplicated(self):
        basis = cone((0, 1), (-3, -2)).extract_basis()
        assert list(basis.generators) == [vec(-1, 0)]

    def test_soundness_random(self):
        rng = random.Random(22)
        for _ in range(200):
            C = rand_cone(rng, rng.randint(1, 5))
            B = C.extract_basis()
            assert cones_equal(C, B)

    def test_invariant_under_shuffle_and_rescale(self):
        rng = random.Random(23)
        for _ in range(100):
            C = rand_cone(rng, rng.randint(1, 5))
            gens = list(C.generators)
            rng.shuffle(gens)
            rescaled = [g.scale(MaxPlusScalar(rng.randint(-4, 4))) for g in gens]
            C2 = Cone(TropMatrix(rescaled, dim=C.dim))
            b1 = set(C.extract_basis().generators)
            b2 = set(C2.extract_basis().generators)
            assert b1 == b2

    def test_extremality_matches_definition_on_random_pairs(self):
        # a kept basis generator g should never arise as y + z with members
        # y, z both different from g
        def below(w, g, C):
            clipped = TropVector.of(*[min(a, b) for a, b in zip(floats(w), floats(g))])
            return C.project(clipped)

        rng = random.Random(24)
        checked = 0
        for _ in range(40):
            C = rand_cone(rng, rng.randint(2, 4))
            basis = C.extract_basis()
            for g in basis.generators:
                for _ in range(25):
                    y = below(rand_cone_member(rng, C), g, C)
                    z = below(rand_cone_member(rng, C), g, C)
                    if y.join(z) == g:
                        checked += 1
                        assert y == g or z == g
        assert checked >= 1000


def _mixed_cone(rng):
    """Generators with scaled duplicates, max-plus combinations, -inf
    entries and (for half the cones) one-decimal values: the cone and its
    ``(vector, exact)`` generator pairs."""
    n = rng.randint(1, 5)
    tenths = rng.random() < 0.5
    pairs = mixed_pairs(rng, n, tenths)
    return Cone(TropMatrix([v for v, _ in pairs], dim=n)), pairs


def _decompose_corpus():
    """Seed 27: 300 mixed cones, each with 4 targets that are max-plus
    combinations of 1-3 generators, with one-decimal coefficients unless
    the cone is integral.  Yields (cone, exact generators, integral,
    [(target, exact target)])."""
    rng = random.Random(27)
    for _ in range(300):
        C, pairs = _mixed_cone(rng)
        integral = all(c == NEG or c.is_integer() for g in C.generators for c in floats(g))
        targets = []
        for _ in range(4):
            picked = rng.sample(pairs, min(len(pairs), rng.randint(1, 3)))
            coeffs = [corpus_value(rng.randint(-30, 30), not integral) for _ in picked]
            targets.append(combination(picked, coeffs, C.dim))
        yield C, [e for _, e in pairs], integral, targets


def _reference_basis(C):
    """The removal test as a loop over public project: deduplicated,
    lex-sorted normalized generators, each kept unless the others reach it."""
    norms = {g.scale(MaxPlusScalar(-g.max_coord().as_float())) for g in C.generators}
    entries = sorted(norms, key=lambda v: v.sort_key())
    kept = []
    for j, norm in enumerate(entries):
        others = TropMatrix(entries[:j] + entries[j + 1:], dim=C.dim)
        if project(others, norm) != norm:
            kept.append(norm)
    return kept


class TestRemovalTestReference:
    def test_basis_and_extreme_generators_match_project_loop(self):
        rng = random.Random(26)
        cones = [_mixed_cone(rng)[0] for _ in range(400)]
        # near-overflow input, where normalization's c - top can reach -inf
        for _ in range(400):
            n = rng.randint(1, 5)
            cones.append(Cone(TropMatrix(mixed_vectors(rng, n, False, True), dim=n)))
        for C in cones:
            assert list(C.extract_basis().generators) == _reference_basis(C)
            gens = list(C.generators)
            for k, g in enumerate(gens):
                others = TropMatrix(gens[:k] + gens[k + 1:], dim=C.dim)
                assert C.is_extreme_generator(k) == (project(others, g) != g)


class TestDecompose:
    def test_two_generators(self):
        C = cone((0, 1), (2, 0))
        d = C.decompose(vec(2, 1))
        assert d.terms == ((0, MaxPlusScalar(0)), (1, MaxPlusScalar(0)))
        assert d.recombine(C) == vec(2, 1)

    def test_point_on_extreme_ray(self):
        C = cone((0, 1), (2, 0))
        d = C.decompose(vec(3, 4))
        assert d.terms == ((0, MaxPlusScalar(3)),)

    def test_zero_vector(self):
        C = cone((0, 1), (2, 0))
        assert C.decompose(TropVector.zero(2)).terms == ()

    def test_certificate_is_an_immutable_value(self):
        C = cone((0, 1), (2, 0))
        d = C.decompose(vec(2, 1))
        assert d == C.decompose(vec(2, 1)) and hash(d) == hash(C.decompose(vec(2, 1)))
        assert d != C.decompose(vec(3, 4))
        assert repr(d) == (
            "ConeDecomposition(terms=((0, MaxPlusScalar(0)), (1, MaxPlusScalar(0))), "
            "target=TropVector(2, 1))"
        )
        with pytest.raises(AttributeError):
            d.terms = ()

    def test_non_member_raises_with_projection(self):
        C = cone((0, 1), (2, 0))
        with pytest.raises(NotMember) as exc:
            C.decompose(vec(3, 0))
        assert exc.value.projection == vec(2, 0)

    def test_certificate_random(self):
        rng = random.Random(25)
        for _ in range(200):
            n = rng.randint(2, 4)
            C = rand_cone(rng, n, max_gens=6)
            basis_rays = set(C.extract_basis().generators)
            for _ in range(5):
                x = rand_cone_member(rng, C)
                d = C.decompose(x)
                assert len(d.terms) <= n
                assert d.recombine(C) == x
                for k, coeff in d.terms:
                    g = C.generators[k]
                    assert any(same_ray(g, b) for b in basis_rays)

    def test_one_decimal_member(self):
        d = cone((0.2, -0.4)).decompose(vec(0.4, -0.2))
        assert d.terms == ((0, MaxPlusScalar(0.2)),)

    def test_unattained_coordinate_is_named(self):
        # in floats only the non-extreme (-0.2, 0.6) attains coordinate 0
        C = cone((-0.2, 0.6), (-0.4, 0.7), (0.5, -0.3))
        assert C.member(vec(-0.3, 0.7))
        with pytest.raises(ArithmeticError, match="coordinate 0"):
            C.decompose(vec(-0.3, 0.7))

    def test_certificates_on_mixed_cones(self):
        """Integer inputs always decompose, into a certificate the exact
        oracle accepts; on one-decimal inputs float rounding may refuse
        (NotMember, or ArithmeticError for a member) but a returned
        certificate recombines to the target in floats."""
        made = {True: 0, False: 0}
        for C, gens, integral, targets in _decompose_corpus():
            basis = list(C.extract_basis().generators)
            for x, ex in targets:
                try:
                    d = C.decompose(x)
                except (NotMember, ArithmeticError) as exc:
                    assert not integral
                    assert C.member(x) == isinstance(exc, ArithmeticError)
                    continue
                made[integral] += 1
                assert 1 <= len(d.terms) <= C.dim
                if integral:
                    assert oracle.cone_certificate_ok(gens, ex, d.to_json())
                else:
                    assert d.recombine(C) == x
                for k, _ in d.terms:
                    assert any(same_ray(C.generators[k], b) for b in basis)
        assert made[True] > 500 and made[False] > 250, made

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=ROADMAP_ITEM_4)
    def test_one_decimal_certificates_are_exact(self):
        """The one-decimal half of the corpus above against the exact
        oracle: every target is a member, so each must get a certificate
        that recombines to it exactly."""
        failed = total = 0
        for C, gens, integral, targets in _decompose_corpus():
            if integral:
                continue
            for x, ex in targets:
                total += 1
                try:
                    failed += not oracle.cone_certificate_ok(gens, ex, C.decompose(x).to_json())
                except (NotMember, ArithmeticError):
                    failed += 1
        assert failed == 0, f"{failed} of {total} one-decimal members"


class TestBasisCache:
    """The basis is computed on first use and kept: a cone is immutable."""

    def test_repeated_calls_match_a_fresh_cone_per_call(self):
        rng = random.Random(67)
        for _ in range(150):
            n = rng.randint(1, 4)
            tenths = rng.random() < 0.5
            gens = mixed_vectors(rng, n, tenths)
            targets = mixed_vectors(rng, n, tenths)[:2]
            for _ in range(2):
                x = TropVector.zero(n)
                for g in gens:
                    k = rng.randint(-30, 30)
                    x = x.join(g.scale(MaxPlusScalar(k / 10 if tenths else k)))
                targets.append(x)
            C = Cone.from_vectors(gens)
            for _ in range(3):
                fresh = Cone.from_vectors(gens).extract_basis()
                assert list(C.extract_basis().generators) == list(fresh.generators)
                for x in targets:
                    assert C.member(x) == Cone.from_vectors(gens).member(x)
                    assert outcome(lambda: C.decompose(x)) == outcome(
                        lambda: Cone.from_vectors(gens).decompose(x)
                    )

    def test_second_call_runs_no_removal_test(self, monkeypatch):
        calls = []
        covered = cones_module._covered
        monkeypatch.setattr(
            cones_module, "_covered", lambda *args: calls.append(args) or covered(*args)
        )
        C = cone((0, 1), (2, 0), (2, 1), (4, 2))
        first = C.decompose(vec(2, 1))
        assert calls
        done = len(calls)
        assert C.decompose(vec(2, 1)) == first
        # one more call: the membership test on the cached generator rows
        assert calls[done:] == [(C._generator_rows()[0], vec(2, 1).sort_key())]
        assert C.extract_basis().ngens == 2
        assert len(calls) == done + 1


class TestContainsCone:
    def test_rays_of_a_cone_in_a_larger_cone(self):
        assert cone((0, 1), (2, 0)).contains_cone(cone((2, 1)))
        assert not cone((2, 1)).contains_cone(cone((0, 1), (2, 0)))

    def test_dimension_checked_before_any_generator(self):
        with pytest.raises(DimensionMismatch, match="^dim 2 vs 3$"):
            cone((0, 1)).contains_cone(Cone(TropMatrix([], dim=3)))


class TestConstruction:
    def test_zero_generators_stripped_with_warning(self):
        with pytest.warns(UserWarning):
            C = Cone(TropMatrix([vec(0, 1), TropVector.zero(2)], dim=2))
        assert C.ngens == 1

    def test_json_round_trip(self):
        C = cone((0, 1), (2, "-inf"))
        assert list(Cone.from_json(C.to_json()).generators) == list(C.generators)
