import json
import math
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
    cones_equal,
    vectors_equal,
)

import gen
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
    floats,
    mixed_pairs,
    mixed_vectors,
    normalized,
    outcome,
    rand_cone,
    rand_cone_member,
    rand_vector,
    reference_basis,
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


class TestMemberTolerance:
    """member --tolerance compares the projection with x by vectors_equal."""

    C = cone((0, 1), (2, 0))
    REFUSED = "^tolerance must be a finite number >= 0, got "

    def test_refused_unless_finite_and_nonnegative(self):
        x = vec(3, 0.5)  # projection (2.5, 0.5)
        answers = [vectors_equal(self.C.project(x), x, t) for t in (0, 0.4, 0.5, 1)]
        assert answers == [False, False, True, True]
        assert vectors_equal(self.C.project(vec(2, 1)), vec(2, 1))
        for tolerance in (-1, math.nan, math.inf):
            for y in (x, vec(2, 1), vec("-inf", 0)):
                with pytest.raises(ValueError, match=self.REFUSED):
                    vectors_equal(self.C.project(y), y, tolerance)


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

    def test_agrees_with_the_basis_on_one_decimal_input(self):
        # the raw rows cover (-0.2, 0.6) by neither other generator; its
        # normalized ray, which the basis drops, is covered
        C = cone((-0.2, 0.6), (-0.4, 0.7), (0.5, -0.3))
        assert [C.is_extreme_generator(k) for k in range(3)] == [False, True, True]
        assert C.extract_basis().ngens == 2

    @pytest.mark.parametrize("kind", CORPORA)
    def test_reads_the_basis(self, kind):
        """Generator k is extreme when no other generator is a scaled copy of
        it and its ray is a basis ray; on integer input that is exact."""
        rng = random.Random(f"extreme generator:{kind}")
        answers = set()
        for _ in range(150):
            n = rng.randint(1, 4)
            C = Cone.from_vectors(corpus_vectors(rng, n, kind))
            basis = list(C.extract_basis().generators)
            rays = list(map(normalized, C.generators))
            gens = exact_all(C.generators)
            for k, ray in enumerate(rays):
                answer = C.is_extreme_generator(k)
                assert answer == (rays.count(ray) == 1 and ray in basis)
                if kind in ("integer", "-inf"):
                    assert answer == (not oracle.cone_member(gens[:k] + gens[k + 1:], gens[k]))
                answers.add(answer)
        assert answers == {True, False}

    @pytest.mark.parametrize("kind", ["integer", "-inf"])
    def test_every_index_in_any_order(self, kind):
        """One cone asked every index in a shuffled order, and then again,
        before or after its basis is built, answers as a fresh cone per
        index and as ``extract_basis``: no duplicate ray, a basis ray."""
        rng = random.Random(f"ray index:{kind}")
        answers = set()
        for r in range(160):
            if r % 4:
                n = rng.randint(1, 5)
                gens = corpus_vectors(rng, n, kind)
                gens += [rng.choice(gens).scale(corpus_coeff(rng, kind)) for _ in range(2)]
                C = Cone.from_vectors(gens)
            else:
                neg = 0.1 if kind == "integer" else 0.5
                units = gen.cone(rng, 6, 30, duplicates=0.25, combinations=0.25, neg=neg)
                C = Cone.from_json(json.loads(gen.cone_text(units, 1)))
            if rng.random() < 0.5:
                C.extract_basis()
            order = rng.sample(range(C.ngens), C.ngens)
            got = [C.is_extreme_generator(k) for k in order + order]
            rays = list(map(normalized, C.generators))
            basis = list(Cone(C.generators).extract_basis().generators)
            expected = [rays.count(rays[k]) == 1 and rays[k] in basis for k in order]
            assert got == expected * 2
            fresh = [Cone(C.generators).is_extreme_generator(k) for k in order]
            assert fresh == expected
            answers.update(got)
        assert answers == {True, False}

    @pytest.mark.parametrize("k", [1.0, True, False, "0", None])
    def test_index_must_be_an_int(self, k):
        # True would otherwise read as generator 1, and 1.0 fail inside the row lookup
        with pytest.raises(TypeError, match="^generator index must be an int, got "):
            cone((0, 1), (2, 0)).is_extreme_generator(k)


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


class TestRemovalTestReference:
    def test_basis_and_extreme_generators_match_project_loop(self):
        rng = random.Random(26)
        cones = [_mixed_cone(rng)[0] for _ in range(400)]
        # near-overflow input, where normalization's c - top can reach -inf
        for _ in range(400):
            n = rng.randint(1, 5)
            cones.append(Cone(TropMatrix(mixed_vectors(rng, n, False, True), dim=n)))
        for C in cones:
            basis = reference_basis(C)
            assert list(C.extract_basis().generators) == basis
            # a generator is extreme when it is unique on its ray and the basis keeps that ray
            rays = list(map(normalized, C.generators))
            for k, ray in enumerate(rays):
                assert C.is_extreme_generator(k) == (rays.count(ray) == 1 and ray in basis)


# the largest size of a finite value in the exact domain of the removal test
EDGE = 2.0**51


def _exact_domain_table(rng, n):
    """``sort_key()`` coordinates of generators in the exact domain: integer
    rays with about half of their coordinates -inf, scaled duplicates and
    max-plus combinations, or (one table in four) rays with values at
    +-2**51 next to small ones."""
    if rng.random() < 0.25:
        values = [EDGE, -EDGE, EDGE - 1, 1 - EDGE, 0.0, 1.0, -1.0, NEG]
        gens = [[rng.choice(values) for _ in range(n)] for _ in range(rng.randint(1, 6))]
        return [tuple(g[:-1] + [rng.choice(values[:-1])]) for g in gens]
    base = [rand_vector(rng, n, p_zero=0.5) for _ in range(rng.randint(1, 6))]
    gens = list(base)
    for _ in range(rng.randint(0, 3)):
        gens.append(rng.choice(base).scale(MaxPlusScalar(rng.randint(-9, 9))))
    for _ in range(rng.randint(0, 3)):
        g, h = rng.choice(base), rng.choice(base)
        gens.append(g.scale(MaxPlusScalar(rng.randint(-9, 9))).join(h))
    rng.shuffle(gens)
    return [g.sort_key() for g in gens]


class TestExactForm:
    """The exact form of the removal test, on tables and targets in the
    exact domain, against the float projection as the reference: x is
    covered when the ``_project`` cover is x."""

    @pytest.fixture
    def forms(self, monkeypatch):
        """The form of each removal test, in call order."""
        ran = []
        exact_form, float_form = cones_module._covered_exact, cones_module._project
        monkeypatch.setattr(cones_module, "_covered_exact",
                            lambda *args: ran.append("exact") or exact_form(*args))
        monkeypatch.setattr(cones_module, "_project",
                            lambda *args: ran.append("float") or float_form(*args))
        return ran

    def test_matches_the_float_loop(self, forms):
        rng = random.Random(61)
        answers, checked = set(), 0
        for _ in range(300):
            n = rng.randint(1, 6)
            coords = _exact_domain_table(rng, n)
            rows = cones_module._table(coords)
            assert rows.exact
            joins = []
            for _ in range(3):
                picked = rng.sample(coords, min(len(coords), rng.randint(1, 3)))
                joins.append(tuple(map(max, *picked)) if len(picked) > 1 else picked[0])
            targets = coords + joins + [
                rand_vector(rng, n, p_zero=0.5).sort_key(),
                rand_vector(rng, n, p_zero=0.5).sort_key(),
                (NEG,) * n,
                tuple(rng.choice([EDGE, -EDGE, 0.0, NEG]) for _ in range(n)),
            ]
            for x in targets:
                for skip in [None, *range(len(rows))]:
                    del forms[:]
                    answer = cones_module._covered(rows, x, skip)
                    assert forms == ["exact"]
                    cover = cones_module._project(rows, x, skip)[1]
                    assert answer == (cover == x), (coords, x, skip)
                    answers.add(answer)
                    checked += 1
        assert answers == {True, False} and checked > 10_000

    @pytest.mark.parametrize("outside", [EDGE + 2, -EDGE - 2, 0.1, -2.5, 1.7e307, -1.7e307])
    def test_a_value_outside_the_domain_takes_the_loop(self, forms, outside):
        inside = [(0.0, 1.0), (2.0, 0.0), (EDGE, -EDGE), (-EDGE, NEG)]
        x = (2.0, 1.0)
        rows = cones_module._table(inside)
        assert rows.exact
        assert cones_module._covered(rows, x) and cones_module._covered(rows, (EDGE, NEG))
        assert forms == ["exact", "exact"]
        # in the target
        for target in [(outside, 1.0), (NEG, outside)]:
            del forms[:]
            cones_module._covered(rows, target)
            assert forms == ["float"]
        # in the table
        rows = cones_module._table(inside + [(outside, NEG)])
        assert not rows.exact
        del forms[:]
        assert cones_module._covered(rows, x) and cones_module._covered(rows, (EDGE, NEG), 2)
        assert forms == ["float", "float"]

    def test_geometries_take_the_form_of_their_input(self, forms):
        integral = Cone.from_vectors([vec(0, 1), vec(2, 0), vec(2, 1), vec(1, 1)])
        assert integral._generator_rows()[0].exact and integral._ray_table()[2].exact
        assert integral.member(vec(2, 1)) and integral._covers(vec(2, 1))
        assert [integral.is_extreme_generator(k) for k in range(4)] == [True, True, False, False]
        assert integral.extract_basis().ngens == 2
        assert set(forms) == {"exact"}
        del forms[:]
        assert integral._covers(vec(2, 1.5)) is True
        assert forms == ["float"]
        # a generator's ray normalized past 2**51 leaves the ray table to the loop
        edge = Cone.from_vectors([vec(EDGE, -EDGE), vec(0, 0)])
        assert edge._generator_rows()[0].exact and not edge._ray_table()[2].exact
        del forms[:]
        assert edge.extract_basis().ngens == 2
        assert forms == ["float", "float"]
        tenths = Cone.from_vectors([vec(0, 0.1), vec(2, 0)])
        assert not tenths._generator_rows()[0].exact and not tenths._ray_table()[2].exact
        del forms[:]
        assert tenths._covers(vec(2, 1)) == tenths.member(vec(2, 1))
        assert forms == ["float"]


def _edge_units(rng, n, m, neg):
    """``gen.cone``'s shape (a quarter scaled duplicates, a quarter max-plus
    combinations) on base rays of which about one in three has a coordinate
    at +-2**51 or +-(2**51 - 1) next to small ones."""
    edge = [2**51, -(2**51), 2**51 - 1, 1 - 2**51]
    base = [gen.vector(rng, n, 1, neg) for _ in range(max(1, m // 2))]
    for k, g in enumerate(base):
        finite = [i for i, u in enumerate(g) if u is not None]
        if rng.random() < 0.35:
            i = rng.choice(finite)
            base[k] = g[:i] + (rng.choice(edge),) + g[i + 1:]
    units = list(base)
    for _ in range(m // 4):
        g, lam = rng.choice(base), rng.randint(-3, 3)
        units.append(tuple(None if u is None else u + lam for u in g))
    while len(units) < m:
        picks = rng.sample(base, min(len(base), rng.randint(2, 3)))
        units.append(gen.join(tuple(None if u is None else u + rng.randint(-5, 5) for u in g)
                              for g in picks))
    rng.shuffle(units)
    return units


def _ray_units(g) -> tuple:
    """The exact ray of a nonzero generator in units: shifted to maximum 0."""
    top = max(u for u in g if u is not None)
    return tuple(None if u is None else u - top for u in g)


def _oracle_extreme_rays(units) -> set:
    """The distinct rays of the generators that no other distinct ray
    covers, by the exact oracle."""
    rays = list(dict.fromkeys(map(_ray_units, units)))
    return {r for k, r in enumerate(rays) if not oracle.cone_member(rays[:k] + rays[k + 1:], r)}


class TestPrunedVerdicts:
    """Every extremality answer on exact input reads the pruned removal
    test; each is judged here by the exact oracle through the public API."""

    CASES = [(n, m) for n in (2, 3, 4, 6, 8, 10) for m in (1, 2, 5, 12, 30, 60)] + [
        (6, 300), (10, 300)
    ]

    @pytest.mark.parametrize("shape", ["gen", "edge"])
    def test_basis_and_extreme_generators_match_the_oracle(self, shape):
        rng = random.Random(f"pruned verdicts:{shape}")
        answers = set()
        for n, m in self.CASES:
            neg = rng.choice([0.0, 0.1, 0.4])
            if shape == "gen":
                units = gen.cone(rng, n, m, duplicates=0.25, combinations=0.25, neg=neg)
            else:
                units = _edge_units(rng, n, m, neg)
            C = Cone.from_json(json.loads(gen.cone_text(units, 1)))
            extreme = _oracle_extreme_rays(units)
            basis = [oracle.vec(g) for g in C.extract_basis().to_json()["generators"]]
            assert len(basis) == len(set(basis)) and set(basis) == extreme, (n, m)
            rays = list(map(_ray_units, units))
            for k in rng.sample(range(m), min(m, 40)):
                answer = C.is_extreme_generator(k)
                assert answer == (rays.count(rays[k]) == 1 and rays[k] in extreme)
                answers.add(answer)
        assert answers == {True, False}

    @pytest.mark.parametrize("shape", ["gen", "edge"])
    def test_extreme_points_match_the_oracle(self, shape):
        rng = random.Random(f"pruned extreme points:{shape}")
        sizes = set()
        for n, m in self.CASES[:-2]:
            neg = rng.choice([0.0, 0.1, 0.4])
            if shape == "gen":
                points, rays = gen.convex_set(rng, n, m, m // 5, combinations=0.25, neg=neg)
            else:
                units = _edge_units(rng, n, m + m // 5, neg)
                points, rays = units[:m], units[m:]
            A = ConvexSet.from_json(json.loads(gen.set_text(points, rays, 1)))
            got = [oracle.vec(p.to_json()) for p in A.extreme_points()]
            expected = set(oracle.extreme_points(points, rays))
            assert len(got) == len(set(got)) and set(got) == expected, (n, m)
            sizes.add(len(expected) < len(set(points)))
        assert sizes == {True, False}

    def test_the_only_attaining_ray_sits_at_the_bound(self):
        """A ray g can attain coordinate i of a target ray x only when
        g_i >= x_i; here the one ray that attains a coordinate has g_i == x_i
        exactly, so the bound is inclusive."""
        # (0, -2) = max((0, -3), (-1, 0) - 2): only (0, -3) attains
        # coordinate 0, where its value 0 is the target's own
        C = cone((0, -3), (-1, 0), (0, -2))
        assert [C.is_extreme_generator(k) for k in range(3)] == [True, True, False]
        assert C.extract_basis().to_json() == {"generators": [[-1, 0], [0, -3]]}
        # (0, -2, -5) = max((0, -2, -7), (-9, -9, 0) - 5): only (0, -2, -7)
        # attains coordinate 1, where its value -2 is the target's own
        C = cone((-9, -9, 0), (0, -2, -5), (0, -2, -7), (3, 0, -4))
        assert [C.is_extreme_generator(k) for k in range(4)] == [True, False, True, True]
        assert C.extract_basis().ngens == 3
        for C in (cone((0, -3), (-1, 0), (0, -2)),
                  cone((-9, -9, 0), (0, -2, -5), (0, -2, -7), (3, 0, -4))):
            units = [oracle.vec(g.to_json()) for g in C.generators]
            basis = [oracle.vec(g) for g in C.extract_basis().to_json()["generators"]]
            assert set(basis) == _oracle_extreme_rays(units)


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
        # a record equals only a record of its own type, never its fields
        assert d != (d.terms, d.target) and d != d.terms
        assert repr(d) == (
            "ConeDecomposition(terms=((0, MaxPlusScalar(0)), (1, MaxPlusScalar(0))), "
            "target=TropVector(2, 1))"
        )
        with pytest.raises(AttributeError):
            d.terms = ()

    def test_non_member_raises_with_projection(self, monkeypatch):
        # the projection is the cover of decompose's own pass, not Cone.project's
        monkeypatch.setattr(Cone, "project", lambda *args: pytest.fail("Cone.project ran"))
        C = cone((0, 1), (2, 0))
        with pytest.raises(NotMember) as exc:
            C.decompose(vec(3, 0))
        assert exc.value.projection == vec(2, 0)

    def test_overflowing_projection_is_refused_as_project_refuses_it(self):
        # lam + g_1 rounds past the largest float, so the projection has no
        # vector: decompose raises what project raises rather than carry +inf
        g = vec(-1.4167948092289695e308, 8.200263977465088e307)
        x = vec(3.7862535563277537e307, 1.7976931348623157e308)
        C, A = Cone.from_vectors([g]), ConvexSet.from_vectors([vec(0, 0)], [g])
        for call in (C.project, C.decompose, A.decompose, A.is_extreme):
            with pytest.raises(ValueError, match="^max-plus scalar must be finite or -inf, got inf$"):
                call(x)

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
        calls, passes = [], []
        covered, project_rows = cones_module._covered, cones_module._project
        monkeypatch.setattr(
            cones_module, "_covered", lambda *args: calls.append(args) or covered(*args)
        )
        monkeypatch.setattr(
            cones_module, "_project", lambda *args: passes.append(args) or project_rows(*args)
        )
        C = cone((0, 1), (2, 0), (2, 1), (4, 2))
        first = C.decompose(vec(2, 1))
        assert calls
        done = len(calls)
        # membership, the coefficients and a refusal come from one
        # projection pass on the cached generator rows
        one_pass = (C._generator_rows()[0], vec(2, 1).sort_key())
        assert passes == [one_pass]
        assert C.decompose(vec(2, 1)) == first
        # the second call runs no removal test, only its projection pass
        assert len(calls) == done
        assert passes == [one_pass, one_pass]

        def tested():
            """The ray (index in the ray table) of each removal test, in call order."""
            return [args[2] for args in calls if len(args) == 3]

        # decompose tested the two rays that attain a coordinate of (2, 1);
        # extract_basis tests only the third, then a second call tests none
        assert sorted(tested()) == [0, 1]
        scans = []
        entries = Cone._basis_entries
        monkeypatch.setattr(
            Cone, "_basis_entries", lambda self, *args: scans.append(args) or entries(self, *args)
        )
        basis = C.extract_basis()
        assert basis.ngens == 2
        assert tested()[2:] == [2]
        assert len(calls) == done + 1
        # a second call returns the same cone: no removal test, no verdict scan
        assert C.extract_basis() is basis
        assert len(calls) == done + 1
        assert scans == [()]
        assert sorted(tested()) == [0, 1, 2]

    @pytest.mark.parametrize("kind", CORPORA)
    def test_outcomes_do_not_depend_on_call_order(self, kind):
        """decompose reads only the verdicts it needs; whether extract_basis
        ran before it or after changes no certificate, refusal or basis."""
        rng = random.Random(f"call order:{kind}")
        for _ in range(60):
            n = rng.randint(1, 5)
            gens = corpus_vectors(rng, n, kind)
            targets = gens[:2] + corpus_vectors(rng, n, kind)[:2]
            for _ in range(3):
                x = TropVector.zero(n)
                for g in rng.sample(gens, min(len(gens), 2)):
                    x = x.join(g.scale(corpus_coeff(rng, kind)))
                targets.append(x)

            def answers(order):
                C, out = Cone.from_vectors(gens), {}
                for step in order:
                    if step == "basis":
                        out[step] = C.extract_basis().to_json()
                    else:
                        out[step] = outcome(lambda: C.decompose(targets[step]).to_json())
                return out

            order = ["basis", *range(len(targets))]
            shuffled = rng.sample(order, len(order))
            assert answers(order) == answers(order[::-1]) == answers(shuffled)

    def test_first_decompose_tests_fewer_rays_than_the_cone_has(self, monkeypatch):
        """A build-shaped cone (n=10, m=120, a quarter scaled duplicates and a
        quarter combinations): a first decompose tests the rays that attain a
        coordinate of x, not every distinct ray, and none of them twice."""
        tested = []
        covered = cones_module._covered
        monkeypatch.setattr(
            cones_module,
            "_covered",
            lambda rows, x, skip=None: (skip is not None and tested.append(skip))
            or covered(rows, x, skip),
        )
        rng = random.Random(29)
        for _ in range(5):
            units = gen.cone(rng, 10, 120, duplicates=0.25, combinations=0.25)
            C = Cone.from_json(json.loads(gen.cone_text(units, 1)))
            x = TropVector.from_json(json.loads(gen.vector_text(gen.cone_member(rng, units), 1)))
            rays = {tuple(c - max(g) for c in g) for g in map(TropVector.sort_key, C.generators)}
            del tested[:]
            C.decompose(x)
            assert len(set(tested)) == len(tested) < len(rays)
            C.extract_basis()
            assert sorted(tested) == list(range(len(rays)))


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

    def test_repr_lists_the_generators(self):
        assert repr(cone((0, 1), (2, "-inf"))) == "Cone([TropVector(0, 1), TropVector(2, -inf)])"
        assert repr(Cone(TropMatrix([], dim=3))) == "Cone([])"

    def test_json_round_trip(self):
        C = cone((0, 1), (2, "-inf"))
        assert list(Cone.from_json(C.to_json()).generators) == list(C.generators)
        # a cone with no generators states its dimension, so it reads back
        empty = Cone(TropMatrix([], dim=3))
        assert empty.to_json() == {"generators": [], "dim": 3}
        back = Cone.from_json(empty.to_json())
        assert (back.ngens, back.dim) == (0, 3)
        assert "dim" not in C.to_json()
