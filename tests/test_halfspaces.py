import json
import math
import pathlib
import random

import pytest

from maxplus import (
    ConvexSet,
    DimensionMismatch,
    HalfSpace,
    MaxPlusScalar,
    TropVector,
    ZERO,
    eval_form,
)

from util import fig1_set, rand_set, rand_set_member, vec

DATA = pathlib.Path(__file__).parent / "data"


def load(name):
    return json.loads((DATA / name).read_text())


@pytest.fixture
def face_instance():
    A = ConvexSet.from_json(load("face_set.json"))
    F = ConvexSet.from_json(load("face_face.json"))
    H = HalfSpace.from_json(load("face_halfspace.json"))
    return A, F, H, vec(0, -1)


class TestEvalForm:
    def test_weighted_max(self):
        assert eval_form(vec(0, 1), vec(0, -1)) == MaxPlusScalar(0)

    def test_zero_form(self):
        assert eval_form(TropVector.zero(2), vec(3, 4)) == ZERO

    def test_unweighted_max(self):
        assert eval_form(vec(0, 0, 0), vec(-1, 5, 2)) == MaxPlusScalar(5)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            eval_form(vec(0, 1), vec(0, 1, 2))


class TestContains:
    def test_boundary_point_in_plus(self, face_instance):
        _, _, H, p = face_instance
        assert H.contains(p, "plus")

    def test_strictly_below(self, face_instance):
        _, _, H, _ = face_instance
        assert not H.contains(vec(-5, -5), "plus")

    def test_boundary_in_both_sides(self, face_instance):
        _, _, H, p = face_instance
        assert H.contains(p, "plus") and H.contains(p, "minus")

    # plus side: x_0 >= 0; minus side: the same inequality written mirrored
    @pytest.mark.parametrize("side", ["plus", "minus"])
    @pytest.mark.parametrize("x, expect", [
        (vec(-1e-6, 0), True),
        (vec(-1e-4, 0), False),
        (vec("-inf", 0), False),
    ])
    def test_tolerance_relaxes_the_larger_side(self, side, x, expect):
        form, const = (vec(0, "-inf"), ZERO), (TropVector.zero(2), MaxPlusScalar(0))
        H = HalfSpace(*form, *const) if side == "plus" else HalfSpace(*const, *form)
        assert not H.contains(x, side)
        assert H.contains(x, side, 1e-5) is expect
        if x[0].is_zero:
            assert not H.contains(x, side, 1e9)

    def test_sides_cover_everything(self):
        rng = random.Random(41)
        for _ in range(500):
            H = HalfSpace(
                TropVector([MaxPlusScalar(rng.randint(-3, 3)) if rng.random() > 0.3 else ZERO for _ in range(3)]),
                MaxPlusScalar(rng.randint(-3, 3)) if rng.random() > 0.3 else ZERO,
                TropVector([MaxPlusScalar(rng.randint(-3, 3)) if rng.random() > 0.3 else ZERO for _ in range(3)]),
                MaxPlusScalar(rng.randint(-3, 3)) if rng.random() > 0.3 else ZERO,
            )
            x = vec(*[rng.randint(-5, 5) for _ in range(3)])
            assert H.contains(x, "plus") or H.contains(x, "minus")

    def test_sides_are_convex(self):
        rng = random.Random(42)
        hits = 0
        for _ in range(800):
            H = HalfSpace(
                vec(rng.randint(-3, 3), rng.randint(-3, 3)),
                MaxPlusScalar(rng.randint(-3, 3)),
                vec(rng.randint(-3, 3), rng.randint(-3, 3)),
                MaxPlusScalar(rng.randint(-3, 3)),
            )
            for side in ("plus", "minus"):
                x = vec(rng.randint(-5, 5), rng.randint(-5, 5))
                y = vec(rng.randint(-5, 5), rng.randint(-5, 5))
                if not (H.contains(x, side) and H.contains(y, side)):
                    continue
                hits += 1
                a = rng.randint(-4, 0)
                b = 0 if a < 0 else rng.randint(-4, 0)
                comb = x.scale(MaxPlusScalar(a)).join(y.scale(MaxPlusScalar(b)))
                assert H.contains(comb, side)
        assert hits > 100


class TestOverflow:
    """A term coeffs_i + x_i beyond the float range is refused with one
    message, whichever method meets it."""

    H = HalfSpace(vec(1e308, 0), MaxPlusScalar(0), vec(0, 0), ZERO)

    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_contains(self, side):
        with pytest.raises(ValueError, match="^the half-space form overflows a float$"):
            self.H.contains(vec(1e308, 0), side)

    def test_contains_set(self):
        for A in (ConvexSet.from_vectors([vec(0, 0), vec(1e308, 0)]),
                  ConvexSet.from_vectors([vec(0, 0)], [vec(1e308, 0)])):
            with pytest.raises(ValueError, match="^the half-space form overflows a float$"):
                self.H.contains_set(A, "plus")

    def test_tolerance(self):
        assert self.H.contains(vec(1, 0), "plus", 1.0)
        with pytest.raises(ValueError, match="^the half-space form overflows a float$"):
            self.H.contains(vec(1, 0), "plus", 1.7e308)


class TestContainsSet:
    def test_unknown_side_rejected(self):
        H = HalfSpace(vec(0, "-inf"), ZERO, vec("-inf", 0), ZERO)
        A = ConvexSet.from_vectors([vec(0, 0)], [vec(0, 1)])
        for check in (H.contains, H.contains_ray):
            with pytest.raises(ValueError, match="side must be 'plus' or 'minus', got 'bogus'"):
                check(vec(0, 1), "bogus")
        with pytest.raises(ValueError, match="side must be"):
            H.contains_set(A, "bogus")

    def test_vacuous_bound(self):
        H = HalfSpace(TropVector.zero(2), ZERO, TropVector.zero(2), ZERO)
        assert H.contains_set(fig1_set(), "plus")

    def test_points_pass_but_ray_fails(self):
        # plus side asks x1 >= x2; the vertical ray escapes it
        H = HalfSpace(vec(0, "-inf"), ZERO, vec("-inf", 0), ZERO)
        A = ConvexSet.from_vectors([vec(0, 0)], [vec(0, 1)])
        assert all(H.contains(p, "plus") for p in A.points)
        assert not H.contains_set(A, "plus")

    def test_supporting_halfspace_of_fig1(self):
        # max(x1, x2) >= 0 holds on the whole set, rays included
        H = HalfSpace(vec(0, 0), ZERO, TropVector.zero(2), MaxPlusScalar(0))
        assert H.contains_set(fig1_set(), "plus")

    def test_tolerance_relaxes_rays(self):
        # x1 >= x2 fails along the ray (0, 0.5) by 0.5, and only there
        H = HalfSpace(vec(0, "-inf"), ZERO, vec("-inf", 0), ZERO)
        A = ConvexSet.from_vectors([vec(0, 0)], [vec(0, 0.5)])
        assert not H.contains_ray(vec(0, 0.5), "plus", 0.4)
        assert H.contains_ray(vec(0, 0.5), "plus", 0.5)
        assert not H.contains_set(A, "plus", 0.4)
        assert H.contains_set(A, "plus", 1)
        assert H.contains_set(ConvexSet.from_vectors([vec(0, 0)], [vec(0.5, 0)]), "minus", 1)

    def test_matches_the_per_row_checks(self):
        """contains_set reads the set's own float rows: it answers, and
        refuses, as contains on each point and then contains_ray on each
        ray, stopping at the first that fails."""
        def answer(call):
            try:
                return call()
            except ValueError as exc:
                return str(exc)

        def per_row(H, A, side, tolerance):
            return (all(H.contains(p, side, tolerance) for p in A.points)
                    and all(H.contains_ray(r, side, tolerance) for r in A.rays))

        def scalar(rng):
            return rng.choice([rng.randint(-3, 3), "-inf", 1e308])

        rng = random.Random(47)
        seen = set()
        for _ in range(400):
            n = rng.randint(1, 4)
            A = ConvexSet.from_json({
                "points": [[scalar(rng) for _ in range(n)] for _ in range(rng.randint(1, 5))],
                "rays": [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, 3))],
            })
            H = HalfSpace(TropVector.from_json([scalar(rng) for _ in range(n)]), MaxPlusScalar(0),
                          TropVector.from_json([scalar(rng) for _ in range(n)]),
                          MaxPlusScalar.from_json(rng.choice([-2, "-inf"])))
            for side in ("plus", "minus"):
                for tolerance in (0, 0.5, 2, 1.7e308):
                    got = answer(lambda: H.contains_set(A, side, tolerance))
                    assert got == answer(lambda: per_row(H, A, side, tolerance))
                    seen.add(got)
        assert seen == {True, False, "the half-space form overflows a float"}

    def test_exactness_by_sampling(self):
        # sound: a True answer holds at sampled members; complete: a False
        # answer has a violating member, a failing point or a point far out
        # along a failing ray
        far = MaxPlusScalar(10**6)
        rng = random.Random(43)
        for _ in range(100):
            n = rng.randint(1, 3)
            A = rand_set(rng, n)
            H = HalfSpace(
                vec(*[rng.randint(-3, 3) for _ in range(n)]),
                MaxPlusScalar(rng.randint(-3, 3)),
                vec(*[rng.randint(-3, 3) for _ in range(n)]),
                MaxPlusScalar(rng.randint(-3, 3)),
            )
            witnesses = [*A.points, *(A.points[0].join(r.scale(far)) for r in A.rays)]
            for side in ("plus", "minus"):
                for tolerance in (0, 0.5, 1):
                    if H.contains_set(A, side, tolerance):
                        for _ in range(10):
                            assert H.contains(rand_set_member(rng, A), side, tolerance)
                    else:
                        assert not all(H.contains(x, side, tolerance) for x in witnesses)


class TestToleranceRule:
    """A tolerance is a finite number >= 0, the CLI's --tolerance rule."""

    H = HalfSpace(vec(0, "-inf"), ZERO, vec("-inf", 0), ZERO)  # plus side: x1 >= x2
    REFUSED = "^tolerance must be a finite number >= 0, got "
    CASES = [
        ("contains", vec(0, 0.5)),
        ("contains_ray", vec(0, 0.5)),
        ("contains_set", ConvexSet.from_vectors([vec(0, 0)], [vec(0, 0.5)])),
    ]

    @pytest.mark.parametrize("method, arg", CASES)
    def test_refused_unless_finite_and_nonnegative(self, method, arg):
        check = getattr(self.H, method)
        assert [check(arg, "plus", t) for t in (0, 0.4, 0.5, 1)] == [False, False, True, True]
        assert all(check(arg, "minus", t) for t in (0, 0.5))
        for tolerance in (-1, math.nan, math.inf):
            for side in ("plus", "minus"):
                with pytest.raises(ValueError, match=self.REFUSED):
                    check(arg, side, tolerance)


class TestFaceCounterexample:
    def test_instance_is_valid(self, face_instance):
        A, F, H, p = face_instance
        assert all(A.member(g) for g in F.points)
        assert all(H.contains(g, "minus") for g in F.points)
        assert F.member(p)

    def test_extreme_in_face_not_in_set(self, face_instance):
        A, F, _, p = face_instance
        assert F.is_extreme(p)
        assert not A.is_extreme(p)

    def test_halfspace_supports_the_set(self, face_instance):
        A, _, H, _ = face_instance
        assert H.contains_set(A, "plus")


class TestJson:
    def test_round_trip(self, face_instance):
        _, _, H, _ = face_instance
        assert HalfSpace.from_json(H.to_json()) == H

    def test_missing_side_rejected(self):
        with pytest.raises(ValueError):
            HalfSpace.from_json({"plus": {"coeffs": [0], "const": 0}})


class TestValue:
    def test_immutable(self, face_instance):
        _, _, H, _ = face_instance
        before = hash(H)
        with pytest.raises(AttributeError):
            H.plus_const = ZERO
        assert hash(H) == before

    def test_repr(self):
        H = HalfSpace(vec(0, 1), ZERO, TropVector.zero(2), MaxPlusScalar(0))
        assert repr(H) == (
            "HalfSpace(plus_coeffs=TropVector(0, 1), plus_const=MaxPlusScalar(-inf), "
            "minus_coeffs=TropVector(-inf, -inf), minus_const=MaxPlusScalar(0))"
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            HalfSpace(vec(0, 1), ZERO, TropVector.zero(3), ZERO)
