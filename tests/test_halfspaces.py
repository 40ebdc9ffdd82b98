import json
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

    def test_exactness_by_sampling(self):
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
            for side in ("plus", "minus"):
                if H.contains_set(A, side):
                    for _ in range(10):
                        assert H.contains(rand_set_member(rng, A), side)


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
