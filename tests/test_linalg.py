import math
import random

import pytest

from maxplus import (
    DimensionMismatch,
    MaxPlusScalar,
    TropMatrix,
    TropVector,
    ZERO,
    combine,
    left_residual,
    project,
)

import oracle
from util import exact, exact_all, rand_cone, rand_vector, vec


def mat(*cols):
    return TropMatrix([vec(*c) for c in cols])


class TestCombine:
    def test_coordinatewise_max(self):
        M = mat((0, 1), (2, 0))
        assert combine(M, [MaxPlusScalar(0), MaxPlusScalar(0)]) == vec(2, 1)

    def test_all_zero_coefficients(self):
        M = mat((0, 1), (2, 0))
        assert combine(M, [ZERO, ZERO]) == TropVector.zero(2)

    def test_single_scaled_column(self):
        M = mat((0, 1), (2, 0))
        assert combine(M, [MaxPlusScalar(2), ZERO]) == vec(2, 3)

    def test_dimension_mismatch(self):
        M = mat((0, 1), (2, 0))
        with pytest.raises(DimensionMismatch):
            combine(M, [MaxPlusScalar(0)])

    def test_against_oracle(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(1, 5)
            C = rand_cone(rng, n)
            lams = [
                ZERO if rng.random() < 0.3 else MaxPlusScalar(rng.randint(-5, 5))
                for _ in range(C.ngens)
            ]
            got = combine(C.generators, lams)
            terms = [(k, oracle.exact(lam.to_json())) for k, lam in enumerate(lams)]
            assert exact(got) == oracle.combine(exact_all(C.generators), terms, n)


class TestLeftResidual:
    def test_hand_example(self):
        M = mat((0, 1), (2, 0))
        r = left_residual(M, vec(2, 1))
        assert r == [0, 0]

    def test_column_equals_target(self):
        M = mat((0, 1))
        assert left_residual(M, vec(0, 1)) == [0]

    def test_zero_column_gives_top(self):
        M = TropMatrix([vec("-inf", "-inf"), vec(0, 0)], dim=2)
        r = left_residual(M, vec(1, 2))
        assert r[0] == math.inf
        assert r[1] == 1


class TestProject:
    def test_member_is_fixed(self):
        M = mat((0, 1), (2, 0))
        assert project(M, vec(2, 1)) == vec(2, 1)

    def test_hand_example(self):
        M = mat((0, 1), (2, 0))
        assert project(M, vec(0, 0)) == vec(0, 0)

    def test_zero_vector(self):
        M = mat((0, 1), (2, 0))
        assert project(M, TropVector.zero(2)) == TropVector.zero(2)

    def test_empty_matrix(self):
        M = TropMatrix([], dim=3)
        assert project(M, vec(1, 2, 3)) == TropVector.zero(3)


class TestProjectionProperties:
    def test_below_idempotent_monotone(self):
        rng = random.Random(8)
        for _ in range(400):
            n = rng.randint(1, 5)
            C = rand_cone(rng, n)
            M = C.generators
            x = rand_vector(rng, n, nonzero=False)
            p = project(M, x)
            assert p <= x
            assert project(M, p) == p
            y = x.join(rand_vector(rng, n, nonzero=False))
            assert p <= project(M, y)

    def test_fixed_point_characterizes_membership(self):
        rng = random.Random(9)
        for _ in range(400):
            n = rng.randint(1, 5)
            C = rand_cone(rng, n)
            x = rand_vector(rng, n, nonzero=False)
            fixed = project(C.generators, x) == x
            assert fixed == oracle.cone_member(exact_all(C.generators), exact(x))


class TestVector:
    def test_support(self):
        assert vec("-inf", 3, 0).support() == (1, 2)

    def test_pointwise_order(self):
        assert vec(0, "-inf") <= vec(1, 2)
        assert not vec(0, 3) <= vec(1, 2)

    def test_max_coord(self):
        assert vec(-3, 1).max_coord() == MaxPlusScalar(1)
        assert TropVector.zero(2).max_coord() == ZERO

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            TropVector([])

    def test_json_round_trip(self):
        v = vec(1, "-inf", -2.5)
        assert TropVector.from_json(v.to_json()) == v


class TestMatrix:
    def test_mixed_dims_rejected(self):
        with pytest.raises(DimensionMismatch):
            TropMatrix([vec(1, 2), vec(1, 2, 3)])

    def test_empty_needs_dim(self):
        with pytest.raises(ValueError):
            TropMatrix([])

    @pytest.mark.parametrize("dim", [2.5, 2.0, True, 0, -1, "2"])
    def test_dim_must_be_an_integer_at_least_one(self, dim):
        for cols in ([], [vec(1, 2)]):
            with pytest.raises(ValueError, match="dim"):
                TropMatrix(cols, dim=dim)
        assert TropMatrix([], dim=2).dim == TropMatrix([vec(1, 2)], dim=2).dim == 2

    def test_json_round_trip(self):
        M = mat((0, 1), (2, "-inf"))
        back = TropMatrix.from_json(M.to_json())
        assert (back.columns, back.dim) == (M.columns, M.dim)
