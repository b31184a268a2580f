import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from porodim.bounds import LOG2, psi, solve_s
from porodim.oracle import (
    RawVector,
    ReducedPoint,
    alpha_vector,
    fixed_point_candidate,
    maximize_bruteforce,
    raw_objective,
    reduce_within_levels,
    reduced_objective,
)


def test_alpha_vector_layout():
    assert alpha_vector(1, 2) == (0.5, 0.25, 0.25)
    assert alpha_vector(2, 1) == (0.5, 0.5, 0.5, 0.5)
    v = alpha_vector(2, 3)
    assert len(v) == 3 * 3 + 1
    assert v.count(0.5) == 3 and v.count(0.25) == 3 and v.count(0.125) == 4


class TestRawObjective:
    def test_uniform_d2_k1(self):
        v = RawVector(2, 1, (0.25,) * 4)
        assert raw_objective(v) == pytest.approx(2.0, abs=1e-12)

    def test_three_way_split(self):
        v = RawVector(2, 1, (1 / 3, 1 / 3, 1 / 3, 0.0))
        assert raw_objective(v) == pytest.approx(math.log(3) / math.log(2), abs=1e-12)

    def test_exact_dimension_one(self):
        v = RawVector(1, 2, (0.5, 0.25, 0.25))
        assert raw_objective(v) == pytest.approx(1.0, abs=1e-14)

    def test_invalid_vectors(self):
        with pytest.raises(ValueError, match="sum"):
            RawVector(1, 1, (0.5, 0.4))
        with pytest.raises(ValueError, match="nonnegative"):
            RawVector(1, 1, (1.1, -0.1))


class TestReduce:
    def test_fixed_point_of_level_uniform(self):
        v = RawVector(2, 1, (1 / 3, 1 / 3, 1 / 3, 0.0))
        assert reduce_within_levels(v).p == v.p

    def test_example_increase(self):
        v = RawVector(2, 1, (0.5, 0.3, 0.2, 0.0))
        red = reduce_within_levels(v)
        assert red.p == pytest.approx((1 / 3, 1 / 3, 1 / 3, 0.0))
        assert raw_objective(red) == pytest.approx(math.log2(3), abs=1e-12)
        assert raw_objective(red) >= raw_objective(v)

    def test_never_decreases_randomized(self):
        rng = np.random.default_rng(20240)
        for _ in range(10_000):
            d = int(rng.integers(1, 3))
            k = int(rng.integers(1, 4))
            n = ((1 << d) - 1) * k + 1
            raw = rng.dirichlet(np.full(n, 0.4))
            v = RawVector(d, k, tuple(float(x) for x in raw / raw.sum()))
            assert raw_objective(reduce_within_levels(v)) >= raw_objective(v) - 1e-12

    def test_hole_untouched(self):
        v = RawVector(1, 2, (0.3, 0.5, 0.2))
        assert reduce_within_levels(v).p[-1] == 0.2


class TestReducedPoint:
    def test_constraint_checked(self):
        with pytest.raises(ValueError, match="L sum q"):
            ReducedPoint(2, 1, (0.5,), 0.0)
        ReducedPoint(2, 1, (1 / 3,), 0.0)  # fine

    def test_to_raw_matches_reduced_objective(self):
        pt = ReducedPoint(2, 2, (0.25, 0.05), 1.0 - 3 * 0.30)
        assert raw_objective(pt.to_raw()) == pytest.approx(
            reduced_objective(2, 2, pt.q, pt.p), abs=1e-12
        )


class TestBruteForce:
    def test_d2_k1_eps0(self):
        res = maximize_bruteforce(2, 1, 0.0, grid=10_000)
        assert res.value == pytest.approx(math.log2(3), abs=1e-4)
        assert res.argmax.q[0] == pytest.approx(1 / 3, abs=1e-6)
        assert res.argmax.p == 0.0

    def test_d1_k1_eps03(self):
        res = maximize_bruteforce(1, 1, 0.3, grid=2_000)
        hb = (psi(0.3) + psi(0.7)) / LOG2
        assert res.value == pytest.approx(hb, abs=1e-6)
        assert res.argmax.q[0] == pytest.approx(0.7, abs=1e-6)
        assert res.argmax.p == pytest.approx(0.3, abs=1e-6)

    def test_d2_k2_eps0(self):
        res = maximize_bruteforce(2, 2, 0.0, grid=500)
        y = (-1.0 + math.sqrt(7.0 / 3.0)) / 2.0
        assert res.value == pytest.approx(-math.log2(y), abs=2e-3)
        assert res.argmax.q[0] == pytest.approx(y, abs=1e-3)
        assert res.argmax.q[1] == pytest.approx(y * y, abs=1e-3)

    def test_boundary_eps_gives_dimension(self):
        for d, k in ((1, 1), (1, 2), (2, 1), (2, 2)):
            hi = 2.0 ** (-k * d)
            res = maximize_bruteforce(d, k, hi, grid=400)
            assert res.value == pytest.approx(d, abs=1e-3)
            # argmax approximates the uniform-volume vector q_i = 2^-di
            for i, qi in enumerate(res.argmax.q, start=1):
                assert qi == pytest.approx(2.0 ** (-d * i), abs=5e-3)

    def test_feasibility_guard(self):
        with pytest.raises(ValueError, match="expensive"):
            maximize_bruteforce(3, 2, 0.0)


class TestFixedPoint:
    def test_d2_k2_eps0(self):
        res = fixed_point_candidate(2, 2, 0.0)
        y = (-1.0 + math.sqrt(7.0 / 3.0)) / 2.0
        assert res.value == pytest.approx(-math.log2(y), abs=1e-9)
        assert res.point.q[0] == pytest.approx(y, abs=1e-9)
        assert res.point.q[1] == pytest.approx(y * y, abs=1e-9)

    def test_d1_k1_binary_entropy(self):
        for eps in (0.0, 0.1, 0.3, 0.5):
            res = fixed_point_candidate(1, 1, eps)
            assert res.value == pytest.approx((psi(eps) + psi(1 - eps)) / LOG2, abs=1e-12)
            assert res.point.q[0] == pytest.approx(1 - eps, abs=1e-12)

    def test_d2_k1(self):
        res = fixed_point_candidate(2, 1, 0.0)
        assert res.value == pytest.approx(math.log2(3), abs=1e-9)
        assert res.point.q[0] == pytest.approx(1 / 3, abs=1e-12)


class TestAgreement:
    @pytest.mark.parametrize("d,k", [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (2, 3)])
    def test_three_way_battery(self, d, k):
        hi = 2.0 ** (-k * d)
        grid = 500 if k < 3 else 200
        for eps in (0.0, hi / 2.0, hi):
            bf = maximize_bruteforce(d, k, eps, grid=grid)
            fp = fixed_point_candidate(d, k, eps)
            sv = solve_s(d, k, eps)
            assert abs(bf.value - sv) < 2e-3
            assert abs(fp.value - sv) < 1e-6
            if eps < 2.0**-k:
                # hole sits at its ceiling and levels decay geometrically
                assert bf.argmax.p == pytest.approx(eps, abs=1e-3)
                m = bf.value
                for qa, qb in zip(bf.argmax.q, bf.argmax.q[1:]):
                    assert abs(qb / qa - 2.0**-m) < 5e-2


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    d=st.integers(1, 2),
    k=st.integers(1, 3),
    frac=st.floats(0.0, 1.0),
    grid=st.integers(2, 60),
)
def test_bruteforce_never_beats_solver(d, k, frac, grid):
    # every grid point and polished point is a feasible split, so none can
    # exceed the supremum s(d, k, eps)
    eps = frac * 2.0 ** (-k * d)
    assert maximize_bruteforce(d, k, eps, grid).value <= solve_s(d, k, eps) + 1e-9
