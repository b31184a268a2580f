import math
import sys

import pytest

from porodim.bounds import (
    LOG2,
    c_const,
    dimension_bound,
    k_of_alpha,
    psi,
    solve_s,
    solve_table,
    t_dalpha,
    t_dk,
)


def binary_entropy_bits(p: float) -> float:
    return (psi(p) + psi(1.0 - p)) / LOG2


def test_psi_convention():
    assert psi(0.0) == 0.0
    assert psi(1.0) == 0.0
    assert psi(0.5) == pytest.approx(0.5 * LOG2)
    with pytest.raises(ValueError):
        psi(-0.1)


class TestSolveS:
    def test_closed_form_d2_k1(self):
        assert solve_s(2, 1, 0.0) == pytest.approx(math.log2(3), abs=1e-9)

    def test_boundary_identity(self):
        for d in (1, 2, 3):
            for k in (1, 2, 3):
                assert solve_s(d, k, 2.0 ** (-k * d)) == pytest.approx(d, abs=1e-9)

    def test_binary_entropy_closed_form(self):
        for j in range(101):
            eps = j / 100 * 0.5
            assert solve_s(1, 1, eps) == pytest.approx(
                binary_entropy_bits(eps), abs=1e-9
            )

    def test_quadratic_closed_form_d2_k2(self):
        y = (-1.0 + math.sqrt(7.0 / 3.0)) / 2.0
        assert solve_s(2, 2, 0.0) == pytest.approx(-math.log2(y), abs=1e-9)

    def test_eps0_reduced_equation(self):
        for d in (1, 2, 3):
            for k in (1, 2, 3):
                s = solve_s(d, k, 0.0)
                total = ((1 << d) - 1) * sum(2.0 ** (-s * i) for i in range(1, k + 1))
                assert total == pytest.approx(1.0, abs=1e-9)

    def test_strict_monotonicity(self):
        for d in (1, 2, 3):
            for k in (1, 2, 3):
                hi = 2.0 ** (-k * d)
                vals = [solve_s(d, k, j / 99 * hi) for j in range(100)]
                diffs = [b - a for a, b in zip(vals, vals[1:])]
                assert min(diffs) > 1e-10

    def test_continuity_by_refinement(self):
        # halving the grid spacing roughly halves the largest jump
        for d, k in ((1, 1), (2, 1), (2, 2)):
            hi = 2.0 ** (-k * d)

            def max_jump(n):
                vals = [solve_s(d, k, j / n * hi) for j in range(n + 1)]
                return max(b - a for a, b in zip(vals, vals[1:]))

            coarse, fine = max_jump(50), max_jump(100)
            assert fine < coarse

    def test_eps_out_of_range(self):
        with pytest.raises(ValueError, match="eps"):
            solve_s(2, 1, 0.3)
        with pytest.raises(ValueError):
            solve_s(1, 1, -0.01)


class TestDimensionDrop:
    def test_t_values_at_zero(self):
        assert t_dk(2, 1, 0.0) == pytest.approx(2 - math.log2(3), abs=1e-9)
        y = (-1.0 + math.sqrt(7.0 / 3.0)) / 2.0
        assert t_dk(2, 2, 0.0) == pytest.approx(2 - math.log2(2.0 / (-1 + math.sqrt(7 / 3))), abs=1e-6)
        assert t_dk(2, 2, 0.0) == pytest.approx(2 + math.log2(y), abs=1e-9)

    def test_t_zero_at_boundary(self):
        for d in (1, 2, 3):
            for k in (1, 2, 3):
                assert abs(t_dk(d, k, 2.0 ** (-k * d))) < 1e-9

    def test_t_positive_inside(self):
        for d in (1, 2):
            for k in (1, 2, 3):
                hi = 2.0 ** (-k * d)
                for frac in (0.0, 0.25, 0.5, 0.9, 0.99):
                    assert t_dk(d, k, frac * hi) > 0.0

    def test_lower_bound_at_zero(self):
        # the explicit floor (2 / (5 log 2)) 2^-kd holds at eps = 0
        floor_const = 2.0 / (5.0 * LOG2)
        for d in range(1, 5):
            for k in range(1, 7):
                assert t_dk(d, k, 0.0) > floor_const * 2.0 ** (-k * d)


class TestAlphaRoute:
    def test_k_of_alpha_values(self):
        assert k_of_alpha(2, 0.25) == 5  # ceil(log2(16 sqrt 2)) = ceil(4.5)
        assert k_of_alpha(1, 0.5) == 3  # ceil(log2 8)

    def test_t_dalpha_composition(self):
        assert t_dalpha(2, 0.25, 0.0) == pytest.approx(0.25 * t_dk(2, 5, 0.0), abs=1e-15)

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            k_of_alpha(2, 0.0)
        with pytest.raises(ValueError):
            k_of_alpha(2, 0.7)

    def test_k_of_alpha_ratio(self):
        # halving r deepens the matching hole by one level; r = 1/4 is the default
        for d in (1, 2, 3):
            for alpha in (0.01, 0.1, 0.25, 0.5):
                assert k_of_alpha(d, alpha, 0.25) == k_of_alpha(d, alpha)
                for m in range(1, 6):
                    assert k_of_alpha(d, alpha, 2.0**-m) == k_of_alpha(d, alpha) + m - 2

    def test_ratio_not_power_of_two(self):
        for r in (0.3, 0.0, 1.0, 2.0, -0.25):
            with pytest.raises(ValueError, match=f"power of two in \\(0, 1\\), got {r}$"):
                k_of_alpha(1, 0.25, r)


class TestConstantsAndBound:
    def test_c2(self):
        assert c_const(2) == pytest.approx(2.0 / (5.0 * LOG2 * 2.0**8 * 2.0), rel=1e-12)
        assert c_const(2) == pytest.approx(1.1271e-3, rel=1e-3)

    def test_c_const_pinned_and_zero_past_the_float_range(self):
        assert [c_const(d) for d in range(1, 9)] == [
            0.03606737602222408, 0.0011271055006945026, 2.7113944342961623e-05,
            5.503444827609876e-07, 9.844861395964236e-09, 1.5924319524334134e-10,
            2.368926093297791e-12, 3.2803087399064754e-14,
        ]
        # the direct quotient, whose denominator overflows to inf from d = 136
        # and raises OverflowError from d = 256, is the reference below that
        for d in range(1, 256):
            assert c_const(d) == 2.0 / (5.0 * LOG2 * 2.0 ** (4 * d) * d ** (d / 2.0))
        assert c_const(135) >= sys.float_info.min
        for d in (256, 1023):
            assert c_const(d) == 0.0
            assert dimension_bound(d, eta=1.0, eps=0.0, k=1).c_d == 0.0

    def test_dyadic_route_bound(self):
        rep = dimension_bound(2, eta=1.0, eps=0.0, k=1)
        assert rep.bound == pytest.approx(2 - 0.4150375, abs=1e-6)
        rep = dimension_bound(1, eta=1.0, eps=0.3, k=1)
        assert rep.bound == pytest.approx(binary_entropy_bits(0.3), abs=1e-9)

    def test_alpha_route_reports_both_thresholds(self):
        rep = dimension_bound(2, eta=0.5, eps=0.0, alpha=0.25)
        assert rep.k == 5
        assert rep.eps_threshold_provable == 2.0**-10
        assert rep.eps_threshold_stated == pytest.approx(
            2.0**-4 * 2.0**-1 * 0.25**2
        )
        # the ceiling makes the provable threshold smaller here
        assert rep.eps_threshold_provable < rep.eps_threshold_stated
        assert rep.consistency_ok  # 2^-kd >= 2^-3d d^-d/2 alpha^d

    def test_route_exclusivity(self):
        with pytest.raises(ValueError, match="exactly one"):
            dimension_bound(2, eta=1.0, eps=0.0)
        with pytest.raises(ValueError, match="exactly one"):
            dimension_bound(2, eta=1.0, eps=0.0, k=1, alpha=0.25)


def test_solve_table_shape_and_endpoints():
    rows = solve_table(2, 1, points=11)
    assert len(rows) == 11
    assert rows[0]["eps_scaled"] == 0.0
    assert rows[-1]["eps_scaled"] == 1.0
    assert rows[0]["t"] == pytest.approx(2 - math.log2(3), abs=1e-9)
    assert rows[-1]["t"] == pytest.approx(0.0, abs=1e-9)
    ts = [r["t"] for r in rows]
    assert all(a > b for a, b in zip(ts, ts[1:]))
