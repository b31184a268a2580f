import math
import sys

import pytest

from porodim import bounds
from porodim.bounds import (
    LOG2,
    c_const,
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

    def test_dyadic_route_bound(self):
        # the bound d - eta * t at eta = 1 in two closed forms
        assert 2 - t_dk(2, 1, 0.0) == pytest.approx(2 - 0.4150375, abs=1e-6)
        assert 1 - t_dk(1, 1, 0.3) == pytest.approx(binary_entropy_bits(0.3), abs=1e-9)

    def test_euclidean_form_meets_c_const(self):
        """The paper's Euclidean form t_dalpha(d, alpha, 0) >= c_d alpha^d at
        alpha = 2^-(1 + m/8), wherever k(alpha) d <= 24.  Past that t is below
        about 5e-8 and t_dk's absolute 1e-12 becomes a growing share of it.
        From d = 5 on, k(1/2) d >= 25 already."""
        checked = set()
        for d in range(1, 9):
            # t_dk holds t to the bisection's absolute tolerance, and
            # t_dalpha = 2^-d t_dk scales that error with it
            tol = 2.0**-d * bounds._BISECT_TOL
            for m in range(200):
                alpha = 0.5 * 2.0 ** (-m / 8)
                if k_of_alpha(d, alpha) * d > 24:
                    break
                assert t_dalpha(d, alpha, 0.0) + tol >= c_const(d) * alpha**d, (d, m)
                checked.add(d)
        assert checked == {1, 2, 3, 4}


def test_solve_table_shape_and_endpoints():
    rows = solve_table(2, 1, points=11)
    assert len(rows) == 11
    eps, eps_scaled, s, ts = zip(*rows)
    assert list(eps) == bounds.eps_grid(2, 1, 11)
    assert eps_scaled[0] == 0.0
    assert eps_scaled[-1] == 1.0
    assert all(x * 4.0 == y for x, y in zip(eps, eps_scaled))
    assert all(t == 2 - si for si, t in zip(s, ts))
    assert ts[0] == pytest.approx(2 - math.log2(3), abs=1e-9)
    assert ts[-1] == pytest.approx(0.0, abs=1e-9)
    assert all(a > b for a, b in zip(ts, ts[1:]))
