import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from porodim import oracle
from porodim.bounds import LOG2, psi, solve_s
from porodim.oracle import (
    RawVector,
    ReducedPoint,
    _axis,
    _grid_max,
    _grid_values,
    _tangent_bounds,
    _tile_bounds,
    _xlogx,
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


def full_enumeration(d, k, eps, grid):
    """Reference: the grid maximum and its free coordinates (q_1..q_{k-1}, p)
    from evaluating every grid point, as the brute force did before it
    skipped tiles."""
    L = (1 << d) - 1
    p_grid = np.linspace(0.0, eps, min(grid, 65)) if eps > 0.0 else np.array([0.0])
    idx = np.indices((grid,) * (k - 1)).reshape(k - 1, grid ** (k - 1))
    idx = idx[:, idx.sum(axis=0) < grid]
    zero = np.zeros(idx.shape[1])
    best_val = -math.inf
    best_free = None
    for p in p_grid:
        budget = (1.0 - p) / L
        a = np.linspace(0.0, budget, grid)
        q = [a[col] for col in idx]
        with np.errstate(divide="ignore", invalid="ignore"):
            a_ent = _xlogx(a)
            total, ent, lin = zero, zero, zero
            for i, (col, qi) in enumerate(zip(idx, q), start=1):
                total = total + qi
                ent = ent + a_ent[col]
                lin = lin + qi * i
            keep = total <= budget + 1e-15
            qk = budget - total
            ent = ent + _xlogx(qk)
            lin = lin + qk * k
            num = L * (-ent) + psi(float(p))
            den = LOG2 * (L * lin + k * float(p))
        vals = np.where(keep, num / den, -np.inf)
        j = int(np.argmax(vals))
        if vals[j] > best_val:
            best_val = float(vals[j])
            best_free = (*(float(qi[j]) for qi in q), float(p))
    return best_val, best_free


def assert_same_grid_max(d, k, eps, grid):
    want_val, want_free = full_enumeration(d, k, eps, grid)
    got_val, got_free = _grid_max(d, k, eps, grid)
    assert got_val.hex() == want_val.hex()
    assert [x.hex() for x in got_free] == [x.hex() for x in want_free]


class TestPrunedGridIsExact:
    @pytest.mark.parametrize("grid", [2, 3, 17, 101, 500])
    @pytest.mark.parametrize("frac", [0.0, 1e-6, 0.5, 1.0])
    @pytest.mark.parametrize("d,k", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)])
    def test_matches_full_enumeration(self, d, k, frac, grid):
        assert_same_grid_max(d, k, frac * 2.0 ** (-k * d), grid)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        d=st.integers(1, 2),
        k=st.integers(1, 3),
        frac=st.floats(0.0, 1.0),
        grid=st.integers(2, 300),
    )
    def test_matches_full_enumeration_randomized(self, d, k, frac, grid):
        assert_same_grid_max(d, k, frac * 2.0 ** (-k * d), grid)

    def test_tile_bounds_hold(self):
        # every computed value in a tile lies at or below both of the tile's
        # bounds, on the aligned tiles of every side the refinement visits
        rng = np.random.default_rng(31)
        undefined = defined = 0
        for case in range(60):
            d, k = int(rng.integers(1, 3)), int(rng.integers(1, 4))
            eps = 2.0 ** (-k * d) * (0.0, 1.0, rng.random())[case % 3]
            grid = int(rng.integers(2, 400 if k == 3 else 3000))
            L, m = (1 << d) - 1, k - 1
            idx = np.indices((grid,) * m).reshape(m, grid**m)
            idx = idx[:, idx.sum(axis=0) < grid]
            sides = [1 << e for e in range((grid - 1).bit_length() if m else 0, -1, -1)]
            for p in np.linspace(0.0, eps, 4).tolist():
                a = np.linspace(0.0, (1.0 - p) / L, grid)
                vals = _grid_values(a[idx], p, psi(p), k, L)
                for side in sides:
                    # group the points by tile, then take each tile's largest
                    key = (idx // side * grid ** np.arange(m)[:, None]).sum(axis=0)
                    order = np.argsort(key, kind="stable")
                    at = np.flatnonzero(np.diff(key[order], prepend=-1))
                    top = np.maximum.reduceat(vals[order], at)
                    first = idx[:, order[at]] // side * side
                    lo, hi = a[first], a[np.minimum(first + side, grid) - 1]
                    tangent = _tangent_bounds(lo, hi, p, k, L)
                    assert (top <= _tile_bounds(lo, hi, p, k, L)).all()
                    assert (top <= tangent).all()
                    undefined += int(np.isinf(tangent).sum())
                    defined += int(np.isfinite(tangent).sum())
        # the fallback to the interval bound is exercised, and so is the
        # tangent bound
        assert undefined > 0 and defined > 0

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        d=st.integers(1, 2),
        k=st.integers(1, 3),
        frac=st.floats(0.0, 1.0),
        grid=st.integers(2, 300),
        data=st.data(),
    )
    def test_tile_bounds_hold_on_random_tiles(self, d, k, frac, grid, data):
        # the bound _grid_max prunes with, on one aligned tile of any side
        L, m = (1 << d) - 1, k - 1
        eps = frac * 2.0 ** (-k * d)
        p = float(data.draw(st.sampled_from(np.linspace(0.0, eps, min(grid, 65)).tolist())))
        side = 1 << data.draw(st.integers(0, (grid - 1).bit_length() if m else 0))
        first = []
        for _ in range(m):
            first.append(side * data.draw(st.integers(0, (grid - 1 - sum(first)) // side)))
        first = np.array(first, dtype=np.int64).reshape(m, 1)
        cols = first + np.indices((side,) * m).reshape(m, side**m)
        cols = cols[:, cols.sum(axis=0) < grid]
        a = np.linspace(0.0, (1.0 - p) / L, grid)
        lo, hi = a[first], a[np.minimum(first + side, grid) - 1]
        bound = min(_tile_bounds(lo, hi, p, k, L)[0], _tangent_bounds(lo, hi, p, k, L)[0])
        assert _grid_values(a[cols], p, psi(p), k, L).max() <= bound

    @pytest.mark.parametrize("args", [(2, 3, 2.0**-10, 500), (1, 3, 0.05, 1000)])
    def test_evaluates_few_points(self, args, monkeypatch):
        # fixed side-16 tiles under the interval bound alone left 14.5 % of
        # the (2, 3, 2^-10, 500) grid to evaluate
        seen = []

        def counting(q, *rest):
            seen.append(q.shape[-1])
            return _grid_values(q, *rest)

        monkeypatch.setattr(oracle, "_grid_values", counting)
        d, k, eps, grid = args
        _grid_max(*args)
        assert sum(seen) < 0.005 * min(grid, 65) * math.comb(grid + k - 2, k - 1)

    def test_axis_matches_linspace(self):
        # _grid_max reads each axis value in closed form; np.linspace is the
        # grid's definition
        rng = np.random.default_rng(5)
        for case in range(200):
            grid = 2 + case if case < 50 else int(10 ** rng.uniform(0.5, 6.0))
            budget = (1.0 - rng.random()) / int(rng.integers(1, 4))
            got = _axis(np.arange(grid), budget, grid)
            assert got.tobytes() == np.linspace(0.0, budget, grid).tobytes()

    @pytest.mark.parametrize(
        "args, limit_mb", [((2, 3, 2.0**-10, 500), 12), ((1, 2, 0.1, 10**6), 100)]
    )
    def test_peak_memory(self, args, limit_mb):
        # the full enumeration held every grid point's intermediates at once:
        # 14.3 and 122 MB
        tracemalloc.start()
        try:
            maximize_bruteforce(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mb * 1e6
