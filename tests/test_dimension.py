import bisect
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from porodim.bounds import LOG2, psi, solve_s
from porodim.cli import _simulate_one_path
from porodim.dimension import (
    PathTrajectory,
    _entropy_and_lyapunov,
    _exact_sum,
    _pick,
    _trajectory_from_steps,
    estimate_packing_dim,
    hmin_and_converse,
    sampled_trajectory,
)
from porodim.dyadic import CubeAddress, porous_split, root, subdivide_uniform
from porodim.measure import (
    _PATH_STREAM,
    Bernoulli,
    CantorMiddleHalf,
    CascadeDirichlet,
    CascadeFiniteMixture,
    GeneratorSpec,
    Homothety,
    Uniform,
    UnrealizedNodeError,
    _choice_table,
    apply_homothety,
    build_tree_measure,
    derived_rng,
)
from porodim.porosity import porous_retree, sample_porous_path

from conftest import SPECS, make_measure

BERNOULLI_DIM = (psi(0.25) + psi(0.75)) / LOG2  # 0.811278...


def h_lam_ratio(part, dist):
    """(H, lambda, H / lambda) at one node, the ratio 0 for a point mass."""
    h, lam = _entropy_and_lyapunov(part.parent.level, part.children, dist)
    return h, lam, 0.0 if h == 0.0 else h / lam


class TestNodeStats:
    def test_uniform_is_full_dimension(self):
        for d in (1, 2, 3):
            part = subdivide_uniform(root(d))
            h, lam, ratio = h_lam_ratio(part, (2.0**-d,) * (1 << d))
            assert h == pytest.approx(d * LOG2, abs=1e-12)
            assert lam == pytest.approx(LOG2, abs=1e-15)
            assert ratio == pytest.approx(d, abs=1e-12)

    def test_point_mass_is_zero(self):
        part = subdivide_uniform(root(2))
        h, _, ratio = h_lam_ratio(part, (1.0, 0.0, 0.0, 0.0))
        assert h == 0.0
        assert ratio == 0.0

    def test_porous_split_geometric_weights(self):
        # per-level masses y^i with 3(y + y^2) = 1 achieve the supremum
        y = (-1.0 + math.sqrt(7.0 / 3.0)) / 2.0
        parent = root(2)
        part = porous_split(parent, CubeAddress(2, (0, 0)), 2)
        weights = []
        for child in part.children[:-1]:
            weights.append(y ** (child.level - parent.level))
        weights.append(0.0)  # hole
        _, _, ratio = h_lam_ratio(part, tuple(weights))
        assert ratio == pytest.approx(1.9227, abs=1e-4)
        assert ratio == pytest.approx(solve_s(2, 2, 0.0), abs=1e-9)

    def test_ratio_is_d_iff_volume_weights(self):
        rng = np.random.default_rng(77)
        for d in (1, 2):
            part = subdivide_uniform(root(d))
            n = 1 << d
            vol = (2.0**-d,) * n
            assert h_lam_ratio(part, vol)[2] == pytest.approx(d, abs=1e-9)
            for _ in range(25):
                w = rng.dirichlet(np.full(n, 1.0))
                if np.max(np.abs(w - 2.0**-d)) < 1e-2:
                    continue
                assert h_lam_ratio(part, tuple(float(x) for x in w))[2] < d - 1e-9


class TestTrajectory:
    def test_uniform_exact(self, uniform2):
        traj = sampled_trajectory(uniform2, 30, 5)
        assert np.allclose(traj.D, 2.0, atol=1e-12)
        assert traj.terminal_D == 2.0
        assert np.all(traj.res_H == 0.0)
        assert np.all(traj.res_L == 0.0)

    def test_point_mass_exact(self, point_mass):
        traj = sampled_trajectory(point_mass, 25, 5)
        assert np.all(traj.D == 0.0)
        assert math.fsum(traj.H) == 0.0

    def test_zero_weight_step_raises(self):
        q = root(1)
        with pytest.raises(ValueError, match="zero-weight child"):
            _trajectory_from_steps([(q, subdivide_uniform(q), (1.0, 0.0), 1)])

    def test_dyadic_frame_identities(self, bern_quarter):
        traj = sampled_trajectory(bern_quarter, 30, 9)
        assert np.allclose(traj.lam, LOG2)
        assert np.all(traj.I >= 0.0)
        assert np.all(traj.res_L == 0.0)

    def test_bernoulli_residuals_and_terminal(self, bern_quarter):
        mu = make_measure(1, Bernoulli((0.25, 0.75)), depth=10_000)
        traj = sampled_trajectory(mu, 10_000, 3)
        assert abs(traj.res_H[-1]) < 0.01
        assert traj.terminal_D == pytest.approx(BERNOULLI_DIM, abs=0.02)

    def test_martingale_rate_battery(self):
        # |res(n)| < 5 sigma_hat n^{-1/2} at n in {1e3, 1e4} for fixed seeds
        mu = make_measure(1, Bernoulli((0.25, 0.75)), depth=10_000)
        mix = make_measure(
            1, CascadeFiniteMixture(((0.5, 0.5), (0.1, 0.9)), (0.5, 0.5)),
            depth=10_000, seed=5,
        )
        for measure, seeds in ((mu, range(6)), (mix, range(6, 10))):
            for seed in seeds:
                traj = sampled_trajectory(measure, 10_000, seed)
                diffs = traj.I - traj.H
                sigma = float(np.std(diffs))
                for n in (1_000, 10_000):
                    res = float(np.mean(diffs[:n]))
                    assert abs(res) < 5.0 * sigma / math.sqrt(n)

    def test_classifier_projection(self):
        # the re-tree walk simulate runs: 30 steps of at most k = 2 levels,
        # probed k levels further down
        mu = make_measure(1, Bernoulli((0.1, 0.9)), depth=62)
        traj, _ = sample_porous_path(mu, 2, 0.05, 8, 30)
        assert traj.porous.all()  # every node of this measure is (2, .05)-porous
        jumps = traj.L / LOG2  # levels descended per step, exact
        assert set(jumps.tolist()) <= {1.0, 2.0}

    def test_csv_rows_shape(self, bern_quarter):
        traj = sampled_trajectory(bern_quarter, 5, 1)
        rows = list(traj.csv_rows())
        assert len(rows) == 5
        assert len(rows[0]) == 10

    @pytest.mark.parametrize("model", [CascadeDirichlet((1.0, 1.0)), Bernoulli((0.25, 0.75))],
                             ids=["scalar walk", "product path"])
    def test_running_columns_are_derived_on_read(self, model):
        traj = sampled_trajectory(make_measure(1, model, depth=40), 40, 7)
        assert [f.name for f in dataclasses.fields(traj)] == [
            "I", "L", "H", "lam", "porous"]
        assert traj.terminal_D > 0.0
        # the estimator reads only terminal_D, so it builds no running column
        assert not {"D", "res_H", "res_L"} & traj.__dict__.keys()
        counts = np.arange(1, 41, dtype=float)
        assert np.array_equal(traj.D, np.cumsum(traj.H) / np.cumsum(traj.L))
        assert np.array_equal(traj.res_H, (np.cumsum(traj.I) - np.cumsum(traj.H)) / counts)
        assert np.array_equal(traj.res_L, (np.cumsum(traj.L) - np.cumsum(traj.lam)) / counts)


def scalar_trajectory(mu, depth, seed):
    """The reference: ``_trajectory_from_steps`` over the scalar walk."""
    return _trajectory_from_steps(list(mu.walk(seed, steps=depth)))


def assert_same_bytes(a: PathTrajectory, b: PathTrajectory) -> None:
    for field in dataclasses.fields(PathTrajectory):
        x, y = getattr(a, field.name), getattr(b, field.name)
        assert (x.dtype, x.shape) == (y.dtype, y.shape), field.name
        assert x.tobytes() == y.tobytes(), field.name
    assert a.terminal_D.hex() == b.terminal_D.hex()


#: (d, model, seed) of the streamed-walk checks: a mixture, an equal- and an
#: unequal-concentration Dirichlet and a Bernoulli, at d = 1 and d = 2
STREAM_SPECS = [
    *(spec for spec in SPECS if not isinstance(spec[1], Bernoulli)),
    (1, CascadeDirichlet((0.3, 1.7)), 104),
    (2, CascadeDirichlet((0.3, 1.7, 2.5, 0.9)), 107),
    *(spec for spec in SPECS if isinstance(spec[1], Bernoulli)),
]


class TestStreamedWalk:
    """``sample_porous_path`` records the walk as it goes and keeps no step."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("d, model, seed", STREAM_SPECS,
                             ids=[f"d{d}-{type(m).__name__}-{s}" for d, m, s in STREAM_SPECS])
    def test_streamed_walk_matches_step_list(self, d, model, seed, k):
        steps, eps = 40, 0.5 * 2.0 ** -(k * d)
        mu = make_measure(d, model, depth=steps * k + k, seed=seed)
        traj, flags = sample_porous_path(mu, k, eps, derived_rng(seed, _PATH_STREAM, 0),
                                         steps)
        walk = list(porous_retree(mu, k, eps).walk(derived_rng(seed, _PATH_STREAM, 0),
                                                   steps))
        assert_same_bytes(traj, _trajectory_from_steps(walk))
        _, part, _, idx = walk[-1]
        assert len(flags) == part.children[idx].level

    def test_streamed_walk_memory_linear_in_depth(self):
        # one path as simulate runs it, the d = 1 mixture at k = 1, eps 0.1; a
        # kept step list grows with the square of the depth, as each step's
        # addresses have level bits: 8000 steps would take about 7 times the
        # peak of 2000
        spec = GeneratorSpec(*SPECS[2])

        def peak(steps):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                _simulate_one_path(spec, 1, 0.1, steps, spec.seed, 0)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        peak(200)  # warm-up: lazy imports and caches are not the path's
        small, large = peak(2000), peak(8000)
        assert large < 5 * small, (small, large)

    def test_streamed_walk_estimate_memory_linear_in_depth(self):
        # estimate_packing_dim's scalar walk, one path of the d = 1 mixture
        # (seed 101): a kept step list grows with the square of the depth,
        # about 7.7 times the 2000-step peak at 8000 steps
        mu = make_measure(*SPECS[2][:2], depth=8000, seed=SPECS[2][2])

        def peak(steps):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                estimate_packing_dim(mu, steps, 1, 0)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        peak(200)  # warm-up: lazy imports and caches are not the path's
        small, large = peak(2000), peak(8000)
        assert large < 5 * small, (small, large)


class Draws(np.random.Generator):
    """A generator whose ``random(n)`` returns the first n given draws, so a
    test can reach the ties and the top draw a seeded generator hits with
    probability 2^-53."""

    def __init__(self, draws):
        super().__init__(np.random.PCG64(0))
        self.draws = np.asarray(draws, dtype=float)

    def random(self, size=None):
        return self.draws[:size].copy()


@st.composite
def product_models(draw):
    """(d, model) for d = 1, 2, 3: Uniform, or Bernoulli with zero entries,
    so 1..8 positive children and ``_pick`` widths 1, 2, 4 and 8."""
    d = draw(st.sampled_from([1, 2, 3]))
    n = 1 << d
    raw = draw(st.lists(st.just(0.0) | st.floats(1e-3, 1.0), min_size=n, max_size=n)
               .filter(any))
    if draw(st.booleans()):
        return d, Uniform()
    total = sum(raw)
    return d, Bernoulli(tuple(x / total for x in raw))


class TestProductTrajectory:
    """Product measures take the numpy path; the scalar walk is the reference."""

    @settings(max_examples=60, deadline=None)
    @given(model=product_models(), seed=st.integers(0, 2**64 - 1),
           depth=st.integers(1, 300))
    def test_equals_scalar_walk(self, model, seed, depth):
        d, m = model
        mu = make_measure(d, m, depth=depth)
        assert mu.product_weights is not None
        assert_same_bytes(sampled_trajectory(mu, depth, seed),
                          scalar_trajectory(mu, depth, seed))

    @settings(max_examples=60, deadline=None)
    @given(model=product_models(), data=st.data())
    def test_equals_scalar_walk_on_edge_draws(self, model, data):
        # draws at the cumulative sums (ties), their neighbours, 0 and the top draw
        d, m = model
        mu = make_measure(d, m, depth=40)
        w = mu.product_weights
        total, acc, edges = math.fsum(w), 0.0, [0.0, 1.0 - 2.0**-53]
        for wj in w:
            acc += wj
            u = acc / total
            edges += [u, math.nextafter(u, 0.0), math.nextafter(u, 1.0)]
        draws = data.draw(st.lists(
            st.sampled_from([u for u in edges if u < 1.0])
            | st.floats(0.0, 1.0, exclude_max=True),
            min_size=1, max_size=40,
        ))
        assert_same_bytes(sampled_trajectory(mu, len(draws), Draws(draws)),
                          scalar_trajectory(mu, len(draws), Draws(draws)))

    @pytest.mark.parametrize("last, draw, child", [
        # the top draw exceeds every cumulative weight, and the walk falls
        # back to the last positive child
        (0.0, 1.0 - 2.0**-53, 2),
        # a draw at the accumulated third cumulative weight, just below the
        # exact one, goes on to child 3
        (1e-13, (0.7 + 0.2 + 0.1) / math.fsum((0.7, 0.2, 0.1, 1e-13)), 3),
    ])
    def test_fallback_and_accumulation_order(self, last, draw, child):
        # 0.7 + 0.2 + 0.1 accumulates to 1 - 2^-53, below the exact sum
        w = (0.7, 0.2, 0.1, last)
        mu = make_measure(2, Bernoulli(w), depth=2)
        draws = [draw, 0.7]  # the second ties the first cumulative weight
        traj = sampled_trajectory(mu, 2, Draws(draws))
        assert_same_bytes(traj, scalar_trajectory(mu, 2, Draws(draws)))
        assert traj.I.tolist() == [-math.log(w[child]), -math.log(w[1])]

    @pytest.mark.parametrize("w", [
        (1.0,), (0.25, 0.75), (0.7, 0.2, 0.1), (0.7, 0.2, 0.1, 1e-13), (0.2,) * 5,
        (0.125,) * 8, (0.1,) * 9, tuple((j % 7 + 1) / 7 for j in range(256)),
        # 0.5 + 1e-300 == 0.5: equal cumulative entries, inside and at the top
        pytest.param((0.5, 1e-300, 0.5), id="equal-inside"),
        pytest.param((1.0, 1e-300, 1e-300), id="equal-at-top"),
    ], ids=lambda w: f"{len(w)}-children")
    def test_pick_is_clamped_bisect_right(self, w):
        # ties, their neighbours, 0, the top draw and random draws
        _, cum, total = _choice_table(root(1), w)
        ts = [0.0, (1.0 - 2.0**-53) * total, total]
        for c in cum:
            ts += [c, math.nextafter(c, 0.0), math.nextafter(c, math.inf)]
        ts += (np.random.default_rng(0).random(200) * total).tolist()
        pick = _pick(cum, np.array(ts))
        assert pick.dtype.kind == "i"
        assert pick.tolist() == [min(bisect.bisect_right(cum, t), len(cum) - 1)
                                 for t in ts]

    def test_weight_one_information_is_positive_zero(self, point_mass):
        # -log 1 is -0.0, which a CSV prints as -0
        traj = sampled_trajectory(point_mass, 5, 0)
        assert_same_bytes(traj, scalar_trajectory(point_mass, 5, 0))
        assert traj.I.tobytes() == traj.res_H.tobytes() == np.zeros(5).tobytes()

    def test_walk_deep_config(self):
        # the benchmark's walk_deep round 0: Bernoulli(1/4, 3/4), 3 x 20k steps
        mu = make_measure(1, Bernoulli((0.25, 0.75)), depth=20_000)
        for i in range(3):
            assert_same_bytes(
                sampled_trajectory(mu, 20_000, derived_rng(3, _PATH_STREAM, i)),
                scalar_trajectory(mu, 20_000, derived_rng(3, _PATH_STREAM, i)),
            )

    def test_shared_columns_are_read_only_views(self):
        traj = sampled_trajectory(make_measure(1, Bernoulli((0.25, 0.75))), 30, 0)
        for col in (traj.L, traj.H, traj.lam, traj.porous):
            assert col.strides == (0,)
            assert not col.flags.writeable

    @pytest.mark.parametrize("spec", [SPECS[0], SPECS[2]], ids=["product", "cascade"])
    def test_depth_bound_and_empty_walk(self, spec):
        d, model, seed = spec
        mu = make_measure(d, model, depth=12, seed=seed)
        assert (mu.product_weights is not None) == isinstance(model, Bernoulli)
        with pytest.raises(UnrealizedNodeError):
            sampled_trajectory(mu, mu.depth + 1, 0)
        with pytest.raises(ValueError, match="empty walk"):
            sampled_trajectory(mu, 0, 0)

    def test_path_chosen_from_the_spec(self):
        product = [make_measure(1, Uniform()), make_measure(2, Uniform())]
        product += [make_measure(d, m, seed=s) for d, m, s in SPECS
                    if isinstance(m, Bernoulli)]
        assert [mu.product_weights for mu in product] == [
            (0.5, 0.5), (0.25,) * 4, (0.25, 0.75), (0.1, 0.4, 0.4, 0.1)]
        base = make_measure(1, Bernoulli((0.25, 0.75)))
        scalar = [make_measure(d, m, seed=s) for d, m, s in SPECS
                  if not isinstance(m, Bernoulli)]
        scalar += [
            make_measure(1, CantorMiddleHalf()),
            porous_retree(base, 1, 0.1),
            apply_homothety(base, Homothety(0.25, (0.5,)), 20),
        ]
        assert all(mu.product_weights is None for mu in scalar)


def fsum_outcome(sum_, col):
    try:
        return sum_(col).hex()
    except OverflowError:
        return "OverflowError"


class TestExactSum:
    """``_exact_sum`` is ``math.fsum`` bit for bit, constant columns or not."""

    @settings(max_examples=100, deadline=None)
    @given(x=st.sampled_from([0.0, -0.0])
           | st.floats(-2.0**-1022, 2.0**-1022, exclude_min=True, exclude_max=True)
           | st.floats(-1e300, 1e300),
           n=st.integers(1, 10**5))
    def test_constant_column(self, x, n):
        for col in (np.full(n, x), np.broadcast_to(np.array(x), n)):
            assert _exact_sum(col).hex() == math.fsum(col.tolist()).hex()

    @settings(max_examples=200, deadline=None)
    @given(xs=st.lists(st.floats(-1e300, 1e300), max_size=50))
    def test_any_finite_column(self, xs):
        col = np.array(xs, dtype=float)
        assert _exact_sum(col).hex() == math.fsum(col.tolist()).hex()

    @pytest.mark.parametrize("xs", [[1e308] * 10, [math.inf] * 3, [-math.inf] * 2,
                                    [math.nan] * 2])
    def test_overflow_and_non_finite(self, xs):
        # the zero-stride view takes the closed form only where it is finite
        for col in (np.array(xs), np.broadcast_to(np.array(xs[0]), len(xs))):
            assert fsum_outcome(_exact_sum, col) == fsum_outcome(math.fsum, xs)


class TestEstimator:
    def test_uniform_exact_any_depth(self):
        from porodim.measure import Uniform

        for d in (1, 2):
            mu = build_tree_measure(
                GeneratorSpec(d, Uniform()), "uniform", 64, max_level=64
            )
            est = estimate_packing_dim(mu, 64, 5, seed=2)
            assert est.value == float(d)
            assert est.per_path == (float(d),) * 5

    def test_point_mass_zero(self, point_mass):
        est = estimate_packing_dim(point_mass, 30, 5, seed=2)
        assert est.value == 0.0

    def test_bernoulli_estimate(self):
        mu = make_measure(1, Bernoulli((0.25, 0.75)), depth=10_000)
        est = estimate_packing_dim(mu, 10_000, 20, seed=12)
        assert est.value == pytest.approx(BERNOULLI_DIM, abs=0.02)
        assert max(est.per_path) == est.value

    def test_product_path_memory(self):
        # a product path allocates two 800 kB per-step columns and holds at
        # most three while it is built, next to the previous path's two
        mu = make_measure(1, Bernoulli((0.25, 0.75)), depth=100_000)
        tracemalloc.start()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            estimate_packing_dim(mu, 100_000, 3, seed=3)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 6e6

    def test_schedule_independence(self):
        # per-path derived seeds: the same battery in any order
        mu = make_measure(1, CascadeDirichlet((0.8, 0.8)), depth=200, seed=3)
        a = estimate_packing_dim(mu, 200, 8, seed=40)
        b = estimate_packing_dim(mu, 200, 8, seed=40)
        assert a == b

    def test_value_in_range(self):
        mu = make_measure(2, CascadeDirichlet((0.5,) * 4), depth=300, seed=6)
        est = estimate_packing_dim(mu, 300, 10, seed=1)
        assert 0.0 <= est.value <= 2.0


class TestHmin:
    def test_boundary_forces_uniform(self):
        for d in (1, 2, 3):
            cb = hmin_and_converse(d, 2.0**-d, 0.5)
            assert cb.hmin == pytest.approx(d * LOG2, abs=1e-12)

    def test_zero_eps_point_mass(self):
        assert hmin_and_converse(2, 0.0, 0.3).hmin == 0.0

    def test_d1_closed_form_example(self):
        cb = hmin_and_converse(1, 0.25, 0.5)
        assert cb.hmin == pytest.approx(0.562335, abs=1e-6)
        assert cb.lower_bound == pytest.approx(0.405639, abs=1e-6)

    def test_grid_minimization_oracle_d1(self):
        # independent check: entropy minimized over the eps-floored simplex
        for eps in (0.05, 0.1, 0.25, 0.4):
            grid = np.arange(eps, 1.0 - eps + 1e-12, 1e-3)
            ent = np.array([psi(p) + psi(1 - p) for p in grid])
            assert hmin_and_converse(1, eps, 0.0).hmin == pytest.approx(
                float(ent.min()), abs=1e-6
            )

    def test_limit_to_full_dimension(self):
        for d in (1, 2):
            prev = 0.0
            for j in range(1, 12):
                eta = 2.0**-j
                eps = 2.0**-d * (1 - 2.0**-j)
                val = hmin_and_converse(d, eps, eta).lower_bound
                assert val >= prev - 1e-12
                prev = val
            assert d - prev < 1e-3

    def test_range_checks(self):
        with pytest.raises(ValueError):
            hmin_and_converse(1, 0.6, 0.5)
        with pytest.raises(ValueError):
            hmin_and_converse(1, 0.1, 1.5)
