import math

import pytest

from porodim.bounds import k_of_alpha
from porodim.dimension import sampled_trajectory
from porodim.dyadic import CubeAddress, root
from porodim.measure import (
    _PATH_STREAM,
    Bernoulli,
    CascadeDirichlet,
    CantorMiddleHalf,
    CascadeFiniteMixture,
    Homothety,
    TreeMeasure,
    Uniform,
    UnrealizedNodeError,
    apply_homothety,
    derived_rng,
)
from porodim.porosity import (
    LineageClassifier,
    classify_porous,
    por2_depth,
    por2_profile,
    porous_fraction_trajectory,
    porous_retree,
    porous_walk,
    run_translation_trials,
    sample_porous_path,
    translation_report,
)

from conftest import make_measure


class TestClassify:
    def test_uniform_never_porous_below_threshold(self, uniform2):
        for k in (1, 2):
            eps = 2.0 ** (-k * 2) * 0.999
            assert classify_porous(uniform2, root(2), k, eps) is None

    def test_uniform_porous_at_equality(self, uniform2):
        # every depth-k ratio is exactly 2^-kd: the equality case counts,
        # at every node
        nodes = [root(2), CubeAddress(1, (1, 0)), CubeAddress(3, (5, 2))]
        for k in (1, 2):
            eps = 2.0 ** (-k * 2)
            for q in nodes:
                hole = classify_porous(uniform2, q, k, eps)
                assert hole is not None
                assert porous_retree(uniform2, k, eps).offspring(q)[1][-1] == eps
                # lexicographic tie-break picks the lowest corner
                assert hole == CubeAddress(q.level + k, tuple(c << k for c in q.coords))

    def test_point_mass_zero_hole(self, point_mass):
        hole = classify_porous(point_mass, root(1), 1, 0.0)
        assert hole is not None
        assert porous_retree(point_mass, 1, 0.0).offspring(root(1))[1][-1] == 0.0
        assert hole == CubeAddress(1, (1,))

    def test_bernoulli_hole_weight(self):
        mu = make_measure(1, Bernoulli((0.1, 0.9)))
        hole = classify_porous(mu, root(1), 2, 0.05)
        assert hole is not None
        assert hole == CubeAddress(2, (0,))
        hole_weight = porous_retree(mu, 2, 0.05).offspring(root(1))[1][-1]
        assert hole_weight == pytest.approx(0.01, abs=1e-15)

    def test_requires_dyadic_tree(self, bern_quarter):
        # every probe of a re-tree fails in the one check, with one message
        view = porous_retree(bern_quarter, 1, 0.3)
        probes = [
            lambda: classify_porous(view, root(1), 1, 0.3),
            lambda: apply_homothety(view, Homothety(0.25, (0.0,)), 8),
            lambda: run_translation_trials(view, 0.25, 0.25, 0.0, 8, 0, range(1)),
        ]
        messages = set()
        for probe in probes:
            with pytest.raises(TypeError, match="dyadic") as exc:
                probe()
            messages.add(str(exc.value))
        assert len(messages) == 1

    def test_inadmissible_eps_raises(self, uniform1):
        # above 2^-kd every node is porous: the test says nothing there
        with pytest.raises(ValueError, match=r"eps must lie in \[0, 2\^-kd\]"):
            classify_porous(uniform1, root(1), 2, 0.9)


class TestPor2:
    def test_point_mass_always_one(self, point_mass):
        path = point_mass.sample_path(1, steps=10)
        for n in range(5):
            assert por2_depth(point_mass, path[n], 0.0) == 1

    def test_uniform_capped_sentinel(self, uniform1):
        path = uniform1.sample_path(2, steps=10)
        eps = 2.0**-9  # below 2^-(d*cap) = 2^-8
        assert por2_depth(uniform1, path[0], eps) == math.inf

    def test_bernoulli_depth_two(self):
        mu = make_measure(1, Bernoulli((0.1, 0.9)))
        path = mu.sample_path(3, steps=10)
        assert por2_depth(mu, path[0], 0.05) == 2  # 0.1 > 0.05 but 0.01 <= 0.05

    def test_monotone_in_eps(self):
        mu = make_measure(2, CascadeDirichlet((0.6,) * 4), seed=5)
        path = mu.sample_path(4, steps=12)
        grid = [0.0, 1e-4, 1e-3, 0.01, 0.05, 0.2]
        for n in range(6):
            vals = [por2_depth(mu, path[n], e) for e in grid]
            assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestFractionTrajectory:
    def test_uniform_fraction_zero(self, uniform1):
        path = uniform1.sample_path(5, steps=20)
        # d=1: every depth-1 ratio is exactly 1/2
        flags = porous_fraction_trajectory(uniform1, path[14], 1, 0.5)
        assert flags == (True,) * 15
        flags = porous_fraction_trajectory(uniform1, path[14], 1, 0.3)
        assert flags == (False,) * 15

    def test_bernoulli_every_scale_porous(self, bern_quarter):
        path = bern_quarter.sample_path(6, steps=25)
        flags = porous_fraction_trajectory(bern_quarter, path[19], 1, 0.3)
        assert flags == (True,) * 20

    def test_point_mass_fraction_one(self, point_mass):
        path = point_mass.sample_path(7, steps=20)
        flags = porous_fraction_trajectory(point_mass, path[14], 1, 0.0)
        assert len(flags) == 15
        assert sum(flags) / len(flags) == 1.0

    def test_por2_profile_matches_flags(self):
        mu = make_measure(2, CascadeDirichlet((0.4,) * 4), seed=9, depth=20)
        path = mu.sample_path(10, steps=16)
        flags = porous_fraction_trajectory(mu, path[9], 2, 0.01)
        profile = por2_profile(mu, path[9], 0.01)
        assert len(profile) == 10
        assert flags == tuple(p <= 2 for p in profile)

    def test_one_flag_per_level_down_to_the_cube(self, bern_quarter):
        # a cube at level n flags levels 0..n, the root its own level only
        path = bern_quarter.sample_path(6, steps=12)
        assert len(porous_fraction_trajectory(bern_quarter, path[9], 2, 0.05)) == 10
        assert len(porous_fraction_trajectory(bern_quarter, path[0], 2, 0.05)) == 1


def _brute_porous(mu, q, k, eps):
    """Porous test from products of dyadic conditionals, node by node."""
    ratios = {q: 1.0}
    for _ in range(k):
        deeper = {}
        for node, ratio in ratios.items():
            part, w = mu.offspring(node)
            for child, wj in zip(part.children, w):
                deeper[child] = ratio * wj
        ratios = deeper
    return min(ratios.values()) <= eps


_MIXTURE = CascadeFiniteMixture(((0.5, 0.5), (0.1, 0.9)), (0.5, 0.5))
_DIRICHLET = CascadeDirichlet((2.0,) * 4)


class TestLineageClassifier:
    # eps per k chosen so that a path has both porous and non-porous levels
    @pytest.mark.parametrize(
        "d, model, eps_of_k",
        [
            (1, _MIXTURE, {1: 0.1, 2: 0.0125, 3: 0.00625}),
            (2, _DIRICHLET, {1: 0.05, 2: 0.0125, 3: 0.00078}),
        ],
    )
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_walk_flags_match_reference(self, d, model, eps_of_k, k):
        eps, steps = eps_of_k[k], 30
        mu = make_measure(d, model, depth=steps * k + k, seed=106)
        walk, flags = sample_porous_path(
            mu, k, eps, derived_rng(106, _PATH_STREAM, 0), steps
        )
        assert len(walk) == steps
        last = walk[-1][1].children[walk[-1][3]]
        assert len(flags) == last.level
        assert 0 < sum(flags) < len(flags)
        for n, flag in enumerate(flags):
            q = last.ancestor(n)
            assert flag == (por2_depth(mu, q, eps, cap=k) <= k)
            assert flag == (classify_porous(mu, q, k, eps) is not None)
            assert flag == _brute_porous(mu, q, k, eps)
        for node, part, _, idx in walk:
            assert (part.hole is not None) == flags[node.level]
            jump = part.children[idx].level - node.level
            assert jump == 1 or part.hole is not None
        # translate's pass gives the same flags on the same lineage
        got = porous_fraction_trajectory(mu, last.ancestor(last.level - 1), k, eps)
        assert got == tuple(flags)

    def test_fraction_trajectory_realizes_each_node_once(self, monkeypatch):
        import porodim.measure

        calls = {}
        real = porodim.measure.node_weights

        def counting(spec, q):
            calls[q] = calls.get(q, 0) + 1
            return real(spec, q)

        mu = make_measure(2, _DIRICHLET, seed=9, depth=40)
        path = mu.sample_path(10, steps=40)
        monkeypatch.setattr(porodim.measure, "node_weights", counting)
        got = porous_fraction_trajectory(mu, path[29], 2, 0.0125)
        assert calls and set(calls.values()) == {1}
        monkeypatch.undo()
        flags = tuple(por2_depth(mu, path[n], 0.0125, cap=2) <= 2 for n in range(30))
        assert got == flags
        assert 0 < sum(got) < len(got)
        # the re-tree walk toward the same cube takes porous jumps: a lineage
        # whose levels are not all one step apart
        walk = porous_walk(porous_retree(mu, 2, 0.0125), path[32], 2)
        assert any(part.children[idx].level - node.level == 2
                   for node, part, _, idx in walk)

    def test_retree_walk_memory_is_bounded(self, monkeypatch):
        # each classification forgets the nodes above its cube, so a walk of
        # the re-tree view holds at most one depth-k frontier's worth of nodes
        # however deep it goes
        k, eps, steps = 2, 0.0125, 2000
        mu = make_measure(1, _MIXTURE, depth=k * steps + k, seed=101)
        clf = LineageClassifier(mu)
        sizes = []
        real = LineageClassifier.weights

        def recording(self, q):
            w = real(self, q)
            sizes.append(len(self._weights))
            return w

        monkeypatch.setattr(LineageClassifier, "weights", recording)
        traj = sampled_trajectory(clf.retree(k, eps), steps, 7)
        assert traj.steps == steps
        assert 0 < traj.porous.sum() < steps
        assert max(sizes) <= 1 << k  # a depth-k frontier's 2^(kd) entries, d = 1


class TestRetree:
    def test_weights_sum_to_one(self):
        mu = make_measure(1, Bernoulli((0.1, 0.9)))
        view = porous_retree(mu, 2, 0.05)
        part, w = view.offspring(root(1))
        assert part.hole is not None
        assert len(part.children) == 3
        assert math.fsum(w) == pytest.approx(1.0, abs=1e-12)
        # children: right (0.9), left-right (0.09), hole left-left (0.01)
        assert sorted(w) == pytest.approx([0.01, 0.09, 0.9], abs=1e-15)

    def test_frontier_cap(self):
        # k*d = 18: the depth-k classifier frontier would hold 2^18 nodes
        with pytest.raises(ValueError, match="exceeds 16"):
            porous_retree(make_measure(2, Uniform()), 9, 0.0)

    def test_regularity(self):
        mu = make_measure(2, CascadeDirichlet((0.3,) * 4), seed=2)
        view = porous_retree(mu, 2, 0.02)
        part, _ = view.offspring(root(2))
        assert max(c.level for c in part.children) <= 2  # 2^-2-regular

    def test_non_node_mass_unreachable(self):
        mu = make_measure(1, Bernoulli((0.1, 0.9)))
        view = porous_retree(mu, 2, 0.05)
        # the intermediate left child at level 1 is not a node of the re-tree
        with pytest.raises(UnrealizedNodeError):
            view.log_mass(CubeAddress(1, (0,)))

    def test_uniform_view_is_dyadic(self, uniform1):
        view = porous_retree(uniform1, 1, 0.1)
        part, w = view.offspring(root(1))
        assert part.hole is None
        assert w == (0.5, 0.5)

    def test_weights_match_dyadic_products(self):
        # independent oracle: every re-tree weight must equal the product of
        # the dyadic conditionals along the node -> child chain
        from porodim.dyadic import validate_partition

        mu = make_measure(2, CascadeDirichlet((0.4,) * 4), depth=20, seed=17)
        view = porous_retree(mu, 2, 0.02)
        path = view.sample_path(3, steps=6)
        for node, nxt in zip(path, path[1:]):
            part, w = view.offspring(node)
            validate_partition(part)
            assert math.fsum(w) == pytest.approx(1.0, abs=1e-12)
            for child, wi in zip(part.children, w):
                prod = 1.0
                for lvl in range(node.level, child.level):
                    par = child.ancestor(lvl)
                    step = child.ancestor(lvl + 1)
                    dpart, dw = mu.offspring(par)
                    prod *= dw[dpart.children.index(step)]
                assert wi == pytest.approx(prod, abs=1e-14)


class TestTranslation:
    def test_hole_depth_formula(self):
        assert k_of_alpha(1, 0.25, 0.25) == 4
        assert k_of_alpha(2, 0.25, 0.25) == math.ceil(math.log2(16 * math.sqrt(2)))

    def test_point_mass_all_scales(self):
        pt = make_measure(1, Bernoulli((1.0, 0.0)), depth=20)
        trials = run_translation_trials(pt, 0.25, 0.25, 0.0, 12, 4, range(8))
        rep = translation_report(trials, 1, 0.25)
        assert rep.min_fraction == 1.0

    def test_uniform_fraction_vanishes_asymptotically(self):
        # only the O(1) shallow scales where the shrunken support leaves
        # empty cubes are flagged, so the fraction decays like 1/depth
        uni = make_measure(1, Uniform(), depth=45)
        trials = run_translation_trials(uni, 0.25, 0.25, 0.0, 40, 4, range(6))
        rep = translation_report(trials, 1, 0.25)
        assert rep.mean_fraction <= 0.25

    def test_cantor_threshold(self, cantor):
        trials = run_translation_trials(cantor, 0.25, 0.25, 0.0, 12, 21, range(25))
        rep = translation_report(trials, 1, 0.25, eta_target=1.0)
        assert rep.threshold == pytest.approx(0.5)
        assert rep.passed
        assert rep.mean_fraction >= 0.4
        assert rep.min_fraction >= 0.25

    def test_determinism(self, cantor):
        def run():
            trials = run_translation_trials(cantor, 0.25, 0.25, 0.0, 12, 33, range(6))
            return translation_report(trials, 1, 0.25)

        assert run() == run()

    @pytest.mark.parametrize("d, model, depth, alpha, eps", [
        (1, CantorMiddleHalf(), 12, 0.25, 0.0),
        (2, Bernoulli((0.1, 0.4, 0.4, 0.1)), 6, 0.5, 0.002),
    ])
    def test_trial_realizes_each_source_node_once(self, monkeypatch, d, model, depth,
                                                  alpha, eps):
        import porodim.measure
        import porodim.porosity

        k = k_of_alpha(d, alpha, 0.25)
        mu = make_measure(d, model, depth=depth + k)
        calls = []
        real = porodim.measure.node_weights

        def counting(spec, q):
            calls.append((spec.seed, q.level, q.coords))
            return real(spec, q)

        monkeypatch.setattr(porodim.measure, "node_weights", counting)
        retree_work = []

        def recording(owner, name):
            real = getattr(owner, name)

            def wrapper(*args):
                retree_work.append(name)
                return real(*args)

            monkeypatch.setattr(owner, name, wrapper)

        recording(porodim.porosity, "porous_split")
        recording(porodim.porosity.LineageClassifier, "retree")
        run_translation_trials(mu, 0.25, alpha, eps, depth, 5, range(1))
        assert calls and len(set(calls)) == len(calls)
        # a trial's flags come from por2: it builds no porous re-tree
        assert retree_work == []

    def test_trial_walks_to_the_last_level_it_flags(self, monkeypatch):
        # a trial flags levels 0..depth - 1, so it walks depth - 1 steps; the
        # walk draws its steps' uniforms in one call, so a shorter walk takes
        # the same lineage prefix and the fractions do not move.  Bernoulli
        # (1/4, 3/4) at alpha 1/2 (k = 3) and eps 0.02: fractions vary
        depth, k = 12, k_of_alpha(1, 0.5, 0.25)
        mu = make_measure(1, Bernoulli((0.25, 0.75)), depth=depth + k)
        steps = []
        real = TreeMeasure.walk

        def counting(self, seed, n):
            steps.append(n)
            return real(self, seed, n)

        monkeypatch.setattr(TreeMeasure, "walk", counting)
        trials = run_translation_trials(mu, 0.25, 0.5, 0.02, depth, 0, range(3))
        assert steps == [depth - 1] * 3
        assert [tr.fraction for tr in trials] == [7 / 12, 10 / 12, 9 / 12]

    @pytest.mark.parametrize("d, model, seed, alpha, depth, trials, realized", [
        (1, CantorMiddleHalf(), 2024, 0.25, 12, 20, 339),
        (2, CascadeDirichlet((0.5,) * 4), 3, 0.5, 8, 2, 540),
    ])
    def test_one_descent_per_pushforward_node(self, monkeypatch, d, model, seed,
                                              alpha, depth, trials, realized):
        # a pushforward node's box and its 2^d halves come from one box-mass
        # descent, which realizes as many source nodes (``realized``) as one
        # descent per box did
        import porodim.measure as measure
        import porodim.porosity as porosity

        calls = {"node_weights": 0, "_box_mass": 0}
        pushforwards = []
        push = porosity.apply_homothety

        def counting(name):
            real = getattr(measure, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        def capturing(*args):
            pushforwards.append(push(*args))
            return pushforwards[-1]

        for name in calls:
            monkeypatch.setattr(measure, name, counting(name))
        monkeypatch.setattr(porosity, "apply_homothety", capturing)
        mu = make_measure(d, model, depth=depth + k_of_alpha(d, alpha, 0.25), seed=seed)
        run_translation_trials(mu, 0.25, alpha, 0.0, depth, seed, range(trials))
        # each node's weights are computed once, in apply_homothety's memo
        nodes = sum(nu._weights.cache_info().misses for nu in pushforwards)
        assert calls["_box_mass"] == nodes
        assert calls["node_weights"] == realized

    def test_depth_guard(self, cantor):
        with pytest.raises(ValueError, match="too small"):
            run_translation_trials(cantor, 0.25, 0.25, 0.0, 3, 1, range(2))
