import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from porodim.dyadic import CubeAddress, root, subdivide_uniform
from porodim.measure import (
    MAX_DIM,
    Bernoulli,
    CantorMiddleHalf,
    CascadeDirichlet,
    CascadeFiniteMixture,
    GeneratorSpec,
    Homothety,
    TreeMeasure,
    Uniform,
    UnrealizedNodeError,
    _NODE_STREAM,
    _PATH_STREAM,
    _TRIAL_STREAM,
    _node_generator,
    _philox_key,
    _seed_sequence,
    _u64,
    apply_homothety,
    build_tree_measure,
    derived_rng,
    node_rng,
    node_weights,
    spec_from_json,
    spec_to_json,
)

from conftest import make_measure

SCHEMA = json.loads((Path(__file__).resolve().parents[1] / "docs"
                     / "generator-config.schema.json").read_text())


class TestBuildAndMass:
    def test_uniform_masses(self, uniform2):
        for j in range(3):
            assert uniform2.offspring(CubeAddress(2, (j, j)))[1] == (0.25,) * 4
        assert uniform2.log_mass(CubeAddress(3, (5, 2))) == pytest.approx(
            math.log(4.0**-3), abs=1e-12)

    def test_bernoulli_direct_read(self, bern_quarter):
        assert bern_quarter.log_mass(CubeAddress(1, (1,))) == math.log(0.75)
        assert bern_quarter.log_mass(CubeAddress(2, (3,))) == pytest.approx(
            math.log(9 / 16), abs=1e-12)

    def test_root_mass_is_one(self, bern_quarter):
        assert bern_quarter.log_mass(root(1)) == 0.0

    def test_rebuild_determinism(self):
        model = CascadeFiniteMixture(((0.5, 0.5), (0.25, 0.75)), (0.5, 0.5))
        a = make_measure(1, model, depth=12, seed=7)
        b = make_measure(1, model, depth=12, seed=7)
        nodes = [CubeAddress(le, (c,)) for le in range(6) for c in range(1 << le)]
        assert [a.offspring(q)[1] for q in nodes] == [
            b.offspring(q)[1] for q in nodes
        ]

    def test_distinct_seeds_differ(self):
        model = CascadeDirichlet((1.0, 1.0))
        a = make_measure(1, model, seed=1)
        b = make_measure(1, model, seed=2)
        assert a.offspring(root(1))[1] != b.offspring(root(1))[1]

    def test_node_draws_are_independent_of_visit_order(self):
        model = CascadeDirichlet((0.5, 0.5, 0.5, 0.5))
        mu = make_measure(2, model, seed=11)
        q = CubeAddress(3, (1, 6))
        first = mu.offspring(q)[1]
        # probing a bunch of other nodes must not disturb q's draw
        for le in range(3):
            for c in range(1 << le):
                mu.offspring(CubeAddress(le, (c, c)))
        assert mu.offspring(q)[1] == first

    def test_conservation(self):
        mu = make_measure(2, CascadeDirichlet((0.7, 0.7, 0.7, 0.7)), seed=3)
        for q in [root(2), CubeAddress(1, (0, 1)), CubeAddress(2, (3, 2))]:
            part, w = mu.offspring(q)
            m = math.exp(mu.log_mass(q))
            children_total = math.fsum(math.exp(mu.log_mass(c)) for c in part.children)
            assert abs(children_total - m) < 1e-10

    def test_depth_guard(self):
        with pytest.raises(ValueError, match="configured maximum"):
            build_tree_measure(GeneratorSpec(1, Uniform()), "uniform", 100)
        mu = build_tree_measure(GeneratorSpec(1, Uniform()), "uniform", 100, max_level=100)
        deep = CubeAddress(100, (0,))
        with pytest.raises(UnrealizedNodeError):
            mu.offspring(deep)

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            Bernoulli((0.5, 0.6))
        with pytest.raises(ValueError):
            GeneratorSpec(2, Bernoulli((0.5, 0.5)))
        with pytest.raises(ValueError):
            CascadeDirichlet((1.0, 0.0))
        with pytest.raises(ValueError):
            GeneratorSpec(2, CantorMiddleHalf())

    def test_log_mass_deep(self):
        mu = make_measure(1, Bernoulli((0.25, 0.75)), depth=200)
        walk = list(mu.walk(5, steps=100))
        _, part, _, idx = walk[-1]
        assert mu.log_mass(part.children[idx]) == pytest.approx(
            math.fsum(math.log(w[i]) for _, _, w, i in walk))

    def test_deep_mass_is_the_exact_product(self):
        # the log of 2^-1000, and of 2^-1200, which as a float underflows to 0.0
        mu = make_measure(1, Bernoulli((0.25, 0.75)), depth=700)
        assert mu.log_mass(CubeAddress(500, (0,))) == pytest.approx(math.log(2.0**-1000))
        assert mu.log_mass(CubeAddress(600, (0,))) == pytest.approx(-1200 * math.log(2))


#: Levels where a coordinate's uint32 word count changes, drawn on purpose
_WORD_EDGES = st.one_of(
    st.integers(0, 5000),
    st.sampled_from([31, 32, 33, 63, 64, 65]),
    st.integers(0, 5000 // 32).map(lambda j: 32 * j),
)


@settings(max_examples=150, deadline=None)
@given(
    level=_WORD_EDGES,
    d=st.integers(1, 3),
    seed=st.one_of(st.sampled_from([-1, 0, 2**64 - 1]), st.integers(-2**70, 2**70)),
    data=st.data(),
)
def test_node_rng_matches_numpy_keying(level, d, seed, data):
    # node_rng builds SeedSequence's words itself; numpy's own conversion of
    # the entropy tuple is the reference, draw for draw
    top = (1 << level) - 1
    coords = tuple(
        data.draw(st.one_of(st.sampled_from([0, top]), st.integers(0, top)))
        for _ in range(d)
    )
    q = CubeAddress(level, coords)
    entropy = (_u64(seed), _NODE_STREAM, level, *coords)

    def reference():
        return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))

    conc = tuple(data.draw(st.floats(0.1, 3.0)) for _ in range(1 << d))
    got, want = node_rng(seed, q), reference()
    assert got.random(4).tobytes() == want.random(4).tobytes()
    assert got.dirichlet(conc).tobytes() == want.dirichlet(conc).tobytes()
    spec = GeneratorSpec(d, CascadeDirichlet(conc), seed)
    assert node_weights(spec, q) == tuple(float(x) for x in reference().dirichlet(conc))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.one_of(st.sampled_from([-1, 0, 2**64, 2**64 + 5]), st.integers(-2**70, 2**70)),
    stream=st.sampled_from([_NODE_STREAM, _PATH_STREAM, _TRIAL_STREAM]),
    index=st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64, 2**70]),
                    st.integers(0, 2**70)),
)
def test_derived_rng_matches_numpy_keying(seed, stream, index):
    # derived_rng and node_rng share one word builder; numpy's own conversion
    # of the (seed, stream, index) tuple is the reference
    want = np.random.Generator(np.random.Philox(
        np.random.SeedSequence((_u64(seed), stream, index))))
    assert derived_rng(seed, stream, index).random(4).tobytes() == want.random(4).tobytes()


def test_derived_rng_takes_any_integer_type():
    got = derived_rng(np.int64(-3), _PATH_STREAM, np.uint64(7)).random(4)
    assert got.tobytes() == derived_rng(-3, _PATH_STREAM, 7).random(4).tobytes()


@pytest.mark.parametrize("level", [0, 31, 32, 33, 64, 2000])  # word-count edges
@pytest.mark.parametrize("d", [1, 2, 8])
@pytest.mark.parametrize("seed", [0, 2**64 - 1, 2**64 + 12345])
def test_rekeyed_node_generator_replays_node_rng(level, d, seed):
    # node realization re-keys the process's one Philox; whatever it drew
    # before, the re-keyed stream is node_rng's, draw for draw
    top = (1 << level) - 1
    conc = np.linspace(0.3, 2.0, 1 << d)
    middle = tuple(top * (i + 1) // (d + 1) for i in range(d))
    for coords in ((0,) * d, (top,) * d, middle):
        q = CubeAddress(level, coords)
        seq = _seed_sequence(_u64(seed), _NODE_STREAM, level, *coords)
        assert _philox_key(seq.pool.tolist()) == tuple(
            seq.generate_state(2, np.uint64).tolist())
        _node_generator(seed + 1, q).random(3)  # leaves a part-used buffer
        got = _node_generator(seed, q).random(5)
        assert got.tobytes() == node_rng(seed, q).random(5).tobytes()
        _node_generator(seed, q).integers(2**32, dtype=np.uint32)  # a spare word
        got = _node_generator(seed, q).dirichlet(conc)
        assert got.tobytes() == node_rng(seed, q).dirichlet(conc).tobytes()
        got = _node_generator(seed, q).integers(2**32, size=3, dtype=np.uint32)
        want = node_rng(seed, q).integers(2**32, size=3, dtype=np.uint32)
        assert got.tobytes() == want.tobytes()


def test_node_realization_leaves_path_draws_alone():
    # a walk's draws come from its own generator: realizing other nodes
    # between its steps changes neither its path nor what it draws next
    spec = GeneratorSpec(2, CascadeDirichlet((0.5,) * 4), 106)
    mu = build_tree_measure(spec, "uniform", 40, max_level=40)
    plain = derived_rng(106, _PATH_STREAM, 0)
    path = [step[3] for step in mu.walk(plain, 30)]
    rng = derived_rng(106, _PATH_STREAM, 0)
    interleaved = []
    for n, step in enumerate(mu.walk(rng, 30)):
        node_weights(spec, CubeAddress(35, (n, 2 * n)))
        interleaved.append(step[3])
    assert interleaved == path
    node_weights(spec, CubeAddress(36, (1, 2)))
    assert rng.random(3).tobytes() == plain.random(3).tobytes()


def test_tree_measure_takes_one_node_data_source():
    # a weights function makes a dyadic tree whose partitions are uniform
    # splits; a realizer makes a partition tree no dyadic probe accepts
    def weights(q):
        return (0.25, 0.75)

    def realizer(q):
        return subdivide_uniform(q), weights(q)

    for args, kwargs in (((), {}), ((realizer,), {"weights": weights})):
        with pytest.raises(TypeError, match="exactly one of a realizer and a weights"):
            TreeMeasure(1, 5, *args, **kwargs)
    dyadic = TreeMeasure(1, 5, weights=weights)
    general = TreeMeasure(1, 5, realizer)
    q = CubeAddress(3, (5,))
    assert dyadic.offspring(q) == general.offspring(q) == realizer(q)
    assert dyadic.weights(q) == general.weights(q) == weights(q)
    assert dyadic.dyadic_splits and not general.dyadic_splits
    with pytest.raises(TypeError, match="dyadic"):
        apply_homothety(general, Homothety(0.25, (0.0,)), 4)
    with pytest.raises(UnrealizedNodeError):
        dyadic.weights(CubeAddress(5, (0,)))


class TestSamplePath:
    def test_point_mass_path_is_deterministic(self, point_mass):
        path = point_mass.sample_path(123, steps=12)
        assert [q.coords[0] for q in path] == [0] * 13

    def test_uniform_digit_frequency(self):
        mu = build_tree_measure(
            GeneratorSpec(1, Uniform()), "uniform", 10_000, max_level=10_000
        )
        path = mu.sample_path(7, steps=10_000)
        digits = [b.coords[0] & 1 for b in path[1:]]
        assert abs(sum(digits) / len(digits) - 0.5) < 0.02

    def test_bernoulli_digit_frequency(self):
        mu = build_tree_measure(
            GeneratorSpec(1, Bernoulli((0.25, 0.75))), "uniform", 10_000, max_level=10_000
        )
        path = mu.sample_path(11, steps=10_000)
        digits = [b.coords[0] & 1 for b in path[1:]]
        assert abs(sum(digits) / len(digits) - 0.75) < 0.02

    def test_path_reproducible(self, bern_quarter):
        assert bern_quarter.sample_path(9, steps=25) == bern_quarter.sample_path(
            9, steps=25
        )

    def test_all_zero_vector_rejected(self):
        from porodim.dyadic import subdivide_uniform
        from porodim.measure import TreeMeasure

        def realizer(q):
            return subdivide_uniform(q), (0.0, 0.0)

        broken = TreeMeasure(1, 5, realizer)
        with pytest.raises(ValueError, match="all-zero"):
            broken.sample_path(1, steps=2)


class TestJsonConfig:
    def test_roundtrip(self):
        spec = GeneratorSpec(
            2, CascadeFiniteMixture(((0.25,) * 4, (0.1, 0.2, 0.3, 0.4)), (0.5, 0.5)), 42
        )
        spec2, depth = spec_from_json(spec_to_json(spec))
        assert spec2 == spec
        assert depth is None
        spec3, depth = spec_from_json({**json.loads(spec_to_json(spec)), "depth": 17})
        assert spec3 == spec
        assert depth == 17

    def test_all_types_parse(self):
        for gen in (
            {"type": "uniform"},
            {"type": "bernoulli", "weights": [0.5, 0.5]},
            {"type": "dirichlet", "concentration": [1, 1]},
            {"type": "cantor_middle_half"},
            {"type": "mixture", "mixture": [{"weights": [0.5, 0.5], "prob": 1.0}]},
        ):
            spec, _ = spec_from_json(json.dumps({"d": 1, "seed": 3, "generator": gen}))
            assert spec.d == 1

    def test_malformed_config(self):
        with pytest.raises(ValueError, match="malformed"):
            spec_from_json('{"generator": {"type": "uniform"}}')
        with pytest.raises(ValueError, match="unknown generator type"):
            spec_from_json('{"d": 1, "generator": {"type": "nope"}}')

    @pytest.mark.parametrize("example", SCHEMA["examples"],
                             ids=[e["generator"]["type"] for e in SCHEMA["examples"]])
    def test_schema_examples_round_trip(self, example):
        spec, depth = spec_from_json(example)
        assert depth == example.get("depth")
        assert spec_from_json(spec_to_json(spec)) == (spec, None)

    def test_schema_dimension_range_is_the_generators(self):
        d = SCHEMA["properties"]["d"]
        assert (d["minimum"], d["maximum"]) == (1, MAX_DIM)


def test_mixture_top_draw_takes_the_last_component(monkeypatch):
    # 0.7 + 0.2 + 0.1 accumulates to 1 - 2^-53, numpy's top draw, which no
    # component's cumulative probability exceeds
    import porodim.measure

    top = SimpleNamespace(random=lambda: math.nextafter(1.0, 0.0))
    monkeypatch.setattr(porodim.measure, "_node_generator", lambda seed, q: top)
    mixture = CascadeFiniteMixture(((0.5, 0.5), (0.25, 0.75), (0.1, 0.9)), (0.7, 0.2, 0.1))
    assert node_weights(GeneratorSpec(1, mixture), root(1)) == (0.1, 0.9)


class TestHomothety:
    def test_uniform_quarter_scaling(self, uniform2):
        nu = apply_homothety(uniform2, Homothety(0.25, (0.0, 0.0)), 8)
        assert nu.log_mass(CubeAddress(2, (0, 0))) == 0.0
        # deeper structure uniform within the image
        assert nu.offspring(CubeAddress(2, (0, 0)))[1] == (0.25,) * 4
        assert nu.log_mass(CubeAddress(4, (1, 1))) == pytest.approx(
            math.log(1 / 16), abs=1e-12)

    def test_point_mass_pushforward(self):
        pt = make_measure(2, Bernoulli((1.0, 0.0, 0.0, 0.0)))
        nu = apply_homothety(pt, Homothety(0.25, (0.5, 0.5)), 10)
        assert nu.log_mass(CubeAddress(1, (1, 1))) == 0.0
        assert nu.log_mass(CubeAddress(6, (32, 32))) == 0.0

    def test_bernoulli_shift(self, bern_quarter):
        nu = apply_homothety(bern_quarter, Homothety(0.25, (0.25,)), 10)
        assert nu.log_mass(CubeAddress(2, (1,))) == 0.0
        assert nu.log_mass(CubeAddress(3, (2,))) == pytest.approx(math.log(0.25), abs=1e-12)

    def test_total_mass_preserved(self, cantor):
        nu = apply_homothety(cantor, Homothety(0.125, (0.375,)), 12)
        assert nu.log_mass(root(1)) == 0.0
        level3 = [CubeAddress(3, (c,)) for c in range(8)]
        total = math.fsum(math.exp(nu.log_mass(q)) for q in level3)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_dyadic_cubes_map_to_dyadic_cubes(self, cantor):
        # side 2^-m -> side 2^-(m+2) for r = 1/4 and grid-aligned t
        nu = apply_homothety(cantor, Homothety(0.25, (0.5,)), 12)
        for m in range(4):
            for c in range(1 << m):
                src = CubeAddress(m, (c,))
                img = CubeAddress(m + 2, ((1 << (m + 1)) + c,))
                assert nu.log_mass(img) == pytest.approx(cantor.log_mass(src), abs=1e-12)

    def test_support_leaving_cube_rejected(self, uniform1):
        with pytest.raises(ValueError, match="unit cube"):
            apply_homothety(uniform1, Homothety(0.25, (0.875,)), 8)

    def test_mass_conservation_checked(self):
        # weights summing to 3/4: a node's children then hold 3/4 of its mass
        mu = TreeMeasure(1, 12, weights=lambda q: (0.5, 0.25))
        nu = apply_homothety(mu, Homothety(0.25, (0.0,)), 8)
        with pytest.raises(ArithmeticError, match="0.75 vs 1.0"):
            nu.weights(CubeAddress(3, (0,)))

    def test_ratio_validation(self):
        with pytest.raises(ValueError, match="power of two"):
            Homothety(0.3, (0.0,))
        with pytest.raises(ValueError, match="0, 1/2"):
            Homothety(0.5, (0.0,))

    def test_zero_mass_nodes_not_expanded(self, cantor):
        nu = apply_homothety(cantor, Homothety(0.25, (0.0,)), 10)
        # 4:5 lies outside the image, so its source box clips away; 4:1 is the
        # image of the source gap cube 2:1, whose own split is (1/2, 1/2)
        for gap in (CubeAddress(4, (5,)), CubeAddress(4, (1,))):
            assert nu.log_mass(gap) == -math.inf
            with pytest.raises(UnrealizedNodeError, match="zero-mass"):
                nu.offspring(gap)

    def test_deep_walk_has_no_recursion_limit(self):
        mu = make_measure(1, Bernoulli((0.25, 0.75)), depth=700)
        nu = apply_homothety(mu, Homothety(0.125, (0.0,)), 600)
        assert len(nu.sample_path(1, steps=600)) == 601

    def test_zero_mass_check_is_linear_in_depth(self, monkeypatch):
        import porodim.measure as measure

        calls = []
        realize = measure.node_weights
        monkeypatch.setattr(
            measure, "node_weights", lambda spec, q: calls.append(q) or realize(spec, q)
        )
        mu = make_measure(1, Bernoulli((0.25, 0.75)), depth=700)
        nu = apply_homothety(mu, Homothety(0.125, (0.0,)), 600)
        nu.sample_path(1, steps=600)
        # each step's box masses and anchor check realize a few source nodes;
        # re-checking every anchor's lineage from the root would be quadratic
        assert len(calls) <= 3 * 600

    def test_deep_weights_do_not_underflow(self):
        # the source cube 557:0 has mass 2^-1114, which is 0.0 as a float
        mu = make_measure(1, Bernoulli((0.25, 0.75)), depth=700)
        nu = apply_homothety(mu, Homothety(0.125, (0.0,)), 600)
        assert nu.offspring(CubeAddress(560, (0,)))[1] == (0.25, 0.75)

    @pytest.mark.parametrize(
        "ratio, t",
        [
            (0.125, 0.3125),  # m = 3, t = 5/16
            (0.25, 0.0),
            (0.25, 0.6875),
            (0.0625, 0.40625),
            (0.0625, 0.9375),  # the image ends at 1
        ],
    )
    def test_agrees_with_exhaustive_enumeration(self, ratio, t):
        # independent oracle: the image of a level-L source cube under
        # x -> 2^-m x + t is the level-(L+m) dyadic cube shifted by t, so
        # pushforward masses are plain sums over an exhaustive enumeration
        mu = make_measure(1, CascadeDirichlet((0.7, 0.7)), depth=16, seed=13)
        h = Homothety(ratio, (t,))
        nu = apply_homothety(mu, h, 10)
        (tn,), t_grid = h.translation_grid()
        m = h.log2_ratio
        for n in (1, 2, 4, 6):
            for coord in range(1 << n):
                q = CubeAddress(n, (coord,))
                L = max(n, t_grid, m) - m
                total = math.fsum(
                    math.exp(mu.log_mass(CubeAddress(L, (c,))))
                    for c in range(1 << L)
                    if (c + (tn << (L + m - t_grid))) >> (L + m - n) == coord
                )
                assert math.exp(nu.log_mass(q)) == pytest.approx(total, abs=1e-12)

    def test_agrees_with_exhaustive_enumeration_d2(self):
        # the same oracle at d = 2: the image ends at 1 on axis 0 (t + ratio
        # = 1, t on the 2^-3 grid) and axis 1's t lies on the 2^-4 grid
        mu = make_measure(2, CascadeDirichlet((0.7,) * 4), depth=16, seed=13)
        h = Homothety(0.125, (0.875, 0.3125))
        nu = apply_homothety(mu, h, 10)
        t_num, t_grid = h.translation_grid()
        m = h.log2_ratio
        for n in (1, 2, 3, 5, 6):
            L = max(n, t_grid, m) - m
            pieces = {}
            for j in range(1 << (2 * L)):
                c = (j & ((1 << L) - 1), j >> L)
                image = tuple((ci + (tn << (L + m - t_grid))) >> (L + m - n)
                              for ci, tn in zip(c, t_num))
                pieces.setdefault(image, []).append(
                    math.exp(mu.log_mass(CubeAddress(L, c))))
            for j in range(1 << (2 * n)):
                q = CubeAddress(n, (j & ((1 << n) - 1), j >> n))
                total = math.fsum(pieces.get(q.coords, ()))
                assert math.exp(nu.log_mass(q)) == pytest.approx(total, abs=1e-12)
