"""One check per input quantity: every library entry rejects a bad (k, eps),
eta, generator weight, integer, count or index with ValueError before it
realizes a node, a generator number that is not a real number or a model
that is not a generator model with TypeError, and no CLI argv ends other
than in exit 0, 1 or 2 with one line on exit 1."""

import argparse
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from porodim.bounds import solve_s, solve_table, t_dk
from porodim.cli import build_parser, main
from porodim.dimension import estimate_packing_dim, hmin_and_converse, sampled_trajectory
from porodim.dyadic import CubeAddress, CubePartition, porous_split, root
from porodim.measure import (
    Bernoulli,
    CantorMiddleHalf,
    CascadeDirichlet,
    CascadeFiniteMixture,
    GeneratorSpec,
    Homothety,
    TreeMeasure,
    Uniform,
    UnrealizedNodeError,
    apply_homothety,
    build_tree_measure,
    spec_from_json,
    spec_to_json,
)
from porodim.oracle import (ReducedPoint, fixed_point_candidate, maximize_bruteforce,
                            reduced_objective)
from porodim.porosity import (
    TranslationTrial,
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
from references import log_mass, validate_partition

NAN, INF = math.nan, math.inf
CANTOR = make_measure(1, CantorMiddleHalf(), depth=12)
BERN = make_measure(1, Bernoulli((0.25, 0.75)))
BERN_PATH = BERN.sample_path(1, steps=16)
HALVES = tuple(CubeAddress(1, (c,)) for c in (0, 1))  # the children of [0, 1)
ONE_TRIAL = TranslationTrial(0, (0.0,), 0.0)
UNIFORM = make_measure(1, Uniform(), depth=12)


def _at(level: int) -> CubeAddress:
    return CubeAddress(level, (0,))


#: Each query the depth rule bounds, on UNIFORM (depth 12), ``past`` levels
#: past its reach: at past = 0 it reads down to level 12 exactly, since no
#: node is porous at eps = 0 and por2 finds no 0.001-hole within its cap of 8
DEPTH_RULE = {
    "offspring": lambda past: UNIFORM.offspring(_at(11 + past)),
    "weights": lambda past: UNIFORM.weights(_at(11 + past)),
    "walk": lambda past: list(UNIFORM.walk(0, 12 + past)),
    "sample_path": lambda past: UNIFORM.sample_path(0, 12 + past),
    "sampled_trajectory": lambda past: sampled_trajectory(UNIFORM, 12 + past, 0),
    "steps_to": lambda past: list(UNIFORM.steps_to(_at(12), last=11 + past)),
    "log_mass": lambda past: log_mass(UNIFORM, _at(12 + past)),
    "porous_walk": lambda past: porous_walk(
        porous_retree(UNIFORM, 1, 0.0), _at(12 + past), 1),
    # the last step classifies down to x.level, below the view's own reach
    "porous_walk k=2": lambda past: porous_walk(
        porous_retree(UNIFORM, 2, 0.0), _at(12 + past), 2),
    "classify_porous": lambda past: classify_porous(UNIFORM, _at(10 + past), 2, 0.0),
    "por2_depth": lambda past: por2_depth(UNIFORM, _at(4 + past), 0.001),
    "por2_profile": lambda past: por2_profile(UNIFORM, _at(4 + past), 0.001),
    "porous_fraction_trajectory": lambda past: porous_fraction_trajectory(
        UNIFORM, _at(11 + past), 1, 0.0),
    "sample_porous_path": lambda past: sample_porous_path(UNIFORM, 2, 0.0, 0, 11 + past),
}

#: (k, eps) pairs outside the paper's range at d = 1, where 2^-kd = 1/2 at
#: k = 1, with the message each must raise
BAD_K_EPS = [
    (0, 0.0, "k >= 1"),
    (-1, 0.0, "k >= 1"),
    (1, NAN, "eps must lie"),
    (1, -1.0, "eps must lie"),
    (1, 0.6, "eps must lie"),
    pytest.param(1.5, 0.0, "k must be an integer", id="1.5-0.0-must be integers"),
]

#: Library entries taking (k, eps) on the uniform measure ``mu`` at d = 1
#: and a cube ``x`` at its maximum level 12; por2 reads k as its cap
K_EPS_ENTRIES = {
    "porous_retree": lambda mu, x, k, eps: porous_retree(mu, k, eps),
    "sample_porous_path": lambda mu, x, k, eps: sample_porous_path(mu, k, eps, 0, 5),
    "porous_fraction_trajectory":
        lambda mu, x, k, eps: porous_fraction_trajectory(mu, x, k, eps),
    "classify_porous": lambda mu, x, k, eps: classify_porous(mu, mu.root, k, eps),
    "por2_depth": lambda mu, x, k, eps: por2_depth(mu, mu.root, eps, cap=k),
    "por2_profile": lambda mu, x, k, eps: por2_profile(mu, x.ancestor(5), eps, cap=k),
    "maximize_bruteforce": lambda mu, x, k, eps: maximize_bruteforce(1, k, eps, grid=5),
    "fixed_point_candidate": lambda mu, x, k, eps: fixed_point_candidate(1, k, eps),
    "t_dk": lambda mu, x, k, eps: t_dk(1, k, eps),
}

#: Calls with one bad eta, weight, probability, concentration, config integer,
#: count, index or depth, or a malformed address, partition, model, homothety
#: or oracle vector
OTHER_BAD_CALLS = [
    *((f"translate eps={eps}", lambda eps=eps: run_translation_trials(
        CANTOR, 0.25, 0.25, eps, 8, 0, range(1)),
       "eps must lie") for eps in (NAN, -1.0, 0.1)),  # k(1/4, 1/4) = 4 at d = 1
    *((f"hmin_and_converse eta={eta}", lambda eta=eta: hmin_and_converse(1, 0.0, eta),
       "eta must lie") for eta in (NAN, -0.1, 1.5)),
    *((f"translation_report eta={eta}", lambda eta=eta: translation_report(
        [ONE_TRIAL], 1, 0.25, eta_target=eta), "eta must lie") for eta in (NAN, -0.1, 1.5)),
    *((f"bernoulli {w}", lambda w=w: Bernoulli(w), "outside")
      for w in ((0.5, NAN), (NAN, NAN), (INF, 0.0), (1e308, 1e308))),
    ("mixture component nan", lambda: CascadeFiniteMixture(
        ((0.5, NAN), (0.5, 0.5)), (0.5, 0.5)), "outside"),
    *((f"mixture probs {p}", lambda p=p: CascadeFiniteMixture(((0.5, 0.5),), p), "outside")
      for p in ((NAN,), (INF,))),
    *((f"dirichlet {a}", lambda a=a: CascadeDirichlet(a), "positive and finite")
      for a in ((NAN, 1.0), (INF, 1.0), (1.0, -INF))),
    ("config weight 10**400", lambda: spec_from_json(
        {"d": 1, "generator": {"type": "bernoulli", "weights": [10**400, 0]}}),
     "beyond the float range"),
    ("config prob NaN", lambda: spec_from_json(
        '{"d": 1, "generator": {"type": "mixture", "mixture": '
        '[{"weights": [0.5, 0.5], "prob": NaN}]}}'), "outside"),
    *((f"config {field}", lambda field=field: spec_from_json(
        {"d": 1, "generator": {"type": "uniform"}, **field}), "malformed")
      for field in ({"d": 1.9}, {"seed": True}, {"depth": 4.7}, {"d": "1"},
                    {"seed": None})),
    ("estimate_packing_dim paths=0", lambda: estimate_packing_dim(CANTOR, 10, 0, 1),
     "at least one path"),
    ("translation_report no trials", lambda: translation_report([], 1, 0.25),
     "trials must be >= 1"),
    *((f"translate depth={depth}", lambda depth=depth: run_translation_trials(
        CANTOR, 0.25, 0.25, 0.0, depth, 0, range(1)), "depth must lie")
      for depth in (0, 51)),
    # a lineage is its deepest cube x.  The trajectory flags levels
    # 0..x.level and a por2 profile probes cap levels below x, so each needs
    # x.level + k (or + cap) <= mu.depth
    ("porous_fraction_trajectory below depth", lambda: porous_fraction_trajectory(
        CANTOR, CubeAddress(13, (0,)), 1, 0.0), "maximum level 12"),
    *((f"por2_profile level {level}", lambda level=level: por2_profile(
        CANTOR, CubeAddress(level, (0,)), 0.0), "maximum level 12") for level in (12, 13)),
    # the depth rule: each query one level past its reach, and the por2
    # queries at a cube whose probes reach past the depth before a hole
    *((f"{name} one level past its reach", lambda call=call: call(1), "maximum level 12")
      for name, call in DEPTH_RULE.items()),
    *((f"{name} at level 8", lambda por2=por2: por2(UNIFORM, _at(8), 0.001),
       "maximum level 12") for name, por2 in (("por2_depth", por2_depth),
                                              ("por2_profile", por2_profile))),
    *((f"config depth {depth}", lambda depth=depth: spec_from_json(
        {"d": 1, "depth": depth, "generator": {"type": "uniform"}}),
       f"config's depth must be >= 1, got {depth}") for depth in (0, -3)),
    ("solve_s d=2.0", lambda: solve_s(2.0, 1, 0.1), "d must be an integer"),
    *((f"GeneratorSpec d={d!r}", lambda d=d: GeneratorSpec(d, Uniform()),
       "ambient dimension must be an integer") for d in (1.5, 2.0)),
    ("GeneratorSpec seed=1.5", lambda: GeneratorSpec(1, Uniform(), seed=1.5),
     "seed must be an integer"),
    ("root d=1.5", lambda: root(1.5), "ambient dimension must be an integer"),
    *((f"CubeAddress{args!r}", lambda args=args: CubeAddress(*args), "must be an integer")
      for args in ((1.5, (0,)), ("1", (0,)), (2, (1.0,)), (2, (np.float64(1.0),)),
                   (2, (0.5, 1)), (2, None), (2, "1"))),
    *((f"CubeAddress{args!r}", lambda args=args: CubeAddress(*args), message)
      for args, message in (((-1, (0,)), "level must be >= 0"),
                            ((2, ()), "at least one component"),
                            ((2, (4,)), "outside"), ((2, (1, -1)), "outside"))),
    ("ancestor level=1.5", lambda: BERN_PATH[3].ancestor(1.5),
     "ancestor level must be an integer"),
    ("uniform_child 0.0", lambda: BERN.root.uniform_child(0.0),
     "offset index must be an integer"),
    ("TreeMeasure depth=1.5", lambda: TreeMeasure(1, 1.5, CANTOR.offspring),
     "depth must be an integer"),
    ("build_tree_measure depth=1.5", lambda: build_tree_measure(
        GeneratorSpec(1, Uniform()), "uniform", 1.5), "depth must be an integer"),
    ("estimate_packing_dim depth=1.5", lambda: estimate_packing_dim(BERN, 1.5, 1, 0),
     "walk depth must be an integer"),
    ("estimate_packing_dim paths=1.5", lambda: estimate_packing_dim(BERN, 10, 1.5, 0),
     "paths must be an integer"),
    ("walk steps=1.5", lambda: list(BERN.walk(1, 1.5)), "steps must be an integer"),
    ("sample_path steps=-1", lambda: BERN.sample_path(1, -1), "steps must be >= 0"),
    ("translate depth=1.5", lambda: run_translation_trials(
        CANTOR, 0.25, 0.25, 0.0, 1.5, 0, range(1)), "depth must be an integer"),
    *((f"translate trial {i}", lambda i=i: run_translation_trials(
        CANTOR, 0.25, 0.25, 0.0, 8, 0, [i]), message)
      for i, message in ((1.5, "index must be an integer"), (-1, "index must be >= 0"))),
    ("solve_table points=2.5", lambda: solve_table(1, 1, 2.5),
     "points must be an integer"),
    ("maximize_bruteforce grid=2.5", lambda: maximize_bruteforce(1, 2, 0.1, 2.5),
     "grid must be an integer"),
    # a bool is not an integer, as in a config
    ("GeneratorSpec d=True", lambda: GeneratorSpec(True, Uniform(), seed=False),
     "ambient dimension must be an integer, got True"),
    ("CubeAddress(True, (True,))", lambda: CubeAddress(True, (True,)),
     "level must be an integer, got True"),
    ("solve_s(True, True, 0.1)", lambda: solve_s(True, True, 0.1),
     "d must be an integer, got True"),
    ("estimate_packing_dim depth=True", lambda: estimate_packing_dim(BERN, True, 1, 0),
     "walk depth must be an integer, got True"),
    # addresses and partitions
    ("ancestor level 4 of a level-3 cube", lambda: BERN_PATH[3].ancestor(4), "outside \\[0, 3\\]"),
    ("uniform_child 2 at d=1", lambda: BERN.root.uniform_child(2), "outside \\[0, 2\\^1\\)"),
    ("porous_split k=0", lambda: porous_split(BERN.root, BERN.root, 0),
     "hole depth k must be >= 1"),
    # the test reference that checks each split the dyadic tests build
    *((f"validate_partition {name}", lambda children=children: validate_partition(
        CubePartition(BERN.root, children)), message)
      for name, children, message in (
          ("no children", (), "no children"),
          ("d mismatch", (CubeAddress(1, (0, 0)),), "dimension mismatch"),
          ("parent itself", (BERN.root,), "not a proper descendant"),
          ("overlap", (*HALVES, CubeAddress(2, (0,))), "not disjoint"),
          ("gap", HALVES[:1], "do not cover"))),
    # generator models
    ("mixture unequal components", lambda: CascadeFiniteMixture(
        ((0.5, 0.5), (0.25,) * 4), (0.5, 0.5)), "component 1 must have 2 entries"),
    ("mixture empty", lambda: CascadeFiniteMixture((), ()), "at least one component"),
    ("GeneratorSpec mixture width", lambda: GeneratorSpec(
        2, CascadeFiniteMixture(((0.5, 0.5),), (1.0,))), "must have 4 entries for d=2"),
    ("GeneratorSpec dirichlet width", lambda: GeneratorSpec(2, CascadeDirichlet((1.0, 1.0))),
     "must have 4 entries for d=2"),
    ("build_tree_measure porous rule", lambda: build_tree_measure(
        GeneratorSpec(1, Uniform()), "porous"), "builds the dyadic frame"),
    # homotheties
    ("Homothety t=1.0", lambda: Homothety(0.25, (1.0,)), "outside \\[0, 1\\)"),
    ("apply_homothety d mismatch", lambda: apply_homothety(
        CANTOR, Homothety(0.25, (0.0, 0.0)), 8), "translation dimension"),
    ("apply_homothety shallow source", lambda: apply_homothety(
        CANTOR, Homothety(0.25, (0.0,)), 20), "reads level 18, past the measure's maximum"),
    # the oracle's mass vectors and objectives
    ("ReducedPoint length", lambda: ReducedPoint(1, 2, (1.0,), 0.0), "need 2 level masses"),
    ("ReducedPoint p<0", lambda: ReducedPoint(1, 1, (1.5,), -0.5), "nonnegative"),
    ("ReducedPoint nan", lambda: ReducedPoint(1, 1, (NAN,), NAN), "nonnegative"),
    ("reduced_objective zero", lambda: reduced_objective(1, 1, (0.0,), 0.0),
     "zero Lyapunov denominator"),
]


@pytest.mark.parametrize("name", K_EPS_ENTRIES)
@pytest.mark.parametrize("k, eps, message", BAD_K_EPS)
def test_bad_k_eps_raises_before_any_node(count_realizations, name, k, eps, message):
    mu = make_measure(1, Uniform(), depth=12)
    x = mu.sample_path(1, steps=12)[-1]
    count_realizations.clear()
    with pytest.raises(ValueError, match=message):
        K_EPS_ENTRIES[name](mu, x, k, eps)
    assert count_realizations == []


@pytest.mark.parametrize("call, message", [(c, m) for _, c, m in OTHER_BAD_CALLS],
                         ids=[name for name, _, _ in OTHER_BAD_CALLS])
def test_bad_parameter_raises_before_any_node(count_realizations, call, message):
    with pytest.raises(ValueError, match=message):
        call()
    assert count_realizations == []


@pytest.mark.parametrize("model", [Bernoulli((0.25, 0.75)), CascadeDirichlet((1.0, 1.0))],
                         ids=["product", "cascade"])
def test_overlong_walk_raises_before_any_node(count_realizations, model):
    mu = make_measure(1, model, depth=50)
    count_realizations.clear()
    with pytest.raises(UnrealizedNodeError, match="60-step walk"):
        sampled_trajectory(mu, 60, 0)
    assert count_realizations == []


@pytest.mark.parametrize("name", DEPTH_RULE)
def test_depth_rule_admits_each_query_at_its_reach(name):
    DEPTH_RULE[name](0)
    with pytest.raises(UnrealizedNodeError, match="maximum level 12"):
        DEPTH_RULE[name](1)


@pytest.mark.parametrize("build", [
    lambda: Bernoulli(("0.25", "0.75")),
    lambda: Bernoulli((True, False)),
    lambda: CascadeDirichlet(("1", True)),
    lambda: CascadeFiniteMixture(((0.5, 0.5),), ("1",)),
], ids=["bernoulli strings", "bernoulli bools", "dirichlet", "mixture probs"])
def test_generator_numbers_must_be_real(build):
    with pytest.raises(TypeError, match="must be numbers"):
        build()


def test_unknown_generator_model_raises_type_error():
    with pytest.raises(TypeError, match="unknown generator model"):
        GeneratorSpec(1, "uniform")


def test_numpy_generator_numbers_build_the_same_model():
    f, i = np.float64, np.int64
    assert Bernoulli((f(0.25), f(0.75))) == Bernoulli((0.25, 0.75))
    assert Bernoulli((i(1), i(0))) == Bernoulli((1.0, 0.0))
    assert CascadeDirichlet((i(2), f(0.5))) == CascadeDirichlet((2.0, 0.5))
    mixture = CascadeFiniteMixture(((f(0.5), i(0), f(0.5), i(0)),), (i(1),))
    assert mixture == CascadeFiniteMixture(((0.5, 0.0, 0.5, 0.0),), (1.0,))
    entries = (*Bernoulli((i(1), i(0))).weights,
               *CascadeDirichlet((i(2), f(0.5))).concentration,
               *mixture.components[0], *mixture.probs)
    assert all(type(x) is float for x in entries)


def test_por2_cap_bounds_the_frontier():
    # d = 3 at the default cap 8 would build a frontier of 2^24 nodes
    mu = make_measure(3, CascadeDirichlet((1.0,) * 8), depth=12)
    with pytest.raises(ValueError, match="k\\*d = 24 exceeds 16"):
        por2_depth(mu, mu.root, 0.0)
    assert por2_depth(mu, mu.root, 0.0, cap=2) == math.inf  # no zero mass


@pytest.mark.parametrize("model, eps, depth, realized", [
    (Bernoulli((0.25, 0.75)), 0.25, 1, 1),
    (Bernoulli((0.1, 0.9)), 0.05, 2, 3),
])
def test_por2_builds_only_the_frontiers_it_reads(count_realizations, model, eps, depth,
                                                 realized):
    # por2 stops at the first hole: frontiers 1..j realize the 2^j - 1 nodes above level j
    mu = make_measure(1, model)
    count_realizations.clear()
    assert por2_depth(mu, mu.root, eps) == depth
    assert len(count_realizations) == realized


def test_porous_walk_toward_a_shallow_cube_is_empty(count_realizations):
    # nodes at levels <= x.level - k take a step: none when x.level < k
    view = porous_retree(BERN, 2, 0.1)
    count_realizations.clear()
    assert porous_walk(view, BERN_PATH[1], 2) == []
    assert count_realizations == []
    assert [node for node, *_ in porous_walk(view, BERN_PATH[2], 2)] == [BERN.root]


def test_integer_k_of_any_type_is_accepted():
    assert solve_s(1, np.int64(2), 0.1) == 0.9256054564853002


def test_numpy_int_spec_round_trips_through_json():
    spec = GeneratorSpec(np.int64(2), Bernoulli((0.1, 0.2, 0.3, 0.4)), seed=np.int64(-3))
    assert type(spec.d) is int and type(spec.seed) is int
    assert spec_from_json(spec_to_json(spec)) == (GeneratorSpec(2, spec.model, -3), None)


def test_address_constructor_stores_python_ints():
    a = CubeAddress(np.int64(2), [np.int64(1), 2])
    assert a == CubeAddress(2, (1, 2))
    assert type(a.level) is int and type(a.coords) is tuple
    assert all(type(c) is int for c in a.coords)
    assert {a: 0}[CubeAddress(2, (1, 2))] == 0  # hashable, unlike a list


def test_eta_zero_is_admissible():
    assert hmin_and_converse(2, 0.25, 0.0).lower_bound == 2.0
    report = translation_report([ONE_TRIAL], 1, 0.25, eta_target=0.0)
    assert report.threshold == 0.0 and report.passed


# ---------------------------------------------------------------------------
# CLI fuzz: argv over every flag build_parser() declares


def _subcommand_flags() -> dict[str, list[argparse.Action]]:
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: [a for a in p._actions if a.option_strings and a.dest != "help"]
            for name, p in sub.choices.items()}


FLAGS = _subcommand_flags()

#: Values outside every numeric flag's range, or no number at all
EXTREMES = ["nan", "inf", "-inf", "0", "-1", "-2000", "1e300", "1000000000",
            str(10**30), "1.5", "x"]

#: Small valid values per flag: an accepted run takes milliseconds (a
#: translate trial at d = 2 takes about a second)
VALID = {
    "--d": ["1", "2"], "--k": ["1", "2"], "--depth": ["2", "5", "9"],
    "--paths": ["1", "2"], "--trials": ["1", "2"], "--points": ["2", "5"],
    "--grid": ["2", "5"], "--seed": ["0", "7", "-3", str(2**70)],
    "--eps": ["0", "0.01", "0.25"], "--slack": ["0.05", "0", "-1", "1e300"],
    "--alpha": ["0.25", "0.5"],
    "--eta": ["0", "0.5", "1"], "--jobs": ["1"],
    "--gen": ["uniform", "bernoulli", "cantor_middle_half"],
    "--weights": ["0.25,0.75", "0.5,0.5", "0.1,0.2,0.3,0.4"],
    ("translate", "--d"): ["1"],
}

#: A small valid run of each subcommand, before the drawn flags; the later of
#: two occurrences of a flag wins
BASE = {"simulate": ["--depth", "5", "--paths", "2"], "solve": ["--points", "5"],
        "translate": ["--depth", "9", "--trials", "2"],
        "oracle": ["--d", "1", "--k", "2", "--grid", "5"]}

WEIGHT_ENTRIES = ["nan", "0.5", "0.25", "0.75", "0", "1", "inf", "-1", "1e308", "x"]

#: --config files, valid and malformed, written to the fuzz's working directory
CONFIGS = {
    "dirichlet.json": {"d": 1, "depth": 3, "generator": {"type": "dirichlet",
                                                         "concentration": [0.5, 0.5]}},
    "mixture.json": {"d": 1, "generator": {"type": "mixture", "mixture": [
        {"weights": [0.25, 0.75], "prob": 0.5}, {"weights": [0.5, 0.5], "prob": 0.5}]}},
    "float_d.json": {"d": 1.9, "seed": True, "depth": 4.7,
                     "generator": {"type": "uniform"}},
    "nan_conc.json": '{"d": 1, "generator": {"type": "dirichlet", "concentration": [NaN, 1]}}',
    "inf_conc.json": '{"d": 1, "generator": {"type": "dirichlet", '
                     '"concentration": [Infinity, 1]}}',
    "nan_prob.json": '{"d": 1, "generator": {"type": "mixture", "mixture": '
                     '[{"weights": [0.5, 0.5], "prob": NaN}]}}',
    "not_json.json": "{",
}


def _values(command: str, flag: str):
    """A flag's value: a valid one or, as likely, an extreme one."""
    if flag == "--config":
        return st.sampled_from([*CONFIGS, "missing.json"])
    if flag in ("--out", "--trajectories"):
        return st.sampled_from(["out.csv", "missing/out.csv"])
    valid = st.sampled_from(VALID.get((command, flag), VALID.get(flag)))
    if flag == "--gen":
        return valid
    if flag == "--weights":
        bad = st.lists(st.sampled_from(WEIGHT_ENTRIES), min_size=1, max_size=4).map(",".join)
    else:  # a --jobs value above 1 would start workers
        bad = st.sampled_from(
            [e for e in EXTREMES if flag != "--jobs" or not (e.isdigit() and int(e) > 1)])
    return st.one_of(valid, bad)


#: simulate's and translate's measure: one --gen, with --weights for
#: bernoulli, or one --config
SOURCE = st.one_of(
    st.tuples(st.just("--gen"), st.sampled_from(["uniform", "cantor_middle_half"])),
    st.tuples(st.just("--gen"), st.just("bernoulli"),
              st.just("--weights"), _values("", "--weights")),
    st.tuples(st.just("--config"), _values("", "--config")),
)


def _argvs(command: str):
    """A small valid run of ``command`` with each of its flags redrawn, with
    probability 1/4, from its valid values or from extreme ones."""
    source = SOURCE if command in ("simulate", "translate") else st.just(())
    flags = [
        st.one_of(st.just(()), st.just(()), st.just(()),
                  st.tuples(st.just(flag)) if action.nargs == 0 else
                  st.tuples(st.just(flag), _values(command, flag)))
        for action in FLAGS[command] for flag in action.option_strings[:1]
    ]
    return st.tuples(source, *flags).map(
        lambda parts: [command, *BASE.get(command, []), *(a for part in parts for a in part)])


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_cli_fuzz_exit_codes(tmp_path, monkeypatch, capsys, command):
    for name, content in CONFIGS.items():
        text = content if isinstance(content, str) else json.dumps(content)
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)

    @settings(max_examples=100, deadline=1000, database=None, derandomize=True)
    @given(argv=_argvs(command))
    def run(argv):
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2), argv
        if code == 1:
            assert len(err.splitlines()) == 1 and err.startswith("error:"), (argv, err)

    run()
