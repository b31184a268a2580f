"""Properties that the porosity classifier and the CLI's worker pools rely
on: the classifier agrees with a node-by-node reference, classification is
monotone in eps, translate's porous-scale flags equal a re-tree walk's on the
pushforwards a trial builds, and the per-task functions behind ``--jobs``
give the same rows whatever split of the tasks a pool runs."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from porodim.cli import _simulate_one_path, _translate_chunk
from porodim.dyadic import CubeAddress, _descendant, porous_split, subdivide_uniform
from porodim.measure import (
    _PATH_STREAM,
    Bernoulli,
    CantorMiddleHalf,
    GeneratorSpec,
    Homothety,
    Uniform,
    UnrealizedNodeError,
    apply_homothety,
    derived_rng,
)
from porodim.porosity import (
    LineageClassifier,
    _classify_full,
    porous_fraction_trajectory,
    porous_retree,
    sample_porous_path,
)

from conftest import SPECS, make_measure
from references import frontiers

#: thresholds on both sides of the typical conditional masses, with ties
eps_lists = st.lists(
    st.sampled_from([0.0, 0.01, 0.05, 0.1, 0.25]) | st.floats(0.0, 0.5),
    min_size=2, max_size=4,
).map(sorted)


#: SPECS plus the tie and zero-mass cases: every conditional mass ties under
#: Uniform at d = 2, a Bernoulli with a zero weight and the Cantor measure
#: leave zero-mass subtrees that expand without being realized
REFERENCE_SPECS = [
    *SPECS,
    (2, Uniform(), 0),
    (2, Bernoulli((0.0, 0.5, 0.25, 0.25)), 0),
    (1, Bernoulli((0.0, 1.0)), 0),
    (1, CantorMiddleHalf(), 0),
]


def _reference_hole(frontier):
    """Least conditional mass, ties broken by lexicographic coords."""
    return min(frontier.items(), key=lambda item: (item[1], item[0].coords))


# 300 examples over 10 measures at d <= 2 and k = 1..3, so k*d <= 6: about 10 per
# (measure, k) pair, each checking every frontier entry
@settings(max_examples=300, deadline=None)
@given(spec=st.sampled_from(REFERENCE_SPECS), k=st.integers(1, 3),
       level=st.integers(0, 6), data=st.data())
def test_classifier_matches_node_by_node_reference(spec, k, level, data):
    d, model, seed = spec
    mu = make_measure(d, model, depth=level + k, seed=seed)
    coords = tuple(data.draw(st.integers(0, (1 << level) - 1)) for _ in range(d))
    q = CubeAddress(level, coords)
    reference = frontiers(mu, q, k)
    hole, least = _reference_hole(reference[-1])
    top = 2.0 ** -(k * d)
    eps = data.draw(st.sampled_from([0.0, min(least, top), top]) | st.floats(0.0, top))

    got_index, got = _classify_full(LineageClassifier(mu), q, k, eps)
    got_hole = None if got_index is None else _descendant(q, k, got_index)
    # every frontier entry, bit for bit, in digit order
    assert got == [list(ref.values()) for ref in reference]
    assert min(got[-1]) == least
    assert got_hole == (hole if least <= eps else None)
    por2 = next((j for j, ref in enumerate(reference, 1) if min(ref.values()) <= eps),
                math.inf)
    assert LineageClassifier(mu).por2(q, eps, k) == por2
    part, weights = porous_retree(mu, k, eps).offspring(q)
    if got_hole is None:
        assert part == subdivide_uniform(q) and weights == mu.offspring(q)[1]
    else:
        assert part == porous_split(q, hole, k)
        assert weights == tuple(reference[c.level - level - 1][c] for c in part.children)


@settings(max_examples=25, deadline=None)
@given(spec=st.sampled_from(SPECS), seed=st.integers(0, 2**32 - 1),
       steps=st.integers(0, 5), cap=st.integers(1, 3), eps=eps_lists)
def test_classification_monotone_in_eps(spec, seed, steps, cap, eps):
    d, model, spec_seed = spec
    mu = make_measure(d, model, depth=12, seed=spec_seed)
    clf = LineageClassifier(mu)
    for q in mu.sample_path(seed, steps):
        por2 = [clf.por2(q, e, cap) for e in eps]
        assert por2 == sorted(por2, reverse=True)
        for k in range(1, cap + 1):
            porous = [_classify_full(clf, q, k, e)[0] is not None for e in eps]
            assert porous == sorted(porous)  # False ... False, True ... True
            assert porous == [clf.por2(q, e, k) <= k for e in eps]


# about 10 examples per measure, each one pushforward as a translation trial
# builds it: ratio r/2 with r = 1/4, t on the 2^-depth grid in [0, 1/2)^d
@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from(SPECS), k=st.integers(1, 3), extra=st.integers(0, 2),
       share=st.sampled_from([0.0, 0.1, 0.5, 1.0]), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_fraction_trajectory_matches_walk_on_pushforwards(spec, k, extra, share, seed,
                                                          data):
    d, model, spec_seed = spec
    depth = k * k + extra  # so a walk of depth // k + 1 steps ends below level k
    draws = [data.draw(st.integers(0, (1 << (depth - 1)) - 1)) for _ in range(d)]
    _check_walk_flags(d, model, spec_seed, k, depth, share, seed, draws)


def _check_walk_flags(d, model, spec_seed, k, depth, share, seed, draws, reach=None):
    """Build the pushforward of one translation trial, both trees to level
    ``reach``, walk its porous re-tree depth // k + 1 steps and compare the
    walk's flags with porous_fraction_trajectory one level above the cube
    the walk ends in.  The last step starts at level depth or above it and
    may jump k levels; the por2 probe at a level inside that jump reads k
    levels further, so the walk reads at most depth + 2k - 1, the default
    reach."""
    reach = depth + 2 * k - 1 if reach is None else reach
    mu = make_measure(d, model, depth=reach, seed=spec_seed)
    t = tuple(i * 2.0 ** -depth for i in draws)
    nu = apply_homothety(mu, Homothety(0.125, t), reach)
    eps = share * 2.0 ** -(k * d)
    steps = depth // k + 1
    _, flags = sample_porous_path(nu, k, eps, derived_rng(seed, _PATH_STREAM, 0), steps)
    # the lineage from the same walk of the same view
    *_, (_, part, _, idx) = porous_retree(nu, k, eps).walk(
        derived_rng(seed, _PATH_STREAM, 0), steps)
    x = part.children[idx]
    assert porous_fraction_trajectory(nu, x.ancestor(x.level - 1), k, eps) == tuple(flags)


def test_walk_flags_read_past_depth_plus_k():
    # k = 2, depth 4: a walk through levels 0, 2 and 4 whose last jump goes
    # to level 6, so the por2 probe at level 5 reads level 7, past depth + k
    d, model, spec_seed = SPECS[3]
    args = (d, model, spec_seed, 2, 4, 0.5, 3190860, (0, 1))
    _check_walk_flags(*args)
    with pytest.raises(UnrealizedNodeError):
        _check_walk_flags(*args, reach=6)


@settings(max_examples=10, deadline=None)
@given(trials=st.integers(1, 5), data=st.data())
def test_translation_trials_split_matches_serial(trials, data):
    spec = GeneratorSpec(1, CantorMiddleHalf(), 0)
    serial = _translate_chunk(spec, 0.25, 0.25, 0.0, 8, 4, range(trials))
    cuts = sorted(data.draw(st.lists(st.integers(0, trials), max_size=3)))
    bounds = [0, *cuts, trials]
    split = [tr for lo, hi in zip(bounds, bounds[1:])
             for tr in _translate_chunk(spec, 0.25, 0.25, 0.0, 8, 4, range(lo, hi))]
    assert split == serial
    assert [tr.trial for tr in serial] == list(range(trials))


MIXTURE = GeneratorSpec(*SPECS[2])  # the d = 1 mixture of (0.5, 0.5) and (0.1, 0.9)


def _path(index):
    """Row and trajectory rows of one simulate path; eps 0.2 makes only the
    (0.1, 0.9) nodes porous, so both kinds of step occur."""
    row, traj = _simulate_one_path(MIXTURE, 1, 0.2, 20, 7, index)
    return row, list(traj.csv_rows())


@pytest.fixture(scope="module")
def simulate_rows():
    """Serial rows of three paths, in index order."""
    return [_path(i) for i in range(3)]


@settings(max_examples=6, deadline=None)
@given(order=st.permutations(range(3)))
def test_simulate_rows_depend_on_index_only(simulate_rows, order):
    assert 0 < simulate_rows[0][0][6] < 20  # porous steps
    for i in order:
        assert _path(i) == simulate_rows[i]
