"""Properties that the porosity classifier and the CLI's worker pools rely
on: classification is monotone in eps, and the per-task functions behind
``--jobs`` give the same rows whatever split of the tasks a pool runs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from porodim.cli import _simulate_one_path, _translate_chunk
from porodim.measure import CantorMiddleHalf, GeneratorSpec
from porodim.porosity import LineageClassifier, _classify_full

from conftest import SPECS, make_measure

#: thresholds on both sides of the typical conditional masses, with ties
eps_lists = st.lists(
    st.sampled_from([0.0, 0.01, 0.05, 0.1, 0.25]) | st.floats(0.0, 0.5),
    min_size=2, max_size=4,
).map(sorted)


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
