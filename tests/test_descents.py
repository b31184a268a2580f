"""Properties of the tree descents: the targeted lineage descent
(``TreeMeasure.steps_to``) retraces the random one (``walk``) on dyadic
measures and on their porous re-trees, re-trees conserve mass, and
pushforwards keep total mass 1."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from porodim.dyadic import CubeAddress
from porodim.measure import Homothety, apply_homothety
from porodim.porosity import porous_retree

from conftest import SPECS, make_measure

specs = st.sampled_from(SPECS)
#: (k, eps as a fraction of 2^-kd); 1.0 is the threshold itself, 0.0 the
#: exact-zero test
porosity = st.tuples(st.integers(1, 2), st.sampled_from([0.0, 0.05, 0.3, 1.0]))


def _measure(spec, depth=24):
    d, model, seed = spec
    return make_measure(d, model, depth=depth, seed=seed)


def _retree(mu, k, frac):
    return porous_retree(mu, k, frac * 2.0 ** (-k * mu.d))


def _assert_retraces_walk(mu, seed, steps):
    walk = list(mu.walk(seed, steps))
    _, part, _, idx = walk[-1]
    target = part.children[idx]
    assert list(mu.steps_to(target)) == walk


@settings(max_examples=40, deadline=None)
@given(spec=specs, seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 20))
def test_steps_to_retraces_walk(spec, seed, steps):
    _assert_retraces_walk(_measure(spec), seed, steps)


@settings(max_examples=40, deadline=None)
@given(spec=specs, por=porosity, seed=st.integers(0, 2**32 - 1),
       steps=st.integers(1, 8))
def test_steps_to_retraces_walk_on_retree(spec, por, seed, steps):
    _assert_retraces_walk(_retree(_measure(spec), *por), seed, steps)


@settings(max_examples=25, deadline=None)
@given(spec=specs, por=porosity, seed=st.integers(0, 2**32 - 1),
       steps=st.integers(1, 6))
def test_retree_conserves_mass(spec, por, seed, steps):
    base = _measure(spec)
    view = _retree(base, *por)
    for node, part, _, _ in view.walk(seed, steps):
        parent = math.exp(view.log_mass(node))
        assert parent == pytest.approx(math.exp(base.log_mass(node)), rel=1e-9)
        children = math.fsum(math.exp(view.log_mass(c)) for c in part.children)
        assert children == pytest.approx(parent, rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(spec=specs, m=st.integers(2, 4), data=st.data())
def test_pushforward_total_mass_is_one(spec, m, data):
    mu = _measure(spec)
    ratio = 2.0**-m
    # grid translations that keep the image inside the unit cube
    t = tuple(data.draw(st.integers(0, (1 << 6) - (1 << (6 - m)))) / 64.0
              for _ in range(mu.d))
    nu = apply_homothety(mu, Homothety(ratio, t), 12)
    level = 6 // mu.d
    cubes = [
        CubeAddress(level, tuple((j >> (level * i)) & ((1 << level) - 1)
                                 for i in range(mu.d)))
        for j in range(1 << (level * mu.d))
    ]
    total = math.fsum(math.exp(nu.log_mass(q)) for q in cubes)
    assert total == pytest.approx(1.0, abs=1e-12)
    path = nu.sample_path(data.draw(st.integers(0, 2**32 - 1)), steps=12)
    assert nu.log_mass(path[-1]) > -math.inf
