"""Properties of the tree descents: the targeted lineage descent
(``TreeMeasure.steps_to``) retraces the random one (``walk``) on dyadic
measures and on their porous re-trees, re-trees conserve mass, the one
box-mass descent weighs a box and its halves as one descent per box does,
and pushforwards keep total mass 1."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from porodim.dyadic import CubeAddress
from porodim.measure import Homothety, _box_mass, apply_homothety
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


def _reference_box_mass(offspring, anchor, lo, hi, scale):
    """mu(box) / mu(anchor), one descent per box: the node pieces inside the
    box, each the product of the weights down from the anchor."""
    if any(h <= l for l, h in zip(lo, hi)):
        return 0.0
    masses = []
    stack = [(anchor, 1.0)]
    while stack:
        node, node_mass = stack.pop()
        if node_mass == 0.0:
            continue
        shift = scale - node.level
        inside = True
        for c, l, h in zip(node.coords, lo, hi):
            nlo = c << shift
            nhi = nlo + (1 << shift)
            if nhi <= l or h <= nlo:
                break  # disjoint from the box
            if not (l <= nlo and nhi <= h):
                inside = False
        else:
            if inside:
                masses.append(node_mass)
            else:
                part, w = offspring(node)
                stack.extend((ch, node_mass * wj) for ch, wj in zip(part.children, w))
    return math.fsum(masses)


@st.composite
def boxes(draw):
    """A spec, and a box of side 2^width at ``scale`` whose lower corner lies
    anywhere from one side below 0 to 2^scale, clipped to [0, 2^scale)^d as
    a pushforward clips a preimage (so it may be empty), with mid its
    unclipped centre and the anchor any cube at or above the deepest one
    containing the box."""
    spec = draw(specs)
    d = spec[0]
    scale = draw(st.integers(1, 6))
    width = draw(st.integers(1, scale))
    ulo = [draw(st.integers(-(1 << width), 1 << scale)) for _ in range(d)]
    lo = tuple(max(u, 0) for u in ulo)
    hi = tuple(min(u + (1 << width), 1 << scale) for u in ulo)
    mid = tuple(u + (1 << (width - 1)) for u in ulo)
    anchor = CubeAddress(0, (0,) * d)
    if all(l < h for l, h in zip(lo, hi)):
        deepest = scale - max((l ^ (h - 1)).bit_length() for l, h in zip(lo, hi))
        level = draw(st.integers(0, deepest))
        anchor = CubeAddress(level, tuple(l >> (scale - level) for l in lo))
    return spec, anchor, lo, hi, scale, mid


@settings(max_examples=300, deadline=None)
@given(case=boxes())
# clipped at 0 on axis 0 and at 2^scale on axis 1, so two halves are empty
@example(case=(SPECS[5], CubeAddress(0, (0, 0)), (0, 14), (3, 16), 4, (1, 16)))
# the lower half clipped away at 0, the box inside one level-1 cube
@example(case=(SPECS[4], CubeAddress(1, (0,)), (0,), (4,), 3, (0,)))
def test_one_descent_matches_per_box_descents(case):
    spec, anchor, lo, hi, scale, mid = case
    mu = _measure(spec, depth=scale)
    halves = []
    for j in range(1 << mu.d):
        bits = [(j >> i) & 1 for i in range(mu.d)]
        halves.append(_reference_box_mass(
            mu.offspring, anchor,
            tuple(max(m, l) if b else l for l, m, b in zip(lo, mid, bits)),
            tuple(h if b else min(m, h) for h, m, b in zip(hi, mid, bits)), scale))
    box, got = _box_mass(mu.offspring, anchor, lo, hi, scale, mid)
    assert box == _reference_box_mass(mu.offspring, anchor, lo, hi, scale)
    assert got == halves
