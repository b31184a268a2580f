"""Dyadic porosity detection and porous-scale statistics.

The central test: a node Q is porous at (k, eps) when some dyadic descendant
at relative depth k carries at most an eps-fraction of Q's mass.  One
LineageClassifier per lineage answers that test and the hole-depth function
por2 from the same realized nodes.  Around it this module provides the
porous/uniform re-treeing that drives dimension-drop experiments, the one
pass that flags the porous dyadic levels of a lineage, and the
random-translation experiment that transfers Euclidean porosity to the
dyadic frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterator

import numpy as np

from .bounds import _check_eps, _check_eta, k_of_alpha
from .dyadic import (
    CubeAddress,
    CubePartition,
    _children,
    _descendant,
    _index,
    _lex_order,
    porous_split,
    subdivide_uniform,
)
from .measure import (
    _PATH_STREAM,
    _TRIAL_STREAM,
    Homothety,
    TreeMeasure,
    Weights,
    _require_dyadic,
    apply_homothety,
    derived_rng,
)

#: Default search cap for por2; deeper holes are reported as the inf sentinel.
DEFAULT_POR2_CAP = 8

#: Largest k*d a re-tree accepts: the classifier's depth-k frontier holds 2^(kd) nodes.
MAX_KD = 16


def _check_porosity(d: int, k: int, eps: float) -> None:
    """bounds._check_eps (k >= 1, eps in [0, 2^-kd]) and k*d <= MAX_KD."""
    _check_eps(d, k, eps)
    if k * d > MAX_KD:
        raise ValueError(f"k*d = {k * d} exceeds {MAX_KD}: a frontier of 2^{k * d} nodes")


class LineageClassifier:
    """Porosity decisions on the nodes of a lineage of one dyadic measure.

    The classifier keeps one memo: each node's offspring vector, realized
    once; it builds no partition.  A query on q builds q's conditional-mass
    frontiers from it afresh and lazily, level by level.  Frontier j is a flat
    list of mu(R)/mu(q) over the depth-j descendants R of q in digit order:
    index i holds j base-2^d digits, the first most significant, each a
    ``subdivide_uniform`` child digit.  Entry i * 2^d + c of frontier j + 1
    is entry i of frontier j times its node's weight c, each mass formed from
    its parent's as on a descent of the tree; a zero entry expands to zeros
    without its node being realized.  The porous test at (k, eps) reads
    frontiers 1..k, por2 up to the first whose minimum is <= eps.  Holes
    persist to deeper levels, so por2 <= k exactly when q is porous at
    (k, eps).

    The hole is the depth-k descendant of least conditional mass, ties
    broken by lexicographic coords.  At d = 1 that is the first least entry;
    at d >= 2 digit order is not coords order (a digit's bit 0 is the axis-0
    offset), so a tie is resolved in ``dyadic._lex_order``.

    A query at level n forgets the nodes above level n, so memory along a
    path does not grow with depth.  Queries should go down the lineage; one
    that goes back up realizes again.
    """

    def __init__(self, mu: TreeMeasure):
        _require_dyadic(mu)
        self.mu = mu
        self._weights: dict[CubeAddress, Weights] = {}

    def weights(self, q: CubeAddress) -> Weights:
        hit = self._weights.get(q)
        if hit is None:
            hit = self._weights[q] = self.mu.weights(q)
        return hit

    def frontiers(self, q: CubeAddress) -> Iterator[list[float]]:
        """q's frontiers at levels 1, 2, ..., each built when it is read; the
        nodes above q are forgotten when the first is read."""
        for key in [key for key in self._weights if key.level < q.level]:
            del self._weights[key]
        n = 1 << len(q[1])
        zeros, nones = [0.0] * n, [None] * n
        nodes, masses = [q], [1.0]
        while True:
            frontier = []
            for node, mass in zip(nodes, masses):
                if mass == 0.0:
                    frontier += zeros
                else:
                    frontier += [mass * wj for wj in self.weights(node)]
            yield frontier
            kids = chain.from_iterable(_children(node) if node else nones for node in nodes)
            nodes = [kid if mass else None for kid, mass in zip(kids, frontier)]
            masses = frontier

    def por2(self, q: CubeAddress, eps: float, cap: int) -> float:
        """Least j <= cap whose frontier holds an eps-hole, else math.inf."""
        for j, frontier in enumerate(islice(self.frontiers(q), cap), start=1):
            if min(frontier) <= eps:
                return j
        return math.inf

    def retree(self, k: int, eps: float) -> TreeMeasure:
        """The porous re-tree view at (k, eps); see porous_retree."""
        base = self.mu
        _check_porosity(base.d, k, eps)

        def realizer(q: CubeAddress) -> tuple[CubePartition, Weights]:
            hole, frontiers = _classify_full(self, q, k, eps)
            if hole is None:
                return subdivide_uniform(q), self.weights(q)
            return porous_split(q, hole, k), _split_weights(frontiers, hole, k)

        return TreeMeasure(base.d, base.depth, realizer)


def _classify_full(
    clf: LineageClassifier, q: CubeAddress, k: int, eps: float
) -> tuple[CubeAddress | None, list[list[float]]]:
    """q's selected hole, None when q is not porous, and q's conditional-mass
    frontiers at levels 1..k."""
    frontiers = list(islice(clf.frontiers(q), k))
    last = frontiers[-1]
    least = min(last)
    if least > eps:
        return None, frontiers
    if last.count(least) == 1:
        index = last.index(least)
    else:
        index = next(i for i in _lex_order(q.d, k) if last[i] == least)
    return _descendant(q, k, index), frontiers


def _split_weights(frontiers: list[list[float]], hole: CubeAddress, k: int) -> Weights:
    """The conditional masses of ``porous_split(q, hole, k)``'s children, in
    its order, read from q's frontiers 1..k along the hole's digits."""
    d = len(hole[1])
    low = [c & ((1 << k) - 1) for c in hole[1]]
    weights: list[float] = []
    index = 0
    for shift, frontier in zip(range(k - 1, -1, -1), frontiers):
        digit = sum(((c >> shift) & 1) << i for i, c in enumerate(low))
        index <<= d
        weights += [frontier[index + t] for t in _lex_order(d, 1) if t != digit]
        index += digit
    weights.append(frontiers[-1][index])
    return tuple(weights)


def classify_porous(
    mu: TreeMeasure, q: CubeAddress, k: int, eps: float
) -> CubeAddress | None:
    """Is some R in D_k(q) an eps-hole (conditional mass <= eps)?

    Returns the selected hole, or None when q is not porous at (k, eps).  The
    hole is the depth-k descendant of minimal conditional mass, ties broken
    by lexicographic address order, so runs are reproducible.  The caller is
    responsible for q having positive mass; conditional ratios below q are
    well defined regardless.  Raises ValueError unless k >= 1, k*d <= MAX_KD,
    eps lies in [0, 2^-kd] and q.level + k <= mu.depth.
    """
    _check_porosity(mu.d, k, eps)
    mu.check_reach(q.level + k, f"the depth-{k} porosity test at {q.serialize()}")
    return _classify_full(LineageClassifier(mu), q, k, eps)[0]


def por2_depth(mu: TreeMeasure, q: CubeAddress, eps: float,
               cap: int = DEFAULT_POR2_CAP) -> float:
    """Least k <= cap such that D_k(q) contains an eps-hole, else math.inf.

    Once a hole exists at depth j it persists at all deeper depths, so the
    first hit is the minimum.  Raises ValueError unless eps lies in [0, 2^-d],
    cap*d <= MAX_KD and q.level + cap <= mu.depth, before any node is realized.
    """
    _check_eps(mu.d, 1, eps)
    _check_porosity(mu.d, cap, 0.0)  # cap >= 1 and cap*d <= MAX_KD
    mu.check_reach(q.level + cap, f"por2 with cap {cap} at {q.serialize()}")
    return LineageClassifier(mu).por2(q, eps, cap)


def por2_profile(mu: TreeMeasure, x: CubeAddress, eps: float,
                 cap: int = DEFAULT_POR2_CAP) -> tuple[float, ...]:
    """por2 of x's lineage at levels 0..x.level; checked as por2_depth at x."""
    _check_eps(mu.d, 1, eps)
    _check_porosity(mu.d, cap, 0.0)
    mu.check_reach(x.level + cap, f"por2 with cap {cap} along {x.serialize()}")
    clf = LineageClassifier(mu)
    return tuple(clf.por2(x.ancestor(n), eps, cap) for n in range(x.level + 1))


# ---------------------------------------------------------------------------
# Porous re-treeing (the partition operator driving the dimension bound)


def porous_retree(base: TreeMeasure, k: int, eps: float) -> TreeMeasure:
    """View of ``base`` re-treed by the porous/uniform partition policy.

    Porous nodes split into the depth-k hole plus the per-level cubes
    avoiding it; non-porous nodes split uniformly.  Offspring weights are the
    conditional masses of the children under ``base``.  The view is
    2^-k-regular.  Raises ValueError unless k >= 1, k*d <= MAX_KD and eps lies
    in [0, 2^-kd].
    """
    return LineageClassifier(base).retree(k, eps)


def porous_walk(
    view: TreeMeasure, x: CubeAddress, k: int
) -> list[tuple[CubeAddress, CubePartition, Weights, int]]:
    """Project x's lineage onto a porous re-tree.

    Returns per-step (node, partition, weights, chosen child index) for the
    nodes at levels <= x.level - k: a porous step can descend k levels at
    once, so a deeper node's next child might lie below x.  A cube at a level
    below k gives an empty walk.  Classifying the last node's split reads the
    base down to x.level, and the view shares the base's depth, so x.level is
    checked against it before any node is realized.  No library code calls
    it: porous_fraction_trajectory takes its flags from por2.  It stays
    while the benchmark's tracer (perfbench/tracer.py) wraps it by name.
    """
    view.check_reach(x.level, x)
    return list(view.steps_to(x, last=x.level - k))


def sample_porous_path(
    base: TreeMeasure, k: int, eps: float, seed: int | np.random.Generator, steps: int
) -> tuple[list[tuple[CubeAddress, CubePartition, Weights, int]], list[bool]]:
    """One walk of the porous re-tree of ``base`` and its porous levels.

    Returns the walk steps (node, partition, weights, chosen child index) and
    ``flags[n]``: is the lineage's level-n cube porous at (k, eps), for every
    level n below the terminal one.  Each node is realized once.  Raises
    UnrealizedNodeError, a ValueError, before any node is realized unless
    steps - 1 + k <= base.depth, the least any walk reads; a walk whose porous
    jumps go deeper raises it at the first node past the depth.
    """
    clf = LineageClassifier(base)
    view = clf.retree(k, eps)
    steps = _index(steps, "steps", 0)
    base.check_reach(steps - 1 + k, f"the {steps}-step walk of the depth-{k} re-tree")
    walk, flags = [], []
    for step in view.walk(seed, steps):
        node, part, _, idx = step
        child = part.children[idx]
        walk.append(step)
        flags.append(part.hole is not None)
        flags += [clf.por2(child.ancestor(level), eps, k) <= k
                  for level in range(node.level + 1, child.level)]
    return walk, flags


def porous_fraction_trajectory(mu: TreeMeasure, x: CubeAddress, k: int,
                               eps: float) -> tuple[bool, ...]:
    """The porous-scale flags of x's lineage in ``mu``, one per dyadic level.

    ``flags[n]`` is por2_depth(mu, x.ancestor(n), eps) <= k: is the level-n
    cube porous at (k, eps), for n in 0..x.level; the fraction of porous
    scales among the first n levels is sum(flags[:n]) / n.  One classifier
    answers every level down the lineage, so each node is realized once.
    Raises ValueError unless x.level + k <= mu.depth, as x's own test reads
    k levels below it, before any node is realized.
    """
    _check_porosity(mu.d, k, eps)
    return tuple(p <= k for p in por2_profile(mu, x, eps, k))


# ---------------------------------------------------------------------------
# Random-translation experiment


@dataclass(frozen=True)
class TranslationTrial:
    trial: int
    translation: tuple[float, ...]
    fraction: float


@dataclass(frozen=True)
class TranslationReport:
    mean_fraction: float
    min_fraction: float
    threshold: float | None
    passed: bool | None


def run_translation_trials(
    mu: TreeMeasure,
    r: float,
    alpha: float,
    eps: float,
    depth: int,
    seed: int,
    indices,
) -> list[TranslationTrial]:
    """The trials with the given absolute indices; seeds are per-index, so any
    partition of the index set over workers reproduces the serial run.  Trial
    i maps mu by x -> (r/2) x + t, t on the 2^-depth grid in [0, 1/2)^d, walks
    the image depth - 1 steps and keeps the fraction of levels 0..depth - 1
    porous at (k(alpha, r), eps)."""
    _require_dyadic(mu)
    if not 1 <= _index(depth, "depth") <= 50:
        raise ValueError("depth must lie in [1, 50] so grid translations stay exact")
    d = mu.d
    k = k_of_alpha(d, alpha, r)
    _check_porosity(d, k, eps)
    if depth <= k:
        raise ValueError(f"depth {depth} too small to resolve k={k} hole levels")
    out = []
    for i in indices:
        rng = derived_rng(seed, _TRIAL_STREAM, i)
        t_units = rng.integers(0, 1 << (depth - 1), size=d)
        t = tuple(float(u) * 2.0 ** -depth for u in t_units)
        nu = apply_homothety(mu, Homothety(r / 2.0, t), depth + k)
        path = nu.sample_path(derived_rng(seed, _PATH_STREAM, i), steps=depth - 1)
        flags = porous_fraction_trajectory(nu, path[-1], k, eps)
        out.append(TranslationTrial(i, t, sum(flags) / len(flags)))
    return out


def translation_report(
    trials: list[TranslationTrial],
    d: int,
    r: float,
    eta_target: float | None = None,
) -> TranslationReport:
    """Mean and minimum fraction over the trials, and the check against
    (1-2r)^d * eta_target when a target is given."""
    if not trials:
        raise ValueError("trials must be >= 1")
    if eta_target is not None:
        _check_eta(eta_target)
    fractions = [tr.fraction for tr in trials]
    mean_fraction = math.fsum(fractions) / len(fractions)
    threshold = None if eta_target is None else (1.0 - 2.0 * r) ** d * eta_target
    passed = None if threshold is None else mean_fraction >= threshold
    return TranslationReport(mean_fraction, min(fractions), threshold, passed)
