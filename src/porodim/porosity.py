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
from itertools import chain, count, islice
from typing import Iterator

import numpy as np

from .bounds import _check_eps, _check_eta, k_of_alpha
from .dyadic import CubeAddress, CubePartition, _index, porous_split
from .measure import (
    _PATH_STREAM,
    _SPLIT,
    _TAKE,
    _TRIAL_STREAM,
    Homothety,
    TreeMeasure,
    Weights,
    _descend,
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


def _min_entry(frontier: dict[CubeAddress, float]) -> tuple[CubeAddress, float]:
    """Smallest ratio; ties broken by lexicographic address order."""
    best_addr, best = None, math.inf
    for addr, ratio in frontier.items():
        if ratio < best or (ratio == best and addr.coords < best_addr.coords):
            best_addr, best = addr, ratio
    return best_addr, best


class LineageClassifier:
    """Porosity decisions on the nodes of a lineage of one dyadic measure.

    The classifier keeps one memo: each node's offspring, realized once.
    A query on q builds q's conditional-mass frontiers from it afresh and
    lazily, level by level (level j maps the depth-j descendants R to
    mu(R)/mu(q)).  The porous test at (k, eps) reads frontiers 1..k, por2 up
    to the first whose minimum is <= eps.  Holes persist to deeper levels, so
    por2 <= k exactly when q is porous at (k, eps).

    A por2 query at level n, or ``drop_above(n)``, forgets the nodes above
    level n, so memory along a path does not grow with depth; classification
    forgets nothing, so the levels inside a finished re-tree walk can still be
    probed without realizing again.  Queries should go down the lineage; one
    that goes back up realizes again.
    """

    def __init__(self, mu: TreeMeasure):
        _require_dyadic(mu)
        self.mu = mu
        self._level = 0
        self._offspring: dict[CubeAddress, tuple[CubePartition, Weights]] = {}

    def offspring(self, q: CubeAddress) -> tuple[CubePartition, Weights]:
        hit = self._offspring.get(q)
        if hit is None:
            hit = self._offspring[q] = self.mu.offspring(q)
        return hit

    def drop_above(self, level: int) -> None:
        """Forget the nodes above ``level``."""
        if level > self._level:
            self._level = level
            for key in [key for key in self._offspring if key.level < level]:
                del self._offspring[key]

    def frontiers(self, q: CubeAddress) -> Iterator[dict[CubeAddress, float]]:
        """q's frontiers at levels 1, 2, ..., each built when it is read."""
        frontier = {q: 1.0}
        for level in count(q.level + 1):
            frontier = dict(_descend(
                self.offspring, frontier.items(),
                lambda node, _: _TAKE if node.level == level else _SPLIT,
            ))
            yield frontier

    def por2(self, q: CubeAddress, eps: float, cap: int) -> float:
        """Least j <= cap whose frontier holds an eps-hole, else math.inf."""
        self.drop_above(q.level)
        for j, frontier in enumerate(islice(self.frontiers(q), cap), start=1):
            if _min_entry(frontier)[1] <= eps:
                return j
        return math.inf

    def retree(self, k: int, eps: float) -> TreeMeasure:
        """The porous re-tree view at (k, eps); see porous_retree."""
        base = self.mu
        _check_porosity(base.d, k, eps)

        def realizer(q: CubeAddress) -> tuple[CubePartition, Weights]:
            hole, frontiers = _classify_full(self, q, k, eps)
            if hole is None:
                return self.offspring(q)
            part = porous_split(q, hole, k)
            return part, tuple(
                frontiers[child.level - q.level - 1][child] for child in part.children
            )

        return TreeMeasure(base.d, base.depth, realizer, dyadic_splits=False)


def _classify_full(
    clf: LineageClassifier, q: CubeAddress, k: int, eps: float
) -> tuple[CubeAddress | None, list[dict[CubeAddress, float]]]:
    """q's selected hole, None when q is not porous, and q's conditional-mass
    frontiers at levels 1..k."""
    frontiers = list(islice(clf.frontiers(q), k))
    hole, ratio = _min_entry(frontiers[k - 1])
    return (hole if ratio <= eps else None), frontiers


def classify_porous(
    mu: TreeMeasure, q: CubeAddress, k: int, eps: float
) -> CubeAddress | None:
    """Is some R in D_k(q) an eps-hole (conditional mass <= eps)?

    Returns the selected hole, or None when q is not porous at (k, eps).  The
    hole is the depth-k descendant of minimal conditional mass, ties broken
    by lexicographic address order, so runs are reproducible.  The caller is
    responsible for q having positive mass; conditional ratios below q are
    well defined regardless.  Raises ValueError unless k >= 1, k*d <= MAX_KD
    and eps lies in [0, 2^-kd].
    """
    _check_porosity(mu.d, k, eps)
    return _classify_full(LineageClassifier(mu), q, k, eps)[0]


def por2_depth(mu: TreeMeasure, x_path: list[CubeAddress], n: int, eps: float,
               cap: int = DEFAULT_POR2_CAP) -> float:
    """Least k <= cap such that D_k(x_path[n]) contains an eps-hole.

    Returns math.inf when no hole exists up to the cap (the capped sentinel,
    never a number).  Once a hole exists at depth j it persists at all deeper
    depths, so the first hit is the minimum.  Raises ValueError unless eps
    lies in [0, 2^-d] and cap*d <= MAX_KD, before any node is realized.
    """
    _check_eps(mu.d, 1, eps)
    _check_porosity(mu.d, cap, 0.0)  # cap >= 1 and cap*d <= MAX_KD
    return LineageClassifier(mu).por2(x_path[_index(n, "n")], eps, cap)


def por2_profile(mu: TreeMeasure, x_path: list[CubeAddress], n_max: int, eps: float,
                 cap: int = DEFAULT_POR2_CAP) -> tuple[float, ...]:
    """por2 at every level 0..n_max-1 along the lineage; checked as por2_depth."""
    _check_eps(mu.d, 1, eps)
    _check_porosity(mu.d, cap, 0.0)
    clf = LineageClassifier(mu)
    return tuple(clf.por2(x_path[n], eps, cap) for n in range(_index(n_max, "n_max")))


# ---------------------------------------------------------------------------
# Porous re-treeing (the partition operator driving the dimension bound)


def porous_retree(base: TreeMeasure, k: int, eps: float) -> TreeMeasure:
    """View of ``base`` re-treed by the porous/uniform partition policy.

    Porous nodes split into the depth-k hole plus the per-level cubes
    avoiding it; non-porous nodes split uniformly.  Offspring weights are the
    conditional masses of the children under ``base``.  The view is
    2^-k-regular.  Its classifier keeps the offspring of every dyadic node it
    realizes, so its memory grows with the length of a walk on it.  Raises
    ValueError unless k >= 1, k*d <= MAX_KD and eps lies in [0, 2^-kd].
    """
    return LineageClassifier(base).retree(k, eps)


def porous_walk(
    view: TreeMeasure, x_path: list[CubeAddress], k: int
) -> list[tuple[CubeAddress, CubePartition, Weights, int]]:
    """Project a dyadic lineage onto a porous re-tree.

    Returns per-step (node, partition, weights, chosen child index); the walk
    stops as soon as the lineage might be too shallow to identify the next
    child (a porous step can descend k levels at once).
    """
    return list(view.steps_to(x_path[-1], last=len(x_path) - 1 - k))


def _porous_levels(clf: LineageClassifier, steps, k: int, eps: float):
    """Each re-tree step with an iterator over the porous flags, at (k, eps),
    of the dyadic levels it spans, from its own level down.

    The step's own level takes the flag of its split; a level inside a porous
    jump is tested by por2 <= k, which stops at the first hole.  The flags
    are evaluated lazily and must be read before the next step is drawn:
    a consumer that stops early probes no deeper level.
    """
    for step in steps:
        node, part, _, idx = step
        child = part.children[idx]
        inner = range(node.level + 1, child.level)
        yield step, chain(
            (part.hole is not None,),
            (clf.por2(child.ancestor(level), eps, k) <= k for level in inner),
        )
        clf.drop_above(child.level)


def sample_porous_path(
    base: TreeMeasure, k: int, eps: float, seed: int | np.random.Generator, steps: int
) -> tuple[list[tuple[CubeAddress, CubePartition, Weights, int]], list[bool]]:
    """One walk of the porous re-tree of ``base`` and its porous levels.

    Returns the walk steps (node, partition, weights, chosen child index) and
    ``flags[n]``: is the lineage's level-n cube porous at (k, eps), for every
    level n below the terminal one.  Each node is realized once.
    """
    clf = LineageClassifier(base)
    walk, flags = [], []
    for step, levels in _porous_levels(clf, clf.retree(k, eps).walk(seed, steps), k, eps):
        walk.append(step)
        flags.extend(levels)
    return walk, flags


def porous_fraction_trajectory(mu: TreeMeasure, x_path: list[CubeAddress], k: int,
                               eps: float, n_max: int) -> tuple[bool, ...]:
    """The porous-scale flags of a lineage of ``mu``, one per dyadic level.

    ``flags[n]`` is por2(mu, x, n, eps) <= k: is the level-n cube porous at
    (k, eps), for n in 0..n_max-1; the fraction of porous scales among the
    first n levels is sum(flags[:n]) / n.  The flags come from the lineage's
    walk on the porous re-tree, which needs the cubes x_path[0..n_max + k],
    a lineage; each node is realized once.
    """
    _check_porosity(mu.d, k, eps)
    if _index(n_max, "n_max") < 1:
        raise ValueError("lineage too shallow for any porous-scale statistics")
    if n_max + k > mu.depth:
        raise ValueError(
            f"probing depth {k} below level {n_max} exceeds the measure's "
            f"maximum level {mu.depth}"
        )
    if len(x_path) < n_max + k + 1:
        raise ValueError(
            f"x_path holds {len(x_path)} cubes; n_max={n_max} at k={k} needs "
            f"{n_max + k + 1}"
        )
    lineage = x_path[: n_max + k + 1]
    last = lineage[-1]
    if last.level != n_max + k or any(q != last.ancestor(n) for n, q in enumerate(lineage)):
        raise ValueError("x_path is not a lineage")
    clf = LineageClassifier(mu)
    walk = porous_walk(clf.retree(k, eps), lineage, k)
    levels = chain.from_iterable(flags for _, flags in _porous_levels(clf, walk, k, eps))
    return tuple(islice(levels, n_max))


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
    i maps mu by x -> (r/2) x + t, t on the 2^-depth grid in [0, 1/2)^d, and
    keeps the fraction of the image's scales porous at (k(alpha, r), eps)."""
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
        path = nu.sample_path(derived_rng(seed, _PATH_STREAM, i), steps=depth + k)
        flags = porous_fraction_trajectory(nu, path, k, eps, n_max=depth)
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
