"""Dyadic porosity detection and porous-scale statistics.

The central test: a node Q is porous at (k, eps) when some dyadic descendant
at relative depth k carries at most an eps-fraction of Q's mass.  One
LineageClassifier per lineage answers that test and the hole-depth function
por2 from the same realized nodes.  Around it this module provides the
porous/uniform re-treeing that drives dimension-drop experiments, the one
pass that flags the porous dyadic levels of a lineage, an approximate
(one-sided) Euclidean porosity estimator, and the random-translation
experiment that transfers Euclidean porosity to the dyadic frame.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import accumulate, chain, islice

import numpy as np

from .bounds import _check_eps, _check_eta, k_of_alpha
from .dyadic import CubeAddress, CubePartition, porous_split
from .measure import (
    _DROP,
    _PATH_STREAM,
    _SPLIT,
    _TAKE,
    _TRIAL_STREAM,
    Homothety,
    TreeMeasure,
    Weights,
    _descend,
    apply_homothety,
    derived_rng,
)

#: Default search cap for por2; deeper holes are reported as the inf sentinel.
DEFAULT_POR2_CAP = 8

#: Largest k*d a re-tree accepts: the classifier's depth-k frontier holds 2^(kd) nodes.
MAX_KD = 16


def _check_frontier(d: int, k: int) -> None:
    if k * d > MAX_KD:
        raise ValueError(f"k*d = {k * d} exceeds {MAX_KD}: a frontier of 2^{k * d} nodes")


@dataclass(frozen=True)
class PorosityParams:
    """Hole depth k and mass threshold eps."""

    k: int
    eps: float

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not 0.0 <= self.eps < 1.0:
            raise ValueError(f"eps must lie in [0, 1), got {self.eps}")


@dataclass(frozen=True)
class PorosityCheck:
    """Outcome of the porous test at one node."""

    porous: bool
    hole: CubeAddress | None
    hole_ratio: float | None


def _warn_if_inadmissible(k: int, eps: float, d: int) -> None:
    if eps > 2.0 ** (-k * d):
        warnings.warn(
            f"eps={eps} exceeds 2^-kd={2.0 ** (-k * d)}; dyadic porosity at "
            f"(k={k}, d={d}) is vacuous above that threshold",
            stacklevel=3,
        )


def _require_dyadic(mu: TreeMeasure) -> None:
    if not mu.dyadic_splits:
        raise TypeError(
            "porosity probes run on full dyadic trees; pass the measure's "
            "dyadic base, not a porous re-tree"
        )


def _min_entry(frontier: dict[CubeAddress, float]) -> tuple[CubeAddress, float]:
    """Smallest ratio; ties broken by lexicographic address order."""
    best_addr, best = None, math.inf
    for addr, ratio in frontier.items():
        if ratio < best or (ratio == best and addr.coords < best_addr.coords):
            best_addr, best = addr, ratio
    return best_addr, best


class LineageClassifier:
    """Porosity decisions on the nodes of a lineage of one dyadic measure.

    Each node's offspring is realized once; each queried node q keeps its
    conditional-mass frontiers (level j maps the depth-j descendants R to
    mu(R)/mu(q)), built lazily.  The porous test at (k, eps) reads frontier
    k, por2 the first frontier whose minimum is <= eps.  Holes persist to
    deeper levels, so por2 <= k exactly when q is porous at (k, eps).

    The memo is a cache only.  A por2 query at level n, or ``drop_above(n)``,
    drops all nodes above level n, so memory along a path does not grow with
    depth; classification keeps what it realized, so the levels inside a
    finished re-tree walk can still be probed without realizing again.
    Queries should go down the lineage; one that goes back up realizes again.
    """

    def __init__(self, mu: TreeMeasure):
        _require_dyadic(mu)
        self.mu = mu
        self._level = 0
        self._offspring: dict[tuple, tuple[CubePartition, Weights]] = {}
        self._frontiers: dict[tuple, list[dict[CubeAddress, float]]] = {}

    def offspring(self, q: CubeAddress) -> tuple[CubePartition, Weights]:
        key = (q.level, q.coords)  # hashes in C, unlike a CubeAddress
        hit = self._offspring.get(key)
        if hit is None:
            hit = self._offspring[key] = self.mu.offspring(q)
        return hit

    def drop_above(self, level: int) -> None:
        """Forget the nodes above ``level``."""
        if level > self._level:
            self._level = level
            for memo in (self._offspring, self._frontiers):
                for key in [key for key in memo if key[0] < level]:
                    del memo[key]

    def frontiers(self, q: CubeAddress, depth: int) -> list[dict[CubeAddress, float]]:
        """q's frontiers at levels 1..depth (or more, when built before)."""
        frontiers = self._frontiers.setdefault((q.level, q.coords), [])
        while len(frontiers) < depth:
            frontiers.append(self._deeper(frontiers[-1] if frontiers else {q: 1.0}))
        return frontiers

    def _deeper(self, frontier: dict[CubeAddress, float]) -> dict[CubeAddress, float]:
        """One dyadic level deeper."""
        level = next(iter(frontier)).level + 1
        return dict(_descend(
            self.offspring, frontier.items(),
            lambda node, _: _TAKE if node.level == level else _SPLIT,
        ))

    def por2(self, q: CubeAddress, eps: float, cap: int) -> float:
        """Least j <= cap whose frontier holds an eps-hole, else math.inf."""
        self.drop_above(q.level)
        for j in range(1, cap + 1):
            if _min_entry(self.frontiers(q, j)[j - 1])[1] <= eps:
                return j
        return math.inf

    def retree(self, k: int, eps: float) -> TreeMeasure:
        """The porous re-tree view at (k, eps); see porous_retree."""
        base = self.mu
        _check_frontier(base.d, k)

        def realizer(q: CubeAddress) -> tuple[CubePartition, Weights]:
            check, frontiers = _classify_full(self, q, k, eps)
            if not check.porous:
                return self.offspring(q)
            part = porous_split(q, check.hole, k)
            return part, tuple(
                frontiers[child.level - q.level - 1][child] for child in part.children
            )

        return TreeMeasure(base.d, base.depth, realizer, dyadic_splits=False)


def _classify_full(
    clf: LineageClassifier, q: CubeAddress, k: int, eps: float
) -> tuple[PorosityCheck, list[dict[CubeAddress, float]]]:
    """Classification plus q's conditional-mass frontiers (levels 1..k at least)."""
    frontiers = clf.frontiers(q, k)
    hole, ratio = _min_entry(frontiers[k - 1])
    if ratio <= eps:
        return PorosityCheck(True, hole, ratio), frontiers
    return PorosityCheck(False, None, None), frontiers


def classify_porous(
    mu: TreeMeasure, q: CubeAddress, k: int, eps: float
) -> PorosityCheck:
    """Is some R in D_k(q) an eps-hole (conditional mass <= eps)?

    Returns the selected hole: the depth-k descendant of minimal conditional
    mass, ties broken by lexicographic address order, so runs are
    reproducible.  The caller is responsible for q having positive mass;
    conditional ratios below q are well defined regardless.
    """
    clf = LineageClassifier(mu)
    _warn_if_inadmissible(k, eps, mu.d)
    return _classify_full(clf, q, k, eps)[0]


def por2_depth(mu: TreeMeasure, x_path: list[CubeAddress], n: int, eps: float,
               cap: int = DEFAULT_POR2_CAP) -> float:
    """Least k <= cap such that D_k(x_path[n]) contains an eps-hole.

    Returns math.inf when no hole exists up to the cap (the capped sentinel,
    never a number).  Once a hole exists at depth j it persists at all deeper
    depths, so the first hit is the minimum.
    """
    return LineageClassifier(mu).por2(x_path[n], eps, cap)


def por2_profile(mu: TreeMeasure, x_path: list[CubeAddress], n_max: int, eps: float,
                 cap: int = DEFAULT_POR2_CAP) -> tuple[float, ...]:
    """por2 at every level 0..n_max-1 along the lineage."""
    clf = LineageClassifier(mu)
    return tuple(clf.por2(x_path[n], eps, cap) for n in range(n_max))


# ---------------------------------------------------------------------------
# Porous re-treeing (the partition operator driving the dimension bound)


def porous_retree(base: TreeMeasure, k: int, eps: float) -> TreeMeasure:
    """View of ``base`` re-treed by the porous/uniform partition policy.

    Porous nodes split into the depth-k hole plus the per-level cubes
    avoiding it; non-porous nodes split uniformly.  Offspring weights are the
    conditional masses of the children under ``base``.  The view is
    2^-k-regular.  It keeps every node it classifies, so its memory grows
    with the length of a walk on it.
    """
    clf = LineageClassifier(base)
    _warn_if_inadmissible(k, eps, base.d)
    return clf.retree(k, eps)


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


@dataclass(frozen=True)
class ScaleReport:
    """Porous-scale flags along one lineage, one per dyadic level, and their
    running fractions."""

    k: int
    eps: float
    dyadic_flags: tuple[bool, ...]
    dyadic_fraction: tuple[float, ...]


def porous_fraction_trajectory(mu: TreeMeasure, x_path: list[CubeAddress], k: int,
                               eps: float, n_max: int) -> ScaleReport:
    """Running porous-scale fractions along a lineage of ``mu``.

    ``dyadic_fraction[n-1]`` is (1/n) |{i in [n] : por2(mu, x, i, eps) <= k}|.
    The flags come from the lineage's walk on the porous re-tree, which
    needs the cubes x_path[0..n_max + k]; each node is realized once.
    """
    clf = LineageClassifier(mu)
    _warn_if_inadmissible(k, eps, mu.d)
    if n_max < 1:
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
    walk = porous_walk(clf.retree(k, eps), x_path[: n_max + k + 1], k)
    levels = chain.from_iterable(flags for _, flags in _porous_levels(clf, walk, k, eps))
    flags = tuple(islice(levels, n_max))
    running = (hits / n for n, hits in enumerate(accumulate(flags), start=1))
    return ScaleReport(k=k, eps=eps, dyadic_flags=flags, dyadic_fraction=tuple(running))


# ---------------------------------------------------------------------------
# Euclidean porosity: a certified lower bound


def _cube_bounds(addr: CubeAddress) -> tuple[tuple[float, ...], tuple[float, ...]]:
    s = 2.0 ** -addr.level
    lo = tuple(c * s for c in addr.coords)
    return lo, tuple(l + s for l in lo)


def _cube_outside_ball(addr, x, r2) -> bool:
    lo, hi = _cube_bounds(addr)
    dist2 = 0.0
    for xi, l, h in zip(x, lo, hi):
        if xi < l:
            dist2 += (l - xi) ** 2
        elif xi > h:
            dist2 += (xi - h) ** 2
    return dist2 > r2


def _cube_inside_ball(addr, x, r2) -> bool:
    lo, hi = _cube_bounds(addr)
    far2 = 0.0
    for xi, l, h in zip(x, lo, hi):
        far2 += max(abs(xi - l), abs(xi - h)) ** 2
    return far2 <= r2


def euclid_por_lower_bound(
    mu: TreeMeasure,
    x: tuple[float, ...],
    r: float,
    eps: float,
    resolution: int,
) -> float:
    """Certified lower bound on the Euclidean porosity por(mu, x, r, eps).

    Searches dyadic cubes of side >= r/resolution inside B(x, r) whose mass is
    at most eps * (a lower bound on mu(B(x, r))) and reports the largest alpha
    such that a ball of radius alpha*r fits in the certified empty region.
    One-sided by construction: no upper-bound search over ball centers is
    attempted.  In d = 1 adjacent empty cubes are merged, so non-dyadic gaps
    (two half-gaps meeting at a dyadic point) are certified at full size.
    Known limit: distances are compared squared, and r*r underflows to 0.0
    below r ~ 2^-537, where the call raises as if the ball had no mass.
    """
    _require_dyadic(mu)
    d = mu.d
    if len(x) != d:
        raise ValueError("point dimension does not match the measure")
    if r <= 0.0:
        raise ValueError("radius must be positive")
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    m_max = max(0, math.floor(math.log2(resolution / r)))
    if m_max > mu.depth:
        raise ValueError(
            f"resolution needs dyadic level {m_max}, beyond the measure's "
            f"maximum {mu.depth}"
        )
    r2 = r * r

    def ball_where(node: CubeAddress, node_mass: float) -> int:
        if node_mass == 0.0 or _cube_outside_ball(node, x, r2):
            return _DROP
        if _cube_inside_ball(node, x, r2):
            return _TAKE
        # boundary cubes at the resolution are dropped: stay a lower bound
        return _SPLIT if node.level < m_max else _DROP

    whole = [(mu.root, 1.0)]
    mu_ball = math.fsum(m for _, m in _descend(mu.offspring, whole, ball_where))
    if mu_ball <= 0.0:
        raise ValueError(
            "no positive lower bound on the ball mass at this resolution; "
            "porosity statistics are defined only at positive-mass balls"
        )
    threshold = eps * mu_ball

    def hole_where(node: CubeAddress, node_mass: float) -> int:
        if _cube_outside_ball(node, x, r2):
            return _DROP
        if _cube_inside_ball(node, x, r2) and node_mass <= threshold:
            return _TAKE
        return _SPLIT if node.level < m_max else _DROP

    holes = [node for node, _ in _descend(mu.offspring, whole, hole_where)]
    if not holes:
        return 0.0

    best_radius = max(2.0 ** -(h.level + 1) for h in holes)
    if d == 1:
        units = sorted(
            (h.coords[0] << (m_max - h.level), (h.coords[0] + 1) << (m_max - h.level))
            for h in holes
        )
        run_lo, run_hi = units[0]
        best_run = run_hi - run_lo
        for lo_u, hi_u in units[1:]:
            if lo_u == run_hi:
                run_hi = hi_u
            else:
                run_lo, run_hi = lo_u, hi_u
            best_run = max(best_run, run_hi - run_lo)
        best_radius = max(best_radius, best_run * 2.0 ** -(m_max + 1))
    return best_radius / r


# ---------------------------------------------------------------------------
# Random-translation experiment


@dataclass(frozen=True)
class TranslationTrial:
    trial: int
    translation: tuple[float, ...]
    fraction: float


@dataclass(frozen=True)
class TranslationReport:
    k: int
    eps: float
    ratio: float
    depth: int
    trials: tuple[TranslationTrial, ...]
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
    partition of the index set over workers reproduces the serial run."""
    _require_dyadic(mu)
    if not 1 <= depth <= 50:
        raise ValueError("depth must lie in [1, 50] so grid translations stay exact")
    d = mu.d
    k = k_of_alpha(d, alpha, r)
    _check_eps(d, k, eps)
    _check_frontier(d, k)
    if depth <= k:
        raise ValueError(f"depth {depth} too small to resolve k={k} hole levels")
    out = []
    for i in indices:
        rng = derived_rng(seed, _TRIAL_STREAM, i)
        t_units = rng.integers(0, 1 << (depth - 1), size=d)
        t = tuple(float(u) * 2.0 ** -depth for u in t_units)
        nu = apply_homothety(mu, Homothety(r / 2.0, t), depth + k)
        path = nu.sample_path(derived_rng(seed, _PATH_STREAM, i), steps=depth + k)
        report = porous_fraction_trajectory(nu, path, k, eps, n_max=depth)
        out.append(TranslationTrial(i, t, report.dyadic_fraction[-1]))
    return out


def translation_experiment(
    mu: TreeMeasure,
    r: float,
    alpha: float,
    eps: float,
    trials: int,
    depth: int,
    seed: int,
    eta_target: float | None = None,
) -> TranslationReport:
    """Monte Carlo probe of the porosity-transfer statement: the homothetic
    copies r*mu + t should be dyadic porous at (k(alpha, r), eps) on at least
    a (1-2r)^d fraction of scales, for typical grid translations t.

    The input is rescaled to [0, 1/2)^d first, so the effective map is
    x -> (r/2) x + t; translations are sampled uniformly on the grid of
    multiples of 2^-depth inside [0, 1/2)^d.  ``eta_target`` is the known or
    measured mean-porosity level of ``mu``; when given, the report checks the
    mean fraction against (1-2r)^d * eta_target.
    """
    out = run_translation_trials(mu, r, alpha, eps, depth, seed, range(trials))
    return translation_report(out, mu.d, r, alpha, eps, depth, eta_target)


def translation_report(
    trials: list[TranslationTrial],
    d: int,
    r: float,
    alpha: float,
    eps: float,
    depth: int,
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
    return TranslationReport(k_of_alpha(d, alpha, r), eps, r, depth, tuple(trials),
                             mean_fraction, min(fractions), threshold, passed)
