"""Entropy, Lyapunov exponents, and packing-dimension estimation along
mu-random paths.

All per-node quantities are in nats.  Every dimension quotient uses the
positive quantity log(1/side) in its denominator, so ratios land in [0, d];
the per-step length increments L_n = log(side(R_n)/side(R_{n+1})) telescope
to log(1/side(R_n)), which keeps the running quotient D_n and the terminal
entropy-average estimator consistent.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bounds import LOG2, _check_eps, _check_eta, psi
from .dyadic import _index, subdivide_uniform
from .measure import (
    _PATH_STREAM,
    TreeMeasure,
    Weights,
    _choice_table,
    _path_rng,
    derived_rng,
)


def entropy(weights: Weights) -> float:
    """Shannon entropy in nats, 0 log 0 = 0."""
    return math.fsum(psi(w) for w in weights)


def _exact_sum(col: np.ndarray) -> float:
    """``math.fsum(col)`` bit for bit.  fsum rounds the exact sum once, so a
    column of n copies of x sums to the IEEE product x * n (n <= 2^53), and to
    +0.0 when x is a zero of either sign.  A zero-stride column is constant by
    construction and skips the scan; an overflowing or non-finite product
    still goes to fsum."""
    if len(col):
        x = float(col[0])
        s = x * len(col) + 0.0
        if math.isfinite(s) and (col.strides[0] == 0 or (col == x).all()):
            return s
    return math.fsum(col.tolist())


def _entropy_and_lyapunov(level: int, children, dist: Weights) -> tuple[float, float]:
    """H = E(-log w) and lambda = E(log side(parent)/side(child))."""
    lam = math.fsum(w * (c.level - level) * LOG2 for w, c in zip(dist, children))
    return entropy(dist), lam


@dataclass(frozen=True)
class PathTrajectory:
    """Per-step statistics along one lineage.

    Arrays are indexed by step; ``I[n]`` is the information -log of the
    conditional weight taken at step n and ``L[n]`` the log length drop
    log(side(R_n)/side(R_{n+1})).  The running entropy-average quotient
    ``D[n]`` after n+1 steps and the martingale residuals ``res_H``/``res_L``,
    (1/n)(sum I - sum H) and (1/n)(sum L - sum lambda), are derived from these
    columns on first read.
    """

    levels: np.ndarray
    I: np.ndarray
    L: np.ndarray
    H: np.ndarray
    lam: np.ndarray
    porous: np.ndarray

    @property
    def steps(self) -> int:
        return len(self.I)

    @property
    def terminal_D(self) -> float:
        """Terminal quotient from compensated sums."""
        return _exact_sum(self.H) / _exact_sum(self.L)

    @cached_property
    def D(self) -> np.ndarray:
        return np.cumsum(self.H) / np.cumsum(self.L)

    @cached_property
    def res_H(self) -> np.ndarray:
        counts = np.arange(1, self.steps + 1, dtype=float)
        return (np.cumsum(self.I) - np.cumsum(self.H)) / counts

    @cached_property
    def res_L(self) -> np.ndarray:
        counts = np.arange(1, self.steps + 1, dtype=float)
        return (np.cumsum(self.L) - np.cumsum(self.lam)) / counts

    def csv_rows(self):
        """Rows n,I,L,H,lambda,Mbar,Dn,resH,resL,porous; the Mbar column,
        the length drop on the dyadic frame, repeats L."""
        I, L, H, lam, D, res_H, res_L = (
            c.tolist() for c in (self.I, self.L, self.H, self.lam, self.D,
                                 self.res_H, self.res_L))
        yield from zip(range(self.steps), I, L, H, lam, L, D, res_H, res_L,
                       map(int, self.porous.tolist()))


def _trajectory_from_steps(steps) -> PathTrajectory:
    # typed arrays: appends cost less than numpy item writes, and memory
    # stays at 8 bytes per value on walks of 10^4-10^5 steps
    I, L, H, lam, levels, porous = (array(code) for code in "ddddqb")
    for node, part, w, idx in steps:
        wi = w[idx]
        if wi <= 0.0:
            raise ValueError("path steps through a zero-weight child")
        h, lyap = _entropy_and_lyapunov(node.level, part.children, w)
        I.append(0.0 - math.log(wi))  # +0.0, not -0.0, at wi = 1
        L.append((part.children[idx].level - node.level) * LOG2)
        H.append(h)
        lam.append(lyap)
        porous.append(part.hole is not None)
        levels.append(node.level)
    levels.append(steps[-1][1].children[steps[-1][3]].level if I else 0)
    return PathTrajectory(
        np.frombuffer(levels, dtype=np.int64),
        *(np.frombuffer(a) for a in (I, L, H, lam)),
        np.frombuffer(porous, dtype=bool),
    )


@dataclass(frozen=True)
class DimensionEstimate:
    """Entropy-average packing-dimension estimate over sampled paths.

    ``value`` is the sample maximum of the terminal quotients: the estimator
    targets an essential supremum, which finite sampling can only
    under-estimate, so the mean and every path's quotient are reported alongside.
    """

    value: float
    mean: float
    per_path: tuple[float, ...]


def sampled_trajectory(
    mu: TreeMeasure, depth: int, seed: int | np.random.Generator
) -> PathTrajectory:
    """Sample one lineage of ``depth`` steps, an integer in 1..mu.depth checked
    before any node is realized, and record its trajectory in a single pass.
    A product measure (``mu.product_weights`` set) is walked in numpy; its
    trajectory equals the one of ``mu.walk`` bit for bit."""
    depth = _index(depth, "walk depth")
    if depth < 1:
        raise ValueError("empty walk")
    mu.check_reach(depth, f"the {depth}-step walk")
    if mu.product_weights is not None:
        return _product_trajectory(mu, depth, seed)
    return _trajectory_from_steps(list(mu.walk(seed, steps=depth)))


def _pick(cum: list[float], targets: np.ndarray) -> np.ndarray:
    """``min(bisect_right(cum, t), len(cum) - 1)`` for every target t, the
    position among the positive children that ``walk`` takes: the count of
    entries of cum[:-1] that are <= t.

    The count is found without branches, which random targets would make
    unpredictable.  cum[:-1] is padded with +inf to a power-of-two width W,
    and each round halves the candidate range by one ``<=`` per target, the
    first against the scalar at W/2 - 1.  Only ``<=`` on the same floats
    decides, so ties, equal cumulative entries and the top draw go where
    ``bisect_right`` sends them."""
    width = 1 << (len(cum) - 1).bit_length()
    padded = np.full(width, np.inf)
    padded[:len(cum) - 1] = cum[:-1]
    step = width >> 1  # 0 at one child, where padded[-1] is the lone +inf
    pick = (padded[step - 1] <= targets) * step
    while step > 1:
        step >>= 1
        # padded[step - 1:][pick] is padded[pick + step - 1], without the index array
        pick += (padded[step - 1:][pick] <= targets) * step
    return pick


def _product_trajectory(
    mu: TreeMeasure, depth: int, seed: int | np.random.Generator
) -> PathTrajectory:
    """``walk``'s draws and ``_choice_table`` search on the one offspring
    vector of a product measure, done for all steps at once (``_pick``); no
    node is realized.  The columns every step shares are read-only
    zero-stride views."""
    us = _path_rng(seed).random(depth)
    w = mu.product_weights
    positive, cum, total = _choice_table(mu.root, w)
    us *= total  # walk's targets u * total, in place
    pick = _pick(cum, us)
    del us  # spent: free the draws before the gather allocates I
    info = np.array([0.0 - math.log(w[j]) for j in positive])  # +0.0 at w = 1
    # every node splits uniformly, one level down, with the same weights
    root = mu.root
    h, lyap = _entropy_and_lyapunov(root.level, subdivide_uniform(root).children, w)
    L, H, lam, porous = (np.broadcast_to(np.array(x), depth)
                         for x in (LOG2, h, lyap, False))
    return PathTrajectory(np.arange(depth + 1, dtype=np.int64), info[pick],
                          L, H, lam, porous)


def estimate_packing_dim(
    mu: TreeMeasure, depth: int, paths: int, seed: int
) -> DimensionEstimate:
    """Sample ``paths`` lineages of ``depth`` steps and aggregate terminal
    entropy-average quotients sum H(R_i) / log(1/side(R_n))."""
    if _index(paths, "paths") < 1:
        raise ValueError("need at least one path")
    terms = []
    for i in range(paths):
        traj = sampled_trajectory(mu, depth, derived_rng(seed, _PATH_STREAM, i))
        terms.append(traj.terminal_D)
    arr = np.asarray(terms)
    return DimensionEstimate(
        value=float(arr.max()), mean=float(arr.mean()), per_path=tuple(terms))


@dataclass(frozen=True)
class ConverseBound:
    """Minimal offspring entropy under a floor, and the induced dimension
    lower bound for measures that fail to be porous often."""

    hmin: float
    lower_bound: float


def hmin_and_converse(d: int, eps: float, eta: float) -> ConverseBound:
    """H_min(eps) = psi(1 - (2^d - 1) eps) + (2^d - 1) psi(eps), the smallest
    entropy of a 2^d-vector with all entries >= eps (attained at an extreme
    point of the constraint polytope), and the bound (1 - eta) H_min / log 2.

    H_min(2^-d) = d log 2: the floor forces the uniform vector.
    """
    _check_eps(d, 1, eps)
    _check_eta(eta)
    hi = 2.0 ** -d
    n = 1 << d
    hmin = psi(1.0 - (n - 1) * min(eps, hi)) + (n - 1) * psi(min(eps, hi))
    return ConverseBound(hmin=hmin, lower_bound=(1.0 - eta) * hmin / LOG2)
