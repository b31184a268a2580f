"""Tree measures on the dyadic frame: generators, mass queries, path
sampling, and exact pushforwards under dyadic homotheties.

A tree measure assigns every realized node a partition of its cube and a
probability vector over the partition's children (the conditional mass
splits); the mass of a node is the product of the conditional weights along
its lineage.  That product underflows deep in the tree, so pushforwards and
porosity tests work with masses relative to an ancestor cube instead.
Realization is lazy: node data is produced on demand by a
deterministic realizer keyed by (seed, node address) through a counter-based
generator (numpy Philox), so parallel and serial builds agree bit for bit and
rebuilding with the same seed is identical.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
import numbers
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .dyadic import CubeAddress, CubePartition, _index, root, subdivide_uniform

Weights = tuple[float, ...]

#: Stream tags keeping node draws, path draws and trial draws independent.
_NODE_STREAM = 0
_PATH_STREAM = 1
_TRIAL_STREAM = 2

_WEIGHT_SUM_TOL = 1e-12

#: Largest ambient dimension a generator accepts: a node has 2^d children.
MAX_DIM = 8

#: Default cap on ``build_tree_measure`` depths.  2^-60 is far below any
#: experiment's resolution; callers that genuinely need deeper trees pass a
#: larger ``max_level``.
DEFAULT_MAX_LEVEL = 60

#: Verdicts of a ``_descend`` visitor on a node.
_DROP, _TAKE, _SPLIT = range(3)


class UnrealizedNodeError(LookupError):
    """A positive-mass node was queried beyond the realized/realizable tree."""


def _u64(seed: int) -> int:
    return seed & 0xFFFFFFFFFFFFFFFF


def _keyed_rng(*key: int) -> np.random.Generator:
    """Philox generator seeded as numpy's ``SeedSequence`` seeds it from ``key``,
    a tuple of non-negative ints taken as max(1, ceil(bits / 32)) uint32 words
    each, least significant first.  The words are built here in one pass: numpy
    converts an int a word at a time in a Python loop, slow for deep nodes."""
    words = b"".join(n.to_bytes(4 * max(1, -(-n.bit_length() // 32)), "little")
                     for n in key)
    entropy = np.frombuffer(words, "<u4")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def node_rng(seed: int, q: CubeAddress) -> np.random.Generator:
    """Counter-based generator keyed by (seed, node stream, node address)."""
    return _keyed_rng(_u64(seed), _NODE_STREAM, q.level, *q.coords)


def derived_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    """Generator for the ``index``-th path/trial, independent of schedule."""
    return _keyed_rng(_u64(_index(seed, "seed")), stream, _index(index, "index", 0))


def _path_rng(seed: int | np.random.Generator) -> np.random.Generator:
    """The generator a walk draws from: ``seed`` itself, or path 0 of an int."""
    if isinstance(seed, np.random.Generator):
        return seed
    return derived_rng(seed, _PATH_STREAM, 0)


def _reals(xs: Iterable, what: str) -> tuple[float, ...]:
    """Generator numbers as floats; TypeError unless each is a real number, not a bool."""
    xs = tuple(xs)
    if not all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in xs):
        raise TypeError(f"{what} must be numbers, got {xs!r}")
    try:
        return tuple(map(float, xs))
    except OverflowError:  # an int above the largest float
        raise ValueError(f"{what} has an entry beyond the float range") from None


def _check_weights(w: Sequence[float], n: int, what: str) -> Weights:
    w = _reals(w, what)
    if len(w) != n:
        raise ValueError(f"{what} must have {n} entries, got {len(w)}")
    if not all(0.0 <= x <= 1.0 for x in w):  # NaN included
        raise ValueError(f"{what} has entries outside [0, 1]")
    if abs(math.fsum(w) - 1.0) > _WEIGHT_SUM_TOL:
        raise ValueError(f"{what} does not sum to 1 (got {math.fsum(w)!r})")
    return w


# ---------------------------------------------------------------------------
# Offspring-distribution generators


@dataclass(frozen=True)
class Uniform:
    """Every child gets mass 2^-d: Lebesgue measure."""


@dataclass(frozen=True)
class Bernoulli:
    """The same fixed offspring vector at every node (a product measure)."""

    weights: Weights

    def __post_init__(self):
        object.__setattr__(
            self, "weights", _check_weights(self.weights, len(self.weights), "weights")
        )


@dataclass(frozen=True)
class CascadeFiniteMixture:
    """Each node independently draws one of ``components`` by ``probs``."""

    components: tuple[Weights, ...]
    probs: Weights

    def __post_init__(self):
        if not self.components:
            raise ValueError("mixture needs at least one component")
        n = len(self.components[0])
        comps = tuple(
            _check_weights(c, n, f"mixture component {i}")
            for i, c in enumerate(self.components)
        )
        probs = _check_weights(self.probs, len(comps), "mixture probabilities")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "probs", probs)


@dataclass(frozen=True)
class CascadeDirichlet:
    """Each node independently draws its offspring vector from a Dirichlet."""

    concentration: tuple[float, ...]

    def __post_init__(self):
        conc = _reals(self.concentration, "concentration")
        if not conc or not all(0.0 < a < math.inf for a in conc):
            raise ValueError(f"concentration must be positive and finite, got {conc}")
        object.__setattr__(self, "concentration", conc)


@dataclass(frozen=True)
class CantorMiddleHalf:
    """The middle-half Cantor measure on [0,1): keep the outer quarters.

    Deterministic address rule: even levels split mass (1/2, 1/2); at odd
    levels the mass sits entirely in the outer child (left child of an even
    coordinate, right child of an odd one).  d = 1 only.
    """


GeneratorModel = (
    Uniform | Bernoulli | CascadeFiniteMixture | CascadeDirichlet | CantorMiddleHalf
)


@dataclass(frozen=True)
class GeneratorSpec:
    """A reproducible recipe for a dyadic tree measure."""

    d: int
    model: GeneratorModel
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "d", _index(self.d, "ambient dimension"))
        object.__setattr__(self, "seed", _index(self.seed, "seed"))
        if not 1 <= self.d <= MAX_DIM:
            raise ValueError(f"ambient dimension must lie in [1, {MAX_DIM}], got {self.d}")
        n = 1 << self.d
        m = self.model
        if isinstance(m, Bernoulli) and len(m.weights) != n:
            raise ValueError(f"weights must have {n} entries for d={self.d}")
        if isinstance(m, CascadeFiniteMixture) and len(m.components[0]) != n:
            raise ValueError(f"mixture components must have {n} entries for d={self.d}")
        if isinstance(m, CascadeDirichlet) and len(m.concentration) != n:
            raise ValueError(f"concentration must have {n} entries for d={self.d}")
        if isinstance(m, CantorMiddleHalf) and self.d != 1:
            raise ValueError("the middle-half Cantor measure is 1-dimensional")
        if not isinstance(m, GeneratorModel):
            raise TypeError(f"unknown generator model {m!r}")


def node_weights(spec: GeneratorSpec, q: CubeAddress) -> Weights:
    """Offspring vector at node ``q``; a pure function of (spec, q)."""
    m = spec.model
    if isinstance(m, Uniform):
        return (2.0 ** -spec.d,) * (1 << spec.d)
    if isinstance(m, Bernoulli):
        return m.weights
    if isinstance(m, CantorMiddleHalf):
        if q.level % 2 == 0:
            return (0.5, 0.5)
        return (1.0, 0.0) if q.coords[0] % 2 == 0 else (0.0, 1.0)
    rng = node_rng(spec.seed, q)
    if isinstance(m, CascadeFiniteMixture):
        u = rng.random()
        acc = 0.0
        for comp, p in zip(m.components, m.probs):
            acc += p
            if u < acc:
                return comp
        return m.components[-1]
    # CascadeDirichlet: GeneratorSpec admits no other model
    return tuple(rng.dirichlet(m.concentration).tolist())


# ---------------------------------------------------------------------------
# Tree measures


class TreeMeasure:
    """An immutable measure realized as a partition tree.

    ``realizer(q) -> (CubePartition, Weights)`` supplies node data on demand.
    ``depth`` bounds the dyadic level of any node, and so the number of tree
    steps along any path.  ``log_mass`` is the one mass query, since a mass
    underflows near level 540.  The measure keeps no node data: every
    ``offspring`` call runs the realizer, and a realizer that is costly to
    repeat memoizes itself, as ``apply_homothety``'s does.
    """

    def __init__(
        self,
        d: int,
        depth: int,
        realizer: Callable[[CubeAddress], tuple[CubePartition, Weights]],
        *,
        dyadic_splits: bool = True,
    ):
        self.depth = _index(depth, "depth", 0)
        self.root = root(d)
        self.d = d
        self._realizer = realizer
        #: True when every partition is the uniform dyadic split.
        self.dyadic_splits = dyadic_splits
        #: The offspring vector every node shares (product measures), else None.
        self.product_weights: Weights | None = None

    def offspring(self, q: CubeAddress) -> tuple[CubePartition, Weights]:
        """Partition and conditional offspring vector at ``q``."""
        if q.level >= self.depth:
            raise UnrealizedNodeError(
                f"node {q.serialize()} is at the measure's maximum level {self.depth}"
            )
        return self._realizer(q)

    def steps_to(self, target: CubeAddress, last: int | None = None,
                 start: CubeAddress | None = None):
        """The lineage from ``start`` (default the root) toward ``target`` as
        ``walk`` steps (node, partition, weights, idx).

        Only nodes at levels <= ``last`` (default target.level - 1) take a
        step; the bound is checked before a node is realized.  Raises
        UnrealizedNodeError when no child of a node contains ``target``.
        """
        if last is None:
            last = target.level - 1
        cur = self.root if start is None else start
        while cur.level <= last:
            part, w = self.offspring(cur)
            idx = next((j for j, ch in enumerate(part.children) if ch.contains(target)),
                       None)
            if idx is None:
                raise UnrealizedNodeError(
                    f"{target.serialize()} is not on this measure's node lattice"
                )
            yield cur, part, w, idx
            cur = part.children[idx]

    def log_mass(self, q: CubeAddress) -> float:
        """log mu(q), summed along the lineage; -inf for exact-zero nodes."""
        total = 0.0
        for _, _, w, idx in self.steps_to(q):
            if w[idx] == 0.0:
                return -math.inf
            total += math.log(w[idx])
        return total

    def walk(self, seed: int | np.random.Generator, steps: int):
        """Single-pass mu-random walk; yields (node, partition, weights, idx).

        Each child is drawn with its conditional probability, so the visited
        lineage is distributed as the cubes around a mu-random point.
        ``dimension.sampled_trajectory`` searches the same ``_choice_table``
        in numpy for product measures.
        """
        steps = _index(steps, "steps", 0)
        us = _path_rng(seed).random(steps)
        cur = self.root
        for n in range(steps):
            part, w = self.offspring(cur)
            positive, cum, total = _choice_table(cur, w)
            idx = positive[min(bisect.bisect_right(cum, us[n] * total), len(positive) - 1)]
            yield cur, part, w, idx
            cur = part.children[idx]

    def sample_path(
        self, seed: int | np.random.Generator, steps: int
    ) -> list[CubeAddress]:
        """A mu-random lineage root = Q_0, ..., Q_steps; reproducible from seed."""
        path = [self.root]
        for _, part, _, idx in self.walk(seed, steps):
            path.append(part.children[idx])
        return path


def _require_dyadic(mu: TreeMeasure) -> None:
    if not mu.dyadic_splits:
        raise TypeError(
            "porosity probes and pushforwards run on full dyadic trees; pass the "
            "measure's dyadic base, not a porous re-tree"
        )


def _choice_table(q: CubeAddress, w: Weights) -> tuple[list[int], list[float], float]:
    """The positive children of offspring vector ``w`` at ``q``, their
    cumulative weights and fsum(w): a draw u takes the first positive child
    whose cumulative weight exceeds u * fsum(w), else the last one."""
    total = math.fsum(w)
    if total <= 0.0:
        raise ValueError(f"all-zero offspring vector at {q.serialize()}: malformed measure")
    positive = [j for j, wj in enumerate(w) if wj > 0.0]
    return positive, list(accumulate(w[j] for j in positive)), total


def build_tree_measure(
    spec: GeneratorSpec,
    rule: str = "uniform",
    depth: int = DEFAULT_MAX_LEVEL,
    *,
    max_level: int | None = None,
) -> TreeMeasure:
    """Dyadic tree measure realized lazily from ``spec`` to ``depth`` levels.

    Under cascade specs the offspring vectors of distinct nodes are
    independent samples, reproducible from the seed.  ``rule`` is "uniform"
    here; porous re-treeing lives in porosity.porous_retree, which this
    module intentionally does not import.
    """
    if rule != "uniform":
        raise ValueError(
            "build_tree_measure builds the dyadic frame; use "
            "porosity.porous_retree for the porous-split policy"
        )
    cap = DEFAULT_MAX_LEVEL if max_level is None else max_level
    if depth > cap:
        raise ValueError(
            f"requested depth {depth} exceeds the configured maximum {cap}; "
            f"pass max_level explicitly to allow it"
        )

    def realizer(q: CubeAddress) -> tuple[CubePartition, Weights]:
        return subdivide_uniform(q), node_weights(spec, q)

    mu = TreeMeasure(spec.d, depth, realizer)
    if isinstance(spec.model, (Uniform, Bernoulli)):
        mu.product_weights = node_weights(spec, mu.root)
    return mu


# ---------------------------------------------------------------------------
# JSON configuration

_SCHEMA_HINT = (
    '{"d": int, "seed": int, "depth": int, "generator": {"type": '
    '"uniform"|"bernoulli"|"mixture"|"dirichlet"|"cantor_middle_half", ...}}'
)


def spec_from_json(data: str | dict) -> tuple[GeneratorSpec, int | None]:
    """Parse a generator config; returns (spec, depth or None).

    See docs/generator-config.schema.json for the documented schema.
    """
    obj = json.loads(data) if isinstance(data, str) else data
    typ = None
    try:
        gen = obj["generator"]
        typ = gen["type"]
        if typ == "uniform":
            model: GeneratorModel = Uniform()
        elif typ == "bernoulli":
            model = Bernoulli(gen["weights"])
        elif typ == "mixture":
            comps = tuple(item["weights"] for item in gen["mixture"])
            probs = tuple(item["prob"] for item in gen["mixture"])
            model = CascadeFiniteMixture(comps, probs)
        elif typ == "dirichlet":
            model = CascadeDirichlet(gen["concentration"])
        elif typ == "cantor_middle_half":
            model = CantorMiddleHalf()
        else:
            raise ValueError(f"unknown generator type {typ!r}")
        d, seed, depth = obj["d"], obj.get("seed", 0), obj.get("depth")
        if not all(type(n) is int for n in (d, seed, 0 if depth is None else depth)):
            raise TypeError("d, seed and depth must be ints, not truncated")
    except (KeyError, TypeError) as exc:
        named = "" if typ is None else f" for type {typ!r}"
        raise ValueError(
            f"malformed generator config{named} (expected {_SCHEMA_HINT})"
        ) from exc
    return GeneratorSpec(d, model, seed), depth


def spec_to_json(spec: GeneratorSpec) -> str:
    m = spec.model
    if isinstance(m, Uniform):
        gen: dict = {"type": "uniform"}
    elif isinstance(m, Bernoulli):
        gen = {"type": "bernoulli", "weights": list(m.weights)}
    elif isinstance(m, CascadeFiniteMixture):
        gen = {
            "type": "mixture",
            "mixture": [
                {"weights": list(c), "prob": p}
                for c, p in zip(m.components, m.probs)
            ],
        }
    elif isinstance(m, CascadeDirichlet):
        gen = {"type": "dirichlet", "concentration": list(m.concentration)}
    else:
        gen = {"type": "cantor_middle_half"}
    obj = {"d": spec.d, "seed": spec.seed, "generator": gen}
    return json.dumps(obj, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Homotheties: exact dyadic pushforwards


@dataclass(frozen=True)
class Homothety:
    """The map x -> ratio * x + translation with a dyadic ratio.

    ``ratio`` must be a power of two in (0, 1/2) so that dyadic cubes pull
    back to dyadic boxes and the pushforward stays exact on the dyadic frame.
    Translations are dyadic rationals (every float is); the image box must
    stay inside the unit cube, so componentwise t + ratio <= 1.  The
    random-translation experiment samples its t from [0, 1/2)^d, but general
    pushforwards may translate anywhere the image fits.
    """

    ratio: float
    translation: tuple[float, ...]

    def __post_init__(self):
        if not 0.0 < self.ratio < 0.5:
            raise ValueError(f"ratio must lie strictly inside (0, 1/2): {self.ratio}")
        mant, _ = math.frexp(self.ratio)
        if mant != 0.5:
            raise ValueError(f"ratio must be a power of two, got {self.ratio}")
        for t in self.translation:
            if not 0.0 <= t < 1.0:
                raise ValueError(f"translation component {t} outside [0, 1)")

    @property
    def log2_ratio(self) -> int:
        """m with ratio = 2^-m."""
        return -(math.frexp(self.ratio)[1] - 1)

    def translation_grid(self) -> tuple[tuple[int, ...], int]:
        """Translation as integer numerators over a common 2^-grid."""
        parts = [t.as_integer_ratio() for t in self.translation]
        grid = max((den.bit_length() - 1 for _, den in parts), default=0)
        nums = tuple(num << (grid - (den.bit_length() - 1)) for num, den in parts)
        return nums, grid


def _descend(
    offspring: Callable[[CubeAddress], tuple[CubePartition, Weights]],
    start: Iterable[tuple[CubeAddress, float]],
    where: Callable[[CubeAddress, float], int],
) -> Iterator[tuple[CubeAddress, float]]:
    """Yield the (node, mass) pairs at or below the ``start`` pairs that
    ``where`` takes; a child's mass is its parent's times its weight.

    ``where(node, mass)`` returns _TAKE (yield the node), _DROP (skip its
    subtree) or _SPLIT (visit its children).  An explicit stack replaces
    recursion, so depth costs no stack frames; a split zero-mass node expands
    into ``subdivide_uniform``'s children at mass 0 without being realized.
    """
    stack = list(start)
    while stack:
        node, node_mass = stack.pop()
        verdict = where(node, node_mass)
        if verdict == _TAKE:
            yield node, node_mass
        elif verdict == _SPLIT and node_mass == 0.0:
            stack.extend((ch, 0.0) for ch in subdivide_uniform(node).children)
        elif verdict == _SPLIT:
            part, w = offspring(node)
            stack.extend((ch, node_mass * wj) for ch, wj in zip(part.children, w))


def _box_mass(
    offspring: Callable[[CubeAddress], tuple[CubePartition, Weights]],
    anchor: CubeAddress,
    lo: tuple[int, ...],
    hi: tuple[int, ...],
    scale: int,
) -> float:
    """mu(box) / mu(anchor) for the box prod [lo_i 2^-scale, hi_i 2^-scale)
    inside the cube ``anchor``, exactly on addresses, where ``offspring`` is
    mu's node data.

    Descends from the anchor; a node is either disjoint from the box,
    contained in it, or splits further (box corners are integers at ``scale``,
    so level-``scale`` nodes never straddle).
    """
    if any(h <= l for l, h in zip(lo, hi)):
        return 0.0

    def where(node: CubeAddress, node_mass: float) -> int:
        if node_mass == 0.0:
            return _DROP
        shift = scale - node.level
        inside = True
        for c, l, h in zip(node.coords, lo, hi):
            nlo = c << shift
            nhi = nlo + (1 << shift)
            if nhi <= l or h <= nlo:
                return _DROP
            if not (l <= nlo and nhi <= h):
                inside = False
        return _TAKE if inside else _SPLIT

    return math.fsum(m for _, m in _descend(offspring, [(anchor, 1.0)], where))


def apply_homothety(mu: TreeMeasure, h: Homothety, depth: int) -> TreeMeasure:
    """Pushforward of ``mu`` under x -> ratio*x + t on the standard dyadic
    frame, realized lazily to ``depth`` dyadic levels.

    Total mass is preserved; dyadic cubes of side 2^-m map onto dyadic cubes
    of side 2^-(m + log2(1/ratio)) whenever the translation lies on the
    matching grid, and masses come out exact because box/cube intersections
    are resolved in integer coordinates.  A node's weights are the masses of
    its children's source boxes relative to the source cube anchoring its own
    box, so they do not underflow with depth.  Each node is realized once and
    kept, since it costs box-mass descents of the source.  Those descents
    overlap from node to node, so each source node is realized once per
    pushforward too: a memo of the source's offspring lives as long as the
    returned measure and holds the distinct source nodes its realizations
    touched: one trial's, in the translation experiment.
    Known limit: a translation with hundreds of binary digits can leave a
    box's anchor hundreds of levels above it, and then its relative mass can
    underflow; the translation experiment draws translations of at most 50
    digits (depth <= 50).
    """
    _require_dyadic(mu)
    if len(h.translation) != mu.d:
        raise ValueError("translation dimension does not match the measure")
    m = h.log2_ratio
    t_num, t_grid = h.translation_grid()
    for t in h.translation:
        if t + h.ratio > 1.0:
            raise ValueError("image support would leave the unit cube")
    # Deepest source level any realization can touch.
    need = max(depth, t_grid) - m
    if need > mu.depth:
        raise ValueError(
            f"pushforward to depth {depth} needs the source realized to level "
            f"{need}, above its maximum {mu.depth}"
        )

    def source_box(q: CubeAddress) -> tuple[tuple[int, ...], tuple[int, ...], int]:
        """q's preimage at source level ``scale``, clipped to [0, 2^scale)^d."""
        scale = max(q.level - m, t_grid - m, 0)
        shift = scale + m - q.level
        lo = [(c << shift) - (tn << (scale + m - t_grid))
              for c, tn in zip(q.coords, t_num)]
        hi = tuple(min(l + (1 << shift), 1 << scale) for l in lo)
        return tuple(max(l, 0) for l in lo), hi, scale

    offspring = functools.cache(mu.offspring)
    source = TreeMeasure(mu.d, mu.depth, offspring)
    positive = {mu.root}  # source cubes known to carry mass

    def has_mass(anchor: CubeAddress) -> bool:
        """mu(anchor) > 0, testing only the weights below the nearest
        ancestor known to carry mass; relative masses cannot see a zero there."""
        known = anchor
        while known not in positive:
            known = known.ancestor(known.level - 1)
        for _, part, w, idx in source.steps_to(anchor, start=known):
            if w[idx] == 0.0:
                return False
            positive.add(part.children[idx])
        return True

    def realizer(q: CubeAddress) -> tuple[CubePartition, Weights]:
        part = subdivide_uniform(q)
        lo, hi, scale = source_box(q)
        parent_mass = 0.0
        if all(l < h for l, h in zip(lo, hi)):
            # the anchor: the deepest source cube containing the box
            level = scale - max((l ^ (h - 1)).bit_length() for l, h in zip(lo, hi))
            anchor = CubeAddress(level, tuple(l >> (scale - level) for l in lo))
            parent_mass = _box_mass(offspring, anchor, lo, hi, scale)
        if parent_mass == 0.0 or not has_mass(anchor):
            raise UnrealizedNodeError(f"zero-mass node {q.serialize()} is not expanded")
        child_masses = [_box_mass(offspring, anchor, *source_box(c))
                        for c in part.children]
        total = math.fsum(child_masses)
        if abs(total - parent_mass) > 1e-10 * parent_mass:
            raise ArithmeticError(
                f"mass conservation violated at {q.serialize()}: "
                f"{total} vs {parent_mass}"
            )
        return part, tuple(cm / total for cm in child_masses)

    return TreeMeasure(mu.d, depth, functools.cache(realizer))
