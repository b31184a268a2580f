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
rebuilding with the same seed is identical.  Cascade nodes draw from one
Philox per process, re-keyed for each node by assigning its state: the key is
a 16-byte keyed BLAKE2b digest of the node's address, counter 0, the stream a
fresh Philox with that key gives (see ``_node_generator``).  The hash reads
d * ceil(level / 8) coordinate bytes, so a node's cost still grows with its
level, as does address arithmetic.  Path and trial draws come from numpy's
``Philox(SeedSequence((seed mod 2^64, stream, index)))`` (``derived_rng``).
A Dirichlet node with equal concentrations a >= 0.1 makes
the one gamma call ``Generator.dirichlet`` makes and normalizes the draws as
it does, without its per-call checks; any other Dirichlet node calls
``dirichlet`` itself (see ``node_weights``).
"""

from __future__ import annotations

import bisect
import functools
import json
import math
import numbers
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterable, Sequence

import numpy as np

from .dyadic import CubeAddress, CubePartition, _addr, _ancestor, _index, root, subdivide_uniform

Weights = tuple[float, ...]

#: Stream tags of ``derived_rng``: path draws and trial draws.  Node draws
#: are keyed apart, by a BLAKE2b hash of the address tagged ``_NODE_PERSON``.
_PATH_STREAM = 1
_TRIAL_STREAM = 2
_NODE_PERSON = b"porodim-node"

_WEIGHT_SUM_TOL = 1e-12

#: Largest ambient dimension a generator accepts: a node has 2^d children.
MAX_DIM = 8

#: Default cap on ``build_tree_measure`` depths.  2^-60 is far below any
#: experiment's resolution; callers that genuinely need deeper trees pass a
#: larger ``max_level``.
DEFAULT_MAX_LEVEL = 60

class UnrealizedNodeError(ValueError):
    """A query reads past the measure's depth, off its lattice or below zero mass."""


def _u64(seed: int) -> int:
    return seed & 0xFFFFFFFFFFFFFFFF


@functools.cache
def _process_generator() -> np.random.Generator:
    """The one node generator of this process, built on first use: importing
    numpy.random costs as much as importing this package."""
    return np.random.Generator(np.random.Philox(0))


@functools.lru_cache(maxsize=4)
def _node_hasher(seed: int):
    """The BLAKE2b state keyed by ``seed`` (an unsigned 64-bit int) and
    tagged ``_NODE_PERSON``, before any data: keying compresses a 128-byte
    key block, so each node copies this state instead of keying afresh.  A
    few seeds are kept, for runs that alternate between measures.  hashlib is
    imported here, on the first cascade node, as numpy.random is (and
    numpy.random imports hashlib itself): importing it with this package
    loads OpenSSL, 3.7 MB of RSS, into runs that realize no cascade node,
    such as ``solve``, ``oracle`` and ``hmin``."""
    import hashlib
    return hashlib.blake2b(digest_size=16, key=seed.to_bytes(8, "little"), person=_NODE_PERSON)


def _node_generator(seed: int, q: CubeAddress) -> np.random.Generator:
    """The process's node generator, re-keyed to node ``q``'s stream: counter
    0 and an empty buffer, as a fresh Philox starts, under the 16-byte
    BLAKE2b digest of q's address with key ``_u64(seed)`` and tag
    ``_NODE_PERSON``, taken as ``Philox(key=int.from_bytes(digest,
    "little"))`` takes it.  The address is the level as 8 bytes and each
    coordinate as max(1, ceil(level / 8)) bytes, all little-endian: one
    width per level, so the encoding is injective for a given d.  A hash of
    the address keeps the stream a pure function of (seed, q), whatever was
    realized before.  The hash starts from a copy of the seed's keyed
    state (``_node_hasher``), which gives the digest keying afresh gives.
    hashlib hashes in C, but d * level / 8 bytes, so the cost grows with
    the level.  The next call re-keys the generator, so draw from it before
    realizing another node."""
    level, coords = q
    width = (level + 7) >> 3 or 1
    h = _node_hasher(_u64(seed)).copy()
    h.update(level.to_bytes(8, "little"))
    for c in coords:
        h.update(c.to_bytes(width, "little"))
    key = int.from_bytes(h.digest(), "little")
    rng = _process_generator()
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (key & 0xFFFFFFFFFFFFFFFF, key >> 64)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return rng


def derived_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    """Generator for the ``index``-th path/trial, independent of schedule:
    numpy's Philox seeded by ``SeedSequence((seed mod 2^64, stream, index))``."""
    key = (_u64(_index(seed, "seed")), stream, _index(index, "index", 0))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


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

    @functools.cached_property
    def _alpha(self) -> np.ndarray:
        """The concentration as the float array ``Generator.dirichlet`` reads."""
        return np.array(self.concentration)


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
    """Offspring vector at node ``q``; a pure function of (spec, q).

    A cascade node draws from its own stream (``_node_generator``), keyed
    by a hash of its address whose cost grows with the level.  A
    Dirichlet node's vector is ``Generator.dirichlet``'s on that stream, bit
    for bit.  When every concentration is the same a >= 0.1, the node makes
    the one call ``dirichlet`` makes, ``standard_gamma(a, 2^d)``, sums the
    draws left to right into acc and multiplies each by 1 / acc, as
    ``dirichlet`` does, without its per-call checks.  Any other node
    (unequal concentrations, or a < 0.1, where numpy breaks a stick with
    betas) calls ``dirichlet`` itself.  The node-stream tests compare both
    paths with ``dirichlet``.
    """
    m = spec.model
    if isinstance(m, Uniform):
        return (2.0 ** -spec.d,) * (1 << spec.d)
    if isinstance(m, Bernoulli):
        return m.weights
    if isinstance(m, CantorMiddleHalf):
        if q.level % 2 == 0:
            return (0.5, 0.5)
        return (1.0, 0.0) if q.coords[0] % 2 == 0 else (0.0, 1.0)
    rng = _node_generator(spec.seed, q)
    if isinstance(m, CascadeFiniteMixture):
        u = rng.random()
        acc = 0.0
        for comp, p in zip(m.components, m.probs):
            acc += p
            if u < acc:
                return comp
        return m.components[-1]
    # CascadeDirichlet: GeneratorSpec admits no other model
    conc = m.concentration
    a = conc[0]
    if a < 0.1 or conc.count(a) != len(conc):
        return tuple(rng.dirichlet(m._alpha).tolist())
    gammas = rng.standard_gamma(a, len(conc)).tolist()
    acc = 0.0
    for g in gammas:  # not sum(), which compensates from Python 3.12
        acc += g
    inv = 1.0 / acc
    return tuple([g * inv for g in gammas])


# ---------------------------------------------------------------------------
# Tree measures


class TreeMeasure:
    """An immutable measure realized as a partition tree.

    Node data comes on demand from one of two sources.  ``weights(q) ->
    Weights`` gives a dyadic tree: every partition is ``subdivide_uniform``'s
    and readers that need no partition get the offspring vector alone.
    ``realizer(q) -> (CubePartition, Weights)`` gives any partition tree,
    which porosity probes and pushforwards reject as not dyadic.  ``depth``
    bounds the levels any query reads (``check_reach``), and so the number of
    tree steps along any path.  The measure keeps no node data: every
    query runs its source, and a source that is costly to repeat memoizes
    itself, as ``apply_homothety``'s does.
    """

    def __init__(
        self,
        d: int,
        depth: int,
        realizer: Callable[[CubeAddress], tuple[CubePartition, Weights]] | None = None,
        *,
        weights: Callable[[CubeAddress], Weights] | None = None,
    ):
        if (realizer is None) == (weights is None):
            raise TypeError(
                "TreeMeasure takes exactly one of a realizer and a weights function"
            )
        self.depth = _index(depth, "depth", 0)
        self.root = root(d)
        self.d = d
        self._realizer = realizer
        self._weights = weights
        #: True when every partition is the uniform dyadic split.
        self.dyadic_splits = weights is not None
        #: The offspring vector every node shares (product measures), else None.
        self.product_weights: Weights | None = None

    def offspring(self, q: CubeAddress) -> tuple[CubePartition, Weights]:
        """Partition and conditional offspring vector at ``q``."""
        if q[0] >= self.depth:  # check_reach(q.level + 1), without a call per node
            self.check_reach(q[0] + 1, q)
        if self._realizer is None:
            return subdivide_uniform(q), self._weights(q)
        return self._realizer(q)

    def weights(self, q: CubeAddress) -> Weights:
        """The offspring vector at ``q``: ``offspring(q)[1]``."""
        if q[0] >= self.depth:
            self.check_reach(q[0] + 1, q)
        if self._weights is None:
            return self._realizer(q)[1]
        return self._weights(q)

    def check_reach(self, level: int, query: str | CubeAddress) -> None:
        """Raise UnrealizedNodeError unless ``level`` <= ``depth``: the deepest
        level a query reads, one below a node for its offspring.  ``query`` names
        the query, or is the node it starts at, formatted only on failure."""
        if level > self.depth:
            if isinstance(query, CubeAddress):
                query = f"a query at node {query.serialize()}"
            raise UnrealizedNodeError(f"{query} reads level {level}, past the "
                                      f"measure's maximum level {self.depth}")

    def steps_to(self, target: CubeAddress, last: int | None = None):
        """The lineage from the root toward ``target`` as ``walk`` steps
        (node, partition, weights, idx).

        Only nodes at levels <= ``last`` (default target.level - 1) take a
        step, so the lineage reads level last + 1.  Raises
        UnrealizedNodeError when no child of a node contains ``target``.
        """
        if last is None:
            last = target.level - 1
        self.check_reach(last + 1, target)
        cur = self.root
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

    def walk(self, seed: int | np.random.Generator, steps: int):
        """Single-pass mu-random walk; yields (node, partition, weights, idx).

        Each child is drawn with its conditional probability, so the visited
        lineage is distributed as the cubes around a mu-random point.
        ``dimension.sampled_trajectory`` searches the same ``_choice_table``
        in numpy for product measures.
        """
        steps = _index(steps, "steps", 0)
        self.check_reach(steps, f"the {steps}-step walk")
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

    def weights(q: CubeAddress) -> Weights:
        return node_weights(spec, q)

    mu = TreeMeasure(spec.d, depth, weights=weights)
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
    if depth is not None and depth < 1:
        raise ValueError(f"the config's depth must be >= 1, got {depth}")
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


def _box_mass(offspring: Callable[[CubeAddress], tuple[CubePartition, Weights]],
              anchor: CubeAddress, lo: Sequence[int], hi: Sequence[int], scale: int,
              mid: Sequence[int]) -> tuple[float, list[float]]:
    """mu(box) / mu(anchor) for the box prod [lo_i 2^-scale, hi_i 2^-scale)
    inside the cube ``anchor``, and the same for the box's 2^d halves cut at
    ``mid``, in ``_children`` digit order (bit i set: the half above mid_i),
    exactly on addresses, where ``offspring`` is mu's node data.

    One descent from the anchor on an explicit stack, so depth costs no stack
    frames; a child's mass is its parent's times its weight, and only a child
    of nonzero mass is pushed.  A node disjoint from the box is dropped, one
    straddling it splits.  One inside it is counted once in the box (a flag
    keeps its descendants out) and, if it lies on one side of mid on every
    axis, in that half; else it splits.  Box corners and mid are integers at
    ``scale``, so level-``scale`` nodes never split.
    """
    box, halves = [], [[] for _ in range(1 << len(mid))]
    stack = [(anchor, 1.0, False)]
    pop, push = stack.pop, stack.append
    while stack:
        node, node_mass, counted = pop()
        level, coords = node
        shift = scale - level
        inside, split, half, bit = True, False, 0, 1
        for c, l, h, m in zip(coords, lo, hi, mid):
            nlo = c << shift
            nhi = (c + 1) << shift
            if nhi <= l or h <= nlo:
                break  # disjoint from the box
            if nlo < l or h < nhi:
                inside = False
            elif m <= nlo:
                half |= bit
            elif m < nhi:
                split = True  # straddles mid
            bit <<= 1
        else:
            if inside and not counted:
                box.append(node_mass)
                counted = True
            if inside and not split:
                halves[half].append(node_mass)
            else:
                part, w = offspring(node)
                for child, wj in zip(part.children, w):
                    child_mass = node_mass * wj
                    if child_mass:
                        push((child, child_mass, counted))
    return math.fsum(box), [math.fsum(p) for p in halves]


def apply_homothety(mu: TreeMeasure, h: Homothety, depth: int) -> TreeMeasure:
    """Pushforward of ``mu`` under x -> ratio*x + t on the standard dyadic
    frame, realized lazily to ``depth`` dyadic levels.

    Total mass is preserved; dyadic cubes of side 2^-m map onto dyadic cubes
    of side 2^-(m + log2(1/ratio)) whenever the translation lies on the
    matching grid, and masses come out exact because box/cube intersections
    are resolved in integer coordinates.  A node's weights are the masses of
    its children's source boxes, the halves of its own box, relative to the
    source cube anchoring that box, so they do not underflow with depth.  One
    pass over the axes clips the box and finds its mid and anchor, and one
    ``_box_mass`` descent weighs the box and all its halves; a node's vector
    is computed once and kept.  The descents realize source nodes through one
    memo of the source's offspring, kept as long as the returned measure, so
    each is realized once per pushforward (one trial's nodes, in the
    translation experiment).  The check that an anchor carries mass reads
    the memo down its lineage from the nearest ancestor known to carry mass.
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
    mu.check_reach(max(depth, t_grid) - m, f"the pushforward to depth {depth}")

    offspring = functools.cache(mu.offspring)
    positive = {mu.root}  # source cubes known to carry mass

    def has_mass(anchor: CubeAddress) -> bool:
        """mu(anchor) > 0, testing only the weights below the nearest
        ancestor known to carry mass; relative masses cannot see a zero there."""
        if anchor in positive:
            return True
        top = anchor[0] - 1
        while (node := _ancestor(anchor, top)) not in positive:
            top -= 1
        for level in range(top + 1, anchor[0] + 1):
            part, w = offspring(node)
            node = _ancestor(anchor, level)
            if w[part.children.index(node)] == 0.0:
                return False
            positive.add(node)
        return True

    def weights(q: CubeAddress) -> Weights:
        # q's preimage at its children's scale, halved before it is clipped
        level, coords = q
        scale = max(level + 1 - m, t_grid - m, 0)
        shift, t_shift, top = scale + m - level, scale + m - t_grid, 1 << scale
        lo, hi, mid, up, parent_mass = [], [], [], 0, 0.0
        for c, tn in zip(coords, t_num):
            u = (c << shift) - (tn << t_shift)  # the unclipped lower corner
            l, h = max(u, 0), min(u + (1 << shift), top)
            if h <= l:
                break  # the box is empty
            lo.append(l)
            hi.append(h)
            mid.append(u + (1 << (shift - 1)))
            up = max(up, (l ^ (h - 1)).bit_length())
        else:
            # the anchor: the deepest source cube containing the box
            anchor = _addr(scale - up, tuple([l >> up for l in lo]))
            parent_mass, child_masses = _box_mass(offspring, anchor, lo, hi, scale, mid)
        if parent_mass == 0.0 or not has_mass(anchor):
            raise UnrealizedNodeError(f"zero-mass node {q.serialize()} is not expanded")
        total = math.fsum(child_masses)
        if abs(total - parent_mass) > 1e-10 * parent_mass:
            raise ArithmeticError(
                f"mass conservation violated at {q.serialize()}: "
                f"{total} vs {parent_mass}"
            )
        return tuple([cm / total for cm in child_masses])

    return TreeMeasure(mu.d, depth, weights=functools.cache(weights))
