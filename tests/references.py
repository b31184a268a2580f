"""Plain references the tests compare the library against: each computes a
quantity the direct way, or checks what no library path needs checked."""

import functools
import hashlib
import itertools
import math
from typing import Callable

import numpy as np

from porodim.bounds import psi
from porodim.dyadic import CubeAddress, CubePartition, _addr, subdivide_uniform
from porodim.measure import TreeMeasure, UnrealizedNodeError, Weights, _require_dyadic
from porodim.oracle import _golden_section, reduced_objective


def node_rng(seed, q):
    """Node ``q``'s generator, a fresh Philox keyed by the 16-byte BLAKE2b
    digest, under the key seed mod 2^64 (8 bytes) and the tag b"porodim-node",
    of q's level (8 bytes) and coordinates (max(1, ceil(level / 8)) bytes
    each), all little-endian."""
    width = max(1, math.ceil(q.level / 8))
    address = q.level.to_bytes(8, "little") + b"".join(
        c.to_bytes(width, "little") for c in q.coords)
    digest = hashlib.blake2b(address, digest_size=16, key=(seed % 2**64).to_bytes(8, "little"),
                             person=b"porodim-node").digest()
    return np.random.Generator(np.random.Philox(key=int.from_bytes(digest, "little")))


def log_mass(mu, q):
    """log mu(q), summed along q's lineage; -inf from the first zero weight."""
    total = 0.0
    for _, _, w, idx in mu.steps_to(q):
        if w[idx] == 0.0:
            return -math.inf
        total += math.log(w[idx])
    return total


def frontiers(mu, q, k):
    """q's depth-j descendants, j = 1..k, as dicts address -> conditional
    mass in subdivide_uniform's child order: each node's mass is its
    parent's times its weight, and a zero-mass node's children get 0 without
    the node being realized."""
    out, frontier = [], {q: 1.0}
    for _ in range(k):
        deeper = {}
        for node, mass in frontier.items():
            children = subdivide_uniform(node).children
            weights = mu.offspring(node)[1] if mass != 0.0 else (0.0,) * len(children)
            for child, w in zip(children, weights):
                deeper[child] = mass * w
        out.append(frontier := deeper)
    return out


def validate_partition(part):
    """Raise ValueError unless the children are proper descendants of the
    parent, pairwise disjoint, and cover it, counted in finest-level cells."""
    parent, children = part.parent, part.children
    if not children:
        raise ValueError("partition has no children")
    for c in children:
        if len(c.coords) != len(parent.coords):
            raise ValueError("child dimension mismatch")
        if c.level <= parent.level or not parent.contains(c):
            raise ValueError(f"child {c.serialize()} is not a proper descendant")
    for a, b in itertools.combinations(children, 2):
        if a.contains(b) or b.contains(a):
            raise ValueError(f"children {a.serialize()} and {b.serialize()} are not disjoint")
    finest, d = max(c.level for c in children), len(parent.coords)
    if sum(1 << (finest - c.level) * d for c in children) != 1 << (finest - parent.level) * d:
        raise ValueError("children do not cover the parent exactly")


def alpha_vector(d, k):
    """Side lengths of a porous split's children relative to the parent, in
    porous_split's order: 2^d - 1 cubes of side 2^-j at j = 1..k, the hole."""
    return tuple(2.0**-j for j in range(1, k + 1) for _ in range((1 << d) - 1)) + (2.0**-k,)


def raw_objective(d, k, p):
    """sum psi(p_i) / sum p_i log(1/alpha_i) over a porous split's masses p."""
    num = math.fsum(psi(x) for x in p)
    return num / math.fsum(x * -math.log(a) for x, a in zip(p, alpha_vector(d, k)))


def reduce_within_levels(d, k, p):
    """p with each level's 2^d - 1 masses replaced by their mean, the hole kept."""
    n = (1 << d) - 1
    means = [math.fsum(p[j * n:(j + 1) * n]) / n for j in range(k)]
    return tuple(m for m in means for _ in range(n)) + p[-1:]


def to_raw(point):
    """An oracle ReducedPoint's masses in porous_split's order."""
    return tuple(q for q in point.q for _ in range((1 << point.d) - 1)) + (point.p,)


def polish(d, k, eps, start):
    """Coordinate-wise golden-section ascent from the free coordinates
    ``start`` = (q_1..q_{k-1}, p), each probe a full point and a full
    reduced_objective call: (value, (q, p)) at the final point."""
    L = (1 << d) - 1

    def point(z):
        qk = (1.0 - z[-1]) / L - math.fsum(z[:-1])
        return (*z[:-1], max(qk, 0.0)), z[-1]

    def func(z):
        return reduced_objective(d, k, *point(z))

    z = list(start)
    fz = func(z)
    for _ in range(60):
        improved = False
        for i in range(len(z)):
            if i == len(z) - 1:
                hi_i = min(eps, 1.0 - L * math.fsum(z[:-1]))
            else:
                hi_i = (1.0 - z[-1]) / L - (math.fsum(z[:-1]) - z[i])
            if hi_i <= 0.0:
                continue

            def along(x, i=i):
                trial = z.copy()
                trial[i] = x
                return func(trial)

            xi = _golden_section(along, 0.0, hi_i)
            fxi = along(xi)
            if fxi > fz + 1e-14:
                z[i], fz = xi, fxi
                improved = True
        if not improved:
            break
    return fz, point(z)

def eta_exact(components, probs, k, eps):
    """The chance that a node of the cascade drawing ``components`` by
    ``probs`` is porous at (k, eps): 1 - G_k(eps), where G_j(x), the chance
    that every depth-j descendant has conditional mass above x, is [x < 1]
    at j = 0 and sum_c p_c prod_i G_{j-1}(x / c_i) after, 0 at c_i = 0."""
    def g(j, x):
        if j == 0:
            return float(x < 1.0)
        return math.fsum(p * math.prod(g(j - 1, x / ci) if ci > 0.0 else 0.0 for ci in c)
                         for c, p in zip(components, probs))
    return 1.0 - g(k, eps)


# ---------------------------------------------------------------------------
# The pushforward written plainly: boxes built as tuples, a box descent that
# pushes every child and drops massless nodes when popped, and ancestors from
# the public CubeAddress.ancestor.  measure.apply_homothety must give the same
# weights, bit for bit, and raise UnrealizedNodeError at the same nodes.


def box_mass(
    offspring: Callable[[CubeAddress], tuple[CubePartition, Weights]],
    anchor: CubeAddress,
    lo: tuple[int, ...],
    hi: tuple[int, ...],
    scale: int,
    mid: tuple[int, ...],
) -> tuple[float, list[float]]:
    """mu(box) / mu(anchor) for the box prod [lo_i 2^-scale, hi_i 2^-scale)
    inside the cube ``anchor``, and the same for the box's 2^d halves cut at
    ``mid``, in ``_children`` digit order (bit i set: the half above mid_i),
    exactly on addresses, where ``offspring`` is mu's node data.

    One descent from the anchor on an explicit stack, so depth costs no stack
    frames; a child's mass is its parent's times its weight.  A massless node
    or one disjoint from the box is dropped, one straddling it splits.  One
    inside it is counted once in the box (a flag keeps its descendants out)
    and, if it lies on one side of mid on every axis, in that half; else it
    splits.  Box corners and mid are integers at ``scale``, so level-``scale``
    nodes never split.
    """
    box, halves = [], [[] for _ in range(1 << len(mid))]
    stack = [(anchor, 1.0, False)]
    while stack:
        node, node_mass, counted = stack.pop()
        if node_mass == 0.0:
            continue
        shift = scale - node.level
        inside, split, half, bit = True, False, 0, 1
        for c, l, h, m in zip(node.coords, lo, hi, mid):
            nlo = c << shift
            nhi = nlo + (1 << shift)
            if nhi <= l or h <= nlo:
                break  # disjoint from the box
            if not (l <= nlo and nhi <= h):
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
                stack.extend((ch, node_mass * wj, counted)
                             for ch, wj in zip(part.children, w))
    return math.fsum(box), [math.fsum(p) for p in halves]


def pushforward(mu, h, depth):
    """``measure.apply_homothety`` written plainly, with ``box_mass``."""
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
        top = anchor.level
        while anchor.ancestor(top) not in positive:
            top -= 1
        for level in range(top, anchor.level):
            part, w = offspring(anchor.ancestor(level))
            child = anchor.ancestor(level + 1)
            if w[part.children.index(child)] == 0.0:
                return False
            positive.add(child)
        return True

    def weights(q: CubeAddress) -> Weights:
        # q's preimage at its children's scale, halved before it is clipped
        scale = max(q.level + 1 - m, t_grid - m, 0)
        shift = scale + m - q.level
        ulo = [(c << shift) - (tn << (scale + m - t_grid))
               for c, tn in zip(q.coords, t_num)]
        lo = tuple(max(l, 0) for l in ulo)
        hi = tuple(min(l + (1 << shift), 1 << scale) for l in ulo)
        parent_mass = 0.0
        if all(l < h for l, h in zip(lo, hi)):
            # the anchor: the deepest source cube containing the box
            level = scale - max((l ^ (h - 1)).bit_length() for l, h in zip(lo, hi))
            anchor = _addr(level, tuple(l >> (scale - level) for l in lo))
            mid = tuple(l + (1 << (shift - 1)) for l in ulo)
            parent_mass, child_masses = box_mass(offspring, anchor, lo, hi, scale, mid)
        if parent_mass == 0.0 or not has_mass(anchor):
            raise UnrealizedNodeError(f"zero-mass node {q.serialize()} is not expanded")
        total = math.fsum(child_masses)
        if abs(total - parent_mass) > 1e-10 * parent_mass:
            raise ArithmeticError(
                f"mass conservation violated at {q.serialize()}: "
                f"{total} vs {parent_mass}"
            )
        return tuple(cm / total for cm in child_masses)

    return TreeMeasure(mu.d, depth, weights=functools.cache(weights))
