"""Plain references the tests compare the library against: each computes a
quantity the direct way, or checks what no library path needs checked."""

import hashlib
import itertools
import math

import numpy as np

from porodim.bounds import psi
from porodim.dyadic import subdivide_uniform
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
