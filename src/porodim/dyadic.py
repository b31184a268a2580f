"""Dyadic cube addressing and partition arithmetic.

A cube is the half-open box prod_i [c_i 2^-level, (c_i + 1) 2^-level) inside
the unit cube of R^d, identified by its level and integer coordinates.  All
disjointness and cover checks run on integer addresses, never on floats, so
they are exact.

Addresses are validated once, at the public ``CubeAddress`` constructor.  The
addresses this module derives from a valid one (children, ancestors, the
cubes of a split) are valid by construction and are built with ``_addr``,
which skips the check.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass


class CubeAddress(tuple):
    """A dyadic cube: ``level`` steps down the full dyadic tree, at ``coords``.

    The address is the tuple ``(level, coords)``, so hashing and equality run
    in C; it compares equal to that plain tuple too.
    """

    __slots__ = ()

    def __new__(cls, level: int, coords: tuple[int, ...]) -> "CubeAddress":
        level = _index(level, "level", 0)
        try:
            coords = tuple(_index(c, "coordinate") for c in coords)
        except TypeError:
            raise ValueError(f"coords {coords!r} must be an integer sequence") from None
        if not coords:
            raise ValueError("coords must have at least one component")
        for c in coords:
            # bit_length avoids materializing 2^level for very deep cubes
            if c < 0 or c.bit_length() > level:
                raise ValueError(
                    f"coordinate {c} outside [0, 2^{level}) at level {level}"
                )
        return tuple.__new__(cls, (level, coords))

    def __getnewargs__(self) -> tuple[int, tuple[int, ...]]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"CubeAddress(level={self.level!r}, coords={self.coords!r})"

    level = property(operator.itemgetter(0), doc="Steps down the dyadic tree.")
    coords = property(operator.itemgetter(1), doc="Integer coordinates at ``level``.")

    @property
    def d(self) -> int:
        return len(self.coords)

    def ancestor(self, level: int) -> "CubeAddress":
        """The unique level-``level`` cube containing this one."""
        level = _index(level, "ancestor level")
        if not 0 <= level <= self.level:
            raise ValueError(f"ancestor level {level} outside [0, {self.level}]")
        shift = self.level - level
        return _addr(level, tuple(c >> shift for c in self.coords))

    def contains(self, other: "CubeAddress") -> bool:
        """True when ``other`` is this cube or a descendant of it."""
        if other.d != self.d or other.level < self.level:
            return False
        shift = other.level - self.level
        return all((oc >> shift) == c for oc, c in zip(other.coords, self.coords))

    def uniform_child(self, offset_index: int) -> "CubeAddress":
        """Child one level down; bit i of ``offset_index`` is the offset on axis i."""
        if not 0 <= _index(offset_index, "offset index") < (1 << self.d):
            raise ValueError(f"offset index {offset_index} outside [0, 2^{self.d})")
        return subdivide_uniform(self).children[offset_index]

    def serialize(self) -> str:
        """Wire format ``level:c0,c1,...``."""
        return f"{self.level}:{','.join(str(c) for c in self.coords)}"


def _addr(level: int, coords: tuple[int, ...]) -> CubeAddress:
    """An address derived from a valid one, built without the constructor's
    check: the caller guarantees int coords with 0 <= coords[i] < 2^level."""
    return tuple.__new__(CubeAddress, (level, coords))


def _index(value: int, what: str, least: int | None = None) -> int:
    """``value`` as a Python int; ValueError for a non-integer such as 2.0 or
    True, or for an integer below ``least`` when one is given."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise ValueError(f"{what} must be >= {least}, got {value}")
    return value


def root(d: int) -> CubeAddress:
    """The unit cube [0,1)^d."""
    return CubeAddress(0, (0,) * _index(d, "ambient dimension", 1))


@dataclass(frozen=True)
class CubePartition:
    """A cube split into disjoint dyadic sub-cubes covering it.

    ``hole`` is set by porous splits and identifies the deep child carrying
    the small mass; it distinguishes a k=1 porous split from the uniform
    split, which are geometrically identical.
    """

    parent: CubeAddress
    children: tuple[CubeAddress, ...]
    hole: CubeAddress | None = None


def subdivide_uniform(parent: CubeAddress) -> CubePartition:
    """Split ``parent`` into its 2^d dyadic children."""
    level = parent.level + 1
    coords = parent.coords
    children = tuple(
        _addr(level, tuple((c << 1) | ((j >> i) & 1) for i, c in enumerate(coords)))
        for j in range(1 << len(coords))
    )
    return CubePartition(parent, children)


def porous_split(parent: CubeAddress, hole: CubeAddress, k: int) -> CubePartition:
    """Split ``parent`` into the depth-k ``hole`` plus, for each level
    j = 1..k, the 2^d - 1 cubes at depth j not containing the hole.

    The resulting partition has (2^d - 1) k + 1 children and is 2^-k-regular.
    Children are ordered level 1..k (lexicographic within a level), hole last.
    """
    if k < 1:
        raise ValueError(f"hole depth k must be >= 1, got {k}")
    if hole.level != parent.level + k or not parent.contains(hole):
        raise ValueError(
            f"hole {hole.serialize()} is not a depth-{k} descendant "
            f"of {parent.serialize()}"
        )
    children: list[CubeAddress] = []
    spine = [hole.ancestor(parent.level + j) for j in range(k + 1)]  # spine[0] = parent
    for j in range(1, k + 1):
        siblings = subdivide_uniform(spine[j - 1]).children
        children.extend(
            sorted((c for c in siblings if c != spine[j]), key=lambda c: c.coords)
        )
    children.append(hole)
    return CubePartition(parent, tuple(children), hole=hole)


def validate_partition(part: CubePartition) -> None:
    """Check disjointness, exact cover and child counts; raise on violation.

    All checks are exact integer arithmetic: two dyadic cubes intersect iff
    one contains the other, and volumes are counted in units of the finest
    child level.
    """
    parent = part.parent
    if not part.children:
        raise ValueError("partition has no children")
    for c in part.children:
        if c.d != parent.d:
            raise ValueError("child dimension mismatch")
        if c.level <= parent.level or not parent.contains(c):
            raise ValueError(f"child {c.serialize()} is not a proper descendant")
    for a, b in itertools.combinations(part.children, 2):
        if a.contains(b) or b.contains(a):
            raise ValueError(
                f"children {a.serialize()} and {b.serialize()} are not disjoint"
            )
    lmax = max(c.level for c in part.children)
    d = parent.d
    cells = sum(1 << ((lmax - c.level) * d) for c in part.children)
    if cells != 1 << ((lmax - parent.level) * d):
        raise ValueError("children do not cover the parent exactly")
