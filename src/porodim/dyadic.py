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

import functools
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

    def ancestor(self, level: int) -> "CubeAddress":
        """The unique level-``level`` cube containing this one."""
        level = _index(level, "ancestor level")
        if not 0 <= level <= self.level:
            raise ValueError(f"ancestor level {level} outside [0, {self.level}]")
        return _ancestor(self, level)

    def contains(self, other: "CubeAddress") -> bool:
        """True when ``other`` is this cube or a descendant of it."""
        if len(other.coords) != len(self.coords) or other.level < self.level:
            return False
        shift = other.level - self.level
        return all((oc >> shift) == c for oc, c in zip(other.coords, self.coords))

    def uniform_child(self, offset_index: int) -> "CubeAddress":
        """Child one level down; bit i of ``offset_index`` is the offset on axis i."""
        d = len(self.coords)
        if not 0 <= _index(offset_index, "offset index") < (1 << d):
            raise ValueError(f"offset index {offset_index} outside [0, 2^{d})")
        return _children(self)[offset_index]

    def serialize(self) -> str:
        """Wire format ``level:c0,c1,...``."""
        return f"{self.level}:{','.join(str(c) for c in self.coords)}"


def _addr(level: int, coords: tuple[int, ...]) -> CubeAddress:
    """An address derived from a valid one, built without the constructor's
    check: the caller guarantees int coords with 0 <= coords[i] < 2^level."""
    return tuple.__new__(CubeAddress, (level, coords))


def _ancestor(q: CubeAddress, level: int) -> CubeAddress:
    """``q.ancestor(level)`` unchecked: the caller guarantees 0 <= level <= q.level."""
    return _addr(level, tuple([c >> (q[0] - level) for c in q[1]]))


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
    """Split ``parent`` into its 2^d dyadic children, in digit order."""
    return CubePartition(parent, _children(parent))


def _children(parent: CubeAddress) -> tuple[CubeAddress, ...]:
    """The 2^d children of ``parent`` in digit order: bit i of child j's
    digit is its offset on axis i, so axis 0 varies fastest."""
    level = parent[0] + 1
    pairs = [(c << 1, (c << 1) | 1) for c in reversed(parent[1])]
    # each built as _addr builds it, without a call per child
    return tuple([tuple.__new__(CubeAddress, (level, c[::-1])) for c in itertools.product(*pairs)])


@functools.cache
def _lex_order(d: int, k: int) -> tuple[int, ...]:
    """The digit-order indices of a cube's depth-k descendants, sorted by the
    descendants' coords.  Index i holds k base-2^d digits, the first one
    most significant, each a child digit as in ``_children``.  At d = 1
    digit order is coords order; at d >= 2 it is not, since a digit's bit 0
    is the axis-0 offset."""
    return tuple(sorted(range(1 << (d * k)), key=lambda i: _offsets(i, d, k)))


def _offsets(index: int, d: int, k: int) -> tuple[int, ...]:
    """Per-axis coordinate offsets of the depth-k descendant at digit-order
    ``index``: its coords are the parent's shifted left by k, plus these."""
    offs = [0] * d
    for shift in range(d * (k - 1), -1, -d):
        offs = [(o << 1) | ((index >> (shift + i)) & 1) for i, o in enumerate(offs)]
    return tuple(offs)


#: ``_offsets`` memoized for ``_descendant``, which walks call with the same
#: few (index, d, k) again and again.  ``_lex_order`` sorts by the plain
#: function, so that a tie does not fill this memo with all 2^(dk) indices.
_hole_offsets = functools.cache(_offsets)


def _descendant(parent: CubeAddress, k: int, index: int) -> CubeAddress:
    """The depth-k descendant of ``parent`` at digit-order ``index``."""
    coords = parent[1]
    return _addr(parent[0] + k, tuple(map(
        operator.or_, [c << k for c in coords], _hole_offsets(index, len(coords), k)
    )))


def porous_split(parent: CubeAddress, hole: CubeAddress, k: int) -> CubePartition:
    """Split ``parent`` into the depth-k ``hole`` plus, for each level
    j = 1..k, the 2^d - 1 cubes at depth j not containing the hole.

    The resulting partition has (2^d - 1) k + 1 children and is 2^-k-regular.
    Children are ordered level 1..k (lexicographic within a level), hole last.
    The level-j cubes are the siblings of the hole's level-j ancestor, built
    from the hole's coordinate bits.
    """
    if k < 1:
        raise ValueError(f"hole depth k must be >= 1, got {k}")
    bottom, coords = hole
    if bottom != parent[0] + k or tuple([c >> k for c in coords]) != parent[1]:
        raise ValueError(
            f"hole {hole.serialize()} is not a depth-{k} descendant "
            f"of {parent.serialize()}"
        )
    children: list[CubeAddress] = []
    for level in range(bottom - k + 1, bottom + 1):
        # the hole's ancestor at this level and its siblings, in coords order
        spine = tuple([c >> (bottom - level) for c in coords])
        pairs = [(s & ~1, s | 1) for s in spine]
        children += [_addr(level, sib) for sib in itertools.product(*pairs)
                     if sib != spine]
    children.append(hole)
    return CubePartition(parent, tuple(children), hole=hole)

