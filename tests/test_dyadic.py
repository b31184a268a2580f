import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from porodim.dyadic import (
    CubeAddress,
    porous_split,
    root,
    subdivide_uniform,
    validate_partition,
)


def test_uniform_split_d1():
    part = subdivide_uniform(root(1))
    assert part.children == (CubeAddress(1, (0,)), CubeAddress(1, (1,)))
    validate_partition(part)


def test_uniform_split_d2_quadrants():
    part = subdivide_uniform(root(2))
    assert len(part.children) == 4
    assert set(c.coords for c in part.children) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    validate_partition(part)


def test_uniform_split_address_arithmetic():
    parent = CubeAddress(2, (3,))
    part = subdivide_uniform(parent)
    assert [c.coords for c in part.children] == [(6,), (7,)]
    assert all(c.level == 3 for c in part.children)


def test_porous_split_child_count():
    # d=2, k=3: 1 + 3*3 = 10 children
    parent = root(2)
    hole = parent.descendant((5, 2), 3)
    part = porous_split(parent, hole, 3)
    assert len(part.children) == 10
    assert part.hole == hole
    assert part.children[-1] == hole
    validate_partition(part)


def test_porous_split_k1_is_uniform_as_a_set():
    parent = root(1)
    hole = CubeAddress(1, (0,))
    part = porous_split(parent, hole, 1)
    assert set(part.children) == set(subdivide_uniform(parent).children)
    assert part.hole == hole  # but the flag still distinguishes it


def test_porous_split_d2_k2_volume():
    parent = root(2)
    hole = parent.descendant((1, 3), 2)
    part = porous_split(parent, hole, 2)
    assert len(part.children) == 1 + 3 * 2
    validate_partition(part)  # includes the exact cover/volume check


def test_porous_split_regularity():
    parent = CubeAddress(1, (1, 0))
    hole = parent.descendant((0, 0), 3)
    part = porous_split(parent, hole, 3)
    ratios = [2.0 ** -(c.level - parent.level) for c in part.children]
    delta = 2.0**-3
    assert all(delta <= r <= 1 - delta for r in ratios)
    assert max(c.level - parent.level for c in part.children) == 3  # 2^-3-regular


def test_porous_split_bad_hole():
    parent = root(2)
    with pytest.raises(ValueError, match="depth-2"):
        porous_split(parent, parent.descendant((0, 0), 3), 2)
    other = CubeAddress(2, (3, 3))
    with pytest.raises(ValueError):
        porous_split(CubeAddress(1, (0, 0)), other.descendant((0, 0), 1), 2)


def test_uniform_descent_binary_expansion():
    # digits (1, 0) in d=1: [1/2, 3/4)
    got = root(1)
    for digit in (1, 0):
        got = subdivide_uniform(got).children[digit]
    assert got == CubeAddress(2, (2,))
    assert got.coords[0] / (1 << got.level) == 0.5


def test_porous_split_hole_digit_jumps_k_levels():
    hole = root(2).descendant((3, 1), 2)
    part = porous_split(root(2), hole, 2)
    got = part.children[len(part.children) - 1]
    assert got.level == 2
    assert got == hole


def test_serialization_roundtrip():
    a = CubeAddress(3, (5, 0))
    assert a.serialize() == "3:5,0"
    level, _, coords = a.serialize().partition(":")
    assert CubeAddress(int(level), tuple(int(c) for c in coords.split(","))) == a


def test_contains_and_ancestor():
    a = CubeAddress(1, (1,))
    b = CubeAddress(3, (5,))
    assert a.contains(b)
    assert not b.contains(a)
    assert b.ancestor(1) == a


@settings(max_examples=200, deadline=None)
@given(
    d=st.integers(1, 3),
    k=st.integers(1, 4),
    data=st.data(),
)
def test_porous_split_invariants(d, k, data):
    level = data.draw(st.integers(0, 4))
    coords = tuple(data.draw(st.integers(0, (1 << level) - 1)) for _ in range(d))
    parent = CubeAddress(level, coords)
    rel = tuple(data.draw(st.integers(0, (1 << k) - 1)) for _ in range(d))
    part = porous_split(parent, parent.descendant(rel, k), k)
    assert len(part.children) == ((1 << d) - 1) * k + 1
    validate_partition(part)
    # volume conservation, exact in integers, is part of validate_partition;
    # double-check the float version stays at 1 up to rounding
    vol = sum(2.0 ** (-(c.level - parent.level) * d) for c in part.children)
    assert abs(vol - 1.0) < 1e-12


@settings(max_examples=100, deadline=None)
@given(d=st.integers(1, 3), level=st.integers(0, 5), data=st.data())
def test_uniform_split_invariants(d, level, data):
    coords = tuple(data.draw(st.integers(0, (1 << level) - 1)) for _ in range(d))
    part = subdivide_uniform(CubeAddress(level, coords))
    assert len(part.children) == 1 << d
    validate_partition(part)


def test_repr_is_the_dataclass_form():
    assert repr(CubeAddress(3, (5, 0))) == "CubeAddress(level=3, coords=(5, 0))"


@settings(max_examples=150, deadline=None)
@given(d=st.integers(1, 3), level=st.integers(0, 2000), data=st.data())
def test_derived_addresses_are_valid(d, level, data):
    # every address the library derives from a valid one is what the public
    # constructor builds from its fields, and pickles and prints like one
    a = CubeAddress(level, tuple(data.draw(st.integers(0, (1 << level) - 1))
                                 for _ in range(d)))
    depth = data.draw(st.integers(0, 64))
    rel = tuple(data.draw(st.integers(0, (1 << depth) - 1)) for _ in range(d))
    k = data.draw(st.integers(1, 3))
    hole = a.descendant(tuple(data.draw(st.integers(0, (1 << k) - 1)) for _ in range(d)), k)
    derived = [
        *subdivide_uniform(a).children,
        *(a.uniform_child(j) for j in range(1 << d)),
        a.ancestor(data.draw(st.integers(0, level))),
        a.descendant(rel, depth),
        *porous_split(a, hole, k).children,
    ]
    for b in derived:
        assert type(b) is CubeAddress
        assert type(b.level) is int and all(type(c) is int for c in b.coords)
        assert b == CubeAddress(b.level, b.coords) == (b.level, b.coords)
        copy = pickle.loads(pickle.dumps(b))
        assert type(copy) is CubeAddress and copy == b
        assert repr(b) == f"CubeAddress(level={b.level!r}, coords={b.coords!r})"
