import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perprop.perms import (
    PermSet,
    Permutation,
    close_under_composition,
    coset,
    cyclic_group,
    fpp,
    from_cycles,
    identity,
    is_transitive,
    mean_trace,
    permset,
    symmetric_group,
    trace,
)

from oracles import verify_group


def brute_fpp(perms) -> Fraction:
    """Independent oracle: plain counting over explicit image tuples."""
    perms = list(perms)
    fixing = sum(1 for images in perms if any(images[i] == i for i in range(len(images))))
    return Fraction(fixing, len(perms))


def test_trace_examples():
    assert trace(identity(4)) == 4
    assert trace(from_cycles("(0 1 2)", 3)) == 0
    assert trace(from_cycles("(0 1)", 3)) == 1


def test_fpp_examples():
    # oracle: S3 has 2 derangements among its 6 elements
    all_s3 = list(itertools.permutations(range(3)))
    assert brute_fpp(all_s3) == Fraction(2, 3)
    assert fpp(symmetric_group(3)) == Fraction(2, 3)
    assert fpp(cyclic_group(3)) == Fraction(1, 3)
    assert fpp(permset([identity(5)])) == 1


def test_fpp_error_on_empty():
    with pytest.raises(ValueError):
        permset([])


def test_is_transitive_examples():
    assert is_transitive(cyclic_group(3)) is True
    assert is_transitive(symmetric_group(3)) is True
    swap = from_cycles("(0 1)", 3)
    assert is_transitive(permset([identity(3), swap], kind="group")) is False


def test_is_transitive_rejects_non_group():
    with pytest.raises(ValueError):
        is_transitive(permset([identity(3)], kind="plain"))


def test_mean_trace_examples():
    assert mean_trace(cyclic_group(3)) == 1
    assert mean_trace(symmetric_group(3)) == 1
    assert mean_trace(permset([identity(7)])) == 7


def test_composition_order_is_right_then_left():
    a = from_cycles("(0 1)", 3)
    b = from_cycles("(1 2)", 3)
    # (a*b)(1) = a(b(1)) = a(2) = 2
    assert (a * b).images == (1, 2, 0)
    assert (b * a).images == (2, 0, 1)


def test_cycle_string_round_trip():
    p = from_cycles("(0 1 2)(3 4)", 6)
    assert p.images == (1, 2, 0, 4, 3, 5)
    assert from_cycles(p.cycle_string(), 6) == p
    assert identity(4).cycle_string() == "()"


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation((0, 0, 2))


def test_permset_rejects_duplicates_and_mixed_degrees():
    with pytest.raises(ValueError):
        permset([identity(3), identity(3)])
    with pytest.raises(ValueError):
        permset([identity(3), identity(4)])


def test_permset_array_validation():
    # every row is checked on the array, and the range before the int16 cast:
    # 2^16 + 1 would wrap to 1 and make (0, 2, 1) a bijection
    with pytest.raises(ValueError, match="not a bijection"):
        PermSet([(0, 1, 2), (0, 0, 2)])
    for bad in [(0, 1, -1), (0, 1, 3), (0, 2, 2**16 + 1)]:
        with pytest.raises(ValueError, match="outside"):
            PermSet([(0, 1, 2), bad])
    with pytest.raises(ValueError, match="duplicate"):
        PermSet([(1, 0, 2), (0, 1, 2), (1, 0, 2)])
    with pytest.raises(ValueError, match="mixed degrees"):
        PermSet([(0, 1, 2), (1, 0)])
    with pytest.raises(ValueError, match="degree must be in"):
        PermSet(np.zeros((1, 0), dtype=np.int64))
    for bad in [np.zeros((0, 3), dtype=np.int64), [(0.0, 1.0)], [0, 1]]:
        with pytest.raises(ValueError, match="nonempty"):
            PermSet(bad)


def test_permset_is_a_sorted_read_only_int16_array():
    rows = [(2, 0, 1), (0, 1, 2), (1, 0, 2)]
    s = PermSet(rows, kind="group")
    assert s.images.dtype == np.int16 and not s.images.flags.writeable
    assert s.images.tolist() == sorted(map(list, rows))
    assert s == PermSet(rows[::-1], kind="group") != PermSet(rows)
    assert permset([identity(3), from_cycles("(0 1)", 3)]) == permset(
        [from_cycles("(0 1)", 3), identity(3)]
    )
    assert [p.images for p in s] == sorted(rows)
    assert s.traces().tolist() == [3, 1, 0]
    # membership is a binary search on the sorted rows
    assert s.find([(1, 0, 2), (0, 2, 1), (2, 0, 1)]).tolist() == [1, -1, 2]
    assert from_cycles("(0 2 1)", 3) in s
    assert from_cycles("(1 2)", 3) not in s
    assert identity(4) not in s


def test_group_closure_and_verify():
    g = close_under_composition([from_cycles("(0 1 2 3)", 4)])
    assert len(g) == 4
    assert verify_group(g)
    s4 = close_under_composition([from_cycles("(0 1)", 4), from_cycles("(0 1 2 3)", 4)])
    assert len(s4) == 24


def test_coset_properties():
    g = cyclic_group(3)
    rep = from_cycles("(0 1)", 3)
    cs = coset(g, rep)
    assert len(cs) == len(g)
    assert {p.images for p in cs} == {(h * rep).images for h in g}
    # fpp is independent of the chosen representative
    for other in cs:
        assert fpp(coset(g, other)) == fpp(cs)


@st.composite
def permutations(draw, max_degree=8):
    n = draw(st.integers(min_value=1, max_value=max_degree))
    images = list(range(n))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    rng.shuffle(images)
    return Permutation(tuple(images))


@given(permutations(), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=80)
def test_trace_invariant_under_conjugation(p, seed):
    images = list(range(p.degree))
    random.Random(seed).shuffle(images)
    g = Permutation(tuple(images))
    assert trace(g * p * g.inverse()) == trace(p)


@given(st.integers(min_value=2, max_value=7))
def test_burnside_for_enumerated_transitive_groups(n):
    for g in (cyclic_group(n),):
        assert is_transitive(g)
        assert mean_trace(g) == 1
    if n <= 5:
        assert mean_trace(symmetric_group(n)) == 1


@given(st.integers(min_value=2, max_value=6))
def test_fpp_at_least_one_over_order(n):
    g = cyclic_group(n)
    assert fpp(g) >= Fraction(1, len(g))


def test_fpp_matches_brute_oracle_on_random_sets():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 6)
        seen = {}
        for _ in range(rng.randint(1, 12)):
            images = list(range(n))
            rng.shuffle(images)
            seen[tuple(images)] = Permutation(tuple(images))
        s = permset(seen.values())
        assert fpp(s) == brute_fpp([p.images for p in s])
