from fractions import Fraction

import pytest

from perprop.bounds import (
    error_term,
    fix_class_count,
    genus_bound,
    ramified_bound,
    sqrt_upper,
)
from perprop.perms import cyclic_group, symmetric_group, trace

from oracles import sqrt_lower

F = Fraction


def test_sqrt_upper_is_upper_and_tight():
    for x in (2, 7, 10**4, 10**9 + 7, 144, F(1, 3), F(10**20, 7), F(2, 10**9)):
        up, low = sqrt_upper(x), sqrt_lower(x)
        assert low * low <= x <= up * up
        assert up - low <= F(1, 2**64)
    for x, root in ((144, 12), (F(9, 4), F(3, 2)), (0, 0)):
        assert sqrt_upper(x) == sqrt_lower(x) == root
    assert sqrt_lower(F(-1, 5)) == 0
    assert sqrt_upper(F(1, 3), 8) - sqrt_lower(F(1, 3), 8) <= F(1, 2**8)


def test_genus_bound_examples():
    assert genus_bound(81, 2, 3) == 648
    assert genus_bound(7, 3, 1) == 0  # degree-1 edge documents the formula
    assert genus_bound(2, 1, 2) == 4


def test_ramified_bound_examples():
    assert ramified_bound(2, 3) == 8
    assert ramified_bound(1, 2) == 2
    # monotone in both arguments
    for n in range(1, 5):
        for d in range(2, 6):
            assert ramified_bound(n + 1, d) >= ramified_bound(n, d)
            assert ramified_bound(n, d + 1) >= ramified_bound(n, d)


def test_error_term_decreasing_and_vanishing():
    values = [error_term(q, 2, 3, 162, 162) for q in (10**3, 10**4, 10**5, 10**6, 10**8)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert error_term(10**10, 2, 3, 162, 162) < F(1, 10)
    # rate ~ q^(-1/2): quadrupling q roughly halves the term
    v1 = error_term(10**6, 1, 3, 6, 6)
    v2 = error_term(4 * 10**6, 1, 3, 6, 6)
    assert v2 < v1 * F(6, 10)


def test_fix_class_count_small_groups():
    # S3: classes {id}, {transpositions} meet the fixing set; 3-cycles do not
    assert fix_class_count(symmetric_group(3)) == 2
    # C3: only the identity fixes anything
    assert fix_class_count(cyclic_group(3)) == 1
    # default over-bound is always sound
    assert fix_class_count(symmetric_group(4)) <= len(symmetric_group(4))


def _fix_class_count_by_permutations(s):
    """Oracle: the same exhaustion, conjugating with Permutation objects."""
    unseen = {p.images: p for p in s if trace(p) > 0}
    classes = 0
    while unseen:
        _, rep = unseen.popitem()
        classes += 1
        for g in s:
            unseen.pop((g * rep * g.inverse()).images, None)
    return classes


@pytest.mark.parametrize(
    "group", [symmetric_group(3), cyclic_group(3), symmetric_group(4)]
)
def test_fix_class_count_matches_permutation_conjugation(group):
    assert fix_class_count(group) == _fix_class_count_by_permutations(group)
