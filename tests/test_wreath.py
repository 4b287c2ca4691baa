import itertools
from fractions import Fraction

import pytest

from perprop.bounds import fix_class_count
from perprop.indicatrix import indicatrix_of, value_at
from perprop.perms import (
    Permutation,
    ResourceCapError,
    coset,
    cyclic_group,
    fpp,
    from_cycles,
    identity,
    mean_trace,
    permset,
    symmetric_group,
    trace,
)
from perprop.powermap import b_n_permset, galois_A
from perprop.wreath import MAX_ORDER_DIGITS, coset_wreath, iterated_wreath, wreath_order

F = Fraction


def _top_and_bottoms(p, d):
    """Recover (pi, (tau_0, ...)) from the block-major images of (pi; tau)."""
    blocks = [p.images[i:i + d] for i in range(0, p.degree, d)]
    top = tuple(block[0] // d for block in blocks)
    assert all(k // d == t for block, t in zip(blocks, top) for k in block)
    return top, tuple(tuple(k % d for k in block) for block in blocks)


def test_flatten_block_major_indexing():
    top = from_cycles("(0 1)", 2)
    b0 = from_cycles("(0 1)", 2)
    b1 = from_cycles("()", 2)
    w = coset_wreath(permset([top]), permset([b0, b1]))
    recovered = {_top_and_bottoms(p, 2): p.images for p in w}
    assert set(recovered) == {
        (top.images, bottoms) for bottoms in itertools.product((b0.images, b1.images), repeat=2)
    }
    # (0,0) -> (1, b0(0)) = point 1*2+1; (1,1) -> (0, b1(1)) = point 1
    assert recovered[top.images, (b0.images, b1.images)] == (3, 2, 0, 1)


def test_trace_of_flattened_is_sum_over_fixed_blocks():
    c3 = cyclic_group(3)
    w = coset_wreath(c3, c3)
    seen = set()
    for p in w:
        top, bottoms = _top_and_bottoms(p, 3)
        seen.add((top, bottoms))
        expected = sum(
            trace(Permutation(bottoms[i])) for i in range(3) if top[i] == i
        )
        assert trace(p) == expected
    c3_images = [g.images for g in c3]
    assert seen == {
        (top, bottoms) for top in c3_images for bottoms in itertools.product(c3_images, repeat=3)
    }


def test_coset_wreath_sizes():
    c2 = cyclic_group(2)
    w = coset_wreath(c2, c2)
    assert w.degree == 4 and len(w) == 8
    c3 = cyclic_group(3)
    w = coset_wreath(c3, c3)
    assert w.degree == 9 and len(w) == 81


def test_coset_wreath_with_trivial_top_relabels_bottom():
    one = cyclic_group(1)
    g = symmetric_group(3)
    w = coset_wreath(one, g)
    assert len(w) == len(g)
    assert {p.images for p in w} == {p.images for p in g}


def test_iterated_wreath_fpp_oracle_values():
    assert fpp(iterated_wreath(cyclic_group(2), 2)) == F(3, 8)
    assert fpp(iterated_wreath(cyclic_group(3), 2)) == F(19, 81)
    # n=1 returns the base group itself
    g = symmetric_group(3)
    assert iterated_wreath(g, 1) is g


def test_fixed_point_free_count_in_c2_wreath_c2():
    w = iterated_wreath(cyclic_group(2), 2)
    assert sum(1 for p in w if trace(p) == 0) == 5


def test_wreath_order_examples():
    assert wreath_order(3, 3, 2) == 81
    assert wreath_order(2, 2, 3) == 128
    assert wreath_order(17, 5, 1) == 17
    assert wreath_order(2, 2, 13) == 2**8191


def test_wreath_order_refuses_more_than_4300_digits():
    assert MAX_ORDER_DIGITS == 4300
    assert wreath_order(10, 4298, 2) == 10**4299  # 4300 digits
    for args in [(10, 4299, 2), (2, 2, 14), (3, 3, 9), (2**14300, 5, 1)]:
        with pytest.raises(ResourceCapError, match="more than 4300 decimal digits"):
            wreath_order(*args)


def test_enumeration_cap_enforced():
    c3 = cyclic_group(3)
    with pytest.raises(ResourceCapError, match="1594323"):
        iterated_wreath(c3, 3)


def test_one_enumeration_cap_governs_every_enumeration(monkeypatch):
    from perprop import perms

    c2 = cyclic_group(2)
    six_cycle = from_cycles("(0 1 2 3 4 5)", 6)
    builds = [
        (lambda: perms.close_under_composition([six_cycle]), "exceeded cap of 5 elements"),
        (lambda: coset_wreath(c2, c2), "needs 8 elements, cap is 5"),
        (lambda: iterated_wreath(c2, 2), "needs 8 elements, cap is 5"),
        (lambda: b_n_permset(2, 1, 2), "needs 8 elements, cap is 5"),
    ]
    monkeypatch.setattr(perms, "ENUMERATION_CAP", 5)
    for build, message in builds:
        with pytest.raises(ResourceCapError, match=message):
            build()
    # a need equal to the cap is within it
    monkeypatch.setattr(perms, "ENUMERATION_CAP", 8)
    assert len(perms.close_under_composition([from_cycles("(0 1 2 3 4 5 6 7)", 8)])) == 8
    for build, _ in builds[1:]:
        assert len(build()) == 8


def test_coset_wreath_checks_degree_before_int16_arithmetic():
    # one element of degree 101 * 100 = 10,100 > DEGREE_CAP: refused before
    # any leaf index is formed, so nothing wraps
    with pytest.raises(ValueError, match="degree must be in"):
        coset_wreath(permset([identity(101)]), permset([identity(100)]))
    # degree 10,000 is the cap itself, and one dimension per block is no
    # limit: 100 blocks of one bottom element
    w = coset_wreath(permset([identity(100)]), permset([identity(100)]))
    assert w.images.tolist() == [list(range(10_000))]


def test_recursion_matches_enumeration_for_small_bases():
    # every base group of degree <= 3 and order <= 6 (transitivity not needed
    # for the composition identity), plus a few larger degrees
    bases = [
        permset([identity(2)], kind="group"),
        cyclic_group(2),
        permset([identity(3)], kind="group"),
        permset([identity(3), from_cycles("(0 1)", 3)], kind="group"),
        cyclic_group(3),
        symmetric_group(3),
        cyclic_group(4),
        cyclic_group(5),
        cyclic_group(6),
    ]
    for g in bases:
        phi = indicatrix_of(g)
        for n in (1, 2):
            if wreath_order(len(g), max(g.degree, 2), n) > 100_000:
                continue
            value = F(0)
            for _ in range(n):
                value = value_at(phi, value)
            assert fpp(iterated_wreath(g, n)) == 1 - value


def _assert_indicatrix_is_composition(w, top, bottom):
    # both sides have degree <= w.degree, so w.degree + 1 distinct points fix
    # them: the exact polynomial identity
    whole, outer, inner = indicatrix_of(w), indicatrix_of(top), indicatrix_of(bottom)
    for k in range(w.degree + 1):
        x = F(k, w.degree)
        assert value_at(whole, x) == value_at(outer, value_at(inner, x))


def test_indicatrix_of_wreath_is_composition():
    cases = [
        (cyclic_group(2), cyclic_group(2)),
        (cyclic_group(3), cyclic_group(3)),
        (symmetric_group(3), cyclic_group(3)),
        (cyclic_group(2), symmetric_group(3)),
    ]
    for top, bottom in cases:
        _assert_indicatrix_is_composition(coset_wreath(top, bottom), top, bottom)


def test_indicatrix_composition_for_cosets():
    g = cyclic_group(3)
    cs = coset(g, from_cycles("(0 1)", 3))
    _assert_indicatrix_is_composition(coset_wreath(cs, cs), cs, cs)


def test_mean_trace_one_across_levels():
    for g in (cyclic_group(2), cyclic_group(3), symmetric_group(3)):
        assert mean_trace(iterated_wreath(g, 2)) == 1


def test_wreath_of_groups_is_group_and_of_cosets_is_coset():
    c2 = cyclic_group(2)
    w = coset_wreath(c2, c2)
    assert w.kind == "group"
    assert w.verify_group()
    g = cyclic_group(3)
    cs = coset(g, from_cycles("(0 1 2)", 3))
    wc = coset_wreath(cs, cs)
    assert wc.kind == "plain"
    wg = coset_wreath(g, g)
    assert wg.kind == "group"
    # {h * rep : h in the wreath of the groups} for every representative
    for rep in wc:
        assert {(h * rep).images for h in wg} == {p.images for p in wc}


# -- equivalence with the element-by-element construction --------------------

def _images(s):
    return {p.images for p in s}


def _flatten(top, bottoms):
    """(pi; tau_0..tau_{m-1}) as the images of (i, j) -> pi(i)*d + tau_i(j),
    written point by point."""
    d = len(bottoms[0])
    images = [0] * (len(top) * d)
    for i, ti in enumerate(top):
        for j in range(d):
            images[i * d + j] = ti * d + bottoms[i][j]
    return tuple(images)


def _oracle_wreath(top, bottom):
    """Image set of the wreath of two image-tuple sets, one element at a time."""
    m = len(next(iter(top)))
    return {
        _flatten(t, bs) for t in top for bs in itertools.product(sorted(bottom), repeat=m)
    }


def _oracle_b_n(d, e, n):
    """Union over multipliers m of the n-fold wreath of {i -> m*i + j : j}."""
    out = set()
    for m in galois_A(d, e):
        level = {tuple((m * i + j) % d for i in range(d)) for j in range(d)}
        current = level
        for _ in range(n - 1):
            current = _oracle_wreath(current, level)
        out |= current
    return out


def test_coset_wreath_matches_element_by_element_oracle():
    c3 = cyclic_group(3)
    # (set, the group it is a coset of, or None for a plain set)
    inputs = [
        (cyclic_group(1), cyclic_group(1)),
        (cyclic_group(2), cyclic_group(2)),
        (c3, c3),
        (symmetric_group(3), symmetric_group(3)),
        (coset(c3, from_cycles("(0 1)", 3)), c3),
        # not closed under inverses, so a wreath built on inverted blocks differs
        (permset([from_cycles("(0 1 2)", 3), from_cycles("(0 1)", 3)]), None),
    ]
    for (top, top_group), (bottom, bottom_group) in itertools.product(inputs, repeat=2):
        w = coset_wreath(top, bottom)
        assert _images(w) == _oracle_wreath(_images(top), _images(bottom))
        assert len(w) == len(top) * len(bottom) ** top.degree
        assert (w.kind == "group") == (top.kind == bottom.kind == "group")
        if top_group is not None and bottom_group is not None:
            # a coset of the wreath of the underlying groups
            ref = _oracle_wreath(_images(top_group), _images(bottom_group))
            rep = next(iter(w)).images
            assert {tuple(h[k] for k in rep) for h in ref} == _images(w)

    c2 = _images(cyclic_group(2))
    acc = c2
    for _ in range(3):
        acc = _oracle_wreath(acc, c2)
    assert _images(iterated_wreath(cyclic_group(2), 4)) == acc


@pytest.mark.parametrize(
    "d,e,n", [(2, 1, 3), (3, 1, 2), (4, 1, 2), (3, 3, 2), (5, 1, 1), (2, 1, 4), (5, 1, 2)]
)
def test_b_n_permset_matches_element_by_element_oracle(d, e, n):
    group = b_n_permset(d, e, n)
    expected = _oracle_b_n(d, e, n)
    assert group.kind == "group"
    assert len(group) == len(galois_A(d, e)) * wreath_order(d, d, n)
    assert _images(group) == expected
    if len(group) <= 5000:
        oracle_group = permset((Permutation(t) for t in expected), kind="group")
        assert fix_class_count(group) == fix_class_count(oracle_group)
