import ast
import random
from math import gcd, isqrt
from pathlib import Path

import numpy as np
import pytest

from perprop import dynamics
from perprop.cyclotomic import power
from perprop.dynamics import (
    BLOCK,
    _check_int64,
    _digits,
    _finite_successors,
    _mod,
    build_graph,
    general_map,
    image_size_at,
    image_sizes_and_periodic,
    periodic_by_cycles,
    periodic_by_image_iteration,
    power_map,
    reduce_map,
    row_walk,
)
from perprop.perms import ResourceCapError
from perprop.powermap import CycSetting
from perprop.residue_fields import (
    ResidueField,
    make_field,
    prime_stream,
    primes_above,
    primes_up_to,
)
from test_residue_fields import _divides, _monic_polys


def brute_periodic(successor) -> frozenset:
    """Oracle: a point is periodic iff iterating size times returns to it."""
    size = len(successor)
    out = set()
    for start in range(size):
        v = start
        for _ in range(size):
            v = successor[v]
        # v is now on the cycle of start's tail; walk the cycle
        w = successor[v]
        cycle = {v}
        while w != v:
            cycle.add(w)
            w = successor[w]
        if start in cycle:
            out.add(start)
    return frozenset(out)


def is_bijective(g) -> bool:
    """Oracle: no two points share an image."""
    return len(set(g.successor.tolist())) == g.size


def test_reduce_map_examples():
    P5 = primes_above(5, 1)[0]
    m = reduce_map(CycSetting.make(3, 1, 1), P5)
    assert m.kind == "power_plus_c" and m.degree == 3 and m.c == (1,)
    assert not m.wild
    P7 = primes_above(7, 3)[0]
    m = reduce_map(CycSetting.make(3, 3, "z"), P7)
    assert m.c == (2,)  # zeta maps to 2 in the norm-7 prime
    P2 = primes_above(2, 1)[0]
    m = reduce_map(CycSetting.make(2, 1, 1), P2)
    assert m.wild


def test_build_graph_successors_x3_plus_1_f7():
    P7 = primes_above(7, 1)[0]
    g = build_graph(reduce_map(CycSetting.make(3, 1, 1), P7))
    assert g.successor.tolist() == [1, 2, 2, 0, 2, 0, 0, 7]


def test_build_graph_successors_x2_plus_1_f5():
    P5 = primes_above(5, 1)[0]
    g = build_graph(reduce_map(CycSetting.make(2, 1, 1), P5))
    assert g.successor.tolist() == [1, 2, 0, 0, 2, 5]


def test_identity_general_map():
    field = make_field(7, 1)
    m = general_map(field, [0, 1], [1])
    g = build_graph(m)
    assert g.successor.tolist() == list(range(8))
    assert is_bijective(g)


def test_general_map_rejects_bad_reduction():
    field = make_field(5, 1)
    # x^2 / x shares the root 0
    with pytest.raises(ValueError):
        general_map(field, [0, 0, 1], [0, 1])


def test_general_map_good_reduction_matches_brute_force():
    # every numerator/denominator pair of degree <= 2 over F_p: rejected
    # exactly when one is zero or a monic polynomial of degree 1 or 2
    # divides both (the coefficient lists are constant first)
    for p in (2, 3, 5):
        field = make_field(p, 1)
        polys = [[i // p**j % p for j in range(3)] for i in range(p**3)]
        monics = [g for k in (1, 2) for g in _monic_polys(p, k)]
        for num in polys:
            for den in polys:
                expected = not any(num) or not any(den) or any(
                    _divides(g, num, p) and _divides(g, den, p) for g in monics
                )
                try:
                    general_map(field, num, den)
                    raised = False
                except ValueError:
                    raised = True
                assert raised == expected, (p, num, den)


def test_general_map_infinity_rules():
    field = make_field(5, 1)
    # (x^2+1)/x: infinity -> infinity, 0 -> infinity
    succ = build_graph(general_map(field, [1, 0, 1], [0, 1])).successor
    assert succ[5] == 5
    assert succ[0] == 5
    # 1/(x^2): infinity -> 0
    assert build_graph(general_map(field, [1], [0, 0, 1])).successor[5] == 0
    # (2x^2+1)/(x^2+1): infinity -> 2/1
    assert build_graph(general_map(field, [1, 0, 2], [1, 0, 1])).successor[5] == 2


def test_periodic_algorithms_on_reference_graphs():
    P7 = primes_above(7, 1)[0]
    g = build_graph(reduce_map(CycSetting.make(3, 1, 1), P7))
    cyc_set = periodic_by_cycles(g)
    img_set, sizes = periodic_by_image_iteration(g)
    assert cyc_set == img_set == frozenset({2, 7})
    assert sizes == (8, 4, 3, 2, 2)
    assert image_sizes_and_periodic(g, 1)[1] == 2
    assert not is_bijective(g)

    P5 = primes_above(5, 1)[0]
    g = build_graph(reduce_map(CycSetting.make(3, 1, 1), P5))
    assert is_bijective(g)
    assert periodic_by_cycles(g) == frozenset(range(6))
    _, sizes = periodic_by_image_iteration(g)
    assert sizes == (6, 6)

    g = build_graph(reduce_map(CycSetting.make(2, 1, 1), P5))
    assert periodic_by_cycles(g) == frozenset({0, 1, 2, 5})
    assert periodic_by_image_iteration(g)[1] == (6, 4, 4)
    assert image_sizes_and_periodic(g, 1)[1] == 4


def test_constant_successor_graph():
    from perprop.dynamics import FunctionalGraph

    succ = np.zeros(7, dtype=np.int64)
    g = FunctionalGraph(succ)
    per, sizes = periodic_by_image_iteration(g)
    assert per == frozenset({0})
    assert sizes == (7, 1, 1)
    assert periodic_by_cycles(g) == frozenset({0})


def test_two_algorithms_agree_small_primes():
    for d in (2, 3):
        for c in (1, 2):
            s = CycSetting.make(d, 1, c)
            for p in primes_up_to(200):
                if p <= d:
                    continue
                g = build_graph(reduce_map(s, primes_above(p, 1)[0]))
                a = periodic_by_cycles(g)
                b, _ = periodic_by_image_iteration(g)
                assert a == b
                assert len(a) == image_sizes_and_periodic(g, 1)[1]


def test_algorithms_agree_with_brute_oracle():
    rng = random.Random(3)
    for _ in range(30):
        size = rng.randint(1, 40)
        succ = [rng.randrange(size) for _ in range(size)]
        from perprop.dynamics import FunctionalGraph

        g = FunctionalGraph(np.array(succ, dtype=np.int64))
        expected = brute_periodic(succ)
        assert periodic_by_cycles(g) == expected
        assert periodic_by_image_iteration(g)[0] == expected
        for max_entries in (1, 2, 8):
            sizes, periodic = image_sizes_and_periodic(g, max_entries)
            assert periodic == len(expected)
            assert sizes == periodic_by_image_iteration(g)[1][:max_entries]


def test_random_rational_maps_agree():
    rng = random.Random(17)
    done = 0
    while done < 100:
        p = rng.choice([q for q in primes_up_to(100) if q > 2])
        field = make_field(p, 1)
        deg = rng.randint(1, 4)
        num = [rng.randrange(p) for _ in range(deg + 1)]
        den = [rng.randrange(p) for _ in range(rng.randint(1, deg + 1))]
        try:
            m = general_map(field, num, den)
        except ValueError:
            continue
        g = build_graph(m)
        assert periodic_by_cycles(g) == periodic_by_image_iteration(g)[0]
        done += 1


def test_bijectivity_gcd_oracle():
    # x -> x^d + c is bijective iff gcd(d, q - 1) = 1
    rng = random.Random(23)
    for p in primes_up_to(60):
        for d in (2, 3, 5):
            if p <= d:
                continue
            c = rng.randrange(p)
            g = build_graph(reduce_map(CycSetting.make(d, 1, c), primes_above(p, 1)[0]))
            assert is_bijective(g) == (gcd(d, p - 1) == 1)
            sizes, _ = image_sizes_and_periodic(g, 2)
            assert (sizes[1] == sizes[0]) == (gcd(d, p - 1) == 1)


def test_bijective_iff_full_first_image_iff_all_periodic():
    for p in (5, 7, 11, 13):
        g = build_graph(reduce_map(CycSetting.make(3, 1, 1), primes_above(p, 1)[0]))
        full_first = image_size_at(g, 1) == g.size
        assert is_bijective(g) == full_first
        assert (image_sizes_and_periodic(g, 1)[1] == g.size) == full_first
        sizes, periodic = image_sizes_and_periodic(g, 8)
        assert (sizes[1] == sizes[0]) == full_first
        assert (periodic == g.size) == full_first


def test_image_sizes_weakly_decreasing_and_bound_periodic():
    for p in (7, 11, 13, 17, 101):
        g = build_graph(reduce_map(CycSetting.make(2, 1, 1), primes_above(p, 1)[0]))
        _, sizes = periodic_by_image_iteration(g)
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        per = image_sizes_and_periodic(g, 1)[1]
        assert all(per <= s for s in sizes)
        assert sizes[-1] == per


def test_image_size_sequence_prefix():
    P7 = primes_above(7, 1)[0]
    g = build_graph(reduce_map(CycSetting.make(3, 1, 1), P7))
    assert image_sizes_and_periodic(g, 8) == ((8, 4, 3, 2, 2), 2)
    assert image_sizes_and_periodic(g, 3) == ((8, 4, 3), 2)
    assert image_sizes_and_periodic(g, 1) == ((8,), 2)
    assert image_size_at(g, 1) == 4
    assert image_size_at(g, 2) == 3
    assert image_size_at(g, 50) == 2  # stabilizes early


def test_image_size_at_matches_n_fold_composition():
    for p in (7, 11, 29):
        g = build_graph(reduce_map(CycSetting.make(2, 1, 1), primes_above(p, 1)[0]))
        for n in (1, 2, 3, 5, 20):
            composed = g.successor
            for _ in range(n - 1):
                composed = g.successor[composed]
            assert image_size_at(g, n) == len(set(composed.tolist()))


def test_extension_field_graph():
    # x^3 + 1 over F_25 (inert prime of the cubic cyclotomic field)
    P = primes_above(5, 3)[0]
    g = build_graph(reduce_map(CycSetting.make(3, 3, 1), P))
    assert g.size == 26
    a = periodic_by_cycles(g)
    b, _ = periodic_by_image_iteration(g)
    assert a == b
    # gcd(3, 24) = 3 so the cube map is 3-to-1: not bijective
    assert not is_bijective(g)


def test_memory_cap(monkeypatch):
    from perprop import dynamics

    monkeypatch.setattr(dynamics, "MEMORY_CAP_POINTS", 4)
    field = make_field(5, 1)
    with pytest.raises(ResourceCapError):
        build_graph(power_map(field, 2, (1,)))


def test_folded_walk_refuses_what_build_graph_refuses(monkeypatch):
    for d in (2, 3):  # gcd(d, 4) = 2: folded; gcd(d, 4) = 1: closed form
        m = power_map(make_field(5, 1), d, (1,))
        monkeypatch.setattr(dynamics, "MEMORY_CAP_POINTS", 4)
        with pytest.raises(ResourceCapError) as built:
            build_graph(m)
        with pytest.raises(ResourceCapError) as walked:
            row_walk(m, 8)
        assert str(walked.value) == str(built.value)
        # past the int64 guard, refused before anything is allocated
        monkeypatch.setattr(dynamics, "MEMORY_CAP_POINTS", 10**10)
        with pytest.raises(ResourceCapError, match="overflow int64"):
            row_walk(power_map(ResidueField(3_037_000_501, 1, (0, 1)), d, (1,)), 8)


def test_int64_guard():
    # the guard alone, so that a missing guard allocates nothing: a product
    # of two coefficients reaches (p-1)^2, a convolution sum f (p-1)^2
    fits = 3_037_000_500  # the largest p with (p-1)^2 < 2^63
    _check_int64(ResidueField(fits, 1, (0, 1)))
    with pytest.raises(ResourceCapError):
        _check_int64(ResidueField(fits + 1, 1, (0, 1)))
    _check_int64(ResidueField(2_147_483_647, 2, (1, 0, 1)))
    with pytest.raises(ResourceCapError):
        _check_int64(ResidueField(2_147_483_659, 2, (1, 0, 1)))
    with pytest.raises(ResourceCapError):
        _check_int64(ResidueField(1_518_500_251, 4, (1, 0, 0, 0, 1)))


def test_cube_count_for_split_primes():
    # for p = 1 mod 3 the image of x^3 + 1 has (p-1)/3 + 2 points (with infinity)
    for p in (7, 13, 19, 31, 103):
        g = build_graph(reduce_map(CycSetting.make(3, 1, 1), primes_above(p, 1)[0]))
        assert image_size_at(g, 1) == (p - 1) // 3 + 2


def _fields_reached(norm_bound):
    """Every residue field prime_stream reaches for the conductors 3, 4, 5, 7, 8."""
    fields = {}
    for e in (3, 4, 5, 7, 8):
        for P in prime_stream(e, norm_bound):
            fields[P.field.p, P.field.f] = P.field
    return [fields[key] for key in sorted(fields)]


def test_power_map_successors_match_scalar_field_arithmetic():
    # Extension fields are checked at every point.  Prime fields run the same
    # kernel; they are checked at the first and last points of every block
    # and at 32 seeded random points, since all of their 1.8e7 points in
    # scalar arithmetic would take minutes.
    rng = random.Random(5)
    fields = _fields_reached(20_000)
    assert any(F.f >= 2 and F.q > BLOCK for F in fields)  # multi-block, partial tail
    for F in fields:
        if F.f >= 2:
            points = range(F.q)
        else:
            edges = {i for start in range(0, F.q, BLOCK)
                     for i in (start, start + 1, start + BLOCK - 1, start + BLOCK)}
            edges |= {rng.randrange(F.q) for _ in range(32)} | {F.q - 1}
            points = sorted(i for i in edges if i < F.q)
        c = F.element_from_index(rng.randrange(F.q))
        succ = {d: build_graph(power_map(F, d, c)).successor for d in (2, 3, 4, 5)}
        for idx in points:
            x = F.element_from_index(idx)
            power = x
            for d in (2, 3, 4, 5):
                power = F.mul(power, x)
                assert succ[d][idx] == F.index_of(F.add(power, c)), (F, d, idx)
        assert all(succ[d][F.q] == F.q for d in succ)


def _scalar_rational_image(F, num, den, idx):
    """Oracle: p(x)/q(x) at one point by scalar Horner; infinity through the
    homogenized map (1:0) -> (leading num : leading den) in degree D."""
    if idx == F.q:
        top_degree = max(len(num), len(den)) - 1
        top = num[top_degree] if top_degree < len(num) else F.zero
        bottom = den[top_degree] if top_degree < len(den) else F.zero
    else:
        x = F.element_from_index(idx)
        top = bottom = F.zero
        for coeff in reversed(num):
            top = F.add(F.mul(top, x), coeff)
        for coeff in reversed(den):
            bottom = F.add(F.mul(bottom, x), coeff)
    if bottom == F.zero:
        return F.q
    return F.index_of(F.mul(top, F.inv(bottom)))


def test_general_map_successors_match_scalar_horner():
    # the random rational-map generator of acceptance criterion 6
    rng = random.Random(97)
    done = 0
    while done < 100:
        p = rng.choice([q for q in primes_up_to(100) if q > 2])
        field = make_field(p, 1)
        degree = rng.randint(1, 4)
        num = [rng.randrange(p) for _ in range(degree + 1)]
        den = [rng.randrange(p) for _ in range(rng.randint(1, degree + 1))]
        try:
            m = general_map(field, num, den)
        except ValueError:
            continue
        expected = [_scalar_rational_image(field, m.num_coeffs, m.den_coeffs, i)
                    for i in range(field.q + 1)]
        assert build_graph(m).successor.tolist() == expected, (p, num, den)
        done += 1


def _former_row_passes(g, max_entries):
    """Oracle: the three separate passes a sweep row once made.  Image sizes
    by a mask walk, the periodic count by pointer doubling over all points,
    and bijectivity by one mask of the successors."""
    succ = g.successor
    sizes = [g.size]
    current = np.arange(g.size)
    while len(sizes) < max_entries:
        mask = np.zeros(g.size, dtype=bool)
        mask[succ[current]] = True
        image = np.flatnonzero(mask)
        sizes.append(image.size)
        if image.size == current.size:
            break
        current = image
    t, steps = succ, 1
    while steps < g.size:
        t = t[t]
        steps *= 2
    mask = np.zeros(g.size, dtype=bool)
    mask[t] = True
    periodic = int(np.count_nonzero(mask))
    mask = np.zeros(g.size, dtype=bool)
    mask[succ] = True
    return tuple(sizes), periodic, bool(mask.all())


def test_row_pass_matches_former_passes():
    # every prime field with p <= 2e4 for x^2 + 1 and x^3 + 1, and every
    # residue field of degree f >= 2 with q <= 2e4 over Q(zeta_e), e in {3, 5, 8}
    from perprop.cli import compute_row

    primes = [(1, P) for p in primes_up_to(20_000) for P in primes_above(p, 1)]
    primes += [(e, P) for e in (3, 5, 8) for P in prime_stream(e, 20_000) if P.f >= 2]
    assert sum(e > 1 for e, _ in primes) > 40
    doubled = 0
    for d in (2, 3):
        for e, P in primes:
            setting = CycSetting.make(d, e, 1)
            g = build_graph(reduce_map(setting, P))
            for max_entries in (1, 2, 8):
                sizes, periodic, bijective = _former_row_passes(g, max_entries)
                assert image_sizes_and_periodic(g, max_entries) == (sizes, periodic), (d, P)
            doubled += sizes[-1] != sizes[-2]
            row = compute_row(setting, P)
            assert (row.image_sizes, row.periodic, row.bijective) == (
                sizes, periodic, sizes[1] == sizes[0]), (d, P)
            assert row.bijective == bijective
    assert doubled > 100  # walks cut at 8 images, counted by doubling


def test_folded_walk_matches_the_full_graph():
    # every prime of norm <= 3000 over Q(zeta_e), e in {1, 3, 4, 5, 8}: the
    # row walk equals the full-graph walk, folded or not
    kinds = set()
    for e in (1, 3, 4, 5, 8):
        primes = list(prime_stream(e, 3000))
        for d in (2, 3, 4, 6):
            for c in (1, "1+z"):
                setting = CycSetting.make(d, e, c)
                for P in primes:
                    m = reduce_map(setting, P)
                    k = gcd(d, P.norm - 1)
                    kinds.add(f"folded f={P.f}" if k == 2 else f"k={k}")
                    kinds.add("p=2" if P.p == 2 else "wild" if m.wild else "tame")
                    want = image_sizes_and_periodic(build_graph(m), 8)
                    assert row_walk(m, 8) == want, (d, e, c, P)
    assert {"folded f=1", "folded f=2", "folded f=4", "k=1", "k=3", "k=4", "k=6",
            "p=2", "wild"} <= kinds
    # short walks keep their length, and the stable size when it comes first;
    # the last five rows have k = 1 (p = 2, wild p = 3 and F_4 among them)
    for max_entries in (1, 2, 3):
        for d, p, f in ((2, 5, 1), (2, 7, 1), (4, 7, 1), (6, 11, 1),
                        (3, 5, 1), (5, 7, 1), (3, 2, 1), (3, 3, 1), (2, 2, 2)):
            m = power_map(make_field(p, f), d, (1,))
            want = image_sizes_and_periodic(build_graph(m), max_entries)
            assert row_walk(m, max_entries) == want, (max_entries, d, p, f)


def test_rows_with_gcd_one_build_no_graph(monkeypatch):
    # x^d + c with gcd(d, q-1) = 1 is a bijection: tame, wild, p = 2, f >= 2
    maps = [power_map(make_field(p, f), d, make_field(p, f).element_from_index(c))
            for d, p, f, c in ((3, 5, 1, 1), (5, 10007, 1, 2), (3, 3, 1, 0),
                               (2, 2, 1, 1), (3, 2, 3, 5), (7, 3, 4, 7))]
    assert all(gcd(m.degree, m.field.q - 1) == 1 for m in maps)
    want = {(m, n): image_sizes_and_periodic(build_graph(m), n)
            for m in maps for n in (0, 1, 2, 8)}

    def refuse(m):
        raise AssertionError("build_graph called for a row with gcd(d, q-1) = 1")

    monkeypatch.setattr(dynamics, "build_graph", refuse)
    for (m, n), expected in want.items():
        assert row_walk(m, n) == expected, (m.field, m.degree, n)


def _largest_admitted_p(f):
    """The largest p whose F_{p^f} arithmetic _check_int64 admits."""
    p = isqrt((2**63 - 1) // f) + 1
    modulus = (1,) + (0,) * (f - 1) + (1,)
    _check_int64(ResidueField(p, f, modulus))
    with pytest.raises(ResourceCapError):
        _check_int64(ResidueField(p + 1, f, modulus))
    return p


@pytest.mark.parametrize("f", [1, 2, 4])
def test_mod_by_floor_division_equals_the_remainder(f):
    p = _largest_admitted_p(f)
    for modulus in (2, 3, 10007, p):
        edge = [0, 1, modulus - 1, modulus, f * (modulus - 1) ** 2]
        rng = np.random.default_rng(modulus)
        bound = f * (modulus - 1) ** 2
        y = np.array(edge + [-v for v in edge], dtype=np.int64)
        y = np.concatenate([y, rng.integers(-bound, bound, size=1000, endpoint=True)])
        want = y % modulus
        assert np.array_equal(_mod(y, modulus), want), modulus
        out = np.empty_like(y)
        assert _mod(y, modulus, out=out) is out
        assert np.array_equal(out, want), modulus
        assert _mod(y, modulus, out=y) is y  # in place
        assert np.array_equal(y, want), modulus


def test_kernels_leave_their_indices_intact():
    for F in (make_field(7, 1), make_field(13, 1), make_field(5, 2)):
        c = F.element_from_index(3)
        idx = np.arange(F.q, dtype=np.int64)
        for d in range(1, 6):
            _finite_successors(power_map(F, d, c), idx)
            assert np.array_equal(idx, np.arange(F.q)), (F, d)
    F = make_field(7, 1)
    idx = np.arange(F.q, dtype=np.int64)
    _finite_successors(general_map(F, [1, 0, 2], [3, 1]), idx)
    assert np.array_equal(idx, np.arange(F.q))
    # at f = 1 the digits are a view of the indices, and x^1 is x itself
    x = _digits(F, idx)
    assert x.shape == (1, F.q) and np.shares_memory(x, idx)
    assert power(x, 1, None, None) is x


def test_degree_one_power_map_is_a_translation():
    for p in (2, 3, 7, 10007):
        F = make_field(p, 1)
        for c in {0, 1, p - 1}:
            succ = build_graph(power_map(F, 1, (c,))).successor
            assert succ.tolist() == [(i + c) % p for i in range(p)] + [p], (p, c)


def test_kernels_reduce_only_through_mod():
    # numpy's remainder by a scalar is several times slower than its floor
    # division, so every reduction of dynamics goes through _mod
    tree = ast.parse(Path(dynamics.__file__).read_text())
    inside_mod = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) and fn.name == "_mod"
                  for node in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        if id(node) in inside_mod:
            continue
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Mod):
            found.append(node.lineno)
        if isinstance(node, ast.Call):
            name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(
                node.func, "id", None)
            if name in ("divmod", "remainder", "mod", "fmod"):
                found.append(node.lineno)
    assert not found, f"reduction outside _mod at lines {found}"
