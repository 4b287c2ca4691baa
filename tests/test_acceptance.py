"""Acceptance suite: one test per criterion, each printing its PASS line.

Run `pytest tests/test_acceptance.py -v -s` to watch the per-criterion lines;
every tolerance and runtime budget asserted here is final, not calibrated.
"""

import random
import time
from fractions import Fraction
from itertools import product
from math import gcd
from statistics import median

from perprop.bounds import error_term
from perprop.cli import compute_row
from perprop.dynamics import (
    build_graph,
    general_map,
    image_size_at,
    image_sizes_and_periodic,
    periodic_by_cycles,
    periodic_by_image_iteration,
    reduce_map,
)
from perprop.indicatrix import (
    DIVERGES,
    derivative_at_one,
    epsilon_index,
    indicatrix_of,
    iterate_at_zero,
    value_at,
)
from perprop.perms import (
    Permutation,
    close_under_composition,
    coset,
    cyclic_group,
    fpp,
    is_transitive,
    mean_trace,
    symmetric_group,
)
from perprop.powermap import (
    CosetStatus,
    CycSetting,
    Preperiodicity,
    build_B1,
    classify_regime,
    coset_status,
)
from perprop.residue_fields import (
    make_field,
    multiplicative_order,
    primes_above,
    primes_up_to,
    prime_stream,
)
from perprop.wreath import iterated_wreath, wreath_order

F = Fraction


def _recursion_fpp(group, n) -> F:
    phi = indicatrix_of(group)
    value = F(0)
    for _ in range(n):
        value = value_at(phi, value)
    return 1 - value


def test_criterion_01_wreath_oracle_equivalence():
    started = time.monotonic()
    cases = [
        (cyclic_group(2), F(3, 8)),
        (cyclic_group(3), F(19, 81)),
        (symmetric_group(3), F(40, 81)),
    ]
    for group, expected in cases:
        brute = fpp(iterated_wreath(group, 2))
        recursion = _recursion_fpp(group, 2)
        assert brute == recursion == expected
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    print(f"ACCEPTANCE 1 PASS: wreath enumeration equals recursion "
          f"(3/8, 19/81, 40/81 exactly) in {elapsed:.2f}s")


def test_criterion_02_burnside_and_derivative_identities():
    rng = random.Random(2024)
    groups = {}
    while len(groups) < 50:
        degree = rng.randint(2, 5)
        gens = []
        for _ in range(rng.randint(1, 2)):
            images = list(range(degree))
            rng.shuffle(images)
            gens.append(Permutation(tuple(images)))
        g = close_under_composition(gens)
        groups[(degree, tuple(p.images for p in g))] = g
    transitive = [g for g in groups.values() if is_transitive(g)]
    assert len(transitive) >= 10
    cosets_checked = 0
    for g in transitive:
        seen = set()
        for rep in symmetric_group(g.degree):
            cs = coset(g, rep)
            key = tuple(p.images for p in cs)
            if key in seen:
                continue
            seen.add(key)
            assert mean_trace(cs) == 1
            assert derivative_at_one(indicatrix_of(cs)) == 1
            cosets_checked += 1
    print(f"ACCEPTANCE 2 PASS: mean trace and derivative at 1 equal 1 exactly "
          f"on {cosets_checked} cosets of {len(transitive)} transitive groups "
          f"({len(groups)} groups generated)")


def test_criterion_03_dichotomy():
    data = build_B1(3, 1)
    positive_cases = [
        indicatrix_of(cyclic_group(2)),
        indicatrix_of(cyclic_group(3)),
        indicatrix_of(symmetric_group(3)),
        indicatrix_of(data.coset_permset(1)),
    ]
    for phi in positive_cases:
        assert phi.coeffs[0] > 0
        prev_hi = F(-1)
        for n in range(1, 31):
            iv = iterate_at_zero(phi, n)
            assert iv.lo > prev_hi  # strictly increasing, certified
            prev_hi = iv.hi
        for eps in (F(1, 2), F(1, 10), F(1, 100)):
            assert isinstance(epsilon_index(phi, eps), int)
    all_fixed = indicatrix_of(data.coset_permset(2))  # m=2 coset of x^3 + c
    assert coset_status(2, 3) is CosetStatus.ALL_HAVE_FIXED_POINTS
    assert all_fixed.coeffs[0] == 0
    for eps in (F(1, 2), F(1, 10), F(1, 100)):
        assert epsilon_index(all_fixed, eps) is DIVERGES
    print("ACCEPTANCE 3 PASS: iterates strictly increase and the epsilon index "
          "terminates when the constant term is positive; the all-fixed coset "
          "diverges")


def test_criterion_04_cubic_bijectivity_law():
    started = time.monotonic()
    setting = CycSetting.make(3, 1, 1)
    checked = 0
    for p in primes_up_to(9_999):
        if p <= 3:  # wild
            continue
        row = compute_row(setting, primes_above(p, 1)[0])
        if p % 3 != 1:
            assert row.bijective and row.periodic == row.total, p
            assert row.proportion == 1, p
        else:
            assert not row.bijective and row.periodic < row.total, p
            assert row.proportion < 1, p
        checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    print(f"ACCEPTANCE 4 PASS: x^3+1 bijective exactly off p=1 mod 3 on "
          f"{checked} good primes < 10^4, zero exceptions, in {elapsed:.2f}s")


def test_criterion_05_regime_table_and_gcd_criterion():
    table = {
        (3, 1): "c", (3, 3): "b", (2, 1): "b", (4, 1): "b",
        (5, 1): "c", (6, 1): "b", (9, 1): "c", (4, 4): "b",
    }
    for (d, e), expected in table.items():
        report = classify_regime(CycSetting.make(d, e, 1),
                                 Preperiodicity.NOT_PREPERIODIC)
        assert ("c" if report.limsup_one else "b") == expected, (d, e)
    # the gcd criterion against exhaustive search over i and j
    for d in range(2, 31):
        for m in range(1, d):
            if gcd(m, d) != 1:
                continue
            brute = all(
                any(((m - 1) * i + j) % d == 0 for i in range(d))
                for j in range(d)
            )
            fast = coset_status(m, d) is CosetStatus.ALL_HAVE_FIXED_POINTS
            assert fast == brute, (m, d)
    print("ACCEPTANCE 5 PASS: regime table matches on all 8 settings and the "
          "gcd criterion agrees with exhaustive search for every d <= 30")


def test_criterion_06_two_algorithm_agreement():
    graphs = 0
    for d, c in product((2, 3), (1, 2)):
        setting = CycSetting.make(d, 1, c)
        for p in primes_up_to(9_999):
            if p <= d:
                continue
            graph = build_graph(reduce_map(setting, primes_above(p, 1)[0]))
            by_cycles = periodic_by_cycles(graph)
            by_images, _ = periodic_by_image_iteration(graph)
            assert by_cycles == by_images, (d, c, p)
            graphs += 1
    rng = random.Random(97)
    random_done = 0
    while random_done < 100:
        p = rng.choice([q for q in primes_up_to(100) if q > 2])
        field = make_field(p, 1)
        degree = rng.randint(1, 4)
        num = [rng.randrange(p) for _ in range(degree + 1)]
        den = [rng.randrange(p) for _ in range(rng.randint(1, degree + 1))]
        try:
            reduced = general_map(field, num, den)
        except ValueError:
            continue
        graph = build_graph(reduced)
        assert periodic_by_cycles(graph) == periodic_by_image_iteration(graph)[0]
        random_done += 1
    print(f"ACCEPTANCE 6 PASS: cycle traversal and image iteration agree on "
          f"{graphs} power-map graphs and {random_done} random rational maps")


def test_criterion_07_decay_evidence_regime_b():
    setting = CycSetting.make(2, 1, 1)
    low_bucket, high_bucket = [], []
    for p in primes_up_to(100_000):
        graph = build_graph(reduce_map(setting, primes_above(p, 1)[0]))
        sizes, periodic = image_sizes_and_periodic(graph, 21)
        deep_image = sizes[-1]  # |f^20(X)|, or the stable size if reached sooner
        assert periodic <= deep_image, p
        proportion = F(periodic, graph.size)
        if 100 <= p <= 1000:
            low_bucket.append(proportion)
        elif 10_000 <= p <= 100_000:
            high_bucket.append(proportion)
    med_low = median(low_bucket)
    med_high = median(high_bucket)
    assert med_high < med_low
    print(f"ACCEPTANCE 7 PASS: x^2+1 periodic counts never exceed the 20th "
          f"image size; median proportion falls {float(med_low):.4f} -> "
          f"{float(med_high):.4f} across decades")


def test_criterion_08_limsup_evidence_regime_c():
    setting = CycSetting.make(3, 1, 1)
    decades = [(1, 10), (10, 100), (100, 1_000), (1_000, 10_000), (10_000, 100_000)]
    full_by_decade = {bounds: [] for bounds in decades}
    for p in primes_up_to(100_000):
        graph = build_graph(reduce_map(setting, primes_above(p, 1)[0]))
        if image_size_at(graph, 1) == graph.size:  # bijective
            for lo, hi in decades:
                if lo < p <= hi:
                    full_by_decade[(lo, hi)].append((p, graph.size))
    for bounds, hits in full_by_decade.items():
        assert hits, f"no fully periodic prime in decade {bounds}"
    # bijectivity means proportion one; verify that equivalence directly on
    # the smallest witness of each decade
    for bounds, hits in full_by_decade.items():
        p, size = min(hits)
        row = compute_row(setting, primes_above(p, 1)[0])
        assert row.bijective and row.periodic == size == row.total
        assert row.proportion == 1
    witnesses = {bounds: min(hits)[0] for bounds, hits in full_by_decade.items()}
    print(f"ACCEPTANCE 8 PASS: x^3+1 fully periodic primes appear in every "
          f"decade of norms up to 10^5, e.g. {sorted(witnesses.values())}")


def test_criterion_09_bound_soundness_end_to_end():
    started = time.monotonic()
    setting = CycSetting.make(3, 1, 1)
    data = build_B1(setting.d, setting.e)
    bounds_by_n = {}
    for n in (1, 2):
        order = len(data.A) * wreath_order(3, 3, n)
        total = F(0)
        for m in data.A:
            iv = iterate_at_zero(indicatrix_of(data.coset_permset(m)), n)
            assert iv.lo == iv.hi
            total += 1 - iv.lo
        fpp_value = total / len(data.A)
        bounds_by_n[n] = (order, len(data.A) * fpp_value)
    checked = violations = 0
    for p in primes_up_to(99_999):
        if p <= 1000:
            continue
        graph = build_graph(reduce_map(setting, primes_above(p, 1)[0]))
        for n in (1, 2):
            order, fpp_part = bounds_by_n[n]
            bound = fpp_part + error_term(p, n, 3, order, order)
            measured = F(image_size_at(graph, n), graph.size)
            if measured > bound:
                violations += 1
        if p % 3 == 1:
            s1 = image_size_at(graph, 1)
            assert abs(3 * s1 - (p + 1)) <= 9, p  # |s1/(p+1) - 1/3| <= 3/(p+1)
        checked += 1
    assert violations == 0
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    print(f"ACCEPTANCE 9 PASS: measured image proportions stay under the "
          f"theoretical bound for n=1,2 on {checked} primes with zero "
          f"violations; split primes match the cube count, in {elapsed:.1f}s")


def test_criterion_10_cyclotomic_sweep_correctness():
    setting = CycSetting.make(3, 3, 1)
    stream = prime_stream(3, 10_000)
    by_p = {}
    for P in stream:
        by_p.setdefault(P.p, []).append(P)
    assert 3 not in by_p  # ramified primes are excluded
    pairs_checked = inert_checked = 0
    for p, primes in by_p.items():
        f = multiplicative_order(p, 3)
        assert all(P.f == f for P in primes)
        if p % 3 == 1:
            assert f == 1 and len(primes) == 2
        else:
            assert f == 2 and len(primes) == 1
        proportions = []
        for P in primes:
            proportions.append(compute_row(setting, P).proportion)
        if len(proportions) == 2:
            assert proportions[0] == proportions[1], p
            pairs_checked += 1
        else:
            inert_checked += 1
    assert pairs_checked > 100 and inert_checked > 10
    print(f"ACCEPTANCE 10 PASS: split/inert pattern matches the order of p "
          f"mod 3 and {pairs_checked} split pairs have equal proportions "
          f"({inert_checked} inert primes checked)")
