#!/usr/bin/env python3
"""Compare the theoretical image-proportion bound against measured sweeps.

For x^d + c over Q and iterates n, prints the bound split into its fixed
part (degree times model FPP) and the q-decaying error term, next to the
measured n-th image proportion at each prime on a geometric grid.  Measured
values above the bound would falsify the implementation; none should appear.

Usage: python scripts/bound_vs_measured.py [d] [c] [n] [max_exponent]
"""

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from perprop.bounds import error_term
from perprop.cli import coset_fpp_enclosures, fmt6
from perprop.dynamics import build_graph, image_size_at, reduce_map
from perprop.powermap import CycSetting, galois_A
from perprop.residue_fields import is_prime, primes_above
from perprop.wreath import wreath_order


def next_prime(n):
    while not is_prime(n):
        n += 1
    return n


def main():
    d = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    c = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    n = int(sys.argv[3]) if len(sys.argv) > 3 else 1
    max_exp = int(sys.argv[4]) if len(sys.argv) > 4 else 5
    setting = CycSetting.make(d, 1, c)
    A_order = len(galois_A(d, 1))
    order = A_order * wreath_order(d, d, n)
    # |A| times the mean over cosets
    fixed_part = sum(hi for *_, hi in coset_fpp_enclosures(d, 1, n))
    print(f"map x^{d}+{c}, iterate n={n}: |A|={A_order} |B_n|={order} "
          f"fixed part of bound = {fixed_part} ({fmt6(fixed_part)})")
    print("q,fixed_part,error_term,bound,measured,ok")
    for exp in range(2, max_exp + 1):
        p = next_prime(10**exp)
        while p <= d:
            p = next_prime(p + 1)
        err = error_term(p, n, d, order, order)
        bound = fixed_part + err
        graph = build_graph(reduce_map(setting, primes_above(p, 1)[0]))
        measured = Fraction(image_size_at(graph, n), graph.size)
        ok = "ok" if measured <= bound else "VIOLATION"
        print(f"{p},{fmt6(fixed_part)},{fmt6(err)},{fmt6(bound)},"
              f"{fmt6(measured)},{ok}")


if __name__ == "__main__":
    main()
