#!/usr/bin/env python3
"""Compare the theoretical image-proportion bound against measured sweeps.

For x^d + c over Q and iterates n, runs `perprop bound --measure` on a
geometric grid: the first prime past each 10^k (k = 2..max_exponent) that is
above d.  Each line prints the bound, its q-decaying error term and the
measured n-th image proportion; measured values above the bound would
falsify the implementation, and the script then exits 1.

Usage: python scripts/bound_vs_measured.py [d] [c] [n] [max_exponent]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from perprop import cli
from perprop.residue_fields import is_prime


def next_prime(n):
    while not is_prime(n):
        n += 1
    return n


def main():
    d = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    c = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    n = int(sys.argv[3]) if len(sys.argv) > 3 else 1
    max_exp = int(sys.argv[4]) if len(sys.argv) > 4 else 5
    grid = []
    for exp in range(2, max_exp + 1):
        p = next_prime(10**exp)
        while p <= d:
            p = next_prime(p + 1)
        grid.append(str(p))
    return cli.main(["bound", "-d", str(d), "-n", str(n), f"-c={c}", "--measure",
                     "-q", ",".join(grid)])


if __name__ == "__main__":
    sys.exit(main())
