#!/usr/bin/env python3
"""Sweep the two reference maps and print per-decade periodic proportions.

x^2+1 over Q sits in the limit-zero regime: its median proportion should
fall decade over decade.  x^3+1 has limsup one: every decade should contain
fully periodic primes.  Writes the raw sweeps as CSV next to the summary.

Usage: python scripts/decay_experiment.py [norm_bound] [outdir]
"""

import sys
from pathlib import Path
from statistics import median

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from perprop.cli import compute_row, fmt6, CSV_HEADER, _row_csv
from perprop.powermap import CycSetting
from perprop.residue_fields import prime_stream


def decades(limit):
    lo = 1
    while lo < limit:
        yield lo, min(lo * 10, limit)
        lo *= 10


def sweep(d, c, norm_bound):
    setting = CycSetting.make(d, 1, c)
    return [compute_row(setting, P) for P in prime_stream(1, norm_bound)]


def main():
    norm_bound = int(sys.argv[1]) if len(sys.argv) > 1 else 100_000
    outdir = Path(sys.argv[2]) if len(sys.argv) > 2 else Path("sweeps")
    outdir.mkdir(parents=True, exist_ok=True)
    for d, c, label in [(2, 1, "x2plus1"), (3, 1, "x3plus1")]:
        rows = sweep(d, c, norm_bound)
        path = outdir / f"{label}_N{norm_bound}.csv"
        path.write_text(
            "\n".join([CSV_HEADER] + [_row_csv(r, False) for r in rows]) + "\n"
        )
        print(f"== {label}: {len(rows)} primes, sweep written to {path}")
        for lo, hi in decades(norm_bound):
            bucket = [r for r in rows if lo < r.norm <= hi and not r.wild]
            if not bucket:
                continue
            props = [r.proportion for r in bucket]
            full = sum(1 for r in bucket if r.proportion == 1)
            print(
                f"   norms ({lo}, {hi}]: count={len(bucket)} "
                f"median={fmt6(median(props))} max={fmt6(max(props))} "
                f"fully_periodic={full}"
            )


if __name__ == "__main__":
    main()
