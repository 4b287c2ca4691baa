"""Record the golden outputs the benchmark checks against.

    python3 perfbench/record_golden.py

Run from the root of a checkout, at the commit whose outputs are golden; it
rewrites perfbench/golden/*.json (about two minutes on 2 cores):

* sweep_prime.json: for each C, the sweep CSV's header, a digest of every row
  and the summary lines.  The 1-thread and 2-thread CSVs must be identical.
* sweep_inert.json: for each C, the rows of the residue-degree >= 2 primes.
  For C = 1 they must equal the f >= 2 lines of the full CLI sweep.
* exact_group.json: stdout and exit code of the fixed group-side commands and
  of a pool of regime commands.  Pool entries slower than SLOW_S are split by
  recorded time into strata; a seed draws one command from each stratum and
  the rest from the fast entries, so every seed's pass costs about the same.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
from pathlib import Path
from time import perf_counter

import workloads as wl
from run import import_perprop

FIXED_COMMANDS = [
    ["fpp", "-d", "2", "-n", "1", "--epsilon", "1/10000"],
    ["fpp", "-d", "3", "-n", "1", "--epsilon", "1/10000"],
    ["fpp", "-d", "5", "-n", "1", "--epsilon", "1/10000"],
    ["fpp", "-d", "2", "-n", "64"],
    ["wreathcheck", "C2", "4"],
    ["bound", "-d", "4", "-e", "1", "-n", "2", "-q", "10009,100003", "--classes", "exact"],
]
REGIME_DEGREES = (2, 3, 4, 5)
REGIME_CONDUCTORS = (1, 3, 4, 5, 7, 8)
POOL_SEED = 0
POOL_PER_SETTING = 24  # distinct c per (d, e), coefficients in [-2, 2]; 5 for e = 1
SLOW_S = 0.02
SLOW_STRATA = 6


def log(text: str) -> None:
    print(text, file=sys.stderr, flush=True)


def timed(argv: list[str], repeats: int = 1) -> dict:
    times = []
    for _ in range(repeats):
        start = perf_counter()
        code, text = wl.run_cli(argv)
        times.append(perf_counter() - start)
    return {"argv": argv, "exit": code, "stdout": text, "seconds": round(statistics.median(times), 4)}


def record_sweep_prime() -> dict:
    out = {}
    for c in wl.C_CHOICES:
        code, text = wl.run_cli(wl.sweep_argv(wl.SWEEP_PRIME, c))
        code2, text2 = wl.run_cli(wl.sweep_argv(wl.SWEEP_PRIME, c, threads=2))
        assert code == code2 == 0 and text == text2, f"1- and 2-thread sweeps differ at C={c}"
        lines = text.split("\n")
        assert lines[-1] == ""
        rows = [line for line in lines[1:-1] if not line.startswith("#")]
        summary = [line for line in lines[1:-1] if line.startswith("#")]
        assert lines[1:-1] == rows + summary
        norms = [int(r.split(",")[2]) for r in rows]
        out[str(c)] = {
            "header": lines[0],
            "rows": [wl.digest(r) for r in rows],
            "summary": summary,
            "points": sum(q + 1 for q in norms),
            "largest_q": max(norms),
        }
        log(f"sweep_prime C={c}: {len(rows)} rows")
    return out


def record_sweep_inert() -> dict:
    from perprop import cli, powermap, residue_fields

    s = wl.SWEEP_INERT
    primes = [P for P in residue_fields.prime_stream(s["e"], s["norm_bound"]) if P.f >= 2]
    out = {}
    for c in wl.C_CHOICES:
        setting = powermap.CycSetting.make(s["d"], s["e"], c)
        rows = [cli._row_csv(cli.compute_row(setting, P), False) for P in primes]
        out[str(c)] = {"rows": rows, "largest_q": max(P.norm for P in primes)}
        log(f"sweep_inert C={c}: {len(rows)} rows")
    code, text = wl.run_cli(wl.sweep_argv(s, 1))
    full = [line for line in text.split("\n")[1:] if line and not line.startswith("#")]
    assert code == 0 and [r for r in full if r.split(",")[1] != "1"] == out["1"]["rows"], \
        "inert rows differ from the f >= 2 lines of the full sweep"
    log("sweep_inert: C=1 rows equal the f >= 2 lines of the full sweep")
    return out


def regime_pool() -> list[list[str]]:
    from perprop.cyclotomic import euler_phi, format_cyclotomic

    rng = random.Random(POOL_SEED)
    pool = []
    for d in REGIME_DEGREES:
        for e in REGIME_CONDUCTORS:
            seen: list[tuple[int, ...]] = []
            while len(seen) < min(POOL_PER_SETTING, 5 ** euler_phi(e)):
                c = tuple(rng.randint(-2, 2) for _ in range(euler_phi(e)))
                if c not in seen:
                    seen.append(c)
            pool += [["regime", "-d", str(d), "-e", str(e), f"-c={format_cyclotomic(c)}"]
                     for c in seen]
    return pool


def record_exact_group() -> dict:
    fixed = [timed(argv) for argv in FIXED_COMMANDS]
    fast, slow = [], []
    for argv in regime_pool():
        entry = timed(argv)
        if entry["seconds"] > SLOW_S:
            entry = timed(argv, repeats=3)
        (slow if entry["seconds"] > SLOW_S else fast).append(entry)
    slow.sort(key=lambda entry: entry["seconds"])
    bounds = [round(i * len(slow) / SLOW_STRATA) for i in range(SLOW_STRATA + 1)]
    strata = [slow[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    log(f"exact_group: {len(fast)} fast regime commands, strata of slow ones: "
        + ", ".join(f"{len(s)} in [{s[0]['seconds']}, {s[-1]['seconds']}] s" for s in strata))
    return {"fixed": fixed, "regime_fast": fast, "regime_slow_strata": strata}


def main() -> int:
    import_perprop()
    wl.GOLDEN_DIR.mkdir(exist_ok=True)
    for name, record in (("sweep_prime", record_sweep_prime),
                         ("sweep_inert", record_sweep_inert),
                         ("exact_group", record_exact_group)):
        data = record()
        path = Path(wl.GOLDEN_DIR) / f"{name}.json"
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        log(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
