"""The benchmark workloads: inputs made from a seed, one pass of work
through perprop's public entry points, and the check of every output against
the golden files that record_golden.py wrote.

A pass is the unit the benchmark times.  Each op inside a pass (one sweep row,
or one CLI command in exact_group) is checked on its own, so a wrong answer
counts as one failed op and never aborts the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# The seed picks C from this set for the sweeps.  Every C here keeps x^d + C
# in the same regime, so the work per pass does not depend on the seed.
C_CHOICES = (1, 2, 3, 4, 5)

# x^2 + C over Q: every prime field up to the bound, 1229 rows.  The bound
# keeps one pass to a few seconds, so that a run can report the median of
# several passes.
SWEEP_PRIME = {"d": 2, "e": 1, "norm_bound": 10_000}
# x^3 + C over Q(zeta_5): only the primes of residue degree f >= 2 (16 of
# degree 2 and 4 of degree 4, 175,575 points), which isolates the pointwise
# tuple arithmetic of F_{p^f}.
SWEEP_INERT = {"d": 3, "e": 5, "norm_bound": 30_000}

# exact_group: the fixed commands plus this many regime commands drawn from
# the recorded pool's fast class, and one from each slow stratum.
REGIME_FAST_PICKS = 114


def digest(line: str) -> str:
    return hashlib.sha256(line.encode("utf-8")).hexdigest()[:16]


def load_golden(name: str) -> dict:
    with open(GOLDEN_DIR / f"{name}.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run perprop's CLI in-process; returns (exit code, captured stdout)."""
    from perprop import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def sweep_argv(spec: dict, c: int, threads: int = 1) -> list[str]:
    argv = ["sweep", "-d", str(spec["d"]), "-e", str(spec["e"]), f"-c={c}",
            "-N", str(spec["norm_bound"])]
    if threads > 1:
        argv += ["--threads", str(threads)]
    return argv


@dataclass
class PassResult:
    attempted: int = 0
    failed: int = 0
    points: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(what)


class NullTracer:
    """Stands in for the tracer in untraced passes."""

    def span(self, name: str):
        return contextlib.nullcontext()


class SweepPrime:
    """`perprop sweep -d 2 -e 1 -c=C -N 10000` through cli.main, stdout
    captured.  Ops: one per row, plus one for the header, the summary lines
    and the exit code together."""

    spec = SWEEP_PRIME

    def __init__(self, seed: int, threads: int = 1):
        self.threads = threads
        self.c = random.Random(seed).choice(C_CHOICES)
        self.argv = sweep_argv(self.spec, self.c, threads)
        self.golden = load_golden("sweep_prime")[str(self.c)]

    def describe(self) -> str:
        return "perprop " + " ".join(self.argv)

    def largest_q(self) -> int:
        return self.golden["largest_q"]

    def run_pass(self, tracer) -> PassResult:
        try:
            with tracer.span("cli.main.sweep"):
                code, text = run_cli(self.argv)
        except Exception as exc:  # every op of a raising sweep fails
            code, text = repr(exc), ""
        res = PassResult(points=self.golden["points"])
        lines = text.split("\n")
        rows = self.golden["rows"]
        got_rows = lines[1:1 + len(rows)]
        for i, want in enumerate(rows):
            got = got_rows[i] if i < len(got_rows) else None
            res.check(got is not None and digest(got) == want, f"row {i + 1}")
        frame = [lines[0]] + lines[1 + len(rows):]
        want_frame = [self.golden["header"]] + self.golden["summary"] + [""]
        res.check(code == 0 and frame == want_frame, f"exit {code} / header / summary")
        return res


class SweepInert:
    """The residue-degree >= 2 rows of `perprop sweep -d 3 -e 5 -c=C -N 30000`,
    computed with cli.compute_row over the prime stream filtered to f >= 2 and
    formatted by the CLI row formatter.  Ops: one per row."""

    spec = SWEEP_INERT
    threads = 1

    def __init__(self, seed: int):
        self.c = random.Random(seed).choice(C_CHOICES)
        self.golden = load_golden("sweep_inert")[str(self.c)]

    def describe(self) -> str:
        s = self.spec
        return (f"cli.compute_row over prime_stream({s['e']}, {s['norm_bound']}) "
                f"with f >= 2, x^{s['d']} + {self.c}")

    def largest_q(self) -> int:
        return self.golden["largest_q"]

    def run_pass(self, tracer) -> PassResult:
        from perprop import cli, powermap, residue_fields

        s = self.spec
        lines = []
        with tracer.span("bench.inert_sweep"):
            setting = powermap.CycSetting.make(s["d"], s["e"], self.c)
            stream = residue_fields.prime_stream(s["e"], s["norm_bound"])
            primes = [P for P in stream if P.f >= 2]
            for P in primes:
                try:
                    lines.append(cli._row_csv(cli.compute_row(setting, P), False))
                except Exception as exc:  # a raising row is one failed op
                    lines.append(repr(exc))
        res = PassResult(points=sum(P.norm + 1 for P in primes))
        want = self.golden["rows"]
        for i, line in enumerate(want):
            got = lines[i] if i < len(lines) else None
            res.check(got == line, f"inert row {i + 1}")
        if len(lines) > len(want):
            res.check(False, f"{len(lines) - len(want)} extra inert rows")
        return res


class Sweep:
    """Both finite-field workloads in one pass: the sweep_prime CLI sweep,
    then the sweep_inert rows, with the same C.  Ops: those of both."""

    threads = 1

    def __init__(self, seed: int):
        self.parts = (SweepPrime(seed), SweepInert(seed))

    def describe(self) -> str:
        return "; then ".join(part.describe() for part in self.parts)

    def largest_q(self) -> int:
        return max(part.largest_q() for part in self.parts)

    def run_pass(self, tracer) -> PassResult:
        res = PassResult()
        for part in self.parts:
            got = part.run_pass(tracer)
            res.attempted += got.attempted
            res.failed += got.failed
            res.points += got.points
            res.failures += got.failures[:5 - len(res.failures)]
        return res


class ExactGroup:
    """Group-side CLI commands that touch no finite field: the fixed fpp,
    wreathcheck and bound commands, plus regime commands drawn from the
    recorded pool.  Ops: one per command (stdout and exit code)."""

    threads = 1

    def __init__(self, seed: int):
        golden = load_golden("exact_group")
        rng = random.Random(seed)
        picks = rng.sample(golden["regime_fast"], REGIME_FAST_PICKS)
        picks += [rng.choice(stratum) for stratum in golden["regime_slow_strata"]]
        rng.shuffle(picks)
        self.commands = golden["fixed"] + picks

    def describe(self) -> str:
        kinds: dict[str, int] = {}
        for cmd in self.commands:
            kinds[cmd["argv"][0]] = kinds.get(cmd["argv"][0], 0) + 1
        return f"{len(self.commands)} CLI commands " + json.dumps(kinds, sort_keys=True)

    def largest_q(self) -> int:
        return 0

    def run_pass(self, tracer) -> PassResult:
        res = PassResult()
        for cmd in self.commands:
            argv = cmd["argv"]
            try:
                with tracer.span(f"cli.main.{argv[0]}"):
                    code, text = run_cli(argv)
            except Exception as exc:  # a raising command is one failed op
                res.check(False, f"{' '.join(argv)} raised {exc!r}")
                continue
            ok = code == cmd["exit"] and text == cmd["stdout"]
            res.check(ok, f"{' '.join(argv)} exit {code}")
        return res


WORKLOADS = {
    "sweep": Sweep,
    "sweep_prime": lambda seed: SweepPrime(seed),
    "sweep_prime_t2": lambda seed: SweepPrime(seed, threads=2),
    "sweep_inert": SweepInert,
    "exact_group": ExactGroup,
}
