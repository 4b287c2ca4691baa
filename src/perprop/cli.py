"""Command-line interface: reproducible experiments with CSV/JSON output.

Subcommands:
  fpp          indicatrix per multiplier coset and FPP after n iterations
  regime       preperiodicity check plus the (a)/(b)/(c) trichotomy verdict
  sweep        periodic-point counts over all primes up to a norm bound (CSV)
  wreathcheck  brute-force wreath enumeration vs the indicatrix recursion
  bound        proportion bound on a grid of norms, optionally vs measurement

Exit codes: 0 success, 1 a failed check (wreathcheck FAIL, a bound
--measure VIOLATION), 2 usage, 3 hypothesis failure, 4 I/O failure,
5 resource cap, 6 internal error (a fault in perprop, reported with its
traceback).  Proportions print with 6 decimal places (round-half-even);
--exact (fpp and sweep) switches to p/q.  Each option is declared once, in
COMMANDS; main takes its value from the command line, else the --config
key=value file (key norm_bound for --norm-bound, n for N), else its default.
A config key that the command does not declare is a usage error.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
import traceback
from collections.abc import Callable
from dataclasses import asdict, dataclass, replace
from decimal import MAX_PREC, Decimal, localcontext
from fractions import Fraction
from itertools import islice
from json import dumps
from statistics import median

from . import bounds as bnd
from . import dynamics as dyn
from . import indicatrix as ind
from . import powermap as pm
from . import residue_fields as rf
from .perms import DEGREE_CAP, ResourceCapError, cyclic_group, fpp, symmetric_group
from .wreath import iterated_wreath, wreath_order

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_HYPOTHESIS = 3
EXIT_IO = 4
EXIT_CAP = 5
EXIT_INTERNAL = 6

CSV_HEADER = "p,f,norm,wild,periodic,total,proportion,bijective,image_sizes"
IMAGE_SIZES_SHOWN = 8
# sweep rows formatted together (one at a time took 7% longer)
ROW_CHUNK = 256


class UsageError(Exception):
    pass


def fmt6(fr: Fraction) -> str:
    """fr rounded half-even to 6 decimal places, exactly at any size: the
    rounding is done on integers, and Decimal only places the point (it
    prints integers past Python's int-to-str digit limit)."""
    with localcontext() as ctx:
        ctx.prec = MAX_PREC
        text = Decimal(round(abs(fr) * 10**6)).scaleb(-6)
    return str(text.copy_negate() if fr < 0 else text)


def frac_str(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator}"


def read_config(path: str) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except UnicodeDecodeError as exc:
        raise UsageError(f"config file is not UTF-8 text: {exc}") from None
    cfg: dict[str, str] = {}
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"bad config line (want key=value): {line!r}")
        key, value = line.split("=", 1)
        cfg[key.strip()] = value.strip()
    return cfg


def _converted(option: str, conv, text: str):
    """conv(text), with a failure reported as a usage error naming option."""
    try:
        return conv(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"bad value for {option}: {text!r}") from None


def _bool_conv(text: str) -> bool:
    return text.strip().lower() in ("1", "true", "yes", "on")


REQUIRED = object()  # the default of an option that must be given


@dataclass(frozen=True)
class Option:
    """One settable value of a subcommand.  Its last flag names it in
    messages, and a name without a dash is a positional; an option converted
    by _bool_conv is a switch."""

    flags: tuple[str, ...]
    conv: Callable[[str], object]
    default: object = None
    at_least: int | None = None
    help: str | None = None
    at_most: int | None = None

    @property
    def key(self) -> str:  # config key and keyword argument
        return self.flags[-1].lstrip("-").replace("-", "_").lower()


DEGREE = Option(("-d",), int, REQUIRED, 2, "degree d of x^d + c")
# fpp and bound enumerate the O(d) multipliers of galois_A and step exact
# binomials 1 - 1/g + x^g/g with g up to d
CAPPED_DEGREE = replace(DEGREE, at_most=DEGREE_CAP)
CONDUCTOR = Option(("-e",), int, 1, 1, "conductor e of the base field Q(zeta_e)")
LEVEL = Option(("-n",), int, 1, 1, "level n of the iterated extension")
CONSTANT = Option(("-c",), str, REQUIRED, help="constant c, a polynomial in z = zeta_e")
EXACT = Option(("--exact",), _bool_conv, False,
               help="print exact rationals instead of decimals")


# -- fpp ----------------------------------------------------------------------

def coset_fpp_enclosures(d: int, e: int, n: int):
    """Yield (m, g, lo, hi) for each multiplier m of the model group over
    Q(zeta_e): g = coset_gcd(m, d) gives m's level-1 coset its indicatrix
    phi_g, and [lo, hi] encloses 1 - phi_g^n(0), the fixed-point proportion
    of its n-th iterate.  Each distinct g is iterated once."""
    enclosures = {}
    for m in pm.galois_A(d, e):
        g = pm.coset_gcd(m, d)
        if g not in enclosures:
            iv = ind.iterate_at_zero(pm.coset_indicatrix(g), n)
            enclosures[g] = 1 - iv.hi, 1 - iv.lo
        yield m, g, *enclosures[g]


def _setting(d: int, e: int, c: str) -> pm.CycSetting:
    """The map x^d + c for checked d and e: a failure here is c's."""
    return _converted("-c", lambda text: pm.CycSetting.make(d, e, text), c)


def _show_enclosure(lo: Fraction, hi: Fraction, exact_form: bool) -> str:
    if lo == hi:
        return f"{frac_str(lo)}" if exact_form else f"{frac_str(lo)} ({fmt6(lo)})"
    return f"[{fmt6(lo)}, {fmt6(hi)}]"


def cmd_fpp(d: int, e: int, n: int, epsilon: Fraction | None, exact: bool) -> int:
    if epsilon is not None and not 0 < epsilon < 1:
        raise UsageError("epsilon must be in (0, 1)")
    texts, enclosures, counts = {}, {}, {}  # by g: coset lines, fpp_n, multipliers
    lines = []  # printed once every N_eps is known, so a resource cap prints nothing
    for m, g, lo, hi in coset_fpp_enclosures(d, e, n):
        if g not in texts:
            phi = pm.coset_indicatrix(g)
            texts[g] = [f"phi = {ind.to_text(phi)}",
                        f"status = {pm.coset_status(m, d).value}",
                        f"fpp_n = {_show_enclosure(lo, hi, exact)}"]
            if epsilon is not None:
                idx = ind.epsilon_index(phi, epsilon)
                shown = "diverges" if idx is ind.DIVERGES else str(idx)
                texts[g].append(f"N_eps({epsilon}) = {shown}")
            enclosures[g] = lo, hi
        counts[g] = counts.get(g, 0) + 1
        lines.extend(f"coset m={m}: {text}" for text in texts[g])
    count = sum(counts.values())
    agg_lo = sum(counts[g] * lo for g, (lo, _) in enclosures.items()) / count
    agg_hi = sum(counts[g] * hi for g, (_, hi) in enclosures.items()) / count
    lines.append(f"aggregate FPP(B_n), n={n}: {_show_enclosure(agg_lo, agg_hi, exact)}")
    print("\n".join(lines))
    return EXIT_OK


# -- regime -------------------------------------------------------------------

def cmd_regime(d: int, e: int, c: str, max_iter: int) -> int:
    setting = _setting(d, e, c)
    report = pm.zero_orbit_report(setting, max_iter)
    print(f"setting: {setting}")
    if report.verdict is pm.Preperiodicity.PREPERIODIC:
        print(
            "hypothesis '0 is not preperiodic' fails: "
            f"orbit repeats (iterate {report.steps} equals iterate {report.repeat_index})"
        )
        return EXIT_HYPOTHESIS
    if report.verdict is pm.Preperiodicity.UNDECIDED:
        print(
            "hypothesis '0 is not preperiodic' fails to certify within "
            f"{max_iter} iterations (undecided)"
        )
        return EXIT_HYPOTHESIS
    print(
        f"critical orbit of 0: not-preperiodic (escape certified at iterate "
        f"{report.steps})"
    )
    regime = pm.classify_regime(setting, report.verdict)
    if regime.limsup_one:
        print(f"regime: (a)+(c): limsup = 1, witness m={regime.witness_m}")
    else:
        print("regime: (a)+(b): limit = 0")
    for m, status in regime.cosets:
        fpf = status is pm.CosetStatus.HAS_FIXED_POINT_FREE  # j = 1 is then fixed-point-free
        print(f"coset m={m}: {status.value}{' (fixed-point-free at j=1)' if fpf else ''}")
    return EXIT_OK


# -- sweep --------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class SweepRow:
    p: int
    f: int
    norm: int
    wild: bool
    periodic: int
    total: int
    proportion: Fraction
    bijective: bool
    image_sizes: tuple[int, ...]


def compute_row(setting: pm.CycSetting, P: rf.PrimeOfK) -> SweepRow:
    reduced = dyn.reduce_map(setting, P)
    sizes, periodic = dyn.row_walk(reduced, IMAGE_SIZES_SHOWN)
    total = P.norm + 1
    return SweepRow(
        p=P.p,
        f=P.f,
        norm=P.norm,
        wild=reduced.wild,
        periodic=periodic,
        total=total,
        proportion=Fraction(periodic, total),
        bijective=sizes[1] == sizes[0],
        image_sizes=sizes,
    )


def _proportion_text(row: SweepRow, exact_form: bool) -> str:
    if exact_form:
        return frac_str(row.proportion)
    text = fmt6(row.proportion)
    if text == "1.000000" and not row.bijective:
        text = "0.999999"  # keep the printed value below 1 unless truly bijective
    return text


def _row_csv(row: SweepRow, exact_form: bool) -> str:
    return ",".join(
        [
            str(row.p),
            str(row.f),
            str(row.norm),
            str(row.wild).lower(),
            str(row.periodic),
            str(row.total),
            _proportion_text(row, exact_form),
            str(row.bijective).lower(),
            ";".join(str(s) for s in row.image_sizes),
        ]
    )


def _summary_lines(tame: list[Fraction], wild: list[Fraction], norm_bound: int,
                   exact_form: bool) -> list[str]:
    lo = norm_bound // 10
    show = frac_str if exact_form else fmt6
    lines = []
    for tag, bucket in (("tame", tame), ("wild", wild)):
        stats = (f"max={show(max(bucket))} median={show(median(bucket))}" if bucket
                 else "max=n/a median=n/a")
        lines.append(f"# top_decade ({lo}, {norm_bound}] {tag}: count={len(bucket)} {stats}")
    return lines


def _formatted(rows, norm_bound: int, json: bool, exact: bool):
    """Each row as its CSV line, or its JSON dict under json, and the tame
    and the wild top-decade proportions, taking ROW_CHUNK rows at a time."""
    entries, top = [], ([], [])  # top[wild]
    while chunk := list(islice(rows, ROW_CHUNK)):
        if json:
            entries.extend({**asdict(r), "proportion": _proportion_text(r, exact)}
                           for r in chunk)
        else:
            entries.extend(_row_csv(r, exact) for r in chunk)
        for r in chunk:
            if r.norm > norm_bound // 10:  # every norm is at most norm_bound
                top[r.wild].append(r.proportion)
    return entries, *top


def cmd_sweep(d: int, e: int, c: str, norm_bound: int, output: str, threads: int,
              json: bool, exact: bool) -> int:
    setting = _setting(d, e, c)
    if norm_bound + 1 > dyn.MEMORY_CAP_POINTS:  # before the sieve, which takes N + 1 bytes
        raise ResourceCapError(f"-N {norm_bound} allows graphs of {norm_bound + 1} points, "
                               f"cap is {dyn.MEMORY_CAP_POINTS}")
    primes = rf.prime_stream(e, norm_bound)
    row = functools.partial(compute_row, setting)
    if threads == 1:
        entries, tame, wild = _formatted(map(row, primes), norm_bound, json, exact)
    else:
        # imported here: concurrent.futures loads logging, which one thread never needs
        from concurrent.futures import ThreadPoolExecutor

        # the pool starts a worker per queued row while none is idle
        with ThreadPoolExecutor(max_workers=min(threads, os.cpu_count() or 1)) as pool:
            entries, tame, wild = _formatted(pool.map(row, primes), norm_bound, json, exact)
    if json:
        payload = {"setting": str(setting), "norm_bound": norm_bound, "rows": entries}
        text = dumps(payload, indent=2) + "\n"
    else:
        lines = [CSV_HEADER, *entries, *_summary_lines(tame, wild, norm_bound, exact)]
        text = "\n".join(lines) + "\n"
    if output in ("-", ""):
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    return EXIT_OK


# -- wreathcheck --------------------------------------------------------------

_BASE_GROUPS = {
    "C2": lambda: cyclic_group(2),
    "C3": lambda: cyclic_group(3),
    "S3": lambda: symmetric_group(3),
}


def cmd_wreathcheck(base: str, n: int) -> int:
    if base not in _BASE_GROUPS:
        raise UsageError(f"base must be one of {sorted(_BASE_GROUPS)}")
    g = _BASE_GROUPS[base]()
    wreath = iterated_wreath(g, n)  # refused at the enumeration cap before any output
    brute = fpp(wreath)
    iv = ind.iterate_at_zero(ind.indicatrix_of(g), n)
    if iv.lo != iv.hi:  # every level the enumeration cap admits iterates exactly
        raise RuntimeError(f"inexact recursion enclosure [{iv.lo}, {iv.hi}]")
    recursion = 1 - iv.lo
    print(f"enumerating [{base}]^{n}: {len(wreath)} permutations of degree {wreath.degree}")
    print(f"brute-force FPP = {frac_str(brute)}")
    print(f"recursion  FPP = {frac_str(recursion)}")
    if brute == recursion:
        print("PASS")
        return EXIT_OK
    print("FAIL")
    return 1


# -- bound --------------------------------------------------------------------

def cmd_bound(d: int, e: int, n: int, q_grid: str, c: str, measure: bool,
              classes: str) -> int:
    if classes not in ("safe", "exact"):
        raise UsageError("--classes must be 'safe' or 'exact'")
    grid = [_converted("--q-grid", int, tok)
            for tok in q_grid.replace(",", " ").split()]
    if not grid or min(grid) < 2:
        raise UsageError("q grid entries must be >= 2")
    setting = _setting(d, e, c)  # refuses a bad -c even unmeasured
    # a measured row is bounded at the norm of the prime it measures, q^f for
    # an inert q; every entry is resolved before anything prints, and one
    # past the graph cap before its primality test, which is trial division
    primes = {}
    if measure:
        for q in grid:
            dyn.check_graph_points(q + 1)
            if not rf.is_prime(q):
                raise UsageError(f"--measure needs prime grid entries, got {q}")
            try:
                primes[q] = rf.primes_above(q, e)[0]
            except rf.RamifiedPrimeError as exc:
                raise UsageError(f"--q-grid entry {q} ramifies in Q(zeta_{e})") from exc
            dyn.check_graph_points(primes[q].norm + 1)
    A = pm.galois_A(d, e)
    A_order = len(A)
    B_order = A_order * wreath_order(d, d, n)
    if classes == "exact":
        class_count, class_text = bnd.fix_class_count(pm.b_n_permset(d, e, n)), "classes="
    else:  # |B_n| bounds the number of classes from above
        class_count, class_text = B_order, "classes<="
    fpp_sum = sum(hi for *_, hi in coset_fpp_enclosures(d, e, n))
    print(
        f"model: d={d} e={e} n={n} |A|={A_order} |B_n|={B_order} "
        f"FPP(B_n)<={frac_str(fpp_sum / A_order)} {class_text}{class_count}"
    )
    violations = 0
    for q in grid:
        label, norm = f"q={q}", q
        if measure:
            P = primes[q]
            norm = P.norm
            label += f" norm={norm}"
        err = bnd.error_term(norm, n, d, B_order, class_count)
        bound = fpp_sum + err
        line = f"{label} bound={fmt6(bound)} error_term={fmt6(err)}"
        if measure:
            sizes, _ = dyn.row_walk(dyn.reduce_map(setting, P), n + 1)
            measured = Fraction(sizes[-1], sizes[0])  # at f^n, or where it stabilized
            ok = measured <= bound
            line += f" measured={fmt6(measured)} {'ok' if ok else 'VIOLATION'}"
            if not ok:
                violations += 1
        print(line)
    return EXIT_OK if violations == 0 else 1


# -- option table and parser ---------------------------------------------------

# name -> (command, help, options in the order they are resolved and checked)
COMMANDS: dict[str, tuple[Callable[..., int], str, tuple[Option, ...]]] = {
    "fpp": (cmd_fpp, "indicatrix and FPP per multiplier coset", (
        CAPPED_DEGREE, CONDUCTOR, LEVEL,
        Option(("--epsilon",), Fraction, help="also print each coset's N_eps"),
        EXACT,
    )),
    "regime": (cmd_regime, "trichotomy verdict for x^d + c", (
        DEGREE, CONDUCTOR, CONSTANT,
        Option(("--max-iter",), int, 500, 1, "iterates of 0 to try for a certificate"),
    )),
    "sweep": (cmd_sweep, "periodic counts over a prime stream", (
        DEGREE, CONDUCTOR, CONSTANT,
        Option(("-N", "--norm-bound"), int, REQUIRED, 2, "largest prime norm swept"),
        Option(("-o", "--output"), str, "-", help="output file, '-' for stdout"),
        Option(("--threads",), int, 1, 1, "threads computing the rows"),
        Option(("--json",), _bool_conv, False, help="print JSON instead of CSV"),
        EXACT,
    )),
    "wreathcheck": (cmd_wreathcheck, "brute force vs recursion", (
        Option(("BASE",), str, REQUIRED, help="base group: C2, C3 or S3"),
        Option(("N",), int, REQUIRED, 1, "number of wreath factors"),
    )),
    "bound": (cmd_bound, "proportion bound on a norm grid", (
        CAPPED_DEGREE, CONDUCTOR, LEVEL,
        Option(("-q", "--q-grid"), str, REQUIRED, help="comma-separated norms"),
        replace(CONSTANT, default="1"),
        Option(("--measure",), _bool_conv, False, help="also measure at a prime above q"),
        Option(("--classes",), str, "safe", help="class count: 'safe' or 'exact'"),
    )),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perprop",
        description="fixed-point proportions and periodic points of x^d + c",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, options) in COMMANDS.items():
        p = sub.add_parser(name, help=text, description=text)
        for option in options:
            switch = {"action": "store_const", "const": "yes"} if option.conv is _bool_conv else {}
            if option.flags[0].startswith("-"):
                p.add_argument(*option.flags, dest=option.key, help=option.help, **switch)
            else:
                p.add_argument(option.key, nargs="?", metavar=option.flags[0], help=option.help)
        p.add_argument("--config", help="key=value file preloading defaults")
    return parser


def _attach_signed_c(argv: list[str]) -> list[str]:
    """Rewrite `-c VALUE` as `-c=VALUE` when VALUE is a cyclotomic literal
    with a leading minus (`-1+z`, `-z^2`): argparse takes only plain negative
    numbers as values and would read it as a flag."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] == "-c" and re.match(r"-[\dz]", tok):
            out[-1] = f"-c={tok}"
        else:
            out.append(tok)
    return out


def _value(option: Option, given: str | None, config: dict[str, str]):
    """option's value from the command line, else the config file, else its
    default; a given value is converted and checked against its bounds."""
    name = option.flags[-1]
    text = config.get(option.key) if given is None else given
    if text is None:
        if option.default is REQUIRED:
            kind = "option" if name.startswith("-") else "argument"
            raise UsageError(f"missing required {kind} {name}")
        return option.default
    value = _converted(name, option.conv, text)
    if option.at_least is not None and value < option.at_least:
        raise UsageError(f"{name} must be >= {option.at_least}")
    if option.at_most is not None and value > option.at_most:
        raise UsageError(f"{name} must be <= {option.at_most}")
    return value


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_attach_signed_c(argv))
    func, _, options = COMMANDS[args.command]
    try:
        config = read_config(args.config) if args.config else {}
        keys = {option.key for option in options}
        for key in config:
            if key not in keys:
                raise UsageError(f"unknown config key {key!r} for {args.command}")
        return func(**{option.key: _value(option, getattr(args, option.key), config)
                       for option in options})
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ind.PrecisionExhaustedError as exc:
        print(f"precision exhausted: {exc}", file=sys.stderr)
        return EXIT_CAP
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:  # every input fault is one of the above
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
