"""Command-line interface: reproducible experiments with CSV/JSON output.

Subcommands:
  fpp          indicatrix per multiplier coset and FPP after n iterations
  regime       preperiodicity check plus the (a)/(b)/(c) trichotomy verdict
  sweep        periodic-point counts over all primes up to a norm bound (CSV)
  wreathcheck  brute-force wreath enumeration vs the indicatrix recursion
  bound        proportion bound on a grid of norms, optionally vs measurement

Exit codes: 0 success, 2 usage, 3 hypothesis failure, 4 I/O failure,
5 resource cap.  Proportions print with 6 decimal places (round-half-even);
--exact switches to p/q.  A key=value config file can preload defaults;
command-line flags override the config, which overrides built-ins.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from decimal import MAX_PREC, Decimal, localcontext
from fractions import Fraction
from statistics import median

from . import bounds as bnd
from . import dynamics as dyn
from . import indicatrix as ind
from . import powermap as pm
from . import residue_fields as rf
from .perms import ResourceCapError, check_degree, cyclic_group, fpp, symmetric_group
from .wreath import iterated_wreath, wreath_order

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_HYPOTHESIS = 3
EXIT_IO = 4
EXIT_CAP = 5

CSV_HEADER = "p,f,norm,wild,periodic,total,proportion,bijective,image_sizes"
IMAGE_SIZES_SHOWN = 8


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
    cfg: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
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


def _merged(args, key: str, conv, default=None, required: bool = False,
            metavar: str | None = None):
    """The value of key from the command line, else from the config file,
    converted by conv.  Messages name its flag, or metavar for a positional."""
    option = metavar or (f"-{key}" if len(key) == 1 else f"--{key.replace('_', '-')}")
    value = getattr(args, key, None)
    if value is None:
        value = args.config_values.get(key)
    if value is None:
        if required:
            kind = "argument" if metavar else "option"
            raise UsageError(f"missing required {kind} {option}")
        return default
    return _converted(option, conv, value) if isinstance(value, str) else value


def _bool_conv(text: str) -> bool:
    return text.strip().lower() in ("1", "true", "yes", "on")


# -- fpp ----------------------------------------------------------------------

def coset_fpp_enclosures(d: int, e: int, n: int):
    """Yield (m, phi, lo, hi) for each multiplier m of the model group over
    Q(zeta_e): phi is the indicatrix of m's level-1 coset and [lo, hi]
    encloses 1 - phi^n(0), the fixed-point proportion of its n-th iterate."""
    check_degree(d)  # phi has degree up to d and is iterated by dense Horner
    for m in pm.galois_A(d, e):
        phi = pm.coset_indicatrix(m, d)
        iv = ind.iterate_at_zero(phi, n)
        yield m, phi, 1 - iv.hi, 1 - iv.lo


def _show_enclosure(lo: Fraction, hi: Fraction, exact_form: bool) -> str:
    if lo == hi:
        return f"{frac_str(lo)}" if exact_form else f"{frac_str(lo)} ({fmt6(lo)})"
    return f"[{fmt6(lo)}, {fmt6(hi)}]"


def cmd_fpp(args) -> int:
    d = _merged(args, "d", int, required=True)
    e = _merged(args, "e", int, default=1)
    n = _merged(args, "n", int, default=1)
    epsilon = _merged(args, "epsilon", Fraction)
    exact_form = bool(_merged(args, "exact", _bool_conv, default=False))
    if d < 2 or e < 1 or n < 1:
        raise UsageError("need d >= 2, e >= 1, n >= 1")
    if epsilon is not None and not 0 < epsilon < 1:
        raise UsageError("epsilon must be in (0, 1)")
    agg_lo = agg_hi = Fraction(0)
    count = 0
    for m, phi, lo, hi in coset_fpp_enclosures(d, e, n):
        agg_lo += lo
        agg_hi += hi
        count += 1
        print(f"coset m={m}: phi = {ind.to_text(phi)}")
        print(f"coset m={m}: status = {pm.coset_status(m, d).value}")
        print(f"coset m={m}: fpp_n = {_show_enclosure(lo, hi, exact_form)}")
        if epsilon is not None:
            idx = ind.epsilon_index(phi, epsilon)
            shown = "diverges" if idx is ind.DIVERGES else str(idx)
            print(f"coset m={m}: N_eps({epsilon}) = {shown}")
    print(
        f"aggregate FPP(B_n), n={n}: "
        f"{_show_enclosure(agg_lo / count, agg_hi / count, exact_form)}"
    )
    return EXIT_OK


# -- regime -------------------------------------------------------------------

def cmd_regime(args) -> int:
    d = _merged(args, "d", int, required=True)
    e = _merged(args, "e", int, default=1)
    c = _merged(args, "c", str, required=True)
    max_iter = _merged(args, "max_iter", int, default=500)
    setting = pm.CycSetting.make(d, e, c)
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
        f"{report.escape_index})"
    )
    regime = pm.classify_regime(setting, report.verdict)
    if regime.limsup_one:
        print(f"regime: (a)+(c): limsup = 1, witness m={regime.witness_m}")
    else:
        print("regime: (a)+(b): limit = 0")
    for rep in regime.cosets:
        extra = (
            f" (fixed-point-free at j={rep.fpf_witness_j})"
            if rep.fpf_witness_j is not None
            else ""
        )
        print(f"coset m={rep.m}: {rep.status.value}{extra}")
    return EXIT_OK


# -- sweep --------------------------------------------------------------------

@dataclass(frozen=True)
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
    graph = dyn.build_graph(reduced)
    sizes, periodic = dyn.image_sizes_and_periodic(graph, IMAGE_SIZES_SHOWN)
    return SweepRow(
        p=P.p,
        f=P.f,
        norm=P.norm,
        wild=reduced.wild,
        periodic=periodic,
        total=graph.size,
        proportion=Fraction(periodic, graph.size),
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


def _summary_lines(rows: list[SweepRow], norm_bound: int, exact_form: bool) -> list[str]:
    lo = norm_bound // 10
    show = frac_str if exact_form else fmt6
    lines = []
    for wild in (False, True):
        bucket = [r.proportion for r in rows if r.wild is wild and lo < r.norm <= norm_bound]
        tag = "wild" if wild else "tame"
        if bucket:
            lines.append(
                f"# top_decade ({lo}, {norm_bound}] {tag}: count={len(bucket)} "
                f"max={show(max(bucket))} median={show(median(bucket))}"
            )
        else:
            lines.append(
                f"# top_decade ({lo}, {norm_bound}] {tag}: count=0 max=n/a median=n/a"
            )
    return lines


def cmd_sweep(args) -> int:
    d = _merged(args, "d", int, required=True)
    e = _merged(args, "e", int, default=1)
    c = _merged(args, "c", str, required=True)
    norm_bound = _merged(args, "norm_bound", int, required=True)
    output = _merged(args, "output", str, default="-")
    threads = _merged(args, "threads", int, default=1)
    as_json = bool(_merged(args, "json", _bool_conv, default=False))
    exact_form = bool(_merged(args, "exact", _bool_conv, default=False))
    if norm_bound < 2 or threads < 1:
        raise UsageError("need norm_bound >= 2 and threads >= 1")
    setting = pm.CycSetting.make(d, e, c)
    primes = rf.prime_stream(e, norm_bound)
    if threads == 1:
        rows = [compute_row(setting, P) for P in primes]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(lambda P: compute_row(setting, P), primes))
    if as_json:
        payload = {
            "setting": str(setting),
            "norm_bound": norm_bound,
            "rows": [
                {
                    "p": r.p,
                    "f": r.f,
                    "norm": r.norm,
                    "wild": r.wild,
                    "periodic": r.periodic,
                    "total": r.total,
                    "proportion": _proportion_text(r, exact_form),
                    "bijective": r.bijective,
                    "image_sizes": list(r.image_sizes),
                }
                for r in rows
            ],
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [CSV_HEADER]
        lines.extend(_row_csv(r, exact_form) for r in rows)
        lines.extend(_summary_lines(rows, norm_bound, exact_form))
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


def cmd_wreathcheck(args) -> int:
    base = _merged(args, "base", str, required=True, metavar="BASE")
    n = _merged(args, "n", int, required=True, metavar="N")
    if base not in _BASE_GROUPS:
        raise UsageError(f"base must be one of {sorted(_BASE_GROUPS)}")
    if n < 1:
        raise UsageError("n must be >= 1")
    g = _BASE_GROUPS[base]()
    size = wreath_order(len(g), g.degree, n)
    print(f"enumerating [{base}]^{n}: {size} permutations of degree {g.degree ** n}")
    brute = fpp(iterated_wreath(g, n))
    phi = ind.indicatrix_of(g)
    value = Fraction(0)
    for _ in range(n):
        value = ind.value_at(phi, value)
    recursion = 1 - value
    print(f"brute-force FPP = {frac_str(brute)}")
    print(f"recursion  FPP = {frac_str(recursion)}")
    if brute == recursion:
        print("PASS")
        return EXIT_OK
    print("FAIL")
    return 1


# -- bound --------------------------------------------------------------------

def cmd_bound(args) -> int:
    d = _merged(args, "d", int, required=True)
    e = _merged(args, "e", int, default=1)
    n = _merged(args, "n", int, default=1)
    grid_text = _merged(args, "q_grid", str, required=True)
    measure = bool(_merged(args, "measure", _bool_conv, default=False))
    classes_mode = _merged(args, "classes", str, default="safe")
    c_text = _merged(args, "c", str, default="1")
    if classes_mode not in ("safe", "exact"):
        raise UsageError("--classes must be 'safe' or 'exact'")
    grid = [_converted("--q-grid", int, tok)
            for tok in grid_text.replace(",", " ").split()]
    if not grid or min(grid) < 2:
        raise UsageError("q grid entries must be >= 2")
    setting = pm.CycSetting.make(d, e, c_text)  # refuses a bad -c even unmeasured
    # a measured row is bounded at the norm of the prime it measures, q^f for
    # an inert q; every entry is resolved before anything prints
    primes = {}
    if measure:
        for q in grid:
            if not rf.is_prime(q):
                raise UsageError(f"--measure needs prime grid entries, got {q}")
            primes[q] = rf.primes_above(q, e)[0]
    A = pm.galois_A(d, e)
    A_order = len(A)
    B_order = A_order * wreath_order(d, d, n)
    if classes_mode == "exact":
        group = pm.b_n_permset(d, e, n)
        class_count = bnd.fix_class_count(group)
    else:
        class_count = B_order
    fpp_up = sum(hi for *_, hi in coset_fpp_enclosures(d, e, n)) / A_order
    print(
        f"model: d={d} e={e} n={n} |A|={A_order} |B_n|={B_order} "
        f"FPP(B_n)<={frac_str(fpp_up)} classes={class_count}"
    )
    violations = 0
    for q in grid:
        label, norm = f"q={q}", q
        if measure:
            P = primes[q]
            norm = P.norm
            label += f" norm={norm}"
        err = bnd.error_term(norm, n, d, B_order, class_count)
        bound = A_order * fpp_up + err
        line = f"{label} bound={fmt6(bound)} error_term={fmt6(err)}"
        if measure:
            graph = dyn.build_graph(dyn.reduce_map(setting, P))
            measured = Fraction(dyn.image_size_at(graph, n), graph.size)
            ok = measured <= bound
            line += f" measured={fmt6(measured)} {'ok' if ok else 'VIOLATION'}"
            if not ok:
                violations += 1
        print(line)
    return EXIT_OK if violations == 0 else 1


# -- parser -------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perprop",
        description="fixed-point proportions and periodic points of x^d + c",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key=value file preloading defaults")
        p.add_argument("--exact", action="store_const", const=True, default=None,
                       help="print exact rationals instead of decimals")

    p_fpp = sub.add_parser("fpp", help="indicatrix and FPP per multiplier coset")
    p_fpp.add_argument("-d", dest="d")
    p_fpp.add_argument("-e", dest="e")
    p_fpp.add_argument("-n", dest="n")
    p_fpp.add_argument("--epsilon", dest="epsilon")
    add_common(p_fpp)
    p_fpp.set_defaults(func=cmd_fpp)

    p_reg = sub.add_parser("regime", help="trichotomy verdict for x^d + c")
    p_reg.add_argument("-d", dest="d")
    p_reg.add_argument("-e", dest="e")
    p_reg.add_argument("-c", dest="c")
    p_reg.add_argument("--max-iter", dest="max_iter")
    add_common(p_reg)
    p_reg.set_defaults(func=cmd_regime)

    p_sweep = sub.add_parser("sweep", help="periodic counts over a prime stream")
    p_sweep.add_argument("-d", dest="d")
    p_sweep.add_argument("-e", dest="e")
    p_sweep.add_argument("-c", dest="c")
    p_sweep.add_argument("-N", "--norm-bound", dest="norm_bound")
    p_sweep.add_argument("-o", "--output", dest="output")
    p_sweep.add_argument("--threads", dest="threads")
    p_sweep.add_argument("--json", action="store_const", const=True, default=None)
    add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_wc = sub.add_parser("wreathcheck", help="brute force vs recursion")
    p_wc.add_argument("base", nargs="?", metavar="BASE")
    p_wc.add_argument("n", nargs="?", metavar="N")
    add_common(p_wc)
    p_wc.set_defaults(func=cmd_wreathcheck)

    p_bound = sub.add_parser("bound", help="proportion bound on a norm grid")
    p_bound.add_argument("-d", dest="d")
    p_bound.add_argument("-e", dest="e")
    p_bound.add_argument("-n", dest="n")
    p_bound.add_argument("-q", "--q-grid", dest="q_grid",
                         help="comma-separated norms")
    p_bound.add_argument("-c", dest="c")
    p_bound.add_argument("--measure", action="store_const", const=True, default=None)
    p_bound.add_argument("--classes", dest="classes")
    add_common(p_bound)
    p_bound.set_defaults(func=cmd_bound)

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


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(_attach_signed_c(argv))
    try:
        args.config_values = read_config(args.config) if args.config else {}
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ind.PrecisionExhaustedError as exc:
        print(f"precision exhausted: {exc}", file=sys.stderr)
        return EXIT_CAP
    except rf.RamifiedPrimeError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
