import ast
import concurrent.futures
import hashlib
import itertools
import json
import os
import pickle
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path

import pytest

from perprop import cli, dynamics, indicatrix, powermap, residue_fields
from perprop.cli import COMMANDS, _bool_conv, fmt6, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_EXACT_GROUP = ROOT / "perfbench" / "golden" / "exact_group.json"
SCRIPTS = ROOT / "scripts"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


EXPECTED_SWEEP_D3_N10 = """p,f,norm,wild,periodic,total,proportion,bijective,image_sizes
2,1,2,true,3,3,1.000000,true,3;3
3,1,3,true,4,4,1.000000,true,4;4
5,1,5,false,6,6,1.000000,true,6;6
7,1,7,false,2,8,0.250000,false,8;4;3;2;2
# top_decade (1, 10] tame: count=2 max=1.000000 median=0.625000
# top_decade (1, 10] wild: count=2 max=1.000000 median=1.000000
"""


@dataclass(frozen=True)
class Row:
    """One command line and what it must print: its exit code, its exact
    stderr (one line, or nothing), and a stdout that holds every line of
    `lines` and hashes to `sha256`, or is empty when neither is given."""

    argv: str  # split on whitespace
    code: int = 0
    err: str = ""
    lines: tuple[str, ...] = ()
    sha256: str | None = None
    config: str | None = None  # the text of a file passed with --config


def usage(argv: str, message: str, config: str | None = None) -> Row:
    return Row(argv, 2, f"usage error: {message}", config=config)


PAST_4300_DIGITS = ("resource cap: the 14-fold iterated wreath order has more than "
                    "4300 decimal digits")
UNDECIDED = "hypothesis '0 is not preperiodic' fails to certify within {} iterations (undecided)"

# Every expectation on a whole command line.  A key names the test its rows
# run in, "name[id]" an id of a parametrized test; a value is one row or a
# tuple of rows run in turn.
ROWS = {
    # fpp
    "epsilon_index": Row("fpp -d 2 -n 1 --epsilon 1/10000",
                         lines=("coset m=1: N_eps(1/10000) = 19989",)),
    "epsilon_index_past_the_iteration_step_cap": Row(
        "fpp -d 2 -n 64 --epsilon 1/1000000", lines=("coset m=1: N_eps(1/1000000) = 1999984",)),
    "fpp_aggregate_values": (
        Row("fpp -d 3 -e 3 -n 2", lines=("aggregate FPP(B_n), n=2: 19/81 (0.234568)",)),
        Row("fpp -d 2 -e 1 -n 3", lines=("aggregate FPP(B_n), n=3: 39/128 (0.304688)",)),
        Row("fpp -d 3 -e 1 -n 1", lines=("coset m=2: status = all-have-fixed-points",
                                         "coset m=2: fpp_n = 1/1 (1.000000)")),
    ),
    "fpp_epsilon_reporting": Row("fpp -d 3 -e 1 -n 1 --epsilon 0.5",
                                 lines=("coset m=1: N_eps(1/2) = 1",
                                        "coset m=2: N_eps(1/2) = diverges")),
    "fpp_usage_error": usage("fpp -d 1", "-d must be >= 2"),
    **{f"fpp_epsilon_out_of_range_is_reported_before_output[{eps}]":
       usage(f"fpp -d 2 -n 1 --epsilon {eps}", "epsilon must be in (0, 1)") for eps in "201"},
    "fpp_degree_past_the_cap_is_refused": (
        usage("fpp -d 10001 -n 1", "-d must be <= 10000"),
        usage("bound -d 10001 -q 7", "-d must be <= 10000"),
    ),
    # regime
    "regime_c_output": Row("regime -d 3 -e 1 -c 1",
                           lines=("regime: (a)+(c): limsup = 1, witness m=2",)),
    "regime_b_output": Row("regime -d 2 -e 1 -c 1", lines=("regime: (a)+(b): limit = 0",)),
    "certified_escape_over_q": Row("regime -d 2 -e 1 -c=1", lines=(
        "critical orbit of 0: not-preperiodic (escape certified at iterate 3)",)),
    # Phi_30030 from Phi_2310 by the prime 13; 5760 embeddings of one term each
    "certified_escape_at_a_large_conductor": Row("regime -d 2 -e 30030 -c 1", lines=(
        "critical orbit of 0: not-preperiodic (escape certified at iterate 3)",)),
    "certified_escape": Row("regime -d 2 -e 7 -c=-2z+z^2-z^4-z^5", lines=(
        "critical orbit of 0: not-preperiodic (escape certified at iterate 8)",)),
    "regime_hypothesis_failure_exit_3": Row("regime -d 2 -e 1 -c -1", 3, lines=(
        "hypothesis '0 is not preperiodic' fails: orbit repeats (iterate 2 equals iterate 0)",)),
    "regime_undecided_exit_3": Row("regime -d 2 -e 1 -c 1 --max-iter 1", 3,
                                   lines=(UNDECIDED.format(1),)),
    "undecided_critical_orbit": Row("regime -d 2 -e 5 -c=1+z", 3, lines=(UNDECIDED.format(500),)),
    "orbit_over_the_bit_budget_before_its_last_power": Row(
        "regime -d 3 -e 8 -c=2+z-z^2-2z^3", 3, lines=(UNDECIDED.format(500),)),
    # sweep
    "sweep_csv_golden": Row("sweep -d 3 -e 1 -c 1 -N 10", sha256=sha256(EXPECTED_SWEEP_D3_N10)),
    "sweep_known_rows": (
        Row("sweep -d 2 -e 1 -c 1 -N 5", lines=("5,1,5,false,4,6,0.666667,false,6;4;4",)),
        Row("sweep -d 3 -e 1 -c 1 -N 7", lines=("7,1,7,false,2,8,0.250000,false,8;4;3;2;2",)),
    ),
    "sweep_exact_proportions": Row("sweep -d 3 -e 1 -c 1 -N 10 --exact",
                                   lines=("7,1,7,false,2,8,1/4,false,8;4;3;2;2",)),
    "sweep_past_the_graph_cap_is_refused_before_output": Row(
        "sweep -d 2 -c=1 -N 10000000000", 5,
        "resource cap: -N 10000000000 allows graphs of 10000000001 points, cap is 20000000"),
    "sweep_output_pinned_by_hash[d2-e1]": Row(
        "sweep -d 2 -e 1 -c=1 -N 10000",
        sha256="0bc4c8409ef5100002908bab8426a24d9f08e37b7611e7fb7cfc473cf9ad31fc"),
    "sweep_output_pinned_by_hash[d2-e1-threads2]": Row(
        "sweep -d 2 -e 1 -c=1 -N 10000 --threads 2",
        sha256="0bc4c8409ef5100002908bab8426a24d9f08e37b7611e7fb7cfc473cf9ad31fc"),
    "sweep_output_pinned_by_hash[d3-e5]": Row(
        "sweep -d 3 -e 5 -c=1 -N 30000",
        sha256="00cd99216ca9e2fb5e5a63887fcdc1e6eafaa15dd482b84b5cd0493d15bd4104"),
    # split primes of Q(zeta_5) with f = 1, 2 and 4
    "sweep_output_pinned_by_hash[d2-e5]": Row(
        "sweep -d 2 -e 5 -c=1 -N 30000",
        sha256="859bc29ee471728dc0420674cfc1d3a9be541f1517174a0f43b1300e6a8158d2"),
    # 64 primes of Q(zeta_8) with f = 2, whose root search starts at index p
    "sweep_output_pinned_by_hash[d2-e8]": Row(
        "sweep -d 2 -e 8 -c=1 -N 30000",
        sha256="99fa3c444e1914a79f2adfd3633ca5f862210c31db9b44de5835fa24a9593fda"),
    # rows folded by x -> -x (gcd(d, q-1) = 2) next to rows with gcd 1, 3, 4 or 6
    "sweep_output_pinned_by_hash[d6-e4]": Row(
        "sweep -d 6 -e 4 -c=1+z -N 3000",
        sha256="ad1ae32793f410889c6b4d66ba511f1381268a70ffb7c91f0eb64abd950283c2"),
    "sweep_output_pinned_by_hash[d4-e3]": Row(
        "sweep -d 4 -e 3 -c=2 -N 3000",
        sha256="c6cb0650b0b12415ec1070050bd5ed5676aa8291929e144d917a871b06420ada"),
    # odd degrees over prime fields: rows with gcd(d, p-1) = 1 next to 3 or 5
    "sweep_output_pinned_by_hash[d3-e1]": Row(
        "sweep -d 3 -e 1 -c=1 -N 20000",
        sha256="91ae4e0bc8a571ccc30ea5e1f33bd577457dd630f3d4a8b94414e524afe8083e"),
    "sweep_output_pinned_by_hash[d5-e1]": Row(
        "sweep -d 5 -e 1 -c=2 -N 20000",
        sha256="106c082adced4eced8718e0941890882fa539ff5d51853ab61b5516a1c99c960"),
    "sweep_json_output_pinned_by_hash[json]": Row(
        "sweep -d 3 -e 5 -c=1+z -N 3000 --json",
        sha256="158b056b474e61bf65804065921b3c9dc7c991ffc8e959f4092cbce1cca5902f"),
    "sweep_json_output_pinned_by_hash[json-exact]": Row(
        "sweep -d 3 -e 5 -c=1+z -N 3000 --json --exact",
        sha256="d7720ce9bb0ed0529b961b0d79df6dea7b49b7a996cbcb76c3cc4f7fdfe90cae"),
    # wreathcheck
    "wreath_oracle": Row("wreathcheck C2 4", lines=("brute-force FPP = 8463/32768", "PASS")),
    "wreathcheck_pass": (
        Row("wreathcheck C2 2", lines=("PASS",)),
        Row("wreathcheck C3 2", lines=("brute-force FPP = 19/81", "PASS")),
        Row("wreathcheck S3 2", lines=("brute-force FPP = 40/81", "PASS")),
    ),
    "wreathcheck_cap_exit_5": Row("wreathcheck C3 3", 5, "resource cap: iterated wreath needs "
                                  "1594323 elements, cap is 1000000"),
    "wreathcheck_usage": usage("wreathcheck Q8 2", "base must be one of ['C2', 'C3', 'S3']"),
    "wreathcheck_names_a_missing_positional[argv0-N]": usage(
        "wreathcheck C2", "missing required argument N"),
    "wreathcheck_names_a_missing_positional[argv1-BASE]": usage(
        "wreathcheck", "missing required argument BASE"),
    "wreath_order_past_the_digit_limit_is_a_resource_cap": (
        Row("wreathcheck C2 14", 5, PAST_4300_DIGITS),
        Row("bound -d 2 -n 14 -q 10", 5, PAST_4300_DIGITS),
    ),
    # bound
    "bound_table": Row("bound -d 3 -e 1 -n 1 -q 1000003", lines=(
        "model: d=3 e=1 n=1 |A|=2 |B_n|=6 FPP(B_n)<=2/3 classes<=6",
        "q=1000003 bound=1.393385 error_term=0.060052")),
    "bound_measure": (
        Row("bound -d 3 -e 1 -n 1 -q 10009 -c 1 --measure", lines=(
            "q=10009 norm=10009 bound=1.938198 error_term=0.604865 measured=0.333467 ok",)),
        usage("bound -d 3 -e 1 -n 1 -q 10008 --measure",
              "--measure needs prime grid entries, got 10008"),
    ),
    **{f"bound_measure_rejects_a_grid_entry_before_output[{e}-{grid}-{message}]":
       usage(f"bound -d 2 -e {e} -n 1 -q {grid} --measure", message) for e, grid, message in [
           (3, "7,3", "--q-grid entry 3 ramifies in Q(zeta_3)"),
           (5, "5", "--q-grid entry 5 ramifies in Q(zeta_5)"),
           (1, "7,9", "--measure needs prime grid entries, got 9"),
       ]},
    "measured_bound_past_the_graph_cap_is_refused_before_output": Row(
        "bound -d 2 -n 1 -q 101,20000003 --measure", 5,
        "resource cap: graph needs 20000004 points, cap is 20000000"),
    "bound_exact_classes": (
        Row("bound -d 3 -e 1 -n 1 -q 101 --classes exact",
            lines=("model: d=3 e=1 n=1 |A|=2 |B_n|=6 FPP(B_n)<=2/3 classes=2",)),
        # the safe default prints |B_1|, a bound
        Row("bound -d 3 -e 1 -n 1 -q 101",
            lines=("model: d=3 e=1 n=1 |A|=2 |B_n|=6 FPP(B_n)<=2/3 classes<=6",)),
    ),
    "exact_class_count": Row("bound -d 4 -e 1 -n 2 -q 10009,100003 --classes exact", lines=(
        "model: d=4 e=1 n=2 |A|=2 |B_n|=2048 FPP(B_n)<=559/2048 classes=35",)),
    "exact_classes_over_cap_is_a_resource_cap": Row(
        "bound -d 3 -e 1 -n 3 -q 10 --classes exact", 5,
        "resource cap: B_n enumeration needs 3188646 elements, cap is 1000000"),
    # |B_7| = 2^127: the error terms are far beyond 10^22
    "bound_with_a_group_order_past_double_digits": Row(
        "bound -d 2 -n 7 -q 10,100003",
        sha256="1fc6465c55267550ea8977aca966d4e4c4cc49e6af87738ac913a84af0181330"),
    "bound_refuses_a_bad_c_without_measure": usage("bound -d 2 -n 1 -q 10 -c=abc",
                                                   "bad value for -c: 'abc'"),
    "group_side_output_pinned_by_hash[fpp-d200]": Row(
        "fpp -d 200 -n 2 --epsilon 1/1000",
        sha256="9454bea40869ae109a633b70af12565a1d3ff54a8061a0afebca5856a0d809ff"),
    "group_side_output_pinned_by_hash[bound-d200]": Row(
        "bound -d 200 -n 1 -q 10009",
        sha256="3bacbf060088b7f0fdd0380298fb1e75a63cfce74b9729699b3963dd2f55b45a"),
    "group_side_output_pinned_by_hash[bound-measure]": Row(
        "bound -d 3 -n 2 -q 101,1009,10007,100003 --measure -c=1",
        sha256="fa130581857953c6d4a1007a0be3912ca8e788e4fbc3bfc9475be994f8dbbb77"),
    # iterates of degree g = 10000 that leave the exact phase for dyadic endpoints
    "group_side_output_pinned_by_hash[fpp-d10000]": Row(
        "fpp -d 10000 -n 3",
        sha256="9625cd696d6f24613cc7423df7bd6f0b28d4cb70c72684082b916ed254952263"),
    # |A| = 1152 multipliers: the exact aggregate over every coset, and the
    # per-coset text of many multipliers sharing one g
    "group_side_output_pinned_by_hash[fpp-d5040-exact]": Row(
        "fpp -d 5040 -n 1 --exact",
        sha256="22ce6ebdff0c29c1f3bff1635051b228b5a885b870f3f7266d59a9dc35f9398f"),
    "group_side_output_pinned_by_hash[fpp-d5040-epsilon]": Row(
        "fpp -d 5040 -n 2 --epsilon 1/1000",
        sha256="301141f9369d31ebf91a12a440ab575be00d920769950ab192b7a2d45bfb3aed"),
    "group_side_output_pinned_by_hash[bound-d10000]": Row(
        "bound -d 10000 -n 1 -q 10009",
        sha256="5493519a51188b89698e54abc201b9e55f5fa86d197d529fbedefebabac47b85"),
    # a command that fails prints no partial result
    # the skip-ahead has certified the index past the step cap, so exit 5 comes
    # without a scan to the cap
    "failed_command_prints_nothing[fpp-epsilon]": Row(
        f"fpp -d 2 -n 1 --epsilon 1/{10**100}", 5,
        f"resource cap: no index below epsilon=1/{10**100} within 200000 iterations: "
        f"it is past {2 * 10**100 - 234}"),
    "failed_command_prints_nothing[fpp-d30-epsilon]": Row(
        f"fpp -d 30 -n 1 --epsilon 1/{10**100}", 5,
        f"resource cap: no index below epsilon=1/{10**100} within 200000 iterations: "
        f"it is past {2 * 10**100 // 29 - 83}"),
    "failed_command_prints_nothing[wreathcheck-S3]": Row(
        "wreathcheck S3 3", 5,
        "resource cap: iterated wreath needs 13060694016 elements, cap is 1000000"),
    # option values, typed or read from --config
    **{f"bad_degree_or_conductor_is_reported_as_itself[argv{i}-{message}]": usage(argv, message)
       for i, (argv, message) in enumerate([
           ("regime -d 2 -e 0 -c=1", "-e must be >= 1"),
           ("sweep -d 2 -e -4 -c=1 -N 10", "-e must be >= 1"),
           ("regime -d 1 -e 0 -c=1", "-d must be >= 2"),
       ])},
    **{f"a_value_below_its_lower_bound_names_the_option[{name}]": usage(argv, message)
       for name, argv, message in [
           ("-d", "fpp -d 1", "-d must be >= 2"),
           ("-e", "fpp -d 2 -e 0", "-e must be >= 1"),
           ("-n", "bound -d 2 -q 7 -n 0", "-n must be >= 1"),
           ("N", "wreathcheck C2 0", "N must be >= 1"),
           ("-N", "sweep -d 2 -c=1 -N 1", "--norm-bound must be >= 2"),
           ("--threads", "sweep -d 2 -c=1 -N 10 --threads 0", "--threads must be >= 1"),
           ("--max-iter", "regime -d 2 -c=1 --max-iter 0", "--max-iter must be >= 1"),
       ]},
    **{f"a_c_that_is_no_cyclotomic_literal_names_c[{argv.split()[0]}]":
       usage(argv, "bad value for -c: 'abc'") for argv in [
           "regime -d 2 -e 5 -c=abc",
           "sweep -d 2 -e 5 -c=abc -N 10",
           "bound -d 2 -e 5 -q 11 -c=abc --measure",
       ]},
    "a_c_with_a_stray_sign_is_refused": usage("regime -d 2 -e 5 -c=1++2",
                                              "bad value for -c: '1++2'"),
    "config_key_the_command_does_not_declare_is_refused[sweep-thread]": usage(
        "sweep -d 2 -c=1 -N 10", "unknown config key 'thread' for sweep", "thread = 2\n"),
    "config_key_the_command_does_not_declare_is_refused[regime-exact]": usage(
        "regime -d 2 -c=1", "unknown config key 'exact' for regime", "exact = yes\n"),
    "unparsable_option_value_names_the_option[q-grid-token]": usage(
        "bound -d 2 -q 7,abc", "bad value for --q-grid: 'abc'"),
    "unparsable_option_value_names_the_option[epsilon-text]": usage(
        "fpp -d 2 --epsilon abc", "bad value for --epsilon: 'abc'"),
    "unparsable_option_value_names_the_option[epsilon-zero-denominator]": usage(
        "fpp -d 2 --epsilon 1/0", "bad value for --epsilon: '1/0'"),
    "unparsable_option_value_names_the_option[config-d]": usage(
        "fpp", "bad value for -d: 'abc'", "d=abc\n"),
    **{f"typed_and_config_values_are_checked_alike[{name}]": (
        usage(f"{argv} {typed}", message), usage(argv, message, config + "\n"))
       for name, argv, typed, config, message in [
           ("fpp-d", "fpp", "-d abc", "d=abc", "bad value for -d: 'abc'"),
           ("sweep-N", "sweep -d 2 -c=1", "-N 1e4", "norm_bound=1e4",
            "bad value for --norm-bound: '1e4'"),
           ("wreathcheck-N", "wreathcheck C2", "abc", "n=abc", "bad value for N: 'abc'"),
           ("bound-classes", "bound -d 2 -q 7", "--classes foo", "classes=foo",
            "--classes must be 'safe' or 'exact'"),
           ("fpp-d-cap", "fpp", "-d 10001", "d=10001", "-d must be <= 10000"),
       ]},
}


def run_row(row: Row, tmp_path: Path, capsys) -> tuple[int, str, str]:
    argv = row.argv.split()
    if row.config is not None:
        cfg = tmp_path / "perprop.cfg"
        cfg.write_text(row.config)
        argv += ["--config", str(cfg)]
    return run(capsys, *argv)


def check_row(row: Row, code: int, out: str, err: str) -> None:
    assert (code, err) == (row.code, row.err and row.err + "\n"), row.argv
    if row.sha256 is not None:
        assert sha256(out) == row.sha256, row.argv
    if row.lines:
        assert [line for line in row.lines if line not in out.splitlines()] == [], row.argv
    elif row.sha256 is None:
        assert out == "", row.argv


def _table_test(rows_by_id: dict[str, tuple[Row, ...]]):
    def test(tmp_path, capsys, rows):
        for row in rows:
            check_row(row, *run_row(row, tmp_path, capsys))

    if list(rows_by_id) == [""]:
        return lambda tmp_path, capsys: test(tmp_path, capsys, rows_by_id[""])
    return pytest.mark.parametrize("rows", list(rows_by_id.values()), ids=list(rows_by_id))(test)


# each key of ROWS becomes the test it names, so a test folded into the table
# keeps its name
_TESTS: dict[str, dict[str, tuple[Row, ...]]] = {}
for _key, _rows in ROWS.items():
    _name, _, _id = _key.partition("[")
    _TESTS.setdefault(f"test_{_name}", {})[_id[:-1]] = (
        _rows if isinstance(_rows, tuple) else (_rows,))
globals().update({name: _table_test(rows_by_id) for name, rows_by_id in _TESTS.items()})


# one row of each failure kind and one pinned sweep, run as a fresh process:
# this covers the __main__ guard and sys.exit, which in-process rows skip,
# and the installed entry point wherever it is on PATH
FRESH_PROCESS_ROWS = {
    "exit-2": "bad_degree_or_conductor_is_reported_as_itself[argv0--e must be >= 1]",
    "exit-3": "undecided_critical_orbit",
    "exit-5": "wreathcheck_cap_exit_5",
    "sha256": "sweep_output_pinned_by_hash[d6-e4]",
}


@pytest.mark.parametrize("key", list(FRESH_PROCESS_ROWS.values()), ids=list(FRESH_PROCESS_ROWS))
def test_rows_in_a_fresh_process(key):
    row = ROWS[key]
    launchers = [[sys.executable, "-m", "perprop.cli"]]
    if shutil.which("perprop"):
        launchers.append([shutil.which("perprop")])
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    for launcher in launchers:
        done = subprocess.run([*launcher, *row.argv.split()], capture_output=True, text=True,
                              env=env, timeout=120)
        check_row(row, done.returncode, done.stdout, done.stderr)


def test_fpp_steps_each_distinct_indicatrix_once(capsys, monkeypatch):
    # the 8 multipliers mod 30 have g = gcd(m - 1, 30) in {30, 6, 10, 2}
    calls = []
    for name in ("iterate_at_zero", "epsilon_index"):
        real = getattr(indicatrix, name)
        monkeypatch.setattr(indicatrix, name,
                            lambda phi, x, real=real, name=name:
                            calls.append((name, phi)) or real(phi, x))
    code, out, _ = run(capsys, "fpp", "-d", "30", "-n", "3", "--epsilon", "1/100")
    assert code == 0 and out.count("N_eps(1/100)") == 8
    assert len(calls) == 8 and len(set(calls)) == 8


def test_every_recorded_group_side_command_replays(capsys):
    # the fixed fpp, wreathcheck and bound commands and all 500 recorded
    # regime commands: limit 0, limsup 1, preperiodic and undecided outcomes
    golden = json.loads(GOLDEN_EXACT_GROUP.read_text())
    commands = golden["fixed"] + golden["regime_fast"]
    commands += [cmd for stratum in golden["regime_slow_strata"] for cmd in stratum]
    assert len(commands) == 506
    mismatches = []
    for cmd in commands:
        code, out, _ = run(capsys, *cmd["argv"])
        if (code, out) != (cmd["exit"], cmd["stdout"]):
            mismatches.append(" ".join(cmd["argv"]))
    assert mismatches == []


def test_sweep_rows_internally_consistent(capsys):
    code, out, _ = run(capsys, "sweep", "-d", "2", "-e", "1", "-c", "2", "-N", "60")
    assert code == 0
    for line in out.splitlines()[1:]:
        if line.startswith("#"):
            continue
        parts = line.split(",")
        periodic, total = int(parts[4]), int(parts[5])
        bijective = parts[7] == "true"
        sizes = [int(s) for s in parts[8].split(";")]
        assert periodic <= total
        assert all(periodic <= s for s in sizes)
        assert bijective == (parts[6] == "1.000000")


def test_sweep_threads_identical_output(capsys):
    code, single, _ = run(capsys, "sweep", "-d", "3", "-e", "1", "-c", "1", "-N", "50")
    assert code == 0
    for k in ("2", "3"):
        code, multi, _ = run(capsys, "sweep", "-d", "3", "-e", "1", "-c", "1",
                             "-N", "50", "--threads", k)
        assert code == 0
        assert multi == single


def test_sweep_threads_are_clamped_to_the_cpu_count(capsys, monkeypatch):
    # a stand-in pool that records its size and maps in the calling thread
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", InlinePool)
    argv = ("sweep", "-d", "3", "-e", "1", "-c", "1", "-N", "50")
    code, single, _ = run(capsys, *argv)
    assert code == 0 and sizes == []
    code, many, _ = run(capsys, *argv, "--threads", "5000")
    assert code == 0 and many == single
    assert sizes == [min(5000, os.cpu_count() or 1)]


def test_importing_the_cli_loads_no_thread_pool():
    # concurrent.futures loads logging; only a sweep with --threads > 1 needs it
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    code = ("import sys, perprop.cli; "
            "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


# sha256 of `sweep -d 3 -e 5 -c=1+z -N 3000` with these extra options: rows
# at f = 1, 2 and 4, wild rows, and both top-decade lines
SWEEP_D3_E5_N3000 = {
    "": "ff7743dc359fecf7a06341f8e6a288efca38506c5e8d3a3128885fd3ba1faf5a",
    "--json": "158b056b474e61bf65804065921b3c9dc7c991ffc8e959f4092cbce1cca5902f",
    "--exact": "52bf497e9bf72c8e56c2bd7c3d877b98abd3643905ccf3bcadfd266b62279e5f",
}


@pytest.mark.parametrize("chunk", [1, 3, cli.ROW_CHUNK])
def test_sweep_output_does_not_depend_on_the_row_chunk(capsys, monkeypatch, chunk):
    monkeypatch.setattr(cli, "ROW_CHUNK", chunk)
    argv = ("sweep", "-d", "3", "-e", "5", "-c=1+z", "-N", "3000")
    for threads in ("1", "2"):
        for extra, digest in SWEEP_D3_E5_N3000.items():
            code, out, _ = run(capsys, *argv, *extra.split(), "--threads", threads)
            assert code == 0
            assert sha256(out) == digest, (chunk, threads, extra)
    code, out, _ = run(capsys, "sweep", "-d", "3", "-e", "1", "-c", "1", "-N", "10")
    assert code == 0 and out == EXPECTED_SWEEP_D3_N10  # a nonempty wild bucket


def test_records_survive_a_pickle_round_trip():
    P = residue_fields.primes_above(149, 5)[0]
    setting = powermap.CycSetting.make(3, 5, "1+z")
    m, row = dynamics.reduce_map(setting, P), cli.compute_row(setting, P)
    for record in (P, P.field, m, row):
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and hash(copy) == hash(record)
    for slotted in (P, P.field, row):
        assert not hasattr(slotted, "__dict__")


def test_sweep_output_file_and_io_error(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, _, _ = run(capsys, "sweep", "-d", "3", "-e", "1", "-c", "1", "-N", "10",
                     "-o", str(target))
    assert code == 0
    assert target.read_text() == EXPECTED_SWEEP_D3_N10
    code, _, err = run(capsys, "sweep", "-d", "3", "-e", "1", "-c", "1", "-N", "10",
                       "-o", str(tmp_path / "missing_dir" / "out.csv"))
    assert code == 4
    assert "I/O failure" in err


def test_sweep_json_mirror(capsys):
    code, out, _ = run(capsys, "sweep", "-d", "3", "-e", "1", "-c", "1", "-N", "10",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    rows = payload["rows"]
    assert [r["p"] for r in rows] == [2, 3, 5, 7]
    assert rows[3]["proportion"] == "0.250000"
    assert rows[3]["image_sizes"] == [8, 4, 3, 2, 2]
    assert rows[2]["bijective"] is True


def test_sweep_cyclotomic_setting(capsys):
    code, out, _ = run(capsys, "sweep", "-d", "3", "-e", "3", "-c", "1+z", "-N", "30")
    assert code == 0
    lines = [l for l in out.splitlines()[1:] if not l.startswith("#")]
    norms = [int(l.split(",")[2]) for l in lines]
    assert norms == [4, 7, 7, 13, 13, 19, 19, 25]


def test_wreathcheck_inexact_recursion_is_an_internal_error(capsys, monkeypatch):
    # within the enumeration cap the recursion iterates exactly, so a wider
    # enclosure is a fault and must not read as PASS
    exact = indicatrix.iterate_at_zero

    def widened(phi, n):
        iv = exact(phi, n)
        return indicatrix.IntervalRational(iv.lo, iv.hi + F(1, 2**200))

    monkeypatch.setattr(indicatrix, "iterate_at_zero", widened)
    code, out, err = run(capsys, "wreathcheck", "C2", "2")
    assert (code, out) == (6, "")
    assert err.splitlines()[-1].startswith(
        "internal error: RuntimeError: inexact recursion enclosure")


def test_a_value_error_inside_a_command_is_an_internal_error(capsys, monkeypatch):
    # only UsageError reads as a usage error; a fault inside perprop exits 6
    # with its traceback, whatever its type
    def broken(setting, max_iter):
        raise ValueError("internal bug")

    monkeypatch.setattr(powermap, "zero_orbit_report", broken)
    code, out, err = run(capsys, "regime", "-d", "2", "-c=1")
    assert (code, out) == (6, "")
    assert err.startswith("Traceback (most recent call last):")
    assert err.splitlines()[-1] == "internal error: ValueError: internal bug"


def test_bound_measure_inert_prime_uses_norm(capsys):
    # q = 5 is inert in Q(zeta_3): the measured field has norm 25, so the
    # error term is evaluated at 25, not at q (|A| = 1, |B_1| = 2, classes 2)
    from perprop.bounds import error_term

    at_norm = error_term(25, 1, 2, 2, 2)
    code, out, _ = run(capsys, "bound", "-d", "2", "-e", "3", "-n", "1",
                       "-q", "5", "--measure")
    assert code == 0
    assert out.splitlines()[-1] == (
        f"q=5 norm=25 bound={fmt6(F(1, 2) + at_norm)} error_term={fmt6(at_norm)}"
        " measured=0.538462 ok"
    )
    # without --measure the row is still evaluated and labelled at q
    at_q = error_term(5, 1, 2, 2, 2)
    code, out, _ = run(capsys, "bound", "-d", "2", "-e", "3", "-n", "1", "-q", "5")
    assert out.splitlines()[-1] == (
        f"q=5 bound={fmt6(F(1, 2) + at_q)} error_term={fmt6(at_q)}"
    )


def test_bound_measure_refuses_an_entry_past_the_graph_cap_before_output(capsys,
                                                                        monkeypatch):
    # refused before the primality test, which would trial-divide for minutes
    def no_trial_division(n):
        raise AssertionError(f"is_prime({n}) called")

    monkeypatch.setattr(residue_fields, "is_prime", no_trial_division)
    code, out, err = run(capsys, "bound", "-d", "2", "-n", "1", "-q",
                         "1000000000000000003", "--measure")
    assert (code, out) == (5, "")
    assert err == ("resource cap: graph needs 1000000000000000004 points, "
                   "cap is 20000000\n")


def test_bound_measure_refuses_an_inert_norm_past_the_graph_cap(capsys, monkeypatch):
    # q = 5 is inert in Q(zeta_3): q + 1 = 6 fits a cap of 20, norm + 1 = 26 does not
    monkeypatch.setattr(dynamics, "MEMORY_CAP_POINTS", 20)
    code, out, err = run(capsys, "bound", "-d", "2", "-e", "3", "-n", "1", "-q", "5",
                         "--measure")
    assert (code, out) == (5, "")
    assert err == "resource cap: graph needs 26 points, cap is 20\n"


def test_config_file_preloads_defaults(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("d = 3\ne = 1\nc = 1\nnorm_bound = 10  # comment\n")
    code, out, _ = run(capsys, "sweep", "--config", str(cfg))
    assert code == 0
    assert out == EXPECTED_SWEEP_D3_N10
    # command line overrides the config
    code, out, _ = run(capsys, "sweep", "--config", str(cfg), "-N", "5")
    assert code == 0
    assert "7,1,7" not in out


def test_config_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"d=\xff\n")
    code, out, err = run(capsys, "regime", "-d", "2", "-c=1", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err.startswith("usage error: config file is not UTF-8 text: ")


def test_config_file_is_reread_on_every_call(tmp_path, capsys):
    cfg = tmp_path / "regime.cfg"
    cfg.write_text("d = 2\nc = 1\n")
    code, out, _ = run(capsys, "regime", "--config", str(cfg))
    assert code == 0 and "setting: d=2 e=1 c=1" in out
    cfg.write_text("d = 3\nc = 1\n")
    code, out, _ = run(capsys, "regime", "--config", str(cfg))
    assert code == 0 and "setting: d=3 e=1 c=1" in out
    cfg.write_text("d = 3\nnot a pair\n")
    code, _, err = run(capsys, "regime", "--config", str(cfg), "-d", "2", "-c", "1")
    assert code == 2 and "bad config line" in err


# one value per declared option, none of them its default; {tmp} is the test's
# temporary directory
OPTION_VALUES = {
    "fpp": {"d": "3", "e": "3", "n": "2", "epsilon": "1/2", "exact": "yes"},
    "regime": {"d": "2", "e": "3", "c": "1+z", "max_iter": "2"},
    "sweep": {"d": "3", "e": "3", "c": "1", "norm_bound": "10", "output": "{tmp}/rows",
              "threads": "2", "json": "yes", "exact": "yes"},
    "wreathcheck": {"base": "C3", "n": "2"},
    "bound": {"d": "3", "e": "3", "n": "2", "q_grid": "101,1009", "c": "2",
              "measure": "yes", "classes": "exact"},
}
TABLE = [(name, option) for name, (_, _, options) in COMMANDS.items() for option in options]


@pytest.mark.parametrize("command, option", TABLE,
                         ids=[f"{name}-{option.flags[-1]}" for name, option in TABLE])
def test_every_option_reads_alike_from_its_config_key(tmp_path, capsys, command, option):
    options = COMMANDS[command][2]
    values = {key: text.format(tmp=tmp_path) for key, text in OPTION_VALUES[command].items()}
    assert set(values) == {o.key for o in options}
    moved = {option}
    if not option.flags[0].startswith("-"):  # the positionals after it move along
        moved |= {o for o in options[options.index(option):] if not o.flags[0].startswith("-")}
    cfg = tmp_path / "perprop.cfg"
    cfg.write_text("".join(f"{o.key}={values[o.key]}\n" for o in moved))

    def outcome(in_config):
        argv = [command]
        for o in options:
            if o in in_config:
                continue
            if not o.flags[0].startswith("-"):
                argv.append(values[o.key])
            else:
                argv += [o.flags[-1]] if o.conv is _bool_conv else [o.flags[-1], values[o.key]]
        if in_config:
            argv += ["--config", str(cfg)]
        code, out, err = run(capsys, *argv)
        written = Path(values.get("output", tmp_path / "none"))
        return code, out, err, written.read_text() if written.exists() else None

    flagged = outcome(set())
    assert flagged[0] in (0, 3) and flagged[2] == ""
    assert outcome(moved) == flagged


@pytest.mark.parametrize("argv", [
    ("regime", "-d", "2", "-c=1"), ("wreathcheck", "C2", "2"), ("bound", "-d", "2", "-q", "7"),
])
def test_exact_is_refused_where_it_changes_nothing(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--exact"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


# every help string each subcommand's --help carried before the option table
HELP_STRINGS = {
    "fpp": ["key=value file preloading defaults", "print exact rationals instead of decimals"],
    "regime": ["key=value file preloading defaults"],
    "sweep": ["key=value file preloading defaults", "print exact rationals instead of decimals"],
    "wreathcheck": ["key=value file preloading defaults"],
    "bound": ["key=value file preloading defaults", "comma-separated norms"],
    None: ["fixed-point proportions and periodic points of x^d + c",
           "indicatrix and FPP per multiplier coset", "trichotomy verdict for x^d + c",
           "periodic counts over a prime stream", "brute force vs recursion",
           "proportion bound on a norm grid"],
}


@pytest.mark.parametrize("command", list(HELP_STRINGS))
def test_help_keeps_its_strings(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for line in HELP_STRINGS[command]:
        assert line in text


def test_sweep_past_the_graph_cap_is_refused_before_the_sieve(capsys, monkeypatch):
    monkeypatch.setattr(dynamics, "MEMORY_CAP_POINTS", 100)
    stream, streamed = residue_fields.prime_stream, []
    monkeypatch.setattr(residue_fields, "prime_stream",
                        lambda *args: streamed.append(args) or stream(*args))
    code, out, err = run(capsys, "sweep", "-d", "2", "-c=1", "-N", "100")
    assert (code, out, streamed) == (5, "", [])
    assert err == "resource cap: -N 100 allows graphs of 101 points, cap is 100\n"
    code, out, _ = run(capsys, "sweep", "-d", "2", "-c=1", "-N", "99")
    assert (code, streamed) == (0, [(1, 99)])
    assert out.splitlines()[-3] == "97,1,97,false,10,98,0.102041,false,98;50;38;30;26;24;22;20"


def test_epsilon_iteration_cap_is_a_resource_cap(capsys, monkeypatch):
    # the skip-ahead is forced to fall back, so the scan runs past SKIP_AFTER
    # into the step cap
    monkeypatch.setattr(indicatrix, "_skip_ahead", lambda *args: None)
    monkeypatch.setattr(indicatrix, "MAX_ITERATION_STEPS", 2 * indicatrix.SKIP_AFTER)
    code, _, err = run(capsys, "fpp", "-d", "2", "-n", "1", "--epsilon", "1/10000")
    assert code == 5
    assert err == ("resource cap: no index below epsilon=1/10000 within "
                   f"{2 * indicatrix.SKIP_AFTER} iterations\n")


def test_exhausted_precision_exits_5_before_output(capsys, monkeypatch):
    # every enclosure is [0, 1], so iterate_at_zero climbs the whole ladder
    monkeypatch.setattr(indicatrix, "_iterates",
                        lambda f, wp: itertools.repeat((0, 1 << wp, 1 << wp)))
    code, out, err = run(capsys, "fpp", "-d", "2", "-n", "2")
    assert (code, out) == (5, "")
    assert err.startswith("precision exhausted: ")


def test_fpp_level_past_the_step_cap_is_refused_before_output(capsys):
    # -n beyond indicatrix.MAX_ITERATION_STEPS would step the indicatrix for
    # hours; it is refused before the first coset prints
    n = indicatrix.MAX_ITERATION_STEPS + 1
    code, out, err = run(capsys, "fpp", "-d", "2", "-n", str(n))
    assert (code, out) == (5, "")
    assert err == (f"resource cap: level {n} needs {n} iteration steps, "
                   f"cap is {indicatrix.MAX_ITERATION_STEPS}\n")


def test_fmt6_rounds_half_even_at_any_size():
    rng = random.Random(6)
    values = [F(0), F(1, 2 * 10**6), F(3, 2 * 10**6), F(10**22), F(2**127, 3)]
    for digits in range(0, 81):
        for _ in range(20):
            den = rng.randint(1, 10**rng.randint(0, 12))
            values.append(F(rng.randint(0, 10**digits) * den + rng.randint(0, den), den))
        # ties at the sixth decimal place
        values.append(F(2 * rng.randint(0, 10**digits) * 10**6 + 2 * rng.randint(0, 10**6) + 1,
                        2 * 10**6))
    for fr in values:
        q = round(fr * 10**6)
        assert fmt6(fr) == f"{q // 10**6}.{q % 10**6:06d}", fr


@pytest.mark.parametrize("argv", [
    ["regime", "-d", "2", "-e", "3"],
    ["sweep", "-d", "2", "-e", "3", "-N", "60"],
    ["bound", "-d", "2", "-e", "3", "-n", "1", "-q", "7,13", "--measure"],
])
def test_c_with_leading_minus(capsys, argv):
    # `-c -1+z` is read as the value of -c, exactly like `-c=-1+z`
    code, out, _ = run(capsys, *argv, "-c", "-1+z")
    assert (code, out) == run(capsys, *argv, "-c=-1+z")[:2]
    assert code == 0 and out


def test_decay_experiment_script_runs(tmp_path):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "decay_experiment.py"), "2000", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "== x2plus1:" in done.stdout and "== x3plus1:" in done.stdout
    assert (tmp_path / "x2plus1_N2000.csv").exists()


def test_bound_vs_measured_script_runs():
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "bound_vs_measured.py"), "3", "1", "1", "3"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "VIOLATION" not in done.stdout
    rows = [line for line in done.stdout.splitlines() if " measured=" in line]
    assert len(rows) == 2 and all(row.endswith(" ok") for row in rows)


def test_readme_library_sketch_has_the_values_its_comments_show():
    # every expression line of the sketch is commented with the repr of its value
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    code = text.split("## Library sketch", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = code.splitlines()
    namespace = {}
    exec("from perprop import *", namespace)
    shown = 0
    for node in ast.parse(code).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            comment = lines[node.lineno - 1].partition("  #")[2].strip()
            assert comment.startswith(repr(value)), (lines[node.lineno - 1], value)
            shown += 1
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert shown == 9


def test_every_python_file_parses_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10
    sources = [path for top in ("src", "scripts", "tests")
               for path in sorted((ROOT / top).rglob("*.py"))]
    assert len(sources) > 20
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
    with pytest.raises(SyntaxError):  # 3.11 syntax is refused
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
