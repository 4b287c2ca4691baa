import json
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from perprop import dynamics, indicatrix, powermap, residue_fields
from perprop.cli import COMMANDS, _bool_conv, fmt6, main

GOLDEN_EXACT_GROUP = Path(__file__).resolve().parent.parent / "perfbench" / "golden" / "exact_group.json"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fpp_aggregate_values(capsys):
    code, out, _ = run(capsys, "fpp", "-d", "3", "-e", "3", "-n", "2")
    assert code == 0
    assert "aggregate FPP(B_n), n=2: 19/81 (0.234568)" in out

    code, out, _ = run(capsys, "fpp", "-d", "2", "-e", "1", "-n", "3")
    assert code == 0
    assert "39/128" in out

    code, out, _ = run(capsys, "fpp", "-d", "3", "-e", "1", "-n", "1")
    assert code == 0
    assert "coset m=2: status = all-have-fixed-points" in out
    assert "coset m=2: fpp_n = 1/1 (1.000000)" in out


def test_fpp_epsilon_reporting(capsys):
    code, out, _ = run(capsys, "fpp", "-d", "3", "-e", "1", "-n", "1",
                       "--epsilon", "0.5")
    assert code == 0
    assert "coset m=1: N_eps(1/2) = 1" in out
    assert "coset m=2: N_eps(1/2) = diverges" in out


def test_fpp_usage_error(capsys):
    code, _, err = run(capsys, "fpp", "-d", "1")
    assert code == 2
    assert "usage error" in err


@pytest.mark.parametrize("epsilon", ["2", "0", "1"])
def test_fpp_epsilon_out_of_range_is_reported_before_output(capsys, epsilon):
    code, out, err = run(capsys, "fpp", "-d", "2", "-n", "1", "--epsilon", epsilon)
    assert (code, out) == (2, "")
    assert err == "usage error: epsilon must be in (0, 1)\n"


@pytest.mark.parametrize("argv, message", [
    (("regime", "-d", "2", "-e", "0", "-c=1"), "-e must be >= 1"),
    (("sweep", "-d", "2", "-e", "-4", "-c=1", "-N", "10"), "-e must be >= 1"),
    (("regime", "-d", "1", "-e", "0", "-c=1"), "-d must be >= 2"),
])
def test_bad_degree_or_conductor_is_reported_as_itself(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"usage error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (("fpp", "-d", "1"), "-d must be >= 2"),
    (("fpp", "-d", "2", "-e", "0"), "-e must be >= 1"),
    (("bound", "-d", "2", "-q", "7", "-n", "0"), "-n must be >= 1"),
    (("wreathcheck", "C2", "0"), "N must be >= 1"),
    (("sweep", "-d", "2", "-c=1", "-N", "1"), "--norm-bound must be >= 2"),
    (("sweep", "-d", "2", "-c=1", "-N", "10", "--threads", "0"), "--threads must be >= 1"),
    (("regime", "-d", "2", "-c=1", "--max-iter", "0"), "--max-iter must be >= 1"),
], ids=["-d", "-e", "-n", "N", "-N", "--threads", "--max-iter"])
def test_a_value_below_its_lower_bound_names_the_option(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"usage error: {message}\n")


def test_regime_c_output(capsys):
    code, out, _ = run(capsys, "regime", "-d", "3", "-e", "1", "-c", "1")
    assert code == 0
    assert "regime: (a)+(c): limsup = 1, witness m=2" in out


def test_regime_b_output(capsys):
    code, out, _ = run(capsys, "regime", "-d", "2", "-e", "1", "-c", "1")
    assert code == 0
    assert "regime: (a)+(b): limit = 0" in out


def test_regime_hypothesis_failure_exit_3(capsys):
    code, out, _ = run(capsys, "regime", "-d", "2", "-e", "1", "-c", "-1")
    assert code == 3
    assert "hypothesis '0 is not preperiodic' fails" in out


def test_regime_undecided_exit_3(capsys):
    code, out, _ = run(capsys, "regime", "-d", "2", "-e", "1", "-c", "1",
                       "--max-iter", "1")
    assert code == 3


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


EXPECTED_SWEEP_D3_N10 = """p,f,norm,wild,periodic,total,proportion,bijective,image_sizes
2,1,2,true,3,3,1.000000,true,3;3
3,1,3,true,4,4,1.000000,true,4;4
5,1,5,false,6,6,1.000000,true,6;6
7,1,7,false,2,8,0.250000,false,8;4;3;2;2
# top_decade (1, 10] tame: count=2 max=1.000000 median=0.625000
# top_decade (1, 10] wild: count=2 max=1.000000 median=1.000000
"""


def test_sweep_csv_golden(capsys):
    code, out, _ = run(capsys, "sweep", "-d", "3", "-e", "1", "-c", "1", "-N", "10")
    assert code == 0
    assert out == EXPECTED_SWEEP_D3_N10


def test_sweep_known_rows(capsys):
    code, out, _ = run(capsys, "sweep", "-d", "2", "-e", "1", "-c", "1", "-N", "5")
    assert code == 0
    assert "5,1,5,false,4,6,0.666667,false,6;4;4" in out
    code, out, _ = run(capsys, "sweep", "-d", "3", "-e", "1", "-c", "1", "-N", "7")
    assert "7,1,7,false,2,8,0.250000,false,8;4;3;2;2" in out


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


def test_sweep_exact_proportions(capsys):
    code, out, _ = run(capsys, "sweep", "-d", "3", "-e", "1", "-c", "1", "-N", "10",
                       "--exact")
    assert code == 0
    assert "7,1,7,false,2,8,1/4,false,8;4;3;2;2" in out


def test_sweep_cyclotomic_setting(capsys):
    code, out, _ = run(capsys, "sweep", "-d", "3", "-e", "3", "-c", "1+z", "-N", "30")
    assert code == 0
    lines = [l for l in out.splitlines()[1:] if not l.startswith("#")]
    norms = [int(l.split(",")[2]) for l in lines]
    assert norms == [4, 7, 7, 13, 13, 19, 19, 25]


def test_wreathcheck_pass(capsys):
    for base, n in [("C2", 2), ("C3", 2), ("S3", 2)]:
        code, out, _ = run(capsys, "wreathcheck", base, str(n))
        assert code == 0
        assert "PASS" in out


def test_wreathcheck_inexact_recursion_is_an_internal_error(capsys, monkeypatch):
    # within the enumeration cap the recursion iterates exactly, so a wider
    # enclosure is a fault and must not read as PASS
    exact = indicatrix.iterate_at_zero

    def widened(phi, n):
        iv = exact(phi, n)
        return indicatrix.IntervalRational(iv.lo, iv.hi + F(1, 2**200))

    monkeypatch.setattr(indicatrix, "iterate_at_zero", widened)
    code, out, err = run(capsys, "wreathcheck", "C2", "2")
    assert code == 6
    assert "PASS" not in out
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


def test_wreathcheck_cap_exit_5(capsys):
    code, _, err = run(capsys, "wreathcheck", "C3", "3")
    assert code == 5
    assert "resource cap" in err


def test_wreathcheck_usage(capsys):
    code, _, err = run(capsys, "wreathcheck", "Q8", "2")
    assert code == 2


@pytest.mark.parametrize("argv, missing", [
    (("wreathcheck", "C2"), "N"),
    (("wreathcheck",), "BASE"),
])
def test_wreathcheck_names_a_missing_positional(capsys, argv, missing):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"usage error: missing required argument {missing}\n"
    assert "-n" not in err and "--base" not in err


def test_bound_table(capsys):
    code, out, _ = run(capsys, "bound", "-d", "3", "-e", "1", "-n", "1",
                       "-q", "1000003")
    assert code == 0
    assert "|A|=2" in out and "FPP(B_n)<=2/3" in out
    assert "q=1000003" in out


def test_bound_measure(capsys):
    code, out, _ = run(capsys, "bound", "-d", "3", "-e", "1", "-n", "1",
                       "-q", "10009", "-c", "1", "--measure")
    assert code == 0
    assert "measured=0.333467 ok" in out
    code, _, err = run(capsys, "bound", "-d", "3", "-e", "1", "-n", "1",
                       "-q", "10008", "--measure")
    assert code == 2


@pytest.mark.parametrize("e, grid, message", [
    ("3", "7,3", "--q-grid entry 3 ramifies in Q(zeta_3)"),
    ("5", "5", "--q-grid entry 5 ramifies in Q(zeta_5)"),
    ("1", "7,9", "--measure needs prime grid entries, got 9"),
])
def test_bound_measure_rejects_a_grid_entry_before_output(capsys, e, grid, message):
    code, out, err = run(capsys, "bound", "-d", "2", "-e", e, "-n", "1", "-q", grid,
                         "--measure")
    assert (code, out) == (2, "")
    assert err == f"usage error: {message}\n"


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
    code, out, err = run(capsys, "bound", "-d", "2", "-n", "1", "-q", "101,20000003",
                         "--measure")
    assert (code, out) == (5, "")
    assert err == "resource cap: graph needs 20000004 points, cap is 20000000\n"
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


def test_bound_exact_classes(capsys):
    code, out, _ = run(capsys, "bound", "-d", "3", "-e", "1", "-n", "1",
                       "-q", "101", "--classes", "exact")
    assert code == 0
    assert "classes=2" in out  # exact count is smaller than the safe default 6


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


@pytest.mark.parametrize("argv, config, key", [
    (("sweep", "-d", "2", "-c=1", "-N", "10"), "thread = 2\n", "thread"),
    (("regime", "-d", "2", "-c=1"), "exact = yes\n", "exact"),
], ids=["sweep-thread", "regime-exact"])
def test_config_key_the_command_does_not_declare_is_refused(tmp_path, capsys, argv,
                                                            config, key):
    cfg = tmp_path / "perprop.cfg"
    cfg.write_text(config)
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert (code, out, err) == (2, "", f"usage error: unknown config key {key!r} for {argv[0]}\n")


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


@pytest.mark.parametrize("argv, config, option", [
    (("bound", "-d", "2", "-q", "7,abc"), None, "--q-grid"),
    (("fpp", "-d", "2", "--epsilon", "abc"), None, "--epsilon"),
    (("fpp", "-d", "2", "--epsilon", "1/0"), None, "--epsilon"),
    (("fpp",), "d=abc\n", "-d"),
], ids=["q-grid-token", "epsilon-text", "epsilon-zero-denominator", "config-d"])
def test_unparsable_option_value_names_the_option(tmp_path, capsys, argv, config, option):
    if config is not None:
        cfg = tmp_path / "perprop.cfg"
        cfg.write_text(config)
        argv = (*argv, "--config", str(cfg))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage error: bad value for {option}: ")


@pytest.mark.parametrize("argv, typed, config, message", [
    (("fpp",), ("-d", "abc"), "d=abc", "bad value for -d: 'abc'"),
    (("sweep", "-d", "2", "-c=1"), ("-N", "1e4"), "norm_bound=1e4",
     "bad value for --norm-bound: '1e4'"),
    (("wreathcheck", "C2"), ("abc",), "n=abc", "bad value for N: 'abc'"),
    (("bound", "-d", "2", "-q", "7"), ("--classes", "foo"), "classes=foo",
     "--classes must be 'safe' or 'exact'"),
    (("fpp",), ("-d", "10001"), "d=10001", "-d must be <= 10000"),
], ids=["fpp-d", "sweep-N", "wreathcheck-N", "bound-classes", "fpp-d-cap"])
def test_typed_and_config_values_are_checked_alike(tmp_path, capsys, argv, typed,
                                                   config, message):
    cfg = tmp_path / "perprop.cfg"
    cfg.write_text(config + "\n")
    for source in (typed, ("--config", str(cfg))):
        code, out, err = run(capsys, *argv, *source)
        assert (code, out, err) == (2, "", f"usage error: {message}\n"), source


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


def test_bound_refuses_a_bad_c_without_measure(capsys):
    code, out, err = run(capsys, "bound", "-d", "2", "-n", "1", "-q", "10", "-c=abc")
    assert (code, out) == (2, "")
    assert err.startswith("usage error:")


@pytest.mark.parametrize("argv", [
    ("regime", "-d", "2", "-e", "5", "-c=abc"),
    ("sweep", "-d", "2", "-e", "5", "-c=abc", "-N", "10"),
    ("bound", "-d", "2", "-e", "5", "-q", "11", "-c=abc", "--measure"),
], ids=["regime", "sweep", "bound"])
def test_a_c_that_is_no_cyclotomic_literal_names_c(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "usage error: bad value for -c: 'abc'\n")


def test_fpp_degree_past_the_cap_is_refused(capsys):
    for argv in (("fpp", "-d", "10001", "-n", "1"), ("bound", "-d", "10001", "-q", "7")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "usage error: -d must be <= 10000\n"


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
    from perprop import indicatrix

    monkeypatch.setattr(indicatrix, "MAX_ITERATION_STEPS", 10)
    code, _, err = run(capsys, "fpp", "-d", "2", "-n", "1", "--epsilon", "1/10000")
    assert code == 5
    assert err.startswith("resource cap:")
    # the parabolic estimate 2/(phi''(1)*eps) for phi = 1/2 + 1/2*x^2
    assert "20000" in err
    assert "transitive group?" not in err


def test_fpp_level_past_the_step_cap_is_refused_before_output(capsys):
    # -n beyond indicatrix.MAX_ITERATION_STEPS would step the indicatrix for
    # hours; it is refused before the first coset prints
    n = indicatrix.MAX_ITERATION_STEPS + 1
    code, out, err = run(capsys, "fpp", "-d", "2", "-n", str(n))
    assert (code, out) == (5, "")
    assert err == (f"resource cap: level {n} needs {n} iteration steps, "
                   f"cap is {indicatrix.MAX_ITERATION_STEPS}\n")


def test_exact_classes_over_cap_is_a_resource_cap(capsys):
    code, out, err = run(capsys, "bound", "-d", "3", "-e", "1", "-n", "3", "-q", "10",
                         "--classes", "exact")
    assert code == 5
    assert out == ""
    assert err.startswith("resource cap:")
    assert "3188646" in err


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


def test_bound_with_a_group_order_past_double_digits(capsys):
    # |B_7| = 2^127: the error terms are far beyond 10^22
    code, out, err = run(capsys, "bound", "-d", "2", "-n", "7", "-q", "10,100003")
    assert (code, err) == (0, "")
    assert "|B_n|=170141183460469231731687303715884105728" in out
    assert [line.split()[0] for line in out.splitlines()[1:]] == ["q=10", "q=100003"]


def test_wreath_order_past_the_digit_limit_is_a_resource_cap(capsys):
    for argv in (["wreathcheck", "C2", "14"], ["bound", "-d", "2", "-n", "14", "-q", "10"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (5, "")
        assert err.startswith("resource cap: ")
        assert "4300 decimal digits" in err


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


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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
