import json
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from perprop.cli import fmt6, main


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


def test_wreathcheck_cap_exit_5(capsys):
    code, _, err = run(capsys, "wreathcheck", "C3", "3")
    assert code == 5
    assert "resource cap" in err


def test_wreathcheck_usage(capsys):
    code, _, err = run(capsys, "wreathcheck", "Q8", "2")
    assert code == 2


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


def test_epsilon_iteration_cap_is_a_resource_cap(capsys, monkeypatch):
    from perprop import indicatrix

    monkeypatch.setattr(indicatrix, "MAX_ITERATION_STEPS", 10)
    code, _, err = run(capsys, "fpp", "-d", "2", "-n", "1", "--epsilon", "1/10000")
    assert code == 5
    assert err.startswith("resource cap:")


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
    rows = done.stdout.splitlines()[2:]
    assert len(rows) == 2 and all(row.endswith(",ok") for row in rows)
