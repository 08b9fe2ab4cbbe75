"""Command-line surface: exit codes, report formats, byte determinism."""

import csv
import io
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from stochorder.cli import dumps, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# ---------------------------------------------------------------------------
# serialization


def test_dumps_fixed_float_format():
    assert dumps({"x": 0.1}) == '{"x": 0.10000000000000001}'
    assert dumps(2.0) == "2"
    assert dumps(float("inf")) == '"inf"'
    assert dumps(float("-inf")) == '"-inf"'
    assert dumps(float("nan")) == '"nan"'
    assert dumps(-0.0) == "0"
    assert dumps(None) == "null"
    assert dumps(True) == "true"
    assert dumps(np.array([1.5, 2.0])) == "[1.5, 2]"
    assert dumps({"b": 1, "a": [2, "x"]}) == '{"b": 1, "a": [2, "x"]}'
    with pytest.raises(TypeError):
        dumps({"x": {1, 2}})


# ---------------------------------------------------------------------------
# check


def test_check_report_roundtrips_through_json(capsys):
    code, out, err = run_cli(
        capsys, "check", "--family", "poisson", "--nu1", "1", "--nu2", "3", "--no-timing"
    )
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["command"] == "check"
    assert report["runtime_ms"] == 0
    # the serializer is its own inverse on its output
    assert dumps(report) + "\n" == out
    # per order: an up and a down scan plus two endpoint oracle pairs
    assert len(report["verdicts"]) == 16
    lr_up = next(
        v
        for v in report["verdicts"]
        if v["order"] == "lr" and v["direction"] == "up" and v["method"] == "kernel-criterion"
    )
    assert lr_up["status"] == "holds"
    endpoint = [v for v in report["verdicts"] if v["method"] == "oracle"]
    assert len(endpoint) == 8
    assert all(v["claim"].endswith("(endpoint pair)") for v in endpoint)


def test_check_with_identical_endpoints_is_reflexive(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--family", "poisson", "--nu1", "2", "--nu2", "2",
        "--orders", "lr,st", "--no-timing",
    )
    assert code == 0
    report = json.loads(out)
    assert len(report["verdicts"]) == 2
    for v in report["verdicts"]:
        assert v["status"] == "holds"
        assert "identical parameter endpoints: reflexive" in v["note"]
        assert "itself" in v["claim"]


def test_subnormal_oracle_masses_leave_stderr_empty(capsys):
    # the oracle divides masses near the smallest double by one another here
    argv = ["check", "--family", "negbinomial-in-q:r=14.6042", "--nu1=0.109341",
            "--nu2=0.883407", "--no-timing"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert err == ""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run_cli(capsys, *argv) == (code, out, err)


def test_check_exits_one_when_no_direction_holds(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--family", "zero-inflated-poisson:pi=0.5",
        "--nu1", "3", "--nu2", "5", "--orders", "lr", "--no-timing",
    )
    assert code == 1
    report = json.loads(out)
    scans = [v for v in report["verdicts"] if v["method"] == "kernel-criterion"]
    assert len(scans) == 2
    assert {v["status"] for v in scans} == {"fails"}


def test_check_accepts_a_nu_grid_override(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--family", "poisson", "--nu1", "1", "--nu2", "3",
        "--orders", "lr", "--nu-grid", "1, 2 ,3", "--no-timing",
    )
    assert code == 0
    assert json.loads(out)["inputs"]["nu_grid"] == "1, 2 ,3"


# ---------------------------------------------------------------------------
# pairwise and compound


def test_pairwise_reports_all_four_orders(capsys):
    code, out, _ = run_cli(
        capsys, "pairwise", "--p", "binomial:n=10,p=0.05", "--q", "poisson:lambda=0.6",
        "--no-timing",
    )
    assert code == 0
    report = json.loads(out)
    by_order = {v["order"]: v for v in report["verdicts"]}
    assert set(by_order) == {"lr", "lc", "st", "hr"}
    assert all(v["status"] == "holds" for v in report["verdicts"])
    assert by_order["lr"]["method"] == "pairwise-kernel"
    assert by_order["st"]["method"] == "oracle"
    assert by_order["st"]["claim"] == "binomial(n=10,p=0.05) <=st poisson(lambda=0.6)"


def test_pairwise_exits_one_when_the_claim_fails(capsys):
    code, out, _ = run_cli(
        capsys, "pairwise", "--p", "poisson:lambda=0.6", "--q", "binomial:n=10,p=0.05",
        "--orders", "lr", "--no-timing",
    )
    assert code == 1
    v = json.loads(out)["verdicts"][0]
    assert v["status"] == "fails"
    assert v["witness"]["kind"] == "support"


@pytest.mark.parametrize("p,q", [
    # cut at k = 11 and k = 10; the log ratio of the pmfs is linear in k
    ("poisson:lambda=2", "poisson:lambda=0.4"),
    # cut at k = 16 and k = 150; carried to k = 150, the cmp masses would
    # sink below the smallest normal double and fake a convex triplet
    ("cmp:mu=7.66,nu=1.81", "negbinomial:r=12.5,p=0.299"),
])
def test_pairwise_lc_is_not_refuted_by_different_truncation_points(capsys, p, q):
    code, out, _ = run_cli(capsys, "pairwise", "--p", p, "--q", q, "--orders", "lc", "--no-timing")
    assert code == 0
    [v] = json.loads(out)["verdicts"]
    assert v["status"] == "holds" and v["witness"] is None
    assert v["note"] == "endpoint oracle holds"


def test_compound_subcommand_reports_model_sizes(capsys):
    code, out, _ = run_cli(
        capsys, "compound", "--counting", "poisson", "--summand", "geometric:p=0.5",
        "--nu1", "1", "--nu2", "2", "--no-timing",
    )
    assert code == 0
    report = json.loads(out)
    assert report["inputs"]["k_max"] == 63
    assert report["inputs"]["n_max"] == 18
    v = report["verdicts"][0]
    assert v["method"] == "compound-kernel" and v["status"] == "holds"
    assert v["direction"] == "up"
    assert "endpoint oracle holds" in v["note"]


# ---------------------------------------------------------------------------
# tables


@pytest.mark.parametrize("table_id", ["table1", "table2", "katz"])
def test_table_matches_golden_and_verifies(table_id, capsys):
    code, out, _ = run_cli(capsys, "table", "--id", table_id, "--no-timing")
    assert code == 0
    report = json.loads(out)
    assert report["golden"]["matches"] is True
    assert report["golden"]["file"] == f"golden/v1/{table_id}.json"
    assert report["table"]["verified"] is True
    assert report["table"]["rows"]


# ---------------------------------------------------------------------------
# paths


def test_path_subcommand_runs_named_paths(capsys):
    code, out, _ = run_cli(
        capsys, "path", "--name", "gamma:r1=1,r2=2,rho1=2,rho2=1",
        "--order", "lr", "--t-points", "9", "--no-timing",
    )
    assert code == 0
    report = json.loads(out)
    v = report["verdicts"][0]
    assert v["method"] == "path-kernel" and v["status"] == "holds"
    assert report["inputs"]["t_points"] == 9


def test_path_interpolation_reports_threshold(capsys):
    code, out, _ = run_cli(
        capsys, "path", "--name", "interpolation:n=5,r=1,s=10,p=0.5", "--no-timing"
    )
    assert code == 0
    report = json.loads(out)
    assert report["inputs"]["condition"] is True
    assert report["inputs"]["threshold"] == pytest.approx(1.0 / 3.0)
    assert set(report["inputs"]["delta_margins"]) == {"0", "1", "10", "100"}
    assert "threshold" in report["verdicts"][0]["note"]


def test_path_interpolation_below_threshold_fails(capsys):
    code, out, _ = run_cli(
        capsys, "path", "--name", "interpolation:n=5,r=1,s=10,p=0.2", "--no-timing"
    )
    assert code == 1
    v = json.loads(out)["verdicts"][0]
    assert v["status"] == "fails"
    assert "unmet; endpoint oracle fails" in v["note"]
    assert v["witness"]["kind"] == "adjacent-pair"


# ---------------------------------------------------------------------------
# diagnostics and exit codes


def test_errors_exit_two_and_name_the_offending_token(capsys):
    cases = [
        (("check", "--family", "binormal", "--nu1", "1", "--nu2", "2"), "binormal"),
        (("check", "--family", "poisson", "--nu1", "1", "--nu2", "2", "--orders", "lr,zz"), "zz"),
        (("check", "--family", "poisson", "--nu1", "1", "--nu2", "2", "--nu-grid", "1,abc"), "abc"),
        (("pairwise", "--p", "weibull:k=1", "--q", "poisson:lambda=1"), "weibull"),
        (
            ("compound", "--counting", "poisson", "--summand", "geometric:q=0.5",
             "--nu1", "1", "--nu2", "2"),
            "'p'",
        ),
        (("path", "--name", "spiral:a=1"), "spiral"),
        (("path", "--name", "gamma:r1=1,r2=2,rho1=2,rho2=1", "--order", "xx"), "xx"),
        (("path", "--name", "interpolation:n=5,r=1,s=10"), "'p'"),
        (("path", "--name", "interpolation:n=5,r=1,s=10,p=0.5", "--order", "st"), "lr"),
        (("check", "--family", "poisson", "--nu1", "1", "--nu2", "2", "--nu-grid", "50,60",
          "--orders", "lr"), "'50'"),
        (("check", "--family", "poisson", "--nu1", "2", "--nu2", "1", "--nu-grid", "1,1.5,2.5"),
         "'2.5'"),
    ]
    for argv, token in cases:
        code = main(list(argv))
        out, err = capsys.readouterr()
        assert code == 2, argv
        assert err.startswith("error:"), argv
        assert token in err, argv
        assert out == ""


@pytest.mark.parametrize("argv,code,status,note", [
    # log factors past the largest finite exponent (about 709): normalized
    # without subtracting their maximum, these pmfs became NaN and exited 2
    (("pairwise", "--p", "binomial:n=1200,p=0.5", "--q", "poisson:lambda=600", "--orders", "st"),
     1, "fails", ""),
    (("pairwise", "--p", "betabinomial:n=179,r=5.06,s=25.85", "--q", "poisson:lambda=20",
      "--orders", "lr"), 1, "fails", "endpoint oracle fails"),
    (("path", "--name", "betabinomial:n=200,r1=2,r2=3,s1=3,s2=2", "--order", "st"),
     0, "holds", "endpoint oracle holds"),
])
def test_overflowing_log_factors_give_verdicts(capsys, argv, code, status, note):
    got, out, err = run_cli(capsys, *argv, "--no-timing")
    assert (got, err) == (code, "")
    [v] = json.loads(out)["verdicts"]
    assert (v["status"], v["note"]) == (status, note)


TOLERANCE_OPTIONS = [
    (["check", "--family", "poisson", "--nu1", "1", "--nu2", "2", "--orders", "lr"],
     ("--tol-shape", "--tol-tail", "--tail-eps")),
    (["pairwise", "--p", "poisson:lambda=1", "--q", "poisson:lambda=2", "--orders", "lr"],
     ("--tol-shape", "--tail-eps")),
    (["compound", "--counting", "poisson", "--summand", "geometric:p=0.5",
      "--nu1", "1", "--nu2", "2"], ("--tol-shape",)),
    (["path", "--name", "gamma:r1=1,r2=2,rho1=2,rho2=1", "--t-points", "5"],
     ("--tol-shape", "--tol-tail")),
]


@pytest.mark.parametrize(
    "argv,option",
    [(argv, option) for argv, options in TOLERANCE_OPTIONS for option in options],
)
@pytest.mark.parametrize("value", ["-1", "-1e-12", "nan", "inf", "abc"])
def test_tolerances_must_be_finite_and_nonnegative(capsys, argv, option, value):
    code = main(argv + [f"{option}={value}"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert option in err and repr(value) in err


SIZE_OPTIONS = [
    (["check", "--family", "poisson", "--nu1", "1", "--nu2", "2"], "--kmax", "1", "100001"),
    (["check", "--family", "gamma-in-rate", "--nu1", "1", "--nu2", "2"],
     "--grid-points", "2", "100001"),
    (["compound", "--counting", "poisson", "--summand", "geometric:p=0.5",
      "--nu1", "1", "--nu2", "2"], "--nu-points", "1", "10001"),
    (["path", "--name", "gamma:r1=1,r2=2,rho1=2,rho2=1"], "--t-points", "1", "10001"),
]


@pytest.mark.parametrize("argv,option,too_small,too_large", SIZE_OPTIONS)
def test_sizes_outside_their_range_exit_two(capsys, argv, option, too_small, too_large):
    for value in (too_small, too_large, "1e9", "abc"):
        code = main(argv + [f"{option}={value}"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert option in err and repr(value) in err


def test_argparse_failures_exit_two(capsys):
    assert main(["check", "--nu1", "1", "--nu2", "2"]) == 2
    _, err = capsys.readouterr()
    assert "usage" in err
    assert main(["table", "--id", "table9"]) == 2
    _, err = capsys.readouterr()
    assert "table9" in err


# ---------------------------------------------------------------------------
# rendering and io


def test_csv_format_lists_verdict_rows(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--family", "poisson", "--nu1", "1", "--nu2", "3",
        "--orders", "lr", "--format", "csv", "--no-timing",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("order,direction,status,method,margin,witness_x")
    assert len(lines) == 1 + 4


def test_csv_format_for_tables_uses_row_columns(capsys):
    code, out, _ = run_cli(capsys, "table", "--id", "katz", "--format", "csv", "--no-timing")
    assert code == 0
    header = out.splitlines()[0]
    assert header == "pair,params,lr_condition,st_condition,oracle_lr,oracle_st"


def test_text_format_is_human_readable(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--family", "poisson", "--nu1", "1", "--nu2", "3",
        "--orders", "lr", "--format", "text", "--no-timing",
    )
    assert code == 0
    assert out.startswith("command: check\n")
    assert "lr up: holds [kernel-criterion]" in out
    assert "witness: x=0, nu=1, margin=-1, kind=adjacent-pair" in out
    assert out.rstrip().endswith("runtime_ms: 0")


def test_text_and_csv_fold_negative_zero(capsys):
    argv = ["check", "--family", "cmp-in-dispersion", "--nu1", "0.8", "--nu2", "1.6",
            "--no-timing", "--format"]
    _, text, _ = run_cli(capsys, *argv, "text")
    assert "lr down: holds [kernel-criterion] margin=0\n" in text
    assert "=-0\n" not in text and "=-0," not in text
    _, table, _ = run_cli(capsys, *argv, "csv")
    cells = [cell for row in csv.reader(io.StringIO(table)) for cell in row]
    assert "-0" not in cells and "0" in cells


def test_out_writes_the_report_to_a_file(tmp_path, capsys):
    argv = ["pairwise", "--p", "poisson:lambda=1", "--q", "poisson:lambda=2",
            "--orders", "lr", "--no-timing"]
    target = tmp_path / "report.json"
    code = main(argv + ["--out", str(target)])
    out, _ = capsys.readouterr()
    assert code == 0 and out == ""
    code2 = main(argv)
    stdout, _ = capsys.readouterr()
    assert code2 == 0
    assert target.read_text(encoding="utf-8") == stdout


def test_no_timing_output_is_byte_stable(capsys):
    argv = ["check", "--family", "gamma-in-rate", "--nu1", "0.8", "--nu2", "1.6", "--no-timing"]
    code1 = main(list(argv))
    first, _ = capsys.readouterr()
    code2 = main(list(argv))
    second, _ = capsys.readouterr()
    assert code1 == code2 == 0
    assert first == second


def test_timing_field_reports_milliseconds(capsys):
    code, out, _ = run_cli(
        capsys, "pairwise", "--p", "poisson:lambda=1", "--q", "poisson:lambda=2", "--orders", "lr"
    )
    assert code == 0
    report = json.loads(out)
    assert isinstance(report["runtime_ms"], int) and report["runtime_ms"] >= 0


def test_module_entry_points_run_as_subprocesses():
    argv = ["pairwise", "--p", "poisson:lambda=1", "--q", "poisson:lambda=2",
            "--orders", "lr", "--no-timing"]
    a = subprocess.run([sys.executable, "-m", "stochorder", *argv],
                       capture_output=True, text=True)
    b = subprocess.run([sys.executable, "-m", "stochorder.cli", *argv],
                       capture_output=True, text=True)
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout
    assert json.loads(a.stdout)["verdicts"][0]["status"] == "holds"
