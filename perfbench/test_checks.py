"""Self-tests of the benchmark's correctness checker.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from stochorder import cli  # noqa: E402

from checks import Checker  # noqa: E402
from run import Client  # noqa: E402

CHECK_ARGV = ["check", "--family", "poisson", "--nu1=1", "--nu2=2"]


def _report(argv: list[str]) -> tuple[int, dict]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, json.loads(out.getvalue())


def _problems(argv, code, report) -> list[str]:
    return Checker.from_program().problems(argv, code, json.dumps(report))


def test_real_check_report_passes():
    code, report = _report(CHECK_ARGV)
    assert _problems(CHECK_ARGV, code, report) == []


def test_criterion_holds_where_oracle_fails_is_a_failure():
    code, report = _report(CHECK_ARGV)
    for v in report["verdicts"]:
        if v["method"] == "oracle" and (v["order"], v["direction"]) == ("st", "up"):
            assert v["status"] == "holds"
            v["status"] = "fails"
    problems = _problems(CHECK_ARGV, code, report)
    assert problems == ["kernel criterion holds for st up but the endpoint oracle does not"]


def test_missing_expected_lr_direction_is_a_failure():
    code, report = _report(CHECK_ARGV)
    for v in report["verdicts"]:
        if (v["order"], v["direction"]) == ("lr", "up"):
            v["status"] = "fails"
    assert "Table-1 slope '+' expects lr up to hold" in _problems(CHECK_ARGV, code, report)


def test_exit_2_counts_as_failed():
    argv = ["check", "--family", "no-such-family", "--nu1=1", "--nu2=2"]
    client = Client(cli, Checker.from_program())
    client.run(argv)
    assert (client.attempted, client.failed) == (1, 1)
    assert Checker.from_program().problems(argv, 2, "") == ["exit code 2"]


def test_key_order_is_checked():
    code, report = _report(CHECK_ARGV)
    reordered = {"inputs": report["inputs"], **report}
    assert _problems(CHECK_ARGV, code, reordered)[0].startswith("report keys")


def test_katz_cell_disagreeing_with_threshold_is_a_failure():
    argv = ["pairwise", "--p", "binomial:n=10,p=0.05", "--q", "poisson:lambda=0.6"]
    code, report = _report(argv)
    assert _problems(argv, code, report) == []
    for v in report["verdicts"]:
        if v["order"] == "lr":
            v["status"] = "fails"
    assert _problems(argv, code, report) == ["katz bin-poi lr: status fails, threshold says holds"]


def test_compound_direction_and_interpolation_status_are_checked():
    argv = ["compound", "--counting", "geometric", "--summand", "geometric:p=0.5",
            "--nu1", "0.3", "--nu2", "0.6"]
    code, report = _report(argv)
    assert _problems(argv, code, report) == []
    report["verdicts"][0]["direction"] = "up"
    assert _problems(argv, code, report) == ["compound geometric: direction up, Table 2 says down"]

    argv = ["path", "--name", "interpolation:n=10,r=2,s=3,p=0.9"]
    code, report = _report(argv)
    assert _problems(argv, code, report) == []
    report["verdicts"][0]["status"] = "fails"
    assert _problems(argv, code, report) == [
        "interpolation: status fails, threshold condition says holds"
    ]
