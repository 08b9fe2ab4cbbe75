"""Command-line surface: exit codes, report formats, byte determinism."""

import ast
import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stochorder
from stochorder import catalog, cli, criteria, special
from stochorder.catalog import continuous_grid, default_grid, family_from_spec
from stochorder.cli import dumps, main
from stochorder.criteria import scan_orders


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
    assert dumps([1.5, 2.0]) == "[1.5, 2]"
    assert dumps({"b": 1, "a": [2, "x"]}) == '{"b": 1, "a": [2, "x"]}'
    with pytest.raises(TypeError):
        dumps({"x": {1, 2}})


# The recursive encoder and CSV cell rule that `dumps` and `_cell` replaced,
# kept as the reference they must match.


def _old_scalar(x) -> str:
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        if math.isnan(x):
            return '"nan"'
        if math.isinf(x):
            return '"inf"' if x > 0 else '"-inf"'
        if x == 0.0:
            x = 0.0  # fold -0.0 so load/dump cycles are stable
        return format(x, ".17g")
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    raise TypeError(f"cannot serialize {type(x).__name__}")


def _old_dumps(obj) -> str:
    """Render a report as JSON with insertion key order and fixed float format."""
    if isinstance(obj, dict):
        body = ", ".join(f"{encode_basestring_ascii(str(k))}: {_old_dumps(v)}" for k, v in obj.items())
        return "{" + body + "}"
    if isinstance(obj, list):
        return "[" + ", ".join(_old_dumps(v) for v in obj) + "]"
    return _old_scalar(obj)


def _old_cell(x) -> str:
    """CSV cell rendering with the same float format as the JSON output."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return _old_scalar(x).strip('"')  # JSON's format, -0 folded, nan/inf unquoted
    if isinstance(x, dict):
        return ";".join(f"{k}={_old_cell(v)}" for k, v in x.items())
    if isinstance(x, list):
        return ",".join(_old_cell(v) for v in x)
    return str(x)


def _outcome(render, x):
    """What `render` gives for x: its string, or the type and text of its error."""
    try:
        return render(x)
    except TypeError as exc:
        return TypeError, str(exc)


_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072014e-308,
                     1e308, -1e308, 1.7976931348623157e308]),
)
_STRINGS = st.one_of(
    st.text(),
    st.text(st.sampled_from('"\\\x00\x1f\x7f\n\té€𝄞\u2028 a')),
)
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=10**300), _FLOATS, _STRINGS,
    _FLOATS.map(np.float64),
)
_KEYS = st.one_of(_STRINGS, st.integers(), st.booleans(), st.none(), _FLOATS)
_TREES = st.recursive(
    _SCALARS,
    lambda kids: st.lists(kids, max_size=6) | st.dictionaries(_KEYS, kids, max_size=6),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_TREES)
def test_dumps_and_cell_match_the_recursive_encoder(tree):
    assert dumps(tree) == _old_dumps(tree)
    assert cli._cell(tree) == _old_cell(tree)


@settings(max_examples=100, deadline=None)
@given(_TREES, st.sampled_from([{1, 2}, set(), (1.5,), np.int64(3), np.float32(0.5),
                                np.array([1.0]), b"x"]))
def test_dumps_refuses_the_same_values_as_the_recursive_encoder(tree, bad):
    for wrapped in ([tree, bad], {"k": tree, "bad": bad}, bad):
        got = _outcome(dumps, wrapped)
        assert got == _outcome(_old_dumps, wrapped)
        assert got[0] is TypeError


_REPORT_ARGV = [
    *(["check", "--family", spec, f"--nu1={lo!r}", f"--nu2={hi!r}"]
      for spec, (lo, hi), *_ in cli._TABLE1),
    ["pairwise", "--p", "poisson:lambda=2", "--q", "negbinomial:r=3,p=0.5"],
    ["pairwise", "--p", "binomial:n=5,p=0.9", "--q", "hypergeometric:B=10,W=2,n=5"],
    ["compound", "--counting", "poisson", "--summand", "geometric:p=0.5", "--nu1=1", "--nu2=2"],
    *(["path", "--name", name, "--order", o]
      for name in ("gamma:r1=1,r2=2,rho1=2,rho2=1", "negbinomial:r1=1,r2=2,q1=0.3,q2=0.4",
                   "betabinomial:n=10,r1=1,r2=2,s1=3,s2=2")
      for o in ("lr", "lc", "st", "hr")),
    ["path", "--name", "interpolation:n=5,r=1,s=10,p=0.5"],
    ["path", "--name", "interpolation:n=5,r=1,s=10,p=0.2"],
    *(["table", "--id", t] for t in ("table1", "table2", "katz")),
]


@pytest.mark.parametrize("argv", _REPORT_ARGV, ids=" ".join)
def test_reports_hold_only_builtin_values(argv):
    """The serializers handle exactly None, bool, int, float, str, list and
    dict; a numpy scalar or array in a report would not reach them. Exact
    types, since np.float64 passes isinstance(x, float)."""
    args = cli._build_parser().parse_args(argv)
    report = args.run(args)
    leaves = {type(None), bool, int, float, str}

    def walk(x, path):
        if type(x) is dict:
            for k, v in x.items():
                assert type(k) is str, f"{path}: key {k!r}"
                walk(v, f"{path}.{k}")
        elif type(x) is list:
            for i, v in enumerate(x):
                walk(v, f"{path}[{i}]")
        else:
            assert type(x) in leaves, f"{path}: {type(x).__name__}"

    walk(report, "report")


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


def test_pairwise_cmp_at_unit_mu_gives_a_report(capsys):
    # lam = 1: the cmp series normalizer has log(lam) = 0
    code, out, err = run_cli(
        capsys, "pairwise", "--p", "cmp:mu=1,nu=2", "--q", "poisson:lambda=5",
        "--orders", "st,hr", "--no-timing",
    )
    assert (code, err) == (0, "")
    assert [v["status"] for v in json.loads(out)["verdicts"]] == ["holds", "holds"]


def test_pairwise_reaches_a_tail_target_below_the_error_in_the_pmf_total(capsys):
    # this negative binomial's pmf sums to 1 - 4.75e-13 over 0..10 000
    code, out, err = run_cli(
        capsys, "pairwise", "--p", "negbinomial:r=48.4884,p=0.0579789", "--q",
        "poisson:lambda=5", "--orders", "st", "--tail-eps", "1e-13", "--no-timing",
    )
    assert (code, err) == (1, "")
    assert [v["status"] for v in json.loads(out)["verdicts"]] == ["fails"]


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


def test_a_zero_inflated_exponential_log_factor_past_the_double_range_leaves_stderr_empty(
        capsys):
    # the grid of theta = 1e-300 runs to about 5e301, where theta x at
    # theta = 1e300 is inf: the log factor's limit there is -inf, read
    # without numpy's overflow warning
    argv = ["check", "--family", "zero-inflated-exponential", "--nu1=1e-300", "--nu2=1e+300",
            "--no-timing"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(capsys, *argv)
    assert (code, err) == (1, "")


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


@pytest.mark.parametrize("argv", [
    ("--family", "poisson", "--nu1", "1", "--nu2", "30", "--nu-grid", "1", "--orders", "st"),
    ("--family", "gamma-in-rate", "--nu1", "0.8", "--nu2", "1.6", "--nu-grid", "1.6"),
])
def test_check_nu_grid_leaves_the_endpoint_oracle_as_it_is(capsys, argv):
    # the oracle reads both endpoint laws, so a --nu-grid that leaves one out
    # must not cut the grid short of it: Poisson(30) cut for nu = 1 alone ends
    # at k = 14, and its st down witness moved from x = 9 to x = 7
    def oracle_verdicts(argv):
        _, out, _ = run_cli(capsys, "check", *argv, "--no-timing")
        return [v for v in json.loads(out)["verdicts"] if v["method"] == "oracle"]

    at = argv.index("--nu-grid")
    assert oracle_verdicts(argv) == oracle_verdicts(argv[:at] + argv[at + 2 :])


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


def test_pairwise_lc_support_witness_sits_where_the_dominating_support_starts(capsys):
    # the binomial P puts mass on 0..2, below the hypergeometric Q's support
    # 3..5; both end at 5, where the witness used to sit
    code, out, _ = run_cli(capsys, "pairwise", "--p", "binomial:n=5,p=0.9",
                           "--q", "hypergeometric:B=10,W=2,n=5", "--orders", "lc", "--no-timing")
    [v] = json.loads(out)["verdicts"]
    assert code == 1 and v["status"] == "fails"
    assert v["witness"] == {"x": 3, "nu": None, "margin": "-inf", "kind": "support"}
    assert v["note"] == "dominated support starts below the dominating support"


BETABIN_LOW = "betabinomial:n=38,r=4.85272,s=5.12533"  # support 0..38
HYP_HIGH = "hypergeometric:B=50,W=4,n=52"  # support 48..50


@pytest.mark.parametrize("p,q,statuses,x,note", [
    # f_P/f_Q is +inf on 0..38, then 0 on 48..50: nonincreasing, so lr, st
    # and hr hold; lc fails, P's support not lying inside Q's
    (BETABIN_LOW, HYP_HIGH, ["holds", "fails", "holds", "holds"], 48,
     "dominated support starts below the dominating support"),
    (HYP_HIGH, BETABIN_LOW, ["fails", "fails", "fails", "fails"], 38,
     "dominated support reaches beyond the dominating support"),
])
def test_pairwise_disjoint_supports_give_verdicts(capsys, p, q, statuses, x, note):
    # both exited 2 with "no common support"
    code, out, err = run_cli(capsys, "pairwise", "--p", p, "--q", q, "--no-timing")
    assert (code, err) == (1, "")
    lr, lc, st, hr = json.loads(out)["verdicts"]
    assert [v["status"] for v in (lr, lc, st, hr)] == statuses
    assert (lc["witness"]["kind"], lc["witness"]["x"], lc["note"]) == ("support", x, note)
    if lr["status"] == "holds":
        assert (lr["witness"], lr["margin"], lr["tolerances"]["grid_points"]) == (None, None, 0)
        assert lr["note"] == ("dominated support wholly below the dominating one: "
                              "f_P/f_Q is +inf, then 0; endpoint oracle holds")
    else:
        assert (lr["witness"]["kind"], lr["witness"]["x"], lr["note"]) == ("support", x, note)


def test_pairwise_cuts_each_law_once_and_builds_one_kernel(capsys, monkeypatch):
    from stochorder import pairwise

    calls = {"law_distribution": 0, "pairwise_kernel": 0}
    for name in calls:
        def counted(*args, _fn=getattr(pairwise, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        for module in (pairwise, cli):  # wherever the function is imported
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    code, _, _ = run_cli(capsys, "pairwise", "--p", "poisson:lambda=2",
                         "--q", "negbinomial:r=3,p=0.5", "--orders", "lr,lc,st,hr")
    assert code == 1 and calls == {"law_distribution": 2, "pairwise_kernel": 1}
    # an lr claim the supports alone refute cuts no law and builds no kernel
    calls.update(law_distribution=0, pairwise_kernel=0)
    code, _, _ = run_cli(capsys, "pairwise", "--p", "poisson:lambda=0.6",
                         "--q", "binomial:n=10,p=0.05", "--orders", "lr")
    assert code == 1 and calls == {"law_distribution": 0, "pairwise_kernel": 0}


@pytest.mark.parametrize("order", ["lr", "lc", "st", "hr"])
def test_pairwise_cuts_every_order_at_the_tail_target(capsys, order):
    # lr and lc used to cut their laws at 1e-12, whatever --tail-eps said
    code, out, err = run_cli(capsys, "pairwise", "--p", "geometric:p=0.5",
                             "--q", "poisson:lambda=1", "--orders", order, "--tail-eps", "0")
    assert (code, out, err) == (
        2, "", "error: geometric: tail-mass target 0 unreachable within k_max=10000\n")


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


def test_table1_verdicts_are_the_rows_own_checks(capsys):
    code, out, _ = run_cli(capsys, "table", "--id", "table1", "--no-timing")
    assert code == 0
    listed = iter(json.loads(out)["verdicts"])
    for spec, (lo, hi), slope, curv, window in cli._TABLE1:
        fam = family_from_spec(spec)
        nus = (lo, 0.5 * (lo + hi), hi)
        grid = default_grid(fam, nus) if window is None else continuous_grid(
            window[0], window[1], n=window[2])
        # lr in the direction of the expected slope sign; lc in that of the
        # expected curvature sign, and both ways for a flat one
        tests = [("lr", d) for d in {"+": ["up"], "-": ["down"]}.get(slope, [])]
        tests += [("lc", d)
                  for d in {"-": ["down"], "+": ["up"], "0": ["down", "up"]}.get(curv, [])]
        alone = [scan_orders(fam, nus, grid, [test])[0] for test in tests]
        for v in alone:
            assert next(listed) == json.loads(dumps(v.to_dict())), spec
    assert next(listed, None) is None


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


def test_path_interpolation_ignores_the_t_points_and_tail_settings(capsys):
    argv = ["path", "--name", "interpolation:n=5,r=1,s=10,p=0.5", "--no-timing"]
    code, out, _ = run_cli(capsys, *argv)
    assert (code, out) == run_cli(capsys, *argv, "--t-points", "2", "--tol-tail", "0.5")[:2]
    report = json.loads(out)
    assert "t_points" not in report["inputs"] and "tol_tail" not in report["tolerances"]


def test_path_interpolation_below_threshold_fails(capsys):
    code, out, _ = run_cli(
        capsys, "path", "--name", "interpolation:n=5,r=1,s=10,p=0.2", "--no-timing"
    )
    assert code == 1
    v = json.loads(out)["verdicts"][0]
    assert v["status"] == "fails"
    assert "unmet; endpoint oracle fails" in v["note"]
    assert v["witness"]["kind"] == "adjacent-pair"


def test_path_tail_search_stops_at_kmax(capsys):
    # --kmax is the ceiling of the tail search, as for check, not the grid's end
    code, out, err = run_cli(capsys, "path", "--name", "negbinomial:r1=2,r2=40,q1=0.5,q2=0.9",
                             "--order", "st", "--kmax", "400", "--no-timing")
    assert (code, out) == (2, "")
    assert err == "error: negbinomial path: tail-mass target 1e-12 unreachable within k_max=400\n"


def test_negbinomial_lc_path_reaches_past_the_fixed_grid(capsys):
    # on 0..400 the t = 0 law underflowed to zeros, which the lc oracle read
    # as a gap in its support and so made the report inconclusive
    code, out, _ = run_cli(capsys, "path", "--name",
                           "negbinomial:r1=2.33098,r2=4.23971,q1=0.054447,q2=0.677158",
                           "--order", "lc", "--no-timing")
    [v] = json.loads(out)["verdicts"]
    assert (code, v["status"], v["note"]) == (0, "holds", "endpoint oracle holds")


# ---------------------------------------------------------------------------
# diagnostics and exit codes


def test_negative_numbers_in_exponent_notation_are_values(capsys):
    argv = ["check", "--family", "gumbel-in-location", "--nu2", "0.5", "--no-timing"]
    code, spaced, err = run_cli(capsys, *argv, "--nu1", "-4.6e-05")
    assert (code, err) == (0, "")
    assert run_cli(capsys, *argv, "--nu1=-4.6e-05") == (0, spaced, "")
    assert json.loads(spaced)["inputs"]["nu1"] == -4.6e-05


@pytest.mark.parametrize("argv,scanned", [
    (("check", "--family", "poisson:theta=2", "--nu1", "1", "--nu2", "2"), "theta"),
    (("check", "--family", "negbinomial-in-shape:nu=2", "--nu1", "1", "--nu2", "2"), "nu"),
    (("compound", "--counting", "poisson:lam=2", "--summand", "geometric:p=0.5",
      "--nu1", "1", "--nu2", "2"), "lam"),
    (("compound", "--counting", "negbinomial:p=0.5", "--summand", "geometric:p=0.5",
      "--nu1", "0.3", "--nu2", "0.6"), "p"),
])
def test_a_spec_that_gives_the_scanned_parameter_is_refused_by_name(capsys, argv, scanned):
    # the scanned parameter was called unknown, as if the law had no such one
    code, out, err = run_cli(capsys, *argv, "--no-timing")
    assert (code, out) == (2, "")
    assert f"'{scanned}' is the scanned parameter" in err


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
        (
            ("compound", "--counting", "poisson", "--summand", "geometric:p=0.5",
             "--nu1", "2", "--nu2", "2"),
            "--nu1 and --nu2 are both 2",
        ),
        (("path", "--name", "spiral:a=1"), "spiral"),
        (("path", "--name", "gamma:r1=1,r2=2,rho1=2,rho2=1", "--order", "xx"), "xx"),
        (("path", "--name", "interpolation:n=5,r=1,s=10"), "'p'"),
        (("path", "--name", "interpolation:n=5,r=1,s=10,p=0.5", "--order", "st"), "lr"),
        (("check", "--family", "poisson", "--nu1", "1", "--nu2", "2", "--nu-grid", "50,60",
          "--orders", "lr"), "'50'"),
        (("check", "--family", "poisson", "--nu1", "2", "--nu2", "1", "--nu-grid", "1,1.5,2.5"),
         "'2.5'"),
        # a repeated spec key kept its last value, while the report's inputs echoed both
        (("check", "--family", "binomial-in-p:n=10,n=12", "--nu1", "0.1", "--nu2", "0.2"),
         "parameter 'n' given twice"),
        (("pairwise", "--p", "binomial:n=10,p=0.05,p=0.9", "--q", "poisson:lambda=1"),
         "parameter 'p' given twice"),
        (("pairwise", "--p", "poisson:lambda=1", "--q", "poisson:lambda=2, lambda=3"),
         "parameter 'lambda' given twice"),
        (("compound", "--counting", "binomial:n0=10,n0=12", "--summand", "geometric:p=0.5",
          "--nu1", "0.1", "--nu2", "0.2"), "parameter 'n0' given twice"),
        (("compound", "--counting", "poisson", "--summand", "geometric:p=0.5,p=0.4",
          "--nu1", "1", "--nu2", "2"), "parameter 'p' given twice"),
        (("path", "--name", "gamma:r1=1,r2=2,rho1=2,rho2=1,r1=3"), "parameter 'r1' given twice"),
        # about 2.8e10 summand terms: the summand asked numpy for a 206 GiB array
        (("compound", "--counting", "poisson", "--summand", "geometric:p=1e-9",
          "--nu1", "1", "--nu2", "2"),
         "geometric summand: tail-mass target 1e-12 unreachable within k_max=100000"),
        # one message for every unreachable tail target: the law, the target
        # and the ceiling the search reached
        (("compound", "--counting", "poisson", "--summand", "poisson-shifted:mu=200000",
          "--nu1", "1", "--nu2", "2"),
         "poisson-shifted summand: tail-mass target 1e-12 unreachable within k_max=100000"),
        (("pairwise", "--p", "geometric:p=0.00001", "--q", "poisson:lambda=4", "--orders", "st"),
         "geometric: tail-mass target 1e-12 unreachable within k_max=10000"),
        (("check", "--family", "geometric", "--nu1", "0.5", "--nu2", "0.99999"),
         "geometric: tail-mass target 1e-12 unreachable within k_max=10000"),
        (("compound", "--counting", "poisson", "--summand", "delta:j=1",
          "--nu1", "400", "--nu2", "600"),
         "poisson: tail-mass target 1e-12 unreachable within n_max=500"),
        # the counting law's cap is n_max; k_max names the compound support's
        (("compound", "--counting", "logseries", "--summand", "delta",
          "--nu1", "0.1", "--nu2", "0.99"),
         "logseries: tail-mass target 1e-12 unreachable within n_max=500"),
        # a summand longer than the table: the one window is the whole table
        (("compound", "--counting", "poisson", "--summand", "geometric:p=0.01",
          "--nu1", "1", "--nu2", "2"), "compound mass beyond k_max=2000 exceeds 1e-6 at nu=2"),
        # the cap has no option: the advice names what a user can change
        (("compound", "--counting", "poisson", "--summand", "delta:j=300",
          "--nu1", "0.2", "--nu2", "0.5"), "summand with less mass far out or scan a narrower"),
        # a non-finite endpoint was reported as "nu_scan needs two distinct
        # finite endpoints", naming neither the option's value nor the family
        (("check", "--family", "poisson", "--nu1=nan", "--nu2=3"), "poisson: parameter theta=nan"),
        (("check", "--family", "poisson", "--nu1=1", "--nu2=inf"), "theta=inf outside (0.0, inf)"),
    ]
    for argv, token in cases:
        code = main(list(argv))
        out, err = capsys.readouterr()
        assert code == 2, argv
        assert err.startswith("error:"), argv
        assert token in err, argv
        assert out == ""


@pytest.mark.parametrize("argv,token", [
    # a fractional binomial size was truncated to n = 10
    (("path", "--name", "interpolation:n=10.5,r=1,s=1,p=0.5"), "n must be an integer"),
    # integer law parameters are capped by catalog.MAX_KMAX
    (("pairwise", "--p", "binomial:n=100001,p=0.5", "--q", "poisson:lambda=3"), "n <= 100000"),
    # a finite counting support is capped by n_max like an infinite one
    (("compound", "--counting", "binomial:n0=501", "--summand", "geometric:p=0.5",
      "--nu1=0.1", "--nu2=0.2"), "binomial(n0=501): counting support reaches 501, past n_max=500"),
    # the delta summand's j was truncated to 2, and had no ceiling
    (("compound", "--counting", "poisson", "--summand", "delta:j=2.5", "--nu1", "1", "--nu2", "2"),
     "delta summand: j must be an integer, got 2.5"),
    (("compound", "--counting", "poisson", "--summand", "delta:j=100001", "--nu1", "1",
      "--nu2", "2"), "delta summand needs j <= 100000"),
])
def test_integer_parameters_are_bound_or_refused(capsys, argv, token):
    code, out, err = run_cli(capsys, *argv, "--no-timing")
    assert (code, out) == (2, "")
    assert token in err


@pytest.mark.parametrize("summand,refusal", [
    *((f"geometric:p={v}", "geometric summand needs p in (0,1)")
      for v in ("inf", "nan", "0", "1")),
    *((f"two-point:w1={v}", "two-point summand needs w1 in (0,1)")
      for v in ("inf", "nan", "0", "1")),
    # mu's domain (0, inf) has inf for its upper edge
    *((f"poisson-shifted:mu={v}", "poisson-shifted summand needs mu > 0")
      for v in ("inf", "nan", "0")),
])
def test_summands_refuse_values_outside_their_domain_by_name(capsys, summand, refusal):
    # stderr is the one line: poisson-shifted:mu=inf printed two numpy
    # RuntimeWarnings and then an unreachable tail target
    code, out, err = run_cli(capsys, "compound", "--counting", "poisson", "--summand", summand,
                             "--nu1", "1", "--nu2", "2", "--no-timing")
    assert (code, out, err) == (2, "", f"error: {refusal}\n")


@pytest.mark.parametrize("name,params", [
    (name, params)
    for name, cases in {
        "geometric": ("q=0.5", "p=0", "p=0.5,q=1", "p=1e-9"),
        "delta": ("j=0", "j=2.5", "j=100001", "j=2,q=1"),
        "two-point": ("w=0.5", "w1=1", "w1=0.5,q=1"),
        # poisson-shifted's domain refusal called it a shifted-poisson summand
        "poisson-shifted": ("lambda=1", "mu=0", "mu=inf", "mu=200000", "mu=1,q=1"),
    }.items()
    for params in cases
])
def test_every_summand_refusal_names_the_summand_as_typed(capsys, name, params):
    # a missing, out-of-domain or unknown parameter, or an unreachable tail
    code, out, err = run_cli(capsys, "compound", "--counting", "poisson", "--summand",
                             f"{name}:{params}", "--nu1", "1", "--nu2", "2", "--no-timing")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and name in err


@pytest.mark.parametrize("summand", ["geometric:p=0.01", "delta:j=300"])
def test_compound_refuses_equal_endpoints_before_it_builds_the_model(capsys, summand):
    # the model came first, so a summand past the convolution table's cap
    # gave the cap's advice to scan a narrower nu range
    code, out, err = run_cli(capsys, "compound", "--counting", "poisson", "--summand", summand,
                             "--nu1", "2", "--nu2", "2", "--no-timing")
    assert (code, out) == (2, "")
    assert err == ("error: --nu1 and --nu2 are both 2; the compound scan needs two distinct "
                   "values\n")


@pytest.mark.parametrize("argv,code,status,note", [
    # log factors past the largest finite exponent (about 709): normalized
    # without subtracting their maximum, these pmfs became NaN and exited 2
    (("pairwise", "--p", "binomial:n=1200,p=0.5", "--q", "poisson:lambda=600", "--orders", "st"),
     1, "fails", ""),
    (("pairwise", "--p", "betabinomial:n=179,r=5.06,s=25.85", "--q", "poisson:lambda=20",
      "--orders", "lr"), 1, "fails", "endpoint oracle fails"),
    (("path", "--name", "betabinomial:n=200,r1=2,r2=3,s1=3,s2=2", "--order", "st"),
     0, "holds", "implied by lr: the kernel is monotone at every scanned t; endpoint oracle holds"),
])
def test_overflowing_log_factors_give_verdicts(capsys, argv, code, status, note):
    got, out, err = run_cli(capsys, *argv, "--no-timing")
    assert (got, err) == (code, "")
    [v] = json.loads(out)["verdicts"]
    assert (v["status"], v["note"]) == (status, note)


@pytest.mark.parametrize("argv,refusal", [
    # math.lgamma overflowed in log_pochhammer_vec: a traceback and exit 1
    (("check", "--family", "negbinomial-in-q:r=1e308", "--nu1", "0.3", "--nu2", "0.6"),
     "negbinomial-in-q: log factor overflows a double at r=1e+308,q=0.3"),
    (("pairwise", "--p", "negbinomial:r=1e308,p=0.5", "--q", "poisson:lambda=2"),
     "negbinomial: log factor overflows a double at r=1e+308,p=0.5"),
    # the weibull quantile raised OverflowError; the pareto one was inf, and
    # the grid refused its NaN steps with a numpy warning, naming nothing
    (("check", "--family", "weibull-in-rate:beta=1e-308", "--nu1", "0.8", "--nu2", "1.6"),
     "weibull-in-rate(beta=1e-308): grid span not finite at lam=0.8"),
    (("check", "--family", "pareto-in-shape:xm=1e308", "--nu1", "1.5", "--nu2", "3"),
     "pareto-in-shape(xm=1e+308): grid span not finite at alpha=1.5"),
    # k / theta overflowed: numpy warnings, and wrong verdicts by both routes
    (("check", "--family", "poisson", "--nu1=1e-308", "--nu2", "3"),
     "poisson: kernel not finite at theta=1e-308"),
    # exp(-z) overflowed in the log factor: a numpy warning before the error
    (("check", "--family", "gumbel-in-location", "--nu1=1e307", "--nu2", "2e307"),
     "gumbel-in-location: zero total mass on the grid at mu=1e+307: its cells, 5.5e+303 wide, "
     "miss the law's mass; --grid-points sets their count"),
    # x^2 / (2 sigma^2) overflowed: a numpy warning before the error
    (("check", "--family", "halfnormal-in-scale", "--nu1=1.386199985852166e-99",
      "--nu2=5.383274468648785e+56"),
     "halfnormal-in-scale: zero total mass on the grid at sigma=1.386199985852166e-99: its "
     "cells, 1.73e+54 wide, miss the law's mass; --grid-points sets their count"),
    # sigma^2 underflowed to 0: a numpy warning, then a zero mass it did not cause
    (("check", "--family", "lognormal-in-mu:sigma=1e-200", "--nu1=0", "--nu2=1"),
     "lognormal-in-mu: log factor overflows a double at sigma=1e-200,mu=0"),
])
def test_in_domain_overflows_exit_two_naming_the_law(capsys, argv, refusal):
    code, out, err = run_cli(capsys, *argv, "--no-timing")
    assert (code, out, err) == (2, "", f"error: {refusal}\n")


def test_a_grid_too_coarse_for_the_law_is_refused_naming_its_cells(capsys):
    # Lognormal(0, 1e-5): 2000 cells over both endpoint spans are 9.5e-4 (95
    # sigma) wide, so every point reads exp(-1000) = 0; the refusal names the
    # cells, not the law, and finer cells hold the mass
    argv = ("check", "--family", "lognormal-in-mu:sigma=1e-5", "--nu1=0", "--nu2=1")
    assert run_cli(capsys, *argv, "--no-timing") == (
        2, "", "error: lognormal-in-mu: zero total mass on the grid at mu=0.0: its cells, "
               "0.000945 wide, miss the law's mass; --grid-points sets their count\n")
    code, out, _ = run_cli(capsys, *argv, "--grid-points=100000", "--no-timing")
    assert code in (0, 1) and len(json.loads(out)["verdicts"]) == 16


@pytest.mark.parametrize("options,status,note", [
    ((), "fails", "endpoint oracle fails"),
    (("--tol-shape", "1e6"), "inconclusive", "endpoint oracle fails; path test and oracle disagree"),
])
def test_an_lc_path_fails_by_both_routes_or_is_downgraded(capsys, options, status, note):
    code, out, err = run_cli(capsys, "path", "--name",
                             "betabinomial:n=21,r1=1.426,r2=3.219,s1=5.585,s2=4.745",
                             "--order", "lc", *options, "--no-timing")
    assert (code, err) == (1, "")
    [v] = json.loads(out)["verdicts"]
    assert (v["order"], v["direction"], v["status"], v["note"]) == ("lc", "down", status, note)
    assert v["witness"]["kind"] == "triplet" and v["margin"] == v["witness"]["margin"] < 0


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


def test_text_renders_a_list_as_its_cells_joined_by_commas(capsys):
    _, check, _ = run_cli(capsys, "check", "--family", "poisson", "--nu1", "1", "--nu2", "3",
                          "--format", "text", "--no-timing")
    assert "\n  orders: lr,lc,st,hr\n" in check
    _, path, _ = run_cli(capsys, "path", "--name", "interpolation:n=5,r=1,s=10,p=0.5",
                         "--format", "text", "--no-timing")
    assert "\n  c_values: 0,1,10,100\n" in path


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


# ---------------------------------------------------------------------------
# cold start: a command loads only the modules it runs, and neither scipy nor
# statistics

_SRC = Path(__file__).resolve().parents[1] / "src"

# runs `imports`, then `cli.main` on its arguments when there are any, and
# writes to stderr the repr of a dict: which of scipy and statistics were
# loaded, and every stochorder module loaded
_COLD_START = """
import sys
{imports}
code = stochorder.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
sys.stderr.write(repr({{
    "loaded": [m for m in ("scipy", "statistics") if m in sys.modules],
    "stochorder": sorted(m for m in sys.modules if m.split(".")[0] == "stochorder"),
}}))
sys.exit(code)
"""


def cold_start(*argv, imports="import stochorder\nimport stochorder.cli"):
    path = os.pathsep.join(filter(None, [str(_SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", _COLD_START.format(imports=imports), *argv],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})


def cold_loads(run) -> dict:
    """What a `cold_start` run loaded; its stderr holds nothing else."""
    return ast.literal_eval(run.stderr)


def test_importing_the_package_leaves_scipy_unloaded():
    run = cold_start()
    assert (run.returncode, run.stdout, cold_loads(run)["loaded"]) == (0, "", [])


def test_importing_the_package_loads_no_submodule():
    run = cold_start(imports="import stochorder")
    assert (run.returncode, cold_loads(run)["stochorder"]) == (0, ["stochorder"])


# the modules `import stochorder.cli` loads, which every command reads
CLI_MODULES = ["stochorder", "stochorder.catalog", "stochorder.cli", "stochorder.criteria",
               "stochorder.oracle", "stochorder.special", "stochorder.verdicts"]


@pytest.mark.parametrize(
    "argv, more",
    [
        ([], []),
        (["check", "--family", "poisson", "--nu1=1", "--nu2=2", "--orders", "lr"], []),
        (["check", "--family", "gamma-in-shape", "--nu1=1.5", "--nu2=3", "--format", "csv"], []),
        (["table", "--id", "table1"], []),
        (["pairwise", "--p", "binomial:n=10,p=0.3", "--q", "poisson:lambda=4"], ["pairwise"]),
        (["table", "--id", "katz"], ["pairwise"]),
        (["path", "--name", "negbinomial:r1=1,r2=2,q1=0.3,q2=0.4", "--order", "lr"],
         ["pairwise"]),
        (["path", "--name", "interpolation:n=5,r=1,s=10,p=0.5"], ["pairwise"]),
        (["compound", "--counting", "poisson", "--summand", "delta:j=1",
          "--nu1", "1", "--nu2", "2"], ["compound"]),
        (["table", "--id", "table2"], ["compound"]),
    ],
    ids=["import", "check-poisson", "check-csv", "table-table1", "pairwise", "table-katz",
         "path-negbinomial", "path-interpolation", "compound", "table-table2"],
)
def test_each_command_loads_only_the_stochorder_modules_it_runs(argv, more):
    # a ratchet: a module that a command does not run must not load with it
    run = cold_start(*argv, *(["--no-timing"] if argv else []))
    assert run.returncode in (0, 1)
    assert cold_loads(run)["stochorder"] == sorted(CLI_MODULES + [f"stochorder.{m}" for m in more])


def test_star_import_binds_every_export_in_a_cold_package():
    run = cold_start(imports="\n".join([
        "from stochorder import *",
        "import stochorder",
        "print(len(stochorder.__all__), [n for n in stochorder.__all__"
        " if globals()[n] is not getattr(stochorder, n)])",
    ]))
    assert (run.returncode, run.stdout) == (0, "66 []\n")
    assert "stochorder.cli" not in cold_loads(run)["stochorder"]


def _eager_log_factorials() -> np.ndarray:
    """log k! for k <= 10 000 by the one Kahan loop that once built the whole
    table when `special` was imported."""
    table = np.empty(10_001)
    table[0] = 0.0
    total = 0.0
    comp = 0.0
    for k in range(1, 10_001):
        term = math.log(k) - comp
        new_total = total + term
        comp = (new_total - total) - term
        total = new_total
        table[k] = total
    return table


EAGER_LOG_FACTORIALS = _eager_log_factorials()


@given(st.lists(st.tuples(st.integers(0, 12_000), st.booleans()), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_the_log_factorial_table_grown_on_demand_has_the_eager_bits(calls):
    # each (k, vector) grows the table from its saved Kahan state, through
    # the array form or the scalar one
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(special, "_log_fact", (np.zeros(1), 0.0, 0.0))
        for k, vector in calls:
            got = special.log_factorial_vec(np.array([k]))[0] if vector else special.log_factorial(k)
            want = EAGER_LOG_FACTORIALS[k] if k <= 10_000 else math.lgamma(k + 1.0)
            assert got.hex() == float(want).hex(), k
            table = special._log_fact[0]
            assert table.tobytes() == EAGER_LOG_FACTORIALS[: table.size].tobytes()
        whole = special.log_factorial_vec(np.arange(10_001))
        assert whole.tobytes() == EAGER_LOG_FACTORIALS.tobytes()


def test_the_package_exports_each_module_list_once():
    modules = [stochorder.catalog, stochorder.compound, stochorder.criteria, stochorder.oracle,
               stochorder.pairwise, stochorder.verdicts]
    assert stochorder.__all__ == [name for m in modules for name in m.__all__]
    assert len(set(stochorder.__all__)) == len(stochorder.__all__)
    for m in modules:
        for name in m.__all__:
            assert getattr(stochorder, name) is getattr(m, name), name


# one command per kind of grid span: discrete, each continuous Table-1 row
# and the mixed one, and the gamma path
NO_SCIPY = {
    "check-poisson": ["check", "--family", "poisson", "--nu1=1", "--nu2=2", "--orders", "lr"],
    "pairwise": ["pairwise", "--p", "binomial:n=10,p=0.3", "--q", "poisson:lambda=4"],
    "compound": ["compound", "--counting", "poisson", "--summand", "delta:j=1",
                 "--nu1", "1", "--nu2", "2"],
    "table-katz": ["table", "--id", "katz"],
    "path-negbinomial": ["path", "--name", "negbinomial:r1=1,r2=2,q1=0.3,q2=0.4", "--order", "lr"],
    "check-gamma": ["check", "--family", "gamma-in-shape", "--nu1=1.5", "--nu2=3"],
    "check-beta": ["check", "--family", "beta-in-alpha", "--nu1=1.5", "--nu2=3"],
    "check-half-student": ["check", "--family", "half-student-in-df", "--nu1=2", "--nu2=5"],
    "check-halfnormal": ["check", "--family", "halfnormal-in-scale", "--nu1=0.8", "--nu2=1.6"],
    "check-gamma-in-rate": ["check", "--family", "gamma-in-rate", "--nu1=0.8", "--nu2=1.6"],
    "check-exponential": ["check", "--family", "exponential-in-rate", "--nu1=0.8", "--nu2=1.6"],
    "check-weibull": ["check", "--family", "weibull-in-rate", "--nu1=0.8", "--nu2=1.6"],
    "check-beta-in-beta": ["check", "--family", "beta-in-beta", "--nu1=1.5", "--nu2=3"],
    "check-pareto": ["check", "--family", "pareto-in-shape", "--nu1=1.5", "--nu2=3"],
    "check-lognormal": ["check", "--family", "lognormal-in-mu:sigma=0.5", "--nu1=0", "--nu2=0.8"],
    "check-gumbel": ["check", "--family", "gumbel-in-location", "--nu1=0", "--nu2=0.8"],
    "check-zero-inflated-exponential": ["check", "--family", "zero-inflated-exponential",
                                        "--nu1=1", "--nu2=2"],
    "path-gamma": ["path", "--name", "gamma:r1=1,r2=2,rho1=2,rho2=1", "--order", "st"],
    "table-table1": ["table", "--id", "table1"],
}


@pytest.mark.parametrize("argv", NO_SCIPY.values(), ids=NO_SCIPY.keys())
def test_scipy_is_loaded_only_where_a_grid_span_needs_an_inverse_cdf(capsys, argv):
    # no grid span needs one: the continuous laws solve tail bounds with
    # `math`, so no command loads scipy or statistics
    run = cold_start(*argv, "--no-timing")
    assert cold_loads(run)["loaded"] == []
    code, out, _ = run_cli(capsys, *argv, "--no-timing")
    assert (run.returncode, run.stdout) == (code, out)


# ---------------------------------------------------------------------------
# help and usage bytes at 80 columns, and one process running many commands

HELP = {
    "": """\
usage: stochorder [-h] {check,pairwise,compound,table,path} ...

Stochastic-order checks: kernel criteria, brute oracles, closed-form
thresholds, and table reproductions.

positional arguments:
  {check,pairwise,compound,table,path}
    check               scan one family's kernel criteria plus endpoint oracle
    pairwise            compare two concrete laws (claim: p below q)
    compound            lr direction of a random sum in the counting parameter
    table               reproduce a reference table and diff against its
                        golden file
    path                order along a named multi-parameter path

options:
  -h, --help            show this help message and exit
""",
    "check": """\
usage: stochorder check [-h] --family FAMILY --nu1 NU1 --nu2 NU2
                        [--orders ORDERS] [--kmax KMAX] [--tail-eps TAIL_EPS]
                        [--tol-shape TOL_SHAPE] [--tol-tail TOL_TAIL]
                        [--nu-grid NU_GRID] [--grid-points GRID_POINTS]
                        [--format {json,csv,text}] [--out OUT] [--no-timing]

options:
  -h, --help            show this help message and exit
  --family FAMILY       family spec, name[:key=val,...]
  --nu1 NU1
  --nu2 NU2
  --orders ORDERS
  --kmax KMAX
  --tail-eps TAIL_EPS
  --tol-shape TOL_SHAPE
  --tol-tail TOL_TAIL
  --nu-grid NU_GRID     comma-separated scan values overriding the default
  --grid-points GRID_POINTS
  --format {json,csv,text}
                        report rendering (default json)
  --out OUT             write the report to a file instead of stdout
  --no-timing           report runtime_ms as 0 for byte-stable output
""",
    "pairwise": """\
usage: stochorder pairwise [-h] --p P --q Q [--orders ORDERS] [--kmax KMAX]
                           [--tail-eps TAIL_EPS] [--tol-shape TOL_SHAPE]
                           [--format {json,csv,text}] [--out OUT]
                           [--no-timing]

options:
  -h, --help            show this help message and exit
  --p P                 law spec for the dominated side
  --q Q                 law spec for the dominating side
  --orders ORDERS
  --kmax KMAX
  --tail-eps TAIL_EPS
  --tol-shape TOL_SHAPE
  --format {json,csv,text}
                        report rendering (default json)
  --out OUT             write the report to a file instead of stdout
  --no-timing           report runtime_ms as 0 for byte-stable output
""",
    "compound": """\
usage: stochorder compound [-h] --counting COUNTING --summand SUMMAND --nu1
                           NU1 --nu2 NU2 [--nu-points NU_POINTS]
                           [--tol-shape TOL_SHAPE] [--format {json,csv,text}]
                           [--out OUT] [--no-timing]

options:
  -h, --help            show this help message and exit
  --counting COUNTING
  --summand SUMMAND
  --nu1 NU1
  --nu2 NU2
  --nu-points NU_POINTS
  --tol-shape TOL_SHAPE
  --format {json,csv,text}
                        report rendering (default json)
  --out OUT             write the report to a file instead of stdout
  --no-timing           report runtime_ms as 0 for byte-stable output
""",
    "table": """\
usage: stochorder table [-h] --id {katz,table1,table2}
                        [--format {json,csv,text}] [--out OUT] [--no-timing]

options:
  -h, --help            show this help message and exit
  --id {katz,table1,table2}
  --format {json,csv,text}
                        report rendering (default json)
  --out OUT             write the report to a file instead of stdout
  --no-timing           report runtime_ms as 0 for byte-stable output
""",
    "path": """\
usage: stochorder path [-h] --name NAME [--order ORDER] [--t-points T_POINTS]
                       [--kmax KMAX] [--grid-points GRID_POINTS]
                       [--tol-shape TOL_SHAPE] [--tol-tail TOL_TAIL]
                       [--format {json,csv,text}] [--out OUT] [--no-timing]

options:
  -h, --help            show this help message and exit
  --name NAME           path spec:
                        negbinomial/betabinomial/gamma/interpolation with
                        key=val params
  --order ORDER
  --t-points T_POINTS
  --kmax KMAX
  --grid-points GRID_POINTS
  --tol-shape TOL_SHAPE
  --tol-tail TOL_TAIL
  --format {json,csv,text}
                        report rendering (default json)
  --out OUT             write the report to a file instead of stdout
  --no-timing           report runtime_ms as 0 for byte-stable output
""",
}


@pytest.mark.parametrize("command", list(HELP), ids=lambda c: c or "stochorder")
def test_help_bytes_are_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    argv = [command, "--help"] if command else ["--help"]
    assert run_cli(capsys, *argv) == (0, HELP[command], "")


USAGE_ERRORS = [
    ("", [], "the following arguments are required: command"),
    ("", ["nope"], "argument command: invalid choice: 'nope' "
                   "(choose from 'check', 'pairwise', 'compound', 'table', 'path')"),
    ("check", ["--kmax", "1"], "argument --kmax: '1' is not an integer in [2, 100000]"),
    ("pairwise", ["--p", "poisson:lambda=1"], "the following arguments are required: --q"),
    ("compound", ["--counting", "poisson", "--summand", "delta:j=1", "--nu1", "1", "--nu2", "2",
                  "--tol-shape=-1"], "argument --tol-shape: '-1' is not a finite number >= 0"),
    ("table", ["--id", "nope"],
     "argument --id: invalid choice: 'nope' (choose from 'katz', 'table1', 'table2')"),
    ("path", [], "the following arguments are required: --name"),
]


@pytest.mark.parametrize("command, argv, message", USAGE_ERRORS,
                         ids=["no-command", "unknown-command", "check", "pairwise", "compound",
                              "table", "path"])
def test_usage_error_bytes_are_pinned(capsys, monkeypatch, command, argv, message):
    monkeypatch.setenv("COLUMNS", "80")
    usage = HELP[command].split("\n\n")[0]  # a help text opens with its usage block
    prog = f"stochorder {command}".strip()
    argv = [command, *argv] if command else argv
    assert run_cli(capsys, *argv) == (2, "", f"{usage}\n{prog}: error: {message}\n")


def fresh(*argv, **env):
    """Run one command in a new interpreter, with `env` added to the
    environment: (exit code, stdout, stderr)."""
    path = os.pathsep.join(filter(None, [str(_SRC), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-m", "stochorder", *argv], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": path, **env})
    return run.returncode, run.stdout, run.stderr


def test_report_bytes_do_not_depend_on_the_blas_thread_count():
    # OpenBLAS splits a dot product over 20 000 points across its threads,
    # which changes the order of its sum; no report reads one
    argv = ["check", "--family", "gamma-in-rate", "--nu1=0.8", "--nu2=1.6",
            "--grid-points=20000", "--no-timing"]
    one, two = (fresh(*argv, OPENBLAS_NUM_THREADS=n) for n in ("1", "2"))
    assert one[0] == 0 and one == two


def test_one_process_runs_each_command_as_a_fresh_interpreter_does(capsys, monkeypatch, tmp_path):
    pairwise = ["pairwise", "--p", "poisson:lambda=1", "--q", "poisson:lambda=2", "--orders",
                "lr,st", "--no-timing"]
    target = tmp_path / "report.txt"
    steps = [
        (["check", "--kmax", "1"], "80"),
        (pairwise, "80"),
        (["check", "--help"], "80"),
        (pairwise, "80"),
        ([*pairwise, "--format", "text", "--out", str(target)], "80"),
        (pairwise, "80"),
        (["--help"], "60"),
        (["--help"], "120"),
    ]
    for argv, columns in steps:
        monkeypatch.setenv("COLUMNS", columns)
        in_process = run_cli(capsys, *argv)
        written = target.read_text(encoding="utf-8") if "--out" in argv else None
        assert in_process == fresh(*argv), argv
        if written is not None:
            assert written.startswith("command: pairwise\n")
            assert target.read_text(encoding="utf-8") == written
    assert json.loads(run_cli(capsys, *pairwise)[1])["command"] == "pairwise"
    assert run_cli(capsys, "--help")[1] != HELP[""]  # the width is read at print time
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize("target", ["{tmp}/missing/report.json", "{tmp}", ""],
                         ids=["missing-dir", "a-dir", "empty"])
def test_out_that_cannot_be_written_exits_two(capsys, tmp_path, target):
    path = target.format(tmp=tmp_path)
    code, out, err = run_cli(capsys, "check", "--family", "poisson", "--nu1=1", "--nu2=2",
                             "--orders", "lr", "--out", path)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: --out {path!r}: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# verdicts that do not depend on the SIMD kernels numpy dispatches to

# a 20 000-point zero-inflated exponential, whose st and hr tests run a tail
# pass at every nu; a half-student pass whose lr down test fails; and the
# first wide-grid gumbel pass at seed 7, whose margins move under dispatch
DISPATCHED = [
    ["check", "--family", "zero-inflated-exponential", "--nu1=1", "--nu2=2",
     "--grid-points=20000"],
    ["check", "--family", "half-student-in-df", "--nu1=2.1374", "--nu2=5.20156",
     "--grid-points=21929"],
    ["check", "--family", "gumbel-in-location", "--nu1=0.0473185", "--nu2=0.745325",
     "--grid-points=17184",
     "--nu-grid=" + ",".join(f"{0.0473185 + 0.010418 * i:.6g}" for i in range(68))],
]
WITHOUT_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"


def _decided(code, out):
    """A report's exit code and, per verdict, its test, route, status and
    witness point, parameter and kind: all of it but the margins."""
    return code, [
        (v["order"], v["direction"], v["method"], v["status"],
         v["witness"] and (v["witness"]["x"], v["witness"]["nu"], v["witness"]["kind"]))
        for v in json.loads(out)["verdicts"]
    ]


@pytest.mark.parametrize("argv", DISPATCHED, ids=lambda argv: argv[2])
def test_statuses_witnesses_and_exit_codes_do_not_depend_on_avx512_dispatch(argv):
    """Each command, run in a fresh interpreter with numpy's AVX-512 kernels
    on and off, decides the same statuses at the same witnesses and exits
    the same; only margins may move (ROADMAP item 24). numpy reads the
    setting at import. On a host without AVX-512 both runs dispatch to the
    same kernels, so there this passes trivially."""
    on = fresh(*argv, "--no-timing", NPY_DISABLE_CPU_FEATURES="")
    off = fresh(*argv, "--no-timing", NPY_DISABLE_CPU_FEATURES=WITHOUT_AVX512)
    assert on[2] == "" and off[2] == ""
    assert _decided(*on[:2]) == _decided(*off[:2])


def test_no_block_of_scanned_values_passes_the_heap_that_main_keeps(monkeypatch, capsys):
    # a block reads at most _BLOCK_ELEMENTS points in one call; its float
    # arrays, and a tail-cut window with the last point read before it, stay
    # below the 1 MiB array that main frees first, so they reuse heap pages
    assert 2 * catalog._BLOCK_ELEMENTS * np.dtype(float).itemsize <= cli._HEAP_KEPT
    sizes = []
    kernel_init, tail_cut = criteria._Kernel.__init__, catalog._tail_cut

    def counted_kernel(self, grid, k):
        sizes.append(k.nbytes)
        kernel_init(self, grid, k)

    def counted_cut(log_pmf, *args):
        def counted(rows, ks):
            out = np.asarray(log_pmf(rows, ks))
            sizes.append(out.nbytes)
            return out
        return tail_cut(counted, *args)

    monkeypatch.setattr(criteria._Kernel, "__init__", counted_kernel)
    monkeypatch.setattr(catalog, "_tail_cut", counted_cut)
    nu_grid = ",".join(repr(float(nu)) for nu in np.linspace(1.0, 2.0, 65))
    for argv in (
        ["--family", "negbinomial-in-shape", "--nu1=1", "--nu2=2000"],
        ["--family", "zero-inflated-exponential", "--nu1=1", "--nu2=2", f"--nu-grid={nu_grid}",
         "--grid-points=12000"],
        ["--family", "half-student-in-df", "--nu1=1", "--nu2=2", f"--nu-grid={nu_grid}"],
    ):
        assert cli.main(["check", *argv, "--no-timing"]) in (0, 1)
    capsys.readouterr()
    # two rows of the 12 001-point grid were read as one block
    assert 2 * 12_001 * 8 <= max(sizes) <= catalog._BLOCK_ELEMENTS * 8
