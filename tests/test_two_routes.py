"""The two-route ratchet: every verdict a command prints is reconciled, its
note carrying `endpoint oracle <status>`, or is a known single-route verdict;
and every command but `table` takes its exit code from all the verdicts it
prints, by both routes.

The paper's rule is that a verdict comes from two routes, the kernel
criterion and the oracle on the two laws. `SINGLE_ROUTE` names each kind of
verdict that is still reached by one route, keyed by (command, method), with
the ROADMAP item that gives it a second one. It may only shrink: an entry
that no verdict needs any more fails the test, as in `test_exports.KEEP`.

The two routes share no code: read from the syntax trees, `oracle.py` takes
nothing from the package but `catalog.Distribution` and `verdicts`, and
neither `oracle.py` nor `criteria.py` imports the other.
"""

import ast
import json
import re
from pathlib import Path

import pytest

from stochorder import cli
from stochorder.cli import main

# (command, method) -> why the verdict has one route, and the item that mends it
SINGLE_ROUTE: dict[tuple[str, str], str] = {
    ("check", "kernel-criterion"): "items 2 and 16: the kernel rows are listed beside the "
                                   "oracle's, not reconciled into one verdict",
    ("check", "oracle"): "items 2 and 16: the endpoint oracle rows are listed beside the "
                         "kernel's, not reconciled into one verdict",
    ("check (reflexive)", "oracle"): "a law against itself has no kernel test",
    ("table1", "kernel-criterion"): "item 16: the Table-1 builder runs no oracle",
    ("pairwise", "oracle"): "item 15: pairwise st and hr come from the oracle alone",
    ("katz", "oracle"): "none needed: the katz closed-form conditions are the second route",
}

COMMANDS = [
    *(("check", ["check", "--family", spec, f"--nu1={lo!r}", f"--nu2={hi!r}"])
      for spec, (lo, hi), *_ in cli._TABLE1),
    ("check (reflexive)", ["check", "--family", "poisson", "--nu1=2", "--nu2=2"]),
    ("pairwise", ["pairwise", "--p", "poisson:lambda=2", "--q", "negbinomial:r=3,p=0.5"]),
    ("compound", ["compound", "--counting", "poisson", "--summand", "geometric:p=0.5",
                  "--nu1=1", "--nu2=2"]),
    *(("path", ["path", "--name", "negbinomial:r1=1,r2=2,q1=0.3,q2=0.4", "--order", o])
      for o in ("lr", "lc", "st", "hr")),
    ("path", ["path", "--name", "interpolation:n=5,r=1,s=10,p=0.5"]),
    *((t, ["table", "--id", t]) for t in ("table1", "table2", "katz")),
]

RECONCILED = re.compile(r"endpoint oracle (holds|fails)")


def test_every_verdict_is_reconciled_or_a_listed_single_route(capsys):
    unlisted, used = [], set()
    for kind, argv in COMMANDS:
        main([*argv, "--no-timing"])
        out, _ = capsys.readouterr()
        for v in json.loads(out)["verdicts"]:
            if RECONCILED.search(v["note"]):
                continue
            key = (kind, v["method"])
            if key in SINGLE_ROUTE:
                used.add(key)
            else:
                unlisted.append((*key, v["order"], v["direction"], " ".join(argv)))
    assert unlisted == []
    # the allow-list holds single-route verdicts that still occur, no more
    assert sorted(set(SINGLE_ROUTE) - used) == []


def _claimed(verdicts: list[dict]) -> int:
    """The exit rule, written out apart from `cli`: 0 when every printed
    order has a direction all of whose printed verdicts hold, else 1."""
    statuses: dict[tuple[str, str], set[str]] = {}
    for v in verdicts:
        statuses.setdefault((v["order"], v["direction"]), set()).add(v["status"])
    orders = {order for order, _ in statuses}
    held = {order for (order, _), seen in statuses.items() if seen == {"holds"}}
    return 0 if held == orders else 1


@pytest.mark.parametrize("argv", [argv for _, argv in COMMANDS if argv[0] != "table"],
                         ids=" ".join)
def test_the_exit_code_reads_every_printed_verdict(capsys, argv):
    code = main([*argv, "--no-timing"])
    out, _ = capsys.readouterr()
    assert code == _claimed(json.loads(out)["verdicts"])


# kernel rows that hold both ways at a loose tolerance, beside oracle rows
# that fail both ways: no direction holds by both routes
@pytest.mark.parametrize("argv", [
    ["check", "--family", "zero-inflated-poisson", "--nu1=3", "--nu2=5", "--orders", "lr",
     "--tol-shape=1e6"],
    ["check", "--family", "half-student-in-df", "--nu1=3", "--nu2=5", "--orders", "lr,lc",
     "--tol-shape=1e6"],
], ids=" ".join)
def test_a_check_whose_routes_disagree_exits_one(capsys, argv):
    code = main([*argv, "--no-timing"])
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    by_route = {(v["method"], v["status"]) for v in verdicts}
    assert by_route == {("kernel-criterion", "holds"), ("oracle", "fails")}
    assert code == 1


SRC = Path(__file__).resolve().parents[1] / "src" / "stochorder"


def _package_imports(module: str) -> dict[str, set[str]]:
    """The package's modules that `module` imports anywhere in its file, each
    with the names taken from it; "*" stands for the module itself."""
    found: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            path = (node.module or "").split(".")
            if node.level == 0:
                if path[0] != "stochorder":
                    continue
                path = path[1:]  # the submodule, after "stochorder."
            if path and path[0]:
                found.setdefault(path[0], set()).update(a.name for a in node.names)
            else:  # `from . import m` or `from stochorder import m`
                for alias in node.names:
                    found.setdefault(alias.name, set()).add("*")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                path = alias.name.split(".")
                if path[0] == "stochorder":
                    found.setdefault(path[1] if len(path) > 1 else "", set()).add("*")
    return found


def test_the_oracle_and_the_criteria_share_no_code():
    oracle, criteria = _package_imports("oracle"), _package_imports("criteria")
    assert sorted(oracle) == ["catalog", "verdicts"]
    assert oracle["catalog"] == {"Distribution"}
    assert "criteria" not in oracle and "oracle" not in criteria
