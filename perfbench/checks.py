"""Correctness invariants for one CLI command's exit code and report.

The checks are invariants that any correct version of the program keeps, not
frozen output digests, so correctness fixes do not break the benchmark:

- the exit code is 0 or 1 and the JSON report parses with the documented
  key order;
- `check`: every kernel-criterion `holds` for an (order, direction) is
  matched by an endpoint-oracle `holds` for the same order and direction;
- `check`: the lr direction expected from the kernel-sign column of Table 1
  is among the holding directions;
- `table`: the golden file matches and the table is verified;
- `pairwise` Katz cells: the closed-form thresholds agree with the lr and st
  statuses;
- `compound`: the lr direction equals the Table-2 direction of the counting
  law;
- interpolation `path`: the status follows the threshold condition
  p >= (r+n-1)/(r+s+n-1).
"""

from __future__ import annotations

import json
from typing import Callable, Mapping

REPORT_KEYS = ("command", "inputs", "verdicts", "tolerances", "runtime_ms")
TABLE_REPORT_KEYS = ("command", "inputs", "table", "golden", "verdicts", "tolerances", "runtime_ms")
VERDICT_KEYS = (
    "order", "direction", "status", "method", "claim", "margin", "witness", "tolerances", "note",
)

# kernel slope sign in Table 1 -> lr directions that must hold
_SLOPE_DIRECTIONS = {"+": ("up",), "-": ("down",), "0": ("up", "down"), "mixed": ()}

_KATZ_PAIRS = {
    ("binomial", "poisson"): "bin-poi",
    ("binomial", "negbinomial"): "bin-nb",
    ("poisson", "negbinomial"): "poi-nb",
}


def parse_spec(text: str) -> tuple[str, dict[str, float]]:
    """`name[:key=val,...]` as (name, params)."""
    name, _, rest = text.partition(":")
    params = {}
    for token in filter(None, rest.split(",")):
        key, _, val = token.partition("=")
        params[key.strip()] = float(val)
    return name.strip(), params


def _option(argv: list[str], flag: str, default: str | None = None) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else default


class Checker:
    """Checks command outputs against the invariants above.

    table1_slopes maps a catalogue family name to its Table-1 kernel slope
    sign, table2_directions a counting-law name to its compound lr
    direction, and katz_threshold is the program's closed-form Katz test.
    """

    def __init__(
        self,
        table1_slopes: Mapping[str, str],
        table2_directions: Mapping[str, str],
        katz_threshold: Callable[[str, Mapping[str, float]], Mapping[str, bool]],
    ) -> None:
        self.table1_slopes = dict(table1_slopes)
        self.table2_directions = dict(table2_directions)
        self.katz_threshold = katz_threshold

    @classmethod
    def from_program(cls) -> "Checker":
        """Read the expectations from the imported program."""
        from stochorder import cli, compound, pairwise

        return cls(
            {row[0]: row[2] for row in cli._TABLE1},
            {row[0]: row[2] for row in compound.TABLE2_ROWS},
            pairwise.katz_threshold,
        )

    def problems(self, argv: list[str], code: int, stdout: str) -> list[str]:
        """Every invariant the command broke; empty when its output is correct."""
        if code not in (0, 1):
            return [f"exit code {code}"]
        try:
            report = json.loads(stdout)
        except ValueError as exc:
            return [f"report is not JSON: {exc}"]
        expected = TABLE_REPORT_KEYS if argv[0] == "table" else REPORT_KEYS
        if tuple(report) != expected:
            return [f"report keys {tuple(report)} != {expected}"]
        if report["command"] != argv[0]:
            return [f"report command {report['command']!r} != {argv[0]!r}"]
        out = [
            f"verdict {i} keys {tuple(v)}"
            for i, v in enumerate(report["verdicts"])
            if tuple(v) != VERDICT_KEYS
        ]
        if out:
            return out
        by_command = {
            "check": self._check,
            "table": self._table,
            "pairwise": self._pairwise,
            "compound": self._compound,
            "path": self._path,
        }
        return by_command[argv[0]](argv, report)

    def _check(self, argv, report) -> list[str]:
        kernel, oracle = set(), set()
        for v in report["verdicts"]:
            if v["status"] != "holds":
                continue
            key = (v["order"], v["direction"])
            if v["method"] == "kernel-criterion":
                kernel.add(key)
            elif v["method"] == "oracle":
                oracle.add(key)
        out = [
            f"kernel criterion holds for {o} {d} but the endpoint oracle does not"
            for o, d in sorted(kernel - oracle)
        ]
        family, _ = parse_spec(_option(argv, "--family"))
        orders = _option(argv, "--orders", "lr,lc,st,hr").split(",")
        slope = self.table1_slopes.get(family)
        if slope is not None and "lr" in orders:
            for direction in _SLOPE_DIRECTIONS[slope]:
                if ("lr", direction) not in kernel:
                    out.append(f"Table-1 slope {slope!r} expects lr {direction} to hold")
        return out

    def _table(self, argv, report) -> list[str]:
        out = []
        if report["golden"]["matches"] is not True:
            out.append(f"table {report['table']['id']} does not match its golden file")
        if report["table"]["verified"] is not True:
            out.append(f"table {report['table']['id']} is not verified")
        return out

    def _pairwise(self, argv, report) -> list[str]:
        p_name, p = parse_spec(_option(argv, "--p"))
        q_name, q = parse_spec(_option(argv, "--q"))
        pair = _KATZ_PAIRS.get((p_name, q_name))
        if pair is None:
            return []
        if pair == "bin-poi":
            params = {"n": p["n"], "p": p["p"], "lambda": q["lambda"]}
        elif pair == "bin-nb":
            params = {"n": p["n"], "p": p["p"], "r": q["r"], "pi": q["p"]}
        else:
            params = {"lambda": p["lambda"], "r": q["r"], "p": q["p"]}
        conditions = self.katz_threshold(pair, params)
        out = []
        for v in report["verdicts"]:
            if v["order"] in ("lr", "st"):
                expected = "holds" if conditions[f"{v['order']}_condition"] else "fails"
                if v["status"] != expected:
                    out.append(f"katz {pair} {v['order']}: status {v['status']}, "
                               f"threshold says {expected}")
        return out

    def _compound(self, argv, report) -> list[str]:
        name, _ = parse_spec(_option(argv, "--counting"))
        expected = self.table2_directions.get(name)
        got = report["verdicts"][0]["direction"]
        if expected is not None and got != expected:
            return [f"compound {name}: direction {got}, Table 2 says {expected}"]
        return []

    def _path(self, argv, report) -> list[str]:
        name, ps = parse_spec(_option(argv, "--name"))
        if name != "interpolation":
            return []
        n, r, s, p = ps["n"], ps["r"], ps["s"], ps["p"]
        expected = "holds" if p >= (r + n - 1.0) / (r + s + n - 1.0) else "fails"
        got = report["verdicts"][0]["status"]
        if got != expected:
            return [f"interpolation: status {got}, threshold condition says {expected}"]
        return []
