"""Command-line front end: order checks, pairwise and compound comparisons,
parameter paths, and machine-readable table reproductions with golden diffs.

Every subcommand emits one report:

    {"command", "inputs", "verdicts", "tolerances", "runtime_ms"}

(the table subcommand adds "table" and "golden" blocks). JSON output is
deterministic: fixed key order, floats at 17 significant digits, inf/nan as
strings; --no-timing zeroes runtime_ms so identical invocations are
byte-identical. Exit status, read off the printed verdicts by `_exit_code`:
0 when every requested order holds in some direction, a direction holding
when every verdict printed for it holds, whichever route gave it; for table,
0 when the live verification passes and the golden file matches; 1
otherwise; 2 on malformed input, an in-domain value past the double range,
or an --out path that cannot be written (the diagnostic names the offending
token).
"""

from __future__ import annotations

import argparse
import functools
import io
import math
import re
import sys
import time
from dataclasses import replace
from importlib import resources
from json.encoder import encode_basestring_ascii

import numpy as np

from .catalog import (
    GRID_POINTS,
    MAX_GRID_POINTS,
    MAX_KMAX,
    PAIRWISE_KMAX,
    TAIL_CUT_EPS,
    TAIL_CUT_KMAX,
    continuous_grid,
    default_grid,
    density,
    family_from_spec,
    parse_spec,
)
from .criteria import NU_POINTS, TOL_SHAPE, TOL_TAIL, nu_scan, scan_orders
from .oracle import oracle_pair
from .verdicts import ORDERS, OrderVerdict, known

__all__ = ["main", "dumps"]


# ---------------------------------------------------------------------------
# deterministic serialization


def _float(x: float) -> str:
    """The float format of every output form: 17 significant digits, -0.0
    folded to 0 so load/dump cycles are stable, nan and inf quoted."""
    if math.isfinite(x):
        return f"{x:.17g}" if x else "0"
    if x != x:
        return '"nan"'
    return '"inf"' if x > 0 else '"-inf"'


def _scalar(x) -> str:
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return _float(x)
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    raise TypeError(f"cannot serialize {type(x).__name__}")


def dumps(obj) -> str:
    """Render a report as JSON with insertion key order and fixed float format."""
    out: list[str] = []
    _write(obj, out.append)
    return "".join(out)


def _write(o, put) -> None:
    """Pass o's JSON to `put` piece by piece. Inside a container, a value of
    exact type str or float is written in place; any other value, subclasses
    included, comes back here and, if not a container, goes to _scalar."""
    if isinstance(o, dict):
        sep = "{"
        for k, v in o.items():
            put(sep)
            sep = ", "
            put(encode_basestring_ascii(k if type(k) is str else str(k)))
            put(": ")
            t = type(v)
            if t is str:
                put(encode_basestring_ascii(v))
            elif t is float:
                put(_float(v))
            else:
                _write(v, put)
        put("{}" if sep == "{" else "}")
    elif isinstance(o, list):
        sep = "["
        for v in o:
            put(sep)
            sep = ", "
            t = type(v)
            if t is str:
                put(encode_basestring_ascii(v))
            elif t is float:
                put(_float(v))
            else:
                _write(v, put)
        put("[]" if sep == "[" else "]")
    else:
        put(_scalar(o))


def _cell(x) -> str:
    """CSV cell rendering with the same float format as the JSON output."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return _float(x).strip('"')  # JSON's format, -0 folded, nan/inf unquoted
    if isinstance(x, dict):
        return ";".join(f"{k}={_cell(v)}" for k, v in x.items())
    if isinstance(x, list):
        return ",".join(_cell(v) for v in x)
    return str(x)


_VERDICT_COLS = (
    "order", "direction", "status", "method", "margin",
    "witness_x", "witness_nu", "witness_margin", "witness_kind", "claim", "note",
)


def _verdict_row(v: dict) -> list[str]:
    w = v["witness"] or {}
    return [
        _cell(v["order"]), _cell(v["direction"]), _cell(v["status"]), _cell(v["method"]),
        _cell(v["margin"]), _cell(w.get("x")), _cell(w.get("nu")), _cell(w.get("margin")),
        _cell(w.get("kind")), _cell(v["claim"]), _cell(v["note"]),
    ]


def _to_csv(report: dict) -> str:
    import csv

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    table = report.get("table")
    if table is not None and table["rows"]:
        cols = list(table["rows"][0].keys())
        w.writerow(cols)
        for row in table["rows"]:
            w.writerow([_cell(row[c]) for c in cols])
    else:
        w.writerow(_VERDICT_COLS)
        for v in report["verdicts"]:
            w.writerow(_verdict_row(v))
    return buf.getvalue()


def _to_text(report: dict) -> str:
    lines = [f"command: {report['command']}"]
    for k, v in report["inputs"].items():
        lines.append(f"  {k}: {_cell(v)}")
    table = report.get("table")
    if table is not None and table["rows"]:
        cols = list(table["rows"][0].keys())
        widths = [max(len(c), *(len(_cell(r[c])) for r in table["rows"])) for c in cols]
        lines.append("  ".join(c.ljust(n) for c, n in zip(cols, widths)))
        for row in table["rows"]:
            lines.append("  ".join(_cell(row[c]).ljust(n) for c, n in zip(cols, widths)))
        g = report["golden"]
        lines.append(f"golden {g['file']}: {'match' if g['matches'] else 'MISMATCH'}")
        lines.append(f"live verification: {'ok' if report['table']['verified'] else 'FAILED'}")
    for v in report["verdicts"]:
        head = f"{v['order']} {v['direction']}: {v['status']} [{v['method']}]"
        if v["margin"] is not None:
            head += f" margin={_cell(v['margin'])}"
        lines.append(head)
        if v["claim"]:
            lines.append(f"    claim: {v['claim']}")
        if v["witness"]:
            w = v["witness"]
            nu = "" if w["nu"] is None else f", nu={_cell(w['nu'])}"
            lines.append(
                f"    witness: x={_cell(w['x'])}{nu}, margin={_cell(w['margin'])}, kind={w['kind']}"
            )
        if v["note"]:
            lines.append(f"    note: {v['note']}")
    lines.append(f"runtime_ms: {report['runtime_ms']}")
    return "\n".join(lines) + "\n"


def _emit(report: dict, fmt: str) -> str:
    if fmt == "json":
        return dumps(report) + "\n"
    if fmt == "csv":
        return _to_csv(report)
    return _to_text(report)


# ---------------------------------------------------------------------------
# shared plumbing


def _parse_orders(text: str) -> list[str]:
    orders: list[str] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        known("order", token, ORDERS)
        if token not in orders:
            orders.append(token)
    if not orders:
        raise ValueError(f"order list {text!r} is empty")
    return orders


def _parse_nu_list(text: str, lo: float, hi: float) -> list[float]:
    """The --nu-grid values; each must lie in the claimed range [lo, hi]."""
    out = []
    for token in text.split(","):
        token = token.strip()
        try:
            nu = float(token)
        except ValueError:
            raise ValueError(f"--nu-grid: non-numeric token {token!r}") from None
        if not lo <= nu <= hi:
            raise ValueError(f"--nu-grid: value {token!r} outside [{lo:g}, {hi:g}]")
        out.append(nu)
    return out


def _tolerance(text: str) -> float:
    """argparse type of the tolerance options: a finite number >= 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number >= 0")
    return value


# Size options: the least value that makes sense (three points for a second
# difference, two for a scan) and a ceiling far above every default and
# benchmark run, past which a command would allocate or scan without a
# useful bound: MAX_SCAN_POINTS for --nu-points and --t-points, and
# catalog.MAX_GRID_POINTS and catalog.MAX_KMAX for --grid-points and --kmax.
MAX_SCAN_POINTS = 10_000


def _size(least: int, ceiling: int):
    """argparse type of a size option: an integer in [least, ceiling]."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = least - 1
        if not least <= value <= ceiling:
            raise argparse.ArgumentTypeError(
                f"{text!r} is not an integer in [{least}, {ceiling}]"
            )
        return value

    return parse


def _report(command: str, inputs: dict, verdicts, tolerances: dict, **blocks) -> dict:
    """A command's report; `blocks` (table's "table" and "golden") follow "inputs"."""
    return {
        "command": command,
        "inputs": inputs,
        **blocks,
        "verdicts": [v.to_dict() for v in verdicts],
        "tolerances": tolerances,
        "runtime_ms": 0,
    }


def _exit_code(report: dict) -> int:
    """The one exit rule: 0 when the report's claim holds, else 1. Verdicts
    are grouped by (order, direction); a direction holds when every verdict
    printed for it holds, whichever route gave it, and the claim holds when
    every order holds in at least one direction. A table's claim is its live
    verification and golden match instead, as its katz rows list oracle
    failures that the closed forms predict."""
    if report["command"] == "table":
        return 0 if report["table"]["verified"] and report["golden"]["matches"] else 1
    printed = {(v["order"], v["direction"]) for v in report["verdicts"]}
    failed = {(v["order"], v["direction"]) for v in report["verdicts"] if v["status"] != "holds"}
    return 0 if {o for o, _ in printed} == {o for o, _ in printed - failed} else 1


def _note_joined(base: str, extra: str) -> str:
    return f"{base}; {extra}" if base else extra


# ---------------------------------------------------------------------------
# check


def _cmd_check(args) -> dict:
    fam = family_from_spec(args.family)
    orders = _parse_orders(args.orders)
    nu1, nu2 = float(args.nu1), float(args.nu2)
    for nu in (nu1, nu2):
        fam.validate_param(nu)
    tolerances = {
        "tol_shape": args.tol_shape,
        "tol_tail": args.tol_tail,
        "tail_eps": args.tail_eps,
        "kmax": args.kmax,
        "grid_points": args.grid_points,
    }
    inputs = {
        "family": args.family,
        "nu1": nu1,
        "nu2": nu2,
        "orders": orders,
        "nu_grid": args.nu_grid,
    }
    lo, hi = sorted((nu1, nu2))
    nu_list = _parse_nu_list(args.nu_grid, lo, hi) if args.nu_grid else None

    if nu1 == nu2:
        grid = default_grid(
            fam, [nu1], tail_eps=args.tail_eps, kmax=args.kmax, grid_points=args.grid_points
        )
        d = density(fam, nu1, grid)
        verdicts = [replace(v, claim=f"P[{fam.param_name}={nu1:g}] <={v.order} itself",
                            note=_note_joined(v.note, "identical parameter endpoints: reflexive"))
                    for v in oracle_pair(d, d, [(o, "up") for o in orders])]
        return _report("check", inputs, verdicts, tolerances)

    nus = sorted(nu_list) if nu_list else nu_scan(lo, hi)
    # cut for the endpoint laws too, which the oracle reads, whatever nus are scanned
    grid = default_grid(
        fam, sorted({lo, *nus, hi}), tail_eps=args.tail_eps, kmax=args.kmax,
        grid_points=args.grid_points,
    )
    d_lo = density(fam, lo, grid)
    d_hi = density(fam, hi, grid)
    tests = [(o, d) for o in orders for d in ("up", "down")]
    scans = scan_orders(
        fam, nus, grid, tests,
        tol_shape=args.tol_shape, tol_tail=args.tol_tail, known_laws={lo: d_lo, hi: d_hi},
    )
    p, ends = fam.param_name, {"up": (lo, hi), "down": (hi, lo)}
    endpoint = [replace(v, claim=f"P[{p}={ends[v.direction][0]:g}] <={v.order} "
                                 f"P[{p}={ends[v.direction][1]:g}] (endpoint pair)")
                for v in oracle_pair(d_lo, d_hi, tests)]
    pairs = range(0, len(tests), 2)  # per order: the two criterion verdicts, then the oracle's
    verdicts = [v for i in pairs for v in scans[i : i + 2] + endpoint[i : i + 2]]
    return _report("check", inputs, verdicts, tolerances)


# ---------------------------------------------------------------------------
# pairwise


def _cmd_pairwise(args) -> dict:
    from .pairwise import check_pairwise, law_from_spec

    p_law, q_law, orders = law_from_spec(args.p), law_from_spec(args.q), _parse_orders(args.orders)
    verdicts = check_pairwise(p_law, q_law, orders, args.kmax, args.tol_shape, args.tail_eps)
    tolerances = {"tol_shape": args.tol_shape, "tail_eps": args.tail_eps, "kmax": args.kmax}
    return _report("pairwise", {"p": args.p, "q": args.q, "orders": orders}, verdicts, tolerances)


# ---------------------------------------------------------------------------
# compound


def _cmd_compound(args) -> dict:
    from .compound import check_compound_lr, counting_from_spec, make_compound, summand_from_spec

    counting = counting_from_spec(args.counting)
    summand = summand_from_spec(args.summand)
    nu1, nu2 = float(args.nu1), float(args.nu2)
    if nu1 == nu2:
        raise ValueError(f"--nu1 and --nu2 are both {nu1:g}; the compound scan needs two "
                         "distinct values")
    model = make_compound(counting, summand, (nu1, nu2))
    v = check_compound_lr(model, nu1, nu2, nu_points=args.nu_points, tol_shape=args.tol_shape)
    tolerances = {"tol_shape": args.tol_shape, "nu_points": args.nu_points}
    inputs = {
        "counting": args.counting,
        "summand": args.summand,
        "nu1": nu1,
        "nu2": nu2,
        "k_max": model.k_max,
        "n_max": model.n_max,
    }
    return _report("compound", inputs, [v], tolerances)


# ---------------------------------------------------------------------------
# tables

# family spec, scanned nu endpoints, expected first/second-difference signs
# of the kernel in x, optional explicit grid (lo, hi, n) for heavy tails.
_TABLE1 = (
    ("poisson", (1.0, 3.0), "+", "0", None),
    ("geometric", (0.3, 0.6), "+", "0", None),
    ("negbinomial-in-q", (0.3, 0.6), "+", "0", None),
    ("negbinomial-in-shape", (1.5, 4.0), "+", "-", None),
    ("binomial-in-p", (0.2, 0.6), "+", "0", None),
    ("betabinomial-in-r", (1.0, 3.0), "+", "-", None),
    ("betabinomial-in-s", (1.0, 3.0), "-", "-", None),
    ("logseries", (0.3, 0.7), "+", "0", None),
    ("cmp-in-dispersion", (0.8, 1.6), "-", "-", None),
    ("zero-inflated-poisson", (3.0, 5.0), "mixed", "+", None),
    ("gamma-in-shape", (1.5, 3.0), "+", "-", None),
    ("gamma-in-rate", (0.8, 1.6), "-", "0", None),
    ("exponential-in-rate", (0.8, 1.6), "-", "0", None),
    ("weibull-in-rate", (0.8, 1.6), "-", "-", None),
    ("beta-in-alpha", (1.5, 3.0), "+", "-", None),
    ("beta-in-beta", (1.5, 3.0), "-", "-", None),
    ("pareto-in-shape", (1.5, 3.0), "-", "+", None),
    ("halfnormal-in-scale", (0.8, 1.6), "+", "+", None),
    ("lognormal-in-mu", (0.0, 0.8), "+", "-", None),
    ("gumbel-in-location", (0.0, 0.8), "+", "-", None),
    ("half-student-in-df", (2.0, 5.0), "mixed", "mixed", (0.0, 40.0, 4000)),
    ("zero-inflated-exponential", (1.0, 2.0), "mixed", "-", None),
)

_SLOPE_DIR = {"+": "up", "-": "down", "0": "both", "mixed": "none"}
_CURV_DIR = {"-": "down", "+": "up", "0": "both", "mixed": "none"}

# kernel sign of a slope or curvature column, from (up holds, down holds) of
# its order: lr up is a nondecreasing kernel, lc up a convex one
_SIGN = {(True, True): "0", (True, False): "+", (False, True): "-", (False, False): "mixed"}
_TABLE1_TESTS = [(o, d) for o in ("lr", "lc") for d in ("up", "down")]


def _build_table1() -> tuple[dict, list[OrderVerdict], bool]:
    rows, verdicts = [], []
    verified = True
    for spec, (lo, hi), slope_exp, curv_exp, grid_override in _TABLE1:
        fam = family_from_spec(spec)
        nus = (lo, 0.5 * (lo + hi), hi)
        if grid_override is None:
            grid = default_grid(fam, nus)
        else:
            g_lo, g_hi, g_n = grid_override
            grid = continuous_grid(g_lo, g_hi, n=g_n)
        scan = dict(zip(_TABLE1_TESTS, scan_orders(fam, nus, grid, _TABLE1_TESTS)))
        slope, curv = (_SIGN[scan[o, "up"].holds, scan[o, "down"].holds] for o in ("lr", "lc"))
        rows.append(
            {
                "family": fam.name,
                "kernel_slope_sign": slope,
                "kernel_curvature_sign": curv,
                "lr_direction": _SLOPE_DIR[slope],
                "lc_direction": _CURV_DIR[curv],
            }
        )
        verified = verified and slope == slope_exp and curv == curv_exp
        # the verdicts of the expected directions: lr's when it is one
        # direction, lc's in each direction its expected sign allows
        listed = [("lr", _SLOPE_DIR[slope_exp])] + [
            ("lc", d) for d in ("down", "up") if _CURV_DIR[curv_exp] in (d, "both")
        ]
        for v in (scan[t] for t in listed if t in scan):
            verdicts.append(v)
            verified = verified and v.holds
    return {"id": "table1", "rows": rows}, verdicts, verified


def _build_table2() -> tuple[dict, list[OrderVerdict], bool]:
    from .compound import (
        TABLE2_ROWS, check_compound_lr, geometric_summand, make_compound, make_counting,
    )

    rows, verdicts = [], []
    verified = True
    summand = geometric_summand(0.5)
    for name, sign_exp, direction_exp, (lo, hi) in TABLE2_ROWS:
        counting = make_counting(name)
        model = make_compound(counting, summand, (lo, hi))
        v = check_compound_lr(model, lo, hi)
        verdicts.append(v)
        # b(nu), the kernel's step in n, at the middle of the scan
        n0 = counting.support[0]
        g = counting.kernel(0.5 * (lo + hi), np.array([n0, n0 + 1.0]))
        sign = "+" if float(g[1] - g[0]) > 0 else "-"
        rows.append(
            {"counting": name, "slope_sign": sign, "direction": v.direction, "status": v.status}
        )
        verified = verified and sign == sign_exp and v.direction == direction_exp and v.holds
    return {"id": "table2", "rows": rows}, verdicts, verified


_KATZ_CELLS = (
    ("bin-poi", {"n": 10.0, "p": 0.05, "lambda": 0.6}),
    ("bin-poi", {"n": 10.0, "p": 0.5, "lambda": 2.0}),
    ("bin-nb", {"n": 10.0, "p": 0.05, "r": 5.0, "pi": 0.5}),
    ("bin-nb", {"n": 10.0, "p": 0.5, "r": 2.0, "pi": 0.5}),
    ("poi-nb", {"lambda": 0.5, "r": 2.0, "p": 0.5}),
    ("poi-nb", {"lambda": 2.0, "r": 2.0, "p": 0.5}),
)


def _build_katz() -> tuple[dict, list[OrderVerdict], bool]:
    from .pairwise import katz_laws, katz_threshold, law_distribution

    rows, verdicts = [], []
    verified = True
    for pair, params in _KATZ_CELLS:
        conds = katz_threshold(pair, params)
        p_law, q_law = katz_laws(pair, params)
        dp, dq = law_distribution(p_law), law_distribution(q_law)
        v_lr, v_st = (replace(v, claim=f"{p_law.describe()} <={v.order} {q_law.describe()}")
                      for v in oracle_pair(dp, dq, [("lr", "up"), ("st", "up")]))
        verdicts.extend([v_lr, v_st])
        rows.append(
            {
                "pair": pair,
                "params": dict(params),
                "lr_condition": conds["lr_condition"],
                "st_condition": conds["st_condition"],
                "oracle_lr": v_lr.status,
                "oracle_st": v_st.status,
            }
        )
        verified = (
            verified
            and conds["lr_condition"] == v_lr.holds
            and conds["st_condition"] == v_st.holds
        )
    return {"id": "katz", "rows": rows}, verdicts, verified


_TABLE_BUILDERS = {"table1": _build_table1, "table2": _build_table2, "katz": _build_katz}


def _golden_text(table_id: str) -> str | None:
    res = resources.files(__package__) / "golden" / "v1" / f"{table_id}.json"
    try:
        return res.read_text(encoding="utf-8")
    except (FileNotFoundError, OSError):
        return None


def _cmd_table(args) -> dict:
    payload, verdicts, verified = _TABLE_BUILDERS[args.id]()
    golden = _golden_text(args.id)
    return _report(
        "table", {"id": args.id}, verdicts, {"tol_shape": TOL_SHAPE},
        table={"id": args.id, "rows": payload["rows"], "verified": verified},
        golden={"file": f"golden/v1/{args.id}.json",
                "matches": golden is not None and golden == dumps(payload) + "\n",
                "note": "" if golden is not None else "golden file missing"},
    )


# ---------------------------------------------------------------------------
# paths


def _cmd_path(args) -> dict:
    from .pairwise import check_interpolation, check_path_order, path_family

    name, params = parse_spec(args.name)
    known("order", args.order, ORDERS)
    inputs = {"name": args.name, "order": args.order}
    if name == "interpolation":  # it scans fixed pseudo-sample weights and no tail
        if args.order != "lr":
            raise ValueError("the interpolation path reports the lr order only")
        v, path_inputs = check_interpolation(params, args.tol_shape)
        return _report("path", {**inputs, **path_inputs}, [v], {"tol_shape": args.tol_shape})
    inputs["t_points"] = args.t_points
    tolerances = {"tol_shape": args.tol_shape, "tol_tail": args.tol_tail}
    family = path_family(name, params)
    t_grid = np.linspace(0.0, 1.0, int(args.t_points))
    grid = default_grid(family, t_grid, kmax=args.kmax, grid_points=args.grid_points)
    v = check_path_order(family, args.order, grid=grid, t_grid=t_grid,
                         tol_shape=args.tol_shape, tol_tail=args.tol_tail)
    return _report("path", inputs, [v], tolerances)


# ---------------------------------------------------------------------------
# argument parsing

# every subcommand option, declared once
_OPTIONS = {
    "--family": {"required": True, "help": "family spec, name[:key=val,...]"},
    "--p": {"required": True, "help": "law spec for the dominated side"},
    "--q": {"required": True, "help": "law spec for the dominating side"},
    "--counting": {"required": True},
    "--summand": {"required": True},
    "--id": {"required": True, "choices": sorted(_TABLE_BUILDERS)},
    "--name": {"required": True, "help": "path spec: negbinomial/betabinomial/gamma/"
                                         "interpolation with key=val params"},
    "--nu1": {"type": float, "required": True},
    "--nu2": {"type": float, "required": True},
    "--orders": {"default": "lr,lc,st,hr"},
    "--order": {"default": "lr"},
    "--kmax": {"type": _size(2, MAX_KMAX), "default": TAIL_CUT_KMAX},
    "--tail-eps": {"type": _tolerance, "default": TAIL_CUT_EPS},
    "--tol-shape": {"type": _tolerance, "default": TOL_SHAPE},
    "--tol-tail": {"type": _tolerance, "default": TOL_TAIL},
    "--nu-grid": {"help": "comma-separated scan values overriding the default"},
    "--grid-points": {"type": _size(3, MAX_GRID_POINTS), "default": GRID_POINTS},
    "--nu-points": {"type": _size(2, MAX_SCAN_POINTS), "default": NU_POINTS},
    "--t-points": {"type": _size(2, MAX_SCAN_POINTS), "default": 33},
    "--format": {"choices": ("json", "csv", "text"), "default": "json",
                 "help": "report rendering (default json)"},
    "--out": {"help": "write the report to a file instead of stdout"},
    "--no-timing": {"action": "store_true", "help": "report runtime_ms as 0 for byte-stable output"},
}

# name: help, runner, its options in help order (--format, --out and
# --no-timing follow them) and its defaults that differ from _OPTIONS's
_COMMANDS = {
    "check": ("scan one family's kernel criteria plus endpoint oracle", _cmd_check,
              "--family --nu1 --nu2 --orders --kmax --tail-eps --tol-shape --tol-tail --nu-grid "
              "--grid-points", {}),
    "pairwise": ("compare two concrete laws (claim: p below q)", _cmd_pairwise,
                 "--p --q --orders --kmax --tail-eps --tol-shape", {"kmax": PAIRWISE_KMAX}),
    "compound": ("lr direction of a random sum in the counting parameter", _cmd_compound,
                 "--counting --summand --nu1 --nu2 --nu-points --tol-shape", {}),
    "table": ("reproduce a reference table and diff against its golden file", _cmd_table,
              "--id", {}),
    "path": ("order along a named multi-parameter path", _cmd_path,
             "--name --order --t-points --kmax --grid-points --tol-shape --tol-tail", {}),
}


@functools.cache  # built once: argparse's add_argument made it a third of a short command
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="stochorder",
        description="Stochastic-order checks: kernel criteria, brute oracles, "
                    "closed-form thresholds, and table reproductions.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_text, run, flags, defaults) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in (*flags.split(), "--format", "--out", "--no-timing"):
            p.add_argument(flag, **_OPTIONS[flag])
        p.set_defaults(run=run, **defaults)
        # read -4.6e-05 or -.5 as a value, not an option
        p._negative_number_matcher = re.compile(r"-\.?\d")
    return ap


# bytes of the array that `_keep_grid_arrays_on_the_heap` frees
_HEAP_KEPT = 1 << 20


@functools.cache  # once per process
def _keep_grid_arrays_on_the_heap() -> None:
    """Allocate and free one 1 MiB array, so that later arrays up to that size
    reuse heap pages. glibc's malloc maps a block above its mmap threshold
    (128 KiB at start) afresh and unmaps it when freed, so each temporary of a
    20 000-point grid (160 KB) would fault its pages in again; freeing a
    mapped block raises the threshold to that block's size, and the heap's
    trim threshold to twice it. A tail pass's paired running sums take 16
    bytes a point, so they stay on the heap on grids of up to 65 536 points,
    and a block of scanned nus, which reads at most `catalog._BLOCK_ELEMENTS`
    points in one call, stays there too. Under another allocator this is one
    allocation."""
    np.empty(_HEAP_KEPT // 8)


def main(argv=None) -> int:
    _keep_grid_arrays_on_the_heap()
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has already written its diagnostic
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        report = args.run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.no_timing:
        report["runtime_ms"] = int(round((time.perf_counter() - started) * 1000.0))
    text = _emit(report, args.format)
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: --out {args.out!r}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return _exit_code(report)


if __name__ == "__main__":
    sys.exit(main())
