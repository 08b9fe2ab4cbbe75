"""Print one sha256 per report over a fixed list of CLI commands, or compare
the reports of two checkouts command by command.

    python3 tools/report_digests.py > after.txt
    python3 tools/report_digests.py --root ../parent-checkout > before.txt
    diff before.txt after.txt

    python3 tools/report_digests.py --against ../parent-checkout
    python3 tools/report_digests.py --against ../parent-checkout --random 800 --seed 1

Each command runs in-process through `stochorder.cli.main` with
`--no-timing`, so a report depends only on the program. Each digest line is
`<sha256 of stdout and stderr> <exit code> <argv>`. The fixed list covers:

- each Table-1 row at its Table-1 endpoints: as JSON, as text, as a
  reflexive pair (nu1 = nu2) and with `--orders st,lr`;
- `table --id` table1, table2 and katz;
- the first pass of each workload of `perfbench/workloads.py` at seed 7, and
  of closed-forms at seed 8;
- the gamma, negbinomial and betabinomial paths with each of the four orders;
- `half-student-in-df` as CSV with each of the four orders;
- commands whose laws reach past the first 64-point window of the tail
  search and into the lgamma branch of `log_pochhammer`: the two
  negative-binomial Table-1 rows over wide ranges, a pairwise and a compound
  negative binomial with shape 40, and a pairwise lc pair of Poisson laws
  cut at different points;
- laws whose log factors pass the largest finite exponent (about 709): a
  binomial with n = 1200 and two beta-binomials, as a pairwise law and as a
  path.

`--random N` replaces the fixed list with N commands drawn from `--seed`:
`pairwise` over all seven laws, `compound` over all six counting laws,
`check` on the two negative-binomial families with random fixed parameters
and on all 22 Table-1 rows inside their ranges with a random
`--grid-points` (up to 24 000) and, half the time, a random `--nu-grid` of
2 to 70 values inside `[nu1, nu2]`, and the betabinomial and negbinomial
paths and gamma paths with a random `--t-points` and `--grid-points`. The
ranges keep every factor below the overflow point, so each command gives a
report in both checkouts.

With `--against ROOT` both checkouts run the same commands, built in this
one, one checkout after the other in this process. For each command whose
output differs it prints the command and, for a JSON report, every JSON
path that differs with both values. It exits 1 on a change of exit code,
of stderr or of a text or CSV report, and on a JSON change other than a
float within 1e-12 * max(1, |a|, |b|). `--allow-mended` also accepts a
command that exits 2 (an error) in ROOT and gives a report here.

No digest is committed: the script compares two checkouts, so a correctness
fix that changes a report shows as a diff to explain, not a failing test.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import random
import sys
from pathlib import Path

ORDERS = ("lr", "lc", "st", "hr")
PATHS = (
    "gamma:r1=1,r2=2,rho1=2,rho2=1",
    "negbinomial:r1=1,r2=2,q1=0.3,q2=0.4",
    "betabinomial:n=10,r1=1,r2=2,s1=3,s2=2",
)


FAR_TAILS = (
    ["check", "--family", "negbinomial-in-q", "--nu1=0.3", "--nu2=0.95"],
    ["check", "--family", "negbinomial-in-shape", "--nu1=1.5", "--nu2=80"],
    ["pairwise", "--p", "poisson:lambda=15", "--q", "negbinomial:r=40,p=0.6"],
    ["compound", "--counting", "negbinomial:alpha=40", "--summand", "geometric:p=0.5",
     "--nu1=0.3", "--nu2=0.6"],
    ["pairwise", "--p", "poisson:lambda=2", "--q", "poisson:lambda=0.4", "--orders", "lc"],
    ["pairwise", "--p", "binomial:n=1200,p=0.5", "--q", "poisson:lambda=600", "--orders", "st"],
    ["pairwise", "--p", "betabinomial:n=179,r=5.06,s=25.85", "--q", "poisson:lambda=20",
     "--orders", "lr"],
    ["path", "--name", "betabinomial:n=200,r1=2,r2=3,s1=3,s2=2", "--order", "st"],
)

TOL = 1e-12


def commands(table1, workloads) -> list[list[str]]:
    """The fixed command list; `table1` is `cli._TABLE1`, `workloads` the
    benchmark's generator module."""
    out: list[list[str]] = []
    for spec, (lo, hi), *_ in table1:
        check = ["check", "--family", spec, f"--nu1={lo!r}"]
        out.append(check + [f"--nu2={hi!r}"])
        out.append(check + [f"--nu2={hi!r}", "--format", "text"])
        out.append(check + [f"--nu2={lo!r}"])
        out.append(check + [f"--nu2={hi!r}", "--orders", "st,lr"])
    out.extend(["table", "--id", t] for t in ("table1", "table2", "katz"))
    for name, seed in [(w, 7) for w in workloads.WORKLOADS] + [("closed-forms", 8)]:
        out.extend(next(workloads.passes(name, seed)))
    out.extend(["path", "--name", p, "--order", o] for p in PATHS for o in ORDERS)
    out.extend(["check", "--family", "half-student-in-df", "--nu1=2", "--nu2=5",
                "--orders", o, "--format", "csv"] for o in ORDERS)
    out.extend(FAR_TAILS)
    return [argv + ["--no-timing"] for argv in out]


# ---------------------------------------------------------------------------
# the random command set


def _spec(name: str, **params) -> str:
    return name + ":" + ",".join(f"{k}={v:.6g}" for k, v in params.items())


def _pair(rng: random.Random, lo: float, hi: float) -> tuple[float, float]:
    a, b = sorted(rng.uniform(lo, hi) for _ in range(2))
    return a, b if b > a else a + 0.01 * (hi - lo)


def _hypergeometric(rng: random.Random) -> dict:
    B, W = rng.randint(0, 60), rng.randint(0, 60)
    return {"B": B, "W": W, "n": rng.randint(1, max(1, B + W))}


# pairwise laws with parameter ranges whose log factors stay below ~700
_PAIRWISE = {
    "binomial": lambda rng: {"n": rng.randint(1, 150), "p": rng.uniform(0.05, 0.95)},
    "poisson": lambda rng: {"lambda": rng.uniform(0.1, 200.0)},
    "negbinomial": lambda rng: {"r": rng.uniform(0.2, 50.0), "p": rng.uniform(0.05, 0.95)},
    "geometric": lambda rng: {"p": rng.uniform(0.02, 0.98)},
    "cmp": lambda rng: {"mu": rng.uniform(0.2, 12.0), "nu": rng.uniform(0.3, 3.0)},
    "betabinomial": lambda rng: {"n": rng.randint(1, 60), "r": rng.uniform(0.2, 10.0),
                                 "s": rng.uniform(0.2, 10.0)},
    "hypergeometric": _hypergeometric,
}

# counting law: fixed parameters and the range of the scanned one
_COUNTING = {
    "poisson": (lambda rng: {}, (0.2, 20.0)),
    "geometric": (lambda rng: {}, (0.1, 0.9)),
    "negbinomial": (lambda rng: {"alpha": rng.uniform(0.3, 20.0)}, (0.15, 0.9)),
    "binomial": (lambda rng: {"n0": rng.randint(1, 60)}, (0.05, 0.95)),
    "logseries": (lambda rng: {}, (0.05, 0.9)),
    "negbinomial-in-shape": (lambda rng: {"p": rng.uniform(0.2, 0.8)}, (0.3, 20.0)),
}

_SUMMANDS = (
    lambda rng: _spec("geometric", p=rng.uniform(0.2, 0.9)),
    lambda rng: _spec("poisson-shifted", mu=rng.uniform(0.2, 3.0)),
    lambda rng: _spec("delta", j=rng.randint(1, 3)),
    lambda rng: _spec("two-point", w1=rng.uniform(0.1, 0.9)),
)


def _random_pairwise(rng: random.Random) -> list[str]:
    p, q = rng.choice(list(_PAIRWISE)), rng.choice(list(_PAIRWISE))
    return ["pairwise", "--p", _spec(p, **_PAIRWISE[p](rng)), "--q", _spec(q, **_PAIRWISE[q](rng)),
            "--orders", rng.choice(["lr", "lc", "st", "hr", "lr,lc,st,hr"])]


def _random_compound(rng: random.Random) -> list[str]:
    name = rng.choice(list(_COUNTING))
    fixed, (lo, hi) = _COUNTING[name]
    params = fixed(rng)
    nu1, nu2 = _pair(rng, lo, hi)
    return ["compound", "--counting", _spec(name, **params) if params else name,
            "--summand", rng.choice(_SUMMANDS)(rng), f"--nu1={nu1:.6g}", f"--nu2={nu2:.6g}"]


def _grid_points(rng: random.Random) -> str:
    """A `--grid-points` option, log-uniform from 50 to 24 000."""
    return f"--grid-points={int(10.0 ** rng.uniform(1.7, math.log10(24_000)))}"


def _random_check(rng: random.Random, table1) -> list[str]:
    if rng.random() < 0.3:
        if rng.random() < 0.5:
            family = _spec("negbinomial-in-shape", p=rng.uniform(0.05, 0.95))
            nu1, nu2 = sorted(10.0 ** rng.uniform(-0.5, 2.0) for _ in range(2))
        else:
            family = _spec("negbinomial-in-q", r=10.0 ** rng.uniform(-0.7, 1.7))
            nu1, nu2 = _pair(rng, 0.05, 0.97)
        return ["check", "--family", family, f"--nu1={nu1:.6g}", f"--nu2={nu2:.6g}"]
    # a Table-1 row inside its range, on a grid of up to 24 000 points and,
    # half the time, a scan of 2 to 70 values inside [nu1, nu2]
    family, (lo, hi), *_ = rng.choice(table1)
    nu1, nu2 = (float(f"{v:.6g}") for v in _pair(rng, lo, hi))
    argv = ["check", "--family", family, f"--nu1={nu1!r}", f"--nu2={nu2!r}", _grid_points(rng)]
    if rng.random() < 0.5:
        nus = sorted(rng.uniform(nu1, nu2) for _ in range(rng.randint(2, 70)))
        argv.append("--nu-grid=" + ",".join(f"{v:.6g}" for v in nus))
    return argv


def _random_path(rng: random.Random) -> list[str]:
    u, extra = rng.random(), []
    if u < 0.35:
        r1, r2 = _pair(rng, 0.2, 10.0)
        s2, s1 = _pair(rng, 0.2, 10.0)
        spec = _spec("betabinomial", n=rng.randint(1, 60), r1=r1, r2=r2, s1=s1, s2=s2)
    elif u < 0.7:
        r1, r2 = _pair(rng, 0.3, 20.0)
        q1, q2 = _pair(rng, 0.05, 0.9)
        spec = _spec("negbinomial", r1=r1, r2=r2, q1=q1, q2=q2)
    else:
        r1, r2 = _pair(rng, 0.5, 5.0)
        rho2, rho1 = _pair(rng, 0.5, 4.0)
        spec = _spec("gamma", r1=r1, r2=r2, rho1=rho1, rho2=rho2)
        extra = [f"--t-points={rng.randint(2, 140)}", _grid_points(rng)]
    return ["path", "--name", spec, "--order", rng.choice(ORDERS), *extra]


def random_commands(count: int, seed: int, table1) -> list[list[str]]:
    """`count` commands drawn from `seed`, in the proportions 35:20:25:20;
    `table1` is `cli._TABLE1`."""
    rng = random.Random(seed)
    makers = rng.choices(
        (_random_pairwise, _random_compound, lambda rng: _random_check(rng, table1), _random_path),
        weights=(35, 20, 25, 20), k=count,
    )
    return [make(rng) + ["--no-timing"] for make in makers]


# ---------------------------------------------------------------------------
# running and comparing


def load(root: Path):
    """`stochorder.cli` and the benchmark's `workloads` module of a checkout;
    modules of an earlier checkout are dropped first."""
    for name in [m for m in sys.modules if m.split(".")[0] in ("stochorder", "workloads")]:
        del sys.modules[name]
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    try:
        return importlib.import_module("stochorder.cli"), importlib.import_module("workloads")
    finally:
        del sys.path[:2]


def run(main, argv: list[str], root: Path | None = None) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one command; the checkout's path in
    stderr (numpy warnings name their source file) reads `<root>`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    text = err.getvalue()
    return code, out.getvalue(), text if root is None else text.replace(str(root), "<root>")


def digest(main, argv: list[str]) -> tuple[str, int]:
    code, out, err = run(main, argv)
    return hashlib.sha256((out + "\0" + err).encode("utf-8")).hexdigest(), code


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def json_diffs(a, b, path: str = "$") -> list[tuple[str, object, object]]:
    """(JSON path, value here, value there) for every leaf where two parsed
    reports differ; a change of keys or of a list's length is one leaf."""
    if isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            return [(path + ".keys()", list(a), list(b))]
        return [d for k in a for d in json_diffs(a[k], b[k], f"{path}.{k}")]
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [(path + ".length", len(a), len(b))]
        return [d for i, (x, y) in enumerate(zip(a, b)) for d in json_diffs(x, y, f"{path}[{i}]")]
    if a == b and type(a) is type(b):
        return []
    return [(path, a, b)]


def float_tail(a, b) -> float | None:
    """The scaled difference |a - b| / max(1, |a|, |b|) when a and b are
    numbers, not both integers, within TOL of each other; None otherwise."""
    if not (_is_number(a) and _is_number(b)) or (isinstance(a, int) and isinstance(b, int)):
        return None
    scaled = abs(a - b) / max(1.0, abs(a), abs(b))
    return scaled if scaled <= TOL else None


def compare(here, there, allow_mended: bool) -> tuple[str, list[str], float]:
    """(verdict, detail lines, worst scaled float difference) for one
    command's (code, stdout, stderr) here and there. The verdict is one of
    'same', 'float', 'mended' and 'changed'."""
    if here == there:
        return "same", [], 0.0
    (code, out, err), (code0, out0, err0) = here, there
    if code != code0:
        verdict = "mended" if allow_mended and code0 == 2 and code != 2 else "changed"
        there = (err0.strip() or out0.strip()).splitlines()[-1:]
        return verdict, [f"exit {code0} -> {code}"] + [f"    there: {t}" for t in there], 0.0
    if err != err0:
        return "changed", [f"stderr: {err0.strip()!r} -> {err.strip()!r}"], 0.0
    try:
        diffs = json_diffs(json.loads(out), json.loads(out0))
    except ValueError:
        return "changed", ["text or CSV report differs"], 0.0
    lines, worst, verdict = [], 0.0, "float"
    for path, a, b in diffs:
        scaled = float_tail(a, b)
        if scaled is None:
            verdict = "changed"
            lines.append(f"{path}: {b!r} -> {a!r}")
        else:
            worst = max(worst, scaled)
            lines.append(f"{path}: {b!r} -> {a!r} ({scaled:.2g})")
    return verdict, lines, worst


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    here = Path(__file__).resolve().parent.parent
    ap.add_argument("--root", type=Path, default=here,
                    help="checkout whose src/ and perfbench/ are run (default: this one)")
    ap.add_argument("--against", type=Path, default=None,
                    help="compare the reports of --root with those of this checkout")
    ap.add_argument("--random", type=int, default=0, metavar="N",
                    help="run N commands drawn from --seed instead of the fixed list")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--allow-mended", action="store_true",
                    help="accept a command that is an error (exit 2) in --against only")
    args = ap.parse_args()

    cli, workloads = load(args.root.resolve())
    argvs = (random_commands(args.random, args.seed, cli._TABLE1) if args.random
             else commands(cli._TABLE1, workloads))
    if args.against is None:
        for argv in argvs:
            sha, code = digest(cli.main, argv)
            print(sha, code, " ".join(argv))
        return 0

    ours = [run(cli.main, argv, args.root.resolve()) for argv in argvs]
    theirs_cli, _ = load(args.against.resolve())
    theirs = [run(theirs_cli.main, argv, args.against.resolve()) for argv in argvs]
    counts = dict.fromkeys(("same", "float", "mended", "changed"), 0)
    worst = 0.0
    for argv, a, b in zip(argvs, ours, theirs):
        verdict, lines, scaled = compare(a, b, args.allow_mended)
        counts[verdict] += 1
        worst = max(worst, scaled)
        if verdict != "same":
            print(f"{verdict}: {' '.join(argv)}")
            for line in lines:
                print(f"    {line}")
    print(f"{len(argvs)} commands: {counts['same']} identical, {counts['float']} moved by "
          f"float tails only (worst scaled difference {worst:.2g}), {counts['mended']} "
          f"mended, {counts['changed']} changed")
    return 1 if counts["changed"] else 0


if __name__ == "__main__":
    sys.exit(main())
