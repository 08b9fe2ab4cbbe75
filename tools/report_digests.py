"""Print one sha256 per report over a fixed list of CLI commands.

    python3 tools/report_digests.py > after.txt
    python3 tools/report_digests.py --root ../parent-checkout > before.txt
    diff before.txt after.txt

Each command runs in-process through `stochorder.cli.main` with
`--no-timing`, so a report depends only on the program. Each output line is
`<sha256 of stdout and stderr> <exit code> <argv>`. The list covers:

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
  cut at different points.

No digest is committed: the script compares two checkouts, so a correctness
fix that changes a report shows as a diff to explain, not a failing test.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
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
)


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


def digest(main, argv: list[str]) -> tuple[str, int]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    text = out.getvalue() + "\0" + err.getvalue()
    return hashlib.sha256(text.encode("utf-8")).hexdigest(), code


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                    help="checkout whose src/ and perfbench/ are run (default: this one)")
    args = ap.parse_args()
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from stochorder import cli

    for argv in commands(cli._TABLE1, workloads):
        sha, code = digest(cli.main, argv)
        print(sha, code, " ".join(argv))
    return 0


if __name__ == "__main__":
    sys.exit(main())
