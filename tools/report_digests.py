"""Print one sha256 per report over a fixed list of CLI commands, or compare
the reports of two checkouts command by command.

    python3 tools/report_digests.py > after.txt
    python3 tools/report_digests.py --root ../parent-checkout > before.txt
    diff before.txt after.txt

    python3 tools/report_digests.py --against ../parent-checkout
    python3 tools/report_digests.py --against ../parent-checkout --random 800 --seed 1
    python3 tools/report_digests.py --env NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL"

Each command runs in-process through `stochorder.cli.main` with
`--no-timing`, so a report depends only on the program. Each digest line is
`<sha256 of stdout and stderr> <exit code> <argv>`. The fixed list covers:

- each Table-1 row at its Table-1 endpoints: as JSON, as text, as a
  reflexive pair (nu1 = nu2) and with `--orders st,lr`;
- `table --id` table1, table2 and katz;
- the first pass of each workload of `perfbench/workloads.py` at seed 7, and
  of closed-forms at seed 8;
- the gamma, negbinomial and betabinomial paths with each of the four orders,
  and with `--t-points 2` for st, a scan of the two end laws alone;
- `half-student-in-df` as CSV with each of the four orders;
- commands whose laws reach past the first 64-point window of the tail
  search and into the lgamma branch of `log_pochhammer`: the two
  negative-binomial Table-1 rows over wide ranges, a pairwise and a compound
  negative binomial with shape 40, and a pairwise lc pair of Poisson laws
  cut at different points;
- laws whose log factors pass the largest finite exponent (about 709): a
  binomial with n = 1200 and two beta-binomials, as a pairwise law and as a
  path;
- Conway-Maxwell-Poisson laws whose series normalizer needs more than 2000
  terms or has lam at or near 1: a pairwise cmp with mu = 9, nu = 0.3 (its
  terms peak near k = 1500), one with mu = 1, and the cmp-in-dispersion
  row at lam = 0.99;
- a negative-binomial path whose law at t = 1 keeps 24% of its mass past
  k = 400, with the default `--kmax` and with `--kmax 400` (the tail search
  cannot reach its target there); a negative-binomial lc path whose t = 0
  law underflows to zero before the other law's tail cut; and a compound
  with the non-integer summand `delta:j=2.5`;
- every branch of the pairwise lr and lc kernel tests (both fail with a
  kernel witness; lr fails and lc holds; both fail by support reach; lr
  with a dominating hypergeometric law whose support starts above the
  dominated binomial's; lc with a dominated binomial whose support starts
  below the dominating hypergeometric's; all four orders on a beta-binomial
  and a hypergeometric law with disjoint supports, either way round; all four
  orders at `--tail-eps 1e-6`) and the interpolation path on either side of
  its threshold;
- paths with one idle parameter, whose chain-rule kernel skips that
  parameter's component: a negbinomial path with r1 = r2 and a gamma path
  with rho1 = rho2;
- kernels that do not depend on the scanned parameter, built once per scan:
  `weibull-in-rate` with beta = 0.5 and `pareto-in-shape` with xm = 3, both
  kernels reading a fixed parameter off its default, the latter on an
  unsorted `--nu-grid` that repeats a value; and the gamma path with both
  parameters idle, whose kernel is zero, under lc;
- kernels a(nu) T(x) + b(nu), whose statistic T is built once per scan:
  `lognormal-in-mu` over -2..-0.5, where b(mu) = -mu / sigma^2 is not 0,
  and a Poisson row from theta = 1e-290, whose kernel k / theta is of size
  1e290 with curvature 0, so lc holds both ways with margin 0 (a kernel
  built at each nu read its rounding, of size 1e274, as two lc failures);
  and the zero-inflated exponential, 1/theta - x past its atom at 0, where
  it is 0, whose atom's cell and triplet the scan reads apart: over 1..2 at
  the default grid, on 20 000 points with a 65-value `--nu-grid`, and from
  theta = 1e-300, where the grid runs to about 5e301;
- `half-student-in-df` lr over 2.5..3.9, which reports `lr down holds`
  although the kernel rises in x on [0, 1): the default grid's first
  midpoint lies past that rise;
- the tail tests at the edges of the st/hr skip, on a Poisson row whose
  kernel rises at every scanned nu: with `--tol-tail=0`, where st down
  must fail at x = 1 and not at x = 0, whose st margin is exactly 0 (the
  tail mean and E[K] there are one quotient), and with `--tol-shape=1e6`,
  where st and hr down must still fail;
- the zero-inflated exponential on 20 000 points with `--orders hr,st
  --tol-tail=0`, whose down tests read its tail means up to the first body
  point alone, where the kernel starts to fall to the grid's end, and whose
  up tests read the whole grid: hr runs first and st reuses each pass, and
  no tolerance absorbs the rounding of a pass seeded at that point;
- `half-student-in-df` over 3..5 on 20 000 points with `--orders st,hr`,
  whose kernel rises near x = 0 and falls past it: at the first nu st and
  hr down read the 15 points up to the end of that rise and up reads the
  whole grid, and both directions are open there;
- compounds with equal endpoints (`--nu1 2 --nu2 2`), which exit 2 and
  name both options, also with the `geometric:p=0.01` and `delta:j=300`
  summands whose tables pass the cap of 2000 columns below, as the
  endpoints are refused before the model is built; and a poisson-shifted
  summand with mu = inf, refused by name at its domain;
- in-domain values past the double range, each refused by name with exit
  2: a `negbinomial-in-q` row and a pairwise negative binomial with
  r = 1e308, whose log factors overflow `math.lgamma`; `weibull-in-rate`
  with beta = 1e-308 and `pareto-in-shape` with xm = 1e308, whose grid
  spans are not finite; a Poisson row from theta = 1e-308, whose
  kernel k / theta overflows; and a `gumbel-in-location` row near
  mu = 1e307, whose log factor's exp(-z) overflows to a log factor of
  -inf, so that no grid cell holds mass; and an lc beta-binomial path with
  n = 21 that fails by both routes, plain and at `--tol-shape 1e6`, where
  the path test holds and the oracle downgrades it to inconclusive;
- a two-point support: `check` on `binomial-in-p:n=1` and `pairwise` on
  its two endpoint laws in either order, which decide the same statuses;
- compounds whose convolution table grows past its first window of 256
  columns: a Poisson count of `delta:j=40` atoms (k_max 720) and a
  527-term `geometric:p=0.05` summand (k_max 1063); a log-series count of
  two-point summands (k_max 114); two that exit 2 at the table's cap of
  2000 columns, a `geometric:p=0.01` summand longer than the cap and
  Poisson counts of `delta:j=300` atoms; and rare Poisson counts over
  1e-4..2e-4 of `delta:j=32` atoms, whose first 64 columns hold all but
  2e-8 of the mass while the atom at 96 still holds 1.3e-12 (k_max 96),
  and of `delta:j=128` atoms, the same sliver past the first window of
  256 columns (k_max 384); and a log-series count up to theta = 0.99,
  whose cut passes the counting cap and is refused naming n_max = 500
  before any table is built;
- `check` endpoint pairs that reach the oracle's per-direction branches
  rather than the shared ones: a binomial with n = 3000 whose masses
  underflow to zero at either end, so lc fails by support-containment both
  ways; a negative binomial whose up lc fails by a triplet at x = 352 and
  whose down lc fails by support-containment at x = 362; and hr alone on
  the zero-inflated exponential's mixed grid, which reads the survivals
  only;
- lc oracles whose laws hold masses that underflow inside the other law's
  support, where the oracle reads the log masses: three more negative
  binomials in q, a pairwise binomial with n = 2000 against a Poisson law,
  and two negative-binomial lc paths;
- grids spanned by solved tail bounds, at the extremes of the four laws that
  solve them: `gamma-in-shape` near r = 0.5 and r = 50, `gamma-in-rate`
  with r = 50 over rates 0.05..20, `half-student-in-df` near df = 2 and at
  df 30..60, `halfnormal-in-scale` at sigma near 1e-6 and 1e5,
  `lognormal-in-mu` with sigma = 0.1 and 3, and with sigma = 1e-5, whose
  cells miss the law's mass and are refused by name;
- hr oracle verdicts that read the first law's tail past the second's
  (the cut is where both survivals fall below the oracle's eps): a Poisson
  row from theta = 1e-290, whose law there ends at k = 1, so hr down fails
  at x = 0, and three pairwise st, hr pairs whose second law's support ends
  below the first's, where st fails and so hr must fail too;
- how a scan shares one nu's tail pass: hr before st on the zero-inflated
  Poisson row, where hr reads the tail means first and st reuses them, and
  a Poisson row scanned at the one value `--nu-grid=2`;
- `--nu-grid` values that leave an endpoint out, whose grid must still be
  cut for both endpoint laws, which the oracle reads: a Poisson row over
  1..30 scanned at `--nu-grid 1` alone (Poisson(30) would end at k = 14),
  and `gamma-in-rate` over 0.8..1.6 scanned at `--nu-grid 1.6`;
- tail cuts that the ratio bound of `catalog._tail_cut` places where a cut
  read as 1 - cumsum(masses) went wrong: a `negbinomial-in-q` row with
  r = 38.87 up to q = 0.9495 and a `negbinomial-in-shape` row with
  p = 0.0571 up to r = 96.96, where that cut came early, the
  zero-inflated Poisson over 150..280, whose atom at 0 breaks the ratio's
  monotonicity, and a pairwise st, hr pair of Poisson laws at
  `--tail-eps 1e-300`, a target that 1 - cumsum never reaches;
- `check` commands whose two routes disagree, which must exit 1: at
  `--tol-shape=1e6` the kernel rows of the zero-inflated Poisson (lr) and of
  `half-student-in-df` (lr and lc) hold both ways, while the endpoint
  oracle fails both ways;
- a zero-inflated exponential `check` on the largest grid, 100 000 points,
  whose paired tail-pass sums (16 bytes a point, 1.6 MB) pass the 1 MiB
  below which `cli._keep_grid_arrays_on_the_heap` keeps arrays on the heap;
- blocks of scanned parameters at their edges: 65-value `--nu-grid` checks
  on `negbinomial-in-shape`, on the zero-inflated exponential at
  `--grid-points=12000`, where a block holds two nus, and on a Poisson row
  over 0.5..60, whose tail cuts differ from nu to nu; a negative-binomial
  path at `--t-points 65`; and a `gumbel-in-location` check over 0..800,
  whose kernel overflows at mu = 700, inside a block, and is refused
  naming that nu;
- `table --id` katz and table2, a pairwise, a compound and the
  interpolation path, each as CSV and as text: the renderings of the table
  rows, of the katz `params` and of the interpolation's `delta_margins`,
  whose dicts only these forms write cell by cell; and a pairwise binomial
  against a hypergeometric law whose lc margin is -inf, so that both forms
  render an infinite float.

A command in more than one of these groups runs once, where it first
appears.

`--random N` replaces the fixed list with N commands drawn from `--seed`:
`pairwise` over all seven laws, `compound` over all six counting laws,
`check` on the two negative-binomial families with random fixed parameters
and on all 22 Table-1 rows inside their ranges with a random
`--grid-points` (up to 24 000) and, half the time, a random `--nu-grid` of
2 to 70 values inside `[nu1, nu2]`, the betabinomial and negbinomial
paths and gamma paths with a random `--t-points` and `--grid-points`, and
interpolation paths, half of them with p above the lr threshold. The
ranges keep every factor below the overflow point, so each command gives a
report in both checkouts.

With `--against ROOT` both checkouts run the same commands, built in this
one, one checkout after the other in this process. For each command whose
output differs it prints the command and, for a JSON report, every JSON
path that differs with both values. It exits 1 on a change of exit code,
of stderr or of a text or CSV report, and on a JSON change other than a
float within 1e-12 * max(1, |a|, |b|). `--allow-mended` also accepts a
command that exits 2 (an error) in ROOT and gives a report here.

With `--env NAME=VALUE` instead, the same commands of this checkout run
once in this process and once in a fresh child interpreter with NAME set to
VALUE, and are compared and summed up as under `--against`. A fresh
interpreter is needed for settings read at import, such as numpy's
`NPY_DISABLE_CPU_FEATURES`.

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
import os
import random
import subprocess
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
    ["pairwise", "--p", "cmp:mu=9,nu=0.3", "--q", "poisson:lambda=5", "--orders", "st"],
    ["pairwise", "--p", "cmp:mu=1,nu=2", "--q", "poisson:lambda=5", "--orders", "st,hr"],
    ["check", "--family", "cmp-in-dispersion:lam=0.99", "--nu1=0.8", "--nu2=1.6"],
    ["path", "--name", "negbinomial:r1=2,r2=40,q1=0.5,q2=0.9", "--order", "st"],
    ["path", "--name", "negbinomial:r1=2,r2=40,q1=0.5,q2=0.9", "--order", "st", "--kmax", "400"],
    ["path", "--name", "negbinomial:r1=2.33098,r2=4.23971,q1=0.054447,q2=0.677158",
     "--order", "lc"],
    ["compound", "--counting", "poisson", "--summand", "delta:j=2.5", "--nu1", "1", "--nu2", "2"],
)

KERNEL_BRANCHES = (
    ["pairwise", "--p", "negbinomial:r=3,p=0.5", "--q", "poisson:lambda=2", "--orders", "lr,lc"],
    ["pairwise", "--p", "poisson:lambda=2", "--q", "negbinomial:r=3,p=0.5", "--orders", "lr,lc"],
    ["pairwise", "--p", "poisson:lambda=0.6", "--q", "binomial:n=10,p=0.05", "--orders", "lr,lc"],
    ["path", "--name", "interpolation:n=5,r=1,s=10,p=0.5"],
    ["path", "--name", "interpolation:n=5,r=1,s=10,p=0.2"],
    ["pairwise", "--p", "hypergeometric:B=10,W=2,n=5", "--q", "binomial:n=5,p=0.9",
     "--orders", "lr"],
    ["pairwise", "--p", "binomial:n=5,p=0.9", "--q", "hypergeometric:B=10,W=2,n=5",
     "--orders", "lc"],
    ["pairwise", "--p", "betabinomial:n=38,r=4.85272,s=5.12533",
     "--q", "hypergeometric:B=50,W=4,n=52", "--orders", "lr,lc,st,hr"],
    ["pairwise", "--p", "hypergeometric:B=50,W=4,n=52",
     "--q", "betabinomial:n=38,r=4.85272,s=5.12533", "--orders", "lr,lc,st,hr"],
    ["pairwise", "--p", "poisson:lambda=2", "--q", "negbinomial:r=3,p=0.5",
     "--tail-eps", "1e-6", "--orders", "lr,lc,st,hr"],
)

IDLE_PARAMETERS = (
    ["path", "--name", "negbinomial:r1=2,r2=2,q1=0.2,q2=0.6", "--order", "lc"],
    ["path", "--name", "gamma:r1=1,r2=2,rho1=1.5,rho2=1.5", "--order", "lr"],
)

FIXED_KERNELS = (
    ["check", "--family", "weibull-in-rate:beta=0.5", "--nu1=0.8", "--nu2=1.6"],
    ["check", "--family", "pareto-in-shape:xm=3", "--nu1=1.5", "--nu2=3",
     "--nu-grid=2.5,1.5,3,2,2.5"],
    ["path", "--name", "gamma:r1=1.5,r2=1.5,rho1=2,rho2=2", "--order", "lc"],
)

def _nu_grid(lo: float, hi: float, n: int = 65) -> str:
    """A `--nu-grid` option of n evenly spaced values from lo to hi."""
    return "--nu-grid=" + ",".join(format(lo + (hi - lo) * i / (n - 1), ".6g") for i in range(n))


FACTORED_KERNELS = (
    ["check", "--family", "lognormal-in-mu", "--nu1=-2", "--nu2=-0.5"],
    ["check", "--family", "poisson", "--nu1=1e-290", "--nu2", "3"],
    ["check", "--family", "zero-inflated-exponential", "--nu1=1", "--nu2=2"],
    ["check", "--family", "zero-inflated-exponential", "--nu1=1", "--nu2=2",
     "--grid-points=20000", _nu_grid(1.0, 2.0)],
    ["check", "--family", "zero-inflated-exponential", "--nu1=1e-300", "--nu2=1"],
)

COARSE_GRIDS = (
    ["check", "--family", "half-student-in-df", "--nu1=2.5", "--nu2=3.9", "--orders", "lr"],
)

SKIPPED_TAILS = (
    ["check", "--family", "poisson", "--nu1=1", "--nu2=3", "--orders", "st,hr", "--tol-tail=0"],
    ["check", "--family", "poisson", "--nu1=1", "--nu2=3", "--orders", "st,hr",
     "--tol-shape=1e6"],
)

HEAD_TAILS = (
    ["check", "--family", "zero-inflated-exponential", "--nu1=1", "--nu2=2",
     "--grid-points=20000", "--orders", "hr,st", "--tol-tail=0"],
    ["check", "--family", "half-student-in-df", "--nu1=3", "--nu2=5", "--grid-points=20000",
     "--orders", "st,hr"],
)

EQUAL_ENDPOINTS = (
    ["compound", "--counting", "poisson", "--summand", "geometric:p=0.5", "--nu1", "2",
     "--nu2", "2"],
    ["compound", "--counting", "poisson", "--summand", "geometric:p=0.01", "--nu1", "2",
     "--nu2", "2"],
    ["compound", "--counting", "poisson", "--summand", "delta:j=300", "--nu1", "2",
     "--nu2", "2"],
)

DOMAIN_REFUSALS = (
    ["compound", "--counting", "poisson", "--summand", "poisson-shifted:mu=inf", "--nu1", "1",
     "--nu2", "2"],
)

NUMERIC_REFUSALS = (
    ["check", "--family", "negbinomial-in-q:r=1e308", "--nu1", "0.3", "--nu2", "0.6"],
    ["pairwise", "--p", "negbinomial:r=1e308,p=0.5", "--q", "poisson:lambda=2"],
    ["check", "--family", "weibull-in-rate:beta=1e-308", "--nu1", "0.8", "--nu2", "1.6"],
    ["check", "--family", "pareto-in-shape:xm=1e308", "--nu1", "1.5", "--nu2", "3"],
    ["check", "--family", "poisson", "--nu1=1e-308", "--nu2", "3"],
    ["check", "--family", "gumbel-in-location", "--nu1=1e307", "--nu2", "2e307"],
    ["path", "--name", "betabinomial:n=21,r1=1.426,r2=3.219,s1=5.585,s2=4.745", "--order", "lc"],
    ["path", "--name", "betabinomial:n=21,r1=1.426,r2=3.219,s1=5.585,s2=4.745", "--order", "lc",
     "--tol-shape", "1e6"],
)

TWO_POINT_SUPPORTS = (
    ["check", "--family", "binomial-in-p:n=1", "--nu1", "0.3", "--nu2", "0.5"],
    ["pairwise", "--p", "binomial:n=1,p=0.3", "--q", "binomial:n=1,p=0.5"],
    ["pairwise", "--p", "binomial:n=1,p=0.5", "--q", "binomial:n=1,p=0.3"],
)

COMPOUND_WINDOWS = (
    ["compound", "--counting", "poisson", "--summand", "delta:j=40", "--nu1", "1", "--nu2", "2"],
    ["compound", "--counting", "geometric", "--summand", "geometric:p=0.05", "--nu1", "0.5",
     "--nu2", "0.8"],
    ["compound", "--counting", "logseries", "--summand", "two-point:w1=0.3", "--nu1", "0.2",
     "--nu2", "0.7"],
    ["compound", "--counting", "poisson", "--summand", "geometric:p=0.01", "--nu1", "1",
     "--nu2", "2"],
    ["compound", "--counting", "poisson", "--summand", "delta:j=300", "--nu1", "0.2",
     "--nu2", "0.5"],
    ["compound", "--counting", "poisson", "--summand", "delta:j=32", "--nu1", "0.0001",
     "--nu2", "0.0002"],
    ["compound", "--counting", "poisson", "--summand", "delta:j=128", "--nu1", "0.0001",
     "--nu2", "0.0002"],
    ["compound", "--counting", "logseries", "--summand", "delta", "--nu1", "0.1",
     "--nu2", "0.99"],
)

ORACLE_FALLBACKS = (
    ["check", "--family", "binomial-in-p:n=3000", "--nu1=0.2", "--nu2=0.6", "--orders", "lc"],
    ["check", "--family", "negbinomial-in-q:r=14.6042", "--nu1=0.109341", "--nu2=0.883407"],
    ["check", "--family", "negbinomial-in-q:r=14.6042", "--nu1=0.109341", "--nu2=0.883407",
     "--orders", "lc"],
    ["check", "--family", "negbinomial-in-q:r=1.69212", "--nu1=0.103781", "--nu2=0.930819",
     "--orders", "lc"],
    ["check", "--family", "negbinomial-in-q:r=11.70792767863261", "--nu1=0.07618713478295203",
     "--nu2=0.8771277581511692", "--orders", "lc"],
    ["pairwise", "--p", "binomial:n=2000,p=0.5", "--q", "poisson:lambda=3", "--orders", "lc"],
    ["path", "--name", "negbinomial:r1=6.44417,r2=19.1602,q1=0.0820643,q2=0.862807",
     "--order", "lc"],
    ["path", "--name", "negbinomial:r1=0.345329,r2=12.7898,q1=0.132144,q2=0.87735",
     "--order", "lc"],
    ["check", "--family", "zero-inflated-exponential", "--nu1=1", "--nu2=2", "--orders", "hr"],
    ["check", "--family", "poisson", "--nu1=1e-290", "--nu2", "3", "--orders", "hr"],
    ["pairwise", "--p", "cmp:mu=1.5457,nu=0.981079", "--q", "betabinomial:n=10,r=8.18839,s=1.31764",
     "--orders", "st,hr"],
    ["pairwise", "--p", "geometric:p=0.491045", "--q", "betabinomial:n=1,r=6.22939,s=0.968631",
     "--orders", "st,hr"],
    ["pairwise", "--p", "cmp:mu=9.63568,nu=1.60863", "--q", "hypergeometric:B=39,W=8,n=14",
     "--orders", "st,hr"],
)

TAIL_BOUND_SPANS = (
    ["check", "--family", "gamma-in-shape", "--nu1=0.5", "--nu2=0.6"],
    ["check", "--family", "gamma-in-shape", "--nu1=45", "--nu2=50"],
    ["check", "--family", "gamma-in-rate:r=50", "--nu1=0.05", "--nu2=20"],
    ["check", "--family", "half-student-in-df", "--nu1=2", "--nu2=2.1"],
    ["check", "--family", "half-student-in-df", "--nu1=30", "--nu2=60"],
    ["check", "--family", "halfnormal-in-scale", "--nu1=1e-6", "--nu2=2e-6"],
    ["check", "--family", "halfnormal-in-scale", "--nu1=1e5", "--nu2=3e5"],
    ["check", "--family", "lognormal-in-mu:sigma=0.1", "--nu1=-1", "--nu2=1"],
    ["check", "--family", "lognormal-in-mu:sigma=3", "--nu1=0", "--nu2=2"],
    ["check", "--family", "lognormal-in-mu:sigma=1e-5", "--nu1=0", "--nu2=1"],
)

SHARED_ROWS = (
    ["check", "--family", "zero-inflated-poisson", "--nu1=3", "--nu2=5", "--orders", "hr,st"],
    ["check", "--family", "poisson", "--nu1=1", "--nu2=3", "--nu-grid=2"],
)

ENDPOINT_GRIDS = (
    ["check", "--family", "poisson", "--nu1", "1", "--nu2", "30", "--nu-grid", "1",
     "--orders", "st"],
    ["check", "--family", "gamma-in-rate", "--nu1", "0.8", "--nu2", "1.6", "--nu-grid", "1.6"],
)

RATIO_CUTS = (
    ["check", "--family", "negbinomial-in-q:r=38.86958350399432", "--nu1=0.5",
     "--nu2=0.949547837568405"],
    ["check", "--family", "zero-inflated-poisson", "--nu1=150", "--nu2=280"],
    ["check", "--family", "negbinomial-in-shape:p=0.0571334", "--nu1=0.631558", "--nu2=96.959"],
    ["pairwise", "--p", "poisson:lambda=3", "--q", "poisson:lambda=4", "--orders", "st,hr",
     "--tail-eps", "1e-300"],
)

DISAGREEING_ROUTES = (
    ["check", "--family", "zero-inflated-poisson", "--nu1=3", "--nu2=5", "--orders", "lr",
     "--tol-shape=1e6"],
    ["check", "--family", "half-student-in-df", "--nu1=3", "--nu2=5", "--orders", "lr,lc",
     "--tol-shape=1e6"],
)

LARGEST_GRIDS = (
    ["check", "--family", "zero-inflated-exponential", "--nu1=1", "--nu2=2",
     "--grid-points=100000"],
)


BLOCK_EDGES = (
    ["check", "--family", "negbinomial-in-shape", "--nu1=1.5", "--nu2=40", _nu_grid(1.5, 40.0)],
    ["check", "--family", "zero-inflated-exponential", "--nu1=1", "--nu2=2",
     "--grid-points=12000", _nu_grid(1.0, 2.0)],
    ["check", "--family", "poisson", "--nu1=0.5", "--nu2=60", _nu_grid(0.5, 60.0)],
    ["path", "--name", "negbinomial:r1=1,r2=30,q1=0.2,q2=0.7", "--order", "st",
     "--t-points", "65"],
    ["check", "--family", "gumbel-in-location", "--nu1=0", "--nu2=800", "--orders", "lr"],
)

# reports rendered as CSV and as text; the other lists are JSON but for the
# Table-1 text rows and the half-student CSV rows
OTHER_FORMATS = tuple(
    argv + ["--format", fmt]
    for argv in (
        ["table", "--id", "katz"],
        ["table", "--id", "table2"],
        ["pairwise", "--p", "poisson:lambda=2", "--q", "negbinomial:r=3,p=0.5"],
        ["compound", "--counting", "poisson", "--summand", "geometric:p=0.5", "--nu1", "1",
         "--nu2", "2"],
        ["path", "--name", "interpolation:n=5,r=1,s=10,p=0.5"],
        ["pairwise", "--p", "binomial:n=5,p=0.9", "--q", "hypergeometric:B=10,W=2,n=5"],
    )
    for fmt in ("csv", "text")
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
    out.extend(["path", "--name", p, "--t-points", "2", "--order", "st"] for p in PATHS)
    out.extend(["check", "--family", "half-student-in-df", "--nu1=2", "--nu2=5",
                "--orders", o, "--format", "csv"] for o in ORDERS)
    out.extend(FAR_TAILS)
    out.extend(KERNEL_BRANCHES)
    out.extend(IDLE_PARAMETERS)
    out.extend(FIXED_KERNELS)
    out.extend(FACTORED_KERNELS)
    out.extend(COARSE_GRIDS)
    out.extend(SKIPPED_TAILS)
    out.extend(HEAD_TAILS)
    out.extend(EQUAL_ENDPOINTS)
    out.extend(DOMAIN_REFUSALS)
    out.extend(NUMERIC_REFUSALS)
    out.extend(TWO_POINT_SUPPORTS)
    out.extend(COMPOUND_WINDOWS)
    out.extend(ORACLE_FALLBACKS)
    out.extend(TAIL_BOUND_SPANS)
    out.extend(SHARED_ROWS)
    out.extend(ENDPOINT_GRIDS)
    out.extend(RATIO_CUTS)
    out.extend(DISAGREEING_ROUTES)
    out.extend(LARGEST_GRIDS)
    out.extend(BLOCK_EDGES)
    out.extend(OTHER_FORMATS)
    # the workload passes repeat the `table` commands: each runs once, first
    return [list(argv) + ["--no-timing"] for argv in dict.fromkeys(map(tuple, out))]


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
    if u < 0.15:  # the interpolation path, half the time above its threshold
        n, r, s = rng.randint(1, 60), rng.uniform(0.2, 10.0), rng.uniform(0.2, 10.0)
        threshold = min((r + n - 1.0) / (r + s + n - 1.0), 0.999)
        p = rng.uniform(threshold, 0.999) if rng.random() < 0.5 else rng.uniform(0.001, threshold)
        return ["path", "--name", _spec("interpolation", n=n, r=r, s=s, p=p)]
    if u < 0.45:
        r1, r2 = _pair(rng, 0.2, 10.0)
        s2, s1 = _pair(rng, 0.2, 10.0)
        spec = _spec("betabinomial", n=rng.randint(1, 60), r1=r1, r2=r2, s1=s1, s2=s2)
    elif u < 0.75:
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
    stderr (numpy warnings name their source file) reads `<root>`. An
    exception that escapes the command exits 1, as the interpreter does, with
    its last traceback line on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except Exception as exc:
            code = 1
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    text = err.getvalue()
    return code, out.getvalue(), text if root is None else text.replace(str(root), "<root>")


# run in the child interpreter of --env: the tool's directory, the checkout
# and, on stdin, the commands; (code, stdout, stderr) of each on stdout
_CHILD = """import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import report_digests as rd
root = Path(sys.argv[2])
cli, _ = rd.load(root)
print(json.dumps([rd.run(cli.main, argv, root) for argv in json.load(sys.stdin)]))
"""


def run_in_child(root: Path, argvs: list[list[str]], name: str, value: str):
    """(exit code, stdout, stderr) of each command, run as `run` does in a
    fresh interpreter whose environment sets `name` to `value`."""
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, str(Path(__file__).resolve().parent), str(root)],
        input=json.dumps(argvs), stdout=subprocess.PIPE, text=True, check=True,
        env={**os.environ, name: value},
    )
    return [tuple(r) for r in json.loads(child.stdout)]


def _setting(text: str) -> tuple[str, str]:
    """argparse type of --env: NAME=VALUE, NAME not empty."""
    name, sep, value = text.partition("=")
    if not (name and sep):
        raise argparse.ArgumentTypeError(f"{text!r} is not NAME=VALUE")
    return name, value


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
    other = ap.add_mutually_exclusive_group()
    other.add_argument("--against", type=Path, default=None,
                       help="compare the reports of --root with those of this checkout")
    other.add_argument("--env", type=_setting, default=None, metavar="NAME=VALUE",
                       help="compare the reports of --root with its own, run in a fresh "
                            "interpreter with NAME set to VALUE")
    ap.add_argument("--random", type=int, default=0, metavar="N",
                    help="run N commands drawn from --seed instead of the fixed list")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--allow-mended", action="store_true",
                    help="accept a command that is an error (exit 2) in --against only")
    args = ap.parse_args()

    root = args.root.resolve()
    cli, workloads = load(root)
    argvs = (random_commands(args.random, args.seed, cli._TABLE1) if args.random
             else commands(cli._TABLE1, workloads))
    if args.against is None and args.env is None:
        for argv in argvs:
            sha, code = digest(cli.main, argv)
            print(sha, code, " ".join(argv))
        return 0

    ours = [run(cli.main, argv, root) for argv in argvs]
    if args.env is not None:
        theirs = run_in_child(root, argvs, *args.env)
    else:
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
