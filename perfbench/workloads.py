"""Seeded argv generators for the three benchmark workloads.

Each workload is an endless stream of passes; a pass is a list of argv lists
for `stochorder.cli.main`. The stream depends only on the seed, so one seed
always yields the same inputs in the same order. Every draw stays inside the
range where the command is valid (parameters inside their intervals, tail
targets reachable within the default `--kmax`, scan grids inside
`[nu1, nu2]`), and the closed-form cells keep a relative gap from every
threshold so that a correct program never lands on a boundary.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Iterator

Argv = list[str]
Pass = list[Argv]

# Table-1 rows of the catalogue with the parameter range each row is scanned
# on (the same ranges as the `table --id table1` reproduction) and the open
# interval the parameter lives in.
TABLE1_RANGES = (
    ("poisson", 1.0, 3.0, (0.0, math.inf)),
    ("geometric", 0.3, 0.6, (0.0, 1.0)),
    ("negbinomial-in-q", 0.3, 0.6, (0.0, 1.0)),
    ("negbinomial-in-shape", 1.5, 4.0, (0.0, math.inf)),
    ("binomial-in-p", 0.2, 0.6, (0.0, 1.0)),
    ("betabinomial-in-r", 1.0, 3.0, (0.0, math.inf)),
    ("betabinomial-in-s", 1.0, 3.0, (0.0, math.inf)),
    ("logseries", 0.3, 0.7, (0.0, 1.0)),
    ("cmp-in-dispersion", 0.8, 1.6, (0.0, math.inf)),
    ("zero-inflated-poisson", 3.0, 5.0, (0.0, math.inf)),
    ("gamma-in-shape", 1.5, 3.0, (0.0, math.inf)),
    ("gamma-in-rate", 0.8, 1.6, (0.0, math.inf)),
    ("exponential-in-rate", 0.8, 1.6, (0.0, math.inf)),
    ("weibull-in-rate", 0.8, 1.6, (0.0, math.inf)),
    ("beta-in-alpha", 1.5, 3.0, (0.0, math.inf)),
    ("beta-in-beta", 1.5, 3.0, (0.0, math.inf)),
    ("pareto-in-shape", 1.5, 3.0, (0.0, math.inf)),
    ("halfnormal-in-scale", 0.8, 1.6, (0.0, math.inf)),
    ("lognormal-in-mu", 0.0, 0.8, (-math.inf, math.inf)),
    ("gumbel-in-location", 0.0, 0.8, (-math.inf, math.inf)),
    ("half-student-in-df", 2.0, 5.0, (0.0, math.inf)),
    ("zero-inflated-exponential", 1.0, 2.0, (0.0, math.inf)),
)

# rows of the catalogue on a continuous or mixed support
CONTINUOUS_ROWS = tuple(row for row in TABLE1_RANGES if row[0] in {
    "gamma-in-shape", "gamma-in-rate", "exponential-in-rate", "weibull-in-rate",
    "beta-in-alpha", "beta-in-beta", "pareto-in-shape", "halfnormal-in-scale",
    "lognormal-in-mu", "gumbel-in-location", "half-student-in-df",
    "zero-inflated-exponential",
})

ORDERS = ("lr", "lc", "st", "hr")

# relative distance every closed-form cell keeps from its thresholds
THRESHOLD_GAP = 0.15


def _num(x: float) -> str:
    return format(x, ".6g")


def _spec(name: str, **params: float) -> str:
    return name + ":" + ",".join(f"{k}={_num(v)}" for k, v in params.items())


def _jittered_pair(rng: random.Random, lo: float, hi: float, interval) -> tuple[float, float]:
    """Endpoints within 10% of the row's width around its Table-1 range."""
    width = hi - lo
    a = lo + width * rng.uniform(-0.1, 0.1)
    b = hi + width * rng.uniform(-0.1, 0.1)
    ilo, ihi = interval
    if math.isfinite(ilo):
        a = max(a, ilo + 0.05 * width)
    if math.isfinite(ihi):
        b = min(b, ihi - 0.05 * width)
    return float(_num(a)), float(_num(b))


def _check(family: str, nu1: float, nu2: float, *extra: str) -> Argv:
    # the `--flag=value` form keeps argparse from reading a negative value in
    # exponent notation as an option
    return ["check", "--family", family, f"--nu1={_num(nu1)}", f"--nu2={_num(nu2)}", *extra]


# ---------------------------------------------------------------------------
# catalogue-check


def catalogue_check(rng: random.Random) -> Pass:
    # The paper's main use: many short `check` commands, one per Table-1
    # family, with all four orders and default grids, plus the table1
    # reproduction. The slow tail (p95) is the two negative-binomial rows,
    # whose grid span calls the scalar log-Pochhammer ~170k times each; the
    # median is the criterion scans, repeated density evaluations and the
    # CLI's per-call overhead.
    out = [_check(name, *_jittered_pair(rng, lo, hi, interval))
           for name, lo, hi, interval in TABLE1_RANGES]
    out.append(["table", "--id", "table1"])
    return out


# ---------------------------------------------------------------------------
# closed-forms


def _katz_bin_poi(rng: random.Random) -> Argv:
    # Bin(n,p) <=lr Poi(lam) iff lam >= np/(1-p); <=st iff lam >= -n log(1-p)
    n = rng.randint(4, 20)
    p = rng.uniform(0.1, 0.5)
    lam = _katz_value(rng, -n * math.log1p(-p), n * p / (1.0 - p), larger_holds=True)
    return ["pairwise", "--p", _spec("binomial", n=n, p=p),
            "--q", _spec("poisson", **{"lambda": lam})]


def _katz_bin_nb(rng: random.Random) -> Argv:
    # Bin(n,p) <=lr NB(r,pi) iff pi <= 1 - np/(r(1-p)); <=st iff pi <= (1-p)^(n/r)
    n = rng.randint(3, 12)
    p = rng.uniform(0.05, 0.3)
    r = n * p / (1.0 - p) * rng.uniform(2.0, 4.0)
    pi = _katz_value(rng, (1.0 - p) ** (n / r), 1.0 - n * p / (r * (1.0 - p)),
                     larger_holds=False, cap=0.95)
    return ["pairwise", "--p", _spec("binomial", n=n, p=p),
            "--q", _spec("negbinomial", r=r, p=pi)]


def _katz_poi_nb(rng: random.Random) -> Argv:
    # Poi(lam) <=lr NB(r,p) iff lam <= r(1-p); <=st iff lam <= -r log p
    r = rng.uniform(1.0, 6.0)
    p = rng.uniform(0.3, 0.7)
    lam = _katz_value(rng, -r * math.log(p), r * (1.0 - p), larger_holds=False)
    return ["pairwise", "--p", _spec("poisson", **{"lambda": lam}),
            "--q", _spec("negbinomial", r=r, p=p)]


def _katz_value(rng, at_st, at_lr, *, larger_holds, cap=math.inf):
    """A value of the free parameter in one of three regions, picked at
    random among those that exist: both orders hold, only st holds, or
    neither. lr implies st, so the lr threshold is the stricter one;
    `larger_holds` says on which side of a threshold the order holds."""
    g = THRESHOLD_GAP
    lo, hi = sorted((at_st, at_lr))
    regions = ["both", "neither"]
    if lo * (1.0 + g) < hi * (1.0 - g):
        regions.append("st-only")
    region = rng.choice(regions)
    if region == "st-only":
        return rng.uniform(lo * (1.0 + g), hi * (1.0 - g))
    if larger_holds:
        if region == "both":
            return at_lr * rng.uniform(1.0 + g, 1.6)
        return at_st * rng.uniform(0.3, 1.0 - g)
    if region == "both":
        return at_lr * rng.uniform(0.4, 1.0 - g)
    return rng.uniform(at_st * (1.0 + g), min(at_st * 1.5, cap))


def _betabin_hyp(rng: random.Random) -> Argv:
    n = rng.randint(3, 12)
    return ["pairwise",
            "--p", _spec("betabinomial", n=n, r=rng.uniform(0.5, 4.0), s=rng.uniform(0.5, 4.0)),
            "--q", _spec("hypergeometric", B=rng.randint(n, 40), W=rng.randint(n, 40), n=n)]


# counting laws of Table 2 with the parameter range they are scanned on
_COUNTING = (
    ("poisson", 0.5, 3.0),
    ("geometric", 0.2, 0.7),
    ("negbinomial", 0.2, 0.7),
    ("binomial", 0.1, 0.7),
    ("logseries", 0.2, 0.7),
)


def _compound(rng: random.Random, counting: str, lo: float, hi: float) -> Argv:
    width = hi - lo
    a = rng.uniform(lo, hi - 0.2 * width)
    b = rng.uniform(a + 0.1 * width, hi)
    spec = _spec("binomial", n0=rng.randint(5, 30)) if counting == "binomial" else counting
    if rng.random() < 0.5:
        summand = _spec("geometric", p=rng.uniform(0.25, 0.8))
    else:
        summand = _spec("poisson-shifted", mu=rng.uniform(0.5, 3.0))
    return ["compound", "--counting", spec, "--summand", summand, "--nu1", _num(a), "--nu2", _num(b)]


def _gamma_path(rng: random.Random, *extra: str, order: str | None = None) -> Argv:
    r1 = rng.uniform(0.8, 2.5)
    rho1 = rng.uniform(1.0, 3.0)
    spec = _spec("gamma", r1=r1, r2=r1 * rng.uniform(1.1, 2.0),
                 rho1=rho1, rho2=rho1 / rng.uniform(1.1, 2.0))
    return ["path", "--name", spec, "--order", order or rng.choice(ORDERS), *extra]


def _negbinomial_path(rng: random.Random) -> Argv:
    r1 = rng.uniform(0.8, 3.0)
    q1 = rng.uniform(0.2, 0.45)
    spec = _spec("negbinomial", r1=r1, r2=r1 * rng.uniform(1.1, 2.0),
                 q1=q1, q2=q1 * rng.uniform(1.05, 1.4))
    return ["path", "--name", spec, "--order", rng.choice(ORDERS)]


def _betabinomial_path(rng: random.Random) -> Argv:
    r1 = rng.uniform(0.5, 3.0)
    s1 = rng.uniform(1.0, 4.0)
    spec = _spec("betabinomial", n=rng.randint(3, 30), r1=r1, r2=r1 * rng.uniform(1.1, 2.0),
                 s1=s1, s2=s1 / rng.uniform(1.1, 2.0))
    return ["path", "--name", spec, "--order", rng.choice(ORDERS)]


def _interpolation_path(rng: random.Random) -> Argv:
    # the lr order holds iff p >= (r+n-1)/(r+s+n-1); stay clear of it
    n = rng.randint(3, 20)
    r = rng.uniform(0.5, 4.0)
    s = rng.uniform(0.5, 4.0)
    threshold = (r + n - 1.0) / (r + s + n - 1.0)
    if rng.random() < 0.5 and threshold * (1.0 + THRESHOLD_GAP) < 0.98:
        p = rng.uniform(threshold * (1.0 + THRESHOLD_GAP), 0.98)
    else:
        p = rng.uniform(0.02, threshold * (1.0 - THRESHOLD_GAP))
    return ["path", "--name", _spec("interpolation", n=n, r=r, s=s, p=p)]


def closed_forms(rng: random.Random) -> Pass:
    # The cross-family routes: Katz cells on every side of both thresholds,
    # beta-binomial against hypergeometric, random sums over the Table-2
    # counting laws, the named parameter paths and the two closed-form
    # tables. The work sits in pairwise.law_distribution (10 001 points per
    # infinite-support law), the oracle and compound._conv_table; the
    # criterion scans and catalog.default_grid are nearly idle, so a change
    # to those two should leave this workload unchanged.
    out = [make(rng) for make in (_katz_bin_poi, _katz_bin_nb, _katz_poi_nb) for _ in range(2)]
    out.append(_betabin_hyp(rng))
    out.extend(_compound(rng, name, lo, hi) for name, lo, hi in _COUNTING)
    out.append(_gamma_path(rng))
    out.append(_negbinomial_path(rng))
    out.append(_betabinomial_path(rng))
    out.append(_interpolation_path(rng))
    out.append(["table", "--id", "table2"])
    out.append(["table", "--id", "katz"])
    return out


# ---------------------------------------------------------------------------
# wide-grid


def _wide_check(rng: random.Random, row) -> Argv:
    name, lo, hi, interval = row
    nu1, nu2 = _jittered_pair(rng, lo, hi, interval)
    points = rng.randint(16_000, 24_000)
    n_nu = rng.randint(61, 69)
    nus = ",".join(_num(nu1 + (nu2 - nu1) * i / (n_nu - 1)) for i in range(n_nu))
    return _check(name, nu1, nu2, f"--grid-points={points}", f"--nu-grid={nus}")


def _large_mean(rng: random.Random) -> Argv:
    # Large means stop where every grid mass still exceeds the smallest
    # double (log-mass > -745): below it the density holds exact zeros, which
    # the oracle reads as a support gap and so refutes lc for two binomials
    # or Poisson laws whose kernel is affine in x.
    if rng.random() < 0.5:
        theta = rng.uniform(150.0, 400.0)
        return _check("poisson", theta, theta * rng.uniform(1.2, 1.6))
    p = rng.uniform(0.15, 0.4)
    return _check(_spec("binomial-in-p", n=rng.randint(100, 300)), p, p * rng.uniform(1.2, 1.8))


def wide_grid(rng: random.Random) -> Pass:
    # A few long commands: every continuous and mixed family once, in random
    # order, on ~20 000-point grids with ~65-value nu scans, plus large-mean
    # Poisson or binomial rows and a long gamma path for each order. Per-
    # element numpy work on long vectors dominates; the special functions and
    # the CLI's per-call overhead are idle, and memory is most exposed here,
    # so a change that caches a (nu x points) block shows its peak_rss_mb cost
    # on this workload. Every pass holds the same mix of families and orders,
    # which keeps the median inside the band of the long checks.
    rows = list(CONTINUOUS_ROWS)
    rng.shuffle(rows)
    out = [_wide_check(rng, row) for row in rows]
    out.extend(_large_mean(rng) for _ in range(3))
    out.extend(_gamma_path(rng, "--t-points", str(rng.randint(121, 137)),
                           "--grid-points", str(rng.randint(16_000, 24_000)), order=order)
               for order in rng.sample(ORDERS, len(ORDERS)))
    return out


WORKLOADS: dict[str, Callable[[random.Random], Pass]] = {
    "catalogue-check": catalogue_check,
    "closed-forms": closed_forms,
    "wide-grid": wide_grid,
}


def passes(workload: str, seed: int) -> Iterator[Pass]:
    """The endless pass stream of a workload; equal seeds give equal streams."""
    make = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield make(rng)
