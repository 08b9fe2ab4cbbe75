"""Cross-family comparisons: pairwise log-factor kernels, named parameter
paths, and closed-form order thresholds.

Two laws with positive factors w^P, w^Q on a common support J are compared
through the pairwise kernel K(k) = log(w^P_k / w^Q_k), the (constant-in-t)
path kernel of the geometric interpolation between them:

    P <=lr Q  <=>  K nonincreasing on J, and neither end of P's support lies
                   above the same end of Q's
    P <=lc Q  <=>  K concave on J, and P's support lies inside Q's

`check_pairwise` decides all four orders of one pair from the one kernel K
and one cut of each law.

The concrete laws and the named paths are views of `catalog.LAWS`: a
PairwiseLaw fixes every parameter of an entry and takes its log factor as
log_weight and its log normalizer; a named path is the line theta(t) between
two end points in two of an entry's parameters. It is one object, the
one-parameter family in t (`path_family`), whose kernel is the chain rule
K_t = sum_i theta_i'(t) K^(i) over the entry's kernels of the moved
parameters. It takes its grid from `catalog.default_grid` over the scanned t,
as a catalogue family does over nu, and `check_path_order` reads its kernel
K_t and its law at each t from it. An infinite support is cut by
`catalog._tail_cut`, the catalogue's one tail cut, under the law's log
normalizer and tail ratio; laws are normalized numerically by
`catalog.normalized`.

Closed forms: the Katz-class thresholds evaluate the lr/st boundary
inequalities exactly, and `check_interpolation` scans
the pseudo-sample path BetaBin(n, r + cp, s + c(1-p)) toward Bin(n, p), which
moves r and s together, by its kernel p K^r + (1-p) K^s and reports its lr
threshold p >= (r+n-1)/(r+s+n-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cache, partial
from typing import Callable, Mapping, Sequence

import numpy as np

from .catalog import (
    LAWS, PAIRWISE_KMAX, TAIL_CUT_EPS, TAIL_CUT_KMAX, DensityFamily, Distribution, SupportGrid,
    View, _tail_cut, discrete_grid, given, normalized, parse_spec,
)
from .criteria import TOL_SHAPE, TOL_TAIL, _family_kernel, scan_kernel
from .oracle import oracle_pair
from .verdicts import OrderVerdict, Witness, known, reconcile

__all__ = [
    "PairwiseLaw",
    "LAW_NAMES",
    "make_law",
    "law_from_spec",
    "law_distribution",
    "pairwise_kernel",
    "check_pairwise",
    "katz_laws",
    "katz_threshold",
    "check_path_order",
    "check_interpolation",
    "PATH_NAMES",
    "path_family",
]

# ---------------------------------------------------------------------------
# concrete discrete laws with explicit factors


@dataclass(frozen=True)
class PairwiseLaw:
    """A discrete law given by a positive factor w_k on an integer support."""

    name: str
    support: tuple[float, float]  # upper end may be inf
    log_weight: Callable[[np.ndarray], np.ndarray]
    params: Mapping[str, float] = field(default_factory=dict)
    log_normalizer: float | None = None  # log sum_k w_k, which an infinite support needs
    tail_ratio: float | None = None  # lim w_(k+1)/w_k, which an infinite support needs

    def __post_init__(self) -> None:
        for need in ("log_normalizer", "tail_ratio"):
            if getattr(self, need) is None and not math.isfinite(self.support[1]):
                raise ValueError(f"{self.name}: a law on an infinite support needs its "
                                 f"{need.replace('_', ' ')}")

    def describe(self) -> str:
        ps = ",".join(f"{k}={v:g}" for k, v in self.params.items())
        return f"{self.name}({ps})" if ps else self.name


# pairwise law: its view of a table law, every parameter fixed
_LAW_VIEWS: dict[str, View] = {
    "binomial": View("binomial"),
    "poisson": View("poisson", shown={"theta": "lambda"}),
    "negbinomial": View("negbinomial-p"),
    "geometric": View("geometric-p"),
    "cmp": View("cmp", shown={"lam": "mu"}),
    "betabinomial": View("betabinomial"),
    "hypergeometric": View("hypergeometric"),
}

LAW_NAMES = tuple(sorted(_LAW_VIEWS))


def make_law(name: str, **params: float) -> PairwiseLaw:
    """The named law with every parameter fixed; its factor is the table's."""
    known("law", name, LAW_NAMES)
    view = _LAW_VIEWS[name]
    theta = view.bind(f"{name} law", params)
    law = LAWS[view.law]
    return PairwiseLaw(name, law.support(theta), partial(view.log_factor, name, theta),
                       view.named(theta), law.log_normalizer(theta),
                       None if law.tail_ratio is None else law.tail_ratio(theta))


def law_from_spec(text: str) -> PairwiseLaw:
    name, params = parse_spec(text)
    return make_law(name, **params)


def law_distribution(law: PairwiseLaw, eps_tail: float = TAIL_CUT_EPS) -> Distribution:
    """The law's pmf, normalized over its support; an infinite support is first
    cut by `catalog._tail_cut` on log_weight - log_normalizer, at the first k
    whose bound on the tail past k is <= eps_tail."""
    lo, hi = int(law.support[0]), law.support[1]
    if not math.isfinite(hi):
        [(hi, _)] = _tail_cut(lambda rows, ks: law.log_weight(ks) - law.log_normalizer, lo,
                              TAIL_CUT_KMAX, eps_tail, [law.tail_ratio], law.name)
    return _on_range(law, lo, int(hi))


def _on_range(law: PairwiseLaw, lo: int, hi: int) -> Distribution:
    """The law's pmf on lo..hi, normalized over that range."""
    grid = discrete_grid(lo, hi)
    return normalized(grid, law.log_weight(grid.points))


# ---------------------------------------------------------------------------
# the pairwise comparison


def _common_range(p: PairwiseLaw, q: PairwiseLaw, kmax: int) -> tuple[int, int]:
    """lo..hi, the intersection of the two supports, cut to kmax + 1 points
    when both are infinite; hi < lo when they are disjoint."""
    lo = max(int(p.support[0]), int(q.support[0]))
    hi = min(p.support[1], q.support[1])
    return lo, int(hi) if math.isfinite(hi) else lo + int(kmax)


def pairwise_kernel(
    p: PairwiseLaw, q: PairwiseLaw, kmax: int = PAIRWISE_KMAX
) -> tuple[SupportGrid, np.ndarray]:
    """(grid, K) with K(k) = log(w^P_k / w^Q_k) on the intersection of the two
    supports, cut to kmax + 1 points when both supports are infinite."""
    lo, hi = _common_range(p, q, kmax)
    if hi < lo:
        raise ValueError(f"{p.name} and {q.name} have no common support")
    k = np.arange(lo, hi + 1, dtype=float)
    vals = np.asarray(p.log_weight(k), dtype=float) - np.asarray(q.log_weight(k), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("pairwise kernel undefined: factor vanishes on the common support")
    return discrete_grid(lo, hi), vals


def _support_refusal(order: str, p: PairwiseLaw, q: PairwiseLaw, lo: int, hi: int):
    """(x, note) when the supports alone refute P <=order Q, else None: P's
    upper end first (x = hi), then the lower ends (x = lo)."""
    if p.support[1] > q.support[1]:
        return hi, "dominated support reaches beyond the dominating support"
    if order == "lr" and q.support[0] < p.support[0]:
        return lo, "dominating support starts below the dominated support"
    if order == "lc" and p.support[0] < q.support[0]:
        return lo, "dominated support starts below the dominating support"
    return None


def check_pairwise(
    p: PairwiseLaw, q: PairwiseLaw, orders: Sequence[str], kmax: int = PAIRWISE_KMAX,
    tol_shape: float = TOL_SHAPE, eps_tail: float = TAIL_CUT_EPS,
) -> list[OrderVerdict]:
    """Decide P <=o Q for each order o in `orders`, in that order.

    st and hr are the brute oracle's verdicts; any other order but lr and lc
    raises ValueError. lr and lc read the one kernel K = log(w^P/w^Q), built
    on first use: P <=lr Q needs K nonincreasing and P <=lc Q K concave, each
    one `scan_kernel` pass cross-checked against the oracle (one call for
    both, on Q cut no earlier than P), unless the supports alone refute the
    claim (`_support_refusal`). An lr claim whose P lies wholly below Q's
    support holds with no kernel margin. Each law is cut once, at eps_tail.
    """
    lo, hi = _common_range(p, q, kmax)
    tolerances = {"tol_shape": tol_shape, "grid_points": max(hi - lo + 1, 0)}
    verdicts, crossed = {}, []

    @cache
    def cut() -> tuple[Distribution, Distribution]:
        return law_distribution(p, eps_tail), law_distribution(q, eps_tail)

    @cache
    def kernel() -> tuple[SupportGrid, np.ndarray]:
        return pairwise_kernel(p, q, kmax)

    claim = {o: f"{p.describe()} <={o} {q.describe()}" for o in orders}
    oracle_only = [(o, "up") for o in orders if o not in ("lr", "lc")]
    if oracle_only:  # st or hr; oracle_pair refuses any other order
        verdicts = {v.order: replace(v, claim=claim[v.order])
                    for v in oracle_pair(*cut(), oracle_only)}
    for o in [o for o in ("lr", "lc") if o in orders]:
        refusal = _support_refusal(o, p, q, lo, hi)
        witness, margin, note = None, None, ""
        if refusal is not None:
            witness = Witness(x=float(refusal[0]), margin=-math.inf, kind="support")
            margin, note = witness.margin, refusal[1]
        elif hi < lo:  # lr only: lc's support test needs P's support inside Q's
            note = "dominated support wholly below the dominating one: f_P/f_Q is +inf, then 0"
        else:
            grid, values = kernel()
            [(witness, margin, _)] = scan_kernel(values, [0.0], grid, [(o, "down")], tol_shape)
            witness = witness and replace(witness, nu=None)  # a two-law witness has no nu
        verdicts[o] = OrderVerdict(
            order=o, direction="up", status="fails" if witness else "holds",
            method="pairwise-kernel", tolerances=tolerances, witness=witness, margin=margin,
            claim=claim[o], note=note,
        )
        if refusal is None:
            crossed.append((o, "up"))
    if crossed:
        dp, dq = cut()
        for cross in oracle_pair(dp, _reaching(q, dq, dp), crossed):
            verdicts[cross.order] = reconcile(verdicts[cross.order], cross)
    return [verdicts[o] for o in orders]


def _reaching(law: PairwiseLaw, d: Distribution, other: Distribution) -> Distribution:
    """d, the law cut at its own tail point, extended when needed to the point
    where the other law is cut. Given as the dominating side to the lr and lc
    oracle, so the oracle does not read the earlier cut as the end of its
    support."""
    hi = int(other.support.upper)
    if math.isfinite(law.support[1]) or d.support.upper >= hi:
        return d
    return _on_range(law, int(law.support[0]), hi)


# ---------------------------------------------------------------------------
# closed-form thresholds


# Katz pair: the two laws it compares, each with the pair parameter that
# gives each of the law's parameters
_KATZ_PAIRS: dict[str, tuple[tuple[str, dict[str, str]], ...]] = {
    "bin-poi": (("binomial", {"n": "n", "p": "p"}), ("poisson", {"lambda": "lambda"})),
    "bin-nb": (("binomial", {"n": "n", "p": "p"}), ("negbinomial", {"r": "r", "p": "pi"})),
    "poi-nb": (("poisson", {"lambda": "lambda"}), ("negbinomial", {"r": "r", "p": "p"})),
}


def _katz_params(pair: str, params: Mapping[str, float]) -> dict[str, float]:
    """The pair's parameters, in `_KATZ_PAIRS` order; a missing or unknown one raises."""
    known("katz pair", pair, _KATZ_PAIRS)
    keys = [key for _, names in _KATZ_PAIRS[pair] for key in names.values()]
    return given(f"katz pair {pair!r}", params, keys)


def katz_laws(pair: str, params: Mapping[str, float]) -> tuple[PairwiseLaw, PairwiseLaw]:
    """The pair's two laws at `params`, in the pair's order."""
    ps = _katz_params(pair, params)
    first, second = (make_law(law, **{k: ps[v] for k, v in names.items()})
                     for law, names in _KATZ_PAIRS[pair])
    return first, second


def katz_threshold(pair: str, params: Mapping[str, float]) -> dict[str, bool]:
    """Exact lr/st boundary inequalities for the three Katz-class pairings.

    bin-poi: Bin(n,p) against Poi(lambda); bin-nb: Bin(n,p) against NB(r,pi);
    poi-nb: Poi(lambda) against NB(r,p). Weak inequalities: boundary cases
    count as ordered.
    """
    ps = _katz_params(pair, params)
    if pair == "bin-poi":
        n, p, lam = ps["n"], ps["p"], ps["lambda"]
        return {
            "lr_condition": n * p <= (1.0 - p) * lam,
            "st_condition": (1.0 - p) ** n >= math.exp(-lam),
        }
    if pair == "bin-nb":
        n, p, r, pi = ps["n"], ps["p"], ps["r"], ps["pi"]
        # the odds form np <= r(1-pi)(1-p): the binomial power parameter is
        # p/(1-p), so the slope comparison keeps the (1-p) factor
        return {
            "lr_condition": n * p <= r * (1.0 - pi) * (1.0 - p),
            "st_condition": (1.0 - p) ** n >= pi**r,
        }
    lam, r, p = ps["lambda"], ps["r"], ps["p"]
    return {
        "lr_condition": lam <= r * (1.0 - p),
        "st_condition": math.exp(-lam) >= p**r,
    }


# ---------------------------------------------------------------------------
# parameter paths


def check_path_order(
    family: DensityFamily,
    order: str,
    grid: SupportGrid,
    t_grid,
    tol_shape: float = TOL_SHAPE,
    tol_tail: float = TOL_TAIL,
) -> OrderVerdict:
    """Run the kernel shape test for `order` on a path family's kernel K_t over
    the t-scan `t_grid` in [0, 1] (the family refuses any other t); the law
    at t is the family's factor at t, normalized on the grid.

    The claim is 'up' (law at smaller t below law at larger t) for lr/st/hr
    and 'down' for lc. The laws at t = 0 and t = 1 are compared by the brute
    oracle; disagreement with a conclusive shape verdict downgrades the
    status to inconclusive. A t outside [0, 1] raises before the scan, which
    may read a kernel that does not depend on t at the first t alone;
    `scan_kernel` refuses an unknown order before any test.
    """
    direction = "down" if order == "lc" else "up"
    ts = np.asarray(t_grid, dtype=float)
    outside = ts[~((ts >= 0.0) & (ts <= 1.0))]
    if outside.size:
        raise ValueError(f"{family.name}: t={float(outside[0])!r} outside [0, 1]")

    def law(t: float) -> Distribution:
        return normalized(grid, family.log_factor(t, grid.points))

    tolerances = {"tol_shape": tol_shape, "tol_tail": tol_tail, "t_points": int(ts.size)}
    kernel, coefficient, atom = _family_kernel(family, grid, ts)
    [(witness, margin, implied)] = scan_kernel(
        kernel, ts, grid, [(order, direction)], tol_shape, tol_tail,
        law=lambda t: law(t).masses, coefficient=coefficient, atom=atom,
    )
    lohi = ("P[t0]", "P[t1]") if direction == "up" else ("P[t1]", "P[t0]")
    criterion = OrderVerdict(
        order=order, direction=direction, status="fails" if witness else "holds",
        method="path-kernel", tolerances=tolerances, witness=witness, margin=margin,
        claim=f"{lohi[0]} <={order} {lohi[1]} along the path",
        note="implied by lr: the kernel is monotone at every scanned t"
        if ts.size and implied == ts.size else "",
    )
    [cross] = oracle_pair(law(0.0), law(1.0), [(order, direction)])
    return reconcile(criterion, cross)


# the pseudo-sample weights c at which the interpolation reads its kernel
_C_VALUES = (0.0, 1.0, 10.0, 100.0)


def check_interpolation(
    params: Mapping[str, float], tol_shape: float = TOL_SHAPE,
) -> tuple[OrderVerdict, dict]:
    """Decide BetaBin(n,r,s) <=lr Bin(n,p) along the pseudo-sample path
    BetaBin(n, r + cp, s + c(1-p)), which adds c pseudo-samples and nears
    Bin(n, p) as c grows; `params` gives n, r, s and p.

    The path kernel at weight c is K_c = p K^r + (1-p) K^s, over the
    beta-binomial's kernels at that c:

        K_c(k) = p[psi(r+cp+k) - psi(r+cp)] + (1-p)[psi(s+c(1-p)+n-k) - psi(s+c(1-p))]

    whose forward difference has sign governed by p(s+n-1) - (1-p)r - k for
    every c. The condition p >= (r+n-1)/(r+s+n-1) makes every difference
    nonnegative, certifying the order. One `scan_kernel` lr-up pass over the
    c of _C_VALUES is cross-checked by the oracle on BetaBin(n,r,s) against
    Bin(n,p). Returns the verdict and the path's report inputs: the
    threshold, the condition, the c values and the least kernel step at each.
    """
    label = "interpolation path"
    # n, r, s are the beta-binomial start's parameters and n, p the binomial target's
    bb = View("betabinomial").bind(label, {k: v for k, v in params.items() if k != "p"})
    n, r, s = bb["n"], bb["r"], bb["s"]
    p = View("binomial").bind(label, {k: params[k] for k in ("n", "p") if k in params})["p"]
    threshold = (r + n - 1.0) / (r + s + n - 1.0)
    condition = p >= threshold
    grid, law = discrete_grid(0, n), LAWS["betabinomial"]

    def kernels(cs: Sequence[float]) -> np.ndarray:
        """K_c at each c, one row each."""
        c = np.array(cs)[:, None]
        th = {"n": n, "r": r + c * p, "s": s + c * (1.0 - p)}
        return (p * law.kernels["r"](th, grid.points)
                + (1.0 - p) * law.kernels["s"](th, grid.points))

    [(witness, margin, _)] = scan_kernel(kernels, _C_VALUES, grid, [("lr", "up")], tol_shape)
    criterion = OrderVerdict(
        order="lr", direction="up", status="fails" if witness else "holds",
        method="path-kernel", tolerances={"tol_shape": tol_shape}, witness=witness,
        margin=margin,
        claim=f"betabinomial(n={n},r={r:g},s={s:g}) <=lr binomial(n={n},p={p:g}) "
              "along the pseudo-sample path",
        note=f"lr threshold p >= {threshold:.12g} {'met' if condition else 'unmet'}",
    )
    start = law_distribution(make_law("betabinomial", n=n, r=r, s=s))
    target = law_distribution(make_law("binomial", n=n, p=p))
    path_inputs = {
        "threshold": threshold,
        "condition": condition,
        "c_values": list(_C_VALUES),
        "delta_margins": {format(c, "g"): float(low)
                          for c, low in zip(_C_VALUES, np.diff(kernels(_C_VALUES)).min(axis=1))},
    }
    [cross] = oracle_pair(start, target, [("lr", "up")])
    return reconcile(criterion, cross), path_inputs


# -- named paths for the CLI --------------------------------------------------


# path: the table law it moves through and the two parameters it moves,
# each +1 when it must not decrease along the path and -1 when it must not
# increase; the spec gives each moved parameter p as p1 and p2
_PATHS: dict[str, tuple[str, tuple[tuple[str, int], ...]]] = {
    "negbinomial": ("negbinomial-q", (("r", 1), ("q", 1))),
    "betabinomial": ("betabinomial", (("r", 1), ("s", -1))),
    "gamma": ("gamma", (("r", 1), ("rho", -1))),
}

PATH_NAMES = tuple(sorted(_PATHS))


def path_family(name: str, params: Mapping[str, float]) -> DensityFamily:
    """A named path as the one-parameter family in t: the law at theta(t), on
    the line between its two end points in the moved parameters, with the
    chain-rule kernel K_t(x) = sum_i theta_i'(t) K^(i)_theta(t)(x) over the
    table law's kernels of the moved parameters. The velocity theta' is
    constant, so K_t does not depend on t when every moved parameter's kernel
    is one of the law's `fixed_kernels`, as for the gamma path.
    For t in [0, 1], theta(t) lies between the two ends, inside the law's
    domains, which are intervals; any other t raises ValueError naming it."""
    known("path", name, PATH_NAMES)
    law_name, moves = _PATHS[name]
    ends = []
    for end, other in (("1", "2"), ("2", "1")):
        skip = {p + other for p, _ in moves}
        view = View(law_name, shown={p: p + end for p, _ in moves})
        ends.append(view.bind(f"{name} path", {k: v for k, v in params.items() if k not in skip}))
    for p, sign in moves:
        if sign * (ends[1][p] - ends[0][p]) < 0:
            trend = "nondecreasing" if sign > 0 else "nonincreasing"
            raise ValueError(f"{name} path needs {p} {trend}")
    law, moved, start = LAWS[law_name], [p for p, _ in moves], ends[0]
    a, b = (np.array([e[p] for p in moved], dtype=float) for e in ends)
    velocity = b - a
    fixed = {p: v for p, v in start.items() if p not in moved}

    def at(t) -> dict:
        """theta(t) at a number t, or at a column of them, one row each."""
        for s in t.ravel() if isinstance(t, np.ndarray) else (t,):
            if not 0.0 <= s <= 1.0:  # theta(t) may leave the law's domains
                raise ValueError(f"{name} path: t={float(s)!r} outside [0, 1]")
        return {**start, **{p: a0 + t * v for p, a0, v in zip(moved, a, velocity)}}

    def chain(theta: Mapping, x) -> np.ndarray:
        pts = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros(np.broadcast_shapes(pts.shape, *map(np.shape, theta.values())))
        for p, v in zip(moved, velocity):
            if v != 0.0:  # an idle parameter's kernel is not evaluated
                out += v * np.asarray(law.kernels[p](theta, pts), dtype=float)
        return out

    # fixed kernels read only the unmoved parameters
    factor = ((None, lambda x: chain(fixed, x), None)
              if set(moved) <= set(law.fixed_kernels) else None)
    return View(law_name).curve(f"{name} path", fixed, "t", (-math.inf, math.inf), at,
                                lambda t, x: chain(at(t), x), factor)
