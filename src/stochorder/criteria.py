"""Kernel criteria deciding stochastic orders inside a one-parameter family.

Everything here reads off order relations from the shape of the kernel
K_nu(x) = d/dnu log w_nu(x) and of the score s_nu = K_nu - E[K_nu(X)]:

  likelihood ratio   up  <=>  K_nu nondecreasing in x for every nu
  log-concavity      down <=> K_nu concave in x for every nu
  usual (st)         up  <=>  E[K_nu | X >= x] >= E[K_nu] for every nu, x
  hazard rate        up  <=>  K_nu(x) <= E[K_nu | X >= x] for every nu, x

Direction semantics: 'up' claims P_{nu1} <= P_{nu2} whenever nu1 <= nu2,
'down' the reverse. The log-concavity check defaults to 'down' because a
concave kernel dominates the larger parameter; 'up' tests convexity.

Every check is one pass of `scan_kernel` over the parameter grid: per nu it
builds the kernel once, and the law and tail means only while a test that
reads them is open, holding one nu at a time (O(grid) memory). Each test
keeps its first witness, first in nu and then in x, and its worst margin.
`scan_orders` runs several tests in one pass; `check_*` are one-test views.

A direction is a sign carried with each step, not a negated copy: a probe
yields unsigned margins m and a sign, and the test reads sign * m. Both
directions of an order thus share one vector per nu. The test takes one
reduction, min(m) or -max(m), and searches for the first point with
sign * m < -tol only when that falls below -tol; both are exact, so the
witness and worst margin equal those of the signed copy bit for bit.
Tail tests keep the points whose survival exceeds eps_tail. The survival is
a reversed running sum of nonnegative masses, so it is nonincreasing and
those points are a prefix of the grid, found by one binary search and read
as slices.

The quantifier over nu is scanned on a finite grid, so holds means "holds at
every scanned parameter", exact in x per scanned value. The superlevel and
unimodal-endpoint checks are sufficient conditions only: a violated
hypothesis yields status 'inconclusive', never 'fails'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .catalog import DensityFamily, Distribution, SupportGrid, density
from .verdicts import OrderVerdict, Witness

__all__ = [
    "TOL_SHAPE",
    "TOL_TAIL",
    "EPS_TAIL",
    "NU_POINTS",
    "nu_scan",
    "TailMeanProfile",
    "tail_mean_profile",
    "weighted_log_derivative",
    "order_probe",
    "scan_kernel",
    "scan_orders",
    "check_lr",
    "check_lc",
    "check_st",
    "check_hr",
    "check_superlevel",
    "check_unimodal_endpoint",
    "check_concave_endpoint",
]

TOL_SHAPE = 1e-9  # sign tests on analytic kernel values
TOL_TAIL = 1e-8  # tests involving cumulative sums
EPS_TAIL = 1e-12  # survival threshold below which tail means are skipped
NU_POINTS = 17  # default parameter-scan resolution


def nu_scan(nu_lo: float, nu_hi: float, n: int = NU_POINTS) -> np.ndarray:
    """Scan grid over [nu_lo, nu_hi]: log-spaced when the span is wide."""
    lo, hi = sorted((float(nu_lo), float(nu_hi)))
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo == hi:
        raise ValueError("nu_scan needs two distinct finite endpoints")
    if n < 2:
        raise ValueError("nu_scan needs at least two points")
    if lo > 0 and hi / lo >= 10.0:
        return np.geomspace(lo, hi, n)
    return np.linspace(lo, hi, n)


# ---------------------------------------------------------------------------
# the scan


def _slopes(grid: SupportGrid, v: np.ndarray) -> np.ndarray:
    """Adjacent-pair increments: plain differences for integer grids, divided
    differences elsewhere so the uneven atom cell of mixed grids is handled."""
    dv = np.diff(v)
    if grid.kind == "discrete":
        return dv
    return dv / grid.cell_widths


def _prefix_length(surv: np.ndarray, eps: float) -> int:
    """How many leading entries of a nonincreasing survival exceed eps: for
    such an array `surv > eps` is exactly the prefix of that length."""
    return surv.size - int(np.searchsorted(surv[::-1], eps, side="right"))


def _tail_means(k: np.ndarray, masses: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Survival P(X >= x), tail mean E[K | X >= x] on the prefix where the
    survival is positive, and grand mean E[K], by one backward pass."""
    surv = np.cumsum(masses[::-1])[::-1]
    tail_num = np.cumsum((k * masses)[::-1])[::-1]
    n = _prefix_length(surv, 0.0)
    return surv, tail_num[:n] / surv[:n], float(np.dot(k, masses))


class _Row:
    """One scanned nu: the kernel K_nu on the grid and its slopes. The rest is
    derived on first use and shared by every probe of the row: curvature,
    tails (the result of `_tail_means` under the law at nu) and tail_gap."""

    def __init__(self, nu: float, grid: SupportGrid, k: np.ndarray,
                 law: Callable[[float], np.ndarray] | None) -> None:
        self.nu, self.grid, self.k = nu, grid, k
        self.slopes = _slopes(grid, k)
        self._law = law
        self._gaps: dict[tuple[str, float], tuple[np.ndarray, np.ndarray]] = {}

    @cached_property
    def curvature(self) -> np.ndarray:
        """Increment differences: second differences on integer grids, slope
        differences otherwise."""
        return np.diff(self.slopes)

    @cached_property
    def tails(self) -> tuple[np.ndarray, np.ndarray, float]:
        return _tail_means(self.k, self._law(self.nu))

    def tail_gap(self, order: str, eps: float) -> tuple[np.ndarray, np.ndarray]:
        """The points whose survival exceeds eps, a prefix of the grid, and
        there E[K | X >= x] - E[K] (st) or K(x) - E[K | X >= x] (hr)."""
        key = (order, eps)
        if key not in self._gaps:
            surv, tail, grand = self.tails
            n = _prefix_length(surv, eps)
            gap = tail[:n] - grand if order == "st" else self.k[:n] - tail[:n]
            self._gaps[key] = self.grid.points[:n], gap
        return self._gaps[key]


# points, margins, tolerance, witness kind, sign: the test reads sign * margins
Step = tuple[np.ndarray, np.ndarray, float, str, float]
Probe = Callable[[_Row], Iterator[Step]]


def scan_kernel(
    kernel: Callable[[float], np.ndarray],
    nus,
    grid: SupportGrid,
    probes: Sequence[Probe],
    law: Callable[[float], np.ndarray] | None = None,
) -> list[tuple[Witness | None, float | None]]:
    """Run every probe over one pass of nus; kernel(nu) gives K_nu on
    grid.points and law(nu) the masses of P_nu there. Returns, per probe, its
    first witness and that witness's margin, or None and the worst margin seen
    (None when no margin was tested)."""
    witnesses: list[Witness | None] = [None] * len(probes)
    worst = [math.inf] * len(probes)
    for nu in nus:
        open_tests = [i for i, w in enumerate(witnesses) if w is None]
        if not open_tests:
            break
        row = _Row(float(nu), grid, np.asarray(kernel(float(nu)), dtype=float), law)
        for i in open_tests:
            for xs, m, tol, kind, sign in probes[i](row):
                if not m.size:
                    continue
                # min(sign * m) without the signed copy: -max(m) == min(-m)
                low = float(m.min() if sign > 0 else -m.max())
                if low >= -tol:
                    worst[i] = min(worst[i], low)
                    continue
                bad = np.flatnonzero(sign * m < -tol)
                if bad.size:
                    j = bad[0]
                    witnesses[i] = Witness(x=float(xs[j]), margin=float(sign * m[j]),
                                           nu=row.nu, kind=kind)
                    break
                # a NaN margin: no witness, and the worst margin stays
    return [
        (w, w.margin) if w is not None else (None, None if math.isinf(m) else m)
        for w, m in zip(witnesses, worst)
    ]


def order_probe(
    order: str,
    direction: str,
    tol_shape: float = TOL_SHAPE,
    tol_tail: float = TOL_TAIL,
    eps_tail: float = EPS_TAIL,
) -> Probe:
    """The kernel criterion of one order and direction (see the module docstring)."""
    sign = +1.0 if direction == "up" else -1.0
    eps = max(eps_tail, 0.0)

    def probe(row: _Row) -> Iterator[Step]:
        pts = row.grid.points
        if order == "lr":
            yield pts[:-1], row.slopes, tol_shape, "adjacent-pair", sign
        elif order == "lc":
            yield pts[1:-1], row.curvature, tol_shape, "triplet", sign
        else:
            xs, gap = row.tail_gap(order, eps)
            # hr's margin is E[K | X >= x] - K(x), the negated gap
            yield xs, gap, tol_tail, "grid-point", sign if order == "st" else -sign

    return probe


# ---------------------------------------------------------------------------
# derivative identities


@dataclass(frozen=True)
class TailMeanProfile:
    """Kernel and conditional tail means of one family member on a grid.

    Holds K_nu(x) and E[K_nu(X) | X >= x] per grid point with positive
    survival, plus the grand mean E[K_nu(X)]. The three identities follow by
    subtraction: score, d/dnu log-survival, and d/dnu log-hazard.
    """

    nu: float
    x: np.ndarray
    kernel_values: np.ndarray
    tail_means: np.ndarray
    grand_mean: float
    survival: np.ndarray

    def score(self) -> np.ndarray:
        """d/dnu log f_nu(x) = K_nu(x) - E[K_nu]."""
        return self.kernel_values - self.grand_mean

    def dlog_survival(self) -> np.ndarray:
        """d/dnu log survival(x) = E[K_nu | X >= x] - E[K_nu]."""
        return self.tail_means - self.grand_mean

    def dlog_hazard(self) -> np.ndarray:
        """d/dnu log hazard(x) = K_nu(x) - E[K_nu | X >= x]."""
        return self.kernel_values - self.tail_means


def tail_mean_profile(f: DensityFamily, nu: float, grid: SupportGrid) -> TailMeanProfile:
    """One backward pass giving E[K | X >= x] at every positive-survival point."""
    d = density(f, nu, grid)
    k = np.asarray(f.kernel(nu, grid.points), dtype=float)
    surv, tail, grand = _tail_means(k, d.masses)
    n = tail.size  # the positive-survival prefix
    return TailMeanProfile(
        nu=float(nu),
        x=grid.points[:n],
        kernel_values=k[:n],
        tail_means=tail,
        grand_mean=grand,
        survival=surv[:n],
    )


def weighted_log_derivative(f: DensityFamily, nu: float, u, grid: SupportGrid) -> float:
    """d/dnu log E[u(X)] under P_nu, via the reweighted score mean.

    Equals E^u[K_nu] - E[K_nu] where E^u is the u-tilted law; u may be a
    callable on the grid points or an aligned nonnegative array.
    """
    d = density(f, nu, grid)
    w = np.asarray(u(grid.points) if callable(u) else u, dtype=float)
    if w.shape != grid.points.shape:
        raise ValueError("weight must align with the grid points")
    if np.any(w < 0):
        raise ValueError("weight must be nonnegative")
    wm = w * d.masses
    total = wm.sum()
    if not total > 0:
        raise ValueError("weighted mass is zero")
    k = np.asarray(f.kernel(nu, grid.points), dtype=float)
    return float(np.dot(k, wm) / total - np.dot(k, d.masses))


# ---------------------------------------------------------------------------
# verdicts of a family scan


def _family_scan(f: DensityFamily, nu_grid, grid: SupportGrid, probes,
                 known_laws: Mapping[float, Distribution] | None = None):
    """The scan of a family over nu_grid, and its size for the tolerances;
    a law in known_laws (keyed by nu, on this grid) is not evaluated again."""
    nus = [f.validate_param(nu) for nu in np.atleast_1d(np.asarray(nu_grid, dtype=float))]
    if not nus:
        raise ValueError("empty parameter grid")
    if grid.size < 3:
        raise ValueError("support grid needs at least three points")
    known = known_laws or {}

    def law(nu: float) -> np.ndarray:
        d = known.get(nu)
        return (d if d is not None else density(f, nu, grid)).masses

    results = scan_kernel(lambda nu: f.kernel(nu, grid.points), nus, grid, probes, law=law)
    return results, {"nu_points": len(nus), "grid_points": grid.size}


_SCANNED_NOTE = "holds on the scanned parameter grid; exact in x per scanned value"
_CERTIFIES_ST = _SCANNED_NOTE + "; certifies st as well"

# why a sufficient check is inconclusive, by the kind of its witness
_UNMET = {
    "endpoint-score": "score negative at the left endpoint",
    "superlevel-return": "score returns above zero after going negative",
    "tail-monotone": "score not nonincreasing beyond its superlevel set",
    "rising": "kernel not nondecreasing left of the mode",
    "falling": "kernel not nonincreasing right of the mode",
    "triplet": "kernel not concave",
}


def _verdict(order: str, direction: str, method: str, tolerances: dict, result,
             note: str = _SCANNED_NOTE) -> OrderVerdict:
    """A kernel criterion fails at its witness; a sufficient check whose
    hypothesis is unmet there is inconclusive."""
    witness, margin = result
    if witness is None:
        status = "holds"
    elif method == "kernel-criterion":
        status, note = "fails", ""
    else:
        status, note = "inconclusive", _UNMET[witness.kind]
    lohi = ("P[nu1]", "P[nu2]") if direction == "up" else ("P[nu2]", "P[nu1]")
    return OrderVerdict(
        order=order, direction=direction, status=status, method=method,
        tolerances=tolerances, witness=witness, margin=margin, note=note,
        claim=f"{lohi[0]} <={order} {lohi[1]} whenever nu1 <= nu2 in the scanned range",
    )


def scan_orders(
    f: DensityFamily,
    nu_grid,
    grid: SupportGrid,
    tests: Sequence[tuple[str, str]],
    tol_shape: float = TOL_SHAPE,
    tol_tail: float = TOL_TAIL,
    eps_tail: float = EPS_TAIL,
    known_laws: Mapping[float, Distribution] | None = None,
) -> list[OrderVerdict]:
    """Kernel-criterion verdicts of the (order, direction) tests from one scan;
    each equals the verdict its `check_<order>` view gives alone. known_laws
    maps nu to `density(f, nu, grid)` already evaluated by the caller."""
    probes = [order_probe(o, d, tol_shape, tol_tail, eps_tail) for o, d in tests]
    results, size = _family_scan(f, nu_grid, grid, probes, known_laws)
    shape, tail = {"tol_shape": tol_shape}, {"tol_tail": tol_tail, "eps_tail": eps_tail}
    return [
        _verdict(o, d, "kernel-criterion", {**(shape if o in ("lr", "lc") else tail), **size}, r)
        for (o, d), r in zip(tests, results)
    ]


# ---------------------------------------------------------------------------
# the four kernel criteria


def check_lr(
    f: DensityFamily,
    nu_grid,
    grid: SupportGrid,
    direction: str = "up",
    tol_shape: float = TOL_SHAPE,
) -> OrderVerdict:
    """Likelihood-ratio order via kernel monotonicity on adjacent grid pairs."""
    return scan_orders(f, nu_grid, grid, [("lr", direction)], tol_shape=tol_shape)[0]


def check_lc(
    f: DensityFamily,
    nu_grid,
    grid: SupportGrid,
    direction: str = "down",
    tol_shape: float = TOL_SHAPE,
) -> OrderVerdict:
    """Relative log-concavity via the kernel's second shape.

    direction 'down' tests concavity (larger parameter is dominated), 'up'
    tests convexity. Triplet tests use increment differences: second
    differences on integer grids, slope differences otherwise.
    """
    return scan_orders(f, nu_grid, grid, [("lc", direction)], tol_shape=tol_shape)[0]


def check_st(
    f: DensityFamily,
    nu_grid,
    grid: SupportGrid,
    direction: str = "up",
    tol_tail: float = TOL_TAIL,
    eps_tail: float = EPS_TAIL,
) -> OrderVerdict:
    """Usual order via the sign of E[K | X >= x] - E[K] at every tail point."""
    return scan_orders(f, nu_grid, grid, [("st", direction)],
                       tol_tail=tol_tail, eps_tail=eps_tail)[0]


def check_hr(
    f: DensityFamily,
    nu_grid,
    grid: SupportGrid,
    direction: str = "up",
    tol_tail: float = TOL_TAIL,
    eps_tail: float = EPS_TAIL,
) -> OrderVerdict:
    """Hazard-rate order via the sign of E[K | X >= x] - K(x)."""
    return scan_orders(f, nu_grid, grid, [("hr", direction)],
                       tol_tail=tol_tail, eps_tail=eps_tail)[0]


# ---------------------------------------------------------------------------
# sufficient conditions for the decreasing direction


def _endpoint_verdict(f, nu_grid, grid, probe, order, method, tolerances, note) -> OrderVerdict:
    if not math.isfinite(f.support[0]):
        raise ValueError(f"{f.name}: support is unbounded below, no left endpoint")
    (result,), size = _family_scan(f, nu_grid, grid, [probe])
    return _verdict(order, "down", method, {**tolerances, **size}, result, note)


def check_superlevel(
    f: DensityFamily,
    nu_grid,
    grid: SupportGrid,
    want_hr: bool = False,
    tol_tail: float = TOL_TAIL,
    tol_shape: float = TOL_SHAPE,
) -> OrderVerdict:
    """Score-superlevel test certifying the decreasing usual order.

    For each scanned nu the set {s_nu >= 0} must be a nonempty initial
    interval of the grid; with want_hr the score must also be nonincreasing
    from its last nonnegative point on, upgrading the claim to the
    hazard-rate order. Sufficient only: a violated hypothesis is reported as
    inconclusive, with the offending point attached.
    """

    def probe(row: _Row) -> Iterator[Step]:
        s, pts = row.k - row.tails[2], row.grid.points
        yield pts[:1], s[:1], tol_tail, "endpoint-score", 1.0
        neg = np.flatnonzero(s < -tol_tail)
        if neg.size:
            # the first return above zero is a witness but adds no margin
            back = neg[0] + np.flatnonzero(s[neg[0]:] > tol_tail)[:1]
            yield pts[back], s[back], tol_tail, "superlevel-return", -1.0
        if want_hr:
            nonneg = np.flatnonzero(s >= -tol_tail)
            m = int(nonneg[-1]) if nonneg.size else 0
            yield pts[m:-1], _slopes(row.grid, s)[m:], tol_shape, "tail-monotone", -1.0

    return _endpoint_verdict(
        f, nu_grid, grid, probe, "hr" if want_hr else "st", "superlevel",
        {"tol_tail": tol_tail, "tol_shape": tol_shape},
        _CERTIFIES_ST if want_hr else _SCANNED_NOTE,
    )


def check_unimodal_endpoint(
    f: DensityFamily,
    nu_grid,
    grid: SupportGrid,
    mode_c: float,
    tol_tail: float = TOL_TAIL,
    tol_shape: float = TOL_SHAPE,
) -> OrderVerdict:
    """Unimodal-kernel test: K rises to a fixed mode c, falls after, and the
    score at the left endpoint is nonnegative, for every scanned nu. Certifies
    both the usual and hazard-rate orders in the decreasing direction;
    violated hypotheses give inconclusive."""
    c = float(mode_c)
    pts = grid.points
    # adjacent pairs entirely left/right of c; pairs straddling c are exempt
    left_pairs = np.flatnonzero(pts[1:] <= c)
    right_pairs = np.flatnonzero(pts[:-1] >= c)

    def probe(row: _Row) -> Iterator[Step]:
        yield pts[left_pairs], row.slopes[left_pairs], tol_shape, "rising", 1.0
        yield pts[right_pairs], row.slopes[right_pairs], tol_shape, "falling", -1.0
        yield pts[:1], row.k[:1] - row.tails[2], tol_tail, "endpoint-score", 1.0

    return _endpoint_verdict(
        f, nu_grid, grid, probe, "hr", "unimodal-endpoint",
        {"tol_tail": tol_tail, "tol_shape": tol_shape, "mode_c": c}, _CERTIFIES_ST,
    )


def check_concave_endpoint(
    f: DensityFamily,
    nu_grid,
    grid: SupportGrid,
    tol_tail: float = TOL_TAIL,
    tol_shape: float = TOL_SHAPE,
) -> OrderVerdict:
    """Concave kernel plus nonnegative endpoint score: st and hr, decreasing.

    A concave function's superlevel set is an interval, so this is a special
    case of the superlevel test; kept separate because the hypothesis is
    cheaper to state and check."""

    def probe(row: _Row) -> Iterator[Step]:
        yield row.grid.points[1:-1], row.curvature, tol_shape, "triplet", -1.0
        yield row.grid.points[:1], row.k[:1] - row.tails[2], tol_tail, "endpoint-score", 1.0

    return _endpoint_verdict(
        f, nu_grid, grid, probe, "hr", "concave-endpoint",
        {"tol_tail": tol_tail, "tol_shape": tol_shape}, _CERTIFIES_ST,
    )
