"""Kernel criteria deciding stochastic orders inside a one-parameter family.

Everything here reads off order relations from the shape of the kernel
K_nu(x) = d/dnu log w_nu(x) and of the score s_nu = K_nu - E[K_nu(X)]:

  likelihood ratio   up  <=>  K_nu nondecreasing in x for every nu
  log-concavity      down <=> K_nu concave in x for every nu
  usual (st)         up  <=>  E[K_nu | X >= x] >= E[K_nu] for every nu, x
  hazard rate        up  <=>  K_nu(x) <= E[K_nu | X >= x] for every nu, x

The st and hr rows are the signs of d/dnu log P(X >= x) = E[K_nu | X >= x]
- E[K_nu] and d/dnu log hazard(x) = K_nu(x) - E[K_nu | X >= x] (Shaked &
Shanthikumar, Stochastic Orders, 2007, ch. 1), whose tail means one backward
pass (`_tail_means`) gives.

Direction semantics: 'up' claims P_{nu1} <= P_{nu2} whenever nu1 <= nu2,
'down' the reverse. The log-concavity test in direction 'down' is concavity,
because a concave kernel dominates the larger parameter; 'up' tests convexity.
Triplet tests use increment differences: second differences on integer
grids, slope differences otherwise.

Every test is one pass of `scan_kernel` over the parameter grid: per nu it
builds the kernel once, and the law and tail means only while a test that
reads them is open, holding one nu at a time (O(grid) memory). A kernel that
does not depend on nu (`DensityFamily.fixed_kernel`, declared per law in
`catalog.Law.fixed_kernels`; a pairwise kernel) is one array built for the
whole scan, and so are its slopes, its curvature and their extremes: after
the first nu, lr, lc and the st/hr skip below make no pass over the grid
(but for the witness search past a NaN margin, which finds none), and only
a tail pass that runs reads the law at its nu. The kernel at any nu
has the same bits, so every verdict is the one a rebuild per nu gives. Where
sign * K_nu is nondecreasing on the grid (min of the signed slopes >= 0,
exactly; a NaN slope says no), Chebyshev's sum inequality on the grid law
gives E[K | X >= x] >= E[K] and >= K(x) at every x, the step behind
lr => hr => st, so st and hr skip that nu: it adds no margin, and a test
skipped at every nu holds with no margin and says so. Tolerances are >= 0,
as the skip demands no positive margin. Each test
keeps its first witness, first in nu and then in x, and its worst margin.
`scan_kernel` takes any list of (order, direction) tests and runs them in
one pass, and a one-test list alone; per test it returns the first witness,
the margin and how many nus the st/hr skip settled. It is the criterion
route's one first-witness search: `scan_orders`, the pairwise, path and
compound kernel tests, the PF2 test of a compound summand (lc down on its
log pmf) and the Table-1 sign columns all run through it.

A direction is a sign, not a negated copy: at each nu a test reads sign * m
off its order's unsigned margins m (the slopes for lr, the curvature for lc,
the st or hr tail gap, which hr reads negated), so both directions of an
order share one vector per nu. The test takes one reduction, min(m) or
-max(m), and searches for the first point with sign * m < -tol only when
that falls below -tol; both are exact, so the witness and worst margin
equal those of the signed copy bit for bit.
Tail tests keep the points whose survival exceeds EPS_TAIL. The survival is
a reversed running sum of nonnegative masses, so it is nonincreasing and
those points are a prefix of the grid, found by one binary search and read
as slices.

The quantifier over nu is scanned on a finite grid, so holds means "holds at
every scanned parameter", exact in x per scanned value.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from .catalog import DensityFamily, Distribution, SupportGrid, density
from .verdicts import DIRECTIONS, ORDERS, OrderVerdict, Witness

__all__ = [
    "TOL_SHAPE",
    "TOL_TAIL",
    "EPS_TAIL",
    "NU_POINTS",
    "nu_scan",
    "scan_kernel",
    "scan_orders",
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


class _Kernel:
    """K on the grid and what is read from K alone: its slopes, its curvature
    (derived on first use) and their least signed margins, each taken once.
    A scan builds one per nu, or one for every nu when K does not depend on
    nu; it holds no array of the law."""

    def __init__(self, grid: SupportGrid, k: np.ndarray) -> None:
        self.k = k
        self.slopes = _slopes(grid, k)
        self._lows: dict[tuple[bool, float], float] = {}

    @cached_property
    def curvature(self) -> np.ndarray:
        """Increment differences: second differences on integer grids, slope
        differences otherwise."""
        return np.diff(self.slopes)

    def low(self, m: np.ndarray, sign: float) -> float:
        """min(sign * m) without the signed copy: -max(m) == min(-m). Kept
        per sign for the kernel's own slopes and curvature; any other m is a
        tail gap of one nu and is not kept."""
        own = m is self.slopes or m is self.__dict__.get("curvature")
        key = (m is self.slopes, sign)
        if own and key in self._lows:
            return self._lows[key]
        value = float(m.min() if sign > 0 else -m.max())
        if own:
            self._lows[key] = value
        return value


def scan_kernel(
    kernel: Callable[[float], np.ndarray] | np.ndarray,
    nus,
    grid: SupportGrid,
    tests: Sequence[tuple[str, str]],
    tol_shape: float = TOL_SHAPE,
    tol_tail: float = TOL_TAIL,
    law: Callable[[float], np.ndarray] | None = None,
) -> list[tuple[Witness | None, float | None, int]]:
    """Run every (order, direction) test (see the module docstring) over one
    pass of nus; kernel(nu) gives K_nu on grid.points, or kernel is the one
    array K that holds at every nu, and law(nu) gives the masses of P_nu
    there, read by the st and hr tests where the survival exceeds EPS_TAIL.
    Returns, per test, its first witness and that witness's margin, or
    None and the worst margin seen (None when no margin was tested), and the
    number of nus whose st or hr test the kernel's shape settled."""
    for name, tol in (("tol_shape", tol_shape), ("tol_tail", tol_tail)):
        if not tol >= 0:
            raise ValueError(f"{name} must be a number >= 0, got {tol!r}")
    for order, direction in tests:
        if order not in ORDERS:
            raise ValueError(f"unknown order {order!r}; valid orders: {', '.join(ORDERS)}")
        if direction not in DIRECTIONS:
            raise ValueError(
                f"unknown direction {direction!r}; valid directions: {', '.join(DIRECTIONS)}")
    pts = grid.points
    fixed = None if callable(kernel) else _Kernel(grid, np.asarray(kernel, dtype=float))
    witnesses: list[Witness | None] = [None] * len(tests)
    worst = [math.inf] * len(tests)
    implied = [0] * len(tests)
    for nu in nus:
        open_tests = [i for i, w in enumerate(witnesses) if w is None]
        if not open_tests:
            break
        nu = float(nu)
        kern = fixed if fixed is not None else _Kernel(grid, np.asarray(kernel(nu), dtype=float))
        tails, gaps = None, {}  # at this nu, from one tail pass shared by st and hr
        for i in open_tests:
            order, direction = tests[i]
            sign = 1.0 if direction == "up" else -1.0
            if order == "lr":
                xs, m, tol, kind = pts[:-1], kern.slopes, tol_shape, "adjacent-pair"
            elif order == "lc":
                xs, m, tol, kind = pts[1:-1], kern.curvature, tol_shape, "triplet"
            elif kern.slopes.size and kern.low(kern.slopes, sign) >= 0:
                implied[i] += 1  # lr => hr => st at this nu: no tail pass
                continue
            else:
                if order not in gaps:
                    if tails is None:
                        surv, tail, grand = _tail_means(kern.k, law(nu))
                        tails = _prefix_length(surv, EPS_TAIL), tail, grand
                    # where the survival exceeds EPS_TAIL: E[K | X >= x] - E[K] (st)
                    # or K(x) - E[K | X >= x] (hr)
                    n, tail, grand = tails
                    gaps[order] = tail[:n] - grand if order == "st" else kern.k[:n] - tail[:n]
                m = gaps[order]
                xs, tol, kind = pts[:m.size], tol_tail, "grid-point"
                if order == "hr":
                    sign = -sign  # hr's margin is E[K | X >= x] - K(x), the negated gap
            if not m.size:
                continue
            low = kern.low(m, sign)
            if low >= -tol:
                worst[i] = min(worst[i], low)
                continue
            bad = np.flatnonzero(sign * m < -tol)
            if bad.size:  # else a NaN margin: no witness, and the worst margin stays
                j = bad[0]
                witnesses[i] = Witness(x=float(xs[j]), margin=float(sign * m[j]), nu=nu, kind=kind)
    return [
        (w, w.margin, c) if w is not None else (None, None if math.isinf(m) else m, c)
        for w, m, c in zip(witnesses, worst, implied)
    ]


# ---------------------------------------------------------------------------
# verdicts of a family scan


def _family_kernel(f: DensityFamily, grid: SupportGrid,
                   nus) -> Callable[[float], np.ndarray] | np.ndarray:
    """f's kernel on grid.points as `scan_kernel` reads it over nus: the one
    array, built at the first nu, when f.fixed_kernel says it holds at every
    nu; else the callable of nu. A kernel that overflows, divides by zero or
    gives an invalid value at a nu, and so is not finite there, is refused
    naming f and that nu, from numpy's own flags rather than a pass over it."""

    def kernel(nu: float) -> np.ndarray:
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                return np.asarray(f.kernel(nu, grid.points), dtype=float)
        except ArithmeticError:  # numpy's FloatingPointError, or math's own
            raise ValueError(
                f"{f.describe()}: kernel not finite at {f.param_name}={nu:g}") from None

    return kernel(nus[0]) if f.fixed_kernel and len(nus) else kernel


_SCANNED_NOTE = "holds on the scanned parameter grid; exact in x per scanned value"
_IMPLIED_NOTE = ("holds on the scanned parameter grid; "
                 "implied by lr: the kernel is monotone at every scanned nu")


def _verdict(order: str, direction: str, tolerances: dict, witness: Witness | None,
             margin: float | None, note: str) -> OrderVerdict:
    """The kernel criterion's verdict: fails at its witness, else holds."""
    status, note = ("holds", note) if witness is None else ("fails", "")
    lohi = ("P[nu1]", "P[nu2]") if direction == "up" else ("P[nu2]", "P[nu1]")
    return OrderVerdict(
        order=order, direction=direction, status=status, method="kernel-criterion",
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
    known_laws: Mapping[float, Distribution] | None = None,
) -> list[OrderVerdict]:
    """Kernel-criterion verdicts of the (order, direction) tests from one scan
    of f over nu_grid; each equals the verdict a scan of that test alone
    gives; the st and hr verdicts report EPS_TAIL, the survival their tail
    means need. known_laws maps nu to `density(f, nu, grid)` already
    evaluated by the caller, which the scan does not evaluate again. A grid
    of two points has no triplet, so lc holds there with no margin, as it
    does in `pairwise`."""
    nus = [f.validate_param(nu) for nu in np.atleast_1d(np.asarray(nu_grid, dtype=float))]
    if not nus:
        raise ValueError("empty parameter grid")
    known = known_laws or {}

    def law(nu: float) -> np.ndarray:
        d = known.get(nu)
        return (d if d is not None else density(f, nu, grid)).masses

    results = scan_kernel(_family_kernel(f, grid, nus), nus, grid, tests, tol_shape, tol_tail,
                          law=law)
    size = {"nu_points": len(nus), "grid_points": grid.size}
    shape, tail = {"tol_shape": tol_shape}, {"tol_tail": tol_tail, "eps_tail": EPS_TAIL}
    return [
        _verdict(o, d, {**(shape if o in ("lr", "lc") else tail), **size}, w, margin,
                 _IMPLIED_NOTE if implied == size["nu_points"] else _SCANNED_NOTE)
        for (o, d), (w, margin, implied) in zip(tests, results)
    ]
