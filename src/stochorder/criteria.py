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
pass (`_tail_means`) gives: the survival and the tail sum of K are paired
in one complex running sum, which gives each the bits of its own real one.

Direction semantics: 'up' claims P_{nu1} <= P_{nu2} whenever nu1 <= nu2,
'down' the reverse. The log-concavity test in direction 'down' is concavity,
because a concave kernel dominates the larger parameter; 'up' tests convexity.
Triplet tests use increment differences: second differences on integer
grids, slope differences otherwise.

Every test is one pass of `scan_kernel` over the parameter grid. A kernel
that changes with nu is read over blocks of nus, one broadcast call a block
(`DensityFamily.kernel` takes a column of nus, each row with the bits of
its own call): the first nu alone, so a test that fails there pays for no
more, then as many nus as keep a block within `catalog._BLOCK_ELEMENTS`
grid points (a 20 000-point grid holds one nu a block). Each block gives
its kernels' slopes, curvature and their signed extremes row by row. A
block that raises a floating-point or overflow refusal is read again one
nu at a time, so the nu a refusal names, and whether one is raised at all
once every test has closed, are those of a scan one nu at a time. The law
and the tail means are built per nu, only while a test that reads them is
open; a scan holds one block of kernels and one law at a time. A kernel
K_nu = a(nu) T + b(nu) (`DensityFamily.factor`, declared per law as a
`catalog.Factored` kernel, or as one of `catalog.Law.fixed_kernels` with
(a, b) = (1, 0); a pairwise kernel is (1, 0) too) is read off one array T
built for the whole scan, and so are T's slopes, its curvature and their
extremes. K_nu's slopes and curvature are a times T's, so (Karlin, Total
Positivity, 1968) K_nu has the shape of sign(a) T: lr and lc read their
margin at nu as |a| times T's least slope or curvature, taken with the sign
of a (0 when a is 0), and the st/hr skip below reads T's slopes with that
sign. After the first nu these make no pass over the grid; a T + b is
built only for a witness search, whose witness and margin are read off it,
or for a tail pass, which alone reads the law at its nu. So a witness and
a tail margin are the ones a rebuild per nu gives, and an lr or lc margin
differs from a rebuild's by rounding alone, which moves a status only
where that rounding crosses the tolerance (k / theta at theta = 1e-290 has
curvature 0, where its rebuild rounds to 1e274); for (1, 0) every bit is
the same. Where sign * K_nu is nondecreasing on the grid (min of the signed
slopes >= 0, exactly; a NaN slope says no), Chebyshev's sum inequality on
the grid law gives E[K | X >= x] >= E[K] and >= K(x) at every x, the step
behind lr => hr => st, so st and hr skip that nu: it adds no margin, and a
test skipped at every nu holds with no margin and says so. Tolerances are >= 0,
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
equal those of the signed copy bit for bit. The st gap E[K | X >= x] - E[K]
is a tail mean less one number, and rounding is monotone, so its least
signed value is read off the extreme tail mean, min(tail) - E[K] or
-(max(tail) - E[K]), with the bits of the extreme of the gaps; the gaps
are built only for a witness search.
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
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .catalog import _BLOCK_ELEMENTS, DensityFamily, Distribution, SupportGrid, density
from .verdicts import DIRECTIONS, ORDERS, OrderVerdict, Witness, known

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
    survival is positive, and grand mean E[K], by one backward pass. E[K] is
    the tail mean at the first point, read off the same sums (0 for a law
    with no mass), so the st margin there is exactly 0 and no BLAS dot
    product, whose sum order follows its thread count, enters a report.

    The two running sums are one: the reversed masses fill the real part of
    one complex buffer and the reversed k * masses its imaginary part, and
    one `np.cumsum` runs over it in place. Complex addition adds the real
    and the imaginary parts apart, each in the order a real running sum
    takes, so the survival and the tail numerator have that sum's bits."""
    sums = np.empty(masses.size, dtype=complex)
    sums.real = masses[::-1]
    np.multiply(k[::-1], masses[::-1], out=sums.imag)
    np.cumsum(sums, out=sums)
    surv, tail_num = sums.real[::-1], sums.imag[::-1]
    n = _prefix_length(surv, 0.0)
    means = tail_num[:n] / surv[:n]
    return surv, means, float(means[0]) if n else 0.0


def _low(m: np.ndarray, sign: float):
    """min(sign * m) over the last axis without the signed copy: -max(m) ==
    min(-m)."""
    return m.min(axis=-1) if sign > 0 else -m.max(axis=-1)


class _Kernel:
    """An array T on the grid, or a block of them, one row per nu, and what
    is read from them alone: slopes, curvature (derived on first use) and
    the least signed value of each, per row, each taken once for all rows.
    A scan builds one per block of nus, or one for every nu when the kernel
    at each nu is a T + b with T fixed; it holds no array of the law."""

    def __init__(self, grid: SupportGrid, k: np.ndarray) -> None:
        self.grid = grid
        self.k = k
        self.slopes = _slopes(grid, k)
        self._lows: dict[tuple[str, float], float | list[float]] = {}

    @cached_property
    def curvature(self) -> np.ndarray:
        """Increment differences: second differences on integer grids, slope
        differences otherwise."""
        return np.diff(self.slopes)

    def vector(self, name: str) -> np.ndarray:
        """The "slopes" or the "curvature"."""
        return getattr(self, name)

    def low(self, name: str, sign: float):
        """min(sign * m) for m the "slopes" or the "curvature", kept per sign:
        a float for one array, a list of one per row for a block."""
        key = (name, sign)
        if key not in self._lows:
            low = _low(getattr(self, name), sign)
            self._lows[key] = float(low) if self.k.ndim == 1 else low.tolist()
        return self._lows[key]

    def affine(self, a: float, b: float) -> _Kernel:
        """a T + b on the grid, and T itself when (a, b) is (1, 0)."""
        return self if (a, b) == (1.0, 0.0) else _Kernel(self.grid, a * self.k + b)


class _Row:
    """Row r of a block `_Kernel`, read as the one array at its nu."""

    def __init__(self, block: _Kernel, r: int) -> None:
        self.block, self.r = block, r
        self.k = block.k[r]
        self._lows: dict[tuple[str, float], float] = {}

    def vector(self, name: str) -> np.ndarray:
        return getattr(self.block, name)[self.r]

    def low(self, name: str, sign: float) -> float:
        key = (name, sign)
        if key not in self._lows:
            self._lows[key] = self.block.low(name, sign)[self.r]
        return self._lows[key]

    def affine(self, a: float, b: float) -> _Row:
        """Itself: a block holds a callable kernel's rows, read with (a, b) = (1, 0)."""
        return self


def _read(kernel: Callable[[list[float]], np.ndarray] | np.ndarray, nus: list[float],
          grid: SupportGrid) -> Iterator[tuple[float, _Kernel | _Row]]:
    """Each nu and the kernel there. A callable kernel is read over blocks
    of nus, one call a block: the first nu alone, then as many as keep a
    block within _BLOCK_ELEMENTS grid points (one at least). A block that
    raises ArithmeticError is read again one nu at a time, so a nu's own
    refusal is raised only when the scan reaches it. Blocks are read as the
    scan asks for them."""
    if not callable(kernel):
        t = _Kernel(grid, np.asarray(kernel, dtype=float))
        yield from ((nu, t) for nu in nus)
        return
    per = max(1, _BLOCK_ELEMENTS // grid.size)
    start, size = 0, 1
    while start < len(nus):
        block, start, size = nus[start : start + size], start + size, per
        try:
            rows = np.asarray(kernel(block), dtype=float)
        except ArithmeticError:
            if len(block) == 1:
                raise
            for nu in block:
                yield nu, _Kernel(grid, np.asarray(kernel([nu]), dtype=float)[0])
            continue
        if len(block) == 1:
            yield block[0], _Kernel(grid, rows[0])
        else:
            rows = _Kernel(grid, rows)
            yield from ((nu, _Row(rows, r)) for r, nu in enumerate(block))


# per shape order: the vector of the kernel it reads, the witness points
# (slice of the grid), the witness kind and the fewest grid points that give
# the vector a value
_SHAPES = {"lr": ("slopes", slice(None, -1), "adjacent-pair", 2),
           "lc": ("curvature", slice(1, -1), "triplet", 3)}


def scan_kernel(
    kernel: Callable[[list[float]], np.ndarray] | np.ndarray,
    nus,
    grid: SupportGrid,
    tests: Sequence[tuple[str, str]],
    tol_shape: float = TOL_SHAPE,
    tol_tail: float = TOL_TAIL,
    law: Callable[[float], np.ndarray] | None = None,
    coefficient: Callable[[float], tuple[float, float]] | None = None,
) -> list[tuple[Witness | None, float | None, int]]:
    """Run every (order, direction) test (see the module docstring) over one
    pass of nus; kernel(block) gives K_nu on grid.points at each nu of a
    list of them, one row per nu, and may raise ArithmeticError on a block
    of several nus, which are then read one at a time (`_read`); or kernel
    is one array T and K_nu = a T + b with (a, b) = coefficient(nu), or T
    itself at every nu when coefficient is None; law(nu) gives the masses
    of P_nu there, read by the st and hr tests where the survival exceeds
    EPS_TAIL. Returns, per test, its first witness and that witness's
    margin, or None and the worst margin seen (None when no margin was
    tested), and the number of nus whose st or hr test the kernel's shape
    settled."""
    for name, tol in (("tol_shape", tol_shape), ("tol_tail", tol_tail)):
        if not tol >= 0:
            raise ValueError(f"{name} must be a number >= 0, got {tol!r}")
    for order, direction in tests:
        known("order", order, ORDERS)
        known("direction", direction, DIRECTIONS)
    pts = grid.points
    witnesses: list[Witness | None] = [None] * len(tests)
    worst = [math.inf] * len(tests)
    implied = [0] * len(tests)
    nus = [float(nu) for nu in nus]
    scaled = None if callable(kernel) else coefficient
    for nu, t in _read(kernel, nus, grid) if tests else ():
        a, b = (1.0, 0.0) if scaled is None else scaled(nu)
        k_nu = None  # K_nu = a T + b, built for a witness search or a tail pass
        tails, hr_gap = None, None  # at this nu, from one tail pass shared by st and hr
        for i in [i for i, w in enumerate(witnesses) if w is None]:
            order, direction = tests[i]
            sign = 1.0 if direction == "up" else -1.0
            t_sign = sign if a > 0 else -sign  # sign * (a T) has the shape of t_sign * T
            if order in _SHAPES:
                name, span, kind, fewest = _SHAPES[order]
                xs, tol = pts[span], tol_shape
                if pts.size < fewest:
                    continue
                # the least of sign * (a m) is |a| times that of t_sign * m
                low = 0.0 if a == 0 else abs(a) * t.low(name, t_sign)
                if not low >= -tol:  # a witness, and its margin, are read off K_nu itself
                    k_nu = k_nu or t.affine(a, b)
                    m, low = k_nu.vector(name), k_nu.low(name, sign)
            elif pts.size > 1 and (a == 0 or t.low("slopes", t_sign) >= 0):
                implied[i] += 1  # lr => hr => st at this nu: no tail pass
                continue
            else:
                k_nu = k_nu or t.affine(a, b)
                if tails is None:
                    surv, tail, grand = _tail_means(k_nu.k, law(nu))
                    n = _prefix_length(surv, EPS_TAIL)
                    tails = tail[:n], grand
                # where the survival exceeds EPS_TAIL: the gap E[K | X >= x] - E[K]
                # (st) or K(x) - E[K | X >= x] (hr)
                tail, grand = tails
                xs, tol, kind = pts[:tail.size], tol_tail, "grid-point"
                if not tail.size:
                    continue
                if order == "st":
                    # rounding is monotone, so the least signed gap is that of the
                    # least signed tail mean; the gaps are built for a witness search
                    m = None
                    low = float(tail.min() - grand if sign > 0 else -(tail.max() - grand))
                else:
                    if hr_gap is None:
                        hr_gap = k_nu.k[:tail.size] - tail
                    m = hr_gap
                    sign = -sign  # hr's margin is E[K | X >= x] - K(x), the negated gap
                    low = float(_low(m, sign))
            if low >= -tol:
                worst[i] = min(worst[i], low)
                continue
            if m is None:
                m = tail - grand
            bad = np.flatnonzero(sign * m < -tol)
            if bad.size:  # else a NaN margin: no witness, and the worst margin stays
                j = bad[0]
                witnesses[i] = Witness(x=float(xs[j]), margin=float(sign * m[j]), nu=nu, kind=kind)
        if all(witnesses):
            break  # before the next nu is read
    return [
        (w, w.margin, c) if w is not None else (None, None if math.isinf(m) else m, c)
        for w, m, c in zip(witnesses, worst, implied)
    ]


# ---------------------------------------------------------------------------
# verdicts of a family scan


def _family_kernel(f: DensityFamily, grid: SupportGrid, nus) -> tuple[
        Callable[[list[float]], np.ndarray] | np.ndarray,
        Callable[[float], tuple[float, float]] | None]:
    """f's kernel on grid.points as `scan_kernel` reads it over nus, and its
    coefficient: when f has a factor, the statistic's one array, built once,
    and the coefficient of nu (None for a fixed kernel); else the callable
    of a block of nus, which reads one nu as a number and several as a
    column (`DensityFamily.kernel`), and None. A kernel that overflows,
    divides by zero or gives an invalid value at a nu, and so is not finite
    there, is refused naming f and that nu, from numpy's own flags rather
    than a pass over it; so is a coefficient that raises, and one whose a,
    b or |a| max|T| + |b|, which bounds |a T + b|, is not finite. On a
    block of several nus the kernel's ArithmeticError passes to the scan,
    which reads them one at a time."""

    def refused(nu: float) -> ValueError:
        return ValueError(f"{f.describe()}: kernel not finite at {f.param_name}={nu:g}")

    def on_grid(nus: list[float], make: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                return np.asarray(make(grid.points), dtype=float)
        except ArithmeticError:  # numpy's FloatingPointError, or math's own
            if len(nus) > 1:
                raise
            raise refused(nus[0]) from None

    if f.factor is None or not len(nus):
        def rows(block: list[float]) -> np.ndarray:
            nu = block[0] if len(block) == 1 else np.array(block)[:, None]
            k = on_grid(block, lambda x: f.kernel(nu, x))
            # a kernel that reads no scanned value gives one row for all
            if k.ndim == 2:
                return k
            return k[None] if len(block) == 1 else np.broadcast_to(k, (len(block), k.size))

        return rows, None
    coefficient, statistic = f.factor
    t = on_grid(nus[:1], statistic)
    if coefficient is None:
        return t, None
    size = float(np.abs(t).max())

    def scaled(nu: float) -> tuple[float, float]:
        try:
            a, b = coefficient(nu)
        except ArithmeticError:  # Python's float arithmetic: sigma ** -3 at sigma = 1e-103
            raise refused(nu) from None
        if not math.isfinite(abs(a) * size + abs(b)):
            raise refused(nu)
        return a, b

    return t, scaled


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

    kernel, coefficient = _family_kernel(f, grid, nus)
    results = scan_kernel(kernel, nus, grid, tests, tol_shape, tol_tail, law=law,
                          coefficient=coefficient)
    size = {"nu_points": len(nus), "grid_points": grid.size}
    shape, tail = {"tol_shape": tol_shape}, {"tol_tail": tol_tail, "eps_tail": EPS_TAIL}
    return [
        _verdict(o, d, {**(shape if o in ("lr", "lc") else tail), **size}, w, margin,
                 _IMPLIED_NOTE if implied == size["nu_points"] else _SCANNED_NOTE)
        for (o, d), (w, margin, implied) in zip(tests, results)
    ]
