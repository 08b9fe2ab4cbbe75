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
On a long grid the pass runs over a head of the grid alone (below).

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
of a (0 when a is 0), and the head end below is read off T's slopes with
that sign, once per scan and sign. A factored kernel may have an atom at
the grid's first point, where K_nu takes a value k0(nu) of its own in place
of a T + b (the zero-inflated exponential's 0 at x = 0,
`catalog.Factored`): T's vectors past their first entry then give the body,
and the one cell and the one triplet that touch the atom are read off k0
and a T + b at the next two points, with the bits of a rebuild's, in O(1) a
nu; lr and lc take the least of the body's margin and the atom's, and the
head end reads the atom's cell at each nu. After the first nu these make no
pass over the grid; a T + b (with k0 at the atom) is built only for a
witness search, whose witness and margin are read off it, or for a tail
pass, which alone reads the law at its nu. So a witness and a tail margin
are the ones a rebuild per nu gives, and an lr or lc margin differs from a
rebuild's by rounding alone, which moves a status only where that rounding
crosses the tolerance (k / theta at theta = 1e-290 has curvature 0, where
its rebuild rounds to 1e274, and 1/theta - x at theta = 1 has curvature 0,
where its rebuild rounds to -3e-13); the head end reads T's sign, and a
rebuild's is less only where a T + b rounds steps against that sign to flat
ones. For (1, 0) every bit is the same.

The head rule. Let s be the first grid point from which sign * K_nu is
nondecreasing to the grid's end (its signed slopes there >= 0, exactly; a
NaN slope says no). Past s, Chebyshev's sum inequality on the grid law
given X >= x gives E[K | X >= x] >= K(x), and so E[K | X >= x] is
nondecreasing in x: the step behind lr => hr => st. So hr holds at every
point past s and st's least gap there is its gap at s, and the st and hr
tests read the tail means at the points 0..s alone; the points past s are
implied and add no margin. At s = 0 the whole grid is implied: st and hr
skip that nu with no tail pass, and a test skipped at every nu holds with
no margin and says so. The pass over the head is seeded at s with the
survival and the tail numerator there, two pairwise `np.sum`s (not BLAS,
whose sum order follows its thread count), and one backward running sum
gives the points before s; at the last point it is the whole grid's pass,
bit for bit. Each direction reads its own s, one pass per s shared by st
and hr and the law read once per nu, so a test's verdict is that of a scan
of it alone. On a grid of fewer than `catalog._HEAD_POINTS` points no s is
searched for: a nu is skipped where s is 0 and reads the whole grid
otherwise, as the search and the seeded pass cost more there than they
spare. Tolerances are >= 0, as the implied points demand no positive
margin. Each test keeps its first witness, first in nu and then in x, and
its worst margin.
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

from .catalog import (
    _BLOCK_ELEMENTS, _HEAD_POINTS, DensityFamily, Distribution, SupportGrid, density,
)
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
    """Adjacent-pair increments of v, the values at the grid's first points
    or at all of them: plain differences for integer grids, divided
    differences elsewhere so the uneven atom cell of mixed grids is handled."""
    dv = np.diff(v)
    if grid.kind == "discrete":
        return dv
    return dv / grid.cell_widths[: dv.shape[-1]]


def _prefix_length(surv: np.ndarray, eps: float) -> int:
    """How many leading entries of a nonincreasing survival exceed eps: for
    such an array `surv > eps` is exactly the prefix of that length."""
    return surv.size - int(np.searchsorted(surv[::-1], eps, side="right"))


def _tail_means(k: np.ndarray, masses: np.ndarray, s: int | None = None
                ) -> tuple[np.ndarray, np.ndarray, float]:
    """Survival P(X >= x), tail mean E[K | X >= x] on the prefix where the
    survival is positive, and grand mean E[K], by one backward pass over the
    points 0..s (all of them when s is None). E[K] is the tail mean at the
    first point, read off the same sums (0 for a law with no mass), so the
    st margin there is exactly 0 and no BLAS dot product, whose sum order
    follows its thread count, enters a report.

    The two running sums are one: the reversed masses fill the real part of
    one complex buffer and the reversed k * masses its imaginary part, and
    one `np.cumsum` runs over it in place. Complex addition adds the real
    and the imaginary parts apart, each in the order a real running sum
    takes, so the survival and the tail numerator have that sum's bits.
    Before the last point the pass is seeded at s with the survival and the
    tail numerator there, two `np.sum` pairwise sums over the points from s
    on; at the last point it is the whole grid's pass, bit for bit."""
    s = masses.size - 1 if s is None else s
    sums = np.empty(s + 1, dtype=complex)
    sums.real = masses[s::-1]
    np.multiply(k[s::-1], masses[s::-1], out=sums.imag)
    if s < masses.size - 1:
        sums[0] = complex(np.sum(masses[s:]), np.sum(k[s:] * masses[s:]))
    np.cumsum(sums, out=sums)
    surv, tail_num = sums.real[::-1], sums.imag[::-1]
    n = _prefix_length(surv, 0.0)
    means = tail_num[:n] / surv[:n]
    return surv, means, float(means[0]) if n else 0.0


def _low(m: np.ndarray, sign: float):
    """min(sign * m) over the last axis without the signed copy: -max(m) ==
    min(-m)."""
    return m.min(axis=-1) if sign > 0 else -m.max(axis=-1)


def _affine(t: np.ndarray, a: float, b: float, k0: float | None) -> np.ndarray:
    """a t + b, one pass when a is 1 (1 t is t), with k0 at the first point
    when given."""
    k = t + b if a == 1.0 else a * t + b
    if k0 is not None:
        k[0] = k0
    return k


class _Reads:
    """What a `_Kernel` of one array and a `_Row` read alike."""

    def rise(self, sign: float, start: int = 0) -> int:
        """The first point i >= start from which sign * K is nondecreasing
        to the grid's end: one past the last slope from entry `start` on
        whose signed value is not >= 0 (a NaN is not), else start; kept per
        sign."""
        key = ("rise", sign, start)
        if key not in self._lows:
            m = self.vector("slopes")[start:]
            if not m.size or self.low("slopes", sign, start) >= 0:
                rise = start
            elif not sign * m[-1] >= 0:
                rise = start + m.size  # the last point
            else:  # the last entry that is not >= 0, searched from the end
                good = m >= 0 if sign > 0 else m <= 0
                rise = start + m.size - int(good[::-1].argmin())
            self._lows[key] = rise
        return self._lows[key]


class _Kernel(_Reads):
    """An array T on the grid, or a block of them, one row per nu, and what
    is read from them alone: slopes, curvature (each derived on first use)
    and the least signed value of each, per row, each taken once for all
    rows. A scan builds one per block of nus, or one for every nu when the
    kernel at each nu is a T + b with T fixed; it holds no array of the law."""

    def __init__(self, grid: SupportGrid, k: np.ndarray) -> None:
        self.grid = grid
        self.k = k
        self._lows: dict[tuple[str, float, int], float | list[float]] = {}

    @cached_property
    def slopes(self) -> np.ndarray:
        return _slopes(self.grid, self.k)

    @cached_property
    def curvature(self) -> np.ndarray:
        """Increment differences: second differences on integer grids, slope
        differences otherwise."""
        return np.diff(self.slopes)

    def vector(self, name: str) -> np.ndarray:
        """The "slopes" or the "curvature"."""
        return getattr(self, name)

    def low(self, name: str, sign: float, start: int = 0):
        """min(sign * m) for m the "slopes" or the "curvature" from its entry
        `start` on (inf where there is none), kept per sign: a float for one
        array, a list of one per row for a block."""
        key = (name, sign, start)
        if key not in self._lows:
            m = getattr(self, name)
            if start:
                m = m[..., start:]
            low = _low(m, sign) if m.shape[-1] else np.full(m.shape[:-1], math.inf)
            self._lows[key] = float(low) if self.k.ndim == 1 else low.tolist()
        return self._lows[key]

    def affine(self, a: float, b: float, k0: float | None = None) -> _Kernel:
        """a T + b on the grid with k0 written at its first point when given,
        and T itself when (a, b) is (1, 0) and k0 is None."""
        if (a, b) == (1.0, 0.0) and k0 is None:
            return self
        return _Kernel(self.grid, _affine(self.k, a, b, k0))

    def head(self, a: float, b: float, k0: float) -> dict[str, float]:
        """The slope of the first cell and the curvature of the first triplet
        of affine(a, b, k0), where the grid has them, from its first three
        values alone, in float arithmetic, which has numpy's bits."""
        k = [k0, *(_affine(t, a, b, None) for t in self.k[1:3].tolist())]
        slopes = [v - u for u, v in zip(k, k[1:])]
        if self.grid.kind != "discrete":
            slopes = [d / w for d, w in zip(slopes, self.grid.cell_widths[:2].tolist())]
        head = {"slopes": slopes[0]}
        if len(slopes) > 1:
            head["curvature"] = slopes[1] - slopes[0]
        return head


class _Row(_Reads):
    """Row r of a block `_Kernel`, read as the one array at its nu."""

    def __init__(self, block: _Kernel, r: int) -> None:
        self.block, self.r = block, r
        self.k = block.k[r]
        self._lows: dict[tuple[str, float, int], float] = {}

    def vector(self, name: str) -> np.ndarray:
        return getattr(self.block, name)[self.r]

    def low(self, name: str, sign: float, start: int = 0) -> float:
        key = (name, sign, start)
        if key not in self._lows:
            self._lows[key] = self.block.low(name, sign, start)[self.r]
        return self._lows[key]

    def affine(self, a: float, b: float, k0: float | None = None) -> _Row:
        """Itself: a block holds a callable kernel's rows, read with (a, b) =
        (1, 0) and no k0."""
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
    atom: Callable[[float], float] | None = None,
) -> list[tuple[Witness | None, float | None, int]]:
    """Run every (order, direction) test (see the module docstring) over one
    pass of nus; kernel(block) gives K_nu on grid.points at each nu of a
    list of them, one row per nu, and may raise ArithmeticError on a block
    of several nus, which are then read one at a time (`_read`); or kernel
    is one array T and K_nu = a T + b with (a, b) = coefficient(nu), or T
    itself at every nu when coefficient is None, but K_nu = atom(nu) at the
    first grid point when atom is given; law(nu) gives the masses of P_nu
    there, read by the st and hr tests where the survival exceeds
    EPS_TAIL, at the points up to the head end s of their direction (the
    module docstring's head rule): on a grid of at least
    catalog._HEAD_POINTS points s is searched for at each nu, off a fixed
    or factored T once per scan and sign, with the atom's cell read at each
    nu, and off a callable's own row, and on a shorter grid s is 0 or the
    last point. Returns, per test, its first witness and that witness's
    margin, or None and the worst margin seen (None when no margin was
    tested), and the number of nus whose st or hr test the kernel's shape
    settled at s = 0."""
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
    scaled, atom = (None, None) if callable(kernel) else (coefficient, atom)
    body = 0 if atom is None else 1  # T's vectors from this entry on are the body's
    last, long = pts.size - 1, pts.size >= _HEAD_POINTS
    for nu, t in _read(kernel, nus, grid) if tests else ():
        a, b = (1.0, 0.0) if scaled is None else scaled(nu)
        k0 = None if atom is None else atom(nu)
        # the atom's cell and triplet, read apart from the body
        head = None if k0 is None or pts.size < 2 else t.head(a, b, k0)
        k_nu = None  # K_nu = a T + b, built for a witness search or a tail pass
        masses = None  # the law at nu, read once for every tail pass
        # per head end s, from one tail pass shared by st and hr: the tail
        # means where the survival exceeds EPS_TAIL, E[K], and hr's gaps
        tails: dict[int, tuple[np.ndarray, float]] = {}
        hr_gaps: dict[int, np.ndarray] = {}
        for i in [i for i, w in enumerate(witnesses) if w is None]:
            order, direction = tests[i]
            sign = 1.0 if direction == "up" else -1.0
            t_sign = sign if a > 0 else -sign  # sign * (a T) has the shape of t_sign * T
            if order in _SHAPES:
                name, span, kind, fewest = _SHAPES[order]
                xs, tol = pts[span], tol_shape
                if pts.size < fewest:
                    continue
                # the least of sign * (a m) is |a| times that of t_sign * m;
                # inf where m has no entry past the atom's
                low = t.low(name, t_sign, body)
                if low != math.inf:
                    low = 0.0 if a == 0 else abs(a) * low
                if head is not None:
                    low = min(low, sign * head[name])
                if not low >= -tol:  # a witness, and its margin, are read off K_nu itself
                    k_nu = k_nu or t.affine(a, b, k0)
                    m, low = k_nu.vector(name), k_nu.low(name, sign)
            else:
                # s, the first point from which sign * K_nu is nondecreasing to
                # the grid's end (the body's is flat when a is 0); on a short
                # grid 0 or the last point
                if long and a != 0:
                    s = t.rise(t_sign, body)
                else:
                    s = body if a == 0 or t.low("slopes", t_sign, body) >= 0 else last
                if s == body and (head is None or sign * head["slopes"] >= 0):
                    s = 0
                elif not long:
                    s = last
                if s == 0 and last:
                    implied[i] += 1  # lr => hr => st at this nu: no tail pass
                    continue
                k_nu = k_nu or t.affine(a, b, k0)
                if s not in tails:
                    masses = law(nu) if masses is None else masses
                    surv, tail, grand = _tail_means(k_nu.k, masses, s)
                    tails[s] = tail[:_prefix_length(surv, EPS_TAIL)], grand
                # at the points up to s where the survival exceeds EPS_TAIL: the
                # gap E[K | X >= x] - E[K] (st) or K(x) - E[K | X >= x] (hr)
                tail, grand = tails[s]
                xs, tol, kind = pts[:tail.size], tol_tail, "grid-point"
                if not tail.size:
                    continue
                if order == "st":
                    # rounding is monotone, so the least signed gap is that of the
                    # least signed tail mean; the gaps are built for a witness search
                    m = None
                    low = float(tail.min() - grand if sign > 0 else -(tail.max() - grand))
                else:
                    if s not in hr_gaps:
                        hr_gaps[s] = k_nu.k[:tail.size] - tail
                    m = hr_gaps[s]
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
        Callable[[float], tuple[float, float]] | None, Callable[[float], float] | None]:
    """f's kernel on grid.points as `scan_kernel` reads it over nus, its
    coefficient and its atom: when f has a factor, the statistic's one
    array, built once, the coefficient of nu (None for a fixed kernel) and,
    where the factor's atom is the grid's first point, the atom's value at
    nu (else None); otherwise the callable of a block of nus, which reads
    one nu as a number and several as a column (`DensityFamily.kernel`),
    and None twice. An atom off the grid leaves a T + b there, and one on a
    later point than the first is read with the callable. A kernel that
    overflows, divides by zero or gives an invalid value at a nu, and so is
    not finite there, is refused naming f and that nu, from numpy's own
    flags rather than a pass over it; so is a coefficient or atom value
    that raises, and one whose a, b, atom value or |a| max|T| + |b|, which
    bounds |a T + b|, is not finite. On a block of several nus the kernel's
    ArithmeticError passes to the scan, which reads them one at a time."""

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

    x0, value = (f.factor and f.factor[2]) or (None, None)
    on = np.flatnonzero(grid.points == x0) if value else ()
    if f.factor is None or not len(nus) or any(on):  # any(on): an atom past the first point
        def rows(block: list[float]) -> np.ndarray:
            nu = block[0] if len(block) == 1 else np.array(block)[:, None]
            k = on_grid(block, lambda x: f.kernel(nu, x))
            # a kernel that reads no scanned value gives one row for all
            if k.ndim == 2:
                return k
            return k[None] if len(block) == 1 else np.broadcast_to(k, (len(block), k.size))

        return rows, None, None
    coefficient, statistic, _ = f.factor
    t = on_grid(nus[:1], statistic)
    if coefficient is None:
        return t, None, None
    size = float(np.abs(t).max())

    def scaled(nu: float) -> tuple[float, float]:
        try:
            a, b = coefficient(nu)
        except ArithmeticError:  # Python's float arithmetic: sigma ** -3 at sigma = 1e-103
            raise refused(nu) from None
        if not math.isfinite(abs(a) * size + abs(b)):
            raise refused(nu)
        return a, b

    def at_atom(nu: float) -> float:
        try:
            k0 = value(nu)
        except ArithmeticError:
            raise refused(nu) from None
        if not math.isfinite(k0):
            raise refused(nu)
        return k0

    return t, scaled, at_atom if len(on) else None


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

    kernel, coefficient, atom = _family_kernel(f, grid, nus)
    results = scan_kernel(kernel, nus, grid, tests, tol_shape, tol_tail, law=law,
                          coefficient=coefficient, atom=atom)
    size = {"nu_points": len(nus), "grid_points": grid.size}
    shape, tail = {"tol_shape": tol_shape}, {"tol_tail": tol_tail, "eps_tail": EPS_TAIL}
    return [
        _verdict(o, d, {**(shape if o in ("lr", "lc") else tail), **size}, w, margin,
                 _IMPLIED_NOTE if implied == size["nu_points"] else _SCANNED_NOTE)
        for (o, d), (w, margin, implied) in zip(tests, results)
    ]
