"""Law table, family catalogue, support grids, densities and kernels.

`LAWS` declares each law once, as a multi-parameter entry: its kind, the
parameters with their domains, the support, the log factor, one kernel
d/dtheta_i log_factor per parameter that some view varies, the log
normalizer and, for continuous kinds with an infinite end, the span.
It also names the kernels that read only x and parameters no view varies:
such a kernel is the same array at every point of a view, so a scan builds
it once. A kernel a(theta) T(x) + b(theta) is declared as that pair
(`Factored`), its statistic T under the same rule, so a scan builds T once
and reads the two scalars at each point. The density is
exp(log_factor - log_normalizer) with respect to counting measure
(discrete), Lebesgue measure (continuous), or delta_0 + Lebesgue (mixed).

Everything else is a `View` of an entry: a catalogue family (`make_family`)
fixes all parameters but one, nu, and a named path moves two along a line in
t; both are `View.curve`s. The counting and pairwise laws are views too.
Grids discretize the support: integers for discrete laws, uniform midpoint
cells for continuous ones, an exact atom plus midpoint cells for the mixed
kind. `normalized` is the one numeric normalizer over a grid. A law whose
support has an infinite end declares its span: ends past which each tail
holds at most a target mass. The exponential, Weibull, Pareto, Gumbel and
zero-inflated exponential laws read them off closed-form quantiles; the
gamma, half-Student, half-normal and lognormal laws solve elementary tail
bounds for them with `math` alone, so no module beyond numpy is imported. A
finite support has no span: a beta grid covers its whole support [0, 1].

Parametrization notes: geometric and the negative binomial each have two
entries. The q-forms use the power-series argument q (factor q^k, kernel
k/q): the families `geometric` and `negbinomial-in-q` and the negbinomial
path. The p-forms use the success probability p (factor (1-p)^k, kernel
-k/(1-p)): `negbinomial-in-shape`, the pairwise and the counting laws. They
agree at q = 1 - p in exact arithmetic only: deriving one from the other
takes log(1 - p) for log1p(-p), or the reverse, and moves tail cuts.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cache
from typing import Callable, Collection, Mapping, Sequence

import numpy as np

from .special import (
    _each, digamma, digamma_vec, log_factorial_vec, log_pochhammer, log_pochhammer_vec,
)
from .verdicts import known

__all__ = [
    "SupportGrid",
    "Distribution",
    "Law",
    "LAWS",
    "View",
    "checked",
    "DensityFamily",
    "FAMILY_NAMES",
    "make_family",
    "parse_spec",
    "family_from_spec",
    "density",
    "normalized",
    "default_grid",
    "discrete_grid",
    "continuous_grid",
    "mixed_grid",
    "MAX_GRID_POINTS",
    "MAX_KMAX",
    "TAIL_CUT_EPS",
    "TAIL_CUT_KMAX",
]

# Tail target of a continuous span: a law's `span` gives ends past which each
# tail holds at most _CONT_TAIL, and the grid pads them by 5% of the span a
# side, so the mass it leaves out is at most 2 * _CONT_TAIL.
_CONT_TAIL = 1e-9
_PAD = 0.05

# Cells default_grid puts on a continuous or mixed support unless told
# otherwise, and the most it puts there.
GRID_POINTS = 2000
MAX_GRID_POINTS = 100_000

# Largest upper end of a discrete support: the ceiling of the integer law
# parameters (n, B, W) and of the CLI's --kmax, far above every default and
# benchmark run, past which a command would allocate without a useful bound.
MAX_KMAX = 100_000

# Default cut of an infinite discrete support: the tail mass left past the
# cut, and the largest k the tail search reaches for it.
TAIL_CUT_EPS = 1e-12
TAIL_CUT_KMAX = 10_000

# the largest k past the common lower end of the pairwise kernel's range when
# both supports are infinite: the default of `pairwise --kmax`
PAIRWISE_KMAX = 200

# The most grid elements that one call reads for a block of scanned
# parameters (`_tail_cut`, `criteria.scan_kernel`), unless one row holds
# more: 256 KiB a float array, below the 1 MiB up to which
# `cli._keep_grid_arrays_on_the_heap` keeps arrays on the heap.
_BLOCK_ELEMENTS = 1 << 15


# ---------------------------------------------------------------------------
# grids


@dataclass(frozen=True)
class SupportGrid:
    """Discretized support: the points carrying mass and their measure weights.

    kind        'discrete' (consecutive integers), 'continuous' (uniform
                midpoint cells of width step), or 'mixed' (an atom at lower
                followed by midpoint cells).
    lower/upper bounds of the truncated support actually covered.
    points      strictly increasing abscissae.
    step        cell width for continuous/mixed grids, None for discrete.
    truncation_tail_mass
                an upper bound on the mass of the true law outside [lower,
                upper]: for discrete kinds read from the law's log pmf
                (`_tail_cut`), for the others the sum of the tail targets
                that the law's `span` certifies.
    cell_widths np.diff(points), computed once per grid.

    points, cell_widths and weights() are read-only arrays, so the per-grid
    constants derived from the points stay valid for the grid's lifetime.
    """

    kind: str
    lower: float
    upper: float
    points: np.ndarray
    step: float | None
    truncation_tail_mass: float = 0.0
    cell_widths: np.ndarray = field(init=False, repr=False, compare=False)
    _weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        known("grid kind", self.kind, ("discrete", "continuous", "mixed"))
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 1 or pts.size == 0:
            raise ValueError("grid needs a nonempty 1-d point array")
        widths = np.diff(pts)
        if not np.all(widths > 0):
            raise ValueError("grid points must be strictly increasing")
        if self.kind == "discrete":
            if self.step is not None:
                raise ValueError("discrete grids carry no step")
            if not np.all(pts == np.floor(pts)):
                raise ValueError("discrete grid points must be integers")
            if not np.all(widths == 1.0):
                raise ValueError("discrete grid points must be consecutive")
            weights = np.ones(pts.size)
        else:
            if self.step is None or not self.step > 0:
                raise ValueError("continuous/mixed grids need a positive step")
            weights = np.full(pts.size, float(self.step))
        if self.kind == "mixed":
            if pts[0] != self.lower:
                raise ValueError("mixed grid must start at its atom")
            weights[0] = 1.0  # the atom
        for name, a in (("points", pts), ("cell_widths", widths), ("_weights", weights)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def size(self) -> int:
        return int(self.points.size)

    def weights(self) -> np.ndarray:
        """Measure weight per point: 1 for atoms/integers, step for cells."""
        return self._weights


def discrete_grid(lo: int, hi: int, tail_mass: float = 0.0) -> SupportGrid:
    if hi < lo:
        raise ValueError("empty discrete grid")
    pts = np.arange(int(lo), int(hi) + 1, dtype=float)
    return SupportGrid("discrete", float(lo), float(hi), pts, None, tail_mass)


def continuous_grid(lo: float, hi: float, n: int, tail_mass: float = 0.0) -> SupportGrid:
    """n uniform midpoint cells over [lo, hi]; n is a whole number >= 1."""
    if not hi > lo:
        raise ValueError("continuous grid needs hi > lo")
    n = checked("continuous grid", "n", n, (1, math.inf), integer=True)
    cell = (hi - lo) / n
    pts = lo + (np.arange(n) + 0.5) * cell
    return SupportGrid("continuous", float(lo), float(hi), pts, cell, tail_mass)


def mixed_grid(upper: float, n: int, tail_mass: float = 0.0) -> SupportGrid:
    """Atom at 0 plus n uniform midpoint cells over (0, upper]."""
    inner = continuous_grid(0.0, upper, n)
    pts = np.concatenate(([0.0], inner.points))
    return SupportGrid("mixed", 0.0, float(upper), pts, inner.step, tail_mass)


# ---------------------------------------------------------------------------
# distributions


# the smallest normal double: a mass below it has lost bits, or all of them
_TINY = sys.float_info.min


@dataclass(frozen=True)
class Distribution:
    """A law on a SupportGrid: masses aligned to the points, summing to one.

    log_density, when known, is (log d, log c) with masses = d * weights / c
    in exact arithmetic, the logs that `density` and `normalized` take the
    masses from; `log_masses` reads it where a mass underflows.
    """

    support: SupportGrid
    masses: np.ndarray
    log_density: tuple[np.ndarray, float] | None = field(default=None, repr=False,
                                                         compare=False)

    @property
    def log_masses(self) -> np.ndarray:
        """log(masses): np.log(masses) wherever a mass is a normal double,
        and log d + log weight - log c from log_density where it is below the
        smallest normal double, so that an underflowed mass keeps its log."""
        with np.errstate(divide="ignore"):  # log 0 = -inf
            logs = np.log(self.masses)
        if self.log_density is not None and self.masses.min() < _TINY:
            tiny = self.masses < _TINY
            log_d, log_c = self.log_density
            logs[tiny] = log_d[tiny] + np.log(self.support.weights()[tiny]) - log_c
        return logs

    def __post_init__(self) -> None:
        m = np.asarray(self.masses, dtype=float)
        object.__setattr__(self, "masses", m)
        if m.shape != self.support.points.shape:
            raise ValueError("masses must align with the grid points")
        if m.min() < 0:  # a NaN mass passes here, as under np.any(m < 0)
            raise ValueError("masses must be nonnegative")
        total = m.sum()
        if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-9):
            raise ValueError(f"masses must sum to 1, got {total!r}")


# ---------------------------------------------------------------------------
# the law table

Theta = Mapping[str, float]


@dataclass(frozen=True)
class Law:
    """A multi-parameter law with factor w_theta(x) = exp(log_factor(theta, x)).

    domains         parameter -> open interval, in the order views list the
                    parameters; those named in `integers` are whole numbers
                    in the closed interval, at most MAX_KMAX.
    support         theta -> (lower, upper); it reads only parameters that
                    no view varies.
    kernels         parameter -> d/dtheta_i log_factor, for every parameter
                    that some view varies; a `Factored` kernel is declared
                    as its coefficient and statistic and called as one.
    fixed_kernels   the parameters whose kernel reads only x and parameters
                    that no view varies, as `support` does: that kernel
                    gives the same bits at every point of a view.
    log_normalizer  theta -> log of the factor's total mass.
    span            (theta, eps) -> (lower, upper), ends with at most eps of
                    mass below lower and at most eps above upper, for
                    continuous and mixed kinds whose support has an infinite
                    end: a grid spans a finite support whole and reads none.
    tail_ratio      theta -> the limit of p(k+1)/p(k), for an infinite
                    discrete support; `_tail_cut` bounds the tail with it.

    The log factor of a law on an infinite discrete support, and every
    kernel that a view scans (neither `Factored` nor fixed), also take a
    column: with the scanned parameter's values in an array of shape
    (rows, 1), and x the grid's points, they give one row per value, with
    the bits of the call at that value alone. `math` functions of a scanned
    parameter are mapped per row (`special._each`) and digamma is read by
    `digamma_vec`, so each row does the same operations as its own call.
    Normalizers, spans and tail ratios take one value at a time.
    """

    kind: str
    domains: Mapping[str, tuple[float, float]]
    support: Callable[[Theta], tuple[float, float]]
    log_factor: Callable[[Theta, np.ndarray], np.ndarray]
    kernels: Mapping[str, Callable[[Theta, np.ndarray], np.ndarray]]
    log_normalizer: Callable[[Theta], float]
    span: Callable[[Theta, float], tuple[float, float]] | None = None
    tail_ratio: Callable[[Theta], float] | None = None
    integers: tuple[str, ...] = ()
    fixed_kernels: tuple[str, ...] = ()


@dataclass(frozen=True)
class Factored:
    """A kernel a(theta) T(theta, x) + b(theta), declared as the pair.

    coefficient  theta -> (a, b).
    statistic    (theta, x) -> T; it reads only x and parameters that no view
                 varies, as a fixed kernel does, so T is one array at every
                 point of a view.
    Called, it is the plain kernel a T + b, the one every other reader takes.
    """

    coefficient: Callable[[Theta], tuple[float, float]]
    statistic: Callable[[Theta, np.ndarray], np.ndarray]

    def __call__(self, th: Theta, x: np.ndarray) -> np.ndarray:
        a, b = self.coefficient(th)
        return a * np.asarray(self.statistic(th, x), dtype=float) + b


def _count(th: Theta, k: np.ndarray) -> np.ndarray:
    return k


def _per(p: str) -> Factored:
    """k / theta_p, the kernel of a power-series factor theta_p^k, as (1/theta_p) k."""
    return Factored(lambda th: (1.0 / th[p], 0.0), _count)


# -k / (1 - p), the kernel of a factor (1 - p)^k in p, as (-1 / (1 - p)) k
_FAILURES = Factored(lambda th: (-1.0 / (1.0 - th["p"]), 0.0), _count)


def _binomial_coefficient(th: Theta) -> tuple[float, float]:
    # k/p - (n - k)/(1 - p) = k / (p (1 - p)) - n / (1 - p)
    p = th["p"]
    return 1.0 / (p * (1.0 - p)), -th["n"] / (1.0 - p)


def _lognormal_coefficient(th: Theta) -> tuple[float, float]:
    # (log x - mu) / sigma^2
    s2 = th["sigma"] * th["sigma"]
    return 1.0 / s2, -th["mu"] / s2


_POSITIVE = (0.0, math.inf)
_UNIT = (0.0, 1.0)
_REAL = (-math.inf, math.inf)
_COUNT = (0, MAX_KMAX)
_POSITIVE_COUNT = (1, MAX_KMAX)
_HALFNORMAL_LOG_C = 0.5 * math.log(2.0 / math.pi)


# Spans from tail bounds. Each solver works in the law's standard variable
# (rho x, z or t), so a scale parameter only divides, and returns ends whose
# bound on the tail past them is at most eps. Where a bound is solved by
# Newton's method, its log is concave and decreasing in the variable solved
# for near the root, so each step lands at or past the root, on the side
# where the bound holds. The loop stops once a step is below _NEWTON_STEP,
# which leaves an error of the order of its square; from the starts below,
# near the root, that takes two or three steps.
_NEWTON_STEP = 1e-4
_NEWTON_STEPS = 50  # the most it takes; a solve that does not settle by then gives nan
_LOG_2PI = math.log(2.0 * math.pi)


def _quantiles(q: Callable[[Theta, float], float]) -> Callable[[Theta, float],
                                                               tuple[float, float]]:
    """The span of a law with a closed-form quantile q(theta, u): its eps- and
    (1 - eps)-quantiles."""
    return lambda th, eps: (q(th, eps), q(th, 1.0 - eps))


def _newton(f: Callable[[float], tuple[float, float]], s: float) -> float:
    """The root of the function whose (value, slope) at s is f(s), by Newton's
    method from s; nan when no step falls below _NEWTON_STEP in _NEWTON_STEPS."""
    for _ in range(_NEWTON_STEPS):
        value, slope = f(s)
        step = value / slope
        s -= step
        if abs(step) <= _NEWTON_STEP:
            return s
    return math.nan


def _gamma_upper(r: float, log_eps: float) -> float:
    """y with P(Y >= y) <= eps for Y ~ Gamma(r, 1), from the bound
    y^(r-1) e^-y / Gamma(r) * max(1, y / (y - r + 1)) for y > r - 1 (the
    max is y / (y - r + 1) exactly when r > 1), solved for s = log y. Its
    log is concave in s for r <= 1, and for r > 1 past y = r - 1 + (r - 1)^0.5,
    below the root. The start is the asymptotic root L + (r - 1) log y -
    log Gamma(r), L = -log eps, iterated once for r <= 8, and the
    Wilson-Hilferty root above, with the normal quantile (2L - log 4 pi L)^0.5."""
    c, big = -math.lgamma(r) - log_eps, -log_eps
    if r > 8.0:
        z = math.sqrt(2.0 * big - math.log(4.0 * math.pi * big))
        s = 3.0 * math.log1p(z / (3.0 * math.sqrt(r)) - 1.0 / (9.0 * r)) + math.log(r)
    else:
        y = big + (r - 1.0) * math.log(big) - math.lgamma(r)
        if r > 1.0:
            y = big + (r - 1.0) * math.log(y) - math.lgamma(r)
        s = math.log(max(y, 1.0))  # y <= 0 for tiny r; a step from 1 lands past the root

    def log_bound(s: float) -> tuple[float, float]:
        y = math.exp(s)
        if r > 1.0:
            return r * s - y - math.log(y - r + 1.0) + c, r - y - y / (y - r + 1.0)
        return (r - 1.0) * s - y + c, r - 1.0 - y

    return math.exp(_newton(log_bound, s))


def _gamma_span(th: Theta, eps: float) -> tuple[float, float]:
    """Gamma(r, rho) ends y / rho: below, P(Y <= y) <= y^r / Gamma(r + 1),
    solved in closed form; above, `_gamma_upper`."""
    r, log_eps = th["r"], math.log(eps)
    lower = math.exp((log_eps + math.lgamma(r + 1.0)) / r)
    return lower / th["rho"], _gamma_upper(r, log_eps) / th["rho"]


def _half_student_span(th: Theta, eps: float) -> tuple[float, float]:
    """Half-Student(nu) ends in closed form. The density c (1 + t^2/nu)^(-(nu+1)/2)
    is at most c, so P(T <= t) <= c t; and at most c nu^((nu+1)/2) t^(-(nu+1)),
    so P(T >= t) <= c nu^((nu-1)/2) t^-nu."""
    nu, log_c, log_eps = th["nu"], -_half_student_log_normalizer(th), math.log(eps)
    upper = (0.5 * (nu - 1.0) * math.log(nu) + log_c - log_eps) / nu
    return math.exp(log_eps - log_c), math.exp(upper)


def _mills_end(log_eps: float) -> float:
    """z with P(Z >= z) <= eps for a standard normal Z, from the Mills ratio
    bound phi(z) / z, solved from (2C)^0.5, C = -log eps - log(2 pi) / 2. The
    log bound -z^2/2 - log z + C is concave for z > 1, and the start lies
    past the root."""
    c = -log_eps - 0.5 * _LOG_2PI
    return _newton(lambda z: (0.5 * z * z + math.log(z) - c, z + 1.0 / z), math.sqrt(2.0 * c))


def _halfnormal_span(th: Theta, eps: float) -> tuple[float, float]:
    """Half-normal(sigma) ends sigma z: the density 2 phi(z) is at most
    2 phi(0) = (2 / pi)^0.5, and P(|Z| >= z) <= 2 phi(z) / z."""
    sigma = th["sigma"]
    return sigma * eps * math.sqrt(0.5 * math.pi), sigma * _mills_end(math.log(0.5 * eps))


def _lognormal_span(th: Theta, eps: float) -> tuple[float, float]:
    """Lognormal(mu, sigma) ends exp(mu -+ sigma z), z from `_mills_end`."""
    z = th["sigma"] * _mills_end(math.log(eps))
    return math.exp(th["mu"] - z), math.exp(th["mu"] + z)


def _from_zero(th: Theta) -> tuple[float, float]:
    return 0.0, math.inf


def _up_to_n(th: Theta) -> tuple[float, float]:
    return 0.0, float(th["n"])


def _log_binom(n: int, k: np.ndarray) -> np.ndarray:
    return (
        log_factorial_vec(np.full(k.shape, n))
        - log_factorial_vec(k)
        - log_factorial_vec(n - k)
    )


def _psi(a):
    """digamma(a) for a number, and `digamma_vec` on a column, which gives
    each row the same bits."""
    return digamma_vec(a) if isinstance(a, np.ndarray) else digamma(a)


def _digamma_step(a, k: np.ndarray) -> np.ndarray:
    """psi(a + k) - psi(a): the kernel of a Pochhammer factor (a)_k in a."""
    return digamma_vec(a + k) - _psi(a)


def _binomial_log_factor(th: Theta, k: np.ndarray) -> np.ndarray:
    n, p = th["n"], th["p"]
    return _log_binom(n, k) + k * math.log(p) + (n - k) * math.log1p(-p)


def _betabinomial_log_factor(th: Theta, k: np.ndarray) -> np.ndarray:
    n = th["n"]
    return _log_binom(n, k) + log_pochhammer_vec(th["r"], k) + log_pochhammer_vec(th["s"], n - k)


def _hypergeometric_support(th: Theta) -> tuple[float, float]:
    B, W, n = th["B"], th["W"], th["n"]
    if n > B + W:
        raise ValueError("hypergeometric law needs B, W >= 0 and 1 <= n <= B + W")
    return float(max(0, n - W)), float(min(n, B))


_CMP_TERMS = (2000, 2000 * 2**9)  # the fewest and the most terms the cmp series sums


@cache
def _cmp_terms(n: int) -> tuple[np.ndarray, np.ndarray]:
    """k and log k! for k in 0..n-1, read-only, built once per term count."""
    ks = np.arange(n, dtype=float)
    log_fact = log_factorial_vec(ks)
    ks.flags.writeable = log_fact.flags.writeable = False
    return ks, log_fact


def _cmp_log_normalizer(th: Theta) -> float:
    """log sum_k lam^k (k!)^-nu. The log terms are concave in k, so once the
    last term summed is past the peak and more than 60 below the largest (a
    share under 1e-26), every later term is too. The count of terms doubles
    from 2000 until that holds."""
    loglam, nu = math.log(th["lam"]), th["nu"]
    n, most = _CMP_TERMS
    while n <= most:
        ks, log_fact = _cmp_terms(n)
        logs = ks * loglam - nu * log_fact
        m = logs.max()
        if logs[-1] < min(m - 60.0, logs[-2]):
            return float(m + math.log(np.exp(logs - m).sum()))
        n *= 2
    raise ValueError(f"cmp normalizer: the series needs more than {most} terms")


# factorization w(0) = (1-pi)e^theta + pi, w(k) = pi theta^k/k!, A = e^theta
def _zip_log_factor(th: Theta, k: np.ndarray) -> np.ndarray:
    pi, theta = th["pi"], th["theta"]
    body = math.log(pi) + k * _each(math.log, theta) - log_factorial_vec(np.maximum(k, 0))
    at0 = np.logaddexp(math.log1p(-pi) + theta, math.log(pi))
    return np.where(k == 0, at0, body)


def _zip_kernel(th: Theta, k: np.ndarray) -> np.ndarray:
    pi, theta = th["pi"], th["theta"]
    a = _each(math.exp, math.log(pi) - np.logaddexp(math.log1p(-pi) + theta, math.log(pi)))
    return np.where(k == 0, 1.0 - a, k / theta)


def _two_sigma2(value: float) -> float:
    """2 sigma^2, the divisor of the normal log factors. Where it underflows
    to 0 or overflows, 1 / (2 sigma^2) is past the double range and the law
    is refused naming sigma (`View.log_factor`)."""
    if not 0.0 < value < math.inf:
        raise OverflowError("2 sigma^2 is past the double range")
    return value


# Where the quotient by 2 sigma^2 overflows, the log factor is -inf, its
# exact limit. A half-normal x^2 that overflows reads as -inf too; the
# kernel, whose statistic is x^2, refuses that grid by name.
def _halfnormal_log_factor(th: Theta, x: np.ndarray) -> np.ndarray:
    two_s2 = _two_sigma2(2.0 * th["sigma"] * th["sigma"])
    with np.errstate(over="ignore"):
        return _HALFNORMAL_LOG_C - x * x / two_s2


def _lognormal_log_factor(th: Theta, x: np.ndarray) -> np.ndarray:
    two_s2 = _two_sigma2(2.0 * (th["sigma"] * th["sigma"]))
    with np.errstate(over="ignore"):
        return -((np.log(x) - th["mu"]) ** 2) / two_s2 - np.log(x)


# w_mu(x) = f0(x - mu) e^{-mu}, A = e^{-mu}: the extra e^{-mu} makes
# d/dmu log w equal the table kernel -e^{-(x-mu)} exactly. Where e^{-z}
# overflows, the log factor is -inf, its exact limit.
def _gumbel_log_factor(th: Theta, x: np.ndarray) -> np.ndarray:
    z = x - th["mu"]
    with np.errstate(over="ignore"):
        return -z - np.exp(-z) - th["mu"]


def _half_student_kernel(th: Theta, x: np.ndarray) -> np.ndarray:
    nu, x2 = th["nu"], x * x
    return -0.5 * np.log1p(x2 / nu) + (nu + 1.0) * x2 / (2.0 * nu * (nu + x2))


def _half_student_log_normalizer(th: Theta) -> float:
    nu = th["nu"]
    return (
        0.5 * (math.log(nu) + math.log(math.pi))
        + math.lgamma(nu / 2.0)
        - math.log(2.0)
        - math.lgamma((nu + 1.0) / 2.0)
    )


# density w.r.t. delta_0 + Lebesgue: f(0) = 1-pi, f(x) = pi theta e^{-theta x};
# the log factor and the kernel write the atom's value over the body's at x = 0
def _zie_log_factor(th: Theta, x: np.ndarray) -> np.ndarray:
    pi, theta = th["pi"], th["theta"]
    out = np.asarray(math.log(pi) + math.log(theta) - theta * x, dtype=float)
    out[x == 0.0] = math.log1p(-pi)
    return out


def _zie_kernel(th: Theta, x: np.ndarray) -> np.ndarray:
    out = np.asarray(1.0 / th["theta"] - x, dtype=float)
    np.copyto(out, 0.0, where=x == 0.0)  # on every row of a column of theta
    return out


LAWS: dict[str, Law] = {
    # -- discrete --
    "poisson": Law(
        kind="discrete",
        domains={"theta": _POSITIVE},
        support=_from_zero,
        log_factor=lambda th, k: k * _each(math.log, th["theta"]) - log_factorial_vec(k),
        kernels={"theta": _per("theta")},
        log_normalizer=lambda th: th["theta"],
        tail_ratio=lambda th: 0.0,
    ),
    "geometric-q": Law(
        kind="discrete",
        domains={"q": _UNIT},
        support=_from_zero,
        log_factor=lambda th, k: k * _each(math.log, th["q"]),
        kernels={"q": _per("q")},
        log_normalizer=lambda th: -math.log1p(-th["q"]),
        tail_ratio=lambda th: th["q"],
    ),
    "geometric-p": Law(
        kind="discrete",
        domains={"p": _UNIT},
        support=_from_zero,
        log_factor=lambda th, k: k * _each(math.log1p, -th["p"]),
        kernels={"p": _FAILURES},
        log_normalizer=lambda th: -math.log(th["p"]),
        tail_ratio=lambda th: 1.0 - th["p"],
    ),
    "negbinomial-q": Law(
        kind="discrete",
        domains={"r": _POSITIVE, "q": _UNIT},
        support=_from_zero,
        log_factor=lambda th, k: (
            log_pochhammer_vec(th["r"], k) - log_factorial_vec(k) + k * _each(math.log, th["q"])
        ),
        kernels={
            "r": lambda th, k: _digamma_step(th["r"], k),
            "q": _per("q"),
        },
        log_normalizer=lambda th: -th["r"] * math.log1p(-th["q"]),
        tail_ratio=lambda th: th["q"],
    ),
    "negbinomial-p": Law(
        kind="discrete",
        domains={"r": _POSITIVE, "p": _UNIT},
        support=_from_zero,
        log_factor=lambda th, k: (
            log_pochhammer_vec(th["r"], k) - log_factorial_vec(k)
            + k * _each(math.log1p, -th["p"])
        ),
        kernels={
            "r": lambda th, k: _digamma_step(th["r"], k),
            "p": _FAILURES,
        },
        log_normalizer=lambda th: -th["r"] * math.log(th["p"]),
        tail_ratio=lambda th: 1.0 - th["p"],
    ),
    "binomial": Law(
        kind="discrete",
        domains={"n": _POSITIVE_COUNT, "p": _UNIT},
        support=_up_to_n,
        log_factor=_binomial_log_factor,
        kernels={"p": Factored(_binomial_coefficient, _count)},
        log_normalizer=lambda th: 0.0,
        integers=("n",),
    ),
    "betabinomial": Law(
        kind="discrete",
        domains={"n": _POSITIVE_COUNT, "r": _POSITIVE, "s": _POSITIVE},
        support=_up_to_n,
        log_factor=_betabinomial_log_factor,
        kernels={
            "r": lambda th, k: _digamma_step(th["r"], k),
            "s": lambda th, k: digamma_vec(th["s"] + th["n"] - k) - _psi(th["s"]),
        },
        log_normalizer=lambda th: log_pochhammer(th["r"] + th["s"], th["n"]),
        integers=("n",),
    ),
    "hypergeometric": Law(
        kind="discrete",
        domains={"B": _COUNT, "W": _COUNT, "n": _POSITIVE_COUNT},
        support=_hypergeometric_support,
        log_factor=lambda th, k: _log_binom(th["B"], k) + _log_binom(th["W"], th["n"] - k),
        kernels={},
        log_normalizer=lambda th: float(_log_binom(th["B"] + th["W"], np.asarray(th["n"]))),
        integers=("B", "W", "n"),
    ),
    "logseries": Law(
        kind="discrete",
        domains={"theta": _UNIT},
        support=lambda th: (1.0, math.inf),
        log_factor=lambda th, k: k * _each(math.log, th["theta"]) - np.log(k),
        kernels={"theta": _per("theta")},
        log_normalizer=lambda th: math.log(-math.log1p(-th["theta"])),
        tail_ratio=lambda th: th["theta"],
    ),
    "cmp": Law(
        kind="discrete",
        domains={"lam": _POSITIVE, "nu": _POSITIVE},
        support=_from_zero,
        log_factor=lambda th, k: k * math.log(th["lam"]) - th["nu"] * log_factorial_vec(k),
        kernels={"nu": lambda th, k: -log_factorial_vec(k)},
        log_normalizer=_cmp_log_normalizer,
        tail_ratio=lambda th: 0.0,
        fixed_kernels=("nu",),
    ),
    "zero-inflated-poisson": Law(
        kind="discrete",
        domains={"pi": _UNIT, "theta": _POSITIVE},
        support=_from_zero,
        log_factor=_zip_log_factor,
        kernels={"theta": _zip_kernel},
        log_normalizer=lambda th: th["theta"],
        tail_ratio=lambda th: 0.0,
    ),
    # -- continuous --
    "gamma": Law(
        kind="continuous",
        domains={"r": _POSITIVE, "rho": _POSITIVE},
        support=_from_zero,
        log_factor=lambda th, x: (th["r"] - 1.0) * np.log(x) - th["rho"] * x,
        kernels={"r": lambda th, x: np.log(x), "rho": lambda th, x: -x},
        log_normalizer=lambda th: math.lgamma(th["r"]) - th["r"] * math.log(th["rho"]),
        span=_gamma_span,
        fixed_kernels=("r", "rho"),
    ),
    "exponential": Law(
        kind="continuous",
        domains={"theta": _POSITIVE},
        support=_from_zero,
        log_factor=lambda th, x: -th["theta"] * x,
        kernels={"theta": lambda th, x: -x},
        log_normalizer=lambda th: -math.log(th["theta"]),
        span=_quantiles(lambda th, u: -math.log1p(-u) / th["theta"]),
        fixed_kernels=("theta",),
    ),
    "weibull": Law(
        kind="continuous",
        domains={"beta": _POSITIVE, "lam": _POSITIVE},
        support=_from_zero,
        log_factor=lambda th, x: (
            math.log(th["beta"]) + (th["beta"] - 1.0) * np.log(x) - th["lam"] * x ** th["beta"]
        ),
        kernels={"lam": lambda th, x: -(x ** th["beta"])},
        log_normalizer=lambda th: -math.log(th["lam"]),
        span=_quantiles(lambda th, u: (-math.log1p(-u) / th["lam"]) ** (1.0 / th["beta"])),
        fixed_kernels=("lam",),
    ),
    "beta": Law(
        kind="continuous",
        domains={"alpha": _POSITIVE, "beta": _POSITIVE},
        support=lambda th: (0.0, 1.0),
        log_factor=lambda th, x: (th["alpha"] - 1.0) * np.log(x) + (th["beta"] - 1.0) * np.log1p(-x),
        kernels={"alpha": lambda th, x: np.log(x), "beta": lambda th, x: np.log1p(-x)},
        log_normalizer=lambda th: (
            math.lgamma(th["alpha"]) + math.lgamma(th["beta"]) - math.lgamma(th["alpha"] + th["beta"])
        ),
        fixed_kernels=("alpha", "beta"),
    ),
    "pareto": Law(
        kind="continuous",
        domains={"xm": _POSITIVE, "alpha": _POSITIVE},
        support=lambda th: (th["xm"], math.inf),
        log_factor=lambda th, x: -(th["alpha"] + 1.0) * np.log(x),
        kernels={"alpha": lambda th, x: -np.log(x)},
        log_normalizer=lambda th: -th["alpha"] * math.log(th["xm"]) - math.log(th["alpha"]),
        span=_quantiles(lambda th, u: th["xm"] * (1.0 - u) ** (-1.0 / th["alpha"])),
        fixed_kernels=("alpha",),
    ),
    "halfnormal": Law(
        kind="continuous",
        domains={"sigma": _POSITIVE},
        support=_from_zero,
        log_factor=_halfnormal_log_factor,
        kernels={"sigma": Factored(lambda th: (th["sigma"] ** -3, 0.0), lambda th, x: x * x)},
        log_normalizer=lambda th: math.log(th["sigma"]),
        span=_halfnormal_span,
    ),
    "lognormal": Law(
        kind="continuous",
        domains={"sigma": _POSITIVE, "mu": _REAL},
        support=_from_zero,
        log_factor=_lognormal_log_factor,
        kernels={"mu": Factored(_lognormal_coefficient, lambda th, x: np.log(x))},
        log_normalizer=lambda th: 0.5 * math.log(2.0 * math.pi) + math.log(th["sigma"]),
        span=_lognormal_span,
    ),
    "gumbel": Law(
        kind="continuous",
        domains={"mu": _REAL},
        support=lambda th: _REAL,
        log_factor=_gumbel_log_factor,
        # not Factored: T = -e^(-x) overflows below x = -709, where this does not
        kernels={"mu": lambda th, x: -np.exp(-(x - th["mu"]))},
        log_normalizer=lambda th: -th["mu"],
        span=_quantiles(lambda th, u: th["mu"] - math.log(-math.log(u))),
    ),
    "half-student": Law(
        kind="continuous",
        domains={"nu": _POSITIVE},
        support=_from_zero,
        log_factor=lambda th, x: -((th["nu"] + 1.0) / 2.0) * np.log1p(x * x / th["nu"]),
        kernels={"nu": _half_student_kernel},
        log_normalizer=_half_student_log_normalizer,
        span=_half_student_span,
    ),
    # -- mixed: an atom at 0 plus a density on (0, inf) --
    "zero-inflated-exponential": Law(
        kind="mixed",
        domains={"pi": _UNIT, "theta": _POSITIVE},
        support=_from_zero,
        log_factor=_zie_log_factor,
        kernels={"theta": _zie_kernel},
        log_normalizer=lambda th: 0.0,
        span=_quantiles(lambda th, u: -math.log1p(-u) / th["theta"]),
    ),
}


# ---------------------------------------------------------------------------
# views: families, counting laws and pairwise laws


@dataclass(frozen=True)
class DensityFamily:
    """One-parameter family f_nu = exp(log_factor - log_normalizer) on a support.

    kernel(nu, x) = d/dnu log_factor(nu, x); its centred version is the score.
    span(nu, eps) gives the ends of an unbounded continuous support past which
    each tail holds at most eps (`Law.span`).
    tail_ratio(nu) is the limit of p(k+1)/p(k) on an infinite discrete support.
    factor, when set, is (coefficient, statistic): kernel(nu, x) is
    a T(x) + b, bit for bit, with (a, b) = coefficient(nu) and T =
    statistic(x), or T(x) itself at every nu when coefficient is None (a
    fixed kernel), so a scan builds T once.
    kernel, and log_factor on an infinite discrete support, also take nu as
    a column of values (shape (rows, 1)) and give one row per value, each
    with the bits of the call at that value (`Law`): a scan reads them over
    blocks of nus.
    """

    name: str
    kind: str
    param_name: str
    param_interval: tuple[float, float]
    fixed_params: Mapping[str, float]
    support: tuple[float, float]
    log_factor: Callable[[float, np.ndarray], np.ndarray]
    kernel: Callable[[float, np.ndarray], np.ndarray]
    log_normalizer: Callable[[float], float]
    span: Callable[[float, float], tuple[float, float]] | None = None
    tail_ratio: Callable[[float], float] | None = None
    factor: tuple[Callable[[float], tuple[float, float]] | None,
                  Callable[[np.ndarray], np.ndarray]] | None = None

    def validate_param(self, nu: float) -> float:
        nu = float(nu)
        lo, hi = self.param_interval
        if not (lo < nu < hi) or not math.isfinite(nu):
            raise ValueError(
                f"{self.name}: parameter {self.param_name}={nu!r} outside ({lo}, {hi})"
            )
        return nu

    def describe(self) -> str:
        fixed = ",".join(f"{k}={v:g}" for k, v in self.fixed_params.items())
        return f"{self.name}({fixed})" if fixed else self.name


def given(label: str, params: Mapping[str, float], keys: Collection[str]) -> dict[str, float]:
    """{key: float(params[key])} for each key; a missing key, or any other key
    in params, raises starting with `label`."""
    for key in keys:
        if key not in params:
            raise ValueError(f"{label} needs parameter {key!r}")
    unknown = set(params).difference(keys)
    if unknown:
        raise ValueError(f"{label}: unknown parameters {sorted(unknown)}")
    return {key: float(params[key]) for key in keys}


def checked(label: str, name: str, value: float, domain: tuple[float, float],
            integer: bool = False) -> float:
    """value, checked against its domain: the open interval, or for a whole
    number the closed one. Errors start with `label` and name `name`."""
    lo, hi = domain
    v = float(value)
    if integer:
        if not v.is_integer():
            raise ValueError(f"{label}: {name} must be an integer, got {v!r}")
        v = int(v)
        ok, need = lo <= v <= hi, f"{name} >= {lo:g}" if v < lo else f"{name} <= {hi:g}"
    else:
        ok = lo < v < hi
        need = f"{name} > {lo:g}" if hi == math.inf else f"{name} in ({lo:g},{hi:g})"
    if not ok:
        raise ValueError(f"{label} needs {need}")
    return v


@dataclass(frozen=True)
class View:
    """A table law as seen by one family, counting law, pairwise law or path.

    varied    the parameter the view varies (None: every one is fixed).
    defaults  values of fixed parameters that may be left out.
    shown     the view's own name of a law parameter, where it differs.
    domains   narrower domains than the law's, where the view needs them.
    Defaults and given values use the view's names.
    """

    law: str
    varied: str | None = None
    defaults: Mapping[str, float] = field(default_factory=dict)
    shown: Mapping[str, str] = field(default_factory=dict)
    domains: Mapping[str, tuple[float, float]] = field(default_factory=dict)

    def named(self, theta: Theta) -> dict[str, float]:
        """theta under the view's names."""
        return {self.shown.get(p, p): v for p, v in theta.items()}

    def log_factor(self, label: str, theta: Theta, x) -> np.ndarray:
        """The law's log factor at theta on x. One whose terms overflow a
        double, as `math.lgamma` does on log (r)_k at r = 1e308, is refused
        naming `label` and theta under the view's names; at a column of
        values the OverflowError passes on, for the caller to read those
        values one at a time."""
        try:
            return LAWS[self.law].log_factor(theta, x)
        except OverflowError:
            if any(np.ndim(v) for v in theta.values()):
                raise  # a block of values: the caller reads them one at a time
            shown = ",".join(f"{k}={v:g}" for k, v in self.named(theta).items())
            raise ValueError(f"{label}: log factor overflows a double at {shown}") from None

    def bind(self, label: str, params: Mapping[str, float]) -> dict[str, float]:
        """The fixed parameters, checked against their domains, under the
        law's names; errors start with `label` and use the view's names. The
        varied parameter is refused by name: the scan, not params, sets it."""
        law = LAWS[self.law]
        scanned = self.shown.get(self.varied, self.varied)
        if scanned in params:
            raise ValueError(f"{label}: {scanned!r} is the scanned parameter, not a fixed one")
        fixed = {p: self.shown.get(p, p) for p in law.domains if p != self.varied}
        values = given(label, {**self.defaults, **params}, fixed.values())
        return {p: checked(label, name, values[name], self.domains.get(p, law.domains[p]),
                           p in law.integers) for p, name in fixed.items()}

    def curve(self, name: str, fixed: Theta, param: str, interval: tuple[float, float],
              at: Callable[[float], Theta],
              kernel: Callable[[float, np.ndarray], np.ndarray],
              factor: tuple | None) -> DensityFamily:
        """The family s -> the law at at(s), s in `interval`, with kernel(s, x) =
        d/ds log_factor and its `DensityFamily.factor`; the unmoved
        parameters `fixed` give the support."""
        law = LAWS[self.law]
        return DensityFamily(
            name=name, kind=law.kind, param_name=param, param_interval=interval,
            fixed_params=self.named(fixed), support=law.support(fixed),
            log_factor=lambda s, x: self.log_factor(name, at(s), x), kernel=kernel,
            log_normalizer=lambda s: law.log_normalizer(at(s)),
            span=None if law.span is None else lambda s, eps: law.span(at(s), eps),
            tail_ratio=None if law.tail_ratio is None else lambda s: law.tail_ratio(at(s)),
            factor=factor,
        )

    def family(self, name: str, label: str, params: Mapping[str, float]) -> DensityFamily:
        """The one-parameter family in `varied`, the other parameters fixed
        at `params` or their defaults. Its factor reads a `Factored` kernel's
        statistic, or a fixed kernel, at the fixed parameters alone."""
        law = LAWS[self.law]
        fixed = self.bind(label, params)
        free = self.varied
        declared = law.kernels.get(free)

        def at(nu: float) -> dict[str, float]:
            return {**fixed, free: nu}

        if isinstance(declared, Factored):
            factor = (lambda nu: declared.coefficient(at(nu)),
                      lambda x: declared.statistic(fixed, x))
        else:
            factor = (None, lambda x: declared(fixed, x)) if free in law.fixed_kernels else None
        return self.curve(name, fixed, self.shown.get(free, free), law.domains[free], at,
                          lambda nu, x: law.kernels[free](at(nu), x), factor)


# the Table-1 families: the law each one views, the parameter it varies and
# the defaults of the fixed ones
_FAMILIES: dict[str, View] = {
    "poisson": View("poisson", "theta"),
    "geometric": View("geometric-q", "q"),
    "negbinomial-in-q": View("negbinomial-q", "q", {"r": 2.0}),
    "negbinomial-in-shape": View("negbinomial-p", "r", {"p": 0.5}, {"r": "nu"}),
    "binomial-in-p": View("binomial", "p", {"n": 10}),
    "betabinomial-in-r": View("betabinomial", "r", {"n": 5, "s": 2.0}),
    "betabinomial-in-s": View("betabinomial", "s", {"n": 5, "r": 2.0}),
    "logseries": View("logseries", "theta"),
    "cmp-in-dispersion": View("cmp", "nu", {"lam": 0.5}, domains={"lam": _UNIT}),
    "zero-inflated-poisson": View("zero-inflated-poisson", "theta", {"pi": 0.5}),
    "gamma-in-shape": View("gamma", "r", {"rho": 1.0}),
    "gamma-in-rate": View("gamma", "rho", {"r": 2.0}),
    "exponential-in-rate": View("exponential", "theta"),
    "weibull-in-rate": View("weibull", "lam", {"beta": 2.0}),
    "beta-in-alpha": View("beta", "alpha", {"beta": 2.0}),
    "beta-in-beta": View("beta", "beta", {"alpha": 2.0}),
    "pareto-in-shape": View("pareto", "alpha", {"xm": 1.0}),
    "halfnormal-in-scale": View("halfnormal", "sigma"),
    "lognormal-in-mu": View("lognormal", "mu", {"sigma": 1.0}),
    "gumbel-in-location": View("gumbel", "mu"),
    "half-student-in-df": View("half-student", "nu"),
    "zero-inflated-exponential": View("zero-inflated-exponential", "theta", {"pi": 0.4}),
}

FAMILY_NAMES = tuple(sorted(_FAMILIES))


def make_family(name: str, **fixed_params: float) -> DensityFamily:
    """Build a catalogue family; unknown names and bad parameters error."""
    known("family", name, FAMILY_NAMES)
    return _FAMILIES[name].family(name, name, fixed_params)


def parse_spec(text: str) -> tuple[str, dict[str, float]]:
    """Parse `name[:key=val[,key=val]*]` into (name, params); a key may appear
    once."""
    text = text.strip()
    if not text:
        raise ValueError("empty spec string")
    name, sep, rest = text.partition(":")
    name = name.strip()
    if not name:
        raise ValueError(f"spec {text!r}: missing name")
    params: dict[str, float] = {}
    if sep and not rest.strip():
        raise ValueError(f"spec {text!r}: empty parameter list after ':'")
    if rest.strip():
        for token in rest.split(","):
            key, eq, val = token.partition("=")
            key = key.strip()
            if not eq or not key:
                raise ValueError(f"spec {text!r}: malformed token {token.strip()!r}")
            if key in params:
                raise ValueError(f"spec {text!r}: parameter {key!r} given twice")
            try:
                params[key] = float(val)
            except ValueError:
                raise ValueError(
                    f"spec {text!r}: non-numeric value in token {token.strip()!r}"
                ) from None
    return name, params


def family_from_spec(text: str) -> DensityFamily:
    name, params = parse_spec(text)
    return make_family(name, **params)


# ---------------------------------------------------------------------------
# density evaluation


def density(f: DensityFamily, nu: float, grid: SupportGrid) -> Distribution:
    """Evaluate the family at nu on the grid and normalize over it.

    The raw values exp(log_factor - log_normalizer) * weight sum to
    1 - truncated tail (up to quadrature error for continuous kinds); the
    returned masses are renormalized over the grid so downstream cumulative
    quantities are exact for the discretized law.
    """
    nu = f.validate_param(nu)
    log_d = f.log_factor(nu, grid.points) - f.log_normalizer(nu)
    vals = np.exp(log_d) * grid.weights()
    if not math.isfinite(vals.max()):  # vals are >= 0 or NaN; max keeps every NaN and inf
        raise ValueError(f"{f.name}: non-finite density values at {f.param_name}={nu}")
    total = vals.sum()
    if not total > 0:
        cells = "" if grid.step is None else (f": its cells, {grid.step:.3g} wide, miss the "
                                              "law's mass; --grid-points sets their count")
        raise ValueError(f"{f.name}: zero total mass on the grid at {f.param_name}={nu}{cells}")
    return Distribution(grid, vals / total, (log_d, math.log(total)))


def normalized(grid: SupportGrid, log_weights: np.ndarray) -> Distribution:
    """The law with density exp(log_weights) w.r.t. the grid's measure,
    normalized numerically over the grid: exp(logw - max) * weights / sum.

    Subtracting the maximum keeps every weight finite however large the
    factor; laws without a closed-form normalizer on the grid use this.
    """
    log_d = log_weights - log_weights.max()
    w = np.exp(log_d) * grid.weights()
    total = w.sum()
    return Distribution(grid, w / total, (log_d, math.log(total)))


# ---------------------------------------------------------------------------
# default grids


_SPAN_WINDOW = 64  # points of the first window of the tail search


def _tail_cut(
    log_pmf: Callable[[np.ndarray, np.ndarray], np.ndarray], lo: int, hi: int, tail_eps: float,
    limits: Sequence[float], label: str, cap: str = "k_max",
) -> list[tuple[int, float]]:
    """Per row, the first k in lo+1..hi-1 whose bound on the tail past k is
    <= tail_eps, and that bound.

    Row j is a law whose p(k+1)/p(k) tends to limits[j]; log_pmf(rows, ks)
    gives the log masses of the rows `rows` (an index array) at the float
    points ks, one row each, or a 1-d array for one row. The ratio
    p(k+1)/p(k) of every infinite discrete law in `LAWS` is monotone in k
    from lo + 1 on (the zero-inflated Poisson's atom breaks it at lo) and
    tends to its limit, so past the mode the tail past k is at most
    p(k+1) / (1 - rho), rho = max(p(k+1)/p(k), limit) (the ratio test;
    Feller, vol. 1, ch. XI). Read in logs, with nothing subtracted from 1,
    the normalizer's error only scales the bound.

    The search evaluates a window of 64 points from lo and doubles it up to
    hi, on the rows whose k it has not found, with at most _BLOCK_ELEMENTS
    points in one call unless one row holds more; it reads the bound at the
    new k only, where p(k+1) <= tail_eps and rho < 1, and takes each row's
    first k there. A row reads the windows a search of that row alone reads,
    and every bound equals that of one pass over lo..hi. A row that no k
    brings to the target raises ValueError naming `label`, the target and
    hi, as `cap`=hi.
    """
    # a limit of 1 or more bounds no tail: no k then meets the target
    log_eps = np.array([math.log(tail_eps) if tail_eps > 0 and limit < 1 else -math.inf
                        for limit in limits])[:, None]
    log_limit = np.array([math.log(limit) if limit > 0 else -math.inf for limit in limits])[:, None]
    cuts: list[tuple[int, float] | None] = [None] * len(limits)
    rows = np.arange(len(limits))  # the rows whose k is not found yet
    last = None  # their log masses at the last k read
    size, width = 0, _SPAN_WINDOW
    while lo + size <= hi:
        top = min(lo + width - 1, hi)
        ks = np.arange(lo + size, top + 1, dtype=float)
        start = max(size - 1, 1)  # offset of the first k this window settles
        per = max(1, _BLOCK_ELEMENTS // ks.size)
        ends, found = [], 0
        for c in range(0, rows.size, per):
            new = log_pmf(rows[c : c + per], ks)
            new = new if new.ndim == 2 else new[None]
            ends.append(new[:, -1:])
            # from offset start on: the first window's own, or the last k read and the window
            logs = new[:, 1:] if last is None else np.concatenate((last[c : c + per], new), axis=1)
            after = logs[:, 1:]  # log p(k+1)
            step = after - logs[:, :-1]
            eps = log_eps[c : c + per]
            near = (after <= eps) & (step < 0.0)
            if not np.count_nonzero(near):
                continue
            with np.errstate(invalid="ignore", divide="ignore"):  # read where near alone
                bounds = after - np.log(-np.expm1(np.maximum(step, log_limit[c : c + per])))
            hit = near & (bounds <= eps)
            for r, j in enumerate(hit.argmax(axis=1).tolist()):  # each row's first hit
                if hit[r, j]:
                    cuts[rows[c + r]] = lo + start + j, math.exp(bounds[r, j])
                    found += 1
        if found == rows.size:
            return cuts
        last = ends[0] if len(ends) == 1 else np.concatenate(ends)
        if found:
            keep = np.array([cuts[r] is None for r in rows.tolist()])
            rows, log_eps, log_limit, last = rows[keep], log_eps[keep], log_limit[keep], last[keep]
        size, width = top + 1 - lo, width * 2
    raise ValueError(f"{label}: tail-mass target {tail_eps:g} unreachable within {cap}={hi}")


def _cuts(f: DensityFamily, nus: Sequence[float], lo: int, kmax: int, tail_eps: float,
          cap: str) -> list[tuple[int, float]]:
    """`_tail_cut` of f at every nu, one row per nu: a column of the nus
    gives the rows of a window, each with the bits of its own call."""
    log_a = np.array([f.log_normalizer(nu) for nu in nus])
    column = np.array(nus)[:, None]

    def log_pmf(rows: np.ndarray, ks: np.ndarray) -> np.ndarray:
        if rows.size == 1:
            return f.log_factor(nus[rows[0]], ks) - log_a[rows[0]]
        return f.log_factor(column[rows], ks) - log_a[rows, None]

    return _tail_cut(log_pmf, lo, kmax, tail_eps, [f.tail_ratio(nu) for nu in nus], f.name, cap)


def _ends(f: DensityFamily, nu: float) -> tuple[float, float]:
    """f's span at nu for the tail target _CONT_TAIL, refused naming f and nu
    unless twice each end is finite, so that the padded span is finite too."""
    try:
        ends = f.span(nu, _CONT_TAIL)
    except (OverflowError, ValueError):  # a float past the largest double, or a
        ends = math.inf, math.inf        # Newton step past a double's precision
    if not all(math.isfinite(2.0 * end) for end in ends):
        raise ValueError(f"{f.describe()}: grid span not finite at {f.param_name}={nu:g}")
    return ends


def default_grid(
    f: DensityFamily,
    nus,
    *,
    tail_eps: float = TAIL_CUT_EPS,
    kmax: int = TAIL_CUT_KMAX,
    grid_points: int = GRID_POINTS,
    cap: str = "k_max",
) -> SupportGrid:
    """Grid valid for every nu in `nus`: tail-complete, with grid_points
    cells, a whole number in [1, MAX_GRID_POINTS], on a continuous or mixed
    support. An infinite discrete support ends at the largest `_tail_cut`
    over the nus, read up to k = kmax, which a refusal names as `cap`; one
    search reads every nu as a row of a window, and where it raises, the
    nus are read again one at a time, so that the refusal is that of the
    first nu that gives one, as a search per nu names it. An unbounded
    continuous support spans the ends of `_ends` over the nus, padded, and
    an end too large for a finite span is refused by name."""
    nus = [f.validate_param(nu) for nu in np.atleast_1d(nus)]
    if not nus:
        raise ValueError("default_grid needs at least one parameter value")
    n = checked("default_grid", "grid_points", grid_points, (1, MAX_GRID_POINTS), integer=True)
    lo_s, hi_s = f.support

    if f.kind == "discrete":
        if math.isfinite(hi_s):
            return discrete_grid(int(lo_s), int(hi_s))
        try:
            cuts = _cuts(f, nus, int(lo_s), kmax, tail_eps, cap)
        except (ArithmeticError, ValueError):
            if len(nus) == 1:
                raise
            cuts = [cut for nu in nus for cut in _cuts(f, [nu], int(lo_s), kmax, tail_eps, cap)]
        return discrete_grid(int(lo_s), max(c[0] for c in cuts), max(c[1] for c in cuts))

    if f.kind == "mixed":
        # atom at 0 plus the continuous part truncated at its upper end
        upper = max(_ends(f, nu)[1] for nu in nus) * (1.0 + _PAD)
        return mixed_grid(upper, n=n, tail_mass=_CONT_TAIL)

    # continuous
    if math.isfinite(lo_s) and math.isfinite(hi_s):
        lo, hi, tail = lo_s, hi_s, 0.0
    else:
        ends = [_ends(f, nu) for nu in nus]
        lo = min(end[0] for end in ends)
        hi = max(end[1] for end in ends)
        pad = _PAD * (hi - lo)
        lo = max(lo - pad, lo_s)
        hi = hi + pad if not math.isfinite(hi_s) else min(hi + pad, hi_s)
        tail = 2.0 * _CONT_TAIL
    return continuous_grid(lo, hi, n=n, tail_mass=tail)
