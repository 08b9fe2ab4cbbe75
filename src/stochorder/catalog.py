"""Family catalogue: support grids, parameter-indexed densities, and kernels.

Each family is a triple (log_factor, kernel, log_normalizer) over an open
parameter interval: the density in nu is f_nu(x) = exp(log_factor(nu, x) -
log_normalizer(nu)) with respect to counting measure (discrete), Lebesgue
measure (continuous), or delta_0 + Lebesgue (mixed). The kernel equals
d/dnu log_factor, so the centred kernel is the score. Grids discretize the
support: integers for discrete laws, uniform midpoint cells for continuous
ones, an exact atom plus midpoint cells for the mixed kind.

Parametrization notes: `geometric` and `negbinomial-in-q` vary the
power-series argument q (mass proportional to a(k) q^k, kernel k/q); the
success-probability parametrizations used by the compound counting table
live in the compound module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Callable, Mapping

import numpy as np
from scipy.special import betaincinv, gammaincinv, stdtrit

from .special import digamma, digamma_vec, log_factorial_vec, log_pochhammer, log_pochhammer_vec

__all__ = [
    "SupportGrid",
    "Distribution",
    "DensityFamily",
    "FAMILY_NAMES",
    "make_family",
    "parse_spec",
    "density",
    "survival",
    "hazard",
    "default_grid",
    "discrete_grid",
    "continuous_grid",
    "mixed_grid",
    "MAX_GRID_POINTS",
]

# Quantile span for continuous supports; the grid covers [q(CONT_TAIL),
# q(1 - CONT_TAIL)] padded by 5% a side, so the omitted mass is ~2e-9.
_CONT_TAIL = 1e-9
_PAD = 0.05

# Most points default_grid puts on a continuous or mixed support.
MAX_GRID_POINTS = 100_000

_NORMAL = NormalDist()


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
                mass of the true law outside [lower, upper] (estimate for
                continuous kinds, exact bound for discrete ones).
    """

    kind: str
    lower: float
    upper: float
    points: np.ndarray
    step: float | None
    truncation_tail_mass: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("discrete", "continuous", "mixed"):
            raise ValueError(f"unknown grid kind {self.kind!r}")
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or pts.size == 0:
            raise ValueError("grid needs a nonempty 1-d point array")
        if pts.size > 1 and not np.all(np.diff(pts) > 0):
            raise ValueError("grid points must be strictly increasing")
        if self.kind == "discrete":
            if self.step is not None:
                raise ValueError("discrete grids carry no step")
            if not np.all(pts == np.floor(pts)):
                raise ValueError("discrete grid points must be integers")
            if pts.size > 1 and not np.all(np.diff(pts) == 1.0):
                raise ValueError("discrete grid points must be consecutive")
        else:
            if self.step is None or not self.step > 0:
                raise ValueError("continuous/mixed grids need a positive step")
        if self.kind == "mixed" and pts[0] != self.lower:
            raise ValueError("mixed grid must start at its atom")

    @property
    def size(self) -> int:
        return int(self.points.size)

    def weights(self) -> np.ndarray:
        """Measure weight per point: 1 for atoms/integers, step for cells."""
        if self.kind == "discrete":
            return np.ones(self.size)
        if self.kind == "continuous":
            return np.full(self.size, float(self.step))
        w = np.full(self.size, float(self.step))
        w[0] = 1.0  # the atom
        return w


def discrete_grid(lo: int, hi: int, tail_mass: float = 0.0) -> SupportGrid:
    if hi < lo:
        raise ValueError("empty discrete grid")
    pts = np.arange(int(lo), int(hi) + 1, dtype=float)
    return SupportGrid("discrete", float(lo), float(hi), pts, None, tail_mass)


def continuous_grid(
    lo: float, hi: float, step: float | None = None, n: int | None = None, tail_mass: float = 0.0
) -> SupportGrid:
    """Uniform midpoint cells over [lo, hi]; give either the step or the count."""
    if not hi > lo:
        raise ValueError("continuous grid needs hi > lo")
    if (step is None) == (n is None):
        raise ValueError("give exactly one of step / n")
    if n is None:
        n = max(1, int(round((hi - lo) / step)))
    cell = (hi - lo) / n
    pts = lo + (np.arange(n) + 0.5) * cell
    return SupportGrid("continuous", float(lo), float(hi), pts, cell, tail_mass)


def mixed_grid(upper: float, step: float | None = None, n: int | None = None,
               tail_mass: float = 0.0) -> SupportGrid:
    """Atom at 0 plus uniform midpoint cells over (0, upper]."""
    inner = continuous_grid(0.0, upper, step=step, n=n)
    pts = np.concatenate(([0.0], inner.points))
    return SupportGrid("mixed", 0.0, float(upper), pts, inner.step, tail_mass)


# ---------------------------------------------------------------------------
# distributions


@dataclass(frozen=True)
class Distribution:
    """A law on a SupportGrid: masses aligned to the points, summing to one."""

    support: SupportGrid
    masses: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.masses, dtype=float)
        object.__setattr__(self, "masses", m)
        if m.shape != self.support.points.shape:
            raise ValueError("masses must align with the grid points")
        if np.any(m < 0):
            raise ValueError("masses must be nonnegative")
        total = m.sum()
        if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-9):
            raise ValueError(f"masses must sum to 1, got {total!r}")

    def survival_all(self) -> np.ndarray:
        """Right-tail mass including each point."""
        return np.cumsum(self.masses[::-1])[::-1]

    def density_all(self) -> np.ndarray:
        """Density w.r.t. the grid measure: mass divided by the point weight."""
        return self.masses / self.support.weights()

    def hazard_all(self) -> np.ndarray:
        """density / survival; NaN where the survival has hit zero."""
        surv = self.survival_all()
        dens = self.density_all()
        out = np.full(dens.shape, np.nan)
        ok = surv > 0
        out[ok] = dens[ok] / surv[ok]
        return out


def _locate(d: Distribution, x: float) -> int:
    pts = d.support.points
    i = int(np.searchsorted(pts, x))
    for j in (i - 1, i, i + 1):
        if 0 <= j < pts.size and math.isclose(pts[j], x, rel_tol=1e-12, abs_tol=1e-12):
            return j
    raise ValueError(f"{x!r} is not a grid point of this distribution")


def survival(d: Distribution, x: float) -> float:
    """P(X >= x) for a grid point x (right tail, inclusive)."""
    return float(d.survival_all()[_locate(d, x)])


def hazard(d: Distribution, x: float) -> float:
    """density(x) / P(X >= x); error where the survival is zero."""
    i = _locate(d, x)
    surv = float(d.survival_all()[i])
    if surv <= 0.0:
        raise ValueError(f"hazard undefined at {x!r}: survival is zero")
    return float(d.density_all()[i]) / surv


# ---------------------------------------------------------------------------
# families


@dataclass(frozen=True)
class DensityFamily:
    """One-parameter family f_nu = exp(log_factor - log_normalizer) on a support.

    kernel(nu, x) = d/dnu log_factor(nu, x); its centred version is the score.
    quantile(nu, u) picks grid spans for unbounded continuous supports.
    extras hold module-specific annotations (the compound module stores the
    normalizer derivative and affine kernel coefficients there).
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
    quantile: Callable[[float, float], float] | None = None
    extras: Mapping[str, object] = field(default_factory=dict)

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


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def _as_int(value: float, what: str) -> int:
    if value != int(value):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _log_binom(n: int, k: np.ndarray) -> np.ndarray:
    return (
        log_factorial_vec(np.full(k.shape, n))
        - log_factorial_vec(k)
        - log_factorial_vec(n - k)
    )


# -- discrete builders -------------------------------------------------------


def _poisson(fixed: dict) -> DensityFamily:
    _require(not fixed, "poisson takes no fixed parameters")
    return DensityFamily(
        name="poisson",
        kind="discrete",
        param_name="theta",
        param_interval=(0.0, math.inf),
        fixed_params={},
        support=(0.0, math.inf),
        log_factor=lambda th, k: k * math.log(th) - log_factorial_vec(k),
        kernel=lambda th, k: k / th,
        log_normalizer=lambda th: th,
    )


def _geometric(fixed: dict) -> DensityFamily:
    _require(not fixed, "geometric takes no fixed parameters")
    return DensityFamily(
        name="geometric",
        kind="discrete",
        param_name="q",
        param_interval=(0.0, 1.0),
        fixed_params={},
        support=(0.0, math.inf),
        log_factor=lambda q, k: k * math.log(q),
        kernel=lambda q, k: k / q,
        log_normalizer=lambda q: -math.log1p(-q),
    )


def _negbinomial_in_q(fixed: dict) -> DensityFamily:
    r = float(fixed.pop("r", 2.0))
    _require(not fixed, f"negbinomial-in-q: unknown fixed params {sorted(fixed)}")
    _require(r > 0, "negbinomial-in-q needs r > 0")

    def log_factor(q: float, k: np.ndarray) -> np.ndarray:
        return log_pochhammer_vec(r, k) - log_factorial_vec(k) + k * math.log(q)

    return DensityFamily(
        name="negbinomial-in-q",
        kind="discrete",
        param_name="q",
        param_interval=(0.0, 1.0),
        fixed_params={"r": r},
        support=(0.0, math.inf),
        log_factor=log_factor,
        kernel=lambda q, k: k / q,
        log_normalizer=lambda q: -r * math.log1p(-q),
    )


def _negbinomial_in_shape(fixed: dict) -> DensityFamily:
    p = float(fixed.pop("p", 0.5))
    _require(not fixed, f"negbinomial-in-shape: unknown fixed params {sorted(fixed)}")
    _require(0 < p < 1, "negbinomial-in-shape needs p in (0,1)")
    logq = math.log1p(-p)

    def log_factor(nu: float, k: np.ndarray) -> np.ndarray:
        return log_pochhammer_vec(nu, k) - log_factorial_vec(k) + k * logq

    return DensityFamily(
        name="negbinomial-in-shape",
        kind="discrete",
        param_name="nu",
        param_interval=(0.0, math.inf),
        fixed_params={"p": p},
        support=(0.0, math.inf),
        log_factor=log_factor,
        kernel=lambda nu, k: digamma_vec(nu + k) - digamma(nu),
        log_normalizer=lambda nu: -nu * math.log(p),
    )


def _binomial_in_p(fixed: dict) -> DensityFamily:
    n = _as_int(float(fixed.pop("n", 10)), "binomial-in-p n")
    _require(not fixed, f"binomial-in-p: unknown fixed params {sorted(fixed)}")
    _require(n >= 1, "binomial-in-p needs n >= 1")
    return DensityFamily(
        name="binomial-in-p",
        kind="discrete",
        param_name="p",
        param_interval=(0.0, 1.0),
        fixed_params={"n": n},
        support=(0.0, float(n)),
        log_factor=lambda p, k: _log_binom(n, k) + k * math.log(p) + (n - k) * math.log1p(-p),
        kernel=lambda p, k: k / p - (n - k) / (1.0 - p),
        log_normalizer=lambda p: 0.0,
    )


def _betabinomial_in_r(fixed: dict) -> DensityFamily:
    n = _as_int(float(fixed.pop("n", 5)), "betabinomial-in-r n")
    s = float(fixed.pop("s", 2.0))
    _require(not fixed, f"betabinomial-in-r: unknown fixed params {sorted(fixed)}")
    _require(n >= 1 and s > 0, "betabinomial-in-r needs n >= 1, s > 0")

    def log_factor(r: float, k: np.ndarray) -> np.ndarray:
        return _log_binom(n, k) + log_pochhammer_vec(r, k) + log_pochhammer_vec(s, n - k)

    return DensityFamily(
        name="betabinomial-in-r",
        kind="discrete",
        param_name="r",
        param_interval=(0.0, math.inf),
        fixed_params={"n": n, "s": s},
        support=(0.0, float(n)),
        log_factor=log_factor,
        kernel=lambda r, k: digamma_vec(r + k) - digamma(r),
        log_normalizer=lambda r: log_pochhammer(r + s, n),
    )


def _betabinomial_in_s(fixed: dict) -> DensityFamily:
    n = _as_int(float(fixed.pop("n", 5)), "betabinomial-in-s n")
    r = float(fixed.pop("r", 2.0))
    _require(not fixed, f"betabinomial-in-s: unknown fixed params {sorted(fixed)}")
    _require(n >= 1 and r > 0, "betabinomial-in-s needs n >= 1, r > 0")

    def log_factor(s: float, k: np.ndarray) -> np.ndarray:
        return _log_binom(n, k) + log_pochhammer_vec(r, k) + log_pochhammer_vec(s, n - k)

    return DensityFamily(
        name="betabinomial-in-s",
        kind="discrete",
        param_name="s",
        param_interval=(0.0, math.inf),
        fixed_params={"n": n, "r": r},
        support=(0.0, float(n)),
        log_factor=log_factor,
        kernel=lambda s, k: digamma_vec(s + n - k) - digamma(s),
        log_normalizer=lambda s: log_pochhammer(r + s, n),
    )


def _logseries(fixed: dict) -> DensityFamily:
    _require(not fixed, "logseries takes no fixed parameters")
    return DensityFamily(
        name="logseries",
        kind="discrete",
        param_name="theta",
        param_interval=(0.0, 1.0),
        fixed_params={},
        support=(1.0, math.inf),
        log_factor=lambda th, k: k * math.log(th) - np.log(k),
        kernel=lambda th, k: k / th,
        log_normalizer=lambda th: math.log(-math.log1p(-th)),
    )


def _cmp_in_dispersion(fixed: dict) -> DensityFamily:
    lam = float(fixed.pop("lam", 0.5))
    _require(not fixed, f"cmp-in-dispersion: unknown fixed params {sorted(fixed)}")
    _require(0 < lam < 1, "cmp-in-dispersion needs lam in (0,1)")
    loglam = math.log(lam)
    # series terms lam^k (k!)^-nu: geometric envelope, converges for lam < 1
    n_terms = max(2000, int(-60.0 / loglam) + 1)
    ks = np.arange(n_terms, dtype=float)
    logfact = log_factorial_vec(ks)

    def log_normalizer(nu: float) -> float:
        logs = ks * loglam - nu * logfact
        m = logs.max()
        return float(m + math.log(np.exp(logs - m).sum()))

    return DensityFamily(
        name="cmp-in-dispersion",
        kind="discrete",
        param_name="nu",
        param_interval=(0.0, math.inf),
        fixed_params={"lam": lam},
        support=(0.0, math.inf),
        log_factor=lambda nu, k: k * loglam - nu * log_factorial_vec(k),
        kernel=lambda nu, k: -log_factorial_vec(k),
        log_normalizer=log_normalizer,
    )


def _zero_inflated_poisson(fixed: dict) -> DensityFamily:
    pi = float(fixed.pop("pi", 0.5))
    _require(not fixed, f"zero-inflated-poisson: unknown fixed params {sorted(fixed)}")
    _require(0 < pi < 1, "zero-inflated-poisson needs pi in (0,1)")

    # factorization w(0) = (1-pi)e^theta + pi, w(k) = pi theta^k/k!, A = e^theta
    def log_factor(th: float, k: np.ndarray) -> np.ndarray:
        body = math.log(pi) + k * math.log(th) - log_factorial_vec(np.maximum(k, 0))
        at0 = np.logaddexp(math.log1p(-pi) + th, math.log(pi))
        return np.where(k == 0, at0, body)

    def kernel(th: float, k: np.ndarray) -> np.ndarray:
        a = math.exp(math.log(pi) - np.logaddexp(math.log1p(-pi) + th, math.log(pi)))
        return np.where(k == 0, 1.0 - a, k / th)

    return DensityFamily(
        name="zero-inflated-poisson",
        kind="discrete",
        param_name="theta",
        param_interval=(0.0, math.inf),
        fixed_params={"pi": pi},
        support=(0.0, math.inf),
        log_factor=log_factor,
        kernel=kernel,
        log_normalizer=lambda th: th,
    )


# -- continuous builders ------------------------------------------------------


def _gamma_in_shape(fixed: dict) -> DensityFamily:
    rho = float(fixed.pop("rho", 1.0))
    _require(not fixed, f"gamma-in-shape: unknown fixed params {sorted(fixed)}")
    _require(rho > 0, "gamma-in-shape needs rho > 0")
    return DensityFamily(
        name="gamma-in-shape",
        kind="continuous",
        param_name="r",
        param_interval=(0.0, math.inf),
        fixed_params={"rho": rho},
        support=(0.0, math.inf),
        log_factor=lambda r, x: (r - 1.0) * np.log(x) - rho * x,
        kernel=lambda r, x: np.log(x),
        log_normalizer=lambda r: math.lgamma(r) - r * math.log(rho),
        quantile=lambda r, u: float(gammaincinv(r, u)) / rho,
    )


def _gamma_in_rate(fixed: dict) -> DensityFamily:
    r = float(fixed.pop("r", 2.0))
    _require(not fixed, f"gamma-in-rate: unknown fixed params {sorted(fixed)}")
    _require(r > 0, "gamma-in-rate needs r > 0")
    return DensityFamily(
        name="gamma-in-rate",
        kind="continuous",
        param_name="rho",
        param_interval=(0.0, math.inf),
        fixed_params={"r": r},
        support=(0.0, math.inf),
        log_factor=lambda rho, x: (r - 1.0) * np.log(x) - rho * x,
        kernel=lambda rho, x: -x,
        log_normalizer=lambda rho: math.lgamma(r) - r * math.log(rho),
        quantile=lambda rho, u: float(gammaincinv(r, u)) / rho,
    )


def _exponential_in_rate(fixed: dict) -> DensityFamily:
    _require(not fixed, "exponential-in-rate takes no fixed parameters")
    return DensityFamily(
        name="exponential-in-rate",
        kind="continuous",
        param_name="theta",
        param_interval=(0.0, math.inf),
        fixed_params={},
        support=(0.0, math.inf),
        log_factor=lambda th, x: -th * x,
        kernel=lambda th, x: -x,
        log_normalizer=lambda th: -math.log(th),
        quantile=lambda th, u: -math.log1p(-u) / th,
    )


def _weibull_in_rate(fixed: dict) -> DensityFamily:
    beta = float(fixed.pop("beta", 2.0))
    _require(not fixed, f"weibull-in-rate: unknown fixed params {sorted(fixed)}")
    _require(beta > 0, "weibull-in-rate needs beta > 0")
    logbeta = math.log(beta)
    return DensityFamily(
        name="weibull-in-rate",
        kind="continuous",
        param_name="lam",
        param_interval=(0.0, math.inf),
        fixed_params={"beta": beta},
        support=(0.0, math.inf),
        log_factor=lambda lam, x: logbeta + (beta - 1.0) * np.log(x) - lam * x**beta,
        kernel=lambda lam, x: -(x**beta),
        log_normalizer=lambda lam: -math.log(lam),
        quantile=lambda lam, u: (-math.log1p(-u) / lam) ** (1.0 / beta),
    )


def _beta_in_alpha(fixed: dict) -> DensityFamily:
    b = float(fixed.pop("beta", 2.0))
    _require(not fixed, f"beta-in-alpha: unknown fixed params {sorted(fixed)}")
    _require(b > 0, "beta-in-alpha needs beta > 0")
    return DensityFamily(
        name="beta-in-alpha",
        kind="continuous",
        param_name="alpha",
        param_interval=(0.0, math.inf),
        fixed_params={"beta": b},
        support=(0.0, 1.0),
        log_factor=lambda a, x: (a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-x),
        kernel=lambda a, x: np.log(x),
        log_normalizer=lambda a: math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b),
        quantile=lambda a, u: float(betaincinv(a, b, u)),
    )


def _beta_in_beta(fixed: dict) -> DensityFamily:
    a = float(fixed.pop("alpha", 2.0))
    _require(not fixed, f"beta-in-beta: unknown fixed params {sorted(fixed)}")
    _require(a > 0, "beta-in-beta needs alpha > 0")
    return DensityFamily(
        name="beta-in-beta",
        kind="continuous",
        param_name="beta",
        param_interval=(0.0, math.inf),
        fixed_params={"alpha": a},
        support=(0.0, 1.0),
        log_factor=lambda b, x: (a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-x),
        kernel=lambda b, x: np.log1p(-x),
        log_normalizer=lambda b: math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b),
        quantile=lambda b, u: float(betaincinv(a, b, u)),
    )


def _pareto_in_shape(fixed: dict) -> DensityFamily:
    xm = float(fixed.pop("xm", 1.0))
    _require(not fixed, f"pareto-in-shape: unknown fixed params {sorted(fixed)}")
    _require(xm > 0, "pareto-in-shape needs xm > 0")
    return DensityFamily(
        name="pareto-in-shape",
        kind="continuous",
        param_name="alpha",
        param_interval=(0.0, math.inf),
        fixed_params={"xm": xm},
        support=(xm, math.inf),
        log_factor=lambda a, x: -(a + 1.0) * np.log(x),
        kernel=lambda a, x: -np.log(x),
        log_normalizer=lambda a: -a * math.log(xm) - math.log(a),
        quantile=lambda a, u: xm * (1.0 - u) ** (-1.0 / a),
    )


def _halfnormal_in_scale(fixed: dict) -> DensityFamily:
    _require(not fixed, "halfnormal-in-scale takes no fixed parameters")
    c = 0.5 * math.log(2.0 / math.pi)
    return DensityFamily(
        name="halfnormal-in-scale",
        kind="continuous",
        param_name="sigma",
        param_interval=(0.0, math.inf),
        fixed_params={},
        support=(0.0, math.inf),
        log_factor=lambda s, x: c - x * x / (2.0 * s * s),
        kernel=lambda s, x: x * x / s**3,
        log_normalizer=lambda s: math.log(s),
        quantile=lambda s, u: s * _NORMAL.inv_cdf((1.0 + u) / 2.0),
    )


def _lognormal_in_mu(fixed: dict) -> DensityFamily:
    sigma = float(fixed.pop("sigma", 1.0))
    _require(not fixed, f"lognormal-in-mu: unknown fixed params {sorted(fixed)}")
    _require(sigma > 0, "lognormal-in-mu needs sigma > 0")
    s2 = sigma * sigma
    logz = 0.5 * math.log(2.0 * math.pi) + math.log(sigma)
    return DensityFamily(
        name="lognormal-in-mu",
        kind="continuous",
        param_name="mu",
        param_interval=(-math.inf, math.inf),
        fixed_params={"sigma": sigma},
        support=(0.0, math.inf),
        log_factor=lambda mu, x: -((np.log(x) - mu) ** 2) / (2.0 * s2) - np.log(x),
        kernel=lambda mu, x: (np.log(x) - mu) / s2,
        log_normalizer=lambda mu: logz,
        quantile=lambda mu, u: math.exp(mu + sigma * _NORMAL.inv_cdf(u)),
    )


def _gumbel_in_location(fixed: dict) -> DensityFamily:
    _require(not fixed, "gumbel-in-location takes no fixed parameters")

    # w_mu(x) = f0(x - mu) e^{-mu}, A = e^{-mu}: the extra e^{-mu} makes
    # d/dmu log w equal the table kernel -e^{-(x-mu)} exactly.
    def log_factor(mu: float, x: np.ndarray) -> np.ndarray:
        z = x - mu
        return -z - np.exp(-z) - mu

    return DensityFamily(
        name="gumbel-in-location",
        kind="continuous",
        param_name="mu",
        param_interval=(-math.inf, math.inf),
        fixed_params={},
        support=(-math.inf, math.inf),
        log_factor=log_factor,
        kernel=lambda mu, x: -np.exp(-(x - mu)),
        log_normalizer=lambda mu: -mu,
        quantile=lambda mu, u: mu - math.log(-math.log(u)),
    )


def _half_student_in_df(fixed: dict) -> DensityFamily:
    _require(not fixed, "half-student-in-df takes no fixed parameters")

    def log_factor(nu: float, x: np.ndarray) -> np.ndarray:
        return -((nu + 1.0) / 2.0) * np.log1p(x * x / nu)

    def kernel(nu: float, x: np.ndarray) -> np.ndarray:
        x2 = x * x
        return -0.5 * np.log1p(x2 / nu) + (nu + 1.0) * x2 / (2.0 * nu * (nu + x2))

    def log_normalizer(nu: float) -> float:
        return (
            0.5 * (math.log(nu) + math.log(math.pi))
            + math.lgamma(nu / 2.0)
            - math.log(2.0)
            - math.lgamma((nu + 1.0) / 2.0)
        )

    return DensityFamily(
        name="half-student-in-df",
        kind="continuous",
        param_name="nu",
        param_interval=(0.0, math.inf),
        fixed_params={},
        support=(0.0, math.inf),
        log_factor=log_factor,
        kernel=kernel,
        log_normalizer=log_normalizer,
        quantile=lambda nu, u: float(stdtrit(nu, (1.0 + u) / 2.0)),
    )


def _zero_inflated_exponential(fixed: dict) -> DensityFamily:
    pi = float(fixed.pop("pi", 0.4))
    _require(not fixed, f"zero-inflated-exponential: unknown fixed params {sorted(fixed)}")
    _require(0 < pi < 1, "zero-inflated-exponential needs pi in (0,1)")
    logpi = math.log(pi)
    log1mpi = math.log1p(-pi)

    # density w.r.t. delta_0 + Lebesgue: f(0) = 1-pi, f(x) = pi theta e^{-theta x}
    def log_factor(th: float, x: np.ndarray) -> np.ndarray:
        body = logpi + math.log(th) - th * x
        return np.where(x == 0.0, log1mpi, body)

    def kernel(th: float, x: np.ndarray) -> np.ndarray:
        return np.where(x == 0.0, 0.0, 1.0 / th - x)

    return DensityFamily(
        name="zero-inflated-exponential",
        kind="mixed",
        param_name="theta",
        param_interval=(0.0, math.inf),
        fixed_params={"pi": pi},
        support=(0.0, math.inf),
        log_factor=log_factor,
        kernel=kernel,
        log_normalizer=lambda th: 0.0,
        quantile=lambda th, u: -math.log1p(-u) / th,
    )


_BUILDERS: dict[str, Callable[[dict], DensityFamily]] = {
    "poisson": _poisson,
    "geometric": _geometric,
    "negbinomial-in-q": _negbinomial_in_q,
    "negbinomial-in-shape": _negbinomial_in_shape,
    "binomial-in-p": _binomial_in_p,
    "betabinomial-in-r": _betabinomial_in_r,
    "betabinomial-in-s": _betabinomial_in_s,
    "logseries": _logseries,
    "cmp-in-dispersion": _cmp_in_dispersion,
    "zero-inflated-poisson": _zero_inflated_poisson,
    "gamma-in-shape": _gamma_in_shape,
    "gamma-in-rate": _gamma_in_rate,
    "exponential-in-rate": _exponential_in_rate,
    "weibull-in-rate": _weibull_in_rate,
    "beta-in-alpha": _beta_in_alpha,
    "beta-in-beta": _beta_in_beta,
    "pareto-in-shape": _pareto_in_shape,
    "halfnormal-in-scale": _halfnormal_in_scale,
    "lognormal-in-mu": _lognormal_in_mu,
    "gumbel-in-location": _gumbel_in_location,
    "half-student-in-df": _half_student_in_df,
    "zero-inflated-exponential": _zero_inflated_exponential,
}

FAMILY_NAMES = tuple(sorted(_BUILDERS))


def make_family(name: str, **fixed_params: float) -> DensityFamily:
    """Build a catalogue family; unknown names and bad parameters error."""
    builder = _BUILDERS.get(name)
    if builder is None:
        raise ValueError(f"unknown family {name!r}; valid names: {', '.join(FAMILY_NAMES)}")
    return builder(dict(fixed_params))


def parse_spec(text: str) -> tuple[str, dict[str, float]]:
    """Parse `name[:key=val[,key=val]*]` into (name, params)."""
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
    vals = np.exp(f.log_factor(nu, grid.points) - f.log_normalizer(nu)) * grid.weights()
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"{f.name}: non-finite density values at {f.param_name}={nu}")
    total = vals.sum()
    if not total > 0:
        raise ValueError(f"{f.name}: zero total mass on the grid at {f.param_name}={nu}")
    return Distribution(grid, vals / total)


# ---------------------------------------------------------------------------
# default grids


_SPAN_WINDOW = 64  # points of the first window of the tail search


def _tail_span(
    pmf: Callable[[np.ndarray], np.ndarray], lo: int, hi: int, tail_eps: float
) -> tuple[int, float, np.ndarray] | None:
    """Smallest k in [lo, hi] whose tail 1 - sum_{lo..k} pmf is <= tail_eps.

    Returns (k, that tail, pmf on lo..k), or None when no k up to hi reaches
    the target. pmf(ks) gives the masses at the float points ks. The search
    evaluates a window of 64 points from lo and doubles it, evaluating only
    the new points, until the target is met or hi is reached. np.cumsum adds
    sequentially, so every prefix sum, and hence the answer, equals that of
    one scan over all of lo..hi.
    """
    masses = np.empty(0)
    width = _SPAN_WINDOW
    while lo + masses.size <= hi:
        top = min(lo + width - 1, hi)
        masses = np.concatenate((masses, pmf(np.arange(lo + masses.size, top + 1, dtype=float))))
        tail = 1.0 - np.cumsum(masses)
        idx = np.flatnonzero(tail <= tail_eps)
        if idx.size:
            i = int(idx[0])
            return lo + i, float(tail[i]), masses[: i + 1]
        width *= 2
    return None


def _discrete_span(f: DensityFamily, nus, tail_eps: float, kmax: int) -> tuple[int, float]:
    """Smallest k with tail <= tail_eps, uniformly over the scanned nus."""
    lo = int(f.support[0])
    need = lo
    worst_tail = 0.0
    for nu in nus:
        span = _tail_span(
            lambda ks: np.exp(f.log_factor(nu, ks) - f.log_normalizer(nu)), lo, kmax, tail_eps
        )
        if span is None:
            raise ValueError(
                f"{f.name}: tail-mass target {tail_eps:g} unreachable within k_max={kmax}"
            )
        need = max(need, span[0])
        worst_tail = max(worst_tail, max(span[1], 0.0))
    return need, worst_tail


def default_grid(
    f: DensityFamily,
    nus,
    *,
    tail_eps: float = 1e-12,
    kmax: int = 10_000,
    grid_points: int = 2000,
) -> SupportGrid:
    """Grid valid for every nu in `nus`: tail-complete, with at most
    MAX_GRID_POINTS points on a continuous or mixed support."""
    nus = [f.validate_param(nu) for nu in np.atleast_1d(nus)]
    if not nus:
        raise ValueError("default_grid needs at least one parameter value")
    lo_s, hi_s = f.support

    if f.kind == "discrete":
        if math.isfinite(hi_s):
            return discrete_grid(int(lo_s), int(hi_s))
        hi, tail = _discrete_span(f, nus, tail_eps, kmax)
        return discrete_grid(int(lo_s), hi, tail)

    if f.kind == "mixed":
        # atom at 0 plus the continuous part truncated at its upper quantile
        u = 1.0 - _CONT_TAIL
        upper = max(f.quantile(nu, u) for nu in nus) * (1.0 + _PAD)
        n = min(max(grid_points, 1), MAX_GRID_POINTS)
        return mixed_grid(upper, n=n, tail_mass=_CONT_TAIL)

    # continuous
    if math.isfinite(lo_s) and math.isfinite(hi_s):
        lo, hi, tail = lo_s, hi_s, 0.0
    else:
        lo = min(f.quantile(nu, _CONT_TAIL) for nu in nus)
        hi = max(f.quantile(nu, 1.0 - _CONT_TAIL) for nu in nus)
        pad = _PAD * (hi - lo)
        lo = max(lo - pad, lo_s)
        hi = hi + pad if not math.isfinite(hi_s) else min(hi + pad, hi_s)
        tail = 2.0 * _CONT_TAIL
    n = min(max(grid_points, 1), MAX_GRID_POINTS)
    return continuous_grid(lo, hi, n=n, tail_mass=tail)
