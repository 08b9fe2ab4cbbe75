"""Law table, family catalogue, support grids, densities and kernels.

`LAWS` declares each law once, as a multi-parameter entry: its kind, the
parameters with their domains, the support, the log factor, one kernel
d/dtheta_i log_factor per parameter that some view varies, the log
normalizer and, for continuous kinds, the quantile. The density is
exp(log_factor - log_normalizer) with respect to counting measure
(discrete), Lebesgue measure (continuous), or delta_0 + Lebesgue (mixed).

Everything else is a `View` of an entry: a catalogue family (`make_family`)
fixes all parameters but one, nu, and its centred kernel is the score; the
compound counting laws and the pairwise laws and paths are views too.
Grids discretize the support: integers for discrete laws, uniform midpoint
cells for continuous ones, an exact atom plus midpoint cells for the mixed
kind. `normalized` is the one numeric normalizer over a grid.

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
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Callable, Mapping

import numpy as np
from scipy.special import betaincinv, gammaincinv, stdtrit

from .special import digamma, digamma_vec, log_factorial_vec, log_pochhammer, log_pochhammer_vec

__all__ = [
    "SupportGrid",
    "Distribution",
    "Law",
    "LAWS",
    "View",
    "DensityFamily",
    "FAMILY_NAMES",
    "make_family",
    "parse_spec",
    "density",
    "normalized",
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
        if self.kind not in ("discrete", "continuous", "mixed"):
            raise ValueError(f"unknown grid kind {self.kind!r}")
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
# the law table

Theta = Mapping[str, float]


@dataclass(frozen=True)
class Law:
    """A multi-parameter law with factor w_theta(x) = exp(log_factor(theta, x)).

    domains         parameter -> open interval, in the order views list the
                    parameters; those named in `integers` are whole numbers
                    from the lower end up.
    support         theta -> (lower, upper); it reads only parameters that
                    no view varies.
    kernels         parameter -> d/dtheta_i log_factor, for every parameter
                    that some view varies.
    log_normalizer  theta -> log of the factor's total mass.
    quantile        (theta, u) -> u-quantile, for continuous and mixed kinds.
    """

    kind: str
    domains: Mapping[str, tuple[float, float]]
    support: Callable[[Theta], tuple[float, float]]
    log_factor: Callable[[Theta, np.ndarray], np.ndarray]
    kernels: Mapping[str, Callable[[Theta, np.ndarray], np.ndarray]]
    log_normalizer: Callable[[Theta], float]
    quantile: Callable[[Theta, float], float] | None = None
    integers: tuple[str, ...] = ()


_POSITIVE = (0.0, math.inf)
_UNIT = (0.0, 1.0)
_REAL = (-math.inf, math.inf)
_HALFNORMAL_LOG_C = 0.5 * math.log(2.0 / math.pi)


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


def _digamma_step(a: float, k: np.ndarray) -> np.ndarray:
    """psi(a + k) - psi(a): the kernel of a Pochhammer factor (a)_k in a."""
    return digamma_vec(a + k) - digamma(a)


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


def _cmp_log_normalizer(th: Theta) -> float:
    # series terms lam^k (k!)^-nu: geometric envelope, converges for lam < 1
    loglam = math.log(th["lam"])
    ks = np.arange(max(2000, int(-60.0 / loglam) + 1), dtype=float)
    logs = ks * loglam - th["nu"] * log_factorial_vec(ks)
    m = logs.max()
    return float(m + math.log(np.exp(logs - m).sum()))


# factorization w(0) = (1-pi)e^theta + pi, w(k) = pi theta^k/k!, A = e^theta
def _zip_log_factor(th: Theta, k: np.ndarray) -> np.ndarray:
    pi, theta = th["pi"], th["theta"]
    body = math.log(pi) + k * math.log(theta) - log_factorial_vec(np.maximum(k, 0))
    at0 = np.logaddexp(math.log1p(-pi) + theta, math.log(pi))
    return np.where(k == 0, at0, body)


def _zip_kernel(th: Theta, k: np.ndarray) -> np.ndarray:
    pi, theta = th["pi"], th["theta"]
    a = math.exp(math.log(pi) - np.logaddexp(math.log1p(-pi) + theta, math.log(pi)))
    return np.where(k == 0, 1.0 - a, k / theta)


def _lognormal_log_factor(th: Theta, x: np.ndarray) -> np.ndarray:
    s2 = th["sigma"] * th["sigma"]
    return -((np.log(x) - th["mu"]) ** 2) / (2.0 * s2) - np.log(x)


# w_mu(x) = f0(x - mu) e^{-mu}, A = e^{-mu}: the extra e^{-mu} makes
# d/dmu log w equal the table kernel -e^{-(x-mu)} exactly.
def _gumbel_log_factor(th: Theta, x: np.ndarray) -> np.ndarray:
    z = x - th["mu"]
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


# density w.r.t. delta_0 + Lebesgue: f(0) = 1-pi, f(x) = pi theta e^{-theta x}
def _zie_log_factor(th: Theta, x: np.ndarray) -> np.ndarray:
    pi, theta = th["pi"], th["theta"]
    body = math.log(pi) + math.log(theta) - theta * x
    return np.where(x == 0.0, math.log1p(-pi), body)


LAWS: dict[str, Law] = {
    # -- discrete --
    "poisson": Law(
        kind="discrete",
        domains={"theta": _POSITIVE},
        support=_from_zero,
        log_factor=lambda th, k: k * math.log(th["theta"]) - log_factorial_vec(k),
        kernels={"theta": lambda th, k: k / th["theta"]},
        log_normalizer=lambda th: th["theta"],
    ),
    "geometric-q": Law(
        kind="discrete",
        domains={"q": _UNIT},
        support=_from_zero,
        log_factor=lambda th, k: k * math.log(th["q"]),
        kernels={"q": lambda th, k: k / th["q"]},
        log_normalizer=lambda th: -math.log1p(-th["q"]),
    ),
    "geometric-p": Law(
        kind="discrete",
        domains={"p": _UNIT},
        support=_from_zero,
        log_factor=lambda th, k: k * math.log1p(-th["p"]),
        kernels={"p": lambda th, k: -k / (1.0 - th["p"])},
        log_normalizer=lambda th: -math.log(th["p"]),
    ),
    "negbinomial-q": Law(
        kind="discrete",
        domains={"r": _POSITIVE, "q": _UNIT},
        support=_from_zero,
        log_factor=lambda th, k: (
            log_pochhammer_vec(th["r"], k) - log_factorial_vec(k) + k * math.log(th["q"])
        ),
        kernels={
            "r": lambda th, k: _digamma_step(th["r"], k),
            "q": lambda th, k: k / th["q"],
        },
        log_normalizer=lambda th: -th["r"] * math.log1p(-th["q"]),
    ),
    "negbinomial-p": Law(
        kind="discrete",
        domains={"r": _POSITIVE, "p": _UNIT},
        support=_from_zero,
        log_factor=lambda th, k: (
            log_pochhammer_vec(th["r"], k) - log_factorial_vec(k) + k * math.log1p(-th["p"])
        ),
        kernels={
            "r": lambda th, k: _digamma_step(th["r"], k),
            "p": lambda th, k: -k / (1.0 - th["p"]),
        },
        log_normalizer=lambda th: -th["r"] * math.log(th["p"]),
    ),
    "binomial": Law(
        kind="discrete",
        domains={"n": (1, math.inf), "p": _UNIT},
        support=_up_to_n,
        log_factor=_binomial_log_factor,
        kernels={"p": lambda th, k: k / th["p"] - (th["n"] - k) / (1.0 - th["p"])},
        log_normalizer=lambda th: 0.0,
        integers=("n",),
    ),
    "betabinomial": Law(
        kind="discrete",
        domains={"n": (1, math.inf), "r": _POSITIVE, "s": _POSITIVE},
        support=_up_to_n,
        log_factor=_betabinomial_log_factor,
        kernels={
            "r": lambda th, k: _digamma_step(th["r"], k),
            "s": lambda th, k: digamma_vec(th["s"] + th["n"] - k) - digamma(th["s"]),
        },
        log_normalizer=lambda th: log_pochhammer(th["r"] + th["s"], th["n"]),
        integers=("n",),
    ),
    "hypergeometric": Law(
        kind="discrete",
        domains={"B": (0, math.inf), "W": (0, math.inf), "n": (1, math.inf)},
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
        log_factor=lambda th, k: k * math.log(th["theta"]) - np.log(k),
        kernels={"theta": lambda th, k: k / th["theta"]},
        log_normalizer=lambda th: math.log(-math.log1p(-th["theta"])),
    ),
    "cmp": Law(
        kind="discrete",
        domains={"lam": _POSITIVE, "nu": _POSITIVE},
        support=_from_zero,
        log_factor=lambda th, k: k * math.log(th["lam"]) - th["nu"] * log_factorial_vec(k),
        kernels={"nu": lambda th, k: -log_factorial_vec(k)},
        log_normalizer=_cmp_log_normalizer,
    ),
    "zero-inflated-poisson": Law(
        kind="discrete",
        domains={"pi": _UNIT, "theta": _POSITIVE},
        support=_from_zero,
        log_factor=_zip_log_factor,
        kernels={"theta": _zip_kernel},
        log_normalizer=lambda th: th["theta"],
    ),
    # -- continuous --
    "gamma": Law(
        kind="continuous",
        domains={"r": _POSITIVE, "rho": _POSITIVE},
        support=_from_zero,
        log_factor=lambda th, x: (th["r"] - 1.0) * np.log(x) - th["rho"] * x,
        kernels={"r": lambda th, x: np.log(x), "rho": lambda th, x: -x},
        log_normalizer=lambda th: math.lgamma(th["r"]) - th["r"] * math.log(th["rho"]),
        quantile=lambda th, u: float(gammaincinv(th["r"], u)) / th["rho"],
    ),
    "exponential": Law(
        kind="continuous",
        domains={"theta": _POSITIVE},
        support=_from_zero,
        log_factor=lambda th, x: -th["theta"] * x,
        kernels={"theta": lambda th, x: -x},
        log_normalizer=lambda th: -math.log(th["theta"]),
        quantile=lambda th, u: -math.log1p(-u) / th["theta"],
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
        quantile=lambda th, u: (-math.log1p(-u) / th["lam"]) ** (1.0 / th["beta"]),
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
        quantile=lambda th, u: float(betaincinv(th["alpha"], th["beta"], u)),
    ),
    "pareto": Law(
        kind="continuous",
        domains={"xm": _POSITIVE, "alpha": _POSITIVE},
        support=lambda th: (th["xm"], math.inf),
        log_factor=lambda th, x: -(th["alpha"] + 1.0) * np.log(x),
        kernels={"alpha": lambda th, x: -np.log(x)},
        log_normalizer=lambda th: -th["alpha"] * math.log(th["xm"]) - math.log(th["alpha"]),
        quantile=lambda th, u: th["xm"] * (1.0 - u) ** (-1.0 / th["alpha"]),
    ),
    "halfnormal": Law(
        kind="continuous",
        domains={"sigma": _POSITIVE},
        support=_from_zero,
        log_factor=lambda th, x: _HALFNORMAL_LOG_C - x * x / (2.0 * th["sigma"] * th["sigma"]),
        kernels={"sigma": lambda th, x: x * x / th["sigma"] ** 3},
        log_normalizer=lambda th: math.log(th["sigma"]),
        quantile=lambda th, u: th["sigma"] * _NORMAL.inv_cdf((1.0 + u) / 2.0),
    ),
    "lognormal": Law(
        kind="continuous",
        domains={"sigma": _POSITIVE, "mu": _REAL},
        support=_from_zero,
        log_factor=_lognormal_log_factor,
        kernels={"mu": lambda th, x: (np.log(x) - th["mu"]) / (th["sigma"] * th["sigma"])},
        log_normalizer=lambda th: 0.5 * math.log(2.0 * math.pi) + math.log(th["sigma"]),
        quantile=lambda th, u: math.exp(th["mu"] + th["sigma"] * _NORMAL.inv_cdf(u)),
    ),
    "gumbel": Law(
        kind="continuous",
        domains={"mu": _REAL},
        support=lambda th: _REAL,
        log_factor=_gumbel_log_factor,
        kernels={"mu": lambda th, x: -np.exp(-(x - th["mu"]))},
        log_normalizer=lambda th: -th["mu"],
        quantile=lambda th, u: th["mu"] - math.log(-math.log(u)),
    ),
    "half-student": Law(
        kind="continuous",
        domains={"nu": _POSITIVE},
        support=_from_zero,
        log_factor=lambda th, x: -((th["nu"] + 1.0) / 2.0) * np.log1p(x * x / th["nu"]),
        kernels={"nu": _half_student_kernel},
        log_normalizer=_half_student_log_normalizer,
        quantile=lambda th, u: float(stdtrit(th["nu"], (1.0 + u) / 2.0)),
    ),
    # -- mixed: an atom at 0 plus a density on (0, inf) --
    "zero-inflated-exponential": Law(
        kind="mixed",
        domains={"pi": _UNIT, "theta": _POSITIVE},
        support=_from_zero,
        log_factor=_zie_log_factor,
        kernels={"theta": lambda th, x: np.where(x == 0.0, 0.0, 1.0 / th["theta"] - x)},
        log_normalizer=lambda th: 0.0,
        quantile=lambda th, u: -math.log1p(-u) / th["theta"],
    ),
}


# ---------------------------------------------------------------------------
# views: families, counting laws and pairwise laws


@dataclass(frozen=True)
class DensityFamily:
    """One-parameter family f_nu = exp(log_factor - log_normalizer) on a support.

    kernel(nu, x) = d/dnu log_factor(nu, x); its centred version is the score.
    quantile(nu, u) picks grid spans for unbounded continuous supports.
    extras hold module-specific annotations (the compound module stores the
    normalizer derivative and the kernel's slope in n there).
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


@dataclass(frozen=True)
class View:
    """A table law as seen by one family, counting law or pairwise law.

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

    def bind(self, label: str, given: Mapping[str, float]) -> dict[str, float]:
        """The fixed parameters, checked against their domains, under the
        law's names; errors start with `label` and use the view's names."""
        law = LAWS[self.law]
        values = {**self.defaults, **given}
        theta: dict[str, float] = {}
        for p, (lo, hi) in law.domains.items():
            if p == self.varied:
                continue
            name = self.shown.get(p, p)
            if name not in values:
                raise ValueError(f"{label} needs parameter {name!r}")
            v = float(values.pop(name))
            lo, hi = self.domains.get(p, (lo, hi))
            if p in law.integers:
                if not v.is_integer():
                    raise ValueError(f"{label}: {name} must be an integer, got {v!r}")
                v = int(v)
                ok, need = lo <= v, f"{name} >= {lo:g}"
            else:
                ok = lo < v < hi
                need = f"{name} > {lo:g}" if hi == math.inf else f"{name} in ({lo:g},{hi:g})"
            if not ok:
                raise ValueError(f"{label} needs {need}")
            theta[p] = v
        if values:
            raise ValueError(f"{label}: unknown parameters {sorted(values)}")
        return theta

    def family(
        self,
        name: str,
        label: str,
        given: Mapping[str, float],
        extras: Mapping[str, Callable[[Theta], float]] | None = None,
    ) -> DensityFamily:
        """The one-parameter family in `varied`, the other parameters fixed
        at `given` or their defaults. extras are functions of the law's
        parameters, bound to nu like the log factor."""
        law = LAWS[self.law]
        fixed = self.bind(label, given)
        free = self.varied

        def at(nu: float) -> dict[str, float]:
            return {**fixed, free: nu}

        return DensityFamily(
            name=name,
            kind=law.kind,
            param_name=self.shown.get(free, free),
            param_interval=law.domains[free],
            fixed_params=self.named(fixed),
            support=law.support(fixed),
            log_factor=lambda nu, x: law.log_factor(at(nu), x),
            kernel=lambda nu, x: law.kernels[free](at(nu), x),
            log_normalizer=lambda nu: law.log_normalizer(at(nu)),
            quantile=None if law.quantile is None else lambda nu, u: law.quantile(at(nu), u),
            extras={k: (lambda nu, g=g: g(at(nu))) for k, g in (extras or {}).items()},
        )


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
    view = _FAMILIES.get(name)
    if view is None:
        raise ValueError(f"unknown family {name!r}; valid names: {', '.join(FAMILY_NAMES)}")
    return view.family(name, name, fixed_params)


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


def normalized(grid: SupportGrid, log_weights: np.ndarray) -> Distribution:
    """The law with density exp(log_weights) w.r.t. the grid's measure,
    normalized numerically over the grid: exp(logw - max) * weights / sum.

    Subtracting the maximum keeps every weight finite however large the
    factor; laws without a closed-form normalizer on the grid use this.
    """
    w = np.exp(log_weights - log_weights.max()) * grid.weights()
    return Distribution(grid, w / w.sum())


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
