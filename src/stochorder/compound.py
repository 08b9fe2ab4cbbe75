"""Compound sums X = J_1 + ... + J_N and the lr direction of their laws.

The counting variable N follows a one-parameter law with factor w_n(nu); the
summands J_i are i.i.d. on {1, 2, ...}. Writing G_nu(n) = d/dnu log w_n(nu)
for the counting kernel, the compound law has kernel

    K_nu(k) = E[G_nu(N) | X = k],

the counting kernel averaged by the posterior P(N = n | X = k) =
q_nu(n) F^{*n}(k) / f_nu(k). So monotonicity of G_nu in n transfers to K_nu
in k whenever that posterior is stochastically increasing in k, which holds
when it is TP2, and it is TP2 when the summand pmf is a Polya frequency
sequence of order 2 (Karlin, Total Positivity, 1968, ch. 3).
`check_compound_lr` therefore scans G_nu over n and tests the summand for
PF2; it never forms K_nu. For the catalogued counting laws G_nu(n) is affine
in n and the lr direction is the sign of its slope b(nu).

Each counting law is a one-parameter view of an entry of `catalog.LAWS`
(the p-forms for geometric and the negative binomial); its kernel is its only
per-law input, and b(nu) is the kernel's step G_nu(n + 1) - G_nu(n). The
scan reads it as every family scan does (`criteria.scan_orders`), so a
`Factored` kernel, which all five Table-2 counting laws declare, builds its
statistic n once per scan and reads each nu through its coefficient.

All arrays are truncated where `catalog._tail_cut` bounds the tail past the
cut by TAIL_CUT_EPS: summands, and counting laws through
`catalog.default_grid`, up to _N_CAP; the compound support at k_max, up to
_K_CAP. A summand is a `Distribution` on 1..j_max whose grid records its
truncation budget. The two infinite summands are 1 + M, with M the `LAWS`
entry poisson or geometric-p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .catalog import (
    LAWS, MAX_KMAX, TAIL_CUT_EPS, DensityFamily, Distribution, SupportGrid, View, _tail_cut,
    checked, default_grid, discrete_grid, given, parse_spec,
)
from .criteria import NU_POINTS, TOL_SHAPE, nu_scan, scan_kernel, scan_orders
from .oracle import oracle_pair
from .verdicts import OrderVerdict, Witness, known, reconcile

__all__ = [
    "geometric_summand",
    "delta_summand",
    "two_point_summand",
    "poisson_shifted_summand",
    "summand_from_spec",
    "COUNTING_NAMES",
    "TABLE2_ROWS",
    "make_counting",
    "counting_from_spec",
    "CompoundModel",
    "make_compound",
    "compound_pmf",
    "is_pf2",
    "check_compound_lr",
]

_N_CAP = 500  # largest n of a counting law's cut
_K_CAP = 2000  # largest k of a compound support


# ---------------------------------------------------------------------------
# summands


def _summand(masses: np.ndarray, tail_mass: float = 0.0) -> Distribution:
    """The summand law with P(J = j) = masses[j - 1] on 1..masses.size."""
    return Distribution(discrete_grid(1, masses.size, tail_mass), masses)


def _one_plus(label: str, law_name: str, name: str, value: float) -> Distribution:
    """J = 1 + M with M the one-parameter table law at `name` = value, checked
    against the law's domain, cut by `catalog._tail_cut` where the bound on
    its tail is <= TAIL_CUT_EPS, and J at most MAX_KMAX."""
    law = LAWS[law_name]
    [(param, domain)] = law.domains.items()
    theta = {param: checked(label, name, value, domain)}
    log_a = law.log_normalizer(theta)
    [(top, tail)] = _tail_cut(lambda rows, m: law.log_factor(theta, m) - log_a, 0, MAX_KMAX,
                              TAIL_CUT_EPS, [law.tail_ratio(theta)], label)
    return _summand(np.exp(law.log_factor(theta, np.arange(top + 1.0)) - log_a), tail)


def geometric_summand(p: float) -> Distribution:
    """P(J = j) = p (1-p)^(j-1) on {1, 2, ...}: 1 + a geometric-p law, cut
    where the bound on its tail is <= TAIL_CUT_EPS."""
    return _one_plus("geometric summand", "geometric-p", "p", p)


def delta_summand(j0: int) -> Distribution:
    """The point mass at j0, a whole number in [1, MAX_KMAX]."""
    masses = np.zeros(checked("delta summand", "j", j0, (1, MAX_KMAX), integer=True))
    masses[-1] = 1.0
    return _summand(masses)


def two_point_summand(w1: float) -> Distribution:
    """Mass w1 at 1 and 1-w1 at 2."""
    w1 = checked("two-point summand", "w1", w1, (0.0, 1.0))
    return _summand(np.array([w1, 1.0 - w1]))


def poisson_shifted_summand(mu: float) -> Distribution:
    """J = 1 + M with M Poisson(mu), cut where the bound on its tail is
    <= TAIL_CUT_EPS."""
    return _one_plus("poisson-shifted summand", "poisson", "mu", mu)


# summand: its builder, its one parameter and that parameter's default (None: required)
_SUMMAND_BUILDERS = {
    "delta": (delta_summand, "j", 1),
    "geometric": (geometric_summand, "p", None),
    "poisson-shifted": (poisson_shifted_summand, "mu", None),
    "two-point": (two_point_summand, "w1", None),
}


def summand_from_spec(text: str) -> Distribution:
    name, params = parse_spec(text)
    known("summand", name, _SUMMAND_BUILDERS)
    builder, key, default = _SUMMAND_BUILDERS[name]
    defaults = {} if default is None else {key: default}
    return builder(given(f"{name} summand", {**defaults, **params}, [key])[key])


# ---------------------------------------------------------------------------
# counting laws

# Table 2, one row per counting law: the sign of b(nu), the compound's lr
# direction that sign gives, and the nu range `table --id table2` scans
TABLE2_ROWS = (
    ("poisson", "+", "up", (1.0, 2.0)),
    ("geometric", "-", "down", (0.3, 0.6)),
    ("negbinomial", "-", "down", (0.3, 0.6)),
    ("binomial", "+", "up", (0.2, 0.5)),
    ("logseries", "+", "up", (0.3, 0.6)),
)


# counting law: its view of a table law
_COUNTING: dict[str, View] = {
    "poisson": View("poisson", "theta", shown={"theta": "lam"}),
    "geometric": View("geometric-p", "p"),
    "negbinomial": View("negbinomial-p", "p", {"alpha": 2.0}, {"r": "alpha"}),
    "binomial": View("binomial", "p", {"n0": 10}, {"n": "n0"}),
    "logseries": View("logseries", "theta"),
    "negbinomial-in-shape": View("negbinomial-p", "r", {"p": 0.5}, {"r": "alpha"}),
}

COUNTING_NAMES = tuple(sorted(_COUNTING))


def make_counting(name: str, **fixed: float) -> DensityFamily:
    """A counting law: a family view of a table law."""
    known("counting law", name, COUNTING_NAMES)
    return _COUNTING[name].family(name, f"{name} counting law", fixed)


def counting_from_spec(text: str) -> DensityFamily:
    name, params = parse_spec(text)
    return make_counting(name, **params)


# ---------------------------------------------------------------------------
# convolution and the compound law


def _conv_table(F: Distribution, n_max: int, k_max: int) -> np.ndarray:
    """Row n is F^{*n} on {0..k_max}, for n = 0..n_max; F^{*0} is the point
    mass at 0."""
    base = np.concatenate(([0.0], F.masses))  # F on 0..j_max, F(0) = 0
    out = np.zeros((n_max + 1, k_max + 1))
    out[0, 0] = 1.0
    for n in range(1, n_max + 1):
        out[n] = np.convolve(out[n - 1], base)[: k_max + 1]
    return out


def _counting_pmf(counting: DensityFamily, n_max: int, nu: float) -> np.ndarray:
    n_lo = int(counting.support[0])
    n = np.arange(n_lo, n_max + 1, dtype=float)
    q = np.zeros(n_max + 1)
    q[n_lo:] = np.exp(counting.log_factor(nu, n) - counting.log_normalizer(nu))
    q.flags.writeable = False  # a model keeps it and hands it out
    return q


@dataclass(frozen=True)
class CompoundModel:
    """Counting law + summand with a precomputed convolution table.

    conv[n, k] = F^{*n}({k}) for n <= n_max, k <= k_max; `make_compound`
    chooses k_max so the compound law at every construction-time parameter
    keeps its tail mass below TAIL_CUT_EPS, and computes the table
    only in windows of columns until that cut; its bits equal those of one
    pass to k_max. grid is the compound support {0..k_max}, and
    counting_pmfs maps each construction-time parameter to q_nu on
    0..n_max, which the model was cut with and reads again.
    """

    counting: DensityFamily
    summand: Distribution
    k_max: int
    n_max: int
    conv: np.ndarray
    grid: SupportGrid
    counting_pmfs: Mapping[float, np.ndarray]

    @property
    def n_lo(self) -> int:
        return int(self.counting.support[0])

    def counting_pmf(self, nu: float) -> np.ndarray:
        """q_nu(n) for n = 0..n_max (zero below the counting support): the
        kept one at a parameter the model was cut for, else built."""
        q = self.counting_pmfs.get(nu)
        if q is None:
            q = _counting_pmf(self.counting, self.n_max, self.counting.validate_param(nu))
        return q

    def compound_masses(self, nu: float) -> np.ndarray:
        """Unnormalized compound pmf on {0..k_max}; deficit <= eps budgets."""
        return self.counting_pmf(nu) @ self.conv


_CONV_WINDOW = 256  # columns of the first window of the convolution table


def make_compound(counting: DensityFamily, summand: Distribution, nus) -> CompoundModel:
    """Build the model with truncations valid for every nu in `nus`.

    The counting law is cut by `catalog.default_grid` at TAIL_CUT_EPS, at
    most at n = _N_CAP; a cut past it is refused naming n_max. k_max is the
    smallest k whose compound tail past k is at most TAIL_CUT_EPS at every
    nu. The table is computed in windows of columns, each in one pass: the
    first holds max(256, j_max + 1), j_max being the summand's largest
    point, and each later one doubles, up to _K_CAP + 1. A window that holds
    the whole summand keeps np.convolve from swapping its operands, so each
    window's columns have the bits of one pass to _K_CAP. The cut is read
    inside each window, and the search stops once, at every nu, the tail
    past the cut plus the mass past the window is at most TAIL_CUT_EPS. Past
    the window, row n of the full table holds at most s^n less the row's sum
    in the window, s being the summand's kept mass. With that bound the full
    table's cut equals the window's in exact arithmetic, and in floating
    point too except where a tail sum lies within rounding of TAIL_CUT_EPS,
    which random comparisons against the full table have not met. A window
    missing more than 1e-6 of the mass never stops the search, as its bound
    then exceeds TAIL_CUT_EPS. A window that reaches _K_CAP is the one-pass
    table, with its rule and its error.
    """
    nus = [counting.validate_param(nu) for nu in np.atleast_1d(nus)]
    n_max = int(default_grid(counting, nus, kmax=_N_CAP, cap="n_max").upper)
    if n_max > _N_CAP:  # only a finite support, which the grid holds whole
        raise ValueError(
            f"{counting.describe()}: counting support reaches {n_max}, past n_max={_N_CAP}"
        )
    qs = [_counting_pmf(counting, n_max, nu) for nu in nus]
    reach = summand.masses.sum() ** np.arange(n_max + 1)  # row n's mass over all k
    width = min(max(_CONV_WINDOW, int(summand.support.upper) + 1), _K_CAP + 1)
    conv = _conv_table(summand, n_max, width - 1)
    while True:
        # the tail is measured within the computed table (the counting and
        # summand truncation deficits carry their own budgets and never
        # shrink with k); `outside` bounds each row's mass past the window
        outside = np.maximum(reach - conv.sum(axis=1), 0.0)
        need, held = 1, True
        for nu, q in zip(nus, qs):
            masses = q @ conv
            if width > _K_CAP and masses.sum() < 1.0 - 1e-6:
                raise ValueError(f"compound mass beyond k_max={_K_CAP} exceeds 1e-6 "
                                 f"at nu={nu:g}; use a summand with less mass far out "
                                 "or scan a narrower nu range")
            beyond = np.cumsum(masses[::-1])[::-1] - masses
            cut = int(np.nonzero(beyond <= TAIL_CUT_EPS)[0][0])
            held = held and beyond[cut] + q @ outside <= TAIL_CUT_EPS
            need = max(need, cut)
        if width > _K_CAP or held:
            return CompoundModel(counting, summand, need, n_max, conv[:, : need + 1],
                                 discrete_grid(0, need), dict(zip(nus, qs)))
        width = min(2 * width, _K_CAP + 1)
        conv = _conv_table(summand, n_max, width - 1)


def compound_pmf(m: CompoundModel, nu: float) -> Distribution:
    """The compound law at nu as a Distribution on the model's grid."""
    masses = m.compound_masses(nu)
    total = masses.sum()
    if not total > 0:
        raise ValueError("compound pmf has zero mass on the truncated support")
    return Distribution(m.grid, masses / total)


# ---------------------------------------------------------------------------
# total positivity


def is_pf2(pmf) -> tuple[bool, Witness | None]:
    """Polya frequency of order 2: interval support and log-concave there,
    read by the kernel scan as its log pmf concave (lc down) within
    TOL_SHAPE."""
    p = np.asarray(pmf, dtype=float)
    nz = np.nonzero(p > 0)[0]
    if nz.size == 0:
        raise ValueError("empty pmf")
    run = np.arange(int(nz[0]), int(nz[-1]) + 1)
    holes = run[p[run] == 0]
    if holes.size:
        return False, Witness(x=float(holes[0]), margin=-math.inf, kind="support-gap")
    [(witness, _, _)] = scan_kernel(
        np.log(p[run]), [0.0], discrete_grid(int(run[0]), int(run[-1])), [("lc", "down")])
    return witness is None, witness and replace(witness, nu=None)  # a pmf's witness has no nu


# ---------------------------------------------------------------------------
# the direction check


def check_compound_lr(
    m: CompoundModel,
    nu1: float,
    nu2: float,
    nu_points: int = NU_POINTS,
    tol_shape: float = TOL_SHAPE,
) -> OrderVerdict:
    """Monotone counting kernel + PF2 summand => compound lr order.

    Scans G_nu over n for each nu in [nu1, nu2]; nondecreasing gives the
    increasing direction, nonincreasing the decreasing one. The verdict is
    cross-checked by the brute oracle on the two endpoint compound laws. A
    non-PF2 summand or a non-monotone kernel yields inconclusive.
    """
    lo, hi = sorted((float(nu1), float(nu2)))
    nus = nu_scan(lo, hi, nu_points)
    tolerances = {"tol_shape": tol_shape, "nu_points": int(nu_points)}
    claim = "C[nu1] <=lr C[nu2] whenever nu1 <= nu2 in the scanned range"

    ok, w = is_pf2(np.concatenate(([0.0], m.summand.masses)))
    if not ok:
        return OrderVerdict(
            order="lr", direction="up", status="inconclusive", method="compound-kernel",
            tolerances=tolerances, witness=w, margin=w.margin, claim=claim,
            note="summand is not a PF2 sequence; hypothesis unmet",
        )

    up, down = scan_orders(m.counting, nus, discrete_grid(m.n_lo, m.n_max),
                           [("lr", "up"), ("lr", "down")], tol_shape)
    if up.witness is not None and down.witness is not None:
        return OrderVerdict(
            order="lr", direction="up", status="inconclusive", method="compound-kernel",
            tolerances=tolerances, witness=up.witness, margin=up.margin, claim=claim,
            note="counting kernel is not monotone in n; hypothesis unmet",
        )
    held = up if up.witness is None else down
    if held.direction == "down":
        claim = "C[nu2] <=lr C[nu1] whenever nu1 <= nu2 in the scanned range"
    criterion = replace(held, method="compound-kernel", tolerances=tolerances, claim=claim, note="")
    low, high = compound_pmf(m, lo), compound_pmf(m, hi)
    [cross] = oracle_pair(low, high, [("lr", held.direction)])
    return reconcile(criterion, cross)
