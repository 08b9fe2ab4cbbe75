"""Brute-force order checks on concrete distributions.

Ground truth for the kernel criteria: every order is decided directly from
the two mass vectors, with no kernel or family information. The one public
call, `oracle_pair(P, Q, tests)`, takes the (order, direction) tests that
`criteria.scan_kernel` takes and gives one verdict per test: "up" decides
P <= Q and "down" Q <= P.

Ratio conventions for the likelihood ratio l = f_P/f_Q on the union support:
positive/0 is +infinity, as is a ratio past the largest double, and 0/0 is
0. Monotonicity scans work in log space with relative tolerance
ORACLE_REL_TOL; points where both laws carry less than ORACLE_EPS_TAIL are
skipped so truncation noise cannot create false witnesses. The st test
allows ORACLE_ABS_TOL of survival. These tolerances are fixed, so the
oracle has one behaviour, and each order reports its own in its verdicts.
Verdicts on continuous or mixed grids certify the discretized laws, noted
as such.

One alignment serves every test. `oracle_pair` aligns the two laws once and
derives up front, once for both directions, only what the asked orders
read: the two survivals (st and hr), paired in one complex running sum that
gives each the bits of its own real one (`_survivals`), the masses at the
points where either law carries ORACLE_EPS_TAIL (lr), and both laws'
aligned masses and log masses (lc), from which each direction slices its
own support run. The log masses are `Distribution.log_masses`, which keep
the log of a mass that underflows, so such a mass makes neither a gap in a
support nor a rounded triplet. Each order's formula is written once, for
the first law of a direction below its second, and runs the subtractions
and divisions of a one-test call in the same order, so each verdict has the
bits of a one-test call, and a "down" test on (P, Q) those of the "up" test
on (Q, P) but for its direction. The down lc margins are not taken as the
negated up margins, since negation does not commute with subtraction on
signed zeros: -(0.0 - 0.0) is -0.0 while (-0.0) - (-0.0) is 0.0. Where the
formula selects through a mask, the code slices when the mask is one run,
as a survival's points above ORACLE_EPS_TAIL always are (a survival is
nonincreasing); a slice holds the values of the gather in the same order,
and a log taken before the slice the values of one taken after it.
"""

from __future__ import annotations

import math

import numpy as np

from .catalog import Distribution
from .verdicts import DIRECTIONS, ORDERS, OrderVerdict, Witness, known

__all__ = ["ORACLE_REL_TOL", "ORACLE_ABS_TOL", "ORACLE_EPS_TAIL", "oracle_pair"]

ORACLE_REL_TOL = 1e-10
ORACLE_ABS_TOL = 1e-10
ORACLE_EPS_TAIL = 1e-12

# the tolerances each order's verdicts report
_TOLERANCES = {
    "lr": {"rel_tol": ORACLE_REL_TOL, "eps_tail": ORACLE_EPS_TAIL},
    "st": {"abs_tol": ORACLE_ABS_TOL},
    "hr": {"rel_tol": ORACLE_REL_TOL, "eps_tail": ORACLE_EPS_TAIL},
    "lc": {"tol": ORACLE_REL_TOL, "eps_tail": ORACLE_EPS_TAIL},
}


def _aligned(P: Distribution, Q: Distribution) -> tuple[np.ndarray, np.ndarray, np.ndarray, str]:
    """Common point set with aligned masses: integer union for discrete laws,
    an identical shared grid required otherwise, whose points are compared
    unless both laws hold the same grid object."""
    gp, gq = P.support, Q.support
    if gp.kind == "discrete" and gq.kind == "discrete":
        lo = int(min(gp.lower, gq.lower))
        hi = int(max(gp.upper, gq.upper))
        pts = np.arange(lo, hi + 1, dtype=float)
        mp = np.zeros(pts.size)
        mq = np.zeros(pts.size)
        mp[int(gp.lower) - lo : int(gp.upper) - lo + 1] = P.masses
        mq[int(gq.lower) - lo : int(gq.upper) - lo + 1] = Q.masses
        return pts, mp, mq, "discrete"
    if gp.kind != gq.kind:
        raise ValueError(f"cannot align a {gp.kind} law with a {gq.kind} law")
    if gp is not gq and (
        gp.size != gq.size or not np.allclose(gp.points, gq.points, rtol=0, atol=1e-12)
    ):
        raise ValueError(f"{gp.kind} laws must share an identical grid")
    return gp.points, P.masses, Q.masses, gp.kind


def _aligned_logs(d: Distribution, pts: np.ndarray) -> np.ndarray:
    """d's log masses on the common points `_aligned` gives, -inf off a
    discrete law's support."""
    if d.support.kind != "discrete":
        return d.log_masses
    out = np.full(pts.size, -np.inf)
    start = int(d.support.lower - pts[0])
    out[start : start + d.support.size] = d.log_masses
    return out


def _span(mask: np.ndarray) -> tuple[int, int, int]:
    """(start, stop, count): the index range from the first to the last true
    entry of `mask` and how many entries are true; (0, 0, 0) when none is."""
    count = int(np.count_nonzero(mask))
    if count in (0, mask.size):
        return 0, count, count
    return int(np.argmax(mask)), mask.size - int(np.argmax(mask[::-1])), count


def _selector(mask: np.ndarray) -> slice | np.ndarray:
    """Index of the true entries of `mask`: a slice when they form one run."""
    start, stop, count = _span(mask)
    return slice(start, stop) if stop - start == count else np.flatnonzero(mask)


def _prefix_above(survival: np.ndarray, eps: float) -> int:
    """Length of the leading run of a nonincreasing survival above eps:
    `survival > eps` holds exactly on that prefix."""
    return survival.size - int(np.searchsorted(survival[::-1], eps, side="right"))


def _survivals(mp: np.ndarray, mq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The survivals of the two aligned mass vectors by one running sum: mp
    reversed in the real part of a complex buffer and mq reversed in its
    imaginary part, summed in place. Complex addition adds the two parts
    apart, each in the order of a real running sum, so each survival has the
    bits of `np.cumsum(m[::-1])[::-1]` of its own masses."""
    sums = np.empty(mp.size, dtype=complex)
    sums.real, sums.imag = mp[::-1], mq[::-1]
    np.cumsum(sums, out=sums)
    return sums.real[::-1], sums.imag[::-1]


def _ratio(mp: np.ndarray, mq: np.ndarray) -> np.ndarray:
    """l = mp / mq, extended-real valued by the conventions above."""
    pos = mq > 0
    with np.errstate(over="ignore"):  # mass / subnormal mass: +inf, as for mass / 0
        if pos.all():
            return mp / mq
        out = np.zeros(mp.shape)  # covers 0/0 -> 0 and 0/positive -> 0
        out[pos] = mp[pos] / mq[pos]
    out[(mp > 0) & ~pos] = np.inf
    return out


def _log_decrements(values: np.ndarray) -> np.ndarray:
    """Adjacent log-space drops of `values`, which it overwrites with their
    logs; equal extended values (0/0 or inf/inf pairs) count as flat rather
    than NaN."""
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.log(values, out=values)
        m = g[:-1] - g[1:]
    m[np.isnan(m)] = 0.0
    return m


def _first_witness(
    x: np.ndarray, margins: np.ndarray, kind: str
) -> tuple[Witness | None, float | None]:
    """The oracle's one first-witness search: the first margin below
    -ORACLE_REL_TOL as a witness at its point, else no witness and the least
    finite margin. A finite least margin at or above -ORACLE_REL_TOL is both
    at once, with no gather."""
    lowest = margins.min() if margins.size else math.nan
    if lowest >= -ORACLE_REL_TOL and math.isfinite(lowest):
        return None, float(lowest)
    bad = margins < -ORACLE_REL_TOL
    if bad.any():
        i = int(np.argmax(bad))
        return Witness(x=float(x[i]), margin=float(margins[i]), kind=kind), float(margins[i])
    finite = margins[np.isfinite(margins)]
    return None, float(finite.min()) if finite.size else None


# ---------------------------------------------------------------------------
# each order once, for the first law of a direction below its second: each
# takes the direction's points and the two laws' arrays that the order reads,
# and gives the witness, if any, and the margin


def _lr(x: np.ndarray, first: np.ndarray, second: np.ndarray):
    """x, first and second at the kept points: masses."""
    return _first_witness(x, _log_decrements(_ratio(first, second)), "adjacent-pair")


def _st(x: np.ndarray, first: np.ndarray, second: np.ndarray):
    """first and second: survivals."""
    slack = second - first
    i = int(np.argmin(slack))
    margin = float(slack[i])
    if margin < -ORACLE_ABS_TOL:
        return Witness(x=float(x[i]), margin=margin, kind="worst-point"), margin
    return None, margin


def _hr(x: np.ndarray, first: np.ndarray, second: np.ndarray):
    """first and second: survivals."""
    # up to where both survivals have fallen to ORACLE_EPS_TAIL, as lr keeps
    # the points where either law carries it
    n = max(_prefix_above(first, ORACLE_EPS_TAIL), _prefix_above(second, ORACLE_EPS_TAIL))
    first, second = first[:n], second[:n]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = first / second  # positive / 0 or / subnormal: +inf
    ratio[_prefix_above(first, 0.0) :] = 0.0  # 0/positive and 0/0 read 0
    return _first_witness(x[:n], _log_decrements(ratio), "adjacent-pair")


def _lc(x: np.ndarray, first: tuple, second: tuple):
    """first and second: (masses, log masses); a law's support is where its
    log mass is finite."""
    (first, log_first), (second, log_second) = first, second
    held = log_first > -np.inf  # a mass that underflows to 0 keeps a finite log
    start, stop, count = _span(held)
    if count == 0:
        raise ValueError("first law has empty support")
    if stop - start != count:
        i, kind = start + int(np.argmin(held[start:stop])), "support-gap"
    elif not (covered := log_second[start:stop] > -np.inf).all():
        i, kind = start + int(np.argmin(covered)), "support-containment"
    else:
        run = slice(start, stop)
        keep = _selector((first[run] >= ORACLE_EPS_TAIL) | (second[run] >= ORACLE_EPS_TAIL))
        x = x[run][keep]
        slopes = np.diff(log_first[run][keep] - log_second[run][keep])
        slopes /= np.diff(x)
        margins = np.diff(slopes)
        np.negative(margins, out=margins)
        return _first_witness(x[1:-1], margins, "triplet")
    return Witness(x=float(x[i]), margin=-math.inf, kind=kind), -math.inf


# ---------------------------------------------------------------------------
# the public call

# order name -> its formula, for one direction of a pair
_FORMULAS = {"lr": _lr, "st": _st, "hr": _hr, "lc": _lc}


def oracle_pair(P: Distribution, Q: Distribution, tests) -> list[OrderVerdict]:
    """One verdict per (order, direction) test of `tests`, in that order, all
    from one alignment of the two laws. An "up" test decides P <=o Q and a
    "down" test Q <=o P, by the definitions (Shaked & Shanthikumar,
    Stochastic Orders, 2007, ch. 1), for a law A below a law B:

      A <=lr B  iff  f_A/f_B is nonincreasing across the union support;
      A <=st B  iff  the survival of A never exceeds the survival of B;
      A <=hr B  iff  the survival ratio of A over B is nonincreasing;
      A <=lc B  iff  supp(A) is an interval inside supp(B) and log f_A/f_B
                     is concave there; support violations refute it outright.

    Each verdict has the bits of a one-test call, and a "down" test's those
    of the "up" test on (Q, P) but for its direction.
    """
    for order, direction in tests:
        known("order", order, ORDERS)
        known("direction", direction, DIRECTIONS)
    pts, mp, mq, kind = _aligned(P, Q)
    orders = {order for order, _ in tests}
    # each order's (P's, Q's) arrays, derived once for both directions
    laws: dict[str, tuple] = {}
    if "lr" in orders:
        keep = _selector((mp >= ORACLE_EPS_TAIL) | (mq >= ORACLE_EPS_TAIL))
        laws["lr"] = mp[keep], mq[keep]
    if orders & {"st", "hr"}:
        laws["st"] = laws["hr"] = _survivals(mp, mq)
    if "lc" in orders:  # log 0 = -inf lies outside every support run
        laws["lc"] = (mp, _aligned_logs(P, pts)), (mq, _aligned_logs(Q, pts))
    note = "" if kind == "discrete" else "grid-certified on the shared discretization"
    verdicts = []
    for order, direction in tests:
        down = direction == "down"
        # a direction places its witnesses on its first law's grid
        x = Q.support.points if down and kind != "discrete" else pts
        first, second = laws[order][::-1] if down else laws[order]
        witness, margin = _FORMULAS[order](x[keep] if order == "lr" else x, first, second)
        verdicts.append(OrderVerdict(
            order=order, direction=direction, status="holds" if witness is None else "fails",
            method="oracle", tolerances=_TOLERANCES[order], witness=witness, margin=margin,
            note=note,
        ))
    return verdicts
