"""Brute-force order checks on concrete distributions.

Ground truth for the kernel criteria: every order is decided directly from
the two mass vectors, with no kernel or family information. Each op decides
"first argument below second", e.g. oracle_st(P, Q) decides P <=st Q.

Ratio conventions for the likelihood ratio l = f_P/f_Q on the union support:
positive/0 is +infinity, as is a ratio past the largest double, and 0/0 is
0. Monotonicity scans work in log space with relative tolerance; points where
both laws carry less than eps_tail are skipped so truncation noise cannot
create false witnesses. Verdicts on continuous or mixed grids certify the
discretized laws, noted as such.
"""

from __future__ import annotations

import math

import numpy as np

from .catalog import Distribution
from .verdicts import OrderVerdict, Witness

__all__ = [
    "ORACLE_REL_TOL",
    "ORACLE_ABS_TOL",
    "ORACLE_EPS_TAIL",
    "oracle_lr",
    "oracle_st",
    "oracle_hr",
    "oracle_lc",
    "oracle_for",
    "total_variation",
]

ORACLE_REL_TOL = 1e-10
ORACLE_ABS_TOL = 1e-10
ORACLE_EPS_TAIL = 1e-12


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


def _ratio(mp: np.ndarray, mq: np.ndarray) -> np.ndarray:
    """l = mp / mq, extended-real valued by the conventions above."""
    out = np.zeros(mp.shape)  # covers 0/0 -> 0 and 0/positive -> 0
    pos = mq > 0
    with np.errstate(over="ignore"):  # mass / subnormal mass: +inf, as for mass / 0
        out[pos] = mp[pos] / mq[pos]
    out[(mp > 0) & ~pos] = np.inf
    return out


def _log_decrements(values: np.ndarray) -> np.ndarray:
    """Adjacent log-space drops; equal extended values (0/0 or inf/inf pairs)
    count as flat rather than NaN."""
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.log(values)
        m = g[:-1] - g[1:]
    return np.where(np.isnan(m), 0.0, m)


def _verdict(
    order: str,
    kind: str,
    tolerances: dict,
    witness: Witness | None = None,
    margin: float | None = None,
) -> OrderVerdict:
    """The oracle's verdict on "P <=order Q": fails with the witness (and its
    margin) when there is one, holds with `margin` otherwise."""
    return OrderVerdict(
        order=order, direction="up", status="holds" if witness is None else "fails",
        method="oracle", tolerances=tolerances, witness=witness,
        margin=margin if witness is None else witness.margin,
        claim=f"P <={order} Q for the given pair (first argument below second)",
        note="" if kind == "discrete" else "grid-certified on the shared discretization",
    )


def _monotone_verdict(
    order: str,
    pts: np.ndarray,
    margins: np.ndarray,
    rel_tol: float,
    kind: str,
    tolerances: dict,
    witness_kind: str,
) -> OrderVerdict:
    """The oracle's one first-witness search: fails at the first margin below
    -rel_tol, holds otherwise with the least finite margin."""
    bad = np.nonzero(margins < -rel_tol)[0]
    if bad.size:
        i = int(bad[0])
        w = Witness(x=float(pts[i]), margin=float(margins[i]), kind=witness_kind)
        return _verdict(order, kind, tolerances, w)
    finite = margins[np.isfinite(margins)]
    return _verdict(order, kind, tolerances, margin=float(finite.min()) if finite.size else None)


def oracle_lr(
    P: Distribution,
    Q: Distribution,
    rel_tol: float = ORACLE_REL_TOL,
    eps_tail: float = ORACLE_EPS_TAIL,
) -> OrderVerdict:
    """P <=lr Q iff f_P/f_Q is nonincreasing across the union support."""
    pts, mp, mq, kind = _aligned(P, Q)
    keep = (mp >= eps_tail) | (mq >= eps_tail)
    margins = _log_decrements(_ratio(mp[keep], mq[keep]))
    return _monotone_verdict(
        "lr", pts[keep], margins, rel_tol, kind,
        {"rel_tol": rel_tol, "eps_tail": eps_tail}, "adjacent-pair",
    )


def oracle_st(P: Distribution, Q: Distribution, tol: float = ORACLE_ABS_TOL) -> OrderVerdict:
    """P <=st Q iff the survival of P never exceeds the survival of Q."""
    pts, mp, mq, kind = _aligned(P, Q)
    slack = np.cumsum(mq[::-1])[::-1] - np.cumsum(mp[::-1])[::-1]
    i = int(np.argmin(slack))
    margin = float(slack[i])
    w = Witness(x=float(pts[i]), margin=margin, kind="worst-point") if margin < -tol else None
    return _verdict("st", kind, {"abs_tol": tol}, w, margin)


def oracle_hr(
    P: Distribution,
    Q: Distribution,
    rel_tol: float = ORACLE_REL_TOL,
    eps_tail: float = ORACLE_EPS_TAIL,
) -> OrderVerdict:
    """P <=hr Q iff the survival ratio of P over Q is nonincreasing."""
    pts, mp, mq, kind = _aligned(P, Q)
    sp = np.cumsum(mp[::-1])[::-1]
    sq = np.cumsum(mq[::-1])[::-1]
    keep = sq > eps_tail
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(sp[keep] > 0, sp[keep] / sq[keep], 0.0)
    margins = _log_decrements(ratio)
    return _monotone_verdict(
        "hr", pts[keep], margins, rel_tol, kind,
        {"rel_tol": rel_tol, "eps_tail": eps_tail}, "adjacent-pair",
    )


def oracle_lc(
    P: Distribution,
    Q: Distribution,
    tol: float = ORACLE_REL_TOL,
    eps_tail: float = ORACLE_EPS_TAIL,
) -> OrderVerdict:
    """P <=lc Q iff supp(P) is an interval inside supp(Q) and log f_P/f_Q is
    concave there. Support violations refute the order outright."""
    pts, mp, mq, kind = _aligned(P, Q)
    tolerances = {"tol": tol, "eps_tail": eps_tail}

    def refuted(x: float, which: str) -> OrderVerdict:
        return _verdict("lc", kind, tolerances, Witness(x=x, margin=-math.inf, kind=which))

    supp = np.nonzero(mp > 0)[0]
    if supp.size == 0:
        raise ValueError("first law has empty support")
    run = np.arange(int(supp[0]), int(supp[-1]) + 1)
    gaps = run[mp[run] == 0]
    if gaps.size:
        return refuted(float(pts[int(gaps[0])]), "support-gap")
    uncovered = run[mq[run] == 0]
    if uncovered.size:
        return refuted(float(pts[int(uncovered[0])]), "support-containment")

    keep = run[(mp[run] >= eps_tail) | (mq[run] >= eps_tail)]
    x = pts[keep]
    logl = np.log(mp[keep]) - np.log(mq[keep])
    slopes = np.diff(logl) / np.diff(x)
    return _monotone_verdict("lc", x[1:-1], -np.diff(slopes), tol, kind, tolerances, "triplet")


def total_variation(P: Distribution, Q: Distribution) -> float:
    """TV distance between two aligned laws: half the L1 mass difference,
    which equals sup_A |P(A) - Q(A)|, attained at A = {x: f_P(x) > f_Q(x)}."""
    _, mp, mq, _ = _aligned(P, Q)
    return 0.5 * float(np.abs(mp - mq).sum())


_ORACLES = {"lr": oracle_lr, "st": oracle_st, "hr": oracle_hr, "lc": oracle_lc}


def oracle_for(order: str):
    """The oracle deciding P <=order Q, keyed by order name."""
    try:
        return _ORACLES[order]
    except KeyError:
        raise ValueError(f"unknown order {order!r}") from None
