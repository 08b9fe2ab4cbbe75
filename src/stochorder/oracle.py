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

One alignment serves every test. Each order's formula is written once, for
one direction of a `_Pair` (the two laws' aligned mass vectors), and the
pair derives on first use, and keeps, what both directions read: the two
survivals (st and hr), the points where either law carries ORACLE_EPS_TAIL
(lr), and for lc the kept points of a support range with their spacings and
both log-mass vectors, which the second direction reuses when both laws'
supports are that one gap-free range on one point array. On these each
direction runs its own subtractions and divisions, the operations of a
one-test call in the same order, so each verdict has the bits of a one-test
call, and a "down" test on (P, Q) those of the "up" test on (Q, P) but for
its direction. The down lc margins are not taken as the negated up margins,
since negation does not commute with subtraction on signed zeros:
-(0.0 - 0.0) is -0.0 while (-0.0) - (-0.0) is 0.0. Where the formula
selects through a mask, the code slices when the mask is one run, as a
survival's points above ORACLE_EPS_TAIL always are (a survival is
nonincreasing); a slice holds the values of the gather in the same order.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .catalog import Distribution
from .verdicts import DIRECTIONS, OrderVerdict, Witness

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


def _survival(masses: np.ndarray) -> np.ndarray:
    return np.cumsum(masses[::-1])[::-1]


class _Pair:
    """Two laws' aligned masses, and the arrays both directions of an order
    read, each derived on first use. Direction `down` reads Q below P."""

    def __init__(self, P: Distribution, Q: Distribution) -> None:
        pts, self.mp, self.mq, self.kind = _aligned(P, Q)
        # a direction places its witnesses on its first law's grid
        self.points = (pts, pts if self.kind == "discrete" else Q.support.points)
        self._survivals: tuple[np.ndarray, np.ndarray] | None = None
        self._logs: dict[tuple, tuple[np.ndarray, ...]] = {}

    def masses(self, down: bool) -> tuple[np.ndarray, np.ndarray]:
        """(first, second) mass vectors of the direction."""
        return (self.mq, self.mp) if down else (self.mp, self.mq)

    def survivals(self, down: bool) -> tuple[np.ndarray, np.ndarray]:
        """(first, second) survivals of the direction."""
        if self._survivals is None:
            self._survivals = _survival(self.mp), _survival(self.mq)
        sp, sq = self._survivals
        return (sq, sp) if down else (sp, sq)

    @cached_property
    def keep(self) -> slice | np.ndarray:
        """The points where either law carries at least ORACLE_EPS_TAIL."""
        return _selector((self.mp >= ORACLE_EPS_TAIL) | (self.mq >= ORACLE_EPS_TAIL))

    def run_logs(self, start: int, stop: int, down: bool) -> tuple[np.ndarray, ...]:
        """(x, its spacings, log first, log second) at the points of
        start..stop-1 where either law carries at least ORACLE_EPS_TAIL. The
        points and logs do not depend on the direction, so when both laws'
        supports are that one range on one point array the second direction
        reuses them."""
        points = self.points[down]
        key = (start, stop, points is self.points[0])
        if key not in self._logs:
            run = slice(start, stop)
            mp, mq = self.mp[run], self.mq[run]
            keep = _selector((mp >= ORACLE_EPS_TAIL) | (mq >= ORACLE_EPS_TAIL))
            x = points[run][keep]
            self._logs[key] = x, np.diff(x), np.log(mp[keep]), np.log(mq[keep])
        x, dx, log_p, log_q = self._logs[key]
        return (x, dx, log_q, log_p) if down else (x, dx, log_p, log_q)


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


def _verdict(
    order: str, pair: _Pair, down: bool, witness: Witness | None = None,
    margin: float | None = None,
) -> OrderVerdict:
    """The oracle's verdict on the direction's first law below its second:
    fails with the witness (and its margin) when there is one, holds with
    `margin` otherwise."""
    return OrderVerdict(
        order=order, direction="down" if down else "up",
        status="holds" if witness is None else "fails", method="oracle",
        tolerances=_TOLERANCES[order], witness=witness,
        margin=margin if witness is None else witness.margin,
        note="" if pair.kind == "discrete" else "grid-certified on the shared discretization",
    )


def _monotone_verdict(
    order: str, pair: _Pair, down: bool, pts: np.ndarray, margins: np.ndarray, witness_kind: str
) -> OrderVerdict:
    """The oracle's one first-witness search: fails at the first margin below
    -ORACLE_REL_TOL, holds otherwise with the least finite margin. A finite
    least margin at or above -ORACLE_REL_TOL is both at once, with no gather."""
    lowest = margins.min() if margins.size else math.nan
    if lowest >= -ORACLE_REL_TOL and math.isfinite(lowest):
        return _verdict(order, pair, down, margin=float(lowest))
    bad = margins < -ORACLE_REL_TOL
    if bad.any():
        i = int(np.argmax(bad))
        w = Witness(x=float(pts[i]), margin=float(margins[i]), kind=witness_kind)
        return _verdict(order, pair, down, w)
    finite = margins[np.isfinite(margins)]
    return _verdict(order, pair, down, margin=float(finite.min()) if finite.size else None)


# ---------------------------------------------------------------------------
# each order once, for one direction of a pair


def _lr(pair: _Pair, down: bool) -> OrderVerdict:
    keep = pair.keep
    first, second = pair.masses(down)
    margins = _log_decrements(_ratio(first[keep], second[keep]))
    return _monotone_verdict("lr", pair, down, pair.points[down][keep], margins, "adjacent-pair")


def _st(pair: _Pair, down: bool) -> OrderVerdict:
    first, second = pair.survivals(down)
    slack = second - first
    i = int(np.argmin(slack))
    margin = float(slack[i])
    x = float(pair.points[down][i])
    w = Witness(x=x, margin=margin, kind="worst-point") if margin < -ORACLE_ABS_TOL else None
    return _verdict("st", pair, down, w, margin)


def _hr(pair: _Pair, down: bool) -> OrderVerdict:
    first, second = pair.survivals(down)
    # up to where both survivals have fallen to ORACLE_EPS_TAIL, as lr keeps
    # the points where either law carries it
    n = max(_prefix_above(first, ORACLE_EPS_TAIL), _prefix_above(second, ORACLE_EPS_TAIL))
    first, second = first[:n], second[:n]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = first / second  # positive / 0 or / subnormal: +inf
    ratio[_prefix_above(first, 0.0) :] = 0.0  # 0/positive and 0/0 read 0
    return _monotone_verdict(
        "hr", pair, down, pair.points[down][:n], _log_decrements(ratio), "adjacent-pair"
    )


def _lc(pair: _Pair, down: bool) -> OrderVerdict:
    first, second = pair.masses(down)

    def refuted(i: int, which: str) -> OrderVerdict:
        w = Witness(x=float(pair.points[down][i]), margin=-math.inf, kind=which)
        return _verdict("lc", pair, down, w)

    held = first > 0
    start, stop, count = _span(held)
    if count == 0:
        raise ValueError("first law has empty support")
    if stop - start != count:
        return refuted(start + int(np.argmin(held[start:stop])), "support-gap")
    covered = second[start:stop] > 0
    if not covered.all():
        return refuted(start + int(np.argmin(covered)), "support-containment")
    x, dx, log_first, log_second = pair.run_logs(start, stop, down)
    logl = log_first - log_second
    slopes = np.diff(logl)
    slopes /= dx
    margins = np.diff(slopes)
    np.negative(margins, out=margins)
    return _monotone_verdict("lc", pair, down, x[1:-1], margins, "triplet")


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
        if order not in _FORMULAS:
            raise ValueError(f"unknown order {order!r}")
        if direction not in DIRECTIONS:
            raise ValueError(f"unknown direction {direction!r}")
    pair = _Pair(P, Q)
    return [_FORMULAS[order](pair, direction == "down") for order, direction in tests]
