"""Verdict records shared by the criteria, oracle, compound, and pairwise modules.

A verdict is pure data: which order was tested, in which direction, what came
out, and where it broke if it broke. Keeping the type here means the kernel
criteria and the brute-force oracle share no computational code, only the
record they both emit, and `reconcile`, the one rule that downgrades a
criterion verdict the oracle contradicts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Collection, Mapping

__all__ = ["ORDERS", "DIRECTIONS", "STATUSES", "METHODS", "Witness", "OrderVerdict", "reconcile"]

ORDERS = ("lr", "lc", "st", "hr")
DIRECTIONS = ("up", "down")
STATUSES = ("holds", "fails", "inconclusive")
METHODS = ("kernel-criterion", "oracle", "pairwise-kernel", "compound-kernel", "path-kernel")


def known(kind: str, name: str, valid: Collection[str]) -> None:
    """Refuse a `name` that is not in `valid`, naming its kind and every
    valid one; the one refusal of an unknown name in the package."""
    if name not in valid:
        raise ValueError(f"unknown {kind} {name!r}; valid: {', '.join(valid)}")


@dataclass(frozen=True)
class Witness:
    """Location of the first (or worst, for survival comparisons) violation.

    x: offending grid point (left point of the offending pair/triple).
    nu: scanned parameter value at the violation; None for two-law checks.
    margin: signed slack at the violation (negative beyond the tolerance).
    kind: which quantity was violated: adjacent-pair (a kernel or ratio
          step), triplet (a second difference), grid-point (a tail mean),
          support, support-gap or support-containment (a support test),
          worst-point (a survival gap) or minor (a 2x2 minor).
    """

    x: float
    margin: float
    nu: float | None = None
    kind: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {"x": self.x, "nu": self.nu, "margin": self.margin, "kind": self.kind}


@dataclass(frozen=True)
class OrderVerdict:
    """Outcome of one order check.

    direction "up" means P_nu1 <= P_nu2 for nu1 <= nu2 (or "first argument
    below second" for two-law checks); "down" is the reverse. margin is the
    worst signed slack observed over every scanned test point, so
    status == "holds" iff margin >= -tol and status == "fails" comes with a
    witness whose margin is < -tol. An inconclusive verdict comes from
    `reconcile`, when the criterion and the oracle disagree, or from
    `check_compound_lr`, when its hypotheses are unmet; its note says which.
    """

    order: str
    direction: str
    status: str
    method: str
    tolerances: Mapping[str, float]
    witness: Witness | None = None
    margin: float | None = None
    claim: str = ""
    note: str = ""

    def __post_init__(self) -> None:
        known("order", self.order, ORDERS)
        known("direction", self.direction, DIRECTIONS)
        known("status", self.status, STATUSES)
        known("method", self.method, METHODS)
        if self.status == "fails" and self.witness is None:
            raise ValueError("failing verdict requires a witness")

    @property
    def holds(self) -> bool:
        return self.status == "holds"

    def to_dict(self) -> dict[str, Any]:
        return {
            "order": self.order,
            "direction": self.direction,
            "status": self.status,
            "method": self.method,
            "claim": self.claim,
            "margin": self.margin,
            "witness": None if self.witness is None else self.witness.to_dict(),
            "tolerances": dict(self.tolerances),
            "note": self.note,
        }


# each reconciled method, with the name its disagreement note gives its route
_DISAGREEING = {"pairwise-kernel": "kernel test", "path-kernel": "path test",
                "compound-kernel": "kernel criterion"}


def reconcile(criterion: OrderVerdict, oracle: OrderVerdict) -> OrderVerdict:
    """Cross-check a criterion verdict against the oracle's on the endpoint
    laws. The note gains the oracle's status; when exactly one of the two
    holds, the verdict becomes inconclusive and keeps the criterion's witness,
    or else the oracle's, with that witness's margin, and the note names the
    criterion's route by its method."""
    note = f"endpoint oracle {oracle.status}"
    note = f"{criterion.note}; {note}" if criterion.note else note
    if criterion.holds == oracle.holds:
        return replace(criterion, note=note)
    witness = criterion.witness or oracle.witness
    return replace(
        criterion, status="inconclusive", witness=witness,
        margin=criterion.margin if witness is None else witness.margin,
        note=f"{note}; {_DISAGREEING[criterion.method]} and oracle disagree",
    )
