"""The one rule that reconciles a criterion verdict with the oracle's, and
the one refusal of an unknown name."""

import numpy as np
import pytest

from stochorder.catalog import FAMILY_NAMES, Distribution, SupportGrid, discrete_grid, make_family
from stochorder.compound import COUNTING_NAMES, make_counting, summand_from_spec
from stochorder.criteria import scan_kernel
from stochorder.oracle import oracle_pair
from stochorder.pairwise import LAW_NAMES, PATH_NAMES, katz_threshold, make_law, path_family
from stochorder.verdicts import (
    DIRECTIONS, METHODS, ORDERS, STATUSES, OrderVerdict, Witness, reconcile,
)

CRIT_WITNESS = Witness(x=3.0, margin=-0.5, nu=1.5, kind="adjacent-pair")
ORACLE_WITNESS = Witness(x=7.0, margin=-0.25, kind="adjacent-pair")


def verdict(status, method, witness=None, margin=None, note=""):
    return OrderVerdict(
        order="lr", direction="up", status=status, method=method,
        tolerances={"tol_shape": 1e-9}, witness=witness, margin=margin,
        claim="P <=lr Q", note=note,
    )


def test_agreement_keeps_the_criterion_and_records_the_oracle():
    crit = verdict("fails", "path-kernel", CRIT_WITNESS, CRIT_WITNESS.margin, note="threshold unmet")
    v = reconcile(crit, verdict("fails", "oracle", ORACLE_WITNESS, ORACLE_WITNESS.margin))
    assert v.status == "fails" and v.witness == CRIT_WITNESS and v.margin == -0.5
    assert v.method == "path-kernel" and v.claim == "P <=lr Q"
    assert v.note == "threshold unmet; endpoint oracle fails"


def test_criterion_holds_oracle_fails_takes_the_oracle_witness():
    crit = verdict("holds", "pairwise-kernel", margin=0.75)
    v = reconcile(crit, verdict("fails", "oracle", ORACLE_WITNESS, ORACLE_WITNESS.margin))
    assert v.status == "inconclusive"
    assert v.witness == ORACLE_WITNESS and v.margin == ORACLE_WITNESS.margin
    assert v.method == "pairwise-kernel"
    assert v.note == "endpoint oracle fails; kernel test and oracle disagree"


def test_criterion_fails_oracle_holds_keeps_the_criterion_witness():
    crit = verdict("fails", "path-kernel", CRIT_WITNESS, CRIT_WITNESS.margin, note="threshold met")
    v = reconcile(crit, verdict("holds", "oracle", margin=0.1))
    assert v.status == "inconclusive"
    assert v.witness == CRIT_WITNESS and v.margin == CRIT_WITNESS.margin
    assert v.note == "threshold met; endpoint oracle holds; path test and oracle disagree"


def test_inconclusive_criterion_against_holding_oracle_keeps_its_own_margin():
    crit = verdict("inconclusive", "compound-kernel", margin=0.2, note="hypothesis unmet")
    v = reconcile(crit, verdict("holds", "oracle", margin=0.1))
    assert v.status == "inconclusive" and v.witness is None and v.margin == 0.2
    assert v.note == "hypothesis unmet; endpoint oracle holds; kernel criterion and oracle disagree"


def _fields(**changes):
    return {"order": "lr", "direction": "up", "status": "holds", "method": "oracle",
            "tolerances": {}, **changes}


_GRID = discrete_grid(0, 2)
_LAW = Distribution(_GRID, np.full(3, 1 / 3))


@pytest.mark.parametrize("refuse,kind,valid", [
    (lambda n: OrderVerdict(**_fields(order=n)), "order", ORDERS),
    (lambda n: OrderVerdict(**_fields(direction=n)), "direction", DIRECTIONS),
    (lambda n: OrderVerdict(**_fields(status=n)), "status", STATUSES),
    (lambda n: OrderVerdict(**_fields(method=n)), "method", METHODS),
    (lambda n: scan_kernel(np.zeros(3), [1.0], _GRID, [(n, "up")]), "order", ORDERS),
    (lambda n: scan_kernel(np.zeros(3), [1.0], _GRID, [("lr", n)]), "direction", DIRECTIONS),
    (lambda n: oracle_pair(_LAW, _LAW, [(n, "up")]), "order", ORDERS),
    (lambda n: oracle_pair(_LAW, _LAW, [("lr", n)]), "direction", DIRECTIONS),
    (lambda n: SupportGrid(n, 0.0, 2.0, np.arange(3.0), None), "grid kind",
     ("discrete", "continuous", "mixed")),
    (make_family, "family", FAMILY_NAMES),
    (make_counting, "counting law", COUNTING_NAMES),
    (summand_from_spec, "summand", ("delta", "geometric", "poisson-shifted", "two-point")),
    (make_law, "law", LAW_NAMES),
    (lambda n: katz_threshold(n, {}), "katz pair", ("bin-poi", "bin-nb", "poi-nb")),
    (lambda n: path_family(n, {}), "path", PATH_NAMES),
])
def test_every_unknown_name_is_refused_with_the_valid_ones(refuse, kind, valid):
    # five wordings, seven of them listing no valid name, became one
    with pytest.raises(ValueError) as refused:
        refuse("zz")
    assert str(refused.value) == f"unknown {kind} 'zz'; valid: {', '.join(valid)}"
