"""The one rule that reconciles a criterion verdict with the oracle's."""

from stochorder.verdicts import OrderVerdict, Witness, reconcile

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
