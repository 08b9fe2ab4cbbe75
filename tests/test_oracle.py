"""Brute-force oracle checks on hand-built and randomized distributions."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochorder.catalog import (
    Distribution,
    continuous_grid,
    default_grid,
    density,
    discrete_grid,
    make_family,
    mixed_grid,
)
from stochorder.oracle import (
    _ratio,
    oracle_for,
    oracle_hr,
    oracle_lc,
    oracle_lr,
    oracle_st,
    total_variation,
)


def disc(lo, masses):
    m = np.asarray(masses, dtype=float)
    return Distribution(discrete_grid(lo, lo + m.size - 1), m / m.sum())


# ---------------------------------------------------------------------------
# conventions and alignment


def test_likelihood_ratio_extended_conventions():
    # 0.5/0 -> inf, 0.5/0.5 -> 1, 0/0.5 -> 0 and 0/0 -> 0
    values = _ratio(np.array([0.5, 0.5, 0.0, 0.0]), np.array([0.0, 0.5, 0.5, 0.0]))
    assert values.tolist() == [math.inf, 1.0, 0.0, 0.0]


def test_ratio_past_the_largest_double_is_inf_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = _ratio(np.array([0.5, 0.5]), np.array([1.0, 5e-324]))
    assert values.tolist() == [0.5, math.inf]


def test_discrete_alignment_unions_supports():
    p = disc(0, [0.25, 0.25, 0.25, 0.25])
    q = disc(2, [1.0] * 7)
    # shifted uniform blocks: the ratio falls inf, inf, finite, finite, 0...
    assert oracle_lr(p, q).holds
    assert oracle_st(p, q).holds
    assert oracle_lr(q, p).status == "fails"


def test_nonidentical_continuous_grids_are_rejected():
    a = Distribution(continuous_grid(0.0, 1.0, n=4), np.full(4, 0.25))
    b = Distribution(continuous_grid(0.0, 2.0, n=4), np.full(4, 0.25))
    with pytest.raises(ValueError, match="identical grid"):
        oracle_lr(a, b)


def test_one_grid_object_aligns_without_a_point_comparison(monkeypatch):
    compared = []

    def allclose(*args, **kwargs):
        compared.append(args)
        return np.isclose(*args, **kwargs).all()

    monkeypatch.setattr(np, "allclose", allclose)
    grid = continuous_grid(0.0, 1.0, n=4)
    a = Distribution(grid, np.full(4, 0.25))
    b = Distribution(grid, np.array([0.1, 0.2, 0.3, 0.4]))
    assert oracle_lr(a, b).holds and compared == []
    # a distinct grid, equal or not, is still compared point by point
    assert oracle_lr(a, Distribution(continuous_grid(0.0, 1.0, n=4), b.masses)).holds
    assert len(compared) == 1
    # distinct unequal grids still raise, continuous or mixed
    shifted = Distribution(continuous_grid(0.0, 1.0 + 1e-9, n=4), b.masses)
    with pytest.raises(ValueError, match="identical grid"):
        oracle_st(a, shifted)
    m1, m2 = (Distribution(mixed_grid(upper, n=3), np.full(4, 0.25)) for upper in (1.0, 2.0))
    with pytest.raises(ValueError, match="identical grid"):
        oracle_lc(m1, m2)


def test_kind_mismatch_is_rejected():
    a = disc(0, [0.5, 0.5])
    b = Distribution(continuous_grid(0.0, 1.0, n=4), np.full(4, 0.25))
    with pytest.raises(ValueError, match="align"):
        oracle_st(a, b)


def test_continuous_verdicts_carry_the_grid_note():
    grid = continuous_grid(0.0, 10.0, n=2000)
    fam = make_family("exponential-in-rate")
    d1, d2 = density(fam, 1.0, grid), density(fam, 2.0, grid)
    v = oracle_lr(d2, d1)
    assert v.holds
    assert "grid" in v.note
    assert oracle_lr(disc(0, [0.5, 0.5]), disc(0, [0.5, 0.5])).note == ""


# ---------------------------------------------------------------------------
# each order on small hand examples


def test_lr_holds_for_poisson_pair_and_fails_reversed():
    fam = make_family("poisson")
    grid = default_grid(fam, [1.0, 2.0])
    d1, d2 = density(fam, 1.0, grid), density(fam, 2.0, grid)
    up = oracle_lr(d1, d2)
    assert up.holds and up.margin == pytest.approx(math.log(2.0), rel=1e-9)
    down = oracle_lr(d2, d1)
    assert down.status == "fails"
    assert down.witness.x == 0.0 and down.witness.kind == "adjacent-pair"


def test_st_worst_point_witness():
    p = disc(0, [0.3, 0.1, 0.6])
    q = disc(0, [0.5, 0.2, 0.3])
    v = oracle_st(p, q)
    assert v.status == "fails"
    assert v.witness.x == 2.0 and v.witness.kind == "worst-point"
    assert v.witness.margin == pytest.approx(-0.3)
    assert oracle_st(q, p).holds


def test_st_is_weaker_than_lr():
    # survivals ordered but the ratio is non-monotone
    p = disc(0, [0.50, 0.20, 0.30])
    q = disc(0, [0.30, 0.40, 0.30])
    assert oracle_st(p, q).holds
    assert oracle_lr(p, q).status == "fails"


def test_hr_on_exponential_rates():
    grid = continuous_grid(0.0, 12.0, n=4000)
    fam = make_family("exponential-in-rate")
    slow, fast = density(fam, 1.0, grid), density(fam, 2.0, grid)
    assert oracle_hr(fast, slow).holds
    v = oracle_hr(slow, fast)
    assert v.status == "fails"


def test_lc_support_gap_refutes():
    p = disc(0, [0.5, 0.0, 0.5])
    q = disc(0, [0.4, 0.2, 0.4])
    v = oracle_lc(p, q)
    assert v.status == "fails"
    assert v.witness.kind == "support-gap" and v.witness.margin == -math.inf
    assert v.witness.x == 1.0


def test_lc_support_containment_refutes():
    p = disc(0, [0.25, 0.25, 0.25, 0.25])
    q = disc(0, [0.0, 0.5, 0.5, 0.0])
    v = oracle_lc(p, q)
    assert v.status == "fails"
    assert v.witness.kind == "support-containment"
    assert v.witness.x == 0.0


def test_lc_triplet_refutes_convex_ratio():
    q = disc(0, [1.0, 1.0, 1.0])
    p = disc(0, [0.45, 0.10, 0.45])
    v = oracle_lc(p, q)
    assert v.status == "fails" and v.witness.kind == "triplet"
    assert v.witness.x == 1.0


def test_lc_holds_for_nested_binomials():
    fam = make_family("binomial-in-p")
    grid = discrete_grid(0, 10)
    d1, d2 = density(fam, 0.3, grid), density(fam, 0.5, grid)
    assert oracle_lc(d1, d2).holds
    assert oracle_lc(d2, d1).holds  # affine kernels are log-affine in ratio


def test_total_variation_basics():
    p = disc(0, [0.5, 0.5, 0.0])
    q = disc(0, [0.0, 0.5, 0.5])
    assert total_variation(p, p) == 0.0
    assert total_variation(p, q) == pytest.approx(0.5)
    r = disc(5, [1.0, 1.0])
    assert total_variation(p, r) == pytest.approx(1.0)


def test_oracle_for_rejects_unknown_order():
    assert oracle_for("lr") is oracle_lr
    with pytest.raises(ValueError):
        oracle_for("total")


# ---------------------------------------------------------------------------
# ratio order dominates the chain


def _tilted_pair(rng):
    n = int(rng.integers(4, 30))
    base = rng.dirichlet(np.ones(n))
    base = np.maximum(base, 1e-9)
    c = float(rng.uniform(0.05, 2.0))
    tilt = base * np.exp(c * np.arange(n))
    return disc(0, base), disc(0, tilt)


def test_ratio_order_implies_hazard_and_usual_for_random_pairs():
    rng = np.random.default_rng(7)
    for _ in range(60):
        p, q = _tilted_pair(rng)
        assert oracle_lr(p, q).holds
        assert oracle_hr(p, q).holds
        assert oracle_st(p, q).holds
        assert oracle_lr(q, p).status == "fails"


@given(
    st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=4, max_size=25),
    st.floats(min_value=0.05, max_value=2.0),
)
@settings(max_examples=100, deadline=None)
def test_exponential_tilt_always_ratio_orders(weights, c):
    base = np.asarray(weights)
    tilt = base * np.exp(c * np.arange(base.size))
    p, q = disc(0, base), disc(0, tilt)
    assert oracle_lr(p, q).holds
    assert oracle_hr(p, q).holds
    assert oracle_st(p, q).holds
