"""Cross-family kernels, closed-form thresholds, parameter paths."""

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from stochorder.catalog import LAWS, continuous_grid, default_grid, density, discrete_grid, normalized
from stochorder.criteria import scan_kernel
from stochorder.oracle import oracle_pair
from stochorder.pairwise import (
    LAW_NAMES,
    PairwiseLaw,
    check_interpolation,
    check_pairwise,
    check_path_order,
    katz_laws,
    katz_threshold,
    law_distribution,
    law_from_spec,
    make_law,
    pairwise_kernel,
    path_family,
)
from test_catalog import ratio_bound_cut


# ---------------------------------------------------------------------------
# concrete laws


def test_binomial_law_matches_scipy():
    d = law_distribution(make_law("binomial", n=10, p=0.3))
    k = np.arange(11)
    assert np.array_equal(d.support.points, k.astype(float))
    assert np.allclose(d.masses, stats.binom(10, 0.3).pmf(k), atol=1e-12)


def test_poisson_and_geometric_laws_match_scipy():
    d = law_distribution(law_from_spec("poisson:lambda=3"))
    k = d.support.points.astype(int)
    assert np.allclose(d.masses, stats.poisson(3.0).pmf(k), atol=1e-10)
    # infinite support is cut where the remaining mass drops below the target
    assert stats.poisson(3.0).sf(d.support.upper) <= 1e-11
    g = law_distribution(make_law("geometric", p=0.35))
    kg = g.support.points.astype(int)
    assert np.allclose(g.masses, stats.geom(0.35).pmf(kg + 1), atol=1e-10)


def test_negbinomial_law_matches_scipy():
    d = law_distribution(make_law("negbinomial", r=2.5, p=0.4))
    k = d.support.points.astype(int)
    assert np.allclose(d.masses, stats.nbinom(2.5, 0.4).pmf(k), atol=1e-10)


def test_betabinomial_law_matches_scipy():
    d = law_distribution(make_law("betabinomial", n=8, r=2.0, s=3.0))
    k = np.arange(9)
    assert np.allclose(d.masses, stats.betabinom(8, 2.0, 3.0).pmf(k), atol=1e-12)


def test_hypergeometric_law_matches_scipy():
    law = make_law("hypergeometric", B=7, W=5, n=4)
    assert law.support == (0, 4)
    d = law_distribution(law)
    k = np.arange(5)
    assert np.allclose(d.masses, stats.hypergeom(12, 7, 4).pmf(k), atol=1e-12)


def test_hypergeometric_support_clips_when_draws_exceed_white():
    law = make_law("hypergeometric", B=6, W=3, n=5)
    assert law.support == (2, 5)
    d = law_distribution(law)
    k = np.arange(2, 6)
    assert np.array_equal(d.support.points, k.astype(float))
    assert np.allclose(d.masses, stats.hypergeom(9, 6, 5).pmf(k), atol=1e-12)


def test_cmp_law_normalizes_by_direct_series():
    d = law_distribution(make_law("cmp", mu=1.5, nu=2.0))
    k = np.arange(201, dtype=float)
    w = np.exp(k * math.log(1.5) - 2.0 * np.cumsum(np.log(np.maximum(k, 1.0))))
    ref = w / w.sum()
    assert np.allclose(d.masses, ref[: d.masses.size], atol=1e-9)


def test_cmp_with_unit_shape_is_poisson():
    a = law_distribution(make_law("cmp", mu=2.0, nu=1.0))
    b = law_distribution(law_from_spec("poisson:lambda=2"))
    assert a.masses.shape == b.masses.shape
    assert 0.5 * np.abs(a.masses - b.masses).sum() <= 1e-15  # total variation


def test_law_validation_and_spec_parsing():
    assert LAW_NAMES == tuple(sorted(LAW_NAMES))
    with pytest.raises(ValueError, match="unknown law"):
        make_law("weibull", k=1.0)
    with pytest.raises(ValueError, match="needs parameter"):
        make_law("binomial", n=10)
    with pytest.raises(ValueError, match="unknown parameters"):
        make_law("poisson", **{"lambda": 1.0, "rate": 2.0})
    with pytest.raises(ValueError, match="p in"):
        make_law("binomial", n=10, p=1.0)
    with pytest.raises(ValueError, match="needs n >= 1"):
        make_law("binomial", n=0, p=0.5)
    with pytest.raises(ValueError, match="mu > 0"):
        make_law("cmp", mu=-1.0, nu=2.0)
    with pytest.raises(ValueError, match="B, W >= 0"):
        make_law("hypergeometric", B=3, W=3, n=7)


def test_law_describe():
    assert make_law("binomial", n=10, p=0.05).describe() == "binomial(n=10,p=0.05)"
    assert PairwiseLaw("flat", (0, 3), lambda k: 0.0 * k).describe() == "flat"


def full_range_cut(law, eps_tail=1e-12):
    """(cut, tail bound) of the ratio bound read in one pass over
    lo..10 000: the reference for the tail search."""
    lo = int(law.support[0])
    logs = law.log_weight(np.arange(lo, 10_001, dtype=float)) - law.log_normalizer
    return ratio_bound_cut(logs, lo, eps_tail, law.tail_ratio)


INFINITE_LAWS = st.one_of(
    st.builds(lambda lam: make_law("poisson", **{"lambda": lam}), st.floats(0.1, 200.0)),
    st.builds(lambda p: make_law("geometric", p=p), st.floats(0.02, 0.98)),
    st.builds(
        lambda r, p: make_law("negbinomial", r=r, p=p),
        st.floats(0.2, 50.0),
        st.floats(0.05, 0.95),
    ),
    st.builds(
        lambda mu, nu: make_law("cmp", mu=mu, nu=nu),
        st.just(1.0) | st.floats(0.2, 12.0),
        st.floats(0.3, 3.0),
    ),
)


@settings(max_examples=200, deadline=None)
@given(INFINITE_LAWS)
@example(make_law("geometric", p=0.003))  # cut near 9 170, in the window that ends at 10 000
def test_law_distribution_cut_is_the_full_range_cut(law):
    # the search reads each bound from the values one pass would give
    assert law_distribution(law).support.upper == full_range_cut(law)[0]


@pytest.mark.parametrize("spec,cut,first", [
    ("negbinomial:r=38.86958350399432,p=0.050452162431594796", 1913, 1912),  # sums to 1 + 4.5e-13
    ("negbinomial:r=48.4884,p=0.0579789", 1896, 1895),  # sums to 1 - 4.75e-13
])
def test_law_distribution_cut_ignores_the_error_in_the_pmf_total(spec, cut, first):
    law = law_from_spec(spec)
    assert full_range_cut(law)[0] == cut
    assert law_distribution(law).support.upper == cut
    # at 40 digits: P(X > k) = I_{1-p}(k + 1, r), first at most 1e-12 at `first`
    r, p = (mpmath.mpf(law.params[k]) for k in ("r", "p"))
    with mpmath.workdps(40):
        tail = [mpmath.betainc(k + 1, r, 0, 1 - p, regularized=True) for k in (first - 1, first)]
    assert tail[0] > 1e-12 >= tail[1]
    for shift in (-1e-11, 1e-11):  # a normalizer off by far more than eps_tail
        off = PairwiseLaw(law.name, law.support, law.log_weight, law.params,
                          law.log_normalizer + shift, law.tail_ratio)
        assert law_distribution(off).support.upper == cut


@pytest.mark.parametrize("spec,cut", [
    ("cmp:mu=9,nu=0.3", 2044),  # series terms peak near k = 1500
    ("cmp:mu=1,nu=2", 9),
    ("poisson:lambda=3", 22),
    ("geometric:p=0.35", 64),
])
def test_law_distribution_cuts_where_the_full_range_scan_does(spec, cut):
    law = law_from_spec(spec)
    assert full_range_cut(law)[0] == cut
    d = law_distribution(law)
    assert d.support.upper == cut
    grid = discrete_grid(0, cut)
    assert np.array_equal(d.masses, normalized(grid, law.log_weight(grid.points)).masses)


def test_hand_built_infinite_law_needs_its_log_normalizer():
    msg = "^tail: a law on an infinite support needs its log normalizer$"
    with pytest.raises(ValueError, match=msg):
        PairwiseLaw("tail", (0, math.inf), lambda k: -k)
    # w_k = e^-k sums to 1 / (1 - e^-1): the geometric law with p = 1 - e^-1
    log_a = -math.log1p(-math.exp(-1.0))
    with pytest.raises(ValueError, match="^tail: a law on an infinite support needs its tail "
                                         "ratio$"):
        PairwiseLaw("tail", (0, math.inf), lambda k: -k, log_normalizer=log_a)
    law = PairwiseLaw("tail", (0, math.inf), lambda k: -k, log_normalizer=log_a,
                      tail_ratio=math.exp(-1.0))
    geometric = make_law("geometric", p=-math.expm1(-1.0))
    assert law_distribution(law).support.upper == law_distribution(geometric).support.upper
    # a ratio limit of 1 bounds no tail, so no cut meets the target
    flat = replace(law, tail_ratio=1.0)
    with pytest.raises(ValueError, match="^tail: tail-mass target 1e-12 unreachable within "
                                         "k_max=10000$"):
        law_distribution(flat)


def test_law_distribution_truncation_follows_tail_target():
    law = law_from_spec("poisson:lambda=3")
    tight = law_distribution(law)
    loose = law_distribution(law, eps_tail=1e-6)
    assert loose.support.upper < tight.support.upper
    assert tight.masses.sum() == pytest.approx(1.0, abs=1e-12)
    assert loose.masses.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# the pairwise kernel


def test_pairwise_kernel_on_support_intersection():
    p, q = law_from_spec("poisson:lambda=0.6"), law_from_spec("binomial:n=10,p=0.05")
    grid, values = pairwise_kernel(p, q)
    assert grid.kind == "discrete"
    assert np.array_equal(grid.points, np.arange(11, dtype=float))
    direct = p.log_weight(grid.points) - q.log_weight(grid.points)
    assert np.allclose(values, direct, atol=1e-14)


def test_pairwise_kernel_closed_form_differences():
    # log w^Poi - log w^Bin steps by log(lam) - log(n-k) - logit(p)
    n, p, lam = 10, 0.05, 0.6
    _, values = pairwise_kernel(law_from_spec(f"poisson:lambda={lam}"),
                                law_from_spec(f"binomial:n={n},p={p}"))
    k = np.arange(n, dtype=float)
    expected = math.log(lam) - np.log(n - k) - (math.log(p) - math.log1p(-p))
    assert np.allclose(np.diff(values), expected, atol=1e-12)


def test_pairwise_kernel_kmax_and_grid_clip():
    # kmax cuts a common infinite support; a finite one ends the grid whatever kmax is
    poisson1 = law_from_spec("poisson:lambda=1")
    grid, _ = pairwise_kernel(law_from_spec("poisson:lambda=2"), make_law("geometric", p=0.5),
                              kmax=50)
    assert grid.points[0] == 0.0 and grid.points[-1] == 50.0
    inner, _ = pairwise_kernel(make_law("binomial", n=4, p=0.5), poisson1, kmax=99)
    assert np.array_equal(inner.points, np.arange(0.0, 5.0))
    shifted, _ = pairwise_kernel(make_law("hypergeometric", B=10, W=2, n=5), poisson1)
    assert np.array_equal(shifted.points, np.arange(3.0, 6.0))


def test_pairwise_kernel_rejects_bad_input():
    with pytest.raises(ValueError, match="no common support"):
        pairwise_kernel(make_law("hypergeometric", B=6, W=3, n=5),
                        make_law("binomial", n=1, p=0.5))
    holed = PairwiseLaw("holed", (0, 5), lambda k: np.where(k == 2.0, -np.inf, 0.0))
    with pytest.raises(ValueError, match="factor vanishes"):
        pairwise_kernel(holed, law_from_spec("poisson:lambda=1"))


def test_poisson_and_unit_cmp_share_pairwise_kernels():
    # two parameterizations of the same law must give the same kernel
    q = make_law("geometric", p=0.5)
    _, a = pairwise_kernel(law_from_spec("poisson:lambda=2"), q, kmax=60)
    _, b = pairwise_kernel(make_law("cmp", mu=2.0, nu=1.0), q, kmax=60)
    assert np.allclose(a, b, atol=1e-12)
    assert np.allclose(np.diff(a), np.diff(b), atol=1e-12)


def test_geometric_and_unit_negbinomial_share_pairwise_kernels():
    q = law_from_spec("poisson:lambda=1")
    _, a = pairwise_kernel(make_law("geometric", p=0.3), q, kmax=60)
    _, b = pairwise_kernel(make_law("negbinomial", r=1.0, p=0.3), q, kmax=60)
    assert np.allclose(a, b, atol=1e-12)
    assert np.allclose(np.diff(a), np.diff(b), atol=1e-12)


# ---------------------------------------------------------------------------
# pairwise verdicts


BIN_SMALL = "binomial:n=10,p=0.05"
POI_06 = "poisson:lambda=0.6"


def pair(p_spec, q_spec, orders, **kw):
    return check_pairwise(law_from_spec(p_spec), law_from_spec(q_spec), orders, **kw)


def test_check_pairwise_lr_holds_for_small_binomial_under_poisson():
    [v] = pair(BIN_SMALL, POI_06, ["lr"])
    assert v.status == "holds" and v.witness is None
    assert v.claim == "binomial(n=10,p=0.05) <=lr poisson(lambda=0.6)"
    assert v.direction == "up" and v.method == "pairwise-kernel"
    # the worst step sits at k=0: log(lam * (1-p) / (n p))
    assert v.margin == pytest.approx(math.log(1.14), abs=1e-12)
    assert v.note == "endpoint oracle holds"
    assert v.tolerances == {"tol_shape": 1e-9, "grid_points": 11}


def test_check_pairwise_lc_holds_for_binomial_within_poisson():
    [v] = pair(BIN_SMALL, POI_06, ["lc"])
    assert v.status == "holds"
    assert v.claim == "binomial(n=10,p=0.05) <=lc poisson(lambda=0.6)"
    assert v.margin == pytest.approx(math.log(10.0 / 9.0), abs=1e-12)
    assert v.note == "endpoint oracle holds"


def test_check_pairwise_lr_failure_carries_witness():
    [v] = pair("binomial:n=10,p=0.5", POI_06, ["lr"])
    assert v.status == "fails"
    assert v.witness.kind == "adjacent-pair" and v.witness.x == 0.0
    assert v.margin == pytest.approx(math.log(0.06), abs=1e-12)
    assert v.note == "endpoint oracle fails"


def test_check_pairwise_guards_support_reach():
    v, w = pair(POI_06, BIN_SMALL, ["lr", "lc"])  # claims poisson below binomial
    assert v.status == "fails" and v.witness.kind == "support"
    assert v.margin == -math.inf
    assert v.note == "dominated support reaches beyond the dominating support"
    assert w.status == "fails" and w.witness.kind == "support"


def test_check_pairwise_lr_fails_when_the_dominating_law_starts_lower():
    # P <=lr Q implies P <=st Q, so Q cannot put mass below P's support. The
    # kernel holds on the common range 3..5, where the binomial Q also puts
    # mass on 0..2; the lr claim used to come out inconclusive
    hyp = "hypergeometric:B=10,W=2,n=5"
    [v] = pair(hyp, "binomial:n=5,p=0.9", ["lr"])
    assert v.claim == "hypergeometric(B=10,W=2,n=5) <=lr binomial(n=5,p=0.9)"
    assert v.status == "fails" and v.method == "pairwise-kernel"
    assert v.witness.kind == "support" and v.witness.x == 3.0
    assert v.margin == v.witness.margin == -math.inf
    assert v.note == "dominating support starts below the dominated support"
    # reversed, the dominating hypergeometric starts above: the kernel decides
    [w] = pair("binomial:n=5,p=0.9", hyp, ["lr"])
    assert w.witness.kind == "adjacent-pair" and w.note == "endpoint oracle fails"


def test_check_pairwise_flags_shape_oracle_disagreement():
    # a tolerance wide enough to swallow real violations must not go unnoticed
    [v] = pair("binomial:n=10,p=0.5", POI_06, ["lr"], tol_shape=10.0)
    assert v.status == "inconclusive"
    assert v.note.endswith("kernel test and oracle disagree")


def test_check_pairwise_identical_laws_hold_weakly():
    [v] = pair("poisson:lambda=1.5", "poisson:lambda=1.5", ["lr"], kmax=40)
    assert v.status == "holds" and v.margin == 0.0


def test_check_pairwise_rejects_other_orders():
    with pytest.raises(ValueError, match="unknown order 'ht'"):
        pair("poisson:lambda=1", "poisson:lambda=2", ["ht"], kmax=20)


@st.composite
def any_law(draw):
    """One of the seven pairwise laws, with parameters whose log factors stay
    far below the overflow point and a support that starts at 0."""
    name = draw(st.sampled_from(LAW_NAMES))
    unit = st.floats(0.05, 0.95)
    if name == "binomial":
        params = {"n": draw(st.integers(1, 60)), "p": draw(unit)}
    elif name == "poisson":
        params = {"lambda": draw(st.floats(0.1, 50.0))}
    elif name == "negbinomial":
        params = {"r": draw(st.floats(0.2, 20.0)), "p": draw(unit)}
    elif name == "geometric":
        params = {"p": draw(unit)}
    elif name == "cmp":
        params = {"mu": draw(st.floats(0.2, 12.0)), "nu": draw(st.floats(0.3, 3.0))}
    elif name == "betabinomial":
        params = {"n": draw(st.integers(1, 40)), "r": draw(st.floats(0.2, 10.0)),
                  "s": draw(st.floats(0.2, 10.0))}
    else:
        # n <= W: the support starts at 0, like every other law's
        W = draw(st.integers(1, 40))
        params = {"B": draw(st.integers(0, 40)), "W": W, "n": draw(st.integers(1, W))}
    return make_law(name, **params)


def first_index_reference(kernel, order, tol=1e-9):
    """(status, witness, margin) of the kernel test by the first-index rule:
    the first margin below -tol is the witness, else the least margin holds.
    P <=lr Q reads K = log(w^P/w^Q) nonincreasing, P <=lc Q reads it concave."""
    grid, values = kernel
    if order == "lr":
        margins, xs, kind = -np.diff(values), grid.points[:-1], "adjacent-pair"
    else:
        margins, xs, kind = -np.diff(values, 2), grid.points[1:-1], "triplet"
    bad = np.nonzero(margins < -tol)[0]
    if bad.size:
        i = int(bad[0])
        return "fails", (float(xs[i]), float(margins[i]).hex(), None, kind), float(margins[i])
    return "holds", None, float(margins.min()) if margins.size else None


def witness_bits(w):
    return None if w is None else (w.x, w.margin.hex(), w.nu, w.kind)


@settings(max_examples=150, deadline=None)
@given(any_law(), any_law(), st.sampled_from(["lr", "lc"]))
@example(make_law("negbinomial", r=3, p=0.5), make_law("poisson", **{"lambda": 2.0}), "lc")
@example(make_law("poisson", **{"lambda": 2.0}), make_law("negbinomial", r=3, p=0.5), "lc")
def test_check_pairwise_finds_the_first_index_witness(p_law, q_law, order):
    kernel = pairwise_kernel(p_law, q_law, kmax=60)
    [v] = check_pairwise(p_law, q_law, [order], kmax=60)
    # the support guard decides before any kernel margin is read
    assume(v.witness is None or v.witness.kind != "support")
    status, witness, margin = first_index_reference(kernel, order)
    if v.note.endswith("kernel test and oracle disagree"):
        # reconciled: the criterion's witness is kept when it has one
        assert v.status == "inconclusive"
        if witness is not None:
            assert (witness_bits(v.witness), v.margin) == (witness, margin)
        return
    assert (v.status, witness_bits(v.witness)) == (status, witness)
    assert (v.margin is None and margin is None) or v.margin.hex() == margin.hex()


@settings(max_examples=150, deadline=None)
@given(any_law(), any_law())
def test_check_pairwise_lr_reads_the_reversed_kernel_bit_for_bit(p_law, q_law):
    # fl(a - b) == -fl(b - a): K = log(w^P/w^Q) read as nonincreasing gives
    # the margins and witness of log(w^Q/w^P) read as nondecreasing
    [v] = check_pairwise(p_law, q_law, ["lr"], kmax=60)
    assume(v.witness is None or v.witness.kind != "support")
    grid, reversed_kernel = pairwise_kernel(q_law, p_law, kmax=60)
    [(witness, margin, _)] = scan_kernel(lambda block: [reversed_kernel], [0.0], grid,
                                         [("lr", "up")])
    if witness is None and v.status == "inconclusive":
        return  # the oracle refuted a kernel that holds; its witness is reported
    assert v.margin == margin
    assert v.witness == (witness and replace(witness, nu=None))


@settings(max_examples=25, deadline=None)
@given(
    lam1=st.floats(min_value=0.2, max_value=4.0),
    bump=st.floats(min_value=0.1, max_value=3.0),
)
def test_poisson_pair_lr_margin_is_log_rate_ratio(lam1, bump):
    lam2 = lam1 + bump
    [v] = pair(f"poisson:lambda={lam1!r}", f"poisson:lambda={lam2!r}", ["lr"], kmax=60)
    assert v.status == "holds"
    assert v.margin == pytest.approx(math.log(lam2 / lam1), abs=1e-12)


# ---------------------------------------------------------------------------
# closed-form thresholds


def test_katz_bin_poi_interior_cells():
    inside = katz_threshold("bin-poi", {"n": 10, "p": 0.05, "lambda": 0.6})
    assert inside == {"lr_condition": True, "st_condition": True}
    outside = katz_threshold("bin-poi", {"n": 10, "p": 0.5, "lambda": 0.6})
    assert outside == {"lr_condition": False, "st_condition": False}


def test_katz_bin_nb_interior_cells():
    inside = katz_threshold("bin-nb", {"n": 5, "p": 0.1, "r": 5.0, "pi": 0.5})
    assert inside == {"lr_condition": True, "st_condition": True}
    outside = katz_threshold("bin-nb", {"n": 5, "p": 0.5, "r": 2.0, "pi": 0.8})
    assert outside == {"lr_condition": False, "st_condition": False}


def test_katz_poi_nb_interior_cells():
    inside = katz_threshold("poi-nb", {"lambda": 0.5, "r": 2.0, "p": 0.6})
    assert inside == {"lr_condition": True, "st_condition": True}
    outside = katz_threshold("poi-nb", {"lambda": 3.0, "r": 2.0, "p": 0.6})
    assert outside == {"lr_condition": False, "st_condition": False}


def test_katz_boundary_cells_count_as_ordered():
    # exact equality on either side of each inequality still reports True
    assert katz_threshold("bin-poi", {"n": 10, "p": 0.5, "lambda": 10.0})["lr_condition"]
    assert katz_threshold("bin-nb", {"n": 10, "p": 0.5, "r": 20.0, "pi": 0.5})["lr_condition"]
    assert katz_threshold("bin-nb", {"n": 10, "p": 0.5, "r": 10.0, "pi": 0.5})["st_condition"]
    assert katz_threshold("poi-nb", {"lambda": 1.0, "r": 2.0, "p": 0.5})["lr_condition"]
    p_eq = math.exp(-1.0)
    assert katz_threshold("poi-nb", {"lambda": 1.0, "r": 1.0, "p": p_eq})["st_condition"]


LR_ST = [("lr", "up"), ("st", "up")]


def test_katz_boundary_cells_agree_with_oracle():
    cells = [
        ("binomial:n=10,p=0.5", "poisson:lambda=10"),
        ("binomial:n=10,p=0.5", "negbinomial:r=20,p=0.5"),
        ("poisson:lambda=1", "negbinomial:r=2,p=0.5"),
    ]
    for low, high in cells:
        dl, dh = law_distribution(law_from_spec(low)), law_distribution(law_from_spec(high))
        assert oracle_pair(dl, dh, [("lr", "up")])[0].holds
    # the st equality cell fails lr but still dominates stochastically
    db = law_distribution(law_from_spec("binomial:n=10,p=0.5"))
    dn = law_distribution(make_law("negbinomial", r=10.0, p=0.5))
    v_lr, v_st = oracle_pair(db, dn, LR_ST)
    assert v_lr.status == "fails"
    assert v_st.holds


def test_katz_conditions_match_oracle_on_grid():
    for p in (0.1, 0.3, 0.5):
        for lam in (0.3, 1.0, 3.0):
            cond = katz_threshold("bin-poi", {"n": 6, "p": p, "lambda": lam})
            db = law_distribution(make_law("binomial", n=6, p=p))
            dp = law_distribution(make_law("poisson", **{"lambda": lam}))
            v_lr, v_st = oracle_pair(db, dp, LR_ST)
            assert v_lr.holds == cond["lr_condition"], (p, lam)
            assert v_st.holds == cond["st_condition"], (p, lam)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=8),
    p=st.floats(min_value=0.05, max_value=0.6),
    lam=st.floats(min_value=0.2, max_value=4.0),
)
def test_bin_poi_condition_matches_oracle_randomized(n, p, lam):
    # keep clear of the boundaries so float noise cannot flip either route
    assume(abs(n * p - (1.0 - p) * lam) > 1e-3)
    assume(abs((1.0 - p) ** n - math.exp(-lam)) > 1e-3)
    cond = katz_threshold("bin-poi", {"n": n, "p": p, "lambda": lam})
    db = law_distribution(make_law("binomial", n=n, p=p))
    dp = law_distribution(make_law("poisson", **{"lambda": lam}))
    v_lr, v_st = oracle_pair(db, dp, LR_ST)
    assert v_lr.holds == cond["lr_condition"]
    assert v_st.holds == cond["st_condition"]


def test_katz_validates_input():
    with pytest.raises(ValueError, match="unknown katz pair"):
        katz_threshold("bin-geo", {})
    with pytest.raises(ValueError, match="needs parameter"):
        katz_threshold("bin-poi", {"n": 5, "p": 0.2})
    with pytest.raises(ValueError, match="unknown parameters"):
        katz_threshold("poi-nb", {"lambda": 1.0, "r": 2.0, "p": 0.5, "q": 0.5})


def test_katz_laws_take_each_parameter_from_the_pair():
    # bin-nb gives the negative binomial its p from the pair's pi
    b, nb = katz_laws("bin-nb", {"n": 10, "p": 0.05, "r": 5.0, "pi": 0.5})
    assert (b.describe(), nb.describe()) == ("binomial(n=10,p=0.05)", "negbinomial(r=5,p=0.5)")
    poi, nb = katz_laws("poi-nb", {"lambda": 0.5, "r": 2.0, "p": 0.25})
    assert (poi.describe(), nb.describe()) == ("poisson(lambda=0.5)", "negbinomial(r=2,p=0.25)")
    with pytest.raises(ValueError, match="katz pair 'bin-nb' needs parameter 'pi'"):
        katz_laws("bin-nb", {"n": 10, "p": 0.05, "r": 5.0})


def test_betabin_hyp_delta_matches_kernel_differences():
    B, W, n, r, s = 20, 20, 5, 1.0, 10.0
    _, values = pairwise_kernel(
        make_law("hypergeometric", B=B, W=W, n=n), make_law("betabinomial", n=n, r=r, s=s)
    )
    # the closed-form step K(k + 1) - K(k) of log(w^Hyp / w^BetaBin)
    k = np.arange(n, dtype=float)
    d = np.log((B - k) * (s + n - k - 1.0)) - np.log((W - n + k + 1.0) * (r + k))
    assert np.allclose(np.diff(values), d, atol=1e-12)
    assert np.all(np.diff(d) <= 0.0)  # the k = n-1 cell governs


def test_betabin_hyp_condition_certifies_lr():
    # W(r+n-1) <= s(B-n+1) says the least step of log(w^Hyp / w^BetaBin), at
    # k = n-1, is >= 0: BetaBin(n,r,s) <=lr Hyp(B,W,n); raising r flips it
    B, W, n, s = 20, 20, 5, 10.0
    hyp = law_distribution(make_law("hypergeometric", B=B, W=W, n=n))
    for r, ordered in ((1.0, True), (5.0, False)):
        assert (W * (r + n - 1.0) <= s * (B - n + 1.0)) == ordered
        bb = law_distribution(make_law("betabinomial", n=n, r=r, s=s))
        [v] = oracle_pair(bb, hyp, [("lr", "up")])
        assert v.status == ("holds" if ordered else "fails")


# ---------------------------------------------------------------------------
# parameter paths


def test_path_family_kernel_is_the_chain_rule_sum(monkeypatch):
    # K_t = sum_i theta_i'(t) K^(i)_theta(t), bit for bit; an idle parameter
    # (theta_i' = 0) adds nothing and its kernel is not evaluated
    def boom(th, x):
        raise AssertionError("a zero-velocity component must not be evaluated")

    nb = LAWS["negbinomial-q"]
    idle = path_family("negbinomial", {"r1": 2.0, "r2": 2.0, "q1": 0.2, "q2": 0.6})
    monkeypatch.setitem(nb.kernels, "r", boom)
    x = discrete_grid(0, 60).points
    for t in (0.0, 0.3, 1.0):
        theta = {"r": 2.0, "q": 0.2 + t * (0.6 - 0.2)}
        assert np.array_equal(idle.kernel(t, x), (0.6 - 0.2) * nb.kernels["q"](theta, x))
    gamma = LAWS["gamma"]
    both = path_family("gamma", {"r1": 1.0, "r2": 2.5, "rho1": 2.0, "rho2": 0.5})
    x = continuous_grid(0.0, 30.0, n=200).points
    for t in (0.0, 0.3, 1.0):
        theta = {"r": 1.0 + t * (2.5 - 1.0), "rho": 2.0 + t * (0.5 - 2.0)}
        chain = ((2.5 - 1.0) * gamma.kernels["r"](theta, x)
                 + (0.5 - 2.0) * gamma.kernels["rho"](theta, x))
        assert np.array_equal(both.kernel(t, x), chain)


@pytest.mark.parametrize(
    "order,direction", [("lr", "up"), ("st", "up"), ("hr", "up"), ("lc", "down")]
)
def test_gamma_path_orders(order, direction):
    # shape up, rate down: K_t(x) = log(x) + x for every t
    fam = path_family("gamma", {"r1": 1.0, "r2": 2.0, "rho1": 2.0, "rho2": 1.0})
    grid = continuous_grid(0.0, 60.0, n=3000)
    v = check_path_order(fam, order, grid, np.linspace(0.0, 1.0, 33))
    assert v.status == "holds"
    assert v.direction == direction
    if order in ("st", "hr"):
        # K_t rises in x at every t, so lr settles st and hr without a tail pass
        assert v.margin is None
        assert v.note == ("implied by lr: the kernel is monotone at every scanned t; "
                          "endpoint oracle holds")
    else:
        assert v.margin > -1e-8
        assert v.note == "endpoint oracle holds"
    assert v.tolerances["t_points"] == 33


# a beta-binomial path whose lc down claim fails by both routes
LC_FAILING_PATH = {"n": 21, "r1": 1.426, "r2": 3.219, "s1": 5.585, "s2": 4.745}


def test_path_failure_agrees_with_endpoint_oracle():
    fam = path_family("betabinomial", LC_FAILING_PATH)
    v = check_path_order(fam, "lc", discrete_grid(0, 21), np.linspace(0.0, 1.0, 33))
    assert v.status == "fails" and v.direction == "down"
    assert v.witness.kind == "triplet"
    assert v.note == "endpoint oracle fails"


def test_path_downgrades_when_a_wide_tolerance_hides_the_violation():
    # the criterion holds under tol_shape=1e6, the oracle refutes: inconclusive,
    # carrying the oracle's witness and margin
    fam = path_family("betabinomial", LC_FAILING_PATH)
    v = check_path_order(fam, "lc", discrete_grid(0, 21), np.linspace(0.0, 1.0, 33),
                         tol_shape=1e6)
    assert v.status == "inconclusive"
    assert v.note == "endpoint oracle fails; path test and oracle disagree"
    assert v.witness is not None and v.witness.nu is None
    assert v.margin == v.witness.margin < 0


def test_negbinomial_path_holds_lr():
    fam = path_family("negbinomial", {"r1": 2.0, "r2": 3.0, "q1": 0.4, "q2": 0.5})
    v = check_path_order(fam, "lr", discrete_grid(0, 120), np.linspace(0.0, 1.0, 9))
    assert v.status == "holds" and v.margin > 0.0
    assert v.tolerances["t_points"] == 9
    assert v.note == "endpoint oracle holds"


def test_betabinomial_path_holds_lr():
    fam = path_family("betabinomial", {"n": 8, "r1": 1.0, "r2": 2.0, "s1": 3.0, "s2": 2.0})
    v = check_path_order(fam, "lr", discrete_grid(0, 8), np.linspace(0.0, 1.0, 33))
    assert v.status == "holds" and v.note == "endpoint oracle holds"


def test_check_path_order_validates_input():
    fam = path_family("gamma", {"r1": 1.0, "r2": 2.0, "rho1": 2.0, "rho2": 1.0})
    with pytest.raises(TypeError, match="grid"):
        check_path_order(fam, "lr")
    with pytest.raises(ValueError, match="unknown order"):
        check_path_order(fam, "total", continuous_grid(0.0, 10.0, n=10), [0.0, 1.0])


def test_check_path_order_rejects_t_outside_the_unit_interval():
    # q(t) = 0.4 + 0.5 t leaves the negative binomial's domain past t = 1.2,
    # and the scan used to report `st holds` on such non-laws
    fam = path_family("negbinomial", {"r1": 2, "r2": 3, "q1": 0.4, "q2": 0.9})
    grid = discrete_grid(0, 300)
    with pytest.raises(ValueError, match=r"negbinomial path: t=1\.25 outside \[0, 1\]"):
        check_path_order(fam, "st", t_grid=np.linspace(0.0, 2.0, 9), grid=grid)
    for ts in ([-0.5, 0.5], [0.0, math.nan, 1.0]):
        with pytest.raises(ValueError, match=r"t=(-0\.5|nan) outside"):
            check_path_order(fam, "st", t_grid=ts, grid=grid)
    assert check_path_order(fam, "st", t_grid=[0.0, 1.0], grid=grid).status == "holds"
    # a gamma path's kernel does not depend on t and its lr scan reads no law
    # past t = 0, so the t grid is checked before the scan
    gamma = path_family("gamma", {"r1": 1.0, "r2": 2.0, "rho1": 2.0, "rho2": 0.5})
    with pytest.raises(ValueError, match=r"gamma path: t=1\.5 outside \[0, 1\]"):
        check_path_order(gamma, "lr", continuous_grid(0.0, 10.0, n=50), t_grid=[0.0, 1.0, 1.5])


def test_path_family_names_a_t_outside_the_unit_interval():
    # theta(t) leaves the law's domains there; the family says so itself,
    # where a grid or a density used to fail with a bare math domain error
    fam = path_family("negbinomial", {"r1": 2, "r2": 3, "q1": 0.4, "q2": 0.9})
    with pytest.raises(ValueError, match=r"negbinomial path: t=2\.0 outside \[0, 1\]"):
        default_grid(fam, [0.0, 2.0], kmax=300)
    grid = discrete_grid(0, 40)
    for t in (-0.5, 1.5, math.nan):
        for call in (lambda: density(fam, t, grid), lambda: fam.kernel(t, grid.points)):
            with pytest.raises(ValueError, match=r"t=(-0\.5|1\.5|nan) outside"):
                call()
    assert density(fam, 1.0, grid).masses.sum() > 0.9


def test_path_family_validates_parameters():
    with pytest.raises(ValueError, match="unknown path"):
        path_family("weibull", {"a": 1.0})
    with pytest.raises(ValueError, match="unknown parameters"):
        path_family("gamma", {"r1": 1.0, "r2": 2.0, "rho1": 2.0, "rho2": 1.0, "bogus": 3.0})
    with pytest.raises(ValueError, match="negbinomial path needs"):
        path_family("negbinomial", {"r1": 1.0, "r2": 2.0, "q1": 0.5, "q2": 1.0})
    with pytest.raises(ValueError, match="betabinomial path needs"):
        path_family("betabinomial", {"n": 8, "r1": 1.0, "r2": 2.0, "s1": 1.0, "s2": 3.0})
    with pytest.raises(ValueError, match="gamma path needs"):
        path_family("gamma", {"r1": 1.0, "r2": 2.0, "rho1": 1.0, "rho2": 2.0})


# ---------------------------------------------------------------------------
# pseudo-sample interpolation


def _interpolation_kernels(n, r, s, p, c_values):
    """K_c = p K^r + (1-p) K^s on 0..n at each c, from the table's kernels of
    BetaBin(n, r + cp, s + c(1-p))."""
    bb, k = LAWS["betabinomial"], np.arange(n + 1, dtype=float)
    out = {}
    for c in c_values:
        th = {"n": n, "r": r + c * p, "s": s + c * (1.0 - p)}
        out[c] = p * bb.kernels["r"](th, k) + (1.0 - p) * bb.kernels["s"](th, k)
    return out


def _interpolation(n, r, s, p):
    return check_interpolation({"n": n, "r": r, "s": s, "p": p})


def test_interpolation_above_threshold_certifies_lr():
    v, rep = _interpolation(5, 1.0, 10.0, 0.5)
    assert v.holds and v.method == "path-kernel" and v.witness is None
    assert rep["condition"] and rep["threshold"] == pytest.approx(1.0 / 3.0)
    assert rep["c_values"] == [0.0, 1.0, 10.0, 100.0]
    kernels = _interpolation_kernels(5, 1.0, 10.0, 0.5, rep["c_values"])
    for c in rep["c_values"]:
        margin = rep["delta_margins"][format(c, "g")]
        assert margin == pytest.approx(float(np.diff(kernels[c]).min()))
        assert margin >= 0.0
    # worst step at c=0, k=4: p/(r+k) - (1-p)/(s+n-k-1) = 1/10 - 1/20
    assert rep["delta_margins"]["0"] == pytest.approx(0.05, abs=1e-10)


def test_interpolation_below_threshold_reports_negative_differences():
    v, rep = _interpolation(5, 1.0, 10.0, 0.2)
    assert v.status == "fails" and not rep["condition"]
    assert rep["threshold"] == pytest.approx(1.0 / 3.0)
    kernels = _interpolation_kernels(5, 1.0, 10.0, 0.2, rep["c_values"])
    for c in rep["c_values"]:
        margin = rep["delta_margins"][format(c, "g")]
        assert margin == pytest.approx(float(np.diff(kernels[c]).min()))
        assert margin < 0.0
    assert rep["delta_margins"]["0"] == pytest.approx(-0.04, abs=1e-10)


def test_interpolation_law_endpoints():
    # at c = 0 the pseudo-sample law is the start itself, bit for bit
    bb = law_distribution(make_law("betabinomial", n=5, r=1.0, s=10.0))
    start = law_distribution(make_law("betabinomial", n=5, r=1.0 + 0.0 * 0.5,
                                      s=10.0 + 0.0 * (1.0 - 0.5)))
    assert np.array_equal(start.masses, bb.masses)
    far = law_distribution(make_law("betabinomial", n=5, r=1.0 + 1e4 * 0.5,
                                    s=10.0 + 1e4 * (1.0 - 0.5)))
    target = law_distribution(make_law("binomial", n=5, p=0.5))
    assert 0.5 * np.abs(far.masses - target.masses).sum() <= 1e-3  # total variation


def test_interpolation_validates_input():
    with pytest.raises(ValueError, match="n >= 1"):
        _interpolation(0, 1.0, 1.0, 0.5)
    with pytest.raises(ValueError, match="p in"):
        _interpolation(5, 1.0, 1.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 60), st.floats(0.2, 10.0), st.floats(0.2, 10.0), st.floats(0.01, 0.99))
def test_interpolation_holds_exactly_when_p_meets_the_threshold(n, r, s, p):
    """The kernel step p(s+n-1) - (1-p)r - k, over a positive denominator, is
    least at k = n - 1 at every c, so the order holds exactly when
    p >= (r+n-1)/(r+s+n-1); both routes agree away from that threshold."""
    threshold = (r + n - 1.0) / (r + s + n - 1.0)
    assume(abs(p - threshold) >= 0.15 * threshold)
    v, rep = _interpolation(n, r, s, p)
    assert rep["condition"] == (p >= threshold)
    assert v.holds == (p >= threshold), v
