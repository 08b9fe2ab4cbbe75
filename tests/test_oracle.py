"""Brute-force oracle checks on hand-built and randomized distributions."""

import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stochorder.catalog import (
    Distribution,
    continuous_grid,
    default_grid,
    density,
    discrete_grid,
    family_from_spec,
    make_family,
    mixed_grid,
    normalized,
)
from stochorder.cli import main
from stochorder.oracle import (
    ORACLE_EPS_TAIL,
    ORACLE_REL_TOL,
    _aligned,
    _prefix_above,
    _ratio,
    _survivals,
    oracle_pair,
)
from stochorder.pairwise import law_distribution, law_from_spec


def disc(lo, masses):
    m = np.asarray(masses, dtype=float)
    return Distribution(discrete_grid(lo, lo + m.size - 1), m / m.sum())


def one(order, P, Q):
    """The verdict of P <=order Q from a one-test call."""
    [v] = oracle_pair(P, Q, [(order, "up")])
    return v


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
    lr_up, st_up, lr_down = oracle_pair(p, q, [("lr", "up"), ("st", "up"), ("lr", "down")])
    assert lr_up.holds and st_up.holds
    assert lr_down.status == "fails" and lr_down.direction == "down"


def test_nonidentical_continuous_grids_are_rejected():
    a = Distribution(continuous_grid(0.0, 1.0, n=4), np.full(4, 0.25))
    b = Distribution(continuous_grid(0.0, 2.0, n=4), np.full(4, 0.25))
    with pytest.raises(ValueError, match="identical grid"):
        one("lr", a, b)


def test_one_grid_object_aligns_without_a_point_comparison(monkeypatch):
    compared = []

    def allclose(*args, **kwargs):
        compared.append(args)
        return np.isclose(*args, **kwargs).all()

    monkeypatch.setattr(np, "allclose", allclose)
    grid = continuous_grid(0.0, 1.0, n=4)
    a = Distribution(grid, np.full(4, 0.25))
    b = Distribution(grid, np.array([0.1, 0.2, 0.3, 0.4]))
    assert one("lr", a, b).holds and compared == []
    # a distinct grid, equal or not, is still compared point by point
    assert one("lr", a, Distribution(continuous_grid(0.0, 1.0, n=4), b.masses)).holds
    assert len(compared) == 1
    # distinct unequal grids still raise, continuous or mixed
    shifted = Distribution(continuous_grid(0.0, 1.0 + 1e-9, n=4), b.masses)
    with pytest.raises(ValueError, match="identical grid"):
        one("st", a, shifted)
    m1, m2 = (Distribution(mixed_grid(upper, n=3), np.full(4, 0.25)) for upper in (1.0, 2.0))
    with pytest.raises(ValueError, match="identical grid"):
        one("lc", m1, m2)


def test_kind_mismatch_is_rejected():
    a = disc(0, [0.5, 0.5])
    b = Distribution(continuous_grid(0.0, 1.0, n=4), np.full(4, 0.25))
    with pytest.raises(ValueError, match="align"):
        one("st", a, b)


def test_continuous_verdicts_carry_the_grid_note():
    grid = continuous_grid(0.0, 10.0, n=2000)
    fam = make_family("exponential-in-rate")
    d1, d2 = density(fam, 1.0, grid), density(fam, 2.0, grid)
    v = one("lr", d2, d1)
    assert v.holds
    assert "grid" in v.note
    assert one("lr", disc(0, [0.5, 0.5]), disc(0, [0.5, 0.5])).note == ""


# ---------------------------------------------------------------------------
# each order on small hand examples


def test_lr_holds_for_poisson_pair_and_fails_reversed():
    fam = make_family("poisson")
    grid = default_grid(fam, [1.0, 2.0])
    d1, d2 = density(fam, 1.0, grid), density(fam, 2.0, grid)
    up, down = oracle_pair(d1, d2, [("lr", "up"), ("lr", "down")])
    assert up.holds and up.margin == pytest.approx(math.log(2.0), rel=1e-9)
    assert down.status == "fails"
    assert down.witness.x == 0.0 and down.witness.kind == "adjacent-pair"


def test_st_worst_point_witness():
    p = disc(0, [0.3, 0.1, 0.6])
    q = disc(0, [0.5, 0.2, 0.3])
    v = one("st", p, q)
    assert v.status == "fails"
    assert v.witness.x == 2.0 and v.witness.kind == "worst-point"
    assert v.witness.margin == pytest.approx(-0.3)
    assert one("st", q, p).holds


def test_st_is_weaker_than_lr():
    # survivals ordered but the ratio is non-monotone
    p = disc(0, [0.50, 0.20, 0.30])
    q = disc(0, [0.30, 0.40, 0.30])
    assert one("st", p, q).holds
    assert one("lr", p, q).status == "fails"


def test_hr_on_exponential_rates():
    grid = continuous_grid(0.0, 12.0, n=4000)
    fam = make_family("exponential-in-rate")
    slow, fast = density(fam, 1.0, grid), density(fam, 2.0, grid)
    assert one("hr", fast, slow).holds
    v = one("hr", slow, fast)
    assert v.status == "fails"


def test_lc_support_gap_refutes():
    p = disc(0, [0.5, 0.0, 0.5])
    q = disc(0, [0.4, 0.2, 0.4])
    v = one("lc", p, q)
    assert v.status == "fails"
    assert v.witness.kind == "support-gap" and v.witness.margin == -math.inf
    assert v.witness.x == 1.0


def test_lc_support_containment_refutes():
    p = disc(0, [0.25, 0.25, 0.25, 0.25])
    q = disc(0, [0.0, 0.5, 0.5, 0.0])
    v = one("lc", p, q)
    assert v.status == "fails"
    assert v.witness.kind == "support-containment"
    assert v.witness.x == 0.0


def test_lc_triplet_refutes_convex_ratio():
    q = disc(0, [1.0, 1.0, 1.0])
    p = disc(0, [0.45, 0.10, 0.45])
    v = one("lc", p, q)
    assert v.status == "fails" and v.witness.kind == "triplet"
    assert v.witness.x == 1.0


def test_lc_holds_for_nested_binomials():
    fam = make_family("binomial-in-p")
    grid = discrete_grid(0, 10)
    d1, d2 = density(fam, 0.3, grid), density(fam, 0.5, grid)
    # affine kernels are log-affine in ratio
    assert all(v.holds for v in oracle_pair(d1, d2, [("lc", "up"), ("lc", "down")]))


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
        assert one("lr", p, q).holds
        assert one("hr", p, q).holds
        assert one("st", p, q).holds
        assert one("lr", q, p).status == "fails"


@given(
    st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=4, max_size=25),
    st.floats(min_value=0.05, max_value=2.0),
)
@settings(max_examples=100, deadline=None)
def test_exponential_tilt_always_ratio_orders(weights, c):
    base = np.asarray(weights)
    tilt = base * np.exp(c * np.arange(base.size))
    p, q = disc(0, base), disc(0, tilt)
    assert one("lr", p, q).holds
    assert one("hr", p, q).holds
    assert one("st", p, q).holds


# ---------------------------------------------------------------------------
# one pair, both directions

ORDERS = ("lr", "lc", "st", "hr")
# exact zeros (support gaps and ends), masses that stay subnormal after
# normalising, masses below the oracle's eps_tail, and ordinary ones
WEIGHTS = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-310, 1e-300, 1e-13, 1.0]),
    st.floats(min_value=1e-6, max_value=1.0),
)


@st.composite
def law_pairs(draw):
    """Two laws the oracle can align: discrete on supports of their own, or
    on one shared continuous or mixed grid, or the same law twice."""

    def weights(n):
        m = np.array(draw(st.lists(WEIGHTS, min_size=n, max_size=n)))
        assume(m.sum() > 0)
        return m

    shape = draw(st.sampled_from(["discrete", "continuous", "mixed", "same"]))
    if shape == "discrete":
        return tuple(disc(draw(st.integers(0, 6)), weights(draw(st.integers(1, 12))))
                     for _ in range(2))
    n = draw(st.integers(3, 40))
    grid = continuous_grid(0.0, 5.0, n=n) if shape != "mixed" else mixed_grid(5.0, n=n - 1)
    p = Distribution(grid, (m := weights(grid.size)) / m.sum())
    if shape == "same":
        return p, p
    return p, Distribution(grid, (m := weights(grid.size)) / m.sum())


TESTS = [(o, d) for o in ORDERS for d in ("up", "down")]


@given(law_pairs(), st.lists(st.sampled_from(TESTS), min_size=1, max_size=8, unique=True))
@example((disc(0, [0.5, 0.0, 0.5]), disc(0, [0.4, 0.2, 0.4])), TESTS)  # support gap
@example((disc(0, [1.0] * 4), disc(1, [1.0] * 2)), TESTS)  # support containment
@example((disc(0, [1.0, 1e-310, 1.0]), disc(0, [1.0, 1.0, 5e-324])), TESTS)
@example((disc(2, [0.3, 0.7]),) * 2, [("lc", "down"), ("hr", "up"), ("lc", "up")])
@settings(max_examples=400, deadline=None)
def test_pair_oracle_gives_both_one_way_verdicts(laws, tests):
    # each verdict of a multi-test call is the one-test call's, and a down
    # test on (P, Q) the up test on (Q, P) but for its direction; repr tells
    # every float apart, -0.0 from 0.0 included
    P, Q = laws
    got = oracle_pair(P, Q, tests)
    assert len(got) == len(tests)
    for (o, d), v in zip(tests, got):
        assert (v.order, v.direction) == (o, d)
        assert repr(v) == repr(oracle_pair(P, Q, [(o, d)])[0])
        first, second = (P, Q) if d == "up" else (Q, P)
        assert repr(replace(v, direction="up")) == repr(one(o, first, second))


def _reference(order, P, Q):
    """(status, witness, margin) of P <=order Q by each formula written out
    on boolean-mask gathers of the whole aligned vectors, the witness as
    (x, margin, kind); floats as repr so that -0.0 differs from 0.0."""
    pts, mp, mq, _ = _aligned(P, Q)
    sp, sq = (np.cumsum(m[::-1])[::-1] for m in (mp, mq))
    eps, tol = ORACLE_EPS_TAIL, ORACLE_REL_TOL
    if order == "st":
        slack = sq - sp
        i = int(np.argmin(slack))
        w = (repr(float(pts[i])), repr(float(slack[i])), "worst-point") if slack[i] < -tol else None
        return ("fails" if w else "holds"), w, repr(float(slack[i]))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if order == "lc":
            supp = np.nonzero(mp > 0)[0]
            run = np.arange(supp[0], supp[-1] + 1)
            for kind, bad in (("support-gap", mp[run] == 0), ("support-containment", mq[run] == 0)):
                if bad.any():
                    return "fails", (repr(float(pts[run[bad][0]])), "-inf", kind), "-inf"
            keep = run[(mp[run] >= eps) | (mq[run] >= eps)]
            logl = np.log(mp[keep]) - np.log(mq[keep])
            margins = -np.diff(np.diff(logl) / np.diff(pts[keep]))
            x, kind = pts[keep][1:-1], "triplet"
        else:
            if order == "lr":
                keep = (mp >= eps) | (mq >= eps)
                a, b = mp[keep], mq[keep]
                values = np.where(b > 0, a / b, np.where(a > 0, np.inf, 0.0))
            else:
                keep = (sp > eps) | (sq > eps)
                values = np.where(sp[keep] > 0, sp[keep] / sq[keep], 0.0)
            g = np.log(values)
            margins = np.where(np.isnan(g[:-1] - g[1:]), 0.0, g[:-1] - g[1:])
            x, kind = pts[keep], "adjacent-pair"
    bad = np.nonzero(margins < -tol)[0]
    if bad.size:
        m = repr(float(margins[bad[0]]))
        return "fails", (repr(float(x[bad[0]])), m, kind), m
    finite = margins[np.isfinite(margins)]
    return "holds", None, repr(float(finite.min())) if finite.size else "None"


@given(law_pairs(), st.sampled_from(ORDERS))
@example((disc(0, [0.5, 0.0, 0.5]), disc(0, [0.4, 0.2, 0.4])), "lc")
@example((disc(0, [1.0] * 4), disc(1, [1.0] * 2)), "lc")
@example((disc(0, [1.0, 1e-310, 1.0]), disc(0, [1.0, 1.0, 5e-324])), "lr")
@settings(max_examples=400, deadline=None)
def test_one_way_oracles_match_the_mask_reference(laws, order):
    # the oracle slices where a mask is one run and bisects survivals; the
    # reference gathers through every mask
    P, Q = laws
    for first, second in ((P, Q), (Q, P)):
        v = one(order, first, second)
        w = v.witness and (repr(v.witness.x), repr(v.witness.margin), v.witness.kind)
        assert (v.status, w, repr(v.margin)) == _reference(order, first, second)


def test_pair_oracle_rejects_unknown_order():
    p = disc(0, [0.5, 0.5])
    with pytest.raises(ValueError, match="unknown order 'total'"):
        oracle_pair(p, p, [("lr", "up"), ("total", "up")])
    with pytest.raises(ValueError, match="unknown direction 'left'"):
        oracle_pair(p, p, [("lr", "left")])


def _running_sum_bits(masses):
    """The bytes of the survival one real running sum gives."""
    return np.cumsum(masses[::-1])[::-1].tobytes()


# exact zeros, the least subnormal, masses near the top of the double range
# (whose sums may overflow to inf) and ordinary ones
RAW_MASSES = st.one_of(st.sampled_from([0.0, 5e-324, 1e300]), st.floats(0.0, 1.0),
                       st.floats(0.0, 1e300))


@given(st.integers(0, 40).flatmap(
    lambda n: st.lists(st.lists(RAW_MASSES, min_size=n, max_size=n), min_size=2, max_size=2)))
@example([[5e-324, 0.0, 1e300, 1e300], [0.0, 5e-324, 5e-324, 1.0]])
@settings(max_examples=300, deadline=None)
def test_paired_survivals_are_each_running_sum_bit_for_bit(pair):
    mp, mq = (np.array(m, dtype=float) for m in pair)
    sp, sq = _survivals(mp, mq)
    assert sp.tobytes() == _running_sum_bits(mp)
    assert sq.tobytes() == _running_sum_bits(mq)


@given(law_pairs())
@example((disc(3, [5e-324, 1.0, 0.0, 5e-324]), disc(0, [0.0, 1.0, 1.0])))
@example((disc(0, [1.0, 5e-324]), disc(5, [5e-324, 0.0, 1.0])))
@settings(max_examples=200, deadline=None)
def test_paired_survivals_of_aligned_laws_are_each_running_sum_bit_for_bit(laws):
    # discrete laws on supports of their own are aligned on the union first
    _, mp, mq, _ = _aligned(*laws)
    sp, sq = _survivals(mp, mq)
    assert sp.tobytes() == _running_sum_bits(mp)
    assert sq.tobytes() == _running_sum_bits(mq)


@given(st.lists(st.sampled_from([0.0, 5e-324, 1e-13, 1e-12, 0.25, 1.0]), max_size=30),
       st.sampled_from([-1.0, 0.0, 1e-12, 0.5, math.nan]))
def test_survival_prefix_above_eps_is_the_whole_mask(masses, eps):
    survival = np.cumsum(np.array(masses[::-1], dtype=float))[::-1]
    n = _prefix_above(survival, eps)
    assert n == np.count_nonzero(survival > eps) and (survival[:n] > eps).all()


# ---------------------------------------------------------------------------
# hr implies st, where the supports end apart


def _law(spec):
    return law_distribution(law_from_spec(spec))


def _poisson_ends(lo, hi):
    """The two endpoint laws `check --family poisson` hands the oracle."""
    fam = family_from_spec("poisson")
    grid = default_grid(fam, [lo, hi])
    return density(fam, lo, grid), density(fam, hi, grid)


@st.composite
def ragged_pairs(draw):
    """Two discrete laws whose supports end at different points."""
    lows = draw(st.lists(st.integers(0, 4), min_size=2, max_size=2))
    sizes = draw(st.lists(st.integers(1, 12), min_size=2, max_size=2))
    assume(lows[0] + sizes[0] != lows[1] + sizes[1])
    laws = []
    for lo, n in zip(lows, sizes):
        m = np.array(draw(st.lists(WEIGHTS, min_size=n, max_size=n)))
        assume(m[0] > 0 and m[-1] > 0)
        laws.append(disc(lo, m))
    return tuple(laws)


@given(ragged_pairs())
# pairs from `report_digests --random 800` at seeds 1 and 2 whose second
# law's support ends first and whose st fails, so hr must fail too
@example((_law("cmp:mu=1.5457,nu=0.981079"), _law("betabinomial:n=10,r=8.18839,s=1.31764")))
@example((_law("geometric:p=0.491045"), _law("betabinomial:n=1,r=6.22939,s=0.968631")))
@example((_law("cmp:mu=9.63568,nu=1.60863"), _law("hypergeometric:B=39,W=8,n=14")))
# Poisson(1e-290) underflows past k = 1, and Poisson(3) lies below it in
# neither st nor hr
@example(_poisson_ends(1e-290, 3.0))
@settings(max_examples=300, deadline=None)
def test_hazard_order_implies_usual_order_on_pairs_with_different_support_ends(laws):
    # P <=hr Q implies P <=st Q (Shaked & Shanthikumar, Stochastic Orders,
    # 2007, Thm 1.B.1); both directions, from one call
    hr_up, st_up, hr_down, st_down = oracle_pair(
        *laws, [("hr", "up"), ("st", "up"), ("hr", "down"), ("st", "down")])
    assert st_up.holds or not hr_up.holds
    assert st_down.holds or not hr_down.holds


# ---------------------------------------------------------------------------
# masses that underflow: the lc oracle reads their logs


# commands whose endpoint laws hold masses that underflow to 0 or to a
# subnormal inside the other law's support; the oracle read those as a
# support-containment failure or a rounded convex triplet, against a kernel
# that holds (a log-linear ratio, or one concave in k)
UNDERFLOWED = [
    ["check", "--family", "binomial-in-p:n=3000", "--nu1=0.2", "--nu2=0.6", "--orders", "lc"],
    ["check", "--family", "negbinomial-in-q:r=14.6042", "--nu1=0.109341", "--nu2=0.883407",
     "--orders", "lc"],
    ["check", "--family", "negbinomial-in-q:r=1.69212", "--nu1=0.103781", "--nu2=0.930819",
     "--orders", "lc"],
    ["check", "--family", "negbinomial-in-q:r=11.70792767863261",
     "--nu1=0.07618713478295203", "--nu2=0.8771277581511692", "--orders", "lc"],
    ["pairwise", "--p", "binomial:n=2000,p=0.5", "--q", "poisson:lambda=3", "--orders", "lc"],
    ["path", "--name", "negbinomial:r1=6.44417,r2=19.1602,q1=0.0820643,q2=0.862807",
     "--order", "lc"],
    ["path", "--name", "negbinomial:r1=0.345329,r2=12.7898,q1=0.132144,q2=0.87735",
     "--order", "lc"],
]


@pytest.mark.parametrize("argv", UNDERFLOWED, ids=lambda argv: " ".join(argv[:3]))
def test_an_underflowed_mass_is_neither_a_support_gap_nor_a_triplet(capsys, argv):
    code = main([*argv, "--no-timing"])
    out, _ = capsys.readouterr()
    statuses = [(v["order"], v["direction"], v["method"], v["status"])
                for v in json.loads(out)["verdicts"]]
    assert code == 0
    assert statuses and all(status == "holds" for *_, status in statuses), statuses


def test_lc_reads_a_convex_kink_where_the_first_law_underflows():
    # P's log weights are -800 + 5 |k - 3| on 0..7, where its masses
    # underflow to 0 while Q's are 1/11, and 0 on 8..10: log(f_P / f_Q) is
    # convex at k = 3, so P <=lc Q fails there, not only where P's masses are
    # positive
    grid = discrete_grid(0, 10)
    k = grid.points
    P = normalized(grid, np.where(k <= 7, -800.0 + 5.0 * np.abs(k - 3.0), 0.0))
    Q = normalized(grid, np.zeros(k.size))
    assert not P.masses[:8].any()
    [v] = oracle_pair(P, Q, [("lc", "up")])
    assert (v.status, v.witness.x, v.witness.kind) == ("fails", 3.0, "triplet")


def _masses_and_logs(case):
    """(Distribution, its log_density's log masses) of a drawn law: a Table-1
    family by `density`, or log weights by `normalized`."""
    kind, spec, nu, log_weights = case
    if kind == "density":
        fam = family_from_spec(spec)
        d = density(fam, nu, default_grid(fam, [nu]))
    else:
        d = normalized(discrete_grid(0, log_weights.size - 1), log_weights)
    log_d, log_c = d.log_density
    return d, log_d + np.log(d.support.weights()) - log_c


FAMILY_DRAWS = st.sampled_from([
    ("binomial-in-p:n=3000", (0.01, 0.99)), ("poisson", (1.0, 500.0)),
    ("negbinomial-in-q:r=12", (0.05, 0.95)), ("gamma-in-rate:r=40", (0.5, 5.0)),
    ("halfnormal-in-scale", (0.1, 10.0)), ("lognormal-in-mu:sigma=0.2", (-2.0, 2.0)),
]).flatmap(lambda row: st.tuples(
    st.just("density"), st.just(row[0]), st.floats(*row[1]), st.just(None)))
WEIGHT_DRAWS = st.lists(st.floats(-2000.0, 50.0), min_size=2, max_size=60).map(
    lambda w: ("normalized", None, None, np.array(w)))


@given(st.one_of(FAMILY_DRAWS, WEIGHT_DRAWS))
@settings(max_examples=80, deadline=None)
def test_log_masses_are_the_log_of_every_normal_mass_bit_for_bit(case):
    d, from_density = _masses_and_logs(case)
    logs = d.log_masses
    normal = d.masses >= np.finfo(float).tiny
    with np.errstate(divide="ignore"):
        assert logs[normal].tobytes() == np.log(d.masses[normal]).tobytes()
    # below the smallest normal double a mass keeps the log it was taken from
    assert logs[~normal].tobytes() == from_density[~normal].tobytes()
    assert np.allclose(logs[normal], from_density[normal], rtol=1e-12, atol=1e-9)
