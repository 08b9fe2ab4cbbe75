"""Compound-law checks: summands, convolution, posteriors, direction scans.

The compound Poisson masses are cross-checked with the Panjer recursion,
an entirely separate computation route.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from stochorder.compound import (
    COUNTING_NAMES,
    CompoundModel,
    TABLE2_ROWS,
    check_compound_lr,
    compound_pmf,
    delta_summand,
    geometric_summand,
    is_pf2,
    make_compound,
    make_counting,
    poisson_shifted_summand,
    summand_from_spec,
    two_point_summand,
    _COUNTING,
    _N_CAP,
    _conv_table,
)
from stochorder.catalog import TAIL_CUT_EPS, Distribution, discrete_grid, make_family
from stochorder.criteria import TOL_SHAPE
from stochorder.special import log_factorial_vec
from stochorder.verdicts import Witness
from test_catalog import ratio_bound_cut
from test_criteria import _count_kernel_calls


# ---------------------------------------------------------------------------
# summand laws


def test_geometric_summand_masses_and_mean():
    s = geometric_summand(0.5)
    assert s.masses[0] == pytest.approx(0.5)
    assert s.masses[1] == pytest.approx(0.25)
    assert s.support.lower == 1 and s.support.truncation_tail_mass <= 1e-10
    assert s.support.points @ s.masses == pytest.approx(2.0, abs=1e-8)


def test_delta_and_two_point_summands():
    d = delta_summand(3)
    assert np.array_equal(d.masses, [0.0, 0.0, 1.0])
    t = two_point_summand(0.7)
    assert np.allclose(t.masses, [0.7, 0.3])
    assert t.support.points @ t.masses == pytest.approx(1.3)


def test_poisson_shifted_summand_matches_scipy():
    s = poisson_shifted_summand(1.5)
    assert np.allclose(s.masses, stats.poisson(1.5).pmf(s.support.points - 1), atol=1e-12)


@pytest.mark.parametrize("mu", [0.5, 1.5, 40.0, 300.0])
def test_poisson_shifted_summand_equals_a_full_range_scan(mu):
    n = np.arange(0, 2000, dtype=float)
    logs = n * math.log(mu) - log_factorial_vec(n) - mu
    cut, tail = ratio_bound_cut(logs, 0, 1e-12, 0.0)
    s = poisson_shifted_summand(mu)
    assert np.array_equal(s.masses, np.exp(logs[: cut + 1]))
    assert s.support.truncation_tail_mass == tail


def test_summand_spec_parsing():
    s = summand_from_spec("geometric:p=0.5")
    assert s.masses[0] == pytest.approx(0.5)
    assert summand_from_spec("delta:j=2").support.upper == 2
    with pytest.raises(ValueError, match="unknown summand"):
        summand_from_spec("zeta:a=2")
    with pytest.raises(ValueError, match="unknown parameters"):
        summand_from_spec("delta:j=2,q=1")
    with pytest.raises(ValueError, match="needs parameter 'p'"):
        summand_from_spec("geometric:q=0.5")
    with pytest.raises(ValueError, match="delta summand: j must be an integer, got 2.5"):
        summand_from_spec("delta:j=2.5")
    for j, need in ((0, "j >= 1"), (100_001, "j <= 100000")):
        with pytest.raises(ValueError, match=f"delta summand needs {need}"):
            summand_from_spec(f"delta:j={j}")


def test_geometric_summand_refuses_more_terms_than_the_largest_kmax():
    # p = 1e-9 needs about 2.8e10 terms to cut its tail at 1e-12; the search
    # stops at J = 100 000
    for p in (1e-9, 2.7e-4, 5e-324):
        with pytest.raises(ValueError, match="^geometric summand: tail-mass target 1e-12 "
                                             "unreachable within k_max=100000$"):
            summand_from_spec(f"geometric:p={p!r}")
    assert geometric_summand(2.8e-4).support.upper <= 100_000


def test_a_summand_is_a_distribution_on_one_to_its_largest_point():
    for spec, j_max in (("delta:j=3", 3), ("two-point:w1=0.4", 2), ("geometric:p=0.5", 40)):
        s = summand_from_spec(spec)
        assert (s.support.kind, s.support.lower, s.support.upper) == ("discrete", 1.0, j_max)
        assert s.masses.size == j_max
    # the summand's masses are checked as every law's are
    with pytest.raises(ValueError, match="sum to 1"):
        Distribution(discrete_grid(1, 2), np.array([0.5, 0.4]))
    with pytest.raises(ValueError, match="nonnegative"):
        Distribution(discrete_grid(1, 2), np.array([1.5, -0.5]))


# ---------------------------------------------------------------------------
# convolution powers


def test_convolution_power_zero_is_point_mass():
    s = geometric_summand(0.5)
    out = _conv_table(s, 0, 10)[0]
    assert out[0] == 1.0 and np.all(out[1:] == 0.0)


def test_geometric_convolution_is_shifted_negative_binomial():
    s = geometric_summand(0.4)
    for n in (1, 2, 5):
        out = _conv_table(s, n, 60)[n]
        k = np.arange(61)
        expected = np.where(k >= n, stats.nbinom(n, 0.4).pmf(k - n), 0.0)
        assert np.allclose(out, expected, atol=1e-10)


def test_convolution_power_is_a_row_of_the_table():
    s = geometric_summand(0.3)
    table = _conv_table(s, 5, 40)
    out = np.zeros(41)
    out[0] = 1.0
    for n in range(6):
        assert np.array_equal(table[n], out)
        out = np.convolve(out, np.concatenate(([0.0], s.masses)))[:41]


def test_delta_convolution_shifts():
    out = _conv_table(delta_summand(2), 3, 10)[3]
    assert out[6] == 1.0 and out.sum() == 1.0


# summands drawn over the four kinds the CLI parses; geometric summands with
# p < 0.1, and delta summands past 255, have more terms than a 256-column
# window
SUMMANDS = st.one_of(
    st.floats(0.05, 0.95).map(geometric_summand),
    st.floats(0.2, 5.0).map(poisson_shifted_summand),
    st.integers(1, 300).map(delta_summand),
    st.floats(0.05, 0.95).map(two_point_summand),
)


@settings(max_examples=60, deadline=None)
@given(SUMMANDS, st.integers(0, 30), st.integers(0, 200), st.integers(1, 600))
@example(geometric_summand(0.2), 20, 0, 300)
@example(geometric_summand(0.05), 10, 0, 600)
def test_conv_table_grown_from_a_narrower_table_equals_one_pass(summand, n_max, extra, more):
    # the narrow width holds the whole summand, so np.convolve never swaps
    # operands and its columns have the bits of the wider pass
    width = int(summand.support.upper) + 1 + extra
    k_max = width - 1 + more
    assert np.array_equal(_conv_table(summand, n_max, k_max)[:, :width],
                          _conv_table(summand, n_max, width - 1))


# ---------------------------------------------------------------------------
# compound models


def _panjer_poisson(lam: float, summand: Distribution, k_max: int) -> np.ndarray:
    # f(0) = e^-lam; k f(k) = lam * sum_j j g(j) f(k-j)
    g = np.concatenate(([0.0], summand.masses))
    f = np.zeros(k_max + 1)
    f[0] = math.exp(-lam)
    for k in range(1, k_max + 1):
        j = np.arange(1, min(k, g.size - 1) + 1)
        f[k] = lam * np.dot(j * g[j], f[k - j]) / k
    return f


def test_compound_poisson_matches_panjer_recursion():
    summand = geometric_summand(0.5)
    model = make_compound(make_counting("poisson"), summand, (2.0,))
    masses = model.compound_masses(2.0)
    expected = _panjer_poisson(2.0, summand, model.k_max)
    assert np.allclose(masses, expected, atol=1e-10)


def test_compound_mean_factorizes():
    summand = geometric_summand(0.5)
    model = make_compound(make_counting("poisson"), summand, (2.0,))
    d = compound_pmf(model, 2.0)
    mean = float(np.dot(d.support.points, d.masses))
    summand_mean = summand.support.points @ summand.masses
    assert mean == pytest.approx(2.0 * summand_mean, abs=1e-6)


def test_compound_with_delta_summand_dilates():
    model = make_compound(make_counting("poisson"), delta_summand(2), (1.5,))
    masses = model.compound_masses(1.5)
    base = stats.poisson(1.5).pmf(np.arange(model.k_max + 1))
    assert np.allclose(masses[0::2], base[: masses[0::2].size], atol=1e-12)
    assert np.all(masses[1::2] == 0.0)


def test_compound_truncation_tail_within_budget():
    model = make_compound(make_counting("geometric"), geometric_summand(0.5), (0.3, 0.6))
    for nu in (0.3, 0.45, 0.6):
        masses = model.compound_masses(nu)
        assert masses.sum() > 1.0 - 1e-6
        assert masses[-1] <= 1e-10  # nothing sizable sits at the cut
    # k_max is the first k past which the mass is at most TAIL_CUT_EPS at
    # both endpoints, read in a table to the cap of 2000 columns
    full = _conv_table(model.summand, model.n_max, 2000)
    tails = [model.counting_pmf(nu) @ full[:, model.k_max :] for nu in (0.3, 0.6)]
    assert max(t[1:].sum() for t in tails) <= TAIL_CUT_EPS < max(t.sum() for t in tails)


def test_k_cap_guard_names_the_cap():
    # a geometric summand of mean 100 under a Poisson count of mean 2 leaves
    # more than 1e-6 of the compound mass past the 2000-column cap
    with pytest.raises(ValueError, match="compound mass beyond k_max=2000 exceeds 1e-6 at nu=2;"):
        make_compound(make_counting("poisson"), geometric_summand(0.01), (2.0,))


# counting law: fixed parameters and the range of the scanned one, drawn on a
# log scale so that counts that are almost always 0 (or 1) are as likely as
# large ones; there a lattice summand leaves whole atoms past a window that
# already holds all but a sliver of the mass
COUNTING_DRAWS = {
    "poisson": (st.just({}), (1e-4, 20.0)),
    "geometric": (st.just({}), (0.1, 0.99)),
    "negbinomial": (st.fixed_dictionaries({"alpha": st.floats(0.3, 20.0)}), (0.15, 0.99)),
    "binomial": (st.fixed_dictionaries({"n0": st.integers(1, 60)}), (1e-4, 0.95)),
    "logseries": (st.just({}), (1e-4, 0.9)),
    "negbinomial-in-shape": (st.fixed_dictionaries({"p": st.floats(0.2, 0.8)}), (1e-4, 20.0)),
}


@st.composite
def counting_scans(draw):
    name = draw(st.sampled_from(COUNTING_NAMES))
    fixed, (lo, hi) = COUNTING_DRAWS[name]
    nus = sorted(math.exp(draw(st.floats(math.log(lo), math.log(hi)))) for _ in range(2))
    return make_counting(name, **draw(fixed)), tuple(nus)


def _full_cap_reference(counting, summand, nus, k_cap=2000):
    """(k_max, n_max, conv) from one table to k_cap and the reversed-cumsum
    cut, or None where the compound mass past k_cap exceeds 1e-6; n_max is
    the counting law's ratio-bound cut read in one pass."""
    lo, hi = counting.support
    if math.isfinite(hi):
        n_max = int(hi)
    else:
        n, n_max = np.arange(lo, 501, dtype=float), 0
        for nu in nus:
            logs = counting.log_factor(nu, n) - counting.log_normalizer(nu)
            n_max = max(n_max, ratio_bound_cut(logs, int(lo), 1e-12, counting.tail_ratio(nu))[0])
    table = np.zeros((n_max + 1, k_cap + 1))
    table[0, 0] = 1.0
    for n in range(1, n_max + 1):
        table[n] = np.convolve(table[n - 1], np.concatenate(([0.0], summand.masses)))[: k_cap + 1]
    need = 1
    n = np.arange(lo, n_max + 1, dtype=float)
    for nu in nus:
        q = np.zeros(n_max + 1)
        q[int(lo):] = np.exp(counting.log_factor(nu, n) - counting.log_normalizer(nu))
        masses = q @ table
        if masses.sum() < 1.0 - 1e-6:
            return None
        beyond = np.cumsum(masses[::-1])[::-1] - masses
        need = max(need, int(np.nonzero(beyond <= 1e-12)[0][0]))
    return need, n_max, table[:, : need + 1]


@settings(max_examples=120, deadline=None)
@given(counting_scans(), SUMMANDS)
@example((make_counting("poisson"), (1.0, 2.0)), geometric_summand(0.2))
@example((make_counting("geometric"), (0.5, 0.8)), geometric_summand(0.05))
# atoms at 0 and 32 fill the first 64 columns but for 2e-8 of the mass, and
# the atom at 96 still holds 1.3e-12 of it; atoms at 0 and 128 fill the first
# window, of 256 columns, but for 2e-8, and the atom at 384 holds 1.3e-12
@example((make_counting("poisson"), (1e-4, 2e-4)), delta_summand(32))
@example((make_counting("binomial", n0=5), (1e-4, 3e-4)), delta_summand(32))
@example((make_counting("poisson"), (1e-4, 2e-4)), delta_summand(128))
def test_make_compound_equals_the_full_cap_table_and_cut(scan, summand):
    counting, nus = scan
    reference = _full_cap_reference(counting, summand, nus)
    if reference is None:
        with pytest.raises(ValueError, match="compound mass beyond k_max=2000 exceeds 1e-6"):
            make_compound(counting, summand, nus)
        return
    model = make_compound(counting, summand, nus)
    k_max, n_max, conv = reference
    assert (model.k_max, model.n_max) == (k_max, n_max)
    assert np.array_equal(model.conv, conv)


# every Table-2 counting law with an infinite support, at scans reaching past
# the first 64-point window of the span search
INFINITE_COUNTING = [
    ("poisson", {}, (1.0, 2.0)),
    ("poisson", {}, (40.0, 120.0)),
    ("geometric", {}, (0.3, 0.9)),
    ("negbinomial", {}, (0.3, 0.6)),
    ("negbinomial", {"alpha": 40.0}, (0.2, 0.5)),
    ("logseries", {}, (0.3, 0.9)),
    ("negbinomial-in-shape", {}, (1.5, 60.0)),
]


@pytest.mark.parametrize("name,fixed,span", INFINITE_COUNTING)
def test_counting_n_max_equals_a_full_range_scan(name, fixed, span):
    counting = make_counting(name, **fixed)
    lo = int(counting.support[0])
    n = np.arange(lo, 501, dtype=float)
    need = lo
    for nu in span:
        logs = counting.log_factor(nu, n) - counting.log_normalizer(nu)
        need = max(need, ratio_bound_cut(logs, lo, 1e-12, counting.tail_ratio(nu))[0])
    assert make_compound(counting, delta_summand(1), span).n_max == need


def test_counting_cut_stops_one_short_of_n_cap():
    # the bound at n reads the mass at n + 1, so the cut of a counting law
    # reaches at most _N_CAP - 1: Poisson(358) is cut there, Poisson(359) at
    # _N_CAP, past the search
    counting, n = make_counting("poisson"), np.arange(0, 801, dtype=float)
    for theta, cut in ((358.0, _N_CAP - 1), (359.0, _N_CAP)):
        logs = counting.log_factor(theta, n) - counting.log_normalizer(theta)
        assert ratio_bound_cut(logs, 0, TAIL_CUT_EPS, counting.tail_ratio(theta))[0] == cut
    assert make_compound(counting, delta_summand(1), (1.0, 358.0)).n_max == _N_CAP - 1
    with pytest.raises(ValueError, match=f"^poisson: .* unreachable within n_max={_N_CAP}$"):
        make_compound(counting, delta_summand(1), (1.0, 359.0))


def test_finite_counting_support_caps_n_max():
    model = make_compound(make_counting("binomial", n0=10), geometric_summand(0.5), (0.4,))
    assert model.n_max == 10


def test_compound_pmf_is_normalized_distribution():
    model = make_compound(make_counting("logseries"), geometric_summand(0.5), (0.3, 0.6))
    d = compound_pmf(model, 0.5)
    assert d.masses.sum() == pytest.approx(1.0, abs=1e-12)
    assert d.masses[0] == 0.0  # logseries starts at one arrival


# ---------------------------------------------------------------------------
# total positivity helpers


def test_is_pf2_accepts_log_concave_and_rejects_gaps():
    assert is_pf2(np.concatenate(([0.0], geometric_summand(0.5).masses)))[0]
    ok, w = is_pf2(np.array([0.5, 0.0, 0.5]))
    assert not ok and w.kind == "support-gap"
    ok, w = is_pf2(np.array([0.5, 0.05, 0.45]))
    assert not ok and w.kind == "triplet"


def _ref_pf2(p, tol):
    """The PF2 test by its own second differences of log p on the support run."""
    nz = np.nonzero(p > 0)[0]
    run = np.arange(int(nz[0]), int(nz[-1]) + 1)
    holes = run[p[run] == 0]
    if holes.size:
        return False, Witness(x=float(holes[0]), margin=-math.inf, kind="support-gap")
    curv = np.diff(np.log(p[run]), 2)
    bad = np.nonzero(curv > tol)[0]
    if bad.size:
        i = int(bad[0])
        return False, Witness(x=float(run[i + 1]), margin=float(-curv[i]), kind="triplet")
    return True, None


@st.composite
def pf2_cases(draw):
    """A pmf with leading and trailing zeros around a run of 1 to 10 points,
    and holes in it half the time."""
    mass = st.one_of(st.sampled_from([5e-324, 1e-300, 0.125, 0.5, 1.0]),
                     st.floats(1e-6, 1.0), st.floats(0.0, 1.0, exclude_min=True))
    if draw(st.booleans()):
        mass = st.one_of(mass, st.just(0.0))
    body = draw(st.lists(mass, min_size=1, max_size=10))
    body[0] = body[-1] = draw(st.sampled_from([0.25, 0.5]))  # the run's ends
    return np.array([0.0] * draw(st.integers(0, 3)) + body + [0.0] * draw(st.integers(0, 3)))


@settings(max_examples=300, deadline=None)
@given(pf2_cases())
@example(np.array([0.0, 0.5, 0.0]))
@example(np.array([0.5, 0.5, 0.0, 0.0]))
@example(np.array([0.25, 0.5, 0.25]))
@example(np.array([0.5, 0.25, 0.5]))
def test_is_pf2_equals_its_second_difference_formula_bit_for_bit(p):
    (ok, w), (ref_ok, ref) = is_pf2(p), _ref_pf2(p, TOL_SHAPE)
    assert ok == ref_ok and (w is None) == (ref is None)
    if w is not None:
        assert (w.x, w.nu, w.kind) == (ref.x, None, ref.kind)
        assert np.float64(w.margin).tobytes() == np.float64(ref.margin).tobytes()


POSTERIOR_MODELS = [
    ("poisson", {}, 2.0),
    ("negbinomial", {"alpha": 3.0}, 0.5),
]


def _posterior(model, nu):
    """The compound support k and P(N = n | X = k) over n = 0..n_max there:
    Bayes' rule q_nu(n) F^{*n}(k) / f_nu(k) on the convolution table."""
    joint = model.counting_pmf(nu)[:, None] * model.conv
    ks = np.flatnonzero(joint.sum(axis=0) > 0)
    return ks, joint[:, ks] / joint[:, ks].sum(axis=0)


def _compound_score(model, nu):
    """(k, d/dnu log f_nu(k)): the compound kernel K_nu(k) = E[G_nu(N) | X = k],
    the counting kernel averaged by the posterior, less its mean E[K_nu]
    under the compound law."""
    ks, post = _posterior(model, nu)
    n = np.arange(model.n_lo, model.n_max + 1, dtype=float)
    kernel = model.counting.kernel(nu, n) @ post[model.n_lo :]
    return ks, kernel - compound_pmf(model, nu).masses[ks] @ kernel


@pytest.mark.parametrize("name,fixed,nu", POSTERIOR_MODELS)
def test_posterior_columns_normalize(name, fixed, nu):
    model = make_compound(make_counting(name, **fixed), geometric_summand(0.5), (nu,))
    _, post = _posterior(model, nu)
    assert np.allclose(post.sum(axis=0), 1.0, atol=1e-12)


@pytest.mark.parametrize("name,fixed,nu", POSTERIOR_MODELS)
def test_posterior_is_tp2_and_mean_monotone(name, fixed, nu):
    # every 2x2 minor of P(N = n | X = k), rows n1 < n2 and columns k1 < k2,
    # is at least -1e-12: the posterior is TP2, so E[N | X = k] rises in k
    model = make_compound(make_counting(name, **fixed), geometric_summand(0.5), (nu,))
    _, post = _posterior(model, nu)
    for n1, n2 in zip(*np.triu_indices(len(post), 1)):
        minors = np.outer(post[n1], post[n2]) - np.outer(post[n2], post[n1])
        assert np.triu(minors, 1).min() >= -1e-12, (n1, n2)
    means = np.arange(len(post)) @ post  # E[N | X = k]
    assert np.all(np.diff(means) >= -1e-10)


# ---------------------------------------------------------------------------
# kernels and the direction check


def test_compound_score_matches_finite_difference():
    model = make_compound(make_counting("poisson"), geometric_summand(0.5), (1.9, 2.1))
    ks, score = _compound_score(model, 2.0)
    h = 1e-5
    lo = compound_pmf(model, 2.0 - h)
    hi = compound_pmf(model, 2.0 + h)
    keep = (lo.masses > 1e-12) & (hi.masses > 1e-12)
    fd = (np.log(hi.masses[keep]) - np.log(lo.masses[keep])) / (2 * h)
    on = np.isin(ks, np.nonzero(keep)[0].astype(float))
    assert np.allclose(score[on], fd, atol=1e-5)


@pytest.mark.parametrize("name,nu", [("poisson", 2.0), ("geometric", 0.4), ("negbinomial", 0.4),
                                     ("binomial", 0.3), ("logseries", 0.5),
                                     ("negbinomial-in-shape", 2.0)])
def test_compound_score_is_centred_under_the_compound_law(name, nu):
    h = 1e-5
    model = make_compound(make_counting(name), geometric_summand(0.5), (nu - h, nu + h))
    ks, score = _compound_score(model, nu)
    k = ks.astype(int)
    masses = compound_pmf(model, nu).masses[k]
    assert abs(float(np.dot(masses, score))) <= 1e-12, name
    # the centring is the derivative of the log normalizer: d/dnu log f_nu(k)
    keep = masses > 1e-8
    above, below = model.compound_masses(nu + h)[k], model.compound_masses(nu - h)[k]
    fd = (np.log(above[keep]) - np.log(below[keep])) / (2 * h)
    assert np.allclose(score[keep], fd, atol=1e-5), name


def test_compound_kernel_monotone_for_poisson_counting():
    model = make_compound(make_counting("poisson"), geometric_summand(0.5), (2.0,))
    # the score is the kernel less a constant, so their steps in k agree
    _, score = _compound_score(model, 2.0)
    assert np.all(np.diff(score) >= -1e-10)


def test_check_compound_lr_directions():
    m_up = make_compound(make_counting("poisson"), geometric_summand(0.5), (1.0, 2.0))
    v = check_compound_lr(m_up, 1.0, 2.0)
    assert v.holds and v.direction == "up"
    assert "endpoint oracle holds" in v.note
    m_down = make_compound(make_counting("geometric"), geometric_summand(0.5), (0.3, 0.6))
    v = check_compound_lr(m_down, 0.3, 0.6)
    assert v.holds and v.direction == "down"


def test_check_compound_lr_downgrades_on_oracle_disagreement():
    # a tolerance that hides the decreasing kernel picks the up direction,
    # which the endpoint oracle refutes
    m_down = make_compound(make_counting("geometric"), geometric_summand(0.5), (0.3, 0.6))
    v = check_compound_lr(m_down, 0.3, 0.6, tol_shape=1e6)
    assert v.status == "inconclusive" and v.direction == "up"
    assert v.note == "endpoint oracle fails; kernel criterion and oracle disagree"
    assert v.witness is not None and v.margin == v.witness.margin


def test_check_compound_lr_gates_on_pf2():
    bumpy = Distribution(discrete_grid(1, 3), np.array([0.5, 0.05, 0.45]))
    model = make_compound(make_counting("poisson"), bumpy, (1.0, 2.0))
    v = check_compound_lr(model, 1.0, 2.0)
    assert v.status == "inconclusive"
    assert "PF2" in v.note


def test_check_compound_lr_gates_on_a_counting_kernel_monotone_in_n():
    # the zero-inflated Poisson kernel falls from n = 0 to 1 and then rises,
    # so neither direction holds and the transfer to the compound is unmet
    model = make_compound(make_family("zero-inflated-poisson"), geometric_summand(0.5), (3.0, 5.0))
    v = check_compound_lr(model, 3.0, 5.0)
    assert (v.status, v.direction) == ("inconclusive", "up")
    assert v.note == "counting kernel is not monotone in n; hypothesis unmet"
    w = v.witness
    assert (w.x, w.nu, w.kind) == (0.0, 3.0, "adjacent-pair")
    assert w.margin < 0 and v.margin == w.margin


@pytest.mark.parametrize("name,sign,direction,span", TABLE2_ROWS,
                         ids=[row[0] for row in TABLE2_ROWS])
def test_the_compound_scan_builds_the_counting_statistic_once(monkeypatch, name, sign,
                                                             direction, span):
    view = _COUNTING[name]
    calls = _count_kernel_calls(monkeypatch, view.law, [view.varied])
    model = make_compound(make_counting(name), geometric_summand(0.5), span)
    v = check_compound_lr(model, *span, nu_points=65)
    # each Table-2 counting kernel is Factored: its statistic is built once
    # for the 65 scanned nus, and read at each through its coefficient
    assert (v.direction, v.status, len(calls)) == (direction, "holds", 1)


def test_a_model_reads_the_counting_pmfs_it_was_cut_with():
    counting = make_counting("negbinomial", alpha=3.0)
    model = make_compound(counting, geometric_summand(0.5), (0.6, 0.3))
    assert sorted(model.counting_pmfs) == [0.3, 0.6]
    rebuilt = dataclasses.replace(model, counting_pmfs={})
    for nu, q in model.counting_pmfs.items():
        assert model.counting_pmf(nu) is q and not q.flags.writeable
        assert model.counting_pmf(nu).tobytes() == rebuilt.counting_pmf(nu).tobytes()
        d, e = compound_pmf(model, nu), compound_pmf(rebuilt, nu)
        assert d.support is model.grid and d.masses.tobytes() == e.masses.tobytes()
    assert (model.grid.lower, model.grid.upper) == (0, model.k_max)
    # a parameter it was not cut for is validated and built
    assert model.counting_pmf(0.45).tobytes() != model.counting_pmf(0.3).tobytes()
    with pytest.raises(ValueError, match="outside"):
        compound_pmf(model, 1.5)


def test_table2_rows_cover_the_five_counting_laws():
    names = [row[0] for row in TABLE2_ROWS]
    assert names == ["poisson", "geometric", "negbinomial", "binomial", "logseries"]
    for name, sign, direction, (lo, hi) in TABLE2_ROWS:
        assert (sign == "+") == (direction == "up")
        # the scanned range lies inside the counting law's parameter domain
        d_lo, d_hi = make_counting(name).param_interval
        assert d_lo < lo < hi < d_hi, name
