"""Catalogue checks: grids, spec parsing, and density cross-checks.

Discrete pmfs and continuous cell masses are compared against scipy.stats,
which shares no code with the weight-function catalogue.
"""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from stochorder import catalog
from stochorder.catalog import (
    FAMILY_NAMES,
    LAWS,
    MAX_GRID_POINTS,
    Distribution,
    View,
    continuous_grid,
    default_grid,
    density,
    discrete_grid,
    family_from_spec,
    make_family,
    mixed_grid,
    parse_spec,
)
from stochorder.criteria import nu_scan
from stochorder.pairwise import PairwiseLaw, law_distribution

ALL_FAMILIES = sorted(FAMILY_NAMES)


# ---------------------------------------------------------------------------
# grids


def test_discrete_grid_points_and_weights():
    g = discrete_grid(0, 5)
    assert g.kind == "discrete"
    assert np.array_equal(g.points, np.arange(6.0))
    assert np.array_equal(g.weights(), np.ones(6))


def test_discrete_grid_rejects_inverted_range():
    with pytest.raises(ValueError):
        discrete_grid(3, 2)


def test_continuous_grid_midpoints_and_cell_weights():
    g = continuous_grid(0.0, 1.0, n=4)
    assert g.kind == "continuous"
    assert np.allclose(g.points, [0.125, 0.375, 0.625, 0.875])
    assert np.allclose(g.weights(), 0.25)


def test_mixed_grid_has_atom_then_cells():
    g = mixed_grid(2.0, n=4)
    assert g.kind == "mixed"
    assert g.points[0] == 0.0
    assert g.points.size == 5
    w = g.weights()
    assert w[0] == 1.0
    assert np.allclose(w[1:], 0.5)


@pytest.mark.parametrize("n", [0, -1, 2.5, math.nan, math.inf])
@pytest.mark.parametrize("build", [lambda n: continuous_grid(0.0, 1.0, n=n),
                                   lambda n: mixed_grid(1.0, n=n)], ids=["continuous", "mixed"])
def test_grids_refuse_a_cell_count_that_is_not_a_whole_number_from_one(build, n):
    with pytest.raises(ValueError, match=r"\bn\b"):
        build(n)


@pytest.mark.parametrize("grid", [discrete_grid(2, 7), continuous_grid(0.0, 1.0, n=5),
                                  mixed_grid(2.0, n=4)], ids=lambda g: g.kind)
def test_grid_constants_are_cached_and_read_only(grid):
    assert np.array_equal(grid.cell_widths, np.diff(grid.points))
    assert grid.weights() is grid.weights()
    for a in (grid.points, grid.cell_widths, grid.weights()):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 7.0
    assert np.array_equal(dataclasses.replace(grid).weights(), grid.weights())
    if grid.kind == "mixed":
        assert grid.weights()[0] == 1.0
        assert np.all(grid.weights()[1:] == grid.step)


def test_grid_keeps_its_own_copy_of_the_points():
    pts = np.arange(4.0)
    g = discrete_grid(0, 3)
    g2 = dataclasses.replace(g, points=pts)
    pts[0] = -1.0  # the caller's array stays writable and the grid unchanged
    assert g2.points[0] == 0.0 and g2.cell_widths[0] == 1.0


# ---------------------------------------------------------------------------
# spec parsing


def test_parse_spec_plain_name():
    assert parse_spec("poisson") == ("poisson", {})


def test_parse_spec_with_params():
    name, params = parse_spec("betabinomial-in-r:n=5,s=2.5")
    assert name == "betabinomial-in-r"
    assert params == {"n": 5.0, "s": 2.5}


def test_parse_spec_errors_name_offending_token():
    with pytest.raises(ValueError, match="n=="):
        parse_spec("binomial-in-p:n==7")
    with pytest.raises(ValueError, match="abc"):
        parse_spec("poisson:abc")


def test_make_family_unknown_name_lists_options():
    with pytest.raises(ValueError, match="poisson"):
        make_family("no-such-family")


def test_family_from_spec_applies_fixed_params():
    fam = family_from_spec("binomial-in-p:n=7")
    assert fam.fixed_params["n"] == 7
    assert fam.support == (0.0, 7.0)


def test_validate_param_rejects_outside_interval():
    fam = make_family("poisson")
    with pytest.raises(ValueError, match="theta"):
        fam.validate_param(0.0)
    fam = make_family("geometric")
    with pytest.raises(ValueError):
        fam.validate_param(1.0)


# ---------------------------------------------------------------------------
# densities against scipy.stats

DISCRETE_CASES = [
    ("poisson", 2.5, lambda k: stats.poisson(2.5).pmf(k)),
    ("geometric", 0.4, lambda k: stats.geom(0.6).pmf(k + 1)),
    ("negbinomial-in-q:r=2", 0.35, lambda k: stats.nbinom(2, 0.65).pmf(k)),
    ("binomial-in-p:n=10", 0.3, lambda k: stats.binom(10, 0.3).pmf(k)),
    ("betabinomial-in-r:n=5,s=2", 1.5, lambda k: stats.betabinom(5, 1.5, 2.0).pmf(k)),
    ("betabinomial-in-s:n=5,r=2", 1.5, lambda k: stats.betabinom(5, 2.0, 1.5).pmf(k)),
    ("logseries", 0.55, lambda k: stats.logser(0.55).pmf(k)),
]


@pytest.mark.parametrize("spec,nu,pmf", DISCRETE_CASES)
def test_discrete_masses_match_scipy(spec, nu, pmf):
    fam = family_from_spec(spec)
    grid = default_grid(fam, [nu])
    d = density(fam, nu, grid)
    expected = pmf(grid.points)
    # truncated renormalization shifts every mass by at most the tail budget
    assert np.allclose(d.masses, expected, rtol=1e-9, atol=1e-11)


def test_negbinomial_in_shape_matches_scipy():
    fam = make_family("negbinomial-in-shape")  # success prob fixed at 0.5
    grid = default_grid(fam, [3.0])
    d = density(fam, 3.0, grid)
    assert np.allclose(d.masses, stats.nbinom(3.0, 0.5).pmf(grid.points), atol=1e-11)


def test_zero_inflated_poisson_mixture_formula():
    fam = family_from_spec("zero-inflated-poisson:pi=0.5")
    grid = default_grid(fam, [3.0])
    d = density(fam, 3.0, grid)
    base = stats.poisson(3.0).pmf(grid.points)
    expected = 0.5 * base
    expected[0] += 0.5
    assert np.allclose(d.masses, expected, atol=1e-11)


def test_cmp_masses_match_direct_series():
    fam = family_from_spec("cmp-in-dispersion:lam=0.5")
    grid = default_grid(fam, [1.3])
    d = density(fam, 1.3, grid)
    k = np.arange(200)
    logw = k * math.log(0.5) - 1.3 * np.array([math.lgamma(v + 1.0) for v in k])
    w = np.exp(logw)
    expected = w[: grid.points.size] / w.sum()
    assert np.allclose(d.masses, expected, rtol=1e-10, atol=1e-12)


# (spec, nu, scipy law, explicit grid or None for the default)
CONTINUOUS_CASES = [
    ("gamma-in-shape", 2.5, stats.gamma(2.5), None),
    ("gamma-in-rate:r=2", 1.5, stats.gamma(2.0, scale=1.0 / 1.5), None),
    ("exponential-in-rate", 2.0, stats.expon(scale=0.5), None),
    ("weibull-in-rate:beta=2", 1.5, stats.weibull_min(2.0, scale=1.5 ** -0.5), None),
    ("beta-in-alpha:beta=2", 1.5, stats.beta(1.5, 2.0), None),
    ("beta-in-beta:alpha=2", 1.5, stats.beta(2.0, 1.5), None),
    # heavy tails: the default span is quantile-wide, so compare on a
    # moderate window where the midpoint rule resolves every cell
    ("pareto-in-shape:xm=1", 2.0, stats.pareto(2.0), (1.0, 100.0, 20000)),
    ("halfnormal-in-scale", 1.5, stats.halfnorm(scale=1.5), None),
    ("lognormal-in-mu:sigma=1", 0.5, stats.lognorm(1.0, scale=math.exp(0.5)), (0.0, 30.0, 20000)),
    ("gumbel-in-location", 0.7, stats.gumbel_r(loc=0.7), None),
]


@pytest.mark.parametrize("spec,nu,dist,window", CONTINUOUS_CASES)
def test_continuous_cell_masses_match_scipy(spec, nu, dist, window):
    fam = family_from_spec(spec)
    if window is None:
        grid = default_grid(fam, [nu], grid_points=4000)
    else:
        lo, hi, n = window
        grid = continuous_grid(lo, hi, n=n)
    d = density(fam, nu, grid)
    edges = np.empty(grid.points.size + 1)
    edges[:-1] = grid.points - grid.step / 2.0
    edges[-1] = grid.points[-1] + grid.step / 2.0
    cells = np.diff(dist.cdf(edges))
    cells /= cells.sum()
    # midpoint-rule masses agree with exact cell integrals to O(step^2);
    # edge cells of the beta laws carry a sqrt-type error a bit above that
    assert np.allclose(d.masses, cells, atol=2e-6)


def test_half_student_matches_folded_t():
    fam = make_family("half-student-in-df")
    grid = continuous_grid(0.0, 40.0, n=8000)
    d = density(fam, 4.0, grid)
    t = stats.t(4.0)
    edges = np.empty(grid.points.size + 1)
    edges[:-1] = grid.points - grid.step / 2.0
    edges[-1] = grid.points[-1] + grid.step / 2.0
    cells = 2.0 * np.diff(t.cdf(edges))
    cells /= cells.sum()
    assert np.allclose(d.masses, cells, atol=5e-7)


def test_zero_inflated_exponential_atom_and_tail():
    # the atom at zero keeps weight 1 - pi; the body is pi * Exp(theta)
    fam = family_from_spec("zero-inflated-exponential:pi=0.4")
    grid = mixed_grid(10.0, n=10000)
    d = density(fam, 1.5, grid)
    assert d.masses[0] == pytest.approx(0.6, abs=1e-6)
    x = grid.points[1:]
    expected = 0.4 * 1.5 * np.exp(-1.5 * x) * grid.step
    assert np.allclose(d.masses[1:], expected, rtol=1e-3, atol=1e-9)


# ---------------------------------------------------------------------------
# normalization, survival, and grid placement


@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_density_normalizes_on_default_grid(name):
    fam = make_family(name)
    lo, hi = fam.param_interval
    nu = 0.5 if hi <= 1.0 else max(lo, 0.0) + 1.5
    grid = default_grid(fam, [nu])
    d = density(fam, nu, grid)
    assert d.masses.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(d.masses >= 0.0)


@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_default_grid_stays_inside_support(name):
    fam = make_family(name)
    lo, hi = fam.param_interval
    nu = 0.5 if hi <= 1.0 else max(lo, 0.0) + 1.5
    grid = default_grid(fam, [nu])
    lo_s, hi_s = fam.support
    assert grid.points[0] >= lo_s - 1e-12
    if math.isfinite(hi_s):
        assert grid.points[-1] <= hi_s + 1e-12


@pytest.mark.parametrize("name", ["gamma-in-rate", "zero-inflated-exponential"])
@pytest.mark.parametrize("points", [0, -1, 2.5, math.nan, MAX_GRID_POINTS + 1])
def test_default_grid_refuses_a_cell_count_outside_its_range(name, points):
    # 0 and -1 gave one cell and a count past the ceiling gave
    # MAX_GRID_POINTS cells, silently; 2.5 and nan were refused under the
    # grid constructor's name n
    with pytest.raises(ValueError, match=r"^default_grid.*\bgrid_points\b"):
        default_grid(make_family(name), [1.0], grid_points=points)


def test_default_grid_discrete_tail_budget():
    fam = make_family("poisson")
    nus = nu_scan(1.0, 4.0)
    grid = default_grid(fam, nus)
    for nu in nus:
        assert stats.poisson(nu).sf(grid.points[-1]) <= 1e-11


def test_hazard_of_exponential_is_flat_at_the_rate():
    fam = make_family("exponential-in-rate")
    grid = default_grid(fam, [1.0])
    m = density(fam, 1.0, grid).masses
    h = m / grid.weights() / np.cumsum(m[::-1])[::-1]  # density over P(X >= x)
    assert np.all(h > 0.0)
    mid = slice(10, grid.points.size // 2)
    assert np.allclose(h[mid], 1.0, rtol=1e-2)


def test_density_rejects_zero_mass_grid():
    fam = make_family("poisson")
    grid = discrete_grid(0, 5)
    with pytest.raises(ValueError):
        density(fam, math.nan, grid)


# a log factor of +inf or NaN gives a value that is not finite; -inf a zero mass
LOG_FACTORS = st.one_of(st.floats(-50.0, 50.0),
                        st.sampled_from([-math.inf, math.inf, math.nan]))


@settings(max_examples=200, deadline=None)
@given(logs=st.lists(LOG_FACTORS, min_size=1, max_size=12), discrete=st.booleans())
@example(logs=[1.0, math.nan, 1.0], discrete=True)
@example(logs=[1.0, math.inf, math.nan], discrete=False)
@example(logs=[-math.inf, 0.0], discrete=True)
def test_density_refuses_exactly_the_values_the_two_pass_check_refused(logs, discrete):
    # density values are >= 0 or NaN, so `density` reads their finiteness off
    # their largest value; the check it replaced read np.isfinite of each
    grid = discrete_grid(0, len(logs) - 1) if discrete else continuous_grid(0.0, 1.0, n=len(logs))
    fam = dataclasses.replace(make_family("poisson"), log_factor=lambda nu, x: np.array(logs),
                              log_normalizer=lambda nu: 0.0)
    vals = np.exp(np.array(logs)) * grid.weights()
    if not np.all(np.isfinite(vals)):
        with pytest.raises(ValueError, match="non-finite density values"):
            density(fam, 1.0, grid)
    elif not vals.sum() > 0:
        with pytest.raises(ValueError, match="zero total mass"):
            density(fam, 1.0, grid)
    else:
        assert np.array_equal(density(fam, 1.0, grid).masses, vals / vals.sum())


@pytest.mark.parametrize("mass,refusal", [
    (-1e-300, "must be nonnegative"),
    (-5e-324, "must be nonnegative"),
    (-0.0, None),
    (math.nan, "must sum to 1"),  # no mass is below 0, as under np.any(m < 0)
])
def test_distribution_refuses_exactly_the_masses_the_two_pass_check_refused(mass, refusal):
    masses = np.array([0.5, mass, 0.5])
    if refusal is None:
        assert Distribution(discrete_grid(0, 2), masses).masses[1] == 0.0
    else:
        with pytest.raises(ValueError, match=refusal):
            Distribution(discrete_grid(0, 2), masses)


def test_law_distribution_keeps_a_vanishing_weight_and_refuses_a_nan_one():
    # `law_distribution` builds its masses through `normalized`, which
    # `Distribution` checks: a weight of 0 is a mass of 0, a NaN weight no law
    def law(logs):
        return PairwiseLaw("stub", (0.0, 2.0), lambda ks: np.array(logs))

    assert law_distribution(law([0.0, -math.inf, 0.0])).masses.tolist() == [0.5, 0.0, 0.5]
    with pytest.raises(ValueError, match="must sum to 1"):
        law_distribution(law([0.0, math.nan, 0.0]))


# ---------------------------------------------------------------------------
# the tail cut of infinite discrete supports

# every infinite-support discrete Table-1 row; the wider scans reach past the
# first 64-point window, the negative-binomial ones into the lgamma branch
INFINITE_DISCRETE = [
    ("poisson", (1.0, 3.0)),
    ("poisson", (20.0, 80.0)),
    ("geometric", (0.3, 0.95)),
    ("negbinomial-in-q", (0.3, 0.95)),
    ("negbinomial-in-shape", (1.5, 80.0)),
    ("logseries", (0.3, 0.9)),
    ("cmp-in-dispersion", (0.8, 1.6)),
    ("zero-inflated-poisson", (3.0, 5.0)),
]


def ratio_bound_cut(logs, lo, tail_eps, limit):
    """(first k >= lo + 1 whose ratio bound p(k+1) / (1 - rho) on the tail
    past k is <= tail_eps, that bound), read in one pass over the log pmf
    `logs` on lo, lo + 1, ...; rho = max(p(k+1)/p(k), limit). None when no k
    reaches the target."""
    after = logs[2:]
    log_rho = np.maximum(after - logs[1:-1], math.log(limit) if limit > 0 else -math.inf)
    with np.errstate(divide="ignore", invalid="ignore"):  # rho >= 1: no bound
        bound = after - np.log(-np.expm1(log_rho))
    idx = np.flatnonzero(bound <= (math.log(tail_eps) if tail_eps > 0 else -math.inf))
    return None if idx.size == 0 else (lo + 1 + int(idx[0]), math.exp(bound[idx[0]]))


def full_range_span(fam, nu, kmax, tail_eps):
    """(cut, tail bound) of the ratio bound from one pass over all of
    lo..kmax, or None when no k reaches the target."""
    lo = int(fam.support[0])
    logs = fam.log_factor(nu, np.arange(lo, kmax + 1, dtype=float)) - fam.log_normalizer(nu)
    return ratio_bound_cut(logs, lo, tail_eps, fam.tail_ratio(nu))


@pytest.mark.parametrize("name,span", INFINITE_DISCRETE)
@pytest.mark.parametrize("tail_eps", [1e-12, 1e-6])
def test_span_search_equals_a_full_range_scan(name, span, tail_eps):
    fam = make_family(name)
    nus = nu_scan(*span)
    lo = int(fam.support[0])
    need, worst = lo, 0.0
    for nu in nus:
        k, tail = full_range_span(fam, nu, 10_000, tail_eps)
        need, worst = max(need, k), max(worst, tail, 0.0)
    grid = default_grid(fam, nus, tail_eps=tail_eps)
    assert (grid.lower, grid.upper, grid.truncation_tail_mass) == (lo, need, worst)
    # the bound at k reads p(k + 1), so the search reaches one point past the cut
    assert default_grid(fam, nus, tail_eps=tail_eps, kmax=need + 1).upper == need
    with pytest.raises(ValueError, match=f"target {tail_eps:g} unreachable within k_max={need}$"):
        default_grid(fam, nus, tail_eps=tail_eps, kmax=need)


def counted_log_factor(fam):
    """fam with its log_factor counting the points it is evaluated at."""
    points = []

    def log_factor(nu, ks):
        points.append(np.size(nu) * ks.size)
        return fam.log_factor(nu, ks)

    return dataclasses.replace(fam, log_factor=log_factor), points


@pytest.mark.parametrize("name,span", INFINITE_DISCRETE)
def test_span_search_evaluates_at_most_twice_the_span(name, span):
    counted, points = counted_log_factor(make_family(name))
    lo = int(counted.support[0])
    for nu in nu_scan(*span):
        points.clear()
        need = int(default_grid(counted, [nu]).upper)
        assert sum(points) <= 2 * (need - lo + 1) + 64, (nu, need, points)


def test_span_search_walks_to_kmax_when_the_target_is_unreachable():
    counted, points = counted_log_factor(make_family("negbinomial-in-q"))
    with pytest.raises(ValueError, match="unreachable within k_max=300"):
        default_grid(counted, [0.95], kmax=300)
    assert points == [64, 64, 128, 45]  # windows 0..63, ..127, ..255, ..300


@pytest.mark.parametrize("nus,refusal", [
    # no k up to 100 brings r = 200 to the target, and the second window's
    # lgamma overflows at r = 1e308: the search reads both as rows of one
    # window and, once that raises, each nu alone, in order
    ([200.0, 1e308], "negbinomial-in-shape: tail-mass target 1e-12 unreachable within k_max=100"),
    ([2.0, 200.0, 1e308],
     "negbinomial-in-shape: tail-mass target 1e-12 unreachable within k_max=100"),
    ([1e308, 200.0], "negbinomial-in-shape: log factor overflows a double at p=0.5,nu=1e+308"),
    ([150.0, 200.0, 250.0],
     "negbinomial-in-shape: tail-mass target 1e-12 unreachable within k_max=100"),
])
def test_a_tail_cut_refusal_is_that_of_the_first_nu_that_gives_one(nus, refusal):
    with pytest.raises(ValueError) as error:
        default_grid(make_family("negbinomial-in-shape"), nus, kmax=100)
    assert str(error.value) == refusal


def test_a_tail_cut_reads_its_rows_in_windows_of_at_most_the_block_cap():
    counted, points = counted_log_factor(make_family("negbinomial-in-shape"))
    nus = list(np.linspace(1.0, 2000.0, 65))
    grid = default_grid(counted, nus)
    # each window call reads as many rows as fit in the cap, one at least
    assert max(points) <= catalog._BLOCK_ELEMENTS and max(points) > 64 * 2
    assert grid.upper == max(default_grid(make_family("negbinomial-in-shape"), [nu]).upper
                             for nu in nus)


def exact_tail(law, theta, k):
    """P(X > k) for the table law at theta, at 40 digits: closed forms
    (regularized incomplete gamma and beta functions, a Lerch sum), and for
    cmp a direct sum of the series to past where its log terms fall 150 below
    their largest."""
    with mpmath.workdps(40):
        th = {key: mpmath.mpf(v) for key, v in theta.items()}
        if law in ("poisson", "zero-inflated-poisson"):
            share = th["pi"] if law == "zero-inflated-poisson" else 1
            return share * mpmath.gammainc(k + 1, 0, th["theta"], regularized=True)
        if law in ("geometric-q", "geometric-p"):
            return (th["q"] if "q" in th else 1 - th["p"]) ** (k + 1)
        if law in ("negbinomial-q", "negbinomial-p"):
            q = th["q"] if "q" in th else 1 - th["p"]
            return mpmath.betainc(k + 1, th["r"], 0, q, regularized=True)
        if law == "logseries":
            t = th["theta"]
            return t ** (k + 1) * mpmath.lerchphi(t, 1, k + 1) / -mpmath.log1p(-t)
        assert law == "cmp"
        logs, top = [], -mpmath.inf
        while len(logs) < k + 3 or logs[-1] > logs[-2] or logs[-1] > top - 150:
            j = len(logs)
            logs.append(j * mpmath.log(th["lam"]) - th["nu"] * mpmath.loggamma(j + 1))
            top = max(top, logs[-1])
        w = [mpmath.exp(x - top) for x in logs]
        return mpmath.fsum(w[k + 1 :]) / mpmath.fsum(w)


def law_cut(law, theta):
    """The default grid of the table law at theta, through the family that
    varies its first parameter."""
    varied = next(iter(LAWS[law].domains))
    rest = {p: v for p, v in theta.items() if p != varied}
    return default_grid(View(law, varied).family(law, law, rest), [theta[varied]])


# the infinite discrete table laws, at parameters whose cut stays below the
# default k_max and whose cmp series stays short
RATIO_LAWS = {
    "poisson": {"theta": st.floats(0.01, 700.0)},
    "geometric-q": {"q": st.floats(0.01, 0.99)},
    "geometric-p": {"p": st.floats(0.01, 0.99)},
    "negbinomial-q": {"r": st.floats(0.1, 60.0), "q": st.floats(0.01, 0.95)},
    "negbinomial-p": {"r": st.floats(0.1, 100.0), "p": st.floats(0.05, 0.99)},
    "logseries": {"theta": st.floats(0.01, 0.97)},
    "cmp": {"lam": st.floats(0.05, 10.0), "nu": st.floats(0.5, 3.0)},
    "zero-inflated-poisson": {"pi": st.floats(0.01, 0.99), "theta": st.floats(0.1, 300.0)},
}


def test_every_infinite_discrete_law_declares_its_tail_ratio():
    for name, law in LAWS.items():
        ends = law.support(dict.fromkeys(law.domains, 1))
        infinite = law.kind == "discrete" and ends[1] == math.inf
        assert (law.tail_ratio is not None) == infinite, name
    assert sorted(RATIO_LAWS) == sorted(n for n, law in LAWS.items() if law.tail_ratio is not None)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(RATIO_LAWS)).flatmap(
    lambda law: st.fixed_dictionaries(RATIO_LAWS[law]).map(lambda theta: (law, theta))))
def test_tail_cut_meets_its_target_at_40_digits(case):
    law, theta = case
    grid = law_cut(law, theta)
    cut = int(grid.upper)
    tail = exact_tail(law, theta, cut)
    # the bound is read in floats and is exact for a geometric law (at q =
    # 0.01, q^6 is 1e-12 in floats and 1.0000000000000001e-12 at 40 digits),
    # so it holds up to rounding
    assert tail <= 1e-12 * (1.0 + 1e-9), (cut, tail)
    assert grid.truncation_tail_mass >= tail * (1.0 - 1e-9)
    # at most 2 points past the exact first k whose tail is <= 1e-12
    assert cut - 3 < grid.lower or exact_tail(law, theta, cut - 3) > 1e-12


@pytest.mark.parametrize("law,theta,cut,first", [
    # 1 - cumsum cut these at 796, 1901 and 3054, leaving 1.03e-12, 1.42e-12
    # and 1.34e-12 past the cut
    ("poisson", {"theta": 614.352}, 797, 797),
    ("negbinomial-q", {"q": 0.949547837568405, "r": 38.86958350399432}, 1913, 1912),
    ("negbinomial-p", {"r": 96.959, "p": 0.0571334}, 3065, 3065),
    # its atom at 0 makes p(1)/p(0) far smaller than the later ratios
    ("zero-inflated-poisson", {"pi": 0.5, "theta": 180.0}, 281, 281),
])
def test_tail_cut_pinned_at_40_digits(law, theta, cut, first):
    grid = law_cut(law, theta)
    assert grid.upper == cut
    assert exact_tail(law, theta, first - 1) > 1e-12 >= exact_tail(law, theta, first)
    assert grid.truncation_tail_mass >= exact_tail(law, theta, cut)



# ---------------------------------------------------------------------------
# continuous spans from tail bounds


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def _gamma_tails(th, lower, upper):
    r, rho = mpmath.mpf(th["r"]), mpmath.mpf(th["rho"])
    return (mpmath.gammainc(r, 0, rho * mpmath.mpf(lower), regularized=True),
            mpmath.gammainc(r, rho * mpmath.mpf(upper), mpmath.inf, regularized=True))


def _half_student_tails(th, lower, upper):
    nu = mpmath.mpf(th["nu"])

    def inside(t):  # P(|T| <= t) = I_{t^2 / (nu + t^2)}(1/2, nu/2)
        t2 = mpmath.mpf(t) ** 2
        return mpmath.betainc(0.5, nu / 2, 0, t2 / (nu + t2), regularized=True)

    t2 = mpmath.mpf(upper) ** 2
    return inside(lower), mpmath.betainc(nu / 2, 0.5, 0, nu / (nu + t2), regularized=True)


def _halfnormal_tails(th, lower, upper):
    sigma, root2 = mpmath.mpf(th["sigma"]), mpmath.sqrt(2)
    return (mpmath.erf(mpmath.mpf(lower) / sigma / root2),
            mpmath.erfc(mpmath.mpf(upper) / sigma / root2))


def _lognormal_tails(th, lower, upper):
    mu, sigma = mpmath.mpf(th["mu"]), mpmath.mpf(th["sigma"])
    return (mpmath.ncdf((mpmath.log(mpmath.mpf(lower)) - mu) / sigma),
            mpmath.ncdf(-(mpmath.log(mpmath.mpf(upper)) - mu) / sigma))


# law -> (parameter strategy, exact (lower, upper) tail masses at 40 digits)
SOLVED_SPANS = {
    "gamma": (st.fixed_dictionaries({"r": _log_uniform(0.05, 200.0),
                                     "rho": _log_uniform(1e-3, 1e3)}), _gamma_tails),
    "half-student": (st.fixed_dictionaries({"nu": _log_uniform(0.2, 200.0)}),
                     _half_student_tails),
    "halfnormal": (st.fixed_dictionaries({"sigma": _log_uniform(1e-3, 1e3)}), _halfnormal_tails),
    "lognormal": (st.fixed_dictionaries({"mu": st.floats(-5.0, 5.0),
                                         "sigma": _log_uniform(0.01, 10.0)}), _lognormal_tails),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(SOLVED_SPANS)).flatmap(
    lambda law: st.tuples(st.just(law), SOLVED_SPANS[law][0], _log_uniform(1e-15, 1e-3))))
def test_each_solved_end_leaves_at_most_its_target_at_40_digits(case):
    law, theta, eps = case
    lower, upper = LAWS[law].span(theta, eps)
    assert 0.0 <= lower < upper < math.inf
    with mpmath.workdps(40):
        below, above = SOLVED_SPANS[law][1](theta, lower, upper)
    # a bound met with equality (gamma at r = 1, the gamma lower bound near
    # r = 1) holds up to the rounding of the end to a double
    assert below <= eps * (1.0 + 1e-12), (lower, float(below / eps))
    assert above <= eps * (1.0 + 1e-12), (upper, float(above / eps))


@pytest.mark.parametrize("law,theta,exact", [
    *(("gamma", {"r": r, "rho": 2.0}, stats.gamma(r, scale=0.5))
      for r in (0.5, 1.0, 2.0, 10.0, 50.0)),
    *(("half-student", {"nu": nu}, stats.t(nu)) for nu in (2.0, 3.0, 5.0)),
    ("halfnormal", {"sigma": 1.5}, stats.halfnorm(scale=1.5)),
    ("lognormal", {"mu": 0.5, "sigma": 0.7}, stats.lognorm(0.7, scale=math.exp(0.5))),
])
def test_solved_ends_lie_just_past_the_exact_quantiles(law, theta, exact):
    # the bounds are tight where the catalogue scans: each upper end lies at
    # most 1% past the exact (1 - 1e-9)-quantile, which scipy gives here
    lower, upper = LAWS[law].span(theta, 1e-9)
    if law == "half-student":  # |T|: the folded law's quantiles
        q_lo, q_hi = exact.ppf(0.5 + 0.5e-9), exact.isf(0.5e-9)
    else:
        q_lo, q_hi = exact.ppf(1e-9), exact.isf(1e-9)
    assert lower <= q_lo * (1.0 + 1e-9)
    assert q_hi <= upper <= 1.01 * q_hi


@pytest.mark.parametrize("spec,nus", [
    ("gamma-in-shape", [0.5, 50.0]), ("gamma-in-rate", [0.8, 1.6]),
    ("half-student-in-df", [2.0, 30.0]), ("halfnormal-in-scale", [1e-3, 1e3]),
    ("lognormal-in-mu:sigma=2", [-1.0, 1.0]),
])
def test_a_default_grid_certifies_its_truncated_mass(spec, nus):
    # each scanned law leaves at most one target past each padded end
    fam = family_from_spec(spec)
    grid = default_grid(fam, nus)
    assert grid.truncation_tail_mass == 2e-9
    for nu in nus:
        ends = fam.span(nu, 1e-9)
        assert grid.lower <= ends[0] and ends[1] <= grid.upper
