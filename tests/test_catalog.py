"""Catalogue checks: grids, spec parsing, and density cross-checks.

Discrete pmfs and continuous cell masses are compared against scipy.stats,
which shares no code with the weight-function catalogue.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from stochorder.catalog import (
    FAMILY_NAMES,
    continuous_grid,
    default_grid,
    density,
    discrete_grid,
    family_from_spec,
    make_family,
    mixed_grid,
    parse_spec,
    survival,
)
from stochorder.criteria import nu_scan

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
    grid = mixed_grid(10.0, step=1e-3)
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


def test_default_grid_discrete_tail_budget():
    fam = make_family("poisson")
    nus = nu_scan(1.0, 4.0)
    grid = default_grid(fam, nus)
    for nu in nus:
        assert stats.poisson(nu).sf(grid.points[-1]) <= 1e-11


def test_survival_is_inclusive_and_monotone():
    fam = make_family("poisson")
    grid = default_grid(fam, [2.0])
    d = density(fam, 2.0, grid)
    s = d.survival_all()
    # inclusive right tail: P(X >= x_i), so the first entry is the whole mass
    assert s[0] == pytest.approx(1.0)
    assert s[1] == pytest.approx(1.0 - d.masses[0])
    assert np.all(np.diff(s) <= 1e-15)
    assert survival(d, grid.points[3]) == pytest.approx(s[3])


def test_hazard_of_exponential_is_flat_at_the_rate():
    fam = make_family("exponential-in-rate")
    grid = default_grid(fam, [1.0])
    d = density(fam, 1.0, grid)
    h = d.hazard_all()
    finite = np.isfinite(h)
    assert np.all(h[finite] > 0.0)
    mid = slice(10, grid.points.size // 2)
    assert np.allclose(h[mid], 1.0, rtol=1e-2)


def test_density_rejects_zero_mass_grid():
    fam = make_family("poisson")
    grid = discrete_grid(0, 5)
    with pytest.raises(ValueError):
        density(fam, math.nan, grid)


# ---------------------------------------------------------------------------
# the tail-span search of infinite discrete supports

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


def full_range_span(fam, nu, kmax, tail_eps):
    """(first k with tail <= tail_eps, that tail) from one scan over all of
    lo..kmax, or None when no k reaches the target."""
    lo = int(fam.support[0])
    ks = np.arange(lo, kmax + 1, dtype=float)
    tail = 1.0 - np.cumsum(np.exp(fam.log_factor(nu, ks) - fam.log_normalizer(nu)))
    idx = np.nonzero(tail <= tail_eps)[0]
    return None if idx.size == 0 else (lo + int(idx[0]), float(tail[idx[0]]))


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
    assert default_grid(fam, nus, tail_eps=tail_eps, kmax=need).upper == need
    with pytest.raises(ValueError, match=f"unreachable within k_max={need - 1}$"):
        default_grid(fam, nus, tail_eps=tail_eps, kmax=need - 1)


def counted_log_factor(fam):
    """fam with its log_factor counting the points it is evaluated at."""
    points = []

    def log_factor(nu, ks):
        points.append(ks.size)
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
