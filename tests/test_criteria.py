"""Order-criterion checks: derivative identities, scans, sufficient tests.

The derivative identities are validated against central finite differences of
independently computed log densities, log survivals, and log hazards.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stochorder import cli, criteria
from stochorder.catalog import (
    continuous_grid,
    default_grid,
    density,
    discrete_grid,
    family_from_spec,
    make_family,
    mixed_grid,
)
from stochorder.criteria import (
    EPS_TAIL,
    NU_POINTS,
    TOL_SHAPE,
    check_concave_endpoint,
    check_hr,
    check_lc,
    check_lr,
    check_st,
    check_superlevel,
    check_unimodal_endpoint,
    nu_scan,
    order_probe,
    scan_kernel,
    scan_orders,
    tail_mean_profile,
    weighted_log_derivative,
)

FD_STEP = 1e-5
FD_TOL = 1e-5


# ---------------------------------------------------------------------------
# parameter scan grid


def test_nu_scan_linear_for_narrow_ranges():
    nus = nu_scan(1.0, 2.0)
    assert nus.size == NU_POINTS
    assert nus[0] == 1.0 and nus[-1] == 2.0
    assert np.allclose(np.diff(nus), np.diff(nus)[0])


def test_nu_scan_geometric_for_wide_positive_ranges():
    nus = nu_scan(0.1, 10.0)
    assert nus[0] == pytest.approx(0.1) and nus[-1] == pytest.approx(10.0)
    ratios = nus[1:] / nus[:-1]
    assert np.allclose(ratios, ratios[0])


def test_nu_scan_sorts_inverted_endpoints():
    assert np.array_equal(nu_scan(2.0, 1.0), nu_scan(1.0, 2.0))
    with pytest.raises(ValueError):
        nu_scan(1.0, 1.0)


# ---------------------------------------------------------------------------
# the three derivative identities, against finite differences

FD_CASES = [
    ("poisson", 2.0),
    ("gamma-in-shape", 2.5),
    ("negbinomial-in-shape", 3.0),
    ("halfnormal-in-scale", 1.5),
]


@pytest.mark.parametrize("spec,nu", FD_CASES)
def test_score_matches_log_density_derivative(spec, nu):
    fam = family_from_spec(spec)
    grid = default_grid(fam, [nu - 0.1, nu + 0.1])
    prof = tail_mean_profile(fam, nu, grid)
    lo = density(fam, nu - FD_STEP, grid)
    hi = density(fam, nu + FD_STEP, grid)
    keep = (lo.masses > 1e-290) & (hi.masses > 1e-290)
    fd = np.full(grid.points.size, np.nan)
    fd[keep] = (np.log(hi.masses[keep]) - np.log(lo.masses[keep])) / (2 * FD_STEP)
    on_profile = np.isin(grid.points, prof.x)
    score = np.full(grid.points.size, np.nan)
    score[on_profile] = prof.score()
    both = keep & on_profile
    assert np.allclose(score[both], fd[both], atol=FD_TOL, rtol=1e-6)


@pytest.mark.parametrize("spec,nu", FD_CASES)
def test_tail_mean_gap_matches_log_survival_derivative(spec, nu):
    fam = family_from_spec(spec)
    grid = default_grid(fam, [nu - 0.1, nu + 0.1])
    prof = tail_mean_profile(fam, nu, grid)
    s_lo = density(fam, nu - FD_STEP, grid).survival_all()
    s_hi = density(fam, nu + FD_STEP, grid).survival_all()
    on_profile = np.isin(grid.points, prof.x)
    keep = on_profile & (s_lo > 1e-9) & (s_hi > 1e-9)
    fd = (np.log(s_hi[keep]) - np.log(s_lo[keep])) / (2 * FD_STEP)
    deriv = np.full(grid.points.size, np.nan)
    deriv[on_profile] = prof.dlog_survival()
    assert np.allclose(deriv[keep], fd, atol=FD_TOL, rtol=1e-6)


@pytest.mark.parametrize("spec,nu", FD_CASES)
def test_hazard_gap_matches_log_hazard_derivative(spec, nu):
    fam = family_from_spec(spec)
    grid = default_grid(fam, [nu - 0.1, nu + 0.1])
    prof = tail_mean_profile(fam, nu, grid)
    d_lo = density(fam, nu - FD_STEP, grid)
    d_hi = density(fam, nu + FD_STEP, grid)
    h_lo, h_hi = d_lo.hazard_all(), d_hi.hazard_all()
    on_profile = np.isin(grid.points, prof.x)
    keep = (
        on_profile
        & (d_lo.survival_all() > 1e-9)
        & (d_lo.masses > 1e-290)
        & (d_hi.masses > 1e-290)
    )
    fd = (np.log(h_hi[keep]) - np.log(h_lo[keep])) / (2 * FD_STEP)
    deriv = np.full(grid.points.size, np.nan)
    deriv[on_profile] = prof.dlog_hazard()
    assert np.allclose(deriv[keep], fd, atol=FD_TOL, rtol=1e-6)


def test_profile_tail_mean_boundary_values():
    fam = make_family("poisson")
    grid = default_grid(fam, [2.0])
    prof = tail_mean_profile(fam, 2.0, grid)
    # at the left edge the conditional mean is the grand mean
    assert prof.tail_means[0] == pytest.approx(prof.grand_mean, abs=1e-12)
    # at the right edge it collapses to the kernel value there
    assert prof.tail_means[-1] == pytest.approx(prof.kernel_values[-1], rel=1e-9)


def test_weighted_log_derivative_constant_weight_is_zero():
    fam = make_family("poisson")
    grid = default_grid(fam, [2.0])
    assert weighted_log_derivative(fam, 2.0, np.ones(grid.size), grid) == pytest.approx(
        0.0, abs=1e-12
    )


def test_weighted_log_derivative_tail_indicator_recovers_survival_derivative():
    fam = make_family("poisson")
    grid = default_grid(fam, [2.0])
    prof = tail_mean_profile(fam, 2.0, grid)
    cut = 4
    u = (grid.points >= grid.points[cut]).astype(float)
    got = weighted_log_derivative(fam, 2.0, u, grid)
    assert got == pytest.approx(prof.dlog_survival()[cut], rel=1e-10)


def test_weighted_log_derivative_rejects_bad_weights():
    fam = make_family("poisson")
    grid = default_grid(fam, [2.0])
    with pytest.raises(ValueError):
        weighted_log_derivative(fam, 2.0, np.ones(3), grid)
    with pytest.raises(ValueError):
        weighted_log_derivative(fam, 2.0, -np.ones(grid.size), grid)
    with pytest.raises(ValueError):
        weighted_log_derivative(fam, 2.0, np.zeros(grid.size), grid)


# ---------------------------------------------------------------------------
# iff criteria on families with known behavior


def test_poisson_lr_holds_up_and_fails_down():
    fam = make_family("poisson")
    nus = nu_scan(1.0, 2.0)
    grid = default_grid(fam, nus)
    up = check_lr(fam, nus, grid)
    assert up.holds and up.direction == "up" and up.witness is None
    down = check_lr(fam, nus, grid, direction="down")
    assert down.status == "fails"
    assert down.witness is not None and down.witness.nu is not None


def test_affine_kernel_is_log_concave_both_ways():
    fam = make_family("geometric")
    nus = nu_scan(0.3, 0.6)
    grid = default_grid(fam, nus)
    assert check_lc(fam, nus, grid, direction="down").holds
    assert check_lc(fam, nus, grid, direction="up").holds


def test_gamma_rate_family_decreases_in_every_order():
    fam = family_from_spec("gamma-in-rate:r=2")
    nus = nu_scan(1.0, 2.0)
    grid = default_grid(fam, nus)
    for chk in (check_lr, check_st, check_hr):
        v = chk(fam, nus, grid, direction="down")
        assert v.holds, chk.__name__
        v = chk(fam, nus, grid, direction="up")
        assert v.status == "fails", chk.__name__


MONOTONE_UP = ["poisson", "binomial-in-p", "gamma-in-shape", "lognormal-in-mu"]


@pytest.mark.parametrize("name", MONOTONE_UP)
def test_ratio_order_implies_hazard_and_usual(name):
    fam = make_family(name)
    lo, hi = fam.param_interval
    nus = nu_scan(0.2, 0.5) if hi <= 1.0 else nu_scan(max(lo, 0.0) + 1.0, max(lo, 0.0) + 2.0)
    grid = default_grid(fam, nus)
    assert check_lr(fam, nus, grid).holds
    assert check_hr(fam, nus, grid).holds
    assert check_st(fam, nus, grid).holds


def test_zero_inflated_poisson_blocks_ratio_but_not_tails():
    fam = family_from_spec("zero-inflated-poisson:pi=0.5")
    nus = nu_scan(3.0, 5.0)
    grid = default_grid(fam, nus)
    lr_up = check_lr(fam, nus, grid)
    lr_down = check_lr(fam, nus, grid, direction="down")
    assert lr_up.status == "fails" and lr_down.status == "fails"
    # the fixed atom is the obstruction, so the witness sits at the origin
    assert lr_up.witness.x <= 1.0
    assert check_st(fam, nus, grid).holds
    assert check_hr(fam, nus, grid).holds


def test_criterion_scan_needs_at_least_three_support_points():
    fam = make_family("poisson")
    from stochorder.catalog import discrete_grid

    with pytest.raises(ValueError):
        check_lr(fam, [1.0, 2.0], discrete_grid(0, 1))


def test_criterion_rejects_parameters_outside_domain():
    fam = make_family("geometric")
    grid = default_grid(fam, [0.5])
    with pytest.raises(ValueError):
        check_lr(fam, [0.5, 1.5], grid)


# ---------------------------------------------------------------------------
# sufficient-only checks


def test_superlevel_certifies_exponential_decrease():
    fam = make_family("exponential-in-rate")
    nus = nu_scan(1.0, 2.0)
    grid = default_grid(fam, nus)
    st_only = check_superlevel(fam, nus, grid)
    assert st_only.holds and st_only.direction == "down" and st_only.order == "st"
    with_hr = check_superlevel(fam, nus, grid, want_hr=True)
    assert with_hr.holds and with_hr.order == "hr"
    assert "st" in with_hr.note


def test_superlevel_inconclusive_when_not_initial_interval():
    # rising scores at large k: the superlevel set is a final interval instead
    fam = make_family("poisson")
    nus = nu_scan(1.0, 2.0)
    grid = default_grid(fam, nus)
    v = check_superlevel(fam, nus, grid)
    assert v.status == "inconclusive"
    assert v.witness is not None


def test_unimodal_endpoint_certifies_half_student_decrease():
    fam = make_family("half-student-in-df")
    nus = nu_scan(2.0, 5.0)
    grid = continuous_grid(0.0, 40.0, step=1e-3)
    # the kernel rises on [0, 1) and falls beyond, so plain monotonicity fails
    assert check_lr(fam, nus, grid).status == "fails"
    assert check_lr(fam, nus, grid, direction="down").status == "fails"
    v = check_unimodal_endpoint(fam, nus, grid, mode_c=1.0)
    assert v.holds and v.direction == "down"
    assert "st" in v.note


def test_unimodal_endpoint_inconclusive_for_wrong_mode():
    fam = make_family("half-student-in-df")
    nus = nu_scan(2.0, 5.0)
    grid = continuous_grid(0.0, 40.0, step=1e-3)
    v = check_unimodal_endpoint(fam, nus, grid, mode_c=5.0)
    assert v.status == "inconclusive"


def test_concave_endpoint_certifies_zero_inflated_exponential():
    fam = family_from_spec("zero-inflated-exponential:pi=0.4")
    nus = nu_scan(1.0, 2.0)
    # the window must hold essentially all the mass: truncating the far tail
    # biases the grand mean and with it the endpoint score
    grid = mixed_grid(30.0, step=1e-3)
    v = check_concave_endpoint(fam, nus, grid)
    assert v.holds and v.direction == "down"
    assert check_st(fam, nus, grid, direction="down").holds
    assert check_hr(fam, nus, grid, direction="down").holds


def test_concave_endpoint_inconclusive_for_convex_kernel():
    fam = make_family("poisson")  # affine kernel, but endpoint score is negative
    nus = nu_scan(1.0, 2.0)
    grid = default_grid(fam, nus)
    v = check_concave_endpoint(fam, nus, grid)
    assert v.status == "inconclusive"


ENDPOINT_CHECKS = [
    lambda fam, nus, grid: check_superlevel(fam, nus, grid),
    lambda fam, nus, grid: check_unimodal_endpoint(fam, nus, grid, mode_c=0.0),
    lambda fam, nus, grid: check_concave_endpoint(fam, nus, grid),
]


@pytest.mark.parametrize("check", ENDPOINT_CHECKS)
def test_endpoint_checks_need_a_bounded_left_end(check):
    fam = make_family("gumbel-in-location")
    nus = nu_scan(0.0, 1.0)
    grid = default_grid(fam, nus)
    with pytest.raises(ValueError):
        check(fam, nus, grid)


# ---------------------------------------------------------------------------
# the one scan behind every criterion

VIEWS = {"lr": check_lr, "lc": check_lc, "st": check_st, "hr": check_hr}
ALL_TESTS = [(o, d) for o in ("lr", "lc", "st", "hr") for d in ("up", "down")]


@pytest.mark.parametrize("spec,nus", [(row[0], row[1]) for row in cli._TABLE1])
def test_multi_order_scan_matches_the_per_order_views(spec, nus):
    fam = family_from_spec(spec)
    scan = nu_scan(*nus)
    grid = default_grid(fam, scan)
    together = scan_orders(fam, scan, grid, ALL_TESTS)
    alone = [VIEWS[o](fam, scan, grid, direction=d) for o, d in ALL_TESTS]
    assert [v.to_dict() for v in together] == [v.to_dict() for v in alone]


def test_check_evaluates_the_density_once_per_scanned_nu(monkeypatch):
    calls = []

    def counted(f, nu, grid):
        calls.append(float(nu))
        return density(f, nu, grid)

    monkeypatch.setattr(criteria, "density", counted)
    monkeypatch.setattr(cli, "density", counted)
    # st and hr hold upwards for the Poisson family, so a tail test stays
    # open over the whole scan
    code = cli.main(["check", "--family", "poisson", "--nu1=1", "--nu2=3", "--no-timing"])
    assert code == 0
    # the endpoint laws of the oracle are the scan's first and last laws too
    assert calls[:2] == [1.0, 3.0]
    assert sorted(calls) == nu_scan(1.0, 3.0).tolist()


def test_lr_only_scan_never_evaluates_the_density(monkeypatch):
    def refuse(f, nu, grid):
        raise AssertionError("the density is not needed for lr or lc")

    monkeypatch.setattr(criteria, "density", refuse)
    fam = make_family("poisson")
    nus = nu_scan(1.0, 2.0)
    verdicts = scan_orders(fam, nus, default_grid(fam, nus), [("lr", "up"), ("lc", "down")])
    assert [v.status for v in verdicts] == ["holds", "holds"]


# ---------------------------------------------------------------------------
# the scan against the formulas it replaced: signed copies of the margins,
# boolean `surv > eps` masks and np.where division


def _ref_slopes(grid, v):
    dv = np.diff(v)
    return dv if grid.kind == "discrete" else dv / np.diff(grid.points)


def _ref_tail_means(k, masses):
    surv = np.cumsum(masses[::-1])[::-1]
    tail_num = np.cumsum((k * masses)[::-1])[::-1]
    return surv, tail_num / np.where(surv > 0.0, surv, 1.0), float(np.dot(k, masses))


def _ref_scan(grid, nus, kernels, laws, probe):
    """The first witness (x, nu, kind, margin) of one probe, or None, and its
    margin or the worst margin tested."""
    worst = math.inf
    for nu in nus:
        k = kernels[nu]
        tails = functools.cache(lambda k=k, nu=nu: _ref_tail_means(k, laws[nu]))
        for xs, margins, tol, kind in probe(grid, k, _ref_slopes(grid, k), tails):
            bad = np.flatnonzero(margins < -tol)
            if bad.size:
                j = bad[0]
                return (float(xs[j]), nu, kind, float(margins[j])), float(margins[j])
            if margins.size:
                worst = min(worst, float(margins.min()))
    return None, None if math.isinf(worst) else worst


def _ref_order(order, direction, tol, eps):
    sign = 1.0 if direction == "up" else -1.0

    def probe(grid, k, slopes, tails):
        pts = grid.points
        if order == "lr":
            yield pts[:-1], sign * slopes, tol, "adjacent-pair"
        elif order == "lc":
            yield pts[1:-1], sign * np.diff(slopes), tol, "triplet"
        else:
            surv, tail, grand = tails()
            keep = surv > max(eps, 0.0)
            gap = tail - grand if order == "st" else -(k - tail)
            yield pts[keep], sign * gap[keep], tol, "grid-point"

    return probe


def _ref_superlevel(want_hr, tol):
    def probe(grid, k, slopes, tails):
        s, pts = k - tails()[2], grid.points
        yield pts[:1], s[:1], tol, "endpoint-score"
        neg = np.flatnonzero(s < -tol)
        if neg.size:
            back = neg[0] + np.flatnonzero(s[neg[0]:] > tol)[:1]
            yield pts[back], -s[back], tol, "superlevel-return"
        if want_hr:
            nonneg = np.flatnonzero(s >= -tol)
            m = int(nonneg[-1]) if nonneg.size else 0
            yield pts[m:-1], -_ref_slopes(grid, s)[m:], tol, "tail-monotone"

    return probe


def _ref_unimodal(c, tol):
    def probe(grid, k, slopes, tails):
        pts = grid.points
        left, right = np.flatnonzero(pts[1:] <= c), np.flatnonzero(pts[:-1] >= c)
        yield pts[left], slopes[left], tol, "rising"
        yield pts[right], -slopes[right], tol, "falling"
        yield pts[:1], k[:1] - tails()[2], tol, "endpoint-score"

    return probe


def _ref_concave(tol):
    def probe(grid, k, slopes, tails):
        yield grid.points[1:-1], -np.diff(slopes), tol, "triplet"
        yield grid.points[:1], k[:1] - tails()[2], tol, "endpoint-score"

    return probe


def _bits(witness, margin):
    """A scan result with every float as its bit pattern."""

    def b(x):
        return None if x is None else np.float64(x).tobytes()

    if witness is not None and not isinstance(witness, tuple):
        witness = (witness.x, witness.nu, witness.kind, witness.margin)
    return (None if witness is None else (b(witness[0]), witness[1], witness[2], b(witness[3])),
            b(margin))


class _TableFamily:
    """A stand-in family whose kernel and masses at each nu are given arrays."""

    name, param_name = "table", "nu"

    def __init__(self, grid, kernels, masses):
        self.support = (float(grid.points[0]), math.inf)
        self.kernels = kernels
        with np.errstate(divide="ignore"):
            self.logs = {nu: np.log(m) for nu, m in masses.items()}

    def validate_param(self, nu):
        return float(nu)

    def kernel(self, nu, x):
        return self.kernels[nu]

    def log_factor(self, nu, x):
        return self.logs[nu]

    def log_normalizer(self, nu):
        return 0.0


@st.composite
def scan_cases(draw):
    """A discrete, continuous or mixed grid, one to four nus, and per nu a
    kernel and nonnegative masses. Kernel values include multiples of the
    tolerance, so margins land on exactly -tol, 0 and +tol, and the odd NaN;
    masses include exact zeros and subnormals."""
    kind = draw(st.sampled_from(["discrete", "continuous", "mixed"]))
    n = draw(st.integers(3, 24))
    step = draw(st.sampled_from([0.5, 0.1, 1.0 / 3.0]))
    if kind == "discrete":
        lo = draw(st.integers(0, 3))
        grid = discrete_grid(lo, lo + n - 1)
    elif kind == "continuous":
        grid = continuous_grid(0.0, n * step, n=n)
    else:
        grid = mixed_grid((n - 1) * step, n=n - 1)
    tol = draw(st.sampled_from([TOL_SHAPE, 0.25, 0.0]))
    value = st.one_of(
        st.integers(-3, 3).map(lambda i: i * tol),
        st.integers(-16, 16).map(lambda i: i / 8),
        st.just(-0.0),
        st.floats(-4.0, 4.0),
    )
    mass = st.one_of(st.sampled_from([0.0, 5e-324, 1e-310, 0.125, 0.5]), st.floats(0.0, 1.0))
    nus = [float(i) for i in range(1, draw(st.integers(1, 4)) + 1)]
    kernels, laws = {}, {}
    for nu in nus:
        k = np.array(draw(st.lists(value, min_size=n, max_size=n)))
        if draw(st.integers(0, 9)) == 0:
            k[draw(st.integers(0, n - 1))] = math.nan
        kernels[nu] = k
        laws[nu] = np.array(draw(st.lists(mass, min_size=n, max_size=n)))
    return grid, nus, kernels, laws, tol


@settings(max_examples=250, deadline=None)
@given(case=scan_cases(), eps=st.sampled_from([EPS_TAIL, 0.0, 0.125, -1.0]))
def test_scan_equals_the_signed_copy_formulas(case, eps):
    grid, nus, kernels, laws, tol = case
    # all eight tests in one scan, as `check` runs them, sharing each row
    got = scan_kernel(kernels.__getitem__, nus, grid,
                      [order_probe(o, d, tol, tol, eps) for o, d in ALL_TESTS],
                      law=laws.__getitem__)
    for (o, d), result in zip(ALL_TESTS, got):
        want = _ref_scan(grid, nus, kernels, laws, _ref_order(o, d, tol, eps))
        assert _bits(*result) == _bits(*want), (o, d)


@settings(max_examples=150, deadline=None)
@given(case=scan_cases(), want_hr=st.booleans(), c_at=st.floats(-0.5, 1.5))
def test_sufficient_checks_equal_the_signed_copy_formulas(case, want_hr, c_at):
    grid, nus, kernels, masses, tol = case
    assume(all(m.max() > 1e-300 for m in masses.values()))
    fam = _TableFamily(grid, kernels, masses)
    laws = {nu: density(fam, nu, grid).masses for nu in nus}
    c = grid.points[0] + c_at * (grid.points[-1] - grid.points[0])
    for verdict, ref in [
        (check_superlevel(fam, nus, grid, want_hr, tol, tol), _ref_superlevel(want_hr, tol)),
        (check_unimodal_endpoint(fam, nus, grid, c, tol, tol), _ref_unimodal(c, tol)),
        (check_concave_endpoint(fam, nus, grid, tol, tol), _ref_concave(tol)),
    ]:
        want = _ref_scan(grid, nus, kernels, laws, ref)
        assert _bits(verdict.witness, verdict.margin) == _bits(*want), verdict.method
    prof = tail_mean_profile(fam, nus[0], grid)
    surv, tail, grand = _ref_tail_means(kernels[nus[0]], laws[nus[0]])
    ok = surv > 0.0
    for a, b in [(prof.x, grid.points[ok]), (prof.kernel_values, kernels[nus[0]][ok]),
                 (prof.tail_means, tail[ok]), (prof.survival, surv[ok])]:
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert _bits(None, prof.grand_mean) == _bits(None, grand)


@settings(max_examples=300, deadline=None)
@given(
    masses=st.lists(st.one_of(st.sampled_from([0.0, 5e-324, 2.5e-323, 1e-310]),
                              st.floats(0.0, 1.0), st.floats(0.0, 1e300)), max_size=40),
    eps=st.sampled_from([0.0, EPS_TAIL, 1e-320, 0.5]),
)
def test_survival_above_eps_is_a_prefix(masses, eps):
    surv = np.cumsum(np.array(masses, dtype=float)[::-1])[::-1]
    n = criteria._prefix_length(surv, eps)
    assert (surv > eps).tolist() == [True] * n + [False] * (surv.size - n)
