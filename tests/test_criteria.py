"""Order-criterion checks: derivative identities, scans, sufficient tests.

The derivative identities are validated against central finite differences of
independently computed log densities, log survivals, and log hazards.
"""

import numpy as np
import pytest

from stochorder import cli, criteria
from stochorder.catalog import (
    continuous_grid,
    default_grid,
    density,
    family_from_spec,
    make_family,
    mixed_grid,
)
from stochorder.criteria import (
    NU_POINTS,
    check_concave_endpoint,
    check_hr,
    check_lc,
    check_lr,
    check_st,
    check_superlevel,
    check_unimodal_endpoint,
    nu_scan,
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
