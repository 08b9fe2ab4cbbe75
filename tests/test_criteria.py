"""Order-criterion checks: derivative identities, scans, and the exact tail
criterion where a sufficient condition is met or none applies.

The derivative identities are validated against central finite differences of
independently computed log densities, log survivals, and log hazards.
"""

import contextlib
import dataclasses
import functools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stochorder import catalog, cli, criteria
from stochorder.catalog import (
    _FAMILIES,
    LAWS,
    Factored,
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
    TOL_TAIL,
    nu_scan,
    scan_kernel,
    scan_orders,
)
from stochorder.pairwise import check_path_order, path_family
from stochorder.verdicts import ORDERS

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


def _tail_pass(fam, nu, grid):
    """K_nu on the grid's positive-survival prefix, E[K | X >= x] there and
    E[K], from the backward pass the scan reads (`criteria._tail_means`)."""
    k = np.asarray(fam.kernel(nu, grid.points), dtype=float)
    _, tail, grand = criteria._tail_means(k, density(fam, nu, grid).masses)
    return k[: tail.size], tail, grand


@pytest.mark.parametrize("spec,nu", FD_CASES)
def test_score_matches_log_density_derivative(spec, nu):
    # d/dnu log f_nu(x) = K_nu(x) - E[K_nu]
    fam = family_from_spec(spec)
    grid = default_grid(fam, [nu - 0.1, nu + 0.1])
    k, _, grand = _tail_pass(fam, nu, grid)
    lo, hi = (density(fam, v, grid).masses[: k.size] for v in (nu - FD_STEP, nu + FD_STEP))
    keep = (lo > 1e-290) & (hi > 1e-290)
    fd = (np.log(hi[keep]) - np.log(lo[keep])) / (2 * FD_STEP)
    assert np.allclose((k - grand)[keep], fd, atol=FD_TOL, rtol=1e-6)


@pytest.mark.parametrize("spec,nu", FD_CASES)
def test_tail_mean_gap_matches_log_survival_derivative(spec, nu):
    # d/dnu log P(X >= x) = E[K_nu | X >= x] - E[K_nu]
    fam = family_from_spec(spec)
    grid = default_grid(fam, [nu - 0.1, nu + 0.1])
    _, tail, grand = _tail_pass(fam, nu, grid)
    lo, hi = (density(fam, v, grid).masses for v in (nu - FD_STEP, nu + FD_STEP))
    s_lo, s_hi = (np.cumsum(m[::-1])[::-1][: tail.size] for m in (lo, hi))
    keep = (s_lo > 1e-9) & (s_hi > 1e-9)
    fd = (np.log(s_hi[keep]) - np.log(s_lo[keep])) / (2 * FD_STEP)
    assert np.allclose((tail - grand)[keep], fd, atol=FD_TOL, rtol=1e-6)


@pytest.mark.parametrize("spec,nu", FD_CASES)
def test_hazard_gap_matches_log_hazard_derivative(spec, nu):
    # d/dnu log hazard(x) = K_nu(x) - E[K_nu | X >= x]; the hazard is the mass
    # over P(X >= x) and the point weight, which cancels in the difference
    fam = family_from_spec(spec)
    grid = default_grid(fam, [nu - 0.1, nu + 0.1])
    k, tail, _ = _tail_pass(fam, nu, grid)
    lo, hi = (density(fam, v, grid).masses for v in (nu - FD_STEP, nu + FD_STEP))
    s_lo, s_hi = (np.cumsum(m[::-1])[::-1][: k.size] for m in (lo, hi))
    lo, hi = lo[: k.size], hi[: k.size]
    keep = (s_lo > 1e-9) & (lo > 1e-290) & (hi > 1e-290)
    fd = (np.log(hi[keep] / s_hi[keep]) - np.log(lo[keep] / s_lo[keep])) / (2 * FD_STEP)
    assert np.allclose((k - tail)[keep], fd, atol=FD_TOL, rtol=1e-6)


def test_profile_tail_mean_boundary_values():
    fam = make_family("poisson")
    grid = default_grid(fam, [2.0])
    k, tail, grand = _tail_pass(fam, 2.0, grid)
    # at the left edge the conditional mean is the grand mean
    assert tail[0] == pytest.approx(grand, abs=1e-12)
    # at the right edge it collapses to the kernel value there
    assert tail[-1] == pytest.approx(k[-1], rel=1e-9)


def test_weighted_log_derivative_tail_indicator_recovers_survival_derivative():
    # d/dnu log E[u(X)] = E^u[K] - E[K] under the u-tilted law E^u; the weight
    # u = 1[X >= x] makes it d/dnu log P(X >= x), the tail gap
    fam = make_family("poisson")
    grid = default_grid(fam, [2.0])
    _, tail, grand = _tail_pass(fam, 2.0, grid)
    masses = density(fam, 2.0, grid).masses
    k = np.asarray(fam.kernel(2.0, grid.points), dtype=float)
    cut = 4
    wm = (grid.points >= grid.points[cut]) * masses
    got = float(np.dot(k, wm) / wm.sum() - np.dot(k, masses))
    assert got == pytest.approx(tail[cut] - grand, rel=1e-10)


# ---------------------------------------------------------------------------
# iff criteria on families with known behavior


def test_poisson_lr_holds_up_and_fails_down():
    fam = make_family("poisson")
    nus = nu_scan(1.0, 2.0)
    grid = default_grid(fam, nus)
    up, down = scan_orders(fam, nus, grid, [("lr", "up"), ("lr", "down")])
    assert up.holds and up.direction == "up" and up.witness is None
    assert down.status == "fails"
    assert down.witness is not None and down.witness.nu is not None


def test_affine_kernel_is_log_concave_both_ways():
    fam = make_family("geometric")
    nus = nu_scan(0.3, 0.6)
    grid = default_grid(fam, nus)
    down, up = scan_orders(fam, nus, grid, [("lc", "down"), ("lc", "up")])
    assert down.holds and up.holds


def test_gamma_rate_family_decreases_in_every_order():
    fam = family_from_spec("gamma-in-rate:r=2")
    nus = nu_scan(1.0, 2.0)
    grid = default_grid(fam, nus)
    for order in ("lr", "st", "hr"):
        down, up = scan_orders(fam, nus, grid, [(order, "down"), (order, "up")])
        assert down.holds, order
        assert up.status == "fails", order


MONOTONE_UP = ["poisson", "binomial-in-p", "gamma-in-shape", "lognormal-in-mu"]


@pytest.mark.parametrize("name", MONOTONE_UP)
def test_ratio_order_implies_hazard_and_usual(name):
    fam = make_family(name)
    lo, hi = fam.param_interval
    nus = nu_scan(0.2, 0.5) if hi <= 1.0 else nu_scan(max(lo, 0.0) + 1.0, max(lo, 0.0) + 2.0)
    grid = default_grid(fam, nus)
    lr, hr, st = scan_orders(fam, nus, grid, [("lr", "up"), ("hr", "up"), ("st", "up")])
    assert lr.holds and hr.holds and st.holds


def test_zero_inflated_poisson_blocks_ratio_but_not_tails():
    fam = family_from_spec("zero-inflated-poisson:pi=0.5")
    nus = nu_scan(3.0, 5.0)
    grid = default_grid(fam, nus)
    lr_up, lr_down, st, hr = scan_orders(
        fam, nus, grid, [("lr", "up"), ("lr", "down"), ("st", "up"), ("hr", "up")]
    )
    assert lr_up.status == "fails" and lr_down.status == "fails"
    # the fixed atom is the obstruction, so the witness sits at the origin
    assert lr_up.witness.x <= 1.0
    assert st.holds
    assert hr.holds


def test_check_decides_a_two_point_support_as_pairwise_does(capsys):
    # with no triplet on two points, lc holds with no margin, as in pairwise;
    # check refused such a grid while pairwise decided the same two laws
    code = cli.main(["check", "--family", "binomial-in-p:n=1", "--nu1", "0.3", "--nu2", "0.5",
                     "--no-timing"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    got = {(v["order"], v["direction"], v["method"]): v["status"]
           for v in json.loads(out)["verdicts"]}
    for direction, (p, q) in (("up", ("0.3", "0.5")), ("down", ("0.5", "0.3"))):
        cli.main(["pairwise", "--p", f"binomial:n=1,p={p}", "--q", f"binomial:n=1,p={q}",
                  "--no-timing"])
        for v in json.loads(capsys.readouterr()[0])["verdicts"]:
            for method in ("kernel-criterion", "oracle"):
                assert got[(v["order"], direction, method)] == v["status"], (v, method)


def test_criterion_rejects_parameters_outside_domain():
    fam = make_family("geometric")
    grid = default_grid(fam, [0.5])
    with pytest.raises(ValueError):
        scan_orders(fam, [0.5, 1.5], grid, [("lr", "up")])


# ---------------------------------------------------------------------------
# the exact tail criterion where a sufficient condition is met, or none applies


def test_superlevel_certifies_exponential_decrease():
    fam = make_family("exponential-in-rate")
    nus = nu_scan(1.0, 2.0)
    grid = default_grid(fam, nus)
    # a nonincreasing score, nonnegative at the left endpoint, has an initial
    # interval as its superlevel set: the sufficient condition for st and hr down
    for nu in nus:
        k, _, grand = _tail_pass(fam, nu, grid)
        s = k - grand
        assert s[0] >= -TOL_TAIL and np.all(np.diff(s) <= TOL_SHAPE)
    st_down, hr_down, st_up, hr_up = scan_orders(
        fam, nus, grid, [("st", "down"), ("hr", "down"), ("st", "up"), ("hr", "up")])
    assert st_down.holds and hr_down.holds
    assert st_up.status == "fails" and hr_up.status == "fails"


def test_exact_criterion_decides_st_where_no_certificate_applies():
    # the poisson score rises in k: it is negative at the left endpoint and its
    # superlevel set is a final interval, so no sufficient condition for the
    # decreasing direction applies, while the tail criterion decides both ways
    fam = make_family("poisson")
    nus = nu_scan(1.0, 2.0)
    grid = default_grid(fam, nus)
    for nu in nus:
        k, _, grand = _tail_pass(fam, nu, grid)
        s = k - grand
        assert s[0] < -TOL_TAIL and s[-1] > TOL_TAIL
    up, down = scan_orders(fam, nus, grid, [("st", "up"), ("st", "down")])
    assert up.holds
    assert down.status == "fails" and down.witness is not None


def test_unimodal_endpoint_certifies_half_student_decrease():
    fam = make_family("half-student-in-df")
    nus = nu_scan(2.0, 5.0)
    grid = continuous_grid(0.0, 40.0, n=40000)
    # the kernel rises on [0, 1) and falls beyond, so plain monotonicity fails
    up, down = scan_orders(fam, nus, grid, [("lr", "up"), ("lr", "down")])
    assert up.status == "fails"
    assert down.status == "fails"
    # a kernel rising to the mode 1 and falling after, with a nonnegative score
    # at the left endpoint: the sufficient condition for st and hr down
    pts = grid.points
    for nu in nus:
        slopes = _ref_slopes(grid, np.asarray(fam.kernel(nu, pts), dtype=float))
        assert np.all(slopes[pts[1:] <= 1.0] >= -TOL_SHAPE)
        assert np.all(slopes[pts[:-1] >= 1.0] <= TOL_SHAPE)
        k, _, grand = _tail_pass(fam, nu, grid)
        assert k[0] - grand >= -TOL_TAIL
    st, hr = scan_orders(fam, nus, grid, [("st", "down"), ("hr", "down")])
    assert st.holds and hr.holds


def test_concave_endpoint_certifies_zero_inflated_exponential():
    fam = family_from_spec("zero-inflated-exponential:pi=0.4")
    nus = nu_scan(1.0, 2.0)
    # the window must hold essentially all the mass: truncating the far tail
    # biases the grand mean and with it the endpoint score
    grid = mixed_grid(30.0, n=30000)
    # a concave kernel with a nonnegative score at the left endpoint: the
    # sufficient condition for st and hr down
    for nu in nus:
        k = np.asarray(fam.kernel(nu, grid.points), dtype=float)
        assert np.all(np.diff(_ref_slopes(grid, k)) <= TOL_SHAPE)
        assert k[0] - _tail_pass(fam, nu, grid)[2] >= -TOL_TAIL
    st, hr = scan_orders(fam, nus, grid, [("st", "down"), ("hr", "down")])
    assert st.holds
    assert hr.holds


# ---------------------------------------------------------------------------
# the one scan behind every criterion

ALL_TESTS = [(o, d) for o in ("lr", "lc", "st", "hr") for d in ("up", "down")]


# at their first nu on 20 000 points, st and hr up read the whole grid and
# down only up to a head end of its own: 1 for the zero-inflated
# exponential, whose atom at 0 falls to the body, and past the rise of the
# half-Student kernel near x = 0
LONG_ROWS = [("zero-inflated-exponential", (1.0, 2.0), 20_000),
             ("half-student-in-df", (5.0, 30.0), 20_000)]


@pytest.mark.parametrize("spec,nus,points",
                         [(row[0], row[1], catalog.GRID_POINTS) for row in cli._TABLE1]
                         + LONG_ROWS,
                         ids=[f"{row[0]}-nus{i}" for i, row in enumerate(cli._TABLE1)]
                         + [f"{spec}-{points}" for spec, _, points in LONG_ROWS])
def test_multi_order_scan_matches_the_per_order_views(spec, nus, points):
    fam = family_from_spec(spec)
    scan = nu_scan(*nus)
    grid = default_grid(fam, scan, grid_points=points)
    with _heads_read() as heads:
        together = scan_orders(fam, scan, grid, ALL_TESTS)
    alone = [scan_orders(fam, scan, grid, [test])[0] for test in ALL_TESTS]
    assert [v.to_dict() for v in together] == [v.to_dict() for v in alone]
    if points > catalog.GRID_POINTS:
        assert heads[0] != heads[1] and grid.size - 1 in heads[:2]


def test_check_evaluates_the_density_once_per_scanned_nu(monkeypatch):
    calls = []

    def counted(f, nu, grid):
        calls.append(float(nu))
        return density(f, nu, grid)

    monkeypatch.setattr(criteria, "density", counted)
    monkeypatch.setattr(cli, "density", counted)
    code = cli.main(["check", "--family", "poisson", "--nu1=1", "--nu2=3", "--no-timing"])
    assert code == 0
    # the oracle's endpoint laws; st and hr down fail at the first scanned nu,
    # whose law is the endpoint law at nu1, and st and hr up skip the tail
    # pass at every nu, where K = x/nu - 1 rises
    assert calls == [1.0, 3.0]


def _built_once(spec):
    """How a scan builds a Table-1 row's kernel: "fixed" (one array at every
    nu), "factored" (one array T, and a T + b at each nu) or None (per nu)."""
    factor = family_from_spec(spec).factor
    return None if factor is None else "fixed" if factor[0] is None else "factored"


# the Table-1 rows whose kernel does not depend on nu, and those whose kernel
# is a(nu) T + b(nu), with their scanned ranges
FIXED_ROWS, FACTORED_ROWS = ([(spec, nus) for spec, nus, *_ in cli._TABLE1
                              if _built_once(spec) == how] for how in ("fixed", "factored"))
# factored rows whose T, k or -x, has curvature exactly 0
LINEAR_ROWS = ["poisson", "geometric", "negbinomial-in-q", "binomial-in-p", "logseries",
               "zero-inflated-exponential"]


@st.composite
def random_grids(draw, support, kind):
    """A grid of 3 to 3000 points inside a support."""
    lo, hi = support
    if kind == "discrete":
        return discrete_grid(int(lo), int(min(lo + draw(st.integers(2, 300)), hi)))
    top = hi if math.isfinite(hi) else lo + 40.0
    a = lo + draw(st.floats(0.0, 0.5)) * (top - lo)
    return continuous_grid(a, a + draw(st.floats(0.05, 1.0)) * (top - a),
                           n=draw(st.integers(3, 3000)))


@settings(max_examples=120, deadline=None)
@given(data=st.data(), row=st.sampled_from(FIXED_ROWS + FACTORED_ROWS),
       tol=st.sampled_from([TOL_SHAPE, 0.0, 0.25]))
def test_a_kernel_built_once_scans_as_one_rebuilt_per_nu(data, row, tol):
    spec, (lo, hi) = row
    fam = family_from_spec(spec)
    grid = data.draw(random_grids(fam.support, fam.kind))
    # unsorted, with repeats: the scan reads the nus in the order given
    nus = data.draw(st.lists(st.sampled_from(list(np.linspace(lo, hi, 7))), min_size=1,
                             max_size=9))
    rebuilt = dataclasses.replace(fam, factor=None)
    once, per_nu = (scan_orders(f, nus, grid, ALL_TESTS, tol, tol) for f in (fam, rebuilt))
    if _built_once(spec) == "fixed":
        assert [repr(v) for v in once] == [repr(v) for v in per_nu]
        return
    # a T + b is built for each witness search and tail pass, so a witness
    # and every st or hr verdict is the rebuild's; lr and lc margins that
    # hold are |a| times T's and move in their last bits
    for v, w in zip(once, per_nu):
        if v.order == "lc" and tol == 0.0 and spec in LINEAR_ROWS:
            # T = k or -x has curvature 0 exactly; the rebuild's a T + b
            # has rounding there, which a zero tolerance reads as a failure
            assert v.holds and v.margin == 0.0
            continue
        assert dataclasses.replace(v, margin=None) == dataclasses.replace(w, margin=None)
        if v.margin is None or w.margin is None:
            assert v.margin is w.margin
        else:
            assert abs(v.margin - w.margin) <= 1e-9 * max(1.0, abs(v.margin), abs(w.margin))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), r=st.lists(st.floats(0.3, 6.0), min_size=2, max_size=2).map(sorted),
       rho=st.lists(st.floats(0.3, 6.0), min_size=2, max_size=2).map(sorted))
def test_a_gamma_path_kernel_built_once_scans_as_one_rebuilt_per_t(data, r, rho):
    fam = path_family("gamma", {"r1": r[0], "r2": r[1], "rho1": rho[1], "rho2": rho[0]})
    assert fam.factor[0] is None  # a fixed kernel
    grid = data.draw(random_grids(fam.support, fam.kind))
    ts = data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=9))
    rebuilt = dataclasses.replace(fam, factor=None)
    for o in ORDERS:
        once, per_t = (check_path_order(f, o, grid, ts) for f in (fam, rebuilt))
        assert repr(once) == repr(per_t), o


def _count_kernel_calls(monkeypatch, law, params):
    """The list that gets the parameter's name, and the number of its values
    read (the rows of a column), at each call of one of the law's kernels in
    params, or of its statistic for a `Factored` kernel."""
    calls = []
    for p in params:
        kernel = LAWS[law].kernels[p]
        factored = isinstance(kernel, Factored)

        def counted(theta, x, p=p, f=kernel.statistic if factored else kernel):
            calls.append((p, len(theta[p]) if np.ndim(theta.get(p)) else 1))
            return f(theta, x)

        monkeypatch.setitem(LAWS[law].kernels, p,
                            dataclasses.replace(kernel, statistic=counted) if factored else counted)
    return calls


# and rows whose kernel depends on nu otherwise
COUNTED_ROWS = FIXED_ROWS + FACTORED_ROWS + [("gumbel-in-location", (0.0, 0.8)),
                                             ("half-student-in-df", (2.0, 5.0))]


@pytest.mark.parametrize("spec,nus", COUNTED_ROWS, ids=[spec for spec, _ in COUNTED_ROWS])
def test_a_fixed_kernel_is_evaluated_once_per_check(monkeypatch, capsys, spec, nus):
    view = _FAMILIES[spec.partition(":")[0]]
    calls = _count_kernel_calls(monkeypatch, view.law, [view.varied])
    lo, hi = nus
    grid = ",".join(repr(float(nu)) for nu in np.linspace(lo, hi, 65))
    cli.main(["check", "--family", spec, f"--nu1={lo!r}", f"--nu2={hi!r}", f"--nu-grid={grid}",
              "--no-timing"])
    capsys.readouterr()
    # a fixed kernel, or a factored kernel's statistic, is built once; any
    # other kernel at every scanned nu, the first alone and then in blocks of
    # as many nus as fit in _BLOCK_ELEMENTS grid points
    per = catalog._BLOCK_ELEMENTS // catalog.GRID_POINTS
    assert [rows for _, rows in calls] == ([1] + [per] * (64 // per)
                                           if _built_once(spec) is None else [1])


@pytest.mark.parametrize("order", ["lr", "lc", "st", "hr"])
def test_a_fixed_path_kernel_is_evaluated_once_per_path(monkeypatch, capsys, order):
    calls = _count_kernel_calls(monkeypatch, "gamma", ["r", "rho"])
    cli.main(["path", "--name", "gamma:r1=1,r2=2,rho1=2,rho2=1", "--order", order,
              "--t-points", "129", "--no-timing"])
    capsys.readouterr()
    assert sorted(calls) == [("r", 1), ("rho", 1)]


@st.composite
def factored_cases(draw):
    """Small integer T on an integer grid of 1 to 30 points, laws, per-nu
    dyadic (a, b) of either sign or zero, and in half the cases per-nu
    integer atom values k0 at the first point, so that a T + b and every
    margin are exact."""
    n = draw(st.integers(1, 30))
    grid = discrete_grid(0, n - 1)
    t = np.array(draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n)), dtype=float)
    nus = [float(nu) for nu in range(draw(st.integers(1, 6)))]
    pairs = {nu: (draw(st.sampled_from([-2.5, -1.0, -0.5, 0.0, 0.5, 1.0, 4.0])),
                  draw(st.sampled_from([-1.5, 0.0, 0.25, 3.0]))) for nu in nus}
    atoms = {nu: float(draw(st.integers(-40, 40))) for nu in nus} if draw(st.booleans()) else None
    mass = st.floats(0.0, 1.0)
    laws = {nu: np.array(draw(st.lists(mass, min_size=n, max_size=n))) for nu in nus}
    return grid, t, nus, pairs, atoms, laws, draw(st.sampled_from([0.0, TOL_SHAPE, 0.5]))


@st.composite
def long_factored_cases(draw):
    """As `factored_cases`, on an integer grid at or just above the head
    gate: T rises or falls, with ties, past a head of 0 to 40 integers, so
    that the sign of each a and each direction read a head of their own."""
    n = draw(st.integers(criteria._HEAD_POINTS, criteria._HEAD_POINTS + 100))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = draw(st.sampled_from([1.0, -1.0])) * np.sort(rng.integers(-20, 21, n)).astype(float)
    head = draw(st.integers(0, 40))
    t[:head] = rng.integers(-20, 21, head)
    nus = [float(nu) for nu in range(draw(st.integers(1, 4)))]
    pairs = {nu: (draw(st.sampled_from([-2.5, -1.0, 0.0, 0.5, 4.0])),
                  draw(st.sampled_from([-1.5, 0.0, 3.0]))) for nu in nus}
    atoms = {nu: float(draw(st.integers(-40, 40))) for nu in nus} if draw(st.booleans()) else None
    laws = {nu: rng.random(n) for nu in nus}
    return discrete_grid(0, n - 1), t, nus, pairs, atoms, laws, draw(
        st.sampled_from([0.0, TOL_SHAPE, 0.5]))


def _a_t_plus_b(t, a, b, k0=None):
    """a T + b, with the atom's value k0 at the first point when given."""
    k = a * t + b
    if k0 is not None:
        k[0] = k0
    return k


@settings(max_examples=250, deadline=None)
@given(case=st.one_of(factored_cases(), long_factored_cases()))
@example(case=(discrete_grid(0, 1), np.array([0.0, 1.0]), [0.0], {0.0: (0.0, 3.0)}, {0.0: 5.0},
               {0.0: np.array([0.5, 0.5])}, 0.0))
def test_a_factored_scan_equals_the_scan_of_a_t_plus_b(case):
    # |a| times T's least signed slope or curvature, read with the sign of a,
    # and T's own slopes for the st/hr skip, with the atom's cell and triplet
    # read apart, against a T + b built per nu with the atom's value; on a
    # long grid the head end of each sign of a and each direction, off T's
    # slopes, against the one off the row's own
    grid, t, nus, pairs, atoms, laws, tol = case
    factored = scan_kernel(t, nus, grid, ALL_TESTS, tol, tol, law=laws.__getitem__,
                           coefficient=pairs.__getitem__, atom=atoms and atoms.__getitem__)
    rebuilt = scan_kernel(_rows(lambda nu: _a_t_plus_b(t, *pairs[nu], atoms and atoms[nu])),
                          nus, grid, ALL_TESTS, tol, tol, law=laws.__getitem__)
    assert factored == rebuilt


@pytest.mark.parametrize("argv,up", [
    # K = k / theta at theta = 1e-290 is of size 1e290, and a kernel built
    # at each nu read its rounding, of size 1e274, as lc failing both ways
    (["--family", "poisson", "--nu1=1e-290", "--nu2", "3"], ("up", "holds", 0.0)),
    # under a zero tolerance, rounding of size 1e-15 in k / q did the same
    (["--family", "geometric", "--nu1=0.22", "--nu2=0.74", "--tol-shape=0"],
     ("up", "holds", 0.0)),
    # K = 1/theta - x past the atom at 0, where it is 0: the body's rounding
    # read as lc down holding with margin -3.3e-13; the atom's triplet fails up
    (["--family", "zero-inflated-exponential", "--nu1=1", "--nu2=2"],
     ("up", "fails", -183.8283518774821)),
], ids=["huge", "zero-tolerance", "atom"])
def test_a_linear_kernel_keeps_its_zero_curvature(capsys, argv, up):
    code = cli.main(["check", *argv, "--orders", "lc", "--no-timing"])
    report = json.loads(capsys.readouterr().out)
    kernel = [(v["direction"], v["status"], v["margin"]) for v in report["verdicts"]
              if v["method"] == "kernel-criterion"]
    assert (code, kernel) == (0, [up, ("down", "holds", 0.0)])


def test_a_zero_tail_tolerance_finds_the_st_witness_past_the_first_point(capsys):
    # at the first grid point E[K | X >= x] and E[K] are one quotient of the
    # same two sums, so the st margin there is 0, not rounding, and st down
    # fails at its real witness
    code = cli.main(["check", "--family", "poisson", "--nu1=1", "--nu2=3", "--orders", "st",
                     "--tol-tail=0", "--no-timing"])
    report = json.loads(capsys.readouterr().out)
    up, down = (v for v in report["verdicts"] if v["method"] == "kernel-criterion")
    assert (code, up["status"], down["status"]) == (0, "holds", "fails")
    assert (down["witness"]["x"], down["witness"]["nu"]) == (1, 1)
    assert down["margin"] == pytest.approx(-0.5819767068693265, rel=1e-12)


@pytest.mark.parametrize("spec,nus,refusal", [
    # sigma ** -3 raises OverflowError
    ("halfnormal-in-scale", [1.0, 1e-103], "halfnormal-in-scale: kernel not finite at sigma=1e-103"),
    # 1 / theta is finite, and its product with max k is not
    ("poisson", [1.0, 1e-308], "poisson: kernel not finite at theta=1e-308"),
    # b = 1 / theta is not finite: a kernel built at this nu was inf past
    # the atom, which read as hr down failing with margin -inf
    ("zero-inflated-exponential", [1.0, 1e-310],
     "zero-inflated-exponential(pi=0.4): kernel not finite at theta=1e-310"),
])
def test_a_coefficient_that_is_not_finite_is_refused_by_name(spec, nus, refusal):
    fam = family_from_spec(spec)
    grid = default_grid(fam, [1.0])
    with pytest.raises(ValueError) as error:
        scan_orders(fam, nus, grid, ALL_TESTS)
    assert str(error.value) == refusal


def _refusing_family():
    """A family on 0..10 whose kernel (2 - nu) k rises for nu < 2, and
    overflows past nu = 709 / 300, where numpy's flags refuse it."""
    def kernel(nu, x):
        return x * (2.0 - nu) + 0.0 * np.exp(300.0 * nu)

    return dataclasses.replace(make_family("poisson"), kernel=kernel, factor=None), \
        discrete_grid(0, 10)


def _one_nu_a_block(monkeypatch):
    """Blocks of one nu each, as a scan one nu at a time reads them."""
    monkeypatch.setattr(criteria, "_BLOCK_ELEMENTS", 1)


def test_a_refusal_past_the_last_open_test_is_never_read(monkeypatch):
    # lr up fails at nu = 2.2, inside the block 1.5..3.0 whose kernel at 2.5
    # overflows: the block is read again one nu at a time, and the scan
    # stops at 2.2, as one that reads one nu at a time does
    fam, grid = _refusing_family()
    nus = [1.0, 1.5, 2.2, 2.5, 3.0]
    [v] = scan_orders(fam, nus, grid, [("lr", "up")])
    assert (v.status, v.witness.nu, v.witness.x) == ("fails", 2.2, 0.0)
    _one_nu_a_block(monkeypatch)
    assert scan_orders(fam, nus, grid, [("lr", "up")]) == [v]


def test_a_refusal_inside_a_block_names_the_nu_a_scan_one_at_a_time_names(monkeypatch):
    fam, grid = _refusing_family()
    refusals = []
    for _ in range(2):
        with pytest.raises(ValueError) as error:
            scan_orders(fam, [1.0, 1.5, 2.0, 2.5, 3.0], grid, [("lr", "up")])
        refusals.append(str(error.value))
        _one_nu_a_block(monkeypatch)
    assert refusals == ["poisson: kernel not finite at theta=2.5"] * 2


def test_a_gumbel_kernel_that_overflows_inside_a_block_is_refused_at_its_nu():
    # -exp(-(x - mu)) overflows where x - mu < -709.8: on the grid of 0..800
    # (first point near -3), at mu = 700, the 15th nu and in the block of 16
    fam = make_family("gumbel-in-location")
    nus = nu_scan(0.0, 800.0)
    with pytest.raises(ValueError, match=r"^gumbel-in-location: kernel not finite at mu=700$"):
        scan_orders(fam, nus, default_grid(fam, nus), [("lr", "up"), ("lr", "down")])


def test_a_wide_shape_tolerance_does_not_skip_a_failing_tail_pass(capsys):
    # the tail pass is skipped only where sign * K is nondecreasing exactly;
    # K = x/nu - 1 falls nowhere, so st and hr down must still fail under a
    # shape tolerance that would excuse every slope
    code = cli.main(["check", "--family", "poisson", "--nu1=1", "--nu2=3", "--orders", "st,hr",
                     "--tol-shape=1e6", "--no-timing"])
    report = json.loads(capsys.readouterr().out)
    kernel = {(v["order"], v["direction"]): v for v in report["verdicts"]
              if v["method"] == "kernel-criterion"}
    assert code == 0
    for order in ("st", "hr"):
        assert kernel[order, "down"]["status"] == "fails"
        assert kernel[order, "down"]["witness"]["nu"] == 1.0
        assert kernel[order, "up"]["status"] == "holds" and kernel[order, "up"]["margin"] is None


@pytest.mark.parametrize("name", ["tol_shape", "tol_tail"])
@pytest.mark.parametrize("value", [-0.5, -1e-300, math.nan])
def test_order_probe_refuses_negative_or_nan_tolerances(name, value):
    with pytest.raises(ValueError, match=name):
        scan_kernel(np.zeros(3), [1.0], discrete_grid(0, 2), [("st", "up")], **{name: value})
    fam = make_family("poisson")
    order = "st" if name == "tol_tail" else "lr"
    with pytest.raises(ValueError, match=name):
        scan_orders(fam, [1.0, 2.0, 3.0], discrete_grid(0, 40), [(order, "up")], **{name: value})


@pytest.mark.parametrize("test,message", [
    (("xx", "up"), "unknown order 'xx'"),
    (("lr", "sideways"), "unknown direction 'sideways'"),
    (("up", "lr"), "unknown order 'up'"),
], ids=["order", "direction", "swapped"])
def test_scan_kernel_refuses_an_unknown_order_or_direction(test, message):
    def kernel(nu):
        raise AssertionError("the scan started")

    with pytest.raises(ValueError, match=message):
        scan_kernel(kernel, [1.0], discrete_grid(0, 4), [("lr", "up"), test])


def _full_tail_margins(k, masses, order, direction, eps=EPS_TAIL):
    """The signed st or hr margins of one row by the full tail pass."""
    surv, tail, grand = _ref_tail_means(k, masses)
    keep = surv > eps
    gap = tail - grand if order == "st" else tail - k
    return (1.0 if direction == "up" else -1.0) * gap[keep]


def _skipped(grid, nu, k, masses):
    """The (order, direction) tail tests whose pass the scan skips at this row."""
    tests = [(o, d) for o in ("st", "hr") for d in ("up", "down")]
    results = scan_kernel(lambda block: [k], [nu], grid, tests, law=lambda _: masses)
    return [test for test, (_, _, implied) in zip(tests, results) if implied]


@pytest.mark.parametrize("spec,nus", [(row[0], row[1]) for row in cli._TABLE1])
def test_a_skipped_tail_pass_finds_no_failure_on_table1_rows(spec, nus):
    fam = family_from_spec(spec)
    scan = nu_scan(*nus)
    grid = default_grid(fam, scan)
    for nu in scan:
        k = np.asarray(fam.kernel(nu, grid.points), dtype=float)
        masses = density(fam, nu, grid).masses
        for o, d in _skipped(grid, nu, k, masses):
            m = _full_tail_margins(k, masses, o, d)
            assert not (m < -TOL_TAIL).any(), (nu, o, d, m.min())


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


def _rows(kernel_at):
    """A kernel given at one nu, read as `scan_kernel` reads a callable: one
    row per nu of a block."""
    return lambda block: np.array([kernel_at(nu) for nu in block])


def _ref_tail_means(k, masses):
    """Survival, tail means and E[K], the tail mean at the first point (0 for
    no mass): both sides of the st margin there come from the same sums."""
    surv = np.cumsum(masses[::-1])[::-1]
    tail_num = np.cumsum((k * masses)[::-1])[::-1]
    tail = tail_num / np.where(surv > 0.0, surv, 1.0)
    return surv, tail, float(tail[0]) if surv[0] > 0.0 else 0.0


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


def _ref_order(order, direction, tol):
    sign = 1.0 if direction == "up" else -1.0

    def probe(grid, k, slopes, tails):
        pts = grid.points
        if order == "lr":
            yield pts[:-1], sign * slopes, tol, "adjacent-pair"
        elif order == "lc":
            yield pts[1:-1], sign * np.diff(slopes), tol, "triplet"
        elif slopes.size and np.all(sign * slopes >= 0):
            # lr => hr => st at this nu: no tail margin
            return
        else:
            surv, tail, grand = tails()
            keep = surv > EPS_TAIL
            gap = tail - grand if order == "st" else -(k - tail)
            yield pts[keep], sign * gap[keep], tol, "grid-point"

    return probe


def _bits(witness, margin):
    """A scan result with every float as its bit pattern."""

    def b(x):
        return None if x is None else np.float64(x).tobytes()

    if witness is not None and not isinstance(witness, tuple):
        witness = (witness.x, witness.nu, witness.kind, witness.margin)
    return (None if witness is None else (b(witness[0]), witness[1], witness[2], b(witness[3])),
            b(margin))


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
@given(case=scan_cases())
def test_scan_equals_the_signed_copy_formulas(case):
    grid, nus, kernels, laws, tol = case
    # all eight tests in one scan, as `check` runs them, sharing each row
    got = scan_kernel(_rows(kernels.__getitem__), nus, grid, ALL_TESTS, tol, tol,
                      law=laws.__getitem__)
    for (o, d), (witness, margin, _) in zip(ALL_TESTS, got):
        want = _ref_scan(grid, nus, kernels, laws, _ref_order(o, d, tol))
        assert _bits(witness, margin) == _bits(*want), (o, d)


@settings(max_examples=250, deadline=None)
@given(case=scan_cases())
def test_a_fixed_kernel_scan_equals_the_signed_copy_formulas(case):
    # one kernel array for every nu: the slopes, the curvature and their
    # extremes are read once, and each nu's law only by a tail pass
    grid, nus, kernels, laws, tol = case
    k = kernels[nus[0]]
    got = scan_kernel(k, nus, grid, ALL_TESTS, tol, tol, law=laws.__getitem__)
    for (o, d), (witness, margin, _) in zip(ALL_TESTS, got):
        want = _ref_scan(grid, nus, {nu: k for nu in nus}, laws, _ref_order(o, d, tol))
        assert _bits(witness, margin) == _bits(*want), (o, d)


@settings(max_examples=250, deadline=None)
@given(case=scan_cases(), trend=st.sampled_from([None, 1.0, -1.0]))
def test_a_skipped_tail_pass_finds_no_failure(case, trend):
    grid, nus, kernels, laws, _ = case
    assume(all(m.sum() > 1e-300 for m in laws.values()))
    for nu in nus:
        # a sorted kernel is monotone, so the skip fires on most of these rows
        k = kernels[nu] if trend is None else trend * np.sort(kernels[nu])
        masses = laws[nu] / laws[nu].sum()
        for o, d in _skipped(grid, nu, k, masses):
            m = _full_tail_margins(k, masses, o, d)
            assert not (m < -TOL_TAIL).any(), (nu, o, d, m.min())


TAIL_TESTS = [(o, d) for o in ("st", "hr") for d in ("up", "down")]


@contextlib.contextmanager
def _heads_read():
    """The head end s of each tail pass a scan runs in the `with` block, in
    order: the pass reads the points 0..s, all of them at the last point."""
    heads, tail_means = [], criteria._tail_means

    def recorded(k, masses, s=None):
        heads.append(s)
        return tail_means(k, masses, s)

    with mock.patch.object(criteria, "_tail_means", recorded):
        yield heads


def _head_read(grid, nu, k, masses, test):
    """The last point a scan of the one tail test reads at this row: None
    where the kernel's shape settles the test and no tail pass runs."""
    with _heads_read() as heads:
        [(_, _, implied)] = scan_kernel(lambda block: [k], [nu], grid, [test],
                                        law=lambda _: masses)
    return None if implied else heads[0]


def _least_past_the_head(k, masses, test, s):
    """The full pass's least signed margin of a tail test at the points the
    scan left unread, past its head end s (every point when s is None), and
    the floor it may not fall below: 0 for hr, and for st its gap at s when
    that is less, since st's least gap past s is its gap at s."""
    m = _full_tail_margins(k, masses, *test)
    past = m if s is None else m[s + 1:]
    floor = 0.0 if s is None or test[0] == "hr" or s >= m.size else min(0.0, m[s])
    return (past.min() if past.size else math.inf), floor


@st.composite
def long_cases(draw):
    """A discrete, continuous or mixed grid at or just above the head gate,
    one to three nus, and per nu a kernel that rises or falls, with ties,
    past a head of 0 to 60 random values, and masses that hold exact zeros
    and may decay so that the survival falls below EPS_TAIL on the grid."""
    n = draw(st.integers(criteria._HEAD_POINTS, criteria._HEAD_POINTS + 200))
    grid = draw(st.sampled_from([discrete_grid(0, n - 1), continuous_grid(0.0, 1.0, n=n),
                                 mixed_grid(1.0, n=n - 1)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nus = [float(i) for i in range(1, draw(st.integers(1, 3)) + 1)]
    kernels, laws = {}, {}
    for nu in nus:
        head, trend = draw(st.integers(0, 60)), draw(st.sampled_from([1.0, -1.0]))
        k = trend * np.sort(np.round(rng.normal(size=n) * 8) / 8)
        k[:head] = rng.normal(size=head) * draw(st.sampled_from([0.5, 4.0]))
        rate = draw(st.sampled_from([0.0, 2e-3, 2e-2]))
        masses = rng.random(n) * np.exp(-rate * np.arange(n))
        masses[rng.random(n) < 0.1] = 0.0
        kernels[nu], laws[nu] = k, masses / masses.sum()
    return grid, nus, kernels, laws


@settings(max_examples=60, deadline=None)
@given(case=long_cases(), tol=st.sampled_from([TOL_TAIL, 0.05]))
def test_a_tail_pass_read_to_its_head_finds_no_failure_past_it(case, tol):
    # past the head end s sign * K is nondecreasing, so hr holds there and
    # st's least gap there is its gap at s: the full pass finds no failure
    # past s that s does not show, and where none of its margins lies within
    # rounding of -tol, the scan fails where the full pass fails, at its
    # witness, and holds where it holds
    grid, nus, kernels, laws = case
    for test in TAIL_TESTS:
        for nu in nus:
            k, masses = kernels[nu], laws[nu]
            least, floor = _least_past_the_head(k, masses, test,
                                                _head_read(grid, nu, k, masses, test))
            assert least >= floor - TOL_TAIL, (nu, test, least, floor)
        [(witness, _, _)] = scan_kernel(_rows(kernels.__getitem__), nus, grid, [test],
                                        tol, tol, law=laws.__getitem__)
        want, want_margin = _ref_scan(grid, nus, kernels, laws, _ref_order(*test, tol))
        full = [_full_tail_margins(kernels[nu], laws[nu], *test) for nu in nus]
        if any((np.abs(m + tol) <= 1e-10).any() for m in full):
            continue
        assert (witness is None) == (want is None), test
        if want is not None:
            assert (witness.x, witness.nu, witness.kind) == want[:3], test
            assert witness.margin == pytest.approx(want_margin, abs=1e-10)


@pytest.mark.parametrize("spec,nus", [(row[0], row[1]) for row in cli._TABLE1])
def test_a_tail_pass_read_to_its_head_finds_no_failure_past_it_on_table1_rows(spec, nus):
    # on 20 000 points, where a continuous or mixed row's pass stops at its
    # head end; a discrete row's grid keeps its cut and reads every point
    fam = family_from_spec(spec)
    scan = nu_scan(*nus)
    grid = default_grid(fam, scan, grid_points=20_000)
    for nu in scan:
        k = np.asarray(fam.kernel(nu, grid.points), dtype=float)
        masses = density(fam, nu, grid).masses
        for test in TAIL_TESTS:
            least, floor = _least_past_the_head(k, masses, test,
                                                _head_read(grid, nu, k, masses, test))
            assert least >= floor - TOL_TAIL, (nu, test, least, floor)


@settings(max_examples=150, deadline=None)
@given(case=scan_cases())
def test_tail_mean_profile_equals_the_reference_tail_means(case):
    # the scan's tail pass against the reference formulas, bit for bit, on the
    # prefix where the survival is positive
    grid, nus, kernels, masses, _ = case
    k, m = kernels[nus[0]], masses[nus[0]]
    surv, tail, grand = criteria._tail_means(k, m)
    ref_surv, ref_tail, ref_grand = _ref_tail_means(k, m)
    ref_tail = ref_tail[ref_surv > 0.0]
    assert surv.tobytes() == ref_surv.tobytes()
    assert tail.shape == ref_tail.shape and tail.tobytes() == ref_tail.tobytes()
    assert _bits(None, grand) == _bits(None, ref_grand)


@settings(max_examples=150, deadline=None)
@given(case=scan_cases(), data=st.data())
def test_a_head_pass_equals_the_reference_tail_means_up_to_its_end(case, data):
    # a pass over the points 0..s seeded with the survival and the tail
    # numerator at s: the reference's values there up to rounding, and its
    # bits when s is the last point
    grid, nus, kernels, masses, _ = case
    k, m = kernels[nus[0]], masses[nus[0]]
    assume(not np.isnan(k).any())
    s = data.draw(st.integers(0, k.size - 1))
    surv, tail, grand = criteria._tail_means(k, m, s)
    ref_surv, ref_tail, ref_grand = _ref_tail_means(k, m)
    ref_tail = ref_tail[: s + 1][ref_surv[: s + 1] > 0.0]
    assert surv.shape == (s + 1,) and tail.shape == ref_tail.shape
    scale = np.abs(k).max() * m.size * 1e-15
    assert np.allclose(surv, ref_surv[: s + 1], rtol=1e-12, atol=1e-300)
    assert np.allclose(tail, ref_tail, rtol=0.0, atol=scale)
    assert grand == pytest.approx(ref_grand, rel=0.0, abs=scale)
    if s == k.size - 1:
        assert (surv.tobytes(), tail.tobytes()) == (ref_surv.tobytes(), ref_tail.tobytes())


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
