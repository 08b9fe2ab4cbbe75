"""End-to-end acceptance checks, one test per guarantee the package makes.

Every check runs two independent routes where possible: the closed-form or
kernel-based criterion on one side, and a brute-force computation on frozen
densities on the other.  The two must agree; neither is trusted alone.
"""

import numpy as np

from stochorder.catalog import (
    Distribution,
    continuous_grid,
    default_grid,
    density,
    discrete_grid,
    family_from_spec,
    mixed_grid,
)
from stochorder.compound import (
    TABLE2_ROWS,
    check_compound_lr,
    geometric_summand,
    is_pf2,
    make_compound,
    make_counting,
)
from stochorder.criteria import scan_orders
from stochorder.oracle import oracle_pair
from stochorder.pairwise import (
    check_interpolation,
    katz_threshold,
    law_distribution,
    make_law,
    pairwise_kernel,
)
from test_compound import _compound_score, _posterior

# Catalog rows: family spec, a parameter window, the recorded sign of the
# kernel slope and curvature, and an optional explicit grid window for the
# one family whose default grid is too wide to resolve the mode region.
CATALOG_ROWS = (
    ("poisson", (1.0, 3.0), "+", "0", None),
    ("geometric", (0.3, 0.6), "+", "0", None),
    ("negbinomial-in-q", (0.3, 0.6), "+", "0", None),
    ("negbinomial-in-shape", (1.5, 4.0), "+", "-", None),
    ("binomial-in-p", (0.2, 0.6), "+", "0", None),
    ("betabinomial-in-r", (1.0, 3.0), "+", "-", None),
    ("betabinomial-in-s", (1.0, 3.0), "-", "-", None),
    ("logseries", (0.3, 0.7), "+", "0", None),
    ("cmp-in-dispersion", (0.8, 1.6), "-", "-", None),
    ("zero-inflated-poisson", (3.0, 5.0), "mixed", "+", None),
    ("gamma-in-shape", (1.5, 3.0), "+", "-", None),
    ("gamma-in-rate", (0.8, 1.6), "-", "0", None),
    ("exponential-in-rate", (0.8, 1.6), "-", "0", None),
    ("weibull-in-rate", (0.8, 1.6), "-", "-", None),
    ("beta-in-alpha", (1.5, 3.0), "+", "-", None),
    ("beta-in-beta", (1.5, 3.0), "-", "-", None),
    ("pareto-in-shape", (1.5, 3.0), "-", "+", None),
    ("halfnormal-in-scale", (0.8, 1.6), "+", "+", None),
    ("lognormal-in-mu", (0.0, 0.8), "+", "-", None),
    ("gumbel-in-location", (0.0, 0.8), "+", "-", None),
    ("half-student-in-df", (2.0, 5.0), "mixed", "mixed", (0.0, 40.0, 4000)),
    ("zero-inflated-exponential", (1.0, 2.0), "mixed", "-", None),
)

SHAPE_TESTS = [(o, d) for o in ("lr", "lc", "st", "hr") for d in ("up", "down")]
UP = [("lr", "up"), ("st", "up"), ("hr", "up")]


def _row_grid(fam, nus, window):
    if window is None:
        return default_grid(fam, nus)
    return continuous_grid(window[0], window[1], n=window[2])


def _sign_profile(vals, tol=1e-9):
    if vals.size == 0:
        return "0"
    lo, hi = float(vals.min()), float(vals.max())
    if lo >= -tol and hi <= tol:
        return "0"
    if lo >= -tol:
        return "+"
    if hi <= tol:
        return "-"
    return "mixed"


def test_kernels_match_log_density_scores_and_recorded_shape_signs():
    # Route one: the closed-form kernel.  Route two: a centered finite
    # difference of log density masses in the parameter.  They may differ
    # by an x-constant (the normalizer), so the variance must vanish.
    h = 1e-5
    for spec, (lo, hi), slope_expected, curv_expected, window in CATALOG_ROWS:
        fam = family_from_spec(spec)
        nus = (lo, 0.5 * (lo + hi), hi)
        grid = _row_grid(fam, nus, window)
        for nu in nus:
            with np.errstate(divide="ignore"):
                below = np.log(density(fam, nu - h, grid).masses)
                above = np.log(density(fam, nu + h, grid).masses)
            fd = (above - below) / (2.0 * h)
            kernel = np.asarray(fam.kernel(nu, grid.points), dtype=float)
            diff = kernel - fd
            assert np.all(np.isfinite(diff)), (spec, nu)
            assert float(np.var(diff)) <= 1e-8, (spec, nu, float(np.var(diff)))
            steps = np.diff(kernel)
            if grid.kind != "discrete":
                steps = steps / np.diff(grid.points)
            slope = _sign_profile(steps)
            curvature = _sign_profile(np.diff(steps))
            assert (slope, curvature) == (slope_expected, curv_expected), (spec, nu)


def test_shape_criteria_agree_with_density_oracles_across_catalog():
    disagreements = []
    for spec, (lo, hi), _, _, window in CATALOG_ROWS:
        fam = family_from_spec(spec)
        nus = [float(nu) for nu in np.linspace(lo, hi, 6)]
        grid = _row_grid(fam, nus, window)
        dens = {nu: density(fam, nu, grid) for nu in nus}
        for a, b in zip(nus[:-1], nus[1:]):
            verdicts = scan_orders(fam, [a, b], grid, SHAPE_TESTS)
            brutes = oracle_pair(dens[a], dens[b], SHAPE_TESTS)
            for (order, direction), verdict, brute in zip(SHAPE_TESTS, verdicts, brutes):
                if verdict.holds != brute.holds:
                    disagreements.append((spec, (a, b), order, direction))
    assert disagreements == []


# One 5x5 sweep per comparison pair; each sweep straddles both closed-form
# boundaries, so both True and False cells appear for lr and for st.
KATZ_SWEEPS = (
    ("bin-poi",
     [({"n": 6, "p": p, "lambda": lam},
       ("binomial", {"n": 6, "p": p}), ("poisson", {"lambda": lam}))
      for p in (0.05, 0.15, 0.3, 0.45, 0.6) for lam in (0.2, 0.6, 1.2, 2.4, 4.0)]),
    ("bin-nb",
     [({"n": 5, "p": p, "r": r, "pi": 0.5},
       ("binomial", {"n": 5, "p": p}), ("negbinomial", {"r": r, "p": 0.5}))
      for p in (0.1, 0.2, 0.35, 0.5, 0.65) for r in (0.5, 1.0, 2.0, 4.0, 8.0)]),
    ("poi-nb",
     [({"lambda": lam, "r": 2.0, "p": p},
       ("poisson", {"lambda": lam}), ("negbinomial", {"r": 2.0, "p": p}))
      for lam in (0.2, 0.5, 1.0, 2.0, 4.0) for p in (0.2, 0.35, 0.5, 0.65, 0.8)]),
)

# Parameter points sitting exactly on a boundary; the weak inequality holds.
KATZ_BOUNDARY_CELLS = (
    ("bin-poi", {"n": 10, "p": 0.5, "lambda": 10.0}, "lr_condition",
     ("binomial", {"n": 10, "p": 0.5}), ("poisson", {"lambda": 10.0})),
    ("bin-nb", {"n": 10, "p": 0.5, "r": 20.0, "pi": 0.5}, "lr_condition",
     ("binomial", {"n": 10, "p": 0.5}), ("negbinomial", {"r": 20.0, "p": 0.5})),
    ("bin-nb", {"n": 10, "p": 0.5, "r": 10.0, "pi": 0.5}, "st_condition",
     ("binomial", {"n": 10, "p": 0.5}), ("negbinomial", {"r": 10.0, "p": 0.5})),
    ("poi-nb", {"lambda": 1.0, "r": 2.0, "p": 0.5}, "lr_condition",
     ("poisson", {"lambda": 1.0}), ("negbinomial", {"r": 2.0, "p": 0.5})),
    ("poi-nb", {"lambda": 1.0, "r": 1.0, "p": float(np.exp(-1.0))}, "st_condition",
     ("poisson", {"lambda": 1.0}), ("negbinomial", {"r": 1.0, "p": float(np.exp(-1.0))})),
)


def test_katz_closed_forms_match_oracle_on_straddling_sweeps():
    for pair, cells in KATZ_SWEEPS:
        seen = {"lr": set(), "st": set()}
        for params, (p_name, p_kw), (q_name, q_kw) in cells:
            res = katz_threshold(pair, dict(params))
            dp = law_distribution(make_law(p_name, **p_kw))
            dq = law_distribution(make_law(q_name, **q_kw))
            v_lr, v_st = oracle_pair(dp, dq, [("lr", "up"), ("st", "up")])
            assert res["lr_condition"] == v_lr.holds, (pair, params)
            assert res["st_condition"] == v_st.holds, (pair, params)
            seen["lr"].add(res["lr_condition"])
            seen["st"].add(res["st_condition"])
        assert seen["lr"] == {True, False}, pair
        assert seen["st"] == {True, False}, pair
    for pair, params, key, (p_name, p_kw), (q_name, q_kw) in KATZ_BOUNDARY_CELLS:
        res = katz_threshold(pair, dict(params))
        assert res[key] is True, (pair, params)
        order = "lr" if key == "lr_condition" else "st"
        dp = law_distribution(make_law(p_name, **p_kw))
        dq = law_distribution(make_law(q_name, **q_kw))
        assert oracle_pair(dp, dq, [(order, "up")])[0].holds, (pair, params)


def test_zero_inflated_poisson_orders_st_and_hr_but_not_lr():
    fam = family_from_spec("zero-inflated-poisson")
    assert fam.fixed_params == {"pi": 0.5}
    grid = default_grid(fam, (3.0, 5.0))
    v_lr, v_st, v_hr = scan_orders(fam, [3.0, 5.0], grid, [("lr", "up"), ("st", "up"),
                                                          ("hr", "up")])
    assert v_lr.status == "fails"
    assert v_lr.witness is not None and v_lr.witness.x <= 1.0
    assert v_st.holds
    assert v_hr.holds
    d3 = density(fam, 3.0, grid)
    d5 = density(fam, 5.0, grid)
    o_lr, o_st, o_hr = oracle_pair(d3, d5, UP)
    assert o_lr.status == "fails"
    assert o_st.holds
    assert o_hr.holds


def test_zero_inflated_exponential_atom_breaks_lr_but_not_st_or_hr():
    fam = family_from_spec("zero-inflated-exponential:pi=0.4")
    grid = mixed_grid(30.0, n=30000)
    d1 = density(fam, 1.0, grid)
    d2 = density(fam, 2.0, grid)
    # Raising the rate shrinks the law, so the claim runs downward: d2 vs d1.
    refuted, o_st, o_hr = oracle_pair(d1, d2, [("lr", "down"), ("st", "down"), ("hr", "down")])
    assert refuted.status == "fails"
    assert refuted.witness is not None and refuted.witness.x == 0.0
    assert o_st.holds
    assert o_hr.holds
    s1, s2 = (np.cumsum(d.masses[::-1])[::-1] for d in (d1, d2))  # P(X >= x)
    assert np.all(s2 <= s1 + 1e-6)
    # the hazard: density over survival, positive everywhere on this grid
    h1, h2 = d1.masses / grid.weights() / s1, d2.masses / grid.weights() / s2
    assert np.all(h2 >= h1 - 1e-6)


def test_half_student_tail_criterion_decides_hr_and_st():
    fam = family_from_spec("half-student-in-df")
    grid = continuous_grid(0.0, 40.0, n=40000)
    # the kernel rises to x = 1 and falls after: no lr order either way, yet
    # the tail criterion decides hr, and with it st, down
    tests = [("st", "down"), ("hr", "down"), ("lr", "up"), ("lr", "down")]
    st, hr, lr_up, lr_down = scan_orders(fam, [2.0, 5.0], grid, tests)
    assert st.holds and hr.holds
    assert lr_up.status == "fails" and lr_down.status == "fails"
    d2 = density(fam, 2.0, grid)
    d5 = density(fam, 5.0, grid)
    s2, s5 = (np.cumsum(d.masses[::-1])[::-1] for d in (d2, d5))  # P(X >= x)
    assert np.all(s5 <= s2 + 1e-6)
    # the hazard: density over survival, positive everywhere on this grid
    h2, h5 = d2.masses / grid.weights() / s2, d5.masses / grid.weights() / s5
    assert np.all(h5 >= h2 - 1e-6)


COMPOUND_SCANS = {
    "poisson": (1.0, 2.0),
    "geometric": (0.3, 0.6),
    "negbinomial": (0.3, 0.6),
    "binomial": (0.2, 0.5),
    "logseries": (0.3, 0.6),
}


def _compound_endpoint(model, nu):
    masses = model.compound_masses(nu)
    return Distribution(discrete_grid(0, model.k_max), masses / masses.sum())


def test_geometric_compounds_are_lr_ordered_by_criterion_and_oracle():
    summand = geometric_summand(0.5)
    pf2_ok, _ = is_pf2(summand.masses)
    assert pf2_ok
    directions = {name: direction for name, _, direction, _ in TABLE2_ROWS}
    assert set(directions) == set(COMPOUND_SCANS)
    for name, (lo, hi) in COMPOUND_SCANS.items():
        model = make_compound(make_counting(name), summand, (lo, hi))
        assert model.k_max <= 400, name
        verdict = check_compound_lr(model, lo, hi)
        assert verdict.holds and verdict.direction == directions[name], name
        d_lo = _compound_endpoint(model, lo)
        d_hi = _compound_endpoint(model, hi)
        small, large = (d_lo, d_hi) if directions[name] == "up" else (d_hi, d_lo)
        up, down = oracle_pair(small, large, [("lr", "up"), ("lr", "down")])
        assert up.holds, name
        assert down.status == "fails", name


def test_posterior_matrices_are_tp2_with_nondecreasing_means():
    summand = geometric_summand(0.5)
    for name, kwargs, nu in (("poisson", {}, 2.0), ("negbinomial", {"alpha": 3.0}, 0.5)):
        model = make_compound(make_counting(name, **kwargs), summand, (nu,))
        _, matrix = _posterior(model, nu)
        minors = (matrix[:-1, :-1] * matrix[1:, 1:]
                  - matrix[:-1, 1:] * matrix[1:, :-1])
        assert float(minors.min()) >= -1e-12, name
        mean = np.arange(len(matrix)) @ matrix  # E[N | X = k]
        assert float(np.diff(mean).min()) >= -1e-12, name


def test_compound_score_matches_finite_difference_of_log_masses():
    model = make_compound(make_counting("poisson"), geometric_summand(0.5), (1.0, 3.0))
    h = 1e-5
    for nu in (1.2, 1.7, 2.3, 2.9):
        _, score = _compound_score(model, nu)
        below = np.log(model.compound_masses(nu - h))
        above = np.log(model.compound_masses(nu + h))
        fd = (above - below) / (2.0 * h)
        for k in (0, 3, 7, 12, 20):
            assert abs(fd[k] - score[k]) <= 1e-5, (nu, k)


def test_betabinomial_hypergeometric_kernel_and_delta_formula():
    for B, W, n, r, s in ((20, 20, 5, 1.0, 10.0), (30, 20, 5, 1.0, 8.0),
                          (25, 25, 6, 0.5, 12.0), (40, 30, 8, 2.0, 30.0)):
        assert W * (r + n - 1.0) <= s * (B - n + 1.0)  # the k = n-1 step is >= 0
        bb = make_law("betabinomial", n=n, r=r, s=s)
        hyp = make_law("hypergeometric", B=B, W=W, n=n)
        grid, values = pairwise_kernel(hyp, bb)
        d1 = np.diff(values)
        assert float(d1.min()) >= -1e-12, (B, W, n)
        k = grid.points[:-1]  # the closed-form step of log(w^Hyp / w^BetaBin)
        delta = np.log((B - k) * (s + n - k - 1.0)) - np.log((W - n + k + 1.0) * (r + k))
        assert np.max(np.abs(delta - d1)) <= 1e-12, (B, W, n)
        [v] = oracle_pair(law_distribution(bb), law_distribution(hyp), [("lr", "up")])
        assert v.holds, (B, W, n)


def test_interpolation_between_betabinomial_and_binomial_stays_lr_ordered():
    verdict, report = check_interpolation({"n": 5, "r": 1.0, "s": 10.0, "p": 0.5})
    assert verdict.holds and report["condition"]
    assert report["c_values"] == [0.0, 1.0, 10.0, 100.0]
    for c, margin in report["delta_margins"].items():
        assert margin >= 0.0, c
    bb = law_distribution(make_law("betabinomial", n=5, r=1.0, s=10.0))
    binom = law_distribution(make_law("binomial", n=5, p=0.5))
    assert oracle_pair(bb, binom, [("lr", "up")])[0].holds
    far = law_distribution(make_law("betabinomial", n=5, r=1.0 + 1e4 * 0.5,
                                    s=10.0 + 1e4 * (1.0 - 0.5)))
    tv = 0.5 * float(np.sum(np.abs(far.masses - binom.masses)))
    assert tv <= 1e-3


def test_lr_order_implies_hr_and_st_on_randomized_pairs():
    rng = np.random.default_rng(20260814)
    confirmed = 0
    # Exponentially tilted pairs are lr ordered by construction, giving a
    # guaranteed supply of pairs where the implication has force.
    for _ in range(60):
        size = int(rng.integers(3, 12))
        lo = int(rng.integers(0, 4))
        base = rng.random(size) + 1e-3
        p = base / base.sum()
        tilt = float(rng.uniform(0.05, 1.2))
        q = p * np.exp(tilt * np.arange(size))
        q = q / q.sum()
        grid = discrete_grid(lo, lo + size - 1)
        small, large = Distribution(grid, p), Distribution(grid, q)
        assert all(v.holds for v in oracle_pair(small, large, UP))
        confirmed += 1
    assert confirmed >= 50
    # Unconstrained pairs rarely satisfy the premise; check conditionally.
    for _ in range(40):
        size = int(rng.integers(3, 10))
        grid = discrete_grid(0, size - 1)
        a = rng.random(size) + 1e-3
        b = rng.random(size) + 1e-3
        first = Distribution(grid, a / a.sum())
        second = Distribution(grid, b / b.sum())
        o_lr, o_st, o_hr = oracle_pair(first, second, UP)
        if o_lr.holds:
            assert o_hr.holds
            assert o_st.holds


def _poisson_binomial(ps):
    """The law of a sum of independent Bernoulli(p_i), by exact convolution."""
    pmf = np.array([1.0])
    for p in ps:
        pmf = np.convolve(pmf, [1.0 - p, p])
    return Distribution(discrete_grid(0, len(ps)), pmf)


def test_poisson_binomial_is_lr_monotone_in_componentwise_success_rates():
    rng = np.random.default_rng(77)
    for _ in range(10):
        p = rng.uniform(0.05, 0.9, size=5)
        q = p + (1.0 - p) * rng.uniform(0.05, 0.95, size=5)
        assert np.all(p <= q) and np.all(q < 1.0)
        assert oracle_pair(_poisson_binomial(p), _poisson_binomial(q), [("lr", "up")])[0].holds
