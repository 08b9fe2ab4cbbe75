"""The law table and its views: parametrizations, normalizers, parameter
checks and path grids."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import gammaincinv

from stochorder import catalog
from stochorder.catalog import (
    LAWS,
    continuous_grid,
    discrete_grid,
    make_family,
    normalized,
)
from stochorder.compound import make_counting
from stochorder.pairwise import law_distribution, make_law, make_path, path_grid

# (q-form, p-form, shared parameters): the two laws declared twice
TWO_FORMS = [
    ("geometric-q", "geometric-p", lambda r: {}),
    ("negbinomial-q", "negbinomial-p", lambda r: {"r": r}),
]


def pmf(name, theta, k):
    law = LAWS[name]
    return np.exp(law.log_factor(theta, k) - law.log_normalizer(theta))


@settings(max_examples=60, deadline=None)
@given(p=st.floats(min_value=0.01, max_value=0.99), r=st.floats(min_value=0.1, max_value=50.0))
def test_q_and_p_forms_agree_at_q_equal_one_minus_p(p, r):
    q = 1.0 - p
    k = np.arange(0, 3000, dtype=float)
    for q_form, p_form, shared in TWO_FORMS:
        th_q, th_p = {**shared(r), "q": q}, {**shared(r), "p": p}
        assert np.max(np.abs(pmf(q_form, th_q, k) - pmf(p_form, th_p, k))) <= 1e-12
        k_q = LAWS[q_form].kernels["q"](th_q, k)
        k_p = LAWS[p_form].kernels["p"](th_p, k)
        assert np.allclose(k_p, -k_q, rtol=1e-12, atol=0)
        if shared(r):
            assert np.array_equal(
                LAWS[q_form].kernels["r"](th_q, k), LAWS[p_form].kernels["r"](th_p, k)
            )


@pytest.mark.parametrize("name,theta", [
    ("binomial", {"n": 30, "p": 0.3}),
    ("betabinomial", {"n": 12, "r": 1.5, "s": 4.0}),
    ("hypergeometric", {"B": 9, "W": 5, "n": 7}),
])
def test_finite_support_log_normalizers_normalize(name, theta):
    lo, hi = LAWS[name].support(theta)
    k = np.arange(lo, hi + 1)
    assert pmf(name, theta, k).sum() == pytest.approx(1.0, abs=1e-12)


def test_views_share_the_entry_factor():
    # the Table-1 family, the counting law and the pairwise law of one entry
    k = np.arange(0, 40, dtype=float)
    fam = make_family("negbinomial-in-shape", p=0.3)
    counting = make_counting("negbinomial-in-shape", p=0.3)
    law = make_law("negbinomial", r=2.5, p=0.3)
    assert np.array_equal(fam.log_factor(2.5, k), law.log_weight(k))
    assert np.array_equal(counting.log_factor(2.5, k), law.log_weight(k))
    assert np.array_equal(fam.kernel(2.5, k), counting.kernel(2.5, k))
    assert (fam.param_name, counting.param_name) == ("nu", "alpha")


def test_counting_extras_are_the_normalizer_derivative_and_the_slope():
    h = 1e-6
    for name, nu in (("poisson", 2.0), ("geometric", 0.4), ("negbinomial", 0.4),
                     ("binomial", 0.3), ("logseries", 0.5), ("negbinomial-in-shape", 2.0)):
        c = make_counting(name)
        fd = (c.log_normalizer(nu + h) - c.log_normalizer(nu - h)) / (2.0 * h)
        assert c.extras["dlogA"](nu) == pytest.approx(fd, rel=1e-6), name
        if "slope" in c.extras:
            n = np.array([1.0, 2.0, 3.0])
            assert np.allclose(np.diff(c.kernel(nu, n)), c.extras["slope"](nu), rtol=1e-12), name


def test_normalized_keeps_huge_factors_finite():
    grid = discrete_grid(0, 2)
    d = normalized(grid, np.array([1000.0, 1000.0 + math.log(2.0), 1000.0]))
    assert np.allclose(d.masses, [0.25, 0.5, 0.25], atol=1e-15)
    big = law_distribution(make_law("binomial", n=1200, p=0.5))
    assert np.allclose(big.masses, stats.binom(1200, 0.5).pmf(np.arange(1201)), atol=1e-14)


def test_integer_parameters_must_be_whole_in_every_view():
    with pytest.raises(ValueError, match="binomial-in-p: n must be an integer"):
        make_family("binomial-in-p", n=7.5)
    with pytest.raises(ValueError, match="binomial law: n must be an integer"):
        make_law("binomial", n=10.5, p=0.5)
    with pytest.raises(ValueError, match="binomial counting law: n0 must be an integer"):
        make_counting("binomial", n0=2.5)
    with pytest.raises(ValueError, match="betabinomial path: n must be an integer"):
        make_path("betabinomial", n=8.5, r1=1.0, r2=2.0, s1=3.0, s2=2.0)


def test_integer_parameters_stop_at_the_support_ceiling():
    assert catalog.MAX_KMAX == 100_000
    assert make_law("binomial", n=100_000, p=0.5).support == (0.0, 100_000.0)
    for params, name in (({"B": 100_001, "W": 3, "n": 2}, "B"),
                         ({"B": 3, "W": 100_001, "n": 2}, "W")):
        with pytest.raises(ValueError, match=f"hypergeometric law needs {name} <= 100000"):
            make_law("hypergeometric", **params)
    with pytest.raises(ValueError, match="betabinomial-in-r needs n <= 100000"):
        make_family("betabinomial-in-r", n=100_001)


def test_views_show_their_own_parameter_names_in_errors():
    with pytest.raises(ValueError, match="cmp-in-dispersion needs lam in"):
        make_family("cmp-in-dispersion", lam=2.0)
    with pytest.raises(ValueError, match="poisson law needs lambda > 0"):
        make_law("poisson", **{"lambda": -1.0})
    with pytest.raises(ValueError, match="negbinomial counting law needs alpha > 0"):
        make_counting("negbinomial", alpha=0.0)
    with pytest.raises(ValueError, match="gamma path needs parameter 'rho2'"):
        make_path("gamma", r1=1.0, r2=2.0, rho1=2.0)


def test_path_grids_come_from_the_entry():
    bb = path_grid("betabinomial", {"n": 9, "r1": 1, "r2": 2, "s1": 3, "s2": 2}, 400, 2000)
    assert (bb.kind, bb.lower, bb.upper, bb.size) == ("discrete", 0.0, 9.0, 10)
    nb = path_grid("negbinomial", {"r1": 1, "r2": 2, "q1": 0.3, "q2": 0.4}, 250, 2000)
    assert (nb.lower, nb.upper, nb.size) == (0.0, 250.0, 251)
    gamma = path_grid("gamma", {"r1": 1, "r2": 2, "rho1": 2, "rho2": 1}, 400, 500)
    hi = max(float(gammaincinv(r, 1.0 - 1e-9)) / rho for r, rho in ((1, 2), (2, 1)))
    expected = continuous_grid(0.0, hi * 1.05, n=500)
    assert np.array_equal(gamma.points, expected.points) and gamma.step == expected.step


# ---------------------------------------------------------------------------
# the cmp series normalizer


@pytest.mark.parametrize("lam", [0.5, 0.9999, 1.0, 9.0])
@pytest.mark.parametrize("nu", [0.3, 1.0, 2.0])
def test_cmp_log_normalizer_matches_mpmath(lam, nu):
    def term(k):
        return mpmath.exp(k * mpmath.log(lam) - nu * mpmath.loggamma(k + 1))

    with mpmath.workdps(30):
        # direct summation of the first 5000 terms: at lam = 9, nu = 0.3 the
        # terms rise until k ~ 1500, which defeats the extrapolating methods
        ref = float(mpmath.log(mpmath.nsum(term, [0, mpmath.inf], method="direct", steps=[5000])))
    got = LAWS["cmp"].log_normalizer({"lam": lam, "nu": nu})
    assert got == pytest.approx(ref, rel=1e-14, abs=1e-14)


def counted_log_factorial(monkeypatch):
    """The sizes of the arrays the cmp normalizer takes log-factorials of."""
    sizes = []

    def log_factorial_vec(k):
        sizes.append(np.asarray(k).size)
        return real(k)

    real = catalog.log_factorial_vec
    monkeypatch.setattr(catalog, "log_factorial_vec", log_factorial_vec)
    return sizes


def test_cmp_log_normalizer_near_unit_lam_sums_a_bounded_series(monkeypatch):
    sizes = counted_log_factorial(monkeypatch)
    for lam in (0.9999, 0.9999999, 1.0):
        sizes.clear()
        LAWS["cmp"].log_normalizer({"lam": lam, "nu": 0.8})
        assert sizes == [2000], lam


def test_cmp_log_normalizer_doubles_its_series_past_the_peak(monkeypatch):
    sizes = counted_log_factorial(monkeypatch)
    # the terms peak near k = 9**(1/0.3) ~ 1500 and fall 60 below it by ~2300
    LAWS["cmp"].log_normalizer({"lam": 9.0, "nu": 0.3})
    assert sizes == [2000, 4000]
    monkeypatch.setattr(catalog, "_CMP_TERMS", (2000, 8000))
    sizes.clear()
    with pytest.raises(ValueError, match="cmp normalizer: the series needs more than 8000 terms"):
        LAWS["cmp"].log_normalizer({"lam": 2.0, "nu": 0.05})  # peak near 2**20
    assert sizes == [2000, 4000, 8000]
