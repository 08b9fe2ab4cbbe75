"""The law table and its views: parametrizations, normalizers, parameter
checks, path families and path grids."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from stochorder import catalog, cli, compound, pairwise
from stochorder.catalog import (
    LAWS,
    Factored,
    default_grid,
    density,
    discrete_grid,
    make_family,
    normalized,
    parse_spec,
)
from stochorder.compound import TABLE2_ROWS, make_counting
from stochorder.special import log_pochhammer_vec
from stochorder.pairwise import (
    PATH_NAMES, law_distribution, make_law, path_family,
)
from test_catalog import full_range_span

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


def test_counting_kernel_carries_the_normalizer_derivative_and_the_slope():
    # d/dnu log A = E_nu[G_nu(N)] under the counting pmf, and on the Table-2
    # rows G's step in n is the constant slope b(nu) of the recorded sign
    h = 1e-6
    signs = {name: sign for name, sign, _, _ in TABLE2_ROWS}
    for name, nu in (("poisson", 2.0), ("geometric", 0.4), ("negbinomial", 0.4),
                     ("binomial", 0.3), ("logseries", 0.5), ("negbinomial-in-shape", 2.0)):
        c = make_counting(name)
        fd = (c.log_normalizer(nu + h) - c.log_normalizer(nu - h)) / (2.0 * h)
        grid = default_grid(c, [nu])
        mean = float(np.dot(density(c, nu, grid).masses, c.kernel(nu, grid.points)))
        assert mean == pytest.approx(fd, rel=1e-6), name
        if name in signs:
            steps = np.diff(c.kernel(nu, c.support[0] + np.arange(4.0)))
            assert np.allclose(steps, steps[0], rtol=1e-12), name
            assert ("+" if steps[0] > 0 else "-") == signs[name], name


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
        path_family("betabinomial", {"n": 8.5, "r1": 1.0, "r2": 2.0, "s1": 3.0, "s2": 2.0})


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
        path_family("gamma", {"r1": 1.0, "r2": 2.0, "rho1": 2.0})


class GridSeen(Exception):
    pass


def cli_path_grid(spec, *options):
    """The grid `path --name spec` checks its path on, caught before the check;
    the command imports `check_path_order` from `pairwise` when it runs."""

    def stop(*args, grid, **kwargs):
        raise GridSeen(grid)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pairwise, "check_path_order", stop)
        with pytest.raises(GridSeen) as seen:
            cli.main(["path", "--name", spec, *options])
    return seen.value.args[0]


def same_grid(a, b):
    return (a.kind, a.lower, a.upper, a.step, a.truncation_tail_mass) == (
        b.kind, b.lower, b.upper, b.step, b.truncation_tail_mass
    ) and np.array_equal(a.points, b.points)


T_SCAN = np.linspace(0.0, 1.0, 33)  # the default --t-points scan


def test_path_grids_come_from_the_entry():
    bb = cli_path_grid("betabinomial:n=9,r1=1,r2=2,s1=3,s2=2")
    assert (bb.kind, bb.lower, bb.upper, bb.size) == ("discrete", 0.0, 9.0, 10)
    # the path family's default_grid over the scan, as `check` takes over nu
    for spec, kmax, points in (("negbinomial:r1=1,r2=2,q1=0.3,q2=0.4", 250, 2000),
                               ("gamma:r1=1,r2=2,rho1=2,rho2=1", 10_000, 500)):
        grid = cli_path_grid(spec, f"--kmax={kmax}", f"--grid-points={points}")
        fam = path_family(*parse_spec(spec))
        assert same_grid(grid, default_grid(fam, T_SCAN, kmax=kmax, grid_points=points))


@settings(max_examples=40, deadline=None)
@given(r=st.lists(st.floats(0.3, 20.0), min_size=2, max_size=2).map(sorted),
       q=st.lists(st.floats(0.05, 0.9), min_size=2, max_size=2).map(sorted))
def test_negbinomial_path_grids_end_at_the_largest_tail_cut(r, q):
    spec = f"negbinomial:r1={r[0]!r},r2={r[1]!r},q1={q[0]!r},q2={q[1]!r}"
    fam = path_family(*parse_spec(spec))
    cuts = [full_range_span(fam, t, 10_000, 1e-12) for t in T_SCAN]
    grid = cli_path_grid(spec)
    assert (grid.lower, grid.upper) == (0.0, max(k for k, _ in cuts))
    assert grid.truncation_tail_mass == max(0.0, *(tail for _, tail in cuts))


def test_path_grids_leave_no_tail_past_the_cut():
    # the grid used to stop at --kmax = 400, where the law at t = 1 still
    # had 24% of its mass to the right
    grid = cli_path_grid("negbinomial:r1=2,r2=40,q1=0.5,q2=0.9")
    for r, q in ((2, 0.5), (40, 0.9)):
        assert stats.nbinom.sf(grid.upper, r, 1.0 - q) <= 1e-12
    assert stats.nbinom.sf(400, 40, 0.1) > 0.24


# named path: (the table law it moves through, its two moved parameters)
PATH_MOVES = {
    "negbinomial": ("negbinomial-q", ("r", "q")),
    "betabinomial": ("betabinomial", ("r", "s")),
    "gamma": ("gamma", ("r", "rho")),
}
PATH_SPECS = {
    "negbinomial": "negbinomial:r1=1,r2=2,q1=0.3,q2=0.4",
    "betabinomial": "betabinomial:n=9,r1=1,r2=2,s1=3,s2=2",
    "gamma": "gamma:r1=1,r2=2,rho1=2,rho2=1",
}


def path_end(params, end):
    """The law's parameters at end "1" or "2" of a named path's spec."""
    return {k[:-1] if k[-1] in "12" else k: v for k, v in params.items()
            if k[-1] not in "12" or k[-1] == end}


def path_points(name):
    return np.linspace(0.5, 9.0, 18) if name == "gamma" else np.arange(10.0)


@settings(max_examples=40, deadline=None)
@given(t=st.floats(0.0, 1.0), name=st.sampled_from(sorted(PATH_SPECS)))
@example(t=0.0, name="negbinomial")
@example(t=1.0, name="negbinomial")
def test_path_family_kernel_is_the_chain_rule_kernel(t, name):
    # K_t = sum_i (end_i - start_i) K^(i)(theta(t), x), built from the spec here
    assert sorted(PATH_SPECS) == sorted(PATH_MOVES) == sorted(PATH_NAMES)
    _, params = parse_spec(PATH_SPECS[name])
    fam = path_family(name, params)
    law_name, moved = PATH_MOVES[name]
    start, end = path_end(params, "1"), path_end(params, "2")
    theta = {**start, **{p: start[p] + t * (end[p] - start[p]) for p in moved}}
    x = path_points(name)
    kernels = LAWS[law_name].kernels
    reference = sum((end[p] - start[p]) * kernels[p](theta, x) for p in moved)
    assert np.allclose(fam.kernel(t, x), reference, rtol=1e-13, atol=1e-13)
    # and the kernel is d/dt of the family's log factor, by a second-order
    # difference whose points stay in [0, 1], where the family is defined
    h = 1e-5
    if h <= t <= 1.0 - h:
        slope = (fam.log_factor(t + h, x) - fam.log_factor(t - h, x)) / (2.0 * h)
    else:
        d = h if t < h else -h
        slope = (-3.0 * fam.log_factor(t, x) + 4.0 * fam.log_factor(t + d, x)
                 - fam.log_factor(t + 2.0 * d, x)) / (2.0 * d)
    assert np.allclose(fam.kernel(t, x), slope, rtol=1e-6, atol=1e-6)
    assert fam.validate_param(t) == t


@pytest.mark.parametrize("name", sorted(PATH_SPECS))
def test_path_family_ends_are_the_table_laws_at_the_spec_ends(name):
    _, params = parse_spec(PATH_SPECS[name])
    fam = path_family(name, params)
    law = LAWS[PATH_MOVES[name][0]]
    x = path_points(name)
    assert np.array_equal(fam.log_factor(0.0, x), law.log_factor(path_end(params, "1"), x))
    assert np.allclose(fam.log_factor(1.0, x), law.log_factor(path_end(params, "2"), x),
                       rtol=1e-14, atol=1e-14)


# ---------------------------------------------------------------------------
# kernels that do not depend on the varied parameters


def varied_parameters():
    """law -> the parameters some family, counting law or named path varies."""
    out: dict[str, set] = {}
    views = [*catalog._FAMILIES.values(), *compound._COUNTING.values()]
    for law, p in [(v.law, v.varied) for v in views if v.varied is not None] + [
            (law, p) for law, moves in pairwise._PATHS.values() for p, _ in moves]:
        out.setdefault(law, set()).add(p)
    return out


def parameter_values(law, p):
    """Values inside the domain of the law's parameter p."""
    lo, hi = LAWS[law].domains[p]
    if p in LAWS[law].integers:
        return st.integers(int(lo), min(int(hi), 50))
    return st.floats(max(lo, -20.0) + 0.01, min(hi - 0.01, 20.0))


FIXED = sorted((law, p) for law, entry in LAWS.items() for p in entry.fixed_kernels)
# kernels a(theta) T + b(theta), whose statistic T obeys the same rule
FACTORED = sorted((law, p) for law, entry in LAWS.items()
                  for p, kernel in entry.kernels.items() if isinstance(kernel, Factored))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), entry=st.sampled_from(FIXED + FACTORED))
def test_declared_kernels_give_the_same_bits_at_every_varied_parameter(data, entry):
    law_name, declared = entry
    law, varied = LAWS[law_name], varied_parameters()[law_name]
    assert declared in law.kernels and declared in varied
    kernel = law.kernels[declared]
    if entry in FACTORED:
        kernel = kernel.statistic
    a = {p: data.draw(parameter_values(law_name, p)) for p in law.domains}
    b = {p: data.draw(parameter_values(law_name, p).filter(lambda v, p=p: v != a[p]))
         if p in varied else v for p, v in a.items()}
    lo, hi = law.support(a)  # it reads no varied parameter
    x = lo + (np.arange(200.0) if law.kind == "discrete"
              else np.linspace(0.0, min(hi - lo, 30.0), 202)[1:-1])
    ka, kb = (np.asarray(kernel(th, x), dtype=float) for th in (a, b))
    assert ka.tobytes() == kb.tobytes()


def built_once(family):
    """"fixed", "factored" or None, from the family's factor."""
    if family.factor is None:
        return None
    return "fixed" if family.factor[0] is None else "factored"


def test_families_and_paths_carry_the_declaration():
    families = {name: built_once(catalog.make_family(name)) for name in catalog.FAMILY_NAMES}
    assert sorted(name for name, how in families.items() if how == "fixed") == [
        "beta-in-alpha", "beta-in-beta", "cmp-in-dispersion", "exponential-in-rate",
        "gamma-in-rate", "gamma-in-shape", "pareto-in-shape", "weibull-in-rate"]
    assert sorted(name for name, how in families.items() if how == "factored") == [
        "binomial-in-p", "geometric", "halfnormal-in-scale", "lognormal-in-mu", "logseries",
        "negbinomial-in-q", "poisson"]
    assert {name: built_once(make_counting(name)) for name in compound.COUNTING_NAMES} == {
        "binomial": "factored", "geometric": "factored", "logseries": "factored",
        "negbinomial": "factored", "negbinomial-in-shape": None, "poisson": "factored"}
    # a path's kernel is fixed when every moved parameter's kernel is
    assert {name: built_once(path_family(*parse_spec(spec)))
            for name, spec in PATH_SPECS.items()} == {
        "negbinomial": None, "betabinomial": None, "gamma": "fixed"}


# ---------------------------------------------------------------------------
# the zero-inflated exponential's atom


ZIE = LAWS["zero-inflated-exponential"]


def _zie_where_forms(th, x):
    """The zero-inflated exponential's log factor and kernel as np.where
    selections over the whole grid."""
    pi, theta = th["pi"], th["theta"]
    return (np.where(x == 0.0, math.log1p(-pi), math.log(pi) + math.log(theta) - theta * x),
            np.where(x == 0.0, 0.0, 1.0 / theta - x))


@settings(max_examples=200, deadline=None)
@given(pi=st.floats(1e-6, 1.0 - 1e-6), theta=st.floats(1e-3, 1e3),
       x=st.one_of(st.lists(st.one_of(st.just(0.0), st.just(-0.0), st.floats(0.0, 1e4)),
                            min_size=1, max_size=30).map(np.array),
                   st.one_of(st.just(0.0), st.floats(0.0, 1e4))))
@example(pi=0.4, theta=1.0, x=np.array([0.0, 0.5, 1.5]))
@example(pi=0.4, theta=2.0, x=0.0)
def test_zie_factor_and_kernel_equal_their_where_forms_bit_for_bit(pi, theta, x):
    # the atom's value written over the body at x == 0, on a grid or at a scalar
    th = {"pi": pi, "theta": theta}
    got = ZIE.log_factor(th, x), ZIE.kernels["theta"](th, x)
    for a, b in zip(got, _zie_where_forms(th, x)):
        assert np.shape(a) == np.shape(b) and np.asarray(a).tobytes() == b.tobytes()


@settings(max_examples=20, deadline=None)
@given(nu=st.floats(0.1, 10.0), points=st.integers(2, 400))
def test_zie_family_on_its_mixed_grid_equals_the_where_forms(nu, points):
    fam = make_family("zero-inflated-exponential")
    grid = default_grid(fam, [nu], grid_points=points)
    th = {"pi": fam.fixed_params["pi"], "theta": nu}
    log_factor, kernel = _zie_where_forms(th, grid.points)
    assert fam.log_factor(nu, grid.points).tobytes() == log_factor.tobytes()
    assert np.asarray(fam.kernel(nu, grid.points)).tobytes() == kernel.tobytes()


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


def counted_cmp_sums(monkeypatch):
    """The term counts of the series the cmp normalizer sums, one per sum."""
    sizes = []

    def cmp_terms(n):
        sizes.append(n)
        return real(n)

    real = catalog._cmp_terms
    monkeypatch.setattr(catalog, "_cmp_terms", cmp_terms)
    return sizes


def test_cmp_log_normalizer_builds_its_log_factorials_once_per_term_count(monkeypatch):
    built = []
    real = catalog.log_factorial_vec
    monkeypatch.setattr(catalog, "log_factorial_vec", lambda k: built.append(k.size) or real(k))
    catalog._cmp_terms.cache_clear()
    try:
        values = [LAWS["cmp"].log_normalizer({"lam": 0.5, "nu": nu}) for nu in (0.8, 1.2, 1.6)]
    finally:
        catalog._cmp_terms.cache_clear()
    assert built == [2000]
    # the bits of a sum that builds its own log-factorials
    for value, nu in zip(values, (0.8, 1.2, 1.6)):
        ks = np.arange(2000, dtype=float)
        logs = ks * math.log(0.5) - nu * real(ks)
        m = logs.max()
        assert value == float(m + math.log(np.exp(logs - m).sum()))


def test_cmp_log_normalizer_near_unit_lam_sums_a_bounded_series(monkeypatch):
    sizes = counted_cmp_sums(monkeypatch)
    for lam in (0.9999, 0.9999999, 1.0):
        sizes.clear()
        LAWS["cmp"].log_normalizer({"lam": lam, "nu": 0.8})
        assert sizes == [2000], lam


def test_cmp_log_normalizer_doubles_its_series_past_the_peak(monkeypatch):
    sizes = counted_cmp_sums(monkeypatch)
    # the terms peak near k = 9**(1/0.3) ~ 1500 and fall 60 below it by ~2300
    LAWS["cmp"].log_normalizer({"lam": 9.0, "nu": 0.3})
    assert sizes == [2000, 4000]
    monkeypatch.setattr(catalog, "_CMP_TERMS", (2000, 8000))
    sizes.clear()
    with pytest.raises(ValueError, match="cmp normalizer: the series needs more than 8000 terms"):
        LAWS["cmp"].log_normalizer({"lam": 2.0, "nu": 0.05})  # peak near 2**20
    assert sizes == [2000, 4000, 8000]


# ---------------------------------------------------------------------------
# blocks of scanned values: a column of parameter values, one row each

# what a scan reads in blocks: the log factors of the laws on an infinite
# discrete support (their tail cuts) and the kernels a view scans that are
# neither fixed nor given only as a statistic, each in a parameter some view
# or path moves; the q kernel is `Factored`, called whole by the path
BLOCK_READS = [
    ("poisson", "theta", "log_factor"),
    ("geometric-q", "q", "log_factor"),
    ("geometric-p", "p", "log_factor"),
    ("negbinomial-q", "r", "log_factor"),
    ("negbinomial-q", "q", "log_factor"),
    ("negbinomial-p", "r", "log_factor"),
    ("negbinomial-p", "p", "log_factor"),
    ("logseries", "theta", "log_factor"),
    ("cmp", "nu", "log_factor"),
    ("zero-inflated-poisson", "theta", "log_factor"),
    ("negbinomial-q", "r", "kernel"),
    ("negbinomial-q", "q", "kernel"),
    ("negbinomial-p", "r", "kernel"),
    ("betabinomial", "r", "kernel"),
    ("betabinomial", "s", "kernel"),
    ("zero-inflated-poisson", "theta", "kernel"),
    ("gumbel", "mu", "kernel"),
    ("half-student", "nu", "kernel"),
    ("zero-inflated-exponential", "theta", "kernel"),
]


def in_domain(law, p):
    """Values of the law's parameter p inside its domain: -0.0 among the real
    ones, and log-Pochhammer arguments past its summed range."""
    if p in LAWS[law].integers:
        return st.integers(1, 60)
    lo, hi = LAWS[law].domains[p]
    if (lo, hi) == (0.0, 1.0):
        return st.floats(1e-6, 1.0 - 1e-6)
    if lo == 0.0:
        return st.floats(1e-3, 1e3)
    return st.one_of(st.just(-0.0), st.floats(-50.0, 50.0))


@st.composite
def block_reads(draw):
    """A law function, its fixed parameters, a column of values of the
    scanned one and the points it reads."""
    law, p, name = draw(st.sampled_from(BLOCK_READS))
    table = LAWS[law]
    fixed = {q: draw(in_domain(law, q)) for q in table.domains if q != p}
    values = draw(st.lists(in_domain(law, p), min_size=1, max_size=8))
    if table.kind == "discrete":
        lo, hi = table.support(fixed)
        if not math.isfinite(hi):
            hi = lo + draw(st.integers(0, 200))
        x = np.arange(lo, hi + 1.0)  # k = 0 is zip's atom
    else:
        # the zero-inflated exponential's atom at 0; gumbel kernels that
        # underflow to -0.0 far above mu
        x = np.sort(np.array(draw(st.lists(st.floats(0.0, 800.0), min_size=1, max_size=40))
                             + [0.0, -0.0]))
    fn = table.kernels[p] if name == "kernel" else table.log_factor
    return fn, fixed, p, values, x


@settings(max_examples=300, deadline=None)
@given(case=block_reads())
def test_a_block_of_values_gives_each_row_the_bits_of_its_own_call(case):
    fn, fixed, p, values, x = case
    block = np.asarray(fn({**fixed, p: np.array(values)[:, None]}, x), dtype=float)
    assert block.shape == (len(values), x.size)
    for value, row in zip(values, block):
        assert row.tobytes() == np.asarray(fn({**fixed, p: value}, x), dtype=float).tobytes()


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(["negbinomial", "betabinomial"]),
       ts=st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), min_size=1,
                   max_size=8),
       r=st.tuples(st.floats(0.01, 50.0), st.floats(0.01, 50.0)),
       other=st.tuples(st.floats(0.01, 0.99), st.floats(0.01, 0.99)))
def test_a_path_reads_a_block_of_t_with_the_bits_of_each_t(name, ts, r, other):
    r1, r2 = sorted(r)
    if name == "negbinomial":
        params = {"r1": r1, "r2": r2, "q1": min(other), "q2": max(other)}
    else:
        params = {"n": 30, "r1": r1, "r2": r2, "s1": 60 * max(other), "s2": 60 * min(other)}
    fam = path_family(name, params)
    ks = np.arange(0.0, 150.0 if name == "negbinomial" else 31.0)
    column = np.array(ts)[:, None]
    reads = [fam.kernel] + ([fam.log_factor] if name == "negbinomial" else [])
    for fn in reads:
        block = fn(column, ks)
        assert block.shape == (len(ts), ks.size)
        for t, row in zip(ts, block):
            assert row.tobytes() == np.asarray(fn(t, ks)).tobytes()


@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.floats(1e-3, 1e4), min_size=1, max_size=6),
       top=st.integers(0, 300))
def test_log_pochhammer_reads_a_column_of_a_row_by_row(values, top):
    ks = np.arange(0.0, top + 1.0)
    block = log_pochhammer_vec(np.array(values)[:, None], ks)
    for a, row in zip(values, block):
        assert row.tobytes() == log_pochhammer_vec(a, ks).tobytes()
