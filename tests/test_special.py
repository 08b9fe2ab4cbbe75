"""Checks for the scalar special functions against high-precision references.

Reference values were produced with mpmath at 30 significant digits and are
frozen here so the suite never depends on the implementation under test.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochorder.special import (
    digamma,
    digamma_vec,
    log_factorial,
    log_factorial_vec,
    log_pochhammer,
    log_pochhammer_vec,
)

# mpmath.digamma at 30 digits
DIGAMMA_REFERENCE = (
    (0.001, -1000.575571931810279655),
    (0.01, -100.5608854578686724155),
    (0.1, -10.4237549404110762321),
    (0.5, -1.963510026021423479441),
    (1.0, -0.5772156649015328606065),
    (1.5, 0.03648997397857652055902),
    (2.0, 0.4227843350984671393935),
    (5.5, 1.611093148581751123734),
    (8.0, 2.015641477955609996536),
    (12.3, 2.468398400301138290349),
    (10000.0, 9.210290371142849403572),
    (1000000.0, 13.81551005796419077077),
)

# mpmath: psi(z + 1/2) - psi(z); exercises cancellation between close arguments
DIGAMMA_HALF_STEP = (
    (0.5, 1.386294361119890618834),
    (1.0, 0.6137056388801093811655),
    (5.0, 0.1049754801499506510068),
    (50.0, 0.01004999750049978765483),
)


@pytest.mark.parametrize("x,expected", DIGAMMA_REFERENCE)
def test_digamma_reference_values(x, expected):
    assert digamma(x) == pytest.approx(expected, rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("z,expected", DIGAMMA_HALF_STEP)
def test_digamma_half_step_differences(z, expected):
    assert digamma(z + 0.5) - digamma(z) == pytest.approx(expected, rel=1e-12)


def test_digamma_reference_at_100():
    # mpmath: psi(100) = 4.600161852738087400199
    assert digamma(100.0) == pytest.approx(4.600161852738087400199, rel=1e-14)


def test_digamma_rejects_nonpositive():
    with pytest.raises(ValueError):
        digamma(0.0)
    with pytest.raises(ValueError):
        digamma(-1.5)


@given(st.floats(min_value=1e-3, max_value=1e6))
@settings(max_examples=200, deadline=None)
def test_digamma_recurrence(x):
    # psi(x+1) = psi(x) + 1/x
    lhs = digamma(x + 1.0)
    rhs = digamma(x) + 1.0 / x
    assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)


@given(st.floats(min_value=0.01, max_value=1e5), st.floats(min_value=1e-6, max_value=10.0))
@settings(max_examples=200, deadline=None)
def test_digamma_strictly_increasing(x, step):
    assert digamma(x + step) > digamma(x)


def test_digamma_vec_matches_scalar():
    xs = np.array([0.3, 1.0, 2.5, 9.0, 120.0])
    vec = digamma_vec(xs)
    for x, v in zip(xs, vec):
        assert v == digamma(x)


@given(
    st.lists(
        st.one_of(
            st.floats(min_value=1e-3, max_value=8.5),
            st.floats(min_value=8.5, max_value=1e6),
        ),
        max_size=80,
    )
)
@settings(max_examples=200, deadline=None)
def test_digamma_vec_equals_the_scalar_bit_for_bit(xs):
    # empty to long arrays, entries on both sides of the series start
    arr = np.array(xs, dtype=float)
    vec = digamma_vec(arr)
    assert vec.shape == arr.shape
    assert [float(v) for v in vec] == [digamma(x) for x in xs]


def test_digamma_vec_keeps_the_shape_and_rejects_nonpositive():
    xs = np.linspace(0.05, 40.0, 60).reshape(3, 20)
    assert np.array_equal(digamma_vec(xs), np.vectorize(digamma)(xs))
    for bad in (np.array([1.0, 0.0]), np.linspace(-1.0, 5.0, 40)):
        with pytest.raises(ValueError):
            digamma_vec(bad)


def test_log_pochhammer_small_k_exact_products():
    # (1)_4 = 24, (2.5)_3 = 2.5 * 3.5 * 4.5
    assert log_pochhammer(1.0, 4) == pytest.approx(3.178053830347945619647, rel=1e-15)
    assert log_pochhammer(2.5, 3) == pytest.approx(3.673131097145797134245, rel=1e-15)
    assert log_pochhammer(7.0, 0) == 0.0


def test_log_pochhammer_large_k_matches_lgamma():
    a, k = 0.7, 500
    assert log_pochhammer(a, k) == pytest.approx(
        math.lgamma(a + k) - math.lgamma(a), rel=1e-14
    )


@given(
    st.floats(min_value=0.05, max_value=50.0),
    st.integers(min_value=0, max_value=200),
)
@settings(max_examples=200, deadline=None)
def test_log_pochhammer_recurrence(a, k):
    # (a)_{k+1} = (a)_k * (a + k)
    assert log_pochhammer(a, k + 1) == pytest.approx(
        log_pochhammer(a, k) + math.log(a + k), rel=1e-12, abs=1e-12
    )


def test_log_pochhammer_rejects_bad_arguments():
    with pytest.raises(ValueError):
        log_pochhammer(0.0, 3)
    with pytest.raises(ValueError):
        log_pochhammer(1.0, -1)
    with pytest.raises(ValueError):
        log_pochhammer(1.0, 2.5)


@given(
    st.floats(min_value=1e-3, max_value=1e4),
    st.lists(st.integers(min_value=0, max_value=300), max_size=40),
)
@settings(max_examples=300, deadline=None)
def test_log_pochhammer_vec_matches_the_scalar(a, ks):
    # empty, unsorted and straddling the k = 64 switch to lgamma
    vec = log_pochhammer_vec(a, np.array(ks, dtype=float))
    assert vec.shape == (len(ks),)
    for k, v in zip(ks, vec):
        if k <= 64:
            assert v == log_pochhammer(a, k)
        else:
            direct = math.fsum(math.log(a + j) for j in range(k))
            assert v == pytest.approx(direct, rel=1e-12)
            assert v == pytest.approx(log_pochhammer(a, k), rel=1e-12)


def test_log_pochhammer_vec_rejects_bad_arguments():
    for a in (0.0, -2.0, math.nan):
        with pytest.raises(ValueError):
            log_pochhammer_vec(a, np.arange(5.0))
    with pytest.raises(ValueError):
        log_pochhammer_vec(1.0, np.array([3.0, -1.0]))
    with pytest.raises(ValueError):
        log_pochhammer_vec(1.0, np.array([2.5]))


def test_log_factorial_reference_values():
    assert log_factorial(0) == 0.0
    assert log_factorial(1) == 0.0
    assert log_factorial(4) == pytest.approx(3.178053830347945619647, rel=1e-15)
    # mpmath: log(170!) and log(12000!); the second exceeds the table range
    assert log_factorial(170) == pytest.approx(706.5730622457873471107, rel=1e-14)
    assert log_factorial(12000) == pytest.approx(100717.5584216836825317, rel=1e-14)


@given(st.integers(min_value=0, max_value=11000))
@settings(max_examples=200, deadline=None)
def test_log_factorial_recurrence(k):
    assert log_factorial(k + 1) == pytest.approx(
        log_factorial(k) + math.log(k + 1), rel=1e-12, abs=1e-12
    )


def test_log_factorial_rejects_bad_arguments():
    with pytest.raises(ValueError):
        log_factorial(-1)
    with pytest.raises(ValueError):
        log_factorial(1.5)


def test_log_factorial_vec_matches_scalar_across_table_boundary():
    ks = np.array([0, 1, 17, 9999, 10000, 10001, 12000])
    vec = log_factorial_vec(ks)
    for k, v in zip(ks, vec):
        assert v == pytest.approx(log_factorial(int(k)), rel=1e-15)


def test_log_factorial_vec_rejects_negative_and_fractional():
    with pytest.raises(ValueError):
        log_factorial_vec(np.array([2, -1]))
    with pytest.raises(ValueError):
        log_factorial_vec(np.array([2.5]))
