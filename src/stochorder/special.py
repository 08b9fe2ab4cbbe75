"""Special functions used by the kernel catalogue.

Only three functions are needed: the digamma function (kernels of shape-type
families), log-Pochhammer (rising factorials in negative-binomial and
beta-binomial factors), and log-factorial (base measures of count families).
Each has a scalar form and an array form built on math and numpy only. The
array forms give the scalar's result bit for bit: they perform the same
floating-point operations in the same order per element, and take
logarithms with math.log, whose last bit np.log does not always match.
`log_pochhammer_vec` also takes a column of values a, one row per value,
and gives each row the bits of its call at that a alone.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "digamma",
    "digamma_vec",
    "log_pochhammer",
    "log_pochhammer_vec",
    "log_factorial",
    "log_factorial_vec",
]

# Upward recurrence is applied until the argument reaches this threshold, after
# which the asymptotic series (terms through x**-14) is accurate to < 1e-13.
_DIGAMMA_SERIES_START = 8.0

# Coefficients of psi(x) ~ ln x - 1/(2x) - sum c_j / x**(2j): B_{2j}/(2j).
_DIGAMMA_TAIL = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)

# log (a)_k is summed term by term up to this k, lgamma(a+k) - lgamma(a) beyond.
_POCH_SUM_MAX = 64

# log-factorial lookup: exact compensated cumulative sums for k <= _LOG_FACT_N,
# grown on demand. _log_fact holds the table of log k! for k below its size
# and the Kahan state (total, comp) after its last entry, from which the next
# growth goes on, so every entry has the bits of one eager loop to 10^4.
_LOG_FACT_N = 10_000
_log_fact = (np.zeros(1), 0.0, 0.0)


def _log_fact_table(top: int) -> np.ndarray:
    """The log-factorial table through at least k = min(top, _LOG_FACT_N)."""
    global _log_fact
    table, total, comp = _log_fact
    top = min(top, _LOG_FACT_N)
    if top < table.size:
        return table
    size = min(max(top + 1, 2 * table.size), _LOG_FACT_N + 1)
    sums = []
    for k in range(table.size, size):
        term = math.log(k) - comp
        new_total = total + term
        comp = (new_total - total) - term  # Kahan compensation: within ~2 ulp
        total = new_total
        sums.append(total)
    table = np.concatenate((table, sums))
    _log_fact = table, total, comp
    return table


def digamma(x: float) -> float:
    """psi(x) = Gamma'(x)/Gamma(x) for x > 0.

    Upward recurrence psi(x) = psi(x+1) - 1/x until the argument is >= 8,
    then the de Moivre series. Absolute error is below 1e-12 across
    [1e-3, 1e6] except where the recurrence's own 1/x terms limit double
    precision; 1e-10 is the asserted bound.
    """
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"digamma requires x > 0, got {x!r}")
    acc = 0.0
    while x < _DIGAMMA_SERIES_START:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    tail = 0.0
    power = inv2
    for c in _DIGAMMA_TAIL:
        tail += c * power
        power *= inv2
    return acc + math.log(x) - 0.5 / x - tail


def log_pochhammer(a: float, k: int) -> float:
    """log of the rising factorial (a)_k = a (a+1) ... (a+k-1), a > 0, k >= 0.

    Direct log-summation for small k (exact increment structure), lgamma
    difference beyond.
    """
    a = float(a)
    if not a > 0.0:
        raise ValueError(f"log_pochhammer requires a > 0, got {a!r}")
    if k != int(k) or k < 0:
        raise ValueError(f"log_pochhammer requires integer k >= 0, got {k!r}")
    k = int(k)
    if k > _POCH_SUM_MAX:
        return math.lgamma(a + k) - math.lgamma(a)
    # a plain left-to-right sum, as np.cumsum in log_pochhammer_vec adds;
    # builtin sum() compensates from Python 3.12 on
    total = 0.0
    for j in range(k):
        total += math.log(a + j)
    return total


def log_factorial(k: int) -> float:
    """log k! via the cumulative table for k <= 10^4, lgamma(k+1) beyond."""
    if k != int(k) or k < 0:
        raise ValueError(f"log_factorial requires integer k >= 0, got {k!r}")
    k = int(k)
    if k <= _LOG_FACT_N:
        return float(_log_fact_table(k)[k])
    return math.lgamma(k + 1.0)


def _each(fn, x):
    """fn(x) for a number x, and fn per element for an array: a `math`
    function read on a column of parameter values gives each row the bits
    of its call on that row's value."""
    if not isinstance(x, np.ndarray):
        return fn(x)
    return np.fromiter(map(fn, x.ravel()), float, x.size).reshape(x.shape)


def digamma_vec(x: np.ndarray) -> np.ndarray:
    """Elementwise digamma for positive arrays, equal to `digamma` bit for bit.

    The scalar's recurrence runs per entry, on the entries below the series
    start only; the series then runs on the whole array at once.
    """
    x = np.array(x, dtype=float)
    if not np.all(x > 0.0):
        raise ValueError("digamma_vec requires x > 0")
    acc = np.zeros(x.shape)
    flat_x, flat_acc = x.reshape(-1), acc.reshape(-1)
    for i in np.flatnonzero(flat_x < _DIGAMMA_SERIES_START):
        xi, ai = float(flat_x[i]), 0.0
        while xi < _DIGAMMA_SERIES_START:
            ai -= 1.0 / xi
            xi += 1.0
        flat_x[i], flat_acc[i] = xi, ai
    inv2 = 1.0 / (x * x)
    tail = np.zeros(x.shape)
    power = inv2
    for c in _DIGAMMA_TAIL:
        tail += c * power
        power = power * inv2
    return acc + _each(math.log, x) - 0.5 / x - tail


def log_pochhammer_vec(a, k: np.ndarray) -> np.ndarray:
    """Elementwise log (a)_k over nonnegative integers k, equal to
    `log_pochhammer` bit for bit; a is a number, or a column of numbers
    (shape (rows, 1)) that gives one row per value.

    For k <= 64 the entries index one running sum of log(a + j), which adds
    the same terms in the same order as the scalar; beyond, lgamma(a + k) -
    lgamma(a) as the scalar does.
    """
    column = isinstance(a, np.ndarray)
    a = a.astype(float, copy=False) if column else float(a)
    if not ((a > 0.0).all() if column else a > 0.0):
        raise ValueError(f"log_pochhammer_vec requires a > 0, got {a!r}")
    arr = np.asarray(k)
    if arr.size and (arr.min() < 0 or np.any(arr != np.floor(arr))):
        raise ValueError("log_pochhammer_vec requires nonnegative integers k")
    ki = arr.astype(np.int64)
    top = min(int(ki.max(initial=0)), _POCH_SUM_MAX)
    terms = _each(math.log, a + np.arange(top, dtype=float))
    sums = np.empty(terms.shape[:-1] + (top + 1,))
    sums[..., 0] = 0.0
    np.cumsum(terms, axis=-1, out=sums[..., 1:])
    out = sums[..., np.minimum(ki, _POCH_SUM_MAX)]
    big = ki > _POCH_SUM_MAX
    if np.any(big):
        out[..., big] = _each(math.lgamma, a + ki[big]) - _each(math.lgamma, a)
    return out


def log_factorial_vec(k: np.ndarray) -> np.ndarray:
    """Elementwise log k! for nonnegative integer arrays: one gather from the
    table when it holds every k, lgamma(k+1) for the entries past it."""
    arr = np.asarray(k)
    if arr.size and (np.any(arr < 0) or np.any(arr != np.floor(arr))):
        raise ValueError("log_factorial_vec requires nonnegative integers")
    arr = arr.astype(np.int64)
    top = int(arr.max(initial=0))
    table = _log_fact_table(top)
    if top <= _LOG_FACT_N:
        return np.asarray(table[arr])  # a 0-d k gives a 0-d array, not a scalar
    out = np.empty(arr.shape)
    small = arr <= _LOG_FACT_N
    out[small] = table[arr[small]]
    out[~small] = np.array([math.lgamma(v + 1.0) for v in arr[~small].astype(float)])
    return out
