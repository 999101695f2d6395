"""Reinforcement laws: maps from traversal-count vectors to move probabilities.

A law with ``d`` moves sends a vector of non-negative integer counts
``p = (p_1, ..., p_d)`` (how often each oriented move has been taken) to a
strictly positive probability vector over the ``d`` moves.  Built-in families:

* ``UniformLaw`` -- constant ``1/d`` regardless of history.
* ``DirichletLaw`` -- the Polya urn rule ``(alpha_i + p_i) / sum_j (alpha_j + p_j)``.
* ``PolynomialDirichletLaw`` -- the urn rule modulated by a homogeneous
  polynomial with non-negative coefficients, evaluated through rising
  factorials (see :class:`RisingPolynomial`).
* ``TabulatedLaw`` -- explicit values on a finite box of counts.

Probabilities are exposed both linearly (:meth:`ReinforcementLaw.weights`)
and in log space (:meth:`ReinforcementLaw.log_weights`); long products
downstream are always accumulated in log space.

Tables over many count vectors (the box of ``derive-law``) use
:meth:`ReinforcementLaw.log_weights_batch`, which takes an ``[N, d]`` array
of counts and returns the ``[N, d]`` log weights.  Its contract is bitwise:
row ``r`` has exactly the bits of the per-point log weights at
``counts[r]``, in one array pass where :func:`array_rows` holds.  An array
path must keep every float operation: the same ufuncs on the same operands
in the same order, columns added left to right as the scalar code adds
them, and ``math.log`` where the scalar code takes it, for numpy's ``log``
rounds some values apart.

Log rising factorials ``log (y)_k = log y(y+1)...(y+k-1)`` at integer counts
are sums of logs, ``cumsum(log(y + arange(K)))`` read with the counts as
indices (:class:`LogRisingTable`, the columns of :class:`RisingPolynomial`),
not differences of log-gammas, which cancel at large ``y``.  Every path adds
the same logs in the same order, so a scalar and a batch evaluation of one
quantity keep the same bits.  Past :data:`RISING_TABLE_CAP` counts a log
rising factorial is a difference of Stirling forms, whose correction terms
come from :func:`stirling_correction`.

The same correction gives the regularised incomplete gamma ratios
(:func:`regularised_gamma`, and :func:`log_lower_gamma` for a lower tail
below the floats), from which ``compare`` takes the chi-square tail
probability of its empirical mode, using only ``math``: the power series
below ``x = a + 1``, the finite sum of the upper tail from there on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial, reduce, wraps
from itertools import product
from operator import add
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DimensionMismatchError, TableDomainError

#: Absolute tolerance on the sum of a probability vector.
SIMPLEX_SUM_TOL = 1e-12

#: Weights below this threshold are rejected as numerically zero.
MIN_WEIGHT = 1e-300

Counts = tuple[int, ...]


def check_simplex(ws: tuple[float, ...]) -> tuple[float, ...]:
    """Return ``ws`` if it is a probability vector with strictly positive coordinates.

    ``ws`` must be non-empty, sum to 1 within :data:`SIMPLEX_SUM_TOL`, and
    each weight must lie in ``[MIN_WEIGHT, 1]``; NaN fails the lower bound.
    Raises ``ValueError`` otherwise.  Callers pass builtin floats.
    """
    if not ws:
        raise ValueError("simplex point needs at least one coordinate")
    total = math.fsum(ws)
    if abs(total - 1.0) > SIMPLEX_SUM_TOL:
        raise ValueError(f"weights sum to {total!r}, not 1")
    for w in ws:
        if not (w >= MIN_WEIGHT):
            raise ValueError(f"weight {w!r} is not strictly positive")
        if w > 1.0:
            raise ValueError(f"weight {w!r} exceeds 1")
    return ws


#: Rows of :func:`check_simplex_rows` whose ``np.sum`` lies this close to the
#: tolerance are decided by ``math.fsum``.  ``np.sum`` of ``d`` weights that
#: sum to about 1 errs by less than ``d`` ulps of 1, so from ``d`` = 450 on the
#: margin grows to ``d`` ulps.
_ROW_SUM_MARGIN = 1e-13


def check_simplex_rows(rows: np.ndarray) -> np.ndarray:
    """:func:`check_simplex` of every row of an ``[N, d]`` float array; returns ``rows``.

    One array pass accepts the rows whose ``np.sum`` is within
    :data:`SIMPLEX_SUM_TOL` of 1 by more than a margin, and whose weights
    all lie in ``[MIN_WEIGHT, 1]``.  Every other row, those near the
    tolerance included, goes to :func:`check_simplex`, which decides by
    ``math.fsum`` and raises its error on the first row it rejects.
    """
    if not rows.size:
        return rows
    margin = max(_ROW_SUM_MARGIN, rows.shape[1] * 2.0**-52)
    with np.errstate(invalid="ignore", over="ignore"):
        deviation = np.abs(rows.sum(axis=1) - 1.0)
        # NaN fails every comparison
        if (
            deviation.max() <= SIMPLEX_SUM_TOL - margin
            and rows.min() >= MIN_WEIGHT
            and rows.max() <= 1.0
        ):
            return rows
        sure = deviation <= SIMPLEX_SUM_TOL - margin
        sure &= ((rows >= MIN_WEIGHT) & (rows <= 1.0)).all(axis=1)
    for r in np.flatnonzero(~sure).tolist():
        check_simplex(tuple(rows[r].tolist()))
    return rows


@dataclass(frozen=True)
class SimplexPoint:
    """A probability vector with strictly positive coordinates.

    Every weight must lie in ``(0, 1]`` (at least :data:`MIN_WEIGHT`) and the
    weights must sum to 1 within :data:`SIMPLEX_SUM_TOL`.  For dimension 1 the
    single weight is exactly 1.  See :func:`check_simplex`.
    """

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        # normalize numpy scalars so downstream serialization sees builtins
        object.__setattr__(
            self, "weights", check_simplex(tuple(float(w) for w in self.weights))
        )

    @property
    def dim(self) -> int:
        return len(self.weights)

    def log_weights(self) -> np.ndarray:
        return np.log(self.weights)


#: Floats in one intermediate array of a batch evaluation; larger batches go in blocks.
BATCH_ELEMENTS = 1 << 15


def batch_counts(counts: np.ndarray | Sequence[Sequence[int]], dimension: int) -> np.ndarray:
    """Check an ``[N, d]`` table of non-negative integer counts; return it as int64."""
    arr = np.asarray(counts)
    if arr.size == 0:
        arr = arr.astype(np.int64).reshape(-1, dimension)
    if arr.ndim != 2 or arr.shape[1] != dimension:
        raise DimensionMismatchError(
            f"counts of shape {arr.shape} do not form rows of dimension {dimension}"
        )
    if arr.dtype.kind not in "iu" or (arr.size and arr.min() < 0):
        raise ValueError("counts must be non-negative integers")
    return arr.astype(np.int64, copy=False)


def distinct_rows(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of an ``[N, d]`` array of non-negative int64 counts.

    Returns the index of each distinct row's first occurrence and, for
    every row, the position of its distinct row among those.  Rows are
    compared as one mixed-radix integer each when that fits in int64.
    """
    n, d = counts.shape
    radix = int(counts.max()) + 1 if n else 1
    if radix**d < 1 << 62:
        keys = counts @ (radix ** np.arange(d, dtype=np.int64))
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    else:
        _, first, inverse = np.unique(counts, axis=0, return_index=True, return_inverse=True)
    return first, inverse.reshape(-1)


def as_counts(values: Sequence[int]) -> Counts:
    """Validate and normalize a traversal-count vector to a tuple of builtin ints.

    A tuple of non-negative builtin ints is returned as it is, the caller's own.
    """
    if type(values) is tuple:
        for v in values:
            if type(v) is not int or v < 0:
                break
        else:
            return values
    out = []
    for v in values:
        try:
            iv = int(v)
        except (TypeError, ValueError, OverflowError):
            iv = -1  # NaN, an infinity, None: rejected below
        if iv != v or iv < 0:
            raise ValueError(f"counts must be non-negative integers, got {v!r}")
        out.append(iv)
    return tuple(out)


def check_counts(counts: Sequence[int], dimension: int, noun: str) -> Counts:
    """:func:`as_counts` of ``counts``, which the ``noun`` of ``dimension`` moves must match."""
    c = as_counts(counts)
    if len(c) != dimension:
        raise DimensionMismatchError(
            f"counts {c} have dimension {len(c)}, {noun} expects {dimension}"
        )
    return c


def check_alpha(alpha: Sequence[float]) -> np.ndarray:
    """Validate a Dirichlet parameter vector and return it as a float array.

    Entries must be finite and strictly positive, and their total must have a
    finite log-gamma (``math.lgamma`` raises ``OverflowError`` past about
    2.55e305).  A log rising factorial past :data:`RISING_TABLE_CAP` no
    longer needs it (a total that large takes the Stirling difference), but
    the check stays so that the same inputs are rejected.
    """
    arr = np.asarray(alpha, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("alpha must be a non-empty vector")
    if not np.all(arr > 0):
        raise ValueError("alpha entries must be strictly positive")
    if not np.all(np.isfinite(arr)):
        raise ValueError("alpha entries must be finite")
    with np.errstate(over="ignore"):
        total = float(arr.sum())
    try:
        finite = math.isfinite(math.lgamma(total))
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(f"alpha total {total!r} overflows log-gamma")
    return arr


def draw_index(weights: Sequence[float], u: float) -> int:
    """Inverse-CDF categorical draw from one uniform variate ``u`` in [0, 1)."""
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if u < acc:
            return i
    return len(weights) - 1


#: From this length on numpy's ``sum`` adds in pairwise blocks; below it, left to right.
PAIRWISE_SUM_MIN = 8


def sum_as_numpy(values: list[float]) -> float:
    """``np.sum(values)`` bit for bit, without building an array for short lists.

    Not the builtin ``sum``: from Python 3.12 on it compensates rounding.
    """
    if len(values) < PAIRWISE_SUM_MIN:
        return reduce(add, values)
    return float(np.sum(values))


#: From this argument on :func:`stirling_correction` sums its series, and the
#: rising factorials past the cap and the incomplete gamma ratios are built on
#: it; below it they read ``math.lgamma`` or ``math.gamma``, which cannot
#: cancel there.
STIRLING_SERIES_MIN = 10.0

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

#: ``B_2k / (2k (2k - 1))`` for k = 1..9, the coefficient of ``a^-(2k - 1)``
#: in the Stirling series; at a = 10 the first omitted term is about 1.4e-19.
_STIRLING_COEFFICIENTS = (
    1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188,
    -691 / 360360, 1 / 156, -3617 / 122400, 43867 / 244188,
)


def stirling_correction(a: float) -> float:
    """``s(a) = log Gamma(a) - (a - 1/2) log a + a - log(2 pi) / 2``, for ``a > 0``.

    The error of Stirling's formula, which tends to 0 like ``1 / (12 a)``.
    From :data:`STIRLING_SERIES_MIN` on it is the sum of its asymptotic
    series, added from the smallest term, so it keeps its own relative
    digits where ``math.lgamma`` minus the leading terms would cancel;
    below, that difference.
    """
    if a < STIRLING_SERIES_MIN:
        return math.lgamma(a) - (a - 0.5) * math.log(a) + a - _HALF_LOG_2PI
    inv_sq = 1.0 / (a * a)
    acc = 0.0
    for c in reversed(_STIRLING_COEFFICIENTS):
        acc = acc * inv_sq + c
    return acc / a


#: Counts a :class:`LogRisingTable` holds, ``0 .. RISING_TABLE_CAP - 1``; a
#: larger count takes a difference of Stirling forms (see :class:`LogRisingTable`).
RISING_TABLE_CAP = 1 << 14

#: Fewest counts a :class:`LogRisingTable` grows to on its first read.
_RISING_TABLE_START = 64


class LogRisingTable:
    """``log (y_i)_k = log y_i (y_i + 1) ... (y_i + k - 1)`` for each entry of ``y``.

    Row ``i`` holds ``cumsum(log(y_i + arange(K)))`` behind a leading 0, so
    entry ``k`` is the sum of the first ``k`` logs, added left to right.
    The rows grow on demand, at least doubling, up to
    :data:`RISING_TABLE_CAP` counts; growing continues the same cumulative
    sum, so an entry's bits do not depend on when it was first read.  A
    count from the cap on takes the difference of Stirling forms
    ``(y - 1/2) log1p(k / y) + k log(y + k) - k + s(y + k) - s(y)``, with
    ``s`` the :func:`stirling_correction`, for ``y`` from
    :data:`STIRLING_SERIES_MIN` on: it keeps about 1e-16 of relative
    error at any ``y``, where ``math.lgamma(y + k) - math.lgamma(y)``
    errs by about eps * y log y.  A smaller ``y`` takes that log-gamma
    difference, which cannot cancel there.

    :meth:`at` reads one count per row as builtin floats and :meth:`values`
    an ``[N, rows]`` array of counts; both read the same entries.  Growing
    replaces the table rather than writing into it, so readers on other
    threads always see a complete one.
    """

    def __init__(self, y: Sequence[float]):
        self.y = tuple(float(v) for v in y)
        self._table = np.zeros((len(self.y), 1))
        self._rows = self._table.tolist()

    def _grow(self, k: int) -> np.ndarray:
        """Extend the rows to count ``k`` if they stop short of it and of the cap; return them."""
        table = self._table
        old = table.shape[1]
        if old <= k and old < RISING_TABLE_CAP:
            size = min(RISING_TABLE_CAP, max(k + 1, 2 * old, _RISING_TABLE_START))
            logs = np.log(np.array(self.y)[:, None] + np.arange(old - 1, size - 1, dtype=float))
            # carry the last entry in front, so the sum continues where it stopped
            tail = np.add.accumulate(np.concatenate([table[:, -1:], logs], axis=1), axis=1)
            table = np.concatenate([table, tail[:, 1:]], axis=1)
            self._table, self._rows = table, table.tolist()
        return table

    def _beyond(self, i: int, k: int) -> float:
        y = self.y[i]
        if y < STIRLING_SERIES_MIN:
            return math.lgamma(y + k) - math.lgamma(y)
        return (
            (y - 0.5) * math.log1p(k / y)
            + k * math.log(y + k)
            - k
            + stirling_correction(y + k)
            - stirling_correction(y)
        )

    def at(self, k: Sequence[int]) -> list[float]:
        """``log (y_i)_{k_i}`` for each row ``i``, as builtin floats."""
        rows = self._rows
        if max(k) < len(rows[0]):
            return [row[j] for row, j in zip(rows, k)]
        self._grow(max(k))
        rows = self._rows
        size = len(rows[0])
        return [
            row[j] if j < size else self._beyond(i, j) for i, (row, j) in enumerate(zip(rows, k))
        ]

    def values(self, k: np.ndarray) -> np.ndarray:
        """:meth:`at` of each row of an ``[N, rows]`` integer array, as an ``[N, rows]`` array."""
        table = self._grow(int(k.max()) if k.size else 0)
        size = table.shape[1]
        out = table[np.arange(len(self.y)), np.minimum(k, size - 1)]
        for r, i in zip(*np.nonzero(k >= size)):
            out[r, i] = self._beyond(int(i), int(k[r, i]))
        return out


# --- the regularised incomplete gamma ratios -----------------------------------
#
# P(a, x) = gamma(a, x) / Gamma(a) and Q(a, x) = 1 - P(a, x), for ``a`` a
# positive multiple of 1/2 (half a chi-square's degrees of freedom).  One
# method: below ``x = a + 1`` the power series of ``P``, from there on the
# finite sum of ``Q`` (Abramowitz & Stegun 26.4.4-26.4.5), each a prefactor
# ``x^a e^-x / Gamma(a)`` times a sum that keeps its relative digits; the
# other ratio is the complement.

_EPS = 2.0 ** -53

#: Largest ``x`` whose ``exp(-x)`` is a normal float, with a margin.
_EXP_ARG_MAX = 700.0


def _stirling_exponent(a: float, x: float) -> float:
    """``a log(x / a) - (x - a)``, the log of ``x^a e^-x`` over its value at ``x = a``.

    Near ``x = a`` it is ``a (log1p(t) - t)`` with ``t = (x - a) / a``, which
    does not cancel the way ``a log x - x`` minus ``a log a - a`` would;
    below ``a / 2``, where ``x - a`` rounds, it takes ``log(x / a)``.
    """
    t = (x - a) / a
    if t > -0.5:
        return a * (math.log1p(t) - t)
    ratio = x / a
    log_ratio = math.log(ratio) if ratio > 0.0 else math.log(x) - math.log(a)
    return a * log_ratio + (a - x)


def _gamma_prefactor(a: float, x: float) -> float:
    """``x^a e^-x / Gamma(a)``, the factor both ratios share.

    From :data:`STIRLING_SERIES_MIN` on it is
    ``exp(a (log1p(t) - t)) sqrt(a / 2 pi) exp(-s(a))``, which avoids the
    cancellation in ``a log x - lgamma(a)`` (about 250 ulps at a = 2,500,
    by an error estimate).  Below it ``x^a``, ``e^-x`` and ``Gamma(a)``
    are each within an ulp, and their product keeps the lower tail's
    digits that a log-space exponent of size ``a |log x|`` would lose.
    """
    if a >= STIRLING_SERIES_MIN:
        return (
            math.exp(_stirling_exponent(a, x))
            * math.sqrt(a / (2.0 * math.pi))
            * math.exp(-stirling_correction(a))
        )
    if x < _EXP_ARG_MAX:
        return math.pow(x, a) * math.exp(-x) / math.gamma(a)
    return math.exp(a * math.log(x) - x - math.lgamma(a))


def _lower_series(a: float, x: float) -> float:
    """``sum_n x^n / ((a + 1) ... (a + n))``, so that ``P(a, x) = prefactor * series / a``.

    Every term is positive; for ``x < a + 1`` they fall geometrically, and
    ``math.fsum`` adds them with one rounding.
    """
    terms = [1.0]
    term, n = 1.0, a
    while term > _EPS / 4:
        n += 1.0
        term *= x / n
        terms.append(term)
    return math.fsum(terms)


def _upper_sum(a: float, x: float, prefactor: float) -> float:
    """``Q(a, x)`` for ``x >= a + 1`` and ``a`` a multiple of 1/2, as a finite sum.

    ``Q(b + 1, x) = Q(b, x) + x^b e^-x / Gamma(b + 1)`` steps down from ``a``
    to ``Q(1, x) = e^-x`` (the last term of the sum) or to
    ``Q(1/2, x) = erfc(sqrt x)`` (Abramowitz & Stegun 26.4.4-26.4.5).  The
    terms are positive and taken from the prefactor down, ``prefactor / x``
    times ``(a - 1) ... (a - j) / x^j``.  The sum stops before a term ``t``
    once ``t x / (x - b)`` is below a quarter of the total's ulp: the terms
    fall by ``b / x`` or faster, so that bounds ``t`` and every term after
    it, erfc's included, and adding them could not change a bit.
    """
    total = 0.0
    term = prefactor / x
    b = a - 1.0
    while b >= a % 1.0:
        if term * x <= _EPS / 4 * total * (x - b):
            return total
        total += term
        term *= b / x
        b -= 1.0
    if a % 1.0:
        total += math.erfc(math.sqrt(x))
    return total


def regularised_gamma(a: float, x: float) -> tuple[float, float]:
    """``(P(a, x), Q(a, x))`` for ``x > 0`` and ``a`` a positive multiple of 1/2.

    For ``x < a + 1`` ``P`` is the power series and ``Q = 1 - P``; from
    there on ``Q`` is the finite sum of :func:`_upper_sum` and ``P = 1 - Q``.
    The one computed directly keeps a few ulps; the complement keeps
    absolute digits.
    """
    prefactor = _gamma_prefactor(a, x)
    if x < a + 1.0:
        p = prefactor / a * _lower_series(a, x)
        return p, 1.0 - p
    q = _upper_sum(a, x, prefactor)
    return 1.0 - q, q


def log_lower_gamma(a: float, x: float) -> float:
    """``log P(a, x)`` for ``0 < x < a + 1``, which keeps its digits where ``P`` underflows."""
    return (_stirling_exponent(a, x) + 0.5 * math.log(a) - _HALF_LOG_2PI - stirling_correction(a)
            + math.log(_lower_series(a, x) / a))


def validate_polynomial_coefficients(
    dimension: int,
    degree: int,
    coefficients: Mapping[Sequence[int], float],
) -> dict[Counts, float]:
    """Check and canonicalize coefficients of a homogeneous polynomial.

    Every index must have the stated total degree, every coefficient must be
    non-negative, and at least one must be strictly positive.
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    cleaned: dict[Counts, float] = {}
    for index, value in coefficients.items():
        idx = as_counts(index)
        if len(idx) != dimension:
            raise DimensionMismatchError(
                f"coefficient index {idx} has dimension {len(idx)}, expected {dimension}"
            )
        if sum(idx) != degree:
            raise ValueError(f"coefficient index {idx} does not sum to degree {degree}")
        fv = float(value)
        if fv < 0 or not math.isfinite(fv):
            raise ValueError(f"coefficient {fv!r} at {idx} must be finite and >= 0")
        cleaned[idx] = fv
    if not any(v > 0 for v in cleaned.values()):
        raise ValueError("at least one polynomial coefficient must be positive")
    return dict(sorted(cleaned.items()))


def log_sum_exp(values: Sequence[float] | np.ndarray) -> float:
    """``log(sum(exp(values)))``, returning the same bits as ``scipy.special.logsumexp``.

    The shifted algorithm of Blanchard, Higham and Higham (2021), "Accurately
    computing the log-sum-exp and softmax functions", in scipy's order of
    operations, with its numpy ``exp``, ``log1p`` and ``log`` and builtin
    float arithmetic between them, minus scipy's array-API dispatch (tens of
    microseconds a call).  The maximum and its ties are split off the sum;
    the rest is shifted, exponentiated and summed as ``np.sum`` adds.
    """
    if len(values) == 1:
        v = float(values[0])
        if math.isfinite(v):
            # scipy's log1p(0) + log(1) + v; the 0.0 turns -0.0 into 0.0 as it does
            return 0.0 + v
    terms = values.tolist() if isinstance(values, np.ndarray) else list(map(float, values))
    top = max(terms, default=-math.inf)
    if not math.isfinite(top):
        # nan propagates, +inf dominates, and entries all -inf (or none) sum to zero
        return math.nan if any(t != t for t in terms) else top
    ties = terms.count(top)
    rest = sum_as_numpy(np.exp([t - top if t != top else -math.inf for t in terms]).tolist())
    return float(np.log1p(rest / ties)) + (float(np.log(ties)) if ties > 1 else 0.0) + top


def log_sum_exp_rows(table: np.ndarray) -> np.ndarray:
    """:func:`log_sum_exp` of each row of a 2-D array, with the same bits per row.

    The same ufuncs in the same order, applied to whole columns: row maxima,
    tie counts, ``exp`` of the shifted rest summed along the row, divided by
    the ties, then ``log1p(s) + log(ties) + max``.  A row whose maximum is not
    finite gives that maximum, as the scalar function does.
    """
    a_max = table.max(axis=1)
    ties = table == a_max[:, None]
    count = np.count_nonzero(ties, axis=1).astype(float)
    with np.errstate(invalid="ignore", divide="ignore"):
        s = np.exp(np.where(ties, -np.inf, table) - a_max[:, None]).sum(axis=1) / count
        out = np.log1p(s) + np.log(count) + a_max
    return np.where(np.isfinite(a_max), out, a_max)


def row_sums(table: np.ndarray) -> np.ndarray:
    """Sum along the last axis left to right, the order of the builtin ``sum``."""
    out = table[..., 0]
    for j in range(1, table.shape[-1]):
        out = out + table[..., j]
    return out


class RisingPolynomial:
    """``c -> log sum_k a_k prod_i (alpha_i + c_i)_{k_i}`` over the monomials ``k`` of ``a_k > 0``.

    ``(y)_j`` is the rising factorial and ``c`` a vector of counts, which the
    law or environment that holds the polynomial checks; alpha and the
    coefficients are checked here, and with them every term is finite.  A
    factor ``log (alpha_i + c_i)_{k_i}`` depends only on the coordinate and
    its count, so each coordinate keeps a column table: row ``c`` holds that
    factor of each monomial, the running sum of ``log((alpha_i + c) + t)``
    (the bits of a :class:`LogRisingTable` of ``alpha_i + c``).  Rows are
    filled a block of counts at a time, at least doubling, up to
    :data:`SIMPLEX_MEMO_LIMIT` counts; a larger count's row is computed the
    same way on each read.  A value adds each monomial's factors left to
    right, then its log coefficient, and takes one :func:`log_sum_exp`.
    """

    def __init__(self, alpha: Sequence[float], degree: int,
                 coefficients: Mapping[Sequence[int], float]):
        self.alpha = check_alpha(alpha)
        self.dimension, self.degree = self.alpha.size, int(degree)
        self.coefficients = validate_polynomial_coefficients(
            self.dimension, self.degree, coefficients
        )
        positive = [(index, coeff) for index, coeff in self.coefficients.items() if coeff != 0.0]
        self.exponents = np.array([index for index, _ in positive], dtype=np.int64)
        self.log_coefficients = [math.log(coeff) for _, coeff in positive]
        self._steps = np.arange(self.exponents.max(), dtype=float)
        self._tables = [np.zeros((0, len(positive)))] * self.dimension
        self._rows: list[list[list[float]]] = [[] for _ in range(self.dimension)]

    def _block(self, i: int, counts: np.ndarray) -> np.ndarray:
        """Coordinate ``i``'s rows at each count of a 1-D integer array."""
        logs = np.zeros((len(counts), len(self._steps) + 1))
        logs[:, 1:] = np.log((self.alpha[i] + counts)[:, None] + self._steps)
        return np.add.accumulate(logs, axis=1, out=logs).take(self.exponents[:, i], axis=1)

    def _table(self, i: int, k: int) -> np.ndarray:
        """Coordinate ``i``'s table, grown to count ``k`` below the bound as a whole new table."""
        table = self._tables[i]
        old = len(table)
        if old <= k and old < SIMPLEX_MEMO_LIMIT:
            # a small first block: an environment reads count 0 alone unless asked for moments
            size = min(SIMPLEX_MEMO_LIMIT, max(k + 1, 2 * old, 8))
            block = self._block(i, np.arange(old, size))
            table = np.concatenate([table, block])
            self._tables[i], self._rows[i] = table, self._rows[i] + block.tolist()
        return table

    def _row(self, i: int, k: int) -> list[float]:
        if k >= len(self._rows[i]):
            self._table(i, k)
        rows = self._rows[i]
        return rows[k] if k < len(rows) else self._block(i, np.array([k]))[0].tolist()

    def log_terms(self, c: Counts) -> list[float]:
        """``log a_k + sum_i log (alpha_i + c_i)_{k_i}`` for each monomial ``k``, as floats."""
        factors = reduce(partial(map, add), map(self._row, range(self.dimension), c))
        return list(map(add, self.log_coefficients, factors))

    def log_value(self, c: Counts) -> float:
        """Log of the polynomial at ``alpha + c``."""
        return log_sum_exp(self.log_terms(c))

    def log_values(self, c: np.ndarray) -> np.ndarray:
        """:meth:`log_value` of each row of an ``[N, d]`` count array, with the same bits."""
        out = np.empty(len(c))
        block = max(1, BATCH_ELEMENTS // max(self.exponents.size, len(self._steps) + 1))
        for start in range(0, len(c), block):
            factors = []
            for i, counts in enumerate(c[start : start + block].T):
                table = self._table(i, int(counts.max()))
                rows = table[np.minimum(counts, len(table) - 1)]
                rows[counts >= len(table)] = self._block(i, counts[counts >= len(table)])
                factors.append(rows)
            # each monomial's factors added coordinate after coordinate, as log_terms adds them
            terms = reduce(add, factors) + self.log_coefficients
            out[start : start + block] = log_sum_exp_rows(terms)
        return out


#: Most count vectors any one memo of :func:`_memoised` keeps (a law's simplex
#: points, public log weights and log-polynomial cache, and an environment's
#: log mixed moments), and most counts per coordinate in the column tables of
#: a :class:`RisingPolynomial`; later ones are evaluated each time.
SIMPLEX_MEMO_LIMIT = 1 << 13


def _memoised(memo: str):
    """Memoise a method of count tuples ``c`` per ``c``, in the instance's dict ``memo``.

    Only results that returned are kept: an evaluation that raises is
    retried on the next call.  Each memo keeps at most
    :data:`SIMPLEX_MEMO_LIMIT` entries and then stops inserting; a miss
    after that evaluates again and gets the same bits (so do the column
    tables that a polynomial's misses read).  Every caller gets the stored
    value itself, so it must be immutable: a tuple, a float or a read-only
    array.  Sound only because evaluation is pure; two
    threads may compute an entry twice, and store equal values.
    """

    def decorate(compute):
        @wraps(compute)
        def memoised(self, c: Counts):
            try:
                table = getattr(self, memo)
            except AttributeError:
                # created on first use: a subclass need not call a base __init__
                table = {}
                setattr(self, memo, table)
            value = table.get(c)
            if value is None:
                value = compute(self, c)
                if len(table) >= SIMPLEX_MEMO_LIMIT:
                    return value
                table[c] = value
            return value

        return memoised

    return decorate


def _check_subclass(cls: type, base: type) -> None:
    """Raise ``TypeError`` when ``cls`` is created unless ``base`` is its first parent.

    So every law and environment class is final: none inherits a form that
    reads another class's formula.
    """
    if cls.__mro__[1] is not base:
        raise TypeError(f"{cls.__qualname__} must subclass {base.__qualname__} directly: "
                        f"hold an instance of a law or environment to reuse its formula")


class ReinforcementLaw:
    """Base class: evaluable map from count vectors to probability vectors.

    Laws are immutable after construction and evaluation is pure, so a single
    instance may be shared freely across threads.  Subclasses implement
    :meth:`log_weights` or :meth:`_log_weights`, which takes counts the
    caller has already validated (the walk's own), as :meth:`_simplex` does.

    Memoised per count vector on the instance, up to
    :data:`SIMPLEX_MEMO_LIMIT` each (:func:`_memoised`): the
    :meth:`_simplex` that the walk and :meth:`weights` read; on the
    Dirichlet, polynomial and induced laws the public :meth:`log_weights`
    (through :meth:`_memo_log_weights`), which the box scan, the moment
    table and the exact enumeration ask for many times; and the polynomial
    law's ``_log_poly``.  Counts are checked on every call, before the
    lookup (see :func:`as_counts`), and every row is read-only, memoised or
    not: copy one to write into it.

    Every generic form reads that one formula; the lock-step
    :meth:`_simplex_rows` reads :meth:`_simplex` once per distinct row.
    A law subclasses this class directly (:func:`_check_subclass`).
    """

    dimension: int

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        _check_subclass(cls, ReinforcementLaw)

    def _check_counts(self, counts: Sequence[int]) -> Counts:
        return check_counts(counts, self.dimension, "law")

    def log_weights(self, counts: Sequence[int]) -> np.ndarray:
        return self._memo_log_weights(self._check_counts(counts))

    def _log_weights(self, c: Counts) -> np.ndarray:
        """Log-weights at validated counts ``c``: :meth:`log_weights`, which a subclass defines."""
        if type(self).log_weights is ReinforcementLaw.log_weights:
            raise NotImplementedError("a law defines log_weights or _log_weights")
        return self.log_weights(c)

    @_memoised("_log_weights_memo")
    def _memo_log_weights(self, c: Counts) -> np.ndarray:
        """:meth:`_log_weights` memoised per count vector, as a read-only row."""
        row = self._log_weights(c)
        row.flags.writeable = False
        return row

    def log_weights_batch(self, counts: np.ndarray) -> np.ndarray:
        """Log-weights at each row of an ``[N, d]`` count array, as an ``[N, d]`` array.

        Bit for bit the per-point ``_log_weights`` of every row; a row that
        cannot be evaluated raises the error the per-point call raises.
        """
        return self._log_weights_rows(batch_counts(counts, self.dimension))

    def _log_weights_rows(self, c: np.ndarray) -> np.ndarray:
        """:meth:`_log_weights` of each row of a validated ``[N, d]`` int64 count array."""
        out = np.empty(c.shape)
        for r, row in enumerate(c.tolist()):
            out[r] = self._log_weights(tuple(row))
        return out

    @_memoised("_simplex_memo")
    def _simplex(self, c: Counts) -> tuple[float, ...]:
        """Weights at validated counts ``c``, passed through :func:`check_simplex`."""
        return check_simplex(tuple(np.exp(self._log_weights(c)).tolist()))

    def _simplex_rows(self, counts: np.ndarray) -> np.ndarray:
        """Weights at each row of a validated ``[N, d]`` int64 count array, as ``[N, d]``.

        Row ``r`` has the bits of ``_simplex(tuple(counts[r]))``; a row that
        cannot be evaluated raises the error :meth:`_simplex` raises there,
        though not necessarily for the first such row.  Each distinct row
        goes through :meth:`_simplex` and its memo, so a lock-step walk
        evaluates no count vector the per-stream walk would not.
        """
        first, inverse = distinct_rows(counts)
        return np.array([self._simplex(tuple(c)) for c in counts[first].tolist()])[inverse]

    def weights(self, counts: Sequence[int]) -> SimplexPoint:
        """Evaluate the law; validates the output is a proper simplex point."""
        return SimplexPoint(self._simplex(self._check_counts(counts)))


def array_rows(cls: type) -> bool:
    """Whether ``cls`` evaluates count tables in one array pass, with the bits of its public reads:
    its ``_log_weights_rows`` is not the generic loop, and on the built-in such classes the
    public ``log_weights`` reads the ``_log_weights`` memo."""
    return cls._log_weights_rows is not ReinforcementLaw._log_weights_rows


def warm_log_weights(law: ReinforcementLaw, blocks: Iterable[list[Counts]]) -> None:
    """Store the log weights at each count vector of each block in ``law``'s memo.

    For a class where :func:`array_rows` holds, whose public ``log_weights``
    then reads the rows from the memo.  One :meth:`log_weights_batch` call
    per block, stored one read-only row each, up to the memo's limit.  A
    block that raises propagates its error; the rows stored before it have
    the bits of their per-point evaluation.
    """
    memo = law.__dict__.setdefault("_log_weights_memo", {})
    for block in blocks:
        rows = law.log_weights_batch(np.array(block))
        rows.flags.writeable = False
        for key, row in zip(block, rows):
            if len(memo) >= SIMPLEX_MEMO_LIMIT:
                return
            memo[key] = row


def math_each(f, values: np.ndarray) -> np.ndarray:
    """libm's ``f`` (``math.log``, ``math.exp``) of each entry, as an array of the same shape."""
    return np.fromiter(map(f, values.ravel().tolist()), float, values.size).reshape(values.shape)


class UniformLaw(ReinforcementLaw):
    """History-independent law putting mass 1/d on every move."""

    def __init__(self, dimension: int):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.dimension = dimension
        self._log = np.full(dimension, -math.log(dimension))
        self._log.flags.writeable = False
        self._weights = check_simplex(tuple(np.exp(self._log).tolist()))
        self._row = np.array(self._weights)

    def log_weights(self, counts: Sequence[int]) -> np.ndarray:
        self._check_counts(counts)
        return self._log

    def _simplex(self, c: Counts) -> tuple[float, ...]:
        return self._weights

    def _simplex_rows(self, counts: np.ndarray) -> np.ndarray:
        return np.broadcast_to(self._row, counts.shape)

    def __repr__(self) -> str:
        return f"UniformLaw(dimension={self.dimension})"


class DirichletLaw(ReinforcementLaw):
    """Polya urn rule: move i gets probability (alpha_i + p_i) / sum(alpha + p)."""

    def __init__(self, alpha: Sequence[float]):
        arr = check_alpha(alpha)
        self.alpha = tuple(float(a) for a in arr)
        self.dimension = arr.size
        self._alpha_arr = arr

    # the same as the inherited method; defined on the class because
    # perfbench/worker.py traces DirichletLaw.weights by name
    def weights(self, counts: Sequence[int]) -> SimplexPoint:
        return SimplexPoint(self._simplex(self._check_counts(counts)))

    @_memoised("_simplex_memo")
    def _simplex(self, c: Counts) -> tuple[float, ...]:
        shifted = list(map(add, self.alpha, c))
        total = sum_as_numpy(shifted)
        return check_simplex(tuple([s / total for s in shifted]))

    def _shifted_rows(self, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``alpha + counts`` for each row of counts, and each row's total."""
        shifted = self._alpha_arr + counts
        # sum_as_numpy along each row: left to right, or numpy's pairwise sum
        if self.dimension < PAIRWISE_SUM_MIN:
            return shifted, row_sums(shifted)
        return shifted, shifted.sum(axis=1)

    def _simplex_rows(self, counts: np.ndarray) -> np.ndarray:
        shifted, total = self._shifted_rows(counts)
        return check_simplex_rows(shifted / total[:, None])

    def log_weights(self, counts: Sequence[int]) -> np.ndarray:
        return self._memo_log_weights(self._check_counts(counts))

    def _log_weights(self, c: Counts) -> np.ndarray:
        shifted = self._alpha_arr + np.asarray(c, dtype=float)
        return np.log(shifted) - math.log(shifted.sum())

    def _log_weights_rows(self, c: np.ndarray) -> np.ndarray:
        shifted, total = self._shifted_rows(c)
        return np.log(shifted) - math_each(math.log, total)[:, None]

    def __repr__(self) -> str:
        return f"DirichletLaw(alpha={self.alpha})"


class PolynomialDirichletLaw(ReinforcementLaw):
    """Urn rule modulated by a homogeneous polynomial of rising factorials.

    With shifted arguments ``y = alpha + p`` and polynomial value
    ``R(y) = sum_k a_k prod_i (y_i)_{k_i}`` of degree ``n`` (rising factorials),
    move i gets probability::

        (alpha_i + p_i) / (sum_j (alpha_j + p_j) + n) * R(y + e_i) / R(y)

    Degree 0 reduces exactly to :class:`DirichletLaw`.  ``log R(alpha + p)``
    (memoised per count vector) and :meth:`log_weights_batch` read the
    per-coordinate columns of one :class:`RisingPolynomial` of alpha.
    """

    def __init__(
        self,
        alpha: Sequence[float],
        degree: int,
        coefficients: Mapping[Sequence[int], float],
    ):
        self._poly = poly = RisingPolynomial(alpha, degree, coefficients)
        self.dimension, self.degree = poly.dimension, poly.degree
        self.alpha, self.coefficients = tuple(poly.alpha.tolist()), poly.coefficients
        self._alpha_arr, self._alpha_total = poly.alpha, float(poly.alpha.sum())

    @_memoised("_log_poly_cache")
    def _log_poly(self, counts: Counts) -> float:
        return self._poly.log_value(counts)

    def log_weights(self, counts: Sequence[int]) -> np.ndarray:
        return self._memo_log_weights(self._check_counts(counts))

    def _log_weights(self, c: Counts) -> np.ndarray:
        if self.dimension == 1:
            # the only move is forced; the ratio formula would leave rounding error
            return np.zeros(1)
        base = self._log_poly(c)
        log_total = math.log(self._alpha_total + sum(c) + self.degree)
        out = np.empty(self.dimension)
        for i in range(self.dimension):
            bumped = c[:i] + (c[i] + 1,) + c[i + 1 :]
            out[i] = math.log(self.alpha[i] + c[i]) - log_total + self._log_poly(bumped) - base
        return out

    def _log_weights_rows(self, c: np.ndarray) -> np.ndarray:
        n, d = c.shape
        if d == 1:
            return np.zeros((n, 1))
        # the rows, then the rows bumped along each axis
        stack = (c[None] + np.eye(d + 1, d, -1, dtype=np.int64)[:, None]).reshape(-1, d)
        log_poly = self._poly.log_values(stack).reshape(d + 1, n)
        total = math_each(math.log, self._alpha_total + c.sum(axis=1) + self.degree)[:, None]
        return math_each(math.log, self._alpha_arr + c) - total + log_poly[1:].T - log_poly[0][:, None]

    def __repr__(self) -> str:
        return (
            f"PolynomialDirichletLaw(alpha={self.alpha}, degree={self.degree}, "
            f"coefficients={self.coefficients})"
        )


class TabulatedLaw(ReinforcementLaw):
    """Law defined by an explicit table on the box {0..box_size}^d.

    ``fallback`` decides what happens outside the box: ``"reject"`` raises
    :class:`TableDomainError`, ``"clamp"`` clamps each count to ``box_size``.
    """

    def __init__(
        self,
        box_size: int,
        table: Mapping[Sequence[int], SimplexPoint],
        fallback: str = "reject",
    ):
        if box_size < 0:
            raise ValueError("box_size must be >= 0")
        if fallback not in ("reject", "clamp"):
            raise ValueError(f"unknown fallback {fallback!r}")
        entries = {as_counts(k): v for k, v in table.items()}
        dims = {p.dim for p in entries.values()}
        key_dims = {len(k) for k in entries}
        if len(dims) != 1 or key_dims != dims:
            raise DimensionMismatchError("table keys and values disagree on dimension")
        self.dimension = dims.pop()
        self.box_size = int(box_size)
        self.fallback = fallback
        expected = (box_size + 1) ** self.dimension
        if len(entries) != expected:
            raise ValueError(
                f"table must cover the full box: expected {expected} entries, "
                f"got {len(entries)}"
            )
        for key in product(range(box_size + 1), repeat=self.dimension):
            if key not in entries:
                raise ValueError(f"table is missing entry for counts {key}")
        self.table = entries

    def _point(self, c: Counts) -> SimplexPoint:
        if any(v > self.box_size for v in c):
            if self.fallback == "reject":
                raise TableDomainError(
                    f"counts {c} outside table box {self.box_size} and fallback is 'reject'"
                )
            c = tuple(min(v, self.box_size) for v in c)
        return self.table[c]

    def weights(self, counts: Sequence[int]) -> SimplexPoint:
        return self._point(self._check_counts(counts))

    def _simplex(self, c: Counts) -> tuple[float, ...]:
        return self._point(c).weights

    def log_weights(self, counts: Sequence[int]) -> np.ndarray:
        return self.weights(counts).log_weights()

    def __repr__(self) -> str:
        return (
            f"TabulatedLaw(box_size={self.box_size}, fallback={self.fallback!r}, "
            f"dimension={self.dimension})"
        )
