"""Reinforcement laws: maps from traversal-count vectors to move probabilities.

A law with ``d`` moves sends a vector of non-negative integer counts
``p = (p_1, ..., p_d)`` (how often each oriented move has been taken) to a
strictly positive probability vector over the ``d`` moves.  Built-in families:

* ``UniformLaw`` -- constant ``1/d`` regardless of history.
* ``DirichletLaw`` -- the Polya urn rule ``(alpha_i + p_i) / sum_j (alpha_j + p_j)``.
* ``PolynomialDirichletLaw`` -- the urn rule modulated by a homogeneous
  polynomial with non-negative coefficients, evaluated through rising
  factorials (see :func:`rising_polynomial`).
* ``TabulatedLaw`` -- explicit values on a finite box of counts.

Probabilities are exposed both linearly (:meth:`ReinforcementLaw.weights`)
and in log space (:meth:`ReinforcementLaw.log_weights`); long products
downstream are always accumulated in log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Mapping, Sequence

import numpy as np
from scipy.special import gammaln

from .errors import DimensionMismatchError, EvaluationError, TableDomainError

#: Absolute tolerance on the sum of a probability vector.
SIMPLEX_SUM_TOL = 1e-12

#: Weights below this threshold are rejected as numerically zero.
MIN_WEIGHT = 1e-300

Counts = tuple[int, ...]


@dataclass(frozen=True)
class SimplexPoint:
    """A probability vector with strictly positive coordinates.

    Every weight must lie in ``(0, 1]`` (at least :data:`MIN_WEIGHT`) and the
    weights must sum to 1 within :data:`SIMPLEX_SUM_TOL`.  For dimension 1 the
    single weight is exactly 1.
    """

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.weights:
            raise ValueError("simplex point needs at least one coordinate")
        # normalize numpy scalars so downstream serialization sees builtins
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        total = math.fsum(self.weights)
        if abs(total - 1.0) > SIMPLEX_SUM_TOL:
            raise ValueError(f"weights sum to {total!r}, not 1")
        for w in self.weights:
            if not (w >= MIN_WEIGHT):
                raise ValueError(f"weight {w!r} is not strictly positive")
            if w > 1.0:
                raise ValueError(f"weight {w!r} exceeds 1")

    @property
    def dim(self) -> int:
        return len(self.weights)

    def log_weights(self) -> np.ndarray:
        return np.log(self.weights)

    def __len__(self) -> int:
        return len(self.weights)

    def __getitem__(self, i: int) -> float:
        return self.weights[i]

    def __iter__(self) -> Iterator[float]:
        return iter(self.weights)


def as_counts(values: Sequence[int]) -> Counts:
    """Validate and normalize a traversal-count vector to a tuple of ints."""
    out = []
    for v in values:
        iv = int(v)
        if iv != v or iv < 0:
            raise ValueError(f"counts must be non-negative integers, got {v!r}")
        out.append(iv)
    return tuple(out)


def check_alpha(alpha: Sequence[float]) -> np.ndarray:
    """Validate a Dirichlet parameter vector and return it as a float array.

    Entries must be finite and strictly positive, and so must their total,
    which every family divides by.
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
    if not math.isfinite(total):
        raise ValueError("alpha total overflows")
    return arr


def draw_index(weights: Sequence[float], rng: np.random.Generator) -> int:
    """Inverse-CDF categorical draw using a single uniform variate."""
    u = rng.random()
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if u < acc:
            return i
    return len(weights) - 1


def rising_factorial(y: float, k: int) -> float:
    """Return ``y (y+1) ... (y+k-1)``; the empty product (k=0) is 1.

    Switches to log-gamma differences once ``y + k > 30`` so large arguments
    neither overflow nor lose precision to a long product.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if y <= 0:
        raise ValueError("y must be positive")
    if k == 0:
        return 1.0
    if y + k <= 30:
        out = 1.0
        for j in range(k):
            out *= y + j
        return out
    return float(math.exp(gammaln(y + k) - gammaln(y)))


def log_rising_factorial(y: float, k: int) -> float:
    """Natural log of :func:`rising_factorial`, exact at k=0."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if y <= 0:
        raise ValueError("y must be positive")
    if k == 0:
        return 0.0
    return float(gammaln(y + k) - gammaln(y))


def degree_multi_indices(dimension: int, degree: int) -> list[Counts]:
    """All multi-indices of the given total degree, in lexicographic order."""
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    out: list[Counts] = []

    def extend(prefix: tuple[int, ...], remaining: int) -> None:
        if len(prefix) == dimension - 1:
            out.append(prefix + (remaining,))
            return
        for v in range(remaining + 1):
            extend(prefix + (v,), remaining - v)

    # lexicographic ascending in the leading coordinates
    extend((), degree)
    return out


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
    operations and with the same numpy ufuncs, minus scipy's array-API
    dispatch (tens of microseconds a call).  The maximum and its ties are
    split off the sum; the rest is shifted, exponentiated and summed.
    """
    if len(values) == 1:
        v = float(values[0])
        if math.isfinite(v):
            # scipy's log1p(0) + log(1) + v; the 0.0 turns -0.0 into 0.0 as it does
            return 0.0 + v
    a = np.asarray(values, dtype=float)
    if a.size == 0:
        return -math.inf
    a_max = a.max()
    if not math.isfinite(a_max):
        # nan propagates; +inf dominates; all entries -inf sum to zero
        return float(a_max)
    ties = a == a_max
    count = np.float64(np.count_nonzero(ties))
    s = np.exp(np.where(ties, -np.inf, a) - a_max).sum() / count
    return float(np.log1p(s) + np.log(count) + a_max)


def row_sums(table: np.ndarray) -> np.ndarray:
    """Sum each row left to right, the order of the builtin ``sum``."""
    out = table[:, 0]
    for j in range(1, table.shape[1]):
        out = out + table[:, j]
    return out


class RisingPolynomial:
    """``y -> log sum_k a_k prod_i rising_factorial(y_i, k_i)``, tabulated once.

    Holds the exponents of the monomials with positive coefficients as a
    (monomials x d) array and their log-coefficients, so one evaluation is
    one vectorised log-gamma difference and one :func:`log_sum_exp`.
    """

    def __init__(self, coefficients: Mapping[Counts, float]):
        positive = [(index, coeff) for index, coeff in coefficients.items() if coeff != 0.0]
        if not positive:
            raise EvaluationError("polynomial has no positive coefficients")
        dims = {len(index) for index, _ in positive}
        if len(dims) != 1:
            raise DimensionMismatchError("polynomial indices disagree on dimension")
        self.dimension = dims.pop()
        self.exponents = np.array([index for index, _ in positive], dtype=float)
        self.log_coefficients = np.array([math.log(coeff) for _, coeff in positive])

    def log_value(self, y: np.ndarray) -> float:
        """Log of the polynomial at strictly positive arguments ``y``."""
        if len(y) != self.dimension:
            raise DimensionMismatchError(
                f"polynomial of dimension {self.dimension} incompatible with "
                f"argument of dimension {len(y)}"
            )
        factors = gammaln(y + self.exponents) - gammaln(y)
        value = log_sum_exp(self.log_coefficients + row_sums(factors))
        if not math.isfinite(value):
            raise EvaluationError("polynomial evaluation underflowed")
        return value


def log_rising_polynomial(
    coefficients: Mapping[Counts, float], y: Sequence[float]
) -> float:
    """Log of ``sum_k a_k prod_i rising_factorial(y_i, k_i)`` for positive y."""
    ys = np.array(y, dtype=float)
    if np.any(ys <= 0):
        raise ValueError("polynomial arguments must be strictly positive")
    return RisingPolynomial(coefficients).log_value(ys)


def rising_polynomial(coefficients: Mapping[Counts, float], y: Sequence[float]) -> float:
    """``sum_k a_k prod_i rising_factorial(y_i, k_i)``; strictly positive."""
    return math.exp(log_rising_polynomial(coefficients, y))


class ReinforcementLaw:
    """Base class: evaluable map from count vectors to probability vectors.

    Laws are immutable after construction and evaluation is pure, so a single
    instance may be shared freely across threads.  Subclasses implement
    :meth:`log_weights`.
    """

    dimension: int

    def _check_counts(self, counts: Sequence[int]) -> Counts:
        c = as_counts(counts)
        if len(c) != self.dimension:
            raise DimensionMismatchError(
                f"counts {c} have dimension {len(c)}, law expects {self.dimension}"
            )
        return c

    def log_weights(self, counts: Sequence[int]) -> np.ndarray:
        raise NotImplementedError

    def weights(self, counts: Sequence[int]) -> SimplexPoint:
        """Evaluate the law; validates the output is a proper simplex point."""
        return SimplexPoint(tuple(np.exp(self.log_weights(counts))))


class UniformLaw(ReinforcementLaw):
    """History-independent law putting mass 1/d on every move."""

    def __init__(self, dimension: int):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.dimension = dimension
        self._log = np.full(dimension, -math.log(dimension))

    def log_weights(self, counts: Sequence[int]) -> np.ndarray:
        self._check_counts(counts)
        return self._log.copy()

    def __repr__(self) -> str:
        return f"UniformLaw(dimension={self.dimension})"


class DirichletLaw(ReinforcementLaw):
    """Polya urn rule: move i gets probability (alpha_i + p_i) / sum(alpha + p)."""

    def __init__(self, alpha: Sequence[float]):
        arr = check_alpha(alpha)
        self.alpha = tuple(float(a) for a in arr)
        self.dimension = arr.size
        self._alpha_arr = arr

    def weights(self, counts: Sequence[int]) -> SimplexPoint:
        c = self._check_counts(counts)
        shifted = self._alpha_arr + np.asarray(c, dtype=float)
        return SimplexPoint(tuple(shifted / shifted.sum()))

    def log_weights(self, counts: Sequence[int]) -> np.ndarray:
        c = self._check_counts(counts)
        shifted = self._alpha_arr + np.asarray(c, dtype=float)
        return np.log(shifted) - math.log(shifted.sum())

    def __repr__(self) -> str:
        return f"DirichletLaw(alpha={self.alpha})"


class PolynomialDirichletLaw(ReinforcementLaw):
    """Urn rule modulated by a homogeneous polynomial of rising factorials.

    With shifted arguments ``y = alpha + p`` and polynomial value
    ``R(y) = sum_k a_k prod_i rising_factorial(y_i, k_i)`` of degree ``n``,
    move i gets probability::

        (alpha_i + p_i) / (sum_j (alpha_j + p_j) + n) * R(y + e_i) / R(y)

    Degree 0 reduces exactly to :class:`DirichletLaw`.
    """

    def __init__(
        self,
        alpha: Sequence[float],
        degree: int,
        coefficients: Mapping[Sequence[int], float],
    ):
        arr = check_alpha(alpha)
        self.alpha = tuple(float(a) for a in arr)
        self.dimension = arr.size
        self.degree = int(degree)
        self.coefficients = validate_polynomial_coefficients(
            self.dimension, self.degree, coefficients
        )
        self._alpha_arr = arr
        self._alpha_total = float(arr.sum())
        self._poly = RisingPolynomial(self.coefficients)
        self._log_poly_cache: dict[Counts, float] = {}

    def _log_poly(self, counts: Counts) -> float:
        # cache is write-once per key; safe under concurrent readers
        cached = self._log_poly_cache.get(counts)
        if cached is None:
            y = self._alpha_arr + np.asarray(counts, dtype=float)
            cached = self._poly.log_value(y)
            self._log_poly_cache[counts] = cached
        return cached

    def log_weights(self, counts: Sequence[int]) -> np.ndarray:
        c = self._check_counts(counts)
        if self.dimension == 1:
            # the only move is forced; the ratio formula would leave rounding error
            return np.zeros(1)
        base = self._log_poly(c)
        total = self._alpha_total + sum(c) + self.degree
        out = np.empty(self.dimension)
        for i in range(self.dimension):
            bumped = c[:i] + (c[i] + 1,) + c[i + 1 :]
            out[i] = (
                math.log(self.alpha[i] + c[i])
                - math.log(total)
                + self._log_poly(bumped)
                - base
            )
        return out

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

    def weights(self, counts: Sequence[int]) -> SimplexPoint:
        c = self._check_counts(counts)
        if any(v > self.box_size for v in c):
            if self.fallback == "reject":
                raise TableDomainError(
                    f"counts {c} outside table box {self.box_size} and fallback is 'reject'"
                )
            c = tuple(min(v, self.box_size) for v in c)
        return self.table[c]

    def log_weights(self, counts: Sequence[int]) -> np.ndarray:
        return self.weights(counts).log_weights()

    def __repr__(self) -> str:
        return (
            f"TabulatedLaw(box_size={self.box_size}, fallback={self.fallback!r}, "
            f"dimension={self.dimension})"
        )
