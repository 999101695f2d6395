"""Per-vertex environment laws: distributions over transition vectors.

An environment law is a probability measure on the open simplex of a
vertex's move probabilities.  The module provides exact mixed moments
``E[prod_i omega_i^{k_i}]`` for each built-in family, seeded sampling, the
forward map from an environment law to the reinforcement law it induces
(ratio of consecutive mixed moments), and an independent tensor-grid
quadrature oracle used to validate the closed forms.

Families
--------
* ``DirichletEnv(alpha)`` -- Dirichlet density on the simplex.
* ``PolynomialDirichletEnv(alpha, degree, coefficients)`` -- Dirichlet kernel
  times a homogeneous polynomial with non-negative coefficients (a finite
  Dirichlet mixture).
* ``PointMassEnv(point)`` -- deterministic environment.
* ``EmpiricalEnv(atoms)`` -- finite weighted mixture of points.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np
from scipy.special import gammaln

from .errors import DimensionMismatchError, EvaluationError
from .laws import (
    Counts,
    ReinforcementLaw,
    RisingPolynomial,
    SimplexPoint,
    as_counts,
    check_alpha,
    draw_index,
    log_rising_factorial,
    log_sum_exp,
    row_sums,
    sum_as_numpy,
    validate_polynomial_coefficients,
)

#: Resampling limit when a normalized gamma draw underflows to zero.
_MAX_REDRAWS = 100


class VertexEnvLaw:
    """Base class for environment laws at a single vertex.

    Immutable after construction; sampling takes an explicit generator so
    callers control stream discipline.
    """

    dimension: int

    def _check_counts(self, counts: Sequence[int]) -> Counts:
        c = as_counts(counts)
        if len(c) != self.dimension:
            raise DimensionMismatchError(
                f"counts {c} have dimension {len(c)}, environment expects {self.dimension}"
            )
        return c

    def log_mixed_moment(self, counts: Sequence[int]) -> float:
        """Log of E[prod_i omega_i^{k_i}]; 0 at k = 0."""
        raise NotImplementedError

    def mixed_moment(self, counts: Sequence[int]) -> float:
        return math.exp(self.log_mixed_moment(counts))

    def sample(self, rng: np.random.Generator) -> SimplexPoint:
        """One draw of the vertex's transition vector."""
        raise NotImplementedError


class DirichletEnv(VertexEnvLaw):
    """Dirichlet law with parameter vector alpha (all entries positive)."""

    def __init__(self, alpha: Sequence[float]):
        arr = check_alpha(alpha)
        self.alpha = tuple(float(a) for a in arr)
        self.dimension = arr.size
        self._alpha_arr = arr
        self._alpha_total = float(arr.sum())

    def log_mixed_moment(self, counts: Sequence[int]) -> float:
        c = self._check_counts(counts)
        num = sum(log_rising_factorial(self.alpha[i], k) for i, k in enumerate(c))
        return num - log_rising_factorial(self._alpha_total, sum(c))

    def sample(self, rng: np.random.Generator) -> SimplexPoint:
        for _ in range(_MAX_REDRAWS):
            # the draws of rng.gamma(shape=alpha), whose scale 1.0 multiplies exactly,
            # without its second argument check
            draws = rng.standard_gamma(self._alpha_arr).tolist()
            total = sum_as_numpy(draws)
            if total > 0:
                point = tuple([g / total for g in draws])
                if all(w > 0 for w in point):
                    return SimplexPoint(point)
        raise EvaluationError("gamma sampling kept underflowing to zero")

    def __repr__(self) -> str:
        return f"DirichletEnv(alpha={self.alpha})"


class PolynomialDirichletEnv(VertexEnvLaw):
    """Dirichlet kernel times a homogeneous polynomial, as a density.

    The density on the simplex is proportional to
    ``prod_i t_i^{alpha_i - 1} * sum_k a_k prod_i t_i^{k_i}`` with the index
    sum of every ``k`` equal to ``degree``.  Since each monomial term is a
    Dirichlet kernel, the law is an exact finite mixture of Dirichlet laws
    with parameters ``alpha + k``, which drives both the moment formula and
    the sampler.  Mixed moments use the rising-factorial polynomial
    ``R(y) = sum_k a_k prod_i rising_factorial(y_i, k_i)``::

        E[prod t^k] = prod_i rising(alpha_i, k_i)
                      * R(alpha + k) / R(alpha)
                      * rising(A, n) / rising(A, n + |k|),   A = sum(alpha)

    validated against the quadrature oracle in the test suite.
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
        self._log_poly_alpha = self._poly.log_value(arr)
        # mixture over monomials: weight_k proportional to a_k * prod Gamma(alpha_i + k_i)
        log_w = self._poly.log_coefficients + row_sums(gammaln(arr + self._poly.exponents))
        self._mixture_probs = np.exp(log_w - log_sum_exp(log_w))
        self._components = [DirichletEnv(arr + k) for k in self._poly.exponents]

    def log_mixed_moment(self, counts: Sequence[int]) -> float:
        c = self._check_counts(counts)
        total = sum(c)
        shifted = self._alpha_arr + np.asarray(c, dtype=float)
        return (
            sum(log_rising_factorial(self.alpha[i], k) for i, k in enumerate(c))
            + self._poly.log_value(shifted)
            - self._log_poly_alpha
            + log_rising_factorial(self._alpha_total, self.degree)
            - log_rising_factorial(self._alpha_total, self.degree + total)
        )

    def sample(self, rng: np.random.Generator) -> SimplexPoint:
        return self._components[draw_index(self._mixture_probs, rng.random())].sample(rng)

    def __repr__(self) -> str:
        return (
            f"PolynomialDirichletEnv(alpha={self.alpha}, degree={self.degree}, "
            f"coefficients={self.coefficients})"
        )


class PointMassEnv(VertexEnvLaw):
    """Deterministic environment: all mass on one transition vector."""

    def __init__(self, point: SimplexPoint | Sequence[float]):
        if not isinstance(point, SimplexPoint):
            point = SimplexPoint(tuple(float(w) for w in point))
        self.point = point
        self.dimension = point.dim
        self._log_point = point.log_weights()

    def log_mixed_moment(self, counts: Sequence[int]) -> float:
        c = self._check_counts(counts)
        return float(np.dot(c, self._log_point))

    def sample(self, rng: np.random.Generator) -> SimplexPoint:
        return self.point

    def __repr__(self) -> str:
        return f"PointMassEnv(point={self.point.weights})"


class EmpiricalEnv(VertexEnvLaw):
    """Finite mixture of point masses with positive weights summing to 1."""

    def __init__(self, atoms: Sequence[tuple[float, SimplexPoint | Sequence[float]]]):
        if not atoms:
            raise ValueError("empirical law needs at least one atom")
        cleaned = []
        for weight, point in atoms:
            w = float(weight)
            if w <= 0:
                raise ValueError("atom weights must be strictly positive")
            if not isinstance(point, SimplexPoint):
                point = SimplexPoint(tuple(float(x) for x in point))
            cleaned.append((w, point))
        total = math.fsum(w for w, _ in cleaned)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"atom weights sum to {total!r}, not 1")
        dims = {p.dim for _, p in cleaned}
        if len(dims) != 1:
            raise DimensionMismatchError("atoms disagree on dimension")
        self.dimension = dims.pop()
        self.atoms = tuple(cleaned)
        self._weights = np.array([w for w, _ in cleaned])
        self._log_weights = np.log(self._weights)
        self._log_points = np.array([p.log_weights() for _, p in cleaned])

    def log_mixed_moment(self, counts: Sequence[int]) -> float:
        c = self._check_counts(counts)
        terms = self._log_weights + self._log_points @ np.asarray(c, dtype=float)
        return log_sum_exp(terms)

    def sample(self, rng: np.random.Generator) -> SimplexPoint:
        return self.atoms[draw_index(self._weights, rng.random())][1]

    def __repr__(self) -> str:
        return f"EmpiricalEnv(atoms={[(w, p.weights) for w, p in self.atoms]})"


class EnvMomentLaw(ReinforcementLaw):
    """Reinforcement law induced by an environment law.

    Move i at counts p gets probability ``m(p + e_i) / m(p)`` where ``m`` is
    the environment's mixed moment.  This is exactly the conditional law of
    the environment-averaged walk given the traversal history, so walks
    driven by this law reproduce the annealed walk in distribution.
    """

    def __init__(self, env: VertexEnvLaw):
        self.env = env
        self.dimension = env.dimension
        self._moment_cache: dict[Counts, float] = {}

    def _log_moment(self, counts: Counts) -> float:
        cached = self._moment_cache.get(counts)
        if cached is None:
            cached = self.env.log_mixed_moment(counts)
            self._moment_cache[counts] = cached
        return cached

    def log_weights(self, counts: Sequence[int]) -> np.ndarray:
        return self._log_weights(self._check_counts(counts))

    def _log_weights(self, c: Counts) -> np.ndarray:
        if self.dimension == 1:
            # the only move is forced; a moment ratio would leave rounding error
            return np.zeros(1)
        base = self._log_moment(c)
        out = np.empty(self.dimension)
        for i in range(self.dimension):
            bumped = c[:i] + (c[i] + 1,) + c[i + 1 :]
            out[i] = self._log_moment(bumped) - base
        return out

    def __repr__(self) -> str:
        return f"EnvMomentLaw(env={self.env!r})"


def law_from_env(env: VertexEnvLaw) -> ReinforcementLaw:
    """Reinforcement law whose walk matches the environment's annealed walk."""
    return EnvMomentLaw(env)


def _monomial_value(
    coefficients: Mapping[Counts, float], factors: Sequence[np.ndarray]
) -> np.ndarray:
    """Evaluate ``sum_k a_k prod_i t_i^{k_i}`` on broadcastable grids."""
    total = None
    for index, coeff in coefficients.items():
        if coeff == 0.0:
            continue
        term = np.full((), coeff)
        for i, k in enumerate(index):
            if k:
                term = term * factors[i] ** k
        total = term if total is None else total + term
    assert total is not None
    return np.asarray(total)


#: Density grids are expensive for d = 3; keep the two most recent.
_GRID_CACHE: dict[tuple, tuple] = {}


def _density_grid(key: tuple, alpha, coefficients, d: int, n: int):
    cached = _GRID_CACHE.get(key)
    if cached is not None:
        return cached
    u = (np.arange(n) + 0.5) / n
    s = np.sin(np.pi * u / 2.0) ** 2
    jac = (np.pi / 2.0) * np.sin(np.pi * u) / n
    if d == 2:
        factors = (s, 1.0 - s)
        dens = factors[0] ** (alpha[0] - 1.0) * factors[1] ** (alpha[1] - 1.0)
        dens = dens * _monomial_value(coefficients, factors) * jac
    else:
        # t1 = x, t2 = (1-x) y, t3 = (1-x)(1-y) with x, y on the grid
        x = s[:, None]
        y = s[None, :]
        factors = (x, (1.0 - x) * y, (1.0 - x) * (1.0 - y))
        jac2 = jac[:, None] * jac[None, :] * (1.0 - x)
        dens = (
            factors[0] ** (alpha[0] - 1.0)
            * factors[1] ** (alpha[1] - 1.0)
            * factors[2] ** (alpha[2] - 1.0)
            * _monomial_value(coefficients, factors)
            * jac2
        )
    entry = (factors, dens, float(dens.sum()))
    while len(_GRID_CACHE) >= 2:
        _GRID_CACHE.pop(next(iter(_GRID_CACHE)))
    _GRID_CACHE[key] = entry
    return entry


def quadrature_moment(
    env: VertexEnvLaw, counts: Sequence[int], points_per_axis: int = 2048
) -> float:
    """Mixed moment by tensor-grid quadrature over the simplex (test oracle).

    Only density families (Dirichlet and polynomial-Dirichlet) of dimension
    at most 3 are supported.  The free coordinates are mapped through
    ``t = sin^2(pi u / 2)``, which absorbs endpoint singularities of Dirichlet
    kernels with alpha >= 1/2, and integrated with the midpoint rule on a
    uniform grid.  Accuracy is around 1e-7 for the built-in densities.
    """
    if isinstance(env, DirichletEnv):
        alpha = env.alpha
        coefficients: Mapping[Counts, float] = {(0,) * env.dimension: 1.0}
    elif isinstance(env, PolynomialDirichletEnv):
        alpha = env.alpha
        coefficients = env.coefficients
    else:
        raise EvaluationError(
            f"quadrature oracle needs a density family, got {type(env).__name__}"
        )
    d = env.dimension
    if d > 3:
        raise EvaluationError("quadrature oracle supports dimension <= 3")
    c = as_counts(counts)
    if len(c) != d:
        raise DimensionMismatchError(f"counts {c} do not match dimension {d}")
    if d == 1:
        return 1.0

    n = int(points_per_axis)
    key = (alpha, tuple(sorted(coefficients.items())), n)
    factors, dens, dens_total = _density_grid(key, alpha, coefficients, d, n)
    numer = dens
    for i, k in enumerate(c):
        if k:
            numer = numer * factors[i] ** k
    return float(numer.sum() / dens_total)
