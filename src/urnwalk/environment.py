"""Per-vertex environment laws: distributions over transition vectors.

An environment law is a probability measure on the open simplex of a
vertex's move probabilities.  The module provides exact mixed moments
``E[prod_i omega_i^{k_i}]`` for each built-in family, memoised per count
vector on the environment, seeded sampling (a block's environments in one
:func:`draw_environments` call), and the forward map from an environment law
to the reinforcement law it induces (ratio of consecutive mixed moments).
The induced law and the annealed walk's exact enumeration read the same
moment memo, so a compare of the two evaluates each once.

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
from bisect import bisect_right
from functools import reduce
from itertools import accumulate
from operator import add
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DimensionMismatchError
from .laws import (
    BATCH_ELEMENTS,
    MIN_WEIGHT,
    Counts,
    LogRisingTable,
    ReinforcementLaw,
    RisingPolynomial,
    SimplexPoint,
    _memoised,
    _check_subclass,
    batch_counts,
    check_alpha,
    check_counts,
    draw_index,
    log_sum_exp,
    log_sum_exp_rows,
    math_each,
    row_sums,
)

#: The order of a stream's environment draws, recorded by the outputs that draw environments.
ENVIRONMENT_DRAWS = "random(picks) standard_gamma(dirichlet coordinates) random(boosts) sample(others)"


def _dirichlet_draw(alphas: np.ndarray, gammas: np.ndarray, boosted: list, degrees: list) -> np.ndarray:
    """Dirichlet points of ``[n, K]`` draws, row i trajectory i's for vertices of ``degrees``.

    Coordinate j takes ``log G + log(1 - U) / alpha_j``, with ``G`` a
    ``Gamma(alpha_j + 1)`` draw and ``U`` the next uniform of ``boosted`` where
    ``alpha_j < 1`` (Marsaglia and Tsang's (2000) boost, as a gamma draw there
    can underflow), else a ``Gamma(alpha_j)`` draw and 0; a ``G`` of 0 counts as
    the least float.  A point is the exponentials of its logs less the largest,
    over their sum left to right, each raised to ``MIN_WEIGHT`` (no 53-bit
    uniform tells values below it apart).  Where every log is -inf (the boosts
    of alpha near the least float), the least ``-log(1 - U_j) / alpha_j``, in
    logs, is the largest weight of the true draw and takes 1.  Logs and exps are
    ``math``'s (libm); numpy only adds, subtracts, divides and takes maxima, in
    a ``[n, vertices, width]`` grid, so no bit depends on its SIMD loops.
    """
    n, width, starts = len(alphas), max(degrees, default=1), np.array([0, *accumulate(degrees)])
    shape, vertex = (n, len(degrees), width), np.repeat(np.arange(len(degrees)), degrees)
    padded = np.arange(alphas.shape[1]) + vertex * width - starts[vertex]
    boosts = np.zeros_like(alphas)
    if boosted:
        boosts[alphas < 1.0] = math_each(math.log, 1.0 - np.concatenate(boosted))
    grid = np.full((n, len(degrees) * width), -math.inf)
    with np.errstate(over="ignore", invalid="ignore"):  # -inf - -inf at the points of the last rule
        grid[:, padded] = logs = math_each(math.log, np.maximum(gammas, math.ulp(0.0))) + boosts / alphas
        top = grid.reshape(shape).max(axis=2)
        shifted = math_each(math.exp, logs - top.take(vertex, axis=1))
    grid[:] = 0.0
    grid[:, padded] = shifted
    out = np.maximum(shifted / row_sums(grid.reshape(shape)).take(vertex, axis=1), MIN_WEIGHT)
    for r, x in np.argwhere(top == -math.inf).tolist():  # every coordinate is boosted, no boost 0
        point = slice(starts[x], starts[x + 1])
        keys = [math.log(-b) - math.log(a) for b, a in zip(boosts[r, point], alphas[r, point])]
        out[r, point] = MIN_WEIGHT
        out[r, starts[x] + keys.index(min(keys))] = 1.0
    return out


def draw_environments(envs: Sequence[VertexEnvLaw], streams: Iterable[np.random.Generator],
                      uniforms: np.ndarray = np.empty((1, 0))) -> np.ndarray:
    """The ``[n, moves]`` environments of ``n = len(uniforms)`` trajectories, of the next n ``streams``.

    Row i holds trajectory i's weights, vertex after vertex.  Its stream gives
    ``random(p)`` to pick a monomial of each of its p :class:`PolynomialDirichletEnv`
    (:func:`~urnwalk.laws.draw_index`'s rule, by bisection of the running sums),
    one ``standard_gamma`` over every Dirichlet coordinate, ``random(b)`` for its
    b boosts, each other vertex's ``sample`` in turn, then ``uniforms[i]``.  The
    points, :func:`_dirichlet_draw`'s, are not checked on the simplex; a sample
    of a wrong dimension raises.
    """
    n, dims = len(uniforms), [env.dimension for env in envs]
    starts = list(accumulate(dims, initial=0))
    density = [x for x, env in enumerate(envs) if type(env) in (DirichletEnv, PolynomialDirichletEnv)]
    others = sorted(set(range(len(envs))).difference(density))
    picks = [j for j, x in enumerate(density) if type(envs[x]) is PolynomialDirichletEnv]
    chosen = [envs[x].alpha for x in density]
    sums = {j: list(accumulate(envs[density[j]]._mixture_probs[:-1])) for j in picks}
    out, alphas = np.empty((n, starts[-1])), np.empty((n, len(sum(chosen, ()))))
    gammas, boosted = np.empty_like(alphas), []
    for row, rng in zip(range(n), streams):
        for j, u in zip(picks, rng.random(len(picks)).tolist() if picks else ()):
            chosen[j] = envs[density[j]]._components[bisect_right(sums[j], u)]
        if picks or not row:
            alpha = np.array(sum(chosen, ()))
            shape, b = alpha + (alpha < 1.0), np.count_nonzero(alpha < 1.0)
        alphas[row] = alpha
        if density:
            gammas[row] = rng.standard_gamma(shape)
            boosted += [rng.random(b)] if b else []
        for x in others:
            point = envs[x].sample(rng).weights
            if len(point) != dims[x]:
                raise DimensionMismatchError(
                    f"assignment at vertex {x} has dimension {len(point)}, degree is {dims[x]}")
            out[row, starts[x] : starts[x + 1]] = point
        rng.random(out=uniforms[row])
    placed = [j for x in density for j in range(starts[x], starts[x + 1])]
    out[:, placed] = _dirichlet_draw(alphas, gammas, boosted, [dims[x] for x in density])
    return out


class VertexEnvLaw:
    """Base class for environment laws at a single vertex.

    Immutable after construction; sampling takes an explicit generator so
    callers control stream discipline.  The induced law and the annealed
    enumeration read moments through :meth:`_memo_log_moment`.  A subclass
    defines :meth:`log_mixed_moment` and :meth:`sample`, which the generic forms
    read, and subclasses this class directly (:func:`~urnwalk.laws._check_subclass`).
    """

    dimension: int

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        _check_subclass(cls, VertexEnvLaw)

    def log_mixed_moment(self, counts: Sequence[int]) -> float:
        """Log of E[prod_i omega_i^{k_i}]; 0 at k = 0."""
        raise NotImplementedError

    @_memoised("_log_moment_memo")
    def _memo_log_moment(self, counts: Counts) -> float:
        """Memoised :meth:`log_mixed_moment`: a miss calls it, so bad counts raise each time."""
        return self.log_mixed_moment(counts)

    def log_mixed_moments(self, counts: np.ndarray) -> np.ndarray:
        """:meth:`log_mixed_moment` of each row of an ``[N, d]`` count array.

        Bit for bit the per-point value of every row: a loop over the rows
        here, one array pass in the density families.
        """
        rows = batch_counts(counts, self.dimension).tolist()
        return np.array([self.log_mixed_moment(row) for row in rows], dtype=float)

    def mixed_moment(self, counts: Sequence[int]) -> float:
        return math.exp(self.log_mixed_moment(counts))

    def sample(self, rng: np.random.Generator) -> SimplexPoint:
        """One draw of the vertex's transition vector, :func:`draw_environments`'s
        for the density families; it reads every other family through this alone."""
        raise NotImplementedError


class DirichletEnv(VertexEnvLaw):
    """Dirichlet law with parameter vector alpha (all entries positive).

    ``E[prod t^k] = prod_i (alpha_i)_{k_i} / (A)_{|k|}`` with ``A = sum(alpha)``,
    read from one :class:`~urnwalk.laws.LogRisingTable` whose rows are the
    coordinates and the total.
    """

    def __init__(self, alpha: Sequence[float]):
        arr = check_alpha(alpha)
        self.alpha = tuple(float(a) for a in arr)
        self.dimension = arr.size
        self._rising = LogRisingTable(self.alpha + (float(arr.sum()),))

    def log_mixed_moment(self, counts: Sequence[int]) -> float:
        c = check_counts(counts, self.dimension, "environment")
        *num, den = self._rising.at(c + (sum(c),))
        # left to right, as log_mixed_moments adds its columns (the builtin sum
        # compensates rounding from Python 3.12 on)
        return reduce(add, num) - den

    def log_mixed_moments(self, counts: np.ndarray) -> np.ndarray:
        c = batch_counts(counts, self.dimension)
        logs = self._rising.values(np.column_stack([c, c.sum(axis=1)]))
        return row_sums(logs[:, :-1]) - logs[:, -1]

    def sample(self, rng: np.random.Generator) -> SimplexPoint:
        return SimplexPoint(tuple(draw_environments([self], [rng])[0].tolist()))

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
    ``R(y) = sum_k a_k prod_i (y_i)_{k_i}``::

        E[prod t^k] = prod_i (alpha_i)_{k_i}
                      * R(alpha + k) / R(alpha)
                      * (A)_n / (A)_{n + |k|},   A = sum(alpha)

    validated against the quadrature oracle in the test suite.  The rising
    factorials of alpha and A come from one
    :class:`~urnwalk.laws.LogRisingTable`, as in :class:`DirichletEnv`, and
    ``R(alpha + k)`` and the mixture weights (its terms at ``k = 0``) from
    the column tables of one :class:`~urnwalk.laws.RisingPolynomial` of alpha.
    A draw picks a monomial ``k`` by its weight, then draws from Dirichlet(``alpha + k``),
    whose alpha the polynomial's alpha check covers.
    """

    def __init__(
        self,
        alpha: Sequence[float],
        degree: int,
        coefficients: Mapping[Sequence[int], float],
    ):
        self._poly = poly = RisingPolynomial(alpha, degree, coefficients)
        self.dimension, self.degree, arr = poly.dimension, poly.degree, poly.alpha
        self.alpha, self.coefficients = tuple(arr.tolist()), poly.coefficients
        self._rising = LogRisingTable(self.alpha + (float(arr.sum()),))
        self._log_rising_degree = self._rising.at((0,) * self.dimension + (self.degree,))[-1]
        # mixture over monomials: weight_k proportional to a_k * prod Gamma(alpha_i + k_i),
        # and so to a_k * prod (alpha_i)_{k_i}, the polynomial's terms at alpha
        log_w = np.array(self._poly.log_terms((0,) * self.dimension))
        self._log_poly_alpha = log_sum_exp(log_w)
        # builtin floats, which draw_index adds faster than numpy scalars, to the same bits
        self._mixture_probs = np.exp(log_w - self._log_poly_alpha).tolist()
        self._components = [tuple((arr + k).tolist()) for k in self._poly.exponents]

    def log_mixed_moment(self, counts: Sequence[int]) -> float:
        c = check_counts(counts, self.dimension, "environment")
        *num, den = self._rising.at(c + (self.degree + sum(c),))
        return (
            reduce(add, num)
            + self._poly.log_value(c)
            - self._log_poly_alpha
            + self._log_rising_degree
            - den
        )

    def log_mixed_moments(self, counts: np.ndarray) -> np.ndarray:
        c = batch_counts(counts, self.dimension)
        logs = self._rising.values(np.column_stack([c, self.degree + c.sum(axis=1)]))
        return (
            row_sums(logs[:, :-1])
            + self._poly.log_values(c)
            - self._log_poly_alpha
            + self._log_rising_degree
            - logs[:, -1]
        )

    def sample(self, rng: np.random.Generator) -> SimplexPoint:
        return SimplexPoint(tuple(draw_environments([self], [rng])[0].tolist()))

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
        c = check_counts(counts, self.dimension, "environment")
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
            if not w > 0:
                raise ValueError("atom weights must be strictly positive")
            if not isinstance(point, SimplexPoint):
                point = SimplexPoint(tuple(float(x) for x in point))
            cleaned.append((w, point))
        total = math.fsum(w for w, _ in cleaned)
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"atom weights sum to {total!r}, not 1")
        dims = {p.dim for _, p in cleaned}
        if len(dims) != 1:
            raise DimensionMismatchError("atoms disagree on dimension")
        self.dimension = dims.pop()
        self.atoms = tuple(cleaned)
        self._weights = [w for w, _ in cleaned]
        self._log_weights = np.log(self._weights)
        self._log_points = np.array([p.log_weights() for _, p in cleaned])

    def log_mixed_moment(self, counts: Sequence[int]) -> float:
        c = check_counts(counts, self.dimension, "environment")
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
    driven by this law reproduce the annealed walk in distribution.  The
    moments come from the environment's memo, shared with the annealed walk.

    The log weights are the moment differences minus their
    :func:`~urnwalk.laws.log_sum_exp`: equal in exact arithmetic, but the
    rounding of moments at large counts no longer adds up along a long walk
    to a row that misses the simplex.
    """

    def __init__(self, env: VertexEnvLaw):
        self.env = env
        self.dimension = env.dimension

    # the base's body, not an alias: perfbench/worker.py counts moment misses under this name
    def log_weights(self, counts: Sequence[int]) -> np.ndarray:
        return self._memo_log_weights(self._check_counts(counts))

    def _log_weights(self, c: Counts) -> np.ndarray:
        if self.dimension == 1:
            # the only move is forced; a moment ratio would leave rounding error
            return np.zeros(1)
        base = self.env._memo_log_moment(c)
        out = np.empty(self.dimension)
        for i in range(self.dimension):
            bumped = c[:i] + (c[i] + 1,) + c[i + 1 :]
            out[i] = self.env._memo_log_moment(bumped) - base
        return out - log_sum_exp(out)

    def _log_weights_rows(self, c: np.ndarray) -> np.ndarray:
        """One :meth:`VertexEnvLaw.log_mixed_moments` call per block of rows.

        Each call takes the block's rows and their bumps ``c + e_i``; move i
        gets ``m(c + e_i) - m(c)``, less the row's log-sum-exp.
        """
        n, d = c.shape
        if d == 1:
            return np.zeros((n, 1))
        out = np.empty((n, d))
        # stack[0] is the block itself and stack[1 + i] the block bumped along axis i
        shifts = np.concatenate([np.zeros((1, d), dtype=np.int64), np.eye(d, dtype=np.int64)])
        block = max(1, BATCH_ELEMENTS // (d * (d + 1)))
        for start in range(0, n, block):
            stack = c[None, start : start + block] + shifts[:, None, :]
            log_m = self.env.log_mixed_moments(stack.reshape(-1, d)).reshape(d + 1, -1)
            out[start : start + block] = (log_m[1:] - log_m[0]).T
        return out - log_sum_exp_rows(out)[:, None]

    def __repr__(self) -> str:
        return f"EnvMomentLaw(env={self.env!r})"


def law_from_env(env: VertexEnvLaw) -> ReinforcementLaw:
    """Reinforcement law whose walk matches the environment's annealed walk."""
    return EnvMomentLaw(env)
