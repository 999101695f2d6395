"""Reference helpers that only the tests use: square defects, monotone paths,
lattice enumeration by filtering the cube, finite differences of a moment
table by inclusion-exclusion, the quadrature oracle for mixed
moments, rising factorials, rising-factorial polynomials and multinomials
through scipy's log-gamma, independent of the package's summed logs, the
package's own ``log (y)_k`` for the tests to check against them, the move
counts a trajectory implies, the log probability of a move sequence under a
law, the exact path law of edge-reinforced random walk, in fractions and
sharing no code with the package, and one stream's environment draws in
scalars.  Also three laws of the tests' own: one that leaves the simplex
mid-walk, one that is not closed and one that reverses a Dirichlet law's
moves."""

import math
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import add
from typing import Mapping, Sequence

import numpy as np
from scipy.special import gammaln, logsumexp

from urnwalk.environment import DirichletEnv, PolynomialDirichletEnv, VertexEnvLaw
from urnwalk.errors import DimensionMismatchError, EvaluationError, MomentOrderError
from urnwalk.laws import (
    MIN_WEIGHT,
    Counts,
    DirichletLaw,
    LogRisingTable,
    ReinforcementLaw,
    as_counts,
)
from urnwalk.moments import MomentTable
from urnwalk.walk import Graph


class DriftingLaw(ReinforcementLaw):
    """Polya weights on two moves, alpha (1/2, 1/2), whose sum misses the simplex
    by 1e-9 from count 522 of move 1 on: a law that fails its check mid-walk."""

    dimension = 2

    def log_weights(self, counts: Sequence[int]) -> np.ndarray:
        c = self._check_counts(counts)
        total = 1 + sum(c)
        weights = [(0.5 + c[0]) / total, (0.5 + c[1]) / total]
        if c[1] >= 522:
            weights[1] += 1e-9
        return np.log(weights)


class Tilted(ReinforcementLaw):
    """Polya weights with move 0 favoured at odd first counts: not closed.

    It defines ``_log_weights`` and no other form, so every read of it,
    walks included, takes these weights; the Polya rows come from a held
    :class:`DirichletLaw`."""

    def __init__(self, alpha):
        self.polya = DirichletLaw(alpha)
        self.dimension = self.polya.dimension

    def _log_weights(self, c):
        w = np.exp(self.polya._log_weights(c))
        if c[0] % 2:
            w[0] *= 1.5
        return np.log(w / w.sum())


class ReversedDirichlet(ReinforcementLaw):
    """Dirichlet weights in reverse order, read from a held :class:`DirichletLaw`
    through its ``_simplex``, ``_log_weights`` and array rows."""

    def __init__(self, alpha):
        self.polya = DirichletLaw(alpha)
        self.dimension = self.polya.dimension

    def _simplex(self, c):
        return self.polya._simplex(c)[::-1]

    def _log_weights(self, c):
        return self.polya._log_weights(c)[::-1]

    def _log_weights_rows(self, c):
        return self.polya._log_weights_rows(c)[:, ::-1]


def environment_by_scalars(envs: Sequence[VertexEnvLaw], rng: np.random.Generator) -> list[float]:
    """One stream's environment weights, vertex after vertex, in Python scalars.

    The declared order of draws: one uniform per polynomial vertex to pick its
    monomial (by the running sum of its mixture weights), one gamma draw per
    Dirichlet coordinate (shape alpha + 1 below 1), one uniform per such boost,
    then every other vertex's ``sample``.  A Dirichlet point takes
    ``math.log`` of each gamma draw (0 counted as the least float) plus
    ``log(1 - U) / alpha`` where boosted, ``math.exp`` of each less the
    largest, a sum left to right, a division and the floor at ``MIN_WEIGHT``;
    where every log is -inf, the least ``log(-log(1 - U)) - log(alpha)`` takes 1.
    """
    density = [x for x, env in enumerate(envs) if isinstance(env, (DirichletEnv, PolynomialDirichletEnv))]
    alphas = {x: envs[x].alpha for x in density}
    polynomial = [x for x in density if isinstance(envs[x], PolynomialDirichletEnv)]
    for x, u in zip(polynomial, rng.random(len(polynomial)).tolist()):
        acc, probs = 0.0, envs[x]._mixture_probs
        pick = next((i for i, w in enumerate(probs) if u < (acc := acc + w)), len(probs) - 1)
        alphas[x] = envs[x]._components[pick]
    gammas = [rng.standard_gamma(a + 1.0 if a < 1.0 else a) for x in density for a in alphas[x]]
    boosts = iter(rng.random(sum(a < 1.0 for x in density for a in alphas[x])).tolist())
    points, gammas = {}, iter(gammas)
    for x in density:
        logs, keys = [], []
        for a in alphas[x]:
            log = math.log(next(gammas) or math.ulp(0.0))
            if a < 1.0:
                boost = math.log(1.0 - next(boosts))
                log += boost / a
                keys.append(math.log(-boost) - math.log(a) if boost else math.inf)
            logs.append(log)
        top = max(logs)
        if top == -math.inf:
            win = keys.index(min(keys))
            points[x] = [1.0 if i == win else MIN_WEIGHT for i in range(len(logs))]
            continue
        shifted = [math.exp(v - top) for v in logs]
        total = reduce(add, shifted)
        points[x] = [max(w / total, MIN_WEIGHT) for w in shifted]
    for x, env in enumerate(envs):
        if x not in points:
            points[x] = list(env.sample(rng).weights)
    return [w for x in range(len(envs)) for w in points[x]]


def transition_counts(graph: Graph, trajectory: Sequence[int]) -> dict[int, Counts]:
    """Reconstruct per-vertex move counts from a trajectory.

    Requires every step to resolve to a unique ordered-list position; on
    multigraphs with repeated targets the reconstruction is ambiguous and
    a ValueError is raised.
    """
    counts: dict[int, list[int]] = {}
    for x, y in zip(trajectory, trajectory[1:]):
        indices = [i for i, target in enumerate(graph.neighbors[x]) if target == y]
        if not indices:
            raise ValueError(f"trajectory step {x}->{y} is not a graph edge")
        if len(indices) > 1:
            raise ValueError(
                f"trajectory step {x}->{y} is ambiguous: {len(indices)} parallel moves"
            )
        at_x = counts.setdefault(x, [0] * graph.degree(x))
        at_x[indices[0]] += 1
    return {x: tuple(c) for x, c in counts.items()}


def rising_factorial(y: float, k: int) -> float:
    """Return ``y (y+1) ... (y+k-1)``; the empty product (k=0) is 1.

    A plain product while ``y + k <= 30``, a log-gamma difference beyond.
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
    return math.exp(gammaln_rising_factorial(y, k))


def gammaln_rising_factorial(y: float, k: int) -> float:
    """``log (y)_k`` as a difference of scipy log-gammas: the oracle for the package's summed logs."""
    return float(gammaln(y + k) - gammaln(y))


def log_rising_factorial(y: float, k: int) -> float:
    """The package's ``log (y)_k``: the entry of a one-row :class:`LogRisingTable`."""
    return LogRisingTable((y,)).at((k,))[0]


def per_term_log_rising_polynomial(coefficients: Mapping[Counts, float], y: Sequence[float],
                                   log_rising=gammaln_rising_factorial) -> float:
    """Log of ``sum_k a_k prod_i (y_i)_{k_i}`` term by term, through scipy's logsumexp.

    Each term is ``log a_k`` plus one ``log_rising(y_i, k_i)`` per factor,
    the factors added left to right.  With the default scipy log-gamma
    differences it shares no code with the package; with the package's
    ``log_rising_factorial`` it is the formulation that the polynomial's
    column table must keep bit for bit.
    """
    ys = [float(v) for v in y]
    terms = [
        math.log(coeff) + reduce(add, [log_rising(ys[i], k) for i, k in enumerate(index)])
        for index, coeff in coefficients.items()
        if coeff != 0.0
    ]
    return float(logsumexp(terms))


def log_rising_polynomial(coefficients: Mapping[Counts, float], y: Sequence[float]) -> float:
    """Log of ``sum_k a_k prod_i (y_i)_{k_i}`` for positive y, from scipy's log-gamma."""
    if any(v <= 0 for v in y):
        raise ValueError("polynomial arguments must be strictly positive")
    return per_term_log_rising_polynomial(coefficients, y)


def rising_polynomial(coefficients: Mapping[Counts, float], y: Sequence[float]) -> float:
    """``sum_k a_k prod_i (y_i)_{k_i}``, a sum of products of :func:`rising_factorial`."""
    return math.fsum(
        coeff * math.prod(rising_factorial(y_i, k) for y_i, k in zip(y, index))
        for index, coeff in coefficients.items()
    )


def log_multinomial(counts: Sequence[int]) -> float:
    """Log of the multinomial coefficient via log-gamma, for large totals."""
    c = as_counts(counts)
    return float(gammaln(sum(c) + 1) - sum(gammaln(k + 1) for k in c))


def square_defect(law: ReinforcementLaw, counts: Sequence[int], i: int, j: int) -> float:
    """Log defect of the elementary square at ``counts`` spanned by moves i, j.

    Returns ``ln V_i(p) + ln V_j(p+e_i) - ln V_j(p) - ln V_i(p+e_j)``; zero
    exactly when the square relation V_i(p) V_j(p+e_i) = V_j(p) V_i(p+e_j)
    holds.  Move indices are 0-based.
    """
    d = law.dimension
    if i == j or not (0 <= i < d) or not (0 <= j < d):
        raise ValueError(f"need two distinct move indices in 0..{d - 1}, got {i}, {j}")
    p = as_counts(counts)
    p_i = p[:i] + (p[i] + 1,) + p[i + 1 :]
    p_j = p[:j] + (p[j] + 1,) + p[j + 1 :]
    lhs = float(law.log_weights(p)[i] + law.log_weights(p_i)[j])
    rhs = float(law.log_weights(p)[j] + law.log_weights(p_j)[i])
    return lhs - rhs


def path_product(law: ReinforcementLaw, steps: Sequence[int]) -> float:
    """Log probability of a move sequence starting from zero counts.

    Accumulates ``sum_t ln V_{s(t)}(counts before step t)``.  For admissible
    laws the result depends only on the endpoint of the sequence, how often
    each move appears in it.
    The empty path returns 0 (product 1).
    """
    counts = [0] * law.dimension
    total = 0.0
    for s in steps:
        if not (0 <= s < law.dimension):
            raise DimensionMismatchError(
                f"step index {s} out of range for dimension {law.dimension}"
            )
        total += float(law.log_weights(tuple(counts))[s])
        counts[s] += 1
    return total


def path_endpoint(steps: Sequence[int], dimension: int) -> Counts:
    """Endpoint of a monotone lattice path: how often each move appears."""
    counts = [0] * dimension
    for s in steps:
        if not (0 <= s < dimension):
            raise DimensionMismatchError(
                f"step index {s} out of range for dimension {dimension}"
            )
        counts[s] += 1
    return tuple(counts)


def random_monotone_path(endpoint: Sequence[int], rng: np.random.Generator) -> list[int]:
    """A uniformly shuffled monotone path from the origin to ``endpoint``."""
    target = as_counts(endpoint)
    steps = [i for i, k in enumerate(target) for _ in range(k)]
    rng.shuffle(steps)
    return steps


def cube_slice(dimension: int, degree: int) -> list[Counts]:
    """Count vectors of total degree ``degree``, lexicographic, filtered from the cube."""
    return [k for k in product(range(degree + 1), repeat=dimension) if sum(k) == degree]


def cube_ball(dimension: int, order: int) -> list[Counts]:
    """Count vectors of total degree <= ``order``, graded lexicographic, filtered and sorted."""
    out = [k for k in product(range(order + 1), repeat=dimension) if sum(k) <= order]
    out.sort(key=lambda k: (sum(k), k))
    return out


def finite_difference(table: MomentTable, h: Sequence[int], k: Sequence[int]) -> float:
    """``Delta^h(v)(k) = sum_{0<=m<=h} (-1)^{|h|-|m|} C(h,m) v_{k+m}``, summed by ``math.fsum``.

    The tests' own inclusion-exclusion, apart from the package's scan; the
    one-step operators commute, so the expansion is order-independent.
    Requires ``|h| + |k| <= order``.
    """
    if len(h) != table.dimension or len(k) != table.dimension:
        raise MomentOrderError("h and k must match the table dimension")
    if sum(h) + sum(k) > table.order:
        raise MomentOrderError(f"|h| + |k| = {sum(h) + sum(k)} exceeds table order {table.order}")
    terms = []
    for m in product(*(range(hi + 1) for hi in h)):
        coeff = (-1) ** (sum(h) - sum(m)) * math.prod(map(math.comb, h, m))
        terms.append(coeff * table.value([a + b for a, b in zip(k, m)]))
    return math.fsum(terms)


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


def errw_step(neighbors: Sequence[Sequence[int]], history: Sequence[int], a: Fraction
              ) -> dict[int, Fraction]:
    """The next-vertex law of edge-reinforced random walk after ``history``.

    Each undirected edge weighs ``a`` plus the number of times the walk has
    crossed it, in either direction (Coppersmith-Diaconis; Pemantle 1988).
    """
    crossed = Counter(frozenset(edge) for edge in zip(history, history[1:]))
    x = history[-1]
    weights = [a + crossed[frozenset((x, y))] for y in neighbors[x]]
    return {y: w / sum(weights) for y, w in zip(neighbors[x], weights)}


def errw_paths(neighbors: Sequence[Sequence[int]], x0: int, steps: int, a: Fraction
               ) -> dict[tuple[int, ...], Fraction]:
    """Every length-``steps`` trajectory of the ERRW from ``x0``, with its probability."""
    paths = {(x0,): Fraction(1)}
    for _ in range(steps):
        paths = {path + (y,): p * q for path, p in paths.items()
                 for y, q in errw_step(neighbors, path, a).items()}
    return paths
