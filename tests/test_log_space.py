"""Log-space arithmetic and Dirichlet normalisation against their oracles, bit for bit,
and pinned trajectories.

``log_sum_exp`` must return the same bits as ``scipy.special.logsumexp``, and
the rising-factorial polynomial, read from its per-coordinate columns, the
same bits as the per-term formulation it replaced (``oracles``, with the
package's summed-log rising factorials as factors).  Every float oracle runs
on the same machine, so no float value is hard-coded; sampled trajectories
are integers and are pinned.

The moment oracle adds its factors with the builtin ``sum``, which is plain
left-to-right addition on Python 3.11, the version CI runs.
"""

import functools
import hashlib
import itertools
import math
import operator
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp as scipy_logsumexp

from catalog import POLY_LINEAR_2D, POLY_QUADRATIC_3D
from oracles import log_rising_factorial, per_term_log_rising_polynomial
from urnwalk import laws
from urnwalk.environment import (
    DirichletEnv,
    EmpiricalEnv,
    EnvMomentLaw,
    PointMassEnv,
    PolynomialDirichletEnv,
)
from urnwalk.equivalence import (
    enumerate_annealed,
    enumerate_both,
    enumerate_reinforced,
)
from urnwalk.laws import (
    MIN_WEIGHT,
    SIMPLEX_MEMO_LIMIT,
    DirichletLaw,
    PolynomialDirichletLaw,
    RisingPolynomial,
    SimplexPoint,
    TabulatedLaw,
    UniformLaw,
    log_sum_exp,
    sum_as_numpy,
)
from urnwalk.moments import slice_indices
from urnwalk.walk import (
    Graph,
    cycle_graph,
    make_stream,
    run_annealed,
    run_quenched,
    run_reinforced,
    sample_environment,
    star_graph,
)


def same_bits(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def scipy_lse(values) -> float:
    return float(scipy_logsumexp(values))


# --- log_sum_exp against scipy -------------------------------------------------

_ENTRY = st.one_of(
    st.floats(min_value=-40.0, max_value=40.0),
    st.floats(min_value=-800.0, max_value=800.0),
    st.just(-math.inf),
)


@st.composite
def lse_inputs(draw):
    values = draw(st.lists(_ENTRY, min_size=1, max_size=8))
    # repeat some entries so the maximum is often tied
    repeats = draw(st.lists(st.integers(0, len(values) - 1), max_size=8 - len(values)))
    return draw(st.permutations(values + [values[i] for i in repeats]))


class TestLogSumExp:
    @settings(max_examples=1500, deadline=None)
    @given(lse_inputs())
    def test_matches_scipy_bitwise(self, values):
        assert same_bits(log_sum_exp(values), scipy_lse(values))
        assert same_bits(log_sum_exp(np.array(values)), scipy_lse(values))

    @settings(max_examples=300, deadline=None)
    @given(st.floats(allow_nan=False))
    def test_singleton_matches_scipy(self, v):
        assert same_bits(log_sum_exp([v]), scipy_lse([v]))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_all_minus_infinity(self, n):
        values = [-math.inf] * n
        assert log_sum_exp(values) == -math.inf
        assert same_bits(log_sum_exp(values), scipy_lse(values))

    @pytest.mark.parametrize(
        "values",
        [[], [-0.0], [0.0, -0.0], [math.nan], [1.0, math.nan], [math.inf], [math.inf, 3.0],
         [math.inf, -math.inf], [1e308, 1e308], [2.0, 2.0, 2.0]],
    )
    def test_edge_cases_match_scipy(self, values):
        assert same_bits(log_sum_exp(values), scipy_lse(values))


# --- tabulated rising-factorial polynomial against the per-term formulation ----


def summed_log_polynomial(coefficients, y) -> float:
    """The per-term formulation with the package's summed-log rising factorials as factors."""
    return per_term_log_rising_polynomial(coefficients, y, log_rising_factorial)


@st.composite
def polynomials(draw):
    d = draw(st.integers(1, 4))
    degree = draw(st.integers(0, 4))
    indices = slice_indices(d, degree)
    chosen = draw(st.lists(st.sampled_from(indices), min_size=1, max_size=len(indices), unique=True))
    coeffs = {k: draw(st.floats(min_value=0.0, max_value=10.0)) for k in chosen}
    coeffs[chosen[0]] = draw(st.floats(min_value=1e-3, max_value=10.0))
    alpha = draw(st.lists(st.floats(min_value=0.05, max_value=20.0), min_size=d, max_size=d))
    counts = tuple(draw(st.lists(st.integers(0, 40), min_size=d, max_size=d)))
    return alpha, degree, dict(sorted(coeffs.items())), counts


#: Counts at and around the edges of the blocks a column table grows by (to 8, 16, ... 256 counts).
_BLOCK_EDGES = [0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129, 255, 256, 257]


@st.composite
def column_reads(draw):
    """A polynomial, a bound on its column tables, and count vectors that cross
    the blocks' edges and the bound."""
    alpha, degree, coeffs, _ = draw(polynomials())
    limit = draw(st.sampled_from([1, 5, 64, 100, 130]))
    count = st.one_of(
        st.integers(0, 40), st.sampled_from(_BLOCK_EDGES), st.integers(max(0, limit - 2), limit + 2)
    )
    counts = draw(st.lists(st.tuples(*[count] * len(alpha)), min_size=1, max_size=12))
    return alpha, degree, coeffs, limit, counts


def hexes(values) -> list[str]:
    return [float(v).hex() for v in values]


class TestRisingPolynomialTable:
    @settings(max_examples=400, deadline=None)
    @given(polynomials())
    def test_function_matches_per_term_formulation(self, case):
        alpha, degree, coeffs, counts = case
        y = np.asarray(alpha) + np.asarray(counts, dtype=float)
        got = RisingPolynomial(alpha, degree, coeffs).log_value(counts)
        assert same_bits(got, summed_log_polynomial(coeffs, y))

    @pytest.mark.parametrize("index", [(1, 2, 3), (2, 1, 1, 3)])
    def test_factor_order_of_a_full_support_monomial(self, index):
        # with one term the sum of factors is the result, so a change in the
        # order the factors are added shows up here and not under a long sum
        coeffs = {index: 1.5}
        rng = np.random.default_rng(17)
        for y in rng.uniform(0.05, 40.0, size=(1000, len(index))):
            got = RisingPolynomial(y, sum(index), coeffs).log_value((0,) * len(index))
            assert same_bits(got, summed_log_polynomial(coeffs, y))

    # (1.22 + 6) + 1 and 1.22 + (6 + 1) round apart, and so do their logs: each log
    # takes its step t on alpha + c, as LogRisingTable does
    @example(([1.22, 1.0], 2, {(2, 0): 1.0}, 64, [(6, 0)]), random.Random(0))
    @settings(max_examples=200, deadline=None)
    @given(column_reads(), st.randoms(use_true_random=False))
    def test_columns_keep_the_per_term_bits_fresh_warm_and_in_batches(self, case, rng):
        alpha, degree, coeffs, limit, counts = case
        a = np.asarray(alpha)
        want = hexes(summed_log_polynomial(coeffs, a + np.asarray(c, dtype=float)) for c in counts)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(laws, "SIMPLEX_MEMO_LIMIT", limit)
            # a fresh polynomial for each point, then one warmed in another order
            assert hexes(RisingPolynomial(alpha, degree, coeffs).log_value(c) for c in counts) == want
            warm = RisingPolynomial(alpha, degree, coeffs)
            for c in rng.sample(counts, len(counts)):
                warm.log_value(c)
            assert hexes(warm.log_value(c) for c in counts) == want
            table = np.array(counts, dtype=np.int64)
            assert hexes(RisingPolynomial(alpha, degree, coeffs).log_values(table)) == want
            assert hexes(warm.log_values(table)) == want
        assert all(len(t) == len(rows) <= limit for t, rows in zip(warm._tables, warm._rows))

    @pytest.mark.parametrize("limit", [5, SIMPLEX_MEMO_LIMIT])
    def test_past_the_bound_the_columns_stop_growing_and_keep_their_bits(self, monkeypatch, limit):
        coeffs, alpha = {(2, 0): 0.5, (1, 1): 2.0, (0, 2): 0.25}, (0.7, 1.9)
        counts = [(limit - 1, 3), (limit, limit + 1), (limit + 1, 0), (10**5, 2)]
        want = hexes(summed_log_polynomial(coeffs, np.asarray(alpha) + c) for c in counts)
        monkeypatch.setattr(laws, "SIMPLEX_MEMO_LIMIT", limit)
        poly = RisingPolynomial(alpha, 2, coeffs)
        for _ in range(2):
            assert hexes(poly.log_value(c) for c in counts) == want
            assert hexes(poly.log_values(np.array(counts))) == want
            assert [len(t) for t in poly._tables] == [len(rows) for rows in poly._rows] == [limit] * 2

    @settings(max_examples=200, deadline=None)
    @given(polynomials())
    def test_law_matches_per_term_formulation(self, case):
        alpha, degree, coeffs, counts = case
        law = PolynomialDirichletLaw(alpha, degree, coeffs)
        got = law.log_weights(counts)
        if len(alpha) == 1:
            assert got.tolist() == [0.0]
            return
        a = np.asarray(alpha)
        base = summed_log_polynomial(coeffs, a + np.asarray(counts, dtype=float))
        total = float(a.sum()) + sum(counts) + degree
        for i in range(len(alpha)):
            bumped = np.asarray(counts, dtype=float)
            bumped[i] += 1
            want = (
                math.log(alpha[i] + counts[i])
                - math.log(total)
                + summed_log_polynomial(coeffs, a + bumped)
                - base
            )
            assert same_bits(got[i], want)

    @settings(max_examples=200, deadline=None)
    @given(polynomials())
    def test_env_moment_matches_per_term_formulation(self, case):
        alpha, degree, coeffs, counts = case
        env = PolynomialDirichletEnv(alpha, degree, coeffs)
        a = np.asarray(alpha)
        total = float(a.sum())
        want = (
            sum(log_rising_factorial(alpha[i], k) for i, k in enumerate(counts))
            + summed_log_polynomial(coeffs, a + np.asarray(counts, dtype=float))
            - summed_log_polynomial(coeffs, a)
            + log_rising_factorial(total, degree)
            - log_rising_factorial(total, degree + sum(counts))
        )
        assert same_bits(env.log_mixed_moment(counts), want)


# --- golden trajectories ----------------------------------------------------------

_STAR = star_graph(3)
_CYCLE = cycle_graph(5)
_LEAF_LAWS = {x: DirichletLaw([1.5]) for x in (1, 2, 3)}
_LEAF_ENVS = {x: PointMassEnv((1.0,)) for x in (1, 2, 3)}
_EMPIRICAL_2D = EmpiricalEnv([(0.25, (0.2, 0.8)), (0.75, (0.6, 0.4))])
_TRIANGLE = cycle_graph(3)
_TABLE_BOX_1 = {(0, 0): (0.5, 0.5), (1, 0): (0.8, 0.2), (0, 1): (0.3, 0.7), (1, 1): (0.6, 0.4)}
_CLAMPED = TabulatedLaw(1, {k: SimplexPoint(v) for k, v in _TABLE_BOX_1.items()}, fallback="clamp")
_CYCLE_ENVS = {x: DirichletEnv([0.8, 1.6]) for x in range(5)}
_FROZEN = sample_environment(_CYCLE, _CYCLE_ENVS, make_stream(77))
# nine moves at the centre: the weights normalise by numpy's pairwise sum, the environment
# draws left to right
_STAR_9 = star_graph(9)
_ALPHA_9 = [0.6, 1.1, 2.3, 0.9, 1.7, 0.5, 3.1, 1.3, 0.8]
_LEAF_9_LAWS = {x: DirichletLaw([1.5]) for x in range(1, 10)}
_LEAF_9_ENVS = {x: PointMassEnv((1.0,)) for x in range(1, 10)}

GOLDEN_CASES = {
    "poly_law_star": (
        run_reinforced, _STAR, {0: PolynomialDirichletLaw(**POLY_QUADRATIC_3D), **_LEAF_LAWS},
        [[0, 2, 0, 2, 0, 3, 0, 1, 0, 3, 0, 2, 0],
         [0, 2, 0, 2, 0, 2, 0, 2, 0, 3, 0, 1, 0],
         [0, 1, 0, 2, 0, 1, 0, 1, 0, 3, 0, 1, 0]],
    ),
    "poly_law_cycle": (
        run_reinforced, _CYCLE, {x: PolynomialDirichletLaw(**POLY_LINEAR_2D) for x in range(5)},
        [[0, 4, 3, 2, 3, 4, 3, 2, 1, 2, 3, 2, 1],
         [0, 4, 3, 2, 3, 2, 1, 0, 4, 0, 4, 3, 2],
         [0, 4, 0, 4, 0, 4, 3, 2, 1, 2, 1, 0, 4]],
    ),
    "env_law_star": (
        run_reinforced, _STAR,
        {0: EnvMomentLaw(PolynomialDirichletEnv(**POLY_QUADRATIC_3D)), **_LEAF_LAWS},
        [[0, 2, 0, 2, 0, 3, 0, 1, 0, 3, 0, 2, 0],
         [0, 2, 0, 2, 0, 2, 0, 2, 0, 3, 0, 1, 0],
         [0, 1, 0, 2, 0, 1, 0, 1, 0, 3, 0, 1, 0]],
    ),
    "env_law_cycle": (
        run_reinforced, _CYCLE, {x: EnvMomentLaw(_EMPIRICAL_2D) for x in range(5)},
        [[0, 4, 3, 2, 3, 4, 3, 2, 1, 2, 3, 2, 1],
         [0, 4, 3, 2, 3, 4, 3, 2, 1, 2, 1, 0, 4],
         [0, 4, 0, 4, 0, 4, 3, 2, 3, 4, 3, 2, 3]],
    ),
    "annealed_poly_star": (
        run_annealed, _STAR, {0: PolynomialDirichletEnv(**POLY_QUADRATIC_3D), **_LEAF_ENVS},
        [[0, 2, 0, 3, 0, 2, 0, 2, 0, 2, 0, 3, 0],
         [0, 2, 0, 2, 0, 2, 0, 1, 0, 2, 0, 3, 0],
         [0, 3, 0, 2, 0, 2, 0, 2, 0, 3, 0, 2, 0]],
    ),
    "annealed_emp_cycle": (
        run_annealed, _CYCLE, {x: _EMPIRICAL_2D for x in range(5)},
        [[0, 1, 0, 1, 2, 3, 2, 1, 2, 1, 2, 1, 0],
         [0, 1, 2, 1, 2, 1, 0, 1, 2, 1, 2, 1, 2],
         [0, 4, 0, 1, 2, 1, 0, 1, 0, 4, 0, 1, 2]],
    ),
    "dirichlet_law_cycle": (
        run_reinforced, _CYCLE, {x: DirichletLaw([0.7, 1.9]) for x in range(5)},
        [[0, 4, 0, 4, 0, 1, 2, 1, 2, 3, 4, 0, 4],
         [0, 4, 3, 4, 0, 1, 2, 1, 2, 3, 4, 3, 4],
         [0, 4, 0, 4, 0, 4, 3, 4, 0, 1, 0, 4, 0]],
    ),
    "uniform_law_cycle": (
        run_reinforced, _CYCLE, {x: UniformLaw(2) for x in range(5)},
        [[0, 4, 3, 2, 3, 4, 0, 4, 3, 4, 0, 4, 3],
         [0, 4, 3, 2, 3, 4, 3, 2, 1, 2, 1, 0, 4],
         [0, 4, 0, 4, 0, 4, 3, 2, 3, 4, 3, 2, 1]],
    ),
    "tabulated_clamp_triangle": (
        run_reinforced, _TRIANGLE, {x: _CLAMPED for x in range(3)},
        [[0, 2, 1, 0, 1, 2, 1, 0, 2, 0, 1, 0, 2],
         [0, 2, 1, 0, 1, 0, 2, 1, 0, 1, 0, 2, 1],
         [0, 2, 0, 2, 0, 2, 1, 0, 2, 0, 2, 1, 0]],
    ),
    "annealed_dirichlet_cycle": (
        run_annealed, _CYCLE, _CYCLE_ENVS,
        [[0, 1, 0, 1, 2, 3, 2, 3, 4, 3, 4, 0, 1],
         [0, 1, 2, 3, 2, 3, 4, 0, 1, 2, 3, 2, 3],
         [0, 1, 0, 1, 2, 1, 2, 3, 2, 1, 2, 1, 2]],
    ),
    "quenched_frozen_cycle": (
        run_quenched, _CYCLE, _FROZEN,
        [[0, 1, 2, 1, 2, 3, 4, 3, 4, 0, 1, 2, 1],
         [0, 1, 2, 1, 2, 3, 4, 3, 4, 0, 1, 2, 1],
         [0, 1, 2, 1, 2, 1, 2, 1, 2, 3, 4, 3, 4]],
    ),
    "dirichlet_law_star9": (
        run_reinforced, _STAR_9, {0: DirichletLaw(_ALPHA_9), **_LEAF_9_LAWS},
        [[0, 3, 0, 5, 0, 8, 0, 1, 0, 8, 0, 5, 0],
         [0, 3, 0, 4, 0, 6, 0, 3, 0, 7, 0, 3, 0],
         [0, 2, 0, 4, 0, 3, 0, 3, 0, 8, 0, 3, 0]],
    ),
    "annealed_dirichlet_star9": (
        run_annealed, _STAR_9, {0: DirichletEnv(_ALPHA_9), **_LEAF_9_ENVS},
        [[0, 9, 0, 5, 0, 2, 0, 8, 0, 1, 0, 7, 0],
         [0, 3, 0, 2, 0, 7, 0, 5, 0, 9, 0, 8, 0],
         [0, 2, 0, 5, 0, 1, 0, 8, 0, 9, 0, 2, 0]],
    ),
}

#: SHA-256 of the comma-joined 10,000-step trajectory of stream 0 of seed 20261018;
#: the walk crosses two boundaries of the blocks its uniforms are drawn in.
GOLDEN_LONG_WALKS = {
    "dirichlet_law_cycle": "d25511cd8112122f1b616615f90ebbee7cb79f86f673fbcc9460c7b805ca4dfb",
    "annealed_dirichlet_cycle": "ba5b61ba2c667c255cbed713268506c13e1dee2dce35debd303cfef992116dc3",
    "dirichlet_law_star9": "825e3607a9b482c4704aad322787b88c8dca7a7b1184fb3d6e729334cdc5ffcb",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_trajectories(name):
    run, graph, maps, expected = GOLDEN_CASES[name]
    got = [list(run(graph, maps, 0, 12, make_stream(20261017, s))) for s in range(3)]
    assert got == expected


@pytest.mark.parametrize("name", sorted(GOLDEN_LONG_WALKS))
def test_golden_long_walks(name):
    run, graph, maps, _ = GOLDEN_CASES[name]
    trajectory = run(graph, maps, 0, 10_000, make_stream(20261018, 0))
    digest = hashlib.sha256(",".join(map(str, trajectory)).encode()).hexdigest()
    assert digest == GOLDEN_LONG_WALKS[name]


# --- plain-Python normalisation against numpy's, bit for bit ---------------------

_DIRICHLET_CASES = st.integers(1, 10).flatmap(
    lambda d: st.tuples(
        st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=d, max_size=d),
        st.lists(st.integers(0, 10**6), min_size=d, max_size=d),
    )
)


@settings(max_examples=1000, deadline=None)
@given(_DIRICHLET_CASES)
def test_dirichlet_weights_match_numpy_bitwise(case):
    alpha, counts = case
    shifted = np.asarray(alpha) + np.asarray(counts, dtype=float)
    want = tuple((shifted / shifted.sum()).tolist())
    assert DirichletLaw(alpha).weights(counts).weights == want


def numpy_dirichlet_sample(alpha, rng) -> tuple[float, ...]:
    """``DirichletEnv.sample`` normalising with numpy: a gamma draw per coordinate
    (shape alpha + 1 below 1), then a uniform per such boost, their scalar logs
    shifted by their maximum, a sum left to right, then numpy's division and floor."""
    gammas = [rng.gamma(a + 1.0 if a < 1.0 else a) for a in alpha]
    boosts = iter(rng.random(sum(a < 1.0 for a in alpha)).tolist())
    logs = np.array([math.log(g) + (math.log(1.0 - next(boosts)) / a if a < 1.0 else 0.0)
                     for g, a in zip(gammas, alpha)])
    shifted = np.array([math.exp(v) for v in (logs - logs.max()).tolist()])
    total = functools.reduce(operator.add, shifted.tolist())
    return SimplexPoint(tuple(np.maximum(shifted / total, MIN_WEIGHT).tolist())).weights


@settings(max_examples=500, deadline=None)
@given(
    st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=10),
    st.integers(0, 2**32 - 1),
)
def test_dirichlet_env_sample_matches_numpy_bitwise(alpha, seed):
    # tiny alpha gives weights below MIN_WEIGHT, which both raise to it
    want = numpy_dirichlet_sample(alpha, make_stream(seed))
    assert DirichletEnv(alpha).sample(make_stream(seed)).weights == want


@settings(max_examples=1000, deadline=None)
@given(
    st.lists(
        st.one_of(st.floats(min_value=0.0, max_value=1e6), st.floats(min_value=0.0, max_value=1e-300)),
        min_size=1, max_size=10,
    )
)
def test_sum_as_numpy_matches_numpy_bitwise(values):
    assert same_bits(sum_as_numpy(values), float(np.sum(values)))


# --- enumeration against the per-path oracle on scipy's logsumexp -------------------

_MULTI = Graph(((1, 1, 2), (0,), (0,)))
_EMPIRICAL_3D = EmpiricalEnv([(0.25, (0.2, 0.3, 0.5)), (0.75, (0.6, 0.3, 0.1))])
_ONE_MOVE = {1: DirichletEnv([1.0]), 2: PointMassEnv((1.0,))}
_COMPLETE_4 = Graph(((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)))

ENUMERATION_CASES = {
    "multigraph_polynomial": (
        _MULTI,
        {0: PolynomialDirichletLaw(**POLY_QUADRATIC_3D), 1: DirichletLaw([1.0]), 2: DirichletLaw([2.0])},
        {0: PolynomialDirichletEnv(**POLY_QUADRATIC_3D), **_ONE_MOVE},
    ),
    "multigraph_empirical": (
        _MULTI,
        {0: EnvMomentLaw(_EMPIRICAL_3D), 1: DirichletLaw([1.0]), 2: DirichletLaw([2.0])},
        {0: _EMPIRICAL_3D, **_ONE_MOVE},
    ),
    "star_polynomial": (
        _STAR,
        {0: PolynomialDirichletLaw(**POLY_QUADRATIC_3D), **_LEAF_LAWS},
        {0: PolynomialDirichletEnv(**POLY_QUADRATIC_3D), **_LEAF_ENVS},
    ),
    # the empirical moment at zero counts is 5.55e-17, not 0: a vertex that only
    # other branches entered must not add it to a path's mass
    "complete_empirical": (
        _COMPLETE_4,
        {x: EnvMomentLaw(_EMPIRICAL_3D) for x in range(4)},
        {x: _EMPIRICAL_3D for x in range(4)},
    ),
}


# --- enumeration against a brute-force oracle -----------------------------------------
#
# The oracle shares no code with equivalence: it lists move-index sequences with
# itertools.product in lexicographic order, which is the traversal's depth-first
# order, applies the step rule and the moment product to each, and adds up the
# sequences of one trajectory with scipy's logsumexp.


def brute_force_sequences(graph, x0, steps):
    """(trajectory, [(vertex, counts there before the move, move)], final counts) of
    every move-index sequence of length ``steps`` from x0, in lexicographic order."""
    width = max(len(row) for row in graph.neighbors)
    for moves in itertools.product(range(width), repeat=steps):
        path, taken, counts = [x0], [], {}
        for i in moves:
            x = path[-1]
            if i >= len(graph.neighbors[x]):
                break
            at_x = counts.setdefault(x, [0] * len(graph.neighbors[x]))
            taken.append((x, tuple(at_x), i))
            at_x[i] += 1
            path.append(graph.neighbors[x][i])
        else:
            yield tuple(path), taken, counts


def oracle_reinforced(graph, laws, x0, steps):
    acc = {}
    for path, taken, _ in brute_force_sequences(graph, x0, steps):
        logp = 0.0
        for x, c, i in taken:
            logp = logp + float(laws[x].log_weights(c)[i])
        acc.setdefault(path, []).append(logp)
    return {t: scipy_lse(lps) for t, lps in acc.items()}


def oracle_annealed(graph, envs, x0, steps):
    acc = {}
    for path, _, counts in brute_force_sequences(graph, x0, steps):
        # every vertex in counts was left at least once by this sequence
        logp = math.fsum(envs[x].log_mixed_moment(tuple(c)) for x, c in counts.items())
        acc.setdefault(path, []).append(logp)
    return {t: scipy_lse(lps) for t, lps in acc.items()}


@pytest.mark.parametrize("steps", range(9))
@pytest.mark.parametrize("name", sorted(ENUMERATION_CASES))
def test_enumeration_matches_brute_force_oracle_bitwise(name, steps):
    graph, laws, envs = ENUMERATION_CASES[name]
    both = enumerate_both(graph, laws, envs, 0, steps)
    for enumerate_law, oracle, spec, fused in (
        (enumerate_reinforced, oracle_reinforced, laws, both[0]),
        (enumerate_annealed, oracle_annealed, envs, both[1]),
    ):
        expected = oracle(graph, spec, 0, steps)
        law = enumerate_law(graph, spec, 0, steps)
        assert set(law.log_probs) == set(expected)
        # the one traversal of both laws lists the trajectories in the same order
        assert list(fused.log_probs) == list(law.log_probs)
        for t, lp in expected.items():
            assert same_bits(law.log_probs[t], lp), (enumerate_law.__name__, t)
            assert same_bits(fused.log_probs[t], lp), ("enumerate_both", t)
