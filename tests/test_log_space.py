"""Log-space arithmetic against its oracles, bit for bit, and pinned trajectories.

``log_sum_exp`` must return the same bits as ``scipy.special.logsumexp``, and
the tabulated rising-factorial polynomial the same bits as the per-term
formulation it replaced.  Every float oracle runs on the same machine, so no
float value is hard-coded; sampled trajectories are integers and are pinned.

The per-term oracle adds its factors with the builtin ``sum``, which is
plain left-to-right addition on Python 3.11, the version CI runs.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp as scipy_logsumexp

from urnwalk import equivalence
from urnwalk.catalog import POLY_LINEAR_2D, POLY_QUADRATIC_3D
from urnwalk.environment import (
    DirichletEnv,
    EmpiricalEnv,
    EnvMomentLaw,
    PointMassEnv,
    PolynomialDirichletEnv,
)
from urnwalk.equivalence import (
    annealed_path_logprob,
    enumerate_annealed,
    enumerate_reinforced,
    reinforced_path_logprob,
)
from urnwalk.laws import (
    DirichletLaw,
    PolynomialDirichletLaw,
    degree_multi_indices,
    log_rising_factorial,
    log_rising_polynomial,
    log_sum_exp,
)
from urnwalk.walk import Graph, cycle_graph, make_stream, run_annealed, run_reinforced, star_graph


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


def per_term_log_rising_polynomial(coefficients, y) -> float:
    """The formulation the tabulated evaluation replaced: one log-gamma pair per factor."""
    ys = [float(v) for v in y]
    terms = [
        math.log(coeff) + sum(log_rising_factorial(ys[i], k) for i, k in enumerate(index))
        for index, coeff in coefficients.items()
        if coeff != 0.0
    ]
    return float(scipy_logsumexp(terms))


@st.composite
def polynomials(draw):
    d = draw(st.integers(1, 4))
    degree = draw(st.integers(0, 4))
    indices = degree_multi_indices(d, degree)
    chosen = draw(st.lists(st.sampled_from(indices), min_size=1, max_size=len(indices), unique=True))
    coeffs = {k: draw(st.floats(min_value=0.0, max_value=10.0)) for k in chosen}
    coeffs[chosen[0]] = draw(st.floats(min_value=1e-3, max_value=10.0))
    alpha = draw(st.lists(st.floats(min_value=0.05, max_value=20.0), min_size=d, max_size=d))
    counts = tuple(draw(st.lists(st.integers(0, 40), min_size=d, max_size=d)))
    return alpha, degree, dict(sorted(coeffs.items())), counts


class TestRisingPolynomialTable:
    @settings(max_examples=400, deadline=None)
    @given(polynomials())
    def test_function_matches_per_term_formulation(self, case):
        alpha, _, coeffs, counts = case
        y = np.asarray(alpha) + np.asarray(counts, dtype=float)
        assert same_bits(log_rising_polynomial(coeffs, y), per_term_log_rising_polynomial(coeffs, y))

    @pytest.mark.parametrize("index", [(1, 2, 3), (2, 1, 1, 3)])
    def test_factor_order_of_a_full_support_monomial(self, index):
        # with one term the sum of factors is the result, so a change in the
        # order the factors are added shows up here and not under a long sum
        coeffs = {index: 1.5}
        rng = np.random.default_rng(17)
        for y in rng.uniform(0.05, 40.0, size=(1000, len(index))):
            assert same_bits(
                log_rising_polynomial(coeffs, y), per_term_log_rising_polynomial(coeffs, y)
            )

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
        base = per_term_log_rising_polynomial(coeffs, a + np.asarray(counts, dtype=float))
        total = float(a.sum()) + sum(counts) + degree
        for i in range(len(alpha)):
            bumped = np.asarray(counts, dtype=float)
            bumped[i] += 1
            want = (
                math.log(alpha[i] + counts[i])
                - math.log(total)
                + per_term_log_rising_polynomial(coeffs, a + bumped)
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
            + per_term_log_rising_polynomial(coeffs, a + np.asarray(counts, dtype=float))
            - per_term_log_rising_polynomial(coeffs, a)
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

GOLDEN_CASES = {
    "poly_law_star": (
        run_reinforced, _STAR, {0: PolynomialDirichletLaw(**POLY_QUADRATIC_3D), **_LEAF_LAWS},
        [[0, 1, 0, 3, 0, 1, 0, 3, 0, 2, 0, 3, 0],
         [0, 3, 0, 3, 0, 3, 0, 3, 0, 3, 0, 3, 0],
         [0, 1, 0, 3, 0, 1, 0, 1, 0, 1, 0, 3, 0]],
    ),
    "poly_law_cycle": (
        run_reinforced, _CYCLE, {x: PolynomialDirichletLaw(**POLY_LINEAR_2D) for x in range(5)},
        [[0, 4, 3, 4, 3, 2, 3, 4, 3, 2, 1, 0, 4],
         [0, 4, 0, 4, 3, 4, 3, 2, 3, 2, 3, 2, 1],
         [0, 4, 3, 4, 3, 2, 1, 0, 4, 3, 2, 3, 2]],
    ),
    "env_law_star": (
        run_reinforced, _STAR,
        {0: EnvMomentLaw(PolynomialDirichletEnv(**POLY_QUADRATIC_3D)), **_LEAF_LAWS},
        [[0, 1, 0, 3, 0, 1, 0, 3, 0, 2, 0, 3, 0],
         [0, 3, 0, 3, 0, 3, 0, 3, 0, 3, 0, 3, 0],
         [0, 1, 0, 3, 0, 1, 0, 1, 0, 1, 0, 3, 0]],
    ),
    "env_law_cycle": (
        run_reinforced, _CYCLE, {x: EnvMomentLaw(_EMPIRICAL_2D) for x in range(5)},
        [[0, 4, 3, 4, 3, 2, 3, 4, 0, 4, 3, 4, 3],
         [0, 1, 2, 3, 2, 3, 2, 3, 4, 3, 4, 3, 2],
         [0, 4, 0, 1, 2, 1, 2, 1, 0, 4, 3, 4, 3]],
    ),
    "annealed_poly_star": (
        run_annealed, _STAR, {0: PolynomialDirichletEnv(**POLY_QUADRATIC_3D), **_LEAF_ENVS},
        [[0, 3, 0, 3, 0, 3, 0, 3, 0, 3, 0, 3, 0],
         [0, 3, 0, 3, 0, 2, 0, 3, 0, 3, 0, 3, 0],
         [0, 3, 0, 1, 0, 3, 0, 3, 0, 3, 0, 3, 0]],
    ),
    "annealed_emp_cycle": (
        run_annealed, _CYCLE, {x: _EMPIRICAL_2D for x in range(5)},
        [[0, 1, 2, 3, 2, 1, 2, 1, 2, 3, 2, 1, 2],
         [0, 4, 3, 4, 3, 4, 3, 2, 3, 2, 3, 2, 3],
         [0, 1, 0, 1, 0, 4, 0, 4, 0, 4, 3, 4, 0]],
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_trajectories(name):
    run, graph, maps, expected = GOLDEN_CASES[name]
    got = [list(run(graph, maps, 0, 12, make_stream(20261017, s))) for s in range(3)]
    assert got == expected


# --- enumeration against the per-path oracle on scipy's logsumexp -------------------

_MULTI = Graph(((1, 1, 2), (0,), (0,)))
_EMPIRICAL_3D = EmpiricalEnv([(0.25, (0.2, 0.3, 0.5)), (0.75, (0.6, 0.3, 0.1))])
_ONE_MOVE = {1: DirichletEnv([1.0]), 2: PointMassEnv((1.0,))}

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
}


@pytest.mark.parametrize("name", sorted(ENUMERATION_CASES))
def test_enumeration_matches_per_path_oracle_bitwise(name, monkeypatch):
    graph, laws, envs = ENUMERATION_CASES[name]
    reinforced = enumerate_reinforced(graph, laws, 0, 8)
    annealed = enumerate_annealed(graph, envs, 0, 8)
    monkeypatch.setattr(equivalence, "log_sum_exp", scipy_lse)
    for t, lp in reinforced.log_probs.items():
        assert same_bits(lp, reinforced_path_logprob(graph, laws, t)), t
    for t, lp in annealed.log_probs.items():
        assert same_bits(lp, annealed_path_logprob(graph, envs, t)), t
