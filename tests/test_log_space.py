"""Log-space arithmetic and Dirichlet normalisation against their oracles, bit for bit,
and pinned trajectories.

``log_sum_exp`` must return the same bits as ``scipy.special.logsumexp``, and
the tabulated rising-factorial polynomial the same bits as the per-term
formulation it replaced.  Every float oracle runs on the same machine, so no
float value is hard-coded; sampled trajectories are integers and are pinned.

The per-term oracle adds its factors with the builtin ``sum``, which is
plain left-to-right addition on Python 3.11, the version CI runs.
"""

import hashlib
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
from urnwalk.errors import EvaluationError
from urnwalk.laws import (
    DirichletLaw,
    PolynomialDirichletLaw,
    SimplexPoint,
    TabulatedLaw,
    UniformLaw,
    degree_multi_indices,
    log_rising_factorial,
    log_rising_polynomial,
    log_sum_exp,
    sum_as_numpy,
)
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
_TRIANGLE = cycle_graph(3)
_TABLE_BOX_1 = {(0, 0): (0.5, 0.5), (1, 0): (0.8, 0.2), (0, 1): (0.3, 0.7), (1, 1): (0.6, 0.4)}
_CLAMPED = TabulatedLaw(1, {k: SimplexPoint(v) for k, v in _TABLE_BOX_1.items()}, fallback="clamp")
_CYCLE_ENVS = {x: DirichletEnv([0.8, 1.6]) for x in range(5)}
_FROZEN = sample_environment(_CYCLE, _CYCLE_ENVS, make_stream(77))
# nine moves at the centre: the weights and the environment draws normalise by numpy's pairwise sum
_STAR_9 = star_graph(9)
_ALPHA_9 = [0.6, 1.1, 2.3, 0.9, 1.7, 0.5, 3.1, 1.3, 0.8]
_LEAF_9_LAWS = {x: DirichletLaw([1.5]) for x in range(1, 10)}
_LEAF_9_ENVS = {x: PointMassEnv((1.0,)) for x in range(1, 10)}

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
    "dirichlet_law_cycle": (
        run_reinforced, _CYCLE, {x: DirichletLaw([0.7, 1.9]) for x in range(5)},
        [[0, 4, 0, 1, 2, 1, 2, 3, 4, 0, 4, 0, 4],
         [0, 1, 2, 3, 4, 0, 4, 0, 1, 2, 3, 4, 0],
         [0, 4, 0, 1, 2, 1, 2, 1, 2, 1, 0, 1, 0]],
    ),
    "uniform_law_cycle": (
        run_reinforced, _CYCLE, {x: UniformLaw(2) for x in range(5)},
        [[0, 4, 3, 4, 0, 4, 0, 1, 2, 1, 0, 1, 0],
         [0, 1, 2, 3, 2, 3, 2, 1, 2, 1, 2, 1, 0],
         [0, 4, 0, 1, 2, 1, 0, 4, 3, 2, 1, 2, 1]],
    ),
    "tabulated_clamp_triangle": (
        run_reinforced, _TRIANGLE, {x: _CLAMPED for x in range(3)},
        [[0, 2, 1, 2, 1, 0, 2, 0, 2, 1, 0, 2, 1],
         [0, 1, 2, 0, 1, 2, 1, 2, 0, 1, 2, 1, 2],
         [0, 2, 0, 1, 2, 1, 2, 1, 0, 2, 1, 2, 1]],
    ),
    "annealed_dirichlet_cycle": (
        run_annealed, _CYCLE, _CYCLE_ENVS,
        [[0, 1, 2, 3, 2, 3, 4, 0, 1, 2, 1, 2, 3],
         [0, 1, 2, 3, 2, 1, 2, 1, 2, 3, 2, 3, 2],
         [0, 4, 0, 1, 2, 3, 4, 3, 4, 0, 1, 2, 3]],
    ),
    "quenched_frozen_cycle": (
        run_quenched, _CYCLE, _FROZEN,
        [[0, 1, 0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 3],
         [0, 1, 2, 3, 4, 3, 2, 3, 4, 3, 4, 3, 4],
         [0, 1, 2, 3, 4, 3, 4, 3, 4, 3, 2, 3, 2]],
    ),
    "dirichlet_law_star9": (
        run_reinforced, _STAR_9, {0: DirichletLaw(_ALPHA_9), **_LEAF_9_LAWS},
        [[0, 1, 0, 8, 0, 1, 0, 8, 0, 5, 0, 7, 0],
         [0, 6, 0, 7, 0, 7, 0, 6, 0, 6, 0, 4, 0],
         [0, 1, 0, 9, 0, 3, 0, 1, 0, 3, 0, 7, 0]],
    ),
    "annealed_dirichlet_star9": (
        run_annealed, _STAR_9, {0: DirichletEnv(_ALPHA_9), **_LEAF_9_ENVS},
        [[0, 7, 0, 4, 0, 3, 0, 8, 0, 9, 0, 2, 0],
         [0, 3, 0, 8, 0, 7, 0, 2, 0, 1, 0, 9, 0],
         [0, 3, 0, 5, 0, 3, 0, 9, 0, 7, 0, 5, 0]],
    ),
}

#: SHA-256 of the comma-joined 10,000-step trajectory of stream 0 of seed 20261018;
#: the walk crosses two boundaries of the blocks its uniforms are drawn in.
GOLDEN_LONG_WALKS = {
    "dirichlet_law_cycle": "bbd5739c372bdd6862e3cfabbca94b212f3157675edee9e5c31eabab6ad75504",
    "annealed_dirichlet_cycle": "0ca4bf9f2da2df8ae08150100b17177956d71c1851a29b626a549b542b561eeb",
    "dirichlet_law_star9": "9870ef7d932bf92b1deb12891cdc718d9abebd540bf2abed88a80229928e6664",
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
    """``DirichletEnv.sample`` normalising with numpy, redraw rule and checks included."""
    shape = np.asarray(alpha)
    for _ in range(100):
        gammas = rng.gamma(shape=shape)
        total = gammas.sum()
        if total > 0 and np.all(gammas / total > 0):
            return SimplexPoint(tuple(gammas / total)).weights
    raise EvaluationError("gamma sampling kept underflowing to zero")


def outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, EvaluationError) as exc:
        return type(exc), str(exc)


@settings(max_examples=500, deadline=None)
@given(
    st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=10),
    st.integers(0, 2**32 - 1),
)
def test_dirichlet_env_sample_matches_numpy_bitwise(alpha, seed):
    # tiny alpha draws zero or subnormal gammas, which exercise the redraw and the checks
    want = outcome(numpy_dirichlet_sample, alpha, make_stream(seed))
    assert outcome(lambda: DirichletEnv(alpha).sample(make_stream(seed)).weights) == want


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
