"""Environment laws: exact mixed moments, quadrature oracle, sampling."""

import hashlib
import math
import sys
from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catalog import POLY_QUADRATIC_3D
from oracles import quadrature_moment, rising_factorial
from urnwalk import (
    DimensionMismatchError,
    DirichletEnv,
    DirichletLaw,
    EmpiricalEnv,
    EvaluationError,
    PointMassEnv,
    PolynomialDirichletEnv,
    SimplexPoint,
    law_from_env,
)
from urnwalk import walk
from urnwalk.environment import draw_environments
from urnwalk.laws import MIN_WEIGHT, LogRisingTable, RisingPolynomial, draw_index, log_sum_exp
from urnwalk.walk import Graph, make_stream


class TestMixedMoments:
    def test_symmetric_dirichlet(self):
        env = DirichletEnv([1.0, 1.0])
        assert env.mixed_moment((1, 1)) == pytest.approx(1 / 6, rel=1e-14)
        assert env.mixed_moment((2, 0)) == pytest.approx(1 / 3, rel=1e-14)

    def test_beta_mean(self):
        assert DirichletEnv([2.0, 3.0]).mixed_moment((1, 0)) == pytest.approx(0.4)

    def test_point_mass_products(self):
        env = PointMassEnv(SimplexPoint((0.3, 0.7)))
        assert env.mixed_moment((2, 1)) == pytest.approx(0.3**2 * 0.7, rel=1e-14)

    def test_zero_counts_normalize(self, env_map):
        for name, env in env_map.items():
            zero = (0,) * env.dimension
            assert env.mixed_moment(zero) == pytest.approx(1.0, rel=1e-14), name

    def test_empirical_moment_is_the_weighted_sum(self):
        env = EmpiricalEnv([(0.25, (0.2, 0.8)), (0.75, (0.6, 0.4))])
        expected = 0.25 * 0.2**2 * 0.8 + 0.75 * 0.6**2 * 0.4
        assert env.mixed_moment((2, 1)) == pytest.approx(expected, rel=1e-14)

    def test_strict_monotonicity_in_each_coordinate(self, env_map):
        for name, env in env_map.items():
            d = env.dimension
            for k in product(range(3), repeat=d):
                base = env.mixed_moment(k)
                for i in range(d):
                    bumped = k[:i] + (k[i] + 1,) + k[i + 1 :]
                    assert env.mixed_moment(bumped) < base, (name, k, i)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            DirichletEnv([1.0, 1.0]).mixed_moment((1, 1, 1))

    def test_dirichlet_closed_form_is_a_rising_factorial_ratio(self):
        alpha = (0.5, 0.5, 2.0)
        env = DirichletEnv(alpha)
        for k in product(range(3), repeat=3):
            expected = math.prod(
                rising_factorial(a, ki) for a, ki in zip(alpha, k)
            ) / rising_factorial(sum(alpha), sum(k))
            assert env.mixed_moment(k) == pytest.approx(expected, rel=1e-13)


class TestQuadratureOracle:
    def test_uniform_simplex_cross_moment(self):
        assert quadrature_moment(DirichletEnv([1.0, 1.0]), (1, 1)) == pytest.approx(
            1 / 6, abs=1e-6
        )

    def test_beta_mean(self):
        assert quadrature_moment(DirichletEnv([2.0, 3.0]), (1, 0)) == pytest.approx(
            0.4, abs=1e-6
        )

    def test_agrees_with_closed_forms_including_half_integer_alpha(self, env_map):
        for name in ("dirichlet_1_1", "dirichlet_2_3", "dirichlet_h_h_2",
                     "poly_linear_2d", "poly_quadratic_3d"):
            env = env_map[name]
            for k in product(range(3), repeat=env.dimension):
                exact = env.mixed_moment(k)
                assert quadrature_moment(env, k) == pytest.approx(
                    exact, rel=1e-5
                ), (name, k)

    def test_rejects_non_density_families(self):
        with pytest.raises(EvaluationError):
            quadrature_moment(PointMassEnv(SimplexPoint((0.3, 0.7))), (1, 0))

    def test_rejects_dimension_above_three(self):
        with pytest.raises(EvaluationError):
            quadrature_moment(DirichletEnv([1.0, 1.0, 1.0, 1.0]), (1, 0, 0, 0))

    def test_degree_one_simplex_is_trivial(self):
        assert quadrature_moment(DirichletEnv([2.0]), (3,)) == 1.0


class TestLawFromEnv:
    def test_dirichlet_env_induces_the_urn_law(self):
        env = DirichletEnv([2.0, 3.0])
        law = law_from_env(env)
        urn = DirichletLaw([2.0, 3.0])
        for p in product(range(6), repeat=2):
            assert law.weights(p).weights == pytest.approx(
                urn.weights(p).weights, rel=1e-12
            )

    def test_point_mass_env_induces_the_constant_law(self):
        law = law_from_env(PointMassEnv(SimplexPoint((0.3, 0.7))))
        for p in product(range(4), repeat=2):
            assert law.weights(p).weights == pytest.approx((0.3, 0.7), rel=1e-12)

    def test_linear_polynomial_env_matches_hand_formula(self):
        law = law_from_env(PolynomialDirichletEnv([1.0, 1.0], 1, {(1, 0): 1.0}))
        for p in product(range(5), repeat=2):
            expected = (2 + p[0]) / (3 + p[0] + p[1])
            assert law.weights(p).weights[0] == pytest.approx(expected, rel=1e-12)


class TestSampling:
    def test_point_mass_sampling_is_constant(self, rng):
        env = PointMassEnv(SimplexPoint((0.3, 0.7)))
        assert env.sample(rng).weights == (0.3, 0.7)

    def test_uniform_dirichlet_mean(self):
        env = DirichletEnv([1.0, 1.0])
        rng = np.random.default_rng(7)
        draws = np.array([env.sample(rng).weights[0] for _ in range(100_000)])
        assert abs(draws.mean() - 0.5) < 0.005  # 3 sigma Monte Carlo band

    def test_polynomial_mixture_mean(self):
        env = PolynomialDirichletEnv([1.0, 1.0], 1, {(1, 0): 1.0})
        rng = np.random.default_rng(11)
        draws = np.array([env.sample(rng).weights[0] for _ in range(100_000)])
        assert abs(draws.mean() - 2 / 3) < 0.005

    def test_empirical_sampling_frequencies(self):
        env = EmpiricalEnv([(0.25, (0.2, 0.8)), (0.75, (0.6, 0.4))])
        rng = np.random.default_rng(3)
        hits = sum(env.sample(rng).weights == (0.2, 0.8) for _ in range(100_000))
        assert abs(hits / 100_000 - 0.25) < 0.005

    @pytest.mark.parametrize(
        "atoms",
        [[(math.nan, (1.0,))], [(1.0, (1.0,)), (math.nan, (1.0,))], [(-0.5, (1.0,))]],
    )
    def test_empirical_weights_must_be_positive(self, atoms):
        # NaN passed both the w <= 0 test and the sum test, and gave NaN moments
        with pytest.raises(ValueError, match="atom weights"):
            EmpiricalEnv(atoms)

    def test_sampling_is_reproducible(self):
        env = DirichletEnv([0.5, 0.5, 2.0])
        first = env.sample(np.random.default_rng(123)).weights
        second = env.sample(np.random.default_rng(123)).weights
        assert first == second

    @pytest.mark.parametrize("alpha", [(0.3, 0.7, 2.0), (0.05, 0.5, 1.0)])
    def test_small_alpha_moments(self, alpha):
        # the small-shape boost draws coordinates below 1; each mean within 5 sigma
        env = DirichletEnv(alpha)
        rng = make_stream(31)
        draws = np.array([env.sample(rng).weights for _ in range(40_000)])
        for k in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (1, 1, 0), (0, 1, 1)]:
            values = np.prod(draws ** np.array(k), axis=1)
            sigma = values.std() / math.sqrt(len(values))
            assert abs(values.mean() - env.mixed_moment(k)) < 5 * sigma, k

    def test_weights_below_the_floor_are_raised_to_it(self):
        env = DirichletEnv([0.004, 0.004, 1.0])
        rng = make_stream(2)
        points = [env.sample(rng).weights for _ in range(200)]
        assert any(MIN_WEIGHT in w for w in points)
        assert all(min(w) >= MIN_WEIGHT for w in points)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(min_value=1e-300, max_value=0.05), min_size=1, max_size=4),
    st.lists(st.floats(min_value=0.05, max_value=50.0), max_size=2),
    st.integers(0, 2**64 - 1),
)
def test_tiny_alpha_always_samples_a_simplex_point(tiny, moderate, seed):
    # a gamma draw that underflowed to a subnormal or zero weight raised ValueError
    # or EvaluationError; every draw is now a point whose weights are at least MIN_WEIGHT
    assert_draws_are_points(DirichletEnv(tiny + moderate), seed)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=5e-324, max_value=sys.float_info.min, exclude_max=True),
             min_size=1, max_size=4),
    st.integers(0, 2**64 - 1),
)
def test_subnormal_alpha_always_samples_a_simplex_point(alpha, seed):
    # every boosted log overflowed to -inf, and the weights came out nan
    assert_draws_are_points(DirichletEnv(alpha), seed)


def assert_draws_are_points(env, seed):
    rng = make_stream(seed)
    for _ in range(20):
        point = env.sample(rng)
        assert min(point.weights) >= MIN_WEIGHT and abs(math.fsum(point.weights) - 1.0) <= 1e-12


def test_when_every_boost_overflows_the_least_exponential_wins():
    # coordinate 0 has the least -log(1 - U_i) / alpha_i with probability 1/4
    env = DirichletEnv([5e-324, 1.5e-323])
    rng = make_stream(4)
    draws = 4000
    wins = sum(env.sample(rng).weights[0] == 1.0 for _ in range(draws))
    assert abs(wins - draws / 4) <= 5 * math.sqrt(draws * 0.25 * 0.75)


@st.composite
def _polynomial_densities(draw):
    d, degree = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    # alpha below and above 1, and near the least float, where boosted logs overflow
    alpha = draw(st.lists(st.floats(5e-324, 1e-310) | st.floats(1e-3, 0.999) | st.floats(1.0, 30.0),
                          min_size=d, max_size=d))
    monomials = [k for k in product(range(degree + 1), repeat=d) if sum(k) == degree]
    chosen = draw(st.lists(st.sampled_from(monomials), min_size=1, unique=True))
    return alpha, degree, {k: draw(st.floats(1e-3, 1e3)) for k in chosen}


@settings(max_examples=200, deadline=None)
@given(_polynomial_densities(), st.integers(0, 2**64 - 1))
@example(([5e-324] * 3, 0, {(0, 0, 0): 1.0}), 4)  # every boosted log overflows to -inf
@example(([0.5, 5e-324, 2.0], 2, {(2, 0, 0): 1.0, (0, 1, 1): 3.0}), 9)
def test_a_polynomial_draw_is_a_draw_of_its_monomial_component(case, seed):
    # the mixture weights from the polynomial's terms at alpha, one uniform to pick
    # a monomial k, then a DirichletEnv(alpha + k) draw: the same stream, the same bits
    alpha, degree, coefficients = case
    env = PolynomialDirichletEnv(alpha, degree, coefficients)
    poly = RisingPolynomial(alpha, degree, coefficients)
    log_w = np.array(poly.log_terms((0,) * poly.dimension))
    mixture = np.exp(log_w - log_sum_exp(log_w)).tolist()
    old, drawn, sampled = make_stream(seed), make_stream(seed), make_stream(seed)
    for _ in range(3):
        k = poly.exponents[draw_index(mixture, old.random())]
        want = [w.hex() for w in DirichletEnv(poly.alpha + k).sample(old).weights]
        assert [w.hex() for w in draw_environments([env], [drawn])[0].tolist()] == want
        assert [w.hex() for w in env.sample(sampled).weights] == want
    assert old.random() == drawn.random() == sampled.random()


def test_a_polynomial_environment_builds_one_rising_table_and_no_dirichlet_environment(
    monkeypatch,
):
    built = Counter()
    for cls in (LogRisingTable, DirichletEnv):
        original = cls.__init__

        def counting(self, *args, _original=original, _cls=cls):
            built[_cls.__name__] += 1
            _original(self, *args)

        monkeypatch.setattr(cls, "__init__", counting)
    PolynomialDirichletEnv(**POLY_QUADRATIC_3D)
    assert built == {"LogRisingTable": 1}


def test_env_moment_law_round_trip_at_low_order(env_map):
    # ratio map composed back into products telescopes to the moments
    from urnwalk import build_moment_table

    for name, env in env_map.items():
        table = build_moment_table(law_from_env(env), 5)
        for k in product(range(3), repeat=env.dimension):
            if sum(k) > 5:
                continue
            assert table.value(k) == pytest.approx(
                env.mixed_moment(k), rel=1e-11
            ), name


# --- one draw for a block of trajectories ---------------------------------------------

#: A vertex with alpha 0.01, 0.5 and 1, one with 2.5 and 30, and a polynomial one.
_DRAW_GRAPH = Graph(((1, 2, 0), (0, 2), (0, 1, 2)))
_DRAW_ENVS = {
    0: DirichletEnv([0.01, 0.5, 1.0]),
    1: DirichletEnv([2.5, 30.0]),
    2: PolynomialDirichletEnv(**POLY_QUADRATIC_3D),
}


def _block_rows(monkeypatch, seed, count):
    """The environment rows ``run_many_annealed`` walks in, as it draws them."""
    rows = []

    def recording(*args):
        rows.append(draw_environments(*args))
        return rows[-1]

    monkeypatch.setattr(walk, "draw_environments", recording)
    assert len(list(walk.run_many_annealed(_DRAW_GRAPH, _DRAW_ENVS, 0, 1, seed, count))) == count
    return np.concatenate(rows)


def test_block_draws_meet_the_mixed_moments(monkeypatch):
    # means, second moments and mixed (1, 1) moments of every vertex within 5 sigma,
    # read per stream through sample_environment and from the lock-step block rows
    seed, count = 20261021, 3000
    points = (walk.sample_environment(_DRAW_GRAPH, _DRAW_ENVS, rng)
              for rng in walk.stream_generators(seed, count))
    per_stream = np.array([[w for x in range(3) for w in p[x].weights] for p in points])
    assert _block_rows(monkeypatch, seed, count).tobytes() == per_stream.tobytes()
    lo = 0
    for x, env in _DRAW_ENVS.items():
        d = env.dimension
        draws = per_stream[:, lo : lo + d]
        lo += d
        units = np.eye(d, dtype=int)
        for k in [*units, *(2 * units), *(units[i] + units[j] for i in range(d) for j in range(i))]:
            values = np.prod(draws ** k, axis=1)
            m, m2 = env.mixed_moment(k), env.mixed_moment(2 * k)
            sigma = math.sqrt((m2 - m * m) / count)
            assert abs(values.mean() - m) <= 5 * sigma, (x, k.tolist())


#: SHA-256 of the weights and step uniforms of one block: 40 streams of seed 7, 3 steps each.
_PINNED_BLOCK = "230526ff2a98ae306a50fa21669b17577d4d6269a1862a1f3e9739336f1b3817"


def test_a_fixed_block_of_draws_has_pinned_bits():
    # logs and exps come from libm and numpy only adds, divides and takes maxima,
    # so these bits hold with numpy's AVX-512 loops on and off
    envs = list(_DRAW_ENVS.values())
    uniforms = np.empty((40, 3))
    weights = draw_environments(envs, walk.stream_generators(7, 40), uniforms)
    assert hashlib.sha256(weights.tobytes() + uniforms.tobytes()).hexdigest() == _PINNED_BLOCK
