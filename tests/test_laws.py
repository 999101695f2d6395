"""Law families, rising-factorial algebra, and simplex-point invariants."""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import log_rising_polynomial, rising_factorial, rising_polynomial
from urnwalk import (
    DimensionMismatchError,
    DirichletLaw,
    PolynomialDirichletLaw,
    SimplexPoint,
    TabulatedLaw,
    TableDomainError,
    UniformLaw,
    law_from_env,
)
from urnwalk.environment import DirichletEnv, PolynomialDirichletEnv
from urnwalk.moments import slice_indices


class TestSimplexPoint:
    def test_valid(self):
        p = SimplexPoint((0.25, 0.75))
        assert p.dim == 2
        assert p.weights[1] == 0.75

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            SimplexPoint((0.5, 0.6))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            SimplexPoint((1.0, 0.0))
        with pytest.raises(ValueError, match="positive"):
            SimplexPoint((-0.5, 1.5))

    def test_dimension_one_is_the_forced_move(self):
        assert SimplexPoint((1.0,)).weights == (1.0,)


class TestRisingFactorial:
    def test_small_products(self):
        assert rising_factorial(2.0, 3) == pytest.approx(24.0)
        assert rising_factorial(5.0, 0) == 1.0
        assert rising_factorial(0.5, 2) == pytest.approx(0.75)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            rising_factorial(0.0, 2)
        with pytest.raises(ValueError):
            rising_factorial(1.0, -1)

    def test_log_gamma_branch_agrees_with_product(self):
        # straddle the y + k = 30 switch
        y = 3.25
        direct = 1.0
        for j in range(40):
            if j:
                direct *= y + j - 1
            assert rising_factorial(y, j) == pytest.approx(direct, rel=1e-12)

    @given(
        y=st.floats(min_value=0.01, max_value=50, allow_nan=False),
        k=st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_recurrence(self, y, k):
        lhs = rising_factorial(y, k + 1)
        rhs = rising_factorial(y, k) * (y + k)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestRisingPolynomial:
    def test_single_linear_term(self):
        assert rising_polynomial({(1, 0): 1.0}, (3.0, 2.0)) == pytest.approx(3.0)

    def test_two_quadratic_terms(self):
        value = rising_polynomial({(2, 0): 1.0, (0, 2): 1.0}, (1.0, 1.0))
        assert value == pytest.approx(4.0)

    def test_constant_polynomial(self):
        for y in [(0.5, 9.0), (3.0, 3.0)]:
            assert rising_polynomial({(0, 0): 2.5}, y) == pytest.approx(2.5)

    def test_log_matches_linear(self):
        coeffs = {(2, 0): 0.5, (1, 1): 2.0, (0, 2): 0.25}
        y = (1.5, 4.0)
        assert math.exp(log_rising_polynomial(coeffs, y)) == pytest.approx(
            rising_polynomial(coeffs, y), rel=1e-14
        )

    def test_rejects_nonpositive_argument(self):
        with pytest.raises(ValueError):
            rising_polynomial({(1, 0): 1.0}, (0.0, 1.0))


def test_degree_multi_indices_is_lexicographic():
    assert slice_indices(2, 2) == [(0, 2), (1, 1), (2, 0)]
    assert slice_indices(3, 1) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert all(sum(k) == 4 for k in slice_indices(3, 4))


class TestDirichletLaw:
    def test_fresh_counts_are_symmetric(self):
        assert DirichletLaw([1.0, 1.0]).weights((0, 0)).weights == (0.5, 0.5)

    def test_reinforced_counts(self):
        point = DirichletLaw([1.0, 1.0]).weights((2, 1))
        assert point.weights == pytest.approx((0.6, 0.4))

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            DirichletLaw([1.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            DirichletLaw([1.0, 1.0]).weights((0, 0, 0))

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            DirichletLaw([1.0, 1.0]).weights((-1, 0))


class TestPolynomialDirichletLaw:
    def test_linear_instance_matches_shifted_urn(self):
        # density proportional to tolerates the first coordinate: same as alpha (2, 1)
        law = PolynomialDirichletLaw([1.0, 1.0], 1, {(1, 0): 1.0})
        assert law.weights((0, 0)).weights == pytest.approx((2 / 3, 1 / 3))
        urn = DirichletLaw([2.0, 1.0])
        for p in product(range(5), repeat=2):
            assert law.weights(p).weights == pytest.approx(
                urn.weights(p).weights, rel=1e-13
            )

    def test_degree_zero_reduces_to_urn(self):
        law = PolynomialDirichletLaw([0.5, 2.0, 1.0], 0, {(0, 0, 0): 3.0})
        urn = DirichletLaw([0.5, 2.0, 1.0])
        for p in product(range(4), repeat=3):
            assert law.weights(p).weights == pytest.approx(
                urn.weights(p).weights, rel=1e-14
            )

    def test_matches_moment_ratio_of_matching_environment(self):
        # the closed form must equal the mixed-moment ratio map
        params = ([0.5, 1.0, 2.0], 2, {(2, 0, 0): 1.0, (1, 1, 0): 2.0, (0, 0, 2): 0.5})
        law = PolynomialDirichletLaw(*params)
        via_env = law_from_env(PolynomialDirichletEnv(*params))
        for p in product(range(4), repeat=3):
            assert law.weights(p).weights == pytest.approx(
                via_env.weights(p).weights, rel=1e-11
            )

    def test_rejects_wrong_degree_index(self):
        with pytest.raises(ValueError):
            PolynomialDirichletLaw([1.0, 1.0], 2, {(1, 0): 1.0})

    def test_rejects_all_zero_coefficients(self):
        with pytest.raises(ValueError):
            PolynomialDirichletLaw([1.0, 1.0], 1, {(1, 0): 0.0, (0, 1): 0.0})


class TestTabulatedLaw:
    @staticmethod
    def _table(box=1):
        return {
            p: SimplexPoint((0.5, 0.5))
            for p in product(range(box + 1), repeat=2)
        }

    def test_lookup(self):
        law = TabulatedLaw(1, self._table())
        assert law.weights((1, 1)).weights == (0.5, 0.5)

    def test_reject_outside_box(self):
        law = TabulatedLaw(1, self._table())
        with pytest.raises(TableDomainError):
            law.weights((2, 0))

    def test_clamp_fallback(self):
        law = TabulatedLaw(1, self._table(), fallback="clamp")
        assert law.weights((5, 7)).weights == (0.5, 0.5)

    def test_rejects_incomplete_table(self):
        table = self._table()
        table.pop((1, 1))
        with pytest.raises(ValueError, match="full box"):
            TabulatedLaw(1, table)


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.lists(st.floats(min_value=0.1, max_value=8.0), min_size=2, max_size=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_urn_law_outputs_are_simplex_points(alpha, seed):
    law = DirichletLaw(alpha)
    rng = np.random.default_rng(seed)
    p = tuple(int(v) for v in rng.integers(0, 7, size=len(alpha)))
    point = law.weights(p)  # SimplexPoint construction enforces the invariants
    assert math.fsum(point.weights) == pytest.approx(1.0, abs=1e-12)


def test_all_builtin_laws_output_simplex_points(law_map):
    for name, law in law_map.items():
        for p in product(range(3), repeat=law.dimension):
            point = law.weights(p)
            assert math.fsum(point.weights) == pytest.approx(1.0, abs=1e-12), name
            assert all(w > 0 for w in point.weights), name


def test_uniform_law_is_constant():
    law = UniformLaw(4)
    assert law.weights((3, 0, 2, 9)).weights == pytest.approx((0.25,) * 4)


class TestAlphaCheck:
    FAMILIES = [
        DirichletLaw,
        lambda a: PolynomialDirichletLaw(a, 1, {(1,) + (0,) * (len(a) - 1): 1.0}),
        DirichletEnv,
        lambda a: PolynomialDirichletEnv(a, 1, {(1,) + (0,) * (len(a) - 1): 1.0}),
    ]

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize(
        "alpha",
        [
            [], [1.0, 0.0], [1.0, -2.0], [math.nan, 1.0], [math.inf, 1.0], [1e308, 1e308],
            # each entry has a finite log-gamma, the total does not: every moment was NaN
            [1.5e305, 1.5e305],
        ],
    )
    def test_every_family_rejects_bad_alpha(self, family, alpha):
        with pytest.raises(ValueError, match="alpha"):
            family(alpha)


class TestOneMoveLaws:
    @pytest.mark.parametrize("alpha", [0.7, 1.3, 2.9])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_polynomial_laws_give_the_forced_move(self, alpha, degree):
        coefficients = {(degree,): 1.0}
        for law in (
            PolynomialDirichletLaw([alpha], degree, coefficients),
            law_from_env(PolynomialDirichletEnv([alpha], degree, coefficients)),
        ):
            for p in range(12):
                assert law.log_weights((p,)).tolist() == [0.0]
                assert law.weights((p,)).weights == (1.0,)
