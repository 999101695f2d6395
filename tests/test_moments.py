"""Moment tables, finite differences, simplex identity, positivity scan, mass identities."""

import functools
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catalog import builtin_laws, tabulated_witness
from oracles import cube_ball, cube_slice, finite_difference, log_multinomial
from urnwalk import (
    DirichletEnv,
    DirichletLaw,
    MomentOrderError,
    NotAdmissibleError,
    build_moment_table,
    hildebrandt_schoenberg_check,
    multinomial,
    simplex_defect,
    simplex_mass,
)
from urnwalk.moments import MomentTable, _difference_terms, ball_indices, slice_indices


@pytest.mark.parametrize("d", range(1, 6))
def test_the_lattice_enumerators_match_the_filtered_cube(d):
    for n in range(-1, 10):
        assert slice_indices(d, n) == cube_slice(d, n), n
        assert ball_indices(d, n) == cube_ball(d, n), n
    assert slice_indices(d, -1) == ball_indices(d, -1) == []


def iterated_difference(table, h, k):
    """Independent oracle: apply the one-step differences recursively."""
    h = tuple(h)
    k = tuple(k)
    for axis, steps in enumerate(h):
        if steps > 0:
            lower = h[:axis] + (steps - 1,) + h[axis + 1 :]
            bump = k[:axis] + (k[axis] + 1,) + k[axis + 1 :]
            return iterated_difference(table, lower, bump) - iterated_difference(
                table, lower, k
            )
    return table.value(k)


def package_difference(table, h, k):
    """``Delta^h(v)(k)`` by the package's inclusion-exclusion, the sum the positivity scan signs."""
    return _difference_terms(table, tuple(h), tuple(k))[0]


@pytest.fixture(scope="module")
def uniform_urn_table():
    return build_moment_table(DirichletLaw([1.0, 1.0]), 8)


class TestBuildMomentTable:
    def test_origin_is_one(self, uniform_urn_table):
        assert uniform_urn_table.value((0, 0)) == 1.0

    def test_staircase_values(self, uniform_urn_table):
        assert uniform_urn_table.value((1, 1)) == pytest.approx(1 / 6, rel=1e-13)
        assert uniform_urn_table.value((2, 0)) == pytest.approx(1 / 3, rel=1e-13)

    def test_matches_dirichlet_closed_form(self, law_map, env_map):
        pairs = [
            ("polya_1_1", "dirichlet_1_1"),
            ("polya_2_3", "dirichlet_2_3"),
            ("polya_h_h_2", "dirichlet_h_h_2"),
            ("polya_1_2_3_4", "dirichlet_1_2_3_4"),
        ]
        for law_name, env_name in pairs:
            table = build_moment_table(law_map[law_name], 6)
            env = env_map[env_name]
            for k in ball_indices(env.dimension, 6):
                assert table.value(k) == pytest.approx(
                    env.mixed_moment(k), rel=1e-12
                ), law_name

    def test_monotone_in_every_coordinate(self, law_map):
        for name, law in law_map.items():
            table = build_moment_table(law, 5)
            for k in ball_indices(law.dimension, 4):
                for i in range(law.dimension):
                    bumped = k[:i] + (k[i] + 1,) + k[i + 1 :]
                    assert table.value(bumped) <= table.value(k), name

    def test_witness_is_rejected(self):
        with pytest.raises(NotAdmissibleError):
            build_moment_table(tabulated_witness(), 2)


class TestFiniteDifference:
    def test_zero_difference_returns_the_value(self, uniform_urn_table):
        oracle = finite_difference(uniform_urn_table, (0, 0), (2, 1))
        assert oracle == pytest.approx(uniform_urn_table.value((2, 1)))
        assert package_difference(uniform_urn_table, (0, 0), (2, 1)) == pytest.approx(oracle)

    def test_one_step(self, uniform_urn_table):
        oracle = finite_difference(uniform_urn_table, (1, 0), (0, 0))
        assert oracle == pytest.approx(-0.5, rel=1e-13)
        assert package_difference(uniform_urn_table, (1, 0), (0, 0)) == pytest.approx(
            oracle, rel=1e-13
        )

    def test_mixed_second_difference(self, uniform_urn_table):
        oracle = finite_difference(uniform_urn_table, (1, 1), (0, 0))
        assert oracle == pytest.approx(1 / 6, rel=1e-12)
        assert package_difference(uniform_urn_table, (1, 1), (0, 0)) == pytest.approx(
            oracle, rel=1e-12
        )

    def test_out_of_order_request(self, uniform_urn_table):
        with pytest.raises(MomentOrderError):
            finite_difference(uniform_urn_table, (5, 0), (4, 0))

    @given(
        h1=st.integers(min_value=0, max_value=3),
        h2=st.integers(min_value=0, max_value=3),
        k1=st.integers(min_value=0, max_value=2),
        k2=st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=100, deadline=None)
    def test_expansion_equals_iterated_one_step(self, uniform_urn_table, h1, h2, k1, k2):
        if h1 + h2 + k1 + k2 > uniform_urn_table.order:
            return
        expansion = finite_difference(uniform_urn_table, (h1, h2), (k1, k2))
        iterated = iterated_difference(uniform_urn_table, (h1, h2), (k1, k2))
        assert expansion == pytest.approx(iterated, abs=1e-12)
        package = package_difference(uniform_urn_table, (h1, h2), (k1, k2))
        assert package == pytest.approx(expansion, abs=1e-12)

    def test_one_step_difference_equals_minus_neighbor_sum(self, law_map):
        # when the law's weights sum to 1, -Delta^{e_i} v(k) = sum_{j != i} v_{k+e_j}
        for name, law in law_map.items():
            table = build_moment_table(law, 5)
            d = law.dimension
            for k in ball_indices(d, 3):
                for i in range(d):
                    e_i = tuple(int(a == i) for a in range(d))
                    lhs = -finite_difference(table, e_i, k)
                    rhs = math.fsum(
                        table.value(k[:j] + (k[j] + 1,) + k[j + 1 :])
                        for j in range(d)
                        if j != i
                    )
                    assert lhs == pytest.approx(rhs, abs=1e-12), name
                    assert -package_difference(table, e_i, k) == pytest.approx(
                        lhs, abs=1e-12
                    ), name


class TestPositivityScan:
    def test_uniform_urn_passes(self, uniform_urn_table):
        report = hildebrandt_schoenberg_check(uniform_urn_table)
        assert report.passed
        assert report.max_negativity >= -1e-12

    def test_polynomial_law_passes(self, law_map):
        table = build_moment_table(law_map["poly_quadratic_3d"], 8)
        assert hildebrandt_schoenberg_check(table).passed

    def test_corrupted_table_fails(self, uniform_urn_table):
        corrupted = uniform_urn_table.with_value((1, 0), 1.5)
        report = hildebrandt_schoenberg_check(corrupted)
        assert not report.passed
        # the overwritten entry breaks monotonicity: -(v(1,0) - v(0,0)) = -0.5
        oracle = finite_difference(corrupted, (1, 0), (0, 0))
        assert oracle == pytest.approx(0.5)
        assert package_difference(corrupted, (1, 0), (0, 0)) == pytest.approx(oracle)
        assert report.max_negativity <= -0.5

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf, -1.0])
    def test_rejects_invalid_tolerance(self, uniform_urn_table, tolerance):
        corrupted = uniform_urn_table.with_value((1, 0), 1.5)
        with pytest.raises(ValueError, match="tolerance"):
            hildebrandt_schoenberg_check(corrupted, tolerance)

    def test_one_dimensional_tables(self):
        # uniform measure on [0, 1]: v_k = 1 / (k + 1)
        table = MomentTable(1, 9, {(k,): -math.log(k + 1) for k in range(10)})
        assert hildebrandt_schoenberg_check(table).passed
        assert not hildebrandt_schoenberg_check(table.with_value((3,), 0.3)).passed

    def test_order_zero_table(self, law_map):
        report = hildebrandt_schoenberg_check(build_moment_table(law_map["polya_1_2_3_4"], 0))
        assert report.max_negativity == 1.0
        assert report.worst_case == ((0, 0, 0, 0), (0, 0, 0, 0))

    def test_ties_go_to_the_first_pair_in_graded_lex_order(self):
        # a constant table: every difference with h != 0 is exactly zero
        table = MomentTable(2, 4, {k: 0.0 for k in ball_indices(2, 4)})
        report = hildebrandt_schoenberg_check(table)
        assert report.max_negativity == 0.0
        assert report.worst_case == ((0, 1), (0, 0))


TAU = 1e-10
BUILTIN_LAWS = builtin_laws()


@functools.cache
def builtin_table(name, order):
    return build_moment_table(BUILTIN_LAWS[name], order)


def relative_corruption():
    """A signed relative change of an entry, log-uniform in magnitude from 1e-13 to 1e-8."""
    return st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(min_value=-13.0, max_value=-8.0)
                     ).map(lambda t: t[0] * 10.0 ** t[1])


class TestSimplexIdentity:
    def test_builtin_tables_meet_it(self, law_map):
        for name, law in law_map.items():
            defect, _ = simplex_defect(build_moment_table(law, 12 if law.dimension <= 3 else 8))
            assert defect <= 1e-14, name

    def test_order_zero_has_nothing_to_check(self, law_map):
        table = build_moment_table(law_map["polya_h_h_2"], 0)
        assert simplex_defect(table) == (0.0, (0, 0, 0))

    def test_the_first_worst_k_is_reported(self):
        # Dirichlet(1, 1) with E[x_1] = 0.501 and E[x_2] = 0.499: the origin still sums to 1
        table = builtin_table("polya_1_1", 3).with_value((1, 0), 0.501).with_value((0, 1), 0.499)
        defect, where = simplex_defect(table)
        assert where == (0, 1)
        assert defect == pytest.approx(0.001 / 0.499, rel=1e-12)

    def test_a_weight_past_the_float_range_gives_an_infinite_defect(self):
        # v(3, 0) / v(2, 0) and v(2, 1) / v(2, 0) are above e^741: math.exp overflows
        table = builtin_table("polya_1_1", 3).with_value((2, 0), 5e-324)
        assert simplex_defect(table) == (math.inf, (2, 0))

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_a_pass_implies_the_hs_oracle(self, data):
        name = data.draw(st.sampled_from(sorted(BUILTIN_LAWS)))
        order = data.draw(st.integers(min_value=1, max_value=8))
        table = builtin_table(name, order)
        indices = ball_indices(table.dimension, order)[1:]
        for index in data.draw(st.lists(st.sampled_from(indices), min_size=1, max_size=3,
                                        unique=True)):
            value = table.value(index) * (1.0 + data.draw(relative_corruption()))
            table = table.with_value(index, value)
        if simplex_defect(table)[0] <= TAU:
            assert hildebrandt_schoenberg_check(table, TAU).passed

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_a_corruption_that_keeps_every_slice_mass_fails_it(self, data):
        # the entries of one slice below the order move, their multinomial-weighted
        # sum held by the last; the first moves by at least 10 tau
        name = data.draw(st.sampled_from(sorted(BUILTIN_LAWS)))
        order = data.draw(st.integers(min_value=2, max_value=8))
        table = builtin_table(name, order)
        degree = data.draw(st.integers(min_value=1, max_value=order - 1))
        *moved, last = data.draw(st.lists(st.sampled_from(slice_indices(table.dimension, degree)),
                                          min_size=2, max_size=3, unique=True))
        shift = 0.0
        for index in moved:
            sign = data.draw(st.sampled_from([-1.0, 1.0]))
            change = sign * table.value(index) * 10.0 ** data.draw(st.floats(-9.0, -6.0))
            shift += multinomial(index) * change
            table = table.with_value(index, table.value(index) + change)
        table = table.with_value(last, table.value(last) - shift / multinomial(last))
        assert all(abs(simplex_mass(table, n) - 1.0) <= TAU for n in range(order + 1))
        assert simplex_defect(table)[0] > TAU


class TestSimplexMass:
    def test_degree_zero(self, uniform_urn_table):
        assert simplex_mass(uniform_urn_table, 0) == 1.0

    def test_degree_one_is_the_simplex_constraint(self, law_map):
        for name, law in law_map.items():
            table = build_moment_table(law, 2)
            assert simplex_mass(table, 1) == pytest.approx(1.0, abs=1e-12), name

    def test_degree_two_slice(self, uniform_urn_table):
        # 1/3 + 2 * 1/6 + 1/3
        assert simplex_mass(uniform_urn_table, 2) == pytest.approx(1.0, abs=1e-13)

    def test_a_multinomial_past_the_float_range_keeps_the_mass(self):
        # Dirichlet(1, 1) in closed form; multinomial((515, 515)) is about 2^1026
        order = 1030
        values = {k: math.lgamma(k[0] + 1) + math.lgamma(k[1] + 1) - math.lgamma(sum(k) + 2)
                  for k in ball_indices(2, order)}
        assert simplex_mass(MomentTable(2, order, values), order) == pytest.approx(1.0, abs=1e-10)

    def test_a_mass_past_the_float_range_is_infinite(self, uniform_urn_table):
        table = uniform_urn_table.with_value((2, 0), 1e308).with_value((0, 2), 1e308)
        assert simplex_mass(table, 2) == math.inf

    def test_beyond_order_raises(self, uniform_urn_table):
        with pytest.raises(MomentOrderError):
            simplex_mass(uniform_urn_table, 9)


class TestMultinomial:
    def test_small_values(self):
        assert multinomial((1, 1)) == 2
        assert multinomial((2, 2)) == 6
        assert multinomial((0, 0, 0)) == 1

    def test_row_sums_are_powers(self):
        for n in range(7):
            assert sum(multinomial(k) for k in slice_indices(3, n)) == 3**n

    def test_log_agrees_with_exact(self):
        for k in [(3, 4), (10, 20, 5), (40, 1, 2)]:
            assert log_multinomial(k) == pytest.approx(
                math.log(multinomial(k)), rel=1e-12
            )


def test_moment_table_round_trips_environment_moments(env_map):
    env = env_map["poly_quadratic_3d"]
    from urnwalk import law_from_env

    table = build_moment_table(law_from_env(env), 6)
    for k in ball_indices(3, 6):
        assert table.value(k) == pytest.approx(env.mixed_moment(k), rel=1e-11)


def test_with_value_requires_positive_entries(uniform_urn_table):
    with pytest.raises(ValueError):
        uniform_urn_table.with_value((1, 0), 0.0)


@pytest.mark.parametrize("index", [(9, 9), (5, 4), (1, 0, 0), (1,)])
def test_with_value_rejects_indices_outside_the_ball(uniform_urn_table, index):
    with pytest.raises(MomentOrderError):
        uniform_urn_table.with_value(index, 0.5)
