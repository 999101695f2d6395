"""Batch evaluation over count tables against the per-point code, bit for bit.

``log_weights_batch`` must give every row the bits of ``_log_weights`` at
that row, and ``log_mixed_moments`` the bits of ``log_mixed_moment``; the
moment table built from batches must equal the per-point staircase
construction entry for entry.  Every comparison runs both sides on the
same machine, so no float value is hard-coded.
"""

import json
import math
from collections import Counter
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catalog import tabulated_witness
from urnwalk.admissibility import DEFAULT_TOLERANCE, check_admissible
from urnwalk.config import law_from_spec
from urnwalk.environment import (
    DirichletEnv,
    EmpiricalEnv,
    EnvMomentLaw,
    PointMassEnv,
    PolynomialDirichletEnv,
)
from urnwalk.errors import (
    DimensionMismatchError,
    EvaluationError,
    NotAdmissibleError,
    TableDomainError,
)
from urnwalk.laws import (
    DirichletLaw,
    PolynomialDirichletLaw,
    ReinforcementLaw,
    RisingPolynomial,
    SimplexPoint,
    TabulatedLaw,
    UniformLaw,
    array_rows,
    log_sum_exp,
    log_sum_exp_rows,
)
from urnwalk.moments import ball_indices, build_moment_table, slice_indices


def same_array(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def per_point(law: ReinforcementLaw, counts: np.ndarray) -> np.ndarray:
    return np.array([law._log_weights(tuple(row)) for row in counts.tolist()]).reshape(counts.shape)


# --- strategies -------------------------------------------------------------------

_ALPHA = st.one_of(st.floats(min_value=0.05, max_value=50.0), st.sampled_from([0.5, 1.0, 2.0, 3.0]))


def _alpha(draw, d):
    return draw(st.lists(_ALPHA, min_size=d, max_size=d))


def _counts(draw, d, high=10**4):
    """Rows of counts: some small (shared bumps, zeros), some up to ``high``."""
    n = draw(st.integers(1, 12))
    top = draw(st.sampled_from([3, high]))
    return np.array(
        draw(st.lists(st.lists(st.integers(0, top), min_size=d, max_size=d), min_size=n, max_size=n)),
        dtype=np.int64,
    )


def _polynomial(draw, d):
    degree = draw(st.integers(0, 3))
    indices = slice_indices(d, degree)
    chosen = draw(st.lists(st.sampled_from(indices), min_size=1, max_size=len(indices), unique=True))
    coeffs = {k: draw(st.floats(min_value=1e-3, max_value=10.0)) for k in chosen}
    return _alpha(draw, d), degree, coeffs


def _simplex_point(draw, d):
    raw = draw(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=d, max_size=d))
    total = sum(raw)
    ws = [w / total for w in raw[:-1]]
    return SimplexPoint(tuple(ws + [1.0 - math.fsum(ws)]))


@st.composite
def environments(draw):
    d = draw(st.integers(1, 5))
    family = draw(st.sampled_from(["dirichlet", "polynomial_dirichlet", "point_mass", "empirical"]))
    if family == "dirichlet":
        env = DirichletEnv(_alpha(draw, d))
    elif family == "polynomial_dirichlet":
        env = PolynomialDirichletEnv(*_polynomial(draw, d))
    elif family == "point_mass":
        env = PointMassEnv(_simplex_point(draw, d))
    else:
        n = draw(st.integers(1, 4))
        weights = [1.0 / n] * (n - 1)
        weights.append(1.0 - math.fsum(weights))
        env = EmpiricalEnv([(w, _simplex_point(draw, d)) for w in weights])
    return env, _counts(draw, d)


@st.composite
def laws(draw):
    d = draw(st.integers(1, 5))
    family = draw(st.sampled_from(["uniform", "dirichlet", "polynomial_dirichlet", "tabulated"]))
    if family == "uniform":
        return UniformLaw(d), _counts(draw, d)
    if family == "dirichlet":
        return DirichletLaw(_alpha(draw, d)), _counts(draw, d)
    if family == "polynomial_dirichlet":
        return PolynomialDirichletLaw(*_polynomial(draw, d)), _counts(draw, d)
    box = draw(st.integers(0, 6 // d))
    table = {k: _simplex_point(draw, d) for k in product(range(box + 1), repeat=d)}
    law = TabulatedLaw(box, table, fallback=draw(st.sampled_from(["reject", "clamp"])))
    return law, _counts(draw, d, high=box + 2)


# --- the batch contract -------------------------------------------------------------


class TestLogWeightsBatch:
    @settings(max_examples=100, deadline=None)
    @given(laws())
    def test_every_law_family_matches_per_point_bitwise(self, case):
        law, counts = case
        try:
            want = per_point(law, counts)
        except TableDomainError:
            with pytest.raises(TableDomainError):
                law.log_weights_batch(counts)
            return
        assert same_array(law.log_weights_batch(counts), want)

    @settings(max_examples=400, deadline=None)
    @given(environments())
    def test_induced_law_matches_per_point_bitwise(self, case):
        env, counts = case
        law = EnvMomentLaw(env)
        assert same_array(law.log_weights_batch(counts), per_point(law, counts))

    @settings(max_examples=300, deadline=None)
    @given(environments())
    def test_mixed_moments_match_per_point_bitwise(self, case):
        env, counts = case
        want = np.array([env.log_mixed_moment(row) for row in counts.tolist()])
        assert same_array(env.log_mixed_moments(counts), want)

    @pytest.mark.parametrize(
        "env, box",
        [
            (DirichletEnv([0.5, 1.0, 2.5, 4.0]), 5),
            # more rows than one block of the induced law
            (DirichletEnv([0.5, 2.0]), 99),
            # more count vectors than one block of the polynomial
            (PolynomialDirichletEnv([0.5, 1.0, 2.0], 3,
                                    {k: 1.0 + sum(k[:2]) for k in slice_indices(3, 3)}), 12),
        ],
    )
    def test_full_box_with_shared_bumps(self, env, box):
        # derive-law's input: every count vector of a box
        d = env.dimension
        counts = np.indices((box + 1,) * d).reshape(d, -1).T
        law = EnvMomentLaw(env)
        assert same_array(law.log_weights_batch(counts), per_point(law, counts))

    def test_a_user_law_gets_the_per_row_loop(self):
        class Fixed(ReinforcementLaw):
            dimension = 2

            def log_weights(self, counts):
                c = self._check_counts(counts)
                return np.log([0.25, 0.75]) + 0.0 * c[0]

        counts = np.array([[0, 0], [3, 1]])
        assert same_array(Fixed().log_weights_batch(counts), per_point(Fixed(), counts))

    @pytest.mark.parametrize(
        "law",
        [UniformLaw(3), DirichletLaw([1.0, 2.0, 3.0]), EnvMomentLaw(DirichletEnv([1.0, 2.0, 3.0])),
         PolynomialDirichletLaw([1.0, 2.0, 3.0], 1, {(1, 0, 0): 1.0})],
    )
    def test_counts_are_checked(self, law):
        assert law.log_weights_batch(np.zeros((0, 3), dtype=int)).shape == (0, 3)
        assert law.log_weights_batch([]).shape == (0, 3)
        with pytest.raises(DimensionMismatchError):
            law.log_weights_batch(np.zeros((2, 2), dtype=int))
        with pytest.raises(DimensionMismatchError):
            law.log_weights_batch(np.zeros(3, dtype=int))
        with pytest.raises(ValueError):
            law.log_weights_batch(np.array([[0, -1, 0]]))
        with pytest.raises(ValueError):
            law.log_weights_batch(np.array([[0.5, 1.0, 0.0]]))

    def test_tabulated_reject_raises_on_a_row_outside_the_box(self):
        with pytest.raises(TableDomainError):
            tabulated_witness().log_weights_batch(np.array([[0, 0], [2, 0]]))


# --- the array rows of the Dirichlet and polynomial laws --------------------------------

_WIDE_ALPHA = st.floats(min_value=1e-3, max_value=1e3)


@st.composite
def wide_count_tables(draw, d):
    n = draw(st.integers(1, 8))
    rows = st.lists(st.lists(st.integers(0, 500), min_size=d, max_size=d), min_size=n, max_size=n)
    return np.array(draw(rows), dtype=np.int64)


@st.composite
def wide_dirichlet(draw):
    # from 8 moves on numpy sums each row pairwise
    d = draw(st.integers(1, 10))
    return DirichletLaw(draw(st.lists(_WIDE_ALPHA, min_size=d, max_size=d))), draw(wide_count_tables(d))


@st.composite
def wide_polynomial(draw):
    d = draw(st.integers(1, 4))
    degree = draw(st.integers(0, 3))
    indices = slice_indices(d, degree)
    chosen = draw(st.lists(st.sampled_from(indices), min_size=1, max_size=len(indices), unique=True))
    coeffs = {k: draw(st.floats(min_value=1e-3, max_value=10.0)) for k in chosen}
    alpha = draw(st.lists(_WIDE_ALPHA, min_size=d, max_size=d))
    return PolynomialDirichletLaw(alpha, degree, coeffs), draw(wide_count_tables(d))


class TestArrayRows:
    # numpy's log and math.log round 198.001 apart: the first is a Dirichlet total, the
    # second a polynomial law's shifted count; random draws meet such values rarely
    @example(case=(DirichletLaw([0.001, 1.0]), np.array([[197, 0]])))
    @example(case=(PolynomialDirichletLaw([0.001, 1.0], 1, {(1, 0): 1.0}), np.array([[198, 0]])))
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(wide_dirichlet(), wide_polynomial()))
    def test_each_row_has_the_bits_of_the_per_point_formula(self, case):
        law, counts = case
        got = law.log_weights_batch(counts)
        for r in range(len(counts)):
            assert got[r].tobytes() == law._log_weights(tuple(counts[r])).tobytes()


#: A quadratic law whose moment table and box scan meet rounding gaps at tolerance 0.
QUADRATIC = {"alpha": [0.7, 1.9, 2.6], "degree": 2,
             "coefficients": {(2, 0, 0): 1.0, (0, 0, 2): 1.0, (1, 1, 0): 1.0}}


def batch_fails(error, hole=None):
    """The quadratic law with array rows that raise ``error``, and no value at ``hole``.

    Its ``_log_weights_rows`` and ``_log_poly`` are patched on the instance, so its
    class keeps it an array-rows law, whose readers try a batch first; ``batches``
    counts those tries.
    """
    law = PolynomialDirichletLaw(**QUADRATIC)
    law.batches, log_poly = 0, law._log_poly

    def holed_log_poly(counts):
        if counts == hole:
            raise EvaluationError(f"no value at {counts}")
        return log_poly(counts)

    def failing_rows(c):
        law.batches += 1
        raise error("no array rows")

    law._log_poly, law._log_weights_rows = holed_log_poly, failing_rows
    return law


def violation_bits(report):
    return [(v.counts, v.i, v.j, v.lhs.hex(), v.rhs.hex(), v.gap.hex()) for v in report.violations]


class TestReadersWhenTheBatchRaises:
    @pytest.mark.parametrize("error", [EvaluationError, ValueError])
    def test_the_readers_fall_back_to_per_point_reads(self, error):
        law = batch_fails(error)
        assert array_rows(type(law))
        want = violation_bits(check_admissible(PolynomialDirichletLaw(**QUADRATIC), 4, 0.0))
        assert len(want) == 61
        assert violation_bits(check_admissible(law, 4, 0.0)) == want
        assert law.batches == 1
        with pytest.raises(NotAdmissibleError, match=r"^path products to \(0, 1, 1\) "
                                                     r"disagree by -4\.441e-16"):
            build_moment_table(law, 3, tolerance=0.0)
        assert law.batches == 2

    @pytest.mark.parametrize("error", [EvaluationError, ValueError])
    def test_a_gap_comes_before_an_error_at_a_later_count_vector(self, error):
        # the gap sits at (0, 1, 1); only the row at (2, 0, 0), read at degree 3, needs (3, 0, 0)
        laws = batch_fails(error, hole=(3, 0, 0)), batch_fails(error, hole=(3, 0, 0))
        with pytest.raises(NotAdmissibleError, match=r"^path products to \(0, 1, 1\)"):
            build_moment_table(laws[0], 3, tolerance=0.0)
        with pytest.raises(EvaluationError, match=r"^no value at \(3, 0, 0\)$"):
            build_moment_table(laws[1], 3)
        assert [law.batches for law in laws] == [1, 1]

    @pytest.mark.parametrize("error", [EvaluationError, ValueError])
    def test_the_scan_raises_the_per_point_error(self, error):
        law = batch_fails(error, hole=(3, 0, 0))
        with pytest.raises(EvaluationError, match=r"^no value at \(3, 0, 0\)$"):
            check_admissible(law, 3)
        assert law.batches == 1


# --- the row-wise pieces --------------------------------------------------------------

_ENTRY = st.one_of(
    st.floats(min_value=-40.0, max_value=40.0),
    st.floats(min_value=-800.0, max_value=800.0),
    st.just(-math.inf),
)


class TestRowWiseKernels:
    @settings(max_examples=500, deadline=None)
    @given(st.integers(1, 12).flatmap(
        lambda m: st.lists(st.lists(_ENTRY, min_size=m, max_size=m), min_size=1, max_size=6)))
    def test_log_sum_exp_rows_matches_log_sum_exp(self, rows):
        # repeat the first entry of each row so that maxima are often tied
        table = np.array([row + row[:1] for row in rows])
        want = np.array([log_sum_exp(row) for row in table])
        assert same_array(log_sum_exp_rows(table), want)

    @pytest.mark.parametrize("m", [7, 8, 9, 16, 17, 40])
    def test_log_sum_exp_rows_past_numpys_pairwise_threshold(self, m):
        # terms of one magnitude, so that pairwise and left-to-right sums round apart
        table = np.random.default_rng(m).uniform(-1.0, 0.0, size=(500, m))
        want = np.array([log_sum_exp(row) for row in table])
        assert same_array(log_sum_exp_rows(table), want)

    def test_log_sum_exp_rows_passes_non_finite_maxima_through(self):
        table = np.array([[math.nan, 1.0], [math.inf, 2.0], [-math.inf, -math.inf], [1.0, -0.0]])
        got = log_sum_exp_rows(table)
        for row, value in zip(table, got):
            want = log_sum_exp(row)
            assert (math.isnan(want) and math.isnan(value)) or np.float64(want).tobytes() == value.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda d: st.tuples(st.just(d), st.data())))
    def test_rising_polynomial_rows_match_log_value(self, case):
        d, data = case
        poly = RisingPolynomial(*_polynomial(data.draw, d))
        counts = _counts(data.draw, d)
        want = np.array([poly.log_value(tuple(row)) for row in counts.tolist()])
        assert same_array(poly.log_values(counts), want)

    def test_rising_polynomial_values_are_finite_at_the_extremes_of_checked_inputs(self):
        # checked alpha and coefficients keep every term finite, so no value
        # underflows or overflows, and none needs a check: the least and near the
        # greatest alpha and coefficients the checks let through, at counts up to 2**62
        poly = RisingPolynomial([math.ulp(0.0), 1e305], 2,
                                {(2, 0): math.ulp(0.0), (1, 1): 1.7e308, (0, 2): 1.0})
        counts = np.array([[0, 0], [2**62, 0], [0, 2**62], [7, 2**40]])
        want = [poly.log_value(tuple(row)) for row in counts.tolist()]
        assert all(math.isfinite(v) for v in want)
        assert same_array(poly.log_values(counts), np.array(want))


# --- the moment table -----------------------------------------------------------------


def staircase_oracle(law: ReinforcementLaw, order: int) -> dict:
    """The reverse-staircase oracle: the moment table one ball index at a time
    from public per-point calls, cross-checked along the reverse staircase.

    ``build_moment_table`` ran this cross-check until it checked every edge of
    the ball; it compares two paths only, so it misses open squares that
    cancel along both (:func:`open_squares_law`).  It stays as the oracle of
    the staircase's values.
    """
    d = law.dimension
    stair = {(0,) * d: 0.0}
    reverse = {(0,) * d: 0.0}
    for k in ball_indices(d, order)[1:]:
        hi = max(i for i in range(d) if k[i])
        lo = min(i for i in range(d) if k[i])
        parent_hi = tuple(v - (i == hi) for i, v in enumerate(k))
        parent_lo = tuple(v - (i == lo) for i, v in enumerate(k))
        stair[k] = stair[parent_hi] + float(law.log_weights(parent_hi)[hi])
        reverse[k] = reverse[parent_lo] + float(law.log_weights(parent_lo)[lo])
        if abs(stair[k] - reverse[k]) > 1e-10:
            raise NotAdmissibleError(f"gap at {k}")
    return stair


def open_squares_law() -> ReinforcementLaw:
    """A d = 3 table, box 2, clamped, whose two staircases agree on the order-3
    ball within 4.4e-16 although its squares at (1, 0, 0) over moves (1, 2) and
    at (0, 0, 1) over moves (0, 1) are open, by +0.3 and -0.3.

    The 10 count vectors with ``|q| <= 2`` have free weights (softmax of 30 log
    weights); the other 17 rows are uniform.  ``scipy.optimize.least_squares``
    from ``numpy.random.default_rng(3).normal(0, 0.3, 30)`` solved for the 10
    staircase-versus-reverse gaps of the order-3 ball at 0 and the square at
    (1, 0, 0) over moves (1, 2) at 0.3; the rows are committed, not re-solved.
    """
    path = Path(__file__).with_name("open_squares_law.json")
    return law_from_spec(json.loads(path.read_text(encoding="utf-8")))


def square_gaps(law: ReinforcementLaw, order: int) -> list[float]:
    """The gap of every elementary square of the degree-``order`` ball, from ``log_weights``."""
    d = law.dimension
    out = []
    for p in ball_indices(d, order - 2):
        for i, j in combinations(range(d), 2):
            p_i = tuple(v + (m == i) for m, v in enumerate(p))
            p_j = tuple(v + (m == j) for m, v in enumerate(p))
            out.append(float(law.log_weights(p)[i] + law.log_weights(p_i)[j])
                       - float(law.log_weights(p)[j] + law.log_weights(p_j)[i]))
    return out


@st.composite
def perturbed_dirichlet_tables(draw) -> tuple[TabulatedLaw, int]:
    """A closed Dirichlet table on the box {0..order}^d with a few rows bent:
    one weight times a factor, then renormalised."""
    d = draw(st.sampled_from([2, 3]))
    order = draw(st.integers(0, 4))
    base = DirichletLaw(draw(st.lists(st.floats(0.5, 3.0), min_size=d, max_size=d)))
    table = {q: base.weights(q) for q in product(range(order + 1), repeat=d)}
    for _ in range(draw(st.integers(0, 3))):
        q = draw(st.sampled_from(sorted(table)))
        w = list(table[q].weights)
        w[draw(st.integers(0, d - 1))] *= draw(st.sampled_from([0.25, 0.5, 2.0, 4.0]))
        total = sum(w)
        table[q] = SimplexPoint(tuple(v / total for v in w))
    return TabulatedLaw(order, table), order


MOMENT_LAWS = {
    "uniform_4": (UniformLaw(4), 6),
    "polya_1_2_3_4": (DirichletLaw([1.0, 2.0, 3.0, 4.0]), 8),
    "polya_2_3": (DirichletLaw([2.0, 3.0]), 12),
    "poly_quadratic_3d": (PolynomialDirichletLaw([0.5, 1.0, 2.0], 2,
                                                 {(2, 0, 0): 1.0, (1, 1, 0): 2.0, (0, 0, 2): 0.5}), 10),
    "induced_dirichlet": (EnvMomentLaw(DirichletEnv([0.7, 1.3, 2.9])), 10),
    "induced_polynomial": (EnvMomentLaw(PolynomialDirichletEnv([1.0, 1.0], 1, {(1, 0): 1.0})), 12),
    "induced_point_mass": (EnvMomentLaw(PointMassEnv([0.3, 0.7])), 8),
    "induced_empirical": (EnvMomentLaw(EmpiricalEnv([(1.0, (0.2, 0.3, 0.5))])), 6),
    "tabulated_clamp": (TabulatedLaw(2, {k: SimplexPoint((0.25, 0.75)) for k in product(range(3), repeat=2)},
                                     fallback="clamp"), 7),
}


class TestMomentTable:
    @pytest.mark.parametrize("name", sorted(MOMENT_LAWS))
    def test_matches_per_point_staircase_bitwise(self, name):
        law, order = MOMENT_LAWS[name]
        table = build_moment_table(law, order).log_values
        want = staircase_oracle(law, order)
        assert list(table) == list(want)
        assert all(np.float64(table[k]).tobytes() == np.float64(want[k]).tobytes() for k in want)

    def test_open_squares_that_cancel_along_both_staircases_are_met(self):
        law = open_squares_law()
        staircase_oracle(law, 3)  # the reverse staircase alone passes this law
        gaps = {(v.counts, v.i, v.j): v.gap for v in check_admissible(law, 2).violations}
        assert gaps[(1, 0, 0), 1, 2] == pytest.approx(0.3, abs=1e-12)
        assert gaps[(0, 0, 1), 0, 1] == pytest.approx(-0.3, abs=1e-12)
        with pytest.raises(NotAdmissibleError, match=r"^path products to \(1, 1, 1\) "
                                                     r"disagree by 3\.000e-01 in log space"):
            build_moment_table(law, 3)

    def test_the_edge_tolerance_is_the_callers(self):
        law = open_squares_law()
        # every edge of the order-3 ball misses the staircase by at most 0.3
        assert build_moment_table(law, 3, tolerance=1.0).log_values == staircase_oracle(law, 3)
        # at 0 a rounding gap is met before the open square at (1, 1, 1)
        with pytest.raises(NotAdmissibleError, match=r"^path products to \(0, 1, 1\) "
                                                     r"disagree by -4\.441e-16"):
            build_moment_table(law, 3, tolerance=0.0)
        for bad in (math.nan, math.inf, -1e-12):
            with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
                build_moment_table(law, 3, tolerance=bad)

    @given(case=perturbed_dirichlet_tables())
    @settings(max_examples=200, deadline=None)
    def test_a_table_that_builds_closes_every_square_of_its_ball(self, case):
        law, order = case
        try:
            table = build_moment_table(law, order).log_values
        except NotAdmissibleError:
            return
        assert all(abs(gap) <= 4 * DEFAULT_TOLERANCE for gap in square_gaps(law, order))
        want = staircase_oracle(law, order)
        assert list(table) == list(want)
        assert all(np.float64(table[k]).tobytes() == np.float64(want[k]).tobytes() for k in want)

    def test_each_count_vector_below_the_order_is_read_once(self, monkeypatch):
        # one batch call reads the ball below the order, and no public read is made
        law = DirichletLaw([1.0, 2.0, 3.0, 4.0])
        batches, reads = [], Counter()
        batch, read = law.log_weights_batch, law.log_weights

        def counted_batch(counts):
            batches.append(Counter(map(tuple, np.asarray(counts).tolist())))
            return batch(counts)

        def counted(counts):
            reads[tuple(counts)] += 1
            return read(counts)

        monkeypatch.setattr(law, "log_weights_batch", counted_batch)
        monkeypatch.setattr(law, "log_weights", counted)
        build_moment_table(law, 8)
        assert batches == [Counter(ball_indices(4, 7))]
        assert sum(batches[0].values()) == 330
        assert not reads

    def test_gap_at_one_degree_comes_before_an_error_at_the_next(self):
        # the witness's square fails at degree 2; degree 3 would read outside its box
        with pytest.raises(NotAdmissibleError):
            staircase_oracle(tabulated_witness(), 3)
        with pytest.raises(NotAdmissibleError):
            build_moment_table(tabulated_witness(), 3)

    def test_gap_comes_before_an_error_later_in_the_same_degree(self):
        class BentAtOneOne(ReinforcementLaw):
            """Polya weights, bent at (1, 1) and undefined at (2, 0).

            Degree 3 meets the gap at (1, 2) before it needs (2, 0) for (2, 1).
            """

            dimension = 2

            def log_weights(self, counts):
                c = self._check_counts(counts)
                if c == (2, 0):
                    raise EvaluationError("no value at (2, 0)")
                if c == (1, 1):
                    return np.log([0.9, 0.1])
                return np.log([(1 + c[0]) / (2 + sum(c)), (1 + c[1]) / (2 + sum(c))])

        law = BentAtOneOne()
        with pytest.raises(NotAdmissibleError):
            staircase_oracle(law, 3)
        with pytest.raises(NotAdmissibleError):
            build_moment_table(law, 3)
