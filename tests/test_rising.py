"""Log rising factorials as sums of logs: accuracy, growth, and the paths that read them.

``log (y)_k`` is read from ``cumsum(log(y + arange(K)))`` below
``RISING_TABLE_CAP``; from it on it is a difference of Stirling forms
(a ``math.lgamma`` difference for y below 10).  The
oracle is mpmath's log-gamma at 50 digits.  A difference of scipy log-gammas
is no oracle near a zero of ``log (y)_k``: at y = 0.99999, k = 1 it is off
in the eleventh digit where the summed log is exact.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import log_rising_factorial
from urnwalk.cli import main
from urnwalk.environment import DirichletEnv, law_from_env
from urnwalk.laws import RISING_TABLE_CAP, LogRisingTable
from urnwalk.walk import cycle_graph, make_stream, run_reinforced

try:
    import mpmath
except ImportError:  # an optional test dependency; the scipy oracle still runs
    mpmath = None

CAP = RISING_TABLE_CAP
needs_mpmath = pytest.mark.skipif(mpmath is None, reason="mpmath is not installed")


def mp_log_rising(y: float, k: int) -> float:
    with mpmath.workdps(50):
        return float(mpmath.loggamma(mpmath.mpf(y) + k) - mpmath.loggamma(mpmath.mpf(y)))


class TestAccuracy:
    @needs_mpmath
    @settings(max_examples=500, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=1e3), st.integers(0, 500))
    def test_matches_the_log_gamma_oracle(self, y, k):
        # A sum of k logs errs by a few eps times the sum of their magnitudes,
        # so the tolerance is relative to that sum: it is |log (y)_k| itself
        # unless the logs cancel, as they do near a zero (y near 0.618, k = 2).
        want = mp_log_rising(y, k)
        tol = 1e-12 * math.fsum(abs(math.log(y + j)) for j in range(k))
        assert abs(log_rising_factorial(y, k) - want) <= tol
        table = LogRisingTable((y, 2 * y))
        assert abs(table.at((k, 0))[0] - want) <= tol
        assert abs(float(table.values(np.array([[k, 0]]))[0, 0]) - want) <= tol

    def test_keeps_its_digits_where_a_log_gamma_difference_cancels(self):
        # log 0.99999, the case a scipy log-gamma difference gets wrong in the
        # eleventh digit; one log is the whole sum and comes out exact
        assert math.isclose(log_rising_factorial(0.99999, 1), math.log(0.99999), rel_tol=1e-15)

    @needs_mpmath
    @pytest.mark.parametrize("y", [1e-3, 0.5, 1.0, 7.25, 1e3])
    @pytest.mark.parametrize("k", [1, 2, 100, CAP - 2, CAP - 1, CAP, CAP + 1, 3 * CAP])
    def test_matches_mpmath_on_both_sides_of_the_cap(self, y, k):
        assert math.isclose(log_rising_factorial(y, k), mp_log_rising(y, k), rel_tol=1e-12)

    @needs_mpmath
    @pytest.mark.parametrize("y", [1e8, 1e10, 1e12, 1e17])
    def test_large_arguments_inside_the_cap_keep_their_digits(self, y):
        # a log-gamma difference cancels here: gammaln(1e17 + 1) - gammaln(1e17) is 0.0
        for k in (1, 2, 50, 1000):
            assert math.isclose(log_rising_factorial(y, k), mp_log_rising(y, k), rel_tol=1e-13)

    def test_zero_count_is_exactly_zero(self):
        for y in (1e-3, 1.0, 1e17):
            assert log_rising_factorial(y, 0) == 0.0

    @needs_mpmath
    @pytest.mark.parametrize("y", [10.5, 1e3, 1e8, 1e12, 1e17])
    @pytest.mark.parametrize("k", [CAP, 20_000, 3 * CAP])
    def test_past_the_cap_large_arguments_keep_their_digits(self, y, k):
        # the difference of Stirling forms, where a log-gamma difference is 3.7e-9
        # off at y = 1e12 and 4.8e-4 off at y = 1e17
        want = mp_log_rising(y, k)
        assert abs(log_rising_factorial(y, k) - want) <= 1e-15 * abs(want)


class TestTable:
    def test_scalar_and_array_reads_agree_bitwise_across_the_cap(self):
        y = (0.5, 3.25, 1e6)
        k = np.array([[0, 1, 2], [CAP - 1, CAP, CAP + 7], [40, 2 * CAP, 5]])
        got = LogRisingTable(y).values(k)
        want = [LogRisingTable(y).at(tuple(row)) for row in k.tolist()]
        assert got.tolist() == want

    def test_bits_do_not_depend_on_the_order_of_growth(self):
        y = (0.3, 2.5)
        stepwise = LogRisingTable(y)
        for k in range(0, 3000, 37):
            stepwise.at((k, k))
        at_once = LogRisingTable(y)
        counts = [(k, 2999 - k) for k in range(3000)]
        assert [at_once.at(c) for c in counts] == [stepwise.at(c) for c in counts]

    def test_rows_stop_growing_at_the_cap(self):
        table = LogRisingTable((1.5,))
        table.at((10 * CAP,))
        assert table._table.shape == (1, CAP)
        assert len(table._rows[0]) == CAP

    def test_an_empty_count_array_reads_nothing(self):
        assert LogRisingTable((1.0, 2.0)).values(np.zeros((0, 2), dtype=np.int64)).shape == (0, 2)


class TestLargeAlpha:
    @pytest.mark.parametrize("a", [1e8, 1e10, 1e12, 1e17])
    def test_a_first_moment_of_a_symmetric_dirichlet_is_a_half(self, a):
        assert abs(DirichletEnv([a, a]).log_mixed_moment((1, 0)) - math.log(0.5)) <= 1e-13

    def test_the_induced_law_of_a_huge_symmetric_dirichlet_is_uniform(self):
        weights = law_from_env(DirichletEnv([1e17, 1e17])).weights((0, 0))
        assert weights.weights == pytest.approx((0.5, 0.5), rel=1e-15)

    @pytest.mark.parametrize("counts", [(16383, 0), (20000, 5)])
    def test_the_induced_law_of_a_huge_dirichlet_is_polya_past_the_cap(self, counts):
        # the bumped counts reach the cap, where the moments leave the summed logs
        alpha = 1e12
        weights = law_from_env(DirichletEnv([alpha, alpha])).weights(counts).weights
        polya = [(alpha + c) / (2 * alpha + sum(counts)) for c in counts]
        assert max(abs(w - p) for w, p in zip(weights, polya)) <= 1e-10

    def test_scalar_and_batch_moments_agree_bitwise(self):
        env = DirichletEnv([1e17, 0.5, 3.0])
        counts = np.array([[0, 0, 0], [1, 0, 0], [5, 7, 2], [CAP, 1, 0]])
        want = [env.log_mixed_moment(tuple(row)) for row in counts.tolist()]
        assert env.log_mixed_moments(counts).tolist() == want


class TestLongRuns:
    """The induced law stays on the simplex however far its counts go."""

    def test_a_long_reinforced_walk_on_a_cycle_completes(self):
        # moment ratios alone, without the log-sum-exp, drift off the simplex on this walk
        graph = cycle_graph(50)
        laws = {x: law_from_env(DirichletEnv([0.5, 0.5])) for x in range(50)}
        trajectory = run_reinforced(graph, laws, 0, 20_000, make_stream(11))
        assert len(trajectory) == 20_001

    def test_derive_law_on_a_large_box_passes(self, tmp_path):
        # a box of 400 counts per move used to exit 3 with "weights sum to 1.0000000000010154"
        out = tmp_path / "law.csv"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "schema": 1, "env": {"family": "dirichlet", "alpha": [1.0, 2.0]},
            "operation": {"box": 400}, "output": {"path": str(out), "format": "csv"},
        }), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["derive-law", "--config", str(cfg)]) == 0
        with open(out, encoding="utf-8") as fh:
            next(fh)
            sums = [math.fsum(map(float, line.split(",")[2:])) for line in fh]
        assert len(sums) == 401**2
        assert max(abs(total - 1.0) for total in sums) <= 1e-15
