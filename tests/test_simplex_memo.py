"""The per-law memo of checked simplex points: one evaluation per count vector."""

from collections import Counter

import numpy as np
import pytest

from oracles import DriftingLaw
from urnwalk import laws
from urnwalk.environment import DirichletEnv, EnvMomentLaw
from urnwalk.errors import EvaluationError, TableDomainError
from urnwalk.laws import (
    DirichletLaw,
    PolynomialDirichletLaw,
    ReinforcementLaw,
    SimplexPoint,
    TabulatedLaw,
    UniformLaw,
    check_simplex,
)
from urnwalk.walk import WalkState, run_reinforced, star_graph, step_reinforced, stream_generators

STAR = star_graph(2)
LEAVES = {1: UniformLaw(1), 2: UniformLaw(1)}


class CountingLaw(ReinforcementLaw):
    """Polya weights that count their evaluations per count vector."""

    dimension = 2

    def __init__(self):
        self.calls = Counter()

    def log_weights(self, counts):
        c = self._check_counts(counts)
        self.calls[c] += 1
        total = 2 + sum(c)
        return np.log([(1 + c[0]) / total, (1 + c[1]) / total])


def centre_counts(trajectory):
    """Every count vector the walk stood at when it left the star's centre."""
    seen, counts = set(), [0, 0]
    for x, y in zip(trajectory, trajectory[1:]):
        if x == 0:
            seen.add(tuple(counts))
            counts[y - 1] += 1
    return seen


def sample(law, count, steps=9):
    return [run_reinforced(STAR, {0: law, **LEAVES}, 0, steps, rng)
            for rng in stream_generators(12, count)]


def test_a_user_law_is_evaluated_once_per_count_vector():
    law = CountingLaw()
    trajectories = sample(law, 300)
    visited = set().union(*map(centre_counts, trajectories))
    assert set(law.calls) == visited
    assert set(law.calls.values()) == {1}


def test_a_dirichlet_law_checks_each_count_vector_once(monkeypatch):
    checked = Counter()

    def counting_check(ws):
        checked[ws] += 1
        return check_simplex(ws)

    monkeypatch.setattr(laws, "check_simplex", counting_check)
    trajectories = sample(DirichletLaw([1.5, 0.5]), 300)
    visited = set().union(*map(centre_counts, trajectories))
    assert sum(checked.values()) == len(visited)


@pytest.mark.parametrize(
    "law",
    [DirichletLaw([0.5, 2.0]), PolynomialDirichletLaw([1.0, 2.0], 2, {(2, 0): 1.0, (1, 1): 0.5}),
     EnvMomentLaw(DirichletEnv([0.5, 1.5]))],
)
def test_memoised_points_are_the_computed_ones(law):
    points = {c: law._simplex(c) for c in [(0, 0), (3, 1), (0, 7)]}
    for c, point in points.items():
        assert law._simplex(c) is point
        assert law.weights(c) == SimplexPoint(point)
    fresh = type(law).__new__(type(law))
    fresh.__dict__.update({k: v for k, v in law.__dict__.items() if k != "_simplex_memo"})
    assert {c: fresh._simplex(c) for c in points} == points


def test_a_rejecting_table_raises_on_every_trajectory_that_leaves_its_box():
    table = {c: SimplexPoint((0.5, 0.5)) for c in [(0, 0), (1, 0), (0, 1), (1, 1)]}
    law = TabulatedLaw(1, table, fallback="reject")
    # within the box: the centre is left twice, from counts of total 0 and 1
    assert len(set(sample(law, 50, steps=4))) > 1
    failures = 0
    for rng in stream_generators(3, 50):
        with pytest.raises(TableDomainError):
            # the fourth departure from the centre is at counts of total 3
            run_reinforced(STAR, {0: law, **LEAVES}, 0, 8, rng)
        failures += 1
    assert failures == 50
    assert not hasattr(law, "_simplex_memo")


def test_an_evaluation_error_is_not_memoised():
    class PartialLaw(ReinforcementLaw):
        dimension = 2
        __init__ = CountingLaw.__init__

        def log_weights(self, counts):
            c = self._check_counts(counts)
            self.calls[c] += 1
            if c == (2, 0):
                raise EvaluationError("no value at (2, 0)")
            return np.log([0.5, 0.5])

    law = PartialLaw()
    for _ in range(3):
        with pytest.raises(EvaluationError):
            step_reinforced(STAR, {0: law, **LEAVES}, WalkState(vertex=0, counts={0: [2, 0]}), 0.5)
    assert law.calls[(2, 0)] == 3
    assert (2, 0) not in law._simplex_memo


def test_a_point_off_the_simplex_is_not_memoised():
    # the law drifts off the simplex at large counts
    law = DriftingLaw()
    for _ in range(2):
        with pytest.raises(ValueError, match="sum"):
            law._simplex((0, 522))
    assert (0, 522) not in law._simplex_memo


def test_the_memo_stops_growing_at_its_limit(monkeypatch):
    monkeypatch.setattr(laws, "SIMPLEX_MEMO_LIMIT", 5)
    law = CountingLaw()
    counts = [(a, 3) for a in range(12)]
    first = [law._simplex(c) for c in counts]
    assert len(law._simplex_memo) == 5
    assert [law._simplex(c) for c in counts] == first
    assert len(law._simplex_memo) == 5
    # the five kept points are served from the memo, the rest evaluated again
    assert [law.calls[c] for c in counts] == [1] * 5 + [2] * 7


def test_the_limit_bounds_a_long_walk():
    law = DirichletLaw([1.0, 1.0])
    run_reinforced(star_graph(2), {0: law, **LEAVES}, 0, 4 * laws.SIMPLEX_MEMO_LIMIT,
                   np.random.default_rng(1))
    assert len(law._simplex_memo) == laws.SIMPLEX_MEMO_LIMIT


def test_laws_that_only_look_up_keep_no_memo():
    table = {c: SimplexPoint((0.5, 0.5)) for c in [(0, 0), (1, 0), (0, 1), (1, 1)]}
    for law in (UniformLaw(2), TabulatedLaw(1, table, fallback="clamp")):
        sample(law, 20)
        assert not hasattr(law, "_simplex_memo")
