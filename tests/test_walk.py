"""Graphs, walk state, and the three samplers."""

import numpy as np
import pytest

from urnwalk import walk
from urnwalk import (
    DimensionMismatchError,
    DirichletEnv,
    DirichletLaw,
    EnvMomentLaw,
    Graph,
    PointMassEnv,
    ReinforcementLaw,
    SimplexPoint,
    UniformLaw,
    WalkState,
    cycle_graph,
    grid_graph,
    make_stream,
    run_annealed,
    run_quenched,
    run_reinforced,
    sample_environment,
    segment_graph,
    star_graph,
    step_quenched,
    step_reinforced,
    transition_counts,
)


class TestGraphs:
    def test_segment_has_reflecting_ends(self):
        g = segment_graph(3)
        assert g.neighbors == ((1,), (0, 2), (1,))

    def test_star_layout(self):
        g = star_graph(2)
        assert g.neighbors == ((1, 2), (0,), (0,))

    def test_triangle(self):
        g = cycle_graph(3)
        assert all(g.degree(x) == 2 for x in range(3))

    def test_grid_2x2(self):
        g = grid_graph(2, 2)
        assert g.neighbors == ((1, 2), (0, 3), (0, 3), (1, 2))

    def test_rejects_invalid_neighbors(self):
        with pytest.raises(ValueError):
            Graph(((1,), (5,)))

    def test_rejects_isolated_vertices(self):
        with pytest.raises(ValueError):
            Graph(((1,), ()))

    def test_move_indices_on_multigraph(self):
        g = Graph(((1, 1), (0,)))
        assert g.move_indices(0, 1) == (0, 1)
        assert g.move_indices(1, 1) == ()


class TestReinforcedWalk:
    def test_zero_steps(self, rng):
        g = star_graph(2)
        laws = {0: DirichletLaw([1.0, 1.0]), 1: UniformLaw(1), 2: UniformLaw(1)}
        assert run_reinforced(g, laws, 0, 0, rng) == (0,)

    def test_forced_move_at_degree_one_vertex(self, rng):
        g = segment_graph(2)
        laws = {0: UniformLaw(1), 1: UniformLaw(1)}
        state = WalkState(vertex=0)
        move = step_reinforced(g, laws, state, rng.random())
        assert move == 0
        assert state.vertex == 1
        assert state.counts[0] == [1]

    def test_first_move_frequency(self):
        g = star_graph(2)
        laws = {0: DirichletLaw([1.0, 1.0]), 1: UniformLaw(1), 2: UniformLaw(1)}
        hits = 0
        for i in range(100_000):
            t = run_reinforced(g, laws, 0, 1, make_stream(99, i))
            hits += t[1] == 1
        assert abs(hits / 100_000 - 0.5) < 0.005  # 3 sigma band

    def test_urn_law_after_history(self, rng):
        # counts (2, 0) make the first move probability 3/4
        g = star_graph(2)
        laws = {0: DirichletLaw([1.0, 1.0]), 1: UniformLaw(1), 2: UniformLaw(1)}
        hits = 0
        n = 100_000
        for i in range(n):
            state = WalkState(vertex=0, counts={0: [2, 0]})
            move = step_reinforced(g, laws, state, make_stream(5, i).random())
            hits += move == 0
        assert abs(hits / n - 0.75) < 0.0045

    def test_deterministic_given_stream(self):
        g = cycle_graph(3)
        laws = {x: DirichletLaw([1.0, 2.0]) for x in range(3)}
        first = run_reinforced(g, laws, 0, 50, make_stream(42, 0))
        second = run_reinforced(g, laws, 0, 50, make_stream(42, 0))
        assert first == second
        other_stream = run_reinforced(g, laws, 0, 50, make_stream(42, 1))
        assert first != other_stream

    def test_counter_reconstruction(self):
        g = grid_graph(2, 2)
        laws = {x: DirichletLaw([1.0, 1.0]) for x in range(4)}
        state = WalkState(vertex=0)
        rng = make_stream(7, 0)
        path = [0]
        for _ in range(40):
            step_reinforced(g, laws, state, rng.random())
            path.append(state.vertex)
        replayed = transition_counts(g, path)
        assert replayed == {x: tuple(c) for x, c in state.counts.items()}

    def test_dimension_mismatch(self, rng):
        g = star_graph(2)
        laws = {0: DirichletLaw([1.0]), 1: UniformLaw(1), 2: UniformLaw(1)}
        with pytest.raises(DimensionMismatchError):
            run_reinforced(g, laws, 0, 1, rng)

    @pytest.mark.parametrize(
        "given, error",
        [([1, 0, 0], DimensionMismatchError), ([-1, 0], ValueError), ([0.5, 0], ValueError)],
    )
    def test_given_counts_are_validated(self, given, error):
        g = star_graph(2)
        laws = {0: DirichletLaw([1.0, 1.0]), 1: UniformLaw(1), 2: UniformLaw(1)}
        with pytest.raises(error):
            step_reinforced(g, laws, WalkState(vertex=0, counts={0: given}), 0.5)

    def test_law_defining_only_log_weights_drives_the_walk(self):
        class Halves(ReinforcementLaw):
            dimension = 2

            def log_weights(self, counts):
                self._check_counts(counts)
                return np.log([0.5, 0.5])

        g = cycle_graph(3)
        t = run_reinforced(g, {x: Halves() for x in range(3)}, 0, 20, make_stream(4))
        assert t == run_reinforced(g, {x: UniformLaw(2) for x in range(3)}, 0, 20, make_stream(4))

    def test_weights_are_checked_on_every_step(self):
        # the induced law drifts off the simplex at large counts; the walk must stop there
        g = star_graph(2)
        laws = {0: EnvMomentLaw(DirichletEnv([0.5, 0.5])), 1: UniformLaw(1), 2: UniformLaw(1)}
        state = WalkState(vertex=0, counts={0: [0, 521]})
        step_reinforced(g, laws, state, 0.99)
        assert state.counts[0] == [0, 522]
        state.vertex = 0
        with pytest.raises(ValueError, match="sum"):
            step_reinforced(g, laws, state, 0.5)


class TestQuenchedWalk:
    def test_effectively_forced_assignment(self, rng):
        assignment = {0: SimplexPoint((1e-300, 1.0))}
        assert all(step_quenched(assignment, 0, rng.random()) == 1 for _ in range(1000))

    def test_degree_one_vertex_always_moves_home(self, rng):
        g = star_graph(2)
        assignment = {
            0: SimplexPoint((0.25, 0.75)),
            1: SimplexPoint((1.0,)),
            2: SimplexPoint((1.0,)),
        }
        t = run_quenched(g, assignment, 1, 2, rng)
        assert t[1] == 0

    def test_transition_frequency(self):
        assignment = {0: SimplexPoint((0.25, 0.75))}
        hits = 0
        rng = make_stream(17, 0)
        for _ in range(100_000):
            hits += step_quenched(assignment, 0, rng.random()) == 1
        assert abs(hits / 100_000 - 0.75) < 0.0045

    def test_missing_vertex(self, rng):
        g = star_graph(2)
        with pytest.raises(DimensionMismatchError):
            run_quenched(g, {0: SimplexPoint((0.5, 0.5))}, 0, 1, rng)


class TestAnnealedWalk:
    def test_zero_steps(self, rng):
        g = star_graph(2)
        envs = {0: DirichletEnv([1.0, 1.0]), 1: PointMassEnv((1.0,)), 2: PointMassEnv((1.0,))}
        assert run_annealed(g, envs, 0, 0, rng) == (0,)

    def test_environment_is_returned_on_request(self, rng):
        g = star_graph(2)
        envs = {0: DirichletEnv([1.0, 1.0]), 1: PointMassEnv((1.0,)), 2: PointMassEnv((1.0,))}
        trajectory, assignment = run_annealed(g, envs, 0, 4, rng, return_environment=True)
        assert len(trajectory) == 5
        assert set(assignment) == {0, 1, 2}
        assert assignment[1].weights == (1.0,)

    def test_point_mass_envs_reduce_to_quenched(self):
        g = cycle_graph(3)
        point = SimplexPoint((0.3, 0.7))
        envs = {x: PointMassEnv(point) for x in range(3)}
        annealed = run_annealed(g, envs, 0, 30, make_stream(3, 0))
        quenched = run_quenched(g, {x: point for x in range(3)}, 0, 30, make_stream(3, 0))
        assert annealed == quenched

    def test_star_symmetry(self):
        g = star_graph(2)
        envs = {0: DirichletEnv([1.0, 1.0]), 1: PointMassEnv((1.0,)), 2: PointMassEnv((1.0,))}
        hits = 0
        for i in range(100_000):
            t = run_annealed(g, envs, 0, 2, make_stream(23, i))
            hits += t == (0, 1, 0)
        assert abs(hits / 100_000 - 0.5) < 0.005

    def test_sample_environment_checks_dimensions(self, rng):
        g = star_graph(2)
        envs = {0: DirichletEnv([1.0]), 1: PointMassEnv((1.0,)), 2: PointMassEnv((1.0,))}
        with pytest.raises(DimensionMismatchError):
            sample_environment(g, envs, rng)


def test_transition_counts_rejects_non_edges():
    g = segment_graph(3)
    with pytest.raises(ValueError):
        transition_counts(g, (0, 2))


def test_transition_counts_rejects_parallel_moves():
    g = Graph(((1, 1), (0,)))
    with pytest.raises(ValueError, match="ambiguous"):
        transition_counts(g, (0, 1))


def test_streams_are_disjoint():
    a = make_stream(5, 0).random(4).tolist()
    b = make_stream(5, 1).random(4).tolist()
    assert a != b


def test_runs_take_every_step_through_the_module_step_functions(monkeypatch):
    calls = {"step_reinforced": 0, "step_quenched": 0}

    def counting(name):
        original = getattr(walk, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(walk, name, counting(name))
    g = cycle_graph(4)
    steps = walk.UNIFORM_BLOCK + 7
    walk.run_reinforced(g, {x: DirichletLaw([1.0, 1.0]) for x in range(4)}, 0, steps, make_stream(1))
    assert calls == {"step_reinforced": steps, "step_quenched": 0}
    point = SimplexPoint((0.5, 0.5))
    walk.run_quenched(g, {x: point for x in range(4)}, 0, steps, make_stream(2))
    assert calls == {"step_reinforced": steps, "step_quenched": steps}
    walk.run_annealed(g, {x: DirichletEnv([1.0, 1.0]) for x in range(4)}, 0, steps, make_stream(3))
    assert calls == {"step_reinforced": steps, "step_quenched": 2 * steps}
