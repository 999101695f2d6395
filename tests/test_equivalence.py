"""Reinforced vs annealed path laws: exact identities and statistics."""

import math
import struct
import types
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from urnwalk import (
    DirichletEnv,
    DimensionMismatchError,
    DirichletLaw,
    EmpiricalEnv,
    EnumerationGuardError,
    Graph,
    NotAdmissibleError,
    PathDistribution,
    PointMassEnv,
    PolynomialDirichletEnv,
    SimplexPoint,
    UniformLaw,
    compare_distributions,
    compare_empirical,
    cycle_graph,
    enumerate_annealed,
    enumerate_both,
    enumerate_reinforced,
    law_from_env,
    recover_env_moments,
    segment_graph,
    star_graph,
)
from catalog import tabulated_witness
from oracles import errw_paths, errw_step
from urnwalk import equivalence
from urnwalk.laws import log_sum_exp
from urnwalk.moments import ball_indices


def polya_star():
    graph = star_graph(2)
    laws = {0: DirichletLaw([1.0, 1.0]), 1: UniformLaw(1), 2: UniformLaw(1)}
    envs = {0: DirichletEnv([1.0, 1.0]), 1: PointMassEnv((1.0,)), 2: PointMassEnv((1.0,))}
    return graph, laws, envs


def reinforced_path_logprob(graph, laws, trajectory):
    """A trajectory's log probability, read from the exact reinforced law."""
    return enumerate_reinforced(graph, laws, trajectory[0], len(trajectory) - 1).log_probs[
        tuple(trajectory)]


def annealed_path_logprob(graph, envs, trajectory):
    """A trajectory's log probability, read from the exact annealed law."""
    return enumerate_annealed(graph, envs, trajectory[0], len(trajectory) - 1).log_probs[
        tuple(trajectory)]


class TestPathLogprob:
    def test_length_zero(self):
        graph, laws, envs = polya_star()
        assert reinforced_path_logprob(graph, laws, (0,)) == 0.0
        assert annealed_path_logprob(graph, envs, (0,)) == 0.0

    def test_star_counts_update_along_the_path(self):
        graph, laws, envs = polya_star()
        logp = reinforced_path_logprob(graph, laws, (0, 1, 0, 2))
        assert logp == pytest.approx(math.log(1 / 6), rel=1e-13)

    def test_star_annealed_value(self):
        graph, laws, envs = polya_star()
        logp = annealed_path_logprob(graph, envs, (0, 1, 0, 2))
        assert logp == pytest.approx(math.log(1 / 6), rel=1e-13)

    def test_annealed_factorizes_over_vertices(self):
        graph = segment_graph(4)
        envs = {
            0: PointMassEnv((1.0,)),
            1: DirichletEnv([2.0, 3.0]),
            2: DirichletEnv([1.0, 1.0]),
            3: PointMassEnv((1.0,)),
        }
        trajectory = (1, 2, 1, 0, 1)
        total = annealed_path_logprob(graph, envs, trajectory)
        # counts: vertex 1 -> (1, 1), vertex 2 -> (1, 0), vertex 0 -> (1,)
        expected = (
            envs[1].log_mixed_moment((1, 1))
            + envs[2].log_mixed_moment((1, 0))
            + envs[0].log_mixed_moment((1,))
        )
        assert total == pytest.approx(expected, rel=1e-13)

    def test_interleaving_invariance(self):
        # identical per-vertex counts => identical probability, both processes
        graph, laws, envs = polya_star()
        first = (0, 1, 0, 2, 0)
        second = (0, 2, 0, 1, 0)
        assert reinforced_path_logprob(graph, laws, first) == pytest.approx(
            reinforced_path_logprob(graph, laws, second), abs=1e-12
        )
        assert annealed_path_logprob(graph, envs, first) == pytest.approx(
            annealed_path_logprob(graph, envs, second), abs=1e-12
        )

    def test_parallel_moves_are_summed(self):
        graph = Graph(((1, 1), (0,)))
        laws = {0: DirichletLaw([1.0, 2.0]), 1: UniformLaw(1)}
        envs = {0: DirichletEnv([1.0, 2.0]), 1: PointMassEnv((1.0,))}
        # both parallel moves lead to vertex 1, so the step has probability 1
        assert reinforced_path_logprob(graph, laws, (0, 1)) == pytest.approx(0.0, abs=1e-12)
        assert annealed_path_logprob(graph, envs, (0, 1)) == pytest.approx(0.0, abs=1e-12)


class TestEnumeration:
    def test_one_step_law(self):
        graph, laws, envs = polya_star()
        dist = enumerate_reinforced(graph, laws, 0, 1)
        assert dist.probabilities[(0, 1)] == pytest.approx(0.5)
        assert dist.probabilities[(0, 2)] == pytest.approx(0.5)

    def test_star_pair_is_identical_at_t3(self):
        graph, laws, envs = polya_star()
        reinforced = enumerate_reinforced(graph, laws, 0, 3)
        annealed = enumerate_annealed(graph, envs, 0, 3)
        report = compare_distributions(reinforced, annealed)
        assert report.total_variation <= 1e-12

    def test_near_deterministic_masses_leave_one_path(self):
        graph = segment_graph(3)
        envs = {
            0: PointMassEnv((1.0,)),
            1: PointMassEnv(SimplexPoint((1e-12, 1.0 - 1e-12))),
            2: PointMassEnv((1.0,)),
        }
        dist = enumerate_annealed(graph, envs, 0, 4)
        assert dist.probabilities[(0, 1, 2, 1, 2)] == pytest.approx(1.0, abs=1e-9)

    def test_multigraph_enumeration_collapses_parallel_moves(self):
        graph = Graph(((1, 1), (0,)))
        laws = {0: DirichletLaw([1.0, 2.0]), 1: UniformLaw(1)}
        dist = enumerate_reinforced(graph, laws, 0, 2)
        assert dist.probabilities[(0, 1, 0)] == pytest.approx(1.0, abs=1e-12)

    def test_probabilities_sum_to_one(self):
        graph = cycle_graph(3)
        laws = {x: DirichletLaw([1.0, 2.0]) for x in range(3)}
        dist = enumerate_reinforced(graph, laws, 0, 6)
        assert math.fsum(dist.probabilities.values()) == pytest.approx(1.0, abs=1e-12)

    def test_guard_triggers(self):
        graph = cycle_graph(3)
        laws = {x: DirichletLaw([1.0, 2.0]) for x in range(3)}
        with pytest.raises(EnumerationGuardError):
            enumerate_reinforced(graph, laws, 0, 6, max_paths=10)


class TestPathDistribution:
    @pytest.mark.parametrize(
        "log_probs",
        [{(0, 1): math.nan}, {(0, 1): 0.0, (0, 2): math.nan}, {(0, 1): math.log(0.5)}],
    )
    def test_probabilities_must_sum_to_one(self, log_probs):
        # a NaN total failed the abs(total - 1) > tolerance test and was accepted
        with pytest.raises(ValueError, match="sum to"):
            PathDistribution(0, 1, log_probs)

    def test_each_path_is_exponentiated_once(self, monkeypatch):
        exps = []

        def exp(x):
            exps.append(x)
            return math.exp(x)

        monkeypatch.setattr(equivalence, "math", types.SimpleNamespace(**{
            **{name: getattr(math, name) for name in dir(math) if not name.startswith("_")},
            "exp": exp}))
        log_probs = {(0, 1): math.log(0.25), (0, 2): math.log(0.75)}
        a, b = PathDistribution(0, 1, log_probs), PathDistribution(0, 1, dict(log_probs))
        assert compare_distributions(a, b).total_variation == 0.0
        assert a.probabilities == {t: math.exp(lp) for t, lp in log_probs.items()}
        assert len(exps) == 4


class TestCompare:
    def test_identical_distributions(self):
        graph, laws, envs = polya_star()
        dist = enumerate_reinforced(graph, laws, 0, 4)
        report = compare_distributions(dist, dist)
        assert report.total_variation == 0.0
        assert report.max_abs_gap == 0.0

    def test_support_mismatch_rejected(self):
        graph, laws, envs = polya_star()
        with pytest.raises(ValueError):
            compare_distributions(
                enumerate_reinforced(graph, laws, 0, 2),
                enumerate_reinforced(graph, laws, 0, 4),
            )

    def test_mismatched_pair_is_detected(self):
        # memory in the urn law vs a memoryless fair coin: TV = 1/6 at T = 4
        graph, laws, _ = polya_star()
        envs = {0: PointMassEnv((0.5, 0.5)), 1: PointMassEnv((1.0,)), 2: PointMassEnv((1.0,))}
        reinforced = enumerate_reinforced(graph, laws, 0, 4)
        annealed = enumerate_annealed(graph, envs, 0, 4)
        report = compare_distributions(reinforced, annealed)
        assert report.total_variation == pytest.approx(1 / 6, rel=1e-12)
        assert report.total_variation > 0.05


class TestCompareEmpirical:
    def test_calibration_against_self(self):
        graph, laws, envs = polya_star()
        reference = enumerate_reinforced(graph, laws, 0, 5)
        support = sorted(reference.probabilities)
        probs = [reference.probabilities[t] for t in support]
        rng = np.random.default_rng(41)
        picks = rng.choice(len(support), size=20_000, p=probs)
        samples = [support[i] for i in picks]
        report = compare_empirical(samples, reference)
        statistic, dof = report.chi_square
        from scipy.stats import chi2

        assert dof == len(support) - 1
        assert statistic <= chi2.ppf(0.999, dof)
        assert report.sample_count == 20_000

    def test_deterministic_reference(self):
        graph = segment_graph(2)
        laws = {0: UniformLaw(1), 1: UniformLaw(1)}
        reference = enumerate_reinforced(graph, laws, 0, 3)
        samples = [(0, 1, 0, 1)] * 500
        report = compare_empirical(samples, reference)
        assert report.chi_square == (0.0, 0)
        assert report.total_variation == 0.0

    def test_too_few_samples(self):
        graph, laws, envs = polya_star()
        reference = enumerate_reinforced(graph, laws, 0, 2)
        with pytest.raises(ValueError, match="100"):
            compare_empirical([(0, 1, 0)] * 99, reference)

    def test_stray_samples_rejected(self):
        graph, laws, envs = polya_star()
        reference = enumerate_reinforced(graph, laws, 0, 2)
        with pytest.raises(ValueError, match="support"):
            compare_empirical([(0, 1, 0)] * 150 + [(0, 9, 0)], reference)


class TestRecoverEnvMoments:
    def test_urn_law_recovers_dirichlet_moments(self):
        table = recover_env_moments(DirichletLaw([2.0, 3.0]), 6)
        env = DirichletEnv([2.0, 3.0])
        for k in ball_indices(2, 6):
            assert table.value(k) == pytest.approx(env.mixed_moment(k), rel=1e-12)

    def test_constant_law_recovers_point_mass_moments(self):
        law = law_from_env(PointMassEnv((0.3, 0.7)))
        table = recover_env_moments(law, 5)
        for k in ball_indices(2, 5):
            assert table.value(k) == pytest.approx(
                0.3 ** k[0] * 0.7 ** k[1], rel=1e-12
            )

    def test_empirical_round_trip(self):
        env = EmpiricalEnv([(0.25, (0.2, 0.8)), (0.75, (0.6, 0.4))])
        table = recover_env_moments(law_from_env(env), 6)
        for k in ball_indices(2, 6):
            assert table.value(k) == pytest.approx(env.mixed_moment(k), rel=1e-11)

    def test_polynomial_round_trip(self):
        env = PolynomialDirichletEnv([1.0, 1.0], 1, {(1, 0): 1.0})
        table = recover_env_moments(law_from_env(env), 8)
        for k in ball_indices(2, 8):
            assert table.value(k) == pytest.approx(env.mixed_moment(k), rel=1e-10)

    def test_witness_has_no_environment(self):
        with pytest.raises(NotAdmissibleError):
            recover_env_moments(tabulated_witness(), 2)


_LAWS_BUT_2 = {0: DirichletLaw([1.0, 1.0]), 1: UniformLaw(1)}
_ENVS_BUT_2 = {0: DirichletEnv([1.0, 1.0]), 1: PointMassEnv((1.0,))}
_ENVS = {**_ENVS_BUT_2, 2: PointMassEnv((1.0,))}


@pytest.mark.parametrize("name, call", [
    ("law map", lambda g: enumerate_reinforced(g, _LAWS_BUT_2, 0, 3)),
    ("environment map", lambda g: enumerate_annealed(g, _ENVS_BUT_2, 0, 3)),
    ("law map", lambda g: enumerate_both(g, _LAWS_BUT_2, _ENVS, 0, 3)),
    # the environment map is checked first
    ("environment map", lambda g: enumerate_both(g, _LAWS_BUT_2, _ENVS_BUT_2, 0, 3)),
], ids=["enumerate_reinforced", "enumerate_annealed", "enumerate_both_laws",
        "enumerate_both_envs"])
def test_a_map_that_misses_a_vertex_names_it(name, call):
    with pytest.raises(DimensionMismatchError, match=f"^{name} misses vertex 2$"):
        call(star_graph(2))


def test_a_map_needs_only_the_vertices_the_move_tree_steps_from():
    # one step from the center reaches leaf 2 and takes no step from there
    g = star_graph(2)
    assert enumerate_reinforced(g, _LAWS_BUT_2, 0, 1).log_probs == pytest.approx(
        {(0, 1): math.log(0.5), (0, 2): math.log(0.5)})
    assert enumerate_annealed(g, _ENVS_BUT_2, 0, 1).log_probs == pytest.approx(
        {(0, 1): math.log(0.5), (0, 2): math.log(0.5)})


def oriented_alpha(graph, x0, a):
    """Per-vertex Dirichlet parameters under which the walk from ``x0`` on a tree
    is edge-reinforced with initial weight ``a``: at a vertex other than the start,
    each child edge has been crossed twice per exit along it and the parent edge
    once more, so ``a/2`` towards each child and ``(a+1)/2`` towards the parent;
    ``a/2`` everywhere at the start."""
    parent = {x0: None}
    queue = [x0]
    for x in queue:
        for y in graph.neighbors[x]:
            if y not in parent:
                parent[y] = x
                queue.append(y)
    return {x: [(a + (y == parent[x])) / 2 for y in nb] for x, nb in enumerate(graph.neighbors)}


#: Root 0 with children 1 and 2; vertex 1 with children 3 and 4.
FIVE_VERTEX_TREE = Graph(((1, 2), (0, 3, 4), (0,), (1,), (1,)))


@pytest.mark.parametrize("a", [Fraction(1, 2), Fraction(1), Fraction(3)])
@pytest.mark.parametrize(
    "graph, x0",
    [(segment_graph(5), 2), (star_graph(3), 0), (FIVE_VERTEX_TREE, 0), (FIVE_VERTEX_TREE, 3)],
    ids=["segment-5 centre", "star-3 centre", "tree root", "tree leaf"],
)
def test_on_trees_both_walks_are_edge_reinforced(graph, x0, a):
    alpha = oriented_alpha(graph, x0, float(a))
    laws = {x: DirichletLaw(al) for x, al in alpha.items()}
    envs = {x: DirichletEnv(al) for x, al in alpha.items()}
    steps = 10
    oracle = errw_paths(graph.neighbors, x0, steps, a)
    for dist in enumerate_both(graph, laws, envs, x0, steps):
        assert dist.probabilities.keys() == oracle.keys()
        for t, p in oracle.items():
            assert dist.probabilities[t] == pytest.approx(float(p), rel=1e-14, abs=0)


def test_on_a_cycle_the_errw_step_is_not_a_function_of_the_exit_counts():
    triangle = cycle_graph(3).neighbors
    short, long = (0, 1, 0), (0, 1, 2, 0)
    exits = [sorted(e for e in zip(h, h[1:]) if e[0] == 0) for h in (short, long)]
    assert exits == [[(0, 1)], [(0, 1)]]
    assert errw_step(triangle, short, Fraction(1))[1] == Fraction(3, 4)
    assert errw_step(triangle, long, Fraction(1))[1] == Fraction(1, 2)


_SINGLE_LOGS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, -745.2, 709.8,
                *np.random.default_rng(33).normal(0.0, 30.0, 40).tolist()]


def test_a_one_element_list_keeps_log_sum_exps_bits(monkeypatch):
    # PathDistribution would reject most of these single-path laws; the values are read before it
    monkeypatch.setattr(equivalence, "PathDistribution", lambda x0, steps, log_probs: log_probs)
    acc = {(i,): [v] for i, v in enumerate(_SINGLE_LOGS)}
    got = equivalence._distribution(0, 0, acc)
    for i, v in enumerate(_SINGLE_LOGS):
        want = log_sum_exp([v])
        assert type(got[(i,)]) is type(want) is float
        assert struct.pack("<d", got[(i,)]) == struct.pack("<d", want), v
