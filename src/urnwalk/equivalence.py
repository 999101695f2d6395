"""Exact and statistical comparison of reinforced and annealed walk laws.

Both exact laws come from one depth-first traversal of the move tree over
per-vertex move counts shared by all branches, with one of two scorers:
``_Reinforced`` adds the law's log weight of each move at the counts so far;
``_Annealed`` adds nothing per move and at a leaf sums each vertex's log mixed
moment at its final counts (environments are independent across vertices, so
the average factorizes), read from the environment's memo, which an induced
``EnvMomentLaw`` on the same environment reads too.  The whole tree gives the
law of the length-T trajectories; the moves realizing one vertex sequence,
summed over parallel moves on multigraphs, give that trajectory's
probability.  Sampled trajectories are tested against an exact reference by
total variation and a pooled chi-square statistic.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .errors import EnumerationGuardError
from .laws import ReinforcementLaw, log_sum_exp
from .environment import VertexEnvLaw
from .moments import MomentTable, build_moment_table
from .walk import Graph, Trajectory, _at, _check_start

DEFAULT_MAX_PATHS = 10**6

#: Enumerated probabilities must sum to 1 within this tolerance.
SUM_TOLERANCE = 1e-10

#: Chi-square cells of a smaller expected count are pooled into one.
POOL_EXPECTED = 5.0


@dataclass(frozen=True)
class PathDistribution:
    """Exact law of the first T moves: every trajectory with its log probability."""

    x0: int
    steps: int
    log_probs: Mapping[Trajectory, float]

    def __post_init__(self) -> None:
        total = math.fsum(math.exp(lp) for lp in self.log_probs.values())
        if not abs(total - 1.0) <= SUM_TOLERANCE:
            raise ValueError(f"path probabilities sum to {total!r}, not 1")

    @cached_property
    def probabilities(self) -> dict[Trajectory, float]:
        return {t: math.exp(lp) for t, lp in self.log_probs.items()}

    @property
    def support(self) -> frozenset[Trajectory]:
        return frozenset(self.log_probs)


@dataclass(frozen=True)
class ComparisonReport:
    """Distance summary between two path laws (exact or empirical)."""

    total_variation: float
    max_abs_gap: float
    chi_square: tuple[float, int] | None = None
    sample_count: int | None = None

    def to_dict(self) -> dict:
        return {
            "total_variation": self.total_variation,
            "max_abs_gap": self.max_abs_gap,
            "chi_square": None
            if self.chi_square is None
            else {"statistic": self.chi_square[0], "degrees_of_freedom": self.chi_square[1]},
            "sample_count": self.sample_count,
        }


def _validate_trajectory(graph: Graph, trajectory: Sequence[int]) -> None:
    if not trajectory:
        raise ValueError("trajectory must contain at least the start vertex")
    for v in trajectory:
        if not (0 <= v < graph.vertex_count):
            raise ValueError(f"trajectory vertex {v} not in graph")
    for x, y in zip(trajectory, trajectory[1:]):
        if not graph.move_indices(x, y):
            raise ValueError(f"trajectory step {x}->{y} is not a graph edge")


class _Reinforced:
    """Scorer of the reinforced walk: the step rule's log weights, added per move."""

    def __init__(self, laws: Mapping[int, ReinforcementLaw]) -> None:
        self.laws = laws

    def step(self, x: int, at_x: list[int]) -> list[float]:
        return np.asarray(self.laws[x].log_weights(tuple(at_x)), dtype=float).tolist()

    def leaf(self, logp: float, counts: Mapping[int, list[int]]) -> float:
        return logp


class _Annealed:
    """Scorer of the annealed walk: nothing per move, the mixed moments at the leaf."""

    def __init__(self, envs: Mapping[int, VertexEnvLaw]) -> None:
        self.envs = envs

    def step(self, x: int, at_x: list[int]) -> list[float]:
        return [0.0] * len(at_x)

    def leaf(self, logp: float, counts: Mapping[int, list[int]]) -> float:
        # counts is shared across branches: skip vertices only other paths left
        return math.fsum(
            self.envs[x]._memo_log_moment(tuple(c)) for x, c in counts.items() if any(c)
        )


def _enumerate(
    graph: Graph, x0: int, steps: int, scorer: _Reinforced | _Annealed,
    follow: Sequence[int] | None = None,
) -> dict[Trajectory, list[float]]:
    """Scorer leaf values of all move-index sequences of length ``steps`` from x0,
    per trajectory in traversal order; with ``follow``, of those realizing it."""
    acc: dict[Trajectory, list[float]] = {}
    counts: dict[int, list[int]] = {}
    path = [x0]
    step, leaf = scorer.step, scorer.leaf

    def descend(depth: int, logp: float) -> None:
        if depth == steps:
            acc.setdefault(tuple(path), []).append(leaf(logp, counts))
            return
        x = path[-1]
        at_x = counts.setdefault(x, [0] * graph.degree(x))
        log_w = step(x, at_x)
        targets = graph.neighbors[x]
        moves = graph.move_indices(x, follow[depth + 1]) if follow else range(len(targets))
        for i in moves:
            at_x[i] += 1
            path.append(targets[i])
            descend(depth + 1, logp + log_w[i])
            path.pop()
            at_x[i] -= 1

    descend(0, 0.0)
    return acc


def _path_logprob(
    graph: Graph, trajectory: Sequence[int], maps: Mapping, name: str,
    scorer: _Reinforced | _Annealed,
) -> float:
    _validate_trajectory(graph, trajectory)
    traj = tuple(trajectory)
    for x in traj[:-1]:
        _at(maps, x, name)
    return log_sum_exp(_enumerate(graph, traj[0], len(traj) - 1, scorer, traj)[traj])


def reinforced_path_logprob(
    graph: Graph,
    laws: Mapping[int, ReinforcementLaw],
    trajectory: Sequence[int],
) -> float:
    """Log probability of a trajectory under the reinforced walk.

    Sums over all move-index sequences consistent with the vertex sequence
    (one sequence unless the graph has parallel moves).
    """
    return _path_logprob(graph, trajectory, laws, "law map", _Reinforced(laws))


def annealed_path_logprob(
    graph: Graph,
    envs: Mapping[int, VertexEnvLaw],
    trajectory: Sequence[int],
) -> float:
    """Log probability of a trajectory under the annealed walk.

    For each consistent move-index sequence the probability is the product
    over vertices of the environment's mixed moment at the accumulated move
    counts; parallel-move ambiguity again sums over index sequences.
    """
    return _path_logprob(graph, trajectory, envs, "environment map", _Annealed(envs))


def enumerate_reinforced(
    graph: Graph,
    laws: Mapping[int, ReinforcementLaw],
    x0: int,
    steps: int,
    max_paths: int = DEFAULT_MAX_PATHS,
) -> PathDistribution:
    """Exact law of the length-T reinforced walk by move-tree traversal."""
    _check_enumeration(graph, laws, "law map", x0, steps, max_paths)
    acc = _enumerate(graph, x0, steps, _Reinforced(laws))
    return PathDistribution(x0, steps, {t: log_sum_exp(lps) for t, lps in acc.items()})


def enumerate_annealed(
    graph: Graph,
    envs: Mapping[int, VertexEnvLaw],
    x0: int,
    steps: int,
    max_paths: int = DEFAULT_MAX_PATHS,
) -> PathDistribution:
    """Exact law of the length-T annealed walk from per-vertex mixed moments."""
    _check_enumeration(graph, envs, "environment map", x0, steps, max_paths)
    acc = _enumerate(graph, x0, steps, _Annealed(envs))
    return PathDistribution(x0, steps, {t: log_sum_exp(lps) for t, lps in acc.items()})


def _check_enumeration(graph: Graph, maps: Mapping, name: str, x0: int, steps: int,
                       max_paths: int) -> None:
    """Check the start, that ``maps`` has every vertex the move tree steps from
    (those reachable in fewer than ``steps`` moves) and the exact number of
    move-index sequences against ``max_paths``."""
    _check_start(graph, x0)
    if steps < 0:
        raise ValueError("steps must be non-negative")
    weights = {x0: 1}
    for _ in range(steps):
        nxt: dict[int, int] = {}
        for x, mult in weights.items():
            _at(maps, x, name)
            for y in graph.neighbors[x]:
                nxt[y] = nxt.get(y, 0) + mult
        weights = nxt
    total = sum(weights.values())
    if total > max_paths:
        raise EnumerationGuardError(
            f"{total} move sequences exceed the enumeration budget of {max_paths}"
        )


def compare_distributions(
    a: PathDistribution, b: PathDistribution
) -> ComparisonReport:
    """Total variation and largest per-path gap between two exact laws."""
    if a.support != b.support:
        raise ValueError("distributions enumerate different trajectory supports")
    pa = a.probabilities
    pb = b.probabilities
    gaps = [abs(pa[t] - pb[t]) for t in pa]
    return ComparisonReport(
        total_variation=0.5 * math.fsum(gaps),
        max_abs_gap=max(gaps) if gaps else 0.0,
    )


def compare_empirical(
    samples: Sequence[Trajectory] | Counter[Trajectory], reference: PathDistribution
) -> ComparisonReport:
    """Goodness of fit of sampled trajectories, or their Counter, against an exact reference.

    Pearson chi-square with all cells of expected count below
    :data:`POOL_EXPECTED` pooled into one, plus the empirical total variation
    over the reference support.  Samples must live on that support.
    """
    observed = samples if isinstance(samples, Counter) else Counter(samples)
    n = sum(observed.values())
    if n < 100:
        raise ValueError(f"need at least 100 samples, got {n}")
    stray = set(observed) - set(reference.log_probs)
    if stray:
        raise ValueError(f"samples contain trajectories outside the reference support: {sorted(stray)[:3]}")
    probs = reference.probabilities
    gaps = []
    kept: list[tuple[float, float]] = []
    pooled_obs = 0.0
    pooled_exp = 0.0
    for t, p in probs.items():
        obs = float(observed.get(t, 0))
        expected = n * p
        gaps.append(abs(obs / n - p))
        if expected < POOL_EXPECTED:
            pooled_obs += obs
            pooled_exp += expected
        else:
            kept.append((obs, expected))
    if pooled_exp > 0:
        kept.append((pooled_obs, pooled_exp))
    statistic = math.fsum((obs - exp) ** 2 / exp for obs, exp in kept)
    dof = max(len(kept) - 1, 0)
    return ComparisonReport(
        total_variation=0.5 * math.fsum(gaps),
        max_abs_gap=max(gaps),
        chi_square=(statistic, dof),
        sample_count=n,
    )


def samples_for_a_cell(reference: PathDistribution) -> int:
    """The fewest samples at which a trajectory of ``reference`` has an expected
    count of :data:`POOL_EXPECTED`, as :func:`compare_empirical` computes it.

    With fewer, every cell is pooled into one and the chi-square test has no
    degrees of freedom.
    """
    p = max(reference.probabilities.values())
    n = math.floor(POOL_EXPECTED / p)
    while n * p < POOL_EXPECTED:
        n += 1
    return n


def recover_env_moments(law: ReinforcementLaw, order: int) -> MomentTable:
    """Mixed-moment table of the unique environment inducing the law.

    This is the constructive side of annealed-determines-quenched: two
    environment laws with the same annealed walk have the same reinforcement
    law, hence identical moment tables at every order.  Raises
    :class:`~urnwalk.errors.NotAdmissibleError` when the law is not closed
    on the ball (see :func:`~urnwalk.moments.build_moment_table`).  A table
    that passes need not come from an environment: its positivity is the
    Hildebrandt-Schoenberg scan that ``verify-moments`` runs on it.
    """
    return build_moment_table(law, order)
