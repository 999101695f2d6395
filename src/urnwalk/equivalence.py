"""Exact and statistical comparison of reinforced and annealed walk laws.

The reinforced probability of a trajectory is the product of reinforcement
weights with counts updated along the way.  The annealed probability is the
product over vertices of the environment's mixed moment at that vertex's
final move counts (environments are independent across vertices, so the
average factorizes).  Both are computed here from first principles, the
full distribution over length-T trajectories is enumerated exactly on desk
scale graphs, and sampled trajectories can be tested against an exact
reference with total variation and a pooled chi-square statistic.

Trajectories are vertex sequences; on multigraphs a step may be realized by
several parallel moves, in which case the probability sums over all
consistent move-index sequences.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

from .errors import EnumerationGuardError
from .laws import Counts, ReinforcementLaw, log_sum_exp
from .environment import VertexEnvLaw
from .moments import MomentTable, build_moment_table
from .walk import Graph, Trajectory

DEFAULT_MAX_PATHS = 10**6

#: Enumerated probabilities must sum to 1 within this tolerance.
SUM_TOLERANCE = 1e-10


@dataclass(frozen=True)
class PathDistribution:
    """Exact law of the first T moves: every trajectory with its log probability."""

    x0: int
    steps: int
    log_probs: Mapping[Trajectory, float]

    def __post_init__(self) -> None:
        total = math.fsum(math.exp(lp) for lp in self.log_probs.values())
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise ValueError(f"path probabilities sum to {total!r}, not 1")

    @cached_property
    def probabilities(self) -> dict[Trajectory, float]:
        return {t: math.exp(lp) for t, lp in self.log_probs.items()}

    @property
    def support(self) -> frozenset[Trajectory]:
        return frozenset(self.log_probs)

    def to_rows(self) -> list[tuple[str, float]]:
        """(dash-joined vertex ids, probability) rows in sorted order."""
        return [
            ("-".join(str(v) for v in t), self.probabilities[t])
            for t in sorted(self.log_probs)
        ]


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


def reinforced_path_logprob(
    graph: Graph,
    laws: Mapping[int, ReinforcementLaw],
    trajectory: Sequence[int],
) -> float:
    """Log probability of a trajectory under the reinforced walk.

    Sums over all move-index sequences consistent with the vertex sequence
    (one sequence unless the graph has parallel moves).
    """
    _validate_trajectory(graph, trajectory)
    traj = tuple(trajectory)
    if len(traj) == 1:
        return 0.0
    counts: dict[int, list[int]] = {}
    complete: list[float] = []

    def descend(t: int, logp: float) -> None:
        if t == len(traj) - 1:
            complete.append(logp)
            return
        x, y = traj[t], traj[t + 1]
        at_x = counts.setdefault(x, [0] * graph.degree(x))
        log_w = laws[x].log_weights(tuple(at_x))
        for i in graph.move_indices(x, y):
            at_x[i] += 1
            descend(t + 1, logp + float(log_w[i]))
            at_x[i] -= 1

    descend(0, 0.0)
    return log_sum_exp(complete)


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
    _validate_trajectory(graph, trajectory)
    traj = tuple(trajectory)
    if len(traj) == 1:
        return 0.0
    counts: dict[int, list[int]] = {}
    complete: list[float] = []
    memo: dict[tuple[int, Counts], float] = {}

    def moment(x: int, c: Counts) -> float:
        key = (x, c)
        if key not in memo:
            memo[key] = envs[x].log_mixed_moment(c)
        return memo[key]

    def descend(t: int) -> None:
        if t == len(traj) - 1:
            complete.append(
                math.fsum(moment(x, tuple(c)) for x, c in counts.items())
            )
            return
        x, y = traj[t], traj[t + 1]
        at_x = counts.setdefault(x, [0] * graph.degree(x))
        for i in graph.move_indices(x, y):
            at_x[i] += 1
            descend(t + 1)
            at_x[i] -= 1

    descend(0)
    return log_sum_exp(complete)


def _count_index_paths(graph: Graph, x0: int, steps: int) -> int:
    """Exact number of move-index sequences of the given length from x0."""
    weights = {x0: 1}
    total = 0
    for _ in range(steps):
        nxt: dict[int, int] = {}
        for x, mult in weights.items():
            for y in graph.neighbors[x]:
                nxt[y] = nxt.get(y, 0) + mult
        weights = nxt
    total = sum(weights.values())
    return total


def enumerate_reinforced(
    graph: Graph,
    laws: Mapping[int, ReinforcementLaw],
    x0: int,
    steps: int,
    max_paths: int = DEFAULT_MAX_PATHS,
) -> PathDistribution:
    """Exact law of the length-T reinforced walk by move-tree traversal."""
    _check_enumeration(graph, x0, steps, max_paths)
    acc: dict[Trajectory, list[float]] = {}
    counts: dict[int, list[int]] = {}
    path = [x0]

    def descend(depth: int, logp: float) -> None:
        if depth == steps:
            acc.setdefault(tuple(path), []).append(logp)
            return
        x = path[-1]
        at_x = counts.setdefault(x, [0] * graph.degree(x))
        log_w = laws[x].log_weights(tuple(at_x))
        for i, y in enumerate(graph.neighbors[x]):
            at_x[i] += 1
            path.append(y)
            descend(depth + 1, logp + float(log_w[i]))
            path.pop()
            at_x[i] -= 1

    descend(0, 0.0)
    return PathDistribution(
        x0, steps, {t: log_sum_exp(lps) for t, lps in acc.items()}
    )


def enumerate_annealed(
    graph: Graph,
    envs: Mapping[int, VertexEnvLaw],
    x0: int,
    steps: int,
    max_paths: int = DEFAULT_MAX_PATHS,
) -> PathDistribution:
    """Exact law of the length-T annealed walk from per-vertex mixed moments."""
    _check_enumeration(graph, x0, steps, max_paths)
    acc: dict[Trajectory, list[float]] = {}
    counts: dict[int, list[int]] = {}
    path = [x0]
    memo: dict[tuple[int, Counts], float] = {}

    def moment(x: int, c: Counts) -> float:
        key = (x, c)
        if key not in memo:
            memo[key] = envs[x].log_mixed_moment(c)
        return memo[key]

    def descend(depth: int) -> None:
        if depth == steps:
            # counts is shared across branches: skip vertices only other paths left
            logp = math.fsum(moment(x, tuple(c)) for x, c in counts.items() if any(c))
            acc.setdefault(tuple(path), []).append(logp)
            return
        x = path[-1]
        at_x = counts.setdefault(x, [0] * graph.degree(x))
        for i, y in enumerate(graph.neighbors[x]):
            at_x[i] += 1
            path.append(y)
            descend(depth + 1)
            path.pop()
            at_x[i] -= 1

    descend(0)
    return PathDistribution(
        x0, steps, {t: log_sum_exp(lps) for t, lps in acc.items()}
    )


def _check_enumeration(graph: Graph, x0: int, steps: int, max_paths: int) -> None:
    if not (0 <= x0 < graph.vertex_count):
        raise ValueError(f"start vertex {x0} not in graph")
    if steps < 0:
        raise ValueError("steps must be non-negative")
    total = _count_index_paths(graph, x0, steps)
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
    samples: Sequence[Trajectory],
    reference: PathDistribution,
    pool_threshold: float = 5.0,
) -> ComparisonReport:
    """Goodness of fit of sampled trajectories against an exact reference.

    Pearson chi-square with all cells of expected count below
    ``pool_threshold`` pooled into one, plus the empirical total variation
    over the reference support.  Samples must live on that support.
    """
    n = len(samples)
    if n < 100:
        raise ValueError(f"need at least 100 samples, got {n}")
    observed = Counter(samples)
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
        if expected < pool_threshold:
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


def recover_env_moments(law: ReinforcementLaw, order: int) -> MomentTable:
    """Mixed-moment table of the unique environment inducing the law.

    This is the constructive side of annealed-determines-quenched: two
    environment laws with the same annealed walk have the same reinforcement
    law, hence identical moment tables at every order.  Raises
    :class:`~urnwalk.errors.NotAdmissibleError` when no environment exists.
    """
    return build_moment_table(law, order)
