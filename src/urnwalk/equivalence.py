"""Exact and statistical comparison of reinforced and annealed walk laws.

Both exact laws are scores on one move tree, walked depth first in one pass
over per-vertex move counts shared by all branches.  Environments are
independent across vertices, so a move sequence has annealed log probability
``sum_x log m_x(c_x)`` at its final counts, and the induced law steps by
``m_x(c + e_i) / m_x(c)``.  At each distinct (vertex, counts) node the pass
reads one row, once per call and as a function of the vertex and its counts
alone (so a state DP over them can reuse it): the law's log weights and the
environment's child log moments ``log m_x(c + e_i)``, from the memo that an
induced ``EnvMomentLaw`` reads too.  It carries the reinforced log sum and
the log moment of each vertex left so far; a leaf records the sum and the
``math.fsum`` of the moments.  The moves realizing one vertex sequence,
summed over parallel moves on multigraphs, give that trajectory's
probability.  Sampled trajectories are tested against an exact reference by
total variation and a pooled chi-square statistic.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .admissibility import DEFAULT_TOLERANCE
from .errors import EnumerationGuardError
from .laws import Counts, ReinforcementLaw, log_sum_exp
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
    probabilities: dict[Trajectory, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        probabilities = {t: math.exp(lp) for t, lp in self.log_probs.items()}
        total = math.fsum(probabilities.values())
        if not abs(total - 1.0) <= SUM_TOLERANCE:
            raise ValueError(f"path probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "probabilities", probabilities)


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


def _enumerate(
    graph: Graph, x0: int, steps: int, laws: Mapping[int, ReinforcementLaw] | None,
    envs: Mapping[int, VertexEnvLaw] | None,
) -> tuple[dict[Trajectory, list[float]], dict[Trajectory, list[float]]]:
    """Reinforced and annealed log probabilities of all move-index sequences of
    length ``steps`` from x0, per trajectory in traversal order; a law whose map
    is None reads nothing and scores 0."""
    reinforced: dict[Trajectory, list[float]] = {}
    annealed: dict[Trajectory, list[float]] = {}
    rows: dict[tuple[int, Counts], tuple[list[float], list[float]]] = {}
    counts: dict[int, list[int]] = {}
    moments: dict[int, float] = {}  # log moment of each vertex left, at its counts
    path = [x0]

    def descend(depth: int, logp: float) -> None:
        if depth == steps:
            t = tuple(path)
            reinforced.setdefault(t, []).append(logp)
            annealed.setdefault(t, []).append(math.fsum(moments.values()))
            return
        x = path[-1]
        at_x = counts.setdefault(x, [0] * graph.degree(x))
        c = tuple(at_x)
        row = rows.get((x, c))
        if row is None:
            child = [0.0] * len(c) if envs is None else [
                envs[x]._memo_log_moment(c[:i] + (c[i] + 1,) + c[i + 1 :]) for i in range(len(c))]
            log_w = [0.0] * len(c) if laws is None else np.asarray(
                laws[x].log_weights(c), dtype=float).tolist()
            row = rows[x, c] = (log_w, child)
        log_w, child = row
        before = moments.get(x)
        targets = graph.neighbors[x]
        for i in range(len(targets)):
            at_x[i] += 1
            path.append(targets[i])
            moments[x] = child[i]
            descend(depth + 1, logp + log_w[i])
            path.pop()
            at_x[i] -= 1
        if before is None:
            moments.pop(x, None)
        else:
            moments[x] = before

    descend(0, 0.0)
    return reinforced, annealed


def _distribution(x0: int, steps: int, acc: Mapping[Trajectory, list[float]]) -> PathDistribution:
    # log_sum_exp's own value for one finite log probability v, 0.0 + v, without the call
    return PathDistribution(x0, steps, {t: 0.0 + lps[0] if len(lps) == 1 and math.isfinite(lps[0])
                                        else log_sum_exp(lps) for t, lps in acc.items()})


def enumerate_both(
    graph: Graph,
    laws: Mapping[int, ReinforcementLaw],
    envs: Mapping[int, VertexEnvLaw],
    x0: int,
    steps: int,
    max_paths: int = DEFAULT_MAX_PATHS,
) -> tuple[PathDistribution, PathDistribution]:
    """Exact laws of the length-T reinforced and annealed walks from one traversal."""
    _check_enumeration(graph, ((envs, "environment map"), (laws, "law map")), x0, steps, max_paths)
    return tuple(_distribution(x0, steps, acc) for acc in _enumerate(graph, x0, steps, laws, envs))


def enumerate_reinforced(
    graph: Graph,
    laws: Mapping[int, ReinforcementLaw],
    x0: int,
    steps: int,
    max_paths: int = DEFAULT_MAX_PATHS,
) -> PathDistribution:
    """Exact law of the length-T reinforced walk by move-tree traversal."""
    _check_enumeration(graph, ((laws, "law map"),), x0, steps, max_paths)
    return _distribution(x0, steps, _enumerate(graph, x0, steps, laws, None)[0])


def enumerate_annealed(
    graph: Graph,
    envs: Mapping[int, VertexEnvLaw],
    x0: int,
    steps: int,
    max_paths: int = DEFAULT_MAX_PATHS,
) -> PathDistribution:
    """Exact law of the length-T annealed walk from per-vertex mixed moments."""
    _check_enumeration(graph, ((envs, "environment map"),), x0, steps, max_paths)
    return _distribution(x0, steps, _enumerate(graph, x0, steps, None, envs)[1])


def _check_enumeration(graph: Graph, maps: Sequence[tuple[Mapping, str]], x0: int, steps: int,
                       max_paths: int) -> None:
    """Check the start, that each named map of ``maps``, in turn at each vertex, has
    every vertex the move tree steps from (those reachable in fewer than ``steps``
    moves), and the exact number of move-index sequences against ``max_paths``."""
    _check_start(graph, x0)
    if steps < 0:
        raise ValueError("steps must be non-negative")
    weights = {x0: 1}
    for _ in range(steps):
        nxt: dict[int, int] = {}
        for x, mult in weights.items():
            for m, name in maps:
                _at(m, x, name)
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
    if a.log_probs.keys() != b.log_probs.keys():
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


def recover_env_moments(law: ReinforcementLaw, order: int,
                        tolerance: float = DEFAULT_TOLERANCE) -> MomentTable:
    """Mixed-moment table of the unique environment inducing the law.

    This is the constructive side of annealed-determines-quenched: two
    environment laws with the same annealed walk have the same reinforcement
    law, hence identical moment tables at every order.  Raises
    :class:`~urnwalk.errors.NotAdmissibleError` when an edge of the ball
    misses the table by more than ``tolerance`` (see
    :func:`~urnwalk.moments.build_moment_table`).  A table that passes need
    not come from an environment: ``verify-moments`` checks its simplex
    identity, which implies Hildebrandt-Schoenberg positivity, and its masses.
    """
    return build_moment_table(law, order, tolerance)
