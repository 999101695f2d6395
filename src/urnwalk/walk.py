"""Finite graphs and the three walk processes: reinforced, quenched, annealed.

Graphs are finite directed multigraphs given by ordered neighbor lists;
repeated targets and self-loops are allowed and count as distinct oriented
moves.  The reinforced walk keeps, at every vertex, a count of how often
each oriented move was taken and draws the next move from the vertex's
reinforcement law applied to those counts.  The quenched walk is the Markov
chain in a fixed assignment of transition vectors; the annealed walk draws
a fresh assignment from the per-vertex environment laws and then runs the
quenched walk in it.

All sampling takes an explicit ``numpy.random.Generator``.  Categorical
draws use a single uniform variate and inverse CDF over the ordered
neighbor list, so runs are reproducible bit-for-bit for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .environment import VertexEnvLaw
from .errors import DimensionMismatchError
from .laws import Counts, ReinforcementLaw, SimplexPoint, draw_index

Trajectory = tuple[int, ...]

#: A fixed environment: one transition vector per vertex.
EnvironmentAssignment = Mapping[int, SimplexPoint]


@dataclass(frozen=True)
class Graph:
    """Finite graph with an ordered neighbor list per vertex."""

    neighbors: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.neighbors)
        if n == 0:
            raise ValueError("graph needs at least one vertex")
        for x, targets in enumerate(self.neighbors):
            if len(targets) < 1:
                raise ValueError(f"vertex {x} has no neighbors")
            for y in targets:
                if not (0 <= y < n):
                    raise ValueError(f"vertex {x} lists invalid neighbor {y}")

    @property
    def vertex_count(self) -> int:
        return len(self.neighbors)

    def degree(self, x: int) -> int:
        return len(self.neighbors[x])

    @cached_property
    def _move_indices(self) -> tuple[dict[int, tuple[int, ...]], ...]:
        """Per vertex: target -> ordered-list positions pointing at it."""
        out = []
        for targets in self.neighbors:
            by_target: dict[int, list[int]] = {}
            for i, y in enumerate(targets):
                by_target.setdefault(y, []).append(i)
            out.append({y: tuple(ix) for y, ix in by_target.items()})
        return tuple(out)

    def move_indices(self, x: int, y: int) -> tuple[int, ...]:
        """All ordered-list positions at x whose target is y (may be empty)."""
        return self._move_indices[x].get(y, ())


def segment_graph(length: int) -> Graph:
    """Path of `length` vertices with reflecting ends."""
    if length < 2:
        raise ValueError("segment needs at least 2 vertices")
    rows: list[tuple[int, ...]] = []
    for x in range(length):
        if x == 0:
            rows.append((1,))
        elif x == length - 1:
            rows.append((length - 2,))
        else:
            rows.append((x - 1, x + 1))
    return Graph(tuple(rows))


def star_graph(leaves: int) -> Graph:
    """Center vertex 0 joined to `leaves` degree-one vertices."""
    if leaves < 1:
        raise ValueError("star needs at least 1 leaf")
    rows = [tuple(range(1, leaves + 1))]
    rows.extend((0,) for _ in range(leaves))
    return Graph(tuple(rows))


def cycle_graph(length: int) -> Graph:
    """Cycle of `length` vertices; length 3 is the triangle."""
    if length < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(
        tuple(((x - 1) % length, (x + 1) % length) for x in range(length))
    )


def grid_graph(rows: int, cols: int) -> Graph:
    """Axis-aligned grid with 4-neighborhoods, neighbors sorted by vertex id."""
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise ValueError("grid needs at least 2 vertices")
    out = []
    for r in range(rows):
        for c in range(cols):
            targets = []
            for dr, dc in ((-1, 0), (0, -1), (0, 1), (1, 0)):
                rr, cc = r + dr, c + dc
                if 0 <= rr < rows and 0 <= cc < cols:
                    targets.append(rr * cols + cc)
            out.append(tuple(sorted(targets)))
    return Graph(tuple(out))


@dataclass
class WalkState:
    """Mutable per-trajectory state: position plus per-vertex move counts."""

    vertex: int
    counts: dict[int, list[int]] = field(default_factory=dict)

    def counts_at(self, x: int, degree: int) -> list[int]:
        existing = self.counts.get(x)
        if existing is None:
            existing = [0] * degree
            self.counts[x] = existing
        return existing


def make_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent generator for (seed, stream); disjoint across stream ids."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


def spawn_streams(seed: int, count: int) -> list[np.random.Generator]:
    """One disjoint generator per trajectory index, derived from one seed."""
    return [make_stream(seed, i) for i in range(count)]


def step_reinforced(
    graph: Graph,
    laws: Mapping[int, ReinforcementLaw],
    state: WalkState,
    rng: np.random.Generator,
) -> int:
    """Draw one reinforced move; updates counts and position, returns the move index."""
    x = state.vertex
    law = laws[x]
    if law.dimension != graph.degree(x):
        raise DimensionMismatchError(
            f"law at vertex {x} has dimension {law.dimension}, degree is {graph.degree(x)}"
        )
    counts = state.counts_at(x, graph.degree(x))
    point = law.weights(tuple(counts))
    move = draw_index(point.weights, rng)
    counts[move] += 1
    state.vertex = graph.neighbors[x][move]
    return move


def run_reinforced(
    graph: Graph,
    laws: Mapping[int, ReinforcementLaw],
    x0: int,
    steps: int,
    rng: np.random.Generator,
) -> Trajectory:
    """Sample a reinforced trajectory of `steps` moves starting at x0."""
    _check_start(graph, x0)
    state = WalkState(vertex=x0)
    path = [x0]
    for _ in range(steps):
        step_reinforced(graph, laws, state, rng)
        path.append(state.vertex)
    return tuple(path)


def step_quenched(
    assignment: EnvironmentAssignment, x: int, rng: np.random.Generator
) -> int:
    """Draw one move index from the fixed transition vector at x."""
    try:
        point = assignment[x]
    except KeyError:
        raise DimensionMismatchError(f"environment assignment misses vertex {x}") from None
    return draw_index(point.weights, rng)


def run_quenched(
    graph: Graph,
    assignment: EnvironmentAssignment,
    x0: int,
    steps: int,
    rng: np.random.Generator,
) -> Trajectory:
    """Markov chain in a fixed environment, `steps` moves from x0."""
    _check_start(graph, x0)
    _check_assignment(graph, assignment)
    path = [x0]
    x = x0
    for _ in range(steps):
        move = step_quenched(assignment, x, rng)
        x = graph.neighbors[x][move]
        path.append(x)
    return tuple(path)


def sample_environment(
    graph: Graph,
    envs: Mapping[int, VertexEnvLaw],
    rng: np.random.Generator,
) -> dict[int, SimplexPoint]:
    """Draw one transition vector per vertex, independently across vertices."""
    assignment = {}
    for x in range(graph.vertex_count):
        env = envs[x]
        if env.dimension != graph.degree(x):
            raise DimensionMismatchError(
                f"environment at vertex {x} has dimension {env.dimension}, "
                f"degree is {graph.degree(x)}"
            )
        assignment[x] = env.sample(rng)
    return assignment


def run_annealed(
    graph: Graph,
    envs: Mapping[int, VertexEnvLaw],
    x0: int,
    steps: int,
    rng: np.random.Generator,
    return_environment: bool = False,
) -> Trajectory | tuple[Trajectory, dict[int, SimplexPoint]]:
    """Draw a fresh environment, then run the quenched walk inside it."""
    _check_start(graph, x0)
    assignment = sample_environment(graph, envs, rng)
    trajectory = run_quenched(graph, assignment, x0, steps, rng)
    if return_environment:
        return trajectory, assignment
    return trajectory


def transition_counts(graph: Graph, trajectory: Sequence[int]) -> dict[int, Counts]:
    """Reconstruct per-vertex move counts from a trajectory.

    Requires every step to resolve to a unique ordered-list position; on
    multigraphs with repeated targets the reconstruction is ambiguous and
    a ValueError is raised.
    """
    counts: dict[int, list[int]] = {}
    for x, y in zip(trajectory, trajectory[1:]):
        indices = graph.move_indices(x, y)
        if not indices:
            raise ValueError(f"trajectory step {x}->{y} is not a graph edge")
        if len(indices) > 1:
            raise ValueError(
                f"trajectory step {x}->{y} is ambiguous: {len(indices)} parallel moves"
            )
        at_x = counts.setdefault(x, [0] * graph.degree(x))
        at_x[indices[0]] += 1
    return {x: tuple(c) for x, c in counts.items()}


def _check_start(graph: Graph, x0: int) -> None:
    if not (0 <= x0 < graph.vertex_count):
        raise ValueError(f"start vertex {x0} not in graph")


def _check_assignment(graph: Graph, assignment: EnvironmentAssignment) -> None:
    for x in range(graph.vertex_count):
        try:
            point = assignment[x]
        except KeyError:
            raise DimensionMismatchError(
                f"environment assignment misses vertex {x}"
            ) from None
        if point.dim != graph.degree(x):
            raise DimensionMismatchError(
                f"assignment at vertex {x} has dimension {point.dim}, "
                f"degree is {graph.degree(x)}"
            )
