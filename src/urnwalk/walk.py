"""Finite graphs and the three walk processes: reinforced, quenched, annealed.

Graphs are finite directed multigraphs given by ordered neighbor lists;
repeated targets and self-loops are allowed and count as distinct oriented
moves.  The reinforced walk keeps, at every vertex, a count of how often
each oriented move was taken and draws the next move from the vertex's
reinforcement law applied to those counts.  The quenched walk is the Markov
chain in a fixed assignment of transition vectors; the annealed walk draws
a fresh assignment from the per-vertex environment laws and then runs the
quenched walk in it.

All sampling takes an explicit ``numpy.random.Generator``.  Trajectory
``i`` of a run with seed ``s`` draws from the stream :func:`make_stream`
gives for ``(s, i)``: numpy's counter-based Philox4x64-10 keyed by ``s``,
whose counter ``(j, 0, i, 0)`` gives the stream's ``j``-th block of four
64-bit words (Salmon et al. 2011, "Parallel random numbers: as easy as 1,
2, 3"); :data:`STREAM_LAYOUT` names that layout in the outputs.  Many
trajectories get their streams from :func:`stream_generators`, which points
one shared generator at each stream's counter instead of building a
generator per trajectory.  Each step uses one uniform variate and inverse
CDF over the ordered neighbor list.  The runs draw their step uniforms from
the trajectory's stream in blocks of :data:`UNIFORM_BLOCK`; a block holds
the same numbers as that many one-at-a-time draws, so runs are reproducible
bit-for-bit for a fixed seed.  A reinforced step asks the vertex's law for
its weights at the current counts; the laws memoise those per count vector
(see :class:`urnwalk.laws.ReinforcementLaw`), so trajectories that revisit
a count vector evaluate it once.

A trajectory's draws all precede its first step: the annealed walk's
environment, then exactly ``steps`` uniforms, and no draw depends on where
the walk goes.  The lock-step runners :func:`run_many_reinforced`,
:func:`run_many_quenched` and :func:`run_many_annealed` use that.  For a
block of trajectories they take each trajectory's draws from its own
stream, in that order, and then advance the whole block one step at a time
with array operations.  The move is the count of the weight row's
cumulative sums (``np.cumsum``, added left to right as :func:`draw_index`
adds) that are at most ``u``, clipped at the last move, which is
:func:`draw_index`'s rule; so they give the per-stream trajectories bit for
bit.  A reinforced block groups its trajectories by vertex at each step and
asks each vertex's law for the weight rows at the group's counts
(:meth:`urnwalk.laws.ReinforcementLaw._simplex_rows`).  An annealed block
takes its weight rows from the environments' ``_draw``, which builds no
point, and checks them on the simplex once per vertex.  The per-stream
``run_*`` and ``step_*`` stay the single-trajectory API and the oracle.

A lock-step step makes a fixed number of numpy calls, per block and, in a
reinforced walk, per vertex group, however few trajectories they hold; a
per-stream step is a few Python operations.  So lock step pays only for
many trajectories at once, and :func:`lockstep_pays` chooses the runner
from what a run shows before it starts: the trajectories a block holds,
the vertices a walk can reach, the size of the graph's tables and how
the laws evaluate their weight rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from typing import Iterator, Mapping

import numpy as np

from .environment import VertexEnvLaw
from .errors import DimensionMismatchError
from .laws import ReinforcementLaw, SimplexPoint, check_simplex_rows, draw_index

Trajectory = tuple[int, ...]

#: Step uniforms drawn from the generator at once: few calls, bounded memory.
UNIFORM_BLOCK = 4096

#: The streams of :func:`make_stream`, as the outputs record them.
STREAM_LAYOUT = "philox4x64-10 key=seed counter=(block, 0, stream, 0)"

#: A frozen environment's stream: counter word 3 is 1, apart from every trajectory's.
ENVIRONMENT_STREAM = 1 << 64

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
    """Mutable per-trajectory state: position plus per-vertex move counts.

    Counts given at construction are validated when the walk first steps
    from their vertex; counts the walk creates start at zero.
    """

    vertex: int
    counts: dict[int, list[int]] = field(default_factory=dict)
    #: vertices whose law and counts have been checked against the graph
    entered: set[int] = field(default_factory=set, init=False, repr=False, compare=False)


def make_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Stream ``stream`` of ``seed``: Philox keyed by the seed at counter ``(0, 0, stream, 0)``.

    Both below ``2**128``.  Counter words 0 and 1 count a stream's blocks, so
    streams never overlap.
    """
    return np.random.Generator(np.random.Philox(key=seed, counter=stream << 128))


def stream_generators(seed: int, count: int) -> Iterator[np.random.Generator]:
    """The streams ``make_stream(seed, i)`` for ``i`` in ``range(count)``, in order.

    Yields one shared generator, set each time to stream ``i``'s counter with
    its buffered words and cached half-word emptied, so draws from it are bit
    for bit the draws of that stream; use each before taking the next.
    """
    rng = make_stream(seed)
    state = rng.bit_generator.state
    counter = state["state"]["counter"]
    for i in range(count):
        counter[2] = i
        rng.bit_generator.state = state
        yield rng


def _uniforms(rng: np.random.Generator, count: int) -> Iterator[float]:
    """``count`` uniforms from ``rng``, the same as ``count`` calls of ``rng.random()``."""
    for start in range(0, count, UNIFORM_BLOCK):
        yield from rng.random(min(UNIFORM_BLOCK, count - start)).tolist()


def _enter(
    graph: Graph, laws: Mapping[int, ReinforcementLaw], state: WalkState, x: int
) -> None:
    """Check the law at x against its degree and set up the counts at x."""
    law = _at(laws, x, "law map")
    _check_degree(graph, x, law.dimension, "law")
    given = state.counts.get(x)
    if given is None:
        state.counts[x] = [0] * graph.degree(x)
    else:
        given[:] = law._check_counts(given)
    state.entered.add(x)


def step_reinforced(
    graph: Graph,
    laws: Mapping[int, ReinforcementLaw],
    state: WalkState,
    u: float,
) -> int:
    """Take one reinforced move with uniform ``u``; updates counts and position.

    Returns the move index.
    """
    x = state.vertex
    if x not in state.entered:
        _enter(graph, laws, state, x)
    counts = state.counts[x]
    move = draw_index(laws[x]._simplex(tuple(counts)), u)
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
    for u in _uniforms(rng, steps):
        step_reinforced(graph, laws, state, u)
        path.append(state.vertex)
    return tuple(path)


def step_quenched(assignment: EnvironmentAssignment, x: int, u: float) -> int:
    """Draw one move index at x from its fixed transition vector with uniform ``u``."""
    return draw_index(_at(assignment, x, "environment assignment").weights, u)


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
    for u in _uniforms(rng, steps):
        move = step_quenched(assignment, x, u)
        x = graph.neighbors[x][move]
        path.append(x)
    return tuple(path)


def sample_environment(
    graph: Graph,
    envs: Mapping[int, VertexEnvLaw],
    rng: np.random.Generator,
) -> dict[int, SimplexPoint]:
    """Draw one transition vector per vertex, independently across vertices."""
    return {x: env.sample(rng) for x, env in enumerate(_checked_envs(graph, envs))}


def _checked_envs(graph: Graph, envs: Mapping[int, VertexEnvLaw]) -> list[VertexEnvLaw]:
    """The environment of each vertex in order, checked against its degree."""
    out = []
    for x in range(graph.vertex_count):
        out.append(_at(envs, x, "environment map"))
        _check_degree(graph, x, out[-1].dimension, "environment")
    return out


def run_annealed(
    graph: Graph,
    envs: Mapping[int, VertexEnvLaw],
    x0: int,
    steps: int,
    rng: np.random.Generator,
) -> Trajectory:
    """Draw a fresh environment, then run the quenched walk inside it."""
    _check_start(graph, x0)
    assignment = sample_environment(graph, envs, rng)
    return run_quenched(graph, assignment, x0, steps, rng)


# --- lock-step runners ------------------------------------------------------------


def lockstep_moves(cumulative: np.ndarray, u: np.ndarray, last: np.ndarray | int) -> np.ndarray:
    """:func:`draw_index` of each row, from the row's cumulative weights.

    ``cumulative`` is ``[N, d]``, the running sums of the weights added left
    to right; row ``r`` moves to the count of its sums that are at most
    ``u[r]``, clipped at ``last`` (``d - 1``, or per row).  The sums do not
    decrease, so that count is the first index whose sum exceeds ``u``.
    Entries past a row's last move must be ``inf``.
    """
    return np.minimum(np.count_nonzero(cumulative <= u[:, None], axis=1), last)


class _Layout:
    """A graph's moves as arrays: neighbor table padded to the largest degree, and offsets.

    The padded tables hold ``vertices * width`` elements; :func:`lockstep_pays`
    keeps graphs where that exceeds :data:`LOCKSTEP_ELEMENTS` out of lock step.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        self.degrees = [len(targets) for targets in graph.neighbors]
        self.vertices = len(self.degrees)
        self.width = max(self.degrees)
        self.moves = sum(self.degrees)

    @cached_property
    def last(self) -> np.ndarray:
        return np.array(self.degrees, dtype=np.int64) - 1

    @cached_property
    def offsets(self) -> list[int]:
        return np.cumsum([0] + self.degrees[:-1]).tolist()

    @cached_property
    def neighbors(self) -> np.ndarray:
        out = np.zeros((self.vertices, self.width), dtype=np.int64)
        for x, targets in enumerate(self.graph.neighbors):
            out[x, : len(targets)] = targets
        return out

    @cached_property
    def columns(self) -> np.ndarray:
        """The column of move j at vertex x in a ``[vertices * width]`` row."""
        return np.array(
            [x * self.width + j for x, d in enumerate(self.degrees) for j in range(d)],
            dtype=np.int64,
        )

    def cumulative(self, weights: np.ndarray) -> np.ndarray:
        """``[N, moves]`` weights, vertex after vertex, as ``[N * vertices, width]`` running sums.

        Row ``n * vertices + x`` holds vertex x's sums for trajectory n, then ``inf``.
        """
        out = np.full((len(weights), self.vertices * self.width), np.inf)
        out[:, self.columns] = weights
        out = out.reshape(-1, self.width)
        return np.cumsum(out, axis=1, out=out)

    def block_size(self, mode: str, steps: int, count: int) -> int:
        """Trajectories per lock-step block of a ``mode`` run, at least one.

        A block holds ``steps + 1`` positions and ``steps`` uniforms per
        trajectory, and its move counts (reinforced) or environment sums
        (annealed); each of those tables stays within :data:`LOCKSTEP_ELEMENTS`.
        """
        table = {"reinforced": self.moves, "annealed": self.vertices * self.width}.get(mode, 0)
        return min(count, max(1, LOCKSTEP_ELEMENTS // max(steps + 1, table)))


#: Most array elements one lock-step table holds: a block's trajectories
#: times ``steps + 1`` (uniforms, positions), or times the graph's moves
#: (counts, environments), or the graph's padded neighbor table.
LOCKSTEP_ELEMENTS = 1 << 16

#: Fewest trajectories a lock-step block holds for lock step to pay.  A
#: lock-step step makes a fixed number of numpy calls however few
#: trajectories the block holds, where a per-stream step is a few Python
#: operations.  On 20- and 200-vertex cycles (2 cores, numpy 2.4.6) a
#: quenched or annealed block of 32 trajectories ran up to 1.7x slower than
#: per stream, one of 64 about 2x faster, and a single 10^5-step
#: trajectory 20-35x slower.
LOCKSTEP_MIN_BLOCK = 64

#: Fewest trajectories per vertex within reach that a reinforced block holds
#: for lock step to pay: it makes its numpy calls once per vertex group at
#: each step.  Laws whose weight rows are ``"distinct"`` need more (see
#: :func:`lockstep_pays`).  Measured on the same host, uniform, Dirichlet and induced
#: laws on cycles of 5, 20 and 60 vertices and the 4x4 grid broke even at
#: 15 to about 60 trajectories per vertex, uniform laws on 100-step walks
#: the latest.
LOCKSTEP_PER_VERTEX = 50


def lockstep_pays(
    mode: str, graph: Graph, maps: Mapping, x0: int, steps: int, count: int
) -> bool:
    """Whether the lock-step runner of ``mode`` beats per-stream runs of ``count`` trajectories.

    ``mode`` is ``"reinforced"``, ``"quenched"`` or ``"annealed"``, and
    ``maps`` the laws, assignment or environments of that run.  Lock step
    needs the graph's padded tables within :data:`LOCKSTEP_ELEMENTS` and a
    block of at least :data:`LOCKSTEP_MIN_BLOCK` trajectories.  A reinforced
    block needs :data:`LOCKSTEP_PER_VERTEX` trajectories per vertex a walk
    can reach within ``steps`` moves.  A law whose weight rows are
    ``"distinct"`` (:attr:`~urnwalk.laws.ReinforcementLaw.weight_rows`)
    evaluates them one distinct row at a time and gains only where rows
    repeat, so with one the block also needs as many trajectories per vertex
    as there are count vectors a vertex can reach, those of sum at most
    ``steps`` in the largest degree: an induced law on the 5-cycle ran 1.25x
    slower in lock step at 400 and 800 trajectories of 100 steps, and 2.5x
    faster on the 3-star at 4,000 of 5.  Polynomial and tabulated laws, the
    same trajectories, best of 7 in one process (2 cores, Python 3.11.7,
    numpy 2.4.6)::

        laws, graph                         trajectories x steps  per stream  lock step
        polynomial, 3-star                  4,000 x 5             74.2 ms     22.1 ms
        polynomial, 5-segment               4,000 x 5             47.0 ms     22.9 ms
        tabulated (clamp, box 3), 4-cycle   4,000 x 5             65.2 ms     22.2 ms
        polynomial, 4-cycle (at the edge)   200 x 3               2.3 ms      2.0 ms

    A map that misses a vertex, which only a library call can build, runs
    per stream.  Both runners give the same trajectories; this chooses only
    the faster.
    """
    _check_start(graph, x0)
    layout = _Layout(graph)
    if layout.vertices * layout.width > LOCKSTEP_ELEMENTS:
        return False
    block = layout.block_size(mode, steps, count)
    if block < LOCKSTEP_MIN_BLOCK:
        return False
    if mode == "reinforced":
        laws = [maps.get(x) for x in range(layout.vertices)]
        if None in laws:
            return False
        need = LOCKSTEP_PER_VERTEX
        if any(law.weight_rows == "distinct" for law in laws):
            need = max(need, math.comb(steps + layout.width, layout.width))
        return block >= need * _reach(graph, x0, steps)
    return True


def _reach(graph: Graph, x0: int, steps: int) -> int:
    """The number of vertices a walk from ``x0`` can visit within ``steps`` moves."""
    seen = {x0}
    frontier = [x0]
    for _ in range(min(steps, graph.vertex_count)):
        following = []
        for x in frontier:
            for y in graph.neighbors[x]:
                if y not in seen:
                    seen.add(y)
                    following.append(y)
        if not following:
            break
        frontier = following
    return len(seen)


def _blocks(
    seed: int, count: int, steps: int, size: int
) -> Iterator[tuple[np.ndarray, Iterator[np.random.Generator]]]:
    """The streams ``(seed, i)``, ``i < count``, in blocks of ``size``, each with an empty ``[n, steps]`` table.

    The caller takes each stream's draws in the per-stream order: whatever
    comes before the walk, then the stream's row of step uniforms.
    """
    streams = stream_generators(seed, count)
    for start in range(0, count, size):
        n = min(size, count - start)
        yield np.empty((n, steps)), islice(streams, n)


def _paths(x0: int, n: int, steps: int) -> np.ndarray:
    paths = np.empty((n, steps + 1), dtype=np.int64)
    paths[:, 0] = x0
    return paths


def _advance_fixed(
    layout: _Layout, cumulative: np.ndarray, base: np.ndarray | int, x0: int, uniforms: np.ndarray
) -> np.ndarray:
    """Positions of a block walking in fixed environments: row ``base + x`` holds vertex x's sums."""
    n, steps = uniforms.shape
    paths = _paths(x0, n, steps)
    position = paths[:, 0].copy()
    for t in range(steps):
        move = lockstep_moves(cumulative[base + position], uniforms[:, t], layout.last[position])
        position = layout.neighbors[position, move]
        paths[:, t + 1] = position
    return paths


def _advance_reinforced(
    graph: Graph,
    laws: Mapping[int, ReinforcementLaw],
    layout: _Layout,
    x0: int,
    uniforms: np.ndarray,
) -> np.ndarray:
    """Positions of a block of reinforced walks, grouped by vertex at each step."""
    n, steps = uniforms.shape
    paths = _paths(x0, n, steps)
    position = paths[:, 0].copy()
    counts = np.zeros((n, layout.moves), dtype=np.int64)
    checked: dict[int, ReinforcementLaw] = {}
    for t in range(steps):
        u = uniforms[:, t]
        order = np.argsort(position, kind="stable")
        ranked = position[order]
        edges = [0, *(np.flatnonzero(ranked[1:] != ranked[:-1]) + 1).tolist(), n]
        following = np.empty_like(position)
        for start, stop in zip(edges, edges[1:]):
            group = order[start:stop]
            x = int(ranked[start])
            law = checked.get(x)
            if law is None:
                law = checked[x] = _at(laws, x, "law map")
                _check_degree(graph, x, law.dimension, "law")
            lo = layout.offsets[x]
            last = int(layout.last[x])
            weights = law._simplex_rows(counts[group, lo : lo + last + 1])
            move = lockstep_moves(np.cumsum(weights, axis=1), u[group], last)
            counts[group, lo + move] += 1
            following[group] = layout.neighbors[x, move]
        position = following
        paths[:, t + 1] = position
    return paths


def run_many_reinforced(
    graph: Graph,
    laws: Mapping[int, ReinforcementLaw],
    x0: int,
    steps: int,
    seed: int,
    count: int,
) -> Iterator[Trajectory]:
    """``run_reinforced`` on the streams ``(seed, i)`` for ``i < count``, in lock step.

    The same trajectories, bit for bit, and the same errors, though a law
    that cannot be evaluated at some counts (off the simplex, or outside
    a table's box) may be reported at another trajectory or step.
    """
    _check_start(graph, x0)
    layout = _Layout(graph)
    size = layout.block_size("reinforced", steps, count)
    for uniforms, streams in _blocks(seed, count, steps, size):
        for row, rng in zip(uniforms, streams):
            rng.random(out=row)
        yield from map(tuple, _advance_reinforced(graph, laws, layout, x0, uniforms).tolist())


def run_many_quenched(
    graph: Graph,
    assignment: EnvironmentAssignment,
    x0: int,
    steps: int,
    seed: int,
    count: int,
) -> Iterator[Trajectory]:
    """``run_quenched`` on the streams ``(seed, i)`` for ``i < count``, in lock step."""
    _check_start(graph, x0)
    _check_assignment(graph, assignment)
    layout = _Layout(graph)
    weights = [w for x in range(graph.vertex_count) for w in assignment[x].weights]
    cumulative = layout.cumulative(np.array([weights]))
    size = layout.block_size("quenched", steps, count)
    for uniforms, streams in _blocks(seed, count, steps, size):
        for row, rng in zip(uniforms, streams):
            rng.random(out=row)
        yield from map(tuple, _advance_fixed(layout, cumulative, 0, x0, uniforms).tolist())


def run_many_annealed(
    graph: Graph,
    envs: Mapping[int, VertexEnvLaw],
    x0: int,
    steps: int,
    seed: int,
    count: int,
) -> Iterator[Trajectory]:
    """``run_annealed`` on the streams ``(seed, i)`` for ``i < count``, in lock step.

    The environments are checked against the degrees once.  Each
    trajectory's row of the block's weight table comes from its vertices'
    :meth:`~urnwalk.environment.VertexEnvLaw._draw`, the draws and bits of
    ``sample``, before its uniforms; ``sample``'s simplex check runs once
    per vertex and block on the vertex's columns
    (:func:`~urnwalk.laws.check_simplex_rows`), so a point off the simplex
    may be reported at another trajectory than per stream.
    """
    _check_start(graph, x0)
    layout = _Layout(graph)
    draws = [env._draw for env in _checked_envs(graph, envs)]
    size = layout.block_size("annealed", steps, count)
    for uniforms, streams in _blocks(seed, count, steps, size):
        weights = np.empty((len(uniforms), layout.moves))
        for row, env_row, rng in zip(uniforms, weights, streams):
            env_row[:] = [w for draw in draws for w in draw(rng)]
            rng.random(out=row)
        for lo, d in zip(layout.offsets, layout.degrees):
            check_simplex_rows(weights[:, lo : lo + d])
        base = np.arange(len(uniforms), dtype=np.int64) * layout.vertices
        paths = _advance_fixed(layout, layout.cumulative(weights), base, x0, uniforms)
        yield from map(tuple, paths.tolist())


def _at(maps: Mapping, x: int, name: str):
    """``maps[x]``; a map that misses vertex x raises :class:`DimensionMismatchError`."""
    try:
        return maps[x]
    except KeyError:
        raise DimensionMismatchError(f"{name} misses vertex {x}") from None


def _check_degree(graph: Graph, x: int, dimension: int, noun: str) -> None:
    """Check that the ``noun`` at vertex x has as many moves as x has neighbors."""
    degree = graph.degree(x)
    if dimension != degree:
        raise DimensionMismatchError(
            f"{noun} at vertex {x} has dimension {dimension}, degree is {degree}"
        )


def _check_start(graph: Graph, x0: int) -> None:
    if not (0 <= x0 < graph.vertex_count):
        raise ValueError(f"start vertex {x0} not in graph")


def _check_assignment(graph: Graph, assignment: EnvironmentAssignment) -> None:
    for x in range(graph.vertex_count):
        point = _at(assignment, x, "environment assignment")
        _check_degree(graph, x, point.dim, "assignment")
