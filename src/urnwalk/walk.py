"""Finite graphs and the three walk processes: reinforced, quenched, annealed.

Graphs are finite directed multigraphs given by ordered neighbor lists;
repeated targets and self-loops are allowed and count as distinct oriented
moves.  The reinforced walk keeps, at every vertex, a count of how often
each oriented move was taken and draws the next move from the vertex's
reinforcement law applied to those counts.  The quenched walk is the Markov
chain in a fixed assignment of transition vectors; the annealed walk draws
a fresh assignment from the per-vertex environment laws and then runs the
quenched walk in it.

All sampling takes an explicit ``numpy.random.Generator``.  Trajectory ``i``
of a run with seed ``s`` draws from the stream :func:`make_stream` gives for
``(s, i)``: numpy's counter-based Philox4x64-10 keyed by ``s``, whose
counter ``(j + 1, 0, i, 0)`` gives the stream's block ``j`` of four 64-bit
words (Salmon et al. 2011, "Parallel random numbers: as easy as 1, 2, 3");
:data:`STREAM_LAYOUT` names that layout in the outputs.  Many trajectories
share one generator, which :func:`stream_generators` points at each stream's
counter in turn.  Each step uses one uniform variate and inverse CDF over
the ordered neighbor list.  A run draws its step uniforms from its stream in
blocks of :data:`UNIFORM_BLOCK`, or, in lock-step blocks of many short
reinforced or quenched walks, computes them from the counters
(:func:`philox_uniforms`; an annealed walk's gamma draws take a varying
number of words first): the numbers of one-at-a-time draws, so runs are
reproducible bit-for-bit for a fixed seed.  A reinforced step asks the
vertex's law for its weights at the current counts; the laws memoise those
per count vector (see :class:`urnwalk.laws.ReinforcementLaw`), so
trajectories that revisit a count vector evaluate it once.

A trajectory's draws all precede its first step: the annealed walk's
environment, then exactly ``steps`` uniforms, and no draw depends on where
the walk goes.  The lock-step runners :func:`run_many_reinforced`,
:func:`run_many_quenched` and :func:`run_many_annealed` use that.  For a
block of trajectories they take each trajectory's draws from its own
stream, in that order, and then advance the whole block one step at a time
with array operations (:func:`_advance`).  The move is the count of the
weights' running sums (added left to right as :func:`draw_index` adds)
that are at most ``u``, clipped at the last move, which is
:func:`draw_index`'s rule; so they give the per-stream trajectories bit for
bit.  A reinforced block reads its weights from one padded table of
Dirichlet and uniform laws (:func:`_padded_tables`), or else asks each
vertex's law for the rows at the group of counts there (its
:meth:`~urnwalk.laws.ReinforcementLaw._simplex_rows`).  An annealed block,
like one stream, draws its environments in one call of
:func:`~urnwalk.environment.draw_environments` and checks them on the
simplex once per vertex.  The per-stream ``run_*`` and ``step_*`` stay the
single-trajectory API and the oracle.

A lock-step step makes a fixed number of numpy calls, per block and, in a
reinforced walk without the table, per vertex group, however few
trajectories they hold; a per-stream step is a few Python operations.  So
lock step pays only for many trajectories at once, and :func:`lockstep_pays`
chooses the runner from what a run shows before it starts: the trajectories
a block holds, the vertices a walk can reach, the graph and the laws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import accumulate, islice, pairwise
from typing import Iterator, Mapping

import numpy as np

from .environment import VertexEnvLaw, draw_environments
from .errors import DimensionMismatchError
from .laws import (MIN_WEIGHT, PAIRWISE_SUM_MIN, DirichletLaw, ReinforcementLaw, SimplexPoint,
                   UniformLaw, check_simplex_rows, draw_index, row_sums)

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


def _mulhilo(a: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products ``a * b``, from 32-bit halves."""
    b_lo, b_hi, a_lo, a_hi = b & 0xFFFFFFFF, b >> 32, a & 0xFFFFFFFF, a >> 32
    lo_lo, hi_lo = b_lo * a_lo, b_lo * a_hi
    cross = b_hi * a_lo + (hi_lo & 0xFFFFFFFF) + (lo_lo >> 32)
    return b_hi * a_hi + (hi_lo >> 32) + (cross >> 32), b * a


def philox_uniforms(seed: int, first: int, n: int, steps: int) -> np.ndarray:
    """``make_stream(seed, i).random(steps)`` for ``first <= i < first + n <= 2**64``, ``[n, steps]``.

    Bit for bit, in numpy's Philox4x64-10 rounds over 4,096 counters at a time:
    word ``j`` of stream ``i`` is word ``j % 4`` of counter ``(j // 4 + 1, 0, i,
    0)``, and a uniform is ``(word >> 11) * 2**-53``.
    """
    make_stream(seed)  # a seed outside [0, 2**128) raises make_stream's error
    blocks, out = -(-steps // 4), np.empty((n, steps))
    rows = 4096 // max(blocks, 1)
    for start in range(0, n, rows):
        m = min(rows, n - start)
        c0, c1 = np.tile(np.arange(1, blocks + 1, dtype=np.uint64), m), 0
        c2, c3 = np.repeat(np.arange(first + start, first + start + m, dtype=np.uint64), blocks), 0
        k0, k1 = seed % 2**64, seed >> 64
        for _ in range(10):  # the multipliers and key increments of Salmon et al. (2011)
            (h0, l0), (h1, l1) = _mulhilo(0xD2E7470EE14C6C93, c0), _mulhilo(0xCA5A826395121157, c2)
            c0, c1, c2, c3 = h1 ^ c1 ^ k0, l1, h0 ^ c3 ^ k1, l0
            k0, k1 = (k0 + 0x9E3779B97F4A7C15) % 2**64, (k1 + 0xBB67AE8584CAA73B) % 2**64
        words = np.stack([c0, c1, c2, c3], axis=1).reshape(m, 4 * blocks)[:, :steps]
        out[start : start + m] = (words >> 11) * 2.0**-53
    return out


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
    """One transition vector per vertex, drawn by :func:`~urnwalk.environment.draw_environments`."""
    checked = _checked_envs(graph, envs)
    row = iter(draw_environments(checked, [rng])[0].tolist())
    return {x: SimplexPoint(tuple(islice(row, env.dimension))) for x, env in enumerate(checked)}


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


def running_sums(weights: np.ndarray) -> np.ndarray:
    """``np.cumsum`` of a ``[d, N]`` array along axis 0, bit for bit, in place: one add per row.

    Across so few rows numpy's ``cumsum`` runs up to ten times slower."""
    for j in range(1, len(weights)):
        weights[j] += weights[j - 1]
    return weights


def lockstep_moves(cumulative: np.ndarray, u: np.ndarray, last: np.ndarray | int) -> np.ndarray:
    """:func:`draw_index` of each column, from the column's cumulative weights.

    ``cumulative`` is ``[d, N]``, the running sums of each column's weights
    (:func:`running_sums`); column ``r`` moves to the count of its sums that
    are at most ``u[r]``, clipped at ``last`` (``d - 1``, or per column).  The
    sums do not decrease, so that count is the first index whose sum exceeds
    ``u``.  Sums past a column's last move must be ``inf`` or the last sum.
    """
    return np.minimum(np.count_nonzero(cumulative <= u, axis=0), last)


class _Layout:
    """A graph's moves as arrays: the neighbor table, padded to the largest degree.

    The padded tables hold ``vertices * width`` elements; :func:`lockstep_pays`
    keeps graphs where that exceeds :data:`LOCKSTEP_ELEMENTS` out of lock step.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        self.degrees = [len(targets) for targets in graph.neighbors]
        self.vertices = len(self.degrees)
        self.width = max(self.degrees)

    @cached_property
    def last(self) -> np.ndarray:
        return np.array(self.degrees, dtype=np.int64) - 1

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
        """``[N, moves]`` weights, vertex after vertex, as ``[width, N * vertices]`` running sums.

        Column ``n * vertices + x`` holds vertex x's sums for trajectory n, then ``inf``.
        """
        out = np.full((len(weights), self.vertices * self.width), np.inf)
        out[:, self.columns] = weights
        return running_sums(out.reshape(-1, self.width).T.copy())

    def block_size(self, mode: str, steps: int, count: int) -> int:
        """Trajectories per lock-step block of a ``mode`` run, at least one.

        A block holds ``steps + 1`` positions and ``steps`` uniforms per
        trajectory, and its padded move counts (reinforced) or environment
        sums (annealed); each of those tables stays within :data:`LOCKSTEP_ELEMENTS`.
        """
        table = 0 if mode == "quenched" else self.vertices * self.width
        return max(1, min(count, LOCKSTEP_ELEMENTS // max(steps + 1, table)))


#: Most array elements one lock-step table holds: a block's trajectories
#: times ``steps + 1`` (uniforms, positions), or times the graph's moves
#: (counts, environments), or the graph's padded neighbor table.
LOCKSTEP_ELEMENTS = 1 << 16

#: Fewest trajectories a lock-step block holds for lock step to pay, by
#: mode: fewest where per-stream runs cost most.  Per stream / lock step,
#: best of 9 (2 cores, numpy 2.4.6): annealed, 100 steps, cycle-20 at 16 /
#: 32 / 64 / 128 trajectories 2.9 / 1.5, 5.7 / 1.9, 11.5 / 2.7, 23.6 / 4.5
#: ms, grid 3x4 2.8 / 1.6, 5.5 / 2.2, 11.0 / 3.2, 22.2 / 5.6 ms; quenched at
#: 32, 5 / 24 / 100 steps, cycle-20 0.30 / 0.16, 0.52 / 0.32, 1.36 / 0.97
#: ms, cycle-200 1.50 / 0.38, 1.76 / 0.55, 2.61 / 1.28 ms, and at 16 on
#: cycle-20, 100 steps, 0.65 / 0.90 ms; a reinforced table of Dirichlet
#: laws on the 200-cycle, 5 steps, at 32 0.31 / 0.45 ms.
LOCKSTEP_MIN_BLOCK = {"reinforced": 64, "quenched": 32, "annealed": 16}

#: Fewest trajectories per vertex within reach that a reinforced block
#: holds for lock step to pay without :func:`_padded_tables`: it asks each
#: law for its rows once per vertex group at each step; rows read one
#: distinct row at a time need more (see :func:`lockstep_pays`).  On the
#: same host, a law with its own ``_simplex`` (Dirichlet weights) on 100-step
#: walks broke even at 13 to 25 trajectories per vertex on the 5-cycle and
#: below 10 on the 20-cycle and the 4x4 grid.
LOCKSTEP_PER_VERTEX = 50


def lockstep_pays(
    mode: str, graph: Graph, maps: Mapping, x0: int, steps: int, count: int
) -> bool:
    """Whether the lock-step runner of ``mode`` beats per-stream runs of ``count`` trajectories.

    ``mode`` is ``"reinforced"``, ``"quenched"`` or ``"annealed"``, and
    ``maps`` the laws, assignment or environments of that run.  Lock step
    needs the graph's padded tables within :data:`LOCKSTEP_ELEMENTS` and a
    block of the mode's :data:`LOCKSTEP_MIN_BLOCK` trajectories;
    reinforced laws that fit :func:`_padded_tables` need no more.  Other reinforced
    blocks need :data:`LOCKSTEP_PER_VERTEX` trajectories per vertex a walk
    can reach within ``steps`` moves.  A law whose ``_simplex_rows`` is
    the generic one (:class:`~urnwalk.laws.ReinforcementLaw`) evaluates
    its ``_simplex`` once per distinct row and gains only where rows
    repeat, so with one the block also needs as many trajectories per vertex
    as there are count vectors a vertex can reach, those of sum at most
    ``steps`` in the largest degree: an induced law on the 5-cycle ran 1.06x
    slower in lock step at 400 and 800 trajectories of 100 steps, and 3x
    faster on the 3-star at 4,000 of 5.  Best of 7 in one process, fresh
    laws each run (2 cores, Python 3.11.7, numpy 2.4.6); the table breaks
    even at 16 to 32 trajectories::

        laws, graph                         trajectories x steps  per stream  lock step
        table: Dirichlet, 20-cycle          16 / 64 x 100         1.9 / 5.9   1.3 / 1.4 ms
        table: Dirichlet, 20-cycle          16 / 64 x 5           0.25 / 0.55 0.28 / 0.34 ms
        table: uniform, 5-star              16 x 100              0.74 ms     0.69 ms
        polynomial, 3-star                  4,000 x 5             23.8 ms     7.8 ms
        tabulated (clamp, box 3), 4-cycle   4,000 x 5             32.5 ms     8.1 ms
        polynomial, 4-cycle (at the edge)   200 x 3               1.1 ms      0.6 ms

    A map that misses a vertex, which only a library call can build, runs
    per stream.  Both runners give the same trajectories; this chooses only
    the faster.
    """
    _check_start(graph, x0)
    layout = _Layout(graph)
    if layout.vertices * layout.width > LOCKSTEP_ELEMENTS:
        return False
    block = layout.block_size(mode, steps, count)
    if block < LOCKSTEP_MIN_BLOCK[mode]:
        return False
    if mode == "reinforced":
        laws = [maps.get(x) for x in range(layout.vertices)]
        if None in laws:
            return False
        need = 0 if _padded_tables(maps, layout, steps) else LOCKSTEP_PER_VERTEX
        if any(type(law)._simplex_rows is ReinforcementLaw._simplex_rows for law in laws):
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


#: Fewest streams, and most steps, of a block whose uniforms come from :func:`philox_uniforms`, not
#: one generator switch a stream.  Per stream / kernel, best of 21 (2 cores, numpy 2.4.6): 150 x 5
#: steps 0.35 / 0.35 ms, 200 x 5 0.49 / 0.36, 200 x 24 0.49 / 0.48, 4,000 x 48 10.2 / 9.6 ms.
PHILOX_MIN_STREAMS, PHILOX_MAX_STEPS = 200, 24


def _step_uniforms(seed: int, count: int, steps: int, size: int) -> Iterator[np.ndarray]:
    """The ``[n, steps]`` step uniforms of the streams ``(seed, i < count)``, ``size`` at a time."""
    if size >= PHILOX_MIN_STREAMS and steps <= PHILOX_MAX_STEPS:
        for start in range(0, count, size):
            yield philox_uniforms(seed, start, min(size, count - start), steps)
        return
    streams = stream_generators(seed, count)
    for start in range(0, count, size):
        uniforms = np.empty((min(size, count - start), steps))
        for row, rng in zip(uniforms, streams):  # takes no stream past the block's
            rng.random(out=row)
        yield uniforms


def _paths(x0: int, n: int, steps: int) -> np.ndarray:
    paths = np.empty((n, steps + 1), dtype=np.int64)
    paths[:, 0] = x0
    return paths


def _advance(layout: _Layout, sums, base: np.ndarray | int, x0: int, uniforms: np.ndarray,
             counts: np.ndarray | None = None) -> np.ndarray:
    """Positions of a block of walks from x0: each step's running sums are columns ``at = base +
    position`` of a fixed table ``sums``, or ``sums(position, at)``.  A reinforced block counts
    each move in column ``at`` of ``counts``, walk n's at vertex x for ``at = n * vertices + x``."""
    n, steps = uniforms.shape
    paths = _paths(x0, n, steps)
    position = paths[:, 0].copy()
    for t in range(steps):
        at = base + position
        cumulative = sums.take(at, axis=1) if isinstance(sums, np.ndarray) else sums(position, at)
        move = lockstep_moves(cumulative, uniforms[:, t], layout.last.take(position))
        if counts is not None:
            counts.reshape(-1)[move * counts.shape[1] + at] += 1
        position = layout.neighbors.take(position * layout.width + move)
        paths[:, t + 1] = position
    return paths


def _padded_tables(laws: Mapping, layout: _Layout, steps: int) -> tuple | None:
    """The laws as a ``[width, vertices]`` table padded with 0, and its uniform columns, or None.

    Column x holds alpha (a :class:`~urnwalk.laws.DirichletLaw`) or weights (a
    :class:`~urnwalk.laws.UniformLaw`): the class's own rows, of x's degree, in
    a width where a sum ending in ``+ 0.0`` keeps ``sum_as_numpy``'s bits.  A
    weight is at least ``alpha_i / (sum(alpha) + steps)`` up to rounding; alpha
    that keeps that at twice ``MIN_WEIGHT`` leaves no row to check.
    """
    table = np.zeros((layout.width, layout.vertices))
    uniform = np.zeros(layout.vertices, dtype=bool)
    for x, d in enumerate(layout.degrees):
        law = laws.get(x)
        if getattr(law, "dimension", None) != d or layout.width >= PAIRWISE_SUM_MIN:
            return None
        if type(law) is UniformLaw:
            table[:d, x], uniform[x] = law._row, True
        elif (type(law) is DirichletLaw
              and min(law.alpha) >= 2 * MIN_WEIGHT * (math.fsum(law.alpha) + steps)):
            table[:d, x] = law.alpha
        else:
            return None
    return table, uniform


def _padded_sums(table, uniform, counts, position: np.ndarray, at: np.ndarray) -> np.ndarray:
    """:func:`_advance`'s sums of :func:`_padded_tables`: ``(alpha + counts) / sum``, or uniform."""
    own = table.take(position, axis=1)
    shifted = own + counts.take(at, axis=1)
    weights = shifted / row_sums(shifted.T)
    if uniform.any():
        weights = np.where(uniform.take(position), own, weights)
    return running_sums(weights)


def _grouped_sums(graph, laws, layout, counts, position: np.ndarray, at: np.ndarray) -> np.ndarray:
    """:func:`_advance`'s sums from each vertex's law, once per vertex group, checked on arrival."""
    counts = counts.take(at, axis=1)
    weights = np.zeros(counts.shape)
    order = np.argsort(position.astype(np.min_scalar_type(layout.vertices)), kind="stable")  # radix
    ranked = position[order]
    edges = [0, *(np.flatnonzero(ranked[1:] != ranked[:-1]) + 1).tolist(), len(order)]
    for start, stop in zip(edges, edges[1:]):
        group = order[start:stop]
        x = int(ranked[start])
        law = _at(laws, x, "law map")
        _check_degree(graph, x, law.dimension, "law")
        d = layout.degrees[x]
        weights[:d, group] = law._simplex_rows(np.ascontiguousarray(counts[:d, group].T)).T
    return running_sums(weights)


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
    tables = _padded_tables(laws, layout, steps)
    size = layout.block_size("reinforced", steps, count)
    for uniforms in _step_uniforms(seed, count, steps, size):
        if tables is not None and tables[1].all():  # uniform laws ignore the counts
            sums, counts, base = running_sums(tables[0].copy()), None, 0
        else:
            counts = np.zeros((layout.width, len(uniforms) * layout.vertices), dtype=np.int64)
            base = np.arange(len(uniforms), dtype=np.int64) * layout.vertices
            sums = (partial(_grouped_sums, graph, laws, layout, counts) if tables is None
                    else partial(_padded_sums, *tables, counts))
        yield from map(tuple, _advance(layout, sums, base, x0, uniforms, counts).tolist())


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
    for uniforms in _step_uniforms(seed, count, steps, size):
        yield from map(tuple, _advance(layout, cumulative, 0, x0, uniforms).tolist())


def run_many_annealed(
    graph: Graph,
    envs: Mapping[int, VertexEnvLaw],
    x0: int,
    steps: int,
    seed: int,
    count: int,
) -> Iterator[Trajectory]:
    """``run_annealed`` on the streams ``(seed, i)`` for ``i < count``, in lock step.

    The environments are checked against the degrees once, and a block's
    weights and uniforms come from one :func:`~urnwalk.environment.draw_environments`
    call; the simplex check runs once per vertex and block on the vertex's
    columns (:func:`~urnwalk.laws.check_simplex_rows`), so a point off the
    simplex may be reported at another trajectory than per stream.
    """
    _check_start(graph, x0)
    layout = _Layout(graph)
    checked = _checked_envs(graph, envs)
    size = layout.block_size("annealed", steps, count)
    streams = stream_generators(seed, count)
    for start in range(0, count, size):
        uniforms = np.empty((min(size, count - start), steps))
        weights = draw_environments(checked, streams, uniforms)
        for lo, hi in pairwise(accumulate(layout.degrees, initial=0)):
            check_simplex_rows(weights[:, lo:hi])
        base = np.arange(len(uniforms), dtype=np.int64) * layout.vertices
        paths = _advance(layout, layout.cumulative(weights), base, x0, uniforms)
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
