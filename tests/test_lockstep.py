"""Lock-step runners against the per-stream runs they replace, bit for bit.

``walk.run_many_*`` draw each trajectory's environment and uniforms from its
own stream and then advance a block of trajectories together; every case
here compares them with ``[run_*(..., rng) for rng in stream_generators(seed, n)]``.
"""

import json
import math
import sys
import tracemalloc
from itertools import accumulate, product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catalog import POLY_LINEAR_2D, POLY_QUADRATIC_3D
from oracles import DriftingLaw, ReversedDirichlet, Tilted, environment_by_scalars
from urnwalk import cli, walk
from urnwalk.environment import (
    DirichletEnv,
    EmpiricalEnv,
    EnvMomentLaw,
    PointMassEnv,
    PolynomialDirichletEnv,
    VertexEnvLaw,
    draw_environments,
)
from urnwalk.errors import DimensionMismatchError, TableDomainError
from urnwalk.laws import (
    MIN_WEIGHT,
    SIMPLEX_SUM_TOL,
    DirichletLaw,
    PolynomialDirichletLaw,
    ReinforcementLaw,
    SimplexPoint,
    TabulatedLaw,
    UniformLaw,
    array_rows,
    check_simplex,
    check_simplex_rows,
    distinct_rows,
    draw_index,
)
from urnwalk.walk import (
    cycle_graph,
    grid_graph,
    lockstep_moves,
    make_stream,
    run_annealed,
    run_many_annealed,
    run_many_quenched,
    run_many_reinforced,
    run_quenched,
    run_reinforced,
    running_sums,
    sample_environment,
    segment_graph,
    star_graph,
    stream_generators,
)

# --- the categorical rule ---------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(min_value=MIN_WEIGHT, max_value=1.0), min_size=1, max_size=9),
    st.booleans(),
)
@example([1 / 7] * 7, False)  # the sums end at 0.9999999999999998
@example([1 / 6] * 6, False)
@example([0.5, MIN_WEIGHT, 0.5], False)  # tied sums
def test_cumulative_count_rule_is_draw_index(weights, normalise):
    if normalise:
        total = math.fsum(weights)
        weights = [w / total for w in weights]
    sums = np.cumsum(weights)
    us = {0.0}
    for c in sums.tolist():
        us |= {c, math.nextafter(c, -math.inf), math.nextafter(c, math.inf)}
    last = float(sums[-1])
    if last < 1.0:
        # rounding left the last sum below 1: u from there on takes the last move
        us |= {math.nextafter(last, 1.0), (last + 1.0) / 2, math.nextafter(1.0, 0.0)}
    us = sorted(u for u in us if 0.0 <= u < 1.0)
    columns = np.broadcast_to(sums[:, None], (len(weights), len(us)))
    got = lockstep_moves(columns, np.array(us), len(weights) - 1)
    assert got.tolist() == [draw_index(weights, u) for u in us]
    assert running_sums(np.array([weights] * 2).T.copy()).T.tolist() == [sums.tolist()] * 2


# --- weight rows --------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda d: st.tuples(
            st.lists(st.floats(1e-3, 1.0), min_size=d, max_size=d),
            st.integers(0, d - 1),
            st.floats(-3e-12, 3e-12),
        )
    ),
    st.sampled_from([None, math.nan, 1.5, -0.25]),
)
def test_row_check_decides_as_check_simplex(case, replacement):
    weights, i, offset = case
    total = math.fsum(weights)
    row = [w / total for w in weights]
    row[i] += offset
    if replacement is not None and len(row) > 1:
        row[i] = replacement

    def outcome(check, value):
        try:
            check(value)
        except ValueError as exc:
            return str(exc)
        return None

    want = outcome(check_simplex, tuple(row))
    good = [1.0 / len(row)] * len(row)
    assert outcome(check_simplex_rows, np.array([good, row, good])) == want


# rows at the tolerance on which np.sum and math.fsum disagree
_FSUM_REJECTS = [0.13894856024100483, 0.09237896020712939, 0.13321051620459845,
                 0.2373378542321923, 0.22401969429015095, 0.0219521322797239, 0.1521522825442001]
_FSUM_ACCEPTS = [0.08463280366597571, 0.18552621509278278, 0.17993533029249753,
                 0.23525892035046958, 0.16003122373386638, 0.15461550686340803]


def test_row_check_decides_near_the_tolerance_by_fsum():
    for row in (_FSUM_REJECTS, _FSUM_ACCEPTS):
        assert (abs(np.sum(row) - 1.0) <= SIMPLEX_SUM_TOL) != (abs(math.fsum(row) - 1.0) <= SIMPLEX_SUM_TOL)
    with pytest.raises(ValueError, match="sum"):
        check_simplex_rows(np.array([_FSUM_REJECTS]))
    rows = np.array([_FSUM_ACCEPTS])
    assert check_simplex_rows(rows) is rows


def _leaning_table(box, dimension, fallback):
    """A table law whose point at counts c is proportional to 1 + c: no two rows alike."""
    entries = {}
    for c in product(range(box + 1), repeat=dimension):
        total = math.fsum(1.0 + k for k in c)
        entries[c] = SimplexPoint(tuple((1.0 + k) / total for k in c))
    return TabulatedLaw(box, entries, fallback)


ROW_LAWS = {
    "uniform_1": UniformLaw(1),
    "uniform_4": UniformLaw(4),
    "dirichlet_1": DirichletLaw([1.5]),
    "dirichlet_3": DirichletLaw([0.7, 1.9, 0.2]),
    "dirichlet_9": DirichletLaw([0.6, 1.1, 2.3, 0.9, 1.7, 0.5, 3.1, 1.3, 0.8]),
    "dirichlet_12": DirichletLaw([0.3 + 0.4 * i for i in range(12)]),
    "induced_dirichlet": EnvMomentLaw(DirichletEnv([0.8, 1.6])),
    "induced_polynomial": EnvMomentLaw(PolynomialDirichletEnv(**POLY_QUADRATIC_3D)),
    "induced_empirical": EnvMomentLaw(EmpiricalEnv([(0.25, (0.2, 0.8)), (0.75, (0.6, 0.4))])),
    "induced_point_mass": EnvMomentLaw(PointMassEnv((0.3, 0.7))),
    "induced_one_move": EnvMomentLaw(DirichletEnv([2.0])),
    "polynomial_linear_2d": PolynomialDirichletLaw(**POLY_LINEAR_2D),
    "polynomial_quadratic_3d": PolynomialDirichletLaw(**POLY_QUADRATIC_3D),
    # the drawn counts stay within the reject table's box and leave the clamp table's
    "tabulated_reject": _leaning_table(40, 2, "reject"),
    "tabulated_clamp": _leaning_table(3, 3, "clamp"),
}


@pytest.mark.parametrize("name", sorted(ROW_LAWS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_simplex_rows_have_the_bits_of_simplex(name, data):
    law = ROW_LAWS[name]
    counts = data.draw(
        st.lists(
            st.lists(st.integers(0, 40), min_size=law.dimension, max_size=law.dimension),
            min_size=1,
            max_size=30,
        )
    )
    law.__dict__.pop("_simplex_memo", None)
    want = [list(law._simplex(tuple(c))) for c in counts]
    # from an empty memo, then (laws that memoise _simplex) with part and then
    # all of the rows in the memo the earlier calls filled
    law.__dict__.pop("_simplex_memo", None)
    for part in (counts[: len(counts) // 2 + 1], counts, counts):
        rows = law._simplex_rows(np.array(part, dtype=np.int64))
        assert rows.shape == (len(part), law.dimension)
        assert rows.tolist() == want[: len(part)]


def test_simplex_rows_name_the_laws_with_an_array_pass():
    # uniform and Dirichlet laws read their rows in one array pass; every other
    # law reads its own _simplex once per distinct row
    own = {"uniform": UniformLaw._simplex_rows, "dirichlet": DirichletLaw._simplex_rows}
    for name, law in ROW_LAWS.items():
        want = own.get(name.split("_")[0], ReinforcementLaw._simplex_rows)
        assert type(law)._simplex_rows is want, name
    assert DriftingLaw._simplex_rows is ReinforcementLaw._simplex_rows


def test_simplex_rows_outside_a_reject_table_raise():
    law = _leaning_table(2, 2, "reject")
    with pytest.raises(TableDomainError, match="outside table box"):
        law._simplex_rows(np.array([[0, 1], [3, 0], [2, 2]], dtype=np.int64))


@pytest.mark.parametrize("high", [5, 10**6])
def test_distinct_rows_by_key_and_by_sorting_rows(high):
    # counts up to 10**6 in 4 columns overflow the mixed-radix key
    counts = np.random.default_rng(high).integers(0, high, size=(500, 4))
    counts[250:] = counts[:250]
    first, inverse = distinct_rows(counts)
    assert np.array_equal(counts[first][inverse], counts)
    assert len({tuple(r) for r in counts[first].tolist()}) == len(first)


# --- lock-step runs against per-stream runs -----------------------------------------

_CYCLE = cycle_graph(5)
_STAR_3 = star_graph(3)
_STAR_9 = star_graph(9)
_SEGMENT = segment_graph(4)
_GRID = grid_graph(2, 3)
_ALPHA_9 = [0.6, 1.1, 2.3, 0.9, 1.7, 0.5, 3.1, 1.3, 0.8]
_EMPIRICAL = EmpiricalEnv([(0.25, (0.2, 0.8)), (0.75, (0.6, 0.4))])


class _SampleOnlyEnv(VertexEnvLaw):
    """An environment that defines only ``sample``, as a library subclass may: both
    runners read it through ``sample``, from ``draw_environments``."""

    dimension = 2

    def sample(self, rng):
        u = rng.random()
        return SimplexPoint((0.25 + 0.5 * u, 0.75 - 0.5 * u))


def _leaves(graph, value):
    return {x: value for x in range(1, graph.vertex_count)}


def _by_degree(graph, make):
    return {x: make(graph.degree(x)) for x in range(graph.vertex_count)}


REINFORCED = {
    "uniform_cycle": (_CYCLE, {x: UniformLaw(2) for x in range(5)}),
    "uniform_star": (_STAR_3, {0: UniformLaw(3), **_leaves(_STAR_3, UniformLaw(1))}),
    "dirichlet_segment": (_SEGMENT, _by_degree(_SEGMENT, lambda d: DirichletLaw([0.7, 1.9][:d]))),
    "dirichlet_star9": (_STAR_9, {0: DirichletLaw(_ALPHA_9), **_leaves(_STAR_9, DirichletLaw([1.5]))}),
    "dirichlet_grid": (_GRID, _by_degree(_GRID, lambda d: DirichletLaw([0.5 + i for i in range(d)]))),
    "induced_dirichlet": (_CYCLE, {x: EnvMomentLaw(DirichletEnv([0.8, 1.6])) for x in range(5)}),
    "induced_polynomial": (
        _STAR_3,
        {0: EnvMomentLaw(PolynomialDirichletEnv(**POLY_QUADRATIC_3D)),
         **_leaves(_STAR_3, EnvMomentLaw(PointMassEnv((1.0,))))},
    ),
    "induced_empirical": (_CYCLE, {x: EnvMomentLaw(_EMPIRICAL) for x in range(5)}),
    "induced_point_mass": (_CYCLE, {x: EnvMomentLaw(PointMassEnv((0.3, 0.7))) for x in range(5)}),
    "polynomial_star": (
        _STAR_3,
        {0: PolynomialDirichletLaw(**POLY_QUADRATIC_3D),
         **_leaves(_STAR_3, PolynomialDirichletLaw([1.5], 1, {(1,): 1.0}))},
    ),
    "tabulated_cycle": (_CYCLE, {x: _leaning_table(3, 2, "clamp") for x in range(5)}),
    "mixed": (
        _STAR_3,
        {0: DirichletLaw([1.0, 2.0, 3.0]), 1: UniformLaw(1), 2: EnvMomentLaw(DirichletEnv([2.0])),
         3: DirichletLaw([0.5])},
    ),
}

ANNEALED = {
    "dirichlet_cycle": (_CYCLE, {x: DirichletEnv([0.8, 1.6]) for x in range(5)}),
    "dirichlet_star9": (_STAR_9, {0: DirichletEnv(_ALPHA_9), **_leaves(_STAR_9, PointMassEnv((1.0,)))}),
    "dirichlet_grid": (_GRID, _by_degree(_GRID, lambda d: DirichletEnv([0.5 + i for i in range(d)]))),
    "polynomial_star": (
        _STAR_3,
        {0: PolynomialDirichletEnv(**POLY_QUADRATIC_3D), **_leaves(_STAR_3, DirichletEnv([1.0]))},
    ),
    "empirical_cycle": (_CYCLE, {x: _EMPIRICAL for x in range(5)}),
    "empirical_grid": (
        _GRID,
        _by_degree(_GRID, lambda d: EmpiricalEnv([
            (0.5, [1.0 / d] * d),
            (0.3, [0.9] + [0.1 / (d - 1)] * (d - 1)),
            (0.2, [0.05] * (d - 1) + [1.0 - 0.05 * (d - 1)]),
        ])),
    ),
    "sample_only_cycle": (
        _CYCLE, {x: _SampleOnlyEnv() if x % 2 else DirichletEnv([0.3, 1.7]) for x in range(5)},
    ),
    "point_mass_segment": (_SEGMENT, _by_degree(_SEGMENT, lambda d: PointMassEnv([0.3, 0.7][:d] if d == 2 else (1.0,)))),
    # every family on one graph (degrees 2, 3, 2, 2, 3, 2), alpha below and above 1
    "mixed_grid": (_GRID, {
        0: DirichletEnv([0.3, 1.7]), 1: PolynomialDirichletEnv(**POLY_QUADRATIC_3D), 2: _SampleOnlyEnv(),
        3: _EMPIRICAL, 4: DirichletEnv([2.5, 0.01, 1.0]), 5: PointMassEnv((0.3, 0.7)),
    }),
}

QUENCHED = {
    "frozen_cycle": (_CYCLE, sample_environment(_CYCLE, ANNEALED["dirichlet_cycle"][1], make_stream(77))),
    "frozen_star9": (_STAR_9, sample_environment(_STAR_9, ANNEALED["dirichlet_star9"][1], make_stream(78))),
    "frozen_grid": (_GRID, sample_environment(_GRID, ANNEALED["dirichlet_grid"][1], make_stream(79))),
}

MODES = {
    "reinforced": (run_reinforced, run_many_reinforced, REINFORCED),
    "annealed": (run_annealed, run_many_annealed, ANNEALED),
    "quenched": (run_quenched, run_many_quenched, QUENCHED),
}

CASES = [(mode, name) for mode, (_, _, table) in MODES.items() for name in sorted(table)]


def per_stream(run, graph, maps, x0, steps, seed, count):
    return [run(graph, maps, x0, steps, rng) for rng in stream_generators(seed, count)]


@pytest.mark.parametrize("steps", [0, 1, 17])
@pytest.mark.parametrize("mode, name", CASES)
def test_lock_step_runs_are_the_per_stream_runs(mode, name, steps):
    run, run_many, table = MODES[mode]
    graph, maps = table[name]
    want = per_stream(run, graph, maps, 0, steps, 20261018, 70)
    assert list(run_many(graph, maps, 0, steps, 20261018, 70)) == want


@pytest.mark.parametrize("mode, name", [
    ("reinforced", "dirichlet_grid"), ("reinforced", "induced_polynomial"),
    ("annealed", "dirichlet_grid"), ("quenched", "frozen_grid"),
])
def test_lock_step_runs_span_blocks(monkeypatch, mode, name):
    run, run_many, table = MODES[mode]
    graph, maps = table[name]
    monkeypatch.setattr(walk, "LOCKSTEP_ELEMENTS", 64)  # two or three trajectories a block
    want = per_stream(run, graph, maps, 1, 30, 5, 41)
    assert list(run_many(graph, maps, 1, 30, 5, 41)) == want


@pytest.mark.parametrize("mode", sorted(MODES))
def test_no_trajectories_make_an_empty_run(mode):
    # a block of zero trajectories once stepped range() by zero
    _, run_many, table = MODES[mode]
    graph, maps = table[sorted(table)[0]]
    assert list(run_many(graph, maps, 0, 5, 1, 0)) == []


_TINY_ALPHA = DirichletEnv([0.004, 0.004, 1.0])


def test_tiny_alpha_environments_draw_in_lock_step():
    # at seed 6 some centre draws have a weight below MIN_WEIGHT, raised to it
    envs = {0: _TINY_ALPHA, **_leaves(_STAR_3, PointMassEnv((1.0,)))}
    raised = sum(MIN_WEIGHT in _TINY_ALPHA.sample(rng).weights for rng in stream_generators(6, 40))
    assert raised > 0
    want = per_stream(run_annealed, _STAR_3, envs, 0, 9, 6, 40)
    assert list(run_many_annealed(_STAR_3, envs, 0, 9, 6, 40)) == want


@pytest.mark.parametrize("seed", range(1, 30))
def test_tiny_alpha_environments_run_on_every_seed(seed):
    # 17 of these seeds stopped on a weight below MIN_WEIGHT when a draw was
    # redrawn only where a weight was exactly 0
    envs = {0: _TINY_ALPHA, **_leaves(_STAR_3, PointMassEnv((1.0,)))}
    want = per_stream(run_annealed, _STAR_3, envs, 0, 6, seed, 40)
    assert list(run_many_annealed(_STAR_3, envs, 0, 6, seed, 40)) == want


def test_environments_whose_every_boost_overflows_draw_in_lock_step():
    # alpha near the least float: every boosted log is -inf, and the least
    # exponential takes weight 1 (the last rule of environment._dirichlet_draw)
    env = DirichletEnv([1e-320, 1e-320])
    envs = {0: env, **_leaves(star_graph(2), PointMassEnv((1.0,)))}
    count = 80
    assert walk.lockstep_pays("annealed", star_graph(2), envs, 0, 6, count)
    rows = draw_environments([env], stream_generators(2, count), np.empty((count, 0)))
    assert set(map(tuple, rows.tolist())) == {(1.0, MIN_WEIGHT), (MIN_WEIGHT, 1.0)}
    want = per_stream(run_annealed, star_graph(2), envs, 0, 6, 2, count)
    assert list(run_many_annealed(star_graph(2), envs, 0, 6, 2, count)) == want


def test_an_environment_off_the_simplex_stops_the_run():
    # draw_environments checks no row; per stream the points it builds, and in
    # lock step the runner's rows, are checked on the simplex
    class OffSimplex(VertexEnvLaw):
        dimension = 2

        def sample(self, rng):
            return SimpleNamespace(weights=(0.5, 0.5 + rng.random()))

    envs = {x: DirichletEnv([1.0, 2.0]) for x in range(5)}
    envs[3] = OffSimplex()
    assert draw_environments([envs[3]], [make_stream(1)]).sum() > 1.0
    with pytest.raises(ValueError, match="sum"):
        per_stream(run_annealed, _CYCLE, envs, 0, 4, 1, 70)
    with pytest.raises(ValueError, match="sum"):
        list(run_many_annealed(_CYCLE, envs, 0, 4, 1, 70))


_ALPHAS = st.lists(
    st.one_of(
        st.floats(min_value=5e-324, max_value=sys.float_info.min, exclude_max=True),
        st.floats(min_value=sys.float_info.min, max_value=1.0, exclude_max=True),
        st.floats(min_value=1.0, max_value=50.0),
    ),
    min_size=1,
    max_size=5,
)


def _point(raw):
    total = math.fsum(raw)
    return [w / total for w in raw]


_POINTS = st.integers(1, 4).flatmap(
    lambda d: st.lists(st.lists(st.floats(1e-3, 1.0), min_size=d, max_size=d).map(_point),
                       min_size=1, max_size=4)
)


@st.composite
def _builtin_envs(draw):
    family = draw(st.sampled_from(["dirichlet", "polynomial", "point_mass", "empirical"]))
    if family == "dirichlet":
        return DirichletEnv(draw(_ALPHAS))
    if family == "polynomial":
        alpha = draw(_ALPHAS)
        d, degree = len(alpha), draw(st.integers(1, 2))
        monomials = [k for k in product(range(degree + 1), repeat=d) if sum(k) == degree]
        chosen = draw(st.lists(st.sampled_from(monomials), min_size=1, unique=True))
        return PolynomialDirichletEnv(alpha, degree, {k: draw(st.floats(0.1, 10.0)) for k in chosen})
    points = draw(_POINTS)
    if family == "point_mass":
        return PointMassEnv(points[0])
    weights = _point([draw(st.floats(0.01, 1.0)) for _ in points])
    return EmpiricalEnv(list(zip(weights, points)))


@settings(max_examples=300, deadline=None)
@given(st.lists(_builtin_envs(), min_size=1, max_size=3), st.integers(0, 2**64 - 1))
def test_a_draw_is_the_sampled_point_bit_for_bit(envs, seed):
    # copies of one stream: the same draws in the same order, to the same bits, in
    # a block, by the scalar oracle of the declared order and, for one environment,
    # by its sample
    block, scalars, sampled = make_stream(seed), make_stream(seed), make_stream(seed)
    ends = list(accumulate([0] + [env.dimension for env in envs]))
    for _ in range(3):
        row = draw_environments(envs, [block])[0].tolist()
        assert [w.hex() for w in row] == [w.hex() for w in environment_by_scalars(envs, scalars)]
        for lo, hi in zip(ends, ends[1:]):
            check_simplex(tuple(row[lo:hi]))
        if len(envs) == 1:
            assert [w.hex() for w in row] == [w.hex() for w in envs[0].sample(sampled).weights]
    assert block.random() == scalars.random()


def test_a_law_is_checked_when_a_walk_reaches_its_vertex():
    laws = {0: UniformLaw(1), 1: UniformLaw(2), 2: DirichletLaw([1.0, 1.0])}
    graph = segment_graph(3)
    # a law of the wrong dimension keeps the map out of the padded tables
    assert walk._padded_tables(laws, walk._Layout(graph), 8) is None
    # one step from 0 reaches 1 only; vertex 2's law has the wrong dimension
    assert list(run_many_reinforced(graph, laws, 0, 1, 3, 10)) == [(0, 1)] * 10
    with pytest.raises(DimensionMismatchError):
        list(run_many_reinforced(graph, laws, 0, 8, 3, 10))


class _DriftingRows(ReinforcementLaw):
    """A held :class:`DriftingLaw` with its own ``_simplex_rows``, evaluated row by row."""

    dimension = 2
    drifting = DriftingLaw()

    def log_weights(self, counts):
        return self.drifting.log_weights(counts)

    def _simplex_rows(self, counts):
        return check_simplex_rows(np.array([np.exp(self.log_weights(c)) for c in counts.tolist()]))


def test_a_law_off_the_simplex_stops_the_walk_as_per_stream():
    # the drifting law leaves the simplex from count 522 of move 1 on, which
    # some of these Polya walks reach; through the distinct-row path and an array one
    graph = star_graph(2)
    for drifting in (DriftingLaw(), _DriftingRows()):
        laws = {0: drifting, 1: UniformLaw(1), 2: UniformLaw(1)}
        with pytest.raises(ValueError, match="sum"):
            per_stream(run_reinforced, graph, laws, 0, 1100, 8, 40)
        with pytest.raises(ValueError, match="sum"):
            list(run_many_reinforced(graph, laws, 0, 1100, 8, 40))


@pytest.mark.parametrize("points", [
    {0: (0.25, 0.25, 0.5)},
    # the lengths add up to the graph's moves
    {1: (0.25, 0.25, 0.5), 2: (1.0,)},
])
def test_an_environment_of_the_wrong_dimension_stops_the_run_as_per_stream(points):
    class Declared(VertexEnvLaw):
        """Declares dimension 2 and samples a point of another dimension."""

        dimension = 2

        def __init__(self, point):
            self.point = point

        def sample(self, rng):
            rng.random()
            return SimplexPoint(self.point)

    envs = {x: Declared(points[x]) if x in points else DirichletEnv([1.0, 2.0]) for x in range(4)}
    x = min(points)
    message = f"assignment at vertex {x} has dimension {len(points[x])}, degree is 2"
    with pytest.raises(DimensionMismatchError, match=message):
        per_stream(run_annealed, cycle_graph(4), envs, 0, 5, 1, 70)
    assert walk.lockstep_pays("annealed", cycle_graph(4), envs, 0, 5, 70)
    with pytest.raises(DimensionMismatchError, match=message):
        list(run_many_annealed(cycle_graph(4), envs, 0, 5, 1, 70))


# --- the padded tables --------------------------------------------------------------------

_WALK_GRAPHS = st.one_of(
    st.integers(2, 6).map(segment_graph),
    st.integers(3, 8).map(cycle_graph),
    st.integers(1, 7).map(star_graph),
    st.tuples(st.integers(1, 3), st.integers(2, 4)).map(lambda shape: grid_graph(*shape)),
)


@st.composite
def _padded_walks(draw):
    graph = draw(_WALK_GRAPHS)
    kind = draw(st.sampled_from(["dirichlet", "uniform", "mixed"]))
    laws = {}
    for x in range(graph.vertex_count):
        d = graph.degree(x)
        if kind == "uniform" or kind == "mixed" and draw(st.booleans()):
            laws[x] = UniformLaw(d)
        else:
            laws[x] = DirichletLaw(draw(st.lists(st.floats(1e-3, 1e3), min_size=d, max_size=d)))
    x0 = draw(st.integers(0, graph.vertex_count - 1))
    return graph, laws, x0, draw(st.integers(0, 40)), draw(st.integers(64, 200))


@settings(max_examples=60, deadline=None)
@given(_padded_walks(), st.integers(0, 2**32 - 1))
def test_padded_runs_are_the_per_stream_runs(case, seed):
    graph, laws, x0, steps, count = case
    assert walk._padded_tables(laws, walk._Layout(graph), steps) is not None
    assert walk.lockstep_pays("reinforced", graph, laws, x0, steps, count)
    want = per_stream(run_reinforced, graph, laws, x0, steps, seed, count)
    assert list(run_many_reinforced(graph, laws, x0, steps, seed, count)) == want


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_dirichlet_law_in_the_padded_tables_stays_on_the_simplex(data):
    # the tables take alpha only where no count vector of sum at most steps
    # can give a weight below MIN_WEIGHT, for no row read from them is checked
    alpha = data.draw(st.lists(st.floats(5e-324, 1e-290) | st.floats(1e-3, 1e3), min_size=2, max_size=7))
    steps = data.draw(st.integers(0, 60))
    graph = star_graph(len(alpha))
    laws = {0: DirichletLaw(alpha), **_leaves(graph, UniformLaw(1))}
    counts = []
    for _ in alpha:
        counts.append(data.draw(st.integers(0, steps - sum(counts))))
    if walk._padded_tables(laws, walk._Layout(graph), steps) is not None:
        laws[0]._simplex(tuple(counts))


def test_a_star_of_width_8_groups_by_vertex():
    # from width PAIRWISE_SUM_MIN on, a padded row sum would not add as sum_as_numpy does
    graph = star_graph(8)
    laws = {0: DirichletLaw([0.3 + 0.5 * i for i in range(8)]), **_leaves(graph, UniformLaw(1))}
    assert walk._padded_tables(laws, walk._Layout(graph), 30) is None
    want = per_stream(run_reinforced, graph, laws, 0, 30, 11, 120)
    assert list(run_many_reinforced(graph, laws, 0, 30, 11, 120)) == want


def test_subnormal_alpha_stops_a_lock_step_run_as_per_stream():
    # at a first visit the weight of alpha 1e-320 is 1e-320, below MIN_WEIGHT
    graph = cycle_graph(4)
    laws = {x: DirichletLaw([1e-320, 1.0]) for x in range(4)}
    assert walk._padded_tables(laws, walk._Layout(graph), 4) is None
    with pytest.raises(ValueError) as per:
        per_stream(run_reinforced, graph, laws, 0, 4, 1, 80)
    with pytest.raises(ValueError) as many:
        list(run_many_reinforced(graph, laws, 0, 4, 1, 80))
    assert (type(many.value), str(many.value)) == (type(per.value), str(per.value))
    assert str(per.value) == "weight 1e-320 is not strictly positive"


def test_a_law_that_holds_a_dirichlet_law_walks_with_its_own_rows():
    graph = cycle_graph(4)
    laws = {x: ReversedDirichlet([1.0, 3.0]) for x in range(4)}
    assert walk._padded_tables(laws, walk._Layout(graph), 6) is None
    want = per_stream(run_reinforced, graph, laws, 0, 6, 1, 80)
    assert list(run_many_reinforced(graph, laws, 0, 6, 1, 80)) == want
    counts = np.array([[0, 0], [2, 0], [0, 0]], dtype=np.int64)
    assert laws[0]._simplex_rows(counts).tolist() == [[0.75, 0.25], [0.5, 0.5], [0.75, 0.25]]


# --- the choice of runner ----------------------------------------------------------------

_DIRICHLET_CYCLE = {x: DirichletLaw([1.0, 2.0]) for x in range(20)}
_REVERSED_CYCLE = {x: ReversedDirichlet([1.0, 2.0]) for x in range(20)}
# rows of its own, which no padded table takes
_DRIFTING_CYCLE = {x: _DriftingRows() for x in range(20)}


def test_a_law_with_its_own_simplex_counts_its_distinct_rows():
    # its own _simplex gives it the generic rows, its _simplex once per distinct
    # row; the Dirichlet rows would not read it.  _DriftingRows has rows of its own
    assert ReversedDirichlet._simplex_rows is ReinforcementLaw._simplex_rows
    # 55 count vectors of sum at most 9 at degree 2, times the 19 vertices 9 steps
    # reach: more than the 50 per vertex that array rows grouped by vertex need
    assert not walk.lockstep_pays("reinforced", cycle_graph(20), _REVERSED_CYCLE, 0, 9, 1044)
    assert walk.lockstep_pays("reinforced", cycle_graph(20), _REVERSED_CYCLE, 0, 9, 1045)
    assert not walk.lockstep_pays("reinforced", cycle_graph(20), _DRIFTING_CYCLE, 0, 9, 949)
    assert walk.lockstep_pays("reinforced", cycle_graph(20), _DRIFTING_CYCLE, 0, 9, 950)


class _LeaningUniform(ReinforcementLaw):
    """Uniform weights on two moves from a held :class:`UniformLaw`, whose own
    ``_simplex`` and ``_log_weights`` lean to move 0 at odd first counts."""

    def __init__(self):
        self.uniform = UniformLaw(2)
        self.dimension = 2

    def _simplex(self, c):
        return (0.75, 0.25) if c[0] % 2 else self.uniform._simplex(c)

    def _log_weights(self, c):
        return np.log(self._simplex(c))


class _DoubleStep(ReinforcementLaw):
    """Polya weights that add 2 per traversal, from a held :class:`DirichletLaw`: its own
    formula, with its own array rows."""

    def __init__(self, alpha):
        self.polya = DirichletLaw(alpha)
        self.dimension = self.polya.dimension

    def _log_weights(self, c):
        return self.polya._log_weights(tuple(2 * k for k in c))

    def _log_weights_rows(self, c):
        return self.polya._log_weights_rows(2 * c)


#: Laws on two moves: the lock-step rows each reads on the 20-cycle (one padded
#: table, its own rows per vertex group, or its _simplex once per distinct row),
#: and whether its log weights come in one array pass.
_ROW_PATHS = {
    "uniform": (UniformLaw(2), "padded", False),
    "dirichlet": (DirichletLaw([1.0, 2.0]), "padded", True),
    "polynomial": (PolynomialDirichletLaw(**POLY_LINEAR_2D), "distinct", True),
    "induced": (EnvMomentLaw(DirichletEnv([1.0, 2.0])), "distinct", True),
    "tabulated": (_leaning_table(12, 2, "reject"), "distinct", False),
    "drifting": (DriftingLaw(), "distinct", False),
    "reversed_dirichlet": (ReversedDirichlet([1.0, 2.0]), "distinct", True),
    "tilted": (Tilted([1.0, 2.0]), "distinct", False),
    "drifting_rows": (_DriftingRows(), "array", False),
    "leaning_uniform": (_LeaningUniform(), "distinct", False),
    "double_step": (_DoubleStep([1.0, 2.0]), "distinct", True),
}


@pytest.mark.parametrize("name", sorted(_ROW_PATHS))
def test_each_law_reads_the_rows_of_its_own_forms(name):
    law, kind, array = _ROW_PATHS[name]
    assert array_rows(type(law)) is array
    graph, maps = cycle_graph(20), dict.fromkeys(range(20), law)
    assert (walk._padded_tables(maps, walk._Layout(graph), 9) is not None) is (kind == "padded")
    # 9 steps from 0 reach 19 vertices: a padded table needs one block of 64,
    # rows per vertex group 50 trajectories per vertex, distinct rows 55 per
    # vertex (the count vectors of sum at most 9 at degree 2)
    need = {"padded": 64, "array": 50 * 19, "distinct": 55 * 19}[kind]
    assert not walk.lockstep_pays("reinforced", graph, maps, 0, 9, need - 1)
    assert walk.lockstep_pays("reinforced", graph, maps, 0, 9, need)
    # every derived form has the bits of the class's own per-point form
    counts = np.array([[0, 0], [1, 0], [3, 2], [1, 0], [0, 5], [9, 9]], dtype=np.int64)
    law.__dict__.pop("_simplex_memo", None)
    rows = law._simplex_rows(counts).tolist()
    assert [[w.hex() for w in row] for row in rows] == [
        [w.hex() for w in law._simplex(tuple(c))] for c in counts.tolist()
    ]
    want = np.array([law.log_weights(c) for c in counts.tolist()])
    assert law.log_weights_batch(counts).tobytes() == want.tobytes()


def test_a_law_with_only_its_own_log_weights_walks_with_them():
    # Tilted defines _log_weights alone; its weights once came from the Polya
    # _simplex it inherited, (0.5, 0.5) at (1, 0), and the padded tables took it
    law = Tilted([1.0, 2.0])
    assert law.weights((1, 0)).weights == (0.6, 0.4)
    for c in product(range(5), repeat=2):
        assert law.weights(c).weights == tuple(np.exp(law.log_weights(c)).tolist())
    graph = segment_graph(3)
    laws = {0: UniformLaw(1), 1: law, 2: UniformLaw(1)}
    assert walk._padded_tables(laws, walk._Layout(graph), 4) is None
    # each stream's uniforms, one a step, through draw_index of the public log weights
    want = []
    for rng in stream_generators(5, 300):
        path, counts = [1], {x: [0] * graph.degree(x) for x in range(3)}
        for _ in range(4):
            x = path[-1]
            i = draw_index(np.exp(laws[x].log_weights(counts[x])).tolist(), rng.random())
            counts[x][i] += 1
            path.append(graph.neighbors[x][i])
        want.append(tuple(path))
    assert per_stream(run_reinforced, graph, laws, 1, 4, 5, 300) == want
    assert list(run_many_reinforced(graph, laws, 1, 4, 5, 300)) == want


@pytest.mark.parametrize("mode, graph, maps, steps, count, pays", [
    # a block needs its mode's LOCKSTEP_MIN_BLOCK trajectories: one long trajectory
    # runs per stream
    ("quenched", _CYCLE, QUENCHED["frozen_cycle"][1], 10**5, 1, False),
    ("quenched", _CYCLE, QUENCHED["frozen_cycle"][1], 100, 31, False),
    ("quenched", _CYCLE, QUENCHED["frozen_cycle"][1], 100, 32, True),
    ("annealed", _CYCLE, ANNEALED["dirichlet_cycle"][1], 100, 15, False),
    ("annealed", _CYCLE, ANNEALED["dirichlet_cycle"][1], 100, 16, True),
    ("annealed", _CYCLE, ANNEALED["dirichlet_cycle"][1], 100, 400, True),
    # 400 trajectories of 5,000 steps: blocks of 13
    ("annealed", _CYCLE, ANNEALED["dirichlet_cycle"][1], 5000, 400, False),
    ("reinforced", _STAR_3, REINFORCED["uniform_star"][1], 5, 4000, True),
    ("reinforced", _STAR_3, REINFORCED["uniform_star"][1], 10**5, 1, False),
    # Dirichlet and uniform laws read padded tables, whose step costs the same
    # however many vertices the walks reach: a reinforced block of 64 pays
    ("reinforced", cycle_graph(20), _DIRICHLET_CYCLE, 2, 250, True),
    ("reinforced", cycle_graph(20), _DIRICHLET_CYCLE, 30, 250, True),
    ("reinforced", cycle_graph(20), _DIRICHLET_CYCLE, 30, 1000, True),
    # 100 steps: blocks of 648
    ("reinforced", cycle_graph(20), _DIRICHLET_CYCLE, 100, 4000, True),
    ("reinforced", cycle_graph(20), _DIRICHLET_CYCLE, 100, 63, False),
    ("reinforced", cycle_graph(20), {x: UniformLaw(2) for x in range(20)}, 100, 64, True),
    # a block grouped by vertex needs LOCKSTEP_PER_VERTEX trajectories per vertex in
    # reach: 2 steps from 0 on the 20-cycle reach 5 vertices, 30 steps all 20
    ("reinforced", cycle_graph(20), _DRIFTING_CYCLE, 2, 250, True),
    ("reinforced", cycle_graph(20), _DRIFTING_CYCLE, 2, 249, False),
    ("reinforced", cycle_graph(20), _DRIFTING_CYCLE, 30, 999, False),
    ("reinforced", cycle_graph(20), _DRIFTING_CYCLE, 30, 1000, True),
    # a Dirichlet subclass with its own _simplex reads distinct rows: at 30 steps it
    # needs 496 trajectories per vertex (count vectors of sum at most 30 at degree 2),
    # more than a block of 1,638 holds
    ("reinforced", cycle_graph(20), _REVERSED_CYCLE, 2, 250, True),
    ("reinforced", cycle_graph(20), _REVERSED_CYCLE, 30, 250, False),
    ("reinforced", cycle_graph(20), _REVERSED_CYCLE, 30, 1000, False),
    ("reinforced", cycle_graph(20), _REVERSED_CYCLE, 100, 4000, False),
    # the 8-star is too wide for the padded tables; 2 steps reach its 9 vertices
    ("reinforced", star_graph(8), {0: DirichletLaw([1.0] * 8), **_leaves(star_graph(8), UniformLaw(1))},
     2, 449, False),
    ("reinforced", star_graph(8), {0: DirichletLaw([1.0] * 8), **_leaves(star_graph(8), UniformLaw(1))},
     2, 450, True),
    # a law with distinct weight rows also needs, per vertex in reach, as many
    # trajectories as count vectors of sum at most steps at the largest degree:
    # 21 at degree 2 and 5 steps (so 50 still holds), 5,151 at 100 steps
    ("reinforced", _CYCLE, {x: PolynomialDirichletLaw(**POLY_LINEAR_2D) for x in range(5)}, 5, 4000, True),
    ("reinforced", _CYCLE, REINFORCED["induced_dirichlet"][1], 5, 250, True),
    ("reinforced", _CYCLE, REINFORCED["induced_dirichlet"][1], 100, 400, False),
    # 56 at degree 3 and 5 steps, times the 3-star's 4 vertices
    ("reinforced", _STAR_3, REINFORCED["induced_polynomial"][1], 5, 224, True),
    ("reinforced", _STAR_3, REINFORCED["induced_polynomial"][1], 5, 223, False),
    ("reinforced", _STAR_3, REINFORCED["uniform_star"][1], 5, 223, True),
    # tabulated rows are distinct rows too: 50 per vertex on the 5 the cycle reaches
    ("reinforced", _CYCLE, REINFORCED["tabulated_cycle"][1], 5, 250, True),
    ("reinforced", _CYCLE, REINFORCED["tabulated_cycle"][1], 5, 249, False),
    # a map that misses a vertex runs per stream
    ("reinforced", _STAR_3, {x: REINFORCED["uniform_star"][1][x] for x in range(3)}, 5, 4000, False),
])
def test_lock_step_runs_where_it_pays(mode, graph, maps, steps, count, pays):
    assert walk.LOCKSTEP_MIN_BLOCK == {"reinforced": 64, "quenched": 32, "annealed": 16}
    assert walk.LOCKSTEP_PER_VERTEX == 50
    assert walk.lockstep_pays(mode, graph, maps, 0, steps, count) is pays


def test_graphs_past_the_table_bound_run_per_stream():
    # 255 leaves pad the star's tables to 256 * 255 elements, within
    # LOCKSTEP_ELEMENTS, and 256 leaves to 257 * 256, past it
    assert walk.lockstep_pays("quenched", star_graph(255), {}, 0, 2, 10**5)
    wide = star_graph(256)
    laws = {0: UniformLaw(256), **_leaves(wide, UniformLaw(1))}
    for mode in ("reinforced", "quenched", "annealed"):
        assert not walk.lockstep_pays(mode, wide, laws, 0, 2, 10**5)


def _counting(monkeypatch, name):
    calls = []
    original = getattr(cli, name)

    def counting(*args):
        calls.append(args[3])
        return original(*args)

    monkeypatch.setattr(cli, name, counting)
    return calls


def _simulate(tmp_path, graph, section, operation):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "schema": 1, "graph": graph, **section, "seed": 9, "operation": operation,
        "output": {"path": str(tmp_path / "t.csv"), "format": "csv"},
    }))
    code = cli.main(["simulate", "--config", str(cfg)])
    return code, (tmp_path / "t.csv").read_text().splitlines()[1:] if code == 0 else None


_POLYNOMIAL_SPEC = {"family": "polynomial_dirichlet", "alpha": [1.0, 2.0], "degree": 1,
                    "coefficients": [{"index": [1, 0], "value": 1.0},
                                     {"index": [0, 1], "value": 2.0}]}


@pytest.mark.parametrize("family, count, per_stream_runs", [
    # 3 steps from 0 on the 4-cycle reach all 4 vertices: 200 trajectories pay
    (_POLYNOMIAL_SPEC, 200, 0),
    ({"family": "dirichlet", "alpha": [1.0, 2.0]}, 200, 0),
    ({"family": "uniform"}, 200, 0),
    ({"family": "dirichlet", "alpha": [1.0, 2.0]}, 12, 12),
    (_POLYNOMIAL_SPEC, 199, 199),
])
def test_simulate_chooses_the_reinforced_runner(tmp_path, monkeypatch, family, count, per_stream_runs):
    calls = _counting(monkeypatch, "run_reinforced")
    code, rows = _simulate(tmp_path, {"generator": "cycle", "length": 4}, {"laws": {"default": family}},
                           {"mode": "reinforced", "steps": 3, "trajectories": count})
    assert code == 0
    assert len(calls) == per_stream_runs
    graph = cycle_graph(4)
    laws = {x: cli.law_from_spec(family, 2) for x in range(4)}
    assert rows == [",".join(map(str, t)) for t in per_stream(run_reinforced, graph, laws, 0, 3, 9, count)]


def test_simulate_leaves_a_reject_table_in_lock_step(tmp_path, monkeypatch, capsys):
    # 250 trajectories of 5 steps on the 4-cycle run in lock step; a vertex
    # whose counts leave the box stops the run, though perhaps at the counts
    # of another trajectory than the per-stream runs stop at
    calls = _counting(monkeypatch, "run_reinforced")
    table = {"family": "tabulated", "box": 1, "fallback": "reject",
             "entries": [{"counts": list(c), "weights": [0.5, 0.5]} for c in product(range(2), repeat=2)]}
    code, _ = _simulate(tmp_path, {"generator": "cycle", "length": 4}, {"laws": {"default": table}},
                        {"mode": "reinforced", "steps": 5, "trajectories": 250})
    assert code == cli.EXIT_EVALUATION and calls == []
    assert "outside table box" in capsys.readouterr().err
    laws = {x: cli.law_from_spec(table, 2) for x in range(4)}
    with pytest.raises(TableDomainError):
        per_stream(run_reinforced, cycle_graph(4), laws, 0, 5, 9, 250)


@pytest.mark.parametrize("mode, count, per_stream_runs", [
    ("quenched", 31, 31), ("quenched", 32, 0), ("annealed", 15, 15), ("annealed", 16, 0),
])
def test_simulate_chooses_the_fixed_environment_runner(tmp_path, monkeypatch, mode, count,
                                                      per_stream_runs):
    calls = _counting(monkeypatch, f"run_{mode}")
    envs = {"default": {"family": "dirichlet", "alpha": [1.0, 2.0]}}
    operation = {"mode": mode, "steps": 7, "trajectories": count}
    if mode == "quenched":
        operation["env_seed"] = 5
    code, rows = _simulate(tmp_path, {"generator": "cycle", "length": 6}, {"envs": envs}, operation)
    assert code == 0
    assert len(calls) == per_stream_runs
    assert len(rows) == count


@pytest.mark.parametrize("mode", ["reinforced", "quenched", "annealed"])
def test_simulate_on_a_wide_star_allocates_little(tmp_path, mode):
    # lock step would pad two tables to 1,501 * 1,500 float64 elements, 18 MB each
    leaves = 1500
    spec = ({"laws": {"default": {"family": "uniform"}}} if mode == "reinforced"
            else {"envs": {"per_vertex": {"0": {"family": "dirichlet", "alpha": [1.0] * leaves}},
                           "default": {"family": "point_mass", "weights": [1.0]}}})
    operation = {"mode": mode, "steps": 2, "trajectories": 200 if mode != "annealed" else 64}
    if mode == "quenched":
        operation["env_seed"] = 5
    tracemalloc.start()
    try:
        code, rows = _simulate(tmp_path, {"generator": "star", "leaves": leaves}, spec, operation)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and len(rows) == operation["trajectories"]
    assert peak < 8 * 2**20
