"""Every law and environment class is final, and reads its one formula through every form.

A class derived from ``ReinforcementLaw`` or ``VertexEnvLaw`` raises
``TypeError`` when it is created unless that base is its first parent: a
subclass of a built-in family, of a custom class, or with a mixin before
the base.  A custom law subclasses ``ReinforcementLaw`` and defines
``log_weights`` or ``_log_weights``; a custom environment subclasses
``VertexEnvLaw`` and defines ``log_mixed_moment`` and ``sample``; either
holds another law or environment, built-in or custom, to reuse its formula.
Its per-point, batch and lock-step reads must all give the bits of that
formula.
"""

from itertools import product

import numpy as np
import pytest

from catalog import POLY_LINEAR_2D
from oracles import ReversedDirichlet
from urnwalk import walk
from urnwalk.environment import (
    DirichletEnv,
    EmpiricalEnv,
    EnvMomentLaw,
    PointMassEnv,
    PolynomialDirichletEnv,
    VertexEnvLaw,
    draw_environments,
)
from urnwalk.laws import (
    DirichletLaw,
    PolynomialDirichletLaw,
    ReinforcementLaw,
    SimplexPoint,
    TabulatedLaw,
    UniformLaw,
    check_counts,
)
from urnwalk.walk import (
    cycle_graph,
    run_annealed,
    run_many_annealed,
    run_many_reinforced,
    run_reinforced,
    star_graph,
    stream_generators,
)

_LEANING = np.log([0.9, 0.1])

BUILTINS = {
    UniformLaw: ReinforcementLaw,
    DirichletLaw: ReinforcementLaw,
    PolynomialDirichletLaw: ReinforcementLaw,
    TabulatedLaw: ReinforcementLaw,
    EnvMomentLaw: ReinforcementLaw,
    DirichletEnv: VertexEnvLaw,
    PolynomialDirichletEnv: VertexEnvLaw,
    PointMassEnv: VertexEnvLaw,
    EmpiricalEnv: VertexEnvLaw,
}


class _PublicLeaning(ReinforcementLaw):
    """Weights (0.9, 0.1) at odd first counts and (0.1, 0.9) elsewhere, through ``log_weights`` alone."""

    dimension = 2

    def log_weights(self, counts):
        c = self._check_counts(counts)
        return _LEANING if c[0] % 2 else _LEANING[::-1]


class _Leaning(ReinforcementLaw):
    """Weights (0.9, 0.1) at every count vector, through ``_log_weights`` alone."""

    dimension = 2

    def _log_weights(self, c):
        return _LEANING.copy()


class _LeaningAtOddCounts(ReinforcementLaw):
    """A held :class:`_Leaning` law's row, reversed at odd first counts."""

    dimension = 2
    leaning = _Leaning()

    def _log_weights(self, c):
        row = self.leaning._log_weights(c)
        return row[::-1] if c[0] % 2 else row


class _HeldPolya(ReinforcementLaw):
    """Polya weights whose ``_simplex`` and ``_log_weights`` both read a held :class:`DirichletLaw`."""

    def __init__(self, alpha):
        self.polya = DirichletLaw(alpha)
        self.dimension = self.polya.dimension

    def _simplex(self, c):
        return self.polya._simplex(c)

    def _log_weights(self, c):
        return self.polya._log_weights(c)


class _Reversed(VertexEnvLaw):
    """A held environment's law with its coordinates reversed: ``sample`` wraps the held one's."""

    def __init__(self, env):
        self.env = env
        self.dimension = env.dimension

    def log_mixed_moment(self, counts):
        c = check_counts(counts, self.dimension, "environment")
        return self.env.log_mixed_moment(c[::-1])

    def sample(self, rng):
        return SimplexPoint(self.env.sample(rng).weights[::-1])


class _ReversedTwice(VertexEnvLaw):
    """A held :class:`_Reversed` environment's law reversed again: the law of the one it holds."""

    def __init__(self, env):
        self.reversed = _Reversed(env)
        self.dimension = env.dimension

    def log_mixed_moment(self, counts):
        c = check_counts(counts, self.dimension, "environment")
        return self.reversed.log_mixed_moment(c[::-1])

    def sample(self, rng):
        return SimplexPoint(self.reversed.sample(rng).weights[::-1])


LAWS = {
    "own_log_weights": _PublicLeaning(),
    "own_private_log_weights": _Leaning(),
    "held_custom_law": _LeaningAtOddCounts(),
    "held_dirichlet_simplex_and_log_weights": _HeldPolya([1.0, 3.0]),
    "held_dirichlet_reversed": ReversedDirichlet([0.5, 1.0, 2.0]),
}

ENVS = {
    "sample_wraps_held_dirichlet": _Reversed(DirichletEnv([1.0, 3.0])),
    "sample_wraps_held_polynomial": _Reversed(PolynomialDirichletEnv(**POLY_LINEAR_2D)),
    "held_custom_environment": _ReversedTwice(DirichletEnv([1.0, 3.0])),
}


def _hex(rows):
    return [[float(w).hex() for w in row] for row in rows]


def _check_law_forms(law):
    """weights, log_weights, log_weights_batch and _simplex_rows agree, no padded table takes
    the law, and lock-step walks are the per-stream walks."""
    d = law.dimension
    counts = [c for c in product(range(4), repeat=d) if sum(c) <= 4]
    logs = [law.log_weights(c) for c in counts]
    weights = [law.weights(c).weights for c in counts]
    # to an ulp: numpy's exp may round apart from the one the law takes
    np.testing.assert_allclose(weights, np.exp(logs), rtol=1e-15, atol=0)
    table = np.array(counts, dtype=np.int64)
    assert law.log_weights_batch(table).tobytes() == np.array(logs).tobytes()
    assert _hex(law._simplex_rows(table)) == _hex(weights)
    graph = star_graph(d) if d > 2 else cycle_graph(5)
    maps = {x: law if graph.degree(x) == d else UniformLaw(1) for x in range(graph.vertex_count)}
    assert walk._padded_tables(maps, walk._Layout(graph), 9) is None
    per_stream = [run_reinforced(graph, maps, 0, 9, rng) for rng in stream_generators(3, 200)]
    assert list(run_many_reinforced(graph, maps, 0, 9, 3, 200)) == per_stream


def _reversed_simplex(self, c):
    return ReinforcementLaw._simplex(self, c)[::-1]


class _Mixin:
    """A plain class that a law or environment may not place before its base."""


def _refused(bases, body, base):
    with pytest.raises(TypeError, match=rf"^Own must subclass {base.__name__} directly: hold "):
        type("Own", bases, body)


@pytest.mark.parametrize("cls", list(BUILTINS), ids=lambda cls: cls.__name__)
# with its own _simplex, a DirichletLaw([1, 3]) subclass once walked with weights
# (0.75, 0.25) at (0, 0), while its log_weights and log_weights_batch gave (0.25, 0.75)
@pytest.mark.parametrize("body", [{}, {"_simplex": _reversed_simplex}],
                         ids=["empty", "own_simplex"])
def test_a_built_in_family_refuses_a_subclass(cls, body):
    _refused((cls,), body, BUILTINS[cls])
    # a custom class between does not hide it
    _refused((type("Mixed", (BUILTINS[cls],), {}), cls), body, BUILTINS[cls])


class _HeldEnv(VertexEnvLaw):
    """A held environment's law, read through every form of it."""

    def __init__(self, env):
        self.env = env
        self.dimension = env.dimension

    def log_mixed_moment(self, counts):
        return self.env.log_mixed_moment(counts)

    def log_mixed_moments(self, counts):
        return self.env.log_mixed_moments(counts)

    def sample(self, rng):
        return self.env.sample(rng)


@pytest.mark.parametrize("parent, body", [
    # a child with only its own _log_weights would walk, and be scanned, with the
    # parent's _simplex and _log_weights_rows: the parent's formula
    (ReversedDirichlet, {"_log_weights": ReversedDirichlet._log_weights}),
    (ReversedDirichlet, {"log_weights": ReversedDirichlet.log_weights}),
    (_HeldPolya, {"_log_weights": _HeldPolya._log_weights}),
    (_HeldEnv, {"sample": _HeldEnv.sample}),
    (_HeldEnv, {"log_mixed_moment": _HeldEnv.log_mixed_moment}),
    # children whose forms would all read one formula: refused all the same
    (ReversedDirichlet, {}),
    (ReversedDirichlet, {k: vars(ReversedDirichlet)[k]
                         for k in ("_simplex", "_log_weights", "_log_weights_rows")}),
    (_Leaning, {"_log_weights": _LeaningAtOddCounts._log_weights}),
    (_Reversed, {}),
], ids=lambda v: v.__name__ if isinstance(v, type) else "+".join(v) or "empty")
def test_a_custom_class_refuses_a_subclass(parent, body):
    base = ReinforcementLaw if issubclass(parent, ReinforcementLaw) else VertexEnvLaw
    _refused((parent,), body, base)


@pytest.mark.parametrize("base, body", [
    (ReinforcementLaw, {"dimension": 2, "_log_weights": _Leaning._log_weights}),
    (VertexEnvLaw, {"log_mixed_moment": _Reversed.log_mixed_moment, "sample": _Reversed.sample}),
], ids=["law", "environment"])
def test_a_mixin_before_the_base_is_refused(base, body):
    _refused((_Mixin, base), body, base)
    # after the base, the base's forms come first
    type("Own", (base, _Mixin), body)


def test_a_class_holding_a_custom_one_reads_its_own_formula():
    law = _LeaningAtOddCounts()
    assert law.log_weights((1, 0)).tobytes() == _LEANING[::-1].tobytes()
    assert law.weights((1, 0)).weights == tuple(np.exp(_LEANING[::-1]).tolist())
    assert law.log_weights((2, 0)).tobytes() == _LEANING.tobytes()
    env, held = _ReversedTwice(DirichletEnv([1.0, 3.0])), DirichletEnv([1.0, 3.0])
    for c in product(range(3), repeat=2):
        assert env.log_mixed_moment(c) == held.log_mixed_moment(c)
    drawn = draw_environments([env], [np.random.default_rng(5)])[0].tolist()
    assert drawn == list(held.sample(np.random.default_rng(5)).weights)


@pytest.mark.parametrize("name", sorted(LAWS))
def test_every_form_of_a_custom_law_reads_its_formula(name):
    _check_law_forms(LAWS[name])


@pytest.mark.parametrize("name", sorted(ENVS))
def test_every_form_of_a_custom_environment_reads_its_formula(name):
    env = ENVS[name]
    counts = np.array(list(product(range(5), repeat=2)), dtype=np.int64)
    want = [env.log_mixed_moment(c) for c in counts.tolist()]
    assert env.log_mixed_moments(counts).tobytes() == np.array(want).tobytes()
    for seed in range(5):
        point = env.sample(np.random.default_rng(seed)).weights
        assert draw_environments([env], [np.random.default_rng(seed)])[0].tolist() == list(point)
    _check_law_forms(EnvMomentLaw(env))
    graph, envs = cycle_graph(5), dict.fromkeys(range(5), env)
    per_stream = [run_annealed(graph, envs, 0, 10, rng) for rng in stream_generators(7, 200)]
    assert list(run_many_annealed(graph, envs, 0, 10, 7, 200)) == per_stream


def test_a_law_without_a_formula_raises_not_implemented():
    class Bare(ReinforcementLaw):
        dimension = 2

    with pytest.raises(NotImplementedError):
        Bare().log_weights((0, 0))
    with pytest.raises(NotImplementedError):
        Bare().weights((0, 0))
