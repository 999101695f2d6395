"""A law or environment subclass reads its own formula through every form, or is refused.

Each case below is a subclass that redefines one per-point form of a
built-in class.  Its per-point, batch and lock-step reads must all give the
bits of that form; a subclass whose inherited forms would not read its own
is refused when the class is created.
"""

from itertools import product

import numpy as np
import pytest

from urnwalk import walk
from urnwalk.catalog import POLY_LINEAR_2D, POLY_QUADRATIC_3D
from urnwalk.environment import DirichletEnv, EnvMomentLaw, PolynomialDirichletEnv
from urnwalk.laws import (
    DirichletLaw,
    PolynomialDirichletLaw,
    ReinforcementLaw,
    SimplexPoint,
    TabulatedLaw,
    UniformLaw,
    check_counts,
    log_rising_factorial,
)
from urnwalk.walk import (
    cycle_graph,
    run_annealed,
    run_many_annealed,
    star_graph,
    stream_generators,
)

_LEANING = np.log([0.9, 0.1])


class _TotalPolynomial(PolynomialDirichletLaw):
    """Polya weights: its ``_log_poly`` is ``log (A + |c|)_n``, the polynomial of the total."""

    def _log_poly(self, counts):
        return log_rising_factorial(self._alpha_total + sum(counts), self.degree)


class _LeaningUniform(UniformLaw):
    """Weights (0.9, 0.1) at every count vector, through the public ``log_weights``."""

    def log_weights(self, counts):
        self._check_counts(counts)
        return _LEANING


class _PrivateLeaningUniform(UniformLaw):
    """Weights (0.9, 0.1) at every count vector, through ``_log_weights`` alone."""

    def _log_weights(self, c):
        return _LEANING.copy()


class _PrivateLeaningTable(TabulatedLaw):
    """A uniform table whose ``_log_weights`` alone gives weights (0.9, 0.1)."""

    def _log_weights(self, c):
        return _LEANING.copy()


_HALVES = {c: SimplexPoint((0.5, 0.5)) for c in product(range(2), repeat=2)}


class _PointMassMoments(DirichletEnv):
    """The moments of a point mass at (0.9, 0.1), over Dirichlet draws."""

    def log_mixed_moment(self, counts):
        return float(np.dot(check_counts(counts, 2, "environment"), _LEANING))


class _OneUniformDraw(DirichletEnv):
    """One uniform per draw, and the point (0.99, 0.01)."""

    def sample(self, rng):
        rng.random()
        return SimplexPoint((0.99, 0.01))


class _ReversedDraw(DirichletEnv):
    """A Dirichlet draw in reverse order, through ``super().sample``."""

    def sample(self, rng):
        return SimplexPoint(tuple(reversed(super().sample(rng).weights)))


class _ReversedPolynomialDraw(PolynomialDirichletEnv):
    """A polynomial environment's draw in reverse order, through ``super().sample``."""

    def sample(self, rng):
        return SimplexPoint(tuple(reversed(super().sample(rng).weights)))


CASES = {
    "polynomial_law_own_log_poly": _TotalPolynomial(**POLY_QUADRATIC_3D),
    "uniform_law_own_log_weights": _LeaningUniform(2),
    "uniform_law_own_private_log_weights": _PrivateLeaningUniform(2),
    "tabulated_law_own_private_log_weights": _PrivateLeaningTable(1, _HALVES, "clamp"),
    "dirichlet_env_own_moment": _PointMassMoments([1.0, 2.0]),
    "dirichlet_env_own_sample": _OneUniformDraw([1.0, 1.0]),
    "dirichlet_env_sample_wraps_super": _ReversedDraw([1.0, 3.0]),
    "polynomial_env_sample_wraps_super": _ReversedPolynomialDraw(**POLY_LINEAR_2D),
}


def _hex(rows):
    return [[float(w).hex() for w in row] for row in rows]


def _check_law_forms(law):
    """weights, log_weights, log_weights_batch and _simplex_rows agree; no padded table takes it."""
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_form_reads_the_subclass_formula(name):
    case = CASES[name]
    if not hasattr(case, "sample"):
        _check_law_forms(case)
        return
    counts = np.array(list(product(range(5), repeat=2)), dtype=np.int64)
    want = [case.log_mixed_moment(c) for c in counts.tolist()]
    assert case.log_mixed_moments(counts).tobytes() == np.array(want).tobytes()
    _check_law_forms(EnvMomentLaw(case))
    graph, envs = cycle_graph(5), dict.fromkeys(range(5), case)
    per_stream = [run_annealed(graph, envs, 0, 10, rng) for rng in stream_generators(7, 200)]
    assert list(run_many_annealed(graph, envs, 0, 10, 7, 200)) == per_stream


@pytest.mark.parametrize("base, form, override", [
    (DirichletLaw, "log_weights", "_log_weights"),
    (PolynomialDirichletLaw, "log_weights", "_log_weights"),
    (EnvMomentLaw, "log_weights", "_log_weights"),
    (TabulatedLaw, "log_weights", "weights"),
    (DirichletEnv, "_draw", "sample"),
])
def test_a_subclass_whose_inherited_forms_skip_its_own_is_refused(base, form, override):
    # a DirichletLaw([1, 2]) subclass whose log_weights read log (0.9, 0.1) once had
    # weights (1/3, 2/3) and Polya batch rows; the draws of a _draw-only Dirichlet
    # environment would reach the lock step alone
    with pytest.raises(TypeError, match=rf"inherits \w+\.{override}, which does not "
                                        rf"read it: override {override}$"):
        type("Own", (base,), {form: lambda self, counts: _LEANING})


@pytest.mark.parametrize("law", [_PrivateLeaningUniform(2), _PrivateLeaningTable(1, _HALVES, "clamp")])
def test_the_public_reads_of_a_private_formula(law):
    # the constant row, or the table's (0.5, 0.5), before log_weights and weights were derived
    assert np.exp(law.log_weights((0, 0))).tolist() == pytest.approx([0.9, 0.1], rel=1e-15)
    assert law.log_weights((3, 0)).tobytes() == _LEANING.tobytes()
    assert law.weights((0, 3)).weights == law._simplex((0, 3))


def test_a_subclass_keeps_the_public_reads_that_read_its_formula():
    # DirichletLaw's log_weights reads the memo of _log_weights, and its weights read _simplex
    class Tilted(DirichletLaw):
        def _log_weights(self, c):
            return _LEANING.copy()

    assert "log_weights" not in vars(Tilted) and "weights" not in vars(Tilted)
    assert Tilted([1.0, 2.0]).log_weights((1, 0)).tobytes() == _LEANING.tobytes()
    assert Tilted([1.0, 2.0]).weights((1, 0)).weights == tuple(np.exp(_LEANING).tolist())


def test_a_law_without_a_formula_raises_not_implemented():
    class Bare(ReinforcementLaw):
        dimension = 2

    with pytest.raises(NotImplementedError):
        Bare().log_weights((0, 0))
    with pytest.raises(NotImplementedError):
        Bare().weights((0, 0))
