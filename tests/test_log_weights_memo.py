"""The per-law memo of public log weights, and the bound on every per-law memo."""

from collections import Counter
from functools import wraps
from itertools import product
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import path_product
from urnwalk import (
    check_admissible,
    compare_distributions,
    enumerate_annealed,
    enumerate_reinforced,
    tabulated_witness,
)
from urnwalk import laws
from urnwalk.catalog import POLY_QUADRATIC_3D
from urnwalk.environment import DirichletEnv, PolynomialDirichletEnv, law_from_env
from urnwalk.errors import DimensionMismatchError, EvaluationError
from urnwalk.laws import DirichletLaw, PolynomialDirichletLaw, ReinforcementLaw, UniformLaw
from urnwalk.walk import cycle_graph, grid_graph, run_reinforced, star_graph

FAMILIES = {
    "dirichlet": lambda: DirichletLaw([0.5, 2.0, 1.5]),
    "polynomial": lambda: PolynomialDirichletLaw(**POLY_QUADRATIC_3D),
    "induced_dirichlet": lambda: law_from_env(DirichletEnv([0.5, 0.5, 2.0])),
    "induced_polynomial": lambda: law_from_env(PolynomialDirichletEnv(**POLY_QUADRATIC_3D)),
}

#: One instance per family, shared by every example, so later examples meet a warm memo.
WARM = {name: make() for name, make in FAMILIES.items()}


class CountingDirichlet(DirichletLaw):
    """Polya weights that count their unmemoised evaluations per count vector."""

    def __init__(self, alpha):
        super().__init__(alpha)
        self.calls = Counter()

    def _log_weights(self, c):
        self.calls[c] += 1
        return super()._log_weights(c)


class Tilted(DirichletLaw):
    """Polya weights with move 0 favoured at odd first counts: not closed."""

    def _log_weights(self, c):
        w = np.exp(super()._log_weights(c))
        if c[0] % 2:
            w[0] *= 1.5
        return np.log(w / w.sum())


class FreshEach(ReinforcementLaw):
    """Evaluates every call on a new instance, so no call meets a memo."""

    def __init__(self, make):
        self.make = make
        self.dimension = make().dimension

    def log_weights(self, counts):
        return self.make().log_weights(counts)


def bits(violations):
    return [(v.counts, v.i, v.j, v.lhs.hex(), v.rhs.hex(), v.gap.hex()) for v in violations]


@pytest.mark.parametrize("name", sorted(FAMILIES))
@given(counts=st.lists(st.integers(min_value=0, max_value=20), min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_a_warm_memo_returns_the_bits_of_a_fresh_instance(name, counts):
    want = FAMILIES[name]().log_weights(counts).tobytes()
    assert WARM[name].log_weights(counts).tobytes() == want
    assert WARM[name].log_weights(tuple(counts)).tobytes() == want


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_writing_into_a_result_does_not_change_the_next_one(name):
    law = FAMILIES[name]()
    want = law.log_weights((1, 2, 0)).copy()
    for _ in range(2):
        got = law.log_weights((1, 2, 0))
        assert got.tobytes() == want.tobytes()
        got[:] = 7.0
    assert law.log_weights((1, 2, 0)).tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(FAMILIES))
@pytest.mark.parametrize(
    "bad, error",
    [((-1, 0, 0), ValueError), ((0.5, 0, 0), ValueError),
     ((0, 0), DimensionMismatchError), ((0, 0, 0, 0), DimensionMismatchError)],
)
def test_invalid_counts_raise_on_every_call_and_are_never_stored(name, bad, error):
    law = FAMILIES[name]()
    for _ in range(3):
        with pytest.raises(error):
            law.log_weights(bad)
    assert not hasattr(law, "_log_weights_memo")
    law.log_weights((0, 0, 0))
    for _ in range(3):
        with pytest.raises(error):
            law.log_weights(bad)
    assert list(law._log_weights_memo) == [(0, 0, 0)]


def test_an_evaluation_error_is_raised_again_and_not_stored():
    class Partial(CountingDirichlet):
        def _log_weights(self, c):
            if c == (2, 0):
                self.calls[c] += 1
                raise EvaluationError("no value at (2, 0)")
            return super()._log_weights(c)

    law = Partial([1.0, 1.0])
    for _ in range(3):
        with pytest.raises(EvaluationError):
            law.log_weights((2, 0))
    assert law.calls[(2, 0)] == 3
    assert (2, 0) not in law.__dict__.get("_log_weights_memo", {})


def test_the_memo_stops_growing_at_its_limit(monkeypatch):
    monkeypatch.setattr(laws, "SIMPLEX_MEMO_LIMIT", 5)
    law = CountingDirichlet([1.0, 2.0])
    counts = [(a, 3) for a in range(12)]
    first = [law.log_weights(c).tobytes() for c in counts]
    assert len(law._log_weights_memo) == 5
    assert [law.log_weights(c).tobytes() for c in counts] == first
    assert len(law._log_weights_memo) == 5
    # the five kept vectors are served from the memo, the rest evaluated again
    assert [law.calls[c] for c in counts] == [1] * 5 + [2] * 7


def test_the_sampler_does_not_fill_the_log_weights_memo():
    leaves = {x: UniformLaw(1) for x in (1, 2, 3)}
    for make in FAMILIES.values():
        law = make()
        run_reinforced(star_graph(3), {0: law, **leaves}, 0, 40, np.random.default_rng(3))
        assert law._simplex_memo
        assert not hasattr(law, "_log_weights_memo")


@pytest.mark.parametrize(
    "make, box",
    [(tabulated_witness, 1), (lambda: Tilted([0.5, 1.0, 2.0]), 4), (lambda: Tilted([1.0, 3.0]), 6)],
)
def test_a_memoised_scan_reports_the_violations_of_an_unmemoised_one(make, box):
    want = bits(check_admissible(FreshEach(make), box).violations)
    assert want
    law = make()
    # the first scan fills the memo, the second is served from it
    for _ in range(2):
        assert bits(check_admissible(law, box).violations) == want


@pytest.mark.parametrize("d, box", [(2, 5), (3, 3), (4, 2), (4, 3)])
def test_the_scan_makes_one_public_call_per_square_corner_and_one_evaluation_per_vector(
    monkeypatch, d, box
):
    public = Counter()
    original = DirichletLaw.__dict__["log_weights"]

    @wraps(original)
    def counting(self, counts):
        public[tuple(counts)] += 1
        return original(self, counts)

    # wrapped on the class, where a tracer wraps it
    monkeypatch.setattr(DirichletLaw, "log_weights", counting)
    law = CountingDirichlet([1.0 + i for i in range(d)])
    report = check_admissible(law, box)
    assert report.admissible
    assert sum(public.values()) == box**d * (1 + d * (d - 1))
    # each vector of the box's corners and their bumps is computed once
    assert sum(law.calls.values()) == len(law.calls) == box**d + d * box ** (d - 1)
    assert set(law.calls) == set(public)


def test_path_products_are_the_same_warm_and_fresh():
    law = WARM["induced_polynomial"]
    for path in ([0, 1, 2, 2, 0], [2, 2, 1, 0, 0], [1, 1, 1]):
        fresh = path_product(FAMILIES["induced_polynomial"](), path)
        assert path_product(law, path).hex() == fresh.hex()


@pytest.mark.parametrize(
    "make, cache",
    [(FAMILIES["polynomial"], "_log_poly_cache"),
     # the induced law reads the moments from its environment's memo
     (FAMILIES["induced_dirichlet"], "env._log_moment_memo"),
     (FAMILIES["induced_polynomial"], "env._log_moment_memo")],
)
def test_the_inner_caches_stop_at_the_limit_and_recompute_the_same_bits(monkeypatch, make, cache):
    counts = list(product(range(4), repeat=3))
    want = [make()._simplex(c) for c in counts]
    monkeypatch.setattr(laws, "SIMPLEX_MEMO_LIMIT", 5)
    law = make()
    assert [law._simplex(c) for c in counts] == want
    assert len(attrgetter(cache)(law)) == 5
    # past the simplex memo's limit each point is evaluated again, through the full inner cache
    assert [law._simplex(c) for c in counts] == want
    assert len(attrgetter(cache)(law)) == 5


def test_the_limit_bounds_the_polynomial_cache_of_a_long_walk(monkeypatch):
    law_at = {x: PolynomialDirichletLaw([1.0, 2.0], 2, {(2, 0): 1.0, (1, 1): 0.5})
              for x in range(3)}
    want = run_reinforced(cycle_graph(3), law_at, 0, 300, np.random.default_rng(5))
    monkeypatch.setattr(laws, "SIMPLEX_MEMO_LIMIT", 20)
    law_at = {x: PolynomialDirichletLaw([1.0, 2.0], 2, {(2, 0): 1.0, (1, 1): 0.5})
              for x in range(3)}
    assert run_reinforced(cycle_graph(3), law_at, 0, 300, np.random.default_rng(5)) == want
    for law in law_at.values():
        assert len(law._simplex_memo) == 20
        assert len(law._log_poly_cache) == 20


@pytest.mark.parametrize("annealed_first", [True, False])
def test_an_exact_compare_with_induced_laws_evaluates_each_moment_once(monkeypatch,
                                                                      annealed_first):
    calls = Counter()
    for cls in (DirichletEnv, PolynomialDirichletEnv):
        def counting(self, counts, original=cls.__dict__["log_mixed_moment"]):
            calls[id(self), tuple(counts)] += 1
            return original(self, counts)

        monkeypatch.setattr(cls, "log_mixed_moment", counting)
    graph = grid_graph(3, 3)
    envs = {x: DirichletEnv([0.5 + i for i in range(graph.degree(x))])
            for x in range(graph.vertex_count)}
    envs[1] = PolynomialDirichletEnv(**POLY_QUADRATIC_3D)
    laws_at = {x: law_from_env(env) for x, env in envs.items()}
    if annealed_first:
        annealed = enumerate_annealed(graph, envs, 0, 6)
        reinforced = enumerate_reinforced(graph, laws_at, 0, 6)
    else:
        reinforced = enumerate_reinforced(graph, laws_at, 0, 6)
        annealed = enumerate_annealed(graph, envs, 0, 6)
    assert compare_distributions(reinforced, annealed).total_variation < 1e-12
    # both walks read one memo per environment: no (environment, counts) twice
    assert len(calls) > 50 and set(calls.values()) == {1}


def test_the_moment_memo_keeps_no_counts_it_rejects():
    env = DirichletEnv([1.0, 2.0])
    assert env._memo_log_moment((1, 2)) == env.log_mixed_moment((1, 2))
    for _ in range(2):
        with pytest.raises(DimensionMismatchError):
            env._memo_log_moment((1, 2, 3))
    assert list(env._log_moment_memo) == [(1, 2)]
