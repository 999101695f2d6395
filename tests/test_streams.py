"""Per-run streams: ``make_stream``, ``stream_generators`` and ``philox_uniforms`` against numpy's
own Philox, bit for bit.

Stream ``i`` of seed ``s`` is ``Generator(Philox(key=s, counter=[0, 0, i, 0]))``,
built here independently of the package.  ``philox_uniforms`` is integer
arithmetic on uint64 arrays, so its bits must not depend on the SIMD
extensions numpy dispatches to; CI runs this file a second time with the
AVX-512 ones disabled.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urnwalk import walk
from urnwalk.environment import DirichletEnv, PointMassEnv
from urnwalk.laws import DirichletLaw, UniformLaw
from urnwalk.walk import (
    ENVIRONMENT_STREAM,
    PHILOX_MAX_STEPS,
    PHILOX_MIN_STREAMS,
    cycle_graph,
    make_stream,
    philox_uniforms,
    run_annealed,
    run_many_annealed,
    run_many_quenched,
    run_many_reinforced,
    run_quenched,
    run_reinforced,
    sample_environment,
    star_graph,
    stream_generators,
)

EDGE_SEEDS = [0, 1, 2**32, 2**64 - 1]

#: Raw words drawn per stream: three of Philox's four-word blocks and one more.
WORDS = 13


def philox(seed, stream):
    # uint64 words: a list would pass through int64 and lose streams from 2**63 on
    counter = np.array([0, 0, stream, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=seed, counter=counter))


def words(rng):
    return rng.bit_generator.random_raw(WORDS).tolist()


@pytest.mark.parametrize("seed", EDGE_SEEDS)
@pytest.mark.parametrize("count", [1, 300])
def test_streams_are_numpys_philox(seed, count):
    want = [words(philox(seed, i)) for i in range(count)]
    assert [words(rng) for rng in stream_generators(seed, count)] == want
    assert [words(make_stream(seed, i)) for i in range(count)] == want


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, 40))
def test_streams_match_for_any_seed(seed, count):
    want = [philox(seed, i).random(3).tolist() for i in range(count)]
    assert [rng.random(3).tolist() for rng in stream_generators(seed, count)] == want


def test_the_environment_stream_is_counter_word_3():
    want = np.random.Generator(np.random.Philox(key=9, counter=[0, 0, 0, 1]))
    assert words(make_stream(9, ENVIRONMENT_STREAM)) == words(want)
    assert words(make_stream(9, ENVIRONMENT_STREAM)) != words(make_stream(9, 0))


@pytest.mark.parametrize("seed", [-1, 2**128])
def test_a_seed_outside_128_bits_is_rejected(seed):
    with pytest.raises(ValueError):
        make_stream(seed)
    with pytest.raises(ValueError):
        next(stream_generators(seed, 2))


def test_no_streams_for_a_zero_count():
    assert list(stream_generators(3, 0)) == []


def test_the_generator_is_shared_and_draws_each_stream():
    seen = set()
    for i, rng in enumerate(stream_generators(11, 50)):
        seen.add(id(rng))
        assert rng.random(5).tolist() == philox(11, i).random(5).tolist()
    assert len(seen) == 1


def test_gamma_words_do_not_carry_into_the_next_stream():
    # gamma draws take a variable number of raw words, here a few partial blocks
    alpha = [0.3, 0.7, 2.0]
    fresh = [philox(4, i).dirichlet(alpha).tolist() for i in range(100)]
    assert [rng.dirichlet(alpha).tolist() for rng in stream_generators(4, 100)] == fresh
    env = DirichletEnv([0.004, 0.5, 3.0])
    fresh = [env.sample(philox(4, i)) for i in range(100)]
    assert [env.sample(rng) for rng in stream_generators(4, 100)] == fresh


def test_a_half_used_word_does_not_carry_into_the_next_stream():
    # one float32 takes half of a 64-bit word and caches the other half
    fresh = [philox(6, i).random(1, dtype=np.float32).tolist() for i in range(20)]
    shared = [rng.random(1, dtype=np.float32).tolist() for rng in stream_generators(6, 20)]
    assert shared == fresh


_STAR = star_graph(3)
_LAWS = {0: DirichletLaw([0.5, 1.0, 2.0]), **{x: UniformLaw(1) for x in (1, 2, 3)}}
_ENVS = {0: DirichletEnv([0.004, 0.6, 1.5]), **{x: PointMassEnv((1.0,)) for x in (1, 2, 3)}}
_CYCLE = cycle_graph(4)
_CYCLE_ENVS = {x: DirichletEnv([0.2, 1.3]) for x in range(4)}

#: name: (per-stream run, lock-step run, graph, laws or environments)
RUNS = {
    "reinforced_star": (run_reinforced, run_many_reinforced, _STAR, _LAWS),
    "annealed_star": (run_annealed, run_many_annealed, _STAR, _ENVS),
    "annealed_cycle": (run_annealed, run_many_annealed, _CYCLE, _CYCLE_ENVS),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_walks_are_those_of_fresh_streams(name):
    run, _, graph, maps = RUNS[name]
    fresh = [run(graph, maps, 0, 12, philox(8, i)) for i in range(200)]
    assert [run(graph, maps, 0, 12, rng) for rng in stream_generators(8, 200)] == fresh


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(RUNS)), st.integers(0, 2**64 - 1), st.integers(1, 80),
       st.integers(1, 80), st.integers(0, 8))
def test_fewer_trajectories_and_steps_are_a_prefix(name, seed, n, k, steps):
    run, many, graph, maps = RUNS[name]
    k = min(k, n)
    longer = list(many(graph, maps, 0, steps + 1, seed, n))
    assert list(many(graph, maps, 0, steps, seed, k)) == [t[:-1] for t in longer[:k]]
    assert [run(graph, maps, 0, steps, rng) for rng in stream_generators(seed, k)] == \
        [t[:-1] for t in longer[:k]]


def numpys_uniforms(seed, first, n, steps):
    """Streams ``first`` to ``first + n - 1``, each from its own generator."""
    return np.array([philox(seed, first + k).random(steps) for k in range(n)]).reshape(n, steps)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**128 - 1), st.integers(0, 50), st.integers(0, 40), st.data())
def test_the_kernel_is_numpys_philox(seed, n, steps, data):
    first = data.draw(st.one_of(st.integers(0, 1000), st.integers(0, 2**64 - n),
                                st.just(2**64 - n)))
    got = philox_uniforms(seed, first, n, steps)
    assert got.shape == (n, steps)
    assert got.tobytes() == numpys_uniforms(seed, first, n, steps).tobytes()


@pytest.mark.parametrize("seed", EDGE_SEEDS + [2**127, 2**128 - 1])
def test_the_kernel_spans_its_chunks(seed):
    # 4,096 counters an array pass: 3,000 streams of 12 steps take passes of 1,365, 1,365 and 270
    want = numpys_uniforms(seed, 5, 3000, 12)
    assert philox_uniforms(seed, 5, 3000, 12).tobytes() == want.tobytes()


_FROZEN = sample_environment(_CYCLE, _CYCLE_ENVS, make_stream(3))

#: name: (per-stream run, lock-step run, graph, laws or assignment)
KERNEL_RUNS = {
    "reinforced_star": (run_reinforced, run_many_reinforced, _STAR, _LAWS),
    "quenched_cycle": (run_quenched, run_many_quenched, _CYCLE, _FROZEN),
}


@pytest.mark.parametrize("count, steps, kernel", [
    (PHILOX_MIN_STREAMS, PHILOX_MAX_STEPS, True),
    (PHILOX_MIN_STREAMS + 50, 1, True),
    (PHILOX_MIN_STREAMS, PHILOX_MAX_STEPS + 1, False),
    (PHILOX_MIN_STREAMS - 1, 5, False),
])
@pytest.mark.parametrize("name", sorted(KERNEL_RUNS))
def test_lock_step_runs_on_either_side_of_the_kernel_rule(monkeypatch, name, count, steps, kernel):
    run, many, graph, maps = KERNEL_RUNS[name]
    calls = []
    monkeypatch.setattr(walk, "philox_uniforms", lambda *args: calls.append(args) or
                        philox_uniforms(*args))
    want = [run(graph, maps, 0, steps, rng) for rng in stream_generators(21, count)]
    assert list(many(graph, maps, 0, steps, 21, count)) == want
    assert bool(calls) == kernel


@pytest.mark.parametrize("seed", [-1, 2**128, 2**130])
@pytest.mark.parametrize("name", sorted(KERNEL_RUNS))
def test_the_kernel_rejects_a_seed_as_make_stream_does(name, seed):
    _, many, graph, maps = KERNEL_RUNS[name]
    with pytest.raises(ValueError) as want:
        make_stream(seed)
    with pytest.raises(ValueError) as got:
        list(many(graph, maps, 0, 5, seed, PHILOX_MIN_STREAMS))
    assert str(got.value) == str(want.value)
    with pytest.raises(ValueError, match=re.escape(str(want.value))):
        philox_uniforms(seed, 0, 3, 5)
