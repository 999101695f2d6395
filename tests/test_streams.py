"""Per-run stream seeding: ``stream_generators`` against ``make_stream``, bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urnwalk import walk
from urnwalk.laws import DirichletLaw, UniformLaw
from urnwalk.walk import make_stream, run_reinforced, star_graph, stream_generators

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


def states(seed, count):
    return [rng.bit_generator.state for rng in stream_generators(seed, count)]


def oracle(seed, count):
    return [make_stream(seed, i).bit_generator.state for i in range(count)]


@pytest.mark.parametrize("seed", EDGE_SEEDS)
@pytest.mark.parametrize("count", [1, 3000])
def test_states_are_those_of_make_stream(seed, count):
    assert states(seed, count) == oracle(seed, count)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, 40))
def test_states_match_for_any_seed(seed, count):
    assert states(seed, count) == oracle(seed, count)


def test_streams_across_block_boundaries(monkeypatch):
    monkeypatch.setattr(walk, "STREAM_BLOCK", 7)
    assert states(2026, 30) == oracle(2026, 30)


def test_the_last_one_word_stream_ids():
    # the spawn key (i,) is one 32-bit word up to i = 2**32 - 1
    first = 2**32 - 3
    got = walk._pcg64_states(5, first, 3)
    for i, (state, inc) in zip(range(first, 2**32), got):
        want = make_stream(5, i).bit_generator.state["state"]
        assert (state, inc) == (want["state"], want["inc"])


@pytest.mark.parametrize("seed", [2**64, 2**100])
def test_seeds_past_64_bits_go_through_make_stream(seed):
    assert states(seed, 5) == oracle(seed, 5)


def test_a_negative_seed_is_rejected_like_make_stream():
    with pytest.raises(ValueError):
        make_stream(-1)
    with pytest.raises(ValueError):
        next(stream_generators(-1, 2))


def test_no_streams_for_a_zero_count():
    assert list(stream_generators(3, 0)) == []


def test_the_generator_is_shared_and_draws_each_stream():
    seen = set()
    for i, rng in enumerate(stream_generators(11, 50)):
        seen.add(id(rng))
        assert rng.random(5).tolist() == make_stream(11, i).random(5).tolist()
    assert len(seen) == 1


def test_walks_are_those_of_fresh_streams():
    g = star_graph(3)
    laws = {0: DirichletLaw([0.5, 1.0, 2.0]), **{x: UniformLaw(1) for x in (1, 2, 3)}}
    fresh = [run_reinforced(g, laws, 0, 12, make_stream(8, i)) for i in range(200)]
    shared = [run_reinforced(g, laws, 0, 12, rng) for rng in stream_generators(8, 200)]
    assert shared == fresh


def test_environment_draws_are_those_of_fresh_streams():
    # gamma draws take a variable number of raw words; the shared generator must not carry any over
    fresh = [make_stream(4, i).dirichlet([0.3, 0.7, 2.0]).tolist() for i in range(100)]
    shared = [rng.dirichlet([0.3, 0.7, 2.0]).tolist() for rng in stream_generators(4, 100)]
    assert shared == fresh


def test_a_half_used_word_does_not_carry_into_the_next_stream():
    # one float32 takes half of a 64-bit word and caches the other half
    fresh = [make_stream(6, i).random(1, dtype=np.float32).tolist() for i in range(20)]
    shared = [rng.random(1, dtype=np.float32).tolist() for rng in stream_generators(6, 20)]
    assert shared == fresh
