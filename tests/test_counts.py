"""The one count validator, ``laws.as_counts``: its fast path and its errors."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urnwalk.environment import DirichletEnv
from urnwalk.laws import DirichletLaw, as_counts


class Count(int):
    """An ``int`` subclass, which the fast path must not pass through."""


def elementwise(values):
    """The element-wise ``int(v)`` loop, with the validator's one error."""
    out = []
    for v in values:
        try:
            iv = int(v)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"counts must be non-negative integers, got {v!r}") from None
        if iv != v or iv < 0:
            raise ValueError(f"counts must be non-negative integers, got {v!r}")
        out.append(iv)
    return tuple(out)


def outcome(f, values):
    """``f(values)``, or the type and message of what it raised."""
    try:
        return "returned", f(values)
    except Exception as exc:  # the comparison is of what each raises
        return "raised", type(exc), str(exc)


entries = st.one_of(
    st.integers(0, 40),
    st.integers(-3, -1),
    st.integers(2**63, 2**70),
    st.booleans(),
    st.integers(0, 40).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.integers(0, 40).map(float),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-3, 40).map(Count),
    st.none(),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(entries, max_size=6), st.sampled_from([tuple, list]))
def test_the_fast_path_is_the_general_path(values, container):
    counts = container(values)
    expected = outcome(elementwise, values)
    got = outcome(as_counts, counts)
    assert got == expected
    if got[0] == "returned":
        assert all(type(v) is int for v in got[1])
    if not values:
        return
    law = DirichletLaw([1.0] * len(values))
    read = outcome(law.log_weights, counts)
    if got[0] == "raised":
        assert read == got
    else:
        assert read[1].tobytes() == law.log_weights(got[1]).tobytes()
    for key in law.__dict__.get("_log_weights_memo", {}):
        assert type(key) is tuple and all(type(v) is int for v in key)


def test_a_tuple_of_builtin_ints_is_returned_as_it_is():
    counts = (3, 4, 5, 2**70)
    assert as_counts(counts) is counts


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, None, "a", 1.5, -1])
@pytest.mark.parametrize(
    "read",
    [as_counts, DirichletLaw([1.0, 1.0]).log_weights, DirichletEnv([1.0, 1.0]).log_mixed_moment],
)
def test_every_rejected_count_raises_the_one_error(read, bad):
    message = f"counts must be non-negative integers, got {bad!r}"
    for counts in ((bad, 0), [0, bad]):
        with pytest.raises(ValueError) as info:
            read(counts)
        assert str(info.value) == message
