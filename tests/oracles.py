"""Reference helpers that only the tests use: square defects and monotone paths."""

from typing import Sequence

import numpy as np

from urnwalk.errors import DimensionMismatchError
from urnwalk.laws import Counts, ReinforcementLaw, as_counts


def square_defect(law: ReinforcementLaw, counts: Sequence[int], i: int, j: int) -> float:
    """Log defect of the elementary square at ``counts`` spanned by moves i, j.

    Returns ``ln V_i(p) + ln V_j(p+e_i) - ln V_j(p) - ln V_i(p+e_j)``; zero
    exactly when the square relation V_i(p) V_j(p+e_i) = V_j(p) V_i(p+e_j)
    holds.  Move indices are 0-based.
    """
    d = law.dimension
    if i == j or not (0 <= i < d) or not (0 <= j < d):
        raise ValueError(f"need two distinct move indices in 0..{d - 1}, got {i}, {j}")
    p = as_counts(counts)
    p_i = p[:i] + (p[i] + 1,) + p[i + 1 :]
    p_j = p[:j] + (p[j] + 1,) + p[j + 1 :]
    lhs = float(law.log_weights(p)[i] + law.log_weights(p_i)[j])
    rhs = float(law.log_weights(p)[j] + law.log_weights(p_j)[i])
    return lhs - rhs


def path_endpoint(steps: Sequence[int], dimension: int) -> Counts:
    """Endpoint of a monotone lattice path: how often each move appears."""
    counts = [0] * dimension
    for s in steps:
        if not (0 <= s < dimension):
            raise DimensionMismatchError(
                f"step index {s} out of range for dimension {dimension}"
            )
        counts[s] += 1
    return tuple(counts)


def random_monotone_path(endpoint: Sequence[int], rng: np.random.Generator) -> list[int]:
    """A uniformly shuffled monotone path from the origin to ``endpoint``."""
    target = as_counts(endpoint)
    steps = [i for i, k in enumerate(target) for _ in range(k)]
    rng.shuffle(steps)
    return steps
