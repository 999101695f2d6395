"""Closedness checks for reinforcement laws on the count lattice.

A law is admissible when the log-probability 1-form on the oriented lattice
of count vectors is closed: going around any elementary square

    p -> p + e_i -> p + e_i + e_j    versus    p -> p + e_j -> p + e_i + e_j

accumulates the same log probability.  Elementary squares generate every
cycle of the lattice graph, so scanning them over a finite box certifies
closedness on that box.  Admissible laws give move sequences whose
probability depends only on how often each move was taken, so the log
probability of a move sequence is a function of its endpoint.

The scan asks the law's public ``log_weights`` for each count vector up to
``1 + d(d-1)`` times; the built-in families memoise it per count vector,
so all but the first of those calls are dictionary hits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product
from typing import Sequence

from .laws import Counts, ReinforcementLaw

#: The one default tolerance: of the square scan, the moment table's edges and the CLI.
DEFAULT_TOLERANCE = 1e-10


def validate_tolerance(tolerance: float) -> float:
    """Return ``tolerance`` if it is a finite number >= 0, else raise ValueError.

    A NaN tolerance makes every ``gap > tolerance`` comparison false and an
    infinite one accepts every gap, so either would turn a scan into a
    false PASS; a negative one flags exact results.
    """
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance!r}")
    return tolerance


@dataclass(frozen=True)
class SquareViolation:
    """One elementary square whose two edge orderings disagree."""

    counts: Counts
    i: int
    j: int
    lhs: float
    rhs: float
    gap: float


@dataclass(frozen=True)
class AdmissibilityReport:
    """Result of scanning all elementary squares inside a box."""

    admissible: bool
    violations: tuple[SquareViolation, ...]
    box_size: int
    tolerance: float


def _scan_chunk(
    law: ReinforcementLaw,
    points: Sequence[Counts],
    pairs: Sequence[tuple[int, int]],
    tolerance: float,
) -> list[SquareViolation]:
    found = []
    for p in points:
        logw_p = law.log_weights(p)
        for i, j in pairs:
            p_i = p[:i] + (p[i] + 1,) + p[i + 1 :]
            p_j = p[:j] + (p[j] + 1,) + p[j + 1 :]
            lhs = float(logw_p[i] + law.log_weights(p_i)[j])
            rhs = float(logw_p[j] + law.log_weights(p_j)[i])
            gap = lhs - rhs
            if abs(gap) > tolerance:
                found.append(SquareViolation(p, i, j, lhs, rhs, gap))
    return found


def check_admissible(
    law: ReinforcementLaw,
    box_size: int,
    tolerance: float = DEFAULT_TOLERANCE,
) -> AdmissibilityReport:
    """Scan every elementary square with corner in {0..box_size-1}^d.

    Certification is box-local: nothing is claimed beyond the scanned box.
    ``tolerance`` must be finite and >= 0.
    """
    validate_tolerance(tolerance)
    if box_size < 1:
        raise ValueError("box_size must be >= 1")
    d = law.dimension
    if d < 2:
        # a 1-dimensional lattice has no squares; trivially closed
        return AdmissibilityReport(True, (), box_size, tolerance)
    pairs = list(combinations(range(d), 2))
    points = list(product(range(box_size), repeat=d))
    violations = _scan_chunk(law, points, pairs, tolerance)
    return AdmissibilityReport(
        admissible=not violations,
        violations=tuple(violations),
        box_size=box_size,
        tolerance=tolerance,
    )
