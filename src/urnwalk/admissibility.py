"""Closedness checks for reinforcement laws on the count lattice.

A law is admissible when the log-probability 1-form on the oriented lattice
of count vectors is closed: going around any elementary square

    p -> p + e_i -> p + e_i + e_j    versus    p -> p + e_j -> p + e_i + e_j

accumulates the same log probability.  Elementary squares generate every
cycle of the lattice graph, so scanning them over a finite box certifies
closedness on that box.  Admissible laws give move sequences whose
probability depends only on how often each move was taken, which is what
makes the path products of :func:`path_product` well defined per endpoint.

The scan asks the law's public ``log_weights`` for each count vector up to
``1 + d(d-1)`` times; the built-in families memoise it per count vector,
so all but the first of those calls are dictionary hits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product
from typing import Sequence

from .errors import DimensionMismatchError
from .laws import Counts, ReinforcementLaw

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

    def to_dict(self) -> dict:
        return {
            "p": list(self.counts),
            "i": self.i,
            "j": self.j,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "gap": self.gap,
        }


@dataclass(frozen=True)
class AdmissibilityReport:
    """Result of scanning all elementary squares inside a box."""

    admissible: bool
    violations: tuple[SquareViolation, ...]
    box_size: int
    tolerance: float

    def to_dict(self) -> dict:
        return {
            "admissible": self.admissible,
            "violations": [v.to_dict() for v in self.violations],
            "box_size": self.box_size,
            "tolerance": self.tolerance,
        }


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


def path_product(law: ReinforcementLaw, steps: Sequence[int]) -> float:
    """Log probability of a move sequence starting from zero counts.

    Accumulates ``sum_t ln V_{s(t)}(counts before step t)``.  For admissible
    laws the result depends only on the endpoint of the sequence, how often
    each move appears in it.
    The empty path returns 0 (product 1).
    """
    counts = [0] * law.dimension
    total = 0.0
    for s in steps:
        if not (0 <= s < law.dimension):
            raise DimensionMismatchError(
                f"step index {s} out of range for dimension {law.dimension}"
            )
        total += float(law.log_weights(tuple(counts))[s])
        counts[s] += 1
    return total
