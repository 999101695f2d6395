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
``1 + d(d-1)`` times.  A law whose class evaluates count tables as arrays
(:func:`~urnwalk.laws.array_rows`: the Dirichlet, polynomial and induced
laws) first has the box, with each corner's bumps, evaluated in blocks of
rows into its log-weights memo, so all of those calls are dictionary hits:
a count check that passes the scan's tuples through as they are, and a
lookup of the stored read-only row.  Any other law, and one whose batch
raises, is read per point, so the scan raises the per-point error there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice, product
from typing import Iterator, Sequence

from .errors import UrnwalkError
from .laws import Counts, ReinforcementLaw, array_rows, warm_log_weights

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
    axes = range(law.dimension)
    for p in points:
        logw_p = law.log_weights(p).tolist()
        bumped = [p[:i] + (p[i] + 1,) + p[i + 1 :] for i in axes]
        for i, j in pairs:
            lhs = logw_p[i] + law.log_weights(bumped[i]).item(j)
            rhs = logw_p[j] + law.log_weights(bumped[j]).item(i)
            gap = lhs - rhs
            if abs(gap) > tolerance:
                found.append(SquareViolation(p, i, j, lhs, rhs, gap))
    return found


#: Count vectors per block of :func:`_corner_blocks`.
WARM_BLOCK = 1 << 10


def _corner_blocks(d: int, box_size: int) -> Iterator[list[Counts]]:
    """The corners of the box and their bumps, in lexicographic blocks.

    These are the points of ``{0..box_size}^d`` with at most one coordinate
    at ``box_size``.
    """
    grid = product(range(box_size + 1), repeat=d)
    corners = (c for c in grid if c.count(box_size) <= 1)
    while block := list(islice(corners, WARM_BLOCK)):
        yield block


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
    if array_rows(type(law)):
        try:
            warm_log_weights(law, _corner_blocks(d, box_size))
        except (UrnwalkError, ValueError):
            pass  # read per point below, which raises where it always has
    violations = _scan_chunk(law, points, pairs, tolerance)
    return AdmissibilityReport(
        admissible=not violations,
        violations=tuple(violations),
        box_size=box_size,
        tolerance=tolerance,
    )
