"""Candidate moment sequences built from admissible laws, and their checks.

For an admissible law, the log probability of reaching a count vector ``k``
is the same along every monotone path, so ``v_k := exp(path product)`` is a
well-defined sequence indexed by count vectors.  This module builds that
sequence on the total-degree ball ``|k| <= order`` along one staircase and
checks every other edge of the ball against it, so every elementary square
of the ball closes within 4 tolerances and every monotone path to ``k``
agrees with the staircase within ``|k|`` tolerances.  It applies the signed
multidimensional finite-difference test of Hildebrandt and Schoenberg (the
sequence is the moment family of a probability measure on the unit cube iff
``(-1)^{|h|} Delta^h(v)(k) >= 0`` for all h, k), and evaluates the
multinomial-weighted slice sums whose value 1 certifies that the measure
lives on the probability simplex.

The positivity scan puts the table into a dense ``(order+1)^d`` array and
walks the difference multi-indices ``h`` depth first, so each ``Delta^h``
comes from its parent ``Delta^{h-e_i}`` by one difference along axis i.  A
scale tensor built the same way with a sum in place of the difference
equals the sum of |terms| of the inclusion-exclusion expansion (the table's
values are positive) and sets the noise floor.  Only the tensors on the
current DFS path are alive: at most two arrays of ``(order+1)^d`` floats
per level.  :func:`finite_difference` and :func:`_scan_pairs` expand each
pair by inclusion-exclusion instead and serve as the independent oracle
for the scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterable, Mapping, Sequence

import numpy as np

from .admissibility import DEFAULT_TOLERANCE, validate_tolerance
from .errors import MomentOrderError, NotAdmissibleError
from .laws import Counts, ReinforcementLaw, as_counts

#: Signed differences below this multiple of eps * sum|terms| are treated
#: as zero: inclusion-exclusion cancels catastrophically for large |h|.
NOISE_FLOOR_FACTOR = 1e3


def ball_indices(dimension: int, order: int) -> list[Counts]:
    """All count vectors with total degree <= order, graded lexicographic."""
    return [k for n in range(order + 1) for k in slice_indices(dimension, n)]


def slice_indices(dimension: int, degree: int) -> list[Counts]:
    """All count vectors with total degree == degree, lexicographic; none if degree < 0."""
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    # prefixes in lex order, each with what is left for the last coordinate
    level = [((), degree)] if degree >= 0 else []
    for _ in range(dimension - 1):
        level = [(k + (v,), rest - v) for k, rest in level for v in range(rest + 1)]
    return [k + (rest,) for k, rest in level]


def multinomial(counts: Sequence[int]) -> int:
    """Number of move sequences with the given per-move counts; exact."""
    c = as_counts(counts)
    total = 0
    out = 1
    for k in c:
        total += k
        out *= math.comb(total, k)
    return out


def check_entry(dimension: int, order: int, counts: Sequence[int], value: float) -> Counts:
    """The index of an entry that may overwrite a degree-``order`` table in ``dimension``.

    The index must lie in the ball and the value must be finite and
    positive.  Needs no table, so an entry can be checked before one is built.
    """
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"moment values must be finite and positive, got {value!r}")
    index = as_counts(counts)
    if len(index) != dimension or sum(index) > order:
        raise MomentOrderError(
            f"index {index} is outside the degree-{order} ball in dimension {dimension}"
        )
    return index


@dataclass(frozen=True)
class MomentTable:
    """Log-space table of candidate mixed moments on a total-degree ball.

    Tables produced by :func:`build_moment_table` satisfy ``v_0 = 1``,
    strict positivity, and coordinatewise monotonicity
    ``v_{k+e_i} <= v_k``; hand-edited tables (see :meth:`with_value`) may
    break monotonicity, which is exactly what the positivity check detects.
    """

    dimension: int
    order: int
    log_values: Mapping[Counts, float]

    def __post_init__(self) -> None:
        expected = ball_indices(self.dimension, self.order)
        missing = [k for k in expected if k not in self.log_values]
        if missing:
            raise ValueError(f"table is missing {len(missing)} entries, e.g. {missing[0]}")
        origin = (0,) * self.dimension
        if self.log_values[origin] != 0.0:
            raise ValueError("v at the origin must be exactly 1 (log 0)")
        for k, lv in self.log_values.items():
            if not math.isfinite(lv):
                raise ValueError(f"log value at {k} is not finite")

    @cached_property
    def linear_values(self) -> dict[Counts, float]:
        """One-time conversion to linear space for differencing."""
        return {k: math.exp(lv) for k, lv in self.log_values.items()}

    def log_value(self, counts: Sequence[int]) -> float:
        return self.log_values[as_counts(counts)]

    def value(self, counts: Sequence[int]) -> float:
        return self.linear_values[as_counts(counts)]

    def with_value(self, counts: Sequence[int], value: float) -> "MomentTable":
        """Copy with one entry overwritten (test hook for corrupt tables).

        The entry must pass :func:`check_entry`, so the overwrite always
        lands in the scanned table.
        """
        index = check_entry(self.dimension, self.order, counts, value)
        values = dict(self.log_values)
        values[index] = math.log(value)
        return MomentTable(self.dimension, self.order, values)

    def to_rows(self) -> list[tuple[Counts, float]]:
        """(index, linear value) pairs in graded lexicographic order."""
        return [(k, self.linear_values[k]) for k in ball_indices(self.dimension, self.order)]


@dataclass(frozen=True)
class HSReport:
    """Outcome of the signed finite-difference positivity scan."""

    passed: bool
    max_negativity: float
    worst_case: tuple[Counts, Counts]
    order_checked: int
    tolerance: float

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "max_negativity": self.max_negativity,
            "worst_case": {"h": list(self.worst_case[0]), "k": list(self.worst_case[1])},
            "order_checked": self.order_checked,
            "tolerance": self.tolerance,
        }


def build_moment_table(law: ReinforcementLaw, order: int,
                       tolerance: float = DEFAULT_TOLERANCE) -> MomentTable:
    """Build ``v_k`` for ``|k| <= order`` from monotone path products.

    Each value is computed along the staircase path (all moves in direction
    0 first, then direction 1, ...), and every other edge into ``k`` must
    agree with it: ``|v_k - v_{k-e_i} - log w_i(k-e_i)|`` above
    ``tolerance`` (τ, checked by
    :func:`~urnwalk.admissibility.validate_tolerance`) raises
    :class:`NotAdmissibleError`.  So every elementary square of the ball
    closes within 4τ, and every monotone path to ``k`` agrees with the
    staircase within ``|k|`` τ.  At each ``k`` the staircase's edge is read
    first, and each count vector's log weights once, in ball order, so a
    gap is met before an evaluation error at a later count vector.
    """
    validate_tolerance(tolerance)
    if order < 0:
        raise ValueError("order must be non-negative")
    d = law.dimension
    stair: dict[Counts, float] = {(0,) * d: 0.0}
    rows: dict[Counts, np.ndarray] = {}

    def edge(k: Counts, i: int) -> float:
        """The path product to ``k`` along the table to ``k - e_i``, then move i."""
        parent = k[:i] + (k[i] - 1,) + k[i + 1 :]
        if parent not in rows:
            rows[parent] = law.log_weights(parent)
        return stair[parent] + float(rows[parent][i])

    for k in ball_indices(d, order)[1:]:
        *others, hi = (i for i in range(d) if k[i] > 0)
        stair[k] = edge(k, hi)
        for i in others:
            gap = stair[k] - edge(k, i)
            if abs(gap) > tolerance:
                raise NotAdmissibleError(
                    f"path products to {k} disagree by {gap:.3e} in log space; "
                    "the law is not admissible on this ball"
                )
    return MomentTable(d, order, stair)


def _difference_terms(
    table: MomentTable, h: Counts, k: Counts
) -> tuple[float, float]:
    """Inclusion-exclusion expansion of Delta^h(v)(k).

    Returns (value, sum of |terms|) with Neumaier-compensated summation;
    the scale is used by callers to recognize results at the noise floor.
    """
    values = table.linear_values
    total = 0.0
    comp = 0.0
    scale = 0.0
    h_total = sum(h)
    for m in product(*(range(hi + 1) for hi in h)):
        coeff = 1.0 if (h_total - sum(m)) % 2 == 0 else -1.0
        for hi, mi in zip(h, m):
            coeff *= math.comb(hi, mi)
        term = coeff * values[tuple(a + b for a, b in zip(k, m))]
        scale += abs(term)
        fresh = total + term
        if abs(total) >= abs(term):
            comp += (total - fresh) + term
        else:
            comp += (term - fresh) + total
        total = fresh
    return total + comp, scale


def finite_difference(table: MomentTable, h: Sequence[int], k: Sequence[int]) -> float:
    """``Delta^h(v)(k)`` by inclusion-exclusion with compensated summation.

    The one-step operators commute, so the expansion
    ``sum_{0<=m<=h} (-1)^{|h|-|m|} C(h,m) v_{k+m}`` is order-independent.
    Requires ``|h| + |k| <= order``.
    """
    hc = as_counts(h)
    kc = as_counts(k)
    if len(hc) != table.dimension or len(kc) != table.dimension:
        raise MomentOrderError("h and k must match the table dimension")
    if sum(hc) + sum(kc) > table.order:
        raise MomentOrderError(
            f"|h| + |k| = {sum(hc) + sum(kc)} exceeds table order {table.order}"
        )
    value, _ = _difference_terms(table, hc, kc)
    return value


def _scan_pairs(
    table: MomentTable, pairs: Iterable[tuple[Counts, Counts]]
) -> tuple[float, tuple[Counts, Counts]]:
    eps = math.ulp(1.0)
    best = math.inf
    worst = ((0,) * table.dimension, (0,) * table.dimension)
    for h, k in pairs:
        value, scale = _difference_terms(table, h, k)
        signed = value if sum(h) % 2 == 0 else -value
        if abs(signed) < NOISE_FLOOR_FACTOR * eps * scale:
            signed = 0.0
        if signed < best:
            best = signed
            worst = (h, k)
    return best, worst


def _scan_dense(table: MomentTable) -> tuple[float, tuple[Counts, Counts]]:
    """Minimum clamped signed difference over ``|h| + |k| <= order``, and where.

    Visits each h once, depth first, incrementing axes in non-decreasing
    order.  At a node with ``|h| = n`` the arrays hold ``Delta^h(v)(k)`` and
    its scale for ``k_j <= order - n``; entries with ``|k| > order - n``
    are masked out.  Ties go to the first (h, k) in graded-lex order, as in
    :func:`_scan_pairs`.
    """
    d, order = table.dimension, table.order
    indices = ball_indices(d, order)
    shape = (order + 1,) * d
    values = np.zeros(shape)
    rank = np.zeros(shape, dtype=np.int64)
    for r, k in enumerate(indices):
        values[k] = table.linear_values[k]
        rank[k] = r
    degree = np.indices(shape).sum(axis=0)
    floor = NOISE_FLOOR_FACTOR * math.ulp(1.0)
    best = (math.inf, 0, 0)  # (signed value, rank of h, rank of k)

    def visit(h: list[int], first_axis: int, diff: np.ndarray, scale: np.ndarray) -> None:
        nonlocal best
        n = sum(h)
        box = (slice(order - n + 1),) * d
        signed = diff if n % 2 == 0 else -diff
        signed = np.where(np.abs(signed) < floor * scale, 0.0, signed)
        signed = np.where(degree[box] <= order - n, signed, np.inf)
        low = float(signed.min())
        if low <= best[0]:
            best = min(best, (low, int(rank[tuple(h)]), int(rank[box][signed == low].min())))
        if n == order:
            return
        inner = (slice(order - n),) * d
        for i in range(first_axis, d):
            shifted = inner[:i] + (slice(1, order - n + 1),) + inner[i + 1 :]
            h[i] += 1
            visit(h, i, diff[shifted] - diff[inner], scale[shifted] + scale[inner])
            h[i] -= 1

    visit([0] * d, 0, values, values)
    _, h_rank, k_rank = best
    return best[0], (indices[h_rank], indices[k_rank])


def hildebrandt_schoenberg_check(
    table: MomentTable,
    tolerance: float = DEFAULT_TOLERANCE,
) -> HSReport:
    """Scan ``(-1)^{|h|} Delta^h(v)(k)`` over all ``|h| + |k| <= order``.

    Passes when the minimum signed difference is >= -tolerance; the report
    records the most negative value and where it occurred (the first pair
    in graded-lex order of h, then k, on ties).  Signed values below
    ``NOISE_FLOOR_FACTOR * eps * scale``, where scale is the sum of |terms|
    of the inclusion-exclusion expansion, are clamped to zero rather than
    reported as violations.  ``tolerance`` must be finite and >= 0.

    Algorithm: the table goes into a dense ``(order+1)^d`` array and the
    multi-indices h are walked depth first, each ``Delta^h`` taken from its
    parent ``Delta^{h-e_i}`` by one difference along axis i, with a scale
    array carried alongside by sums.  Memory is at most two arrays of
    ``(order+1)^d`` floats per DFS level, at most ``order + 1`` levels.
    :func:`finite_difference` and :func:`_scan_pairs` are the independent
    inclusion-exclusion oracle for this scan.
    """
    validate_tolerance(tolerance)
    best, worst = _scan_dense(table)
    return HSReport(
        passed=best >= -tolerance,
        max_negativity=best,
        worst_case=worst,
        order_checked=table.order,
        tolerance=tolerance,
    )


def simplex_mass(table: MomentTable, degree: int) -> float:
    """Multinomial-weighted sum over the degree-n slice of the table.

    This is the n-th moment of the coordinate sum of the represented
    variable; it equals 1 exactly when the law's weights sum to 1 at every
    count vector, i.e. when the measure is supported by the simplex.
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    if degree > table.order:
        raise MomentOrderError(f"degree {degree} exceeds table order {table.order}")
    return math.fsum(
        multinomial(k) * table.linear_values[k]
        for k in slice_indices(table.dimension, degree)
    )
