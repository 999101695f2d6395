"""Candidate moment sequences built from admissible laws, and their checks.

For an admissible law, the log probability of reaching a count vector ``k``
is the same along every monotone path, so ``v_k := exp(path product)`` is a
well-defined sequence indexed by count vectors.  This module builds that
sequence on the total-degree ball ``|k| <= order`` along one staircase and
checks every other edge of the ball against it, so every elementary square
of the ball closes within 4 tolerances and every monotone path to ``k``
agrees with the staircase within ``|k|`` tolerances.  It checks the
local simplex identity ``v_k = sum_i v_{k+e_i}``, which says that the
weights at every count vector sum to 1, and evaluates the
multinomial-weighted slice sums whose value 1 certifies that the measure
lives on the probability simplex.

With positive entries the identity implies every condition of the signed
multidimensional finite-difference test of Hildebrandt and Schoenberg (the
sequence is the moment family of a probability measure on the unit cube iff
``(-1)^{|h|} Delta^h(v)(k) >= 0`` for all h, k), since
``-Delta_i v(k) = sum_{j != i} v(k+e_j)``.  :func:`hildebrandt_schoenberg_check`
expands each of those differences by inclusion-exclusion and is the
independent check of the identity's verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterable, Mapping, Sequence

import numpy as np

from .admissibility import DEFAULT_TOLERANCE, validate_tolerance
from .errors import MomentOrderError, NotAdmissibleError, UrnwalkError
from .laws import Counts, ReinforcementLaw, array_rows, as_counts

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
    positive, and exactly 1 at the origin.  Needs no table, so an entry can
    be checked before one is built.
    """
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"moment values must be finite and positive, got {value!r}")
    index = as_counts(counts)
    if len(index) != dimension or sum(index) > order:
        raise MomentOrderError(
            f"index {index} is outside the degree-{order} ball in dimension {dimension}"
        )
    if value != 1 and not any(index):
        raise ValueError(f"v at the origin must be exactly 1, got {value!r}")
    return index


@dataclass(frozen=True)
class MomentTable:
    """Log-space table of candidate mixed moments on a total-degree ball.

    Tables produced by :func:`build_moment_table` satisfy ``v_0 = 1``,
    strict positivity, and coordinatewise monotonicity
    ``v_{k+e_i} <= v_k``; hand-edited tables (see :meth:`with_value`) may
    break monotonicity, and the simplex identity with it.
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
    first.  Where :func:`~urnwalk.laws.array_rows` holds, the log weights
    of the ball below the order come from one ``log_weights_batch`` call;
    for any other law, or if that call raises, each count vector's log
    weights are read once, in ball order, from ``log_weights``, so a gap is
    met before an evaluation error at a later count vector.
    """
    validate_tolerance(tolerance)
    if order < 0:
        raise ValueError("order must be non-negative")
    d = law.dimension
    stair: dict[Counts, float] = {(0,) * d: 0.0}
    rows: dict[Counts, Sequence[float]] = {}
    if array_rows(type(law)):
        below = ball_indices(d, order - 1)
        try:
            rows = dict(zip(below, law.log_weights_batch(np.array(below)).tolist()))
        except (UrnwalkError, ValueError):
            pass  # read per point below, which raises where it always has

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

    Returns (value, sum of |terms|), each summed exactly rounded by
    ``math.fsum``; the scale is used by callers to recognize results at the
    noise floor.
    """
    values = table.linear_values
    h_total = sum(h)
    terms = []
    for m in product(*(range(hi + 1) for hi in h)):
        coeff = 1.0 if (h_total - sum(m)) % 2 == 0 else -1.0
        for hi, mi in zip(h, m):
            coeff *= math.comb(hi, mi)
        terms.append(coeff * values[tuple(a + b for a, b in zip(k, m))])
    return math.fsum(terms), math.fsum(map(abs, terms))


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


def hildebrandt_schoenberg_check(
    table: MomentTable,
    tolerance: float = DEFAULT_TOLERANCE,
) -> HSReport:
    """Scan ``(-1)^{|h|} Delta^h(v)(k)`` over all ``|h| + |k| <= order``.

    Passes when the minimum signed difference is >= -tolerance; the report
    records the most negative value and where it occurred (the first pair
    in graded-lex order of h, then k, on ties).  Each pair is expanded by
    inclusion-exclusion (:func:`_scan_pairs`), and signed values below
    ``NOISE_FLOOR_FACTOR * eps * scale``, where scale is the sum of |terms|
    of the expansion, are clamped to zero rather than reported as
    violations.  ``tolerance`` must be finite and >= 0.  This is the oracle
    for :func:`simplex_defect`: a table that meets the simplex identity
    meets every one of these conditions.
    """
    validate_tolerance(tolerance)
    d, order = table.dimension, table.order
    best, worst = _scan_pairs(table, ((h, k) for h in ball_indices(d, order)
                                      for k in ball_indices(d, order - sum(h))))
    return HSReport(best >= -tolerance, best, worst, order, tolerance)


def simplex_defect(table: MomentTable) -> tuple[float, Counts]:
    """The worst relative defect of the simplex identity, and the first k where it sits.

    The defect at k is ``|v_k - sum_i v_{k+e_i}| / v_k``, over ``|k| < order``
    in graded-lex order: how far the weights ``v_{k+e_i} / v_k`` at k miss
    summing to 1.  The weights are taken from the logs, so an entry that underflows
    in linear space still has them, and weights past the float range give ``inf``.
    An order-0 table has no such k, and gives 0 at the origin.
    """
    logs, d = table.log_values, table.dimension
    worst, where = 0.0, (0,) * d
    for k in ball_indices(d, table.order - 1):
        ups = (logs[k[:i] + (k[i] + 1,) + k[i + 1 :]] - logs[k] for i in range(d))
        try:
            defect = abs(1.0 - math.fsum(map(math.exp, ups)))
        except OverflowError:  # a weight, or their sum, is past the float range
            defect = math.inf
        if defect > worst:
            worst, where = defect, k
    return worst, where


def simplex_mass(table: MomentTable, degree: int) -> float:
    """Multinomial-weighted sum over the degree-n slice of the table.

    This is the n-th moment of the coordinate sum of the represented
    variable; it equals 1 exactly when the law's weights sum to 1 at every
    count vector, i.e. when the measure is supported by the simplex.  A multinomial
    past the float range is taken in log space, and a mass past it is ``inf``.
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    if degree > table.order:
        raise MomentOrderError(f"degree {degree} exceeds table order {table.order}")

    def term(k: Counts) -> float:
        try:
            return (m := multinomial(k)) * table.linear_values[k]
        except OverflowError:  # m is past the float range
            return math.exp(math.log(m) + table.log_values[k])

    try:
        return math.fsum(map(term, slice_indices(table.dimension, degree)))
    except OverflowError:  # a term, or the sum, is past the float range
        return math.inf
