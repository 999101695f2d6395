"""Square-closedness scans and monotone path products."""

import math
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import path_endpoint, path_product, random_monotone_path, square_defect
from urnwalk import (
    DirichletLaw,
    PolynomialDirichletLaw,
    UniformLaw,
    check_admissible,
    tabulated_witness,
)

WITNESS_GAP = math.log(0.05) - math.log(0.25)


class TestSquareDefect:
    def test_uniform_law_is_exactly_closed(self):
        law = UniformLaw(3)
        for p in product(range(3), repeat=3):
            for i, j in combinations(range(3), 2):
                assert square_defect(law, p, i, j) == pytest.approx(0.0, abs=1e-15)

    def test_urn_law_at_origin(self):
        assert square_defect(DirichletLaw([1.0, 1.0]), (0, 0), 0, 1) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_witness_defect_value(self):
        gap = square_defect(tabulated_witness(), (0, 0), 0, 1)
        assert gap == pytest.approx(WITNESS_GAP, rel=1e-12)
        assert gap == pytest.approx(-1.609, abs=1e-3)

    def test_rejects_equal_directions(self):
        with pytest.raises(ValueError):
            square_defect(DirichletLaw([1.0, 1.0]), (0, 0), 1, 1)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        i=st.integers(min_value=0, max_value=2),
        j=st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=60, deadline=None)
    def test_antisymmetric_in_the_direction_pair(self, seed, i, j):
        if i == j:
            return
        rng = np.random.default_rng(seed)
        law = DirichletLaw(rng.uniform(0.2, 4.0, size=3))
        p = tuple(int(v) for v in rng.integers(0, 5, size=3))
        assert square_defect(law, p, i, j) == pytest.approx(
            -square_defect(law, p, j, i), abs=1e-12
        )


class TestCheckAdmissible:
    def test_urn_law_has_no_violations(self):
        report = check_admissible(DirichletLaw([2.0, 3.0, 5.0]), 6)
        assert report.admissible
        assert report.violations == ()
        assert report.box_size == 6

    def test_polynomial_law_has_no_violations(self):
        law = PolynomialDirichletLaw(
            [0.5, 1.0, 2.0], 2, {(2, 0, 0): 1.0, (1, 1, 0): 2.0, (0, 0, 2): 0.5}
        )
        assert check_admissible(law, 5).admissible

    def test_witness_fails_with_one_violation(self):
        report = check_admissible(tabulated_witness(), 1)
        assert not report.admissible
        assert len(report.violations) == 1
        violation = report.violations[0]
        assert violation.counts == (0, 0)
        assert violation.gap == pytest.approx(WITNESS_GAP, rel=1e-12)
        assert violation.lhs == pytest.approx(math.log(0.05), rel=1e-12)
        assert violation.rhs == pytest.approx(math.log(0.25), rel=1e-12)

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf, -1.0])
    def test_rejects_invalid_tolerance(self, tolerance):
        with pytest.raises(ValueError, match="tolerance"):
            check_admissible(tabulated_witness(), 1, tolerance)

    def test_report_serializes(self):
        import json

        report = check_admissible(tabulated_witness(), 1)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["admissible"] is False
        assert payload["violations"][0]["p"] == [0, 0]

    def test_dimension_one_is_trivially_closed(self):
        assert check_admissible(DirichletLaw([2.0]), 5).admissible


class TestPathProduct:
    def test_empty_path(self):
        assert path_product(DirichletLaw([1.0, 1.0]), []) == 0.0

    def test_two_step_paths_share_the_endpoint_value(self):
        law = DirichletLaw([1.0, 1.0])
        assert path_product(law, [0, 1]) == pytest.approx(math.log(1 / 6), rel=1e-12)
        assert path_product(law, [1, 0]) == pytest.approx(math.log(1 / 6), rel=1e-12)

    def test_endpoint_accounting(self):
        assert path_endpoint([0, 1, 0, 2, 0], 3) == (3, 1, 1)

    def test_permutation_invariance_for_admissible_laws(self, law_map, rng):
        for name, law in law_map.items():
            d = law.dimension
            for _ in range(25):
                endpoint = tuple(int(v) for v in rng.integers(0, 4, size=d))
                if sum(endpoint) > 10:
                    continue
                first = path_product(law, random_monotone_path(endpoint, rng))
                second = path_product(law, random_monotone_path(endpoint, rng))
                assert first == pytest.approx(second, abs=1e-10), name

    def test_witness_paths_disagree(self):
        law = tabulated_witness()
        assert path_product(law, [0, 1]) != pytest.approx(
            path_product(law, [1, 0]), abs=1e-3
        )
