"""Command-line behavior: exit codes, outputs, determinism."""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urnwalk import cli
from urnwalk.cli import main
from urnwalk.environment import DirichletEnv
from urnwalk.equivalence import DEFAULT_MAX_PATHS
from urnwalk.errors import EvaluationError
from urnwalk.laws import RisingPolynomial

try:
    import mpmath
except ImportError:  # an optional test dependency
    mpmath = None

needs_mpmath = pytest.mark.skipif(mpmath is None, reason="mpmath is not installed")

POLYA_LAW = {"family": "dirichlet", "alpha": [1.0, 1.0]}
POLYA_23_LAW = {"family": "dirichlet", "alpha": [2.0, 3.0]}
WITNESS_LAW = {
    "family": "tabulated",
    "box": 1,
    "entries": [
        {"counts": [0, 0], "weights": [0.5, 0.5]},
        {"counts": [1, 0], "weights": [0.9, 0.1]},
        {"counts": [0, 1], "weights": [0.5, 0.5]},
        {"counts": [1, 1], "weights": [0.5, 0.5]},
    ],
}
STAR_GRAPH = {"generator": "star", "leaves": 2}
STAR_LAWS = {
    "default": {"family": "uniform"},
    "per_vertex": {"0": POLYA_LAW},
}
STAR_ENVS = {
    "default": {"family": "point_mass", "weights": [1.0]},
    "per_vertex": {"0": {"family": "dirichlet", "alpha": [1.0, 1.0]}},
}
STAR_3_GRAPH = {"generator": "star", "leaves": 3}
STAR_3_ENVS = {
    "default": {"family": "point_mass", "weights": [1.0]},
    "per_vertex": {"0": {"family": "dirichlet", "alpha": [1.0, 1.0, 1.0]}},
}


def write_config(tmp_path: Path, payload: dict, name: str = "config.json") -> str:
    payload = {"schema": 1, **payload}
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestCheckAdmissibility:
    def test_urn_law_passes(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"law": POLYA_LAW, "operation": {"box": 6}, "output": {"path": str(tmp_path / "r.json")}},
        )
        assert main(["check-admissibility", "--config", cfg]) == 0
        payload = json.loads((tmp_path / "r.json").read_text())
        assert payload["report"]["admissible"] is True
        assert payload["violations"] == []

    def test_witness_fails_with_listed_violation(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"law": WITNESS_LAW, "operation": {"box": 1}, "output": {"path": str(tmp_path / "r.json")}},
        )
        assert main(["check-admissibility", "--config", cfg]) == 1
        payload = json.loads((tmp_path / "r.json").read_text())
        assert payload["report"]["violation_count"] == 1
        assert payload["violations"][0]["p"] == [0, 0]

    def test_malformed_config(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["check-admissibility", "--config", str(path)]) == 2

    def test_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 99, "law": POLYA_LAW}), encoding="utf-8")
        assert main(["check-admissibility", "--config", str(path)]) == 2

    def test_evaluation_error_outside_table(self, tmp_path):
        # scanning a box larger than the table with fallback 'reject'
        cfg = write_config(
            tmp_path,
            {"law": WITNESS_LAW, "operation": {"box": 3}, "output": {"path": str(tmp_path / "r.json")}},
        )
        assert main(["check-admissibility", "--config", cfg]) == 3

    @pytest.mark.parametrize("tolerance", ["nan", "inf"])
    def test_non_finite_tolerance_is_a_config_error(self, tmp_path, tolerance):
        # a NaN or infinite tolerance would certify the counterexample
        cfg = write_config(
            tmp_path,
            {"law": WITNESS_LAW, "operation": {"box": 1}, "output": {"path": str(tmp_path / "r.json")}},
        )
        assert main(["check-admissibility", "--config", cfg, "--tolerance", tolerance]) == 2
        assert not (tmp_path / "r.json").exists()

    def test_negative_tolerance_is_a_config_error(self, tmp_path):
        # a negative tolerance would flag every square of an admissible law
        cfg = write_config(
            tmp_path,
            {"law": POLYA_LAW, "operation": {"box": 3}, "output": {"path": str(tmp_path / "r.json")}},
        )
        assert main(["check-admissibility", "--config", cfg, "--tolerance", "-1"]) == 2

    def test_config_file_tolerance_is_validated(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "law": WITNESS_LAW,
                "operation": {"box": 1, "tolerance": float("nan")},
                "output": {"path": str(tmp_path / "r.json")},
            },
        )
        assert main(["check-admissibility", "--config", cfg]) == 2

    def test_threads_flag_is_accepted(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"law": POLYA_LAW, "operation": {"box": 3}, "output": {"path": str(tmp_path / "r.json")}},
        )
        assert main(["check-admissibility", "--config", cfg, "--threads", "4"]) == 0


class TestVerifyMoments:
    def test_urn_law_passes(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "law": POLYA_23_LAW,
                "operation": {"order": 10},
                "output": {"path": str(tmp_path / "m.json")},
            },
        )
        assert main(["verify-moments", "--config", cfg]) == 0
        payload = json.loads((tmp_path / "m.json").read_text())
        assert payload["hs_report"]["passed"] is True
        assert payload["passed"] is True

    def test_order_zero_is_trivial(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"law": POLYA_LAW, "operation": {"order": 0}, "output": {"path": str(tmp_path / "m.json")}},
        )
        assert main(["verify-moments", "--config", cfg]) == 0

    def test_corruption_hook_fails_the_scan(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"law": POLYA_LAW, "operation": {"order": 6}, "output": {"path": str(tmp_path / "m.json")}},
        )
        code = main(["verify-moments", "--config", cfg, "--corrupt-entry", "1,0=1.5"])
        assert code == 1
        payload = json.loads((tmp_path / "m.json").read_text())
        assert payload["hs_report"]["passed"] is False

    def test_infinite_tolerance_is_a_config_error(self, tmp_path):
        # an infinite tolerance would certify the corrupted table
        cfg = write_config(
            tmp_path,
            {"law": POLYA_LAW, "operation": {"order": 6}, "output": {"path": str(tmp_path / "m.json")}},
        )
        code = main(["verify-moments", "--config", cfg, "--tolerance", "inf",
                     "--corrupt-entry", "1,0=1.5"])
        assert code == 2

    @pytest.mark.parametrize("entry", ["9,9=1.5", "1,0,0=1.5", "1,0=-2", "1,0=nan", "1,0=inf"])
    def test_corruption_hook_rejects_entries_it_cannot_apply(self, tmp_path, entry):
        cfg = write_config(
            tmp_path,
            {"law": POLYA_LAW, "operation": {"order": 6}, "output": {"path": str(tmp_path / "m.json")}},
        )
        assert main(["verify-moments", "--config", cfg, "--corrupt-entry", entry]) == 2
        assert not (tmp_path / "m.json").exists()

    def test_witness_cites_path_independence(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"law": WITNESS_LAW, "operation": {"order": 2}, "output": {"path": str(tmp_path / "m.json")}},
        )
        assert main(["verify-moments", "--config", cfg]) == 1
        assert "path products" in capsys.readouterr().err

    def test_csv_output_with_sidecar(self, tmp_path):
        out = tmp_path / "m.csv"
        cfg = write_config(
            tmp_path,
            {
                "law": POLYA_LAW,
                "operation": {"order": 4},
                "output": {"path": str(out), "format": "csv"},
            },
        )
        assert main(["verify-moments", "--config", cfg]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k_1,k_2,value"
        assert lines[1] == "0,0,1.0"
        meta = json.loads((tmp_path / "m.csv.meta.json").read_text())
        assert meta["hs_report"]["passed"] is True


class TestSimulate:
    def test_zero_steps_single_row(self, tmp_path):
        out = tmp_path / "t.csv"
        cfg = write_config(
            tmp_path,
            {
                "graph": STAR_GRAPH,
                "laws": STAR_LAWS,
                "seed": 5,
                "operation": {"mode": "reinforced", "steps": 0, "trajectories": 1},
                "output": {"path": str(out), "format": "csv"},
            },
        )
        assert main(["simulate", "--config", cfg]) == 0
        assert out.read_text() == "v0\n0\n"

    def test_same_seed_is_byte_identical(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            cfg = write_config(
                tmp_path,
                {
                    "graph": STAR_GRAPH,
                    "laws": STAR_LAWS,
                    "seed": 99,
                    "operation": {"mode": "reinforced", "steps": 6, "trajectories": 25},
                    "output": {"path": str(out), "format": "csv"},
                },
                name=name + ".config.json",
            )
            assert main(["simulate", "--config", cfg]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_seed_override_changes_output(self, tmp_path):
        out = tmp_path / "t.csv"
        cfg = write_config(
            tmp_path,
            {
                "graph": STAR_GRAPH,
                "laws": STAR_LAWS,
                "seed": 99,
                "operation": {"mode": "reinforced", "steps": 6, "trajectories": 25},
                "output": {"path": str(out), "format": "csv"},
            },
        )
        assert main(["simulate", "--config", cfg]) == 0
        first = out.read_bytes()
        assert main(["simulate", "--config", cfg, "--seed", "100"]) == 0
        assert out.read_bytes() != first

    def test_metadata_records_mode_and_hash(self, tmp_path):
        out = tmp_path / "t.json"
        cfg = write_config(
            tmp_path,
            {
                "graph": STAR_GRAPH,
                "envs": STAR_ENVS,
                "seed": 1,
                "operation": {"mode": "annealed", "steps": 3, "trajectories": 4},
                "output": {"path": str(out), "format": "json"},
            },
        )
        assert main(["simulate", "--config", cfg]) == 0
        payload = json.loads(out.read_text())
        assert payload["mode"] == "annealed"
        assert len(payload["config_sha256"]) == 64
        assert len(payload["trajectories"]) == 4
        assert all(len(t) == 4 for t in payload["trajectories"])

    def test_quenched_inline_assignment(self, tmp_path):
        out = tmp_path / "t.csv"
        cfg = write_config(
            tmp_path,
            {
                "graph": STAR_GRAPH,
                "assignment": [[0.25, 0.75], [1.0], [1.0]],
                "seed": 3,
                "operation": {"mode": "quenched", "steps": 4, "trajectories": 10},
                "output": {"path": str(out), "format": "csv"},
            },
        )
        assert main(["simulate", "--config", cfg]) == 0
        assert len(out.read_text().splitlines()) == 11

    def test_quenched_frozen_environment_is_recorded(self, tmp_path):
        out = tmp_path / "t.json"
        cfg = write_config(
            tmp_path,
            {
                "graph": STAR_GRAPH,
                "envs": STAR_ENVS,
                "seed": 3,
                "operation": {"mode": "quenched", "steps": 4, "trajectories": 5, "env_seed": 11},
                "output": {"path": str(out), "format": "json"},
            },
        )
        assert main(["simulate", "--config", cfg]) == 0
        payload = json.loads(out.read_text())
        assert payload["assignment_source"] == "sampled"
        assert payload["env_seed"] == 11
        assert set(payload["assignment"]) == {"0", "1", "2"}

    def test_quenched_without_assignment_or_envs(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "graph": STAR_GRAPH,
                "seed": 3,
                "operation": {"mode": "quenched", "steps": 4},
                "output": {"path": str(tmp_path / "t.csv")},
            },
        )
        assert main(["simulate", "--config", cfg]) == 2

    def test_missing_seed(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "graph": STAR_GRAPH,
                "laws": STAR_LAWS,
                "operation": {"mode": "reinforced", "steps": 2},
                "output": {"path": str(tmp_path / "t.csv")},
            },
        )
        assert main(["simulate", "--config", cfg]) == 2

    def test_unknown_mode(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "graph": STAR_GRAPH,
                "laws": STAR_LAWS,
                "seed": 4,
                "operation": {"mode": "sideways", "steps": 2},
                "output": {"path": str(tmp_path / "t.csv")},
            },
        )
        assert main(["simulate", "--config", cfg]) == 2


class TestCompare:
    def test_exact_matched_pair_passes(self, tmp_path):
        out = tmp_path / "c.json"
        cfg = write_config(
            tmp_path,
            {
                "graph": STAR_GRAPH,
                "envs": STAR_ENVS,
                "operation": {"mode": "exact", "steps": 6},
                "output": {"path": str(out)},
            },
        )
        assert main(["compare", "--config", cfg]) == 0
        payload = json.loads(out.read_text())
        assert payload["report"]["total_variation"] <= 1e-10
        assert payload["passed"] is True

    def test_exact_mismatched_pair_fails(self, tmp_path):
        out = tmp_path / "c.json"
        cfg = write_config(
            tmp_path,
            {
                "graph": STAR_GRAPH,
                "laws": STAR_LAWS,
                "envs": {
                    "default": {"family": "point_mass", "weights": [1.0]},
                    "per_vertex": {"0": {"family": "point_mass", "weights": [0.5, 0.5]}},
                },
                "operation": {"mode": "exact", "steps": 4},
                "output": {"path": str(out)},
            },
        )
        assert main(["compare", "--config", cfg]) == 1
        payload = json.loads(out.read_text())
        assert payload["report"]["total_variation"] > 0.05

    def test_enumeration_guard(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "graph": STAR_GRAPH,
                "envs": STAR_ENVS,
                "operation": {"mode": "exact", "steps": 6, "max_paths": 4},
                "output": {"path": str(tmp_path / "c.json")},
            },
        )
        assert main(["compare", "--config", cfg]) == 4

    def test_empirical_mode_passes(self, tmp_path):
        out = tmp_path / "c.json"
        cfg = write_config(
            tmp_path,
            {
                "graph": STAR_GRAPH,
                "envs": STAR_ENVS,
                "seed": 12,
                "operation": {"mode": "empirical", "steps": 3, "samples": 3000},
                "output": {"path": str(out)},
            },
        )
        assert main(["compare", "--config", cfg]) == 0
        payload = json.loads(out.read_text())
        assert payload["report"]["chi_square"]["statistic"] >= 0.0
        assert payload["passed"] is True

    def test_exact_csv_dumps_both_distributions(self, tmp_path):
        out = tmp_path / "c.csv"
        cfg = write_config(
            tmp_path,
            {
                "graph": STAR_GRAPH,
                "envs": STAR_ENVS,
                "operation": {"mode": "exact", "steps": 2},
                "output": {"path": str(out), "format": "csv"},
            },
        )
        assert main(["compare", "--config", cfg]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "path,reinforced,annealed"
        assert lines[1].startswith("0-1-0,")


    def test_bad_mode_is_a_config_error_before_enumerating(self, tmp_path, capsys):
        # 3^40 move sequences: the guard would fire first if the mode were read late
        cfg = write_config(
            tmp_path,
            {
                "graph": STAR_3_GRAPH,
                "envs": STAR_3_ENVS,
                "operation": {"mode": "exct", "steps": 40},
                "output": {"path": str(tmp_path / "c.json")},
            },
        )
        assert main(["compare", "--config", cfg]) == 2
        assert "operation.mode" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("samples", 50), ("quantile", 2.0)])
    def test_empirical_fields_are_checked_before_enumerating(self, tmp_path, capsys, field, value):
        operation = {"mode": "empirical", "steps": 40, "samples": 200, field: value}
        cfg = write_config(
            tmp_path,
            {
                "graph": STAR_3_GRAPH,
                "envs": STAR_3_ENVS,
                "seed": 1,
                "operation": operation,
                "output": {"path": str(tmp_path / "c.json")},
            },
        )
        assert main(["compare", "--config", cfg]) == 2
        assert f"operation.{field}" in capsys.readouterr().err


class TestDeriveAndRecover:
    def test_derive_law_table(self, tmp_path):
        out = tmp_path / "law.csv"
        cfg = write_config(
            tmp_path,
            {
                "env": {"family": "dirichlet", "alpha": [1.0, 1.0]},
                "operation": {"box": 2},
                "output": {"path": str(out), "format": "csv"},
            },
        )
        assert main(["derive-law", "--config", cfg]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "p_1,p_2,v_1,v_2"
        assert lines[1] == "0,0,0.5,0.5"

    def test_recover_moments_from_urn_law(self, tmp_path):
        out = tmp_path / "m.json"
        cfg = write_config(
            tmp_path,
            {
                "law": POLYA_LAW,
                "operation": {"order": 4},
                "output": {"path": str(out)},
            },
        )
        assert main(["recover-moments", "--config", cfg]) == 0
        payload = json.loads(out.read_text())
        values = {tuple(row["index"]): row["value"] for row in payload["table"]}
        assert values[(1, 1)] == pytest.approx(1 / 6, rel=1e-12)

    def test_recover_moments_rejects_witness(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "law": WITNESS_LAW,
                "operation": {"order": 2},
                "output": {"path": str(tmp_path / "m.json")},
            },
        )
        assert main(["recover-moments", "--config", cfg]) == 1


def one_move_polynomial(alpha: float, degree: int) -> dict:
    return {
        "family": "polynomial_dirichlet",
        "alpha": [alpha],
        "degree": degree,
        "coefficients": [{"index": [degree], "value": 2.0}],
    }


POLY_CENTER = {
    "family": "polynomial_dirichlet",
    "alpha": [1.0, 2.0],
    "degree": 1,
    "coefficients": [{"index": [1, 0], "value": 1.0}],
}


class TestOneMovePolynomialVertices:
    """A one-move vertex is a point mass whatever its spec; rounding must not reject it."""

    def test_simulate_with_polynomial_law_leaves(self, tmp_path):
        out = tmp_path / "t.json"
        cfg = write_config(
            tmp_path,
            {
                "graph": STAR_GRAPH,
                "laws": {"default": one_move_polynomial(0.7, 2), "per_vertex": {"0": POLY_CENTER}},
                "seed": 5,
                "operation": {"mode": "reinforced", "steps": 40, "trajectories": 20},
                "output": {"path": str(out)},
            },
        )
        assert main(["simulate", "--config", cfg]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["trajectories"]) == 20

    def test_empirical_compare_with_polynomial_env_leaves(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "graph": STAR_GRAPH,
                "envs": {"default": one_move_polynomial(1.3, 1), "per_vertex": {"0": POLY_CENTER}},
                "seed": 5,
                "operation": {"mode": "empirical", "steps": 6, "samples": 500},
                "output": {"path": str(tmp_path / "c.json")},
            },
        )
        assert main(["compare", "--config", cfg]) == 0


class TestAlphaValidation:
    def test_infinite_law_alpha_is_a_config_error(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "graph": STAR_GRAPH,
                "laws": {
                    "default": {"family": "uniform"},
                    "per_vertex": {"0": {"family": "dirichlet", "alpha": [float("inf"), 1.0]}},
                },
                "seed": 3,
                "operation": {"mode": "reinforced", "steps": 5, "trajectories": 2},
                "output": {"path": str(tmp_path / "t.json")},
            },
        )
        assert main(["simulate", "--config", cfg]) == 2

    def test_overflowing_env_alpha_total_is_a_config_error(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "graph": STAR_GRAPH,
                "envs": {
                    "default": {"family": "point_mass", "weights": [1.0]},
                    "per_vertex": {"0": {"family": "dirichlet", "alpha": [1e308, 1e308]}},
                },
                "operation": {"mode": "exact", "steps": 4},
                "output": {"path": str(tmp_path / "c.json")},
            },
        )
        assert main(["compare", "--config", cfg]) == 2

    def test_alpha_total_past_log_gamma_is_a_config_error(self, tmp_path, capsys):
        # each entry has a finite log-gamma and the total does not: every moment was NaN,
        # exact compare wrote TV=nan and exited 1
        cfg = write_config(
            tmp_path,
            {
                "graph": STAR_GRAPH,
                "envs": {
                    "default": {"family": "point_mass", "weights": [1.0]},
                    "per_vertex": {"0": {"family": "dirichlet", "alpha": [1.5e305, 1.5e305]}},
                },
                "operation": {"mode": "exact", "steps": 4},
                "output": {"path": str(tmp_path / "c.json")},
            },
        )
        assert main(["compare", "--config", cfg]) == 2
        assert "alpha total" in capsys.readouterr().err


_SIMULATE_OP = {"mode": "reinforced", "steps": 3, "trajectories": 2, "start": 0}
INTEGER_FIELD_CASES = {
    # field: (command, config, where the field goes: "operation" or the top level)
    "steps": ("simulate", {"graph": STAR_GRAPH, "laws": STAR_LAWS, "seed": 1,
                           "operation": _SIMULATE_OP}, "operation"),
    "trajectories": ("simulate", {"graph": STAR_GRAPH, "laws": STAR_LAWS, "seed": 1,
                                  "operation": _SIMULATE_OP}, "operation"),
    "start": ("simulate", {"graph": STAR_GRAPH, "laws": STAR_LAWS, "seed": 1,
                           "operation": _SIMULATE_OP}, "operation"),
    "env_seed": ("simulate", {"graph": STAR_GRAPH, "envs": STAR_ENVS, "seed": 1,
                              "operation": {**_SIMULATE_OP, "mode": "quenched", "env_seed": 1}},
                 "operation"),
    "samples": ("compare", {"graph": STAR_GRAPH, "envs": STAR_ENVS, "seed": 1,
                            "operation": {"mode": "empirical", "steps": 2, "samples": 200}},
                "operation"),
    "max_paths": ("compare", {"graph": STAR_GRAPH, "envs": STAR_ENVS,
                              "operation": {"mode": "exact", "steps": 2, "max_paths": 100}},
                  "operation"),
    "box": ("check-admissibility", {"law": POLYA_LAW, "operation": {"box": 2}}, "operation"),
    "order": ("verify-moments", {"law": POLYA_LAW, "operation": {"order": 2}}, "operation"),
    # a uniform law takes its dimension from this field, so true became UniformLaw(1)
    "dimension": ("check-admissibility", {"law": {"family": "uniform"}, "dimension": 2,
                                          "operation": {"box": 2}}, "top"),
}

_EXACT_COMPARE = {"graph": STAR_GRAPH, "envs": STAR_ENVS,
                  "operation": {"mode": "exact", "steps": 2, "max_paths": 100}}
RANGE_CASES = [
    # (command, config, field, smallest accepted value)
    ("check-admissibility", {"law": POLYA_LAW, "operation": {"box": 2}}, "box", 1),
    ("derive-law", {"env": {"family": "dirichlet", "alpha": [1.0, 2.0]},
                    "operation": {"box": 2}}, "box", 0),
    ("verify-moments", {"law": POLYA_LAW, "operation": {"order": 2}}, "order", 0),
    ("recover-moments", {"law": POLYA_LAW, "operation": {"order": 2}}, "order", 0),
    ("simulate", INTEGER_FIELD_CASES["steps"][1], "steps", 0),
    ("simulate", INTEGER_FIELD_CASES["trajectories"][1], "trajectories", 1),
    ("simulate", INTEGER_FIELD_CASES["env_seed"][1], "env_seed", 0),
    ("compare", _EXACT_COMPARE, "steps", 0),
    ("compare", _EXACT_COMPARE, "max_paths", 1),
    ("compare", INTEGER_FIELD_CASES["samples"][1], "samples", 100),
]


class TestIntegerFields:
    """Integer fields take ints or integral floats; int() would accept true and truncate 2.5."""

    @staticmethod
    def _run(tmp_path, field, value):
        command, payload, where = INTEGER_FIELD_CASES[field]
        payload = json.loads(json.dumps(payload))
        target = payload["operation"] if where == "operation" else payload
        if value is not None:
            target[field] = value
        payload["output"] = {"path": str(tmp_path / "o.json")}
        return main([command, "--config", write_config(tmp_path, payload)])

    @pytest.mark.parametrize("field", sorted(INTEGER_FIELD_CASES))
    @pytest.mark.parametrize("value", [True, 2.5, "2"])
    def test_bad_values_are_config_errors(self, tmp_path, capsys, field, value):
        assert self._run(tmp_path, field, value) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("field", sorted(INTEGER_FIELD_CASES))
    def test_integral_floats_are_accepted(self, tmp_path, field):
        command, payload, where = INTEGER_FIELD_CASES[field]
        target = payload["operation"] if where == "operation" else payload
        assert self._run(tmp_path, field, float(target.get(field, 2))) == 0

    @staticmethod
    def _run_range_case(tmp_path, case, value):
        command, payload, field, _ = case
        payload = json.loads(json.dumps(payload))
        payload["operation"][field] = value
        payload["output"] = {"path": str(tmp_path / "o.json")}
        return main([command, "--config", write_config(tmp_path, payload)])

    @pytest.mark.parametrize("case", RANGE_CASES, ids=lambda c: f"{c[0]}-{c[2]}")
    def test_values_below_the_minimum_are_config_errors(self, tmp_path, capsys, case):
        # derive-law would iterate an empty range for box -1 and write an empty table
        assert self._run_range_case(tmp_path, case, case[3] - 1) == 2
        err = capsys.readouterr().err
        assert f"operation.{case[2]} must be >= {case[3]}" in err

    @pytest.mark.parametrize("case", RANGE_CASES, ids=lambda c: f"{c[0]}-{c[2]}")
    def test_the_minimum_is_accepted(self, tmp_path, case):
        # max_paths 1 is a valid budget that two steps exceed: the guard, not a config error
        assert self._run_range_case(tmp_path, case, case[3]) != 2

    def test_boolean_seed_is_a_config_error(self, tmp_path, capsys):
        payload = {**INTEGER_FIELD_CASES["steps"][1], "seed": True,
                   "output": {"path": str(tmp_path / "o.json")}}
        assert main(["simulate", "--config", write_config(tmp_path, payload)]) == 2
        assert "seed" in capsys.readouterr().err


class TestQuantile:
    """operation.quantile of empirical compare must be a finite number in (0, 1)."""

    @staticmethod
    def _run(tmp_path, quantile):
        # a uniform law at the centre is not induced by the Dirichlet(1,1,1) environment
        cfg = write_config(
            tmp_path,
            {
                "graph": STAR_3_GRAPH,
                "laws": {"default": {"family": "uniform"}},
                "envs": STAR_3_ENVS,
                "seed": 3,
                "operation": {"mode": "empirical", "steps": 4, "samples": 2000,
                              "quantile": quantile},
                "output": {"path": str(tmp_path / "c.json")},
            },
        )
        return main(["compare", "--config", cfg])

    @pytest.mark.parametrize("quantile", [1, 1.0, 2.0, 0.0, -0.5, math.nan, math.inf, True, "0.9"])
    def test_bad_quantiles_are_config_errors(self, tmp_path, capsys, quantile):
        assert self._run(tmp_path, quantile) == 2
        assert "operation.quantile" in capsys.readouterr().err

    def test_a_mismatched_law_fails_at_a_valid_quantile(self, tmp_path):
        assert self._run(tmp_path, 0.999) == 1


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    # nor any of scipy, which no command imports
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    probe = "import sys, urnwalk.cli; print('scipy.stats' in sys.modules, 'scipy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.split() == ["False", "False"]


GOLDEN_DERIVE_ENVS = {
    "dirichlet_d4_box8": ({"family": "dirichlet", "alpha": [0.5, 1.0, 2.5, 4.0]}, 8),
    "polynomial_d3_box10": (
        {
            "family": "polynomial_dirichlet",
            "alpha": [0.5, 1.0, 2.0],
            "degree": 3,
            # all ten monomials, so the log-sum-exp adds past numpy's pairwise threshold
            "coefficients": [
                {"index": [3, 0, 0], "value": 1.0}, {"index": [2, 1, 0], "value": 0.5},
                {"index": [2, 0, 1], "value": 2.0}, {"index": [1, 2, 0], "value": 0.25},
                {"index": [1, 1, 1], "value": 3.0}, {"index": [1, 0, 2], "value": 1.5},
                {"index": [0, 3, 0], "value": 0.75}, {"index": [0, 2, 1], "value": 1.25},
                {"index": [0, 1, 2], "value": 0.125}, {"index": [0, 0, 3], "value": 4.0},
            ],
        },
        10,
    ),
}

#: SHA-256 of every file derive-law writes under numerics 2 (summed-log moments,
#: normalised induced weights), taken from the per-point evaluation (Python 3.11,
#: numpy 2.4.6); the files holding the meta re-pinned for ``"numerics": 3``, whose
#: bytes are those of numerics 2 with the 2 replaced.
GOLDEN_DERIVE_DIGESTS = {
    ("dirichlet_d4_box8", "csv"): {
        "law.csv": "6daf4c33cb529725f3682a7795acb226ce87c3b6c56b03abc4499c65b0c45850",
        "law.csv.meta.json": "8858c385bc83b0b87a3be64058657d034642ed7e9667bcbde47997def08f86ba",
    },
    ("dirichlet_d4_box8", "json"): {
        "law.json": "777ef0447b133ed3686e0fe683cec0566c9162221c0735dc76385cffac245dd6",
    },
    ("polynomial_d3_box10", "csv"): {
        "law.csv": "0711447450fbdadcbb6dc5a8da2297960849e032e34232ac0fb4a52cd849a159",
        "law.csv.meta.json": "814b2c94bbe0fbb24242ebeb3650ab5961e05935df1e6175a07063e69551c932",
    },
    ("polynomial_d3_box10", "json"): {
        "law.json": "bfa7c19c628f98e46d87a5c140f243cfa06f858ce24f2075982884c96d4feabe",
    },
}


class TestDeriveLawBatch:
    """derive-law evaluates its whole box in one batch and keeps every output byte."""

    @pytest.mark.parametrize("name, fmt", sorted(GOLDEN_DERIVE_DIGESTS))
    def test_golden_bytes(self, tmp_path, monkeypatch, name, fmt):
        # a relative output path keeps the config hash in the metadata independent of tmp_path
        monkeypatch.chdir(tmp_path)
        env, box = GOLDEN_DERIVE_ENVS[name]
        cfg = write_config(tmp_path, {"env": env, "operation": {"box": box},
                                      "output": {"path": f"law.{fmt}", "format": fmt}})
        assert main(["derive-law", "--config", cfg]) == 0
        want = GOLDEN_DERIVE_DIGESTS[name, fmt]
        got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in want}
        assert got == want

    def test_a_box_over_the_row_limit_exits_4_at_once(self, tmp_path):
        # 101**4 count vectors would take hours one point at a time; run in a child
        # with a timeout so that such a regression fails instead of hanging
        out = tmp_path / "law.csv"
        cfg = write_config(tmp_path, {"env": {"family": "dirichlet", "alpha": [1.0, 2.0, 3.0, 4.0]},
                                      "operation": {"box": 100},
                                      "output": {"path": str(out), "format": "csv"}})
        src = str(Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run(
            [sys.executable, "-m", "urnwalk.cli", "derive-law", "--config", cfg],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 4, done.stderr
        assert "enumeration guard" in done.stderr
        assert not out.exists()

    def test_the_row_limit_is_compares_default_path_budget(self, tmp_path):
        # 10**6 + 1 count vectors in one dimension, one over the limit
        cfg = write_config(tmp_path, {"env": {"family": "dirichlet", "alpha": [1.0]},
                                      "operation": {"box": 10**6},
                                      "output": {"path": str(tmp_path / "law.csv")}})
        assert main(["derive-law", "--config", cfg]) == 4

    @pytest.mark.parametrize("box, code", [(3, 0), (4, 4)])
    def test_the_row_limit_counts_count_vectors(self, tmp_path, monkeypatch, box, code):
        monkeypatch.setattr(cli, "MAX_DERIVE_ROWS", 16)
        cfg = write_config(tmp_path, {"env": {"family": "dirichlet", "alpha": [1.0, 2.0]},
                                      "operation": {"box": box},
                                      "output": {"path": str(tmp_path / "law.csv")}})
        assert main(["derive-law", "--config", cfg]) == code

    def test_a_config_error_comes_before_the_row_limit(self, tmp_path):
        cfg = write_config(tmp_path, {"env": {"family": "dirichlet", "alpha": [1.0, 2.0]},
                                      "operation": {"box": 10**4}})
        assert main(["derive-law", "--config", cfg]) == 2

    def test_a_polynomial_evaluation_error_exits_3(self, tmp_path, monkeypatch, capsys):
        # no config reaches it (the moments at alpha are checked when the environment
        # is built), so the row-wise polynomial is made to fail
        def underflow(self, y):
            raise EvaluationError("polynomial evaluation underflowed")

        monkeypatch.setattr(RisingPolynomial, "log_values", underflow)
        cfg = write_config(tmp_path, {"env": POLY_CENTER, "operation": {"box": 3},
                                      "output": {"path": str(tmp_path / "law.csv")}})
        assert main(["derive-law", "--config", cfg]) == 3
        assert "polynomial evaluation underflowed" in capsys.readouterr().err

    def test_the_first_bad_point_exits_3(self, tmp_path, monkeypatch, capsys):
        # no config reaches a NaN moment (check_alpha rejects the alpha totals whose
        # log-gamma overflows), so the batch moments are made NaN
        def nan_moments(self, counts):
            return np.full(len(counts), np.nan)

        monkeypatch.setattr(DirichletEnv, "log_mixed_moments", nan_moments)
        cfg = write_config(tmp_path, {"env": {"family": "dirichlet", "alpha": [1.0, 2.0]},
                                      "operation": {"box": 2},
                                      "output": {"path": str(tmp_path / "law.csv")}})
        assert main(["derive-law", "--config", cfg]) == 3
        assert "weight nan is not strictly positive" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify-moments", "recover-moments"])
    def test_witness_gap_comes_before_reading_outside_its_table(self, tmp_path, command):
        # the witness's square fails at degree 2 (exit 1); degree 3 would read
        # outside its box-1 table (exit 3)
        cfg = write_config(tmp_path, {"law": WITNESS_LAW, "operation": {"order": 3},
                                      "output": {"path": str(tmp_path / "m.json")}})
        assert main([command, "--config", cfg]) == 1


# criterion 9's mismatched star-2 pair: TV 1/6 at T = 4
MISMATCHED_STAR_2 = {
    "graph": STAR_GRAPH,
    "laws": STAR_LAWS,
    "envs": {
        "default": {"family": "point_mass", "weights": [1.0]},
        "per_vertex": {"0": {"family": "point_mass", "weights": [0.5, 0.5]}},
    },
    "operation": {"mode": "exact", "steps": 4},
}
HALF_TABLE = {
    "family": "tabulated",
    "box": 1,
    "entries": [{"counts": c, "weights": [0.5, 0.5]} for c in ([0, 0], [1, 0], [0, 1], [1, 1])],
}


def _law_case(**law):
    return "check-admissibility", {"law": {"family": "dirichlet", "alpha": [1.0, 2.0], **law},
                                   "operation": {"box": 2}}


def _env_case(**env):
    return "derive-law", {"env": {**POLY_CENTER, **env}, "operation": {"box": 2}}


def _graph_case(**graph):
    return "simulate", {"graph": graph, "laws": {"default": {"family": "uniform"}}, "seed": 1,
                        "operation": {"mode": "reinforced", "steps": 3}}


def _atoms_case(atoms):
    envs = {"default": {"family": "point_mass", "weights": [1.0]},
            "per_vertex": {"0": {"family": "empirical", "atoms": atoms}}}
    return "compare", {**MISMATCHED_STAR_2, "envs": envs}


#: id: (command, config, the field its error message must name).  Each one exited
#: 0 (truncated or cast), 1 (a false verdict) or escaped as a TypeError traceback.
MALFORMED_CONFIGS = {
    "tolerance-true": ("compare", {**MISMATCHED_STAR_2, "operation": {
        **MISMATCHED_STAR_2["operation"], "tolerance": True}}, "tolerance"),
    "leaves-fraction": (*_graph_case(generator="star", leaves=2.7), "leaves"),
    "leaves-null": (*_graph_case(generator="star", leaves=None), "leaves"),
    "vertices-fraction": (*_graph_case(vertices=2.5, adjacency=[[1], [0]]), "vertices"),
    "adjacency-number": (*_graph_case(vertices=2, adjacency=5), "adjacency"),
    "degree-fraction": (*_env_case(degree=1.5), "degree"),
    "index-fraction": (*_env_case(coefficients=[{"index": [1.7, 0], "value": 1.0}]), "index"),
    "value-null": (*_env_case(coefficients=[{"index": [1, 0], "value": None}]), "value"),
    "dimension-fraction": ("check-admissibility", {"law": {"family": "uniform", "dimension": 2.9},
                                                   "operation": {"box": 2}}, "dimension"),
    "alpha-bool": (*_law_case(alpha=[True, 2]), "alpha"),
    "alpha-strings": (*_law_case(alpha=["1", "2"]), "alpha"),
    "alpha-number": (*_law_case(alpha=5), "alpha"),
    "entries-number": ("check-admissibility", {"law": {**HALF_TABLE, "entries": 5},
                                               "operation": {"box": 1}}, "entries"),
    "counts-string": ("check-admissibility", {"law": {**HALF_TABLE, "entries": [
        {**e, "counts": ["1", 0]} if e["counts"] == [1, 0] else e for e in HALF_TABLE["entries"]
    ]}, "operation": {"box": 1}}, "counts"),
    "weights-strings": ("derive-law", {"env": {"family": "point_mass", "weights": ["0.5", 0.5]},
                                       "operation": {"box": 2}}, "weights"),
    "atoms-number": (*_atoms_case([5]), "atoms"),
    # a NaN atom weight made the annealed law NaN, and compare exited 1
    "atom-weight-nan": (*_atoms_case([{"weight": math.nan, "weights": [0.5, 0.5]}]), "weight"),
    "assignment-number": ("simulate", {"graph": STAR_GRAPH, "assignment": 5, "seed": 1,
                                       "operation": {"mode": "quenched", "steps": 3}},
                          "assignment"),
}


def _run(tmp_path, command, payload, *extra):
    payload = {**payload, "output": {"path": str(tmp_path / "o.json"), **payload.get("output", {})}}
    return main([command, "--config", write_config(tmp_path, payload), *extra])


class TestMalformedConfigs:
    """A malformed field exits 2 with a message that names it, whatever is wrong with it."""

    @pytest.mark.parametrize("case", sorted(MALFORMED_CONFIGS))
    def test_exits_2_naming_the_field(self, tmp_path, capsys, case):
        command, payload, field = MALFORMED_CONFIGS[case]
        assert _run(tmp_path, command, payload) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and field in err

    @pytest.mark.parametrize("path", [True, math.nan, 5])
    def test_output_path_must_be_a_string(self, tmp_path, capsys, path):
        payload = {"law": POLYA_LAW, "operation": {"box": 2}, "output": {"path": path}}
        assert main(["check-admissibility", "--config", write_config(tmp_path, payload)]) == 2
        assert "output path" in capsys.readouterr().err

    @pytest.mark.parametrize("section, flag", [("operation", ["--tolerance", "1e-9"]),
                                               ("output", ["--out", "o.json"]),
                                               ("output", ["--format", "csv"])])
    def test_a_section_that_is_not_an_object_is_a_config_error_under_an_override(
        self, tmp_path, capsys, section, flag
    ):
        # the override wrote into the section before anything checked that it was an object
        payload = {"schema": 1, "law": POLYA_LAW, section: 5}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["check-admissibility", "--config", str(path), *flag]) == 2
        assert f"{section} section" in capsys.readouterr().err


class TestQuenchedAssignment:
    """An inline assignment gives every vertex of the graph a point of its degree."""

    # star-1: two vertices of degree 1
    GRAPH = {"generator": "star", "leaves": 1}

    def _run(self, tmp_path, assignment):
        payload = {"graph": self.GRAPH, "assignment": assignment, "seed": 1,
                   "operation": {"mode": "quenched", "steps": 3, "trajectories": 2}}
        return _run(tmp_path, "simulate", payload)

    @pytest.mark.parametrize("assignment", [{"0": [1.0], "1": [1.0]}, [[1.0], [1.0]]])
    def test_a_point_per_vertex_runs(self, tmp_path, assignment):
        assert self._run(tmp_path, assignment) == 0

    @pytest.mark.parametrize(
        "assignment",
        [
            # ignored, exit 0
            {"0": [1.0], "1": [1.0], "7": [1.0]},
            {"0": [1.0], "1": [1.0], "-1": [1.0]},
            [[1.0], [1.0], [1.0]],
            # exit 3
            {"0": [1.0], "x": [1.0]},
            {"0": [1.0]},
            [[1.0]],
            {"0": [0.5, 0.5], "1": [1.0]},
        ],
        ids=["unknown-vertex", "negative-vertex", "extra-row", "non-integer-key",
             "missing-vertex", "missing-row", "wrong-dimension"],
    )
    def test_a_bad_assignment_exits_2(self, tmp_path, capsys, assignment):
        assert self._run(tmp_path, assignment) == 2
        assert "assignment" in capsys.readouterr().err


#: name: (command, a valid config).  One per command (two for simulate and
#: compare), covering every law, environment and graph family between them.
LEAF_CONFIGS = {
    "check-admissibility": ("check-admissibility", {
        "law": POLY_CENTER, "dimension": 2, "operation": {"box": 2, "tolerance": 1e-9},
    }),
    "verify-moments": ("verify-moments", {
        "law": {**HALF_TABLE, "fallback": "clamp"}, "operation": {"order": 2, "tolerance": 1e-9},
    }),
    "simulate-quenched": ("simulate", {
        "graph": {"generator": "segment", "length": 3},
        "assignment": {"0": [1.0], "1": [0.25, 0.75], "2": [1.0]},
        "seed": 3,
        "operation": {"mode": "quenched", "steps": 3, "trajectories": 2, "start": 0},
        "output": {"format": "csv"},
    }),
    "simulate-reinforced": ("simulate", {
        "graph": {"generator": "grid", "rows": 1, "cols": 2},
        "laws": {"default": {"family": "uniform", "dimension": 1}},
        "seed": 3,
        "operation": {"mode": "reinforced", "steps": 2},
    }),
    "compare-exact": ("compare", {
        "graph": {"vertices": 3, "adjacency": [[1, 2], [0], [0]]},
        "laws": {"default": {"family": "uniform"}, "per_vertex": {"0": POLYA_LAW}},
        "envs": {
            "default": {"family": "point_mass", "weights": [1.0]},
            "per_vertex": {"0": {"family": "empirical", "atoms": [
                {"weight": 0.5, "weights": [0.25, 0.75]}, {"weight": 0.5, "weights": [0.75, 0.25]},
            ]}},
        },
        "operation": {"mode": "exact", "steps": 2, "start": 0, "max_paths": 100,
                      "tolerance": 1e-9},
    }),
    "compare-empirical": ("compare", {
        "graph": {"generator": "cycle", "length": 3},
        "envs": {"default": {"family": "dirichlet", "alpha": [1.0, 2.0]}},
        "seed": 3,
        "operation": {"mode": "empirical", "steps": 2, "samples": 100, "quantile": 0.999},
    }),
    "derive-law": ("derive-law", {
        "env": {"family": "polynomial_dirichlet", "alpha": [1.0, 2.0], "degree": 2,
                "coefficients": [{"index": [2, 0], "value": 1.0},
                                 {"index": [1, 1], "value": 0.5}]},
        "operation": {"box": 2},
    }),
    "recover-moments": ("recover-moments", {
        "law": {"family": "uniform", "dimension": 2}, "operation": {"order": 2},
    }),
}


def _leaves(node, path=()):
    """The path of every scalar in a JSON tree."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path]
    return [leaf for key, child in items for leaf in _leaves(child, (*path, key))]


def _with_leaf(payload, path, value):
    payload = json.loads(json.dumps(payload))
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return payload


def _full_config(tmp_path, name):
    payload = {"schema": 1, **LEAF_CONFIGS[name][1]}
    payload["output"] = {"path": str(tmp_path / "o.out"), **payload.get("output", {})}
    return payload


LEAF_CASES = [
    (name, path)
    for name in LEAF_CONFIGS
    for path in _leaves(_full_config(Path("."), name))
    if path != ("output", "path")
]


class TestEveryLeaf:
    """Every scalar field, replaced by a value of the wrong kind, is a config error."""

    @pytest.mark.parametrize("name", sorted(LEAF_CONFIGS))
    def test_the_configs_are_valid(self, tmp_path, name):
        cfg = self._write(tmp_path, _full_config(tmp_path, name))
        assert main([LEAF_CONFIGS[name][0], "--config", cfg]) in (0, 1)

    @pytest.mark.parametrize(
        "name, path", LEAF_CASES, ids=[f"{n}:{'.'.join(map(str, p))}" for n, p in LEAF_CASES]
    )
    def test_a_wrong_kind_exits_2(self, tmp_path, capsys, name, path):
        payload = _full_config(tmp_path, name)
        for value in (None, True, "1", math.nan):
            cfg = self._write(tmp_path, _with_leaf(payload, path, value))
            assert main([LEAF_CONFIGS[name][0], "--config", cfg]) == 2, value
            assert capsys.readouterr().err.startswith("config error:"), value

    @staticmethod
    def _write(tmp_path, payload):
        path = tmp_path / "leaf.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)


def test_no_command_loads_scipy(tmp_path):
    # one child runs every command, empirical compare included: its chi-square
    # threshold is computed in the package
    runs = []
    for name in sorted(LEAF_CONFIGS):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(_full_config(tmp_path, name)), encoding="utf-8")
        runs.append((name, [LEAF_CONFIGS[name][0], "--config", str(path)]))
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = (
        "import contextlib, io, json, sys, urnwalk.cli\n"
        "loaded = []\n"
        f"for name, argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "        code = urnwalk.cli.main(argv)\n"
        "    loaded.append([name, code] + [m in sys.modules for m in "
        "('scipy', 'scipy.special', 'scipy.stats')])\n"
        "print(json.dumps(loaded))"
    )
    done = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == [[name, 0, False, False, False] for name, _ in runs]


@pytest.mark.parametrize("name", sorted(LEAF_CONFIGS))
def test_every_command_records_its_numerics_version(tmp_path, monkeypatch, name):
    payload = _full_config(tmp_path, name)
    payload["output"] = {"path": str(tmp_path / "o.json"), "format": "json"}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert main([LEAF_CONFIGS[name][0], "--config", str(path)]) == 0
    assert json.loads((tmp_path / "o.json").read_text())["numerics"] == 3


def mp_chi2_quantile(quantile: float, dof: int, start: float) -> float:
    """The chi-square quantile at 50 digits: Newton's method from ``start`` on mpmath's gamma ratio.

    Above the median it solves ``Q(dof / 2, x) = 1 - quantile``, which mpmath
    forms without rounding.
    """
    with mpmath.workdps(50):
        a, q = mpmath.mpf(dof) / 2, mpmath.mpf(quantile)
        upper = q > 0.5
        x = mpmath.mpf(start) / 2
        for _ in range(100):
            if upper:
                gap = (1 - q) - mpmath.gammainc(a, x, mpmath.inf, regularized=True)
            else:
                gap = mpmath.gammainc(a, 0, x, regularized=True) - q
            density = mpmath.exp((a - 1) * mpmath.log(x) - x - mpmath.loggamma(a))
            step = gap / density
            x -= step
            if abs(step) <= x * mpmath.mpf(10) ** -45:
                break
        return float(2 * x)


def chi2_grid() -> list[tuple[float, int]]:
    """Fixed and seeded (quantile, dof) pairs over dof 1..5,000 and quantiles 1e-12..1 - 1e-12."""
    rng = random.Random(20260412)
    grid = [(q, dof) for dof in (1, 2, 3, 5, 19, 20, 21, 100, 999, 5000)
            for q in (1e-12, 1e-6, 0.01, 0.3, 0.5, 0.7, 0.99, 0.999999, 1 - 1e-12)]
    for _ in range(100):
        dof = rng.randint(1, 5000) if rng.random() < 0.7 else rng.randint(1, 30)
        if rng.random() < 0.5:
            q = 10 ** rng.uniform(-12, 0)
        else:
            q = 1 - 10 ** rng.uniform(-12, -0.3)
        grid.append((q, dof))
    return grid


def check_thresholds(quantiles, dof):
    """Finite, non-negative, non-decreasing in the quantile, and each under 50 ms."""
    previous = 0.0
    for q in sorted(quantiles):
        start = time.perf_counter()
        threshold = cli.chi2_quantile(q, dof)
        assert time.perf_counter() - start < 0.05, (q, dof)
        assert math.isfinite(threshold) and threshold >= previous, (q, dof, threshold, previous)
        previous = threshold


class TestChiSquareThreshold:
    """Empirical compare's threshold, computed in the package with ``math`` alone."""

    @needs_mpmath
    def test_within_8_ulps_of_mpmath(self):
        from scipy.stats import chi2

        for q, dof in chi2_grid():
            got = cli.chi2_quantile(q, dof)
            # scipy gives Newton a start within 1e-13; mpmath takes it to 50 digits
            want = mp_chi2_quantile(q, dof, float(chi2.ppf(q, dof)))
            assert abs(got - want) <= 8 * math.ulp(want), (q, dof, got, want)

    @settings(max_examples=400, deadline=None)
    @given(
        st.floats(min_value=1e-12, max_value=1.0, exclude_max=True),
        st.integers(min_value=1, max_value=5000),
    )
    def test_within_1e_13_of_chi2_ppf(self, quantile, dof):
        # not bitwise: scipy's own gammaincinv errs by up to 49 ulps here
        from scipy.stats import chi2

        want = float(chi2.ppf(quantile, dof))
        assert math.isclose(cli.chi2_quantile(quantile, dof), want, rel_tol=1e-13)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
                 min_size=1, max_size=6),
        st.integers(min_value=1, max_value=DEFAULT_MAX_PATHS),
    )
    def test_defined_on_the_whole_domain(self, quantiles, dof):
        check_thresholds(quantiles, dof)

    @pytest.mark.parametrize("dof", [1, 2, 10**6])
    def test_defined_at_the_ends_of_the_domain(self, dof):
        check_thresholds([5e-324, 1e-300, 0.5, 1 - 2**-53], dof)

    def test_the_smallest_quantile_at_one_degree_is_zero(self):
        # as scipy gives: (q Gamma(3/2))^2 underflows
        assert cli.chi2_quantile(5e-324, 1) == 0.0

    def test_an_empirical_compare_leaves_scipy_unloaded(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "graph": STAR_GRAPH,
                "envs": STAR_ENVS,
                "seed": 12,
                "operation": {"mode": "empirical", "steps": 3, "samples": 500},
                "output": {"path": str(tmp_path / "c.json")},
            },
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        probe = (
            "import contextlib, io, sys, urnwalk.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = urnwalk.cli.main(['compare', '--config', {cfg!r}])\n"
            "print(code, 'scipy' in sys.modules)"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert done.stdout.split() == ["0", "False"]
        assert json.loads((tmp_path / "c.json").read_text())["passed"] is True


class TestVertexIdKeys:
    """A vertex id key is plain decimal, so no two keys can name one vertex."""

    GRAPH = {"generator": "cycle", "length": 12}

    def _simulate(self, tmp_path, per_vertex):
        cfg = write_config(
            tmp_path,
            {
                "graph": self.GRAPH,
                "laws": {"default": {"family": "uniform"}, "per_vertex": per_vertex},
                "seed": 1,
                "operation": {"mode": "reinforced", "steps": 5},
                "output": {"path": str(tmp_path / "t.json")},
            },
        )
        return main(["simulate", "--config", cfg])

    @pytest.mark.parametrize("key", ["1_0", "+1", " 1 ", "01", "1.0", "-0", "\u0661", "1\n"])
    def test_a_non_canonical_key_exits_2(self, tmp_path, capsys, key):
        assert self._simulate(tmp_path, {key: POLYA_LAW}) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and repr(key) in err

    @pytest.mark.parametrize("key", ["0", "1", "10", "11"])
    def test_a_canonical_key_names_its_vertex(self, tmp_path, key):
        assert self._simulate(tmp_path, {key: POLYA_LAW}) == 0

    @pytest.mark.parametrize("key", ["01", "+1", " 1 ", "1_0"])
    def test_an_assignment_key_is_checked_too(self, tmp_path, capsys, key):
        points = {str(x): [0.5, 0.5] for x in range(12)}
        cfg = write_config(
            tmp_path,
            {
                "graph": self.GRAPH,
                "assignment": {**points, key: [0.25, 0.75]},
                "seed": 1,
                "operation": {"mode": "quenched", "steps": 5},
                "output": {"path": str(tmp_path / "t.json")},
            },
        )
        assert main(["simulate", "--config", cfg]) == 2
        assert "assignment" in capsys.readouterr().err


#: command: a config whose work, if it ran, would exit 1 or 3.  With
#: ``"format": "xml"`` each must exit 2.
WORK_AFTER_OUTPUT = {
    # the witness's square fails at degree 2: exit 1
    "verify-moments": {"law": WITNESS_LAW, "operation": {"order": 3}},
    "recover-moments": {"law": WITNESS_LAW, "operation": {"order": 3}},
    # a reject table scanned past its box: exit 3
    "check-admissibility": {"law": WITNESS_LAW, "operation": {"box": 4}},
    # a reinforced walk on a 3-cycle leaves its reject table: exit 3
    "simulate": {"graph": {"generator": "cycle", "length": 3},
                 "laws": {"default": HALF_TABLE}, "seed": 1,
                 "operation": {"mode": "reinforced", "steps": 6}},
}


#: Every name in ``cli`` that does a command's work, rather than read its config.
WORK = ("check_admissible", "recover_env_moments", "hildebrandt_schoenberg_check",
        "simplex_mass", "enumerate_annealed", "enumerate_reinforced", "compare_distributions",
        "compare_empirical", "lockstep_pays", "run_reinforced", "run_quenched", "run_annealed",
        "run_many_reinforced", "run_many_quenched", "run_many_annealed", "stream_generators",
        "make_stream", "sample_environment", "check_simplex")

_SIMULATE = {"graph": STAR_GRAPH, "seed": 1}
_COMPARE = {"graph": STAR_GRAPH, "envs": STAR_ENVS}

#: id: (command, a config that passes, extra argv).  Every command, both compare
#: modes and every simulate mode, with the quenched environment sampled and inline.
GOOD_PLANS = {
    "check-admissibility": ("check-admissibility", {"law": POLYA_LAW, "operation": {"box": 2}},
                            ()),
    "verify-moments": ("verify-moments", {"law": POLYA_LAW, "operation": {"order": 3}},
                       ("--corrupt-entry", "1,0=0.5")),
    "recover-moments": ("recover-moments", {"law": POLYA_LAW, "operation": {"order": 3}}, ()),
    "derive-law": ("derive-law", {"env": POLYA_23_LAW, "operation": {"box": 2}}, ()),
    "simulate-reinforced": ("simulate", {**_SIMULATE, "laws": STAR_LAWS,
                                         "operation": {"mode": "reinforced", "steps": 3}}, ()),
    "simulate-annealed": ("simulate", {**_SIMULATE, "envs": STAR_ENVS,
                                       "operation": {"mode": "annealed", "steps": 3}}, ()),
    "simulate-quenched-sampled": ("simulate", {**_SIMULATE, "envs": STAR_ENVS, "operation": {
        "mode": "quenched", "steps": 3, "env_seed": 5}}, ()),
    "simulate-quenched-inline": ("simulate", {**_SIMULATE, "assignment": {
        "0": [0.5, 0.5], "1": [1.0], "2": [1.0]}, "operation": {"mode": "quenched", "steps": 3}},
                                 ()),
    "compare-exact": ("compare", {**_COMPARE, "operation": {"mode": "exact", "steps": 3}}, ()),
    "compare-empirical": ("compare", {**_COMPARE, "seed": 1, "operation": {
        "mode": "empirical", "steps": 3, "samples": 200}}, ()),
}

#: id: (output section, what the message names).  Each one is found before any work.
BAD_OUTPUTS = {
    "format-xml": (lambda tmp: {"path": str(tmp / "o.json"), "format": "xml"}, "output format"),
    "no-path": (lambda tmp: {"format": "json"}, "an output path is required"),
    # the two that escaped as FileNotFoundError / IsADirectoryError tracebacks (exit 1)
    "missing-directory": (lambda tmp: {"path": str(tmp / "missing" / "o.json")}, "does not exist"),
    "directory": (lambda tmp: {"path": str(tmp)}, "is a directory"),
}

_CORRUPT_WITNESS = {"law": WITNESS_LAW}

#: id: (plan id, top-level changes, operation changes, extra argv, what the message names)
MALFORMED_PLANS = {
    "simulate-mode": ("simulate-reinforced", {}, {"mode": "walk"}, (), "operation.mode"),
    "compare-mode": ("compare-exact", {}, {"mode": "exct"}, (), "operation.mode"),
    "quantile-above-1": ("compare-empirical", {}, {"quantile": 2.0}, (), "operation.quantile"),
    "quantile-1": ("compare-empirical", {}, {"quantile": 1.0}, (), "operation.quantile"),
    "samples-below-100": ("compare-empirical", {}, {"samples": 50}, (), "operation.samples"),
    "env-seed-negative": ("simulate-quenched-sampled", {}, {"env_seed": -1}, (),
                          "operation.env_seed"),
    "env-seed-string": ("simulate-quenched-sampled", {}, {"env_seed": "5"}, (),
                        "operation.env_seed"),
    # the witness is not admissible, so its table is never built: each entry is
    # checked against the dimension and the order alone
    **{f"corrupt-entry-{entry}": ("verify-moments", _CORRUPT_WITNESS, {},
                                  ("--corrupt-entry", entry), f"--corrupt-entry {entry}")
       for entry in ("9,9=0.5", "1,0=-1", "1,0,0=0.5", "1,0=0", "1,0=nan")},
    "corrupt-entry-syntax": ("verify-moments", _CORRUPT_WITNESS, {}, ("--corrupt-entry", "1;0=0.5"),
                             "--corrupt-entry"),
}


def _plan_config(tmp_path, plan, output=None, changes=None, operation=None):
    command, payload, extra = GOOD_PLANS[plan]
    payload = {**payload, **(changes or {}),
               "operation": {**payload["operation"], **(operation or {})},
               "output": output if output is not None else {"path": str(tmp_path / "o.json")}}
    return command, {"schema": 1, **payload}, extra


class TestConfigErrorsBeforeWork:
    """Each command's plan reads its whole config, so a malformed field exits 2 before any work."""

    @staticmethod
    def _forbid(monkeypatch):
        for name in WORK:
            def never(*args, name=name, **kwargs):
                raise AssertionError(f"{name} ran before the config was read")

            monkeypatch.setattr(cli, name, never)

    @staticmethod
    def _main(tmp_path, command, cfg, extra):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        return main([command, "--config", str(path), *extra])

    @pytest.mark.parametrize("plan", sorted(GOOD_PLANS))
    def test_a_plan_does_no_work(self, tmp_path, monkeypatch, plan):
        command, cfg, extra = _plan_config(tmp_path, plan)
        args = cli.build_parser().parse_args([command, "--config", "unread.json", *extra])
        self._forbid(monkeypatch)
        assert callable(cli.COMMANDS[command](cfg, args))

    @pytest.mark.parametrize("command", sorted(WORK_AFTER_OUTPUT))
    def test_a_bad_output_format_exits_2_before_the_work(self, tmp_path, capsys, monkeypatch,
                                                         command):
        self._forbid(monkeypatch)
        assert _run(tmp_path, command, {**WORK_AFTER_OUTPUT[command],
                                        "output": {"format": "xml"}}) == 2
        assert "output format" in capsys.readouterr().err

    @pytest.mark.parametrize("plan", sorted(GOOD_PLANS))
    def test_the_good_configs_pass(self, tmp_path, plan):
        assert self._main(tmp_path, *_plan_config(tmp_path, plan)) == 0

    @pytest.mark.parametrize("output", sorted(BAD_OUTPUTS))
    @pytest.mark.parametrize("plan", sorted(GOOD_PLANS))
    def test_a_bad_output_exits_2_before_the_work(self, tmp_path, capsys, monkeypatch, plan,
                                                  output):
        section, message = BAD_OUTPUTS[output]
        self._forbid(monkeypatch)
        assert self._main(tmp_path, *_plan_config(tmp_path, plan, section(tmp_path))) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(MALFORMED_PLANS))
    def test_a_malformed_field_exits_2_before_the_work(self, tmp_path, capsys, monkeypatch,
                                                       case):
        plan, changes, operation, extra, message = MALFORMED_PLANS[case]
        command, cfg, good_extra = _plan_config(tmp_path, plan, changes=changes,
                                                operation=operation)
        self._forbid(monkeypatch)
        assert self._main(tmp_path, command, cfg, extra or good_extra) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command, code", [("verify-moments", 1), ("recover-moments", 1),
                                               ("check-admissibility", 3), ("simulate", 3)])
    def test_the_work_exits_as_it_did_with_a_good_output(self, tmp_path, command, code):
        assert _run(tmp_path, command, WORK_AFTER_OUTPUT[command]) == code


class TestOutputs:
    """An output that cannot be written is a config error; a verdict goes where it belongs."""

    def test_an_output_that_fails_while_writing_exits_2(self, tmp_path, capsys):
        # the CSV is written, then its sidecar cannot be
        (tmp_path / "o.csv.meta.json").mkdir()
        cfg = write_config(tmp_path, {"law": POLYA_LAW, "operation": {"box": 2},
                                      "output": {"path": str(tmp_path / "o.csv"),
                                                 "format": "csv"}})
        assert main(["check-admissibility", "--config", cfg]) == 2
        assert "config error: cannot write output" in capsys.readouterr().err

    def test_recover_moments_on_an_inadmissible_law_reports_as_main_does(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        cfg = write_config(tmp_path, {"law": WITNESS_LAW, "operation": {"order": 2},
                                      "output": {"path": str(out)}})
        assert main(["recover-moments", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("not admissible: ") and not captured.out
        assert not out.exists()

    @pytest.mark.parametrize("payload, code", [(MISMATCHED_STAR_2, 1),
                                               (GOOD_PLANS["compare-exact"][1], 0)])
    def test_a_compare_verdict_goes_to_stderr_only_on_a_fail(self, tmp_path, capsys, payload,
                                                              code):
        cfg = write_config(tmp_path, {**payload, "output": {"path": str(tmp_path / "c.json")}})
        assert main(["compare", "--config", cfg]) == code
        captured = capsys.readouterr()
        summary, silent = (captured.err, captured.out) if code else (captured.out, captured.err)
        assert summary.startswith("exact compare: TV=") and not silent
        assert summary.endswith("(FAIL)\n" if code else "(pass)\n")
