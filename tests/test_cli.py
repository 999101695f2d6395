"""Command-line behavior: exit codes, outputs, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from urnwalk.cli import main

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

    def test_boolean_seed_is_a_config_error(self, tmp_path, capsys):
        payload = {**INTEGER_FIELD_CASES["steps"][1], "seed": True,
                   "output": {"path": str(tmp_path / "o.json")}}
        assert main(["simulate", "--config", write_config(tmp_path, payload)]) == 2
        assert "seed" in capsys.readouterr().err


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    probe = "import sys, urnwalk.cli; print('scipy.stats' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "False"
