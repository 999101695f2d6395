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
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from urnwalk import cli
from urnwalk.cli import main
from urnwalk.environment import ENVIRONMENT_DRAWS, DirichletEnv
from urnwalk.equivalence import DEFAULT_MAX_PATHS
from urnwalk.errors import EvaluationError
from urnwalk.laws import RisingPolynomial, regularised_gamma

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
# a d = 3 table whose two staircases agree on the order-3 ball although two
# of its squares are open, by +0.3 and -0.3 (see tests/test_batch.py)
OPEN_SQUARES_LAW = json.loads(
    (Path(__file__).with_name("open_squares_law.json")).read_text(encoding="utf-8"))
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


def strict_json(text: str):
    """``json.loads`` that rejects the non-standard tokens ``NaN``, ``Infinity`` and ``-Infinity``."""
    def reject(token):
        raise ValueError(f"not strict JSON: {token}")

    return json.loads(text, parse_constant=reject)


def test_non_finite_floats_are_written_as_strings(tmp_path):
    cells = [1.5, math.inf, -math.inf, math.nan]
    doc = {"meta": {"values": cells, "pair": (math.nan, 2)}, "rows": []}
    cli._write_json(tmp_path / "o.json", doc, [[c, i] for i, c in enumerate(cells)], "rows")
    got = strict_json((tmp_path / "o.json").read_text())
    strings = [1.5, "inf", "-inf", "nan"]
    assert got == {"meta": {"values": strings, "pair": ["nan", 2]},
                   "rows": [[c, i] for i, c in enumerate(strings)]}
    # finite floats keep json.dumps's bytes
    cli._write_json(tmp_path / "f.json", {"v": [0.1, 1e-300, 2.0]})
    assert (tmp_path / "f.json").read_text() == json.dumps({"v": [0.1, 1e-300, 2.0]}, indent=2) + "\n"


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
        assert payload["identity_report"]["passed"] is True
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
        assert payload["identity_report"]["passed"] is False

    def test_a_table_off_the_simplex_fails_with_every_slice_mass_kept(self, tmp_path, capsys):
        # E[x_1] = 0.501 but E[x_1^2] + E[x_1 x_2] = 0.5: every HS difference is positive
        # and every slice mass is 1, so this table passed
        cfg = write_config(
            tmp_path,
            {"law": POLYA_LAW, "operation": {"order": 3}, "output": {"path": str(tmp_path / "m.json")}},
        )
        code = main(["verify-moments", "--config", cfg, "--corrupt-entry", "1,0=0.501",
                     "--corrupt-entry", "0,1=0.499"])
        assert code == 1
        payload = json.loads((tmp_path / "m.json").read_text())
        report = payload["identity_report"]
        assert report["passed"] is False and payload["passed"] is False
        assert report["max_defect"] == pytest.approx(2.0e-3, rel=0.01)
        assert report["worst_case"] == [0, 1]
        assert max(m["deviation"] for m in payload["mass_deviations"]) <= 1e-10
        assert "identity defect=2.004e-03 at k=(0, 1)" in capsys.readouterr().err

    def test_a_subnormal_entry_fails_with_an_infinite_defect(self, tmp_path, capsys):
        # the weights out of (2, 0) overflow math.exp: the run still writes its report
        cfg = write_config(
            tmp_path,
            {"law": POLYA_LAW, "operation": {"order": 3}, "output": {"path": str(tmp_path / "m.json")}},
        )
        assert main(["verify-moments", "--config", cfg, "--corrupt-entry", "2,0=5e-324"]) == 1
        report = json.loads((tmp_path / "m.json").read_text())["identity_report"]
        assert report["max_defect"] == "inf" and report["worst_case"] == [2, 0]
        assert "simplex identity failed: identity defect=inf" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt, name", [("json", "m.json"), ("csv", "m.csv.meta.json")])
    def test_an_infinite_defect_is_strict_json(self, tmp_path, fmt, name):
        # json.dumps wrote the bare token Infinity, which strict JSON parsers reject
        out = tmp_path / name.removesuffix(".meta.json")
        cfg = write_config(tmp_path, {"law": POLYA_LAW, "operation": {"order": 3},
                                      "output": {"path": str(out), "format": fmt}})
        assert main(["verify-moments", "--config", cfg, "--corrupt-entry", "2,0=5e-324"]) == 1
        report = strict_json((tmp_path / name).read_text())["identity_report"]
        assert report["max_defect"] == "inf"

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 13")
    @pytest.mark.parametrize("eps", [0.01, 0.1])
    def test_a_table_no_measure_has_fails(self, tmp_path, eps):
        # E[X] = 1/2 but E[X^2] = eps < 1/4: no measure has these moments, yet the
        # order-2 table is path independent and meets the simplex identity
        law = {"family": "tabulated", "box": 1, "entries": [
            {"counts": [0, 0], "weights": [0.5, 0.5]},
            {"counts": [1, 0], "weights": [2 * eps, 1 - 2 * eps]},
            {"counts": [0, 1], "weights": [1 - 2 * eps, 2 * eps]},
            {"counts": [1, 1], "weights": [0.5, 0.5]},
        ]}
        cfg = write_config(
            tmp_path,
            {"law": law, "operation": {"order": 2}, "output": {"path": str(tmp_path / "m.json")}},
        )
        assert main(["verify-moments", "--config", cfg]) == 1

    def test_infinite_tolerance_is_a_config_error(self, tmp_path):
        # an infinite tolerance would certify the corrupted table
        cfg = write_config(
            tmp_path,
            {"law": POLYA_LAW, "operation": {"order": 6}, "output": {"path": str(tmp_path / "m.json")}},
        )
        code = main(["verify-moments", "--config", cfg, "--tolerance", "inf",
                     "--corrupt-entry", "1,0=1.5"])
        assert code == 2

    # the origin's entry is exactly 1 in every table: 0,0=0.5 once exited 3 after the build
    @pytest.mark.parametrize("entry", ["9,9=1.5", "1,0,0=1.5", "1,0=-2", "1,0=nan", "1,0=inf",
                                       "0,0=0.5"])
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
        assert meta["identity_report"]["passed"] is True


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

    def test_a_frozen_environment_draws_apart_from_the_trajectories(self, tmp_path):
        # with env_seed == seed the environment once drew trajectory 0's first words
        out = tmp_path / "t.json"
        cfg = write_config(tmp_path, {
            "graph": STAR_3_GRAPH, "envs": STAR_3_ENVS, "seed": 7,
            "operation": {"mode": "quenched", "steps": 4, "trajectories": 3, "env_seed": 7},
            "output": {"path": str(out), "format": "json"}})
        assert main(["simulate", "--config", cfg]) == 0
        frozen = json.loads(out.read_text())["assignment"]["0"]
        own = np.random.Generator(np.random.Philox(key=7, counter=[0, 0, 0, 1]))
        assert tuple(frozen) == DirichletEnv([1.0, 1.0, 1.0]).sample(own).weights
        first = np.random.Generator(np.random.Philox(key=7, counter=[0, 0, 0, 0]))
        assert tuple(frozen) != DirichletEnv([1.0, 1.0, 1.0]).sample(first).weights

    @pytest.mark.parametrize("env_seed", [2**64, 2**128, 1e30])
    def test_an_env_seed_past_64_bits_exits_2(self, tmp_path, capsys, env_seed):
        # Philox keys stop at 2**128: a larger one escaped as a raw ValueError
        cfg = write_config(tmp_path, {
            "graph": STAR_GRAPH, "envs": STAR_ENVS, "seed": 1,
            "operation": {"mode": "quenched", "steps": 2, "env_seed": env_seed},
            "output": {"path": str(tmp_path / "t.json")}})
        assert main(["simulate", "--config", cfg]) == 2
        assert "operation.env_seed must be an unsigned 64-bit integer" in capsys.readouterr().err

    def test_the_largest_env_seed_runs(self, tmp_path):
        cfg = write_config(tmp_path, {
            "graph": STAR_GRAPH, "envs": STAR_ENVS, "seed": 1,
            "operation": {"mode": "quenched", "steps": 2, "env_seed": 2**64 - 1},
            "output": {"path": str(tmp_path / "t.json")}})
        assert main(["simulate", "--config", cfg]) == 0

    @pytest.mark.parametrize("seed", range(1, 30))
    def test_tiny_alpha_annealed_runs_exit_0(self, tmp_path, seed):
        # 17 of these seeds exited 3 on a weight below MIN_WEIGHT
        out = tmp_path / "t.csv"
        cfg = write_config(tmp_path, {
            "graph": STAR_3_GRAPH, "seed": seed,
            "envs": {"default": {"family": "point_mass", "weights": [1.0]},
                     "per_vertex": {"0": {"family": "dirichlet", "alpha": [0.004, 0.004, 1.0]}}},
            "operation": {"mode": "annealed", "steps": 6, "trajectories": 40},
            "output": {"path": str(out), "format": "csv"}})
        assert main(["simulate", "--config", cfg]) == 0
        assert len(out.read_text().splitlines()) == 41

    def test_an_annealed_run_whose_every_alpha_is_tiny_exits_0(self, tmp_path):
        # every boosted log overflowed to -inf, and the nan weights exited 3
        out = tmp_path / "t.csv"
        cfg = write_config(tmp_path, {
            "graph": STAR_GRAPH, "seed": 1,
            "envs": {"default": {"family": "point_mass", "weights": [1.0]},
                     "per_vertex": {"0": {"family": "dirichlet", "alpha": [1e-320, 1e-320]}}},
            "operation": {"mode": "annealed", "steps": 6, "trajectories": 40},
            "output": {"path": str(out), "format": "csv"}})
        assert main(["simulate", "--config", cfg]) == 0
        assert len(out.read_text().splitlines()) == 41

    @pytest.mark.parametrize("command, payload", [
        ("simulate", {"laws": STAR_LAWS, "operation": {"mode": "reinforced", "steps": 2}}),
        ("simulate", {"envs": STAR_ENVS, "operation": {"mode": "annealed", "steps": 2}}),
        ("compare", {"envs": STAR_ENVS,
                     "operation": {"mode": "empirical", "steps": 2, "samples": 200}}),
    ])
    def test_sampled_outputs_record_the_stream_layout(self, tmp_path, command, payload):
        cfg = write_config(tmp_path, {"graph": STAR_GRAPH, "seed": 2, **payload,
                                      "output": {"path": str(tmp_path / "t.json")}})
        assert main([command, "--config", cfg]) == 0
        meta = json.loads((tmp_path / "t.json").read_text())
        assert meta["rng_layout"] == "philox4x64-10 key=seed counter=(block, 0, stream, 0)"

    @pytest.mark.parametrize("payload, draws", [
        ({"laws": STAR_LAWS, "operation": {"mode": "reinforced", "steps": 2}}, False),
        ({"envs": STAR_ENVS, "operation": {"mode": "annealed", "steps": 2}}, True),
        ({"envs": STAR_ENVS, "operation": {"mode": "quenched", "steps": 2, "env_seed": 4}}, True),
        ({"assignment": {"0": [0.5, 0.5], "1": [1.0], "2": [1.0]},
          "operation": {"mode": "quenched", "steps": 2}}, False),
    ], ids=["reinforced", "annealed", "quenched_sampled", "quenched_inline"])
    def test_outputs_that_draw_environments_record_the_order_of_the_draws(self, tmp_path,
                                                                         payload, draws):
        cfg = write_config(tmp_path, {"graph": STAR_GRAPH, "seed": 2, **payload,
                                      "output": {"path": str(tmp_path / "t.json")}})
        assert main(["simulate", "--config", cfg]) == 0
        meta = json.loads((tmp_path / "t.json").read_text())
        assert meta.get("env_draws") == (ENVIRONMENT_DRAWS if draws else None)

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
        assert 1e-6 < payload["p_value"] <= 1.0 and "threshold" not in payload

    @staticmethod
    def _pooled_into_one(tmp_path, samples):
        # 27 equally likely trajectories, so each expects samples / 27 visits
        third = 1 / 3
        envs = {"default": {"family": "point_mass", "weights": [1.0]},
                "per_vertex": {"0": {"family": "point_mass",
                                     "weights": [third, third, 1 - 2 * third]}}}
        cfg = write_config(tmp_path, {
            "graph": STAR_3_GRAPH, "laws": {"default": {"family": "uniform"}}, "envs": envs,
            "seed": 5, "operation": {"mode": "empirical", "steps": 6, "samples": samples},
            "output": {"path": str(tmp_path / "c.json")},
        })
        return main(["compare", "--config", cfg])

    def test_samples_too_few_for_one_cell_exit_2_naming_enough(self, tmp_path, capsys):
        # every cell pooled into one: no degrees of freedom, and a statistic of
        # rounding noise used to FAIL a law that matches its environment
        assert self._pooled_into_one(tmp_path, 100) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: compare: at 100 samples") and err.endswith(
            "operation.samples must be at least 135\n")
        assert not (tmp_path / "c.json").exists()
        assert self._pooled_into_one(tmp_path, 134) == 2
        assert self._pooled_into_one(tmp_path, 135) == 0

    def test_a_one_trajectory_reference_passes(self, tmp_path):
        out = tmp_path / "c.json"
        cfg = write_config(tmp_path, {
            "graph": {"generator": "segment", "length": 2},
            "envs": {"default": {"family": "dirichlet", "alpha": [2.5]}},
            "seed": 5, "operation": {"mode": "empirical", "steps": 6, "samples": 100},
            "output": {"path": str(out)},
        })
        assert main(["compare", "--config", cfg]) == 0
        payload = json.loads(out.read_text())
        assert payload["report"]["chi_square"] == {"statistic": 0.0, "degrees_of_freedom": 0}
        assert payload["p_value"] == 1.0 and payload["passed"] is True

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
    "seed": ("simulate", {"graph": STAR_GRAPH, "laws": STAR_LAWS, "seed": 1,
                          "operation": _SIMULATE_OP}, "top"),
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

    @pytest.mark.parametrize("seed, message", [(-1, "seed must be >= 0"),
                                               (2**64, "seed must be an unsigned 64-bit")])
    def test_seeds_outside_64_bits_are_config_errors(self, tmp_path, capsys, seed, message):
        payload = {**INTEGER_FIELD_CASES["steps"][1], "seed": seed,
                   "output": {"path": str(tmp_path / "o.json")}}
        assert main(["simulate", "--config", write_config(tmp_path, payload)]) == 2
        assert message in capsys.readouterr().err

    def test_an_integral_float_seed_writes_the_trajectories_of_its_integer(self, tmp_path):
        rows = []
        for seed in (5, 5.0):
            out = tmp_path / f"{seed}.json"
            payload = {**INTEGER_FIELD_CASES["steps"][1], "seed": seed,
                       "output": {"path": str(out)}}
            assert main(["simulate", "--config",
                         write_config(tmp_path, payload, name=f"{seed}.config.json")]) == 0
            rows.append(json.loads(out.read_text())["trajectories"])
        assert rows[0] == rows[1]


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
#: numpy 2.4.6); the files holding the meta re-pinned for ``"numerics": 3``, ``4``,
#: ``5`` and then ``6``, each time the bytes of the previous version with its number replaced.
GOLDEN_DERIVE_DIGESTS = {
    ("dirichlet_d4_box8", "csv"): {
        "law.csv": "6daf4c33cb529725f3682a7795acb226ce87c3b6c56b03abc4499c65b0c45850",
        "law.csv.meta.json": "2745407c71a03d19c8082dd95ae7a30f11460237fea8f3d08efa0409f42ee4dd",
    },
    ("dirichlet_d4_box8", "json"): {
        "law.json": "0ee581e5239954e088e48b79741bea388cb0a67a8f6e1753653e860c3b5e1a5b",
    },
    ("polynomial_d3_box10", "csv"): {
        "law.csv": "0711447450fbdadcbb6dc5a8da2297960849e032e34232ac0fb4a52cd849a159",
        "law.csv.meta.json": "ce8abcba4107b1f9c2b543d161a5c9e62704fc4761c80bc80591361f2687a585",
    },
    ("polynomial_d3_box10", "json"): {
        "law.json": "5545e26cc8232c92c0981eaeeb16372851ff3b6251f2a087ff87866301a60352",
    },
}


#: Every command in both formats, each output's bytes pinned before the JSON
#: body writer replaced ``json.dump``: name -> (command, config, extra argv, exit code).
#: Re-pinned for ``"numerics": 5``: the unsampled outputs are the previous bytes
#: with the number replaced; simulate and empirical compare draw from Philox
#: streams and record their layout.  Re-pinned for ``"numerics": 6``: the
#: previous bytes with the number replaced (no case's chi-square tail moved).
GOLDEN_COMMAND_CASES = {
    "admissibility_witness": ("check-admissibility",
                              {"law": WITNESS_LAW, "operation": {"box": 1}}, (), 1),
    "admissibility_empty": ("check-admissibility",
                            {"law": POLYA_23_LAW, "operation": {"box": 3}}, (), 0),
    "verify_moments": ("verify-moments", {"law": POLYA_23_LAW, "operation": {"order": 4}}, (), 0),
    "verify_moments_corrupt": ("verify-moments", {"law": POLYA_LAW, "operation": {"order": 3}},
                               ("--corrupt-entry", "1,0=1.5", "--corrupt-entry", "0,2=0.25"), 1),
    "recover_moments": ("recover-moments", {"law": POLYA_23_LAW, "operation": {"order": 4}}, (), 0),
    "simulate_reinforced": ("simulate", {"graph": STAR_3_GRAPH, "laws": {
        "default": {"family": "uniform"}, "per_vertex": {"0": {"family": "dirichlet", "alpha": [1.0, 2.0, 3.0]}}},
        "seed": 11, "operation": {"mode": "reinforced", "steps": 6, "trajectories": 5}}, (), 0),
    "simulate_annealed": ("simulate", {"graph": STAR_3_GRAPH, "envs": STAR_3_ENVS, "seed": 12,
                                       "operation": {"mode": "annealed", "steps": 6,
                                                     "trajectories": 5}}, (), 0),
    "simulate_quenched": ("simulate", {"graph": STAR_3_GRAPH, "envs": STAR_3_ENVS, "seed": 13,
                                       "operation": {"mode": "quenched", "steps": 6,
                                                     "trajectories": 5, "env_seed": 14}}, (), 0),
    "simulate_zero_steps": ("simulate", {"graph": STAR_GRAPH, "laws": STAR_LAWS, "seed": 15,
                                         "operation": {"mode": "reinforced", "steps": 0,
                                                       "trajectories": 3}}, (), 0),
    "compare_exact": ("compare", {"graph": STAR_3_GRAPH, "envs": STAR_3_ENVS,
                                  "operation": {"mode": "exact", "steps": 4}}, (), 0),
    "compare_empirical": ("compare", {"graph": STAR_3_GRAPH, "envs": STAR_3_ENVS, "seed": 16,
                                      "operation": {"mode": "empirical", "steps": 4,
                                                    "samples": 400}}, (), 0),
    "derive_law": ("derive-law", {"env": {"family": "dirichlet", "alpha": [0.5, 2.0]},
                                  "operation": {"box": 3}}, (), 0),
}


def _golden_files(command: str, fmt: str) -> list[str]:
    out = f"{command}.{fmt}"
    return [out, f"{out}.meta.json"] if fmt == "csv" else [out]


def _golden_run(tmp_path, monkeypatch, name, fmt):
    """Run a golden case from ``tmp_path`` with a relative output path, so the
    config hash in the metadata does not depend on ``tmp_path``."""
    monkeypatch.chdir(tmp_path)
    command, payload, extra, code = GOLDEN_COMMAND_CASES[name]
    cfg = write_config(tmp_path, {**payload, "output": {"path": f"{command}.{fmt}",
                                                        "format": fmt}})
    assert main([command, "--config", cfg, *extra]) == code
    return {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
            for f in _golden_files(command, fmt)}


GOLDEN_COMMAND_DIGESTS = {
    ("admissibility_empty", "csv"): {
        "check-admissibility.csv":
            "2a8b0d39696618e367295578db6ddba3dd6ff23490407f0dba8d625216a278c9",
        "check-admissibility.csv.meta.json":
            "f8f65fd255c0ea15e69d9ed8fa25dd91a96fb49528496a70d39d06bee24bc27c",
    },
    ("admissibility_empty", "json"): {
        "check-admissibility.json":
            "67286656abff71f43b9915168890aaca2bf960d30bd9175e9f426b3718108f1b",
    },
    ("admissibility_witness", "csv"): {
        "check-admissibility.csv":
            "442d7ca5269a95be75ddd007071ee22711523aacf737dd340deb9ff22e88bbf7",
        "check-admissibility.csv.meta.json":
            "d8bb948829a8e99235bc6ff2a3429ff504f57a3b78e6fc5bdf8eb3cddaa4cf58",
    },
    ("admissibility_witness", "json"): {
        "check-admissibility.json":
            "246d57c182dd0660aeaf62c5f4273807bed3de0549e004a73102c32b43ca2a1d",
    },
    ("compare_empirical", "csv"): {
        "compare.csv":
            "32cc650f9ef0fe55e0140eafc103e04989bf4e80b1af6297e08bb971a5d2bbdc",
        "compare.csv.meta.json":
            "10fdda93a3225a1a0ed7eb00c2d38a2713dd8b2f6bae950b09b647c8f2e33869",
    },
    ("compare_empirical", "json"): {
        "compare.json":
            "5ba14845838960caddae849ba1c00602fa7a45211048b3df3aec51d60190b554",
    },
    ("compare_exact", "csv"): {
        "compare.csv":
            "ed6231bc052a67dabc4252ee94bdc21c4937b23f1717208205eb0637cf93b86a",
        "compare.csv.meta.json":
            "d80e7565865776065d10fbd93f3b3cd228d8631278e00320549bf1062f6514fe",
    },
    ("compare_exact", "json"): {
        "compare.json":
            "f5a837ecef43a425be7305bbee45a0fbb57a3c0bd4b90eed9b19f7e61a9c79bd",
    },
    ("derive_law", "csv"): {
        "derive-law.csv":
            "ca6d78528dd4b1a9eedb225e610e801f37facbcd37d418df795a3c640c36a19b",
        "derive-law.csv.meta.json":
            "a52b03c2812664c2e899d1f88f337083008b06f2864d3380564ade4748fc1f5b",
    },
    ("derive_law", "json"): {
        "derive-law.json":
            "d93766baf4c62ece7190e293f7ec7799f86eff99270d90ff521cbf0769c98d47",
    },
    ("recover_moments", "csv"): {
        "recover-moments.csv":
            "e23b269b041ebd38a02026edb1c67dc24d1ef2c301f3fe8d5f02bff80f834f3d",
        "recover-moments.csv.meta.json":
            "7803dc40b2c5d1ffbdcedaa3fed140a643b60b277db87d3748dc5c13878d4891",
    },
    ("recover_moments", "json"): {
        "recover-moments.json":
            "8d4c6bea859be666d675c1082e88e03d55c714c73db0e52841cf605f0150af09",
    },
    ("simulate_annealed", "csv"): {
        "simulate.csv":
            "080bc43fdad947d134e3dbdbdc2fb71b33706305e6785ca3dd40587966fd1126",
        "simulate.csv.meta.json":
            "f7f5d67496cf806383fd7d3e1cdc199cbd6c12274dde76b79cf9891fe49d98d1",
    },
    ("simulate_annealed", "json"): {
        "simulate.json":
            "d5c3b07ff2dcfdedb240163074a3317b31bb45c6555fbc264fabb675a0a20545",
    },
    ("simulate_quenched", "csv"): {
        "simulate.csv":
            "3101cc4bff7eb063374596e136475f9043ddd40f95546d851059e0b4a83684da",
        "simulate.csv.meta.json":
            "a6a4c7c807c7ffd2699e46041ff6f95ad56cbd5e6101842a8592ef6b25ce8fda",
    },
    ("simulate_quenched", "json"): {
        "simulate.json":
            "974459cb3609c95ae70ae321cac71ecdc5a4626f6cb802156723352ad477c4c2",
    },
    ("simulate_reinforced", "csv"): {
        "simulate.csv":
            "1048ee38c5b9341d503e6365d2fdef0678690d25457f7e641fe50112aeeaeb19",
        "simulate.csv.meta.json":
            "6ef30c666a86b544f6037c29dd91d020725c301831a212160c09d1c3e7b89477",
    },
    ("simulate_reinforced", "json"): {
        "simulate.json":
            "6c2ff71ac2806beefe7ae055f56547a47f82c0db208838bddf5f9cc51f3b48c3",
    },
    ("simulate_zero_steps", "csv"): {
        "simulate.csv":
            "14161326360ab8f6c4b87314bf58a5cc68687501d9f65b3001fe17f1ea09c1e9",
        "simulate.csv.meta.json":
            "f80bc2c8a2db41899cb053341577c3571e2438e5e3c51124b8b02b814bef9506",
    },
    ("simulate_zero_steps", "json"): {
        "simulate.json":
            "5ba23d2d6d91958df79d27756bbd93817a946a7db5ce0ac339ee3b31975449e8",
    },
    ("verify_moments", "csv"): {
        "verify-moments.csv":
            "e23b269b041ebd38a02026edb1c67dc24d1ef2c301f3fe8d5f02bff80f834f3d",
        "verify-moments.csv.meta.json":
            "d54e5ab93a89f0337ad414ade771d76b94150c20896c0509502495fb820a971a",
    },
    ("verify_moments", "json"): {
        "verify-moments.json":
            "3665de0db475e32a65b522bdafc1f3ce6abe5f79d870aee051c04799bd342aa0",
    },
    ("verify_moments_corrupt", "csv"): {
        "verify-moments.csv":
            "c851ec368c6484cbb472eac907e915f5238efbb109bc42c7952334c3e55e703f",
        "verify-moments.csv.meta.json":
            "93b04a5a02a6b07e9b9bf1c6758323d7ebb38c5b61d317bfe1e707177c59ebc5",
    },
    ("verify_moments_corrupt", "json"): {
        "verify-moments.json":
            "907f4d67222b961bbd0a62ab17bf9371e2453a967c40e791ecd1c4f6031f9ff4",
    },
}


@pytest.mark.parametrize("name, fmt", sorted(GOLDEN_COMMAND_DIGESTS))
def test_golden_bytes_of_every_command(tmp_path, monkeypatch, name, fmt):
    assert _golden_run(tmp_path, monkeypatch, name, fmt) == GOLDEN_COMMAND_DIGESTS[name, fmt]


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
        monkeypatch.setattr(cli, "MAX_LATTICE_POINTS", 16)
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

    def test_a_weight_below_the_minimum_exits_3_naming_the_first_bad_row(self, tmp_path,
                                                                          capsys):
        cfg = write_config(tmp_path, {"env": {"family": "point_mass", "weights": [1e-300, 1]},
                                      "operation": {"box": 2},
                                      "output": {"path": str(tmp_path / "law.csv")}})
        assert main(["derive-law", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert err == "evaluation error: weight 9.9999999999991e-301 is not strictly positive\n"
        assert not (tmp_path / "law.csv").exists()

    @pytest.mark.parametrize("command", ["verify-moments", "recover-moments"])
    def test_witness_gap_comes_before_reading_outside_its_table(self, tmp_path, command):
        # the witness's square fails at degree 2 (exit 1); degree 3 would read
        # outside its box-1 table (exit 3)
        cfg = write_config(tmp_path, {"law": WITNESS_LAW, "operation": {"order": 3},
                                      "output": {"path": str(tmp_path / "m.json")}})
        assert main([command, "--config", cfg]) == 1


class TestLatticeGuards:
    """Every command that reads a whole lattice refuses more than
    ``MAX_LATTICE_POINTS`` points with exit 4 before any law is evaluated."""

    @pytest.mark.parametrize("command, size, points, code", [
        # box**d square corners
        ("check-admissibility", "box", 4, 0), ("check-admissibility", "box", 5, 4),
        # comb(order + d, d) table entries: 15 at order 4, 21 at order 5
        ("verify-moments", "order", 4, 0), ("verify-moments", "order", 5, 4),
        ("recover-moments", "order", 4, 0), ("recover-moments", "order", 5, 4),
    ])
    def test_the_limit_counts_lattice_points(self, tmp_path, monkeypatch, capsys, command,
                                             size, points, code):
        monkeypatch.setattr(cli, "MAX_LATTICE_POINTS", 16)
        out = tmp_path / "out.json"
        cfg = write_config(tmp_path, {"law": POLYA_23_LAW, "operation": {size: points},
                                      "output": {"path": str(out)}})
        assert main([command, "--config", cfg]) == code
        if code == 4:
            assert "enumeration guard" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("command, size", [
        ("check-admissibility", "box"), ("verify-moments", "order"), ("recover-moments", "order")])
    def test_a_config_error_comes_before_the_limit(self, tmp_path, command, size):
        # no output section; 10**4 is far over the limit in every command
        cfg = write_config(tmp_path, {"law": POLYA_23_LAW, "operation": {size: 10**4}})
        assert main([command, "--config", cfg]) == 2


#: The commands that certify closedness, with the operation that sizes each.
CERTIFYING = [("check-admissibility", {"box": 2}), ("verify-moments", {"order": 3}),
              ("recover-moments", {"order": 3})]


class TestOpenSquaresLaw:
    """Every command that certifies closedness fails on a law whose open squares
    cancel along both staircases."""

    @pytest.mark.parametrize("command", ["verify-moments", "recover-moments"])
    def test_the_moment_table_meets_the_open_square(self, tmp_path, capsys, command):
        out = tmp_path / "m.json"
        cfg = write_config(tmp_path, {"law": OPEN_SQUARES_LAW, "operation": {"order": 3},
                                      "output": {"path": str(out)}})
        assert main([command, "--config", cfg]) == 1
        assert capsys.readouterr().err == (
            "not admissible: path products to (1, 1, 1) disagree by 3.000e-01 in log "
            "space; the law is not admissible on this ball\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, operation", CERTIFYING)
    def test_all_three_commands_pass_at_tolerance_1(self, tmp_path, command, operation):
        # every edge of the order-3 ball misses the staircase by at most 0.3
        payload = {"law": OPEN_SQUARES_LAW, "operation": operation}
        assert _run(tmp_path, command, payload, "--tolerance", "1") == 0

    @pytest.mark.parametrize("command, operation", CERTIFYING)
    def test_all_three_commands_fail_a_rounding_gap_at_tolerance_0(self, tmp_path, capsys,
                                                                    command, operation):
        payload = {"law": OPEN_SQUARES_LAW, "operation": {**operation, "tolerance": 0}}
        assert _run(tmp_path, command, payload) == 1
        assert capsys.readouterr().err == {
            "check-admissibility": "not admissible: 16 violation(s); first at p=(0, 0, 0) "
                                   "(i=0, j=2) gap=-4.44089e-16\n",
        }.get(command, "not admissible: path products to (0, 1, 1) disagree by -4.441e-16 "
                       "in log space; the law is not admissible on this ball\n")

    def test_check_admissibility_lists_the_open_squares(self, tmp_path):
        out = tmp_path / "r.json"
        cfg = write_config(tmp_path, {"law": OPEN_SQUARES_LAW, "operation": {"box": 2},
                                      "output": {"path": str(out)}})
        assert main(["check-admissibility", "--config", cfg]) == 1
        payload = json.loads(out.read_text())
        assert payload["report"]["violation_count"] == 11
        first = payload["violations"][0]
        assert (first["p"], first["i"], first["j"]) == ([0, 0, 1], 0, 1)
        assert first["gap"] == pytest.approx(-0.3, abs=1e-12)


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
    # tail probability is computed in the package
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
    assert json.loads((tmp_path / "o.json").read_text())["numerics"] == 6


def mp_chi2_cdf(statistic: float, dof: int):
    """``P(dof / 2, statistic / 2)``, the chi-square law's mass below ``statistic``, at 50 digits."""
    with mpmath.workdps(50):
        return mpmath.gammainc(mpmath.mpf(dof) / 2, 0, mpmath.mpf(statistic) / 2,
                               regularized=True)


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


def deep_tail_cases() -> list[tuple[float, int, str]]:
    """(quantile, dof, target P): the statistic is where ``x^a / Gamma(a + 1)``, the
    leading term of ``P(a, x)`` for small ``x``, equals the target.  A subnormal
    ``P`` of 6e-324 or 7e-324 rounds to the smallest quantile if formed directly."""
    return [(q, dof, target) for q, targets in ((5e-324, ("6e-324", "7e-324", "1e-310",
                                                          "1e-300", "1e-291")),
                                                (1e-300, ("1e-299", "1e-295", "1e-291")))
            for dof in (3, 10, 40, 100) for target in targets]


def deep_tail_statistic(dof: int, target: str) -> float:
    with mpmath.workdps(50):
        a = mpmath.mpf(dof) / 2
        return float(2 * (mpmath.mpf(target) * mpmath.gamma(a + 1)) ** (1 / a))


class TestChiSquareThreshold:
    """Empirical compare's verdict at the chi-square threshold: the tail probability of
    its statistic, computed in the package with ``math`` alone."""

    @needs_mpmath
    def test_agrees_with_mpmath_around_the_threshold(self):
        from scipy.stats import chi2

        for q, dof in chi2_grid():
            # scipy's quantile is within 1e-13 of the threshold, so these straddle it
            threshold = float(chi2.ppf(q, dof))
            for factor, want in ((1 - 1e-9, True), (1 + 1e-9, False)):
                statistic = threshold * factor
                passed, p_value = cli.chi_square_test(statistic, dof, q)
                lower = mp_chi2_cdf(statistic, dof)
                assert passed == want == (lower <= q), (q, dof, factor)
                assert math.isclose(p_value, float(1 - lower), rel_tol=1e-13), (q, dof, factor)

    @settings(max_examples=400, deadline=None)
    @given(
        st.integers(min_value=1, max_value=5000),
        st.floats(min_value=0.0, max_value=3.0),
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    )
    def test_agrees_with_chi2_cdf_and_sf(self, dof, scale, quantile):
        # scipy itself errs by up to about 1e-11 in the far upper tail
        from scipy.stats import chi2

        statistic = scale * dof
        # scipy halves a subnormal statistic with rounding, to 0 at the smallest
        assume(statistic == 0.0 or statistic >= sys.float_info.min)
        passed, p_value = cli.chi_square_test(statistic, dof, quantile)
        sf = float(chi2.sf(statistic, dof))
        assert math.isclose(p_value, sf, rel_tol=1e-10, abs_tol=1e-300)
        if quantile > 0.5:
            tail, bound, want = sf, 1.0 - quantile, sf >= 1.0 - quantile
        else:
            tail, bound = float(chi2.cdf(statistic, dof)), quantile
            want = tail <= quantile
        if abs(tail - bound) > 1e-9 * bound:  # away from the threshold
            assert passed == want

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=DEFAULT_MAX_PATHS),
        st.lists(st.floats(min_value=0.0, max_value=4.0), min_size=2, max_size=2),
        st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
                 min_size=2, max_size=2),
    )
    def test_a_smaller_statistic_and_a_larger_quantile_pass_too(self, dof, scales, quantiles):
        small, large = sorted(scale * dof for scale in scales)
        low, high = sorted(quantiles)
        if cli.chi_square_test(large, dof, low)[0]:
            assert cli.chi_square_test(small, dof, low)[0]
            assert cli.chi_square_test(large, dof, high)[0]

    @needs_mpmath
    @pytest.mark.parametrize("quantile, dof, target", deep_tail_cases())
    def test_a_deep_lower_tail_above_the_quantile_fails(self, quantile, dof, target):
        statistic = deep_tail_statistic(dof, target)
        assert quantile < mp_chi2_cdf(statistic, dof) < 1e-290
        assert cli.chi_square_test(statistic, dof, quantile) == (False, 1.0)
        # the same tail below the quantile passes
        assert cli.chi_square_test(statistic, dof, float(mpmath.mpf(target) * 10))[0]

    @pytest.mark.parametrize("dof", [1, 2, 10**6])
    def test_defined_at_the_ends_of_the_domain(self, dof):
        # finite, a probability, under 50 ms, and monotone in both arguments
        quantiles = [5e-324, 1e-300, 0.5, 1 - 2**-53]
        statistics = [0.0, 5e-324, 1e-300, 1.0, float(dof), 2.0 * dof + 100, 1e300]
        verdicts = []
        for s in statistics:
            row = []
            for q in quantiles:
                start = time.perf_counter()
                passed, p_value = cli.chi_square_test(s, dof, q)
                assert time.perf_counter() - start < 0.05, (s, dof, q)
                assert 0.0 <= p_value <= 1.0, (s, dof, q, p_value)
                row.append(passed)
            assert row == sorted(row), (s, dof, row)
            verdicts.append(row)
        for column in zip(*verdicts):
            assert list(column) == sorted(column, reverse=True), (dof, column)
        assert all(verdicts[0]) and not any(verdicts[-1])

    def test_the_smallest_quantile_at_one_degree_fails_every_positive_statistic(self):
        # P(1/2, s / 2) = erf(sqrt(s / 2)) is about 1.8e-162 at the smallest positive s
        assert cli.chi_square_test(0.0, 1, 5e-324) == (True, 1.0)
        for statistic in (5e-324, 1e-300, 1e-30):
            assert cli.chi_square_test(statistic, 1, 5e-324)[0] is False

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


def upper_tail_cases() -> list[tuple[int, float]]:
    """(dof, x) with ``x >= dof / 2 + 1`` over dof 20..20,000, seeded, and one half-integer
    ``a = 10.5`` near ``a + 1``, where erfc's term is about 5e-6 of ``Q``."""
    rng = random.Random(20261021)
    cases = [(21, 11.5)]
    for _ in range(200):
        dof = rng.randint(20, 20_000)
        cases.append((dof, dof / 2 + 1 + rng.uniform(0, 30) * math.sqrt(dof / 2)))
    return cases


@needs_mpmath
def test_the_upper_tail_agrees_with_mpmath_from_a_plus_one():
    for dof, x in upper_tail_cases():
        with mpmath.workdps(50):
            want = float(mpmath.gammainc(mpmath.mpf(dof) / 2, x, mpmath.inf, regularized=True))
        assert math.isclose(regularised_gamma(dof / 2, x)[1], want, rel_tol=1e-12), (dof, x)


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
    # a reinforced walk on a 3-cycle leaves its reject table: exit 3, whatever the
    # draws.  Of its ten steps some vertex takes four, the fourth read at counts
    # that sum to 3, past box 1 (nine steps can stay inside it)
    "simulate": {"graph": {"generator": "cycle", "length": 3},
                 "laws": {"default": HALF_TABLE}, "seed": 1,
                 "operation": {"mode": "reinforced", "steps": 10}},
}


#: Every name in ``cli`` that does a command's work, rather than read its config.
WORK = ("check_admissible", "recover_env_moments", "hildebrandt_schoenberg_check",
        "simplex_defect", "simplex_mass", "enumerate_annealed", "enumerate_both",
        "enumerate_reinforced", "compare_distributions",
        "compare_empirical", "lockstep_pays", "run_reinforced", "run_quenched", "run_annealed",
        "run_many_reinforced", "run_many_quenched", "run_many_annealed", "stream_generators",
        "make_stream", "sample_environment", "check_simplex_rows")

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
       for entry in ("9,9=0.5", "1,0=-1", "1,0,0=0.5", "1,0=0", "1,0=nan", "0,0=1.5")},
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
        # the sidecar, written first, cannot be
        (tmp_path / "o.csv.meta.json").mkdir()
        cfg = write_config(tmp_path, {"law": POLYA_LAW, "operation": {"box": 2},
                                      "output": {"path": str(tmp_path / "o.csv"),
                                                 "format": "csv"}})
        assert main(["check-admissibility", "--config", cfg]) == 2
        assert "config error: cannot write output" in capsys.readouterr().err

    def test_a_sidecar_that_cannot_be_written_leaves_no_csv(self, tmp_path):
        (tmp_path / "o.csv.meta.json").mkdir()
        cfg = write_config(tmp_path, {"law": POLYA_LAW, "operation": {"box": 2},
                                      "output": {"path": str(tmp_path / "o.csv"),
                                                 "format": "csv"}})
        assert main(["check-admissibility", "--config", cfg]) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "o.csv.meta.json"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_write_that_fails_part_way_keeps_the_old_output(self, tmp_path, monkeypatch, fmt):
        out = tmp_path / f"o.{fmt}"
        cfg = write_config(tmp_path, {"law": POLYA_LAW, "operation": {"box": 2},
                                      "output": {"path": str(out), "format": fmt}})
        assert main(["check-admissibility", "--config", cfg]) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        class FailsAfterFirstChunk:
            """A file whose first write lands and then fails, as on a full disk."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.fh.close()

            def write(self, text):
                self.fh.write(text)
                raise OSError("disk full")

        real_open = open
        monkeypatch.setattr(cli, "open", lambda *args, **kwargs: FailsAfterFirstChunk(
            real_open(*args, **kwargs)), raising=False)
        assert main(["check-admissibility", "--config", cfg]) == 2
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

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


#: Scalars the JSON body writer must encode as ``json`` does, the edge cases named.
EDGE_SCALARS = st.sampled_from([0, -1, 2**64, -(10**40), 0.0, -0.0, 5e-324, 2.5e-310, 1e308,
                                -1e308, math.nan, math.inf, -math.inf, True, False, None, "",
                                "é☃\U0001f600", "\x00\x1f\x7f\"\\\n\t%{}"])
_COLUMN_CELLS = {
    "float": st.floats(),
    "int": st.integers(min_value=-(2**70), max_value=2**70),
    "str": st.text(max_size=8),
    "mixed": st.one_of(EDGE_SCALARS, st.floats(), st.integers(), st.booleans(), st.none(),
                       st.text(max_size=8)),
}
_JSON_VALUES = st.recursive(
    st.one_of(EDGE_SCALARS, st.floats(), st.integers(), st.text(max_size=8)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8,
)


@st.composite
def json_outputs(draw):
    """(meta, body key, rows of one width, shape, cells per chunk) for the JSON body writer."""
    width = draw(st.integers(0, 5))
    kinds = draw(st.lists(st.sampled_from(sorted(_COLUMN_CELLS)), min_size=width,
                          max_size=width))
    row = st.tuples(*(_COLUMN_CELLS[k] for k in kinds)).map(list)
    rows = draw(st.lists(row, max_size=12))
    spec = st.slices(width)
    if width:
        spec = spec | st.integers(-width, width - 1)
    shape = draw(st.none() | st.dictionaries(st.text(max_size=6), spec, max_size=4))
    key = draw(st.text(max_size=6))
    meta = draw(st.dictionaries(st.text(max_size=6), _JSON_VALUES, max_size=4))
    if draw(st.booleans()):
        meta[key] = draw(_JSON_VALUES)  # the body replaces it, as simulate's trajectory count
    return meta, key, rows, shape, draw(st.integers(1, 12))


def _non_finite_as_strings(node):
    """``node`` as the JSON writer writes it: a non-finite float as ``"inf"``, ``"-inf"`` or ``"nan"``."""
    if isinstance(node, float) and not math.isfinite(node):
        return "nan" if math.isnan(node) else "inf" if node > 0 else "-inf"
    if isinstance(node, dict):
        return {k: _non_finite_as_strings(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_non_finite_as_strings(v) for v in node]
    return node


def assert_same_text(got: str, want: str, context: int = 3) -> None:
    """``got == want`` exactly; a failure shows the first differing line and its neighbours.

    Not a bare ``assert``: pytest would diff two texts of thousands of lines
    in full, which takes minutes.
    """
    if got == want:
        return
    a, b = got.splitlines(keepends=True), want.splitlines(keepends=True)
    first = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    window = slice(max(0, first - context), first + context + 1)
    pytest.fail(f"texts differ from line {first + 1} ({len(a)} lines, want {len(b)}):\n"
                f"got:  {a[window]!r}\nwant: {b[window]!r}", pytrace=False)


def _json_body(rows, shape):
    if shape is None:
        return [list(r) for r in rows]
    return [{k: r[s] if isinstance(s, int) else list(r[s]) for k, s in shape.items()}
            for r in rows]


class TestJsonWriter:
    """The JSON body writer gives the bytes of ``json.dumps(sort_keys=True, indent=2)``
    of the document with its non-finite floats as strings: strict JSON."""

    @settings(max_examples=300, deadline=None)
    @given(case=json_outputs())
    def test_bytes_equal_json_dumps(self, tmp_path_factory, case):
        meta, key, rows, shape, chunk = case
        path = tmp_path_factory.mktemp("out") / "o.json"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_CHUNK_CELLS", chunk)
            cli._write_json(path, {**meta, key: []}, rows, key, shape)
        doc = _non_finite_as_strings({**meta, key: _json_body(rows, shape)})
        want = json.dumps(doc, sort_keys=True, indent=2)
        assert path.read_bytes() == (want + "\n").encode()
        assert strict_json(path.read_text()) == json.loads(want)

    def test_many_chunks_of_mixed_columns(self, tmp_path):
        rng = random.Random(18)
        rows = [[rng.random(), rng.randrange(-9, 9), f"r{i}", rng.choice([1.5, math.nan, None])]
                for i in range(3 * cli._CHUNK_CELLS // 4 + 5)]
        shape = {"x": 0, "n": 1, "name": 2, "both": slice(0, 2), "odd": 3}
        cli._write_json(tmp_path / "o.json", {"body": []}, rows, "body", shape)
        doc = _non_finite_as_strings({"body": _json_body(rows, shape)})
        want = json.dumps(doc, sort_keys=True, indent=2)
        assert_same_text((tmp_path / "o.json").read_text(), want + "\n")

    def test_a_numpy_float_is_a_float(self, tmp_path):
        rows = [[np.float64(0.1), 2.5]]
        cli._write_json(tmp_path / "o.json", {"body": []}, rows, "body")
        want = json.dumps({"body": [[0.1, 2.5]]}, sort_keys=True, indent=2)
        assert (tmp_path / "o.json").read_text() == want + "\n"

    @pytest.mark.parametrize("rows", [[[np.int64(3)]], [[1], [np.int64(3)]], [[2.5, np.int32(3)]]])
    def test_what_json_cannot_encode_raises_type_error_and_leaves_no_file(self, tmp_path, rows):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            json.dumps(rows)
        with pytest.raises(TypeError, match="is not JSON serializable"):
            cli._write_json(tmp_path / "o.json", {"body": []}, rows, "body")
        assert list(tmp_path.iterdir()) == []

    def test_rows_of_different_widths_are_refused(self, tmp_path):
        with pytest.raises(ValueError, match="unpack"):
            cli._write_json(tmp_path / "o.json", {"body": []}, [[1, 2], [3]], "body")
        assert list(tmp_path.iterdir()) == []


#: Back-to-back calls of ``main`` that differ in command, overrides and appended values.
PARSER_RUNS = [
    ("verify-moments", {"law": POLYA_LAW, "operation": {"order": 3}},
     ("--corrupt-entry", "1,0=1.5", "--corrupt-entry", "0,1=0.5")),
    ("verify-moments", {"law": POLYA_LAW, "operation": {"order": 3}}, ()),
    ("simulate", {"graph": STAR_GRAPH, "laws": STAR_LAWS, "seed": 1,
                  "operation": {"mode": "reinforced", "steps": 4, "trajectories": 3}},
     ("--seed", "7", "--format", "csv")),
    ("simulate", {"graph": STAR_GRAPH, "laws": STAR_LAWS, "seed": 1,
                  "operation": {"mode": "reinforced", "steps": 4, "trajectories": 3}}, ()),
    ("check-admissibility", {"law": POLYA_23_LAW, "operation": {"box": 2}},
     ("--tolerance", "0.5", "--format", "json")),
    ("check-admissibility", {"law": POLYA_23_LAW, "operation": {"box": 2}}, ()),
    ("verify-moments", {"law": POLYA_LAW, "operation": {"order": 3}},
     ("--corrupt-entry", "0,2=0.25")),
    ("verify-moments", {"law": POLYA_LAW, "operation": {"order": 3}}, ()),
]


class TestParserBuiltOnce:
    """``main`` reuses one parser; ``build_parser`` still gives a fresh one."""

    @staticmethod
    def _run_all(tmp_path, capsys, fresh):
        results = []
        for n, (command, payload, extra) in enumerate(PARSER_RUNS):
            out = tmp_path / f"run{n}.out"
            output = {"path": out.name, "format": "csv"}
            cfg = write_config(tmp_path, {**payload, "output": output}, f"run{n}.json")
            if fresh:
                cli._parser.cache_clear()
            code = main([command, "--config", cfg, *extra])
            files = {p.name: p.read_bytes() for p in sorted(tmp_path.glob(f"{out.name}*"))}
            for p in tmp_path.glob(f"{out.name}*"):
                p.unlink()
            results.append((code, files, *capsys.readouterr()))
        return results

    def test_back_to_back_calls_match_fresh_ones(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        reused = self._run_all(tmp_path, capsys, fresh=False)
        assert [r[0] for r in reused] == [1, 0, 0, 0, 0, 0, 1, 0]
        assert reused == self._run_all(tmp_path, capsys, fresh=True)

    def test_no_appended_value_carries_over(self):
        first = cli._parser().parse_args(["verify-moments", "--config", "c.json",
                                          "--corrupt-entry", "1,0=1.5"])
        again = cli._parser().parse_args(["verify-moments", "--config", "c.json"])
        assert first.corrupt_entry == ["1,0=1.5"] and again.corrupt_entry is None
        third = cli._parser().parse_args(["verify-moments", "--config", "c.json",
                                          "--corrupt-entry", "0,1=0.5"])
        assert third.corrupt_entry == ["0,1=0.5"]

    def test_main_reuses_its_parser_and_build_parser_does_not(self):
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()
