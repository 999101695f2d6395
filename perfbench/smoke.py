"""Smoke test of the benchmark itself; run from the repository root:

    python3 perfbench/smoke.py

It runs every workload at the tiny scale with tracing off and on and
checks that each result line carries exactly the metrics BENCHMARK.json
names, that nothing fails, and that the traced figures confirm the
workloads' predictions.  It then checks that a deliberately wrong expected
verdict is counted as a failure, that one traced admissibility scan at
d=4, box 8 makes 53,248 law evaluations for 6,561 lattice points, that
the computed HS scan sizes match the scan's own pair enumeration, and
that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    done = subprocess.run([*SPEC["command"], *args], cwd=cwd, capture_output=True,
                          text=True, timeout=180)
    return done.returncode, done.stdout.strip().splitlines()


def result(workload: str, trace: int, *extra: str) -> dict:
    code, lines = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                        "--trace", str(trace), "--scale", "tiny", *extra)
    assert code == 0, f"{workload} trace {trace}: exit {code}"
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, set(res)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in res["metrics"].items()}, f"{workload}: metric names or units"
    assert res["attempted"] >= 1
    return res


def check_workloads() -> None:
    layers = {}
    for w in (w["name"] for w in SPEC["workloads"]):
        res = result(w, 0)
        assert res["correct"] and res["failed"] == 0, f"{w}: {res['failed']} failed"
        assert all(v["value"] > 0 for v in res["metrics"].values()), w
        res = result(w, 1)
        assert res["correct"] and res["failed"] == 0, f"{w}: {res['failed']} failed"
        layers[w] = {k: v["value"] for k, v in res["metrics"].items()}
    assert layers["certify"]["walk.steps"] == 0
    assert layers["sample"]["walk.steps"] > 0
    assert layers["sample"]["admissibility.squares"] == 0
    assert layers["exact"]["admissibility.squares"] == 0
    assert layers["certify"]["admissibility.squares"] > 0
    print("workloads: every metric emitted, no failures, predictions hold")


def check_wrong_verdict() -> None:
    res = result("certify", 1, "--wrong-verdict")
    assert not res["correct"] and res["failed"] >= 1
    assert res["metrics"]["failed_frac"]["value"] == res["failed"] / res["attempted"]
    print(f"wrong verdict: counted, failed_frac {res['metrics']['failed_frac']['value']:.3f}")


def check_evals_per_point() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import urnwalk.cli
    import urnwalk.moments
    import worker
    from tracing import Tracer

    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        cfg = Path(tmp) / "c.json"
        cfg.write_text(json.dumps({
            "schema": 1, "law": {"family": "dirichlet", "alpha": [1.0, 2.0, 3.0, 4.0]},
            "operation": {"box": 8}, "output": {"path": str(Path(tmp) / "o.json")}}))
        tracer = Tracer()
        worker.install(tracer)
        try:
            tracer.active = True
            with contextlib.redirect_stdout(io.StringIO()):
                code = urnwalk.cli.main(["check-admissibility", "--config", str(cfg)])
        finally:
            tracer.active = False
            tracer.uninstall()
    layers = worker.layer_metrics(tracer.merged())
    assert code == 0
    ball = urnwalk.moments.ball_indices
    for d, order in ((2, 5), (3, 4), (4, 3)):
        pairs = [(h, k) for h in ball(d, order) for k in ball(d, order - sum(h))]
        terms = sum(math.prod(v + 1 for v in h) for h, _ in pairs)
        assert worker.hs_size(d, order) == (len(pairs), terms)
    assert layers["laws.evals"] == 53248, layers["laws.evals"]
    assert abs(layers["admissibility.law_evals_per_point"] - 53248 / 6561) < 1e-12
    assert layers["admissibility.squares"] == 4096 * 6
    print(f"admissibility at d=4, box 8: {layers['admissibility.law_evals_per_point']:.3f} "
          "law evaluations per point")


def check_refuses_without_sources() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in SPEC["paths"]:
            shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = bench("--workload", "sample", "--seed", "1", "--seconds", "1",
                            "--trace", "0", cwd=bare)
    assert code != 0 and not lines, (code, lines)
    print(f"bare directory: exit {code}, no result")


if __name__ == "__main__":
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    check_workloads()
    check_wrong_verdict()
    check_evals_per_point()
    check_refuses_without_sources()
    print("smoke test passed")
