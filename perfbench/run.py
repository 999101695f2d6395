"""urnwalk CLI benchmark: one workload, one run, one JSON result line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sample --seed 1 --seconds 20 --trace 0

``--trace 0`` measures set-up time in fresh interpreters, then runs the
workload in a child process (``worker.py``) and prints the end-to-end
metrics.  ``--trace 1`` runs the workload untraced and then traced in one
child and prints the per-layer metrics.  Every metric is printed by name
with its unit, then provenance, then the result line the metrics in
``BENCHMARK.json`` are read from.  Operation outputs are checked; an
operation whose exit code or output is wrong counts as failed.

Scratch files go under ``.perfbench/`` in the checkout and are removed at
the end, except the last trace, kept as ``.perfbench/trace-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
#: Fresh interpreters timed per run for ``setup_s``, after one untimed warm-up
#: that fills the page cache and writes bytecode.
SETUP_SPAWNS = 5
#: Every child must finish well inside the 180 s a run may take.
DEADLINE_S = 170.0

SETUP_CODE = (
    "import time\n"
    "import urnwalk.cli\n"
    "urnwalk.cli.build_parser()\n"
    "print(time.clock_gettime(time.CLOCK_MONOTONIC))\n"
)

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER_UNITS = {
    "walk.trajectories": "count", "walk.steps": "count", "walk.self_s": "s",
    "walk.us_per_step": "us", "walk.streams": "count", "walk.stream_us": "us",
    "laws.evals": "count", "laws.self_s": "s", "laws.us_per_eval": "us",
    "laws.simplex_points": "count",
    "environment.moment_evals": "count", "environment.moment_lookups": "count",
    "environment.moment_cache_hit_frac": "fraction", "environment.samples": "count",
    "environment.self_s": "s",
    "admissibility.squares": "count", "admissibility.law_evals_per_point": "ratio",
    "admissibility.self_s": "s",
    "moments.table_entries": "count", "moments.build_s": "s", "moments.hs_pairs": "count",
    "moments.hs_terms": "count", "moments.hs_s": "s", "moments.mass_s": "s",
    "equivalence.paths": "count", "equivalence.enumerate_s": "s",
    "equivalence.us_per_path": "us", "equivalence.compare_s": "s",
    "config.calls": "count", "config.self_s": "s",
    "cli.self_s": "s", "cli.bytes_out": "bytes",
    "trace.overhead_frac": "fraction",
    "cmd_s.simulate": "s", "cmd_s.compare_empirical": "s", "cmd_s.compare_exact": "s",
    "cmd_s.check_admissibility": "s", "cmd_s.verify_moments": "s",
    "cmd_s.recover_moments": "s", "cmd_s.derive_law": "s",
    "failed_frac": "fraction",
}

#: Per-layer figures derived from the dimension and order rather than observed.
COMPUTED = {"moments.hs_pairs", "moments.hs_terms"}


def measure_setup(env: dict, spawns: int) -> float:
    """Median seconds from spawning a fresh interpreter to the CLI parser being built."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    subprocess.run(cmd, env=env, check=True, capture_output=True, timeout=60)
    times = []
    for _ in range(spawns):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True,
                              timeout=60)
        times.append(float(done.stdout.strip().splitlines()[-1]) - t0)
    return statistics.median(times)


def main() -> int:
    ap = argparse.ArgumentParser(description="urnwalk CLI benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every operation (smoke test)")
    ap.add_argument("--wrong-verdict", action="store_true",
                    help="expect the wrong exit code for the first operation (smoke test)")
    args = ap.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "urnwalk" / "cli.py").is_file():
        print("perfbench: run from the root of a urnwalk checkout (src/urnwalk not found)",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src), *filter(None, [env.get("PYTHONPATH")])])
    scratch = root / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = scratch / f"run-{os.getpid()}"
    workdir.mkdir()
    started = time.monotonic()
    try:
        metrics: dict[str, float] = {}
        if args.trace == 0:
            metrics["setup_s"] = measure_setup(env, 1 if args.scale == "tiny" else SETUP_SPAWNS)
        result_path = workdir / "result.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale,
               "--workdir", str(workdir), "--result", str(result_path)]
        if args.trace:
            cmd += ["--trace-out", str(scratch / f"trace-{args.workload}.json")]
        if args.wrong_verdict:
            cmd.append("--wrong-verdict")
        remaining = DEADLINE_S - (time.monotonic() - started)
        done = subprocess.run(cmd, env=env, timeout=remaining)
        if done.returncode != 0:
            print(f"perfbench: worker exited with {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for reason in result["failures"]:
        print(f"perfbench: FAILED {reason}", file=sys.stderr)
    failed_frac = result["failed"] / result["attempted"]
    if args.trace == 0:
        metrics["wall_s"] = result["wall_s"]
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
        out = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    else:
        layers = dict(result["layers"])
        for key, seconds in result["cmd_s"].items():
            layers[f"cmd_s.{key}"] = seconds
        layers["failed_frac"] = failed_frac
        out = {name: {"value": layers[name], "unit": unit}
               for name, unit in PER_LAYER_UNITS.items()}

    print(f"workload {args.workload}, seed {args.seed}, {result['ops']} operations, "
          f"{result['passes']} untraced passes, failed_frac {failed_frac:g}, "
          f"unscaled wall {result['raw_wall_s']:.4f} s")
    for name, m in out.items():
        note = " (computed)" if name in COMPUTED else ""
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}{note}")
    print("fastest untraced pass per operation, unscaled:")
    for i, op in enumerate(result["per_op"]):
        print(f"  op {i:2d} {op['command']:20s} {op['label']:48s} {op['best_s']:9.4f} s")
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
