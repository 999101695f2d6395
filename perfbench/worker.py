"""One workload in one process: generate, run through ``urnwalk.cli.main``, check.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``.  Runs the workload's
operation list in passes until the time budget is spent, on the main
thread only, passing no ``--threads`` so the scans use the CLI default.
With ``--trace 1`` the first half of the budget runs untraced and the
second half traced, which gives both the per-layer figures and the
tracing overhead.  Writes one JSON result file.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from itertools import product
from pathlib import Path

import numpy
import scipy

import urnwalk
import urnwalk.admissibility
import urnwalk.cli
import urnwalk.environment
import urnwalk.equivalence
import urnwalk.laws
import urnwalk.moments
import urnwalk.walk
from checks import check
from tracing import Tracer
from workloads import WORKLOADS, Op, generate

COMMAND_KEYS = ("simulate", "compare_empirical", "compare_exact", "check_admissibility",
                "verify_moments", "recover_moments", "derive_law")

#: Iterations of the host-speed probe timed between operations.
PROBE_ITERATIONS = 100_000
#: The probe's time on the quiet 2-core host the first numbers were recorded on.
PROBE_NOMINAL_S = 0.0055


def probe() -> float:
    """Seconds for a fixed pure-Python loop, a gauge of the host's current speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += i * i
    return time.perf_counter() - t0


class _Discard(io.TextIOBase):
    """Text sink for the CLI's messages, which the checks do not read."""

    def write(self, s: str) -> int:
        return len(s)


def outputs(op: Op) -> tuple[Path, Path]:
    """The output file and the metadata sidecar the CLI writes next to a CSV."""
    return op.out, Path(str(op.out) + ".meta.json")


def run_op(op: Op, tracer: Tracer | None) -> tuple[float, str | None]:
    """Seconds spent in ``main`` and the failure reason, if any.

    The tracer, when given, records only while ``main`` runs, not the checks.
    """
    for stale in outputs(op):
        stale.unlink(missing_ok=True)
    sink = _Discard()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            code = urnwalk.cli.main(op.argv)
        except Exception:
            return time.perf_counter() - t0, "exception escaped main: " + traceback.format_exc(limit=3)
        finally:
            if tracer is not None:
                tracer.active = False
        elapsed = time.perf_counter() - t0
    return elapsed, check(op, code)


def bytes_out(op: Op) -> int:
    return sum(p.stat().st_size for p in outputs(op) if p.exists())


def run_passes(ops: list[Op], budget: float, tracer: Tracer | None = None, on_pass=None) -> dict:
    """Whole passes over ``ops`` while the next one is expected to fit in ``budget``.

    The host-speed probe runs before every operation and after the last
    one.  ``scaled`` holds each operation's time multiplied by
    ``PROBE_NOMINAL_S`` over the mean of the probes on either side of it:
    the time it would have taken at the host's quiet speed.
    """
    times: list[list[float]] = [[] for _ in ops]
    scaled: list[list[float]] = [[] for _ in ops]
    failures: list[str] = []
    attempted = 0
    start = time.perf_counter()
    passes = 0
    while True:
        t_pass = time.perf_counter()
        before = probe()
        for i, op in enumerate(ops):
            dt, reason = run_op(op, tracer)
            after = probe()
            times[i].append(dt)
            scaled[i].append(dt * PROBE_NOMINAL_S * 2 / (before + after))
            before = after
            attempted += 1
            if reason is not None:
                failures.append(f"op {i} ({op.argv[0]}): {reason}")
        passes += 1
        if on_pass is not None:
            on_pass()
        now = time.perf_counter()
        if now - start + (now - t_pass) > budget:
            break
    return {"times": times, "scaled": scaled, "attempted": attempted, "failures": failures,
            "passes": passes}


def best_totals(ops: list[Op], passes: dict) -> dict:
    """Each operation's fastest pass in probe-scaled time, summed overall and per command.

    On a shared host, pass times swing by about 20% within a run, and the
    host's quiet speed drifts by 25% or more over minutes as other tenants
    come and go.  The fastest pass removes most of the first; scaling by
    the adjacent probes removes much of the second.  The raw fastest-pass
    total is kept as ``raw_wall_s``.
    """
    best = [min(t) for t in passes["scaled"]]
    cmd_s = {key: 0.0 for key in COMMAND_KEYS}
    for op, b in zip(ops, best):
        cmd_s[op.key] += b
    per_op = [{"command": op.argv[0], "label": op.label, "best_s": min(t)}
              for op, t in zip(ops, passes["times"])]
    return {"wall_s": sum(best), "raw_wall_s": sum(min(t) for t in passes["times"]),
            "cmd_s": cmd_s, "per_op": per_op}


# -- traced run ---------------------------------------------------------------

def _points(args, result):
    law, box = args[0], args[1]
    return {"admissibility.points": (box + 1) ** law.dimension}


def _squares(args, result):
    return {"admissibility.squares": len(args[1]) * len(args[2])}


def _lookups(args, result):
    return {"environment.moment_lookups": args[0].dimension + 1}


def _table_entries(args, result):
    return {"moments.table_entries": len(result.log_values)}


def _paths(args, result):
    return {"equivalence.paths": len(result.log_probs)}


@functools.cache
def hs_size(d: int, order: int) -> tuple[int, int]:
    """(pairs, inclusion-exclusion terms) of the HS scan at this dimension and order.

    Computed from the dimension and order, not observed: pairs are (h, k)
    with |h| + |k| <= order, and a pair costs prod(h_i + 1) terms.
    """
    pairs = terms = 0
    for h in product(range(order + 1), repeat=d):
        rest = order - sum(h)
        if rest < 0:
            continue
        ks = math.comb(rest + d, d)
        pairs += ks
        terms += ks * math.prod(v + 1 for v in h)
    return pairs, terms


def _hs(args, result):
    pairs, terms = hs_size(args[0].dimension, args[0].order)
    return {"moments.hs_pairs": pairs, "moments.hs_terms": terms}


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries at the names their callers bind."""
    cli, walk, laws, env = urnwalk.cli, urnwalk.walk, urnwalk.laws, urnwalk.environment
    tracer.patch(cli, "main", "cli")
    for name in ("load_config", "config_hash", "graph_from_spec", "law_from_spec",
                 "env_from_spec", "resolve_per_vertex"):
        tracer.patch(cli, name, "config")
    for name in ("run_reinforced", "run_annealed", "run_quenched"):
        tracer.patch(cli, name, "trajectory")
    tracer.patch(cli, "make_stream", "stream")
    tracer.patch(cli, "sample_environment", "assignment")
    tracer.patch(walk, "sample_environment", "assignment")
    tracer.patch(walk, "step_reinforced", "step")
    tracer.patch(walk, "step_quenched", "step")
    tracer.patch(cli, "check_admissible", "admissibility", _points)
    tracer.patch(urnwalk.admissibility, "_scan_chunk", "square_scan", _squares)
    tracer.patch(cli, "recover_env_moments", "recover")
    tracer.patch(urnwalk.equivalence, "build_moment_table", "table_build", _table_entries)
    tracer.patch(cli, "hildebrandt_schoenberg_check", "hs", _hs)
    tracer.patch(urnwalk.moments, "_scan_pairs", "hs_scan")
    tracer.patch(cli, "simplex_mass", "mass")
    tracer.patch(cli, "enumerate_reinforced", "enumerate", _paths)
    tracer.patch(cli, "enumerate_annealed", "enumerate", _paths)
    tracer.patch(cli, "compare_distributions", "compare")
    tracer.patch(cli, "compare_empirical", "compare")
    tracer.patch(cli, "law_from_env", "env_law")
    tracer.patch(laws.SimplexPoint, "__post_init__", "simplex_point")
    for cls, attrs in ((laws.ReinforcementLaw, ("weights",)),
                       (laws.UniformLaw, ("log_weights",)),
                       (laws.DirichletLaw, ("weights", "log_weights")),
                       (laws.PolynomialDirichletLaw, ("log_weights",)),
                       (laws.TabulatedLaw, ("weights", "log_weights"))):
        for attr in attrs:
            tracer.patch(cls, attr, "law_eval")
    tracer.patch(env.EnvMomentLaw, "log_weights", "law_eval", _lookups)
    for cls in (env.DirichletEnv, env.PolynomialDirichletEnv, env.PointMassEnv, env.EmpiricalEnv):
        tracer.patch(cls, "log_mixed_moment", "moment")
        tracer.patch(cls, "sample", "env_sample")


def layer_metrics(agg: dict) -> dict[str, float]:
    """Per-layer figures of one traced pass."""
    kind = lambda k: agg["by_kind"].get(k, (0, 0.0))
    module_self = lambda m: agg["by_module"].get(m, (0, 0.0))[1]
    counters = agg["counters"]
    per = lambda total, n, scale=1e6: total / n * scale if n else 0.0

    trajectories, _ = kind("trajectory")
    steps, step_s = kind("step")
    streams, stream_s = kind("stream")
    evals, eval_s = kind("law_eval")
    moments_n, _ = kind("moment")
    samples, _ = kind("env_sample")
    lookups = counters["environment.moment_lookups"]
    misses = sum(c for (n, p), c in agg["by_parent"].items()
                 if p == "environment.EnvMomentLaw.log_weights" and n.endswith(".log_mixed_moment"))
    adm_evals = agg["by_kind_top"].get(("law_eval", "admissibility.check_admissible"), (0, 0.0))[0]
    paths = counters["equivalence.paths"]
    _, enum_s = kind("enumerate")
    return {
        "walk.trajectories": trajectories,
        "walk.steps": steps,
        "walk.self_s": module_self("walk"),
        "walk.us_per_step": per(step_s, steps),
        "walk.streams": streams,
        "walk.stream_us": per(stream_s, streams),
        "laws.evals": evals,
        "laws.self_s": module_self("laws"),
        "laws.us_per_eval": per(eval_s, evals),
        "laws.simplex_points": kind("simplex_point")[0],
        "environment.moment_evals": moments_n,
        "environment.moment_lookups": lookups,
        "environment.moment_cache_hit_frac": 1.0 - misses / lookups if lookups else 0.0,
        "environment.samples": samples,
        "environment.self_s": module_self("environment"),
        "admissibility.squares": counters["admissibility.squares"],
        "admissibility.law_evals_per_point": per(adm_evals, counters["admissibility.points"], 1.0),
        "admissibility.self_s": module_self("admissibility"),
        "moments.table_entries": counters["moments.table_entries"],
        "moments.build_s": kind("table_build")[1],
        "moments.hs_pairs": counters["moments.hs_pairs"],
        "moments.hs_terms": counters["moments.hs_terms"],
        "moments.hs_s": kind("hs")[1],
        "moments.mass_s": kind("mass")[1],
        "equivalence.paths": paths,
        "equivalence.enumerate_s": enum_s,
        "equivalence.us_per_path": per(enum_s, paths),
        "equivalence.compare_s": kind("compare")[1],
        "config.calls": agg["by_module"].get("config", (0, 0.0))[0],
        "config.self_s": module_self("config"),
        "cli.self_s": module_self("cli"),
    }


def provenance() -> dict:
    args = urnwalk.cli.build_parser().parse_args(["simulate", "--config", "-"])
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "urnwalk": urnwalk.__version__,
        "nproc": os.cpu_count(),
        "cli_default_threads": args.threads,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--wrong-verdict", action="store_true",
                    help="expect the opposite exit code of the first operation (smoke test)")
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--trace-out", type=Path, default=None)
    args = ap.parse_args()

    ops = generate(args.workload, args.seed, args.scale, args.workdir)
    if args.wrong_verdict:
        ops[0].expected_exit = 0 if ops[0].expected_exit else 1
    result: dict = {"provenance": provenance(), "ops": len(ops)}
    budget = args.seconds / 2 if args.trace else args.seconds
    plain = run_passes(ops, budget)
    attempted, failures = plain["attempted"], list(plain["failures"])
    result.update(best_totals(ops, plain), passes=plain["passes"])
    if args.trace:
        tracer = Tracer()
        per_pass: list[dict] = []
        last: dict = {}

        def on_pass() -> None:
            last["agg"] = tracer.merged()
            layers = layer_metrics(last["agg"])
            layers["cli.bytes_out"] = sum(bytes_out(op) for op in ops)
            per_pass.append(layers)
            tracer.reset()

        install(tracer)
        try:
            traced = run_passes(ops, budget, tracer, on_pass)
        finally:
            tracer.uninstall()
        if args.trace_out is not None:
            Tracer.write(last["agg"], args.trace_out)
        attempted += traced["attempted"]
        failures += traced["failures"]
        traced_wall = best_totals(ops, traced)["wall_s"]
        result["layers"] = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
        result["layers"]["trace.overhead_frac"] = traced_wall / result["wall_s"] - 1.0
    result.update(attempted=attempted, failed=len(failures), failures=failures[:20],
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
