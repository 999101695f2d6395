"""Command-line front end.

Subcommands wire config files to the library:

* ``check-admissibility`` -- scan a law's elementary squares on a box.
* ``verify-moments``      -- build the moment table, run the positivity
                             scan, and check the simplex mass identities.
* ``simulate``            -- sample reinforced / quenched / annealed
                             trajectories to a file.
* ``compare``             -- reinforced vs annealed law, exact enumeration
                             or empirical chi-square.
* ``derive-law``          -- dump the reinforcement law induced by an
                             environment over a box of count vectors.
* ``recover-moments``     -- dump the environment moment table recovered
                             from an admissible law.

Each command is a ``plan_*`` function.  It reads the whole config, so a
malformed field is a config error raised before any work, and returns its
run, which only computes a :class:`Result`.  :func:`main` plans, reads the
output section (the output's directory must exist), runs, writes the result
with its metadata, prints the summary line (to stdout on a pass, to stderr
on a fail) and maps the outcome to an exit code: 0 pass, 1 property fails,
2 config error (an output that cannot be written included), 3 evaluation
error, 4 resource guard.  So exit 1 only ever means that a property failed.
The guards are exact ``compare``'s ``operation.max_paths`` and
``derive-law``'s limit of :data:`MAX_DERIVE_ROWS` count vectors in the box,
checked before anything is evaluated.  Outputs embed the SHA-256 of the
effective config and never include timestamps, so a rerun with the same
config and seed is byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from .admissibility import check_admissible
from .config import (
    assignment_from_spec,
    config_hash,
    config_int,
    config_number,
    env_from_spec,
    graph_from_spec,
    law_from_spec,
    load_config,
    resolve_per_vertex,
)
from .environment import law_from_env
from .equivalence import (
    DEFAULT_MAX_PATHS,
    compare_distributions,
    compare_empirical,
    enumerate_annealed,
    enumerate_reinforced,
    recover_env_moments,
)
from .errors import (
    ConfigError,
    EnumerationGuardError,
    MomentOrderError,
    NotAdmissibleError,
    UrnwalkError,
)
from .laws import check_simplex, inverse_regularised_gamma
from .moments import check_entry, hildebrandt_schoenberg_check, simplex_mass
from .walk import (
    lockstep_pays,
    make_stream,
    run_annealed,
    run_many_annealed,
    run_many_quenched,
    run_many_reinforced,
    run_quenched,
    run_reinforced,
    sample_environment,
    stream_generators,
)

EXIT_PASS = 0
EXIT_PROPERTY = 1
EXIT_CONFIG = 2
EXIT_EVALUATION = 3
EXIT_GUARD = 4

DEFAULT_TOLERANCE = 1e-10

#: Version of the floating-point formulas behind every output, recorded in
#: ``meta``.  2: log rising factorials are sums of logs, and induced log
#: weights are normalised by their log-sum-exp.  3: empirical compare's
#: chi-square threshold is computed in the package (no scipy), and a log
#: rising factorial past ``laws.RISING_TABLE_CAP`` is a difference of
#: Stirling forms, not of log-gammas.
NUMERICS = 3

#: Most count vectors derive-law tabulates, the default ``max_paths`` of exact compare.
MAX_DERIVE_ROWS = DEFAULT_MAX_PATHS


@dataclass(frozen=True)
class Result:
    """What a command's run computed, for :func:`main` to write and report.

    ``meta`` joins the metadata every output carries.  ``json_rows`` builds
    the JSON body, called only for JSON output (without it the body is
    ``rows`` as lists).  ``{out}`` in ``summary`` is the output path.
    """

    meta: dict
    header: Sequence[str]
    rows: Sequence[Sequence[Any]]
    body_key: str
    summary: str
    passed: bool = True
    json_rows: Callable[[], list] | None = None


def _write_output(out: Path, fmt: str, cfg: Mapping, command: str, result: Result) -> None:
    """The result with the metadata every output carries: CSV gets a sidecar
    ``<out>.meta.json``; JSON embeds the metadata."""
    meta = {"command": command, "schema": 1, "numerics": NUMERICS,
            "config_sha256": config_hash(cfg)}
    if "seed" in cfg:
        meta["seed"] = cfg["seed"]
    meta.update(result.meta)
    if fmt == "csv":
        with open(out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(result.header)
            writer.writerows(result.rows)
        out, payload = Path(str(out) + ".meta.json"), meta
    else:
        body = result.json_rows() if result.json_rows else [list(r) for r in result.rows]
        payload = {**meta, result.body_key: body}
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _table_result(table, meta: dict, summary: str, passed: bool = True) -> Result:
    """A moment table: one row per multi-index, its entries then the value."""
    pairs = table.to_rows()
    return Result(meta, [f"k_{i + 1}" for i in range(table.dimension)] + ["value"],
                  [list(k) + [v] for k, v in pairs], "table", summary, passed,
                  lambda: [{"index": list(k), "value": v} for k, v in pairs])


def _effective_config(cfg: dict, args: argparse.Namespace) -> dict:
    """Apply CLI overrides; the result is what gets hashed and recorded."""
    out = json.loads(json.dumps(cfg))
    if getattr(args, "seed", None) is not None:
        out["seed"] = args.seed
    if getattr(args, "out", None):
        out["output"] = {**_object(out, "output"), "path": args.out}
    if getattr(args, "format", None):
        out["output"] = {**_object(out, "output"), "format": args.format}
    if getattr(args, "tolerance", None) is not None:
        out["operation"] = {**_object(out, "operation"), "tolerance": args.tolerance}
    return out


def _output_target(cfg: Mapping, command: str) -> tuple[Path, str]:
    output = _object(cfg, "output")
    path = output.get("path")
    if not isinstance(path, str) or not path:
        raise ConfigError(f"{command}: an output path is required (config output.path or --out)")
    fmt = output.get("format", "json")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"output format must be 'csv' or 'json', got {fmt!r}")
    out = Path(path)
    if out.is_dir():
        raise ConfigError(f"output path {path} is a directory")
    if not out.parent.is_dir():
        raise ConfigError(f"output directory {out.parent} does not exist")
    return out, fmt


def _section(cfg: Mapping, key: str, command: str) -> Any:
    """A section of ``cfg`` that ``command`` cannot run without."""
    if key not in cfg:
        raise ConfigError(f"{command} needs a {key!r} section")
    return cfg[key]


def _object(cfg: Mapping, key: str) -> Mapping:
    """An optional section of ``cfg``: an object, empty when absent."""
    section = cfg.get(key, {})
    if not isinstance(section, Mapping):
        raise ConfigError(f"{key} section must be an object")
    return section


def _op_int(cfg: Mapping, key: str, default: int, minimum: int | None = None) -> int:
    return config_int(_object(cfg, "operation").get(key, default), f"operation.{key}", minimum)


def _law(cfg: Mapping, command: str):
    """The ``law`` section, checked against the optional top-level ``dimension``."""
    spec = _section(cfg, "law", command)
    dimension = config_int(cfg["dimension"], "dimension") if "dimension" in cfg else None
    return law_from_spec(spec, dimension)


def _tolerance(cfg: Mapping) -> float:
    tolerance = _object(cfg, "operation").get("tolerance", DEFAULT_TOLERANCE)
    return config_number(tolerance, "operation.tolerance", minimum=0.0)


def _require_seed(cfg: Mapping, command: str) -> int:
    if "seed" not in cfg:
        raise ConfigError(f"{command}: sampling requires a seed (config 'seed' or --seed)")
    seed = cfg["seed"]
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
        raise ConfigError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
    return seed


def _start_vertex(cfg: Mapping, graph) -> int:
    x0 = _op_int(cfg, "start", 0)
    if not (0 <= x0 < graph.vertex_count):
        raise ConfigError(f"start vertex {x0} not in graph")
    return x0


def plan_check_admissibility(cfg: dict, args: argparse.Namespace) -> Callable[[], Result]:
    law = _law(cfg, "check-admissibility")
    box = _op_int(cfg, "box", 6, minimum=1)
    tolerance = _tolerance(cfg)

    def run() -> Result:
        report = check_admissible(law, box, tolerance)
        violations = report.violations
        if report.admissible:
            summary = f"admissible on box {box} at tolerance {report.tolerance:g}"
        else:
            first = violations[0]
            summary = (f"not admissible: {len(violations)} violation(s); first at "
                       f"p={first.counts} (i={first.i}, j={first.j}) gap={first.gap:.6g}")
        meta = {"report": {"admissible": report.admissible, "box_size": report.box_size,
                           "tolerance": report.tolerance, "violation_count": len(violations)}}
        rows = [["-".join(map(str, v.counts)), v.i, v.j, v.lhs, v.rhs, v.gap] for v in violations]
        return Result(meta, ["p", "i", "j", "lhs", "rhs", "gap"], rows, "violations", summary,
                      report.admissible, lambda: [v.to_dict() for v in violations])

    return run


def _parse_corruption(
    entries: Sequence[str] | None, dimension: int, order: int
) -> list[tuple[tuple[int, ...], float]]:
    """The ``--corrupt-entry`` overwrites, each checked against the ball before any work."""
    out = []
    for raw in entries or ():
        try:
            index_part, value_part = raw.split("=", 1)
            index = tuple(int(v) for v in index_part.split(","))
            value = float(value_part)
        except ValueError:
            raise ConfigError(
                f"--corrupt-entry must look like 'k1,k2,...=value', got {raw!r}"
            ) from None
        try:
            out.append((check_entry(dimension, order, index, value), value))
        except (MomentOrderError, ValueError) as exc:
            raise ConfigError(f"--corrupt-entry {raw}: {exc}") from None
    return out


def plan_verify_moments(cfg: dict, args: argparse.Namespace) -> Callable[[], Result]:
    law = _law(cfg, "verify-moments")
    order = _op_int(cfg, "order", 8, minimum=0)
    tolerance = _tolerance(cfg)
    corruption = _parse_corruption(getattr(args, "corrupt_entry", None), law.dimension, order)

    def run() -> Result:
        table = recover_env_moments(law, order)
        for index, value in corruption:
            table = table.with_value(index, value)
        hs = hildebrandt_schoenberg_check(table, tolerance)
        masses = [
            {"degree": n, "deviation": abs(simplex_mass(table, n) - 1.0)}
            for n in range(order + 1)
        ]
        worst_mass = max((m["deviation"] for m in masses), default=0.0)
        passed = hs.passed and worst_mass <= tolerance
        if passed:
            summary = (f"moments certified to order {order}: min signed difference "
                       f"{hs.max_negativity:.3e}, worst mass deviation {worst_mass:.3e}")
        else:
            detail = "positivity scan failed" if not hs.passed else "mass identity failed"
            summary = (f"{detail}: max_negativity={hs.max_negativity:.3e}, "
                       f"worst mass deviation={worst_mass:.3e}")
        meta = {"hs_report": hs.to_dict(), "mass_deviations": masses, "passed": passed}
        return _table_result(table, meta, summary, passed)

    return run


def _quenched_assignment(cfg: Mapping, op: Mapping, graph) -> Callable[[], tuple[dict, dict]]:
    """The fixed environment of a quenched run, read in full: a closure that
    gives it, inline or sampled and frozen, with its meta."""
    if "assignment" in cfg:
        assignment = assignment_from_spec(graph, cfg["assignment"])
        return lambda: (assignment, {"assignment_source": "inline"})
    if "envs" not in cfg:
        raise ConfigError("simulate: quenched mode needs 'assignment' or 'envs'")
    if "env_seed" not in op:
        raise ConfigError(
            "simulate: quenched mode needs an inline 'assignment' or envs plus "
            "operation.env_seed to sample-and-freeze"
        )
    env_seed = config_int(op["env_seed"], "operation.env_seed", minimum=0)
    envs = resolve_per_vertex(graph, cfg["envs"], env_from_spec, "envs")

    def freeze() -> tuple[dict, dict]:
        assignment = sample_environment(graph, envs, make_stream(env_seed))
        frozen = {str(x): list(p.weights) for x, p in sorted(assignment.items())}
        return assignment, {"assignment_source": "sampled", "env_seed": env_seed,
                            "assignment": frozen}

    return freeze


def _runs(mode: str, graph, maps: Mapping, x0: int, steps: int, seed: int,
          count: int) -> Iterable[tuple[int, ...]]:
    """The ``mode`` trajectories of the streams ``(seed, i)``, ``i < count``.

    In lock step where :func:`~urnwalk.walk.lockstep_pays`, and per stream
    otherwise: the same trajectories either way.  The per-stream runs are
    looked up here at each call, so a wrapper bound to this module's
    ``run_*`` names sees them.
    """
    run, many = {"reinforced": (run_reinforced, run_many_reinforced),
                 "quenched": (run_quenched, run_many_quenched),
                 "annealed": (run_annealed, run_many_annealed)}[mode]
    if lockstep_pays(mode, graph, maps, x0, steps, count):
        return many(graph, maps, x0, steps, seed, count)
    return (run(graph, maps, x0, steps, rng) for rng in stream_generators(seed, count))


def plan_simulate(cfg: dict, args: argparse.Namespace) -> Callable[[], Result]:
    graph = graph_from_spec(_section(cfg, "graph", "simulate"))
    op = _object(cfg, "operation")
    mode = op.get("mode")
    if mode not in ("reinforced", "quenched", "annealed"):
        raise ConfigError(f"simulate: operation.mode must be reinforced|quenched|annealed, got {mode!r}")
    steps = _op_int(cfg, "steps", 0, minimum=0)
    count = _op_int(cfg, "trajectories", 1, minimum=1)
    x0 = _start_vertex(cfg, graph)
    seed = _require_seed(cfg, "simulate")
    if mode == "quenched":
        environment = _quenched_assignment(cfg, op, graph)
    else:
        key, reader = ("laws", law_from_spec) if mode == "reinforced" else ("envs", env_from_spec)
        maps = resolve_per_vertex(graph, _section(cfg, key, "simulate"), reader, key)
        environment = lambda: (maps, {})

    def run() -> Result:
        maps, extra = environment()
        rows = list(_runs(mode, graph, maps, x0, steps, seed, count))
        meta = {"mode": mode, "steps": steps, "trajectories": count, "start": x0, **extra}
        return Result(meta, [f"v{t}" for t in range(steps + 1)], rows, "trajectories",
                      f"wrote {count} {mode} trajectories of {steps} steps to {{out}}")

    return run


def chi2_quantile(quantile: float, dof: int) -> float:
    """The ``quantile`` of the chi-square law with ``dof`` degrees of freedom.

    ``2 P^-1(dof / 2, quantile)``, from :func:`~urnwalk.laws.inverse_regularised_gamma`,
    which needs only ``math``: within a few ulps of mpmath, and within
    1e-13 of ``scipy.stats.chi2.ppf`` for ``dof`` up to 5,000 and
    ``quantile`` from 1e-12 on, where scipy itself errs by up to 49 ulps.
    """
    return 2.0 * inverse_regularised_gamma(dof / 2, quantile)


def plan_compare(cfg: dict, args: argparse.Namespace) -> Callable[[], Result]:
    graph = graph_from_spec(_section(cfg, "graph", "compare"))
    envs = resolve_per_vertex(graph, _section(cfg, "envs", "compare"), env_from_spec, "envs")
    if "laws" in cfg:
        laws = resolve_per_vertex(graph, cfg["laws"], law_from_spec, "laws")
    else:
        laws = {x: law_from_env(env) for x, env in envs.items()}
    op = _object(cfg, "operation")
    mode = op.get("mode", "exact")
    if mode not in ("exact", "empirical"):
        raise ConfigError(f"compare: operation.mode must be 'exact' or 'empirical', got {mode!r}")
    steps = _op_int(cfg, "steps", 4, minimum=0)
    x0 = _start_vertex(cfg, graph)
    max_paths = _op_int(cfg, "max_paths", DEFAULT_MAX_PATHS, minimum=1)
    tolerance = _tolerance(cfg)
    if mode == "empirical":
        seed = _require_seed(cfg, "compare")
        samples = _op_int(cfg, "samples", 10**5, minimum=100)
        quantile = config_number(op.get("quantile", 0.999), "operation.quantile")
        if not 0.0 < quantile < 1.0:
            raise ConfigError(f"operation.quantile must be a number in (0, 1), got {quantile!r}")

    def run() -> Result:
        annealed = enumerate_annealed(graph, envs, x0, steps, max_paths)
        pb = annealed.probabilities
        if mode == "exact":
            reinforced = enumerate_reinforced(graph, laws, x0, steps, max_paths)
            report = compare_distributions(reinforced, annealed)
            passed = report.total_variation <= tolerance
            extra = {"tolerance": tolerance}
            header = ["path", "reinforced", "annealed"]
            pa = reinforced.probabilities
            rows = [["-".join(map(str, t)), pa[t], pb[t]] for t in sorted(pa)]
            summary = (f"exact compare: TV={report.total_variation:.3e}, "
                       f"max gap={report.max_abs_gap:.3e}")
        else:
            observed = Counter(_runs("reinforced", graph, laws, x0, steps, seed, samples))
            report = compare_empirical(observed, annealed)
            statistic, dof = report.chi_square
            threshold = chi2_quantile(quantile, dof) if dof > 0 else 0.0
            passed = statistic <= threshold if dof > 0 else statistic == 0.0
            extra = {"quantile": quantile, "threshold": threshold}
            header = ["path", "annealed", "observed"]
            rows = [["-".join(map(str, t)), pb[t], observed.get(t, 0)] for t in sorted(pb)]
            summary = (f"empirical compare: chi2={statistic:.3f} (dof={dof}, "
                       f"threshold={threshold:.3f})")
        meta = {"mode": mode, "steps": steps, "start": x0, "report": report.to_dict(),
                "passed": passed, **extra}
        return Result(meta, header, rows, "distributions" if mode == "exact" else "cells",
                      f"{summary} ({'pass' if passed else 'FAIL'})", passed,
                      lambda: [dict(zip(header, r)) for r in rows])

    return run


def plan_derive_law(cfg: dict, args: argparse.Namespace) -> Callable[[], Result]:
    env = env_from_spec(_section(cfg, "env", "derive-law"))
    law = law_from_env(env)
    box = _op_int(cfg, "box", 6, minimum=0)
    d = env.dimension

    def run() -> Result:
        size = (box + 1) ** d
        if size > MAX_DERIVE_ROWS:
            raise EnumerationGuardError(
                f"derive-law: box {box} in dimension {d} has {size} count vectors, "
                f"more than the limit of {MAX_DERIVE_ROWS}"
            )
        # every count vector of the box, in lexicographic order
        counts = np.indices((box + 1,) * d).reshape(d, -1).T
        rows = counts.tolist()
        for row, weights in zip(rows, np.exp(law.log_weights_batch(counts)).tolist()):
            row.extend(check_simplex(tuple(weights)))
        header = [f"p_{i + 1}" for i in range(d)] + [f"v_{i + 1}" for i in range(d)]
        return Result({"box": box, "dimension": d}, header, rows, "law_table",
                      f"wrote induced law on box {box} to {{out}}",
                      json_rows=lambda: [{"counts": r[:d], "weights": r[d:]} for r in rows])

    return run


def plan_recover_moments(cfg: dict, args: argparse.Namespace) -> Callable[[], Result]:
    law = _law(cfg, "recover-moments")
    order = _op_int(cfg, "order", 8, minimum=0)

    def run() -> Result:
        table = recover_env_moments(law, order)
        return _table_result(table, {"order": order, "dimension": table.dimension},
                             f"wrote moment table to order {order} to {{out}}")

    return run


COMMANDS = {
    "check-admissibility": plan_check_admissibility,
    "verify-moments": plan_verify_moments,
    "simulate": plan_simulate,
    "compare": plan_compare,
    "derive-law": plan_derive_law,
    "recover-moments": plan_recover_moments,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="urnwalk",
        description="Reinforced random walks, random environments, and their equivalence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a schema-1 JSON config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output path")
        p.add_argument("--format", choices=("csv", "json"), default=None,
                       help="override the output format")
        p.add_argument("--threads", type=int, default=None,
                       help="ignored; kept so existing command lines parse")
        p.add_argument("--tolerance", type=float, default=None,
                       help="override operation.tolerance")
        if name == "verify-moments":
            p.add_argument("--corrupt-entry", action="append", default=None,
                           metavar="K1,K2,...=VALUE",
                           help="test hook: overwrite a moment entry before checking")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _effective_config(load_config(args.config), args)
        run = COMMANDS[args.command](cfg, args)
        out, fmt = _output_target(cfg, args.command)
        result = run()
        try:
            _write_output(out, fmt, cfg, args.command, result)
        except OSError as exc:
            raise ConfigError(f"cannot write output {out}: {exc}") from exc
        print(result.summary.format(out=out), file=sys.stdout if result.passed else sys.stderr)
        return EXIT_PASS if result.passed else EXIT_PROPERTY
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EnumerationGuardError as exc:
        print(f"enumeration guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except NotAdmissibleError as exc:
        print(f"not admissible: {exc}", file=sys.stderr)
        return EXIT_PROPERTY
    except (UrnwalkError, ValueError) as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return EXIT_EVALUATION


if __name__ == "__main__":
    sys.exit(main())
