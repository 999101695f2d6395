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

Exit codes: 0 pass, 1 property fails, 2 config error, 3 evaluation error,
4 resource guard.  Outputs embed the SHA-256 of the effective config and
never include timestamps, so a rerun with the same config and seed is
byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path
from typing import Any, Mapping, Sequence

from .admissibility import check_admissible, validate_tolerance
from .config import (
    config_hash,
    config_int,
    env_from_spec,
    graph_from_spec,
    law_from_spec,
    load_config,
    resolve_per_vertex,
)
from .environment import law_from_env
from .equivalence import (
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
from .laws import SimplexPoint
from .moments import hildebrandt_schoenberg_check, simplex_mass
from .walk import (
    make_stream,
    run_annealed,
    run_quenched,
    run_reinforced,
    sample_environment,
)

EXIT_PASS = 0
EXIT_PROPERTY = 1
EXIT_CONFIG = 2
EXIT_EVALUATION = 3
EXIT_GUARD = 4

DEFAULT_TOLERANCE = 1e-10


def _write_json(path: Path, payload: Any) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_output(
    out: Path,
    fmt: str,
    header: Sequence[str],
    rows: Sequence[Sequence[Any]],
    meta: Mapping[str, Any],
    json_body_key: str,
    json_rows: Any = None,
) -> None:
    """CSV gets a sidecar ``<out>.meta.json``; JSON embeds the metadata."""
    if fmt == "csv":
        _write_csv(out, header, rows)
        _write_json(Path(str(out) + ".meta.json"), dict(meta))
    else:
        payload = dict(meta)
        payload[json_body_key] = json_rows if json_rows is not None else [list(r) for r in rows]
        _write_json(out, payload)


def _effective_config(cfg: dict, args: argparse.Namespace) -> dict:
    """Apply CLI overrides; the result is what gets hashed and recorded."""
    out = json.loads(json.dumps(cfg))
    if getattr(args, "seed", None) is not None:
        out["seed"] = args.seed
    if getattr(args, "out", None):
        out.setdefault("output", {})["path"] = args.out
    if getattr(args, "format", None):
        out.setdefault("output", {})["format"] = args.format
    if getattr(args, "tolerance", None) is not None:
        out.setdefault("operation", {})["tolerance"] = args.tolerance
    return out


def _output_target(cfg: Mapping, command: str) -> tuple[Path, str]:
    output = cfg.get("output", {})
    if not isinstance(output, Mapping):
        raise ConfigError("output section must be an object")
    path = output.get("path")
    if not path:
        raise ConfigError(f"{command}: an output path is required (config output.path or --out)")
    fmt = output.get("format", "json")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"output format must be 'csv' or 'json', got {fmt!r}")
    return Path(path), fmt


def _operation(cfg: Mapping) -> Mapping:
    op = cfg.get("operation", {})
    if not isinstance(op, Mapping):
        raise ConfigError("operation section must be an object")
    return op


def _op_int(cfg: Mapping, key: str, default: int) -> int:
    return config_int(_operation(cfg).get(key, default), f"operation.{key}")


def _dimension(cfg: Mapping) -> int | None:
    """The optional top-level ``dimension`` a law is checked against."""
    if "dimension" not in cfg:
        return None
    return config_int(cfg["dimension"], "dimension")


def _tolerance(cfg: Mapping) -> float:
    raw = _operation(cfg).get("tolerance", DEFAULT_TOLERANCE)
    try:
        return validate_tolerance(float(raw))
    except (TypeError, ValueError):
        raise ConfigError(f"tolerance must be a finite number >= 0, got {raw!r}") from None


def _meta(cfg: Mapping, command: str, **extra: Any) -> dict:
    meta = {"command": command, "schema": 1, "config_sha256": config_hash(cfg)}
    if "seed" in cfg:
        meta["seed"] = cfg["seed"]
    meta.update(extra)
    return meta


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


def cmd_check_admissibility(cfg: dict, args: argparse.Namespace) -> int:
    if "law" not in cfg:
        raise ConfigError("check-admissibility needs a 'law' section")
    law = law_from_spec(cfg["law"], _dimension(cfg))
    box = _op_int(cfg, "box", 6)
    report = check_admissible(law, box, _tolerance(cfg))
    out, fmt = _output_target(cfg, "check-admissibility")
    meta = _meta(cfg, "check-admissibility", report={
        "admissible": report.admissible,
        "box_size": report.box_size,
        "tolerance": report.tolerance,
        "violation_count": len(report.violations),
    })
    header = ["p", "i", "j", "lhs", "rhs", "gap"]
    rows = [
        ["-".join(str(v) for v in viol.counts), viol.i, viol.j, viol.lhs, viol.rhs, viol.gap]
        for viol in report.violations
    ]
    _write_output(out, fmt, header, rows, meta, "violations",
                  json_rows=[v.to_dict() for v in report.violations])
    if not report.admissible:
        first = report.violations[0]
        print(
            f"not admissible: {len(report.violations)} violation(s); first at "
            f"p={first.counts} (i={first.i}, j={first.j}) gap={first.gap:.6g}",
            file=sys.stderr,
        )
        return EXIT_PROPERTY
    print(f"admissible on box {box} at tolerance {report.tolerance:g}")
    return EXIT_PASS


def _parse_corruption(entries: Sequence[str] | None) -> list[tuple[tuple[int, ...], float]]:
    out = []
    for raw in entries or ():
        try:
            index_part, value_part = raw.split("=", 1)
            index = tuple(int(v) for v in index_part.split(","))
            out.append((index, float(value_part)))
        except ValueError:
            raise ConfigError(
                f"--corrupt-entry must look like 'k1,k2,...=value', got {raw!r}"
            ) from None
    return out


def cmd_verify_moments(cfg: dict, args: argparse.Namespace) -> int:
    if "law" not in cfg:
        raise ConfigError("verify-moments needs a 'law' section")
    law = law_from_spec(cfg["law"], _dimension(cfg))
    order = _op_int(cfg, "order", 8)
    tolerance = _tolerance(cfg)
    try:
        table = recover_env_moments(law, order)
    except NotAdmissibleError as exc:
        print(f"not admissible: {exc}", file=sys.stderr)
        return EXIT_PROPERTY
    for index, value in _parse_corruption(getattr(args, "corrupt_entry", None)):
        try:
            table = table.with_value(index, value)
        except (MomentOrderError, ValueError) as exc:
            raise ConfigError(f"--corrupt-entry {index}={value}: {exc}") from None
    hs = hildebrandt_schoenberg_check(table, tolerance)
    masses = [
        {"degree": n, "deviation": abs(simplex_mass(table, n) - 1.0)}
        for n in range(order + 1)
    ]
    worst_mass = max((m["deviation"] for m in masses), default=0.0)
    passed = hs.passed and worst_mass <= tolerance
    out, fmt = _output_target(cfg, "verify-moments")
    meta = _meta(
        cfg,
        "verify-moments",
        hs_report=hs.to_dict(),
        mass_deviations=masses,
        passed=passed,
    )
    dim = table.dimension
    header = [f"k_{i + 1}" for i in range(dim)] + ["value"]
    rows = [list(k) + [v] for k, v in table.to_rows()]
    _write_output(out, fmt, header, rows, meta, "table",
                  json_rows=[{"index": list(k), "value": v} for k, v in table.to_rows()])
    if not passed:
        detail = "positivity scan failed" if not hs.passed else "mass identity failed"
        print(
            f"{detail}: max_negativity={hs.max_negativity:.3e}, "
            f"worst mass deviation={worst_mass:.3e}",
            file=sys.stderr,
        )
        return EXIT_PROPERTY
    print(
        f"moments certified to order {order}: min signed difference "
        f"{hs.max_negativity:.3e}, worst mass deviation {worst_mass:.3e}"
    )
    return EXIT_PASS


def _resolve_assignment(cfg: Mapping, graph, command: str) -> tuple[dict, dict]:
    """Fixed environment for quenched runs: inline or sampled-and-frozen."""
    meta_extra: dict[str, Any] = {}
    if "assignment" in cfg:
        raw = cfg["assignment"]
        if isinstance(raw, Mapping):
            items = {int(k): v for k, v in raw.items()}
        else:
            items = dict(enumerate(raw))
        try:
            assignment = {
                x: SimplexPoint(tuple(float(w) for w in weights))
                for x, weights in items.items()
            }
        except ValueError as exc:
            raise ConfigError(f"invalid assignment: {exc}") from exc
        meta_extra["assignment_source"] = "inline"
    elif "envs" in cfg:
        op = _operation(cfg)
        if "env_seed" not in op:
            raise ConfigError(
                f"{command}: quenched mode needs an inline 'assignment' or envs plus "
                "operation.env_seed to sample-and-freeze"
            )
        env_seed = config_int(op["env_seed"], "operation.env_seed")
        envs = resolve_per_vertex(graph, cfg["envs"], env_from_spec, "envs")
        assignment = sample_environment(graph, envs, make_stream(env_seed))
        meta_extra["assignment_source"] = "sampled"
        meta_extra["env_seed"] = env_seed
        meta_extra["assignment"] = {
            str(x): list(p.weights) for x, p in sorted(assignment.items())
        }
    else:
        raise ConfigError(f"{command}: quenched mode needs 'assignment' or 'envs'")
    return assignment, meta_extra


def cmd_simulate(cfg: dict, args: argparse.Namespace) -> int:
    if "graph" not in cfg:
        raise ConfigError("simulate needs a 'graph' section")
    graph = graph_from_spec(cfg["graph"])
    op = _operation(cfg)
    mode = op.get("mode")
    if mode not in ("reinforced", "quenched", "annealed"):
        raise ConfigError(f"simulate: operation.mode must be reinforced|quenched|annealed, got {mode!r}")
    steps = _op_int(cfg, "steps", 0)
    if steps < 0:
        raise ConfigError("operation.steps must be >= 0")
    count = _op_int(cfg, "trajectories", 1)
    if count < 1:
        raise ConfigError("operation.trajectories must be >= 1")
    x0 = _start_vertex(cfg, graph)
    seed = _require_seed(cfg, "simulate")

    meta_extra: dict[str, Any] = {"mode": mode, "steps": steps, "trajectories": count, "start": x0}
    if mode == "reinforced":
        if "laws" not in cfg:
            raise ConfigError("simulate: reinforced mode needs a 'laws' section")
        laws = resolve_per_vertex(graph, cfg["laws"], law_from_spec, "laws")
        runner = lambda rng: run_reinforced(graph, laws, x0, steps, rng)
    elif mode == "annealed":
        if "envs" not in cfg:
            raise ConfigError("simulate: annealed mode needs an 'envs' section")
        envs = resolve_per_vertex(graph, cfg["envs"], env_from_spec, "envs")
        runner = lambda rng: run_annealed(graph, envs, x0, steps, rng)
    else:
        assignment, extra = _resolve_assignment(cfg, graph, "simulate")
        meta_extra.update(extra)
        runner = lambda rng: run_quenched(graph, assignment, x0, steps, rng)

    trajectories = [runner(make_stream(seed, i)) for i in range(count)]
    out, fmt = _output_target(cfg, "simulate")
    meta = _meta(cfg, "simulate", **meta_extra)
    header = [f"v{t}" for t in range(steps + 1)]
    rows = [list(t) for t in trajectories]
    _write_output(out, fmt, header, rows, meta, "trajectories")
    print(f"wrote {count} {mode} trajectories of {steps} steps to {out}")
    return EXIT_PASS


def cmd_compare(cfg: dict, args: argparse.Namespace) -> int:
    if "graph" not in cfg:
        raise ConfigError("compare needs a 'graph' section")
    if "envs" not in cfg:
        raise ConfigError("compare needs an 'envs' section (the annealed reference)")
    graph = graph_from_spec(cfg["graph"])
    envs = resolve_per_vertex(graph, cfg["envs"], env_from_spec, "envs")
    if "laws" in cfg:
        laws = resolve_per_vertex(graph, cfg["laws"], law_from_spec, "laws")
    else:
        laws = {x: law_from_env(env) for x, env in envs.items()}
    op = _operation(cfg)
    mode = op.get("mode", "exact")
    steps = _op_int(cfg, "steps", 4)
    x0 = _start_vertex(cfg, graph)
    max_paths = _op_int(cfg, "max_paths", 10**6)
    tolerance = _tolerance(cfg)
    out, fmt = _output_target(cfg, "compare")

    annealed = enumerate_annealed(graph, envs, x0, steps, max_paths)
    if mode == "exact":
        reinforced = enumerate_reinforced(graph, laws, x0, steps, max_paths)
        report = compare_distributions(reinforced, annealed)
        passed = report.total_variation <= tolerance
        meta = _meta(
            cfg,
            "compare",
            mode=mode,
            steps=steps,
            start=x0,
            report=report.to_dict(),
            tolerance=tolerance,
            passed=passed,
        )
        header = ["path", "reinforced", "annealed"]
        pa = reinforced.probabilities
        pb = annealed.probabilities
        rows = [
            ["-".join(str(v) for v in t), pa[t], pb[t]] for t in sorted(pa)
        ]
        _write_output(out, fmt, header, rows, meta, "distributions",
                      json_rows=[{"path": r[0], "reinforced": r[1], "annealed": r[2]} for r in rows])
        print(
            f"exact compare: TV={report.total_variation:.3e}, "
            f"max gap={report.max_abs_gap:.3e} ({'pass' if passed else 'FAIL'})"
        )
        return EXIT_PASS if passed else EXIT_PROPERTY

    if mode != "empirical":
        raise ConfigError(f"compare: operation.mode must be 'exact' or 'empirical', got {mode!r}")
    seed = _require_seed(cfg, "compare")
    samples = _op_int(cfg, "samples", 10**5)
    quantile = float(op.get("quantile", 0.999))
    drawn = [run_reinforced(graph, laws, x0, steps, make_stream(seed, i)) for i in range(samples)]
    report = compare_empirical(drawn, annealed)
    statistic, dof = report.chi_square
    # imported here: scipy.stats takes most of a second to import, and only this mode uses it
    from scipy.stats import chi2

    threshold = float(chi2.ppf(quantile, dof)) if dof > 0 else 0.0
    passed = statistic <= threshold if dof > 0 else statistic == 0.0
    meta = _meta(
        cfg,
        "compare",
        mode=mode,
        steps=steps,
        start=x0,
        report=report.to_dict(),
        quantile=quantile,
        threshold=threshold,
        passed=passed,
    )
    header = ["path", "annealed", "observed"]
    from collections import Counter

    observed = Counter(drawn)
    rows = [
        ["-".join(str(v) for v in t), annealed.probabilities[t], observed.get(t, 0)]
        for t in sorted(annealed.probabilities)
    ]
    _write_output(out, fmt, header, rows, meta, "cells",
                  json_rows=[{"path": r[0], "annealed": r[1], "observed": r[2]} for r in rows])
    print(
        f"empirical compare: chi2={statistic:.3f} (dof={dof}, "
        f"threshold={threshold:.3f}) ({'pass' if passed else 'FAIL'})"
    )
    return EXIT_PASS if passed else EXIT_PROPERTY


def cmd_derive_law(cfg: dict, args: argparse.Namespace) -> int:
    if "env" not in cfg:
        raise ConfigError("derive-law needs an 'env' section")
    env = env_from_spec(cfg["env"])
    law = law_from_env(env)
    box = _op_int(cfg, "box", 6)
    from itertools import product as iproduct

    rows = []
    for p in iproduct(range(box + 1), repeat=env.dimension):
        point = law.weights(p)
        rows.append(list(p) + list(point.weights))
    out, fmt = _output_target(cfg, "derive-law")
    meta = _meta(cfg, "derive-law", box=box, dimension=env.dimension)
    header = [f"p_{i + 1}" for i in range(env.dimension)] + [
        f"v_{i + 1}" for i in range(env.dimension)
    ]
    _write_output(out, fmt, header, rows, meta, "law_table",
                  json_rows=[
                      {"counts": r[: env.dimension], "weights": r[env.dimension :]}
                      for r in rows
                  ])
    print(f"wrote induced law on box {box} to {out}")
    return EXIT_PASS


def cmd_recover_moments(cfg: dict, args: argparse.Namespace) -> int:
    if "law" not in cfg:
        raise ConfigError("recover-moments needs a 'law' section")
    law = law_from_spec(cfg["law"], _dimension(cfg))
    order = _op_int(cfg, "order", 8)
    try:
        table = recover_env_moments(law, order)
    except NotAdmissibleError as exc:
        print(f"no environment to recover: {exc}", file=sys.stderr)
        return EXIT_PROPERTY
    out, fmt = _output_target(cfg, "recover-moments")
    meta = _meta(cfg, "recover-moments", order=order, dimension=table.dimension)
    header = [f"k_{i + 1}" for i in range(table.dimension)] + ["value"]
    rows = [list(k) + [v] for k, v in table.to_rows()]
    _write_output(out, fmt, header, rows, meta, "table",
                  json_rows=[{"index": list(k), "value": v} for k, v in table.to_rows()])
    print(f"wrote moment table to order {order} to {out}")
    return EXIT_PASS


COMMANDS = {
    "check-admissibility": cmd_check_admissibility,
    "verify-moments": cmd_verify_moments,
    "simulate": cmd_simulate,
    "compare": cmd_compare,
    "derive-law": cmd_derive_law,
    "recover-moments": cmd_recover_moments,
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
        return COMMANDS[args.command](cfg, args)
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


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
