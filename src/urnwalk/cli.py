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
4 resource guard.  Exit 1 only ever means that a property failed: a
malformed config field is always a config error (see :mod:`urnwalk.config`).
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
    json_rows: Callable[[], list] | None = None,
) -> None:
    """CSV gets a sidecar ``<out>.meta.json``; JSON embeds the metadata.

    ``json_rows`` builds the JSON body, called only for JSON output; without
    it the body is the CSV rows as lists.
    """
    if fmt == "csv":
        _write_csv(out, header, rows)
        _write_json(Path(str(out) + ".meta.json"), dict(meta))
    else:
        payload = dict(meta)
        payload[json_body_key] = json_rows() if json_rows is not None else [list(r) for r in rows]
        _write_json(out, payload)


def _write_table(out: Path, fmt: str, table, meta: Mapping[str, Any]) -> None:
    """A moment table: one row per multi-index, its entries then the value."""
    header = [f"k_{i + 1}" for i in range(table.dimension)] + ["value"]
    rows = table.to_rows()
    _write_output(out, fmt, header, [list(k) + [v] for k, v in rows], meta, "table",
                  json_rows=lambda: [{"index": list(k), "value": v} for k, v in rows])


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
    return Path(path), fmt


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


def _dimension(cfg: Mapping) -> int | None:
    """The optional top-level ``dimension`` a law is checked against."""
    if "dimension" not in cfg:
        return None
    return config_int(cfg["dimension"], "dimension")


def _tolerance(cfg: Mapping) -> float:
    tolerance = _object(cfg, "operation").get("tolerance", DEFAULT_TOLERANCE)
    return config_number(tolerance, "operation.tolerance", minimum=0.0)


def _meta(cfg: Mapping, command: str, **extra: Any) -> dict:
    meta = {"command": command, "schema": 1, "numerics": NUMERICS,
            "config_sha256": config_hash(cfg)}
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
    law = law_from_spec(_section(cfg, "law", "check-admissibility"), _dimension(cfg))
    box = _op_int(cfg, "box", 6, minimum=1)
    tolerance = _tolerance(cfg)
    out, fmt = _output_target(cfg, "check-admissibility")
    report = check_admissible(law, box, tolerance)
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
                  json_rows=lambda: [v.to_dict() for v in report.violations])
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


def cmd_verify_moments(cfg: dict, args: argparse.Namespace) -> int:
    law = law_from_spec(_section(cfg, "law", "verify-moments"), _dimension(cfg))
    order = _op_int(cfg, "order", 8, minimum=0)
    tolerance = _tolerance(cfg)
    corruption = _parse_corruption(getattr(args, "corrupt_entry", None), law.dimension, order)
    out, fmt = _output_target(cfg, "verify-moments")
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
    meta = _meta(
        cfg,
        "verify-moments",
        hs_report=hs.to_dict(),
        mass_deviations=masses,
        passed=passed,
    )
    _write_table(out, fmt, table, meta)
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
    """Fixed environment for quenched runs, inline or sampled-and-frozen, and its meta."""
    if "assignment" in cfg:
        return assignment_from_spec(graph, cfg["assignment"]), {"assignment_source": "inline"}
    if "envs" in cfg:
        op = _object(cfg, "operation")
        if "env_seed" not in op:
            raise ConfigError(
                f"{command}: quenched mode needs an inline 'assignment' or envs plus "
                "operation.env_seed to sample-and-freeze"
            )
        env_seed = config_int(op["env_seed"], "operation.env_seed", minimum=0)
        envs = resolve_per_vertex(graph, cfg["envs"], env_from_spec, "envs")
        assignment = sample_environment(graph, envs, make_stream(env_seed))
        frozen = {str(x): list(p.weights) for x, p in sorted(assignment.items())}
        return assignment, {"assignment_source": "sampled", "env_seed": env_seed,
                            "assignment": frozen}
    raise ConfigError(f"{command}: quenched mode needs 'assignment' or 'envs'")


def _runs(mode: str, graph, maps: Mapping, x0: int, steps: int, seed: int,
          count: int) -> Iterable[tuple[int, ...]]:
    """The ``mode`` trajectories of the streams ``(seed, i)``, ``i < count``.

    In lock step where :func:`~urnwalk.walk.lockstep_pays`, and per stream
    otherwise: the same trajectories either way.  The per-stream runs are
    looked up here at each call, so a wrapper bound to this module's
    ``run_*`` names sees them.
    """
    if lockstep_pays(mode, graph, maps, x0, steps, count):
        many = {"reinforced": run_many_reinforced, "quenched": run_many_quenched,
                "annealed": run_many_annealed}[mode]
        return many(graph, maps, x0, steps, seed, count)
    run = {"reinforced": run_reinforced, "quenched": run_quenched, "annealed": run_annealed}[mode]
    return (run(graph, maps, x0, steps, rng) for rng in stream_generators(seed, count))


def cmd_simulate(cfg: dict, args: argparse.Namespace) -> int:
    graph = graph_from_spec(_section(cfg, "graph", "simulate"))
    op = _object(cfg, "operation")
    mode = op.get("mode")
    if mode not in ("reinforced", "quenched", "annealed"):
        raise ConfigError(f"simulate: operation.mode must be reinforced|quenched|annealed, got {mode!r}")
    steps = _op_int(cfg, "steps", 0, minimum=0)
    count = _op_int(cfg, "trajectories", 1, minimum=1)
    x0 = _start_vertex(cfg, graph)
    seed = _require_seed(cfg, "simulate")
    out, fmt = _output_target(cfg, "simulate")

    meta_extra: dict[str, Any] = {"mode": mode, "steps": steps, "trajectories": count, "start": x0}
    if mode == "reinforced":
        maps = resolve_per_vertex(graph, _section(cfg, "laws", "simulate"), law_from_spec, "laws")
    elif mode == "annealed":
        maps = resolve_per_vertex(graph, _section(cfg, "envs", "simulate"), env_from_spec, "envs")
    else:
        maps, extra = _resolve_assignment(cfg, graph, "simulate")
        meta_extra.update(extra)

    rows = list(_runs(mode, graph, maps, x0, steps, seed, count))
    meta = _meta(cfg, "simulate", **meta_extra)
    header = [f"v{t}" for t in range(steps + 1)]
    _write_output(out, fmt, header, rows, meta, "trajectories")
    print(f"wrote {count} {mode} trajectories of {steps} steps to {out}")
    return EXIT_PASS


def chi2_quantile(quantile: float, dof: int) -> float:
    """The ``quantile`` of the chi-square law with ``dof`` degrees of freedom.

    ``2 P^-1(dof / 2, quantile)``, from :func:`~urnwalk.laws.inverse_regularised_gamma`,
    which needs only ``math``: within a few ulps of mpmath, and within
    1e-13 of ``scipy.stats.chi2.ppf`` for ``dof`` up to 5,000 and
    ``quantile`` from 1e-12 on, where scipy itself errs by up to 49 ulps.
    """
    return 2.0 * inverse_regularised_gamma(dof / 2, quantile)


def cmd_compare(cfg: dict, args: argparse.Namespace) -> int:
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
                      json_rows=lambda: [{"path": r[0], "reinforced": r[1], "annealed": r[2]}
                                         for r in rows])
        print(
            f"exact compare: TV={report.total_variation:.3e}, "
            f"max gap={report.max_abs_gap:.3e} ({'pass' if passed else 'FAIL'})"
        )
        return EXIT_PASS if passed else EXIT_PROPERTY

    observed = Counter(_runs("reinforced", graph, laws, x0, steps, seed, samples))
    report = compare_empirical(observed, annealed)
    statistic, dof = report.chi_square
    threshold = chi2_quantile(quantile, dof) if dof > 0 else 0.0
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
    rows = [
        ["-".join(str(v) for v in t), annealed.probabilities[t], observed.get(t, 0)]
        for t in sorted(annealed.probabilities)
    ]
    _write_output(out, fmt, header, rows, meta, "cells",
                  json_rows=lambda: [{"path": r[0], "annealed": r[1], "observed": r[2]}
                                     for r in rows])
    print(
        f"empirical compare: chi2={statistic:.3f} (dof={dof}, "
        f"threshold={threshold:.3f}) ({'pass' if passed else 'FAIL'})"
    )
    return EXIT_PASS if passed else EXIT_PROPERTY


def cmd_derive_law(cfg: dict, args: argparse.Namespace) -> int:
    env = env_from_spec(_section(cfg, "env", "derive-law"))
    law = law_from_env(env)
    box = _op_int(cfg, "box", 6, minimum=0)
    out, fmt = _output_target(cfg, "derive-law")
    size = (box + 1) ** env.dimension
    if size > MAX_DERIVE_ROWS:
        raise EnumerationGuardError(
            f"derive-law: box {box} in dimension {env.dimension} has {size} count vectors, "
            f"more than the limit of {MAX_DERIVE_ROWS}"
        )
    # every count vector of the box, in lexicographic order
    counts = np.indices((box + 1,) * env.dimension).reshape(env.dimension, -1).T
    rows = counts.tolist()
    for row, weights in zip(rows, np.exp(law.log_weights_batch(counts)).tolist()):
        row.extend(check_simplex(tuple(weights)))
    meta = _meta(cfg, "derive-law", box=box, dimension=env.dimension)
    header = [f"p_{i + 1}" for i in range(env.dimension)] + [
        f"v_{i + 1}" for i in range(env.dimension)
    ]
    _write_output(out, fmt, header, rows, meta, "law_table",
                  json_rows=lambda: [
                      {"counts": r[: env.dimension], "weights": r[env.dimension :]}
                      for r in rows
                  ])
    print(f"wrote induced law on box {box} to {out}")
    return EXIT_PASS


def cmd_recover_moments(cfg: dict, args: argparse.Namespace) -> int:
    law = law_from_spec(_section(cfg, "law", "recover-moments"), _dimension(cfg))
    order = _op_int(cfg, "order", 8, minimum=0)
    out, fmt = _output_target(cfg, "recover-moments")
    try:
        table = recover_env_moments(law, order)
    except NotAdmissibleError as exc:
        print(f"no environment to recover: {exc}", file=sys.stderr)
        return EXIT_PROPERTY
    _write_table(out, fmt, table,
                 _meta(cfg, "recover-moments", order=order, dimension=table.dimension))
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
