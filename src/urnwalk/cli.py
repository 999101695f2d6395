"""Command-line front end.

Subcommands wire config files to the library:

* ``check-admissibility`` -- scan a law's elementary squares on a box.
* ``verify-moments``      -- build the moment table and check the simplex
                             identity and the slice masses.
* ``simulate``            -- sample reinforced / quenched / annealed
                             trajectories to a file.
* ``compare``             -- reinforced vs annealed law, exact enumeration
                             or empirical chi-square tail probability.
* ``derive-law``          -- dump the reinforcement law induced by an
                             environment over a box of count vectors.
* ``recover-moments``     -- dump the environment moment table recovered
                             from an admissible law.

The tolerance τ (``operation.tolerance`` or ``--tolerance``, default 1e-10)
bounds check-admissibility's square gaps; the gap of each edge from the moment
table's staircase in verify-moments and recover-moments (squares close within
4τ), and verify-moments' relative identity defect and mass deviations; exact
compare's TV.

Each command is a ``plan_*`` function.  It reads the whole config, so a
malformed field is a config error raised before any work, and returns its
run, which only computes a :class:`Result`.  :func:`main` plans, reads the
output section (the output's directory must exist), runs, writes the result
with its metadata, prints the summary line (to stdout on a pass, to stderr
on a fail) and maps the outcome to an exit code: 0 pass, 1 property fails,
2 config error (an output that cannot be written included, and an empirical
compare whose samples leave the chi-square test no degrees of freedom),
3 evaluation error, 4 resource guard.  So exit 1 only ever means that a
property failed.  The guards are exact ``compare``'s ``operation.max_paths``
and the limit of :data:`MAX_LATTICE_POINTS` lattice points on the commands
that read a whole lattice: ``check-admissibility``'s square corners in its
box (d >= 2), the moment table's entries in ``verify-moments`` and
``recover-moments``, and ``derive-law``'s count vectors in its box.  Each is
checked after the config and before any law is evaluated.  Each file is
written under a temporary name and moved into place, a CSV's metadata sidecar
first, so a failed write leaves no partial file.  A JSON output has the bytes
of ``json.dumps(..., sort_keys=True, indent=2)``, with each non-finite float
as the string ``"inf"``, ``"-inf"`` or ``"nan"`` (strict JSON has no token
for them), but its body is streamed: a chunk of rows per write, each row
through one format string laid out for the output, its cells encoded a
column at a time.  Outputs embed the SHA-256 of the effective config and
never include timestamps, so a rerun with the same config and seed is
byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .admissibility import DEFAULT_TOLERANCE, check_admissible
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
from .environment import ENVIRONMENT_DRAWS, law_from_env
from .equivalence import (
    DEFAULT_MAX_PATHS,
    POOL_EXPECTED,
    compare_distributions,
    compare_empirical,
    enumerate_annealed,
    enumerate_both,
    enumerate_reinforced,
    recover_env_moments,
    samples_for_a_cell,
)
from .errors import (
    ConfigError,
    EnumerationGuardError,
    MomentOrderError,
    NotAdmissibleError,
    UrnwalkError,
)
from .laws import check_simplex_rows, log_lower_gamma, regularised_gamma
from .moments import check_entry, hildebrandt_schoenberg_check, simplex_defect, simplex_mass
from .walk import (
    ENVIRONMENT_STREAM,
    STREAM_LAYOUT,
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

#: Version of the floating-point formulas behind every output, recorded in
#: ``meta``.  2: log rising factorials are sums of logs, and induced log
#: weights are normalised by their log-sum-exp.  3: empirical compare's
#: chi-square threshold is computed in the package (no scipy), and a log
#: rising factorial past ``laws.RISING_TABLE_CAP`` is a difference of
#: Stirling forms, not of log-gammas.  4: empirical compare decides by, and
#: records, the ``p_value`` of its statistic (:func:`chi_square_test`).  5: a
#: run's streams are numpy's Philox (:data:`~urnwalk.walk.STREAM_LAYOUT`,
#: recorded in the ``meta`` of simulate and empirical compare), a frozen
#: environment draws from its own stream, and Dirichlet environments are drawn
#: from the logs of their gamma draws (:meth:`~urnwalk.environment.DirichletEnv.sample`).
#: 6: the chi-square upper tail past ``a + 1`` is a finite sum (:func:`~urnwalk.laws.regularised_gamma`).
NUMERICS = 6

#: Most lattice points a command reads (box corners, table entries or count
#: vectors), the default ``max_paths`` of exact compare.
MAX_LATTICE_POINTS = DEFAULT_MAX_PATHS

#: About how many cells of a JSON body are encoded per write.
_CHUNK_CELLS = 8192


@dataclass(frozen=True)
class Result:
    """What a command's run computed, for :func:`main` to write and report.

    ``meta`` joins the metadata every output carries.  A CSV has the
    ``header``'s columns of each of ``rows``; the JSON body under
    ``body_key`` has one object per row, whose ``shape`` maps each key to a
    column or a slice of columns (a list), or, without a shape, the rows as
    lists.  ``{out}`` in ``summary`` is the output path.
    """

    meta: dict
    header: Sequence[str]
    rows: Sequence[Sequence[Any]]
    body_key: str
    summary: str
    passed: bool = True
    shape: Mapping[str, int | slice] | None = None


@contextmanager
def _written_whole(path: Path, newline: str) -> Iterator[TextIO]:
    """A file to write ``path`` through: a temporary name in its directory,
    moved into place on success and removed on failure, so that a failed
    write leaves no partial file."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _strict(node: Any) -> Any:
    """``node`` with each non-finite float in it as the string ``"inf"``,
    ``"-inf"`` or ``"nan"``: strict JSON has no token for them."""
    if isinstance(node, float):
        return node if math.isfinite(node) else repr(float(node))
    if isinstance(node, Mapping):
        return {k: _strict(v) for k, v in node.items()}
    if isinstance(node, (list, tuple)):
        return list(map(_strict, node))
    return node


def _encoded(column: Sequence[Any]) -> list[str]:
    """Each cell of ``column``, a scalar, as :mod:`json` encodes it after
    :func:`_strict`, in one ``map``."""
    kinds = set(map(type, column))
    if kinds == {int} or kinds == {float} and math.isfinite(sum(column)):
        return list(map(repr, column))
    strict = lambda cell: json.dumps(_strict(cell))
    return list(map(encode_basestring_ascii if kinds == {str} else strict, column))


def _layout(node: Any, level: int) -> str:
    """``node`` as ``json.dumps(sort_keys=True, indent=2)`` lays it out at
    nesting ``level``: a format string with a field for each int in it, the
    index of a column of the row."""
    if isinstance(node, int):
        return f"{{{node}}}"
    if isinstance(node, dict):
        items = [encode_basestring_ascii(k).replace("{", "{{").replace("}", "}}")
                 + f": {_layout(node[k], level + 1)}" for k in sorted(node)]
        ends = "{{", "}}"
    else:
        items = [_layout(n, level + 1) for n in node]
        ends = "[", "]"
    inner = "\n" + "  " * (level + 1)
    body = f"{inner}{(',' + inner).join(items)}\n{'  ' * level}" if items else ""
    return ends[0] + body + ends[1]


def _write_json(path: Path, doc: Mapping, rows: Sequence[Sequence] = (), key: str = "",
                shape: Mapping[str, int | slice] | None = None) -> None:
    """``json.dumps(_strict(doc), sort_keys=True, indent=2)`` and a newline,
    with ``rows`` streamed in as the body ``doc[key]``, which is ``[]``: about
    :data:`_CHUNK_CELLS` cells per write, encoded a column at a time into the
    row laid out once."""
    text = json.dumps(_strict(doc), sort_keys=True, indent=2)
    with _written_whole(path, "\n") as fh:
        if rows:
            (width,) = set(map(len, rows))  # a ValueError unless the rows have one width
            columns = range(width)
            row = _layout(columns if shape is None else
                          {k: columns[s] for k, s in shape.items()}, 2).format
            # only a top-level key follows a newline and two spaces
            mark = f"\n  {encode_basestring_ascii(key)}: ["
            cut = text.index(mark + "]") + len(mark)
            fh.write(text[:cut])
            step = max(1, _CHUNK_CELLS // max(width, 1))
            for start in range(0, len(rows), step):
                part = rows[start:start + step]
                # part itself is an argument no field reads, there for rows of no columns
                lines = map(row, *map(_encoded, zip(*part)), part)
                fh.write(("," if start else "") + "\n    " + ",\n    ".join(lines))
            text = "\n  " + text[cut:]
        fh.write(text + "\n")


def _write_output(out: Path, fmt: str, cfg: Mapping, command: str, result: Result) -> None:
    """The result with the metadata every output carries: CSV gets a sidecar
    ``<out>.meta.json``, written first; JSON embeds the metadata."""
    meta = {"command": command, "schema": 1, "numerics": NUMERICS,
            "config_sha256": config_hash(cfg)}
    if "seed" in cfg:
        meta["seed"] = cfg["seed"]
    meta.update(result.meta)
    if fmt == "json":
        _write_json(out, {**meta, result.body_key: []}, result.rows, result.body_key,
                    result.shape)
        return
    _write_json(Path(str(out) + ".meta.json"), meta)
    rows, width = result.rows, len(result.header)
    with _written_whole(out, "") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(result.header)
        writer.writerows(rows if not rows or len(rows[0]) == width else [r[:width] for r in rows])


def _table_result(table, meta: dict, summary: str, passed: bool = True) -> Result:
    """A moment table: one row per multi-index, its entries then the value."""
    return Result(meta, [f"k_{i + 1}" for i in range(table.dimension)] + ["value"],
                  [list(k) + [v] for k, v in table.to_rows()], "table", summary, passed,
                  {"index": slice(0, -1), "value": -1})


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


def _seed(value: Any, name: str) -> int:
    """A seed: an integer config field below 2**64, as the Philox key takes."""
    seed = config_int(value, name, minimum=0)
    if seed >= 2**64:
        raise ConfigError(f"{name} must be an unsigned 64-bit integer, got {value!r}")
    return seed


def _require_seed(cfg: Mapping, command: str) -> int:
    if "seed" not in cfg:
        raise ConfigError(f"{command}: sampling requires a seed (config 'seed' or --seed)")
    return _seed(cfg["seed"], "seed")


def _start_vertex(cfg: Mapping, graph) -> int:
    x0 = _op_int(cfg, "start", 0)
    if not (0 <= x0 < graph.vertex_count):
        raise ConfigError(f"start vertex {x0} not in graph")
    return x0


def _guard_lattice(where: str, size: int, points: str) -> None:
    """Refuse a run that reads more than :data:`MAX_LATTICE_POINTS` lattice points."""
    if size > MAX_LATTICE_POINTS:
        raise EnumerationGuardError(
            f"{where} has {size} {points}, more than the limit of {MAX_LATTICE_POINTS}")


def plan_check_admissibility(cfg: dict, args: argparse.Namespace) -> Callable[[], Result]:
    law = _law(cfg, "check-admissibility")
    box = _op_int(cfg, "box", 6, minimum=1)
    tolerance = _tolerance(cfg)

    def run() -> Result:
        d = law.dimension
        if d >= 2:
            _guard_lattice(f"check-admissibility: box {box} in dimension {d}", box**d,
                           "square corners")
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
        # the counts again past the CSV's columns, for the JSON's "p" list
        rows = [["-".join(map(str, v.counts)), v.i, v.j, v.lhs, v.rhs, v.gap, *v.counts]
                for v in violations]
        return Result(meta, ["p", "i", "j", "lhs", "rhs", "gap"], rows, "violations", summary,
                      report.admissible, {"p": slice(6, None), "i": 1, "j": 2, "lhs": 3,
                                          "rhs": 4, "gap": 5})

    return run


def _parse_corruption(
    entries: Sequence[str] | None, dimension: int, order: int
) -> list[tuple[tuple[int, ...], float]]:
    """The ``--corrupt-entry`` overwrites, each checked by :func:`check_entry` before any work."""
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
        d = law.dimension
        _guard_lattice(f"verify-moments: order {order} in dimension {d}", math.comb(order + d, d),
                       "table entries")
        table = recover_env_moments(law, order, tolerance)
        for index, value in corruption:
            table = table.with_value(index, value)
        defect, where = simplex_defect(table)
        masses = [
            {"degree": n, "deviation": abs(simplex_mass(table, n) - 1.0)}
            for n in range(order + 1)
        ]
        worst_mass = max((m["deviation"] for m in masses), default=0.0)
        identity = defect <= tolerance
        passed = identity and worst_mass <= tolerance
        if passed:
            summary = (f"moments certified to order {order}: identity defect {defect:.3e} "
                       f"at k={where}, worst mass deviation {worst_mass:.3e}")
        else:
            detail = "simplex identity failed" if not identity else "mass identity failed"
            summary = (f"{detail}: identity defect={defect:.3e} at k={where}, "
                       f"worst mass deviation={worst_mass:.3e}")
        report = {"max_defect": defect, "worst_case": list(where), "order_checked": order,
                  "tolerance": tolerance, "passed": identity}
        meta = {"identity_report": report, "mass_deviations": masses, "passed": passed}
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
    env_seed = _seed(op["env_seed"], "operation.env_seed")
    envs = resolve_per_vertex(graph, cfg["envs"], env_from_spec, "envs")

    def freeze() -> tuple[dict, dict]:
        assignment = sample_environment(graph, envs, make_stream(env_seed, ENVIRONMENT_STREAM))
        frozen = {str(x): list(p.weights) for x, p in sorted(assignment.items())}
        return assignment, {"assignment_source": "sampled", "env_seed": env_seed,
                            "env_draws": ENVIRONMENT_DRAWS, "assignment": frozen}

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
        environment = lambda: (maps, {"env_draws": ENVIRONMENT_DRAWS} if mode == "annealed" else {})

    def run() -> Result:
        maps, extra = environment()
        rows = list(_runs(mode, graph, maps, x0, steps, seed, count))
        meta = {"mode": mode, "steps": steps, "trajectories": count, "start": x0,
                "rng_layout": STREAM_LAYOUT, **extra}
        return Result(meta, [f"v{t}" for t in range(steps + 1)], rows, "trajectories",
                      f"wrote {count} {mode} trajectories of {steps} steps to {{out}}")

    return run


#: Below this quantile :func:`chi_square_test` compares logs: ``P`` may underflow.
_DEEP_TAIL = 2.0 ** -1000


def chi_square_test(statistic: float, dof: int, quantile: float) -> tuple[bool, float]:
    """Whether ``statistic`` passes at ``quantile``, and its p-value, the upper tail ``Q``.

    It passes when ``P(dof / 2, statistic / 2) <= quantile``, compared in logs
    below :data:`_DEEP_TAIL`; above 1/2 the test is ``Q >= 1 - quantile``, a
    subtraction that is exact, so the upper tail keeps its digits.  A zero
    statistic passes; at zero degrees of freedom no other does.
    """
    if statistic == 0.0:
        return True, 1.0
    if dof == 0:
        return False, 0.0
    a, x = dof / 2, statistic / 2
    if 2.0 * x < statistic:  # a halved subnormal rounded down: rounding up can only fail
        x = math.nextafter(x, math.inf)
    lower, upper = regularised_gamma(a, x)
    if quantile > 0.5:
        return upper >= 1.0 - quantile, upper
    if quantile < _DEEP_TAIL and x < a + 1.0:
        return log_lower_gamma(a, x) <= math.log(quantile), upper
    return lower <= quantile, upper


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
        if mode == "exact":
            reinforced, annealed = enumerate_both(graph, laws, envs, x0, steps, max_paths)
            report = compare_distributions(reinforced, annealed)
            passed = report.total_variation <= tolerance
            extra = {"tolerance": tolerance}
            header = ["path", "reinforced", "annealed"]
            pa, pb = reinforced.probabilities, annealed.probabilities
            rows = [["-".join(map(str, t)), pa[t], pb[t]] for t in sorted(pa)]
            summary = (f"exact compare: TV={report.total_variation:.3e}, "
                       f"max gap={report.max_abs_gap:.3e}")
        else:
            annealed = enumerate_annealed(graph, envs, x0, steps, max_paths)
            pb = annealed.probabilities
            needed = samples_for_a_cell(annealed)
            if len(pb) > 1 and samples < needed:
                raise ConfigError(
                    f"compare: at {samples} samples no trajectory has an expected count "
                    f"of {POOL_EXPECTED:g}, so the chi-square test has no degrees of "
                    f"freedom; operation.samples must be at least {needed}"
                )
            observed = Counter(_runs("reinforced", graph, laws, x0, steps, seed, samples))
            report = compare_empirical(observed, annealed)
            statistic, dof = report.chi_square
            passed, p_value = chi_square_test(statistic, dof, quantile)
            extra = {"quantile": quantile, "p_value": p_value, "rng_layout": STREAM_LAYOUT}
            header = ["path", "annealed", "observed"]
            rows = [["-".join(map(str, t)), pb[t], observed.get(t, 0)] for t in sorted(pb)]
            summary = (f"empirical compare: chi2={statistic:.3f} (dof={dof}, "
                       f"p={p_value:.3g})")
        meta = {"mode": mode, "steps": steps, "start": x0, "report": report.to_dict(),
                "passed": passed, **extra}
        return Result(meta, header, rows, "distributions" if mode == "exact" else "cells",
                      f"{summary} ({'pass' if passed else 'FAIL'})", passed,
                      {name: i for i, name in enumerate(header)})

    return run


def plan_derive_law(cfg: dict, args: argparse.Namespace) -> Callable[[], Result]:
    env = env_from_spec(_section(cfg, "env", "derive-law"))
    law = law_from_env(env)
    box = _op_int(cfg, "box", 6, minimum=0)
    d = env.dimension

    def run() -> Result:
        _guard_lattice(f"derive-law: box {box} in dimension {d}", (box + 1) ** d, "count vectors")
        # every count vector of the box, in lexicographic order
        counts = np.indices((box + 1,) * d).reshape(d, -1).T
        weights = check_simplex_rows(np.exp(law.log_weights_batch(counts)))
        rows = [c + w for c, w in zip(counts.tolist(), weights.tolist())]
        header = [f"p_{i + 1}" for i in range(d)] + [f"v_{i + 1}" for i in range(d)]
        return Result({"box": box, "dimension": d}, header, rows, "law_table",
                      f"wrote induced law on box {box} to {{out}}",
                      shape={"counts": slice(0, d), "weights": slice(d, None)})

    return run


def plan_recover_moments(cfg: dict, args: argparse.Namespace) -> Callable[[], Result]:
    law = _law(cfg, "recover-moments")
    order = _op_int(cfg, "order", 8, minimum=0)
    tolerance = _tolerance(cfg)

    def run() -> Result:
        d = law.dimension
        _guard_lattice(f"recover-moments: order {order} in dimension {d}", math.comb(order + d, d),
                       "table entries")
        table = recover_env_moments(law, order, tolerance)
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


#: The parser :func:`main` reuses: building one costs more than a parse.
_parser = functools.cache(build_parser)


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
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
