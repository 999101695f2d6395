"""Output checks: each returns None when an operation's output is right,
otherwise a one-line reason that counts the operation as failed.

The exit code is compared first by the caller; these functions judge the
files the CLI wrote.  Moment tables are checked against the environment's
closed-form mixed moments (``env.mixed_moment``), which are computed
independently of the path products the CLI uses to build them.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

from urnwalk.config import env_from_spec
from workloads import Op, adjacency

#: Relative error allowed between a moment table and ``env.mixed_moment``.
MOMENT_RTOL = 1e-10
#: Derived-law rows spot-checked against moment ratios per operation.
DERIVE_PROBES = 20


def _read(op: Op, body_key: str) -> tuple[dict, list[list]]:
    """(meta, rows) of an output, whichever format the CLI wrote.

    CSV rows come back as strings and JSON rows as the CLI wrote them.
    """
    out = op.out
    if out.suffix == ".csv":
        meta = json.loads(Path(str(out) + ".meta.json").read_text(encoding="utf-8"))
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        return meta, rows
    payload = json.loads(out.read_text(encoding="utf-8"))
    return payload, payload[body_key]


def _simulate(op: Op) -> str | None:
    meta, rows = _read(op, "trajectories")
    operation = op.cfg["operation"]
    steps, count, start = operation["steps"], operation["trajectories"], operation["start"]
    if len(rows) != count:
        return f"{len(rows)} trajectories, expected {count}"
    nbrs = [set(nb) for nb in adjacency(op.facts["graph"])]
    for row in rows:
        path = [int(v) for v in row]
        if len(path) != steps + 1:
            return f"trajectory has {len(path)} vertices, expected {steps + 1}"
        if path[0] != start:
            return f"trajectory starts at {path[0]}, expected {start}"
        for x, y in zip(path, path[1:]):
            if y not in nbrs[x]:
                return f"step {x}->{y} is not a graph edge"
    if meta.get("mode") != operation["mode"]:
        return f"meta mode {meta.get('mode')!r}"
    return None


def _compare_exact(op: Op) -> str | None:
    meta, rows = _read(op, "distributions")
    if meta.get("passed") is not True or not rows:
        return f"exact compare did not pass: {meta.get('report')}"
    if not meta["report"]["total_variation"] <= meta["tolerance"]:
        return "total variation above tolerance"
    return None


def _compare_empirical(op: Op) -> str | None:
    meta, rows = _read(op, "cells")
    if meta.get("passed") is not True:
        return f"empirical compare did not pass: {meta.get('report')}"
    observed = sum(int(r[2] if isinstance(r, list) else r["observed"]) for r in rows)
    if observed != op.facts["samples"]:
        return f"{observed} samples counted, expected {op.facts['samples']}"
    return None


def _check_admissibility(op: Op) -> str | None:
    meta, rows = _read(op, "violations")
    report = meta["report"]
    if report["admissible"] != op.facts["admissible"]:
        return f"admissible={report['admissible']}, expected {op.facts['admissible']}"
    count = report["violation_count"]
    if len(rows) != count or (count == 0) != op.facts["admissible"]:
        return f"violation count {count} with {len(rows)} rows"
    return None


def _table(op: Op) -> tuple[dict, dict[tuple[int, ...], float]]:
    meta, rows = _read(op, "table")
    if rows and isinstance(rows[0], dict):
        return meta, {tuple(r["index"]): r["value"] for r in rows}
    return meta, {tuple(int(v) for v in r[:-1]): float(r[-1]) for r in rows}


def _against_env(op: Op, table: dict) -> str | None:
    spec = op.facts["env"]
    if spec is None:
        return None
    d = len(next(iter(table)))
    expected = math.comb(op.facts["order"] + d, d)
    if len(table) != expected:
        return f"table has {len(table)} entries, expected {expected}"
    env = env_from_spec(spec, d)
    for k, v in table.items():
        truth = env.mixed_moment(k)
        if abs(v - truth) > MOMENT_RTOL * truth:
            return f"moment {k}: table {v!r}, environment {truth!r}"
    return None


def _verify_moments(op: Op) -> str | None:
    meta, table = _table(op)
    if meta["passed"] != (op.expected_exit == 0):
        return f"passed={meta['passed']} against expected exit {op.expected_exit}"
    return _against_env(op, table)


def _recover_moments(op: Op) -> str | None:
    _, table = _table(op)
    return _against_env(op, table)


def _derive_law(op: Op) -> str | None:
    meta, rows = _read(op, "law_table")
    env_spec, box = op.facts["env"], op.facts["box"]
    d = len(env_spec["alpha"])
    if rows and isinstance(rows[0], dict):
        rows = [list(r["counts"]) + list(r["weights"]) for r in rows]
    if len(rows) != (box + 1) ** d:
        return f"{len(rows)} rows, expected {(box + 1) ** d}"
    for row in rows:
        if abs(math.fsum(float(w) for w in row[d:]) - 1.0) > 1e-12:
            return f"weights at {row[:d]} do not sum to 1"
    env = env_from_spec(env_spec, d)
    for row in random.Random(op.facts["probe_seed"]).sample(rows, min(DERIVE_PROBES, len(rows))):
        p = [int(v) for v in row[:d]]
        base = env.log_mixed_moment(p)
        for i in range(d):
            bumped = p[:i] + [p[i] + 1] + p[i + 1:]
            truth = math.exp(env.log_mixed_moment(bumped) - base)
            if abs(float(row[d + i]) - truth) > MOMENT_RTOL * truth:
                return f"weight {i} at {p}: {row[d + i]!r}, moment ratio {truth!r}"
    return None


CHECKS = {
    "simulate": _simulate,
    "compare_exact": _compare_exact,
    "compare_empirical": _compare_empirical,
    "check_admissibility": _check_admissibility,
    "verify_moments": _verify_moments,
    "recover_moments": _recover_moments,
    "derive_law": _derive_law,
}


def check(op: Op, code: int) -> str | None:
    """Reason the operation failed, or None: exit code first, then output."""
    if code != op.expected_exit:
        return f"exit code {code}, expected {op.expected_exit}"
    try:
        return CHECKS[op.key](op)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"output unreadable: {type(exc).__name__}: {exc}"
