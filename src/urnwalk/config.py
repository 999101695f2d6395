"""Run configuration: JSON schema (version 1) and builders for specs.

A config file is UTF-8 JSON with ``"schema": 1``.  Depending on the
command it carries a single law (``"law"``), a single environment
(``"env"``), or a graph plus per-vertex sections (``"laws"`` / ``"envs"``
with a ``"default"`` entry applied to unspecified vertices, and optional
``"per_vertex"`` overrides keyed by vertex id).  Operation parameters live
under ``"operation"``; the RNG seed under ``"seed"``; output path and
format under ``"output"``.

Law families::

    {"family": "uniform", "dimension": d}          # dimension optional per vertex
    {"family": "dirichlet", "alpha": [..]}
    {"family": "polynomial_dirichlet", "alpha": [..], "degree": n,
     "coefficients": [{"index": [k1..kd], "value": a}, ...]}
    {"family": "tabulated", "box": K, "fallback": "reject"|"clamp",
     "entries": [{"counts": [..], "weights": [..]}, ...]}

Environment families reuse the dirichlet and polynomial_dirichlet schemas
and add::

    {"family": "point_mass", "weights": [..]}
    {"family": "empirical", "atoms": [{"weight": w, "weights": [..]}, ...]}

Graphs::

    {"vertices": n, "adjacency": [[..], ...]}
    {"generator": "segment", "length": L}
    {"generator": "star", "leaves": m}
    {"generator": "cycle", "length": L}
    {"generator": "grid", "rows": r, "cols": c}
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Callable, Mapping

from .environment import (
    DirichletEnv,
    EmpiricalEnv,
    PointMassEnv,
    PolynomialDirichletEnv,
    VertexEnvLaw,
)
from .errors import ConfigError, UrnwalkError
from .laws import (
    DirichletLaw,
    PolynomialDirichletLaw,
    ReinforcementLaw,
    SimplexPoint,
    TabulatedLaw,
    UniformLaw,
)
from .walk import Graph, cycle_graph, grid_graph, segment_graph, star_graph

SCHEMA_VERSION = 1


def load_config(path: str | Path) -> dict:
    """Read and minimally validate a config file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    if cfg.get("schema") != SCHEMA_VERSION:
        raise ConfigError(
            f"config schema must be {SCHEMA_VERSION}, got {cfg.get('schema')!r}"
        )
    return cfg


def config_hash(cfg: Mapping[str, Any]) -> str:
    """SHA-256 of the canonical JSON encoding of the effective config."""
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()


def _require(spec: Mapping, key: str, context: str) -> Any:
    if key not in spec:
        raise ConfigError(f"{context}: missing required key {key!r}")
    return spec[key]


def config_int(value: Any, name: str, minimum: int | None = None) -> int:
    """An integer config field: an int, or a float with an integral value.

    Rejects bools (a subclass of int), fractional or non-finite floats and
    strings, which ``int()`` would accept or silently truncate, and values
    below ``minimum`` when one is given.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value!r}")
    return int(value)


def _coefficients_from_spec(entries: Any, context: str) -> dict[tuple[int, ...], float]:
    if not isinstance(entries, list) or not entries:
        raise ConfigError(f"{context}: coefficients must be a non-empty array")
    out: dict[tuple[int, ...], float] = {}
    for item in entries:
        if not isinstance(item, Mapping):
            raise ConfigError(f"{context}: coefficient entries must be objects")
        index = tuple(int(v) for v in _require(item, "index", context))
        out[index] = float(_require(item, "value", context))
    return out


def law_from_spec(spec: Mapping, dimension: int | None = None) -> ReinforcementLaw:
    """Build a reinforcement law from its config sub-schema.

    ``dimension`` supplies the vertex degree for families that do not encode
    it themselves (uniform); families that do are checked against it.
    """
    if not isinstance(spec, Mapping):
        raise ConfigError("law spec must be an object")
    family = _require(spec, "family", "law spec")
    try:
        if family == "uniform":
            dim = spec.get("dimension", dimension)
            if dim is None:
                raise ConfigError("uniform law needs a 'dimension' (or a vertex context)")
            law: ReinforcementLaw = UniformLaw(int(dim))
        elif family == "dirichlet":
            law = DirichletLaw([float(a) for a in _require(spec, "alpha", "dirichlet law")])
        elif family == "polynomial_dirichlet":
            law = PolynomialDirichletLaw(
                [float(a) for a in _require(spec, "alpha", "polynomial law")],
                int(_require(spec, "degree", "polynomial law")),
                _coefficients_from_spec(
                    _require(spec, "coefficients", "polynomial law"), "polynomial law"
                ),
            )
        elif family == "tabulated":
            entries = _require(spec, "entries", "tabulated law")
            table = {}
            for item in entries:
                counts = tuple(int(v) for v in _require(item, "counts", "tabulated entry"))
                weights = SimplexPoint(
                    tuple(float(w) for w in _require(item, "weights", "tabulated entry"))
                )
                table[counts] = weights
            law = TabulatedLaw(
                int(_require(spec, "box", "tabulated law")),
                table,
                spec.get("fallback", "reject"),
            )
        else:
            raise ConfigError(f"unknown law family {family!r}")
    except ConfigError:
        raise
    except (ValueError, UrnwalkError) as exc:
        raise ConfigError(f"invalid {family} law spec: {exc}") from exc
    if dimension is not None and law.dimension != dimension:
        raise ConfigError(
            f"law of family {family!r} has dimension {law.dimension}, expected {dimension}"
        )
    return law


def env_from_spec(spec: Mapping, dimension: int | None = None) -> VertexEnvLaw:
    """Build an environment law from its config sub-schema."""
    if not isinstance(spec, Mapping):
        raise ConfigError("environment spec must be an object")
    family = _require(spec, "family", "environment spec")
    try:
        if family == "dirichlet":
            env: VertexEnvLaw = DirichletEnv(
                [float(a) for a in _require(spec, "alpha", "dirichlet environment")]
            )
        elif family == "polynomial_dirichlet":
            env = PolynomialDirichletEnv(
                [float(a) for a in _require(spec, "alpha", "polynomial environment")],
                int(_require(spec, "degree", "polynomial environment")),
                _coefficients_from_spec(
                    _require(spec, "coefficients", "polynomial environment"),
                    "polynomial environment",
                ),
            )
        elif family == "point_mass":
            env = PointMassEnv(
                SimplexPoint(
                    tuple(float(w) for w in _require(spec, "weights", "point mass"))
                )
            )
        elif family == "empirical":
            atoms = []
            for item in _require(spec, "atoms", "empirical environment"):
                atoms.append(
                    (
                        float(_require(item, "weight", "empirical atom")),
                        SimplexPoint(
                            tuple(float(w) for w in _require(item, "weights", "empirical atom"))
                        ),
                    )
                )
            env = EmpiricalEnv(atoms)
        else:
            raise ConfigError(f"unknown environment family {family!r}")
    except ConfigError:
        raise
    except (ValueError, UrnwalkError) as exc:
        raise ConfigError(f"invalid {family} environment spec: {exc}") from exc
    if dimension is not None and env.dimension != dimension:
        raise ConfigError(
            f"environment of family {family!r} has dimension {env.dimension}, "
            f"expected {dimension}"
        )
    return env


def graph_from_spec(spec: Mapping) -> Graph:
    """Build a graph from explicit adjacency or a named generator."""
    if not isinstance(spec, Mapping):
        raise ConfigError("graph spec must be an object")
    try:
        if "generator" in spec:
            name = spec["generator"]
            if name == "segment":
                return segment_graph(int(_require(spec, "length", "segment generator")))
            if name == "star":
                return star_graph(int(_require(spec, "leaves", "star generator")))
            if name == "cycle":
                return cycle_graph(int(_require(spec, "length", "cycle generator")))
            if name == "grid":
                return grid_graph(
                    int(_require(spec, "rows", "grid generator")),
                    int(_require(spec, "cols", "grid generator")),
                )
            raise ConfigError(f"unknown graph generator {name!r}")
        adjacency = _require(spec, "adjacency", "graph spec")
        n = int(_require(spec, "vertices", "graph spec"))
        if len(adjacency) != n:
            raise ConfigError(
                f"graph spec declares {n} vertices but adjacency has {len(adjacency)} rows"
            )
        return Graph(tuple(tuple(int(v) for v in row) for row in adjacency))
    except ConfigError:
        raise
    except (ValueError, UrnwalkError) as exc:
        raise ConfigError(f"invalid graph spec: {exc}") from exc


def resolve_per_vertex(
    graph: Graph,
    section: Mapping,
    builder: Callable[[Mapping, int], Any],
    what: str,
) -> dict[int, Any]:
    """Resolve a {"default":..., "per_vertex": {...}} section over a graph."""
    if not isinstance(section, Mapping):
        raise ConfigError(f"{what} section must be an object")
    default = section.get("default")
    per_vertex = section.get("per_vertex", {})
    if not isinstance(per_vertex, Mapping):
        raise ConfigError(f"{what}.per_vertex must be an object keyed by vertex id")
    overrides: dict[int, Mapping] = {}
    for key, sub in per_vertex.items():
        try:
            x = int(key)
        except ValueError:
            raise ConfigError(f"{what}.per_vertex key {key!r} is not a vertex id") from None
        if not (0 <= x < graph.vertex_count):
            raise ConfigError(f"{what}.per_vertex names unknown vertex {x}")
        overrides[x] = sub
    out: dict[int, Any] = {}
    for x in range(graph.vertex_count):
        spec = overrides.get(x, default)
        if spec is None:
            raise ConfigError(f"vertex {x} has no {what} spec and no default is given")
        out[x] = builder(spec, graph.degree(x))
    return out
