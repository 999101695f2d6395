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

Field rules.  An integer (``dimension``, ``degree``, ``box``, a count, an
index entry, a graph size or a neighbour) is a JSON integer or a float with
an integral value.  A number (``alpha`` and ``weights`` entries, a
coefficient ``value``, an atom ``weight``) is a finite JSON number; ``NaN``
and ``Infinity``, which Python's ``json`` reads, are not.  Neither is ever a
bool, a string or ``null``.  An array is a JSON array of such values, and a
``weights`` array must be a point of the simplex.  A vertex id key (of
``per_vertex`` or an ``assignment`` object) is the vertex number in plain
decimal, ``"0"``, ``"1"``, ..., with no sign, spaces, underscores or
leading zeros, so two keys never name one vertex.  A malformed field raises
:class:`ConfigError` naming it, so the CLI always exits 2 on it.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
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
    if isinstance(cfg.get("schema"), bool) or cfg.get("schema") != SCHEMA_VERSION:
        raise ConfigError(
            f"config schema must be {SCHEMA_VERSION}, got {cfg.get('schema')!r}"
        )
    return cfg


def config_hash(cfg: Mapping[str, Any]) -> str:
    """SHA-256 of the canonical JSON encoding of the effective config."""
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()


def _require(spec: Any, key: str, context: str) -> Any:
    if not isinstance(spec, Mapping):
        raise ConfigError(f"{context} must be an object, got {spec!r}")
    if key not in spec:
        raise ConfigError(f"{context}: missing required key {key!r}")
    return spec[key]


def config_number(value: Any, name: str, minimum: float | None = None) -> float:
    """A finite number config field: not a bool, a string, null, NaN or Infinity."""
    # NaN fails the comparison, and so does an int too large for a float
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
        -sys.float_info.max <= value <= sys.float_info.max
    ):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value!r}")
    return float(value)


def config_int(value: Any, name: str, minimum: int | None = None) -> int:
    """An integer config field: a :func:`config_number` with an integral value."""
    if not config_number(value, name, minimum).is_integer():
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def config_array(value: Any, name: str, read: Callable[[Any, str], Any] = config_number) -> list:
    """A JSON array whose every element is read by ``read``: finite numbers by default."""
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be an array, got {value!r}")
    return [read(item, f"{name}[{i}]") for i, item in enumerate(value)]


def config_point(value: Any, name: str) -> SimplexPoint:
    """A point of the simplex: an array of finite numbers in (0, 1] that sum to 1."""
    try:
        return SimplexPoint(tuple(config_array(value, name)))
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def _field(spec: Any, key: str, context: str, read: Callable = config_number, *args: Any) -> Any:
    """``spec[key]``, read by ``read`` under the name ``<context>.<key>``."""
    return read(_require(spec, key, context), f"{context}.{key}", *args)


def _ints(value: Any, name: str) -> tuple[int, ...]:
    return tuple(config_array(value, name, config_int))


def _coefficient(item: Any, name: str) -> tuple[tuple[int, ...], float]:
    return _field(item, "index", name, _ints), _field(item, "value", name)


def _table_entry(item: Any, name: str) -> tuple[tuple[int, ...], SimplexPoint]:
    return _field(item, "counts", name, _ints), _field(item, "weights", name, config_point)


def _atom(item: Any, name: str) -> tuple[float, SimplexPoint]:
    return _field(item, "weight", name), _field(item, "weights", name, config_point)


# (spec, "law" or "environment", vertex degree) -> the family constructor's arguments
def _uniform_args(spec: Mapping, what: str, dimension: int | None) -> tuple:
    if "dimension" in spec:
        dimension = config_int(spec["dimension"], f"{what}.dimension")
    if dimension is None:
        raise ConfigError("a 'dimension' is needed outside a vertex context")
    return (dimension,)


def _dirichlet_args(spec: Mapping, what: str, dimension: int | None) -> tuple:
    return (_field(spec, "alpha", what, config_array),)


def _polynomial_args(spec: Mapping, what: str, dimension: int | None) -> tuple:
    return (
        _field(spec, "alpha", what, config_array),
        _field(spec, "degree", what, config_int),
        dict(_field(spec, "coefficients", what, config_array, _coefficient)),
    )


def _tabulated_args(spec: Mapping, what: str, dimension: int | None) -> tuple:
    return (
        _field(spec, "box", what, config_int),
        dict(_field(spec, "entries", what, config_array, _table_entry)),
        spec.get("fallback", "reject"),
    )


def _point_mass_args(spec: Mapping, what: str, dimension: int | None) -> tuple:
    return (_field(spec, "weights", what, config_point),)


def _empirical_args(spec: Mapping, what: str, dimension: int | None) -> tuple:
    return (_field(spec, "atoms", what, config_array, _atom),)


_LAW_FAMILIES: dict[str, tuple[Callable[..., ReinforcementLaw], Callable[..., tuple]]] = {
    "uniform": (UniformLaw, _uniform_args),
    "dirichlet": (DirichletLaw, _dirichlet_args),
    "polynomial_dirichlet": (PolynomialDirichletLaw, _polynomial_args),
    "tabulated": (TabulatedLaw, _tabulated_args),
}

_ENV_FAMILIES: dict[str, tuple[Callable[..., VertexEnvLaw], Callable[..., tuple]]] = {
    "dirichlet": (DirichletEnv, _dirichlet_args),
    "polynomial_dirichlet": (PolynomialDirichletEnv, _polynomial_args),
    "point_mass": (PointMassEnv, _point_mass_args),
    "empirical": (EmpiricalEnv, _empirical_args),
}

#: Generator name -> (graph builder, its integer size fields in argument order).
_GRAPH_GENERATORS: dict[str, tuple[Callable[..., Graph], tuple[str, ...]]] = {
    "segment": (segment_graph, ("length",)),
    "star": (star_graph, ("leaves",)),
    "cycle": (cycle_graph, ("length",)),
    "grid": (grid_graph, ("rows", "cols")),
}


def _from_spec(spec: Any, dimension: int | None, families: Mapping, what: str) -> Any:
    """Build the member of ``families`` that ``spec`` names, of ``dimension`` if given."""
    family = _require(spec, "family", f"{what} spec")
    if not isinstance(family, str) or family not in families:
        raise ConfigError(f"unknown {what} family {family!r}")
    build, parse_args = families[family]
    try:
        built = build(*parse_args(spec, what, dimension))
    except (ValueError, UrnwalkError) as exc:
        raise ConfigError(f"invalid {family} {what} spec: {exc}") from exc
    if dimension is not None and built.dimension != dimension:
        raise ConfigError(
            f"{what} of family {family!r} has dimension {built.dimension}, expected {dimension}"
        )
    return built


def law_from_spec(spec: Mapping, dimension: int | None = None) -> ReinforcementLaw:
    """Build a reinforcement law from its config sub-schema.

    ``dimension`` supplies the vertex degree for families that do not encode
    it themselves (uniform); families that do are checked against it.
    """
    return _from_spec(spec, dimension, _LAW_FAMILIES, "law")


def env_from_spec(spec: Mapping, dimension: int | None = None) -> VertexEnvLaw:
    """Build an environment law from its config sub-schema."""
    return _from_spec(spec, dimension, _ENV_FAMILIES, "environment")


def graph_from_spec(spec: Mapping) -> Graph:
    """Build a graph from explicit adjacency or a named generator."""
    if not isinstance(spec, Mapping):
        raise ConfigError("graph spec must be an object")
    try:
        if "generator" in spec:
            name = spec["generator"]
            if not isinstance(name, str) or name not in _GRAPH_GENERATORS:
                raise ConfigError(f"unknown graph generator {name!r}")
            build, sizes = _GRAPH_GENERATORS[name]
            return build(*(_field(spec, key, "graph", config_int) for key in sizes))
        adjacency = _field(spec, "adjacency", "graph", config_array, _ints)
        n = _field(spec, "vertices", "graph", config_int)
        if len(adjacency) != n:
            raise ConfigError(
                f"graph spec declares {n} vertices but adjacency has {len(adjacency)} rows"
            )
        return Graph(tuple(adjacency))
    except (ValueError, UrnwalkError) as exc:
        raise ConfigError(f"invalid graph spec: {exc}") from exc


#: A vertex id as an object key: plain decimal, without sign or leading zeros.
_VERTEX_ID = re.compile(r"0|[1-9][0-9]*")


def _by_vertex(graph: Graph, items: Any, what: str) -> dict[int, Any]:
    """``items`` keyed by vertex id; every key must name a vertex of ``graph``."""
    if not isinstance(items, Mapping):
        raise ConfigError(f"{what} must be an object keyed by vertex id")
    out: dict[int, Any] = {}
    for key, value in items.items():
        if isinstance(key, str) and _VERTEX_ID.fullmatch(key):
            x = int(key)
        elif isinstance(key, int) and not isinstance(key, bool):
            x = key  # the position of a row in an assignment array
        else:
            raise ConfigError(f"{what} key {key!r} is not a vertex id")
        if not (0 <= x < graph.vertex_count):
            raise ConfigError(f"{what} names unknown vertex {x}")
        out[x] = value
    return out


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
    overrides = _by_vertex(graph, section.get("per_vertex", {}), f"{what}.per_vertex")
    out: dict[int, Any] = {}
    for x in range(graph.vertex_count):
        spec = overrides.get(x, default)
        if spec is None:
            raise ConfigError(f"vertex {x} has no {what} spec and no default is given")
        out[x] = builder(spec, graph.degree(x))
    return out


def assignment_from_spec(graph: Graph, spec: Any) -> dict[int, SimplexPoint]:
    """A quenched run's fixed environment: a point per vertex, as an array or keyed by id."""
    points = _by_vertex(graph, dict(enumerate(spec)) if isinstance(spec, list) else spec,
                        "assignment")
    out = {}
    for x in range(graph.vertex_count):
        point = config_point(_require(points, x, "assignment"), f"assignment.{x}")
        if point.dim != graph.degree(x):
            raise ConfigError(f"assignment.{x}: {point.dim} weights at degree {graph.degree(x)}")
        out[x] = point
    return out
