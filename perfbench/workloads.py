"""Seeded workload generator: CLI operations with their expected verdicts.

A workload is a fixed list of operations.  The seed picks parameters
(Dirichlet alphas, polynomial coefficients, RNG seeds, start vertices,
output formats) but never sizes, so every seed asks for the same amount
of work and runs of different seeds can be compared.  Each operation is a
config file written to a scratch directory plus the argv handed to
``urnwalk.cli.main``; the checker in ``checks.py`` knows how to judge it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("sample", "certify", "exact")

#: Sizes per workload; "tiny" keeps every operation but shrinks it so the
#: smoke test runs in seconds.
SIZES = {
    "full": {
        "traj": (400, 100),          # trajectories, steps of the fast-law simulate runs
        "traj_poly": (40, 100),      # the polynomial law costs about 20x more per step
        "samples": 4000,             # empirical compare trajectories
        "emp_steps": (5, 5, 4),
        "admissibility": ((2, 8), (3, 7), (4, 8), (3, 6)),   # (dimension, box)
        "verify": ((2, 12), (3, 10), (4, 8)),                # (dimension, order)
        "recover": ((3, 12), (2, 10), (4, 8)),
        "exact": (("star", 12), ("star_law", 12), ("segment", 12), ("grid", 8)),
        "derive": ((2, 12), (3, 10), (4, 8)),                # (dimension, box)
    },
    "tiny": {
        "traj": (10, 10),
        "traj_poly": (10, 10),
        "samples": 100,
        "emp_steps": (2, 2, 2),
        "admissibility": ((2, 3), (3, 2), (4, 2), (3, 2)),
        "verify": ((2, 3), (3, 2), (4, 2)),
        "recover": ((3, 2), (2, 3), (4, 2)),
        "exact": (("star", 3), ("star_law", 3), ("segment", 3), ("grid", 3)),
        "derive": ((2, 3), (3, 2), (4, 2)),
    },
}

#: Empirical compares use a quantile this close to 1 so that a correct
#: sampler almost never fails the chi-square gate by chance.
EMPIRICAL_QUANTILE = 0.999999

WITNESS_LAW = {
    "family": "tabulated",
    "box": 1,
    "entries": [
        {"counts": [0, 0], "weights": [0.5, 0.5]},
        {"counts": [1, 0], "weights": [0.9, 0.1]},
        {"counts": [0, 1], "weights": [0.5, 0.5]},
        {"counts": [1, 1], "weights": [0.5, 0.5]},
    ],
}


@dataclass
class Op:
    """One CLI call: its metric key, argv, expected exit code and what to check."""

    key: str                 # cmd_s.<key>: simulate, compare_empirical, ...
    label: str               # what and how big, for the per-operation report
    argv: list[str]
    out: Path
    expected_exit: int
    cfg: dict
    facts: dict = field(default_factory=dict)   # what the checker needs to know


def adjacency(spec: dict) -> list[list[int]]:
    """Neighbour lists of a generated graph, built independently of urnwalk."""
    gen = spec["generator"]
    if gen == "cycle":
        n = spec["length"]
        return [[(x - 1) % n, (x + 1) % n] for x in range(n)]
    if gen == "segment":
        n = spec["length"]
        return [[y for y in (x - 1, x + 1) if 0 <= y < n] for x in range(n)]
    if gen == "star":
        m = spec["leaves"]
        return [list(range(1, m + 1))] + [[0] for _ in range(m)]
    if gen == "grid":
        r, c = spec["rows"], spec["cols"]
        out = []
        for i in range(r):
            for j in range(c):
                nb = [(i + di) * c + (j + dj) for di, dj in ((-1, 0), (0, -1), (0, 1), (1, 0))
                      if 0 <= i + di < r and 0 <= j + dj < c]
                out.append(sorted(nb))
        return out
    raise ValueError(f"unknown generator {gen!r}")


def graph_name(spec: dict) -> str:
    if spec["generator"] == "grid":
        return f"grid-{spec['rows']}x{spec['cols']}"
    return f"{spec['generator']}-{spec.get('length', spec.get('leaves'))}"


def _alpha(rng: random.Random, d: int) -> list[float]:
    return [round(rng.uniform(0.5, 3.0), 3) for _ in range(d)]


def dirichlet(rng: random.Random, d: int) -> dict:
    return {"family": "dirichlet", "alpha": _alpha(rng, d)}


def polynomial(rng: random.Random, d: int) -> dict:
    """Degree-2 polynomial-Dirichlet spec; the seed picks alpha and coefficient values.

    The monomials are fixed so that every seed costs the same.  A vertex
    with one move has only the constant law, so it gets the Dirichlet spec:
    the one-move polynomial family induces weights that round to just above
    1, which the sampler rejects (exit code 3).
    """
    if d == 1:
        return dirichlet(rng, d)
    indices = sorted({tuple(2 if i == 0 else 0 for i in range(d)),
                      tuple(2 if i == d - 1 else 0 for i in range(d)),
                      tuple(1 if i in (0, 1) else 0 for i in range(d))})
    coefficients = [{"index": list(k), "value": round(rng.uniform(0.5, 2.0), 3)}
                    for k in indices]
    return {"family": "polynomial_dirichlet", "alpha": _alpha(rng, d), "degree": 2,
            "coefficients": coefficients}


def uniform(rng: random.Random, d: int) -> dict:
    return {"family": "uniform", "dimension": d}


def matching_env(law: dict) -> dict | None:
    """Environment whose induced law is ``law``, or None when there is none."""
    family = law["family"]
    if family in ("dirichlet", "polynomial_dirichlet"):
        return {k: v for k, v in law.items() if k != "dimension"}
    if family == "uniform":
        d = law["dimension"]
        return {"family": "point_mass", "weights": [1.0 / d] * d}
    return None


def per_vertex(graph: dict, make, rng: random.Random) -> dict:
    """A laws/envs section with one seeded spec per vertex, sized by degree."""
    return {"per_vertex": {str(x): make(rng, len(nb))
                           for x, nb in enumerate(adjacency(graph))}}


class _Builder:
    def __init__(self, workdir: Path, rng: random.Random):
        self.workdir = workdir
        self.rng = rng
        self.ops: list[Op] = []

    def add(self, key: str, label: str, command: str, cfg: dict, expected_exit: int = 0,
            extra: tuple[str, ...] = (), **facts) -> None:
        n = len(self.ops)
        fmt = ("csv", "json")[(n + self.rng.getrandbits(1)) % 2]
        out = self.workdir / f"op{n:02d}.{fmt}"
        cfg = {"schema": 1, **cfg, "output": {"path": str(out), "format": fmt}}
        path = self.workdir / f"op{n:02d}.config.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        argv = [command, "--config", str(path), *extra]
        self.ops.append(Op(key, label, argv, out, expected_exit, cfg, facts))


def _sample(b: _Builder, size: dict) -> None:
    rng = b.rng
    traj, steps = size["traj"]
    traj_p, steps_p = size["traj_poly"]
    cycle = {"generator": "cycle", "length": 20}
    grid = {"generator": "grid", "rows": 3, "cols": 4}
    star = {"generator": "star", "leaves": 5}

    def simulate(graph, mode, make, count, n_steps, **operation):
        cfg = {"graph": graph, "seed": rng.getrandbits(32),
               "operation": {"mode": mode, "steps": n_steps, "trajectories": count,
                             "start": rng.randrange(len(adjacency(graph))), **operation},
               "laws" if mode == "reinforced" else "envs": per_vertex(graph, make, rng)}
        b.add("simulate", f"{mode} {make.__name__} {graph_name(graph)} {count}x{n_steps}",
              "simulate", cfg, graph=graph)

    simulate(cycle, "reinforced", dirichlet, traj, steps)
    simulate(grid, "reinforced", polynomial, traj_p, steps_p)
    simulate(star, "reinforced", uniform, traj, steps)
    simulate(cycle, "annealed", dirichlet, traj, steps)
    simulate(grid, "annealed", polynomial, traj, steps)
    simulate(star, "quenched", dirichlet, traj, steps, env_seed=rng.getrandbits(32))

    empirical = (
        ({"generator": "star", "leaves": 3}, polynomial),
        ({"generator": "segment", "length": 5}, dirichlet),
        ({"generator": "cycle", "length": 4}, dirichlet),
    )
    for (graph, make), n_steps in zip(empirical, size["emp_steps"]):
        cfg = {"graph": graph, "envs": per_vertex(graph, make, rng),
               "seed": rng.getrandbits(32),
               "operation": {"mode": "empirical", "steps": n_steps, "start": 0,
                             "samples": size["samples"], "quantile": EMPIRICAL_QUANTILE}}
        b.add("compare_empirical",
              f"empirical {graph_name(graph)} T={n_steps} {size['samples']} samples",
              "compare", cfg, samples=size["samples"])


def _certify(b: _Builder, size: dict) -> None:
    rng = b.rng
    families = (dirichlet, polynomial, dirichlet, uniform)
    for make, (d, box) in zip(families, size["admissibility"]):
        law = make(rng, d)
        b.add("check_admissibility", f"{law['family']} d={d} box {box}", "check-admissibility",
              {"law": law, "operation": {"box": box}}, admissible=True)
    b.add("check_admissibility", "tabulated witness box 1, must fail", "check-admissibility",
          {"law": WITNESS_LAW, "operation": {"box": 1}}, expected_exit=1, admissible=False)

    for make, (d, order) in zip((dirichlet, polynomial, dirichlet), size["verify"]):
        law = make(rng, d)
        b.add("verify_moments", f"{law['family']} d={d} order {order}", "verify-moments",
              {"law": law, "operation": {"order": order}}, env=matching_env(law), order=order)
    order = size["verify"][0][1]
    b.add("verify_moments", f"dirichlet d=2 order {order} corrupt 1,0=1.5, must fail",
          "verify-moments", {"law": dirichlet(rng, 2), "operation": {"order": order}},
          expected_exit=1, extra=("--corrupt-entry", "1,0=1.5"), env=None)

    for make, (d, order) in zip((dirichlet, polynomial, uniform), size["recover"]):
        law = make(rng, d)
        b.add("recover_moments", f"{law['family']} d={d} order {order}", "recover-moments",
              {"law": law, "operation": {"order": order}}, env=matching_env(law), order=order)


def _exact(b: _Builder, size: dict) -> None:
    rng = b.rng
    graphs = {
        "star": {"generator": "star", "leaves": 3},
        "star_law": {"generator": "star", "leaves": 3},
        "segment": {"generator": "segment", "length": 5},
        "grid": {"generator": "grid", "rows": 3, "cols": 3},
    }
    for kind, steps in size["exact"]:
        graph = graphs[kind]
        make = polynomial if kind.startswith("star") else dirichlet
        envs = per_vertex(graph, make, rng)
        cfg = {"graph": graph, "envs": envs,
               "operation": {"mode": "exact", "steps": steps, "start": 0}}
        if kind == "star_law":
            # closed-form laws (same schema) instead of the induced moment-ratio law
            cfg["laws"] = envs
        label = f"{graph_name(graph)} T={steps} {'closed-form' if 'laws' in cfg else 'induced'} laws"
        b.add("compare_exact", label, "compare", cfg)

    for make, (d, box) in zip((dirichlet, polynomial, dirichlet), size["derive"]):
        env = make(rng, d)
        b.add("derive_law", f"{env['family']} d={d} box {box}", "derive-law",
              {"env": env, "operation": {"box": box}},
              env=env, box=box, probe_seed=rng.getrandbits(32))


_BUILDERS = {"sample": _sample, "certify": _certify, "exact": _exact}


def generate(workload: str, seed: int, scale: str, workdir: Path) -> list[Op]:
    """Write the workload's configs under ``workdir`` and return its operations."""
    b = _Builder(workdir, random.Random(f"{workload}:{seed}"))
    _BUILDERS[workload](b, SIZES[scale])
    return b.ops
