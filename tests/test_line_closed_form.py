"""Long walks on the line against a closed form from outside the package.

On Z with i.i.d. environments, where the chance ``w`` of a step to the right
gives ``rho = (1 - w) / w`` with ``E rho < 1``, the annealed hitting time of
level n has ``E[T_n] = n (1 + E rho) / (1 - E rho)`` for every n (Solomon
1975, "Random walks in a random environment").  For ``w ~ Beta(a, b)``,
``E rho = b / (a - 1)``; ``T_n`` has finite variance where
``E rho^2 = b (b + 1) / ((a - 1)(a - 2)) < 1``.  In this package that is
``DirichletEnv([b, a])`` at each inner vertex of a segment, move 0 being
the step to the left, and by the paper's theorem the reinforced walk of
``DirichletLaw([b, a])`` has the same law.  With a = 4 and b = 1,
``E rho = 1/3``, ``E rho^2 = 1/3`` and ``E[T_n] / n = 2``.

The segment reflects at its left end, ``M`` vertices left of the start,
which moves ``E[T_n]`` by a term of order ``n (1/3)^M``: nothing at
``M = 60``.  Each check runs ``COUNT`` walks of ``T`` steps and bounds the
z-score of the mean of ``T_n / n`` by ``Z_BOUND``; on 30 seeds of each
sampler (lock step, 400 walks) the z-scores read from -2.1 to 2.0, and the
negative control's from -17.1 to -9.2.
"""

import csv
import json
import math

import numpy as np
import pytest

from urnwalk import walk
from urnwalk.cli import main
from urnwalk.environment import DirichletEnv
from urnwalk.laws import DirichletLaw, UniformLaw
from urnwalk.walk import (
    run_annealed,
    run_many_annealed,
    run_many_reinforced,
    run_reinforced,
    segment_graph,
    stream_generators,
)

#: Start ``M`` vertices from the left end, level ``N`` at the right end.
M, N = 60, 100
#: Steps per walk, within which every walk must reach level N (the mean is 200).
T = 1000
COUNT = 400
#: Two-sided bound on the z-score; about 6e-5 of false alarms per check for a normal mean.
Z_BOUND = 4.0

GRAPH = segment_graph(M + N + 1)

RUNS = {
    "reinforced": (run_reinforced, run_many_reinforced, DirichletLaw([1.0, 4.0]), UniformLaw(1)),
    "annealed": (run_annealed, run_many_annealed, DirichletEnv([1.0, 4.0]), DirichletEnv([1.0])),
}


def _maps(inner, end):
    return {x: end if x in (0, M + N) else inner for x in range(M + N + 1)}


def _hitting_z(paths, mean):
    """The z-score of the mean of ``T_n / n`` over the walks against ``mean``."""
    assert len(paths) == COUNT
    assert all(M + N in path for path in paths)  # no walk misses level N within T
    ratios = np.array([path.index(M + N) for path in paths]) / N
    return (ratios.mean() - mean) / (ratios.std(ddof=1) / math.sqrt(COUNT))


@pytest.mark.parametrize("mode", sorted(RUNS))
@pytest.mark.parametrize("runner, seed", [("per_stream", 2101), ("lock_step", 2102)])
def test_the_hitting_time_of_level_n_has_solomons_mean(mode, runner, seed):
    run, run_many, inner, end = RUNS[mode]
    maps = _maps(inner, end)
    assert walk.lockstep_pays(mode, GRAPH, maps, M, T, COUNT)
    if runner == "per_stream":
        paths = [run(GRAPH, maps, M, T, rng) for rng in stream_generators(seed, COUNT)]
    else:
        paths = list(run_many(GRAPH, maps, M, T, seed, COUNT))
    assert abs(_hitting_z(paths, 2.0)) < Z_BOUND


def test_a_law_off_the_closed_form_is_rejected():
    # a = 4.5 gives E[T_n] / n = 1.8, which the check against 2 must reject
    maps = _maps(DirichletLaw([1.0, 4.5]), UniformLaw(1))
    paths = list(run_many_reinforced(GRAPH, maps, M, T, 2103, COUNT))
    assert abs(_hitting_z(paths, 1.8)) < Z_BOUND
    assert _hitting_z(paths, 2.0) < -Z_BOUND


def test_simulate_writes_walks_with_solomons_mean(tmp_path):
    # the reinforced walk through the command line: the Dirichlet law inside,
    # uniform per-vertex laws at both ends; lockstep_pays picks lock step, and
    # seed 2104 reads z = -0.32 in about 0.4 s
    out, config = tmp_path / "walks.csv", tmp_path / "config.json"
    ends = {str(x): {"family": "uniform"} for x in (0, M + N)}
    config.write_text(json.dumps({
        "schema": 1,
        "graph": {"generator": "segment", "length": M + N + 1},
        "laws": {"default": {"family": "dirichlet", "alpha": [1.0, 4.0]}, "per_vertex": ends},
        "seed": 2104,
        "operation": {"mode": "reinforced", "steps": T, "trajectories": COUNT, "start": M},
        "output": {"path": str(out), "format": "csv"},
    }))
    assert main(["simulate", "--config", str(config)]) == 0
    with out.open(newline="") as f:
        header, *rows = csv.reader(f)
    assert header == [f"v{t}" for t in range(T + 1)]
    assert abs(_hitting_z([list(map(int, row)) for row in rows], 2.0)) < Z_BOUND
