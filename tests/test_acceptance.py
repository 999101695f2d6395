"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on a passing run.
"""

import json
import math
import time
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2

import urnwalk as uw
from oracles import path_product, quadrature_moment, random_monotone_path
from urnwalk.cli import main as cli_main
from urnwalk.moments import ball_indices

ADMISSIBILITY_TOL = 1e-10
HS_TOL = 1e-10
TV_TOL = 1e-10
ORACLE_TOL = 1e-5


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num:02d} {name}{suffix}")


def derived_env_cases() -> dict[str, uw.VertexEnvLaw]:
    """Environments whose induced laws criteria 1 and 2 certify."""
    return {
        "dirichlet_1_1": uw.DirichletEnv([1.0, 1.0]),
        "dirichlet_2_3": uw.DirichletEnv([2.0, 3.0]),
        "dirichlet_h_h_2": uw.DirichletEnv([0.5, 0.5, 2.0]),
        "poly_linear_2d": uw.PolynomialDirichletEnv([1.0, 1.0], 1, {(1, 0): 1.0}),
        "poly_quadratic_3d": uw.PolynomialDirichletEnv(
            [0.5, 1.0, 2.0], 2, {(2, 0, 0): 1.0, (1, 1, 0): 2.0, (0, 0, 2): 0.5}
        ),
    }


def equivalence_cases():
    """Graphs with mixed per-vertex environments for the exact comparison."""
    poly_2d = uw.PolynomialDirichletEnv([1.0, 1.0], 1, {(1, 0): 1.0})
    poly_3d = uw.PolynomialDirichletEnv(
        [0.5, 1.0, 2.0], 2, {(2, 0, 0): 1.0, (1, 1, 0): 2.0, (0, 0, 2): 0.5}
    )
    forced = uw.PointMassEnv((1.0,))
    return [
        (
            "star-2",
            uw.star_graph(2),
            {0: uw.DirichletEnv([1.0, 1.0]), 1: forced, 2: uw.DirichletEnv([2.0])},
            0,
            8,
        ),
        (
            "star-3-poly",
            uw.star_graph(3),
            {0: poly_3d, 1: forced, 2: forced, 3: forced},
            0,
            8,
        ),
        (
            "star-3-half",
            uw.star_graph(3),
            {0: uw.DirichletEnv([0.5, 0.5, 2.0]), 1: forced, 2: forced, 3: forced},
            0,
            8,
        ),
        (
            "segment-3",
            uw.segment_graph(3),
            {0: forced, 1: poly_2d, 2: forced},
            1,
            8,
        ),
        (
            "triangle",
            uw.cycle_graph(3),
            {0: uw.DirichletEnv([2.0, 3.0]), 1: poly_2d, 2: uw.PointMassEnv((0.3, 0.7))},
            0,
            8,
        ),
        (
            "grid-2x2",
            uw.grid_graph(2, 2),
            {
                0: uw.DirichletEnv([1.0, 1.0]),
                1: uw.DirichletEnv([2.0, 3.0]),
                2: poly_2d,
                3: uw.PointMassEnv((0.5, 0.5)),
            },
            0,
            8,
        ),
    ]


def test_criterion_01_derived_laws_are_admissible():
    start = time.perf_counter()
    failures = []
    for name, env in derived_env_cases().items():
        report = uw.check_admissible(uw.law_from_env(env), 8, ADMISSIBILITY_TOL)
        if not report.admissible:
            failures.append((name, len(report.violations)))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 5.0
    _report(1, "derived laws admissible on box 8", ok, f"{elapsed:.2f}s")
    assert not failures, failures
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"


def test_criterion_02_path_independence():
    rng = np.random.default_rng(20260810)
    worst = 0.0
    for name, env in derived_env_cases().items():
        law = uw.law_from_env(env)
        d = law.dimension
        for _ in range(100):
            total = int(rng.integers(0, 11))
            endpoint = tuple(int(v) for v in rng.multinomial(total, [1.0 / d] * d))
            first = path_product(law, random_monotone_path(endpoint, rng))
            second = path_product(law, random_monotone_path(endpoint, rng))
            worst = max(worst, abs(first - second))
    ok = worst <= 1e-10
    _report(2, "path products depend only on the endpoint", ok, f"worst gap {worst:.2e}")
    assert ok, f"worst log gap {worst:.3e}"


def test_criterion_03_positivity_certification(law_map):
    start = time.perf_counter()
    failures = []
    worst = math.inf
    for name, law in law_map.items():
        order = 10 if law.dimension <= 3 else 8
        table = uw.build_moment_table(law, order)
        report = uw.hildebrandt_schoenberg_check(table, HS_TOL)
        worst = min(worst, report.max_negativity)
        if not report.passed or report.max_negativity < -1e-10:
            failures.append((name, report.max_negativity))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 30.0
    _report(3, "moment positivity scan", ok, f"min signed diff {worst:.2e}, {elapsed:.2f}s")
    assert not failures, failures
    assert elapsed < 30.0, f"took {elapsed:.2f}s, budget 30s"


def test_criterion_04_simplex_mass_identity(law_map):
    worst = 0.0
    for name, law in law_map.items():
        table = uw.build_moment_table(law, 12)
        for n in range(13):
            worst = max(worst, abs(uw.simplex_mass(table, n) - 1.0))
    ok = worst <= 1e-10
    _report(4, "simplex mass identity to degree 12", ok, f"worst deviation {worst:.2e}")
    assert ok, f"worst |mass - 1| = {worst:.3e}"


def test_criterion_05_exact_theorem_equivalence():
    start = time.perf_counter()
    failures = []
    for name, graph, envs, x0, steps in equivalence_cases():
        laws = {x: uw.law_from_env(env) for x, env in envs.items()}
        reinforced = uw.enumerate_reinforced(graph, laws, x0, steps)
        annealed = uw.enumerate_annealed(graph, envs, x0, steps)
        for dist in (reinforced, annealed):
            total = math.fsum(dist.probabilities.values())
            if abs(total - 1.0) > 1e-10:
                failures.append((name, "sum", total))
        report = uw.compare_distributions(reinforced, annealed)
        log_gap = max(
            abs(reinforced.log_probs[t] - annealed.log_probs[t])
            for t in reinforced.log_probs
        )
        if report.total_variation > TV_TOL or log_gap > 1e-10:
            failures.append((name, report.total_variation, log_gap))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    _report(5, "reinforced law equals annealed law (T=8)", ok, f"{elapsed:.2f}s")
    assert not failures, failures
    assert elapsed < 60.0, f"took {elapsed:.2f}s, budget 60s"


def test_criterion_06_uniqueness_round_trip(env_map):
    worst = 0.0
    for name, env in env_map.items():
        table = uw.recover_env_moments(uw.law_from_env(env), 8)
        for k in ball_indices(env.dimension, 8):
            exact = env.mixed_moment(k)
            worst = max(worst, abs(table.value(k) - exact) / exact)
    ok = worst <= 1e-10
    _report(6, "recovered moments equal environment moments", ok, f"worst rel {worst:.2e}")
    assert ok, f"worst relative gap {worst:.3e}"


def test_criterion_07_closed_forms_match_quadrature(env_map):
    density_envs = [
        "dirichlet_1_1",
        "dirichlet_2_3",
        "dirichlet_h_h_2",
        "poly_linear_2d",
        "poly_quadratic_3d",
    ]
    worst = 0.0
    for name in density_envs:
        env = env_map[name]
        for k in product(range(7), repeat=env.dimension):
            if sum(k) > 6:
                continue
            exact = env.mixed_moment(k)
            quad = quadrature_moment(env, k)
            worst = max(worst, abs(quad - exact) / exact)
    ok = worst <= ORACLE_TOL
    _report(7, "closed-form moments vs quadrature oracle", ok, f"worst rel {worst:.2e}")
    assert ok, f"worst relative gap {worst:.3e}"


def test_criterion_08_sampler_calibration():
    start = time.perf_counter()
    graph = uw.star_graph(2)
    laws = {0: uw.DirichletLaw([1.0, 1.0]), 1: uw.UniformLaw(1), 2: uw.UniformLaw(1)}
    envs = {0: uw.DirichletEnv([1.0, 1.0]), 1: uw.PointMassEnv((1.0,)), 2: uw.PointMassEnv((1.0,))}
    n = 100_000

    reinforced_ref = uw.enumerate_reinforced(graph, laws, 0, 5)
    reinforced_samples = [
        uw.run_reinforced(graph, laws, 0, 5, uw.make_stream(808, i)) for i in range(n)
    ]
    rep_r = uw.compare_empirical(reinforced_samples, reinforced_ref)
    stat_r, dof_r = rep_r.chi_square
    bound_r = chi2.ppf(0.999, dof_r)

    annealed_ref = uw.enumerate_annealed(graph, envs, 0, 5)
    annealed_samples = [
        uw.run_annealed(graph, envs, 0, 5, uw.make_stream(809, i)) for i in range(n)
    ]
    rep_a = uw.compare_empirical(annealed_samples, annealed_ref)
    stat_a, dof_a = rep_a.chi_square
    bound_a = chi2.ppf(0.999, dof_a)

    elapsed = time.perf_counter() - start
    ok = stat_r <= bound_r and stat_a <= bound_a and elapsed < 30.0
    _report(
        8,
        "sampler chi-square calibration",
        ok,
        f"reinforced {stat_r:.1f}/{bound_r:.1f}, annealed {stat_a:.1f}/{bound_a:.1f}, {elapsed:.1f}s",
    )
    assert stat_r <= bound_r, f"reinforced sampler chi2 {stat_r:.2f} > {bound_r:.2f}"
    assert stat_a <= bound_a, f"annealed sampler chi2 {stat_a:.2f} > {bound_a:.2f}"
    assert elapsed < 30.0, f"took {elapsed:.2f}s, budget 30s"


def test_criterion_09_negative_controls():
    witness = uw.tabulated_witness()
    report = uw.check_admissible(witness, 1, ADMISSIBILITY_TOL)
    documented_gap = math.log(0.05 / 0.25)
    gap_ok = (
        not report.admissible
        and len(report.violations) == 1
        and abs(report.violations[0].gap - documented_gap) < 1e-12
    )

    graph = uw.star_graph(2)
    laws = {0: uw.DirichletLaw([1.0, 1.0]), 1: uw.UniformLaw(1), 2: uw.UniformLaw(1)}
    envs = {0: uw.PointMassEnv((0.5, 0.5)), 1: uw.PointMassEnv((1.0,)), 2: uw.PointMassEnv((1.0,))}
    mismatch = uw.compare_distributions(
        uw.enumerate_reinforced(graph, laws, 0, 4),
        uw.enumerate_annealed(graph, envs, 0, 4),
    )
    tv_ok = mismatch.total_variation > 0.05

    ok = gap_ok and tv_ok
    _report(
        9,
        "negative controls",
        ok,
        f"witness gap {report.violations[0].gap:.4f}, mismatch TV {mismatch.total_variation:.4f}",
    )
    assert gap_ok, report
    assert tv_ok, mismatch


def test_criterion_10_byte_identical_reruns(tmp_path):
    simulate_cfg = {
        "schema": 1,
        "graph": {"generator": "star", "leaves": 2},
        "laws": {"default": {"family": "uniform"}, "per_vertex": {"0": {"family": "dirichlet", "alpha": [1.0, 1.0]}}},
        "seed": 77,
        "operation": {"mode": "reinforced", "steps": 5, "trajectories": 200},
        "output": {"format": "csv"},
    }
    compare_cfg = {
        "schema": 1,
        "graph": {"generator": "star", "leaves": 2},
        "envs": {"default": {"family": "point_mass", "weights": [1.0]}, "per_vertex": {"0": {"family": "dirichlet", "alpha": [1.0, 1.0]}}},
        "seed": 78,
        "operation": {"mode": "empirical", "steps": 3, "samples": 2000},
        "output": {"format": "json"},
    }
    observations = []
    for label, command, cfg, filename in (
        ("simulate", "simulate", simulate_cfg, "t.csv"),
        ("compare", "compare", compare_cfg, "c.json"),
    ):
        workdir = tmp_path / label
        workdir.mkdir()
        out = workdir / filename
        payload = json.loads(json.dumps(cfg))
        payload["output"]["path"] = str(out)
        cfg_path = workdir / "config.json"
        cfg_path.write_text(json.dumps(payload), encoding="utf-8")
        blobs = []
        for _ in range(2):
            assert cli_main([command, "--config", str(cfg_path)]) == 0
            blob = out.read_bytes()
            if filename.endswith(".csv"):
                blob += Path(str(out) + ".meta.json").read_bytes()
            blobs.append(blob)
        observations.append((label, blobs[0] == blobs[1]))
    ok = all(same for _, same in observations)
    _report(10, "same seed reruns are byte-identical", ok, str(observations))
    assert ok, observations
