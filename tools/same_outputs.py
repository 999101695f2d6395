"""Digest the outputs of the benchmark's operations and of fixed failure paths, to compare trees.

    python3 tools/same_outputs.py --out mine.txt                  # this tree's src/
    python3 tools/same_outputs.py --src OTHER/src --out theirs.txt
    python3 tools/same_outputs.py --diff mine.txt theirs.txt
    python3 tools/same_outputs.py --against OTHER/src             # all three in one

Each operation that ``perfbench/workloads.py`` generates for the given
workloads and seeds, and each of the fixed :func:`failures` (configs that
exit 0 to 4, under the workload name ``failures``), runs twice through
``urnwalk.cli.main``, once with ``--format csv`` and once with ``--format
json``, in a fixed working directory: the output paths are part of each
config hash and summary line, so two runs compare only from the same
directory.  Each run gives one line: workload, seed, format, operation,
exit code, a SHA-256 over the exit code, every output file (the CSV's
metadata sidecar included), stdout and stderr, and the operation's label.
``--diff`` prints the lines that differ between two such files and exits 1
if any do.  ``--against`` digests ``--src`` and then the other tree, each in
its own interpreter and in the same working directory, and diffs the two.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FORMATS = ("csv", "json")


def failures() -> list[tuple]:
    """Fixed configs, as (label, command, config, extra argv...).  Failure paths:
    exit 1 from a gap met before a read outside the witness's box and from open
    squares that cancel along both staircases of the order-3 ball
    (``tests/open_squares_law.json``), 3 from a ``reject`` table walked past its
    box, 4 from exact compare's path budget, 2 from a config with no ``law``
    section.  Then two sampled runs that exit 0: an annealed walk whose tiny
    alpha raises environment weights to ``MIN_WEIGHT``, and a quenched walk
    whose ``env_seed`` is its ``seed``.  Last, so that the earlier ones keep
    their numbers: exit 1 from a Dirichlet(1, 1) table whose ``--corrupt-entry``
    overwrites keep every slice mass but miss the simplex identity, exit 0
    from an annealed walk whose every alpha is so tiny that every boosted log
    overflows, and exit 4 from derive-law over its count-vector limit.  Then
    two configs at tolerance 0 that exit 1 on rounding gaps whose bits depend on
    every law row read: a polynomial check-admissibility on box 4 (61
    violations, the first a gap of 4.44e-16 at the origin) and a Dirichlet
    verify-moments at order 4 (path products to (0, 0, 1, 2) disagree by
    8.882e-16).  Then a Dirichlet(1, 1) verify-moments at order 3 whose
    subnormal ``--corrupt-entry 2,0=5e-324`` puts a weight past the float
    range: exit 1 with identity defect ``inf`` (a tree that raises there
    differs on both of its lines, and one that writes the bare JSON token
    ``Infinity`` on both).  Last, an annealed walk of 80 trajectories on the
    4-cycle that ``walk.lockstep_pays`` sends to lock step, which no other
    config or tiny-scale operation reaches through the CLI: Dirichlet vertices
    with alpha below and above 1, one polynomial and one empirical vertex,
    exit 0.  Then four reinforced walks, each exit 0 unless stated: Dirichlet
    laws on the 20-cycle, 64 trajectories of 30 steps, which
    ``walk.lockstep_pays`` sends to lock step since the padded weight tables
    (per stream before them); a 7-star with a Dirichlet centre and uniform
    leaves, 80x6, which reads those tables; a Dirichlet 8-star, 80x6, too
    wide for them; and a 4-cycle whose alpha 1e-320 gives a weight below
    ``MIN_WEIGHT``, 80x4, exit 3.  Then two sampled walks, exit 0, below
    their mode's ``walk.LOCKSTEP_MIN_BLOCK``, so that ``walk.lockstep_pays``
    sends them per stream (``run_annealed``, and ``run_quenched`` with
    ``step_quenched``), which no workload operation reaches: an annealed walk
    of 15x6 on the 4-cycle with boosted Dirichlet (alpha 0.3, 1.7),
    polynomial and empirical vertices, and a quenched walk of 31x6 on the
    3-star whose ``env_seed`` differs from its ``seed``.  The lattice guards
    of check-admissibility, verify-moments and recover-moments are left out:
    under ``--against``, an older tree without them would run such a config
    in full."""
    from workloads import WITNESS_LAW

    open_squares = json.loads((ROOT / "tests" / "open_squares_law.json")
                              .read_text(encoding="utf-8"))
    return [
        ("witness order 3, gap before a read outside its box", "verify-moments",
         {"law": WITNESS_LAW, "operation": {"order": 3}}),
        ("witness order 3, gap before a read outside its box", "recover-moments",
         {"law": WITNESS_LAW, "operation": {"order": 3}}),
        ("open squares box 2", "check-admissibility",
         {"law": open_squares, "operation": {"box": 2}}),
        ("open squares order 3", "verify-moments", {"law": open_squares, "operation": {"order": 3}}),
        ("open squares order 3", "recover-moments", {"law": open_squares, "operation": {"order": 3}}),
        ("reject table walked past its box", "simulate",
         {"graph": {"generator": "star", "leaves": 2}, "seed": 1,
          "laws": {"default": {"family": "uniform"}, "per_vertex": {"0": WITNESS_LAW}},
          "operation": {"mode": "reinforced", "steps": 8, "trajectories": 1}}),
        ("exact compare over max_paths", "compare",
         {"graph": {"generator": "star", "leaves": 3},
          "envs": {"default": {"family": "point_mass", "weights": [1.0]},
                   "per_vertex": {"0": {"family": "dirichlet", "alpha": [1.0, 1.0, 1.0]}}},
          "operation": {"mode": "exact", "steps": 12, "max_paths": 10}}),
        ("no law section", "check-admissibility", {"operation": {"box": 2}}),
        ("tiny alpha at the centre, 40x6", "simulate",
         {"graph": {"generator": "star", "leaves": 3}, "seed": 2,
          "envs": {"default": {"family": "point_mass", "weights": [1.0]},
                   "per_vertex": {"0": {"family": "dirichlet", "alpha": [0.004, 0.004, 1.0]}}},
          "operation": {"mode": "annealed", "steps": 6, "trajectories": 40}}),
        ("env_seed equal to seed, 40x6", "simulate",
         {"graph": {"generator": "star", "leaves": 3}, "seed": 3,
          "envs": {"default": {"family": "point_mass", "weights": [1.0]},
                   "per_vertex": {"0": {"family": "dirichlet", "alpha": [0.5, 1.0, 2.0]}}},
          "operation": {"mode": "quenched", "steps": 6, "trajectories": 40, "env_seed": 3}}),
        ("dirichlet 1,1 order 3 off the simplex, every slice mass kept", "verify-moments",
         {"law": {"family": "dirichlet", "alpha": [1.0, 1.0]}, "operation": {"order": 3}},
         "--corrupt-entry", "1,0=0.501", "--corrupt-entry", "0,1=0.499"),
        ("every alpha tiny at the centre, 40x6", "simulate",
         {"graph": {"generator": "star", "leaves": 2}, "seed": 2,
          "envs": {"default": {"family": "point_mass", "weights": [1.0]},
                   "per_vertex": {"0": {"family": "dirichlet", "alpha": [1e-320, 1e-320]}}},
          "operation": {"mode": "annealed", "steps": 6, "trajectories": 40}}),
        ("derive-law over its count-vector limit", "derive-law",
         {"env": {"family": "dirichlet", "alpha": [1.0, 2.0, 3.0, 4.0]},
          "operation": {"box": 100}}),
        ("polynomial d=3 box 4 at tolerance 0, rounding gaps", "check-admissibility",
         {"law": {"family": "polynomial_dirichlet", "alpha": [0.7, 1.9, 2.6], "degree": 2,
                  "coefficients": [{"index": k, "value": 1.0}
                                   for k in ([2, 0, 0], [0, 0, 2], [1, 1, 0])]},
          "operation": {"box": 4, "tolerance": 0}}),
        ("dirichlet d=4 order 4 at tolerance 0, a rounding gap", "verify-moments",
         {"law": {"family": "dirichlet", "alpha": [0.7, 1.9, 2.6, 1.1]},
          "operation": {"order": 4, "tolerance": 0}}),
        ("dirichlet 1,1 order 3, a subnormal entry overflows a weight", "verify-moments",
         {"law": {"family": "dirichlet", "alpha": [1.0, 1.0]}, "operation": {"order": 3}},
         "--corrupt-entry", "2,0=5e-324"),
        ("mixed environments on the 4-cycle in lock step, 80x6", "simulate",
         {"graph": {"generator": "cycle", "length": 4}, "seed": 4,
          "envs": {"default": {"family": "dirichlet", "alpha": [0.3, 1.7]},
                   "per_vertex": {
                       "1": {"family": "polynomial_dirichlet", "alpha": [0.6, 2.0], "degree": 1,
                             "coefficients": [{"index": [1, 0], "value": 1.0},
                                              {"index": [0, 1], "value": 2.0}]},
                       "2": {"family": "empirical",
                             "atoms": [{"weight": 0.25, "weights": [0.2, 0.8]},
                                       {"weight": 0.75, "weights": [0.6, 0.4]}]},
                       "3": {"family": "dirichlet", "alpha": [1.5, 2.5]}}},
          "operation": {"mode": "annealed", "steps": 6, "trajectories": 80}}),
        ("dirichlet on the 20-cycle, 64x30", "simulate",
         {"graph": {"generator": "cycle", "length": 20}, "seed": 5,
          "laws": {"default": {"family": "dirichlet", "alpha": [0.8, 1.7]}},
          "operation": {"mode": "reinforced", "steps": 30, "trajectories": 64, "start": 3}}),
        ("7-star, dirichlet centre and uniform leaves, 80x6", "simulate",
         {"graph": {"generator": "star", "leaves": 7}, "seed": 6,
          "laws": {"default": {"family": "uniform"},
                   "per_vertex": {"0": {"family": "dirichlet",
                                        "alpha": [0.4, 1.1, 2.5, 0.9, 3.2, 1.6, 0.7]}}},
          "operation": {"mode": "reinforced", "steps": 6, "trajectories": 80}}),
        ("dirichlet 8-star, 80x6", "simulate",
         {"graph": {"generator": "star", "leaves": 8}, "seed": 7,
          "laws": {"default": {"family": "dirichlet", "alpha": [1.5]},
                   "per_vertex": {"0": {"family": "dirichlet",
                                        "alpha": [0.4, 1.1, 2.5, 0.9, 3.2, 1.6, 0.7, 2.0]}}},
          "operation": {"mode": "reinforced", "steps": 6, "trajectories": 80}}),
        ("subnormal alpha on the 4-cycle, 80x4", "simulate",
         {"graph": {"generator": "cycle", "length": 4}, "seed": 8,
          "laws": {"default": {"family": "dirichlet", "alpha": [1e-320, 1.0]}},
          "operation": {"mode": "reinforced", "steps": 4, "trajectories": 80}}),
        ("mixed environments on the 4-cycle per stream, 15x6", "simulate",
         {"graph": {"generator": "cycle", "length": 4}, "seed": 9,
          "envs": {"default": {"family": "dirichlet", "alpha": [0.3, 1.7]},
                   "per_vertex": {
                       "1": {"family": "polynomial_dirichlet", "alpha": [0.6, 2.0], "degree": 1,
                             "coefficients": [{"index": [1, 0], "value": 1.0},
                                              {"index": [0, 1], "value": 2.0}]},
                       "2": {"family": "empirical",
                             "atoms": [{"weight": 0.25, "weights": [0.2, 0.8]},
                                       {"weight": 0.75, "weights": [0.6, 0.4]}]}}},
          "operation": {"mode": "annealed", "steps": 6, "trajectories": 15}}),
        ("sampled quenched star-3 per stream, 31x6", "simulate",
         {"graph": {"generator": "star", "leaves": 3}, "seed": 10,
          "envs": {"default": {"family": "point_mass", "weights": [1.0]},
                   "per_vertex": {"0": {"family": "dirichlet", "alpha": [0.5, 1.0, 2.0]}}},
          "operation": {"mode": "quenched", "steps": 6, "trajectories": 31, "env_seed": 11}}),
    ]


def run_once(main, argv: list[str], out: Path) -> tuple[object, str]:
    """The exit code of one CLI call and the digest of that code, its output
    files, stdout and stderr."""
    files = (out, Path(f"{out}.meta.json"))
    for stale in files:
        stale.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # recorded, so that a crash on one side is a difference
            code = f"raised {type(exc).__name__}: {exc}"
    h = hashlib.sha256(f"exit {code}\n".encode())
    for path in files:
        if path.exists():
            data = path.read_bytes()
            h.update(f"{path.name} {len(data)}\n".encode() + data)
    for name, stream in (("stdout", stdout), ("stderr", stderr)):
        text = stream.getvalue().encode()
        h.update(f"{name} {len(text)}\n".encode() + text)
    return code, h.hexdigest()


def digest_lines(workloads: list[str], seeds: list[int], scale: str, src: Path,
                 workdir: Path) -> list[str]:
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    from urnwalk.cli import main
    from workloads import generate

    lines = []
    for workload in workloads:
        for seed in seeds:
            opdir = workdir / f"{workload}-{seed}"
            opdir.mkdir(parents=True, exist_ok=True)
            ops = generate(workload, seed, scale, opdir)
            for fmt in FORMATS:
                for n, op in enumerate(ops):
                    out = op.out.with_suffix(f".{fmt}")
                    code, digest = run_once(main, [*op.argv, "--format", fmt, "--out", str(out)],
                                            out)
                    lines.append(f"{workload} {seed} {fmt} op{n:02d} exit={code} {digest} "
                                 f"{op.label}")
    opdir = workdir / "failures"
    opdir.mkdir(parents=True, exist_ok=True)
    for fmt in FORMATS:
        for n, (label, command, cfg, *extra) in enumerate(failures()):
            path = opdir / f"op{n:02d}.config.json"
            path.write_text(json.dumps({"schema": 1, **cfg}), encoding="utf-8")
            out = opdir / f"op{n:02d}.{fmt}"
            code, digest = run_once(main, [command, "--config", str(path), "--format", fmt,
                                           "--out", str(out), *extra], out)
            lines.append(f"failures - {fmt} op{n:02d} exit={code} {digest} {command} {label}")
    return lines


def diff(a: Path, b: Path) -> int:
    """Print the operations whose digests differ or that only one file has; 1 if any."""
    def read(path: Path) -> dict[str, str]:
        rows = (line.split(" ", 4) for line in path.read_text(encoding="utf-8").splitlines())
        return {" ".join(r[:4]): r[4] for r in rows}

    left, right = read(a), read(b)
    keys = sorted(left.keys() | right.keys())
    differ = [k for k in keys if left.get(k) != right.get(k)]
    for key in differ:
        print(f"{key}: {left.get(key, 'missing')} != {right.get(key, 'missing')}")
    print(f"{len(keys) - len(differ)} operations equal, {len(differ)} differ")
    return 1 if differ else 0


def against(args: argparse.Namespace) -> int:
    """Digest ``args.src`` and then ``args.against`` in fresh interpreters; diff the two."""
    with tempfile.TemporaryDirectory() as tmp:
        outs = [Path(tmp) / "mine.txt", Path(tmp) / "theirs.txt"]
        for src, out in zip((args.src, args.against), outs):
            subprocess.run([sys.executable, __file__, "--workloads", *args.workloads,
                            "--seeds", *map(str, args.seeds), "--scale", args.scale,
                            "--src", str(src), "--workdir", str(args.workdir),
                            "--out", str(out)], check=True)
        return diff(*outs)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=["sample", "certify", "exact"])
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3, 4, 5])
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the src/ directory whose urnwalk runs")
    parser.add_argument("--workdir", type=Path,
                        default=Path(tempfile.gettempdir()) / "urnwalk-same-outputs",
                        help="where configs and outputs go; compare runs from the same one")
    parser.add_argument("--out", type=Path, help="the digest file to write (default stdout)")
    parser.add_argument("--diff", nargs=2, type=Path, metavar=("A", "B"),
                        help="compare two digest files instead of running")
    parser.add_argument("--against", type=Path, metavar="OTHER_SRC",
                        help="digest this src/ and OTHER_SRC, then diff them")
    args = parser.parse_args()
    if args.diff:
        return diff(*args.diff)
    if args.against:
        return against(args)
    lines = digest_lines(args.workloads, args.seeds, args.scale, args.src.resolve(),
                         args.workdir.resolve())
    text = "".join(f"{line}\n" for line in lines)
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
