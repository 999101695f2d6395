"""Time each operation of one benchmark workload in process, as a Markdown table.

    python3 tools/op_times.py --workload certify
    python3 tools/op_times.py --workload exact --seed 3 --repeat 9
    python3 tools/op_times.py --workload certify --src OTHER/src   # another tree
    python3 tools/op_times.py --workload sample --match "polynomial grid"

The operations are those ``perfbench/workloads.py`` generates for the
workload, seed and scale, or with ``--match`` only those whose label (as
the table prints it) contains the given text.  Each runs ``--repeat``
times through ``urnwalk.cli.main`` in this interpreter, with its stdout
and stderr discarded, and every run is judged by
``perfbench/checks.py``'s ``check``.  A row gives the fastest run of the
operation in milliseconds; an operation with a run that fails its check
is reported as failed, with the reason on stderr, is left out of the
total, and makes the script exit 1.  Times are
wall-clock on whatever else the host is running, so compare two trees on
the same host, alternating their runs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parents[1]


def best_times(workload: str, seed: int, scale: str, repeat: int, src: Path,
               workdir: Path, match: str = "") -> list[tuple[str, float | None]]:
    """Each matching operation's label and fastest run in seconds, or None if a run failed its check."""
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    from checks import check
    from urnwalk.cli import main
    from workloads import generate

    rows = []
    for op in generate(workload, seed, scale, workdir):
        label = f"{op.argv[0]}, {op.label}"
        if match not in label:
            continue
        best: float | None = float("inf")
        for _ in range(repeat):
            op.out.unlink(missing_ok=True)
            Path(str(op.out) + ".meta.json").unlink(missing_ok=True)
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                t0 = time.perf_counter()
                code = main(op.argv)
                elapsed = time.perf_counter() - t0
            reason = check(op, code)
            if reason is not None:
                print(f"{label}: {reason}", file=sys.stderr)
                best = None
                break
            best = min(best, elapsed)
        rows.append((label, best))
    return rows


def table(rows: list[tuple[str, float | None]], repeat: int) -> str:
    lines = [f"| Operation | Best of {repeat} |", "|---|---|"]
    lines += [f"| {label} | {'failed' if t is None else f'{t * 1e3:.1f} ms'} |" for label, t in rows]
    total = sum(t for _, t in rows if t is not None)
    lines.append(f"| all {len(rows)} operations | {total * 1e3:.1f} ms |")
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("sample", "certify", "exact"), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--repeat", type=int, default=5, help="runs per operation (default 5)")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the tree whose urnwalk package is timed (default this one's)")
    parser.add_argument("--match", default="", metavar="SUBSTRING",
                        help="time only the operations whose label contains SUBSTRING")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    with tempfile.TemporaryDirectory() as tmp:
        rows = best_times(args.workload, args.seed, args.scale, args.repeat, args.src.resolve(),
                          Path(tmp), args.match)
    if not rows:
        parser.error(f"no {args.workload} operation's label contains {args.match!r}")
    print(f"{args.workload}, seed {args.seed}, scale {args.scale}; "
          f"Python {platform.python_version()}, numpy {numpy.__version__}\n")
    print(table(rows, args.repeat))
    return 1 if any(t is None for _, t in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
