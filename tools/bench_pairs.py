#!/usr/bin/env python3
"""Run two checkouts' benchmark in alternating pairs, then compare them.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --seeds A..B --seconds S

For each seed from A to B, in order, runs the ``perfbench/run.py`` of both
checkouts on workload W for S seconds, untraced, one run after the other.
The parent runs first on odd pairs (the first, the third, ...) and the
change first on even ones, so that a drift in machine speed falls on both
sides alike. Each run writes its record to its own checkout's
``.perfbench_results/``. The records of exactly these runs are then compared
by ``tools/bench_compare.py``, whose table is printed; the exit status is
bench_compare's. Nothing under ``perfbench/`` is changed.
"""

from __future__ import annotations

import argparse
import importlib.util
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("bench_compare", ROOT / "tools" / "bench_compare.py")
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)


def parse_seeds(text: str) -> list[int]:
    """The seeds A..B, both ends included."""
    first, dots, last = text.partition("..")
    try:
        seeds = list(range(int(first), int(last) + 1)) if dots else []
    except ValueError:
        seeds = []
    if not seeds:
        raise argparse.ArgumentTypeError(f"seeds must read A..B with A <= B, not {text!r}")
    return seeds


def run_pairs(parent: Path, change: Path, workload: str, seeds: list[int],
              seconds: float) -> None:
    for pair, seed in enumerate(seeds, 1):
        for checkout in (parent, change) if pair % 2 else (change, parent):
            print(f"pair {pair}: seed {seed} in {checkout}", file=sys.stderr, flush=True)
            subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                           cwd=checkout, check=True, stdout=subprocess.DEVNULL)


def copy_records(checkout: Path, workload: str, seeds: list[int], into: Path) -> None:
    """Copy the untraced records of these seeds into a new results directory."""
    into.mkdir()
    for seed in seeds:
        name = f"{workload}-seed{seed}-trace0.json"
        shutil.copy(checkout / ".perfbench_results" / name, into / name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="A..B")
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    run_pairs(parent, change, args.workload, args.seeds, args.seconds)
    with tempfile.TemporaryDirectory() as tmp:
        sides = [Path(tmp) / "parent", Path(tmp) / "change"]
        for checkout, into in zip((parent, change), sides):
            copy_records(checkout, args.workload, args.seeds, into)
        lines, flagged = bench_compare.compare(*sides)
    print("\n".join(lines))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
