#!/usr/bin/env python3
"""Run two checkouts' benchmark in alternating pairs, then compare them.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W[,W...] --seeds A..B --seconds S

Each workload W must be one that both checkouts' ``perfbench/run.py``
declare in ``WORKLOADS``; that is checked before any run starts. Then, for
each W in the order given and each seed from A to B, in order, runs the
``perfbench/run.py`` of both checkouts on W for S seconds, untraced, one run
after the other. The parent runs first on odd pairs (the first, the third,
...) and the change first on even ones, so that a drift in machine speed
falls on both sides alike. Each run writes its record to its own checkout's
``.perfbench_results/``. Once a workload's pairs are done, the records of
exactly those runs are compared by ``tools/bench_compare.py`` and its table
is printed. The exit status is 1 when any table is flagged, else 0. Nothing
under ``perfbench/`` is changed.
"""

from __future__ import annotations

import argparse
import ast
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


def parse_workloads(text: str) -> list[str]:
    """The comma-separated workload names, each given once."""
    names = text.split(",")
    if not all(names) or len(set(names)) < len(names):
        raise argparse.ArgumentTypeError(
            f"workloads must be distinct names separated by commas, not {text!r}")
    return names


def declared_workloads(checkout: Path) -> tuple[str, ...]:
    """The WORKLOADS that a checkout's perfbench/run.py assigns, read
    without running it."""
    tree = ast.parse((checkout / "perfbench" / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "WORKLOADS"
                for target in node.targets):
            return tuple(ast.literal_eval(node.value))
    return ()


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
    parser.add_argument("--workload", type=parse_workloads, required=True, help="W[,W...]")
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="A..B")
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    for checkout in (parent, change):
        declared = declared_workloads(checkout)
        unknown = [w for w in args.workload if w not in declared]
        if unknown:
            parser.error(f"{checkout / 'perfbench' / 'run.py'} declares no workload "
                         f"{', '.join(unknown)} (WORKLOADS: {', '.join(declared) or 'none'})")
    any_flagged = False
    for workload in args.workload:
        run_pairs(parent, change, workload, args.seeds, args.seconds)
        with tempfile.TemporaryDirectory() as tmp:
            sides = [Path(tmp) / "parent", Path(tmp) / "change"]
            for checkout, into in zip((parent, change), sides):
                copy_records(checkout, workload, args.seeds, into)
            lines, flagged = bench_compare.compare(*sides)
        print("\n".join(lines), flush=True)
        any_flagged |= flagged
    return 1 if any_flagged else 0


if __name__ == "__main__":
    sys.exit(main())
