#!/usr/bin/env python3
"""Record a BENCH_<n>.json: perfbench medians of one checkout over several seeds.

    python3 tools/bench_record.py [--checkout DIR]

Runs the checkout's ``perfbench/run.py`` (default checkout: this repository)
once per workload and seed, one run after another, for every workload and
the run length ``BENCHMARK.json`` names and for seeds 1 to 5; each run pins
itself to one CPU. The run records are then read back through
``bench_compare.load_records`` and summarised into ``BENCH_<n>.json`` at the
root of this repository, n being the first unused index. The file holds the
checkout's git SHA (and whether its tree had uncommitted changes), the
machine (CPU model, nproc, Python version) and, per workload, every metric's
median, interquartile range and count, both scaled to reference speed and
raw, and per seed one sha256 over the trace and counter digests of its first
``bench_compare.DIGEST_UNITS`` (10) sim units, which every 30 s run reaches.
Three workloads over five seeds at 30 s take about nine minutes.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3, 4, 5)

_spec = importlib.util.spec_from_file_location("bench_compare", ROOT / "tools" / "bench_compare.py")
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)


def _stats(values: list[float]) -> tuple[float, float]:
    q1, q3 = bench_compare._quartiles(values)
    return statistics.median(values), q3 - q1


def summarize(by_seed: dict) -> dict:
    """One workload's summary from its untraced run records, keyed by seed."""
    records = [by_seed[s] for s in sorted(by_seed)]
    metrics = {}
    for name in sorted(set.intersection(*(set(r["result"]["metrics"]) for r in records))):
        median, iqr = _stats([r["result"]["metrics"][name]["value"] for r in records])
        raw_median, raw_iqr = _stats([r["raw_metrics"][name] for r in records])
        metrics[name] = {"unit": records[0]["result"]["metrics"][name]["unit"],
                         "median": median, "iqr": iqr,
                         "raw_median": raw_median, "raw_iqr": raw_iqr, "n": len(records)}
    return {
        "seeds": sorted(by_seed),
        "attempted": sum(r["result"]["attempted"] for r in records),
        "failed": sum(r["result"]["failed"] for r in records),
        "metrics": metrics,
        "digests": {str(s): bench_compare.prefix_digest(by_seed[s]["digests"])
                    for s in sorted(by_seed)},
    }


def bench_file(records: dict, workloads, seeds, git: dict) -> dict:
    """The BENCH document from ``load_records`` output, for the given runs."""
    chosen = {w: {s: records[(w, 0)][s] for s in seeds} for w in workloads}
    machine = next(iter(chosen[workloads[0]].values()))["machine"]
    return {
        **git,
        "machine": {k: machine[k] for k in ("cpu_model", "nproc", "python")},
        "seconds": next(iter(chosen[workloads[0]].values()))["seconds"],
        "workloads": {w: summarize(chosen[w]) for w in workloads},
    }


def _git(checkout: Path) -> dict:
    run = lambda *a: subprocess.run(["git", "-C", str(checkout), *a], capture_output=True,
                                    text=True, check=True).stdout.strip()
    return {"git_sha": run("rev-parse", "HEAD"),
            "dirty": bool(run("status", "--porcelain", "--", "src", "perfbench"))}


def next_path(directory: Path) -> Path:
    n = 0
    while (directory / f"BENCH_{n}.json").exists():
        n += 1
    return directory / f"BENCH_{n}.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", type=Path, default=ROOT)
    checkout = parser.parse_args(argv).checkout.resolve()
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for seed in SEEDS:
            print(f"{workload} seed {seed}", file=sys.stderr, flush=True)
            subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                            "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                            "--trace", "0"], cwd=checkout, check=True, stdout=subprocess.DEVNULL)
    doc = bench_file(bench_compare.load_records(checkout), workloads, SEEDS, _git(checkout))
    path = next_path(ROOT)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
