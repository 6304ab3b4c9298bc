#!/usr/bin/env python3
"""Compare perfbench run records of a parent checkout and a changed one.

    python3 tools/bench_compare.py PARENT_DIR CHANGE_DIR
    python3 tools/bench_compare.py BENCH_1.json BENCH_2.json

Each directory is a checkout (its ``.perfbench_results/`` is read) or a
results directory itself. Records are grouped by workload and trace mode and
paired by seed. For every metric the table gives the parent's median and
interquartile range, the change's median, the relative change, and the pairs
the change won (ties count for neither side). A gated end-to-end metric that
got worse by more than its ``BENCHMARK.json`` bound is flagged ``WORSE``; one
that won at least nine tenths of the pairs with medians further apart than
the parent's IQR is marked ``gain``. Each group also reports failed
operations and any per-unit trace or counter digest that differs between
runs of the same seed. The exit status is 1 if anything was flagged.

Given two ``BENCH_<n>.json`` files (see ``tools/bench_record.py``), it prints
the same table from their summaries: each side's median and interquartile
range, the relative change, ``WORSE`` past a bound and the failures of
both sides. A summary keeps no per-seed values, so no pairs are counted:
``gain`` marks a better median by more than the parent's IQR, and a line
warns when the two files come from different machines. A BENCH file keeps
one digest per seed over its first ``DIGEST_UNITS`` sim units
(``prefix_digest``), and the seeds both files ran are compared by it.

The records are only read; nothing under ``perfbench/`` is run or changed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GAIN_SHARE = 0.9
# sim units per seed that a BENCH file's digest covers: every 30 s run in
# BENCH_0..BENCH_9 reached 14 or more (crypto_suite, whose sim units are its
# companion's, had the fewest)
DIGEST_UNITS = 10


def load_records(path: Path) -> dict:
    """(workload, trace) -> seed -> record, from a checkout or results dir."""
    results = path / ".perfbench_results"
    directory = results if results.is_dir() else path
    out: dict = {}
    for file in sorted(directory.glob("*.json")):
        record = json.loads(file.read_text())
        out.setdefault((record["workload"], record["trace"]), {})[record["seed"]] = record
    return out


def load_metric_specs(benchmark: Path) -> dict:
    """metric name -> {"better", "bound" (None for per-layer metrics)}."""
    spec = json.loads(benchmark.read_text())
    out = {m["name"]: {"better": m["better"], "bound": m.get("bound")} for m in spec["end_to_end"]}
    out.update({m["name"]: {"better": m["better"], "bound": None} for m in spec["per_layer"]})
    return out


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def compare_metric(parent: list[float], change: list[float], better: str,
                   bound: float | None) -> dict:
    """Summary of one metric over seed-paired runs (parent[i] pairs change[i])."""
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q1, q3 = _quartiles(parent)
    sign = 1 if better == "higher" else -1
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    row = _medians(med_p, med_c, q3 - q1, better, bound)
    row.update(parent_iqr=(q1, q3), won=won, pairs=len(parent))
    row["gain"] &= won >= GAIN_SHARE * len(parent)
    return row


def _medians(med_p: float, med_c: float, iqr_p: float, better: str, bound: float | None) -> dict:
    """The relative change of two medians, WORSE past the bound, and gain
    when the change is better by more than the parent's IQR."""
    sign = 1 if better == "higher" else -1
    rel = (med_c - med_p) / med_p if med_p else 0.0
    return {"parent_median": med_p, "change_median": med_c, "relative": rel,
            "worse": bound is not None and sign * rel < -bound,
            "gain": sign * (med_c - med_p) > iqr_p}


def _digest_mismatches(parent: dict, change: dict) -> tuple[int, int]:
    """(shared units, units whose digests differ) over the seeds both ran;
    each side maps a seed to its list of per-unit digests."""
    shared = differ = 0
    for seed in parent.keys() & change.keys():
        mine = {str(d["unit"]): d for d in change[seed]}
        for d in parent[seed]:
            other = mine.get(str(d["unit"]))
            if other is None:
                continue
            shared += 1
            differ += other != d
    return shared, differ


def prefix_digest(units: list) -> dict:
    """One seed's unit digests as a BENCH file keeps them: the sha256 over the
    trace and counter digests of its first DIGEST_UNITS units, in unit order,
    and the number of units it covers."""
    first = sorted(units, key=lambda d: d["unit"])[:DIGEST_UNITS]
    text = "".join(d["trace_sha256"] + d["counters_sha256"] for d in first)
    return {"units": len(first), "sha256": hashlib.sha256(text.encode()).hexdigest()}


def _seed_mismatches(parent: dict, change: dict) -> tuple[int, int]:
    """(shared seeds, seeds whose digests differ) of two BENCH summaries'
    digests; a seed is shared when both digests cover as many units."""
    shared = [s for s in parent.keys() & change.keys()
              if parent[s]["units"] == change[s]["units"]]
    return len(shared), sum(parent[s] != change[s] for s in shared)


def compare(parent_dir: Path, change_dir: Path, benchmark: Path = ROOT / "BENCHMARK.json"):
    """Lines of the report, and whether anything was flagged."""
    specs = load_metric_specs(benchmark)
    parent, change = load_records(parent_dir), load_records(change_dir)
    lines, flagged = [], False
    for group in sorted(parent.keys() & change.keys()):
        seeds = sorted(parent[group].keys() & change[group].keys())
        if not seeds:
            continue
        workload, trace = group
        pairs = [(parent[group][s], change[group][s]) for s in seeds]
        failed = [sum(r["result"]["failed"] for r in side) for side in zip(*pairs)]
        attempted = [sum(r["result"]["attempted"] for r in side) for side in zip(*pairs)]
        shared, differ = _digest_mismatches(*({s: r["digests"] for s, r in side[group].items()}
                                              for side in (parent, change)))
        lines.append(f"== {workload} trace={trace} seeds={','.join(map(str, seeds))}")
        lines.append(f"   failed: parent {failed[0]}/{attempted[0]}, change {failed[1]}/{attempted[1]}"
                     f"; digests: {differ} of {shared} shared units differ")
        flagged |= failed[1] * attempted[0] > failed[0] * attempted[1] or differ > 0
        names = sorted(set.intersection(*(set(r["result"]["metrics"]) for pair in pairs for r in pair)))
        for name in names:
            spec = specs.get(name, {"better": "lower", "bound": None})
            values = [[r["result"]["metrics"][name]["value"] for r in side] for side in zip(*pairs)]
            row = compare_metric(values[0], values[1], spec["better"], spec["bound"])
            q1, q3 = row["parent_iqr"]
            mark = "WORSE" if row["worse"] else "gain" if row["gain"] else ""
            flagged |= row["worse"]
            lines.append(
                f"   {name:40s} {row['parent_median']:12.4g} [{q1:.4g}-{q3:.4g}] -> "
                f"{row['change_median']:12.4g} {100 * row['relative']:+7.1f}% "
                f"won {row['won']}/{row['pairs']} {mark}".rstrip())
    return lines, flagged


def compare_bench(parent_file: Path, change_file: Path, benchmark: Path = ROOT / "BENCHMARK.json"):
    """Lines of the report on two BENCH files, and whether anything was flagged."""
    specs = load_metric_specs(benchmark)
    parent, change = (json.loads(f.read_text()) for f in (parent_file, change_file))
    lines, flagged = [], False
    if parent["machine"] != change["machine"]:
        lines.append(f"!! different machines: {parent['machine']} vs {change['machine']}")
    for workload in sorted(parent["workloads"].keys() & change["workloads"].keys()):
        p, c = parent["workloads"][workload], change["workloads"][workload]
        shared, differ = _seed_mismatches(p["digests"], c["digests"])
        lines.append(f"== {workload} seeds={','.join(map(str, p['seeds']))}"
                     f" vs {','.join(map(str, c['seeds']))}")
        lines.append(f"   failed: parent {p['failed']}/{p['attempted']}, change {c['failed']}/"
                     f"{c['attempted']}; digests: {differ} of {shared} shared seeds differ"
                     f" in their first {DIGEST_UNITS} units")
        flagged |= c["failed"] * p["attempted"] > p["failed"] * c["attempted"] or differ > 0
        for name in sorted(p["metrics"].keys() & c["metrics"].keys()):
            spec = specs.get(name, {"better": "lower", "bound": None})
            mp, mc = p["metrics"][name], c["metrics"][name]
            row = _medians(mp["median"], mc["median"], mp["iqr"], spec["better"], spec["bound"])
            mark = "WORSE" if row["worse"] else "gain" if row["gain"] else ""
            flagged |= row["worse"]
            lines.append(
                f"   {name:40s} {mp['median']:12.4g} iqr {mp['iqr']:<9.3g} -> {mc['median']:12.4g}"
                f" iqr {mc['iqr']:<9.3g} {100 * row['relative']:+7.1f}% {mark}".rstrip())
    return lines, flagged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    files = args.parent.is_file() and args.change.is_file()
    lines, flagged = (compare_bench if files else compare)(args.parent, args.change)
    print("\n".join(lines) if lines else "no workload has records on both sides")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
