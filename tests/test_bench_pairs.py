"""tools/bench_pairs.py, on two checkouts whose perfbench/run.py is a stub."""

import argparse
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

# logs each run, then writes a record of the checkout's fixed rate
STUB = """
import argparse, json, pathlib
WORKLOADS = ("sim_churn_forward", "sim_zipf_bls", "w")
parser = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    parser.add_argument(flag)
args = parser.parse_args()
root = pathlib.Path.cwd()
with open(root.parent / "log", "a") as log:
    log.write(f"{root.name} {args.workload} {args.seed} {args.seconds} {args.trace}\\n")
rate = float((root / "rate").read_text())
record = {
    "workload": args.workload, "seed": int(args.seed), "trace": int(args.trace),
    "digests": [{"unit": 0, "trace_sha256": "t", "counters_sha256": "c"}],
    "result": {"attempted": 100, "failed": 0,
               "metrics": {"requests_per_s": {"value": rate + int(args.seed), "unit": "1/s"}}},
}
out = root / ".perfbench_results"
out.mkdir(exist_ok=True)
(out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))
"""


def _checkout(tmp_path: Path, name: str, rate: float) -> Path:
    checkout = tmp_path / name
    (checkout / "perfbench").mkdir(parents=True)
    (checkout / "perfbench" / "run.py").write_text(STUB)
    (checkout / "rate").write_text(str(rate))
    return checkout


def test_pairs_alternate_and_only_their_runs_are_compared(tmp_path, capsys):
    parent = _checkout(tmp_path, "parent", 100.0)
    change = _checkout(tmp_path, "change", 110.0)
    # a record of another seed, left from an earlier run, is not compared
    stale = change / ".perfbench_results"
    stale.mkdir()
    (stale / "sim_churn_forward-seed9-trace0.json").write_text(json.dumps({
        "workload": "sim_churn_forward", "seed": 9, "trace": 0, "digests": [],
        "result": {"attempted": 100, "failed": 100, "metrics": {}}}))
    (parent / ".perfbench_results").mkdir()
    (parent / ".perfbench_results" / "sim_churn_forward-seed9-trace0.json").write_text(
        stale.joinpath("sim_churn_forward-seed9-trace0.json").read_text())

    status = bench_pairs.main([str(parent), str(change), "--workload", "sim_churn_forward",
                               "--seeds", "3..5", "--seconds", "2.5"])
    runs = (tmp_path / "log").read_text().splitlines()
    assert runs == [
        "parent sim_churn_forward 3 2.5 0", "change sim_churn_forward 3 2.5 0",
        "change sim_churn_forward 4 2.5 0", "parent sim_churn_forward 4 2.5 0",
        "parent sim_churn_forward 5 2.5 0", "change sim_churn_forward 5 2.5 0",
    ]
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "== sim_churn_forward trace=0 seeds=3,4,5"
    assert out[1] == "   failed: parent 0/300, change 0/300; digests: 0 of 3 shared units differ"
    assert out[2].split() == ["requests_per_s", "104", "[103-105]", "->", "114",
                              "+9.6%", "won", "3/3", "gain"]
    assert status == 0


def test_a_failed_run_stops_the_pairs(tmp_path):
    parent = _checkout(tmp_path, "parent", 100.0)
    change = _checkout(tmp_path, "change", 110.0)
    (change / "perfbench" / "run.py").write_text('WORKLOADS = ("w",)\nraise SystemExit(2)')
    with pytest.raises(subprocess.CalledProcessError):
        bench_pairs.main([str(parent), str(change), "--workload", "w", "--seeds", "1..2",
                          "--seconds", "1"])
    assert (tmp_path / "log").read_text().splitlines() == ["parent w 1 1.0 0"]


@pytest.mark.parametrize("text", ["5", "5..4", "a..b", "1...3"])
def test_seeds_must_be_a_range(text):
    with pytest.raises(argparse.ArgumentTypeError):
        bench_pairs.parse_seeds(text)


def test_seeds_include_both_ends():
    assert bench_pairs.parse_seeds("11..20") == list(range(11, 21))
    assert bench_pairs.parse_seeds("7..7") == [7]


def test_each_workload_runs_its_pairs_in_turn_and_prints_its_table(tmp_path, capsys):
    parent = _checkout(tmp_path, "parent", 100.0)
    change = _checkout(tmp_path, "change", 90.0)
    status = bench_pairs.main([str(parent), str(change), "--workload",
                               "sim_zipf_bls,sim_churn_forward", "--seeds", "1..2",
                               "--seconds", "1"])
    assert (tmp_path / "log").read_text().splitlines() == [
        "parent sim_zipf_bls 1 1.0 0", "change sim_zipf_bls 1 1.0 0",
        "change sim_zipf_bls 2 1.0 0", "parent sim_zipf_bls 2 1.0 0",
        "parent sim_churn_forward 1 1.0 0", "change sim_churn_forward 1 1.0 0",
        "change sim_churn_forward 2 1.0 0", "parent sim_churn_forward 2 1.0 0",
    ]
    out = capsys.readouterr().out.splitlines()
    tables = [line for line in out if line.startswith("== ")]
    assert tables == ["== sim_zipf_bls trace=0 seeds=1,2", "== sim_churn_forward trace=0 seeds=1,2"]
    # 90 + seed against 100 + seed is worse than the 25% bound on neither,
    # so the rows are not flagged, and the status is 0
    assert all("WORSE" not in line for line in out)
    assert status == 0


def test_a_flagged_table_sets_the_exit_status(tmp_path, capsys):
    parent = _checkout(tmp_path, "parent", 100.0)
    change = _checkout(tmp_path, "change", 50.0)
    status = bench_pairs.main([str(parent), str(change), "--workload", "w,sim_zipf_bls",
                               "--seeds", "1..1", "--seconds", "1"])
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("== ")] == [
        "== w trace=0 seeds=1", "== sim_zipf_bls trace=0 seeds=1"]
    assert status == 1


@pytest.mark.parametrize("workloads", ["sim_churn_forwrd", "w,sim_churn_forwrd"])
def test_an_unknown_workload_fails_before_anything_runs(tmp_path, capsys, workloads):
    parent = _checkout(tmp_path, "parent", 100.0)
    change = _checkout(tmp_path, "change", 110.0)
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main([str(parent), str(change), "--workload", workloads,
                          "--seeds", "1..2", "--seconds", "1"])
    assert exit_info.value.code == 2
    assert "declares no workload sim_churn_forwrd" in capsys.readouterr().err
    assert not (tmp_path / "log").exists()


@pytest.mark.parametrize("text", ["", "w,", "w,,x", "w,w"])
def test_workloads_must_be_distinct_names(text):
    with pytest.raises(argparse.ArgumentTypeError):
        bench_pairs.parse_workloads(text)


def test_the_declared_workloads_are_read_from_the_benchmark_itself():
    assert bench_pairs.declared_workloads(_PATH.parent.parent) == (
        "sim_zipf_bls", "sim_churn_forward", "crypto_suite")
