"""tools/bench_record.py's summary, on synthetic perfbench run records."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

MACHINE = {"cpu_model": "Xeon", "nproc": 2, "python": "3.11.7", "pinned_cpus": [0]}


def _record(workload, seed, scaled, raw, failed=0):
    return {
        "workload": workload, "seed": seed, "trace": 0, "seconds": 30.0, "machine": MACHINE,
        "digests": [{"unit": 0, "requests": 100, "trace_sha256": f"t{seed}",
                     "counters_sha256": f"c{seed}"}],
        "raw_metrics": raw,
        "result": {"correct": True, "attempted": 100, "failed": failed,
                   "metrics": {k: {"value": v, "unit": "us"} for k, v in scaled.items()}},
    }


def _write(directory: Path, records):
    results = directory / ".perfbench_results"
    results.mkdir(parents=True)
    for r in records:
        (results / f"{r['workload']}-seed{r['seed']}-trace{r['trace']}.json").write_text(
            json.dumps(r))


def test_summary_of_seeded_runs(tmp_path):
    records = [_record("crypto_suite", s, {"sign_us.bls": 10.0 * s}, {"sign_us.bls": 20.0 * s},
                       failed=s == 3) for s in (1, 2, 3, 4, 5)]
    records.append(_record("crypto_suite", 9, {"sign_us.bls": 1e6}, {"sign_us.bls": 1e6}))
    stale_trace = _record("crypto_suite", 1, {"sign_us.bls": 1e6}, {"sign_us.bls": 1e6})
    stale_trace["trace"] = 1
    _write(tmp_path, records + [stale_trace])
    doc = bench_record.bench_file(
        bench_record.bench_compare.load_records(tmp_path), ["crypto_suite"], [1, 2, 3, 4, 5],
        {"git_sha": "abc", "dirty": False})
    assert doc["git_sha"] == "abc" and doc["dirty"] is False and doc["seconds"] == 30.0
    assert doc["machine"] == {"cpu_model": "Xeon", "nproc": 2, "python": "3.11.7"}
    summary = doc["workloads"]["crypto_suite"]
    assert summary["seeds"] == [1, 2, 3, 4, 5]
    assert (summary["attempted"], summary["failed"]) == (500, 1)
    # seed 9 and the traced run are not among the chosen runs
    assert summary["metrics"]["sign_us.bls"] == {
        "unit": "us", "median": 30.0, "iqr": 30.0, "raw_median": 60.0, "raw_iqr": 60.0, "n": 5}
    # one digest per seed, over its first units' trace and counter digests
    assert summary["digests"]["3"] == {
        "units": 1, "sha256": hashlib.sha256(b"t3c3").hexdigest()}


def test_a_missing_run_is_an_error(tmp_path):
    _write(tmp_path, [_record("sim_zipf_bls", 1, {"setup_s": 1.0}, {"setup_s": 2.0})])
    records = bench_record.bench_compare.load_records(tmp_path)
    with pytest.raises(KeyError):
        bench_record.bench_file(records, ["sim_zipf_bls"], [1, 2], {"git_sha": "x", "dirty": True})


def test_next_path_takes_the_first_unused_index(tmp_path):
    assert bench_record.next_path(tmp_path).name == "BENCH_0.json"
    (tmp_path / "BENCH_0.json").write_text("{}")
    (tmp_path / "BENCH_2.json").write_text("{}")
    assert bench_record.next_path(tmp_path).name == "BENCH_1.json"
