"""tools/bench_compare.py on synthetic perfbench run records."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_compare.py"
_spec = importlib.util.spec_from_file_location("bench_compare", _PATH)
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)

SPEC = {
    "end_to_end": [
        {"name": "sign_us.bls", "better": "lower", "bound": 0.2},
        {"name": "verify_us.bls", "better": "lower", "bound": 0.2},
        {"name": "requests_per_s", "better": "higher", "bound": 0.25},
    ],
    "per_layer": [{"name": "pairing.g1_mul_us", "better": "lower"}],
}


def _record(workload, seed, metrics, failed=0, digest="a"):
    return {
        "workload": workload, "seed": seed, "trace": 0,
        "digests": [{"unit": 0, "trace_sha256": digest, "counters_sha256": "c"}],
        "result": {"correct": True, "attempted": 100, "failed": failed,
                   "metrics": {k: {"value": v, "unit": "us"} for k, v in metrics.items()}},
    }


def _write(directory: Path, records):
    results = directory / ".perfbench_results"
    results.mkdir(parents=True)
    for r in records:
        (results / f"{r['workload']}-seed{r['seed']}-trace0.json").write_text(json.dumps(r))


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "BENCHMARK.json"
    path.write_text(json.dumps(SPEC))
    return path


def test_gain_regression_and_steady_metrics(tmp_path, spec_file):
    seeds = range(1, 11)
    _write(tmp_path / "parent", [
        _record("crypto_suite", s, {"sign_us.bls": 850 + s, "verify_us.bls": 5000 + s,
                                    "requests_per_s": 200.0, "pairing.g1_mul_us": 650})
        for s in seeds])
    # a seed the parent never ran is left unpaired
    _write(tmp_path / "change", [
        _record("crypto_suite", s, {"sign_us.bls": 600 + s, "verify_us.bls": 6500 + s,
                                    "requests_per_s": 190.0 + (s == 3) * 20,
                                    "pairing.g1_mul_us": 420})
        for s in list(seeds) + [99]])
    lines, flagged = bench_compare.compare(tmp_path / "parent", tmp_path / "change", spec_file)
    rows = {line.split()[0]: line for line in lines[2:]}
    assert lines[0] == "== crypto_suite trace=0 seeds=1,2,3,4,5,6,7,8,9,10"
    assert "failed: parent 0/1000, change 0/1000; digests: 0 of 10 shared units differ" in lines[1]
    assert "won 10/10 gain" in rows["sign_us.bls"] and "-29.2%" in rows["sign_us.bls"]
    assert rows["verify_us.bls"].endswith("won 0/10 WORSE")
    # -5% on a higher-is-better metric: inside its 25% bound, one pair won
    assert "-5.0%" in rows["requests_per_s"] and rows["requests_per_s"].endswith("won 1/10")
    assert rows["pairing.g1_mul_us"].endswith("won 10/10 gain")
    assert flagged


def test_clean_comparison_is_not_flagged(tmp_path, spec_file):
    same = {"sign_us.bls": 850.0, "requests_per_s": 200.0}
    _write(tmp_path / "parent", [_record("sim_zipf_bls", s, same) for s in (1, 2)])
    _write(tmp_path / "change", [_record("sim_zipf_bls", s, same) for s in (2, 1)])
    lines, flagged = bench_compare.compare(tmp_path / "parent", tmp_path / "change", spec_file)
    assert not flagged
    assert all("WORSE" not in line and "gain" not in line for line in lines)
    assert "won 0/2" in lines[-1]


def test_failures_and_digest_changes_are_flagged(tmp_path, spec_file):
    _write(tmp_path / "parent", [_record("sim_churn_forward", 1, {"requests_per_s": 1000.0})])
    _write(tmp_path / "change", [_record("sim_churn_forward", 1, {"requests_per_s": 1000.0},
                                         failed=1, digest="b")])
    lines, flagged = bench_compare.compare(tmp_path / "parent", tmp_path / "change", spec_file)
    assert "failed: parent 0/100, change 1/100; digests: 1 of 1 shared units differ" in lines[1]
    assert flagged


def test_compare_metric_quartiles_and_ties():
    row = bench_compare.compare_metric([10, 20, 30, 40], [10, 15, 35, 30], "lower", 0.2)
    assert row["parent_median"] == 25 and row["change_median"] == 22.5
    assert row["parent_iqr"] == (12.5, 37.5)
    assert row["won"] == 2  # the tie at 10 counts for neither side
    assert not row["worse"] and not row["gain"]
    assert bench_compare.compare_metric([5], [7], "lower", 0.2)["worse"]
    assert not bench_compare.compare_metric([5], [7], "lower", None)["worse"]


# --- two BENCH files ----------------------------------------------------------

MACHINE = {"cpu_model": "Xeon", "nproc": 2, "python": "3.11.7"}


def _bench(path: Path, metrics, failed=0, digest="a", machine=MACHINE) -> Path:
    """A BENCH file of one crypto_suite summary; metrics maps name -> (median, iqr)."""
    summary = {
        "seeds": [1, 2, 3], "attempted": 300, "failed": failed,
        "metrics": {k: {"unit": "us", "median": m, "iqr": q, "raw_median": 2 * m,
                        "raw_iqr": 2 * q, "n": 3} for k, (m, q) in metrics.items()},
        "digests": {str(s): bench_compare.prefix_digest(
            [{"unit": 0, "requests": 100, "trace_sha256": digest, "counters_sha256": "c"}])
            for s in (1, 2, 3)},
    }
    path.write_text(json.dumps({"git_sha": path.stem, "dirty": False, "seconds": 30.0,
                                "machine": machine, "workloads": {"crypto_suite": summary}}))
    return path


def test_bench_files_give_medians_iqr_and_marks(tmp_path, spec_file):
    parent = _bench(tmp_path / "BENCH_1.json", {
        "sign_us.bls": (850.0, 10.0), "verify_us.bls": (5000.0, 50.0),
        "requests_per_s": (200.0, 20.0), "pairing.g1_mul_us": (650.0, 5.0)})
    change = _bench(tmp_path / "BENCH_2.json", {
        "sign_us.bls": (600.0, 12.0), "verify_us.bls": (6500.0, 40.0),
        "requests_per_s": (190.0, 5.0), "only_in_change": (1.0, 0.0)})
    lines, flagged = bench_compare.compare_bench(parent, change, spec_file)
    rows = {line.split()[0]: line for line in lines[2:]}
    assert lines[0] == "== crypto_suite seeds=1,2,3 vs 1,2,3"
    assert lines[1].endswith(
        "failed: parent 0/300, change 0/300; digests: 0 of 3 shared seeds differ in their first 10 units")
    assert set(rows) == {"sign_us.bls", "verify_us.bls", "requests_per_s"}
    assert "850 iqr 10" in rows["sign_us.bls"] and "600 iqr 12" in rows["sign_us.bls"]
    assert rows["sign_us.bls"].endswith("-29.4% gain")
    assert rows["verify_us.bls"].endswith("+30.0% WORSE")
    # -5% on a higher-is-better metric: inside its bound, and within the parent's IQR
    assert rows["requests_per_s"].endswith("-5.0%")
    assert flagged


def test_bench_files_through_the_command_line(tmp_path, capsys):
    # two existing files select the BENCH comparison, under the repository's bounds
    same = {"sign_us.bls": (850.0, 10.0)}
    parent = _bench(tmp_path / "BENCH_1.json", same)
    clean = _bench(tmp_path / "BENCH_2.json", same)
    assert bench_compare.main([str(parent), str(clean)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("== crypto_suite") and "WORSE" not in out and "gain" not in out
    # a failure and a changed digest flag the comparison; another machine is named
    other = _bench(tmp_path / "BENCH_3.json", same, failed=1, digest="b",
                   machine={**MACHINE, "nproc": 4})
    assert bench_compare.main([str(parent), str(other)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("!! different machines")
    assert "change 1/300; digests: 3 of 3 shared seeds differ in their first 10 units" in out


def test_one_changed_unit_among_the_first_ten_is_flagged(tmp_path, spec_file):
    # both sides keep bench_record's one digest per seed
    units = [{"unit": u, "requests": 100, "trace_sha256": f"t{u}", "counters_sha256": f"c{u}"}
             for u in range(14)]
    parent = _bench(tmp_path / "BENCH_9.json", {"sign_us.bls": (850.0, 10.0)})
    doc = json.loads(parent.read_text())
    doc["workloads"]["crypto_suite"]["digests"] = {
        str(s): bench_compare.prefix_digest(units) for s in (1, 2, 3)}
    parent.write_text(json.dumps(doc))
    change = tmp_path / "BENCH_10.json"

    def compare_with(seed_units):
        doc["workloads"]["crypto_suite"]["digests"] = {
            str(s): bench_compare.prefix_digest(u) for s, u in zip((1, 2, 3), seed_units)}
        change.write_text(json.dumps(doc))
        lines, flagged = bench_compare.compare_bench(parent, change, spec_file)
        return lines[1].split("digests: ")[1], flagged

    assert bench_compare.DIGEST_UNITS == 10
    assert compare_with([units, units, units[::-1]]) == (
        "0 of 3 shared seeds differ in their first 10 units", False)
    for unit in range(10):
        changed = [dict(d, trace_sha256="x") if d["unit"] == unit else d for d in units]
        assert compare_with([units, units, changed]) == (
            "1 of 3 shared seeds differ in their first 10 units", True)
    # units past the first ten are not kept, and a seed whose run reached
    # fewer units than the other's is not compared
    changed = [dict(d, counters_sha256="x") if d["unit"] == 12 else d for d in units]
    assert compare_with([units, units[:9], changed]) == (
        "0 of 2 shared seeds differ in their first 10 units", False)
