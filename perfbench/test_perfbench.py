"""Checks on the benchmark itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import workloads as w  # noqa: E402
from ndnkit import naming, node, simnet  # noqa: E402

SHAPES = (w.ZIPF_BLS, w.CHURN_FORWARD)


def _digests(outcome):
    return outcome.trace_sha256, outcome.counters_sha256


def test_same_seed_gives_identical_digests_untraced_and_traced():
    for shape in SHAPES:
        seed = w.unit_seed(7, shape.name, 0)
        first = w.run_sim(shape, seed, 30)
        again = w.run_sim(shape, seed, 30)
        with layers.Tracer() as tracer:
            traced = w.run_sim(shape, seed, 30)
        assert _digests(first) == _digests(again) == _digests(traced), shape.name
        assert len(tracer.sim_units) == 1
        assert first.delivered == first.requests and first.wrong_payload == 0
        other = w.run_sim(shape, w.unit_seed(8, shape.name, 0), 30)
        assert _digests(other) != _digests(first)


def test_tracer_restores_every_patched_attribute():
    before = (simnet.run, simnet.encode, simnet.Node, node.Node.process_data,
              node.TrustStore.verify_data, naming.Name.__str__,
              w.netcoding.G1Point.__dict__["from_bytes"])
    with layers.Tracer():
        assert simnet.run is not before[0]
    after = (simnet.run, simnet.encode, simnet.Node, node.Node.process_data,
             node.TrustStore.verify_data, naming.Name.__str__,
             w.netcoding.G1Point.__dict__["from_bytes"])
    assert before == after


def test_inputs_follow_the_seed():
    for shape in SHAPES:
        assert w.tree_config(shape, 5, 50) == w.tree_config(shape, 5, 50)
        assert w.tree_config(shape, 5, 50) != w.tree_config(shape, 6, 50)
    cfg = w.tree_config(w.ZIPF_BLS, 5, 10)
    roles = [n["role"] for n in cfg["nodes"]]
    assert roles.count("router") == 31 and roles.count("consumer") == 32


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        spec["command"] + ["--workload", "crypto_suite", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
