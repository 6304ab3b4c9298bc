"""The ndnkit benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload sim_zipf_bls --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports ndnkit from ``src/``
and fails (exit code 2, no result) when that tree is missing. The process
pins itself to one CPU and runs one unit of work at a time (closed loop)
until ``--seconds`` have passed.

Every run reports every end-to-end metric. A workload spends most of its
time on its own units and the rest on a companion unit that yields the
metrics it is not about: crypto rounds on the sim workloads, and
reference-shaped sim units on ``crypto_suite``. With ``--trace 1`` the same
loop runs under the layer wrappers in ``layers.py`` and the result holds the
per-layer metrics instead.

The last line of stdout is the result object; the line before it holds the
machine description, the per-unit trace digests and the span summary, and
the same record is written to ``.perfbench_results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

WORKLOADS = ("sim_zipf_bls", "sim_churn_forward", "crypto_suite")
# Share of loop time spent on the workload's own units. A sim unit lasts about
# a second and a crypto round a tenth of that, so crypto_suite gives its
# companion sims more room to collect enough of them for a steady median.
PRIMARY_SHARE = {"sim": 0.75, "crypto": 0.6}
COUNT_UNITS = 3  # sim units the exact per-request counts are taken over
MIN_ROUNDS = 10
SETUP_REPEATS = 3  # this process plus two fresh ones; the median is reported

# A small shared VM (measured on a 2-vCPU KVM guest, Xeon, Python 3.11)
# changes speed by up to a half for seconds to minutes at a time, so raw
# medians of 30-second runs spread by 20-40%. Code that spends its time in the
# interpreter (the
# pairing, the curves, the simulator) and code that spends it in C big-integer
# exponentiation slow down by different amounts. So each unit is bracketed by
# two fixed calibration loops, one of each kind, and its times are scaled to
# a reference speed: time * REF / (mean calibration time around the unit),
# with the loop that matches the metric. A change to ndnkit cannot move the
# calibration loops; the raw values are kept in the run record.
CAL_REF_NS = {"interp": 1_700_000, "bigint": 1_450_000}
# Which loop scales which metric: time in 1024-bit modular exponentiation,
# a mix of both, or (every metric not named) interpreter time.
SCALE_KIND = {
    "sign_us.rsa": "bigint", "verify_us.dsa": "bigint", "verify_us.group": "bigint",
    "sign_us.ring": "bigint", "verify_us.ring": "bigint",
    "verify_us.rsa": "both", "sign_us.dsa": "both", "sign_us.group": "both", "setup_s": "both",
}
_P160 = (1 << 160) - 47
_M1024 = (1 << 1024) - 105


def _pin_to_one_cpu() -> None:
    # the same policy as `ndnkit bench`: the lowest CPU this process may use
    if not hasattr(os, "sched_setaffinity"):
        return
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError:
        pass


def machine() -> dict:
    model = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu_model": model,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    }


def _f2_mul(x, y):
    a0, a1 = x
    b0, b1 = y
    t0, t1 = a0 * b0, a1 * b1
    return ((t0 - t1) % _P160, ((a0 + a1) * (b0 + b1) - t0 - t1) % _P160)


def calibrate() -> dict[str, int]:
    """Nanoseconds for two fixed loops: Python calls and tuples over 160-bit
    integers, and 1024-bit modular squaring."""
    clock = time.perf_counter_ns
    start = clock()
    x, y, seen = (3**90 % _P160, 5**70 % _P160), (7**60 % _P160, 11**50 % _P160), {}
    for i in range(1500):
        x = _f2_mul(x, y)
        seen[i & 31] = x
    middle = clock()
    z = 3**600 % _M1024
    for _ in range(400):
        z = z * z % _M1024
    return {"interp": middle - start, "bigint": clock() - middle}


def _scale(before: dict, after: dict) -> dict[str, float]:
    scale = {k: 2 * CAL_REF_NS[k] / (before[k] + after[k]) for k in CAL_REF_NS}
    scale["both"] = 2 * sum(CAL_REF_NS.values()) / (sum(before.values()) + sum(after.values()))
    return scale


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _p99(values) -> float:
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100)[98]


# --- set-up ------------------------------------------------------------------


class Bench:
    """Everything a run needs before its timed loop starts."""

    def __init__(self, workload: str, seed: int):
        self.seed = seed
        self.w = importlib.import_module("workloads")
        w = self.w
        self.shape = w.CHURN_FORWARD if workload == "sim_churn_forward" else w.ZIPF_BLS
        self.primary = "crypto" if workload == "crypto_suite" else "sim"
        self.suite = w.CryptoSuite()
        # warm the lazily built tables (combs, prepared G2 points, generation
        # bases) so that the first timed unit does not pay for them
        w.crypto_round(self.suite, seed, -1)
        w.run_sim(self.shape, w.unit_seed(seed, "warmup", 0), 10)


def setup(workload: str, seed: int) -> tuple[Bench, float, float]:
    """The bench, its set-up time in seconds, and that time at reference speed."""
    before = calibrate()
    start = time.perf_counter()
    bench = Bench(workload, seed)
    seconds = time.perf_counter() - start
    return bench, seconds, seconds * _scale(before, calibrate())[SCALE_KIND["setup_s"]]


def fresh_setup(args) -> tuple[float, float]:
    """Set-up times measured in a new interpreter, so no table is warm yet."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, timeout=150, check=True,
    )
    record = json.loads(out.stdout.strip().splitlines()[-1])
    return record["setup_s"], record["setup_ref_s"]


# --- the timed loop ----------------------------------------------------------


class Loop:
    """Runs units one at a time and keeps what the metrics need."""

    def __init__(self, bench: Bench):
        self.b = bench
        self.sims = []
        self.rounds = []
        # per unit: {"interp", "bigint", "both"} -> reference over measured speed
        self.sim_scale: list[dict] = []
        self.round_scale: list[dict] = []

    def sim_unit(self):
        w, b = self.b.w, self.b
        index = len(self.sims)
        self.sims.append(
            w.run_sim(b.shape, w.unit_seed(b.seed, b.shape.name, index), b.shape.requests))

    def crypto_unit(self):
        self.rounds.append(self.b.w.crypto_round(self.b.suite, self.b.seed, len(self.rounds)))

    def run(self, seconds: float) -> None:
        spent = {"sim": 0.0, "crypto": 0.0}
        units = {"sim": self.sim_unit, "crypto": self.crypto_unit}
        primary = self.b.primary
        companion = "crypto" if primary == "sim" else "sim"
        scales = {"sim": self.sim_scale, "crypto": self.round_scale}
        start = time.perf_counter()
        cal_before = calibrate()
        while True:
            short = [k for k, n in (("sim", len(self.sims)), ("crypto", len(self.rounds)))
                     if n < (COUNT_UNITS if k == "sim" else MIN_ROUNDS)]
            if time.perf_counter() - start >= seconds and not short:
                break
            if short:
                kind = short[0]
            else:
                total = spent["sim"] + spent["crypto"]
                kind = primary if spent[primary] <= PRIMARY_SHARE[primary] * total else companion
            t0 = time.perf_counter()
            units[kind]()
            spent[kind] += time.perf_counter() - t0
            cal_after = calibrate()
            scales[kind].append(_scale(cal_before, cal_after))
            cal_before = cal_after


# --- metrics -----------------------------------------------------------------


def end_to_end(loop: Loop, setup_s: float, scaled: bool = True) -> dict:
    """The gated metrics; with ``scaled`` times are at reference speed."""
    w = loop.b.w

    def timed(metric, units, scales, ns):
        factor = lambda k: k[SCALE_KIND.get(metric, "interp")] if scaled else 1.0
        return (_median([ns(u) * factor(k) for u, k in zip(units, scales)]) / 1e3, "us")

    m = {"setup_s": (setup_s, "s")}
    sim_scale = [k["interp"] if scaled else 1.0 for k in loop.sim_scale]
    m["requests_per_s"] = (
        _median([o.delivered / (o.run_s * k) for o, k in zip(loop.sims, sim_scale)]), "1/s")
    for op in ("sign", "verify"):
        for name in w.SCHEMES:
            metric = f"{op}_us.{name}"
            m[metric] = timed(metric, loop.rounds, loop.round_scale,
                              lambda r: getattr(r, f"{op}_ns")[name])
    us, unit = timed("batch_verify_us_per_sig", loop.rounds, loop.round_scale, lambda r: r.batch_ns)
    m["batch_verify_us_per_sig"] = (us / w.BATCH_SIZE, unit)
    m["nc_verify_us"] = timed("nc_verify_us", loop.rounds, loop.round_scale,
                              lambda r: r.nc_verify_ns)
    return m


def _per_call_ns(fn, args, calls: int = 3000, repeats: int = 5) -> float:
    clock = time.perf_counter_ns
    per = []
    for _ in range(repeats):
        start = clock()
        for _ in range(calls):
            fn(*args)
        per.append((clock() - start) / calls)
    return statistics.median(per)


def field_costs() -> dict:
    from ndnkit.pairing import fields, gt_generator

    g = gt_generator()
    h = fields.f12_sqr(g)
    a, b = g[0][0], h[1][2]
    return {
        "pairing.f2_mul_ns": (_per_call_ns(fields.f2_mul, (a, b), calls=20000), "ns"),
        "pairing.f12_mul_ns": (_per_call_ns(fields.f12_mul, (g, h)), "ns"),
        "pairing.f12_sqr_ns": (_per_call_ns(fields.f12_sqr, (g,)), "ns"),
        "pairing.gs_sqr_ns": (_per_call_ns(fields.gs_sqr, (g,)), "ns"),
    }


def per_layer(loop: Loop, tracer, extras: dict) -> dict:
    w = loop.b.w
    spans, self_ns = tracer.spans, tracer.self_ns
    us = lambda name: (_median(spans.get(name, [])) / 1e3, "us")
    first = loop.sims[:COUNT_UNITS]
    counted = tracer.sim_units[:COUNT_UNITS]
    requests = sum(o.requests for o in first) or 1

    def events(*kinds):
        return sum(o.events[k] for o in first for k in kinds)

    def unit_sum(key):
        return sum(u[key] for u in counted)

    routers = [c for o in first for nid, c in o.counters.items() if nid.startswith("r")]
    hits = sum(c["cs_hits"] for c in routers)
    lookups = hits + sum(c["cs_misses"] for c in routers)
    run_s = [u["run_ns"] / 1e9 for u in tracer.sim_units]
    self_s = [u["run_ns"] / 1e9 - sum(u["children_ns"].values()) / 1e9 for u in tracer.sim_units]
    child = lambda layer: _median([u["children_ns"].get(layer, 0) / 1e9 for u in tracer.sim_units])

    m = {
        "simnet.run_s": (_median(run_s), "s"),
        "simnet.self_s": (_median(self_s), "s"),
        "simnet.child_node_s": (child("node"), "s"),
        "simnet.child_wire_s": (child("wire"), "s"),
        "simnet.child_signatures_s": (child("signatures"), "s"),
        "simnet.growth_2x": (extras["growth_2x"], "ratio"),
        "simnet.records_per_request": (sum(o.records for o in first) / requests, "count"),
        "simnet.arrivals_per_request": (events("recv_interest", "recv_data") / requests, "count"),
        "simnet.retransmissions": (events("timeout"), "count"),
        "simnet.give_ups": (events("give_up"), "count"),
        "naming.to_text_calls_per_request": (unit_sum("to_text") / requests, "count"),
        "naming.lpm_calls_per_request": (unit_sum("lpm") / requests, "count"),
        "naming.lpm_us": us("naming.lpm"),
        "wire.encode_us": us("wire.encode"),
        "wire.decode_us": us("wire.decode"),
        "wire.packets_per_request": (unit_sum("encode") / requests, "count"),
        "wire.bytes_per_packet": (unit_sum("bytes") / max(unit_sum("encode"), 1), "bytes"),
        "wire.signed_portion_us": us("wire.signed_portion"),
        "node.process_interest_us": us("node.process_interest"),
        "node.process_data_self_us": (_median(self_ns.get("node.process_data", [])) / 1e3, "us"),
        "node.cs_hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
        "node.pit_entries_end": (unit_sum("pit_end") / max(len(counted), 1), "count"),
        "node.cs_entries_end": (unit_sum("cs_end") / max(len(counted), 1), "count"),
        "node.verify_calls_per_request": (unit_sum("verify") / requests, "count"),
        "node.verify_us": us("node.verify_data"),
        "node.verify_unique_ratio": (
            unit_sum("verify_unique") / unit_sum("verify") if unit_sum("verify") else 0.0, "ratio"),
    }
    rounds = loop.rounds
    for name in w.SCHEMES:
        m[f"signatures.sign_us_p99.{name}"] = (_p99([r.sign_ns[name] for r in rounds]) / 1e3, "us")
    for name in w.SCHEMES:
        m[f"signatures.verify_us_p99.{name}"] = (
            _p99([r.verify_ns[name] for r in rounds]) / 1e3, "us")
    m["signatures.ecdsa_base_mul_us"] = us("signatures.ecdsa_base_mul")
    m["signatures.ecdsa_point_mul_us"] = us("signatures.ecdsa_point_mul")
    m["signatures.dl_gen_pow_us"] = us("signatures.dl_gen_pow")
    m["signatures.sign_calls_per_request"] = (unit_sum("sign") / requests, "count")

    product2, final_exp = us("pairing.product2")[0], us("pairing.final_exp")[0]
    m["pairing.product2_us"] = (product2, "us")
    m["pairing.final_exp_us"] = (final_exp, "us")
    m["pairing.miller2_us"] = (product2 - final_exp, "us")
    m["pairing.hash_to_g1_us"] = us("pairing.hash_to_g1")
    m["pairing.g1_decode_us"] = us("pairing.g1_decode")
    m["pairing.g1_mul_us"] = us("pairing.g1_mul")
    m["pairing.g1_multi_exp32_us"] = us("pairing.g1_multi_exp32")
    m.update(extras["field_costs"])
    for op in ("bls_verify", "batch_verify", "nc_verify"):
        m[f"pairing.calls_per_op.{op}"] = (_median([r.pairings[op] for r in rounds]), "count")
    m["pairing.calls_per_op.sim_request"] = (unit_sum("pairings") / requests, "count")

    batch_us = _median([r.batch_ns for r in rounds]) / 1e3
    base_us = w.BATCH_SIZE * _median([r.verify_ns["bls"] for r in rounds]) / 1e3
    m["accel.batch_verify_us"] = (batch_us, "us")
    m["accel.batch_speedup_base_us"] = (base_us, "us")
    m["accel.batch_speedup"] = (base_us / batch_us if batch_us else 0.0, "ratio")
    m["netcoding.commit_us"] = us("pairing.multi_exp_combine40")
    m["netcoding.combine_us"] = (_median([r.combine_ns for r in rounds]) / 1e3, "us")
    m["trace.overhead_ratio"] = (extras["overhead_ratio"], "ratio")
    for kind in CAL_REF_NS:
        m[f"bench.speed_scale.{kind}"] = (
            _median([k[kind] for k in loop.sim_scale + loop.round_scale]), "ratio")
    return m


def _at_reference(fn):
    """Run fn once: its result, wall seconds, and the interpreter scale around it."""
    before = calibrate()
    start = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - start
    return result, seconds, _scale(before, calibrate())["interp"]


def traced_extras(bench: Bench) -> tuple[dict, list]:
    """Growth, tracing overhead and field costs, measured before the traced loop.

    One sim unit runs untraced and then traced on identical inputs; the two
    must replay to identical trace and counter digests. The overhead compares
    the workload's own unit untraced and traced, twice each, at reference speed.
    """
    layers = importlib.import_module("layers")
    w, shape, seed = bench.w, bench.shape, bench.seed
    unit = w.unit_seed(seed, "extras", 0)
    half, _, k_half = _at_reference(lambda: w.run_sim(shape, unit, shape.requests // 2))
    full, _, k_full = _at_reference(lambda: w.run_sim(shape, unit, shape.requests))
    with layers.Tracer():
        traced = w.run_sim(shape, unit, shape.requests)

    if bench.primary == "crypto":
        def own_unit():
            _, seconds, k = _at_reference(
                lambda: [w.crypto_round(bench.suite, seed, i) for i in range(3)])
            return seconds * k
    else:
        def own_unit():
            outcome, _, k = _at_reference(lambda: w.run_sim(shape, unit, shape.requests))
            return outcome.run_s * k
    plain_s, traced_s = [], []
    for _ in range(2):
        plain_s.append(own_unit())
        with layers.Tracer():
            traced_s.append(own_unit())
    same = [(full.trace_sha256, full.counters_sha256), (traced.trace_sha256, traced.counters_sha256)]
    extras = {
        "growth_2x": (full.run_s * k_full) / (half.run_s * k_half),
        "overhead_ratio": _median(traced_s) / _median(plain_s) - 1.0,
        "field_costs": field_costs(),
    }
    return extras, same


# --- entry point -------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this process and print it")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ndnkit" / "__init__.py").is_file():
        print(f"error: no ndnkit source tree under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    _pin_to_one_cpu()

    bench, setup_s, setup_ref_s = setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_ref_s": setup_ref_s}))
        return 0
    setups = [(setup_s, setup_ref_s)] + [fresh_setup(args) for _ in range(SETUP_REPEATS - 1)]

    loop = Loop(bench)
    digests = []
    correct = True
    if args.trace:
        extras, pair = traced_extras(bench)
        correct &= pair[0] == pair[1]
        digests.append({"unit": "extras", "untraced": pair[0], "traced": pair[1]})
        layers = importlib.import_module("layers")
        with layers.Tracer() as tracer:
            loop.run(args.seconds)
    else:
        loop.run(args.seconds)
    checked, check_failures = bench.w.sample_checks(bench.suite, args.seed)

    undelivered = sum(o.requests - o.delivered for o in loop.sims)
    wrong = sum(o.wrong_payload for o in loop.sims)
    crypto_failed = sum(r.failed for r in loop.rounds)
    attempted = (sum(o.requests for o in loop.sims)
                 + len(loop.rounds) * bench.w.OPS_PER_ROUND + checked)
    failed = undelivered + wrong + crypto_failed + check_failures
    correct &= wrong == 0 and crypto_failed == 0 and check_failures == 0
    digests += [{"unit": i, "requests": o.requests, "trace_sha256": o.trace_sha256,
                 "counters_sha256": o.counters_sha256} for i, o in enumerate(loop.sims)]

    metrics = per_layer(loop, tracer, extras) if args.trace else end_to_end(
        loop, statistics.median(ref for _, ref in setups))
    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(), "setup_runs_s": setups,
        "sim_units": len(loop.sims), "crypto_rounds": len(loop.rounds),
        "digests": digests,
        "raw_metrics": {k: v for k, (v, _) in end_to_end(
            loop, statistics.median(raw for raw, _ in setups), scaled=False).items()},
        "speed_scale": {
            kind: [min(k[kind] for k in loop.sim_scale + loop.round_scale),
                   _median([k[kind] for k in loop.sim_scale + loop.round_scale]),
                   max(k[kind] for k in loop.sim_scale + loop.round_scale)]
            for kind in CAL_REF_NS},
    }
    if args.trace:
        record["spans"] = {
            name: {"count": len(d), "median_us": _median(d) / 1e3,
                   "p99_us": _p99(d) / 1e3, "total_s": sum(d) / 1e9}
            for name, d in sorted(tracer.spans.items()) if d
        }
    out_dir = ROOT / ".perfbench_results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, "result": result}, indent=1, sort_keys=True))
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
