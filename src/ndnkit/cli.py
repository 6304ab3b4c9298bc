"""Command-line front end: benchmarks, simulations, and key generation.

Three subcommands:

  bench   times keygen/sign/verify for the signature schemes and emits a CSV
          table plus per-operation rankings derived from the same rows
  sim     runs a topology/scenario config through the simulator and writes
          the trace and per-node counters
  keygen  writes a serialized key pair; the public half loads straight into
          a trust store

Benchmarks run every scheme at the suite's one strength, 80 bits, so schemes
are compared at matched strength. They warm up with ten untimed iterations,
read a monotonic clock, and pin themselves to one logical core where the
platform allows.
Timing tables report microseconds. Absolute numbers are hardware-specific;
only orderings and ratios are meaningful across machines.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import signatures as sigs
from . import simnet

OPERATIONS = ("keygen", "sign", "verify")
BENCH_HEADER = ("scheme", "operation", "iterations", "mean_us", "stdev_us", "msg_size")
WARMUP = 10
DEFAULT_MSG_SIZE = 1024
DEFAULT_KEYGEN_ITERATIONS = 25

BENCH_SCHEMES = ("rsa", "dsa", "ecdsa", "bls", "group", "ring")
_SCHEME_IDS = {name: sid for sid, name in sigs.SCHEME_NAMES.items()}


class UnknownScheme(ValueError):
    """A scheme name outside the benchmark/keygen roster."""


@dataclass(frozen=True)
class BenchRow:
    scheme: str
    operation: str
    iterations: int
    mean_us: float
    stdev_us: float
    msg_size: int


def _scheme_id(name: str) -> int:
    if name not in BENCH_SCHEMES:
        raise UnknownScheme(f"unknown scheme {name!r}; choose from {', '.join(BENCH_SCHEMES)}")
    return _SCHEME_IDS[name]


def _pin_to_one_cpu() -> None:
    if not hasattr(os, "sched_setaffinity"):
        return
    try:
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
    except OSError:
        pass


class _SchemeHarness:
    """Keys and closures for timing one scheme's operations."""

    def __init__(self, name: str, rng: random.Random):
        self.name = name
        scheme_id = _scheme_id(name)
        self.rng = rng
        if name == "group":
            setup = sigs.group_setup(rng=rng)
            cred = setup.credentials[0]
            self.keygen = setup.add_member
            self.sign = lambda msg: sigs.group_sign(cred, setup.group_key, msg, rng)
            self.verify = lambda msg, sig: sigs.group_verify(setup.group_key, msg, sig)
        elif name == "ring":
            keys = [sigs.keygen(scheme_id, rng=rng) for _ in range(sigs.SchemeParams.ring_size)]
            pubs = [k.public() for k in keys]
            self.keygen = lambda: sigs.keygen(scheme_id, rng=rng)
            self.sign = lambda msg: sigs.ring_sign(pubs, 0, keys[0], msg, rng)
            self.verify = lambda msg, sig: sigs.ring_verify(pubs, msg, sig)
        else:
            key = sigs.keygen(scheme_id, rng=rng)
            pub = key.public()
            self.keygen = lambda: sigs.keygen(scheme_id, rng=rng)
            self.sign = lambda msg: sigs.sign(key, msg, rng).data
            self.verify = lambda msg, sig: sigs.verify(pub, msg, sig)


def _timed(fn, args_per_iteration) -> list[int]:
    for args in args_per_iteration[:WARMUP]:
        fn(*args)
    samples = []
    for args in args_per_iteration:
        start = time.perf_counter_ns()
        fn(*args)
        samples.append(time.perf_counter_ns() - start)
    return samples


def _row(scheme: str, operation: str, samples: list[int], msg_size: int) -> BenchRow:
    mean = statistics.fmean(samples) / 1000.0
    stdev = statistics.stdev(samples) / 1000.0 if len(samples) > 1 else 0.0
    return BenchRow(
        scheme=scheme,
        operation=operation,
        iterations=len(samples),
        mean_us=mean,
        stdev_us=stdev,
        msg_size=msg_size,
    )


def bench_rows(
    schemes=BENCH_SCHEMES,
    iterations: int = 1000,
    msg_size: int = DEFAULT_MSG_SIZE,
    operations=OPERATIONS,
    keygen_iterations: int | None = None,
    seed: int = 0,
) -> list[BenchRow]:
    """Time the requested operations, one row per (scheme, operation)."""
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if keygen_iterations is not None and keygen_iterations < 1:
        raise ValueError("keygen_iterations must be >= 1")
    if msg_size < 0:
        raise ValueError("msg_size must be >= 0")
    for op in operations:
        if op not in OPERATIONS:
            raise ValueError(f"unknown operation {op!r}")
    if keygen_iterations is None:
        keygen_iterations = min(iterations, DEFAULT_KEYGEN_ITERATIONS)
    rows = []
    for name in schemes:
        rng = random.Random(f"bench/{seed}/{name}")
        harness = _SchemeHarness(name, rng)
        messages = [rng.randbytes(msg_size) for _ in range(iterations)]
        if "keygen" in operations:
            empty = [()] * keygen_iterations
            rows.append(_row(name, "keygen", _timed(harness.keygen, empty), msg_size))
        if "sign" in operations:
            args = [(m,) for m in messages]
            rows.append(_row(name, "sign", _timed(harness.sign, args), msg_size))
        if "verify" in operations:
            args = [(m, harness.sign(m)) for m in messages]
            samples = _timed(harness.verify, args)
            rows.append(_row(name, "verify", samples, msg_size))
    return rows


def rankings(rows: list[BenchRow]) -> dict[str, list[str]]:
    """Scheme names per operation, fastest mean first, from the given rows."""
    ordered: dict[str, list[str]] = {}
    for op in OPERATIONS:
        measured = sorted(
            (r for r in rows if r.operation == op), key=lambda r: r.mean_us
        )
        if measured:
            ordered[op] = [r.scheme for r in measured]
    return ordered


def write_bench_csv(rows: list[BenchRow], stream) -> None:
    writer = csv.writer(stream)
    writer.writerow(BENCH_HEADER)
    for r in rows:
        writer.writerow(
            (r.scheme, r.operation, r.iterations,
             f"{r.mean_us:.3f}", f"{r.stdev_us:.3f}", r.msg_size)
        )


# --- subcommands -------------------------------------------------------------


def cmd_bench(args) -> int:
    _pin_to_one_cpu()
    schemes = args.schemes or list(BENCH_SCHEMES)
    for name in schemes:
        _scheme_id(name)
    rows = bench_rows(
        schemes,
        iterations=args.iterations,
        msg_size=args.msg_size,
        keygen_iterations=args.keygen_iterations,
        seed=args.seed,
    )
    if args.out:
        with open(args.out, "w", newline="") as fh:
            write_bench_csv(rows, fh)
    else:
        write_bench_csv(rows, sys.stdout)
    for op, order in rankings(rows).items():
        print(f"ranking {op} (fastest to slowest): {', '.join(order)}", file=sys.stderr)
    return 0


def _read_config(path: str, what: str) -> dict:
    """The JSON object in the file at path; what names the config in errors."""
    try:
        config = json.loads(Path(path).read_text())
    except UnicodeDecodeError as exc:
        raise simnet.ConfigError(f"{what} config {path} is not UTF-8 text: {exc}") from exc
    if not isinstance(config, dict):
        raise simnet.ConfigError(f"{what} config must be a JSON object")
    return config


def cmd_sim(args) -> int:
    config = _read_config(args.topology, "topology")
    if args.scenario:
        overlay = _read_config(args.scenario, "scenario")
        for key in ("schedule", "attacks", "seed", "tick_limit"):
            if key in overlay:
                config[key] = overlay[key]
    topology, scenario = simnet.load_config(config)
    trace = simnet.run(topology, scenario)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "trace.jsonl").write_text(trace.to_jsonl())
    with open(out_dir / "counters.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("node", "counter", "value"))
        for node_id in sorted(trace.counters):
            for counter, value in trace.counters[node_id].items():
                writer.writerow((node_id, counter, value))

    delivered = sum(1 for r in trace.requests if r.delivered is not None)
    print(
        f"{len(trace.records)} trace records, "
        f"{delivered}/{len(trace.requests)} requests delivered, "
        f"output in {out_dir}"
    )
    return 0


def cmd_keygen(args) -> int:
    scheme_id = _scheme_id(args.scheme)
    rng = random.Random(args.seed) if args.seed is not None else None
    if args.scheme == "group":
        setup = sigs.group_setup(rng=rng, members=1)
        private, public = setup.credentials[0], setup.group_key
    else:
        private = sigs.keygen(scheme_id, rng=rng)
        public = private.public()
    out = Path(args.out)
    out.write_bytes(sigs.serialize_private(private))
    pub_path = out.with_name(out.name + ".pub")
    pub_path.write_bytes(sigs.serialize_public(public))
    print(f"wrote {out} and {pub_path}")
    return 0


# --- argument parsing --------------------------------------------------------


def _int_at_least(least: int):
    """An argparse type: an integer no smaller than least, so that a count
    the benchmark cannot use exits 2 with a message before any work runs."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ndnkit",
        description="NDN signature-suite benchmarks, simulations, and keys",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="time signature scheme operations")
    bench.add_argument("--schemes", nargs="+", metavar="SCHEME",
                       help=f"subset of: {', '.join(BENCH_SCHEMES)} (default all)")
    bench.add_argument("--iterations", type=_int_at_least(1), default=1000)
    bench.add_argument("--msg-size", type=_int_at_least(0), default=DEFAULT_MSG_SIZE,
                       help="signed message size in bytes (default 1024)")
    bench.add_argument("--keygen-iterations", type=_int_at_least(1), default=None,
                       help="samples for the keygen rows (default min(iterations, 25); "
                            "RSA key generation is orders slower than signing)")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", help="write the CSV table here instead of stdout")
    bench.set_defaults(func=cmd_bench)

    sim = sub.add_parser("sim", help="run a simulation config")
    sim.add_argument("--topology", required=True, help="JSON topology config")
    sim.add_argument("--scenario",
                     help="optional JSON overriding schedule/attacks/seed/tick_limit")
    sim.add_argument("--out", required=True, help="output directory")
    sim.set_defaults(func=cmd_sim)

    keygen = sub.add_parser("keygen", help="generate and serialize a key pair")
    keygen.add_argument("--scheme", required=True)
    keygen.add_argument("--out", required=True,
                        help="private key file; public half goes to FILE.pub")
    keygen.add_argument("--seed", type=int, default=None,
                        help="deterministic generation for reproducible fixtures")
    keygen.set_defaults(func=cmd_keygen)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UnknownScheme as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, simnet.ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except simnet.TickLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
