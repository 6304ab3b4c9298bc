"""Inputs and units of work for the ndnkit benchmark.

Two kinds of unit are timed, one at a time (closed loop):

* a sim unit is one whole ``simnet.run`` over a binary router tree of depth 5
  (31 routers, 32 consumers on the leaves, one producer at the root); its
  schedule, names and scenario seed all derive from the workload seed and the
  unit's index;
* a crypto round signs one fresh 1 KiB message with each of the six schemes,
  round-robin, and verifies it twice, timing the second call; then it runs one BLS batch verification of 32
  signatures from 4 signers and one network-coding combine plus ``nc_verify``
  over an 8-packet generation.

Everything here uses the public ndnkit API only.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from collections import Counter
from dataclasses import dataclass

from ndnkit import accel, netcoding, simnet
from ndnkit import signatures as sigs
from ndnkit.pairing import pairing_call_count

TREE_DEPTH = 5  # levels of routers: 1 + 2 + 4 + 8 + 16 = 31
CONSUMERS_PER_LEAF = 2
REQUEST_GAP_TICKS = 8  # mean spacing of requests across all consumers


@dataclass(frozen=True)
class SimShape:
    """One sim workload: its producer, verification policy and name set."""

    name: str
    scheme: str
    consumers_verify: bool
    names: tuple[str, ...]
    zipf: bool
    requests: int  # per unit


def _zipf_names() -> tuple[str, ...]:
    return tuple(f"/snnu/obj{k}/v1/s1" for k in range(50))


def _churn_names() -> tuple[str, ...]:
    # about 8 components each; 4096 names against 64-entry router caches
    return tuple(
        f"/snnu/site{k % 8}/dept{k % 5}/videos/clip{k}/v1/res720/s{k % 3}"
        for k in range(4096)
    )


ZIPF_BLS = SimShape("sim_zipf_bls", "bls", True, _zipf_names(), True, 100)
CHURN_FORWARD = SimShape("sim_churn_forward", "ecdsa", False, _churn_names(), False, 100)


def unit_seed(seed: int, label: str, index: int) -> int:
    digest = hashlib.sha256(f"ndnkit-perfbench/{seed}/{label}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def tree_config(shape: SimShape, scenario_seed: int, requests: int) -> dict:
    """The topology plus a schedule of ``requests`` requests, as ``ndnkit sim`` reads it."""
    nodes, links = [], []
    routers = 2**TREE_DEPTH - 1
    next_face: dict[str, int] = {}

    def link(a: str, b: str) -> None:
        fa = next_face[a] = next_face.get(a, 0) + 1
        fb = next_face[b] = next_face.get(b, 0) + 1
        links.append({"a": a, "a_face": fa, "b": b, "b_face": fb, "latency": 1})

    nodes.append({"id": "p0", "role": "producer"})
    for i in range(routers):
        nodes.append({"id": f"r{i}", "role": "router"})
    link("r0", "p0")
    for i in range(1, routers):
        link(f"r{(i - 1) // 2}", f"r{i}")
    first_leaf = routers // 2
    consumers = []
    for j in range((routers - first_leaf) * CONSUMERS_PER_LEAF):
        cid = f"c{j}"
        consumers.append(cid)
        nodes.append({"id": cid, "role": "consumer", "verify": shape.consumers_verify})
        link(f"r{first_leaf + j // CONSUMERS_PER_LEAF}", cid)

    rng = random.Random(f"ndnkit-perfbench/schedule/{scenario_seed}")
    if shape.zipf:
        weights = [1.0 / (k + 1) for k in range(len(shape.names))]
        picks = rng.choices(shape.names, weights=weights, k=requests)
    else:
        picks = [rng.choice(shape.names) for _ in range(requests)]
    schedule = []
    for i, name in enumerate(picks):
        tick = i * REQUEST_GAP_TICKS + rng.randrange(REQUEST_GAP_TICKS)
        schedule.append({"tick": tick, "consumer": rng.choice(consumers), "name": name})
    return {
        "seed": scenario_seed,
        "nodes": nodes,
        "links": links,
        "producers": [{"prefix": "/snnu", "node": "p0", "scheme": shape.scheme}],
        "schedule": schedule,
    }


@dataclass
class SimOutcome:
    """What the metrics need from one instance; the trace itself is dropped."""

    requests: int
    delivered: int
    wrong_payload: int
    run_s: float
    records: int
    events: Counter
    counters: dict[str, dict[str, int]]
    trace_sha256: str
    counters_sha256: str


def run_sim(shape: SimShape, scenario_seed: int, requests: int) -> SimOutcome:
    """Build one instance, time ``simnet.run`` alone, and check every delivery."""
    config = json.dumps(tree_config(shape, scenario_seed, requests))
    topology, scenario = simnet.load_config(config)
    start = time.perf_counter()
    trace = simnet.run(topology, scenario)
    run_s = time.perf_counter() - start
    delivered = [r for r in trace.requests if r.delivered is not None]
    wrong = sum(
        r.delivered != simnet.producer_payload(scenario.seed, r.name) for r in delivered
    )
    return SimOutcome(
        requests=len(trace.requests),
        delivered=len(delivered),
        wrong_payload=wrong,
        run_s=run_s,
        records=len(trace.records),
        events=Counter(r["event"] for r in trace.records),
        counters=trace.counters,
        trace_sha256=hashlib.sha256(trace.to_jsonl().encode()).hexdigest(),
        counters_sha256=hashlib.sha256(
            json.dumps(trace.counters, sort_keys=True).encode()
        ).hexdigest(),
    )


# --- the scheme suite ---------------------------------------------------------

SCHEMES = ("rsa", "dsa", "ecdsa", "bls", "group", "ring")
MESSAGE_BYTES = 1024
BATCH_SIGNERS = 4
BATCH_SIZE = 32
BATCH_POOL = 16  # pre-signed messages per batch signer
NC_CONTENT_BYTES = 4000
OPS_PER_ROUND = 3 * len(SCHEMES) + 3  # sign, verify twice; batch, combine, nc_verify


class _Scheme:
    """Keys for one scheme and its sign/verify calls through the public API."""

    def __init__(self, name: str, rng: random.Random):
        sid = {v: k for k, v in sigs.SCHEME_NAMES.items()}[name]
        params = sigs.reference_params(sid)
        if name == "group":
            setup = sigs.group_setup(params, rng)
            cred, gk = setup.credentials[0], setup.group_key
            self.sign = lambda msg, r: sigs.group_sign(cred, gk, msg, r)
            self.verify = lambda msg, sig: sigs.group_verify(gk, msg, sig)
        elif name == "ring":
            keys = [sigs.keygen(sid, params, rng) for _ in range(params.ring_size)]
            pubs = [k.public() for k in keys]
            self.sign = lambda msg, r: sigs.ring_sign(pubs, 0, keys[0], msg, r)
            self.verify = lambda msg, sig: sigs.ring_verify(pubs, msg, sig)
        else:
            key = sigs.keygen(sid, params, rng)
            pub = key.public()
            self.sign = lambda msg, r: sigs.sign(key, msg, r).data
            self.verify = lambda msg, sig: sigs.verify(pub, msg, sig)


class CryptoSuite:
    """Keys, a batch pool and a network-coded generation, built once per run.

    Keys come from a fixed label rather than the workload seed: RSA key
    generation time varies by an order of magnitude with the primes found,
    and set-up time is gated. Messages and coefficients come from the seed.
    """

    def __init__(self):
        rng = random.Random("ndnkit-perfbench/keys")
        self.schemes = {name: _Scheme(name, rng) for name in SCHEMES}
        bls_params = sigs.reference_params(sigs.SCHEME_BLS)
        self.batch_pool = []
        for s in range(BATCH_SIGNERS):
            key = sigs.keygen(sigs.SCHEME_BLS, bls_params, rng)
            for i in range(BATCH_POOL):
                msg = f"batch/{s}/{i}".encode() * 8
                self.batch_pool.append((key.public(), msg, sigs.sign(key, msg).data))
        self.nc_key = netcoding.nc_keygen(rng)
        self.nc_content = rng.randbytes(NC_CONTENT_BYTES)
        gen = netcoding.Generation(b"ndnkit-perfbench/generation")
        self.nc_packets = [
            netcoding.nc_sign(self.nc_key, gen, v)
            for v in netcoding.split_and_augment(self.nc_content)
        ]


@dataclass
class RoundTimes:
    sign_ns: dict[str, int]
    verify_ns: dict[str, int]
    batch_ns: int
    combine_ns: int
    nc_verify_ns: int
    pairings: dict[str, int]
    failed: int


def crypto_round(suite: CryptoSuite, seed: int, index: int) -> RoundTimes:
    """One round; every result is checked, and a wrong one counts as failed."""
    rng = random.Random(unit_seed(seed, "crypto", index))
    clock = time.perf_counter_ns
    count = pairing_call_count
    sign_ns, verify_ns, pairings = {}, {}, {}
    failed = 0
    start_at = index % len(SCHEMES)  # rotate who goes first, so drift hits all alike
    for name in SCHEMES[start_at:] + SCHEMES[:start_at]:
        scheme = suite.schemes[name]
        msg = rng.randbytes(MESSAGE_BYTES)
        t0 = clock()
        sig = scheme.sign(msg, rng)
        t1 = clock()
        # an untimed first verify, so the timed one runs with warm caches:
        # cold, the ~100 us RSA verify swings by a third with the VM's phases
        failed += not scheme.verify(msg, sig)
        c0 = count()
        t2 = clock()
        ok = scheme.verify(msg, sig)
        t3 = clock()
        if name == "bls":
            pairings["bls_verify"] = count() - c0
        sign_ns[name], verify_ns[name] = t1 - t0, t3 - t2
        failed += not ok

    batch = accel.BatchInstance(sigs.SCHEME_BLS, rng.sample(suite.batch_pool, BATCH_SIZE))
    c0 = count()
    t0 = clock()
    ok = accel.batch_verify(batch)
    batch_ns = clock() - t0
    pairings["batch_verify"] = count() - c0
    failed += not ok

    coeffs = [rng.randrange(1, netcoding.CURVE_ORDER) for _ in suite.nc_packets]
    t1 = clock()
    coded = netcoding.combine(suite.nc_packets, coeffs)
    t2 = clock()
    c0 = count()
    ok = netcoding.nc_verify(suite.nc_key.public(), coded)
    t3 = clock()
    pairings["nc_verify"] = count() - c0
    failed += not ok
    return RoundTimes(sign_ns, verify_ns, batch_ns, t2 - t1, t3 - t2, pairings, failed)


def sample_checks(suite: CryptoSuite, seed: int) -> tuple[int, int]:
    """Checks made outside the timed loop; returns (attempted, failed).

    Each scheme's fresh signature must verify and a one-bit flip of it must
    not; a batch holding one signature over the wrong message must be
    rejected; 8 recombined coded packets must decode to the content.
    """
    rng = random.Random(unit_seed(seed, "checks", 0))
    outcomes = []
    for scheme in suite.schemes.values():
        msg = rng.randbytes(MESSAGE_BYTES)
        sig = scheme.sign(msg, rng)
        outcomes.append(scheme.verify(msg, sig) is True)
        bit = rng.randrange(8 * len(sig))
        flipped = bytearray(sig)
        flipped[bit // 8] ^= 1 << (bit % 8)
        outcomes.append(scheme.verify(msg, bytes(flipped)) is False)
    entries = rng.sample(suite.batch_pool, BATCH_SIZE)
    pk, msg, _ = entries[0]
    entries[0] = (pk, msg, entries[1][2])
    outcomes.append(accel.batch_verify(accel.BatchInstance(sigs.SCHEME_BLS, entries)) is False)
    coded = [
        netcoding.combine(
            suite.nc_packets,
            [rng.randrange(1, netcoding.CURVE_ORDER) for _ in suite.nc_packets],
        )
        for _ in suite.nc_packets
    ]
    outcomes.append(netcoding.decode(coded) == suite.nc_content)
    return len(outcomes), outcomes.count(False)
