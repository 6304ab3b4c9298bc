"""Acceptance suite: one test per release criterion, run in order.

Each test stands alone, pins its seeds, asserts the criterion at its stated
tolerance, and finishes by printing a single PASS line (pytest -v shows the
same verdict per test). Timing criteria check orderings and ratios, never
absolute milliseconds; the stated wall-clock budgets are asserted too.
"""

import json
import random
import statistics
import time

from ndnkit import accel, cli, netcoding, simnet
from ndnkit import signatures as sigs
from ndnkit.naming import parse_name
from ndnkit.node import Node
from ndnkit.pairing import CURVE_ORDER, pairing_call_count
from ndnkit.wire import Data, Interest, signed_portion


def _flip_random_bit(raw: bytes, rng: random.Random) -> bytes:
    position = rng.randrange(len(raw) * 8)
    out = bytearray(raw)
    out[position // 8] ^= 1 << (position % 8)
    return bytes(out)


def _means(rows) -> dict[str, float]:
    return {r.scheme: r.mean_us for r in rows}


def _assert_separated(slow: str, fast: str, means: dict[str, float], factor: float):
    assert means[slow] >= factor * means[fast], (
        f"expected {slow} >= {factor}x {fast}, got "
        f"{means[slow]:.1f}us vs {means[fast]:.1f}us"
    )


# --- criterion 1: verify-time ordering ---------------------------------------


def test_criterion_01_verify_time_ordering():
    start = time.perf_counter()
    rows = cli.bench_rows(iterations=1000, operations=("verify",), seed=11)
    elapsed = time.perf_counter() - start
    means = _means(rows)
    for slow, fast in [
        ("ring", "group"), ("group", "dsa"),          # ring > group > DSA
        ("ring", "bls"), ("bls", "rsa"),              # ring > BLS > RSA
        ("ring", "rsa"), ("ring", "dsa"), ("ring", "ecdsa"),   # ring is max
        ("dsa", "rsa"), ("ecdsa", "rsa"), ("group", "rsa"),    # RSA is min
    ]:
        _assert_separated(slow, fast, means, 1.15)
    assert max(means, key=means.get) == "ring"
    assert min(means, key=means.get) == "rsa"
    assert elapsed < 180, f"verify benchmark took {elapsed:.0f}s"
    ladder = ", ".join(f"{s}={means[s]:.0f}us" for s in sorted(means, key=means.get))
    print(f"criterion 1 verify ordering: PASS ({elapsed:.0f}s; {ladder})")


# --- criterion 2: sign-time ordering -----------------------------------------


def test_criterion_02_sign_time_ordering():
    start = time.perf_counter()
    rows = cli.bench_rows(iterations=1000, operations=("sign",), seed=12)
    elapsed = time.perf_counter() - start
    means = _means(rows)
    slowest_two = sorted(means, key=means.get)[-2:]
    assert set(slowest_two) == {"ring", "rsa"}, f"slowest two were {slowest_two}"
    fast_median = statistics.median(means[s] for s in ("dsa", "ecdsa", "bls", "group"))
    _assert_separated("ring", "_median", {**means, "_median": fast_median}, 5.0)
    _assert_separated("rsa", "_median", {**means, "_median": fast_median}, 5.0)
    assert elapsed < 120, f"sign benchmark took {elapsed:.0f}s"
    print(f"criterion 2 sign ordering: PASS ({elapsed:.0f}s; ring={means['ring']:.0f}us, "
          f"rsa={means['rsa']:.0f}us, median of others={fast_median:.0f}us)")


# --- criterion 3: signature sizes --------------------------------------------


def test_criterion_03_signature_sizes():
    rng = random.Random(13)
    msg = rng.randbytes(256)

    dsa_key = sigs.keygen(sigs.SCHEME_DSA, sigs.reference_params(sigs.SCHEME_DSA), rng)
    assert len(sigs.sign(dsa_key, msg, rng).data) * 8 == 320

    ec_key = sigs.keygen(sigs.SCHEME_ECDSA, sigs.reference_params(sigs.SCHEME_ECDSA), rng)
    assert len(sigs.sign(ec_key, msg, rng).data) * 8 == 320

    rsa_key = sigs.keygen(sigs.SCHEME_RSA, sigs.reference_params(sigs.SCHEME_RSA), rng)
    assert len(sigs.sign(rsa_key, msg).data) * 8 == 1024

    bls_key = sigs.keygen(sigs.SCHEME_BLS, rng=rng)
    bls_sig = sigs.sign(bls_key, msg)
    assert len(bls_sig.data) == 21  # one compressed curve point: 1 + ceil(160/8)

    keys = [sigs.keygen(sigs.SCHEME_BLS, rng=rng) for _ in range(16)]
    messages = [rng.randbytes(64) for _ in range(16)]
    sixteen = accel.aggregate(
        [sigs.sign(k, m) for k, m in zip(keys, messages)],
        [(k.public(), m) for k, m in zip(keys, messages)],
    )
    one = accel.aggregate([sigs.sign(keys[0], messages[0])],
                          [(keys[0].public(), messages[0])])
    assert accel.verify_aggregate(sixteen)
    assert len(sixteen.element.to_bytes()) == len(one.element.to_bytes()) == 21
    print("criterion 3 signature sizes: PASS (DSA/ECDSA 320-bit, RSA 1024-bit, "
          "BLS 21 B, aggregate n=16 == n=1)")


# --- criterion 4: crypto property suite --------------------------------------


def _scheme_drivers(rng: random.Random):
    """name -> (sign(msg) -> raw bytes, verify(msg, raw) -> bool)."""
    drivers = {}
    for name in ("rsa", "dsa", "ecdsa", "bls"):
        scheme_id = {"rsa": sigs.SCHEME_RSA, "dsa": sigs.SCHEME_DSA,
                     "ecdsa": sigs.SCHEME_ECDSA, "bls": sigs.SCHEME_BLS}[name]
        key = sigs.keygen(scheme_id, sigs.reference_params(scheme_id), rng)
        pub = key.public()
        drivers[name] = (
            lambda m, k=key: sigs.sign(k, m, rng).data,
            lambda m, s, p=pub: sigs.verify(p, m, s),
        )
    setup = sigs.group_setup(sigs.reference_params(sigs.SCHEME_GROUP), rng)
    cred = setup.credentials[0]
    drivers["group"] = (
        lambda m: sigs.group_sign(cred, setup.group_key, m, rng),
        lambda m, s: sigs.group_verify(setup.group_key, m, s),
    )
    ring_keys = [
        sigs.keygen(sigs.SCHEME_RING, sigs.reference_params(sigs.SCHEME_RING), rng)
        for _ in range(5)
    ]
    ring_pubs = [k.public() for k in ring_keys]
    drivers["ring"] = (
        lambda m: sigs.ring_sign(ring_pubs, 2, ring_keys[2], m, rng),
        lambda m, s: sigs.ring_verify(ring_pubs, m, s),
    )
    return drivers


def test_criterion_04_crypto_property_suite():
    start = time.perf_counter()
    rng = random.Random(14)
    trials = 1000

    for name, (sign, verify) in _scheme_drivers(rng).items():
        accepted = tamper_rejected = 0
        for _ in range(trials):
            msg = rng.randbytes(96)
            raw = sign(msg)
            accepted += verify(msg, raw)
            tamper_rejected += not verify(msg, _flip_random_bit(raw, rng))
        assert accepted == trials, f"{name}: {trials - accepted} round trips failed"
        assert tamper_rejected == trials, (
            f"{name}: {trials - tamper_rejected} tampered signatures accepted"
        )

    bls_keys = [sigs.keygen(sigs.SCHEME_BLS, rng=rng) for _ in range(4)]
    false_accepts = 0
    for _ in range(100):
        entries = []
        for i in range(100):
            key = bls_keys[i % 4]
            msg = rng.randbytes(48)
            entries.append((key.public(), msg, sigs.sign(key, msg)))
        victim = rng.randrange(100)
        pk, msg, sig = entries[victim]
        entries[victim] = (pk, msg, _flip_random_bit(sig.data, rng))
        false_accepts += accel.batch_verify(
            accel.BatchInstance(sigs.SCHEME_BLS, entries)
        )
    assert false_accepts == 0, f"{false_accepts} corrupted batches accepted"

    sav_key = sigs.keygen(sigs.SCHEME_BLS, rng=rng)
    sav_pub = sav_key.public()
    lying_accepts = 0
    for _ in range(100):
        msg = rng.randbytes(48)
        recorder = _RecordingServer()
        assert accel.sav_verify(sav_pub, msg, sigs.sign(sav_key, msg), recorder,
                                random.Random(rng.random()))
        forged = sigs.sign(sav_key, rng.randbytes(48))  # valid sig, wrong message
        liar = _ReplayServer(recorder.answers)
        lying_accepts += accel.sav_verify(sav_pub, msg, forged, liar,
                                          random.Random(rng.random()))
    assert lying_accepts == 0, f"{lying_accepts} lying-server runs accepted"

    elapsed = time.perf_counter() - start
    assert elapsed < 600, f"property suite took {elapsed:.0f}s"
    print(f"criterion 4 crypto properties: PASS ({elapsed:.0f}s; 6x{trials} round "
          f"trips, 6x{trials} tampers, 100 corrupted batches, 100 lying-server runs)")


class _RecordingServer:
    """Honest pairing server that keeps a transcript of its answers."""

    def __init__(self):
        self.inner = accel.LocalPairingServer()
        self.answers = []

    def query(self, g1_blob: bytes, g2_blob: bytes) -> bytes:
        answer = self.inner.query(g1_blob, g2_blob)
        self.answers.append(answer)
        return answer


class _ReplayServer:
    """Liar that answers every query with a stale honest transcript."""

    def __init__(self, canned):
        self.canned = list(canned)
        self.cursor = 0

    def query(self, g1_blob: bytes, g2_blob: bytes) -> bytes:
        answer = self.canned[self.cursor % len(self.canned)]
        self.cursor += 1
        return answer


# --- criterion 5: online/offline speedup -------------------------------------


def test_criterion_05_online_offline_speedup():
    rng = random.Random(15)
    key = sigs.keygen(sigs.SCHEME_RSA, sigs.reference_params(sigs.SCHEME_RSA), rng)
    trials = 1000

    base_samples = []
    for _ in range(trials):
        msg = rng.randbytes(256)
        t0 = time.perf_counter_ns()
        sigs.sign(key, msg)
        base_samples.append(time.perf_counter_ns() - t0)

    tokens = [accel.offline_prepare(key, rng=rng) for _ in range(trials)]
    online_samples = []
    for token in tokens:
        msg = rng.randbytes(256)
        t0 = time.perf_counter_ns()
        sig = accel.online_sign(token, msg)
        online_samples.append(time.perf_counter_ns() - t0)
        assert accel.online_verify(key.public(), msg, sig)

    base_median = statistics.median(base_samples)
    online_median = statistics.median(online_samples)
    assert online_median <= base_median / 50, (
        f"online median {online_median}ns vs base {base_median}ns"
    )
    print(f"criterion 5 online/offline: PASS (online {online_median/1000:.1f}us "
          f"vs base sign {base_median/1000:.1f}us, "
          f"{base_median/online_median:.0f}x speedup)")


# --- criterion 6: server-aided verification cost ------------------------------


class _CountingServer:
    def __init__(self):
        self.inner = accel.LocalPairingServer()
        self.pairings = 0
        self.queries = 0

    def query(self, g1_blob: bytes, g2_blob: bytes) -> bytes:
        before = pairing_call_count()
        answer = self.inner.query(g1_blob, g2_blob)
        self.pairings += pairing_call_count() - before
        self.queries += 1
        return answer


def test_criterion_06_server_aided_verification():
    rng = random.Random(16)
    key = sigs.keygen(sigs.SCHEME_BLS, rng=rng)
    pub = key.public()
    runs = 50

    before = pairing_call_count()
    for i in range(runs):
        msg = f"plain {i}".encode()
        assert sigs.verify(pub, msg, sigs.sign(key, msg))
    plain_pairings = pairing_call_count() - before

    server = _CountingServer()
    before = pairing_call_count()
    for i in range(runs):
        msg = f"delegated {i}".encode()
        assert accel.sav_verify(pub, msg, sigs.sign(key, msg), server, rng)
    total = pairing_call_count() - before
    verifier_pairings = total - server.pairings

    assert verifier_pairings == 0, f"verifier computed {verifier_pairings} pairings"
    reduction = (plain_pairings - verifier_pairings) / plain_pairings
    assert reduction >= 0.5

    t0 = time.perf_counter()
    for i in range(runs):
        sigs.verify(pub, b"w%d" % i, sigs.sign(key, b"w%d" % i))
    plain_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    for i in range(runs):
        accel.sav_verify(pub, b"s%d" % i, sigs.sign(key, b"s%d" % i), server, rng)
    sav_wall = time.perf_counter() - t0
    print(f"criterion 6 server-aided verification: PASS (verifier pairings 0, "
          f"reduction {reduction:.0%}; wall-clock sav/plain = "
          f"{sav_wall/plain_wall:.2f} informational)")


# --- criterion 7: network coding end-to-end ----------------------------------


def test_criterion_07_network_coding_end_to_end():
    start = time.perf_counter()
    rng = random.Random(17)
    key = netcoding.nc_keygen(random.Random(170))
    pub = key.public()
    trials = 100
    exact = forgeries_rejected = 0

    for trial in range(trials):
        generation = netcoding.Generation(b"e2e-%d" % trial)
        content = rng.randbytes(generation.capacity())
        packets = [
            netcoding.nc_sign(key, generation, vector)
            for vector in netcoding.split_and_augment(content)
        ]
        for _hop in range(3):
            packets = [
                netcoding.combine(
                    packets,
                    [rng.randrange(CURVE_ORDER) for _ in packets],
                )
                for _ in range(generation.m)
            ]
        assert all(netcoding.nc_verify(pub, p) for p in packets)
        exact += netcoding.decode(packets) == content

        victim = packets[rng.randrange(len(packets))]
        slot = rng.randrange(victim.generation.dimension)
        forged_vector = list(victim.vector)
        forged_vector[slot] = (forged_vector[slot] + 1 + rng.randrange(1000)) \
            % CURVE_ORDER
        forged = netcoding.CodedPacket(
            generation=victim.generation,
            vector=tuple(forged_vector),
            signature=victim.signature,
        )
        forgeries_rejected += not netcoding.nc_verify(pub, forged)

    elapsed = time.perf_counter() - start
    assert exact == trials, f"{trials - exact} trials decoded wrong bytes"
    assert forgeries_rejected == trials, (
        f"{trials - forgeries_rejected} single-coordinate forgeries accepted"
    )
    assert elapsed < 60, f"network-coding suite took {elapsed:.0f}s"
    print(f"criterion 7 network coding e2e: PASS ({elapsed:.0f}s; "
          f"{trials}/{trials} exact decodes over 3 recombining hops, "
          f"{trials}/{trials} forgeries rejected)")


# --- criterion 8: forwarding pipeline oracle ---------------------------------


def _signed_data(key, name, content=b"payload"):
    blank = Data(name=name, content=content,
                 key_locator=parse_name("/snnu/keys/site"),
                 scheme_id=sigs.SCHEME_BLS, signature=b"")
    return blank.with_signature(sigs.sign(key, signed_portion(blank)).data)


def test_criterion_08_forwarding_pipeline_oracle():
    key = sigs.keygen(sigs.SCHEME_BLS, rng=random.Random(18))
    name = parse_name("/snnu/images/a.jpg/v1/s1")

    node = Node("r1")
    cached = _signed_data(key, name)
    node.cs.put(cached, now=0)
    assert node.process_interest(2, Interest(name=name, nonce=1), now=1) == [(2, cached)]
    assert node.pit == {}

    node = Node("r1")
    node.fib_add_route(parse_name("/snnu"), 7)
    node.process_interest(1, Interest(name=name, nonce=2), now=0)
    assert node.process_interest(3, Interest(name=name, nonce=3), now=1) == []
    assert node.pit[name].faces == {1, 3}

    fresh = Interest(name=name, nonce=4)
    node2 = Node("r2")
    node2.fib_add_route(parse_name("/snnu"), 7)
    assert node2.process_interest(4, fresh, now=0) == [(7, fresh)]
    assert node2.pit[name].faces == {4}

    node3 = Node("r3")
    assert node3.process_data(7, cached, now=0) == []
    assert node3.counters["dropped_unsolicited"] == 1

    names = [parse_name(f"/snnu/seg/{i}") for i in range(12)] + [
        parse_name(f"/faraway/{i}") for i in range(4)
    ]
    pool = [_signed_data(key, n, b"content for " + n.components[-1]) for n in names]

    def walk(record):
        walker = Node("w", cs_capacity=8)
        walker.fib_add_route(parse_name("/snnu"), 7)
        rng = random.Random(180)
        now = 0
        trace = []
        for _ in range(12_000):
            now += rng.choice((0, 1, 1, 2, 3, 5000))
            roll = rng.random()
            if roll < 0.55:
                interest = Interest(name=rng.choice(names),
                                    nonce=rng.randrange(1, 40),
                                    lifetime_ms=rng.choice((50, 400, 4000)))
                emissions = walker.process_interest(rng.randrange(1, 5), interest, now)
            elif roll < 0.95:
                packet = rng.choice(pool)
                solicited = packet.name in walker.pit
                emissions = walker.process_data(rng.randrange(1, 8), packet, now)
                assert not emissions or solicited, "Data emitted without a PIT entry"
            else:
                walker.sweep(now)
                emissions = []
            assert len(walker.cs) <= 8, "CS capacity exceeded"
            if record:
                trace.append(emissions)
        return trace, walker.counters

    first = walk(record=True)
    second = walk(record=True)
    assert first == second, "identical op sequences diverged"
    print("criterion 8 forwarding pipeline: PASS (3 Interest cases + unsolicited "
          "drop exact; 12000-op random walk held capacity/PIT-gating/determinism)")


# --- criteria 9 and 10: simulation scenarios ---------------------------------


LINE = {
    "seed": 19,
    "nodes": [
        {"id": "c1", "role": "consumer"},
        {"id": "r1", "role": "router"},
        {"id": "p1", "role": "producer"},
    ],
    "links": [
        {"a": "c1", "a_face": 1, "b": "r1", "b_face": 1, "latency": 1},
        {"a": "r1", "a_face": 2, "b": "p1", "b_face": 1, "latency": 1},
    ],
    "producers": [{"prefix": "/snnu", "node": "p1", "scheme": "bls"}],
    "schedule": [
        {"tick": 0, "consumer": "c1", "name": "/snnu/images/a.jpg/v1/s1"},
        {"tick": 50, "consumer": "c1", "name": "/snnu/images/a.jpg/v1/s1"},
    ],
}


def test_criterion_09_caching_benefit():
    trace = simnet.run(*simnet.load_config(json.dumps(LINE)))
    first, second = trace.requests
    expected = simnet.producer_payload(19, parse_name("/snnu/images/a.jpg/v1/s1"))
    assert first.delivered == expected and second.delivered == expected
    assert second.hops < first.hops
    assert trace.counters["r1"]["cs_hits"] == 1
    print(f"criterion 9 caching benefit: PASS (hops {first.hops} -> {second.hops}, "
          f"router cs_hits == 1)")


def test_criterion_10_poisoning_defense():
    name = parse_name("/snnu/images/a.jpg/v1/s1")
    poisoned = dict(
        LINE,
        nodes=[
            {"id": "c1", "role": "consumer"},
            {"id": "r1", "role": "router", "freshness_ms": 3000},
            {"id": "p1", "role": "producer"},
        ],
        schedule=[{"tick": 10, "consumer": "c1", "name": str(name)}],
        attacks=[{"tick": 0, "node": "r1", "name": str(name)}],
    )
    with_verify = simnet.run(*simnet.load_config(json.dumps(poisoned)))
    request = with_verify.requests[0]
    assert request.delivered == simnet.producer_payload(19, name)
    assert with_verify.counters["c1"]["dropped_bogus"] >= 1

    unverified = dict(
        poisoned,
        nodes=[dict(poisoned["nodes"][0], verify=False)] + poisoned["nodes"][1:],
    )
    without = simnet.run(*simnet.load_config(json.dumps(unverified)))
    request = without.requests[0]
    assert request.delivered is not None
    assert request.delivered != simnet.producer_payload(19, name)
    print("criterion 10 poisoning defense: PASS (verification on: authentic bytes "
          "after >= 1 bogus drop; off: bogus bytes delivered)")
