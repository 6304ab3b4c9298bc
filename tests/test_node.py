import random
from collections import OrderedDict

import pytest

from ndnkit import signatures as sigs
from ndnkit.naming import Name, parse_name
from ndnkit.node import (
    COUNTER_NAMES,
    ContentStore,
    Node,
    TrustStore,
)
from ndnkit.wire import Data, Interest, signed_portion

NAME = parse_name("/snnu/images/a.jpg/v1/s1")
KEY_NAME = parse_name("/snnu/keys/site")


@pytest.fixture(scope="module")
def bls_key():
    return sigs.keygen(sigs.SCHEME_BLS, rng=random.Random(401))


@pytest.fixture(scope="module")
def rogue_key():
    return sigs.keygen(sigs.SCHEME_BLS, rng=random.Random(402))


def make_data(key, name=NAME, content=b"payload", locator=KEY_NAME,
              scheme_id=sigs.SCHEME_BLS):
    blank = Data(name=name, content=content, key_locator=locator,
                 scheme_id=scheme_id, signature=b"")
    return blank.with_signature(sigs.sign(key, signed_portion(blank)).data)


def routed_node(**kwargs) -> Node:
    node = Node("r1", **kwargs)
    node.fib_add_route(parse_name("/snnu"), 7)
    return node


# --- the Interest pipeline ---------------------------------------------------


def test_cs_hit_answers_on_incoming_face(bls_key):
    node = Node("r1")
    data = make_data(bls_key)
    node.cs.put(data, now=0)
    out = node.process_interest(2, Interest(name=NAME, nonce=7), now=1)
    assert out == [(2, data)]
    assert node.pit == {}
    assert node.counters["cs_hits"] == 1


def test_pit_hit_absorbs_and_records_face(bls_key):
    node = routed_node()
    node.process_interest(1, Interest(name=NAME, nonce=11), now=0)
    out = node.process_interest(3, Interest(name=NAME, nonce=12), now=5)
    assert out == []
    assert node.pit[NAME].in_records == {1: 11, 3: 12}
    assert node.counters["forwarded"] == 1


def test_fib_match_forwards_and_creates_pit_entry():
    node = routed_node()
    interest = Interest(name=NAME, nonce=21)
    out = node.process_interest(4, interest, now=0)
    assert out == [(7, interest)]
    assert node.pit[NAME].in_records == {4: 21}
    assert node.counters == dict(
        cs_hits=0, cs_misses=1, forwarded=1,
        dropped_unsolicited=0, dropped_bogus=0, no_route=0,
    )


def test_no_route_drops():
    node = routed_node()
    out = node.process_interest(1, Interest(name=parse_name("/other/x"), nonce=9), now=0)
    assert out == []
    assert node.counters["no_route"] == 1
    assert node.pit == {}


def test_longest_fib_prefix_wins():
    node = routed_node()
    node.fib_add_route(parse_name("/snnu/images"), 8)
    out = node.process_interest(1, Interest(name=NAME, nonce=5), now=0)
    assert out == [(8, Interest(name=NAME, nonce=5))]


def test_root_route_acts_as_default():
    node = Node("r1")
    node.fib_add_route(Name(()), 9)
    out = node.process_interest(1, Interest(name=parse_name("/anywhere"), nonce=5), now=0)
    assert [face for face, _ in out] == [9]


def test_interest_never_bounces_back_on_incoming_face():
    node = routed_node()
    out = node.process_interest(7, Interest(name=NAME, nonce=5), now=0)
    assert out == []
    assert node.counters["no_route"] == 1


def test_multi_face_route_fans_out():
    node = routed_node()
    node.fib_add_route(parse_name("/snnu"), 8)
    out = node.process_interest(1, Interest(name=NAME, nonce=5), now=0)
    assert [face for face, _ in out] == [7, 8]
    assert node.counters["forwarded"] == 1


def test_duplicate_nonce_dropped_without_counting():
    node = routed_node()
    interest = Interest(name=NAME, nonce=99)
    node.process_interest(1, interest, now=0)
    before = dict(node.counters)
    assert node.process_interest(2, interest, now=1) == []
    assert node.counters == before
    assert node.pit[NAME].in_records == {1: 99}


def test_duplicate_nonce_forgotten_after_lifetime():
    node = routed_node()
    interest = Interest(name=NAME, nonce=99, lifetime_ms=100)
    node.process_interest(1, interest, now=0)
    out = node.process_interest(1, interest, now=200)
    assert out == [(7, interest)]


def test_pit_entry_expires():
    node = routed_node()
    node.process_interest(1, Interest(name=NAME, nonce=1, lifetime_ms=50), now=0)
    out = node.process_interest(2, Interest(name=NAME, nonce=2), now=60)
    assert out == [(7, Interest(name=NAME, nonce=2))]
    assert node.pit[NAME].in_records == {2: 2}


def test_pit_merge_extends_expiry():
    node = routed_node()
    node.process_interest(1, Interest(name=NAME, nonce=1, lifetime_ms=50), now=0)
    node.process_interest(2, Interest(name=NAME, nonce=2, lifetime_ms=4000), now=10)
    assert node.pit[NAME].expiry == 4010


# --- the Data pipeline -------------------------------------------------------


def test_unsolicited_data_dropped(bls_key):
    node = Node("r1")
    out = node.process_data(7, make_data(bls_key), now=0)
    assert out == []
    assert node.counters["dropped_unsolicited"] == 1
    assert len(node.cs) == 0


def test_data_satisfies_all_pit_faces_and_caches(bls_key):
    node = routed_node()
    node.process_interest(5, Interest(name=NAME, nonce=1), now=0)
    node.process_interest(2, Interest(name=NAME, nonce=2), now=1)
    data = make_data(bls_key)
    out = node.process_data(7, data, now=2)
    assert out == [(2, data), (5, data)]
    assert NAME not in node.pit
    assert node.cs.get(NAME, 3) == data


def test_data_after_pit_expiry_is_unsolicited(bls_key):
    node = routed_node()
    node.process_interest(1, Interest(name=NAME, nonce=1, lifetime_ms=50), now=0)
    out = node.process_data(7, make_data(bls_key), now=100)
    assert out == []
    assert node.counters["dropped_unsolicited"] == 1


def test_satisfied_entry_emits_nothing_twice(bls_key):
    node = routed_node()
    node.process_interest(1, Interest(name=NAME, nonce=1), now=0)
    data = make_data(bls_key)
    assert node.process_data(7, data, now=1) == [(1, data)]
    assert node.process_data(7, data, now=2) == []


def test_second_request_hits_cache(bls_key):
    node = routed_node()
    node.process_interest(1, Interest(name=NAME, nonce=1), now=0)
    data = make_data(bls_key)
    node.process_data(7, data, now=1)
    out = node.process_interest(3, Interest(name=NAME, nonce=2), now=2)
    assert out == [(3, data)]
    assert node.counters["cs_hits"] == 1
    assert node.counters["forwarded"] == 1


# --- on-path verification ----------------------------------------------------


def verifying_node(bls_key) -> Node:
    node = routed_node(verify_on_path=True)
    node.trust.add(parse_name("/snnu/keys"), sigs.SCHEME_BLS, bls_key.public())
    return node


def test_bogus_data_dropped_and_pit_retained(bls_key, rogue_key):
    node = verifying_node(bls_key)
    node.process_interest(1, Interest(name=NAME, nonce=1), now=0)
    bogus = make_data(rogue_key, content=b"evil")
    assert node.process_data(7, bogus, now=1) == []
    assert node.counters["dropped_bogus"] == 1
    assert NAME in node.pit
    assert len(node.cs) == 0
    authentic = make_data(bls_key)
    assert node.process_data(7, authentic, now=2) == [(1, authentic)]
    assert node.cs.get(NAME, 3) == authentic


def test_tampered_content_dropped(bls_key):
    node = verifying_node(bls_key)
    node.process_interest(1, Interest(name=NAME, nonce=1), now=0)
    data = make_data(bls_key)
    tampered = Data(name=data.name, content=b"swapped", key_locator=data.key_locator,
                    scheme_id=data.scheme_id, signature=data.signature)
    assert node.process_data(7, tampered, now=1) == []
    assert node.counters["dropped_bogus"] == 1


def test_unanchored_key_locator_is_bogus(bls_key):
    node = verifying_node(bls_key)
    node.process_interest(1, Interest(name=NAME, nonce=1), now=0)
    stray = make_data(bls_key, locator=parse_name("/elsewhere/keys"))
    assert node.process_data(7, stray, now=1) == []
    assert node.counters["dropped_bogus"] == 1


def test_scheme_mismatch_against_anchor_is_bogus(bls_key):
    node = routed_node(verify_on_path=True)
    node.trust.add(parse_name("/snnu/keys"), sigs.SCHEME_ECDSA, bls_key.public())
    node.process_interest(1, Interest(name=NAME, nonce=1), now=0)
    assert node.process_data(7, make_data(bls_key), now=1) == []
    assert node.counters["dropped_bogus"] == 1


def test_verification_off_accepts_rogue_data(rogue_key):
    node = routed_node()
    node.process_interest(1, Interest(name=NAME, nonce=1), now=0)
    bogus = make_data(rogue_key, content=b"evil")
    assert node.process_data(7, bogus, now=1) == [(1, bogus)]
    assert node.cs.get(NAME, 2) == bogus


def test_trust_store_longest_prefix_selects_deeper_anchor(bls_key, rogue_key):
    store = TrustStore()
    store.add(parse_name("/snnu/keys"), sigs.SCHEME_BLS, bls_key.public())
    store.add(parse_name("/snnu/keys/site"), sigs.SCHEME_BLS, rogue_key.public())
    deep = make_data(rogue_key, locator=parse_name("/snnu/keys/site/cert1"))
    shallow = make_data(bls_key, locator=parse_name("/snnu/keys/other"))
    assert store.verify_data(deep)
    assert store.verify_data(shallow)
    mis_signed = make_data(bls_key, locator=parse_name("/snnu/keys/site/cert1"))
    assert not store.verify_data(mis_signed)


def test_trust_store_accepts_ring_anchor():
    rng = random.Random(403)
    keys = [sigs.keygen(sigs.SCHEME_RING, rng=rng) for _ in range(3)]
    ring = sigs.RingKeys(tuple(k.public() for k in keys))
    store = TrustStore()
    store.add(parse_name("/snnu/keys"), sigs.SCHEME_RING, ring)
    blank = Data(name=NAME, content=b"payload", key_locator=KEY_NAME,
                 scheme_id=sigs.SCHEME_RING, signature=b"")
    sig = sigs.sign(sigs.RingSigningKey(ring, 1, keys[1]), signed_portion(blank), rng).data
    assert store.verify_data(blank.with_signature(sig))
    assert not store.verify_data(blank.with_signature(sig[:-1] + bytes([sig[-1] ^ 1])))


def test_trust_store_refuses_an_anchor_verify_cannot_take(bls_key):
    rng = random.Random(404)
    ring_pubs = [sigs.keygen(sigs.SCHEME_RING, rng=rng).public() for _ in range(3)]
    store = TrustStore()
    for anchor in (ring_pubs, tuple(ring_pubs), ring_pubs[0], bls_key, None):
        with pytest.raises(sigs.SchemeMismatch):
            store.add(parse_name("/snnu/keys"), sigs.SCHEME_RING, anchor)


# --- Content Store policy ----------------------------------------------------


def test_lru_eviction_order(bls_key):
    cs = ContentStore(capacity=2)
    a, b, c = (make_data(bls_key, name=parse_name(f"/snnu/{x}")) for x in "abc")
    cs.put(a, 0)
    cs.put(b, 1)
    cs.put(c, 2)
    assert cs.get(a.name, 3) is None
    assert cs.get(b.name, 3) == b
    assert cs.get(c.name, 3) == c


def test_get_refreshes_recency(bls_key):
    cs = ContentStore(capacity=2)
    a, b, c = (make_data(bls_key, name=parse_name(f"/snnu/{x}")) for x in "abc")
    cs.put(a, 0)
    cs.put(b, 1)
    cs.get(a.name, 2)
    cs.put(c, 3)
    assert cs.get(b.name, 4) is None
    assert cs.get(a.name, 4) == a


def test_expired_evicted_before_lru_victim(bls_key):
    cs = ContentStore(capacity=2, freshness_ms=10)
    a, b, c = (make_data(bls_key, name=parse_name(f"/snnu/{x}")) for x in "abc")
    cs.put(a, 0)
    cs.put(b, 100)
    cs.put(c, 101)
    assert cs.get(a.name, 102) is None
    assert cs.get(b.name, 102) == b
    assert cs.get(c.name, 102) == c


def test_capacity_zero_stores_nothing(bls_key):
    node = routed_node(cs_capacity=0)
    node.process_interest(1, Interest(name=NAME, nonce=1), now=0)
    node.process_data(7, make_data(bls_key), now=1)
    assert len(node.cs) == 0
    out = node.process_interest(1, Interest(name=NAME, nonce=2), now=2)
    assert out == [(7, Interest(name=NAME, nonce=2))]
    assert node.counters["cs_hits"] == 0


def test_stale_entry_misses(bls_key):
    cs = ContentStore(capacity=4, freshness_ms=100)
    data = make_data(bls_key)
    cs.put(data, 0)
    assert cs.get(NAME, 99) == data
    assert cs.get(NAME, 100) is None
    assert len(cs) == 0


def test_duplicate_name_overwrites(bls_key):
    cs = ContentStore(capacity=4)
    first = make_data(bls_key, content=b"v1")
    second = make_data(bls_key, content=b"v2")
    cs.put(first, 0)
    cs.put(second, 1)
    assert len(cs) == 1
    assert cs.get(NAME, 2) == second


class _BruteForceStore:
    """The Content Store policy with a full expiry scan on every evict."""

    def __init__(self, capacity, freshness_ms):
        self.capacity = capacity
        self.freshness_ms = freshness_ms
        self.entries = OrderedDict()  # name -> (data, deadline)

    def get(self, name, now):
        if name not in self.entries:
            return None
        data, deadline = self.entries[name]
        if now >= deadline:
            del self.entries[name]
            return None
        self.entries.move_to_end(name)
        return data

    def put(self, data, now):
        self.entries[data.name] = (data, now + self.freshness_ms)
        self.entries.move_to_end(data.name)
        self.evict(now)

    def evict(self, now):
        evicted = [n for n, (_, d) in self.entries.items() if now >= d]
        for name in evicted:
            del self.entries[name]
        while len(self.entries) > self.capacity:
            evicted.append(self.entries.popitem(last=False)[0])
        return evicted


@pytest.mark.parametrize("seed", range(4))
def test_eviction_matches_full_scan_with_clock_jitter(seed):
    rng = random.Random(seed)
    pool = [
        Data(name=parse_name(f"/snnu/cs/{i}"), content=bytes([i]),
             key_locator=KEY_NAME, scheme_id=sigs.SCHEME_BLS, signature=b"")
        for i in range(8)
    ]
    cs, ref = ContentStore(capacity=4, freshness_ms=50), _BruteForceStore(4, 50)
    now, expired = 0, 0
    for _ in range(400):
        now += rng.randint(-30, 40)  # the clock also steps backwards
        data = rng.choice(pool)
        op = rng.random()
        if op < 0.45:
            cs.put(data, now)
            ref.put(data, now)
        elif op < 0.8:
            assert cs.get(data.name, now) == ref.get(data.name, now)
        else:
            evicted = cs.evict(now)
            assert evicted == ref.evict(now)
            expired += len(evicted)  # put keeps the size within capacity
        assert len(cs) == len(ref.entries)
    assert expired > 0


def test_negative_capacity_rejected():
    with pytest.raises(ValueError):
        ContentStore(capacity=-1)


def test_sweep_collects_expired_state(bls_key):
    node = routed_node(freshness_ms=100)
    node.process_interest(1, Interest(name=NAME, nonce=1, lifetime_ms=50), now=0)
    node.cs.put(make_data(bls_key, name=parse_name("/snnu/cached")), now=0)
    node.sweep(now=500)
    assert node.pit == {}
    assert len(node.cs) == 0
    assert node._seen == {}


# --- random-operation invariants ---------------------------------------------


NAMES = [parse_name(f"/snnu/seg/{i}") for i in range(12)] + [
    parse_name(f"/faraway/{i}") for i in range(4)
]


def drive(node: Node, ops):
    """Apply (kind, face, packet, now) ops, returning the emission trace."""
    trace = []
    for kind, face, packet, now in ops:
        if kind == "interest":
            trace.append(node.process_interest(face, packet, now))
        elif kind == "data":
            trace.append(node.process_data(face, packet, now))
        else:
            node.sweep(now)
            trace.append(None)
    return trace


def random_ops(seed: int, count: int, pool):
    rng = random.Random(seed)
    ops = []
    now = 0
    for _ in range(count):
        now += rng.choice((0, 1, 1, 2, 3, 5000))
        roll = rng.random()
        if roll < 0.55:
            interest = Interest(
                name=rng.choice(NAMES),
                nonce=rng.randrange(1, 40),
                lifetime_ms=rng.choice((50, 400, 4000)),
            )
            ops.append(("interest", rng.randrange(1, 5), interest, now))
        elif roll < 0.95:
            ops.append(("data", rng.randrange(1, 8), rng.choice(pool), now))
        else:
            ops.append(("sweep", 0, None, now))
    return ops


@pytest.fixture(scope="module")
def data_pool(bls_key, rogue_key):
    pool = []
    for name in NAMES:
        pool.append(make_data(bls_key, name=name, content=b"good " + name.components[-1]))
        pool.append(make_data(rogue_key, name=name, content=b"evil " + name.components[-1]))
    return pool


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_walk_invariants(seed, data_pool):
    node = Node("r1", cs_capacity=8)
    node.fib_add_route(parse_name("/snnu"), 7)
    ops = random_ops(seed, 4000, data_pool)
    for kind, face, packet, now in ops:
        if kind == "interest":
            node.process_interest(face, packet, now)
        elif kind == "data":
            solicited = packet.name in node.pit
            emissions = node.process_data(face, packet, now)
            if emissions:
                assert solicited, "Data emitted without a matching PIT entry"
        else:
            node.sweep(now)
        assert len(node.cs) <= 8
        assert set(node.counters) == set(COUNTER_NAMES)
    assert node.counters["no_route"] > 0
    assert node.counters["cs_hits"] > 0
    assert node.counters["dropped_unsolicited"] > 0


def test_random_walk_deterministic(data_pool):
    def run():
        node = Node("r1", cs_capacity=8)
        node.fib_add_route(parse_name("/snnu"), 7)
        trace = drive(node, random_ops(9, 3000, data_pool))
        return trace, node.counters, node.pit, len(node.cs)

    assert run() == run()


def test_random_walk_verified_emissions(bls_key, data_pool):
    node = Node("r1", cs_capacity=8, verify_on_path=True)
    node.fib_add_route(parse_name("/snnu"), 7)
    node.trust.add(parse_name("/snnu/keys"), sigs.SCHEME_BLS, bls_key.public())
    for kind, face, packet, now in random_ops(4, 400, data_pool):
        if kind == "interest":
            node.process_interest(face, packet, now)
        elif kind == "data":
            for _, emitted in node.process_data(face, packet, now):
                assert node.trust.verify_data(emitted)
        else:
            node.sweep(now)
    assert node.counters["dropped_bogus"] > 0
