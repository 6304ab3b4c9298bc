import hashlib
import json
import random
import re
from collections import Counter

import pytest

from ndnkit import signatures as sigs
from ndnkit import simnet
from ndnkit.naming import Name, parse_name
from ndnkit.simnet import (
    ConfigError,
    TickLimitExceeded,
    UnknownNode,
    build_topology,
    forged_payload,
    load_config,
    producer_payload,
    run,
)
from ndnkit.signatures import ecdsa
from ndnkit.wire import Data, Interest, signed_portion

CONTENT_NAME = "/snnu/images/a.jpg/v1/s1"

LINE = {
    "seed": 7,
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
        {"tick": 0, "consumer": "c1", "name": CONTENT_NAME},
        {"tick": 50, "consumer": "c1", "name": CONTENT_NAME},
    ],
}


def config(**overrides) -> str:
    return json.dumps({**LINE, **overrides})


def run_config(**overrides) -> simnet.Trace:
    return run(*load_config(config(**overrides)))


POISON_NODES = [
    {"id": "c1", "role": "consumer"},
    {"id": "r1", "role": "router", "freshness_ms": 3000},
    {"id": "p1", "role": "producer"},
]
POISON_SCHEDULE = [{"tick": 10, "consumer": "c1", "name": CONTENT_NAME}]
POISON_ATTACKS = [{"tick": 0, "node": "r1", "name": CONTENT_NAME}]


# --- topology construction ---------------------------------------------------


def test_line_topology_builds():
    topo = build_topology(config())
    assert set(topo.specs) == {"c1", "r1", "p1"}
    assert topo.routes["r1"][parse_name("/snnu")] == 2
    assert topo.routes["c1"][parse_name("/snnu")] == 1
    assert topo.routes["p1"][parse_name("/snnu")] == simnet.APP_FACE


def test_consumer_defaults_differ_from_router_defaults():
    topo = build_topology(config())
    assert topo.specs["c1"].cs_capacity == 0
    assert topo.specs["c1"].verify is True
    assert topo.specs["r1"].cs_capacity == 64
    assert topo.specs["r1"].verify is False


@pytest.mark.parametrize("value", ["false", 0, []])
def test_verify_must_be_a_json_boolean(value):
    nodes = [dict(LINE["nodes"][0], verify=value)] + LINE["nodes"][1:]
    with pytest.raises(ConfigError, match=r"node 'c1'\.verify must be true or false"):
        load_config(config(nodes=nodes))
    nodes[0]["verify"] = False
    assert load_config(config(nodes=nodes))[0].specs["c1"].verify is False


def test_dangling_link_rejected():
    bad = LINE["links"] + [{"a": "r1", "a_face": 9, "b": "ghost", "b_face": 1}]
    with pytest.raises(ConfigError, match="undeclared node 'ghost'"):
        build_topology(config(links=bad))


def test_duplicate_face_rejected():
    bad = LINE["links"] + [{"a": "c1", "a_face": 1, "b": "p1", "b_face": 9}]
    with pytest.raises(ConfigError, match="duplicate face 1 on node 'c1'"):
        build_topology(config(links=bad))


def test_unroutable_prefix_rejected():
    with pytest.raises(ConfigError, match="unroutable from consumer 'c1'"):
        build_topology(config(links=[LINE["links"][1]]))


def test_face_zero_reserved_for_applications():
    bad = [{"a": "c1", "a_face": 0, "b": "r1", "b_face": 1}, LINE["links"][1]]
    with pytest.raises(ConfigError):
        build_topology(config(links=bad))


def test_self_link_rejected():
    bad = LINE["links"] + [{"a": "r1", "a_face": 8, "b": "r1", "b_face": 9}]
    with pytest.raises(ConfigError, match="endpoints must differ"):
        build_topology(config(links=bad))


def test_zero_latency_rejected():
    bad = [dict(LINE["links"][0], latency=0), LINE["links"][1]]
    with pytest.raises(ConfigError):
        build_topology(config(links=bad))


def test_unknown_role_rejected():
    with pytest.raises(ConfigError, match="unknown role"):
        build_topology(config(nodes=[{"id": "x", "role": "switch"}]))


def test_duplicate_producer_prefix_rejected():
    doubled = LINE["producers"] * 2
    with pytest.raises(ConfigError, match="duplicate producer prefix"):
        build_topology(config(producers=doubled))


def test_producer_scheme_must_support_plain_signing():
    # a list or object is rejected too, not hashed
    for scheme in ("ring", ["bls"], {"bls": 1}):
        with pytest.raises(ConfigError, match=f"cannot sign with scheme {re.escape(repr(scheme))}"):
            build_topology(config(producers=[dict(LINE["producers"][0], scheme=scheme)]))


def test_binding_requires_producer_role():
    with pytest.raises(ConfigError, match="not a producer"):
        build_topology(config(producers=[dict(LINE["producers"][0], node="r1")]))


def test_schedule_requires_consumer_role():
    bad = [{"tick": 0, "consumer": "r1", "name": CONTENT_NAME}]
    with pytest.raises(ConfigError, match="non-consumer"):
        load_config(config(schedule=bad))


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"links": [{"a": ["c1"], "b": "r1", "a_face": 1, "b_face": 1}]},
         r"link references undeclared node \['c1'\]"),
        ({"producers": [dict(LINE["producers"][0], node=["p1"])]},
         r"producer binding references undeclared node \['p1'\]"),
        ({"schedule": [dict(LINE["schedule"][0], consumer={"id": "c1"})]},
         r"schedule references non-consumer \{'id': 'c1'\}"),
        ({"attacks": [{"tick": 0, "node": {}, "name": CONTENT_NAME}]},
         r"attack references undeclared node \{\}"),
    ],
    ids=["link_end", "producer_node", "schedule_consumer", "attack_node"],
)
def test_node_reference_that_is_not_a_string_rejected(overrides, message):
    with pytest.raises(ConfigError, match=message):
        load_config(config(**overrides))


def test_malformed_json_rejected():
    with pytest.raises(ConfigError, match="not valid JSON"):
        build_topology("{nodes: []")


def test_oversize_seed_rejected():
    with pytest.raises(ConfigError, match="64 bits"):
        load_config(config(seed=2**64))


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"schedule": [dict(LINE["schedule"][0], lifetime_ms=2**32)]},
         "lifetime_ms must fit in 32 bits"),
        ({"schedule": [dict(LINE["schedule"][0], name="/")]},
         "scheduled name must not be the root name"),
        ({"attacks": [{"tick": 0, "node": "r1", "name": "/"}]},
         "attack name must not be the root name"),
    ],
)
def test_unencodable_request_or_attack_rejected(overrides, message):
    with pytest.raises(ConfigError, match=message):
        load_config(config(**overrides))
    # the widest lifetime an Interest can carry still loads
    load_config(config(schedule=[dict(LINE["schedule"][0], lifetime_ms=2**32 - 1)]))


@pytest.mark.parametrize(
    "section",
    [
        {"nodes": ["a"]},
        {"nodes": 5},
        {"nodes": None},
        {"links": ["c1-r1"]},
        {"producers": [7]},
        {"schedule": [7]},
        {"schedule": {"tick": 0}},
        {"attacks": [7]},
    ],
)
def test_section_of_the_wrong_shape_rejected(section):
    with pytest.raises(ConfigError, match=f"{next(iter(section))} must be a list of objects"):
        load_config(config(**section))


# --- the two-request line scenario -------------------------------------------


def test_first_request_travels_second_hits_cache():
    trace = run_config()
    first, second = trace.requests
    expected = producer_payload(7, parse_name(CONTENT_NAME))
    assert first.delivered == expected
    assert second.delivered == expected
    assert second.hops < first.hops
    assert (first.hops, second.hops) == (4, 2)
    assert trace.counters["r1"]["cs_hits"] == 1
    assert trace.counters["p1"]["forwarded"] == 1


def test_replay_is_byte_identical():
    a = run_config().to_jsonl()
    b = run_config().to_jsonl()
    assert a == b


# three consumers behind three routers, declared out of lexical order, so
# that each tick's events fall on several nodes at once
STAR = {
    "seed": 9,
    "nodes": [{"id": nid, "role": role} for nid, role in (
        ("p1", "producer"), ("r9", "router"), ("r10", "router"), ("r2", "router"),
        ("c9", "consumer"), ("c10", "consumer"), ("c2", "consumer"))],
    "links": [
        {"a": a, "a_face": 1, "b": b, "b_face": face, "latency": 1}
        for a, b, face in (("r9", "p1", 1), ("r10", "p1", 2), ("r2", "p1", 3),
                           ("c9", "r9", 2), ("c10", "r10", 2), ("c2", "r2", 2))
    ],
    "producers": [{"prefix": "/snnu", "node": "p1", "scheme": "ecdsa"}],
    "schedule": [{"tick": tick, "consumer": c, "name": f"/snnu/{name}"}
                 for tick, c, name in ((0, "c9", "a"), (0, "c2", "b"), (0, "c10", "c"),
                                       (3, "c2", "a"), (3, "c9", "c"), (5, "c10", "b"))],
}


def test_events_of_one_tick_run_in_node_id_order():
    trace = run(*load_config(json.dumps(STAR)))
    assert all(r.delivered is not None for r in trace.requests)
    keys = [(r["tick"], r["node"]) for r in trace.records]
    assert keys == sorted(keys)
    # the string order of the ids, not the order they were declared in
    assert [r["node"] for r in trace.records if r["tick"] == 1] == [
        "r10", "r10", "r2", "r2", "r9", "r9"]

    digest = hashlib.sha256(trace.to_jsonl().encode()).hexdigest()
    nodes = list(STAR["nodes"])
    for seed in range(3):
        random.Random(seed).shuffle(nodes)
        shuffled = run(*load_config(json.dumps(dict(STAR, nodes=nodes))))
        assert hashlib.sha256(shuffled.to_jsonl().encode()).hexdigest() == digest
        assert shuffled.counters == trace.counters


def test_different_seed_changes_nonces():
    nonces = lambda t: [r["nonce"] for r in t.records if r["event"] == "request"]
    assert nonces(run_config()) != nonces(run_config(seed=8))


def test_empty_schedule_is_a_no_op():
    trace = run_config(schedule=[])
    assert trace.records == []
    assert all(v == 0 for c in trace.counters.values() for v in c.values())


def test_emissions_balance_receptions_when_drained():
    trace = run_config()
    emits = sum(1 for r in trace.records if r["event"].startswith("emit_"))
    recvs = sum(1 for r in trace.records if r["event"].startswith("recv_"))
    assert emits == recvs


def test_no_packet_teleportation():
    trace = run_config()
    topo = build_topology(config())
    emitted = set()
    for r in trace.records:
        if r["event"].startswith("emit_"):
            peer, peer_face, latency = topo.faces[r["node"]][r["face"]]
            emitted.add((r["tick"] + latency, peer, peer_face, r["name"], r["event"][5:]))
    for r in trace.records:
        if r["event"].startswith("recv_"):
            key = (r["tick"], r["node"], r["face"], r["name"], r["event"][5:])
            assert key in emitted, f"reception without matching emission: {r}"


def test_interest_records_carry_nonces():
    trace = run_config()
    kinds = {"request", "emit_interest", "recv_interest"}
    assert all("nonce" in r for r in trace.records if r["event"] in kinds)
    assert all("nonce" not in r for r in trace.records if r["event"] == "deliver")


def test_trace_serializes_to_json_lines():
    lines = run_config().to_jsonl().splitlines()
    parsed = [json.loads(line) for line in lines]
    assert all({"tick", "node", "event", "name"} <= set(r) for r in parsed)


def test_tick_limit_enforced():
    with pytest.raises(TickLimitExceeded):
        run_config(tick_limit=2)


def test_ecdsa_producer_end_to_end():
    trace = run_config(producers=[dict(LINE["producers"][0], scheme="ecdsa")])
    expected = producer_payload(7, parse_name(CONTENT_NAME))
    assert all(r.delivered == expected for r in trace.requests)


def test_unbound_name_gives_up_after_three_attempts():
    trace = run_config(
        schedule=[{"tick": 0, "consumer": "c1", "name": "/offsite/x", "lifetime_ms": 100}]
    )
    req = trace.requests[0]
    assert req.delivered is None
    assert req.attempts == 3
    assert any(r["event"] == "give_up" for r in trace.records)
    assert trace.counters["c1"]["no_route"] == 3


# --- shared-router aggregation -----------------------------------------------


FIG3 = {
    "seed": 3,
    "nodes": [
        {"id": "c1", "role": "consumer"},
        {"id": "c2", "role": "consumer"},
        {"id": "r1", "role": "router"},
        {"id": "p1", "role": "producer"},
    ],
    "links": [
        {"a": "c1", "a_face": 1, "b": "r1", "b_face": 1},
        {"a": "c2", "a_face": 1, "b": "r1", "b_face": 2},
        {"a": "r1", "a_face": 3, "b": "p1", "b_face": 1},
    ],
    "producers": [{"prefix": "/snnu", "node": "p1"}],
    "schedule": [
        {"tick": 0, "consumer": "c1", "name": "/snnu/doc"},
        {"tick": 1, "consumer": "c2", "name": "/snnu/doc"},
    ],
}


def test_shared_router_aggregates_interests():
    trace = run(*load_config(json.dumps(FIG3)))
    expected = producer_payload(3, parse_name("/snnu/doc"))
    assert [r.delivered for r in trace.requests] == [expected, expected]
    assert trace.counters["p1"]["forwarded"] == 1
    assert trace.counters["r1"]["forwarded"] == 1


def test_both_consumers_routable():
    topo = build_topology(json.dumps(FIG3))
    assert topo.routes["c1"][parse_name("/snnu")] == 1
    assert topo.routes["c2"][parse_name("/snnu")] == 1


# --- hop and delivery bookkeeping --------------------------------------------


TREE = {
    "seed": 11,
    "nodes": [
        {"id": "c1", "role": "consumer"},
        {"id": "c2", "role": "consumer"},
        {"id": "c3", "role": "consumer"},
        {"id": "r0", "role": "router"},
        {"id": "r1", "role": "router"},
        {"id": "r2", "role": "router", "freshness_ms": 90_000},
        {"id": "p1", "role": "producer"},
    ],
    "links": [
        {"a": "c1", "a_face": 1, "b": "r1", "b_face": 1, "latency": 1},
        {"a": "c2", "a_face": 1, "b": "r1", "b_face": 2, "latency": 2},
        {"a": "c3", "a_face": 1, "b": "r2", "b_face": 1, "latency": 1},
        {"a": "r1", "a_face": 3, "b": "r0", "b_face": 1, "latency": 3},
        {"a": "r2", "a_face": 3, "b": "r0", "b_face": 2, "latency": 1},
        {"a": "r0", "a_face": 3, "b": "p1", "b_face": 1, "latency": 2},
    ],
    "producers": [{"prefix": "/snnu", "node": "p1", "scheme": "ecdsa"}],
    "schedule": [
        # two consumers, same name, same tick
        {"tick": 0, "consumer": "c1", "name": "/snnu/a"},
        {"tick": 0, "consumer": "c2", "name": "/snnu/a"},
        # c1 again while its first request is pending
        {"tick": 1, "consumer": "c1", "name": "/snnu/a"},
        {"tick": 2, "consumer": "c3", "name": "/snnu/a"},
        # r2 holds a forged copy: c3 rejects it three times and gives up,
        # while c1 fetches the authentic one inside that window
        {"tick": 5, "consumer": "c3", "name": "/snnu/p", "lifetime_ms": 100},
        {"tick": 30, "consumer": "c1", "name": "/snnu/p"},
        {"tick": 20, "consumer": "c2", "name": "/snnu/b", "lifetime_ms": 6},
        {"tick": 21, "consumer": "c1", "name": "/snnu/b"},
        {"tick": 40, "consumer": "c3", "name": "/snnu/b"},
    ],
    "attacks": [{"tick": 0, "node": "r2", "name": "/snnu/p"}],
}


def _random_tree_schedule(seed: int) -> list[dict]:
    rng = random.Random(seed)
    return [
        {
            "tick": rng.randrange(60),
            "consumer": rng.choice(["c1", "c2", "c3"]),
            "name": rng.choice(["/snnu/a", "/snnu/b", "/snnu/p"]),
            "lifetime_ms": rng.choice([4, 9, 40]),
        }
        for _ in range(30)
    ]


def _brute_force_outcomes(trace: simnet.Trace, schedule):
    """Delivery and hops by their definitions, walking the trace in order.

    A request's attempts are its request records. A first attempt belongs to
    the earliest-scheduled request of that consumer, name and tick not yet
    issued; a retransmission directly follows the timeout record of the
    attempt it replaces. A timeout or give_up record ends the earliest-issued
    live attempt of an undelivered request of its consumer and name that is
    due then, a lifetime plus a tick after its request record; give_up ends
    the request too. A deliver record answers every issued request of that
    consumer and name that is undelivered and has not given up, as the
    consumer's PIT merges them.

    hops counts the emit records made for a request before its delivery: an
    emit_interest carrying the nonce of one of its live attempts, or an
    emit_data answering one. A Data leaving a node on a face answers the
    latest Interest for its name that arrived there, as the request
    (face 0) and recv_interest records show. These rebuilt in-records differ
    from the PIT's only where an Interest reaches a face but not the PIT
    while an older in-record of that face waits: a duplicate nonce, which a
    tree never carries, or a cache hit on a pending name. The poisoned
    /snnu/p is planted at tick 0, before any request, and stays fresh in
    r2's cache, so r2 answers every Interest for it from there and never
    holds a PIT entry for it.
    """
    requests = trace.requests
    keys = [(r.consumer, str(r.name)) for r in requests]
    delivered_tick = [None] * len(requests)
    gave_up = [False] * len(requests)
    hops = [0] * len(requests)
    issued: list[int] = []  # request indices in the order of their first attempts
    live: list[tuple[int, int, int]] = []  # (request index, end tick, nonce), in issue order
    owner: dict[int, int] = {}  # nonce of a live attempt -> its request index
    in_records: dict[tuple, int] = {}  # (node, name, face) -> nonce of the latest Interest
    timed_out = None
    for rec in trace.records:
        event, key, tick = rec["event"], (rec["node"], rec["name"]), rec["tick"]
        retransmitted, timed_out = timed_out, None
        if event == "request":
            i = retransmitted
            if i is None:
                i = min(j for j, r in enumerate(requests)
                        if keys[j] == key and r.first_tick == tick and j not in issued)
                issued.append(i)
            live.append((i, tick + schedule[i].lifetime_ms + 1, rec["nonce"]))
            owner[rec["nonce"]] = i
        if event in ("request", "recv_interest"):
            in_records[key + (rec["face"],)] = rec["nonce"]
        elif event in ("timeout", "give_up"):
            attempt = next(a for a in live if keys[a[0]] == key and a[1] == tick
                           and delivered_tick[a[0]] is None)
            live.remove(attempt)
            del owner[attempt[2]]
            if event == "timeout":
                timed_out = attempt[0]
            else:
                gave_up[attempt[0]] = True
        elif event == "deliver":
            for i in issued:
                if keys[i] == key and delivered_tick[i] is None and not gave_up[i]:
                    delivered_tick[i] = tick
        elif event in ("emit_interest", "emit_data"):
            nonce = rec.get("nonce") or in_records[key + (rec["face"],)]
            i = owner.get(nonce)
            if i is not None and delivered_tick[i] is None:
                hops[i] += 1
    return delivered_tick, hops


@pytest.mark.parametrize("schedule_seed", [None, 1, 2])
def test_hops_and_delivery_match_brute_force(schedule_seed):
    cfg = dict(TREE)
    if schedule_seed is not None:
        cfg["schedule"] = _random_tree_schedule(schedule_seed)
    topology, scenario = load_config(json.dumps(cfg))
    trace = run(topology, scenario)
    delivered_tick, hops = _brute_force_outcomes(trace, scenario.schedule)
    assert [r.delivered_tick for r in trace.requests] == delivered_tick
    assert [r.hops for r in trace.requests] == hops
    for req, tick in zip(trace.requests, delivered_tick):
        if tick is None:
            assert req.delivered is None
        else:
            assert tick >= req.first_tick
            assert req.delivered == producer_payload(11, req.name)
    assert any(r["event"] == "give_up" for r in trace.records)
    assert any(tick is not None for tick in delivered_tick)


def test_request_that_gave_up_is_not_credited_later():
    trace = run(*load_config(json.dumps(dict(TREE, schedule=_random_tree_schedule(1)))))
    c2_a = {
        r.first_tick: r for r in trace.requests
        if r.consumer == "c2" and str(r.name) == "/snnu/a"
    }
    assert sorted(c2_a) == [6, 14, 41]
    give_ups = [
        r["tick"] for r in trace.records
        if r["event"] == "give_up" and r["node"] == "c2" and r["name"] == "/snnu/a"
    ]
    # lifetime 4: the tick-6 request gives up at 21, the tick-41 one at 56
    assert give_ups == [21, 56]
    assert c2_a[6].delivered is None and c2_a[41].delivered is None
    # the tick-59 Data goes to the only c2 request still waiting (lifetime 40)
    assert c2_a[14].delivered_tick == 59
    assert c2_a[14].delivered == producer_payload(11, parse_name("/snnu/a"))


def test_overlapping_requests_from_two_leaves_count_only_their_own_hops():
    # c1 sits under r1, c3 under r2; their Interests for /snnu/a meet at r0
    # on tick 4, where c3's joins the PIT entry c1's left
    schedule = [{"tick": 0, "consumer": "c1", "name": "/snnu/a"},
                {"tick": 2, "consumer": "c3", "name": "/snnu/a"}]
    runner = simnet._Runner(*load_config(json.dumps(dict(TREE, schedule=schedule, attacks=[]))))
    trace = runner.run()
    first, second = trace.requests
    assert (first.delivered_tick, second.delivered_tick) == (12, 10)
    # c1: an Interest on c1 -> r1 -> r0 -> p1 and the Data back, 3 links each
    # way; c3: an Interest on c3 -> r2 -> r0, and r0's copy of the Data back
    assert (first.hops, second.hops) == (6, 4)
    emits = sum(r["event"] in ("emit_interest", "emit_data") for r in trace.records)
    assert first.hops + second.hops == emits
    # every attempt's nonce leaves the runner when its lifetime ends
    assert not runner.owners and not runner.pending


def test_one_data_answers_every_merged_request_of_a_consumer():
    # c1's PIT merges the tick-1 request into the pending entry of the tick-0
    # one, so the single Data that comes back answers both
    trace = run_config(schedule=[{"tick": 0, "consumer": "c1", "name": CONTENT_NAME},
                                 {"tick": 1, "consumer": "c1", "name": CONTENT_NAME}])
    first, second = trace.requests
    expected = producer_payload(7, parse_name(CONTENT_NAME))
    assert first.delivered == second.delivered == expected
    assert first.delivered_tick == second.delivered_tick == 4
    assert not any(r["event"] == "timeout" for r in trace.records)
    # the second Interest never left the consumer
    assert (first.hops, second.hops) == (4, 0)
    assert trace.counters["p1"]["forwarded"] == 1


def test_bookkeeping_formats_each_name_a_bounded_number_of_times(monkeypatch):
    names = [f"/snnu/n{i}" for i in range(20)]
    rng = random.Random(5)
    schedule = [
        {"tick": 3 * i, "consumer": rng.choice(["c1", "c2", "c3"]),
         "name": rng.choice(names)}
        for i in range(240)
    ]
    topology, scenario = load_config(json.dumps(dict(TREE, schedule=schedule, attacks=[])))
    calls = 0
    original = Name.__str__

    def counting_str(self):
        nonlocal calls
        calls += 1
        return original(self)

    monkeypatch.setattr(Name, "__str__", counting_str)
    trace = run(topology, scenario)
    assert all(r.delivered is not None for r in trace.requests)
    # every scheduled name and the producer prefix; a per-request or
    # per-record rescan would format names thousands of times here
    assert calls <= 2 * (len(names) + 1)


# --- the benchmark's tree: packet hops, sweeps and pinned digests -----------


TREE_DEPTH = 5
REQUEST_GAP_TICKS = 8
ZIPF_NAMES = tuple(f"/snnu/obj{k}/v1/s1" for k in range(50))
CHURN_NAMES = tuple(
    f"/snnu/site{k % 8}/dept{k % 5}/videos/clip{k}/v1/res720/s{k % 3}" for k in range(4096)
)


def _bench_tree(scheme: str, verify: bool, names, zipf: bool, seed: int, requests: int) -> str:
    """The benchmark's sim layout: a binary router tree of depth 5 under one
    producer, two consumers per leaf router, and one request about every
    8 ticks, names uniform or Zipf(1)."""
    nodes, links = [{"id": "p0", "role": "producer"}], []
    next_face: dict[str, int] = {}

    def link(a: str, b: str) -> None:
        fa = next_face[a] = next_face.get(a, 0) + 1
        fb = next_face[b] = next_face.get(b, 0) + 1
        links.append({"a": a, "a_face": fa, "b": b, "b_face": fb, "latency": 1})

    routers = 2**TREE_DEPTH - 1
    nodes += [{"id": f"r{i}", "role": "router"} for i in range(routers)]
    link("r0", "p0")
    for i in range(1, routers):
        link(f"r{(i - 1) // 2}", f"r{i}")
    consumers = []
    for j in range((routers - routers // 2) * 2):
        consumers.append(f"c{j}")
        nodes.append({"id": f"c{j}", "role": "consumer", "verify": verify})
        link(f"r{routers // 2 + j // 2}", f"c{j}")
    rng = random.Random(f"ndnkit-perfbench/schedule/{seed}")
    if zipf:
        picks = rng.choices(names, weights=[1.0 / (k + 1) for k in range(len(names))],
                            k=requests)
    else:
        picks = [rng.choice(names) for _ in range(requests)]
    schedule = [
        {"tick": i * REQUEST_GAP_TICKS + rng.randrange(REQUEST_GAP_TICKS),
         "consumer": rng.choice(consumers), "name": name}
        for i, name in enumerate(picks)
    ]
    return json.dumps({
        "seed": seed, "nodes": nodes, "links": links, "schedule": schedule,
        "producers": [{"prefix": "/snnu", "node": "p0", "scheme": scheme}],
    })


@pytest.mark.parametrize("shape, expected", [
    (("bls", True, ZIPF_NAMES, True), (
        "ae2b85dde2ce1bb7296a41029121e8cf8a38930fc4260dcd1403812f6c1ec639",
        "87cfb8bdc9318ebd32375cbf3e7db0783f9d4ada213ae2f829adb14efd4d8ac0",
    )),
    (("ecdsa", False, CHURN_NAMES, False), (
        "81439cf0af31eb2b6b8e6bb17b6662245d42155a45818e3552241b7f54a5bdc4",
        "5be490755788e2464a3dde1cf19f2f8a89e66eb72722550f6acf8676788008fa",
    )),
])
def test_benchmark_shaped_runs_replay_to_pinned_digests(shape, expected):
    # taken when every hop still encoded and decoded its packet, before the
    # sweep existed: neither packet hops nor the sweep may move a byte
    trace = run(*load_config(_bench_tree(*shape, seed=7, requests=100)))
    assert all(r.delivered is not None for r in trace.requests)
    assert (
        hashlib.sha256(trace.to_jsonl().encode()).hexdigest(),
        hashlib.sha256(json.dumps(trace.counters, sort_keys=True).encode()).hexdigest(),
    ) == expected



def test_payloads_replay_to_a_pinned_digest():
    # no trace record or counter holds content, so the digests above do not pin it
    name = parse_name(CONTENT_NAME)
    assert hashlib.sha256(producer_payload(7, name) + forged_payload(7, name)).hexdigest() == (
        "d5e41c289eb8ad3413e2ab4b932bf6188425dde520b5bfb1cf1a5b61eec0bc91")

def _record_signing(monkeypatch) -> list:
    """(producer's public key, Data) for each Data a producer signs from now on."""
    signed = []
    sign = simnet._Producer.sign

    def recording_sign(producer, name, content):
        data = sign(producer, name, content)
        signed.append((producer.key.public(), data))
        return data

    monkeypatch.setattr(simnet._Producer, "sign", recording_sign)
    return signed


def _fresh_signatures(signed) -> bool:
    """Every Data verifies under its producer's key, and no two share r."""
    rs = [data.signature[:20] for _, data in signed]
    return len(set(rs)) == len(rs) and all(
        sigs.verify(pub, signed_portion(data), data.signature) for pub, data in signed)


def _evicted_config() -> dict:
    """One-entry caches send repeated names back to the producer."""
    config = json.loads(_bench_tree("ecdsa", False, ZIPF_NAMES, True, 7, 100))
    for node in config["nodes"]:
        node["cs_capacity"] = 1
    return config


def test_a_producer_re_signs_evicted_data_with_a_fresh_nonce(monkeypatch):
    signed = _record_signing(monkeypatch)
    kept = run(*load_config(_evicted_config()))
    assert set(Counter(data.name for _, data in signed).values()) == {1}
    signed.clear()
    monkeypatch.setattr(simnet, "KEPT_NAMES", 2)
    evicted = run(*load_config(_evicted_config()))
    assert max(Counter(data.name for _, data in signed).values()) > 1
    # a Data signed again verifies, with an r not used before; no trace
    # record or counter holds signature bytes
    assert _fresh_signatures(signed)
    assert evicted.to_jsonl() == kept.to_jsonl()
    assert evicted.counters == kept.counters


@pytest.mark.parametrize("scheme", ["rsa", "dsa", "ecdsa", "bls"])
def test_each_producer_scheme_signs_a_data_once_for_two_requests(monkeypatch, scheme):
    signed = _record_signing(monkeypatch)
    trace = run_config(producers=[dict(LINE["producers"][0], scheme=scheme)])
    assert [r.delivered for r in trace.requests] == [
        producer_payload(7, parse_name(CONTENT_NAME))] * 2
    # the second request is a cache hit, so one Data was signed
    [(pub, data)] = signed
    assert sigs.verify(pub, signed_portion(data), data.signature)


@pytest.mark.parametrize("scheme", ["ecdsa", "dsa"])
def test_producers_sign_each_data_with_a_fresh_nonce(monkeypatch, scheme):
    signed = _record_signing(monkeypatch)
    batches = []
    precompute = ecdsa.precompute_nonces

    def counted(rng, count):
        batches.append(count)
        return precompute(rng, count)

    monkeypatch.setattr(ecdsa, "precompute_nonces", counted)
    trace = run(*load_config(_bench_tree(scheme, False, CHURN_NAMES, False, 7, 100)))
    assert all(r.delivered is not None for r in trace.requests)
    assert len(signed) > 90 and _fresh_signatures(signed)
    # an ECDSA producer draws its nonces NONCE_BATCH at a time
    if scheme == "ecdsa":
        assert batches == [simnet.NONCE_BATCH] * -(-len(signed) // simnet.NONCE_BATCH)
    else:
        assert batches == []


@pytest.mark.parametrize("shape", ["churn", "zipf", "poison", "evicted"])
def test_no_run_encodes_or_decodes_a_packet(monkeypatch, shape):
    def refuse(_):
        raise AssertionError("a hop reached the codec")

    # hops carry packets; only signing and verifying touch bytes
    monkeypatch.setattr(simnet, "encode", refuse)
    monkeypatch.setattr(simnet, "decode", refuse)
    if shape == "evicted":
        # caches answer with Data the producer has since dropped and signed again
        monkeypatch.setattr(simnet, "KEPT_NAMES", 2)
        trace = run(*load_config(_evicted_config()))
    elif shape == "poison":
        # criterion 10's config: r1 answers with the forged Data from its CS
        trace = run_config(seed=19, nodes=POISON_NODES, schedule=POISON_SCHEDULE,
                           attacks=POISON_ATTACKS)
        assert trace.requests[0].delivered == producer_payload(19, parse_name(CONTENT_NAME))
        assert trace.counters["c1"]["dropped_bogus"] >= 1
    else:
        churn = shape == "churn"
        trace = run(*load_config(_bench_tree("ecdsa" if churn else "bls", not churn,
                                             CHURN_NAMES if churn else ZIPF_NAMES,
                                             not churn, 7, 100)))
    assert all(r.delivered is not None for r in trace.requests)


def test_every_hop_shares_a_packet_built_once(monkeypatch):
    arrived = Counter()
    arrive = simnet._Runner.arrive

    def spied_arrive(runner, node_id, face, packet, text, tick):
        arrived[id(packet)] += 1
        kept.append(packet)
        return arrive(runner, node_id, face, packet, text, tick)

    kept = []  # holds each arrived packet, so no id is reused during the run
    monkeypatch.setattr(simnet._Runner, "arrive", spied_arrive)
    signed = _record_signing(monkeypatch)
    trace = run(*load_config(_bench_tree("ecdsa", False, CHURN_NAMES, False, 7, 100)))
    assert all(r.delivered is not None for r in trace.requests)
    # every emission arrives once, and caches and routers pass on the very
    # Data object the producer signed rather than a copy
    emits = sum(r["event"] in ("emit_interest", "emit_data") for r in trace.records)
    assert sum(arrived.values()) == emits
    data_ids = {id(p) for p in kept if isinstance(p, Data)}
    assert data_ids == {id(data) for _, data in signed}
    interests = {id(p): p for p in kept if isinstance(p, Interest)}
    requested = {r["nonce"] for r in trace.records if r["event"] == "request"}
    assert {p.nonce for p in interests.values()} == requested
    # one Interest object per nonce: a forwarded Interest is not rebuilt
    assert len(interests) == len(requested)
    assert emits > 4 * (len(interests) + len(data_ids))


def test_a_memo_that_starts_over_changes_no_trace_byte(monkeypatch):
    shaped = _bench_tree("ecdsa", False, CHURN_NAMES, False, 7, 100)
    kept = run(*load_config(shaped))
    # the memo of name texts starts over every two names, and the producer
    # drops Data that caches still answer with
    monkeypatch.setattr(simnet, "KEPT_NAMES", 2)
    small = run(*load_config(shaped))
    assert small.to_jsonl() == kept.to_jsonl()
    assert small.counters == kept.counters
    assert ([(r.delivered, r.delivered_tick, r.hops) for r in small.requests]
            == [(r.delivered, r.delivered_tick, r.hops) for r in kept.requests])


def test_name_texts_are_looked_up_per_request_not_per_hop():
    lookups = Counter()

    class CountingTexts(dict):
        def get(self, name, default=None):
            lookups[name] += 1
            return super().get(name, default)

        def __getitem__(self, name):
            lookups[name] += 1
            return super().__getitem__(name)

        def __contains__(self, name):
            lookups[name] += 1
            return super().__contains__(name)

    runner = simnet._Runner(*load_config(
        _bench_tree("ecdsa", False, CHURN_NAMES, False, 7, 100)))
    runner.texts = CountingTexts()
    trace = runner.run()
    assert all(r.delivered is not None for r in trace.requests)
    events = Counter(r["event"] for r in trace.records)
    # a name's text is looked up where the name enters the run, once per
    # attempt and per timeout or give-up record; every hop takes it from
    # the hop before, and a produced Data from the Interest it answers
    assert sum(lookups.values()) == events["request"] + events["timeout"] + events["give_up"]
    assert events["publish"] > 90
    assert events["recv_interest"] + events["recv_data"] > 10 * sum(lookups.values())


def _peak_state(requests: int) -> tuple[int, int]:
    """Run a churn-shaped schedule whose every request asks for a new name
    (a sequence-numbered fetch); return the peak over the run of the summed
    PIT and duplicate-nonce entries of all nodes plus the runner's ledger,
    name-text and published-Data entries, and the number of
    Interests the nodes admitted."""
    config = json.loads(_bench_tree("ecdsa", False, CHURN_NAMES, False, 5, requests))
    for seq, entry in enumerate(config["schedule"]):
        entry["name"] = f"/snnu/video/seg={seq}"
    runner = simnet._Runner(*load_config(config))
    size = {"nodes": 0, "peak": 0}

    def record_peak() -> None:
        # runner entries are read whole, so nested runner calls count once
        in_runner = len(runner.pending) + len(runner.texts) + len(runner.published)
        size["peak"] = max(size["peak"], size["nodes"] + in_runner)

    def node_tracked(method):
        def wrapper(node, *args):
            before = len(node.pit) + len(node._seen)
            out = method(node, *args)
            size["nodes"] += len(node.pit) + len(node._seen) - before
            record_peak()
            return out
        return wrapper

    def runner_tracked(method):
        def wrapper(owner, *args):
            out = method(owner, *args)
            record_peak()
            return out
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        # the only methods that add or drop PIT or nonce entries, and the
        # only runner methods that add ledger, text or published entries
        for attr in ("process_interest", "process_data", "sweep"):
            mp.setattr(simnet.Node, attr, node_tracked(getattr(simnet.Node, attr)))
        for attr in ("issue", "text", "answer"):
            mp.setattr(simnet._Runner, attr, runner_tracked(getattr(simnet._Runner, attr)))
        trace = runner.run()
    assert all(r.delivered is not None for r in trace.requests)
    # every request was delivered, so none is left in the ledger
    assert not runner.pending
    # every name is new, so the producer holds as many Data as it may, and
    # the memo of name texts has started over instead of growing past it
    assert len(runner.published) == min(requests, simnet.KEPT_NAMES)
    assert len(runner.texts) <= simnet.KEPT_NAMES
    admitted = sum(c["cs_hits"] + c["cs_misses"] for c in trace.counters.values())
    return size["peak"], admitted


def test_runner_state_stays_under_a_bound_independent_of_run_length():
    # an Interest leaves a nonce record, and at most a PIT entry, on each of
    # the TREE_DEPTH + 2 nodes of its path; each is gone by the first sweep
    # after its lifetime ends, so no more than the requests of one
    # lifetime-plus-sweep window hold any
    window = simnet.DEFAULT_LIFETIME_MS + simnet.SWEEP_TICKS
    nodes = 2 * (TREE_DEPTH + 2) * (window // REQUEST_GAP_TICKS + 1)
    # a request stays in the ledger from its first attempt until it is
    # delivered or gives up, at most MAX_ATTEMPTS lifetimes later
    ledger = simnet.MAX_ATTEMPTS * (simnet.DEFAULT_LIFETIME_MS + 1) // REQUEST_GAP_TICKS + 1
    # the runner keeps at most KEPT_NAMES name texts, and the producer at
    # most KEPT_NAMES signed Data
    memos = 2 * simnet.KEPT_NAMES
    bound = nodes + ledger + memos
    short, _ = _peak_state(2_000)
    long, admitted = _peak_state(8_000)
    assert short <= bound and long <= bound
    # without the sweep, the memo bounds and the ledger's removals the long
    # run would pass it
    assert admitted > bound


# --- cache poisoning ---------------------------------------------------------


def test_poison_with_verification_on_recovers_authentic_content():
    trace = run_config(
        nodes=POISON_NODES, schedule=POISON_SCHEDULE, attacks=POISON_ATTACKS
    )
    req = trace.requests[0]
    assert req.delivered == producer_payload(7, parse_name(CONTENT_NAME))
    assert req.attempts == 2
    assert trace.counters["c1"]["dropped_bogus"] >= 1


def test_poison_with_verification_off_delivers_bogus_content():
    off = [dict(POISON_NODES[0], verify=False)] + POISON_NODES[1:]
    trace = run_config(nodes=off, schedule=POISON_SCHEDULE, attacks=POISON_ATTACKS)
    req = trace.requests[0]
    assert req.delivered == forged_payload(7, parse_name(CONTENT_NAME))
    assert req.delivered != producer_payload(7, parse_name(CONTENT_NAME))
    assert trace.counters["c1"]["dropped_bogus"] == 0


def test_poisoning_an_unrequested_name_changes_nothing():
    stray = [{"tick": 0, "node": "r1", "name": "/snnu/other/thing"}]
    trace = run_config(nodes=POISON_NODES, schedule=POISON_SCHEDULE, attacks=stray)
    req = trace.requests[0]
    assert req.delivered == producer_payload(7, parse_name(CONTENT_NAME))
    assert req.attempts == 1
    assert trace.counters["c1"]["dropped_bogus"] == 0


def test_verified_deliveries_match_published_bytes():
    trace = run_config(
        nodes=POISON_NODES, schedule=POISON_SCHEDULE, attacks=POISON_ATTACKS
    )
    published = {str(r.name): producer_payload(7, r.name) for r in trace.requests}
    for req in trace.requests:
        assert req.delivered == published[str(req.name)]


def test_attack_config_rejects_unknown_node():
    bad = [{"tick": 0, "node": "ghost", "name": CONTENT_NAME}]
    with pytest.raises(UnknownNode):
        load_config(config(attacks=bad))
