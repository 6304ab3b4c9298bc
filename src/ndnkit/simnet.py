"""Deterministic discrete-event simulation of NDN topologies.

A topology is consumers, routers, and producers joined by point-to-point
links with integer-tick latencies; every node runs the forwarding pipeline
from the node module. A scenario schedules consumer requests and
cache-poisoning injections against that topology. run() replays the scenario
event by event and returns a trace: ordered per-node records, final counters,
and the outcome of every request. Events run by tick, then by node id, then
in the order they were pushed; the heap keys a node by its rank in the
sorted node ids, an integer that orders like the id itself.

Packets cross links as immutable objects: each hop event carries the packet
itself and the text of its name, and a node that emits the packet it
received passes that text on. The codec runs only where a signature needs
bytes: a producer signs each Data's signed portion, and a verifying node
checks it. The memo of name texts is read only where a name enters the run:
a request, its timeout or give-up, a poisoning. A link attack that alters
packets in flight (ROADMAP item 12) would encode the packet it carries,
alter the bytes and decode them on arrival, deriving the text again from the
decoded packet instead of passing it on.

Producers keep at most KEPT_NAMES signed Data and drop the least recently
served; a Data signed again carries a fresh signature, which no trace
record or counter holds. The memo of name texts holds at most KEPT_NAMES
names and starts over when full, and every SWEEP_TICKS ticks each node
drops its expired PIT, duplicate-nonce and CS entries. The ledger of
requests holds only the outstanding ones: a request joins it on its first
attempt and leaves once delivered or given up. So a run's state does not
grow with its length. None of this changes a trace: expired entries already
count as absent. Each event on the heap carries its handler.

A request's hops are credited as its packets are emitted. Each attempt's
nonce names its request while the attempt's lifetime lasts: an Interest
credits the owner of its own nonce, and a Data the owner of the nonce it
answers, which is the Interest it hit in a cache or the PIT in-record of the
face it leaves on.

Everything is derived from the config and its 64-bit seed: producer keys,
packet payloads, nonces, and forged attack keys all come from seeded
generators, so identical inputs replay to byte-identical traces. Each
producer key signs from one stream seeded at the start of the run, and an
ECDSA producer precomputes its signing nonces NONCE_BATCH at a time from it
(ecdsa.NoncePool). Keys and signing nonces both follow from the seed, so
neither is secret: a simulated signature shows cost and validity, not
security. Consumers retransmit an unanswered Interest with a fresh nonce
after its lifetime, up to three attempts in all; that retry policy is a
simulation choice, not a protocol requirement. A consumer's PIT merges its
requests for one name, so the Data that reaches it answers every one of
them still waiting.

One tick equals one millisecond of pipeline time.
"""

from __future__ import annotations

import heapq
import json
import random
from dataclasses import dataclass
from typing import NamedTuple, Optional

from . import signatures as sigs
from .intmath import mgf1
from .naming import Name, longest_prefix_match, parse_name
from .node import DEFAULT_CS_CAPACITY, DEFAULT_FRESHNESS_MS, Node
from .signatures.ecdsa import NoncePool
from .wire import DEFAULT_LIFETIME_MS, Data, Interest, Packet, decode, encode, signed_portion

# re-exported, not used here: perfbench's tracer patches simnet.encode and .decode
__all__ = ["decode", "encode"]

APP_FACE = 0
MAX_ATTEMPTS = 3
DEFAULT_TICK_LIMIT = 100_000
PAYLOAD_BYTES = 64
# names whose signed Data the producers keep, and whose texts the runner
# keeps before its memo of name texts starts over
KEPT_NAMES = 4096
# ticks between two sweeps of every node's expired state
SWEEP_TICKS = 1000
# nonces an ECDSA producer precomputes at a time (ecdsa.NoncePool).  Against
# per-Data nonces, churn units ran at 0.97x with batches of 1, 0.83-0.85x
# with 8, 0.82-0.83x with 16 and 0.84x with 32 (in process, one CPU of a
# 2-vCPU Xeon VM, Python 3.11)
NONCE_BATCH = 16

_ROLES = ("consumer", "router", "producer")
_PRODUCER_SCHEMES = {
    "rsa": sigs.SCHEME_RSA,
    "dsa": sigs.SCHEME_DSA,
    "ecdsa": sigs.SCHEME_ECDSA,
    "bls": sigs.SCHEME_BLS,
}


class SimError(Exception):
    """Base class for simulation failures."""


class ConfigError(SimError):
    """The topology or scenario description is unusable."""


class UnknownNode(ConfigError):
    """An operation referenced a node id the topology does not declare."""


class TickLimitExceeded(SimError):
    """The event loop ran past the configured tick limit."""


@dataclass(frozen=True)
class NodeSpec:
    node_id: str
    role: str
    cs_capacity: int
    verify: bool
    freshness_ms: int


@dataclass(frozen=True)
class Binding:
    prefix: Name
    node: str
    scheme_id: int
    key_name: Name


@dataclass(frozen=True)
class Topology:
    specs: dict[str, NodeSpec]
    # node id -> face id -> (peer node id, peer face id, latency)
    faces: dict[str, dict[int, tuple[str, int, int]]]
    # node id -> prefix -> outgoing face (APP_FACE on the bound producer)
    routes: dict[str, dict[Name, int]]
    bindings: tuple[Binding, ...]


@dataclass(frozen=True)
class RequestSpec:
    tick: int
    consumer: str
    name: Name
    lifetime_ms: int = DEFAULT_LIFETIME_MS


@dataclass(frozen=True)
class AttackSpec:
    tick: int
    node: str
    name: Name


@dataclass(frozen=True)
class Scenario:
    schedule: tuple[RequestSpec, ...]
    attacks: tuple[AttackSpec, ...]
    seed: int
    tick_limit: int


@dataclass
class RequestResult:
    consumer: str
    name: Name
    first_tick: int
    attempts: int = 0
    delivered: Optional[bytes] = None
    delivered_tick: Optional[int] = None
    hops: int = 0
    """The link transmissions made for this request before its delivery:
    its Interests, and the Data that answer them. Each transmission counts
    for at most one request."""


@dataclass
class Trace:
    records: list[dict]
    counters: dict[str, dict[str, int]]
    requests: list[RequestResult]

    def to_jsonl(self) -> str:
        return "".join(json.dumps(r, sort_keys=True) + "\n" for r in self.records)


# --- config parsing ----------------------------------------------------------


def _as_dict(config) -> dict:
    if isinstance(config, dict):
        return config
    if isinstance(config, bytes):
        config = config.decode("utf-8", errors="replace")
    try:
        parsed = json.loads(config)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(parsed, dict):
        raise ConfigError("config must be a JSON object")
    return parsed


def _section(cfg: dict, key: str) -> list[dict]:
    """cfg[key] as a list of objects, empty when absent."""
    entries = cfg.get(key, [])
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ConfigError(f"{key} must be a list of objects")
    return entries


def _parse_config_name(text, what: str, packet: bool = False) -> Name:
    """A name from the config; a packet's name must not be the root."""
    if not isinstance(text, str):
        raise ConfigError(f"{what} must be a name string")
    try:
        name = parse_name(text)
    except ValueError as exc:
        raise ConfigError(f"bad {what} {text!r}: {exc}") from exc
    if packet and len(name) == 0:
        raise ConfigError(f"{what} must not be the root name")
    return name


def _int_field(record: dict, key: str, default: int, what: str, minimum: int = 0,
               bits: Optional[int] = None) -> int:
    value = record.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ConfigError(f"{what}.{key} must be an integer >= {minimum}")
    if bits is not None and value >= 2**bits:
        raise ConfigError(f"{what}.{key} must fit in {bits} bits")
    return value


def _declared(specs: dict[str, NodeSpec], node_id) -> Optional[NodeSpec]:
    """The spec of a node id read from the config, None when it names no
    declared node (a list or object there is not hashable, so look first)."""
    return specs.get(node_id) if isinstance(node_id, str) else None


def build_topology(config) -> Topology:
    cfg = _as_dict(config)
    specs: dict[str, NodeSpec] = {}
    for entry in _section(cfg, "nodes"):
        node_id = entry.get("id")
        if not isinstance(node_id, str) or not node_id:
            raise ConfigError("every node needs a non-empty string id")
        if node_id in specs:
            raise ConfigError(f"duplicate node id {node_id!r}")
        role = entry.get("role", "router")
        if role not in _ROLES:
            raise ConfigError(f"node {node_id!r} has unknown role {role!r}")
        verify = entry.get("verify", role == "consumer")
        if not isinstance(verify, bool):
            raise ConfigError(f"node {node_id!r}.verify must be true or false")
        specs[node_id] = NodeSpec(
            node_id=node_id,
            role=role,
            cs_capacity=_int_field(
                entry, "cs_capacity", 0 if role == "consumer" else DEFAULT_CS_CAPACITY,
                f"node {node_id!r}",
            ),
            verify=verify,
            freshness_ms=_int_field(
                entry, "freshness_ms", DEFAULT_FRESHNESS_MS, f"node {node_id!r}", minimum=1
            ),
        )
    if not specs:
        raise ConfigError("config declares no nodes")

    faces: dict[str, dict[int, tuple[str, int, int]]] = {nid: {} for nid in specs}
    for link in _section(cfg, "links"):
        a, b = link.get("a"), link.get("b")
        for end in (a, b):
            if _declared(specs, end) is None:
                raise ConfigError(f"link references undeclared node {end!r}")
        if a == b:
            raise ConfigError(f"link endpoints must differ (node {a!r})")
        a_face = _int_field(link, "a_face", -1, "link", minimum=1)
        b_face = _int_field(link, "b_face", -1, "link", minimum=1)
        latency = _int_field(link, "latency", 1, "link", minimum=1)
        for nid, face in ((a, a_face), (b, b_face)):
            if face in faces[nid]:
                raise ConfigError(f"duplicate face {face} on node {nid!r}")
        faces[a][a_face] = (b, b_face, latency)
        faces[b][b_face] = (a, a_face, latency)

    bindings: list[Binding] = []
    for entry in _section(cfg, "producers"):
        node = entry.get("node")
        spec = _declared(specs, node)
        if spec is None:
            raise ConfigError(f"producer binding references undeclared node {node!r}")
        if spec.role != "producer":
            raise ConfigError(f"node {node!r} is not a producer")
        prefix = _parse_config_name(entry.get("prefix"), "producer prefix")
        if any(b.prefix == prefix for b in bindings):
            raise ConfigError(f"duplicate producer prefix {entry.get('prefix')!r}")
        scheme = entry.get("scheme", "bls")
        # a list or object is not hashable, so look at its type first
        if not isinstance(scheme, str) or scheme not in _PRODUCER_SCHEMES:
            raise ConfigError(f"producers cannot sign with scheme {scheme!r}")
        key_name = (
            _parse_config_name(entry["key_name"], "producer key name")
            if "key_name" in entry
            else prefix.child(b"keys")
        )
        bindings.append(
            Binding(
                prefix=prefix,
                node=node,
                scheme_id=_PRODUCER_SCHEMES[scheme],
                key_name=key_name,
            )
        )

    routes = _compute_routes(specs, faces, bindings)
    return Topology(
        specs=specs, faces=faces, routes=routes, bindings=tuple(bindings)
    )


def _compute_routes(specs, faces, bindings) -> dict[str, dict[Name, int]]:
    routes: dict[str, dict[Name, int]] = {nid: {} for nid in specs}
    for binding in bindings:
        dist = _shortest_distances(faces, binding.node)
        for nid in specs:
            if nid == binding.node:
                routes[nid][binding.prefix] = APP_FACE
                continue
            if nid not in dist:
                continue
            # choose the face whose neighbor sits on a shortest path,
            # tie-broken by (neighbor distance, neighbor id, face id)
            best = min(
                (
                    (dist[peer], peer, face)
                    for face, (peer, _, latency) in faces[nid].items()
                    if peer in dist and dist[peer] + latency == dist[nid]
                ),
                default=None,
            )
            if best is not None:
                routes[nid][binding.prefix] = best[2]
        for nid, spec in specs.items():
            if spec.role == "consumer" and binding.prefix not in routes[nid]:
                raise ConfigError(
                    f"prefix {binding.prefix} is unroutable from consumer {nid!r}"
                )
    return routes


def _shortest_distances(faces, origin: str) -> dict[str, int]:
    dist = {origin: 0}
    heap = [(0, origin)]
    while heap:
        d, nid = heapq.heappop(heap)
        if d > dist.get(nid, d):
            continue
        for peer, _, latency in faces[nid].values():
            nd = d + latency
            if nd < dist.get(peer, nd + 1):
                dist[peer] = nd
                heapq.heappush(heap, (nd, peer))
    return dist


def build_scenario(cfg: dict, specs: dict[str, NodeSpec]) -> Scenario:
    """The schedule, attacks and run settings of cfg, against its parsed nodes."""
    schedule = []
    for entry in _section(cfg, "schedule"):
        consumer = entry.get("consumer")
        spec = _declared(specs, consumer)
        if spec is None or spec.role != "consumer":
            raise ConfigError(f"schedule references non-consumer {consumer!r}")
        schedule.append(
            RequestSpec(
                tick=_int_field(entry, "tick", 0, "schedule entry"),
                consumer=consumer,
                name=_parse_config_name(entry.get("name"), "scheduled name", packet=True),
                lifetime_ms=_int_field(entry, "lifetime_ms", DEFAULT_LIFETIME_MS,
                                       "schedule entry", minimum=1, bits=32),
            )
        )
    attacks = []
    for entry in _section(cfg, "attacks"):
        node = entry.get("node")
        if _declared(specs, node) is None:
            raise UnknownNode(f"attack references undeclared node {node!r}")
        attacks.append(
            AttackSpec(
                tick=_int_field(entry, "tick", 0, "attack entry"),
                node=node,
                name=_parse_config_name(entry.get("name"), "attack name", packet=True),
            )
        )
    return Scenario(
        schedule=tuple(schedule),
        attacks=tuple(attacks),
        seed=_int_field(cfg, "seed", 0, "config", bits=64),
        tick_limit=_int_field(cfg, "tick_limit", DEFAULT_TICK_LIMIT, "config", minimum=0),
    )


def load_config(config) -> tuple[Topology, Scenario]:
    cfg = _as_dict(config)
    topology = build_topology(cfg)
    return topology, build_scenario(cfg, topology.specs)


# --- deterministic content ---------------------------------------------------


_CONTENT_TAG = b"ndnkit/sim-content/v1"


def _stretch(tag: bytes, seed: int, text: str) -> bytes:
    return mgf1(tag + seed.to_bytes(8, "big") + text.encode(), PAYLOAD_BYTES)


def producer_payload(seed: int, name: Name) -> bytes:
    """The content bytes every producer publishes for a name under this seed."""
    return _stretch(_CONTENT_TAG, seed, str(name))


def forged_payload(seed: int, name: Name) -> bytes:
    return _stretch(b"ndnkit/sim-poison/v1", seed, str(name))


def _rng_for(seed: int, *labels: str) -> random.Random:
    return random.Random("/".join((str(seed),) + labels))


# --- the event loop ----------------------------------------------------------


class _Producer(NamedTuple):
    """A bound producer: its binding, its signing key, and the one stream
    that every signature under the key draws on."""

    binding: Binding
    key: object
    rng: random.Random | NoncePool

    def sign(self, name: Name, content: bytes) -> Data:
        """The Data of name and content, signed under this producer's key."""
        blank = Data(
            name=name,
            content=content,
            key_locator=self.binding.key_name,
            scheme_id=self.binding.scheme_id,
            signature=b"",
        )
        return blank.with_signature(sigs.sign(self.key, signed_portion(blank), self.rng).data)


class _Runner:
    def __init__(self, topology: Topology, scenario: Scenario):
        self.topology = topology
        self.scenario = scenario
        self.records: list[dict] = []
        self.requests: list[RequestResult] = []
        # outstanding requests per (consumer, name): a request joins on its
        # first attempt and leaves once delivered or given up
        self.pending: dict[tuple[str, Name], list[RequestResult]] = {}
        # nonce of each attempt whose lifetime lasts -> its request
        self.owners: dict[int, RequestResult] = {}
        self.texts: dict[Name, str] = {}
        # (tick, node rank, seq, handler, args); seq is unique, so the heap
        # never compares handlers
        self.heap: list[tuple] = []
        self.seq = 0
        # node id -> its place in sorted(node ids), so that ranks break a
        # tick's ties in node-id order
        self.ranks = {nid: rank for rank, nid in enumerate(sorted(topology.specs))}
        self.nonce_rng = _rng_for(scenario.seed, "nonce")
        self.nodes = {
            nid: Node(
                nid,
                cs_capacity=spec.cs_capacity,
                verify_on_path=spec.verify,
                freshness_ms=spec.freshness_ms,
            )
            for nid, spec in topology.specs.items()
        }
        for nid, prefixes in topology.routes.items():
            for prefix, face in prefixes.items():
                self.nodes[nid].fib_add_route(prefix, face)
        self.producers: dict[Name, _Producer] = {}
        for b in topology.bindings:
            key = sigs.keygen(b.scheme_id,
                              rng=_rng_for(scenario.seed, "producer-key", str(b.prefix)))
            rng = _rng_for(scenario.seed, "sig", str(b.prefix))
            if b.scheme_id == sigs.SCHEME_ECDSA:
                rng = NoncePool(rng, NONCE_BATCH)
            self.producers[b.prefix] = _Producer(b, key, rng)
        anchors = [(b.key_name, b.scheme_id, key.public())
                   for b, key, _ in self.producers.values()]
        for node in self.nodes.values():
            for anchor in anchors:
                node.trust.add(*anchor)
        # name -> its signed Data, least recently served first
        self.published: dict[Name, Data] = {}

    # -- plumbing --

    def push(self, tick: int, node_id: str, handler, *args) -> None:
        """Schedule handler(*args, tick) at tick on node_id."""
        heapq.heappush(self.heap, (tick, self.ranks[node_id], self.seq, handler, args))
        self.seq += 1

    def text(self, name: Name) -> str:
        text = self.texts.get(name)
        if text is None:
            if len(self.texts) >= KEPT_NAMES:
                self.texts.clear()
            text = self.texts[name] = str(name)
        return text

    def log(self, tick: int, node_id: str, event: str, text: str,
            face: Optional[int], nonce: Optional[int] = None) -> None:
        record = {"tick": tick, "node": node_id, "event": event, "name": text, "face": face}
        if nonce is not None:
            record["nonce"] = nonce
        self.records.append(record)

    def route_emissions(self, node_id: str, emissions, tick: int, answers: dict,
                        text: str) -> None:
        """Send each emission on its face; answers maps a face to the nonce
        that a Data leaving on it answers. Every emission has the name of the
        packet the node just processed, and text is that name's text."""
        for face, packet in emissions:
            if face == APP_FACE:
                if isinstance(packet, Data):
                    self.deliver(node_id, packet, text, tick)
                else:
                    self.answer(node_id, packet, text, tick)
                continue
            if isinstance(packet, Interest):
                nonce = packet.nonce
                self.records.append({"tick": tick, "node": node_id, "event": "emit_interest",
                                     "name": text, "face": face, "nonce": nonce})
            else:
                nonce = answers[face]
                self.records.append({"tick": tick, "node": node_id, "event": "emit_data",
                                     "name": text, "face": face})
            owner = self.owners.get(nonce)
            if owner is not None and owner.delivered is None:
                owner.hops += 1
            peer, peer_face, latency = self.topology.faces[node_id][face]
            self.push(tick + latency, peer, self.arrive, peer, peer_face, packet, text)

    # -- applications --

    def issue(self, spec: RequestSpec, result: RequestResult, tick: int) -> None:
        if result.attempts == 0:
            self.pending.setdefault((spec.consumer, spec.name), []).append(result)
        result.attempts += 1
        nonce = self.nonce_rng.randrange(1, 2**32)
        self.owners[nonce] = result
        text = self.text(spec.name)
        self.log(tick, spec.consumer, "request", text, APP_FACE, nonce)
        interest = Interest(name=spec.name, nonce=nonce, lifetime_ms=spec.lifetime_ms)
        emissions = self.nodes[spec.consumer].process_interest(APP_FACE, interest, tick)
        self.route_emissions(spec.consumer, emissions, tick, {}, text)
        self.push(tick + spec.lifetime_ms + 1, spec.consumer, self.expire, spec, result, nonce)

    def expire(self, spec: RequestSpec, result: RequestResult, nonce: int,
               tick: int) -> None:
        """The request's latest Interest timed out: retransmit, or give up."""
        # pop, not del: a repeated 32-bit nonce may be gone already
        self.owners.pop(nonce, None)
        if result.delivered is not None:
            return
        if result.attempts < MAX_ATTEMPTS:
            self.log(tick, spec.consumer, "timeout", self.text(spec.name), APP_FACE)
            self.issue(spec, result, tick)
            return
        self.log(tick, spec.consumer, "give_up", self.text(spec.name), APP_FACE)
        # later deliveries go to the requests still waiting; RequestResult
        # compares by value, so remove this one by identity
        key = (spec.consumer, spec.name)
        waiting = self.pending[key]
        del waiting[next(i for i, r in enumerate(waiting) if r is result)]
        if not waiting:
            del self.pending[key]

    def deliver(self, node_id: str, data: Data, text: str, tick: int) -> None:
        self.log(tick, node_id, "deliver", text, APP_FACE)
        # the consumer's PIT merged its requests for the name into one entry,
        # so the Data answers every one still waiting
        for result in self.pending.pop((node_id, data.name), ()):
            result.delivered = data.content
            result.delivered_tick = tick

    def answer(self, node_id: str, interest: Interest, text: str, tick: int) -> None:
        prefix = longest_prefix_match(self.producers.keys(), interest.name)
        if prefix is None or self.producers[prefix].binding.node != node_id:
            self.log(tick, node_id, "no_binding", text, APP_FACE, interest.nonce)
            return
        data = self.published.pop(interest.name, None)
        if data is None:
            data = self.producers[prefix].sign(
                interest.name, _stretch(_CONTENT_TAG, self.scenario.seed, text))
            if len(self.published) >= KEPT_NAMES:
                del self.published[next(iter(self.published))]
        self.published[interest.name] = data
        self.log(tick, node_id, "publish", text, APP_FACE)
        self.take_data(node_id, APP_FACE, data, text, tick)

    def plant_poison(self, spec: AttackSpec, tick: int) -> None:
        prefix = longest_prefix_match(self.producers.keys(), spec.name)
        if prefix is not None:
            binding = self.producers[prefix].binding
        else:
            binding = Binding(
                prefix=spec.name,
                node=spec.node,
                scheme_id=sigs.SCHEME_BLS,
                key_name=spec.name.child(b"keys"),
            )
        forged_key = sigs.keygen(
            binding.scheme_id,
            rng=_rng_for(self.scenario.seed, "forged-key", str(spec.name)),
        )
        forger = _Producer(binding, forged_key,
                           _rng_for(self.scenario.seed, "forged-sig", str(spec.name)))
        data = forger.sign(spec.name, forged_payload(self.scenario.seed, spec.name))
        self.log(tick, spec.node, "poison", self.text(spec.name), None)
        self.nodes[spec.node].cs.put(data, tick)

    def arrive(self, node_id: str, face: int, packet: Packet, text: str, tick: int) -> None:
        """packet reaches node_id on face; text is its name's text, carried
        from the hop that sent it."""
        if isinstance(packet, Interest):
            self.records.append({"tick": tick, "node": node_id, "event": "recv_interest",
                                 "name": text, "face": face, "nonce": packet.nonce})
            # a cache hit answers on the arrival face
            self.route_emissions(node_id,
                                 self.nodes[node_id].process_interest(face, packet, tick),
                                 tick, {face: packet.nonce}, text)
        else:
            self.records.append({"tick": tick, "node": node_id, "event": "recv_data",
                                 "name": text, "face": face})
            self.take_data(node_id, face, packet, text, tick)

    def take_data(self, node_id: str, face: int, data: Data, text: str, tick: int) -> None:
        # the node erases the PIT entry it satisfies, so read its in-records first
        node = self.nodes[node_id]
        entry = node.pit.get(data.name)
        self.route_emissions(node_id, node.process_data(face, data, tick), tick,
                             entry.in_records if entry is not None else {}, text)

    # -- the loop --

    def run(self) -> Trace:
        for spec in self.scenario.schedule:
            result = RequestResult(
                consumer=spec.consumer, name=spec.name, first_tick=spec.tick
            )
            self.requests.append(result)
            self.push(spec.tick, spec.consumer, self.issue, spec, result)
        for attack in self.scenario.attacks:
            self.push(attack.tick, attack.node, self.plant_poison, attack)

        next_sweep = SWEEP_TICKS
        while self.heap:
            tick, _, _, handler, args = heapq.heappop(self.heap)
            if tick > self.scenario.tick_limit:
                raise TickLimitExceeded(f"event at tick {tick} passed the limit")
            if tick >= next_sweep:
                # no later event is earlier than tick, and every node already
                # treats state expired at tick as absent
                for node in self.nodes.values():
                    node.sweep(tick)
                next_sweep = tick - tick % SWEEP_TICKS + SWEEP_TICKS
            handler(*args, tick)

        counters = {nid: dict(node.counters) for nid, node in self.nodes.items()}
        return Trace(records=self.records, counters=counters, requests=self.requests)


def run(topology: Topology, scenario: Scenario) -> Trace:
    """Execute the scenario against a fresh instantiation of the topology."""
    return _Runner(topology, scenario).run()
