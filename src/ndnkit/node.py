"""One NDN forwarder: Content Store, PIT, FIB, and the forwarding pipeline.

An Interest walks CS -> PIT -> FIB: a fresh cached copy answers it on the
spot, a pending entry absorbs it, and otherwise it is forwarded along the
longest matching FIB prefix and a PIT entry is left behind. A PIT entry's
in-records keep each face an Interest arrived on, with the nonce of the
latest one, for the eventual reply. Data retraces Interests: without a
PIT entry it is unsolicited and dropped; with one it is replicated to every
in-record face, cached, and the entry erased. Nodes can additionally verify
signatures on path against a prefix-keyed trust store, in which case failing
Data is dropped while the PIT entry stays alive to admit the authentic copy.

All state lives in plain dictionaries keyed by name: the FIB maps a prefix
to its outgoing faces, the trust store a key-name prefix to the key that
signatures.verify checks against, whose scheme_id a Data's must match. Once
routes and anchors are installed, only process_interest and process_data
change that state, and sweep drops what has expired, so a node is a
deterministic single-threaded state machine; times are integer milliseconds
supplied by the caller.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from .naming import Name, longest_prefix_match
from .signatures import dispatch, verify
from .wire import Data, Interest, Packet, signed_portion

DEFAULT_CS_CAPACITY = 64
DEFAULT_FRESHNESS_MS = 10_000

Emission = tuple[int, Packet]

COUNTER_NAMES = (
    "cs_hits",
    "cs_misses",
    "forwarded",
    "dropped_unsolicited",
    "dropped_bogus",
    "no_route",
)


@dataclass
class CsEntry:
    data: Data
    deadline: int


class ContentStore:
    """Exact-name cache with freshness expiry first, then LRU replacement."""

    def __init__(self, capacity: int = DEFAULT_CS_CAPACITY,
                 freshness_ms: int = DEFAULT_FRESHNESS_MS):
        if capacity < 0:
            raise ValueError("capacity must not be negative")
        self.capacity = capacity
        self.freshness_ms = freshness_ms
        self._entries: OrderedDict[Name, CsEntry] = OrderedDict()
        # no deadline in the store is below this, so evict() need not look
        # for expired entries while now is under it
        self._earliest_deadline = math.inf

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, name: Name, now: int) -> Optional[Data]:
        entry = self._entries.get(name)
        if entry is None:
            return None
        if now >= entry.deadline:
            del self._entries[name]
            return None
        self._entries.move_to_end(name)
        return entry.data

    def put(self, data: Data, now: int) -> None:
        if self.capacity == 0:
            return
        # a fresher duplicate overwrites the cached copy
        deadline = now + self.freshness_ms
        entries = self._entries
        entries[data.name] = CsEntry(data, deadline)
        entries.move_to_end(data.name)
        if deadline < self._earliest_deadline:
            self._earliest_deadline = deadline
        if now >= self._earliest_deadline or len(entries) > self.capacity:
            self.evict(now)

    def evict(self, now: int) -> list[Name]:
        evicted = []
        if now >= self._earliest_deadline:
            evicted = [n for n, e in self._entries.items() if now >= e.deadline]
            for name in evicted:
                del self._entries[name]
            self._earliest_deadline = min(
                (e.deadline for e in self._entries.values()), default=math.inf
            )
        while len(self._entries) > self.capacity:
            name, _ = self._entries.popitem(last=False)  # least recently used
            evicted.append(name)
        return evicted


@dataclass
class PitEntry:
    # each in-face -> the nonce of the latest Interest that arrived on it
    in_records: dict[int, int]
    expiry: int

    @property
    def faces(self):
        """The in-faces, a set-like view of the in-records."""
        return self.in_records.keys()


class TrustStore:
    """Trust anchors keyed by the longest prefix of a Data's key locator."""

    def __init__(self):
        # key-name prefix -> the key verify takes
        self._anchors: dict[Name, object] = {}

    def add(self, prefix: Name, key) -> None:
        """Anchor a key that signatures.verify takes under a key-name prefix:
        a public key, or a RingKeys for a ring.  The key's scheme_id is the
        anchor's scheme.  Any other key raises SchemeMismatch here rather
        than on the first Data it would check."""
        dispatch(key, "verify")
        self._anchors[prefix] = key

    def verify_data(self, data: Data) -> bool:
        prefix = longest_prefix_match(self._anchors.keys(), data.key_locator)
        if prefix is None:
            return False
        key = self._anchors[prefix]
        return key.scheme_id == data.scheme_id and verify(key, signed_portion(data), data.signature)


class Node:
    """A forwarder identified by integer faces; roles differ only in wiring."""

    def __init__(
        self,
        node_id: str,
        cs_capacity: int = DEFAULT_CS_CAPACITY,
        verify_on_path: bool = False,
        freshness_ms: int = DEFAULT_FRESHNESS_MS,
    ):
        self.node_id = node_id
        self.cs = ContentStore(cs_capacity, freshness_ms)
        self.pit: dict[Name, PitEntry] = {}
        # prefix -> outgoing faces
        self.fib: dict[Name, tuple[int, ...]] = {}
        self.trust = TrustStore()
        self.verify_on_path = verify_on_path
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self._seen: dict[tuple[Name, int], int] = {}

    # --- routing and maintenance ---------------------------------------------

    def fib_add_route(self, prefix: Name, face: int) -> None:
        faces = self.fib.get(prefix, ())
        if face not in faces:
            self.fib[prefix] = faces + (face,)

    def sweep(self, now: int) -> None:
        """Garbage-collect expired PIT entries, dedup records, and CS entries."""
        for name in [n for n, e in self.pit.items() if now >= e.expiry]:
            del self.pit[name]
        for key in [k for k, expiry in self._seen.items() if now >= expiry]:
            del self._seen[key]
        self.cs.evict(now)

    def _pit_alive(self, name: Name, now: int) -> Optional[PitEntry]:
        entry = self.pit.get(name)
        if entry is not None and now >= entry.expiry:
            del self.pit[name]
            return None
        return entry

    # --- the forwarding pipeline ---------------------------------------------

    def process_interest(self, face: int, interest: Interest, now: int) -> list[Emission]:
        name, nonce, lifetime = interest.name, interest.nonce, interest.lifetime_ms
        key = (name, nonce)
        if self._seen.get(key, now) > now:
            return []  # looped or duplicated Interest
        self._seen[key] = now + lifetime

        cached = self.cs.get(name, now)
        if cached is not None:
            self.counters["cs_hits"] += 1
            return [(face, cached)]
        self.counters["cs_misses"] += 1

        entry = self._pit_alive(name, now)
        if entry is not None:
            entry.in_records[face] = nonce
            entry.expiry = max(entry.expiry, now + lifetime)
            return []

        prefix = longest_prefix_match(self.fib.keys(), name)
        if prefix is None:
            self.counters["no_route"] += 1
            return []
        out = [(f, interest) for f in self.fib[prefix] if f != face]
        if not out:
            self.counters["no_route"] += 1
            return []
        self.pit[name] = PitEntry({face: nonce}, now + lifetime)
        self.counters["forwarded"] += 1
        return out

    def process_data(self, face: int, data: Data, now: int) -> list[Emission]:
        entry = self._pit_alive(data.name, now)
        if entry is None:
            self.counters["dropped_unsolicited"] += 1
            return []
        if self.verify_on_path and not self.trust.verify_data(data):
            # keep the PIT entry: the authentic copy may still arrive
            self.counters["dropped_bogus"] += 1
            return []
        assert entry.in_records, "PIT entries always record at least one face"
        emissions = [(f, data) for f in sorted(entry.in_records)]
        del self.pit[data.name]
        self.cs.put(data, now)
        return emissions
