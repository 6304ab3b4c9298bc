"""One NDN forwarder: Content Store, PIT, FIB, and the forwarding pipeline.

An Interest walks CS -> PIT -> FIB: a fresh cached copy answers it on the
spot, a pending entry absorbs it (the new face is recorded for the eventual
reply), and otherwise it is forwarded along the longest matching FIB prefix
and a PIT entry is left behind. Data retraces Interests: without a PIT entry
it is unsolicited and dropped; with one it is replicated to every recorded
face, cached, and the entry erased. Nodes can additionally verify signatures
on path against a prefix-keyed trust store, in which case failing Data is
dropped while the PIT entry stays alive to admit the authentic copy.

All state lives in plain dictionaries mutated only by process_interest and
process_data, so a node is a deterministic single-threaded state machine;
times are integer milliseconds supplied by the caller.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional

from .naming import Name, longest_prefix_match
from .signatures import verifier_for
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
    inserted: int
    last_access: int
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
        entry.last_access = now
        self._entries.move_to_end(name)
        return entry.data

    def put(self, data: Data, now: int) -> None:
        if self.capacity == 0:
            return
        # a fresher duplicate overwrites the cached copy
        deadline = now + self.freshness_ms
        self._entries[data.name] = CsEntry(
            data=data, inserted=now, last_access=now, deadline=deadline
        )
        self._earliest_deadline = min(self._earliest_deadline, deadline)
        self._entries.move_to_end(data.name)
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
    faces: set[int]
    expiry: int


@dataclass(frozen=True)
class FibEntry:
    prefix: Name
    faces: tuple[int, ...]


@dataclass(frozen=True)
class TrustAnchor:
    prefix: Name
    scheme_id: int
    verifier: Callable[[bytes, bytes], bool]


class TrustStore:
    """Trust anchors keyed by the longest prefix of a Data's key locator."""

    def __init__(self):
        self._anchors: dict[Name, TrustAnchor] = {}

    def add(self, prefix: Name, scheme_id: int, context) -> None:
        """Anchor a public key (or ring key list) under a key-name prefix."""
        self._anchors[prefix] = TrustAnchor(
            prefix=prefix, scheme_id=scheme_id, verifier=verifier_for(context)
        )

    def lookup(self, key_locator: Name) -> Optional[TrustAnchor]:
        best = longest_prefix_match(self._anchors.keys(), key_locator)
        return None if best is None else self._anchors[best]

    def verify_data(self, data: Data) -> bool:
        anchor = self.lookup(data.key_locator)
        if anchor is None or anchor.scheme_id != data.scheme_id:
            return False
        return anchor.verifier(signed_portion(data), data.signature)


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
        self.fib: dict[Name, FibEntry] = {}
        self.trust = TrustStore()
        self.verify_on_path = verify_on_path
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self._seen: dict[tuple[Name, int], int] = {}

    # --- routing and maintenance ---------------------------------------------

    def fib_add_route(self, prefix: Name, face: int) -> None:
        entry = self.fib.get(prefix)
        if entry is None:
            self.fib[prefix] = FibEntry(prefix=prefix, faces=(face,))
        elif face not in entry.faces:
            self.fib[prefix] = FibEntry(prefix=prefix, faces=entry.faces + (face,))

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
        key = (interest.name, interest.nonce)
        expiry = self._seen.get(key)
        if expiry is not None and now < expiry:
            return []  # looped or duplicated Interest
        self._seen[key] = now + interest.lifetime_ms

        cached = self.cs.get(interest.name, now)
        if cached is not None:
            self.counters["cs_hits"] += 1
            return [(face, cached)]
        self.counters["cs_misses"] += 1

        entry = self._pit_alive(interest.name, now)
        if entry is not None:
            entry.faces.add(face)
            entry.expiry = max(entry.expiry, now + interest.lifetime_ms)
            return []

        prefix = longest_prefix_match(self.fib.keys(), interest.name)
        if prefix is None:
            self.counters["no_route"] += 1
            return []
        out = [f for f in self.fib[prefix].faces if f != face]
        if not out:
            self.counters["no_route"] += 1
            return []
        self.pit[interest.name] = PitEntry(
            faces={face}, expiry=now + interest.lifetime_ms
        )
        self.counters["forwarded"] += 1
        return [(f, interest) for f in out]

    def process_data(self, face: int, data: Data, now: int) -> list[Emission]:
        entry = self._pit_alive(data.name, now)
        if entry is None:
            self.counters["dropped_unsolicited"] += 1
            return []
        if self.verify_on_path and not self.trust.verify_data(data):
            # keep the PIT entry: the authentic copy may still arrive
            self.counters["dropped_bogus"] += 1
            return []
        assert entry.faces, "PIT entries always record at least one face"
        emissions = [(f, data) for f in sorted(entry.faces)]
        del self.pit[data.name]
        self.cs.put(data, now)
        return emissions
