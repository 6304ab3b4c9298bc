"""Per-layer tracing for the benchmark, applied from outside the program.

``Tracer`` patches the public functions each ndnkit layer exposes with thin
wrappers that record a span (duration, and self time: duration minus the
direct child spans) or a count, and restores every attribute on exit. The
wrappers only observe: arguments and results pass through untouched, so a
traced simulation replays to the same trace bytes as an untraced one.

Functions imported by name into several modules are patched in each of
them, since a caller looks the name up in its own module.
"""

from __future__ import annotations

import time
from collections import defaultdict

from ndnkit import accel, naming, netcoding, node, simnet
from ndnkit import signatures as sigs
from ndnkit.pairing import ate, curve
from ndnkit.pairing import pairing_call_count
from ndnkit.signatures import bls, chameleon, dlgroup, dsa, ecdsa, group, ring

import ndnkit.pairing as pairing_pkg


class Tracer:
    """Context manager: while active, every wrapped call is recorded here."""

    def __init__(self):
        self.spans: dict[str, list[int]] = defaultdict(list)  # name -> durations, ns
        self.self_ns: dict[str, list[int]] = defaultdict(list)
        self.encoded_bytes = 0
        self.sim_units: list[dict] = []  # one record per simnet.run
        self._stack: list[dict] = []  # open spans: layer -> child time, ns
        self._patched: list[tuple[object, str, object]] = []
        self._unit: dict = {}
        self._nodes: list = []
        self._verify_keys: set = set()

    # -- wrapping ------------------------------------------------------------

    def _timed(self, name, fn, name_of=None):
        clock = time.perf_counter_ns
        stack = self._stack
        spans, self_ns = self.spans, self.self_ns
        layer = name.split(".", 1)[0]  # span names are "<layer>.<function>"

        def wrapper(*args, **kwargs):
            children: dict[str, int] = {}
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    parent = stack[-1]
                    parent[layer] = parent.get(layer, 0) + dur
                full = name if name_of is None else name + name_of(*args)
                spans[full].append(dur)
                self_ns[full].append(dur - sum(children.values()))
                if name == "simnet.run":
                    self._close_unit(dur, children)

        return wrapper

    def _patch(self, owner, attr, replacement) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _span(self, owners, attr, name, name_of=None) -> None:
        for owner in owners:
            self._patch(owner, attr, self._timed(name, getattr(owner, attr), name_of))

    def __enter__(self) -> "Tracer":
        size = lambda seq, *rest: str(len(seq))
        timed_run = self._timed("simnet.run", simnet.run)

        def unit_run(*args, **kwargs):
            self._open_unit()
            return timed_run(*args, **kwargs)

        self._patch(simnet, "run", unit_run)
        self._span([simnet], "decode", "wire.decode")
        self._span([simnet, node], "signed_portion", "wire.signed_portion")
        self._span([node.Node], "process_interest", "node.process_interest")
        self._span([node.Node], "process_data", "node.process_data")
        self._span([node], "longest_prefix_match", "naming.lpm")
        self._span([sigs], "sign", "signatures.sign")
        self._span([sigs], "keygen", "signatures.keygen")
        self._span([ecdsa], "base_mul", "signatures.ecdsa_base_mul")
        self._span([ecdsa], "point_mul", "signatures.ecdsa_point_mul")
        self._span([dlgroup, dsa, group, ring, chameleon, sigs], "gen_pow",
                   "signatures.dl_gen_pow")
        self._span([ate, pairing_pkg, bls, accel, netcoding], "pairing_product",
                   "pairing.product", lambda pairs: str(len(pairs)))
        self._span([ate], "final_exponentiation", "pairing.final_exp")
        self._span([curve, pairing_pkg, bls, accel, netcoding], "hash_to_g1",
                   "pairing.hash_to_g1")
        # only BLS signing: full-width scalars, unlike the 80-bit batch exponents
        self._span([bls], "g1_mul", "pairing.g1_mul")
        self._span([curve, accel, netcoding], "g1_multi_exp", "pairing.g1_multi_exp", size)
        self._span([curve.G1MultiExp], "combine", "pairing.multi_exp_combine",
                   lambda tables, scalars: str(len(scalars)))

        encode = simnet.encode
        timed_encode = self._timed("wire.encode", encode)

        def counted_encode(packet):
            blob = timed_encode(packet)
            self.encoded_bytes += len(blob)
            return blob

        self._patch(simnet, "encode", counted_encode)

        verify_data = node.TrustStore.verify_data
        timed_verify = self._timed("node.verify_data", verify_data)

        def keyed_verify(store, data):
            # the anchor is fixed by (store, key locator); the signed portion
            # by name, content, key locator and scheme
            self._verify_keys.add((id(store), data.name, data.content,
                                   data.key_locator, data.scheme_id, data.signature))
            return timed_verify(store, data)

        self._patch(node.TrustStore, "verify_data", keyed_verify)

        from_bytes = curve.G1Point.from_bytes
        self._patch(curve.G1Point, "from_bytes", classmethod(
            self._timed("pairing.g1_decode", lambda cls, blob: from_bytes(blob))))

        to_text = naming.Name.__str__
        counts = self._unit

        def counted_str(name):
            counts["to_text"] += 1
            return to_text(name)

        self._patch(naming.Name, "__str__", counted_str)

        make_node = simnet.Node

        def recorded_node(*args, **kwargs):
            made = make_node(*args, **kwargs)
            self._nodes.append(made)
            return made

        self._patch(simnet, "Node", recorded_node)
        self._open_unit()
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- per simulation run ----------------------------------------------------

    def _counts(self) -> dict:
        return {
            "lpm": len(self.spans["naming.lpm"]),
            "encode": len(self.spans["wire.encode"]),
            "bytes": self.encoded_bytes,
            "verify": len(self.spans["node.verify_data"]),
            "sign": len(self.spans["signatures.sign"]),
            "pairings": pairing_call_count(),
        }

    def _open_unit(self) -> None:
        self._unit.clear()
        self._unit["to_text"] = 0
        self._unit_start = self._counts()
        self._nodes.clear()
        self._verify_keys.clear()

    def _close_unit(self, dur: int, children: dict) -> None:
        end = self._counts()
        record = {key: end[key] - self._unit_start[key] for key in end}
        record.update(
            to_text=self._unit["to_text"],
            verify_unique=len(self._verify_keys),
            run_ns=dur,
            children_ns=dict(children),
            pit_end=sum(len(n.pit) for n in self._nodes),
            cs_end=sum(len(n.cs) for n in self._nodes),
        )
        self.sim_units.append(record)
