"""Spontaneous 1-out-of-n ring signatures (challenge-chain construction).

Members use plain discrete-log key pairs; no setup or manager exists.  The
signer simulates every other member with random responses, closing the
challenge cycle with their own secret, so the signature is a starting
challenge plus one response per member and carries no signer position.
Verification walks the cycle once and checks it returns to the start.

Every ring key is validated as an order-q subgroup element on both sign
and verify: rings are assembled ad hoc from unauthenticated key lists, and
a rogue coset element would undermine both soundness and anonymity.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Sequence

from ..intmath import i2osp, os2ip
from .dlgroup import (
    DL_P,
    DL_Q,
    element_bytes,
    element_valid,
    gen_pow,
    hash_to_scalar,
    rand_scalar,
)
from .params import IndexOutOfRing, ParameterError, SCHEME_RING

_RING_TAG = b"ndnkit/ring-sig/v1"


@dataclass(frozen=True)
class RingPublicKey:
    y: int

    scheme_id = SCHEME_RING


@dataclass(frozen=True)
class RingPrivateKey:
    x: int
    y: int

    scheme_id = SCHEME_RING

    def public(self) -> RingPublicKey:
        return RingPublicKey(self.y)


def keygen(rng: random.Random | None = None) -> RingPrivateKey:
    rng = rng or random.SystemRandom()
    x = rand_scalar(rng)
    return RingPrivateKey(x=x, y=gen_pow(x))


def _ring_context(ys: Sequence[int]) -> bytes:
    h = hashlib.sha256(b"ndnkit/ring-keys/v1")
    for y in ys:
        h.update(element_bytes(y))
    return h.digest()


def _check_ring(ys: Sequence[int]) -> None:
    if len(ys) < 2:
        raise ParameterError("a ring needs at least two members")
    if len(set(ys)) != len(ys):
        raise ParameterError("ring keys must be distinct")
    for y in ys:
        if not element_valid(y):
            raise ParameterError("ring key outside the order-q subgroup")


def signature_bytes(ring_size: int) -> int:
    return 20 * (ring_size + 1)


def ring_sign(
    ring: Sequence[RingPublicKey],
    signer_index: int,
    signer_key: RingPrivateKey,
    msg: bytes,
    rng: random.Random | None = None,
) -> bytes:
    rng = rng or random.SystemRandom()
    ys = [k.y for k in ring]
    _check_ring(ys)
    n = len(ys)
    if not 0 <= signer_index < n:
        raise IndexOutOfRing(f"index {signer_index} in a ring of {n}")
    if ys[signer_index] != signer_key.y:
        raise ParameterError("signer's key does not sit at signer_index")
    ctx = _ring_context(ys)
    c = [0] * n
    s = [0] * n
    k = rand_scalar(rng)
    c[(signer_index + 1) % n] = hash_to_scalar(
        _RING_TAG, ctx, msg, element_bytes(gen_pow(k))
    )
    j = (signer_index + 1) % n
    while j != signer_index:
        s[j] = rand_scalar(rng)
        e = gen_pow(s[j]) * pow(ys[j], c[j], DL_P) % DL_P
        c[(j + 1) % n] = hash_to_scalar(_RING_TAG, ctx, msg, element_bytes(e))
        j = (j + 1) % n
    s[signer_index] = (k - c[signer_index] * signer_key.x) % DL_Q
    return b"".join([i2osp(c[0], 20)] + [i2osp(v, 20) for v in s])


def ring_verify(ring: Sequence[RingPublicKey], msg: bytes, sig: bytes) -> bool:
    ys = [k.y for k in ring]
    try:
        _check_ring(ys)
    except ParameterError:
        return False
    n = len(ys)
    if len(sig) != signature_bytes(n):
        return False
    c0 = os2ip(sig[:20])
    s = [os2ip(sig[20 * (i + 1) : 20 * (i + 2)]) for i in range(n)]
    if c0 >= DL_Q or any(v >= DL_Q for v in s):
        return False
    c = c0
    ctx = _ring_context(ys)
    for j in range(n):
        e = gen_pow(s[j]) * pow(ys[j], c, DL_P) % DL_P
        c = hash_to_scalar(_RING_TAG, ctx, msg, element_bytes(e))
    return c == c0
