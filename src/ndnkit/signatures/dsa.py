"""DSA over the shared 1024/160 group; signatures are r || s, 20 bytes each."""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from ..intmath import i2osp, os2ip
from .dlgroup import gen_pow, key_pow, rand_scalar
from .params import DL_P, DL_Q, SCHEME_DSA, SchemeParams


@dataclass(frozen=True)
class DsaPublicKey:
    y: int

    scheme_id = SCHEME_DSA


@dataclass(frozen=True)
class DsaPrivateKey:
    x: int
    y: int

    scheme_id = SCHEME_DSA

    def public(self) -> DsaPublicKey:
        return DsaPublicKey(self.y)


def _digest(msg: bytes) -> int:
    # leftmost |q| = 160 bits of the hash
    return os2ip(hashlib.sha256(msg).digest()[:20])


def keygen(params: SchemeParams, rng: random.Random | None = None) -> DsaPrivateKey:
    rng = rng or random.SystemRandom()
    x = rand_scalar(rng)
    return DsaPrivateKey(x=x, y=gen_pow(x))


def sign(key: DsaPrivateKey, msg: bytes, rng: random.Random | None = None) -> bytes:
    rng = rng or random.SystemRandom()
    z = _digest(msg)
    while True:
        k = rand_scalar(rng)
        r = gen_pow(k) % DL_Q
        if r == 0:
            continue
        s = pow(k, -1, DL_Q) * (z + key.x * r) % DL_Q
        if s == 0:
            continue
        return i2osp(r, 20) + i2osp(s, 20)


def verify(key: DsaPublicKey, msg: bytes, sig: bytes) -> bool:
    if len(sig) != 40:
        return False
    r, s = os2ip(sig[:20]), os2ip(sig[20:])
    if not (0 < r < DL_Q and 0 < s < DL_Q):
        return False
    w = pow(s, -1, DL_Q)
    u1 = _digest(msg) * w % DL_Q
    u2 = r * w % DL_Q
    v = gen_pow(u1) * key_pow(key.y, u2) % DL_P % DL_Q
    return v == r
