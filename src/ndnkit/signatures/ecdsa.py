"""ECDSA over secp160r1 (params.SECP160R1: a = -3, cofactor 1).

Scalar multiplication walks comb tables (intmath.Comb over the curve's
CurveOps record) with additions only, on signed digits: a negative digit
takes its entry with y negated, so a radix-2^w table holds 2^(w-1) entries
per row.  The base point's table serves signing: radix 2^9, 18 rows of 256,
built on first use (~25 ms), so k * G is at most 18 mixed additions.  Every
other point gets a radix-2^6 table (27 rows of 32, ~140 KB) on first use,
held in a bounded LRU keyed by point value, so a public key's table serves
every verify under that key.  A verify folds the picks of both tables
(Comb.picks) in one Jacobian sum: at most 18 + 27 mixed additions and one
inversion.  The first verify under a new key also pays for its table
(~4 ms).  Verify checks that the key lies on the curve before a table is
built for it.  Signature integers are emitted at the curve's fixed width,
with the nonce resampled in the (astronomically rare) case an integer does
not fit.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import lru_cache

from ..intmath import Comb, i2osp, jacobian_ops, os2ip
from .params import SCHEME_ECDSA, SECP160R1, SchemeParams

_P, _A, _B, _N = SECP160R1.p, SECP160R1.a, SECP160R1.b, SECP160R1.n
_WIDTH = SECP160R1.scalar_bytes
_OPS = jacobian_ops(_P, _A)
_DIGEST_SHIFT = 256 - _N.bit_length()  # sha256 truncated to the order's bits


@dataclass(frozen=True)
class EcdsaPublicKey:
    qx: int
    qy: int

    scheme_id = SCHEME_ECDSA


@dataclass(frozen=True)
class EcdsaPrivateKey:
    d: int
    qx: int
    qy: int

    scheme_id = SCHEME_ECDSA

    def public(self) -> EcdsaPublicKey:
        return EcdsaPublicKey(self.qx, self.qy)


def on_curve(x: int, y: int) -> bool:
    """(x, y) is a curve point with both coordinates reduced."""
    return x < _P and y < _P and (y * y - (x * x * x + _A * x + _B)) % _P == 0


def point_mul(pt, k: int):
    """k * pt through pt's comb table, built on first use (see _comb)."""
    k %= _N
    if pt is None or k == 0:
        return None
    return _comb(pt[0], pt[1]).mul(k)


@lru_cache(maxsize=128)
def _comb(x: int, y: int) -> Comb:
    """The signed radix-2^6 table for one curve point (27 rows of 32), kept
    per point value: a public key's serves every verify under it."""
    return Comb(_OPS, (x, y), _N.bit_length(), 6, signed=True)


@lru_cache(maxsize=1)
def _gen_comb() -> Comb:
    """The base point's signed radix-2^9 table (18 rows of 256), kept apart
    from the per-key LRU so that no run of keys evicts it."""
    return Comb(_OPS, (SECP160R1.gx, SECP160R1.gy), _N.bit_length(), 9, signed=True)


def base_mul(k: int):
    return _gen_comb().mul(k % _N)


def _digest(msg: bytes) -> int:
    return os2ip(hashlib.sha256(msg).digest()) >> _DIGEST_SHIFT


def keygen(params: SchemeParams, rng: random.Random | None = None) -> EcdsaPrivateKey:
    rng = rng or random.SystemRandom()
    d = rng.randrange(1, _N)
    qx, qy = base_mul(d)
    return EcdsaPrivateKey(d=d, qx=qx, qy=qy)


def sign(key: EcdsaPrivateKey, msg: bytes, rng: random.Random | None = None) -> bytes:
    rng = rng or random.SystemRandom()
    z = _digest(msg)
    bound = 1 << (8 * _WIDTH)
    while True:
        k = rng.randrange(1, _N)
        r = base_mul(k)[0] % _N
        if r == 0 or r >= bound:
            continue
        s = pow(k, -1, _N) * (z + r * key.d) % _N
        if s == 0 or s >= bound:
            continue
        return i2osp(r, _WIDTH) + i2osp(s, _WIDTH)


def verify(key: EcdsaPublicKey, msg: bytes, sig: bytes) -> bool:
    if len(sig) != 2 * _WIDTH:
        return False
    r, s = os2ip(sig[:_WIDTH]), os2ip(sig[_WIDTH:])
    if not (0 < r < _N and 0 < s < _N):
        return False
    if not on_curve(key.qx, key.qy):
        return False
    z = _digest(msg)
    w = pow(s, -1, _N)
    # u1 G + u2 Q as one fold of both tables' picks: one inversion, not three
    picked = _gen_comb().picks(z * w % _N)
    picked += _comb(key.qx, key.qy).picks(r * w % _N)
    pt = _OPS.fold(picked)
    if pt is None:
        return False
    return pt[0] % _N == r
