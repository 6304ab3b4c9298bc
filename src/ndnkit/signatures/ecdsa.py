"""ECDSA over the registered prime-field curves (a = -3, cofactor 1).

Scalar multiplication walks comb tables (intmath.Comb over the curve's
CurveOps record) with additions only.  The base point's table serves
signing: signed digits of radix 2^7, one table per curve built on first
use, so k * G is about |n|/7 mixed additions.  Every other point gets a
radix-16 table on first use, held in a bounded LRU keyed by (curve, point)
value, so a public key's table serves every verify under that key.  A
verify folds the picks of both tables (Comb.picks) in one Jacobian sum:
about |n|/7 + |n|/4 mixed additions and one inversion.  The first verify
under a new key also pays for its table (~3 ms on secp160r1).  Verify checks
that the key lies on the curve before a table is built for it.  Signature
integers are emitted at the curve's fixed width, with the nonce resampled
in the (astronomically rare) case an integer does not fit.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import lru_cache

from ..intmath import Comb, CurveOps, i2osp, jacobian_ops, os2ip
from .params import CURVES, CurveSpec, SCHEME_ECDSA, SchemeParams


@dataclass(frozen=True)
class EcdsaPublicKey:
    curve: str
    qx: int
    qy: int

    scheme_id = SCHEME_ECDSA

    def spec(self) -> CurveSpec:
        return CURVES[self.curve]


@dataclass(frozen=True)
class EcdsaPrivateKey:
    curve: str
    d: int
    qx: int
    qy: int

    scheme_id = SCHEME_ECDSA

    def public(self) -> EcdsaPublicKey:
        return EcdsaPublicKey(self.curve, self.qx, self.qy)


def on_curve(spec: CurveSpec, x: int, y: int) -> bool:
    return (y * y - (x * x * x + spec.a * x + spec.b)) % spec.p == 0


@lru_cache(maxsize=len(CURVES))
def _ops(spec: CurveSpec) -> CurveOps:
    """The curve's group record, built once per curve."""
    return jacobian_ops(spec.p, spec.a)


def point_mul(spec: CurveSpec, pt, k: int):
    """k * pt through pt's comb table, built on first use (see _comb)."""
    k %= spec.n
    if pt is None or k == 0:
        return None
    return _comb(spec, pt[0], pt[1]).mul(k)


@lru_cache(maxsize=128)
def _comb(spec: CurveSpec, x: int, y: int) -> Comb:
    """The radix-16 table for one curve point, kept per (curve, point) value:
    a public key's serves every verify under it."""
    return Comb(_ops(spec), (x, y), spec.n.bit_length(), 4)


@lru_cache(maxsize=len(CURVES))
def _gen_comb(spec: CurveSpec) -> Comb:
    """The base point's signed radix-2^7 table, kept apart from the per-key
    LRU so that no run of keys evicts it."""
    return Comb(_ops(spec), (spec.gx, spec.gy), spec.n.bit_length(), 7, signed=True)


def base_mul(spec: CurveSpec, k: int):
    return _gen_comb(spec).mul(k % spec.n)


def _digest(spec: CurveSpec, msg: bytes) -> int:
    z = os2ip(hashlib.sha256(msg).digest())
    extra = 256 - spec.n.bit_length()
    if extra > 0:
        z >>= extra
    return z


def keygen(params: SchemeParams, rng: random.Random | None = None) -> EcdsaPrivateKey:
    rng = rng or random.SystemRandom()
    spec = CURVES[params.curve]
    d = rng.randrange(1, spec.n)
    qx, qy = base_mul(spec, d)
    return EcdsaPrivateKey(curve=params.curve, d=d, qx=qx, qy=qy)


def sign(key: EcdsaPrivateKey, msg: bytes, rng: random.Random | None = None) -> bytes:
    rng = rng or random.SystemRandom()
    spec = CURVES[key.curve]
    z = _digest(spec, msg)
    width = spec.scalar_bytes
    bound = 1 << (8 * width)
    while True:
        k = rng.randrange(1, spec.n)
        r = base_mul(spec, k)[0] % spec.n
        if r == 0 or r >= bound:
            continue
        s = pow(k, -1, spec.n) * (z + r * key.d) % spec.n
        if s == 0 or s >= bound:
            continue
        return i2osp(r, width) + i2osp(s, width)


def verify(key: EcdsaPublicKey, msg: bytes, sig: bytes) -> bool:
    spec = key.spec()
    width = spec.scalar_bytes
    if len(sig) != 2 * width:
        return False
    r, s = os2ip(sig[:width]), os2ip(sig[width:])
    if not (0 < r < spec.n and 0 < s < spec.n):
        return False
    if not on_curve(spec, key.qx, key.qy):
        return False
    z = _digest(spec, msg)
    w = pow(s, -1, spec.n)
    # u1 G + u2 Q as one fold of both tables' picks: one inversion, not three
    picked = _gen_comb(spec).picks(z * w % spec.n)
    picked += _comb(spec, key.qx, key.qy).picks(r * w % spec.n)
    pt = _ops(spec).fold(picked)
    if pt is None:
        return False
    return pt[0] % spec.n == r
