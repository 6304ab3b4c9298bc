"""ECDSA over the registered prime-field curves (a = -3, cofactor 1).

Scalar multiplication walks a radix-16 comb table with additions only.
Each point it multiplies gets its table (intmath.PointComb) on first use,
held in a bounded LRU keyed by (curve, point) value.  The base point's
table serves signing, and a public key's serves every verify under that
key, so a verify is two table walks of about |n|/4 mixed additions each;
the first verify under a new key also pays for its table (~5 ms on
secp160r1).  Verify checks that the key lies on the curve before a table
is built for it.  Signature integers are emitted at the curve's fixed
width, with the nonce resampled in the (astronomically rare) case an
integer does not fit.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import lru_cache, partial

from ..intmath import PointComb, i2osp, jacobian_ops, jacobian_to_affine, os2ip
from .params import CURVES, CurveSpec, ParameterError, SCHEME_ECDSA, SchemeParams


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
def _ops(spec: CurveSpec):
    """The curve's (dbl, add_mixed, to_affine), bound once per curve."""
    return jacobian_ops(spec.p, spec.a)


def point_mul(spec: CurveSpec, pt, k: int):
    """k * pt through pt's comb table, built on first use (see _comb)."""
    k %= spec.n
    if pt is None or k == 0:
        return None
    return _comb(spec, pt[0], pt[1]).mul(k)


def point_add(spec: CurveSpec, a, b):
    if a is None:
        return b
    if b is None:
        return a
    _, add_mixed, to_affine = _ops(spec)
    return to_affine(*add_mixed(a[0], a[1], 1, b[0], b[1]))


@lru_cache(maxsize=128)
def _comb(spec: CurveSpec, x: int, y: int) -> PointComb:
    """The table for one curve point, kept per (curve, point) value: the base
    point's serves signing, a public key's serves every verify under it."""
    _, add_mixed, to_affine = _ops(spec)
    return PointComb(
        (x, y), (spec.n.bit_length() + 3) // 4, add_mixed,
        partial(jacobian_to_affine, p=spec.p), to_affine, (1, 1, 0),
    )


def base_mul(spec: CurveSpec, k: int):
    return _comb(spec, spec.gx, spec.gy).mul(k % spec.n)


def _digest(spec: CurveSpec, msg: bytes) -> int:
    z = os2ip(hashlib.sha256(msg).digest())
    extra = 256 - spec.n.bit_length()
    if extra > 0:
        z >>= extra
    return z


def keygen(params: SchemeParams, rng: random.Random | None = None) -> EcdsaPrivateKey:
    if params.scheme_id != SCHEME_ECDSA:
        raise ParameterError("params are not for ECDSA")
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
    pt = point_add(
        spec,
        base_mul(spec, z * w % spec.n),
        point_mul(spec, (key.qx, key.qy), r * w % spec.n),
    )
    if pt is None:
        return False
    return pt[0] % spec.n == r
