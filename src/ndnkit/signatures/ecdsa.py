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

from ..intmath import PointComb, i2osp, jacobian_to_affine, os2ip
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


def _dbl(spec, X, Y, Z):
    # a = -3 doubling: M = 3(X - Z^2)(X + Z^2)
    p = spec.p
    if not Y or not Z:
        return (1, 1, 0)
    ZZ = Z * Z % p
    M = 3 * (X - ZZ) * (X + ZZ) % p
    YY = Y * Y % p
    S = 4 * X * YY % p
    X3 = (M * M - 2 * S) % p
    Y3 = (M * (S - X3) - 8 * YY * YY) % p
    Z3 = 2 * Y * Z % p
    return (X3, Y3, Z3)


def _add_mixed(spec, X1, Y1, Z1, x2, y2):
    p = spec.p
    if not Z1:
        return (x2, y2, 1)
    Z1Z1 = Z1 * Z1 % p
    U2 = x2 * Z1Z1 % p
    S2 = y2 * Z1Z1 * Z1 % p
    H = (U2 - X1) % p
    R = (S2 - Y1) % p
    if H == 0:
        if R == 0:
            return _dbl(spec, X1, Y1, Z1)
        return (1, 1, 0)
    HH = H * H % p
    HHH = HH * H % p
    V = X1 * HH % p
    X3 = (R * R - HHH - 2 * V) % p
    Y3 = (R * (V - X3) - Y1 * HHH) % p
    Z3 = Z1 * H % p
    return (X3, Y3, Z3)


def _to_affine(spec, X, Y, Z):
    if not Z:
        return None
    p = spec.p
    zi = pow(Z, -1, p)
    zi2 = zi * zi % p
    return (X * zi2 % p, Y * zi2 * zi % p)


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
    X, Y, Z = _add_mixed(spec, a[0], a[1], 1, b[0], b[1])
    return _to_affine(spec, X, Y, Z)


@lru_cache(maxsize=128)
def _comb(spec: CurveSpec, x: int, y: int) -> PointComb:
    """The table for one curve point, kept per (curve, point) value: the base
    point's serves signing, a public key's serves every verify under it."""
    return PointComb(
        (x, y), (spec.n.bit_length() + 3) // 4, partial(_add_mixed, spec),
        partial(jacobian_to_affine, p=spec.p), partial(_to_affine, spec), (1, 1, 0),
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
