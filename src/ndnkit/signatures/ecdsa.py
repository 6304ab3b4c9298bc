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

A nonce's pair (r, k^-1) does not depend on the message, so it can be made
ahead (Naccache-M'Raihi-Vaudenay-Raphaeli, "Can D.S.A. be improved?",
EUROCRYPT '94).  precompute_nonces makes a batch of pairs: the comb picks
of all its k are summed as independent sums through shared affine rounds
and one normalize, and all its k are inverted together.  sign takes one
pair from it per signature, or from a NoncePool that a long-lived signer
refills a batch at a time; the signature bytes are the same either way.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import lru_cache

from ..intmath import Comb, i2osp, invert_all, jacobian_ops, os2ip
from .params import SCHEME_ECDSA, SECP160R1

_P, _A, _B, _N = SECP160R1.p, SECP160R1.a, SECP160R1.b, SECP160R1.n
_WIDTH = SECP160R1.scalar_bytes
_BOUND = 1 << (8 * _WIDTH)  # r and s must fit the signature's fixed width
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


def keygen(rng: random.Random | None = None) -> EcdsaPrivateKey:
    rng = rng or random.SystemRandom()
    d = rng.randrange(1, _N)
    qx, qy = base_mul(d)
    return EcdsaPrivateKey(d=d, qx=qx, qy=qy)


def precompute_nonces(rng: random.Random, count: int) -> list[tuple[int, int]]:
    """count pairs (r, k^-1 mod n) for nonces k drawn from rng in turn, r
    being the x of k * G mod n; a k whose r is 0 or does not fit the
    signature's width is dropped for the next draw, so a batch holds the
    pairs that count single calls would give.  The generator comb's picks
    of all the nonces are summed as independent sums (CurveOps.sums: the
    affine rounds of add_pairs across the batch, then one normalize), and
    every k is inverted by one invert_all mod n."""
    ks = [rng.randrange(1, _N) for _ in range(count)]
    points = _OPS.sums(list(map(_gen_comb().picks, ks)))
    pairs = [(r, k_inv) for (x, _), k_inv in zip(points, invert_all(ks, _N))
             if 0 < (r := x % _N) < _BOUND]
    if len(pairs) < count:
        pairs += precompute_nonces(rng, count - len(pairs))
    return pairs


class NoncePool:
    """A signer's nonces, precomputed size at a time from one rng: sign
    takes a pool in place of an rng and uses its pairs in the order drawn,
    so the pool signs as that rng would, one nonce at a time."""

    def __init__(self, rng: random.Random, size: int):
        self.rng = rng
        self.size = size
        self.pairs: list[tuple[int, int]] = []  # the next pair last

    def take(self) -> tuple[int, int]:
        if not self.pairs:
            self.pairs = precompute_nonces(self.rng, self.size)[::-1]
        return self.pairs.pop()


def sign(key: EcdsaPrivateKey, msg: bytes,
         rng: random.Random | NoncePool | None = None) -> bytes:
    pool = rng if isinstance(rng, NoncePool) else None
    rng = rng or random.SystemRandom()
    z = _digest(msg)
    while True:
        r, k_inv = pool.take() if pool else precompute_nonces(rng, 1)[0]
        s = k_inv * (z + r * key.d) % _N
        if 0 < s < _BOUND:
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
