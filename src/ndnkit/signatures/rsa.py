"""RSA full-domain-hash signatures.

The message digest is expanded with MGF1 to one byte under the modulus
length (top two bits cleared so the representative is always below N),
then raised to the private exponent.  Expanding to the full domain rather
than signing the bare 256-bit digest closes the usual multiplicative
forgery on textbook hash-and-sign.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import lru_cache

from ..intmath import i2osp, mgf1, os2ip, random_prime
from .params import SCHEME_RSA, ParameterError, SchemeParams

_FDH_TAG = b"ndnkit/rsa-fdh/v1"
PUBLIC_EXPONENT = 65537  # F4, for every key the suite generates


@dataclass(frozen=True)
class RsaPublicKey:
    n: int
    e: int

    scheme_id = SCHEME_RSA

    @property
    def byte_length(self) -> int:
        return (self.n.bit_length() + 7) // 8


@dataclass(frozen=True)
class RsaPrivateKey:
    n: int
    e: int
    d: int
    p: int
    q: int

    scheme_id = SCHEME_RSA

    def public(self) -> RsaPublicKey:
        return RsaPublicKey(self.n, self.e)


def _prime_distance_floor(bits: int) -> int:
    # at 1024-bit moduli the factors must sit further apart than 2^412,
    # defeating Fermat-style factoring; scale the exponent with the modulus
    return max(0, bits - 612)


def keygen(params: SchemeParams, rng: random.Random | None = None) -> RsaPrivateKey:
    rng = rng or random.SystemRandom()
    bits = params.rsa_bits
    half = bits // 2
    distance = 1 << _prime_distance_floor(bits)
    while True:
        p = random_prime(half, rng)
        q = random_prime(bits - half, rng)
        if p == q or abs(p - q) <= distance:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        phi = (p - 1) * (q - 1)
        try:
            d = pow(PUBLIC_EXPONENT, -1, phi)
        except ValueError:
            continue  # e shares a factor with phi; redraw
        return RsaPrivateKey(n=n, e=PUBLIC_EXPONENT, d=d, p=p, q=q)


def domain_digest(msg: bytes, n: int) -> int:
    k = (n.bit_length() + 7) // 8
    em = bytearray(mgf1(_FDH_TAG + hashlib.sha256(msg).digest(), k))
    em[0] &= 0x3F
    return os2ip(bytes(em))


@lru_cache(maxsize=128)
def _crt(key: RsaPrivateKey) -> tuple[int, int, int]:
    """d mod (p - 1), d mod (q - 1) and q^-1 mod p, once per key."""
    return key.d % (key.p - 1), key.d % (key.q - 1), pow(key.q, -1, key.p)


def sign(key: RsaPrivateKey, msg: bytes) -> bytes:
    """m^d mod n by the CRT: half-size exponentiations mod p and mod q,
    recombined with Garner's formula.  The result is checked against the
    public exponent before release, since a faulty half would leak a factor
    of n through gcd(s^e - m, n)."""
    m = domain_digest(msg, key.n)
    p, q = key.p, key.q
    dp, dq, q_inv = _crt(key)
    sp = pow(m, dp, p)
    sq = pow(m, dq, q)
    s = sq + q * ((sp - sq) * q_inv % p)
    if pow(s, key.e, key.n) != m:
        raise ParameterError("RSA-CRT signature failed its check; the key is inconsistent")
    return i2osp(s, (key.n.bit_length() + 7) // 8)


def verify(key: RsaPublicKey, msg: bytes, sig: bytes) -> bool:
    k = key.byte_length
    if len(sig) != k:
        return False
    s = os2ip(sig)
    if s >= key.n:
        return False
    return pow(s, key.e, key.n) == domain_digest(msg, key.n)
