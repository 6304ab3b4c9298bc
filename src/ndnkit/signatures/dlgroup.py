"""Operations in the shared 1024/160 discrete-log group.

Exponentiations with a long-lived base run through comb tables
(intmath.Comb over _ZP, this module's record for Z_p*).  The generator's
table is radix 256 and built once: g^e costs about twenty 1024-bit
multiplications.  A verification key's table (a DSA public key, the group
manager key, a roster pseudonym) is radix 64, one per base value in a
bounded LRU, and serves every verify under that key: y^e costs about
twenty-eight multiplications.  Neither walk squares.  Ring members and
chameleon trapdoors stay on pow(): rings are assembled ad hoc from
unauthenticated key lists, and each chameleon key serves one token.
"""

from __future__ import annotations

import hashlib
import random
from functools import lru_cache

from ..intmath import Comb
from .params import DL_G, DL_P, DL_Q


class _ZP:
    """Z_p* as a group record for intmath.Comb: the multiples of b are its
    powers, and the fold of a list is its product."""

    @staticmethod
    def comb_rows(b: int, w: int, count: int, nrows: int) -> list[list[int]]:
        """Row j < nrows holds b^(d 2^(wj)) for d = 1..count: one chain of
        2^w powers per row, whose last is the next row's base."""
        rows = []
        b %= DL_P
        for _ in range(nrows):
            powers = [b]
            for _ in range((1 << w) - 1):
                powers.append(powers[-1] * b % DL_P)
            rows.append(powers[:count])
            b = powers[-1]
        return rows

    @staticmethod
    def fold(values) -> int:
        acc = 1
        for v in values:
            acc = acc * v % DL_P
        return acc


@lru_cache(maxsize=128)
def _table(base: int) -> Comb:
    """A key's radix-64 table, 28 rows of 63 powers (about 300 KB): exponents
    up to 2^164 - 1, four bits past q."""
    return Comb(_ZP, base, DL_Q.bit_length() + 4, 6)


@lru_cache(maxsize=1)
def _gen_table() -> Comb:
    """The generator's radix-256 table, 20 rows of 255 powers, kept apart
    from the per-key LRU so that no run of keys evicts it."""
    return Comb(_ZP, DL_G, DL_Q.bit_length(), 8)


def gen_pow(e: int) -> int:
    """g^e mod p through the generator's table."""
    return _gen_table().mul(e % DL_Q)


def key_pow(y: int, e: int) -> int:
    """y^e mod p for 0 <= e <= q, through y's table (built on first use)."""
    return _table(y).mul(e)


def rand_scalar(rng: random.Random) -> int:
    return rng.randrange(1, DL_Q)


def element_valid(y: int) -> bool:
    """Membership test for the order-q subgroup (rejects 1 and stray cosets)."""
    return 1 < y < DL_P and pow(y, DL_Q, DL_P) == 1


def hash_to_scalar(tag: bytes, *parts: bytes) -> int:
    h = hashlib.sha256(tag)
    for part in parts:
        h.update(len(part).to_bytes(4, "big"))
        h.update(part)
    return int.from_bytes(h.digest(), "big") % DL_Q


def element_bytes(y: int) -> bytes:
    return y.to_bytes(128, "big")


def scalar_bytes(s: int) -> bytes:
    return s.to_bytes(20, "big")
