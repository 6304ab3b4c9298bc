"""Operations in the shared 1024/160 discrete-log group.

Exponentiations with a long-lived base run through radix-16 comb tables
(intmath.Comb over _ZP, this module's record for Z_p*), one per base value
in a bounded LRU: the generator's serves every signature, a verification
key's (a DSA public key, the group manager key, a roster pseudonym) every
verify under that key.  With the table built, y^e costs about forty
1024-bit multiplications and no squarings.  Ring members and chameleon
trapdoors stay on pow(): rings are assembled ad hoc from unauthenticated
key lists, and each chameleon key serves one token.
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
    def multiples(b: int, count: int) -> list[int]:
        out = [b % DL_P]
        for _ in range(count - 1):
            out.append(out[-1] * b % DL_P)
        return out

    @staticmethod
    def fold(values) -> int:
        acc = 1
        for v in values:
            acc = acc * v % DL_P
        return acc


@lru_cache(maxsize=128)
def _table(base: int) -> Comb:
    """41 rows: exponents up to 2^164 - 1, four bits past q."""
    return Comb(_ZP, base, DL_Q.bit_length() // 4 + 1)


def gen_pow(e: int) -> int:
    """g^e mod p through the fixed-base table."""
    return _table(DL_G).mul(e % DL_Q)


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
