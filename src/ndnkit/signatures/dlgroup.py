"""Operations in the shared 1024/160 discrete-log group.

Exponentiations with a long-lived base run through radix-16 comb tables
(intmath.CombTable), one per base value in a bounded LRU: the generator's
serves every signature, a verification key's (a DSA public key, the group
manager key, a roster pseudonym) every verify under that key.  With the
table built, y^e costs about forty 1024-bit multiplications and no
squarings.  Ring members and chameleon trapdoors stay on pow(): rings are
assembled ad hoc from unauthenticated key lists, and each chameleon key
serves one token.
"""

from __future__ import annotations

import hashlib
import random
from functools import lru_cache

from ..intmath import CombTable
from .params import DL_G, DL_P, DL_Q


@lru_cache(maxsize=128)
def _table(base: int) -> CombTable:
    return CombTable(base, DL_P, DL_Q.bit_length() + 4)


def gen_pow(e: int) -> int:
    """g^e mod p through the fixed-base table."""
    return _table(DL_G).pow(e % DL_Q)


def key_pow(y: int, e: int) -> int:
    """y^e mod p for 0 <= e <= q, through y's table (built on first use)."""
    return _table(y).pow(e)


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
