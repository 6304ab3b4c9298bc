"""Short signatures from the BN-160 pairing: one 21-byte compressed point."""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..pairing import (
    CURVE_ORDER,
    G1Point,
    G2Point,
    GT_ONE,
    g2_generator,
    hash_to_g1,
    pairing_product,
    prepare_g2,
)
from ..pairing.curve import g1_mul, g2_mul_gen
from .params import SCHEME_BLS

SIGNATURE_BYTES = G1Point.SIZE


@dataclass(frozen=True)
class BlsPublicKey:
    point: G2Point

    scheme_id = SCHEME_BLS


@dataclass(frozen=True)
class BlsPrivateKey:
    x: int
    point: G2Point

    scheme_id = SCHEME_BLS

    def public(self) -> BlsPublicKey:
        return BlsPublicKey(self.point)


def keygen(rng: random.Random | None = None) -> BlsPrivateKey:
    rng = rng or random.SystemRandom()
    x = rng.randrange(1, CURVE_ORDER)
    return BlsPrivateKey(x=x, point=G2Point(g2_mul_gen(x)))


def sign(key: BlsPrivateKey, msg: bytes) -> bytes:
    sigma = g1_mul(hash_to_g1(msg), key.x)
    return G1Point(sigma).to_bytes()


def verify(key: BlsPublicKey, msg: bytes, sig: bytes) -> bool:
    try:
        sigma = G1Point.from_bytes(sig)
    except ValueError:
        return False
    h = G1Point(hash_to_g1(msg))
    # e(sigma, g2) == e(H(m), pk), checked as a product with one final exp
    return (
        pairing_product(
            [(sigma, prepare_g2(g2_generator())), (h.neg(), prepare_g2(key.point))]
        )
        == GT_ONE
    )
