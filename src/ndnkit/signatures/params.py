"""Shared parameters for the signature suite.

One fixed 1024/160 Schnorr-style group serves every discrete-log scheme
(DSA, group, ring, chameleon hashing), mirroring how deployments share a
single set of domain parameters.  The constants below were produced by
tools/gen_dl_params.py (deterministic search, seed recorded there) and are
re-verified by the test suite: p, q prime, q | p - 1, g has order q.

ECDSA runs on one curve, secp160r1 (SEC 2, Certicom 2000): a
short-Weierstrass prime-field curve with a = -3 and cofactor 1, whose order
matches the 160-bit discrete-log subgroup (giving the classic 320-bit
signature).  Every size here is the suite's 80-bit strength.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

SCHEME_RSA = 1
SCHEME_DSA = 2
SCHEME_ECDSA = 3
SCHEME_BLS = 4
SCHEME_GROUP = 5
SCHEME_RING = 6
SCHEME_NC = 7

SCHEME_NAMES = {
    SCHEME_RSA: "rsa",
    SCHEME_DSA: "dsa",
    SCHEME_ECDSA: "ecdsa",
    SCHEME_BLS: "bls",
    SCHEME_GROUP: "group",
    SCHEME_RING: "ring",
    SCHEME_NC: "nc",
}


class ParameterError(ValueError):
    """Inputs a scheme cannot use: an unknown scheme id, a malformed or
    inconsistent key or key record, or an ill-formed ring, batch or generation."""


class SchemeMismatch(ValueError):
    """A signature or key was offered to the wrong scheme."""


class OpenFailure(LookupError):
    """A group signature's member key is absent from the manager registry."""


class IndexOutOfRing(IndexError):
    """The claimed signer position does not exist in the ring."""


class TokenReused(RuntimeError):
    """An offline signing token was consumed twice."""


class MixedScheme(ValueError):
    """A batch or aggregate mixes signatures from different schemes."""


# --- 1024/160 discrete-log group --------------------------------------------

DL_P = 0x96C800F31CB1AEAF1C065E4B0697A3658F13E5DB76459D0FFE6A76355897F827EB6A5FE866D4CEA8ED28D4558D6CDEDEE3709CC10FA248DC2C32E65A31B768B38D92612F5884776D7D856C94B1E8C02F1EC9F99B60E39B568FC4906010C2009318D27124F1CA096081BB302103A0567E8D810F8D7367CD044F5842427FF4C8A3
DL_Q = 0xCF08368F3C7DC52172D5F79F19579502E56D7FC3
DL_G = 0x3B46896250823DF0E2D3715B67FF59EB24E7C48BA85A03EE4167F7CFD08707A91E4147DEB7920F63A6FDB4F639957189B7D2E999AEF1DA429C8E95747AC263ABAE7C27905BB98EB646A27B6D9BA85D7CB632A242979D3FE4C4FA13C5F7B92822E16D548A0926966327924A127F54CA0694C56F116EB64ECC000161B49A5D6E36

assert (DL_P - 1) % DL_Q == 0
assert pow(DL_G, DL_Q, DL_P) == 1 and DL_G != 1


# --- the elliptic curve -----------------------------------------------------


@dataclass(frozen=True)
class CurveSpec:
    """Short-Weierstrass prime-field curve y^2 = x^3 + ax + b, cofactor 1.

    scalar_bytes fixes the serialized width of each signature integer;
    signing resamples its nonce until r and s both fit, which triggers only
    because the order is slightly above 2^160, with probability ~2^-79 per
    integer.
    """

    p: int
    a: int
    b: int
    gx: int
    gy: int
    n: int
    scalar_bytes: int


SECP160R1 = CurveSpec(
    p=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF7FFFFFFF,
    a=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF7FFFFFFC,
    b=0x1C97BEFC54BD7A8B65ACF89F81D4D4ADC565FA45,
    gx=0x4A96B5688EF573284664698968C38BB913CBFC82,
    gy=0x23A628553168947D59DCC912042351377AC5FB32,
    n=0x0100000000000000000001F4C8F927AED3CA752257,
    scalar_bytes=20,
)


# --- scheme parameter record -------------------------------------------------


@dataclass(frozen=True)
class SchemeParams:
    """Names the scheme a key is drawn for.

    Every size is fixed at the suite's 80-bit strength, so the record holds
    nothing to choose; it stays only for perfbench's calls
    (reference_params, keygen(sid, params, rng), group_setup(params, rng)
    and params.ring_size) until that benchmark reads the API without it.
    """

    scheme_id: int
    ring_size: ClassVar[int] = 5  # members of every ring the suite builds

    def __post_init__(self):
        if self.scheme_id not in SCHEME_NAMES:
            raise ParameterError(f"unknown scheme id {self.scheme_id}")


def reference_params(scheme_id: int) -> SchemeParams:
    """The record of scheme_id at the suite's one strength, 80 bits."""
    return SchemeParams(scheme_id)
