"""Verification accelerators: batching, aggregation, online/offline signing,
and server-aided verification.

Batching and aggregation exploit the pairing's linearity.  A batch weights
each entry by a random exponent t drawn from 2^ELL - 1 equally likely
nonzero values, ELL = 80 fixed at the suite's strength, which bounds a
cheater's escape probability by 2^-80 (Bellare-Garay-Rabin's small-exponent
test, EUROCRYPT '98, which asks only for that many distinct exponents mod
n).  A BLS batch draws t already split for the GLV endomorphism, as
t = a + b lambda (mod n) with two 40-bit halves 0 <= a, b < 2^40 from
SystemRandom, the pair (0, 0) redrawn.  Distinct pairs give distinct t:
two that met would differ by a nonzero (u, v) with u + v lambda = 0 (mod n)
and |u|, |v| < 2^40, a vector shorter than 2^41, while the shortest vector
of that lattice is about 2^80 long.  The same argument rules out t = 0, so
t takes 2^80 - 1 equally likely nonzero values, as a draw from [1, 2^80)
would, and every sum of the batch needs only ~40 doublings.  The check is
e(sum t_i sigma_i, g2) against the product over signers of
e(sum t_i H(m_i), pk): the signatures' sum and every signer's hash sum
in one g1_multi_exps pass, and 1 + #signers pairings under a single final
exponentiation.  Aggregation sums the signatures with one G1.fold, and its
verification every signer's message hashes with one G1.sums (CurveOps:
Jacobian sums and one inversion, after affine rounds of add_pairs once the
points number 52 or more); an aggregate that covers nothing does not
verify.  Online/offline signing moves the expensive base-scheme signature
into a preparation phase by signing a chameleon hash, whose trapdoor later
bends to the real message with two modular multiplications.  Server-aided
verification ships both pairings of a BLS check to an untrusted helper and
validates the answers against a blinded local relation.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import Protocol, Sequence

from .pairing import (
    G1Point,
    G2Point,
    GT_ONE,
    g1_generator,
    g2_generator,
    gt_deserialize,
    gt_exp,
    gt_generator,
    gt_mul,
    gt_serialize,
    hash_to_g1,
    pairing,
    pairing_product,
    prepare_g2,
)
from .pairing.curve import G1, g1_multi_exp, g1_multi_exps
from .signatures import (
    SCHEME_BLS,
    SCHEME_NAMES,
    SCHEME_RSA,
    MixedScheme,
    ParameterError,
    Signature,
    TokenReused,
    sign as base_sign,
    signature_data,
    verify as base_verify,
)
from .signatures.bls import BlsPublicKey
from .signatures.chameleon import (
    ChameleonKey,
    chameleon_collide,
    chameleon_hash,
    chameleon_keygen,
    message_scalar,
)
from .signatures.dlgroup import element_bytes
from .signatures.rsa import RsaPublicKey, domain_digest

ELL = 80
_HALF_BITS = ELL // 2  # each GLV half of a batch exponent


# --- batch verification ------------------------------------------------------


@dataclass(frozen=True)
class BatchInstance:
    """One batch: a scheme and its (pk, msg, sig) triples."""

    scheme_id: int
    entries: Sequence[tuple[object, bytes, Signature | bytes]]


def _batch_exponent(rng) -> tuple[int, int]:
    """A batch exponent as its GLV halves (a, b), t = a + b lambda: two
    _HALF_BITS-bit draws, redrawn while both are 0."""
    while True:
        halves = (rng.getrandbits(_HALF_BITS), rng.getrandbits(_HALF_BITS))
        if halves != (0, 0):
            return halves


def _batch_verify_bls(batch: BatchInstance) -> bool:
    rng = random.SystemRandom()
    sigmas = []
    exps = []
    # per signer: the message hashes and their exponents
    per_key: dict[BlsPublicKey, tuple[list, list]] = {}
    for pk, msg, sig in batch.entries:
        # MixedScheme is a ValueError, so the envelope is opened outside the try
        raw = signature_data(sig, SCHEME_BLS, MixedScheme)
        try:
            sigma = G1Point.from_bytes(raw)
        except ValueError:
            return False
        t = _batch_exponent(rng)
        sigmas.append(sigma.point)
        exps.append(t)
        hashes, signer_exps = per_key.setdefault(pk, ([], []))
        hashes.append(hash_to_g1(msg))
        signer_exps.append(t)
    combined, *hash_sums = g1_multi_exps([(sigmas, exps), *per_key.values()])
    pairs = [(G1Point(combined), prepare_g2(g2_generator()))]
    pairs += [
        (G1Point(total).neg(), prepare_g2(pk.point)) for pk, total in zip(per_key, hash_sums)
    ]
    return pairing_product(pairs) == GT_ONE


def _batch_verify_rsa(batch: BatchInstance) -> bool:
    keys = {(pk.n, pk.e) for pk, _, _ in batch.entries}
    if len(keys) != 1:
        raise ParameterError("RSA batches must share a single signer key")
    pk: RsaPublicKey = batch.entries[0][0]
    rng = random.SystemRandom()
    lhs = rhs = 1
    for _, msg, sig in batch.entries:
        raw = signature_data(sig, SCHEME_RSA, MixedScheme)
        if len(raw) != pk.byte_length:
            return False
        s = int.from_bytes(raw, "big")
        if s >= pk.n:
            return False
        t = rng.randrange(1, 1 << ELL)
        lhs = lhs * pow(s, t, pk.n) % pk.n
        rhs = rhs * pow(domain_digest(msg, pk.n), t, pk.n) % pk.n
    return pow(lhs, pk.e, pk.n) == rhs


def batch_verify(batch: BatchInstance) -> bool:
    """Accept iff every entry is valid, up to 2^-ELL soundness error.

    BLS batches collapse to 1 + #distinct-signers pairings; same-signer RSA
    uses exponent screening.  The remaining schemes have no known batching
    advantage and are checked entry by entry (no soundness loss).
    """
    if not batch.entries:
        raise ParameterError("empty batch")
    for pk, _, _ in batch.entries:
        sid = getattr(pk, "scheme_id", None)
        if sid != batch.scheme_id:
            raise MixedScheme(
                f"{SCHEME_NAMES.get(sid, sid)} key in a "
                f"{SCHEME_NAMES.get(batch.scheme_id, batch.scheme_id)} batch"
            )
    if batch.scheme_id == SCHEME_BLS:
        return _batch_verify_bls(batch)
    if batch.scheme_id == SCHEME_RSA:
        return _batch_verify_rsa(batch)
    return all(
        base_verify(pk, msg, signature_data(sig, batch.scheme_id, MixedScheme))
        for pk, msg, sig in batch.entries
    )


# --- BLS aggregation ---------------------------------------------------------


@dataclass(frozen=True)
class AggregateSignature:
    """One group element standing in for any number of BLS signatures."""

    element: G1Point
    covers: tuple[tuple[BlsPublicKey, bytes], ...]

    scheme_id = SCHEME_BLS

    def to_bytes(self) -> bytes:
        return self.element.to_bytes()


def aggregate(
    sigs: Sequence[Signature | bytes],
    covers: Sequence[tuple[BlsPublicKey, bytes]],
) -> AggregateSignature:
    if len(sigs) != len(covers):
        raise ParameterError("one (pk, msg) pair per signature required")
    if not sigs:
        raise ParameterError("nothing to aggregate")
    points = [
        G1Point.from_bytes(signature_data(sig, SCHEME_BLS, MixedScheme)).point for sig in sigs
    ]
    total = G1Point(G1.fold([pt for pt in points if pt is not None]))
    return AggregateSignature(element=total, covers=tuple(covers))


def verify_aggregate(agg: AggregateSignature) -> bool:
    if not agg.covers:  # aggregate refuses to build one; its pairing check would pass
        return False
    # per signer, its message hashes: one sum each, all in one G1.sums
    per_key: dict[BlsPublicKey, list] = {}
    for pk, msg in agg.covers:
        per_key.setdefault(pk, []).append(hash_to_g1(msg))
    pairs = [(agg.element, prepare_g2(g2_generator()))]
    pairs += [
        (G1Point(total).neg(), prepare_g2(pk.point))
        for pk, total in zip(per_key, G1.sums(list(per_key.values())))
    ]
    return pairing_product(pairs) == GT_ONE


# --- online/offline signing --------------------------------------------------


@dataclass
class OfflineToken:
    """A precomputed signature on a chameleon digest, waiting for its message.

    Single-use: the trapdoor collision would leak the trapdoor if the same
    token signed two messages, so consumption is guarded by a lock.
    """

    chameleon_pub: int
    pre_scalar: int
    pre_randomizer: int
    base_signature: Signature
    _trapdoor: ChameleonKey
    _consumed: bool = False
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)


@dataclass(frozen=True)
class OnlineSignature:
    """The finished product: the base signature plus the collision randomizer."""

    randomizer: int
    base: Signature
    chameleon_pub: int


def offline_prepare(
    base_key,
    trapdoor: ChameleonKey | None = None,
    rng: random.Random | None = None,
) -> OfflineToken:
    """Run the expensive half of signing before the message exists."""
    rng = rng or random.SystemRandom()
    trapdoor = trapdoor or chameleon_keygen(rng)
    pre_msg = rng.getrandbits(256).to_bytes(32, "big")
    m_prime = message_scalar(pre_msg)
    r_prime = rng.randrange(1, 1 << 159)
    digest = chameleon_hash(trapdoor.h, m_prime, r_prime)
    base_sig = base_sign(base_key, element_bytes(digest), rng)
    return OfflineToken(
        chameleon_pub=trapdoor.h,
        pre_scalar=m_prime,
        pre_randomizer=r_prime,
        base_signature=base_sig,
        _trapdoor=trapdoor,
    )


def online_sign(token: OfflineToken, msg: bytes) -> OnlineSignature:
    """Exponentiation-free completion: two multiplications and a hash."""
    with token._lock:
        if token._consumed:
            raise TokenReused("offline token already spent")
        token._consumed = True
    r = chameleon_collide(
        token._trapdoor, token.pre_scalar, token.pre_randomizer, message_scalar(msg)
    )
    return OnlineSignature(
        randomizer=r, base=token.base_signature, chameleon_pub=token.chameleon_pub
    )


def online_verify(base_pk, msg: bytes, sig: OnlineSignature) -> bool:
    """Check the transformed relation: base signature over CH(H(msg), r)."""
    digest = chameleon_hash(sig.chameleon_pub, message_scalar(msg), sig.randomizer)
    return base_verify(base_pk, element_bytes(digest), sig.base)


# --- server-aided verification ----------------------------------------------


class PairingServer(Protocol):
    """The delegation interface: one pairing per query, on serialized points."""

    def query(self, g1_blob: bytes, g2_blob: bytes) -> bytes: ...


class LocalPairingServer:
    """In-process honest server."""

    def query(self, g1_blob: bytes, g2_blob: bytes) -> bytes:
        p = G1Point.from_bytes(g1_blob)
        q = G2Point.from_bytes(g2_blob, check_subgroup=False)
        return gt_serialize(pairing(p, q))


def sav_verify(
    pk: BlsPublicKey,
    msg: bytes,
    sig: Signature | bytes,
    server: PairingServer,
    rng: random.Random | None = None,
) -> bool:
    """BLS verification with both pairings delegated to an untrusted server.

    The signature is blinded as sigma~ = delta*sigma + r*g1, one two-base
    multi-exponentiation of 80-bit scalars, before leaving the verifier, and
    the answers must satisfy A == B^delta * gt^r.  A server that cannot
    solve discrete logs learns nothing about (delta, r), so even one
    colluding with a forger hits the relation with probability 2^-ELL.
    Locally this costs group arithmetic only - zero pairings.
    """
    rng = rng or random.SystemRandom()
    raw = signature_data(sig, SCHEME_BLS, MixedScheme)
    try:
        sigma = G1Point.from_bytes(raw)
    except ValueError:
        return False
    h = hash_to_g1(msg)
    delta = rng.randrange(1, 1 << ELL)
    r = rng.randrange(1, 1 << ELL)
    blinded = G1Point(g1_multi_exp([sigma.point, g1_generator().point], [delta, r]))
    a_blob = server.query(blinded.to_bytes(), g2_generator().to_bytes())
    b_blob = server.query(G1Point(h).to_bytes(), pk.point.to_bytes())
    try:
        a = gt_deserialize(a_blob)
        b = gt_deserialize(b_blob)
    except (ValueError, TypeError):
        return False
    want = gt_mul(gt_exp(b, delta), gt_exp(gt_generator(), r))
    return a == want
