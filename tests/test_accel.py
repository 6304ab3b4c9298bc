import random

import pytest

from ndnkit import accel
from ndnkit.accel import (
    AggregateSignature,
    BatchInstance,
    LocalPairingServer,
    aggregate,
    batch_verify,
    offline_prepare,
    online_sign,
    online_verify,
    sav_verify,
    verify_aggregate,
)
from ndnkit.pairing import G1Point, hash_to_g1, pairing_call_count
from ndnkit.pairing.curve import G1
from ndnkit.signatures import (
    SCHEME_BLS,
    SCHEME_DSA,
    SCHEME_RSA,
    MixedScheme,
    ParameterError,
    Signature,
    TokenReused,
    chameleon_keygen,
    keygen,
    sign,
    verify,
)

MSG = b"batch payload"


@pytest.fixture(scope="module")
def bls_keys():
    rng = random.Random(201)
    return [keygen(SCHEME_BLS, rng=rng) for _ in range(4)]


@pytest.fixture(scope="module")
def rsa_key():
    return keygen(SCHEME_RSA, rng=random.Random(202))


@pytest.fixture(scope="module")
def dsa_key():
    return keygen(SCHEME_DSA, rng=random.Random(203))


def _bls_entries(keys, count):
    entries = []
    for i in range(count):
        key = keys[i % len(keys)]
        msg = b"entry %d" % i
        entries.append((key.public(), msg, sign(key, msg)))
    return entries


# --- batch verification ------------------------------------------------------


def test_batch_bls_accepts_multi_signer(bls_keys):
    batch = BatchInstance(SCHEME_BLS, _bls_entries(bls_keys, 12))
    assert batch_verify(batch)


def test_batch_bls_detects_single_corruption(bls_keys):
    entries = _bls_entries(bls_keys, 12)
    pk, msg, sig = entries[7]
    entries[7] = (pk, msg + b"!", sig)
    assert not batch_verify(BatchInstance(SCHEME_BLS, entries))


@pytest.mark.parametrize("signer", range(4))
def test_batch_bls_rejects_a_bad_signature_at_each_signer(bls_keys, signer):
    entries = _bls_entries(bls_keys, 12)
    assert batch_verify(BatchInstance(SCHEME_BLS, entries))
    for victim in range(signer, 12, 4):
        bad = list(entries)
        pk, msg, _ = bad[victim]
        # a valid curve point, but the signer's signature on another message
        bad[victim] = (pk, msg, sign(bls_keys[signer], msg + b"?"))
        assert not batch_verify(BatchInstance(SCHEME_BLS, bad))


def test_batch_bls_detects_forged_signature(bls_keys):
    entries = _bls_entries(bls_keys, 6)
    wrong = sign(bls_keys[1], b"entry 0")  # valid signature, wrong key's entry
    entries[0] = (bls_keys[0].public(), b"entry 0", wrong)
    assert not batch_verify(BatchInstance(SCHEME_BLS, entries))


def test_batch_bls_single_entry_matches_plain_verify(bls_keys):
    key = bls_keys[0]
    good = sign(key, MSG)
    assert batch_verify(BatchInstance(SCHEME_BLS, [(key.public(), MSG, good)]))
    bad = Signature(SCHEME_BLS, good.data[:-1] + bytes([good.data[-1] ^ 1]))
    assert batch_verify(BatchInstance(SCHEME_BLS, [(key.public(), MSG, bad)])) == verify(
        key.public(), MSG, bad
    )


def test_batch_bls_garbage_signature_is_reject_not_error(bls_keys):
    entries = _bls_entries(bls_keys, 3)
    entries[1] = (entries[1][0], entries[1][1], b"\xff" * 21)
    assert not batch_verify(BatchInstance(SCHEME_BLS, entries))


def test_batch_rsa_screening(rsa_key):
    entries = [
        (rsa_key.public(), b"doc %d" % i, sign(rsa_key, b"doc %d" % i)) for i in range(8)
    ]
    assert batch_verify(BatchInstance(SCHEME_RSA, entries))
    pk, msg, sig = entries[3]
    entries[3] = (pk, msg, Signature(SCHEME_RSA, sig.data[::-1]))
    assert not batch_verify(BatchInstance(SCHEME_RSA, entries))


def test_batch_rsa_requires_single_signer(rsa_key):
    other = keygen(SCHEME_RSA, rng=random.Random(204))
    entries = [
        (rsa_key.public(), MSG, sign(rsa_key, MSG)),
        (other.public(), MSG, sign(other, MSG)),
    ]
    with pytest.raises(ParameterError):
        batch_verify(BatchInstance(SCHEME_RSA, entries))


def test_batch_fallback_checks_entry_by_entry(dsa_key):
    entries = [
        (dsa_key.public(), b"m %d" % i, sign(dsa_key, b"m %d" % i)) for i in range(5)
    ]
    assert batch_verify(BatchInstance(SCHEME_DSA, entries))
    pk, msg, sig = entries[2]
    entries[2] = (pk, msg + b"x", sig)
    assert not batch_verify(BatchInstance(SCHEME_DSA, entries))


def test_batch_structural_guards(bls_keys, dsa_key):
    with pytest.raises(ParameterError):
        batch_verify(BatchInstance(SCHEME_BLS, []))
    entries = _bls_entries(bls_keys, 2)
    mixed_key = entries[:1] + [(dsa_key.public(), MSG, sign(dsa_key, MSG))]
    with pytest.raises(MixedScheme):
        batch_verify(BatchInstance(SCHEME_BLS, mixed_key))
    mixed_sig = entries[:1] + [(bls_keys[1].public(), MSG, sign(dsa_key, MSG))]
    with pytest.raises(MixedScheme):
        batch_verify(BatchInstance(SCHEME_BLS, mixed_sig))


def test_foreign_signature_envelope_is_mixed_scheme(bls_keys, dsa_key, rsa_key):
    """A Signature tagged with another scheme raises MixedScheme, not
    SchemeMismatch, from every multi-signature entry point."""
    bls_key = bls_keys[0]
    foreign = sign(dsa_key, MSG)
    for scheme_id, pk in ((SCHEME_BLS, bls_key.public()), (SCHEME_RSA, rsa_key.public())):
        with pytest.raises(MixedScheme):
            batch_verify(BatchInstance(scheme_id, [(pk, MSG, foreign)]))
    with pytest.raises(MixedScheme):
        batch_verify(BatchInstance(SCHEME_DSA, [(dsa_key.public(), MSG, sign(bls_key, MSG))]))
    with pytest.raises(MixedScheme):
        aggregate([sign(bls_key, MSG), foreign], [(bls_key.public(), MSG)] * 2)
    with pytest.raises(MixedScheme):
        sav_verify(bls_key.public(), MSG, foreign, LocalPairingServer())


# --- aggregation -------------------------------------------------------------


def test_aggregate_sixteen_signatures(bls_keys):
    covers = []
    sigs = []
    for i in range(16):
        key = bls_keys[i % len(bls_keys)]
        msg = b"chunk %d" % i
        covers.append((key.public(), msg))
        sigs.append(sign(key, msg))
    agg = aggregate(sigs, covers)
    assert verify_aggregate(agg)
    assert len(agg.to_bytes()) == 21


def test_aggregate_of_sixty_runs_rounds_and_catches_a_swapped_message(bls_keys, monkeypatch):
    # one signer: the sigma fold and the signer's hash fold both sum 60
    # points, past the 52 at which G1's fold runs affine rounds
    key = bls_keys[0]
    covers = [(key.public(), b"segment %d" % i) for i in range(60)]
    sigs = [sign(key, msg) for _, msg in covers]
    rounds = []

    def add_pairs(pairs):
        rounds.append(len(pairs))
        return G1.add_pairs(pairs)

    monkeypatch.setattr(accel, "G1", G1._replace(add_pairs=add_pairs))
    agg = aggregate(sigs, covers)
    assert rounds
    del rounds[:]
    assert verify_aggregate(agg)
    assert rounds
    covers[17] = (key.public(), b"segment 60")
    assert not verify_aggregate(AggregateSignature(agg.element, tuple(covers)))


def test_empty_aggregate_does_not_verify():
    assert not verify_aggregate(AggregateSignature(G1Point(None), ()))


def test_aggregate_size_constant(bls_keys):
    key = bls_keys[0]
    one = aggregate([sign(key, MSG)], [(key.public(), MSG)])
    many_covers = [(key.public(), b"part %d" % i) for i in range(16)]
    many = aggregate([sign(key, m) for _, m in many_covers], many_covers)
    assert len(one.to_bytes()) == len(many.to_bytes()) == 21


def test_aggregate_of_one_is_the_signature(bls_keys):
    key = bls_keys[0]
    sig = sign(key, MSG)
    agg = aggregate([sig], [(key.public(), MSG)])
    assert agg.to_bytes() == sig.data
    assert verify_aggregate(agg)


def test_aggregate_order_independent(bls_keys):
    covers = [(bls_keys[i].public(), b"p %d" % i) for i in range(4)]
    sigs = [sign(bls_keys[i], b"p %d" % i) for i in range(4)]
    forward = aggregate(sigs, covers)
    backward = aggregate(sigs[::-1], covers[::-1])
    assert forward.element == backward.element
    assert verify_aggregate(backward)


def test_aggregate_cover_order_is_irrelevant(bls_keys):
    covers = [(bls_keys[i].public(), b"p %d" % i) for i in range(3)]
    sigs = [sign(bls_keys[i], b"p %d" % i) for i in range(3)]
    agg = aggregate(sigs, covers)
    permuted = AggregateSignature(agg.element, (covers[1], covers[2], covers[0]))
    assert verify_aggregate(permuted)  # per-key accumulation, order-free


def test_aggregate_rejects_wrong_cover(bls_keys):
    covers = [(bls_keys[i].public(), b"p %d" % i) for i in range(3)]
    sigs = [sign(bls_keys[i], b"p %d" % i) for i in range(3)]
    agg = aggregate(sigs, covers)
    # attribute each message to the wrong key: same multiset, wrong pairing-up
    crossed = AggregateSignature(
        agg.element,
        (
            (covers[0][0], covers[1][1]),
            (covers[1][0], covers[0][1]),
            covers[2],
        ),
    )
    assert not verify_aggregate(crossed)
    renamed = AggregateSignature(
        agg.element, tuple(covers[:2]) + ((bls_keys[2].public(), b"other"),)
    )
    assert not verify_aggregate(renamed)


def test_aggregate_argument_guards(bls_keys):
    key = bls_keys[0]
    with pytest.raises(ParameterError):
        aggregate([], [])
    with pytest.raises(ParameterError):
        aggregate([sign(key, MSG)], [])


# --- online/offline signing --------------------------------------------------


def test_online_offline_round_trip(rsa_key):
    rng = random.Random(205)
    token = offline_prepare(rsa_key, rng=rng)
    sig = online_sign(token, MSG)
    assert online_verify(rsa_key.public(), MSG, sig)
    assert not online_verify(rsa_key.public(), MSG + b"?", sig)


def test_online_offline_with_dsa_base(dsa_key):
    token = offline_prepare(dsa_key, rng=random.Random(206))
    sig = online_sign(token, b"late-breaking content")
    assert online_verify(dsa_key.public(), b"late-breaking content", sig)


def test_online_token_single_use(rsa_key):
    token = offline_prepare(rsa_key, rng=random.Random(207))
    online_sign(token, MSG)
    with pytest.raises(TokenReused):
        online_sign(token, b"second message")


def test_online_explicit_trapdoor(rsa_key):
    trapdoor = chameleon_keygen(random.Random(208))
    token = offline_prepare(rsa_key, trapdoor=trapdoor, rng=random.Random(209))
    sig = online_sign(token, MSG)
    assert sig.chameleon_pub == trapdoor.h
    assert online_verify(rsa_key.public(), MSG, sig)


def test_online_tampered_randomizer_rejected(rsa_key):
    token = offline_prepare(rsa_key, rng=random.Random(210))
    sig = online_sign(token, MSG)
    forged = type(sig)(
        randomizer=sig.randomizer + 1, base=sig.base, chameleon_pub=sig.chameleon_pub
    )
    assert not online_verify(rsa_key.public(), MSG, forged)


# --- server-aided verification ----------------------------------------------


class CountingServer:
    """Wraps the honest server, attributing pairing work to the server side."""

    def __init__(self):
        self.inner = LocalPairingServer()
        self.pairings = 0
        self.queries = 0

    def query(self, g1_blob: bytes, g2_blob: bytes) -> bytes:
        before = pairing_call_count()
        answer = self.inner.query(g1_blob, g2_blob)
        self.pairings += pairing_call_count() - before
        self.queries += 1
        return answer


def test_sav_honest_server(bls_keys):
    key = bls_keys[0]
    sig = sign(key, MSG)
    server = LocalPairingServer()
    assert sav_verify(key.public(), MSG, sig, server)
    assert not sav_verify(key.public(), MSG + b"!", sig, server)
    assert not sav_verify(key.public(), MSG, b"\x00" * 20, server)


def test_sav_verifier_does_no_pairings(bls_keys):
    key = bls_keys[0]
    sig = sign(key, MSG)
    server = CountingServer()
    before = pairing_call_count()
    assert sav_verify(key.public(), MSG, sig, server)
    total = pairing_call_count() - before
    assert server.queries == 2
    assert server.pairings == 2
    assert total - server.pairings == 0  # every pairing happened server-side


def test_sav_lying_server_rejected(bls_keys):
    """A server answering with consistent-looking garbage must not convince
    the verifier, even across repeated attempts."""
    key = bls_keys[0]
    forged = b"\x02" + b"\x11" * 20  # not a signature on MSG
    honest = LocalPairingServer()

    class EchoLiar:
        def query(self, g1_blob, g2_blob):
            # answer honestly so the transcript looks plausible; the forged
            # signature still cannot satisfy the blinded relation
            return honest.query(g1_blob, g2_blob)

    rng = random.Random(211)
    accepts = sum(
        sav_verify(key.public(), MSG, forged, EchoLiar(), rng=rng) for _ in range(20)
    )
    assert accepts == 0


def test_sav_constant_answer_server_rejected(bls_keys):
    key = bls_keys[0]
    sig = sign(key, MSG)
    canned = LocalPairingServer().query(
        G1Point(hash_to_g1(b"canned answer")).to_bytes(), key.point.to_bytes()
    )

    class Canned:
        def query(self, g1_blob, g2_blob):
            return canned

    assert not sav_verify(key.public(), MSG, sig, Canned(), rng=random.Random(212))


def test_sav_malformed_answer_rejected(bls_keys):
    key = bls_keys[0]
    sig = sign(key, MSG)

    class Garbage:
        def query(self, g1_blob, g2_blob):
            return b"\xff" * 240

    assert not sav_verify(key.public(), MSG, sig, Garbage())

    class Short:
        def query(self, g1_blob, g2_blob):
            return b"\x01"

    assert not sav_verify(key.public(), MSG, sig, Short())


def test_sav_server_failure_surfaces(bls_keys):
    """A server that fails raises through sav_verify: no verdict is made up."""
    key = bls_keys[0]
    sig = sign(key, MSG)

    class Broken:
        def query(self, g1_blob, g2_blob):
            raise RuntimeError("helper crashed")

    with pytest.raises(RuntimeError, match="helper crashed"):
        sav_verify(key.public(), MSG, sig, Broken())
