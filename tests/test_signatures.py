import dataclasses
import hashlib
import random

import pytest
import sympy

from ndnkit import cli, intmath
from ndnkit.intmath import i2osp, jacobian_ops, os2ip
from ndnkit.pairing import CURVE_ORDER, G2Point
from ndnkit.signatures import (
    SCHEME_BLS,
    SCHEME_DSA,
    SCHEME_ECDSA,
    SCHEME_GROUP,
    SCHEME_NAMES,
    SCHEME_NC,
    SCHEME_RING,
    SCHEME_RSA,
    GroupPublicKey,
    GroupSigningKey,
    IndexOutOfRing,
    OpenFailure,
    ParameterError,
    RingKeys,
    RingSigningKey,
    SchemeMismatch,
    Signature,
    chameleon_collide,
    chameleon_hash,
    chameleon_keygen,
    group_setup,
    group_sign,
    group_verify,
    keygen,
    load_private,
    load_public,
    message_scalar,
    reference_params,
    ring_sign,
    ring_verify,
    serialize_private,
    serialize_public,
    sign,
    verify,
)
from ndnkit.signatures import bls, dlgroup, dsa, ecdsa, rsa
from ndnkit.signatures.dlgroup import element_bytes, element_valid, gen_pow, key_pow
from ndnkit.signatures.params import DL_G, DL_P, DL_Q, SECP160R1
from ndnkit.signatures.ring import signature_bytes
from ndnkit.wire import pack_varbytes

MSG = b"GET /snnu/images/a.jpg"


@pytest.fixture(scope="module")
def rsa_key():
    return keygen(SCHEME_RSA, rng=random.Random(101))


@pytest.fixture(scope="module")
def dsa_key():
    return keygen(SCHEME_DSA, rng=random.Random(102))


@pytest.fixture(scope="module")
def ecdsa_key():
    return keygen(SCHEME_ECDSA, rng=random.Random(103))


@pytest.fixture(scope="module")
def bls_key():
    return keygen(SCHEME_BLS, rng=random.Random(104))


@pytest.fixture(scope="module")
def group():
    return group_setup(reference_params(SCHEME_GROUP), rng=random.Random(105))


@pytest.fixture(scope="module")
def ring_keys():
    rng = random.Random(106)
    return [keygen(SCHEME_RING, rng=rng) for _ in range(5)]


@pytest.fixture(scope="module")
def ring_pubs(ring_keys):
    return [k.public() for k in ring_keys]


@pytest.fixture(scope="module")
def signers(rsa_key, dsa_key, ecdsa_key, bls_key, group, ring_keys, ring_pubs):
    """Per scheme name, the module's key that sign takes; its public() is
    the key that verify takes."""
    return {
        "rsa": rsa_key,
        "dsa": dsa_key,
        "ecdsa": ecdsa_key,
        "bls": bls_key,
        "group": GroupSigningKey(group.credentials[0], group.group_key),
        "ring": RingSigningKey(RingKeys(tuple(ring_pubs)), 0, ring_keys[0]),
    }


# --- shared discrete-log group ----------------------------------------------


def test_dl_group_parameters():
    """p and q prime, q divides p-1, and g generates the order-q subgroup."""
    assert DL_P.bit_length() == 1024
    assert DL_Q.bit_length() == 160
    assert sympy.isprime(DL_P)
    assert sympy.isprime(DL_Q)
    assert (DL_P - 1) % DL_Q == 0
    assert 1 < DL_G < DL_P
    assert pow(DL_G, DL_Q, DL_P) == 1
    assert DL_G != 1 and pow(DL_G, 1, DL_P) != 1


def test_gen_pow_matches_plain_pow():
    rng = random.Random(1)
    for _ in range(10):
        e = rng.randrange(DL_Q)
        assert gen_pow(e) == pow(DL_G, e, DL_P)


def test_key_pow_matches_plain_pow(dsa_key):
    # DL_P - 1 lies outside the order-q subgroup: the table must still agree
    for y in (dsa_key.y, gen_pow(777), DL_P - 1):
        for e in (0, 1, DL_Q - 1, DL_Q, 2**164 - 1):
            assert key_pow(y, e) == pow(y, e, DL_P)


def test_dl_tables_are_shared_by_value_and_bounded(dsa_key):
    y = int(str(dsa_key.y))  # equal value, distinct object
    assert y is not dsa_key.y
    assert dlgroup._table(y) is dlgroup._table(dsa_key.y)
    bound = dlgroup._table.cache_info().maxsize
    generator = dlgroup._gen_table()
    for i in range(bound + 2):
        key_pow(gen_pow(1000 + i), 1)
    assert dlgroup._table.cache_info().currsize == bound
    # the generator's table lives outside the per-key LRU: no run of keys evicts it
    assert dlgroup._gen_table() is generator


def test_element_valid_boundaries():
    assert element_valid(gen_pow(12345))
    assert not element_valid(1)
    assert not element_valid(DL_P)
    assert not element_valid(DL_P - 1)  # order 2, not in the q-subgroup


# --- RSA ---------------------------------------------------------------------


def _mgf1_reference(seed: bytes, length: int) -> bytes:
    out = bytearray()
    counter = 0
    while len(out) < length:
        out += hashlib.sha256(seed + counter.to_bytes(4, "big")).digest()
        counter += 1
    return bytes(out[:length])


def _pow_reference(base: int, exp: int, mod: int) -> int:
    acc = 1
    for bit in bin(exp)[2:]:
        acc = acc * acc % mod
        if bit == "1":
            acc = acc * base % mod
    return acc


def test_rsa_keygen_structure(rsa_key):
    assert rsa_key.n.bit_length() == 1024
    assert rsa_key.p * rsa_key.q == rsa_key.n
    assert sympy.isprime(rsa_key.p)
    assert sympy.isprime(rsa_key.q)
    assert rsa_key.e == 65537
    assert rsa_key.e * rsa_key.d % ((rsa_key.p - 1) * (rsa_key.q - 1)) == 1
    assert abs(rsa_key.p - rsa_key.q) > 1 << 412


def test_rsa_signature_is_fdh_root(rsa_key):
    """The signature is the e-th root of the masked digest, checked against
    an independent MGF1 expansion and a hand-rolled square-and-multiply."""
    sig = rsa.sign(rsa_key, MSG)
    assert len(sig) == 128
    seed = b"ndnkit/rsa-fdh/v1" + hashlib.sha256(MSG).digest()
    em = bytearray(_mgf1_reference(seed, 128))
    em[0] &= 0x3F
    expected = int.from_bytes(bytes(em), "big")
    assert expected < rsa_key.n
    assert _pow_reference(os2ip(sig), rsa_key.e, rsa_key.n) == expected


def test_rsa_crt_signature_is_the_full_exponentiation(rsa_key):
    rng = random.Random(104)
    keys = [rsa_key, keygen(SCHEME_RSA, rng=rng)]
    for key in keys:
        for _ in range(8):
            msg = rng.randbytes(rng.randrange(1, 200))
            m = rsa.domain_digest(msg, key.n)
            assert os2ip(rsa.sign(key, msg)) == pow(m, key.d, key.n)


def test_rsa_crt_fault_check_refuses_an_inconsistent_key(rsa_key):
    for bad in (
        dataclasses.replace(rsa_key, d=rsa_key.d + 2),
        dataclasses.replace(rsa_key, p=rsa_key.q, q=rsa_key.p + 2),
    ):
        with pytest.raises(ParameterError):
            rsa.sign(bad, MSG)


def test_rsa_round_trip_and_determinism(rsa_key):
    pub = rsa_key.public()
    sig = rsa.sign(rsa_key, MSG)
    assert rsa.verify(pub, MSG, sig)
    assert rsa.sign(rsa_key, MSG) == sig  # FDH has no per-signature randomness
    assert not rsa.verify(pub, MSG + b"?", sig)


def test_rsa_rejects_malformed(rsa_key):
    pub = rsa_key.public()
    sig = rsa.sign(rsa_key, MSG)
    assert not rsa.verify(pub, MSG, sig[:-1])
    assert not rsa.verify(pub, MSG, sig + b"\x00")
    assert not rsa.verify(pub, MSG, i2osp(pub.n, 128))  # representative >= n
    rng = random.Random(2)
    for _ in range(10):
        bad = bytearray(sig)
        bad[rng.randrange(len(bad))] ^= 1 << rng.randrange(8)
        assert not rsa.verify(pub, MSG, bytes(bad))


def test_rsa_toy_oracle():
    """Every invariant of a fresh key, checked against its factors."""
    key = keygen(SCHEME_RSA, rng=random.Random(3))
    assert key.n.bit_length() == 1024
    assert sympy.isprime(key.p) and sympy.isprime(key.q)
    assert key.p * key.q == key.n
    assert abs(key.p - key.q) > 1 << 412
    assert key.d == pow(key.e, -1, (key.p - 1) * (key.q - 1))
    sig = rsa.sign(key, b"toy")
    assert len(sig) == 128
    assert rsa.verify(key.public(), b"toy", sig)


# --- DSA ---------------------------------------------------------------------


def test_dsa_round_trip(dsa_key):
    sig = dsa.sign(dsa_key, MSG)
    assert len(sig) == 40
    assert dsa.verify(dsa_key.public(), MSG, sig)
    assert not dsa.verify(dsa_key.public(), MSG + b"!", sig)


def test_dsa_known_nonce_oracle(dsa_key):
    """A signature assembled by hand from a fixed nonce must verify."""
    z = int.from_bytes(hashlib.sha256(MSG).digest()[:20], "big")
    k = 0x1F2E3D4C5B6A7988
    r = pow(DL_G, k, DL_P) % DL_Q
    s = pow(k, -1, DL_Q) * (z + dsa_key.x * r) % DL_Q
    assert r and s
    assert dsa.verify(dsa_key.public(), MSG, i2osp(r, 20) + i2osp(s, 20))


def test_dsa_fresh_nonces(dsa_key):
    sigs = {dsa.sign(dsa_key, MSG) for _ in range(8)}
    assert len(sigs) == 8


def test_dsa_rejects_malformed(dsa_key):
    pub = dsa_key.public()
    sig = dsa.sign(dsa_key, MSG)
    assert not dsa.verify(pub, MSG, sig[:-1])
    assert not dsa.verify(pub, MSG, b"\x00" * 40)  # r = s = 0
    assert not dsa.verify(pub, MSG, i2osp(DL_Q, 20) + sig[20:])  # r out of range
    rng = random.Random(4)
    for _ in range(10):
        bad = bytearray(sig)
        bad[rng.randrange(len(bad))] ^= 1 << rng.randrange(8)
        assert not dsa.verify(pub, MSG, bytes(bad))


def test_dsa_wrong_key(dsa_key):
    other = keygen(SCHEME_DSA, rng=random.Random(5))
    assert not dsa.verify(other.public(), MSG, dsa.sign(dsa_key, MSG))


# --- ECDSA -------------------------------------------------------------------


def _naive_affine_mul(spec, pt, k):
    def add(a, b):
        if a is None:
            return b
        if b is None:
            return a
        (x1, y1), (x2, y2) = a, b
        if x1 == x2 and (y1 + y2) % spec.p == 0:
            return None
        if a == b:
            lam = (3 * x1 * x1 + spec.a) * pow(2 * y1, -1, spec.p) % spec.p
        else:
            lam = (y2 - y1) * pow(x2 - x1, -1, spec.p) % spec.p
        x3 = (lam * lam - x1 - x2) % spec.p
        return (x3, (lam * (x1 - x3) - y1) % spec.p)

    acc = None
    for bit in bin(k)[2:]:
        acc = add(acc, acc)
        if bit == "1":
            acc = add(acc, pt)
    return acc


def test_ecdsa_scalar_mul_against_naive():
    spec = SECP160R1
    n = spec.n
    base = (spec.gx, spec.gy)
    key = keygen(SCHEME_ECDSA, rng=random.Random(9))
    point = (key.qx, key.qy)  # served by the key's own table, not the base point's
    rng = random.Random(6)
    nibbles15 = (1 << 4 * ((n.bit_length() - 1) // 4)) - 1  # every radix-16 digit 15
    # digit edges of the key tables' radix 2^6 and the generator's 2^9 (the
    # signed carry starts at 2^5 + 1 and 2^8 + 1); n - 1 picks from the top row
    edges = [31, 32, 33, 2**9 - 1, 2**9, 2**9 + 1]
    for k in [0, 1, 2, 3, *edges, n - 1, n, n + 1, nibbles15] + [
        rng.randrange(2, n) for _ in range(4)
    ]:
        expected = _naive_affine_mul(spec, base, k % n)
        assert ecdsa.point_mul(base, k) == expected
        assert ecdsa.base_mul(k) == expected
        assert ecdsa.point_mul(point, k) == _naive_affine_mul(spec, point, k % n)
    assert ecdsa.point_mul(base, spec.n) is None  # group order annihilates


def test_ecdsa_curve_constants():
    spec = SECP160R1
    assert sympy.isprime(spec.p)
    assert sympy.isprime(spec.n)
    assert ecdsa.on_curve(spec.gx, spec.gy)
    assert (4 * spec.a**3 + 27 * spec.b**2) % spec.p != 0


def test_ecdsa_round_trip(ecdsa_key):
    sig = ecdsa.sign(ecdsa_key, MSG)
    assert len(sig) == 40  # two 20-byte scalars: the 320-bit signature payload
    assert ecdsa.verify(ecdsa_key.public(), MSG, sig)
    assert not ecdsa.verify(ecdsa_key.public(), MSG + b".", sig)


def test_ecdsa_reference_preset_width():
    key = keygen(SCHEME_ECDSA, reference_params(SCHEME_ECDSA), rng=random.Random(7))
    sig = ecdsa.sign(key, MSG)
    assert key == keygen(SCHEME_ECDSA, rng=random.Random(7))  # the one preset
    assert ecdsa.on_curve(key.qx, key.qy)
    assert len(sig) == 40  # 320-bit signature payload
    assert ecdsa.verify(key.public(), MSG, sig)


def test_ecdsa_verify_equation_oracle(ecdsa_key):
    """Re-derive the verification point with the naive affine arithmetic."""
    spec = SECP160R1
    sig = ecdsa.sign(ecdsa_key, MSG)
    width = spec.scalar_bytes
    r, s = os2ip(sig[:width]), os2ip(sig[width:])
    shift = max(0, 256 - spec.n.bit_length())
    z = os2ip(hashlib.sha256(MSG).digest()) >> shift
    w = pow(s, -1, spec.n)
    u1 = _naive_affine_mul(spec, (spec.gx, spec.gy), z * w % spec.n)
    u2 = _naive_affine_mul(spec, (ecdsa_key.qx, ecdsa_key.qy), r * w % spec.n)

    def add(a, b):
        lam = (b[1] - a[1]) * pow(b[0] - a[0], -1, spec.p) % spec.p
        x3 = (lam * lam - a[0] - b[0]) % spec.p
        return (x3, (lam * (a[0] - x3) - a[1]) % spec.p)

    assert add(u1, u2)[0] % spec.n == r


def test_ecdsa_verify_inverts_once(monkeypatch):
    # u1 G + u2 Q is one fold of both tables' picks: one inversion, where a
    # sum of two separate products took three
    key = keygen(SCHEME_ECDSA, rng=random.Random(11))
    sig = ecdsa.sign(key, MSG)
    assert ecdsa.verify(key.public(), MSG, sig)  # builds the key's table
    calls = []
    invert_all = intmath.invert_all

    def counted(values, p):
        calls.append(p)
        return invert_all(values, p)

    monkeypatch.setattr(intmath, "invert_all", counted)
    assert ecdsa.verify(key.public(), MSG, sig)
    assert not ecdsa.verify(key.public(), MSG + b".", sig)
    assert calls == [SECP160R1.p] * 2


def test_ecdsa_fresh_nonces(ecdsa_key):
    assert len({ecdsa.sign(ecdsa_key, MSG) for _ in range(8)}) == 8


def test_ecdsa_signatures_from_seeded_streams_are_pinned(ecdsa_key):
    # three signatures from each of twelve seeded streams; the digest was
    # taken before signing drew its nonces through precompute_nonces
    digest = hashlib.sha256()
    for seed in range(12):
        rng = random.Random(seed)
        for i in range(3):
            digest.update(ecdsa.sign(ecdsa_key, b"msg/%d/%d" % (seed, i), rng))
    assert digest.hexdigest() == "50204d9b1b4f0bcf3632a7511c786656768c93a33dcaaa6960fecc678f0a5531"


def _reference_nonce(k):
    """(r, k^-1 mod n) by one base_mul and one pow."""
    return ecdsa.base_mul(k)[0] % SECP160R1.n, pow(k, -1, SECP160R1.n)


@pytest.mark.parametrize("count", [1, 2, 16, 33])
def test_a_nonce_batch_equals_single_draws(count):
    batch = ecdsa.precompute_nonces(random.Random(count), count)
    rng = random.Random(count)
    assert batch == [ecdsa.precompute_nonces(rng, 1)[0] for _ in range(count)]
    rng = random.Random(count)
    assert batch == [_reference_nonce(rng.randrange(1, SECP160R1.n)) for _ in range(count)]


def test_a_nonce_batch_drops_an_r_of_zero_or_past_the_width(monkeypatch):
    # no findable k has x(kG) = 0, so the sums are doctored: the third draw's
    # point gets x = 0, the sixth's an x of 2^160, which does not fit 20 bytes
    n = SECP160R1.n
    rng = random.Random(5)
    draws = [rng.randrange(1, n) for _ in range(10)]
    doctored = {ecdsa.base_mul(draws[2]): 0, ecdsa.base_mul(draws[5]): 1 << 160}
    ops = ecdsa._OPS

    class Doctored:
        def sums(self, lists):
            return [(doctored.get(pt, pt[0]), pt[1]) for pt in ops.sums(lists)]

    monkeypatch.setattr(ecdsa, "_OPS", Doctored())
    batch = ecdsa.precompute_nonces(random.Random(5), 8)
    assert all(0 < r < 1 << 160 for r, _ in batch)
    assert batch == [_reference_nonce(k) for i, k in enumerate(draws) if i not in (2, 5)]
    # single draws skip the same nonces
    rng = random.Random(5)
    assert [ecdsa.precompute_nonces(rng, 1)[0] for _ in range(8)] == batch


def test_a_nonce_pool_signs_as_its_rng_would(ecdsa_key):
    pool = ecdsa.NoncePool(random.Random(17), 4)
    rng = random.Random(17)
    msgs = [b"%d" % i for i in range(6)]
    assert [ecdsa.sign(ecdsa_key, m, pool) for m in msgs] == [
        ecdsa.sign(ecdsa_key, m, rng) for m in msgs]
    assert len(pool.pairs) == 2  # two refills of four, two pairs left
    pub = ecdsa_key.public()
    assert all(ecdsa.verify(pub, m, ecdsa.sign(ecdsa_key, m, pool)) for m in msgs)


def test_ecdsa_rejects_malformed(ecdsa_key):
    pub = ecdsa_key.public()
    sig = ecdsa.sign(ecdsa_key, MSG)
    assert not ecdsa.verify(pub, MSG, sig[:-1])
    assert not ecdsa.verify(pub, MSG, b"\x00" * 64)
    rng = random.Random(8)
    for _ in range(10):
        bad = bytearray(sig)
        bad[rng.randrange(len(bad))] ^= 1 << rng.randrange(8)
        assert not ecdsa.verify(pub, MSG, bytes(bad))
    off_curve = ecdsa.EcdsaPublicKey(pub.qx, (pub.qy + 1) % SECP160R1.p)
    assert not ecdsa.verify(off_curve, MSG, sig)


def test_ecdsa_tables_are_shared_by_value_and_bounded(ecdsa_key):
    twin = ecdsa.EcdsaPublicKey(int(str(ecdsa_key.qx)), int(str(ecdsa_key.qy)))
    sig = ecdsa.sign(ecdsa_key, MSG)
    assert ecdsa.verify(ecdsa_key.public(), MSG, sig)
    misses = ecdsa._comb.cache_info().misses
    assert ecdsa.verify(twin, MSG, sig)
    assert ecdsa._comb.cache_info().misses == misses
    assert ecdsa._comb(twin.qx, twin.qy) is ecdsa._comb(ecdsa_key.qx, ecdsa_key.qy)
    bound = ecdsa._comb.cache_info().maxsize
    generator = ecdsa._gen_comb()
    for i in range(bound + 2):
        ecdsa.point_mul(ecdsa.base_mul(1000 + i), 1)
    assert ecdsa._comb.cache_info().currsize == bound
    # the base point's table lives outside the per-key LRU: no run of keys evicts it
    assert ecdsa._gen_comb() is generator


def test_ecdsa_off_curve_key_builds_no_table(ecdsa_key):
    pub = ecdsa_key.public()
    sig = ecdsa.sign(ecdsa_key, MSG)
    off = ecdsa.EcdsaPublicKey(pub.qx, (pub.qy + 1) % SECP160R1.p)
    misses = ecdsa._comb.cache_info().misses
    assert ecdsa.verify(off, MSG, sig) is False
    assert ecdsa._comb.cache_info().misses == misses


# --- BLS ---------------------------------------------------------------------


def test_bls_round_trip(bls_key):
    sig = bls.sign(bls_key, MSG)
    assert len(sig) == 21
    assert bls.verify(bls_key.public(), MSG, sig)
    assert bls.sign(bls_key, MSG) == sig  # deterministic by construction
    assert not bls.verify(bls_key.public(), MSG + b"x", sig)


def test_bls_rejects_malformed(bls_key):
    pub = bls_key.public()
    sig = bls.sign(bls_key, MSG)
    assert not bls.verify(pub, MSG, b"")
    assert not bls.verify(pub, MSG, sig[:-1])
    assert not bls.verify(pub, MSG, bytes(21))  # identity point
    rng = random.Random(9)
    rejected = 0
    for _ in range(10):
        bad = bytearray(sig)
        bad[rng.randrange(len(bad))] ^= 1 << rng.randrange(8)
        assert not bls.verify(pub, MSG, bytes(bad))
        rejected += 1
    assert rejected == 10


def test_bls_wrong_key(bls_key):
    other = keygen(SCHEME_BLS, rng=random.Random(10))
    assert not bls.verify(other.public(), MSG, bls.sign(bls_key, MSG))


# --- group signatures --------------------------------------------------------


def test_group_sign_verify_and_open(group):
    gk = group.group_key
    assert len(gk.members) == 5
    cred = group.credentials[2]
    sig = group_sign(cred, gk, MSG, rng=random.Random(11))
    assert len(sig) == 208
    assert group_verify(gk, MSG, sig)
    assert group.open(sig) == 2


def test_group_every_member_signs(group):
    gk = group.group_key
    for idx, cred in enumerate(group.credentials):
        sig = group_sign(cred, gk, MSG)
        assert group_verify(gk, MSG, sig)
        assert group.open(sig) == idx


def test_group_signature_layout_has_no_index(group):
    """The blob carries the pseudonym, never the roster position."""
    cred = group.credentials[4]
    sig = group_sign(cred, group.group_key, MSG)
    assert sig[:128] == element_bytes(cred.y)
    assert len(sig) == len(group_sign(group.credentials[0], group.group_key, MSG))


def test_group_outsider_rejected(group):
    outsider = group_setup(reference_params(SCHEME_GROUP), rng=random.Random(12))
    sig = group_sign(outsider.credentials[0], outsider.group_key, MSG)
    assert not group_verify(group.group_key, MSG, sig)
    with pytest.raises(OpenFailure):
        group.open(sig)


def test_group_revocation():
    setup = group_setup(reference_params(SCHEME_GROUP), rng=random.Random(13))
    cred = setup.credentials[1]
    sig = group_sign(cred, setup.group_key, MSG)
    assert group_verify(setup.group_key, MSG, sig)
    setup.revoke(1)
    assert len(setup.group_key.members) == 4
    assert not group_verify(setup.group_key, MSG, sig)
    assert setup.open(sig) == 1  # the manager can still attribute it


def test_group_forged_certificate_rejected(group):
    """A self-issued pseudonym without the manager's certificate fails."""
    rng = random.Random(14)
    x = rng.randrange(1, DL_Q)
    forged = group.credentials[0].__class__(x=x, y=gen_pow(x), cert_c=1, cert_s=2)
    roster = group.group_key.members + (forged.y,)
    gk_with_forged = type(group.group_key)(group.group_key.manager_y, roster)
    sig = group_sign(forged, gk_with_forged, MSG)
    assert not group_verify(gk_with_forged, MSG, sig)


def test_group_tamper_rejected(group):
    gk = group.group_key
    sig = group_sign(group.credentials[0], gk, MSG)
    rng = random.Random(15)
    for _ in range(10):
        bad = bytearray(sig)
        bad[rng.randrange(len(bad))] ^= 1 << rng.randrange(8)
        assert not group_verify(gk, MSG, bytes(bad))
    assert not group_verify(gk, MSG, sig[:-1])


def test_group_pseudonym_outside_the_subgroup_rejected(group):
    """Group verify makes no subgroup check of its own on the pseudonym: a
    pseudonym must sit in the roster, and the roster's members were each
    checked once, when the key was loaded or built as g^x."""
    gk = group.group_key
    sig = group_sign(group.credentials[3], gk, MSG)
    loaded = load_public(serialize_public(gk))
    for key in (gk, loaded):
        assert group_verify(key, MSG, sig)
        for y in (DL_P - 1, 1, 0):
            assert not group_verify(key, MSG, element_bytes(y) + sig[128:])


def test_group_single_member_degenerate():
    setup = group_setup(rng=random.Random(16), members=1)
    sig = group_sign(setup.credentials[0], setup.group_key, MSG)
    assert group_verify(setup.group_key, MSG, sig)
    assert setup.open(sig) == 0


# --- ring signatures ---------------------------------------------------------


def test_ring_every_member_signs(ring_keys, ring_pubs):
    for idx, key in enumerate(ring_keys):
        sig = ring_sign(ring_pubs, idx, key, MSG)
        assert len(sig) == signature_bytes(5) == 120
        assert ring_verify(ring_pubs, MSG, sig)


def test_ring_binds_member_order(ring_keys, ring_pubs):
    sig = ring_sign(ring_pubs, 1, ring_keys[1], MSG)
    reordered = list(reversed(ring_pubs))
    assert not ring_verify(reordered, MSG, sig)
    assert not ring_verify(ring_pubs[:4], MSG, sig)


def test_ring_sign_index_errors(ring_keys, ring_pubs):
    with pytest.raises(IndexOutOfRing):
        ring_sign(ring_pubs, 5, ring_keys[0], MSG)
    with pytest.raises(ParameterError):
        ring_sign(ring_pubs, 0, ring_keys[3], MSG)  # key not at that slot


def test_ring_structural_requirements(ring_keys, ring_pubs):
    with pytest.raises(ParameterError):
        ring_sign(ring_pubs[:1], 0, ring_keys[0], MSG)  # below minimum size
    duplicated = [ring_pubs[0], ring_pubs[0], ring_pubs[1]]
    with pytest.raises(ParameterError):
        ring_sign(duplicated, 2, ring_keys[1], MSG)
    sig = ring_sign(ring_pubs, 0, ring_keys[0], MSG)
    assert not ring_verify(duplicated, MSG, sig)


def test_ring_tamper_rejected(ring_keys, ring_pubs):
    sig = ring_sign(ring_pubs, 2, ring_keys[2], MSG)
    rng = random.Random(17)
    for _ in range(10):
        bad = bytearray(sig)
        bad[rng.randrange(len(bad))] ^= 1 << rng.randrange(8)
        assert not ring_verify(ring_pubs, MSG, bytes(bad))
    assert not ring_verify(ring_pubs, MSG + b"z", sig)
    assert not ring_verify(ring_pubs, MSG, sig[:-1])


def test_ring_size_scales_with_members():
    rng = random.Random(18)
    for n in (2, 5, 8):
        keys = [keygen(SCHEME_RING, rng=rng) for _ in range(n)]
        pubs = [k.public() for k in keys]
        sig = ring_sign(pubs, n - 1, keys[-1], MSG)
        assert len(sig) == 20 * (n + 1)
        assert ring_verify(pubs, MSG, sig)


# --- chameleon hash ----------------------------------------------------------


def test_chameleon_collision():
    key = chameleon_keygen(random.Random(19))
    m_old = message_scalar(b"placeholder")
    r_old = 0x1234567
    digest = chameleon_hash(key.h, m_old, r_old)
    m_new = message_scalar(b"the real message")
    r_new = chameleon_collide(key, m_old, r_old, m_new)
    assert r_new != r_old
    assert chameleon_hash(key.h, m_new, r_new) == digest
    assert chameleon_hash(key.h, m_new, r_old) != digest


def test_chameleon_hash_matches_plain_pow():
    key = chameleon_keygen(random.Random(20))
    m, r = 12345, 67890
    assert chameleon_hash(key.h, m, r) == pow(DL_G, m, DL_P) * pow(key.h, r, DL_P) % DL_P


# --- scheme-tagged envelope and dispatch -------------------------------------


def test_signature_envelope_round_trip(dsa_key):
    sig = sign(dsa_key, MSG)
    assert sig.scheme_id == SCHEME_DSA
    blob = sig.to_bytes()
    assert blob[0] == SCHEME_DSA
    assert Signature.from_bytes(blob) == sig
    with pytest.raises(SchemeMismatch):
        Signature.from_bytes(bytes([99]) + blob[1:])
    with pytest.raises(SchemeMismatch):
        Signature.from_bytes(b"")


def test_verify_rejects_cross_scheme_envelope(rsa_key, dsa_key):
    sig = sign(dsa_key, MSG)
    with pytest.raises(SchemeMismatch):
        verify(rsa_key.public(), MSG, sig)


def test_dispatch_round_trips(rsa_key, dsa_key, ecdsa_key, bls_key):
    for key in (rsa_key, dsa_key, ecdsa_key, bls_key):
        sig = sign(key, MSG)
        assert verify(key.public(), MSG, sig)
        assert not verify(key.public(), MSG + b"*", sig)


def test_keygen_guards():
    with pytest.raises(ParameterError):
        keygen(SCHEME_GROUP)  # membership is issued, not self-generated
    with pytest.raises(SchemeMismatch):
        keygen(SCHEME_RSA, params=reference_params(SCHEME_DSA))
    with pytest.raises(ParameterError):
        group_setup(reference_params(SCHEME_DSA))
    with pytest.raises(ParameterError):
        reference_params(99)


def test_keygen_draws_are_distinct():
    rng = random.Random(21)
    ys = {keygen(SCHEME_RING, rng=rng).y for _ in range(50)}
    assert len(ys) == 50


@pytest.mark.parametrize("name", ["group", "ring"])
def test_table_signs_group_and_ring_as_the_direct_calls_do(name, signers, group, ring_keys,
                                                          ring_pubs):
    """sign's bytes equal group_sign's and ring_sign's from the same rng state,
    so callers of either path get the same signatures."""
    direct = {
        "group": lambda rng: group_sign(group.credentials[0], group.group_key, MSG, rng),
        "ring": lambda rng: ring_sign(ring_pubs, 0, ring_keys[0], MSG, rng),
    }[name]
    sig = sign(signers[name], MSG, random.Random(24))
    assert sig.data == direct(random.Random(24))
    assert verify(signers[name].public(), MSG, sig)
    with pytest.raises(SchemeMismatch):
        verify(signers[name].public(), MSG, Signature(SCHEME_DSA, sig.data))


def test_sign_and_verify_refuse_keys_they_do_not_take(signers, group, ring_keys, ring_pubs):
    # key records that are not what sign or verify takes, and a bare ring list
    for key in (group.credentials[0], ring_keys[0], signers["rsa"].public()):
        with pytest.raises(SchemeMismatch):
            sign(key, MSG)
    sig = sign(signers["ring"], MSG).data
    for key in (ring_pubs[0], ring_pubs, tuple(ring_pubs), signers["ring"], signers["bls"]):
        with pytest.raises(SchemeMismatch):
            verify(key, MSG, sig)


# --- key serialization -------------------------------------------------------


def _field(value) -> bytes:
    if isinstance(value, tuple):
        return _field(len(value)) + b"".join(map(_field, value))
    if isinstance(value, G2Point):
        return pack_varbytes(value.to_bytes())
    return pack_varbytes(value.to_bytes(max(1, (value.bit_length() + 7) // 8), "big"))


def _unchecked_record(key) -> bytes:
    """key's record built by hand, field by field, with no validator run: the
    way to hand a loader a record that serialize_* refuses to write."""
    return bytes([key.scheme_id]) + b"".join(
        _field(getattr(key, f.name)) for f in dataclasses.fields(key)
    )


def _refused_both_ways(key, public: bool) -> None:
    """serialize_* will not write key, and load_* rejects its record."""
    serialize, load = (
        (serialize_public, load_public) if public else (serialize_private, load_private)
    )
    with pytest.raises(ParameterError):
        serialize(key)
    with pytest.raises(ParameterError):
        load(_unchecked_record(key))


def test_public_key_round_trips(rsa_key, dsa_key, ecdsa_key, bls_key, group, ring_keys):
    keys = [
        rsa_key.public(),
        dsa_key.public(),
        ecdsa_key.public(),
        bls_key.public(),
        group.group_key,
        ring_keys[0].public(),
    ]
    for key in keys:
        assert serialize_public(key) == _unchecked_record(key)
        assert load_public(serialize_public(key)) == key


def test_private_key_round_trips(rsa_key, dsa_key, ecdsa_key, bls_key, group, ring_keys):
    keys = [rsa_key, dsa_key, ecdsa_key, bls_key, group.credentials[0], ring_keys[0]]
    for key in keys:
        assert serialize_private(key) == _unchecked_record(key)
        assert load_private(serialize_private(key)) == key


@pytest.mark.parametrize("name", ["rsa", "dsa", "ecdsa", "bls", "group", "ring"])
def test_serialize_writes_only_the_schemes_key_record_classes(name, signers, group, ring_keys):
    """Each serialize_* writes its own record class and raises ParameterError
    for every other key of the scheme: the other record, the signer, and what
    verify takes."""
    public, private = {
        "group": (group.group_key, group.credentials[0]),
        "ring": (ring_keys[0].public(), ring_keys[0]),
    }.get(name, (signers[name].public(), signers[name]))
    signer = signers[name]
    for serialize, record in ((serialize_public, public), (serialize_private, private)):
        for key in {public, private, signer, signer.public()}:
            if type(key) is type(record):
                assert serialize(key)
            else:
                with pytest.raises(ParameterError):
                    serialize(key)


def test_load_rejects_malformed_records(dsa_key, rsa_key):
    blob = serialize_public(dsa_key.public())
    with pytest.raises(ValueError):
        load_public(blob + b"\x00")  # trailing bytes
    with pytest.raises(ValueError):
        load_public(blob[:-3])  # truncated
    with pytest.raises(ParameterError):
        load_public(b"")
    with pytest.raises(SchemeMismatch):
        load_public(bytes([99]) + blob[1:])
    tampered = bytearray(serialize_private(rsa_key))
    tampered[-1] ^= 1  # q no longer divides n
    with pytest.raises(ParameterError):
        load_private(bytes(tampered))


def test_load_validates_group_membership(dsa_key):
    # an element outside the q-order subgroup must not load as a public key
    bad = ser = serialize_public(dsa_key.public())
    bad = bytearray(ser)
    bad[-1] ^= 1
    with pytest.raises(ParameterError):
        load_public(bytes(bad))


def test_load_validates_dl_secret(dsa_key):
    blob = bytearray(serialize_private(dsa_key))
    blob[-1] ^= 1  # y no longer equals g^x
    with pytest.raises(ParameterError):
        load_private(bytes(blob))


def _ecdsa_record(*ints: int) -> bytes:
    return bytes([SCHEME_ECDSA]) + b"".join(map(_field, ints))


def test_load_public_rejects_unreduced_ecdsa_coordinates(ecdsa_key):
    p = SECP160R1.p
    assert load_public(_ecdsa_record(ecdsa_key.qx, ecdsa_key.qy)) == ecdsa_key.public()
    with pytest.raises(ParameterError):
        load_public(_ecdsa_record(ecdsa_key.qx + p, ecdsa_key.qy))
    with pytest.raises(ParameterError):
        load_public(_ecdsa_record(ecdsa_key.qx, ecdsa_key.qy + p))


def test_load_private_rejects_ecdsa_secret_out_of_range(ecdsa_key):
    for d in (0, ecdsa_key.d + SECP160R1.n):
        with pytest.raises(ParameterError):
            load_private(_ecdsa_record(d, ecdsa_key.qx, ecdsa_key.qy))


def test_load_private_rejects_mismatched_ecdsa_pair(ecdsa_key):
    other = keygen(SCHEME_ECDSA, rng=random.Random(31))
    with pytest.raises(ParameterError):
        load_private(_ecdsa_record(ecdsa_key.d, other.qx, other.qy))


def _refused_with_curve_name(key, curve: bytes, match: str | None = None) -> None:
    """Records once led with the curve's name; neither load takes such a record."""
    named = bytes([SCHEME_ECDSA]) + pack_varbytes(curve)
    with pytest.raises(ParameterError, match=match):
        load_public(named + _ecdsa_record(key.qx, key.qy)[1:])
    with pytest.raises(ParameterError, match=match):
        load_private(named + _ecdsa_record(key.d, key.qx, key.qy)[1:])


def test_ecdsa_records_with_a_curve_name_are_refused(ecdsa_key):
    # the error names the old format and the way out, not the trailing bytes
    for curve in (b"secp160r1", b"p256"):
        _refused_with_curve_name(ecdsa_key, curve,
                                 match=r"old format, which names a curve.*`ndnkit keygen`")
    with pytest.raises(ParameterError, match="trailing bytes"):
        load_public(_ecdsa_record(ecdsa_key.qx, ecdsa_key.qy, 1))


def test_load_maps_bad_curve_text_to_parameter_error(ecdsa_key):
    _refused_with_curve_name(ecdsa_key, b"p\xff256")


def test_unknown_curve_refused_both_ways(ecdsa_key):
    # a key has no curve to name: neither class takes one, and no record names one
    for key in (ecdsa_key.public(), ecdsa_key):
        with pytest.raises(TypeError):
            dataclasses.replace(key, curve="p384")
    _refused_with_curve_name(ecdsa_key, b"p384")


def test_load_maps_truncated_records_to_parameter_error(dsa_key, ecdsa_key, group):
    for blob in (serialize_public(dsa_key.public()), serialize_public(ecdsa_key.public()),
                 serialize_public(group.group_key)):
        with pytest.raises(ParameterError):
            load_public(blob[:-3])
    with pytest.raises(ParameterError):
        load_private(serialize_private(ecdsa_key)[:-1])


def test_load_maps_bad_bls_points_to_parameter_error(bls_key):
    blob = bytearray(serialize_public(bls_key.public()))
    blob[2] = 0x07  # compression flag
    with pytest.raises(ParameterError):
        load_public(bytes(blob))
    blob = bytearray(serialize_private(bls_key))
    blob[-41] = 0x07
    with pytest.raises(ParameterError):
        load_private(bytes(blob))


# sha256 of (serialize_public, serialize_private) for the module's seeded keys.
# Key records are stored and exchanged, so their bytes are pinned.
_KEY_RECORD_DIGESTS = {
    "rsa": ("bfe12b6ec9acc0185cb5c882e08dc8c02e056d14067e13963c8c5689cb94747a",
            "5cfae99ca8a06e5dcda8bc64de7343b2ea491b1ee9b03077eb8c7e2cc1f1631e"),
    "dsa": ("d6d1b78bb65cd63987f4962fa90b83735710415c21011f6f639833305de76b59",
            "b53a840dbed43037f27f4384b7d4e23d8b819546d0a3d4a856ac9e623523c25a"),
    "ecdsa": ("3fba8eeceab282c0fd360fab989298354add90d9409c63bd809602533fd82a6f",
              "3dc5cdcbb7f2a24b9f1722fb92897fabdb1d43053211ce28f72f205b24429d8b"),
    "bls": ("81d371ea1122c467aaa8a2442f0946a642bd48ce1aaeb5bc14c50d00ce25c6ba",
            "c8cbe819b1cd1bc09e30a2e685f84c326cd91607f7d56a2b4512e72eb27a13d8"),
    "group": ("0238fab3fc1eaff0277d0de116040e27127de943b8f79f74b274b4c4a2d5f0d2",
              "9bb3cc20d542f3778e4169fce9624f1ee6f385846bfd86805ba82ca258c581ce"),
    "ring": ("b8d54f99dd7104343b119fea5829553f651aa5ce189099274f7f73ac7713a694",
             "d37773ffc2e41d5a9b033f56c44025a70d8fe797aa7bb3e39b081442ea3a15b4"),
}


def test_key_records_match_pinned_digests(rsa_key, dsa_key, ecdsa_key, bls_key, group, ring_keys):
    pairs = {
        "rsa": (rsa_key.public(), rsa_key),
        "dsa": (dsa_key.public(), dsa_key),
        "ecdsa": (ecdsa_key.public(), ecdsa_key),
        "bls": (bls_key.public(), bls_key),
        "group": (group.group_key, group.credentials[0]),
        "ring": (ring_keys[0].public(), ring_keys[0]),
    }
    for name, (public, private) in pairs.items():
        digests = tuple(
            hashlib.sha256(blob).hexdigest()
            for blob in (serialize_public(public), serialize_private(private))
        )
        assert digests == _KEY_RECORD_DIGESTS[name], name


def _records_digest(keys) -> str:
    h = hashlib.sha256()
    for key in keys:
        h.update(serialize_private(key))
    return h.hexdigest()


# sha256 over the serialize_private records of each draw below.
_KEY_DRAW_DIGESTS = {
    "rsa": "c86e454f88ba6cdd908b76fab6f7088256be1f5ba0060a553c6aa5f711fda541",
    "dsa": "5e4a3e053fe63ae88b10601e12634aa0c397161811e3df15859f0789161d55fe",
    "ecdsa": "05596f87bf64aeb5f1f8c40ef52efc4dec2ca894c35922d3f464008ca1ff9d08",
    "bls": "bc520ce6526d7facd906332f8ef0add15272984bb05041588ad17599f08e24c7",
    "ring": "bc431a6a41e4a983dd2781a37da100593db62f1a8008b333c27732aa1150b49b",
    "group/1": "3da1b0d806cedd030791f4c6e84943b28726b051b433725b38d126c727e4d3bf",
    "group/5": "e0da246848b9ac785b7366d0ea1faa791ef3eb2d5b0f47247d3192daaa2a16fb",
    "perfbench": "c30d85f0df0a434d58da8d32bb0742bd8b7eceb25472725c417c95ad2a4515bb",
}


def test_key_draws_are_pinned(tmp_path):
    """What each keygen draws from a seeded rng, byte for byte: one key per
    scheme, a group of one member (`ndnkit keygen`) and of five
    (group_setup's default), and the key sequence perfbench's CryptoSuite
    makes through reference_params, group_setup(params, rng),
    keygen(sid, params, rng) and params.ring_size."""
    got = {
        name: _records_digest([keygen(sid, rng=random.Random(f"pin/{name}"))])
        for name, sid in (("rsa", SCHEME_RSA), ("dsa", SCHEME_DSA), ("ecdsa", SCHEME_ECDSA),
                          ("bls", SCHEME_BLS), ("ring", SCHEME_RING))
    }
    out = tmp_path / "member"
    assert cli.main(["keygen", "--scheme", "group", "--seed", "26", "--out", str(out)]) == 0
    got["group/1"] = _records_digest([load_private(out.read_bytes())])
    setup = group_setup(reference_params(SCHEME_GROUP), random.Random("pin/group"))
    got["group/5"] = _records_digest(setup.credentials)

    rng = random.Random("ndnkit-perfbench/keys")
    suite = []
    for sid in (SCHEME_RSA, SCHEME_DSA, SCHEME_ECDSA, SCHEME_BLS, SCHEME_GROUP, SCHEME_RING):
        params = reference_params(sid)
        if sid == SCHEME_GROUP:
            suite += group_setup(params, rng).credentials
        elif sid == SCHEME_RING:
            suite += [keygen(sid, params, rng) for _ in range(params.ring_size)]
        else:
            suite.append(keygen(sid, params, rng))
    bls_params = reference_params(SCHEME_BLS)
    suite += [keygen(SCHEME_BLS, bls_params, rng) for _ in range(4)]  # the batch signers
    got["perfbench"] = _records_digest(suite)
    assert got == _KEY_DRAW_DIGESTS


def _signer(private, public, ring_others=()):
    """The key sign takes, built from a scheme's key records: the private key
    itself, a group credential with its group key, or a ring key at index 0 of
    a ring with ring_others."""
    if private.scheme_id == SCHEME_GROUP:
        return GroupSigningKey(private, public)
    if private.scheme_id == SCHEME_RING:
        return RingSigningKey(RingKeys((public, *ring_others)), 0, private)
    return private


@pytest.mark.parametrize("sid", sorted(set(SCHEME_NAMES) - {SCHEME_NC}))
def test_every_scheme_runs_through_the_table(sid):
    """keygen (or group_setup), serialize and load; then for the drawn and the
    loaded records alike, sign and verify(key.public(), ...) alone, on the
    envelope and on its bytes."""
    rng = random.Random(sid)
    params = reference_params(sid)
    others = ()
    if sid == SCHEME_GROUP:
        setup = group_setup(params, rng)
        private, public = setup.credentials[0], setup.group_key
    else:
        if sid == SCHEME_RING:
            others = tuple(keygen(sid, params, rng).public() for _ in range(params.ring_size - 1))
        private = keygen(sid, params, rng)
        public = private.public()
    loaded_public = load_public(serialize_public(public))
    loaded_private = load_private(serialize_private(private))
    assert (loaded_public, loaded_private) == (public, private)
    for key in (_signer(private, public, others), _signer(loaded_private, loaded_public, others)):
        sig = sign(key, MSG, rng)
        assert sig.scheme_id == sid
        for blob in (sig, sig.data):
            assert verify(key.public(), MSG, blob) and not verify(key.public(), MSG + b"!", blob)


def test_load_private_checks_rsa_exponent(rsa_key):
    for d in (rsa_key.d + 2, 1):
        _refused_both_ways(dataclasses.replace(rsa_key, d=d), public=False)


def test_load_private_checks_bls_secret_against_point(bls_key):
    for x in (bls_key.x + 1, 0, CURVE_ORDER):
        _refused_both_ways(dataclasses.replace(bls_key, x=x), public=False)


def test_load_private_checks_group_credential(group):
    cred = group.credentials[0]
    for x in (cred.x + 1, cred.x + DL_Q):
        _refused_both_ways(dataclasses.replace(cred, x=x), public=False)


def test_load_public_validates_group_roster(group):
    key = group.group_key
    members = key.members
    bad_keys = [
        GroupPublicKey(manager_y=1, members=(1, 1)),
        GroupPublicKey(manager_y=key.manager_y, members=()),
        GroupPublicKey(manager_y=key.manager_y, members=members + members[:1]),
        GroupPublicKey(manager_y=DL_P - 1, members=members),
        GroupPublicKey(manager_y=key.manager_y, members=members + (DL_P - 1,)),
    ]
    for bad in bad_keys:
        _refused_both_ways(bad, public=True)


def test_serialize_refuses_a_fully_revoked_group():
    setup = group_setup(rng=random.Random(17), members=2)
    setup.revoke(0)
    assert load_public(serialize_public(setup.group_key)) == setup.group_key
    setup.revoke(1)
    assert setup.group_key.members == ()
    with pytest.raises(ParameterError):
        serialize_public(setup.group_key)


def test_load_public_rejects_the_bls_identity(bls_key):
    identity = dataclasses.replace(bls_key.public(), point=G2Point(None))
    _refused_both_ways(identity, public=True)


def test_jacobian_ops_cover_a_zero_and_minus_three_only():
    p = SECP160R1.p
    for a in (0, -3, p - 3):
        ops = jacobian_ops(p, a)
        assert ops._fields == ("dbl", "add_mixed", "normalize", "add_pairs", "neg", "identity")
        assert all(callable(f) for f in ops[:5]) and ops.identity == (1, 1, 0)
    with pytest.raises(ValueError):
        jacobian_ops(p, 7)


# --- signature size table ----------------------------------------------------


def test_signature_sizes(rsa_key, dsa_key, ecdsa_key, bls_key, group, ring_keys):
    assert len(rsa.sign(rsa_key, MSG)) * 8 == 1024
    assert len(dsa.sign(dsa_key, MSG)) * 8 == 320
    assert len(ecdsa.sign(ecdsa_key, MSG)) * 8 == 320
    assert len(bls.sign(bls_key, MSG)) == 21  # one compressed group element
    assert len(group_sign(group.credentials[0], group.group_key, MSG)) == 208
    pubs = [k.public() for k in ring_keys]
    assert len(ring_sign(pubs, 0, ring_keys[0], MSG)) == 20 * (len(pubs) + 1)


# --- near-valid mutants ------------------------------------------------------


def _mutants(sig: bytes, count: int, seed: int) -> list[bytes]:
    """count seeded one-edit variants of sig, none equal to it: a byte set,
    a cut, an insert, a byte +-1, a duplicated run, or a byte set to an edge
    value."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        b = bytearray(sig)
        i = rng.randrange(len(b))
        kind = rng.randrange(6)
        if kind == 0:
            b[i] = rng.randrange(256)
        elif kind == 1:
            del b[i:]
        elif kind == 2:
            b.insert(i, rng.randrange(256))
        elif kind == 3:
            b[i] = (b[i] + rng.choice((1, -1))) % 256
        elif kind == 4:
            b[i:i] = b[i : i + rng.randrange(1, 9)]
        else:
            b[i] = rng.choice((0x00, 0x7F, 0x80, 0xFD, 0xFE, 0xFF))
        if b != sig:
            out.append(bytes(b))
    return out


def test_near_valid_signature_mutants_are_refused(signers):
    rng = random.Random(23)
    # a BLS mutant that still decompresses costs a pairing check
    counts = (("ecdsa", 400), ("group", 400), ("ring", 80), ("rsa", 300), ("dsa", 300),
              ("bls", 100))
    cases = [(signers[name].public(), sign(signers[name], MSG, rng).data, count)
             for name, count in counts]
    assert len(cases[0][1]) == 40
    for seed, (pub, sig, count) in enumerate(cases):
        assert verify(pub, MSG, sig) is True
        for bad in _mutants(sig, count, seed):
            assert verify(pub, MSG, bad) is False, bad.hex()
