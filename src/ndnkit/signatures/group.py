"""Manager-based group signatures over the shared discrete-log group.

The manager issues each member a blinded key pair: a fresh secret x with
pseudonym y = g^x, plus the manager's Schnorr certificate on y.  A group
signature is the pseudonym, its certificate, and a Schnorr signature under
the pseudonym; verifiers check the certificate, the pseudonym's presence in
the current roster, and the signature itself, learning nothing about which
member owns the pseudonym.  The manager alone keeps the pseudonym-to-member
registry and can open signatures or revoke members by shrinking the roster.

Known limitation: two signatures by the same member share a pseudonym and
are therefore linkable to each other (not to an identity).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..intmath import i2osp, os2ip
from .dlgroup import (
    DL_P,
    DL_Q,
    element_bytes,
    gen_pow,
    hash_to_scalar,
    key_pow,
    rand_scalar,
)
from .params import OpenFailure, ParameterError, SCHEME_GROUP, SchemeParams

_CERT_TAG = b"ndnkit/group-cert/v1"
_SIG_TAG = b"ndnkit/group-sig/v1"

SIGNATURE_BYTES = 128 + 4 * 20


def _schnorr_sign(x: int, y: int, tag: bytes, msg: bytes, rng) -> tuple[int, int]:
    k = rand_scalar(rng)
    r = gen_pow(k)
    c = hash_to_scalar(tag, element_bytes(y), element_bytes(r), msg)
    s = (k - c * x) % DL_Q
    return c, s


def _schnorr_verify(y: int, tag: bytes, msg: bytes, c: int, s: int) -> bool:
    if not (0 <= c < DL_Q and 0 <= s < DL_Q):
        return False
    r = gen_pow(s) * key_pow(y, c) % DL_P
    return hash_to_scalar(tag, element_bytes(y), element_bytes(r), msg) == c


@dataclass(frozen=True)
class MemberCredential:
    """One member's secret signing material (issued by the manager)."""

    x: int
    y: int
    cert_c: int
    cert_s: int

    scheme_id = SCHEME_GROUP


@dataclass(frozen=True)
class GroupPublicKey:
    """What verifiers hold: the manager key plus the current roster."""

    manager_y: int
    members: tuple[int, ...]

    scheme_id = SCHEME_GROUP


class GroupSetup:
    """Manager-side state: issued credentials and the identity registry."""

    def __init__(self, rng: random.Random | None, members: int):
        rng = rng or random.SystemRandom()
        self._rng = rng
        self._manager_x = rand_scalar(rng)
        self.manager_y = gen_pow(self._manager_x)
        self.credentials: list[MemberCredential] = []
        self._registry: dict[int, int] = {}
        self._active: set[int] = set()
        for _ in range(members):
            self.add_member()

    def add_member(self) -> MemberCredential:
        while True:
            x = rand_scalar(self._rng)
            y = gen_pow(x)
            if y not in self._registry:
                break
        c, s = _schnorr_sign(
            self._manager_x, self.manager_y, _CERT_TAG, element_bytes(y), self._rng
        )
        cred = MemberCredential(x=x, y=y, cert_c=c, cert_s=s)
        self._registry[y] = len(self.credentials)
        self._active.add(y)
        self.credentials.append(cred)
        return cred

    def revoke(self, member: int) -> None:
        self._active.discard(self.credentials[member].y)

    @property
    def group_key(self) -> GroupPublicKey:
        return GroupPublicKey(
            manager_y=self.manager_y,
            members=tuple(c.y for c in self.credentials if c.y in self._active),
        )

    def open(self, sig: bytes) -> int:
        """Recover the signer's member index; manager-only."""
        y = os2ip(sig[:128]) if len(sig) == SIGNATURE_BYTES else None
        if y is None or y not in self._registry:
            raise OpenFailure("signature's pseudonym is not in the registry")
        return self._registry[y]


def group_setup(
    params: SchemeParams | None = None,
    rng: random.Random | None = None,
    members: int = 5,
) -> GroupSetup:
    """A manager with members credentials issued; a passed params must name
    the group scheme."""
    if params is not None and params.scheme_id != SCHEME_GROUP:
        raise ParameterError("params are not for the group scheme")
    return GroupSetup(rng, members)


def group_sign(
    cred: MemberCredential,
    group_key: GroupPublicKey,
    msg: bytes,
    rng: random.Random | None = None,
) -> bytes:
    rng = rng or random.SystemRandom()
    c, s = _schnorr_sign(cred.x, cred.y, _SIG_TAG, msg, rng)
    return (
        element_bytes(cred.y)
        + i2osp(cred.cert_c, 20)
        + i2osp(cred.cert_s, 20)
        + i2osp(c, 20)
        + i2osp(s, 20)
    )


def group_verify(group_key: GroupPublicKey, msg: bytes, sig: bytes) -> bool:
    if len(sig) != SIGNATURE_BYTES:
        return False
    y = os2ip(sig[:128])
    cert_c = os2ip(sig[128:148])
    cert_s = os2ip(sig[148:168])
    c = os2ip(sig[168:188])
    s = os2ip(sig[188:208])
    # load_public or GroupSetup vetted each roster member; membership suffices
    if y not in group_key.members:
        return False
    if not _schnorr_verify(
        group_key.manager_y, _CERT_TAG, element_bytes(y), cert_c, cert_s
    ):
        return False
    return _schnorr_verify(y, _SIG_TAG, msg, c, s)


def group_open(setup: GroupSetup, sig: bytes) -> int:
    return setup.open(sig)
