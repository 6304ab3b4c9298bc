"""BN-160 curve groups.

G1: E(Fp): y^2 = x^3 + 2, prime order n (cofactor 1).
G2: order-n subgroup of the D-type sextic twist E'(Fp2): y^2 = x^3 + 2/xi,
    twist cofactor 2p - n.

Affine points are coordinate tuples (None is the identity); scalar
multiplication runs in Jacobian coordinates with NAF digits.  The fixed
generators additionally carry radix-16 comb tables so generator
exponentiations (key generation, signing bases) cost ~40 mixed additions.

Sums k_1 B_1 + ... + k_n B_n run on one engine: width-w NAF digits (odd,
within +-2^(w-1)) pick entries of per-base affine tables of odd multiples,
over one run of doublings shared by all bases.  g1_multi_exp uses its
tables once and takes w = 4; G1MultiExp keeps them and takes w = 8.

Generator provenance: g1 is the smallest-x curve point; g2 is the first
twist point with x = (k, 1), k = 1, 2, ..., cleared by the twist cofactor.
Both values are pinned as integers and re-checked by the test suite.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import partial
from typing import Optional

from ..intmath import PointComb, jacobian_to_affine
from .fields import (
    F2_ONE,
    F2_ZERO,
    N,
    P,
    XI,
    _naf,
    f2_add,
    f2_inv,
    f2_mul,
    f2_mul_xi,
    f2_neg,
    f2_scal,
    f2_sqr,
    f2_sqrt,
    f2_sub,
)

FIELD_PRIME = P
CURVE_ORDER = N
CURVE_B = 2
# twist coefficient 2/xi = 2*(1-i)/2 = 1 - i
TWIST_B = f2_mul((CURVE_B, 0), f2_inv(XI))
TWIST_COFACTOR = 2 * P - N

G1_X = 2
G1_Y = 49392867263768642569315391949339572744600141550
G2_X = (
    206187533382547191007520445247036350785025254508,
    48293968241449826288499494276441207267038517017,
)
G2_Y = (
    977935923900333672220893497676465926837977035155,
    694040654981950420821576091911461536837711620750,
)

_H2G1_TAG = b"ndnkit/hash-to-g1/v1"


# --- G1 arithmetic (ints, Jacobian hot paths) --------------------------------


def g1_on_curve(pt) -> bool:
    if pt is None:
        return True
    x, y = pt
    return (y * y - x * x * x - CURVE_B) % P == 0


def _jac_dbl(X, Y, Z):
    if not Y or not Z:
        return (1, 1, 0)
    A = X * X % P
    B = Y * Y % P
    C = B * B % P
    D = 2 * ((X + B) * (X + B) - A - C) % P
    E = 3 * A % P
    X3 = (E * E - 2 * D) % P
    Y3 = (E * (D - X3) - 8 * C) % P
    Z3 = 2 * Y * Z % P
    return (X3, Y3, Z3)


def _jac_add_mixed(X1, Y1, Z1, x2, y2):
    """(X1,Y1,Z1) + affine (x2,y2)."""
    if not Z1:
        return (x2, y2, 1)
    Z1Z1 = Z1 * Z1 % P
    U2 = x2 * Z1Z1 % P
    S2 = y2 * Z1Z1 * Z1 % P
    H = (U2 - X1) % P
    R = (S2 - Y1) % P
    if H == 0:
        if R == 0:
            return _jac_dbl(X1, Y1, Z1)
        return (1, 1, 0)
    HH = H * H % P
    HHH = HH * H % P
    V = X1 * HH % P
    X3 = (R * R - HHH - 2 * V) % P
    Y3 = (R * (V - X3) - Y1 * HHH) % P
    Z3 = Z1 * H % P
    return (X3, Y3, Z3)


def _jac_to_affine(X, Y, Z):
    if not Z:
        return None
    zi = pow(Z, -1, P)
    zi2 = zi * zi % P
    return (X * zi2 % P, Y * zi2 * zi % P)


def g1_neg(pt):
    return None if pt is None else (pt[0], (-pt[1]) % P)


def g1_add(a, b):
    if a is None:
        return b
    if b is None:
        return a
    X, Y, Z = _jac_add_mixed(a[0], a[1], 1, b[0], b[1])
    return _jac_to_affine(X, Y, Z)


def g1_mul(pt, k: int):
    k %= N
    if pt is None or k == 0:
        return None
    neg = (pt[0], (-pt[1]) % P)
    X, Y, Z = 1, 1, 0
    for d in _naf(k):
        X, Y, Z = _jac_dbl(X, Y, Z)
        if d == 1:
            X, Y, Z = _jac_add_mixed(X, Y, Z, pt[0], pt[1])
        elif d == -1:
            X, Y, Z = _jac_add_mixed(X, Y, Z, neg[0], neg[1])
    return _jac_to_affine(X, Y, Z)


_COMB_WINDOWS = (N.bit_length() + 3) // 4
_g1_comb: Optional[PointComb] = None


def g1_mul_gen(k: int):
    """k * g1 through the fixed-base table."""
    global _g1_comb
    if _g1_comb is None:
        _g1_comb = PointComb(
            (G1_X, G1_Y), _COMB_WINDOWS, _jac_add_mixed,
            partial(jacobian_to_affine, p=P), _jac_to_affine, (1, 1, 0),
        )
    return _g1_comb.mul(k % N)


def hash_to_g1(msg: bytes):
    """Deterministic try-and-increment hashing onto G1 (cofactor 1)."""
    for ctr in range(512):
        d = hashlib.sha256(_H2G1_TAG + ctr.to_bytes(2, "big") + msg).digest()
        x = int.from_bytes(d[:20], "big")
        if x >= P:
            continue
        rhs = (x * x * x + CURVE_B) % P
        y = pow(rhs, (P + 1) // 4, P)
        if y * y % P != rhs:
            continue
        if (y & 1) != (d[20] & 1):
            y = P - y
        return (x, y)
    raise RuntimeError("hash_to_g1 exhausted its counter")  # unreachable in practice


def _odd_multiples(bases, w):
    """Per base B, the affine row B, 3B, .., (2^(w-1) - 1)B, then the same
    multiples negated (y -> P - y) in reverse order, so row[d >> 1] is dB for
    every odd digit |d| < 2^(w-1): a negative d indexes from the end.  A None
    base gets no row."""
    live = [b for b in bases if b is not None]
    count = 1 << (w - 2)
    twos = jacobian_to_affine([_jac_dbl(x, y, 1) for x, y in live], P)
    jac = []
    for (x, y), (tx, ty) in zip(live, twos):
        X, Y, Z = x, y, 1
        jac.append((X, Y, Z))
        for _ in range(count - 1):
            X, Y, Z = _jac_add_mixed(X, Y, Z, tx, ty)
            jac.append((X, Y, Z))
    flat = jacobian_to_affine(jac, P)
    signed = iter(
        flat[i : i + count] + [(x, P - y) for x, y in reversed(flat[i : i + count])]
        for i in range(0, len(flat), count)
    )
    return [None if b is None else next(signed) for b in bases]


def _multi_exp(rows, scalars, w):
    """sum k_i * B_i by interleaved width-w NAFs over the rows of
    _odd_multiples: one shared doubling per bit, one mixed addition per
    nonzero digit."""
    if len(scalars) != len(rows):
        raise ValueError("scalar count does not match base count")
    scalars = [s % N for s in scalars]
    mask = (1 << w) - 1
    half = 1 << (w - 1)
    # adds[j]: the table entries added after the doubling for bit j
    adds = [[] for _ in range(max(scalars, default=0).bit_length() + 1)]
    for row, k in zip(rows, scalars):
        if row is None:
            continue
        j = 0
        while k:
            z = (k & -k).bit_length() - 1
            k >>= z
            j += z
            d = k & mask
            if d & half:
                d -= mask + 1
            adds[j].append(row[d >> 1])
            k -= d
    X, Y, Z = 1, 1, 0
    for entries in reversed(adds):
        if Z:
            X, Y, Z = _jac_dbl(X, Y, Z)
        for x, y in entries:
            X, Y, Z = _jac_add_mixed(X, Y, Z, x, y)
    return _jac_to_affine(X, Y, Z)


_CACHED_WINDOW = 8
_ONE_SHOT_WINDOW = 4


class G1MultiExp:
    """Multi-exponentiation over a fixed base set, tables built once.

    Kept per base set (e.g. per network-coding generation) and reused, so
    it takes w = 8: ~18 additions per 160-bit scalar instead of ~32 at w = 4,
    for 64 table entries per base (~15 ms to build for 40 bases).
    g1_multi_exp's tables serve one call, where w = 4 costs least in total.
    """

    def __init__(self, bases):
        self.tables = _odd_multiples(bases, _CACHED_WINDOW)

    def combine(self, scalars):
        return _multi_exp(self.tables, scalars, _CACHED_WINDOW)


def g1_multi_exp(points, scalars):
    return _multi_exp(_odd_multiples(points, _ONE_SHOT_WINDOW), scalars, _ONE_SHOT_WINDOW)


# --- G2 arithmetic (over Fp2) ------------------------------------------------


def g2_on_twist(pt) -> bool:
    if pt is None:
        return True
    x, y = pt
    return f2_sub(f2_sqr(y), f2_add(f2_mul(f2_sqr(x), x), TWIST_B)) == F2_ZERO


def _jac2_dbl(X, Y, Z):
    if Y == F2_ZERO or Z == F2_ZERO:
        return (F2_ONE, F2_ONE, F2_ZERO)
    A = f2_sqr(X)
    B = f2_sqr(Y)
    C = f2_sqr(B)
    D = f2_scal(f2_sub(f2_sub(f2_sqr(f2_add(X, B)), A), C), 2)
    E = f2_scal(A, 3)
    X3 = f2_sub(f2_sqr(E), f2_scal(D, 2))
    Y3 = f2_sub(f2_mul(E, f2_sub(D, X3)), f2_scal(C, 8))
    Z3 = f2_scal(f2_mul(Y, Z), 2)
    return (X3, Y3, Z3)


def _jac2_add_mixed(X1, Y1, Z1, x2, y2):
    if Z1 == F2_ZERO:
        return (x2, y2, F2_ONE)
    Z1Z1 = f2_sqr(Z1)
    U2 = f2_mul(x2, Z1Z1)
    S2 = f2_mul(f2_mul(y2, Z1Z1), Z1)
    H = f2_sub(U2, X1)
    R = f2_sub(S2, Y1)
    if H == F2_ZERO:
        if R == F2_ZERO:
            return _jac2_dbl(X1, Y1, Z1)
        return (F2_ONE, F2_ONE, F2_ZERO)
    HH = f2_sqr(H)
    HHH = f2_mul(HH, H)
    V = f2_mul(X1, HH)
    X3 = f2_sub(f2_sub(f2_sqr(R), HHH), f2_scal(V, 2))
    Y3 = f2_sub(f2_mul(R, f2_sub(V, X3)), f2_mul(Y1, HHH))
    Z3 = f2_mul(Z1, H)
    return (X3, Y3, Z3)


def _jac2_to_affine(X, Y, Z):
    if Z == F2_ZERO:
        return None
    zi = f2_inv(Z)
    zi2 = f2_sqr(zi)
    return (f2_mul(X, zi2), f2_mul(Y, f2_mul(zi2, zi)))


def g2_neg(pt):
    return None if pt is None else (pt[0], f2_neg(pt[1]))


def g2_add(a, b):
    if a is None:
        return b
    if b is None:
        return a
    X, Y, Z = _jac2_add_mixed(a[0], a[1], F2_ONE, b[0], b[1])
    return _jac2_to_affine(X, Y, Z)


def g2_mul(pt, k: int, reduce_mod_n: bool = True):
    if reduce_mod_n:
        k %= N
    if pt is None or k == 0:
        return None
    if k < 0:
        pt = g2_neg(pt)
        k = -k
    neg = g2_neg(pt)
    X, Y, Z = F2_ONE, F2_ONE, F2_ZERO
    for d in _naf(k):
        X, Y, Z = _jac2_dbl(X, Y, Z)
        if d == 1:
            X, Y, Z = _jac2_add_mixed(X, Y, Z, pt[0], pt[1])
        elif d == -1:
            X, Y, Z = _jac2_add_mixed(X, Y, Z, neg[0], neg[1])
    return _jac2_to_affine(X, Y, Z)


def g2_in_subgroup(pt) -> bool:
    """Order-n membership; twist points have cofactor 2p-n, so this matters."""
    if pt is None:
        return True
    if not g2_on_twist(pt):
        return False
    return g2_mul(pt, N, reduce_mod_n=False) is None


def _normalize2(jac):
    """jacobian_to_affine over Fp2: one f2_inv for the whole list."""
    prefix = []
    acc = F2_ONE
    for _, _, Z in jac:
        prefix.append(acc)
        acc = f2_mul(acc, Z)
    inv = f2_inv(acc)
    out = [None] * len(jac)
    for i in range(len(jac) - 1, -1, -1):
        X, Y, Z = jac[i]
        zi = f2_mul(prefix[i], inv)
        inv = f2_mul(inv, Z)
        zi2 = f2_sqr(zi)
        out[i] = (f2_mul(X, zi2), f2_mul(Y, f2_mul(zi2, zi)))
    return out


_g2_comb: Optional[PointComb] = None


def g2_mul_gen(k: int):
    global _g2_comb
    if _g2_comb is None:
        _g2_comb = PointComb(
            (G2_X, G2_Y), _COMB_WINDOWS, _jac2_add_mixed,
            _normalize2, _jac2_to_affine, (F2_ONE, F2_ONE, F2_ZERO),
        )
    return _g2_comb.mul(k % N)


# --- wrapper value types -----------------------------------------------------


def _f2_parity(y) -> int:
    return (y[0] & 1) if y[0] != 0 else (y[1] & 1)


@dataclass(frozen=True)
class G1Point:
    """Affine G1 point or the identity (point = None)."""

    point: Optional[tuple[int, int]]

    SIZE = 21

    def is_identity(self) -> bool:
        return self.point is None

    def add(self, other: "G1Point") -> "G1Point":
        return G1Point(g1_add(self.point, other.point))

    def neg(self) -> "G1Point":
        return G1Point(g1_neg(self.point))

    def mul(self, k: int) -> "G1Point":
        return G1Point(g1_mul(self.point, k))

    def to_bytes(self) -> bytes:
        if self.point is None:
            return b"\x00" * 21
        x, y = self.point
        return bytes([0x02 | (y & 1)]) + x.to_bytes(20, "big")

    @classmethod
    def from_bytes(cls, blob: bytes) -> "G1Point":
        if len(blob) != 21:
            raise ValueError("compressed G1 point must be 21 bytes")
        if blob == b"\x00" * 21:
            return cls(None)
        flag = blob[0]
        if flag not in (0x02, 0x03):
            raise ValueError("bad G1 compression flag")
        x = int.from_bytes(blob[1:], "big")
        if x >= P:
            raise ValueError("G1 x-coordinate out of range")
        rhs = (x * x * x + CURVE_B) % P
        y = pow(rhs, (P + 1) // 4, P)
        if y * y % P != rhs:
            raise ValueError("not a curve point")
        if (y & 1) != (flag & 1):
            y = P - y
        return cls((x, y))


@dataclass(frozen=True)
class G2Point:
    """Affine point in the order-n subgroup of the twist, or the identity."""

    point: Optional[tuple[tuple[int, int], tuple[int, int]]]

    SIZE = 41

    def is_identity(self) -> bool:
        return self.point is None

    def add(self, other: "G2Point") -> "G2Point":
        return G2Point(g2_add(self.point, other.point))

    def mul(self, k: int) -> "G2Point":
        return G2Point(g2_mul(self.point, k))

    def to_bytes(self) -> bytes:
        if self.point is None:
            return b"\x00" * 41
        x, y = self.point
        return (
            bytes([0x02 | _f2_parity(y)])
            + x[0].to_bytes(20, "big")
            + x[1].to_bytes(20, "big")
        )

    @classmethod
    def from_bytes(cls, blob: bytes, check_subgroup: bool = True) -> "G2Point":
        if len(blob) != 41:
            raise ValueError("compressed G2 point must be 41 bytes")
        if blob == b"\x00" * 41:
            return cls(None)
        flag = blob[0]
        if flag not in (0x02, 0x03):
            raise ValueError("bad G2 compression flag")
        x = (int.from_bytes(blob[1:21], "big"), int.from_bytes(blob[21:], "big"))
        if x[0] >= P or x[1] >= P:
            raise ValueError("G2 x-coordinate out of range")
        rhs = f2_add(f2_mul(f2_sqr(x), x), TWIST_B)
        y = f2_sqrt(rhs)
        if y is None:
            raise ValueError("not a twist point")
        if _f2_parity(y) != (flag & 1):
            y = f2_neg(y)
        pt = (x, y)
        if check_subgroup and not g2_in_subgroup(pt):
            raise ValueError("twist point outside the order-n subgroup")
        return cls(pt)


def g1_generator() -> G1Point:
    return G1Point((G1_X, G1_Y))


def g2_generator() -> G2Point:
    return G2Point((G2_X, G2_Y))
