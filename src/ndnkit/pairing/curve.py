"""BN-160 curve groups.

G1: E(Fp): y^2 = x^3 + 2, prime order n (cofactor 1).
G2: order-n subgroup of the D-type sextic twist E'(Fp2): y^2 = x^3 + 2/xi,
    twist cofactor 2p - n.

Affine points are coordinate tuples (None is the identity); scalar
multiplication runs in Jacobian coordinates.  Each group is one
intmath.CurveOps record, G1 and G2, and the engines below take the record.
The G2 generator carries a radix-16 comb table (intmath.Comb), so BLS and
network-coding key generation costs ~40 mixed additions.  No G1 product
has a fixed base worth a table: server-aided verification blinds with
delta sigma + r g1, one two-base g1_multi_exp of 80-bit scalars.

Sums k_1 B_1 + ... + k_n B_n run on one engine: width-w NAF digits
(intmath.wnaf: odd, within +-2^(w-1)) pick entries of per-base affine
tables of odd multiples, over one run of doublings shared by all bases.
g1_multi_exp uses its tables once and takes w = 4; G1MultiExp keeps them
and takes w = 8.
Variable-base g1_mul (BLS signing, nc_sign) is a two-base sum
on the same engine: the GLV endomorphism phi(x, y) = (beta x, y) = [lambda]P
splits the scalar into two halves below 2^80, halving the doublings.

g2_mul is a one-base sum on the same engine over the G2 record.  Subgroup
membership tests psi(Q) = [6x^2]Q with the twisted Frobenius psi (also the
Miller loop's correction steps), a 78-bit multiplication instead of [n]Q.

Generator provenance: g1 is the smallest-x curve point; g2 is the first
twist point with x = (k, 1), k = 1, 2, ..., cleared by the twist cofactor.
Both values are pinned as integers and re-checked by the test suite.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from ..intmath import Comb, CurveOps, jacobian_ops, wnaf
from .fields import (
    F2_ONE,
    F2_ZERO,
    GAMMA1,
    N,
    P,
    X_PARAM,
    XI,
    f2_add,
    f2_conj,
    f2_inv,
    f2_mul,
    f2_neg,
    f2_sqr,
    f2_sqrt,
    f2_sub,
)

FIELD_PRIME = P
CURVE_ORDER = N
CURVE_B = 2
# twist coefficient 2/xi = 2*(1-i)/2 = 1 - i
TWIST_B = f2_mul((CURVE_B, 0), f2_inv(XI))

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


G1 = jacobian_ops(P, 0)


def _g1_lift(x: int, parity: int):
    """The G1 point over 0 <= x < P whose y has the given parity, or None
    when x^3 + b is not a square (P = 3 mod 4, so a root is a power)."""
    rhs = (x * x * x + CURVE_B) % P
    y = pow(rhs, (P + 1) // 4, P)
    if y * y % P != rhs:
        return None
    return (x, y if (y & 1) == parity else P - y)


def hash_to_g1(msg: bytes):
    """Deterministic try-and-increment hashing onto G1 (cofactor 1)."""
    for ctr in range(512):
        d = hashlib.sha256(_H2G1_TAG + ctr.to_bytes(2, "big") + msg).digest()
        x = int.from_bytes(d[:20], "big")
        pt = _g1_lift(x, d[20] & 1) if x < P else None
        if pt is not None:
            return pt
    raise RuntimeError("hash_to_g1 exhausted its counter")  # unreachable in practice


def _odd_multiples(ops: CurveOps, bases, w):
    """Per base B, the affine row B, 3B, .., (2^(w-1) - 1)B, then the same
    multiples negated in reverse order, so row[d >> 1] is dB for every odd
    digit |d| < 2^(w-1): a negative d indexes from the end.  A None base
    gets no row.  No multiple jB with 1 <= j < 2^(w-1) may be the identity,
    which holds for every point of G1 and of the twist."""
    live = [b for b in bases if b is not None]
    count = 1 << (w - 2)
    dbl, add, one, neg = ops.dbl, ops.add_mixed, ops.identity[0], ops.neg
    twos = ops.normalize([dbl(x, y, one) for x, y in live])
    jac = []
    for (x, y), (tx, ty) in zip(live, twos):
        X, Y, Z = x, y, one
        jac.append((X, Y, Z))
        for _ in range(count - 1):
            X, Y, Z = add(X, Y, Z, tx, ty)
            jac.append((X, Y, Z))
    flat = ops.normalize(jac)
    signed = iter(
        flat[i : i + count] + [(x, neg(y)) for x, y in reversed(flat[i : i + count])]
        for i in range(0, len(flat), count)
    )
    return [None if b is None else next(signed) for b in bases]


def _multi_exp(ops: CurveOps, rows, scalars, w):
    """sum k_i * B_i by interleaved width-w NAFs over the rows of
    _odd_multiples: one shared doubling per bit, one mixed addition per
    nonzero digit.  Scalars are taken mod n, the order of G1 and G2."""
    if len(scalars) != len(rows):
        raise ValueError("scalar count does not match base count")
    scalars = [s % N for s in scalars]
    # adds[j]: the table entries added after the doubling for bit j
    adds = [[] for _ in range(max(scalars, default=0).bit_length() + 1)]
    for row, k in zip(rows, scalars):
        if row is not None:
            for j, d in wnaf(k, w):
                adds[j].append(row[d >> 1])
    dbl, add = ops.dbl, ops.add_mixed
    X, Y, Z = ops.identity
    for entries in reversed(adds):
        if Z:
            X, Y, Z = dbl(X, Y, Z)
        for x, y in entries:
            X, Y, Z = add(X, Y, Z, x, y)
    return ops.to_affine(X, Y, Z)


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
        self.tables = _odd_multiples(G1, bases, _CACHED_WINDOW)

    def combine(self, scalars):
        return _multi_exp(G1, self.tables, scalars, _CACHED_WINDOW)


def g1_multi_exp(points, scalars):
    return _multi_exp(G1, _odd_multiples(G1, points, _ONE_SHOT_WINDOW), scalars, _ONE_SHOT_WINDOW)


# GLV (Gallant-Lambert-Vanstone, CRYPTO 2001): phi(x, y) = (beta x, y) is
# [lambda] on G1, and k = k1 + k2 lambda (mod n) with |k1|, |k2| < 2^80 by
# Babai rounding against a reduced basis of {(a, b): a + b lambda = 0 mod n}:
# v1 = (-(2x+1), 6x^2+2x), v2 = (6x^2+4x+1, 2x+1), determinant -n.
GLV_BETA = (18 * X_PARAM**3 + 18 * X_PARAM**2 + 9 * X_PARAM + 1) % P
GLV_LAMBDA = (36 * X_PARAM**3 + 18 * X_PARAM**2 + 6 * X_PARAM + 1) % N
_V_SHORT = 2 * X_PARAM + 1
_V_LONG = 6 * X_PARAM**2 + 2 * X_PARAM


def glv_split(k: int) -> tuple[int, int]:
    """(k1, k2) with k1 + k2 * GLV_LAMBDA = k (mod n), both below 2^80 in
    absolute value for 0 <= k < n."""
    r1 = (2 * k * _V_SHORT + N) // (2 * N)
    r2 = (2 * k * _V_LONG + N) // (2 * N)
    return (
        k - r1 * _V_SHORT - r2 * (_V_LONG + _V_SHORT),
        r1 * _V_LONG - r2 * _V_SHORT,
    )


def g1_mul(pt, k: int):
    """k * pt as k1 * pt + k2 * phi(pt) over ~80 shared doublings.  phi's row
    of odd multiples is pt's with x scaled by beta, and a negative half takes
    its row reversed, which is the row of the negated base."""
    k %= N
    if pt is None or k == 0:
        return None
    k1, k2 = glv_split(k)
    row = _odd_multiples(G1, [pt], _ONE_SHOT_WINDOW)[0]
    phi_row = [(GLV_BETA * x % P, y) for x, y in row]
    if k1 < 0:
        row, k1 = row[::-1], -k1
    if k2 < 0:
        phi_row, k2 = phi_row[::-1], -k2
    return _multi_exp(G1, [row, phi_row], [k1, k2], _ONE_SHOT_WINDOW)


# --- G2 arithmetic (over Fp2) ------------------------------------------------


def g2_on_twist(pt) -> bool:
    if pt is None:
        return True
    x, y = pt
    return f2_sub(f2_sqr(y), f2_add(f2_mul(f2_sqr(x), x), TWIST_B)) == F2_ZERO


# The Jacobian formulas of intmath.jacobian_ops (dbl-2009-l, madd-2004-hmv)
# over Fp2 = Fp[i]/(i^2 + 1), written out on the coordinate pairs:
# (a0 + a1 i)(b0 + b1 i) = (a0 b0 - a1 b1) + (a0 b1 + a1 b0) i.


def _jac2_dbl(X, Y, Z):
    if Y == F2_ZERO or Z == F2_ZERO:
        return (F2_ONE, F2_ONE, F2_ZERO)
    x0, x1 = X
    y0, y1 = Y
    z0, z1 = Z
    a0, a1 = (x0 + x1) * (x0 - x1) % P, 2 * x0 * x1 % P  # A = X^2
    b0, b1 = (y0 + y1) * (y0 - y1) % P, 2 * y0 * y1 % P  # B = Y^2
    c0, c1 = (b0 + b1) * (b0 - b1) % P, 2 * b0 * b1 % P  # C = B^2
    s0, s1 = x0 + b0, x1 + b1
    d0 = 2 * ((s0 + s1) * (s0 - s1) - a0 - c0) % P  # D = 2((X + B)^2 - A - C)
    d1 = 2 * (2 * s0 * s1 - a1 - c1) % P
    e0, e1 = 3 * a0, 3 * a1  # E = 3A
    n0 = ((e0 + e1) * (e0 - e1) - 2 * d0) % P  # X3 = E^2 - 2D
    n1 = (2 * e0 * e1 - 2 * d1) % P
    u0, u1 = d0 - n0, d1 - n1
    return (
        (n0, n1),
        ((e0 * u0 - e1 * u1 - 8 * c0) % P, (e0 * u1 + e1 * u0 - 8 * c1) % P),  # E(D - X3) - 8C
        (2 * (y0 * z0 - y1 * z1) % P, 2 * (y0 * z1 + y1 * z0) % P),  # 2YZ
    )


def _jac2_add_mixed(X1, Y1, Z1, x2, y2):
    if Z1 == F2_ZERO:
        return (x2, y2, F2_ONE)
    a0, a1 = X1
    b0, b1 = Y1
    c0, c1 = Z1
    zz0, zz1 = (c0 + c1) * (c0 - c1) % P, 2 * c0 * c1 % P  # Z1^2
    t0, t1 = (zz0 * c0 - zz1 * c1) % P, (zz0 * c1 + zz1 * c0) % P  # Z1^3
    p0, p1 = x2
    q0, q1 = y2
    h0 = (p0 * zz0 - p1 * zz1 - a0) % P  # H = x2 Z1^2 - X1
    h1 = (p0 * zz1 + p1 * zz0 - a1) % P
    r0 = (q0 * t0 - q1 * t1 - b0) % P  # R = y2 Z1^3 - Y1
    r1 = (q0 * t1 + q1 * t0 - b1) % P
    if not (h0 or h1):
        if not (r0 or r1):
            return _jac2_dbl(X1, Y1, Z1)
        return (F2_ONE, F2_ONE, F2_ZERO)
    hh0, hh1 = (h0 + h1) * (h0 - h1) % P, 2 * h0 * h1 % P  # H^2
    g0, g1 = (hh0 * h0 - hh1 * h1) % P, (hh0 * h1 + hh1 * h0) % P  # H^3
    v0, v1 = (a0 * hh0 - a1 * hh1) % P, (a0 * hh1 + a1 * hh0) % P  # V = X1 H^2
    n0 = ((r0 + r1) * (r0 - r1) - g0 - 2 * v0) % P  # X3 = R^2 - H^3 - 2V
    n1 = (2 * r0 * r1 - g1 - 2 * v1) % P
    w0, w1 = v0 - n0, v1 - n1
    return (
        (n0, n1),
        (
            (r0 * w0 - r1 * w1 - b0 * g0 + b1 * g1) % P,  # R(V - X3) - Y1 H^3
            (r0 * w1 + r1 * w0 - b0 * g1 - b1 * g0) % P,
        ),
        ((c0 * h0 - c1 * h1) % P, (c0 * h1 + c1 * h0) % P),  # Z1 H
    )


def _normalize2(jac):
    """G1's normalize over Fp2: one inversion for the whole list.  Written
    out like _jac2_*, since with the f2 helpers g2_mul's two row
    normalizations cost about 3% more of a checked G2 decode."""
    prefix = []
    a0, a1 = 1, 0
    for _, _, (z0, z1) in jac:
        prefix.append((a0, a1))
        a0, a1 = (a0 * z0 - a1 * z1) % P, (a0 * z1 + a1 * z0) % P
    d = pow(a0 * a0 + a1 * a1, -1, P)
    i0, i1 = a0 * d % P, -a1 * d % P  # 1 / (Z_0 Z_1 ... Z_last)
    out = [None] * len(jac)
    for k in range(len(jac) - 1, -1, -1):
        (x0, x1), (y0, y1), (z0, z1) = jac[k]
        p0, p1 = prefix[k]
        s0, s1 = (p0 * i0 - p1 * i1) % P, (p0 * i1 + p1 * i0) % P  # 1 / Z_k
        i0, i1 = (i0 * z0 - i1 * z1) % P, (i0 * z1 + i1 * z0) % P
        t0, t1 = (s0 + s1) * (s0 - s1) % P, 2 * s0 * s1 % P  # 1 / Z_k^2
        c0, c1 = (t0 * s0 - t1 * s1) % P, (t0 * s1 + t1 * s0) % P  # 1 / Z_k^3
        out[k] = (
            ((x0 * t0 - x1 * t1) % P, (x0 * t1 + x1 * t0) % P),
            ((y0 * c0 - y1 * c1) % P, (y0 * c1 + y1 * c0) % P),
        )
    return out


def _add_pairs2(pairs):
    """CurveOps.add_pairs over Fp2, as mixed additions to Z = 1 and one
    normalization: only the generator's table uses it, built once."""
    return _normalize2([_jac2_add_mixed(*pt, F2_ONE, *q) for pt, q in pairs])


G2 = CurveOps(
    _jac2_dbl, _jac2_add_mixed, _normalize2, _add_pairs2, f2_neg, (F2_ONE, F2_ONE, F2_ZERO)
)


def g2_mul(pt, k: int):
    """k * pt for any twist point pt: the twist cofactor's least prime factor
    is 2017, so no entry of pt's row of odd multiples is the identity."""
    return _multi_exp(G2, _odd_multiples(G2, [pt], _ONE_SHOT_WINDOW), [k], _ONE_SHOT_WINDOW)


# psi = untwist, p-power Frobenius, twist:
# (x, y) -> (conj(x) xi^((p-1)/3), conj(y) xi^((p-1)/2))
_PSI_CX = GAMMA1[2]
_PSI_CY = GAMMA1[3]
# psi acts on G2 as [p] = [p - n] = [6x^2]
PSI_EIGENVALUE = 6 * X_PARAM**2


def g2_psi(pt):
    x, y = pt
    return (f2_mul(f2_conj(x), _PSI_CX), f2_mul(f2_conj(y), _PSI_CY))


def g2_in_subgroup(pt) -> bool:
    """Order-n membership; twist points have cofactor 2p-n, so this matters.

    psi satisfies psi^2 - t psi + p = 0 on the whole twist (t = 6x^2 + 1),
    so psi(Q) = [c]Q with c = 6x^2 gives [c^2 - t c + p]Q = [n]Q = 0
    (El Housni-Guillevic-Piellard, AFRICACRYPT 2022): a 78-bit
    multiplication instead of one by n.
    """
    if pt is None:
        return True
    if not g2_on_twist(pt):
        return False
    return g2_psi(pt) == g2_mul(pt, PSI_EIGENVALUE)


@lru_cache(maxsize=1)
def _gen_comb() -> Comb:
    """The radix-16 table of g2, built on first use."""
    return Comb(G2, (G2_X, G2_Y), N.bit_length(), 4)


def g2_mul_gen(k: int):
    """k * g2 through the fixed-base table."""
    return _gen_comb().mul(k % N)


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
        return G1Point(G1.add(self.point, other.point))

    def neg(self) -> "G1Point":
        return G1Point(G1.negate(self.point))

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
        pt = _g1_lift(x, flag & 1)
        if pt is None:
            raise ValueError("not a curve point")
        return cls(pt)


@dataclass(frozen=True)
class G2Point:
    """Affine point in the order-n subgroup of the twist, or the identity."""

    point: Optional[tuple[tuple[int, int], tuple[int, int]]]

    SIZE = 41

    def is_identity(self) -> bool:
        return self.point is None

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
