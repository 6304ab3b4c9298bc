"""BN-160 curve groups.

G1: E(Fp): y^2 = x^3 + 2, prime order n (cofactor 1).
G2: order-n subgroup of the D-type sextic twist E'(Fp2): y^2 = x^3 + 2/xi,
    twist cofactor 2p - n.

Affine points are coordinate tuples (None is the identity).  Each group is
one intmath.CurveOps record, G1 and G2, and the engines below take the
record.  G1's runs in Jacobian coordinates (intmath.jacobian_ops); G2's is
affine, built on the chord and tangent (g2_chord, g2_tangent) whose slopes
are also the Miller loop's lines, so the twist's group law is written once.
The G2 generator carries a radix-16 comb table (intmath.Comb), so BLS and
network-coding key generation costs ~40 affine additions.  No G1 product
has a fixed base worth a table: server-aided verification blinds with
delta sigma + r g1, one two-base g1_multi_exp of 80-bit scalars.

Sums k_1 B_1 + ... + k_n B_n run on one engine: width-w NAF digits
(intmath.wnaf: odd, within +-2^(w-1)) pick entries of per-base affine
tables of odd multiples, and the record's sum_bits (intmath.CurveOps)
adds them up: the entries that land on each bit are summed pairwise in
affine rounds, each one add_pairs call (one inversion) across all bits,
and one run of doublings then adds what is left of each bit.  The same
routine is every record's fold, so comb walks and aggregates sum that way.
Every G1 sum splits a scalar of more than 80 bits into its two GLV halves
(the endomorphism phi(x, y) = (beta x, y) = [lambda]P), so ~80 doublings
serve 160-bit scalars; phi's entries are the base's with x scaled by beta,
derived in each call and never stored.  g1_multi_exp uses its tables once and takes w = 4;
G1MultiExp keeps them and takes w = 8.  g1_mul (BLS signing, nc_sign) is
the one-base sum.

g2_mul is a one-base sum on the same engine over the G2 record, at w = 3;
each of its doublings and additions pays an Fp inversion.  Subgroup
membership tests psi(Q) = [6x^2]Q with the twisted Frobenius psi
(also the Miller loop's correction steps), a 78-bit multiplication instead
of [n]Q.

Generator provenance: g1 is the smallest-x curve point; g2 is the first
twist point with x = (k, 1), k = 1, 2, ..., cleared by the twist cofactor.
Both values are pinned as integers and re-checked by the test suite.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from ..intmath import Comb, CurveOps, invert_all, jacobian_ops, wnaf
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
    gets no row.  Each step appends row[-1] + 2B to every row through
    add_pairs, so the rows cost 2^(w-2) inversions in all, whatever the
    base count.  No multiple jB with 1 <= j < 2^(w-1) may be the identity,
    which holds for every point of G1 and of the twist."""
    live = [b for b in bases if b is not None]
    twos = ops.normalize([ops.dbl(x, y, ops.identity[0]) for x, y in live])
    rows = [[b] for b in live]
    for _ in range((1 << (w - 2)) - 1):
        for row, pt in zip(rows, ops.add_pairs([(row[-1], t) for row, t in zip(rows, twos)])):
            row.append(pt)
    neg = ops.neg
    signed = iter(row + [(x, neg(y)) for x, y in reversed(row)] for row in rows)
    return [None if b is None else next(signed) for b in bases]


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


def _multi_exp(ops: CurveOps, rows, scalars, w, glv=False):
    """sum k_i * B_i by interleaved width-w NAFs over the rows of
    _odd_multiples.  Scalars are taken mod n, the order of G1 and G2.

    With glv (G1 only), a scalar of more than 80 bits is taken as its
    glv_split halves k1 + k2 lambda, and k2's digits pick entries of the
    same row with x scaled by beta: phi's row, never stored.  A row with
    fewer entries than a half has digits (w = 4) is scaled once, a longer
    one (w = 8) entry by entry as digits pick them.  A negative half walks
    its row reversed, the negated base's row.  The entries that land on
    each bit go to ops.sum_bits: affine rounds, then one run of doublings
    and mixed additions."""
    if len(scalars) != len(rows):
        raise ValueError("scalar count does not match base count")
    scalars = [k % N for k in scalars]
    # adds[j]: the table entries added after the doubling for bit j; every
    # G1 scalar or GLV half is below 2^80
    adds = [[] for _ in range(81 if glv else max(scalars, default=0).bit_length() + 1)]
    for row, k in zip(rows, scalars):
        if row is None:
            continue
        k1, k2 = glv_split(k) if glv and k >> 80 else (k, 0)
        for half, phi in ((k1, False), (k2, True)):
            picks = row[::-1] if half < 0 else row
            if phi and half and len(row) < 80 // (w + 1):
                picks, phi = [(GLV_BETA * x % P, y) for x, y in picks], False
            if phi:
                for j, d in wnaf(abs(half), w):
                    x, y = picks[d >> 1]
                    adds[j].append((GLV_BETA * x % P, y))
            else:
                for j, d in wnaf(abs(half), w):
                    adds[j].append(picks[d >> 1])
    return ops.sum_bits(adds)


_CACHED_WINDOW = 8
_ONE_SHOT_WINDOW = 4
# g2_mul's one scalar in use is the membership test's 6x^2: 13 digits at
# w = 3 against 12 at w = 4 and 20 at w = 2.  On the affine G2 record every
# step pays an inversion, and over 41 interleaved rounds in process (one CPU
# of a 2-vCPU Xeon VM, Python 3.11) w = 4 took 1.035x and w = 2 1.081x the
# time of w = 3: the row's two extra add_pairs steps cost more than the
# addition they save.
_G2_WINDOW = 3


class G1MultiExp:
    """Multi-exponentiation over a fixed base set, tables built once.

    Kept per base set (e.g. per network-coding generation) and reused, so
    it takes w = 8: a 160-bit scalar's two GLV halves pick ~18 entries in
    all instead of ~32 at w = 4, from 64 odd multiples per base (~10 ms to
    build for 40 bases).  phi's entries are derived on use, so the table
    holds each base's row once.  g1_multi_exp's tables serve one call,
    where w = 4 costs least in total.
    """

    def __init__(self, bases):
        self.tables = _odd_multiples(G1, bases, _CACHED_WINDOW)

    def combine(self, scalars):
        return _multi_exp(G1, self.tables, scalars, _CACHED_WINDOW, glv=True)


def g1_multi_exp(points, scalars):
    rows = _odd_multiples(G1, points, _ONE_SHOT_WINDOW)
    return _multi_exp(G1, rows, scalars, _ONE_SHOT_WINDOW, glv=True)


def g1_mul(pt, k: int):
    """k * pt, the one-base sum.  It calls the engine itself, not
    g1_multi_exp, so that a traced g1_multi_exp counts only its callers."""
    rows = _odd_multiples(G1, [pt], _ONE_SHOT_WINDOW)
    return _multi_exp(G1, rows, [k], _ONE_SHOT_WINDOW, glv=True)


# --- G2 arithmetic (over Fp2) ------------------------------------------------


def g2_on_twist(pt) -> bool:
    if pt is None:
        return True
    x, y = pt
    return f2_sub(f2_sqr(y), f2_add(f2_mul(f2_sqr(x), x), TWIST_B)) == F2_ZERO


def _g2_third(lam, p, x2):
    """p + q for the line of slope lam through p and a point q with
    x-coordinate x2: the line's third twist point, reflected."""
    x1, y1 = p
    x3 = f2_sub(f2_sub(f2_sqr(lam), x1), x2)
    return x3, f2_sub(f2_mul(lam, f2_sub(x1, x3)), y1)


def g2_tangent(p):
    """(slope, 2p) of the tangent at an affine twist point p.  The twist has
    odd order, so no point has y = 0."""
    x, y = p
    lam = f2_mul(f2_scal(f2_sqr(x), 3), f2_inv(f2_scal(y, 2)))
    return lam, _g2_third(lam, p, x)


def g2_chord(p, q, inv_dx=None):
    """(slope, p + q) of the chord through affine twist points p != +-q;
    inv_dx is 1 / (x_q - x_p) when the caller has it from a batch."""
    if inv_dx is None:
        inv_dx = f2_inv(f2_sub(q[0], p[0]))
    lam = f2_mul(f2_sub(q[1], p[1]), inv_dx)
    return lam, _g2_third(lam, p, q[0])


# The G2 record is affine, on the chord and tangent: a point is (x, y, 1)
# and the identity (1, 1, 0), coordinates in Fp2.  Each doubling and
# addition pays an Fp inversion that Jacobian formulas would trade for more
# products (Lauter-Montgomery-Naehrig, Pairing 2010, weigh the two by the
# cost of inversion); in exchange the twist's group law is written once.
# add_pairs inverts every x-difference d as conj(d) / |d|^2, and the norms,
# nonzero for d != 0 since P = 3 mod 4, share one invert_all.
_G2_ID = (F2_ONE, F2_ONE, F2_ZERO)


def _g2_dbl(x, y, z):
    return _G2_ID if z == F2_ZERO else (*g2_tangent((x, y))[1], F2_ONE)


def _g2_add_mixed(x1, y1, z1, x2, y2):
    if z1 == F2_ZERO:
        return (x2, y2, F2_ONE)
    if x1 == x2:
        return _g2_dbl(x1, y1, z1) if y1 == y2 else _G2_ID
    return (*g2_chord((x1, y1), (x2, y2))[1], F2_ONE)


def _g2_add_pairs(pairs):
    dxs = [f2_sub(q[0], p[0]) for p, q in pairs]
    inv_norms = invert_all([d0 * d0 + d1 * d1 for d0, d1 in dxs], P)
    return [
        g2_chord(p, q, (d0 * t % P, -d1 * t % P))[1]
        for (p, q), (d0, d1), t in zip(pairs, dxs, inv_norms)
    ]


class _AffineOps(CurveOps):
    __slots__ = ()
    fold_pairs = 1  # each add_mixed pays an inversion, so any round repays its own


G2 = _AffineOps(
    _g2_dbl, _g2_add_mixed, lambda pts: [pt[:2] for pt in pts], _g2_add_pairs, f2_neg, _G2_ID
)


def g2_mul(pt, k: int):
    """k * pt for any twist point pt: the twist cofactor's least prime factor
    is 2017, so no entry of pt's row of odd multiples is the identity."""
    return _multi_exp(G2, _odd_multiples(G2, [pt], _G2_WINDOW), [k], _G2_WINDOW)


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
