"""Integer and group-arithmetic helpers shared by the crypto modules: the
primality test, the signed-digit recoder wnaf, the curve group record
CurveOps and the fixed-base comb Comb."""

import hashlib
import random
from typing import Callable, NamedTuple

_SMALL_PRIMES = [p for p in range(2, 2000) if all(p % d for d in range(2, p))]

_sysrand = random.SystemRandom()
MILLER_RABIN_ROUNDS = 40


def is_probable_prime(n: int, rng=None) -> bool:
    """Miller-Rabin with trial division; error probability <= 4^-40."""
    if n < 2:
        return False
    for sp in _SMALL_PRIMES:
        if n == sp:
            return True
        if n % sp == 0:
            return False
    rng = rng or _sysrand
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for _ in range(MILLER_RABIN_ROUNDS):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(bits: int, rng=None) -> int:
    """Random prime with the top bit set (exact bit length)."""
    rng = rng or _sysrand
    while True:
        cand = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(cand, rng=rng):
            return cand


def i2osp(x: int, length: int) -> bytes:
    return x.to_bytes(length, "big")


def os2ip(data: bytes) -> int:
    return int.from_bytes(data, "big")


def wnaf(k: int, w: int) -> list[tuple[int, int]]:
    """The width-w non-adjacent form of k >= 0, sparse: its nonzero digits as
    (position, digit) pairs, least significant first, with k = sum of
    digit * 2^position.  Every digit is odd with |digit| < 2^(w-1), and
    positions are at least w apart; w = 2 is the plain NAF."""
    mask = (1 << w) - 1
    half = 1 << (w - 1)
    pairs = []
    j = 0
    while k:
        z = (k & -k).bit_length() - 1
        k >>= z
        j += z
        d = k & mask
        if d & half:
            d -= mask + 1
        pairs.append((j, d))
        k -= d
    return pairs


def mgf1(seed: bytes, length: int) -> bytes:
    """PKCS#1's mask generation function over SHA-256: counter-mode hashing."""
    blocks = range((length + 31) // 32)
    return b"".join(hashlib.sha256(seed + i.to_bytes(4, "big")).digest() for i in blocks)[:length]


class CurveOps(NamedTuple):
    """One elliptic-curve group, as the scalar-multiplication engines see it.

    Points are affine (x, y) tuples with None for the identity, or Jacobian
    (X, Y, Z) with the identity at Z = 0; coordinates are ints for F_p or
    pairs for F_p2.  dbl(X, Y, Z) doubles and add_mixed(X, Y, Z, x, y) adds
    an affine point to a Jacobian one; normalize maps a list of Jacobian
    points, none the identity, to affine with a single inversion.  neg
    negates a y-coordinate, and identity is (one, one, zero) of the
    coordinate field.
    """

    dbl: Callable
    add_mixed: Callable
    normalize: Callable
    neg: Callable
    identity: tuple

    def to_affine(self, X, Y, Z):
        """One Jacobian point to affine, None for the identity."""
        return None if Z == self.identity[2] else self.normalize([(X, Y, Z)])[0]

    def add(self, a, b):
        """a + b on affine points."""
        return self.fold([pt for pt in (a, b) if pt is not None])

    def fold(self, points):
        """The sum of a list of affine points, none the identity: a Jacobian
        sum of mixed additions and one conversion back to affine."""
        add = self.add_mixed
        X, Y, Z = self.identity
        for x, y in points:
            X, Y, Z = add(X, Y, Z, x, y)
        return self.to_affine(X, Y, Z)

    def multiples(self, base, count: int):
        """base, 2 base, .., count * base, affine, with one inversion; none of
        them may be the identity."""
        add, (x, y) = self.add_mixed, base
        jac = [(x, y, self.identity[0])]
        for _ in range(count - 1):
            jac.append(add(*jac[-1], x, y))
        return self.normalize(jac)

    def negate(self, pt):
        return None if pt is None else (pt[0], self.neg(pt[1]))


def jacobian_ops(p: int, a: int) -> CurveOps:
    """The group y^2 = x^3 + ax + b over F_p, for a = 0 and a = -3.  The
    formulas are from Bernstein-Lange's Explicit-Formulas Database: doubling
    by dbl-2009-l (a = 0) or dbl-2001-b (a = -3), and mixed addition by
    madd-2004-hmv, falling back to doubling on equal inputs.  normalize is
    Montgomery's trick: invert the product of the Zs, then peel off one Z at
    a time.
    """
    if a % p == 0:

        def dbl(X, Y, Z):
            if not Y or not Z:
                return (1, 1, 0)
            A = X * X % p
            B = Y * Y % p
            C = B * B % p
            D = 2 * ((X + B) * (X + B) - A - C) % p
            E = 3 * A % p
            X3 = (E * E - 2 * D) % p
            Y3 = (E * (D - X3) - 8 * C) % p
            return (X3, Y3, 2 * Y * Z % p)

    elif a % p == p - 3:

        def dbl(X, Y, Z):
            if not Y or not Z:
                return (1, 1, 0)
            ZZ = Z * Z % p
            M = 3 * (X - ZZ) * (X + ZZ) % p  # 3X^2 + aZ^4 with a = -3
            YY = Y * Y % p
            S = 4 * X * YY % p
            X3 = (M * M - 2 * S) % p
            Y3 = (M * (S - X3) - 8 * YY * YY) % p
            return (X3, Y3, 2 * Y * Z % p)

    else:
        raise ValueError("Jacobian formulas cover a = 0 and a = -3 only")

    def add_mixed(X1, Y1, Z1, x2, y2):
        if not Z1:
            return (x2, y2, 1)
        Z1Z1 = Z1 * Z1 % p
        U2 = x2 * Z1Z1 % p
        S2 = y2 * Z1Z1 * Z1 % p
        H = (U2 - X1) % p
        R = (S2 - Y1) % p
        if H == 0:
            if R == 0:
                return dbl(X1, Y1, Z1)
            return (1, 1, 0)
        HH = H * H % p
        HHH = HH * H % p
        V = X1 * HH % p
        X3 = (R * R - HHH - 2 * V) % p
        Y3 = (R * (V - X3) - Y1 * HHH) % p
        return (X3, Y3, Z1 * H % p)

    def normalize(points):
        prefix = []
        acc = 1
        for _, _, Z in points:
            prefix.append(acc)
            acc = acc * Z % p
        inv = pow(acc, -1, p)
        out = [None] * len(points)
        for i in range(len(points) - 1, -1, -1):
            X, Y, Z = points[i]
            zi = prefix[i] * inv % p
            inv = inv * Z % p
            zi2 = zi * zi % p
            out[i] = (X * zi2 % p, Y * zi2 * zi % p)
        return out

    return CurveOps(dbl, add_mixed, normalize, lambda y: -y % p, (1, 1, 0))


class Comb:
    """Fixed-base multiplication by a radix-16 comb (Brickell-Gordon-
    McCurley-Wilson): row j holds d * 16^j * base for d = 1..15, so a scalar
    costs one group operation per nonzero nibble and no doublings.  Only
    worth building for long-lived bases: generators and verification keys.

    The group record gives multiples(b, m), the list b, 2b, .., m*b as rows
    store it, and fold(entries), the sum of a list of entries: a CurveOps,
    or dlgroup's record for Z_p*, where multiples are powers and the fold a
    product.
    """

    def __init__(self, group, base, windows: int):
        self.group = group
        self.rows = []
        for _ in range(windows):
            *row, base = group.multiples(base, 16)
            self.rows.append(row)

    def mul(self, k: int):
        """k * base for 0 <= k < 16^windows: one pass over k's nibbles
        collects an entry per nonzero nibble, and the record folds them."""
        if k < 0:
            raise ValueError("negative scalar")
        rows = self.rows
        picked = []
        j = 0
        while k:
            d = k & 15
            if d:
                picked.append(rows[j][d - 1])
            k >>= 4
            j += 1
        return self.group.fold(picked)
