"""Integer and modular-arithmetic helpers shared by the crypto modules."""

import hashlib
import random
from typing import Callable, NamedTuple

_SMALL_PRIMES = [p for p in range(3, 2000) if all(p % d for d in range(2, p))]

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
        if a is None:
            return b
        if b is None:
            return a
        return self.to_affine(*self.add_mixed(a[0], a[1], self.identity[0], b[0], b[1]))

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


class CombTable:
    """Fixed-base modular exponentiation via a radix-16 precomputed table.

    Stores g^(d * 16^j) mod m for every window position j and digit d, so an
    e-bit exponent costs about e/4 multiplications and no squarings.  Only
    worth building for long-lived bases: generators and verification keys.
    """

    def __init__(self, base: int, modulus: int, max_bits: int):
        self.modulus = modulus
        self.max_bits = max_bits
        windows = (max_bits + 3) // 4
        table = []
        cur = base % modulus
        for _ in range(windows):
            row = [1] * 16
            for d in range(1, 16):
                row[d] = row[d - 1] * cur % modulus
            table.append(row)
            cur = row[15] * cur % modulus  # cur^16
        self.table = table

    def pow(self, exponent: int) -> int:
        if exponent < 0:
            raise ValueError("negative exponent")
        m = self.modulus
        acc = 1
        j = 0
        while exponent:
            d = exponent & 15
            if d:
                acc = acc * self.table[j][d] % m
            exponent >>= 4
            j += 1
        return acc


class PointComb:
    """CombTable's radix-16 comb over an elliptic-curve group (a CurveOps).

    Row j holds d * 16^j * base for d = 1..15; each row, with 16 * 16^j *
    base appended to start the next, is built in Jacobian coordinates and
    normalized with one inversion.
    """

    def __init__(self, ops: CurveOps, base, windows: int):
        self.ops = ops
        self.rows = []
        add, one = ops.add_mixed, ops.identity[0]
        x, y = base
        for _ in range(windows):
            jac = [(x, y, one)]
            for _ in range(15):
                jac.append(add(*jac[-1], x, y))
            *row, (x, y) = ops.normalize(jac)
            self.rows.append(row)

    def mul(self, k: int):
        """k * base for 0 <= k < 16^windows."""
        add, rows = self.ops.add_mixed, self.rows
        X, Y, Z = self.ops.identity
        j = 0
        while k:
            d = k & 15
            if d:
                px, py = rows[j][d - 1]
                X, Y, Z = add(X, Y, Z, px, py)
            k >>= 4
            j += 1
        return self.ops.to_affine(X, Y, Z)
