"""Integer and modular-arithmetic helpers shared by the crypto modules."""

import hashlib
import random

_SMALL_PRIMES = [p for p in range(3, 2000) if all(p % d for d in range(2, p))]

_sysrand = random.SystemRandom()


def is_probable_prime(n: int, rounds: int = 40, rng=None) -> bool:
    """Miller-Rabin with trial division; error probability <= 4^-rounds."""
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
    for _ in range(rounds):
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


def mgf1(seed: bytes, length: int, hash_name: str = "sha256") -> bytes:
    """Mask generation function from PKCS#1: counter-mode hash expansion."""
    h = hashlib.new(hash_name)
    out = bytearray()
    counter = 0
    while len(out) < length:
        c = h.copy()
        c.update(seed + counter.to_bytes(4, "big"))
        out.extend(c.digest())
        counter += 1
    return bytes(out[:length])


def jacobian_ops(p: int, a: int):
    """(dbl, add_mixed, to_affine) for y^2 = x^3 + ax + b over F_p in
    Jacobian coordinates, for a = 0 and a = -3.  The formulas are from
    Bernstein-Lange's Explicit-Formulas Database: doubling by dbl-2009-l
    (a = 0) or dbl-2001-b (a = -3), and mixed addition by madd-2004-hmv,
    falling back to doubling on equal inputs.

    Points are (X, Y, Z) with the identity at Z = 0; add_mixed adds an
    affine (x, y), and to_affine returns None for the identity.
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

    def to_affine(X, Y, Z):
        if not Z:
            return None
        zi = pow(Z, -1, p)
        zi2 = zi * zi % p
        return (X * zi2 % p, Y * zi2 * zi % p)

    return dbl, add_mixed, to_affine


def jacobian_to_affine(points, p: int) -> list[tuple[int, int]]:
    """Jacobian points over F_p, none the identity, to affine with a single
    inversion (Montgomery's trick: invert the product, then peel off one Z
    at a time)."""
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
    """CombTable's radix-16 comb over an elliptic-curve group.

    The curve comes as callbacks: add(X, Y, Z, x, y) adds an affine point to
    a Jacobian one, normalize maps a list of Jacobian points to affine,
    to_affine maps one (None for the identity), and identity is the Jacobian
    identity (one, one, zero) of the coordinate field.  Row j holds
    d * 16^j * base for d = 1..15; each row, with 16 * 16^j * base appended
    to start the next, is built in Jacobian coordinates and normalized with
    one inversion.
    """

    def __init__(self, base, windows: int, add, normalize, to_affine, identity):
        self.add, self.to_affine, self.identity = add, to_affine, identity
        self.rows = []
        x, y = base
        for _ in range(windows):
            jac = [(x, y, identity[0])]
            for _ in range(15):
                jac.append(add(*jac[-1], x, y))
            *row, (x, y) = normalize(jac)
            self.rows.append(row)

    def mul(self, k: int):
        """k * base for 0 <= k < 16^windows."""
        add, rows = self.add, self.rows
        X, Y, Z = self.identity
        j = 0
        while k:
            d = k & 15
            if d:
                px, py = rows[j][d - 1]
                X, Y, Z = add(X, Y, Z, px, py)
            k >>= 4
            j += 1
        return self.to_affine(X, Y, Z)
