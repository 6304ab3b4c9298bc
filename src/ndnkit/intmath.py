"""Integer and group-arithmetic helpers shared by the crypto modules: the
primality test, the signed-digit recoder wnaf, the curve group record
CurveOps, whose pair_off is the one round loop that sums curve points
pairwise (sum_bits_each runs it over the bits of several multi-exps at
once; sum_bits and sums are its one-output and one-bit cases), and the
fixed-base comb Comb."""

import hashlib
import random
from operator import itemgetter, ne
from typing import Callable, NamedTuple


def _primes_below(n: int) -> list[int]:
    """The primes below n, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, n, i)))
    return [i for i, flag in enumerate(sieve) if flag]


_SMALL_PRIMES = _primes_below(2000)

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


def invert_all(values, p: int) -> list[int]:
    """The inverses mod p of a list of values, none 0 mod p, with one
    inversion: Montgomery's trick inverts the product of the values, then
    peels off one value at a time."""
    if len(values) == 1:  # a lone value, as one ECDSA signature inverts, skips the trick
        return [pow(values[0], -1, p)]
    prefix = []
    acc = 1
    for v in values:
        prefix.append(acc)
        acc = acc * v % p
    inv = pow(acc, -1, p)
    out = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        out[i] = prefix[i] * inv % p
        inv = inv * values[i] % p
    return out


# An affine round sums pairs of entries through one add_pairs call, and each
# pair it sums is a mixed addition saved.  Finding the pairs costs about
# 0.5 us a bit that holds two entries or more (one CPU of a 2-vCPU Xeon VM,
# Python 3.11), so a sum that averages fewer than two entries a bit runs no
# round at all: 8 G1 bases of 80-bit scalars (1.6 a bit) ran 1.5% slower
# with their one round, 16 (3.2 a bit) 2.5% faster.  g1_mul, SAV's two-base
# blinding and g2_mul average under 0.5.
_ROUND_MIN_ENTRIES_PER_BIT = 2
_X = itemgetter(0)  # an affine point's x
_Z = itemgetter(2)  # a Jacobian point's Z


class CurveOps(NamedTuple):
    """One elliptic-curve group, as the scalar-multiplication engines see it.

    Points are affine (x, y) tuples with None for the identity, or Jacobian
    (X, Y, Z) with the identity at Z = 0; coordinates are ints for F_p or
    pairs for F_p2.  A record may keep Z in {0, 1}, as the affine G2 record
    does: its (X, Y, 1) is the affine point itself.  dbl(X, Y, Z) doubles
    and add_mixed(X, Y, Z, x, y) adds an affine point to a Jacobian one;
    normalize maps a list of Jacobian points, none the identity, to affine
    with a single inversion, and add_pairs maps a list of pairs (P, Q) of
    affine points, P != +-Q, to their affine sums, also with a single
    inversion.  neg negates a y-coordinate, and identity is (one, one,
    zero) of the coordinate field.
    """

    dbl: Callable
    add_mixed: Callable
    normalize: Callable
    add_pairs: Callable
    neg: Callable
    identity: tuple
    # the fewest pairs a round of add_pairs in pair_off must sum to repay its
    # inversion.  Timed on G1 against leaving the same entries to add_mixed
    # (one CPU of a 2-vCPU Xeon VM, Python 3.11), a round costs about 24 us
    # fixed, mostly its inversion, and saves about 0.9 us a pair, so it
    # repays itself from about 26 pairs; a record whose add_mixed inverts
    # sets 1
    fold_pairs = 26

    def add(self, a, b):
        """a + b on affine points."""
        return self.fold([pt for pt in (a, b) if pt is not None])

    def fold(self, points):
        """The sum of a list of affine points, none the identity."""
        return self.sum_bits([points])

    def sum_bits(self, adds):
        """The sum over j of 2^j times the sum of adds[j], affine: the
        one-output case of sum_bits_each.  adds changes but the caller's
        lists do not."""
        return self.sum_bits_each(adds, (len(adds),))[0]

    def sums(self, lists):
        """The sum of each of lists, affine (None for an empty or cancelling
        list), where each list holds affine points, none the identity: the
        case of sum_bits_each where every output has one bit.  lists
        changes but the caller's lists do not."""
        return self.sum_bits_each(lists, (1,) * len(lists))

    def sum_bits_each(self, adds, widths):
        """Per output, the sum over j of 2^j times the sum of its bit list
        j, affine (None for the identity).  adds holds the bit lists of
        every output in turn, widths[i] of them for output i, and each bit
        list holds affine points, none the identity.  One pair_off sums the
        entries of every output's bits pairwise; then each output runs its
        own doublings, from its top bit down, adding what is left of each
        bit with mixed additions, and one normalize takes every output back
        to affine.  adds changes but the caller's lists do not."""
        self.pair_off(adds)
        dbl, add, start = self.dbl, self.add_mixed, self.identity
        jac = []
        top = 0
        for width in widths:
            X, Y, Z = start
            top += width
            for entries in reversed(adds[top - width : top]):
                if Z:
                    X, Y, Z = dbl(X, Y, Z)
                for x, y in entries:
                    X, Y, Z = add(X, Y, Z, x, y)
            jac.append((X, Y, Z))
        zero = start[2]
        if zero not in map(_Z, jac):
            return self.normalize(jac)
        affine = iter(self.normalize([pt for pt in jac if pt[2] != zero]))
        return [None if pt[2] == zero else next(affine) for pt in jac]

    def pair_off(self, adds):
        """Sum the entries of each list in adds pairwise, in rounds of one
        add_pairs call across all lists, while a round has fold_pairs pairs;
        a pair with equal x (P = +-Q, which add_pairs cannot take) stays
        behind for add_mixed, which doubles or cancels it.  A total too
        small for the first round, or of fewer than
        _ROUND_MIN_ENTRIES_PER_BIT entries a list, runs none.  A round puts
        a new list in adds[j], so adds changes but the caller's lists do
        not, and each adds[j] keeps the sum it had."""
        if not 2 * self.fold_pairs <= sum(map(len, adds)) >= _ROUND_MIN_ENTRIES_PER_BIT * len(adds):
            return
        held = {}
        live = [j for j, entries in enumerate(adds) if len(entries) > 1]
        while True:
            firsts, seconds = [], []
            for j in live:
                paired = adds[j][: len(adds[j]) & ~1]
                firsts += paired[::2]
                seconds += paired[1::2]
            if len(firsts) < self.fold_pairs:
                break
            if all(map(ne, map(_X, firsts), map(_X, seconds))):  # no pair has equal x
                sums = self.add_pairs(list(zip(firsts, seconds)))
                at = 0
                for j in live:
                    entries = adds[j]
                    n = len(entries) >> 1
                    adds[j] = sums[at : at + n] + entries[2 * n :]
                    at += n
            else:
                for j in live:
                    entries, rest = adds[j], []
                    for a, b in zip(entries[::2], entries[1::2]):
                        (held.setdefault(j, []) if a[0] == b[0] else rest).extend((a, b))
                    adds[j] = rest + entries[len(entries) & ~1 :]
            live = [j for j in live if len(adds[j]) > 1]
        for j, entries in held.items():
            adds[j] += entries

    def comb_rows(self, base, w: int, count: int, nrows: int):
        """Row j < nrows holds d * 2^(wj) * base for d = 1..count, affine
        (count >= 2, and no entry may be the identity).  One run of doublings
        gives every row's first two entries, normalized together; then each
        step appends row[0] + row[-1] to every row through add_pairs, so the
        table costs count - 1 inversions and no Jacobian additions."""
        dbl = self.dbl
        X, Y, Z = *base, self.identity[0]
        jac = []
        for _ in range(nrows):
            jac.append((X, Y, Z))
            X, Y, Z = dbl(X, Y, Z)
            jac.append((X, Y, Z))
            for _ in range(w - 1):
                X, Y, Z = dbl(X, Y, Z)
        flat = self.normalize(jac)
        rows = [flat[i : i + 2] for i in range(0, len(flat), 2)]
        for _ in range(count - 2):
            for row, pt in zip(rows, self.add_pairs([(row[0], row[-1]) for row in rows])):
                row.append(pt)
        return rows

    def negate(self, pt):
        return None if pt is None else (pt[0], self.neg(pt[1]))


def jacobian_ops(p: int, a: int) -> CurveOps:
    """The group y^2 = x^3 + ax + b over F_p, for a = 0 and a = -3.  The
    formulas are from Bernstein-Lange's Explicit-Formulas Database: doubling
    by dbl-2009-l (a = 0) or dbl-2001-b (a = -3), and mixed addition by
    madd-2004-hmv, falling back to doubling on equal inputs.  normalize and
    add_pairs share invert_all: normalize inverts the Zs, add_pairs the
    x-differences of the chord slopes.
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
        out = []
        for (X, Y, _), zi in zip(points, invert_all([Z for _, _, Z in points], p)):
            zi2 = zi * zi % p
            out.append((X * zi2 % p, Y * zi2 * zi % p))
        return out

    def add_pairs(pairs):
        out = []
        for ((x1, y1), (x2, y2)), t in zip(pairs, invert_all([q[0] - pt[0] for pt, q in pairs], p)):
            lam = (y2 - y1) * t % p
            x3 = (lam * lam - x1 - x2) % p
            out.append((x3, (lam * (x1 - x3) - y1) % p))
        return out

    return CurveOps(dbl, add_mixed, normalize, add_pairs, lambda y: -y % p, (1, 1, 0))


class Comb:
    """Fixed-base multiplication by a radix-2^w comb (Brickell-Gordon-
    McCurley-Wilson, with Lim-Lee's trade of table size for speed): row j
    holds d * 2^(wj) * base for d = 1..count, so a scalar costs one group
    operation per nonzero digit and no doublings.  Only worth building for
    long-lived bases: generators and verification keys.

    Unsigned digits run 0..2^w - 1, so count = 2^w - 1.  Signed digits run
    -2^(w-1) + 1..2^(w-1), so count = 2^(w-1): a negative digit takes its
    entry from the same row with y negated, and the rows cover one bit more
    for the carry.  Signed tables need a group record that can negate (a
    CurveOps); for the same width they hold half the entries and walk about
    as many digits.

    The group record gives comb_rows(b, w, count, nrows), the rows of d * b
    for d = 1..count as the table stores them, and fold(entries), the sum of
    a list of entries: a CurveOps, or dlgroup's record for Z_p*, where
    multiples are powers and the fold a product.
    """

    def __init__(self, group, base, bits: int, w: int, signed: bool = False):
        self.group = group
        self.bits = bits
        self.w = w
        self.mask = (1 << w) - 1
        self.top = 1 << (w - 1) if signed else self.mask  # the largest digit
        self.neg = group.neg if signed else None
        self.rows = group.comb_rows(base, w, self.top, -(-(bits + signed) // w))

    def mul(self, k: int):
        """k * base for 0 <= k < 2^bits: the record folds k's picks."""
        return self.group.fold(self.picks(k))

    def picks(self, k: int) -> list:
        """The table entries whose fold is k * base, 0 <= k < 2^bits: one pass
        over k's digits takes an entry per nonzero digit.  A caller that sums
        several products folds all their picks at once."""
        if k < 0:
            raise ValueError("negative scalar")
        if k >> self.bits:  # the rows may cover a few bits more; the bound is bits
            raise ValueError("scalar too large for the table")
        w, mask, top, neg = self.w, self.mask, self.top, self.neg
        picked = []
        for row in self.rows:
            if not k:
                break
            d = k & mask
            k >>= w
            if d > top:  # signed: take d - 2^w and carry one into the next window
                d -= mask + 1
                k += 1
            if d > 0:
                picked.append(row[d - 1])
            elif d:
                x, y = row[-d - 1]
                picked.append((x, neg(y)))
        return picked
