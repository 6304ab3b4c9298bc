import functools
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ndnkit.intmath import _SMALL_PRIMES, is_probable_prime, wnaf
from ndnkit.pairing import ate, curve
from ndnkit.pairing.fields import N, X_PARAM
from ndnkit.signatures import dlgroup, ecdsa
from ndnkit.signatures.params import DL_G, DL_P, DL_Q, SECP160R1

ROOT = Path(__file__).resolve().parents[1]


# --- primality ---------------------------------------------------------------


def test_is_probable_prime_edge_cases():
    m61 = 2**61 - 1
    cases = {0: False, 1: False, 2: True, 3: True, 4: False, 561: False, m61: True,
             2 * m61: False}
    assert {n: is_probable_prime(n) for n in cases} == cases


def test_small_primes_match_trial_division():
    assert _SMALL_PRIMES == [p for p in range(2, 2000) if all(p % d for d in range(2, p))]


def test_dl_params_tool_reproduces_the_constants():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "gen_dl_params.py")],
        capture_output=True, text=True, check=True,
    ).stdout
    values = {k: int(v, 16) for k, v in (line.split(" = ") for line in out.splitlines())}
    assert values == {"P": DL_P, "Q": DL_Q, "G": DL_G}


# --- signed-digit recoding ---------------------------------------------------


@pytest.mark.parametrize("w", [2, 4, 8])
def test_wnaf_rebuilds_k_from_sparse_odd_digits(w):
    rng = random.Random(w)
    for k in [0, 1, N - 1, N, 2**160 - 1] + [rng.getrandbits(160) for _ in range(50)]:
        pairs = wnaf(k, w)
        assert sum(d << j for j, d in pairs) == k
        assert all(d % 2 == 1 and abs(d) < 1 << (w - 1) for _, d in pairs)
        positions = [j for j, _ in pairs]
        assert all(b - a >= w for a, b in zip(positions, positions[1:]))


def test_wnaf_at_width_2_gives_the_ate_loop_digits():
    pairs = wnaf(6 * X_PARAM + 2, 2)
    assert pairs == [(2, -1), (5, 1), (7, -1), (26, 1), (28, -1), (38, 1), (41, 1)]
    dense = dict(pairs)
    assert tuple(dense.get(j, 0) for j in range(40, -1, -1)) == ate._LOOP_DIGITS


# --- the fixed-base comb -----------------------------------------------------


def _double_and_add(spec, k, base=None):
    """k * base (default the generator G) on the curve by affine
    double-and-add, None for the identity."""
    p = spec.p
    base = base or (spec.gx, spec.gy)

    def add(a, b):
        if a is None or b is None:
            return a or b
        if a[0] == b[0] and (a[1] + b[1]) % p == 0:
            return None
        if a == b:
            lam = (3 * a[0] * a[0] + spec.a) * pow(2 * a[1], -1, p) % p
        else:
            lam = (b[1] - a[1]) * pow(b[0] - a[0], -1, p) % p
        x = (lam * lam - a[0] - b[0]) % p
        return (x, (lam * (a[0] - x) - a[1]) % p)

    acc = None
    for bit in bin(k)[2:]:
        acc = add(acc, acc)
        if bit == "1":
            acc = add(acc, base)
    return acc


# a point with no special relation to G, whose table is built like a key's
_KEY_POINT = _double_and_add(SECP160R1, 0x5EED)


def _generator_table(name):
    """A generator's table, its group order and a reference k -> k * generator."""
    if name == "dl":
        return dlgroup._gen_table(), DL_Q, lambda k: pow(DL_G, k, DL_P)
    if name == "secp160r1-key":
        return (ecdsa._comb(*_KEY_POINT), SECP160R1.n,
                lambda k: _double_and_add(SECP160R1, k, _KEY_POINT))
    return ecdsa._gen_comb(), SECP160R1.n, lambda k: _double_and_add(SECP160R1, k)


def _edge_digit_scalars(comb, bits):
    """Scalars below 2^bits whose every radix-2^w digit sits at an edge of the
    comb's digit range: +-2^(w-1) in seeded signs (the top one positive; all
    positive for an unsigned comb), and the largest digit everywhere."""
    w, half, m = comb.w, 1 << (comb.w - 1), bits // comb.w
    signs = [1, -1] if comb.top == half else [1]
    out = []
    for seed in range(3):
        digits = random.Random(seed).choices(signs, k=m - 1) + [1]
        out.append(sum(d * half << (w * j) for j, d in enumerate(digits)))
    out.append(sum(comb.top << (w * j) for j in range(m)))
    return out


@pytest.mark.parametrize("name", ["secp160r1", "secp160r1-key", "dl"])
def test_generator_comb_matches_the_reference(name):
    comb, order, reference = _generator_table(name)
    bits = order.bit_length()
    signed = comb.top == 1 << (comb.w - 1)
    assert len(comb.rows) == -(-(bits + signed) // comb.w)  # signed: a row to carry into
    rng = random.Random(bits)
    scalars = [0, 1, order - 1, (1 << bits) - 1] + _edge_digit_scalars(comb, bits)
    scalars += [rng.randrange(order) for _ in range(50)]
    for k in scalars:
        assert 0 <= k < 1 << bits
        assert comb.mul(k) == reference(k), k
    with pytest.raises(ValueError, match="negative scalar"):
        comb.mul(-1)
    with pytest.raises(ValueError, match="too large"):
        comb.mul(1 << (len(comb.rows) * comb.w))


@pytest.mark.parametrize("name", ["secp160r1", "secp160r1-key", "dl"])
def test_picks_of_two_tables_fold_to_the_sum(name):
    # what ECDSA verify does with the generator's and the key's tables; the
    # pairs (a, n - a) and (a, a) take the fold through cancellation and
    # doubling
    comb, order, reference = _generator_table(name)
    rng = random.Random(order.bit_length() + 1)
    a = rng.randrange(1, order)
    for k1, k2 in [(0, 0), (0, a), (a, order - a), (a, a)] + [
        (rng.randrange(order), rng.randrange(order)) for _ in range(5)
    ]:
        assert comb.group.fold(comb.picks(k1) + comb.picks(k2)) == reference((k1 + k2) % order)


@pytest.mark.parametrize("name, w, shape", [("secp160r1", 9, (18, 256)),
                                            ("secp160r1-key", 6, (27, 32))])
def test_ecdsa_table_widths_are_pinned(name, w, shape):
    # both ECDSA tables are signed: rows cover |n| + 1 bits, 2^(w-1) entries each
    comb = _generator_table(name)[0]
    assert (comb.w, comb.top, comb.neg) == (w, 1 << (w - 1), comb.group.neg)
    assert (len(comb.rows), {len(row) for row in comb.rows}) == (shape[0], {shape[1]})


def test_dl_table_widths_are_pinned():
    # Z_p* has no cheap negation: both DL tables are unsigned, 2^w - 1 entries a row
    for comb, w, shape in [(dlgroup._gen_table(), 8, (20, 255)),
                           (dlgroup._table(pow(DL_G, 0x5EED, DL_P)), 6, (28, 63))]:
        assert (comb.w, comb.top, comb.neg) == (w, (1 << w) - 1, None)
        assert (len(comb.rows), {len(row) for row in comb.rows}) == (shape[0], {shape[1]})


def test_dl_key_table_matches_pow():
    # a key's table covers exponents below 2^164, four bits past q, so the
    # top row's largest digit is 3
    y = pow(DL_G, 0x5EED, DL_P)
    comb = dlgroup._table(y)
    exponents = [0, 1, (1 << 162) - 1, 1 << 162, 3 << 162, (1 << 164) - 1]
    for j in (1, 2, 13, 25, 26):
        exponents += [(1 << 6 * j) - 1, 1 << 6 * j, 63 << 6 * j]
    rng = random.Random(164)
    exponents += [rng.randrange(1 << 164) for _ in range(50)]
    for e in exponents:
        assert e < 1 << 164
        assert comb.mul(e) == pow(y, e, DL_P), e
    with pytest.raises(ValueError, match="scalar too large"):
        comb.mul(1 << 164)


def test_comb_rejects_a_negative_scalar():
    for comb in (dlgroup._table(DL_G), ecdsa._comb(SECP160R1.gx, SECP160R1.gy)):
        with pytest.raises(ValueError, match="negative scalar"):
            comb.mul(-1)


# --- the one point-summing routine -------------------------------------------


def _chain(ops, points):
    """The sum of points by a left-to-right chain of two-point additions."""
    acc = None
    for pt in points:
        acc = ops.add(acc, pt)
    return acc


@pytest.mark.parametrize("name", ["bn160-g1", "secp160r1"])
def test_long_folds_match_a_chain_of_additions(name):
    # a Jacobian record folds 2 * fold_pairs = 52 points or more in affine
    # rounds of add_pairs, which must leave equal and negated pairs, in the
    # first round or a later one, to add_mixed
    if name == "secp160r1":
        ops, mul, order = ecdsa._OPS, ecdsa.base_mul, SECP160R1.n
    else:
        g = curve.g1_generator().point
        ops, mul, order = curve.G1, lambda k: curve.g1_mul(g, k), N
    rng = random.Random(len(name))
    pool = [mul(rng.randrange(1, order)) for _ in range(70)]
    rounds = []

    def add_pairs(pairs):
        rounds.append(len(pairs))
        return ops.add_pairs(pairs)

    counted = ops._replace(add_pairs=add_pairs)
    assert 2 * counted.fold_pairs == 52
    for n in range(51, 71):
        half, odd = pool[: n // 2], pool[n // 2 : n // 2 + n % 2]
        mixed = half + half[: n // 4] + [ops.negate(pt) for pt in half[: n - n // 2 - n // 4]]
        rng.shuffle(mixed)
        cases = [
            pool[:n],
            [q for pt in half for q in (pt, pt)] + odd,
            [q for pt in half for q in (pt, ops.negate(pt))] + odd,
            pool[:2] * (n // 2) + pool[2 : 2 + n % 2],  # equal pairs after the first round
            [pool[n - 51]] * n,
            mixed,
        ]
        for points in cases:
            assert len(points) == n
            before = list(points)
            assert counted.fold(points) == _chain(ops, points)
            assert points == before
        # random points: a round from 52 on, and no add_pairs call below that
        del rounds[:]
        counted.fold(pool[:n])
        assert bool(rounds) == (n >= 52)


@functools.lru_cache(maxsize=None)
def _pool(name):
    """The named record and 40 random points on it."""
    if name == "secp160r1":
        ops, mul, order = ecdsa._OPS, ecdsa.base_mul, SECP160R1.n
    else:
        g = curve.g1_generator().point
        ops, mul, order = curve.G1, lambda k: curve.g1_mul(g, k), N
    rng = random.Random(len(name) + 40)
    return ops, [mul(rng.randrange(1, order)) for _ in range(40)]


def _sums_and_rounds(ops, lists):
    """ops.sums(lists), with the pair count of each add_pairs call it made."""
    rounds = []

    def add_pairs(pairs):
        rounds.append(len(pairs))
        return ops.add_pairs(pairs)

    inner, before = list(lists), [list(entries) for entries in lists]
    sums = ops._replace(add_pairs=add_pairs).sums(list(lists))
    assert inner == before  # the caller's lists are left as they were
    return sums, rounds


@pytest.mark.parametrize("name", ["bn160-g1", "secp160r1"])
def test_independent_sums_of_edge_shapes_match_chains(name):
    ops, pool = _pool(name)
    p, q = pool[:2]
    lists = [
        [], [p], [p, p], [p, ops.negate(p)], [p, q, ops.negate(p)], [q, p, p, q, q],
        [p] * 7,
    ]
    sums, rounds = _sums_and_rounds(ops, [list(entries) for entries in lists])
    assert sums == [_chain(ops, entries) for entries in lists]
    assert sums[0] is None and sums[3] is None and sums[1] == p
    assert rounds == []  # 20 entries: below 2 * fold_pairs
    assert ops.sums([]) == []
    # 30 two-entry lists: one round of 30 pairs, after which each is one entry;
    # two lists of 30: a round of 30 pairs, then 15 pairs, below fold_pairs
    for shape in ([2] * 30, [30, 30]):
        lists = [pool[i : i + n] for i, n in enumerate(shape)]
        sums, rounds = _sums_and_rounds(ops, lists)
        assert rounds == [30]
        assert sums == [_chain(ops, entries) for entries in lists]
    # equal and negated pairs in a round are held for add_mixed, in the first
    # round and after it
    lists = [[pt, pt] for pt in pool[:14]] + [[pt, ops.negate(pt)] for pt in pool[14:28]]
    lists += [pool[:2] * 8, [pool[5]] * 16]
    sums, rounds = _sums_and_rounds(ops, lists)
    assert sums == [_chain(ops, entries) for entries in lists]
    assert sums[14:28] == [None] * 14


@pytest.mark.parametrize("name", ["bn160-g1", "secp160r1"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_independent_sums_match_chains_and_run_rounds_only_past_the_gate(name, data):
    ops, pool = _pool(name)
    n = st.integers(0, len(pool) - 1)
    entry = st.one_of(
        n.map(lambda i: [pool[i]]),
        n.map(lambda i: [pool[i], pool[i]]),  # P + P
        n.map(lambda i: [pool[i], ops.negate(pool[i])]),  # P + -P
    )
    count = data.draw(st.integers(0, 20))
    sizes = data.draw(st.lists(st.integers(0, 12), min_size=count, max_size=count))
    lists = [sum(data.draw(st.lists(entry, min_size=k, max_size=k)), []) for k in sizes]
    sums, rounds = _sums_and_rounds(ops, lists)
    assert sums == [_chain(ops, entries) for entries in lists]
    total = sum(map(len, lists))
    gate = 2 * ops.fold_pairs <= total >= 2 * len(lists)
    assert not rounds or gate
    assert all(size >= ops.fold_pairs for size in rounds)
    if gate and all(len({pt[0] for pt in entries}) == len(entries) for entries in lists):
        # no equal x anywhere: a first round of fold_pairs pairs always runs
        assert bool(rounds) == (sum(len(entries) // 2 for entries in lists) >= ops.fold_pairs)
