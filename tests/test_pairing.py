"""Pairing-layer checks: group laws, bilinearity, and encodings.

The final exponentiation and the cyclotomic shortcuts are compared against
plain square-and-multiply on the full exponents, so any algebraic slip in
the optimized paths shows up as a mismatch here rather than as a subtly
wrong signature scheme.
"""

import hashlib
import itertools
import random

import pytest

from ndnkit import intmath
from ndnkit.accel import LocalPairingServer, sav_verify
from ndnkit.intmath import jacobian_ops
from ndnkit.netcoding import Generation, nc_keygen, nc_sign, split_and_augment
from ndnkit.pairing import (
    CURVE_ORDER,
    FIELD_PRIME,
    GT_ONE,
    G1Point,
    G2Point,
    final_exponentiation,
    g1_generator,
    g2_generator,
    gt_deserialize,
    gt_exp,
    gt_generator,
    gt_inv,
    gt_mul,
    gt_serialize,
    hash_to_g1,
    pairing,
    pairing_call_count,
    pairing_product,
    prepare_g2,
)
from ndnkit.pairing import ate, curve, fields
from ndnkit.pairing.fields import F2_ONE, f2_add, f2_mul, f2_mul_xi, f2_scal, f2_sqr, f2_sub
from ndnkit.signatures import SCHEME_BLS, ecdsa, keygen, sign
from ndnkit.signatures.params import SECP160R1

N = CURVE_ORDER
P = FIELD_PRIME
RNG = random.Random(0xA7E)


def rand_scalar():
    return RNG.randrange(1, N)


def rand_unitary():
    """Random element of the cyclotomic subgroup (unitary part of Fp12)."""
    raw = fields.f12_from_coeffs(
        [(RNG.randrange(P), RNG.randrange(P)) for _ in range(6)]
    )
    t = fields.f12_mul(fields.f12_conj(raw), fields.f12_inv(raw))
    return fields.f12_mul(fields.f12_frob(t, 2), t)


def f12_pow(x, e):
    """Oracle: plain square-and-multiply in Fp12 for e >= 0."""
    r = fields.F12_ONE
    for bit in bin(e)[2:]:
        r = fields.f12_sqr(r)
        if bit == "1":
            r = fields.f12_mul(r, x)
    return r


def g1_on_curve(pt) -> bool:
    """Oracle: pt is the identity (None) or satisfies y^2 = x^3 + b."""
    if pt is None:
        return True
    x, y = pt
    return (y * y - x * x * x - curve.CURVE_B) % P == 0


# --- parameters and generators ----------------------------------------------


def test_bn_parameter_relations():
    x = fields.X_PARAM
    assert P == 36 * x**4 + 36 * x**3 + 24 * x**2 + 6 * x + 1
    assert N == 36 * x**4 + 36 * x**3 + 18 * x**2 + 6 * x + 1
    assert P + 1 - N == 6 * x**2 + 1  # trace
    assert P % 4 == 3
    assert P.bit_length() == 160


def test_g1_generator_has_order_n():
    g = g1_generator().point
    assert g1_on_curve(g)
    assert curve.g1_mul(g, N) is None
    assert curve.g1_mul(g, 1) == g


def test_g2_generator_in_subgroup():
    g = g2_generator().point
    assert curve.g2_on_twist(g)
    assert curve.g2_in_subgroup(g)


def _twist_affine_add(a, b):
    """a + b on the twist by the affine chord-tangent formulas: an oracle
    that shares no code with curve's g2_chord and g2_tangent."""
    if a is None:
        return b
    if b is None:
        return a
    (x1, y1), (x2, y2) = a, b
    if x1 == x2:
        if fields.f2_add(y1, y2) == fields.F2_ZERO:
            return None
        num = fields.f2_scal(fields.f2_sqr(x1), 3)
        den = fields.f2_scal(y1, 2)
    else:
        num = fields.f2_sub(y2, y1)
        den = fields.f2_sub(x2, x1)
    lam = fields.f2_mul(num, fields.f2_inv(den))
    x3 = fields.f2_sub(fields.f2_sub(fields.f2_sqr(lam), x1), x2)
    return (x3, fields.f2_sub(fields.f2_mul(lam, fields.f2_sub(x1, x3)), y1))


def _twist_times(q, k):
    """[k]q by affine double-and-add, k taken as is (no reduction mod n)."""
    acc = None
    for bit in bin(k)[2:]:
        acc = _twist_affine_add(acc, acc)
        if bit == "1":
            acc = _twist_affine_add(acc, q)
    return acc


def _raw_twist_points(count):
    """Twist points (k, 1), k = 2, 3, ..., with no cofactor clearing."""
    out = []
    k = 2
    while len(out) < count:
        x = (k, 1)
        y = fields.f2_sqrt(fields.f2_add(fields.f2_mul(fields.f2_sqr(x), x), curve.TWIST_B))
        if y is not None:
            out.append((x, y))
        k += 1
    return out


def test_twist_point_outside_subgroup_is_detected():
    # with cofactor 2p - n a raw twist point is (overwhelmingly) outside G2
    for pt in _raw_twist_points(5):
        if _twist_times(pt, N) is not None:
            assert not curve.g2_in_subgroup(pt)
            return
    pytest.fail("no low-order twist point found to exercise the check")


def test_psi_membership_agrees_with_the_order_n_oracle():
    x = fields.X_PARAM
    c, t = curve.PSI_EIGENVALUE, 6 * x * x + 1
    # psi^2 - t psi + p = 0 on the twist, so psi(Q) = [c]Q forces [n]Q = 0
    assert c == 6 * x * x and c * c - t * c + P == N
    g = g2_generator().point
    assert curve.g2_psi(g) == curve.g2_mul(g, P)
    raw = _raw_twist_points(8)
    members = [curve.g2_mul_gen(rand_scalar()) for _ in range(4)]
    # [n]R has order dividing the cofactor; R + S mixes both components
    low_order = [_twist_times(r, N) for r in raw[:3]]
    mixed = [_twist_affine_add(r, s) for r, s in zip(raw[3:6], members)]
    cleared = [_twist_times(raw[6], 2 * P - N)]
    points = raw + members + low_order + mixed + cleared + [g, None]
    verdicts = [curve.g2_in_subgroup(pt) for pt in points]
    assert verdicts == [_twist_times(pt, N) is None if pt else True for pt in points]
    assert sum(verdicts) == len(members) + len(cleared) + 2


# --- group arithmetic --------------------------------------------------------


def test_g1_group_laws():
    g = g1_generator().point
    a, b = rand_scalar(), rand_scalar()
    pa = curve.g1_mul(g, a)
    pb = curve.g1_mul(g, b)
    assert curve.G1.add(pa, pb) == curve.g1_mul(g, (a + b) % N)
    assert curve.G1.add(pa, curve.G1.negate(pa)) is None
    assert curve.G1.add(pa, None) == pa
    assert curve.g1_mul(pa, 0) is None


def test_g2_group_laws():
    g = g2_generator().point
    a, b = rand_scalar(), rand_scalar()
    qa = curve.g2_mul(g, a)
    qb = curve.g2_mul(g, b)
    assert curve.G2.add(qa, qb) == curve.g2_mul(g, (a + b) % N)
    assert curve.G2.add(qa, curve.G2.negate(qa)) is None
    # the G2 record against the affine oracle, doubling branch included
    assert curve.G2.add(qa, qb) == _twist_affine_add(qa, qb)
    assert curve.G2.add(qa, qa) == _twist_affine_add(qa, qa) == curve.g2_mul(g, 2 * a)
    assert curve.g2_mul(qa, b) == _twist_times(qa, b)
    for k in (0, 1, N - 1, N, N + 1, curve.PSI_EIGENVALUE):
        assert curve.g2_mul(qa, k) == _twist_times(qa, k)
        assert curve.g2_mul(None, k) is None
    # membership multiplies twist points outside G2 by 6x^2 on the same engine,
    # whose rows of odd multiples hold no identity while the cofactor has no
    # small prime factor
    assert all((2 * P - N) % q for q in range(2, 2017))
    for r in _raw_twist_points(2):
        assert curve.g2_mul(r, curve.PSI_EIGENVALUE) == _twist_times(r, curve.PSI_EIGENVALUE)


def _twist_points_over(xs):
    """The twist points over each x of xs that lifts, y as f2_sqrt gives it."""
    out = []
    for x in xs:
        y = fields.f2_sqrt(fields.f2_add(fields.f2_mul(fields.f2_sqr(x), x), curve.TWIST_B))
        if y is not None:
            out.append((x, y))
    return out


def test_g2_add_pairs_matches_single_additions():
    # one batched inversion over the x-differences' norms; a nonzero
    # difference has a nonzero norm since P = 3 mod 4, including a purely
    # real difference and a purely imaginary one
    real_diff = _raw_twist_points(6)
    imag_diff = _twist_points_over((2, k) for k in range(1, 40))[:6]
    assert len(imag_diff) == 6
    members = [curve.g2_mul_gen(rand_scalar()) for _ in range(4)]
    pairs = list(zip(real_diff, real_diff[1:])) + list(zip(imag_diff, imag_diff[1:]))
    pairs += list(zip(members, members[1:])) + [(real_diff[0], members[0])]
    assert all(a[0][0] == b[0][0] for a, b in zip(imag_diff, imag_diff[1:]))
    assert all(a[0][1] == b[0][1] for a, b in zip(real_diff, real_diff[1:]))
    sums = curve.G2.add_pairs(pairs)
    assert sums == [curve.G2.add(a, b) for a, b in pairs]
    assert sums == [_twist_affine_add(a, b) for a, b in pairs]


def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


def test_g2_outputs_are_pinned():
    """The generator's comb rows, g2_mul on a subgroup point and on a twist
    point outside G2, and two keys' Miller-loop lines, digested at the
    Jacobian G2 record that the affine chord and tangent replaced."""
    assert _digest(curve._gen_comb().rows) == (
        "10665726b4e74b3e58b8807003686a75e2a9e7fa1c7a9dbc453fc7fb55f02350"
    )
    pts = [g2_generator().point, _raw_twist_points(1)[0]]
    ks = (0, 1, 2, curve.PSI_EIGENVALUE, N - 1, N)
    assert _digest([curve.g2_mul(pt, k) for pt in pts for k in ks]) == (
        "2b0727491e5cc79376fc8d9ceae12aafa4e4afd92788181651cc8dc6de28314d"
    )
    keys = [g2_generator(), G2Point(curve.g2_mul_gen(0x5EED * 2**100 + 77))]
    assert _digest([prepare_g2(q).coeffs for q in keys]) == (
        "c021b87119e23177c32f694f962d0b2851348fadd4c4136e2da604fb92d28f6e"
    )


def _group_record(name):
    """A group's CurveOps and a multiplication of its generator: the
    fixed-base table where the generator has one, g1_mul for G1."""
    if name == "G1":
        return curve.G1, lambda k: curve.g1_mul(g1_generator().point, k)
    if name == "G2":
        return curve.G2, curve.g2_mul_gen
    return jacobian_ops(SECP160R1.p, SECP160R1.a), ecdsa.base_mul


@pytest.mark.parametrize("name", ["G1", "G2", "secp160r1"])
def test_group_record_laws(name):
    ops, mul = _group_record(name)
    one = ops.identity[0]
    scalars = [RNG.randrange(1, 1 << 150) for _ in range(4)]
    pts = [mul(k) for k in scalars]
    assert ops.add(pts[0], pts[1]) == mul(scalars[0] + scalars[1])
    assert ops.add(None, None) is None and ops.negate(None) is None
    for pt in pts:
        assert ops.add(pt, None) == ops.add(None, pt) == pt
        assert ops.add(pt, ops.negate(pt)) is None
        assert ops.add(pt, pt) == ops.normalize([ops.dbl(*pt, one)])[0]
    jac = [ops.dbl(*pt, one) for pt in pts]
    jac += [ops.add_mixed(*j, *pt) for j, pt in zip(jac, pts[1:])]
    assert ops.normalize(jac) == [ops.normalize([j])[0] for j in jac]
    pairs = list(zip(pts, pts[1:]))
    assert ops.add_pairs(pairs) == [ops.add(a, b) for a, b in pairs]


@pytest.mark.parametrize("name, count, w", [("G1", 1, 4), ("G1", 2, 4), ("G1", 8, 4),
                                            ("G1", 40, 8), ("G2", 1, 4)])
def test_odd_multiple_rows_match_a_chain(name, count, w):
    # _odd_multiples steps every row at once through add_pairs; a chain of
    # single additions per base gives the same rows, and a None base no row
    ops, mul = _group_record(name)
    rng = random.Random(count * w)
    bases = [mul(rng.randrange(1, N)) for _ in range(count)]
    bases.insert(count // 2, None)
    rows = curve._odd_multiples(ops, bases, w)
    assert len(rows) == len(bases)
    for base, row in zip(bases, rows):
        if base is None:
            assert row is None
            continue
        two = ops.add(base, base)
        chain = [base]
        while len(chain) < 1 << (w - 2):
            chain.append(ops.add(chain[-1], two))
        assert row == chain + [ops.negate(pt) for pt in reversed(chain)]


def test_g2_fold_rounds_meet_equal_and_negated_sums():
    # the affine G2 record folds in rounds of add_pairs: two comb walks of
    # one scalar, or of a and n - a, sum to equal or negated points that
    # only add_mixed can take, and so do copies of one point
    comb, g2 = curve._gen_comb(), g2_generator().point
    a = rand_scalar()
    for k1, k2 in ((a, a), (a, N - a), (a, 0), (a, 2 * a % N), (rand_scalar(), a)):
        assert curve.G2.fold(comb.picks(k1) + comb.picks(k2)) == curve.g2_mul(g2, k1 + k2)
    pt = comb.mul(a)
    for copies in (2, 3, 4, 7):
        assert curve.G2.fold([pt] * copies) == curve.g2_mul(pt, copies)


def test_fixed_base_combs_match_generic_mul():
    g2 = g2_generator().point
    for _ in range(5):
        k = rand_scalar()
        assert curve.g2_mul_gen(k) == curve.g2_mul(g2, k)
    assert curve.g2_mul_gen(0) is None
    assert curve.g2_mul_gen(N) is None


def test_g1_multi_exp_matches_naive_sum():
    g = g1_generator().point
    bases = [curve.g1_mul(g, rand_scalar()) for _ in range(6)] + [None]
    scalars = [rand_scalar() for _ in range(6)] + [rand_scalar()]
    expected = None
    for b, s in zip(bases, scalars):
        expected = curve.G1.add(expected, curve.g1_mul(b, s))
    assert curve.g1_multi_exp(bases, scalars) == expected


def test_multi_exp_rejects_length_mismatch():
    with pytest.raises(ValueError):
        curve.G1MultiExp([g1_generator().point]).combine([1, 2])
    with pytest.raises(ValueError):
        curve.g1_multi_exp([g1_generator().point], [])


def _double_and_add(base, k):
    """k * base by plain left-to-right double-and-add in affine form."""
    acc = None
    for bit in bin(k)[2:] if k > 0 else "":
        acc = curve.G1.add(acc, acc)
        if bit == "1":
            acc = curve.G1.add(acc, base)
    return acc


def _naive_multi_exp(bases, scalars):
    total = None
    for b, k in zip(bases, scalars):
        total = curve.G1.add(total, _double_and_add(b, k))
    return total


def _both_entry_points(bases, scalars):
    """The one-shot and the cached multi-exp must agree with the naive sum."""
    expected = _naive_multi_exp(bases, scalars)
    assert curve.g1_multi_exp(bases, scalars) == expected
    assert curve.G1MultiExp(bases).combine(scalars) == expected
    return expected


def _random_bases(count):
    g = g1_generator().point
    return [curve.g1_mul(g, rand_scalar()) for _ in range(count)]


def test_multi_exp_edge_scalars():
    edges = [0, 1, N - 1, N, N + 1, (1 << 80) - 1]
    bases = _random_bases(len(edges))
    _both_entry_points(bases, edges)
    for k in edges:
        _both_entry_points(bases[:1], [k])
    assert curve.g1_multi_exp(bases, [0] * len(bases)) is None
    assert curve.G1MultiExp(bases).combine([N] * len(bases)) is None


def test_multi_exp_all_ones_scalars_carry_out_of_the_top_window():
    # a run of ones recodes to a digit one position above the scalar's top bit
    widths = [3, 4, 5, 8, 9, 80, 159]
    bases = _random_bases(len(widths))
    _both_entry_points(bases, [(1 << w) - 1 for w in widths])
    for w in widths:
        _both_entry_points(bases[:2], [(1 << w) - 1, (1 << w) - 1])


def test_multi_exp_identity_duplicate_and_negated_bases():
    b, c = _random_bases(2)
    neg_b = curve.G1.negate(b)
    k = rand_scalar()
    # equal digits land on the same bit: doubling and cancellation branches
    assert _both_entry_points([b, b], [k, k]) == curve.g1_mul(b, 2 * k)
    assert _both_entry_points([b, neg_b], [k, k]) is None
    assert _both_entry_points([b, neg_b, c], [k, k, 5]) == curve.g1_mul(c, 5)
    assert _both_entry_points([None, b, None], [k, 3, 7]) == curve.g1_mul(b, 3)
    assert _both_entry_points([None], [k]) is None
    assert _both_entry_points([], []) is None
    mixed = [b, None, neg_b, b, c, c, curve.G1.negate(c)]
    _both_entry_points(mixed, [rand_scalar() for _ in mixed])
    _both_entry_points(mixed, [1, 2, 1, 1, N - 1, 1, 1])


@pytest.mark.parametrize("count", [1, 8, 32, 40])
def test_multi_exp_matches_naive_sum_by_size(count):
    bases = _random_bases(count)
    _both_entry_points(bases, [rand_scalar() for _ in bases])
    _both_entry_points(bases, [RNG.randrange(1, 1 << 80) for _ in bases])


def test_cached_multi_exp_is_reusable():
    bases = _random_bases(40)
    cached = curve.G1MultiExp(bases)
    vectors = [[rand_scalar() for _ in bases] for _ in range(3)]
    vectors.append([RNG.randrange(1 << 152) for _ in bases])
    vectors.append([0] * 39 + [1])
    expected = [_naive_multi_exp(bases, v) for v in vectors]
    assert [cached.combine(v) for v in vectors] == expected
    assert [cached.combine(v) for v in reversed(vectors)] == expected[::-1]


@pytest.fixture(params=["every_round", "measured_threshold"])
def round_threshold(request, monkeypatch):
    """Runs a test twice: once with every affine round taken, so that small
    sums reach the round code, and once at the records' own thresholds.
    With every round taken, the test must have run a round of add_pairs in
    a multi-exp's sum, one over more than one bit."""
    if request.param == "measured_threshold":
        yield
        return
    monkeypatch.setattr(intmath.CurveOps, "fold_pairs", 1)
    monkeypatch.setattr(intmath, "_ROUND_MIN_ENTRIES_PER_BIT", 0)
    round_bits = []  # per add_pairs call in a pass, the bit count of its sums
    sum_bits_each = intmath.CurveOps.sum_bits_each

    def counted_sum_bits_each(ops, adds, widths):
        def add_pairs(pairs):
            round_bits.append(len(adds))
            return ops.add_pairs(pairs)

        return sum_bits_each(ops._replace(add_pairs=add_pairs), adds, widths)

    monkeypatch.setattr(intmath.CurveOps, "sum_bits_each", counted_sum_bits_each)
    yield
    assert any(bits > 1 for bits in round_bits)


def test_affine_rounds_meet_a_negated_or_equal_sum(round_threshold):
    # with equal scalars every bit holds d*b, d*c and d*(-+(b + c)): the
    # first round sums d*b + d*c, which meets the third entry's negation or
    # its equal in a later round, where add_pairs cannot take the pair
    b, c = _random_bases(2)
    bc = curve.G1.add(b, c)
    for k in (rand_scalar(), RNG.randrange(1, 1 << 80), (1 << 80) - 1):
        assert _both_entry_points([b, c, curve.G1.negate(bc)], [k] * 3) is None
        assert _both_entry_points([b, c, bc], [k] * 3) == curve.g1_mul(bc, 2 * k)
        _both_entry_points([b, c, bc, curve.G1.negate(bc), b], [k] * 5)


def test_affine_rounds_with_many_equal_entries_on_one_bit(round_threshold):
    b, c = _random_bases(2)
    neg_b = curve.G1.negate(b)
    k = rand_scalar()
    for copies in (3, 4, 5, 8):
        assert _both_entry_points([b] * copies, [k] * copies) == curve.g1_mul(b, copies * k)
    assert _both_entry_points([b, neg_b, b], [k] * 3) == curve.g1_mul(b, k)
    _both_entry_points([b, c, b, c, b, neg_b, c], [k] * 7)
    _both_entry_points([b] * 6 + [c] * 6, [RNG.randrange(1, 1 << 80) for _ in range(12)])


def test_cached_multi_exp_takes_negative_and_zero_glv_halves(round_threshold):
    bases = _random_bases(8)
    cached = curve.G1MultiExp(bases)
    scalars = _glv_scalars()
    for at in range(0, len(scalars), len(bases)):
        chunk = (scalars[at : at + len(bases)] + [0] * len(bases))[: len(bases)]
        assert cached.combine(chunk) == _naive_multi_exp(bases, [k % N for k in chunk])


def _scalar_value(k):
    """The scalar mod n that an int or a pair of GLV halves stands for."""
    return (k[0] + k[1] * curve.GLV_LAMBDA) % N if isinstance(k, tuple) else k % N


@pytest.mark.parametrize("sizes, rounds", [((1,), False), ((3, 1, 2), False),
                                           ((32, 8, 8, 8, 8), True)])
def test_multi_output_pass_matches_separate_sums(sizes, rounds, monkeypatch):
    # each group of one g1_multi_exps pass sums as its own g1_multi_exp and
    # as plain double-and-add would; groups mix int scalars of every width
    # with ready GLV halves, zero and negative halves and a None base among
    # them, and the largest pass totals enough entries for affine rounds
    halves = [(RNG.getrandbits(40), RNG.getrandbits(40)) for _ in range(sum(sizes))]
    halves += [curve.glv_split(rand_scalar()), (-3, 9), (0, 7), (5, 0), (0, 0)]
    ints = itertools.cycle([rand_scalar(), (1 << 80) - 1, 0, N - 1, 1, RNG.randrange(1 << 80)])
    groups = []
    for size in sizes:
        bases = _random_bases(size)
        if size > 2:
            bases[1] = None
        groups.append((bases, [halves.pop() if i % 7 else next(ints) for i in range(size)]))
    took = []
    pair_off = intmath.CurveOps.pair_off

    def spied_pair_off(ops, adds):
        before = sum(map(len, adds))
        pair_off(ops, adds)
        took.append(sum(map(len, adds)) < before)

    monkeypatch.setattr(intmath.CurveOps, "pair_off", spied_pair_off)
    sums = curve.g1_multi_exps(groups)
    assert took == [rounds]
    monkeypatch.undo()
    assert len(sums) == len(groups)
    for total, (bases, scalars) in zip(sums, groups):
        values = list(map(_scalar_value, scalars))
        assert total == curve.g1_multi_exp(bases, values) == _naive_multi_exp(bases, values)


def test_multi_output_pass_takes_zero_halves_and_empty_groups():
    b, c = _random_bases(2)
    lam_b = curve.g1_mul(b, curve.GLV_LAMBDA)
    sums = curve.g1_multi_exps([([b], [(0, 0)]), ([], []), ([b, c], [(0, 1), (1, 0)]),
                                ([None], [(2, 3)]), ([b], [(1, 1)])])
    assert sums == [None, None, curve.G1.add(lam_b, c), None, curve.G1.add(b, lam_b)]
    with pytest.raises(ValueError):
        curve.g1_multi_exps([([b], [1]), ([c], [])])


def test_cached_combine_adds_once_per_bit(monkeypatch):
    # the affine rounds leave one entry per bit for add_mixed, over ~80
    # doublings: without them a 40-base combine made ~710 mixed additions
    # over ~160 doublings.  A round too small to repay its inversion is
    # skipped, which leaves fewer than 2 * fold_pairs entries more.
    bases = _random_bases(40)
    cached = curve.G1MultiExp(bases)
    scalars = [rand_scalar() for _ in bases]
    expected = cached.combine(scalars)
    calls = {"add_mixed": 0, "dbl": 0}

    def counted(name):
        op = getattr(curve.G1, name)

        def call(*args):
            calls[name] += 1
            return op(*args)

        return call

    monkeypatch.setattr(curve, "G1", curve.G1._replace(**{n: counted(n) for n in calls}))
    bits = 81  # GLV halves are below 2^80, and a width-w NAF may carry one bit more
    measured = curve.G1.fold_pairs
    for threshold, slack in ((1, 0), (measured, 2 * (measured - 1))):
        monkeypatch.setattr(intmath.CurveOps, "fold_pairs", threshold)
        calls.update(add_mixed=0, dbl=0)
        assert cached.combine(scalars) == expected
        # random bases leave no equal-x pairs behind
        assert calls["add_mixed"] <= bits + slack
        assert calls["dbl"] <= bits - 1


# --- GLV variable-base multiplication -----------------------------------------


def test_glv_endomorphism_relations():
    assert pow(curve.GLV_BETA, 3, P) == 1 != curve.GLV_BETA
    lam = curve.GLV_LAMBDA
    assert (lam * lam + lam + 1) % N == 0
    g = g1_generator().point
    assert _double_and_add(g, lam) == (curve.GLV_BETA * g[0] % P, g[1])


def _glv_scalars():
    lam = curve.GLV_LAMBDA
    edges = [0, 1, N - 1, N, N + 1, lam, N - lam, (1 << 80) - 1, 1 << 159]
    rng = random.Random(0x61F)
    return edges + [rng.randrange(N) for _ in range(500)]


def test_glv_split_identity_and_bound():
    halves = []
    for k in _glv_scalars():
        k1, k2 = curve.glv_split(k % N)
        assert (k1 + k2 * curve.GLV_LAMBDA - k) % N == 0
        assert abs(k1) < 1 << 80 and abs(k2) < 1 << 80
        halves.append((k1, k2))
    # the scalars reach every sign case of the two-row multiply
    assert {k1 == 0 for k1, _ in halves} == {True, False}
    assert {k2 == 0 for _, k2 in halves} == {True, False}
    assert any(k1 < 0 for k1, _ in halves) and any(k2 < 0 for _, k2 in halves)


def test_glv_split_rounds_as_exact_division():
    # Babai's roundings by multiplier and shift equal round(k v / n) by
    # division, also for the k that put k v / n within 1 / 2n of a
    # half-integer, where a multiplier of too few bits would round wrong
    v_short, v_long = curve._V_SHORT, curve._V_LONG
    edges = [(N + s) // 2 * pow(v, -1, N) % N for v in (v_short, v_long) for s in (1, -1)]
    for k in edges + _glv_scalars():
        k %= N
        r1 = (2 * k * v_short + N) // (2 * N)
        r2 = (2 * k * v_long + N) // (2 * N)
        assert curve.glv_split(k) == (k - r1 * v_short - r2 * (v_long + v_short),
                                      r1 * v_long - r2 * v_short)


def test_glv_mul_matches_double_and_add():
    b = _random_bases(1)[0]
    scalars = _glv_scalars()
    for k in scalars:
        assert curve.g1_mul(b, k) == _double_and_add(b, k % N)
    neg_b = curve.G1.negate(b)
    for k in scalars[:9]:
        assert curve.g1_mul(neg_b, k) == curve.G1.negate(curve.g1_mul(b, k))
        assert curve.g1_mul(None, k) is None


def test_variable_base_outputs_are_pinned():
    """BLS signatures, nc_sign signatures, SAV verdicts and G1Point.mul
    products for seeded keys, digested at the NAF double-and-add g1_mul
    that GLV replaced."""
    h = hashlib.sha256()
    rng = random.Random(0x6C5)
    keys = [keygen(SCHEME_BLS, rng=rng) for _ in range(3)]
    for i in range(12):
        h.update(sign(keys[i % 3], rng.randbytes(rng.randrange(1, 1200))).data)
    nc_key = nc_keygen(random.Random(0x6C6))
    gen = Generation(b"golden", n=4, m=2)
    content = random.Random(0x6C7).randbytes(gen.capacity())
    for v in split_and_augment(content, gen.n, gen.m):
        h.update(nc_sign(nc_key, gen, v).signature.to_bytes())
    sig = sign(keys[0], b"sav")
    for s in range(3):
        verdict = sav_verify(keys[0].public(), b"sav", sig, LocalPairingServer(),
                             rng=random.Random(s))
        h.update(bytes([verdict]))
    pt = G1Point(hash_to_g1(b"blind"))
    for d in (1, 2, (1 << 80) - 1, rng.randrange(1 << 80)):
        h.update(pt.mul(d).to_bytes())
    assert h.hexdigest() == (
        "10f560c64c26da526d6adeeb398463157066faa04c00386cfa2664cf142ef8c2"
    )


# --- hashing to G1 -----------------------------------------------------------


def test_hash_to_g1_lands_on_curve_and_is_deterministic():
    h1 = hash_to_g1(b"/snnu/images/a.jpg")
    h2 = hash_to_g1(b"/snnu/images/a.jpg")
    h3 = hash_to_g1(b"/snnu/images/b.jpg")
    assert g1_on_curve(h1)
    assert h1 == h2
    assert h1 != h3
    assert curve.g1_mul(h1, N) is None  # cofactor 1: always in the big subgroup


# --- tower internals ---------------------------------------------------------


def ref_f12_mul(x, y):
    """Schoolbook product over the coefficient view, f2_* helpers only."""
    g, h = fields.f12_to_coeffs(x), fields.f12_to_coeffs(y)
    out = [fields.F2_ZERO] * 6
    for i in range(6):
        for j in range(6):
            t = fields.f2_mul(g[i], h[j])
            if i + j >= 6:  # w^6 = xi
                t = fields.f2_mul_xi(t)
            out[(i + j) % 6] = fields.f2_add(out[(i + j) % 6], t)
    return fields.f12_from_coeffs(out)


def ref_f12_sqr(x):
    return ref_f12_mul(x, x)


def ref_mul_line(f, a, lam, nxp, c):
    """f * (a + b*w + c*w^3), b = lam * nxp, as a dense Fp12 product."""
    b = fields.f2_scal(lam, nxp)
    line = fields.f12_from_coeffs([(a, 0), b, fields.F2_ZERO, c, fields.F2_ZERO, fields.F2_ZERO])
    return ref_f12_mul(f, line)


EDGE = (0, 1, P - 1)


def rand_f12(pick):
    return fields.f12_from_coeffs([(pick(), pick()) for _ in range(6)])


def coefficient_pickers():
    """Seeded random coefficients, then coefficients from 0, 1 and P - 1 only."""
    rng = random.Random(0x11E)
    return [lambda: rng.randrange(P)] * 12 + [lambda: rng.choice(EDGE)] * 12


def test_f12_kernels_match_reference():
    for pick in coefficient_pickers():
        x, y = rand_f12(pick), rand_f12(pick)
        assert fields.f12_mul(x, y) == ref_f12_mul(x, y)
        assert fields.f12_sqr(x) == ref_f12_sqr(x)
    for v in EDGE:
        x = fields.f12_from_coeffs([(v, v)] * 6)
        assert fields.f12_mul(x, x) == ref_f12_mul(x, x)
        assert fields.f12_sqr(x) == ref_f12_sqr(x)


def test_sparse_line_multiply_matches_reference():
    for pick in coefficient_pickers():
        f = rand_f12(pick)
        a, nxp = pick(), pick()
        lam, c = (pick(), pick()), (pick(), pick())
        assert ate._mul_line(f, a, lam, nxp, c) == ref_mul_line(f, a, lam, nxp, c)
    for v in EDGE:
        f = fields.f12_from_coeffs([(v, v)] * 6)
        assert ate._mul_line(f, v, (v, v), v, (v, v)) == ref_mul_line(f, v, (v, v), v, (v, v))


def test_cyclotomic_squaring_matches_reference():
    for _ in range(4):
        u = rand_unitary()
        assert fields.gs_sqr(u) == ref_f12_sqr(u)
    for u in (GT_ONE, fields.f12_conj(gt_generator()), gt_generator()):
        assert fields.gs_sqr(u) == ref_f12_sqr(u)


def test_loop_digits_are_the_ate_naf():
    assert ate._LOOP_DIGITS == (
        0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0, 1, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0, 1, 0, 0, -1, 0, 0,
    )


def _sha256(f):
    return hashlib.sha256(gt_serialize(f)).hexdigest()


def test_pinned_pairing_values():
    assert _sha256(gt_generator()) == (
        "038f97a4a612bc0b05f644006e72308ead6abaeae3ec14b2cc285f2b2b12d8b1"
    )
    sk = 0x1234567890ABCDEF1234567890ABCDEF
    h = G1Point(hash_to_g1(b"/snnu/pinned"))
    # a signature under sk + 1, so the product is a fixed element, not 1
    pairs = [(h.mul(sk + 1), g2_generator()), (h.neg(), g2_generator().mul(sk))]
    norm = [ate._normalize_pair(p, q) for p, q in pairs]
    assert _sha256(ate._miller_many(norm)) == (
        "bf75545a05754a7fcab4b5e3b0a9f48438f98171eebd0c09855dcac3232edea4"
    )
    assert _sha256(pairing_product(pairs)) == (
        "7cd4b24510de2f52fcf4a0213324bc92a3fc30e199c3cfdf390201b0e8e2ec9a"
    )


def test_cyclotomic_squaring_matches_generic():
    for _ in range(4):
        u = rand_unitary()
        assert fields.gs_sqr(u) == fields.f12_sqr(u)


def _compressed(f):
    (_, g4, g3), (g2, _, g5) = f
    return (g2, g3, g4, g5)


def test_compressed_squaring_is_gs_sqr_in_compressed_coordinates():
    for u in [rand_unitary() for _ in range(4)] + [GT_ONE, gt_generator()]:
        assert fields.compressed_sqr(_compressed(u)) == _compressed(fields.gs_sqr(u))


def test_decompression_relations_hold_on_the_cyclotomic_subgroup():
    # decompress's two quotients for g1 are these relations solved for g1:
    #   4 g1 g2 = xi g5^2 + 3 g4^2 - 2 g3
    #   xi (g1 g3 - 2 g4 g5) = g2 (1 - g0), so g1 g3 = 2 g4 g5 at g2 = 0
    for _ in range(4):
        u = rand_unitary()
        (g0, g4, g3), (g2, g1, g5) = u
        rhs = f2_sub(f2_add(f2_mul_xi(f2_sqr(g5)), f2_scal(f2_sqr(g4), 3)), f2_scal(g3, 2))
        assert f2_scal(f2_mul(g1, g2), 4) == rhs
        lhs = f2_mul_xi(f2_sub(f2_mul(g1, g3), f2_scal(f2_mul(g4, g5), 2)))
        assert lhs == f2_mul(g2, f2_sub(F2_ONE, g0))
        assert fields.decompress([_compressed(u)]) == [u]


def test_decompression_branches_and_zero_denominators():
    # one batch mixing g2 != 0, g2 == 0 and the identity's all-zero
    # coordinates: each element gets its own quotient and the zero
    # denominator does not spoil the shared inversion
    us = [rand_unitary(), rand_unitary()]
    g3, g4, g5 = ((RNG.randrange(P), RNG.randrange(P)) for _ in range(3))
    no_g2 = ((0, 0), g3, g4, g5)
    out = fields.decompress([_compressed(us[0]), no_g2, _compressed(GT_ONE), _compressed(us[1])])
    assert out[0] == us[0] and out[2] == GT_ONE and out[3] == us[1]
    (g0, _, _), (_, g1, _) = out[1]
    assert f2_mul(g1, g3) == f2_scal(f2_mul(g4, g5), 2)
    s = f2_sub(f2_scal(f2_sqr(g1), 2), f2_scal(f2_mul(g3, g4), 3))
    assert g0 == f2_add(f2_mul_xi(s), F2_ONE)


def test_cyclotomic_exponentiation_matches_generic():
    u = rand_unitary()
    dense = (RNG.getrandbits(80), RNG.getrandbits(160))
    for e in (0, 1, 2, 3, 7, 16, fields.X_PARAM, N - 1) + dense:
        assert fields.cyc_exp(u, e) == f12_pow(u, e), e


def test_identity_exponentiations_are_exact():
    # the identity compresses to all zeros, so every decompression in these
    # divides by zero
    assert fields.cyc_exp(GT_ONE, fields.X_PARAM) == GT_ONE
    assert final_exponentiation(GT_ONE) == GT_ONE
    for e in (1, 2, 16, RNG.getrandbits(80), N - 1):
        assert gt_exp(GT_ONE, e) == GT_ONE


def test_final_exponentiation_squares_in_compressed_form(monkeypatch):
    counts = {"compressed_sqr": 0, "gs_sqr": 0}

    def counted(name, fn):
        def wrapper(x):
            counts[name] += 1
            return fn(x)
        return wrapper

    monkeypatch.setattr(fields, "compressed_sqr", counted("compressed_sqr", fields.compressed_sqr))
    gs = counted("gs_sqr", fields.gs_sqr)
    monkeypatch.setattr(fields, "gs_sqr", gs)
    monkeypatch.setattr(ate, "gs_sqr", gs)
    final_exponentiation(rand_unitary())
    # three powers by x at 38 squarings each, and the hard-part chain's four
    # gs_sqr, whose last two blocks are a compressed squaring each
    assert counts == {"compressed_sqr": 3 * 38 + 4, "gs_sqr": 4}


def test_final_exponentiation_matches_raw_exponent():
    raw = fields.f12_from_coeffs(
        [(RNG.randrange(P), RNG.randrange(P)) for _ in range(6)]
    )
    want = f12_pow(raw, (P**12 - 1) // N)
    assert final_exponentiation(raw) == want


# --- the pairing itself ------------------------------------------------------


def test_pairing_nondegenerate_and_order_n():
    e = pairing(g1_generator(), g2_generator())
    assert e != GT_ONE
    assert gt_exp(e, N) == GT_ONE
    assert e == gt_generator()


def test_pairing_bilinear():
    e = gt_generator()
    g1, g2 = g1_generator(), g2_generator()
    for _ in range(3):
        a, b = rand_scalar(), rand_scalar()
        assert pairing(g1.mul(a), g2.mul(b)) == gt_exp(e, a * b % N)
    assert pairing(g1.mul(2), g2) == gt_mul(e, e)


def test_pairing_with_identity_is_one():
    assert pairing(G1Point(None), g2_generator()) == GT_ONE
    assert pairing(g1_generator(), G2Point(None)) == GT_ONE


def test_prepared_pairing_matches_fresh():
    q = g2_generator().mul(rand_scalar())
    p = G1Point(hash_to_g1(b"prepared"))
    assert pairing(p, prepare_g2(q)) == pairing(p, q)


def test_pairing_product_matches_componentwise():
    g1, g2 = g1_generator(), g2_generator()
    pairs = [
        (g1.mul(rand_scalar()), g2.mul(rand_scalar())),
        (G1Point(hash_to_g1(b"x")), g2.mul(rand_scalar())),
        (g1.mul(rand_scalar()), g2),
    ]
    want = GT_ONE
    for p, q in pairs:
        want = gt_mul(want, pairing(p, q))
    assert pairing_product(pairs) == want


def test_pairing_product_cancellation():
    # the shape every verification equation reduces to
    sk = rand_scalar()
    pk = g2_generator().mul(sk)
    h = G1Point(hash_to_g1(b"msg"))
    sig = h.mul(sk)
    assert pairing_product([(sig, g2_generator()), (h.neg(), pk)]) == GT_ONE


def test_pairing_call_counter_tracks_pairs():
    g1, g2 = g1_generator(), g2_generator()
    # pairing() counts one pair, identities and prepared points included
    for p, q in [(g1, g2), (G1Point(None), g2), (g1, G2Point(None)), (g1, prepare_g2(g2))]:
        before = pairing_call_count()
        pairing(p, q)
        assert pairing_call_count() == before + 1
    before = pairing_call_count()
    pairing_product([(g1, g2)] * 3)
    assert pairing_call_count() == before + 3


def test_cold_gt_generator_counts_no_pairing():
    # server-aided verification exponentiates gt_generator() and must run
    # no pairing of its own (criterion 6), even when it computes e(g1, g2)
    want = gt_generator()
    gt_generator.cache_clear()
    before = pairing_call_count()
    assert gt_generator() == want
    assert pairing_call_count() == before
    assert gt_generator.cache_info().misses == 1


# --- encodings ---------------------------------------------------------------


def test_g1_point_bytes_round_trip():
    for _ in range(4):
        pt = g1_generator().mul(rand_scalar())
        blob = pt.to_bytes()
        assert len(blob) == 21
        assert G1Point.from_bytes(blob) == pt
    assert G1Point.from_bytes(G1Point(None).to_bytes()).is_identity()


def test_g2_point_bytes_round_trip():
    for _ in range(3):
        pt = g2_generator().mul(rand_scalar())
        blob = pt.to_bytes()
        assert len(blob) == 41
        assert G2Point.from_bytes(blob) == pt
    assert G2Point.from_bytes(G2Point(None).to_bytes()).is_identity()


def test_g1_from_bytes_rejects_garbage():
    with pytest.raises(ValueError):
        G1Point.from_bytes(b"\x05" + b"\x00" * 20)  # bad flag
    with pytest.raises(ValueError):
        G1Point.from_bytes(b"\x02" + P.to_bytes(20, "big"))  # x out of range
    with pytest.raises(ValueError):
        G1Point.from_bytes(b"\x02" * 20)  # wrong length
    # x with no curve point: search one deterministically
    x = 0
    while True:
        rhs = (x * x * x + curve.CURVE_B) % P
        y = pow(rhs, (P + 1) // 4, P)
        if y * y % P != rhs:
            break
        x += 1
    with pytest.raises(ValueError):
        G1Point.from_bytes(b"\x02" + x.to_bytes(20, "big"))


def test_g2_from_bytes_enforces_subgroup():
    # find a twist point outside the order-n subgroup and serialize it by hand
    for x, y in _raw_twist_points(5):
        if _twist_times((x, y), N) is None:
            continue
        blob = (
            bytes([0x02 | (y[0] & 1 if y[0] else y[1] & 1)])
            + x[0].to_bytes(20, "big")
            + x[1].to_bytes(20, "big")
        )
        with pytest.raises(ValueError):
            G2Point.from_bytes(blob)
        # the same point passes when the caller opts out, so the flag works
        assert G2Point.from_bytes(blob, check_subgroup=False).point == (x, y)
        return
    pytest.fail("no out-of-subgroup twist point found")


def test_gt_serialization_round_trip():
    e = gt_exp(gt_generator(), rand_scalar())
    blob = gt_serialize(e)
    assert len(blob) == 240
    assert gt_deserialize(blob) == e
    assert gt_mul(e, gt_inv(e)) == GT_ONE
    with pytest.raises(ValueError):
        gt_deserialize(blob[:-1])
