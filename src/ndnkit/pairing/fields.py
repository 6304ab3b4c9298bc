"""Extension-field tower for the BN-160 pairing.

    Fp2  = Fp[i]/(i^2 + 1)          elements (a, b) = a + b*i
    Fp6  = Fp2[v]/(v^3 - xi)        elements (c0, c1, c2), xi = 1 + i
    Fp12 = Fp6[w]/(w^2 - v)         elements (d0, d1), so w^6 = xi

The curve parameter x is positive with NAF weight 5, which the cyclotomic
exponentiation cyc_exp exploits.  It squares in Karabina's compressed form,
four of the six Fp2 coefficients, and decompresses only the powers at the
nonzero NAF digits, all of them with one Fp inversion; inversion is
conjugation there, so negative digits are free.  Each of the final
exponentiation's three powers by x takes 38 compressed squarings,
4 decompressions and 4 products.  The compressed formulas, like
Granger-Scott's, hold in the cyclotomic subgroup only: an element that is
merely unitary squares wrongly.

The hot-path kernels are written out over plain ints: f6_mul, which leaves
its coefficients unreduced for its caller to reduce once, f12_mul and
f12_sqr (the Miller loop's squarings and the final exponentiation's
products, with the Fp6 sums, the multiply by v and the recombination
inlined around f6_mul), and the cyclotomic ops compressed_sqr, decompress
and gs_sqr.  One Frobenius, f12_frob(x, j), raises to p^j for j = 1, 2, 3.
The readable Fp2-level helpers serve setup code and tests.
"""

from ..intmath import invert_all, wnaf

# BN parameter and derived primes.  p = 36x^4+36x^3+24x^2+6x+1, n = p - 6x^2.
X_PARAM = 0x5FFDFFFFEF
P = 36 * X_PARAM**4 + 36 * X_PARAM**3 + 24 * X_PARAM**2 + 6 * X_PARAM + 1
N = 36 * X_PARAM**4 + 36 * X_PARAM**3 + 18 * X_PARAM**2 + 6 * X_PARAM + 1

assert P % 4 == 3 and P % 6 == 1

F2_ZERO = (0, 0)
F2_ONE = (1, 0)
XI = (1, 1)

F6_ZERO = (F2_ZERO, F2_ZERO, F2_ZERO)
F6_ONE = (F2_ONE, F2_ZERO, F2_ZERO)

F12_ONE = (F6_ONE, F6_ZERO)
GT_ONE = F12_ONE


# --- Fp2 helpers (cold paths) ------------------------------------------------


def f2_add(x, y):
    return ((x[0] + y[0]) % P, (x[1] + y[1]) % P)


def f2_sub(x, y):
    return ((x[0] - y[0]) % P, (x[1] - y[1]) % P)


def f2_neg(x):
    return ((-x[0]) % P, (-x[1]) % P)


def f2_mul(x, y):
    a0, a1 = x
    b0, b1 = y
    m0 = a0 * b0
    m1 = a1 * b1
    return ((m0 - m1) % P, ((a0 + a1) * (b0 + b1) - m0 - m1) % P)


def f2_sqr(x):
    a0, a1 = x
    return ((a0 + a1) * (a0 - a1) % P, 2 * a0 * a1 % P)


def f2_scal(x, c):
    return (x[0] * c % P, x[1] * c % P)


def f2_conj(x):
    return (x[0], (-x[1]) % P)


def f2_inv(x):
    a0, a1 = x
    d = pow(a0 * a0 + a1 * a1, -1, P)
    return (a0 * d % P, (-a1) * d % P)


def f2_mul_xi(x):
    a0, a1 = x
    return ((a0 - a1) % P, (a0 + a1) % P)


def f2_pow(x, e):
    r = F2_ONE
    for bit in bin(e)[2:]:
        r = f2_sqr(r)
        if bit == "1":
            r = f2_mul(r, x)
    return r


def f2_sqrt(a):
    """Square root in Fp2 or None.  Uses the norm trick for p = 3 mod 4."""
    a0, a1 = a
    if a1 == 0:
        r = pow(a0, (P + 1) // 4, P)
        if r * r % P == a0 % P:
            return (r, 0)
        r = pow((-a0) % P, (P + 1) // 4, P)
        if r * r % P == (-a0) % P:
            return (0, r)
        return None
    nrm = (a0 * a0 + a1 * a1) % P
    s = pow(nrm, (P + 1) // 4, P)
    if s * s % P != nrm:
        return None
    inv2 = (P + 1) // 2
    for sign in (1, -1):
        t = (a0 + sign * s) * inv2 % P
        x0 = pow(t, (P + 1) // 4, P)
        if x0 * x0 % P == t and x0 != 0:
            x1 = a1 * pow(2 * x0, -1, P) % P
            if f2_sqr((x0, x1)) == (a0 % P, a1 % P):
                return (x0, x1)
    return None


# --- Fp6 ---------------------------------------------------------------------


def f6_mul(a, b):
    """Karatsuba product, 6 complex multiplications, fully inlined.  The
    coefficients come back unreduced: every caller reduces what it builds
    from them, once."""
    (a00, a01), (a10, a11), (a20, a21) = a
    (b00, b01), (b10, b11), (b20, b21) = b
    # t_k = a_k * b_k
    m = a00 * b00
    n_ = a01 * b01
    t00 = m - n_
    t01 = (a00 + a01) * (b00 + b01) - m - n_
    m = a10 * b10
    n_ = a11 * b11
    t10 = m - n_
    t11 = (a10 + a11) * (b10 + b11) - m - n_
    m = a20 * b20
    n_ = a21 * b21
    t20 = m - n_
    t21 = (a20 + a21) * (b20 + b21) - m - n_
    # u = (a1+a2)(b1+b2), v = (a0+a1)(b0+b1), w = (a0+a2)(b0+b2)
    s0, s1 = a10 + a20, a11 + a21
    z0, z1 = b10 + b20, b11 + b21
    m = s0 * z0
    n_ = s1 * z1
    u0 = m - n_
    u1 = (s0 + s1) * (z0 + z1) - m - n_
    s0, s1 = a00 + a10, a01 + a11
    z0, z1 = b00 + b10, b01 + b11
    m = s0 * z0
    n_ = s1 * z1
    v0 = m - n_
    v1 = (s0 + s1) * (z0 + z1) - m - n_
    s0, s1 = a00 + a20, a01 + a21
    z0, z1 = b00 + b20, b01 + b21
    m = s0 * z0
    n_ = s1 * z1
    w0 = m - n_
    w1 = (s0 + s1) * (z0 + z1) - m - n_
    # r0 = t0 + xi*(u - t1 - t2); xi*(c0,c1) = (c0-c1, c0+c1)
    c0 = u0 - t10 - t20
    c1 = u1 - t11 - t21
    return (
        (t00 + c0 - c1, t01 + c0 + c1),
        # r1 = v - t0 - t1 + xi*t2
        (v0 - t00 - t10 + t20 - t21, v1 - t01 - t11 + t20 + t21),
        # r2 = w - t0 - t2 + t1
        (w0 - t00 - t20 + t10, w1 - t01 - t21 + t11),
    )


def f6_sub(a, b):
    return (
        ((a[0][0] - b[0][0]) % P, (a[0][1] - b[0][1]) % P),
        ((a[1][0] - b[1][0]) % P, (a[1][1] - b[1][1]) % P),
        ((a[2][0] - b[2][0]) % P, (a[2][1] - b[2][1]) % P),
    )


def f6_neg(a):
    return (
        ((-a[0][0]) % P, (-a[0][1]) % P),
        ((-a[1][0]) % P, (-a[1][1]) % P),
        ((-a[2][0]) % P, (-a[2][1]) % P),
    )


def f6_mul_v(a):
    c0, c1, c2 = a
    return (f2_mul_xi(c2), c0, c1)


def f6_inv(a):
    c0, c1, c2 = a
    aa = f2_sub(f2_sqr(c0), f2_mul_xi(f2_mul(c1, c2)))
    bb = f2_sub(f2_mul_xi(f2_sqr(c2)), f2_mul(c0, c1))
    cc = f2_sub(f2_sqr(c1), f2_mul(c0, c2))
    den = f2_add(f2_mul(c0, aa), f2_mul_xi(f2_add(f2_mul(c2, bb), f2_mul(c1, cc))))
    di = f2_inv(den)
    return (f2_mul(aa, di), f2_mul(bb, di), f2_mul(cc, di))


# --- Fp12 --------------------------------------------------------------------


def f12_mul(x, y):
    """Karatsuba over Fp6: three f6_mul, with the sums, the v-multiply and
    the recombination written out.  (a0 + a1 w)(b0 + b1 w) with w^2 = v is
    (t0 + v t1) + ((a0 + a1)(b0 + b1) - t0 - t1) w, t_k = a_k b_k."""
    a0, a1 = x
    b0, b1 = y
    (p00, p01), (p10, p11), (p20, p21) = a0
    (q00, q01), (q10, q11), (q20, q21) = a1
    (r00, r01), (r10, r11), (r20, r21) = b0
    (s00, s01), (s10, s11), (s20, s21) = b1
    (t00, t01), (t10, t11), (t20, t21) = f6_mul(a0, b0)
    (u00, u01), (u10, u11), (u20, u21) = f6_mul(a1, b1)
    (c00, c01), (c10, c11), (c20, c21) = f6_mul(
        ((p00 + q00, p01 + q01), (p10 + q10, p11 + q11), (p20 + q20, p21 + q21)),
        ((r00 + s00, r01 + s01), (r10 + s10, r11 + s11), (r20 + s20, r21 + s21)),
    )
    # v * (u0, u1, u2) = (xi u2, u0, u1); xi (c0, c1) = (c0 - c1, c0 + c1)
    return (
        (
            ((t00 + u20 - u21) % P, (t01 + u20 + u21) % P),
            ((t10 + u00) % P, (t11 + u01) % P),
            ((t20 + u10) % P, (t21 + u11) % P),
        ),
        (
            ((c00 - t00 - u00) % P, (c01 - t01 - u01) % P),
            ((c10 - t10 - u10) % P, (c11 - t11 - u11) % P),
            ((c20 - t20 - u20) % P, (c21 - t21 - u21) % P),
        ),
    )


def f12_sqr(x):
    """Complex squaring: two f6_mul with the sums, the v-multiplies and the
    recombination written out.  (a0 + a1 w)^2 with w^2 = v is
    ((a0 + a1)(a0 + v a1) - t - v t) + 2t w, t = a0 a1."""
    a0, a1 = x
    (p00, p01), (p10, p11), (p20, p21) = a0
    (q00, q01), (q10, q11), (q20, q21) = a1
    (t00, t01), (t10, t11), (t20, t21) = f6_mul(a0, a1)
    (m00, m01), (m10, m11), (m20, m21) = f6_mul(
        ((p00 + q00, p01 + q01), (p10 + q10, p11 + q11), (p20 + q20, p21 + q21)),
        # a0 + v a1 = (a0_0 + xi a1_2, a0_1 + a1_0, a0_2 + a1_1)
        ((p00 + q20 - q21, p01 + q20 + q21), (p10 + q00, p11 + q01), (p20 + q10, p21 + q11)),
    )
    return (
        (
            ((m00 - t00 - t20 + t21) % P, (m01 - t01 - t20 - t21) % P),
            ((m10 - t10 - t00) % P, (m11 - t11 - t01) % P),
            ((m20 - t20 - t10) % P, (m21 - t21 - t11) % P),
        ),
        (
            (2 * t00 % P, 2 * t01 % P),
            (2 * t10 % P, 2 * t11 % P),
            (2 * t20 % P, 2 * t21 % P),
        ),
    )


def f12_conj(x):
    return (x[0], f6_neg(x[1]))


def f12_inv(x):
    a0, a1 = x
    den = f6_sub(f6_mul(a0, a0), f6_mul_v(f6_mul(a1, a1)))
    di = f6_inv(den)
    return (tuple((c0 % P, c1 % P) for c0, c1 in f6_mul(a0, di)), f6_neg(f6_mul(a1, di)))


# coefficient view: f = sum g_k w^k with g_k in Fp2,
# (d0, d1) = ((g0, g2, g4), (g1, g3, g5))


def f12_to_coeffs(x):
    (g0, g2, g4), (g1, g3, g5) = x
    return (g0, g1, g2, g3, g4, g5)


def f12_from_coeffs(g):
    return ((g[0], g[2], g[4]), (g[1], g[3], g[5]))


# Frobenius constants: the p^j-power map scales coefficient g_k by
# gamma_j[k] = xi^(k (p^j - 1)/6).  gamma_2[k] = gamma_1[k]^(p + 1) is
# conj(gamma_1[k]) gamma_1[k], an element of Fp, and gamma_3 = gamma_2 gamma_1.
GAMMA1 = tuple(f2_pow(XI, k * (P - 1) // 6) for k in range(6))
_GAMMA2 = tuple(f2_mul(f2_conj(g), g) for g in GAMMA1)
_FROB_GAMMA = {1: GAMMA1, 2: _GAMMA2, 3: tuple(f2_mul(a, b) for a, b in zip(_GAMMA2, GAMMA1))}


def f12_frob(x, j):
    """x^(p^j) for j = 1, 2, 3: conjugate each coefficient when j is odd
    (the p-power map of Fp2), then scale g_k by xi^(k (p^j - 1)/6)."""
    g = f12_to_coeffs(x)
    if j & 1:
        g = map(f2_conj, g)
    return f12_from_coeffs([f2_mul(c, gamma) for c, gamma in zip(g, _FROB_GAMMA[j])])


# --- cyclotomic subgroup ops -------------------------------------------------
#
# These need f in the cyclotomic subgroup, the image of the map
# f -> f^((p^6 - 1)(p^2 + 1)) that opens the final exponentiation: GT and
# the hard part's inputs.  Being unitary (f^(p^6 + 1) = 1) is not enough.
# Karabina's coordinates name f's coefficients g0..g5 as those of
# 1, w^3, w, w^4, w^2, w^5, so f = ((g0, g4, g3), (g2, g1, g5)).


def gs_sqr(x):
    """Granger-Scott squaring of a cyclotomic element.

    Blocks (g0,g1),(g2,g3),(g4,g5) are squared in Fp4 = Fp2[s]/(s^2 - xi),
    s = w^3:
      (a + b s)^2 = (a^2 + xi b^2) + 2ab s,   2ab = (a + b)^2 - a^2 - b^2
    (three Fp2 squarings per block).  With A the square of the first block,
    g0' = 3 A0 - 2 g0 and g1' = 3 A1 + 2 g1; the other two blocks are the
    compressed squaring.
    """
    ((g00, g01), (g40, g41), (g30, g31)), ((g20, g21), (g10, g11), (g50, g51)) = x
    a0 = (g00 + g01) * (g00 - g01)
    a1 = 2 * g00 * g01
    b0 = (g10 + g11) * (g10 - g11)
    b1 = 2 * g10 * g11
    s0 = g00 + g10
    s1 = g01 + g11
    h0 = ((3 * (a0 + b0 - b1) - 2 * g00) % P, (3 * (a1 + b0 + b1) - 2 * g01) % P)
    h1 = (
        (3 * ((s0 + s1) * (s0 - s1) - a0 - b0) + 2 * g10) % P,
        (3 * (2 * s0 * s1 - a1 - b1) + 2 * g11) % P,
    )
    h2, h3, h4, h5 = compressed_sqr(((g20, g21), (g30, g31), (g40, g41), (g50, g51)))
    return ((h0, h4, h3), (h2, h1, h5))


def compressed_sqr(c):
    """Karabina's squaring of c = (g2, g3, g4, g5), a cyclotomic element
    without g0 and g1: those two never feed the other four, so a run of
    squarings carries four coefficients and squares two Fp4 blocks,
      g2' = 2 g2 + 3 xi (2 g4 g5)       g3' = 3 (g4^2 + xi g5^2) - 2 g3
      g4' = 3 (g2^2 + xi g3^2) - 2 g4   g5' = 2 g5 + 3 (2 g2 g3)
    six Fp2 squarings against gs_sqr's nine (Karabina, "Squaring in
    cyclotomic subgroups", Math. Comp. 2013)."""
    ((g20, g21), (g30, g31), (g40, g41), (g50, g51)) = c

    # (g2 + g3 s)^2
    a0 = (g20 + g21) * (g20 - g21)
    a1 = 2 * g20 * g21
    b0 = (g30 + g31) * (g30 - g31)
    b1 = 2 * g30 * g31
    s0 = g20 + g30
    s1 = g21 + g31
    h4 = ((3 * (a0 + b0 - b1) - 2 * g40) % P, (3 * (a1 + b0 + b1) - 2 * g41) % P)
    h5 = (
        (3 * ((s0 + s1) * (s0 - s1) - a0 - b0) + 2 * g50) % P,
        (3 * (2 * s0 * s1 - a1 - b1) + 2 * g51) % P,
    )

    # (g4 + g5 s)^2; g2' takes xi (2 g4 g5) = (c0 - c1, c0 + c1)
    a0 = (g40 + g41) * (g40 - g41)
    a1 = 2 * g40 * g41
    b0 = (g50 + g51) * (g50 - g51)
    b1 = 2 * g50 * g51
    s0 = g40 + g50
    s1 = g41 + g51
    c0 = (s0 + s1) * (s0 - s1) - a0 - b0
    c1 = 2 * s0 * s1 - a1 - b1
    h2 = ((3 * (c0 - c1) + 2 * g20) % P, (3 * (c0 + c1) + 2 * g21) % P)
    h3 = ((3 * (a0 + b0 - b1) - 2 * g30) % P, (3 * (a1 + b0 + b1) - 2 * g31) % P)
    return (h2, h3, h4, h5)


def decompress(cs):
    """The cyclotomic elements with compressed coordinates cs, with one Fp
    inversion for the whole list.  Each g1 is a quotient,
      g1 = (xi g5^2 + 3 g4^2 - 2 g3) / (4 g2)   if g2 != 0,
      g1 = 2 g4 g5 / g3                         if g2 == 0,
    and g0 = xi (2 g1^2 + g2 g5 - 3 g3 g4) + 1.  A denominator d is inverted
    as conj(d) / |d|^2, and the norms |d|^2 in Fp share invert_all.  Only the
    identity has g2 = g3 = 0; its zero denominator takes norm 1 in the batch,
    and g1 = 0, g0 = 1 come out exactly."""
    quotients = []  # num * conj(den), and |den|^2
    for (g20, g21), (g30, g31), (g40, g41), (g50, g51) in cs:
        if g20 or g21:
            m = (g50 + g51) * (g50 - g51)
            n = 2 * g50 * g51
            n0 = m - n + 3 * (g40 + g41) * (g40 - g41) - 2 * g30
            n1 = m + n + 6 * g40 * g41 - 2 * g31
            d0, d1 = 4 * g20, 4 * g21
        else:
            m = g40 * g50
            n = g41 * g51
            n0, n1 = 2 * (m - n), 2 * ((g40 + g41) * (g50 + g51) - m - n)
            d0, d1 = g30, g31
        norm = (d0 * d0 + d1 * d1) % P
        quotients.append(((n0 * d0 + n1 * d1) % P, (n1 * d0 - n0 * d1) % P, norm or 1))
    out = []
    for c, (q0, q1, _), t in zip(cs, quotients, invert_all([q[2] for q in quotients], P)):
        (g20, g21), (g30, g31), (g40, g41), (g50, g51) = g2, g3, g4, g5 = c
        g10 = q0 * t % P
        g11 = q1 * t % P
        # s = 2 g1^2 + g2 g5 - 3 g3 g4; g0 = xi s + 1
        m = g20 * g50
        n = g21 * g51
        u = g30 * g40
        v = g31 * g41
        s0 = 2 * (g10 + g11) * (g10 - g11) + m - n - 3 * (u - v)
        s1 = 4 * g10 * g11 + (g20 + g21) * (g50 + g51) - m - n
        s1 -= 3 * ((g30 + g31) * (g40 + g41) - u - v)
        g0 = ((s0 - s1 + 1) % P, (s0 + s1) % P)
        out.append(((g0, g4, g3), (g2, (g10, g11), g5)))
    return out


def cyc_exp(f, e):
    """f^e for f in the cyclotomic subgroup and e >= 0.

    One run of compressed squarings takes (g2, g3, g4, g5) of f up to the
    top NAF digit of e (intmath.wnaf at w = 2) and keeps the compressed
    f^(2^j) at each nonzero digit position j > 0.  decompress restores them
    all with one inversion, and they are multiplied together, with f itself
    for a digit at j = 0.  A digit -1 takes the conjugate, which is the
    inverse here, so negative digits are free.  A leading 1 0 -1 is
    rewritten 1 1 (2^t - 2^(t-2) = 2^(t-1) + 2^(t-2)), one squaring fewer at
    the same weight: x = 2^39 - 2^37 - 2^25 - 2^4 - 1 takes 38 squarings and
    4 decompressions.  Squarings save about a third of their cost, and each
    digit adds a decompression, so a random exponent, a digit per three
    bits, gains less than x does.
    """
    if e == 0:
        return F12_ONE
    digits = wnaf(e, 2)
    if len(digits) > 1 and digits[-1][1] == 1 and digits[-2] == (digits[-1][0] - 2, -1):
        top = digits[-1][0]
        digits[-2:] = [(top - 2, 1), (top - 1, 1)]
    (_, g4, g3), (g2, _, g5) = f
    c = (g2, g3, g4, g5)
    kept = []
    at = 0
    for j, _ in digits:
        if j:
            for _ in range(j - at):
                c = compressed_sqr(c)
            at = j
            kept.append(c)
    powers = decompress(kept)
    if digits[0][0] == 0:
        powers.insert(0, f)
    r, *rest = (g if d == 1 else f12_conj(g) for (_, d), g in zip(digits, powers))
    for g in rest:
        r = f12_mul(r, g)
    return r


# --- GT public helpers -------------------------------------------------------

gt_mul = f12_mul
gt_inv = f12_conj  # GT elements are unitary


def gt_exp(f, e):
    e %= N
    return cyc_exp(f, e)


def gt_serialize(f) -> bytes:
    g = f12_to_coeffs(f)
    out = bytearray()
    for c in g:
        out += c[0].to_bytes(20, "big")
        out += c[1].to_bytes(20, "big")
    return bytes(out)


def gt_deserialize(blob: bytes):
    if len(blob) != 240:
        raise ValueError("GT element must be 240 bytes")
    vals = [int.from_bytes(blob[i : i + 20], "big") for i in range(0, 240, 20)]
    for v in vals:
        if v >= P:
            raise ValueError("GT coefficient out of range")
    g = tuple((vals[2 * k], vals[2 * k + 1]) for k in range(6))
    return f12_from_coeffs(g)
