"""Optimal ate pairing over the BN-160 tower.

The Miller loop runs over NAF(6x+2) (intmath.wnaf at w = 2, written out
one digit per bit once at import) with two Frobenius correction steps.
Lines are carried in sparse form l = a + b*w + c*w^3 with a in Fp and
b, c in Fp2, so a line-multiply costs 12 Fp2 products instead of a full
54-product Fp12 multiply.  The slope scaling b = lam * (-x_P) is folded
into the line multiply, which runs over plain ints and reduces each output
coefficient once.

All G2-side work (the point chain and the line slopes) depends only on Q,
so it is computed once per key by prepare_g2() and replayed against any
number of G1 arguments.  pairing_product() shares the per-step squarings
across pairs and performs a single final exponentiation, which is what
signature verification actually needs: e(a, b) == e(c, d) is checked as
e(a, b) * e(-c, d) == 1.  It is the one entry: pairing(p, q) is the
product of one pair.  Pairs are (G1Point, G2Point | PreparedG2).

The final exponentiation's easy part and hard-part chain take their
p-, p^2- and p^3-power maps from the one fields.f12_frob(x, j).
"""

from __future__ import annotations

from functools import lru_cache

from ..intmath import wnaf
from .curve import G1Point, G2Point, g1_generator, g2_generator, g2_psi
from .fields import (
    F12_ONE,
    P,
    X_PARAM,
    cyc_exp,
    f2_inv,
    f2_mul,
    f2_neg,
    f2_scal,
    f2_sqr,
    f2_sub,
    f12_conj,
    f12_frob,
    f12_inv,
    f12_mul,
    f12_sqr,
    gs_sqr,
)

_ATE_LOOP = 6 * X_PARAM + 2

# the NAF (wnaf at w = 2) written out MSB-first, with the leading digit
# dropped (the accumulator starts at Q)
_NAF_DIGITS = dict(wnaf(_ATE_LOOP, 2))
_LOOP_DIGITS = tuple(_NAF_DIGITS.get(j, 0) for j in range(max(_NAF_DIGITS) - 1, -1, -1))

_pairing_calls = 0


def pairing_call_count() -> int:
    """Monotonic count of (G1, G2) pairs fed through a Miller loop."""
    return _pairing_calls


class PreparedG2:
    """The (slope, intercept) sequence of a Miller loop, fixed per G2 point."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = coeffs  # None encodes the identity point


def _line_through(t, q):
    """Slope/intercept of the line through twist points t and q (t != +-q)."""
    lam = f2_mul(f2_sub(q[1], t[1]), f2_inv(f2_sub(q[0], t[0])))
    x3 = f2_sub(f2_sub(f2_sqr(lam), t[0]), q[0])
    y3 = f2_sub(f2_mul(lam, f2_sub(t[0], x3)), t[1])
    c = f2_sub(f2_mul(lam, q[0]), q[1])
    return lam, c, (x3, y3)


def _line_tangent(t):
    lam = f2_mul(f2_scal(f2_sqr(t[0]), 3), f2_inv(f2_scal(t[1], 2)))
    x3 = f2_sub(f2_sqr(lam), f2_scal(t[0], 2))
    y3 = f2_sub(f2_mul(lam, f2_sub(t[0], x3)), t[1])
    c = f2_sub(f2_mul(lam, t[0]), t[1])
    return lam, c, (x3, y3)


@lru_cache(maxsize=128)
def prepare_g2(point: G2Point) -> PreparedG2:
    """Precompute the Miller-loop line coefficients for a G2 point, memoized
    per point (per public key, and the generator)."""
    q = point.point
    if q is None:
        return PreparedG2(None)
    coeffs = []
    neg_q = (q[0], f2_neg(q[1]))
    t = q
    for d in _LOOP_DIGITS:
        lam, c, t = _line_tangent(t)
        coeffs.append((lam, c))
        if d:
            lam, c, t = _line_through(t, q if d == 1 else neg_q)
            coeffs.append((lam, c))
    q1 = g2_psi(q)
    q2 = g2_psi(q1)
    q2 = (q2[0], f2_neg(q2[1]))
    lam, c, t = _line_through(t, q1)
    coeffs.append((lam, c))
    lam, c, t = _line_through(t, q2)
    coeffs.append((lam, c))
    return PreparedG2(tuple(coeffs))


def _mul_line(f, a, lam, nxp, c):
    """f * (a + b*w + c*w^3) with b = lam * nxp; a, nxp in Fp, lam, c in Fp2.

    With f = sum g_k w^k (g_k in Fp2) and w^6 = xi:
      h0 = a g0 + xi (g5 b + g3 c)   h3 = a g3 + g2 b + g0 c
      h1 = a g1 + g0 b + xi g4 c     h4 = a g4 + g3 b + g1 c
      h2 = a g2 + g1 b + xi g5 c     h5 = a g5 + g4 b + g2 c
    The 12 Fp2 products are Karatsuba and left unreduced; each output
    coefficient is reduced once.
    """
    ((g00, g01), (g20, g21), (g40, g41)), ((g10, g11), (g30, g31), (g50, g51)) = f
    b0 = lam[0] * nxp % P
    b1 = lam[1] * nxp % P
    c0, c1 = c
    bs = b0 + b1
    cs = c0 + c1

    # g_k * b
    m = g00 * b0
    n = g01 * b1
    b00, b01 = m - n, (g00 + g01) * bs - m - n
    m = g10 * b0
    n = g11 * b1
    b10, b11 = m - n, (g10 + g11) * bs - m - n
    m = g20 * b0
    n = g21 * b1
    b20, b21 = m - n, (g20 + g21) * bs - m - n
    m = g30 * b0
    n = g31 * b1
    b30, b31 = m - n, (g30 + g31) * bs - m - n
    m = g40 * b0
    n = g41 * b1
    b40, b41 = m - n, (g40 + g41) * bs - m - n
    m = g50 * b0
    n = g51 * b1
    b50, b51 = m - n, (g50 + g51) * bs - m - n

    # g_k * c
    m = g00 * c0
    n = g01 * c1
    c00, c01 = m - n, (g00 + g01) * cs - m - n
    m = g10 * c0
    n = g11 * c1
    c10, c11 = m - n, (g10 + g11) * cs - m - n
    m = g20 * c0
    n = g21 * c1
    c20, c21 = m - n, (g20 + g21) * cs - m - n
    m = g30 * c0
    n = g31 * c1
    c30, c31 = m - n, (g30 + g31) * cs - m - n
    m = g40 * c0
    n = g41 * c1
    c40, c41 = m - n, (g40 + g41) * cs - m - n
    m = g50 * c0
    n = g51 * c1
    c50, c51 = m - n, (g50 + g51) * cs - m - n

    # xi (s0, s1) = (s0 - s1, s0 + s1)
    s0 = b50 + c30
    s1 = b51 + c31
    return (
        (
            ((a * g00 + s0 - s1) % P, (a * g01 + s0 + s1) % P),
            ((a * g20 + b10 + c50 - c51) % P, (a * g21 + b11 + c50 + c51) % P),
            ((a * g40 + b30 + c10) % P, (a * g41 + b31 + c11) % P),
        ),
        (
            ((a * g10 + b00 + c40 - c41) % P, (a * g11 + b01 + c40 + c41) % P),
            ((a * g30 + b20 + c00) % P, (a * g31 + b21 + c01) % P),
            ((a * g50 + b40 + c20) % P, (a * g51 + b41 + c21) % P),
        ),
    )


def _normalize_pair(p: G1Point, q):
    """Reduce a (G1Point, G2Point | PreparedG2) pair to (affine G1 tuple |
    None, PreparedG2)."""
    return p.point, q if isinstance(q, PreparedG2) else prepare_g2(q)


def _miller_many(pairs):
    """Shared-squaring Miller loop over [(p_affine, PreparedG2), ...]."""
    live = []
    for p, q in pairs:
        if p is None or q.coeffs is None:
            continue
        xp, yp = p
        live.append((yp, (-xp) % P, q.coeffs))
    if not live:
        return F12_ONE
    f = F12_ONE
    idx = 0
    for d in _LOOP_DIGITS:
        if idx:  # the first squaring would square F12_ONE
            f = f12_sqr(f)
        for yp, nxp, coeffs in live:
            lam, c = coeffs[idx]
            f = _mul_line(f, yp, lam, nxp, c)
        idx += 1
        if d:
            for yp, nxp, coeffs in live:
                lam, c = coeffs[idx]
                f = _mul_line(f, yp, lam, nxp, c)
            idx += 1
    for _ in range(2):
        for yp, nxp, coeffs in live:
            lam, c = coeffs[idx]
            f = _mul_line(f, yp, lam, nxp, c)
        idx += 1
    return f


def final_exponentiation(f):
    """f^((p^12 - 1)/n): the easy quotient then the hard-part addition chain."""
    # easy: f^((p^6 - 1)(p^2 + 1)) lands in the cyclotomic subgroup
    t = f12_mul(f12_conj(f), f12_inv(f))
    f = f12_mul(f12_frob(t, 2), t)
    # hard: f^((p^4 - p^2 + 1)/n), x-power chain with free cyclotomic inverses
    fx = cyc_exp(f, X_PARAM)
    fx2 = cyc_exp(fx, X_PARAM)
    fx3 = cyc_exp(fx2, X_PARAM)
    y0 = f12_mul(f12_mul(f12_frob(f, 1), f12_frob(f, 2)), f12_frob(f, 3))
    y1 = f12_conj(f)
    y2 = f12_frob(fx2, 2)
    y3 = f12_conj(f12_frob(fx, 1))
    y4 = f12_conj(f12_mul(fx, f12_frob(fx2, 1)))
    y5 = f12_conj(fx2)
    y6 = f12_conj(f12_mul(fx3, f12_frob(fx3, 1)))
    t0 = f12_mul(f12_mul(gs_sqr(y6), y4), y5)
    t1 = f12_mul(f12_mul(y3, y5), t0)
    t0 = f12_mul(t0, y2)
    t1 = f12_mul(gs_sqr(t1), t0)
    t1 = gs_sqr(t1)
    t0 = f12_mul(t1, y1)
    t1 = f12_mul(t1, y0)
    return f12_mul(gs_sqr(t0), t1)


def pairing_product(pairs):
    """prod e(p_i, q_i) with shared squarings and one final exponentiation."""
    global _pairing_calls
    norm = [_normalize_pair(p, q) for p, q in pairs]
    _pairing_calls += len(norm)
    return final_exponentiation(_miller_many(norm))


def pairing(p, q):
    """e(p, q) for a G1Point p and a G2Point or PreparedG2 q."""
    return pairing_product([(p, q)])


@lru_cache(maxsize=1)
def gt_generator():
    """e(g1, g2), computed once; it counts as no pairing, so verifiers that
    only exponentiate it (server-aided verification) run none."""
    return final_exponentiation(
        _miller_many([(g1_generator().point, prepare_g2(g2_generator()))])
    )
