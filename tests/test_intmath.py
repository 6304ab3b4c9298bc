import random
import subprocess
import sys
from pathlib import Path

import pytest

from ndnkit.intmath import is_probable_prime, wnaf
from ndnkit.pairing import ate
from ndnkit.pairing.fields import N, X_PARAM
from ndnkit.signatures import dlgroup, ecdsa
from ndnkit.signatures.params import CURVES, DL_G, DL_P, DL_Q

ROOT = Path(__file__).resolve().parents[1]


# --- primality ---------------------------------------------------------------


def test_is_probable_prime_edge_cases():
    m61 = 2**61 - 1
    cases = {0: False, 1: False, 2: True, 3: True, 4: False, 561: False, m61: True,
             2 * m61: False}
    assert {n: is_probable_prime(n) for n in cases} == cases


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


def test_comb_rejects_a_negative_scalar():
    spec = CURVES["secp160r1"]
    for comb in (dlgroup._table(DL_G), ecdsa._comb(spec, spec.gx, spec.gy)):
        with pytest.raises(ValueError, match="negative scalar"):
            comb.mul(-1)
