#!/usr/bin/env python3
"""Generate the embedded Schnorr-group parameters (1024-bit p, 160-bit q, g).

Writes the constants that live in ndnkit/signatures/params.py.  Run once;
the output is committed so that keys and benchmarks are reproducible across
installs.  Regenerating changes every DSA/group/ring key, so don't.
"""

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from ndnkit.intmath import is_probable_prime  # noqa: E402


def main():
    rng = random.Random(0x4E444E)  # deterministic so the run is reproducible
    while True:
        q = rng.getrandbits(160) | (1 << 159) | 1
        if is_probable_prime(q):
            break
    print(f"q = {q:#x}", file=sys.stderr)
    # p = q*m + 1 with m even, p exactly 1024 bits
    while True:
        m = rng.getrandbits(1024 - 160) & ~1
        p = q * m + 1
        if p.bit_length() != 1024:
            continue
        if is_probable_prime(p):
            break
    print(f"p found, {p.bit_length()} bits", file=sys.stderr)
    for h in range(2, 100):
        g = pow(h, (p - 1) // q, p)
        if g != 1:
            break
    assert pow(g, q, p) == 1
    print(f"P = {p:#x}")
    print(f"Q = {q:#x}")
    print(f"G = {g:#x}")


if __name__ == "__main__":
    main()
