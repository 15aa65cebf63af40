"""Check the benchmark oracle against 30-digit mpmath quadrature.

    python3 perfbench/oracle_selftest.py

The two points are valid curve points at which fucik's projection_defect
refuses with ArithmeticError: its direct defect and its distance-identity
route differ by more than the 1e-11 check limit.  Here the oracle's defect
must agree with mpmath to 1e-13, so the oracle can judge those points.
Exit code 0 on agreement, 1 otherwise.
"""

from __future__ import annotations

import os
import sys

import mpmath as mp

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle  # noqa: E402

POINTS = ((13, 173.17302161159537), (26, 984.02589401446))
TOL = 1e-13


def mp_defect(n: int, alpha: float):
    """1 - <f, e_n>^2 / |f|^2 with every arc integrated at 30 digits."""
    mp.mp.dps = 30
    a = mp.mpf(alpha)
    n_pos, n_neg = (n + 1) // 2, n // 2
    sa = mp.sqrt(a)
    sb = n_neg / (1 - n_pos / sa)
    amp = {True: mp.sqrt(2 / mp.pi) * min(1, sb / sa), False: mp.sqrt(2 / mp.pi) * min(1, sa / sb)}
    ip, nsq, x0 = mp.mpf(0), mp.mpf(0), mp.mpf(0)
    for j in range(n):
        pos = j % 2 == 0
        w = sa if pos else sb
        x1 = x0 + mp.pi / w
        sign = 1 if pos else -1

        def f(x, x0=x0, w=w, sign=sign, pos=pos):
            return sign * amp[pos] * mp.sin(w * (x - x0))

        ip += mp.quad(lambda x: f(x) * mp.sqrt(2 / mp.pi) * mp.sin(n * x), [x0, x1])
        nsq += mp.quad(lambda x: f(x) ** 2, [x0, x1])
        x0 = x1
    return 1 - ip * ip / nsq


def main() -> int:
    ok = True
    for n, alpha in POINTS:
        exact = mp_defect(n, alpha)
        ours = oracle.defect(n, alpha, oracle.complete_beta(n, alpha))
        err = float(abs(ours - exact))
        ok &= err <= TOL
        print(f"n={n} alpha={alpha!r}: mpmath {mp.nstr(exact, 20)}, oracle {ours!r}, |diff| {err:.2e}")
    print("oracle agrees with mpmath" if ok else f"oracle differs from mpmath by more than {TOL}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
