"""Truncation scan of the Gram spectrum for a constant-shape even family.

Every even index is placed on its curve with the same dilation parameter.
The certificate passes, yet the truncated top eigenvalue grows with the
truncation size and eventually leaves the certificate window: the rescaled
profiles all share one nonzero component mu = <rho f, 1/sqrt(pi)> along the
unit constant (rho the optimal scaling), so the family has no uniform upper
frame bound.  This script prints the growth table and the shared component
that drives it.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from fucik.certify import certify_system, constant_component, parse_system
from fucik.gram import gram_matrix, gram_witness


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--gamma", type=float, default=5.0)
    parser.add_argument("--top", type=int, default=256)
    args = parser.parse_args()

    spec = parse_system(
        {"entries": [{"n": n, "alpha": args.gamma * n * n / 4.0}
                     for n in range(2, args.top + 1, 2)]}
    )
    cert = certify_system(spec)
    print(f"certificate: total = {cert.total:.12g}, passed = {cert.passed}")
    for p in spec.entries[:4]:
        mu = constant_component(p)
        print(f"component along the unit constant, n = {p.n:2d}: {mu:.12g}")
    print()
    print(f"{'size':>4}  {'min_eig':>12}  {'max_eig':>12}  "
          f"{'window_low':>12}  {'window_high':>12}  inside")
    size = 8
    while size <= args.top:
        w = gram_witness(spec, size, gram_matrix(spec, size))
        print(f"{size:>4}  {w.min_eig:>12.8f}  {w.max_eig:>12.8f}  "
              f"{w.window_low:>12.8f}  {w.window_high:>12.8f}  {w.within_window}")
        size *= 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
