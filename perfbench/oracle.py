"""Independent oracle for the benchmark's outputs.

Nothing here imports ``fucik``.  Profiles are rebuilt from (n, alpha, beta)
straight from the curve equation (arcs of width pi/sqrt(alpha) and
pi/sqrt(beta), slope-matched, larger amplitude sqrt(2/pi)) and every
integral is a fixed Gauss-Legendre rule on each smooth piece.  The envelope
is summed term by term from its definition, not through the cotangent
closed form the library uses.
"""

from __future__ import annotations

import math

import numpy as np

SUP = math.sqrt(2.0 / math.pi)
_X, _W = np.polynomial.legendre.leggauss(24)

# Agreement required between library and oracle.  The library integrates to
# 1e-12 and prints 12 significant digits on the CLI; a real defect moves a
# value by far more than this.
ABS_TOL = 1e-9
REL_TOL = 1e-7


def close(got: float, want: float, abs_tol: float = ABS_TOL, rel_tol: float = REL_TOL) -> bool:
    return abs(got - want) <= abs_tol + rel_tol * abs(want)


def complete_beta(n: int, alpha: float) -> float:
    """beta putting (n, alpha, beta) on the n-th curve."""
    n_pos, n_neg = (n + 1) // 2, n // 2
    return (n_neg / (1.0 - n_pos / math.sqrt(alpha))) ** 2


class Profile:
    """Chain of half-period sine arcs, starting positive, from (n, alpha, beta)."""

    def __init__(self, n: int, alpha: float, beta: float):
        self.n = n
        if n == 1 or alpha == beta:
            k = n if alpha == beta else 1
            widths = [math.pi / k] * k
            freqs = [float(k)] * k
            amps = [SUP] * k
        else:
            sa, sb = math.sqrt(alpha), math.sqrt(beta)
            amp_pos, amp_neg = SUP * min(1.0, sb / sa), SUP * min(1.0, sa / sb)
            widths, freqs, amps = [], [], []
            for j in range(n):
                pos = j % 2 == 0
                widths.append(math.pi / (sa if pos else sb))
                freqs.append(sa if pos else sb)
                amps.append(amp_pos if pos else amp_neg)
        signs = np.where(np.arange(len(widths)) % 2 == 0, 1.0, -1.0)
        self.edges = np.concatenate(([0.0], np.cumsum(widths)))
        self.freqs = np.asarray(freqs)
        self.amps = signs * np.asarray(amps)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        idx = np.clip(np.searchsorted(self.edges, x, side="right") - 1, 0, len(self.freqs) - 1)
        return self.amps[idx] * np.sin(self.freqs[idx] * (x - self.edges[idx]))


def _nodes(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    half = 0.5 * np.diff(edges)
    mid = edges[:-1] + half
    return (mid[:, None] + half[:, None] * _X).ravel(), (half[:, None] * _W).ravel()


def inner(f, g, edges) -> float:
    xs, ws = _nodes(np.asarray(edges, dtype=float))
    return float(np.dot(ws, f(xs) * g(xs)))


def mode(k: int):
    return lambda x: SUP * np.sin(k * x)


def defect_parts(n: int, alpha: float, beta: float) -> tuple[float, float]:
    """(<f, e_n>, |f|^2) for the profile of (n, alpha, beta)."""
    f = Profile(n, alpha, beta)
    return inner(f, mode(n), f.edges), inner(f, f, f.edges)


def defect(n: int, alpha: float, beta: float) -> float:
    """1 - <f, e_n>^2 / |f|^2."""
    if n == 1 or alpha == beta:
        return 0.0
    ip, nsq = defect_parts(n, alpha, beta)
    return 1.0 - ip * ip / nsq


def scaling(n: int, alpha: float, beta: float) -> float:
    """<f, e_n> / |f|^2."""
    if n == 1 or alpha == beta:
        return 1.0
    ip, nsq = defect_parts(n, alpha, beta)
    return ip / nsq


def defect_bound(n: int, alpha: float, beta: float) -> float:
    """Closed-form majorant of the squared distance of the profile to its mode."""
    if n == 1 or alpha == beta:
        return 0.0
    sa, sb = math.sqrt(alpha), math.sqrt(beta)
    if n % 2 == 0:
        c, dev = 8.0 * (3.0 + math.pi ** 2) / 9.0, max(sa, sb) - n
    elif sa >= n:
        c, dev = 8.0 * n * n * (n * n + 1.0) / (n - 1.0) ** 4, sa - n
    else:
        c, dev = 10.0 * n * n * (n * n + 1.0) / (n + 1.0) ** 4, sb - n
    return c * (dev / n) ** 2


def dilation(n: int, alpha: float, beta: float) -> float:
    return 4.0 * max(alpha, beta) / (n * n)


def two_arc_coefficient(gamma: float, k: int) -> float:
    """<two-arc profile with shape gamma, e_k>, alpha-major branch."""
    if gamma == 4.0:
        return 1.0 if k == 2 else 0.0
    f = Profile(2, gamma, complete_beta(2, gamma))
    return inner(f, mode(k), np.union1d(f.edges, np.arange(k + 1) * math.pi / k))


def envelope(gamma: float) -> float:
    """Envelope from its definition: weighted coefficient majorants summed directly."""
    g = float(gamma)
    if g == 4.0:
        return 0.0
    s = math.sqrt(g)
    pi2 = math.pi ** 2
    b2 = ((3.0 + pi2) * g + (9.0 - 2.0 * pi2) * s - 6.0) * (s - 2.0) / (
        3.0 * (s - 1.0) * (s + 2.0) * (3.0 * s - 2.0)
    )
    pref = (2.0 / math.pi) * g * g * ((g - 4.0) / (s + 2.0)) / (s - 1.0)
    k = np.arange(4.0, 20_001.0)
    bk = pref / ((k * k - g) * ((k - 1.0) * s - k) * ((k + 1.0) * s - k))
    # terms fall like pref / ((s-1)^2 k^4); the integral of that past the
    # last term is the remainder to ~1e-22
    rest = pref / ((s - 1.0) ** 2 * 3.0 * (k[-1] + 0.5) ** 3)
    tail = math.sqrt(6.0 / 5.0) * (math.fsum(bk[1:]) + rest)
    return math.fsum(
        (
            math.sqrt(2.0) * abs(two_arc_coefficient(g, 1)),
            b2,
            math.sqrt(4.0 / 3.0) * abs(two_arc_coefficient(g, 3)),
            float(bk[0]),
            tail,
        )
    )


def envelope_root() -> float:
    lo, hi = 6.0, 7.0
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if envelope(mid) < 1.0 else (lo, mid)
    return 0.5 * (lo + hi)


def zeta(s: float) -> float:
    """Riemann zeta for s > 1 by Euler-Maclaurin after 1000 terms."""
    n = 1000.0
    head = math.fsum(k ** -s for k in range(1, 1000))
    return (
        head
        + n ** (1.0 - s) / (s - 1.0)
        + 0.5 * n ** -s
        + s * n ** (-s - 1.0) / 12.0
        - s * (s + 1.0) * (s + 2.0) * n ** (-s - 3.0) / 720.0
    )


# ---- systems ---------------------------------------------------------------


def points(spec: dict) -> dict[int, tuple[float, float]]:
    """n -> (alpha, beta) for the entries of a benchmark spec (alpha given)."""
    return {e["n"]: (float(e["alpha"]), complete_beta(e["n"], float(e["alpha"]))) for e in spec["entries"]}


def certificate_errors(spec: dict, cert: dict, expected_defects: dict) -> list[str]:
    """Mismatches between a certificate (as a dict) and the oracle.

    expected_defects maps n to the oracle's per-index value for the spec's
    mode.  The split is the library's choice; the oracle checks that it is
    admissible and that it does no worse than the default split.
    """
    errs = []
    pts = points(spec)
    chosen = set(cert["split"])
    for n in chosen:
        a, b = pts.get(n, (None, None))
        if a is None or n % 2 or a == b or dilation(n, a, b) >= 9.0:
            errs.append(f"split index {n} is not an absorbable even entry")
    if errs:
        return errs
    rows = {rec["n"]: rec for rec in cert["per_index"]}
    if sorted(rows) != sorted(pts):
        return [f"per_index covers {sorted(rows)}, spec has {sorted(pts)}"]
    for n, (a, b) in pts.items():
        rec = rows[n]
        want = dilation(n, a, b) if n in chosen else expected_defects[n]
        if (rec["method"] == "envelope") != (n in chosen) or not close(rec["value"], want):
            errs.append(f"n={n}: {rec['method']} {rec['value']!r}, oracle {want!r}")
    gamma_sup = max([4.0] + [dilation(n, *pts[n]) for n in chosen])
    env_sq = envelope(gamma_sup) ** 2
    defect_sum = math.fsum(expected_defects[n] for n in pts if n not in chosen)
    for key, want in (
        ("gamma_sup", gamma_sup),
        ("envelope_sq", env_sq),
        ("defect_sum", defect_sum),
        ("total", defect_sum + env_sq),
    ):
        if not close(cert[key], want):
            errs.append(f"{key} {cert[key]!r}, oracle {want!r}")
    if cert["passed"] != (cert["total"] < 1.0):
        errs.append(f"passed={cert['passed']} with total {cert['total']!r}")
    default = [n for n, (a, b) in pts.items() if n % 2 == 0 and a != b]
    default_total = math.fsum(expected_defects[n] for n in pts if n not in default)
    default_total += envelope(max([4.0] + [dilation(n, *pts[n]) for n in default])) ** 2
    if cert["total"] > default_total * (1.0 + REL_TOL) + ABS_TOL:
        errs.append(f"split total {cert['total']!r} worse than default {default_total!r}")
    return errs


def expected_defects(spec: dict) -> dict[int, float]:
    fn = defect if spec.get("mode", "exact") == "exact" else defect_bound
    return {n: fn(n, a, b) for n, (a, b) in points(spec).items()}


def gram(spec: dict, size: int, rescale: bool = True) -> np.ndarray:
    """Rescaled Gram matrix of the first `size` members of the system."""
    pts = points(spec)
    profiles, factors = [], []
    for n in range(1, size + 1):
        a, b = pts.get(n, (float(n * n), float(n * n)))
        profiles.append(Profile(n, a, b))
        factors.append(scaling(n, a, b) if rescale else 1.0)
    m = np.empty((size, size))
    for i in range(size):
        for j in range(i, size):
            val = factors[i] * factors[j] * inner(profiles[i], profiles[j], np.union1d(profiles[i].edges, profiles[j].edges))
            m[i, j] = m[j, i] = val
    return m


def witness_errors(witness: dict, matrix: np.ndarray, total: float) -> list[str]:
    """Check a Gram witness against its own matrix and certificate total."""
    errs = []
    eigs = np.linalg.eigvalsh(matrix)
    theta = math.sqrt(total)
    lo = (1.0 - theta) ** 2 - witness["cushion"]
    hi = (1.0 + theta) ** 2 + witness["cushion"]
    for key, want in (
        ("min_eig", eigs[0]),
        ("max_eig", eigs[-1]),
        ("theta", theta),
        ("window_low", lo),
        ("window_high", hi),
    ):
        if not close(witness[key], float(want)):
            errs.append(f"witness {key} {witness[key]!r}, oracle {float(want)!r}")
    inside = witness["window_low"] <= witness["min_eig"] and witness["max_eig"] <= witness["window_high"]
    if witness["within_window"] != inside:
        errs.append(f"within_window={witness['within_window']} contradicts its own window")
    return errs
