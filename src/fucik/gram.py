"""Independent spectral check: truncated Gram matrices of a profile system.

The certificate predicts that the rescaled system deviates from an
orthonormal basis by at most theta = sqrt(total) in the Bessel/frame sense,
so every truncation's eigenvalues must land inside
[(1 - theta)^2, (1 + theta)^2].  This module builds those truncations with
Gauss-Legendre quadrature that shares nothing with the closed forms behind
the certificate.

Known gap: the certificate can pass systems this check falsifies.  When
the envelope absorbs a large constant-shape family (every even n <= N at
one dilation parameter), each rescaled member has the same component mu
along the unit constant 1/sqrt(pi), so the truncated top eigenvalue grows
like (N/2) mu^2 and the family is not even Bessel, while the certificate
total does not depend on N.  At gamma = 5, N = 64 the total is 0.278
(theta 0.527) but the top eigenvalue is 2.618 > (1 + theta)^2: the
certificate is the false part, not the Gram matrix.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .certify import SystemSpec, certify_system, optimal_scaling
from .eigenfunction import build, evaluate
from .spectrum import FucikPoint, is_diagonal

# Panel rule: 16-point Gauss-Legendre between consecutive junctions of the
# two factors.  Each panel sees at most ~12 radians of phase, far inside
# the rule's accuracy range, so the product integrals come out to machine
# precision without adaptivity.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _panel_nodes(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    left = edges[:-1]
    half = 0.5 * (edges[1:] - left)
    mid = left + half
    xs = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    ws = half[:, None] * _GL_WEIGHTS[None, :]
    return xs.ravel(), ws.ravel()


def _member_profiles(spec: SystemSpec, n_trunc: int):
    members = []
    for n in range(1, n_trunc + 1):
        p = spec.point(n)
        if p is None:
            p = FucikPoint(n, float(n * n), float(n * n))
        members.append(build(p))
    return members


def gram_matrix(spec: SystemSpec, n_trunc: int, rescale: bool = True) -> np.ndarray:
    """Matrix of pairwise inner products of the first n_trunc members.

    Indices without an entry contribute their unperturbed sine.  With
    rescale, each perturbed member is multiplied by its optimal scaling
    factor, matching what the certificate is actually about; symmetric
    members keep factor one either way.
    """
    if isinstance(n_trunc, bool) or not isinstance(n_trunc, int) or n_trunc < 1:
        raise ValueError("n_trunc must be a positive integer")
    profiles = _member_profiles(spec, n_trunc)
    factors = np.ones(n_trunc)
    if rescale:
        for i, f in enumerate(profiles):
            if not is_diagonal(f.point):
                factors[i] = optimal_scaling(f.point)

    junction_sets = [
        np.concatenate(([0.0], f.junctions, [math.pi])) for f in profiles
    ]
    g = np.empty((n_trunc, n_trunc))
    for i in range(n_trunc):
        for j in range(i, n_trunc):
            edges = np.union1d(junction_sets[i], junction_sets[j])
            xs, ws = _panel_nodes(edges)
            prod = evaluate(profiles[i], xs) * evaluate(profiles[j], xs)
            val = factors[i] * factors[j] * float(np.dot(ws, prod))
            g[i, j] = val
            g[j, i] = val
    return g


def extremal_eigenvalues(m: np.ndarray) -> tuple[float, float]:
    """Smallest and largest eigenvalue of a symmetric matrix."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("need a square matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    if float(np.max(np.abs(m - m.T))) > 1e-8:
        raise ValueError("matrix is not symmetric")
    eigs = np.linalg.eigvalsh(0.5 * (m + m.T))
    return float(eigs[0]), float(eigs[-1])


@dataclass(frozen=True)
class GramWitness:
    """One truncation's eigenvalue range against the certified window."""

    size: int
    min_eig: float
    max_eig: float
    theta: float
    window_low: float
    window_high: float
    within_window: bool
    cushion: float
    note: str

    def as_dict(self) -> dict:
        return {
            "size": self.size,
            "min_eig": self.min_eig,
            "max_eig": self.max_eig,
            "theta": self.theta,
            "window_low": self.window_low,
            "window_high": self.window_high,
            "within_window": self.within_window,
            "cushion": self.cushion,
            "note": self.note,
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=indent)


def gram_witness(
    spec: SystemSpec,
    n_trunc: int,
    rescale: bool = True,
    cushion: float = 0.02,
    matrix: np.ndarray | None = None,
) -> GramWitness:
    """Check one truncation against the window the certificate promises.

    theta comes from the certificate total; the window is
    [(1 - theta)^2 - cushion, (1 + theta)^2 + cushion], the cushion covering
    quadrature noise only.  A truncation escaping the window falsifies the
    certificate, never the other way around (truncations can be tamer than
    the full system).  Large absorbed constant-shape families do escape it
    (see the module docstring), so within_window is False there although
    the certificate passes.
    """
    cert = certify_system(spec)
    if cert.total < 0.0:
        raise ValueError("certificate total is negative")
    theta = math.sqrt(cert.total)
    if matrix is None:
        matrix = gram_matrix(spec, n_trunc, rescale=rescale)
    elif np.shape(matrix) != (n_trunc, n_trunc):
        raise ValueError("matrix shape does not match n_trunc")
    lo, hi = extremal_eigenvalues(matrix)
    window_low = (1.0 - theta) ** 2 - cushion
    window_high = (1.0 + theta) ** 2 + cushion
    return GramWitness(
        size=n_trunc,
        min_eig=lo,
        max_eig=hi,
        theta=theta,
        window_low=window_low,
        window_high=window_high,
        within_window=(window_low <= lo) and (hi <= window_high),
        cushion=cushion,
        note="truncations may sit strictly inside the window; escaping it "
        "falsifies the certificate",
    )
