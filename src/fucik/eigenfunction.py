"""Piecewise-sine profiles attached to asymmetric-oscillation curve points.

A profile is a chain of half-period sine arcs that alternate in sign,
starting positive, slope-matched at their shared zeros, with the larger
amplitude normalized to sqrt(2/pi), stored as three arrays: arc edges,
signed amplitudes and frequencies.  Construction refits the
negative-arc width so the chain tiles (0, pi) exactly in floating point,
which keeps the boundary zeros at machine accuracy for any admissible index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectrum import FucikPoint, SpectrumError

SUP_NORM = math.sqrt(2.0 / math.pi)

# Largest index build accepts, so that an oversized index fails with
# SpectrumError: at the cap a profile holds 24 MB of arrays, and `dump`
# peaks at about 175 MB of resident memory.
MAX_ARCS = 1_000_000


@dataclass(frozen=True, eq=False)
class PiecewiseEigenfunction:
    """Arc j is amps[j] sin(freqs[j] (x - edges[j])) on [edges[j], edges[j + 1]].

    edges runs from 0.0 to exactly pi; amps carries the sign, positive on
    even j.
    """

    point: FucikPoint
    edges: np.ndarray
    amps: np.ndarray
    freqs: np.ndarray

    @property
    def junctions(self) -> np.ndarray:
        """Interior arc boundaries, where curvature jumps."""
        return self.edges[1:-1]


def build(p: FucikPoint) -> PiecewiseEigenfunction:
    """Construct the normalized profile for a curve point.

    The point must have at most MAX_ARCS arcs, none of them so narrow that
    it vanishes in the float spacing of pi.  At the symmetric point
    (n^2, n^2) the result collapses to sqrt(2/pi) sin(n x).
    """
    n = p.n
    if n > MAX_ARCS:
        raise SpectrumError(f"n = {n} exceeds the cap of {MAX_ARCS} arcs per profile")
    if n == 1:
        return PiecewiseEigenfunction(
            p, np.array([0.0, math.pi]), np.array([SUP_NORM]), np.array([1.0])
        )

    n_pos = (n + 1) // 2
    n_neg = n // 2
    w_pos = math.pi / math.sqrt(p.alpha)
    # refit the negative width so the counted arcs sum to pi exactly
    w_neg = (math.pi - n_pos * w_pos) / n_neg

    # slope matching at the zeros: amp_pos sqrt(alpha) = amp_neg sqrt(beta)
    ratio = math.sqrt(p.alpha / p.beta)
    if ratio >= 1.0:
        amp_neg = SUP_NORM
        amp_pos = SUP_NORM / ratio
    else:
        amp_pos = SUP_NORM
        amp_neg = SUP_NORM * ratio

    # edge j closes (j + 1) // 2 positive and j // 2 negative arcs
    half = np.arange(n + 2) // 2
    edges = half[1:] * w_pos + half[:-1] * w_neg
    edges[-1] = math.pi
    widths = edges[1:] - edges[:-1]
    if not widths.min() > 0.0:  # below the float spacing of pi, or no room for negative arcs
        raise SpectrumError(f"({p.alpha}, {p.beta}) leaves an arc of no width in floats")
    # pi / width rather than sqrt(alpha): each arc then vanishes at both of
    # its own endpoints to the last bit
    freqs = math.pi / widths
    amps = np.full(n, amp_pos)
    amps[1::2] = -amp_neg
    return PiecewiseEigenfunction(p, edges, amps, freqs)


def evaluate(f: PiecewiseEigenfunction, x):
    """Value of the profile at x; accepts scalars or numpy arrays in [0, pi]."""
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    pts = np.atleast_1d(arr)
    if pts.size and (np.min(pts) < 0.0 or np.max(pts) > math.pi):
        raise ValueError("evaluation points must lie in [0, pi]")
    idx = np.searchsorted(f.edges, pts, side="right") - 1
    np.clip(idx, 0, len(f.amps) - 1, out=idx)
    vals = f.amps[idx] * np.sin(f.freqs[idx] * (pts - f.edges[idx]))
    if scalar:
        return float(vals[0])
    return vals.reshape(arr.shape)


def moments(
    f: PiecewiseEigenfunction, n: int | np.ndarray
) -> tuple[float, float | np.ndarray]:
    """|f|^2 and <f, sqrt(2/pi) sin(n x)> in closed form.

    n is one index, giving the inner product as a float, or a 1-D numpy
    array of indices, giving an array of inner products in the same order;
    each index's arc sum is one math.fsum either way, so the values agree
    bit for bit.  The arc A sin(w (x - a)) over its half period pi/w,
    midpoint m, adds A^2 pi/(2w) and
    sqrt(2/pi) pi A sin(n m) sinc((w - n)/(2w)) / (w + n);
    numpy's normalized sinc removes the singularity at w = n.
    """
    amps, freqs = f.amps, f.freqs
    widths = math.pi / freqs
    mids = f.edges[:-1] + 0.5 * widths
    many = isinstance(n, np.ndarray)
    col = n[:, None] if many else n  # one row of arc terms per index
    arcs = amps * np.sin(col * mids) * np.sinc((freqs - col) / (2.0 * freqs)) / (freqs + col)
    if many:
        sums = np.array([math.fsum(row) for row in arcs.tolist()])
    else:
        sums = math.fsum(arcs)
    return 0.5 * math.fsum(amps * amps * widths), SUP_NORM * math.pi * sums
