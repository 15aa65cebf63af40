"""Piecewise-sine profiles attached to asymmetric-oscillation curve points.

A profile is a chain of half-period sine arcs ("bumps") that alternate in
sign, starting positive, slope-matched at their shared zeros, with the
larger amplitude normalized to sqrt(2/pi).  Construction refits the
negative-arc width so the chain tiles (0, pi) exactly in floating point,
which keeps the boundary zeros at machine accuracy for any admissible index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .spectrum import FucikPoint, SpectrumError, validate_point

SUP_NORM = math.sqrt(2.0 / math.pi)


class JunctionError(ValueError):
    """The query point sits too close to an arc boundary."""


@dataclass(frozen=True)
class Bump:
    """One half-period sine arc: sign * amplitude * sin(frequency (x - start))."""

    sign: int
    start: float
    end: float
    frequency: float
    amplitude: float

    @property
    def width(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class PiecewiseEigenfunction:
    point: FucikPoint
    bumps: tuple[Bump, ...]

    @cached_property
    def _starts(self) -> np.ndarray:
        return np.asarray([b.start for b in self.bumps])

    @cached_property
    def _signed_amps(self) -> np.ndarray:
        return np.asarray([b.sign * b.amplitude for b in self.bumps])

    @cached_property
    def _freqs(self) -> np.ndarray:
        return np.asarray([b.frequency for b in self.bumps])

    @property
    def junctions(self) -> tuple[float, ...]:
        """Interior arc boundaries, where curvature jumps."""
        return tuple(b.start for b in self.bumps[1:])


def build(p: FucikPoint) -> PiecewiseEigenfunction:
    """Construct the normalized profile for a curve point.

    The point must pass membership validation.  At the symmetric point
    (n^2, n^2) the result collapses to sqrt(2/pi) sin(n x).
    """
    validate_point(p)
    n = p.n
    if n == 1:
        return PiecewiseEigenfunction(p, (Bump(1, 0.0, math.pi, 1.0, SUP_NORM),))

    n_pos = (n + 1) // 2
    n_neg = n // 2
    w_pos = math.pi / math.sqrt(p.alpha)
    # refit the negative width so the counted arcs sum to pi exactly
    w_neg = (math.pi - n_pos * w_pos) / n_neg
    if w_neg <= 0.0:
        raise SpectrumError("positive arcs already cover (0, pi)")

    # slope matching at the zeros: amp_pos sqrt(alpha) = amp_neg sqrt(beta)
    ratio = math.sqrt(p.alpha / p.beta)
    if ratio >= 1.0:
        amp_neg = SUP_NORM
        amp_pos = SUP_NORM / ratio
    else:
        amp_pos = SUP_NORM
        amp_neg = SUP_NORM * ratio

    bumps = []
    for j in range(n):
        start = ((j + 1) // 2) * w_pos + (j // 2) * w_neg
        end = math.pi if j == n - 1 else ((j + 2) // 2) * w_pos + ((j + 1) // 2) * w_neg
        positive = j % 2 == 0
        bumps.append(
            Bump(
                sign=1 if positive else -1,
                start=start,
                end=end,
                # pi / width rather than sqrt(alpha): the arc then vanishes
                # at both of its own endpoints to the last bit
                frequency=math.pi / (end - start),
                amplitude=amp_pos if positive else amp_neg,
            )
        )
    return PiecewiseEigenfunction(p, tuple(bumps))


def evaluate(f: PiecewiseEigenfunction, x):
    """Value of the profile at x; accepts scalars or numpy arrays in [0, pi]."""
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    pts = np.atleast_1d(arr)
    if pts.size and (np.min(pts) < 0.0 or np.max(pts) > math.pi):
        raise ValueError("evaluation points must lie in [0, pi]")
    idx = np.searchsorted(f._starts, pts, side="right") - 1
    np.clip(idx, 0, len(f.bumps) - 1, out=idx)
    vals = f._signed_amps[idx] * np.sin(f._freqs[idx] * (pts - f._starts[idx]))
    if scalar:
        return float(vals[0])
    return vals.reshape(arr.shape)


def moments(f: PiecewiseEigenfunction, n: int) -> tuple[float, float]:
    """|f|^2 and <f, sqrt(2/pi) sin(n x)> in closed form.

    The arc A sin(w (x - a)) over its half period pi/w, midpoint m, adds
    A^2 pi/(2w) and sqrt(2/pi) pi A sin(n m) sinc((w - n)/(2w)) / (w + n);
    numpy's normalized sinc removes the singularity at w = n.
    """
    amps, freqs = f._signed_amps, f._freqs
    widths = math.pi / freqs
    mids = f._starts + 0.5 * widths
    arcs = amps * np.sin(n * mids) * np.sinc((freqs - n) / (2.0 * freqs)) / (freqs + n)
    return 0.5 * math.fsum(amps * amps * widths), SUP_NORM * math.pi * math.fsum(arcs)


def ode_residual(f: PiecewiseEigenfunction, x, junction_tol: float = 1e-9) -> float:
    """-u'' - alpha u_+ + beta u_- at an interior point of some arc.

    Differentiation is exact (the arc is a sine), so the residual isolates
    construction errors.  Points within junction_tol of an arc boundary are
    rejected: the curvature is discontinuous there and the equation only
    holds on the open arcs.
    """
    x = float(x)
    if not 0.0 <= x <= math.pi:
        raise ValueError("x must lie in [0, pi]")
    idx = int(np.searchsorted(f._starts, x, side="right")) - 1
    idx = min(max(idx, 0), len(f.bumps) - 1)
    bump = f.bumps[idx]
    if x - bump.start < junction_tol or bump.end - x < junction_tol:
        raise JunctionError(
            f"x = {x!r} is within {junction_tol} of an arc boundary"
        )
    u = bump.sign * bump.amplitude * math.sin(bump.frequency * (x - bump.start))
    second = -(bump.frequency ** 2) * u
    return -second - f.point.alpha * max(u, 0.0) + f.point.beta * max(-u, 0.0)


def to_record(f: PiecewiseEigenfunction) -> dict:
    """Plain-data description of the profile, for serialization."""
    return {
        "n": f.point.n,
        "alpha": f.point.alpha,
        "beta": f.point.beta,
        "sup_norm": max(b.amplitude for b in f.bumps),
        "bumps": [
            {
                "sign": b.sign,
                "start": b.start,
                "end": b.end,
                "frequency": b.frequency,
                "amplitude": b.amplitude,
            }
            for b in f.bumps
        ],
    }
