"""Adaptive Simpson integration for piecewise-smooth integrands.

The integrand must accept a numpy array of abscissae and return the values
elementwise; scalars are broadcast.  Refinement is level-synchronous: every
round gathers the half-interval midpoints of all still-active intervals into
a single batched call, which keeps the Python overhead per function value
negligible.  Acceptance of an interval uses the classical comparison of the
whole-interval Simpson value with the two half-interval values against
15 times the local tolerance, and the accepted value keeps the Richardson
correction term.
"""

from __future__ import annotations

import math

import numpy as np

MAX_DEPTH = 40

# Hard cap on simultaneously active intervals.  A genuinely integrable
# piecewise-analytic function never gets close; hitting it means the
# integrand is noisy at machine scale.
_MAX_ACTIVE = 400_000


class QuadratureError(RuntimeError):
    """The requested tolerance was not certified within the depth budget."""


def _values(f, xs: np.ndarray) -> np.ndarray:
    out = np.asarray(f(xs), dtype=float)
    if out.shape != xs.shape:
        out = np.broadcast_to(out, xs.shape).astype(float)
    if not np.all(np.isfinite(out)):
        raise QuadratureError("integrand returned a non-finite value")
    return out


def integrate(f, a: float, b: float, tol: float = 1e-12, breakpoints=()) -> float:
    """Integral of f over [a, b], refined until the estimated absolute error
    is at most tol.

    The estimate is the Simpson comparison of the module docstring, not a
    bound, so the true error can exceed tol: at tol 1e-12 the squared
    distance of the n = 13 profile at alpha = 173.17302161159537 to its sine
    mode comes out 1.37e-10 off its closed form.

    breakpoints lists interior abscissae where f is allowed to lose
    smoothness; each initial panel lies between consecutive breakpoints so
    the adaptive refinement only ever sees smooth pieces.
    """
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)) or a >= b:
        raise ValueError("need finite bounds with a < b")
    if not tol > 0.0:
        raise ValueError("tol must be positive")

    inner = np.asarray([float(x) for x in breakpoints], dtype=float)
    inner = np.unique(inner[(inner > a) & (inner < b)])
    edges = np.concatenate(([a], inner, [b]))

    left = edges[:-1].copy()
    right = edges[1:].copy()
    mid = 0.5 * (left + right)
    f_left = _values(f, left)
    f_mid = _values(f, mid)
    f_right = _values(f, right)
    whole = (right - left) / 6.0 * (f_left + 4.0 * f_mid + f_right)
    local_tol = tol * (right - left) / (b - a)
    depth = np.zeros(left.shape, dtype=int)

    accepted: list[tuple[float, float]] = []
    while left.size:
        if left.size > _MAX_ACTIVE:
            raise QuadratureError(
                f"refinement exploded past {_MAX_ACTIVE} active intervals"
            )
        mid = 0.5 * (left + right)
        lm = 0.5 * (left + mid)
        rm = 0.5 * (mid + right)
        f_lm = _values(f, lm)
        f_rm = _values(f, rm)
        s_left = (mid - left) / 6.0 * (f_left + 4.0 * f_lm + f_mid)
        s_right = (right - mid) / 6.0 * (f_mid + 4.0 * f_rm + f_right)
        err = s_left + s_right - whole
        # depth 0 is never accepted: an integrand commensurate with an
        # initial panel can hit the sample points in a repeating pattern
        # and fake a zero error estimate, so every panel must survive one
        # genuine refinement first
        done = (np.abs(err) <= 15.0 * local_tol) & (depth >= 1)

        for pos, val in zip(left[done], (s_left + s_right + err / 15.0)[done]):
            accepted.append((float(pos), float(val)))

        keep = ~done
        if not np.any(keep):
            break
        if np.any(depth[keep] >= MAX_DEPTH):
            worst = left[keep][depth[keep] >= MAX_DEPTH][0]
            raise QuadratureError(
                f"no convergence at depth {MAX_DEPTH} near x = {worst!r}"
            )
        # split every surviving interval into its two halves; all the values
        # the halves need were computed this round already
        left, right = (
            np.concatenate((left[keep], mid[keep])),
            np.concatenate((mid[keep], right[keep])),
        )
        f_left, f_mid, f_right = (
            np.concatenate((f_left[keep], f_mid[keep])),
            np.concatenate((f_lm[keep], f_rm[keep])),
            np.concatenate((f_mid[keep], f_right[keep])),
        )
        whole = np.concatenate((s_left[keep], s_right[keep]))
        local_tol = np.concatenate((local_tol[keep], local_tol[keep])) * 0.5
        depth = np.concatenate((depth[keep], depth[keep])) + 1

    accepted.sort(key=lambda item: item[0])
    return math.fsum(val for _, val in accepted)
