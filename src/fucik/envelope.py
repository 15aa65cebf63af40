"""Majorant of the coefficient defect of the two-arc profile.

For the fundamental profile with shape parameter gamma the distance of its
sine coefficients from the unperturbed pattern (1 at k = 2, 0 elsewhere)
admits simple increasing majorants bound_1(gamma), bound_2(gamma), ...  The
envelope combines them, weighted by the compression operator norms, into a
single increasing function of gamma that vanishes at 4 and crosses 1 just
below 6.5.  The infinite part of the sum is one series of positive terms
over the Hurwitz values zeta(2j + 2, 5), the library's one zeta routine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .fourier import coefficient, dilation_norm_bound

# the k >= 5 tail's weight: the largest compression norm over k >= 5
TAIL_WEIGHT = dilation_norm_bound(5)

# The k = 3 majorant has a removable singularity at gamma = 9; staying a hair
# below keeps every factor representable without special-casing the limit.
GAMMA_MAX = 9.0 - 1e-9


def _check_gamma(gamma: float) -> float:
    g = float(gamma)
    if not 4.0 <= g <= GAMMA_MAX:
        raise ValueError("gamma must lie in [4, 9), capped at 9 - 1e-9")
    return g


@dataclass(frozen=True)
class EnvelopeEval:
    """Envelope value at gamma together with its five displayed summands."""

    gamma: float
    summands: tuple[float, float, float, float, float]
    value: float


def coefficient_bound(k: int, gamma: float) -> float:
    """Increasing majorant of the k-th coefficient defect.

    For k = 1 and k = 3 the majorant is the exact absolute coefficient; for
    k = 2 it majorizes the distance of the coefficient from 1; from k = 4 on
    it drops the oscillating sine factor from the closed form, leaving a
    positive rational expression.  All of them vanish at gamma = 4.
    """
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise ValueError("k must be a positive integer")
    g = _check_gamma(gamma)
    if k in (1, 3):
        return abs(coefficient(g, k))
    s = math.sqrt(g)
    q = (g - 4.0) / (s + 2.0)  # s - 2 without cancellation
    if k == 2:
        pi_sq = math.pi * math.pi
        num = ((3.0 + pi_sq) * g + (9.0 - 2.0 * pi_sq) * s - 6.0) * q
        den = 3.0 * (s - 1.0) * (s + 2.0) * (3.0 * s - 2.0)
        return num / den
    pref = (2.0 / math.pi) * g * g * q / (s - 1.0)
    return pref / ((k * k - g) * ((k - 1) * s - k) * ((k + 1) * s - k))


# B_2j / (2j)! for j = 1..7, the Euler-Maclaurin correction weights
_EM_WEIGHTS = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
               -691 / 1307674368000, 1 / 74724249600)


def zeta(s: float, a: float = 1.0) -> float:
    """Hurwitz zeta sum_{k>=0} (k + a)^(-s) for s > 1 and a > 0.

    Ten direct terms plus the Euler-Maclaurin remainder at x = a + 10
    through B14, summed by fsum: within 2.2e-16 relative of mpmath for s in
    (1, 501] and a in {1, 3/2, 5}.  zeta(s) is the Riemann zeta function.
    """
    s = float(s)
    a = float(a)
    if not (s > 1.0 and a > 0.0):
        raise ValueError("zeta(s, a) requires s > 1 and a > 0")
    terms = [(k + a) ** -s for k in range(10)]
    x = a + 10.0
    edge = x ** -s
    if edge == 0.0:  # remainder underflows; the rising factorial could overflow
        return math.fsum(terms)
    terms += [x * edge / (s - 1.0), 0.5 * edge]
    rising = s * edge / x
    for i, weight in enumerate(_EM_WEIGHTS):
        terms.append(weight * rising)
        rising *= (s + 2 * i + 1) * (s + 2 * i + 2) / (x * x)
    return math.fsum(terms)


# zeta(2j + 2, 5) for j = 1..44: the k >= 5 tail of the power sums in 1/k^2
_TAIL_ZETAS = tuple(zeta(2.0 * j + 2.0, 5.0) for j in range(1, 45))


def _tail_closed_form(g: float) -> float:
    """Weighted k >= 5 sum as one positive Hurwitz-zeta series.

    The product denominator splits over k^2 - s^2 and k^2 - b^2 with
    b = s/(s-1), and expanding both in powers of 1/k^2 gives
    sum_{j>=1} d_j zeta(2j+2, 5) with d_j = s^(2j) - b^(2j).  As b <= 2 <= s,
    d_1 = (s - b)(s + b) takes s - b = s (s - 2)/(s - 1) with s - 2 as a
    quotient, and d_{j+1} = g d_j + b^(2j) d_1 adds only positive terms, so
    nothing cancels even as gamma drops to 4.  Each term is at most (3/5)^2
    of the one before, so the remainder after a term below 1e-17 of the sum
    is smaller still.
    """
    s = math.sqrt(g)
    q = (g - 4.0) / (s + 2.0)  # s - 2 without cancellation
    b = s / (s - 1.0)
    d1 = s * q / (s - 1.0) * (s + b)
    d, b_pow, total = d1, 1.0, 0.0
    for z in _TAIL_ZETAS:
        term = d * z
        total += term
        if term <= 1e-17 * total:
            break
        b_pow *= b * b
        d = g * d + b_pow * d1
    return TAIL_WEIGHT * (2.0 * s / (math.pi * (s - 1.0))) * total


def envelope(gamma: float) -> EnvelopeEval:
    """Envelope at gamma with the five summands recorded separately; the
    k >= 5 tail is summed in full, not truncated."""
    g = _check_gamma(gamma)
    summands = (
        dilation_norm_bound(1) * coefficient_bound(1, g),
        dilation_norm_bound(2) * coefficient_bound(2, g),
        dilation_norm_bound(3) * coefficient_bound(3, g),
        dilation_norm_bound(4) * coefficient_bound(4, g),
        _tail_closed_form(g),
    )
    return EnvelopeEval(g, summands, math.fsum(summands))


def envelope_value(gamma: float) -> float:
    return envelope(gamma).value


@lru_cache(maxsize=1)
def envelope_root() -> float:
    """The shape parameter where the envelope reaches 1.

    Bisection on [6, 7]; the envelope is strictly increasing there and the
    bracket is checked before iterating.
    """
    lo, hi = 6.0, 7.0
    if not envelope_value(lo) < 1.0 < envelope_value(hi):
        raise RuntimeError("envelope bracket [6, 7] failed")
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if envelope_value(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
