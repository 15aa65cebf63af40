"""Majorant of the coefficient defect of the two-arc profile.

For the fundamental profile with shape parameter gamma the distance of its
sine coefficients from the unperturbed pattern (1 at k = 2, 0 elsewhere)
admits simple increasing majorants bound_1(gamma), bound_2(gamma), ...  The
envelope combines them, weighted by the compression operator norms, into a
single increasing function of gamma that vanishes at 4 and crosses 1 just
below 6.5.  The infinite part of the sum collapses to a closed form built
from the cotangent value of the series sum_{k>=1} 1/(k^2 - a^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .fourier import coefficient, dilation_norm_bound

TAIL_WEIGHT = math.sqrt(6.0 / 5.0)

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
    if k == 2:
        pi_sq = math.pi * math.pi
        num = ((3.0 + pi_sq) * g + (9.0 - 2.0 * pi_sq) * s - 6.0) * (s - 2.0)
        den = 3.0 * (s - 1.0) * (s + 2.0) * (3.0 * s - 2.0)
        return num / den
    pref = (2.0 / math.pi) * g * g * (s - 2.0) / (s - 1.0)
    return pref / ((k * k - g) * ((k - 1) * s - k) * ((k + 1) * s - k))


# B_2j / (2j)! for j = 1..7, the Euler-Maclaurin correction weights
_EM_WEIGHTS = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
               -691 / 1307674368000, 1 / 74724249600)


def zeta(s: float, a: float = 1.0) -> float:
    """Hurwitz zeta sum_{k>=0} (k + a)^(-s) for s > 1 and a > 0.

    Ten direct terms plus the Euler-Maclaurin remainder at x = a + 10
    through B14, summed by fsum: within 2.2e-16 relative of mpmath for s in
    (1, 501] and a in {1, 3/2}.  zeta(s) is the Riemann zeta function.
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


# 2 zeta(2j) for j = 1..16: the Taylor coefficients of 1/r - pi cot(pi r)
_COT_COEFFS = tuple(2.0 * zeta(2.0 * j) for j in range(1, 17))


def _h_cot(r: float) -> float:
    """1/r - pi*cot(pi*r) on |r| <= 1/2, analytic straight through r = 0."""
    if abs(r) > 0.25:
        return 1.0 / r - math.pi * math.cos(math.pi * r) / math.sin(math.pi * r)
    t = r * r
    acc = 0.0
    for c in reversed(_COT_COEFFS):
        acc = acc * t + c
    # the factor 2 is already inside the table entries
    return r * acc


def _tail_inverse_quadratic_sum(a: float, a_sq: float, m: int, r: float) -> float:
    """sum_{k>=5} 1/(k^2 - a^2) with the pole at the nearest index removed.

    Folding the k = m term into the cotangent identity cancels the 1/r
    singularity in exact arithmetic, so it must be cancelled analytically
    too: r is the caller's stable value of a - m, and the remaining pieces
    are all O(1).  Requires 1 <= m <= 4 and |r| <= 1/2.
    """
    base = 1.0 / (2.0 * a_sq) + _h_cot(r) / (2.0 * a) + 1.0 / (2.0 * a * (a + m))
    correction = math.fsum(1.0 / (k * k - a_sq) for k in range(1, 5) if k != m)
    return base - correction


def _tail_closed_form(g: float) -> float:
    """Weighted k >= 5 sum via partial fractions and the cotangent form.

    The product denominator splits over k^2 - s^2 and k^2 - b^2 with
    b = s/(s-1).  Both inverse-quadratic sums are evaluated with their
    near-integer pole stripped out: as gamma drops toward 4 both s and b
    close in on 2, and the raw cotangent form loses accuracy like
    1/(gamma - 4)^2 there.
    """
    if g == 4.0:
        return 0.0
    s = math.sqrt(g)
    q = (g - 4.0) / (s + 2.0)  # s - 2 without cancellation
    b = s / (s - 1.0)
    if s < 2.5:
        sum_s = _tail_inverse_quadratic_sum(s, g, 2, q)
    else:
        sum_s = _tail_inverse_quadratic_sum(s, g, 3, s - 3.0)
    sum_b = _tail_inverse_quadratic_sum(b, b * b, 2, -q / (s - 1.0))
    return TAIL_WEIGHT * (2.0 * s / (math.pi * (s - 1.0))) * (sum_s - sum_b)


def envelope(gamma: float) -> EnvelopeEval:
    """Envelope at gamma with the five summands recorded separately; the
    k >= 5 tail is the exact closed form."""
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
