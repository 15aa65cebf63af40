"""Sine-basis coefficients of the fundamental two-arc profile.

The two-arc profile with shape parameter gamma in [4, 9) has closed-form
inner products against the orthonormal sines sqrt(2/pi) sin(k x).  This
module evaluates those coefficients in cancellation-free form, together
with the operator-norm constants of the compressions that map the
fundamental profile onto higher even indices.  Only closed forms live here;
the quadrature oracle the tests hold them to is tests/reference.py.
"""

from __future__ import annotations

import math

from .spectrum import InputError, _index, _real


def _sin_pi_ratio(k: int, s: float) -> float:
    """sin(k pi / s), computed from the argument reduced modulo pi."""
    t = k / s
    m = round(t)
    return (-1.0) ** (m % 2) * math.sin(math.pi * (t - m))


def _roots(gamma: float) -> tuple[float, float]:
    """s = sqrt(gamma) and q = s - 2, the latter without cancellation."""
    s = math.sqrt(gamma)
    return s, (gamma - 4.0) / (s + 2.0)


def _alpha_major(gamma: float, k: int, s: float, q: float) -> float:
    """Closed-form k-th coefficient of the alpha-major two-arc profile,
    with s and q the _roots of gamma.

    The k = 2 and k = 3 formulas carry removable singularities at the ends
    of the shape range; both are evaluated through sin(u)/u forms whose
    small argument is produced by exact factoring, never by subtraction of
    nearly equal squares.
    """
    if gamma == 4.0:
        return 1.0 if k == 2 else 0.0
    pref = (2.0 / math.pi) * gamma * gamma / (s - 1.0)
    if k == 2:
        ratio = math.sin(math.pi * q / s) / q
        return pref * ratio / ((s + 2.0) * (3.0 * s - 2.0))
    if k == 3:
        u = (9.0 - gamma) / (3.0 + s)  # equals 3 - s without cancellation
        ratio = math.sin(math.pi * u / s) / u
        return pref * q * ratio / ((3.0 + s) * (2.0 * s - 3.0) * (4.0 * s - 3.0))
    num = -pref * q * _sin_pi_ratio(k, s)
    den = (k * k - gamma) * ((k - 1) * s - k) * ((k + 1) * s - k)
    return num / den


def coefficient(gamma: float, k: int) -> float:
    """Closed-form k-th coefficient of the two-arc profile with shape gamma.

    At gamma = 4 the profile is the plain double sine, so the value is 1
    for k = 2 and 0 otherwise.  The mirrored profile (negative arc first)
    has these coefficients times (-1)^k.
    """
    gamma = _real(gamma, "gamma")
    if not 4.0 <= gamma < 9.0:
        raise InputError("gamma must lie in [4, 9)")
    return _alpha_major(gamma, _index(k, "k"), *_roots(gamma))


def dilation_norm_bound(k: int) -> float:
    """Operator-norm constant of the k-th compression: 1 if k is even,
    sqrt(1 + 1/k) if k is odd."""
    if _index(k, "k") % 2 == 0:
        return 1.0
    return math.sqrt(1.0 + 1.0 / k)
