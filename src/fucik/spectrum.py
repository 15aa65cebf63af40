"""Geometry of the asymmetric-oscillation curves of the Dirichlet string.

A pair (alpha, beta) of positive reals belongs to the n-th curve when an
alternating chain of half-period sine arcs, running at frequency sqrt(alpha)
on positive arcs and sqrt(beta) on negative arcs, tiles (0, pi) exactly.
Even n uses n/2 arcs of each sign; odd n >= 3 uses (n+1)/2 positive and
(n-1)/2 negative arcs, so the chain starts and ends with a positive arc.
The index n = 1 degenerates to the plain sine line and is pinned here to the
single representative (1, 1) because every point of the two trivial lines
carries the same profile.

This module is also the package's one intake of scalar arguments: _index
decides what an index is and _real what a real argument is, and InputError,
the class of every refusal, and its subclass SpectrumError live here.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

# Absolute tolerance on the tiling residual.  The residual is an O(1)
# quantity (a length deficit measured against pi), so an absolute test is
# meaningful across the whole working range.
MEMBERSHIP_TOL = 1e-10
_FLOAT_MAX = sys.float_info.max


class InputError(ValueError):
    """Every refusal of the package: a malformed system description, or an
    argument of the wrong type or range.  The CLI exits 2 on it."""


class SpectrumError(InputError):
    """A point or index does not describe a valid curve member, or an
    argument fails the index or real rule of this module."""


class ReflectedCurveError(SpectrumError):
    """The point solves the sign-swapped odd equation, not the direct one.

    Such points start with a negative arc.  They are deliberately not
    modeled; swap (alpha, beta) and negate the profile to work with them.
    """


class FucikPoint(namedtuple("FucikPoint", "n alpha beta")):
    """An index n together with coordinates (alpha, beta) on the n-th curve.

    The one intake of curve points from outside data.  A coordinate given
    as None is completed from the other by the curve equation (solve_beta,
    solve_alpha); at n = 1 with neither given the point is the single
    representative (1, 1), and at n >= 2 one of them is needed.  Each
    coordinate must be a finite positive real (not a bool or a string).
    Construction then checks membership within MEMBERSHIP_TOL, so every
    instance is a curve member.  Odd points satisfying only the sign-swapped
    arc count raise ReflectedCurveError, a subclass of SpectrumError.  The
    first test is _index's; the arc counts and each coordinate's square root
    are taken once, for the completion and the membership check alike.  A
    point is the tuple (n, alpha, beta) with float coordinates; _make and
    _replace skip the checks, and no fucik code calls them.
    """

    __slots__ = ()

    def __new__(cls, n: int, alpha: float | None = None, beta: float | None = None) -> FucikPoint:
        _index(n)
        if alpha is None and beta is None:
            if n != 1:
                raise SpectrumError(f"index {n} needs alpha or beta")
            alpha = 1.0
        counts = _arc_counts(n)
        if beta is None:
            alpha = _coordinate(alpha, "alpha")
            ra = math.sqrt(alpha)
            beta = _complete(n, counts, alpha, ra, "alpha")
            rb = math.sqrt(beta)
        elif alpha is None:
            beta = _coordinate(beta, "beta")
            rb = math.sqrt(beta)
            alpha = _complete(n, counts, beta, rb, "beta")
            ra = math.sqrt(alpha)
        else:
            alpha = _coordinate(alpha, "alpha")
            beta = _coordinate(beta, "beta")
            ra, rb = math.sqrt(alpha), math.sqrt(beta)
        if n == 1:
            if not max(abs(alpha - 1.0), abs(beta - 1.0)) <= MEMBERSHIP_TOL:
                raise SpectrumError(
                    "index 1 is only represented by (1, 1); other points of the "
                    "trivial lines carry the identical profile"
                )
        else:
            residual = _residual(counts, ra, rb)
            if not abs(residual) <= MEMBERSHIP_TOL:
                if n % 2 == 1 and abs(_residual(counts, rb, ra)) <= MEMBERSHIP_TOL:
                    raise ReflectedCurveError(
                        f"({alpha}, {beta}) solves the sign-swapped equation for "
                        f"n={n}; swap the coordinates and negate the profile"
                    )
                raise SpectrumError(
                    f"({alpha}, {beta}) is not on curve {n}: residual {residual:.3e}"
                )
        return tuple.__new__(cls, (n, alpha, beta))


def _index(n, name: str = "index n", least: int = 1) -> int:
    """n, refused unless it is a plain int (not a bool) of at least least
    and within the float range, where the arc counts of a curve index meet
    floats: the one index rule of the package.  An exact int passes its
    first test, type(n) is int, which admits nothing the others refuse."""
    if type(n) is not int and (isinstance(n, bool) or not isinstance(n, int)):
        raise SpectrumError(f"{name} must be a plain positive integer")
    if n < least:
        raise SpectrumError(f"{name} must be >= {least}, got {n}")
    if n > _FLOAT_MAX:
        raise SpectrumError(f"{name} lies beyond the float range")
    return n


def _real(value, name: str) -> float:
    """value as a float, refused unless it has __float__ and is no bool (so
    no string or bytes that float() parses) and no int beyond the float
    range.  The one real rule of the package; each caller tests its range.
    Its first test sends any float instance, numpy.float64 too, straight to
    float(): none is a bool and each has __float__, so no refusal differs."""
    if not isinstance(value, float) and (isinstance(value, bool) or not hasattr(value, "__float__")):
        raise SpectrumError(f"{name} must be a real number")
    try:
        return float(value)
    except OverflowError:
        raise SpectrumError(f"{name} lies beyond the float range") from None
    except (TypeError, ValueError):
        raise SpectrumError(f"{name} must be a real number") from None


def _coordinate(value, name: str) -> float:
    """value as a float, refused unless a finite positive real."""
    value = _real(value, name)
    if not math.isfinite(value) or value <= 0.0:
        raise SpectrumError(f"{name} must be finite and positive")
    return value


def is_diagonal(p: FucikPoint) -> bool:
    """True when the profile of p is its sine mode: at (n^2, n^2) and at index 1."""
    return p.n == 1 or p.alpha == p.beta == float(p.n * p.n)


def _arc_counts(n: int) -> tuple[int, int]:
    """Positive and negative arcs among the first n, positive first; elementwise on arrays."""
    return (n + 1) // 2, n // 2


def _residual(counts: tuple[int, int], ra: float, rb: float) -> float:
    """Tiling residual on curve n >= 2 from _arc_counts(n), sqrt(alpha) and
    sqrt(beta): total arc length minus pi, 0 on the curve."""
    n_pos, n_neg = counts
    return n_pos * math.pi / ra + n_neg * math.pi / rb - math.pi


def _complete(n: int, counts: tuple[int, int], value: float, root: float, name: str) -> float:
    """The other coordinate of the point on curve n whose coordinate name
    ("alpha" runs the positive arcs, "beta" the negative ones) is value,
    for an index and a value already checked by _index and _coordinate,
    with counts = _arc_counts(n) and root = sqrt(value) taken by the caller.
    A completion beyond the float range is refused: it is no coordinate."""
    if n == 1:
        if abs(value - 1.0) > MEMBERSHIP_TOL:
            raise SpectrumError(f"index 1 admits only {name} = 1")
        return 1.0
    n_pos, n_neg = counts
    if name == "alpha":
        own, other, sign, missing = n_pos, n_neg, "positive", "beta"
    else:
        own, other, sign, missing = n_neg, n_pos, "negative", "alpha"
    room = 1.0 - own / root
    if room <= 0.0:
        raise SpectrumError(
            f"need sqrt({name}) > {own} for index {n}; the {sign} arcs "
            "alone would already overfill (0, pi)"
        )
    root = other / room
    square = root * root
    if not math.isfinite(square):
        raise SpectrumError(f"the {missing} completing this {name} lies beyond the float range")
    return square


def solve_beta(n: int, alpha: float) -> float:
    """The unique beta completing (n, alpha, beta) on the n-th curve."""
    _index(n)
    alpha = _coordinate(alpha, "alpha")
    return _complete(n, _arc_counts(n), alpha, math.sqrt(alpha), "alpha")


def solve_alpha(n: int, beta: float) -> float:
    """The unique alpha completing (n, alpha, beta) on the n-th curve."""
    _index(n)
    beta = _coordinate(beta, "beta")
    return _complete(n, _arc_counts(n), beta, math.sqrt(beta), "beta")


def dilation_parameter(p: FucikPoint) -> float:
    """Shape parameter 4 max(alpha, beta) / n^2 of an even-index point.

    It rescales the point onto the fundamental two-arc curve; the value is 4
    exactly at the symmetric point and grows with the asymmetry.  Odd
    indices are rejected because their arc counts do not rescale this way.
    """
    if p.n % 2 == 1:
        raise SpectrumError("the dilation parameter is defined for even n only")
    return 4.0 * max(p.alpha, p.beta) / float(p.n * p.n)


def point_from_gamma(n: int, gamma: float) -> FucikPoint:
    """Even-index point with dilation parameter gamma, alpha on the major side."""
    if _index(n) < 2 or n % 2 == 1:
        raise SpectrumError("gamma parametrization targets even indices n >= 2")
    gamma = _coordinate(gamma, "the dilation parameter")
    if gamma < 4.0:
        raise SpectrumError("the dilation parameter is at least 4")
    return FucikPoint(n, gamma * n * n / 4.0)
