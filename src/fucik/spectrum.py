"""Geometry of the asymmetric-oscillation curves of the Dirichlet string.

A pair (alpha, beta) of positive reals belongs to the n-th curve when an
alternating chain of half-period sine arcs, running at frequency sqrt(alpha)
on positive arcs and sqrt(beta) on negative arcs, tiles (0, pi) exactly.
Even n uses n/2 arcs of each sign; odd n >= 3 uses (n+1)/2 positive and
(n-1)/2 negative arcs, so the chain starts and ends with a positive arc.
The index n = 1 degenerates to the plain sine line and is pinned here to the
single representative (1, 1) because every point of the two trivial lines
carries the same profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Absolute tolerance on the tiling residual.  The residual is an O(1)
# quantity (a length deficit measured against pi), so an absolute test is
# meaningful across the whole working range.
MEMBERSHIP_TOL = 1e-10


class SpectrumError(ValueError):
    """A point or parameter does not describe a valid curve member."""


class ReflectedCurveError(SpectrumError):
    """The point solves the sign-swapped odd equation, not the direct one.

    Such points start with a negative arc.  They are deliberately not
    modeled; swap (alpha, beta) and negate the profile to work with them.
    """


@dataclass(frozen=True)
class FucikPoint:
    """An index n together with coordinates (alpha, beta) on the n-th curve.

    Construction checks membership within MEMBERSHIP_TOL, so every instance
    is a curve member.  Odd points satisfying only the sign-swapped arc
    count raise ReflectedCurveError, a subclass of SpectrumError.
    """

    n: int
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if isinstance(self.n, bool) or not isinstance(self.n, int):
            raise SpectrumError("index n must be a plain positive integer")
        if self.n < 1:
            raise SpectrumError(f"index n must be >= 1, got {self.n}")
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            try:
                value = float(value)
            except (TypeError, ValueError):
                raise SpectrumError(f"{name} must be a real number") from None
            if not math.isfinite(value) or value <= 0.0:
                raise SpectrumError(f"{name} must be finite and positive")
            object.__setattr__(self, name, value)
        n, alpha, beta = self.n, self.alpha, self.beta
        if n == 1:
            if max(abs(alpha - 1.0), abs(beta - 1.0)) <= MEMBERSHIP_TOL:
                return
            raise SpectrumError(
                "index 1 is only represented by (1, 1); other points of the "
                "trivial lines carry the identical profile"
            )
        residual = _residual(n, alpha, beta)
        if abs(residual) <= MEMBERSHIP_TOL:
            return
        if n % 2 == 1 and abs(_residual(n, beta, alpha)) <= MEMBERSHIP_TOL:
            raise ReflectedCurveError(
                f"({alpha}, {beta}) solves the sign-swapped equation for "
                f"n={n}; swap the coordinates and negate the profile"
            )
        raise SpectrumError(
            f"({alpha}, {beta}) is not on curve {n}: residual {residual:.3e}"
        )


def is_diagonal(p: FucikPoint) -> bool:
    """True when the profile of p is its sine mode: at (n^2, n^2) and at index 1."""
    return p.n == 1 or p.alpha == p.beta == float(p.n * p.n)


def _arc_counts(n: int) -> tuple[int, int]:
    return (n + 1) // 2, n // 2


def _residual(n: int, alpha: float, beta: float) -> float:
    """Tiling residual on curve n >= 2: total arc length minus pi, 0 on the curve."""
    n_pos, n_neg = _arc_counts(n)
    return n_pos * math.pi / math.sqrt(alpha) + n_neg * math.pi / math.sqrt(beta) - math.pi


def _complete(n: int, value: float, name: str) -> float:
    """The other coordinate of the point on curve n whose coordinate name
    ("alpha" runs the positive arcs, "beta" the negative ones) is value."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise SpectrumError("index n must be a plain positive integer")
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise SpectrumError(f"{name} must be finite and positive")
    if n == 1:
        if abs(value - 1.0) > MEMBERSHIP_TOL:
            raise SpectrumError(f"index 1 admits only {name} = 1")
        return 1.0
    n_pos, n_neg = _arc_counts(n)
    if name == "alpha":
        own, other, sign = n_pos, n_neg, "positive"
    else:
        own, other, sign = n_neg, n_pos, "negative"
    room = 1.0 - own / math.sqrt(value)
    if room <= 0.0:
        raise SpectrumError(
            f"need sqrt({name}) > {own} for index {n}; the {sign} arcs "
            "alone would already overfill (0, pi)"
        )
    root = other / room
    return root * root


def solve_beta(n: int, alpha: float) -> float:
    """The unique beta completing (n, alpha, beta) on the n-th curve."""
    return _complete(n, alpha, "alpha")


def solve_alpha(n: int, beta: float) -> float:
    """The unique alpha completing (n, alpha, beta) on the n-th curve."""
    return _complete(n, beta, "beta")


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
    if isinstance(n, bool) or not isinstance(n, int) or n < 2 or n % 2 == 1:
        raise SpectrumError("gamma parametrization targets even indices n >= 2")
    gamma = float(gamma)
    if not math.isfinite(gamma):
        raise SpectrumError("the dilation parameter must be finite")
    if gamma < 4.0:
        raise SpectrumError("the dilation parameter is at least 4")
    alpha = gamma * n * n / 4.0
    return FucikPoint(n, alpha, solve_beta(n, alpha))
