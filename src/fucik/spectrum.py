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
    """An index n together with coordinates (alpha, beta)."""

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


def is_diagonal(p: FucikPoint) -> bool:
    """True for the symmetric representative (n^2, n^2) of index n."""
    return p.alpha == p.beta == float(p.n * p.n)


def _arc_counts(n: int) -> tuple[int, int]:
    return (n + 1) // 2, n // 2


def curve_residual(p: FucikPoint) -> float:
    """Tiling residual of p: total arc length minus pi, 0 on the curve.

    For n = 1 the residual is the distance of (alpha, beta) to the trivial
    lines alpha = 1 and beta = 1.
    """
    if p.n == 1:
        return min(abs(p.alpha - 1.0), abs(p.beta - 1.0))
    n_pos, n_neg = _arc_counts(p.n)
    return (
        n_pos * math.pi / math.sqrt(p.alpha)
        + n_neg * math.pi / math.sqrt(p.beta)
        - math.pi
    )


def validate_point(p: FucikPoint) -> None:
    """Raise unless p lies on its curve within MEMBERSHIP_TOL.

    Odd points satisfying only the sign-swapped arc count raise
    ReflectedCurveError so callers can distinguish the two failure modes.
    """
    if p.n == 1:
        if max(abs(p.alpha - 1.0), abs(p.beta - 1.0)) <= MEMBERSHIP_TOL:
            return
        raise SpectrumError(
            "index 1 is only represented by (1, 1); other points of the "
            "trivial lines carry the identical profile"
        )
    if abs(curve_residual(p)) <= MEMBERSHIP_TOL:
        return
    if p.n >= 3 and p.n % 2 == 1:
        mirrored = FucikPoint(p.n, p.beta, p.alpha)
        if abs(curve_residual(mirrored)) <= MEMBERSHIP_TOL:
            raise ReflectedCurveError(
                f"({p.alpha}, {p.beta}) solves the sign-swapped equation for "
                f"n={p.n}; swap the coordinates and negate the profile"
            )
    raise SpectrumError(
        f"({p.alpha}, {p.beta}) is not on curve {p.n}: "
        f"residual {curve_residual(p):.3e}"
    )


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
    if not math.isfinite(gamma) or gamma < 4.0:
        raise SpectrumError("the dilation parameter is at least 4")
    alpha = gamma * n * n / 4.0
    return FucikPoint(n, alpha, solve_beta(n, alpha))
