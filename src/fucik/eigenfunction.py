"""Piecewise-sine profiles attached to asymmetric-oscillation curve points.

A profile is a chain of half-period sine arcs that alternate in sign,
starting positive, slope-matched at their shared zeros, with the larger
amplitude normalized to sqrt(2/pi).  Its arc starts refit the
negative-arc width so the chain tiles (0, pi) exactly in floating point,
which keeps the boundary zeros at machine accuracy for any admissible index.

_arc_row gives a point's arc counts, widths and amplitudes; it is the one
gate of every profile and moment, refusing a point past the cap or with an
arc of no width.  arcs streams one point's arcs on floats.  Norms, sine and
cosine inner products need no profile: the arcs of one sign are equally
spaced, so their sum is one closed form of the point's row, O(1) per (point,
index), evaluated on floats by moments.  This module is floats only: _start and
_sign_terms also run elementwise on numpy arrays, and fucik.gram, the one
layer that loads numpy, lays out many profiles and their moments with them,
bit for bit as here.
"""

from __future__ import annotations

import itertools
import math

from .spectrum import FucikPoint, SpectrumError, _arc_counts, _real

SUP_NORM = math.sqrt(2.0 / math.pi)

# Largest index _arc_row accepts, so that an oversized index fails with
# SpectrumError: at the cap fucik.gram.build_batch peaks at about 47 MB of
# arrays, and `dump`, which streams its arcs on floats, makes none.
MAX_ARCS = 1_000_000

# Arcs wider than this keep a positive width in floats: each float edge is
# within 1.5 ulp(pi) of its place in exact arithmetic on the float widths,
# and the refitted tiling within 1.8 ulp(pi) of math.pi, so an arc wider
# than 3.3 ulp(pi) cannot close up.  _arc_row accepts such a point in O(1)
# and walks the edges of any other.
_NARROW = 4.0 * math.ulp(math.pi)

# Far below any phase the moments meet that is not exactly 0.
_TINY = 1e-300

# sqrt(2/pi) pi / 2, the factor of A w in each arc's inner product.
_WEIGHT = 0.5 * SUP_NORM * math.pi


def _start(k, w_pos, w_neg):
    """Start of arc k: the summed widths of the arcs before it, positive first.

    On ints and floats, or elementwise on numpy arrays by the same IEEE
    operations, like _sign_terms, with the counts of _arc_counts.
    """
    pos, neg = _arc_counts(k)
    return pos * w_pos + neg * w_neg


def _edges(n: int, w_pos: float, w_neg: float):
    """The n arc starts of a profile on floats, then exactly pi."""
    starts = map(_start, range(n), itertools.repeat(w_pos), itertools.repeat(w_neg))
    return itertools.chain(starts, (math.pi,))


def _arc_row(p: FucikPoint) -> tuple[float, ...]:
    """Positive and negative arc counts, widths and signed amplitudes of p's profile.

    The one gate of every profile and moment: an index past MAX_ARCS, or a
    point that leaves an arc of no width in floats, raises SpectrumError.
    """
    n = p.n
    if n > MAX_ARCS:
        raise SpectrumError(f"n = {n} exceeds the cap of {MAX_ARCS} arcs per profile")
    if n == 1:
        return 1.0, 0.0, math.pi, 0.0, SUP_NORM, 0.0
    w_pos = math.pi / math.sqrt(p.alpha)
    pos, neg = _arc_counts(n)
    # refit the negative width so the counted arcs sum to pi exactly
    w_neg = (math.pi - pos * w_pos) / neg
    # below the float spacing of pi, or no room for negative arcs
    if not min(w_pos, w_neg) > _NARROW:
        for start, end in itertools.pairwise(_edges(n, w_pos, w_neg)):
            if not end - start > 0.0:
                raise SpectrumError(f"({p.alpha}, {p.beta}) leaves an arc of no width in floats")
    # slope matching at the zeros: amp_pos sqrt(alpha) = amp_neg sqrt(beta)
    ratio = math.sqrt(p.alpha / p.beta)
    amps = (SUP_NORM / ratio, -SUP_NORM) if ratio >= 1.0 else (SUP_NORM, -SUP_NORM * ratio)
    return float(pos), float(neg), w_pos, w_neg, *amps


def arcs(p: FucikPoint):
    """Arcs j = 0 .. n - 1 of p's profile as (start, end, signed amplitude, frequency).

    One arc at a time on floats, each value bit for bit the starts, ends,
    amps and freqs of fucik.gram.build_batch((p,)).  A point that _arc_row
    refuses raises its SpectrumError here, at the call.
    """
    _, _, w_pos, w_neg, *signed = _arc_row(p)
    return ((start, end, signed[j & 1], math.pi / (end - start))
            for j, (start, end) in enumerate(itertools.pairwise(_edges(p.n, w_pos, w_neg))))


def _sign_rows(p: FucikPoint) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The positive and the negative row of p's closed-form moments.

    Each row holds 2P, pi / 2P, (P - Q) w- / 2P, K, 2 (K - 1), w / 2,
    theta / j - pi / 2, sqrt(2/pi) pi A w / 2 and |f|^2 for its sign's K
    arcs (see moments).  A point that _arc_row refuses raises its
    SpectrumError.
    """
    pos, neg, w_pos, w_neg, a_pos, a_neg = _arc_row(p)
    twice = 2.0 * pos
    shared = (twice, math.pi / twice, (pos - neg) * w_neg / twice)
    lag = 0.5 * (neg + 1.0 - pos)
    norm_sq = 0.5 * (pos * a_pos * a_pos * w_pos + neg * a_neg * a_neg * w_neg)
    plus = (*shared, pos, 2.0 * pos - 2.0, 0.5 * w_pos, -lag * w_neg,
            _WEIGHT * a_pos * w_pos, norm_sq)
    minus = (*shared, neg, 2.0 * neg - 2.0, 0.5 * w_neg, lag * w_pos,
             _WEIGHT * a_neg * w_neg, norm_sq)
    return plus, minus


def _sign_terms(j, quarters, row, sin, rint, fmod):
    """The arcs of one sign summed against sqrt(2/pi) sin(j x + quarters pi / 2), from a row.

    quarters is 0 for sines and 1 for cosines.  j and the row's values are
    floats, with math.sin, round and math.fmod, or numpy arrays, with np.sin,
    np.rint and np.fmod.  Both round half to even, and % is floor-mod on both
    with integer-valued operands, so both give the same bits.
    """
    twice, unit, drift, counts, less, half_widths, lags, weights = row[:8]
    turns = rint(j / twice)
    # delta and s are 0 or far above _TINY, which moves them off the
    # removable singularities: sin(K x) / sin(x) -> +-K and sin(s) / s -> 1
    delta = (j - twice * turns) * unit + j * drift + _TINY
    dirichlet = sin(counts * delta) / sin(delta)
    # q = j + quarters: sin(q pi / 2 + phi) = (-1)^floor(q / 2) sin(phi + (q mod 2)
    # pi / 2), exact at phi = 0, as for every odd q; sin(K x) / sin(delta) carries
    # (-1)^((K - 1) p), so the sign is 1 - (2 floor(q / 2) + 2 (K - 1) p mod 4)
    odd = fmod(j + quarters, 2.0)
    sines = sin(lags * j + odd * (0.5 * math.pi))
    signs = 1.0 - (j + quarters - odd + less * turns) % 4.0
    # A sin(s) / s w / (pi + j w) = (A w / 2) sin(s) / (s (pi - s))
    s = 0.5 * math.pi - j * half_widths + _TINY
    return weights * sin(s) / (s * (math.pi - s)) * dirichlet * sines * signs


def moments(p: FucikPoint, indices) -> tuple[float, list[float]]:
    """|f|^2 of p's profile and <f, sqrt(2/pi) sin(j x)> for every j in indices, on floats.

    No profile is built: each value is O(1) in closed form.  A point with P
    positive arcs of width w+ and amplitude A+ and Q negative ones of width
    w- and amplitude A- has |f|^2 = (P A+^2 w+ + Q A-^2 w-) / 2.  An arc
    A sin(pi (x - a) / w) with midpoint m adds sqrt(2/pi) pi A sin(j m)
    sin(s) / s w / (pi + j w), s = (pi - j w) / 2, and the K midpoints of
    one sign lie L = w+ + w- apart, so their sines sum to sin(theta)
    sin(K x) / sin(x), x = j L / 2, theta the phase of their middle.  The
    tiling P w+ + Q w- = pi reduces both phases exactly: x - p pi = delta =
    (pi (j - 2 P p) + j (P - Q) w-) / (2 P) with p = rint(j / 2P), where
    j - 2 P p is an exact integer, and theta = j pi / 2 - j (Q + 1 - P) w- / 2
    for the positive arcs, j pi / 2 + j (Q + 1 - P) w+ / 2 for the negative
    ones.  A point that _arc_row refuses raises its SpectrumError, and so
    does an index that _real refuses or that is not finite.
    """
    return _phase_moments(p, indices, 0)


def _phase_moments(p: FucikPoint, indices, quarters: int) -> tuple[float, list[float]]:
    """moments against sqrt(2/pi) cos(j x) at quarters = 1: each arc is even about its midpoint."""
    name = ("sine index", "cosine index")[quarters]
    plus, minus = _sign_rows(p)
    inner = []
    for j in map(_real, indices, itertools.repeat(name)):
        if not math.isfinite(j):
            raise SpectrumError(f"{name} must be finite")
        inner.append(_sign_terms(j, quarters, plus, math.sin, round, math.fmod)
                     + _sign_terms(j, quarters, minus, math.sin, round, math.fmod))
    return plus[8], inner
