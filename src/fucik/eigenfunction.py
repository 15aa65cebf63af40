"""Piecewise-sine profiles attached to asymmetric-oscillation curve points.

A profile is a chain of half-period sine arcs that alternate in sign,
starting positive, slope-matched at their shared zeros, with the larger
amplitude normalized to sqrt(2/pi), stored as three arrays: arc edges,
signed amplitudes and frequencies.  Construction refits the
negative-arc width so the chain tiles (0, pi) exactly in floating point,
which keeps the boundary zeros at machine accuracy for any admissible index.

_arc_row gives a point's arc counts, widths and amplitudes; it is the one
gate of every profile and moment, refusing a point past the cap or with an
arc of no width.  _start places arc k on floats, for arcs, which streams one
point's arcs, and on numpy arrays, for build_batch, which builds many
profiles end to end in one pass, bit for bit alike; build is build_batch of
one.  Norms and sine inner products need no profile: the arcs of one sign
are equally spaced, so their sum is a closed form of the point's row, O(1)
per (point, index), evaluated on floats by moments and on a table of many
points by batch_moments, bit for bit the same.  numpy is imported only
inside the functions that make arrays, and moments and arcs make none.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .spectrum import FucikPoint, SpectrumError

if TYPE_CHECKING:
    import numpy as np

SUP_NORM = math.sqrt(2.0 / math.pi)

# Largest index _arc_row accepts, so that an oversized index fails with
# SpectrumError: at the cap build peaks at about 47 MB of arrays, and
# `dump`, which streams its arcs on floats, makes none.
MAX_ARCS = 1_000_000

# Arcs at least this wide keep a positive width in floats: each float edge
# is within 2 ulp(pi) of its exact place, and the tiling within 2 ulp(pi)
# of pi, so only a narrower arc can close up.  _arc_row accepts such a
# point in O(1) and walks the edges of any other.
_NARROW = 16.0 * math.ulp(math.pi)

# Far below any phase the moments meet that is not exactly 0.
_TINY = 1e-300

# sqrt(2/pi) pi / 2, the factor of A w in each arc's inner product.
_WEIGHT = 0.5 * SUP_NORM * math.pi


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


@dataclass(frozen=True, eq=False)
class ProfileBatch:
    """Several profiles stored end to end as arc arrays.

    Profile k holds arcs offsets[k]:offsets[k + 1] of starts, ends, amps
    and freqs; an arc ends at the next arc's start, or at pi for a
    profile's last arc.  batch[k] is that profile, with its edges closed
    by pi.
    """

    points: tuple[FucikPoint, ...]
    starts: np.ndarray
    ends: np.ndarray
    amps: np.ndarray
    freqs: np.ndarray
    offsets: np.ndarray

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, k: int) -> PiecewiseEigenfunction:
        import numpy as np

        lo, hi = int(self.offsets[k]), int(self.offsets[k + 1])
        edges = np.append(self.starts[lo:hi], math.pi)
        return PiecewiseEigenfunction(self.points[k], edges, self.amps[lo:hi], self.freqs[lo:hi])


def _start(k, w_pos, w_neg):
    """Start of arc k: the summed widths of the arcs before it, positive first.

    On ints and floats, or elementwise on numpy arrays by the same IEEE
    operations, like _sign_terms.
    """
    return (k + 1) // 2 * w_pos + k // 2 * w_neg


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
    # refit the negative width so the counted arcs sum to pi exactly
    w_neg = (math.pi - (n + 1) // 2 * w_pos) / (n // 2)
    # below the float spacing of pi, or no room for negative arcs
    if not min(w_pos, w_neg) > _NARROW:
        for start, end in itertools.pairwise(_edges(n, w_pos, w_neg)):
            if not end - start > 0.0:
                raise SpectrumError(f"({p.alpha}, {p.beta}) leaves an arc of no width in floats")
    # slope matching at the zeros: amp_pos sqrt(alpha) = amp_neg sqrt(beta)
    ratio = math.sqrt(p.alpha / p.beta)
    counts = float((n + 1) // 2), float(n // 2)
    if ratio >= 1.0:
        return *counts, w_pos, w_neg, SUP_NORM / ratio, -SUP_NORM
    return *counts, w_pos, w_neg, SUP_NORM, -SUP_NORM * ratio


def build_batch(points) -> ProfileBatch:
    """Construct the normalized profiles of several curve points in one numpy pass.

    The first point in order that _arc_row refuses raises its SpectrumError.
    Each profile is bit for bit what build gives for its point alone, and
    what arcs streams.  At the symmetric point (n^2, n^2) a profile
    collapses to sqrt(2/pi) sin(n x).
    """
    import numpy as np

    points = tuple(points)
    table = np.array([_arc_row(p) for p in points]).reshape(len(points), 6)
    counts = [p.n for p in points]
    offsets = np.array(list(itertools.accumulate(counts, initial=0)))
    counts = np.array(counts, dtype=np.intp)
    # the local index of every arc within its profile
    j = np.arange(offsets[-1]) - offsets[:-1].repeat(counts)
    starts = _start(j, table[:, 2].repeat(counts), table[:, 3].repeat(counts))
    amps = np.where(j & 1, table[:, 5].repeat(counts), table[:, 4].repeat(counts))
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:]
    ends[offsets[1:] - 1] = math.pi
    # pi / width rather than sqrt(alpha): each arc then vanishes at both of
    # its own endpoints to the last bit
    freqs = math.pi / (ends - starts)
    return ProfileBatch(points, starts, ends, amps, freqs, offsets)


def build(p: FucikPoint) -> PiecewiseEigenfunction:
    """The normalized profile of one curve point: build_batch of one."""
    return build_batch((p,))[0]


def arcs(p: FucikPoint):
    """Arcs j = 0 .. n - 1 of p's profile as (start, end, signed amplitude, frequency).

    One arc at a time on floats, each value bit for bit build(p)'s edges[j],
    edges[j + 1], amps[j] and freqs[j].  A point that _arc_row refuses
    raises its SpectrumError here, at the call.
    """
    _, _, w_pos, w_neg, *signed = _arc_row(p)
    return ((start, end, signed[j & 1], math.pi / (end - start))
            for j, (start, end) in enumerate(itertools.pairwise(_edges(p.n, w_pos, w_neg))))


def evaluate(f: PiecewiseEigenfunction, x):
    """Value of the profile at x; accepts scalars or numpy arrays in [0, pi]."""
    import numpy as np

    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    pts = np.atleast_1d(arr)
    # NaN fails both comparisons, so it is refused with the out-of-range points
    if pts.size and not (np.min(pts) >= 0.0 and np.max(pts) <= math.pi):
        raise ValueError("evaluation points must lie in [0, pi]")
    idx = np.searchsorted(f.edges, pts, side="right") - 1
    np.clip(idx, 0, len(f.amps) - 1, out=idx)
    vals = f.amps[idx] * np.sin(f.freqs[idx] * (pts - f.edges[idx]))
    if scalar:
        return float(vals[0])
    return vals.reshape(arr.shape)


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


def _sign_terms(j, row, sin, rint, fmod):
    """The arcs of one sign summed against sqrt(2/pi) sin(j x), from a _sign_rows row.

    j and the row's values are floats, with math.sin, round and math.fmod,
    or numpy arrays, with np.sin, np.rint and np.fmod.  Both round half to
    even, and % is floor-mod on both with integer-valued operands, so both
    give the same bits.
    """
    twice, unit, drift, counts, less, half_widths, lags, weights = row[:8]
    turns = rint(j / twice)
    # delta and s are 0 or far above _TINY, which moves them off the
    # removable singularities: sin(K x) / sin(x) -> +-K and sin(s) / s -> 1
    delta = (j - twice * turns) * unit + j * drift + _TINY
    dirichlet = sin(counts * delta) / sin(delta)
    # sin(j pi / 2 + phi) = (-1)^floor(j / 2) sin(phi + (j mod 2) pi / 2), exact
    # at phi = 0, as for every odd index; sin(K x) / sin(delta) carries
    # (-1)^((K - 1) p), so the sign is 1 - (2 floor(j / 2) + 2 (K - 1) p mod 4)
    odd = fmod(j, 2.0)
    sines = sin(lags * j + odd * (0.5 * math.pi))
    signs = 1.0 - (j - odd + less * turns) % 4.0
    # A sin(s) / s w / (pi + j w) = (A w / 2) sin(s) / (s (pi - s))
    s = 0.5 * math.pi - j * half_widths + _TINY
    return weights * sin(s) / (s * (math.pi - s)) * dirichlet * sines * signs


def moments(p: FucikPoint, indices) -> tuple[float, list[float]]:
    """|f|^2 of p's profile and <f, sqrt(2/pi) sin(j x)> for every j in indices, on floats.

    No profile is built and numpy is not loaded: each value is O(1) in
    closed form.  A point with P positive arcs of width w+ and amplitude A+
    and Q negative ones of width w- and amplitude A- has
    |f|^2 = (P A+^2 w+ + Q A-^2 w-) / 2.  An arc A sin(pi (x - a) / w) with
    midpoint m adds sqrt(2/pi) pi A sin(j m) sin(s) / s w / (pi + j w),
    s = (pi - j w) / 2, and the K midpoints of one sign lie L = w+ + w-
    apart, so their sines sum to sin(theta) sin(K x) / sin(x), x = j L / 2,
    theta the phase of their middle.  The tiling P w+ + Q w- = pi reduces
    both phases exactly: x - p pi = delta = (pi (j - 2 P p) + j (P - Q) w-)
    / (2 P) with p = rint(j / 2P), where j - 2 P p is an exact integer, and
    theta = j pi / 2 - j (Q + 1 - P) w- / 2 for the positive arcs,
    j pi / 2 + j (Q + 1 - P) w+ / 2 for the negative ones.  A point that
    _arc_row refuses raises its SpectrumError.
    """
    plus, minus = _sign_rows(p)
    inner = [_sign_terms(j, plus, math.sin, round, math.fmod)
             + _sign_terms(j, minus, math.sin, round, math.fmod) for j in map(float, indices)]
    return plus[8], inner


def batch_moments(points, indices) -> tuple[np.ndarray, np.ndarray]:
    """moments of every point, as arrays: |f_k|^2 and the inner products for row k of indices.

    indices holds one row of integers per point.  Every value is the same
    closed form as moments, elementwise on numpy arrays, so it is bit for
    bit what moments gives for the point alone.  The first point in order
    that _arc_row refuses raises its SpectrumError.
    """
    import numpy as np

    rows = [_sign_rows(p) for p in points]
    size = len(rows)
    # one row per sign and point, the positive arcs of every point first
    table = np.array([r[0] for r in rows] + [r[1] for r in rows]).reshape(2 * size, 9)
    table = table.T[:, :, None]
    # every operand has 2 * size rows, so numpy never broadcasts a row
    j = np.asarray(indices, dtype=float)
    terms = _sign_terms(np.concatenate((j, j)), table, np.sin, np.rint, np.fmod)
    return table[8, :size, 0], terms[:size] + terms[size:]
