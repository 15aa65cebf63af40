"""Piecewise-sine profiles attached to asymmetric-oscillation curve points.

A profile is a chain of half-period sine arcs that alternate in sign,
starting positive, slope-matched at their shared zeros, with the larger
amplitude normalized to sqrt(2/pi), stored as three arrays: arc edges,
signed amplitudes and frequencies.  Construction refits the
negative-arc width so the chain tiles (0, pi) exactly in floating point,
which keeps the boundary zeros at machine accuracy for any admissible index.

Every profile comes from build_batch, which builds the arcs of many profiles
end to end in one numpy pass; arcs streams one point's arcs on floats, bit
for bit alike.  Norms and sine inner products need no profile: the arcs of
one sign are equally spaced, so their sum is a closed form of the point's
arc counts, widths and amplitudes, O(1) per (point, index).  That form is
written once, on operators that floats and numpy arrays share: moments
evaluates it on floats for one point, and batch_moments on a table of many
points, bit for bit the same.  build is build_batch of one, so a profile's
numbers do not depend on the company it is computed in.  numpy is imported
only inside the functions that make arrays, and moments and arcs make none.
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

# Largest index build, arcs, moments and batch_moments accept, so that an
# oversized index fails with SpectrumError: at the cap a profile holds 24 MB
# of arrays, which `dump` never makes: it streams its arcs from arcs.
MAX_ARCS = 1_000_000

# Arcs at least this wide keep a positive width in floats: each float edge
# is within 2 ulp(pi) of its exact place, and the tiling within 2 ulp(pi)
# of pi, so only a narrower arc can close up.
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

    Profile k holds arcs offsets[k]:offsets[k + 1] of starts, amps and
    freqs; batch[k] is that profile, with its edges closed by pi.
    """

    points: tuple[FucikPoint, ...]
    starts: np.ndarray
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

    @property
    def ends(self) -> np.ndarray:
        """End of every arc: the next arc's start, or pi for a profile's last arc."""
        import numpy as np

        ends = np.empty_like(self.starts)
        ends[:-1] = self.starts[1:]
        ends[self.offsets[1:] - 1] = math.pi
        return ends


def _arc_row(p: FucikPoint) -> tuple[float, ...]:
    """Positive and negative arc counts, widths and signed amplitudes of p's profile.

    An index past MAX_ARCS raises SpectrumError.
    """
    n = p.n
    if n > MAX_ARCS:
        raise SpectrumError(f"n = {n} exceeds the cap of {MAX_ARCS} arcs per profile")
    if n == 1:
        return 1.0, 0.0, math.pi, 0.0, SUP_NORM, 0.0
    w_pos = math.pi / math.sqrt(p.alpha)
    # refit the negative width so the counted arcs sum to pi exactly
    w_neg = (math.pi - (n + 1) // 2 * w_pos) / (n // 2)
    # slope matching at the zeros: amp_pos sqrt(alpha) = amp_neg sqrt(beta)
    ratio = math.sqrt(p.alpha / p.beta)
    counts = float((n + 1) // 2), float(n // 2)
    if ratio >= 1.0:
        return *counts, w_pos, w_neg, SUP_NORM / ratio, -SUP_NORM
    return *counts, w_pos, w_neg, SUP_NORM, -SUP_NORM * ratio


def build_batch(points) -> ProfileBatch:
    """Construct the normalized profiles of several curve points in one numpy pass.

    Every point must have at most MAX_ARCS arcs, none of them so narrow
    that it vanishes in the float spacing of pi; otherwise SpectrumError
    names the first point in order that breaks the cap, or failing that the
    first one with such an arc.  Each profile is bit for bit what build
    gives for its point alone.  At the symmetric point (n^2, n^2) a profile
    collapses to sqrt(2/pi) sin(n x).
    """
    import numpy as np

    points = tuple(points)
    size = len(points)
    table = np.array([_arc_row(p) for p in points]).reshape(size, 6)
    counts = [p.n for p in points]
    offsets = np.array(list(itertools.accumulate(counts, initial=0)))
    counts = np.array(counts, dtype=np.intp)
    # in place where the types allow, as the arrays hold up to MAX_ARCS
    # values: the local index j of every arc, then its parity, which picks
    # the signed amplitude, then (j + 1) // 2, since arc j starts after
    # (j + 1) // 2 positive and j // 2 negative arcs
    local = np.arange(offsets[-1])
    local -= offsets[:-1].repeat(counts)
    half = local >> 1
    local &= 1
    pick = (6 * np.arange(size) + 4).repeat(counts)
    pick += local
    amps = table.ravel()[pick]
    local += half
    starts = local * table[:, 2].repeat(counts)
    starts += half * table[:, 3].repeat(counts)
    last = offsets[1:] - 1
    widths = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=widths[:-1])
    widths[last] = math.pi - starts[last]
    # below the float spacing of pi, or no room for negative arcs
    wide = np.minimum.reduceat(widths, offsets[:-1]) > 0.0 if size else widths
    if not wide.all():
        p = points[int(wide.argmin())]
        raise SpectrumError(f"({p.alpha}, {p.beta}) leaves an arc of no width in floats")
    # pi / width rather than sqrt(alpha): each arc then vanishes at both of
    # its own endpoints to the last bit
    freqs = np.divide(math.pi, widths, out=widths)
    return ProfileBatch(points, starts, amps, freqs, offsets)


def build(p: FucikPoint) -> PiecewiseEigenfunction:
    """The normalized profile of one curve point: build_batch of one."""
    return build_batch((p,))[0]


def _checked_row(p: FucikPoint) -> tuple[float, ...]:
    """_arc_row(p) of a point whose profile build accepts; else build's SpectrumError."""
    row = _arc_row(p)
    if row[1] and not min(row[2], row[3]) > _NARROW:
        build(p)  # which refuses an arc of no width
    return row


def arcs(p: FucikPoint):
    """Arcs j = 0 .. n - 1 of p's profile as (start, end, signed amplitude, frequency).

    One arc at a time on floats, each value bit for bit build(p)'s edges[j],
    edges[j + 1], amps[j] and freqs[j].  A point that build refuses raises
    its SpectrumError here, at the call.
    """
    _, _, w_pos, w_neg, *signed = _checked_row(p)
    # the starts and widths of build_batch, by the same float operations
    edges = itertools.chain(
        ((k + 1) // 2 * w_pos + k // 2 * w_neg for k in range(p.n)), (math.pi,))
    return ((start, end, signed[j & 1], math.pi / (end - start))
            for j, (start, end) in enumerate(itertools.pairwise(edges)))


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
    arcs (see moments).  A point whose profile build refuses raises build's
    SpectrumError.
    """
    pos, neg, w_pos, w_neg, a_pos, a_neg = _checked_row(p)
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
    j pi / 2 + j (Q + 1 - P) w+ / 2 for the negative ones.  A point whose
    profile build refuses raises build's SpectrumError.
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
    whose profile build refuses raises build's SpectrumError.
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
