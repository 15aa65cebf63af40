"""Piecewise-sine profiles attached to asymmetric-oscillation curve points.

A profile is a chain of half-period sine arcs that alternate in sign,
starting positive, slope-matched at their shared zeros, with the larger
amplitude normalized to sqrt(2/pi), stored as three arrays: arc edges,
signed amplitudes and frequencies.  Construction refits the
negative-arc width so the chain tiles (0, pi) exactly in floating point,
which keeps the boundary zeros at machine accuracy for any admissible index.

Every profile comes from build_batch, which builds the arcs of many
profiles end to end in one numpy pass, and every norm and sine inner
product from batch_moments, one broadcast over all of them; build and
moments are the same routines on a batch of one, so a profile's numbers
do not depend on the company it is computed in.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .spectrum import FucikPoint, SpectrumError

SUP_NORM = math.sqrt(2.0 / math.pi)

# Largest index build accepts, so that an oversized index fails with
# SpectrumError: at the cap a profile holds 24 MB of arrays, and `dump`
# peaks at about 76 MB of resident memory.
MAX_ARCS = 1_000_000

# Terms (arcs x indices) one pass over several profiles may hold; a profile
# alone may need more, up to MAX_ARCS x indices.  Passes this small keep
# their arrays in cache: the Gram mixed block of the gamma 5 family at
# N = 512 ran about a fifth slower in passes of MAX_ARCS terms.  The Gram
# engine groups its rows by the same bound, counting arc overlaps as terms.
PASS_TERMS = 1 << 16


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
        lo, hi = int(self.offsets[k]), int(self.offsets[k + 1])
        edges = np.append(self.starts[lo:hi], math.pi)
        return PiecewiseEigenfunction(self.points[k], edges, self.amps[lo:hi], self.freqs[lo:hi])

    @property
    def ends(self) -> np.ndarray:
        """End of every arc: the next arc's start, or pi for a profile's last arc."""
        ends = np.empty_like(self.starts)
        ends[:-1] = self.starts[1:]
        ends[self.offsets[1:] - 1] = math.pi
        return ends


def passes(counts, per_arc: int = 1):
    """Split consecutive profiles into runs (lo, hi) of at most PASS_TERMS terms.

    counts holds each profile's number of arcs and each arc costs per_arc
    terms (or each Gram row's number of terms, at one term each); a profile
    alone always forms a run, so one pass never holds more than the largest
    single profile or PASS_TERMS terms, whichever is more.
    """
    lo, held = 0, 0
    for k, count in enumerate(counts):
        terms = count * per_arc
        if k > lo and held + terms > PASS_TERMS:
            yield lo, k
            lo, held = k, 0
        held += terms
    if lo < len(counts):
        yield lo, len(counts)


def build_batch(points) -> ProfileBatch:
    """Construct the normalized profiles of several curve points in one numpy pass.

    Every point must have at most MAX_ARCS arcs, none of them so narrow
    that it vanishes in the float spacing of pi; otherwise SpectrumError
    names the first point in order that breaks the cap, or failing that the
    first one with such an arc.  Each profile is bit for bit what build
    gives for its point alone.  At the symmetric point (n^2, n^2) a profile
    collapses to sqrt(2/pi) sin(n x).
    """
    points = tuple(points)
    counts, rows = [], []
    for p in points:
        n = p.n
        if n > MAX_ARCS:
            raise SpectrumError(f"n = {n} exceeds the cap of {MAX_ARCS} arcs per profile")
        counts.append(n)
        if n == 1:
            rows.append((math.pi, 0.0, SUP_NORM, 0.0))
            continue
        w_pos = math.pi / math.sqrt(p.alpha)
        # refit the negative width so the counted arcs sum to pi exactly
        w_neg = (math.pi - (n + 1) // 2 * w_pos) / (n // 2)
        # slope matching at the zeros: amp_pos sqrt(alpha) = amp_neg sqrt(beta)
        ratio = math.sqrt(p.alpha / p.beta)
        if ratio >= 1.0:
            rows.append((w_pos, w_neg, SUP_NORM / ratio, -SUP_NORM))
        else:
            rows.append((w_pos, w_neg, SUP_NORM, -SUP_NORM * ratio))
    size = len(points)
    offsets = np.array(list(itertools.accumulate(counts, initial=0)))
    counts = np.array(counts, dtype=np.intp)
    table = np.array(rows).reshape(size, 4)
    # in place where the types allow, as the arrays hold up to MAX_ARCS
    # values: the local index j of every arc, then its parity, which picks
    # the signed amplitude, then (j + 1) // 2, since arc j starts after
    # (j + 1) // 2 positive and j // 2 negative arcs
    local = np.arange(offsets[-1])
    local -= offsets[:-1].repeat(counts)
    half = local >> 1
    local &= 1
    pick = (4 * np.arange(size) + 2).repeat(counts)
    pick += local
    amps = table.ravel()[pick]
    local += half
    starts = local * table[:, 0].repeat(counts)
    starts += half * table[:, 1].repeat(counts)
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


def evaluate(f: PiecewiseEigenfunction, x):
    """Value of the profile at x; accepts scalars or numpy arrays in [0, pi]."""
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


def batch_moments(batch: ProfileBatch, indices) -> tuple[np.ndarray, np.ndarray]:
    """|f_k|^2 of every profile and <f_k, sqrt(2/pi) sin(j x)> for j in row k of indices.

    indices is a 2-D integer array with one row per profile.  All terms are
    taken by one broadcast per pass (see passes), and each (profile, index)
    arc sum is one math.fsum, so every value is bit for bit what the profile
    gives alone.  The arc A sin(w (x - a)) over its half period pi/w,
    midpoint m, adds A^2 pi/(2w) and
    sqrt(2/pi) pi A sin(j m) sinc((w - j)/(2w)) / (w + j);
    numpy's normalized sinc removes the singularity at w = j.
    """
    indices = np.asarray(indices)
    width = indices.shape[1]
    offsets = batch.offsets.tolist()
    counts = [hi - lo for lo, hi in zip(offsets, offsets[1:])]
    # arrays rather than lists of floats: floats kept across passes would pin
    # the interpreter's memory arenas that each pass's lists fill
    norm_sq, sums = np.empty(len(batch)), np.empty((len(batch), width))
    for lo, hi in passes(counts, width):
        first, last = offsets[lo], offsets[hi]
        amps, freqs = batch.amps[first:last], batch.freqs[first:last]
        widths = math.pi / freqs
        mids = batch.starts[first:last] + 0.5 * widths
        # one row of arc terms per index, each arc against its own profile's
        # row; a lone profile's indices broadcast as they are
        col = indices[lo:hi].T.astype(float)
        if hi - lo > 1:
            col = np.repeat(col, counts[lo:hi], axis=1)
        arcs = amps * np.sin(col * mids) * np.sinc((freqs - col) / (2.0 * freqs)) / (freqs + col)
        squares = amps * amps * widths
        for k in range(lo, hi):
            a, b = offsets[k] - first, offsets[k + 1] - first
            norm, rows = squares[a:b], arcs[:, a:b]
            # math.fsum reads lists fastest, but no list of more than
            # PASS_TERMS values is made: a profile with more terms is listed
            # one row at a time, and one whose rows hold more is read as it is
            if b - a <= PASS_TERMS:
                norm = norm.tolist()
                rows = rows.tolist() if rows.size <= PASS_TERMS else map(np.ndarray.tolist, rows)
            norm_sq[k] = 0.5 * math.fsum(norm)
            sums[k] = [math.fsum(row) for row in rows]
    return norm_sq, SUP_NORM * math.pi * sums


def moments(
    f: PiecewiseEigenfunction, n: int | np.ndarray
) -> tuple[float, float | np.ndarray]:
    """|f|^2 and <f, sqrt(2/pi) sin(n x)> in closed form: batch_moments of one.

    n is one index, giving the inner product as a float, or a 1-D numpy
    array of indices, giving an array of inner products in the same order.
    """
    batch = ProfileBatch((f.point,), f.edges[:-1], f.amps, f.freqs, np.array([0, len(f.amps)]))
    many = isinstance(n, np.ndarray)
    norm_sq, inner = batch_moments(batch, n[None, :] if many else [[n]])
    return float(norm_sq[0]), inner[0] if many else float(inner[0, 0])
