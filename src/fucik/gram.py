"""Independent spectral check: truncated Gram matrices of a profile system.

The certificate predicts that the rescaled system deviates from an
orthonormal basis by at most theta = sqrt(total) in the Bessel/frame sense,
so every truncation's eigenvalues must land inside
[max(1 - theta, 0)^2, (1 + theta)^2].  This module builds those truncations
exactly and pays only for the perturbed entries E: the unperturbed sines
give an identity block, a member of E against a sine is one O(1)
closed-form inner product (batch_moments), and only the members of E among
themselves are summed as closed-form integrals of sine products over the
overlaps of two profiles' arcs, laid out by build_batch, many pairs of
profiles to one numpy sweep.  Two even profiles n_i, n_j repeat together
g = gcd(n_i / 2, n_j / 2) times over (0, pi), so their entry sums one shared
period and multiplies by g; a diagonal entry is the profile's squared
norm from batch_moments.  This is the one layer of the package that
imports numpy: build_batch and batch_moments run the floats-only rules of
fucik.eigenfunction (_arc_row, _start, _sign_rows, _sign_terms) elementwise
on arrays, bit for bit what arcs and moments give one point at a time.
The Gauss-Legendre reference in
tests/test_gram.py and the benchmark oracle (perfbench/oracle.py) check it
independently, and the per-row engine in tests/reference.py bit for bit.

Known gap: the certificate passes some large absorbed constant-shape
families that this check falsifies; fucik.certify states the gap.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

import numpy as np

from .certify import SystemSpec, certify_system
from .eigenfunction import _TINY, _arc_row, _sign_rows, _sign_terms, _start
from .spectrum import InputError, _index, is_diagonal

# Slack added on both sides of the certified window, for rounding noise only.
CUSHION = 0.02

# Overlap terms per lap of the Gram engine: a sweep takes the pairs whose
# last term falls in one lap, so it holds fewer than PASS_TERMS terms past
# its first pair.  A sweep has about ten float64 arrays of its length live
# at once, 1.3 MB at this cap, so they fit a 2 MB L2 cache; 2^13 measured
# about as fast, 2^15 and 2^16 slower.
PASS_TERMS = 1 << 14


class ProfileBatch(namedtuple("ProfileBatch", "points starts ends amps freqs offsets")):
    """Several profiles stored end to end as arc arrays.

    Profile k, of points[k], holds arcs offsets[k]:offsets[k + 1] of
    starts, ends, amps and freqs: arc j is amps[j] sin(freqs[j] (x - starts[j]))
    on [starts[j], ends[j]], positive on a profile's even arcs.  An arc ends
    at the next arc's start, or at exactly pi for a profile's last arc.  The
    batch holds len(points) profiles; len of the batch counts its fields.
    """

    __slots__ = ()


def build_batch(points) -> ProfileBatch:
    """Construct the normalized profiles of several curve points in one numpy pass.

    The first point in order that _arc_row refuses raises its SpectrumError.
    Each profile is bit for bit what it is in a batch of its point alone,
    and what arcs streams.  At the symmetric point (n^2, n^2) a profile
    collapses to sqrt(2/pi) sin(n x).
    """
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


def batch_moments(points, indices) -> tuple[np.ndarray, np.ndarray]:
    """moments of every point, as arrays: |f_k|^2 and the inner products for row k of indices.

    indices holds one row of integers per point.  Every value is the same
    closed form as fucik.eigenfunction.moments, elementwise on numpy
    arrays, so it is bit for bit what moments gives for the point alone.
    The first point in order that _arc_row refuses raises its SpectrumError.
    """
    rows = [_sign_rows(p) for p in points]
    size = len(rows)
    # one row per sign and point, the positive arcs of every point first
    table = np.array([r[0] for r in rows] + [r[1] for r in rows]).reshape(2 * size, 9)
    table = table.T[:, :, None]
    # every operand has 2 * size rows, so numpy never broadcasts a row
    j = np.asarray(indices, dtype=float)
    terms = _sign_terms(np.concatenate((j, j)), 0, table, np.sin, np.rint, np.fmod)
    return table[8, :size, 0], terms[:size] + terms[size:]


def _firsts(counts: np.ndarray) -> np.ndarray:
    """Where each run of the given lengths starts when the runs lie end to end."""
    first = np.zeros(len(counts), dtype=np.intp)
    np.cumsum(counts[:-1], out=first[1:])
    return first


def _exact_gram(batch: ProfileBatch) -> np.ndarray:
    """Unscaled Gram matrix, summed exactly over arc overlaps, many pairs per numpy sweep.

    Reads the batch's concatenated arc arrays as they are.  Arcs
    A sin(w (x - s)) and B sin(v (x - t)) overlapping on [m - h, m + h]
    give AB [h cos(a - b) sin(z) / z - cos(a + b) sin((w + v) h) / (w + v)]
    with a = w (m - s), b = v (m - t), z = (w - v) h, moved off z = 0 by
    _TINY as in _sign_terms.  Every overlap starts at an arc start of one
    side, inside one arc of the other side.  An even profile is n / 2
    copies of one (positive, negative) pair of arcs, up to the rounding of
    the laid-out starts, so two even profiles n_i, n_j repeat together
    g_ij = gcd(n_i / 2, n_j / 2) times over (0, pi); a pair with an odd
    member has g_ij = 1.  Pair (i, j), j > i, sums its first period, the
    n_i / g_ij arcs of i and the n_j / g_ij - 1 starts of j inside it, and
    multiplies by g_ij: it takes (n_i + n_j) / g_ij - 1 terms; the diagonal
    is left 0.  The pairs, listed row by row, are cut into sweeps where
    their running count of terms crosses a multiple of PASS_TERMS, and each
    entry is one bincount over its own terms in a fixed order, so the
    matrix does not depend on where the sweeps are cut.
    """
    off = batch.offsets
    count = np.diff(off)
    size = len(batch.points)
    starts, ends, amps, freqs = batch.starts, batch.ends, batch.amps, batch.freqs
    # integer keys that order the starts exactly as their values do
    uniques, rank = np.unique(starts, return_inverse=True)
    stride = len(uniques)
    # every pair (i, j), j > i, row by row: those of row i start at at[i]
    partners = size - 1 - np.arange(size)
    at = _firsts(partners)
    pairs_i = np.repeat(np.arange(size), partners)
    pairs_j = pairs_i + 1 + np.arange(len(pairs_i)) - np.repeat(at, partners)
    # two even profiles repeat together gcd(n_i / 2, n_j / 2) times over (0, pi)
    n_i, n_j = count[pairs_i], count[pairs_j]
    periods = np.where((n_i | n_j) & 1, 1, np.gcd(n_i >> 1, n_j >> 1))
    # pair (i, j) sums the arcs of i in its first period, each against the
    # arc of j that holds its start, then the starts of j inside that
    # period, each against the arc of i that holds it
    n_arcs, n_starts = n_i // periods, n_j // periods - 1
    # a sweep takes every pair whose last term falls in one lap of PASS_TERMS
    laps = (np.cumsum(n_arcs + n_starts) - 1) // PASS_TERMS
    cuts = np.flatnonzero(np.diff(laps, prepend=-1)).tolist() + [len(laps)]
    g = np.zeros((size, size))
    for lo, hi in itertools.pairwise(cuts):
        sweep = slice(lo, hi)
        pair_i, pair_j = pairs_i[sweep], pairs_j[sweep]
        n_pairs = len(pair_i)
        r0, r1 = pair_i[0], pair_i[-1] + 1
        rows = np.arange(r0, r1)
        # the sweep lists the first kind of term for every pair, then the
        # second; ai and aj start as the arc whose start a term lists, and
        # the holding arcs are filled in below
        runs = np.concatenate((n_arcs[sweep], n_starts[sweep]))
        first = _firsts(runs)
        n_own, theirs = int(first[n_pairs]), runs[n_pairs:]
        shift = np.concatenate((off[pair_i], off[pair_j] + 1)) - first
        ai = np.arange(first[-1] + runs[-1]) + np.repeat(shift, runs)
        aj = ai.copy()
        # the starts of the sweep's rows keyed by rank, a stride of keys per
        # row, so own increases strictly: the keys below a partner start's
        # count every start of the earlier rows and those of its own row
        # that lie below it
        own = np.repeat((rows - r0) * stride, count[r0:r1]) + rank[off[r0] : off[r1]]
        key = rank[aj[n_own:]] + np.repeat((pair_i - r0) * stride, theirs)
        inside = ai[n_own:]
        np.add(np.searchsorted(own, key), off[r0] - 1, out=inside)
        # a start of j that rounding puts past the period's last arc of i
        # stays in that arc, a sliver of a few ulp at most, so no term
        # lands in the next pair's bins
        np.minimum(inside, np.repeat(off[pair_i] + runs[:n_pairs] - 1, theirs), out=inside)
        # a start of i lies in the arc of j counted by the starts of j below
        # it: bin those by the arc of i holding them and count the bins before
        key = inside + np.repeat(first[:n_pairs] - off[pair_i], theirs)
        held = np.bincount(key, minlength=n_own)
        aj[:n_own] = np.repeat(off[pair_j] - first[n_pairs:] + n_own, runs[:n_pairs])
        aj[1:n_own] += np.cumsum(held[:-1])
        # the formula step by step, each operation on the operands and in
        # the order it has there, in place where one is free: the sweep's
        # arrays then stay in cache, and every term comes out bit for bit
        s, t = starts[ai], starts[aj]
        left = np.maximum(s, t)
        h = np.minimum(ends[ai], ends[aj])
        h -= left
        h *= 0.5
        mid = np.add(left, h, out=left)
        w, v = freqs[ai], freqs[aj]
        a = np.subtract(mid, s, out=s)
        a *= w
        b = np.subtract(mid, t, out=t)
        b *= v
        near = np.subtract(a, b, out=mid)
        a += b
        z = np.subtract(w, v, out=b)
        z *= h
        z += _TINY
        w += v
        sinc = np.sin(z, out=v)
        sinc /= z
        np.cos(near, out=near)
        near *= h
        near *= sinc
        far = np.cos(a, out=a)
        h *= w
        far *= np.sin(h, out=h)
        far /= w
        near -= far
        vals = amps[ai] * amps[aj]
        vals *= near
        # bincount adds in input order: within a pair, arcs of i before starts of j
        pair = np.repeat(np.tile(np.arange(n_pairs), 2), runs)
        g[pair_i, pair_j] = np.bincount(pair, weights=vals, minlength=n_pairs) * periods[sweep]
    g += g.T
    return g


def gram_matrix(spec: SystemSpec, n_trunc: int, rescale: bool = True) -> np.ndarray:
    """Matrix of pairwise inner products of the first n_trunc members.

    Indices without an entry, and diagonal entries, contribute their
    unperturbed sine; the other entries with n <= n_trunc form the set E.
    With rescale, each member of E is multiplied by its optimal scaling
    factor rho_n, matching what the certificate is actually about.  The
    matrix is assembled in three blocks, and only E's profiles are built,
    all in one build_batch, for the last block: the sines among themselves
    give exactly the identity; a member n of E against a sine m gives
    rho_n <f_n, sqrt(2/pi) sin(m x)>, taken with rho_n = profile_scaling(p_n)
    from one batch_moments over every member and every such m, which builds
    nothing; the members of E among themselves go through the arc-overlap
    engine, and a member's diagonal entry is rho_n^2 |f_n|^2 from that call.
    """
    g = np.eye(_index(n_trunc, "n_trunc"))
    perturbed = [p for p in spec.entries if p.n <= n_trunc and not is_diagonal(p)]
    if not perturbed:
        return g
    batch = build_batch(perturbed)
    rows = np.array([p.n - 1 for p in perturbed])
    sines = np.delete(np.arange(n_trunc), rows)
    # each profile against its own mode, for rho, then against every sine
    wanted = np.column_stack((rows, np.broadcast_to(sines, (len(rows), len(sines))))) + 1
    norm_sq, inner = batch_moments(perturbed, wanted)
    factors = inner[:, 0] / norm_sq if rescale else np.ones(len(rows))
    g[np.ix_(rows, sines)] = mixed = factors[:, None] * inner[:, 1:]
    g[np.ix_(sines, rows)] = mixed.T
    g[np.ix_(rows, rows)] = (_exact_gram(batch) + np.diag(norm_sq)) * np.outer(factors, factors)
    return g


def extremal_eigenvalues(m: np.ndarray) -> tuple[float, float]:
    """Smallest and largest eigenvalue of a symmetric matrix."""
    try:
        m = np.asarray(m, dtype=float)
    except (TypeError, ValueError):
        raise InputError("matrix entries must be real numbers") from None
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        raise InputError("need a non-empty square matrix")
    if not np.all(np.isfinite(m)):
        raise InputError("matrix has non-finite entries")
    if float(np.max(np.abs(m - m.T))) > 1e-8:
        raise InputError("matrix is not symmetric")
    eigs = np.linalg.eigvalsh(0.5 * (m + m.T))
    return float(eigs[0]), float(eigs[-1])


class GramWitness(
    namedtuple(
        "GramWitness",
        "size min_eig max_eig theta window_low window_high within_window cushion note",
    )
):
    """One truncation's eigenvalue range against the certified window."""

    __slots__ = ()

    def as_dict(self) -> dict:
        return self._asdict()


def gram_witness(spec: SystemSpec, n_trunc: int, matrix: np.ndarray) -> GramWitness:
    """Check an n_trunc x n_trunc truncation against the certified window.

    matrix is gram_matrix(spec, n_trunc), normally rescaled: the window is a
    claim about the rescaled system, so it does not test an unscaled matrix.
    theta comes from the certificate total; the window is
    [max(1 - theta, 0)^2 - CUSHION, (1 + theta)^2 + CUSHION]: past theta = 1
    a failing certificate claims no lower frame bound, so the floor is 0.  A truncation
    escaping the window falsifies the certificate, never the other way
    around (truncations can be tamer than the full system).  Large absorbed
    constant-shape families do escape it (the known gap that fucik.certify
    states), so within_window is False there although the certificate passes.
    """
    theta = math.sqrt(certify_system(spec).total)
    if np.shape(matrix) != (n_trunc, n_trunc):
        raise InputError("matrix shape does not match n_trunc")
    lo, hi = extremal_eigenvalues(matrix)
    window_low = max(1.0 - theta, 0.0) ** 2 - CUSHION
    window_high = (1.0 + theta) ** 2 + CUSHION
    return GramWitness(
        size=n_trunc,
        min_eig=lo,
        max_eig=hi,
        theta=theta,
        window_low=window_low,
        window_high=window_high,
        within_window=(window_low <= lo) and (hi <= window_high),
        cushion=CUSHION,
        note="truncations may sit strictly inside the window; escaping it "
        "falsifies the certificate",
    )
