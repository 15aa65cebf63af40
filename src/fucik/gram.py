"""Independent spectral check: truncated Gram matrices of a profile system.

The certificate predicts that the rescaled system deviates from an
orthonormal basis by at most theta = sqrt(total) in the Bessel/frame sense,
so every truncation's eigenvalues must land inside
[(1 - theta)^2, (1 + theta)^2].  This module builds those truncations
exactly and pays only for the perturbed entries E: the unperturbed sines
give an identity block, a member of E against a sine is one O(1)
closed-form inner product (fucik.eigenfunction.batch_moments), and only
the members of E among themselves are summed as closed-form integrals of
sine products over the overlaps of two profiles' arcs, many rows of the
matrix to one numpy sweep.  The Gauss-Legendre reference in
tests/test_gram.py and the benchmark oracle (perfbench/oracle.py) check it
independently, and the per-row engine in tests/reference.py bit for bit.

Known gap: the certificate can pass systems this check falsifies.  When
the envelope absorbs a large constant-shape family (every even n <= N at
one dilation parameter), each rescaled member has the same component mu
along the unit constant 1/sqrt(pi), so the truncated top eigenvalue grows
like (N/2) mu^2 and the family is not even Bessel, while the certificate
total does not depend on N.  At gamma = 5, N = 64 the total is 0.278
(theta 0.527) but the top eigenvalue is 2.618 > (1 + theta)^2: the
certificate is the false part, not the Gram matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certify import SystemSpec, certify_system
from .eigenfunction import ProfileBatch, batch_moments, build_batch
from .spectrum import is_diagonal

# Slack added on both sides of the certified window, for rounding noise only.
CUSHION = 0.02

# Overlap terms one sweep of the Gram engine may hold; a row alone may need
# more.  Sweeps this small keep their arrays in cache.
PASS_TERMS = 1 << 16


def passes(counts):
    """Split consecutive rows into runs (lo, hi) of at most PASS_TERMS terms.

    counts holds each row's number of terms; a row alone always forms a
    run, so one sweep never holds more than the largest single row or
    PASS_TERMS terms, whichever is more.
    """
    lo, held = 0, 0
    for k, terms in enumerate(counts):
        if k > lo and held + terms > PASS_TERMS:
            yield lo, k
            lo, held = k, 0
        held += terms
    if lo < len(counts):
        yield lo, len(counts)


def _firsts(counts: np.ndarray) -> np.ndarray:
    """Where each run of the given lengths starts when the runs lie end to end."""
    first = np.zeros(len(counts), dtype=np.intp)
    np.cumsum(counts[:-1], out=first[1:])
    return first


def _exact_gram(batch: ProfileBatch) -> np.ndarray:
    """Unscaled Gram matrix, summed exactly over arc overlaps, many rows per numpy sweep.

    Reads the batch's concatenated arc arrays as they are.  Arcs
    A sin(w (x - s)) and B sin(v (x - t)) overlapping on [m - h, m + h]
    give AB [h cos(a - b) sinc((w - v) h) - cos(a + b) sin((w + v) h) / (w + v)]
    with a = w (m - s), b = v (m - t), sinc(y) = sin(y) / y.  Every overlap
    starts at an arc start of one side, inside one arc of the other side, so
    row i against its partners j >= i takes sum_j (n_i + n_j - 1) terms.
    Consecutive rows share one sweep of at most PASS_TERMS terms (see
    passes), and each entry is one bincount over its own terms in a fixed
    order, so the matrix does not depend on how the rows are grouped.
    """
    off = batch.offsets
    count = np.diff(off)
    size = len(batch)
    starts, ends, amps, freqs = batch.starts, batch.ends, batch.amps, batch.freqs
    # integer keys that order the starts exactly as their values do
    uniques, rank = np.unique(starts, return_inverse=True)
    stride = len(uniques)
    partners = size - np.arange(size)
    g = np.zeros((size, size))
    # row i: n_i terms with each partner and one per start in (0, pi) of profiles i..
    for r0, r1 in passes((partners * count + off[-1] - off[:-1] - partners).tolist()):
        rows = np.arange(r0, r1)
        part = partners[r0:r1]
        pair_i = np.repeat(rows, part)
        pair_j = pair_i + np.arange(len(pair_i)) - np.repeat(_firsts(part), part)
        n_pairs = len(pair_i)
        # pair (i, j) sums the arcs of i, each against the arc of j that
        # holds its start, then the starts in (0, pi) of j, each against the
        # arc of i that holds it.  The sweep lists the first kind of term for
        # every pair, then the second; ai and aj start as the arc whose start
        # a term lists, and the holding arcs are filled in below
        runs = np.concatenate((count[pair_i], count[pair_j] - 1))
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
        np.add(np.searchsorted(own, key), off[r0] - 1, out=ai[n_own:])
        # a start of i lies in the arc of j counted by the starts of j below
        # it: bin those by the arc of i holding them and count the bins before
        key = ai[n_own:] + np.repeat(first[:n_pairs] - off[pair_i], theirs)
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
        y = np.subtract(w, v, out=b)
        y *= h / math.pi
        np.cos(near, out=near)
        near *= h
        near *= np.sinc(y)
        w += v
        far = np.cos(a, out=a)
        h *= w
        far *= np.sin(h, out=h)
        far /= w
        near -= far
        vals = amps[ai] * amps[aj]
        vals *= near
        # bincount adds in input order: within a pair, arcs of i before starts of j
        pair = np.repeat(np.tile(np.arange(n_pairs), 2), runs)
        g[pair_i, pair_j] = np.bincount(pair, weights=vals, minlength=n_pairs)
    return g + np.triu(g, 1).T


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
    engine, which reads the batch's arrays as they are.
    """
    if isinstance(n_trunc, bool) or not isinstance(n_trunc, int) or n_trunc < 1:
        raise ValueError("n_trunc must be a positive integer")
    g = np.eye(n_trunc)
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
    g[np.ix_(rows, rows)] = _exact_gram(batch) * np.outer(factors, factors)
    return g


def extremal_eigenvalues(m: np.ndarray) -> tuple[float, float]:
    """Smallest and largest eigenvalue of a symmetric matrix."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("need a square matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    if float(np.max(np.abs(m - m.T))) > 1e-8:
        raise ValueError("matrix is not symmetric")
    eigs = np.linalg.eigvalsh(0.5 * (m + m.T))
    return float(eigs[0]), float(eigs[-1])


@dataclass(frozen=True)
class GramWitness:
    """One truncation's eigenvalue range against the certified window."""

    size: int
    min_eig: float
    max_eig: float
    theta: float
    window_low: float
    window_high: float
    within_window: bool
    cushion: float
    note: str

    def as_dict(self) -> dict:
        return dict(vars(self))


def gram_witness(spec: SystemSpec, n_trunc: int, matrix: np.ndarray) -> GramWitness:
    """Check an n_trunc x n_trunc truncation against the certified window.

    matrix is gram_matrix(spec, n_trunc), normally rescaled: the window is a
    claim about the rescaled system, so it does not test an unscaled matrix.
    theta comes from the certificate total; the window is
    [(1 - theta)^2 - CUSHION, (1 + theta)^2 + CUSHION].  A truncation
    escaping the window falsifies the certificate, never the other way
    around (truncations can be tamer than the full system).  Large absorbed
    constant-shape families do escape it (see the module docstring), so
    within_window is False there although the certificate passes.
    """
    theta = math.sqrt(certify_system(spec).total)
    if np.shape(matrix) != (n_trunc, n_trunc):
        raise ValueError("matrix shape does not match n_trunc")
    lo, hi = extremal_eigenvalues(matrix)
    window_low = (1.0 - theta) ** 2 - CUSHION
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
