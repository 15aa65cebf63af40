"""Test-only references: one profile as arc arrays and its evaluator,
quadrature, series and arc-sum oracles for the closed forms of the library,
the per-row Gram engine that the swept one is held to, the abstract
criterion and dilation operator that the tests check on their own, and the
ODE residual of a profile.  Nothing in fucik imports this module.
"""

import math
from dataclasses import dataclass

import numpy as np

from fucik.certify import InputError
from fucik.eigenfunction import _TINY, SUP_NORM
from fucik.envelope import GAMMA_MAX, TAIL_WEIGHT
from fucik.gram import ProfileBatch, build_batch
from fucik.quadrature import integrate
from fucik.spectrum import FucikPoint, _index


@dataclass(frozen=True, eq=False)
class Profile:
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


def profile(p: FucikPoint) -> Profile:
    """The profile of p as fucik.gram.build_batch lays it out alone."""
    batch = build_batch((p,))
    return Profile(p, np.append(batch.starts, math.pi), batch.amps, batch.freqs)


def evaluate(f: Profile, x):
    """Value of the profile at x; accepts scalars or numpy arrays in [0, pi]."""
    arr = np.asarray(x, dtype=float)
    pts = np.atleast_1d(arr)
    idx = np.searchsorted(f.edges, pts, side="right") - 1
    np.clip(idx, 0, len(f.amps) - 1, out=idx)
    vals = f.amps[idx] * np.sin(f.freqs[idx] * (pts - f.edges[idx]))
    if arr.ndim == 0:
        return float(vals[0])
    return vals.reshape(arr.shape)


def defect_details(p: FucikPoint, tol: float = 1e-12) -> dict:
    """Quadrature ingredients of the projection defect of one profile.

    Returns the squared norm, the inner product with the unit sine mode,
    the squared distance to the mode, and the defect computed both directly
    and through the distance identity.  The two defect routes are
    algebraically equal; comparing them bounds the quadrature error.  Only
    tests call it, as the reference for the closed forms of fucik.certify.
    """
    f = profile(p)
    nn = float(p.n)

    def mode(x):
        return SUP_NORM * np.sin(nn * x)

    def f_sq(x):
        return evaluate(f, x) ** 2

    def f_mode(x):
        return evaluate(f, x) * mode(x)

    def diff_sq(x):
        d = evaluate(f, x) - mode(x)
        return d * d

    brk = f.junctions
    norm_sq = integrate(f_sq, 0.0, math.pi, tol=tol, breakpoints=brk)
    inner = integrate(f_mode, 0.0, math.pi, tol=tol, breakpoints=brk)
    distance_sq = integrate(diff_sq, 0.0, math.pi, tol=tol, breakpoints=brk)
    defect = 1.0 - inner * inner / norm_sq
    defect_alt = distance_sq - (norm_sq - inner) ** 2 / norm_sq
    return {
        "norm_sq": norm_sq,
        "inner": inner,
        "distance_sq": distance_sq,
        "defect": defect,
        "defect_alt": defect_alt,
    }


def quadrature_coefficient(p: FucikPoint, k: int, quarters: int = 0) -> float:
    """Independent oracle: <profile(p), sqrt(2/pi) sin(k x + quarters pi / 2)>
    by quadrature, a sine moment at quarters 0 and a cosine moment at 1,
    where k = 0 gives sqrt(2/pi) times the integral of the profile."""
    _index(k, "k", least=1 - quarters)
    f = profile(p)
    kk = float(k)
    phase = 0.5 * math.pi * quarters

    def integrand(x):
        return evaluate(f, x) * (SUP_NORM * np.sin(kk * x + phase))

    # split both at the profile junctions and at the zeros of the sine or
    # cosine, so no panel contains a full oscillation; commensurate widths
    # otherwise let the sample grid alias the sine into a constant
    zeros = (np.arange(1, k + quarters) - 0.5 * quarters) * (math.pi / max(kk, 1.0))
    cuts = np.union1d(f.junctions, zeros)
    if cuts.size > 1:
        cuts = cuts[np.concatenate(([True], np.diff(cuts) > 1e-12))]
    return integrate(integrand, 0.0, math.pi, tol=1e-12, breakpoints=cuts)


def profile_moments(f: Profile, n: int) -> tuple[float, float]:
    """|f|^2 and <f, sqrt(2/pi) sin(n x)> summed arc by arc over the built
    profile f, each sum one math.fsum: the oracle that the O(1) closed form
    of fucik.gram.batch_moments is held to, to rounding."""
    widths = math.pi / f.freqs
    mids = f.edges[:-1] + 0.5 * widths
    arcs = f.amps * np.sin(n * mids) * np.sinc((f.freqs - n) / (2.0 * f.freqs)) / (f.freqs + n)
    return 0.5 * math.fsum(f.amps * f.amps * widths), SUP_NORM * math.pi * math.fsum(arcs)


def per_row_gram(batch: ProfileBatch) -> np.ndarray:
    """Unscaled Gram matrix of a batch by the arc-overlap formula of
    fucik.gram._exact_gram, one row at a time: row i finds the arcs holding
    each start with searchsorted and sums its pair (i, j), j > i, over the
    pair's first shared period, the arcs of i before the starts of j, with
    one bincount, times the number of periods; the diagonal is left 0.  The
    swept engine is held to it bit for bit."""
    off = batch.offsets
    count = np.diff(off)
    size = len(batch.points)
    starts, ends, amps, freqs = batch.starts, batch.ends, batch.amps, batch.freqs
    owner = np.repeat(np.arange(size), count)
    local = np.arange(off[-1]) - off[owner]
    g = np.zeros((size, size))
    for i in range(size - 1):
        n_i, lo, partners = count[i], off[i], size - i - 1
        # two even profiles repeat together gcd(n_i / 2, n_j / 2) times
        rest = count[i + 1:]
        per = np.where((n_i | rest) & 1, 1, np.gcd(n_i >> 1, rest >> 1))
        mine = n_i // per
        own = starts[lo:off[i + 1]]
        # partner starts in (0, pi) inside the pair's first period
        theirs = np.flatnonzero((owner > i) & (local > 0))
        pair_t = owner[theirs] - i - 1
        inside = local[theirs] < rest[pair_t] // per[pair_t]
        theirs, pair_t = theirs[inside], pair_t[inside]
        # the arc of i holding one is the last to start below it, and never
        # past the period's last arc
        below = np.minimum(np.searchsorted(own, starts[theirs]), mine[pair_t])
        # a start of i lies in the partner arc counted by the partner starts at or before it
        hist = np.bincount(pair_t * (n_i + 1) + below, minlength=partners * (n_i + 1))
        holder = off[i + 1:-1, None] + np.cumsum(hist.reshape(partners, -1)[:, :n_i], axis=1)
        keep = np.arange(n_i) < mine[:, None]
        pair, arc = np.nonzero(keep)
        ai = np.concatenate((lo + arc, lo + below - 1))
        aj = np.concatenate((holder[keep], theirs))
        left = np.concatenate((own[arc], starts[theirs]))
        pair = np.concatenate((pair, pair_t))
        h = 0.5 * (np.minimum(ends[ai], ends[aj]) - left)
        mid = left + h
        w, v = freqs[ai], freqs[aj]
        a = w * (mid - starts[ai])
        b = v * (mid - starts[aj])
        z = (w - v) * h + _TINY
        vals = amps[ai] * amps[aj] * (
            h * np.cos(a - b) * (np.sin(z) / z)
            - np.cos(a + b) * np.sin((w + v) * h) / (w + v)
        )
        g[i, i + 1:] = np.bincount(pair, weights=vals, minlength=partners) * per
    g += g.T
    return g


def combined_criterion(residual_defect: float, families) -> tuple[float, bool]:
    """Abstract two-budget test: residual_defect^2 + sum of squared family sums.

    families is a list of families, each a list of (coefficient_bound,
    operator_norm) pairs; the family budget is the sum of the products.
    Returns the total and whether it is strictly below 1.
    """
    residual_defect = float(residual_defect)
    if not math.isfinite(residual_defect) or residual_defect < 0.0:
        raise InputError("residual defect must be finite and nonnegative")
    budgets = []
    for family in families:
        terms = []
        for c, t in family:
            c = float(c)
            t = float(t)
            if not (math.isfinite(c) and math.isfinite(t)) or c < 0.0 or t < 0.0:
                raise InputError("family pairs must be finite and nonnegative")
            terms.append(c * t)
        budgets.append(math.fsum(terms))
    total = residual_defect ** 2 + math.fsum(b * b for b in budgets)
    return total, total < 1.0


def envelope_tail_series(gamma: float, terms: int) -> float:
    """Direct truncation of the weighted k >= 5 majorant sum.

    Exists as the test oracle for the closed-form tail; no evaluation path
    uses it.
    """
    g = float(gamma)
    if not 4.0 < g <= GAMMA_MAX:
        raise ValueError("the series oracle needs gamma in (4, 9)")
    if isinstance(terms, bool) or not isinstance(terms, int) or terms < 5:
        raise ValueError("need at least the terms up to k = 5")
    s = math.sqrt(g)
    k = np.arange(5.0, float(terms) + 1.0)
    body = 1.0 / ((k * k - g) * ((k - 1.0) * s - k) * ((k + 1.0) * s - k))
    # s - 2 as a quotient: the direct difference wastes all its accuracy
    # right where the sum is smallest
    pref = TAIL_WEIGHT * (2.0 / math.pi) * g * g * ((g - 4.0) / (s + 2.0)) / (s - 1.0)
    return pref * float(np.sum(body))


def apply_dilation(k: int, g):
    """Compress g by k/2: the result is x -> g((k x / 2) folded into [0, pi)).

    The fold is the translation-periodic one, period pi.  On even sines it
    reproduces the classical identity: feeding sin(n x) with even n returns
    sin(k n x / 2) exactly, for every k >= 1.  g must vanish at 0 and pi so
    the folded function stays continuous.
    """
    _index(k, "k")
    for probe in (0.0, math.pi):
        if abs(float(g(probe))) > 1e-9:
            raise ValueError("g must vanish at 0 and pi")
    half = 0.5 * k

    def dilated(x):
        folded = np.mod(half * np.asarray(x, dtype=float), math.pi)
        return g(folded)

    return dilated


class JunctionError(ValueError):
    """The query point sits too close to an arc boundary."""


def ode_residual(f: Profile, x, junction_tol: float = 1e-9) -> float:
    """-u'' - alpha u_+ + beta u_- at an interior point of some arc.

    Differentiation is exact (the arc is a sine), so the residual isolates
    construction errors.  Points within junction_tol of an arc boundary are
    rejected: the curvature is discontinuous there and the equation only
    holds on the open arcs.
    """
    x = float(x)
    if not 0.0 <= x <= math.pi:
        raise ValueError("x must lie in [0, pi]")
    idx = int(np.searchsorted(f.edges, x, side="right")) - 1
    idx = min(max(idx, 0), len(f.amps) - 1)
    start, end = f.edges[idx : idx + 2].tolist()
    if x - start < junction_tol or end - x < junction_tol:
        raise JunctionError(
            f"x = {x!r} is within {junction_tol} of an arc boundary"
        )
    freq = float(f.freqs[idx])
    u = float(f.amps[idx]) * math.sin(freq * (x - start))
    second = -(freq ** 2) * u
    return -second - f.point.alpha * max(u, 0.0) + f.point.beta * max(-u, 0.0)
