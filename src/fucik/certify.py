"""Certification engine for profile systems.

A system assigns to every index n either the unperturbed sine (the implicit
identity tail) or a curve point whose profile replaces it.  The engine sums,
over indices kept outside the envelope set, the squared projection defect of
each profile against its own sine mode, adds the squared envelope of the
largest even dilation parameter inside the set, and certifies the basis
property when the total stays below 1.  Passing is meant as a proof; failing
is not a disproof, because the criterion is sufficient only.  Defects are
closed forms; tests/reference.py holds their quadrature reference.

Known gap: a pass is not yet a proof when the envelope absorbs a large
constant-shape set (every even n <= N at one dilation parameter).  Each
rescaled member then has the same constant_component, so the family is not
even Bessel, yet the envelope term depends only on the largest absorbed
dilation parameter and not on N.  The Gram check in fucik.gram falsifies such
a pass: at gamma = 5, N = 64 the total is 0.278 while the rescaled
truncation's top eigenvalue is 2.618 > (1 + 0.527)^2.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .eigenfunction import _phase_moments, moments
from .envelope import GAMMA_MAX, envelope_root, envelope_value, zeta
from .spectrum import (
    FucikPoint,
    InputError,
    SpectrumError,
    _index,
    _real,
    dilation_parameter,
    is_diagonal,
    point_from_gamma,
)

MODES = ("exact", "bound")
SPLIT_DEFAULT = "default"
SPLIT_AUTO = "auto"

_NOTE = (
    "a pass certifies the basis property; a fail only means this sufficient "
    "criterion did not apply at the attempted split"
)


def projection_defect(p: FucikPoint) -> float:
    """1 - <f, mode>^2 / |f|^2 for the profile of p, in closed form.

    Exactly zero at index 1 and at symmetric points, where the profile is
    the mode itself.  Otherwise one moments call on floats, which builds no
    profile and loads no numpy.  A squared distance, so rounding below zero
    is clamped to zero.
    """
    if is_diagonal(p):
        return 0.0
    sq, (dot,) = moments(p, (p.n,))
    # defect first, so that a NaN reaches the finiteness check
    return max(1.0 - dot * dot / sq, 0.0)


def projection_defect_bound(p: FucikPoint) -> float:
    """Closed-form majorant of the squared distance of the profile to its mode.

    Three cases: even index; odd index on the alpha side of the symmetric
    point; odd index on the beta side.  On an odd curve exactly one side
    applies since alpha > n^2 forces beta < n^2 and conversely.
    """
    n = p.n
    if is_diagonal(p):
        return 0.0
    sa = math.sqrt(p.alpha)
    sb = math.sqrt(p.beta)
    if n % 2 == 0:
        const = 8.0 * (3.0 + math.pi * math.pi) / 9.0
        dev = max(sa, sb) - n
    else:
        # n^2 (n^2 + 1) / (n -+ 1)^4 in r = 1 / n, finite for every float n
        r = 1.0 / n
        if sa >= n:
            const = 8.0 * (1.0 + r * r) / (1.0 - r) ** 4
            dev = sa - n
        else:
            const = 10.0 * (1.0 + r * r) / (1.0 + r) ** 4
            dev = sb - n
    return const * (dev / n) ** 2


def profile_scaling(p: FucikPoint) -> float:
    """<f, mode> / |f|^2 in closed form: the best scaling of p's profile f onto its mode."""
    if is_diagonal(p):
        return 1.0
    norm_sq, (inner,) = moments(p, (p.n,))
    return inner / norm_sq


def constant_component(p: FucikPoint) -> float:
    """mu = <rho f - e_n, 1/sqrt(pi)>, rho = profile_scaling(p), in closed form: rho times
    the j = 0 cosine moment over sqrt(2), less sqrt(2) (1 - (-1)^n) / (pi n); 0 if is_diagonal."""
    if is_diagonal(p):
        return 0.0
    _, (mean,) = _phase_moments(p, (0,), 1)
    return profile_scaling(p) * mean / math.sqrt(2.0) - 2.0 * math.sqrt(2.0) * (p.n & 1) / (math.pi * p.n)


def shape_coefficients(gamma: float, J: int) -> tuple[float, list[float], list[float]]:
    """(mu, a, b) of h = rho f_2 - e_2 at dilation parameter gamma in closed form, j = 1 .. J:
    h in the orthonormal basis 1, cos 2jx, sin 2jx of L^2(0, pi), with mu = constant_component,
    a_j = rho <f_2, sqrt(2/pi) cos 2jx> and b_j = rho <f_2, e_2j> - [j = 1]."""
    p = point_from_gamma(2, gamma)
    rho = profile_scaling(p)
    evens = range(2, 2 * _index(J, "J") + 1, 2)
    a = [rho * c for c in _phase_moments(p, evens, 1)[1]]
    b = [rho * s for s in moments(p, evens)[1]]
    b[0] -= 1.0
    return constant_component(p), a, b


class SystemSpec(
    namedtuple(
        "SystemSpec",
        "entries split mode tail_rule",
        defaults=(SPLIT_DEFAULT, "exact", "identity"),
    )
):
    """Finite description of a profile system.

    entries holds the explicitly perturbed indices (sorted, unique); every
    other index follows the identity tail rule and contributes nothing.
    split selects the even indices handled through the envelope: the literal
    "default" takes every non-symmetric even entry, "auto" picks the split of
    least total, and an explicit list or tuple is taken as given, kept as a
    sorted tuple.  _make and _replace skip these checks; the one fucik call,
    in __new__, replaces the split of a record it has just checked.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> SystemSpec:
        spec = super().__new__(cls, *args, **kwargs)
        literal = spec.split in (SPLIT_DEFAULT, SPLIT_AUTO)
        if not literal and not isinstance(spec.split, (list, tuple)):
            raise InputError('split must be "auto" or a list of even indices')
        ns = [p.n for p in spec.entries]
        if ns != sorted(set(ns)):
            raise InputError("entries must be sorted with unique indices")
        if spec.mode not in MODES:
            raise InputError(f"mode must be one of {MODES}")
        if spec.tail_rule != "identity":
            raise InputError("only the identity tail rule is supported")
        if literal:
            return spec
        split = tuple(sorted(_index(n, "split index") for n in spec.split))
        for n in split:
            if n % 2 == 1:
                raise InputError("split indices must be even")
            if n not in ns:
                raise InputError(f"split index {n} has no entry")
        return spec._replace(split=split)


def parse_system(obj: dict) -> SystemSpec:
    """Build a SystemSpec from plain JSON data.

    Each entry becomes one FucikPoint(n, alpha, beta), with a missing
    coordinate as None, so the point's intake completes and checks it; its
    SpectrumError becomes an InputError that names the entry.
    """
    if not isinstance(obj, dict):
        raise InputError("system description must be a JSON object")
    unknown = set(obj) - {"entries", "split", "mode", "tail_rule"}
    if unknown:
        raise InputError(f"unknown keys: {sorted(unknown)}")
    raw_entries = obj.get("entries", [])
    if not isinstance(raw_entries, list):
        raise InputError("entries must be a list")

    points = []
    for item in raw_entries:
        if not isinstance(item, dict):
            raise InputError("each entry must be an object")
        extra = set(item) - {"n", "alpha", "beta"}
        if extra:
            raise InputError(f"unknown entry keys: {sorted(extra)}")
        n = item.get("n")
        try:
            point = FucikPoint(n, item.get("alpha"), item.get("beta"))
        except SpectrumError as exc:
            raise InputError(f"entry n={n}: {exc}") from exc
        points.append(point)

    return SystemSpec(
        entries=tuple(sorted(points, key=lambda p: p.n)),
        split=obj.get("split", SPLIT_DEFAULT),
        mode=obj.get("mode", "exact"),
        tail_rule=obj.get("tail_rule", "identity"),
    )


class Certificate(
    namedtuple(
        "Certificate",
        "mode split defect_sum gamma_sup envelope_sq total passed margin per_index note",
    )
):
    """Outcome of a certification run, with per-index provenance."""

    __slots__ = ()

    def as_dict(self) -> dict:
        return {**self._asdict(), "per_index": tuple(dict(r) for r in self.per_index)}


def certify_system(spec: SystemSpec) -> Certificate:
    """Evaluate the sufficient criterion for the described system.

    The total is the sum of squared projection defects over entries outside
    the envelope set plus the squared envelope at the largest dilation
    parameter inside it.  "exact" mode takes each defect in closed form (the
    label "quadrature-defect" is kept; nothing is integrated, no profile is
    built and numpy is not loaded); "bound" mode takes its closed-form
    majorant and certifies fewer systems.  Either mode reads a defect when
    the walk below leaves its entry outside, and no other.

    The candidates for the envelope set are the split indices, or every
    non-symmetric even entry for "default" and "auto".  "default" absorbs all
    of them; "auto" picks the subset of least total, preferring the larger
    set on ties.  That search is exact because the envelope term depends only
    on the largest absorbed dilation parameter and every defect is
    nonnegative: absorbing every candidate up to that parameter never hurts,
    so the optimum is one of the threshold sets {n : gamma_n <= level}, which
    are walked from the top.  A term that grows with the absorbed set (such
    as the norm of its constant components) would break this and needs a new
    search.  The envelope term does not grow with the number of absorbed
    entries, so a pass over a large absorbed constant-shape set is not a
    proof (see the module docstring).  A defect or bound that is not finite,
    or a sum of them that overflows, raises InputError naming it.
    """
    exact = spec.mode == "exact"
    quantity = "defect" if exact else "defect bound"
    if spec.split in (SPLIT_DEFAULT, SPLIT_AUTO):
        candidates = [p for p in spec.entries if p.n % 2 == 0 and not is_diagonal(p)]
    else:
        candidates = [p for p in spec.entries if p.n in spec.split]
    gammas = {p.n: dilation_parameter(p) for p in candidates}
    for n, gamma in gammas.items():
        if gamma > GAMMA_MAX:
            raise InputError(
                f"entry n={n} has dilation parameter above 9 - 1e-9; the envelope "
                "cannot absorb it (give an explicit split without it)"
            )

    levels = sorted({4.0, *gammas.values()}, reverse=True)
    if spec.split != SPLIT_AUTO:
        levels = levels[:1]
    outside = [p for p in spec.entries if p.n not in gammas]
    to_drop = sorted(candidates, key=lambda p: gammas[p.n])
    # chosen on each call, so that a wrapper set on the module attribute sees every read
    defect = projection_defect if exact else projection_defect_bound

    def defect_fn(p: FucikPoint) -> float:
        value = defect(p)
        if not math.isfinite(value):
            raise InputError(f"entry n={p.n}: {quantity} is not finite")
        return value

    defects = {p.n: defect_fn(p) for p in outside}
    best = None
    for level in levels:
        while to_drop and gammas[to_drop[-1].n] > level:
            p = to_drop.pop()
            defects[p.n] = defect_fn(p)
        try:
            defect_sum = math.fsum(defects.values())
        except OverflowError:
            raise InputError(f"the sum of the {quantity}s is not finite") from None
        # every smaller set leaves at least these defects outside
        if best is not None and defect_sum >= best[3]:
            break
        envelope_sq = envelope_value(level) ** 2
        total = defect_sum + envelope_sq
        if best is None or total < best[3]:
            best = (level, defect_sum, envelope_sq, total)
    gamma_sup, defect_sum, envelope_sq, total = best

    chosen = {n for n, gamma in gammas.items() if gamma <= gamma_sup}
    per_index = []
    for p in spec.entries:
        if p.n in chosen:
            rec = {"n": p.n, "method": "envelope", "value": gammas[p.n]}
        else:
            rec = {
                "n": p.n,
                "method": "quadrature-defect" if exact else "closed-form-bound",
                "value": defects[p.n],
            }
        per_index.append(rec)
    return Certificate(
        mode=spec.mode,
        split=tuple(sorted(chosen)),
        defect_sum=defect_sum,
        gamma_sup=gamma_sup,
        envelope_sq=envelope_sq,
        total=total,
        passed=total < 1.0,
        margin=1.0 - total,
        per_index=tuple(per_index),
        note=_NOTE,
    )


def deviation_budget(epsilon: float, sup_even_gamma: float) -> float:
    """How much squared relative deviation the odd indices may spend in total.

    With the evens capped at sup_even_gamma (strictly below the envelope
    root) and the odd deviations decaying like n^(-(1+epsilon)/2), the worst
    constant of the odd defect majorants is 45 (attained at n = 3), and the
    admissible budget per unit of the zeta-type sum is what remains of 1
    after the envelope claims its square.
    """
    epsilon = _real(epsilon, "epsilon")
    sup_even_gamma = _real(sup_even_gamma, "sup_even_gamma")
    if not 1.0 + epsilon > 1.0:
        raise InputError(f"epsilon must be positive with 1 + epsilon > 1, got {epsilon!r}")
    if not 4.0 <= sup_even_gamma:
        raise InputError("sup_even_gamma must be at least 4")
    if sup_even_gamma >= envelope_root():
        raise InputError(
            "sup_even_gamma must stay strictly below the envelope root"
        )
    num = 1.0 - envelope_value(sup_even_gamma) ** 2
    # sum_{odd k>=3} k^(-s) = 2^(-s) zeta(s, 3/2); (1 - 2^(-s)) zeta(s) - 1 cancels
    den = 45.0 * 2.0 ** -(1.0 + epsilon) * zeta(1.0 + epsilon, 1.5)
    if not den > 0.0:
        raise InputError(f"epsilon = {epsilon!r} is too large: the odd sum underflows")
    return num / den


def deviation_cap(n: int, epsilon: float, budget: float) -> float:
    """Largest admissible max(alpha, beta) for odd index n under the budget."""
    if _index(n) < 3 or n % 2 == 0:
        raise InputError("the cap applies to odd indices n >= 3")
    epsilon = _real(epsilon, "epsilon")
    budget = _real(budget, "budget")
    if not (epsilon > 0.0 and 0.0 <= budget < math.inf):
        raise InputError("need epsilon > 0 and a finite nonnegative budget")
    return (n + math.sqrt(budget) * n ** ((1.0 - epsilon) / 2.0)) ** 2
