import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from reference import (
    combined_criterion,
    defect_details,
    eager_certify_system,
    profile,
    profile_moments,
    quadrature_coefficient,
)
from test_acceptance import sampled_defects, sampled_points
from test_spectrum import JUNK

import fucik.certify
import fucik.quadrature
from fucik.certify import (
    MODES,
    Certificate,
    InputError,
    SystemSpec,
    certify_system,
    constant_component,
    parse_system,
    profile_scaling,
    projection_defect,
    projection_defect_bound,
    shape_coefficients,
)
from fucik.eigenfunction import moments
from fucik.envelope import (
    GAMMA_MAX,
    deviation_budget,
    deviation_cap,
    envelope_root,
    envelope_value,
    zeta,
)
from fucik.gram import batch_moments, build_batch, gram_matrix
from fucik.spectrum import (
    FucikPoint,
    ReflectedCurveError,
    SpectrumError,
    dilation_parameter,
    is_diagonal,
    point_from_gamma,
    solve_alpha,
    solve_beta,
)


def test_symmetric_entries_have_zero_defect():
    assert projection_defect(FucikPoint(1, 1.0, 1.0)) == 0.0
    # index 1 within the membership tolerance of (1, 1) has the same profile
    assert projection_defect_bound(FucikPoint(1, 1.0 + 1e-11, 1.0)) == 0.0
    assert projection_defect(FucikPoint(1, 1.0, 1.0 - 1e-11)) == 0.0
    assert projection_defect(FucikPoint(4, 16.0, 16.0)) == 0.0
    assert projection_defect_bound(FucikPoint(3, 9.0, 9.0)) == 0.0
    assert profile_scaling(FucikPoint(2, 4.0, 4.0)) == 1.0


def test_frozen_even_defect_and_bound():
    p = point_from_gamma(2, 6.25)
    assert projection_defect(p) == pytest.approx(0.2027597401837814, abs=1e-11)
    # bound branch for evens: (8(3+pi^2)/9) ((sqrt(alpha)-n)/n)^2
    explicit = (8.0 * (3.0 + math.pi**2) / 9.0) * 0.25**2
    b = projection_defect_bound(p)
    assert b == pytest.approx(explicit, abs=1e-14)
    assert b == pytest.approx(0.7149780222827421, abs=1e-13)


def test_frozen_odd_defect_and_bound():
    p = FucikPoint(3, 16.0, 4.0)
    assert projection_defect(p) == pytest.approx(0.39018708346267106, abs=1e-11)
    # sqrt(alpha) >= n branch: 8 n^2 (n^2+1) / (n-1)^4 ((sqrt(alpha)-n)/n)^2
    assert projection_defect_bound(p) == pytest.approx(5.0, abs=1e-14)


def test_odd_minor_side_bound_branch():
    # beta-major odd point: alpha below n^2, bound uses the (n+1)^4 constant
    alpha = 8.0
    beta_major = FucikPoint(3, alpha, solve_beta(3, alpha))
    assert beta_major.beta > 9.0
    expected = (
        10.0 * 9.0 * 10.0 / (4.0**4) * ((math.sqrt(beta_major.beta) - 3.0) / 3.0) ** 2
    )
    assert projection_defect_bound(beta_major) == pytest.approx(expected, rel=1e-12)


def test_odd_bound_constants_keep_the_old_form_to_4_ulp():
    # the constants are n^2 (n^2 + 1) / (n -+ 1)^4 times 8 or 10, now taken
    # in r = 1 / n; at sqrt = 9 n / 8 the factor ((sqrt - n) / n)^2 is 2^-6,
    # so the bound times 64 is the constant to the last bit
    for n in [*range(3, 2002, 2), 999_999]:
        square = (1.125 * n) ** 2
        for p, const in ((FucikPoint(n, square), 8.0 * n * n * (n * n + 1.0) / (n - 1.0) ** 4),
                         (FucikPoint(n, None, square), 10.0 * n * n * (n * n + 1.0) / (n + 1.0) ** 4)):
            assert max(math.sqrt(p.alpha), math.sqrt(p.beta)) == 1.125 * n
            assert abs(64.0 * projection_defect_bound(p) - const) <= 4.0 * math.ulp(const), (n, p)


def test_defect_identity_agreement():
    d = defect_details(point_from_gamma(2, 5.0))
    assert d["norm_sq"] == pytest.approx(0.8454915028125262, abs=1e-11)
    assert abs(d["defect"] - d["defect_alt"]) <= 1e-11


def test_closed_forms_match_the_quadrature_reference():
    # the defect and the optimal scaling are closed forms; the adaptive
    # quadrature of defect_details is their independent reference
    points = []
    for n in range(2, 65, 2):
        points.extend(point_from_gamma(n, g) for g in (4.001, 5.0, 8.99))
    for n in range(3, 64, 6):
        for offset in (1e-6, 0.2):
            major = (n + offset) ** 2
            points.append(FucikPoint(n, major, solve_beta(n, major)))
            points.append(FucikPoint(n, solve_alpha(n, major), major))
    pairs = list(zip(sampled_points(), sampled_defects()))
    pairs += [(p, defect_details(p)) for p in points]
    for p, d in pairs:
        assert projection_defect(p) == pytest.approx(d["defect"], abs=1e-12)
        rho = profile_scaling(p)
        assert rho == pytest.approx(d["inner"] / d["norm_sq"], abs=1e-12)


def test_points_whose_quadrature_drifts_get_exact_defects():
    # the quadrature's two defect routes differ by 1.4e-10 and 1.2e-11 here;
    # references from an independent 24-point Gauss-Legendre rule per arc
    for n, alpha, want in (
        (13, 173.17302161159537, 7.106512188086445e-4),
        (26, 984.02589401446, 0.15368483379305198),
    ):
        p = FucikPoint(n, alpha, solve_beta(n, alpha))
        assert projection_defect(p) == pytest.approx(want, abs=1e-13)


def test_certification_never_integrates(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("integrate called outside defect_details")

    # every binding of integrate, wherever a module imported it
    for name, module in list(sys.modules.items()):
        if (name == "fucik" or name.startswith("fucik.")) and hasattr(module, "integrate"):
            monkeypatch.setattr(module, "integrate", refuse)
    body = {"entries": [{"n": 2, "alpha": 6.6}, {"n": 3, "alpha": 16.0},
                        {"n": 4, "alpha": 17.0}], "split": [], "mode": "exact"}
    cert = certify_system(parse_system(body))
    assert all(rec["method"] == "quadrature-defect" for rec in cert.per_index)
    assert cert.defect_sum > 0.0
    m = gram_matrix(parse_system(body), 6, rescale=True)
    assert m[1, 1] == pytest.approx(1.0 - projection_defect(point_from_gamma(2, 6.6)))


def test_frozen_optimal_scaling_exceeds_one():
    # the natural guess rho <= 1 is false; only rho <= 1/||g|| holds
    rho = profile_scaling(point_from_gamma(2, 5.0))
    assert rho == pytest.approx(1.0532307749397254, abs=1e-11)
    assert rho > 1.0


@given(st.integers(min_value=2, max_value=7), st.floats(min_value=4.01, max_value=8.5))
@settings(max_examples=12, deadline=None)
def test_defect_dominated_by_bound_on_even_curves(n, gamma):
    if n % 2 == 1:
        n += 1
    p = point_from_gamma(n, gamma)
    assert projection_defect(p) <= projection_defect_bound(p) + 1e-12


@given(st.floats(min_value=4.001, max_value=8.9))
@settings(max_examples=12, deadline=None)
def test_scaling_bounded_by_inverse_norm(gamma):
    p = point_from_gamma(2, gamma)
    d = defect_details(p)
    rho = profile_scaling(p)
    assert 0.0 < rho <= 1.0 / math.sqrt(d["norm_sq"]) + 1e-12


def test_parse_completes_missing_coordinate():
    spec = parse_system({"entries": [{"n": 3, "alpha": 16.0}]})
    assert spec.entries[0].beta == 4.0
    other = parse_system({"entries": [{"n": 3, "beta": 4.0}]})
    assert other.entries[0].alpha == pytest.approx(16.0, abs=1e-9)
    first = parse_system({"entries": [{"n": 1}]})
    assert first.entries[0] == FucikPoint(1, 1.0, 1.0)


def test_parse_sorts_entries_by_index():
    spec = parse_system({"entries": [{"n": 4, "alpha": 17.0}, {"n": 2, "alpha": 5.0}]})
    assert [p.n for p in spec.entries] == [2, 4]


def test_parse_rejects_malformed_input():
    with pytest.raises(InputError):
        parse_system([])
    with pytest.raises(InputError, match=r"^unknown keys: \['alpha', 'beta', 'color', 'zeta'\]$"):
        parse_system({"entries": [], "color": "red", "zeta": 1, "alpha": 5.0, "beta": 2})
    with pytest.raises(InputError, match=r"^unknown entry keys: \['gamma'\]$"):
        parse_system({"entries": [{"n": 2, "alpha": 5.0, "gamma": 1.0}]})
    with pytest.raises(InputError, match=r"^unknown entry keys: \['a', 'b', 'y', 'z'\]$"):
        parse_system({"entries": [{"n": 2, "alpha": 5.0}, {"z": 0, "n": 3, "y": 0, "a": 1, "b": 1}]})
    with pytest.raises(InputError):
        parse_system({"entries": [{"n": 2.0, "alpha": 5.0}]})
    with pytest.raises(InputError):
        parse_system({"entries": [{"n": True, "alpha": 5.0}]})
    with pytest.raises(InputError):
        parse_system({"entries": [{"n": 2, "alpha": "5"}]})
    with pytest.raises(InputError):
        parse_system({"entries": [{"n": 2, "alpha": 10**400}]})
    with pytest.raises(InputError):
        parse_system({"entries": [{"n": 0, "alpha": 5.0}]})
    with pytest.raises(InputError):
        parse_system({"entries": [{"n": 2}]})
    with pytest.raises(InputError):
        parse_system({"entries": [{"n": 2, "alpha": 5.0}], "split": "sometimes"})
    with pytest.raises(InputError):
        parse_system({"entries": [{"n": 2, "alpha": 5.0}], "mode": "fast"})
    with pytest.raises(InputError):
        parse_system({"entries": [{"n": 2, "alpha": 5.0}], "tail_rule": "mirror"})


def test_parse_names_an_index_beyond_the_float_range():
    # the curve equation meets the arc counts with floats, so such an index
    # is refused as a bad entry, not as an overflow
    n = 10**400
    for entry in ({"n": n, "alpha": 5.0}, {"n": n, "beta": 5.0}, {"n": n, "alpha": 5.0, "beta": 5.0}):
        with pytest.raises(InputError) as info:
            parse_system({"entries": [entry]})
        assert str(info.value) == f"entry n={n}: index n lies beyond the float range"
        assert isinstance(info.value.__cause__, SpectrumError)
    # bound mode builds no profile, so an index above the profile cap that a
    # float holds is still taken
    for n in (1_000_001, 10**60 + 1):
        spec = parse_system({"entries": [{"n": n, "alpha": (1.2 * n) ** 2}], "mode": "bound"})
        assert spec.entries[0].n == n and certify_system(spec).passed


def test_parse_refuses_every_junk_coordinate():
    for junk in JUNK:
        entries = [{"n": 3, "alpha": junk}, {"n": 3, "beta": junk}]
        if junk is not None:
            entries += [{"n": 3, "alpha": junk, "beta": 4.0}, {"n": 3, "alpha": 16.0, "beta": junk}]
        for entry in entries:
            with pytest.raises(InputError) as info:
                parse_system({"entries": [{"n": 1}, entry]})
            assert str(info.value).startswith("entry n=3: "), info.value
            assert isinstance(info.value.__cause__, SpectrumError)


def test_parse_rejects_off_curve_and_reflected_points():
    with pytest.raises(InputError):
        parse_system({"entries": [{"n": 2, "alpha": 5.0, "beta": 5.0}]})
    # mirrored odd point: the library refuses to silently reflect it
    with pytest.raises(InputError) as info:
        parse_system({"entries": [{"n": 3, "alpha": 4.0, "beta": 16.0}]})
    assert isinstance(info.value.__cause__, ReflectedCurveError)


def test_split_validation():
    p = point_from_gamma(2, 5.0)
    with pytest.raises(InputError):
        SystemSpec(entries=(p,), split=(3,))
    with pytest.raises(InputError):
        SystemSpec(entries=(p,), split=(4,))
    with pytest.raises(InputError):
        SystemSpec(entries=(p,), split=(True,))
    for mixed in ((2, "a"), (None, 2)):
        with pytest.raises(InputError):
            SystemSpec(entries=(p,), split=mixed)
    for bad in (5, "sometimes", {2}):
        with pytest.raises(InputError, match="split must be"):
            SystemSpec(entries=(p,), split=bad)
    with pytest.raises(InputError):
        SystemSpec(entries=(p, p))
    spec = SystemSpec(entries=(p,), split=(2,))
    assert spec.split == (2,)
    assert SystemSpec(entries=(p,), split=[2]).split == (2,)


def test_records_keep_their_repr_hash_and_split():
    p = FucikPoint(3, 16, 4)
    assert repr(p) == "FucikPoint(n=3, alpha=16.0, beta=4.0)"
    assert p == FucikPoint(3, 16.0, 4.0) and hash(p) == hash(FucikPoint(n=3, alpha=16.0, beta=4.0))
    q = point_from_gamma(2, 5.0)
    spec = SystemSpec(entries=(q,), split=[2])
    assert spec.split == (2,) and (spec.mode, spec.tail_rule) == ("exact", "identity")
    assert hash(spec) == hash(SystemSpec((q,), (2,)))


def test_a_spec_holds_only_curve_points():
    # residual 1.28 off curve 2; the envelope would absorb it unchecked
    with pytest.raises(SpectrumError, match="not on curve 2"):
        SystemSpec(entries=(FucikPoint(2, 6.0, 1.0),))


def test_certify_symmetric_system_is_immediate():
    spec = parse_system({"entries": [{"n": 1}, {"n": 3, "alpha": 9.0, "beta": 9.0}]})
    cert = certify_system(spec)
    assert cert.total == 0.0
    assert cert.split == ()
    assert cert.passed
    assert cert.margin == 1.0


def test_certify_threshold_around_the_envelope_root():
    below = certify_system(parse_system({"entries": [{"n": 2, "alpha": 6.4}]}))
    assert below.passed
    assert below.split == (2,)
    assert below.total == pytest.approx(0.9546309222608198, abs=1e-12)
    assert below.total == pytest.approx(envelope_value(6.4) ** 2, abs=1e-14)
    above = certify_system(parse_system({"entries": [{"n": 2, "alpha": 6.6}]}))
    assert not above.passed
    assert above.total == pytest.approx(1.052142584563251, abs=1e-12)
    assert above.margin < 0.0


def test_auto_split_rescues_a_failing_system():
    spec = parse_system({"entries": [{"n": 2, "alpha": 6.6}], "split": "auto"})
    cert = certify_system(spec)
    assert cert.passed
    assert cert.split == ()
    assert cert.gamma_sup == 4.0
    assert cert.total == pytest.approx(0.24174014116001052, abs=1e-12)
    assert cert.per_index[0]["method"] == "quadrature-defect"


def test_bound_mode_never_beats_exact_mode():
    body = {"entries": [{"n": 2, "alpha": 6.6}], "split": "auto"}
    exact = certify_system(parse_system(body))
    bound = certify_system(parse_system({**body, "mode": "bound"}))
    assert bound.per_index[0]["method"] == "closed-form-bound"
    assert bound.total >= exact.total


def test_auto_split_breaks_gamma_ties():
    # n = 2 and 4 at one gamma: dropping either alone keeps the envelope term,
    # so only dropping both lowers the total; the default split keeps both
    body = {"entries": [{"n": n, "alpha": 6.45 * n * n / 4.0} for n in (2, 4)]}
    auto = certify_system(parse_system({**body, "split": "auto"}))
    assert auto.split == ()
    assert auto.total == certify_system(parse_system({**body, "split": []})).total
    assert f"{auto.total:.12g}" == "0.450431239082"
    assert f"{certify_system(parse_system(body)).total:.12g}" == "0.979104364761"


def _small_spec(rng: random.Random, tied: bool) -> dict:
    evens = rng.sample(range(2, 41, 2), rng.randint(1, 6))
    pool = [rng.uniform(4.05, 6.6) for _ in range(2)]
    gammas = [rng.choice(pool) if tied else rng.uniform(4.05, 6.6) for _ in evens]
    entries = [{"n": n, "alpha": g * n * n / 4.0} for n, g in zip(evens, gammas)]
    for n in rng.sample(range(3, 40, 2), rng.randint(0, 3)):
        side = "alpha" if rng.random() < 0.5 else "beta"
        entries.append({"n": n, side: (n + rng.uniform(0.01, 0.3)) ** 2})
    return {"entries": entries}


def test_auto_split_is_the_least_total_over_every_subset():
    rng = random.Random(20211)
    for i in range(200):
        body = _small_spec(rng, tied=i % 2 == 1)
        body["mode"] = "exact" if i % 4 < 2 else "bound"
        evens = sorted(e["n"] for e in body["entries"] if e["n"] % 2 == 0)
        auto = certify_system(parse_system({**body, "split": "auto"}))
        assert auto.total >= 0.0
        best = min(
            certify_system(parse_system({**body, "split": list(subset)})).total
            for k in range(len(evens) + 1)
            for subset in itertools.combinations(evens, k)
        )
        assert auto.total == best, body


def _point(n, kind, t):
    """A point on curve n: diagonal, or off it with the major coordinate t n^2."""
    square = float(n * n)
    if n == 1 or kind == "diagonal":
        return FucikPoint(n, square, square)
    if kind == "alpha side":
        return FucikPoint(n, square * t, solve_beta(n, square * t))
    return FucikPoint(n, solve_alpha(n, square * t), square * t)


_SIDES = st.tuples(
    st.sampled_from(["diagonal", "alpha side", "beta side"]),
    st.floats(min_value=1.0, max_value=2.2),  # even dilation parameters up to 8.8
)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.integers(min_value=1, max_value=200), _SIDES, max_size=12), st.data())
def test_one_pass_gives_what_each_profile_gives_alone(entries, data):
    points = tuple(_point(n, *entries[n]) for n in sorted(entries))
    evens = [p.n for p in points if p.n % 2 == 0]
    split = data.draw(st.sampled_from(["default", "auto"]) | st.lists(
        st.sampled_from(evens) if evens else st.nothing(), unique=True))
    cert = certify_system(SystemSpec(entries=points, split=split))
    # gram_witness takes the square root of the total unchecked
    assert cert.total >= 0.0
    for p, rec in zip(points, cert.per_index):
        assert rec["n"] == p.n and rec["value"] >= 0.0
        if rec["method"] == "quadrature-defect":
            assert rec["value"] == projection_defect(p)

    batch = build_batch(points)
    indices = np.array([[p.n, 1, 7] for p in points], dtype=int).reshape(-1, 3)
    norm_sq, inner = batch_moments(points, indices)
    for k, p in enumerate(points):
        alone, own = build_batch((p,)), slice(batch.offsets[k], batch.offsets[k + 1])
        for name in ("starts", "ends", "amps", "freqs"):
            assert np.array_equal(getattr(batch, name)[own], getattr(alone, name)), (p, name)
        (want_sq,), (want_inner,) = batch_moments((p,), [[p.n, 1, 7]])
        assert norm_sq[k] == want_sq
        assert np.array_equal(inner[k], want_inner)
        assert moments(p, [p.n, 1, 7]) == (want_sq, want_inner.tolist())
        # the closed form sums the arcs of each sign at once, so it agrees
        # with the arc-by-arc sum to rounding, not bit for bit
        f = profile(p)
        for j, m in enumerate((p.n, 1, 7)):
            arc_sq, arc_inner = profile_moments(f, m)
            assert abs(norm_sq[k] - arc_sq) <= 1e-13 and abs(inner[k, j] - arc_inner) <= 1e-13


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(st.integers(min_value=1, max_value=200), _SIDES, max_size=12),
    st.sampled_from(["default", "auto"]) | st.sets(st.integers(min_value=1, max_value=200)),
)
# six evens near gamma 6: the exact walk stops before it drops the last
@example({2 * k: ("alpha side", (6.001 - 0.001 * k) / 4.0) for k in range(1, 7)}, "auto")
def test_both_modes_read_a_defect_only_when_the_walk_leaves_it_outside(entries, split):
    points = tuple(_point(n, *entries[n]) for n in sorted(entries))
    if isinstance(split, str):
        candidates = [p for p in points if p.n % 2 == 0 and not is_diagonal(p)]
    else:
        split = [n for n in sorted(split) if n % 2 == 0 and n in entries]
        candidates = [p for p in points if p.n in split]
    gammas = {p.n: dilation_parameter(p) for p in candidates}
    outside = [p.n for p in points if p.n not in gammas]
    # the walk's order: every non-candidate by index, then the candidates by
    # descending gamma, each gamma's ties together
    order = outside + sorted(gammas, key=lambda n: (-gammas[n], -n))

    reads = {}
    for mode, name in (("exact", "projection_defect"), ("bound", "projection_defect_bound")):
        seen = reads[mode] = {}

        def record(p, defect=getattr(fucik.certify, name)):
            assert p.n not in seen, "read twice"
            seen[p.n] = defect(p)
            return seen[p.n]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fucik.certify, name, record)
            cert = certify_system(SystemSpec(entries=points, split=split, mode=mode))
        assert list(seen) == order[: len(seen)] and len(seen) >= len(outside)
        assert {rec["n"] for rec in cert.per_index if rec["method"] != "envelope"} <= set(seen)
        dropped = list(seen)[len(outside):]
        if dropped:
            # each gamma's ties are read together, and the last of them only
            # because the defects before it still fell short of the total
            last = gammas[dropped[-1]]
            assert set(dropped) == {n for n, g in gammas.items() if g >= last}
            before = [v for n, v in seen.items() if gammas.get(n) != last]
            assert math.fsum(before) <= cert.total
        if split == "auto" and len(seen) < len(order):
            # the walk stops once the defects it read reach the total
            assert math.fsum(seen.values()) >= cert.total
    if split != "auto":
        # one level: the walk drops no candidate, in either mode
        assert list(reads["exact"]) == list(reads["bound"]) == outside


def _outcome(call):
    """(value, None) of call(), or (None, (type, message)) of the InputError it raises."""
    try:
        return call(), None
    except InputError as err:
        return None, (type(err), str(err))


# dilation parameters near both ends of the envelope's range and across it;
# an even n = 2^k at gamma has alpha = gamma n^2 / 4 and dilation parameter
# gamma exactly, so evens that draw one gamma tie
_WALK_GAMMAS = (st.floats(min_value=4.0, max_value=4.0 + 1e-9)
                | st.floats(min_value=4.0, max_value=GAMMA_MAX)
                | st.floats(min_value=GAMMA_MAX - 1e-6, max_value=GAMMA_MAX))


@st.composite
def _walk_specs(draw):
    pool = draw(st.lists(_WALK_GAMMAS, min_size=1, max_size=3))
    points = []
    for n in sorted(draw(st.sets(st.sampled_from((1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 16, 21, 32, 64)),
                                 max_size=10))):
        if n % 2 == 0:
            points.append(point_from_gamma(n, draw(st.sampled_from(pool))))
        elif n == 1:
            points.append(FucikPoint(1))
        else:
            square = (n + draw(st.floats(min_value=1e-3, max_value=0.5))) ** 2
            points.append(FucikPoint(n, square) if draw(st.booleans()) else FucikPoint(n, None, square))
    evens = [p.n for p in points if p.n % 2 == 0]
    split = draw(st.sampled_from(["default", "auto"])
                 | st.lists(st.sampled_from(evens) if evens else st.nothing(), unique=True))
    return SystemSpec(entries=tuple(points), split=split, mode=draw(st.sampled_from(MODES)))


# an even whose defect and envelope vanish in the sum next to an odd: the
# walk's second level reads the same defect sum as the first level's total,
# stops on that equality, and keeps the even absorbed
_VANISHING_EVEN = (FucikPoint(3, 3.4 ** 2), point_from_gamma(4, math.nextafter(4.0, 5.0)))


def _tied_levels(offset, gamma_2, gamma_4):
    """Evens 2 and 4 at gammas found by search around an odd off the
    diagonal by offset: the walk's first two levels, gamma_2 and then
    gamma_4, reach equal least totals, and both have their tails summed.
    The search ran on glibc 2.36's libm (x86-64 with FMA); another libm may
    round sin or pow apart by an ulp and break the tie."""
    return (point_from_gamma(2, gamma_2), FucikPoint(3, (3 + offset) ** 2), point_from_gamma(4, gamma_4))


_TIED = {"exact": _tied_levels(0.4, 4.000000007219285, 4.000000006886911),
         "bound": _tied_levels(0.05, 4.000000001956146, 4.00000000139274)}


@settings(max_examples=150, deadline=None)
@given(_walk_specs())
@example(SystemSpec(entries=_VANISHING_EVEN, split="auto", mode="exact"))
@example(SystemSpec(entries=_VANISHING_EVEN, split="auto", mode="bound"))
@example(SystemSpec(entries=_TIED["exact"], split="auto", mode="exact"))
@example(SystemSpec(entries=_TIED["bound"], split="auto", mode="bound"))
def test_lazy_walk_gives_the_eager_walks_certificate(spec):
    # repr tells -0.0 from 0.0, so the two agree bit for bit
    lazy = _outcome(lambda: repr(certify_system(spec).as_dict()))
    eager = _outcome(lambda: repr(eager_certify_system(spec).as_dict()))
    assert lazy == eager


def test_the_walk_keeps_the_larger_set_on_equal_totals():
    for mode in MODES:
        cert = certify_system(SystemSpec(entries=_VANISHING_EVEN, split="auto", mode=mode))
        assert cert.split == (4,) and cert.total == cert.defect_sum
        tied = _TIED[mode]
        # the tie holds on the libm the search ran on (see _tied_levels)
        with_2, without_2 = (certify_system(SystemSpec(entries=tied, split=split, mode=mode)).total
                             for split in ([2, 4], [4]))
        assert with_2 == without_2
        assert certify_system(SystemSpec(entries=tied, split="auto", mode=mode)).split == (2, 4)


def test_auto_split_sums_one_tail_on_a_benchmark_shaped_spec(monkeypatch):
    # four evens across the benchmark's gammas and four odds right of the
    # diagonal: the walk reaches level 4, which absorbs nothing and is
    # chosen, and every other level's floor lies above its total, so only
    # level 4 sums its k >= 5 tail
    envelope_module = sys.modules["fucik.envelope"]
    tail = envelope_module._tail_closed_form
    calls = []

    def counted(*args):
        calls.append(args[0])
        return tail(*args)

    # every binding of the tail, wherever a module imported it
    for module in (envelope_module, fucik.certify):
        if hasattr(module, "_tail_closed_form"):
            monkeypatch.setattr(module, "_tail_closed_form", counted)
    entries = [point_from_gamma(n, g) for n, g in ((2, 5.6), (4, 4.3), (8, 6.2), (10, 4.9))]
    entries += [FucikPoint(n, (n + d) ** 2) for n, d in ((3, 0.2), (5, 0.05), (7, 0.12), (9, 0.08))]
    spec = SystemSpec(entries=tuple(sorted(entries)), split="auto")
    cert = certify_system(spec)
    assert calls == [4.0]
    assert repr(cert.as_dict()) == repr(eager_certify_system(spec).as_dict())


# rounding allowance between sigma_max of the truncated matrix and the
# certified theta; the Parseval tails that the truncation drops are at most
# 1.7e-11 per column on the gamma 5 family
_THETA_BUDGET = 1e-9


def _truncated_norm_of_t_minus_i(points) -> float:
    """sigma_max of D_J, the rows j <= J = 16 max n of T - I on the entries:
    D_J[j, n] = rho_n <f_n, e_j> - [j = n].  A lower bound on ||T - I||."""
    J = 16 * max(p.n for p in points)
    _, inner = batch_moments(points, np.broadcast_to(np.arange(1, J + 1), (len(points), J)))
    d = (np.array([profile_scaling(p) for p in points])[:, None] * inner).T
    d[[p.n - 1 for p in points], range(len(points))] -= 1.0
    return float(np.linalg.norm(d, 2))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the envelope term does not bound the absorbed block (ROADMAP item 4): "
    "the gamma 5 family of evens n <= 16 passes with theta 0.5273 while "
    "sigma_max(D_J) is 0.5356"))
@settings(max_examples=40, deadline=None)
@given(_walk_specs())
@example(SystemSpec(entries=tuple(point_from_gamma(n, 5.0) for n in range(2, 17, 2))))
def test_a_pass_bounds_the_truncated_perturbation(spec):
    outcome, refusal = _outcome(lambda: certify_system(spec))
    assume(refusal is None and outcome.passed and spec.entries)
    theta = math.sqrt(outcome.total)
    assert _truncated_norm_of_t_minus_i(spec.entries) <= theta + _THETA_BUDGET


def test_own_mode_defects_are_those_of_moments():
    # projection_defect and profile_scaling skip the index intake of moments
    # but must give its values and refusals bit for bit
    rng = random.Random(20341)
    points = []
    for _ in range(60):
        n = rng.randrange(3, 4000, 2)
        points.append(FucikPoint(n, (n + rng.uniform(1e-3, 0.5)) ** 2))
        points.append(FucikPoint(n, None, (n + rng.uniform(1e-3, 0.5)) ** 2))
        points.append(FucikPoint(n, (n + rng.uniform(1e-12, 1e-8)) ** 2))
        points.append(point_from_gamma(2 * rng.randrange(1, 2000), rng.uniform(4.0, 9.0)))
    # w+ below 4 ulp(pi), where _arc_row walks the edges; some have an arc of no width
    points += [FucikPoint(n, alpha) for n in range(2, 8) for alpha in (4e30, 1e31, 1e32, 1e33, 1e40)]
    top = fucik.eigenfunction.MAX_ARCS
    points += [FucikPoint(n, (n + 0.2) ** 2) for n in range(top - 3, top + 4)]
    points += [point_from_gamma(n, 5.0) for n in (top - 2, top, top + 2)]
    points += [FucikPoint(3, 1e200, 1.0), FucikPoint(3, (2.0 / (1.0 + 1e-11)) ** 2, 1e300)]
    refusals = 0
    for p in points:
        assert not is_diagonal(p), p
        both, refused = _outcome(lambda: moments(p, (p.n,)))
        if both is None:
            refusals += 1
            assert _outcome(lambda: projection_defect(p)) == (None, refused), p
            assert _outcome(lambda: profile_scaling(p)) == (None, refused), p
            continue
        sq, (dot,) = both
        assert projection_defect(p) == max(1.0 - dot * dot / sq, 0.0), p
        assert profile_scaling(p) == dot / sq, p
    # four points past the cap, two given and eight narrow ones of no width
    assert refusals == 4 + 2 + 8, refusals


def test_exact_certify_refuses_the_first_unbuildable_entry_in_order():
    # the entry with an arc of no width comes before the one past the cap
    n = 1_000_001
    spec = parse_system({"entries": [{"n": 3, "alpha": 1e200}, {"n": n, "alpha": (n + 0.2) ** 2}]})
    with pytest.raises(SpectrumError, match=r"^\(1e\+200, 1.0\) leaves an arc of no width"):
        certify_system(spec)
    spec = parse_system({"entries": [{"n": 3, "alpha": 10.0}, {"n": n, "alpha": (n + 0.2) ** 2}]})
    with pytest.raises(SpectrumError, match=f"^n = {n} exceeds the cap"):
        certify_system(spec)


def test_certify_at_the_profile_cap_stays_small():
    # eight odd entries just below MAX_ARCS: their defects take no profile
    # and load no numpy, so the peak is about what the interpreter takes.
    # VmHWM is the peak of the child's own memory; ru_maxrss would also count
    # that of the test process it was started from
    script = (
        "import json, sys\n"
        "from fucik import certify_system, parse_system\n"
        "ns = [999_999 - 2 * k for k in range(8)]\n"
        "spec = {'entries': [{'n': n, 'alpha': (n + 0.2) ** 2} for n in ns]}\n"
        "cert = certify_system(parse_system(spec))\n"
        "with open('/proc/self/status') as fh:\n"
        "    peak = next(int(l.split()[1]) for l in fh if l.startswith('VmHWM:')) / 1024\n"
        "print(json.dumps([peak, cert.passed, len(cert.per_index), 'numpy' in sys.modules]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=env
    )
    assert run.returncode == 0, run.stderr
    peak_mb, passed, count, numpy_loaded = json.loads(run.stdout)
    assert passed and count == 8 and not numpy_loaded
    assert peak_mb < 60.0, peak_mb


def test_envelope_set_rejects_uncoverable_entries():
    wild = parse_system({"entries": [{"n": 2, "alpha": 16.0}]})
    with pytest.raises(InputError):
        certify_system(wild)
    # an explicit split pointing at the same entry fails the same way
    explicit = parse_system({"entries": [{"n": 2, "alpha": 16.0}], "split": [2]})
    with pytest.raises(InputError):
        certify_system(explicit)
    # between the envelope's cap 9 - 1e-9 and 9
    edge = parse_system({"entries": [{"n": 2, "alpha": 8.99999999995}]})
    with pytest.raises(InputError, match="envelope cannot absorb"):
        certify_system(edge)


def test_certificate_json_is_deterministic():
    body = {"entries": [{"n": 2, "alpha": 6.4}, {"n": 4, "alpha": 17.0}]}
    one = certify_system(parse_system(body)).as_dict()
    two = certify_system(parse_system(body)).as_dict()
    assert one == two
    assert isinstance(certify_system(parse_system(body)), Certificate)


@pytest.mark.parametrize("mode", ["exact", "bound"])
def test_certificate_as_dict_is_an_equal_copy(mode):
    body = {"entries": [{"n": 2, "alpha": 6.4}, {"n": 3, "alpha": 9.3},
                        {"n": 4, "alpha": 17.0}], "mode": mode}
    cert = certify_system(parse_system(body))
    fields = {f: getattr(cert, f) for f in cert._fields}
    assert all(isinstance(rec, dict) for rec in fields["per_index"])
    d = cert.as_dict()
    assert d == fields
    d["total"] = -1.0
    for rec in d["per_index"]:
        rec["value"] = None
    assert cert.total > 0.0
    assert all(rec["value"] is not None for rec in cert.per_index)
    assert cert.as_dict() == {f: getattr(cert, f) for f in cert._fields}


def test_combined_criterion_frozen_cases():
    assert combined_criterion(0.0, [[(0.0, 1.0)]]) == (0.0, True)
    total, ok = combined_criterion(0.6, [[(0.5, 1.0), (0.2, math.sqrt(2.0))]])
    assert total == pytest.approx(0.36 + (0.5 + 0.2 * math.sqrt(2.0)) ** 2, abs=1e-15)
    assert ok
    total, ok = combined_criterion(1.0, [])
    assert total == 1.0
    assert not ok  # strict inequality at the boundary
    with pytest.raises(InputError):
        combined_criterion(-0.1, [])
    with pytest.raises(InputError):
        combined_criterion(0.1, [[(0.5, -1.0)]])


def test_zeta_reference_values():
    assert zeta(4.0) == pytest.approx(math.pi**4 / 90.0, abs=1e-10)
    assert zeta(1.5) == pytest.approx(2.6123753486854877, abs=1e-10)
    # Hurwitz form, against mpmath from just above the pole to s = 501
    for s in (1.0 + 1e-9, 1.5, 2.0, 7.25, 32.0, 100.0, 501.0):
        for a in (1.0, 1.5, 5.0):
            want = float(mpmath.zeta(s, a))
            assert zeta(s, a) == pytest.approx(want, rel=3e-16, abs=0.0)
    with pytest.raises(ValueError):
        zeta(1.0)


def test_deviation_budget_frozen_and_limits():
    b = deviation_budget(0.5, 5.0)
    assert b == pytest.approx(0.023293270203141543, abs=1e-13)
    assert b > 0.0
    # with no even deviation the numerator is exactly 1
    flat = deviation_budget(0.5, 4.0)
    den = 45.0 * ((1.0 - 2.0**-1.5) * zeta(1.5) - 1.0)
    assert flat == pytest.approx(1.0 / den, abs=1e-15)
    for epsilon in (0.0, 1e-17, 5e-324):
        with pytest.raises(InputError, match="epsilon"):
            deviation_budget(epsilon, 5.0)
    with pytest.raises(InputError):
        deviation_budget(0.5, 3.9)
    with pytest.raises(InputError):
        deviation_budget(0.5, envelope_root())


def test_deviation_budget_matches_mpmath():
    # sum_{odd k>=3} k^(-s) = (1 - 2^(-s)) zeta(s) - 1 at 80 digits, enough
    # for its cancellation; in doubles that route was 4% off at epsilon = 30
    # and divided by zero at epsilon = 40
    num = 1.0 - envelope_value(5.0) ** 2
    for epsilon in (0.5, 5.0, 20.0, 30.0, 40.0, 100.0):
        with mpmath.workdps(80):
            s = mpmath.mpf(1.0 + epsilon)
            odd_sum = (1 - mpmath.mpf(2) ** -s) * mpmath.zeta(s) - 1
        want = num / float(45 * odd_sum)
        assert deviation_budget(epsilon, 5.0) == pytest.approx(want, rel=1e-12)
    with pytest.raises(InputError, match="epsilon"):
        deviation_budget(2000.0, 5.0)


def test_deviation_cap_frozen_and_degenerate():
    assert deviation_cap(3, 0.5, 0.0) == 9.0
    b = deviation_budget(0.5, 5.0)
    assert deviation_cap(3, 0.5, b) == pytest.approx(10.245510920536159, abs=1e-12)
    with pytest.raises(InputError):
        deviation_cap(2, 0.5, 0.1)
    with pytest.raises(InputError):
        deviation_cap(1, 0.5, 0.1)
    with pytest.raises(InputError):
        deviation_cap(True, 0.5, 0.1)
    with pytest.raises(InputError):
        deviation_cap(3, 0.5, -0.1)
    for budget in (math.nan, math.inf):
        with pytest.raises(InputError, match="finite nonnegative budget"):
            deviation_cap(3, 0.5, budget)


@given(st.integers(min_value=1, max_value=7), st.floats(min_value=0.1, max_value=2.0))
@settings(max_examples=10, deadline=None)
def test_deviation_cap_grows_with_budget(j, epsilon):
    n = 2 * j + 1
    lo = deviation_cap(n, epsilon, 0.01)
    hi = deviation_cap(n, epsilon, 0.02)
    assert n * n < lo < hi


# Shape coefficients of h = rho f_2 - e_2, across the envelope's range of gamma
SHAPE_GAMMAS = (4.1, 4.5, 5.0, 6.0, 6.4, 8.0, 8.999)


@pytest.mark.parametrize("p", [
    point_from_gamma(2, 5.0),
    point_from_gamma(6, 8.999),
    point_from_gamma(64, 4.1),
    FucikPoint(3, 1.2 * 9),
    FucikPoint(7, None, 1.3 * 49),  # beta side
    FucikPoint(11, 1.2 * 121),
], ids=lambda p: f"n={p.n}")
def test_constant_component_matches_quadrature(p):
    # the mean of f by quadrature, <f, sqrt(2/pi)> at phase pi / 2 and k = 0,
    # and <e_n, sqrt(2/pi)> = 2 (1 - cos(n pi)) / (pi n) in closed form
    mode = 2.0 * (1.0 - math.cos(p.n * math.pi)) / (math.pi * p.n)
    want = (profile_scaling(p) * quadrature_coefficient(p, 0, 1) - mode) / math.sqrt(2.0)
    assert abs(constant_component(p) - want) <= 1e-12


def test_constant_component_is_one_value_per_shape():
    # every even member at one gamma is a dilate of the n = 2 profile
    for gamma, mu in ((4.5, -0.101514), (5.0, -0.181098), (6.0, -0.286165),
                      (6.4, -0.313161), (8.0, -0.370661)):
        values = [constant_component(point_from_gamma(n, gamma)) for n in (2, 64, 2000)]
        assert max(values) - min(values) <= 1e-15
        assert values[0] == pytest.approx(mu, abs=5e-7)
    for n, mu in ((11, -0.169029), (101, -0.154464), (1001, -0.152903), (100001, -0.152730)):
        assert constant_component(FucikPoint(n, 1.2 * n * n)) == pytest.approx(mu, abs=5e-7)
    for p in (FucikPoint(1), FucikPoint(6, 36.0, 36.0), FucikPoint(7, 49.0, 49.0)):
        assert constant_component(p) == 0.0


@pytest.mark.parametrize("gamma", [4.5, 6.4, 8.999])
def test_shape_coefficients_match_quadrature(gamma):
    p = point_from_gamma(2, gamma)
    rho = profile_scaling(p)
    mu, a, b = shape_coefficients(gamma, 20)
    assert mu == constant_component(p) and len(a) == len(b) == 20
    for j in range(1, 21):
        assert abs(a[j - 1] - rho * quadrature_coefficient(p, 2 * j, 1)) <= 1e-12
        assert abs(b[j - 1] - (rho * quadrature_coefficient(p, 2 * j) - (j == 1))) <= 1e-12


@pytest.mark.parametrize("gamma", SHAPE_GAMMAS)
def test_shape_coefficients_close_parseval(gamma):
    # 1, cos 2jx and sin 2jx, normalized, are an orthonormal basis of
    # L^2(0, pi), and |h|^2 = 1 - <f, e_2>^2 / |f|^2; with |a_j|, |b_j| <= 1 / j^4,
    # as the decay test finds up to j = 4000, the squares past J = 20000 sum
    # below 1e-30
    mu, a, b = shape_coefficients(gamma, 20000)
    total = math.fsum([mu * mu, *(x * x for x in a), *(x * x for x in b)])
    assert abs(total - projection_defect(point_from_gamma(2, gamma))) <= 1e-14


@pytest.mark.parametrize("gamma", SHAPE_GAMMAS)
def test_shape_coefficients_decay_like_j_to_the_minus_four(gamma):
    # h is C^2 and pi-periodic, with h''' jumping at its zeros, so four
    # integrations by parts bound both coefficients by c(gamma) / j^4; the
    # largest j^4 hypot(a_j, b_j) measured is 0.975, at gamma = 8.999.  A
    # cosine with the wrong phase decays no faster than 1 / j^2
    _, a, b = shape_coefficients(gamma, 4000)
    assert max(j ** 4 * math.hypot(a[j - 1], b[j - 1]) for j in range(1, 4001)) <= 1.0


def test_shape_coefficients_refuse_what_their_intakes_refuse():
    with pytest.raises(SpectrumError, match="at least 4"):
        shape_coefficients(3.9, 10)
    with pytest.raises(SpectrumError, match="J must be >= 1"):
        shape_coefficients(5.0, 0)
    with pytest.raises(SpectrumError, match="J must be a plain positive integer"):
        shape_coefficients(5.0, 10.0)


def test_shape_coefficients_load_no_numpy():
    code = ("import sys, fucik; fucik.shape_coefficients(8.999, 2000); "
            "fucik.constant_component(fucik.FucikPoint(3, 10.8)); "
            "assert 'numpy' not in sys.modules")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
