import json
import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference import JunctionError, evaluate, ode_residual, profile, profile_moments

import fucik.eigenfunction
import fucik.gram
from fucik.cli import main
from fucik.eigenfunction import SUP_NORM, arcs, moments
from fucik.gram import batch_moments, build_batch
from fucik.spectrum import FucikPoint, SpectrumError, point_from_gamma, solve_alpha, solve_beta


def reference_arcs(p):
    """The profile as (sign, start, end, frequency, amplitude) per arc, made by
    a per-arc loop: the reference that the vectorized pass of build_batch and
    the float stream of arcs are held to bit for bit."""
    n = p.n
    if n == 1:
        return [(1, 0.0, math.pi, 1.0, SUP_NORM)]
    n_pos = (n + 1) // 2
    n_neg = n // 2
    w_pos = math.pi / math.sqrt(p.alpha)
    w_neg = (math.pi - n_pos * w_pos) / n_neg
    ratio = math.sqrt(p.alpha / p.beta)
    if ratio >= 1.0:
        amp_neg = SUP_NORM
        amp_pos = SUP_NORM / ratio
    else:
        amp_pos = SUP_NORM
        amp_neg = SUP_NORM * ratio
    arcs = []
    for j in range(n):
        start = ((j + 1) // 2) * w_pos + (j // 2) * w_neg
        end = math.pi if j == n - 1 else ((j + 2) // 2) * w_pos + ((j + 1) // 2) * w_neg
        positive = j % 2 == 0
        arcs.append((
            1 if positive else -1,
            start,
            end,
            math.pi / (end - start),
            amp_pos if positive else amp_neg,
        ))
    return arcs


def reference_points():
    pts = [FucikPoint(1, 1.0, 1.0)]
    pts += [FucikPoint(n, float(n * n), float(n * n)) for n in (2, 3, 4, 7, 10, 51, 200)]
    for n in range(2, 201, 2):
        pts.extend(point_from_gamma(n, g) for g in (4.001, 5.0, 6.3, 8.99))
    for n in range(3, 200, 2):
        for offset in (1e-6, 0.01, 0.2, 0.9):
            major = (n + offset) ** 2
            pts.append(FucikPoint(n, major, solve_beta(n, major)))
            pts.append(FucikPoint(n, solve_alpha(n, major), major))
    big = 100001
    pts.append(FucikPoint(big, (big + 0.2) ** 2, solve_beta(big, (big + 0.2) ** 2)))
    return pts


def test_build_matches_the_per_arc_reference_bit_for_bit():
    points = reference_points()
    batch = build_batch(points)  # every point in one pass
    assert len(batch.points) == len(points)
    assert all(a.dtype == np.float64 for a in (batch.starts, batch.ends, batch.amps, batch.freqs))
    for k, p in enumerate(points):
        want = reference_arcs(p)
        sign, start, end, freq, amp = (np.array(col) for col in zip(*want))
        own = slice(batch.offsets[k], batch.offsets[k + 1])
        assert batch.points[k] is p
        assert np.array_equal(batch.starts[own], start), p
        assert np.array_equal(batch.ends[own], end), p
        assert np.array_equal(batch.amps[own], sign * amp), p
        assert np.array_equal(batch.freqs[own], freq), p
        assert list(arcs(p)) == [(a, b, sg * m, w) for sg, a, b, w, m in want], p


def _dump(capsys, p):
    """The parsed stdout of `fucik dump` for the point p."""
    assert main(["dump", str(p.n), repr(p.alpha), repr(p.beta)]) == 0
    return json.loads(capsys.readouterr().out)


def _round12(x):
    return float(format(x, ".12g"))


def test_record_lists_the_reference_arcs(capsys):
    keys = ("sign", "start", "end", "frequency", "amplitude")
    for p in reference_points():
        if p.n > 200:
            continue
        want = [
            dict(zip(keys, (sign, *map(_round12, rest))))
            for sign, *rest in reference_arcs(p)
        ]
        assert _dump(capsys, p)["bumps"] == want, p


def test_two_arc_profile_geometry():
    p = FucikPoint(2, 6.25, solve_beta(2, 6.25))
    f = profile(p)
    assert len(f.amps) == len(f.freqs) == len(f.edges) - 1 == 2
    pos, neg = f.amps
    assert pos > 0.0 > neg
    assert f.edges[0] == 0.0 and f.edges[-1] == math.pi
    assert f.edges[1] == pytest.approx(math.pi / 2.5, abs=1e-15)
    assert f.junctions.tolist() == [f.edges[1]]
    # slope continuity pins the amplitude ratio to sqrt(beta/alpha)
    assert pos * math.sqrt(p.alpha) == pytest.approx(-neg * math.sqrt(p.beta), rel=1e-13)
    # the slower, wider arc carries the sup norm
    assert -neg == SUP_NORM
    assert pos == pytest.approx(SUP_NORM * 2.0 / 3.0, rel=1e-13)


def test_boundary_values_vanish():
    for n, gamma in ((2, 4.7), (6, 8.3), (10, 5.0), (16, 6.25)):
        f = profile(point_from_gamma(n, gamma))
        assert evaluate(f, 0.0) == 0.0
        assert abs(evaluate(f, math.pi)) < 1e-14
        for j in f.junctions:
            assert abs(evaluate(f, j)) < 1e-13


def test_index_one_profile_is_the_first_mode():
    f = profile(FucikPoint(1, 1.0, 1.0))
    xs = np.linspace(0.0, math.pi, 501)
    assert np.max(np.abs(evaluate(f, xs) - SUP_NORM * np.sin(xs))) < 1e-15


def test_diagonal_profile_is_a_plain_mode():
    for n in (2, 3, 5, 8):
        f = profile(FucikPoint(n, float(n * n), float(n * n)))
        xs = np.linspace(0.0, math.pi, 700)
        assert np.max(np.abs(evaluate(f, xs) - SUP_NORM * np.sin(n * xs))) < 5e-13


def test_profile_alternates_signs_and_counts_arcs():
    p = FucikPoint(7, 64.0, solve_beta(7, 64.0))
    f = profile(p)
    signs = np.sign(f.amps).tolist()
    assert signs == [1, -1, 1, -1, 1, -1, 1]
    widths_pos = set(np.diff(f.edges)[f.amps > 0.0].tolist())
    assert max(widths_pos) - min(widths_pos) < 1e-15


def test_evaluate_scalar_and_array_agree():
    f = profile(point_from_gamma(4, 6.0))
    xs = np.linspace(0.0, math.pi, 37)
    arr = evaluate(f, xs)
    for x, v in zip(xs, arr):
        assert evaluate(f, float(x)) == v


@pytest.mark.parametrize("alpha, beta", [
    (1e200, 1.0),  # the last positive arc is below the float spacing of pi
    ((2.0 / (1.0 + 1e-11)) ** 2, 1e300),  # on curve 3, no room for the negative arc
])
def test_build_refuses_arcs_of_no_width(alpha, beta):
    with pytest.raises(SpectrumError, match="arc of no width"):
        build_batch((FucikPoint(3, alpha, beta),))


@pytest.mark.parametrize("alpha, beta", [
    (1e200, 1.0),
    ((2.0 / (1.0 + 1e-11)) ** 2, 1e300),
])
def test_moments_refuse_what_build_refuses(alpha, beta):
    good = point_from_gamma(2, 5.0)
    with pytest.raises(SpectrumError, match=r"\(1e\+200, 1.0\) leaves|1e\+300\) leaves"):
        batch_moments([good, FucikPoint(3, alpha, beta), good], [[2], [3], [2]])


@pytest.mark.parametrize("junk", ["x", "2", b"2", None, True, math.nan, math.inf, -math.inf])
def test_moments_refuse_an_index_that_is_no_real_number(junk):
    reason = "finite" if isinstance(junk, float) else "a real number"
    with pytest.raises(SpectrumError, match=f"sine index must be {reason}"):
        moments(point_from_gamma(2, 5.0), (2, junk))


def test_narrow_arcs_that_build_get_closed_form_moments(monkeypatch):
    # w+ = pi * 1e-15, about 7 ulp(pi): narrow arcs whose moments still come
    # from the closed form
    p = FucikPoint(3, 1e30, solve_beta(3, 1e30))
    f = profile(p)

    def no_build(points):
        raise AssertionError(f"a profile was built for {points}")

    monkeypatch.setattr(fucik.gram, "build_batch", no_build)
    norm_sq, inner = batch_moments([point_from_gamma(2, 5.0), p], [[2, 1], [3, 1]])
    assert moments(p, (3, 1)) == (norm_sq[1], inner[1].tolist())
    for value, j in zip(inner[1].tolist(), (3, 1)):
        assert abs(value - profile_moments(f, j)[1]) <= 1e-15
    assert abs(norm_sq[1] - profile_moments(f, 3)[0]) <= 1e-15


def _refusal(call):
    """The SpectrumError text of call(), or None if it raises none."""
    try:
        call()
    except SpectrumError as err:
        return str(err)
    return None


def test_every_layer_refuses_the_same_first_point():
    good = [FucikPoint(1, 1.0, 1.0), point_from_gamma(2, 5.0),
            FucikPoint(7, 64.0, solve_beta(7, 64.0))]
    narrow = [FucikPoint(n, alpha, solve_beta(n, alpha)) for n, alpha in ((2, 1e30), (3, 1e30))]
    no_width = [FucikPoint(3, 1e200, 1.0), FucikPoint(3, (2.0 / (1.0 + 1e-11)) ** 2, 1e300)]
    big = 1_000_001
    over_cap = FucikPoint(big, (big + 0.2) ** 2, solve_beta(big, (big + 0.2) ** 2))
    bad = [*no_width, over_cap]
    rng = random.Random(20222)
    lists = [[no_width[0], over_cap], [over_cap, no_width[1]]]
    for _ in range(40):
        points = rng.choices(good + narrow + bad, k=rng.randrange(4)) + [rng.choice(bad)]
        rng.shuffle(points)
        lists.append(points)
    for points in lists:
        # one point at a time, in order, as the float layer meets them
        alone = [_refusal(lambda: moments(p, (1,))) for p in points]
        assert alone == [_refusal(lambda: arcs(p)) for p in points]
        first = next(message for message in alone if message)
        assert _refusal(lambda: build_batch(points)) == first, points
        assert _refusal(lambda: batch_moments(points, [[1]] * len(points))) == first, points


def test_arcs_the_narrow_bound_accepts_keep_their_width():
    # the smallest arc 17-256 ulp(pi) wide: w+ at n = 2 near alpha 1e28, and
    # w- at n = 3 near (4, inf), which the refit of w- leaves off by rounding
    rng = random.Random(20223)
    points = []
    for _ in range(100):
        width = rng.uniform(17.0, 256.0) * math.ulp(math.pi)
        major = (math.pi / width) ** 2
        points.append(FucikPoint(2, major, solve_beta(2, major)))
        points.append(FucikPoint(3, solve_alpha(3, major), major))
    for p in points:
        # past the bound, so _arc_row accepts the point without a walk
        assert min(fucik.eigenfunction._arc_row(p)[2:4]) > fucik.eigenfunction._NARROW, p
        widths = [end - start for start, end, _, _ in arcs(p)]
        assert min(widths) > 0.0, p
        assert widths == np.diff(profile(p).edges).tolist(), p
        assert min(widths) < 260.0 * math.ulp(math.pi), p


def test_arcs_past_the_proven_bound_pass_the_walk(monkeypatch):
    # the narrowest float arc 4-16 ulp(pi) wide, n from 2 to 3000, either
    # sign narrow: an arc wider than 3.3 ulp(pi) keeps a positive width, so
    # the edge walk that _arc_row skips there would accept every point
    arc_row = fucik.eigenfunction._arc_row
    ulp = math.ulp(math.pi)
    rng = random.Random(20228)
    points = []
    while len(points) < 200:
        n = rng.randrange(2, 3001)
        major = (math.pi / (rng.uniform(4.0, 16.0) * ulp)) ** 2
        p = FucikPoint(n, major) if rng.random() < 0.5 else FucikPoint(n, None, major)
        pos, neg = (n + 1) // 2, n // 2
        w_pos = math.pi / math.sqrt(p.alpha)
        if 4.0 * ulp < min(w_pos, (math.pi - pos * w_pos) / neg) <= 16.0 * ulp:
            points.append(p)
    rows = [arc_row(p) for p in points]
    monkeypatch.setattr(fucik.eigenfunction, "_NARROW", math.inf)
    assert [arc_row(p) for p in points] == rows


def _arc_sample():
    """Seeded points: n = 1, symmetric points, both major sides of even and odd
    n up to a few thousand, odd n near their diagonal, and narrow but valid
    arcs, the last three at most 4 ulp(pi) wide, whose edges _arc_row walks."""
    rng = random.Random(20213)
    points = [FucikPoint(1, 1.0, 1.0), FucikPoint(2, 4.0, 4.0), FucikPoint(7, 49.0, 49.0)]
    for _ in range(60):
        n = rng.choice((rng.randrange(2, 40), rng.randrange(2, 4000)))
        if n % 2 and rng.random() < 0.3:
            major = (n + rng.uniform(1e-9, 1e-3)) ** 2
        else:
            major = n * n * rng.uniform(1.0, 5.0)
        points.append(FucikPoint(n, major, solve_beta(n, major)))
        points.append(FucikPoint(n, solve_alpha(n, major), major))
    for n, alpha in ((2, 1e30), (3, 1e30), (5, 2.5e30), (2, 3.5e30), (5, 4e30), (3, 1e31)):
        points.append(FucikPoint(n, alpha, solve_beta(n, alpha)))
    return points


def test_arc_stream_is_the_built_profile_bit_for_bit():
    for p in _arc_sample():
        b = build_batch((p,))
        want = list(zip(b.starts.tolist(), b.ends.tolist(), b.amps.tolist(), b.freqs.tolist()))
        assert list(arcs(p)) == want, p


@pytest.mark.parametrize("alpha, beta", [
    (1e200, 1.0),
    ((2.0 / (1.0 + 1e-11)) ** 2, 1e300),
])
def test_arc_stream_refuses_with_builds_message(alpha, beta):
    p = FucikPoint(3, alpha, beta)
    with pytest.raises(SpectrumError) as built:
        build_batch((p,))
    # at the call, before any arc is asked for
    with pytest.raises(SpectrumError) as streamed:
        arcs(p)
    assert str(streamed.value) == str(built.value)


def test_ode_residual_small_inside_arcs():
    p = FucikPoint(3, 16.0, 4.0)
    f = profile(p)
    for start, end in zip(f.edges[:-1], f.edges[1:]):
        for x in np.linspace(start, end, 40)[1:-1]:
            assert abs(ode_residual(f, float(x))) < 1e-11


def test_ode_residual_refuses_junction_neighborhood():
    f = profile(FucikPoint(2, 6.25, solve_beta(2, 6.25)))
    j = f.junctions[0]
    with pytest.raises(JunctionError):
        ode_residual(f, j + 1e-12)
    # just outside the guard band it works
    assert abs(ode_residual(f, j + 1e-6)) < 1e-9


def test_record_layout(capsys):
    rec = _dump(capsys, FucikPoint(3, 16.0, 4.0))
    assert rec["n"] == 3
    assert rec["alpha"] == 16.0 and rec["beta"] == 4.0
    assert rec["sup_norm"] == _round12(SUP_NORM)
    assert [b["sign"] for b in rec["bumps"]] == [1, -1, 1]
    assert rec["bumps"][0]["frequency"] == pytest.approx(4.0, abs=1e-14)


def test_sup_norm_is_attained_at_a_bump_midpoint():
    f = profile(point_from_gamma(2, 7.3))
    mid = 0.5 * (f.edges[1] + f.edges[2])
    assert abs(evaluate(f, mid)) == pytest.approx(SUP_NORM, abs=1e-15)


@settings(max_examples=40)
@given(
    n=st.integers(min_value=1, max_value=15),
    gamma=st.floats(min_value=4.0, max_value=8.99),
    frac=st.floats(min_value=0.0, max_value=1.0),
)
def test_profiles_stay_within_sup_norm(n, gamma, frac):
    f = profile(point_from_gamma(2 * n, gamma))
    x = frac * math.pi
    assert abs(evaluate(f, x)) <= SUP_NORM + 1e-13


@settings(max_examples=30)
@given(
    n=st.integers(min_value=2, max_value=12),
    rel=st.floats(min_value=1.0001, max_value=1.4),
)
def test_odd_profiles_solve_the_equation(n, rel):
    m = 2 * n + 1
    alpha = (m * rel) ** 2
    f = profile(FucikPoint(m, alpha, solve_beta(m, alpha)))
    for start, end in zip(f.edges[:2], f.edges[1:3]):
        x = 0.5 * (start + end)
        assert abs(ode_residual(f, x)) < 1e-9


def _mp_moments(p, indices, geometric=False):
    """|f|^2 and <f, sqrt(2/pi) sin(j x)> for j in indices at 40 digits, from
    the exact arc parameters of p: arc by arc, or with each sign's arcs
    summed as a geometric series where there are too many to visit."""
    mp = mpmath.mp
    norm = mp.sqrt(2 / mp.pi)
    if p.n == 1:
        pos, neg, w_pos, w_neg, a_pos, a_neg = 1, 0, mp.pi, mp.mpf(0), norm, mp.mpf(0)
    else:
        pos, neg = (p.n + 1) // 2, p.n // 2
        w_pos = mp.pi / mp.sqrt(p.alpha)
        w_neg = (mp.pi - pos * w_pos) / neg
        ratio = mp.sqrt(mp.mpf(p.alpha) / p.beta)
        a_pos, a_neg = (norm / ratio, -norm) if ratio >= 1 else (norm, -norm * ratio)
    period = w_pos + w_neg
    signs = ((pos, w_pos / 2, w_pos, a_pos), (neg, w_pos + w_neg / 2, w_neg, a_neg))
    inner = []
    for j in indices:
        total = mp.mpf(0)
        for count, first, width, amp in signs:
            arc = amp * mp.sinc((mp.pi - j * width) / 2) * width / (mp.pi + j * width)
            if not geometric:
                total += arc * mp.fsum(mp.sin(j * (first + k * period)) for k in range(count))
                continue
            x = j * period / 2
            # sin(K x) / sin(x) tends to K cos(K x) / cos(x) where sin(x) vanishes
            if abs(mp.sin(x)) < mp.mpf(10) ** -25:
                ratio = count * mp.cos(count * x) / mp.cos(x)
            else:
                ratio = mp.sin(count * x) / mp.sin(x)
            total += arc * mp.sin(j * (first + (count - 1) * period / 2)) * ratio
        inner.append(norm * mp.pi * total)
    return (pos * a_pos**2 * w_pos + neg * a_neg**2 * w_neg) / 2, inner


def _moment_sample():
    """Seeded (point, indices) pairs: 80 odd and even n below 120 at resonances
    j = n, n +- 1, 2n and 3n (even n) and one random j, then n = 1 and
    n = 999,999 and 999,998."""
    rng = random.Random(20211)
    pairs = [(FucikPoint(1, 1.0, 1.0), [1, 2, 3, 4])]
    for _ in range(80):
        n = rng.randrange(2, 120)
        major = n * n * rng.uniform(1.0, 2.2)
        if n % 2 == 0:
            p = point_from_gamma(n, 4.0 * major / (n * n))
        elif rng.random() < 0.5:
            p = FucikPoint(n, major, solve_beta(n, major))
        else:
            p = FucikPoint(n, solve_alpha(n, major), major)
        wanted = {n - 1, n, n + 1, 2 * n, rng.randrange(1, 2 * n + 3)}
        if n % 2 == 0:
            wanted.add(3 * n)
        pairs.append((p, sorted(wanted)))
    for n in (999_999, 999_998):
        major = (n + 0.2) ** 2
        pairs.append((FucikPoint(n, major, solve_beta(n, major)), [1, n - 1, n, n + 1, 2 * n]))
    return pairs


def test_closed_form_moments_are_as_accurate_as_the_arc_sum():
    errors = {"closed": [0.0, 0.0], "arc sum": [0.0, 0.0]}
    sample = _moment_sample()
    with mpmath.workdps(40):
        # the geometric series is the arc sum, to the working precision
        for p, indices in sample[:8]:
            by_arc, by_series = _mp_moments(p, indices)[1], _mp_moments(p, indices, True)[1]
            assert max(abs(a - b) for a, b in zip(by_arc, by_series)) < 1e-30
        for p, indices in sample:
            want_sq, want = _mp_moments(p, indices, geometric=p.n > 1000)
            f = profile(p)
            (norm_sq,), (inner,) = batch_moments((p,), [indices])
            assert moments(p, indices) == (norm_sq, inner.tolist()), (p, indices)
            for j, value, exact in zip(indices, inner.tolist(), want):
                arc_sq, arc = profile_moments(f, j)
                for name, sq, got in (("closed", norm_sq, value), ("arc sum", arc_sq, arc)):
                    worst = errors[name]
                    worst[0] = max(worst[0], float(abs(sq - want_sq)))
                    worst[1] = max(worst[1], float(abs(got - exact)))
    closed, arc_sum = errors["closed"], errors["arc sum"]
    assert closed[0] <= arc_sum[0] and closed[1] <= arc_sum[1], errors
    assert max(closed) <= 1e-15, errors
