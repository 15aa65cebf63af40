"""The thirteen acceptance criteria, one test each, one printed verdict each.

Every criterion prints a single line

    [acceptance NN] label: PASS/FAIL (detail)

before asserting, so a red run still shows the whole scoreboard piece by
piece.  Tolerances are pinned here and nowhere else.
"""

import math
from functools import lru_cache

import numpy as np
from reference import (
    defect_details,
    envelope_tail_series,
    evaluate,
    ode_residual,
    profile,
    quadrature_coefficient,
)

from fucik.certify import (
    certify_system,
    constant_component,
    deviation_budget,
    deviation_cap,
    parse_system,
    profile_scaling,
    projection_defect_bound,
    zeta,
)
from fucik.envelope import (
    coefficient_bound,
    envelope_root,
    envelope_value,
    envelope,
)
from fucik.fourier import coefficient
from fucik.gram import extremal_eigenvalues, gram_matrix
from fucik.quadrature import integrate
from fucik.spectrum import FucikPoint, point_from_gamma, solve_alpha, solve_beta

GAMMA_GRID = [4.25 + 0.25 * i for i in range(19)]  # 4.25, 4.50, ..., 8.75
K_MAX = 20


def report(num: int, label: str, ok: bool, detail: str) -> bool:
    print(f"[acceptance {num:02d}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@lru_cache(maxsize=1)
def closed_form_table():
    return {
        (g, k): coefficient(g, k)
        for g in GAMMA_GRID
        for k in range(1, K_MAX + 1)
    }


@lru_cache(maxsize=1)
def sampled_points():
    pts = []
    for n in range(2, 21, 2):
        for g in (4.5, 6.0, 8.0):
            pts.append(point_from_gamma(n, g))
    for n in range(3, 22, 2):
        major = (n + 0.1) ** 2
        pts.append(FucikPoint(n, major, solve_beta(n, major)))
        pts.append(FucikPoint(n, solve_alpha(n, major), major))
    return tuple(pts)


@lru_cache(maxsize=1)
def sampled_defects():
    return tuple(defect_details(p) for p in sampled_points())


def test_acceptance_01_envelope_vanishes_at_four():
    value = envelope_value(4.0)
    ok = abs(value) <= 1e-12
    assert report(1, "envelope vanishes at 4", ok, f"E(4) = {value!r}")


def test_acceptance_02_envelope_root_location():
    root = envelope_root()
    ok = abs(root - 6.49278) <= 1e-5
    assert report(2, "envelope root at 6.49278", ok, f"root = {root!r}")


def test_acceptance_03_closed_form_matches_quadrature():
    worst = 0.0
    table = closed_form_table()
    for g in GAMMA_GRID:
        p = point_from_gamma(2, g)
        for k in range(1, K_MAX + 1):
            worst = max(worst, abs(table[(g, k)] - quadrature_coefficient(p, k)))
    ok = worst <= 1e-9
    assert report(3, "coefficients vs quadrature", ok, f"worst gap = {worst:.3e}")


def test_acceptance_04_reflection_identity():
    # the coordinate-swapped point carries the mirrored profile, negative arc first
    worst = 0.0
    table = closed_form_table()
    for g in GAMMA_GRID:
        mirrored = FucikPoint(2, solve_beta(2, g), g)
        for k in range(1, K_MAX + 1):
            gap = quadrature_coefficient(mirrored, k) - (-1.0) ** k * table[(g, k)]
            worst = max(worst, abs(gap))
    ok = worst <= 1e-9
    assert report(4, "reflection sign rule on the mirrored profile", ok,
                  f"worst gap = {worst:.3e}")


def test_acceptance_05_bounds_dominate_coefficients():
    excess = -math.inf
    table = closed_form_table()
    for g in GAMMA_GRID:
        for k in range(1, K_MAX + 1):
            target = abs(table[(g, k)] - 1.0) if k == 2 else abs(table[(g, k)])
            excess = max(excess, target - coefficient_bound(k, g))
    ok = excess <= 1e-12
    assert report(5, "majorants dominate", ok, f"worst excess = {excess:.3e}")


def test_acceptance_06_strict_monotonicity():
    grid = [4.0 + 0.01 * i for i in range(500)]  # up to 8.99
    env = [envelope_value(g) for g in grid]
    env_ok = all(a < b for a, b in zip(env, env[1:]))
    bound_ok = True
    for k in range(1, 51):
        vals = [coefficient_bound(k, g) for g in grid]
        bound_ok = bound_ok and all(a < b for a, b in zip(vals, vals[1:]))
    ok = env_ok and bound_ok
    assert report(
        6,
        "envelope and majorants strictly increase",
        ok,
        f"envelope strict: {env_ok}, bounds strict: {bound_ok}",
    )


def test_acceptance_07_tail_closed_form_vs_series():
    worst = 0.0
    for g in (4.5, 5.0, 6.0, 7.0, 8.0, 8.9):
        closed = envelope(g).summands[4]
        series = envelope_tail_series(g, 1_000_000)
        worst = max(worst, abs(closed - series))
    ok = worst <= 1e-8
    assert report(7, "tail closed form vs 1e6-term series", ok, f"worst gap = {worst:.3e}")


def test_acceptance_08_distance_bounds_hold():
    excess = -math.inf
    for p, d in zip(sampled_points(), sampled_defects()):
        excess = max(excess, d["distance_sq"] - projection_defect_bound(p))
    ok = excess <= 1e-10
    assert report(8, "explicit distance bounds dominate", ok, f"worst excess = {excess:.3e}")


def test_acceptance_09_defect_identity():
    worst = 0.0
    for d in sampled_defects():
        worst = max(worst, abs(d["defect"] - d["defect_alt"]))
    ok = worst <= 1e-11
    assert report(9, "projection identity agreement", ok, f"worst gap = {worst:.3e}")


def test_acceptance_10_ode_residuals():
    rng = np.random.default_rng(20260819)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 13))
        if n == 1:
            p = FucikPoint(1, 1.0, 1.0)
        elif n % 2 == 0:
            p = point_from_gamma(n, float(rng.uniform(4.0, 8.5)))
        else:
            major = (n + float(rng.uniform(0.0, 0.5))) ** 2
            if rng.integers(0, 2) == 0:
                p = FucikPoint(n, major, solve_beta(n, major))
            else:
                p = FucikPoint(n, solve_alpha(n, major), major)
        f = profile(p)
        for start, end in zip(f.edges[:-1], f.edges[1:]):
            width = end - start
            xs = start + width * (np.arange(1, 101) / 101.0)
            for x in xs:
                worst = max(worst, abs(ode_residual(f, float(x))))
    ok = worst <= 1e-10
    assert report(10, "piecewise profiles solve the equation", ok, f"worst residual = {worst:.3e}")


def unit_constant_component(p: FucikPoint) -> float:
    """<rho f, 1/sqrt(pi)>: the rescaled profile's component along the unit
    constant, with rho = profile_scaling(p) and the integral of f taken by
    adaptive quadrature over its junctions, independently of gram_matrix."""
    f = profile(p)
    integral = integrate(lambda x: evaluate(f, x), 0.0, math.pi, breakpoints=f.junctions)
    return profile_scaling(p) * integral / math.sqrt(math.pi)


def test_acceptance_11_gram_window_for_the_constant_shape_family():
    # Every even member is a dilate of one profile and keeps the same
    # component mu along the unit constant, so the even block carries the
    # rank-one term mu^2 11^T, whose top eigenvalue grows like (N/2) mu^2:
    # the family is not even Bessel (Hedenmalm, Lindqvist & Seip, Duke
    # Math. J. 86, 1997) and the truncation must leave the window's ceiling.
    # The verdict checked is that it leaves through that term alone.
    spec = parse_system(
        {"entries": [{"n": n, "alpha": 5.0 * n * n / 4.0} for n in range(2, 65, 2)]}
    )
    m = gram_matrix(spec, 64)
    lo, hi = extremal_eigenvalues(m)
    e5 = envelope_value(5.0)
    floor = (1.0 - e5) ** 2 - 0.02
    ceiling = (1.0 + e5) ** 2 + 0.02
    components = [unit_constant_component(p) for p in spec.entries]
    mu = components[0]
    spread = max(components) - min(components)
    # the closed form of the library against the quadrature oracle
    closed_gap = max(abs(constant_component(p) - c) for p, c in zip(spec.entries, components))
    evens = m[1::2, 1::2]  # rows and columns of n = 2, 4, ..., 64
    lo_free, hi_free = extremal_eigenvalues(evens - mu * mu)
    ok = (
        lo >= floor
        and hi > ceiling
        and spread <= 1e-12
        and closed_gap <= 1e-12
        and floor <= lo_free
        and hi_free <= ceiling
    )
    assert report(
        11,
        "64x64 Gram leaves the window only through the shared constant component",
        ok,
        f"min {lo:.6f} vs floor {floor:.6f}, max {hi:.6f} vs ceiling {ceiling:.6f}, "
        f"mu {mu:.6f} (spread {spread:.1e}, closed form within {closed_gap:.1e}), "
        f"even block without mu^2 11^T in [{lo_free:.6f}, {hi_free:.6f}]",
    )


def test_acceptance_12_budgeted_system_certifies():
    budget = deviation_budget(0.5, 5.0)
    entries = [{"n": n, "alpha": 5.0 * n * n / 4.0} for n in range(2, 15, 2)]
    for n in range(3, 16, 2):
        entries.append({"n": n, "alpha": deviation_cap(n, 0.5, 0.9 * budget)})
    cert = certify_system(parse_system({"entries": sorted(entries, key=lambda e: e["n"])}))
    zeta_gap = abs(zeta(2.0) - math.pi**2 / 6.0)
    ok = budget > 0.0 and cert.passed and zeta_gap <= 1e-10
    assert report(
        12,
        "deviation budget certifies near its boundary",
        ok,
        f"budget = {budget:.6f}, total = {cert.total:.6f}, zeta gap = {zeta_gap:.1e}",
    )


def test_acceptance_13_threshold_behavior():
    failing = certify_system(parse_system({"entries": [{"n": 2, "alpha": 6.6}]}))
    passing = certify_system(parse_system({"entries": [{"n": 2, "alpha": 6.4}]}))
    all_enveloped = all(rec["method"] == "envelope" for rec in passing.per_index)
    ok = (
        not failing.passed
        and passing.passed
        and all_enveloped
        and passing.defect_sum == 0.0
    )
    assert report(
        13,
        "threshold around the envelope root",
        ok,
        f"6.6 total = {failing.total:.6f}, 6.4 total = {passing.total:.6f}",
    )
