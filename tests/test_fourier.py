import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from reference import apply_dilation, evaluate, profile, quadrature_coefficient

from fucik.cli import main
from fucik.envelope import TAIL_WEIGHT
from fucik.fourier import coefficient, dilation_norm_bound
from fucik.quadrature import integrate
from fucik.spectrum import FucikPoint, point_from_gamma, solve_beta


def test_symmetric_profile_has_a_single_coefficient():
    for k in range(1, 12):
        expected = 1.0 if k == 2 else 0.0
        assert coefficient(4.0, k) == expected


def test_frozen_reference_coefficients():
    # pinned against the quadrature oracle
    assert coefficient(6.25, 1) == pytest.approx(-0.37541008365111955, abs=1e-13)
    assert coefficient(6.25, 2) == pytest.approx(0.787448892077979, abs=1e-13)
    assert coefficient(5.0, 3) == pytest.approx(0.0763110814626587, abs=1e-13)


def test_closed_form_matches_quadrature_on_sample():
    for gamma in (4.5, 5.5, 6.25, 8.25):
        p = point_from_gamma(2, gamma)
        for k in (1, 2, 3, 4, 7, 12):
            a = coefficient(gamma, k)
            q = quadrature_coefficient(p, k)
            assert a == pytest.approx(q, abs=1e-11)


def test_commensurate_indices_need_no_luck():
    """sqrt(6.25) is rational, so k = 25 oscillates in lockstep with the
    arcs; this used to alias to 0.6 before the quadrature splits at the
    sine zeros."""
    p = point_from_gamma(2, 6.25)
    for k in (25, 55, 105):
        assert coefficient(6.25, k) == 0.0
        assert abs(quadrature_coefficient(p, k)) < 1e-11


def test_reflection_changes_odd_coefficient_signs_exactly(capsys):
    # the coeffs table lists the mirrored profile's coefficients next to the direct ones
    for gamma in (4.25, 5.0, 6.25, 8.75):
        assert main(["coeffs", "--gamma", str(gamma), "--kmax", "24"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 24
        for row in rows:
            k, direct, mirrored = row.split(",")[:3]
            value = coefficient(gamma, int(k))
            assert direct == format(value, ".12g")
            assert mirrored == format((-1.0) ** int(k) * value, ".12g")


def test_mirrored_branch_matches_the_swapped_profile():
    # the profile of the coordinate-swapped even point is the reflected one
    gamma = 6.25
    alpha = gamma
    swapped = FucikPoint(2, solve_beta(2, alpha), alpha)
    for k in range(1, 13):
        q = quadrature_coefficient(swapped, k)
        assert q == pytest.approx((-1.0) ** k * coefficient(gamma, k), abs=1e-11)


def test_parseval_closes_the_norm():
    p = point_from_gamma(2, 6.25)
    f = profile(p)
    norm_sq = integrate(
        lambda x: evaluate(f, x) ** 2, 0.0, math.pi, tol=1e-13, breakpoints=f.junctions
    )
    partial = math.fsum(quadrature_coefficient(p, k) ** 2 for k in range(1, 201))
    assert norm_sq == pytest.approx(partial, abs=1e-6)


def test_query_validation():
    with pytest.raises(ValueError):
        coefficient(3.9, 1)
    with pytest.raises(ValueError):
        coefficient(9.0, 1)
    with pytest.raises(ValueError):
        coefficient(5.0, 0)


def test_dilation_reproduces_higher_profiles():
    gamma = 5.5
    base = profile(point_from_gamma(2, gamma))
    xs = np.linspace(0.0, math.pi, 1777)
    for n in (2, 4, 6, 10, 16):
        dil = apply_dilation(n, lambda x: evaluate(base, x))
        prof = profile(point_from_gamma(n, gamma))
        assert float(np.max(np.abs(evaluate(prof, xs) - dil(xs)))) < 1e-13


def test_dilation_requires_vanishing_endpoints():
    with pytest.raises(ValueError):
        apply_dilation(3, lambda x: np.cos(x))


def test_norm_bound_values():
    assert dilation_norm_bound(2) == 1.0
    assert dilation_norm_bound(8) == 1.0
    assert dilation_norm_bound(3) == pytest.approx(math.sqrt(4.0 / 3.0), rel=1e-15)
    assert dilation_norm_bound(5) == pytest.approx(math.sqrt(6.0 / 5.0), rel=1e-15)
    assert TAIL_WEIGHT == math.sqrt(6.0 / 5.0)  # the envelope tail's weight, bit for bit
    with pytest.raises(ValueError):
        dilation_norm_bound(0)


def test_odd_norm_bound_is_attained():
    # the positive part of sin(2x) meets the odd bound with equality
    def bulge(x):
        return np.maximum(np.sin(2.0 * x), 0.0)

    base = integrate(lambda x: bulge(x) ** 2, 0.0, math.pi, tol=1e-12, breakpoints=[math.pi / 2])
    for k in (3, 5, 7):
        t = apply_dilation(k, bulge)
        brk = [j * math.pi / k for j in range(1, k)]
        ratio = math.sqrt(
            integrate(lambda x: t(x) ** 2, 0.0, math.pi, tol=1e-12, breakpoints=brk) / base
        )
        assert ratio == pytest.approx(dilation_norm_bound(k), abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=9),
    n=st.integers(min_value=1, max_value=8),
    frac=st.floats(min_value=0.0, max_value=1.0),
)
def test_dilation_on_even_modes_is_pointwise_exact(k, n, frac):
    even = 2 * n
    x = frac * math.pi
    t = apply_dilation(k, lambda y: np.sin(even * np.asarray(y)))
    assert float(t(x)) == pytest.approx(math.sin(0.5 * k * even * x), abs=1e-9)


@settings(max_examples=20, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=7),
    a=st.floats(min_value=-2.0, max_value=2.0),
    b=st.floats(min_value=-2.0, max_value=2.0),
)
def test_norm_bound_holds_on_even_trig_sums(k, a, b):
    def f(x):
        return a * np.sin(2.0 * np.asarray(x)) + b * np.sin(4.0 * np.asarray(x))

    # |f|^2 = (a^2 + b^2) pi / 2; the quadrature error is absolute, so its
    # tolerance shrinks with a small f, whose sqrt(base) it would swamp
    scale = a * a + b * b
    if scale * math.pi / 2.0 < 1e-12:
        return
    tol = 1e-11 * min(1.0, scale)
    base = integrate(lambda x: f(x) ** 2, 0.0, math.pi, tol=tol)
    t = apply_dilation(k, f)
    brk = [j * math.pi / k for j in range(1, k)]
    dilated = integrate(lambda x: t(x) ** 2, 0.0, math.pi, tol=tol, breakpoints=brk)
    assert math.sqrt(dilated) <= dilation_norm_bound(k) * math.sqrt(base) + 1e-7
