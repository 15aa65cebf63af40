import math

import pytest
from hypothesis import given, strategies as st

from fucik.spectrum import (
    MEMBERSHIP_TOL,
    FucikPoint,
    ReflectedCurveError,
    SpectrumError,
    _residual,
    dilation_parameter,
    is_diagonal,
    point_from_gamma,
    solve_alpha,
    solve_beta,
)


def test_solve_beta_odd_reference_point():
    # n=3 with sqrt(alpha)=4 leaves room pi/4 for the single negative arc
    assert solve_beta(3, 16.0) == 4.0


def test_solve_beta_even_reference_point():
    beta = solve_beta(2, 6.25)
    assert beta == pytest.approx(25.0 / 9.0, rel=1e-14)


def test_diagonal_points_have_zero_residual():
    for n in range(2, 12):
        p = FucikPoint(n, float(n * n), float(n * n))
        assert _residual(n, p.alpha, p.beta) == pytest.approx(0.0, abs=1e-13)
        assert is_diagonal(p)


def test_index_one_is_pinned_to_unit_point():
    assert is_diagonal(FucikPoint(1, 1.0, 1.0))
    with pytest.raises(SpectrumError):
        FucikPoint(1, 1.0, 7.0)
    assert solve_beta(1, 1.0) == 1.0
    with pytest.raises(SpectrumError):
        solve_beta(1, 2.0)


def test_off_curve_point_rejected():
    with pytest.raises(SpectrumError):
        FucikPoint(2, 6.25, 2.9)


def test_mirrored_odd_point_raises_distinct_error():
    # (4, 16) solves the swapped arc-count equation for n=3, not the direct one
    with pytest.raises(ReflectedCurveError):
        FucikPoint(3, 4.0, 16.0)
    # even curves are symmetric, so the swap stays on-curve
    FucikPoint(2, solve_beta(2, 6.25), 6.25)


def test_point_validation_rejects_garbage():
    with pytest.raises(SpectrumError):
        FucikPoint(0, 1.0, 1.0)
    with pytest.raises(SpectrumError):
        FucikPoint(True, 1.0, 1.0)
    with pytest.raises(SpectrumError):
        FucikPoint(2, -4.0, 4.0)
    with pytest.raises(SpectrumError):
        FucikPoint(2, math.nan, 4.0)
    with pytest.raises(SpectrumError):
        FucikPoint(2, 4.0, math.inf)


def test_solve_beta_needs_room_for_positive_arcs():
    # sqrt(alpha) = 2 makes the two positive arcs of n=4 fill (0, pi) alone
    with pytest.raises(SpectrumError):
        solve_beta(4, 4.0)
    with pytest.raises(SpectrumError):
        solve_alpha(5, 4.0)


def test_dilation_parameter_even_only():
    assert dilation_parameter(FucikPoint(2, 6.25, solve_beta(2, 6.25))) == 6.25
    assert dilation_parameter(FucikPoint(4, 16.0, 16.0)) == 4.0
    with pytest.raises(SpectrumError):
        dilation_parameter(FucikPoint(3, 16.0, 4.0))


def test_point_from_gamma_places_alpha_on_major_side():
    p = point_from_gamma(6, 5.5)
    assert p.alpha == 5.5 * 9.0
    assert p.alpha >= p.beta
    assert abs(_residual(6, p.alpha, p.beta)) <= MEMBERSHIP_TOL
    assert dilation_parameter(p) == pytest.approx(5.5, abs=1e-12)
    assert is_diagonal(point_from_gamma(4, 4.0))
    with pytest.raises(SpectrumError):
        point_from_gamma(3, 5.0)
    with pytest.raises(SpectrumError, match="at least 4"):
        point_from_gamma(2, 3.9)
    for gamma in (math.nan, math.inf):
        with pytest.raises(SpectrumError, match="must be finite"):
            point_from_gamma(2, gamma)


@given(
    n=st.integers(min_value=2, max_value=40),
    t=st.floats(min_value=1e-6, max_value=0.75),
)
def test_solve_roundtrip_stays_on_curve(n, t):
    """alpha -> beta -> alpha closes, and the pair passes membership."""
    n_pos = (n + 1) // 2
    # park sqrt(alpha) strictly inside (n_pos, infinity), scaled with n
    sa = n_pos / (1.0 - t) if n % 2 == 0 else n_pos / (1.0 - t * (n - 1) / (n + 1))
    alpha = sa * sa
    beta = solve_beta(n, alpha)
    FucikPoint(n, alpha, beta)  # checks membership
    assert abs(_residual(n, alpha, beta)) <= 1e-9
    assert solve_alpha(n, beta) == pytest.approx(alpha, rel=1e-9)


@given(n=st.integers(min_value=1, max_value=30), gamma=st.floats(min_value=4.0, max_value=12.0))
def test_gamma_parametrization_roundtrip(n, gamma):
    even = 2 * n
    p = point_from_gamma(even, gamma)
    assert dilation_parameter(p) == pytest.approx(gamma, rel=1e-13)
    assert abs(_residual(even, p.alpha, p.beta)) <= MEMBERSHIP_TOL
