import math

import pytest
from hypothesis import given, strategies as st

import fucik
import fucik.certify
import fucik.spectrum
from fucik.certify import SystemSpec, deviation_budget, deviation_cap
from fucik.cli import region_rows
from fucik.envelope import coefficient_bound, envelope, envelope_value, zeta
from fucik.fourier import coefficient, dilation_norm_bound
from fucik.gram import gram_matrix
from fucik.spectrum import (
    MEMBERSHIP_TOL,
    FucikPoint,
    InputError,
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
    with pytest.raises(SpectrumError, match="a real number"):
        FucikPoint(4, "16", "16")
    with pytest.raises(SpectrumError, match="float range"):
        FucikPoint(2, 10**400, 4.0)
    with pytest.raises(SpectrumError, match="needs alpha or beta"):
        FucikPoint(2)


# no coordinate; None stands for a missing one, which needs the other given
JUNK = [None, True, "abc", "16", b"1", [1], {}, math.nan, math.inf, -1.0, 0.0, 10**400]


def test_intake_refuses_junk_coordinates():
    for junk in JUNK:
        calls = [
            lambda: FucikPoint(3, junk),
            lambda: FucikPoint(3, None, junk),
            lambda: solve_beta(3, junk),
            lambda: solve_alpha(3, junk),
        ]
        if junk is not None:
            calls += [lambda: FucikPoint(3, junk, 4.0), lambda: FucikPoint(3, 16.0, junk)]
        for call in calls:
            with pytest.raises(SpectrumError):
                call()
    # every other public real or index argument has the same two rules
    spec = SystemSpec((FucikPoint(2, 6.4),))
    reals = [
        lambda x: coefficient(x, 2),
        lambda x: coefficient_bound(2, x),
        envelope,
        envelope_value,
        zeta,
        lambda x: zeta(2.0, x),
        lambda x: point_from_gamma(2, x),
        lambda x: deviation_budget(x, 5.0),
        lambda x: deviation_budget(0.5, x),
        lambda x: deviation_cap(3, x, 0.1),
        lambda x: deviation_cap(3, 0.5, x),
        region_rows,
    ]
    indices = [
        lambda n: coefficient(5.0, n),
        lambda n: coefficient_bound(n, 5.0),
        dilation_norm_bound,
        lambda n: point_from_gamma(n, 5.0),
        lambda n: deviation_cap(n, 0.5, 0.1),
        lambda n: gram_matrix(spec, n),
        lambda n: region_rows(5.0, nmax=n),
        lambda n: region_rows(5.0, resolution=n),
        lambda n: SystemSpec(spec.entries, split=[n]),
    ]
    type_junk = [None, True, "5.5", b"5", [5], {}]
    # None is no epsilon, so region_rows takes it
    cases = [(call, junk) for call in reals for junk in [*type_junk, 10**400]]
    cases += [(lambda x: region_rows(5.0, epsilon=x), junk) for junk in [*type_junk[1:], 10**400]]
    cases += [(call, junk) for call in indices for junk in [*type_junk, 2.0]]
    for call, junk in cases:
        with pytest.raises(InputError):
            call(junk)
    assert issubclass(SpectrumError, InputError)
    assert fucik.InputError is fucik.certify.InputError is fucik.spectrum.InputError


def test_intake_completes_a_missing_coordinate():
    assert FucikPoint(1) == FucikPoint(1, None, None) == (1, 1.0, 1.0)
    assert FucikPoint(1, 1) == FucikPoint(1, None, 1.0) == (1, 1.0, 1.0)
    for n in (2, 3, 4, 7, 120, 999_999):
        for major in (n * n * 1.0, (n + 0.5) ** 2, 5.0 * n * n):
            assert FucikPoint(n, major) == FucikPoint(n, major, solve_beta(n, major))
            assert FucikPoint(n, None, major) == FucikPoint(n, solve_alpha(n, major), major)
    assert FucikPoint(3, 16) == (3, 16.0, 4.0)
    for n, coordinate in ((1, (2.0,)), (1, (None, 2.0)), (4, (4.0,)), (5, (None, 4.0))):
        with pytest.raises(SpectrumError):
            FucikPoint(n, *coordinate)


# at a huge even index, sqrt(alpha) a few ulp past the diagonal leaves so
# little room that the completed coordinate squares past the float range
HUGE_EVEN, NEAR_DIAGONAL = 2 * 10**150, 1.0000000000000006e300


def test_a_completion_beyond_the_float_range_is_refused():
    for call, missing, given in (
        (lambda: FucikPoint(HUGE_EVEN, NEAR_DIAGONAL), "beta", "alpha"),
        (lambda: solve_beta(HUGE_EVEN, NEAR_DIAGONAL), "beta", "alpha"),
        (lambda: FucikPoint(HUGE_EVEN, None, NEAR_DIAGONAL), "alpha", "beta"),
        (lambda: solve_alpha(HUGE_EVEN, NEAR_DIAGONAL), "alpha", "beta"),
    ):
        with pytest.raises(SpectrumError) as err:
            call()
        assert str(err.value) == f"the {missing} completing this {given} lies beyond the float range"
    # further from the diagonal the completion stays finite
    assert math.isfinite(FucikPoint(HUGE_EVEN, 1.01e300).beta)
    assert math.isfinite(FucikPoint(HUGE_EVEN, None, 1.01e300).alpha)


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
