import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from reference import ParentPoint, parent_point_from_gamma, parent_solve_alpha, parent_solve_beta

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
    _arc_counts,
    _residual,
    dilation_parameter,
    is_diagonal,
    point_from_gamma,
    solve_alpha,
    solve_beta,
)


def residual(n, alpha, beta):
    """The tiling residual of (n, alpha, beta) as the intake takes it."""
    return _residual(_arc_counts(n), math.sqrt(alpha), math.sqrt(beta))


def test_solve_beta_odd_reference_point():
    # n=3 with sqrt(alpha)=4 leaves room pi/4 for the single negative arc
    assert solve_beta(3, 16.0) == 4.0


def test_solve_beta_even_reference_point():
    beta = solve_beta(2, 6.25)
    assert beta == pytest.approx(25.0 / 9.0, rel=1e-14)


def test_diagonal_points_have_zero_residual():
    for n in range(2, 12):
        p = FucikPoint(n, float(n * n), float(n * n))
        assert residual(n, p.alpha, p.beta) == pytest.approx(0.0, abs=1e-13)
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
    assert abs(residual(6, p.alpha, p.beta)) <= MEMBERSHIP_TOL
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
    assert abs(residual(n, alpha, beta)) <= 1e-9
    assert solve_alpha(n, beta) == pytest.approx(alpha, rel=1e-9)


@given(n=st.integers(min_value=1, max_value=30), gamma=st.floats(min_value=4.0, max_value=12.0))
def test_gamma_parametrization_roundtrip(n, gamma):
    even = 2 * n
    p = point_from_gamma(even, gamma)
    assert dilation_parameter(p) == pytest.approx(gamma, rel=1e-13)
    assert abs(residual(even, p.alpha, p.beta)) <= MEMBERSHIP_TOL


class _FloatWithoutFloat(float):
    """A float whose __float__ raises: the intake refuses it as no real number."""

    def __float__(self):
        raise ValueError("no float value")


def _float32(x):
    with np.errstate(over="ignore"):
        return np.float32(x)


# every form a coordinate may arrive in, the exotic ones only where they
# take a value; floats and numpy.float64 come first and most often
_FORMS = (
    float,
    np.float64,
    float,
    np.float64,
    _float32,
    lambda x: int(x) if math.isfinite(x) else x,
    lambda x: Fraction(x) if math.isfinite(x) else x,
    lambda x: Decimal(repr(x)),
    repr,
    lambda x: repr(x).encode(),
    lambda x: x > 1.0,
    _FloatWithoutFloat,
)


@st.composite
def intake_args(draw):
    """(n, alpha, beta) for the intake: indices of every accepted and refused
    kind, and coordinates near the curve, on its diagonal, overfull,
    reflected, off it, and of every type that reaches the intake."""
    # plain indices most often, as the coordinates' common shapes below
    n = draw(st.one_of(
        st.integers(1, 40),
        st.integers(2, 40),
        st.integers(2, 40),
        st.sampled_from([1, 2, 3, 999_999, 1_000_000, 2**52 + 1, 2**52, 10**20 + 1, 2 * 10**154, 2 * 10**154 + 1]),
        st.sampled_from([True, False, np.int64(7), 7.0, 0, -3, 2**1024, 10**400]),
    ))
    k = n if type(n) is int and 1 <= n <= 10**300 else 7
    # near k = 2 * 10**154 a completion can leave the float range; squares
    # are products, which overflow to inf where ** raises
    pos, neg = float((k + 1) // 2), float(max(k // 2, 1))
    value = st.one_of(
        st.floats(1.0 + 1e-9, 50.0).map(lambda t: pos * t * (pos * t)),
        st.floats(1.0 + 1e-9, 50.0).map(lambda t: pos * t * (pos * t)),
        st.floats(1.0 + 1e-9, 50.0).map(lambda t: neg * t * (neg * t)),
        st.floats(1e-3, 1.0).map(lambda t: pos * t * (pos * t)),
        st.integers(-8, 8).map(lambda u: float(k) * float(k) * (1.0 + u * 2.0**-52)),
        st.floats(4.0, 12.0),
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([0.0, -0.0, -1.0, 5e-324, 2.2e-308, 1.0, math.inf, -math.inf, math.nan, 1e308]),
    )
    a, c = draw(value), draw(value)
    try:
        b = parent_solve_beta(k, a)
    except SpectrumError:
        b = c
    alpha, beta = draw(st.sampled_from([
        (a, None), (None, a), (a, b), (b, a), (a, None), (None, a), (a, b), (b, a),
        (None, None), (a, c), (a, b * (1.0 + 1e-9)), (a, math.nextafter(b, math.inf)), (a, 10**400),
    ]))
    forms = st.sampled_from(_FORMS)
    return n, *(x if x is None or isinstance(x, int) else draw(forms)(x) for x in (alpha, beta))


def _outcome(fn, *args):
    """What fn(*args) gives, as its type and repr, a point as a plain tuple
    (the reference's class differs only in name); or the type and message
    of what it raises."""
    try:
        got = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(got, tuple):
        got = tuple(got)
    return type(got), repr(got)


@settings(max_examples=600, deadline=None)
@given(args=intake_args())
@example(args=(7, _FloatWithoutFloat(53.29), None))
@example(args=(7, None, _FloatWithoutFloat(4.0)))
@example(args=(7, np.float64(53.29), None))
def test_the_intake_gives_the_parents_points_and_refusals(args):
    """FucikPoint, solve_beta, solve_alpha and point_from_gamma give the
    points, floats and refusals, in the same order, of the intake whose
    helpers each made their own tests and took their own roots."""
    n, alpha, beta = args
    assert _outcome(FucikPoint, n, alpha, beta) == _outcome(ParentPoint, n, alpha, beta)
    assert _outcome(solve_beta, n, alpha) == _outcome(parent_solve_beta, n, alpha)
    assert _outcome(solve_alpha, n, beta) == _outcome(parent_solve_alpha, n, beta)
    assert _outcome(point_from_gamma, n, alpha) == _outcome(parent_point_from_gamma, n, alpha)
