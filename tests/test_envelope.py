import math

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from reference import envelope_tail_series

from fucik.envelope import (
    GAMMA_MAX,
    coefficient_bound,
    envelope,
    envelope_root,
    envelope_value,
)
from fucik.fourier import coefficient


def test_envelope_vanishes_at_the_symmetric_end():
    assert envelope_value(4.0) == 0.0


def test_envelope_summands_add_up():
    ev = envelope(6.25)
    assert ev.value == math.fsum(ev.summands)
    assert all(s >= 0.0 for s in ev.summands)


def test_frozen_envelope_values():
    assert envelope_value(5.0) == pytest.approx(0.5272973362543395, abs=1e-13)
    assert envelope_value(6.25) == pytest.approx(0.9385562220409152, abs=1e-13)


def test_root_solves_to_machine_resolution():
    r = envelope_root()
    assert envelope_value(r) == pytest.approx(1.0, abs=1e-11)
    assert r == pytest.approx(6.49278936851519, abs=1e-10)


def test_bounds_with_equality_cases():
    # indices 1 and 3 saturate their bound, index 2 does not
    for gamma in (4.5, 5.0, 6.25, 8.0):
        assert coefficient_bound(1, gamma) == abs(coefficient(gamma, 1))
        assert coefficient_bound(3, gamma) == abs(coefficient(gamma, 3))
        assert abs(coefficient(gamma, 2) - 1.0) < coefficient_bound(2, gamma)
    assert coefficient_bound(2, 6.25) == pytest.approx(0.2136341436649234, abs=1e-13)


def test_high_index_bound_majorizes_through_the_sine_factor():
    for gamma in (4.3, 5.7, 7.9):
        s = math.sqrt(gamma)
        for k in range(4, 30):
            a = abs(coefficient(gamma, k))
            b = coefficient_bound(k, gamma)
            assert a <= b + 1e-15
            # the ratio is exactly |sin(k pi / sqrt(gamma))|
            assert a == pytest.approx(b * abs(math.sin(k * math.pi / s)), rel=1e-10)


def test_bounds_vanish_at_the_symmetric_end():
    for k in range(1, 30):
        assert coefficient_bound(k, 4.0) == pytest.approx(0.0, abs=1e-15)


def test_tail_series_matches_closed_form():
    for gamma in (4.5, 6.0, 8.9):
        series = envelope_tail_series(gamma, 400_000)
        ev = envelope(gamma)
        assert series == pytest.approx(ev.summands[4], abs=1e-10)
    with pytest.raises(ValueError):
        envelope_tail_series(5.0, 3)


def _summands_at_40_digits(gamma):
    """Every envelope summand at 40 digits from its defining form: the
    majorant times the compression constant, the k >= 5 tail by nsum."""
    with mpmath.workdps(40):
        g = mpmath.mpf(gamma)
        s = mpmath.sqrt(g)
        pi = mpmath.pi
        pref = 2 / pi * g * g * (s - 2) / (s - 1)

        def body(k):
            return 1 / ((k * k - g) * ((k - 1) * s - k) * ((k + 1) * s - k))

        k2 = ((3 + pi**2) * g + (9 - 2 * pi**2) * s - 6) * (s - 2) / (
            3 * (s - 1) * (s + 2) * (3 * s - 2))
        tail = mpmath.sqrt(mpmath.mpf(6) / 5) * pref * mpmath.nsum(body, [5, mpmath.inf])
        return (
            mpmath.sqrt(2) * abs(pref * mpmath.sin(pi / s) * body(1)),
            k2,
            mpmath.sqrt(mpmath.mpf(4) / 3) * abs(pref * mpmath.sin(3 * pi / s) * body(3)),
            pref * body(4),
            tail,
        )


@pytest.mark.parametrize(
    "gamma",
    [4 + 1e-12, 4 + 1.39e-13, 4 + 1e-9, 4 + 1e-6, 4.5, 5.0, 6.4927893685, 8.9, GAMMA_MAX],
)
def test_summands_match_40_digit_sums(gamma):
    # s - 2 taken by subtraction loses all but a few digits just above 4
    ev = envelope(gamma)
    for got, want in zip(ev.summands, _summands_at_40_digits(gamma)):
        assert abs(got - want) <= 2e-15 * want


def test_domain_is_half_open_below_nine():
    assert envelope_value(GAMMA_MAX) > 1.0
    for bad in (3.999, 9.0, 9.5, math.nan):
        with pytest.raises(ValueError):
            envelope_value(bad)


@settings(max_examples=60)
@given(
    lo=st.floats(min_value=4.0, max_value=8.95),
    step=st.floats(min_value=1e-6, max_value=0.5),
)
def test_envelope_is_strictly_increasing(lo, step):
    hi = min(lo + step, 8.99)
    if hi <= lo:
        return
    assert envelope_value(lo) < envelope_value(hi)


@settings(max_examples=60)
@given(
    k=st.integers(min_value=1, max_value=50),
    lo=st.floats(min_value=4.001, max_value=8.9),
    step=st.floats(min_value=1e-4, max_value=0.5),
)
def test_bounds_are_strictly_increasing(k, lo, step):
    hi = min(lo + step, 8.99)
    if hi <= lo:
        return
    assert coefficient_bound(k, lo) < coefficient_bound(k, hi)
