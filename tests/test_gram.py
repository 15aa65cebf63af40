import json
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from reference import evaluate, per_row_gram, profile, quadrature_coefficient

import fucik.gram
import fucik.quadrature
from fucik.certify import InputError, SystemSpec, certify_system, parse_system, profile_scaling
from fucik.cli import main
from fucik.eigenfunction import arcs
from fucik.gram import (
    _exact_gram,
    batch_moments,
    build_batch,
    extremal_eigenvalues,
    gram_matrix,
    gram_witness,
)
from fucik.spectrum import (
    FucikPoint,
    is_diagonal,
    point_from_gamma,
    solve_alpha,
    solve_beta,
)

# Reference rule: 16-point Gauss-Legendre between consecutive junctions of
# the two factors.  Each panel sees at most ~12 radians of phase, far inside
# the rule's accuracy range, so the product integrals come out to machine
# precision without adaptivity.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def spec_points(spec, n_trunc):
    """The spec's point at each n <= n_trunc, the diagonal point elsewhere."""
    given = {p.n: p for p in spec.entries}
    return [given.get(n) or FucikPoint(n, float(n * n), float(n * n)) for n in range(1, n_trunc + 1)]


def reference_gram(spec, n_trunc, rescale=True):
    """Gram matrix by Gauss-Legendre quadrature of every pair: the reference
    that the closed-form engine of fucik.gram is held to."""
    points = spec_points(spec, n_trunc)
    profiles = [profile(p) for p in points]
    factors = [profile_scaling(p) if rescale else 1.0 for p in points]
    edges = [np.concatenate(([0.0], f.junctions, [math.pi])) for f in profiles]
    g = np.empty((n_trunc, n_trunc))
    for i in range(n_trunc):
        for j in range(i, n_trunc):
            panel = np.union1d(edges[i], edges[j])
            half = 0.5 * np.diff(panel)
            xs = ((panel[:-1] + half)[:, None] + half[:, None] * _GL_NODES).ravel()
            ws = (half[:, None] * _GL_WEIGHTS).ravel()
            prod = evaluate(profiles[i], xs) * evaluate(profiles[j], xs)
            g[i, j] = g[j, i] = factors[i] * factors[j] * float(np.dot(ws, prod))
    return g


def constant_shape_even_family(gamma, top):
    # every even index on the curve with the same dilation parameter
    return parse_system(
        {"entries": [{"n": n, "alpha": gamma * n * n / 4.0} for n in range(2, top + 1, 2)]}
    )


REFERENCE_SPECS = {
    "empty": parse_system({"entries": []}),
    "one even": parse_system({"entries": [{"n": 2, "alpha": 5.0}]}),
    "mixed": parse_system(
        {"entries": [{"n": 2, "alpha": 6.0}, {"n": 3, "alpha": 10.0}, {"n": 4, "alpha": 18.0}]}
    ),
    **{f"family {g}": constant_shape_even_family(g, 32) for g in (4.5, 5.3, 6.3)},
}


@pytest.mark.parametrize("rescale", [True, False])
@pytest.mark.parametrize("size", [12, 32])
@pytest.mark.parametrize("name", sorted(REFERENCE_SPECS))
def test_closed_form_matches_the_quadrature_reference(name, size, rescale):
    spec = REFERENCE_SPECS[name]
    m = gram_matrix(spec, size, rescale=rescale)
    assert np.array_equal(m, m.T)
    assert np.max(np.abs(m - reference_gram(spec, size, rescale))) <= 1e-13


@pytest.mark.parametrize("name", ["mixed", "family 5.3"])
def test_unscaled_diagonal_is_the_closed_form_norm(name):
    spec = REFERENCE_SPECS[name]
    m = gram_matrix(spec, 32, rescale=False)
    for p in spec_points(spec, 32):
        assert abs(m[p.n - 1, p.n - 1] - batch_moments((p,), [[p.n]])[0][0]) <= 1e-15


def with_norms(points, g):
    """The engine's matrix g of the points, whose diagonal it leaves 0, with
    each |f|^2 from batch_moments there, as gram_matrix writes it."""
    return g + np.diag(batch_moments(points, [[p.n] for p in points])[0])


def all_pairs_gram(spec, n_trunc, rescale):
    """Every profile n <= n_trunc through the arc-overlap engine, then the
    scaling factors: the Gram matrix before it was assembled by blocks."""
    batch = build_batch(spec_points(spec, n_trunc))
    g = with_norms(batch.points, _exact_gram(batch))
    if rescale:
        factors = np.array([profile_scaling(p) for p in batch.points])
        g *= np.outer(factors, factors)
    return g


def _curve_point(n, kind, t):
    """A point on curve n: diagonal, or off it by the factor t in [1, 2.5]."""
    square = float(n * n)
    if n == 1 or kind == "diagonal":
        return FucikPoint(n, square, square)
    if n % 2 == 0:
        return point_from_gamma(n, 4.0 * t)
    if kind == "alpha side":
        return FucikPoint(n, square * t, solve_beta(n, square * t))
    return FucikPoint(n, solve_alpha(n, square * t), square * t)


_ENTRIES = st.dictionaries(
    st.integers(min_value=1, max_value=48),
    st.tuples(
        st.sampled_from(["diagonal", "alpha side", "beta side"]),
        st.floats(min_value=1.0, max_value=2.5),
    ),
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(_ENTRIES, st.integers(min_value=1, max_value=40), st.booleans())
def test_blocks_match_the_all_pairs_engine(entries, n_trunc, rescale):
    spec = SystemSpec(
        entries=tuple(_curve_point(n, *entries[n]) for n in sorted(entries))
    )
    m = gram_matrix(spec, n_trunc, rescale=rescale)
    assert np.max(np.abs(m - all_pairs_gram(spec, n_trunc, rescale))) <= 1e-13

    perturbed = [p for p in spec.entries if p.n <= n_trunc and not is_diagonal(p)]
    rows = {p.n for p in perturbed}
    sines = [n - 1 for n in range(1, n_trunc + 1) if n not in rows]
    assert np.array_equal(m[np.ix_(sines, sines)], np.eye(len(sines)))
    for p in perturbed:
        rho = profile_scaling(p) if rescale else 1.0
        _, (inner,) = batch_moments((p,), [[k + 1 for k in sines]])
        for k, value in zip(sines, inner.tolist()):
            entry = rho * value
            assert m[p.n - 1, k] == entry and m[k, p.n - 1] == entry


def assert_sweeps_match_per_row(batch):
    want = per_row_gram(batch)
    # one row per sweep, the default sweeps, and every row in one sweep
    for cap in (1, fucik.gram.PASS_TERMS, 2**40):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fucik.gram, "PASS_TERMS", cap)
            assert np.array_equal(_exact_gram(batch), want), cap


@settings(max_examples=60, deadline=None)
@given(_ENTRIES)
def test_sweeps_match_the_per_row_engine(entries):
    points = [_curve_point(n, *entries[n]) for n in sorted(entries)]
    assert_sweeps_match_per_row(build_batch(points))


@settings(max_examples=60, deadline=None)
@given(_ENTRIES)
def test_engine_matches_parseval_over_the_sine_coefficients(entries):
    # Parseval: <f, g> = sum_j <f, e_j> <g, e_j>.  C comes from the points
    # in closed form and the engine from the built arcs, so the two share no
    # arithmetic; past j = 4000 the squared coefficients sum below 1e-14.
    # The diagonal is the closed-form |f|^2 that comes with C
    points = [_curve_point(n, *entries[n]) for n in sorted(entries)]
    if not points:
        return
    norm_sq, c = batch_moments(points, np.broadcast_to(np.arange(1, 4001), (len(points), 4000)))
    g = _exact_gram(build_batch(points)) + np.diag(norm_sq)
    assert np.max(np.abs(g - c @ c.T)) <= 1e-14


def true_even_profile(p):
    """Arc starts, then pi, amplitudes and frequencies of the even profile
    of p in mpmath, from the exact sqrt(alpha) of the float alpha rather
    than from float widths."""
    w_pos = mpmath.pi / mpmath.sqrt(p.alpha)
    w_neg = mpmath.pi / (p.n // 2) - w_pos
    ratio = w_neg / w_pos  # sqrt(alpha / beta)
    sup = mpmath.sqrt(2 / mpmath.pi)
    amps = (sup / ratio, -sup) if ratio >= 1 else (sup, -sup * ratio)
    edges = [(k + 1) // 2 * w_pos + k // 2 * w_neg for k in range(p.n)] + [mpmath.pi]
    return edges, [amps[k & 1] for k in range(p.n)], [mpmath.pi / (w_pos, w_neg)[k & 1] for k in range(p.n)]


def true_inner(f, g):
    """<f, g> of two true_even_profile results: between consecutive edges
    of either, the antiderivative of the product of the two arcs there."""
    (ef, af, wf), (eg, ag, wg) = f, g
    cuts = sorted(set(ef) | set(eg))
    total, i, j = 0, 0, 0
    for lo, hi in zip(cuts, cuts[1:]):
        while ef[i + 1] <= lo:
            i += 1
        while eg[j + 1] <= lo:
            j += 1
        w, v, s, t = wf[i], wg[j], ef[i], eg[j]

        def primitive(x):
            # twice an antiderivative of sin(w (x - s)) sin(v (x - t))
            if w == v:
                near = x * mpmath.cos(v * t - w * s)
            else:
                near = mpmath.sin((w - v) * x - w * s + v * t) / (w - v)
            return near - mpmath.sin((w + v) * x - w * s - v * t) / (w + v)

        total += af[i] * ag[j] * (primitive(hi) - primitive(lo)) / 2
    return total


@pytest.mark.parametrize("gamma", [4.5, 6.3])
def test_shared_periods_match_a_40_digit_integral(gamma):
    # pairs of even profiles whose halves n / 2 share a divisor g > 1: the
    # engine sums one of their g shared periods; the diagonal is |f|^2 from
    # batch_moments
    family = constant_shape_even_family(gamma, 32).entries
    g = with_norms(family, _exact_gram(build_batch(family)))
    with mpmath.workdps(40):
        for a, b in ((2, 4), (3, 6), (4, 12), (6, 15), (8, 16), (10, 15), (12, 16), (4, 4), (16, 16)):
            want = true_inner(true_even_profile(family[a - 1]), true_even_profile(family[b - 1]))
            assert abs(g[a - 1, b - 1] - want) <= 1e-15, (2 * a, 2 * b)


@settings(max_examples=30, deadline=None)
@given(_ENTRIES)
def test_diagonal_is_the_norm_of_the_arcs(entries):
    # the diagonal that gram_matrix writes, |f|^2 from batch_moments, against
    # A^2 (e - s) / 2 summed over the arcs one at a time: n terms in sequence
    # round by at most about n + 8 units in the last place of the sum
    points = [_curve_point(n, *entries[n]) for n in sorted(entries)]
    diagonal = np.diag(with_norms(points, _exact_gram(build_batch(points)))).tolist()
    for p, entry in zip(points, diagonal):
        total = 0.0
        for start, end, amp, _ in arcs(p):
            total += amp * amp * (end - start)
        assert abs(entry - 0.5 * total) <= (p.n + 8) * sys.float_info.epsilon * entry


def test_a_start_rounded_past_the_shared_period_stays_inside_it():
    # n = 8 ends its first shared period with n = 4 and 12 (g = 2) on a
    # negative arc 8.9e-16 wide, whose start lies 4 ulp before the period's
    # end on n = 4: moved to just past that end, the start stays in the
    # period's last arc of n = 4, and no term lands in the next pair's sum
    batch = build_batch([point_from_gamma(4, 5.0), FucikPoint(8, None, 1e31), point_from_gamma(12, 5.0)])
    starts, ends = batch.starts.copy(), batch.ends.copy()
    k = batch.offsets[1] + 3
    starts[k] = ends[k - 1] = np.nextafter(starts[2], math.inf)
    moved = batch._replace(starts=starts, ends=ends)
    assert_sweeps_match_per_row(moved)
    assert np.max(np.abs(_exact_gram(moved) - _exact_gram(batch))) <= 1e-15


def test_sweeps_match_the_per_row_engine_on_the_family():
    spec = constant_shape_even_family(5.0, 64)
    assert_sweeps_match_per_row(build_batch(spec.entries))


def test_only_perturbed_entries_build_a_profile(monkeypatch, capsys, write_spec):
    built = []

    def counting_build_batch(points):
        points = tuple(points)
        built.extend(p.n for p in points)
        return build_batch(points)

    # every profile, batched or alone, comes from build_batch
    monkeypatch.setattr(fucik.gram, "build_batch", counting_build_batch)
    entries = [
        {"n": 1}, {"n": 2, "alpha": 6.4}, {"n": 3, "alpha": 10.0},
        {"n": 4, "alpha": 16.0, "beta": 16.0}, {"n": 5, "alpha": 30.0},
        {"n": 40, "alpha": 2000.0},
    ]
    spec = parse_system({"entries": entries})
    gram_matrix(spec, 16)
    assert sorted(built) == [2, 3, 5]  # not the 16 an all-pairs engine builds

    built.clear()
    path = write_spec({"entries": [{"n": 2, "alpha": 6.4}]})
    assert main(["gram", "--spec", path, "--n", "1024"]) == 0  # the cap, MAX_GRAM_N
    assert json.loads(capsys.readouterr().out)["size"] == 1024
    assert built == [2]

    # exact defects, scalings and the coefficient table take no profile
    built.clear()
    for split in ("default", "auto", [2, 40]):
        cert = certify_system(parse_system({"entries": entries, "split": split}))
        assert cert.mode == "exact" and cert.defect_sum > 0.0
    assert profile_scaling(spec.entries[1]) > 1.0
    # at the cap a build holds 24 MB of arrays; the closed form needs none
    n = 999_999
    cap = parse_system({"entries": [{"n": n, "alpha": (n + 0.2) ** 2}]}).entries[0]
    assert profile_scaling(cap) == 1.0000002000004171
    assert main(["coeffs", "--gamma", "6.25", "--kmax", "200"]) == 0
    capsys.readouterr()
    assert built == []


def test_gram_matrix_never_evaluates_or_integrates(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the Gram engine must not integrate")

    # every binding of integrate, wherever a module imported it
    for name, module in list(sys.modules.items()):
        if (name == "fucik" or name.startswith("fucik.")) and hasattr(module, "integrate"):
            monkeypatch.setattr(module, "integrate", refuse)
    spec = REFERENCE_SPECS["mixed"]
    for rescale in (True, False):
        m = gram_matrix(spec, 12, rescale=rescale)
        assert np.all(np.isfinite(m))
    # the only profile evaluator is the test reference's
    assert not [name for name, module in list(sys.modules.items())
                if (name == "fucik" or name.startswith("fucik.")) and hasattr(module, "evaluate")]


def test_falsifier_at_size_128():
    # extremes computed once with reference_gram: 0.23607714031669888, 3.7714166822736956
    lo, hi = extremal_eigenvalues(gram_matrix(constant_shape_even_family(5.0, 128), 128))
    assert hi == pytest.approx(3.7714166822736956, abs=1e-9)
    assert lo == pytest.approx(0.23607714031669888, abs=1e-9)


def test_unperturbed_system_gives_the_identity():
    spec = parse_system({"entries": []})
    m = gram_matrix(spec, 8)
    assert np.max(np.abs(m - np.eye(8))) <= 1e-11


def test_single_perturbed_row_matches_quadrature_coefficients():
    spec = parse_system({"entries": [{"n": 2, "alpha": 5.0}]})
    p = spec.entries[0]
    m = gram_matrix(spec, 5)
    rho = profile_scaling(p)
    for k in (1, 3, 4, 5):
        expected = rho * quadrature_coefficient(p, k)
        assert m[1, k - 1] == pytest.approx(expected, abs=1e-11)
        assert m[k - 1, 1] == m[1, k - 1]
    assert m[0, 2] == pytest.approx(0.0, abs=1e-11)  # untouched rows stay orthonormal


def test_unscaled_diagonal_entry_is_the_squared_norm():
    spec = parse_system({"entries": [{"n": 2, "alpha": 5.0}]})
    m = gram_matrix(spec, 4, rescale=False)
    assert m[1, 1] == pytest.approx(0.8454915028125262, abs=1e-11)
    scaled = gram_matrix(spec, 4)
    assert scaled[1, 1] == pytest.approx(
        profile_scaling(spec.entries[0]) ** 2 * m[1, 1], abs=1e-11
    )


def test_gram_matrix_is_symmetric_and_positive():
    spec = parse_system(
        {"entries": [{"n": 2, "alpha": 6.0}, {"n": 3, "alpha": 10.0}, {"n": 4, "alpha": 18.0}]}
    )
    m = gram_matrix(spec, 12)
    assert np.max(np.abs(m - m.T)) <= 1e-12
    lo, hi = extremal_eigenvalues(m)
    assert lo > -1e-9
    assert hi >= 1.0  # contains the untouched unit directions


def test_extremal_eigenvalues_validation():
    assert extremal_eigenvalues(np.eye(3)) == (1.0, 1.0)
    lo, hi = extremal_eigenvalues(np.diag([0.25, 4.0]))
    assert (lo, hi) == (0.25, 4.0)
    with pytest.raises(ValueError):
        extremal_eigenvalues(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        extremal_eigenvalues(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        extremal_eigenvalues(np.ones((2, 3)))


@pytest.mark.parametrize("junk", ["ab", [["x", 1.0], [1.0, 1.0]], [[1j]]])
def test_extremal_eigenvalues_refuse_entries_that_are_no_numbers(junk):
    with pytest.raises(InputError, match="matrix entries must be real numbers"):
        extremal_eigenvalues(junk)


def test_witness_for_a_certified_sparse_system():
    spec = parse_system({"entries": [{"n": 2, "alpha": 6.4}]})
    cert = certify_system(spec)
    for size in (16, 32):
        w = gram_witness(spec, size, gram_matrix(spec, size))
        assert w.theta == pytest.approx(math.sqrt(cert.total), abs=1e-13)
        assert w.window_low == pytest.approx((1.0 - w.theta) ** 2 - 0.02, abs=1e-13)
        assert w.window_high == pytest.approx((1.0 + w.theta) ** 2 + 0.02, abs=1e-13)
        assert w.within_window
        assert w.size == size
    as_dict = w.as_dict()
    assert set(as_dict) >= {"size", "min_eig", "max_eig", "within_window"}


def test_witness_floor_is_zero_past_theta_one():
    # odd profiles far off their diagonal: the certificate fails with theta
    # near 3, which claims no lower frame bound, so the floor is 0 and the
    # nearly singular truncation does not falsify it
    spec = parse_system({"entries": [{"n": n, "alpha": 9.0 * n * n} for n in range(3, 24, 2)],
                         "split": []})
    assert not certify_system(spec).passed
    w = gram_witness(spec, 24, gram_matrix(spec, 24))
    assert w.theta == pytest.approx(2.997, abs=1e-3)
    assert w.window_low == -fucik.gram.CUSHION
    assert 0.0 < w.min_eig < 1e-3
    assert w.within_window


def test_witness_as_dict_is_an_equal_copy():
    spec = parse_system({"entries": [{"n": 2, "alpha": 6.4}]})
    w = gram_witness(spec, 8, gram_matrix(spec, 8))
    d = w.as_dict()
    assert d == {f: getattr(w, f) for f in w._fields}
    d["theta"] = -1.0
    assert w.theta > 0.0
    assert w.as_dict() == {f: getattr(w, f) for f in w._fields}


def test_constant_shape_family_escapes_the_window():
    # same-shape even systems concentrate: every profile keeps the same
    # nonzero mean, so truncated top eigenvalues grow without a uniform
    # ceiling and eventually leave the certificate window even though the
    # certificate itself passes
    spec = constant_shape_even_family(5.0, 64)
    tops = {}
    for size in (16, 32, 64):
        m = gram_matrix(spec, size)
        lo, hi = extremal_eigenvalues(m)
        w = gram_witness(spec, size, m)
        tops[size] = hi
        assert lo > w.window_low  # the floor side never fails here
    assert tops[16] < tops[32] < tops[64]
    assert tops[64] == pytest.approx(2.6178491368841, abs=1e-9)
    assert not w.within_window  # the 64 x 64 witness
    assert tops[64] > w.window_high


def test_witness_matrix_argument_must_match_size():
    spec = parse_system({"entries": [{"n": 2, "alpha": 6.4}]})
    m = gram_matrix(spec, 8)
    with pytest.raises(ValueError):
        gram_witness(spec, 16, matrix=m)
