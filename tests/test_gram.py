import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from reference import per_row_gram, quadrature_coefficient

import fucik.certify
import fucik.eigenfunction
import fucik.gram
import fucik.quadrature
from fucik.certify import SystemSpec, certify_system, parse_system, profile_scaling
from fucik.cli import main
from fucik.eigenfunction import batch_moments, build, build_batch, evaluate
from fucik.gram import _exact_gram, extremal_eigenvalues, gram_matrix, gram_witness
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
    profiles = [build(p) for p in points]
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


def all_pairs_gram(spec, n_trunc, rescale):
    """Every profile n <= n_trunc through the arc-overlap engine, then the
    scaling factors: the Gram matrix before it was assembled by blocks."""
    batch = build_batch(spec_points(spec, n_trunc))
    g = _exact_gram(batch)
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
    # arithmetic; past j = 4000 the squared coefficients sum below 1e-14
    points = [_curve_point(n, *entries[n]) for n in sorted(entries)]
    if not points:
        return
    _, c = batch_moments(points, np.broadcast_to(np.arange(1, 4001), (len(points), 4000)))
    assert np.max(np.abs(_exact_gram(build_batch(points)) - c @ c.T)) <= 1e-14


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
    for module in (fucik.eigenfunction, fucik.gram):
        monkeypatch.setattr(module, "build_batch", counting_build_batch)
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
        raise AssertionError("the Gram engine must not evaluate or integrate")

    for module in (fucik.eigenfunction, fucik.certify, fucik.gram):
        monkeypatch.setattr(module, "evaluate", refuse, raising=False)
    for module in (fucik.quadrature, fucik.certify, fucik.gram):
        monkeypatch.setattr(module, "integrate", refuse, raising=False)
    spec = REFERENCE_SPECS["mixed"]
    for rescale in (True, False):
        m = gram_matrix(spec, 12, rescale=rescale)
        assert np.all(np.isfinite(m))


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


def test_witness_as_dict_is_an_equal_copy():
    spec = parse_system({"entries": [{"n": 2, "alpha": 6.4}]})
    w = gram_witness(spec, 8, gram_matrix(spec, 8))
    d = w.as_dict()
    assert d == dataclasses.asdict(w)
    d["theta"] = -1.0
    assert w.theta > 0.0
    assert w.as_dict() == dataclasses.asdict(w)


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
