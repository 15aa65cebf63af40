import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from test_boundary import defined_names

import fucik
import fucik.cli
import fucik.eigenfunction
import fucik.gram
from fucik.certify import InputError
from fucik.cli import main, region_rows
from fucik.gram import batch_moments
from fucik.spectrum import FucikPoint, point_from_gamma


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _strict_json(text):
    """Parse text as JSON, refusing NaN and Infinity."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_root_subcommand(capsys):
    code, out, err = run(capsys, ["root"])
    assert code == 0
    assert out == "6.49278936852\n"
    assert err == ""


def test_envelope_subcommand_at_the_symmetric_point(capsys):
    code, out, _ = run(capsys, ["envelope", "--gamma", "4"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "summand_k1 = 0"
    assert lines[4] == "summand_tail = 0"
    assert lines[5] == "tail_method = closed-form"
    assert lines[6] == "value = 0"


def test_envelope_subcommand_twelve_digit_output(capsys):
    code, out, _ = run(capsys, ["envelope", "--gamma", "6.25"])
    assert code == 0
    assert "summand_k2 = 0.213634143665" in out
    assert "value = 0.938556222041" in out


def test_certify_exit_code_tracks_the_verdict(capsys, write_spec):
    good = write_spec({"entries": [{"n": 2, "alpha": 6.4}]})
    code, out, _ = run(capsys, ["certify", "--spec", good])
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["split"] == [2]
    assert payload["per_index"][0]["method"] == "envelope"

    bad = write_spec({"entries": [{"n": 2, "alpha": 6.6}]})
    code, out, _ = run(capsys, ["certify", "--spec", bad])
    assert code == 1
    assert json.loads(out)["passed"] is False


def _readme_spec(tmp_path):
    """Path of a copy of the example system file in the README."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = re.search(r"```json\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    path = tmp_path / "readme.json"
    path.write_text(block.group(1), encoding="utf-8")
    return str(path)


def test_readme_example_certifies(capsys, tmp_path):
    code, out, err = run(capsys, ["certify", "--spec", _readme_spec(tmp_path)])
    assert (code, err) == (0, "")
    assert json.loads(out)["total"] == 0.956830094922


def test_certify_points_whose_quadrature_drifts(capsys, write_spec):
    path = write_spec({"entries": [{"n": 13, "alpha": 173.17302161159537},
                                   {"n": 26, "alpha": 984.02589401446}]})
    for split in ("default", ""):
        code, out, err = run(capsys, ["certify", "--spec", path, "--split", split])
        assert code in (0, 1) and err == ""
        assert json.loads(out)["defect_sum"] > 0.0


def test_certify_flag_overrides(capsys, write_spec):
    path = write_spec({"entries": [{"n": 2, "alpha": 6.6}]})
    code, out, _ = run(capsys, ["certify", "--spec", path, "--split", "auto"])
    assert code == 0
    assert json.loads(out)["split"] == []

    code, out, _ = run(capsys, ["certify", "--spec", path, "--split", "auto", "--mode", "bound"])
    assert code == 0
    assert json.loads(out)["mode"] == "bound"

    code, _, err = run(capsys, ["certify", "--spec", path, "--split", "2;4"])
    assert code == 2
    assert err.startswith("error:")


def test_certify_bad_inputs_exit_two(capsys, write_spec, tmp_path):
    code, _, err = run(capsys, ["certify", "--spec", str(tmp_path / "missing.json")])
    assert code == 2 and err.startswith("error:")

    mangled = tmp_path / "mangled.json"
    mangled.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, ["certify", "--spec", str(mangled)])
    assert code == 2 and err.startswith("error:")

    unknown = write_spec({"entries": [], "sneaky": 1, "color": 2})
    assert run(capsys, ["certify", "--spec", unknown]) == (
        2, "", "error: unknown keys: ['color', 'sneaky']\n")
    extra = write_spec({"entries": [{"n": 2, "z": 0, "alpha": 5.0, "a": 1}]})
    assert run(capsys, ["certify", "--spec", extra]) == (
        2, "", "error: unknown entry keys: ['a', 'z']\n")

    reflected = write_spec({"entries": [{"n": 3, "alpha": 4.0, "beta": 16.0}]})
    code, _, err = run(capsys, ["certify", "--spec", reflected])
    assert code == 2 and "error:" in err


def test_certify_refuses_a_completion_beyond_the_float_range(capsys, write_spec):
    n = 2 * 10**150
    spec = write_spec({"entries": [{"n": n, "alpha": 1.0000000000000006e300}]})
    for mode in ("exact", "bound"):
        assert run(capsys, ["certify", "--spec", spec, "--mode", mode]) == (
            2, "", f"error: entry n={n}: the beta completing this alpha lies beyond the float range\n")


@pytest.mark.parametrize("text", [
    '{"entries": [{"n": 2, "alpha": 5.0}], "split": [2, "a"]}',
    '{"entries": [{"n": 2, "alpha": 5.0}], "split": [null, 2]}',
    "[" * 200_000,
], ids=["split-with-text", "split-with-null", "nested-200000-deep"])
def test_malformed_spec_files_exit_two(capsys, tmp_path, text):
    path = tmp_path / "spec.json"
    path.write_text(text, encoding="utf-8")
    for argv in (["certify"], ["gram", "--n", "4"]):
        code, out, err = run(capsys, argv + ["--spec", str(path)])
        assert code == 2 and out == "" and err.startswith("error:")


# spec files for the fuzz test: the schema keys with well-formed and junk
# values, junk keys, and split lists that mix types
_LEAF = (st.none() | st.booleans() | st.integers(-2, 12) | st.integers() | st.floats()
         | st.sampled_from(["auto", "default", "exact", "bound", "identity", "a"]))
_KEYS = st.sampled_from(["entries", "split", "mode", "tail_rule", "n", "alpha", "beta", "junk"])
_JSON = st.recursive(
    _LEAF,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_KEYS, inner, max_size=3),
    max_leaves=8,
)
_ENTRY = st.fixed_dictionaries(
    {"n": st.integers(1, 12) | _LEAF},
    optional={"alpha": st.floats(1.0, 200.0) | _LEAF, "beta": _LEAF, "junk": _JSON},
)
_SPEC = st.fixed_dictionaries({}, optional={
    "entries": st.lists(_ENTRY, max_size=3) | _JSON,
    "split": st.lists(_LEAF, min_size=2, max_size=4) | _JSON,
    "mode": st.sampled_from(["exact", "bound"]) | _JSON,
    "tail_rule": st.just("identity") | _JSON,
}) | st.dictionaries(_KEYS, _JSON, max_size=4)


_HUGE_EXACT = {"entries": [{"n": 3, "alpha": 1e200}]}
_HUGE_BOUND = {"entries": [{"n": 3, "alpha": 1e308}], "mode": "bound"}


@settings(max_examples=200, deadline=None)
@given(_SPEC)
@example(_HUGE_EXACT)
@example(_HUGE_BOUND)
def test_certify_survives_any_spec_file(tmp_path_factory, spec):
    path = tmp_path_factory.mktemp("fuzz") / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    for argv, codes in (
        (["certify"], (0, 1, 2)),
        (["gram", "--n", "4"], (0, 2)),
        (["gram", "--n", "16"], (0, 2)),
    ):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv + ["--spec", str(path)])
        assert code in codes, argv
        if code != 2:
            _strict_json(out.getvalue())


def test_an_index_beyond_the_float_range_names_its_entry(capsys, write_spec):
    n = 10**400
    code, out, err = run(capsys, ["certify", "--spec", write_spec({"entries": [{"n": n, "alpha": 5.0}]})])
    assert (code, out) == (2, "")
    assert err == f"error: entry n={n}: index n lies beyond the float range\n"


@pytest.mark.parametrize("argv, spec", [
    (["dump", "3", "1e308"], None),
    (["certify"], _HUGE_EXACT),
    (["certify"], _HUGE_BOUND),
], ids=["dump-collapsed-arc", "certify-exact-collapsed-arc", "certify-bound-infinite-total"])
def test_non_finite_numbers_never_reach_stdout(capsys, write_spec, argv, spec):
    if spec is not None:
        argv = argv + ["--spec", write_spec(spec)]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("spec, message", [
    (_HUGE_BOUND, "entry n=3: defect bound is not finite"),
    ({"entries": [{"n": 3, "alpha": 3e307}, {"n": 5, "alpha": 1.79e308}], "mode": "bound"},
     "the sum of the defect bounds is not finite"),
], ids=["one-bound", "sum-of-bounds"])
def test_non_finite_defect_bounds_are_named(capsys, write_spec, spec, message):
    code, out, err = run(capsys, ["certify", "--spec", write_spec(spec)])
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_an_unbuildable_entry_is_named_among_good_ones(capsys, write_spec):
    spec = {"entries": [{"n": 2, "alpha": 5.0}, {"n": 3, "alpha": 1e200},
                        {"n": 5, "alpha": 30.0}, {"n": 8, "alpha": 90.0}]}
    for split in ("default", "auto", "2,8"):
        code, out, err = run(capsys, ["certify", "--spec", write_spec(spec), "--split", split])
        assert (code, out) == (2, "")
        assert err == "error: (1e+200, 1.0) leaves an arc of no width in floats\n"


def test_auto_split_reads_only_what_it_leaves_outside(capsys, write_spec):
    # five candidates near gamma 6 outweigh the envelope term once dropped, so
    # the threshold walk stops before it reaches the entry above the profile
    # cap; a defect is read only when the walk leaves its entry outside, so
    # that entry is never refused and every split absorbs it
    n = 1_000_002
    entries = [{"n": 2 * k, "alpha": (6.001 - 0.001 * k) * k * k} for k in range(1, 7)]
    spec = write_spec({"entries": entries + [{"n": n, "alpha": 4.5 * n * n / 4.0}]})
    outs = []
    for args in (["--split", "auto"], ["--split", "auto", "--mode", "bound"], []):
        code, out, err = run(capsys, ["certify", "--spec", spec, *args])
        assert (code, err) == (0, "")
        outs.append(out)
    exact_auto, bound_auto, default = outs
    assert exact_auto == default
    # one certificate: the modes differ only in the name they print
    assert bound_auto == exact_auto.replace('"mode": "exact"', '"mode": "bound"')
    cert = json.loads(default)
    assert cert["split"] == [2, 4, 6, 8, 10, 12, n]
    assert cert["total"] == 0.757238574404


@pytest.mark.parametrize("n, coordinate, value, count, sign", [
    (4, "alpha", 3.0, 2, "positive"),
    (4, "beta", 3.0, 2, "negative"),
    (5, "alpha", 8.0, 3, "positive"),
    (5, "beta", 3.0, 2, "negative"),
])
def test_completion_error_names_the_given_coordinate(
    capsys, write_spec, n, coordinate, value, count, sign
):
    path = write_spec({"entries": [{"n": n, coordinate: value}]})
    code, out, err = run(capsys, ["certify", "--spec", path])
    assert (code, out) == (2, "")
    assert f"need sqrt({coordinate}) > {count} for index {n}; the {sign} arcs" in err


# numeric flag values: non-finite, tiny, huge, unparsable and just past each
# cap; the accepted sizes stay small so that every example runs in milliseconds
_FLOAT_ARG = st.sampled_from([
    "nan", "inf", "-inf", "0", "-0.0", "5e-324", "1e-300", "-1", "1e308", "1e309",
    "4", "4.000000001", "5", "6.25", "6.4927893685", "6.4927893686", "8.999999999",
    "9", "1e3", "x",
]) | st.floats().map(repr)
_SMALL_INT = st.sampled_from(["-1", "0", "1", "2", "3", "4", "2.5", "1e3", "nan"])


def _past(cap):
    return st.sampled_from([str(cap + 1), str(10 * cap), str(10**30)])


_NUMERIC_ARGV = st.one_of(
    st.builds(lambda g: ["envelope", "--gamma", g], _FLOAT_ARG),
    st.builds(lambda g, k: ["coeffs", "--gamma", g, "--kmax", k],
              _FLOAT_ARG, _SMALL_INT | _past(fucik.cli.MAX_KMAX)),
    st.builds(lambda n: ["gram", "--spec", "{spec}", "--n", n],
              _SMALL_INT | _past(fucik.cli.MAX_GRAM_N)),
    st.builds(
        lambda sup, nmax, res, eps: ["region", "--sup", sup] + nmax + res + eps,
        _FLOAT_ARG,
        st.builds(lambda v: ["--nmax", v], _SMALL_INT | _past(fucik.cli.MAX_REGION_POINTS)),
        st.builds(lambda v: ["--resolution", v],
                  _SMALL_INT | _past(fucik.cli.MAX_RESOLUTION)),
        st.just([]) | st.builds(lambda v: ["--epsilon", v], _FLOAT_ARG),
    ),
    st.builds(lambda n, alpha, beta: ["dump", n, alpha] + beta,
              _SMALL_INT | _past(fucik.eigenfunction.MAX_ARCS),
              _FLOAT_ARG, st.just([]) | st.builds(lambda b: [b], _FLOAT_ARG)),
)


@settings(max_examples=300, deadline=None)
@given(_NUMERIC_ARGV)
def test_numeric_flags_never_crash(tmp_path_factory, argv):
    spec = tmp_path_factory.getbasetemp() / "numeric-flags.json"
    if not spec.exists():
        spec.write_text('{"entries": [{"n": 2, "alpha": 6.4}]}', encoding="utf-8")
    argv = [a.format(spec=spec) for a in argv]
    code = main(argv)
    assert code in (0, 1, 2)


def test_coeffs_table(capsys, tmp_path):
    path = tmp_path / "table.csv"
    code, out, _ = run(
        capsys, ["coeffs", "--gamma", "6.25", "--kmax", "6", "--csv", str(path)]
    )
    assert code == 0
    assert out == ""
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "k,coefficient,reflected_coefficient,arc_sum,abs_error"
    assert len(lines) == 7
    for line in lines[1:]:
        k, direct, reflected, arc_sum, gap = line.split(",")
        assert float(gap) <= 1e-9
        sign = -1.0 if int(k) % 2 else 1.0
        assert float(reflected) == pytest.approx(sign * float(direct), abs=1e-11)
    assert lines[2].split(",")[1] == "0.787448892078"


@pytest.mark.parametrize("gamma", ["3.9", "nan", "9", "20", "inf"])
def test_coeffs_gamma_outside_its_range_exits_two(capsys, gamma):
    code, out, err = run(capsys, ["coeffs", "--gamma", gamma, "--kmax", "6"])
    assert (code, out, err) == (2, "", "error: gamma must lie in [4, 9)\n")


@pytest.mark.parametrize("argv, message", [
    (["gram", "--n", "0"], "n_trunc must be >= 1, got 0"),
    (["gram", "--n", "-1"], "n_trunc must be >= 1, got -1"),
    (["region", "--sup", "5", "--nmax", "1"], "nmax must be >= 2, got 1"),
    (["region", "--sup", "5", "--resolution", "1"], "resolution must be >= 2, got 1"),
    (["certify", "--split", "0"], "split index must be >= 1, got 0"),
])
def test_index_below_its_least_exits_two(capsys, write_spec, argv, message):
    # the library's one index rule names the argument, its least value and the value given
    if argv[0] != "region":
        argv = [*argv, "--spec", write_spec({"entries": [{"n": 2, "alpha": 6.4}]})]
    assert run(capsys, argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("gamma", [4.0, 4.25, 5.0, 6.25, 8.75, 8.999])
def test_coeffs_cross_check_is_the_arc_closed_form(capsys, gamma):
    code, out, err = run(capsys, ["coeffs", "--gamma", repr(gamma), "--kmax", "200"])
    assert (code, err) == (0, "")
    _, (arc_sums,) = batch_moments((point_from_gamma(2, gamma),), [np.arange(1, 201)])
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [int(row[0]) for row in rows] == list(range(1, 201))
    for row, arc_sum in zip(rows, arc_sums.tolist()):
        assert row[3] == format(arc_sum, ".12g")
        assert float(row[4]) <= 1e-15


def test_no_subcommand_evaluates_or_integrates(capsys, monkeypatch, write_spec):
    # one small input per subcommand, as the benchmark's cli-cold rounds run them
    cert = write_spec({"entries": [{"n": 2, "alpha": 6.4}, {"n": 3, "alpha": 10.0},
                                   {"n": 4, "alpha": 17.0}], "mode": "exact"}, "cert.json")
    family = write_spec({"entries": [{"n": n, "alpha": 1.25 * n * n} for n in range(2, 17, 2)]},
                        "family.json")
    argvs = [
        ["certify", "--spec", cert],
        ["envelope", "--gamma", "5.5"],
        ["root"],
        ["coeffs", "--gamma", "6.25", "--kmax", "20"],
        ["gram", "--spec", family, "--n", "16"],
        ["region", "--sup", "5", "--epsilon", "0.5"],
        ["dump", "5", "30.0"],
    ]
    unpatched = [run(capsys, argv)[:2] for argv in argvs]

    def refuse(*args, **kwargs):
        raise AssertionError("a subcommand integrated")

    # every binding of integrate, wherever a module imported it
    for name, module in list(sys.modules.items()):
        if (name == "fucik" or name.startswith("fucik.")) and hasattr(module, "integrate"):
            monkeypatch.setattr(module, "integrate", refuse)
    for argv, want in zip(argvs, unpatched):
        assert run(capsys, argv)[:2] == want, argv[0]
    # the only profile evaluator is the test reference's
    assert not [name for name, module in list(sys.modules.items())
                if (name == "fucik" or name.startswith("fucik.")) and hasattr(module, "evaluate")]


def test_gram_subcommand(capsys, write_spec, tmp_path):
    spec = write_spec({"entries": [{"n": 2, "alpha": 6.4}]})
    matrix_path = tmp_path / "matrix.csv"
    code, out, _ = run(
        capsys, ["gram", "--spec", spec, "--n", "8", "--csv", str(matrix_path)]
    )
    assert code == 0
    witness = json.loads(out)
    assert witness["size"] == 8
    assert witness["within_window"] is True
    rows = matrix_path.read_text(encoding="utf-8").splitlines()
    assert len(rows) == 8
    assert all(len(r.split(",")) == 8 for r in rows)
    assert rows[0].split(",")[0] == "1"
    # the unperturbed sines are orthonormal exactly, not up to rounding noise
    cells = [r.split(",") for r in rows]
    for i in (0, 2, 3, 4, 5, 6, 7):
        for j in (0, 2, 3, 4, 5, 6, 7):
            assert cells[i][j] == ("1" if i == j else "0")

    code, out, _ = run(capsys, ["gram", "--spec", spec, "--n", "4", "--no-rescale"])
    assert code == 0
    assert json.loads(out)["size"] == 4


REGION_ARGV = ["region", "--sup", "5", "--nmax", "4", "--resolution", "6",
               "--epsilon", "0.5"]

# sha256 of the exact bytes each writer produces; "{out}" is the file written
WRITER_PINS = {
    "region-csv": (REGION_ARGV + ["--csv", "{out}"],
                   "752fad459fddd4f8f252946871aa1d28c37c40d94070f439a5952bb7bb337dc2"),
    "region-svg": (REGION_ARGV + ["--svg", "{out}"],
                   "6600433ca13192751ce9b67cb4ad59d86db88e0955afa9046af58ced85279abb"),
    "coeffs": (["coeffs", "--gamma", "6.25", "--kmax", "6"],
               "55dfc5ffe55328656d47609ee464cb1321876037eb8b175717418ac70b043a24"),
    "gram-csv": (["gram", "--spec", "{spec}", "--n", "8", "--csv", "{out}"],
                 "3cc1d68c0b6328eb0a289b6e876fee92a631af750eff0d6600d132877529125b"),
    "gram-json": (["gram", "--spec", "{spec}", "--n", "8"],
                  "a7ff8ed84d3ad19e5711a9571c478c0a51418795f93a2c34e5aaed15633eff85"),
    "certify-readme": (["certify", "--spec", "{readme}"],
                       "163df2618a594735281d8c2832d8da7d9f4484c1cd5e06849dc3a3b54a1187ed"),
    "certify-readme-bound": (["certify", "--spec", "{readme}", "--mode", "bound"],
                             "d1cfa852773549abc791dcbc3c3322d7dae31368f276dffcc7aa0c5bc25840c1"),
    "certify-readme-auto": (["certify", "--spec", "{readme}", "--split", "auto"],
                            "9c6018021222468e97fb4d85aa3765463d9328871523281b31f468caa01be0bb"),
    # at sup = 4 every curve is a single point, drawn as a circle
    "region-diagonal-csv": (["region", "--sup", "4", "--nmax", "4", "--resolution", "5"],
                            "a044971f0c4e0ccb94b55c648f4644fa85c80e32449fdb206cf056677720940b"),
    "region-diagonal-svg": (["region", "--sup", "4", "--nmax", "4", "--resolution", "5",
                             "--svg", "{out}"],
                            "4220f14d1d928ca6aba6fe121874798e439825d33906ff8f7309e53de981f0b6"),
    "region-fine-csv": (["region", "--sup", "5", "--nmax", "10", "--resolution", "2000",
                         "--epsilon", "0.5"],
                        "d4a0308f146aad157b50ce3054191119b93f2be0563925fe19a97e17ee29ac2d"),
    # a long chain, where a rounding drift from arc to arc would show
    "dump-long": (["dump", "999", "998001.3"],
                  "81fd7bd4990496b1455535317aca8ec82be8617fb429186d198835b45ae1f1b9"),
    # narrow but valid arcs, about 7 ulp(pi) wide
    "dump-narrow": (["dump", "2", "1e30"],
                    "99ef2b8a981382fee36cc77723ad22f78fd73663c1b7b52a12c2bf0fd5f0e83d"),
}


@pytest.mark.parametrize("name", sorted(WRITER_PINS))
def test_writer_bytes_are_pinned(capsys, write_spec, tmp_path, name):
    argv, digest = WRITER_PINS[name]
    out = tmp_path / "out"
    spec = write_spec({"entries": [{"n": 2, "alpha": 6.4}]})
    readme = _readme_spec(tmp_path)
    code, stdout, err = run(capsys, [a.format(out=out, spec=spec, readme=readme) for a in argv])
    assert (code, err) == (0, "")
    data = out.read_bytes() if "{out}" in argv else stdout.encode("utf-8")
    assert hashlib.sha256(data).hexdigest() == digest


# pinned runs spelled with unique prefixes, "=" and the flags in another order
SHORT_FORMS = {
    "certify-readme-bound": ["certify", "--m=bound", "--spe", "{readme}"],
    "certify-readme-auto": ["certify", "--spl", "auto", "--spec={readme}"],
    "coeffs": ["coeffs", "--k=6", "--g", "6.25"],
    "region-csv": ["region", "--cs={out}", "--eps", "0.5", "--res=6", "--nm", "4", "--su", "5"],
    "region-svg": ["region", "--e=0.5", "--sv", "{out}", "--r", "6", "--n=4", "--sup=5"],
    "region-diagonal-csv": ["region", "--res=5", "--nm", "4", "--su=4"],
    "dump-long": ["dump", "--", "999", "998001.3"],
}


@pytest.mark.parametrize("name", sorted(SHORT_FORMS))
def test_short_spellings_give_the_pinned_bytes(capsys, write_spec, tmp_path, name):
    argv, digest = SHORT_FORMS[name], WRITER_PINS[name][1]
    out = tmp_path / "out"
    readme = _readme_spec(tmp_path)
    code, stdout, err = run(capsys, [a.format(out=out, readme=readme) for a in argv])
    assert (code, err) == (0, "")
    data = out.read_bytes() if any("{out}" in a for a in argv) else stdout.encode("utf-8")
    assert hashlib.sha256(data).hexdigest() == digest


# the README grammar: each subcommand's flags and positionals
GRAMMAR = {
    "certify": ["--spec", "--mode", "--split"],
    "envelope": ["--gamma"],
    "root": [],
    "coeffs": ["--gamma", "--kmax", "--csv"],
    "gram": ["--spec", "--n", "--no-rescale", "--csv"],
    "region": ["--sup", "--nmax", "--resolution", "--epsilon", "--csv", "--svg"],
    "dump": ["n", "alpha", "beta"],
}


def test_the_table_holds_the_readme_grammar():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = re.search(r"## Command line\n\n```\n(.*?)```", readme, re.S).group(1).splitlines()
    assert [line.split()[1] for line in lines] == list(GRAMMAR)
    for line in lines:
        flags = [name for name in GRAMMAR[line.split()[1]] if name.startswith("--")]
        assert re.findall(r"--[\w-]+", line) == flags, line
    table = {name: [arg[0] for arg in row[2]] for name, row in fucik.cli._COMMANDS.items()}
    assert table == GRAMMAR


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["--he"]]
                         + [[name, flag] for name in GRAMMAR for flag in ("--help", "-h")])
def test_help_goes_to_stdout_and_names_every_argument(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: fucik ")
    names = GRAMMAR[argv[0]] if argv[0] in GRAMMAR else list(GRAMMAR)
    for name in names:
        assert re.search(rf"(?<![\w-]){name}(?![\w-])", out), name


@pytest.mark.parametrize("argv, token", [
    (["frobnicate"], "'frobnicate'"),
    ([], "a subcommand is required"),
    (["root", "--verbose"], "--verbose"),
    (["envelope", "-x", "5"], "-x"),
    (["certify", "--s", "x.json"], "ambiguous option --s"),
    (["coeffs", "--kmax", "6", "--gamma"], "--gamma"),
    (["region", "--sup", "--nmax", "4"], "--sup"),
    (["coeffs", "--kmax", "6"], "--gamma"),
    (["dump"], "n is required"),
    (["coeffs", "--gamma", "6.25", "--kmax", "six"], "'six'"),
    (["coeffs", "--gamma", "6.25", "--kmax", "2.5"], "'2.5'"),
    (["envelope", "--gamma=five"], "'five'"),
    (["dump", "3.5", "16"], "'3.5'"),
    (["dump", "3", "16", "4", "5"], "'5'"),
    (["root", "extra"], "'extra'"),
    (["gram", "--no-rescale=yes", "--n", "4", "--spec", "x.json"], "--no-rescale"),
], ids=["unknown-subcommand", "no-subcommand", "unknown-flag", "unknown-short-flag",
        "ambiguous-prefix", "missing-value", "flag-for-value", "missing-required",
        "missing-positional", "non-numeric-int", "fractional-int", "non-numeric-float",
        "fractional-positional", "extra-positional", "argument-for-none", "value-for-switch"])
def test_argument_errors_exit_two_and_name_the_token(capsys, argv, token):
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert token in err, err


@pytest.mark.parametrize("argv, message", [
    (["dump", "3", "-10"], "alpha must be finite and positive"),
    (["dump", "-3", "16"], "index n must be >= 1, got -3"),
    (["region", "--sup", "5", "--epsilon", "-1"], "epsilon must be positive"),
    (["region", "--sup", "5", "--epsilon=-1e-3"], "epsilon must be positive"),
    (["gram", "--spec", "{spec}", "--n", "-4"], "n_trunc must be >= 1, got -4"),
    (["certify", "--spec", "{spec}", "--mode", "fast"], "mode must be one of ('exact', 'bound')"),
])
def test_negative_numbers_and_modes_reach_the_library(capsys, write_spec, argv, message):
    spec = write_spec({"entries": [{"n": 2, "alpha": 6.4}]})
    code, out, err = run(capsys, [a.format(spec=spec) for a in argv])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_region_output_is_deterministic_and_on_curve(capsys):
    argv = ["region", "--sup", "5.0", "--nmax", "4", "--resolution", "6",
            "--epsilon", "0.5"]
    code, first, _ = run(capsys, argv)
    assert code == 0
    code, second, _ = run(capsys, argv)
    assert first == second

    lines = first.splitlines()
    assert lines[0] == "curve_id,alpha,beta"
    seen = set()
    for line in lines[1:]:
        cid, a, b = line.split(",")
        seen.add(cid)
        if cid.startswith("even") or cid.startswith("odd"):
            FucikPoint(int(cid.split("-")[1]), float(a), float(b))  # checks membership
    assert {"even-2-alpha", "even-2-beta", "even-4-alpha", "odd-3-alpha",
            "odd-3-beta", "sector-alpha", "sector-beta"} <= seen

    # the sector boundary has slope 1/(sqrt(sup)-1)^2
    top = next(line for line in lines if line.startswith("sector-alpha,") and
               not line.endswith(",0"))
    _, a, b = top.split(",")
    assert float(b) / float(a) == pytest.approx(1.0 / (math.sqrt(5.0) - 1.0) ** 2,
                                                rel=1e-11)


def test_region_with_fast_odd_decay(capsys):
    # the odd budget used to cancel to zero here and divide by it
    code, out, err = run(capsys, ["region", "--sup", "5", "--epsilon", "40"])
    assert (code, err) == (0, "")
    assert "odd-3-alpha" in out


def test_region_degenerates_at_the_diagonal(capsys):
    code, out, _ = run(capsys, ["region", "--sup", "4.0", "--nmax", "4",
                                "--resolution", "5"])
    assert code == 0
    lines = out.splitlines()
    assert lines.count("even-2-alpha,4,4") == 1
    assert not any(line.startswith("even-2-beta") for line in lines)
    assert "sector-alpha,16,16" in lines  # slope exactly 1 at the diagonal


def test_region_rejects_sup_beyond_the_root(capsys):
    code, _, err = run(capsys, ["region", "--sup", "7.0"])
    assert code == 2
    assert err.startswith("error:")
    with pytest.raises(Exception):
        region_rows(3.0)


def test_region_svg(capsys, tmp_path):
    flat = tmp_path / "flat.svg"
    code, _, _ = run(capsys, ["region", "--sup", "4.0", "--nmax", "4",
                              "--resolution", "5", "--csv",
                              str(tmp_path / "rows.csv"), "--svg", str(flat)])
    assert code == 0
    text = flat.read_text(encoding="utf-8")
    assert text.startswith("<svg")
    assert "circle" in text  # degenerate arcs render as dots

    curved = tmp_path / "curved.svg"
    code, _, _ = run(capsys, ["region", "--sup", "5.0", "--nmax", "4",
                              "--resolution", "5", "--csv",
                              str(tmp_path / "rows2.csv"), "--svg", str(curved)])
    assert code == 0
    assert "polyline" in curved.read_text(encoding="utf-8")


def test_dump_completes_the_missing_coordinate(capsys):
    code, out, _ = run(capsys, ["dump", "3", "16.0"])
    assert code == 0
    record = json.loads(out)
    assert record["beta"] == 4.0
    assert record["alpha"] == 16.0
    assert len(record["bumps"]) == 3

    code, _, err = run(capsys, ["dump", "2", "5.0", "5.0"])
    assert code == 2
    assert err.startswith("error:")


def _dump_text(n, alpha, beta, arcs):
    """The exact stdout of `fucik dump`: two-space JSON with sorted keys."""
    bumps = "".join(
        "    {\n"
        f'      "amplitude": {amp},\n'
        f'      "end": {end},\n'
        f'      "frequency": {freq},\n'
        f'      "sign": {sign},\n'
        f'      "start": {start}\n'
        "    },\n"
        for sign, start, end, freq, amp in arcs
    )
    return (
        "{\n"
        f'  "alpha": {alpha},\n'
        f'  "beta": {beta},\n'
        f'  "bumps": [\n{bumps[:-2]}\n  ],\n'
        f'  "n": {n},\n'
        '  "sup_norm": 0.797884560803\n'
        "}\n"
    )


DUMP_PINS = {
    ("1", "1"): _dump_text(1, 1.0, 1.0, [(1, 0.0, 3.14159265359, 1.0, 0.797884560803)]),
    ("2", "6.25"): _dump_text(2, 6.25, 2.77777777778, [
        (1, 0.0, 1.25663706144, 2.5, 0.531923040535),
        (-1, 1.25663706144, 3.14159265359, 1.66666666667, 0.797884560803),
    ]),
    ("7", "50"): _dump_text(7, 50.0, 47.7126679262, [
        (1, 0.0, 0.444288293816, 7.07106781187, 0.779420654002),
        (-1, 0.444288293816, 0.899101453258, 6.90743569831, 0.797884560803),
        (1, 0.899101453258, 1.34338974707, 7.07106781187, 0.779420654002),
        (-1, 1.34338974707, 1.79820290652, 6.90743569831, 0.797884560803),
        (1, 1.79820290652, 2.24249120033, 7.07106781187, 0.779420654002),
        (-1, 2.24249120033, 2.69730435977, 6.90743569831, 0.797884560803),
        (1, 2.69730435977, 3.14159265359, 7.07106781187, 0.779420654002),
    ]),
}


@pytest.mark.parametrize("argv", sorted(DUMP_PINS))
def test_dump_stdout_is_pinned(capsys, argv):
    code, out, err = run(capsys, ["dump", *argv])
    assert (code, err) == (0, "")
    assert out == DUMP_PINS[argv]


@given(st.floats(allow_nan=False, allow_infinity=False)
       | st.integers(-10**16, 10**16).map(float)
       | st.floats(1e-30, 1e30))
@example(0.0)
@example(-0.0)
@example(1e12 - 1.0)
@example(123456789012345.0)
@example(1e-5)
def test_dump_numbers_format_once_as_rounded_reprs(x):
    # the text of the 12-digit rounding, or the repr of its float where the two differ
    assert fucik.cli._num(x) == repr(float(format(x, ".12g")))


def test_output_size_caps_exit_two(capsys, monkeypatch, write_spec):
    spec = write_spec({"entries": [{"n": 2, "alpha": 6.4}]})
    for name, cap, argv in (
        ("MAX_GRAM_N", 4, ["gram", "--spec", spec, "--n"]),
        ("MAX_KMAX", 3, ["coeffs", "--gamma", "5", "--kmax"]),
        ("MAX_RESOLUTION", 5, ["region", "--sup", "5", "--nmax", "4", "--resolution"]),
    ):
        monkeypatch.setattr(fucik.cli, name, cap)
        code, _, err = run(capsys, argv + [str(cap)])
        assert (code, err) == (0, "")
        code, out, err = run(capsys, argv + [str(cap + 1)])
        assert code == 2 and out == "" and err.startswith("error:")


def test_unwritable_output_file_leaves_stdout_empty(capsys, write_spec, tmp_path):
    spec = write_spec({"entries": [{"n": 2, "alpha": 6.4}]})
    missing = str(tmp_path / "no-such-dir" / "out")
    for argv in (["gram", "--spec", spec, "--n", "4", "--csv", missing],
                 ["region", "--sup", "5", "--svg", missing]):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "" and err.startswith("error:")


def test_region_point_cap_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(fucik.cli, "MAX_REGION_POINTS", 20)
    argv = ["region", "--sup", "5", "--epsilon", "0.5", "--resolution", "5", "--nmax"]
    code, _, err = run(capsys, argv + ["4"])
    assert (code, err) == (0, "")
    code, out, err = run(capsys, argv + ["5"])
    assert code == 2 and out == "" and "nmax * resolution" in err
    with pytest.raises(InputError):
        region_rows(5.0, nmax=10**12, resolution=2)


def test_profile_cap_stops_every_route_that_builds(capsys, monkeypatch, write_spec):
    monkeypatch.setattr(fucik.eigenfunction, "MAX_ARCS", 6)
    code, out, err = run(capsys, ["dump", "6", "40"])
    assert code == 0 and len(json.loads(out)["bumps"]) == 6
    code, out, err = run(capsys, ["dump", "7", "50"])
    assert code == 2 and out == "" and "exceeds the cap of 6 arcs" in err

    spec = write_spec({"entries": [{"n": 7, "alpha": 50.0}]})
    code, _, err = run(capsys, ["certify", "--spec", spec])
    assert code == 2 and err.startswith("error:")
    code, _, err = run(capsys, ["gram", "--spec", spec, "--n", "4"])
    assert code == 2 and err.startswith("error:")
    # bound mode builds no profile, so the cap does not reach it
    code, out, err = run(capsys, ["certify", "--spec", spec, "--mode", "bound"])
    assert code in (0, 1) and err == "" and json.loads(out)["mode"] == "bound"


def test_bound_mode_takes_an_index_past_the_square_of_the_float_range(capsys, write_spec):
    # n^4 is past the float range, n itself is not: the odd constant is
    # taken in 1 / n, and the bound is 8 (0.2)^2 to rounding
    n = 10**150 + 1
    spec = write_spec({"entries": [{"n": n, "alpha": (1.2 * n) ** 2}], "mode": "bound"})
    code, out, err = run(capsys, ["certify", "--spec", spec, "--mode", "bound"])
    assert (code, err) == (0, "")
    assert json.loads(out)["total"] == pytest.approx(0.32, rel=1e-12)


def test_exact_defect_is_clamped_at_zero(capsys, write_spec):
    # 1 - <f, mode>^2 / |f|^2 rounds to -4.4e-16 on this nearly symmetric point
    spec = write_spec({"entries": [{"n": 999999, "alpha": 999998000003.0}]})
    code, out, err = run(capsys, ["certify", "--spec", spec])
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["defect_sum"] == 0.0 and payload["per_index"][0]["value"] == 0.0
    code, out, err = run(capsys, ["gram", "--spec", spec, "--n", "16"])
    assert (code, err) == (0, "")
    assert json.loads(out)["theta"] == 0.0


ARRAY_LAYERS = ("numpy", "fucik.gram")
# the float layers that load on first use, and the subcommands that run them
FLOAT_LAYERS = ("fucik.certify", "fucik.eigenfunction")
RUNS_FLOAT_LAYERS = {
    "certify": set(FLOAT_LAYERS),
    "coeffs": {"fucik.eigenfunction"},
    "dump": {"fucik.eigenfunction"},
}
# what a dataclass would load at start-up; numpy loads inspect on its own
INTROSPECTION = ("dataclasses", "inspect")
# what an argparse parser would load at start-up
PARSING = ("argparse", "gettext")


def _run_fresh(code):
    """The stdout of code run in a fresh interpreter, which must exit 0."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
    )
    assert run.returncode == 0, run.stderr
    return run.stdout


def _loaded_after(code, watched=ARRAY_LAYERS):
    """Which of the watched modules (numpy and the Gram layer unless given)
    are imported once code has run in a fresh interpreter."""
    report = f"\nimport sys\nprint(*(m for m in {watched!r} if m in sys.modules))"
    return set(_run_fresh(code + report).splitlines()[-1].split())


def test_scalar_subcommands_start_without_numpy(tmp_path, write_spec):
    svg = str(tmp_path / "region.svg")
    # the envelope absorbs every entry, so no defect is left to take
    absorbed = write_spec({"entries": [{"n": 2, "alpha": 6.4}, {"n": 4, "alpha": 25.0}]})
    # both entries are off their diagonal, so exact mode takes their defects
    odd = write_spec({"entries": [{"n": 3, "alpha": 10.0}, {"n": 7, "alpha": 50.5}]}, "odd.json")
    # every subcommand but gram loads neither numpy nor the Gram layer, only
    # certify loads the certification engine, only certify, coeffs and dump
    # the profile layer, and none of these loads dataclasses, inspect,
    # argparse or gettext
    watched = ARRAY_LAYERS + FLOAT_LAYERS + INTROSPECTION + PARSING
    for argv in (
        ["envelope", "--gamma", "5"],
        ["root"],
        ["region", "--sup", "5", "--epsilon", "0.5"],
        ["region", "--sup", "5", "--epsilon", "0.5", "--svg", svg],
        ["certify", "--spec", _readme_spec(tmp_path), "--mode", "bound"],
        ["certify", "--spec", absorbed, "--mode", "bound"],
        ["certify", "--spec", absorbed, "--mode", "exact"],
        # its odd entries are off their diagonal, so their defects are taken
        ["certify", "--spec", _readme_spec(tmp_path), "--mode", "exact"],
        ["certify", "--spec", odd, "--mode", "exact"],
        ["coeffs", "--gamma", "6.25", "--kmax", "200"],
        ["dump", "7", "52.0"],
        ["dump", "1", "1"],
        ["dump", "6", "36.0", "36.0"],
        # narrow but valid arcs, which the arc gate checks on floats
        ["dump", "2", "1e30"],
        ["certify", "--spec", write_spec({"entries": [{"n": 3, "alpha": 1e30}]}, "narrow.json"),
         "--mode", "exact"],
        ["--help"],
        ["region", "--help"],
    ):
        assert _loaded_after(_as_main(argv), watched) == RUNS_FLOAT_LAYERS.get(argv[0], set()), argv
    # gram loads every layer, but no argument parser either
    code = _as_main(["gram", "--spec", absorbed, "--n", "16"])
    assert _loaded_after(code, ARRAY_LAYERS + FLOAT_LAYERS + PARSING) == {*ARRAY_LAYERS, *FLOAT_LAYERS}


def _as_main(argv):
    """Code that runs argv as `python -m fucik` does and checks it exits 0 or 1."""
    return (
        f"import runpy, sys\nsys.argv = ['fucik', *{argv!r}]\n"
        "try:\n    runpy.run_module('fucik', run_name='__main__')\n"
        "except SystemExit as exit:\n    assert exit.code in (0, 1), exit.code\n"
    )


def test_dump_of_a_long_chain_stays_small():
    # the arcs are written one at a time from the curve point, so the peak
    # is about what the interpreter takes.  VmHWM is the peak of the child's
    # own memory; ru_maxrss would also count that of the test process
    script = (
        "import json, os, sys\n"
        "import fucik.cli\n"
        "with open(os.devnull, 'w') as sink:\n"
        "    sys.stdout = sink\n"
        "    code = fucik.cli.main(['dump', '200001', '40000400001.5'])\n"
        "    sys.stdout = sys.__stdout__\n"
        "with open('/proc/self/status') as fh:\n"
        "    peak = next(int(l.split()[1]) for l in fh if l.startswith('VmHWM:')) / 1024\n"
        "print(json.dumps([peak, code, 'numpy' in sys.modules]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=env
    )
    assert run.returncode == 0, run.stderr
    peak_mb, code, numpy_loaded = json.loads(run.stdout)
    assert code == 0 and not numpy_loaded
    assert peak_mb < 30.0, peak_mb


def test_array_layers_load_on_first_use(tmp_path):
    point = "from fucik.spectrum import point_from_gamma\np = point_from_gamma(4, 6.0)\n"
    assert _loaded_after("import fucik\n" + point + "fucik.moments(p, (4, 1))") == set()
    assert _loaded_after("import fucik\nfucik.gram_matrix") == set(ARRAY_LAYERS)
    argv = ["gram", "--spec", _readme_spec(tmp_path), "--n", "16"]
    code = f"import fucik.cli\nassert fucik.cli.main({argv!r}) == 0"
    assert _loaded_after(code) == set(ARRAY_LAYERS)


def test_every_export_resolves():
    names = set(dir(fucik))
    for name in fucik.__all__:
        assert getattr(fucik, name) is not None
        assert name in names
    assert fucik.gram_matrix is fucik.gram.gram_matrix
    assert fucik.arcs is fucik.eigenfunction.arcs
    # the function, not the submodule of the same name
    assert callable(fucik.envelope)
    with pytest.raises(AttributeError, match="no_such_name"):
        fucik.no_such_name


def test_every_export_is_its_layers_object_whichever_module_loads_first():
    # loading a layer binds its submodule as a package attribute, which
    # would hide a name of the same spelling: fucik.envelope is both a
    # submodule and a function.  The lazy layers are checked first, so that
    # each has loaded before the eager names are read
    layers = ("certify", "eigenfunction", "gram", "spectrum", "fourier", "envelope")
    owners = [(name, layer) for layer in layers for name in sorted(defined_names(layer) & set(fucik.__all__))]
    assert sorted(name for name, _ in owners) == sorted(set(fucik.__all__) - {"__version__"})
    check = (
        "import importlib, types\nimport fucik\n"
        f"for name, layer in {owners!r}:\n"
        "    module = importlib.import_module('fucik.' + layer)\n"
        "    assert getattr(fucik, name) is getattr(module, name), (name, layer)\n"
        "assert not isinstance(fucik.envelope, types.ModuleType)\n"
    )
    for first in ("fucik.certify", "fucik.eigenfunction", "fucik.gram", "fucik.envelope", "fucik.cli"):
        _run_fresh(f"import {first}\n" + check)
