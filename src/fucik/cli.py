"""Command line front end.

Subcommands: certify, envelope, root, coeffs, gram, region, dump, each
read from one table, _COMMANDS, with its flags and positionals.  Exit
codes: 0 success (for certify: certified), 1 not certified, 2 bad input,
an argument error included.
All numbers are printed to 12 significant digits and identical inputs give
byte-identical output.  The module imports the layers every subcommand runs
and reaches the rest as attributes of the package, which loads a layer on
first use of one of its names, so each subcommand loads only what it runs.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from array import array

import fucik

from .envelope import deviation_budget, deviation_cap, envelope, envelope_root
from .fourier import coefficient
from .spectrum import (
    FucikPoint,
    InputError,
    _index,
    _real,
    point_from_gamma,
    solve_beta,
    solve_alpha,
)

# Caps on the inputs that set the output size, so that an oversized request
# exits 2 instead of running out of memory or time.  Profiles are capped by
# fucik.eigenfunction.MAX_ARCS.
MAX_GRAM_N = 1024
MAX_KMAX = 200
MAX_RESOLUTION = 100_000
MAX_REGION_POINTS = 1_000_000  # nmax * resolution

def _fmt(value: float) -> str:
    return format(float(value), ".12g")


def _round12(obj):
    """Round every float in a JSON-ready structure to 12 significant digits."""
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {key: _round12(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(val) for val in obj]
    return obj


def _print_json(data: dict) -> None:
    # encoded in full first, so that a non-finite number leaves stdout empty
    text = json.dumps(_round12(data), sort_keys=True, indent=2, allow_nan=False)
    sys.stdout.write(text + "\n")


def _write_lines(lines, path: str | None) -> None:
    """Stream each line and its newline to stdout, or to the file at path."""
    text = (line + "\n" for line in lines)
    if path is None:
        sys.stdout.writelines(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(text)


def _load_system(path: str, mode: str | None, split: str | None):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise InputError("system file is nested too deeply") from None
    if not isinstance(data, dict):
        raise InputError("system file must hold a JSON object")
    if mode is not None:
        data["mode"] = mode
    if split is not None:
        if split in (fucik.SPLIT_AUTO, fucik.SPLIT_DEFAULT):
            data["split"] = split
        else:
            try:
                data["split"] = [int(tok) for tok in split.split(",") if tok]
            except ValueError:
                raise InputError(
                    'split must be "auto", "default", or comma-separated integers'
                ) from None
    return fucik.parse_system(data)


def _cmd_certify(spec: str, mode: str | None, split: str | None) -> int:
    cert = fucik.certify_system(_load_system(spec, mode, split))
    _print_json(cert.as_dict())
    return 0 if cert.passed else 1


def _cmd_envelope(gamma: float) -> int:
    ev = envelope(gamma)
    for k, term in enumerate(ev.summands[:4], start=1):
        print(f"summand_k{k} = {_fmt(term)}")
    print(f"summand_tail = {_fmt(ev.summands[4])}")
    print("tail_method = closed-form")
    print(f"value = {_fmt(ev.value)}")
    return 0


def _cmd_root() -> int:
    print(_fmt(envelope_root()))
    return 0


def _cmd_coeffs(gamma: float, kmax: int, csv: str | None) -> int:
    if not 1 <= kmax <= MAX_KMAX:
        raise InputError(f"kmax must lie in [1, {MAX_KMAX}]")
    ks = range(1, kmax + 1)
    # first, so that a gamma outside [4, 9) gets coefficient's refusal
    column = [coefficient(gamma, k) for k in ks]
    # moments sums the profile's arcs in closed form and shares no code
    # with coefficient's two-arc formula, so each row checks one against
    # the other
    _, arc_sums = fucik.moments(point_from_gamma(2, gamma), ks)
    lines = ["k,coefficient,reflected_coefficient,arc_sum,abs_error"]
    for k, direct, arc_sum in zip(ks, column, arc_sums):
        reflected = -direct if k % 2 else direct  # the mirrored profile
        lines.append(
            f"{k},{_fmt(direct)},{_fmt(reflected)},{_fmt(arc_sum)},{_fmt(abs(direct - arc_sum))}"
        )
    _write_lines(lines, csv)
    return 0


def _cmd_gram(spec: str, n: int, no_rescale: bool, csv: str | None) -> int:
    if n > MAX_GRAM_N:
        raise InputError(f"n must be at most {MAX_GRAM_N}")
    system = _load_system(spec, None, None)
    matrix = fucik.gram_matrix(system, n, rescale=not no_rescale)
    witness = fucik.gram_witness(system, n, matrix)
    # the file first, so that a path that cannot be opened leaves stdout empty
    if csv is not None:
        _write_lines((",".join(map(_fmt, row)) for row in matrix), csv)
    _print_json(witness.as_dict())
    return 0


def _even_arc(n: int, sup: float, resolution: int):
    if sup <= 4.0:
        square = array("d", [float(n * n)])
        return square, square
    # alpha = gamma n^2 / 4 at resolution values of gamma from 4 to sup
    alphas = array(
        "d",
        ((4.0 + (sup - 4.0) * i / (resolution - 1)) * n * n / 4.0 for i in range(resolution)),
    )
    return alphas, array("d", (solve_beta(n, a) for a in alphas))


def _odd_arcs(n: int, epsilon: float, budget: float, resolution: int):
    cap = deviation_cap(n, epsilon, budget)
    floor = float(n * n)
    if cap <= floor * (1.0 + 1e-14):
        square = array("d", [floor])
        return (square, square), None
    major = array(
        "d", (floor + (cap - floor) * i / (resolution - 1) for i in range(resolution))
    )
    alpha_side = (major, array("d", (solve_beta(n, a) for a in major)))
    beta_side = (array("d", (solve_alpha(n, b) for b in major)), major)
    return alpha_side, beta_side


def region_rows(
    sup: float,
    nmax: int = 9,
    resolution: int = 100,
    epsilon: float | None = None,
) -> list[tuple[str, array, array]]:
    """Polylines of the admissible region as (curve_id, alphas, betas).

    Each polyline is a pair of `array('d')` coordinate arrays of equal
    length.  The two sector lines come first.  Even curves carry the arc
    with dilation parameter up to sup; with an epsilon the odd curves up to
    nmax carry their admissible segments around the symmetric points under
    the total deviation budget.  At sup = 4 the sector collapses to the
    diagonal and arcs degenerate to single points.
    """
    sup = _real(sup, "sup")
    root = envelope_root()
    if not 4.0 <= sup <= root:
        raise InputError(
            f"sup must lie in [4, {root:.6f}], the certifiable range"
        )
    _index(nmax, "nmax", 2)
    if _index(resolution, "resolution", 2) > MAX_RESOLUTION:
        raise InputError(f"resolution must be an integer in [2, {MAX_RESOLUTION}]")
    if nmax * resolution > MAX_REGION_POINTS:
        raise InputError(f"nmax * resolution must be at most {MAX_REGION_POINTS}")

    curves: list[tuple[str, array, array]] = []
    for n in range(2, nmax + 1, 2):
        alphas, betas = _even_arc(n, sup, resolution)
        curves.append((f"even-{n}-alpha", alphas, betas))
        if len(alphas) > 1:
            curves.append((f"even-{n}-beta", betas, alphas))
    if epsilon is not None:
        epsilon = _real(epsilon, "epsilon")
        if not epsilon > 0.0 or not math.isfinite(epsilon):
            raise InputError("epsilon must be positive")
        # at sup equal to the envelope root the budget vanishes exactly
        budget = 0.0 if sup >= root else deviation_budget(epsilon, sup)
        for n in range(3, nmax + 1, 2):
            alpha_side, beta_side = _odd_arcs(n, epsilon, budget, resolution)
            curves.append((f"odd-{n}-alpha", *alpha_side))
            if beta_side is not None:
                curves.append((f"odd-{n}-beta", *beta_side))

    extent = _extent(curves)
    slope = 1.0 / (math.sqrt(sup) - 1.0) ** 2
    return [
        ("sector-alpha", array("d", [0.0, extent]), array("d", [0.0, slope * extent])),
        ("sector-beta", array("d", [0.0, slope * extent]), array("d", [0.0, extent])),
        *curves,
    ]


def _extent(curves: list) -> float:
    """The largest coordinate of any point."""
    return max(max(xs) for _, *both in curves for xs in both)


def _svg_lines(curves):
    extent = max(_extent(curves), 1.0)
    size, margin = 640, 48
    scale = (size - 2 * margin) / extent

    def x(a: float) -> float:
        return margin + a * scale

    def y(b: float) -> float:
        return size - margin - b * scale

    yield from (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<line x1="{margin}" y1="{size - margin}" x2="{size - margin}" '
        f'y2="{size - margin}" stroke="#444444"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{size - margin}" stroke="#444444"/>',
    )
    for cid, alphas, betas in curves:
        if cid.startswith("sector"):
            color = "#999999"
        elif cid.startswith("even"):
            color = "#000000"
        else:
            color = "#bb2200"
        if len(alphas) == 1:
            a, b = alphas[0], betas[0]
            yield f'<circle cx="{x(a):.2f}" cy="{y(b):.2f}" r="3" fill="{color}"/>'
        else:
            coords = " ".join(f"{x(a):.2f},{y(b):.2f}" for a, b in zip(alphas, betas))
            yield (
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                'stroke-width="1.5"/>'
            )
    yield "</svg>"


def _cmd_region(
    sup: float, nmax: int, resolution: int, epsilon: float | None, csv: str | None, svg: str | None
) -> int:
    curves = region_rows(sup, nmax=nmax, resolution=resolution, epsilon=epsilon)
    # the figure first, so that a path that cannot be opened leaves stdout empty
    if svg is not None:
        _write_lines(_svg_lines(curves), svg)
    rows = (
        f"{cid},{_fmt(a)},{_fmt(b)}"
        for cid, alphas, betas in curves
        for a, b in zip(alphas, betas)
    )
    _write_lines(itertools.chain(["curve_id,alpha,beta"], rows), csv)
    return 0


def _num(value: float) -> str:
    """value as the JSON writer prints it after rounding to 12 digits.

    A rounded text with a point and no exponent already reads as repr of
    its float; only integral values and exponents take the float's repr.
    """
    text = _fmt(value)
    if "." in text and "e" not in text:
        return text
    return repr(float(text))


def _dump_lines(p: FucikPoint):
    """p's profile as two-space JSON with sorted keys, one arc per item.

    Arc j is listed with sign +1 for even j and -1 for odd j, and with the
    unsigned amplitude, each sign's formatted once.  The arcs come from the
    curve point one at a time, and each is formatted only as it is written.
    """
    rows = fucik.arcs(p)  # first, so that a refusal leaves stdout empty
    amps = {}  # signed amplitude -> its unsigned text
    last = p.n - 1
    yield f'{{\n  "alpha": {_num(p.alpha)},\n  "beta": {_num(p.beta)},\n  "bumps": ['
    start = _num(0.0)  # every profile starts at 0
    for j, (_, end, amp, freq) in enumerate(rows):
        if amp not in amps:
            amps[amp] = _num(abs(amp))
        end = _num(end)
        yield (
            f'    {{\n      "amplitude": {amps[amp]},\n      "end": {end},\n'
            f'      "frequency": {_num(freq)},\n      "sign": {1 - 2 * (j % 2)},\n'
            f'      "start": {start}\n    }}' + ("," if j < last else "")
        )
        start = end
    yield f'  ],\n  "n": {p.n},\n  "sup_norm": {_num(max(map(abs, amps)))}\n}}'


def _cmd_dump(n: int, alpha: float, beta: float | None) -> int:
    _write_lines(_dump_lines(FucikPoint(n, alpha, beta)), None)
    return 0


def _cmd_help(text: str) -> int:
    sys.stdout.write(text)
    return 0


_REQUIRED = object()

# Each subcommand's handler, one-line help and arguments, as
# (name, kind, default, help).  A name starting with "--" is a flag, any
# other a positional, taken in order.  kind converts the text (int, float
# or str), or is bool for a switch that gives True.  An argument whose
# default is _REQUIRED must be given.  The handler takes each value under
# its name without dashes, "-" read as "_".
_COMMANDS = {
    "certify": (_cmd_certify, "run the sufficient criterion on a system file", (
        ("--spec", str, _REQUIRED, "path of the system JSON file"),
        ("--mode", str, None, "override the file: exact (closed-form defects) or bound (majorants)"),
        ("--split", str, None, "override the file: default, auto or even indices as 2,4"),
    )),
    "envelope": (_cmd_envelope, "evaluate the coefficient envelope", (
        ("--gamma", float, _REQUIRED, "dilation parameter"),
    )),
    "root": (_cmd_root, "where the envelope reaches 1", ()),
    "coeffs": (_cmd_coeffs, "coefficient table cross-checked against the summed arcs", (
        ("--gamma", float, _REQUIRED, "dilation parameter in [4, 9)"),
        ("--kmax", int, 20, f"last sine index, at most {MAX_KMAX}"),
        ("--csv", str, None, "write the table here instead of stdout"),
    )),
    "gram": (_cmd_gram, "truncated Gram-matrix eigenvalue witness", (
        ("--spec", str, _REQUIRED, "path of the system JSON file"),
        ("--n", int, _REQUIRED, f"truncation size, at most {MAX_GRAM_N}"),
        ("--no-rescale", bool, False, "the matrix of the unscaled profiles"),
        ("--csv", str, None, "also write the full matrix here"),
    )),
    "region": (_cmd_region, "emit admissible-region polylines", (
        ("--sup", float, _REQUIRED, "dilation-parameter cap"),
        ("--nmax", int, 9, "last curve index"),
        ("--resolution", int, 100, "points per arc"),
        ("--epsilon", float, None, "also emit odd-index segments for this decay"),
        ("--csv", str, None, "write rows here instead of stdout"),
        ("--svg", str, None, "also render a static figure here"),
    )),
    "dump": (_cmd_dump, "print one profile as JSON", (
        ("n", int, _REQUIRED, "curve index"),
        ("alpha", float, _REQUIRED, "coordinate of the positive arcs"),
        ("beta", float, None, "coordinate of the negative arcs, completed when left out"),
    )),
}

_DESCRIPTION = (
    "Certify asymmetric-oscillation systems as Riesz bases of L2(0, pi) and "
    "inspect the machinery behind the criterion."
)
_KIND_NAMES = {int: "an integer", float: "a number"}


def _usage(command: str | None) -> str:
    """The help text of the program, or of one subcommand, from the table."""
    rows = [("-h, --help", "show this help and exit")]
    if command is None:
        head, summary = f"[-h] {{{','.join(_COMMANDS)}}} ...", _DESCRIPTION
        rows += [(name, row[1]) for name, row in _COMMANDS.items()]
    else:
        _, summary, arguments = _COMMANDS[command]
        words = [command, "[-h]"]
        for name, kind, default, text in arguments:
            spelled = name if kind is bool or name[0] != "-" else f"{name} {name[2:].upper()}"
            words.append(spelled if default is _REQUIRED else f"[{spelled}]")
            if default not in (_REQUIRED, None, False):
                text += f" (default {default})"
            rows.append((spelled, text))
        head = " ".join(words)
    width = max(len(left) for left, _ in rows) + 2
    return f"usage: fucik {head}\n\n{summary}\n\n" + "".join(
        f"  {left:<{width}}{right}\n" for left, right in rows
    )


def _is_flag(token: str) -> bool:
    """True for a token that names a flag: a dash and no number, as "--csv"
    or "-h" but not "-10" or "-"."""
    try:
        float(token)
    except ValueError:
        return token.startswith("-") and token != "-"
    return False


def _match(key: str, names) -> str:
    """The one name among names that key spells or abbreviates; -h is --help."""
    if key == "-h":
        return "--help"
    if key in names:
        return key
    found = [name for name in names if len(key) > 2 and name.startswith(key)]
    if len(found) == 1:
        return found[0]
    if found:
        raise InputError(f"ambiguous option {key}: {' or '.join(found)}")
    raise InputError(f"unknown option {key}")


def _parse(argv: list[str]):
    """(handler, keyword values) for argv, the subcommand and its arguments.

    Flags come in any order, as "--flag value" or "--flag=value", and any
    unique prefix names a flag.  A value or positional may be a negative
    number, and every token after "--" is a positional.  -h or --help
    anywhere gives the help handler and the usage text.
    """
    if not argv:
        raise InputError(f"a subcommand is required: {', '.join(_COMMANDS)}")
    command, *rest = argv
    if _is_flag(command):
        _match(command, ("--help",))
        return _cmd_help, {"text": _usage(None)}
    if command not in _COMMANDS:
        raise InputError(f"unknown subcommand {command!r}: choose from {', '.join(_COMMANDS)}")
    handler, _, arguments = _COMMANDS[command]
    flags = {name: kind for name, kind, _, _ in arguments if name.startswith("--")}
    flags["--help"] = None
    given, loose = {}, []
    tokens = iter(rest)
    for token in tokens:
        if token == "--":
            loose.extend(tokens)
        elif not _is_flag(token):
            loose.append(token)
        else:
            key, eq, value = token.partition("=")
            name = _match(key, flags)
            if name == "--help":
                return _cmd_help, {"text": _usage(command)}
            if flags[name] is bool:
                if eq:
                    raise InputError(f"{name} takes no value")
                value = True
            elif not eq:
                value = next(tokens, None)
                if value is None or _is_flag(value):
                    raise InputError(f"{name} needs a value")
            given[name] = value
    positionals = [name for name, _, _, _ in arguments if not name.startswith("--")]
    if len(loose) > len(positionals):
        raise InputError(f"unexpected argument {loose[len(positionals)]!r}")
    given.update(zip(positionals, loose))
    values = {}
    for name, kind, default, _ in arguments:
        dest = name.lstrip("-").replace("-", "_")
        if name not in given:
            if default is _REQUIRED:
                raise InputError(f"{name} is required")
            values[dest] = default
            continue
        try:
            values[dest] = kind(given[name])
        except ValueError:
            raise InputError(f"{name} needs {_KIND_NAMES[kind]}, got {given[name]!r}") from None
    return handler, values


def main(argv=None) -> int:
    try:
        handler, values = _parse(sys.argv[1:] if argv is None else list(argv))
        return handler(**values)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
