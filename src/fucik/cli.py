"""Command line front end.

Subcommands: certify, envelope, root, coeffs, gram, region, dump.  Exit
codes: 0 success (for certify: certified), 1 not certified, 2 bad input.
All numbers are printed to 12 significant digits and identical inputs give
byte-identical output.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from array import array

import fucik

from .certify import (
    MODES,
    SPLIT_AUTO,
    SPLIT_DEFAULT,
    certify_system,
    deviation_budget,
    deviation_cap,
    parse_system,
)
from .eigenfunction import arcs, moments
from .envelope import envelope, envelope_root
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
        if split in (SPLIT_AUTO, SPLIT_DEFAULT):
            data["split"] = split
        else:
            try:
                data["split"] = [int(tok) for tok in split.split(",") if tok]
            except ValueError:
                raise InputError(
                    'split must be "auto", "default", or comma-separated integers'
                ) from None
    return parse_system(data)


def _cmd_certify(args) -> int:
    spec = _load_system(args.spec, args.mode, args.split)
    cert = certify_system(spec)
    _print_json(cert.as_dict())
    return 0 if cert.passed else 1


def _cmd_envelope(args) -> int:
    ev = envelope(args.gamma)
    for k, term in enumerate(ev.summands[:4], start=1):
        print(f"summand_k{k} = {_fmt(term)}")
    print(f"summand_tail = {_fmt(ev.summands[4])}")
    print("tail_method = closed-form")
    print(f"value = {_fmt(ev.value)}")
    return 0


def _cmd_root(args) -> int:
    print(_fmt(envelope_root()))
    return 0


def _cmd_coeffs(args) -> int:
    if not 1 <= args.kmax <= MAX_KMAX:
        raise InputError(f"kmax must lie in [1, {MAX_KMAX}]")
    ks = range(1, args.kmax + 1)
    # first, so that a gamma outside [4, 9) gets coefficient's refusal
    column = [coefficient(args.gamma, k) for k in ks]
    # moments sums the profile's arcs in closed form and shares no code
    # with coefficient's two-arc formula, so each row checks one against
    # the other
    _, arc_sums = moments(point_from_gamma(2, args.gamma), ks)
    lines = ["k,coefficient,reflected_coefficient,arc_sum,abs_error"]
    for k, direct, arc_sum in zip(ks, column, arc_sums):
        reflected = -direct if k % 2 else direct  # the mirrored profile
        lines.append(
            f"{k},{_fmt(direct)},{_fmt(reflected)},{_fmt(arc_sum)},{_fmt(abs(direct - arc_sum))}"
        )
    _write_lines(lines, args.csv)
    return 0


def _cmd_gram(args) -> int:
    if args.n > MAX_GRAM_N:
        raise InputError(f"n must be at most {MAX_GRAM_N}")
    spec = _load_system(args.spec, None, None)
    matrix = fucik.gram_matrix(spec, args.n, rescale=not args.no_rescale)
    witness = fucik.gram_witness(spec, args.n, matrix)
    # the file first, so that a path that cannot be opened leaves stdout empty
    if args.csv is not None:
        _write_lines((",".join(map(_fmt, row)) for row in matrix), args.csv)
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


def _cmd_region(args) -> int:
    curves = region_rows(
        args.sup, nmax=args.nmax, resolution=args.resolution, epsilon=args.epsilon
    )
    # the figure first, so that a path that cannot be opened leaves stdout empty
    if args.svg is not None:
        _write_lines(_svg_lines(curves), args.svg)
    rows = (
        f"{cid},{_fmt(a)},{_fmt(b)}"
        for cid, alphas, betas in curves
        for a, b in zip(alphas, betas)
    )
    _write_lines(itertools.chain(["curve_id,alpha,beta"], rows), args.csv)
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
    rows = arcs(p)  # first, so that a refusal leaves stdout empty
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


def _cmd_dump(args) -> int:
    _write_lines(_dump_lines(FucikPoint(args.n, args.alpha, args.beta)), None)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fucik",
        description="Certify asymmetric-oscillation systems as Riesz bases "
        "of L2(0, pi) and inspect the machinery behind the criterion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("certify", help="run the sufficient criterion on a system file")
    c.add_argument("--spec", required=True, help="path of the system JSON file")
    c.add_argument(
        "--mode",
        choices=MODES,
        help="override the file: exact closed-form defects or their majorants",
    )
    c.add_argument(
        "--split",
        help='override the file: "default" (every non-symmetric even), "auto" '
        "(the split of least total), or comma-separated even indices",
    )
    c.set_defaults(handler=_cmd_certify)

    e = sub.add_parser("envelope", help="evaluate the coefficient envelope")
    e.add_argument("--gamma", type=float, required=True)
    e.set_defaults(handler=_cmd_envelope)

    r = sub.add_parser("root", help="where the envelope reaches 1")
    r.set_defaults(handler=_cmd_root)

    k = sub.add_parser(
        "coeffs", help="coefficient table cross-checked against the summed arcs"
    )
    k.add_argument("--gamma", type=float, required=True)
    k.add_argument("--kmax", type=int, default=20)
    k.add_argument("--csv", help="write the table here instead of stdout")
    k.set_defaults(handler=_cmd_coeffs)

    g = sub.add_parser("gram", help="truncated Gram-matrix eigenvalue witness")
    g.add_argument("--spec", required=True, help="path of the system JSON file")
    g.add_argument("--n", type=int, required=True, help="truncation size")
    g.add_argument("--no-rescale", action="store_true")
    g.add_argument("--csv", help="also write the full matrix here")
    g.set_defaults(handler=_cmd_gram)

    m = sub.add_parser("region", help="emit admissible-region polylines")
    m.add_argument("--sup", type=float, required=True, help="dilation-parameter cap")
    m.add_argument("--nmax", type=int, default=9)
    m.add_argument("--resolution", type=int, default=100)
    m.add_argument(
        "--epsilon", type=float, help="also emit odd-index segments for this decay"
    )
    m.add_argument("--csv", help="write rows here instead of stdout")
    m.add_argument("--svg", help="also render a static figure here")
    m.set_defaults(handler=_cmd_region)

    d = sub.add_parser("dump", help="print one profile as JSON")
    d.add_argument("n", type=int)
    d.add_argument("alpha", type=float)
    d.add_argument("beta", type=float, nargs="?")
    d.set_defaults(handler=_cmd_dump)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
