"""Seeded request blocks, the ops that run them, and their oracle checks.

Every workload cycles one fixed block of requests made from the seed, so a
run's failed share depends on the seed and not on how far the run got.
Blocks are balanced: indices, dilation parameters and offsets are drawn
one per stratum, so ops within a workload cost about the same.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np

import oracle

GAMMA_RANGE = (4.05, 6.3)
ODD_OFFSETS = (0.01, 0.2)

# Valid points inside the generator's range at which projection_defect
# refuses with ArithmeticError (its two quadrature routes differ beyond its
# 1e-11 check).  Drawn at random they are rare (none in 10,240 seeded
# entries), so the exact block carries them: the known defect then shows in
# failed_ratio at every seed until the library stops refusing.
KNOWN_REFUSALS = ((13, 173.17302161159537), (26, 984.02589401446))


def _stratified(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    vals = [lo + (hi - lo) * (i + rng.random()) / k for i in range(k)]
    rng.shuffle(vals)
    return vals


def _one_per_stratum(rng: random.Random, values: list[int], k: int) -> list[int]:
    return [rng.choice(list(chunk)) for chunk in np.array_split(values, k)]


def certify_spec(rng: random.Random, n_entries: int, n_max: int, mode: str) -> dict:
    """Half evens at distinct gammas, half odds slightly right of the diagonal
    (sqrt(alpha) = n + offset), indices stratified over 2..n_max."""
    half = n_entries // 2
    evens = _one_per_stratum(rng, list(range(2, n_max + 1, 2)), half)
    odds = _one_per_stratum(rng, list(range(3, n_max + 1, 2)), half)
    entries = [{"n": int(n), "alpha": g * n * n / 4.0} for n, g in zip(evens, _stratified(rng, *GAMMA_RANGE, half))]
    entries += [{"n": int(n), "alpha": (n + d) ** 2} for n, d in zip(odds, _stratified(rng, *ODD_OFFSETS, half))]
    return {"entries": sorted(entries, key=lambda e: e["n"]), "split": "auto", "mode": mode}


def family_spec(gamma: float, n_max: int) -> dict:
    """Every even n <= n_max at one dilation parameter; odd indices stay sines."""
    return {"entries": [{"n": n, "alpha": gamma * n * n / 4.0} for n in range(2, n_max + 1, 2)]}


# ---- in-process workloads ---------------------------------------------------


class CertifyWorkload:
    """parse_system + certify_system on seeded specs."""

    in_process = True

    def __init__(self, n_entries: int, n_max: int, mode: str, block: int, tail: float, warmup: int):
        self.n_entries, self.n_max, self.mode = n_entries, n_max, mode
        self.block_size, self.tail, self.warmup = block, tail, warmup

    def block(self, rng: random.Random) -> list[dict]:
        specs = [certify_spec(rng, self.n_entries, self.n_max, self.mode) for _ in range(self.block_size)]
        if self.mode == "exact":
            for j, (n, alpha) in enumerate(KNOWN_REFUSALS):
                entries = specs[j * len(specs) // len(KNOWN_REFUSALS)]["entries"]
                # replace the entry of the same parity and stratum
                k = min((e for e in entries if e["n"] % 2 == n % 2), key=lambda e: abs(e["n"] - n))
                k.update(n=n, alpha=alpha)
                entries.sort(key=lambda e: e["n"])
        return specs

    def expect(self, spec: dict) -> dict:
        want = oracle.expected_defects(spec)
        if self.mode == "bound":
            # the majorant must dominate the true defect
            for n, (a, b) in oracle.points(spec).items():
                if want[n] < oracle.defect(n, a, b) - oracle.ABS_TOL:
                    raise AssertionError(f"oracle: bound below defect at n={n}")
        return want

    @staticmethod
    def run(fucik, spec: dict):
        return fucik.certify_system(fucik.parse_system(spec))

    @staticmethod
    def check(spec: dict, want: dict, out) -> list[str]:
        return oracle.certificate_errors(spec, out.as_dict(), want)

    @staticmethod
    def same(a, b) -> bool:
        return a.as_dict() == b.as_dict()


class GramWorkload:
    """gram_matrix(spec, 32) + gram_witness(..., matrix=m) on the README family."""

    in_process = True
    size = 32

    def __init__(self, block: int, tail: float, warmup: int):
        self.block_size, self.tail, self.warmup = block, tail, warmup

    def block(self, rng: random.Random) -> list[dict]:
        return [family_spec(g, self.size) for g in _stratified(rng, 4.5, 6.3, self.block_size)]

    def expect(self, spec: dict):
        return oracle.gram(spec, self.size), oracle.envelope(_family_gamma(spec)) ** 2

    def run(self, fucik, spec: dict):
        parsed = fucik.parse_system(spec)
        m = fucik.gram_matrix(parsed, self.size)
        return m, fucik.gram_witness(parsed, self.size, matrix=m)

    @staticmethod
    def check(spec: dict, want, out) -> list[str]:
        m_want, total = want
        m, witness = out
        errs = []
        worst = float(np.max(np.abs(m - m_want)))
        if not worst <= oracle.ABS_TOL:
            errs.append(f"gram entries differ from the oracle by {worst:.3e}")
        return errs + oracle.witness_errors(witness.as_dict(), m, total)

    @staticmethod
    def same(a, b) -> bool:
        return np.array_equal(a[0], b[0]) and a[1] == b[1]


# ---- cli-cold ---------------------------------------------------------------


class CliWorkload:
    """One fresh `python -m fucik` process per op, rotating through rounds of
    all seven subcommands."""

    in_process = False

    def __init__(self, rounds: int, tail: float, warmup: int):
        self.rounds, self.tail, self.warmup = rounds, tail, warmup

    def block(self, rng: random.Random, workdir: str) -> list[tuple[str, list[str], dict]]:
        """Rounds with independently seeded arguments, so one draw of a
        costly argument does not set a run's median or tail."""
        return [req for r in range(self.rounds) for req in self._round(rng, workdir, r)]

    @staticmethod
    def _round(rng: random.Random, workdir: str, r: int) -> list[tuple[str, list[str], dict]]:
        certify_path = f"{workdir}/certify-{r}.json"
        gram_path = f"{workdir}/gram-{r}.json"
        cert = certify_spec(rng, 4, 12, "exact")
        family = family_spec(rng.uniform(4.5, 6.3), 16)
        for path, obj in ((certify_path, cert), (gram_path, family)):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
        g_env = rng.uniform(*GAMMA_RANGE)
        g_coef = rng.uniform(*GAMMA_RANGE)
        n_dump = rng.randrange(3, 40, 2)
        a_dump = (n_dump + rng.uniform(*ODD_OFFSETS)) ** 2
        return [
            ("certify", ["certify", "--spec", certify_path], {"spec": cert}),
            ("envelope", ["envelope", "--gamma", repr(g_env)], {"gamma": g_env}),
            ("root", ["root"], {}),
            ("coeffs", ["coeffs", "--gamma", repr(g_coef), "--kmax", "20"], {"gamma": g_coef}),
            ("gram", ["gram", "--spec", gram_path, "--n", "16"], {"spec": family}),
            ("region", ["region", "--sup", "5", "--epsilon", "0.5"], {"sup": 5.0, "epsilon": 0.5, "nmax": 9}),
            ("dump", ["dump", str(n_dump), repr(a_dump)], {"n": n_dump, "alpha": a_dump}),
        ]

    def expect(self, request) -> dict:
        sub, _, p = request
        if sub == "certify":
            return oracle.expected_defects(p["spec"])
        if sub == "envelope":
            return {"value": oracle.envelope(p["gamma"])}
        if sub == "root":
            return {"value": oracle.envelope_root()}
        if sub == "coeffs":
            return {k: oracle.two_arc_coefficient(p["gamma"], k) for k in range(1, 21)}
        if sub == "gram":
            return {"matrix": oracle.gram(p["spec"], 16), "total": oracle.envelope(_family_gamma(p["spec"])) ** 2}
        if sub == "region":
            eps = p["epsilon"]
            budget = (1.0 - oracle.envelope(p["sup"]) ** 2) / (
                45.0 * ((1.0 - 2.0 ** (-(1.0 + eps))) * oracle.zeta(1.0 + eps) - 1.0)
            )
            return {n: (n + math.sqrt(budget) * n ** ((1.0 - eps) / 2.0)) ** 2 for n in range(3, p["nmax"] + 1, 2)}
        return {"profile": oracle.Profile(p["n"], p["alpha"], oracle.complete_beta(p["n"], p["alpha"]))}

    @staticmethod
    def check(request, want, out) -> list[str]:
        sub, _, p = request
        code, text = out
        try:
            return _CLI_CHECKS[sub](p, want, code, text)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"{sub}: unparsable output ({type(exc).__name__}: {exc})"]

    @staticmethod
    def same(a, b) -> bool:
        return a == b


def _family_gamma(spec: dict) -> float:
    return max(oracle.dilation(n, a, b) for n, (a, b) in oracle.points(spec).items())


def _check_certify(p, want, code, text):
    cert = json.loads(text)
    errs = oracle.certificate_errors(p["spec"], cert, want)
    if code != (0 if cert["passed"] else 1):
        errs.append(f"exit code {code} with passed={cert['passed']}")
    return errs


def _check_envelope(p, want, code, text):
    fields = dict(line.split(" = ") for line in text.splitlines())
    summands = [float(fields[f"summand_k{k}"]) for k in range(1, 5)] + [float(fields["summand_tail"])]
    value = float(fields["value"])
    errs = [] if code == 0 else [f"exit code {code}"]
    if not oracle.close(value, want["value"]):
        errs.append(f"envelope value {value!r}, oracle {want['value']!r}")
    if not oracle.close(math.fsum(summands), value):
        errs.append("envelope summands do not add up to the value")
    return errs


def _check_root(p, want, code, text):
    value = float(text)
    if code != 0 or not oracle.close(value, want["value"], rel_tol=1e-11):
        return [f"root {value!r} (exit {code}), oracle {want['value']!r}"]
    return []


def _check_coeffs(p, want, code, text):
    rows = [line.split(",") for line in text.splitlines()]
    errs = [] if code == 0 and len(rows) == 21 else [f"exit code {code}, {len(rows)} rows"]
    for row in rows[1:]:
        k, direct, reflected, quad = int(row[0]), float(row[1]), float(row[2]), float(row[3])
        sign = -1.0 if k % 2 else 1.0
        if not (
            oracle.close(direct, want[k])
            and oracle.close(reflected, sign * want[k])
            and oracle.close(quad, want[k])
        ):
            errs.append(f"coefficient k={k}: {row[1:4]}, oracle {want[k]!r}")
    return errs


def _check_gram(p, want, code, text):
    witness = json.loads(text)
    if code != 0 or witness["size"] != 16:
        return [f"exit code {code}, size {witness['size']}"]
    return oracle.witness_errors(witness, want["matrix"], want["total"])


def _check_region(p, want, code, text):
    rows = [line.split(",") for line in text.splitlines()[1:]]
    errs = [] if code == 0 else [f"exit code {code}"]
    caps: dict[int, float] = {}
    for cid, a, b in rows:
        a, b = float(a), float(b)
        if cid.startswith("sector"):
            continue
        kind, n, side = cid.split("-")
        n = int(n)
        if side == "beta" and kind == "even":
            a, b = b, a
        residual = ((n + 1) // 2) / math.sqrt(a) + (n // 2) / math.sqrt(b) - 1.0
        if abs(residual) > 1e-9:
            errs.append(f"{cid} point ({a}, {b}) is off its curve by {residual:.2e}")
            break
        if kind == "odd":
            caps[n] = max(caps.get(n, 0.0), a, b)
        elif max(a, b) > p["sup"] * n * n / 4.0 * (1.0 + 1e-11):
            errs.append(f"{cid} point ({a}, {b}) exceeds the dilation cap")
            break
    for n, cap in want.items():
        if not oracle.close(caps.get(n, 0.0), cap):
            errs.append(f"odd-{n} reaches {caps.get(n)!r}, oracle cap {cap!r}")
    return errs


def _check_dump(p, want, code, text):
    rec = json.loads(text)
    f = want["profile"]
    bumps = rec["bumps"]
    got = np.array([[b["start"], b["end"], b["sign"] * b["amplitude"], b["frequency"]] for b in bumps])
    ref = np.column_stack((f.edges[:-1], f.edges[1:], f.amps, f.freqs))
    if code != 0 or got.shape != ref.shape or not np.allclose(got, ref, rtol=1e-9, atol=1e-10):
        return [f"dump of n={p['n']} differs from the oracle profile"]
    return []


_CLI_CHECKS = {
    "certify": _check_certify,
    "envelope": _check_envelope,
    "root": _check_root,
    "coeffs": _check_coeffs,
    "gram": _check_gram,
    "region": _check_region,
    "dump": _check_dump,
}

WORKLOADS = {
    "certify-exact": CertifyWorkload(8, 32, "exact", block=32, tail=90.0, warmup=2),
    "certify-bound": CertifyWorkload(48, 192, "bound", block=128, tail=99.0, warmup=64),
    "gram-family": GramWorkload(block=8, tail=75.0, warmup=1),
    "cli-cold": CliWorkload(rounds=3, tail=75.0, warmup=7),
}
