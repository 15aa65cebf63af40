"""Span tracer that wraps the public functions of every ``fucik`` layer.

Each public function defined in a layer module is replaced, at every
``fucik`` module attribute that holds it, by one wrapper that records a
span (id, parent id, name, start, end) and the counters the benchmark
reports.  Calls inside the library go through those module attributes, so
nested calls become child spans.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

LAYERS = ("spectrum", "eigenfunction", "quadrature", "fourier", "envelope", "certify", "gram", "cli")


def _gamma_key(p) -> float | None:
    """Dilation parameter of an even-index point, rounded so that members of
    one family compare equal across n."""
    if p.n % 2 or p.alpha == p.beta:
        return None
    return round(4.0 * max(p.alpha, p.beta) / (p.n * p.n), 10)


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self.self_ms: Counter = Counter()
        self._stack: list[tuple[int, str]] = []
        self._next_id = 0
        self._op_gammas: set = set()
        self._defects_computed: list[set] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(f"fucik.{layer}") for layer in LAYERS]
        modules.append(importlib.import_module("fucik"))
        self.quadrature_error = modules[LAYERS.index("quadrature")].QuadratureError
        wrappers = {}
        for mod in modules[: len(LAYERS)]:
            layer = mod.__name__.split(".")[1]
            for name, obj in vars(mod).items():
                if (
                    not name.startswith("_")
                    and callable(obj)
                    and not inspect.isclass(obj)
                    and getattr(obj, "__module__", None) == mod.__name__
                ):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{name}", obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, name, wrappers[id(obj)])

    def begin_op(self) -> None:
        self.fold()
        self._op_gammas = set()

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            sid = tracer._next_id
            tracer._next_id += 1
            parent_id, parent_name = tracer._stack[-1] if tracer._stack else (-1, "")
            tracer.counts[f"{name}.calls"] += 1
            tracer._stack.append((sid, name))
            t0 = time.perf_counter()
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(tracer, fn, parent_name, args, kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((sid, parent_id, name, t0, t1))

        return traced

    # -- counters used by the hooks -----------------------------------------

    def _note_gamma(self, p) -> None:
        key = _gamma_key(p)
        if key is None:
            return
        self.counts["certify.gamma_calls"] += 1
        if key in self._op_gammas:
            self.counts["certify.gamma_repeats"] += 1
        self._op_gammas.add(key)

    def _note_defect(self, p) -> None:
        if self._defects_computed:
            self._defects_computed[-1].add(p.n)

    # -- summary -------------------------------------------------------------

    def fold(self) -> None:
        """Turn the recorded spans into self times and drop them.

        A span's self time is its duration minus the time covered by its
        child spans.  Called between ops so the span list stays small.
        """
        child = defaultdict(float)
        for _, parent, _, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for sid, _, name, t0, t1 in self.spans:
            self.self_ms[name] += 1e3 * (t1 - t0 - child[sid])
        self.spans.clear()

    def summary(self) -> dict:
        """Raw totals: counters and self milliseconds per span name."""
        self.fold()
        return {"counts": dict(self.counts), "self_ms": dict(self.self_ms)}


def _hook_integrate(tracer, fn, parent, args, kwargs):
    integrand = args[0]

    def counted(xs):
        tracer.counts["quadrature.integrate.fevals"] += xs.size
        return integrand(xs)

    try:
        return fn(counted, *args[1:], **kwargs)
    except tracer.quadrature_error:
        tracer.counts["quadrature.integrate.errors"] += 1
        raise


def _hook_evaluate(tracer, fn, parent, args, kwargs):
    size = getattr(args[1], "size", 1)
    tracer.counts["eigenfunction.evaluate.points"] += size
    if parent == "gram.gram_matrix":
        tracer.counts["gram.points"] += size
    return fn(*args, **kwargs)


def _hook_projection_defect(tracer, fn, parent, args, kwargs):
    tracer._note_gamma(args[0])
    try:
        value = fn(*args, **kwargs)
    except ArithmeticError:
        tracer.counts["certify.projection_defect.refusals"] += 1
        raise
    tracer._note_defect(args[0])
    return value


def _hook_projection_defect_bound(tracer, fn, parent, args, kwargs):
    value = fn(*args, **kwargs)
    tracer._note_defect(args[0])
    return value


def _hook_optimal_scaling(tracer, fn, parent, args, kwargs):
    tracer._note_gamma(args[0])
    return fn(*args, **kwargs)


def _hook_certify_system(tracer, fn, parent, args, kwargs):
    if parent == "gram.gram_witness":
        tracer.counts["gram.gram_witness.recertify_calls"] += 1
    tracer._defects_computed.append(set())
    try:
        cert = fn(*args, **kwargs)
    finally:
        computed = tracer._defects_computed.pop()
    tracer.counts["certify.defects_computed"] += len(computed)
    tracer.counts["certify.defects_wasted"] += len(computed & set(cert.split))
    return cert


def _hook_gram_matrix(tracer, fn, parent, args, kwargs):
    n = args[1] if len(args) > 1 else kwargs["n_trunc"]
    tracer.counts["gram.pairs"] += n * (n + 1) // 2
    return fn(*args, **kwargs)


_HOOKS = {
    "quadrature.integrate": _hook_integrate,
    "eigenfunction.evaluate": _hook_evaluate,
    "certify.projection_defect": _hook_projection_defect,
    "certify.projection_defect_bound": _hook_projection_defect_bound,
    "certify.optimal_scaling": _hook_optimal_scaling,
    "certify.certify_system": _hook_certify_system,
    "gram.gram_matrix": _hook_gram_matrix,
}


def merge(into: dict, summary: dict) -> None:
    """Add one summary's totals into an accumulator of the same shape."""
    for key in ("counts", "self_ms"):
        acc = into.setdefault(key, Counter())
        acc.update(summary[key])


def layer_metrics(totals: dict, ops: int) -> dict[str, float]:
    """Per-op layer metrics from merged summaries of `ops` traced ops."""
    counts = Counter(totals.get("counts", {}))
    self_ms = Counter(totals.get("self_ms", {}))

    def layer_self(layer: str) -> float:
        return sum(v for k, v in self_ms.items() if k.startswith(layer + "."))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {
        "spectrum.validate_point.calls": counts["spectrum.validate_point.calls"] / ops,
        "spectrum.self_ms": layer_self("spectrum") / ops,
        "eigenfunction.build.calls": counts["eigenfunction.build.calls"] / ops,
        "eigenfunction.build.self_ms": self_ms["eigenfunction.build"] / ops,
        "eigenfunction.evaluate.calls": counts["eigenfunction.evaluate.calls"] / ops,
        "eigenfunction.evaluate.points": counts["eigenfunction.evaluate.points"] / ops,
        "eigenfunction.evaluate.self_ms": self_ms["eigenfunction.evaluate"] / ops,
        "quadrature.integrate.calls": counts["quadrature.integrate.calls"] / ops,
        "quadrature.integrate.fevals": counts["quadrature.integrate.fevals"] / ops,
        "quadrature.integrate.fevals_per_call": ratio(
            counts["quadrature.integrate.fevals"], counts["quadrature.integrate.calls"]
        ),
        "quadrature.integrate.self_ms": self_ms["quadrature.integrate"] / ops,
        "quadrature.integrate.errors": counts["quadrature.integrate.errors"] / ops,
        "fourier.coefficient.calls": counts["fourier.coefficient.calls"] / ops,
        "fourier.quadrature_coefficient.calls": counts["fourier.quadrature_coefficient.calls"] / ops,
        "fourier.quadrature_coefficient.self_ms": self_ms["fourier.quadrature_coefficient"] / ops,
        "envelope.envelope_value.calls": counts["envelope.envelope_value.calls"] / ops,
        "envelope.self_ms": layer_self("envelope") / ops,
        "envelope.envelope_root.self_ms": self_ms["envelope.envelope_root"] / ops,
        "certify.parse_system.self_ms": self_ms["certify.parse_system"] / ops,
        "certify.certify_system.self_ms": self_ms["certify.certify_system"] / ops,
        "certify.projection_defect_bound.calls": counts["certify.projection_defect_bound.calls"] / ops,
        "certify.projection_defect.calls": counts["certify.projection_defect.calls"] / ops,
        "certify.projection_defect.self_ms": self_ms["certify.projection_defect"] / ops,
        "certify.projection_defect.refusals": counts["certify.projection_defect.refusals"] / ops,
        "certify.wasted_defect_share": ratio(counts["certify.defects_wasted"], counts["certify.defects_computed"]),
        "certify.optimal_scaling.calls": counts["certify.optimal_scaling.calls"] / ops,
        "certify.optimal_scaling.self_ms": self_ms["certify.optimal_scaling"] / ops,
        "certify.repeat_gamma_share": ratio(counts["certify.gamma_repeats"], counts["certify.gamma_calls"]),
        "certify.zeta.self_ms": self_ms["certify.zeta"] / ops,
        "gram.gram_matrix.self_ms": self_ms["gram.gram_matrix"] / ops,
        "gram.pairs": counts["gram.pairs"] / ops,
        "gram.points": counts["gram.points"] / ops,
        "gram.extremal_eigenvalues.self_ms": self_ms["gram.extremal_eigenvalues"] / ops,
        "gram.gram_witness.recertify_calls": counts["gram.gram_witness.recertify_calls"] / ops,
    }
    return out
