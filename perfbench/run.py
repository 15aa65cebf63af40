"""Benchmark of the fucik certificate pipeline.

    python3 perfbench/run.py --workload certify-exact --seed 1 --seconds 20 --trace 0

Run from the repository root.  One client runs a closed loop over a seeded
block of requests for --seconds (whole blocks, and at least the samples the
tail percentile needs), checks every output against an oracle that shares
no code with the library, and prints a table followed by one JSON line.
With --trace 0 the JSON holds the end-to-end metrics, timings scaled to a
reference speed measured between ops (see REF_NOMINAL_MS); with --trace 1 it
holds the per-layer metrics of a traced run.  The exit code is 1 when an
output is wrong and 2 when the library cannot be found or started.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array

# single-threaded BLAS/OpenMP here and in every child, before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, family_spec  # noqa: E402

SETUP_SPAWNS = 6  # before and again after the timed window
SUBCOMMANDS = ("certify", "envelope", "root", "coeffs", "gram", "region", "dump")
STANDARD_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


# Host speed on a shared machine moves by tens of percent, between minutes
# and within tens of milliseconds, in CPU time as well as in wall time (as
# when another tenant shares the physical core).  So the benchmark probes
# the speed between ops: whenever REF_EVERY_S has passed since the last
# probe, a fixed reference computation that shares no code with fucik (an
# oracle Gram matrix and envelope: the library's mix of Python loops, small
# numpy arrays and long vector sums) runs repeatedly for about REF_SHARE of
# the time since that probe.  Each op's times are scaled by REF_NOMINAL_MS
# over the mean CPU time of the reference runs of the probes just before
# and just after it and of all others within REF_SPAN op durations of it,
# so timings are reported at one reference speed; the raw ones are printed
# beside them.  Short ops thus take the speed of the moment they ran, and
# long ones, which average the fast changes themselves, an average over a
# span like their own.
REF_EVERY_S = 0.03
REF_SHARE = 0.1
REF_SPAN = 3.0
REF_NOMINAL_MS = 4.5
REF_SPEC = family_spec(5.0, 4)


def probe(refs: list[tuple[int, float, float]], done: int, since_s: float) -> None:
    """Append (ops done before it, mid time s, CPU s) of each reference run
    of one probe."""
    for _ in range(max(1, round(1e3 * REF_SHARE * since_s / REF_NOMINAL_MS))):
        w0, c0 = time.perf_counter(), time.process_time()
        oracle.gram(REF_SPEC, 4)
        oracle.envelope(5.0)
        c1, w1 = time.process_time(), time.perf_counter()
        refs.append((done, 0.5 * (w0 + w1), c1 - c0))


def speed_factors(refs: list[tuple[int, float, float]], mids, walls) -> np.ndarray:
    """Per-op factors from probes (see probe), the first before op 0 and the
    last after the final op; mids and walls are the ops' mid times and
    durations."""
    done = np.array([r[0] for r in refs])
    t = np.array([r[1] for r in refs])
    csum = np.concatenate(([0.0], np.cumsum([1e3 * r[2] for r in refs])))
    mids, span = np.asarray(mids), REF_SPAN * np.asarray(walls)
    last_before = np.searchsorted(done, np.arange(len(mids)), side="right") - 1
    lo = np.minimum(np.searchsorted(done, done[last_before], side="left"), np.searchsorted(t, mids - span))
    hi = np.maximum(
        np.searchsorted(done, done[last_before + 1], side="right"), np.searchsorted(t, mids + span, side="right")
    )
    return REF_NOMINAL_MS * (hi - lo) / (csum[hi] - csum[lo])


def min_samples(percentile: float) -> int:
    """Smallest sample count leaving at least ten samples beyond the percentile."""
    return int(round(10.0 / (1.0 - percentile / 100.0)))


def highest_percentile(n: int) -> float | None:
    for p in STANDARD_PERCENTILES:
        if n >= min_samples(p):
            return p
    return None


def read_steal(cpu: int) -> tuple[int, int] | None:
    """(steal, total) jiffies of one CPU from /proc/stat, read-only."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(f"cpu{cpu} "):
                    fields = [int(v) for v in line.split()[1:9]]
                    return fields[7], sum(fields)
    except (OSError, ValueError):
        pass
    return None


def parse_importtime(text: str) -> dict[str, float]:
    """numpy and fucik cumulative import ms and fucik.envelope self ms."""
    out = {"numpy": 0.0, "fucik": 0.0, "fucik.envelope": 0.0}
    rows = []
    for line in text.splitlines():
        if line.startswith("import time:") and "|" in line and "self [us]" not in line:
            self_us, cum_us, name = line[len("import time:"):].split("|")
            rows.append((len(name) - len(name.lstrip()), name.strip(), int(self_us), int(cum_us)))
    fucik_rows = [r for r in rows if r[1] == "fucik" or r[1].startswith("fucik.")]
    if fucik_rows:
        top = min(r[0] for r in fucik_rows)
        out["fucik"] = sum(r[3] for r in fucik_rows if r[0] == top) / 1e3
    for depth, name, self_us, cum_us in rows:
        if name == "numpy":
            out["numpy"] = cum_us / 1e3
        elif name == "fucik.envelope":
            out["fucik.envelope"] = self_us / 1e3
    return out


class Samples:
    """Per-op columns of one phase, in arrays: peak_rss_mb of the in-process
    workloads is the benchmark process's, so the harness's own memory must
    not grow with the number of ops a run gets through."""

    def __init__(self) -> None:
        self.req, self.failed = array("i"), array("b")
        self.wall, self.cpu, self.rss_mb, self.mid = array("d"), array("d"), array("d"), array("d")
        self.wall_ref = self.cpu_ref = None  # numpy arrays, when speed-probed

    def add(self, rec: dict) -> None:
        self.req.append(rec["i"])
        self.failed.append(rec["failed"])
        self.wall.append(rec["wall"])
        self.cpu.append(rec["cpu"])
        self.rss_mb.append(rec.get("rss_mb", 0.0))
        self.mid.append(rec["mid"])

    def __len__(self) -> int:
        return len(self.req)


class Runner:
    def __init__(self, name: str, seed: int, trace: bool):
        self.name, self.trace = name, trace
        self.wl = WORKLOADS[name]
        self.root = os.getcwd()
        self.env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        self.workdir = os.path.join(self.root, ".perfbench_work", str(os.getpid()))
        self.rng = random.Random(f"{name}/{seed}")
        self.wrong: list[str] = []
        self.first_output: dict[int, object] = {}
        self.refused: set[int] = set()
        self.tracer = None
        self.trace_totals: dict = {}
        self.cli_command_ms: dict[str, list[float]] = {s: [] for s in SUBCOMMANDS}
        self.import_ms: list[dict] = []
        self.cursor = 0

    # -- set-up ---------------------------------------------------------------

    def spawn(self, argv: list[str], stderr_path: str):
        """Run one child; return (wall s, exit code, stdout, stderr, rusage)."""
        with open(stderr_path, "w+b") as err:
            t0 = time.perf_counter()
            with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=self.env) as p:
                out = p.stdout.read()
                _, status, usage = os.wait4(p.pid, 0)
                p.returncode = os.waitstatus_to_exitcode(status)
            wall = time.perf_counter() - t0
            err.seek(0)
            return wall, p.returncode, out, err.read().decode("utf-8", "replace"), usage

    def setup(self) -> list[tuple[float, float]]:
        """(raw, reference-speed) wall times of SETUP_SPAWNS fresh interpreters
        from spawn to ready, with a probe before each spawn and after the last."""
        argv = [sys.executable] + (["-X", "importtime"] if self.trace else [])
        argv += [os.path.join(HERE, "child.py"), "ready", self.name]
        walls, mids, refs = [], [], []
        last = time.perf_counter() - REF_EVERY_S
        for k in range(SETUP_SPAWNS):
            probe(refs, k, time.perf_counter() - last)
            last = time.perf_counter()
            wall, code, _, err, _ = self.spawn(argv, os.path.join(self.workdir, "stderr"))
            mids.append(last + 0.5 * wall)
            if code != 0:
                print(f"error: set-up child exited {code}:\n{err}", file=sys.stderr)
                raise SystemExit(2)
            walls.append(wall)
            if self.trace:
                self.import_ms.append(parse_importtime(err))
        probe(refs, SETUP_SPAWNS, time.perf_counter() - last)
        return [(w, w * f) for w, f in zip(walls, speed_factors(refs, mids, walls))]

    # -- ops ------------------------------------------------------------------

    def run_in_process(self, i: int, traced: bool) -> dict:
        req = self.block[i]
        if traced:
            self.tracer.begin_op()
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            out, error = self.wl.run(self.fucik, req), None
        except Exception as exc:  # a refusal on valid input is a failed op, not a crash
            out, error = None, exc
        c1, w1 = time.process_time(), time.perf_counter()
        return {"i": i, "wall": w1 - w0, "cpu": c1 - c0, "out": out, "error": error}

    def run_cli(self, i: int, traced: bool) -> dict:
        sub, args, _ = self.block[i]
        if traced:
            argv = [sys.executable, "-X", "importtime", os.path.join(HERE, "child.py"), "cli", *args]
        else:
            argv = [sys.executable, "-m", "fucik", *args]
        wall, code, out, err, usage = self.spawn(argv, os.path.join(self.workdir, "stderr"))
        error = None
        if code == 2:
            error = RuntimeError(f"fucik {' '.join(args)} exited 2: {err.strip()[-300:]}")
        if traced:
            report = [ln for ln in err.splitlines() if ln.startswith("PERFBENCH ")]
            if report:
                data = json.loads(report[-1][len("PERFBENCH "):])
                self.cli_command_ms[sub].append(data["command_ms"])
                tracing.merge(self.trace_totals, data)
                self.import_ms.append(parse_importtime(err))
        return {
            "i": i,
            "sub": sub,
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "out": (code, out.decode("utf-8")),
            "error": error,
        }

    def check(self, rec: dict) -> None:
        """Oracle check outside the timed span; an op that raised is failed."""
        i = rec["i"]
        rec["failed"] = rec["error"] is not None
        if rec["failed"]:
            if i not in self.refused:
                self.refused.add(i)
                print(f"# failed op (request {i}): {type(rec['error']).__name__}: {rec['error']}", file=sys.stderr)
            return
        first = self.first_output.get(i)
        if first is None:
            errs = self.wl.check(self.block[i], self.expected[i], rec["out"])
            if not errs:
                self.first_output[i] = rec["out"]
        else:
            errs = [] if self.wl.same(first, rec["out"]) else ["output differs from its first run"]
        if errs:
            rec["failed"] = True
            self.wrong.append(f"request {i}: " + "; ".join(errs[:3]))

    def phase(
        self, seconds: float, min_ops: int, traced: bool, whole_blocks: bool = True, speed: bool = False
    ) -> Samples:
        """Whole blocks until `seconds` have passed and `min_ops` ops ran.
        With `speed`, speed probes interleave with the ops and every record
        gains its times at reference speed."""
        run = self.run_in_process if self.wl.in_process else self.run_cli
        if self.tracer is not None:
            self.tracer.enabled = traced
        samples, refs = Samples(), []
        deadline = time.perf_counter() + seconds
        last_probe = time.perf_counter() - REF_EVERY_S
        while True:
            if speed and time.perf_counter() - last_probe >= REF_EVERY_S:
                probe(refs, len(samples), time.perf_counter() - last_probe)
                last_probe = time.perf_counter()
            t0 = time.perf_counter()
            rec = run(self.cursor, traced)
            rec["mid"] = t0 + 0.5 * rec["wall"]
            self.cursor = (self.cursor + 1) % len(self.block)
            self.check(rec)
            samples.add(rec)
            if (
                (self.cursor == 0 or not whole_blocks)
                and len(samples) >= min_ops
                and time.perf_counter() >= deadline
            ):
                break
        if self.tracer is not None:
            self.tracer.enabled = False
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if speed:
            probe(refs, len(samples), time.perf_counter() - last_probe)
            f = speed_factors(refs, samples.mid, samples.wall)
            samples.wall_ref, samples.cpu_ref = np.asarray(samples.wall) * f, np.asarray(samples.cpu) * f
            self.ref_ms = [1e3 * r[2] for r in refs]
        return samples

    # -- run ------------------------------------------------------------------

    def prepare(self) -> list[float]:
        os.makedirs(self.workdir, exist_ok=True)
        setup_walls = self.setup()
        if self.wl.in_process:
            sys.path.insert(0, os.path.join(self.root, "src"))
            import fucik

            self.fucik = fucik
            if self.trace:
                self.tracer = tracing.Tracer()
                self.tracer.install()
            self.block = self.wl.block(self.rng)
        else:
            self.block = self.wl.block(self.rng, self.workdir)
        self.expected = [self.wl.expect(req) for req in self.block]
        self.phase(0.0, self.wl.warmup, traced=False, whole_blocks=False)
        self.cursor = 0
        # keep the harness's own objects (oracle tables, block) out of the
        # collections the ops trigger
        gc.freeze()
        return setup_walls


def tail_of(values: list[float], percentile: float) -> tuple[float, int]:
    value = float(np.percentile(values, percentile))
    return value, sum(v > value for v in values)


def end_to_end(
    r: Runner, setup_walls: list[tuple[float, float]], recs: Samples, steal: float | None
) -> tuple[dict, list]:
    """The gated metrics, timings at reference speed, and raw diagnostics."""
    wall_ms, cpu_ms = 1e3 * recs.wall_ref, 1e3 * recs.cpu_ref
    raw_wall_ms, raw_cpu_ms = 1e3 * np.asarray(recs.wall), 1e3 * np.asarray(recs.cpu)
    n = len(recs)
    failed = sum(recs.failed)
    pct = r.wl.tail
    tail, beyond = tail_of(cpu_ms, pct)
    rss = r.peak_rss_mb if r.wl.in_process else max(recs.rss_mb)
    setup_ref = statistics.median(s for _, s in setup_walls)
    metrics = {
        "setup_s": (setup_ref, "s", f"median of {len(setup_walls)} spawns, at reference speed"),
        "p50_ms": (statistics.median(wall_ms), "ms", f"wall, {n} ops, at reference speed"),
        "cpu_tail_ms": (tail, "ms", f"CPU p{pct:g}, {n} ops, {beyond} beyond, at reference speed"),
        "ops_per_cpu_s": (n / (sum(cpu_ms) / 1e3), "1/s", f"{n} ops, at reference speed"),
        "peak_rss_mb": (rss, "MB", "largest child" if not r.wl.in_process else "benchmark process"),
        "ok_ratio": (1.0 - failed / n, "ratio", f"{n - failed} of {n} ops"),
    }
    wall_p = highest_percentile(n)
    ref_ms = statistics.median(r.ref_ms)
    notes = [
        f"failed_ratio = {failed / n:.6g} ({failed} of {n} ops)",
        f"cpu median = {statistics.median(cpu_ms):.6g} ms at reference speed",
        f"reference runs: {len(r.ref_ms)}, CPU median {ref_ms:.6g} ms "
        f"(nominal {REF_NOMINAL_MS:g}), quartile spread {_spread(r.ref_ms):.4g}",
        f"raw setup_s = {statistics.median(w for w, _ in setup_walls):.6g}",
        f"raw p50_ms = {statistics.median(raw_wall_ms):.6g}",
        f"raw cpu_tail_ms = {tail_of(raw_cpu_ms, pct)[0]:.6g}",
        f"raw ops_per_cpu_s = {n / (sum(raw_cpu_ms) / 1e3):.6g}",
        f"run.wall_ops_per_s = {n / sum(recs.wall):.6g}",
        f"run.wall_tail_ms = {tail_of(raw_wall_ms, wall_p)[0]:.6g} (p{wall_p:g})" if wall_p else "run.wall_tail_ms: too few samples",
        f"host.steal_share = {steal:.6g}" if steal is not None else "host.steal_share: /proc/stat unreadable",
    ]
    return metrics, notes


def _spread(values: list[float]) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def per_layer(r: Runner, base: Samples, traced: Samples, steal: float | None) -> dict:
    if r.tracer is not None:
        totals = r.tracer.summary()
    else:
        totals = r.trace_totals
    n_b = len(traced)
    metrics = {k: (v, _unit(k)) for k, v in tracing.layer_metrics(totals, n_b).items()}
    imports = r.import_ms

    def med(key: str) -> float:
        return statistics.median(d[key] for d in imports) if imports else 0.0

    metrics["envelope.import_ms"] = (med("fucik.envelope"), "ms")
    metrics["cli.import.numpy_ms"] = (med("numpy"), "ms")
    metrics["cli.import.fucik_ms"] = (med("fucik"), "ms")
    for sub in SUBCOMMANDS:
        times = r.cli_command_ms[sub]
        rss = [m for m, i in zip(base.rss_mb, base.req) if not r.wl.in_process and r.block[i][0] == sub]
        metrics[f"cli.{sub}.command_ms"] = (statistics.mean(times) if times else 0.0, "ms")
        metrics[f"cli.{sub}.peak_rss_mb"] = (max(rss) if rss else 0.0, "MB")
    wall_ms = [1e3 * w for w in base.wall]
    wall_p = highest_percentile(len(base)) or 100.0
    metrics["run.wall_tail_ms"] = (tail_of(wall_ms, wall_p)[0], "ms")
    metrics["run.wall_ops_per_s"] = (len(base) / sum(base.wall), "1/s")
    metrics["host.steal_share"] = (steal if steal is not None else 0.0, "ratio")
    cpu_a = sum(base.cpu) / len(base)
    cpu_b = sum(traced.cpu) / n_b
    metrics["trace.overhead_ratio"] = (cpu_b / cpu_a, "ratio")
    return metrics


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms/op"
    if name.endswith("_share"):
        return "ratio"
    if name.endswith("_per_call"):
        return "count/call"
    return "count/op"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "fucik", "__init__.py")):
        print("error: src/fucik not found; run from the repository root", file=sys.stderr)
        return 2

    # one CPU for the benchmark and every child it starts: a thread that
    # migrates between virtual CPUs picks up the host's steal on both
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    r = Runner(args.workload, args.seed, bool(args.trace))
    try:
        setup_walls = r.prepare()
        steal0 = read_steal(cpu)
        min_ops = min_samples(r.wl.tail)
        if args.trace:
            base = r.phase(args.seconds / 2.0, 1, traced=False)
            traced = r.phase(args.seconds / 2.0, 1, traced=True)
        else:
            recs = r.phase(args.seconds, min_ops, traced=False, speed=True)
        steal1 = read_steal(cpu)
        setup_walls += r.setup()
    finally:
        shutil.rmtree(r.workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(r.workdir))
        except OSError:
            pass
    steal = None
    if steal0 and steal1 and steal1[1] > steal0[1]:
        steal = (steal1[0] - steal0[0]) / (steal1[1] - steal0[1])

    print(f"# workload {args.workload}, seed {args.seed}, block of {len(r.block)} requests")
    if args.trace:
        metrics = per_layer(r, base, traced, steal)
        attempted = len(base) + len(traced)
        failed = sum(base.failed) + sum(traced.failed)
        for name, (value, unit) in metrics.items():
            print(f"{name:42s} {value:14.6g} {unit}")
    else:
        full, notes = end_to_end(r, setup_walls, recs, steal)
        metrics = {k: (v, u) for k, (v, u, _) in full.items()}
        attempted, failed = len(recs), sum(recs.failed)
        for name, (value, unit, how) in full.items():
            print(f"{name:16s} {value:14.6g} {unit:6s} {how}")
        for line in notes:
            print("# " + line)
    for msg in r.wrong[:10]:
        print(f"# WRONG {msg}", file=sys.stderr)
    result = {
        "correct": not r.wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not r.wrong else 1


if __name__ == "__main__":
    sys.exit(main())
