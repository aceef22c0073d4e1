"""Layered benchmark for qpe: one workload per run, closed loop, one caller.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: pairs_small, pool_reuse, pairs_large, cli_cold (BENCHMARK.json
says why each exists). Inputs are generated from --seed; the library gets
raw ndarrays (and JSON documents for cli_cold). Every op is checked by an
independent route; a failed check or an unexpected raise counts in
``failed``, and error_rate = failed / attempted.

--trace 0 measures the end-to-end metrics untraced. --trace 1 measures an
untraced phase and then a traced phase of --seconds each, and reports the
per-layer metrics of the traced phase and the tracing overhead; the spans
go to bench/out/. BLAS is pinned to one thread in this process's
environment before numpy is imported, and the process (with every process
it starts) is pinned to one CPU.

Latencies are rescaled to the reference speed of the contention gauge in
gauge.py; raw figures are printed beside them. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it print every metric with its unit and an
environment record.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter, perf_counter_ns

import numpy as np

import gauge

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 7
MIN_TAIL_BEYOND = 10
MAX_REPORTED_FAILURES = 5
# latency histogram: bins 0.05% wide in log scale, from 50 ns to about an hour
LOG_BIN = 5e-4
MIN_NS = 50.0
N_BINS = 50_000
# latencies held between two gauge readings before they are binned
PENDING = 1 << 16


def fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_library():
    if not os.path.isfile(os.path.join(SRC, "qpe", "__init__.py")):
        fail(f"no qpe package under {SRC}; run from the root of a qpe checkout")
    sys.path.insert(0, SRC)
    import qpe
    if not os.path.abspath(qpe.__file__).startswith(SRC + os.sep):
        fail(f"imported qpe from {qpe.__file__}, not from {SRC}")
    return qpe


class Histogram:
    """Latencies binned on a log scale, with their exact count and sum."""

    def __init__(self):
        self.bins = np.empty(N_BINS, np.int64)
        self.bins.fill(0)  # touched now, so its pages are resident before the loop
        self.count = 0
        self.sum_ns = 0.0

    def quantile(self, percentile: float) -> tuple[float, int]:
        """(the ceil(p/100 * count)-th smallest latency, samples beyond it).
        Within a bin the value is interpolated by rank on the log scale."""
        rank = -(-round(percentile * 10) * self.count // 1000)
        cum = np.cumsum(self.bins)
        b = int(np.searchsorted(cum, rank))
        inside = rank - int(cum[b] - self.bins[b])
        value = MIN_NS * math.exp(LOG_BIN * (b + (inside - 0.5) / int(self.bins[b])))
        return value, self.count - rank


class Recorder:
    """Per-op latencies of one timed phase, in memory fixed before the loop.

    Latencies wait in a preallocated buffer until the next gauge reading;
    each is then rescaled by the mean of the readings on either side of it
    and binned, rescaled and raw, into a Histogram. Nothing grows with the
    number of ops, so a faster program does not read as using more memory.
    """

    def __init__(self):
        self.pending = np.empty(PENDING, np.int64)
        self.work = np.empty(PENDING, np.float64)
        self.index = np.empty(PENDING, np.intp)
        for buf in (self.pending, self.work, self.index):
            buf.fill(0)
        self.n = 0
        self.rescaled = Histogram()
        self.raw = Histogram()
        self.readings = [gauge.reading()]

    def add(self, ns: int) -> None:
        self.pending[self.n] = ns
        self.n += 1

    def full(self) -> bool:
        return self.n == PENDING

    def _bin(self, hist: Histogram, scale: float) -> None:
        x = self.work[:self.n]
        np.multiply(self.pending[:self.n], scale, out=x)
        hist.count += self.n
        hist.sum_ns += float(x.sum())
        np.multiply(x, 1.0 / MIN_NS, out=x)
        np.log(x, out=x)
        np.multiply(x, 1.0 / LOG_BIN, out=x)
        np.clip(x, 0, N_BINS - 1, out=x)
        idx = self.index[:self.n]
        np.copyto(idx, x, casting="unsafe")  # truncation is floor: x >= 0
        np.add.at(hist.bins, idx, 1)

    def flush(self, reading: int) -> None:
        """Bin the pending latencies, given the gauge reading taken after them."""
        mean = (self.readings[-1] + reading) / 2
        self.readings.append(reading)
        self._bin(self.rescaled, gauge.rescale(1.0, mean))
        self._bin(self.raw, 1.0)
        self.n = 0


class Stats:
    """Op and failure counts of one phase, and its Recorder if it was timed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.latencies: Recorder | None = None
        self.peak_rss_kb = 0

    def record_failure(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < MAX_REPORTED_FAILURES:
            self.reasons.append(reason)


def run_op(wl, item, stats: Stats, tracer) -> int:
    if tracer is not None:
        tracer.begin_op()
    t0 = perf_counter_ns()
    try:
        res = wl.run(item)
    except Exception as exc:  # an unexpected raise is a failed op, not a crash
        res = exc
        res.__bench_traceback__ = traceback.format_exc()
    dt = perf_counter_ns() - t0
    if tracer is not None:
        tracer.end_op()
    stats.attempted += 1
    try:
        reason = wl.check(item, res)
    except Exception:
        reason = "check raised:\n" + traceback.format_exc()
    if reason is not None:
        tb = getattr(res, "__bench_traceback__", "")
        stats.record_failure(reason + ("\n" + tb if tb else ""))
    return dt


def setup(name: str, seed: int):
    """Everything before the first timed op: import, inputs, warm-up."""
    import_library()
    import workloads
    wl = workloads.make(name, seed, ROOT)
    stats = Stats()
    for item in wl.warmup_items():
        run_op(wl, item, stats, None)
    return wl, stats


def measure(wl, seconds: float, tracer=None) -> Stats:
    stats = Stats()
    rec = stats.latencies = Recorder()
    deadline = perf_counter() + seconds
    next_gauge = perf_counter() + gauge.PERIOD_S
    while perf_counter() < deadline:
        for item in wl.batch():
            rec.add(run_op(wl, item, stats, tracer))
            now = perf_counter()
            if now >= next_gauge or rec.full():
                rec.flush(gauge.reading())
                next_gauge = perf_counter() + gauge.PERIOD_S
            if now >= deadline:
                break
    # before any post-processing, so the figure is the loop's own peak
    stats.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rec.flush(gauge.reading())
    return stats


def setup_seconds(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Process start to first timed op in fresh processes: (rescaled, raw) seconds."""
    rescaled, raw = [], []
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", "0", "--setup-only"]
    for _ in range(SETUP_SAMPLES):
        before = gauge.reading()
        t0 = perf_counter_ns()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
        line = proc.stdout.readline()
        dt = perf_counter_ns() - t0
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != b"ready":
            fail(f"set-up process for {name} failed (exit {proc.returncode})")
        # a set-up spans several gauge periods: use the gauge on both sides
        raw.append(dt / 1e9)
        rescaled.append(gauge.rescale(dt, (before + gauge.reading()) / 2) / 1e9)
    return rescaled, raw


def latency_figures(h: Histogram, tail_percentile: float) -> dict:
    tail_ns, beyond = h.quantile(tail_percentile)
    if beyond < MIN_TAIL_BEYOND:
        fail(f"only {beyond} of {h.count} samples beyond p{tail_percentile:g}; "
             f"latency_tail_ms needs at least {MIN_TAIL_BEYOND}")
    return {"ops_per_s": h.count / (h.sum_ns / 1e9),
            "latency_p50_ms": h.quantile(50.0)[0] / 1e6,
            "latency_tail_ms": tail_ns / 1e6, "tail_beyond": beyond}


def end_to_end(wl, stats: Stats, setup: tuple[list[float], list[float]]) -> tuple[dict, list[str]]:
    rec = stats.latencies
    n = rec.rescaled.count
    p = wl.tail_percentile
    fig = latency_figures(rec.rescaled, p)
    raw = latency_figures(rec.raw, p)
    if getattr(wl, "child_rss_kb", None):
        rss_mb = statistics.median(wl.child_rss_kb) / 1024.0
        rss_note = f"median over {len(wl.child_rss_kb)} CLI processes"
    else:
        rss_mb = stats.peak_rss_kb / 1024.0
        rss_note = "benchmark process"
    metrics = {
        "setup_s": (statistics.median(setup[0]), "s", f"median of {SETUP_SAMPLES} fresh "
                    f"processes; raw {statistics.median(setup[1]):.4g}"),
        "ops_per_s": (fig["ops_per_s"], "ops/s", f"{n} ops; raw {raw['ops_per_s']:.6g}"),
        "latency_p50_ms": (fig["latency_p50_ms"], "ms", f"{n} samples; raw "
                           f"{raw['latency_p50_ms']:.6g}"),
        "latency_tail_ms": (fig["latency_tail_ms"], "ms",
                            f"p{p:g}, {fig['tail_beyond']} samples "
                            f"beyond, {n} samples; raw {raw['latency_tail_ms']:.6g}"),
        "peak_rss_mb": (rss_mb, "MB", rss_note),
    }
    lines = [f"  {k:<16} {v:>14.6g} {u:<6} ({note})" for k, (v, u, note) in metrics.items()]
    lines.append(f"  {'error_rate':<16} {stats.failed / stats.attempted:>14.6g} {'ratio':<6} "
                 f"({stats.failed} failed / {stats.attempted} attempted)")
    lines.append(f"  gauge median {statistics.median(rec.readings) / 1e3:.1f} us, fastest "
                 f"{min(rec.readings) / 1e3:.1f} us, reference {gauge.REFERENCE_NS / 1e3:.1f} us")
    return {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}, lines


def per_op(summary: dict, names, ops: int) -> float:
    return sum(summary["calls"].get(n, 0) for n in names) / ops


def mean_us(summary: dict, names) -> float:
    calls = sum(summary["calls"].get(n, 0) for n in names)
    total = sum(summary["total_ns"].get(n, 0) for n in names)
    return total / calls / 1e3 if calls else 0.0


def per_layer(summary: dict, overhead: float, cli_records: list[dict]) -> dict:
    """Per-layer figures of the traced phase; 0 where a layer is not called."""
    ops = summary["ops"]
    eig = [f"numpy.{f}" for f in ("eigh", "eigvalsh", "svd")]
    ctor = ["states.DensityMatrix", "states.Effect"]
    cq = summary["total_ns"].get("channels.channel_qpe_leq", 0)
    inner = summary["pair_ns"].get("channels.channel_qpe_leq>orders.qpe_leq", 0)
    serialization_self = sum(t for n, t in summary["self_ns"].items()
                             if n.startswith("serialization."))

    def cli_ms(key: str) -> float:
        return statistics.median(r[key] for r in cli_records) / 1e6 if cli_records else 0.0

    m = {
        "numpy.eigensolves_per_op": (per_op(summary, eig, ops), "count"),
        "numpy.eigensolve_share": (sum(summary["total_ns"].get(n, 0) for n in eig)
                                   / summary["op_ns"], "ratio"),
        "linalg.hermitian_checks_per_op": (per_op(summary, ["linalg.assert_hermitian"], ops), "count"),
        "linalg.is_psd_calls_per_op": (per_op(summary, ["linalg.is_psd"], ops), "count"),
        "linalg.matrix_power_us": (mean_us(summary, ["linalg.matrix_power"]), "us"),
        "states.constructions_per_op": (per_op(summary, ctor, ops), "count"),
        "states.construct_us": (mean_us(summary, ctor), "us"),
        "states.recomputed_spectra_per_op": (summary["recomputed_spectra"] / ops, "count"),
        "orders.qpe_leq_calls_per_op": (per_op(summary, ["orders.qpe_leq"], ops), "count"),
        "orders.qpe_leq_us": (mean_us(summary, ["orders.qpe_leq"]), "us"),
        "bayes.reconstruct_effect_us": (mean_us(summary, ["bayes.reconstruct_effect"]), "us"),
        "bayes.fls_update_us": (mean_us(summary, ["bayes.fls_update"]), "us"),
        "divergence.max_divergence_us": (mean_us(summary, ["divergence.max_divergence"]), "us"),
        "divergence.order_divergence_gap_us": (mean_us(summary, ["divergence.order_divergence_gap"]), "us"),
        "domain.way_below_witness_us": (mean_us(summary, ["domain.way_below_witness"]), "us"),
        "channels.channel_qpe_leq_us": (mean_us(summary, ["channels.channel_qpe_leq"]), "us"),
        "channels.channel_max_divergence_us": (mean_us(summary, ["channels.channel_max_divergence"]), "us"),
        "channels.cross_check_share": (1.0 - inner / cq if cq else 0.0, "ratio"),
        "cli.import_ms": (cli_ms("import_ns"), "ms"),
        "cli.run_ms": (cli_ms("run_ns"), "ms"),
        "serialization.decode_us": (serialization_self / ops / 1e3, "us"),
        "bench.tracing_overhead": (overhead, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def traced_run(wl, args, untraced: Stats):
    """Traced phase; returns (metrics, lines, stats, self-check passed)."""
    from tracer import Tracer, merge
    cli = hasattr(wl, "set_traced")
    tracer = None
    if cli:
        wl.set_traced(True)
    else:
        tracer = Tracer()
        tracer.install()
    try:
        traced = measure(wl, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if cli:
        summary = merge([r["summary"] for r in wl.traces])
        spans = {"processes": [r["spans"] for r in wl.traces]}
    else:
        summary = tracer.summary()
        spans = tracer.span_table()
    t, u = traced.latencies.rescaled, untraced.latencies.rescaled
    overhead = (t.sum_ns / t.count) / (u.sum_ns / u.count)
    metrics = per_layer(summary, overhead, wl.traces if cli else [])
    out_dir = os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json")
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "summary": summary,
                   **spans}, fh, separators=(",", ":"))
    lines = [f"  {k:<36} {v['value']:>14.6g} {v['unit']}" for k, v in metrics.items()]
    lines.append(f"  traced ops {summary['ops']}, spans dropped {summary['spans_dropped']}, "
                 f"trace written to {os.path.relpath(trace_path, ROOT)}")
    ok = summary["orphan_eigensolves"] == 0
    if not ok:
        lines.append(f"  SELF-CHECK FAILED: {summary['orphan_eigensolves']} numpy "
                     "eigensolves ran outside every wrapped library span")
    return metrics, lines, traced, ok


def environment(cpu: int | None) -> dict:
    import numpy as np
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": None,
        "blas_threads_env": {v: os.environ.get(v) for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "cpu_model": platform.processor() or None,
        "git_commit": None,
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            env["git_commit"] = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True,
                env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
                timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    # a checkout without .git still identifies its source by content
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "qpe")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                digest.update(fname.encode() + b"\0" + fh.read())
    env["src_sha256"] = digest.hexdigest()
    return env


def pin_cpu() -> int | None:
    """Pin this process, and so every process it starts, to one CPU."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main(argv=None) -> int:
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (measures setup_s)")
    args = parser.parse_args(argv)

    if args.setup_only:
        wl, _ = setup(args.workload, args.seed)
        print("ready", flush=True)
        wl.close()
        return 0

    import_library()
    cpu = pin_cpu()
    setup_samples = None if args.trace else setup_seconds(args.workload, args.seed)
    wl, warm = setup(args.workload, args.seed)
    lines = [f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
             f"trace {args.trace}"]
    try:
        stats = measure(wl, args.seconds)
        phases = [warm, stats]
        if args.trace:
            metrics, more, traced, correct = traced_run(wl, args, stats)
            phases.append(traced)
        else:
            metrics, more = end_to_end(wl, stats, setup_samples)
            correct = True
        lines += more
    finally:
        wl.close()

    attempted = sum(s.attempted for s in phases)
    failed = sum(s.failed for s in phases)
    for s in phases:
        for reason in s.reasons:
            print(f"bench: failed op: {reason}", file=sys.stderr)
    correct = correct and failed == 0
    print("\n".join(lines))
    print("env " + json.dumps(environment(cpu), sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
