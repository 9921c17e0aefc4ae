"""swapqkd benchmark: closed-loop, single-client workloads with output checks.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
two lines before it carry the run metadata and a summary that includes
``error_rate``, ``ops_per_s``, ``latency_ms_p50`` and ``latency_ms_min``.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import ops
from tracer import TARGETS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
OUT = HERE / "out"

# An untraced run measures at least this many ops, so that ten or more fall
# beyond p90: it keeps going past --seconds until it has them, but not past
# MAX_FACTOR times --seconds.  Every run measures the reference ops.
MIN_OPS = 100
MAX_FACTOR = 2
SETUP_SAMPLES = 7
# After one warm-up op, the first ops are run once untraced before the
# measured loop; the loop re-runs them and requires byte-identical stdout
# (determinism, and traced output equal to untraced output).
REFERENCE_OPS = 3
# Spans are kept for this many ops of a traced run; counters cover all ops.
SPAN_OPS = 2
CHILD_TIMEOUT_S = 60


@dataclass
class OpResult:
    latency_ns: int
    stdout: str  # for an exact pass, the SHA-256 of its stdout
    errors: list[str] = field(default_factory=list)
    maxrss_kb: int = 0


class CliWorkload:
    """Monte Carlo workload: each op is one ``cli.main`` call in this process."""

    def __init__(self, argv, check, detection_p, op_size):
        self.argv = argv
        self.check = check
        self.detection_p = detection_p
        self.op_size = op_size
        self.p = None
        self.cli = None
        self.tracer: Tracer | None = None
        self.spans_path: Path | None = None

    def prepare(self) -> None:
        import swapqkd
        from swapqkd import cli

        if not Path(swapqkd.__file__).resolve().is_relative_to(SRC):
            raise RuntimeError(f"imported swapqkd from {swapqkd.__file__}, not {SRC}")
        self.cli = cli
        self.p = self.detection_p()

    def start_trace(self, spans_path: Path) -> None:
        self.spans_path = spans_path
        self.tracer = Tracer(keep_ops=SPAN_OPS)
        self.tracer.install()

    def stop_trace(self) -> dict:
        self.tracer.uninstall()
        self.tracer.write_spans(self.spans_path)
        counters, self.tracer = self.tracer.counters(), None
        return counters

    def run_op(self, op: int, seed: int, traced: bool) -> OpResult:
        if traced:
            self.tracer.begin_op(op)
        start = time.perf_counter_ns()
        rc, out = ops.run_cli(self.cli, self.argv(seed))
        latency = time.perf_counter_ns() - start
        return OpResult(latency, out, self.check(rc, out, self.p))

    def peak_rss_kb(self, results: list[OpResult]) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def close(self) -> None:
        pass


class ExactWorkload:
    """Exact workload: each op is one full exact pass in a freshly forked process."""

    op_size = {"pass": "validate-convention, reproduce-table1, reproduce-table2, "
                       "derive-attack; 4 attacks x 2 procedures x 2 probabilities"}

    def __init__(self):
        self.expected = ops.exact_expected()
        self.spans_path: Path | None = None
        self.counters: list[dict] = []
        self.server: subprocess.Popen | None = None

    def prepare(self) -> None:
        # The server forks; with one BLAS thread numpy starts no threads.
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        self.server = subprocess.Popen(
            [sys.executable, str(CHILD), "serve", str(CHILD_TIMEOUT_S)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env,
        )

    def close(self) -> None:
        if self.server is None:
            return
        self.server.stdin.close()
        try:
            self.server.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        self.server.stdout.close()
        self.server = None

    def start_trace(self, spans_path: Path) -> None:
        self.spans_path = spans_path

    def stop_trace(self) -> dict:
        total = {"calls": dict.fromkeys(TARGETS, 0), "self_ns": dict.fromkeys(TARGETS, 0),
                 "branches": 0, "covered_ns": 0, "absent": []}
        for counters in self.counters:
            for key in ("calls", "self_ns"):
                for name, value in counters[key].items():
                    total[key][name] += value
            total["branches"] += counters["branches"]
            total["covered_ns"] += counters["covered_ns"]
            total["absent"] = counters["absent"]
        return total

    def run_op(self, op: int, seed: int, traced: bool) -> OpResult:
        request = {
            "seed": seed, "op": op,
            "spans_path": str(self.spans_path) if traced else None,
            "keep_spans": op < SPAN_OPS,
        }
        start = time.perf_counter_ns()
        self.server.stdin.write(json.dumps(request) + "\n")
        self.server.stdin.flush()
        line = self.server.stdout.readline()
        try:
            result = json.loads(line)
        except ValueError:
            result = {"error": f"no reply from the exact-pass server: {line!r}"}
        if "error" in result:
            # The pass's own time is unknown; the wall time stands in.
            return OpResult(time.perf_counter_ns() - start, "", [result["error"]])
        if traced:
            self.counters.append(result["trace"])
        return OpResult(
            result["latency_ns"], result["stdout_sha256"],
            ops.check_exact(result, self.expected), result["maxrss_kb"],
        )

    def peak_rss_kb(self, results: list[OpResult]) -> int:
        return max(r.maxrss_kb for r in results)


def make_workload(name: str):
    if name == "curve-six-mixed":
        return CliWorkload(
            ops.curve_argv, ops.check_curve, ops.curve_p,
            {"n": list(ops.CURVE_N), "reps": ops.CURVE_REPS},
        )
    if name == "simulate-four-swap":
        return CliWorkload(
            ops.simulate_argv, ops.check_simulate, ops.simulate_p,
            {"rounds": ops.SIM_ROUNDS},
        )
    return ExactWorkload()


WORKLOADS = ("curve-six-mixed", "simulate-four-swap", "exact-analysis")


def setup_sample(workload: str, seed: int) -> float:
    """Set-up time of one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(CHILD), "setup", workload, str(seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    sys.stderr.write(proc.stderr)
    result = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else None
    if result is None or result["errors"]:
        raise RuntimeError(f"set-up op failed: exit {proc.returncode}, {result}")
    return result["setup_s"]


def run_metadata(args) -> dict:
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "swapqkd").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "cpu_model": cpu_model,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(measured: list[OpResult], setup_s: float, peak_rss_kb: int) -> dict:
    latencies_ms = [r.latency_ns / 1e6 for r in measured]
    return {
        "setup_s": _metric(setup_s, "s"),
        "latency_ms_p90": _metric(statistics.quantiles(latencies_ms, n=10)[8], "ms"),
        "peak_rss_mb": _metric(peak_rss_kb / 1024, "MB"),
    }


def unbounded(measured: list[OpResult]) -> dict:
    """Throughput, median and fastest latency: printed, too host-dependent to bound."""
    latencies_ms = [r.latency_ns / 1e6 for r in measured]
    return {
        "ops_per_s": _metric(len(measured) / (sum(latencies_ms) / 1e3), "1/s"),
        "latency_ms_p50": _metric(statistics.median(latencies_ms), "ms"),
        "latency_ms_min": _metric(min(latencies_ms), "ms"),
    }


def per_layer(measured: list[OpResult], refs: list[OpResult], counters: dict) -> dict:
    ops_count = len(measured)
    metrics = {}
    for name in TARGETS:
        metrics[f"{name}.calls"] = _metric(counters["calls"][name] / ops_count, "count/op")
        metrics[f"{name}.self_ms"] = _metric(counters["self_ns"][name] / ops_count / 1e6, "ms/op")
    metrics["protocol.enumerate_plan.branches"] = _metric(
        counters["branches"] / ops_count, "count/op")
    rngs = counters["calls"]["qstate.RandomSource"]
    rounds = counters["calls"]["protocol.run_round"]
    metrics["harness.rounds_per_rng"] = _metric(rounds / rngs if rngs else 0.0, "ratio")
    traced_ns = sum(r.latency_ns for r in measured)
    metrics["untraced.self_ms"] = _metric(
        (traced_ns - counters["covered_ns"]) / ops_count / 1e6, "ms/op")
    compared = min(len(refs), ops_count)
    metrics["trace.overhead_ratio"] = _metric(
        sum(r.latency_ns for r in measured[:compared])
        / sum(r.latency_ns for r in refs[:compared]), "ratio")
    return metrics


def _measure(workload, args):
    """Warm-up, reference ops, then the closed loop.

    An untraced run also takes SETUP_SAMPLES set-up samples, spread evenly
    over the loop between ops, so that their median spans the host's fast
    and slow phases rather than one moment; a first, uncounted sample warms
    caches.  Returns (ops outside the loop, reference ops, measured ops,
    counters, median set-up seconds or None).
    """
    seeds = ops.op_seeds(args.workload, args.seed)
    op_seed = [next(seeds) for _ in range(REFERENCE_OPS)]
    warm = workload.run_op(0, op_seed[0], traced=False)
    refs = [workload.run_op(k, op_seed[k], traced=False) for k in range(REFERENCE_OPS)]

    if args.trace:
        OUT.mkdir(exist_ok=True)
        spans_path(args).write_text("")
        workload.start_trace(spans_path(args))
    setup = [] if args.trace else [setup_sample(args.workload, args.seed)]
    measured: list[OpResult] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if setup and len(setup) <= SETUP_SAMPLES * min(1.0, elapsed / args.seconds):
            setup.append(setup_sample(args.workload, args.seed + len(setup)))
            continue
        if len(measured) >= REFERENCE_OPS and elapsed >= args.seconds and (
            len(measured) >= (REFERENCE_OPS if args.trace else MIN_OPS)
            or elapsed >= MAX_FACTOR * args.seconds
        ):
            break
        k = len(measured)
        if k >= len(op_seed):
            op_seed.append(next(seeds))
        result = workload.run_op(k, op_seed[k], traced=bool(args.trace))
        if k < REFERENCE_OPS and result.stdout != refs[k].stdout:
            result.errors.append("stdout differs from the earlier untraced run of the same op")
        measured.append(result)
    counters = workload.stop_trace() if args.trace else None
    while setup and len(setup) <= SETUP_SAMPLES:
        setup.append(setup_sample(args.workload, args.seed + len(setup)))
    setup_s = statistics.median(setup[1:]) if setup else None
    return [warm, *refs], refs, measured, counters, setup_s


def spans_path(args) -> Path:
    return OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"


def run(args) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, summary)."""
    workload = make_workload(args.workload)
    workload.prepare()
    try:
        unmeasured, refs, measured, counters, setup_s = _measure(workload, args)
    finally:
        workload.close()

    attempted = unmeasured + measured
    failed = [r for r in attempted if r.errors]
    for r in failed[:5]:
        sys.stderr.write(f"failed op: {'; '.join(r.errors)}\n")
    if args.trace:
        metrics = per_layer(measured, refs, counters)
    else:
        metrics = end_to_end(measured, setup_s, workload.peak_rss_kb(attempted))
    line = {
        "correct": not failed,
        "attempted": len(attempted),
        "failed": len(failed),
        "metrics": metrics,
    }
    p90 = statistics.quantiles([r.latency_ns for r in measured], n=10)[8]
    summary = {
        "error_rate": _metric(len(failed) / len(attempted), "ratio"),
        **unbounded(measured),
        "measured_ops": len(measured),
        "ops_beyond_p90": sum(1 for r in measured if r.latency_ns > p90),
        "op_size": workload.op_size,
        "detection_p": getattr(workload, "p", None),
        "absent_layers": counters["absent"] if counters else None,
        "spans_file": str(spans_path(args).relative_to(ROOT)) if args.trace else None,
    }
    return line, summary


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "swapqkd" / "__init__.py").is_file():
        sys.stderr.write(f"run.py: no swapqkd sources under {SRC}; run from a source checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    meta = run_metadata(args)
    line, summary = run(args)
    print("meta " + json.dumps(meta, sort_keys=True))
    print("summary " + json.dumps(summary, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
