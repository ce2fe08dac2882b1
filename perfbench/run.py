"""Run one workload of the regkit benchmark and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a regkit checkout; it imports the package from
``src``.  Workloads and metrics are listed, with their reasons and bounds,
in BENCHMARK.json.

The run starts worker processes (perfbench/worker.py), one at a time.
Each worker's set-up is timed from its start until it has imported
regkit, generated its inputs and factored its operators, so the sample
includes interpreter start and the first-LAPACK-call warm-up.  Then it
runs one segment of the timed loop.  Untraced runs use
``SEGMENTS[workload]`` workers, each timing an equal share of the
seconds; ``setup_s`` is the median of their set-up samples and the other
metrics pool their segments.  One process's speed on the matrix-free ops
varied by 25% or more from the next one's and held steady within it, so a
run that timed one process measured that luck.  Workers, and the
``python -m regkit`` processes of ``cli_sweep``, run BLAS on one thread
(see ``BLAS_THREADS_ENV``); every result records the thread count.
A traced run (``--trace 1``) uses one worker and reports the per-layer
metrics instead.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it holds the full record:
environment, exact counts and the sample count behind every timing.  A
table for humans goes to stderr.  ``correct`` is false when a result fails
its certificate, an op raises anything but a RegkitError, or the exact
counts of one input differ between two of its ops; ops that raise a
RegkitError count as failed without making the run incorrect.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("spectral_select", "dense_select", "matrix_free_select", "cli_sweep")
# Workers (set-up samples and loop segments) per untraced run: set-up takes
# ~3 s each on spectral_select (five SVDs at n=1024), ~0.5 s on the others.
SEGMENTS = {"spectral_select": 3, "dense_select": 9, "matrix_free_select": 9, "cli_sweep": 9}
# Pinned BLAS threads.  On the 2-core test VM, OpenBLAS's default of 2
# threads made dense_select ops 3.3x slower and CLI processes 1.3x slower
# (with 5x outliers) while a single busy process shared the machine; at 1
# thread both were unchanged by it.
BLAS_THREADS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# A worker must be done this long after its timed loop should have ended.
WORKER_SLACK_S = 100.0

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "discrepancy.solve_alpha_ms": "ms",
    "discrepancy.g_evals": "count",
    "discrepancy.g_evals_per_op": "count",
    "discrepancy.bracket_expansions": "count",
    "discrepancy.root_iterations": "count",
    "discrepancy.ms_per_g_eval": "ms",
    "discrepancy.discrepancy_value_self_ms": "ms",
    "tikhonov.solve_primal_calls": "count",
    "tikhonov.solve_primal_ms": "ms",
    "tikhonov.cg_iterations": "count",
    "tikhonov.final_solve_ms": "ms",
    "tikhonov.solve_spectral_ms": "ms",
    "operators.matvec_calls": "count",
    "operators.matvec_ms": "ms",
    "operators.svd_decompose_ms": "ms",
    "operators.svd_decompose_calls": "count",
    "problems.make_problem_ms": "ms",
    "problems.add_noise_ms": "ms",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main_ms": "ms",
    "experiments.run_sweep_ms": "ms",
    "experiments.records_to_csv_ms": "ms",
    "experiments.nan_rows": "count",
    "trace.overhead_frac": "frac",
}


class WorkerFailed(RuntimeError):
    pass


class Worker:
    """A worker process, from start through its ``ready`` line."""

    def __init__(self, args, segment, segments, limit_s):
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--segment", str(segment), "--segments", str(segments),
        ] + (["--tiny"] if args.tiny else [])
        env = dict(os.environ, **BLAS_THREADS_ENV)
        src = str(Path.cwd() / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
        self.timer = threading.Timer(limit_s, self.proc.kill)
        self.timer.start()
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - started
        if line.strip() != "ready":
            self.stop()
            raise WorkerFailed(f"worker {segment} did not get ready (exit {self.proc.returncode})")

    def finish(self):
        """Wait for the worker's segment; return its last output line, parsed."""
        out = self.proc.stdout.read()
        code = self.proc.wait()
        if code != 0:
            raise WorkerFailed(f"worker exited with {code}")
        return json.loads(out.strip().splitlines()[-1])

    def stop(self):
        """Kill the worker if it still runs, and wait until it has ended."""
        self.timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def measure(args):
    """Run the workers one after another; returns (set-up samples, their outputs)."""
    samples, outs = [], []
    segments = 1 if args.trace else SEGMENTS[args.workload]
    for k in range(segments):
        worker = Worker(args, k, segments, args.seconds / segments + WORKER_SLACK_S)
        try:
            samples.append(worker.setup_s)
            outs.append(worker.finish())
        finally:
            worker.stop()
    return samples, outs


def percentile(values, q):
    """The ``q``-th percentile, interpolated linearly as numpy does by default."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def pool_segments(outs):
    """End-to-end figures and totals over the workers' segments."""
    latencies = [ms for out in outs for ms in out["latencies_ms"]]
    timed_ops = sum(out["timed_ops"] for out in outs)
    timed_failed = sum(out["timed_failed"] for out in outs)
    pooled = {
        "ops_per_s": len(latencies) / sum(out["wall_s"] for out in outs),
        "op_ms_p50": percentile(latencies, 50),
        "op_ms_p90": percentile(latencies, 90),
        "peak_rss_mb": max(out["peak_rss_mb"] for out in outs),
        "fail_frac": timed_failed / timed_ops,
        "timed_ops": timed_ops,
        "latency_samples": len(latencies),
    }
    for key in ("attempted", "failed", "wrong", "unexpected", "count_mismatches"):
        pooled[key] = sum(out[key] for out in outs)
    return pooled


def git_commit(root):
    if not (root / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=root, env=env,
        capture_output=True, text=True, timeout=30,
    )
    return done.stdout.strip() or None


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="tiny problem sizes (self-test only)"
    )
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "regkit" / "__init__.py").is_file():
        print("perfbench: src/regkit not found; run from a regkit checkout", file=sys.stderr)
        return 2
    try:
        samples, outs = measure(args)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    out = pool_segments(outs)
    if args.trace:
        values = outs[0]["layers"]
        units = PER_LAYER_UNITS
    else:
        values = {key: out[key] for key in END_TO_END_UNITS if key != "setup_s"}
        values["setup_s"] = statistics.median(samples)
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    correct = out["wrong"] == 0 and out["unexpected"] == 0 and out["count_mismatches"] == 0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "git_commit": git_commit(root),
        "setup_samples_s": samples,
        "samples": {
            "setup_s": len(samples),
            "ops_per_s": out["timed_ops"],
            "op_ms_p50": out["latency_samples"],
            "op_ms_p90": out["latency_samples"],
            "op_ms_p90_beyond": out["latency_samples"] // 10,
        },
        "metrics": metrics,
        **{key: out[key] for key in out if key not in values},
        "environment": outs[0]["environment"],
        "segments": [
            {key: seg[key] for key in seg if key not in ("latencies_ms", "layers", "environment")}
            for seg in outs
        ],
    }
    print(json.dumps({"record": record}))
    for name, metric in metrics.items():
        print(f"{args.workload:>20} {name:<40} {metric['value']:>14.6g} {metric['unit']}",
              file=sys.stderr)
    print(f"{args.workload:>20} {'fail_frac':<40} {out['fail_frac']:>14.6g} frac "
          f"({out['failed']} of {out['attempted']} ops failed)", file=sys.stderr)
    if not correct:
        print(f"perfbench: INCORRECT: {out['wrong']} wrong results, {out['unexpected']} "
              f"untyped errors, {out['count_mismatches']} exact-count mismatches",
              file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
