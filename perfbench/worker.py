"""One benchmark process: set up a workload, then run its timed loop.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
                                --trace 0|1 [--segment K --segments M] [--tiny]

``perfbench/run.py`` starts it with ``src`` on PYTHONPATH.  The worker
imports regkit, builds the workload's inputs and factorizations, and
prints ``ready``; the time from process start to that line is one set-up
sample.  Then it runs segment K of M of the closed loop (one caller, one
op after another): S/M seconds, starting at the K-th M-th of the pool.
It prints one JSON line with its measurements; run.py pools the segments.

With ``--trace 1`` the loop runs twice over the same ops: first untraced
for half the time, then with the span wrappers installed.  The difference
of the two walls is the tracing overhead; the spans of the second give the
per-layer metrics.
"""

import argparse
import glob
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import spans

INTERPRETER_SAMPLES = 5
# Inputs run again, untimed, after the first segment's loop: their exact
# counts must match their first run.  (A traced run replays every op instead.)
RECHECK_OPS = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--segment", type=int, default=0)
    parser.add_argument("--segments", type=int, default=1)
    parser.add_argument("--tiny", action="store_true")
    return parser.parse_args(argv)


class Phase:
    """Outcome of one phase of the closed loop."""

    def __init__(self):
        self.latencies_ms = []  # passing ops only
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # returned a result that failed its check
        self.unexpected = 0  # raised something other than a RegkitError
        self.mismatches = 0  # exact counts differ from an earlier op on the same input
        self.counted = []  # (ok, counts) of the first workload.count_ops ops
        self.wall_s = 0.0


def run_phase(workload, first_counts, seconds=None, n_ops=None, tracer=None, offset=0):
    """Closed loop over the pool, for ``seconds`` (and ``count_ops`` ops) or for ``n_ops`` ops.

    The loop starts at pool index ``offset`` and cycles.  ``first_counts``
    maps a pool index to the exact counts of its first op; an op on the
    same input that gives other counts is a mismatch.
    """
    from regkit.errors import RegkitError

    pool = workload.pool
    phase = Phase()
    started = time.perf_counter()
    i = 0
    while True:
        if n_ops is not None:
            if i >= n_ops:
                break
        elif i >= workload.count_ops and time.perf_counter() - started >= seconds:
            break
        key = (offset + i) % len(pool)
        item = pool[key]
        if tracer is not None:
            tracer.op_id = i
            op_span = tracer.begin("op")
        result = error = None
        t0 = time.perf_counter()
        try:
            result = workload.call(item)
        except RegkitError as exc:
            error = exc
        except Exception as exc:  # a bug in the program: count it, report it, go on
            error = exc
            if not phase.unexpected:
                traceback.print_exc()
            phase.unexpected += 1
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.end(op_span)
        ok, counts = workload.check(item, result, error)
        phase.attempted += 1
        if ok:
            phase.latencies_ms.append(latency * 1e3)
        else:
            phase.failed += 1
            phase.wrong += error is None
        if key not in first_counts:
            first_counts[key] = counts
        elif first_counts[key] != counts:
            if not phase.mismatches:
                print(
                    f"perfbench: EXACT COUNTS DIFFER on input {key}: "
                    f"{first_counts[key]} then {counts}",
                    file=sys.stderr,
                )
            phase.mismatches += 1
        if i < workload.count_ops:
            phase.counted.append((ok, counts))
        i += 1
    phase.wall_s = time.perf_counter() - started
    return phase


def exact_counts(counted):
    """Exact counts over the first ``count_ops`` ops, from returned objects."""
    passing = [c for ok, c in counted if ok]
    g_evals = sum(c.get("g_evals", 0) for c in passing)
    return {
        "ops": len(counted),
        "passing_ops": len(passing),
        "g_evals": g_evals,
        "g_evals_per_op": g_evals / len(passing) if passing else 0.0,
        "bracket_expansions": sum(c.get("bracket_expansions", 0) for c in passing),
        "root_iterations": sum(c.get("root_iterations", 0) for c in passing),
        "matvec_calls": sum(c.get("matvec_calls", 0) for _ok, c in counted),
        "nan_rows": sum(c.get("nan_rows", 0) for c in passing),
    }


def layer_metrics(tracer, ops, counts, workload, import_ms):
    """Per-layer metrics from the spans of the traced phase (``ops`` ops)."""
    all_spans = tracer.spans
    selfs = spans.self_times(all_spans)

    def loop(name):
        return [i for i, s in enumerate(all_spans) if s[spans.NAME] == name and s[spans.OP] >= 0]

    def total_ms(indices):
        return 1e3 * sum(all_spans[i][spans.END] - all_spans[i][spans.START] for i in indices)

    def per_call_ms(name):
        """Mean call time in the timed loop, or in set-up if the loop makes no calls."""
        calls = loop(name) or [i for i, s in enumerate(all_spans) if s[spans.NAME] == name]
        return total_ms(calls) / len(calls) if calls else 0.0

    def counted(name):
        """Spans of set-up and of the first ``count_ops`` ops: exact counts."""
        return [s for s in all_spans if s[spans.NAME] == name and s[spans.OP] < workload.count_ops]

    solve_alpha_ms = total_ms(loop("discrepancy.solve_alpha"))
    g_spans = loop("discrepancy.discrepancy_value")
    final = [
        i for i in loop("tikhonov.solve_primal") + loop("tikhonov.solve_spectral")
        if all_spans[i][spans.PARENT] >= 0
        and all_spans[all_spans[i][spans.PARENT]][spans.NAME] == "discrepancy.regularized_solve_auto"
    ]
    cli_imports = loop("cli.import")
    return {
        "discrepancy.solve_alpha_ms": solve_alpha_ms / ops,
        "discrepancy.g_evals": counts["g_evals"],
        "discrepancy.g_evals_per_op": counts["g_evals_per_op"],
        "discrepancy.bracket_expansions": counts["bracket_expansions"],
        "discrepancy.root_iterations": counts["root_iterations"],
        "discrepancy.ms_per_g_eval": solve_alpha_ms / len(g_spans) if g_spans else 0.0,
        "discrepancy.discrepancy_value_self_ms": 1e3 * sum(selfs[i] for i in g_spans) / ops,
        "tikhonov.solve_primal_calls": len(counted("tikhonov.solve_primal")),
        "tikhonov.solve_primal_ms": total_ms(loop("tikhonov.solve_primal")) / ops,
        "tikhonov.cg_iterations": sum(
            s[spans.VALUE] or 0 for s in counted("tikhonov.solve_primal")
        ),
        "tikhonov.final_solve_ms": total_ms(final) / ops,
        "tikhonov.solve_spectral_ms": total_ms(loop("tikhonov.solve_spectral")) / ops,
        "operators.matvec_calls": counts["matvec_calls"],
        "operators.matvec_ms": 1e3 * getattr(workload, "matvec_seconds", 0.0) / ops,
        "operators.svd_decompose_ms": per_call_ms("operators.svd_decompose"),
        "operators.svd_decompose_calls": len(counted("operators.svd_decompose")),
        "problems.make_problem_ms": per_call_ms("problems.make_problem"),
        "problems.add_noise_ms": per_call_ms("problems.add_noise"),
        "cli.interpreter_ms": interpreter_ms(),
        "cli.import_ms": total_ms(cli_imports) / len(cli_imports) if cli_imports else import_ms,
        "cli.main_ms": total_ms(loop("cli.main")) / ops,
        "experiments.run_sweep_ms": total_ms(loop("experiments.run_sweep")) / ops,
        "experiments.records_to_csv_ms": total_ms(loop("experiments.records_to_csv")) / ops,
        "experiments.nan_rows": counts["nan_rows"],
    }


def interpreter_ms():
    """Median wall time of a bare ``python -c pass``."""
    samples = []
    for _ in range(INTERPRETER_SAMPLES):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        samples.append((time.perf_counter() - started) * 1e3)
    return statistics.median(samples)


def blas_threads():
    """OpenBLAS's run-time thread count, asked from the library numpy loaded."""
    import ctypes

    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                func.argtypes = []
                return func()
    return None


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "openblas_configuration": blas.get("openblas configuration"),
            "threads": blas_threads(),
        },
        "thread_env": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB


def main():
    args = parse_args()
    started = time.perf_counter()
    import regkit.cli  # noqa: F401  (timed: this is the import every user pays)

    import_ms = (time.perf_counter() - started) * 1e3
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    tracer = spans.Tracer() if args.trace else None
    if tracer is None:
        workload.setup(args.seed, args.tiny)
    else:
        with spans.patched(tracer):
            workload.setup(args.seed, args.tiny)
    workload.count_ops = min(workload.count_ops, len(workload.pool))
    print("ready", flush=True)

    first_counts = {}
    offset = args.segment * len(workload.pool) // args.segments
    seconds = args.seconds / args.segments
    if tracer:
        seconds /= 2
    untraced = run_phase(workload, first_counts, seconds=seconds, offset=offset)
    phases = [untraced]
    counts = exact_counts(untraced.counted)
    out = {}
    if tracer is None:
        checked = list(phases)
        if args.segment == 0:
            checked.append(run_phase(workload, first_counts, n_ops=RECHECK_OPS, offset=offset))
    else:
        workload.tracer = tracer
        with spans.patched(tracer):
            traced = run_phase(workload, first_counts, n_ops=untraced.attempted, tracer=tracer)
        workload.tracer = None
        phases.append(traced)
        checked = phases
        layers = layer_metrics(tracer, traced.attempted, counts, workload, import_ms)
        layers["trace.overhead_frac"] = traced.wall_s / untraced.wall_s - 1.0
        out["layers"] = layers
        out["traced_ops"] = traced.attempted
        out["spans"] = len(tracer.spans)
    out.update(
        attempted=sum(p.attempted for p in phases),
        failed=sum(p.failed for p in phases),
        wrong=sum(p.wrong for p in checked),
        unexpected=sum(p.unexpected for p in checked),
        count_mismatches=sum(p.mismatches for p in checked),
        timed_ops=untraced.attempted,
        timed_failed=untraced.failed,
        latencies_ms=untraced.latencies_ms,
        wall_s=untraced.wall_s,
        peak_rss_mb=peak_rss_mb(children=args.workload == "cli_sweep"),
        import_ms=import_ms,
        pool_size=len(workload.pool),
        count_ops=workload.count_ops,
        counts=counts,
        environment=environment(),
    )
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
