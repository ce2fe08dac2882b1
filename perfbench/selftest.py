"""Quick self-test of the benchmark, kept out of the tier-1 suite.

    python3 perfbench/selftest.py

Run it from the root of a regkit checkout.  It takes under a minute:

* runs every workload at tiny sizes, untraced and traced, and checks the
  printed metric names and units against BENCHMARK.json;
* runs one tiny workload twice with the same seed, in separate processes,
  and requires identical exact counts;
* feeds deliberately perturbed solutions and CLI output through the
  checks and requires each to be counted as a failed, wrong op;
* checks that the trace refuses a missing target and restores what it
  wrapped;
* checks that the benchmark fails, without a result, where there is no
  regkit to run.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402


class SelfTestFailure(AssertionError):
    pass


def expect(condition, message):
    if not condition:
        raise SelfTestFailure(message)


def run_bench(workload, seed, trace, cwd=ROOT):
    """Run the benchmark at tiny sizes; return (exit code, record, result)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        return done.returncode, None, None
    return done.returncode, json.loads(lines[-2])["record"], json.loads(lines[-1])


def check_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json workloads differ from perfbench/run.py")
    for key, table in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", run.PER_LAYER_UNITS)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        expect(listed == table, f"BENCHMARK.json {key} names or units differ from perfbench/run.py")
    return spec


def check_tiny_runs(spec):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        for workload in run.WORKLOADS:
            code, _record, result = run_bench(workload, 7, trace)
            expect(code == 0, f"{workload} --trace {trace} exited with {code}")
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{workload}: result keys {sorted(result)}")
            expect(result["correct"], f"{workload} --trace {trace} reported incorrect output")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == wanted, f"{workload} --trace {trace}: metrics {got} != {wanted}")
            print(f"ok  tiny {workload} --trace {trace}")


def check_counts_repeat():
    runs = [run_bench("matrix_free_select", 11, 0)[1] for _ in range(2)]
    counts = [[seg["counts"] for seg in run["segments"]] for run in runs if run is not None]
    expect(len(counts) == 2 and counts[0] == counts[1],
           "exact counts differ between two runs with the same seed")
    print("ok  exact counts repeat across processes")


def check_perturbed_outputs_fail():
    import worker
    import workloads

    workload = workloads.SpectralSelect()
    workload.setup(5, tiny=True)
    item = workload.pool[0]
    solution, selection = workload.call(item)
    ok, _counts = workload.check(item, (solution, selection), None)
    expect(ok, "an unperturbed solution failed its check")
    residual, achieved = solution.residual_norm, selection.achieved_residual
    perturbed = [
        (dataclasses.replace(solution, residual_norm=residual * (1 + 1e-6)), selection),
        (solution, dataclasses.replace(selection, achieved_residual=achieved * (1 - 1e-6))),
        (dataclasses.replace(solution, u=solution.u + item.problem.y), selection),
    ]
    for result in perturbed:
        ok, _counts = workload.check(item, result, None)
        expect(not ok, "a perturbed solution passed its check")

    # Through the timed loop: every op returns a perturbed solution.
    honest_call = workload.call

    def perturbed_call(it):
        solution, selection = honest_call(it)
        return dataclasses.replace(solution, residual_norm=0.0), selection

    workload.call = perturbed_call
    phase = worker.run_phase(workload, {}, n_ops=len(workload.pool))
    expect(phase.failed == phase.attempted == phase.wrong == len(workload.pool),
           f"perturbed ops not all counted as wrong failures: {vars(phase)}")

    cli = workloads.CliSweep()
    cli.setup(5, tiny=True)
    _sweep_seed, expected = cli.pool[0]
    good = subprocess.CompletedProcess([], 0, expected, b"")
    bad = subprocess.CompletedProcess([], 0, expected.replace(b"deriv2", b"deriv3", 1), b"")
    expect(cli.check(cli.pool[0], good, None)[0], "expected CLI output failed its check")
    expect(not cli.check(cli.pool[0], bad, None)[0], "perturbed CLI output passed its check")
    print("ok  perturbed solutions and CLI output count as failures")


def check_trace_integrity():
    import regkit.discrepancy

    original = regkit.discrepancy.solve_alpha
    tracer = spans.Tracer()
    with spans.patched(tracer):
        expect(regkit.discrepancy.solve_alpha is not original, "solve_alpha was not wrapped")
    expect(regkit.discrepancy.solve_alpha is original, "solve_alpha was not restored")
    try:
        with spans.patched(tracer, spans.TARGETS + (("regkit.discrepancy", "no_such_name"),)):
            pass
    except spans.TraceTargetMissing:
        pass
    else:
        raise SelfTestFailure("a missing trace target was not refused")
    expect(regkit.discrepancy.solve_alpha is original, "a refused trace left a wrapper behind")
    print("ok  trace refuses missing targets and restores wrappers")


def check_fails_without_regkit():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, _record, result = run_bench("dense_select", 1, 0, cwd=tmp)
    expect(code != 0 and result is None, "the benchmark ran without a regkit checkout")
    print("ok  fails without a regkit checkout")


def main():
    spec = check_benchmark_json()
    check_trace_integrity()
    check_perturbed_outputs_fail()
    check_fails_without_regkit()
    check_counts_repeat()
    check_tiny_runs(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
