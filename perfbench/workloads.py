"""The four workloads of the regkit benchmark.

Each workload builds a pool of op inputs from the workload seed during
set-up, before anything is timed, and the timed loop cycles through the
pool.  ``call`` is the timed part of an op and goes through public regkit
functions, looked up on their module at call time so that the traced run's
wrappers see them.  ``check`` is untimed: it judges the result against the
paper's certificates and returns the op's exact counts.

Noise levels are log-uniform in [1e-5, 1e-1] relative to ||f|| (in
[1e-3, 1e-1] on ``matrix_free_select``), spread evenly over that range per
problem (see ``noisy_pool``), so two seeds give the same spread of levels
and a run's mix does not depend on luck.  Each op has its own noise seed.  Pools are large enough that a run sees each input
only a few times; every repeat must reproduce the first one's exact counts.
Exact counts are summed over the first ``count_ops`` ops of a worker's
segment, which every segment completes (at half the usual speed too).
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from regkit import discrepancy, experiments, operators, problems

import spans

C = 1.5
REL_NOISE_LOG10 = (-5.0, -1.0)
GOLDEN = (5**0.5 - 1) / 2
SWEEP_DELTAS = "1e-1,1e-2,1e-3,1e-4,1e-5"
# Acceptance-6 residual limit and acceptance-7 norm limit.
RESIDUAL_REL_TOL = 1e-8
NORM_SLACK = 1e-10


def check_solution(solution, selection, delta, y_norm):
    """True when the residual-matched solution carries valid certificates."""
    target = C * delta
    limit = RESIDUAL_REL_TOL * target
    u_norm = float(np.linalg.norm(solution.u))
    return (
        abs(selection.achieved_residual - target) <= limit
        and abs(solution.residual_norm - target) <= limit
        and math.isfinite(u_norm)
        and u_norm <= (1.0 + NORM_SLACK) * y_norm
    )


class Item:
    """One op's inputs: the problem, its noisy data and the exact norm ||y||."""

    def __init__(self, problem, noisy):
        self.problem = problem
        self.f_delta = noisy.f_delta
        self.delta = noisy.delta
        self.y_norm = float(np.linalg.norm(problem.y))


def noisy_pool(rng, catalog, mix, blocks, noise_log10):
    """Items in ``blocks`` blocks, each holding problem ``name`` ``mix[name]`` times.

    Block order is a fresh permutation each time.  The k-th op of a problem
    takes the k-th point of a golden-ratio sequence with a random start as
    its position in the log noise range, so each level is log-uniform and
    every prefix of the pool spreads its levels evenly.
    """
    lo, hi = noise_log10
    start = {name: rng.random() for name in mix}
    taken = dict.fromkeys(mix, 0)
    block = [name for name, weight in mix.items() for _ in range(weight)]
    pool = []
    for _ in range(blocks):
        for j in rng.permutation(len(block)):
            name = block[j]
            position = (start[name] + taken[name] * GOLDEN) % 1.0
            taken[name] += 1
            problem = catalog[name]
            delta = 10.0 ** (lo + (hi - lo) * position) * float(np.linalg.norm(problem.f))
            noisy = problems.add_noise(problem, delta, int(rng.integers(2**62)))
            pool.append(Item(problem, noisy))
    return pool


class _Selecting:
    """Shared op for the in-process residual-matching workloads."""

    tracer = None  # set by the worker for the traced phase
    sizes = {}
    mix = {}
    blocks = {}
    noise_log10 = REL_NOISE_LOG10

    def setup(self, seed, tiny):
        rng = np.random.default_rng(np.random.Philox(seed))
        size = "tiny" if tiny else "full"
        catalog = {name: problems.make_problem(name, self.sizes[size]) for name in self.mix}
        self.pool = noisy_pool(rng, catalog, self.mix, self.blocks[size], self.noise_log10)
        self.cfg = discrepancy.DiscrepancyConfig(C=C)

    def system(self, item):
        raise NotImplementedError

    def call(self, item):
        return discrepancy.regularized_solve_auto(
            self.system(item), item.f_delta, item.delta, self.cfg
        )

    def check(self, item, result, error):
        if error is not None:
            iterations = getattr(error, "iterations", None)
            return False, {"error": type(error).__name__, "iterations": iterations}
        solution, selection = result
        counts = {
            "g_evals": 2 + selection.bracket_expansions + selection.iterations,
            "bracket_expansions": selection.bracket_expansions,
            "root_iterations": selection.iterations,
            "final_cg_iterations": solution.iterations,
        }
        return check_solution(solution, selection, item.delta, item.y_norm), counts


class SpectralSelect(_Selecting):
    """The 5 catalog problems at n=1024, each factored once during set-up.

    Every op shares one factorization, so op time is almost all root search
    at O(n*rank) per g(alpha) evaluation; the five SVDs fall into set-up.
    """

    name = "spectral_select"
    sizes = {"full": 1024, "tiny": 48}
    mix = {name: 1 for name in problems.PROBLEM_NAMES}
    blocks = {"full": 200, "tiny": 2}
    count_ops = 100

    def system(self, item):
        return item.problem.decomp


class DenseSelect(_Selecting):
    """deriv2, gradient_family, hilbert and phillips at n=128, no decomposition.

    Ops share no work: each gets a fresh DenseOperator, so every g(alpha)
    evaluation does its own stacked QR.
    """

    name = "dense_select"
    sizes = {"full": 128, "tiny": 24}
    mix = {"deriv2": 1, "gradient_family": 1, "hilbert": 1, "phillips": 1}
    blocks = {"full": 100, "tiny": 1}
    count_ops = 20

    def system(self, item):
        return operators.DenseOperator(item.problem.op.matrix)


class CountingMatvec:
    """Dense matvec callbacks that count their calls, timed when traced."""

    def __init__(self, matrix, timed):
        self.matrix = matrix
        self.calls = 0
        self.seconds = 0.0
        if timed:
            self.forward = self._timed(self._forward)
            self.adjoint = self._timed(self._adjoint)
        else:
            self.forward, self.adjoint = self._forward, self._adjoint

    def _forward(self, x):
        self.calls += 1
        return self.matrix @ x

    def _adjoint(self, w):
        self.calls += 1
        return self.matrix.T @ w

    def _timed(self, func):
        def timed(v):
            started = time.perf_counter()
            try:
                return func(v)
            finally:
                self.seconds += time.perf_counter() - started

        return timed


class MatrixFreeSelect(_Selecting):
    """deriv2 and gradient_family at n=256 behind counting callbacks.

    The only workload where CG iterations and callback matvecs dominate.
    No op may fail, so two inputs that fail under the default
    DiscrepancyConfig stay out: phillips (its first g(alpha) evaluation, at
    alpha=1e-14, exhausts the CG budget) and relative noise below 1e-3
    (some deriv2 root searches stall on the CG error of g near the root,
    seen at 3e-4 and below).
    """

    name = "matrix_free_select"
    sizes = {"full": 256, "tiny": 24}
    noise_log10 = (-3.0, -1.0)
    # Passing ops form two groups: deriv2 at ~75 ms and gradient_family at
    # ~300 ms.  With 24 deriv2 ops per gradient_family op the fast group
    # holds 96% of the ops, so p50 and p90 both sit inside it, never in
    # the gap.  A percentile inside the slow group spread twice as much
    # from run to run.
    mix = {"deriv2": 24, "gradient_family": 1}
    blocks = {"full": 8, "tiny": 1}
    count_ops = 15
    matvec_seconds = 0.0  # callback time summed over traced ops

    def system(self, item):
        self.matvec = CountingMatvec(
            np.asarray(item.problem.op.matrix), timed=self.tracer is not None
        )
        rows, cols = item.problem.op.matrix.shape
        return operators.MatrixFreeOperator(
            rows, cols, self.matvec.forward, self.matvec.adjoint
        )

    def check(self, item, result, error):
        ok, counts = super().check(item, result, error)
        counts["matvec_calls"] = self.matvec.calls
        self.matvec_seconds += self.matvec.seconds
        return ok, counts


class CliSweep:
    """Repeated ``python -m regkit sweep`` processes, one at a time.

    The only workload where interpreter start and ``import regkit``
    dominate; each process also pays one SVD at n=256, argparse and CSV
    output.  Expected output is computed in-process during set-up.
    """

    name = "cli_sweep"
    sizes = {"full": 256, "tiny": 24}
    pool_size = {"full": 10, "tiny": 2}
    count_ops = 2
    tracer = None  # set by the worker for the traced phase

    def setup(self, seed, tiny):
        rng = np.random.default_rng(np.random.Philox(seed))
        self.n = self.sizes["tiny" if tiny else "full"]
        deltas = [float(d) for d in SWEEP_DELTAS.split(",")]
        self.pool = []
        for _ in range(self.pool_size["tiny" if tiny else "full"]):
            sweep_seed = int(rng.integers(2**31))
            records = experiments.run_sweep("deriv2", self.n, deltas, sweep_seed)
            expected = experiments.records_to_csv(records).encode("ascii")
            self.pool.append((sweep_seed, expected))

    def argv(self, sweep_seed):
        return [
            "sweep", "--problem", "deriv2", "--n", str(self.n),
            "--deltas", SWEEP_DELTAS, "--seed", str(sweep_seed),
        ]

    def call(self, item):
        if self.tracer is None:
            return subprocess.run(
                [sys.executable, "-m", "regkit"] + self.argv(item[0]),
                capture_output=True, timeout=120,
            )
        child = [sys.executable, str(Path(__file__).with_name("cli_child.py"))]
        result = subprocess.run(child + self.argv(item[0]), capture_output=True, timeout=120)
        last = result.stderr.rstrip(b"\n").rsplit(b"\n", 1)[-1].decode()
        if not last.startswith(spans.SPANS_MARKER):
            raise RuntimeError(f"traced CLI child left no spans: {result.stderr[-500:]!r}")
        self.tracer.adopt(json.loads(last[len(spans.SPANS_MARKER):]), self.tracer.current())
        return result

    def check(self, item, result, error):
        if error is not None:
            return False, {"error": type(error).__name__}
        ok = result.returncode == 0 and result.stdout == item[1]
        counts = {"returncode": result.returncode}
        if ok:
            rows = experiments.parse_records_csv(result.stdout.decode("ascii"))
            counts["nan_rows"] = sum(math.isnan(r.alpha) for r in rows)
        return ok, counts


WORKLOADS = {
    cls.name: cls for cls in (SpectralSelect, DenseSelect, MatrixFreeSelect, CliSweep)
}
