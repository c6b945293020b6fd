"""lossbell benchmark: three workloads, end-to-end rates and per-layer counts.

Run from the repository root:

    python3 bench/run.py --workload sweep-exhaustive [--seed 1729] [--seconds 20] [--trace 0|1]
    python3 bench/run.py --workload query-mixture --steadiness 10   # spread per metric
    python3 bench/run.py --workload verify-oracle --smoke --seconds 0

A run builds the workload's seeded operation list, computes every expected
output with the reference checker (untimed), warms up, then repeats whole
rounds of the list, one operation at a time in this process, as many as
fit in ``--seconds`` of operation time (at least one).  Every output is
checked.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # pin numpy's thread pool before numpy loads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1729
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 180
# Seconds one calibration pass takes on the reference machine (README).
CALIBRATION_REFERENCE_S = 0.0011
# A fixed graph for the calibration pass: a hub joined to every other vertex,
# plus three edges between its neighbours.
CALIBRATION_GRAPH = (8, [(0, v) for v in range(1, 8)] + [(1, 2), (3, 4), (5, 6)])


def import_program() -> None:
    """Put this checkout's ``src`` first on the path and import lossbell."""
    if not (SRC / "lossbell" / "__init__.py").is_file():
        sys.exit(f"error: no lossbell sources at {SRC.relative_to(ROOT)}/lossbell")
    sys.path.insert(0, str(SRC))
    import lossbell  # noqa: F401


# -- one operation, one round ---------------------------------------------------------


def execute(op):
    """Run one operation with its output captured; returns (seconds, outcome)."""
    import checks
    from lossbell import cli

    out = checks.Outcome()
    stdout, stderr = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            if op.argv is not None:
                out.exit_code = cli.main(list(op.argv))
            else:
                out.result = op.call()
    except Exception as exc:  # an operation that crashes counts as failed
        out.error = exc
    elapsed = perf_counter() - start
    out.stdout, out.stderr = stdout.getvalue(), stderr.getvalue()
    return elapsed, out


def calibration_pass() -> float:
    """Wall time of one fixed pass of the benchmark's reference checker.

    It runs none of the program's code, so only the host's speed moves it:
    the passes around an operation measure how fast the host ran meanwhile.
    An untimed pass first brings its code and data back into the caches, so
    what the operation before it left there does not count.
    """
    import reference as ref

    g = ref.RefGraph(*CALIBRATION_GRAPH)
    ref.sweep(g, range(g.n), 2)
    start = perf_counter()
    ref.sweep(g, range(g.n), 2)
    return perf_counter() - start


@dataclass
class Round:
    times: list[float] = field(default_factory=list)  # per operation, in order
    calibration: list[float] = field(default_factory=list)  # before each, one after
    failed: list[int] = field(default_factory=list)  # indices of failed operations
    errors: list[str] = field(default_factory=list)  # wrong outputs
    failures: list[str] = field(default_factory=list)  # operations that failed

    def reference_times(self) -> list[float]:
        """Each operation's time at the reference machine's speed: scaled by
        the mean of the five calibration passes nearest to it, the two
        before it, the one just before and the two after."""
        passes = self.calibration
        return [t * CALIBRATION_REFERENCE_S / statistics.fmean(passes[max(0, i - 2):i + 3])
                for i, t in enumerate(self.times)]


def run_round(ops, state_cache, tracer=None, cache_stats=None) -> Round:
    """Every operation once, closed loop, with a calibration pass before each
    and one after the last.  The oracle's state cache is cleared before each
    operation, as a fresh CLI process would start."""
    import checks

    rnd = Round()
    for i, op in enumerate(ops):
        if state_cache is not None:
            state_cache.cache_clear()
        gc.collect()
        rnd.calibration.append(calibration_pass())
        if tracer is not None:
            tracer.active = True
        elapsed, out = execute(op)
        if tracer is not None:
            tracer.active = False
            if state_cache is not None:
                info = state_cache.cache_info()
                cache_stats[0] += info.hits
                cache_stats[1] += info.misses
        rnd.times.append(elapsed)
        if checks.failed(op, out):
            rnd.failed.append(i)
            if out.error is not None:
                detail = f"{type(out.error).__name__}: {out.error}"
            else:
                detail = f"exit {out.exit_code}, stderr {out.stderr.strip()!r}"
            rnd.failures.append(f"{op.label}: {detail}")
            continue
        try:
            rnd.errors += [f"{op.label}: {e}" for e in checks.check(op, out)]
        except Exception as exc:  # malformed output is a wrong output
            rnd.errors.append(f"{op.label}: unreadable output ({exc!r})")
    gc.collect()
    rnd.calibration.append(calibration_pass())
    return rnd


# -- set-up time ----------------------------------------------------------------------


def setup_probe(workload: str, seed: int, smoke: bool) -> None:
    """What set-up costs a user: import lossbell and build the inputs."""
    import workloads

    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        workloads.build(workload, seed, Path(tmp), smoke)


def setup_time(workload: str, seed: int, smoke: bool) -> float:
    """Wall time of one fresh set-up process."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    # no timeout: waiting with one polls every 50 ms and rounds the time
    start = perf_counter()
    subprocess.run(argv, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
    return perf_counter() - start


# -- metrics --------------------------------------------------------------------------

SELF_TIMES = (
    "graphs.induced_subgraph", "loss.wt_sets", "loss.expectation_after_loss",
    "loss.violation_report", "loss.loss_size_sweep", "loss.max_tolerable_loss",
    "loss.critical_sets", "loss.induced_operator_expectation",
    "loss.mixture_expectation", "loss.single_loss_mixture_curve",
    "oracle.graph_state", "oracle.apply_pauli",
    "oracle.LossyState.pauli_expectation", "bell.bell_stabilizer_sum", "cli.main",
    "families.generate",
)
CALLS = (
    "loss.violation_report", "loss.induced_operator_expectation",
    "oracle.apply_pauli", "oracle.LossyState.pauli_expectation",
    "bell.bell_stabilizer_sum", "pauli.stabilizer", "pauli.PauliString.embed",
)


def layer_metrics(tracer, rounds: int, ops, cache_stats, overhead_s: float) -> dict:
    """Per-layer values for one round of the workload."""
    sets = sum(op.loss_sets for op in ops)
    enumerated = sum(op.loss_sets for op in ops if op.kind == "critical")
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    put("quad.Quad.constructed_per_set",
        tracer.counts["quad.Quad"] / rounds / sets, "count/set")
    put("graphs.Graph.built_per_set",
        tracer.counts["graphs.Graph"] / rounds / sets, "count/set")
    put("loss.wt_sets.calls_per_set",
        tracer.totals("loss.wt_sets")[0] / rounds / sets, "count/set")
    for name in CALLS:
        put(f"{name}.calls", tracer.totals(name)[0] / rounds, "count")
    for name in SELF_TIMES:
        put(f"{name}.self_s", tracer.totals(name)[2] / rounds, "s")
    calls, total, _, _ = tracer.totals("loss.violation_report")
    put("loss.violation_report.us_per_call", total / calls * 1e6 if calls else 0.0, "us")
    evaluated = tracer.totals("loss.violation_report", "loss.critical_sets")[0]
    put("loss.critical_sets.evaluated_ratio",
        evaluated / rounds / enumerated if enumerated else 0.0, "ratio")
    put("oracle.graph_state.hits", cache_stats[0] / rounds, "count")
    put("oracle.graph_state.misses", cache_stats[1] / rounds, "count")
    put("oracle.apply_pauli.bytes_computed", tracer.state_bytes / rounds, "bytes")
    calls, _, _, childless = tracer.totals("oracle.LossyState.pauli_expectation")
    put("oracle.pauli_expectation.short_circuit_ratio",
        childless / calls if calls else 0.0, "ratio")
    put("trace.overhead_s", overhead_s, "s")
    return out


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of ``values``: the mean of
    all order statistics, the i-th of n weighted by the chance that a
    Beta(p(n+1), (1-p)(n+1)) variable falls in ((i-1)/n, i/n].  Near a gap
    between operation sizes it moves by a share of that gap, where a single
    order statistic would jump across it."""
    xs = sorted(values)
    n, steps = len(xs), 16  # Simpson intervals per order statistic
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x: float) -> float:
        if x <= 0 or x >= 1:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    ys = [density(j / (n * steps)) for j in range(n * steps + 1)]
    simpson = [1] + [4 if k % 2 else 2 for k in range(1, steps)] + [1]
    weights = [sum(c * ys[i * steps + k] for k, c in enumerate(simpson)) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def host_speed(rounds: list[Round]) -> float:
    """How fast the host ran during the rounds, relative to the reference
    machine: reference calibration time over this run's mean one."""
    passes = [t for rnd in rounds for t in rnd.calibration]
    return CALIBRATION_REFERENCE_S / statistics.fmean(passes)


def end_to_end_metrics(rounds: list[Round], ops, setup_s: float) -> dict:
    """Rates and percentiles over each operation's median time across rounds,
    in seconds at the reference machine's speed.

    On a shared machine other tenants' work slows the program in bursts of
    milliseconds and in phases lasting minutes.  Calibration passes come out
    fast or slow, about 1.7 times apart, as they come and go; scaling each
    operation's time by the passes around it takes out the host's speed at
    that moment, and an operation's median over the run's rounds takes out
    what is left.  Set-up, timed between rounds, is scaled by the run's mean
    pass.  The failed operation has no latency to speak of, so it is left
    out of the percentiles, which are Harrell-Davis estimates.
    """
    scaled = [rnd.reference_times() for rnd in rounds]
    medians = [statistics.median(times[i] for times in scaled) for i in range(len(ops))]
    failed = set().union(*(rnd.failed for rnd in rounds))
    latencies = [t for i, t in enumerate(medians) if i not in failed]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": {"value": setup_s * host_speed(rounds), "unit": "s"},
        "loss_sets_per_s": {"value": sum(op.loss_sets for op in ops) / sum(medians),
                            "unit": "1/s"},
        "op_p50_s": {"value": quantile(latencies, 0.5), "unit": "s"},
        "op_p90_s": {"value": quantile(latencies, 0.9), "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
    }


# -- one run --------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool):
    import checks
    import workloads
    from lossbell import oracle

    # the oracle's lru_cache object, taken before tracing wraps it
    state_cache = getattr(oracle, "graph_state", None)
    if not hasattr(state_cache, "cache_clear"):
        state_cache = None
    probes = 0 if trace else 1 if smoke else SETUP_REPEATS
    setup_times: list[float] = []

    def probe() -> None:
        # set-up is timed between rounds, so its samples spread over the run
        if len(setup_times) < probes:
            setup_times.append(setup_time(workload, seed, smoke))

    errors: list[str] = []
    rounds: list[Round] = []
    tracer = None
    cache_stats = [0, 0]
    untraced_s = 0.0
    try:
        with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
            ops = workloads.build(workload, seed, Path(tmp) / "inputs", smoke)
            warmup = workloads.build(workload, seed, Path(tmp) / "warmup", smoke=True)
            for op in ops + warmup:
                errors += checks.prepare(op)
            errors += run_round(warmup, state_cache).errors
            # Like a fresh CLI process, an operation's garbage collections
            # should scan only its own objects, not the benchmark's.
            gc.collect()
            gc.freeze()
            if trace:
                import tracer as tracing

                untraced_s = sum(run_round(ops, state_cache).times)
                tracer = tracing.Tracer()
                tracer.install()
            spent = 0.0  # operation time so far
            # another round only if, at the mean round time, it ends in time
            while not rounds or spent * (len(rounds) + 1) / len(rounds) <= seconds:
                probe()
                rounds.append(run_round(ops, state_cache, tracer, cache_stats))
                spent += sum(rounds[-1].times)
            while len(setup_times) < probes:
                probe()
    finally:
        if tracer is not None:
            tracer.uninstall()
        gc.unfreeze()

    for rnd in rounds:
        errors += rnd.errors
    if trace:
        traced_s = statistics.fmean(sum(r.times) for r in rounds)
        metrics = layer_metrics(tracer, len(rounds), ops, cache_stats,
                                traced_s - untraced_s)
    else:
        metrics = end_to_end_metrics(rounds, ops, statistics.median(setup_times))
    attempted = len(rounds) * len(ops)
    failed = sum(len(r.failed) for r in rounds)
    info = {
        "rounds": len(rounds),
        "ops_per_round": len(ops),
        "loss_sets_per_round": sum(op.loss_sets for op in ops),
        "latencies": len(ops) - len(set().union(*(r.failed for r in rounds))),
        "host_speed": host_speed(rounds),
        "failures": sorted(set(f for r in rounds for f in r.failures)),
        "errors": errors,
        "span_table": tracer.table() if tracer is not None else None,
    }
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, info


def environment() -> str:
    import numpy

    return (f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"{os.cpu_count()} cores, numpy threads pinned to 1")


def print_result(args, result, info) -> None:
    print(f"# lossbell benchmark {args.workload} seed={args.seed} "
          f"trace={args.trace}{' smoke' if args.smoke else ''}: {environment()}")
    print(f"# {info['rounds']} rounds x {info['ops_per_round']} operations "
          f"= {result['attempted']} timed operations; percentiles over "
          f"{info['latencies']} per-operation median times; "
          f"{info['loss_sets_per_round']} loss sets per round; "
          f"failed {result['failed']} of {result['attempted']}")
    print(f"# host speed {info['host_speed']:.4f} of the reference machine's "
          f"(mean calibration pass); times below are scaled to the reference")
    for failure in info["failures"]:
        print(f"# failed: {failure}")
    for error in info["errors"][:20]:
        print(f"# WRONG OUTPUT: {error}")
    for name, m in result["metrics"].items():
        print(f"# {name:<46} {m['value']:>16.6g} {m['unit']}")
    if info["span_table"]:
        print(info["span_table"], file=sys.stderr)
    print(json.dumps(result))


# -- steadiness -----------------------------------------------------------------------


def steadiness(args) -> int:
    """Repeat the workload with consecutive seeds; print each end-to-end
    metric's quartile spread as a share of its median, against its bound."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {name: [] for name in bounds}
    shares = set()
    for i in range(args.steadiness):
        seed = args.seed + i
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload",
                args.workload, "--seed", str(seed), "--seconds", str(args.seconds),
                "--trace", "0"] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        if not result["correct"]:
            print(proc.stdout, end="")
            return 1
        shares.add(result["failed"] / result["attempted"])
        line = [f"failed={result['failed']}/{result['attempted']}"]
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
            line.append(f"{name}={values[name][-1]:.6g}")
        print(f"seed {seed}: " + " ".join(line), flush=True)
    worst = 0
    print(f"{'metric':<18} {'median':>12} {'spread':>8} {'bound':>6}")
    for name, bound in bounds.items():
        q1, median, q3 = statistics.quantiles(values[name], n=4)
        spread = (q3 - q1) / median
        verdict = "ok" if spread <= bound / 3 else (
            "over a third of bound" if spread <= bound else "OVER BOUND")
        if name != "setup_s" and spread > bound:
            worst = 1
        print(f"{name:<18} {median:>12.6g} {spread:>8.4f} {bound:>6} {verdict}")
    print(f"failed share per run: {sorted(shares)}")
    return worst if len(shares) == 1 else 1


# -- entry point ----------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=("sweep-exhaustive", "verify-oracle", "query-mixture"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="operation time to measure; whole rounds, at least one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--steadiness", type=int, metavar="RUNS",
                        help="repeat with RUNS consecutive seeds and print spreads")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.smoke)
        return 0
    if args.steadiness:
        return steadiness(args)
    result, info = run_workload(args.workload, args.seed, args.seconds,
                                bool(args.trace), args.smoke)
    print_result(args, result, info)
    return 0


if __name__ == "__main__":
    sys.exit(main())
