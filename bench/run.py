#!/usr/bin/env python3
"""Benchmark of the stburgers library.

    python3 bench/run.py --workload matrix-small --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from `src/`.
With `--trace 0` the run sets up the workload three times (the median
counts as `setup_s`), then repeats the workload's round of ops, closed
loop with one client, until `--seconds` have passed, and reports the
end-to-end metrics.  With `--trace 1` it runs every op of two rounds
twice, untraced and then with every layer wrapped by `tracer.Tracer`,
and reports the per-layer metrics and the tracing overhead.  Every op's
result is checked; an op that overruns its deadline is abandoned and
counted as failed.  The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.  `--workload all`
runs each workload in its own process, one after the other.
"""

import os
import sys
import time

T_START = time.perf_counter()
# one BLAS thread, set before numpy loads, so the runs measure the
# program rather than the scheduler
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _key in BLAS_ENV:
    os.environ[_key] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("matrix-small", "solve-large", "verify-suite")
SETUP_REPEATS = 3
TRACE_ROUNDS = 2
OP_DEADLINE_S = 30.0
RUN_CAP_S = 165.0  # after this many seconds no op runs on
CHECK_GROUPS = (
    "operator_identities",
    "linear_solver",
    "nonlinear_structure",
    "interpolation",
    "colehopf",
    "positivity",
    "solve_invariants",
)


class Deadline(BaseException):
    """Raised by the alarm; a BaseException so no handler in the library
    can swallow it."""


def _on_alarm(signum, frame):
    raise Deadline()


def call_with_deadline(fn, seconds: float):
    """Run fn, abandoning it after `seconds`.  A call stuck inside one
    native routine is abandoned when that routine returns."""
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 1e-3))
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


@dataclass
class Outcome:
    name: str
    seconds: float
    status: str  # ok, unsuccessful, raised, deadline, wrong
    detail: str = ""


def run_op(op, deadline: float, tracer=None) -> Outcome:
    from workloads import Unsuccessful, WrongResult

    if tracer is not None:
        tracer.begin_op()
        tracer.active = True
    status, detail, result = "ok", "", None
    t0 = time.perf_counter()
    try:
        result = call_with_deadline(op.run, deadline)
    except Deadline:
        status, detail = "deadline", f"abandoned after {deadline:.1f} s"
    except Exception as exc:
        status, detail = "raised", f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.active = False
        if status == "deadline":
            tracer.abandon_op()
    if status == "ok":
        try:
            op.check(result)
        except Unsuccessful as exc:
            status, detail = "unsuccessful", str(exc)
        except WrongResult as exc:
            status, detail = "wrong", str(exc)
        except Exception as exc:
            status, detail = "wrong", f"check raised {type(exc).__name__}: {exc}"
    return Outcome(op.name, seconds, status, detail)


def remaining() -> float:
    return RUN_CAP_S - (time.perf_counter() - T_START)


def op_deadline() -> float:
    return min(OP_DEADLINE_S, remaining())


def setup_once(workload, seed: int, tracer=None):
    """Input generation, the probe constant and one warm-up op."""
    t0 = time.perf_counter()
    if tracer is not None:
        tracer.begin_op()
        tracer.active = True
    inputs = workload.prepare(seed)
    if tracer is not None:
        tracer.active = False
    warm = run_op(workload.warmup(inputs), op_deadline(), tracer)
    return time.perf_counter() - t0, inputs, warm


def measure(workload, inputs, seconds: float) -> list[Outcome]:
    """Repeat the round until `seconds` have passed; every round runs
    whole unless the run cap cuts it."""
    ops = workload.round(inputs)
    outcomes: list[Outcome] = []
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        for op in ops:
            if remaining() <= 0:
                return outcomes
            outcomes.append(run_op(op, op_deadline()))
    return outcomes


def measure_traced(workload, inputs, traced_inputs, tracer):
    """Run each op of the round untraced and then traced, so the two
    runs of an op are next to each other in time and drift of the
    machine's speed cancels from the overhead."""
    untraced: list[Outcome] = []
    traced: list[Outcome] = []
    for _ in range(TRACE_ROUNDS):
        for op, traced_op in zip(workload.round(inputs), workload.round(traced_inputs)):
            if remaining() <= 0:
                return untraced, traced
            untraced.append(run_op(op, op_deadline()))
            with tracer.installed():
                traced.append(run_op(traced_op, op_deadline(), tracer))
    return untraced, traced


def throughput(outcomes) -> float:
    """Ops completed correctly per second of time spent in ops."""
    busy = sum(o.seconds for o in outcomes)
    return sum(o.status == "ok" for o in outcomes) / busy if busy > 0 else 0.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(outcomes, setup_s: float) -> dict:
    return {
        "ops_per_s": metric(throughput(outcomes), "1/s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, untraced, traced) -> dict:
    per = tracer.per_name()

    def calls(*names):
        return sum(per.get(n, (0, 0.0))[0] for n in names)

    def self_s(*names):
        return sum(per.get(n, (0, 0.0))[1] for n in names)

    def count(key):
        value = tracer.counters.get(key, 0)
        return int(value) if float(value).is_integer() else value

    out = {}
    for label, names in (
        ("fields.eval_matrix", ("fields.time_eval_matrix", "fields.space_eval_matrix")),
        ("fields.product_cosine", ("fields.product_cosine",)),
        ("fields.to_grid", ("fields.to_grid",)),
        ("fields.to_spectral", ("fields.to_spectral",)),
        ("operators.apply_T", ("operators.apply_T",)),
        ("operators.apply_T_prime", ("operators.apply_T_prime",)),
        ("operators.apply_S", ("operators.apply_S",)),
        ("solver.solve_linearized", ("solver.solve_linearized",)),
        ("solver.gmres", ("solver.gmres",)),
        ("norms.dual_norm", ("norms.dual_norm",)),
        ("colehopf.PeriodMap.init", ("colehopf.PeriodMap.init",)),
        ("colehopf.PeriodMap.apply", ("colehopf.PeriodMap.apply",)),
        ("scaling.denormalize", ("scaling.denormalize",)),
    ):
        out[f"{label}.calls"] = metric(calls(*names), "count")
        out[f"{label}.self_s"] = metric(self_s(*names), "s")
    out["fields.eval_matrix.bytes"] = metric(count("fields.eval_matrix.bytes"), "B")
    out["fields.product_cosine.flops"] = metric(count("fields.product_cosine.flops"), "flop")
    out["solver.newton_iters"] = metric(count("solver.newton_iters"), "count")
    out["solver.lambda_steps"] = metric(
        tracer.child_count("solver._newton", "solver.homotopy_solve"), "count"
    )
    out["solver.gmres.nonconverged"] = metric(count("solver.gmres.nonconverged"), "count")
    out["solver.residual_dual.max"] = metric(count("solver.residual_dual.max"), "1")
    for name in (
        "norms.gn_probe",
        "norms.apriori_bound",
        "colehopf.monodromy_leading_pair",
        "colehopf.s2_to_s3",
        "colehopf.s3_to_s2",
        "colehopf.chain_rule_defect",
        "colehopf.verify_uniqueness",
    ) + tuple(f"verify.check_{g}" for g in CHECK_GROUPS):
        out[f"{name}.self_s"] = metric(self_s(name), "s")
    out["verify.invariant_margin.min"] = metric(count("verify.invariant_margin.min"), "1")
    for layer in ("fields", "operators", "norms", "solver", "colehopf", "scaling", "verify"):
        out[f"{layer}.self_s"] = metric(
            self_s(*(n for n in per if n.startswith(layer + "."))), "s"
        )
    before, after = throughput(untraced), throughput(traced)
    out["trace.untraced_ops_per_s"] = metric(before, "1/s")
    out["trace.traced_ops_per_s"] = metric(after, "1/s")
    out["trace.overhead_ops_per_s"] = metric(before - after, "1/s")
    return out


def run_workload(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import stburgers  # noqa: F401  (timed: numpy, scipy and the package)
    import tracer as tracing
    from workloads import WORKLOADS

    import_s = time.perf_counter() - t0
    workload = WORKLOADS[args.workload]
    signal.signal(signal.SIGALRM, _on_alarm)
    blas = ", ".join(f"{k}={os.environ[k]}" for k in BLAS_ENV)
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}; blas threads pinned: {blas}")
    warmups: list[Outcome] = []
    if args.trace:
        tracer = tracing.Tracer()
        _, inputs, warm = setup_once(workload, args.seed)
        with tracer.installed():
            _, traced_inputs, traced_warm = setup_once(workload, args.seed, tracer)
        warmups += [warm, traced_warm]
        untraced, traced = measure_traced(workload, inputs, traced_inputs, tracer)
        outcomes = untraced + traced
        metrics = per_layer(tracer, untraced, traced)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(OUT_DIR / f"{workload.name}.spans.npz")
    else:
        setups = []
        for _ in range(SETUP_REPEATS):
            seconds, inputs, warm = setup_once(workload, args.seed)
            setups.append(seconds)
            warmups.append(warm)
        outcomes = measure(workload, inputs, args.seconds)
        metrics = end_to_end(outcomes, import_s + statistics.median(setups))
    every = warmups + outcomes
    failed = sum(o.status != "ok" for o in every)
    correct = not any(o.status == "wrong" for o in every)
    print(
        f"measured ops {len(outcomes)}, failed {failed} of {len(every)} "
        f"(warm-ups included), failed_frac {failed / len(every):.4f}"
    )
    for o in every:
        if o.status != "ok":
            print(f"  {o.status:12s} {o.name}: {o.detail}")
    if outcomes and not args.trace:
        # printed, not gated: on a shared machine the median of the
        # short ops moves more from run to run than any bound could allow
        p50 = statistics.median(o.seconds for o in outcomes)
        print(f"  {'op_s_p50':40s} {p50:.6g} s  (n={len(outcomes)})")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(every),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = m
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in ("src/stburgers/__init__.py", "configs") if not (ROOT / p).exists()]
    if missing:
        sys.stderr.write(
            f"bench: {', '.join(missing)} not found under {ROOT}; run from a full checkout\n"
        )
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
