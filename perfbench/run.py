"""Benchmark of the biascsp verification pipeline.

Runs one workload (or ``all``, each in a fresh process) for a fixed time,
checks every stage against its verdict and the stored reference values, and
prints each metric by name with its unit.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

    python3 perfbench/run.py --workload pd-scale --seed 0 --seconds 25 --trace 0

With ``--trace 0`` the metrics are the end-to-end ones (``wall_s``,
``setup_s``, ``peak_rss_mb``); with ``--trace 1`` they are the per-layer ones
from wrapped library calls, plus the tracing overhead and coverage.  The
library is imported from ``src/`` next to this directory, never from an
installed copy.  Full records (environment, stages, metrics) are written to
``perfbench/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

T_START = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"
RESULTS = HERE / "results"

BLAS_THREADS = "1"
PROBES_PER_CALL = 3
PROBE_TIMEOUT_S = 60
EXACT_TOL = 1e-9
MC_SIGMAS = 4.0
# The workload's inputs come from the seed modulo REFERENCE_SEEDS, the number
# of seeds references.json stores, so every seed's run is checked against
# stored values.
REFERENCE_SEEDS = 100


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def pin_environment() -> None:
    """BLAS threads are fixed before numpy loads, so runs are comparable."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if not (SRC / "biascsp" / "__init__.py").is_file():
        fail(f"no library source at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))


def environment(args) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "input_seed": args.input_seed,
        "size": args.size,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
    }


# ---- output check --------------------------------------------------------------


def load_references(name: str, seed: int, size: str) -> dict | None:
    """Stored stage values of an input seed; None at the smoke size, which
    is checked by verdicts and built-in oracles only."""
    if size != "full":
        return None
    refs = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
    ref = refs.get(name, {}).get(str(seed))
    if ref is None:
        fail(f"no stored reference for {name} input seed {seed} in {REFERENCES.name}")
    return ref


def _agrees(got: dict, ref: dict) -> bool:
    if got["kind"] == "exact":
        return abs(got["value"] - ref["value"]) <= EXACT_TOL
    # Monte Carlo: within MC_SIGMAS combined standard errors; a zero stderr
    # (an estimate of 0 or 1) is floored at one sample's worth.
    se = lambda v: max(v["stderr"] or 0.0, 1.0 / v["samples"])
    return abs(got["value"] - ref["value"]) <= MC_SIGMAS * (se(got) ** 2 + se(ref) ** 2) ** 0.5


def check(stages: list, ref: dict | None) -> list[str]:
    """Names of failed stages: verdict False, or a value off its reference."""
    failed = []
    seen = set()
    for s in stages:
        bad = s["status"] == "fail"
        for key, got in s["values"].items():
            full = f"{s['stage']}.{key}"
            seen.add(full)
            if ref is not None and (full not in ref or not _agrees(got, ref[full])):
                bad = True
        if bad:
            failed.append(s["stage"])
    if ref is not None:
        failed.extend(sorted(f"missing:{k}" for k in set(ref) - seen))
    return failed


def flat_values(stages: list) -> dict:
    return {f"{s['stage']}.{k}": v for s in stages for k, v in s["values"].items()}


# ---- measurement ---------------------------------------------------------------


def probe_setup(args) -> float:
    """Time import plus input build in a fresh process; returns seconds."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        fail(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


class Run:
    """Counts stages attempted and failed across the iterations of one run."""

    def __init__(self, name: str, seed: int, size: str):
        self.ref = load_references(name, seed, size)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.stages: list = []

    def record(self, prepared, result) -> None:
        self.stages = prepared.stages(result)
        bad = check(self.stages, self.ref)
        self.attempted += len(self.stages)
        self.failed += len(bad)
        self.failures.extend(bad)

    def record_error(self, exc: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        self.failures.append(f"raised:{type(exc).__name__}: {exc}")


def keep_going(times: list[float], budget_end: float) -> bool:
    """Start another iteration if the median one still fits in the budget."""
    if not times:
        return True
    return time.perf_counter() + statistics.median(times) <= budget_end


def measure(args, workloads, run: Run) -> dict:
    """End-to-end metrics; tracing off.  Each iteration runs PROBES_PER_CALL
    set-up probes and then one timed call, so ``setup_s`` and ``wall_s``
    sample the same stretch of time."""
    prepared = workloads.build(args.workload, args.input_seed, args.size)
    times: list[float] = []
    setups: list[float] = []
    iterations: list[float] = []
    budget_end = time.perf_counter() + args.seconds
    while keep_going(iterations, budget_end):
        t_iter = time.perf_counter()
        setups.extend(probe_setup(args) for _ in range(PROBES_PER_CALL))
        t0 = time.perf_counter()
        try:
            result = prepared.call()
        except Exception as exc:  # a raising stage is a failure, not a crash
            run.record_error(exc)
            break
        t1 = time.perf_counter()
        times.append(t1 - t0)
        iterations.append(t1 - t_iter)
        run.record(prepared, result)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "wall_s": (statistics.median(times) if times else float("nan"), "s", times),
        "setup_s": (statistics.median(setups), "s", setups),
        "peak_rss_mb": (peak, "MB", None),
    }


def unsteady_counts(per_iter: list[dict]) -> list[str]:
    """Names of count metrics whose value differs between traced calls."""
    return [
        key for key, (_, unit) in per_iter[0].items()
        if unit in ("count", "B") and len({m[key][0] for m in per_iter}) > 1
    ]


def measure_traced(args, workloads, run: Run) -> tuple[dict, dict]:
    """Per-layer metrics: traced iterations alternate with untraced ones, and
    the difference of their median wall times is the tracing overhead."""
    from tracing import Tracer

    prepared = workloads.build(args.workload, args.input_seed, args.size)
    plain: list[float] = []
    traced: list[float] = []
    per_iter: list[dict] = []
    budget_end = time.perf_counter() + args.seconds
    while not plain or not traced or keep_going(plain + traced, budget_end):
        try:
            if len(plain) <= len(traced):
                t0 = time.perf_counter()
                result = prepared.call()
                plain.append(time.perf_counter() - t0)
                run.record(prepared, result)
                continue
            with Tracer() as tracer:
                prepared_t = workloads.build(args.workload, args.input_seed, args.size)
                covered0 = tracer.covered
                t0 = time.perf_counter()
                result = prepared_t.call()
                dt = time.perf_counter() - t0
                per_iter.append(tracer.metrics(dt, tracer.covered - covered0))
            traced.append(dt)
            run.record(prepared_t, result)
        except Exception as exc:
            run.record_error(exc)
            return {}, {}
    metrics = {}
    for key, (_, unit) in per_iter[0].items():
        vals = [m[key][0] for m in per_iter]
        metrics[key] = (statistics.median(vals), unit, vals)
    if len(per_iter) > 1:  # counts must repeat exactly between traced calls
        run.attempted += 1
        unsteady = unsteady_counts(per_iter)
        if unsteady:
            run.failed += 1
            run.failures.append("counts differed between traced calls: " + ", ".join(unsteady))
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s", None)
    return metrics, {"plain_wall_s": plain, "traced_wall_s": traced}


# ---- entry points --------------------------------------------------------------


def setup_probe(args) -> int:
    import workloads

    workloads.build(args.workload, args.input_seed, args.size)
    print(json.dumps({"setup_s": time.perf_counter() - T_START}))
    return 0


def run_one(args) -> int:
    import workloads

    env = environment(args)
    print("env " + json.dumps(env), flush=True)
    run = Run(args.workload, args.input_seed, args.size)
    extra: dict = {}
    if args.trace:
        metrics, extra = measure_traced(args, workloads, run)
    else:
        metrics = measure(args, workloads, run)
    fail_frac = run.failed / run.attempted if run.attempted else 1.0
    for key, (v, unit, samples) in metrics.items():
        note = f"  (median of {len(samples)})" if samples and len(samples) > 1 else ""
        print(f"{args.workload} {key} {v:.6g} {unit}{note}")
    print(f"{args.workload} fail_frac {fail_frac:.6g} ratio  ({run.failed}/{run.attempted} stages)")
    for s in run.stages:
        vals = ", ".join(f"{k}={v['value']:.10g}" for k, v in s["values"].items())
        print(f"  stage {s['stage']:<22} {s['status']:<8} {vals}")
    if run.ref is None:
        print("  smoke size: verdicts and built-in oracles only, no stored reference")
    for f in sorted(set(run.failures)):
        print(f"  FAILED {f}")
    correct = run.failed == 0 and run.attempted > 0
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    record = {
        "env": env,
        **result,
        "samples": {k: s for k, (_, _, s) in metrics.items() if s},
        "stages": run.stages,
        "failures": run.failures,
        **extra,
    }
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{int(args.trace)}.json"
    out.write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process; metric names get the workload prefix."""
    import workloads

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(int(args.trace)), "--size", args.size,
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode not in (0, 1) or not lines:
            fail(f"workload {name} did not finish: {proc.stderr.strip()[-400:]}")
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(total), flush=True)
    return 0 if total["correct"] else 1


def write_references(args) -> int:
    """Store reference stage values for the given seeds (``--reference-seeds``)."""
    import workloads

    if any(not 0 <= seed < REFERENCE_SEEDS for seed in args.reference_seeds):
        fail(f"reference seeds are input seeds, 0 to {REFERENCE_SEEDS - 1}")
    refs = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    failing = []
    for name in names:
        for seed in args.reference_seeds:
            prepared = workloads.build(name, seed, "full")
            stages = prepared.stages(prepared.call())
            bad = check(stages, None)
            if bad:
                failing.append(f"{name} seed {seed}: {bad}")
            refs.setdefault(name, {})[str(seed)] = flat_values(stages)
            print(f"{name} seed {seed}: {'FAILED ' + str(bad) if bad else 'ok'}", flush=True)
    if failing:
        fail("no references stored; failing stages: " + "; ".join(failing))
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="a workload name, or all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument(
        "--reference-seeds", type=lambda s: [int(x) for x in s.split(",")], default=None,
        help="store reference stage values for these comma-separated seeds and exit",
    )
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    args.input_seed = args.seed % REFERENCE_SEEDS
    pin_environment()
    import workloads

    if args.workload not in workloads.NAMES + ("all",):
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)} or all")
    if args.reference_seeds is not None:
        return write_references(args)
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        return setup_probe(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
