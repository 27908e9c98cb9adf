"""Benchmark driver: one workload, one seed, one process.

    python3 perfbench/run.py --workload scan_hardy --seed 0 --seconds 20 --trace 0

Set-up runs several times and reports its median: a fresh interpreter
imports rinorms and generates the workload's inputs (``make_inputs.py``),
so the benchmark process never holds the set-up's memory.  After a short
warm-up, timed passes repeat while the next one fits in ``--seconds`` (at
least two).  Each unit of work reports its median over the passes, in
reference-host seconds (see ``workloads.HostSpeed``).
With ``--trace 0`` the last line of output carries the end-to-end metrics;
with ``--trace 1`` the same untraced passes run for half the time, then one
pass runs with every layer wrapped (see ``tracer.py``) and the last line
carries the per-layer metrics and the tracing overhead.  Provenance is
printed on the line before, apart from the metrics.  The program exits
nonzero without a result when the rinorms sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# one process, no extra threads: keep numpy's math libraries single-threaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUP_REPEATS = 7
MIN_PASSES = 2
CHECKS = ("lemma10", "thm11", "thm15", "kprops")
CLI_COMMANDS = ("rearrange", "norm", "hardy", "functor-norm", "kfun")
CLI_BUCKETS = ("1e3", "1e4", "1e5")
# large_query runs kfun only up to 10^4 pieces
CLI_GROUPS = [(c, b) for c in CLI_COMMANDS for b in CLI_BUCKETS if (c, b) != ("kfun", "1e5")]

E2E_UNITS = {
    "setup_s": "s",
    "throughput_items_per_s": "items/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in output order."""
    from tracer import BUCKETS, KERNELS

    units = {}
    for name in ("stepfn.call", "stepfn.construct"):
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in KERNELS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        for b in BUCKETS:
            units[f"{name}.p50_us.{b}"] = "us"
    units["stepfn.rearrange.per_function"] = "ratio"
    units["stepfn.rearrange.fastpath_frac"] = "ratio"
    units["hardy.grid_points"] = "count"
    units["interp.k_upper_oracle.deadline_misses"] = "count"
    for check in CHECKS:
        units[f"harness.{check}.pass_s"] = "s"
    units["harness.self_s"] = "s"
    units["harness.generate_corpus_s"] = "s"
    units["cli.main.self_s"] = "s"
    for cmd, b in CLI_GROUPS:
        units[f"cli.{cmd}.p50_ms.{b}"] = "ms"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def tail_index(n: int) -> int:
    """Index, in ascending order, of the highest sample with ten beyond it (the maximum below 11)."""
    return n - 11 if n >= 11 else n - 1


def set_up(workload: str, seed: int, inputs: Path) -> tuple[float, float]:
    """Run ``make_inputs.py`` once; returns its wall time and its generation time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [sys.executable, str(HERE / "make_inputs.py"), "--workload", workload]
    argv += ["--seed", str(seed), "--out", str(inputs)]
    start = perf_counter()
    out = subprocess.run(argv, env=env, check=True, timeout=120, capture_output=True, text=True)
    return perf_counter() - start, float(out.stdout.split()[-1])


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            env=env, capture_output=True, text=True, timeout=30,
        )
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "rinorms").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_passes(workload, seconds: float, min_passes: int) -> list:
    """Repeat passes while the next one, as long as the last, ends within ``seconds``."""
    passes = []
    start = perf_counter()
    while len(passes) < min_passes or perf_counter() - start + passes[-1].seconds <= seconds:
        passes.append(workload.run_pass())
    return passes


def unit_seconds(passes) -> list[float]:
    """Each unit's median time over the passes, in reference-host seconds (see HostSpeed)."""
    return [
        statistics.median(t * s for t, s in zip(times, scales))
        for times, scales in zip(zip(*(p.item_seconds for p in passes)), zip(*(p.item_scales for p in passes)))
    ]


def latency_samples_ms(passes) -> list[float]:
    return sorted(s * 1e3 for s in unit_seconds(passes))


def end_to_end(passes, setup_times) -> dict:
    samples = latency_samples_ms(passes)
    return {
        "setup_s": statistics.median(setup_times),
        "throughput_items_per_s": passes[0].attempted / sum(unit_seconds(passes)),
        "latency_p50_ms": statistics.median(samples),
        "latency_tail_ms": samples[tail_index(len(samples))],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(workload, passes, traced, traced_wall, tracer, gen_times) -> dict:
    from tracer import bucket_of
    from workloads import QUERIES, LargeQuery

    query = isinstance(workload, LargeQuery)
    out = tracer.metrics()
    out["interp.k_upper_oracle.deadline_misses"] = workload.kfun_misses(traced) if query else 0
    for check in CHECKS:
        times = [p.check_seconds[check] for p in passes if check in p.check_seconds]
        out[f"harness.{check}.pass_s"] = statistics.median(times) if times else 0.0
    out["harness.generate_corpus_s"] = 0.0 if query else statistics.median(gen_times)
    groups = {}
    if query:
        for (i, q), seconds in zip(workload.items, unit_seconds(passes)):
            key = (QUERIES[q][0], bucket_of(workload.functions[i][1]))
            groups.setdefault(key, []).append(seconds)
    for cmd, b in CLI_GROUPS:
        times = groups.get((cmd, b))
        out[f"cli.{cmd}.p50_ms.{b}"] = statistics.median(times) * 1e3 if times else 0.0
    out["trace.wall_s"] = traced_wall
    # in reference-host seconds, so that a change of host speed between the passes cancels
    out["trace.overhead_s"] = sum(unit_seconds([traced])) - sum(unit_seconds(passes))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("scan_hardy", "scan_kfun", "large_query"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rinorms" / "__init__.py").is_file():
        print(f"rinorms sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import rinorms
    from tracer import Tracer
    from workloads import WORKLOADS, HostSpeed

    workload = WORKLOADS[args.workload](args.seed)
    inputs = WORK / f"inputs-{args.workload}-{args.seed}-{os.getpid()}"
    inputs.mkdir(parents=True, exist_ok=True)
    try:
        setup_times, gen_times = [], []
        speed = HostSpeed()
        for _ in range(SETUP_REPEATS):
            total, generated = set_up(args.workload, args.seed, inputs)
            setup_times.append(total)
            gen_times.append(generated)
            speed.mark()
        setup_times = [t * s for t, s in zip(setup_times, speed.scales())]
        workload.load(inputs)
        workload.warmup()
        budget = args.seconds / 2 if args.trace else args.seconds
        passes = run_passes(workload, budget, 1 if args.trace else MIN_PASSES)
        all_passes = list(passes)
        if args.trace:
            with Tracer() as tracer:
                start = perf_counter()
                traced = workload.run_pass(tracer)
                traced_wall = perf_counter() - start
            all_passes.append(traced)
            spans_path = WORK / f"spans-{args.workload}-{args.seed}.csv"
            tracer.write_spans(spans_path)
            values = per_layer(workload, passes, traced, traced_wall, tracer, gen_times)
            units = per_layer_units()
        else:
            values = end_to_end(passes, setup_times)
            units = E2E_UNITS
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    attempted = sum(p.attempted for p in all_passes)
    failed = sum(p.failed for p in all_passes)
    correct = all(p.mismatches == 0 and p.exceptions == 0 for p in all_passes)
    samples = latency_samples_ms(passes)
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "params": workload.params(),
        "reference": workload.reference_kind(),
        "passes": len(passes),
        "latency_samples": len(samples),
        "latency_tail_percentile": round(100.0 * (tail_index(len(samples)) + 1) / len(samples), 2),
        "misses": sum(p.misses for p in all_passes),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "rinorms": rinorms.__version__,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }
    if args.trace:
        provenance["spans"] = os.path.relpath(spans_path, ROOT)
        provenance["traced_self_s_total"] = tracer.total_self_s()

    for name, unit in units.items():
        print(f"{name:48s} {values[name]:>16.6g} {unit}")
    print(f"{'error_rate':48s} {failed / attempted:>16.6g} ratio ({failed} of {attempted} items)")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
