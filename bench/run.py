"""Benchmark of saacert: four workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0

``--trace 0`` times whole iterations of the workload's operation list and
prints the end-to-end metrics.  ``--trace 1`` alternates untraced and traced
iterations and prints the per-layer metrics of the traced ones.  Both modes
check every output, print a report, and end with one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The exit code is 0 only when every operation ran and passed its gate.

The library is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 2 and prints no result.
"""

import os

# single-threaded BLAS and OpenMP (at most nproc) before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 5          # fresh processes timed to "ready"; setup_s is their median
MIN_ITERATIONS = 3        # untraced iterations per run, at least
MIN_TRACED_PAIRS = 2      # untraced/traced iteration pairs per traced run, at least

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"),
              ("trial_p50_ms", "ms"), ("trial_p90_ms", "ms"))


def load_library():
    """Import saacert from this checkout's ``src/``; exit 2 if it is absent."""
    src = ROOT / "src"
    if not (src / "saacert" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no saacert package under {src}; run from a "
                         "source checkout\n")
        sys.exit(2)
    sys.path.insert(0, str(src))
    import saacert
    if Path(saacert.__file__).resolve().parent != (src / "saacert").resolve():
        sys.stderr.write(f"bench: imported saacert from {saacert.__file__}, "
                         f"not from {src}\n")
        sys.exit(2)
    import workloads
    return workloads


def environment(versions: dict) -> dict:
    sources = sorted((ROOT / "src" / "saacert").glob("*.py"))
    h = hashlib.sha256()
    for path in sources:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), **versions,
            "git_commit": git_commit(), "src_sha256": h.hexdigest()[:16],
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "machine": platform.machine()}


def git_commit():
    """HEAD of the checkout when it is a git work tree (read, not run)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q: float) -> float:
    vals = sorted(values)
    pos = q * (len(vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def probe_setup(args) -> float:
    """Median wall time, over fresh processes, from spawn to a ready set-up."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}): {line!r}")
        times.append(elapsed)
    return statistics.median(times)


class Runner:
    """Times iterations of one workload and gates every output."""

    def __init__(self, workload, digest):
        self.workload = workload
        self.digest = digest
        self.attempted = 0
        self.failures: list[str] = []
        self.latencies: list[float] = []
        self.summaries: list[str] = []

    def iteration(self, instrumentation=None):
        """Run one operation list, gate its outputs, return its wall seconds."""
        with instrumentation or contextlib.nullcontext():
            start = time.perf_counter()
            ops = self.workload.prepare()
            outputs, lat = [], []
            for label, fn in ops:
                t0 = time.perf_counter()
                try:
                    out, err = fn(), None
                except Exception:       # recorded as a failed operation
                    out, err = None, traceback.format_exc()
                lat.append(time.perf_counter() - t0)
                outputs.append((label, out, err))
            wall = time.perf_counter() - start
        self.latencies += lat
        self.gate(outputs)
        return wall

    def gate(self, outputs) -> None:
        summary = []
        for label, out, err in outputs:
            self.attempted += 1
            if err is None:
                try:
                    problems = self.workload.verify(label, out)
                    summary.append(self.workload.summary(label, out))
                except Exception:       # a gate that cannot read the output fails
                    problems = [traceback.format_exc()]
            else:
                problems = [err]
            if problems:
                self.failures.append(f"{label}: {'; '.join(problems)}")
        self.summaries.append(self.digest(summary))


def run_untraced(runner, seconds: float):
    walls = []
    start = time.perf_counter()
    while True:
        walls.append(runner.iteration())
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_ITERATIONS and elapsed + statistics.median(walls) > seconds:
            return walls


def run_traced(runner, seconds: float):
    import spans
    untraced, traced, tracers = [], [], []
    start = time.perf_counter()
    while True:
        untraced.append(runner.iteration())
        tracer = spans.Tracer()
        traced.append(runner.iteration(spans.Instrumentation(tracer)))
        tracers.append(tracer)
        elapsed = time.perf_counter() - start
        pair = statistics.median(untraced) + statistics.median(traced)
        if len(traced) >= MIN_TRACED_PAIRS and elapsed + pair > seconds:
            return untraced, traced, tracers


LAYER_SPANS = {
    "moments": ("per_scenario_modulus", "estimate_holder", "variance_profile"),
    "geometry": ("a_alpha", "max_pairwise", "min_pairwise_gap", "greedy_pack"),
    "problem": ("relaxed_set_grid", "true_fn_grid", "fhat_grid"),
    "certify": ("estimate_regularity", "deviation_ledger", "check_certificates"),
    "solve": ("subgradient_solve", "grid_solve"),
    "validation": ("coverage_certificate", "coverage_experiment"),
    "apps": ("build_portfolio", "build_lasso", "cvar"),
    "cli": ("main",),
}
CALL_COUNTS = ("moments.per_scenario_modulus", "geometry.a_alpha",
               "problem.relaxed_set_grid")
COUNTERS = ("moments.modulus_pair_evals", "geometry.pairwise_pairs",
            "problem.true_fn_points", "problem.fhat_points", "certify.checks",
            "solve.iterations", "solve.fhat_calls", "validation.replications",
            "validation.scenario_draws", "cli.artifact_bytes")
UNIQUE = (("moments.modulus_unique_ratio", "moments.modulus",
           "moments.per_scenario_modulus"),
          ("geometry.a_alpha_unique_ratio", "geometry.a_alpha", "geometry.a_alpha"),
          ("problem.true_fn_unique_ratio", "problem.true_fn", "problem.true_fn_grid"))


def layer_metrics(tracer, wall: float) -> tuple[dict, dict, dict]:
    """Timings, exact counts and calls per span of one traced iteration."""
    times = tracer.span_times()
    layer_self, roots = tracer.self_times()
    values = {f"{layer}.self_s": s for layer, s in layer_self.items()}
    values["unattributed_s"] = wall - roots
    for layer, names in LAYER_SPANS.items():
        for name in names:
            values[f"{layer}.{name}.s"] = times.get(f"{layer}.{name}", (0.0, 0))[0]
    counts = {f"{name}.calls": times.get(name, (0.0, 0))[1] for name in CALL_COUNTS}
    counts.update({name: tracer.counters.get(name, 0) for name in COUNTERS})
    for metric, key, span in UNIQUE:
        calls = times.get(span, (0.0, 0))[1]
        counts[metric] = len(tracer.unique.get(key, ())) / calls if calls else 0.0
    checks = tracer.counters.get("certify.checks", 0)
    counts["certify.checks_held_ratio"] = (
        tracer.counters.get("certify.checks_held", 0) / checks if checks else 0.0)
    counts["spans"] = len(tracer.span_name)
    calls = {name: n for name, (_, n) in times.items()}
    return values, counts, calls


def unit_of(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help="internal: build the set-up, print 'ready', exit")
    args = parser.parse_args(argv)

    workloads = load_library()
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"bench: unknown workload {args.workload!r}; choose "
                         f"from {sorted(workloads.WORKLOADS)}\n")
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        if args.probe_setup:
            workloads.WORKLOADS[args.workload](args.seed, workdir)
            print("ready", flush=True)
            return 0
        return measure(args, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workloads, workdir) -> int:
    setup_s = probe_setup(args) if not args.trace else None
    t0 = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    own_setup = time.perf_counter() - t0
    runner = Runner(workload, workloads.digest)
    env = environment(workloads.versions())
    print(f"bench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"  environment {json.dumps(env, sort_keys=True)}")
    print(f"  set-up in this process: {own_setup:.4f} s")

    if not args.trace:
        walls = run_untraced(runner, args.seconds)
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": setup_s,
            "peak_rss_mib": peak_rss_mib(),
            "trial_p50_ms": 1e3 * percentile(runner.latencies, 0.5),
            "trial_p90_ms": 1e3 * percentile(runner.latencies, 0.9),
        }
        units = dict(END_TO_END)
        print(f"  iterations {len(walls)}: wall_s each "
              f"{[round(w, 4) for w in walls]}")
        print(f"  trials {len(runner.latencies)} (one per operation)")
        trace_problems = []
    else:
        metrics, trace_problems = traced_metrics(args, runner, workload)
        units = {name: unit_of(name) for name in metrics}

    failed = len(runner.failures) + len(trace_problems)
    attempted = runner.attempted + (1 if args.trace else 0)
    correct = failed == 0
    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g} {units[name]}")
    print(f"  {'fail_ratio':40s} {failed / attempted:.6g} ratio "
          f"({failed} failed of {attempted} attempted)")
    digests = sorted(set(runner.summaries))
    print(f"  output digests {digests} "
          f"({'same' if len(digests) == 1 else 'differ'} across iterations; "
          "information only)")
    for problem in (runner.failures + trace_problems)[:20]:
        print(f"  FAILED {problem}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0 if correct else 1


def traced_metrics(args, runner, workload):
    untraced, traced, tracers = run_traced(runner, args.seconds)
    per_iter = [layer_metrics(tr, wall) for tr, wall in zip(tracers, traced)]
    problems = []
    counts = [c for _, c, _ in per_iter]
    if any(c != counts[0] for c in counts[1:]):
        diff = {k: [c.get(k) for c in counts] for k in counts[0]
                if any(c.get(k) != counts[0][k] for c in counts)}
        problems.append(f"trace: counters differ across traced iterations: {diff}")
    calls = per_iter[0][2]
    missing = [name for name in workload.expected_spans if not calls.get(name)]
    if missing:
        problems.append(f"trace: spans recorded no calls: {missing}")
    for (values, _, _), wall in zip(per_iter, traced):
        total = sum(v for k, v in values.items() if k.endswith(".self_s"))
        total += values["unattributed_s"]
        if abs(total - wall) > 1e-6 * max(wall, 1.0):
            problems.append(f"trace: self times sum to {total}, wall is {wall}")
    metrics = {k: statistics.median(v[0][k] for v in per_iter) for k in per_iter[0][0]}
    metrics.update(counts[0])
    metrics["traced_wall_s"] = statistics.median(traced)
    metrics["untraced_wall_s"] = statistics.median(untraced)
    metrics["trace_overhead_s"] = metrics["traced_wall_s"] - metrics["untraced_wall_s"]
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    tracers[0].write(path, origin=tracers[0].span_start[0] if tracers[0].span_start else 0.0)
    print(f"  traced iterations {len(traced)}, untraced {len(untraced)}; spans of "
          f"the first traced iteration written to {path.relative_to(ROOT)}")
    for name, (secs, n) in sorted(tracers[0].span_times().items(),
                                  key=lambda kv: -kv[1][0])[:12]:
        print(f"    span {name:40s} {secs:9.4f} s {n:8d} calls")
    return metrics, problems


if __name__ == "__main__":
    sys.exit(main())
