"""Benchmark of the pairwise-closure package: calibrate, simulate and analyze.

Usage, from the root of a checkout::

    python3 perfbench/run.py [--workload calibrate|simulate|analyze]
                             [--seed N] [--trace 0|1]

The timed phase always lasts ``run_seconds`` from BENCHMARK.json, because the
number of samples each operation gets, and so what ``wall_s`` and the latency
figures mean, depends on it.  ``--seconds`` is accepted only with that value.

Without ``--workload`` the three workloads run one after another.  Each
workload runs in its own fresh process (``worker.py``) with BLAS and OpenMP
pinned to one thread and ``PAIRWISE_CLOSURE_THREADS`` unset.  Every time is
adjusted to a fixed reference speed of the host (``speed.py``), because the
shared host's speed drifts by far more than the bounds within minutes; the
unadjusted times are printed next to them.  Set-up time is measured several
times per run, in set-up-only processes just before the timed phase, and
reported as their median scaled by the host's mean speed over the timed
phase.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs one untraced and one traced pass and reports the per-layer
metrics.  Every metric is printed by name with its unit; the last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("calibrate", "simulate", "analyze")
# default seed; claims must also hold on the held-out seed recorded in
# baseline.json
DEFAULT_SEED = 0
SETUP_RUNS = 5
WORKER_TIMEOUT_S = 170


def _spec() -> dict:
    """Metric names and units, from BENCHMARK.json at the checkout root."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {}
    for mod in ("numpy", "scipy"):
        try:
            versions[mod] = __import__(mod).__version__
        except ImportError:
            versions[mod] = "missing"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        **versions,
        "commit": _git_commit(),
    }


def _git_commit() -> str:
    """HEAD read from .git directly; checkouts without .git report 'none'."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "none"


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PAIRWISE_CLOSURE_THREADS", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def _spawn(workload: str, args, setup_only: bool) -> tuple[float, list]:
    """Run one worker; returns (seconds until it was ready, its output lines)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE,
                            text=True)
    try:
        ready_line = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{workload} worker did not finish in {WORKER_TIMEOUT_S} s")
    if ready_line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{workload} worker failed with exit status {proc.returncode}")
    return ready_s, rest.splitlines()


def run_workload(workload: str, args, spec: dict) -> dict:
    setup = []
    if not args.trace:
        for _ in range(SETUP_RUNS - 1):
            setup.append(_spawn(workload, args, setup_only=True)[0])
    ready_s, lines = _spawn(workload, args, setup_only=False)
    setup.append(ready_s)
    report = json.loads(lines[-1])
    checks = report["checks"]
    failed = report["ops_failed"] + sum(1 for _, ok, _ in checks if not ok)
    attempted = report["ops"] + len(checks)
    if args.trace:
        values = report["layer_metrics"]
    else:
        values = {
            "setup_s": statistics.median(setup) * report["speed"],
            "wall_s": report["wall_s"],
            "latency_p50_s": report["latency"]["p50_s"],
            "latency_tail_s": report["latency"]["tail_s"],
            "peak_rss_mb": report["peak_rss_mb"],
        }
        report["setup_samples_s"] = setup
        report["raw_setup_s"] = statistics.median(setup)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    return {
        "workload": workload,
        "seed": args.seed,
        "trace": args.trace,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": report,
    }


def _print_report(result: dict) -> None:
    detail = result["detail"]
    print(f"== {result['workload']} (seed {result['seed']}, trace {result['trace']})")
    for name, metric in result["metrics"].items():
        print(f"  {name:28s} {metric['value']:.6g} {metric['unit']}")
    info = detail.get("info", {})
    if "cv_oracle_err" in info:
        print(f"  {'cv_oracle_err':28s} {info['cv_oracle_err']:.3g} (absolute)")
    if not result["trace"]:
        raw = detail["raw_latency"]
        print(f"  unadjusted: setup_s {detail['raw_setup_s']:.6g} s, "
              f"wall_s {detail['raw_wall_s']:.6g} s, latency_p50_s "
              f"{raw['p50_s']:.6g} s, latency_tail_s {raw['tail_s']:.6g} s; reference kernel median "
              f"{detail['kernel_s']:.6g} s over {detail['kernel_samples']} samples")
        if "replicates_per_pass" in info:
            reps = info["replicates_per_pass"] / detail["wall_s"]
            print(f"  {'reps_per_s':28s} {reps:.6g} 1/s")
        lat = detail["latency"]
        classes = ""
        if lat["p50_class"]:
            classes = f" (p50 in {'/'.join(lat['p50_class'])}, tail in {lat['tail_class'][0]})"
        print(f"  latency tail at p{lat['tail_percentile']:.1f} of {lat['samples']} "
              f"operations{classes}")
    else:
        split = ", ".join(f"{k} {v:.1%}" for k, v in detail["split"].items() if v >= 0.001)
        print(f"  layer split of traced wall time: {split}")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'fail_ratio':28s} {ratio:.6g} ({result['failed']}/{result['attempted']})")
    for name, ok, note in detail["checks"]:
        print(f"  check {'ok  ' if ok else 'FAIL'} {name} {note}")
    for failure in detail["failures"]:
        print(f"  failed operation: {failure}")
    print(f"  digest {detail['digest']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="must equal run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "pairwise_closure", "__init__.py")):
        print("perfbench: src/pairwise_closure not found; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = _spec()
    if args.seconds is not None and args.seconds != spec["run_seconds"]:
        print(f"perfbench: --seconds must be run_seconds ({spec['run_seconds']})",
              file=sys.stderr)
        return 2
    args.seconds = spec["run_seconds"]
    env = _environment()
    print(f"environment: {json.dumps(env)}")
    results = []
    for workload in [args.workload] if args.workload else WORKLOADS:
        try:
            result = run_workload(workload, args, spec)
        except (RuntimeError, ValueError, KeyError, IndexError) as err:
            print(f"perfbench: {err}", file=sys.stderr)
            return 1
        _print_report(result)
        print(f"detail: {json.dumps({**result, 'environment': env})}")
        results.append(result)
    if args.workload:
        final = {key: results[0][key] for key in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{r['workload']}.{name}": m
                        for r in results for name, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
