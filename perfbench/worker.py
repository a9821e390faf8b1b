"""One workload in one fresh process.

Started by ``run.py``; prints ``ready`` once imports and input generation are
done (the end of set-up), then runs the timed phase, the output checks and,
with ``--trace 1``, one untraced and one traced pass.  The last line of
standard output is a JSON object that ``run.py`` turns into the report.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time

import spans as tr
from speed import Reference, SpeedProbe
from workloads import WORKLOADS, digest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MODULES = ("mvn", "model", "closure", "sequential", "combination", "power",
           "simulate", "cli")


def _import_package() -> dict:
    sys.path.insert(0, SRC)
    pkg = {"pairwise_closure": importlib.import_module("pairwise_closure")}
    for name in MODULES:
        pkg[name] = importlib.import_module(f"pairwise_closure.{name}")
    origin = os.path.realpath(pkg["pairwise_closure"].__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        raise RuntimeError(f"imported pairwise_closure from {origin}, not from {SRC}")
    return pkg


def _run_op(op, failures: list):
    try:
        return op.run(), True
    except Exception as err:  # every failed operation is counted, none stops the run
        failures.append(f"{op.name}: {type(err).__name__}: {err}")
        return None, False


def timed_phase(workload, seconds: float, probe: SpeedProbe):
    """Run one full pass, then keep cycling through the operations while time
    remains.

    After the first pass an operation is skipped when its previous time no
    longer fits in the budget, so the phase ends close to ``seconds`` and the
    short operations get more samples.  ``probe`` samples the host's speed
    throughout; each operation's time is returned both raw and adjusted to
    reference speed.
    """
    ops = workload.ops
    samples = [[] for _ in ops]
    intervals = [[] for _ in ops]
    first = [None] * len(ops)
    digests = [None] * len(ops)
    failures: list = []
    drifted = 0
    attempted = 0
    probe.start()
    try:
        start = time.perf_counter()
        i = 0
        while True:
            pos = i % len(ops)
            if i >= len(ops):
                left = seconds - (time.perf_counter() - start)
                if left < min(ts[-1] for ts in samples):
                    break
                if samples[pos][-1] > left:
                    i += 1
                    continue
            t0 = time.perf_counter()
            result, ok = _run_op(ops[pos], failures)
            t1 = time.perf_counter()
            samples[pos].append(t1 - t0)
            intervals[pos].append((t0, t1))
            attempted += 1
            d = digest(result) if ok else None
            if i < len(ops):
                first[pos], digests[pos] = result, d
            elif d != digests[pos]:
                drifted += 1
            i += 1
        timed_s = time.perf_counter() - start
    finally:
        probe.stop()
    return {
        "samples": samples,
        "adjusted": [[probe.adjusted(t0, t1) for t0, t1 in spans] for spans in intervals],
        "results": first,
        "digests": digests,
        "failures": failures,
        "attempted": attempted,
        "drifted": drifted,
        "timed_s": timed_s,
    }


def one_pass(workload, tracer=None):
    failures: list = []
    results, digests = [], []
    start = time.perf_counter()
    for idx, op in enumerate(workload.ops):
        if tracer is not None:
            tracer.request = idx
        result, ok = _run_op(op, failures)
        results.append(result)
        digests.append(digest(result) if ok else None)
    return time.perf_counter() - start, results, digests, failures


def latency(samples: list, klasses: list, per_request: bool) -> dict:
    """Median and tail latency of one operation.

    For a workload of many small requests (``analyze``) the percentiles are
    over every request, and the tail is the highest percentile with ten
    requests beyond it.  The other workloads run only a few heavy operations
    per pass, so there the median is over each operation's median time and
    the tail is the slowest operation's median.
    """
    flat = sorted((t, k) for ts, k in zip(samples, klasses) for t in ts)
    n = len(flat)
    if per_request and n > 10:
        times = [t for t, _ in flat]
        tail_idx = n - 11
        return {
            "p50_s": statistics.median(times),
            "tail_s": times[tail_idx],
            "tail_percentile": 100.0 * (tail_idx + 1) / n,
            "samples": n,
            "p50_class": sorted({flat[(n - 1) // 2][1], flat[n // 2][1]}),
            "tail_class": [flat[tail_idx][1]],
        }
    medians = [statistics.median(ts) for ts in samples]
    return {
        "p50_s": statistics.median(medians),
        "tail_s": max(medians),
        "tail_percentile": 100.0,
        "samples": n,
        "p50_class": None,
        "tail_class": None,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    pkg = _import_package()
    workdir = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        calls = {key: tr.entry_point(pkg, key, None) for key in tr.ENTRY_POINTS}
        workload = WORKLOADS[args.workload](pkg, calls, args.seed, workdir)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            report = _trace_run(workload, pkg)
        else:
            report = _timed_run(workload, args, SpeedProbe(Reference()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another worker's directory is still there
    report["info"] = workload.info
    print(json.dumps(report), flush=True)
    return 0


def _checks(workload, results, extra: list) -> list:
    if any(r is None for r in results):
        return extra + [("every operation of the first pass succeeded", False, "")]
    try:
        checks = workload.checks(results) + extra
    except Exception as err:  # a crashing check is a failed check
        return extra + [("output checks ran", False, f"{type(err).__name__}: {err}")]
    return [(name, bool(ok), note) for name, ok, note in checks]


def _timed_run(workload, args, probe: SpeedProbe) -> dict:
    phase = timed_phase(workload, args.seconds, probe)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = _checks(workload, phase["results"], [
        ("every repeated operation gave the first pass's result", phase["drifted"] == 0,
         f"{phase['drifted']} differed"),
    ])
    samples, adjusted = phase["samples"], phase["adjusted"]
    klasses = [op.klass for op in workload.ops]
    return {
        "wall_s": sum(statistics.median(ts) for ts in adjusted),
        "raw_wall_s": sum(statistics.median(ts) for ts in samples),
        "peak_rss_mb": peak_mb,
        "latency": latency(adjusted, klasses, workload.per_request),
        "raw_latency": latency(samples, klasses, workload.per_request),
        "kernel_s": statistics.median(probe.times),
        "speed": probe.run_speed(),
        "kernel_samples": len(probe.times),
        "timed_s": phase["timed_s"],
        "ops": phase["attempted"],
        "ops_failed": len(phase["failures"]),
        "failures": phase["failures"][:5],
        "checks": checks,
        "per_op_median_s": {op.name: statistics.median(ts)
                            for op, ts in zip(workload.ops, adjusted)},
        "digest": digest(phase["digests"]),
    }


def _trace_run(workload, pkg) -> dict:
    plain_s, results, plain_digests, failures = one_pass(workload)
    tracer = tr.Tracer()
    saved = tr.install(pkg, tracer)
    # the operations hold this dict, so entry points are swapped in place
    plain_calls = dict(workload.calls)
    workload.calls.update(
        {key: tr.entry_point(pkg, key, tracer) for key in tr.ENTRY_POINTS}
    )
    try:
        traced_s, _, traced_digests, traced_failures = one_pass(workload, tracer)
    finally:
        tr.uninstall(saved)
        workload.calls.update(plain_calls)
    failures += traced_failures
    metrics, split = tr.layer_metrics(tracer.spans, traced_s)
    metrics["trace.overhead_s"] = traced_s - plain_s
    checks = _checks(workload, results, [
        ("traced pass gave the untraced pass's results",
         traced_digests == plain_digests, ""),
    ])
    return {
        "layer_metrics": metrics,
        "split": split,
        "wall_s": traced_s,
        "untraced_wall_s": plain_s,
        "spans": len(tracer.spans),
        "ops": 2 * len(workload.ops),
        "ops_failed": len(failures),
        "failures": failures[:5],
        "checks": checks,
        "digest": digest(traced_digests),
        "untraced_digest": digest(plain_digests),
    }


if __name__ == "__main__":
    sys.exit(main())
