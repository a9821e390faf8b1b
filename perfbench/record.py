"""Record the benchmark's baseline: ten seeds per workload plus traced runs.

Usage, from the root of a checkout::

    python3 perfbench/record.py [--workload W ...] [--seeds 1-10] [--out FILE]

For each workload this runs ``run.py`` once per seed with tracing off and
reports, for every end-to-end metric, the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread (distance
between the quartiles as a share of the median).  It then makes two traced
runs at the default seed, checks that their count metrics are identical and
that their result digests match the untraced run's, and records the layer
split.  The JSON written to ``--out`` holds all of this together with the map
from each per-layer metric to the end-to-end metric it should move, and the
same statistics for the times before their adjustment to reference speed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import DEFAULT_SEED, WORKLOADS, _spec  # noqa: E402

HELD_OUT_SEED = 1000
# per-layer metric -> the end-to-end metric it should move, on which workload
LAYER_MAP = {
    "mvn.*": "wall_s on calibrate; latency_* on analyze; only a small part of simulate",
    "closure.classes_solved": "latency_* on analyze, with no change on calibrate",
    "closure.table_s": "wall_s on calibrate; latency_* on analyze",
    "closure.test_s": "latency_* on analyze",
    "closure.batch_s, closure.batch_reps_per_s": "wall_s on simulate",
    "sequential.boundaries_s, sequential.mvn_calls": "wall_s on calibrate",
    "sequential.batch_s, sequential.batch_reps_per_s": "wall_s on simulate",
    "combination.test_s, combination.mvn_calls": "latency_* on analyze",
    "combination.batch_s": "wall_s on simulate",
    "power.*": "wall_s on calibrate",
    "simulate.self_s, simulate.resources_s": "wall_s on simulate",
    "model.self_s, cli.self_s": "latency_* on analyze (small)",
    "trace.overhead_s": "none",
}
COUNTS = ("mvn.calls", "mvn.points", "mvn.point_dims", "mvn.quantile_calls",
          "mvn.rects_per_quantile", "closure.classes_solved", "sequential.mvn_calls",
          "combination.mvn_calls", "power.mvn_calls")


def _run(workload: str, seed: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = out.stdout.splitlines()
    detail = json.loads([ln for ln in lines if ln.startswith("detail: ")][-1][8:])
    return {"result": json.loads(lines[-1]), "detail": detail}


def _stats(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def _parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out")
    args = parser.parse_args()
    spec = _spec()
    seeds = _parse_seeds(args.seeds)
    record = {
        "seeds": {"default": DEFAULT_SEED, "held_out": HELD_OUT_SEED, "recorded": seeds},
        "run_seconds": spec["run_seconds"],
        "layer_map": LAYER_MAP,
        "workloads": {},
    }
    for workload in args.workload or WORKLOADS:
        runs = [_run(workload, seed, 0) for seed in seeds]
        record["environment"] = runs[0]["detail"]["environment"]
        metrics = {
            m["name"]: {"unit": m["unit"], "bound": m["bound"],
                        **_stats([r["result"]["metrics"][m["name"]]["value"] for r in runs])}
            for m in spec["end_to_end"]
        }
        details = [r["detail"]["detail"] for r in runs]
        unadjusted = {
            "setup_s": _stats([d["raw_setup_s"] for d in details]),
            "wall_s": _stats([d["raw_wall_s"] for d in details]),
            "latency_p50_s": _stats([d["raw_latency"]["p50_s"] for d in details]),
            "latency_tail_s": _stats([d["raw_latency"]["tail_s"] for d in details]),
            "reference_kernel_s": _stats([d["kernel_s"] for d in details]),
        }
        plain = _run(workload, DEFAULT_SEED, 0)
        traced = [_run(workload, DEFAULT_SEED, 1) for _ in range(2)]
        layer = [t["result"]["metrics"] for t in traced]
        counts_repeat = all(layer[0][c]["value"] == layer[1][c]["value"] for c in COUNTS)
        digests = {plain["detail"]["detail"]["digest"]}
        digests |= {t["detail"]["detail"][k] for t in traced
                    for k in ("digest", "untraced_digest")}
        first = runs[0]["detail"]["detail"]
        entry = {
            "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload),
            "operations": list(first["per_op_median_s"]) if workload != "analyze"
            else f"{first['info']['requests_per_pass']} requests per pass",
            "info": first["info"],
            "end_to_end": metrics,
            "unadjusted": unadjusted,
            "all_correct": all(r["result"]["correct"] for r in runs + traced),
            "latency_tail": {k: first["latency"][k] for k in
                             ("tail_percentile", "samples", "p50_class", "tail_class")},
            "layer_split": traced[0]["detail"]["detail"]["split"],
            "per_layer": {k: v["value"] for k, v in layer[0].items()},
            "counts_repeat_exactly": counts_repeat,
            "digest_same_traced_and_untraced": len(digests) == 1,
        }
        record["workloads"][workload] = entry
        print(json.dumps({workload: {k: entry[k] for k in (
            "all_correct", "counts_repeat_exactly", "digest_same_traced_and_untraced")},
            **{f"{workload}.{k}": round(v["spread"], 4) for k, v in metrics.items()}}),
            flush=True)
    text = json.dumps(record, indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
