"""Command-line front door for the package.

Six subcommands cover the workflow end to end: ``design`` (sample size for a
target disjunctive power), ``critical-values`` (the per-subset closed-testing
table), ``analyze`` (closed test of observed arm means, single-analysis or
group-sequential), ``gs-boundaries`` (per-subset stopping boundaries),
``combine`` (inverse-normal combination of stage p-values), and ``simulate``
(operating characteristics of a scenario, or the canned reference table via
``--table1``).

Input is a JSON object, passed inline or as a file path through ``--input``.
Output is JSON (default) or CSV with six significant digits, written to
``--output`` or standard output.  Every JSON payload carries
``schema_version`` plus the seed and accuracy that produced it; a timestamp
field is added unless ``--deterministic`` is set, so deterministic runs are
byte-identical.  Validation problems exit with status 2 and a JSON error
object on standard error; numeric non-convergence exits with status 3.
Every command solves its tables in the calling process.

This module checks only the shape of a request: that it is a JSON object with
the keys a command needs.  Every value (a level, a sidedness, an arm count,
a replicate count, the quadrature accuracy) is checked once, by the library
call that uses it, and its ``ValueError`` becomes the exit-2 error.

The shared ``config`` object looks like::

    {"n_arms": 3, "sigma2": 1.0, "n": 100, "sided": "two-sided"}

with either ``n`` (one analysis) or cumulative ``stage_n`` rows (one per
analysis), and scalars broadcasting across arms.  A ``spending`` object is
``{"type": "pocock" | "obrien-fleming" | "power", "rho": 1.0}`` with
information times taken from the config unless given explicitly.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from datetime import datetime, timezone

from .closure import closed_test, critical_values, one_sided_closed_test
from .combination import CombinationWeights, combine
from .model import TWO_SIDED, TrialConfig, _real, _whole, z_statistics
from .mvn import DEFAULT_ACCURACY, NumericsError, _check_accuracy
from .power import MeanConfig, lfc, sample_size
from .sequential import (
    SpendingSchedule,
    StageData,
    generalised_boundaries,
    gs_boundaries,
    gs_closed_test,
)
from .simulate import SimScenario, run_scenario, table1_rows

SCHEMA_VERSION = "1"

_EXIT_OK = 0
_EXIT_VALIDATION = 2
_EXIT_NUMERICS = 3

_CONFIG_KEYS = {"n_arms", "sigma2", "n", "stage_n", "sided"}


def _load_input(raw: str | None, command: str) -> dict:
    if raw is None:
        raise ValueError(f"{command} needs --input (a JSON object or a file path)")
    text = raw.strip()
    if not text.startswith("{"):
        try:
            with open(raw, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as err:
            raise ValueError(f"cannot read input file: {err}") from err
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"input is not valid JSON: {err}") from err
    if not isinstance(data, dict):
        raise ValueError("input must be a JSON object")
    return data


def _require(data: dict, key: str, context: str):
    if key not in data:
        raise ValueError(f"{context} is missing the required key {key!r}")
    return data[key]


def _config_from(data: dict) -> TrialConfig:
    obj = _require(data, "config", "the request")
    if not isinstance(obj, dict):
        raise ValueError("config must be a JSON object")
    unknown = set(obj) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys {sorted(unknown)}")
    n_arms = _require(obj, "n_arms", "config")
    sigma2 = _require(obj, "sigma2", "config")
    if ("n" in obj) == ("stage_n" in obj):
        raise ValueError("config needs exactly one of 'n' or 'stage_n'")
    try:
        # a staged config replaces the placeholder row with its own rows
        config = TrialConfig.single_stage(n_arms, sigma2, obj.get("n", 1),
                                          sided=obj.get("sided", TWO_SIDED))
        return config.with_stage_n(obj["stage_n"]) if "stage_n" in obj else config
    except (TypeError, ValueError) as err:
        raise ValueError(f"invalid config: {err}") from err


def _spending_from(data: dict, config: TrialConfig, alpha: float, args) -> SpendingSchedule:
    obj = _require(data, "spending", "the request")
    if not isinstance(obj, dict):
        raise ValueError("spending must be a JSON object")
    kind = _require(obj, "type", "spending")
    times = tuple(obj.get("info_times", config.info_fractions()))
    try:
        if kind == "pocock":
            return SpendingSchedule.pocock(
                alpha, times, seed=args.seed, accuracy=args.accuracy
            )
        if kind == "obrien-fleming":
            return SpendingSchedule.obrien_fleming(alpha, times)
        if kind == "power":
            return SpendingSchedule.power_family(
                alpha, times, rho=obj.get("rho", 1.0)
            )
    except (TypeError, ValueError) as err:
        raise ValueError(f"invalid spending schedule: {err}") from err
    raise ValueError(
        "spending.type must be 'pocock', 'obrien-fleming', or 'power'"
    )


def _weights_from(data: dict) -> CombinationWeights | None:
    if "weights" not in data:
        return None
    try:
        return CombinationWeights(tuple(data["weights"]))
    except (TypeError, ValueError) as err:
        raise ValueError(f"invalid weights: {err}") from err


def _subset_label(subset) -> str:
    return "+".join(str(k) for k in sorted(subset))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


# each handler returns (payload fields, csv header, csv rows)


def _cmd_design(data: dict, args) -> tuple[dict, list, list]:
    n_arms = _require(data, "n_arms", "the request")
    sigma2 = _require(data, "sigma2", "the request")
    alpha = data.get("alpha", 0.05)
    target = data.get("power", 0.9)
    config = TrialConfig.single_stage(n_arms, sigma2, 2, sided=data.get("sided", TWO_SIDED))
    if "means" in data:
        means = MeanConfig(tuple(data["means"]), delta=data.get("delta"))
        if len(set(means.mu)) == 1:
            raise ValueError("all arm means are equal; no difference to power for")
    else:
        means = lfc(config.n_arms, _require(data, "delta", "the request"))
    result = sample_size(
        config,
        means,
        alpha=alpha,
        power_target=target,
        seed=args.seed,
        accuracy=args.accuracy,
    )
    payload = {
        "means": list(means.mu),
        "alpha": alpha,
        "power_target": float(target),
        "n_total": result.n_total,
        "n_per_arm": list(result.n_per_arm),
        "power": result.power,
    }
    rows = [["n_total", result.n_total]]
    rows += [[f"n_arm_{i + 1}", n] for i, n in enumerate(result.n_per_arm)]
    rows += [["power", result.power], ["alpha", alpha]]
    return payload, ["quantity", "value"], rows


def _cmd_critical_values(data: dict, args) -> tuple[dict, list, list]:
    config = _config_from(data)
    alpha = data.get("alpha", 0.05)
    table = critical_values(
        config, alpha, seed=args.seed, accuracy=args.accuracy
    )
    entries = table.entries()
    payload = {
        "alpha": alpha,
        "n_comparisons": config.n_comparisons,
        "values": [
            {"subset": sorted(s), "critical_value": c} for s, c in entries.items()
        ],
    }
    rows = [[_subset_label(s), len(s), c] for s, c in entries.items()]
    return payload, ["subset", "size", "critical_value"], rows


def _cmd_analyze(data: dict, args) -> tuple[dict, list, list]:
    config = _config_from(data)
    alpha = data.get("alpha", 0.05)
    staged = "spending" in data
    if staged:
        schedule = _spending_from(data, config, alpha, args)
        cum_means = _require(data, "cum_means", "a staged analysis")
        bounds = gs_boundaries(
            config, schedule, seed=args.seed, accuracy=args.accuracy
        )
        stage_data = StageData.from_cumulative_means(config, cum_means)
        decision = gs_closed_test(stage_data, bounds)
        z_final = stage_data.z_cum[-1]
    else:
        means = _require(data, "means", "the request")
        table = critical_values(
            config, alpha, seed=args.seed, accuracy=args.accuracy
        )
        stats = z_statistics(config, means, stage=config.n_stages)
        test = closed_test if config.sided == TWO_SIDED else one_sided_closed_test
        decision = test(stats, table)
        z_final = [s.z for s in stats]
    comparisons = []
    for p, z in zip(config.pairs(), z_final):
        entry = {
            "comparison": p.k,
            "arm_i": p.i,
            "arm_j": p.j,
            "z": float(z),
            "rejected": bool(decision.rejected[p.k - 1]),
        }
        if decision.stopped_stage is not None:
            entry["stopped_stage"] = decision.stopped_stage[p.k - 1]
        comparisons.append(entry)
    payload = {
        "procedure": decision.procedure,
        "alpha": alpha,
        "any_rejected": any(decision.rejected),
        "rejected": decision.rejected_indices(),
        "comparisons": comparisons,
    }
    header = ["comparison", "arm_i", "arm_j", "z", "rejected"]
    if staged:
        header.append("stopped_stage")
    rows = [[c[h] for h in header] for c in comparisons]
    return payload, header, rows


def _cmd_gs_boundaries(data: dict, args) -> tuple[dict, list, list]:
    config = _config_from(data)
    alpha = data.get("alpha", 0.05)
    schedule = _spending_from(data, config, alpha, args)
    build = generalised_boundaries if data.get("generalised") else gs_boundaries
    bounds = build(config, schedule, seed=args.seed, accuracy=args.accuracy)
    entries = bounds.entries()
    payload = {
        "alpha": alpha,
        "generalised": bool(data.get("generalised")),
        "info_times": list(schedule.info_times),
        "cumulative_spend": list(schedule.per_stage),
        "values": [
            # an unreachable analysis (no error to spend) appears as null
            {
                "subset": sorted(s),
                "boundaries": [c if math.isfinite(c) else None for c in c_vec],
            }
            for s, c_vec in entries.items()
        ],
    }
    rows = [
        [_subset_label(s), stage + 1, c]
        for s, c_vec in entries.items()
        for stage, c in enumerate(c_vec)
    ]
    return payload, ["subset", "stage", "boundary"], rows


def _cmd_combine(data: dict, args) -> tuple[dict, list, list]:
    pvalues = _require(data, "p_values", "the request")
    if not isinstance(pvalues, list) or not pvalues:
        raise ValueError("p_values must be a nonempty list")
    # combine() also takes an array per stage, which this output cannot hold
    pvalues = [_real(p, "each entry of p_values") for p in pvalues]
    weights = _weights_from(data)
    combined = combine(pvalues, weights)
    used = weights or CombinationWeights.equal(len(pvalues))
    payload = {
        "p_values": pvalues,
        "weights": list(used.weights),
        "combined_p": combined,
    }
    rows = [[f"p_{q + 1}", p] for q, p in enumerate(pvalues)]
    rows += [[f"w_{q + 1}", w] for q, w in enumerate(used.weights)]
    rows.append(["combined_p", combined])
    return payload, ["quantity", "value"], rows


def _table1(data: dict, args) -> tuple[dict, list, list]:
    replicates = _whole(data.get("replicates", 100_000), "replicates")
    rows = table1_rows(seed=args.seed, replicates=replicates)
    payload = {"replicates": replicates, "rows": rows}
    header = ["means", "procedure", "any_reject"]
    header += [f"r{r}" for r in range(1, 7)]
    header.append("se_any")
    out = [
        [
            "(" + ",".join(f"{v:g}" for v in row["means"]) + ")",
            row["procedure"],
            row["any_reject"],
            *row["counts"],
            row["any_se"],
        ]
        for row in rows
    ]
    return payload, header, out


def _cmd_simulate(data: dict, args) -> tuple[dict, list, list]:
    if args.table1:
        return _table1(data, args)
    config = _config_from(data)
    alpha = data.get("alpha", 0.05)
    spending = None
    if "spending" in data:
        spending = _spending_from(data, config, alpha, args)
    weights = _weights_from(data)
    scenario = SimScenario(
        config=config,
        means=MeanConfig(tuple(_require(data, "means", "the request"))),
        procedures=tuple(_require(data, "procedures", "the request")),
        replicates=data.get("replicates", 100_000),
        seed=args.seed,
        spending=spending,
        weights=weights,
        alpha=alpha,
        accuracy=args.accuracy,
    )
    result = run_scenario(scenario)
    m = config.n_comparisons
    payload = {
        "alpha": alpha,
        "replicates": scenario.replicates,
        "procedures": {
            tag: {
                "any_reject": s.any_reject,
                "any_se": s.any_se,
                "per_count": list(s.per_count),
                "per_count_se": list(s.per_count_se),
                "mean_total_n": s.mean_total_n,
            }
            for tag, s in result.procedures.items()
        },
    }
    header = ["procedure", "any_reject", "any_se"]
    header += [f"r{r}" for r in range(m + 1)]
    header.append("mean_total_n")
    rows = [
        [tag, s.any_reject, s.any_se, *s.per_count, s.mean_total_n]
        for tag, s in result.procedures.items()
    ]
    return payload, header, rows


# each command's handler and its help line
_COMMANDS = {
    "design": (_cmd_design, "smallest sample size reaching a target disjunctive power"),
    "critical-values": (_cmd_critical_values, "closed-testing critical value for every subset"),
    "analyze": (_cmd_analyze, "closed test of observed arm means"),
    "gs-boundaries": (_cmd_gs_boundaries, "group-sequential boundaries per subset and stage"),
    "combine": (_cmd_combine, "inverse-normal combination of stage p-values"),
    "simulate": (_cmd_simulate, "operating characteristics of a scenario"),
}


def _render_csv(header: list, rows: list) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def _render_json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _error(status: int, kind: str, message: str) -> int:
    sys.stderr.write(
        json.dumps({"error": {"type": kind, "message": message}}) + "\n"
    )
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairwise-closure",
        description="Design and analysis of all-pairwise multi-arm experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        p.add_argument("--input", help="JSON object, inline or a file path")
        p.add_argument("--output", help="write the result here instead of stdout")
        p.add_argument(
            "--format", choices=("json", "csv"), default="json",
            help="output format (default json)",
        )
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--accuracy", type=float, default=DEFAULT_ACCURACY,
            help=f"quadrature accuracy (default {DEFAULT_ACCURACY:g})",
        )
        p.add_argument(
            "--deterministic", action="store_true",
            help="omit the timestamp so identical runs are byte-identical",
        )
        if name == "simulate":
            p.add_argument(
                "--table1", action="store_true",
                help="run the canned four-arm reference comparison",
            )
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reads its arguments with, built on first use:
    building it takes twenty times as long as parsing a request."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    handler, _ = _COMMANDS[args.command]
    try:
        _check_accuracy(args.accuracy)
        # only the canned reference table runs without a request
        if args.input is None and getattr(args, "table1", False):
            data = {}
        else:
            data = _load_input(args.input, args.command)
        fields, header, rows = handler(data, args)
    except NumericsError as err:
        return _error(_EXIT_NUMERICS, "numerics", str(err))
    except (TypeError, ValueError, KeyError) as err:
        return _error(_EXIT_VALIDATION, "validation", str(err))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "seed": args.seed,
        "accuracy": args.accuracy,
    }
    if not args.deterministic:
        payload["generated_at"] = datetime.now(timezone.utc).isoformat()
    payload.update(fields)
    text = (
        _render_csv(header, rows)
        if args.format == "csv"
        else _render_json(payload)
    )
    try:
        _emit(text, args.output)
    except OSError as err:
        return _error(_EXIT_VALIDATION, "io", f"cannot write output: {err}")
    return _EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
