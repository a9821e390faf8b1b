"""One SHA-256 over a fixed set of the package's outputs: a bit-identity check.

Two checkouts whose outputs agree to the last bit print the same digest; a
change that moves any covered value, even in its last bit, changes it.  It
covers what the perfbench digests do not: ``lfc_check`` in its three modes,
disjunctive power by quadrature and by simulation, ``tukey_global_test``,
the critical values of every subset of a two-sided K=3 design with equal
and with unequal variances,
``closed_test(method="lattice")`` with every local decision, ``sample_size``,
the staged statistics, flexible and stage-wise p-values on a two-sided, a
one-sided and a three-look unequal-variance design, the tail probability
table (also at every grid node, one ulp either side of it and beyond both
ends, on its own grid and on grids of two and three nodes) and its batch
test, simulated statistics, ``batch_gs_test`` and
``gs_closed_test`` with every local decision, ``mvn_rect`` on symmetric
boxes swept over many half-widths per matrix (the calls that reuse a
matrix's kept pivot plan), one-sided K=3 equicoordinate quantiles, the
two-look Pocock spends and a one-sided K=3 Q=2 boundary table on them,
the generalised boundary vector of a K=4 Q=2 design (a later stage of
rank 4, whose second full-accuracy evaluation integrates a difference),
the full-set boundary vector of a one-sided K=4 Q=2 design and the
boundary table of three looks whose middle one spends nothing (later
stages searched in the bracket of their own spend),
``run_scenario`` over every
procedure on a two-sided staged design (once more with enough replicates
for several blocks and a partial last one), over the five single-stage
procedures at K=4 and over the staged procedures on a one-sided design,
group-sequential and generalised boundary tables, the
messages that reject a table built for another design, and the
``--deterministic`` JSON and CSV standard output of the ``critical-values``
and ``gs-boundaries`` commands.

Usage::

    python3 tools/fingerprint.py [SRC]

``SRC`` is the directory the package is imported from (default: ``src/`` of
this checkout).  Prints the digest, then the number of outputs covered.

The canonical form of an output is a string: dict keys are sorted by their
canonical form, floats are written by ``repr``, arrays as nested lists,
numpy scalars as the Python scalars they hold, and a dataclass as its type
name and fields.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import sys
from collections.abc import Mapping
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"


def canonical(obj) -> str:
    """The canonical string form of one output."""
    if obj is None or isinstance(obj, (bool, np.bool_)):
        return repr(None if obj is None else bool(obj))
    if isinstance(obj, (int, np.integer)):
        return repr(int(obj))
    if isinstance(obj, (float, np.floating)):
        return repr(float(obj))
    if isinstance(obj, str):
        return repr(obj)
    if isinstance(obj, np.ndarray):
        return canonical(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical(x) for x in obj) + "]"
    if isinstance(obj, (set, frozenset)):
        return "{" + ",".join(sorted(canonical(x) for x in obj)) + "}"
    if isinstance(obj, Mapping):
        items = sorted(f"{canonical(k)}:{canonical(v)}" for k, v in obj.items())
        return "{" + ",".join(items) + "}"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
        return type(obj).__name__ + canonical(fields)
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def digest(outputs: Mapping) -> str:
    """SHA-256 of the canonical form of ``outputs``, a map from name to output."""
    return hashlib.sha256(canonical(outputs).encode()).hexdigest()


def _message(call) -> str:
    try:
        call()
    except ValueError as err:
        return str(err)
    return "no error"


def _result(call):
    """Value, error estimate and points of one ``mvn_rect`` call, or the
    message of the numerical error it raised."""
    from pairwise_closure.mvn import NumericsError

    try:
        res = call()
    except NumericsError as err:
        return str(err)
    return res.value, res.err_est, res.n_points


def _stdout(argv: list[str]) -> str:
    """Exit status and standard output of one command-line run."""
    from pairwise_closure import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(argv)
    return f"{status}\n{buf.getvalue()}"


def _around_nodes(grid: np.ndarray) -> np.ndarray:
    """Every node of ``grid``, one ulp either side of it, and an even
    spread of points from half a unit below the grid to half above it."""
    lo, hi = grid[0], grid[-1]
    return np.concatenate([grid, np.nextafter(grid, -np.inf), np.nextafter(grid, np.inf),
                           np.linspace(lo - 0.5, hi + 0.5, 41)])


def outputs() -> dict:
    """Every covered output, by name; needs the package on ``sys.path``."""
    from pairwise_closure.closure import closed_test, critical_values, tukey_global_test
    from pairwise_closure.combination import (
        CombinationWeights,
        TailProbabilityTable,
        batch_flexible_test,
        flexible_closed_test,
        stage_pvalue,
    )
    from pairwise_closure.model import TrialConfig, correlation
    from pairwise_closure.mvn import Rectangle, equicoord_quantile, mvn_rect
    from pairwise_closure.power import disjunctive_power, lfc, lfc_check, sample_size
    from pairwise_closure.sequential import (
        SpendingSchedule,
        StageData,
        batch_gs_test,
        generalised_boundaries,
        gs_boundaries,
        gs_closed_test,
    )
    from pairwise_closure.simulate import (
        PROCEDURES,
        SimScenario,
        run_scenario,
        simulate_statistics,
    )

    acc = 1e-4
    out: dict = {}
    k2 = TrialConfig.single_stage(2, 1.0, 50)
    k3 = TrialConfig.single_stage(3, 1.0, 100)
    k4 = TrialConfig.single_stage(4, 1.0, 100)
    k3_unequal = TrialConfig.single_stage(3, (1.0, 1.7, 0.8), (40, 60, 50))
    out["lfc_check"] = [
        lfc_check(k4, 0.5, seed=1, accuracy=acc),
        lfc_check(k2, 0.5, seed=1, accuracy=acc),
        lfc_check(k3, 0.5, seed=1, accuracy=acc, mode="search"),
        lfc_check(k3_unequal, 0.8, seed=1, accuracy=acc, mode="search"),
    ]

    table_k4 = critical_values(k4, 0.05, seed=1, accuracy=acc)
    mu_k4 = lfc(4, 0.4)
    out["power"] = [
        disjunctive_power(k4, mu_k4, seed=1, accuracy=acc, table=table_k4),
        disjunctive_power(k4, mu_k4, method="simulation", seed=2, n_reps=4000,
                          table=table_k4),
        disjunctive_power(k3_unequal, (0.3, 0.0, -0.2), alpha=0.1, seed=3, accuracy=acc),
    ]
    z_k4 = [2.9, -0.4, 1.1, 2.6, 0.2, -2.7]
    out["tukey"] = [
        tukey_global_test(z_k4, k4, 0.05, table=table_k4),
        tukey_global_test(z_k4, k4, 0.1, seed=4),
    ]
    # the lattice walk on a row whose full set is not rejected, and on one
    # where it is
    out["lattice"] = [
        (d.rejected, d.local, d.meta)
        for d in (closed_test(z, table_k4, method="lattice")
                  for z in ([0.4, -1.1, 0.2, 2.1, -0.3, 0.9], z_k4))
    ]
    # every subset of a two-sided K=3 design, equal and unequal variances
    out["critical_values"] = [critical_values(cfg, 0.05, seed=1, accuracy=acc).entries()
                              for cfg in (k3, k3_unequal)]
    # one matrix after another, each swept over half-widths in turn, so that
    # most calls run on the plan the call before kept; every bit of the
    # result is read, or the error raised, since a limit that moves by one
    # ulp seldom reaches the value, while a zero width divides 0 by 0
    widths = np.concatenate([[0.0, 8.0], np.linspace(0.1, 4.0, 40), [0.0]])
    out["mvn_rect/sweep"] = [
        [_result(lambda: mvn_rect(0.0, corr, Rectangle.centered(c, corr.dim),
                                  accuracy=acc, seed=3)) for c in widths]
        for corr in (correlation(k3, [1, 2, 3]), correlation(k3_unequal, [1, 2, 3]),
                     correlation(k3_unequal, [1, 3]), correlation(k4, [1, 2, 3]),
                     correlation(k4, [1, 2, 3, 4]), correlation(k4, [1, 2, 6]))]
    # the rank-2 Newton solves: one-sided quantiles, whose boxes are
    # orthants, and the two-look Pocock constant behind its spends
    k3_one_sided = TrialConfig.single_stage(3, (1.0, 1.7, 0.8), (40, 60, 50), sided="one-sided")
    out["equicoord_quantile/one-sided"] = [
        equicoord_quantile(correlation(k3_one_sided, members), 0.95, seed=1, accuracy=acc,
                           tail="upper")
        for members in ([1, 2], [1, 4], [1, 2, 3], range(1, 7))]
    pocock = SpendingSchedule.pocock(0.05, (0.5, 1.0), seed=1, accuracy=acc)
    out["pocock"] = pocock
    out["sample_size"] = [
        sample_size(k3, lfc(3, 0.5), seed=1, accuracy=acc),
        sample_size(k3_unequal, (0.4, 0.0, 0.2), power_target=0.8, seed=2, accuracy=acc),
    ]
    out["mismatch"] = [
        _message(lambda: tukey_global_test(z_k4, k4, 0.1, table=table_k4)),
        _message(lambda: tukey_global_test(
            z_k4, TrialConfig.single_stage(4, 1.0, 90), 0.05, table=table_k4)),
        _message(lambda: disjunctive_power(k4, mu_k4, alpha=0.01, table=table_k4)),
        _message(lambda: disjunctive_power(k3, (0.1, 0.0, 0.0), table=table_k4)),
    ]

    designs = {
        "two-sided": (TrialConfig.single_stage(3, 1.0, 50).with_stage_n(
            ((50, 50, 50), (100, 100, 100))), [[0.3, 0.1, -0.2], [0.25, 0.0, -0.15]]),
        "one-sided": (TrialConfig.single_stage(3, 1.0, 40, sided="one-sided").with_stage_n(
            ((40, 40, 40), (80, 80, 80))), [[0.4, 0.0, 0.1], [0.35, 0.05, 0.1]]),
        "three-look": (k3_unequal.with_stage_n(
            ((40, 60, 50), (80, 120, 100), (120, 180, 150))),
            [[0.5, 0.0, 0.2], [0.4, -0.1, 0.25], [0.45, -0.05, 0.2]]),
    }
    for name, (cfg, cum_means) in designs.items():
        data = StageData.from_cumulative_means(cfg, cum_means)
        m = cfg.n_comparisons
        full = range(1, m + 1)
        out[f"{name}/stage_data"] = data
        out[f"{name}/stage_p"] = [
            stage_pvalue(cfg, members, data.z_stage[q], stage=q + 1, seed=5, accuracy=acc)
            for members in ([1], [1, 2], full) for q in range(data.n_analyses)
        ]
        flexible = flexible_closed_test(data, alpha=0.1, seed=5, accuracy=acc)
        out[f"{name}/flexible"] = (flexible.rejected, flexible.local, flexible.meta)
        tail = TailProbabilityTable(cfg, seed=6)
        z = simulate_statistics(cfg, (0.3, 0.0, 0.1), 300, seed=7)
        out[f"{name}/simulate_statistics"] = z
        out[f"{name}/tail_p"] = [tail.pvalue(members, z[1][:, 0, 0])
                                 for members in ([1], [1, 2], full)]
        lo, hi = tail._grid()[[0, -1]]
        for n_nodes in (None, 2, 3):
            table = tail if n_nodes is None else TailProbabilityTable(
                cfg, seed=6, grid_step=(hi - lo) / (n_nodes - 1))
            out[f"{name}/tail_p/nodes-{n_nodes or 'default'}"] = [
                table.pvalue(members, _around_nodes(table._grid()))
                for members in ([1, 2], full)]
        weights = CombinationWeights.from_information(cfg)
        out[f"{name}/batch_flexible"] = batch_flexible_test(
            z[1], cfg, weights, 0.1, table=tail)
        spend = SpendingSchedule.obrien_fleming(0.05, cfg.info_fractions())
        gs = gs_boundaries(cfg, spend, seed=8, accuracy=acc)
        out[f"{name}/gs"] = gs.entries()
        out[f"{name}/batch_gs"] = batch_gs_test(z[0], gs)
        # one trial whose full set is not rejected, and the design's own trial
        null = StageData.from_cumulative_means(
            cfg, [[0.02 * q, 0.0, 0.01] for q in range(data.n_analyses)])
        out[f"{name}/gs_closed"] = [(d.rejected, d.local, d.meta)
                                    for d in (gs_closed_test(x, gs) for x in (null, data))]
        out[f"{name}/generalised"] = generalised_boundaries(
            cfg, spend, seed=8, accuracy=acc).entries()
    cfg, _ = designs["one-sided"]
    # a first look that spends enough for its boundary to matter
    out["one-sided/gs-pocock"] = gs_boundaries(cfg, pocock, seed=8, accuracy=acc).entries()
    k4_q2 = TrialConfig.single_stage(4, 1.0, 50).with_stage_n(((50,) * 4, (100,) * 4))
    k4_generalised = generalised_boundaries(
        k4_q2, SpendingSchedule.obrien_fleming(0.05, (0.5, 1.0)), seed=8, accuracy=acc)
    out["k4-q2/generalised"] = k4_generalised.value(k4_generalised.full_set())
    # later stages searched in the bracket of their own spend: a one-sided
    # K=4 Q=2 full set, and three looks whose middle one spends nothing
    k4_q2_one_sided = TrialConfig.single_stage(4, 1.0, 50, sided="one-sided").with_stage_n(
        ((50,) * 4, (100,) * 4))
    one_sided_gs = gs_boundaries(k4_q2_one_sided, SpendingSchedule.obrien_fleming(
        0.05, (0.5, 1.0)), seed=8, accuracy=acc)
    out["k4-q2-one-sided/gs"] = one_sided_gs.value(one_sided_gs.full_set())
    idle_middle = TrialConfig.single_stage(3, 1.0, 40).with_stage_n(
        ((40,) * 3, (80,) * 3, (120,) * 3))
    out["idle-middle-look/gs"] = gs_boundaries(
        idle_middle, SpendingSchedule((1 / 3, 2 / 3, 1.0), (0.01, 0.01, 0.05)), seed=8,
        accuracy=acc).entries()

    cfg, _ = designs["two-sided"]
    scenario = SimScenario(
        cfg, (0.35, 0.0, 0.1), PROCEDURES, replicates=3000, seed=9,
        spending=SpendingSchedule.pocock(0.05, cfg.info_fractions(), seed=9, accuracy=acc),
        accuracy=acc,
    )
    out["run_scenario"] = run_scenario(scenario, keep_decisions=True)
    # three whole blocks of 2^14 replicates and a partial fourth
    out["run_scenario/blocks"] = run_scenario(
        dataclasses.replace(scenario, replicates=50_000), keep_decisions=True)
    out["run_scenario/k4-single-stage"] = run_scenario(SimScenario(
        k4, (0.3, 0.1, 0.0, 0.2), ("dunnett", "global", "bonferroni", "unadjusted",
                                   "gatekeeping"),
        replicates=3000, seed=11, accuracy=acc,
    ), keep_decisions=True)
    cfg, _ = designs["one-sided"]
    out["run_scenario/one-sided-staged"] = run_scenario(SimScenario(
        cfg, (0.35, 0.0, 0.1), ("dunnett", "dunnett-gs", "dunnett-gs-generalised",
                                "combination"),
        replicates=3000, seed=12,
        spending=SpendingSchedule.obrien_fleming(0.05, cfg.info_fractions()),
        accuracy=acc,
    ), keep_decisions=True)

    staged = {"n_arms": 3, "sigma2": 1.0, "stage_n": [[50, 50, 50], [100, 100, 100]]}
    requests = {
        "critical-values": {"config": {"n_arms": 3, "sigma2": [1.0, 1.7, 0.8],
                                       "n": [40, 60, 50], "sided": "one-sided"}},
        "gs-boundaries": {"config": staged, "spending": {"type": "obrien-fleming"}},
        "gs-boundaries/generalised": {"config": staged, "spending": {"type": "obrien-fleming"},
                                      "generalised": True},
    }
    for name, request in requests.items():
        for fmt in ("json", "csv"):
            out[f"cli/{name}/{fmt}"] = _stdout([
                name.split("/")[0], "--input", json.dumps(request), "--format", fmt,
                "--seed", "10", "--accuracy", str(acc), "--deterministic",
            ])
    return out


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(Path(argv[0]).resolve() if argv else SRC))
    found = outputs()
    print(digest(found))
    print(f"{len(found)} outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
