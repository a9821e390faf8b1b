"""Replicated trial simulation and operating characteristics.

Arm means are drawn directly from their sampling distribution (the
sufficient statistics of patient-level data), every requested procedure is
applied to the identical simulated statistics (common random numbers), and
the harness reports the probability of rejecting at least one hypothesis,
the full rejection-count distribution, and, for staged procedures, the mean
total sample size after dropping fully resolved arms.

Randomness comes from a counter-based generator keyed by the master seed, so
replicate r sees the same data no matter how many replicates are requested
or how the work is split.  Replicates are drawn and decided in blocks of
2^14, and only running counts are kept between blocks, so the peak memory of
a run is one block's, whatever the replicate count (plus replicates x m
bools when the decisions are kept).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .closure import (
    _check_global_design,
    _fixed_sequence,
    _normal_cut,
    batch_closed_test,
    critical_values,
)
from .combination import CombinationWeights, TailProbabilityTable, batch_flexible_test
from .model import (
    MeanConfig,
    TrialConfig,
    _arm_means,
    _check_alpha,
    _max_statistic,
    _pair_z,
    _resolved_arms,
    _whole,
)
from .mvn import DEFAULT_ACCURACY, NumericsError
from .sequential import SpendingSchedule, _first_crossing, batch_gs_test, gs_boundaries

_SINGLE_STAGE = ("dunnett", "global", "bonferroni", "unadjusted", "gatekeeping")
_STAGED = ("dunnett-gs", "dunnett-gs-generalised")
PROCEDURES = (*_SINGLE_STAGE, *_STAGED, "combination")
# Replicates per block.  A run's peak memory is one block's, and the per-run
# state (tables, boundaries, the step-down's cut memo on the table) is built
# outside the block loop, so smaller blocks cost no more solves.  Peak RSS
# after both runs of the simulate benchmark (K=5 with 700,000 replicates,
# then K=3 Q=2 staged with 1,500,000; the import is about 57 MB of it), on a
# 2-vCPU Xeon: 128.7 MB at 200,000 rows, 84.6 MB at 2^16, 71.8 MB at 2^15,
# 65.5 MB at 2^14 and 63.1 MB at 2^13.
_CHUNK = 1 << 14
# a schedule's total spend may miss alpha by this much: the O'Brien-Fleming
# spend at alpha 0.05 totals 0.050000000000000044
_SPEND_ROUNDING = 1e-12


@dataclass(frozen=True)
class SimScenario:
    """One simulation setting: a design, true means, and procedures to run.

    ``accuracy`` is the quadrature accuracy of the closure table and the
    boundary solves.  The ``combination`` rule's tail probability table keeps
    its own default of 1e-4: each class of that table takes 161 grid solves
    (321 one-sided).  At K=3 every class has rank 2 and is integrated
    exactly, so the accuracy costs nothing there, but from K=4 the solves
    cost several times more at the simulation default of 1e-5 (two-look
    full set: 0.13 s at K=4 against 0.72 s).
    """

    config: TrialConfig
    means: MeanConfig
    procedures: tuple[str, ...]
    replicates: int = 100_000
    seed: int = 0
    spending: SpendingSchedule | None = None
    weights: CombinationWeights | None = None
    alpha: float = 0.05
    accuracy: float = DEFAULT_ACCURACY

    def __post_init__(self) -> None:
        if not isinstance(self.means, MeanConfig):
            object.__setattr__(self, "means", MeanConfig(tuple(self.means)))
        _arm_means(self.means, self.config.n_arms)
        procedures = tuple(self.procedures)
        object.__setattr__(self, "procedures", procedures)
        if not procedures:
            raise ValueError("need at least one procedure")
        unknown = [t for t in procedures if t not in PROCEDURES]
        if unknown:
            raise ValueError(f"unknown procedures {unknown}; choose from {PROCEDURES}")
        if len(set(procedures)) != len(procedures):
            raise ValueError("procedures must be distinct")
        object.__setattr__(self, "replicates", _replicate_count(self.replicates))
        _check_alpha(self.alpha)
        if any(t in _STAGED for t in procedures) and self.spending is None:
            raise ValueError("staged procedures need a spending schedule")
        n_stages = self.config.n_stages
        if self.spending is not None:
            if self.spending.n_stages != n_stages:
                raise ValueError(f"the spending schedule has {self.spending.n_stages} "
                                 f"analyses but the design has {n_stages}")
            # the staged procedures run at the schedule's level, the others at alpha
            if abs(self.spending.alpha - self.alpha) > _SPEND_ROUNDING:
                raise ValueError(f"the spending schedule spends {self.spending.alpha!r} "
                                 f"in total but alpha is {self.alpha!r}")
        if self.weights is not None:
            if not isinstance(self.weights, CombinationWeights):
                object.__setattr__(self, "weights", CombinationWeights(tuple(self.weights)))
            if self.weights.n_stages != n_stages:
                raise ValueError(f"the combination weights cover {self.weights.n_stages} "
                                 f"stages but the design has {n_stages}")
        if "global" in procedures:
            _check_global_design(self.config)


@dataclass(frozen=True)
class ProcedureSummary:
    """Operating characteristics of one procedure in one scenario."""

    procedure: str
    any_reject: float
    any_se: float
    per_count: tuple[float, ...]
    per_count_se: tuple[float, ...]
    mean_total_n: float | None = None


@dataclass(frozen=True)
class OperatingCharacteristics:
    """Per-procedure summaries from a common-random-numbers run."""

    scenario: SimScenario
    procedures: dict[str, ProcedureSummary]
    decisions: dict[str, np.ndarray] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        for summary in self.procedures.values():
            total = sum(summary.per_count)
            if abs(total - 1.0) > 1e-9:
                raise ValueError(
                    f"{summary.procedure}: rejection counts sum to {total}"
                )
            if any(not 0.0 <= p <= 1.0 for p in summary.per_count):
                raise ValueError("probabilities must lie in [0, 1]")
            if abs(summary.any_reject - (1.0 - summary.per_count[0])) > 1e-9:
                raise ValueError("any_reject must complement the zero count")

    def summary(self, procedure: str) -> ProcedureSummary:
        return self.procedures[procedure]


def simulate_statistics(
    config: TrialConfig,
    means: Sequence[float] | MeanConfig,
    replicates: int,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative and stage-wise statistics for simulated trials.

    Returns ``(z_cum, z_stage)``, each of shape (replicates, stages,
    comparisons).  The first r replicates are identical for any larger
    replicate count with the same seed.  The arrays are views with the
    replicate index innermost in memory, so they need not be C-contiguous;
    for a single-stage design both are the same array.
    """
    mu = _arm_means(means, config.n_arms)
    rng = np.random.Generator(np.random.Philox(key=seed))
    return _draw_statistics(config, mu, _replicate_count(replicates), rng)


def _replicate_count(replicates) -> int:
    """A replicate count: a whole number read through ``_whole``, at least 1."""
    replicates = _whole(replicates, "replicates")
    if replicates < 1:
        raise ValueError("need at least one replicate")
    return replicates


def _blocks(config, mu, replicates, seed):
    """The statistics of :func:`simulate_statistics`, block by block.

    Yields ``(start, z_cum, z_stage)`` for consecutive blocks of at most
    ``_CHUNK`` replicates, the first replicate of the block at index
    ``start``.  The blocks read one Philox stream in turn, so together they
    hold the bits that one call for every replicate returns, and the memory
    in use is one block's whatever the count.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    for start in range(0, replicates, _CHUNK):
        yield start, *_draw_statistics(config, mu, min(_CHUNK, replicates - start), rng)


def _draw_statistics(config, mu, n_reps, rng):
    # the draw keeps its (replicates, stages, arms) order, so the stream is
    # fixed; the work runs on one (arms, stages, replicates) copy, and each
    # per-arm term is shaped (arms, stages, 1) to broadcast over replicates
    inc = config.stage_increments()
    sig2 = np.asarray(config.sigma2)
    cum_n = np.asarray(config.stage_n, dtype=float)
    sums = np.ascontiguousarray(
        rng.standard_normal((n_reps, config.n_stages, config.n_arms)).T)
    sums *= np.sqrt(sig2 * inc).T[..., None]
    sums += (np.asarray(mu) * inc).T[..., None]
    # a running sum over whole stage rows: the additions of np.cumsum, in
    # its order, without its walk along the short stage axis
    cum = sums.copy() if config.n_stages > 1 else sums
    for q in range(1, config.n_stages):
        cum[:, q] += cum[:, q - 1]
    cum /= cum_n.T[..., None]
    z_cum = _pair_z(cum, (sig2 / cum_n).T[..., None], config.sided)
    if config.n_stages == 1:
        # one stage: the cumulative statistics are the stage's, bit for bit
        return z_cum, z_cum
    sums /= inc.T[..., None]
    return z_cum, _pair_z(sums, (sig2 / inc).T[..., None], config.sided)


def _build_resources(scenario: SimScenario) -> dict[str, Callable]:
    """The decision rule of every requested procedure, keyed by its tag.

    Each procedure's table, boundaries or cut is built here once and shared
    by every replicate; the two Dunnett-type single-stage procedures share
    one table, and the two staged procedures one boundary schedule; per
    chunk, the single-stage rules share one array of final statistics and
    the staged rules one array of cumulative ones.
    ``rule(z_cum, z_stage)`` returns the (replicates, m) rejection matrix
    and, for staged procedures, the stopping stages (None otherwise).  The
    comparator cuts and the fixed-sequence rule are those of the
    single-trial tests in ``closure``.  ``scenario.accuracy`` sets the
    closure table and the boundary solves; the ``combination`` rule's
    :class:`~pairwise_closure.combination.TailProbabilityTable` is solved at
    its own 1e-4, since from K=4 its 161 grid solves per class (321
    one-sided) would cost several times more at the simulation default of
    1e-5; at K=3 they are exact at any accuracy.

    ``global`` and ``dunnett-gs-generalised`` read one full-set cut for
    every subset.  A superset's maximum is never below a member's
    statistic, so comparison k is rejected exactly when its own statistic
    crosses, and the staged rule stops at k's own first crossing, as
    :func:`~pairwise_closure.sequential.batch_gs_test` does on a
    generalised schedule.
    """
    cfg = scenario.config
    alpha, sided = scenario.alpha, cfg.sided
    m = cfg.n_comparisons
    tags = scenario.procedures
    solve = {"seed": scenario.seed, "accuracy": scenario.accuracy}

    def per_chunk(form, readers):
        # form(z_cum) once for each z_cum handed to the rules that read it;
        # the last of those lets it go, so it does not sit beside the
        # temporaries of the rules that follow
        kept: dict = {}

        def formed(z_cum):
            if kept.get("z_cum") is not z_cum:
                kept.update(z_cum=z_cum, value=form(z_cum), left=readers)
            kept["left"] -= 1
            value = kept["value"]
            if not kept["left"]:
                kept.clear()
            return value
        return formed

    final_stat = per_chunk(lambda z_cum: _max_statistic(z_cum[:, -1, :], sided),
                           sum(tag in tags for tag in _SINGLE_STAGE))
    staged_stat = per_chunk(lambda z_cum: _max_statistic(z_cum, sided),
                            sum(tag in tags for tag in _STAGED))

    def single(decide):
        # single-analysis rules read the final statistics
        return lambda z_cum, z_stage: (decide(final_stat(z_cum)), None)

    cut_one = _normal_cut(alpha, 1, sided)
    cut_all = _normal_cut(alpha, m, sided)
    natural = range(1, m + 1)
    rules = {
        "bonferroni": single(lambda stat: stat > cut_all),
        "unadjusted": single(lambda stat: stat > cut_one),
        "gatekeeping": single(lambda stat: _fixed_sequence(stat, cut_one, natural)),
    }
    if "dunnett" in tags or "global" in tags:
        table = critical_values(cfg, alpha, **solve)
        rules["dunnett"] = single(lambda stat: batch_closed_test(stat, table))
    if "global" in tags:
        c_full = table.value(table.full_set())
        rules["global"] = single(lambda stat: stat > c_full)
    if any(tag in _STAGED for tag in tags):
        bounds = gs_boundaries(cfg, scenario.spending, **solve)
    if "dunnett-gs" in tags:
        bounds.entries()
        rules["dunnett-gs"] = lambda z_cum, z_stage: batch_gs_test(
            z_cum, bounds, _stat=staged_stat(z_cum))
    if "dunnett-gs-generalised" in tags:
        full_bounds = bounds.value(bounds.full_set())

        def generalised(z_cum, z_stage):
            # (replicates, m, analyses): each comparison's own statistic
            own = np.swapaxes(staged_stat(z_cum), 1, 2)
            first = _first_crossing(own, full_bounds)
            return first > 0, first

        rules["dunnett-gs-generalised"] = generalised
    if "combination" in tags:
        weights = scenario.weights or CombinationWeights.from_information(cfg)
        tail_table = TailProbabilityTable(cfg, seed=scenario.seed)
        rules["combination"] = lambda z_cum, z_stage: (
            batch_flexible_test(z_stage, cfg, weights, alpha, table=tail_table), None
        )
    return {tag: rules[tag] for tag in tags}


def _total_sample_size(config, rejected, stopped):
    """Per-replicate total enrolment when fully resolved arms stop recruiting.

    An arm is dropped once every pairwise hypothesis involving it is
    rejected (either direction for one-sided families); it then keeps the
    enrolment of the analysis that resolved it.
    """
    stage = _resolved_arms(config.n_arms, rejected, stopped)
    # each arm's enrolment if it is never resolved (at the last analysis),
    # then at analyses 1..Q
    stage_n = np.asarray(config.stage_n, dtype=float)
    sizes = np.concatenate([stage_n[-1:], stage_n]).T
    total = np.zeros(len(rejected))
    # arm by arm; the sizes are whole numbers, so the sum is exact in any order
    for arm in range(config.n_arms):
        total += sizes[arm].take(stage[arm])
    return total


def run_scenario(
    scenario: SimScenario, keep_decisions: bool = False
) -> OperatingCharacteristics:
    """Apply every procedure of the scenario to common simulated trials.

    Deterministic for a fixed scenario: the master seed drives both the
    simulated data and the quadrature used for tables and boundaries.  The
    tables, boundaries and cuts are built once; the replicates are then
    drawn and decided block by block, so peak memory is that of one block.
    With ``keep_decisions`` the per-replicate rejection matrices are
    attached to the result, which adds replicates x m bools per procedure.
    """
    cfg = scenario.config
    m = cfg.n_comparisons
    rules = _build_resources(scenario)
    hist = {tag: np.zeros(m + 1, dtype=np.int64) for tag in scenario.procedures}
    n_sum = {tag: 0.0 for tag in _STAGED if tag in scenario.procedures}
    kept: dict[str, list] = {tag: [] for tag in scenario.procedures}
    for start, z_cum, z_stage in _blocks(cfg, scenario.means.mu, scenario.replicates,
                                         scenario.seed):
        take = len(z_cum)
        for tag in scenario.procedures:
            try:
                rejected, stopped = rules[tag](z_cum, z_stage)
            except NumericsError as err:
                raise NumericsError(
                    f"{tag} failed on replicates {start + 1}..{start + take}: {err}"
                ) from err
            count = np.zeros(take, dtype=np.int64)
            for col in range(m):
                count += rejected[:, col]
            hist[tag] += np.bincount(count, minlength=m + 1)
            if tag in n_sum:
                n_sum[tag] += _total_sample_size(cfg, rejected, stopped).sum()
            if keep_decisions:
                kept[tag].append(rejected)
    reps = scenario.replicates
    summaries = {}
    for tag in scenario.procedures:
        per_count = hist[tag] / reps
        se = np.sqrt(per_count * (1.0 - per_count) / reps)
        any_reject = 1.0 - per_count[0]
        summaries[tag] = ProcedureSummary(
            procedure=tag,
            any_reject=float(any_reject),
            any_se=float(math.sqrt(any_reject * (1.0 - any_reject) / reps)),
            per_count=tuple(float(p) for p in per_count),
            per_count_se=tuple(float(s) for s in se),
            mean_total_n=(n_sum[tag] / reps) if tag in n_sum else None,
        )
    decisions = None
    if keep_decisions:
        decisions = {tag: np.concatenate(rows, axis=0) for tag, rows in kept.items()}
    return OperatingCharacteristics(scenario, summaries, decisions)


# Reference four-arm comparison: alpha 0.05, 90% power at a standardized
# difference of 0.3743, 809 patients per arm.  The response scale is
# calibrated so that the (10, 5, 5, 0) scenario rejects at least one
# hypothesis with probability 0.78, which pins the largest standardized
# pairwise noncentrality at 3.221873 and hence sigma below.
TABLE1_N_PER_ARM = 809
TABLE1_U = 3.221873
TABLE1_SIGMA = 10.0 / (TABLE1_U * math.sqrt(2.0 / TABLE1_N_PER_ARM))
TABLE1_MEANS = ((0.0, 0.0, 0.0, 0.0), (10.0, 5.0, 5.0, 0.0), (10.0, 10.0, 0.0, 0.0))
_TABLE1_LABELS = {
    "dunnett": "Dunnett",
    "global": "Global",
    "bonferroni": "Bonferroni",
    "unadjusted": "Unadjusted",
}


def table1_rows(seed: int = 0, replicates: int = 100_000) -> list[dict]:
    """Operating characteristics of the reference four-arm scenarios.

    One dict per (mean vector, procedure) pair with the probability of at
    least one rejection, the distribution of rejection counts (r = 1..6),
    and Monte Carlo standard errors.  The null row also carries the
    unadjusted comparator.
    """
    config = TrialConfig.single_stage(4, TABLE1_SIGMA**2, TABLE1_N_PER_ARM)
    rows = []
    for means in TABLE1_MEANS:
        procedures = ["dunnett", "global", "bonferroni"]
        if not any(means):
            procedures.append("unadjusted")
        scenario = SimScenario(
            config=config,
            means=MeanConfig(means),
            procedures=tuple(procedures),
            replicates=replicates,
            seed=seed,
        )
        result = run_scenario(scenario)
        for tag in procedures:
            s = result.summary(tag)
            rows.append(
                {
                    "means": means,
                    "procedure": tag,
                    "any_reject": s.any_reject,
                    "any_se": s.any_se,
                    "counts": s.per_count[1:],
                    "counts_se": s.per_count_se[1:],
                }
            )
    return rows


def table1_report(seed: int = 0, replicates: int = 100_000) -> str:
    """Formatted text table of :func:`table1_rows`."""
    rows = table1_rows(seed=seed, replicates=replicates)
    header = (
        f"{'mu':>14}  {'Test':<10}  {'>=1':>5}"
        + "".join(f"  {r:>5}" for r in range(1, 7))
        + f"  {'SE(>=1)':>8}"
    )
    lines = [header, "-" * len(header)]
    previous = None
    for row in rows:
        if previous is not None and row["means"] != previous:
            lines.append("")
        previous = row["means"]
        mu = "(" + ",".join(f"{v:g}" for v in row["means"]) + ")"
        lines.append(
            f"{mu:>14}  {_TABLE1_LABELS[row['procedure']]:<10}  "
            f"{row['any_reject']:>5.2f}"
            + "".join(f"  {p:>5.2f}" for p in row["counts"])
            + f"  {row['any_se']:>8.4f}"
        )
    return "\n".join(lines)
