"""Group-sequential boundaries and multi-stage closed testing.

Every intersection hypothesis gets its own vector of stage boundaries,
calibrated by an error-spending schedule: at analysis q the cumulative
probability (under the intersection null) of having crossed at any analysis
up to q equals the spent error alpha*(tau_q).  The crossing probabilities
are rectangle probabilities of the jointly normal cumulative statistics
across stages, whose covariance factorizes as the single-stage correlation
times sqrt(t_min/t_max) in the information fractions; that joint form
replaces the equivalent stage-conditioning integral and is what the
quadrature kernel consumes directly.

The subset lattice, the closure rule and the per-class cache come from
``closure``; this module supplies the boundary solve and the staged local
test (a subset is rejected at the first analysis its maximum crosses).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import ndtr, ndtri

from .closure import (
    ClosureDecision,
    _all_subsets,
    _ClassCache,
    _closure_rule,
    _derived_seed,
    _key_correlation,
    _subset_max,
)
from .model import (
    CorrelationModel,
    TrialConfig,
    _check_alpha,
    _max_statistic,
    _normal_tails,
    _pair_z,
    _real,
    _reals,
    _resolved_arms,
    correlation,
    z_statistics,
)
from .mvn import (
    DEFAULT_ACCURACY,
    DEFAULT_QUANTILE_TOL,
    _check_tol,
    _equicoord_root,
    _first_bracket,
    _max_rect,
    _padded,
    _SolveAnchor,
    _two_phase_root,
    equicoord_quantile,
    mvn_rect,
)

_SPEND_FLOOR = 1e-6


def _check_info_times(info_times: Sequence[float]) -> tuple[float, ...]:
    times = tuple(_real(t, "an information time") for t in info_times)
    if not times:
        raise ValueError("need at least one analysis time")
    if any(not 0.0 < t <= 1.0 for t in times):
        raise ValueError("information times must lie in (0, 1]")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("information times must be strictly increasing")
    if abs(times[-1] - 1.0) > 1e-9:
        raise ValueError("the final information time must equal 1")
    return times[:-1] + (1.0,)


@dataclass(frozen=True)
class SpendingSchedule:
    """Cumulative error spend at each analysis.

    ``per_stage[q-1]`` is alpha*(tau_q), the total error available through
    analysis q; the final entry is the overall alpha.  Build one with the
    named constructors or supply the cumulative spends directly.
    """

    info_times: tuple[float, ...]
    per_stage: tuple[float, ...]
    name: str = "custom"

    def __post_init__(self) -> None:
        times = _check_info_times(self.info_times)
        object.__setattr__(self, "info_times", times)
        spends = tuple(_real(a, "a cumulative spend") for a in self.per_stage)
        object.__setattr__(self, "per_stage", spends)
        if len(spends) != len(times):
            raise ValueError("need one cumulative spend per analysis")
        if any(not 0.0 <= a < 1.0 for a in spends):
            raise ValueError("cumulative spends must lie in [0, 1)")
        if any(b < a for a, b in zip(spends, spends[1:])):
            raise ValueError("cumulative spends must be nondecreasing")
        if spends[-1] <= 0.0:
            raise ValueError("the total spend must be positive")

    @property
    def alpha(self) -> float:
        return self.per_stage[-1]

    @property
    def n_stages(self) -> int:
        return len(self.info_times)

    def increments(self) -> tuple[float, ...]:
        prev = 0.0
        out = []
        for a in self.per_stage:
            out.append(a - prev)
            prev = a
        return tuple(out)

    def scaled(self, factor: float) -> "SpendingSchedule":
        """Same shape, total spend multiplied by ``factor``."""
        if not 0.0 < factor * self.alpha < 1.0:
            raise ValueError("scaled total spend must lie in (0, 1)")
        return SpendingSchedule(
            self.info_times,
            tuple(a * factor for a in self.per_stage),
            name=f"{self.name}*{factor:g}",
        )

    @classmethod
    def from_function(
        cls, fn: Callable[[float], float], info_times: Sequence[float], name="custom"
    ) -> "SpendingSchedule":
        times = _check_info_times(info_times)
        return cls(times, tuple(fn(t) for t in times), name=name)

    @classmethod
    def obrien_fleming(
        cls, alpha: float, info_times: Sequence[float]
    ) -> "SpendingSchedule":
        """O'Brien-Fleming-type spend: 2(1 - Phi(z_{alpha/2} / sqrt(tau)))."""
        _check_alpha(alpha)
        z = ndtri(1.0 - alpha / 2.0)
        return cls.from_function(
            lambda t: 2.0 * (1.0 - ndtr(z / math.sqrt(t))),
            info_times,
            name="obrien_fleming",
        )

    @classmethod
    def power_family(
        cls, alpha: float, info_times: Sequence[float], rho: float = 1.0
    ) -> "SpendingSchedule":
        """Kim-DeMets power spend alpha * tau^rho."""
        _check_alpha(alpha)
        rho = _real(rho, "rho")
        if not rho > 0:
            raise ValueError("rho must be positive")
        return cls.from_function(
            lambda t: alpha * t**rho, info_times, name=f"power({rho:g})"
        )

    @classmethod
    def pocock(
        cls,
        alpha: float,
        info_times: Sequence[float],
        seed: int = 0,
        accuracy: float = DEFAULT_ACCURACY,
        tol: float = DEFAULT_QUANTILE_TOL,
    ) -> "SpendingSchedule":
        """Implied spend of the constant-boundary (Pocock) design.

        A single constant c is solved so that a standard two-sided reference
        process with these information times crosses +-c by the final
        analysis with probability alpha; the cumulative crossing
        probabilities through each analysis are the spends.  With equal
        information increments this reproduces the classic Pocock
        constants exactly (2.178 for two looks at alpha = 0.05).  The
        constant is the equicoordinate quantile of the reference process.
        """
        _check_alpha(alpha)
        times = _check_info_times(info_times)
        q = len(times)
        if q == 1:
            return cls(times, (alpha,), name="pocock")
        corr = _reference_corr(times)
        c_const = equicoord_quantile(
            corr, 1.0 - alpha, seed=seed, tol=tol, accuracy=accuracy
        )
        spends = [_crossing_prob(corr[:s, :s], np.full(s, c_const), True, accuracy, seed)
                  for s in range(1, q)]
        return cls(times, tuple(spends) + (alpha,), name="pocock")


def _crossing_prob(joint, upper, central: bool, accuracy: float, seed: int) -> float:
    """Probability that a null process with correlation ``joint`` crosses
    ``upper`` (in absolute value when ``central``) at some coordinate; an
    infinite entry marks an analysis that cannot stop."""
    rect = _max_rect(upper, len(upper), central)
    return 1.0 - mvn_rect(0.0, joint, rect, accuracy=accuracy, seed=seed).value


def _reference_corr(times: Sequence[float]) -> np.ndarray:
    t = np.asarray(times, dtype=float)
    s = np.sqrt(t)
    return np.minimum.outer(s, s) / np.maximum.outer(s, s)


def joint_covariance(config: TrialConfig, members: Iterable[int] | None = None) -> np.ndarray:
    """Covariance of the cumulative statistics across comparisons and stages.

    Stage-major ordering: entry (q-1)*m + (k-1) is comparison k at analysis
    q.  Equals the single-stage correlation scaled by sqrt(t_min/t_max) in
    the information fractions, which is the independent-increments identity
    for pooled statistics under proportional allocation.
    """
    if members is None:
        members = range(1, config.n_comparisons + 1)
    members = tuple(members)
    base = correlation(config, members).matrix
    t = config.info_fractions()
    return np.kron(_reference_corr(t), base)


@dataclass
class BoundarySchedule(_ClassCache):
    """Stage boundaries for every intersection subset.

    ``value(members)`` returns the Q-vector of critical values for that
    subset, solved lazily and cached per correlation-equivalence class from
    the class's canonical form, so it does not depend on lookup order.  A
    generalised schedule solves only the full-set vector and serves it for
    every subset, which is conservative for proper subsets; that vector
    equals the full set's in a subset-wise schedule with the same inputs.
    Each schedule keeps its own cache, so a copy made with
    ``dataclasses.replace`` starts with an empty one, and class keys need
    not name the spending schedule; the schedule's information times and
    rounded cumulative spends are part of every derived seed instead.

    Stage q's boundary is the root where the crossing probability through q
    reaches alpha_q, the earlier boundaries held fixed; a stage whose
    increment is below ``_SPEND_FLOOR`` gets an infinite boundary and is
    not solved.  A later stage is searched first in the bracket of its own
    spend: from Phi^{-1}(1 - alpha_q / tails), where one coordinate alone
    crosses with alpha_q, to Phi^{-1}(1 - (alpha_q - alpha_p) /
    (tails * width)), where the union bound over the class's comparisons
    carries the increment over alpha_p, the spend of the last stage solved;
    widened by 0.05 on each side, with the whole range as the fallback.
    """

    schedule: SpendingSchedule
    seed: int = 0
    accuracy: float = DEFAULT_ACCURACY
    tol: float = DEFAULT_QUANTILE_TOL
    generalised: bool = False

    def __post_init__(self) -> None:
        if self.schedule.n_stages != self.config.n_stages:
            raise ValueError("schedule and config disagree on the number of analyses")
        times = self.config.info_fractions()
        if np.max(np.abs(times - np.asarray(self.schedule.info_times))) > 1e-6:
            raise ValueError("schedule information times do not match the config")
        _check_tol(self.tol)

    @property
    def alpha(self) -> float:
        return self.schedule.alpha

    @property
    def n_stages(self) -> int:
        return self.config.n_stages

    def _served(self, subset: frozenset) -> frozenset:
        return self.full_set() if self.generalised else subset

    def _solve(self, key) -> tuple[float, ...]:
        base = _key_correlation(key).matrix
        width = base.shape[0]
        joint = np.kron(_reference_corr(self.config.info_fractions()), base)
        spends = tuple(round(a, 12) for a in self.schedule.per_stage)
        seed = _derived_seed(self.seed, (key, self.schedule.info_times, spends))
        central = self.config.central
        tails = _normal_tails(self.config.sided)
        values: list[float] = []
        prev = 0.0
        for q, alpha_q in enumerate(self.schedule.per_stage, start=1):
            if alpha_q - prev < _SPEND_FLOOR:
                values.append(math.inf)
                continue
            # the stages so far: earlier boundaries, then the one solved for
            block = CorrelationModel(joint[: q * width, : q * width])
            # the first stage alone is an equicoordinate quantile, solved in
            # closed form or by Newton when its rank is at most 2; a later
            # one starts in the bracket of its own spend (see the class text)
            if q == 1:
                root, ranges = _equicoord_root(block, 1.0 - alpha_q, central, self.tol,
                                               self.accuracy)
            else:
                root, ranges = None, _padded(
                    float(-ndtri(alpha_q / tails)),
                    float(-ndtri((alpha_q - prev) / (tails * width))), central)
            prev = alpha_q
            if root is not None:
                values.append(root)
                continue
            anchor = _SolveAnchor(block, seed, self.accuracy, mvn_rect)
            upper = np.repeat(values + [math.nan], width)

            def tail(c: float, acc: float) -> float:
                upper[-width:] = c
                return 1.0 - anchor(_max_rect(upper, upper.size, central), acc).value

            values.append(_first_bracket(
                lambda lo, hi: _two_phase_root(tail, alpha_q, lo, hi, self.tol, self.accuracy),
                ranges))
        return tuple(values)


def gs_boundaries(
    config: TrialConfig,
    schedule: SpendingSchedule,
    seed: int = 0,
    accuracy: float = DEFAULT_ACCURACY,
    tol: float = DEFAULT_QUANTILE_TOL,
) -> BoundarySchedule:
    """Per-subset stage boundaries calibrated to the spending schedule."""
    return BoundarySchedule(config, schedule, seed, accuracy, tol)


def generalised_boundaries(
    config: TrialConfig,
    schedule: SpendingSchedule,
    seed: int = 0,
    accuracy: float = DEFAULT_ACCURACY,
    tol: float = DEFAULT_QUANTILE_TOL,
) -> BoundarySchedule:
    """Full-set boundary vector only, applied to every hypothesis."""
    return BoundarySchedule(config, schedule, seed, accuracy, tol, generalised=True)


@dataclass(frozen=True)
class StageData:
    """Observed statistics through the analyses conducted so far.

    ``z_cum[q-1, k-1]`` is the cumulative statistic for comparison k at
    analysis q; ``z_stage`` holds the stage-wise statistics from each
    stage's new observations alone.  The cumulative row q is the
    information-weighted combination of stage rows 1..q.
    """

    config: TrialConfig
    z_cum: np.ndarray
    z_stage: np.ndarray

    def __post_init__(self) -> None:
        z_cum = np.atleast_2d(_reals(self.z_cum, "a statistic"))
        z_stage = np.atleast_2d(_reals(self.z_stage, "a statistic"))
        object.__setattr__(self, "z_cum", z_cum)
        object.__setattr__(self, "z_stage", z_stage)
        m = self.config.n_comparisons
        if z_cum.shape != z_stage.shape or z_cum.ndim != 2 or z_cum.shape[1] != m:
            raise ValueError(f"statistic arrays must have shape (q, {m})")
        if not 1 <= z_cum.shape[0] <= self.config.n_stages:
            raise ValueError("number of analyses exceeds the planned schedule")
        if not (np.all(np.isfinite(z_cum)) and np.all(np.isfinite(z_stage))):
            raise ValueError("statistics must be finite")

    @property
    def n_analyses(self) -> int:
        return self.z_cum.shape[0]

    @classmethod
    def from_cumulative_means(
        cls, config: TrialConfig, cum_means: Sequence[Sequence[float]]
    ) -> "StageData":
        """Build from cumulative per-arm means observed at each analysis."""
        cum = np.atleast_2d(np.asarray(cum_means, dtype=object))
        q_obs = cum.shape[0]
        if cum.shape != (q_obs, config.n_arms) or q_obs > config.n_stages:
            raise ValueError(
                f"cumulative means must have shape (q <= {config.n_stages}, "
                f"{config.n_arms})"
            )
        cum = _reals(cum, "a cumulative mean")
        z_cum = np.array(
            [[s.z for s in z_statistics(config, cum[q], stage=q + 1)]
             for q in range(q_obs)]
        )
        # stage-wise means from the cumulative ones, then standardize by the
        # increment sizes
        inc = config.stage_increments()[:q_obs]
        cum_n = np.asarray(config.stage_n[:q_obs], dtype=float)
        stage_means = cum.copy()
        stage_means[1:] = (cum[1:] * cum_n[1:] - cum[:-1] * cum_n[:-1]) / inc[1:]
        z_stage = _pair_z(stage_means.T, (np.asarray(config.sigma2) / inc).T, config.sided)
        return cls(config, z_cum, z_stage)


def stage_weights(config: TrialConfig, upto: int | None = None) -> np.ndarray:
    """Pooling weights w[q, lam] with Z_cum[q] = sum_lam w[q, lam] Z_stage[lam].

    Rows are analyses, columns stages; w[q, lam] = sqrt(n'(lam) / n(q)) for
    lam <= q and 0 above the diagonal.  Valid under proportional allocation,
    where the weight is the same for every comparison.
    """
    q_max = config.n_stages if upto is None else upto
    inc_tot = config.stage_increments().sum(axis=1)[:q_max]
    cum_tot = np.array([sum(row) for row in config.stage_n[:q_max]], dtype=float)
    w = np.zeros((q_max, q_max))
    for q in range(q_max):
        w[q, : q + 1] = np.sqrt(inc_tot[: q + 1] / cum_tot[q])
    return w


def _first_crossing(top: np.ndarray, bounds) -> np.ndarray:
    """The staged local test: the first analysis (counted from 1) at which
    ``top``, whose last axis runs over analyses, crosses ``bounds``, or 0."""
    bounds = np.asarray(bounds)
    first = np.zeros(top.shape[:-1], dtype=np.int64)
    # from the last analysis back, so that the earliest crossing is kept
    for q in range(top.shape[-1] - 1, -1, -1):
        first = np.where(top[..., q] > bounds[q], q + 1, first)
    return first


def _first_crossings(boundaries: BoundarySchedule, q_obs: int):
    """:func:`_first_crossing` as a per-subset callback for the closure rule,
    against the subset's boundaries at the first ``q_obs`` analyses."""
    return lambda subset, top: _first_crossing(top, boundaries.value(subset)[:q_obs])


def gs_closed_test(data: StageData, boundaries: BoundarySchedule) -> ClosureDecision:
    """Multi-stage closed test of all pairwise hypotheses.

    Each intersection subset is rejected at the first analysis where its
    maximum statistic crosses that analysis's boundary; rejections are
    absorbing.  A hypothesis is globally rejected once every subset
    containing it is rejected, and its ``stopped_stage`` entry records the
    analysis at which that happened.  Runs the kernel of
    :func:`batch_gs_test` on this one row.
    """
    if data.config != boundaries.config:
        raise ValueError("data and boundaries disagree on the trial configuration")
    stat = _max_statistic(data.z_cum, data.config.sided)
    q_obs = data.n_analyses
    crossing = _first_crossings(boundaries, q_obs)
    crossed_at = {s: int(crossing(s, _subset_max(stat, s))) or None
                  for s in _all_subsets(data.config.n_comparisons)}
    rejected, stopped = _closure_rule(stat[None], lambda s, top: crossed_at[s] or 0)
    local = {s: q is not None for s, q in crossed_at.items()}
    name = "dunnett-gs-generalised" if boundaries.generalised else "dunnett-gs"
    return ClosureDecision(
        name,
        boundaries.alpha,
        tuple(rejected[0].tolist()),
        local,
        tuple(q if r else None for r, q in zip(rejected[0], stopped[0].tolist())),
        meta={"analyses": q_obs, "crossed_at": crossed_at},
    )


def batch_gs_test(
    z_cum: np.ndarray, boundaries: BoundarySchedule, *, _stat: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`gs_closed_test` over many replicates.

    ``z_cum`` has shape (replicates, analyses, comparisons) of cumulative
    statistics, which must be finite.  Returns ``(rejected, stopped)``: a
    boolean rejection matrix and an integer matrix of the analyses at which
    each rejection completed (0 where not rejected).  ``_stat``, when given,
    is ``z_cum``'s max-test statistics (|z| for two-sided families) already
    formed by the caller, which the simulator shares between its rules.
    """
    z = np.asarray(z_cum, dtype=float)
    config = boundaries.config
    m = boundaries.n_comparisons
    if z.ndim != 3 or z.shape[2] != m:
        raise ValueError(
            f"need statistics of shape (replicates, analyses, {m})"
        )
    if not 1 <= z.shape[1] <= config.n_stages:
        raise ValueError("number of analyses exceeds the planned schedule")
    stat = _max_statistic(z, config.sided) if _stat is None else _stat
    return _closure_rule(stat, _first_crossings(boundaries, z.shape[1]))


def drop_treatments(decision: ClosureDecision, config: TrialConfig) -> set[int]:
    """Arms whose every pairwise hypothesis has been globally rejected.

    For one-sided families a pair counts as resolved when either direction
    is rejected (both can never be).
    """
    rejected = np.asarray(decision.rejected, dtype=bool)[None, :]
    # each rejection counts as made at the first analysis
    resolved = _resolved_arms(config.n_arms, rejected, rejected)[:, 0]
    return {arm + 1 for arm in np.flatnonzero(resolved).tolist()}
