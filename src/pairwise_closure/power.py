"""Disjunctive power, least favourable configurations, and sample sizing.

The probability of rejecting at least one pairwise null hypothesis equals
the probability that the maximum absolute statistic crosses the full-family
critical value, because the closed procedure rejects something exactly when
it rejects the overall intersection.  That makes disjunctive power a single
rectangle probability under a shifted mean, which is what the quadrature
path computes; the simulation path additionally reports the distribution of
the number of rejections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .closure import CriticalValueTable, batch_closed_test, critical_values
from .model import (
    MeanConfig,
    TrialConfig,
    _arm_means,
    _check_alpha,
    _max_statistic,
    _real,
    _whole,
    correlation,
    standardized_means,
)
from .mvn import (
    DEFAULT_ACCURACY,
    DEFAULT_QUANTILE_TOL,
    SolverError,
    _max_rect,
    _quantile_tail,
    equicoord_quantile,
    mvn_rect,
)
from .simulate import _blocks, _replicate_count


@dataclass(frozen=True)
class PowerResult:
    """Disjunctive power, plus the rejection-count distribution when simulated.

    ``per_count[r]`` is the probability of exactly r global rejections; it is
    only available from the simulation path.  ``se`` is the Monte Carlo
    standard error of ``disjunctive`` (None for quadrature).
    """

    disjunctive: float
    per_count: tuple[float, ...] | None = None
    se: float | None = None
    n_reps: int | None = None
    method: str = "quadrature"


def lfc(n_arms: int, delta: float) -> MeanConfig:
    """Least favourable configuration for detecting a difference of delta.

    Arm 1 sits at delta, arm 2 at zero, and every remaining arm at the
    midpoint delta/2.  Among all mean vectors with two arms separated by
    delta (and equal variance per arm), this one minimizes the probability
    of rejecting anything.
    """
    n_arms = _whole(n_arms, "n_arms")
    if n_arms < 2:
        raise ValueError("need at least two arms")
    delta = _real(delta, "delta")
    if delta == 0 or not math.isfinite(delta):
        raise ValueError("delta must be nonzero and finite")
    return MeanConfig((delta, 0.0) + (delta / 2.0,) * (n_arms - 2), delta=delta)


def _quadrature_power(config, mu, corr, c_full, accuracy, seed) -> float:
    """Disjunctive power by quadrature: the chance that the maximum of the
    statistics, with correlation ``corr`` over the full family and means
    from ``mu``, crosses the full-family critical value ``c_full``."""
    zeta = standardized_means(config, mu, stage=1)
    rect = _max_rect(c_full, corr.dim, config.central)
    return 1.0 - mvn_rect(zeta, corr, rect, accuracy=accuracy, seed=seed).value


def disjunctive_power(
    config: TrialConfig,
    means,
    alpha: float = 0.05,
    method: str = "quadrature",
    seed: int = 0,
    accuracy: float = DEFAULT_ACCURACY,
    n_reps: int = 10_000,
    table: CriticalValueTable | None = None,
) -> PowerResult:
    """Probability of rejecting at least one pairwise hypothesis.

    Parameters
    ----------
    config : TrialConfig
        Single-stage design; sample sizes are taken from it.
    means : MeanConfig or sequence of float
        True per-arm means.
    alpha : float
    method : str
        ``"quadrature"`` evaluates one shifted rectangle probability;
        ``"simulation"`` draws replicated trials, the statistics of
        :func:`~pairwise_closure.simulate.simulate_statistics`, and also
        returns the distribution of the number of rejections; they are
        drawn and decided block by block, as in
        :func:`~pairwise_closure.simulate.run_scenario`, so memory does not
        grow with ``n_reps``.
    seed : int
    accuracy : float
        Accuracy of the quadrature path.
    n_reps : int
        Replicates for the simulation path.
    table : CriticalValueTable, optional
        Reuse an existing table for this config and alpha.

    Returns
    -------
    PowerResult
    """
    mu = _arm_means(means, config.n_arms)
    table = (critical_values(config, alpha, seed=seed, accuracy=accuracy) if table is None
             else table._serving(config, alpha=alpha))
    m = config.n_comparisons
    c_full = table.value(table.full_set())
    if method == "quadrature":
        corr = correlation(config, range(1, m + 1))
        return PowerResult(_quadrature_power(config, mu, corr, c_full, accuracy, seed))
    if method != "simulation":
        raise ValueError(f"unknown method {method!r}")
    n_reps = _replicate_count(n_reps)
    hist = np.zeros(m + 1, dtype=np.int64)
    for _, z_cum, _ in _blocks(config, mu, n_reps, seed):
        rejected = batch_closed_test(_max_statistic(z_cum[:, 0, :], config.sided), table)
        hist += np.bincount(rejected.sum(axis=1), minlength=m + 1)
    per_count = tuple(float(h / n_reps) for h in hist)
    disjunctive = 1.0 - per_count[0]
    se = math.sqrt(max(disjunctive * (1.0 - disjunctive), 1e-12) / n_reps)
    return PowerResult(disjunctive, per_count, se, n_reps, "simulation")


@dataclass(frozen=True)
class SampleSizeResult:
    """Outcome of the sample-size search."""

    n_total: int
    n_per_arm: tuple[int, ...]
    power: float
    alpha: float
    method: str = "quadrature"


def _arm_sizes(alloc: tuple[float, ...], n_nominal: int) -> tuple[int, ...]:
    return tuple(max(1, math.ceil(r * n_nominal)) for r in alloc)


def sample_size(
    config: TrialConfig,
    means,
    alpha: float = 0.05,
    power_target: float = 0.9,
    seed: int = 0,
    accuracy: float = DEFAULT_ACCURACY,
    n_max: int = 1 << 22,
) -> SampleSizeResult:
    """Smallest sample size whose disjunctive power reaches the target.

    The search bisects on a nominal total n; per-arm sizes are the ceilings
    of the allocation fractions times n, and the reported total is their
    sum.  Power is evaluated by quadrature at each candidate, so the search
    is deterministic.  The variances come from ``config``, and the
    allocation ratios are those of its first analysis, ``config.alloc``; its
    sample sizes are otherwise ignored.

    Raises
    ------
    SolverError
        If the target is unreachable, in particular when all means are
        equal so power cannot exceed alpha.
    """
    _check_alpha(alpha)
    power_target = _real(power_target, "power_target")
    if not 0.0 < power_target < 1.0:
        raise ValueError("power_target must lie strictly between 0 and 1")
    mu = _arm_means(means, config.n_arms)
    if np.ptp(mu) == 0.0:
        raise SolverError(
            "all arm means are equal; disjunctive power cannot exceed alpha"
        )

    crit_cache: dict[bytes, float] = {}

    def power_at(n_nominal: int) -> float:
        arms = _arm_sizes(config.alloc, n_nominal)
        cfg = config.with_stage_n((arms,))
        corr = correlation(cfg, range(1, cfg.n_comparisons + 1))
        key = np.round(corr.matrix, 12).tobytes()
        c_full = crit_cache.get(key)
        if c_full is None:
            c_full = equicoord_quantile(
                corr,
                1.0 - alpha,
                seed=seed,
                tol=DEFAULT_QUANTILE_TOL,
                accuracy=accuracy,
                tail=_quantile_tail(cfg.central),
            )
            crit_cache[key] = c_full
        return _quadrature_power(cfg, mu, corr, c_full, accuracy, seed)

    lo = hi = config.n_arms
    while power_at(hi) < power_target:
        lo, hi = hi, hi * 2
        if hi > n_max:
            raise SolverError(
                f"power {power_target} not reachable below n_total = {n_max}"
            )
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if power_at(mid) >= power_target:
            hi = mid
        else:
            lo = mid
    # integer rounding can flatten power locally; confirm minimality
    while hi > config.n_arms and power_at(hi - 1) >= power_target:
        hi -= 1
    arms = _arm_sizes(config.alloc, hi)
    return SampleSizeResult(sum(arms), arms, power_at(hi), alpha)


def lfc_check(
    config: TrialConfig,
    delta: float,
    alpha: float = 0.05,
    grid: Sequence[float] | None = None,
    seed: int = 0,
    accuracy: float = DEFAULT_ACCURACY,
    mode: str = "theorem",
) -> dict:
    """Check that the least favourable configuration minimizes power.

    In ``"theorem"`` mode (which requires equal variance-per-arm), arm 3 is
    perturbed away from the midpoint by each epsilon in ``grid`` and the
    disjunctive power must not fall below the value at the midpoint.  In
    ``"search"`` mode the midpoint arms are optimized freely, with arms 1
    and 2 pinned at delta and zero, and the minimizing per-arm scaling is
    reported; this covers unequal variance-per-arm designs.

    Returns a report dict with the power at the configuration, the
    alternatives examined, and whether the configuration attained the
    minimum.
    """
    k = config.n_arms
    base_means = lfc(k, delta)
    table = critical_values(config, alpha, seed=seed, accuracy=accuracy)

    def power(mu) -> float:
        return disjunctive_power(
            config, mu, alpha, seed=seed, accuracy=accuracy, table=table
        ).disjunctive

    base = power(base_means)
    report = {"mode": mode, "lfc_power": base, "alternatives": [],
              "is_minimum": True, "trivial": k == 2}
    if k == 2:
        # with two arms the configuration is unique up to translation
        return report
    slack = 5.0 * accuracy

    if mode == "theorem":
        ratio = config.arm_variances(1)
        if np.ptp(ratio) > 1e-9 * ratio.max():
            raise ValueError(
                "theorem mode requires equal variance per arm; use search mode"
            )
        if grid is None:
            grid = (-delta / 2, -delta / 4, delta / 4, delta / 2)
        grid = [float(e) for e in grid]
        if not grid:
            raise ValueError("perturbation grid is empty")
        for eps in grid:
            mu = list(base_means.mu)
            mu[2] = delta / 2.0 + eps
            alt = power(mu)
            report["alternatives"].append(
                {"epsilon": eps, "power": alt, "ge_lfc": alt >= base - slack}
            )
        report["is_minimum"] = all(a["ge_lfc"] for a in report["alternatives"])
        return report

    if mode != "search":
        raise ValueError(f"unknown mode {mode!r}")
    # imported here so that importing the package does not load scipy.optimize
    from scipy.optimize import minimize

    res = minimize(
        lambda mid: power(np.concatenate([[delta, 0.0], mid])),
        np.full(k - 2, delta / 2.0),
        method="Nelder-Mead",
        options={"xatol": 1e-3 * abs(delta), "fatol": 1e-6, "maxiter": 400},
    )
    report.update(
        min_power=float(res.fun),
        minimizing_means=tuple(float(x) for x in np.concatenate([[delta, 0.0], res.x])),
        scaling=tuple([1.0, 1.0] + [float(x / (delta / 2.0)) for x in res.x]),
        is_minimum=base <= res.fun + slack,
    )
    return report
