"""Flexible multi-stage testing through stage-wise p-value combination.

Each analysis stage contributes, for every intersection subset, a p-value
computed from that stage's own observations alone.  Stages recruit disjoint
subjects, so the stage-wise statistics are independent across stages and the
p-values are exactly uniform under the intersection null no matter how the
stage sample sizes were chosen mid-trial.  A pre-specified inverse-normal
combination merges them into one final p-value per subset, and the closed
test rejects a hypothesis when every subset containing it combines below
alpha.  Mid-trial redesign (sample size reestimation in particular) does not
inflate the error rate because the combination weights are fixed before the
first stage.

The subset lattice, the closure rule and the per-class cache come from
``closure``; this module supplies the stage p-values and their combination.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.special import ndtr, ndtri

from .closure import (
    ClosureDecision,
    _all_subsets,
    _check_subset,
    _ClassCache,
    _class_key,
    _closure_rule,
    _derived_seed,
    _key_correlation,
)
from .model import (
    TrialConfig,
    _check_alpha,
    _max_statistic,
    _normal_tails,
    _real,
    correlation,
)
from .mvn import DEFAULT_ACCURACY, _max_range, _max_rect, mvn_rect
from .sequential import StageData

# clamp for degenerate p-values so the normal quantile stays finite
_P_FLOOR = 1e-300
_P_CEIL = 1.0 - 1e-16


@dataclass(frozen=True)
class StagePValue:
    """One stage's evidence against one intersection hypothesis."""

    subset: frozenset
    stage: int
    p: float


@dataclass(frozen=True)
class CombinationWeights:
    """Pre-specified inverse-normal weights, normalized to sum of squares one.

    The weights are part of the registered design and must be fixed before
    the first stage is observed; everything downstream treats them as
    constants.
    """

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        w = tuple(_real(v, "a stage weight") for v in self.weights)
        if not w:
            raise ValueError("need at least one stage weight")
        if any(not math.isfinite(v) or v <= 0.0 for v in w):
            raise ValueError("stage weights must be positive and finite")
        norm = math.sqrt(sum(v * v for v in w))
        object.__setattr__(self, "weights", tuple(v / norm for v in w))

    @property
    def n_stages(self) -> int:
        return len(self.weights)

    @classmethod
    def equal(cls, n_stages: int) -> "CombinationWeights":
        if n_stages < 1:
            raise ValueError("need at least one stage")
        return cls((1.0,) * n_stages)

    @classmethod
    def from_information(cls, config: TrialConfig) -> "CombinationWeights":
        """Weights proportional to the square root of each planned stage's
        information; with no mid-trial changes this recovers the pooled
        cumulative statistic."""
        inc = config.stage_increments().sum(axis=1)
        return cls(tuple(np.sqrt(inc / inc.sum())))


def _observed_max(config: TrialConfig, z_row: Sequence[float], cols: Sequence[int]):
    z = np.asarray(z_row, dtype=float)
    if z.shape != (config.n_comparisons,):
        raise ValueError(
            f"need one stage-wise statistic per comparison "
            f"({config.n_comparisons} values)"
        )
    if not np.all(np.isfinite(z)):
        raise ValueError("statistics must be finite")
    return _max_statistic(z[list(cols)], config.sided).max()


def _singleton_p(z_obs: float, sided: str):
    # exact univariate tails; z_obs is max |Z| (two-sided) or max Z
    return _normal_tails(sided) * ndtr(-z_obs)


def _score(p) -> np.ndarray:
    """The inverse-normal score -Phi^{-1}(p), with p clamped into the open
    interval as :func:`combine` clamps it.  An array ``p`` is overwritten:
    at 200,000 rows a fresh array per step costs as much as the step."""
    p = np.asarray(p)
    np.clip(p, _P_FLOOR, _P_CEIL, out=p)
    ndtri(p, out=p)
    return np.negative(p, out=p)


def stage_pvalue(
    config: TrialConfig,
    members: Iterable[int],
    z_row: Sequence[float],
    stage: int = 1,
    seed: int = 0,
    accuracy: float = DEFAULT_ACCURACY,
) -> StagePValue:
    """P-value of one intersection hypothesis from one stage's statistics.

    ``z_row`` holds the stage-wise statistics of all comparisons at this
    stage (from the stage's own observations, not the cumulative pool).  The
    subset's statistic is the largest |z| over its members, and the p-value
    is one minus the probability that a null vector with the same
    correlation stays inside the corresponding rectangle.  Uniform under the
    intersection null whatever sample size this stage used.
    """
    stage = config._check_stage(stage)
    subset = tuple(sorted(_check_subset(config.n_comparisons, members)))
    cols = [k - 1 for k in subset]
    z_obs = float(_observed_max(config, z_row, cols))
    if len(subset) == 1:
        p = _singleton_p(z_obs, config.sided)
    else:
        corr = correlation(config, subset)
        rect = _max_rect(z_obs, len(subset), config.central)
        run_seed = _derived_seed(seed, ("stage-p", _class_key(config, subset)))
        p = 1.0 - mvn_rect(0.0, corr, rect, accuracy=accuracy, seed=run_seed).value
    return StagePValue(frozenset(subset), stage, float(p))


def _coerce_weights(weights, n_stages: int) -> CombinationWeights:
    if weights is None:
        return CombinationWeights.equal(n_stages)
    if not isinstance(weights, CombinationWeights):
        weights = CombinationWeights(tuple(weights))
    if weights.n_stages != n_stages:
        raise ValueError(
            f"got {n_stages} stage p-values but {weights.n_stages} weights"
        )
    return weights


def combine(pvalues: Sequence, weights=None):
    """Weighted inverse-normal combination of independent stage p-values.

    ``pvalues`` holds one entry per stage: a :class:`StagePValue`, a real
    number, or an array of floats (arrays combine elementwise); a string or
    a boolean entry raises ``ValueError``.  Values at or outside (0, 1) are
    clamped to the open interval, with a warning for those outside [0, 1].
    Returns 1 - Phi(sum_q w_q Phi^{-1}(1 - p_q)), which is again uniform
    under the null and decreasing in every input.
    """
    if not len(pvalues):
        raise ValueError("need at least one stage p-value")
    raw = [p.p if isinstance(p, StagePValue) else p for p in pvalues]
    weights = _coerce_weights(weights, len(raw))
    # only scalars are checked, so an array entry costs no per-element work
    arrays = [np.asarray(_real(p, "a stage p-value") if np.ndim(p) == 0 else p,
                         dtype=float) for p in raw]
    if any(np.any(~np.isfinite(a)) for a in arrays):
        raise ValueError("stage p-values must be finite")
    if any(np.any((a <= 0.0) | (a >= 1.0)) for a in arrays):
        # 0 and 1 are valid p-values (a maximum of exactly zero has p = 1);
        # only values outside [0, 1] point at an error upstream
        if any(np.any((a < 0.0) | (a > 1.0)) for a in arrays):
            warnings.warn("stage p-values outside [0, 1] were clamped",
                          RuntimeWarning)
        arrays = [np.clip(a, _P_FLOOR, _P_CEIL) for a in arrays]
    score = sum(w * -ndtri(a) for w, a in zip(weights.weights, arrays))
    combined = ndtr(-score)
    return float(combined) if np.ndim(combined) == 0 else combined


def flexible_closed_test(
    data: StageData,
    weights=None,
    alpha: float = 0.05,
    seed: int = 0,
    accuracy: float = DEFAULT_ACCURACY,
) -> ClosureDecision:
    """Closed test on combined stage p-values for all pairwise hypotheses.

    Decisions are made once, after the last executed analysis: every
    intersection subset combines its stage p-values with the pre-specified
    weights and is rejected when the combined value falls below alpha; a
    hypothesis is rejected when all subsets containing it are.  The executed
    number of analyses must match the number of weights.  Stage sizes are
    free to deviate from the original plan between stages; only the weights
    are fixed.
    """
    _check_alpha(alpha)
    config = data.config
    weights = _coerce_weights(weights, data.n_analyses)
    combined = {
        s: combine([stage_pvalue(config, s, data.z_stage[q], stage=q + 1,
                                 seed=seed, accuracy=accuracy)
                    for q in range(data.n_analyses)], weights)
        for s in _all_subsets(config.n_comparisons)
    }
    rejected, _ = _closure_rule(data.z_stage[None], lambda s, top: combined[s] < alpha)
    local = {s: p < alpha for s, p in combined.items()}
    return ClosureDecision(
        "dunnett-combination",
        alpha,
        tuple(rejected[0].tolist()),
        local,
        None,
        meta={"combined_p": combined, "analyses": data.n_analyses},
    )


# elements of a monotone cubic evaluated at once: their six gathered rows,
# 1.5 MB, stay in cache, and a call's temporaries stay this small
_CUBIC_BLOCK = 1 << 15


class _MonotoneCubic:
    """Fritsch-Carlson monotone cubic (PCHIP) on a uniform grid.

    Node derivatives are weighted harmonic means of the adjacent slopes,
    zero where the slopes change sign or one of them is flat, with Moler's
    three-point rule at both ends and the linear rule on a two-node grid.
    Every formula and its order of operations follow scipy's
    ``PchipInterpolator``, and so does the evaluation, so for node values in
    [0, 1] the two agree to the last bit.  The grid being uniform, an
    element's interval is found by one division and a one-step correction
    instead of a binary search.  Inputs outside the grid, and NaN, give NaN.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray) -> None:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        h = np.diff(x)
        m = np.diff(y) / h
        d = np.empty_like(y)
        if len(x) == 2:
            d[:] = m[0]
        else:
            # slopes of opposite signs, or a flat one, give a flat node
            sign = np.sign(m)
            flat = sign[1:] * sign[:-1] <= 0
            w1 = 2 * h[1:] + h[:-1]
            w2 = h[1:] + 2 * h[:-1]
            # a flat or tiny slope divides by zero or overflows here; such
            # nodes are flat or get 1 / inf = 0 anyway
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
                d[1:-1] = np.where(flat, 0.0, 1.0 / whmean)
            d[0] = self._end_slope(h[0], h[1], m[0], m[1])
            d[-1] = self._end_slope(h[-1], h[-2], m[-1], m[-2])
        t = (d[:-1] + d[1:] - 2 * m) / h
        self.x = x
        self._step = (x[-1] - x[0]) / (len(x) - 1)
        # one column per interval: its ends, the right one open on the last
        # interval so that x[-1] stays in it, then the Hermite form's power
        # coefficients in the order the evaluation reads them (s, 1, s^2, s^3)
        self._table = np.stack((x[:-1], np.append(x[1:-1], np.inf), d[:-1], y[:-1],
                                (m - d[:-1]) / h - t, t / h))

    @staticmethod
    def _end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
        """Moler's one-sided three-point derivative, kept shape-preserving."""
        d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        if np.sign(d) != np.sign(m0):
            return 0.0
        if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
            return 3.0 * m0
        return d

    def __call__(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        shape = z.shape
        z = z.reshape(-1)
        x = self.x
        inside = None
        # min and max allocate nothing; NaN fails both comparisons
        if z.size and not (z.min() >= x[0] and z.max() <= x[-1]):
            inside = (z >= x[0]) & (z <= x[-1])
            z = np.where(inside, z, x[0])
        i = np.subtract(z, x[0])
        i /= self._step
        i = i.astype(np.intp)
        np.minimum(i, len(x) - 2, out=i)
        out = np.empty_like(z)
        for lo in range(0, z.size, _CUBIC_BLOCK):
            self._evaluate(z[lo:lo + _CUBIC_BLOCK], i[lo:lo + _CUBIC_BLOCK],
                           out[lo:lo + _CUBIC_BLOCK])
        if inside is not None:
            out[~inside] = np.nan
        return out.reshape(shape)

    def _evaluate(self, z: np.ndarray, i: np.ndarray, out: np.ndarray) -> None:
        """The cubic at ``z``, inside the grid, into ``out``, from the first
        guess ``i`` of each element's interval.

        One gather of each element's interval and coefficients, whose rows
        then serve as the buffers of every step.  Rounding can put an
        element one interval off, and only one: it is stepped so that
        x[i] <= z < x[i + 1], with x[-1] in the last interval, and gathered
        again.
        """
        left, right, c2, c3, c1, c0 = self._table.take(i, axis=1)
        down, up = z < left, z >= right
        if down.any() or up.any():
            left, right, c2, c3, c1, c0 = self._table.take(i + up - down, axis=1)
        # scipy's summation order: ((c3 + c2 s) + c1 s^2) + c0 s^3
        s = np.subtract(z, left, out=left)
        np.multiply(c2, s, out=out)
        out += c3
        power = np.multiply(s, s, out=c3)
        c1 *= power
        out += c1
        power *= s
        c0 *= power
        out += c0


class _ScoreCubic(_MonotoneCubic):
    """The monotone cubic of a tail score h = -Phi^{-1}(1 - G) over a grid,
    built from G at its nodes, with the stretch where G rises from zero
    read from a power law instead.

    Where the rectangle has probability zero (c = 0 for a max |Z|, c <= 0
    for a class that holds both directions of a pair) h is -inf, and such
    nodes hold the clamped floor.  Past the last of them, x[k], h climbs
    like -Phi^{-1}(1 - A t^r), which no cubic follows: on K=3 classes a
    cubic through the nodes missed h by several units on the first
    interval and by 0.03 on the second, and it got 8 of 200,000 one-sided
    closed-test decisions wrong under strong effects.  So below x[k + 2],
    G is G(x[k + 1]) t^r with t = (z - x[k]) / step and r = log2(G(x[k + 2])
    / G(x[k + 1])), the power law through both nodes; r is near 1 for the
    two directions of a pair and near 2 where two |Z| must both be small.
    """

    def __init__(self, x: np.ndarray, g: np.ndarray) -> None:
        super().__init__(x, _score(1.0 - g))
        # x[k] is the last of the leading nodes whose tail clamps to the floor
        k = int(np.argmin(1.0 - g >= _P_CEIL)) - 1
        self._rise = None
        if k >= 0 and k + 2 < len(x):
            self._rise = (x[k], x[k + 2], g[k + 1], math.log2(g[k + 2] / g[k + 1]))

    def __call__(self, z) -> np.ndarray:
        h = super().__call__(z)
        if self._rise is None:
            return h
        start, end, g1, r = self._rise
        flat_z, flat_h = np.reshape(z, -1), h.reshape(-1)
        low = np.flatnonzero(flat_z < end)
        # below the grid, and NaN, stay NaN
        low = low[flat_z[low] >= self.x[0]]
        if low.size:
            t = np.maximum(flat_z[low] - start, 0.0) / self._step
            flat_h[low] = _score(1.0 - g1 * t**r)
        return h


@dataclass
class TailProbabilityTable(_ClassCache):
    """Interpolated stage p-values and their scores for bulk simulation.

    For each correlation-equivalence class of subsets the rectangle
    probability G(c) = P(max statistic <= c) is evaluated on a fixed grid,
    from the class's canonical form so it does not depend on lookup order,
    and made nondecreasing.  What the table keeps is the inverse-normal
    score of the tail, h(c) = -Phi^{-1}(1 - G(c)) with 1 - G clamped into
    [1e-300, 1 - 1e-16] so that h stays finite, bridged by a monotone cubic
    (:class:`_ScoreCubic`, which reads the two intervals where G rises from
    zero from a power law).  ``score`` maps observed maxima to h in
    vectorized form, which is what the combination rule sums; ``pvalue``
    maps them to Phi(-h).  Singletons are exact univariate tails.

    Grid nodes are solved to ``accuracy``.  At K=3 every class has rank 2
    and its nodes are exact to about 1e-15, so interpolation error
    dominates.  Against :func:`stage_pvalue` on every class of the
    two-look K=3 designs, two- and one-sided, p-values are within 3e-10 up
    to 1e-3, 2e-6 up to 0.5 and 3e-4 above (a cubic of G gave 6e-8, 4e-6
    and 6e-3).  On the first interval of a two-sided grid, z in (0, 0.05),
    they are within 2e-6; a cubic through the nodes of h was off by 9e-4
    there, since G(0) = 0 clamps h.  Use the exact :func:`stage_pvalue`
    when single evaluations matter more than throughput.
    """

    seed: int = 0
    accuracy: float = 1e-4
    grid_step: float = 0.05

    def __post_init__(self) -> None:
        lo, hi = _max_range(self.config.central)
        # below twice the span, the grid on [lo, hi] has at least two nodes
        if not 0.0 < self.grid_step < 2.0 * (hi - lo):
            raise ValueError(f"grid_step must be positive and below "
                             f"{2.0 * (hi - lo):g}, got {self.grid_step!r}")

    def _grid(self) -> np.ndarray:
        lo, hi = _max_range(self.config.central)
        return np.linspace(lo, hi, int(round((hi - lo) / self.grid_step)) + 1)

    def _probabilities(self, key) -> np.ndarray:
        """G(c) at every grid node for one class, made nondecreasing."""
        corr = _key_correlation(key)
        run_seed = _derived_seed(self.seed, ("grid", key))
        grid = self._grid()
        vals = np.empty_like(grid)
        for idx, c in enumerate(grid):
            rect = _max_rect(c, corr.dim, self.config.central)
            vals[idx] = mvn_rect(
                0.0, corr, rect, accuracy=self.accuracy, seed=run_seed
            ).value
        return np.maximum.accumulate(vals)

    def _solve(self, key) -> _ScoreCubic:
        """Interpolant of the score h(c) over the grid for one class."""
        return _ScoreCubic(self._grid(), self._probabilities(key))

    def score(self, members: Iterable[int], z_obs):
        """Scores -Phi^{-1}(p) of the stage p-values of observed subset
        maxima, with p clamped as :func:`combine` clamps it; ``z_obs`` may
        be an array.  Maxima beyond the grid read its end nodes."""
        subset = _check_subset(self.n_comparisons, members)
        z = np.asarray(z_obs, dtype=float)
        if len(subset) == 1:
            h = _score(_singleton_p(z, self.config.sided))
        else:
            cubic = self.value(subset)
            h = cubic(np.clip(z, cubic.x[0], cubic.x[-1]))
        return float(h) if np.ndim(z_obs) == 0 else h

    def pvalue(self, members: Iterable[int], z_obs):
        """p-values for observed subset maxima; ``z_obs`` may be an array."""
        subset = _check_subset(self.n_comparisons, members)
        z = np.asarray(z_obs, dtype=float)
        if len(subset) == 1:
            p = _singleton_p(z, self.config.sided)
        else:
            p = ndtr(-self.score(subset, z))
        return float(p) if np.ndim(z_obs) == 0 else p


def batch_flexible_test(
    z_stage: np.ndarray,
    config: TrialConfig,
    weights=None,
    alpha: float = 0.05,
    table: TailProbabilityTable | None = None,
) -> np.ndarray:
    """Vectorized :func:`flexible_closed_test` over many replicates.

    ``z_stage`` has shape (replicates, stages, comparisons) of stage-wise
    statistics, which must be finite.  Returns the (replicates, comparisons)
    boolean rejection matrix.  Stage p-values come from ``table`` (built on
    demand).  A subset is rejected when the inverse-normal combination of
    its stage scores, sum_q w_q h(top_q), exceeds Phi^{-1}(1 - alpha): the
    rule of :func:`combine` read on the score scale, where the table's
    interpolated h of a subset of two or more comparisons needs no normal
    quantile per row, save for the few rows where the subset's G rises
    from zero.  Singletons are scored from their exact tails.
    Decisions differ from the exact rule only where the combined score lies
    within the table's interpolation error of the cut.
    """
    _check_alpha(alpha)
    z = np.asarray(z_stage, dtype=float)
    if z.ndim != 3 or z.shape[2] != config.n_comparisons:
        raise ValueError(
            f"need statistics of shape (replicates, stages, "
            f"{config.n_comparisons})"
        )
    n_stages = z.shape[1]
    weights = _coerce_weights(weights, n_stages).weights
    table = TailProbabilityTable(config) if table is None else table._serving(config)
    stat = _max_statistic(z, config.sided)
    cut = -ndtri(alpha)

    def crossing(subset: frozenset, top: np.ndarray) -> np.ndarray:
        total = table.score(subset, top[:, 0])
        total *= weights[0]
        for q in range(1, n_stages):
            stage = table.score(subset, top[:, q])
            stage *= weights[q]
            total += stage
        return total > cut

    return _closure_rule(stat, crossing)[0]
