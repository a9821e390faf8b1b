"""Trial configuration, comparison indexing, and the joint correlation model.

A trial compares K >= 2 treatment arms with no designated control.  Every
ordered or unordered pair of arms contributes one comparison, and the vector
of standardized pairwise test statistics is multivariate normal with a
correlation structure induced purely by shared arms.  This module owns that
bookkeeping: the bijection between pair labels and flat comparison indices,
the standardized statistics themselves, and the correlation matrix for any
subset of comparisons.

Every pair-indexed quantity derives from one arm-index table,
:func:`_pair_arms`: comparison k contrasts arm ``ii[k-1]`` with arm
``jj[k-1]``.  In matrix form that is the signed comparison-arm incidence
matrix B, and the covariance of the statistics is B diag(sigma^2/n) B^T.

The statistic every max test reads, |z| or z by sidedness, is
:func:`_max_statistic`.  The one check of a significance level is
:func:`_check_alpha`, of a whole count :func:`_whole`, of a real number
:func:`_real`, and of a vector of arm means :func:`_arm_means`.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

TWO_SIDED = "two-sided"
ONE_SIDED = "one-sided"


def n_comparisons(n_arms: int, sided: str = TWO_SIDED) -> int:
    """Number of pairwise comparisons: K(K-1)/2 unordered, K(K-1) ordered."""
    _check_sided(sided)
    if n_arms < 2:
        raise ValueError("need at least two arms")
    m = n_arms * (n_arms - 1) // 2
    return m if sided == TWO_SIDED else 2 * m


def _check_sided(sided: str) -> None:
    if sided not in (TWO_SIDED, ONE_SIDED):
        raise ValueError(f"sided must be {TWO_SIDED!r} or {ONE_SIDED!r}, got {sided!r}")


def _check_alpha(alpha: float) -> None:
    """The one check of a significance level; NaN and a non-number, such as
    the string "0.05", fail it too."""
    if not (isinstance(alpha, (int, float, np.integer, np.floating)) and 0.0 < alpha < 1.0):
        raise ValueError("alpha must lie strictly between 0 and 1")


def _max_statistic(z, sided: str):
    """The statistics a max test reads: |z| for two-sided families, z itself
    for one-sided ones, whose reversed directions are separate comparisons."""
    return np.abs(z) if sided == TWO_SIDED else z


def _normal_tails(sided: str) -> float:
    """How many normal tails one comparison's level is spread over: two for
    |z|, one for z."""
    return 2.0 if sided == TWO_SIDED else 1.0


# Values that float() or int() would read as numbers but that are not numbers.
_NOT_NUMBERS = (str, bytes, bool, np.bool_)


def _whole(value, what: str) -> int:
    """``value`` as an int; whole floats and numpy integers pass, while a
    fractional or non-finite number, a string, a boolean, anything else
    ``float()`` refuses and an int too large for a float raise
    ``ValueError``."""
    try:
        whole = not isinstance(value, _NOT_NUMBERS) and float(value).is_integer()
    except (TypeError, OverflowError):
        whole = False
    if not whole:
        raise ValueError(f"{what} must be a whole number, got {value!r}")
    return int(value)


def _real(value, what: str) -> float:
    """``value`` as a float; a string, a boolean, anything else ``float()``
    refuses and an int too large for a float raise ``ValueError``."""
    if not isinstance(value, _NOT_NUMBERS):
        try:
            return float(value)
        except (TypeError, OverflowError):
            pass
    raise ValueError(f"{what} must be a real number, got {value!r}")


def _per_arm(value, n_arms: int) -> tuple:
    """``value`` as one entry per arm: an iterable gives its entries, and
    anything else, such as a number, ``None`` or a string, is repeated.  The
    entries are checked where they are used."""
    if not isinstance(value, (str, bytes)):
        try:
            return tuple(value)
        except TypeError:
            pass
    return (value,) * n_arms


def _reals(values, what: str) -> np.ndarray:
    """``values`` as a float array of the same shape; any string or boolean
    entry raises ``ValueError`` (``np.asarray`` would read them as numbers)."""
    raw = np.asarray(values, dtype=object)
    return np.array([_real(x, what) for x in raw.flat], dtype=float).reshape(raw.shape)


@dataclass(frozen=True)
class PairIndex:
    """One comparison: flat index ``k`` (1-based) and its arm pair ``(i, j)``.

    For two-sided comparisons ``i < j`` and the tested difference is
    mu_i - mu_j.  For one-sided comparisons the pair is ordered and the
    alternative is mu_i > mu_j; the reverse direction is a separate index.
    """

    k: int
    i: int
    j: int


def pair_to_index(i: int, j: int, n_arms: int, sided: str = TWO_SIDED) -> PairIndex:
    """Map an arm pair to its flat comparison index.

    Two-sided indices enumerate pairs (i, j) with i < j in lexicographic
    order, k = (i-1)*K - i*(i-1)/2 + (j-i), giving a contiguous range
    1..K(K-1)/2.  One-sided indices reuse the same value for i < j and place
    the reversed pair at k + K(K-1)/2.

    Parameters
    ----------
    i, j : int
        Arm labels in 1..K.  Two-sided requires i < j; one-sided requires
        i != j.
    n_arms : int
        Number of arms K.
    sided : str
        ``"two-sided"`` or ``"one-sided"``.

    Returns
    -------
    PairIndex
    """
    n_comparisons(n_arms, sided)
    if not (1 <= i <= n_arms and 1 <= j <= n_arms):
        raise ValueError(f"arm labels must lie in 1..{n_arms}, got ({i}, {j})")
    if i == j:
        raise ValueError("a comparison needs two distinct arms")
    if sided == TWO_SIDED and i > j:
        raise ValueError("two-sided comparisons are labelled with i < j")
    lo, hi = min(i, j), max(i, j)
    k = (lo - 1) * n_arms - lo * (lo - 1) // 2 + (hi - lo)
    return PairIndex(k + n_arms * (n_arms - 1) // 2 if i > j else k, i, j)


def index_to_pair(k: int, n_arms: int, sided: str = TWO_SIDED) -> PairIndex:
    """Inverse of :func:`pair_to_index`."""
    m = n_comparisons(n_arms, sided)
    if not (1 <= k <= m):
        raise ValueError(f"index must lie in 1..{m}, got {k}")
    ii, jj = _pair_arms(n_arms, sided)
    return PairIndex(k, int(ii[k - 1]) + 1, int(jj[k - 1]) + 1)


def all_pairs(n_arms: int, sided: str = TWO_SIDED) -> list[PairIndex]:
    """All comparisons in index order."""
    m = n_comparisons(n_arms, sided)
    return [index_to_pair(k, n_arms, sided) for k in range(1, m + 1)]


@functools.lru_cache(maxsize=None)
def _pair_arms(n_arms: int, sided: str) -> tuple[np.ndarray, np.ndarray]:
    """The arm-index table: 0-based arms ``(ii, jj)`` of every comparison.

    Entry k-1 belongs to comparison k, which tests mu_ii - mu_jj: the pairs
    i < j in lexicographic order, followed for one-sided families by the
    same pairs reversed.  The arrays are cached and read-only.
    """
    n_comparisons(n_arms, sided)
    ii, jj = np.triu_indices(n_arms, 1)
    if sided == ONE_SIDED:
        ii, jj = np.concatenate([ii, jj]), np.concatenate([jj, ii])
    ii.flags.writeable = jj.flags.writeable = False
    return ii, jj


def _pair_correlation(v: np.ndarray, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
    """Correlation of the differences mu_ii - mu_jj for arm variances ``v``.

    With B the signed incidence matrix (row r has +1 at arm ii[r] and -1 at
    arm jj[r]), the covariance is B diag(v) B^T, normalized here by the outer
    product of its root diagonal; the diagonal is exactly one.
    """
    rows = np.arange(len(ii))
    b = np.zeros((len(ii), len(v)))
    b[rows, ii] = 1.0
    b[rows, jj] = -1.0
    cov = (b * v) @ b.T
    sd = np.sqrt(np.diag(cov))
    mat = cov / np.outer(sd, sd)
    np.fill_diagonal(mat, 1.0)
    return mat


def _pair_z(means: np.ndarray, v: np.ndarray, sided: str) -> np.ndarray:
    """Standardized pairwise differences (mean_i - mean_j) / sqrt(v_i + v_j)
    of arm means whose variances are ``v``.

    The first axis of ``means`` and ``v`` runs over arms, and ``v`` must
    broadcast against ``means``.  Each comparison is formed from whole
    per-arm rows into its own contiguous row, so the result is the
    axis-reversed view of storage ordered (comparisons, ...): arrays ordered
    (arms, stages, replicates) give a (replicates, stages, comparisons)
    view, and (arms, stages) gives (stages, comparisons).  Comparisons come
    in the order of :func:`_pair_arms`.
    """
    ii, jj = _pair_arms(len(means), sided)
    out = np.empty((len(ii),) + means.shape[1:])
    for row, i, j in zip(out, ii.tolist(), jj.tolist()):
        np.subtract(means[i], means[j], out=row)
        row /= np.sqrt(v[i] + v[j])
    return out.T


def _resolved_arms(n_arms: int, rejected: np.ndarray, stopped: np.ndarray) -> np.ndarray:
    """The analysis at which each arm has a rejected direction in every pair
    that touches it.

    ``rejected`` and ``stopped`` have shape (rows, m) for a two- or
    one-sided family, ``stopped`` holding the analysis (1 to 65,535) of each
    rejection.  A pair resolves at its earliest rejecting direction, and an
    arm at the latest of its pairs.  Returns uint16 of shape (K, rows), each
    arm's row contiguous: the analysis at which the arm resolved, or 0 where
    it did not.
    """
    m2 = n_arms * (n_arms - 1) // 2
    # each direction's analysis less one, so that a direction not rejected
    # (0) wraps round to 65,535, later than any analysis
    stage = stopped.T.astype(np.uint16)
    stage *= rejected.T
    stage -= 1
    # one-sided rows k and k + m2 are the two directions of one pair
    pair = functools.reduce(np.minimum, (stage[d:d + m2] for d in range(0, len(stage), m2)))
    ii, jj = _pair_arms(n_arms, TWO_SIDED)
    arm = np.stack([pair[(ii == a) | (jj == a)].max(axis=0) for a in range(n_arms)])
    arm += 1
    return arm


@dataclass(frozen=True)
class TrialConfig:
    """Immutable description of a (possibly multi-stage) K-arm trial.

    Parameters
    ----------
    n_arms : int
        Number of arms K >= 2.
    sigma2 : tuple of float
        Known per-arm response variances, all positive.
    stage_n : tuple of tuple of int
        Cumulative per-arm sample sizes, one row per analysis.  Rows are
        strictly increasing componentwise and keep the allocation fractions
        constant over stages (the joint distribution across analyses relies
        on this), so the first row states the allocation, :attr:`alloc`.
    sided : str, keyword-only
        ``"two-sided"`` (default) or ``"one-sided"``.
    """

    n_arms: int
    sigma2: tuple[float, ...]
    stage_n: tuple[tuple[int, ...], ...]
    sided: str = field(default=TWO_SIDED, kw_only=True)

    def __post_init__(self) -> None:
        _check_sided(self.sided)
        object.__setattr__(self, "n_arms", _whole(self.n_arms, "n_arms"))
        if self.n_arms < 2:
            raise ValueError("need at least two arms")
        object.__setattr__(self, "sigma2", tuple(_real(v, "sigma2") for v in self.sigma2))
        object.__setattr__(self, "stage_n", tuple(
            tuple(_whole(n, "a per-arm sample size") for n in row) for row in self.stage_n
        ))
        if len(self.sigma2) != self.n_arms:
            raise ValueError("sigma2 must have one entry per arm")
        if any(v <= 0 or not math.isfinite(v) for v in self.sigma2):
            raise ValueError("arm variances must be positive and finite")
        if not self.stage_n:
            raise ValueError("at least one analysis stage is required")
        if any(len(row) != self.n_arms for row in self.stage_n):
            raise ValueError("each stage_n row must have one entry per arm")
        for prev, cur in zip(self.stage_n, self.stage_n[1:]):
            if any(c <= p for p, c in zip(prev, cur)):
                raise ValueError("cumulative sample sizes must be strictly increasing")
        # rows strictly increase, so a positive first row makes every row positive
        first, total = self.stage_n[0], sum(self.stage_n[0])
        if any(n <= 0 for n in first):
            raise ValueError("per-arm sample sizes must be positive")
        # Constant allocation over stages, exactly: row q keeps the first
        # row's fractions when n_qi * total_1 == n_1i * total_q for every arm
        # i.  A drifting fraction breaks the sqrt(information ratio)
        # covariance between analyses.
        if any(n * total != n1 * sum(row)
               for row in self.stage_n[1:] for n, n1 in zip(row, first)):
            raise ValueError("per-arm allocation fractions must be constant across stages")

    @classmethod
    def single_stage(
        cls,
        n_arms: int,
        sigma2: Sequence[float] | float,
        n_per_arm: Sequence[int] | int,
        sided: str = TWO_SIDED,
    ) -> "TrialConfig":
        """One-analysis trial; scalar ``sigma2``/``n_per_arm`` broadcast to all arms."""
        n_arms = _whole(n_arms, "n_arms")
        return cls(n_arms, _per_arm(sigma2, n_arms), (_per_arm(n_per_arm, n_arms),),
                   sided=sided)

    @property
    def alloc(self) -> tuple[float, ...]:
        """Allocation fractions n / total of the first analysis, which every
        later analysis keeps."""
        total = sum(self.stage_n[0])
        return tuple(n / total for n in self.stage_n[0])

    @property
    def n_stages(self) -> int:
        return len(self.stage_n)

    @property
    def n_comparisons(self) -> int:
        return n_comparisons(self.n_arms, self.sided)

    @property
    def central(self) -> bool:
        """Whether the max test reads |z|, so that its acceptance region is
        centred on zero (two-sided) rather than bounded above only."""
        return self.sided == TWO_SIDED

    def pairs(self) -> list[PairIndex]:
        return all_pairs(self.n_arms, self.sided)

    def arm_variances(self, stage: int = 1) -> np.ndarray:
        """Per-arm variance of the cumulative mean at ``stage``: sigma_i^2 / n_i."""
        stage = self._check_stage(stage)
        n = np.asarray(self.stage_n[stage - 1], dtype=float)
        return np.asarray(self.sigma2) / n

    def sigma_p(self, stage: int = 1) -> np.ndarray:
        """Standard error of each pairwise difference at ``stage``."""
        v = self.arm_variances(stage)
        ii, jj = _pair_arms(self.n_arms, self.sided)
        return np.sqrt(v[ii] + v[jj])

    def info_fractions(self) -> np.ndarray:
        """Information fractions t_q = n^(q) / n^(Q) of the analysis schedule."""
        totals = np.array([sum(row) for row in self.stage_n], dtype=float)
        return totals / totals[-1]

    def stage_increments(self) -> np.ndarray:
        """Per-stage (non-cumulative) per-arm sample sizes, shape (Q, K)."""
        cum = np.asarray(self.stage_n, dtype=float)
        out = np.diff(cum, axis=0, prepend=np.zeros((1, self.n_arms)))
        return out

    def with_stage_n(self, stage_n: Sequence[Sequence[int]]) -> "TrialConfig":
        """This trial with cumulative per-arm sizes ``stage_n``, one row per
        analysis; its allocation fractions become those of the first row."""
        return TrialConfig(self.n_arms, self.sigma2, stage_n, sided=self.sided)

    def _check_stage(self, stage: int) -> int:
        stage = _whole(stage, "stage")
        if not (1 <= stage <= self.n_stages):
            raise ValueError(f"stage must lie in 1..{self.n_stages}, got {stage}")
        return stage

    def to_dict(self) -> dict:
        return {
            "n_arms": self.n_arms,
            "sigma2": list(self.sigma2),
            "stage_n": [list(row) for row in self.stage_n],
            "sided": self.sided,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, payload: dict) -> "TrialConfig":
        try:
            return cls(
                n_arms=payload["n_arms"],
                sigma2=tuple(payload["sigma2"]),
                stage_n=tuple(tuple(row) for row in payload["stage_n"]),
                sided=payload.get("sided", TWO_SIDED),
            )
        except KeyError as missing:
            raise ValueError(f"config is missing required field {missing}") from None

    @classmethod
    def from_json(cls, text: str) -> "TrialConfig":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class MeanConfig:
    """True per-arm means, in response units.

    ``delta`` optionally records the clinically relevant difference the
    configuration was built around.
    """

    mu: tuple[float, ...]
    delta: float | None = None

    def __post_init__(self) -> None:
        mu = tuple(_real(x, "an arm mean") for x in self.mu)
        object.__setattr__(self, "mu", mu)
        if len(mu) < 2:
            raise ValueError("need means for at least two arms")
        if not all(math.isfinite(x) for x in mu):
            raise ValueError("arm means must be finite")
        if self.delta is not None:
            object.__setattr__(self, "delta", _real(self.delta, "delta"))
            if not math.isfinite(self.delta):
                raise ValueError("delta must be finite")

    @property
    def n_arms(self) -> int:
        return len(self.mu)


def _arm_means(means: MeanConfig | Sequence[float], n_arms: int) -> np.ndarray:
    """The one check of a vector of arm means: one finite real number per
    arm.  Returns the means as a float array."""
    # an object array keeps a ragged entry for _reals to name
    raw = np.asarray(means.mu if isinstance(means, MeanConfig) else means, dtype=object)
    if raw.ndim != 1 or len(raw) != n_arms:
        raise ValueError("means must have one entry per arm")
    mu = _reals(raw, "an arm mean")
    if not np.all(np.isfinite(mu)):
        raise ValueError("arm means must be finite")
    return mu


@dataclass(frozen=True)
class ComparisonStats:
    """Standardized statistic for one comparison at one analysis."""

    k: int
    theta_hat: float
    sigma_p: float
    z: float
    stage: int


def z_statistics(
    config: TrialConfig, means: Sequence[float], stage: int = 1
) -> list[ComparisonStats]:
    """Standardized pairwise statistics from cumulative arm means.

    Parameters
    ----------
    config : TrialConfig
    means : sequence of float
        Observed cumulative per-arm means at ``stage``.
    stage : int
        1-based analysis index.

    Returns
    -------
    list of ComparisonStats
        One entry per comparison index; z_k = (mean_i - mean_j) / sigma_p,k.
    """
    stage = config._check_stage(stage)
    mu = _arm_means(means, config.n_arms)
    ii, jj = _pair_arms(config.n_arms, config.sided)
    theta = mu[ii] - mu[jj]
    sp = config.sigma_p(stage)
    return [ComparisonStats(k, t, s, t / s, stage)
            for k, (t, s) in enumerate(zip(theta, sp.tolist()), start=1)]


def standardized_means(
    config: TrialConfig, means: Sequence[float], stage: int | None = None
) -> np.ndarray:
    """Expected value of each z statistic under arm means ``means``.

    Defaults to the final analysis (full information).
    """
    if stage is None:
        stage = config.n_stages
    stats = z_statistics(config, means, stage)
    return np.array([s.z for s in stats])


@dataclass(frozen=True)
class CorrelationModel:
    """Validated correlation matrix of a subset of pairwise statistics."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", mat)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("correlation matrix must be square")
        # the tests of np.allclose(a, b, atol=1e-12), |a - b| <= 1e-12 + 1e-5 |b|
        # with b finite, or a == b, written out: its set-up cost more than
        # the comparisons, and an exactly symmetric matrix needs only one
        if not (mat == mat.T).all():
            with np.errstate(invalid="ignore"):
                close = ((np.abs(mat - mat.T) <= 1e-12 + 1e-5 * np.abs(mat.T))
                         & np.isfinite(mat.T) | (mat == mat.T))
            if not close.all():
                raise ValueError("correlation matrix must be symmetric")
        if not (np.abs(mat.diagonal() - 1.0) <= 1e-12 + 1e-5).all():
            raise ValueError("correlation matrix must have unit diagonal")
        if np.any(np.abs(mat) > 1 + 1e-12):
            raise ValueError("correlations must lie in [-1, 1]")
        if mat.shape[0] > 1 and np.linalg.eigvalsh(mat)[0] < -1e-10:
            raise ValueError("correlation matrix must be positive semidefinite")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def correlation(config: TrialConfig, subset: Iterable[int]) -> CorrelationModel:
    """Correlation matrix of the statistics in ``subset``, the same at every
    analysis because the allocation is constant across stages.

    Shared arms induce the only dependence.  Writing v_a = sigma_a^2 / n_a,
    the covariance of two differences (mu_i1 - mu_j1) and (mu_i2 - mu_j2) is

        1{i1=i2} v_i1 + 1{j1=j2} v_j1 - 1{i1=j2} v_i1 - 1{j1=i2} v_j1,

    so arms shared on the same side contribute positively and arms shared on
    opposite sides negatively.  Comparisons with four distinct arms are
    uncorrelated.

    Parameters
    ----------
    config : TrialConfig
    subset : iterable of int
        Comparison indices (1-based, ordering preserved), each a whole
        number read through ``_whole``.

    Returns
    -------
    CorrelationModel
    """
    members = np.array([_whole(k, "a comparison index") for k in subset], dtype=int)
    if not members.size:
        raise ValueError("subset must contain at least one comparison")
    m = config.n_comparisons
    outside = members[(members < 1) | (members > m)]
    if outside.size:
        raise ValueError(f"index must lie in 1..{m}, got {outside[0]}")
    ii, jj = _pair_arms(config.n_arms, config.sided)
    v = config.arm_variances(1)
    return CorrelationModel(_pair_correlation(v, ii[members - 1], jj[members - 1]))
