"""Rectangle probabilities and equicoordinate quantiles for the multivariate
normal distribution.

This kernel is the computational substrate for every critical value in the
package, so it has a stricter contract than general-purpose integrators:

* Determinism: identical inputs and seed give bit-identical results.
* Singular correlation matrices are first-class.  A vector of pairwise
  differences of K arm means has rank at most K - 1, so the matrices arriving
  here are usually rank deficient.  Linearly dependent coordinates are not
  jittered away; they are folded exactly into interval constraints on the
  coordinates that span the distribution (a correlation of +/-1 folds a
  coordinate into its partner as the simplest case).
* Accuracy is an absolute error target.  The error estimate is roughly three
  times the standard error over randomized lattice shifts, and the call fails
  loudly when the target is unreachable within the point budget.

The integration scheme follows the separation-of-variables approach: a
variance-minimizing ordered Cholesky factorization turns the rectangle
probability into an integral over the unit cube of dimension rank - 1,
evaluated with a randomly shifted Kronecker lattice and a tent transform.

Points are evaluated in chunks of 2^15.  The unshifted lattice points of a
chunk are built once and shared by all twelve random shifts.  The first
integration variable has no predecessors, so its factor is one number,
computed once for each chunk and shift rather than at every point.  Every
shortcut is exact in IEEE arithmetic, so it does not change a single bit of
the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri

from .model import CorrelationModel

__all__ = [
    "Rectangle",
    "ProbResult",
    "NumericsError",
    "AccuracyError",
    "SolverError",
    "mvn_rect",
    "equicoord_quantile",
]


class NumericsError(RuntimeError):
    """Base class for kernel failures (as opposed to invalid input)."""


class AccuracyError(NumericsError):
    """The requested accuracy was not reached within the point budget."""


class SolverError(NumericsError):
    """A quantile root could not be bracketed or refined."""


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned integration region; limits may be infinite."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ValueError("lower and upper must be 1-d arrays of equal length")
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
            raise ValueError("rectangle limits must not be NaN")
        if np.any(lo > hi):
            raise ValueError("each lower limit must not exceed its upper limit")

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @classmethod
    def centered(cls, c: float, dim: int) -> "Rectangle":
        """The cube (-c, c)^dim."""
        if c < 0:
            raise ValueError("half-width must be nonnegative")
        return cls(np.full(dim, -c), np.full(dim, c))

    @classmethod
    def below(cls, c: float, dim: int) -> "Rectangle":
        """The one-sided region (-inf, c)^dim."""
        return cls(np.full(dim, -np.inf), np.full(dim, c))


@dataclass(frozen=True)
class ProbResult:
    """Estimated probability with error estimate and points spent."""

    value: float
    err_est: float
    n_points: int


_CHOL_TOL = 1e-10
_COEF_TOL = 1e-9
_U_LO = 1e-300
_U_HI = float(np.nextafter(1.0, 0.0))
_N_SHIFTS = 12
_CHUNK = 1 << 15
DEFAULT_ACCURACY = 1e-5
DEFAULT_QUANTILE_TOL = 1e-4
DEFAULT_MAX_POINTS = 1 << 26


@lru_cache(maxsize=None)
def _lattice_generators(dim: int) -> np.ndarray:
    """Fractional parts of sqrt(prime), the Kronecker lattice directions."""
    primes: list[int] = []
    candidate = 2
    while len(primes) < dim:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    gen = np.sqrt(np.asarray(primes, dtype=float))
    return np.mod(gen, 1.0)


def _ordered_cholesky(corr: np.ndarray, lower: np.ndarray, upper: np.ndarray):
    """Cholesky factorization with variance-minimizing coordinate ordering.

    Coordinates are reordered so that the ones contributing the least
    conditional probability mass are integrated first, which concentrates the
    integrand's variation in the leading lattice dimensions.  Coordinates
    whose conditional variance vanishes are deferred to the trailing rows:
    they carry exact linear constraints on the leading coordinates instead of
    integration variables.

    Returns ``(cho, lo, hi, rank)``.  Rows ``0..rank-1`` are scaled so the
    conditional standard deviation is one; rows ``rank..n-1`` hold regression
    coefficients of the dependent coordinates on the unit innovations, with
    unscaled limits.
    """
    n = corr.shape[0]
    cho = np.array(corr, dtype=float)
    lo = np.array(lower, dtype=float)
    hi = np.array(upper, dtype=float)
    y = np.zeros(n)
    sqrt_2pi = math.sqrt(2.0 * math.pi)
    rank = n
    for k in range(n):
        best = -1
        best_mass = 2.0
        best_sd = 0.0
        best_lim = (0.0, 0.0)
        for i in range(k, n):
            if cho[i, i] <= _CHOL_TOL:
                continue
            sd = math.sqrt(cho[i, i])
            s = float(cho[i, :k] @ y[:k]) if k else 0.0
            a = (lo[i] - s) / sd
            b = (hi[i] - s) / sd
            mass = ndtr(b) - ndtr(a)
            if mass < best_mass:
                best, best_mass, best_sd, best_lim = i, mass, sd, (a, b)
        if best < 0:
            rank = k
            break
        if best != k:
            # symmetric permutation restricted to the live lower triangle;
            # the upper triangle holds stale entries and must not leak in
            cho[best, best] = cho[k, k]
            _swap(cho, np.s_[best, :k], np.s_[k, :k])
            _swap(cho, np.s_[best + 1 :, best], np.s_[best + 1 :, k])
            _swap(cho, np.s_[k + 1 : best, k], np.s_[best, k + 1 : best])
            _swap(lo, best, k)
            _swap(hi, best, k)
        ck = best_sd
        cho[k, k] = ck
        cho[k, k + 1 :] = 0.0
        for i in range(k + 1, n):
            cho[i, k] /= ck
            cho[i, k + 1 : i + 1] -= cho[i, k] * cho[k + 1 : i + 1, k]
        a, b = best_lim
        if best_mass > _CHOL_TOL:
            ea = math.exp(-0.5 * a * a) if np.isfinite(a) else 0.0
            eb = math.exp(-0.5 * b * b) if np.isfinite(b) else 0.0
            y[k] = (ea - eb) / (sqrt_2pi * best_mass)
        elif np.isfinite(a) and np.isfinite(b):
            y[k] = 0.5 * (a + b)
        else:
            y[k] = a if np.isfinite(a) else (b if np.isfinite(b) else 0.0)
        cho[k, : k + 1] /= ck
        lo[k] /= ck
        hi[k] /= ck
    for k in range(rank, n):
        cho[k, rank:] = 0.0
    return cho, lo, hi, rank


def _swap(x, slc1, slc2):
    tmp = np.array(x[slc1], copy=True)
    x[slc1] = x[slc2]
    x[slc2] = tmp


class _ZeroProbability(Exception):
    """A deterministic coordinate's limits exclude its fixed value."""


def _integration_plan(cho, lo, hi, rank):
    """Group constraints by the integration variable at which they resolve.

    Each pivot row t constrains its own innovation y_t directly.  A dependent
    row is an exact linear combination of the innovations; conditioning on
    everything before its last nonzero coefficient turns it into an interval
    constraint on that final variable, so it is folded there.  The integrand
    factor for variable t is then the conditional mass of the intersection of
    every interval assigned to t.
    """
    n = lo.shape[0]
    steps: list[list[tuple[np.ndarray, float, float, float]]] = [[] for _ in range(rank)]
    for t in range(rank):
        steps[t].append((cho[t, :t].copy(), 1.0, lo[t], hi[t]))
    for d in range(rank, n):
        coefs = cho[d, :rank]
        nonzero = np.flatnonzero(np.abs(coefs) > _COEF_TOL)
        if nonzero.size == 0:
            # coordinate is deterministically zero
            if lo[d] > 0.0 or hi[d] < 0.0:
                raise _ZeroProbability
            continue
        t = int(nonzero[-1])
        steps[t].append((coefs[:t].copy(), float(coefs[t]), lo[d], hi[d]))
    return steps


def _first_factor(constraints) -> tuple[float, float]:
    """``(ndtr(a), mass)`` of variable 0, whose limits are plain numbers.

    Variable 0 has an empty prefix, so its interval, and the factor it
    contributes, is the same at every lattice point.
    """
    a = b = None
    for _, coef, lo_c, hi_c in constraints:
        av, bv = (lo_c, hi_c) if coef == 1.0 else (lo_c / coef, hi_c / coef)
        if coef < 0:
            av, bv = bv, av
        a = av if a is None else max(a, av)
        b = bv if b is None else min(b, bv)
    ca = ndtr(a)
    return ca, float(np.clip(ndtr(b) - ca, 0.0, 1.0))


def _evaluate(steps, rank: int, x: np.ndarray) -> np.ndarray:
    """Integrand over unit-cube points ``x`` of shape (rank - 1, npts).

    The first factor is computed once on scalars and broadcast.  For each
    later variable the interval starts from its first constraint and is
    narrowed by the rest, in preallocated buffers; the pivot row's unit
    coefficient is never divided by.  Every step gives the same bits as
    narrowing (-inf, inf) with freshly allocated arrays.
    """
    npts = x.shape[1]
    ca, dc = _first_factor(steps[0])
    pv = np.full(npts, dc)
    y = np.empty((npts, rank - 1))
    u, s, a, b, av = np.empty((5, npts))
    for t in range(rank):
        if t:
            for i, (prefix, coef, lo_c, hi_c) in enumerate(steps[t]):
                np.matmul(y[:, :t], prefix, out=s)
                lo_v, hi_v = (a, b) if i == 0 else (av, s)
                np.subtract(lo_c if coef > 0 else hi_c, s, out=lo_v)
                np.subtract(hi_c if coef > 0 else lo_c, s, out=hi_v)
                if coef != 1.0:
                    lo_v /= coef
                    hi_v /= coef
                if i:
                    np.maximum(a, av, out=a)
                    np.minimum(b, s, out=b)
            ca = ndtr(a, out=a)
            dc = ndtr(b, out=b)
            dc -= ca
            np.maximum(dc, 0.0, out=dc)
            np.minimum(dc, 1.0, out=dc)
            pv *= dc
        if t < rank - 1:
            np.multiply(x[t], dc, out=u)
            u += ca
            np.maximum(u, _U_LO, out=u)
            np.minimum(u, _U_HI, out=u)
            ndtri(u, out=y[:, t])
    return pv


def _round_means(steps, rank, gen, n_points, shifts) -> np.ndarray:
    """Integrand mean over the first ``n_points`` lattice points, per shift.

    The unshifted points ``j * gen`` are built once per chunk and shared by
    every shift; each shift's total adds its chunk sums in chunk order.
    """
    totals = np.zeros(len(shifts))
    x = np.empty((gen.shape[0], min(_CHUNK, n_points)))
    for start in range(0, n_points, _CHUNK):
        stop = min(start + _CHUNK, n_points)
        base = gen[:, None] * np.arange(start + 1, stop + 1, dtype=float)
        xs = x[:, : stop - start]
        for s, shift in enumerate(shifts):
            np.add(base, shift[:, None], out=xs)
            # fractional part, exact (and equal to np.mod) for xs >= 0
            xs -= np.floor(xs)
            xs *= 2.0
            xs -= 1.0
            np.abs(xs, out=xs)
            totals[s] += float(_evaluate(steps, rank, xs).sum())
    return totals / n_points


def _qmc_estimate(steps, rank, accuracy, rng, max_points):
    dim = rank - 1
    if dim == 0:
        # every factor is a constant interval: the value is exact
        return _first_factor(steps[0])[1], 0.0, 1
    gen = _lattice_generators(dim)
    n = 1 << 10
    spent = 0
    weight_sum = 0.0
    weighted_est = 0.0
    while True:
        means = _round_means(steps, rank, gen, n, rng.random((_N_SHIFTS, dim)))
        spent += n * _N_SHIFTS
        round_est = float(means.mean())
        round_err = 3.0 * max(float(means.std(ddof=1)) / math.sqrt(_N_SHIFTS), 1e-16)
        w = 1.0 / round_err**2
        weight_sum += w
        weighted_est += w * round_est
        err = 1.0 / math.sqrt(weight_sum)
        if err <= accuracy:
            return weighted_est / weight_sum, err, spent
        if spent >= max_points:
            raise AccuracyError(
                f"accuracy {accuracy:g} not reached after {spent} points "
                f"(error estimate {err:.2e})"
            )
        n *= 2


def _check_accuracy(accuracy: float) -> None:
    # a target of zero, below zero or NaN is never met: the loop would spend
    # the whole point budget before failing
    if not (math.isfinite(accuracy) and accuracy > 0.0):
        raise ValueError(f"accuracy must be finite and positive, got {accuracy!r}")


def mvn_rect(
    mean,
    corr,
    rect: Rectangle,
    accuracy: float = DEFAULT_ACCURACY,
    seed: int = 0,
    max_points: int = DEFAULT_MAX_POINTS,
) -> ProbResult:
    """Probability that a multivariate normal vector falls in a rectangle.

    Parameters
    ----------
    mean : float or array_like
        Mean vector (a scalar broadcasts to every coordinate).
    corr : CorrelationModel or array_like
        Correlation matrix.  Positive semidefinite suffices; rank-deficient
        matrices are handled exactly by folding dependent coordinates into
        interval constraints.
    rect : Rectangle
        Integration region; infinite limits allowed.
    accuracy : float
        Absolute error target for the estimate; finite and positive.
    seed : int
        Seed for the randomized lattice shifts.  Fixed seed gives
        bit-identical results.
    max_points : int
        Budget of integrand evaluations before :class:`AccuracyError`.

    Returns
    -------
    ProbResult
        ``value`` in [0, 1], ``err_est`` roughly three standard errors of the
        randomized-shift estimate, ``n_points`` evaluations spent.
    """
    _check_accuracy(accuracy)
    if isinstance(corr, CorrelationModel):
        model = corr
    else:
        model = CorrelationModel(np.asarray(corr, dtype=float))
    dim = model.dim
    if rect.dim != dim:
        raise ValueError(f"rectangle dimension {rect.dim} does not match matrix {dim}")
    mu = np.broadcast_to(np.asarray(mean, dtype=float), (dim,))
    if not np.all(np.isfinite(mu)):
        raise ValueError("mean must be finite")
    lo = rect.lower - mu
    hi = rect.upper - mu
    if dim == 1:
        value = float(np.clip(ndtr(hi[0]) - ndtr(lo[0]), 0.0, 1.0))
        return ProbResult(value, 1e-15, 0)
    cho, tlo, thi, rank = _ordered_cholesky(model.matrix, lo, hi)
    try:
        steps = _integration_plan(cho, tlo, thi, rank)
    except _ZeroProbability:
        return ProbResult(0.0, 0.0, 0)
    rng = np.random.default_rng(seed)
    value, err, spent = _qmc_estimate(steps, rank, accuracy, rng, max_points)
    return ProbResult(float(np.clip(value, 0.0, 1.0)), err, spent)


def equicoord_quantile(
    corr,
    prob: float,
    seed: int = 0,
    tol: float = DEFAULT_QUANTILE_TOL,
    accuracy: float = DEFAULT_ACCURACY,
    tail: str = "central",
) -> float:
    """Equicoordinate quantile of a multivariate normal distribution.

    Solves for c such that P(all |Z_k| < c) = prob when ``tail`` is
    ``"central"``, or P(all Z_k < c) = prob when ``tail`` is ``"upper"``.

    The root is bracketed on [0, 6] (widened once if needed), located with
    cheap low-accuracy probability evaluations, then polished by Brent's
    method at full accuracy on a narrow bracket.  Every probability
    evaluation reuses the same seed, so the objective is a smooth, strictly
    monotone function of c and the result is deterministic.

    Parameters
    ----------
    corr : CorrelationModel or array_like
    prob : float
        Target probability in (0, 1).
    seed : int
    tol : float
        Tolerance on the quantile.  The solver stops once the bracket is
        narrower than tol; the result can additionally be off by roughly
        ``accuracy`` divided by the local density of the maximum statistic.
    accuracy : float
        Accuracy of the inner rectangle probabilities.
    tail : str
        ``"central"`` or ``"upper"``.

    Returns
    -------
    float
    """
    if not 0.0 < prob < 1.0:
        raise ValueError("prob must lie strictly between 0 and 1")
    if tail not in ("central", "upper"):
        raise ValueError(f"tail must be 'central' or 'upper', got {tail!r}")
    _check_accuracy(accuracy)
    if isinstance(corr, CorrelationModel):
        model = corr
    else:
        model = CorrelationModel(np.asarray(corr, dtype=float))
    dim = model.dim
    if dim == 1:
        return float(ndtri(0.5 * (1.0 + prob)) if tail == "central" else ndtri(prob))

    def objective(c: float, acc: float) -> float:
        rect = Rectangle.centered(c, dim) if tail == "central" else Rectangle.below(c, dim)
        return mvn_rect(0.0, model, rect, accuracy=acc, seed=seed).value - prob

    lo, hi = 0.0, 6.0
    coarse_acc = max(accuracy, min(5e-4, 0.05 * (1.0 - prob)))
    f_lo = objective(lo, coarse_acc)
    if f_lo > 0.0:
        if tail == "central":
            raise SolverError("probability at zero half-width exceeds the target")
        lo, f_lo = -8.0, objective(-8.0, coarse_acc)
    f_hi = objective(hi, coarse_acc)
    if f_hi < 0.0:
        hi, f_hi = 8.0, objective(8.0, coarse_acc)
    if f_lo > 0.0 or f_hi < 0.0:
        raise SolverError(
            f"failed to bracket the {tail} quantile at prob={prob} within [{lo}, {hi}]"
        )
    return _two_phase_brentq(objective, lo, hi, tol, accuracy, coarse_acc)


def _two_phase_brentq(objective, lo, hi, tol, accuracy, coarse) -> float:
    """Root of a monotone ``objective(c, accuracy)`` bracketed by [lo, hi].

    The root is located cheaply at the ``coarse`` accuracy first, then
    polished at full ``accuracy`` on a narrow bracket around it; the
    two-phase split spends the expensive evaluations only where they
    matter.  Shared by the equicoordinate quantile and the group-sequential
    boundary solve.
    """
    if coarse > accuracy:
        c0 = float(brentq(objective, lo, hi, xtol=5e-3, args=(coarse,)))
        for half in (0.05, 0.5):
            a, b = max(lo, c0 - half), min(hi, c0 + half)
            try:
                return float(brentq(objective, a, b, xtol=0.5 * tol, args=(accuracy,)))
            except ValueError:
                continue  # root drifted outside the guess; widen
    return float(brentq(objective, lo, hi, xtol=0.5 * tol, args=(accuracy,)))
