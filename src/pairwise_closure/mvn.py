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
* Accuracy is an absolute error target.  The error estimate is three
  standard errors of the mean over twelve randomized lattice shifts, or on a
  rank-2 rectangle the gap between two Gauss-Legendre rules, and the call
  fails loudly when the target is unreachable within the point budget.

The integration scheme follows the separation-of-variables approach: a
variance-minimizing ordered Cholesky factorization turns the rectangle
probability into an integral over the unit cube of dimension rank - 1,
evaluated with a randomly shifted lattice and a tent transform.  Up to
``_LATTICE_Z.size`` dimensions the points form an embedded rank-1 lattice
in radical-inverse order (Hickernell, Hong, L'Ecuyer & Lemieux 2000):
point j is {phi_2(j) z}, with phi_2 the base-2 radical inverse, computed
by integer bit reversal, and z an integer generating vector chosen by an
embedded component-by-component search (Cools, Kuo & Nuyens 2006;
``tools/cbc_lattice.py``).  The first 2^m points are exactly the lattice
{k z / 2^m}, so each doubling adds its odd multiples.  Past that many
dimensions the points are the Kronecker sequence j * frac(sqrt(prime)),
where the lattice gave no gain.  Either sequence is extensible (its first
2n points contain its first n; Genz & Bretz 2009), and the twelve random
shifts are drawn once per seed and dimension.  The rounds double the number
of points, from a first round of 64, but each evaluates only its new ones
and adds them to every shift's running sum: a rectangle that converges at n
points has spent 12 n evaluations in all.

Points are evaluated in chunks of 2^10 lattice points, all twelve shifts of
a chunk in one call, so that neither the small early rounds nor the many
shifts multiply the Python-level work.  The unshifted points of a chunk are
built once and shared by the shifts.  The first integration variable has
no predecessors, so its factor is one number, computed once per chunk
rather than at every point.  These shortcuts are exact in IEEE arithmetic;
only the chunk size and the round boundaries fix the order in which
partial sums are added.

A rectangle of rank 2, such as every rectangle of three arms or of two
comparisons, leaves one integration variable, and is integrated exactly
instead (``_rank2_estimate``).  Given y0, the second variable y1 lies
between straight lines in y0, so the integrand is
phi(y0) [Phi(U(y0)) - Phi(L(y0))]_+, with L the largest lower line and U
the smallest upper one.  It has kinks only where two lines cross, in closed
form.  y0's interval is cut to [-9, 9] (the mass outside is 2e-19), and
into pieces at every crossing and where y0, or any line, passes a multiple
of 3 in [-9, 9].  Each piece is analytic, at most 3 long in y0, and no line
moves by more than 3 on it inside [-9, 9], however steep, so a 24-node
Gauss-Legendre rule reaches rounding error on it.  The error estimate is
the gap to the 12-node rule on the same pieces, floored at 1e-16.  Such a
result depends on no seed.

A root solve or a tail-table grid calls the kernel many times with one seed
and one dimension.  So the shifts, and the shifted, tent-folded points of
the first 4,096 lattice points, of the last ``(seed, dimension)`` key are
kept by a one-entry ``functools.lru_cache`` (``_point_set``): at most
12 x 4,097 x dim doubles, 2.4 MB at six dimensions.  A call with the kept
key reads them instead of drawing the shifts and building the points again,
and rounds past the kept points build theirs as before.  Every integrand
evaluation still runs, so a result does not depend on the calls before it.
Concurrent callers need no lock: the cache stays coherent under threads,
and when it builds one key's set twice the two sets are equal; a kept chunk
is complete before it is stored and never written afterwards.

Such a solve also factors one matrix again and again, changing only the
limits.  On a symmetric box, lower == -upper after the mean is subtracted
and the doubly infinite coordinates are dropped, every conditional offset
of the ordered factorization is exactly zero, so the elimination does not
depend on the limits; only the pivot picks do, through ties in each
candidate's conditional mass, and so do the limits of the factor's rows.
So the last factorization of the last matrix met with symmetric limits is
kept, by a second one-entry ``functools.lru_cache`` keyed by the matrix's
bytes and shape (``_kept_plan``): its folded rows, each step's candidates
with their conditional standard deviations and pick, and each pivot's scale
as computed (``_PivotPlan``).  A symmetric call scores every recorded
candidate at its own limits in one vectorized pass and uses the plan only
when each step's first strict minimum is the recorded pick; otherwise it
factors the matrix as before and keeps the new plan.  Other boxes, such
as one-sided ones and those of a power calculation, factor at every call.
Either way a result has the bits of a fresh factorization.  No lock is
needed: a plan is complete before it is stored and never written
afterwards, a call reads the kept plan once, and a plan another thread
stored in between is one of the same matrix, checked the same way.

A coordinate whose limits are both infinite is dropped, with its row and
column, before the factorization, since its marginal probability is 1; a
group-sequential rectangle marks an analysis with nothing to spend that way.

Two-sided and one-sided families differ in a few facts, each written once.
The family is two-sided exactly when ``TrialConfig.central`` holds.  The
statistic a max test reads is |z| or z (``model._max_statistic``), and one
comparison's level is spread over two normal tails or one
(``model._normal_tails``).  The maximum stays below c on the cube
(-c, c)^d or on the orthant (-inf, c)^d (``_max_rect``).  A maximum is
searched or tabulated on [0, 8] or [-8, 8] (``_max_range``), and its
quantile takes the ``"central"`` or the ``"upper"`` tail
(``_quantile_tail``).

Equicoordinate quantiles, and the stage boundaries of the group-sequential
module, are roots in one scalar of such probabilities.  At rank 2 the
probability on the cube (-c, c)^d or the orthant (-inf, c)^d is exact, and
every limit of a factorization scales with c: with y0 = c t each line is c
times a fixed line in t, so every kink of the integrand sits at a fixed t.
So ``_equicoord_root`` factors the matrix once, on the box of c = 1, and
builds one partition in t (``_ScaledRank2``) that serves every c between
one coordinate's quantile and Bonferroni's, which bracket the root; on it
P(c) and its exact derivative cost one vectorized pass per c.  Newton from
the Bonferroni point takes about four passes, and Illinois on the same P
is its fallback.  This solves every rank-2 quantile and the first stage
of every rank-2 boundary vector.  The others, of rank 3 and more or at a
later stage, whose earlier limits do not scale with c, go to
``_two_phase_root``.  Its coarse phase, at the accuracy
``_coarse_accuracy`` sets, runs regula falsi on the normal score
-Phi^{-1}(1 - P), nearly linear in c, and reads the slope for the fine
phase off its final bracket; the fine phase then usually takes two
full-accuracy evaluations, a Newton and a secant step.  The search starts
in a bracket widened by 0.05 on each side, falling back to the whole
range: the one above for a quantile or first stage; for a later stage,
where one coordinate alone would spend all of alpha_q, and where the
union bound would spend just the increment over the last stage solved.

Only the first full-accuracy evaluation of such a solve, the anchor,
integrates its box in full (``_SolveAnchor``).  Each later one integrates
the difference between its integrand and the anchor's on the anchor's
factorization, shifts and points: common random numbers (Glasserman &
Yao 1992).  The factor depends on the limits only through the pivot
picks, so one plan serves any box, once its limits are permuted and
scaled.  Each shift's estimate is the anchor's mean plus its mean
difference, and rounds double until the usual ``err_est`` of the twelve
meets the accuracy: the K=4 two-look stage-2 box needs 65,536 lattice
points for its anchor and 64 for a Newton step's difference.  A box
whose difference would spend more evaluations (two per point) than the
anchor did, or that keeps other coordinates after the doubly infinite
drop, is integrated fresh.  An anchor lives for one solve.  On a cube,
the factorization at c = 1 that found a rank >= 3 root's rank becomes the
matrix's kept plan, so it is not wasted; an orthant's picks move with c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import ndtr, ndtri

from .model import CorrelationModel, _whole

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
        # one comparison on the valid path; a NaN limit fails it too
        if not (lo <= hi).all():
            if np.isnan(lo).any() or np.isnan(hi).any():
                raise ValueError("rectangle limits must not be NaN")
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


def _max_rect(c, dim: int, central: bool) -> Rectangle:
    """The event that a maximum statistic stays below ``c``.

    The cube (-c, c)^dim for a max |Z| (``central``), the orthant
    (-inf, c)^dim for a max Z.  ``c`` is a number or one limit per
    coordinate; an infinite limit leaves that coordinate unbounded.
    """
    upper = np.full(dim, c, dtype=float)
    return Rectangle(-upper if central else np.full(dim, -np.inf), upper)


def _max_range(central: bool) -> tuple[float, float]:
    """The interval on which a maximum statistic is searched or tabulated:
    [0, 8] for a max |Z|, [-8, 8] for a max Z."""
    return (0.0 if central else -8.0), 8.0


def _quantile_tail(central: bool) -> str:
    """The ``tail`` of :func:`equicoord_quantile` for a max |Z| or a max Z."""
    return "central" if central else "upper"


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
# lattice points per chunk; each evaluates all _N_SHIFTS shifts at once
_CHUNK = 1 << 10
# lattice points of a call's first round
_FIRST_ROUND = 1 << 6
# lattice points, from the first, whose folded points are kept (see the
# module text)
_KEPT_POINTS = 1 << 12
# generating vector of the embedded rank-1 lattice, the first components of
# tools/cbc_lattice.py; past six dimensions the lattice spent more points
# than the Kronecker directions
_LATTICE_Z = np.array([1, 167197, 446031, 227463, 322969, 347039], dtype=np.uint64)
DEFAULT_ACCURACY = 1e-5
DEFAULT_QUANTILE_TOL = 1e-4
DEFAULT_MAX_POINTS = 1 << 26
# rank-2 integrals: y0 is cut to [-_Y_MAX, _Y_MAX] and into pieces at _GRID,
# in y0 and in y1; each piece gets both Gauss-Legendre rules of _GL_SIZES,
# the first giving the value and the second the error estimate
_Y_MAX = 9.0
_GRID = np.arange(-_Y_MAX, _Y_MAX + 1.0, 3.0)
_GL_SIZES = (24, 12)
_GL_NODES, _GL_WEIGHTS = map(
    np.concatenate, zip(*(np.polynomial.legendre.leggauss(n) for n in _GL_SIZES)))
# width of the coarse phase's final bracket, whose ends give the slope
_COARSE_XTOL = 5e-3
# full-accuracy secant steps before the bracketed fallback
_SECANT_STEPS = 3
# rank-2 roots: Newton steps before the bracketed fallback, and the step
# length after which the next iterate is taken as the root (quadratic
# convergence leaves it within about |P''/P'| 1e-16 of the exact root)
_NEWTON_STEPS = 8
_NEWTON_XTOL = 1e-8
# general roots: the coarse search starts from a bracket widened by this much
_BRACKET_PAD = 0.05


@lru_cache(maxsize=None)
def _lattice_generators(dim: int) -> np.ndarray:
    """Generating vector of the point set in ``dim`` dimensions.

    The first ``dim`` components of ``_LATTICE_Z`` (integers) when it has
    that many; past its length, the fractional parts of sqrt(prime), the
    Kronecker directions.
    """
    if dim <= _LATTICE_Z.size:
        return _LATTICE_Z[:dim]
    primes: list[int] = []
    candidate = 2
    while len(primes) < dim:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    gen = np.sqrt(np.asarray(primes, dtype=float))
    return np.mod(gen, 1.0)


def _bit_reverse32(j: np.ndarray) -> np.ndarray:
    """The 32-bit reversal of each of the unsigned integers ``j`` < 2^32."""
    for shift, mask in ((1, 0x55555555), (2, 0x33333333), (4, 0x0F0F0F0F),
                        (8, 0x00FF00FF), (16, 0x0000FFFF)):
        j = ((j >> shift) & mask) | ((j & mask) << shift)
    return j


def _lattice_points(gen: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Unshifted points ``start .. stop - 1`` of the sequence ``gen`` defines,
    shape (dim, stop - start), each coordinate in [0, 1) or, for Kronecker
    directions, nonnegative.

    An integer vector z gives the rank-1 lattice in radical-inverse order,
    point j being (bitrev32(j) z mod 2^32) / 2^32: exact in integers and in
    the float conversion, and its first 2^m points are the lattice
    {k z / 2^m}.  Float directions give the Kronecker points (j + 1) gen.
    """
    if gen.dtype.kind == "u":
        phi = _bit_reverse32(np.arange(start, stop, dtype=np.uint64))
        return (np.multiply.outer(gen, phi) & 0xFFFFFFFF) * 2.0**-32
    return np.multiply.outer(gen, np.arange(start + 1, stop + 1, dtype=float))


def _ordered_cholesky(corr: np.ndarray, lower: np.ndarray, upper: np.ndarray):
    """Cholesky factorization with variance-minimizing coordinate ordering.

    Coordinates are reordered so that the ones contributing the least
    conditional probability mass are integrated first, which concentrates the
    integrand's variation in the leading lattice dimensions.  Coordinates
    whose conditional variance vanishes are deferred to the trailing rows:
    they carry exact linear constraints on the leading coordinates instead of
    integration variables.

    Returns ``(cho, lo, hi, rank, pivots)``.  Rows ``0..rank-1`` are scaled
    so the conditional standard deviation is one; rows ``rank..n-1`` hold
    regression coefficients of the dependent coordinates on the unit
    innovations, with unscaled limits.  ``pivots`` records how the rows were
    chosen, for :class:`_PivotPlan`: per step the input coordinates scored
    with their conditional standard deviations (the pick's is its scale
    ``ck``), the position of the pick among them, and the input coordinate
    of every row.
    """
    n = corr.shape[0]
    cho = np.array(corr, dtype=float)
    lo = np.array(lower, dtype=float)
    hi = np.array(upper, dtype=float)
    y = np.zeros(n)
    sqrt_2pi = math.sqrt(2.0 * math.pi)
    rank = n
    perm = np.arange(n)
    scored: list[list[tuple[int, float]]] = []
    picks: list[int] = []
    for k in range(n):
        best = -1
        best_mass = 2.0
        best_sd = 0.0
        best_lim = (0.0, 0.0)
        step: list[tuple[int, float]] = []
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
                pick = len(step)
            step.append((int(perm[i]), sd))
        if best < 0:
            rank = k
            break
        scored.append(step)
        picks.append(pick)
        if best != k:
            # symmetric permutation restricted to the live lower triangle;
            # the upper triangle holds stale entries and must not leak in
            cho[best, best] = cho[k, k]
            _swap(cho, np.s_[best, :k], np.s_[k, :k])
            _swap(cho, np.s_[best + 1 :, best], np.s_[best + 1 :, k])
            _swap(cho, np.s_[k + 1 : best, k], np.s_[best, k + 1 : best])
            _swap(lo, best, k)
            _swap(hi, best, k)
            _swap(perm, best, k)
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
    return cho, lo, hi, rank, (scored, picks, perm)


def _swap(x, slc1, slc2):
    tmp = np.array(x[slc1], copy=True)
    x[slc1] = x[slc2]
    x[slc2] = tmp


class _ZeroProbability(Exception):
    """A deterministic coordinate's limits exclude its fixed value."""


def _integration_plan(cho, rank):
    """Group constraints by the integration variable at which they resolve.

    Each pivot row t constrains its own innovation y_t directly.  A dependent
    row is an exact linear combination of the innovations; conditioning on
    everything before its last nonzero coefficient turns it into an interval
    constraint on that final variable, so it is folded there.  The integrand
    factor for variable t is then the conditional mass of the intersection of
    every interval assigned to t.

    Returns ``(folded, zero)``: per variable its constraints as ``(prefix,
    coef, row)``, and the dependent rows that are deterministically zero.
    :func:`_constraints` gives them their limits.
    """
    folded: list[list[tuple[np.ndarray, float, int]]] = [
        [(cho[t, :t].copy(), 1.0, t)] for t in range(rank)]
    zero = []
    for d in range(rank, cho.shape[0]):
        coefs = cho[d, :rank]
        nonzero = np.flatnonzero(np.abs(coefs) > _COEF_TOL)
        if nonzero.size == 0:
            zero.append(d)
            continue
        t = int(nonzero[-1])
        folded[t].append((coefs[:t].copy(), float(coefs[t]), d))
    return folded, zero


def _constraints(folded, zero, lo, hi):
    """The constraints of :func:`_integration_plan` with the limits of their
    rows: per variable a list of ``(prefix, coef, lo, hi)``."""
    for d in zero:
        if lo[d] > 0.0 or hi[d] < 0.0:
            raise _ZeroProbability
    return [[(prefix, coef, lo[row], hi[row]) for prefix, coef, row in step]
            for step in folded]


class _PivotPlan:
    """One factorization of a correlation matrix, with how its pivots were
    picked.

    The elimination of :func:`_ordered_cholesky` depends on the limits only
    through the picks, so the factor serves any box in the plan's
    permutation: ``transform`` gives its limits, ``lo / ck`` and
    ``hi / ck`` on pivot rows and ``lo``, ``hi`` on dependent ones.  On a
    symmetric box, ``lo == -hi`` after the doubly infinite drop, every
    conditional offset is exactly zero, so the picks depend on the limits
    only through ties: ``limits`` scores every recorded candidate at new
    symmetric limits in one pass and returns the transformed limits when
    each step's first strict argmin is its recorded pick, that is, when a
    fresh factorization would give the same bits.  ``ck`` is kept as
    computed; any value derived from it again may differ in the last bit.
    """

    __slots__ = ("folded", "zero", "rank", "perm", "ck", "cand", "sd", "ref", "before")

    def __init__(self, folded, zero, rank, pivots) -> None:
        scored, picks, perm = pivots
        self.folded, self.zero, self.rank, self.perm = folded, zero, rank, perm
        self.ck = np.array([step[pick][1] for step, pick in zip(scored, picks)])
        flat = [scores for step in scored for scores in step]
        self.cand = np.array([coord for coord, _ in flat], dtype=np.intp)
        self.sd = np.array([sd for _, sd in flat])
        # per candidate, the index of its step's pick; and the candidates
        # scored before their step's pick, which must score strictly more
        starts = np.cumsum([0] + [len(step) for step in scored])
        self.ref = np.repeat(starts[:-1] + picks, np.diff(starts))
        self.before = np.flatnonzero(np.arange(starts[-1]) < self.ref)

    def limits(self, lo, hi):
        """``(lo, hi)`` of the factorization at these symmetric limits, or
        None when a fresh one would pick other pivots."""
        mass = ndtr(hi[self.cand] / self.sd) - ndtr(lo[self.cand] / self.sd)
        picked = mass[self.ref]
        if not ((mass >= picked).all() and (mass[self.before] > picked[self.before]).all()):
            return None
        return self.transform(lo, hi)

    def transform(self, lo, hi):
        """``(lo, hi)`` of the factor's rows at the limits of any box."""
        lo, hi = lo[self.perm], hi[self.perm]
        lo[: self.rank] /= self.ck
        hi[: self.rank] /= self.ck
        return lo, hi


class _KeptPlan:
    """The last :class:`_PivotPlan` of one matrix, replaced by every call
    that factors it again."""

    __slots__ = ("plan",)

    def __init__(self) -> None:
        self.plan: _PivotPlan | None = None


@lru_cache(maxsize=1)
def _kept_plan(matrix_bytes: bytes, shape: tuple[int, int]) -> _KeptPlan:
    """The plan slot of a matrix, kept for the last matrix only."""
    return _KeptPlan()


def _first_interval(constraints) -> tuple[float, float]:
    """The interval ``(a, b)`` of variable 0, whose limits are plain numbers.

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
    return a, b


def _first_factor(constraints) -> tuple[float, float]:
    """``(ndtr(a), mass)`` of variable 0 on its interval (a, b)."""
    a, b = _first_interval(constraints)
    ca = ndtr(a)
    return ca, float(min(max(ndtr(b) - ca, 0.0), 1.0))


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


class _PointSet:
    """The shifts of one ``(seed, dimension)`` and the chunks of shifted,
    tent-folded points kept for it.

    ``chunks`` maps a chunk's ``(start, stop)`` to its points, shape
    (dim, _N_SHIFTS * (stop - start)), shift-major; only chunks that end
    by ``_KEPT_POINTS`` are kept.
    """

    __slots__ = ("shifts", "chunks")

    def __init__(self, seed, dim: int) -> None:
        self.shifts = np.random.default_rng(seed).random((_N_SHIFTS, dim))
        self.chunks: dict[tuple[int, int], np.ndarray] = {}


@lru_cache(maxsize=1)
def _point_set(seed: int, dim: int) -> _PointSet:
    """The point set of ``(seed, dim)``, kept for the last key only."""
    return _PointSet(seed, dim)


def _round_sums(steps, rank, gen, start, stop, points: _PointSet, minus=None) -> np.ndarray:
    """Integrand sums over lattice points ``start .. stop - 1``, per shift.

    A chunk's shifted, folded points are read from ``points`` when kept
    there.  Otherwise its unshifted points are built once and shared by the
    shifts, and the result is kept when the chunk ends by ``_KEPT_POINTS``.
    Every shift of the chunk goes to one ``_evaluate`` call, and each
    shift's sum adds its chunk sums in chunk order.  With ``minus``, the
    constraints of another box on the same factorization, the integrand is
    the difference f(steps) - f(minus) at each point.
    """
    sums = np.zeros(_N_SHIFTS)
    for lo in range(start, stop, _CHUNK):
        hi = min(lo + _CHUNK, stop)
        xs = points.chunks.get((lo, hi))
        if xs is None:
            base = _lattice_points(gen, lo, hi)
            xs = base[:, None, :] + points.shifts.T[:, :, None]
            # fractional part, exact (and equal to np.mod) for xs >= 0
            xs -= np.floor(xs)
            xs *= 2.0
            xs -= 1.0
            np.abs(xs, out=xs)
            xs = xs.reshape(gen.shape[0], -1)
            if hi <= _KEPT_POINTS:
                points.chunks[lo, hi] = xs
        values = _evaluate(steps, rank, xs)
        if minus is not None:
            values -= _evaluate(minus, rank, xs)
        sums += values.reshape(_N_SHIFTS, hi - lo).sum(axis=1)
    return sums


def _qmc_estimate(steps, rank, accuracy, seed, max_points, anchor=None):
    """Randomized-lattice estimate: ``(value, err_est, points spent, means)``,
    ``means`` holding each shift's mean, or None without quadrature.

    One block of ``_N_SHIFTS`` random shifts serves the whole call, and
    every call with the same seed and dimension: the shifts, and the folded
    points of the first ``_KEPT_POINTS`` lattice points, of the last such
    key are kept (``_point_set``, a one-entry cache that needs no lock: two
    sets built at once for one key are equal).  The first round has
    ``_FIRST_ROUND`` lattice points, and the lattice is extensible, so the
    points of a round contain those of the round before: each doubling
    evaluates only its new points and adds them to every shift's running
    sum.  The estimate is the mean of the per-shift means over all points
    so far, and the error estimate three standard errors of that mean.

    With an ``anchor`` (:class:`_SolveAnchor`), the rounds integrate the
    difference from the anchor's integrand and add the anchor's per-shift
    means; the call returns None before a round that would bring its
    evaluations, two per point, past the anchor's.
    """
    dim = rank - 1
    if dim == 0:
        # every factor is a constant interval: the value is exact
        return _first_factor(steps[0])[1], 0.0, 1, None
    gen = _lattice_generators(dim)
    points = _point_set(seed, dim)
    totals = np.zeros(_N_SHIFTS)
    done, n = 0, _FIRST_ROUND
    minus, per_point = (None, 1) if anchor is None else (anchor.steps, 2)
    while True:
        spent = per_point * n * _N_SHIFTS
        if anchor is not None and spent > anchor.spent:
            return None
        totals += _round_sums(steps, rank, gen, done, n, points, minus)
        means = totals / n
        if anchor is not None:
            means += anchor.means
        err = 3.0 * max(float(means.std(ddof=1)) / math.sqrt(_N_SHIFTS), 1e-16)
        if err <= accuracy:
            return float(means.mean()), err, spent, means
        if spent >= max_points:
            raise AccuracyError(
                f"accuracy {accuracy:g} not reached after {spent} points "
                f"(error estimate {err:.2e})"
            )
        done, n = n, 2 * n


def _rank2_lines(steps):
    """y0's interval and the lines that bound y1 in a rank-2 integral:
    ``(a0, b0, slope, lower, upper)``.

    Each constraint of ``steps[1]`` bounds y1 by two parallel lines in y0,
    ``slope * y0 + lower`` below and ``slope * y0 + upper`` above; an
    infinite intercept is a side left open.
    """
    a0, b0 = _first_interval(steps[0])
    slope, lower, upper = np.empty((3, len(steps[1])))
    for j, (p, c, lo, hi) in enumerate(steps[1]):
        slope[j] = -p[0] / c
        lower[j] = (lo if c > 0 else hi) / c
        upper[j] = (hi if c > 0 else lo) / c
    return a0, b0, slope, lower, upper


def _rank2_pieces(a0, b0, slope, lower, upper, grid):
    """Gauss-Legendre nodes of a rank-2 integral on (a0, b0):
    ``(half, y, lo_v, hi_v)``.

    The interval is cut where two lines of :func:`_rank2_lines` cross and
    where y0, or a line's y1, passes a point of ``grid``, so each piece is
    analytic.  ``half`` holds the pieces' half-widths and ``y`` their nodes,
    one row per piece and one column per node of ``_GL_NODES``; ``lo_v``
    and ``hi_v`` hold the largest lower line and the smallest upper one at
    each node.
    """
    alpha, beta = np.concatenate((lower, upper)), np.concatenate((slope, slope))
    with np.errstate(divide="ignore", invalid="ignore"):
        cuts = np.concatenate((grid, ((grid[:, None] - alpha) / beta).ravel(),
                               ((alpha - alpha[:, None]) / (beta[:, None] - beta)).ravel()))
    # NaN and infinite cuts, from parallel or infinite lines, fall out here
    cuts = np.concatenate(((a0, b0), cuts[(cuts > a0) & (cuts < b0)]))
    cuts.sort()
    cuts = cuts[np.concatenate(((True,), cuts[1:] != cuts[:-1]))]
    half = 0.5 * np.diff(cuts)
    y = (cuts[:-1] + half)[:, None] + half[:, None] * _GL_NODES
    # the largest lower line and the smallest upper one, a line at a time
    line = slope[0] * y
    lo_v, hi_v = line + lower[0], line + upper[0]
    for j in range(1, slope.size):
        np.multiply(slope[j], y, out=line)
        np.maximum(lo_v, line + lower[j], out=lo_v)
        np.minimum(hi_v, line + upper[j], out=hi_v)
    return half, y, lo_v, hi_v


def _gl_sums(half, f):
    """Both Gauss-Legendre sums of ``f`` at the nodes of
    :func:`_rank2_pieces`, times 1/sqrt(2 pi): the larger rule's sum, and
    its gap to the smaller one's floored at 1e-16.  ``f`` may carry leading
    axes, one sum per entry."""
    sums = half @ f / math.sqrt(2.0 * math.pi)
    n = _GL_SIZES[0]
    value = sums[..., :n] @ _GL_WEIGHTS[:n]
    return value, np.maximum(abs(value - sums[..., n:] @ _GL_WEIGHTS[n:]), 1e-16)


def _rank2_estimate(steps):
    """Gauss-Legendre estimate of a rank-2 integral: ``(value, err_est,
    nodes)``.

    The integrand is phi(y0) [Phi(U(y0)) - Phi(L(y0))]_+ on y0's interval,
    cut to [-_Y_MAX, _Y_MAX], with L the largest lower line of
    :func:`_rank2_lines` and U the smallest upper one.  Its pieces, cut at
    ``_GRID`` (:func:`_rank2_pieces`), get both rules of ``_GL_SIZES``; the
    value is the larger rule's sum and the error its gap to the smaller
    one's.
    """
    a0, b0, slope, lower, upper = _rank2_lines(steps)
    a0, b0 = max(a0, -_Y_MAX), min(b0, _Y_MAX)
    if not a0 < b0:
        return 0.0, 1e-16, 0
    half, y, lo_v, hi_v = _rank2_pieces(a0, b0, slope, lower, upper, _GRID)
    mass = ndtr(hi_v, out=hi_v)
    mass -= ndtr(lo_v, out=lo_v)
    f = np.exp(-0.5 * y * y)
    f *= np.maximum(mass, 0.0, out=mass)
    value, err = _gl_sums(half, f)
    return float(value), float(err), y.size


def _scaled_grid(c_lo: float, c_hi: float) -> np.ndarray:
    """Cuts in t = y0 / c that serve every c in [c_lo, c_hi] as ``_GRID``
    serves one c.

    ``_GRID / c_hi`` up to |t| = _Y_MAX / c_hi, then points |t| growing by
    a factor 1 + 3 / _Y_MAX each, until past _Y_MAX / c_lo.  A piece
    [t, t (1 + 3 / _Y_MAX)] spans 3 c |t| / _Y_MAX in y0, at most 3 for
    every c that brings its near end inside |y0| <= _Y_MAX; at a larger c
    it lies wholly outside.  On one c the grid is ``_GRID / c``.
    """
    step = _GRID[1] - _GRID[0]
    n = math.ceil(math.log(c_hi / c_lo) / math.log1p(step / _Y_MAX))
    outer = _Y_MAX / c_hi * (1.0 + step / _Y_MAX) ** np.arange(1, n + 1)
    return np.concatenate((-outer[::-1], _GRID / c_hi, outer))


class _ScaledRank2:
    """P(c) and dP/dc on the boxes c * (lo, hi) of one rank-2 factorization,
    for c in [c_lo, c_hi], on one partition.

    ``steps`` are the factorization's constraints at c = 1.  Every limit
    scales with c, so with y0 = c t each line of :func:`_rank2_lines` is
    c times a line in t, and every kink of the integrand sits at a fixed t:

        P(c) = int c phi(c t) [Phi(c U(t)) - Phi(c L(t))]_+ dt,

    with U and L the lines at c = 1.  t is cut to |t| <= _Y_MAX / c_lo, so
    that |y0| <= _Y_MAX is covered for every c >= c_lo, and, where t or a
    line's value passes a point of the grid of :func:`_scaled_grid`, so
    that for every c in the range each piece inside |y0| <= _Y_MAX spans at
    most 3 in y0, and no line moves on it by more than 3 inside
    |y1| <= _Y_MAX, as in :func:`_rank2_estimate`.  The pieces, nodes and
    lines are built once; a call evaluates them at a vector of c, which
    must be positive.  The derivative in c is exact on the same nodes, the
    kinks being fixed:

        dP/dc = int phi(c t) [(1 - c^2 t^2) M + c (phi(c U) U - phi(c L) L)] dt,

    with M the bracket above and the phi terms only where U > L.
    """

    __slots__ = ("half", "t", "lo", "hi", "lo_term", "hi_term")

    def __init__(self, steps, c_lo: float, c_hi: float) -> None:
        a0, b0, slope, lower, upper = _rank2_lines(steps)
        reach = _Y_MAX / c_lo
        self.half, self.t, self.lo, self.hi = _rank2_pieces(
            max(a0, -reach), min(b0, reach), slope, lower, upper, _scaled_grid(c_lo, c_hi))
        # the lines where they bound a nonempty interval and are finite:
        # elsewhere their density term is zero
        live = self.hi > self.lo
        self.lo_term = np.where(live & np.isfinite(self.lo), self.lo, 0.0)
        self.hi_term = np.where(live & np.isfinite(self.hi), self.hi, 0.0)

    def __call__(self, c):
        """``(P, dP/dc, err)`` at each of the positive ``c``, with ``err``
        the gap between the two rules' P."""
        c = np.asarray(c, dtype=float)[:, None, None]
        y = c * self.t
        lo, hi = c * self.lo, c * self.hi
        phi = np.exp(-0.5 * y * y)
        mass = np.maximum(ndtr(hi) - ndtr(lo), 0.0)
        lines = (np.exp(-0.5 * hi * hi) * self.hi_term
                 - np.exp(-0.5 * lo * lo) * self.lo_term)
        # P's integrand and its c-derivative, summed by one call
        f = phi * np.stack((c * mass, (1.0 - y * y) * mass
                            + c / math.sqrt(2.0 * math.pi) * lines))
        (value, slope), (err, _) = _gl_sums(self.half, f)
        return value, slope, err


def _max_partition(model: CorrelationModel, central: bool, c_lo: float,
                   c_hi: float) -> "_ScaledRank2 | _PivotPlan":
    """The event that the maximum statistic of ``model`` stays below c, for
    c in [c_lo, c_hi], from the matrix factored once, on the box of c = 1:
    :class:`_ScaledRank2` when its rank is 2, else the factorization's
    :class:`_PivotPlan`."""
    unit = _max_rect(1.0, model.dim, central)
    cho, lo, hi, rank, pivots = _ordered_cholesky(model.matrix, unit.lower, unit.upper)
    folded, zero = _integration_plan(cho, rank)
    if rank != 2:
        return _PivotPlan(folded, zero, rank, pivots)
    return _ScaledRank2(_constraints(folded, zero, lo, hi), c_lo, c_hi)


def _check_rule_error(err: float, accuracy: float) -> None:
    """Raise :class:`AccuracyError` when a Gauss-Legendre error estimate
    misses ``accuracy``."""
    if err > accuracy:
        raise AccuracyError(f"accuracy {accuracy:g} not reached by the "
                            f"Gauss-Legendre rules (error estimate {err:.2e})")


def _check_accuracy(accuracy: float) -> None:
    # a target of zero, below zero or NaN is never met: the loop would spend
    # the whole point budget before failing
    if not (math.isfinite(accuracy) and accuracy > 0.0):
        raise ValueError(f"accuracy must be finite and positive, got {accuracy!r}")


def _bounded(lo, hi) -> np.ndarray:
    """The coordinates with a finite limit: the others are dropped."""
    return np.flatnonzero((lo > -np.inf) | (hi < np.inf))


def mvn_rect(
    mean,
    corr,
    rect: Rectangle,
    accuracy: float = DEFAULT_ACCURACY,
    seed: int = 0,
    max_points: int = DEFAULT_MAX_POINTS,
    *,
    _anchor: "_SolveAnchor | None" = None,
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
        Integration region; infinite limits allowed.  A coordinate
        unbounded on both sides contributes its marginal, which is 1, so it
        is dropped, with its row and column, before the factorization: the
        result is that of the rectangle without it, and a rectangle
        unbounded everywhere has probability exactly 1.
    accuracy : float
        Absolute error target for the estimate; finite and positive.
    seed : int
        Seed for the randomized lattice shifts, a nonnegative whole number,
        checked whether or not the lattice runs.  Fixed seed gives
        bit-identical results.
    max_points : int
        Budget of lattice evaluations: :class:`AccuracyError` follows the
        first round that brings them to ``max_points`` or beyond without
        meeting ``accuracy``.  A rank-2 rectangle spends a fixed number
        of nodes, and fails at once when its error estimate misses
        ``accuracy``.

    Returns
    -------
    ProbResult
        ``value`` in [0, 1].  On the lattice, ``err_est`` is three standard
        errors of the mean over the twelve randomized shifts, each shift's
        mean taken over every lattice point evaluated, and ``n_points``
        twelve times the lattice points of the last round (64, doubled
        zero or more times).  On a rank-2 rectangle (see the module text),
        ``err_est`` is the gap between the 24- and 12-node Gauss-Legendre
        sums, at least 1e-16, and ``n_points`` the 36 nodes of each piece,
        or 0 when y0's interval misses [-9, 9].  Without quadrature,
        ``n_points`` is 0 or 1.
    """
    _check_accuracy(accuracy)
    seed = _whole(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    model = corr if isinstance(corr, CorrelationModel) else CorrelationModel(corr)
    dim = model.dim
    if rect.dim != dim:
        raise ValueError(f"rectangle dimension {rect.dim} does not match matrix {dim}")
    if isinstance(mean, (int, float)):
        mu = float(mean)
        finite = math.isfinite(mu)
    else:
        mu = np.broadcast_to(np.asarray(mean, dtype=float), (dim,))
        finite = np.isfinite(mu).all()
    if not finite:
        raise ValueError("mean must be finite")
    lo = rect.lower - mu
    hi = rect.upper - mu
    # a coordinate unbounded on both sides contributes its marginal, 1
    keep = _bounded(lo, hi)
    lo, hi = lo[keep], hi[keep]
    if keep.size == 0:
        return ProbResult(1.0, 0.0, 0)
    if keep.size == 1:
        value = float(min(max(ndtr(hi[0]) - ndtr(lo[0]), 0.0), 1.0))
        return ProbResult(value, 1e-15, 0)
    matrix = model.matrix if keep.size == dim else model.matrix[np.ix_(keep, keep)]
    # a symmetric box, finite after the drop, may reuse the matrix's last
    # plan (see the module text)
    kept = _kept_plan(matrix.tobytes(), matrix.shape) if (lo == -hi).all() else None
    plan = kept.plan if kept is not None else None
    limits = plan.limits(lo, hi) if plan is not None else None
    if limits is None:
        cho, tlo, thi, rank, pivots = _ordered_cholesky(matrix, lo, hi)
        folded, zero = _integration_plan(cho, rank)
        if kept is not None or (_anchor is not None and rank > 2):
            plan = _PivotPlan(folded, zero, rank, pivots)
        if kept is not None:
            kept.plan = plan
    else:
        tlo, thi = limits
        folded, zero, rank = plan.folded, plan.zero, plan.rank
    try:
        steps = _constraints(folded, zero, tlo, thi)
    except _ZeroProbability:
        return ProbResult(0.0, 0.0, 0)
    if rank == 2:
        value, err, spent = _rank2_estimate(steps)
        _check_rule_error(err, accuracy)
    else:
        value, err, spent, means = _qmc_estimate(steps, rank, accuracy, seed, max_points)
        # the first full-accuracy call of a root solve becomes its anchor
        if _anchor is not None and means is not None:
            _anchor.plan, _anchor.keep, _anchor.steps, _anchor.means, _anchor.spent = (
                plan, keep, steps, means, spent)
    return ProbResult(float(min(max(value, 0.0), 1.0)), err, spent)


class _SolveAnchor:
    """The probabilities of one root solve's boxes on one matrix, at mean
    zero: the difference evaluation of the module text.

    ``anchor(rect, accuracy)`` is a :class:`ProbResult`.  Calls at another
    accuracy than ``accuracy``, and the first at it, are ``fresh`` calls:
    :func:`mvn_rect` as the caller's module names it.  The first hands
    ``fresh`` the anchor, which records, on the lattice, its plan, kept
    coordinates, constraints and per-shift means.  Each later call at
    ``accuracy`` integrates the difference, or falls back to ``fresh``.
    """

    __slots__ = ("model", "seed", "accuracy", "fresh", "plan", "keep", "steps", "means",
                 "spent")

    def __init__(self, model: CorrelationModel, seed: int, accuracy: float, fresh) -> None:
        self.model, self.seed, self.accuracy, self.fresh = model, seed, accuracy, fresh
        self.plan = self.keep = self.steps = self.means = None
        self.spent = 0

    def __call__(self, rect: Rectangle, accuracy: float) -> ProbResult:
        full = accuracy == self.accuracy
        if full and self.steps is not None:
            found = self._difference(rect)
            if found is not None:
                return found
        first = full and self.steps is None
        return self.fresh(0.0, self.model, rect, accuracy=accuracy, seed=self.seed,
                          _anchor=self if first else None)

    def _difference(self, rect: Rectangle) -> ProbResult | None:
        """P(rect) at full accuracy as the anchor's estimate plus the
        difference, or None for a fresh call."""
        if 2 * _FIRST_ROUND * _N_SHIFTS > self.spent:
            return None
        keep = _bounded(rect.lower, rect.upper)
        if not np.array_equal(keep, self.keep):
            return None
        plan = self.plan
        steps = _constraints(plan.folded, plan.zero,
                             *plan.transform(rect.lower[keep], rect.upper[keep]))
        found = _qmc_estimate(steps, plan.rank, self.accuracy, self.seed, math.inf, self)
        if found is None:
            return None
        value, err, spent, _ = found
        return ProbResult(float(min(max(value, 0.0), 1.0)), err, spent)


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

    One coordinate has a closed form.  A matrix of rank 2 (every K=3
    class, every class of two comparisons) is solved by
    :func:`_equicoord_root`: the matrix is factored once, and Newton on the
    exact P(c) and its exact slope, on one scaled Gauss-Legendre partition,
    runs from the Bonferroni point inside the bracket that one coordinate's
    quantile and Bonferroni's make, with Illinois on the same P as its
    fallback; no seed enters.  That bracket must lie in (0, 8].

    Otherwise :func:`_two_phase_root` finds the root of the tail 1 - P at
    1 - prob, searching those two quantiles widened by 0.05 on each side,
    then [0, 8] (``"central"``) or [-8, 8] (``"upper"``): regula falsi on
    the normal score of cheap low-accuracy tails locates it, then usually
    two full-accuracy evaluations polish it, the first integrating its box
    in full and the second only the difference (:class:`_SolveAnchor`).
    Every evaluation reuses the seed, so the result is deterministic.

    Parameters
    ----------
    corr : CorrelationModel or array_like
    prob : float
        Target probability in (0, 1).
    seed : int
    tol : float
        Tolerance on the quantile; finite and positive.  The secant result
        is accepted after a step of at most tol/2; the bracketed fallback
        returns a point within tol of a sign change of the full-accuracy
        objective.  The result can also be off by about ``accuracy`` over
        the density of the maximum statistic.  A rank-2 Newton solve stops
        after a step of at most min(tol, 1e-8), within about 1e-15 of the
        exact root; its fallback, within tol of it.
    accuracy : float
        Accuracy of the inner rectangle probabilities; at rank 2, the most
        the gap between the two Gauss-Legendre rules may reach.
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
    _check_tol(tol)
    model = corr if isinstance(corr, CorrelationModel) else CorrelationModel(corr)
    dim = model.dim
    central = tail == "central"
    root, ranges = _equicoord_root(model, prob, central, tol, accuracy)
    if root is not None:
        return root
    anchor = _SolveAnchor(model, seed, accuracy, mvn_rect)

    def tail(c: float, acc: float) -> float:
        return 1.0 - anchor(_max_rect(c, dim, central), acc).value

    return _first_bracket(
        lambda lo, hi: _two_phase_root(tail, 1.0 - prob, lo, hi, tol, accuracy), ranges)


def _equicoord_root(model: CorrelationModel, prob: float, central: bool, tol: float,
                    accuracy: float):
    """The equicoordinate quantile of ``model`` at ``prob`` when its rank is
    at most 2, or the ranges the caller's general solve should search.

    Returns ``(root, ranges)``: the root, or None and the ranges to try in
    turn, each ``(lo, hi)``, the last being ``_max_range``.  The root is
    bracketed by one coordinate's quantile, where P(c) is at most ``prob``,
    and by Bonferroni's, Phi^{-1}(1 - alpha / (2 m)) or
    Phi^{-1}(1 - alpha / m) with alpha = 1 - prob, where P(c) is at least
    ``prob``.  The matrix is factored once, on the box at c = 1.

    One coordinate has the normal quantile in closed form.  At rank 2,
    :class:`_ScaledRank2` evaluates P and its exact slope on one partition
    for the whole bracket.  Newton runs from the Bonferroni point; it keeps
    the bracket of the signs seen, and once a step is at most
    ``_NEWTON_XTOL`` (or ``tol``) the next iterate is the root.  An iterate
    outside the bracket, a slope that is not positive or
    ``_NEWTON_STEPS`` steps without settling hand the bracket to
    :func:`_illinois` on the same P, which returns a point within ``tol``
    of its sign change.  Every evaluation raises :class:`AccuracyError`
    when the gap between its two rules exceeds ``accuracy``.

    At rank 3 and more the general solve searches the bracket widened by
    ``_BRACKET_PAD`` first, and on a cube the factorization becomes the
    matrix's kept plan.  Otherwise (the bracket outside (0, 8], rank 1, or
    an exact P that contradicts a bound in rounding) it searches
    ``_max_range`` alone.
    """
    dim = model.dim
    full = (_max_range(central),)
    if dim == 1:
        return float(ndtri(0.5 * (1.0 + prob)) if central else ndtri(prob)), full
    tails = (0.5 if central else 1.0) * (1.0 - prob)
    c_lo, c_hi = float(-ndtri(tails)), float(-ndtri(tails / dim))
    if not 0.0 < c_lo < c_hi <= full[0][1]:
        return None, full
    gauss = _max_partition(model, central, c_lo, c_hi)
    if isinstance(gauss, _PivotPlan):
        if gauss.rank < 3:
            return None, full
        if central:
            _kept_plan(model.matrix.tobytes(), model.matrix.shape).plan = gauss
        return None, _padded(c_lo, c_hi, central)

    def excess(c):
        """P - prob and dP/dc at each of ``c``."""
        value, slope, err = gauss(c)
        _check_rule_error(float(err.max()), accuracy)
        return value - prob, slope

    (fa, fb), (_, dx) = excess([c_lo, c_hi])
    if fa > 0.0 or fb < 0.0:
        return None, full
    a, b, x, fx = c_lo, c_hi, c_hi, fb
    for _ in range(_NEWTON_STEPS):
        # a slope that is not positive gives NaN, outside every bracket, and
        # an exact zero at x a step of 0, to x itself on the bracket's end
        step = float(fx / dx) if dx > 0.0 else math.nan
        if not a < x - step < b:
            break
        x -= step
        if abs(step) <= min(_NEWTON_XTOL, tol):
            return x, full
        (fx,), (dx,) = excess([x])
        if fx < 0.0:
            a, fa = x, fx
        else:
            b, fb = x, fx
    return float(_illinois(lambda c: float(excess([c])[0][0]), a, fa, b, fb, tol)[0]), full


def _padded(c_lo: float, c_hi: float, central: bool) -> tuple:
    """The ranges a general root solve tries in turn: [c_lo, c_hi] widened by
    ``_BRACKET_PAD`` and clipped to ``_max_range``, then ``_max_range``."""
    lo, hi = full = _max_range(central)
    return (max(c_lo - _BRACKET_PAD, lo), min(c_hi + _BRACKET_PAD, hi)), full


def _first_bracket(solve, ranges) -> float:
    """``solve(lo, hi)`` on the first of ``ranges`` that brackets the root:
    a :class:`SolverError` moves on to the next range, except on the last."""
    *tight, last = ranges
    for lo, hi in tight:
        try:
            return solve(lo, hi)
        except SolverError:
            pass
    return solve(*last)


def _coarse_accuracy(accuracy: float, level: float) -> float:
    """Accuracy of the coarse phase of a root solve whose target tail
    probability is ``level``: a twentieth of the level, where a level below
    1e-3 counts as 1e-3, capped at 5e-4 and never finer than ``accuracy``."""
    return max(accuracy, min(5e-4, 0.05 * max(level, 1e-3)))


def _check_tol(tol: float) -> None:
    # a zero, negative or NaN tolerance is never met, and an infinite one
    # would accept the first coarse guess
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")


def _two_phase_root(tail, level, lo, hi, tol, accuracy) -> float:
    """Root of a decreasing tail probability ``tail(c, accuracy)`` at
    ``level``, searched on [lo, hi].

    Serves the equicoordinate quantiles of rank 3 and more, and the
    group-sequential boundary solves except the first stage of a class of
    rank at most 2 (:func:`_equicoord_root` solves those); a later stage's
    limits at the earlier analyses stay fixed, so its probability does not
    scale with c.

    * Coarse phase: at :func:`_coarse_accuracy` of ``level``, Illinois
      solves s(c) = -Phi^{-1}(tail) = -Phi^{-1}(level), the tail clamped to
      [_U_LO, _U_HI], to a bracket of width at most ``_COARSE_XTOL``.  s is
      nearly linear in c (for one coordinate it is c).  The raw tails at
      the bracket's ends give the slope; at full accuracy the same search,
      to ``tol``, is the result.
    * Fine phase, on g(c) = level - tail(c, accuracy): a full-accuracy
      evaluation at c0 gives a Newton step to c1, a second at c1 a secant
      step to c2, accepted when the step is at most tol/2 and c2 lies
      inside the bracket known at full accuracy; otherwise more secant
      steps follow, up to ``_SECANT_STEPS``.  The callers' tails evaluate
      through a :class:`_SolveAnchor`.
    * Fallback: when an iterate leaves the bracket, the slope has the wrong
      sign or the steps run out, Illinois on g shrinks the bracket known at
      full accuracy to a width of at most ``tol``.

    Raises :class:`SolverError` when the coarse tail does not cross
    ``level`` on [lo, hi].
    """
    _check_tol(tol)
    coarse = _coarse_accuracy(accuracy, level)
    target = float(ndtri(level))
    raw = {}

    def score(c: float) -> float:
        t = raw[c] = tail(c, coarse)
        return target - float(ndtri(min(max(t, _U_LO), _U_HI)))

    s_lo, s_hi = score(lo), score(hi)
    if s_lo > 0.0 or s_hi < 0.0:
        raise SolverError(f"failed to bracket the root in [{lo}, {hi}]")
    if coarse <= accuracy:
        return _illinois(score, lo, s_lo, hi, s_hi, tol)[0]
    c0, left, right = _illinois(score, lo, s_lo, hi, s_hi, _COARSE_XTOL)
    slope = (raw[left] - raw[right]) / (right - left)

    # [a, b] is the bracket known at full accuracy; ga or gb stays None
    # while that end's value is known only coarsely
    a, ga, b, gb = lo, None, hi, None

    def full_g(c: float) -> float:
        return level - tail(c, accuracy)

    def g_full(c: float) -> float:
        nonlocal a, ga, b, gb
        value = full_g(c)
        if value < 0.0:
            a, ga = c, value
        elif value > 0.0:
            b, gb = c, value
        return value

    x0, g0 = c0, g_full(c0)
    if g0 == 0.0:
        return x0
    # a slope of the wrong sign leaves x1 as NaN, outside every bracket
    x1 = x0 - g0 / slope if slope > 0.0 else math.nan
    for _ in range(_SECANT_STEPS):
        if not a < x1 < b:
            break
        g1 = g_full(x1)
        if g1 == 0.0:
            return x1
        if g1 == g0:
            break
        x2 = x1 - g1 * (x1 - x0) / (g1 - g0)
        if a < x2 < b and abs(x2 - x1) <= 0.5 * tol:
            return x2
        x0, g0, x1 = x1, g1, x2
    ga = full_g(a) if ga is None else ga
    gb = full_g(b) if gb is None else gb
    return _illinois(full_g, a, ga, b, gb, tol)[0]


def _illinois(f, a, fa, b, fb, xtol) -> tuple[float, float, float]:
    """Illinois regula falsi (Dowell & Jarratt 1971) for an increasing ``f``.

    ``fa = f(a) <= 0 <= fb = f(b)`` with ``a < b``.  Each step samples the
    secant point of the bracket and keeps the part with the sign change; an
    end kept twice in a row has its weight halved, so both ends converge.
    A bracket that has not halved over two steps is bisected instead.
    Returns the secant point of the final bracket, whose width is at most
    ``xtol``, and that bracket's ends.
    """
    wa, wb, kept = fa, fb, 0
    widths = (math.inf, math.inf)  # bracket widths one and two steps back
    while b - a > xtol:
        width = b - a
        if width > 0.5 * widths[1]:
            c = 0.5 * (a + b)
        else:
            # sample no closer than xtol/2 to either end: once the root is
            # pinned near one end, the next sample closes the bracket
            c = b - wb * width / (wb - wa)
            c = min(max(c, a + 0.5 * xtol), b - 0.5 * xtol)
        widths = (width, widths[0])
        fc = f(c)
        if fc == 0.0:
            return c, a, b
        if fc < 0.0:
            if kept == 1:
                wb *= 0.5
            a, fa, wa, kept = c, fc, fc, 1
        else:
            if kept == -1:
                wa *= 0.5
            b, fb, wb, kept = c, fc, fc, -1
    return (b - fb * (b - a) / (fb - fa) if fb > fa else 0.5 * (a + b)), a, b
