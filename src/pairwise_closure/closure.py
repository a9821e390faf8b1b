"""Closed testing over all pairwise comparisons, with comparator procedures.

The closed procedure tests every nonempty subset of elementary hypotheses
with an equicoordinate max-|z| test whose critical value is calibrated to the
subset's own correlation matrix, and rejects an elementary hypothesis exactly
when every intersection containing it is rejected.  Because the critical
values are strictly monotone in subset inclusion (consonance), the full
lattice walk collapses to a step-down rule over the ordered statistics; both
forms are implemented and agree.

This module also owns the intersection lattice that the group-sequential
(``sequential``) and combination (``combination``) tests reuse: the one
guarded subset enumeration, the one closure rule over it, and the one
per-class cache behind every table of per-subset values.  Each of those
procedures supplies only its local test.  The closure rule tests the full
set on every row, then walks the rest of the lattice downwards on the rows
it rejected alone, and runs a subset's local test only on the rows where
one of its members can still be rejected; a row whose full set is accepted
costs one local test.  The single-trial tests report every
subset's local decision in one lazy map, filled in lattice order on its
first lookup, which the lattice method hands the rule.

Subsets whose correlation matrices coincide up to relabelling share one
critical value.  Equivalence is decided by canonicalizing the subset's
comparison graph (arms as vertices weighted by sigma^2/n, comparisons as
edges), which keeps the number of quantile solves far below the 2^m - 1
subset count.  The canonical form is the lexicographically smallest
relabelled graph; every relabelling of the subset's arms is scored in one
array pass over a cached table of all of them.
"""

from __future__ import annotations

import functools
import itertools
import zlib
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import ndtri

from .model import (
    ONE_SIDED,
    TWO_SIDED,
    ComparisonStats,
    CorrelationModel,
    TrialConfig,
    _check_alpha,
    _max_statistic,
    _normal_tails,
    _pair_arms,
    _pair_correlation,
    _whole,
    correlation,  # noqa: F401  perfbench/spans.py wraps closure.correlation
)
from .mvn import (
    DEFAULT_ACCURACY,
    DEFAULT_QUANTILE_TOL,
    _check_tol,
    _quantile_tail,
    equicoord_quantile,
)

__all__ = [
    "CriticalValueTable",
    "ClosureDecision",
    "critical_values",
    "closed_test",
    "one_sided_closed_test",
    "batch_closed_test",
    "bonferroni_test",
    "bonferroni_cut",
    "gatekeeping_test",
    "tukey_global_test",
    "unadjusted_test",
]

# Full-lattice enumeration is reserved for family sizes where 2^m stays small.
_LATTICE_LIMIT = 12
# Class keys score every relabelling of a subset's arms in one array: 40,320
# rows for eight arms, but 362,880 rows of up to 36 edge codes for nine.
_KEY_ARM_LIMIT = 8
# The step-down encodes tail sets as int64 bitmasks, one bit per comparison.
_MASK_LIMIT = 62
# Rows per step-down block; bounds the kernel's scratch arrays.
_BLOCK_ROWS = 32_768


def _check_subset(m: int, members: Iterable[int]) -> frozenset:
    """A nonempty subset of the comparison indices 1..m, each a whole
    number read through ``_whole``."""
    subset = frozenset(_whole(k, "a comparison index") for k in members)
    if not subset:
        raise ValueError("a comparison set must not be empty")
    if min(subset) < 1 or max(subset) > m:
        raise ValueError(f"comparison indices must lie in 1..{m}")
    return subset


@functools.lru_cache(maxsize=None)
def _relabellings(n: int, directed: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every relabelling of ``n`` arms, one per row, as three read-only tables.

    ``labels[r, a]`` is the new label of arm a, ``codes[r, a * n + b]`` the
    code ``a' * n + b'`` of edge (a, b) relabelled to (a', b') (with a' < b'
    unless ``directed``), and ``arm_at[r, l]`` the arm given label l.  Codes
    order like the edge tuples they stand for, because every label is below n.
    """
    labels = np.array(list(itertools.permutations(range(n))), dtype=np.int8)
    a, b = labels[:, :, None], labels[:, None, :]
    if not directed:
        a, b = np.minimum(a, b), np.maximum(a, b)
    codes = (a * n + b).reshape(len(labels), n * n)
    arm_at = np.argsort(labels, axis=1).astype(np.int8)
    labels.flags.writeable = codes.flags.writeable = arm_at.flags.writeable = False
    return labels, codes, arm_at


def _class_key(config: TrialConfig, members: tuple[int, ...]):
    """Canonical form of the subset's vertex-weighted comparison graph.

    Two subsets share a key exactly when some relabelling of arms carries one
    onto the other while preserving sigma_a^2 / n_a, which makes their
    correlation matrices permutation-identical.  The key is the smallest
    ``(edges, weights)`` over every relabelling: the sorted relabelled edges,
    then the vertex weights in label order.  All relabellings are scored at
    once, each as a row of sorted edge codes followed by its weights, and the
    key is built from the row that sorts first; tied rows give the same key.
    A subset spanning more than eight arms raises ``ValueError``.
    """
    ii, jj = _pair_arms(config.n_arms, config.sided)
    cols = [k - 1 for k in members]
    pairs = list(zip(ii[cols].tolist(), jj[cols].tolist()))
    arms = sorted({a for pair in pairs for a in pair})
    if (n := len(arms)) > _KEY_ARM_LIMIT:
        raise ValueError(f"subsets spanning {n} arms are not supported "
                         f"(at most {_KEY_ARM_LIMIT}): keying tries every relabelling")
    v = config.arm_variances(1)[arms]
    weights = np.round(v / v.max(), 12)
    index = {arm: idx for idx, arm in enumerate(arms)}
    directed = config.sided == ONE_SIDED
    labels, codes, arm_at = _relabellings(n, directed)
    edge_codes = np.sort(codes[:, [index[i] * n + index[j] for i, j in pairs]], axis=1)
    best = np.lexsort((*weights[arm_at].T[::-1], *edge_codes.T[::-1]))[0]
    relabel = dict(zip(arms, labels[best].tolist()))
    if directed:
        edges = sorted((relabel[i], relabel[j]) for i, j in pairs)
    else:
        edges = sorted(tuple(sorted((relabel[i], relabel[j]))) for i, j in pairs)
    w = tuple(weights[index[arm]] for arm in sorted(arms, key=lambda a: relabel[a]))
    return (config.sided, (tuple(edges), w))


def _key_correlation(key) -> CorrelationModel:
    """Correlation matrix of a class, built from its canonical form alone.

    The canonical graph has one arm per vertex, whose variance is the vertex
    weight, and one comparison per edge in canonical order.  Every member of
    the class therefore hands the quadrature the same matrix, so a cached
    class value does not depend on which member was looked up first.
    """
    _, (edges, weights) = key
    ii, jj = np.array(edges).T
    return CorrelationModel(_pair_correlation(np.asarray(weights, dtype=float), ii, jj))


def _derived_seed(seed: int, key) -> int:
    """Stable per-class seed so table values do not depend on solve order."""
    digest = zlib.crc32(repr(key).encode())
    return (seed * 1_000_003 + digest) % (1 << 63)


def _all_subsets(m: int) -> list[frozenset]:
    """Every nonempty subset of 1..m, by size and then lexicographically.

    The one enumeration of the intersection lattice; it refuses families
    beyond the lattice limit rather than build 2^m - 1 subsets.
    """
    if m > _LATTICE_LIMIT:
        raise ValueError(
            f"full enumeration of 2^{m} - 1 subsets is not supported "
            f"(at most {_LATTICE_LIMIT} comparisons); look values up per subset"
        )
    return [
        frozenset(combo)
        for size in range(1, m + 1)
        for combo in itertools.combinations(range(1, m + 1), size)
    ]


@dataclass
class _ClassCache:
    """Per-subset values, solved once per correlation-equivalence class.

    A subclass supplies ``_solve(key)``, the value of one class from its
    canonical key, and may override ``_served(subset)``, the subset whose
    value a lookup returns.  ``value`` validates a subset, memoizes its
    class key and solves each class once, in the calling process;
    ``entries`` materializes every subset of the lattice; ``_mask_value``
    serves the step-down, which names subsets by bitmask.  The caches
    belong to one object and are not arguments of ``__init__``, so a copy
    made with ``dataclasses.replace`` always starts with empty caches.
    """

    config: TrialConfig
    _class_values: dict = field(default_factory=dict, init=False, repr=False)
    _subset_keys: dict = field(default_factory=dict, init=False, repr=False)
    _mask_values: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def n_comparisons(self) -> int:
        return self.config.n_comparisons

    def full_set(self) -> frozenset:
        return frozenset(range(1, self.n_comparisons + 1))

    def _key(self, members: frozenset):
        key = self._subset_keys.get(members)
        if key is None:
            key = _class_key(self.config, tuple(sorted(members)))
            self._subset_keys[members] = key
        return key

    def _solve(self, key):
        raise NotImplementedError

    def _served(self, subset: frozenset) -> frozenset:
        return subset

    def _serving(self, config: TrialConfig, **inputs):
        """This table, after checking that it was built for ``config`` and
        that each field named in ``inputs`` holds the value given there; the
        one check of a table handed to a test or a power calculation."""
        if self.config != config or any(getattr(self, k) != v for k, v in inputs.items()):
            raise ValueError("table was built for a different "
                             + " or ".join(["config", *inputs]))
        return self

    def value(self, members: Iterable[int]):
        """Value for one subset of comparison indices."""
        key = self._key(self._served(_check_subset(self.n_comparisons, members)))
        if key not in self._class_values:
            self._class_values[key] = self._solve(key)
        return self._class_values[key]

    def _mask_value(self, mask: int):
        """``value`` of the subset whose comparison k is bit k - 1 of
        ``mask``, memoized by mask for every later call on this table."""
        value = self._mask_values.get(mask)
        if value is None:
            members = [k + 1 for k in range(self.n_comparisons) if mask >> k & 1]
            value = self._mask_values[mask] = self.value(members)
        return value

    def entries(self) -> dict:
        """Every subset's value, by size and then lexicographically; guarded
        by the lattice limit."""
        return {s: self.value(s) for s in _all_subsets(self.n_comparisons)}


@dataclass
class CriticalValueTable(_ClassCache):
    """Per-subset critical values for one configuration and level.

    Values are computed lazily and cached by correlation-equivalence class,
    so looking up all 2^m - 1 subsets costs only one quantile solve per
    class.  A class is solved from its canonical form and a seed derived
    from it, so a subset's value depends only on (config, alpha, seed,
    accuracy, tol), never on which subsets were looked up before it or in
    what order.
    """

    alpha: float
    seed: int = 0
    accuracy: float = DEFAULT_ACCURACY
    tol: float = DEFAULT_QUANTILE_TOL

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)
        _check_tol(self.tol)

    @property
    def tail(self) -> str:
        return _quantile_tail(self.config.central)

    def _solve(self, key) -> float:
        return equicoord_quantile(
            _key_correlation(key), 1.0 - self.alpha, seed=_derived_seed(self.seed, key),
            tol=self.tol, accuracy=self.accuracy, tail=self.tail,
        )

    def classes(self) -> list[dict]:
        """Summaries of the distinct correlation-equivalence classes.

        Entries come by size and then lexicographically, so the first
        subset seen of each class is its smallest, and classes come in the
        order of those representatives.
        """
        entries = self.entries()
        by_key: dict = {}
        for subset, value in entries.items():
            key = self._key(subset)
            info = by_key.setdefault(
                key,
                {
                    "representative": tuple(sorted(subset)),
                    "size": len(subset),
                    "critical_value": value,
                    "n_subsets": 0,
                },
            )
            info["n_subsets"] += 1
        out = list(by_key.values())
        for idx, info in enumerate(out, start=1):
            info["class_id"] = idx
        return out


def critical_values(
    config: TrialConfig,
    alpha: float,
    seed: int = 0,
    accuracy: float = DEFAULT_ACCURACY,
    tol: float = DEFAULT_QUANTILE_TOL,
) -> CriticalValueTable:
    """Critical-value table for every subset of pairwise comparisons."""
    return CriticalValueTable(config, alpha, seed, accuracy, tol)


class _LocalDecisions(Mapping):
    """Read-only map from every intersection subset to its local decision.

    Filled on first access, in the order of :func:`_all_subsets`, by calling
    ``test(subset)``; a decision whose ``local`` is never read costs no
    enumeration.
    """

    def __init__(self, m: int, test: Callable[[frozenset], bool]) -> None:
        self._m = m
        self._test = test
        self._filled: dict | None = None

    def _decisions(self) -> dict:
        if self._filled is None:
            self._filled = {s: bool(self._test(s)) for s in _all_subsets(self._m)}
        return self._filled

    def __getitem__(self, subset) -> bool:
        return self._decisions()[subset]

    def __iter__(self):
        return iter(self._decisions())

    def __len__(self) -> int:
        return len(self._decisions())

    def __repr__(self) -> str:
        if self._filled is None:
            return f"<local decisions for 2^{self._m} - 1 subsets, not yet filled>"
        return repr(self._filled)


def _lazy_local(m: int, test: Callable[[frozenset], bool]) -> _LocalDecisions | None:
    """Local decisions of every intersection, or None beyond the lattice limit."""
    return _LocalDecisions(m, test) if m <= _LATTICE_LIMIT else None


@dataclass
class ClosureDecision:
    """Outcome of a multiple-testing procedure on one data set.

    ``rejected[k-1]`` is the global decision for comparison k.  ``local``
    maps each evaluated intersection subset to its local test decision; for
    the single-stage procedures it is a read-only mapping over all 2^m - 1
    subsets that is filled on first access (None when m exceeds the lattice
    limit of 12), so a decision that is never asked for it solves nothing
    extra.  For staged procedures ``stopped_stage[k-1]`` is the analysis at
    which the global rejection of k was reached (None if never).
    """

    procedure: str
    alpha: float
    rejected: tuple[bool, ...]
    local: Mapping | None = None
    stopped_stage: tuple | None = None
    meta: dict = field(default_factory=dict)

    def rejected_indices(self) -> list[int]:
        return [k + 1 for k, flag in enumerate(self.rejected) if flag]

    @property
    def n_rejected(self) -> int:
        return sum(self.rejected)


def _extract_z(z: Sequence) -> np.ndarray:
    vals = [s.z if isinstance(s, ComparisonStats) else float(s) for s in z]
    arr = np.asarray(vals, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("need a one-dimensional, nonempty vector of statistics")
    if not np.all(np.isfinite(arr)):
        raise ValueError("statistics must be finite")
    return arr


def _subset_max(stat: np.ndarray, subset: frozenset):
    """The subset's largest statistic; ``stat``'s last axis runs over
    comparisons."""
    return stat[..., [k - 1 for k in subset]].max(axis=-1)


def _closure_rule(
    stat: np.ndarray, first_crossing: Callable
) -> tuple[np.ndarray, np.ndarray]:
    """The closure rule over the whole intersection lattice, for many rows.

    ``stat`` has shape (rows, ..., m): the statistics the local tests read
    (absolute values for two-sided families), which must be finite.  It is
    read through its axis-reversed view, so the rule is fastest when the
    rows run innermost in memory, as they do in the simulator's arrays.
    Comparison k is rejected when every subset containing it is rejected,
    at the latest of their first crossings.

    ``first_crossing(subset, top)`` is the local test: ``top`` is the
    subset's largest statistic, of shape (rows tested, ...), and it returns
    per row the analysis (counted from 1) at which the test first rejects,
    or 0 if it never does; a boolean counts as a single analysis, and a
    scalar answers for every row.  The full set is tested on every row
    first.  Its rejected rows are then gathered once, and the rest of the
    lattice is walked on those alone, from the larger subsets down: on a
    row where every member of a subset is already accepted, the subset's
    test cannot change a decision, so each test receives only the rows
    where some member may still be rejected, in their original order.  The
    callback must therefore act row by row; it is not called for a subset
    with no such row, and no subset but the full set sees a row on which
    the full set was accepted.

    Returns
    -------
    rejected : ndarray of bool, shape (rows, m)
    stopped : ndarray of int, shape (rows, m)
        The analysis at which each rejection completed; 0 where not
        rejected.  In both, each comparison's column is contiguous.
    """
    if not np.all(np.isfinite(stat)):
        raise ValueError("statistics must be finite")
    n_rows, m = stat.shape[0], stat.shape[-1]
    subsets = _all_subsets(m)
    # by_col[c] is comparison c's statistics, rows on the last axis; a
    # callback reads the axis-reversed (rows, ...) view
    by_col = stat.T
    first = np.zeros(n_rows, dtype=np.int64)
    if n_rows:
        first[:] = first_crossing(subsets[-1], functools.reduce(np.maximum, by_col).T)
    rejected = np.zeros((m, n_rows), dtype=bool)
    stopped = np.zeros((m, n_rows), dtype=np.int64)
    rows = np.flatnonzero(first)
    if rows.size == 0:
        return rejected.T, stopped.T
    # on the full set's rejected rows: alive[c] marks the rows where
    # comparison c may still be rejected and latest[c] holds the latest
    # first crossing seen there
    by_col = np.take(by_col, rows, axis=-1)
    alive = np.ones((m, rows.size), dtype=bool)
    latest = np.repeat(first[rows][None], m, axis=0)
    first = np.zeros(rows.size, dtype=np.int64)
    for subset in reversed(subsets[:-1]):
        cols = [k - 1 for k in subset]
        live = np.flatnonzero(np.logical_or.reduce(alive[cols]))
        if live.size == 0:
            continue
        if live.size == rows.size:
            top = functools.reduce(np.maximum, (by_col[col] for col in cols))
        else:
            top = functools.reduce(np.maximum, (np.take(by_col[col], live, axis=-1)
                                                for col in cols))
        # rows left out keep 0: each of their members is accepted already
        first[:] = 0
        first[live] = first_crossing(subset, top.T)
        crossed = first > 0
        for col in cols:
            alive[col] &= crossed
            np.maximum(latest[col], first, out=latest[col])
    rejected[:, rows] = alive
    stopped[:, rows] = np.where(alive, latest, 0)
    return rejected.T, stopped.T


def _closed_test(z, table, method, sided, name) -> ClosureDecision:
    """The closed test of :func:`closed_test` and :func:`one_sided_closed_test`."""
    if table.config.sided != sided:
        raise ValueError(f"{name} requires a {sided} configuration")
    stat = _max_statistic(_extract_z(z), sided)
    if stat.size != table.n_comparisons:
        raise ValueError(
            f"expected {table.n_comparisons} statistics, got {stat.size}"
        )
    local = _lazy_local(stat.size, lambda s: _subset_max(stat, s) > table.value(s))
    if method == "shortcut":
        rejected = batch_closed_test(stat[None, :], table)[0].tolist()
    elif method == "lattice":
        # the first lookup fills every subset's decision, in lattice order
        rejected = _closure_rule(stat[None, :], lambda s, top: local[s])[0][0].tolist()
    else:
        raise ValueError(f"unknown method {method!r}")
    meta = {} if sided == TWO_SIDED else {"sided": ONE_SIDED}
    return ClosureDecision("dunnett", table.alpha, tuple(rejected), local, meta=meta)


def closed_test(
    z: Sequence,
    table: CriticalValueTable,
    method: str = "shortcut",
) -> ClosureDecision:
    """Closed max-|z| test of all pairwise null hypotheses.

    Parameters
    ----------
    z : sequence of ComparisonStats or float
        Standardized statistics, one per comparison index.
    table : CriticalValueTable
        Two-sided table for the same configuration.
    method : str
        ``"shortcut"`` runs the consonance step-down of
        :func:`batch_closed_test` on this one row: at most m lookups, and
        only the classes of the tail sets it visits are solved.  ``local``
        is then filled (solving every class) only when it is read.
        ``"lattice"`` evaluates every intersection explicitly, so it
        returns the same read-only ``local``, already filled.  Both give
        identical decisions.

    Returns
    -------
    ClosureDecision
        A statistic exactly equal to a boundary does not reject.
    """
    return _closed_test(z, table, method, TWO_SIDED, "closed_test")


def one_sided_closed_test(
    z: Sequence,
    table: CriticalValueTable,
    method: str = "shortcut",
) -> ClosureDecision:
    """Closed testing of both directional hypotheses for every pair.

    Statistics are signed; the intersection tests are one-sided max-z tests.
    At most one direction per pair can be rejected because the two directed
    statistics are perfectly negatively correlated.  As in
    :func:`closed_test`, the shortcut's ``local`` is filled only when read.
    """
    return _closed_test(z, table, method, ONE_SIDED, "one_sided_closed_test")


def batch_closed_test(abs_z: np.ndarray, table: CriticalValueTable) -> np.ndarray:
    """Vectorized consonance step-down for many replicates at once.

    Each row's statistics are walked in decreasing order; the r-th largest
    is rejected when it and every larger one exceed the critical value of
    their tail set (that statistic together with all smaller ones).  The
    first step, each row's maximum against the full-set cut, runs on every
    row column by column; only the rows that pass it are walked on, one
    rank at a time: each row still rejecting takes the first largest of the
    statistics it has not taken yet, so ties go in column order.  Only the
    tail sets of rows still rejecting are looked up, so only the classes
    the data visit are solved.  Each cut is kept on the table
    by its bitmask, so a later call on the same table, such as the next
    block of a simulation, reads it without validating the subset again.
    Decisions equal the full lattice walk because the table is consonant.
    Works for any family of up to 62 comparisons.

    Parameters
    ----------
    abs_z : ndarray, shape (n_replicates, m)
        Absolute statistics (or signed, for one-sided tables); must be
        finite.  Fastest when each column is contiguous.
    table : CriticalValueTable

    Returns
    -------
    ndarray of bool, shape (n_replicates, m), each column contiguous
    """
    abs_z = np.asarray(abs_z, dtype=float)
    m = table.n_comparisons
    if abs_z.ndim != 2 or abs_z.shape[1] != m:
        raise ValueError(f"abs_z must have shape (n, {m})")
    if m > _MASK_LIMIT:
        raise ValueError(f"the step-down supports at most {_MASK_LIMIT} comparisons")
    if not np.all(np.isfinite(abs_z)):
        raise ValueError("statistics must be finite")
    bits = np.left_shift(np.int64(1), np.arange(m, dtype=np.int64))
    critical = table._mask_value
    rejected = np.zeros((m, abs_z.shape[0]), dtype=bool).T
    if abs_z.size == 0:
        return rejected
    # the first step on every row: its maximum against the full-set cut
    passed = np.flatnonzero(functools.reduce(np.maximum, abs_z.T) > critical((1 << m) - 1))
    for start in range(0, passed.size, _BLOCK_ROWS):
        rows = passed[start:start + _BLOCK_ROWS]
        # the rows still rejecting, each pick struck out with -inf
        block = abs_z[rows]
        # every row here has crossed at rank 0, the full set
        col = block.argmax(axis=1)
        rejected[rows, col] = True
        # each row's tail set, the comparisons not yet picked, is
        # masks[which]; a row's next one drops its pick's bit, so the tail
        # sets of a rank are found by (which, col) in one pass, not a sort
        masks, which = np.array([(1 << m) - 1]), np.zeros(rows.size, dtype=np.int64)
        for _ in range(1, m):
            at = np.arange(rows.size)
            block[at, col] = -np.inf
            pair = which * m + col
            seen = np.zeros(masks.size * m, dtype=bool)
            seen[pair] = True
            found = np.flatnonzero(seen)
            masks = masks[found // m] ^ bits[found % m]
            which = (np.cumsum(seen) - 1)[pair]
            # argmax takes the first of equal values: the stable descending order
            col = block.argmax(axis=1)
            cuts = np.array(list(map(critical, masks.tolist())))
            keep = block[at, col] > cuts[which]
            rows, col, which, block = rows[keep], col[keep], which[keep], block[keep]
            if rows.size == 0:
                break
            rejected[rows, col] = True
    return rejected


def _normal_cut(alpha: float, m: int, sided: str) -> float:
    """Per-comparison normal cut at level alpha/m, split over two tails when
    the family is two-sided."""
    _check_alpha(alpha)
    return float(ndtri(1.0 - alpha / (_normal_tails(sided) * m)))


def _fixed_sequence(stat: np.ndarray, cut: float, order: Iterable[int]) -> np.ndarray:
    """Fixed-sequence rule on (rows, m) statistics: comparison k is rejected
    when it and every comparison before it in ``order`` (a permutation of
    1..m) clear ``cut``."""
    cols = [k - 1 for k in order]
    passed = stat > cut
    # column by column, down the sequence
    for prev, col in zip(cols, cols[1:]):
        passed[:, col] &= passed[:, prev]
    return passed


def _check_global_design(config: TrialConfig) -> None:
    """The global single-step comparator needs one critical value for every
    comparison: a two-sided family with equal variances and sample sizes."""
    if config.sided != TWO_SIDED or len(set(config.sigma2)) != 1:
        raise ValueError(
            "the global single-step comparator needs a two-sided, "
            "equal-variance design"
        )
    if any(len(set(row)) != 1 for row in config.stage_n):
        raise ValueError(
            "the global single-step comparator needs equal per-arm sample sizes"
        )


def bonferroni_cut(alpha: float, m: int) -> float:
    """Two-sided Bonferroni critical value: the upper alpha/(2m) normal point."""
    if m < 1:
        raise ValueError("need at least one comparison")
    return _normal_cut(alpha, m, TWO_SIDED)


def _single_step(procedure: str, alpha: float, stat: np.ndarray, cut: float,
                 meta: dict) -> ClosureDecision:
    """The single-step rule: each statistic against one cut, and an
    intersection rejected when its largest statistic crosses it."""
    rejected = tuple(bool(s > cut) for s in stat)
    local = _lazy_local(stat.size, lambda s: _subset_max(stat, s) > cut)
    return ClosureDecision(procedure, alpha, rejected, local, meta=meta)


def bonferroni_test(z: Sequence, alpha: float) -> ClosureDecision:
    """Single-step Bonferroni comparator: each |z_k| against the alpha/(2m) cut.

    The per-comparison level alpha/m is split evenly across the two tails, so
    the cut for m = 1 coincides with the unadjusted two-sided value.
    """
    stat = np.abs(_extract_z(z))
    cut = bonferroni_cut(alpha, stat.size)
    meta = {"cut": cut, "normalization": "two-sided, alpha/(2m) per tail"}
    return _single_step("bonferroni", alpha, stat, cut, meta)


def gatekeeping_test(
    z: Sequence, alpha: float, order: Sequence[int] | None = None
) -> ClosureDecision:
    """Fixed-sequence comparator: test at full alpha in a pre-specified order,
    stopping at the first non-rejection."""
    stat = np.abs(_extract_z(z))
    m = stat.size
    if order is None:
        order = list(range(1, m + 1))
    else:
        order = [_whole(k, "an order entry") for k in order]
        if sorted(order) != list(range(1, m + 1)):
            raise ValueError("order must be a permutation of 1..m")
    cut = _normal_cut(alpha, 1, TWO_SIDED)
    rejected = tuple(_fixed_sequence(stat[None, :], cut, order)[0].tolist())
    position = {k: pos for pos, k in enumerate(order)}
    # implied closure: an intersection is tested through its earliest member
    # in the sequence
    local = _lazy_local(m, lambda s: stat[min(s, key=position.get) - 1] > cut)
    return ClosureDecision(
        "gatekeeping", alpha, rejected, local, meta={"order": list(order)}
    )


def tukey_global_test(
    z: Sequence,
    config: TrialConfig,
    alpha: float,
    seed: int = 0,
    table: CriticalValueTable | None = None,
) -> ClosureDecision:
    """Single-step comparator: every |z_k| against the full-family critical
    value.  Requires equal per-arm sample sizes and variances; a ``table``
    must have been built for this config and alpha."""
    _check_global_design(config)
    stat = np.abs(_extract_z(z))
    if stat.size != config.n_comparisons:
        raise ValueError(f"expected {config.n_comparisons} statistics")
    table = (CriticalValueTable(config, alpha, seed) if table is None
             else table._serving(config, alpha=alpha))
    c_full = table.value(table.full_set())
    return _single_step("tukey_global", alpha, stat, c_full, {"cut": c_full})


def unadjusted_test(z: Sequence, alpha: float) -> ClosureDecision:
    """Per-comparison two-sided tests at level alpha, with no multiplicity
    adjustment.  Comparator only; does not control the family-wise error."""
    stat = np.abs(_extract_z(z))
    cut = _normal_cut(alpha, 1, TWO_SIDED)
    rejected = tuple(bool(s > cut) for s in stat)
    return ClosureDecision("unadjusted", alpha, rejected, meta={"cut": cut})
