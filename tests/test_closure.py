"""Closed testing of all pairwise comparisons, plus the comparator procedures."""

import functools
import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from pairwise_closure import closure
from pairwise_closure.closure import (
    CriticalValueTable,
    batch_closed_test,
    bonferroni_cut,
    bonferroni_test,
    closed_test,
    critical_values,
    gatekeeping_test,
    one_sided_closed_test,
    tukey_global_test,
    unadjusted_test,
)
from pairwise_closure.model import TrialConfig, _pair_arms, correlation

# Frozen reference values (seed=1): one row per correlation-equivalence
# class of the 63 subsets at K=4, equal allocation.  Columns: subset size,
# lexicographically first member, number of subsets in the class, critical
# value.  Recomputing any of them from scratch must agree to the solver
# tolerance.
K4_CLASSES = [
    (1, (1,), 6, 1.959964),
    (2, (1, 2), 12, 2.212093),
    (2, (1, 6), 3, 2.236465),
    (3, (1, 2, 3), 4, 2.348956),
    (3, (1, 2, 4), 4, 2.343728),
    (3, (1, 2, 5), 12, 2.360288),
    (4, (1, 2, 3, 4), 12, 2.445255),
    (4, (1, 2, 5, 6), 3, 2.453582),
    (5, (1, 2, 3, 4, 5), 6, 2.515259),
    (6, (1, 2, 3, 4, 5, 6), 1, 2.569051),
]


def _reference_key(config, members):
    """The class key by brute force: build every relabelled graph as tuples
    and keep the smallest.  The array keyer must return this exact tuple."""
    ii, jj = _pair_arms(config.n_arms, config.sided)
    cols = [k - 1 for k in members]
    pairs = list(zip(ii[cols].tolist(), jj[cols].tolist()))
    arms = sorted({a for pair in pairs for a in pair})
    v = config.arm_variances(1)
    scale = max(v[a] for a in arms)
    weights = {a: round(v[a] / scale, 12) for a in arms}
    best = None
    for perm in itertools.permutations(range(len(arms))):
        relabel = {arm: perm[idx] for idx, arm in enumerate(arms)}
        if config.sided == "one-sided":
            edges = sorted((relabel[i], relabel[j]) for i, j in pairs)
        else:
            edges = sorted(tuple(sorted((relabel[i], relabel[j]))) for i, j in pairs)
        w = tuple(weights[arm] for arm in sorted(arms, key=lambda a: relabel[a]))
        cand = (tuple(edges), w)
        if best is None or cand < best:
            best = cand
    return (config.sided, best)


def _assert_same_key(config, members):
    key, expect = closure._class_key(config, members), _reference_key(config, members)
    assert key == expect and repr(key) == repr(expect), members


# sigma^2 and n per arm (first K entries): every sigma^2/n equal, partly tied
# (arms 1-2 and 3-4 share one), and all distinct
VARIANCE_PATTERNS = {
    "equal": ((1.0,) * 5, (100,) * 5),
    "partly-tied": ((1.0, 1.0, 2.0, 1.0, 1.5), (100, 100, 100, 50, 100)),
    "distinct": ((1.0, 1.3, 0.7, 2.0, 1.6), (100, 80, 120, 90, 60)),
}


class TestCriticalValueTable:
    def test_two_arm_value_is_the_normal_quantile(self):
        table = critical_values(TrialConfig.single_stage(2, 1.0, 50), 0.05)
        assert table.value([1]) == pytest.approx(1.959964, abs=1e-6)

    def test_k4_equivalence_classes(self, table_k4):
        classes = table_k4.classes()
        got = [
            (c["size"], c["representative"], c["n_subsets"], c["critical_value"])
            for c in classes
        ]
        assert [row[:3] for row in got] == [row[:3] for row in K4_CLASSES]
        for (_, _, _, value), (_, _, _, expect) in zip(got, K4_CLASSES):
            assert value == pytest.approx(expect, abs=3e-4)
        assert sum(c["n_subsets"] for c in classes) == 63

    def test_k3_has_three_classes(self, table_k3):
        classes = table_k3.classes()
        assert [(c["size"], c["n_subsets"]) for c in classes] == [
            (1, 3), (2, 3), (3, 1),
        ]

    def test_strict_consonance_k4(self, table_k4):
        entries = table_k4.entries()
        for small, c_small in entries.items():
            for big, c_big in entries.items():
                if small < big:
                    assert c_small < c_big - 1e-6

    def test_full_set_below_bonferroni_cut(self, table_k4):
        c_full = table_k4.value(table_k4.full_set())
        assert c_full < bonferroni_cut(0.05, 6) - 0.01

    def test_unequal_variances_split_the_singleton_class(self):
        cfg = TrialConfig.single_stage(3, (1.0, 2.0, 3.0), 100)
        table = critical_values(cfg, 0.05, seed=1)
        table.entries()
        assert len(table.classes()) > 3

    def test_value_does_not_depend_on_lookup_order(self, cfg_k4, table_k4):
        # {2,3,5,6} is not the first member of its class that entries()
        # reaches, so a fresh table solves the class from a different member
        subset = frozenset({2, 3, 5, 6})
        fresh = critical_values(cfg_k4, 0.05, seed=1)
        assert fresh.value(subset) == table_k4.entries()[subset]

    def test_rebuild_is_bit_identical(self, cfg_k4, table_k4):
        again = critical_values(cfg_k4, 0.05, seed=1)
        assert again.entries() == table_k4.entries()

    def test_seed_changes_values_within_tolerance(self, cfg_k4, table_k4):
        other = critical_values(cfg_k4, 0.05, seed=99)
        c1 = table_k4.value(table_k4.full_set())
        c2 = other.value(other.full_set())
        assert c1 != c2
        assert c1 == pytest.approx(c2, abs=3e-4)

    def test_subset_validation(self, table_k4):
        with pytest.raises(ValueError):
            table_k4.value([])
        with pytest.raises(ValueError):
            table_k4.value([0])
        with pytest.raises(ValueError):
            table_k4.value([7])

    @pytest.mark.parametrize("members", [["2", 1], [1.7, 2], [True, 2], [1, None]],
                             ids=["string", "fraction", "boolean", "none"])
    def test_comparison_indices_must_be_whole_numbers(self, table_k4, members):
        with pytest.raises(ValueError, match="^a comparison index must be a whole number, got "):
            table_k4.value(members)

    def test_whole_float_and_numpy_indices_read_as_ints(self, table_k4):
        value = table_k4.value([1, 2])
        assert table_k4.value([2.0, 1.0]) == table_k4.value([np.int64(2), 1]) == value

    def test_alpha_validation(self, cfg_k4):
        with pytest.raises(ValueError):
            critical_values(cfg_k4, 0.0)
        with pytest.raises(ValueError):
            critical_values(cfg_k4, 1.0)

    @pytest.mark.parametrize("tol", [0.0, -1e-4, np.nan, np.inf])
    def test_tol_validation(self, cfg_k4, tol):
        with pytest.raises(ValueError, match="tol"):
            critical_values(cfg_k4, 0.05, tol=tol)

    def test_copy_with_new_inputs_does_not_serve_old_values(self, cfg_k3):
        table = critical_values(cfg_k3, 0.05)
        assert table.value({1}) == pytest.approx(1.959964, abs=1e-4)
        strict = replace(table, alpha=0.01)
        assert strict.value({1}) == critical_values(cfg_k3, 0.01).value({1})
        assert strict.value({1}) == pytest.approx(2.575829, abs=1e-4)
        for change in ({"seed": 1}, {"accuracy": 1e-4}, {"tol": 1e-5},
                       {"config": TrialConfig.single_stage(3, 1.0, 50)}):
            copy = replace(table, **change)
            assert not copy._class_values and not copy._subset_keys
        # so does a copy that keeps every solve input: no copy shares a cache
        same = replace(table)
        assert not same._class_values and not same._subset_keys

    def test_class_key_refuses_more_than_eight_arms(self):
        table = critical_values(TrialConfig.single_stage(9, 1.0, 10), 0.05)
        with pytest.raises(ValueError, match="9 arms"):
            table.value(table.full_set())
        # subsets on at most eight of the nine arms still key
        assert table.value({1}) == pytest.approx(1.959964, abs=1e-4)

    def test_derived_seed_of_the_full_set_is_pinned(self):
        # the seed hashes repr(key), and the key holds numpy floats: numpy 1.x
        # writes np.float64(1.0) as 1.0, which would move every derived seed
        # and so every pinned value (hence numpy>=2 in pyproject.toml)
        key = closure._class_key(TrialConfig.single_stage(3, 1.0, 100), (1, 2, 3))
        assert repr(key) == ("('two-sided', (((0, 1), (0, 2), (1, 2)), "
                             "(np.float64(1.0), np.float64(1.0), np.float64(1.0))))")
        assert closure._derived_seed(0, key) == 1478717990

    @pytest.mark.parametrize("sided, members, expect, seed", [
        ("two-sided", (1, 3, 6, 8, 10),
         "('two-sided', (((0, 1), (0, 2), (0, 3), (0, 4), (1, 2)), "
         "(np.float64(0.36), np.float64(0.3), np.float64(0.5625), np.float64(0.2), "
         "np.float64(1.0))))", 3457251618),
        ("one-sided", (2, 5, 9, 13, 17, 20),
         "('one-sided', (((0, 1), (0, 2), (1, 3), (2, 4), (3, 0), (4, 3)), "
         "(np.float64(1.0), np.float64(0.5625), np.float64(0.36), np.float64(0.2), "
         "np.float64(0.3))))", 372817304),
    ])
    def test_derived_seed_of_an_unequal_five_arm_subset_is_pinned(self, sided, members,
                                                                  expect, seed):
        cfg = TrialConfig.single_stage(5, [1.0, 1.5, 0.8, 1.2, 2.0], [100, 80, 120, 100, 60],
                                       sided=sided)
        key = closure._class_key(cfg, members)
        assert repr(key) == expect
        assert closure._derived_seed(0, key) == seed

    @pytest.mark.parametrize("pattern", sorted(VARIANCE_PATTERNS))
    @pytest.mark.parametrize("n_arms, sided", [
        *[(k, "two-sided") for k in (2, 3, 4, 5)], *[(k, "one-sided") for k in (2, 3, 4)],
    ])
    def test_class_key_matches_brute_force_on_every_subset(self, n_arms, sided, pattern):
        sigma2, n = (values[:n_arms] for values in VARIANCE_PATTERNS[pattern])
        cfg = TrialConfig.single_stage(n_arms, sigma2, n, sided=sided)
        for size in range(1, cfg.n_comparisons + 1):
            for members in itertools.combinations(range(1, cfg.n_comparisons + 1), size):
                _assert_same_key(cfg, members)

    @pytest.mark.parametrize("sided", ["two-sided", "one-sided"])
    def test_class_key_matches_brute_force_on_random_large_subsets(self, sided):
        rng = np.random.default_rng(7)
        # (arms in the design, arms the subset may use, subsets drawn)
        for n_arms, n_used, count in ((6, 6, 6), (7, 7, 3), (8, 8, 1), (9, 8, 1), (9, 7, 2)):
            sigma2 = rng.choice([0.8, 1.0, 1.5], n_arms)
            cfg = TrialConfig.single_stage(n_arms, sigma2, rng.choice([50, 100], n_arms),
                                           sided=sided)
            ii, jj = _pair_arms(n_arms, sided)
            for _ in range(count):
                used = rng.choice(n_arms, n_used, replace=False)
                pool = np.flatnonzero(np.isin(ii, used) & np.isin(jj, used)) + 1
                size = rng.integers(n_used - 1, len(pool) + 1)
                members = tuple(sorted(rng.choice(pool, size, replace=False).tolist()))
                _assert_same_key(cfg, members)

    @settings(max_examples=100, deadline=None)
    @given(n_arms=st.integers(2, 6), sided=st.sampled_from(["two-sided", "one-sided"]),
           data=st.data())
    def test_class_key_is_invariant_under_arm_relabelling(self, n_arms, sided, data):
        sigma2 = data.draw(st.lists(st.sampled_from([0.5, 1.0]) | st.floats(0.5, 2.0),
                                    min_size=n_arms, max_size=n_arms))
        n = data.draw(st.lists(st.sampled_from([50, 100]), min_size=n_arms, max_size=n_arms))
        cfg = TrialConfig.single_stage(n_arms, sigma2, n, sided=sided)
        members = data.draw(st.sets(st.integers(1, cfg.n_comparisons), min_size=1))
        # arm a becomes arm perm[a], carrying its sigma^2 and n along
        perm = data.draw(st.permutations(range(n_arms)))
        moved = TrialConfig.single_stage(
            n_arms, [sigma2[perm.index(a)] for a in range(n_arms)],
            [n[perm.index(a)] for a in range(n_arms)], sided=sided)
        ii, jj = _pair_arms(n_arms, sided)
        index = {(i, j): k for k, (i, j) in enumerate(zip(ii.tolist(), jj.tolist()), 1)}
        moved_members = []
        for k in members:
            i, j = perm[ii[k - 1]], perm[jj[k - 1]]
            moved_members.append(index[(i, j) if sided == "one-sided" else (min(i, j), max(i, j))])
        key = closure._class_key(cfg, tuple(sorted(members)))
        assert closure._class_key(moved, tuple(sorted(moved_members))) == key

    @settings(max_examples=100, deadline=None)
    @given(n_arms=st.integers(2, 5), sided=st.sampled_from(["two-sided", "one-sided"]),
           data=st.data())
    def test_class_key_carries_the_subset_correlation(self, n_arms, sided, data):
        sigma2 = data.draw(st.lists(st.floats(0.5, 2.0), min_size=n_arms, max_size=n_arms))
        n = data.draw(st.lists(st.integers(20, 200), min_size=n_arms, max_size=n_arms))
        cfg = TrialConfig.single_stage(n_arms, sigma2, n, sided=sided)
        members = sorted(data.draw(st.sets(st.integers(1, cfg.n_comparisons),
                                           min_size=1, max_size=6)))
        keyed = closure._key_correlation(closure._class_key(cfg, tuple(members))).matrix
        direct = correlation(cfg, members).matrix
        # the canonical form orders the comparisons its own way, and a
        # two-sided one may also turn some round, which a |z| box ignores
        dim = len(members)
        flips = itertools.product((1.0, -1.0), repeat=dim - 1) if sided == "two-sided" else [()]
        signs = [np.array((1.0, *flip)) for flip in flips]
        close = functools.partial(np.allclose, rtol=0.0, atol=1e-10)  # weights keep 12 digits
        assert any(
            close(keyed, sign * direct[np.ix_(order, order)] * sign[:, None])
            for order in itertools.permutations(range(dim))
            if close(np.abs(keyed), np.abs(direct[np.ix_(order, order)]))
            for sign in signs
        )

    @settings(max_examples=10, deadline=None)
    @given(sided=st.sampled_from(["two-sided", "one-sided"]),
           sigma2=st.lists(st.floats(0.5, 2.0), min_size=3, max_size=3),
           n=st.lists(st.integers(20, 200), min_size=3, max_size=3))
    def test_consonance_on_random_designs(self, sided, sigma2, n):
        cfg = TrialConfig.single_stage(3, sigma2, n, sided=sided)
        entries = critical_values(cfg, 0.05, seed=1, accuracy=1e-3).entries()
        for subset, value in entries.items():
            if len(subset) > 1:
                assert all(entries[subset - {k}] < value for k in subset)


class TestClosedTest:
    def test_clear_separation_k3(self, table_k3):
        decision = closed_test([5.0, 5.0, 0.1], table_k3)
        assert decision.rejected_indices() == [1, 2]
        assert decision.n_rejected == 2

    def test_nothing_crosses(self, table_k3):
        decision = closed_test([0.5, -0.3, 1.2], table_k3)
        assert decision.rejected_indices() == []

    def test_boundary_tie_does_not_reject(self, table_k3):
        c_full = table_k3.value(table_k3.full_set())
        decision = closed_test([c_full, 0.0, 0.0], table_k3)
        assert decision.rejected_indices() == []

    def test_just_above_boundary_rejects(self, table_k3):
        c_full = table_k3.value(table_k3.full_set())
        decision = closed_test([c_full + 1e-9, 0.0, 0.0], table_k3)
        assert decision.rejected_indices() == [1]

    def test_sign_is_ignored(self, table_k3):
        a = closed_test([3.0, -2.5, 0.4], table_k3)
        b = closed_test([-3.0, 2.5, -0.4], table_k3)
        assert a.rejected == b.rejected

    def test_global_decision_is_conjunction_of_local(self, table_k4):
        rng = np.random.default_rng(5)
        for _ in range(50):
            z = rng.normal(scale=1.6, size=6)
            decision = closed_test(z, table_k4)
            assert decision.local is not None
            for k in range(1, 7):
                implied = all(v for s, v in decision.local.items() if k in s)
                assert decision.rejected[k - 1] == implied

    def test_null_data_solves_one_class(self, cfg_k3, table_k3, monkeypatch):
        solves = []
        quantile = closure.equicoord_quantile

        def counted(*args, **kwargs):
            solves.append(args)
            return quantile(*args, **kwargs)

        monkeypatch.setattr(closure, "equicoord_quantile", counted)
        fresh = critical_values(cfg_k3, 0.05, seed=1)
        z = [0.4, -1.1, 0.7]
        decision = closed_test(z, fresh)
        assert decision.rejected_indices() == []
        assert len(solves) == 1
        assert decision.local == closed_test(z, table_k3, method="lattice").local
        assert len(solves) == 3

    @pytest.mark.parametrize("method", ["shortcut", "lattice"])
    def test_local_is_read_only(self, table_k3, method):
        decision = closed_test([3.0, 0.2, 2.5], table_k3, method=method)
        with pytest.raises(TypeError):
            decision.local[frozenset({1})] = False

    def test_input_validation(self, table_k3):
        with pytest.raises(ValueError):
            closed_test([1.0, 2.0], table_k3)
        with pytest.raises(ValueError):
            closed_test([1.0, np.nan, 2.0], table_k3)
        with pytest.raises(ValueError):
            closed_test([1.0, 1.0, 1.0], table_k3, method="bogus")
        one_sided = critical_values(
            TrialConfig.single_stage(3, 1.0, 100, sided="one-sided"), 0.05
        )
        with pytest.raises(ValueError):
            closed_test([1.0, 1.0, 1.0], one_sided)


def _stress_vectors(rng, m: int, count: int, near: float) -> np.ndarray:
    """Mix of null draws, shifted draws, and values parked near a boundary."""
    thirds = count // 3
    blocks = [
        rng.normal(size=(thirds, m)),
        rng.normal(loc=rng.choice([-2.5, 0.0, 2.5], size=(thirds, m)), scale=1.0),
        near + rng.normal(scale=0.02, size=(count - 2 * thirds, m)),
    ]
    return np.vstack(blocks)


def _edge_vectors(rng, table, count: int) -> np.ndarray:
    """Rows whose statistics sit exactly on, or one float away from, the
    critical values of the tail sets the step-down visits, with ties."""
    m = table.n_comparisons
    rows = np.empty((count, m))
    for row in rows:
        order = rng.permutation(m) + 1
        for rank in range(m):
            if rank and rng.random() < 0.25:
                row[order[rank] - 1] = row[order[rank - 1] - 1]
                continue
            c = table.value(order[rank:])
            row[order[rank] - 1] = rng.choice(
                [c, np.nextafter(c, np.inf), np.nextafter(c, -np.inf)]
            )
    return rows


def reference_closure_rule(stat, first_crossing):
    """The closure rule as first written: every local test on every row, with
    the lattice walked from the singletons up."""
    n_rows, m = stat.shape[0], stat.shape[-1]
    rejected = np.ones((n_rows, m), dtype=bool)
    stopped = np.zeros((n_rows, m), dtype=np.int64)
    for subset in closure._all_subsets(m):
        cols = [k - 1 for k in subset]
        first = np.asarray(first_crossing(subset, stat[..., cols].max(axis=-1)),
                           dtype=np.int64)
        crossed = first > 0
        for col in cols:
            rejected[:, col] &= crossed
            np.maximum(stopped[:, col], first, out=stopped[:, col])
    stopped[~rejected] = 0
    return rejected, stopped


def _row_table_test(table, seen, as_bool):
    """A row-wise local test read from ``table[subset][row]``.  Each row's
    statistics lie in [row, row + 1), so the row is the floor of any of its
    subset maxima."""
    def first_crossing(subset, top):
        rows = np.floor(top.reshape(top.shape[0], -1)[:, 0]).astype(np.int64)
        seen[subset] = rows
        first = table[subset][rows]
        return first > 0 if as_bool else first
    return first_crossing


class _ScrambledCuts:
    """A stand-in table whose cut is drawn afresh for every tail set, with no
    order between sets: unlike a consonant table's, its decisions show which
    of two tied statistics the walk takes first."""

    n_comparisons = 6

    def __init__(self, seed: int) -> None:
        self.cuts = np.random.default_rng(seed).uniform(0.5, 3.5, 1 << self.n_comparisons)

    def _mask_value(self, mask: int) -> float:
        return float(self.cuts[mask])


def _sorted_walk(stat: np.ndarray, table) -> np.ndarray:
    """The step-down as first vectorized: every row sorted once, stably in
    decreasing order, with the tail set of each rank accumulated from the
    bottom, then walked rank by rank from the full set."""
    m = table.n_comparisons
    bits = np.left_shift(np.int64(1), np.arange(m, dtype=np.int64))
    order = np.argsort(-stat, axis=1, kind="stable")
    ranked = np.take_along_axis(stat, order, axis=1)
    tails = np.bitwise_or.accumulate(bits[order[:, ::-1]], axis=1)[:, ::-1]
    crossed = np.zeros(stat.shape, dtype=bool)
    alive = np.arange(stat.shape[0])
    for rank in range(m):
        cuts = np.array([table._mask_value(int(mask)) for mask in tails[alive, rank]])
        alive = alive[ranked[alive, rank] > cuts]
        crossed[alive, rank] = True
    rejected = np.zeros(stat.shape, dtype=bool)
    rejected[np.arange(stat.shape[0])[:, None], order] = crossed
    return rejected


class TestClosureRule:
    @settings(max_examples=150, deadline=None)
    @given(
        m=st.integers(1, 5),
        analyses=st.integers(1, 3),
        n_rows=st.integers(1, 30),
        accept=st.floats(0.0, 0.9),
        as_bool=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pruned_walk_matches_the_reference(self, m, analyses, n_rows, accept,
                                               as_bool, seed):
        rng = np.random.default_rng(seed)
        shape = (n_rows, m) if analyses == 1 and as_bool else (n_rows, analyses, m)
        rows = np.arange(n_rows).reshape((n_rows,) + (1,) * (len(shape) - 1))
        stat = rows + rng.random(shape)
        table = {
            s: np.where(rng.random(n_rows) < accept, 0,
                        rng.integers(1, analyses + 1, n_rows))
            for s in closure._all_subsets(m)
        }
        seen: dict = {}
        rejected, stopped = closure._closure_rule(
            stat, _row_table_test(table, seen, as_bool))
        expected = reference_closure_rule(stat, _row_table_test(table, {}, as_bool))
        assert np.array_equal(rejected, expected[0])
        assert np.array_equal(stopped, expected[1])
        assert rejected.shape == stopped.shape == (n_rows, m)
        # a callback sees its rows in their original order, and never a row
        # on which the full set was accepted, except in the full set's own test
        full = frozenset(range(1, m + 1))
        assert np.array_equal(seen[full], np.arange(n_rows))
        dead = np.flatnonzero(table[full] == 0)
        for subset, rows_seen in seen.items():
            assert np.all(np.diff(rows_seen) > 0)
            if subset != full:
                assert not np.isin(dead, rows_seen).any()

    @settings(max_examples=80, deadline=None)
    @given(
        m=st.integers(1, 5),
        analyses=st.integers(1, 3),
        n_rows=st.integers(1, 30),
        accept=st.floats(0.0, 0.9),
        as_bool=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_memory_layout_changes_nothing(self, m, analyses, n_rows, accept, as_bool,
                                           seed):
        # the same values C-ordered and with the row index innermost in memory
        rng = np.random.default_rng(seed)
        stat = np.arange(n_rows)[:, None, None] + rng.random((n_rows, analyses, m))
        inner = np.ascontiguousarray(stat.T).T
        table = {
            s: np.where(rng.random(n_rows) < accept, 0,
                        rng.integers(1, analyses + 1, n_rows))
            for s in closure._all_subsets(m)
        }
        seen_c: dict = {}
        seen_inner: dict = {}
        c_order = closure._closure_rule(stat, _row_table_test(table, seen_c, as_bool))
        row_inner = closure._closure_rule(inner, _row_table_test(table, seen_inner, as_bool))
        for got, expect in zip(row_inner, c_order):
            assert np.array_equal(got, expect)
            # each comparison's column is contiguous
            assert got.flags.f_contiguous
        assert seen_inner.keys() == seen_c.keys()
        assert all(np.array_equal(seen_inner[s], seen_c[s]) for s in seen_c)

    def test_callbacks_see_fewer_rows_once_the_full_set_fails(self):
        m, n_rows = 3, 8
        stat = np.arange(n_rows)[:, None] + np.full((n_rows, m), 0.5)
        table = {s: np.full(n_rows, 1) for s in closure._all_subsets(m)}
        full = frozenset({1, 2, 3})
        table[full][[1, 4, 6]] = 0
        seen: dict = {}
        rejected, stopped = closure._closure_rule(
            stat, _row_table_test(table, seen, as_bool=False))
        assert seen[full].size == n_rows
        assert all(rows.tolist() == [0, 2, 3, 5, 7]
                   for s, rows in seen.items() if s != full)
        assert rejected.sum(axis=1).tolist() == [3, 0, 3, 3, 0, 3, 0, 3]
        assert np.array_equal(stopped, rejected.astype(np.int64))

    def test_no_local_test_runs_once_every_row_is_accepted(self):
        calls = []

        def never(subset, top):
            calls.append(subset)
            return np.zeros(top.shape[0], dtype=np.int64)

        rejected, stopped = closure._closure_rule(np.ones((5, 2, 4)), never)
        assert calls == [frozenset({1, 2, 3, 4})]
        assert not rejected.any() and not stopped.any()

    def test_lattice_local_reports_every_subset_in_lattice_order(self, table_k4):
        decision = closed_test([0.3, -0.2, 0.1, 0.0, 0.4, -0.1], table_k4,
                               method="lattice")
        assert decision.rejected == (False,) * 6
        assert not decision.local[frozenset(range(1, 7))]
        assert len(decision.local) == 2**6 - 1
        assert list(decision.local) == closure._all_subsets(6)


class TestShortcutAgainstLattice:
    def test_k3(self, table_k3):
        rng = np.random.default_rng(11)
        c_mid = table_k3.value(table_k3.full_set())
        for z in _stress_vectors(rng, 3, 400, c_mid):
            a = closed_test(z, table_k3, method="shortcut")
            b = closed_test(z, table_k3, method="lattice")
            assert a.rejected == b.rejected

    def test_k4(self, table_k4):
        rng = np.random.default_rng(12)
        c_mid = table_k4.value(table_k4.full_set())
        for z in _stress_vectors(rng, 6, 400, c_mid):
            a = closed_test(z, table_k4, method="shortcut")
            b = closed_test(z, table_k4, method="lattice")
            assert a.rejected == b.rejected

    def test_k5(self, table_k5_loose):
        rng = np.random.default_rng(13)
        table = table_k5_loose
        c_mid = table.value(table.full_set())
        for z in _stress_vectors(rng, 10, 200, c_mid):
            a = closed_test(z, table, method="shortcut")
            b = closed_test(z, table, method="lattice")
            assert a.rejected == b.rejected

    def test_batch_matches_scalar(self, table_k4):
        rng = np.random.default_rng(14)
        z = np.vstack([
            _stress_vectors(rng, 6, 300, table_k4.value(table_k4.full_set())),
            _edge_vectors(rng, table_k4, 200),
            np.full((1, 6), table_k4.value(table_k4.full_set())),
        ])
        batch = batch_closed_test(np.abs(z), table_k4)
        for row, flags in zip(z, batch):
            assert closed_test(row, table_k4, method="lattice").rejected == tuple(flags)

    @pytest.mark.parametrize("table_name", ["table_k4", "one_sided_k3", "scrambled"])
    def test_batch_walk_matches_the_sorted_walk(self, table_name, request, monkeypatch):
        table = (_ScrambledCuts(6) if table_name == "scrambled"
                 else request.getfixturevalue(table_name))
        one_sided = table_name != "table_k4"
        rng = np.random.default_rng(18)
        z = np.vstack([
            # integer values, so most rows hold ties, and negative ones
            # where the family is one-sided
            rng.integers(-3 if one_sided else 0, 5, size=(600, 6)),
            # every rank passes
            5 + rng.integers(0, 3, size=(100, 6)),
            rng.normal(scale=2.0, size=(300, 6)),
        ]).astype(float)
        # blocks of a few rows, and a partial last one
        monkeypatch.setattr(closure, "_BLOCK_ROWS", 37)
        got = batch_closed_test(z, table)
        assert np.array_equal(got, _sorted_walk(z, table))
        assert got[600:700].all()

    @pytest.mark.parametrize("rows", [1, 2, 700])
    def test_batch_reads_any_memory_layout(self, table_k4, rows):
        rng = np.random.default_rng(16)
        z = np.abs(np.vstack([
            _stress_vectors(rng, 6, 400, table_k4.value(table_k4.full_set())),
            _edge_vectors(rng, table_k4, 300),
        ]))[:rows]
        inner = np.ascontiguousarray(z.T).T
        expect = batch_closed_test(z, table_k4)
        got = batch_closed_test(inner, table_k4)
        assert np.array_equal(got, expect)
        assert got.flags.f_contiguous and expect.flags.f_contiguous

    def test_batch_keeps_each_cut_on_the_table(self, cfg_k4, monkeypatch):
        table = critical_values(cfg_k4, 0.05, seed=1, accuracy=1e-3)
        rng = np.random.default_rng(17)
        z = np.abs(np.vstack([
            _stress_vectors(rng, 6, 400, table.value(table.full_set())),
            _edge_vectors(rng, table, 300),
        ]))
        first = batch_closed_test(z, table)
        memo = dict(table._mask_values)
        assert len(memo) > 1
        for mask, cut in memo.items():
            members = {k + 1 for k in range(6) if mask >> k & 1}
            assert cut == table.value(members)
        # later calls look each cut up on the table, not through value
        monkeypatch.setattr(CriticalValueTable, "value", None)
        assert np.array_equal(batch_closed_test(z[::-1], table), first[::-1])
        assert np.array_equal(batch_closed_test(z[:50], table), first[:50])
        assert table._mask_values == memo
        # a copy keeps no memo of the table it was made from
        assert not replace(table)._mask_values

    def test_batch_of_no_rows_solves_nothing(self, cfg_k4):
        table = critical_values(cfg_k4, 0.05, seed=1)
        assert batch_closed_test(np.zeros((0, 6)), table).shape == (0, 6)
        assert table._class_values == {}

    def test_batch_shape_validation(self, table_k4):
        with pytest.raises(ValueError):
            batch_closed_test(np.zeros((5, 4)), table_k4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_batch_rejects_non_finite(self, table_k4, bad):
        z = np.ones((3, 6))
        z[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            batch_closed_test(z, table_k4)


@pytest.fixture(scope="module")
def one_sided_k3():
    cfg = TrialConfig.single_stage(3, 1.0, 100, sided="one-sided")
    table = critical_values(cfg, 0.05, seed=1)
    table.entries()
    return table


class TestOneSided:
    def test_singleton_value(self, one_sided_k3):
        assert one_sided_k3.value([1]) == pytest.approx(ndtri(0.95), abs=1e-6)

    def test_full_set_equals_two_sided_constant(self, one_sided_k3, table_k3):
        # the full directed family contains both signs of every statistic,
        # so its maximum is the maximum absolute two-sided statistic
        c_directed = one_sided_k3.value(one_sided_k3.full_set())
        c_two_sided = table_k3.value(table_k3.full_set())
        assert c_directed == pytest.approx(c_two_sided, abs=3e-4)

    def test_at_most_one_direction_per_pair(self, one_sided_k3):
        rng = np.random.default_rng(21)
        for _ in range(100):
            z3 = rng.normal(scale=2.0, size=3)
            z6 = np.concatenate([z3, -z3])
            decision = one_sided_closed_test(z6, one_sided_k3)
            for k in range(3):
                assert not (decision.rejected[k] and decision.rejected[k + 3])

    def test_directional_decision(self, one_sided_k3):
        decision = one_sided_closed_test([2.6, 0.0, 0.0, -2.6, 0.0, 0.0], one_sided_k3)
        assert decision.rejected_indices() == [1]
        flipped = one_sided_closed_test([-2.6, 0.0, 0.0, 2.6, 0.0, 0.0], one_sided_k3)
        assert flipped.rejected_indices() == [4]

    def test_shortcut_matches_lattice(self, one_sided_k3):
        rng = np.random.default_rng(22)
        for _ in range(150):
            z3 = rng.normal(loc=rng.choice([-2.0, 0.0, 2.0], size=3))
            z6 = np.concatenate([z3, -z3])
            a = one_sided_closed_test(z6, one_sided_k3, method="shortcut")
            b = one_sided_closed_test(z6, one_sided_k3, method="lattice")
            assert a.rejected == b.rejected

    def test_shortcut_local_matches_lattice(self, one_sided_k3):
        rng = np.random.default_rng(24)
        for _ in range(20):
            z3 = rng.normal(loc=rng.choice([-2.0, 0.0, 2.0], size=3))
            z6 = np.concatenate([z3, -z3])
            a = one_sided_closed_test(z6, one_sided_k3, method="shortcut")
            b = one_sided_closed_test(z6, one_sided_k3, method="lattice")
            assert dict(a.local) == b.local
            assert len(a.local) == 63

    def test_batch_matches_lattice(self, one_sided_k3):
        rng = np.random.default_rng(23)
        z3 = rng.normal(loc=rng.choice([-2.0, 0.0, 2.0], size=(200, 3)))
        z = np.vstack([np.hstack([z3, -z3]), _edge_vectors(rng, one_sided_k3, 200)])
        batch = batch_closed_test(z, one_sided_k3)
        for row, flags in zip(z, batch):
            lattice = one_sided_closed_test(row, one_sided_k3, method="lattice")
            assert lattice.rejected == tuple(flags)

    def test_requires_one_sided_table(self, table_k3):
        with pytest.raises(ValueError):
            one_sided_closed_test([1.0] * 3, table_k3)


class TestComparators:
    def test_bonferroni_cut_m6(self):
        assert bonferroni_cut(0.05, 6) == pytest.approx(2.638257, abs=1e-6)

    def test_bonferroni_single_comparison_is_unadjusted(self):
        assert bonferroni_cut(0.05, 1) == pytest.approx(1.959964, abs=1e-6)

    def test_bonferroni_decisions(self):
        decision = bonferroni_test([2.7, 2.6, -2.7, 0.0, 1.0, 2.0], 0.05)
        assert decision.rejected_indices() == [1, 3]
        assert decision.meta["cut"] == pytest.approx(2.638257, abs=1e-6)

    def test_closure_dominates_bonferroni(self, table_k4):
        rng = np.random.default_rng(31)
        z = rng.normal(loc=rng.choice([0.0, 2.8], size=(200, 6)), scale=1.0)
        for row in z:
            closed = set(closed_test(row, table_k4).rejected_indices())
            bonf = set(bonferroni_test(row, 0.05).rejected_indices())
            assert bonf <= closed

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, 3.0, -0.1, np.nan])
    @pytest.mark.parametrize(
        "comparator",
        [
            lambda alpha: unadjusted_test([0.1, -0.2], alpha),
            lambda alpha: unadjusted_test([5.0], alpha),
            lambda alpha: gatekeeping_test([0.1, 0.1], alpha),
            lambda alpha: bonferroni_test([0.1, 0.1], alpha),
            lambda alpha: bonferroni_cut(alpha, 3),
        ],
        ids=["unadjusted", "unadjusted-one", "gatekeeping", "bonferroni", "bonferroni-cut"],
    )
    def test_comparators_reject_alpha_outside_the_unit_interval(self, comparator, alpha):
        # unchecked, alpha 1.5 gives a negative cut that rejects everything
        # and alpha 3 a NaN cut that rejects nothing
        with pytest.raises(ValueError, match="alpha must lie strictly between 0 and 1"):
            comparator(alpha)

    def test_gatekeeping_natural_order(self):
        decision = gatekeeping_test([3.0, 0.1, 4.0], 0.05)
        assert decision.rejected_indices() == [1]

    def test_gatekeeping_custom_order(self):
        decision = gatekeeping_test([3.0, 0.1, 4.0], 0.05, order=[3, 1, 2])
        assert decision.rejected_indices() == [1, 3]
        assert decision.meta["order"] == [3, 1, 2]

    def test_gatekeeping_rejects_order_that_is_not_a_permutation(self):
        with pytest.raises(ValueError):
            gatekeeping_test([1.0, 2.0], 0.05, order=[1, 1])

    @pytest.mark.parametrize("order", [[1, 2.5, 3], ["3", 1, 2], [3, True, 2]],
                             ids=["fraction", "string", "boolean"])
    def test_gatekeeping_order_entries_must_be_whole_numbers(self, order):
        with pytest.raises(ValueError, match="^an order entry must be a whole number, got "):
            gatekeeping_test([3.0, 0.1, 4.0], 0.05, order=order)

    def test_gatekeeping_whole_float_order_reads_as_ints(self):
        decision = gatekeeping_test([3.0, 0.1, 4.0], 0.05, order=[3.0, np.int64(1), 2])
        assert decision == gatekeeping_test([3.0, 0.1, 4.0], 0.05, order=[3, 1, 2])
        assert decision.meta["order"] == [3, 1, 2]

    def test_comparator_local_covers_every_subset(self, cfg_k4, table_k4):
        rng = np.random.default_rng(34)
        z = rng.normal(scale=2.0, size=6)
        for decision in (
            bonferroni_test(z, 0.05),
            gatekeeping_test(z, 0.05, order=[2, 5, 1, 6, 3, 4]),
            tukey_global_test(z, cfg_k4, 0.05, table=table_k4),
        ):
            assert len(decision.local) == 63
            for k in range(1, 7):
                implied = all(v for s, v in decision.local.items() if k in s)
                assert decision.rejected[k - 1] == implied
        assert bonferroni_test(rng.normal(size=13), 0.05).local is None

    def test_gatekeeping_global_is_conjunction_of_local(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            z = rng.normal(scale=2.0, size=6)
            order = list(rng.permutation(np.arange(1, 7)))
            decision = gatekeeping_test(z, 0.05, order=order)
            for k in range(1, 7):
                implied = all(v for s, v in decision.local.items() if k in s)
                assert decision.rejected[k - 1] == implied

    def test_tukey_single_step(self, cfg_k4, table_k4):
        c_full = table_k4.value(table_k4.full_set())
        z = [c_full + 0.01, c_full - 0.01, 0.0, 0.0, 0.0, -(c_full + 0.2)]
        decision = tukey_global_test(z, cfg_k4, 0.05, table=table_k4)
        assert decision.rejected_indices() == [1, 6]
        assert decision.meta["cut"] == pytest.approx(c_full)

    def test_closure_dominates_tukey(self, cfg_k4, table_k4):
        rng = np.random.default_rng(33)
        z = rng.normal(loc=rng.choice([0.0, 2.8], size=(200, 6)), scale=1.0)
        for row in z:
            closed = set(closed_test(row, table_k4).rejected_indices())
            tukey = set(
                tukey_global_test(row, cfg_k4, 0.05, table=table_k4).rejected_indices()
            )
            assert tukey <= closed

    def test_tukey_equals_closure_for_two_arms(self):
        cfg = TrialConfig.single_stage(2, 1.0, 50)
        table = critical_values(cfg, 0.05)
        for z in ([2.5], [1.5], [-2.0]):
            a = tukey_global_test(z, cfg, 0.05, table=table)
            b = closed_test(z, table)
            assert a.rejected == b.rejected

    def test_tukey_requires_balanced_design(self):
        uneven_n = TrialConfig(3, (1.0, 1.0, 1.0), ((50, 25, 25),))
        with pytest.raises(ValueError):
            tukey_global_test([1.0, 1.0, 1.0], uneven_n, 0.05)
        uneven_var = TrialConfig.single_stage(3, (1.0, 2.0, 1.0), 50)
        with pytest.raises(ValueError):
            tukey_global_test([1.0, 1.0, 1.0], uneven_var, 0.05)

    def test_tukey_rejects_a_table_for_another_design(self, cfg_k4, table_k4):
        z = [0.0] * 6
        with pytest.raises(ValueError, match="different config or alpha"):
            tukey_global_test(z, cfg_k4, 0.01, table=table_k4)
        wide = TrialConfig.single_stage(4, 1.0, 200)
        with pytest.raises(ValueError, match="different config or alpha"):
            tukey_global_test(z, wide, 0.05, table=table_k4)

    def test_unadjusted(self):
        decision = unadjusted_test([2.0, -2.0, 1.9], 0.05)
        assert decision.rejected_indices() == [1, 2]
        assert decision.procedure == "unadjusted"

    @given(st.lists(st.floats(-4, 4), min_size=6, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_bonferroni_never_exceeds_unadjusted(self, z):
        bonf = set(bonferroni_test(z, 0.05).rejected_indices())
        unadj = set(unadjusted_test(z, 0.05).rejected_indices())
        assert bonf <= unadj

    @given(st.lists(st.floats(-4, 4), min_size=4, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_gatekeeping_rejections_form_a_prefix(self, z):
        decision = gatekeeping_test(z, 0.05)
        flags = list(decision.rejected)
        assert flags == sorted(flags, reverse=True)
