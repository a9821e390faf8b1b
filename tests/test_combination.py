"""Stage-wise p-values, inverse-normal combination, and flexible closure."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri
from scipy.stats import kstest

from pairwise_closure.closure import _all_subsets, _closure_rule, closed_test
from pairwise_closure.combination import (
    CombinationWeights,
    StagePValue,
    TailProbabilityTable,
    _MonotoneCubic,
    _score,
    _singleton_p,
    batch_flexible_test,
    combine,
    flexible_closed_test,
    stage_pvalue,
)
from pairwise_closure.model import TrialConfig, _max_statistic
from pairwise_closure.sequential import StageData
from pairwise_closure.simulate import simulate_statistics

# Empirical tail oracle: P(max |Z| > 2.0) for the three pairwise statistics
# of three equally sized arms, from 10^7 draws (seed 20260814); the standard
# error of the estimate is 1.0e-4.
K3_MAX_ABS_TAIL_AT_2 = 0.112039
# 1 - Phi(sqrt(0.5) * 2 * Phi^{-1}(0.95)), the equal-weight two-stage
# combination of two p = 0.05 stages
COMBINED_05_05 = 0.010004627


# Exact bits of the combination layer: a refactor that moves any of them
# fails here.
# tail_table.pvalue over np.linspace(0.5, 3.5, 7), for {1, 2, 3} and {1, 3}:
# grid nodes, where Phi(-h) round-trips the exact 1 - G to within 6e-17
TAIL_PVALUE_BITS = {
    (1, 2, 3): [0.8713081045015412, 0.5768469553307594, 0.29090495566052443,
                0.11218311427809718, 0.03324180346949865, 0.007608050218787195,
                0.0013515137632375005],
    (1, 3): [0.8349147393086678, 0.502028222160792, 0.23023811187115584,
             0.08288814738035738, 0.023499883060959726, 0.005235812659905797,
             0.0009157627456558573],
}
# flexible_closed_test combined p-values on PINNED_STAGE_Z (both stages)
PINNED_STAGE_Z = np.array([[2.4, -0.3, 1.1], [2.0, 0.8, -1.6]])
COMBINED_P_BITS = {
    (1,): 0.0034200266707986966,
    (2,): 0.645397625074693,
    (3,): 0.09692448465094089,
    (1, 2): 0.010683666506083858,
    (1, 3): 0.010683666506083858,
    (2, 3): 0.23356569228421387,
    (1, 2, 3): 0.019182902024115968,
}
# batch_flexible_test rejections per row of the batch below, with tail_table
BATCH_FLEXIBLE_REJECTED = [
    "101", "000", "000", "000", "110", "110", "000", "010", "111", "000",
    "111", "010", "100", "000", "000", "111", "010", "000", "100", "010",
    "101", "010", "111", "110", "000", "000", "011", "001", "010", "001",
    "001", "001", "100", "000", "000", "000", "111", "000", "100", "101",
]


def _pinned_batch() -> np.ndarray:
    return np.random.default_rng(2026).normal(scale=1.8, size=(40, 2, 3))


@pytest.fixture(scope="module")
def tail_table(cfg_k3_q2) -> TailProbabilityTable:
    return TailProbabilityTable(cfg_k3_q2, seed=5)


def _stage_z(rng: np.random.Generator, n: int) -> np.ndarray:
    arms = rng.standard_normal((n, 3))
    r = math.sqrt(2.0)
    return np.stack(
        [
            (arms[:, 0] - arms[:, 1]) / r,
            (arms[:, 0] - arms[:, 2]) / r,
            (arms[:, 1] - arms[:, 2]) / r,
        ],
        axis=1,
    )


class TestCombinationWeights:
    def test_normalization(self):
        w = CombinationWeights((3.0, 4.0))
        assert w.weights == pytest.approx((0.6, 0.8))
        assert sum(v * v for v in w.weights) == pytest.approx(1.0)

    def test_equal(self):
        w = CombinationWeights.equal(4)
        assert w.weights == pytest.approx((0.5,) * 4)
        assert w.n_stages == 4

    def test_from_information(self, cfg_k3_q2):
        w = CombinationWeights.from_information(cfg_k3_q2)
        assert w.weights == pytest.approx((math.sqrt(0.5), math.sqrt(0.5)))

    @pytest.mark.parametrize("bad", [(), (1.0, -1.0), (0.0,), (math.nan, 1.0)])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            CombinationWeights(bad)

    @pytest.mark.parametrize("bad", [("1", 2.0), (1.0, True), (np.True_,)],
                             ids=["string", "boolean", "np-boolean"])
    def test_strings_and_booleans_are_not_weights(self, bad):
        with pytest.raises(ValueError, match="a stage weight must be a real number"):
            CombinationWeights(bad)


class TestStagePValue:
    def test_singleton_is_the_two_sided_tail(self, cfg_k3_q2):
        got = stage_pvalue(cfg_k3_q2, [1], [1.959964, 0.0, 0.0])
        assert got.p == pytest.approx(0.05, abs=1e-7)
        assert got.subset == frozenset({1})
        assert got.stage == 1
        # the sign does not matter
        neg = stage_pvalue(cfg_k3_q2, [1], [-1.959964, 0.0, 0.0])
        assert neg.p == pytest.approx(got.p, abs=1e-12)

    def test_one_sided_singleton(self):
        cfg = TrialConfig.single_stage(2, 1.0, 50, sided="one-sided")
        got = stage_pvalue(cfg, [1], [1.5, -1.5])
        assert got.p == pytest.approx(1.0 - ndtr(1.5), abs=1e-12)
        # the reversed pair folds to a two-sided tail because its statistics
        # are mirror images
        both = stage_pvalue(cfg, [1, 2], [1.5, -1.5])
        assert both.p == pytest.approx(2.0 * (1.0 - ndtr(1.5)), abs=2e-4)

    @pytest.mark.parametrize("members", [["2", 1.7, True], [1, 2.5], [True, 2]],
                             ids=["mixed", "fraction", "boolean"])
    def test_comparison_indices_must_be_whole_numbers(self, cfg_k3_q2, members):
        with pytest.raises(ValueError, match="^a comparison index must be a whole number, got "):
            stage_pvalue(cfg_k3_q2, members, [0.5, 1.0, 2.0])

    def test_whole_float_and_numpy_indices_read_as_ints(self, cfg_k3_q2):
        z = [0.5, 1.0, 2.0]
        got = stage_pvalue(cfg_k3_q2, [1, 2], z)
        assert stage_pvalue(cfg_k3_q2, [2.0, 1.0], z) == got
        assert stage_pvalue(cfg_k3_q2, [np.int64(2), 1], z) == got

    def test_zero_statistic_gives_p_one(self, cfg_k3_q2):
        assert stage_pvalue(cfg_k3_q2, [1, 2, 3], [0.0, 0.0, 0.0]).p == 1.0

    def test_full_set_matches_simulation_oracle(self, cfg_k3_q2):
        got = stage_pvalue(cfg_k3_q2, [1, 2, 3], [2.0, 0.0, 0.0], seed=1)
        assert got.p == pytest.approx(K3_MAX_ABS_TAIL_AT_2, abs=5e-4)

    def test_deterministic(self, cfg_k3_q2):
        z = [1.1, -0.4, 2.3]
        a = stage_pvalue(cfg_k3_q2, [1, 2], z, seed=9)
        b = stage_pvalue(cfg_k3_q2, [1, 2], z, seed=9)
        assert a == b

    def test_validation(self, cfg_k3_q2):
        with pytest.raises(ValueError):
            stage_pvalue(cfg_k3_q2, [], [0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            stage_pvalue(cfg_k3_q2, [4], [0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            stage_pvalue(cfg_k3_q2, [1], [0.0, 0.0])
        with pytest.raises(ValueError):
            stage_pvalue(cfg_k3_q2, [1], [np.inf, 0.0, 0.0])
        for stage in (2.5, 0, -3, 3, True):
            with pytest.raises(ValueError, match="stage must"):
                stage_pvalue(cfg_k3_q2, [1, 2], [0.0, 0.0, 0.0], stage=stage)
        assert stage_pvalue(cfg_k3_q2, [1], [1.0, 0.0, 0.0], stage=2.0) == stage_pvalue(
            cfg_k3_q2, [1], [1.0, 0.0, 0.0], stage=2)


class TestCombine:
    def test_single_stage_is_the_identity(self):
        assert combine([0.123], CombinationWeights.equal(1)) == pytest.approx(
            0.123, abs=1e-12
        )

    def test_neutral_stages(self):
        assert combine([0.5, 0.5]) == pytest.approx(0.5, abs=1e-12)

    def test_two_significant_stages(self):
        got = combine([0.05, 0.05], (math.sqrt(0.5), math.sqrt(0.5)))
        assert got == pytest.approx(COMBINED_05_05, rel=1e-6)

    def test_accepts_stage_pvalue_objects(self, cfg_k3_q2):
        ps = [
            stage_pvalue(cfg_k3_q2, [1], [1.0, 0.0, 0.0], stage=1),
            stage_pvalue(cfg_k3_q2, [1], [2.0, 0.0, 0.0], stage=2),
        ]
        direct = combine([ps[0].p, ps[1].p])
        assert combine(ps) == pytest.approx(direct, abs=1e-15)

    @pytest.mark.parametrize("bad", [["0.02", 0.5], [0.02, True], [np.False_, 0.5]],
                             ids=["string", "boolean", "np-boolean"])
    def test_strings_and_booleans_are_not_p_values(self, bad):
        with pytest.raises(ValueError, match="a stage p-value must be a real number"):
            combine(bad)

    def test_elementwise_arrays(self):
        a = np.array([0.05, 0.5, 0.9])
        b = np.array([0.05, 0.5, 0.2])
        got = combine([a, b])
        assert got.shape == (3,)
        assert got[0] == pytest.approx(COMBINED_05_05, rel=1e-6)
        assert got[1] == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_inputs_are_clamped(self):
        # 0 and 1 are valid p-values, clamped into the open interval silently
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lo = combine([0.0, 0.5])
        assert 0.0 <= lo < 0.05
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hi = combine([1.0, 0.5])
        assert 0.05 < hi <= 1.0

    @pytest.mark.parametrize("bad", [1.5, -0.2, np.array([0.5, 1.5]),
                                     np.array([-0.2, 0.0])],
                             ids=["above", "below", "array-above", "array-below"])
    def test_values_outside_the_unit_interval_warn(self, bad):
        with pytest.warns(RuntimeWarning, match=r"outside \[0, 1\] were clamped"):
            got = combine([bad, 0.5])
        # clamped exactly as the nearest valid p-value is
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(got, combine([np.clip(bad, 0.0, 1.0), 0.5]))

    def test_validation(self):
        with pytest.raises(ValueError):
            combine([])
        with pytest.raises(ValueError):
            combine([0.5, 0.5], (1.0,))
        with pytest.raises(ValueError):
            combine([np.nan, 0.5])

    @settings(max_examples=60, deadline=None)
    @given(
        p1=st.floats(0.02, 0.98),
        p2=st.floats(0.02, 0.98),
        drop=st.floats(0.005, 0.015),
    )
    def test_strictly_decreasing_in_each_stage(self, p1, p2, drop):
        base = combine([p1, p2])
        assert combine([p1 - drop, p2]) < base
        assert combine([p1, p2 - drop]) < base


class TestFlexibleClosedTest:
    def test_single_look_matches_single_stage_closure(self, cfg_k3, table_k3):
        crits = set(table_k3.entries().values())
        rng = np.random.default_rng(21)
        checked = 0
        while checked < 40:
            z = rng.normal(scale=1.6, size=3)
            if min(abs(abs(v) - c) for v in z for c in crits) < 2e-2:
                continue
            data = StageData(cfg_k3, z[None, :], z[None, :])
            flexible = flexible_closed_test(data, CombinationWeights.equal(1))
            assert flexible.rejected == closed_test(z, table_k3).rejected
            checked += 1

    def test_overwhelming_evidence(self, cfg_k3_q2):
        z = np.full((2, 3), 6.0)
        decision = flexible_closed_test(StageData(cfg_k3_q2, z, z))
        assert decision.rejected == (True, True, True)
        assert decision.procedure == "dunnett-combination"

    def test_null_stages_reject_nothing(self, cfg_k3_q2):
        z = np.zeros((2, 3))
        # a max statistic of exactly zero yields a stage p of one, which the
        # combination clamps into the open interval without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            decision = flexible_closed_test(StageData(cfg_k3_q2, z, z))
        assert decision.rejected == (False, False, False)
        assert all(p > 0.49 for p in decision.meta["combined_p"].values())

    def test_every_subset_is_reported_in_lattice_order(self, cfg_k3_q2):
        z = np.full((2, 3), 0.1)
        decision = flexible_closed_test(StageData(cfg_k3_q2, z, z))
        lattice = _all_subsets(3)
        assert decision.local[frozenset({1, 2, 3})] is False
        assert list(decision.local) == lattice
        assert list(decision.meta["combined_p"]) == lattice
        assert all(p > 0.5 for p in decision.meta["combined_p"].values())

    def test_combined_p_bits_are_pinned(self, cfg_k3_q2):
        z = PINNED_STAGE_Z
        decision = flexible_closed_test(StageData(cfg_k3_q2, z, z))
        assert decision.meta["combined_p"] == {
            frozenset(s): p for s, p in COMBINED_P_BITS.items()
        }
        assert decision.rejected == (True, False, False)

    def test_meta_and_local(self, cfg_k3_q2):
        z = np.array([[3.5, 0.5, 0.1], [3.5, 0.5, 0.1]])
        decision = flexible_closed_test(StageData(cfg_k3_q2, z, z))
        assert len(decision.meta["combined_p"]) == 7
        assert decision.meta["analyses"] == 2
        assert decision.local[frozenset({1})]
        assert not decision.local[frozenset({3})]
        assert decision.stopped_stage is None

    def test_weight_count_must_match_executed_analyses(self, cfg_k3_q2):
        z = np.zeros((1, 3))
        with pytest.raises(ValueError, match="weights"):
            flexible_closed_test(
                StageData(cfg_k3_q2, z, z), CombinationWeights.equal(2)
            )

    def test_alpha_validation(self, cfg_k3_q2):
        z = np.zeros((2, 3))
        with pytest.raises(ValueError):
            flexible_closed_test(StageData(cfg_k3_q2, z, z), alpha=0.0)

    def test_enumeration_guard(self):
        cfg = TrialConfig.single_stage(6, 1.0, 50)
        z = np.zeros((1, 15))
        with pytest.raises(ValueError, match="enumeration"):
            flexible_closed_test(StageData(cfg, z, z))


class TestTailProbabilityTable:
    def test_matches_exact_pvalues(self, cfg_k3_q2, tail_table):
        rng = np.random.default_rng(3)
        for _ in range(40):
            z = rng.normal(scale=1.5, size=3)
            for members in ([1, 2], [1, 2, 3]):
                exact = stage_pvalue(cfg_k3_q2, members, z).p
                z_obs = np.abs(z[[k - 1 for k in members]]).max()
                assert tail_table.pvalue(members, z_obs) == pytest.approx(
                    exact, abs=1e-4
                )

    def test_copy_with_a_new_grid_starts_a_fresh_cache(self, tail_table):
        tail_table.pvalue([1, 2], 1.0)
        for change in ({"grid_step": 0.1}, {"seed": 6}, {"accuracy": 1e-3}):
            copy = replace(tail_table, **change)
            assert not copy._class_values and not copy._subset_keys
        same = replace(tail_table)
        assert not same._class_values and not same._subset_keys

    def test_singletons_are_exact(self, tail_table):
        z = np.array([0.0, 1.0, 2.5, 7.9])
        assert tail_table.pvalue([2], z) == pytest.approx(2.0 * ndtr(-z))
        assert tail_table.pvalue([2], 1.0) == pytest.approx(2.0 * ndtr(-1.0))

    def test_extremes(self, tail_table):
        assert tail_table.pvalue([1, 2], 0.0) == pytest.approx(1.0, abs=1e-6)
        assert tail_table.pvalue([1, 2], 12.0) <= 1e-8
        got = tail_table.pvalue([1, 2, 3], np.array([0.0, 9.0]))
        assert got[0] > 0.999
        assert got[1] < 1e-8

    @pytest.mark.parametrize("sided", ["two-sided", "one-sided"])
    @pytest.mark.parametrize("step", [0.0, -0.05, math.nan, math.inf, 100.0])
    def test_grid_step_is_validated_at_construction(self, sided, step):
        cfg = TrialConfig.single_stage(3, 1.0, 100, sided=sided)
        with pytest.raises(ValueError, match="grid_step"):
            TailProbabilityTable(cfg, grid_step=step)

    @pytest.mark.parametrize("sided, span", [("two-sided", 8.0), ("one-sided", 16.0)])
    def test_coarsest_grid_has_two_nodes(self, sided, span):
        cfg = TrialConfig.single_stage(3, 1.0, 100, sided=sided)
        coarsest = TailProbabilityTable(cfg, grid_step=np.nextafter(2.0 * span, 0.0))
        assert coarsest._grid().tolist() == [8.0 - span, 8.0]
        with pytest.raises(ValueError, match="grid_step"):
            TailProbabilityTable(cfg, grid_step=2.0 * span)

    def test_validation(self, tail_table):
        with pytest.raises(ValueError):
            tail_table.pvalue([], 1.0)
        with pytest.raises(ValueError):
            tail_table.pvalue([9], 1.0)


    @pytest.mark.parametrize("sided, members", [("two-sided", [1, 2]),
                                                ("two-sided", [1, 2, 3]),
                                                ("one-sided", [1, 4])])
    def test_scores_where_g_rises_from_zero(self, sided, members):
        # G is zero up to c = 0, and the score climbs from -inf over the
        # next intervals; {1, 4} holds both directions of the first pair
        cfg = TrialConfig.single_stage(3, 1.0, 50, sided=sided)
        table = TailProbabilityTable(cfg, seed=5)
        z = np.linspace(0.002, 0.2, 34)
        exact = [_score(stage_pvalue(cfg, members, np.full(cfg.n_comparisons, v)).p)
                 for v in z]
        assert np.abs(table.score(members, z) - exact).max() < 5e-3
        if sided == "one-sided":
            assert table.pvalue(members, -0.5) == 1.0 - 1e-16

    def test_pvalue_bits_are_pinned(self, tail_table):
        z = np.linspace(0.5, 3.5, 7)
        for members, expect in TAIL_PVALUE_BITS.items():
            assert tail_table.pvalue(members, z).tolist() == expect


@st.composite
def _cubic_nodes(draw):
    """A grid of 2, 3 or 161 nodes on [0, 8] or [-8, 8] and values in [0, 1]
    with runs of exact 0 (or -0.0) and 1: nondecreasing, as a table's G(c),
    unless the draw leaves the middle values unsorted, which reaches the
    shape-preserving branches a monotone G never takes."""
    n = draw(st.sampled_from([2, 3, 161]))
    lo = draw(st.sampled_from([0.0, -8.0]))
    zeros = draw(st.integers(0, n))
    ones = draw(st.integers(0, n - zeros))
    zero = draw(st.sampled_from([0.0, -0.0]))
    inner = draw(st.lists(st.floats(0.0, 1.0), min_size=n - zeros - ones,
                          max_size=n - zeros - ones))
    if draw(st.booleans()):
        inner.sort()
    return np.linspace(lo, 8.0, n), np.array([zero] * zeros + inner + [1.0] * ones)


class TestMonotoneCubic:
    """The table's cubic against scipy's PchipInterpolator, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(nodes=_cubic_nodes(), between=st.lists(st.floats(-9.0, 9.0), max_size=20))
    # the first end slope is cut to three times the first segment's slope
    @example(nodes=(np.linspace(0.0, 8.0, 3), np.array([0.5, 0.6, 0.1])), between=[])
    def test_matches_pchip_to_the_last_bit(self, nodes, between):
        from scipy.interpolate import PchipInterpolator

        x, y = nodes
        z = np.concatenate([
            x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf),
            [x[0] - 1.0, x[-1] + 1.0, -np.inf, np.inf, np.nan], between,
        ])
        with np.errstate(over="ignore"):
            # scipy warns when a tiny slope overflows its harmonic mean
            expect = PchipInterpolator(x, y, extrapolate=False)(z)
        assert _MonotoneCubic(x, y)(z).tobytes() == expect.tobytes()

    @pytest.mark.parametrize("lo", [0.0, -8.0])
    def test_matches_pchip_on_many_points(self, lo):
        # a tail table's grid and a G that rises from zero to one on it;
        # every node, one ulp either side of it, both ends and beyond, NaN
        from scipy.interpolate import PchipInterpolator

        x = np.linspace(lo, 8.0, int(round((8.0 - lo) / 0.05)) + 1)
        y = np.maximum(2.0 * ndtr(x) - 1.0, 0.0) ** 3
        rng = np.random.default_rng(23)
        z = np.concatenate([
            rng.uniform(lo - 0.5, 8.5, 100_000), x, np.nextafter(x, -np.inf),
            np.nextafter(x, np.inf), [-np.inf, np.inf, np.nan],
        ])
        expect = PchipInterpolator(x, y, extrapolate=False)(z)
        assert _MonotoneCubic(x, y)(z).tobytes() == expect.tobytes()

    def test_keeps_the_input_shape(self):
        from scipy.interpolate import PchipInterpolator

        x = np.linspace(0.0, 8.0, 5)
        y = np.array([0.0, 0.5, 0.8, 1.0, 1.0])
        oracle = PchipInterpolator(x, y, extrapolate=False)
        cubic = _MonotoneCubic(x, y)
        for z in (3.3, np.array([[0.1, 9.0], [np.nan, 8.0]]), np.empty(0)):
            got, expect = cubic(z), oracle(z)
            assert got.shape == expect.shape
            assert got.tobytes() == expect.tobytes()


class TestNullUniformity:
    def test_stage_pvalues_are_uniform(self, tail_table):
        rng = np.random.default_rng(17)
        z = _stage_z(rng, 10_000)
        for members in ([1], [1, 2], [1, 2, 3]):
            cols = [k - 1 for k in members]
            p = tail_table.pvalue(members, np.abs(z[:, cols]).max(axis=1))
            assert kstest(p, "uniform").pvalue > 0.01

    def test_combined_pvalues_are_uniform(self, tail_table):
        rng = np.random.default_rng(19)
        for q in (2, 3):
            stages = [
                tail_table.pvalue(
                    [1, 2, 3], np.abs(_stage_z(rng, 10_000)).max(axis=1)
                )
                for _ in range(q)
            ]
            combined = combine(stages, CombinationWeights.equal(q))
            assert kstest(combined, "uniform").pvalue > 0.01


class TestBatchFlexibleTest:
    def test_matches_scalar_decisions(self, cfg_k3_q2, tail_table):
        rng = np.random.default_rng(3)
        zs = rng.normal(scale=1.8, size=(40, 2, 3))
        batch = batch_flexible_test(zs, cfg_k3_q2, table=tail_table)
        for row, flags in zip(zs, batch):
            scalar = flexible_closed_test(StageData(cfg_k3_q2, np.zeros((2, 3)), row))
            assert tuple(flags) == scalar.rejected

    def test_memory_layout_changes_nothing(self, cfg_k3_q2, tail_table):
        # the same values C-ordered and with the replicate index innermost
        zs = np.random.default_rng(4).normal(scale=1.8, size=(500, 2, 3))
        inner = np.ascontiguousarray(zs.T).T
        expect = batch_flexible_test(zs, cfg_k3_q2, table=tail_table)
        got = batch_flexible_test(inner, cfg_k3_q2, table=tail_table)
        assert np.array_equal(got, expect)
        assert got.flags.f_contiguous
        assert 0 < expect.sum() < expect.size

    def test_fwer_under_adaptive_stage_sizes(self, cfg_k3_q2, tail_table):
        # stage 2 is resized from the stage-1 data; the stage-wise statistics
        # stay null-uniform, so the familywise error cannot inflate
        rng = np.random.default_rng(29)
        n = 60_000
        n1 = 50
        mean1 = rng.standard_normal((n, 3)) * math.sqrt(n1) / n1
        r = math.sqrt(2.0 / n1)
        z1 = np.stack(
            [
                (mean1[:, 0] - mean1[:, 1]) / r,
                (mean1[:, 0] - mean1[:, 2]) / r,
                (mean1[:, 1] - mean1[:, 2]) / r,
            ],
            axis=1,
        )
        n2 = np.where(np.abs(z1).max(axis=1) > 1.2, 25, 400)
        mean2 = rng.standard_normal((n, 3)) * np.sqrt(n2)[:, None] / n2[:, None]
        r2 = np.sqrt(2.0 / n2)
        z2 = np.stack(
            [
                (mean2[:, 0] - mean2[:, 1]) / r2,
                (mean2[:, 0] - mean2[:, 2]) / r2,
                (mean2[:, 1] - mean2[:, 2]) / r2,
            ],
            axis=1,
        )
        zs = np.stack([z1, z2], axis=1)
        weights = CombinationWeights.from_information(cfg_k3_q2)
        rejected = batch_flexible_test(zs, cfg_k3_q2, weights, table=tail_table)
        fwer = rejected.any(axis=1).mean()
        assert fwer <= 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / n)
        assert fwer > 0.01

    def test_decisions_are_pinned(self, cfg_k3_q2, tail_table):
        rejected = batch_flexible_test(_pinned_batch(), cfg_k3_q2, table=tail_table)
        assert [
            "".join(str(int(v)) for v in row) for row in rejected
        ] == BATCH_FLEXIBLE_REJECTED

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_statistics_are_rejected(self, cfg_k3_q2, tail_table, bad):
        z = np.zeros((3, 2, 3))
        z[1, 0, 2] = bad
        with pytest.raises(ValueError, match="statistics must be finite"):
            batch_flexible_test(z, cfg_k3_q2, table=tail_table)

    def test_table_for_another_design_is_rejected(self, cfg_k3_q2, tail_table):
        # with this table 185 of the rows got other decisions than with the
        # right one, and nothing was raised
        other = TrialConfig.single_stage(3, (1.0, 4.0, 0.25), (50, 20, 80))
        other = other.with_stage_n(((50, 20, 80), (100, 40, 160)))
        z = np.random.default_rng(1).standard_normal((4000, 2, 3)) + [2.0, 0.5, -1.5]
        wrong = TailProbabilityTable(other, accuracy=1e-3)
        with pytest.raises(ValueError, match="^table was built for a different config$"):
            batch_flexible_test(z, cfg_k3_q2, table=wrong)
        # an equal design built separately passes the check
        same = TrialConfig.single_stage(3, 1.0, 50).with_stage_n(
            ((50, 50, 50), (100, 100, 100)))
        assert np.array_equal(batch_flexible_test(z[:200], same, table=tail_table),
                              batch_flexible_test(z[:200], cfg_k3_q2, table=tail_table))

    def test_input_validation(self, cfg_k3_q2, tail_table):
        with pytest.raises(ValueError):
            batch_flexible_test(np.zeros((5, 2)), cfg_k3_q2, table=tail_table)
        with pytest.raises(ValueError):
            batch_flexible_test(np.zeros((5, 2, 4)), cfg_k3_q2, table=tail_table)
        with pytest.raises(ValueError):
            batch_flexible_test(
                np.zeros((5, 2, 3)), cfg_k3_q2, alpha=1.5, table=tail_table
            )


class TestScoreScaleRule:
    """The batch rule sums tabulated scores h = -Phi^{-1}(1 - G) against
    Phi^{-1}(1 - alpha).  The rule it replaced interpolated G itself and
    combined 1 - G through :func:`combine`; both are rebuilt here from the
    same grid solves.  Where they differ, the new decision is the exact one
    (from :func:`stage_pvalue`), or some subset's exact combined score lies
    within EPS of the cut."""

    EPS = 1e-3
    MOVED_AT_MOST = 2

    @pytest.mark.parametrize("sided", ["two-sided", "one-sided"])
    def test_decisions_move_only_at_the_cut(self, sided, monkeypatch):
        cfg = TrialConfig.single_stage(3, 1.0, 50, sided=sided).with_stage_n(
            ((50, 50, 50), (100, 100, 100)))
        nodes = {}
        probabilities = TailProbabilityTable._probabilities

        def recording(table, key):
            nodes[key] = probabilities(table, key)
            return nodes[key]

        monkeypatch.setattr(TailProbabilityTable, "_probabilities", recording)
        table = TailProbabilityTable(cfg, seed=5)
        weights = CombinationWeights.from_information(cfg)
        alpha, cut = 0.05, -ndtri(0.05)
        # strong effects, so that a stage far past the cut meets a stage
        # whose statistics are near zero
        _, z = simulate_statistics(cfg, (0.6, 0.0, 0.3), 20_000, seed=3)
        new = batch_flexible_test(z, cfg, weights, alpha, table=table)
        grid = table._grid()

        def stage_ps(subset, top):
            if len(subset) == 1:
                return [_singleton_p(top[:, q], cfg.sided) for q in range(2)]
            table.value(subset)
            g = _MonotoneCubic(grid, nodes[table._key(frozenset(subset))])
            return [np.clip(1.0 - g(np.clip(top[:, q], grid[0], grid[-1])), 0.0, 1.0)
                    for q in range(2)]

        old = _closure_rule(_max_statistic(z, cfg.sided),
                            lambda s, top: combine(stage_ps(s, top), weights) < alpha)[0]
        assert 0 < new.sum() < new.size
        moved = np.flatnonzero((new != old).any(axis=1))
        assert len(moved) <= self.MOVED_AT_MOST
        for row in moved:
            exact = flexible_closed_test(StageData(cfg, z[row], z[row]), weights)
            scores = [sum(w * _score(stage_pvalue(cfg, s, z[row, q]).p)
                          for q, w in enumerate(weights.weights))
                      for s in _all_subsets(cfg.n_comparisons)]
            assert (tuple(new[row]) == exact.rejected
                    or min(abs(e - cut) for e in scores) <= self.EPS), row


class TestPooledEquivalence:
    def test_information_weights_recover_the_pooled_one_sided_test(self):
        # with no adaptation, the inverse-normal score of a one-sided
        # singleton is exactly the pooled cumulative statistic
        cfg = TrialConfig.single_stage(2, 1.0, 50, sided="one-sided").with_stage_n(
            ((50, 50), (100, 100))
        )
        rng = np.random.default_rng(7)
        data = StageData.from_cumulative_means(cfg, rng.normal(size=(2, 2)))
        weights = CombinationWeights.from_information(cfg)
        ps = [
            stage_pvalue(cfg, [1], data.z_stage[q], stage=q + 1)
            for q in range(2)
        ]
        combined = combine(ps, weights)
        assert combined == pytest.approx(1.0 - ndtr(data.z_cum[-1, 0]), abs=1e-10)
