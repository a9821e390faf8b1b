"""Error spending, per-subset stage boundaries, and the staged closed test."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from pairwise_closure import sequential
from pairwise_closure.closure import _all_subsets, closed_test
from pairwise_closure.model import TrialConfig, correlation, z_statistics
from pairwise_closure.mvn import _max_range, mvn_rect
from pairwise_closure.sequential import (
    SpendingSchedule,
    StageData,
    batch_gs_test,
    drop_treatments,
    generalised_boundaries,
    gs_boundaries,
    gs_closed_test,
    joint_covariance,
    stage_weights,
)

# Frozen two-look references at alpha = 0.05, information times (0.5, 1):
# the Pocock first-stage spend with its equal boundaries, the
# O'Brien-Fleming-type boundaries, and the per-class stage boundaries for
# three equally sized arms under linear spending (seed=3).  Recomputing any
# of them must agree to solver tolerance.
POCOCK_SPEND_1 = 0.029388
POCOCK_CONST = 2.1783
OBF_BOUNDS = (2.7718, 1.9793)
K3_STAGE_BOUNDS = {
    frozenset({1}): (2.2414, 2.1251),
    frozenset({1, 2}): (2.4775, 2.3760),
    frozenset({1, 2, 3}): (2.6038, 2.5064),
}

TWO_LOOKS = (0.5, 1.0)

# Exact bits of the session fixture ``gs_k3_q2`` (linear spend, seed 3, the
# default accuracy), one vector per class, and of one generalised vector.  A
# refactor of the cache or the root finder that moves a single bit fails.
K3_STAGE_BOUNDS_BITS = {
    1: (2.241402727604947, 2.1251187897555788),
    2: (2.4775024436969333, 2.3759270752956088),
    3: (2.603756500999651, 2.5063596293615693),
}
GENERALISED_OBF_BITS = (3.095615035399027, 2.3589110824174426)
# batch_gs_test on _pinned_batch() against gs_k3_q2: per row, the analysis at
# which each comparison's rejection completed (0 = not rejected)
BATCH_GS_STOPPED = [
    "201", "000", "000", "000", "210", "000", "000", "020", "111", "000",
    "200", "020", "100", "001", "000", "211", "020", "000", "200", "010",
    "000", "010", "212", "211", "011", "002", "012", "001", "000", "011",
    "000", "001", "220", "000", "000", "000", "021", "000", "222", "102",
]


@pytest.fixture(scope="module")
def cfg_k2_q2() -> TrialConfig:
    base = TrialConfig.single_stage(2, 1.0, 50)
    return base.with_stage_n(((50, 50), (100, 100)))


@pytest.fixture(scope="module")
def single_look_bounds(cfg_k3):
    sched = SpendingSchedule((1.0,), (0.05,))
    bounds = gs_boundaries(cfg_k3, sched, seed=2)
    bounds.entries()
    return bounds


@pytest.fixture(scope="module")
def gen_k3_q2(cfg_k3_q2):
    sched = SpendingSchedule.power_family(0.05, TWO_LOOKS, rho=1.0)
    return generalised_boundaries(cfg_k3_q2, sched, seed=3)


def _staged_null_z(cfg: TrialConfig, n_reps: int, seed: int) -> np.ndarray:
    """Cumulative pairwise statistics under the global null, (reps, Q, m)."""
    rng = np.random.default_rng(seed)
    inc = cfg.stage_increments()
    scale = np.sqrt(np.asarray(cfg.sigma2) * inc)
    sums = rng.standard_normal((n_reps, cfg.n_stages, cfg.n_arms)) * scale
    means = np.cumsum(sums, axis=1) / np.asarray(cfg.stage_n, dtype=float)
    se = np.array([cfg.sigma_p(q) for q in range(1, cfg.n_stages + 1)])
    ii = np.array([p.i - 1 for p in cfg.pairs()])
    jj = np.array([p.j - 1 for p in cfg.pairs()])
    return (means[:, :, ii] - means[:, :, jj]) / se


def _pinned_batch() -> np.ndarray:
    return np.random.default_rng(2026).normal(scale=1.8, size=(40, 2, 3))


class TestSpendingSchedule:
    def test_obrien_fleming_closed_form(self):
        sched = SpendingSchedule.obrien_fleming(0.05, TWO_LOOKS)
        z = ndtri(0.975)
        assert sched.per_stage[0] == pytest.approx(
            2.0 * (1.0 - ndtr(z / math.sqrt(0.5))), rel=1e-12
        )
        assert sched.per_stage[-1] == pytest.approx(0.05, abs=1e-12)
        assert sched.alpha == sched.per_stage[-1]
        assert sched.name == "obrien_fleming"

    def test_power_family_is_alpha_times_tau_to_rho(self):
        linear = SpendingSchedule.power_family(0.05, (0.25, 0.5, 1.0))
        assert linear.per_stage == pytest.approx((0.0125, 0.025, 0.05))
        quad = SpendingSchedule.power_family(0.05, TWO_LOOKS, rho=2.0)
        assert quad.per_stage == pytest.approx((0.0125, 0.05))
        assert quad.increments() == pytest.approx((0.0125, 0.0375))

    @pytest.mark.parametrize("rho", ["2", True], ids=["string", "boolean"])
    def test_power_family_rho_must_be_a_real_number(self, rho):
        with pytest.raises(ValueError, match="rho must be a real number"):
            SpendingSchedule.power_family(0.05, TWO_LOOKS, rho=rho)

    @pytest.mark.parametrize("rho", [0.0, -1.0, math.nan], ids=["zero", "negative", "nan"])
    def test_power_family_rho_must_be_positive(self, rho):
        with pytest.raises(ValueError, match="rho must be positive"):
            SpendingSchedule.power_family(0.05, TWO_LOOKS, rho=rho)

    @pytest.mark.parametrize("times", [("0.5", 1.0), (0.5, True)], ids=["string", "boolean"])
    def test_information_times_must_be_real_numbers(self, times):
        with pytest.raises(ValueError, match="an information time must be a real number"):
            SpendingSchedule.obrien_fleming(0.05, times)

    @pytest.mark.parametrize("spends", [("0.01", "0.05"), (0.01, True)],
                             ids=["string", "boolean"])
    def test_cumulative_spends_must_be_real_numbers(self, spends):
        with pytest.raises(ValueError, match="a cumulative spend must be a real number"):
            SpendingSchedule(TWO_LOOKS, spends)

    def test_pocock_two_looks(self):
        sched = SpendingSchedule.pocock(0.05, TWO_LOOKS)
        assert sched.per_stage[0] == pytest.approx(POCOCK_SPEND_1, abs=2e-4)
        assert sched.per_stage[1] == pytest.approx(0.05, abs=1e-12)

    def test_pocock_spends_faster_than_linear_early(self):
        sched = SpendingSchedule.pocock(0.05, (1 / 3, 2 / 3, 1.0))
        assert sched.per_stage[0] > 0.05 / 3
        assert sched.per_stage[1] > 0.05 * 2 / 3
        assert sched.per_stage == tuple(sorted(sched.per_stage))

    def test_pocock_single_look_is_trivial(self):
        assert SpendingSchedule.pocock(0.05, (1.0,)).per_stage == (0.05,)

    def test_from_function(self):
        sched = SpendingSchedule.from_function(
            lambda t: 0.05 * t * t, TWO_LOOKS, name="quad"
        )
        assert sched.per_stage == pytest.approx((0.0125, 0.05))
        assert sched.name == "quad"
        assert sched.n_stages == 2

    def test_scaled(self):
        sched = SpendingSchedule.power_family(0.05, TWO_LOOKS)
        half = sched.scaled(0.5)
        assert half.per_stage == pytest.approx((0.0125, 0.025))
        assert half.alpha == pytest.approx(0.025)
        with pytest.raises(ValueError):
            sched.scaled(30.0)

    def test_final_time_snaps_to_one(self):
        sched = SpendingSchedule((0.5, 1.0 - 1e-12), (0.025, 0.05))
        assert sched.info_times[-1] == 1.0

    @pytest.mark.parametrize(
        "times, spends",
        [
            ((0.5, 0.9), (0.025, 0.05)),  # last time is not 1
            ((0.5, 0.4, 1.0), (0.01, 0.02, 0.05)),  # not increasing
            ((0.0, 1.0), (0.025, 0.05)),  # time outside (0, 1]
            ((0.5, 1.0), (0.025,)),  # count mismatch
            ((0.5, 1.0), (0.05, 0.025)),  # decreasing spend
            ((0.5, 1.0), (0.025, 1.0)),  # spend outside [0, 1)
            ((1.0,), (0.0,)),  # zero total
            ((), ()),  # empty
        ],
    )
    def test_validation(self, times, spends):
        with pytest.raises(ValueError):
            SpendingSchedule(times, spends)


class TestJointCovariance:
    def test_single_look_is_the_single_stage_correlation(self, cfg_k3):
        joint = joint_covariance(cfg_k3)
        base = correlation(cfg_k3, (1, 2, 3)).matrix
        assert np.allclose(joint, base, atol=1e-14)

    def test_cross_stage_block_scales_by_information_ratio(self, cfg_k3_q2):
        joint = joint_covariance(cfg_k3_q2)
        base = correlation(cfg_k3_q2, (1, 2, 3)).matrix
        assert joint.shape == (6, 6)
        assert np.allclose(joint[:3, :3], base)
        assert np.allclose(joint[3:, 3:], base)
        assert np.allclose(joint[:3, 3:], math.sqrt(0.5) * base)
        assert np.all(np.linalg.eigvalsh(joint) > -1e-10)

    def test_single_comparison_cross_stage(self, cfg_k3_q2):
        joint = joint_covariance(cfg_k3_q2, members=(1,))
        r = math.sqrt(0.5)
        assert np.allclose(joint, [[1.0, r], [r, 1.0]])

    def test_disjoint_comparisons_stay_uncorrelated(self, cfg_k4):
        cfg = cfg_k4.with_stage_n(((100,) * 4, (200,) * 4))
        joint = joint_covariance(cfg, members=(1, 6))  # (1,2) and (3,4)
        assert joint[0, 1] == 0.0
        assert joint[0, 3] == 0.0
        assert joint[1, 2] == 0.0
        assert joint[0, 2] == pytest.approx(math.sqrt(0.5))


class TestBoundarySchedule:
    def test_pocock_boundaries_are_constant(self, cfg_k2_q2):
        sched = SpendingSchedule.pocock(0.05, TWO_LOOKS)
        bounds = gs_boundaries(cfg_k2_q2, sched, seed=1)
        c1, c2 = bounds.value({1})
        assert c1 == pytest.approx(POCOCK_CONST, abs=2e-3)
        assert c2 == pytest.approx(POCOCK_CONST, abs=2e-3)
        assert c1 == pytest.approx(c2, abs=1e-3)

    def test_obrien_fleming_boundaries(self, cfg_k2_q2):
        sched = SpendingSchedule.obrien_fleming(0.05, TWO_LOOKS)
        bounds = gs_boundaries(cfg_k2_q2, sched, seed=1)
        got = bounds.value({1})
        # the first look is a univariate tail: c1 = Phi^{-1}(1 - spend1 / 2)
        assert got[0] == pytest.approx(ndtri(1.0 - sched.per_stage[0] / 2), abs=5e-4)
        assert got == pytest.approx(OBF_BOUNDS, abs=2e-3)

    def test_k3_two_look_class_boundaries(self, gs_k3_q2):
        entries = gs_k3_q2.entries()
        assert len(entries) == 7
        for subset, expect in K3_STAGE_BOUNDS.items():
            assert entries[subset] == pytest.approx(expect, abs=1e-3)

    def test_boundary_bits_are_pinned(self, gs_k3_q2):
        entries = gs_k3_q2.entries()
        assert entries == {s: K3_STAGE_BOUNDS_BITS[len(s)] for s in entries}

    def test_generalised_bits_are_pinned(self, cfg_k3_q2):
        sched = SpendingSchedule.obrien_fleming(0.05, TWO_LOOKS)
        gen = generalised_boundaries(cfg_k3_q2, sched, seed=4, accuracy=1e-3)
        assert gen.value({2}) == GENERALISED_OBF_BITS

    def test_stagewise_consonance(self, gs_k3_q2):
        # larger subsets get larger boundaries, stage by stage
        entries = gs_k3_q2.entries()
        for small, c_small in entries.items():
            for big, c_big in entries.items():
                if small < big:
                    assert all(a < b for a, b in zip(c_small, c_big))

    def test_single_look_matches_single_stage_table(
        self, single_look_bounds, table_k3
    ):
        for subset, value in table_k3.entries().items():
            got = single_look_bounds.value(subset)
            assert len(got) == 1
            assert got[0] == pytest.approx(value, abs=5e-4)

    def test_rebuild_is_deterministic(self, cfg_k3_q2, gs_k3_q2):
        sched = SpendingSchedule.power_family(0.05, TWO_LOOKS, rho=1.0)
        again = gs_boundaries(cfg_k3_q2, sched, seed=3)
        assert again.value({2}) == gs_k3_q2.value({2})

    def test_zero_increment_gives_infinite_boundary(self, cfg_k3_q2, table_k3):
        sched = SpendingSchedule(TWO_LOOKS, (0.05, 0.05))
        bounds = gs_boundaries(cfg_k3_q2, sched, seed=2)
        c1, c2 = bounds.value({1})
        assert math.isinf(c2)
        # all the error is spent at the first look, so its boundary is the
        # single-stage constant
        assert c1 == pytest.approx(table_k3.value({1}), abs=5e-4)

    def test_zero_first_spend_defers_everything(self, cfg_k3_q2, table_k3):
        sched = SpendingSchedule(TWO_LOOKS, (0.0, 0.05))
        bounds = gs_boundaries(cfg_k3_q2, sched, seed=2)
        c1, c2 = bounds.value({1})
        assert math.isinf(c1)
        assert c2 == pytest.approx(table_k3.value({1}), abs=5e-4)

    def test_schedule_config_mismatch(self, cfg_k3_q2, cfg_k3):
        sched = SpendingSchedule.power_family(0.05, (0.25, 0.5, 1.0))
        with pytest.raises(ValueError, match="number of analyses"):
            gs_boundaries(cfg_k3_q2, sched)
        shifted = SpendingSchedule.power_family(0.05, (0.4, 1.0))
        with pytest.raises(ValueError, match="information times"):
            gs_boundaries(cfg_k3_q2, shifted)
        single = SpendingSchedule((1.0,), (0.05,))
        with pytest.raises(ValueError):
            gs_boundaries(cfg_k3_q2, single)
        gs_boundaries(cfg_k3, single)  # matching single look is fine

    @pytest.mark.parametrize("tol", [0.0, -1e-4, np.nan, np.inf])
    def test_tol_validation(self, cfg_k3_q2, tol):
        sched = SpendingSchedule.power_family(0.05, TWO_LOOKS)
        with pytest.raises(ValueError, match="tol"):
            gs_boundaries(cfg_k3_q2, sched, tol=tol)

    def test_each_stage_takes_one_fresh_full_accuracy_evaluation(self, cfg_k3_q2, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append((kwargs["accuracy"], args[2].dim))
            return mvn_rect(*args, **kwargs)

        monkeypatch.setattr(sequential, "mvn_rect", counting)
        sched = SpendingSchedule.power_family(0.05, TWO_LOOKS)
        bounds = gs_boundaries(cfg_k3_q2, sched, seed=3)
        bounds.value({1, 2, 3})
        # stage 1, of rank 2, is solved without the kernel; stage 2
        # integrates all 6 coordinates, and its later full-accuracy
        # evaluations integrate only their difference from the first
        assert all(dim == 6 for acc, dim in calls)
        full = [dim for acc, dim in calls if acc == bounds.accuracy]
        assert full == [6]

    def test_rebuild_is_bit_identical(self, cfg_k3_q2, gs_k3_q2):
        again = gs_boundaries(cfg_k3_q2, gs_k3_q2.schedule, seed=3)
        assert again.entries() == gs_k3_q2.entries()

    def test_generalised_entries_solve_one_class(self, gen_k3_q2):
        fresh = replace(gen_k3_q2, schedule=gen_k3_q2.schedule.scaled(0.5))
        entries = fresh.entries()
        assert len(fresh._class_values) == 1
        assert set(entries.values()) == {fresh.value(fresh.full_set())}

    def test_value_validation(self, gs_k3_q2):
        with pytest.raises(ValueError):
            gs_k3_q2.value([])
        with pytest.raises(ValueError):
            gs_k3_q2.value([0])
        with pytest.raises(ValueError):
            gs_k3_q2.value([7])

    def test_entries_enumeration_guard(self):
        cfg = TrialConfig.single_stage(6, 1.0, 50).with_stage_n(
            ((50,) * 6, (100,) * 6)
        )
        sched = SpendingSchedule.power_family(0.05, TWO_LOOKS)
        bounds = gs_boundaries(cfg, sched)
        with pytest.raises(ValueError, match="enumeration"):
            bounds.entries()


class TestStageData:
    def test_pooling_identity(self, cfg_k3_q2):
        rng = np.random.default_rng(5)
        cum = rng.normal(size=(2, 3))
        data = StageData.from_cumulative_means(cfg_k3_q2, cum)
        w = stage_weights(cfg_k3_q2)
        assert np.allclose(data.z_cum, w @ data.z_stage, atol=1e-12)

    def test_stage_weights_shape(self, cfg_k3_q2):
        w = stage_weights(cfg_k3_q2)
        r = math.sqrt(0.5)
        assert np.allclose(w, [[1.0, 0.0], [r, r]])
        # each cumulative statistic has unit variance
        assert np.allclose((w**2).sum(axis=1), 1.0)

    def test_first_row_matches_z_statistics(self, cfg_k3_q2):
        cum = np.array([[0.3, -0.1, 0.2], [0.25, 0.0, 0.1]])
        data = StageData.from_cumulative_means(cfg_k3_q2, cum)
        direct = [s.z for s in z_statistics(cfg_k3_q2, cum[0], stage=1)]
        assert np.allclose(data.z_cum[0], direct)

    def test_single_analysis_input(self, cfg_k3_q2):
        data = StageData.from_cumulative_means(cfg_k3_q2, [[0.5, 0.0, -0.5]])
        assert data.n_analyses == 1
        assert data.z_cum.shape == (1, 3)

    def test_validation(self, cfg_k3_q2):
        good = np.zeros((2, 3))
        with pytest.raises(ValueError, match="shape"):
            StageData(cfg_k3_q2, np.zeros((2, 4)), np.zeros((2, 4)))
        with pytest.raises(ValueError, match="shape"):
            StageData(cfg_k3_q2, good, np.zeros((1, 3)))
        with pytest.raises(ValueError, match="analyses"):
            StageData(cfg_k3_q2, np.zeros((3, 3)), np.zeros((3, 3)))
        bad = good.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            StageData(cfg_k3_q2, bad, good)
        with pytest.raises(ValueError, match="shape"):
            StageData.from_cumulative_means(cfg_k3_q2, np.zeros((2, 4)))
        with pytest.raises(ValueError, match="shape"):
            StageData.from_cumulative_means(cfg_k3_q2, np.zeros((3, 3)))

    @pytest.mark.parametrize("cum", [
        [["0.5", 0.0, 0.1], [0.45, 0.02, 0.1]],
        [[0.5, True, 0.1], [0.45, 0.02, 0.1]],
        [0.5, 0.0, np.True_],
    ], ids=["string", "boolean", "np-boolean-single-row"])
    def test_means_must_be_real_numbers(self, cfg_k3_q2, cum):
        with pytest.raises(ValueError, match="a cumulative mean must be a real number"):
            StageData.from_cumulative_means(cfg_k3_q2, cum)

    @pytest.mark.parametrize("row", [["1.5", 0.0, 0.1], [1.5, True, 0.1],
                                     np.array([True, False, True])],
                             ids=["string", "boolean", "np-boolean-array"])
    def test_statistics_must_be_real_numbers(self, cfg_k3_q2, row):
        good = [[1.5, 0.0, 0.1]]
        with pytest.raises(ValueError, match="a statistic must be a real number"):
            StageData(cfg_k3_q2, [row], good)
        with pytest.raises(ValueError, match="a statistic must be a real number"):
            StageData(cfg_k3_q2, good, [row])


class TestGsClosedTest:
    def test_config_mismatch(self, cfg_k3, cfg_k3_q2, gs_k3_q2):
        data = StageData(cfg_k3, np.zeros((1, 3)), np.zeros((1, 3)))
        with pytest.raises(ValueError, match="configuration"):
            gs_closed_test(data, gs_k3_q2)

    def test_nothing_crosses(self, cfg_k3_q2, gs_k3_q2):
        data = StageData(cfg_k3_q2, np.full((2, 3), 0.1), np.zeros((2, 3)))
        decision = gs_closed_test(data, gs_k3_q2)
        assert decision.rejected == (False, False, False)
        assert decision.stopped_stage == (None, None, None)

    def test_every_subset_is_reported_in_lattice_order(self, cfg_k3_q2, gs_k3_q2):
        data = StageData(cfg_k3_q2, np.full((2, 3), 0.1), np.zeros((2, 3)))
        decision = gs_closed_test(data, gs_k3_q2)
        lattice = _all_subsets(3)
        assert decision.local[frozenset({1, 2, 3})] is False
        assert list(decision.local) == lattice
        assert list(decision.meta["crossed_at"]) == lattice
        assert set(decision.meta["crossed_at"].values()) == {None}
        assert not any(decision.local.values())
        assert decision.meta["analyses"] == 2
        assert decision.procedure == "dunnett-gs"

    def test_first_look_rejection_is_absorbing(self, cfg_k3_q2, gs_k3_q2):
        z = np.array([[5.0, 5.0, 5.0], [0.0, 0.0, 0.0]])
        decision = gs_closed_test(StageData(cfg_k3_q2, z, z), gs_k3_q2)
        assert decision.rejected == (True, True, True)
        assert decision.stopped_stage == (1, 1, 1)

    def test_second_look_rejection(self, cfg_k3_q2, gs_k3_q2):
        z = np.array([[2.0, 0.1, 0.1], [3.0, 3.0, 0.1]])
        decision = gs_closed_test(StageData(cfg_k3_q2, z, z), gs_k3_q2)
        assert decision.rejected == (True, True, False)
        assert decision.stopped_stage == (2, 2, None)

    def test_stopped_stage_is_the_last_subset_to_cross(self, cfg_k3_q2, gs_k3_q2):
        # comparison 1 crosses everything at look 1, but comparison 2 only
        # completes its closure at look 2
        z = np.array([[3.0, 0.1, 0.1], [3.0, 3.0, 0.1]])
        decision = gs_closed_test(StageData(cfg_k3_q2, z, z), gs_k3_q2)
        assert decision.rejected == (True, True, False)
        assert decision.stopped_stage == (1, 2, None)
        full = frozenset({1, 2, 3})
        assert decision.meta["crossed_at"][full] == 1

    def test_sign_is_ignored_two_sided(self, cfg_k3_q2, gs_k3_q2):
        z = np.array([[-5.0, 5.0, 0.1], [-5.0, 5.0, 0.1]])
        decision = gs_closed_test(StageData(cfg_k3_q2, z, z), gs_k3_q2)
        assert decision.rejected == (True, True, False)

    def test_partial_data_only_uses_observed_looks(self, cfg_k3_q2, gs_k3_q2):
        z = np.array([[5.0, 5.0, 0.1]])
        decision = gs_closed_test(StageData(cfg_k3_q2, z, z), gs_k3_q2)
        assert decision.rejected == (True, True, False)
        assert decision.stopped_stage == (1, 1, None)
        assert decision.meta["analyses"] == 1

    def test_infinite_boundary_cannot_be_crossed(self, cfg_k3_q2):
        sched = SpendingSchedule(TWO_LOOKS, (0.0, 0.05))
        bounds = gs_boundaries(cfg_k3_q2, sched, seed=2)
        z = np.array([[9.0, 9.0, 9.0]])
        decision = gs_closed_test(StageData(cfg_k3_q2, z, z), bounds)
        assert decision.rejected == (False, False, False)

    def test_single_look_matches_single_stage_closure(
        self, cfg_k3, table_k3, single_look_bounds
    ):
        crits = {c[0] for c in single_look_bounds.entries().values()}
        crits |= set(table_k3.entries().values())
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 60:
            z = rng.normal(scale=1.6, size=3)
            if min(abs(abs(v) - c) for v in z for c in crits) < 2e-2:
                continue
            staged = gs_closed_test(
                StageData(cfg_k3, z[None, :], z[None, :]), single_look_bounds
            )
            plain = closed_test(z, table_k3)
            assert staged.rejected == plain.rejected
            assert all(
                stop == (1 if flag else None)
                for stop, flag in zip(staged.stopped_stage, staged.rejected)
            )
            checked += 1

    def test_one_sided_two_arm_sequential(self):
        cfg = TrialConfig.single_stage(2, 1.0, 50, sided="one-sided").with_stage_n(
            ((50, 50), (100, 100))
        )
        sched = SpendingSchedule.power_family(0.05, TWO_LOOKS)
        bounds = gs_boundaries(cfg, sched, seed=4)
        one = bounds.value({1})
        # first look of a single one-sided comparison is a plain upper tail
        assert one[0] == pytest.approx(ndtri(1.0 - 0.025), abs=5e-4)
        # the reversed pair carries both directions, so its first look is
        # the two-sided tail
        both = bounds.value({1, 2})
        assert both[0] == pytest.approx(ndtri(1.0 - 0.0125), abs=5e-4)
        z = np.array([[3.0, -3.0]])
        decision = gs_closed_test(StageData(cfg, z, z), bounds)
        assert decision.rejected == (True, False)
        assert decision.stopped_stage == (1, None)
        assert drop_treatments(decision, cfg) == {1, 2}


class TestBatchGsTest:
    @pytest.mark.parametrize("analyses", [1, 2, 3, 5])
    def test_first_crossing_matches_the_any_argmax_form(self, analyses):
        rng = np.random.default_rng(analyses)
        top = rng.normal(2.0, 1.0, size=(400, 4, analyses))
        bounds = rng.normal(2.0, 0.5, size=analyses)
        bounds[rng.random(analyses) < 0.3] = np.inf
        hits = top > bounds
        expected = np.where(hits.any(axis=-1), hits.argmax(axis=-1) + 1, 0)
        first = sequential._first_crossing(top, tuple(bounds))
        assert first.dtype == np.int64
        assert np.array_equal(first, expected)
        assert sequential._first_crossing(top[0, 0], bounds) == expected[0, 0]

    def test_matches_scalar_decisions(self, cfg_k3_q2, gs_k3_q2):
        z = _staged_null_z(cfg_k3_q2, 300, seed=23) * 1.5 + 0.8
        rejected, stopped = batch_gs_test(z, gs_k3_q2)
        for row, rej, stop in zip(z, rejected, stopped):
            scalar = gs_closed_test(StageData(cfg_k3_q2, row, row), gs_k3_q2)
            assert tuple(rej) == scalar.rejected
            assert tuple(stop) == tuple(
                0 if s is None else s for s in scalar.stopped_stage
            )

    def test_memory_layout_changes_nothing(self, cfg_k3_q2, gs_k3_q2):
        # the same values C-ordered and with the replicate index innermost
        z = _staged_null_z(cfg_k3_q2, 500, seed=31) * 1.5 + 0.8
        inner = np.ascontiguousarray(z.T).T
        expect = batch_gs_test(z, gs_k3_q2)
        for got, want in zip(batch_gs_test(inner, gs_k3_q2), expect):
            assert np.array_equal(got, want)
            assert got.flags.f_contiguous
        assert 0 < expect[0].sum() < expect[0].size

    def test_partial_analyses(self, cfg_k3_q2, gs_k3_q2):
        z = np.array([[[5.0, 5.0, 0.1]], [[0.1, 0.1, 0.1]]])
        rejected, stopped = batch_gs_test(z, gs_k3_q2)
        assert rejected.tolist() == [[True, True, False], [False, False, False]]
        assert stopped.tolist() == [[1, 1, 0], [0, 0, 0]]

    def test_decisions_are_pinned(self, gs_k3_q2):
        rejected, stopped = batch_gs_test(_pinned_batch(), gs_k3_q2)
        assert ["".join(map(str, row)) for row in stopped] == BATCH_GS_STOPPED
        assert np.array_equal(rejected, stopped > 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_statistics_are_rejected(self, gs_k3_q2, bad):
        # a non-finite first look must not count as "not crossed" and let a
        # later look reject
        z = np.array([[[bad, bad, bad], [5.0, 5.0, 5.0]]])
        with pytest.raises(ValueError, match="statistics must be finite"):
            batch_gs_test(z, gs_k3_q2)

    def test_validation(self, gs_k3_q2):
        with pytest.raises(ValueError):
            batch_gs_test(np.zeros((5, 2)), gs_k3_q2)
        with pytest.raises(ValueError):
            batch_gs_test(np.zeros((5, 3, 3)), gs_k3_q2)
        with pytest.raises(ValueError):
            batch_gs_test(np.zeros((5, 2, 4)), gs_k3_q2)


class TestGeneralisedBoundaries:
    def test_every_subset_gets_the_full_set_boundary(self, gen_k3_q2, gs_k3_q2):
        full = gen_k3_q2.value({1, 2, 3})
        assert gen_k3_q2.value({1}) == full
        assert gen_k3_q2.value({2, 3}) == full
        # same class, schedule, and seed as the subset-wise object
        assert full == gs_k3_q2.value({1, 2, 3})

    def test_generalised_rejections_are_a_subset(self, cfg_k3_q2, gs_k3_q2, gen_k3_q2):
        z = _staged_null_z(cfg_k3_q2, 200, seed=13) * 1.4 + 1.0
        for row in z:
            data = StageData(cfg_k3_q2, row, row)
            fine = gs_closed_test(data, gs_k3_q2)
            coarse = gs_closed_test(data, gen_k3_q2)
            assert coarse.procedure == "dunnett-gs-generalised"
            for flag_c, flag_f, stop_c, stop_f in zip(
                coarse.rejected, fine.rejected,
                coarse.stopped_stage, fine.stopped_stage,
            ):
                assert not flag_c or flag_f
                if flag_c:
                    assert stop_c >= stop_f


    def test_shared_cache_serves_subsets_after_a_generalised_lookup(self, cfg_k3_q2):
        # a generalised copy is asked first; it serves the full-set vector for
        # every subset, while its subset-wise original still answers per
        # subset and gives the full set that same vector
        sched = SpendingSchedule.power_family(0.05, TWO_LOOKS)
        bounds = gs_boundaries(cfg_k3_q2, sched, seed=6, accuracy=1e-3)
        gen = replace(bounds, generalised=True)
        full = gen.value({1})
        assert gen.value({2, 3}) == full
        alone = gs_boundaries(cfg_k3_q2, sched, seed=6, accuracy=1e-3)
        for subset in ({1}, {2, 3}, {1, 2, 3}):
            assert bounds.value(subset) == alone.value(subset)
        assert bounds.value({1}) != full
        assert bounds.value({1, 2, 3}) == full

    def test_copy_with_new_inputs_starts_a_fresh_cache(self, gs_k3_q2):
        other = SpendingSchedule.obrien_fleming(0.05, TWO_LOOKS)
        for change in ({"schedule": other}, {"seed": 4}, {"accuracy": 1e-4},
                       {"tol": 1e-5}):
            copy = replace(gs_k3_q2, **change)
            assert not copy._class_values and not copy._subset_keys
        # no copy shares the cache, whether it keeps every input or only
        # changes how values are served
        gs_k3_q2.value({1})
        for change in ({}, {"generalised": True}):
            copy = replace(gs_k3_q2, **change)
            assert not copy._class_values and not copy._subset_keys


@pytest.mark.parametrize("sided", ["two-sided", "one-sided"])
def test_stage_statistics_match_the_pairwise_loop(sided):
    cfg = TrialConfig(
        3, (1.0, 2.0, 0.5),
        ((10, 10, 20), (20, 20, 40), (30, 30, 60)), sided=sided,
    )
    cum = np.random.default_rng(5).normal(size=(3, 3))
    data = StageData.from_cumulative_means(cfg, cum)
    # the loop over comparisons that the arm-index table replaced
    pairs = [(1, 2), (1, 3), (2, 3)]
    if sided == "one-sided":
        pairs += [(j, i) for i, j in pairs]
    inc = cfg.stage_increments()
    cum_n = np.asarray(cfg.stage_n, dtype=float)
    expected = np.empty((3, len(pairs)))
    for q in range(3):
        if q == 0:
            stage_mean = cum[0]
        else:
            stage_mean = (cum[q] * cum_n[q] - cum[q - 1] * cum_n[q - 1]) / inc[q]
        v = np.asarray(cfg.sigma2) / inc[q]
        for col, (i, j) in enumerate(pairs):
            theta = stage_mean[i - 1] - stage_mean[j - 1]
            expected[q, col] = theta / math.sqrt(v[i - 1] + v[j - 1])
    assert data.z_stage.tobytes() == expected.tobytes()


class TestDropTreatments:
    def _decision(self, rejected):
        from pairwise_closure.closure import ClosureDecision

        return ClosureDecision("dunnett-gs", 0.05, tuple(rejected))

    def test_arm_with_all_pairs_rejected(self, cfg_k3_q2):
        # pairs are (1,2), (1,3), (2,3); rejecting the first two resolves
        # every comparison that involves arm 1
        decision = self._decision([True, True, False])
        assert drop_treatments(decision, cfg_k3_q2) == {1}

    def test_all_and_nothing(self, cfg_k3_q2):
        assert drop_treatments(self._decision([True] * 3), cfg_k3_q2) == {1, 2, 3}
        assert drop_treatments(self._decision([False] * 3), cfg_k3_q2) == set()

    def test_single_rejection_is_not_enough(self, cfg_k4):
        decision = self._decision([True] + [False] * 5)
        assert drop_treatments(decision, cfg_k4) == set()

    def test_one_sided_pair_resolves_in_either_direction(self):
        cfg = TrialConfig.single_stage(3, 1.0, 10, sided="one-sided")
        # (1,2) forward and (1,3) reversed resolve both pairs of arm 1
        decision = self._decision([True, False, False, False, True, False])
        assert drop_treatments(decision, cfg) == {1}


class TestSpendCalibration:
    def test_crossing_rates_match_the_schedule(self, cfg_k3_q2, gs_k3_q2):
        n_reps = 150_000
        z = _staged_null_z(cfg_k3_q2, n_reps, seed=7)
        entries = gs_k3_q2.entries()
        for subset in (frozenset({1}), frozenset({1, 2, 3})):
            cols = [k - 1 for k in subset]
            c = entries[subset]
            hit1 = np.abs(z[:, 0, cols]).max(axis=1) > c[0]
            hit2 = hit1 | (np.abs(z[:, 1, cols]).max(axis=1) > c[1])
            for rate, target in ((hit1.mean(), 0.025), (hit2.mean(), 0.05)):
                se3 = 3.0 * math.sqrt(target * (1.0 - target) / n_reps)
                assert abs(rate - target) < se3

    def test_joint_covariance_against_simulation(self, cfg_k3_q2):
        n_reps = 150_000
        z = _staged_null_z(cfg_k3_q2, n_reps, seed=8)
        emp = np.cov(z.reshape(n_reps, -1).T)
        assert np.max(np.abs(emp - joint_covariance(cfg_k3_q2))) < 0.02


def _k4_q2(sided):
    cfg = TrialConfig.single_stage(4, 1.0, 50, sided=sided).with_stage_n(((50,) * 4, (100,) * 4))
    return cfg, SpendingSchedule.obrien_fleming(0.05, TWO_LOOKS)


def _idle_middle_look():
    # the middle look spends nothing, so the last one is bracketed by the
    # increment over the first
    cfg = TrialConfig.single_stage(3, 1.0, 40).with_stage_n(
        ((40,) * 3, (80,) * 3, (120,) * 3))
    return cfg, SpendingSchedule((1 / 3, 2 / 3, 1.0), (0.01, 0.01, 0.05))


def _whole_range(c_lo, c_hi, central):
    return (_max_range(central),)


class TestStageBrackets:
    @pytest.mark.parametrize("design", [
        lambda: _k4_q2("two-sided"), lambda: _k4_q2("one-sided"), _idle_middle_look,
    ], ids=["k4-q2", "k4-q2-one-sided", "idle-middle-look"])
    def test_stage_bracket_holds_the_whole_range_root(self, design, monkeypatch):
        cfg, sched = design()
        brackets = []
        padded = sequential._padded

        def recording(c_lo, c_hi, central):
            brackets.append((c_lo, c_hi))
            return padded(c_lo, c_hi, central)

        monkeypatch.setattr(sequential, "_padded", recording)
        bounds = gs_boundaries(cfg, sched, seed=5, accuracy=1e-4)
        got = bounds.value(bounds.full_set())
        monkeypatch.setattr(sequential, "_padded", _whole_range)
        whole = gs_boundaries(cfg, sched, seed=5, accuracy=1e-4).value(bounds.full_set())
        later = [c for c in whole[1:] if math.isfinite(c)]
        assert len(brackets) == len(later) == 1
        for (c_lo, c_hi), c in zip(brackets, later):
            assert c_lo < c < c_hi
        assert [math.isinf(c) for c in got] == [math.isinf(c) for c in whole]
        assert got == pytest.approx(whole, abs=bounds.tol)

    def test_a_wrong_stage_bracket_falls_back_to_the_whole_range(self, cfg_k3_q2,
                                                                   monkeypatch):
        sched = SpendingSchedule.obrien_fleming(0.05, TWO_LOOKS)

        def beyond(c_lo, c_hi, central):
            return (c_hi + 1.0, c_hi + 2.0), _max_range(central)

        monkeypatch.setattr(sequential, "_padded", beyond)
        bounds = gs_boundaries(cfg_k3_q2, sched, seed=5, accuracy=1e-4)
        wrong = bounds.value({1, 2, 3})
        monkeypatch.setattr(sequential, "_padded", _whole_range)
        whole = gs_boundaries(cfg_k3_q2, sched, seed=5, accuracy=1e-4).value({1, 2, 3})
        assert wrong == pytest.approx(whole, abs=bounds.tol)

    def test_generalised_k4_full_set_makes_ten_coarse_calls(self, monkeypatch):
        # counts of the score-scale search, whatever the hardware: two
        # stages of five coarse calls each, two ends and three steps
        accuracies = []

        def counting(*args, **kwargs):
            accuracies.append(kwargs["accuracy"])
            return mvn_rect(*args, **kwargs)

        monkeypatch.setattr(sequential, "mvn_rect", counting)
        cfg, sched = _k4_q2("two-sided")
        bounds = generalised_boundaries(cfg, sched, seed=0)
        bounds.value(bounds.full_set())
        assert sum(acc > bounds.accuracy for acc in accuracies) <= 10
