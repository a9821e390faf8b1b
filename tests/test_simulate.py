"""Common-random-numbers simulation harness and the reference table."""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtri

from pairwise_closure.closure import (
    _normal_cut,
    bonferroni_test,
    closed_test,
    critical_values,
    gatekeeping_test,
    tukey_global_test,
    unadjusted_test,
)
from pairwise_closure import sequential, simulate
from pairwise_closure.combination import CombinationWeights
from pairwise_closure.model import (
    ONE_SIDED,
    TWO_SIDED,
    TrialConfig,
    _max_statistic,
    _pair_arms,
    standardized_means,
)
from pairwise_closure.power import MeanConfig, disjunctive_power
from pairwise_closure.sequential import (
    BoundarySchedule,
    SpendingSchedule,
    batch_gs_test,
    generalised_boundaries,
    gs_boundaries,
    stage_weights,
)
from pairwise_closure.simulate import (
    PROCEDURES,
    OperatingCharacteristics,
    ProcedureSummary,
    SimScenario,
    _build_resources,
    _total_sample_size,
    run_scenario,
    simulate_statistics,
    table1_report,
    table1_rows,
)

COMPARATORS = ("dunnett", "global", "bonferroni", "unadjusted", "gatekeeping")


@pytest.fixture(scope="module")
def null_k4_run(cfg_k4):
    scenario = SimScenario(
        config=cfg_k4,
        means=MeanConfig((0.0,) * 4),
        procedures=COMPARATORS,
        replicates=30_000,
        seed=3,
    )
    return run_scenario(scenario, keep_decisions=True)


@pytest.fixture(scope="module")
def staged_null_run(cfg_k3_q2):
    scenario = SimScenario(
        config=cfg_k3_q2,
        means=MeanConfig((0.0, 0.0, 0.0)),
        procedures=("dunnett-gs", "dunnett-gs-generalised", "combination"),
        replicates=15_000,
        seed=11,
        spending=SpendingSchedule.power_family(0.05, (0.5, 1.0)),
    )
    return run_scenario(scenario, keep_decisions=True)


@pytest.fixture(scope="module")
def table1():
    return table1_rows(seed=2, replicates=25_000)


def _reference_statistics(config, mu, replicates, seed):
    """The simulated statistics as first written: replicates outermost in
    memory, and each comparison gathered by fancy indexing on the arm axis."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    inc = config.stage_increments()
    sig2 = np.asarray(config.sigma2)
    sums = rng.standard_normal((replicates, config.n_stages, config.n_arms))
    sums *= np.sqrt(sig2 * inc)
    sums += np.asarray(mu) * inc
    cum_n = np.asarray(config.stage_n, dtype=float)
    ii, jj = _pair_arms(config.n_arms, config.sided)

    def pair_z(means, v):
        return (means[..., ii] - means[..., jj]) / np.sqrt(v[..., ii] + v[..., jj])

    return (pair_z(np.cumsum(sums, axis=1) / cum_n, sig2 / cum_n),
            pair_z(sums / inc, sig2 / inc))


STATISTICS_DESIGNS = {
    "two-sided": (TrialConfig.single_stage(3, 1.0, 50).with_stage_n(
        ((50, 50, 50), (100, 100, 100))), (0.3, 0.0, -0.1)),
    "one-sided": (TrialConfig.single_stage(4, 1.0, 40, sided=ONE_SIDED).with_stage_n(
        ((40,) * 4, (80,) * 4)), (0.4, 0.0, 0.1, 0.2)),
    "three-look-unequal": (
        TrialConfig.single_stage(3, (1.0, 1.7, 0.8), (40, 60, 50)).with_stage_n(
            ((40, 60, 50), (80, 120, 100), (120, 180, 150))),
        (0.5, -0.2, 0.25),
    ),
}


class TestSimScenario:
    def _base(self, cfg, **kw):
        args = dict(
            config=cfg,
            means=MeanConfig((0.0,) * cfg.n_arms),
            procedures=("dunnett",),
            replicates=10,
        )
        args.update(kw)
        return SimScenario(**args)

    def test_means_are_coerced(self, cfg_k3):
        scenario = self._base(cfg_k3, means=(0.0, 0.5, 1.0))
        assert isinstance(scenario.means, MeanConfig)
        assert scenario.means.mu == (0.0, 0.5, 1.0)

    def test_validation(self, cfg_k3, cfg_k3_q2):
        with pytest.raises(ValueError, match="unknown"):
            self._base(cfg_k3, procedures=("dunnet",))
        with pytest.raises(ValueError, match="procedure"):
            self._base(cfg_k3, procedures=())
        with pytest.raises(ValueError, match="distinct"):
            self._base(cfg_k3, procedures=("dunnett", "dunnett"))
        with pytest.raises(ValueError, match="replicate"):
            self._base(cfg_k3, replicates=0)
        with pytest.raises(ValueError, match="per arm"):
            self._base(cfg_k3, means=MeanConfig((0.0, 0.0)))
        with pytest.raises(ValueError, match="spending"):
            self._base(cfg_k3_q2, procedures=("dunnett-gs",))
        with pytest.raises(ValueError, match="alpha"):
            self._base(cfg_k3, alpha=1.0)
        with pytest.raises(ValueError, match="replicates must be a whole number"):
            self._base(cfg_k3, replicates=100.9)
        assert self._base(cfg_k3, replicates=10.0).replicates == 10
        with pytest.raises(ValueError, match="arm means must be finite"):
            self._base(cfg_k3, means=(math.nan, 0.0, 0.0))
        # the staged inputs must fit the design and the level
        with pytest.raises(ValueError, match="schedule has 3 analyses but the design has 2"):
            self._base(cfg_k3_q2, procedures=("dunnett-gs",),
                       spending=SpendingSchedule.obrien_fleming(0.05, (0.3, 0.6, 1.0)))
        with pytest.raises(ValueError, match="weights cover 3 stages but the design has 2"):
            self._base(cfg_k3_q2, procedures=("combination",),
                       weights=CombinationWeights.equal(3))
        with pytest.raises(ValueError, match="weights cover 1 stages but the design has 2"):
            self._base(cfg_k3_q2, procedures=("combination",), weights=(1.0,))
        with pytest.raises(ValueError, match="spends 0.025 in total but alpha is 0.05"):
            self._base(cfg_k3_q2, procedures=("dunnett-gs",),
                       spending=SpendingSchedule.power_family(0.025, (0.5, 1.0)))
        # the O'Brien-Fleming spend misses 0.05 by rounding alone
        spending = SpendingSchedule.obrien_fleming(0.05, (0.5, 1.0))
        assert spending.alpha != 0.05
        assert self._base(cfg_k3_q2, procedures=("dunnett-gs",),
                          spending=spending).spending is spending
        weighted = self._base(cfg_k3_q2, procedures=("combination",), weights=(1.0, 1.0))
        assert weighted.weights == CombinationWeights.equal(2)

    def test_global_needs_a_balanced_design(self):
        lopsided = TrialConfig.single_stage(3, 1.0, (50, 50, 80))
        with pytest.raises(ValueError, match="equal per-arm"):
            self._base(lopsided, procedures=("global",))
        unequal = TrialConfig.single_stage(3, (1.0, 1.0, 4.0), 50)
        with pytest.raises(ValueError, match="equal-variance"):
            self._base(unequal, procedures=("global",))


class TestSimulateStatistics:
    def test_shapes(self, cfg_k3_q2):
        z_cum, z_stage = simulate_statistics(cfg_k3_q2, (0.0, 0.0, 0.0), 7, seed=1)
        assert z_cum.shape == (7, 2, 3)
        assert z_stage.shape == (7, 2, 3)

    def test_replicates_are_a_stable_prefix(self, cfg_k3_q2):
        mu = (0.2, 0.0, -0.3)
        small = simulate_statistics(cfg_k3_q2, mu, 40, seed=9)
        large = simulate_statistics(cfg_k3_q2, mu, 90, seed=9)
        assert np.array_equal(small[0], large[0][:40])
        assert np.array_equal(small[1], large[1][:40])

    def test_cumulative_is_the_weighted_stage_combination(self, cfg_k3_q2):
        z_cum, z_stage = simulate_statistics(cfg_k3_q2, (0.5, 0.0, 0.2), 200, seed=5)
        w = stage_weights(cfg_k3_q2)
        pooled = np.einsum("ql,nlm->nqm", w, z_stage)
        assert np.allclose(z_cum, pooled, atol=1e-10)

    def test_mean_calibration(self, cfg_k3_q2):
        mu = (0.4, 0.0, 0.1)
        z_cum, _ = simulate_statistics(cfg_k3_q2, mu, 50_000, seed=13)
        expect = standardized_means(cfg_k3_q2, mu)
        got = z_cum[:, -1, :].mean(axis=0)
        assert np.all(np.abs(got - expect) < 4.0 / math.sqrt(50_000))

    @pytest.mark.parametrize("design", ["two-sided", "one-sided", "three-look-unequal"])
    def test_bits_match_the_fancy_index_formula(self, design):
        config, mu = STATISTICS_DESIGNS[design]
        got = simulate_statistics(config, mu, 257, seed=14)
        expect = _reference_statistics(config, mu, 257, seed=14)
        for z, want in zip(got, expect):
            assert z.shape == want.shape
            assert np.ascontiguousarray(z).tobytes() == want.tobytes()

    def test_validation(self, cfg_k3):
        with pytest.raises(ValueError):
            simulate_statistics(cfg_k3, (0.0, 0.0), 5)
        with pytest.raises(ValueError):
            simulate_statistics(cfg_k3, (0.0, 0.0, 0.0), 0)
        with pytest.raises(ValueError, match="replicates must be a whole number"):
            simulate_statistics(cfg_k3, (0.0, 0.0, 0.0), 10.5)
        with pytest.raises(ValueError, match="arm means must be finite"):
            simulate_statistics(cfg_k3, (math.nan, 0.0, 0.0), 5)
        with pytest.raises(ValueError, match="means must have one entry per arm"):
            simulate_statistics(cfg_k3, MeanConfig((0.0, 0.0)), 5)


class TestRunScenario:
    def test_null_error_rates(self, null_k4_run):
        reps = null_k4_run.scenario.replicates
        any_reject = {t: s.any_reject for t, s in null_k4_run.procedures.items()}
        se3 = 3.0 * math.sqrt(0.05 * 0.95 / reps)
        assert abs(any_reject["dunnett"] - 0.05) < se3
        assert abs(any_reject["global"] - 0.05) < se3
        assert 0.033 <= any_reject["bonferroni"] <= 0.047
        assert abs(any_reject["unadjusted"] - 0.20) < 3.0 * math.sqrt(0.2 * 0.8 / reps)
        assert any_reject["gatekeeping"] < 0.05 + se3

    def test_summary_invariants(self, null_k4_run):
        for summary in null_k4_run.procedures.values():
            assert sum(summary.per_count) == pytest.approx(1.0, abs=1e-12)
            assert summary.any_reject == pytest.approx(
                1.0 - summary.per_count[0], abs=1e-12
            )
            assert len(summary.per_count) == 7
            assert all(0.0 <= p <= 1.0 for p in summary.per_count)
            assert summary.mean_total_n is None

    def test_closure_dominates_comparators_per_replicate(self, null_k4_run):
        d = null_k4_run.decisions
        assert np.all(d["bonferroni"] <= d["dunnett"])
        assert np.all(d["global"] <= d["dunnett"])

    def test_deterministic(self, cfg_k3):
        scenario = SimScenario(
            config=cfg_k3,
            means=MeanConfig((0.4, 0.0, 0.0)),
            procedures=("dunnett", "bonferroni"),
            replicates=2_000,
            seed=21,
        )
        first = run_scenario(scenario)
        second = run_scenario(scenario)
        assert first.procedures == second.procedures

    def test_single_replicate_decision_is_reproducible(self, cfg_k3):
        scenario = SimScenario(
            config=cfg_k3,
            means=MeanConfig((0.7, 0.0, 0.0)),
            procedures=("dunnett",),
            replicates=1,
            seed=8,
        )
        runs = [run_scenario(scenario, keep_decisions=True) for _ in range(2)]
        assert np.array_equal(runs[0].decisions["dunnett"],
                              runs[1].decisions["dunnett"])

    def test_dunnett_beyond_the_lattice_limit(self):
        # K=6 has m=15 comparisons, past the 2^m enumeration limit; the
        # step-down solves only the tail sets the replicates visit
        scenario = SimScenario(
            config=TrialConfig.single_stage(6, 1.0, 50),
            means=MeanConfig((0.0,) * 6),
            procedures=("dunnett", "global"),
            replicates=2_000,
            seed=4,
            accuracy=1e-3,
        )
        result = run_scenario(scenario)
        dunnett = result.summary("dunnett")
        assert len(dunnett.per_count) == 16
        # both procedures first test the full set against the same value
        assert dunnett.any_reject == result.summary("global").any_reject
        assert abs(dunnett.any_reject - 0.05) < 4.0 * dunnett.any_se

    def test_agrees_with_quadrature_power(self, cfg_k3, table_k3):
        means = (0.5, 0.0, 0.25)
        scenario = SimScenario(
            config=cfg_k3,
            means=MeanConfig(means),
            procedures=("dunnett",),
            replicates=20_000,
            seed=5,
        )
        sim = run_scenario(scenario).summary("dunnett")
        quad = disjunctive_power(cfg_k3, means, table=table_k3)
        assert abs(sim.any_reject - quad.disjunctive) < 3.0 * sim.any_se + 1e-3

    def test_staged_null(self, staged_null_run):
        reps = staged_null_run.scenario.replicates
        se3 = 3.0 * math.sqrt(0.05 * 0.95 / reps)
        gs = staged_null_run.summary("dunnett-gs")
        gen = staged_null_run.summary("dunnett-gs-generalised")
        comb = staged_null_run.summary("combination")
        assert abs(gs.any_reject - 0.05) < se3
        assert gen.any_reject <= gs.any_reject
        assert comb.any_reject < 0.05 + se3
        planned = sum(staged_null_run.scenario.config.stage_n[-1])
        for summary in (gs, gen):
            assert summary.mean_total_n is not None
            assert 0.98 * planned < summary.mean_total_n <= planned
        assert comb.mean_total_n is None
        d = staged_null_run.decisions
        assert np.all(d["dunnett-gs-generalised"] <= d["dunnett-gs"])

    def test_staged_alternative_stops_early(self, cfg_k3_q2):
        scenario = SimScenario(
            config=cfg_k3_q2,
            means=MeanConfig((1.0, 0.0, 0.5)),
            procedures=("dunnett-gs",),
            replicates=4_000,
            seed=11,
            spending=SpendingSchedule.power_family(0.05, (0.5, 1.0)),
        )
        summary = run_scenario(scenario).summary("dunnett-gs")
        assert summary.any_reject > 0.99
        assert summary.per_count[3] > 0.5
        assert 150 < summary.mean_total_n < 280

    def test_characteristics_validation(self, cfg_k3):
        scenario = SimScenario(
            config=cfg_k3,
            means=MeanConfig((0.0,) * 3),
            procedures=("dunnett",),
            replicates=10,
        )
        bad = ProcedureSummary("dunnett", 0.5, 0.0, (0.5, 0.2, 0.0, 0.0), (0.0,) * 4)
        with pytest.raises(ValueError, match="sum"):
            OperatingCharacteristics(scenario, {"dunnett": bad})


class TestTable1:
    def test_layout(self, table1):
        assert len(table1) == 10
        assert [r["procedure"] for r in table1[:4]] == [
            "dunnett", "global", "bonferroni", "unadjusted",
        ]
        for row in table1:
            assert len(row["counts"]) == 6
            assert row["any_reject"] == pytest.approx(sum(row["counts"]), abs=1e-12)

    def test_null_row(self, table1):
        by_proc = {r["procedure"]: r for r in table1 if not any(r["means"])}
        assert abs(by_proc["dunnett"]["any_reject"] - 0.05) < 0.005
        assert abs(by_proc["global"]["any_reject"] - 0.05) < 0.005
        assert 0.033 <= by_proc["bonferroni"]["any_reject"] <= 0.047
        assert abs(by_proc["unadjusted"]["any_reject"] - 0.20) < 0.008

    def test_middle_row_hits_its_calibrated_power(self, table1):
        rows = [r for r in table1 if r["means"] == (10.0, 5.0, 5.0, 0.0)]
        dunnett = next(r for r in rows if r["procedure"] == "dunnett")
        assert dunnett["any_reject"] == pytest.approx(0.78, abs=0.012)
        # closure shifts mass toward more rejections relative to the
        # single-step comparators
        global_row = next(r for r in rows if r["procedure"] == "global")
        assert dunnett["counts"][2] > global_row["counts"][2]

    def test_last_row_orders_full_rejections(self, table1):
        rows = [r for r in table1 if r["means"] == (10.0, 10.0, 0.0, 0.0)]
        dunnett = next(r for r in rows if r["procedure"] == "dunnett")
        global_row = next(r for r in rows if r["procedure"] == "global")
        assert dunnett["any_reject"] > 0.94
        assert global_row["any_reject"] > 0.94
        assert dunnett["counts"][3] - global_row["counts"][3] > 0.05

    def test_report_text(self):
        text = table1_report(seed=4, replicates=2_000)
        lines = text.splitlines()
        assert lines[0].split()[:2] == ["mu", "Test"]
        assert sum("Dunnett" in line for line in lines) == 3
        assert sum("Unadjusted" in line for line in lines) == 1
        assert len(lines) == 14


def test_generalised_boundary_shares_the_full_set_solve(cfg_k3_q2, monkeypatch):
    solved = []
    solve = BoundarySchedule._solve

    def counting_solve(self, key):
        solved.append(key)
        return solve(self, key)

    monkeypatch.setattr(BoundarySchedule, "_solve", counting_solve)
    scenario = SimScenario(
        config=cfg_k3_q2,
        means=MeanConfig((0.6, 0.0, 0.3)),
        procedures=("dunnett-gs", "dunnett-gs-generalised"),
        replicates=400,
        seed=11,
        accuracy=1e-3,
        spending=SpendingSchedule.power_family(0.05, (0.5, 1.0)),
    )
    rules = _build_resources(scenario)
    z_cum, z_stage = simulate_statistics(cfg_k3_q2, scenario.means, 400, seed=11)
    decisions = {tag: rules[tag](z_cum, z_stage) for tag in scenario.procedures}
    # the generalised schedule reuses the full-set class instead of solving it
    assert len(solved) == len(set(solved))
    alone = generalised_boundaries(
        cfg_k3_q2, scenario.spending, seed=scenario.seed, accuracy=scenario.accuracy
    )
    expect = batch_gs_test(z_cum, alone)
    got = decisions["dunnett-gs-generalised"]
    assert np.array_equal(got[0], expect[0]) and np.array_equal(got[1], expect[1])
    assert not np.array_equal(got[0], decisions["dunnett-gs"][0])


@pytest.mark.parametrize("tags", [("dunnett-gs", "dunnett-gs-generalised"),
                                  ("dunnett-gs-generalised", "dunnett-gs"),
                                  ("dunnett-gs",)])
def test_staged_rules_form_one_statistic_per_chunk(cfg_k3_q2, monkeypatch, tags):
    scenario = SimScenario(
        config=cfg_k3_q2,
        means=MeanConfig((0.6, 0.0, 0.3)),
        procedures=tags,
        replicates=400,
        seed=11,
        accuracy=1e-3,
        spending=SpendingSchedule.power_family(0.05, (0.5, 1.0)),
    )
    bounds = gs_boundaries(cfg_k3_q2, scenario.spending, seed=11, accuracy=1e-3)
    chunks = [simulate_statistics(cfg_k3_q2, scenario.means, 400, seed=seed)
              for seed in (11, 12)]
    # the bits batch_gs_test gives when it forms the statistics itself
    expect = [batch_gs_test(z_cum, bounds) for z_cum, _ in chunks]
    formed = []

    def counting(z, sided):
        formed.append(z.shape)
        return _max_statistic(z, sided)

    monkeypatch.setattr(simulate, "_max_statistic", counting)
    monkeypatch.setattr(sequential, "_max_statistic", counting)
    rules = _build_resources(scenario)
    for (z_cum, z_stage), bits in zip(chunks, expect):
        formed.clear()
        got = {tag: rules[tag](z_cum, z_stage) for tag in tags}
        assert formed == [z_cum.shape]
        assert all(np.array_equal(a, b) for a, b in zip(got["dunnett-gs"], bits))


def test_accuracy_does_not_reach_the_tail_probability_table(cfg_k3_q2):
    # the combination rule's table is solved at its own 1e-4 whatever the
    # scenario's accuracy, so a combination-only run cannot tell them apart
    runs = [
        run_scenario(SimScenario(
            config=cfg_k3_q2,
            means=MeanConfig((0.4, 0.0, 0.2)),
            procedures=("combination",),
            replicates=2_000,
            seed=17,
            accuracy=accuracy,
        ), keep_decisions=True)
        for accuracy in (1e-3, 1e-5)
    ]
    assert runs[0].procedures == runs[1].procedures
    assert np.array_equal(runs[0].decisions["combination"], runs[1].decisions["combination"])
    assert 0.0 < runs[0].summary("combination").any_reject < 1.0


@pytest.mark.parametrize("n_arms, sided, means", [
    (3, ONE_SIDED, (0.5, 0.0, 0.25)),
    (4, TWO_SIDED, (0.5, 0.0, 0.25, 0.1)),
])
def test_generalised_rule_equals_the_lattice_kernel(n_arms, sided, means):
    # three looks with nothing to spend at the second
    cfg = TrialConfig.single_stage(n_arms, 1.0, 30, sided=sided).with_stage_n(
        [(30 * q,) * n_arms for q in (1, 2, 3)]
    )
    spending = SpendingSchedule((1 / 3, 2 / 3, 1.0), (0.01, 0.01, 0.05))
    scenario = SimScenario(
        config=cfg,
        means=MeanConfig(means),
        procedures=("dunnett-gs-generalised",),
        replicates=600,
        seed=8,
        accuracy=1e-3,
        spending=spending,
    )
    z_cum, z_stage = simulate_statistics(cfg, scenario.means, 600, seed=8)
    rejected, stopped = _build_resources(scenario)["dunnett-gs-generalised"](z_cum, z_stage)
    expect = batch_gs_test(
        z_cum, generalised_boundaries(cfg, spending, seed=8, accuracy=1e-3)
    )
    assert np.array_equal(rejected, expect[0]) and np.array_equal(stopped, expect[1])
    # stops at the first and the last look, never at the unspendable second
    assert set(np.unique(stopped)) == {0, 1, 3}


def test_comparators_equal_the_single_trial_tests(cfg_k4):
    # the simulator's rules are the single-trial tests applied row by row
    scenario = SimScenario(
        config=cfg_k4,
        means=MeanConfig((0.45, 0.3, 0.0, 0.15)),
        procedures=COMPARATORS,
        replicates=400,
        seed=12,
        accuracy=1e-3,
    )
    decisions = run_scenario(scenario, keep_decisions=True).decisions
    z_cum, _ = simulate_statistics(cfg_k4, scenario.means, 400, seed=12)
    table = critical_values(cfg_k4, 0.05, seed=12, accuracy=1e-3)
    single = {
        "dunnett": lambda z: closed_test(z, table),
        "global": lambda z: tukey_global_test(z, cfg_k4, 0.05, table=table),
        "bonferroni": lambda z: bonferroni_test(z, 0.05),
        "unadjusted": lambda z: unadjusted_test(z, 0.05),
        "gatekeeping": lambda z: gatekeeping_test(z, 0.05),
    }
    for tag, test in single.items():
        expect = np.array([test(z).rejected for z in z_cum[:, -1, :]])
        assert np.array_equal(decisions[tag], expect), tag
        assert 0 < expect.sum() < expect.size, tag


def test_one_sided_comparator_cuts():
    for alpha in (0.01, 0.05, 0.1, 0.2):
        for m in (1, 3, 6, 10, 12):
            assert _normal_cut(alpha, m, ONE_SIDED) == float(ndtri(1.0 - alpha / m))
            assert _normal_cut(alpha, m, TWO_SIDED) == float(
                ndtri(1.0 - alpha / (2.0 * m))
            )
        assert _normal_cut(alpha, 1, ONE_SIDED) == float(ndtri(1.0 - alpha))
    cfg = TrialConfig.single_stage(3, 1.0, 60, sided=ONE_SIDED)
    scenario = SimScenario(
        config=cfg,
        means=MeanConfig((0.4, 0.0, 0.2)),
        procedures=("bonferroni", "unadjusted", "gatekeeping"),
        replicates=2_000,
        seed=9,
        alpha=0.1,
    )
    decisions = run_scenario(scenario, keep_decisions=True).decisions
    z = simulate_statistics(cfg, scenario.means, 2_000, seed=9)[0][:, -1, :]
    passed = z > ndtri(1.0 - 0.1)
    assert np.array_equal(decisions["bonferroni"], z > ndtri(1.0 - 0.1 / 6))
    assert np.array_equal(decisions["unadjusted"], passed)
    assert np.array_equal(decisions["gatekeeping"],
                          np.logical_and.accumulate(passed, axis=1))


# Frozen reference values: (per_count, mean_total_n) of every procedure on
# one K=3 Q=2 scenario, seed 6, accuracy 1e-3.  Any change to a decision
# rule, a cut, a table or the draws shows up here exactly.
PINNED_K3_Q2 = {
    "dunnett": ((0.115, 0.3016666666666667, 0.48333333333333334, 0.1), None),
    "global": ((0.115, 0.37333333333333335, 0.485, 0.02666666666666667), None),
    "bonferroni": ((0.12, 0.4, 0.46166666666666667, 0.018333333333333333), None),
    "unadjusted": (
        (0.05333333333333334, 0.21333333333333335, 0.6233333333333333, 0.11), None
    ),
    "gatekeeping": (
        (0.06333333333333334, 0.5383333333333333, 0.28833333333333333, 0.11), None
    ),
    "dunnett-gs": (
        (0.11833333333333333, 0.295, 0.49166666666666664, 0.095), 296.5
    ),
    "dunnett-gs-generalised": (
        (0.11833333333333333, 0.37666666666666665, 0.485, 0.02),
        297.25,
    ),
    "combination": (
        (0.19666666666666666, 0.3383333333333333, 0.4116666666666667, 0.05333333333333334),
        None,
    ),
}


def test_every_procedure_is_pinned(cfg_k3_q2):
    scenario = SimScenario(
        config=cfg_k3_q2,
        means=MeanConfig((0.5, 0.0, 0.25)),
        procedures=PROCEDURES,
        replicates=600,
        seed=6,
        accuracy=1e-3,
        spending=SpendingSchedule.obrien_fleming(0.05, (0.5, 1.0)),
    )
    result = run_scenario(scenario)
    got = {tag: (s.per_count, s.mean_total_n) for tag, s in result.procedures.items()}
    assert got == PINNED_K3_Q2


# One scenario per kind of rule: every single-stage procedure at K=4, and
# the staged procedures on a two-sided and a one-sided K=3 design.
CHUNKING_SCENARIOS = {
    "k4-single-stage": dict(
        config=TrialConfig.single_stage(4, 1.0, 60),
        means=MeanConfig((0.45, 0.3, 0.0, 0.15)),
        procedures=COMPARATORS,
    ),
    "k3-staged-two-sided": dict(
        config=TrialConfig.single_stage(3, 1.0, 50).with_stage_n(((50,) * 3, (100,) * 3)),
        means=MeanConfig((0.5, 0.0, 0.25)),
        procedures=("dunnett-gs", "dunnett-gs-generalised", "combination"),
        spending=SpendingSchedule.obrien_fleming(0.05, (0.5, 1.0)),
    ),
    "k3-staged-one-sided": dict(
        config=TrialConfig.single_stage(3, 1.0, 40, sided=ONE_SIDED).with_stage_n(
            ((40,) * 3, (80,) * 3)),
        means=MeanConfig((0.4, 0.0, 0.1)),
        procedures=("dunnett", "bonferroni", "dunnett-gs", "dunnett-gs-generalised",
                    "combination"),
        spending=SpendingSchedule.power_family(0.05, (0.5, 1.0)),
    ),
}


@pytest.mark.parametrize("name", list(CHUNKING_SCENARIOS))
def test_chunking_changes_nothing(name, monkeypatch):
    scenario = SimScenario(**CHUNKING_SCENARIOS[name], replicates=200, seed=4,
                           accuracy=1e-3)
    whole = run_scenario(scenario, keep_decisions=True)
    monkeypatch.setattr(simulate, "_CHUNK", 7)
    chunked = run_scenario(scenario, keep_decisions=True)
    assert chunked.procedures == whole.procedures
    for tag in scenario.procedures:
        assert np.array_equal(chunked.decisions[tag], whole.decisions[tag]), tag
    assert any(whole.decisions[tag].any() for tag in scenario.procedures)


def _reference_total_sample_size(config, rejected, stopped):
    """Total enrolment as first written: arm by arm, from each arm's resolved
    flag and stage, with the pair and arm rules applied column by column."""
    n_arms = config.n_arms
    m2 = n_arms * (n_arms - 1) // 2
    never = np.iinfo(np.int64).max
    directions = [range(pair, rejected.shape[1], m2) for pair in range(m2)]
    hit = [functools.reduce(np.logical_or, (rejected[:, c] for c in cols))
           for cols in directions]
    first = [functools.reduce(np.minimum, (np.where(rejected[:, c], stopped[:, c], never)
                                           for c in cols))
             for cols in directions]
    ii, jj = _pair_arms(n_arms, TWO_SIDED)
    touching = [np.flatnonzero((ii == arm) | (jj == arm)).tolist() for arm in range(n_arms)]
    resolved = np.stack([functools.reduce(np.logical_and, (hit[p] for p in pairs))
                         for pairs in touching]).T
    stage = np.stack([functools.reduce(np.maximum, (first[p] for p in pairs))
                      for pairs in touching]).T
    stage_n = np.asarray(config.stage_n, dtype=float)
    total = np.zeros(len(rejected))
    for arm in range(n_arms):
        drop_stage = np.where(resolved[:, arm], stage[:, arm], config.n_stages)
        total += stage_n[drop_stage - 1, arm]
    return total


@pytest.mark.parametrize("n_stages", [1, 2, 3])
@pytest.mark.parametrize("n_arms, sided", [(3, TWO_SIDED), (4, TWO_SIDED),
                                           (3, ONE_SIDED), (4, ONE_SIDED)])
def test_total_sample_size_matches_the_reference(n_arms, sided, n_stages):
    stage_n = tuple(tuple(q * (40 + 10 * arm) for arm in range(n_arms))
                    for q in range(1, n_stages + 1))
    config = TrialConfig(n_arms, (1.0,) * n_arms, stage_n, sided=sided)
    m = config.n_comparisons
    rng = np.random.default_rng(n_arms * 10 + n_stages)
    for p_reject in (0.5, 0.9):
        # independent draws: stages also where nothing was rejected, and rows
        # where both directions of a one-sided pair were rejected, at the
        # same or at different analyses
        rejected = rng.random((3000, m)) < p_reject
        stopped = rng.integers(1, n_stages + 1, (3000, m))
        for layout in (np.asarray, np.asfortranarray):
            got = _total_sample_size(config, layout(rejected), layout(stopped))
            expect = _reference_total_sample_size(config, rejected, stopped)
            assert np.array_equal(got, expect)
        if sided == ONE_SIDED:
            assert np.any(rejected[:, :m // 2] & rejected[:, m // 2:])


# The simulate benchmark's staged scenario.  One block of its statistics and
# decisions takes under 5 MB; a run that held every replicate at once would
# take tens.
STAGED_PEAK_MB = 8.0


def _traced_peak_mb(call) -> float:
    """Peak of the memory traced by ``tracemalloc`` (numpy's buffers too)
    while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_memory_does_not_grow_with_replicates(cfg_k3_q2):
    def run(replicates):
        return run_scenario(SimScenario(
            config=cfg_k3_q2,
            means=MeanConfig((0.25, 0.1, 0.0)),
            procedures=("dunnett-gs", "dunnett-gs-generalised", "combination"),
            replicates=replicates,
            seed=0,
            accuracy=1e-3,
            spending=SpendingSchedule.obrien_fleming(0.05, (0.5, 1.0)),
        ))

    # the module-level caches the tables fill are not the run's
    run(100)
    small = _traced_peak_mb(lambda: run(100_000))
    large = _traced_peak_mb(lambda: run(1_000_000))
    assert large <= 1.1 * small
    assert large < STAGED_PEAK_MB
