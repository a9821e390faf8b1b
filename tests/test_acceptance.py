"""The package's eight headline guarantees, one test per criterion.

Each test prints a single PASS/FAIL line outside pytest's capture so the
full checklist is visible in any run log, then asserts.  Seeds are fixed, so
every check is deterministic; the Monte Carlo tolerances below were sized to
the stated criteria before the seeds were frozen.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from pairwise_closure.closure import critical_values
from pairwise_closure.combination import (
    CombinationWeights,
    TailProbabilityTable,
    batch_flexible_test,
    combine,
)
from pairwise_closure.model import TrialConfig
from pairwise_closure.power import MeanConfig, lfc, lfc_check
from pairwise_closure.sequential import (
    SpendingSchedule,
    gs_boundaries,
    joint_covariance,
)
from pairwise_closure.simulate import (
    TABLE1_N_PER_ARM,
    TABLE1_SIGMA,
    SimScenario,
    run_scenario,
    simulate_statistics,
)


@pytest.fixture
def report(capsys):
    def _report(number: int, label: str, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"{'PASS' if ok else 'FAIL'} {number} ({label}): {detail}")

    return _report


def test_1_null_error_rates_match_reference(report):
    t0 = time.monotonic()
    config = TrialConfig.single_stage(4, TABLE1_SIGMA**2, TABLE1_N_PER_ARM)
    scenario = SimScenario(
        config=config,
        means=MeanConfig((0.0,) * 4),
        procedures=("dunnett", "global", "bonferroni", "unadjusted"),
        replicates=100_000,
        seed=0,
    )
    result = run_scenario(scenario)
    rate = {tag: result.summary(tag).any_reject for tag in scenario.procedures}
    elapsed = time.monotonic() - t0
    ok = (
        abs(rate["dunnett"] - 0.05) < 0.005
        and abs(rate["global"] - 0.05) < 0.005
        and 0.033 <= rate["bonferroni"] <= 0.047
        and abs(rate["unadjusted"] - 0.20) < 0.006
        and elapsed < 120.0
    )
    report(
        1,
        "null error rates",
        ok,
        f"dunnett {rate['dunnett']:.4f} global {rate['global']:.4f} "
        f"bonferroni {rate['bonferroni']:.4f} unadjusted "
        f"{rate['unadjusted']:.4f} in {elapsed:.1f}s",
    )
    assert ok


def _empirical_max_abs_quantile(n_arms: int, seed: int, n: int = 10_000_000):
    """95% quantile of the max-|z| null distribution by brute force.

    The standard error comes from the usual quantile asymptotics with the
    density estimated from the same sample.
    """
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(n_arms) for j in range(i + 1, n_arms)]
    out = np.empty(n)
    done = 0
    while done < n:
        take = min(500_000, n - done)
        arms = rng.standard_normal((take, n_arms))
        z = np.stack(
            [(arms[:, i] - arms[:, j]) / math.sqrt(2.0) for i, j in pairs],
            axis=1,
        )
        out[done : done + take] = np.abs(z).max(axis=1)
        done += take
    quantile = float(np.quantile(out, 0.95))
    h = 0.02
    density = np.mean(np.abs(out - quantile) < h) / (2.0 * h)
    se = math.sqrt(0.95 * 0.05 / n) / density
    return quantile, se


def test_2_critical_values_match_brute_force(report, table_k3, table_k4):
    checks = []
    for table, seed in ((table_k3, 1003), (table_k4, 1004)):
        value = table.value(table.full_set())
        emp, se = _empirical_max_abs_quantile(table.config.n_arms, seed=seed)
        checks.append((table.config.n_arms, abs(value - emp), 3.0 * se))
    cfg_k2 = TrialConfig.single_stage(2, 1.0, 100)
    k2 = critical_values(cfg_k2, 0.05, seed=1).value({1})
    ok = all(diff < bound for _, diff, bound in checks) and abs(k2 - 1.9600) < 1e-4
    detail = ", ".join(
        f"K={k} |diff| {diff:.1e} <= {bound:.1e}" for k, diff, bound in checks
    )
    report(2, "critical-value oracle", ok, f"{detail}, K=2 {k2:.6f}")
    assert ok


def test_2_critical_values_match_studentized_range(report, table_k3, table_k4):
    # with equal variances and sizes the full-set statistic is the
    # studentized range with infinite degrees of freedom, over sqrt(2); K=5
    # is the largest full set the benchmark solves, and only its full set is
    # looked up here
    table_k5 = critical_values(TrialConfig.single_stage(5, 1.0, 100), 0.05, seed=1)
    errors = []
    for table in (table_k3, table_k4, table_k5):
        k = table.config.n_arms
        oracle = stats.studentized_range.ppf(0.95, k, math.inf) / math.sqrt(2.0)
        errors.append((k, abs(table.value(table.full_set()) - oracle)))
    ok = all(err < 1e-4 for _, err in errors)
    detail = ", ".join(f"K={k} |diff| {err:.1e} < 1e-4" for k, err in errors)
    report(2, "studentized-range oracle", ok, detail)
    assert ok


def test_3_closure_dominates_single_step(report, cfg_k4, table_k4):
    c_full = table_k4.value(table_k4.full_set())
    strict = c_full < 2.6383
    scenario = SimScenario(
        config=cfg_k4,
        means=MeanConfig((0.0,) * 4),
        procedures=("dunnett", "bonferroni"),
        replicates=10_000,
        seed=3,
    )
    decisions = run_scenario(scenario, keep_decisions=True).decisions
    dominated = bool(np.all(decisions["bonferroni"] <= decisions["dunnett"]))
    nontrivial = bool(decisions["dunnett"].any())
    ok = strict and dominated and nontrivial
    report(
        3,
        "single-step dominance",
        ok,
        f"C_F(4) = {c_full:.4f} < 2.6383; bonferroni within dunnett on "
        f"{len(decisions['dunnett'])} common-noise replicates",
    )
    assert ok


def test_4_strict_consonance(report, table_k4, gs_k3_q2):
    flat = table_k4.entries()
    single_ok = all(
        flat[a] < flat[b]
        for a in flat
        for b in flat
        if a < b
    )
    staged = gs_k3_q2.entries()
    staged_ok = all(
        all(ca < cb for ca, cb in zip(staged[a], staged[b]))
        for a in staged
        for b in staged
        if a < b
    )
    ok = single_ok and staged_ok
    report(
        4,
        "strict consonance",
        ok,
        f"{len(flat)}-subset single-stage sweep and {len(staged)}-subset "
        "two-stage sweep both strictly ordered",
    )
    assert ok


def test_5_boundaries_spend_alpha_on_schedule(report):
    config = TrialConfig.single_stage(3, 1.0, 40).with_stage_n(
        ((40,) * 3, (80,) * 3, (120,) * 3)
    )
    times = tuple(config.info_fractions())
    n = 200_000
    z_cum, _ = simulate_statistics(config, (0.0,) * 3, n, seed=18)
    stat = np.abs(z_cum).max(axis=2)
    details = []
    ok = True
    for name, schedule in (
        ("pocock", SpendingSchedule.pocock(0.05, times, seed=17)),
        ("obrien-fleming", SpendingSchedule.obrien_fleming(0.05, times)),
    ):
        bounds = gs_boundaries(config, schedule, seed=17)
        c_full = np.asarray(bounds.value(bounds.full_set()))
        escaped = np.maximum.accumulate(stat > c_full, axis=1).mean(axis=0)
        worst = 0.0
        for q, target in enumerate(schedule.per_stage):
            se = math.sqrt(target * (1.0 - target) / n)
            dev = abs(escaped[q] - target)
            ok &= dev < 3.0 * se
            worst = max(worst, dev)
        ok &= schedule.per_stage[-1] == pytest.approx(0.05, abs=1e-12)
        details.append(f"{name} max|dev| {worst:.1e}, total {escaped[-1]:.4f}")
    report(5, "alpha spend by stage", ok, "; ".join(details))
    assert ok


def test_6_least_favourable_configuration_is_minimum(report, cfg_k4):
    delta = 0.5
    flat = lfc_check(cfg_k4, delta, seed=1)
    margin = min(a["power"] for a in flat["alternatives"]) - flat["lfc_power"]

    staged = TrialConfig.single_stage(4, 1.0, 40).with_stage_n(
        ((40,) * 4, (80,) * 4)
    )
    schedule = SpendingSchedule.power_family(0.05, tuple(staged.info_fractions()))
    bounds = gs_boundaries(staged, schedule, seed=23)
    c_full = np.asarray(bounds.value(bounds.full_set()))
    n = 40_000

    def disjunctive(mu):
        z_cum, _ = simulate_statistics(staged, mu, n, seed=24)
        return float((np.abs(z_cum).max(axis=2) > c_full).any(axis=1).mean())

    base_means = lfc(4, delta)
    base = disjunctive(base_means.mu)
    staged_ok = True
    lowest = 1.0
    for eps in (-delta / 2, -delta / 4, delta / 4, delta / 2):
        mu = list(base_means.mu)
        mu[2] = delta / 2.0 + eps
        power = disjunctive(tuple(mu))
        lowest = min(lowest, power)
        se_pair = math.sqrt(
            (base * (1 - base) + power * (1 - power)) / n
        )
        staged_ok &= power >= base - 3.0 * se_pair
    ok = flat["is_minimum"] and staged_ok
    report(
        6,
        "least favourable configuration",
        ok,
        f"single-stage grid margin {margin:+.4f}; staged base {base:.4f} "
        f"vs perturbed >= {lowest:.4f}",
    )
    assert ok


def test_7_combination_uniformity_and_adaptive_fwer(report, cfg_k3_q2):
    table = TailProbabilityTable(cfg_k3_q2, seed=5)
    weights = CombinationWeights.from_information(cfg_k3_q2)
    _, z_stage = simulate_statistics(cfg_k3_q2, (0.0,) * 3, 10_000, seed=33)
    min_ks = 1.0
    for members in ([1], [1, 2], [1, 2, 3]):
        cols = [k - 1 for k in members]
        p_by_stage = [
            np.array(
                [
                    table.pvalue(members, z)
                    for z in np.abs(z_stage[:, q, cols]).max(axis=1)
                ]
            )
            for q in range(2)
        ]
        min_ks = min(min_ks, stats.kstest(p_by_stage[0], "uniform").pvalue)
        combined = combine(np.stack(p_by_stage), weights)
        min_ks = min(min_ks, stats.kstest(combined, "uniform").pvalue)

    # stage 2 is resized from stage-1 data; stage-wise statistics stay
    # null-uniform so the familywise error cannot inflate
    rng = np.random.default_rng(37)
    n, n1 = 100_000, 50
    pairs = [(0, 1), (0, 2), (1, 2)]

    def pairwise_z(means, n_per_arm):
        scale = np.sqrt(2.0 / n_per_arm)
        return np.stack(
            [(means[:, i] - means[:, j]) / scale for i, j in pairs], axis=1
        )

    mean1 = rng.standard_normal((n, 3)) / math.sqrt(n1)
    z1 = pairwise_z(mean1, n1)
    n2 = np.where(np.abs(z1).max(axis=1) > 1.2, 25, 400)
    mean2 = rng.standard_normal((n, 3)) / np.sqrt(n2)[:, None]
    z2 = pairwise_z(mean2, n2)
    rejected = batch_flexible_test(
        np.stack([z1, z2], axis=1), cfg_k3_q2, weights, table=table
    )
    fwer = float(rejected.any(axis=1).mean())
    bound = 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / n)
    ok = min_ks > 0.01 and fwer <= bound
    report(
        7,
        "combination-test contract",
        ok,
        f"min KS p {min_ks:.3f} > 0.01; adaptive-resize FWER {fwer:.4f} "
        f"<= {bound:.4f}",
    )
    assert ok


def test_8_staged_covariance_matches_model(report):
    config = TrialConfig.single_stage(4, 1.0, 40).with_stage_n(
        ((40,) * 4, (80,) * 4, (120,) * 4)
    )
    n = 100_000
    z_cum, _ = simulate_statistics(config, (0.0,) * 4, n, seed=41)
    flat = z_cum.reshape(n, -1)
    empirical = flat.T @ flat / n
    theoretical = joint_covariance(config)
    # exact sampling variance of each entry for unit-variance normal data
    bound = 3.0 * np.sqrt((1.0 + theoretical**2) / n)
    ratio = float((np.abs(empirical - theoretical) / bound).max())
    ok = ratio < 1.0
    report(
        8,
        "joint covariance",
        ok,
        f"max |dev| / (3 SE) = {ratio:.2f} over {theoretical.size} entries",
    )
    assert ok
