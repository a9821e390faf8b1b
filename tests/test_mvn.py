import itertools
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri
from scipy.stats import multivariate_normal, studentized_range

from pairwise_closure import mvn
from pairwise_closure.model import TrialConfig, correlation
from pairwise_closure.mvn import (
    AccuracyError,
    ProbResult,
    Rectangle,
    SolverError,
    _two_phase_root,
    equicoord_quantile,
    mvn_rect,
)
from pairwise_closure.sequential import SpendingSchedule, gs_boundaries, joint_covariance


def pairwise_corr(n_arms):
    config = TrialConfig.single_stage(n_arms, 1.0, 30)
    m = n_arms * (n_arms - 1) // 2
    return correlation(config, range(1, m + 1)).matrix


def max_abs_pairwise_mc(n_arms, c, n_draws, seed):
    # Monte Carlo oracle: simulate arm means directly, never through the
    # correlation matrix under test.
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(n_arms) for j in range(i + 1, n_arms)]
    hits = 0
    chunk = 2_000_000
    done = 0
    while done < n_draws:
        n = min(chunk, n_draws - done)
        g = rng.standard_normal((n, n_arms))
        z = np.column_stack([(g[:, i] - g[:, j]) / np.sqrt(2) for i, j in pairs])
        hits += int((np.abs(z).max(axis=1) < c).sum())
        done += n
    return hits / n_draws


def test_rectangle_validation():
    with pytest.raises(ValueError):
        Rectangle([0.0, 0.0], [1.0])
    with pytest.raises(ValueError):
        Rectangle([0.0, 2.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        Rectangle([np.nan], [1.0])
    with pytest.raises(ValueError):
        Rectangle.centered(-1.0, 2)
    rect = Rectangle.below(1.5, 3)
    assert rect.dim == 3
    assert np.all(np.isneginf(rect.lower))


def test_univariate_is_exact():
    res = mvn_rect(0.0, np.eye(1), Rectangle([-1.0], [2.0]), seed=0)
    assert res.value == pytest.approx(ndtr(2.0) - ndtr(-1.0), abs=1e-15)
    assert res.n_points == 0


def test_univariate_mean_shift():
    res = mvn_rect(0.5, np.eye(1), Rectangle([-1.0], [2.0]), seed=0)
    assert res.value == pytest.approx(ndtr(1.5) - ndtr(-1.5), abs=1e-15)


def test_zero_correlation_factorizes():
    for dim in (2, 3, 4):
        res = mvn_rect(0.0, np.eye(dim), Rectangle.centered(1.0, dim), seed=2)
        exact = (ndtr(1.0) - ndtr(-1.0)) ** dim
        assert res.value == pytest.approx(exact, abs=3e-5)
        assert abs(res.value - exact) <= 5 * max(res.err_est, 1e-12)


def test_exchangeable_dim3_against_simulation():
    rho = 0.5
    corr = np.full((3, 3), rho)
    np.fill_diagonal(corr, 1.0)
    res = mvn_rect(0.0, corr, Rectangle.centered(2.0, 3), seed=3)
    # 1e7-draw oracle via the one-factor representation of exchangeable normals
    rng = np.random.default_rng(2024)
    hits = 0
    for _ in range(5):
        shared = rng.standard_normal((2_000_000, 1))
        z = np.sqrt(rho) * shared + np.sqrt(1 - rho) * rng.standard_normal((2_000_000, 3))
        hits += int((np.abs(z).max(axis=1) < 2.0).sum())
    p_mc = hits / 1e7
    se = np.sqrt(p_mc * (1 - p_mc) / 1e7)
    assert res.value == pytest.approx(p_mc, abs=3 * se + res.err_est)


def test_matches_reference_integrator_nonsingular():
    rng = np.random.default_rng(17)
    for dim in (2, 3, 5):
        a = rng.standard_normal((dim, dim + 3))
        cov = a @ a.T
        d = np.sqrt(np.diag(cov))
        corr = cov / np.outer(d, d)
        lo = rng.uniform(-2.5, -0.3, dim)
        hi = rng.uniform(0.3, 2.5, dim)
        mean = rng.uniform(-0.4, 0.4, dim)
        res = mvn_rect(mean, corr, Rectangle(lo, hi), seed=5)
        ref = multivariate_normal(mean, corr).cdf(hi, lower_limit=lo)
        assert res.value == pytest.approx(ref, abs=5e-5)


def test_singular_pairwise_matrix_matches_simulation():
    # rank K-1 < m: the working case this kernel exists for
    for n_arms, c in ((3, 2.3434), (4, 2.5689)):
        corr = pairwise_corr(n_arms)
        assert np.linalg.matrix_rank(corr) == n_arms - 1
        res = mvn_rect(0.0, corr, Rectangle.centered(c, corr.shape[0]), seed=4)
        p_mc = max_abs_pairwise_mc(n_arms, c, 4_000_000, seed=90 + n_arms)
        se = np.sqrt(p_mc * (1 - p_mc) / 4e6)
        assert res.value == pytest.approx(p_mc, abs=3 * se + res.err_est)


def test_perfect_negative_correlation_folds_exactly():
    corr = np.array([[1.0, -1.0], [-1.0, 1.0]])
    res = mvn_rect(0.0, corr, Rectangle.below(1.959964, 2), seed=6)
    # Z2 = -Z1, so the event is -c < Z1 < c; the fold makes this exact
    assert res.value == pytest.approx(2 * ndtr(1.959964) - 1, abs=1e-12)
    assert res.n_points <= 1


def test_perfect_positive_correlation_folds_exactly():
    corr = np.array([[1.0, 1.0], [1.0, 1.0]])
    res = mvn_rect(0.0, corr, Rectangle([-1.0, -2.0], [0.5, 2.0]), seed=6)
    # Z2 = Z1: intersection of the two intervals
    assert res.value == pytest.approx(ndtr(0.5) - ndtr(-1.0), abs=1e-12)


def test_monotone_in_rectangle():
    corr = pairwise_corr(4)
    values = [
        mvn_rect(0.0, corr, Rectangle.centered(c, 6), seed=7).value
        for c in (1.0, 1.5, 2.0, 2.5, 3.0)
    ]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_permutation_invariance():
    corr = pairwise_corr(3)
    lo = np.array([-1.0, -2.0, -1.5])
    hi = np.array([2.0, 1.0, 1.8])
    base = mvn_rect(0.0, corr, Rectangle(lo, hi), seed=8)
    for perm in itertools.permutations(range(3)):
        p = list(perm)
        res = mvn_rect(0.0, corr[np.ix_(p, p)], Rectangle(lo[p], hi[p]), seed=8)
        assert res.value == pytest.approx(base.value, abs=3e-5)


def test_complement_inclusion_exclusion_sums_to_one():
    # P(box) plus the inclusion-exclusion expansion of its complement
    corr = np.array([[1.0, 0.3, -0.2], [0.3, 1.0, 0.4], [-0.2, 0.4, 1.0]])
    lo = np.array([-1.2, -0.8, -1.5])
    hi = np.array([0.9, 1.4, 1.1])
    acc = 2e-6

    def prob(bounds):
        lows = np.array([b[0] for b in bounds])
        highs = np.array([b[1] for b in bounds])
        return mvn_rect(0.0, corr, Rectangle(lows, highs), accuracy=acc, seed=9).value

    total = prob([(lo[d], hi[d]) for d in range(3)])
    for subset_size in (1, 2, 3):
        for axes in itertools.combinations(range(3), subset_size):
            sign = (-1) ** (subset_size + 1)
            # each "outside" axis splits into below-lo and above-hi tails
            for tails in itertools.product(*[[(-np.inf, lo[d]), (hi[d], np.inf)] for d in axes]):
                bounds = []
                for d in range(3):
                    if d in axes:
                        bounds.append(tails[axes.index(d)])
                    else:
                        bounds.append((-np.inf, np.inf))
                total += sign * prob(bounds)
    assert total == pytest.approx(1.0, abs=1e-4)


def test_deterministic_for_fixed_seed():
    corr = pairwise_corr(4)
    a = mvn_rect(0.0, corr, Rectangle.centered(2.0, 6), seed=10)
    b = mvn_rect(0.0, corr, Rectangle.centered(2.0, 6), seed=10)
    assert a == b  # bit-identical dataclass comparison
    c = mvn_rect(0.0, corr, Rectangle.centered(2.0, 6), seed=11)
    assert c.value != a.value or c.err_est != a.err_est


def test_error_estimate_reflects_scatter():
    # K=4 integrates in two dimensions, on the lattice (K=3 is exact)
    corr = pairwise_corr(4)
    rect = Rectangle.centered(2.0, 6)
    results = [mvn_rect(0.0, corr, rect, accuracy=1e-4, seed=s) for s in range(24)]
    values = np.array([r.value for r in results])
    errs = np.array([r.err_est for r in results])
    # err_est is ~3 standard errors, so the cross-seed spread should sit
    # near a third of it and the extremes within it
    spread = values.max() - values.min()
    assert spread <= 2.5 * errs.max()
    assert values.std() <= errs.mean()


def test_zero_width_rectangle_is_zero():
    corr = pairwise_corr(3)
    res = mvn_rect(0.0, corr, Rectangle([0.0, -1.0, -1.0], [0.0, 1.0, 1.0]), seed=12)
    assert res.value == 0.0


def test_validation_errors():
    with pytest.raises(ValueError):
        mvn_rect(0.0, np.array([[1.0, 0.9], [0.9, 1.0]]), Rectangle.centered(1.0, 3), seed=0)
    bad = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
    with pytest.raises(ValueError):
        mvn_rect(0.0, bad, Rectangle.centered(1.0, 3), seed=0)
    with pytest.raises(ValueError):
        mvn_rect(np.inf, np.eye(2), Rectangle.centered(1.0, 2), seed=0)


def test_accuracy_unreachable_raises():
    corr = pairwise_corr(4)
    with pytest.raises(AccuracyError):
        mvn_rect(0.0, corr, Rectangle.centered(2.0, 6), accuracy=1e-9, seed=0,
                 max_points=20_000)
    # a rank-2 rectangle's error estimate is at least 1e-16
    with pytest.raises(AccuracyError):
        mvn_rect(0.0, pairwise_corr(3), Rectangle.centered(2.0, 3), accuracy=1e-17)


def test_quantile_univariate_closed_form():
    c = equicoord_quantile(np.eye(1), 0.95, seed=0)
    assert c == pytest.approx(1.959964, abs=1e-6)
    u = equicoord_quantile(np.eye(1), 0.95, seed=0, tail="upper")
    assert u == pytest.approx(ndtri(0.95), abs=1e-12)


def test_quantile_independent_closed_form():
    # P(max |Z| < c) = (2 Phi(c) - 1)^2 for two independent coordinates
    c = equicoord_quantile(np.eye(2), 0.95, seed=1)
    exact = ndtri(0.5 * (1 + np.sqrt(0.95)))
    assert c == pytest.approx(exact, abs=2e-4)


def test_quantile_monotone_in_probability():
    corr = pairwise_corr(3)
    qs = [equicoord_quantile(corr, p, seed=2) for p in (0.8, 0.9, 0.95, 0.99)]
    assert all(a < b for a, b in zip(qs, qs[1:]))


def test_quantile_deterministic():
    corr = pairwise_corr(4)
    a = equicoord_quantile(corr, 0.95, seed=3)
    b = equicoord_quantile(corr, 0.95, seed=3)
    assert a == b


def test_quantile_validation():
    with pytest.raises(ValueError):
        equicoord_quantile(np.eye(2), 1.2, seed=0)
    with pytest.raises(ValueError):
        equicoord_quantile(np.eye(2), 0.95, seed=0, tail="lower")


def test_quantile_round_trip():
    corr = pairwise_corr(4)
    c = equicoord_quantile(corr, 0.95, seed=4)
    back = mvn_rect(0.0, corr, Rectangle.centered(c, 6), seed=99)
    assert back.value == pytest.approx(0.95, abs=3e-4)


def staged_corr():
    config = TrialConfig.single_stage(3, 1.0, 50).with_stage_n(((50,) * 3, (100,) * 3))
    return joint_covariance(config)


@pytest.mark.parametrize(
    "mean, corr, rect, accuracy, seed, expected",
    [
        # singular K=4 full set, two-sided
        (0.0, pairwise_corr(4), Rectangle.centered(2.5, 6), 1e-5, 10,
         ProbResult(0.9401065588522209, 5.864985206769634e-06, 49152)),
        # an infinite limit on each side and a nonzero mean, nonsingular
        ([0.2, -0.1, 0.3],
         np.array([[1.0, 0.3, -0.2], [0.3, 1.0, 0.4], [-0.2, 0.4, 1.0]]),
         Rectangle([-np.inf, -1.0, -0.5], [1.2, np.inf, 0.8]), 1e-5, 9,
         ProbResult(0.3198406078532558, 5.271247573871954e-06, 12288)),
        # one-sided singular K=3 full set with a nonzero mean: rank 2, so
        # Gauss-Legendre on 9 pieces; nested quad gives 0.891512527726486
        ([0.2, -0.1, 0.3], pairwise_corr(3), Rectangle.below(1.9, 3), 1e-5, 9,
         ProbResult(0.8915125277264999, 2.220446049250313e-16, 324)),
        # staged K=3 Q=2 matrix: the last round takes each shift from 4,096
        # to 8,192 points, four lattice chunks
        (0.0, staged_corr(), Rectangle.centered(2.4, 6), 1e-5, 1,
         ProbResult(0.9264369577455693, 9.737986496013914e-06, 98304)),
    ],
    ids=["k4-two-sided", "infinite-limits-mean", "k3-one-sided-mean", "staged-chunks"],
)
def test_kernel_bits_are_pinned(mean, corr, rect, accuracy, seed, expected):
    # exact literals: any change to the integrand or the lattice loop that
    # moves a single bit fails here
    assert mvn_rect(mean, corr, rect, accuracy=accuracy, seed=seed) == expected


def test_quantile_bits_are_pinned():
    assert equicoord_quantile(pairwise_corr(3), 0.95, seed=3) == 2.343700586378407


def test_coarse_accuracy_is_one_policy():
    # a twentieth of the level, capped at 5e-4, never finer than the target,
    # and no finer below the level 1e-3 than at it
    assert mvn._coarse_accuracy(1e-5, 0.05) == 5e-4
    assert mvn._coarse_accuracy(1e-5, 2e-3) == 0.05 * 2e-3
    assert mvn._coarse_accuracy(1e-5, 1e-4) == mvn._coarse_accuracy(1e-5, 1e-3)
    assert mvn._coarse_accuracy(1e-3, 0.05) == 1e-3


def test_quantile_at_level_1e3_keeps_its_bits():
    assert equicoord_quantile(pairwise_corr(4), 0.999, seed=1) == 3.7542760954898386


def test_quantile_below_level_1e3_is_pinned():
    # the coarse phase runs at the accuracy of level 1e-3 below it
    assert equicoord_quantile(pairwise_corr(4), 0.9999, seed=1) == 4.30404463028844


@pytest.mark.parametrize("n_arms, tail", [(3, "central"), (4, "central"), (4, "upper")])
def test_quantile_takes_one_fresh_full_accuracy_evaluation(n_arms, tail, monkeypatch):
    accuracies, anchored = [], []
    qmc_estimate = mvn._qmc_estimate

    def counting(*args, **kwargs):
        accuracies.append(kwargs["accuracy"])
        return mvn_rect(*args, **kwargs)

    def recording(steps, rank, accuracy, seed, max_points, anchor=None):
        anchored.append(anchor is not None)
        return qmc_estimate(steps, rank, accuracy, seed, max_points, anchor)

    factored, _ = _count_factorizations(monkeypatch)
    monkeypatch.setattr(mvn, "mvn_rect", counting)
    monkeypatch.setattr(mvn, "_qmc_estimate", recording)
    config = TrialConfig.single_stage(n_arms, 1.0, 30,
                                      sided="two-sided" if tail == "central" else "one-sided")
    corr = correlation(config, range(1, config.n_comparisons + 1))
    equicoord_quantile(corr, 0.95, seed=1, accuracy=1e-5, tail=tail)
    if n_arms == 3:
        # rank 2: Newton on one scaled partition, without the kernel
        assert accuracies == []
        return
    # one fresh full-accuracy call, the anchor; the Newton and secant
    # steps after it integrate only their difference from its box, outside
    # the kernel's entry point
    assert accuracies.count(1e-5) == 1
    assert len(accuracies) > 1  # the rest ran at the coarse accuracy
    assert anchored.count(True) >= 1
    if tail == "central":
        # the factorization at c = 1 that found the rank is the kept plan
        # every kernel call of the solve reuses
        assert len(factored) == 1
    else:
        # an orthant's picks move with c: each call factors afresh
        assert len(factored) == len(accuracies) + 1


def test_k4_quantile_makes_at_most_six_coarse_calls(monkeypatch):
    # the score-scale search: two ends, then regula falsi on a nearly
    # linear score
    accuracies = []

    def counting(*args, **kwargs):
        accuracies.append(kwargs["accuracy"])
        return mvn_rect(*args, **kwargs)

    monkeypatch.setattr(mvn, "mvn_rect", counting)
    equicoord_quantile(pairwise_corr(4), 0.95, accuracy=1e-5)
    assert sum(acc > 1e-5 for acc in accuracies) <= 6


def _k4_q2_joint():
    config = TrialConfig.single_stage(4, 1.0, 50).with_stage_n(((50,) * 4, (100,) * 4))
    return joint_covariance(config)


def _stage2_box(first, c, width=6):
    upper = np.repeat([first, c], width)
    return Rectangle(-upper, upper)


@pytest.mark.parametrize("corr, box, c0", [
    (pairwise_corr(4), lambda c: Rectangle.centered(c, 6), 2.569),
    (_k4_q2_joint(), lambda c: _stage2_box(3.2876, c), 2.5898),
], ids=["k4-quantile", "k4-q2-stage-2"])
@pytest.mark.parametrize("seed", [0, 1])
def test_an_anchored_value_agrees_with_a_fresh_one(corr, box, c0, seed):
    accuracy = 1e-5
    anchor = mvn._SolveAnchor(mvn.CorrelationModel(corr), seed, accuracy, mvn_rect)
    first = anchor(box(c0), accuracy)
    # the anchor itself is a fresh call
    assert first == mvn_rect(0.0, corr, box(c0), accuracy=accuracy, seed=seed)
    for c in (c0 - 5e-3, c0 + 1e-3):
        found = anchor._difference(box(c))
        assert found is not None and found.n_points < first.n_points
        assert found.err_est <= accuracy
        fresh = mvn_rect(0.0, corr, box(c), accuracy=accuracy, seed=seed)
        assert abs(found.value - fresh.value) <= found.err_est + fresh.err_est
        assert anchor(box(c), accuracy) == found


def test_anchored_evaluations_fall_back_to_fresh_calls():
    entries = []

    def fresh(*args, **kwargs):
        entries.append(kwargs["_anchor"] is not None)
        return mvn_rect(*args, **kwargs)

    def solve_anchor(corr, accuracy):
        return mvn._SolveAnchor(mvn.CorrelationModel(corr), 2, accuracy, fresh)

    # a box that keeps other coordinates: stage 1 with nothing to spend
    corr = _k4_q2_joint()
    anchor = solve_anchor(corr, 1e-4)
    anchor(_stage2_box(3.2876, 2.59), 1e-4)
    dropped = _stage2_box(np.inf, 2.58)
    assert anchor._difference(dropped) is None
    assert anchor(dropped, 1e-4) == mvn_rect(0.0, corr, dropped, accuracy=1e-4, seed=2)
    # an anchor of one round: a difference evaluates every point twice, so
    # even its first round would spend more than the anchor did
    corr = pairwise_corr(4)
    anchor = solve_anchor(corr, 1e-2)
    first = anchor(Rectangle.centered(2.5, 6), 1e-2)
    assert first.n_points == 12 * mvn._FIRST_ROUND
    near = Rectangle.centered(2.49, 6)
    assert anchor._difference(near) is None
    assert anchor(near, 1e-2) == mvn_rect(0.0, corr, near, accuracy=1e-2, seed=2)
    # a box far from the anchor's, whose difference is as rough as a fresh
    # value: its rounds stop before they outspend the anchor
    anchor = solve_anchor(corr, 1e-6)
    first = anchor(Rectangle.centered(2.5, 6), 1e-6)
    far = Rectangle.centered(0.6, 6)
    assert anchor._difference(far) is None
    assert anchor(far, 1e-6) == mvn_rect(0.0, corr, far, accuracy=1e-6, seed=2)
    # each anchor entered the kernel for itself, then for each fallback
    assert entries == [True, False, True, False, True, False]
    # the coarse accuracy is always a fresh call
    assert anchor(near, 1e-3) == mvn_rect(0.0, corr, near, accuracy=1e-3, seed=2)


def test_solves_do_not_depend_on_call_history():
    # a solve's anchor lives for that solve alone, and the kernel's kept
    # points and plans give the bits of a cold call
    one_sided = TrialConfig.single_stage(4, (1.0, 1.5, 0.7, 1.2), 40, sided="one-sided")
    staged = TrialConfig.single_stage(3, 1.0, 50).with_stage_n(((50,) * 3, (100,) * 3))
    schedule = SpendingSchedule.power_family(0.05, (0.5, 1.0))
    solves = [
        lambda: equicoord_quantile(pairwise_corr(4), 0.95, seed=1),
        lambda: equicoord_quantile(correlation(one_sided, [1, 2, 4, 5]), 0.9, seed=2,
                                   tail="upper"),
        lambda: equicoord_quantile(pairwise_corr(5), 0.95, seed=1, accuracy=1e-4),
        lambda: gs_boundaries(staged, schedule, seed=3).value({1, 2, 3}),
    ]
    cold = [_cold(solve) for solve in solves]
    for i in np.random.default_rng(6).permutation(np.repeat(np.arange(len(solves)), 2)):
        assert solves[i]() == cold[i]


def _kinked(c, acc):
    # A tail crossing 0.5 with a kink at its root 2.05: steep below, flat
    # above.  Its coarse evaluations see only a near-flat line through 2, so
    # the coarse slope sends the Newton step far outside the bracket.
    if acc > 1e-5:
        return 0.5 - 1e-6 * (c - 2.0)
    return 0.5 - (c - 2.05 if c < 2.05 else 1e-3 * (c - 2.05))


def test_root_falls_back_to_illinois_when_newton_leaves_the_bracket(monkeypatch):
    xtols = []
    illinois = mvn._illinois

    def recording(f, a, fa, b, fb, xtol):
        xtols.append(xtol)
        return illinois(f, a, fa, b, fb, xtol)

    monkeypatch.setattr(mvn, "_illinois", recording)
    tol = 1e-4
    root = _two_phase_root(_kinked, 0.5, 0.0, 8.0, tol=tol, accuracy=1e-5)
    assert xtols == [5e-3, tol]  # the coarse phase, then the fallback
    expected = brentq(lambda c: _kinked(c, 1e-5) - 0.5, 0.0, 8.0, xtol=1e-12)
    assert root == pytest.approx(expected, abs=tol)
    again = _two_phase_root(_kinked, 0.5, 0.0, 8.0, tol=tol, accuracy=1e-5)
    assert again == root


def test_root_of_a_decreasing_objective():
    def falling(c, acc):
        return ndtr(-c)

    root = _two_phase_root(falling, 0.025, 0.0, 8.0, tol=1e-6, accuracy=1e-5)
    assert root == pytest.approx(ndtri(0.975), abs=1e-6)


def test_unbracketed_root_raises():
    with pytest.raises(SolverError):
        _two_phase_root(lambda c, acc: ndtr(-c - 1.0), 0.5, 0.0, 8.0, tol=1e-4,
                        accuracy=1e-5)


@pytest.mark.parametrize("tol", [0.0, -1e-4, np.nan, np.inf])
def test_invalid_tol_is_rejected(tol):
    with pytest.raises(ValueError, match="tol"):
        equicoord_quantile(pairwise_corr(3), 0.95, tol=tol)

    def never(c, acc):
        raise AssertionError("objective evaluated despite an invalid tol")

    with pytest.raises(ValueError, match="tol"):
        _two_phase_root(never, 0.05, 0.0, 8.0, tol=tol, accuracy=1e-5)


@pytest.mark.parametrize("accuracy", [0.0, -1e-5, np.nan, np.inf])
def test_invalid_accuracy_is_rejected(accuracy):
    with pytest.raises(ValueError, match="accuracy"):
        mvn_rect(0.0, pairwise_corr(3), Rectangle.centered(2.0, 3), accuracy=accuracy)


def test_matches_scipy_oracle_with_infinite_limits():
    # Genz's algorithm in scipy, run well below the tested accuracy, on
    # nonsingular rectangles with infinite limits and nonzero means.
    # err_est is three standard errors from twelve shifts, not a bound:
    # allow one rectangle in ten past it, as test_error_estimate_is_honest
    # does, but none past three times it.
    rng = np.random.default_rng(2027)
    misses = 0
    for case in range(10):
        dim = 2 + case % 4
        a = rng.standard_normal((dim, dim + 2))
        cov = a @ a.T
        d = np.sqrt(np.diag(cov))
        corr = cov / np.outer(d, d)
        lo = rng.uniform(-2.5, -0.2, dim)
        hi = rng.uniform(0.2, 2.5, dim)
        lo[rng.random(dim) < 0.3] = -np.inf
        hi[rng.random(dim) < 0.3] = np.inf
        mean = rng.uniform(-0.5, 0.5, dim)
        res = mvn_rect(mean, corr, Rectangle(lo, hi), accuracy=1e-6, seed=case)
        ref = multivariate_normal.cdf(
            hi, mean=mean, cov=corr, lower_limit=lo, abseps=1e-7, releps=0,
            rng=np.random.default_rng(case),
        )
        gap = abs(res.value - ref)
        assert gap <= 3 * res.err_est + 1e-7
        misses += gap > res.err_est + 1e-7
    assert misses <= 1


@pytest.mark.parametrize("seed", [-1, 1.5, None, "3"])
def test_seed_is_checked_at_every_rank(seed):
    # a one-coordinate rectangle and ranks 1, 2 and 3 read the seed at
    # different depths, or not at all
    cases = [(np.eye(1), 1), (np.ones((2, 2)), 2), (pairwise_corr(3), 3),
             (pairwise_corr(4), 6)]
    for corr, dim in cases:
        with pytest.raises(ValueError, match="seed"):
            mvn_rect(0.0, corr, Rectangle.centered(1.0, dim), seed=seed)


def test_rank2_evaluates_no_lattice_points(monkeypatch):
    def refuse(*args):
        raise AssertionError("a rank-2 rectangle reached the lattice")

    monkeypatch.setattr(mvn, "_evaluate", refuse)
    monkeypatch.setattr(mvn, "_point_set", refuse)
    corr2 = np.array([[1.0, 0.4], [0.4, 1.0]])
    for corr, rect in ((pairwise_corr(3), Rectangle.centered(2.3, 3)),
                       (corr2, Rectangle([-1.0, -np.inf], [0.5, 1.2]))):
        res = mvn_rect(0.0, corr, rect, accuracy=1e-9, seed=0)
        # 24 + 12 Gauss-Legendre nodes on each piece
        assert res.n_points > 0 and res.n_points % 36 == 0
        assert res.err_est < 1e-14


@pytest.mark.parametrize("c", [0.5, 1.5, 2.343, 3.0, 4.5])
def test_rank2_matches_studentized_range(c):
    res = mvn_rect(0.0, pairwise_corr(3), Rectangle.centered(c, 3), seed=0)
    assert abs(res.value - studentized_range.cdf(c * np.sqrt(2), 3, np.inf)) <= 1e-12


def _nested_quad(mean, b, lo, hi):
    """P(lo < mean + b u < hi) for u ~ N(0, I_2), by nested quad: u2 given u1
    inside, u1 outside.  A row of ``b`` without a u2 term bounds u1."""
    phi = lambda u: math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    free = b[:, 1] != 0.0
    left, right = (lo - mean) / b[:, 0], (hi - mean) / b[:, 0]
    outer = (np.max(np.where(b[:, 0] > 0, left, right)[~free], initial=-12.0),
             np.min(np.where(b[:, 0] > 0, right, left)[~free], initial=12.0))

    def inner(u1):
        m, c = mean[free] + b[free, 0] * u1, b[free, 1]
        left, right = (lo[free] - m) / c, (hi[free] - m) / c
        low, high = np.max(np.where(c > 0, left, right)), np.min(np.where(c > 0, right, left))
        return phi(u1) * quad(phi, low, high, epsabs=1e-15)[0] if low < high else 0.0

    return quad(inner, *outer, epsabs=1e-14, epsrel=1e-13, limit=400)[0]


def _k3_factor(v):
    """A factor b (b b^T the covariance) of the K=3 full set's differences
    x1 - x2, x1 - x3, x2 - x3 for arm variances v, free of cancellation."""
    s = math.sqrt(v[0] + v[1])
    w = math.sqrt((v[0] * v[1] + v[0] * v[2] + v[1] * v[2]) / (v[0] + v[1]))
    return np.array([[s, 0.0], [v[0] / s, w], [-v[1] / s, w]])


def _rank2_cases():
    """(mean, b, lo, hi) with the rows of b of unit length: every
    sidedness, nonzero means and infinite limits, on two correlated
    coordinates or on the singular K=3 full set with unequal variances."""
    rng = np.random.default_rng(31)
    cases = []
    for case in range(12):
        if case % 2:
            # the last design has one arm a million times as variable as the
            # others, so two comparisons correlate to 1 - 5e-7: steep lines
            b = _k3_factor([1e6, 1.0, 1.0] if case == 11 else rng.uniform(0.3, 3.0, 3))
        else:
            b = rng.standard_normal((2, 2))
        b /= np.linalg.norm(b, axis=1)[:, None]
        dim = b.shape[0]
        c = rng.uniform(0.5, 2.8, dim)
        if case % 4 < 2:
            lo, hi = -c, c.copy()  # two-sided, with an open side now and then
            hi[rng.random(dim) < 0.25] = np.inf
        else:
            lo, hi = np.full(dim, -np.inf), c  # one-sided
        cases.append((rng.uniform(-0.8, 0.8, dim), b, lo, hi))
    return cases


def test_rank2_matches_nested_quad():
    for mean, b, lo, hi in _rank2_cases():
        res = mvn_rect(mean, b @ b.T, Rectangle(lo, hi), seed=0)
        assert 36 <= res.n_points and res.err_est < 1e-12
        assert abs(res.value - _nested_quad(mean, b, lo, hi)) <= 1e-10


def test_coordinate_unbounded_on_both_sides_is_dropped():
    corr = np.array([[1.0, 0.5, -0.3, 0.1], [0.5, 1.0, 0.2, 0.4],
                     [-0.3, 0.2, 1.0, 0.3], [0.1, 0.4, 0.3, 1.0]])
    mean = np.array([0.3, -0.2, 0.1, 0.4])
    lo = np.array([-1.0, -np.inf, -np.inf, -0.5])
    hi = np.array([1.5, np.inf, 0.7, np.inf])
    full = mvn_rect(mean, corr, Rectangle(lo, hi), accuracy=1e-5, seed=4)
    keep = [0, 2, 3]
    reduced = mvn_rect(mean[keep], corr[np.ix_(keep, keep)],
                       Rectangle(lo[keep], hi[keep]), accuracy=1e-5, seed=4)
    assert full == reduced
    assert full.n_points > 0
    # one bounded coordinate left: the univariate closed form
    only = Rectangle(np.full(4, -np.inf), [np.inf, np.inf, 0.7, np.inf])
    assert mvn_rect(mean, corr, only) == ProbResult(float(ndtr(0.7 - 0.1)), 1e-15, 0)


def test_rectangle_unbounded_everywhere_is_exactly_one():
    for dim in (1, 3):
        everywhere = Rectangle(np.full(dim, -np.inf), np.full(dim, np.inf))
        res = mvn_rect(0.5, pairwise_corr(3)[:dim, :dim], everywhere)
        assert res.value == 1.0


def test_empty_interval_at_infinity_is_not_dropped():
    # (inf, inf) has both limits infinite but holds no mass
    rect = Rectangle([np.inf, -1.0], [np.inf, 1.0])
    assert mvn_rect(0.0, np.eye(2), rect).value == 0.0


def _honesty_cases():
    orthant = np.array([[1.0, 0.3, -0.2], [0.3, 1.0, 0.4], [-0.2, 0.4, 1.0]])
    # P(max_{i<j} |X_i - X_j| / sqrt 2 < c) is the studentized range cdf at
    # c sqrt 2; a trivariate orthant has Sheppard's closed form
    orthant_truth = 0.125 + sum(
        np.arcsin(orthant[i, j]) for i, j in ((0, 1), (0, 2), (1, 2))
    ) / (4 * np.pi)
    # a random walk with symmetric increments stays below 0 at all of its
    # first q steps with probability C(2q, q) / 4^q (Sparre Andersen): here
    # the cumulative statistic of one comparison at six equally spaced looks
    walk = TrialConfig.single_stage(2, 1.0, 10).with_stage_n(
        tuple((10 * q,) * 2 for q in range(1, 7)))
    return {
        "k4-fine": (pairwise_corr(4), Rectangle.centered(2.569, 6), 1e-5,
                    studentized_range.cdf(2.569 * np.sqrt(2), 4, np.inf)),
        "k4-full-set": (pairwise_corr(4), Rectangle.centered(2.569, 6), 5e-5,
                        studentized_range.cdf(2.569 * np.sqrt(2), 4, np.inf)),
        "orthant": (orthant, Rectangle.below(0.0, 3), 5e-6, orthant_truth),
        "k4-coarse": (pairwise_corr(4), Rectangle.centered(2.569, 6), 5e-4,
                      studentized_range.cdf(2.569 * np.sqrt(2), 4, np.inf)),
        "staged-5d": (joint_covariance(walk), Rectangle.below(0.0, 6), 5e-5,
                      math.comb(12, 6) / 4**6),
    }


@pytest.mark.parametrize(
    "case", ["k4-fine", "k4-full-set", "orthant", "k4-coarse", "staged-5d"])
def test_error_estimate_is_honest(case, monkeypatch):
    corr, rect, accuracy, truth = _honesty_cases()[case]
    evaluated = []
    evaluate = mvn._evaluate

    def counting(steps, rank, x):
        evaluated.append(x.shape[1])
        return evaluate(steps, rank, x)

    monkeypatch.setattr(mvn, "_evaluate", counting)
    misses, worst = 0, 0.0
    for seed in range(100):
        evaluated.clear()
        res = mvn_rect(0.0, corr, rect, accuracy=accuracy, seed=seed)
        gap = abs(res.value - truth)
        misses += gap > res.err_est
        worst = max(worst, gap)
        # each round doubles the lattice and evaluates only its new points,
        # so 12 shifts x 64 x 2^r points in all
        growth = res.n_points // (12 * 64)
        assert res.n_points == 12 * 64 * growth and growth & (growth - 1) == 0
        assert sum(evaluated) == res.n_points
    assert misses <= 10
    assert worst <= 2 * accuracy


def test_max_points_stops_before_a_further_round(monkeypatch):
    rounds = []
    round_sums = mvn._round_sums

    def recording(steps, rank, gen, start, stop, *rest):
        rounds.append((start, stop))
        return round_sums(steps, rank, gen, start, stop, *rest)

    monkeypatch.setattr(mvn, "_round_sums", recording)
    corr = pairwise_corr(4)
    # 12 x 4,096 evaluations reach the budget of 40,000 in the seventh round
    with pytest.raises(AccuracyError, match="after 49152 points"):
        mvn_rect(0.0, corr, Rectangle.centered(2.0, 6), accuracy=1e-9, seed=0,
                 max_points=40_000)
    assert rounds == [(0, 64), (64, 128), (128, 256), (256, 512), (512, 1024),
                      (1024, 2048), (2048, 4096)]


@settings(max_examples=60, deadline=None)
@given(m=st.integers(0, 12), dim=st.integers(1, mvn._LATTICE_Z.size))
def test_radical_inverse_points_are_the_embedded_lattices(m, dim):
    z = mvn._lattice_generators(dim)
    n = 1 << m
    k = np.arange(n, dtype=np.uint64)
    lattice = (np.multiply.outer(z, k) % np.uint64(n)) / n
    first = mvn._lattice_points(z, 0, n)
    # the first 2^m points are the lattice {k z / 2^m}, in another order
    assert sorted(map(tuple, first.T)) == sorted(map(tuple, lattice.T))
    # and the round from 2^m to 2^(m+1) adds exactly its odd multiples
    odd = (np.multiply.outer(z, 2 * k + 1) % np.uint64(2 * n)) / (2 * n)
    added = mvn._lattice_points(z, n, 2 * n)
    assert sorted(map(tuple, added.T)) == sorted(map(tuple, odd.T))


@pytest.mark.parametrize("n_arms", [mvn._LATTICE_Z.size + 2, mvn._LATTICE_Z.size + 3])
def test_both_sides_of_the_lattice_length(n_arms):
    # the full set of K arms integrates in K - 2 dimensions: the last
    # dimension the generating vector covers, then the first Kronecker one
    dim = n_arms - 2
    gen = mvn._lattice_generators(dim)
    assert gen.dtype.kind == ("u" if dim <= mvn._LATTICE_Z.size else "f")
    corr = pairwise_corr(n_arms)
    res = mvn_rect(0.0, corr, Rectangle.centered(3.0, corr.shape[0]), accuracy=1e-4, seed=1)
    truth = studentized_range.cdf(3.0 * np.sqrt(2), n_arms, np.inf)
    assert abs(res.value - truth) <= 2 * res.err_est


def _equicorrelated(dim, rho=0.5):
    return np.full((dim, dim), rho) + (1.0 - rho) * np.eye(dim)


def _cold(call, *args, **kwargs):
    # a call that finds neither kept points nor a kept pivot plan
    mvn._point_set.cache_clear()
    mvn._kept_plan.cache_clear()
    return call(*args, **kwargs)


def test_results_do_not_depend_on_call_history():
    # (corr, rect, accuracy, seed); the kernel keeps the shifts and points of
    # its last (seed, dimension) key and the pivot plan of its last matrix,
    # so a warm call must give the bits of a cold one, also for a key
    # evicted and drawn again
    orthant = np.array([[1.0, 0.3, -0.2], [0.3, 1.0, 0.4], [-0.2, 0.4, 1.0]])
    cases = [
        # integrates in two dimensions; 1e-7 runs past the kept points
        (orthant, Rectangle.below(0.0, 3), 1e-7, 0),
        # rank 2: Gauss-Legendre, between lattice calls
        (pairwise_corr(3), Rectangle.centered(2.2, 3), 1e-5, 7),
        (pairwise_corr(4), Rectangle.centered(2.569, 6), 1e-5, 0),
        # the key of the case before, another integrand
        (pairwise_corr(4), Rectangle.below(2.3, 6), 1e-5, 0),
        (pairwise_corr(5), Rectangle.centered(2.7, 10), 1e-5, 0),
        (_equicorrelated(7), Rectangle.below(2.0, 7), 1e-5, 3),
        # seven dimensions: Kronecker directions
        (_equicorrelated(8), Rectangle.centered(2.6, 8), 1e-4, 3),
    ]
    cold = [_cold(mvn_rect, 0.0, corr, rect, accuracy=accuracy, seed=seed)
            for corr, rect, accuracy, seed in cases]
    assert cold[0].n_points > 12 * mvn._KEPT_POINTS
    order = np.random.default_rng(5).permutation(np.repeat(np.arange(len(cases)), 3))
    for i in order:
        corr, rect, accuracy, seed = cases[i]
        assert mvn_rect(0.0, corr, rect, accuracy=accuracy, seed=seed) == cold[i]


def test_threads_sharing_the_kept_points_get_cold_results():
    # more threads than keys kept, each cycling through more keys than kept,
    # with frequent switches: an eviction or a chunk raced by another thread
    # would raise or change a result
    cases = [(pairwise_corr(n_arms), Rectangle.centered(2.4, n_arms * (n_arms - 1) // 2),
              seed) for n_arms in (3, 4, 5) for seed in (0, 1)]
    cold = [_cold(mvn_rect, 0.0, corr, rect, accuracy=1e-4, seed=seed)
            for corr, rect, seed in cases]
    failures = []

    keys = [(seed, dim) for seed in range(3) for dim in (1, 2)]
    shifts = {key: np.random.default_rng(key[0]).random((12, key[1])) for key in keys}

    def work(offset):
        try:
            for step in range(3 * len(cases)):
                i = (offset + step) % len(cases)
                corr, rect, seed = cases[i]
                if mvn_rect(0.0, corr, rect, accuracy=1e-4, seed=seed) != cold[i]:
                    failures.append(i)
                # and the lookups alone, many at a time, to meet an eviction
                for j in range(200):
                    key = keys[(offset + j) % len(keys)]
                    if not np.array_equal(mvn._point_set(*key).shifts, shifts[key]):
                        failures.append(key)
        except Exception as err:  # reported below, not lost with the thread
            failures.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert mvn._point_set.cache_info().currsize <= 1
    assert mvn._kept_plan.cache_info().currsize <= 1


def test_kept_points_stay_under_their_bound():
    mvn._point_set.cache_clear()
    dim = 6
    for seed in range(3):
        res = mvn_rect(0.0, _equicorrelated(dim + 1), Rectangle.below(2.0, dim + 1),
                       accuracy=1e-5, seed=seed)
        assert res.n_points > 12 * mvn._KEPT_POINTS
    assert mvn._point_set.cache_info().currsize == 1
    points = mvn._point_set(2, dim)
    kept = sum(array.nbytes for array in (points.shifts, *points.chunks.values()))
    # at most 12 x 4,097 x dim doubles, 2.4 MB at six dimensions
    assert mvn._KEPT_POINTS == 4096
    assert kept <= 12 * 4097 * dim * 8 < 2.4e6


def _reference_boxes():
    """(name, corr, half-widths per call): seeded subsets of 2..m comparisons
    at K = 3, 4 and 5, with equal and unequal sigma^2 / n, and a staged
    matrix with its own half-width per look, swept in c."""
    rng = np.random.default_rng(24)
    sweep = [0.0, 8.0, 1.3, 2.2, 0.0, 2.9, 3.6, 8.0, 0.4]
    configs = [TrialConfig.single_stage(3, 1.0, 50),
               TrialConfig.single_stage(3, (1.0, 1.7, 0.8), (40, 60, 50)),
               TrialConfig.single_stage(4, 1.0, 40),
               TrialConfig.single_stage(4, (1.2, 0.6, 2.0, 1.0), (50, 30, 70, 40)),
               TrialConfig.single_stage(5, 1.0, 60),
               TrialConfig.single_stage(5, (1.0, 2.0, 0.5, 1.3, 0.9), (30, 60, 50, 45, 70))]
    for config in configs:
        m = config.n_comparisons
        for size in range(2, m + 1):
            members = rng.choice(np.arange(1, m + 1), size, replace=False)
            yield (f"K{config.n_arms}-{sorted(members.tolist())}", correlation(config, members),
                   [np.full(size, c) for c in sweep])
    staged = TrialConfig.single_stage(3, (1.0, 1.7, 0.8), (40, 60, 50)).with_stage_n(
        ((40, 60, 50), (80, 120, 100)))
    yield ("staged", joint_covariance(staged),
           [np.repeat([first, c], 3) for first in (2.6, np.inf) for c in sweep])


def test_a_kept_pivot_plan_gives_the_bits_of_a_fresh_factorization(monkeypatch):
    # every call runs warm, after the calls before it on the same matrix,
    # and again cold; c = 0 ties every pick, so a plan kept from another c
    # is refused there and the matrix is factored again
    reused = []
    limits = mvn._PivotPlan.limits

    def counting(plan, lo, hi):
        found = limits(plan, lo, hi)
        reused.append(found is not None)
        return found

    monkeypatch.setattr(mvn._PivotPlan, "limits", counting)
    warm, cases = [], []
    mvn._kept_plan.cache_clear()
    for name, corr, widths in _reference_boxes():
        accuracy = 1e-4 if np.linalg.matrix_rank(corr) <= 3 else 1e-3
        for upper in widths:
            rect = Rectangle(-upper, upper)
            warm.append(mvn_rect(0.0, corr, rect, accuracy=accuracy, seed=5))
            cases.append((name, upper, corr, rect, accuracy))
    assert any(reused) and not all(reused)
    for res, (name, upper, corr, rect, accuracy) in zip(warm, cases):
        cold = _cold(mvn_rect, 0.0, corr, rect, accuracy=accuracy, seed=5)
        assert (res.value, res.err_est, res.n_points) == (
            cold.value, cold.err_est, cold.n_points), (name, upper)


def _count_factorizations(monkeypatch):
    factored, calls = [], []
    factor, rect = mvn._ordered_cholesky, mvn.mvn_rect
    monkeypatch.setattr(mvn, "_ordered_cholesky",
                        lambda *args: factored.append(1) or factor(*args))
    monkeypatch.setattr(mvn, "mvn_rect", lambda *args, **kw: calls.append(1) or rect(*args, **kw))
    mvn._kept_plan.cache_clear()
    return factored, calls


@pytest.mark.parametrize("config", [TrialConfig.single_stage(3, 1.0, 50),
                                    TrialConfig.single_stage(3, (1.0, 1.7, 0.8), (40, 60, 50))],
                         ids=["equal", "unequal"])
def test_a_two_sided_solve_factors_its_matrix_at_most_twice(config, monkeypatch):
    factored, calls = _count_factorizations(monkeypatch)
    equicoord_quantile(correlation(config, [1, 2, 3]), 0.95, seed=1)
    # rank 2: one factorization, on the box of c = 1, and no kernel call
    assert calls == [] and len(factored) == 1


@pytest.mark.parametrize("sigma2, n", [(1.0, 50), ((1.0, 1.7, 0.8), (40, 60, 50))],
                         ids=["equal", "unequal"])
def test_a_rank2_one_sided_solve_factors_its_matrix_at_most_twice(sigma2, n, monkeypatch):
    # a one-sided box keeps no pivot plan, but the scaled partition needs
    # only the factorization at c = 1, for the quantile and for a boundary
    config = TrialConfig.single_stage(3, sigma2, n, sided="one-sided")
    factored, calls = _count_factorizations(monkeypatch)
    equicoord_quantile(correlation(config, [1, 2, 3]), 0.95, seed=1, tail="upper")
    assert calls == [] and len(factored) <= 2
    factored.clear()
    schedule = SpendingSchedule((1.0,), (0.05,))
    gs_boundaries(config, schedule, seed=1).value({1, 2, 3})
    assert calls == [] and len(factored) <= 2


def _rank2_max_boxes():
    """(name, corr, central) of every K=3 subset of rank 2: equal and
    unequal variances, two- and one-sided."""
    for sigma2, n in ((1.0, 50), ((1.0, 1.7, 0.8), (40, 60, 50))):
        for sided in ("two-sided", "one-sided"):
            config = TrialConfig.single_stage(3, sigma2, n, sided=sided)
            m = config.n_comparisons
            for size in range(2, m + 1):
                for members in itertools.combinations(range(1, m + 1), size):
                    corr = correlation(config, members)
                    # both directions of one pair alone have rank 1
                    if np.linalg.matrix_rank(corr.matrix) == 2:
                        yield f"{sigma2}-{sided}-{members}", corr, config.central


def test_scaled_partition_matches_the_kernel_and_its_slope():
    cs = np.linspace(0.1, 6.0, 60)
    h = 1e-5
    names = []
    for name, corr, central in _rank2_max_boxes():
        gauss = mvn._max_partition(corr, central, cs[0], cs[-1])
        value, slope, err = gauss(cs)
        direct = [mvn_rect(0.0, corr, mvn._max_rect(c, corr.dim, central)).value for c in cs]
        assert np.abs(value - direct).max() <= 1e-14, name
        assert err.max() <= 1e-14, name
        # the exact slope against a central difference, inside the range
        up, down = gauss(cs[1:-1] + h)[0], gauss(cs[1:-1] - h)[0]
        assert np.abs(slope[1:-1] - (up - down) / (2.0 * h)).max() <= 1e-8, name
        names.append(name)
    assert len(names) == 2 * (4 + 54)


@pytest.mark.parametrize("tail", ["central", "upper"])
def test_rank2_quantile_is_the_studentized_range(tail):
    # one-sided, the full set holds both directions of every pair: max |Z|
    config = TrialConfig.single_stage(3, 1.0, 30, sided="two-sided" if tail == "central"
                                      else "one-sided")
    corr = correlation(config, range(1, config.n_comparisons + 1))
    exact = studentized_range.ppf(0.95, 3, np.inf) / np.sqrt(2.0)
    assert abs(equicoord_quantile(corr, 0.95, tail=tail) - exact) <= 1e-12


def test_rank2_root_falls_back_to_illinois_on_a_bad_slope(monkeypatch):
    xtols = []
    illinois, scaled = mvn._illinois, mvn._ScaledRank2.__call__

    def recording(f, a, fa, b, fb, xtol):
        xtols.append(xtol)
        return illinois(f, a, fa, b, fb, xtol)

    def downhill(gauss, c):
        value, slope, err = scaled(gauss, c)
        return value, -slope, err

    monkeypatch.setattr(mvn, "_illinois", recording)
    monkeypatch.setattr(mvn._ScaledRank2, "__call__", downhill)
    tol = 1e-4
    root = equicoord_quantile(pairwise_corr(3), 0.95, tol=tol)
    assert xtols == [tol]
    assert abs(root - studentized_range.ppf(0.95, 3, np.inf) / np.sqrt(2.0)) <= tol
