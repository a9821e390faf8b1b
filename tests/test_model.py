import dataclasses
import itertools
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pairwise_closure.closure import critical_values
from pairwise_closure.model import (
    ONE_SIDED,
    TWO_SIDED,
    ComparisonStats,
    CorrelationModel,
    MeanConfig,
    TrialConfig,
    _arm_means,
    _pair_arms,
    _whole,
    all_pairs,
    correlation,
    index_to_pair,
    n_comparisons,
    pair_to_index,
    standardized_means,
    z_statistics,
)
from pairwise_closure.power import disjunctive_power


def lexicographic_pairs(n_arms):
    # Independent enumeration oracle: pairs (i, j), i < j, in lexicographic order.
    return [(i, j) for i in range(1, n_arms + 1) for j in range(i + 1, n_arms + 1)]


def test_two_sided_index_enumeration_k4():
    expected = {(1, 2): 1, (1, 3): 2, (1, 4): 3, (2, 3): 4, (2, 4): 5, (3, 4): 6}
    for (i, j), k in expected.items():
        assert pair_to_index(i, j, 4).k == k
        p = index_to_pair(k, 4)
        assert (p.i, p.j) == (i, j)


def test_two_sided_index_k5_example():
    assert pair_to_index(2, 4, 5).k == 6


def test_index_matches_enumeration_oracle():
    for n_arms in range(2, 9):
        oracle = lexicographic_pairs(n_arms)
        assert n_comparisons(n_arms) == len(oracle)
        for k, (i, j) in enumerate(oracle, start=1):
            assert pair_to_index(i, j, n_arms).k == k


@given(st.integers(min_value=2, max_value=8), st.data())
@settings(max_examples=200)
def test_index_round_trip(n_arms, data):
    sided = data.draw(st.sampled_from([TWO_SIDED, ONE_SIDED]))
    k = data.draw(st.integers(min_value=1, max_value=n_comparisons(n_arms, sided)))
    p = index_to_pair(k, n_arms, sided)
    assert pair_to_index(p.i, p.j, n_arms, sided).k == k
    assert 1 <= p.i <= n_arms and 1 <= p.j <= n_arms and p.i != p.j
    if sided == TWO_SIDED:
        assert p.i < p.j


def test_one_sided_reverse_offset():
    m2 = n_comparisons(4)
    for i, j in lexicographic_pairs(4):
        fwd = pair_to_index(i, j, 4, ONE_SIDED).k
        rev = pair_to_index(j, i, 4, ONE_SIDED).k
        assert fwd == pair_to_index(i, j, 4).k
        assert rev == fwd + m2


def test_index_validation_errors():
    with pytest.raises(ValueError):
        pair_to_index(2, 2, 4)
    with pytest.raises(ValueError):
        pair_to_index(3, 2, 4)  # two-sided wants i < j
    with pytest.raises(ValueError):
        pair_to_index(1, 5, 4)
    with pytest.raises(ValueError):
        index_to_pair(7, 4)
    with pytest.raises(ValueError):
        index_to_pair(0, 4)


def test_config_validation():
    with pytest.raises(ValueError, match="need at least two arms"):
        TrialConfig.single_stage(1, 1.0, 10)
    with pytest.raises(ValueError, match="arm variances must be positive"):
        TrialConfig.single_stage(3, (1.0, 0.0, 1.0), 10)
    with pytest.raises(ValueError, match="strictly increasing"):
        TrialConfig(2, (1.0, 1.0), ((10, 10), (10, 10)))
    with pytest.raises(ValueError, match="constant across stages"):
        # allocation drifts between stages
        TrialConfig(2, (1.0, 1.0), ((10, 10), (30, 20)))
    with pytest.raises(ValueError, match="constant across stages"):
        # first-arm fractions 0.49999975 and 0.49999963: close, but not equal
        TrialConfig(2, (1.0, 1.0), ((1000000, 1000001), (2000000, 2000003)))
    with pytest.raises(ValueError, match="sided must be"):
        TrialConfig.single_stage(2, 1.0, 10, sided="both")


def test_arm_counts_and_sample_sizes_must_be_whole_numbers():
    for build in (
        lambda: TrialConfig.single_stage(3, 1.0, 100.7),
        lambda: TrialConfig.single_stage(3, 1.0, (100, 100.5, 100)),
        lambda: TrialConfig.single_stage(2.9, 1.0, 100),
        lambda: TrialConfig(2, (1.0, 1.0), ((10, 10), (20.5, 20))),
        lambda: TrialConfig(2.5, (1.0, 1.0), ((10, 10),)),
        lambda: TrialConfig.single_stage(3, 1.0, np.inf),
    ):
        with pytest.raises(ValueError, match="whole number"):
            build()
    # whole floats and numpy integers are accepted as before
    expect = TrialConfig.single_stage(3, 1.0, 100)
    assert TrialConfig.single_stage(3.0, 1.0, 100.0) == expect
    assert TrialConfig.single_stage(np.int64(3), 1.0, np.int64(100)) == expect
    assert TrialConfig.from_dict(dict(expect.to_dict(), n_arms=3.0)) == expect


@pytest.mark.parametrize("value", ["20", b"20", True, False, np.bool_(True), None, [20],
                                   10**400],
                         ids=["str", "bytes", "true", "false", "numpy-bool", "none", "list",
                              "huge-int"])
def test_whole_numbers_are_not_strings_or_booleans(value):
    with pytest.raises(ValueError, match="must be a whole number, got "):
        _whole(value, "replicates")


def test_single_stage_names_a_null_field():
    with pytest.raises(ValueError, match="^sigma2 must be a real number, got None$"):
        TrialConfig.single_stage(3, None, 100)
    with pytest.raises(ValueError,
                       match="^a per-arm sample size must be a whole number, got None$"):
        TrialConfig.single_stage(3, 1.0, None)
    # numbers and numpy scalars still broadcast; sequences give one entry per arm
    assert TrialConfig.single_stage(3, np.float64(1.0), np.int64(100)) == \
        TrialConfig.single_stage(3, (1.0,) * 3, [100] * 3)
    assert TrialConfig.single_stage(2, np.array([1.0, 2.0]), range(10, 12)).stage_n == \
        ((10, 11),)


def test_arm_counts_and_sample_sizes_are_not_strings():
    with pytest.raises(ValueError, match="n_arms must be a whole number, got '3'"):
        TrialConfig.single_stage("3", 1.0, "100")
    with pytest.raises(ValueError, match="sample size must be a whole number, got '100'"):
        TrialConfig.single_stage(3, 1.0, "100")
    with pytest.raises(ValueError, match="whole number, got True"):
        TrialConfig(2, (1.0, 1.0), ((10, True),))
    assert _whole(2000.0, "replicates") == 2000
    assert _whole(np.int64(20), "replicates") == 20


NOT_REAL = ["1.0", b"1.0", True, np.bool_(False), 10**400]
NOT_REAL_IDS = ["str", "bytes", "bool", "numpy-bool", "huge-int"]


@pytest.mark.parametrize("value", NOT_REAL, ids=NOT_REAL_IDS)
def test_variances_are_not_strings_or_booleans(value):
    with pytest.raises(ValueError, match="sigma2 must be a real number, got "):
        TrialConfig.single_stage(3, value, 100)
    with pytest.raises(ValueError, match="sigma2 must be a real number, got "):
        TrialConfig(2, (1.0, value), ((10, 10),))


@pytest.mark.parametrize("value", NOT_REAL + [None, [0.0]],
                         ids=NOT_REAL_IDS + ["none", "list"])
def test_arm_means_are_not_strings_or_booleans(value):
    config = TrialConfig.single_stage(3, 1.0, 100)
    for check in (
        lambda: MeanConfig((0.5, value, 0.0)),
        lambda: _arm_means([0.5, value, 0.0], 3),
        lambda: z_statistics(config, (value, 0.3, 0.0)),
    ):
        with pytest.raises(ValueError, match="an arm mean must be a real number, got "):
            check()
    # numbers of any numeric type still pass
    assert _arm_means([np.int64(2), 0.5, np.float32(0.25)], 3).tolist() == [2.0, 0.5, 0.25]


def test_with_stage_n_takes_the_allocation_of_its_first_row():
    resized = TrialConfig.single_stage(3, 1.0, 100).with_stage_n(((50, 100, 150),))
    assert resized == TrialConfig.single_stage(3, 1.0, (50, 100, 150))
    assert resized.alloc == (50 / 300, 100 / 300, 150 / 300)
    staged = resized.with_stage_n(((10, 20, 30), (20, 40, 60)))
    assert staged.alloc == resized.alloc


@given(st.integers(min_value=2, max_value=5), st.data())
@settings(max_examples=60, deadline=None)
def test_every_way_to_state_a_design_builds_the_same_config(n_arms, data):
    row = tuple(data.draw(st.lists(st.integers(1, 500), min_size=n_arms, max_size=n_arms)))
    sigma2 = tuple(data.draw(st.lists(st.floats(0.5, 2.0), min_size=n_arms,
                                      max_size=n_arms)))
    sided = data.draw(st.sampled_from([TWO_SIDED, ONE_SIDED]))
    for stage_n in ((row,), (row, tuple(2 * n for n in row))):
        direct = TrialConfig(n_arms, sigma2, stage_n, sided=sided)
        table = critical_values(direct, 0.05)
        ways = [
            TrialConfig.single_stage(n_arms, sigma2, row, sided=sided).with_stage_n(stage_n),
            TrialConfig.single_stage(n_arms, sigma2, 7, sided=sided).with_stage_n(stage_n),
            TrialConfig.from_dict(direct.to_dict()),
            TrialConfig.from_dict(dict(direct.to_dict(), alloc=[0.5] * n_arms)),
        ]
        if len(stage_n) == 1:
            ways.append(TrialConfig.single_stage(n_arms, sigma2, row, sided=sided))
        for way in ways:
            assert way == direct and hash(way) == hash(direct)
            assert way.alloc == tuple(n / sum(row) for n in row)
            # the one check a table runs before it serves another config
            assert table._serving(way) is table


@given(st.integers(min_value=2, max_value=5), st.data())
@settings(max_examples=100, deadline=None)
def test_later_rows_keep_the_first_rows_allocation_exactly(n_arms, data):
    row = data.draw(st.lists(st.integers(1, 10**6), min_size=n_arms, max_size=n_arms))
    c = data.draw(st.integers(min_value=2, max_value=10**6))
    later = [c * n for n in row]
    config = TrialConfig(n_arms, (1.0,) * n_arms, (row, later))
    assert config.alloc == TrialConfig.single_stage(n_arms, 1.0, row).alloc
    # one unit moved between two arms, in a row that still strictly increases
    i, j = data.draw(st.permutations(range(n_arms)))[:2]
    later[i] += 1
    later[j] -= 1
    assume(later[j] > row[j])
    with pytest.raises(ValueError, match="constant across stages"):
        TrialConfig(n_arms, (1.0,) * n_arms, (row, later))


def test_a_table_serves_every_statement_of_its_design():
    assert [f.name for f in dataclasses.fields(TrialConfig)] == [
        "n_arms", "sigma2", "stage_n", "sided"]
    direct = TrialConfig(3, (1.0, 1.0, 1.0), ((10, 10, 20),))
    table = critical_values(direct, 0.05, seed=1, accuracy=1e-3)
    mu = (0.9, 0.0, 0.45)
    expect = disjunctive_power(direct, mu, seed=1, accuracy=1e-3, table=table)
    for other in (TrialConfig.single_stage(3, 1.0, (10, 10, 20)),
                  TrialConfig.single_stage(3, 1.0, 5).with_stage_n(((10, 10, 20),))):
        assert disjunctive_power(other, mu, seed=1, accuracy=1e-3, table=table) == expect
    # the old positional form, with fractions before the sizes, is an arity error
    with pytest.raises(TypeError):
        TrialConfig(3, (1.0, 1.0, 1.0), (0.25, 0.25, 0.5), ((10, 10, 20),))


def test_zero_sample_sizes_are_a_validation_error():
    with pytest.raises(ValueError, match="per-arm sample sizes must be positive"):
        TrialConfig.single_stage(2, 1.0, 0)
    with pytest.raises(ValueError, match="per-arm sample sizes must be positive"):
        TrialConfig.single_stage(2, 1.0, (5, -5))
    with pytest.raises(ValueError, match="at least one analysis stage"):
        TrialConfig.single_stage(2, 1.0, 10).with_stage_n(())


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.1, np.nan])
def test_every_layer_shares_the_alpha_check(alpha):
    from pairwise_closure import closure, combination, power, sequential, simulate

    cfg = TrialConfig.single_stage(3, 1.0, 20)
    staged = cfg.with_stage_n(((10,) * 3, (20,) * 3))
    z = np.zeros((1, 2, 3))
    checks = [
        lambda: closure.critical_values(cfg, alpha),
        lambda: closure.unadjusted_test([1.0], alpha),
        lambda: combination.flexible_closed_test(
            sequential.StageData(staged, z[0], z[0]), alpha=alpha),
        lambda: combination.batch_flexible_test(z, staged, alpha=alpha),
        lambda: simulate.SimScenario(cfg, (0.0,) * 3, ("dunnett",), alpha=alpha),
        lambda: sequential.SpendingSchedule.obrien_fleming(alpha, (0.5, 1.0)),
        lambda: power.sample_size(cfg, power.lfc(3, 0.5), alpha=alpha),
    ]
    for check in checks:
        with pytest.raises(ValueError, match="^alpha must lie strictly between 0 and 1$"):
            check()


def test_config_round_trip_json():
    config = TrialConfig(3, (1.0, 2.0, 0.5), ((10, 20, 10), (20, 40, 20)))
    again = TrialConfig.from_json(config.to_json())
    assert again == config
    assert again.info_fractions() == pytest.approx([0.5, 1.0])


def test_z_statistics_two_arm():
    config = TrialConfig.single_stage(2, 1.0, 50)
    stats = z_statistics(config, [0.3, 0.1])
    assert len(stats) == 1
    s = stats[0]
    assert isinstance(s, ComparisonStats)
    assert s.theta_hat == pytest.approx(0.2)
    assert s.sigma_p == pytest.approx(np.sqrt(2 / 50))
    assert s.z == pytest.approx(0.2 / np.sqrt(2 / 50))
    # spelled-out magnitude: 0.2 / 0.2 = 1 exactly
    assert s.z == pytest.approx(1.0)


def test_z_statistics_unequal_variances():
    config = TrialConfig.single_stage(3, (1.0, 4.0, 1.0), (10, 40, 10))
    stats = z_statistics(config, [1.0, 0.0, 0.0])
    sp12 = np.sqrt(1 / 10 + 4 / 40)
    assert stats[0].z == pytest.approx(1.0 / sp12)
    assert stats[2].theta_hat == pytest.approx(0.0)


def test_z_statistics_one_sided_antisymmetry():
    config = TrialConfig.single_stage(3, 1.0, 25, sided=ONE_SIDED)
    stats = z_statistics(config, [0.5, -0.2, 0.1])
    m2 = 3
    for k in range(1, m2 + 1):
        assert stats[k - 1].z == pytest.approx(-stats[k + m2 - 1].z)


def test_z_statistics_rejects_bad_input():
    config = TrialConfig.single_stage(2, 1.0, 50)
    with pytest.raises(ValueError):
        z_statistics(config, [0.1, 0.2, 0.3])
    with pytest.raises(ValueError):
        z_statistics(config, [np.nan, 0.0])
    with pytest.raises(ValueError):
        z_statistics(config, [0.1, 0.2], stage=2)
    for stage in (True, 1.5, "1", None):
        with pytest.raises(ValueError, match="stage must be a whole number"):
            z_statistics(config, [0.1, 0.2], stage=stage)
        with pytest.raises(ValueError, match="stage must be a whole number"):
            config.arm_variances(stage)
    # a whole float reads as its int
    staged = TrialConfig(2, (1.0, 1.0), ((50, 50), (100, 100)))
    assert z_statistics(staged, [0.1, 0.2], stage=2.0) == z_statistics(staged, [0.1, 0.2], stage=2)
    assert z_statistics(staged, [0.1, 0.2], stage=2.0)[0].stage == 2
    assert staged.arm_variances(2.0).tobytes() == staged.arm_variances(2).tobytes()


def test_correlation_equal_allocation_signs():
    config = TrialConfig.single_stage(3, 1.0, 30)
    # shared arm on the same side
    assert correlation(config, [1, 2]).matrix[0, 1] == pytest.approx(0.5)
    # shared arm on opposite sides: (1,2) vs (2,3)
    assert correlation(config, [1, 3]).matrix[0, 1] == pytest.approx(-0.5)


@pytest.mark.parametrize("subset", [["3", 2], [3, 2.9], [True, 3]],
                         ids=["string", "fraction", "boolean"])
def test_correlation_indices_must_be_whole_numbers(subset):
    config = TrialConfig.single_stage(3, 1.0, 30)
    with pytest.raises(ValueError, match="^a comparison index must be a whole number, got "):
        correlation(config, subset)


def test_correlation_reads_whole_float_and_numpy_indices_as_ints():
    config = TrialConfig.single_stage(3, (1.0, 2.0, 3.0), (10, 20, 30))
    matrix = correlation(config, [3, 2]).matrix
    for subset in ([3.0, 2.0], [np.int64(3), 2]):
        assert correlation(config, subset).matrix.tobytes() == matrix.tobytes()


def test_correlation_disjoint_pairs():
    config = TrialConfig.single_stage(4, 1.0, 30)
    # (1,2) vs (3,4) share no arm
    assert correlation(config, [1, 6]).matrix[0, 1] == pytest.approx(0.0)


def test_correlation_one_sided_reverse_is_minus_one():
    config = TrialConfig.single_stage(3, 1.0, 30, sided=ONE_SIDED)
    m2 = 3
    mat = correlation(config, [1, 1 + m2]).matrix
    assert mat[0, 1] == pytest.approx(-1.0)


def test_correlation_unequal_allocation():
    config = TrialConfig.single_stage(3, (1.0, 2.0, 3.0), (10, 20, 30))
    v = np.array([1.0 / 10, 2.0 / 20, 3.0 / 30])
    sp12 = np.sqrt(v[0] + v[1])
    sp13 = np.sqrt(v[0] + v[2])
    expected = v[0] / (sp12 * sp13)
    assert correlation(config, [1, 2]).matrix[0, 1] == pytest.approx(expected)


def test_correlation_is_symmetric_psd_random_configs():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n_arms = int(rng.integers(2, 7))
        sigma2 = rng.uniform(0.2, 5.0, n_arms)
        n = rng.integers(5, 200, n_arms)
        config = TrialConfig.single_stage(n_arms, tuple(sigma2), tuple(int(x) for x in n))
        m = n_comparisons(n_arms)
        size = int(rng.integers(1, m + 1))
        members = sorted(rng.choice(np.arange(1, m + 1), size=size, replace=False))
        model = correlation(config, members)
        mat = model.matrix
        assert np.allclose(mat, mat.T)
        assert np.linalg.eigvalsh(mat)[0] >= -1e-10
        assert np.all(np.abs(mat) <= 1 + 1e-12)


def test_correlation_relabeling_invariance():
    # permuting arm labels (with their variances and sizes) permutes the
    # correlation entries consistently
    rng = np.random.default_rng(11)
    sigma2 = (1.0, 2.0, 0.5, 3.0)
    n = (10, 20, 15, 25)
    config = TrialConfig.single_stage(4, sigma2, n)
    perm = [3, 1, 4, 2]  # new label of old arm a is perm[a-1]
    config_p = TrialConfig.single_stage(
        4,
        tuple(sigma2[perm.index(a + 1)] for a in range(4)),
        tuple(n[perm.index(a + 1)] for a in range(4)),
    )
    m = n_comparisons(4)
    full = correlation(config, range(1, m + 1)).matrix
    full_p = correlation(config_p, range(1, m + 1)).matrix
    for k1 in range(1, m + 1):
        for k2 in range(1, m + 1):
            p1, p2 = index_to_pair(k1, 4), index_to_pair(k2, 4)
            q1 = sorted((perm[p1.i - 1], perm[p1.j - 1]))
            q2 = sorted((perm[p2.i - 1], perm[p2.j - 1]))
            k1p = pair_to_index(q1[0], q1[1], 4).k
            k2p = pair_to_index(q2[0], q2[1], 4).k
            # relabelled pair may flip orientation, flipping the sign of both
            sign1 = 1 if perm[p1.i - 1] == q1[0] else -1
            sign2 = 1 if perm[p2.i - 1] == q2[0] else -1
            assert full[k1 - 1, k2 - 1] == pytest.approx(
                sign1 * sign2 * full_p[k1p - 1, k2p - 1]
            )


def test_correlation_matches_monte_carlo():
    # 1e5 simulated replicates; entrywise tolerance 3 * (1 - rho^2) / sqrt(n)
    config = TrialConfig.single_stage(4, (1.0, 2.0, 1.5, 0.7), (20, 35, 25, 15))
    m = n_comparisons(4)
    analytic = correlation(config, range(1, m + 1)).matrix
    rng = np.random.default_rng(123)
    n_rep = 100_000
    v = config.arm_variances()
    draws = rng.standard_normal((n_rep, 4)) * np.sqrt(v)
    pairs = all_pairs(4)
    z = np.column_stack(
        [
            (draws[:, p.i - 1] - draws[:, p.j - 1])
            / np.sqrt(v[p.i - 1] + v[p.j - 1])
            for p in pairs
        ]
    )
    empirical = np.corrcoef(z, rowvar=False)
    se = (1 - analytic**2) / np.sqrt(n_rep)
    assert np.all(np.abs(empirical - analytic) <= 3 * se + 1e-12)


def test_standardized_means_shift():
    config = TrialConfig.single_stage(3, 1.0, 50)
    zeta = standardized_means(config, [0.4, 0.0, 0.2])
    sp = np.sqrt(2 / 50)
    assert zeta == pytest.approx([0.4 / sp, 0.2 / sp, -0.2 / sp])


def test_correlation_model_rejects_invalid():
    with pytest.raises(ValueError):
        CorrelationModel(np.array([[1.0, 0.2], [0.3, 1.0]]))
    with pytest.raises(ValueError):
        CorrelationModel(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValueError):
        CorrelationModel(np.array([[2.0, 0.0], [0.0, 2.0]]))


_SQUARE = "correlation matrix must be square"
_SYMMETRIC = "correlation matrix must be symmetric"
_DIAGONAL = "correlation matrix must have unit diagonal"
_RANGE = "correlations must lie in [-1, 1]"
_PSD = "correlation matrix must be positive semidefinite"


@pytest.mark.parametrize("matrix, message", [
    (np.ones((2, 3)), _SQUARE),
    (np.ones(3), _SQUARE),
    ([[1.0, 0.2], [0.3, 1.0]], _SYMMETRIC),
    # np.allclose's relative slack of 1e-5 on top of the absolute 1e-12
    ([[1.0, 0.5], [0.5 + 4e-6, 1.0]], None),
    ([[1.0, 0.5], [0.5 + 6e-6, 1.0]], _SYMMETRIC),
    ([[1.0 + 9e-6, 0.0], [0.0, 1.0]], _RANGE),
    ([[1.0 + 1.1e-5, 0.0], [0.0, 1.0]], _DIAGONAL),
    ([[2.0, 0.0], [0.0, 2.0]], _DIAGONAL),
    ([[1.0, 2.0], [2.0, 1.0]], _RANGE),
    ([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]], _PSD),
    ([[1.0, np.nan], [np.nan, 1.0]], _SYMMETRIC),
    ([[np.nan, 0.0], [0.0, 1.0]], _SYMMETRIC),
    # equal infinities are close, as in np.allclose
    ([[1.0, np.inf], [np.inf, 1.0]], _RANGE),
    ([[1.0, -np.inf], [-np.inf, 1.0]], _RANGE),
    ([[1.0, np.inf], [-np.inf, 1.0]], _SYMMETRIC),
    ([[1.0, np.inf], [0.5, 1.0]], _SYMMETRIC),
    ([[np.inf, 0.0], [0.0, 1.0]], _DIAGONAL),
    ([[1.0, 0.5], [0.5, 1.0]], None),
    ([[1.0]], None),
    (np.zeros((0, 0)), None),
], ids=["non-square", "one-d", "asymmetric", "asymmetric-within-rtol",
        "asymmetric-beyond-rtol", "diagonal-within-rtol", "diagonal-beyond-rtol",
        "diagonal-two", "out-of-range", "not-psd", "nan-off-diagonal", "nan-diagonal",
        "inf", "minus-inf", "opposite-infs", "inf-against-finite", "inf-diagonal",
        "valid", "one-by-one", "empty"])
def test_correlation_model_messages(matrix, message):
    # every check and message of the np.allclose form; inf - inf warns nowhere
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if message is None:
            CorrelationModel(np.asarray(matrix, dtype=float))
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                CorrelationModel(np.asarray(matrix, dtype=float))


def test_stage_increments():
    config = TrialConfig(2, (1.0, 1.0), ((10, 10), (25, 25), (50, 50)))
    inc = config.stage_increments()
    assert inc.tolist() == [[10, 10], [15, 15], [25, 25]]


def _reference_pairs(n_arms, sided):
    pairs = lexicographic_pairs(n_arms)
    return pairs if sided == TWO_SIDED else pairs + [(j, i) for i, j in pairs]


def _reference_correlation(config, members):
    # the pairwise double loop that the incidence-matrix form replaced
    pairs = [_reference_pairs(config.n_arms, config.sided)[k - 1] for k in members]
    v = config.arm_variances(1)
    sp = np.sqrt([v[i - 1] + v[j - 1] for i, j in pairs])
    dim = len(pairs)
    mat = np.eye(dim)
    for a in range(dim):
        for b in range(a + 1, dim):
            (i1, j1), (i2, j2) = pairs[a], pairs[b]
            cov = 0.0
            if i1 == i2:
                cov += v[i1 - 1]
            if j1 == j2:
                cov += v[j1 - 1]
            if i1 == j2:
                cov -= v[i1 - 1]
            if j1 == i2:
                cov -= v[j1 - 1]
            mat[a, b] = mat[b, a] = cov / (sp[a] * sp[b])
    return mat


@pytest.mark.parametrize("sided", [TWO_SIDED, ONE_SIDED])
def test_correlation_is_bit_identical_to_the_pairwise_loop(sided):
    rng = np.random.default_rng(2024)
    for n_arms in range(2, 8):
        for _ in range(20):
            config = TrialConfig.single_stage(
                n_arms,
                tuple(rng.uniform(0.2, 3.0, n_arms)),
                tuple(int(n) for n in rng.integers(5, 200, n_arms)),
                sided=sided,
            )
            m = config.n_comparisons
            shuffled = rng.permutation(np.arange(1, m + 1))[: rng.integers(1, m + 1)]
            for members in (list(range(1, m + 1)), shuffled.tolist()):
                got = correlation(config, members).matrix
                assert got.tobytes() == _reference_correlation(config, members).tobytes()


def test_pair_arms_agree_with_pair_to_index():
    for n_arms in range(2, 9):
        for sided in (TWO_SIDED, ONE_SIDED):
            ii, jj = _pair_arms(n_arms, sided)
            assert len(ii) == len(jj) == n_comparisons(n_arms, sided)
            for k, (i, j) in enumerate(zip(ii.tolist(), jj.tolist()), start=1):
                assert pair_to_index(i + 1, j + 1, n_arms, sided).k == k
            assert not ii.flags.writeable and not jj.flags.writeable


@pytest.mark.parametrize("sided", [TWO_SIDED, ONE_SIDED])
def test_correlation_rejects_indices_outside_the_family(sided):
    config = TrialConfig.single_stage(3, 1.0, 10, sided=sided)
    m = config.n_comparisons
    for bad in (0, m + 1):
        with pytest.raises(ValueError, match="index must lie"):
            correlation(config, [1, bad])
