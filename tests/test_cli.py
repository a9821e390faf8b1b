"""End-to-end checks of the command-line interface."""

import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from pairwise_closure import cli
from pairwise_closure.mvn import NumericsError

K2_CONFIG = '{"config": {"n_arms": 2, "sigma2": 1.0, "n": 50}}'
K3_CONFIG = '{"config": {"n_arms": 3, "sigma2": 1.0, "n": 100}}'


def run_cli(argv, capsys):
    status = cli.main(argv)
    out, err = capsys.readouterr()
    return status, out, err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestCriticalValues:
    def test_univariate_csv(self, capsys):
        status, out, err = run_cli(
            ["critical-values", "--input", K2_CONFIG, "--format", "csv"], capsys
        )
        assert status == 0 and err == ""
        header, rows = parse_csv(out)
        assert header == ["subset", "size", "critical_value"]
        assert rows == [["1", "1", "1.95996"]]
        assert abs(float(rows[0][2]) - 1.959964) < 1e-4

    def test_json_payload(self, capsys):
        status, out, _ = run_cli(
            ["critical-values", "--input", K3_CONFIG, "--seed", "4"], capsys
        )
        assert status == 0
        payload = json.loads(out)
        assert payload["schema_version"] == "1"
        assert payload["command"] == "critical-values"
        assert payload["seed"] == 4
        assert payload["accuracy"] == pytest.approx(1e-5)
        assert "generated_at" in payload
        values = payload["values"]
        # sorted by subset size, singletons first
        assert [v["subset"] for v in values[:3]] == [[1], [2], [3]]
        assert values[-1]["subset"] == [1, 2, 3]
        assert values[-1]["critical_value"] > values[0]["critical_value"]

    def test_deterministic_runs_are_byte_identical(self, capsys):
        argv = ["critical-values", "--input", K2_CONFIG, "--deterministic"]
        first = run_cli(argv, capsys)
        second = run_cli(argv, capsys)
        assert first == second
        assert "generated_at" not in json.loads(first[1])

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "table.json"
        status, out, _ = run_cli(
            ["critical-values", "--input", K2_CONFIG, "--output", str(target)],
            capsys,
        )
        assert status == 0 and out == ""
        assert json.loads(target.read_text())["command"] == "critical-values"

    def test_input_from_file(self, tmp_path, capsys):
        path = tmp_path / "request.json"
        path.write_text(K2_CONFIG)
        status, out, _ = run_cli(
            ["critical-values", "--input", str(path), "--format", "csv"], capsys
        )
        assert status == 0
        assert "1.95996" in out

    # a level or a sidedness is checked once, by the library call that reads it
    @pytest.mark.parametrize("command, request_, message", [
        ("critical-values",
         '{"config": {"n_arms": 2, "sigma2": 1.0, "n": 50}, "alpha": "0.05"}',
         "alpha must lie strictly between 0 and 1"),
        ("critical-values",
         '{"config": {"n_arms": 2, "sigma2": 1.0, "n": 50, "sided": "both"}}',
         "invalid config: sided must be 'two-sided' or 'one-sided', got 'both'"),
        ("critical-values",
         '{"config": {"n_arms": 2, "sigma2": 1.0, "n": 50, "sided": ["x"]}}',
         "invalid config: sided must be 'two-sided' or 'one-sided', got ['x']"),
        ("design", '{"n_arms": 2, "sigma2": 1.0, "delta": 0.5, "sided": "both"}',
         "sided must be 'two-sided' or 'one-sided', got 'both'"),
        ("design", '{"n_arms": 2, "sigma2": 1.0, "delta": 0.5, "sided": ["x"]}',
         "sided must be 'two-sided' or 'one-sided', got ['x']"),
        ("critical-values", '{"config": {"n_arms": 3, "sigma2": null, "n": 100}}',
         "invalid config: sigma2 must be a real number, got None"),
        ("critical-values", '{"config": {"n_arms": 3, "sigma2": 1.0, "n": null}}',
         "invalid config: a per-arm sample size must be a whole number, got None"),
    ] + [
        (command, json.dumps({
            "config": {"n_arms": 2, "sigma2": 1.0, "stage_n": [[40, 40], [80, 80]]},
            "spending": {"type": "obrien-fleming"}, "alpha": 1.5,
            "cum_means": [[0.1, 0.0], [0.2, 0.0]], "means": [0.0, 0.0],
            "procedures": ["gs"], "replicates": 10,
        }), "invalid spending schedule: alpha must lie strictly between 0 and 1")
        for command in ("analyze", "gs-boundaries", "simulate")
    ], ids=["string-alpha", "config-sided", "config-sided-list", "design-sided",
            "design-sided-list", "config-null-sigma2", "config-null-n",
            "analyze-spending-alpha", "gs-boundaries-spending-alpha",
            "simulate-spending-alpha"])
    def test_non_numeric_alpha(self, capsys, command, request_, message):
        status, out, err = run_cli([command, "--input", request_], capsys)
        assert status == 2 and out == ""
        error = json.loads(err)["error"]
        assert error == {"type": "validation", "message": message}


class TestAnalyze:
    def test_zero_means_reject_nothing(self, capsys):
        request = json.loads(K3_CONFIG)
        request["means"] = [0.0, 0.0, 0.0]
        status, out, _ = run_cli(["analyze", "--input", json.dumps(request)], capsys)
        assert status == 0
        payload = json.loads(out)
        assert payload["any_rejected"] is False
        assert payload["rejected"] == []
        assert all(not c["rejected"] for c in payload["comparisons"])

    def test_clear_separation_rejects(self, capsys):
        request = json.loads(K3_CONFIG)
        request["means"] = [2.0, 0.0, 0.0]
        status, out, _ = run_cli(["analyze", "--input", json.dumps(request)], capsys)
        assert status == 0
        payload = json.loads(out)
        # arms 1-2 and 1-3 differ by 14 standard errors; 2-3 by none
        assert payload["rejected"] == [1, 2]

    def test_staged_analysis(self, capsys):
        request = {
            "config": {
                "n_arms": 2,
                "sigma2": 1.0,
                "stage_n": [[40, 40], [80, 80]],
            },
            "spending": {"type": "obrien-fleming"},
            "cum_means": [[1.0, 0.0], [1.0, 0.0]],
        }
        status, out, _ = run_cli(
            ["analyze", "--input", json.dumps(request), "--format", "csv"], capsys
        )
        assert status == 0
        header, rows = parse_csv(out)
        assert header[-1] == "stopped_stage"
        # z exceeds 2.77 at the first look already
        assert rows[0][4] == "True" and rows[0][5] == "1"

    @pytest.mark.parametrize("means", [["2.1", 0.3, 0.0], [2.1, 0.3, True]],
                             ids=["string", "boolean"])
    def test_means_that_are_not_numbers_exit_2(self, capsys, means):
        request = dict(json.loads(K3_CONFIG), means=means)
        status, out, err = run_cli(["analyze", "--input", json.dumps(request)], capsys)
        assert status == 2 and out == ""
        assert "an arm mean must be a real number" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("cum_means", [
        [["0.5", 0.0, 0.1], [0.45, 0.02, 0.1]],
        [[0.5, True, 0.1], [0.45, 0.02, 0.1]],
        [["0.5", True, 0.1], [0.45, 0.02, 0.1]],
    ], ids=["string", "boolean", "both"])
    def test_staged_means_that_are_not_numbers_exit_2(self, capsys, cum_means):
        request = {
            "config": {"n_arms": 3, "sigma2": 1.0,
                       "stage_n": [[50, 50, 50], [100, 100, 100]]},
            "spending": {"type": "obrien-fleming"},
            "cum_means": cum_means,
        }
        status, out, err = run_cli(["analyze", "--input", json.dumps(request)], capsys)
        assert status == 2 and out == ""
        assert "a cumulative mean must be a real number" in (
            json.loads(err)["error"]["message"])

    def test_missing_means(self, capsys):
        status, _, err = run_cli(["analyze", "--input", K3_CONFIG], capsys)
        assert status == 2
        assert "means" in json.loads(err)["error"]["message"]

    def test_fails_fast_beyond_eight_arms(self, capsys):
        request = json.dumps({
            "config": {"n_arms": 9, "sigma2": 1.0, "n": 50},
            "means": [0.0] * 8 + [0.5],
        })
        status, out, err = run_cli(["analyze", "--input", request], capsys)
        assert status == 2 and out == ""
        assert "9 arms" in json.loads(err)["error"]["message"]


class TestGsBoundaries:
    REQUEST = {
        "config": {"n_arms": 2, "sigma2": 1.0, "stage_n": [[40, 40], [80, 80]]},
        "spending": {"type": "obrien-fleming"},
    }

    def test_two_look_values(self, capsys):
        status, out, _ = run_cli(
            ["gs-boundaries", "--input", json.dumps(self.REQUEST),
             "--format", "csv"],
            capsys,
        )
        assert status == 0
        header, rows = parse_csv(out)
        assert header == ["subset", "stage", "boundary"]
        assert [r[:2] for r in rows] == [["1", "1"], ["1", "2"]]
        assert abs(float(rows[0][2]) - 2.7718) < 2e-4
        assert abs(float(rows[1][2]) - 1.9793) < 2e-4

    @pytest.mark.parametrize("spending", [
        {"type": "power", "rho": "2"},
        {"type": "power", "rho": True},
        {"type": "obrien-fleming", "info_times": ["0.5", 1.0]},
        {"type": "obrien-fleming", "info_times": [0.5, True]},
    ], ids=["string-rho", "boolean-rho", "string-time", "boolean-time"])
    def test_spending_values_that_are_not_numbers_exit_2(self, capsys, spending):
        request = dict(self.REQUEST, spending=spending)
        status, out, err = run_cli(["gs-boundaries", "--input", json.dumps(request)],
                                   capsys)
        assert status == 2 and out == ""
        assert "must be a real number" in json.loads(err)["error"]["message"]

    def test_consonance_across_subsets(self, capsys, cfg_k3_q2):
        request = {
            "config": {
                "n_arms": 3,
                "sigma2": 1.0,
                "stage_n": [[50, 50, 50], [100, 100, 100]],
            },
            "spending": {"type": "power"},
        }
        status, out, _ = run_cli(
            ["gs-boundaries", "--input", json.dumps(request)], capsys
        )
        assert status == 0
        values = json.loads(out)["values"]
        assert len(values) == 7
        by_size = {}
        for v in values:
            by_size.setdefault(len(v["subset"]), []).append(v["boundaries"])
        for stage in range(2):
            singles = {b[stage] for b in by_size[1]}
            pairs = {b[stage] for b in by_size[2]}
            assert len(singles) == 1 and len(pairs) == 1
            assert min(pairs) > max(singles)
            assert by_size[3][0][stage] > max(pairs)

    def test_generalised_uses_the_full_set_everywhere(self, capsys):
        request = {
            "config": {
                "n_arms": 3,
                "sigma2": 1.0,
                "stage_n": [[50, 50, 50], [100, 100, 100]],
            },
            "spending": {"type": "power"},
            "generalised": True,
        }
        status, out, _ = run_cli(
            ["gs-boundaries", "--input", json.dumps(request)], capsys
        )
        assert status == 0
        payload = json.loads(out)
        assert payload["generalised"] is True
        vectors = {tuple(v["boundaries"]) for v in payload["values"]}
        assert len(vectors) == 1

    def test_unreachable_stage_is_null_in_json(self, capsys):
        request = {
            "config": {"n_arms": 2, "sigma2": 1.0, "stage_n": [[8, 8], [80, 80]]},
            "spending": {"type": "power", "rho": 12},
        }
        status, out, _ = run_cli(
            ["gs-boundaries", "--input", json.dumps(request)], capsys
        )
        assert status == 0
        bounds = json.loads(out)["values"][0]["boundaries"]
        assert bounds[0] is None
        assert abs(bounds[1] - 1.9600) < 1e-3

    @pytest.mark.parametrize("stage_n", [[], [[0, 0], [10, 10]]], ids=["empty", "zero"])
    def test_empty_or_zero_stage_rows_exit_2(self, capsys, stage_n):
        request = dict(self.REQUEST, config={"n_arms": 2, "sigma2": 1.0, "stage_n": stage_n})
        status, out, err = run_cli(["gs-boundaries", "--input", json.dumps(request)], capsys)
        assert status == 2 and out == ""
        assert json.loads(err)["error"]["message"].startswith("invalid config: ")

    def test_unknown_spending_type(self, capsys):
        request = dict(self.REQUEST, spending={"type": "linear"})
        status, _, err = run_cli(
            ["gs-boundaries", "--input", json.dumps(request)], capsys
        )
        assert status == 2
        assert "spending.type" in json.loads(err)["error"]["message"]


class TestCombine:
    def test_oracle_value(self, capsys):
        status, out, _ = run_cli(
            ["combine", "--input", '{"p_values": [0.05, 0.05]}'], capsys
        )
        assert status == 0
        payload = json.loads(out)
        assert payload["combined_p"] == pytest.approx(0.0100046, rel=1e-4)
        assert payload["weights"] == pytest.approx([2 ** -0.5] * 2)

    def test_explicit_weights_are_normalized(self, capsys):
        status, out, _ = run_cli(
            ["combine", "--input", '{"p_values": [0.2, 0.3], "weights": [3, 4]}'],
            capsys,
        )
        assert status == 0
        assert json.loads(out)["weights"] == pytest.approx([0.6, 0.8])

    def test_degenerate_p_is_clamped(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status, out, _ = run_cli(
                ["combine", "--input", '{"p_values": [1.0, 0.5]}'], capsys
            )
        assert status == 0
        assert 0.0 < json.loads(out)["combined_p"] < 1.0

    def test_weight_count_mismatch(self, capsys):
        status, _, err = run_cli(
            ["combine", "--input", '{"p_values": [0.5], "weights": [1, 1]}'],
            capsys,
        )
        assert status == 2
        assert json.loads(err)["error"]["type"] == "validation"

    @pytest.mark.parametrize("request_", [
        {"p_values": ["0.02", 0.5]},
        {"p_values": [0.02, True]},
        {"p_values": [0.02, 0.5], "weights": ["1", 2]},
        {"p_values": [0.02, 0.5], "weights": [1, False]},
        {"p_values": ["0.02", True], "weights": ["1", 2]},
        {"p_values": [0.02, None]},
        {"p_values": [0.02, 0.5], "weights": [1, [2]]},
        {"p_values": [0.02, 0.5], "weights": [1, 10**400]},
    ], ids=["string-p", "boolean-p", "string-weight", "boolean-weight", "all", "null-p",
            "list-weight", "huge-weight"])
    def test_strings_and_booleans_are_not_real_numbers_exit_2(self, capsys, request_):
        status, out, err = run_cli(["combine", "--input", json.dumps(request_)], capsys)
        assert status == 2 and out == ""
        assert "must be a real number" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("entry", [[0.5], {"p": 0.5}], ids=["list", "object"])
    def test_non_scalar_p_value_is_refused_by_name(self, capsys, entry):
        # combine() itself takes an array per stage; one output row cannot
        request_ = json.dumps({"p_values": [0.02, entry]})
        status, out, err = run_cli(["combine", "--input", request_], capsys)
        assert status == 2 and out == ""
        assert json.loads(err)["error"] == {
            "type": "validation",
            "message": f"each entry of p_values must be a real number, got {entry!r}",
        }


class TestDesign:
    def test_univariate_oracle(self, capsys):
        request = '{"n_arms": 2, "sigma2": 1.0, "delta": 0.5, "power": 0.9}'
        status, out, _ = run_cli(["design", "--input", request], capsys)
        assert status == 0
        payload = json.loads(out)
        assert payload["n_per_arm"] == [85, 85]
        assert payload["power"] > 0.9
        assert payload["means"] == [0.5, 0.0]

    def test_explicit_means(self, capsys):
        request = json.dumps(
            {"n_arms": 3, "sigma2": 1.0, "means": [0.6, 0.0, 0.3], "power": 0.8}
        )
        status, out, _ = run_cli(
            ["design", "--input", request, "--format", "csv"], capsys
        )
        assert status == 0
        header, rows = parse_csv(out)
        assert header == ["quantity", "value"]
        assert rows[0][0] == "n_total"

    def test_equal_means_are_rejected(self, capsys):
        request = '{"n_arms": 2, "sigma2": 1.0, "means": [0.5, 0.5]}'
        status, _, err = run_cli(["design", "--input", request], capsys)
        assert status == 2

    @pytest.mark.parametrize("power, message", [
        ("0.9", "power_target must be a real number, got '0.9'"),
        (True, "power_target must be a real number, got True"),
        (1.5, "power_target must lie strictly between 0 and 1"),
    ], ids=["string", "boolean", "above-one"])
    def test_power_is_checked_by_the_library_exits_2(self, capsys, power, message):
        request = {"n_arms": 3, "sigma2": 1.0, "delta": 0.5, "power": power}
        status, out, err = run_cli(["design", "--input", json.dumps(request)], capsys)
        assert status == 2 and out == ""
        assert json.loads(err)["error"]["message"] == message

    @pytest.mark.parametrize("command, request_", [
        ("design", {"n_arms": 2.9, "sigma2": 1.0, "delta": 0.5}),
        ("critical-values", {"config": {"n_arms": 2, "sigma2": 1.0, "n": 100.7}}),
    ])
    def test_fractional_arm_count_or_size_is_rejected(self, capsys, command, request_):
        status, _, err = run_cli([command, "--input", json.dumps(request_)], capsys)
        assert status == 2
        assert "whole number" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("request_", [
        {"n_arms": 3, "sigma2": 1.0, "delta": "0.5"},
        {"n_arms": 3, "sigma2": 1.0, "delta": True},
        {"n_arms": 3, "sigma2": 1.0, "means": [0.5, 0.0, 0.25], "delta": "0.5"},
    ], ids=["string-delta", "boolean-delta", "string-delta-with-means"])
    def test_delta_that_is_not_a_number_exits_2(self, capsys, request_):
        status, out, err = run_cli(["design", "--input", json.dumps(request_)], capsys)
        assert status == 2 and out == ""
        assert "delta must be a real number" in json.loads(err)["error"]["message"]

    def test_missing_delta(self, capsys):
        status, _, err = run_cli(
            ["design", "--input", '{"n_arms": 2, "sigma2": 1.0}'], capsys
        )
        assert status == 2
        assert "delta" in json.loads(err)["error"]["message"]


class TestSimulate:
    REQUEST = {
        "config": {"n_arms": 3, "sigma2": 1.0, "n": 100},
        "means": [0.5, 0.0, 0.0],
        "procedures": ["dunnett", "bonferroni"],
        "replicates": 2000,
    }

    def test_scenario_json(self, capsys):
        status, out, _ = run_cli(
            ["simulate", "--input", json.dumps(self.REQUEST), "--seed", "7"],
            capsys,
        )
        assert status == 0
        payload = json.loads(out)
        assert payload["replicates"] == 2000
        summary = payload["procedures"]["dunnett"]
        assert len(summary["per_count"]) == 4
        assert sum(summary["per_count"]) == pytest.approx(1.0)
        assert summary["mean_total_n"] is None
        assert (
            payload["procedures"]["bonferroni"]["any_reject"]
            <= summary["any_reject"]
        )

    def test_scenario_csv(self, capsys):
        status, out, _ = run_cli(
            ["simulate", "--input", json.dumps(self.REQUEST), "--format", "csv"],
            capsys,
        )
        assert status == 0
        header, rows = parse_csv(out)
        assert header == [
            "procedure", "any_reject", "any_se", "r0", "r1", "r2", "r3",
            "mean_total_n",
        ]
        assert [r[0] for r in rows] == ["dunnett", "bonferroni"]
        assert rows[0][-1] == ""

    def test_deterministic(self, capsys):
        argv = [
            "simulate", "--input", json.dumps(self.REQUEST), "--deterministic",
        ]
        assert run_cli(argv, capsys) == run_cli(argv, capsys)

    def test_table1_csv(self, capsys):
        status, out, _ = run_cli(
            ["simulate", "--table1", "--input", '{"replicates": 500}',
             "--format", "csv"],
            capsys,
        )
        assert status == 0
        header, rows = parse_csv(out)
        assert header[:3] == ["means", "procedure", "any_reject"]
        assert len(rows) == 10
        assert rows[0][0] == "(0,0,0,0)"
        assert rows[3][1] == "unadjusted"
        assert rows[-1][0] == "(10,10,0,0)"

    def test_unknown_procedure(self, capsys):
        request = dict(self.REQUEST, procedures=["dunnett", "tukey"])
        status, _, err = run_cli(
            ["simulate", "--input", json.dumps(request)], capsys
        )
        assert status == 2
        assert "unknown" in json.loads(err)["error"]["message"]

    def test_input_required_without_table1(self, capsys):
        status, _, err = run_cli(["simulate"], capsys)
        assert status == 2
        assert "--input" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("argv", [
        ["simulate", "--input", json.dumps(dict(REQUEST, replicates=100.9))],
        ["simulate", "--table1", "--input", '{"replicates": 10.5}'],
    ], ids=["scenario", "table1"])
    def test_fractional_replicates_exit_2(self, capsys, argv):
        status, out, err = run_cli(argv, capsys)
        assert status == 2 and out == ""
        assert "whole number" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("request_", [
        dict(REQUEST, replicates="20"),
        dict(REQUEST, replicates=True),
        dict(REQUEST, config={"n_arms": 3, "sigma2": 1.0, "n": "100"}),
    ], ids=["string-replicates", "boolean-replicates", "string-n"])
    def test_strings_and_booleans_are_not_counts_exit_2(self, capsys, request_):
        status, out, err = run_cli(["simulate", "--input", json.dumps(request_)], capsys)
        assert status == 2 and out == ""
        assert "must be a whole number" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("request_", [
        dict(REQUEST, config={"n_arms": 3, "sigma2": "1.0", "n": 100}),
        dict(REQUEST, config={"n_arms": 3, "sigma2": [1.0, True, 1.0], "n": 100}),
        dict(REQUEST, means=[0.5, "0.0", 0.0]),
        dict(REQUEST, means=[0.5, False, 0.0]),
        dict(REQUEST, config={"n_arms": 3, "sigma2": [1.0, None, 1.0], "n": 100}),
        dict(REQUEST, means=[0.5, [0.0], 0.0]),
        dict(REQUEST, config={"n_arms": 3, "sigma2": 10**400, "n": 100}),
    ], ids=["string-sigma2", "boolean-sigma2", "string-mean", "boolean-mean",
            "null-sigma2", "list-mean", "huge-sigma2"])
    def test_strings_and_booleans_are_not_real_numbers_exit_2(self, capsys, request_):
        status, out, err = run_cli(["simulate", "--input", json.dumps(request_)], capsys)
        assert status == 2 and out == ""
        assert "must be a real number" in json.loads(err)["error"]["message"]

    def test_whole_float_replicates_run_as_an_int(self, capsys):
        argv = ["simulate", "--deterministic", "--input"]
        as_float = run_cli(argv + [json.dumps(dict(self.REQUEST, replicates=2000.0))], capsys)
        as_int = run_cli(argv + [json.dumps(self.REQUEST)], capsys)
        assert as_float == as_int
        assert '"replicates": 2000,' in as_float[1]


class TestDispatch:
    @pytest.mark.parametrize("accuracy", ["0", "-1e-5", "nan", "inf"])
    def test_invalid_accuracy_exits_2(self, capsys, monkeypatch, accuracy):
        def never(*args, **kwargs):
            raise AssertionError("the kernel ran on an invalid accuracy")

        monkeypatch.setattr(cli, "critical_values", never)
        status, out, err = run_cli(
            ["critical-values", "--input", K3_CONFIG, f"--accuracy={accuracy}"], capsys
        )
        assert status == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "validation"
        assert "accuracy" in error["message"]

    def test_numerics_failure_exits_3(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise NumericsError("lattice budget exhausted")

        monkeypatch.setattr(cli, "critical_values", boom)
        status, _, err = run_cli(
            ["critical-values", "--input", K2_CONFIG], capsys
        )
        assert status == 3
        error = json.loads(err)["error"]
        assert error["type"] == "numerics"
        assert "lattice" in error["message"]

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_parser_is_built_once_and_reused(self, capsys, monkeypatch):
        built = []
        build = cli.build_parser

        def counting():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        argvs = [["combine", "--input", '{"p_values": [0.1, 0.2]}', "--deterministic"],
                 ["combine", "--input", '{"p_values": []}'], ["frobnicate"]]
        seen = []
        for argv in argvs * 2:
            try:
                status = cli.main(argv)
            except SystemExit as exc:
                status = ("exit", exc.code)
            seen.append((status, *capsys.readouterr()))
        cli._parser.cache_clear()
        assert len(built) == 1
        # a reused parser answers every request as a fresh one did
        assert seen[:3] == seen[3:]
        assert [s[0] for s in seen[:3]] == [0, 2, ("exit", 2)]

    def test_there_is_no_threads_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["critical-values", "--input", K2_CONFIG, "--threads", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

    def test_inline_and_file_inputs_agree(self, tmp_path, capsys):
        path = tmp_path / "req.json"
        path.write_text(K2_CONFIG)
        inline = run_cli(
            ["critical-values", "--input", K2_CONFIG, "--deterministic"], capsys
        )
        from_file = run_cli(
            ["critical-values", "--input", str(path), "--deterministic"], capsys
        )
        assert inline == from_file

    def test_module_invocation(self):
        # the child imports the package from where this process found it,
        # so the test also runs from a checkout that is not installed
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [
                sys.executable, "-m", "pairwise_closure.cli", "critical-values",
                "--input", K2_CONFIG, "--format", "csv",
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert "1.95996" in proc.stdout

    def test_import_leaves_optimize_and_interpolate_unloaded(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        probe = (
            "import sys, pairwise_closure.cli; "
            "print(sorted(m for m in ('scipy.optimize', 'scipy.interpolate', "
            "'multiprocessing') if m in sys.modules))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_flexible_simulation_leaves_interpolate_unloaded(self):
        # the tail probability table's cubic is the package's own
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        probe = (
            "import sys\n"
            "from pairwise_closure import SimScenario, TrialConfig, run_scenario\n"
            "for sided in ('two-sided', 'one-sided'):\n"
            "    cfg = TrialConfig.single_stage(3, 1.0, 50, sided=sided).with_stage_n(\n"
            "        ((50, 50, 50), (100, 100, 100)))\n"
            "    run_scenario(SimScenario(cfg, (0.3, 0.1, 0.0), ('combination',),\n"
            "                             replicates=500, seed=1))\n"
            "print('scipy.interpolate' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_json_outputs_reparse(self, capsys):
        argv_sets = [
            ["critical-values", "--input", K2_CONFIG],
            ["combine", "--input", '{"p_values": [0.1, 0.2]}'],
            ["analyze", "--input",
             '{"config": {"n_arms": 2, "sigma2": 1.0, "n": 50},'
             ' "means": [0, 0]}'],
        ]
        for argv in argv_sets:
            status, out, _ = run_cli(argv, capsys)
            assert status == 0
            payload = json.loads(out)
            assert payload["schema_version"] == "1"
