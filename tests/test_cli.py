"""Config validation, CLI round trips, atomic outputs, exit codes."""

import csv
import dataclasses
import errno
import io
import itertools
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import knnabc
from knnabc import cli, core, estimators, fileio, get_model, models, validate
from knnabc.cli import (EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, RunConfig,
                        validate_config)
from knnabc.errors import ConfigurationError, InvalidArgumentError


def minimal_config(**overrides):
    raw = {
        "schema": "abc-config/1",
        "model": {"id": "gaussian_conjugate_1d", "params": {}},
        "N": 1000,
        "seed": 7,
        "s0": [1.0],
        "acceptance": {"percentile": 0.05},
        "bandwidth": "auto",
        "kernel": "gaussian",
    }
    raw.update(overrides)
    return raw


class TestValidateConfig:
    def test_minimal_config_with_defaults(self):
        config = validate_config(json.dumps(minimal_config()))
        assert config.model_id == "gaussian_conjugate_1d"
        assert config.grid_points == 512 and config.grid_padding == 4.0
        assert config.acceptance_mode == "percentile"

    def test_percentile_out_of_range_message(self):
        raw = minimal_config(acceptance={"percentile": 1.5})
        with pytest.raises(ConfigurationError) as err:
            validate_config(json.dumps(raw))
        assert "acceptance.percentile: must be in (0,1)" in err.value.messages

    def test_exclusive_acceptance_keys(self):
        raw = minimal_config(acceptance={"k": 10, "epsilon": 0.1})
        with pytest.raises(ConfigurationError) as err:
            validate_config(json.dumps(raw))
        assert any("exactly one of" in msg for msg in err.value.messages)

    def test_table_size_floor_cited(self):
        raw = minimal_config(N=1)
        with pytest.raises(ConfigurationError) as err:
            validate_config(json.dumps(raw))
        assert any("N: must be >= 2" in msg for msg in err.value.messages)

    def test_seed_is_mandatory(self):
        raw = minimal_config()
        del raw["seed"]
        with pytest.raises(ConfigurationError) as err:
            validate_config(json.dumps(raw))
        assert any(msg.startswith("seed") for msg in err.value.messages)

    def test_unknown_keys_rejected_everywhere(self):
        raw = minimal_config(extra=1)
        raw["grid"] = {"points": 64, "bogus": True}
        with pytest.raises(ConfigurationError) as err:
            validate_config(json.dumps(raw))
        assert "extra: unknown key" in err.value.messages
        assert "grid.bogus: unknown key" in err.value.messages

    def test_errors_are_aggregated(self):
        raw = minimal_config(N=1, acceptance={"percentile": 2.0}, kernel="box")
        with pytest.raises(ConfigurationError) as err:
            validate_config(json.dumps(raw))
        assert len(err.value.messages) >= 3

    def test_not_json(self):
        with pytest.raises(ConfigurationError):
            validate_config("{nope")

    def test_seed_range_is_uint64(self):
        assert validate_config(json.dumps(minimal_config(seed=2**64 - 1))).seed == 2**64 - 1
        with pytest.raises(ConfigurationError) as err:
            validate_config(json.dumps(minimal_config(seed=2**64)))
        assert f"seed: must be <= {2**64 - 1}" in err.value.messages

    def test_validate_block_counts_are_required(self):
        raw = minimal_config()
        raw["validate"] = {name: {} for name in ("mise", "rates", "prop1", "bounds", "moments")}
        with pytest.raises(ConfigurationError) as err:
            validate_config(json.dumps(raw))
        for key in ("mise.replicates", "rates.replicates", "prop1.runs",
                    "prop1.oracle_draws", "bounds.replicates", "bounds.xi0",
                    "bounds.L", "moments.replicates"):
            assert f"validate.{key}: is required" in err.value.messages

    @pytest.mark.parametrize("key", ["s0", "y0"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400])
    def test_non_finite_vector_rejected(self, key, bad):
        raw = minimal_config()
        del raw["s0"]
        raw[key] = [1.0, bad]
        # json.dumps writes NaN and Infinity literals, which json.loads reads
        # back; a 401-digit integer has no float
        with pytest.raises(ConfigurationError) as err:
            validate_config(json.dumps(raw))
        assert err.value.messages == [f"{key}: must contain only finite numbers"]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("path", [
        "bandwidth", "N", "seed", "acceptance.k", "acceptance.percentile",
        "acceptance.epsilon", "grid.points", "grid.padding", "validate.rates.c_k",
        "validate.bounds.xi0", "validate.bounds.L",
    ])
    def test_non_finite_number_rejected(self, path, bad):
        raw = minimal_config(grid={}, validate={
            "rates": {"Ns": [200, 400, 800], "replicates": 2},
            "bounds": {"pairs": [[999, 9]], "replicates": 5, "xi0": 1.0, "L": 1.0}})
        *parents, key = path.split(".")
        obj = raw
        for name in parents:
            obj = obj[name]
        if parents == ["acceptance"]:
            obj.clear()
        obj[key] = bad
        with pytest.raises(ConfigurationError) as err:
            validate_config(json.dumps(raw))
        assert err.value.messages == [f"{path}: must be a finite number"]

    def test_float_key_beyond_float_range_rejected(self):
        raw = minimal_config(grid={"padding": 10**400})
        with pytest.raises(ConfigurationError) as err:
            validate_config(json.dumps(raw))
        assert err.value.messages == ["grid.padding: must be a finite number"]

    def test_grid_points_capped(self):
        # the p = 1 grid has the cap the p > 1 tensor grid already had
        cap = estimators.GRID_CAP
        assert validate_config(json.dumps(minimal_config(grid={"points": cap}))).grid_points == cap
        with pytest.raises(ConfigurationError) as err:
            validate_config(json.dumps(minimal_config(grid={"points": 10**15})))
        assert err.value.messages == [f"grid.points: must be <= {cap}"]


_bandwidth = st.one_of(st.just("auto"),
                       st.floats(min_value=0.001, max_value=10.0, allow_nan=False))


@st.composite
def run_configs(draw):
    n_rows = draw(st.integers(min_value=2, max_value=10**6))
    mode = draw(st.sampled_from(["k", "percentile", "epsilon"]))
    if mode == "k":
        value = draw(st.integers(min_value=1, max_value=n_rows - 1))
    elif mode == "percentile":
        value = draw(st.floats(min_value=0.001, max_value=0.999, allow_nan=False))
    else:
        value = draw(st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
    return RunConfig(
        model_id=draw(st.sampled_from(["gaussian_conjugate_1d", "uniform_box_1d"])),
        model_params={},
        n_rows=n_rows,
        seed=draw(st.integers(min_value=0, max_value=2**63 - 1)),
        acceptance_mode=mode,
        acceptance_value=value,
        bandwidth=draw(_bandwidth),
        kernel=draw(st.sampled_from(["naive", "gaussian"])),
        s0=(draw(st.floats(min_value=-5, max_value=5, allow_nan=False)),),
        grid_points=draw(st.integers(min_value=2, max_value=4096)),
        grid_padding=draw(st.floats(min_value=0.5, max_value=8.0, allow_nan=False)),
    )


def _raw_config(config):
    """The JSON object a config file states ``config`` with."""
    return {
        "schema": "abc-config/1",
        "model": {"id": config.model_id, "params": dict(config.model_params)},
        "N": config.n_rows,
        "seed": config.seed,
        "acceptance": {config.acceptance_mode: config.acceptance_value},
        "bandwidth": config.bandwidth,
        "kernel": config.kernel,
        "s0": list(config.s0),
        "grid": {"points": config.grid_points, "padding": config.grid_padding},
    }


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(run_configs())
    def test_serialize_validate_round_trip(self, config):
        assert validate_config(json.dumps(_raw_config(config))) == config


class TestEndToEnd:
    def _run(self, tmp_path, command, config_raw, extra=(), name="config.json"):
        config_path = tmp_path / name
        config_path.write_text(json.dumps(config_raw))
        out_dir = tmp_path / "out"
        argv = [*command.split(), "--config", str(config_path),
                "--out", str(out_dir), *extra]
        return cli.main(argv), out_dir

    def test_estimate_outputs_and_byte_identity(self, tmp_path, capsys):
        raw = minimal_config(N=5000, acceptance={"k": 100})
        code, out_dir = self._run(tmp_path, "estimate", raw)
        assert code == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["k"] == 100 and summary["N"] == 5000
        assert "runtime_ms" in summary and "version" in summary
        first = {f.name: f.read_bytes() for f in out_dir.iterdir()}
        assert set(first) == {"density.csv", "density_meta.json"}

        # rerun, and rerun again with a different thread cap
        for extra in ((), ("--threads", "8")):
            code, out_dir = self._run(tmp_path, "estimate", raw, extra=extra)
            assert code == EXIT_OK
            capsys.readouterr()
            again = {f.name: f.read_bytes() for f in out_dir.iterdir()}
            assert again == first

    def test_sample_writes_table(self, tmp_path, capsys):
        raw = minimal_config(N=50)
        code, out_dir = self._run(tmp_path, "sample", raw)
        assert code == EXIT_OK
        capsys.readouterr()
        data = (out_dir / "table.bin").read_bytes()
        assert data[:4] == b"ABCT"
        csv_bytes = (out_dir / "table.csv").read_bytes()
        assert csv_bytes.split(b"\r\n")[0] == b"theta_0,s_0"
        assert csv_bytes.count(b"\r\n") == 51  # header + 50 rows, RFC-4180 endings

    def test_demo_model_reduces_raw_data(self, tmp_path, capsys):
        raw = minimal_config(N=2000, acceptance={"k": 50},
                             model={"id": "gaussian_mean_demo", "params": {"n_obs": 5}})
        del raw["s0"]
        raw["y0"] = [0.9, 1.1, 1.0, 0.8, 1.2]
        code, _ = self._run(tmp_path, "estimate", raw)
        assert code == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["s0"] == [pytest.approx(1.0)]

    def test_demo_raw_data_of_wrong_length_is_config_error(self, tmp_path, capsys):
        raw = minimal_config(N=500, acceptance={"k": 5}, model={"id": "gaussian_mean_demo"})
        del raw["s0"]
        raw["y0"] = [1.0, 0.5]
        code, out_dir = self._run(tmp_path, "estimate", raw)
        assert code == EXIT_CONFIG
        assert json.loads(capsys.readouterr().err)["messages"] == [
            "y0: demo model expects raw data of length 10"]
        assert not out_dir.exists()

    def test_demo_raw_data_beyond_the_float_range_is_config_error(self, tmp_path, capsys):
        # the mean of ten 1e308 values is +inf: a config error naming y0,
        # with no numpy warning on the way
        raw = minimal_config(N=500, acceptance={"k": 5}, model={"id": "gaussian_mean_demo"})
        del raw["s0"]
        raw["y0"] = [1e308] * 10
        code, out_dir = self._run(tmp_path, "estimate", raw)
        assert code == EXIT_CONFIG
        assert json.loads(capsys.readouterr().err)["messages"] == [
            "y0: s0 must not contain NaN or infinite entries"]
        assert not out_dir.exists()

    def test_output_path_through_a_file_is_runtime_error(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("")
        config = tmp_path / "config.json"
        config.write_text(json.dumps(minimal_config(N=500, acceptance={"k": 5})))
        code = cli.main(["estimate", "--config", str(config), "--out", str(afile / "out")])
        assert code == EXIT_RUNTIME
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "runtime" and error["type"] == "NotADirectoryError"
        assert afile.read_bytes() == b""

    def test_failed_allocation_is_runtime_error(self, tmp_path, capsys, monkeypatch):
        # a table too large to allocate: numpy raises MemoryError (its
        # _ArrayMemoryError); a real huge allocation could succeed on a host
        # that overcommits memory, so the failure is simulated
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(core, "simulate_knn", no_memory)
        code, out_dir = self._run(tmp_path, "estimate", minimal_config())
        assert code == EXIT_RUNTIME
        error = json.loads(capsys.readouterr().err)
        assert error == {"error": "runtime", "type": "MemoryError",
                         "message": "Unable to allocate 7.28 TiB"}
        assert not out_dir.exists()

    def test_rates_with_c_k_beyond_the_float_range(self, tmp_path, capsys):
        # c_k * N^(5/9) is +inf; k is clamped to N-1 instead of overflowing
        raw = minimal_config(acceptance={"k": 5})
        raw["validate"] = {"rates": {"Ns": [200, 400, 800], "replicates": 2, "c_k": 1e308}}
        code, out_dir = self._run(tmp_path, "validate rates", raw)
        assert code == EXIT_OK
        capsys.readouterr()
        report = json.loads((out_dir / "rate_report.json").read_text())
        assert [r["k"] for r in report["per_N"]] == [199, 399, 799]

    def test_bounds_with_a_support_beyond_the_float_range(self, tmp_path, capsys):
        # L^5 = 1e500 overflowed in distance_moment_bound; it meets the hypothesis
        raw = minimal_config(model={"id": "gauss_5d"}, s0=[1.0, 0.0, 0.0, 0.0, 0.0])
        raw["validate"] = {"bounds": {"pairs": [[999, 9]], "replicates": 3,
                                      "xi0": 0.05, "L": 1e100}}
        code, out_dir = self._run(tmp_path, "validate bounds", raw)
        assert code == EXIT_OK
        capsys.readouterr()
        pair, = json.loads((out_dir / "bounds_report.json").read_text())["pairs"]
        assert pair["tested"] and math.isfinite(pair["bound"]) and pair["holds"]

    def test_validate_moments_report(self, tmp_path, capsys):
        raw = minimal_config(N=2000, acceptance={"k": 60})
        raw["validate"] = {"moments": {"phis": ["identity", "one"], "replicates": 5}}
        code, out_dir = self._run(tmp_path, "validate moments", raw, extra=("--seed", "11"))
        assert code == EXIT_OK
        capsys.readouterr()
        report = json.loads((out_dir / "moments_report.json").read_text())
        names = {row["phi"] for row in report["phis"]}
        assert names == {"identity", "one"}

    def test_epsilon_acceptance_summary_fields(self, tmp_path, capsys):
        raw = minimal_config(N=5000, acceptance={"epsilon": 0.5}, bandwidth=0.2)
        code, _ = self._run(tmp_path, "estimate", raw)
        assert code == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["epsilon"] == 0.5
        assert summary["k"] > 0                      # realized (random) count
        assert summary["d_k_plus_1"] > 0.5           # first distance beyond epsilon
        assert summary["h"] == 0.2

    def test_unknown_model_id_is_config_error(self, tmp_path, capsys):
        raw = minimal_config(model={"id": "not_a_model", "params": {}})
        code, _ = self._run(tmp_path, "estimate", raw)
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert any("model.id" in msg for msg in err["messages"])

    def test_prop1_negative_control_flag(self, tmp_path, capsys):
        raw = minimal_config(N=1500, acceptance={"k": 40})
        raw["validate"] = {"prop1": {"runs": 12, "oracle_draws": 300,
                                     "negative_control": True}}
        code, out_dir = self._run(tmp_path, "validate prop1", raw)
        assert code == EXIT_OK
        capsys.readouterr()
        report = json.loads((out_dir / "prop1_report.json").read_text())
        assert report["oracle_kind"] == "unrestricted"
        assert report["rejection_fraction"] >= 0.5   # wrong law gets rejected

    def test_config_error_exit_and_stderr_json(self, tmp_path, capsys):
        raw = minimal_config(N=1)
        code, _ = self._run(tmp_path, "estimate", raw)
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert any("N" in msg for msg in err["messages"])

    def test_non_finite_s0_is_config_error(self, tmp_path, capsys):
        raw = minimal_config(N=100, acceptance={"k": 10}, s0=[math.nan])
        code, out_dir = self._run(tmp_path, "estimate", raw)
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert err["messages"] == ["s0: must contain only finite numbers"]
        assert not out_dir.exists()

    @pytest.mark.parametrize("overrides, expected", [
        ({"bandwidth": math.inf}, EXIT_CONFIG),
        ({"grid": {"padding": math.inf}}, EXIT_CONFIG),
        # finite, but the padded grid ends overflow
        ({"bandwidth": 1e308}, EXIT_RUNTIME),
        ({"grid": {"padding": 1e308}, "bandwidth": 10.0}, EXIT_RUNTIME),
        # finite, but 1/(k h) overflows: every density value would be nan or inf
        ({"bandwidth": 1e-320}, EXIT_RUNTIME),
    ], ids=["bandwidth-inf", "padding-inf", "bandwidth-1e308", "padding-1e308",
            "bandwidth-1e-320"])
    def test_grid_beyond_float_range_is_an_error(self, tmp_path, capsys, overrides,
                                                  expected):
        raw = minimal_config(N=2000, acceptance={"k": 50}, **overrides)
        code, out_dir = self._run(tmp_path, "estimate", raw)
        assert code == expected
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == ("config" if expected == EXIT_CONFIG else "runtime")
        assert not (out_dir / "density.csv").exists()

    @pytest.mark.parametrize("model, message", [
        ({"id": "gaussian_conjugate_1d", "params": {"bound": math.nan}},
         "model.params.bound: must be a finite number > 0"),
        ({"id": "uniform_ball_1d", "params": {"radius": math.inf}},
         "model.params.radius: must be a finite number > 0"),
        ({"id": "gaussian_mean_demo", "params": {"n_obs": True}},
         "model.params.n_obs: must be an integer >= 1"),
        ({"id": "gauss_5d", "params": {"m": 3}},
         "model.params: unknown key(s) m for model 'gauss_5d'; accepted keys: bound"),
        ({"id": "gaussian_conjugate_1d", "params": {"model_id": "x"}},
         "model.params: unknown key(s) model_id for model 'gaussian_conjugate_1d';"
         " accepted keys: bound"),
    ], ids=["bound-nan", "radius-inf", "n_obs-true", "m-not-a-param", "model_id-not-a-param"])
    def test_bad_model_params_are_config_errors(self, tmp_path, capsys, model, message):
        raw = minimal_config(N=200, acceptance={"k": 10}, model=model, s0=[0.5])
        code, out_dir = self._run(tmp_path, "estimate", raw)
        assert code == EXIT_CONFIG
        assert json.loads(capsys.readouterr().err)["messages"] == [message]
        assert not out_dir.exists()

    @pytest.mark.parametrize("block, contents, message", [
        ("moments", {"phis": [["identity"]], "replicates": 5},
         "validate.moments.phis: must be a non-empty array from ['identity', 'one', 'square']"),
        ("moments", {"phis": [{"a": 1}], "replicates": 5},
         "validate.moments.phis: must be a non-empty array from ['identity', 'one', 'square']"),
        # each pair must fit its table: N >= 2 and 0 <= k <= N-1
        ("bounds", {"pairs": [[999, 9], [100, 200]], "replicates": 5, "xi0": 1.0, "L": 1.0},
         "validate.bounds.pairs: each [N, k] pair needs N >= 2 and 0 <= k <= N-1"),
        ("bounds", {"pairs": [[1, 0]], "replicates": 5, "xi0": 1.0, "L": 1.0},
         "validate.bounds.pairs: each [N, k] pair needs N >= 2 and 0 <= k <= N-1"),
        ("bounds", {"pairs": [[999, -1]], "replicates": 5, "xi0": 1.0, "L": 1.0},
         "validate.bounds.pairs: each [N, k] pair needs N >= 2 and 0 <= k <= N-1"),
        # numpy rejected these tables' distances with a ValueError (exit 1)
        ("bounds", {"pairs": [[10**30, 1]], "replicates": 5, "xi0": 1.0, "L": 1.0},
         f"validate.bounds.pairs: each N must be <= {2**53}"),
        ("bounds", {"pairs": [[2**62, 1]], "replicates": 5, "xi0": 1.0, "L": 1.0},
         f"validate.bounds.pairs: each N must be <= {2**53}"),
        # 4.0 == 4, but order is an integer key like the others
        ("bounds", {"pairs": [[999, 9]], "replicates": 5, "xi0": 1.0, "L": 1.0, "order": 4.0},
         "validate.bounds.order: must be 2 or 4"),
    ], ids=["phis-list", "phis-object", "bounds-k-beyond-table", "bounds-n-below-2",
            "bounds-negative-k", "bounds-n-1e30", "bounds-n-2^62", "bounds-order-float"])
    def test_bad_validate_values_are_config_errors(self, tmp_path, capsys, block, contents,
                                                   message):
        raw = minimal_config(N=500, acceptance={"k": 20}, model={"id": "uniform_box_1d"},
                             s0=[0.5])
        raw["validate"] = {block: contents}
        code, out_dir = self._run(tmp_path, f"validate {block}", raw)
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert err["messages"] == [message]
        assert not out_dir.exists()

    @pytest.mark.parametrize("sub, model_id, contents, message", [
        # a KS test of fewer than 20 accepted rows has no power
        ("prop1", "uniform_box_1d", {"runs": 3, "oracle_draws": 100},
         "acceptance: validate prop1 needs k >= 20, got k = 5"),
        ("mise", "gaussian_mean_demo", {"replicates": 2},
         "model.id: model 'gaussian_mean_demo' has no posterior oracle"),
        ("rates", "gaussian_mean_demo", {"Ns": [100, 200, 400], "replicates": 2},
         "model.id: model 'gaussian_mean_demo' has no posterior oracle"),
        ("moments", "gaussian_mean_demo", {"replicates": 2},
         "model.id: model 'gaussian_mean_demo' has no posterior oracle"),
    ], ids=["prop1-k-below-20", "mise-no-oracle", "rates-no-oracle", "moments-no-oracle"])
    def test_what_a_validate_command_needs_is_a_config_error(self, tmp_path, capsys, sub,
                                                             model_id, contents, message):
        raw = minimal_config(N=500, acceptance={"k": 5}, model={"id": model_id}, s0=[0.5])
        raw["validate"] = {sub: contents}
        code, out_dir = self._run(tmp_path, f"validate {sub}", raw)
        assert code == EXIT_CONFIG
        assert json.loads(capsys.readouterr().err)["messages"] == [message]
        assert not out_dir.exists()

    @pytest.mark.parametrize("sub", ["mise", "rates", "moments"])
    @pytest.mark.parametrize("model_id, s0", [
        ("uniform_ball_1d", [5.0]), ("gaussian_conjugate_1d", [11.0]),
        ("gauss_5d", [11.0, 0.0, 0.0, 0.0, 0.0]), ("uniform_box_1d", [1.5]),
    ], ids=["ball-5", "conjugate-11", "gauss_5d-11", "box-1.5"])
    def test_an_s0_without_a_posterior_is_a_config_error(self, tmp_path, capsys, monkeypatch,
                                                        sub, model_id, s0):
        # the oracle has no posterior beyond the summary's support, and the
        # config alone says so: no replicate runs, and no report compares an
        # estimate with a density that is not there
        def no_table(*args, **kwargs):
            raise AssertionError("simulated a table for an s0 the oracle cannot use")

        monkeypatch.setattr(core, "simulate_knn", no_table)
        raw = minimal_config(N=500, acceptance={"k": 20}, model={"id": model_id}, s0=s0)
        raw["validate"] = {sub: {"mise": {"replicates": 2},
                                 "rates": {"Ns": [200, 400, 800], "replicates": 2},
                                 "moments": {"replicates": 2}}[sub]}
        code, out_dir = self._run(tmp_path, f"validate {sub}", raw)
        assert code == EXIT_CONFIG
        assert json.loads(capsys.readouterr().err)["messages"] == [
            "s0: s0 outside the support of the summary marginal"]
        assert not out_dir.exists()

    @pytest.mark.parametrize("model, block, contents, message", [
        # one table size gives the rate fit no slope (it ended in a traceback)
        ({"id": "gaussian_conjugate_1d"}, "rates", {"Ns": [200, 200, 200], "replicates": 2},
         "validate.rates.Ns: must hold at least 2 distinct sizes"),
        # a chunk of Philox words past 2^63 bytes (numpy's ValueError, exit 1)
        ({"id": "gaussian_mean_demo", "params": {"n_obs": 2**62}}, None, None,
         f"model.params.n_obs: must be <= {2**44}"),
    ], ids=["rates-one-size", "n_obs-2^62"])
    def test_configs_that_exited_1_are_config_errors(self, tmp_path, capsys, monkeypatch,
                                                     model, block, contents, message):
        def no_table(*args, **kwargs):
            raise AssertionError("simulated a table for a config error")

        monkeypatch.setattr(core, "simulate_knn", no_table)
        raw = minimal_config(N=500, acceptance={"k": 20}, model=model, s0=[1.0])
        if block is not None:
            raw["validate"] = {block: contents}
        code, out_dir = self._run(tmp_path, f"validate {block}" if block else "estimate", raw)
        assert code == EXIT_CONFIG
        assert json.loads(capsys.readouterr().err)["messages"] == [message]
        assert not out_dir.exists()

    @pytest.mark.parametrize("model_id, s0", [
        ("gaussian_conjugate_1d", [1.0]), ("gauss_5d", [1.0, 0.0, 0.0, 0.0, 0.0])])
    def test_estimate_at_a_huge_bound(self, tmp_path, capsys, model_id, s0):
        # the support diameter 2 b sqrt(m + 3) no longer overflows
        raw = minimal_config(N=1000, acceptance={"k": 50},
                             model={"id": model_id, "params": {"bound": 1e300}}, s0=s0)
        code, out_dir = self._run(tmp_path, "estimate", raw)
        assert code == EXIT_OK
        assert capsys.readouterr().err == ""
        assert (out_dir / "density.csv").exists()

    def test_runtime_error_exit(self, tmp_path, capsys):
        # zero-width tolerance accepts nothing: a runtime failure, not a 0
        raw = minimal_config(N=100, acceptance={"epsilon": 0.0})
        code, _ = self._run(tmp_path, "estimate", raw)
        assert code == EXIT_RUNTIME
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "runtime"

    @pytest.mark.parametrize("command, acceptance", [
        ("sample", {"k": 5}), ("estimate", {"k": 50}), ("estimate", {"percentile": 0.05}),
        ("estimate", {"epsilon": 0.05}),
    ], ids=["sample", "estimate-k", "estimate-percentile", "estimate-epsilon"])
    def test_no_command_builds_the_table(self, tmp_path, capsys, monkeypatch, command,
                                         acceptance):
        # sample streams the table to disk and estimate selects while
        # simulating, in every acceptance mode, so none holds the table
        def no_table(*args, **kwargs):
            raise AssertionError("the command built the whole reference table")

        monkeypatch.setattr(core, "generate_table", no_table)
        code, _ = self._run(tmp_path, command, minimal_config(acceptance=acceptance))
        assert code == EXIT_OK
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command, acceptance, block, message", [
        ("estimate", {"k": 1}, None, "acceptance: bandwidth 'auto' needs k >= 2, got k = 1"),
        ("estimate", {"percentile": 0.001}, None,
         "acceptance: bandwidth 'auto' needs k >= 2, got k = 1"),
        ("validate mise", {"percentile": 0.001}, {"mise": {"replicates": 2}},
         "acceptance: bandwidth 'auto' needs k >= 2, got k = 1"),
        ("validate rates", {"k": 5}, {"rates": {"Ns": [2, 100, 1000], "replicates": 2}},
         "validate.rates.Ns: bandwidth 'auto' needs k >= 2, got k = 1 at N = 2"),
    ], ids=["estimate-k", "estimate-percentile", "mise", "rates"])
    def test_auto_bandwidth_with_one_row_is_config_error(self, tmp_path, capsys, monkeypatch,
                                                         command, acceptance, block, message):
        # the config alone fixes k, so the error comes before any simulation
        def no_simulation(*args, **kwargs):
            raise AssertionError("a simulation started")

        monkeypatch.setattr(core, "simulate_knn", no_simulation)
        raw = minimal_config(N=1000, acceptance=acceptance)
        if block is not None:
            raw["validate"] = block
        code, out_dir = self._run(tmp_path, command, raw)
        assert code == EXIT_CONFIG
        assert json.loads(capsys.readouterr().err)["messages"] == [message]
        assert not out_dir.exists()

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_seed_beyond_uint64_is_config_error(self, tmp_path, capsys, where):
        raw = minimal_config(N=100, acceptance={"k": 5})
        extra = ()
        if where == "config":
            raw["seed"] = 2**64
        else:
            extra = ("--seed", str(2**64))
        code, out_dir = self._run(tmp_path, "sample", raw, extra=extra)
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert err["messages"] == [f"seed: must be <= {2**64 - 1}"]
        assert not out_dir.exists()

    @pytest.mark.parametrize("block, key, contents", [
        ("mise", "replicates", {}),
        ("rates", "replicates", {"Ns": [200, 400, 800]}),
        ("prop1", "oracle_draws", {"runs": 4}),
        ("bounds", "xi0", {"pairs": [[999, 9]], "replicates": 5, "L": 20.0}),
        ("moments", "replicates", {"phis": ["identity"]}),
    ])
    def test_validate_block_missing_key_is_config_error(self, tmp_path, capsys,
                                                        block, key, contents):
        raw = minimal_config(N=500, acceptance={"k": 20})
        raw["validate"] = {block: contents}
        code, out_dir = self._run(tmp_path, f"validate {block}", raw)
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert err["messages"] == [f"validate.{block}.{key}: is required"]
        assert not out_dir.exists()

    def test_grid_padding_reaches_validate(self, tmp_path, capsys):
        raw = minimal_config(N=2000, acceptance={"k": 60})
        raw["validate"] = {"mise": {"replicates": 2},
                           "rates": {"Ns": [200, 400, 800], "replicates": 2}}
        reports = {}
        for padding in (4.0, 9.0):
            raw["grid"] = {"points": 64, "padding": padding}
            for sub in ("mise", "rates"):
                code, out_dir = self._run(tmp_path, f"validate {sub}", raw)
                assert code == EXIT_OK
            capsys.readouterr()
            mise = json.loads((out_dir / "mise_report.json").read_text())
            rates = json.loads((out_dir / "rate_report.json").read_text())
            assert mise["grid_spec"] == {"points": 64, "padding": padding}
            assert [r["grid_spec"]["padding"] for r in rates["per_N"]] == [padding] * 3
            reports[padding] = mise["mise_mean"]
        # the padding moves the grid, so it changes the integrated error too
        assert reports[4.0] != reports[9.0]

    def test_validate_requires_block(self, tmp_path, capsys):
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(minimal_config()))
        code = cli.main(["validate", "mise", "--config", str(config_path),
                         "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert any("validate.mise" in msg for msg in err["messages"])


class TestScheduleCommand:
    def test_reference_case(self, capsys):
        assert cli.main(["schedule", "--m", "5", "--p", "1", "--N", "1000000"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["k"] == 1000
        assert payload["h"] == pytest.approx(10 ** -0.6)
        assert payload["regime"] == "m_gt_4"
        assert payload["exponents"] == {"k": "1/2", "h": "-1/10"}

    def test_bad_dimensions(self, capsys):
        assert cli.main(["schedule", "--m", "0", "--p", "1", "--N", "100"]) == EXIT_CONFIG
        assert json.loads(capsys.readouterr().err)["error"] == "config"

    def test_ck_beyond_the_float_range_gives_k_n_minus_1(self, capsys):
        assert cli.main(["schedule", "--m", "1", "--p", "1", "--N", "100",
                         "--ck", "1e308"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["k"] == 99

    @pytest.mark.parametrize("flag", ["--ck", "--ch"])
    def test_infinite_multiplier_is_config_error(self, flag, capsys):
        # --ck inf raised OverflowError, and --ch inf printed "h": Infinity,
        # which is not JSON
        assert cli.main(["schedule", "--m", "1", "--p", "1", "--N", "100",
                         flag, "inf"]) == EXIT_CONFIG
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "config" and "finite" in error["message"]


class TestAtomicWrites:
    def test_failed_write_leaves_no_target(self, tmp_path, monkeypatch):
        target = tmp_path / "x.json"

        real_replace = os.replace

        def exploding_replace(src, dst):
            raise RuntimeError("interrupted")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(RuntimeError):
            fileio.atomic_write_bytes(target, fileio.json_bytes({"a": 1}))
        monkeypatch.setattr(os, "replace", real_replace)
        assert not target.exists()
        assert not list(tmp_path.glob("*.tmp"))

    def test_existing_target_unharmed_by_failed_overwrite(self, tmp_path, monkeypatch):
        target = tmp_path / "x.json"
        fileio.atomic_write_bytes(target, fileio.json_bytes({"a": 1}))
        before = target.read_bytes()

        def exploding_fsync(fd):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "fsync", exploding_fsync)
        with pytest.raises(OSError):
            fileio.atomic_write_bytes(target, fileio.json_bytes({"a": 2}))
        assert target.read_bytes() == before

    def test_json_handles_nonfinite_and_numpy(self):
        back = json.loads(fileio.json_bytes({"inf": float("inf"), "arr": np.array([1.5, 2.5]),
                                             "i": np.int64(3)}))
        assert back == {"inf": "inf", "arr": [1.5, 2.5], "i": 3}

    def test_outputs_follow_umask(self, tmp_path):
        previous = os.umask(0o027)
        try:
            path = fileio.atomic_write_bytes(tmp_path / "t.bin", b"abc")
        finally:
            os.umask(previous)
        assert path.stat().st_mode & 0o777 == 0o640


def _reference_csv(header, columns):
    """The former export: csv.writer over cells formatted one at a time."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    for row in zip(*columns):
        writer.writerow([str(v) if isinstance(v, int) else f"{v:.17g}" for v in row])
    return buf.getvalue().encode("utf-8")


class TestWriteCsv:
    def test_matches_cell_by_cell_reference(self, tmp_path):
        n = fileio._CSV_BLOCK_CELLS // 4 + 7      # 4 columns: crosses a block boundary
        special = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0,
                   5e-324, -5e-324, 1e308, -1.7976931348623157e308, 0.1, 1 / 3]
        gen = np.random.default_rng(3)
        floats = gen.normal(size=n) * 10.0 ** gen.integers(-320, 307, size=n)
        floats[:len(special)] = special
        floats[-len(special):] = special
        ints = np.arange(n, dtype=np.int64) * 3 - 5
        ints[-1] = 2**63 - 1
        ints[0] = -2**63
        header = ["i", "x", "u", "y"]
        columns = [ints, floats, np.arange(n, dtype=np.uint32), floats[::-1]]
        path = fileio.write_csv(tmp_path / "t.csv", header, columns)
        expected = _reference_csv(header, [c.tolist() for c in columns])
        assert path.read_bytes() == expected

    def test_header_only(self, tmp_path):
        path = fileio.write_csv(tmp_path / "t.csv", ["a", "b"],
                                [np.zeros(0), np.zeros(0, dtype=int)])
        assert path.read_bytes() == b"a,b\r\n"

    def test_shape_mismatch_rejected(self, tmp_path):
        with pytest.raises(InvalidArgumentError):
            fileio.write_csv(tmp_path / "t.csv", ["a", "b"], [np.zeros(3), np.zeros(4)])
        with pytest.raises(InvalidArgumentError):
            fileio.write_csv(tmp_path / "t.csv", ["a"], [np.zeros(3), np.zeros(3)])
        assert not (tmp_path / "t.csv").exists()


# -- every value of every count ends in exit 0, 2 or 3 --------------------

def _count_targets():
    """(key, command) for every number key of a config, each with the
    command that reads it, plus the counts that are not in _NUMBERS."""
    for path in cli._NUMBERS:
        head, _, rest = path.partition(".")
        if head == "validate":
            yield path, f"validate {rest.partition('.')[0]}"
        else:
            yield path, "estimate"
            if not rest:
                yield path, "sample"
    yield "validate.rates.Ns", "validate rates"
    yield "validate.bounds.pairs", "validate bounds"
    yield "N", "schedule"


def _largest_accepted(path: str, command: str):
    if command == "schedule" or path in ("validate.rates.Ns", "validate.bounds.pairs"):
        return cli.COUNT_MAX
    if path == "acceptance.k":
        return 999  # held below the base config's N = 1000
    rule = cli._NUMBERS[path]
    assert rule.high is not None or not rule.integer, f"{path}: an integer needs an upper bound"
    if rule.high is None:
        return sys.float_info.max
    return math.nextafter(rule.high, -math.inf) if rule.open else rule.high


_VALUES = {"0": 0, "-1": -1, "largest": None, "largest+1": None, "2^63": 2**63,
           "2^64": 2**64, "400-digits": 10**399, "1e308": 1e308, "5e-324": 5e-324,
           "string": "a string"}


@pytest.mark.parametrize("label", _VALUES)
@pytest.mark.parametrize("path, command", list(_count_targets()),
                         ids=lambda v: v.replace(" ", "-"))
def test_every_count_ends_in_exit_0_2_or_3(tmp_path, capsys, monkeypatch, path, command,
                                           label):
    largest = _largest_accepted(path, command)
    value = _VALUES[label]
    if label == "largest":
        value = largest
    elif label == "largest+1":
        value = largest + 1 if isinstance(largest, int) else math.nextafter(largest, math.inf)

    # a run the config accepts stops where it would simulate a table or
    # size an array by the count: every validate loop derives its
    # sub-seeds first
    def no_memory(*args, **kwargs):
        raise MemoryError("not allocated in this test")

    for owner, name in ((core, "simulate_knn"), (core, "simulate_tolerance"),
                        (core, "generate_table"), (core, "write_table"),
                        (validate, "derive_seeds")):
        monkeypatch.setattr(owner, name, no_memory)

    if command == "schedule":
        argv = ["schedule", "--m", "1", "--p", "1", "--N", str(value)]
    else:
        raw = minimal_config(acceptance={"k": 20})
        raw["validate"] = {"mise": {"replicates": 2},
                           "rates": {"Ns": [200, 400, 800], "replicates": 2},
                           "prop1": {"runs": 2, "oracle_draws": 100},
                           "bounds": {"pairs": [[999, 9]], "replicates": 2, "xi0": 1.0,
                                      "L": 1.0},
                           "moments": {"replicates": 2}}
        *parents, key = path.split(".")
        if parents == ["acceptance"]:
            raw["acceptance"] = {}
        obj = raw
        for part in parents:
            obj = obj.setdefault(part, {})
        obj[key] = {"Ns": [value, 400, 800], "pairs": [[value, 1]]}.get(key, value)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        argv = [*command.split(), "--config", str(config), "--out", str(tmp_path / "out")]
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # an argument that is not an integer
        code = exc.code
    out, err = capsys.readouterr()
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_RUNTIME)
    assert "Traceback" not in out + err
    if code == EXIT_OK:
        assert err == ""
    else:
        error = json.loads(err)  # exactly one JSON object
        assert error["error"] == ("config" if code == EXIT_CONFIG else "runtime")
    if label == "largest":
        assert code != EXIT_CONFIG, err
    elif label == "largest+1":
        assert code == EXIT_CONFIG
        assert error["messages"][0].startswith(f"{'N' if command == 'schedule' else path}: ")


def _param_cases():
    """(model id, params) for extreme values of every model parameter."""
    for model_id, name in (("gaussian_conjugate_1d", "bound"), ("gauss_5d", "bound"),
                           ("gaussian_mean_demo", "bound"), ("uniform_ball_1d", "radius")):
        for value in (1e-300, 1e-12, 1e12, 1e300, 1.7e308):
            yield model_id, {name: value}
    yield "gaussian_mean_demo", {"n_obs": models.N_OBS_MAX}
    yield "gaussian_mean_demo", {"n_obs": models.N_OBS_MAX + 1}


@pytest.mark.parametrize("command", ["sample", "estimate", *(f"validate {sub}" for sub in (
    "mise", "rates", "prop1", "bounds", "moments"))], ids=lambda v: v.replace(" ", "-"))
# s0 entries of 0 lie inside every model's support, even a tiny one; 0.5
# lies outside the tiny ones
@pytest.mark.parametrize("s0", [0.0, 0.5])
@pytest.mark.parametrize("model_id, params", list(_param_cases()),
                         ids=lambda v: v if isinstance(v, str) else "-".join(
                             f"{key}={value!r}" for key, value in v.items()))
def test_every_model_param_ends_in_exit_0_2_or_3(tmp_path, capsys, monkeypatch, model_id,
                                                 params, s0, command):
    # as in test_every_count_ends_in_exit_0_2_or_3, a run the config
    # accepts stops where it would simulate a table
    def no_memory(*args, **kwargs):
        raise MemoryError("not allocated in this test")

    for owner, name in ((core, "simulate_knn"), (core, "simulate_tolerance"),
                        (core, "generate_table"), (core, "write_table"),
                        (validate, "derive_seeds")):
        monkeypatch.setattr(owner, name, no_memory)
    m = get_model(model_id).m
    raw = minimal_config(acceptance={"k": 20}, model={"id": model_id, "params": params},
                         s0=[s0] * m)
    raw["validate"] = {"mise": {"replicates": 2},
                       "rates": {"Ns": [200, 400, 800], "replicates": 2},
                       "prop1": {"runs": 2, "oracle_draws": 100},
                       "bounds": {"pairs": [[999, 9]], "replicates": 2, "xi0": 1.0, "L": 1.0},
                       "moments": {"replicates": 2}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    code = cli.main([*command.split(), "--config", str(config), "--out", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_RUNTIME)
    assert "Traceback" not in out + err
    if code == EXIT_OK:
        assert err == ""
    else:
        error = json.loads(err)  # exactly one JSON object
        assert error["error"] == ("config" if code == EXIT_CONFIG else "runtime")
    # n_obs past its bound, and nothing else here, is the params' fault
    over = params.get("n_obs", 0) > models.N_OBS_MAX
    if code == EXIT_CONFIG:
        assert error["messages"][0].startswith("model.params.") == over, err
    else:
        assert not over


def _main_in_thread(argv, timeout=120.0):
    """``cli.main(argv)`` on a thread that must end within ``timeout``
    seconds, so that a run left waiting on a worker fails the test rather
    than hanging the suite."""
    result = []
    worker = threading.Thread(target=lambda: result.append(cli.main(argv)), daemon=True)
    worker.start()
    worker.join(timeout)
    assert not worker.is_alive(), "abc sample did not finish"
    return result[0]


class TestStreamedSample:
    """``abc sample`` writes its files one chunk at a time, in row order."""

    def _argv(self, tmp_path, raw, threads, out="out"):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        return ["sample", "--config", str(config), "--out", str(tmp_path / out),
                "--threads", str(threads)]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_memory_does_not_grow_with_n(self, tmp_path, threads):
        # the run holds one chunk per worker and that chunk's CSV text; a
        # run that held its table held 10 more MB per 2^15 rows
        def peak(n_rows):
            config = validate_config(json.dumps(minimal_config(
                N=n_rows, acceptance={"k": 1}, model={"id": "gauss_5d"},
                s0=[1.0, 0.0, 0.0, 0.0, 0.0])))
            tracemalloc.start()
            try:
                cli.run(config, "sample", tmp_path / str(n_rows), threads=threads)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(1 << 17) - peak(1 << 16) < 4 << 20

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failed_chunk_leaves_no_output(self, tmp_path, capsys, monkeypatch, threads):
        model = get_model("gaussian_conjugate_1d")
        calls = itertools.count()

        def thetas_from_uniforms(u, out):
            if next(calls) == 1:
                raise InvalidArgumentError("the second chunk fails")
            return model.thetas_from_uniforms(u, out)

        monkeypatch.setattr(cli, "get_model", lambda *args, **kwargs: dataclasses.replace(
            model, thetas_from_uniforms=thetas_from_uniforms))
        raw = minimal_config(N=4 * core._CHUNK_ROWS + 3, acceptance={"k": 1})
        assert _main_in_thread(self._argv(tmp_path, raw, threads)) == EXIT_RUNTIME
        assert json.loads(capsys.readouterr().err)["message"] == "the second chunk fails"
        assert list((tmp_path / "out").glob("*")) == []

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failed_write_leaves_no_output_and_no_thread(self, tmp_path, capsys, monkeypatch,
                                                         threads):
        # a full disk on the second chunk's CSV rows: the error is raised in
        # the calling thread while a worker may be simulating the next chunk
        calls = itertools.count()

        def write_csv_rows(fh, columns):
            if next(calls) == 1:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return fileio.write_csv_rows(fh, columns)

        monkeypatch.setattr(cli, "write_csv_rows", write_csv_rows)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        baseline = threading.active_count()
        raw = minimal_config(N=4 * core._CHUNK_ROWS + 3, acceptance={"k": 1})
        assert _main_in_thread(self._argv(tmp_path, raw, threads)) == EXIT_RUNTIME
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "runtime" and error["type"] == "OSError"
        assert list((tmp_path / "out").glob("*")) == []
        assert threading.active_count() == baseline

    def test_more_workers_than_cores_write_the_same_bytes(self, tmp_path, capsys,
                                                          monkeypatch):
        raw = minimal_config(N=8 * core._CHUNK_ROWS + 5, acceptance={"k": 1},
                             model={"id": "uniform_box_1d"}, s0=[0.5])
        assert _main_in_thread(self._argv(tmp_path, raw, 1, out="one")) == EXIT_OK
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert _main_in_thread(self._argv(tmp_path, raw, 8, out="eight")) == EXIT_OK
        finally:
            sys.setswitchinterval(interval)
        for name in ("table.bin", "table.csv"):
            assert (tmp_path / "eight" / name).read_bytes() == \
                (tmp_path / "one" / name).read_bytes()

# After `import knnabc.cli`, and again after an in-process `abc estimate`
# and `abc sample`, each module is absent or a lazy module not yet executed.
# type() does not load a lazy module; an attribute access would.  A stub
# for scipy.special left behind by knnabc.rng is a plain module, so it
# fails this check too.
_UNLOADED_PROBE = """
import json, sys, types
import knnabc.cli

def unloaded():
    return NAME not in sys.modules or type(sys.modules[NAME]) is not types.ModuleType

after_import = unloaded()
config, out = sys.argv[1:]
for command in ("estimate", "sample"):
    assert knnabc.cli.main([command, "--config", config, "--out", out]) == 0
print(json.dumps([after_import, unloaded()]))
"""
# the knnabc modules, and fractions, that commands run in process load:
# each command imports tuning and validate only where it uses them
_LOADED_PROBE = """
import json, sys
import knnabc.cli
config, out = sys.argv[1:]
for command in COMMANDS:
    assert knnabc.cli.main([command, "--config", config, "--out", out]) == 0
print(json.dumps(sorted(name for name in NAMES if name in sys.modules)))
"""
# the package alone loads none of its modules
_PACKAGE_PROBE = """
import json, sys
import knnabc
print(json.dumps(sorted(name for name in sys.modules if name.startswith("knnabc."))))
"""
# numpy.ma imported before knnabc keeps its module object
_IMPORTED_FIRST_PROBE = """
import json, sys
import numpy.ma
first = sys.modules["numpy.ma"]
import numpy, knnabc.cli
print(json.dumps([sys.modules["numpy.ma"] is first, numpy.ma is first]))
"""
# scipy.special imported before knnabc lends knnabc its ufuncs
_SPECIAL_FIRST_PROBE = """
import json
import scipy.special
import knnabc.cli
from knnabc import rng
print(json.dumps([rng.ndtr is scipy.special.ndtr, rng.ndtri is scipy.special.ndtri]))
"""
# scipy.stats imported after knnabc loads the whole scipy.special package,
# which reuses the ufuncs knnabc loaded
_STATS_AFTER_PROBE = """
import json
import knnabc.cli
from knnabc import rng
from scipy.stats import kstwo
import scipy.special
print(json.dumps([hasattr(scipy.special, "erf"), rng.ndtr is scipy.special.ndtr,
                  rng.ndtri is scipy.special.ndtri, 0.0 < float(kstwo.sf(0.2, 50)) < 1.0]))
"""
# a scipy whose compiled ufuncs cannot load alone: knnabc imports the package
_REFUSED_PROBE = """
import importlib.abc, json, sys

class RefuseOnce(importlib.abc.MetaPathFinder):
    refused = 0

    def find_spec(self, name, path, target=None):
        if name == "scipy.special._ufuncs" and not self.refused:
            self.refused += 1
            raise ImportError("refused once")
        return None

finder = RefuseOnce()
sys.meta_path.insert(0, finder)
import knnabc.cli
from knnabc import rng
import scipy.special
print(json.dumps([finder.refused, hasattr(scipy.special, "erf"),
                  rng.ndtr is scipy.special.ndtr, rng.ndtri is scipy.special.ndtri]))
"""
# the deferred modules still work when used
_USE_PROBE = """
import json
import knnabc.cli
import numpy
numpy.testing.assert_array_equal(numpy.arange(3), [0, 1, 2])
masked = numpy.ma.masked_array([1.0, 2.0, 4.0], mask=[False, True, False])
print(json.dumps([float(masked.sum()), int(masked.count())]))
"""


# what `abc sample` and `abc estimate` load of validate, tuning and fractions
_COMMAND_LOADS = [
    pytest.param(_LOADED_PROBE.replace("COMMANDS", '["sample"]').replace(
        "NAMES", '["knnabc.validate", "knnabc.tuning", "fractions"]'),
        [], id="sample-loads-no-tuning-validate-fractions"),
    pytest.param(_LOADED_PROBE.replace("COMMANDS", '["estimate"]').replace(
        "NAMES", '["knnabc.validate", "knnabc.tuning"]'),
        ["knnabc.tuning"], id="estimate-loads-no-validate"),
]


@pytest.mark.parametrize("probe, expected", [
    *(pytest.param(_UNLOADED_PROBE.replace("NAME", repr(name)), [True, True], id=name)
      for name in ("scipy.stats", "scipy.special", "scipy._lib._array_api",
                   "concurrent.futures", "numpy.f2py", "numpy.testing", "numpy.ma")),
    *_COMMAND_LOADS,
    pytest.param(_PACKAGE_PROBE, [], id="package-loads-no-module"),
    pytest.param(_IMPORTED_FIRST_PROBE, [True, True], id="numpy.ma-imported-first"),
    pytest.param(_SPECIAL_FIRST_PROBE, [True, True], id="scipy.special-imported-first"),
    pytest.param(_STATS_AFTER_PROBE, [True] * 4, id="scipy.stats-imported-after"),
    pytest.param(_REFUSED_PROBE, [1, True, True, True], id="ufuncs-load-refused-once"),
    pytest.param(_USE_PROBE, [5.0, 2], id="numpy-testing-and-ma-used"),
])
def test_cli_import_leaves_scipy_stats_unloaded(tmp_path, probe, expected):
    assert _run_probe(tmp_path, probe, minimal_config(N=2000, acceptance={"k": 50})) == expected


@pytest.mark.parametrize("probe, expected", _COMMAND_LOADS)
def test_validate_blocks_load_no_validate_outside_it(tmp_path, probe, expected):
    # checking a config's validate blocks needs only what import knnabc.cli loads
    raw = minimal_config(N=2000, acceptance={"k": 50}, validate={
        "mise": {"replicates": 2},
        "rates": {"Ns": [200, 400, 800], "replicates": 2},
        "prop1": {"runs": 1, "oracle_draws": 10},
        "bounds": {"pairs": [[999, 9]], "replicates": 1, "xi0": 1.0, "L": 1.0, "order": 4},
        "moments": {"phis": ["identity", "square", "one"], "replicates": 2},
    })
    assert _run_probe(tmp_path, probe, raw) == expected


def _run_probe(tmp_path, probe, raw):
    """The last stdout line, as JSON, of ``probe`` run in a fresh interpreter
    with the arguments (config path, output directory) for config ``raw``."""
    src = str(Path(knnabc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    result = subprocess.run([sys.executable, "-c", probe, str(config), str(tmp_path / "out")],
                            env=env, check=True, capture_output=True, text=True, timeout=120)
    return json.loads(result.stdout.splitlines()[-1])
