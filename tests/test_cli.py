"""Config validation, CLI round trips, atomic outputs, exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import knnabc
from knnabc import cli, fileio
from knnabc.cli import (EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, RunConfig,
                        serialize, validate_config)
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


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(run_configs())
    def test_serialize_validate_round_trip(self, config):
        assert validate_config(serialize(config)) == config


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

    def test_runtime_error_exit(self, tmp_path, capsys):
        # zero-width tolerance accepts nothing: a runtime failure, not a 0
        raw = minimal_config(N=100, acceptance={"epsilon": 0.0})
        code, _ = self._run(tmp_path, "estimate", raw)
        assert code == EXIT_RUNTIME
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "runtime"

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


class TestAtomicWrites:
    def test_failed_write_leaves_no_target(self, tmp_path, monkeypatch):
        target = tmp_path / "x.json"

        real_replace = os.replace

        def exploding_replace(src, dst):
            raise RuntimeError("interrupted")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(RuntimeError):
            fileio.write_json(target, {"a": 1})
        monkeypatch.setattr(os, "replace", real_replace)
        assert not target.exists()
        assert not list(tmp_path.glob("*.tmp"))

    def test_existing_target_unharmed_by_failed_overwrite(self, tmp_path, monkeypatch):
        target = tmp_path / "x.json"
        fileio.write_json(target, {"a": 1})
        before = target.read_bytes()

        def exploding_fsync(fd):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "fsync", exploding_fsync)
        with pytest.raises(OSError):
            fileio.write_json(target, {"a": 2})
        assert target.read_bytes() == before

    def test_json_handles_nonfinite_and_numpy(self, tmp_path):
        path = fileio.write_json(tmp_path / "y.json",
                                 {"inf": float("inf"), "arr": np.array([1.5, 2.5]),
                                  "i": np.int64(3)})
        back = json.loads(path.read_text())
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
        n = fileio._CSV_CHUNK_ROWS + 7            # crosses a chunk boundary
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


def test_cli_import_leaves_scipy_stats_unloaded():
    src = str(Path(knnabc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    probe = "import sys, knnabc.cli; print('scipy.stats' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                            capture_output=True, text=True, timeout=120)
    assert result.stdout.strip() == "False"
