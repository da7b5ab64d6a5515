import json

import pytest
import yaml

from supfield.asymptotics import predict
from supfield.cli import main
from supfield.config import ConfigError, ExperimentConfig, config_to_dict, load_config
from supfield.model import ModelParams
from supfield.quad import QuadratureConfig


def write_cfg(tmp_path, text, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfig:
    def test_defaults_load_without_file(self):
        cfg = load_config(None)
        assert cfg.model == ModelParams(1.0, 2.0, 2.0)
        assert cfg.quad == QuadratureConfig()

    def test_partial_section_keeps_other_defaults(self, tmp_path):
        path = write_cfg(tmp_path, "model: {a: 0.4}\npickands: {s_ladder: [1.0, 2.0]}\n")
        cfg = load_config(path)
        assert cfg.model == ModelParams(1.0, 2.0, 0.4)
        assert cfg.pickands.s_ladder == (1.0, 2.0)

    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "bogus_key: 3\n")
        with pytest.raises(ConfigError, match="bogus_key"):
            load_config(path)

    def test_unknown_nested_key_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "model:\n  alpha: 1.0\n  alpa: 2.0\n")
        with pytest.raises(ConfigError, match="alpa"):
            load_config(path)

    def test_invalid_u_ladder_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "u_ladder: [3.0, 2.0]\n")
        with pytest.raises(ConfigError, match="u_ladder"):
            load_config(path)

    def test_overrides_apply(self, tmp_path):
        path = write_cfg(tmp_path, "seed: 1\n")
        cfg = load_config(path, {"seed": 99, "workers": 3, "out": None})
        assert (cfg.seed, cfg.workers, cfg.out) == (99, 3, "results")

    def test_mistyped_override_rejected(self):
        with pytest.raises(ConfigError, match="config.seed"):
            load_config(None, {"seed": "7"})

    def test_zero_samples_rejected(self):
        cfg = ExperimentConfig(n_samples=0)
        with pytest.raises(ConfigError, match="n_samples"):
            cfg.validate()

    @pytest.mark.parametrize(
        "text,key",
        [
            ("quad: {abs_tol: 1e-12}\n", "config.quad.abs_tol"),  # YAML reads a string
            ("n_samples: 1e5\n", "config.n_samples"),
            ("seed: 1.5\n", "config.seed"),
            ("kind: mc\n", "unknown keys ['kind']"),  # the subcommand is the kind
            ("u_ladder: [2.0, 1e3]\n", "config.u_ladder[1]"),
            ("quad: {tail_cut_tol: 2.0}\n", "config.quad: tail_cut_tol must be in (0, 1)"),
        ],
        ids=[
            "string-float",
            "string-int",
            "float-int",
            "kind-key",
            "string-list-item",
            "tail-cut-above-one",
        ],
    )
    def test_wrong_value_exits_2_naming_the_key(self, tmp_path, capsys, text, key):
        cfg = write_cfg(tmp_path, text)
        assert main(["constants", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert key in err
        assert ("write 1.0e-12" in err) == ("1e" in text)

    def test_manifest_echo_reloads_to_the_same_config(self, tmp_path):
        path = write_cfg(
            tmp_path,
            "model: {alpha: 1, beta: 2, a: 0.4, c2: 1.5}\n"
            "h_alpha: 1.37\n"
            "quad: {abs_tol: 1.0e-11}\n"
            "pickands: {s_ladder: [1.0, 3.0], sampler: cholesky}\n"
            "integrals: [{a: 0.7, label: x}]\n",
        )
        echo = yaml.safe_dump(config_to_dict(load_config(path)), sort_keys=True)
        again = load_config(write_cfg(tmp_path, echo, "echo.yaml"))
        assert yaml.safe_dump(config_to_dict(again), sort_keys=True) == echo


class TestConstantsCommand:
    def test_report_values(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "model: {alpha: 1.0, beta: 2.0, a: 1.0}\n")
        out = tmp_path / "out"
        assert main(["constants", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "constants.json").read_text())
        assert report["G_beta"] == pytest.approx(0.8862269, abs=1e-6)
        assert report["K_beta"] == pytest.approx(0.6045998, abs=1e-6)
        assert report["K_c1_c2"] == report["K_beta"]  # zero trend coincides
        assert report["a0"] == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert report["regime"] == "CriticalProduct"
        assert (out / "MANIFEST").exists()
        assert "G_beta" in capsys.readouterr().out

    def test_invalid_model_is_validation_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "model: {alpha: 1.0, beta: 0.5, a: 1.0}\n")
        code = main(["constants", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "beta" in capsys.readouterr().err


class TestMcCommand:
    CFG = (
        "model: {alpha: 1.0, beta: 2.0, a: 2.0}\n"
        "u_ladder: [2.0, 2.5]\n"
        "n_samples: 4000\n"
        "grid: {n_per_axis: 16}\n"
        "seed: 7\n"
    )

    def test_runs_and_writes_csv(self, tmp_path):
        cfg = write_cfg(tmp_path, self.CFG)
        out = tmp_path / "out"
        assert main(["mc", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "mc.csv").read_bytes().split(b"\r\n")
        assert lines[0] == b"u,p_hat,std_err,prediction,ratio"
        assert lines[1].startswith(b"2,")
        assert lines[2].startswith(b"2.5,")

    def test_zero_samples_exits_nonzero(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, self.CFG.replace("n_samples: 4000", "n_samples: 0"))
        assert main(["mc", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_prediction_uses_the_quad_section(self, tmp_path):
        text = (
            "model: {alpha: 1, beta: 2, a: 1}\n"
            "u_ladder: [2.0]\n"
            "n_samples: 1000\n"
            "grid: {n_per_axis: 8}\n"
            "quad: {abs_tol: 1.0e-3, rel_tol: 1.0e-3, tail_cut_tol: 1.0e-3}\n"
        )
        out = tmp_path / "out"
        assert main(["mc", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 0
        row = (out / "mc.csv").read_text().splitlines()[1].split(",")
        qc = QuadratureConfig(abs_tol=1e-3, rel_tol=1e-3, tail_cut_tol=1e-3)
        expected = predict(ModelParams(1.0, 2.0, 1.0), None, qc).evaluate(2.0)
        assert float(row[3]) == expected == pytest.approx(0.05500911349494461, rel=1e-15)

    def test_invalid_quad_section_fails_at_load(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, self.CFG + "quad: {rel_tol: -1.0}\n")
        assert main(["mc", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "tolerances must be nonnegative" in capsys.readouterr().err

    def test_byte_identical_reruns_across_workers(self, tmp_path):
        cfg = write_cfg(tmp_path, self.CFG)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["mc", "--config", cfg, "--out", str(out1), "--workers", "1"]) == 0
        assert main(["mc", "--config", cfg, "--out", str(out2), "--workers", "3"]) == 0
        assert (out1 / "mc.csv").read_bytes() == (out2 / "mc.csv").read_bytes()


class TestIntegralsCommand:
    def test_u_column_echoed_and_branch_files(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "u_ladder: [3.0, 7.5]\n"
            "integrals:\n"
            "  - {gamma: 1.0, a: 2.0, delta: 1.0, label: classical}\n"
            "  - {gamma: 1.0, a: 1.0, delta: 1.0, label: critical}\n",
        )
        out = tmp_path / "out"
        assert main(["integrals", "--config", cfg, "--out", str(out)]) == 0
        body = (out / "integrals_classical.csv").read_bytes().decode()
        rows = body.strip().split("\r\n")
        assert rows[1].split(",")[0] == "3"
        assert rows[2].split(",")[0] == "7.5"
        assert (out / "integrals_critical.csv").exists()


class TestPickandsCommand:
    def test_small_run_report(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "seed: 5\n"
            "pickands: {s_ladder: [1.0, 2.0], n_replicates: 4000}\n",
        )
        out = tmp_path / "out"
        assert main(["pickands", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "pickands.json").read_text())
        assert report["slope_estimate"] > 0
        assert report["n_replicates"] == 4000
        assert (out / "pickands.csv").exists()


class TestBlocksCommand:
    def test_small_run(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "model: {alpha: 1.0, beta: 2.0, a: 1.0}\n"
            "seed: 5\n"
            "blocks:\n"
            "  u_values: [3.0]\n"
            "  n_samples: [4000]\n"
            "  n_grid: 12\n"
            "  h_replicates: 4000\n",
        )
        out = tmp_path / "out"
        assert main(["blocks", "--config", cfg, "--out", str(out)]) == 0
        body = (out / "blocks.csv").read_text()
        assert body.startswith("u,p_hat,std_err,prediction,ratio,H_S1,H_S2")


class TestSweepCommand:
    def test_writes_csv_and_svg_with_markers(self, tmp_path):
        cfg = write_cfg(tmp_path, "sweep: {a_min: 0.4, a_max: 1.4, n_points: 11, u: 8.0}\n")
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        svg = (out / "sweep.svg").read_text()
        assert "a0" in svg and "beta/2" in svg
        body = (out / "sweep.csv").read_text()
        # boundary rows are always included
        assert f"{2.0 / 3.0:.17g}" in body
        assert "1,CriticalProduct" in body

    def test_manifest_records_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, "sweep: {a_min: 0.5, a_max: 1.2, n_points: 5, u: 8.0}\n")
        out = tmp_path / "out"
        main(["sweep", "--config", cfg, "--out", str(out)])
        manifest = (out / "MANIFEST").read_text()
        assert "status: OK" in manifest
        assert "sweep.csv" in manifest and "sweep.svg" in manifest
        assert "library_version" in manifest
