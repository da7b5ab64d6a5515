import json

import pytest

from supfield.cli import main
from supfield.config import ConfigError, ExperimentConfig, load_config


def write_cfg(tmp_path, text, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfig:
    def test_defaults_load_without_file(self):
        cfg = load_config(None, {"kind": "constants"})
        assert cfg.kind == "constants"
        assert cfg.model.alpha == 1.0

    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "bogus_key: 3\n")
        with pytest.raises(ConfigError, match="bogus_key"):
            load_config(path, {"kind": "constants"})

    def test_unknown_nested_key_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "model:\n  alpha: 1.0\n  alpa: 2.0\n")
        with pytest.raises(ConfigError, match="alpa"):
            load_config(path, {"kind": "constants"})

    def test_invalid_u_ladder_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "u_ladder: [3.0, 2.0]\n")
        with pytest.raises(ConfigError, match="u_ladder"):
            load_config(path, {"kind": "mc"})

    def test_overrides_apply(self, tmp_path):
        path = write_cfg(tmp_path, "seed: 1\n")
        cfg = load_config(path, {"kind": "mc", "seed": 99, "workers": 3})
        assert (cfg.seed, cfg.workers) == (99, 3)

    def test_zero_samples_rejected(self):
        cfg = ExperimentConfig(kind="mc", n_samples=0)
        with pytest.raises(ConfigError, match="n_samples"):
            cfg.validate()


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
