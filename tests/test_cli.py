import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import supfield
from supfield import cli, quad, streams
from supfield.asymptotics import predict
from supfield.cli import main
from supfield.config import ConfigError, ExperimentConfig, IntegralBranch, load_config
from supfield.model import ModelParams
from supfield.output import write_csv


def write_cfg(tmp_path, text, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfig:
    def test_defaults_load_without_file(self):
        cfg = load_config(None)
        assert cfg == ExperimentConfig()
        assert cfg.model == ModelParams(1.0, 2.0, 2.0)

    def test_partial_section_keeps_other_defaults(self, tmp_path):
        path = write_cfg(tmp_path, "model: {a: 0.4}\npickands: {s_ladder: [1.0, 2.0]}\n")
        cfg = load_config(path)
        assert cfg.model == ModelParams(1.0, 2.0, 0.4)
        assert cfg.pickands.s_ladder == (1.0, 2.0)

    @pytest.mark.parametrize("text", ["", "model:\n"], ids=["empty-file", "empty-section"])
    def test_empty_file_or_section_keeps_the_defaults(self, tmp_path, text):
        assert load_config(write_cfg(tmp_path, text)) == ExperimentConfig()

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
        with pytest.raises(ConfigError, match="n_samples"):
            ExperimentConfig(n_samples=0)

    @pytest.mark.parametrize(
        "path", sorted((Path(__file__).parents[1] / "configs").glob("*.yaml")), ids=lambda p: p.name
    )
    def test_shipped_config_loads(self, path):
        assert isinstance(load_config(path), ExperimentConfig)

    @pytest.mark.parametrize("kind", ["constants", "mc", "blocks", "integrals", "sweep"])
    @pytest.mark.parametrize(
        "text,message",
        [
            ("grid: {kind: hexagon}\n", "config.grid: unknown grid kind 'hexagon'"),
            (
                "blocks: {u_values: [3.0, 4.0], n_samples: [1000]}\n",
                "config.blocks: n_samples must hold one count per u_values level",
            ),
            (
                "pickands: {s_ladder: [1.0, 3.14159], spacing_factor: 0.3}\n",
                "config.pickands: s_ladder rungs share no grid",
            ),
            ("grid: {n_per_axis: 1}\n", "config.grid: n_per_axis must be at least 2"),
            ("blocks: {s1: -1.0}\n", "config.blocks: side multipliers s1, s2 must be"),
            ("blocks: {s1: 0.0, s2: 0.0}\n", "config.blocks: side multipliers s1, s2 must be"),
            (
                "integrals: [{gamma: 1.0, a: 2.0}, {gamma: -1.0, a: 1.0}]\n",
                "config.integrals[1]: gamma must be positive",
            ),
            ("sweep: {n_points: 0}\n", "config.sweep: n_points must be at least 1"),
            ("sweep: {a_min: 1.5, a_max: 0.3}\n", "config.sweep: need 0 < a_min <= a_max"),
            ("u_ladder: []\n", "config.u_ladder: must hold at least one level"),
            ("u_ladder: [-1.0, 2.0]\n", "config.u_ladder: levels must exceed 1, got -1.0"),
            (
                "integrals: [{a: 2.0, label: x}, {a: 0.8, label: x}]\n",
                "config.integrals: labels must be unique; repeated: ['x']",
            ),
            ("blocks: {h_replicates: 0}\n", "config.blocks: h_replicates must be at least 2, got 0"),
            ("blocks: {h_replicates: 1}\n", "config.blocks: h_replicates must be at least 2, got 1"),
            ("blocks: {u_values: []}\n", "config.blocks: u_values must hold at least one level"),
            (
                "blocks: {u_values: [-3.0], n_samples: [1000]}\n",
                "config.blocks: level u must be positive, got -3.0",
            ),
            ("blocks: {n_grid: 0}\n", "config.blocks: n_grid must be at least 2, got 0"),
            (
                "blocks: {u_values: [3.0], n_samples: [0]}\n",
                "config.blocks: n_samples must be at least 1, got 0",
            ),
            ("blocks: {v1: -0.5}\n", "config.blocks: block base v1, v2 must be nonnegative"),
            (
                "pickands: {sampler: spectral, n_replicates: 100}\n",
                "config.pickands: unknown sampler 'spectral'",
            ),
            ("u_ladder: [2.0, .inf]\n", "config.u_ladder: levels must be finite, got [2.0, inf]"),
            ("u_ladder: [.nan]\n", "config.u_ladder: levels must be finite, got [nan]"),
            (
                "blocks: {u_values: [.inf], n_samples: [1000]}\n",
                "config.blocks: level u must be finite, got inf",
            ),
            ("sweep: {u: .inf}\n", "config.sweep: u must be finite, got inf"),
            ("quad: {abs_tol: .nan}\n", "config: unknown keys ['quad']"),  # no quad section
            ("quad: {rel_tol: .inf}\n", "config: unknown keys ['quad']"),
            (
                "integrals: [{gamma: .inf}]\n",
                "config.integrals[0]: gamma must be positive and finite, got inf",
            ),
            ("sweep: {a_max: .inf}\n", "config.sweep: a_max must be finite, got inf"),
            ("h_alpha: -1.0\n", "config.h_alpha: must be positive and finite, got -1.0"),
            ("h_alpha: .inf\n", "config.h_alpha: must be positive and finite, got inf"),
            ("blocks: {s1: .nan}\n", "config.blocks: block base and sides must be finite"),
            (
                "pickands: {s_ladder: [1.0, .inf]}\n",
                "config.pickands: s_ladder entries must be positive and finite, got (1.0, inf)",
            ),
            ("pickands: {sampler: brownian}\n", "config.pickands: unknown sampler 'brownian'"),
            ("u_ladder: [1.0]\n", "config.u_ladder: levels must exceed 1, got 1.0"),
            ("workers: 0\n", "config.workers: must be at least 1"),
            ("batch_size: 0\n", "config.batch_size: must be at least 1"),
            ("u_ladder: 2.0\n", "config.u_ladder: expected a list, got 2.0"),
            ("model: 3\n", "config.model: expected a mapping, got int"),
            ("- seed: 1\n", "cfg.yaml: top level must be a mapping"),
        ],
        ids=[
            "grid-kind",
            "blocks-n-samples",
            "off-grid-ladder",
            "grid-one-point",
            "blocks-negative-side",
            "blocks-zero-sides",
            "integrals-negative-gamma",
            "sweep-no-points",
            "sweep-reversed-range",
            "u-ladder-empty",
            "u-ladder-nonpositive",
            "integrals-repeated-label",
            "blocks-no-h-replicates",
            "blocks-one-h-replicate",
            "blocks-no-levels",
            "blocks-negative-level",
            "blocks-no-grid",
            "blocks-no-samples",
            "blocks-negative-base",
            "pickands-unknown-sampler",
            "u-ladder-inf",
            "u-ladder-nan",
            "blocks-inf-level",
            "sweep-inf-level",
            "quad-nan-abs-tol",
            "quad-inf-rel-tol",
            "integrals-inf-gamma",
            "sweep-inf-a-max",
            "h-alpha-negative",
            "h-alpha-inf",
            "blocks-nan-side",
            "pickands-inf-rung",
            "pickands-brownian-sampler",
            "u-ladder-one",
            "no-workers",
            "zero-batch",
            "u-ladder-scalar",
            "model-not-mapping",
            "top-level-list",
        ],
    )
    def test_bad_section_fails_at_load(self, tmp_path, capsys, kind, text, message):
        out = tmp_path / "o"
        assert main([kind, "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()  # no MANIFEST: the run never started

    @pytest.mark.parametrize(
        "text,key",
        [
            ("model: {a: 1e-1}\n", "config.model.a"),  # YAML reads a string
            ("n_samples: 1e5\n", "config.n_samples"),
            ("seed: 1.5\n", "config.seed"),
            ("kind: mc\n", "unknown keys ['kind']"),  # the subcommand is the kind
            ("u_ladder: [2.0, 1e3]\n", "config.u_ladder[1]"),
            ("u_ladder: [1.0e3]\n", "config.u_ladder[0]"),  # a dot but no exponent sign
        ],
        ids=[
            "string-float",
            "string-int",
            "float-int",
            "kind-key",
            "string-list-item",
            "unsigned-exponent",
        ],
    )
    def test_wrong_value_exits_2_naming_the_key(self, tmp_path, capsys, text, key):
        cfg = write_cfg(tmp_path, text)
        assert main(["constants", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert key in err
        hint = "a YAML float needs a dot and a signed exponent: write 1.0e+3, not 1e3 or 1.0e3"
        assert (hint in err) == bool(re.search(r"[0-9]e", text))  # YAML read a string

    def test_unlabelled_branch_is_named_by_its_index(self):
        cfg = ExperimentConfig(integrals=[IntegralBranch(label="classical"), IntegralBranch()])
        assert cfg.integral_labels() == ["classical", "branch1"]
        with pytest.raises(ConfigError, match=r"repeated: \['branch1'\]"):
            ExperimentConfig(integrals=[IntegralBranch(label="branch1"), IntegralBranch()])

    def test_manifest_echo_reloads_to_the_same_config(self, tmp_path, monkeypatch):
        path = write_cfg(
            tmp_path,
            "model: {alpha: 1, beta: 2, a: 0.4, c2: 1.5}\n"
            "h_alpha: 1.37\n"
            "pickands: {s_ladder: [1.0, 3.0], sampler: cholesky}\n"
            "integrals: [{a: 0.7, label: x}]\n",
        )
        monkeypatch.setitem(cli._RUNNERS, "pickands", lambda *args: None)
        out = tmp_path / "o"
        assert main(["pickands", "--config", path, "--out", str(out), "--seed", "9"]) == 0
        echo = yaml.safe_load((out / "MANIFEST").read_text())["config"]
        again = load_config(write_cfg(tmp_path, yaml.safe_dump(echo), "echo.yaml"))
        assert again == load_config(path, {"out": str(out), "seed": 9})
        assert yaml.safe_dump(dataclasses.asdict(again)) == yaml.safe_dump(echo)


class TestPickandsConstantAtLoad:
    """mc and sweep need H for their alpha: without one they exit 2 before writing anything."""

    @pytest.mark.parametrize("kind", ["mc", "sweep"])
    def test_unknown_h_exits_2_with_no_output(self, tmp_path, capsys, kind):
        cfg = write_cfg(tmp_path, "model: {alpha: 1.4}\n")
        out = tmp_path / "o"
        assert main([kind, "--config", cfg, "--out", str(out)]) == 2
        assert "no known Pickands constant for alpha=1.4" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["mc", "sweep"])
    def test_explicit_h_runs(self, tmp_path, kind):
        cfg = write_cfg(
            tmp_path,
            "model: {alpha: 1.4}\nh_alpha: 1.37\nn_samples: 1000\ngrid: {n_per_axis: 8}\n"
            "sweep: {n_points: 5}\n",
        )
        out = tmp_path / "o"
        assert main([kind, "--config", cfg, "--out", str(out)]) == 0
        assert read_manifest(out)["status"] == "OK"


class TestModelChecksAtLoad:
    """A run that its model or its levels make impossible exits 2 before writing anything."""

    @pytest.mark.parametrize(
        "kind,text,message",
        [
            (
                "blocks",
                "blocks: {v1: 0.9, u_values: [3.0], n_samples: [1000]}\n",
                "not contained in [0,1.0]^2",
            ),
            ("mc", "model: {T: 0.2}\ngrid: {kind: side}\n", "side grids need T >= 0.25"),
            (
                "blocks",
                "model: {c1: 0.5}\nblocks: {u_values: [3.0], n_samples: [1000]}\n",
                "block exceedance has no trend term; got c1 = 0.5, c2 = 0.0",
            ),
            (
                "pickands",
                "model: {alpha: 1.4}\npickands: {sampler: brownian}\n",
                "config.pickands: unknown sampler 'brownian'",
            ),
            (
                "mc",
                "model: {a: 0.8}\nu_ladder: [0.5, 2.0]\n",
                "config.u_ladder: levels must exceed 1, got 0.5",
            ),
            (
                "integrals",
                "u_ladder: [1.0]\nintegrals: [{a: 0.8, label: log}]\n",
                "config.u_ladder: levels must exceed 1, got 1.0",
            ),
        ],
        ids=[
            "blocks-outside-square",
            "mc-side-grid-short-T",
            "blocks-trended",
            "pickands-brownian-off-alpha-1",
            "mc-level-below-1",
            "integrals-level-1",
        ],
    )
    def test_exits_2_with_no_output(self, tmp_path, capsys, kind, text, message):
        out = tmp_path / "o"
        assert main([kind, "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestConstantsCommand:
    def test_report_values(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "model: {alpha: 1.0, beta: 2.0, a: 1.0}\n")
        out = tmp_path / "out"
        assert main(["constants", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "constants.json").read_text())
        assert report["G_beta"] == pytest.approx(0.8862269, abs=1e-6)
        assert report["K_beta"] == pytest.approx(0.6045998, abs=1e-6)
        assert report["K_c1_c2"] == report["K_beta"]  # zero trend coincides
        assert report["a0"] == pytest.approx(2.0 / 3.0, rel=1e-12, abs=0.0)
        assert report["regime"] == "CriticalProduct"
        assert (out / "MANIFEST").exists()
        assert "G_beta" in capsys.readouterr().out

    def test_invalid_model_is_validation_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "model: {alpha: 1.0, beta: 0.5, a: 1.0}\n")
        code = main(["constants", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "beta" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["constants", "integrals", "pickands", "mc", "blocks", "sweep"])
    def test_trend_off_beta_two_fails_at_load(self, tmp_path, capsys, kind):
        # the trend constants L(c), K(c1, c2) exist for beta = 2 only
        cfg = write_cfg(tmp_path, "model: {alpha: 1.0, beta: 2.5, a: 1.0, c1: 1.0, c2: 1.0}\n")
        out = tmp_path / "o"
        assert main([kind, "--config", cfg, "--out", str(out)]) == 2
        assert "config.model: a nonzero trend requires beta = 2" in capsys.readouterr().err
        assert not out.exists()


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

    def test_prediction_column_is_predict_bit_for_bit(self, tmp_path):
        # critical regime: the column goes through the K_beta quadrature
        text = (
            "model: {alpha: 1, beta: 2, a: 1}\n"
            "u_ladder: [2.0, 3.5]\n"
            "n_samples: 1000\n"
            "grid: {n_per_axis: 8}\n"
        )
        out = tmp_path / "out"
        assert main(["mc", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 0
        rows = (out / "mc.csv").read_text().splitlines()[1:]
        pred = predict(ModelParams(1.0, 2.0, 1.0))
        assert [float(r.split(",")[3]) for r in rows] == [pred.evaluate(2.0), pred.evaluate(3.5)]

    def test_level_beyond_float_range_predicts_0(self, tmp_path):
        # u^theta overflows at u = 1e200, the prediction with Psi(u) does not
        text = "u_ladder: [2.0, 1.0e+200]\nn_samples: 1000\ngrid: {n_per_axis: 8}\n"
        out, single = tmp_path / "out", tmp_path / "single"
        assert main(["mc", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 0
        rows = (out / "mc.csv").read_bytes().split(b"\r\n")
        assert rows[2].split(b",")[3:] == [b"0", b"inf"]
        one = write_cfg(tmp_path, text.replace(", 1.0e+200", ""), "single.yaml")
        assert main(["mc", "--config", one, "--out", str(single)]) == 0
        assert rows[1] == (single / "mc.csv").read_bytes().split(b"\r\n")[1]

    def test_invalid_quad_section_fails_at_load(self, tmp_path, capsys):
        # the CLI integrates at quad.DEFAULT_CONFIG: even valid tolerances are refused
        cfg = write_cfg(tmp_path, self.CFG + "quad: {abs_tol: 1.0e-11}\n")
        out = tmp_path / "o"
        assert main(["mc", "--config", cfg, "--out", str(out)]) == 2
        assert "config: unknown keys ['quad']" in capsys.readouterr().err
        assert not out.exists()

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

    def test_level_beyond_float_range_ratio_is_inf(self, tmp_path):
        # at u = 1e200 the quadrature and the asymptote both underflow to 0 on
        # every branch; the ratio is inf, as in mc where the prediction is 0
        cfg = write_cfg(tmp_path, "u_ladder: [1.0e+200]\n")
        out = tmp_path / "out"
        assert main(["integrals", "--config", cfg, "--out", str(out)]) == 0
        for label in ("classical", "critical", "log"):
            rows = (out / f"integrals_{label}.csv").read_bytes().split(b"\r\n")
            assert rows[1].split(b",")[1:] == [b"0", b"0", b"inf"]

    def test_trended_model_integrates_the_trend(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "model: {alpha: 1.0, beta: 2.0, a: 1.0, c1: 1.0, c2: 0.5}\n"
            "u_ladder: [3.0, 7.5]\n"
            "integrals: [{gamma: 1.0, a: 2.0, delta: 1.0, label: classical}]\n",
        )
        out = tmp_path / "out"
        assert main(["integrals", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "integrals_classical.csv").read_text().strip().splitlines()[1:]
        for row, u in zip(rows, (3.0, 7.5)):
            trended = quad.i_gamma(quad.IntegralSpec(1.0, 2.0, 2.0, 1.0, u, 1.0, 0.5))
            plain = quad.i_gamma(quad.IntegralSpec(1.0, 2.0, 2.0, 1.0, u))
            assert float(row.split(",")[1]) == trended
            assert trended < plain


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

    def test_trended_model_exits_2(self, tmp_path, capsys):
        # refused at load by BlockSpec.bounds: no output directory, no MANIFEST
        cfg = write_cfg(
            tmp_path,
            "model: {alpha: 1.0, beta: 2.0, a: 1.0, c1: 5.0, c2: 5.0}\n"
            "blocks: {u_values: [3.0], n_samples: [400], n_grid: 4, h_replicates: 400}\n",
        )
        out = tmp_path / "out"
        assert main(["blocks", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "block exceedance has no trend term; got c1 = 5.0, c2 = 5.0" in err
        assert not out.exists()


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

    def test_level_beyond_float_range_runs(self, tmp_path):
        cfg = write_cfg(tmp_path, "sweep: {u: 1.0e+200}\n")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 0

    def test_manifest_records_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, "sweep: {a_min: 0.5, a_max: 1.2, n_points: 5, u: 8.0}\n")
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        manifest = read_manifest(out)
        assert manifest["status"] == "OK"
        assert manifest["outputs"] == ["sweep.csv", "sweep.svg"]
        assert manifest["library_version"] == supfield.__version__
        assert (manifest["kind"], manifest["seed"]) == ("sweep", 12345)
        assert manifest["wall_time_s"] >= 0


def read_manifest(out: Path) -> dict:
    """The parsed MANIFEST of a run, which lists exactly the files the run wrote."""
    manifest = yaml.safe_load((out / "MANIFEST").read_text())
    written = sorted(p.name for p in out.iterdir() if p.name != "MANIFEST")
    assert sorted(manifest["outputs"]) == written
    return manifest


class TestManifestOnEveryExit:
    """However a run ends once its config has loaded, it leaves a MANIFEST that parses."""

    def test_convergence_error_exits_1_listing_the_outputs_written(self, tmp_path, monkeypatch):
        monkeypatch.setattr(quad, "MAX_SUBDIVISIONS", 1)
        out = tmp_path / "out"
        assert main(["integrals", "--out", str(out)]) == 1
        manifest = read_manifest(out)
        assert manifest["status"].startswith("INCOMPLETE: quadrature did not converge: ")
        assert len(manifest["outputs"]) < 3  # one CSV per branch that converged

    def test_memory_refusal_exits_2(self, tmp_path, monkeypatch):
        # two block buffers of 16 B x 64 x 64 points x 63 samples = 4.13 MB per batch,
        # over a 4 MB budget
        monkeypatch.setattr(streams, "memory_budget", lambda: 4 * 10 ** 6)
        cfg = write_cfg(tmp_path, "grid: {n_per_axis: 64}\nn_samples: 4096\n")
        out = tmp_path / "out"
        assert main(["mc", "--config", cfg, "--out", str(out)]) == 2
        assert "more than half of physical memory" in read_manifest(out)["status"]

    def test_lattice_set_up_refusal_exits_2(self, tmp_path, monkeypatch):
        # the 200 x 200 set-up needs 2.56 MB, over a 1 MB budget
        monkeypatch.setattr(streams, "memory_budget", lambda: 10 ** 6)
        cfg = write_cfg(tmp_path, "grid: {n_per_axis: 200}\nn_samples: 10\n")
        out = tmp_path / "out"
        assert main(["mc", "--config", cfg, "--out", str(out)]) == 2
        status = read_manifest(out)["status"]
        assert status.startswith("INCOMPLETE: lattice 200x200 set-up needs 0.00256 GB")
        assert "more than half of physical memory" in status

    def test_block_h_factor_refusal_exits_2(self, tmp_path, monkeypatch):
        # the 32 x 1 lattice's 2048-sample batch is one block of 1024 draws,
        # 16 B x 32 x 1024 + 8 B x 2048 = 0.54 MB, and passes beside its 8.5 kB of
        # factors; its H factor's batch, a 0.52 MB chunk of 1024 paths and 72 B of
        # maxima per replicate = 0.67 MB, does not
        monkeypatch.setattr(streams, "memory_budget", lambda: 600_000)
        cfg = write_cfg(
            tmp_path,
            "blocks: {s2: 0.0, u_values: [3.0], n_samples: [4096], n_grid: 32, "
            "h_replicates: 4096}\n",
        )
        out = tmp_path / "out"
        assert main(["blocks", "--config", cfg, "--out", str(out)]) == 2
        status = read_manifest(out)["status"]
        assert status.startswith("INCOMPLETE: the brownian sampler at alpha=1.0 on 32 grid")
        assert "more than half of physical memory" in status
        assert not (out / "blocks.csv").exists()

    @pytest.mark.parametrize("exc", [MemoryError, KeyboardInterrupt])
    def test_other_exceptions_propagate(self, tmp_path, monkeypatch, exc):
        def runner(cfg, out, manifest):
            write_csv(out / "part.csv", ["x"], [[1.0]])
            manifest.add_output("part.csv")
            raise exc

        monkeypatch.setitem(cli._RUNNERS, "sweep", runner)
        out = tmp_path / "out"
        with pytest.raises(exc):
            main(["sweep", "--out", str(out)])
        manifest = read_manifest(out)
        assert manifest["status"] == "INCOMPLETE: run not finished"
        assert manifest["outputs"] == ["part.csv"]


def run_fresh(code: str, cwd: Path) -> list:
    """Run `code` in a fresh interpreter; its last output line is a JSON list, returned here."""
    env = dict(os.environ, PYTHONPATH=str(Path(supfield.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=cwd, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


LOADED_SCIPY = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"
# mc models by regime: every prediction calls scipy.special, none scipy.integrate
MC_MODELS = [
    "",  # the default model is classical: G_beta^2
    "model: {a: 0.5}\n",  # side: 2 G_beta
    "model: {a: 0.8}\n",  # log: a closed-form prefactor
    "model: {a: 1.0}\n",  # critical: K_beta
    "model: {c1: 0.5}\n",  # classical with a trend: L(c1) L(c2)
]
MC_IDS = ["mc", "mc-side", "mc-log", "mc-critical", "mc-trend"]
MC_KINDS = {
    "pickands": "seed: 4242\npickands: {s_ladder: [1.0, 2.0], n_replicates: 6000}\n",
    "blocks": (
        "seed: 4242\n"
        "model: {alpha: 1.0, beta: 2.0, a: 2.0}\n"
        "blocks: {u_values: [3.0], n_samples: [6000], n_grid: 12, h_replicates: 4000}\n"
    ),
}


class TestScipyImport:
    """A run loads scipy.special if its work calls it, during set-up, and no run loads
    scipy.integrate: the quadratures are numpy."""

    def test_package_import_leaves_scipy_unloaded(self, tmp_path):
        code = f"import json, sys\nimport supfield, supfield.cli\nprint(json.dumps({LOADED_SCIPY}))"
        assert run_fresh(code, tmp_path) == []

    @pytest.mark.parametrize("kind,text", MC_KINDS.items(), ids=MC_KINDS.keys())
    def test_monte_carlo_kinds_run_without_scipy(self, tmp_path, kind, text):
        cfg = write_cfg(tmp_path, text)
        code = (
            "import json, sys\n"
            "from supfield.cli import main\n"
            f"code = main([{kind!r}, '--config', {cfg!r}, '--out', 'out'])\n"
            f"print(json.dumps([code, {LOADED_SCIPY}]))"
        )
        assert run_fresh(code, tmp_path) == [0, []]

    @pytest.mark.parametrize(
        "kind,model",
        [*((kind, "") for kind in ("constants", "integrals", "sweep")),
         *(("mc", model) for model in MC_MODELS)],
        ids=["constants", "integrals", "sweep", *MC_IDS],
    )
    def test_integrating_kinds_load_scipy_before_their_runner(self, tmp_path, kind, model):
        cfg = write_cfg(tmp_path, model)
        code = (
            "import json, sys\n"
            "from supfield import cli\n"
            "seen = []\n"
            f"cli._RUNNERS[{kind!r}] = lambda *args: seen.extend("
            "m in sys.modules for m in ('scipy.special', 'scipy.integrate'))\n"
            f"code = cli.main([{kind!r}, '--config', {cfg!r}, '--out', 'out'])\n"
            "print(json.dumps([code, seen]))"
        )
        assert run_fresh(code, tmp_path) == [0, [True, False]]

    def test_no_kind_loads_scipy_integrate(self, tmp_path):
        # the six kinds, mc in each regime and with a trend, in one interpreter
        runs = [(k, write_cfg(tmp_path, text, f"{k}.yaml")) for k, text in MC_KINDS.items()]
        empty = write_cfg(tmp_path, "", "empty.yaml")
        runs += [(kind, empty) for kind in ("constants", "integrals", "sweep")]
        mc = "n_samples: 100\ngrid: {n_per_axis: 4}\n"
        runs += [("mc", write_cfg(tmp_path, model + mc, f"{i}.yaml"))
                 for i, model in zip(MC_IDS, MC_MODELS)]
        code = (
            "import json, sys\n"
            "from supfield.cli import main\n"
            "seen = []\n"
            f"for i, (kind, cfg) in enumerate({runs!r}):\n"
            "    code = main([kind, '--config', cfg, '--out', f'out{i}'])\n"
            "    seen.append([kind, code, 'scipy.integrate' in sys.modules])\n"
            "print(json.dumps(seen))"
        )
        assert run_fresh(code, tmp_path) == [[kind, 0, False] for kind, _ in runs]

    @pytest.mark.parametrize("model", MC_MODELS, ids=MC_IDS)
    def test_mc_prediction_loads_scipy_integrate_before_the_first_draw(self, tmp_path, model):
        # the prediction integrates with numpy, so no regime loads it by then
        cfg = write_cfg(tmp_path, model + "n_samples: 100\ngrid: {n_per_axis: 4}\n")
        code = (
            "import json, sys\n"
            "from supfield import cli, fieldsim\n"
            "seen = []\n"
            "draw = fieldsim.batch_generator\n"
            "def probe(seed, b):\n"
            "    seen.append('scipy.integrate' in sys.modules)\n"
            "    return draw(seed, b)\n"
            "fieldsim.batch_generator = probe\n"
            f"code = cli.main(['mc', '--config', {cfg!r}, '--out', 'out'])\n"
            "print(json.dumps([code, seen[:1]]))"
        )
        assert run_fresh(code, tmp_path) == [0, [False]]

    @pytest.mark.parametrize("trend", [0.0, 0.5], ids=["untrended", "trended"])
    @pytest.mark.parametrize(
        "a,regime",
        [
            (0.5, "SideDominated"),  # 2 G_beta, or L(c1) + L(c2)
            (0.8, "LogProduct"),  # a closed-form prefactor either way
            (1.0, "CriticalProduct"),  # K_beta, or K(c1, c2)
            (2.0, "Classical"),  # G_beta^2, or L(c1) L(c2)
        ],
        ids=["side", "log", "critical", "classical"],
    )
    def test_predict_loads_scipy_integrate_exactly_when_it_integrates(
        self, tmp_path, a, regime, trend
    ):
        # K_beta, K(c1, c2) and L(c) integrate with the numpy engine: scipy.integrate
        # stays unloaded whether the prediction integrates or not
        code = (
            "import json, sys\n"
            "from supfield.asymptotics import predict\n"
            "from supfield.model import ModelParams, classify_regime\n"
            f"p = ModelParams(1.0, 2.0, {a!r}, c1={trend!r})\n"
            "pred = predict(p)\n"
            "print(json.dumps([str(classify_regime(p)), 'scipy.integrate' in sys.modules]))"
        )
        assert run_fresh(code, tmp_path) == [regime, False]

    def test_classical_mc_run_ends_without_scipy_integrate(self, tmp_path):
        text = "n_samples: 2000\ngrid: {n_per_axis: 8}\nu_ladder: [2.0, 1.0e+200]\n"
        cfg = write_cfg(tmp_path, text)
        code = (
            "import json, sys\n"
            "from supfield.cli import main\n"
            f"code = main(['mc', '--config', {cfg!r}, '--out', 'out'])\n"
            f"print(json.dumps([code, {LOADED_SCIPY}]))"
        )
        code, loaded = run_fresh(code, tmp_path)
        assert code == 0 and "scipy.special" in loaded
        assert "scipy.integrate" not in loaded
