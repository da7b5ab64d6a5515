"""Experiment command line.

    supfield <kind> --config cfg.yaml [--seed N] [--workers N] [--out DIR]

with kind one of: constants | integrals | pickands | mc | blocks | sweep.
The kind comes only from the subcommand; the config file has no kind key.

Every run writes its outputs plus a MANIFEST (config echo, library version,
seed, wall time) into the output directory.  Reruns with identical config
and seed produce byte-identical CSV bodies.  Exit status is 0 only if every
requested computation converged; on failure, whatever completed is flushed
and the MANIFEST records the incompleteness.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__, asymptotics, fieldsim, pickands, quad
from .config import ConfigError, ExperimentConfig, config_to_dict, load_config
from .model import ModelParams, Point2, classify_regime
from .output import Manifest, write_csv, write_json
from .svgplot import line_plot

__all__ = ["main"]


def _build_field(cfg: ExperimentConfig, params: ModelParams) -> fieldsim.LatticeField:
    g = cfg.grid
    if g.kind == "square":
        return fieldsim.build_lattice(params, n_per_axis=g.n_per_axis)
    if g.kind == "side":
        axis = fieldsim.side_emphasis_axis(params, g.n_uniform, g.n_geo, g.width, g.inner)
        return fieldsim.build_lattice(params, xs=axis, ys=axis.copy())
    raise ConfigError(f"unknown grid kind {g.kind!r}; expected 'square' or 'side'")


def _print_table(header: list[str], rows: list[list]) -> None:
    cells = [header] + [[f"{v:.10g}" if isinstance(v, float) else str(v) for v in r] for r in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    for r in cells:
        print("  ".join(s.rjust(w) for s, w in zip(r, widths)))


def _write_table(
    out: Path, manifest: Manifest, name: str, header: list[str], rows: list[list]
) -> None:
    """Write rows as a CSV, record it in the manifest and print it."""
    write_csv(out / name, header, rows)
    manifest.add_output(name)
    _print_table(header, rows)


def run_constants(cfg: ExperimentConfig, out: Path, manifest: Manifest) -> None:
    params = cfg.model
    qc = cfg.quad
    report = {
        "alpha": params.alpha,
        "beta": params.beta,
        "a": params.a,
        "c1": params.c1,
        "c2": params.c2,
        "G_beta": quad.g_beta(params.beta, qc),
        "K_beta": quad.k_beta(params.beta, qc),
        "L_c1": quad.trend_l(params.c1, qc),
        "L_c2": quad.trend_l(params.c2, qc),
        "K_c1_c2": quad.trend_k(params.c1, params.c2, qc),
        "a0": params.a0,
        "regime": str(classify_regime(params)),
    }
    write_json(out / "constants.json", report)
    manifest.add_output("constants.json")
    _print_table(["quantity", "value"], [[k, v] for k, v in report.items()])


def run_integrals(cfg: ExperimentConfig, out: Path, manifest: Manifest) -> None:
    params = cfg.model
    qc = cfg.quad
    for i, branch in enumerate(cfg.integrals):
        label = branch.label or f"branch{i}"
        rows = []
        asymptote = None
        for u in cfg.u_ladder:
            spec = quad.IntegralSpec(
                gamma=branch.gamma, beta=params.beta, a=branch.a, delta=branch.delta, u=u
            )
            val = quad.i_gamma(spec, qc)
            if asymptote is None:  # its prefactor does not depend on u
                asymptote = quad.i_gamma_asymptote(spec, qc)
            asym = asymptote.evaluate(u)
            rows.append([u, val, asym, val / asym])
        print(f"[{label}] gamma={branch.gamma} a={branch.a} delta={branch.delta}")
        header = ["u", "I_quadrature", "I_asymptote", "ratio"]
        _write_table(out, manifest, f"integrals_{label}.csv", header, rows)


def run_pickands(cfg: ExperimentConfig, out: Path, manifest: Manifest) -> None:
    params = cfg.model
    est = pickands.pickands_constant(
        params.alpha, cfg.pickands, seed=cfg.seed, workers=cfg.workers
    )
    rows = [
        [s, v, se]
        for s, v, se in zip(est.rungs, est.rung_values, est.rung_std_errs)
    ]
    _write_table(out, manifest, "pickands.csv", ["S", "H_hat", "std_err"], rows)
    report = {
        "alpha": params.alpha,
        "slope_estimate": est.value,
        "slope_std_err": est.std_err,
        "naive_estimate": est.naive,
        "naive_std_err": est.naive_std_err,
        "n_replicates": est.n_replicates,
        "grid": est.grid,
        "seed": est.seed,
        "slope_naive_consistent": est.slope_naive_consistent,
    }
    write_json(out / "pickands.json", report)
    manifest.add_output("pickands.json")
    print(f"slope estimate: {est.value:.6f} +- {est.std_err:.6f}")
    print(f"naive H(S_max)/S_max: {est.naive:.6f} +- {est.naive_std_err:.6f}")


def run_mc(cfg: ExperimentConfig, out: Path, manifest: Manifest) -> None:
    params = cfg.model
    field = _build_field(cfg, params)
    rows_obj = fieldsim.ratio_harness(
        params,
        list(cfg.u_ladder),
        field,
        n_samples=cfg.n_samples,
        seed=cfg.seed,
        h_alpha=cfg.h_alpha,
        batch_size=cfg.batch_size,
        workers=cfg.workers,
        cfg=cfg.quad,
    )
    rows = [[r.u, r.p_hat, r.std_err, r.prediction, r.ratio] for r in rows_obj]
    print(f"grid: {field.describe()}  samples: {cfg.n_samples}")
    _write_table(out, manifest, "mc.csv", ["u", "p_hat", "std_err", "prediction", "ratio"], rows)


def run_blocks(cfg: ExperimentConfig, out: Path, manifest: Manifest) -> None:
    params = cfg.model
    b = cfg.blocks
    n_samples = list(b.n_samples)
    if len(n_samples) == 1:
        n_samples = n_samples * len(b.u_values)
    if len(n_samples) != len(b.u_values):
        raise ConfigError("blocks.n_samples must have length 1 or match u_values")
    rows = []
    for u, n in zip(b.u_values, n_samples):
        spec = fieldsim.BlockSpec(base=Point2(b.v1, b.v2), s1=b.s1, s2=b.s2, level_u=u)
        res = fieldsim.mc_block_exceedance(
            params,
            spec,
            n_samples=int(n),
            seed=cfg.seed,
            n_grid=b.n_grid,
            h_replicates=b.h_replicates,
            batch_size=cfg.batch_size,
            workers=cfg.workers,
        )
        est = res.estimate
        ratio = est.p_hat / res.prediction if res.prediction > 0 else float("inf")
        rows.append([u, est.p_hat, est.std_err, res.prediction, ratio, res.h1, res.h2])
    header = ["u", "p_hat", "std_err", "prediction", "ratio", "H_S1", "H_S2"]
    _write_table(out, manifest, "blocks.csv", header, rows)


def run_sweep(cfg: ExperimentConfig, out: Path, manifest: Manifest) -> None:
    params = cfg.model
    s = cfg.sweep
    a_values = list(np.linspace(s.a_min, s.a_max, s.n_points))
    boundaries = sorted({params.a0, params.beta / 2.0})
    a_values = sorted(set(a_values) | set(boundaries))
    rows_obj = asymptotics.regime_sweep(params, a_values, s.u, cfg.h_alpha, cfg.quad)
    rows = [
        [r.a, str(r.regime), r.u_power, r.log_power, r.prefactor] for r in rows_obj
    ]
    write_csv(out / "sweep.csv", ["a", "regime", "u_power", "log_power", "prefactor"], rows)
    manifest.add_output("sweep.csv")
    line_plot(
        out / "sweep.svg",
        series=[
            ("u_power", [r.a for r in rows_obj], [r.u_power for r in rows_obj]),
            ("log flag", [r.a for r in rows_obj], [float(r.log_power) for r in rows_obj]),
        ],
        title=f"order structure vs a (alpha={params.alpha:g}, beta={params.beta:g})",
        xlabel="a",
        ylabel="exponent of u / log flag",
        vlines=[(params.a0, "a0"), (params.beta / 2.0, "beta/2")],
    )
    manifest.add_output("sweep.svg")
    print(f"sweep rows: {len(rows)}  (boundaries a0={params.a0:g}, beta/2={params.beta / 2:g})")


_RUNNERS = {
    "constants": run_constants,
    "integrals": run_integrals,
    "pickands": run_pickands,
    "mc": run_mc,
    "blocks": run_blocks,
    "sweep": run_sweep,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="supfield",
        description="Gaussian field excursion experiments: constants, integral "
        "asymptotics, Pickands estimation, and Monte Carlo verification.",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in _RUNNERS:
        p = sub.add_parser(kind, help=f"run the {kind} experiment")
        p.add_argument("--config", type=str, default=None, help="YAML config file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--workers", type=int, default=None, help="override worker count")
        p.add_argument("--out", type=str, default=None, help="override output directory")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(
            args.config, overrides={"seed": args.seed, "workers": args.workers, "out": args.out}
        )
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out = Path(cfg.out)
    manifest = Manifest(out, args.kind, config_to_dict(cfg), __version__)
    try:
        _RUNNERS[args.kind](cfg, out, manifest)
    except (ConfigError, ValueError) as exc:
        manifest.fail(str(exc))
        manifest.write()
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except quad.ConvergenceError as exc:
        manifest.fail(f"quadrature did not converge: {exc}")
        manifest.write()
        print(f"error: {exc}", file=sys.stderr)
        return 1
    manifest.finish("OK")
    manifest.write()
    return 0


if __name__ == "__main__":
    sys.exit(main())
