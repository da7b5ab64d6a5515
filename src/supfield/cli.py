"""Experiment command line.

    supfield <kind> --config cfg.yaml [--seed N] [--workers N] [--out DIR]

with kind one of: constants | integrals | pickands | mc | blocks | sweep.
The kind comes only from the subcommand; the config file has no kind key.

Every run writes its outputs plus a MANIFEST into the output directory: one
YAML mapping of kind, library version, seed, status, wall time, the outputs
written so far and the config, which loads back as a config that reruns the
run.  Reruns with identical config, seed and BLAS thread count produce
byte-identical CSV bodies.  The quadratures run at the tolerances of
`quad.DEFAULT_CONFIG`.  A config that fails to load exits 2 and writes
nothing, and so does a run whose model its config does not fit: no known
Pickands constant and no h_alpha (mc, sweep), a trended model or a block
outside [0, T]^2 (blocks), or a side grid at T < 0.25 (mc); a u_ladder
level must exceed 1.  Once it has loaded, every way a run ends writes the
MANIFEST: OK (exit 0), or INCOMPLETE and the reason for a ValueError (exit
2) or a ConvergenceError (exit 1); any other exception propagates after the
MANIFEST records "INCOMPLETE: run not finished".

The library imports scipy on first use.  Right after the config loads, a
run imports the scipy modules its work will call, so the import is part of
its set-up: constants, integrals and sweep load scipy.special and
scipy.integrate, mc scipy.special (its prediction, if it integrates, imports
scipy.integrate before the first draw), pickands and blocks none.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import __version__, asymptotics, fieldsim, pickands, quad
from .config import ConfigError, ExperimentConfig, load_config
from .model import ModelParams, classify_regime
from .output import Manifest, write_csv, write_json
from .svgplot import line_plot

__all__ = ["main"]


def _build_field(cfg: ExperimentConfig, params: ModelParams) -> fieldsim.LatticeField:
    g = cfg.grid
    if g.kind == "side":
        axis = fieldsim.side_emphasis_axis(params)
        return fieldsim.build_lattice(params, xs=axis, ys=axis.copy())
    return fieldsim.build_lattice(params, n_per_axis=g.n_per_axis)


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
    k_b = quad.k_beta(params.beta)
    untrended_k2 = (params.beta, params.c1, params.c2) == (2.0, 0.0, 0.0)  # K(0, 0) is K_2
    report = {
        "alpha": params.alpha,
        "beta": params.beta,
        "a": params.a,
        "c1": params.c1,
        "c2": params.c2,
        "G_beta": quad.g_beta(params.beta),
        "K_beta": k_b,
        "L_c1": quad.trend_l(params.c1),
        "L_c2": quad.trend_l(params.c2),
        "K_c1_c2": k_b if untrended_k2 else quad.trend_k(params.c1, params.c2),
        "a0": params.a0,
        "regime": str(classify_regime(params)),
    }
    write_json(out / "constants.json", report)
    manifest.add_output("constants.json")
    _print_table(["quantity", "value"], [[k, v] for k, v in report.items()])


def run_integrals(cfg: ExperimentConfig, out: Path, manifest: Manifest) -> None:
    params = cfg.model
    for branch, label in zip(cfg.integrals, cfg.integral_labels()):
        rows = []
        asymptote = None
        for u in cfg.u_ladder:
            spec = quad.IntegralSpec(
                branch.gamma, params.beta, branch.a, branch.delta, u, params.c1, params.c2
            )
            val = quad.i_gamma(spec)
            if asymptote is None:  # its prefactor does not depend on u
                asymptote = quad.i_gamma_asymptote(spec)
            asym = asymptote.evaluate(u)
            rows.append([u, val, asym, fieldsim.ratio_to_prediction(val, asym)])
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
    )
    rows = [[r.u, r.p_hat, r.std_err, r.prediction, r.ratio] for r in rows_obj]
    print(f"grid: {field.describe()}  samples: {cfg.n_samples}")
    _write_table(out, manifest, "mc.csv", ["u", "p_hat", "std_err", "prediction", "ratio"], rows)


def run_blocks(cfg: ExperimentConfig, out: Path, manifest: Manifest) -> None:
    params = cfg.model
    b = cfg.blocks
    rows = []
    for spec, n in zip(b.specs(), b.n_samples):
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
        ratio = fieldsim.ratio_to_prediction(est.p_hat, res.prediction)
        rows.append([spec.level_u, est.p_hat, est.std_err, res.prediction, ratio, res.h1, res.h2])
    header = ["u", "p_hat", "std_err", "prediction", "ratio", "H_S1", "H_S2"]
    _write_table(out, manifest, "blocks.csv", header, rows)


def run_sweep(cfg: ExperimentConfig, out: Path, manifest: Manifest) -> None:
    params = cfg.model
    s = cfg.sweep
    a_values = list(np.linspace(s.a_min, s.a_max, s.n_points))
    boundaries = sorted({params.a0, params.beta / 2.0})
    a_values = sorted(set(a_values) | set(boundaries))
    rows_obj = asymptotics.regime_sweep(params, a_values, cfg.h_alpha)
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
# Kinds whose work integrates load scipy before it starts, so the import is
# set-up; a kind that gains a quadrature belongs here.
_INTEGRATING_KINDS = ("constants", "integrals", "sweep")


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
        if args.kind in ("mc", "sweep"):  # their predictions need the Pickands constant
            asymptotics.lookup_h(cfg.model.alpha, cfg.h_alpha)
        if args.kind == "blocks":  # no trend, and containment in [0, T]^2
            for spec in cfg.blocks.specs():
                spec.bounds(cfg.model)
        if args.kind == "mc" and cfg.grid.kind == "side":  # needs T >= its strip width
            fieldsim.side_emphasis_axis(cfg.model)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.kind in (*_INTEGRATING_KINDS, "mc"):  # mc's prediction loads scipy.integrate
        quad.load_scipy(integrate=args.kind in _INTEGRATING_KINDS)
    out = Path(cfg.out)
    manifest = Manifest(out, args.kind, dataclasses.asdict(cfg), __version__)
    status = "INCOMPLETE: run not finished"
    try:
        _RUNNERS[args.kind](cfg, out, manifest)
        status = "OK"
        return 0
    except ValueError as exc:
        status = f"INCOMPLETE: {exc}"
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except quad.ConvergenceError as exc:
        status = f"INCOMPLETE: quadrature did not converge: {exc}"
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        manifest.write(status)


if __name__ == "__main__":
    sys.exit(main())
