#!/usr/bin/env python3
"""Run the full desk-scale verification sequence into results/.

Chains the six CLI experiments with the shipped configs: constants,
integral asymptotics, the regime sweep, the Pickands estimate, and the two
excursion Monte Carlo studies.  The Monte Carlo steps dominate (~15 min on
one core); pass --quick to run everything at toy sizes as a smoke check.
"""

import argparse
import sys
from pathlib import Path

from supfield.cli import main as cli_main

ROOT = Path(__file__).resolve().parents[1]

STEPS = [
    ("constants", "constants.yaml"),
    ("integrals", "integrals.yaml"),
    ("sweep", "sweep.yaml"),
    ("pickands", "pickands.yaml"),
    ("mc", "mc_classical.yaml"),
    ("mc", "mc_side.yaml"),
    ("blocks", "blocks.yaml"),
]

def run(out_root: Path, quick: bool) -> int:
    import yaml

    for kind, cfg_name in STEPS:
        cfg_path = ROOT / "configs" / cfg_name
        label = cfg_name.removesuffix(".yaml")
        out = out_root / label
        args = [kind, "--config", str(cfg_path), "--out", str(out)]
        if quick:
            # shrink the expensive knobs, keep everything else from the config
            cfg = yaml.safe_load(cfg_path.read_text())
            cfg["n_samples"] = min(int(cfg.get("n_samples", 20000)), 20000)
            if "pickands" in cfg:
                cfg["pickands"]["n_replicates"] = 20000
            if "blocks" in cfg:
                cfg["blocks"]["n_samples"] = [20000] * len(cfg["blocks"]["u_values"])
                cfg["blocks"]["h_replicates"] = 20000
            tmp = out_root / f"_quick_{cfg_name}"
            tmp.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(yaml.safe_dump(cfg))
            args = [kind, "--config", str(tmp), "--out", str(out)]
        print(f"== supfield {' '.join(args)}")
        code = cli_main(args)
        if code != 0:
            print(f"step {label} failed with exit code {code}", file=sys.stderr)
            return code
    print(f"\nall steps complete; results under {out_root}")
    return 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=ROOT / "results")
    ap.add_argument("--quick", action="store_true", help="toy sizes, ~1 min total")
    ns = ap.parse_args()
    sys.exit(run(ns.out, ns.quick))
