"""Regenerate perfbench/reference.json, the estimates the Monte Carlo
workloads are checked against.

    python3 perfbench/reference.py

Each reference is one long run of the workload's CLI kind on a seed that no
benchmark repetition uses (rep i of seed N uses 1000*N + i, i < 1000 in
practice, so seed HELD_OUT_SEED would be rep 987).  A change that legitimately
alters the random stream stays within the check's joint standard errors;
a change that alters the law of the estimate does not.
"""

from __future__ import annotations

import json
import math
import shutil

import run

HELD_OUT_SEED = 987_654_321_987
SCALE = {"mc_classical": 48.0, "blocks_corner": 40.0}


def main() -> int:
    refs = {}
    for name, scale in SCALE.items():
        workload = run.WORKLOADS[name]
        check = workload["check"]
        rep_dir = run.OUT / f"reference-{name}"
        shutil.rmtree(rep_dir, ignore_errors=True)
        rep = run.run_child(rep_dir, workload["steps"], HELD_OUT_SEED, False, scale)
        if not rep["ok"]:
            raise SystemExit(f"{name}: reference run failed, see {rep_dir}")
        hits, total = run._pooled_exceedance([rep], check["file"], check["u"])
        p = hits / total
        refs[name] = {
            "u": check["u"],
            "p_hat": p,
            "std_err": math.sqrt(p * (1.0 - p) / total),
            "n_samples": total,
            "seed": HELD_OUT_SEED,
        }
        print(name, refs[name], f"wall {rep['wall_s']:.1f} s", flush=True)
        shutil.rmtree(rep_dir)
    (run.BENCH / "reference.json").write_text(json.dumps(refs, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
