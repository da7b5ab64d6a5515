"""Layered benchmark of the supfield CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each repetition of a workload is a fresh
child interpreter (`child.py`) that runs the workload's CLI kinds with
`workers: 1` and one BLAS thread.  Repetitions run until `--seconds` is
spent (at least three; rep i uses seed 1000*N + i), and every timing is the
median over repetitions.  Estimates are pooled over repetitions for the
correctness checks and the work-normalised variances.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced repetitions on the same seeds, checks that both write the same
result files (sha256), and prints the per-layer metrics (medians over the
traced repetitions) with the tracing overhead.  `--workload all` runs every
workload in turn.  The last line of output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = ROOT / ".perfbench"
CLOCK = time.monotonic

# One BLAS/OpenMP thread for every child: the box has two shared cores, and
# OpenBLAS's per-core pool would otherwise make the numbers measure the scheduler.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

MIN_REPS = 3
MIN_TRACED_PAIRS = 2
CHILD_TIMEOUT_S = 150
MIN_COVERAGE = 0.9

WORKLOADS = json.loads((BENCH / "workloads.json").read_text())
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def _scaled(config: dict, scale: float) -> dict:
    """Config with its Monte Carlo sample counts multiplied by `scale`."""
    if scale == 1.0:
        return config
    cfg = json.loads(json.dumps(config))

    def shrink(n: int) -> int:
        return max(256, int(n * scale))

    if "n_samples" in cfg:
        cfg["n_samples"] = shrink(cfg["n_samples"])
    if "blocks" in cfg:
        cfg["blocks"]["n_samples"] = [shrink(n) for n in cfg["blocks"]["n_samples"]]
        cfg["blocks"]["h_replicates"] = shrink(cfg["blocks"]["h_replicates"])
    if "pickands" in cfg:
        cfg["pickands"]["n_replicates"] = shrink(cfg["pickands"]["n_replicates"])
    return cfg


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(rep_dir: Path, steps: list, seed: int, trace: bool, scale: float = 1.0) -> dict:
    """Run one repetition; returns wall/cpu/setup timings and the child's report."""
    rep_dir.mkdir(parents=True)
    child_steps = []
    for step in steps:
        out = rep_dir / step["kind"]
        entry = {"kind": step["kind"], "out": str(out)}
        if step["kind"] == "api":
            entry["calls"] = step["calls"]
        else:
            cfg = dict(_scaled(step["config"], scale), seed=seed, out=str(out))
            cfg_path = rep_dir / f"{step['kind']}.json"  # JSON is valid YAML
            cfg_path.write_text(json.dumps(cfg))
            entry["config"] = str(cfg_path)
        child_steps.append(entry)
    spec = {"steps": child_steps, "trace": trace, "result": str(rep_dir / "child.json")}
    (rep_dir / "spec.json").write_text(json.dumps(spec))

    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    with open(rep_dir / "stdout.txt", "wb") as so, open(rep_dir / "stderr.txt", "wb") as se:
        t0 = CLOCK()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), str(rep_dir / "spec.json")],
            stdout=so, stderr=se, env=_child_env(), cwd=str(rep_dir),
        )
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            code = proc.wait()
        wall = CLOCK() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    rep = {
        "dir": rep_dir,
        "ok": False,
        "wall_s": wall,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
    }
    result_path = rep_dir / "child.json"
    if code != 0 or not result_path.is_file():
        return rep
    child = json.loads(result_path.read_text())
    rep.update(child)
    rep["ok"] = all(c == 0 for c in child["codes"])
    rep["setup_s"] = child["setup_end"] - t0
    rep["work_s"] = child["work_end"] - child["setup_end"]
    return rep


def result_digest(rep_dir: Path) -> str:
    """sha256 over every CSV and JSON report the CLI kinds wrote."""
    h = hashlib.sha256()
    for path in sorted(rep_dir.glob("*/*")):
        if path.suffix in (".csv", ".json"):
            h.update(path.relative_to(rep_dir).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _config(rep: dict, kind: str) -> dict:
    return json.loads((Path(rep["dir"]) / f"{kind}.json").read_text())


def _field_samples(cfg: dict) -> int:
    return cfg["blocks"]["n_samples"][0] if "blocks" in cfg else cfg["n_samples"]


def _units(workload: dict, rep: dict) -> float:
    """Work units of one repetition: field samples, fBm paths or result rows."""
    kind = workload["units"]
    if kind == "rows":
        return float(sum(len(_csv_rows(p)) for p in Path(rep["dir"]).glob("*/*.csv")))
    cfg = _config(rep, workload["steps"][0]["kind"])
    if kind == "paths":
        return float(cfg["pickands"]["n_replicates"])
    return float(_field_samples(cfg))


def _pooled_exceedance(reps: list, file: str, u: float) -> tuple[int, int]:
    """(exceedances, samples) at level u, summed over repetitions."""
    hits = total = 0
    for rep in reps:
        n = _field_samples(_config(rep, file.split("/")[0]))
        row = next(r for r in _csv_rows(Path(rep["dir"]) / file) if float(r["u"]) == u)
        hits += round(float(row["p_hat"]) * n)
        total += n
    return hits, total


def _pooled_slope(reps: list, file: str) -> tuple[float, float]:
    """(slope, standard error) of the replicate-weighted mean slope."""
    reports = [json.loads((Path(rep["dir"]) / file).read_text()) for rep in reps]
    n = sum(r["n_replicates"] for r in reports)
    slope = sum(r["slope_estimate"] * r["n_replicates"] for r in reports) / n
    var = sum((r["slope_std_err"] * r["n_replicates"] / n) ** 2 for r in reports)
    return slope, math.sqrt(var)


def _rel_se2(hits: int, total: int) -> float:
    if hits == 0:
        return 0.0  # no exceedance seen: the variance is not estimable
    p = hits / total
    return (1.0 - p) / (total * p)


def wnv_metrics(name: str, reps: list) -> dict:
    """Work-normalised variances: relative SE^2 of the pooled estimate x CPU-seconds."""
    out = {"wnv_u2.5": 0.0, "wnv_u3": 0.0, "wnv_u4": 0.0, "pickands_wnv": 0.0}
    cpu = sum(r["cpu_s"] for r in reps)
    if name == "mc_classical":
        for u in (2.5, 3.0, 4.0):
            out[f"wnv_u{u:g}"] = _rel_se2(*_pooled_exceedance(reps, "mc/mc.csv", u)) * cpu
    elif name == "blocks_corner":
        out["wnv_u3"] = _rel_se2(*_pooled_exceedance(reps, "blocks/blocks.csv", 3.0)) * cpu
    elif name == "pickands_h1":
        out["pickands_wnv"] = _pooled_slope(reps, "pickands/pickands.json")[1] ** 2 * cpu
    return out


def _quad_checks(rep_dir: Path) -> list:
    checks = []
    const = json.loads((rep_dir / "constants" / "constants.json").read_text())
    g2 = math.sqrt(math.pi) / 2.0
    k2 = math.pi / (3.0 * math.sqrt(3.0))
    checks.append(("G_2 = sqrt(pi)/2 to 1e-9", abs(const["G_beta"] - g2) <= 1e-9))
    checks.append(("K_2 = pi/(3 sqrt 3) to 1e-8", abs(const["K_beta"] - k2) <= 1e-8))
    for row in _csv_rows(rep_dir / "integrals" / "integrals_log.csv"):
        u = float(row["u"])
        if u >= 1e3:
            ok = abs(float(row["ratio"]) - 1.0) <= 8.0 / math.log(u)
            checks.append((f"log-branch ratio at u={u:g} within 8/log u", ok))
    api = _csv_rows(rep_dir / "api" / "api.csv")
    j8 = float(next(r for r in api if r["function"] == "j_lambda_ratio"
                    and float(r["args"].split()[0]) == 1e8)["value"])
    checks.append(("J ratio at lambda=1e8 in [0.80, 1.05]", 0.80 <= j8 <= 1.05))
    for r in api:
        if r["function"] == "inner_a":
            z = float(r["args"])
            checks.append((f"|A(Z) + log Z| <= 5 at Z={z:g}",
                           abs(float(r["value"]) + math.log(z)) <= 5.0))
    return checks


def _output_checks(name: str, good: list) -> list:
    check = WORKLOADS[name]["check"]
    if check["kind"] == "reference":
        ref = json.loads((BENCH / "reference.json").read_text())[name]
        hits, total = _pooled_exceedance(good, check["file"], check["u"])
        p = hits / total
        joint = math.hypot(math.sqrt(p * (1.0 - p) / total), ref["std_err"])
        return [(
            f"pooled p_hat({check['u']:g}) = {p:.6g} within {check['n_se']:g} joint SE "
            f"({joint:.3g}) of reference {ref['p_hat']:.6g}",
            abs(p - ref["p_hat"]) <= check["n_se"] * joint,
        )]
    if check["kind"] == "pickands":
        slope, se = _pooled_slope(good, check["file"])
        return [(
            f"pooled slope {slope:.4f} within {check['n_se']:g} SE ({se:.4f}) "
            f"of H_1 = {check['truth']:g}",
            abs(slope - check["truth"]) <= check["n_se"] * se,
        )]
    return [c for rep in good for c in _quad_checks(Path(rep["dir"]))]


def workload_checks(name: str, reps: list) -> list:
    """(description, passed) for every correctness check of a set of repetitions."""
    checks = [(f"rep {Path(r['dir']).name} exits 0", r["ok"]) for r in reps]
    good = [r for r in reps if r["ok"]]
    if good:
        try:
            checks += _output_checks(name, good)
        except (OSError, KeyError, ValueError, StopIteration) as exc:
            checks.append((f"result files readable ({exc!r})", False))
    return checks


def _median(reps: list, key: str) -> float:
    return statistics.median(r[key] for r in reps)


def _repeat(seconds: float, min_reps: int, one) -> None:
    """Call one(i) for i = 0, 1, ... while the next call should fit in `seconds`."""
    start = CLOCK()
    i = 0
    last = 0.0
    while i < min_reps or (CLOCK() - start) + last <= seconds:
        t = CLOCK()
        one(i)
        last = CLOCK() - t
        i += 1


def run_workload(
    name: str, seed: int, seconds: float, trace: bool,
    scale: float = 1.0, min_reps: int | None = None,
) -> dict:
    """Run one workload; returns the result object, the checks and the report lines."""
    workload = WORKLOADS[name]
    run_dir = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_child(run_dir / "warmup", [], 0, False)  # page cache and bytecode, not measured

    plain, traced = [], []

    def one(i: int) -> None:
        child_seed = 1000 * seed + i
        plain.append(run_child(run_dir / f"rep{i}", workload["steps"], child_seed, False, scale))
        if trace:
            traced.append(
                run_child(run_dir / f"rep{i}-traced", workload["steps"], child_seed, True, scale)
            )

    if min_reps is None:
        min_reps = MIN_TRACED_PAIRS if trace else MIN_REPS
    _repeat(seconds, min_reps, one)

    checks = workload_checks(name, plain)
    good = [r for r in plain if r["ok"]]
    metrics: dict[str, float] = {}
    if any(not ok for _, ok in checks):
        good = []  # outputs may be missing or unreadable: report no metrics
    if not trace and good:
        metrics = {
            "setup_s": _median(good, "setup_s"),
            "wall_s": _median(good, "wall_s"),
            "cpu_s": _median(good, "cpu_s"),
            "peak_rss_mb": _median(good, "peak_rss_mb"),
            "units_per_s": statistics.median(_units(workload, r) / r["work_s"] for r in good),
        }
    if trace:
        checks += [(f"rep {Path(r['dir']).name} exits 0", r["ok"]) for r in traced]
        for p, t in zip(plain, traced):
            if p["ok"] and t["ok"]:
                checks.append((
                    f"{Path(t['dir']).name} result files match untraced by sha256",
                    result_digest(Path(p["dir"])) == result_digest(Path(t["dir"])),
                ))
                checks.append((
                    f"{Path(t['dir']).name} top-level spans cover "
                    f"{t['layers']['trace.coverage']:.3f} >= {MIN_COVERAGE} of post-setup wall",
                    t["layers"]["trace.coverage"] >= MIN_COVERAGE,
                ))
        good_traced = [r for r in traced if r["ok"]]
        if good and good_traced:
            for key in good_traced[0]["layers"]:
                metrics[key] = statistics.median(r["layers"][key] for r in good_traced)
            metrics["trace.overhead_s"] = (
                _median(good_traced, "wall_s") - _median(good, "wall_s"))
            metrics.update(wnv_metrics(name, good))

    failed = sum(1 for _, ok in checks if not ok)
    lines = [f"perfbench {name}: seed={seed} trace={int(trace)} reps={len(plain)}"
             f" ({len(good)} ok) why: {workload['why']}"]
    lines += [f"  {key:<28} {value:>16.6g} {UNITS[key]}" for key, value in metrics.items()]
    lines.append(f"  {'fail_frac':<28} {failed / max(1, len(checks)):>16.6g}"
                 f" ({failed}/{len(checks)})")
    lines += [f"  FAILED: {desc}" for desc, ok in checks if not ok]
    shutil.rmtree(run_dir, ignore_errors=True)
    return {
        "result": {
            "correct": failed == 0 and bool(metrics),
            "attempted": max(1, len(checks)),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
        },
        "checks": checks,
        "lines": lines,
    }


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def machine_info() -> dict:
    import numpy
    import scipy

    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": "unknown",
        "caches": {},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {},
        "child_thread_env": THREAD_ENV,
        "workers": 1,
        "git_commit": _git_commit(),
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            info["caches"][f"L{level} {kind}"] = (idx / "size").read_text().strip()
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    return info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "supfield" / "cli.py").is_file():
        print(f"error: no supfield sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    machine = machine_info()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        run = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(run["lines"]), flush=True)
        results[name] = run["result"]
    OUT.mkdir(exist_ok=True)
    record = {"machine": machine, "args": vars(args), "results": results}
    (OUT / f"last-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print("machine: " + json.dumps(machine))

    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0  # a failed check is reported through "correct", not the exit code


if __name__ == "__main__":
    sys.exit(main())
