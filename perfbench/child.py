"""One workload repetition in a fresh interpreter.

    python3 perfbench/child.py SPEC.json

SPEC holds `steps` (CLI kinds with their config and output directory, or
direct calls into the public quad API), `trace` and `result`.  The child
times the supfield import, marks the end of set-up at the first call into
a unit of work (a batch stream or a quadrature), runs the steps and writes
timings, exit codes and, when traced, per-layer metrics to `result`.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

CLOCK = time.monotonic

# First calls that start real work: a Monte Carlo batch or a quadrature.
WORK_ENTRIES = (
    ("fieldsim", "batch_generator"),
    ("pickands", "batch_generator"),
    ("quad", "g_beta"),
    ("quad", "k_beta"),
    ("quad", "i_gamma"),
    ("quad", "j_lambda_ratio"),
)


def _mark_first_call(modules: dict, marks: list) -> None:
    for mod, attr in WORK_ENTRIES:
        orig = getattr(modules[mod], attr)

        def probe(*args, _orig=orig, **kwargs):
            if not marks:
                marks.append(CLOCK())
            return _orig(*args, **kwargs)

        setattr(modules[mod], attr, probe)


def _run_api(step: dict, quad, output) -> int:
    rows = [
        [name, " ".join(repr(a) for a in args), getattr(quad, name)(*args)]
        for name, args in step["calls"]
    ]
    output.write_csv(Path(step["out"]) / "api.csv", ["function", "args", "value"], rows)
    return 0


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    t0 = CLOCK()
    import supfield.cli as cli
    from supfield import fieldsim, output, pickands, quad

    import_s = CLOCK() - t0

    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer(CLOCK)
        tracing.instrument(tracer)
    marks: list[float] = []
    _mark_first_call({"fieldsim": fieldsim, "pickands": pickands, "quad": quad}, marks)

    codes = []
    for step in spec["steps"]:
        if step["kind"] == "api":
            codes.append(_run_api(step, quad, output))
        else:
            codes.append(
                cli.main([step["kind"], "--config", step["config"], "--out", step["out"]])
            )
    work_end = CLOCK()
    setup_end = marks[0] if marks else work_end

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "codes": codes,
        "import_s": import_s,
        "setup_end": setup_end,
        "work_end": work_end,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    if tracer is not None:
        layers = tracing.layer_metrics(tracer, setup_end, work_end)
        layers["cli.import_s"] = import_s
        result["layers"] = layers
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
