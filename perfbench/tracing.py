"""In-memory spans around calls into the supfield layers, and the per-layer
metrics derived from them.

Spans are recorded from the benchmark's own files only: `instrument` replaces
public module and class attributes of `supfield` with wrappers that open a
span, call the original and close the span.  Wrappers return the original
results unchanged (the random generator is proxied, not replaced), so a
traced run writes the same CSV bytes as an untraced one.

A span's self time is its duration minus the part of that interval covered
by its direct child spans.
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict

import numpy as np

CLOCK = time.monotonic  # CLOCK_MONOTONIC: comparable across processes on Linux


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self, clock=CLOCK):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    def count(self, name: str, k: float = 1) -> None:
        self.counts[name] += k


def covered(intervals, lo: float = -math.inf, hi: float = math.inf) -> float:
    """Length of the union of (start, end) intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Per span: duration minus the union of its direct children's intervals."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    return [
        (end - start) - covered(children[i], start, end)
        for i, (name, start, end, parent) in enumerate(spans)
    ]


def _wrap(tr: Tracer, owner, attr: str, name, after=None) -> None:
    """Replace owner.attr by a spanned call; `name` may be a function of the args."""
    orig = getattr(owner, attr)

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        idx = tr.open(name(*args, **kwargs) if callable(name) else name)
        try:
            out = orig(*args, **kwargs)
        finally:
            tr.close(idx)
        if after is not None:
            after(out, *args, **kwargs)
        return out

    setattr(owner, attr, wrapper)


class _TimedGenerator:
    """Forwards to a numpy Generator, spanning and counting normal draws."""

    def __init__(self, gen, tr: Tracer):
        self._gen = gen
        self._tr = tr

    def standard_normal(self, *args, **kwargs):
        idx = self._tr.open("streams.draw")
        try:
            out = self._gen.standard_normal(*args, **kwargs)
        finally:
            self._tr.close(idx)
        self._tr.count("streams.normals", np.size(out))
        return out

    def __getattr__(self, attr):
        return getattr(self._gen, attr)


def _i_gamma_span(spec, *args, **kwargs) -> str:
    half = spec.beta / 2.0
    if math.isclose(spec.a, half, rel_tol=1e-12, abs_tol=0.0):
        return "quad.i_gamma.critical"
    return "quad.i_gamma.log" if spec.a < half else "quad.i_gamma.classical"


def instrument(tr: Tracer) -> None:
    """Span every layer boundary the six CLI kinds cross."""
    from supfield import asymptotics, cli, fieldsim, output, pickands, quad

    orig_generator = fieldsim.batch_generator

    def traced_generator(*args, **kwargs):
        idx = tr.open("streams.batch_generator")
        try:
            gen = orig_generator(*args, **kwargs)
        finally:
            tr.close(idx)
        return _TimedGenerator(gen, tr)

    fieldsim.batch_generator = traced_generator
    pickands.batch_generator = traced_generator

    def maxima_work(out, field, rng, n, trend):
        # two Kronecker factor products, the sigma scaling and the max, from shapes
        n1, n2 = len(field.xs), len(field.ys)
        cells = n1 * n * n2
        extra = cells if tuple(trend) != (0.0, 0.0) else 0
        tr.count("fieldsim.flop", 2 * cells * (n1 + n2) + 2 * cells + extra)
        # g read; a1, a2 and the scaled field each written once and read once
        tr.count("fieldsim.bytes", 8 * (7 * cells + n1 * n1 + n2 * n2 + n1 * n2))

    def maxima_hits(out, *args, **kwargs):
        tr.count("fieldsim.samples", len(out))
        tr.count("fieldsim.hits_u3", int((out > 3.0).sum()))
        tr.count("fieldsim.hits_u4", int((out > 4.0).sum()))

    def path_points(out, sampler, rng, n_paths):
        tr.count("pickands.path_points", n_paths * sampler.n_points)

    _wrap(tr, fieldsim.LatticeField, "__init__", "fieldsim.build")
    _wrap(tr, fieldsim.LatticeField, "maxima_batch", "fieldsim.maxima_batch", maxima_work)
    _wrap(tr, fieldsim, "excursion_maxima", "fieldsim.excursion_maxima", maxima_hits)
    _wrap(tr, fieldsim, "ratio_harness", "fieldsim.ratio_harness")
    _wrap(tr, fieldsim, "mc_block_exceedance", "fieldsim.block_exceedance")
    _wrap(tr, fieldsim, "pickands_finite_cached", "fieldsim.block_h")

    _wrap(tr, pickands._PathSampler, "__init__", "pickands.sampler_build")
    _wrap(tr, pickands._PathSampler, "sample", "pickands.sample", path_points)
    _wrap(tr, pickands, "pickands_constant", "pickands.estimator")
    _wrap(tr, pickands, "pickands_finite", "pickands.estimator")

    _wrap(tr, quad, "g_beta", "quad.g_beta")
    _wrap(tr, quad, "k_beta", "quad.k_beta")
    _wrap(tr, quad, "trend_l", "quad.trend")
    _wrap(tr, quad, "trend_k", "quad.trend")
    _wrap(tr, quad, "i_gamma", _i_gamma_span)
    _wrap(tr, quad, "i_gamma_asymptote", "quad.asymptote")
    _wrap(tr, quad, "j_lambda_ratio", "quad.j_lambda")
    _wrap(tr, quad, "inner_a", "quad.inner_a")

    _wrap(tr, asymptotics, "predict", "asymptotics.predict")
    _wrap(tr, asymptotics, "regime_sweep", "asymptotics.sweep")

    _wrap(tr, cli, "load_config", "config.load")
    for owner, attr in (
        (cli, "write_csv"),
        (cli, "write_json"),
        (cli, "line_plot"),
        (output, "write_csv"),
        (output.Manifest, "write"),
    ):
        _wrap(tr, owner, attr, "output.write")


def layer_metrics(tr: Tracer, setup_end: float, work_end: float) -> dict[str, float]:
    """Per-layer metrics of one traced child run."""
    selfs = self_times(tr.spans)
    total = defaultdict(float)
    self_total = defaultdict(float)
    calls = defaultdict(int)
    for (name, start, end, _), own in zip(tr.spans, selfs):
        total[name] += end - start
        self_total[name] += own
        calls[name] += 1
    c = tr.counts

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return num / den * scale if den > 0 else 0.0

    top = [(s[1], s[2]) for s in tr.spans if s[3] is None]
    return {
        "streams.draw_s": total["streams.draw"],
        "streams.normals": c["streams.normals"],
        "streams.batches": calls["streams.batch_generator"],
        "streams.ns_per_normal": ratio(total["streams.draw"], c["streams.normals"], 1e9),
        "fieldsim.build_s": total["fieldsim.build"],
        "fieldsim.maxima_self_s": self_total["fieldsim.maxima_batch"],
        "fieldsim.flop": c["fieldsim.flop"],
        "fieldsim.bytes": c["fieldsim.bytes"],
        "fieldsim.flop_per_byte": ratio(c["fieldsim.flop"], c["fieldsim.bytes"]),
        "fieldsim.gflop_per_s": ratio(
            c["fieldsim.flop"], self_total["fieldsim.maxima_batch"], 1e-9
        ),
        "fieldsim.hit_rate_u3": ratio(c["fieldsim.hits_u3"], c["fieldsim.samples"]),
        "fieldsim.hit_rate_u4": ratio(c["fieldsim.hits_u4"], c["fieldsim.samples"]),
        "fieldsim.block_h_s": total["fieldsim.block_h"],
        "pickands.sampler_build_s": total["pickands.sampler_build"],
        "pickands.path_self_s": self_total["pickands.sample"],
        "pickands.reduce_s": self_total["pickands.estimator"],
        "pickands.path_points": c["pickands.path_points"],
        "pickands.ns_per_path_point": ratio(
            total["pickands.sample"], c["pickands.path_points"], 1e9
        ),
        "quad.k_beta_s": total["quad.k_beta"],
        "quad.k_beta_calls": calls["quad.k_beta"],
        "quad.g_beta_calls": calls["quad.g_beta"],
        "quad.i_gamma.classical_s": total["quad.i_gamma.classical"],
        "quad.i_gamma.critical_s": total["quad.i_gamma.critical"],
        "quad.i_gamma.log_s": total["quad.i_gamma.log"],
        "quad.j_lambda_s": total["quad.j_lambda"],
        "quad.inner_a_calls": calls["quad.inner_a"],
        "asymptotics.predict_s": total["asymptotics.predict"],
        "asymptotics.predict_calls": calls["asymptotics.predict"],
        "config.load_s": total["config.load"],
        "output.write_s": total["output.write"],
        "trace.coverage": ratio(covered(top, setup_end, work_end), work_end - setup_end),
    }
