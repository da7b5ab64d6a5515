import math
import time
import tracemalloc

import numpy as np
import pytest

from supfield import pickands, streams
from supfield.pickands import (
    MAX_PATH_POINTS,
    ExtrapolationProtocol,
    _ladder_sums,
    _PathSampler,
    pickands_constant,
    pickands_finite,
)
from supfield.streams import batch_generator, batch_sizes

from oracles import exact_h1, exact_h2, h2_grid_quadrature


class FirstBatch(Exception):
    """Raised in place of a run's first batch."""


def admitted(monkeypatch, alpha, proto, workers=1):
    """Assert that pickands_constant passes every sizing check: it reaches its
    first batch, where the run stops without drawing a path."""

    def first_batch(seed, b):
        raise FirstBatch

    monkeypatch.setattr(pickands, "batch_generator", first_batch)
    with pytest.raises(FirstBatch):
        pickands_constant(alpha, proto, workers=workers)


def empirical_paths(alpha, S, n_points, n_reps, seed, sampler="auto"):
    ps = _PathSampler(alpha, S, n_points, sampler)
    return ps.sample(batch_generator(seed, 0), n_reps)


class TestCholeskySampler:
    def test_increment_variance_reconstruction(self):
        ps = _PathSampler(alpha=1.4, horizon=2.0, n_points=65, sampler="cholesky")
        cov = ps.factor @ ps.factor.T
        t = np.linspace(0.0, 2.0, 65)[1:]
        for i in range(0, 64, 7):
            for j in range(0, 64, 11):
                var = cov[i, i] + cov[j, j] - 2.0 * cov[i, j]
                assert var == pytest.approx(abs(t[i] - t[j]) ** 1.4, abs=1e-8)

    def test_jitter_within_budget(self):
        ps = _PathSampler(alpha=0.8, horizon=1.0, n_points=129, sampler="cholesky")
        assert ps.jitter <= 1e-10

    def test_sample_starts_at_zero(self, rng):
        ps = _PathSampler(alpha=1.0, horizon=1.0, n_points=33, sampler="cholesky")
        assert np.all(ps.sample(rng, 5)[:, 0] == 0.0)


class TestSamplerValidation:
    # every sampler, and both estimators, reject impossible fBm grids up front
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: _PathSampler(2.5, 1.0, 8, "cholesky"), "alpha must be in"),
            (lambda: _PathSampler(1.0, 0.0, 8, "cholesky"), "horizon must be positive"),
            (lambda: _PathSampler(1.0, 1.0, 1, "cholesky"), "at least 2 grid points"),
            (lambda: _PathSampler(1.2, 0.0, 2000, "davies-harte"), "horizon must be positive"),
            (lambda: _PathSampler(1.0, 1.0, 1, "auto"), "at least 2 grid points"),
            (lambda: _PathSampler(1.0, 1.0, 8, "spectral"), "unknown sampler"),
            # auto is the brownian method at alpha = 1, the one alpha where it is exact
            (lambda: _PathSampler(1.0, 1.0, 8, "brownian"), "unknown sampler 'brownian'"),
            (lambda: pickands_finite(0.0, 1.0, 2000, 2000, seed=1), "alpha must be in"),
            (lambda: pickands_constant(0.0), "alpha must be in"),
        ],
        ids=[
            "cholesky-alpha",
            "cholesky-horizon",
            "cholesky-points",
            "davies-harte-horizon",
            "auto-points",
            "unknown-sampler",
            "brownian-is-unknown",
            "finite-alpha-zero",
            "constant-alpha-zero",
        ],
    )
    def test_rejects_invalid_grid(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()


class TestSamplerDistribution:
    @pytest.mark.parametrize("alpha,sampler", [(1.2, "cholesky"), (1.2, "davies-harte"),
                                               (0.6, "davies-harte"), (1.0, "auto")])
    def test_terminal_variance(self, alpha, sampler):
        S, n, reps = 2.0, 129, 60_000
        paths = empirical_paths(alpha, S, n, reps, seed=11, sampler=sampler)
        v = paths[:, -1].var()
        se = v * math.sqrt(2.0 / reps)  # Var of chi^2-based variance estimate
        assert abs(v - S ** alpha) <= 4.0 * se

    def test_brownian_covariance_is_min(self):
        paths = empirical_paths(1.0, 1.0, 65, 60_000, seed=3)
        t = np.linspace(0, 1, 65)
        i, j = 16, 48
        cov = np.mean(paths[:, i] * paths[:, j])
        se = math.sqrt(t[i] * t[j] * 2.0 / 60_000)  # crude Gaussian moment bound
        assert abs(cov - min(t[i], t[j])) <= 4.0 * se

    def test_increment_stationarity(self):
        alpha, reps = 1.3, 60_000
        paths = empirical_paths(alpha, 2.0, 129, reps, seed=5, sampler="davies-harte")
        t = np.linspace(0, 2, 129)
        h = 16  # lag in grid steps
        target = (t[h] - t[0]) ** alpha
        for start in (0, 40, 96):
            d = paths[:, start + h] - paths[:, start]
            v = d.var()
            assert abs(v - target) <= 4.0 * target * math.sqrt(2.0 / reps)

    def test_self_similarity_c2(self):
        # B(c t) / c^(alpha/2) has the law of B(t): compare variances on
        # matching grids for c = 2
        alpha, reps = 1.5, 60_000
        base = empirical_paths(alpha, 1.0, 65, reps, seed=7, sampler="cholesky")
        stretched = empirical_paths(alpha, 2.0, 65, reps, seed=8, sampler="cholesky")
        scaled = stretched / 2.0 ** (alpha / 2.0)
        for idx in (16, 32, 64):
            v1, v2 = base[:, idx].var(), scaled[:, idx].var()
            se = (v1 + v2) * math.sqrt(2.0 / reps)
            assert abs(v1 - v2) <= 4.0 * se

    def test_davies_harte_matches_cholesky_functional(self):
        alpha, S, n, reps = 1.2, 1.0, 129, 40_000
        drift = np.linspace(0, S, n) ** alpha
        vals = {}
        for sampler, seed in (("cholesky", 21), ("davies-harte", 22)):
            paths = empirical_paths(alpha, S, n, reps, seed, sampler)
            x = np.exp((math.sqrt(2.0) * paths - drift).max(axis=1))
            vals[sampler] = (x.mean(), x.std(ddof=1) / math.sqrt(reps))
        diff = abs(vals["cholesky"][0] - vals["davies-harte"][0])
        joint = math.hypot(vals["cholesky"][1], vals["davies-harte"][1])
        assert diff <= 4.0 * joint

    @pytest.mark.parametrize("n_points", [3, 65, 1025])
    @pytest.mark.parametrize("sampler", ["auto", "davies-harte"])
    def test_alpha_two_paths_are_the_line(self, sampler, n_points):
        # at alpha = 2 fBm is B(t) = t B(S) / S: the embedding has one nonzero
        # eigenvalue, and the automatic choice is davies-harte there too
        ps = _PathSampler(2.0, 1.0, n_points, sampler)
        assert ps.method == "davies-harte"
        paths = ps.sample(batch_generator(1, 0), 2000)
        line = np.linspace(0.0, 1.0, n_points) * paths[:, -1:]
        assert np.abs(paths - line).max() <= 1e-12 * np.abs(paths).max()

    def test_alpha_1_9_on_2049_points(self):
        # refused while the embedding put 0 at the centre of its circulant row;
        # the terminal variance and increment stationarity checks above, on
        # ten 2048-path batches with only the columns they read kept
        alpha, S, n = 1.9, 2.0, 2049
        ps = _PathSampler(alpha, S, n)
        h, starts = 256, (0, 900, 1792)  # lag in grid steps, increment starts
        cols = [n - 1] + [i for s in starts for i in (s, s + h)]
        kept = np.concatenate([ps.sample(batch_generator(19, b), 2048)[:, cols] for b in range(10)])
        reps = len(kept)
        v = kept[:, 0].var()
        assert abs(v - S ** alpha) <= 4.0 * v * math.sqrt(2.0 / reps)
        target = (S * h / (n - 1)) ** alpha
        for j in range(len(starts)):
            d = kept[:, 2 + 2 * j] - kept[:, 1 + 2 * j]
            assert abs(d.var() - target) <= 4.0 * target * math.sqrt(2.0 / reps)

    @pytest.mark.parametrize("alpha", [0.6, 1.0, 1.4, 1.9, 2.0])
    def test_automatic_choice_ignores_grid_size(self, alpha):
        for n_points in (2, 65, 1025, 1026, 4097):
            method = _PathSampler(alpha, 1.0, n_points).method
            assert method == ("brownian" if alpha == 1.0 else "davies-harte")


def full_spectrum_eigenvalues(alpha, n_incr):
    """All 2 n_incr circulant-embedding eigenvalues of unit-spacing fGn, unclipped:
    the row rho(0), ..., rho(n_incr), ..., rho(1), with rho(n_incr) at the centre."""
    k = np.arange(2 * n_incr, dtype=float)
    lag = np.minimum(k, 2 * n_incr - k)
    rho = 0.5 * ((lag + 1.0) ** alpha + np.abs(lag - 1.0) ** alpha) - lag ** alpha
    return np.fft.fft(rho).real


def full_spectrum_paths(alpha, horizon, n_points, rng, n_paths):
    """Davies-Harte paths through the full Hermitian spectrum and a complex
    inverse FFT: the construction the half-spectrum sampler replaced."""
    n_incr = n_points - 1
    m = 2 * n_incr
    lam = np.clip(full_spectrum_eigenvalues(alpha, n_incr), 0.0, None)
    raw = rng.standard_normal((n_paths, m))
    z = np.empty((n_paths, m), dtype=complex)
    z[:, 0] = raw[:, 0]
    z[:, n_incr] = raw[:, 1]
    z[:, 1:n_incr] = (raw[:, 2::2] + 1j * raw[:, 3::2]) / math.sqrt(2.0)
    z[:, n_incr + 1 :] = np.conj(z[:, 1:n_incr][:, ::-1])
    incr = np.fft.ifft(np.sqrt(lam) * z, axis=1).real[:, :n_incr] * math.sqrt(m)
    incr *= (horizon / n_incr) ** (alpha / 2.0)
    out = np.zeros((n_paths, n_points))
    np.cumsum(incr, axis=1, out=out[:, 1:])
    return out


class TestDaviesHarteHalfSpectrum:
    @pytest.mark.parametrize("n_points", [2, 3, 65, 257, 1025])
    @pytest.mark.parametrize("alpha", [0.6, 1.2, 1.4, 1.9, 2.0])
    def test_matches_full_spectrum_construction(self, alpha, n_points):
        ps = _PathSampler(alpha, 3.0, n_points, "davies-harte")
        got = ps.sample(batch_generator(17, 2), 24)
        want = full_spectrum_paths(alpha, 3.0, n_points, batch_generator(17, 2), 24)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("n_incr", [1, 2, 64, 1024, 16384])
    @pytest.mark.parametrize("alpha", [0.05, 0.6, 1.4, 1.59, 1.8, 1.9, 1.99, 1.999, 2.0])
    def test_embedding_nonnegative(self, alpha, n_incr):
        lam = full_spectrum_eigenvalues(alpha, n_incr)
        assert lam.min() >= -1e-12 * lam.max()
        # the sampler's half spectrum is the first n_incr + 1 of them, clipped at 0
        half = np.clip(lam[: n_incr + 1], 0.0, None)
        got = pickands._dh_eigenvalues(alpha, n_incr)
        np.testing.assert_allclose(got, half, rtol=0, atol=1e-12 * lam.max())

    def test_alpha_one_spectrum_is_flat(self):
        # Brownian increments are uncorrelated: rho(k) = 0 for k >= 1
        for n_incr in (1, 2, 64, 1024):
            assert np.array_equal(pickands._dh_eigenvalues(1.0, n_incr), np.ones(n_incr + 1))


class TestPickandsFinite:
    def test_needs_two_replicates(self):
        # one replicate has no standard error; the estimate used to divide by zero
        with pytest.raises(ValueError, match="at least 2 replicates"):
            pickands_finite(1.0, 1.0, 9, 1, seed=1)

    def test_at_least_one(self):
        for alpha, S in ((0.7, 0.5), (1.0, 1.0), (1.8, 2.0)):
            est = pickands_finite(alpha, S, 65, 2000, seed=1)
            assert est.value >= 1.0

    def test_deterministic_given_seed_and_workers(self):
        a = pickands_finite(1.0, 1.0, 129, 10_000, seed=42, workers=1)
        b = pickands_finite(1.0, 1.0, 129, 10_000, seed=42, workers=3)
        assert a.value == b.value and a.std_err == b.std_err

    def test_refused_as_pickands_constant_is(self, monkeypatch):
        # one 100-path batch on 33 points is one chunk of 16 B x 33 x 100 = 52.8 kB,
        # plus 8 x (3k + 6) B per path for k rungs: 60.0 kB at k = 1, 62.4 kB at k = 2
        monkeypatch.setattr(streams, "memory_budget", lambda: 10 ** 4)

        def message(gb):
            return (
                r"the brownian sampler at alpha=1\.0 on 33 grid points x 100 paths per batch "
                rf"= {gb} GB; with 1 in flight the run needs {gb} GB, more than half "
                r"of physical memory \(1e-05 GB\); use fewer workers, a smaller batch_size or a "
                r"coarser grid"
            )

        with pytest.raises(ValueError, match=message(r"6e-05")):
            pickands_finite(1.0, 2.0, 33, 100, seed=0)
        proto = ExtrapolationProtocol(s_ladder=(1.0, 2.0), spacing_factor=0.25, n_replicates=100)
        with pytest.raises(ValueError, match=message(r"6\.24e-05")):
            pickands_constant(1.0, proto)

    def test_path_point_cap_enforced(self, monkeypatch):
        # 33 points x 100 paths = 3300 path points, over a cap of 1000
        monkeypatch.setattr(pickands, "MAX_PATH_POINTS", 1000)
        message = r"33 grid points x 100 paths = 3\.3e\+03 path points .*MAX_PATH_POINTS"
        with pytest.raises(ValueError, match=message):
            pickands_finite(1.0, 2.0, 33, 100, seed=0)

    def test_alpha1_against_exact_oracle(self):
        # discrete maxima understate the supremum: estimate sits below the
        # exact value, within a few percent at this spacing, plus MC noise
        est = pickands_finite(1.0, 1.0, 401, 60_000, seed=9)
        exact = exact_h1(1.0)
        assert est.value <= exact + 3.0 * est.std_err
        assert est.value >= 0.90 * exact - 3.0 * est.std_err

    def test_alpha2_against_grid_quadrature_oracle(self):
        # the oracle integrates the same grid maximum, so agreement is a
        # pure 3-sigma statement with no discretization slack
        n = 101
        est = pickands_finite(2.0, 1.0, n, 50_000, seed=13)
        oracle = h2_grid_quadrature(1.0, n)
        assert abs(est.value - oracle) <= 3.0 * est.std_err

    def test_grid_refinement_never_loses_much(self):
        # nested-grid coupling: on a common set of paths the coarse maximum
        # is dominated pathwise, so refinement can only add value
        alpha, S, n = 1.3, 1.0, 257
        paths = empirical_paths(alpha, S, n, 30_000, seed=17, sampler="cholesky")
        drift = np.linspace(0, S, n) ** alpha
        z = math.sqrt(2.0) * paths - drift
        fine = np.exp(z.max(axis=1))
        coarse = np.exp(z[:, ::2].max(axis=1))
        assert np.all(fine >= coarse)
        assert fine.mean() >= coarse.mean()


class TestRunBatches:
    @pytest.mark.parametrize("batch_size", [0, -5])
    def test_batch_size_below_one_refused(self, batch_size):
        # unchecked, batch 0 divides by zero and batch -5 runs no batch at all
        with pytest.raises(ValueError, match=f"at least 1, got {batch_size} and 1"):
            pickands_finite(1.0, 1.0, 9, 100, seed=1, batch_size=batch_size)

    def test_no_worker_refused(self):
        def work(b, take):
            raise AssertionError("a batch ran")

        with pytest.raises(ValueError, match="at least 1, got 4 and 0"):
            streams.run_batches(work, 10, 4, 0, what="x", item="items", item_bytes=8)

    def test_negative_batch_index_and_count_refused(self):
        with pytest.raises(ValueError, match="batch_index must be nonnegative"):
            batch_generator(1, -1)
        with pytest.raises(ValueError, match="n_total must be nonnegative"):
            batch_sizes(-1)

    @pytest.mark.parametrize("exc", [FirstBatch, KeyboardInterrupt])
    def test_failed_batch_stops_the_queue(self, exc):
        started = []

        def work(b, take):
            started.append(b)
            if b == 0:
                raise exc
            time.sleep(0.02)
            return b

        with pytest.raises(exc):
            streams.run_batches(work, 40, 1, 2, what="x", item="items", item_bytes=8)
        assert len(started) <= 4  # batch 0 and those in flight, not all 40


class TestProtocol:
    def test_grid_rungs_land_on_grid(self):
        proto = ExtrapolationProtocol(s_ladder=(1.0, 2.0, 4.0, 8.0))
        n_points, idx = proto.grid_for(1.0)
        times = np.linspace(0, 8.0, n_points)
        for s, i in zip(proto.s_ladder, idx):
            assert times[i] == pytest.approx(s, abs=1e-9)

    def test_rungs_without_a_common_grid_rejected(self):
        # 1/3.14159 is no fraction with denominator <= 4096; unchecked, the
        # grid had 4097 points and put the S = 1 rung at 1.000155
        with pytest.raises(ValueError, match="share no grid of at most 4096"):
            ExtrapolationProtocol(s_ladder=(1.0, 3.14159), spacing_factor=0.3, n_replicates=100)
        proto = ExtrapolationProtocol(s_ladder=(1.0, 3.0), spacing_factor=0.3, n_replicates=100)
        n_points, idx = proto.grid_for(1.0)
        times = np.linspace(0, 3.0, n_points)
        assert n_points == 37
        assert [times[i] for i in idx] == pytest.approx([1.0, 3.0], abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExtrapolationProtocol(s_ladder=(2.0, 1.0))
        with pytest.raises(ValueError):
            ExtrapolationProtocol(s_ladder=(4.0,))
        with pytest.raises(ValueError):
            ExtrapolationProtocol(spacing_factor=1.5)
        with pytest.raises(ValueError, match="batch_size"):
            ExtrapolationProtocol(batch_size=0)
        with pytest.raises(ValueError, match="at least 2 replicates"):
            ExtrapolationProtocol(n_replicates=1)

    def test_point_cap_enforced(self):
        # 4 * 10^6 increments at alpha = 1: refused before any path is drawn
        with pytest.raises(ValueError, match="grid points"):
            pickands_constant(1.0, ExtrapolationProtocol(spacing_factor=0.001))

    def test_default_protocol_refused_at_alpha_0_6(self):
        # 86,865 points x 4 * 10^5 paths = 3.5 * 10^10 path points
        with pytest.raises(ValueError, match=r"86865 grid points x 400000 paths = 3\.47e\+10"):
            pickands_constant(0.6)
        with pytest.raises(ValueError, match="MAX_PATH_POINTS"):
            pickands_constant(0.6)

    def test_batch_larger_than_memory_refused(self, monkeypatch):
        # 8.7 * 10^9 path points passes the time cap.  A 2048-path Davies-Harte
        # batch on 86,865 points holds one path at a time, 40 B x 86,865 = 3.47 MB,
        # and 144 B per path of 4-rung maxima: 3.77 MB, beside the 0.69 MB half
        # spectrum.  (Drawn whole, the batch needed 7.1 GB.)
        monkeypatch.setattr(streams, "memory_budget", lambda: 4_400_000)
        proto = ExtrapolationProtocol(n_replicates=100_000)
        with pytest.raises(ValueError, match=r"86865 grid points x 2048 paths per batch = 0\.00377 GB"):
            pickands_constant(0.6, proto)
        with pytest.raises(ValueError, match="batch_size or a coarser grid"):
            pickands_constant(0.6, proto)
        smaller = ExtrapolationProtocol(n_replicates=100_000, batch_size=512)
        assert smaller.grid_for(0.6)[0] == 86865
        admitted(monkeypatch, 0.6, smaller)

    def test_cholesky_gram_larger_than_a_terabyte_refused(self, monkeypatch):
        # 400,000 points at alpha = 1: a few path points, but the Gram alone
        # is 1.3 TB, refused before it is built
        monkeypatch.setattr(streams, "memory_budget", lambda: 10 ** 12)
        proto = ExtrapolationProtocol(
            s_ladder=(2.0, 4.0), spacing_factor=math.sqrt(1e-5), n_replicates=2, sampler="cholesky"
        )
        with pytest.raises(ValueError, match="with the cholesky sampler"):
            pickands_constant(1.0, proto)

    def test_batches_in_flight_share_the_budget(self, monkeypatch):
        # one 512-path Davies-Harte batch on 86,865 points needs 3.55 MB, beside
        # the 0.69 MB half spectrum
        monkeypatch.setattr(streams, "memory_budget", lambda: 8 * 10 ** 6)
        proto = ExtrapolationProtocol(n_replicates=100_000, batch_size=512)
        assert proto.grid_for(0.6)[0] == 86865
        admitted(monkeypatch, 0.6, proto, workers=2)
        with pytest.raises(ValueError, match=r"; with 3 in flight the run needs 0\.0113 GB"):
            pickands_constant(0.6, proto, workers=3)
        with pytest.raises(ValueError, match="fewer workers"):
            pickands_constant(0.6, proto, workers=3)
        # two batches in all: at most two in flight, whatever the worker count
        two = ExtrapolationProtocol(n_replicates=1024, batch_size=512)
        admitted(monkeypatch, 0.6, two, workers=8)

    def test_memory_budget_reads_physical_memory(self):
        budget = streams.memory_budget()
        assert isinstance(budget, int) and budget > 0

    @pytest.mark.parametrize("alpha", [0.8, 1.0, 1.4, 2.0])
    def test_default_protocol_admitted(self, monkeypatch, alpha):
        monkeypatch.setattr(streams, "memory_budget", lambda: 2 * 10 ** 9)
        n_points, _ = ExtrapolationProtocol().grid_for(alpha)
        assert n_points * 400_000 <= MAX_PATH_POINTS
        admitted(monkeypatch, alpha, ExtrapolationProtocol())


def statistics_table(ps, rungs, rung_idx, rng, take):
    """(take, m) per-path statistics of `_ladder_sums`, from one whole-batch
    path array: exp of the prefix maxima at the rungs, then, with two or
    more rungs, the slope, the naive ratio and their difference."""
    y = math.sqrt(2.0) * ps.sample(rng, take) - ps.drift
    vals = np.exp(np.maximum.accumulate(y, axis=1)[:, rung_idx])
    if len(rungs) == 1:
        return vals
    slope = (vals[:, -1] - vals[:, -2]) / (rungs[-1] - rungs[-2])
    naive = vals[:, -1] / rungs[-1]
    return np.column_stack([vals, slope, naive, slope - naive])


class TestLadderSums:
    @pytest.mark.parametrize(
        "alpha,sampler,n_points",
        [(1.0, "auto", 401), (1.4, "cholesky", 65), (1.4, "davies-harte", 257)],
    )
    def test_matches_sums_recomputed_from_paths(self, alpha, sampler, n_points):
        ps = _PathSampler(alpha, 2.0, n_points, sampler)
        rungs = (0.5, 1.0, 2.0)
        idx = [(n_points - 1) // 4, (n_points - 1) // 2, n_points - 1]
        n, batch, seed = 2500, 1000, 9
        acc = _ladder_sums(ps, rungs, idx, n, seed, batch, workers=1)
        table = np.concatenate(
            [
                statistics_table(ps, rungs, idx, batch_generator(seed, b), take)
                for b, take in enumerate(batch_sizes(n, batch))
            ]
        )
        assert table.shape == (n, 6)
        expected = np.stack([table.sum(axis=0), (table * table).sum(axis=0)])
        np.testing.assert_allclose(acc, expected, rtol=1e-12)

    @pytest.mark.parametrize(
        "alpha,sampler,n_points,rung_idx,n,batch",
        [
            (1.0, "auto", 401, [400], 2500, 1000),
            (1.0, "auto", 401, [50, 100, 200, 400], 2500, 1000),
            (1.4, "davies-harte", 401, [50, 100, 200, 400], 2500, 1000),
            (1.4, "cholesky", 401, [50, 100, 200, 400], 2500, 1000),
            (1.0, "auto", 70_001, [35_000, 70_000], 5, 3),
            (1.4, "davies-harte", 30_001, [15_000, 30_000], 5, 3),
        ],
        ids=["1-rung", "4-rung", "davies-harte", "cholesky", "auto-1-path", "davies-harte-1-path"],
    )
    def test_bitwise_equal_to_full_path_prefix_maxima(
        self, alpha, sampler, n_points, rung_idx, n, batch
    ):
        # a batch drawn chunk by chunk: its segment maxima and their running
        # maximum are the prefix maxima at the rungs of the whole batch's
        # paths, and each column of its table sums as one contiguous vector
        ps = _PathSampler(alpha, 4.0, n_points, sampler)
        if n_points > 10_000:  # a chunk is one path
            assert ps.chunk == 1 and 2 * ps.path_bytes > streams._BLOCK_BYTES
        else:  # several chunks, the last one short
            assert 1 < ps.chunk < batch and batch % ps.chunk
        rungs = tuple(4.0 * i / (n_points - 1) for i in rung_idx)
        seed = 3
        acc = _ladder_sums(ps, rungs, rung_idx, n, seed, batch, workers=1)
        assert acc.shape == (2, len(rungs) + 3 if len(rungs) > 1 else 1)
        expected = np.zeros_like(acc)
        for b, take in enumerate(batch_sizes(n, batch)):
            table = statistics_table(ps, rungs, rung_idx, batch_generator(seed, b), take)
            cols = [np.ascontiguousarray(x) for x in table.T]
            expected += [[x.sum() for x in cols], [(x * x).sum() for x in cols]]
        assert acc.tobytes() == expected.tobytes()


class TestFootprint:
    @pytest.mark.parametrize(
        "sampler,alpha,setup,per_point",
        [
            ("cholesky", 1.4, 8 * 256 ** 2, 16),  # the factor
            ("davies-harte", 1.4, 8 * 257, 40),  # the half spectrum, bins 0 ... 256
            ("auto", 1.0, 0, 16),  # the brownian method
        ],
    )
    def test_setup_is_what_the_sampler_holds(self, sampler, alpha, setup, per_point):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ps = _PathSampler(alpha, 4.0, 257, sampler)
            held = tracemalloc.get_traced_memory()[0] - before
            m = min(ps.chunk, 500)
            rng = batch_generator(0, 0)
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            ps.sample(rng, m)
            sample_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert ps.footprint["setup"] == setup
        # a sample call peaks at path_bytes per path; numpy's inverse FFT
        # takes about 130 kB of its own per call
        assert ps.path_bytes == per_point * 257
        assert sample_peak <= m * ps.path_bytes + 2 ** 18
        # a chunk is the most paths that fit in _BLOCK_BYTES, for every method
        assert ps.chunk == streams._BLOCK_BYTES // ps.path_bytes
        # beyond the setup the sampler holds its drift, 8 B per point, and a few objects
        assert setup + 8 * 257 <= held <= setup + 8 * 257 + 4096

    @pytest.mark.parametrize(
        "alpha,sampler,n_points,chunk",
        [(1.0, "auto", 1601, 81), (1.4, "cholesky", 1025, 127)],
        ids=["brownian", "cholesky"],
    )
    def test_batch_memory_does_not_grow_with_the_batch(self, alpha, sampler, n_points, chunk):
        # one 2048-path batch, 4 rungs: one chunk (2.07 MB of Brownian paths on
        # 1,601 points, 2.08 MB of cholesky paths on 1,025 beside the factor)
        # and 144 B per path; drawn whole, its paths alone took 52 and 34 MB
        ps = _PathSampler(alpha, 4.0, n_points, sampler)
        assert ps.chunk == chunk
        rung_idx = [(n_points - 1) // d for d in (8, 4, 2, 1)]

        def batch():
            _ladder_sums(ps, (0.5, 1.0, 2.0, 4.0), rung_idx, 2048, 1, 2048, 1)

        batch()  # numpy's first-call allocations
        tracemalloc.start()
        try:
            batch()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= ps.chunk * ps.path_bytes + 2048 * 8 * (3 * 4 + 6) < 2.5e6

    def test_cholesky_run_admitted_between_held_and_built_bytes(self, monkeypatch):
        # 257 points: the Gram build peaks at 24 x 256^2 = 1.57 MB, the factor
        # holds 0.52 MB; ten 4.1 kB paths fit beside the factor in 1.6 MB,
        # beside the build they would not
        monkeypatch.setattr(streams, "memory_budget", lambda: 1_600_000)
        ps = _PathSampler(1.4, 4.0, 257, "cholesky")
        acc = _ladder_sums(ps, (4.0,), [256], 10, seed=0, batch_size=10, workers=1)
        assert acc[0] / 10 >= 1.0


class TestPickandsConstant:
    def test_alpha2_slope_near_known_value(self):
        # H_2(S) = 1 + S/sqrt(pi) exactly, so any slope is 1/sqrt(pi) in
        # expectation; a short ladder keeps the exp-sup variance tame
        proto = ExtrapolationProtocol(
            s_ladder=(0.5, 1.0, 2.0), n_replicates=50_000, sampler="cholesky"
        )
        est = pickands_constant(2.0, proto, seed=31)
        assert abs(est.value - 1.0 / math.sqrt(math.pi)) <= 0.15
        assert abs(exact_h2(2.0) - (1.0 + 2.0 / math.sqrt(math.pi))) < 1e-15

    def test_rungs_monotone_from_shared_paths(self):
        proto = ExtrapolationProtocol(s_ladder=(1.0, 2.0, 4.0), n_replicates=20_000)
        est = pickands_constant(1.0, proto, seed=5)
        assert all(b >= a for a, b in zip(est.rung_values, est.rung_values[1:]))

    def test_positive_and_bounded_by_rung_ratios(self):
        proto = ExtrapolationProtocol(s_ladder=(1.0, 2.0, 4.0), n_replicates=20_000)
        est = pickands_constant(1.0, proto, seed=5)
        assert est.value > 0
        for s, v, se in zip(est.rungs, est.rung_values, est.rung_std_errs):
            assert est.value <= v / s + 3.0 * (est.std_err + se / s)

    def test_deterministic_across_workers(self):
        proto = ExtrapolationProtocol(s_ladder=(1.0, 2.0), n_replicates=8_000)
        a = pickands_constant(1.0, proto, seed=77, workers=1)
        b = pickands_constant(1.0, proto, seed=77, workers=4)
        assert a.value == b.value
        assert a.rung_values == b.rung_values

    def test_reports_naive_alongside_slope(self):
        proto = ExtrapolationProtocol(s_ladder=(1.0, 2.0), n_replicates=8_000)
        est = pickands_constant(1.0, proto, seed=77)
        assert est.naive is not None and est.naive_std_err is not None
        assert est.naive == pytest.approx(est.rung_values[-1] / 2.0, rel=1e-12, abs=0.0)
