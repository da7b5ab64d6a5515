import math

import numpy as np
import pytest

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
            (lambda: _PathSampler(1.0, 1.0, 1, "brownian"), "at least 2 grid points"),
            (lambda: _PathSampler(1.0, 1.0, 8, "spectral"), "unknown sampler"),
            (lambda: pickands_finite(0.0, 1.0, 2000, 2000, seed=1), "alpha must be in"),
            (lambda: pickands_constant(0.0), "alpha must be in"),
        ],
        ids=[
            "cholesky-alpha",
            "cholesky-horizon",
            "cholesky-points",
            "davies-harte-horizon",
            "brownian-points",
            "unknown-sampler",
            "finite-alpha-zero",
            "constant-alpha-zero",
        ],
    )
    def test_rejects_invalid_grid(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()


class TestSamplerDistribution:
    @pytest.mark.parametrize("alpha,sampler", [(1.2, "cholesky"), (1.2, "davies-harte"),
                                               (0.6, "davies-harte"), (1.0, "brownian")])
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

    def test_alpha_two_rejected_by_davies_harte(self):
        with pytest.raises(ValueError):
            _PathSampler(2.0, 1.0, 65, "davies-harte")


class TestPickandsFinite:
    def test_at_least_one(self):
        for alpha, S in ((0.7, 0.5), (1.0, 1.0), (1.8, 2.0)):
            est = pickands_finite(alpha, S, 65, 2000, seed=1)
            assert est.value >= 1.0

    def test_deterministic_given_seed_and_workers(self):
        a = pickands_finite(1.0, 1.0, 129, 10_000, seed=42, workers=1)
        b = pickands_finite(1.0, 1.0, 129, 10_000, seed=42, workers=3)
        assert a.value == b.value and a.std_err == b.std_err

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


class TestProtocol:
    def test_grid_rungs_land_on_grid(self):
        proto = ExtrapolationProtocol(s_ladder=(1.0, 2.0, 4.0, 8.0))
        n_points, idx = proto.grid_for(1.0)
        times = np.linspace(0, 8.0, n_points)
        for s, i in zip(proto.s_ladder, idx):
            assert times[i] == pytest.approx(s, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExtrapolationProtocol(s_ladder=(2.0, 1.0))
        with pytest.raises(ValueError):
            ExtrapolationProtocol(s_ladder=(4.0,))
        with pytest.raises(ValueError):
            ExtrapolationProtocol(spacing_factor=1.5)
        with pytest.raises(ValueError, match="batch_size"):
            ExtrapolationProtocol(batch_size=0)

    def test_point_cap_enforced(self):
        # 4 * 10^6 increments at alpha = 1: refused before any allocation
        with pytest.raises(ValueError, match="grid points"):
            ExtrapolationProtocol(spacing_factor=0.001).grid_for(1.0)

    def test_default_protocol_refused_at_alpha_0_6(self):
        # 86,865 points x 4 * 10^5 paths: under MAX_POINTS, but 3.5 * 10^10 path points
        with pytest.raises(ValueError, match=r"86865 grid points x 400000 paths = 3\.47e\+10"):
            ExtrapolationProtocol().grid_for(0.6)
        with pytest.raises(ValueError, match="MAX_PATH_POINTS"):
            pickands_constant(0.6)

    @pytest.mark.parametrize("alpha", [0.8, 1.0, 1.4, 2.0])
    def test_default_protocol_admitted(self, alpha):
        n_points, _ = ExtrapolationProtocol().grid_for(alpha)
        assert n_points * 400_000 <= MAX_PATH_POINTS


class TestLadderSums:
    @pytest.mark.parametrize(
        "alpha,sampler,n_points",
        [(1.0, "brownian", 401), (1.4, "cholesky", 65), (1.4, "davies-harte", 257)],
    )
    def test_matches_sums_recomputed_from_paths(self, alpha, sampler, n_points):
        ps = _PathSampler(alpha, 2.0, n_points, sampler)
        rungs = (0.5, 1.0, 2.0)
        idx = [(n_points - 1) // 4, (n_points - 1) // 2, n_points - 1]
        n, batch, seed = 2500, 1000, 9
        acc = _ladder_sums(ps, rungs, idx, n, seed, batch, workers=1)
        drift = np.linspace(0.0, 2.0, n_points) ** alpha
        vals = []
        for b, take in enumerate(batch_sizes(n, batch)):
            y = math.sqrt(2.0) * ps.sample(batch_generator(seed, b), take) - drift
            vals.append(np.exp(np.maximum.accumulate(y, axis=1)[:, idx]))
        vals = np.concatenate(vals)
        slope = (vals[:, 2] - vals[:, 1]) / (rungs[2] - rungs[1])
        naive = vals[:, 2] / rungs[2]
        cons = slope - naive
        expected = np.concatenate(
            [
                vals.sum(axis=0),
                (vals * vals).sum(axis=0),
                [s for x in (slope, naive, cons) for s in (x.sum(), (x * x).sum())],
            ]
        )
        np.testing.assert_allclose(acc, expected, rtol=1e-12)


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
        assert est.naive == pytest.approx(est.rung_values[-1] / 2.0, rel=1e-12)
