import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from supfield import fieldsim, pickands, streams
from supfield.fieldsim import (
    BlockSpec,
    LatticeField,
    build_lattice,
    excursion_maxima,
    mc_block_exceedance,
    mc_excursion,
    ratio_harness,
    side_emphasis_axis,
)
from supfield.model import ModelParams, Point2, correlation_scale, covariance
from supfield.quad import normal_survival
from supfield.streams import batch_generator

from oracles import spectral_excursion_probability

P_CLASSICAL = ModelParams(alpha=1.0, beta=2.0, a=2.0)
P_SIDE = ModelParams(alpha=1.0, beta=2.0, a=0.4)


class TestLatticeField:
    def test_covariance_matches_model(self):
        # the entry the sampler's factors imply, sigma_t sigma_s (L1 L1')_x (L2 L2')_y
        lat = build_lattice(P_CLASSICAL, n_per_axis=7)
        r1, r2 = lat.l1 @ lat.l1.T, lat.l2 @ lat.l2.T
        for (i1, j1, i2, j2) in [(0, 0, 3, 4), (2, 5, 6, 1), (4, 4, 4, 4)]:
            t = Point2(lat.xs[i1], lat.ys[j1])
            s = Point2(lat.xs[i2], lat.ys[j2])
            entry = r1[i1, i2] * r2[j1, j2] * lat.sigma_grid[i1, j1] * lat.sigma_grid[i2, j2]
            assert entry == pytest.approx(covariance(P_CLASSICAL, t, s), abs=1e-14)

    def test_matches_dense_distribution(self):
        # same model, same lattice: Kronecker sampling and the spectral
        # oracle's dense eigendecomposition target the identical Gaussian law
        n, reps, u = 12, 40_000, 2.0
        lat = build_lattice(P_CLASSICAL, n_per_axis=n)
        p1 = mc_excursion(lat, u, (0, 0), reps, seed=101)
        p2, se2 = spectral_excursion_probability(P_CLASSICAL, n, u, reps, seed=202)
        joint = math.hypot(p1.std_err, se2)
        assert abs(p1.p_hat - p2) <= 4.0 * joint

    def test_origin_variance_and_cross_correlation(self):
        lat = build_lattice(P_CLASSICAL, n_per_axis=16)
        f = lat.sample_batch(batch_generator(7, 0), 30_000)  # (16, B, 16)
        origin = f[0, :, 0]
        assert abs(origin.var() - 1.0) <= 4.0 * math.sqrt(2.0 / 30_000)
        other = f[8, :, 4]
        t = Point2(lat.xs[8], lat.ys[4])
        expected = covariance(P_CLASSICAL, Point2(0, 0), t)
        emp = float(np.mean(origin * other))
        se = math.sqrt((1.0 + expected ** 2) / 30_000)
        assert abs(emp - expected) <= 4.0 * se

    def test_validates_axes(self):
        with pytest.raises(ValueError):
            build_lattice(P_CLASSICAL, xs=np.array([0.0, 0.5]), ys=np.array([0.5, 0.2]))
        with pytest.raises(ValueError):
            build_lattice(P_CLASSICAL, xs=np.array([0.0, 1.5]), ys=np.array([0.0, 0.5]))
        with pytest.raises(ValueError, match="nonempty 1-D"):
            LatticeField(P_CLASSICAL, np.zeros((2, 2)), np.array([0.0, 0.5]))
        with pytest.raises(ValueError, match="nonempty 1-D"):
            LatticeField(P_CLASSICAL, np.array([0.0, 0.5]), np.array([]))
        with pytest.raises(ValueError, match="give n_per_axis >= 2"):
            build_lattice(P_CLASSICAL)

    @pytest.mark.parametrize("axes", [("xs",), ("xs", "ys")], ids=["one-axis", "both-axes"])
    def test_size_with_axes_refused(self, axes):
        # one of the two would be dropped: the axis for a uniform 8 x 8 lattice,
        # or the size for the axes' lattice
        given = {name: np.array([0.0, 0.5]) for name in axes}
        with pytest.raises(ValueError, match="n_per_axis alone or both axes"):
            build_lattice(P_CLASSICAL, n_per_axis=8, **given)


class RecordingGenerator:
    """Forwards to a numpy Generator, keeping a copy of every normal array drawn."""

    def __init__(self, gen):
        self._gen = gen
        self.drawn = []

    def standard_normal(self, *args, **kwargs):
        out = self._gen.standard_normal(*args, **kwargs)
        self.drawn.append(np.array(out))
        return out

    def __getattr__(self, attr):
        return getattr(self._gen, attr)


def drawn_normals(lat, rng, n):
    """The (n1, n, n2) normals of n field draws, block by block: each block's
    draw is laid out (n1, k * n2), draw s of the block owning columns
    s n2 ... (s + 1) n2 - 1, and the blocks cover the draws in order."""
    n1, n2 = len(lat.xs), len(lat.ys)
    assert sum(d.size for d in rng.drawn) == n1 * n * n2
    return np.concatenate([d.reshape(n1, -1, n2) for d in rng.drawn], axis=1)


def unblocked_field(lat, g):
    """The field in one piece from normals g: tensordot, then @ l2.T, then sigma times it."""
    n1, n, n2 = g.shape
    a1 = np.tensordot(lat.l1, g, axes=(1, 0))
    a2 = (a1.reshape(n1 * n, n2) @ lat.l2.T).reshape(n1, n, n2)
    return lat.sigma_grid[:, None, :] * a2


def antithetic_maxima(f, shift, n):
    """The first n samples of the antithetic layout from (n1, m, n2) field draws
    f: sample 2i is the maximum of draw i minus the trend, 2i + 1 that of its
    mirror -f minus the trend."""
    pairs = np.stack([(f - shift).max(axis=(0, 2)), (-f - shift).max(axis=(0, 2))], axis=1)
    return pairs.reshape(-1)[:n]


def small_lattice(shape):
    n1, n2 = shape
    xs = np.linspace(0.0, 1.0, n1) if n1 > 1 else np.array([0.3])
    ys = np.linspace(0.0, 1.0, n2) if n2 > 1 else np.array([0.6])
    return LatticeField(P_CLASSICAL, xs, ys)


class TestBlockedKernel:
    # with 20 kB blocks every case below runs in several blocks, the last
    # one holding the remainder; the shipped block size covers one block
    @pytest.fixture(params=[20_000, streams._BLOCK_BYTES], ids=["20kB", "shipped"])
    def block_bytes(self, request, monkeypatch):
        monkeypatch.setattr(streams, "_BLOCK_BYTES", request.param)
        return request.param

    # the shipped partition decides which normals each draw gets, so it pins
    # every seeded lattice value: the acceptance criteria's draws among them
    @pytest.mark.parametrize(
        "shape,per_block",
        [((16, 16), 512), ((32, 32), 128), ((64, 64), 32), ((256, 256), 2), ("side", 12)],
        ids=["16", "32", "64", "256", "side"],
    )
    def test_shipped_block_partition(self, shape, per_block):
        if shape == "side":
            axis = side_emphasis_axis(P_SIDE)
            assert len(axis) == 100
            lat = LatticeField(P_SIDE, axis, axis)
        else:
            lat = build_lattice(P_CLASSICAL, n_per_axis=shape[0])
        assert lat.per_block == per_block
        # 2 blocks of draws and 1 over, at two samples (a draw and its mirror) per
        # draw: the second block takes the remainder
        rng = RecordingGenerator(batch_generator(1, 0))
        lat.maxima_batch(rng, 2 * (2 * per_block + 1), (0.0, 0.0))
        n1, n2 = len(lat.xs), len(lat.ys)
        assert [d.shape for d in rng.drawn] == [(n1, per_block * n2), (n1, (per_block + 1) * n2)]

    @pytest.mark.parametrize(
        "shape,n", [((12, 12), 2000), ((9, 7), 301), ((1, 24), 333), ((24, 1), 333)]
    )
    @pytest.mark.parametrize("trend", [(0.0, 0.0), (0.7, 1.3)])
    def test_maxima_match_unblocked(self, block_bytes, shape, n, trend):
        # n samples are ceil(n / 2) draws and their mirrors; an odd n drops the last mirror
        lat = small_lattice(shape)
        rng = RecordingGenerator(batch_generator(21, 3))
        got = lat.maxima_batch(rng, n, trend)
        f = unblocked_field(lat, drawn_normals(lat, rng, (n + 1) // 2))
        shift = (trend[0] * lat.xs[:, None] + trend[1] * lat.ys[None, :])[:, None, :]
        expected = antithetic_maxima(f, shift, n)
        assert got.shape == (n,)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)
        for u in (0.5, 1.5, 2.5):
            assert int((got > u).sum()) == int((expected > u).sum())

    @pytest.mark.parametrize("shape,n", [((12, 12), 2000), ((1, 24), 333), ((24, 1), 333)])
    def test_samples_match_unblocked(self, block_bytes, shape, n):
        lat = small_lattice(shape)
        rng = RecordingGenerator(batch_generator(5, 0))
        got = lat.sample_batch(rng, n)
        expected = unblocked_field(lat, drawn_normals(lat, rng, n))
        assert got.shape == expected.shape
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    def test_workers_agree(self, block_bytes):
        lat = small_lattice((9, 7))
        m1 = excursion_maxima(lat, 5001, seed=8, trend=(0.0, 1.5), batch_size=700, workers=1)
        m2 = excursion_maxima(lat, 5001, seed=8, trend=(0.0, 1.5), batch_size=700, workers=2)
        assert np.array_equal(m1, m2)


class TestAntitheticPairs:
    def test_two_by_two_against_multivariate_normal_cdf(self):
        # P(max of 4 > u) = 1 - Phi_4(u, ..., u; Sigma), the covariance taken point by
        # point from the model; odd batches leave unpaired samples in the estimate
        xs, ys = np.array([0.0, 0.5]), np.array([0.0, 0.3])
        lat = LatticeField(P_CLASSICAL, xs, ys)
        pts = [Point2(x, y) for x in xs for y in ys]
        cov = np.array([[covariance(P_CLASSICAL, s, t) for t in pts] for s in pts])
        for u in (0.5, 1.5, 2.5):
            below = stats.multivariate_normal.cdf(
                np.full(4, u), mean=np.zeros(4), cov=cov, abseps=1e-6, releps=1e-6,
                rng=np.random.default_rng(0),
            )
            est = mc_excursion(lat, u, (0.0, 0.0), 100_001, seed=5, batch_size=4095)
            assert abs(est.p_hat - (1.0 - below)) <= 3.0 * est.std_err, u

    def test_paired_se_matches_the_seed_to_seed_spread(self):
        # the spread of p_hat over 30 seeds against the mean reported paired SE
        lat = build_lattice(P_CLASSICAL, n_per_axis=16)
        ests = [mc_excursion(lat, 2.0, (0.0, 0.0), 4000, seed=100 + s) for s in range(30)]
        spread = np.std([e.p_hat for e in ests], ddof=1)
        assert 0.7 <= spread / np.mean([e.std_err for e in ests]) <= 1.4

    @pytest.mark.parametrize("trend", [(0.0, 0.0), (0.7, 1.3)])
    def test_draw_and_mirror_not_positively_correlated(self, trend):
        # Pitt's theorem: the correlation is nonnegative, so an increasing functional
        # of X and a decreasing one are nonpositively correlated
        lat = build_lattice(P_CLASSICAL, n_per_axis=12)
        m = lat.maxima_batch(batch_generator(4, 0), 40_000, trend)
        draw, mirror = m[0::2], m[1::2]
        for f_draw, f_mirror in ((draw, mirror), (draw > 1.0, mirror > 1.0)):
            prod = (f_draw - f_draw.mean()) * (f_mirror - f_mirror.mean())
            assert prod.mean() <= 3.0 * prod.std() / math.sqrt(len(prod))


class TestSideEmphasisAxis:
    def test_shape_and_bounds(self):
        axis = side_emphasis_axis(P_SIDE)
        assert axis[0] == 0.0 and axis[-1] == P_SIDE.T
        assert np.all(np.diff(axis) > 0)
        # refinement concentrates points below the strip width
        assert (axis < 0.25).sum() > 0.3 * len(axis)

    def test_validation(self):
        # the refined strip is 0.25 wide, so the square must be at least that
        with pytest.raises(ValueError, match="T >= 0.25"):
            side_emphasis_axis(ModelParams(1.0, 2.0, 0.4, T=0.2))


class TestMcExcursion:
    def test_low_level_always_exceeded(self):
        lat = build_lattice(P_CLASSICAL, n_per_axis=8)
        est = mc_excursion(lat, -10.0, (0, 0), 2000, seed=1)
        assert est.p_hat == 1.0

    def test_high_level_never_exceeded(self):
        lat = build_lattice(P_CLASSICAL, n_per_axis=8)
        est = mc_excursion(lat, 10.0, (0, 0), 10_000, seed=1)
        assert est.p_hat == 0.0 and est.std_err == 0.0

    def test_monotone_in_level_same_seed(self):
        lat = build_lattice(P_CLASSICAL, n_per_axis=12)
        p_low = mc_excursion(lat, 2.0, (0, 0), 20_000, seed=5).p_hat
        p_high = mc_excursion(lat, 2.5, (0, 0), 20_000, seed=5).p_hat
        assert p_low >= p_high

    def test_trend_dominated_pathwise(self):
        lat = build_lattice(P_CLASSICAL, n_per_axis=12)
        m0 = excursion_maxima(lat, 5000, seed=9, trend=(0.0, 0.0))
        m1 = excursion_maxima(lat, 5000, seed=9, trend=(1.0, 1.0))
        assert np.all(m1 <= m0)

    def test_deterministic_across_workers(self):
        lat = build_lattice(P_CLASSICAL, n_per_axis=12)
        m1 = excursion_maxima(lat, 10_000, seed=33, workers=1)
        m2 = excursion_maxima(lat, 10_000, seed=33, workers=4)
        assert np.array_equal(m1, m2)

    def test_refinement_monotone_under_crn(self):
        # the coarse lattice is a subset of the fine one; on shared samples
        # the restricted maximum is dominated pathwise
        lat = build_lattice(P_CLASSICAL, n_per_axis=17)
        f = lat.sample_batch(batch_generator(11, 0), 5000)
        fine = f.max(axis=(0, 2))
        coarse = f[::2, :, ::2].max(axis=(0, 2))
        assert np.all(coarse <= fine)
        u = 2.0
        assert (coarse > u).mean() <= (fine > u).mean()

    def test_draws_in_flight_larger_than_memory_refused(self, monkeypatch):
        # a 64 x 64 lattice runs in blocks of 32 draws, the remainder joining the
        # last, so a 2048-sample batch, 1024 draws, declares two buffers of
        # 16 B x 4096 x 63 and 8 B per maximum, 4.15 MB, beside the 98.3 kB the
        # lattice holds
        monkeypatch.setattr(streams, "memory_budget", lambda: 6 * 10 ** 6)
        lat = build_lattice(P_CLASSICAL, n_per_axis=64)
        drawn = []
        monkeypatch.setattr(lat, "maxima_batch", lambda rng, n, trend: drawn.append(n) or np.zeros(n))
        message = (
            r"lattice 64x64 x 2048 samples per batch = "
            r"0\.00415 GB; with 2 in flight the run needs 0\.00839 GB"
        )
        with pytest.raises(ValueError, match=message):
            excursion_maxima(lat, 10_000, seed=0, workers=2)
        assert drawn == []  # refused before the first draw
        assert len(excursion_maxima(lat, 10_000, seed=0, workers=1)) == 10_000
        assert len(excursion_maxima(lat, 2048, seed=0, workers=2)) == 2048  # one batch in all

    def test_held_factors_count_beside_the_draws(self, monkeypatch):
        # a 64 x 64 lattice holds 8 B x 3 x 64^2 = 98.3 kB (l1, l2, sigma); one
        # 32-sample batch is one block of 16 draws, 16 B x 4096 x 16 + 8 B x 32 =
        # 1.05 MB, which fits in 1.1 MB alone but not beside what the lattice holds
        lat = build_lattice(P_CLASSICAL, n_per_axis=64)
        held = lat.l1.nbytes + lat.l2.nbytes + lat.sigma_grid.nbytes
        assert lat.held == held == 98_304
        monkeypatch.setattr(streams, "memory_budget", lambda: 1_100_000)
        monkeypatch.setattr(lat, "maxima_batch", lambda rng, n, trend: pytest.fail("drawn"))
        message = r"32 samples per batch = 0\.00105 GB; with 1 in flight the run needs 0\.00115 GB"
        with pytest.raises(ValueError, match=message):
            excursion_maxima(lat, 100, seed=0, batch_size=32)

    def test_batch_memory_does_not_grow_with_the_batch(self):
        # one 2048-sample batch on 64 x 64 holds two 32-draw block buffers of
        # 1 MiB each and its maxima, within the bytes it declares to the memory check
        lat = build_lattice(P_CLASSICAL, n_per_axis=64)
        tracemalloc.start()
        try:
            lat.maxima_batch(batch_generator(3, 0), 2048, (0.0, 0.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5e6
        assert peak <= lat.batch_bytes(2048)

    def test_set_up_larger_than_memory_refused(self, monkeypatch):
        # a 200 x 200 lattice: 8 B x (3 x 200^2 + 5 x 200^2) = 2.56 MB of set-up
        monkeypatch.setattr(streams, "memory_budget", lambda: 10 ** 6)
        monkeypatch.setattr(fieldsim, "chol_with_jitter", lambda *args: pytest.fail("built"))
        message = (
            r"lattice 200x200 set-up needs 0\.00256 GB, more than half of physical memory "
            r"\(0\.001 GB\); use a coarser grid"
        )
        with pytest.raises(ValueError, match=message):
            build_lattice(P_CLASSICAL, n_per_axis=200)

    @pytest.mark.parametrize("trend", [(math.nan, 0.0), (math.inf, 0.0), (0.0, -math.inf)])
    def test_non_finite_trend_refused_before_drawing(self, monkeypatch, trend):
        # a nan field maximum exceeds no level: unchecked, each gave p_hat = 0.0
        lat = build_lattice(P_CLASSICAL, n_per_axis=8)
        monkeypatch.setattr(lat, "maxima_batch", lambda rng, n, trend: pytest.fail("drawn"))
        with pytest.raises(ValueError, match="trend slopes must be finite"):
            mc_excursion(lat, 2.0, trend, 2000, seed=0)

    def test_validation(self):
        lat = build_lattice(P_CLASSICAL, n_per_axis=8)
        with pytest.raises(ValueError):
            mc_excursion(lat, math.nan, (0, 0), 100, seed=0)
        with pytest.raises(ValueError):
            mc_excursion(lat, 1.0, (0, 0), 0, seed=0)

    def test_batch_size_below_one_refused(self):
        lat = build_lattice(P_CLASSICAL, n_per_axis=8)
        with pytest.raises(ValueError, match="at least 1, got 0 and 1"):
            mc_excursion(lat, 2.0, (0, 0), 100, seed=0, batch_size=0)


class TestBlocks:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            BlockSpec(Point2(0, 0), -1.0, 2.0, 3.0)
        with pytest.raises(ValueError, match="level u must be finite, got inf"):
            BlockSpec(Point2(0, 0), 2.0, 2.0, math.inf)
        # a nan side would give nan bounds that pass the containment check
        with pytest.raises(ValueError, match=r"base and sides must be finite, got \(0, 0\), nan"):
            BlockSpec(Point2(0, 0), math.nan, 2.0, 3.0)
        with pytest.raises(ValueError, match="base and sides must be finite"):
            BlockSpec(Point2(math.inf, 0), 2.0, 2.0, 3.0)
        with pytest.raises(ValueError):
            BlockSpec(Point2(0, 0), 0.0, 0.0, 3.0)
        spec = BlockSpec(Point2(0.9, 0.0), 2.0, 2.0, 3.0)
        with pytest.raises(ValueError):
            spec.bounds(P_CLASSICAL)  # 0.9 + 2/9 > 1

    def test_corner_block_prediction_reduces(self):
        p = ModelParams(1.0, 2.0, 1.0)
        spec = BlockSpec(Point2(0.0, 0.0), 2.0, 2.0, 3.0)
        res = mc_block_exceedance(p, spec, 4000, seed=3, n_grid=12, h_replicates=4000)
        assert res.h1 == res.h2  # same side multiplier, shared estimate
        assert res.prediction == pytest.approx(
            res.h1 * res.h2 * normal_survival(3.0), rel=1e-12, abs=0.0
        )

    def test_interior_block_variance_penalty(self):
        p = ModelParams(1.0, 2.0, 1.0)
        v = Point2(0.2, 0.2)
        spec = BlockSpec(v, 2.0, 2.0, 3.0)
        res = mc_block_exceedance(p, spec, 4000, seed=3, n_grid=12, h_replicates=4000)
        v_loss = 0.2 ** 2 + 0.2 ** 2 + (0.2 * 0.2) ** 1.0
        assert res.prediction == pytest.approx(
            res.h1 * res.h2 * normal_survival(3.0) * math.exp(-9.0 * v_loss), rel=1e-12, abs=0.0
        )

    def test_degenerate_side_gives_unit_factor(self):
        p = ModelParams(1.0, 2.0, 1.0)
        spec = BlockSpec(Point2(0.0, 0.0), 0.0, 2.0, 3.0)
        res = mc_block_exceedance(p, spec, 4000, seed=3, n_grid=12, h_replicates=4000)
        assert res.h1 == 1.0
        assert res.prediction == pytest.approx(res.h2 * normal_survival(3.0), rel=1e-12, abs=0.0)

    def test_h_factor_over_the_path_point_cap_refused(self, monkeypatch):
        # the H(2) factor: 12 points x 4000 paths = 4.8 * 10^4 path points
        monkeypatch.setattr(pickands, "MAX_PATH_POINTS", 10 ** 4)
        p = ModelParams(1.0, 2.0, 1.0)
        spec = BlockSpec(Point2(0.0, 0.0), 0.0, 2.0, 3.0)
        with pytest.raises(ValueError, match="MAX_PATH_POINTS"):
            mc_block_exceedance(p, spec, 4000, seed=3, n_grid=12, h_replicates=4000)

    def test_lattice_over_budget_refused_before_the_h_factors(self, monkeypatch):
        # a 32 x 32 corner block: one 2048-sample batch, 1024 draws in blocks of 128,
        # declares 16 B x 1024 x 255 + 8 B x 2048 = 4.19 MB, over a 2 MB budget; the
        # lattice run is sized before the H(S) factors, so no path is drawn
        monkeypatch.setattr(streams, "memory_budget", lambda: 2 * 10 ** 6)
        monkeypatch.setattr(pickands, "pickands_finite", lambda *args: pytest.fail("H drawn"))
        monkeypatch.setattr(LatticeField, "maxima_batch", lambda *args: pytest.fail("drawn"))
        p = ModelParams(1.0, 2.0, 1.0)
        spec = BlockSpec(Point2(0.0, 0.0), 2.0, 2.0, 3.0)
        message = r"lattice 32x32 x 2048 samples per batch = 0\.00419 GB"
        with pytest.raises(ValueError, match=message):
            mc_block_exceedance(p, spec, 200_000, seed=3, n_grid=32, h_replicates=2_000_000)

    def test_h_factor_refused_before_the_lattice_draws(self, monkeypatch):
        # one H replicate is refused by the H factor; the lattice is set up first
        # and sampled after, so none of its 200,000 samples is drawn
        monkeypatch.setattr(LatticeField, "maxima_batch", lambda *args: pytest.fail("drawn"))
        p = ModelParams(1.0, 2.0, 1.0)
        spec = BlockSpec(Point2(0.0, 0.0), 2.0, 2.0, 3.0)
        with pytest.raises(ValueError, match="need at least 2 replicates"):
            mc_block_exceedance(p, spec, 200_000, seed=3, n_grid=32, h_replicates=1)

    def test_trended_model_rejected(self, monkeypatch):
        # the prediction has no trend term, and the MC used to drop the
        # trend too, answering for the untrended model; `bounds`, which the
        # CLI calls at load, refuses it, so the MC refuses it undrawn
        p = ModelParams(1.0, 2.0, 1.0, c2=0.5)
        spec = BlockSpec(Point2(0.0, 0.0), 2.0, 2.0, 3.0)

        def drawn(*args):
            raise AssertionError("a batch was drawn")

        monkeypatch.setattr(LatticeField, "maxima_batch", drawn)
        message = "no trend term; got c1 = 0.0, c2 = 0.5"
        with pytest.raises(ValueError, match=message):
            spec.bounds(p)
        with pytest.raises(ValueError, match=message):
            mc_block_exceedance(p, spec, 100, seed=3, n_grid=4, h_replicates=100)

    def test_interior_block_within_band(self):
        # block based at 0.2 q_u off the corner: the local estimate is an
        # asymptotic statement with slack, so the MC sits inside a broad
        # band of the prediction at a desk-scale level (frozen seed)
        p = ModelParams(1.0, 2.0, 1.0)
        u = 3.0
        qu = correlation_scale(p, u)
        spec = BlockSpec(Point2(0.2 * qu, 0.2 * qu), 2.0, 2.0, u)
        res = mc_block_exceedance(p, spec, 200_000, seed=55, n_grid=32, h_replicates=100_000)
        ratio = res.estimate.p_hat / res.prediction
        assert 0.5 <= ratio <= 2.0


class TestRatioHarness:
    def test_classical_rows_finite_positive(self):
        lat = build_lattice(P_CLASSICAL, n_per_axis=24)
        rows = ratio_harness(P_CLASSICAL, [2.0, 2.5, 3.0], lat, 30_000, seed=44)
        for r in rows:
            assert r.prediction > 0 and math.isfinite(r.ratio) and r.ratio > 0

    def test_side_dominated_prediction_column(self):
        lat = build_lattice(P_SIDE, n_per_axis=16)
        rows = ratio_harness(P_SIDE, [2.0, 3.0], lat, 2000, seed=4)
        for r in rows:
            expected = math.sqrt(math.pi) * r.u * normal_survival(r.u)
            assert r.prediction == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_trend_params_use_trend_prediction(self):
        p = ModelParams(1.0, 2.0, 0.4, c1=1.0, c2=2.0)
        lat = build_lattice(p, n_per_axis=16)
        rows = ratio_harness(p, [2.0], lat, 2000, seed=4)
        from supfield.quad import trend_l

        expected = (trend_l(1.0) + trend_l(2.0)) * 2.0 * normal_survival(2.0)
        assert rows[0].prediction == pytest.approx(expected, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("ladder", [[2.0, math.inf], [math.nan]])
    def test_non_finite_level_refused_before_drawing(self, monkeypatch, ladder):
        lat = build_lattice(P_CLASSICAL, n_per_axis=8)

        def drawn(*args):
            raise AssertionError("a batch was drawn")

        monkeypatch.setattr(LatticeField, "maxima_batch", drawn)
        with pytest.raises(ValueError, match=f"u must be finite, got {ladder[-1]}"):
            ratio_harness(P_CLASSICAL, ladder, lat, 100, seed=0)

    def test_level_not_above_1_refused_before_drawing(self, monkeypatch):
        # the leading forms are negative below u = 1 in the log regime
        p = ModelParams(1.0, 2.0, 0.8)
        lat = build_lattice(p, n_per_axis=8)

        def drawn(*args):
            raise AssertionError("a batch was drawn")

        monkeypatch.setattr(LatticeField, "maxima_batch", drawn)
        with pytest.raises(ValueError, match="u must exceed 1, .*; got 0.5"):
            ratio_harness(p, [0.5, 2.0], lat, 100, seed=0)

    def test_params_of_another_field_refused_before_drawing(self, monkeypatch):
        lat = build_lattice(P_SIDE, n_per_axis=8)

        def drawn(*args):
            raise AssertionError("a batch was drawn")

        monkeypatch.setattr(LatticeField, "maxima_batch", drawn)
        with pytest.raises(ValueError, match="differ from the field's"):
            ratio_harness(P_CLASSICAL, [2.5], lat, 100, seed=1)

    def test_u_ladder_validation(self):
        lat = build_lattice(P_CLASSICAL, n_per_axis=8)
        with pytest.raises(ValueError):
            ratio_harness(P_CLASSICAL, [3.0, 2.0], lat, 100, seed=0)
