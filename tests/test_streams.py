import math

import numpy as np
import pytest

from supfield.streams import batch_sizes, pair_moments, paired_mean_se


def moments_of(x, batch):
    """`pair_moments` summed over the batches of `x` (samples in run order)."""
    edges = np.cumsum([0] + batch_sizes(len(x), batch))
    return sum(pair_moments(x[a:b]) for a, b in zip(edges[:-1], edges[1:]))


class TestPairedStandardError:
    def test_all_paired_is_the_spread_of_pair_means(self):
        rng = np.random.default_rng(1)
        x = rng.exponential(size=600)
        mean, se = paired_mean_se(moments_of(x, 200), 600, 200)
        pair_means = x.reshape(-1, 2).mean(axis=1)
        assert mean == pytest.approx(x.mean(), rel=1e-14)
        assert se == pytest.approx(pair_means.std() / math.sqrt(300), rel=1e-12)

    def test_odd_batch_leaves_its_last_sample_unpaired(self):
        # two batches of 3 and one of 1: pairs (0, 1) and (3, 4); samples 2, 5 and 6 alone
        x = np.array([1.0, 4.0, 2.0, 0.5, 3.0, 7.0, 1.5])
        mean, se = paired_mean_se(moments_of(x, 3), 7, 3)
        m = x.mean()
        s2 = (x * x).mean() - m * m
        c = (1.0 * 4.0 + 0.5 * 3.0) / 2 - m * m
        assert mean == pytest.approx(m, rel=1e-14)
        assert se == pytest.approx(math.sqrt((s2 + 4.0 / 7.0 * c) / 7.0), rel=1e-12)

    @pytest.mark.parametrize("n,batch", [(2, 2), (3, 3), (3, 2), (5, 1)])
    def test_fewer_than_two_pairs_is_the_independent_sample_se(self, n, batch):
        x = np.array([1.0, 4.0, 2.0, 0.5, 3.0])[:n]
        mean, se = paired_mean_se(moments_of(x, batch), n, batch)
        assert mean == pytest.approx(x.mean(), rel=1e-14)
        assert se == pytest.approx(x.std() / math.sqrt(n), rel=1e-12)

    def test_columns_are_independent_statistics(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(401, 3))
        mean, se = paired_mean_se(moments_of(x, 100), 401, 100)
        for j in range(3):
            mj, sj = paired_mean_se(moments_of(x[:, j], 100), 401, 100)
            assert (mean[j], se[j]) == pytest.approx((mj, sj), rel=1e-12)

    def test_perfect_anticorrelation_has_no_error(self):
        # a draw and a mirror that sum to a constant: every pair mean is that constant
        x = np.array([0.2, 0.8, 0.9, 0.1, 0.5, 0.5])
        _, se = paired_mean_se(moments_of(x, 6), 6, 6)
        assert se == pytest.approx(0.0, abs=1e-9)
