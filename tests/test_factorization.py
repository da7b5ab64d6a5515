import numpy as np
import pytest

from supfield.factorization import FactorizationError, chol_with_jitter


class TestCholWithJitter:
    def test_singular_psd_matrix_gets_the_jitter_it_used(self):
        # rank one: plain Cholesky meets a zero pivot, the first shift passes
        mat = np.ones((3, 3))
        factor, jitter = chol_with_jitter(mat, max_jitter=1e-6)
        assert jitter == 1e-14
        assert np.abs(factor @ factor.T - (mat + jitter * np.eye(3))).max() <= 1e-15

    def test_indefinite_matrix_refused_at_the_ceiling(self):
        # eigenvalues -1 and 3: no shift up to the ceiling makes it positive definite
        with pytest.raises(FactorizationError) as info:
            chol_with_jitter(np.array([[1.0, 2.0], [2.0, 1.0]]), max_jitter=1e-6)
        assert info.value.min_eigenvalue == pytest.approx(-1.0, rel=1e-12, abs=0.0)
        assert info.value.max_jitter == 1e-6
        assert "jitter ceiling 1.0e-06" in str(info.value)
