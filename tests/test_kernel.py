import numpy as np
import pytest

from subsvdd.errors import (
    DimensionMismatch,
    NotSymmetric,
    ZeroKernel,
)
from subsvdd.kernel import (
    build_npt,
    center_kernel,
    npt_map,
    rbf_kernel,
)


class TestRbfKernel:
    def test_identical_points_give_one(self):
        x = np.array([[1.0, 1.0], [2.0, 2.0]])
        k = rbf_kernel(x, 0.7)
        np.testing.assert_allclose(k, 1.0)

    def test_distance_at_2_sigma_sq(self):
        sigma = 1.3
        gap = np.sqrt(2.0) * sigma
        x = np.array([[0.0, gap]])
        k = rbf_kernel(x, sigma)
        assert k[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_large_sigma_limit(self, rng):
        x = rng.standard_normal((3, 8))
        k = rbf_kernel(x, 1e6)
        assert np.abs(k - 1.0).max() < 1e-10

    def test_symmetric_unit_diagonal(self, rng):
        k = rbf_kernel(rng.standard_normal((4, 12)), 2.0)
        assert np.array_equal(k, k.T)
        np.testing.assert_allclose(np.diag(k), 1.0)

    def test_nonpositive_sigma(self):
        with pytest.raises(ValueError, match="^sigma must be"):
            rbf_kernel(np.zeros((2, 3)), 0.0)

    def test_nan_sigma(self):
        with pytest.raises(ValueError, match="^sigma must be"):
            rbf_kernel(np.zeros((2, 3)), float("nan"))

    @pytest.mark.parametrize("sigma", [float("inf"), True], ids=["inf", "true"])
    def test_sigma_inf_or_bool(self, sigma):
        # inf gives an all-ones kernel and True one at sigma = 1: neither is a sigma
        with pytest.raises(ValueError, match="^sigma must be"):
            rbf_kernel(np.zeros((2, 3)), sigma)


class TestCenterKernel:
    def test_constant_kernel_annihilated(self):
        k = np.ones((5, 5))
        np.testing.assert_allclose(center_kernel(k), 0.0, atol=1e-12)

    def test_idempotent(self, rng):
        k = rbf_kernel(rng.standard_normal((3, 9)), 1.0)
        k1 = center_kernel(k)
        np.testing.assert_allclose(center_kernel(k1), k1, atol=1e-12)

    def test_row_sums_vanish(self, rng):
        k_hat = center_kernel(rbf_kernel(rng.standard_normal((4, 20)), 1.5))
        assert np.abs(k_hat.sum(axis=0)).max() < 1e-9
        assert np.abs(k_hat.sum(axis=1)).max() < 1e-9

    def test_asymmetric_rejected(self):
        with pytest.raises(NotSymmetric):
            center_kernel(np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestBuildNpt:
    def test_two_point_hand_decomposition(self):
        # two points at distance 1 and sigma = 1: K_12 = e^{-1/2}, and the
        # centered kernel is [[c, -c], [-c, c]] with c = (1 - e^{-1/2}) / 2
        c = (1.0 - np.exp(-0.5)) / 2.0
        k_hat = np.array([[c, -c], [-c, c]])
        basis = build_npt(np.array([[0.0, 1.0]]), 1.0)
        phi, vals = basis.phi, basis.eigvals_r
        assert vals.shape == (1,)
        assert vals[0] == pytest.approx(2 * c)
        assert phi.shape == (1, 2)
        np.testing.assert_allclose(phi.T @ phi, k_hat, atol=1e-12)

    def test_reconstruction_on_rbf_kernels(self, rng):
        for n, sigma in [(10, 0.5), (40, 1.0), (100, 3.0)]:
            x = rng.standard_normal((5, n))
            k_hat = center_kernel(rbf_kernel(x, sigma))
            basis = build_npt(x, sigma)
            phi, vals = basis.phi, basis.eigvals_r
            rel = np.linalg.norm(phi.T @ phi - k_hat) / np.linalg.norm(k_hat)
            assert rel < 1e-8
            assert vals.min() > 0.0
            assert phi.shape[0] <= n - 1  # the ones vector is always centered out

    def test_duplicate_points_reduce_rank(self):
        x = np.array([[1.0, 1.0, 2.0], [0.0, 0.0, 1.0]])
        basis = build_npt(x, 1.0)
        assert basis.eigvals_r.size < 3

    def test_zero_kernel_raises(self):
        # identical columns: every kernel entry is 1, the centered kernel 0
        with pytest.raises(ZeroKernel):
            build_npt(np.tile([[1.0], [2.0], [3.0]], 4), 1.0)


class TestNptMap:
    def test_training_points_reproduce_phi_columns(self, rng):
        x = rng.standard_normal((4, 25))
        basis = build_npt(x, 1.2)
        mapped = npt_map(x, basis)
        assert np.abs(mapped - basis.phi).max() < 1e-6

    def test_identical_training_data_maps_to_zero(self):
        x = np.ones((2, 4))
        with pytest.raises(ZeroKernel):
            # all points identical: the centered kernel is exactly zero
            build_npt(x, 1.0)

    def test_deterministic(self, rng):
        x = rng.standard_normal((3, 12))
        basis = build_npt(x, 2.0)
        p = rng.standard_normal((3, 1))
        v1 = npt_map(p, basis)
        v2 = npt_map(p, basis)
        assert np.array_equal(v1, v2)
        assert np.all(np.isfinite(v1))

    def test_dimension_mismatch(self, rng):
        basis = build_npt(rng.standard_normal((3, 8)), 1.0)
        with pytest.raises(DimensionMismatch):
            npt_map(np.zeros((5, 1)), basis)


class TestRankClamp:
    def test_oversized_d_is_clamped_to_retained_rank(self, rng, caplog):
        import logging

        from subsvdd.pipeline import MethodSpec, fit_occ_model

        x = rng.standard_normal((3, 12))
        m = MethodSpec(family="ssvdd", kernel="rbf", psi=1, direction="min")
        with caplog.at_level(logging.WARNING, logger="subsvdd"):
            model, _ = fit_occ_model(
                x, m, C=0.3, d=50, beta=1.0, eta=0.01, sigma=1.0, k_max=2, seed=1
            )
        assert model.config["d"] <= 11
        assert model.q.shape[0] == model.config["d"]
        assert any("clamping" in rec.message for rec in caplog.records)


class TestPipelineComposition:
    def test_nonlinear_training_runs_linear_machinery_on_phi(self, rng):
        # explicit feature map then the untouched linear path: the subspace
        # trainer sees Phi exactly as it would see raw linear features
        from subsvdd.settings import parse_method
        from subsvdd.subspace import TrainConfig, train

        x = rng.standard_normal((4, 20))
        basis = build_npt(x, 1.5)
        cfg = TrainConfig(parse_method("nssvdd-linear-psi2-min"), d=2, C=0.3, k_max=3,
                          seed=5)
        fit_on_phi = train(basis.phi, cfg)
        assert fit_on_phi.q.shape == (2, basis.eigvals_r.size)
        assert max(t.orth_error for t in fit_on_phi.trace) <= 1e-10
