import dataclasses
import itertools

import numpy as np
import pytest

from conftest import make_blobs
from oracles import TooLarge, damped_pinv_factor, hessian_full, solve_damped
from subsvdd import subspace
from subsvdd.cli import main
from subsvdd.errors import DegenerateSubspace, DimensionMismatch, InfeasibleC, RankDeficient
from subsvdd.numerics import qr_orthonormalize_rows
from subsvdd.settings import parse_method
from subsvdd.subspace import (
    MAX_REDRAWS,
    TrainConfig,
    build_lambda,
    gradient,
    hessian_core,
    init_projection,
    newton_step,
    objective,
    project,
    support_block,
    train,
    update_step,
)
from subsvdd.svdd import AlphaVector, decide_batch, solve_dual

# TrainConfig's old defaults: psi2, min, the newton optimizer
NEWTON = parse_method("nssvdd-linear-psi2-min")
GRADIENT = parse_method("ssvdd-linear-psi2-min")


def random_instance(seed, d=2, big_d=4, n=6, reg=2, beta=1.0, c=None):
    """Seeded problem: orthonormal Q, data, a feasible alpha, its lambda."""
    gen = np.random.default_rng(seed)
    q = init_projection(d, big_d, gen)
    x = gen.standard_normal((big_d, n))
    if c is None:
        c = max(0.4, 1.0 / n)
    alpha = solve_dual((q @ x).T, c)
    lam = build_lambda(reg, alpha)
    return q, x, alpha, lam


def core_matrix(x, alpha, lam):
    """The Hessian block B = 2 M M' from the factor M that hessian_core returns."""
    m = hessian_core(support_block(x, alpha, lam))
    return 2.0 * m @ m.T


def true_curvature(x, alpha, lam, beta):
    """The second derivative of the beta-weighted objective per row of Q:
    B + 2 (beta - 1)(X lam)(X lam)', the core with lam lam' weighted by beta."""
    xl = x @ lam
    return core_matrix(x, alpha, lam) + 2.0 * (beta - 1.0) * np.outer(xl, xl)


def objective_by_summation(q, x, alpha, lam, beta):
    """Literal double-sum + trace evaluation, independent of objective()."""
    y = q @ x
    n = x.shape[1]
    total = 0.0
    for i in range(n):
        total += alpha[i] * float(y[:, i] @ y[:, i])
    for i in range(n):
        for j in range(n):
            total -= alpha[i] * alpha[j] * float(y[:, i] @ y[:, j])
    reg = np.trace(q @ x @ np.outer(lam, lam) @ x.T @ q.T)
    return total + beta * float(reg)


def fd_gradient(q, x, alpha, lam, beta, step=1e-5):
    g = np.zeros_like(q)
    for i in range(q.shape[0]):
        for j in range(q.shape[1]):
            qp = q.copy()
            qp[i, j] += step
            qm = q.copy()
            qm[i, j] -= step
            g[i, j] = (
                objective(qp @ x, alpha, lam, beta) - objective(qm @ x, alpha, lam, beta)
            ) / (2.0 * step)
    return g


def fd_hessian(q, x, alpha, lam, beta, step=1e-5):
    """Central differences of the analytic gradient, columns in row-major order."""
    d, big_d = q.shape
    block = support_block(x, alpha, lam)
    h = np.zeros((d * big_d, d * big_d))
    for i in range(d):
        for j in range(big_d):
            qp = q.copy()
            qp[i, j] += step
            qm = q.copy()
            qm[i, j] -= step
            col = (gradient(qp, block, beta) - gradient(qm, block, beta)) / (2.0 * step)
            h[:, i * big_d + j] = col.reshape(-1)
    return h


class TestProject:
    def test_coordinate_selection(self, rng):
        x = rng.standard_normal((5, 7))
        q = np.hstack([np.eye(2), np.zeros((2, 3))])
        np.testing.assert_allclose(project(q, x), x[:2])

    def test_identity(self, rng):
        x = rng.standard_normal((4, 5))
        np.testing.assert_allclose(project(np.eye(4), x), x)

    def test_norm_bound(self, rng):
        q = rng.standard_normal((2, 4))
        x = rng.standard_normal((4, 9))
        assert np.linalg.norm(project(q, x)) <= np.linalg.norm(q) * np.linalg.norm(x) + 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            project(np.eye(3), np.zeros((4, 2)))


class TestBuildLambda:
    def test_psi1_all_ones(self):
        av = AlphaVector(alpha=np.array([0.2, 0.3, 0.5]), C=1.0)
        np.testing.assert_allclose(build_lambda(1, av), [1.0, 1.0, 1.0])

    def test_psi0_zeros(self):
        av = AlphaVector(alpha=np.array([0.2, 0.8]), C=1.0)
        np.testing.assert_allclose(build_lambda(0, av), [0.0, 0.0])

    def test_psi2_copies_alpha(self):
        av = AlphaVector(alpha=np.array([0.25, 0.75]), C=1.0)
        np.testing.assert_allclose(build_lambda(2, av), av.alpha)

    def test_psi3_bound_alphas_are_dropped(self):
        # both nonzero alphas sit exactly at the bound C, so lambda vanishes
        av = AlphaVector(alpha=np.array([0.0, 0.5, 0.5]), C=0.5)
        np.testing.assert_allclose(build_lambda(3, av), [0.0, 0.0, 0.0])

    def test_psi3_keeps_interior_alphas(self):
        av = AlphaVector(alpha=np.array([0.0, 0.3, 0.7]), C=0.8)
        np.testing.assert_allclose(build_lambda(3, av), [0.0, 0.3, 0.7])


class TestObjective:
    def test_single_point_is_zero(self):
        q = np.array([[1.0, 0.0]])
        x = np.array([[2.0], [1.0]])
        assert objective(q @ x, np.array([1.0]), np.array([0.0]), 1.0) == pytest.approx(0.0)

    def test_zero_q(self, rng):
        x = rng.standard_normal((3, 5))
        a = np.full(5, 0.2)
        assert objective(np.zeros((2, 3)) @ x, a, a, 2.0) == 0.0

    def test_matches_literal_summation(self):
        for seed in range(5):
            q, x, alpha, lam = random_instance(seed, reg=2, beta=1.7)
            fast = objective(q @ x, alpha.alpha, lam, 1.7)
            slow = objective_by_summation(q, x, alpha.alpha, lam, 1.7)
            assert fast == pytest.approx(slow, abs=1e-10 * (1 + abs(slow)))


class TestGradient:
    def test_zero_q_gives_zero(self, rng):
        x = rng.standard_normal((4, 6))
        a = np.full(6, 1 / 6)
        g = gradient(np.zeros((2, 4)), support_block(x, a, a), 1.0)
        np.testing.assert_allclose(g, 0.0)

    def test_single_point_terms_cancel(self):
        q = np.array([[0.6, 0.8]])
        x = np.array([[3.0], [1.0]])
        g = gradient(q, support_block(x, np.array([1.0]), np.array([0.0])), 0.0)
        np.testing.assert_allclose(g, 0.0, atol=1e-12)

    @pytest.mark.parametrize("reg", [0, 1, 2, 3], ids=lambda psi: f"psi{psi}")
    @pytest.mark.parametrize("beta", [0.1, 1.0, 10.0])
    def test_matches_finite_differences(self, reg, beta):
        q, x, alpha, lam = random_instance(hash((f"psi{reg}", beta)) % 1000, reg=reg, beta=beta)
        g = gradient(q, support_block(x, alpha.alpha, lam), beta)
        fd = fd_gradient(q, x, alpha.alpha, lam, beta)
        denom = max(np.linalg.norm(fd), 1e-12)
        assert np.linalg.norm(g - fd) / denom <= 1e-5


class TestHessian:
    def test_d1_full_equals_core(self):
        q, x, alpha, lam = random_instance(3, d=1, big_d=2, n=2)
        b = core_matrix(x, alpha.alpha, lam)
        full = hessian_full(x, alpha.alpha, lam, d=1)
        np.testing.assert_allclose(full, b, atol=1e-12)

    def test_kron_structure_matches_full_assembly(self):
        for seed in range(4):
            d = 2 + seed % 2
            q, x, alpha, lam = random_instance(seed, d=d, big_d=5, n=7, beta=2.5)
            b = core_matrix(x, alpha.alpha, lam)
            full = hessian_full(x, alpha.alpha, lam, d=d)
            np.testing.assert_allclose(np.kron(np.eye(d), b), full, atol=1e-12)

    def test_full_is_symmetric(self):
        q, x, alpha, lam = random_instance(11, d=2, big_d=4, n=6)
        full = hessian_full(x, alpha.alpha, lam, d=2)
        assert np.abs(full - full.T).max() < 1e-12

    def test_zero_data_gives_zero(self):
        a = np.array([0.5, 0.5])
        full = hessian_full(np.zeros((3, 2)), a, a, d=2)
        np.testing.assert_allclose(full, 0.0)

    def test_consistent_mode_matches_fd_of_gradient(self):
        # the beta-consistent Hessian, the step's core plus the rank-one
        # 2 (beta - 1) term, is the true curvature that the step relies on
        for seed, beta in [(0, 0.1), (1, 1.0), (2, 10.0)]:
            q, x, alpha, lam = random_instance(seed, d=2, big_d=4, n=6, beta=beta)
            analytic = np.kron(np.eye(2), true_curvature(x, alpha.alpha, lam, beta))
            fd = fd_hessian(q, x, alpha.alpha, lam, beta)
            denom = max(np.linalg.norm(fd), 1e-12)
            assert np.linalg.norm(analytic - fd) / denom <= 1e-4

    def test_size_cap(self):
        with pytest.raises(TooLarge):
            hessian_full(np.zeros((600, 2)), np.ones(2), np.ones(2), d=5)


class TestUpdateStep:
    def test_eta_tiny_keeps_q_up_to_sign(self):
        q, x, alpha, lam = random_instance(5)
        cfg = TrainConfig(GRADIENT, d=2, C=0.4, eta=1e-300, k_max=2)
        new = update_step(q, support_block(x, alpha.alpha, lam), cfg)
        np.testing.assert_allclose(np.abs(new), np.abs(q), atol=1e-10)

    def test_newton_consistent_collapses_to_scaled_q(self):
        # at beta = 1 the step's Hessian is the beta-consistent one, and with
        # a full-rank B the Newton step is exactly Q, so the raw update is
        # (1 -+ eta) Q; C small enough to spread alpha over > D support
        # vectors keeps B full rank
        for seed in range(10):
            q, x, alpha, lam = random_instance(seed, d=2, big_d=4, n=12, beta=1.0, c=0.15)
            block = support_block(x, alpha.alpha, lam)
            m = hessian_core(block)
            assert np.linalg.matrix_rank(m) == 4
            eta = 0.05
            cfg = TrainConfig(NEWTON, d=2, C=0.15, beta=1.0, eta=eta)
            raw_min = update_step(q, block, cfg)
            raw_max = update_step(q, block, dataclasses.replace(
                cfg, method=parse_method("nssvdd-linear-psi2-max")))
            assert np.abs(raw_min - (1 - eta) * q).max() <= 1e-8
            assert np.abs(raw_max - (1 + eta) * q).max() <= 1e-8

    # (reg, C, D, N, beta): the singular psi0 core and the beta != 1 rank-one
    # term, each with a thin factor (s + 1 < D) and a square one (s + 1 >= D),
    # and psi3, whose lam keeps only the boundary support vectors
    STEP_CASES = [
        (2, 0.4, 4, 9, 2.0),
        (0, 0.3, 8, 20, 1.0),
        (2, 0.3, 8, 20, 2.5),
        (0, 0.05, 4, 30, 1.0),
        (1, 0.05, 4, 30, 2.5),
        (3, 0.1, 6, 25, 3.0),
        (3, 0.3, 8, 20, 0.5),
    ]

    def test_rowwise_step_equals_full_vectorized_solve(self, monkeypatch):
        from subsvdd import subspace

        orders = []

        def sym_eig(mat, real=subspace.sym_eig):
            orders.append(mat.shape[0])
            return real(mat)

        monkeypatch.setattr(subspace, "sym_eig", sym_eig)
        thin = set()
        for (reg, c, big_d, n, beta), seed in itertools.product(self.STEP_CASES, range(3)):
            q, x, alpha, lam = random_instance(seed, d=2, big_d=big_d, n=n, reg=reg,
                                               beta=beta, c=c)
            block = support_block(x, alpha.alpha, lam)
            m = hessian_core(block)
            s = np.count_nonzero(alpha.alpha)
            assert m.shape == (big_d, s + 1)
            thin.add(s + 1 < big_d)
            if reg == 0 and c == 0.3:
                assert np.linalg.matrix_rank(m) < big_d
            orders.clear()
            rowwise = newton_step(q, block, beta)
            # one eigendecomposition, of the smaller Gram of M: M'M when s + 1 < D
            assert orders == [min(s + 1, big_d)]
            h_full = hessian_full(x, alpha.alpha, lam, d=2)
            g = gradient(q, block, beta)
            vec_step = solve_damped(h_full, g.reshape(-1))
            assert np.abs(rowwise.reshape(-1) - vec_step).max() <= 1e-9 * np.abs(vec_step).max()
        assert thin == {True, False}

    def test_newton_step_closed_form(self):
        # newton_step is Q B B^+ + 2 (beta - 1)(Q X lam)(B^+ X lam)'; with a
        # full-rank core that is exactly Q for psi0 and for beta = 1
        for (reg, c, big_d, n, beta), seed in itertools.product(self.STEP_CASES, range(3)):
            q, x, alpha, lam = random_instance(seed, d=2, big_d=big_d, n=n, reg=reg,
                                               beta=beta, c=c)
            block = support_block(x, alpha.alpha, lam)
            m = hessian_core(block)
            u, inv = damped_pinv_factor(2.0 * m @ m.T)
            b_pinv = (u * inv) @ u.T
            xl = block[1]
            closed = (q @ (2.0 * m @ m.T) @ b_pinv
                      + 2.0 * (beta - 1.0) * np.outer(q @ xl, b_pinv @ xl))
            step = newton_step(q, block, beta)
            assert np.abs(step - closed).max() <= 1e-9 * np.abs(closed).max()
            if np.linalg.matrix_rank(m) == big_d and (reg == 0 or beta == 1.0):
                assert np.abs(step - q).max() <= 1e-9

    def test_rank_recovery_redraws_dependent_rows(self):
        from subsvdd.subspace import _orthonormalize_with_recovery

        gen = np.random.default_rng(4)
        bad = np.vstack([np.array([1.0, 2.0, 3.0, 4.0]),
                         np.array([2.0, 4.0, 6.0, 8.0])])
        q = _orthonormalize_with_recovery(bad, gen)
        np.testing.assert_allclose(q @ q.T, np.eye(2), atol=1e-10)

    def test_gradient_step_matches_hand_computation(self):
        q, x, alpha, lam = random_instance(8)
        block = support_block(x, alpha.alpha, lam)
        g = gradient(q, block, 1.0)
        cfg = TrainConfig(GRADIENT, d=2, C=0.4, eta=0.05, k_max=2)
        np.testing.assert_allclose(update_step(q, block, cfg), q - 0.05 * g, atol=1e-12)

    def test_newton_step_matches_hand_computation(self):
        q, x, alpha, lam = random_instance(8)
        block = support_block(x, alpha.alpha, lam)
        cfg = TrainConfig(parse_method("nssvdd-linear-psi2-max"), d=2, C=0.4, beta=2.0, eta=0.05,
                          k_max=2)
        by_hand = q + 0.05 * newton_step(q, block, 2.0)
        np.testing.assert_allclose(update_step(q, block, cfg), by_hand, atol=1e-12)


class TestTrainConfig:
    def test_negative_beta_raises(self):
        with pytest.raises(ValueError, match="beta"):
            TrainConfig(NEWTON, d=1, C=0.5, beta=-1.0)


class TestTrain:
    @pytest.mark.parametrize("kernel", ["linear", "rbf"])
    def test_plain_svdd_keeps_identity_projection(self, kernel):
        from subsvdd.pipeline import fit_occ_model, parse_method

        target, outlier = make_blobs(seed=4, n_target=30, n_outlier=10)
        x_eval = np.hstack([target[:, 20:], outlier])
        truth = np.arange(x_eval.shape[1]) < 10
        model, trace = fit_occ_model(
            target[:, :20], parse_method(f"svdd-{kernel}"), C=0.2, sigma=3.0,
            k_max=7, eval_data=(x_eval, truth),
        )
        assert np.array_equal(model.q, np.eye(model.q.shape[1]))
        assert [(r.iteration, r.orth_error) for r in trace] == [(1, 0.0)]
        assert trace[0].gmean is not None
        assert model.config["k_max"] == 7 and model.config["optimizer"] is None

    @pytest.mark.parametrize("kernel, big_d", [("linear", 1), ("linear", 7), ("linear", 300),
                                               ("rbf", 4)])
    def test_plain_svdd_is_one_pass_at_the_identity(self, monkeypatch, kernel, big_d):
        from subsvdd.pipeline import fit_occ_model, prepare_features

        def no_draw(*args, **kwargs):
            raise AssertionError("plain SVDD drew or re-orthonormalized a projection")

        monkeypatch.setattr(subspace, "init_projection", no_draw)
        monkeypatch.setattr(subspace, "qr_orthonormalize_rows", no_draw)
        x = np.random.default_rng(big_d).standard_normal((big_d, 40))
        method = parse_method(f"svdd-{kernel}")
        sigma = 2.0 if kernel == "rbf" else None
        prepared = prepare_features(x, kernel, sigma)
        work = prepared.scaled if sigma is None else prepared.npt.phi
        # plain SVDD reads no d, beta or eta, and holds Q = I for one pass
        # whatever its k_max and seed
        fit = train(work, TrainConfig(method, C=0.1, d=None, beta=None, eta=None, k_max=7,
                                      seed=3))
        assert fit.q.tobytes() == np.eye(work.shape[0]).tobytes()
        assert [(r.iteration, r.orth_error) for r in fit.trace] == [(1, 0.0)]
        model, _ = fit_occ_model(prepared, method, C=0.1, sigma=sigma, k_max=7, seed=3)
        alpha = fit.description.alpha.alpha
        assert alpha.tobytes() == model.description.alpha.alpha.tobytes()
        assert fit.description.radius_sq == model.description.radius_sq
        # the dual of the features themselves
        assert alpha.tobytes() == solve_dual(work.T, 0.1).alpha.tobytes()

    def test_k_max_one_is_svdd_on_random_subspace(self):
        gen = np.random.default_rng(21)
        x = gen.standard_normal((5, 20))
        cfg = TrainConfig(NEWTON, d=2, C=0.3, k_max=1, seed=77)
        fit = train(x, cfg)
        assert len(fit.trace) == 1
        expected_q = init_projection(2, 5, np.random.default_rng(77))
        np.testing.assert_allclose(fit.q, expected_q)

    def test_zero_hessian_core_gives_zero_step(self):
        # identical samples: the centered support columns and X lam (psi0)
        # are zero, so the core M is zero and so is the Newton step
        x = np.tile([[1.0], [2.0]], (1, 4))
        cfg = TrainConfig(parse_method("nssvdd-linear-psi0-min"), d=1, C=0.5, k_max=3)
        fit = train(x, cfg)
        expected_q = init_projection(1, 2, np.random.default_rng(cfg.seed))
        np.testing.assert_allclose(fit.q, expected_q, rtol=0, atol=1e-15)
        assert fit.description.radius_sq == 0.0

    def test_each_iterate_is_described_once(self, monkeypatch):
        from subsvdd import subspace

        described, scored = [], []

        def describe(alpha, y, real=subspace.describe):
            described.append(real(alpha, y))
            return described[-1]

        def eval_fn(q, desc):
            scored.append(desc)
            return 0.5

        monkeypatch.setattr(subspace, "describe", describe)
        x = np.random.default_rng(8).standard_normal((4, 15))
        cfg = TrainConfig(NEWTON, d=2, C=0.3, k_max=5)
        fit = train(x, cfg, eval_fn=eval_fn)
        # every iterate is scored on its own description, the last one's is the model
        assert len(described) == 5 and list(map(id, scored)) == list(map(id, described))
        assert fit.description is described[-1]
        assert [r.gmean for r in fit.trace] == [0.5] * 5
        described.clear()
        plain = train(x, cfg)
        assert len(described) == 1 and plain.description is described[0]
        assert plain.description.radius_sq == fit.description.radius_sq

    def test_trace_has_k_max_rows(self):
        gen = np.random.default_rng(2)
        x = gen.standard_normal((4, 15))
        cfg = TrainConfig(NEWTON, d=2, C=0.3, k_max=7)
        assert len(train(x, cfg).trace) == 7

    def test_orthonormal_after_every_iteration(self):
        gen = np.random.default_rng(3)
        x = gen.standard_normal((6, 25))
        for optimizer in ("gradient", "newton"):
            for direction in ("min", "max"):
                family = {"gradient": "ssvdd", "newton": "nssvdd"}[optimizer]
                cfg = TrainConfig(
                    parse_method(f"{family}-linear-psi2-{direction}"),
                    d=3, C=0.2, beta=10.0, eta=0.01, k_max=8,
                )
                fit = train(x, cfg)
                assert max(t.orth_error for t in fit.trace) <= 1e-10

    def test_infeasible_c(self):
        x = np.zeros((3, 10)) + np.arange(10)
        with pytest.raises(InfeasibleC):
            train(x, TrainConfig(NEWTON, d=1, C=0.05, k_max=2))

    def test_infeasible_c_raises_before_kernel_basis(self, monkeypatch):
        from subsvdd import pipeline

        def no_basis(*args, **kwargs):
            raise AssertionError("build_npt called for an infeasible C")

        monkeypatch.setattr(pipeline, "build_npt", no_basis)
        x = np.random.default_rng(6).standard_normal((3, 20))
        for method in ("svdd-rbf", "nssvdd-rbf-psi2-min"):
            with pytest.raises(InfeasibleC):
                pipeline.fit_occ_model(x, pipeline.parse_method(method), C=0.04, d=2,
                                       sigma=1.0, zscore=True)

    def test_gradient_traces_reproducible_bitwise(self):
        gen = np.random.default_rng(5)
        x = gen.standard_normal((5, 18))
        for reg in ("psi0", "psi1", "psi2", "psi3"):
            cfg = TrainConfig(
                parse_method(f"ssvdd-linear-{reg}-min"),
                d=2, C=0.25, beta=0.5, eta=0.02, k_max=6, seed=11,
            )
            t1 = [r.objective for r in train(x, cfg).trace]
            t2 = [r.objective for r in train(x, cfg).trace]
            assert t1 == t2

    def test_rotation_equivariance_with_matched_init(self):
        gen = np.random.default_rng(9)
        x = gen.standard_normal((5, 16))
        p, _ = np.linalg.qr(gen.standard_normal((5, 5)))
        q0 = init_projection(2, 5, np.random.default_rng(1))
        cfg = TrainConfig(NEWTON, d=2, C=0.25, beta=2.0, eta=0.05, k_max=6, seed=1)
        trace_a = [r.objective for r in train(x, cfg, q0=q0).trace]
        trace_b = [r.objective for r in train(p @ x, cfg, q0=q0 @ p.T).trace]
        np.testing.assert_allclose(trace_a, trace_b, rtol=0, atol=1e-8)

    def test_blob_benchmark_newton_psi2(self):
        target, outlier = make_blobs(seed=7)
        x_train = target[:, :45]
        x_eval = np.hstack([target[:, 45:], outlier])
        truth = np.array([True] * 15 + [False] * outlier.shape[1])
        cfg = TrainConfig(NEWTON, d=2, C=0.2, beta=1.0, eta=0.01, k_max=20, seed=42)
        fit = train(x_train, cfg)
        _, pos = decide_batch(fit.q @ x_eval, fit.description)
        from subsvdd.metrics import confusion_from_labels, gmean

        assert gmean(confusion_from_labels(truth, pos)) >= 0.95

    def test_psi0_gradient_is_s_svdd_baseline(self):
        # psi0 zeroes lambda, so beta is inert: traces for different beta match
        gen = np.random.default_rng(14)
        x = gen.standard_normal((4, 14))
        psi0 = parse_method("ssvdd-linear-psi0-min")
        base = TrainConfig(psi0, d=2, C=0.3, beta=0.1, eta=0.02, k_max=5, seed=3)
        other = TrainConfig(psi0, d=2, C=0.3, beta=99.0, eta=0.02, k_max=5, seed=3)
        t1 = [r.objective for r in train(x, base).trace]
        t2 = [r.objective for r in train(x, other).trace]
        assert t1 == t2


class TestRedraw:
    """Rows the QR flags as dependent are redrawn, at most MAX_REDRAWS times."""

    @staticmethod
    def _flag_rows(monkeypatch, rows, times):
        """Make the QR flag ``rows`` on its first ``times`` calls; returns the
        list of matrices it is handed."""
        seen = []

        def qr(m):
            seen.append(np.array(m, copy=True))
            if len(seen) <= times:
                raise RankDeficient("flagged", rows=rows)
            return qr_orthonormalize_rows(m)

        monkeypatch.setattr(subspace, "qr_orthonormalize_rows", qr)
        return seen

    def test_only_the_flagged_row_is_redrawn(self, monkeypatch):
        seen = self._flag_rows(monkeypatch, rows=[1], times=1)
        q = init_projection(2, 4, np.random.default_rng(0))
        gen = np.random.default_rng(0)
        first = gen.standard_normal((2, 4))
        assert len(seen) == 2 and seen[0].tobytes() == first.tobytes()
        assert seen[1][0].tobytes() == first[0].tobytes()
        assert seen[1][1].tobytes() == gen.standard_normal(4).tobytes()
        assert q.tobytes() == qr_orthonormalize_rows(seen[1]).tobytes()

    def test_a_subspace_that_stays_dependent_fails(self, monkeypatch):
        seen = self._flag_rows(monkeypatch, rows=[0], times=MAX_REDRAWS + 1)
        with pytest.raises(DegenerateSubspace, match=f"after {MAX_REDRAWS} redraws"):
            init_projection(2, 4, np.random.default_rng(0))
        assert len(seen) == MAX_REDRAWS + 1

    def test_train_exits_3(self, monkeypatch, tmp_path):
        self._flag_rows(monkeypatch, rows=[0], times=MAX_REDRAWS + 1)
        target, _ = make_blobs(n_target=20, n_outlier=0, dim=3)
        data = tmp_path / "d.csv"
        data.write_text("".join(",".join(map(repr, col)) + ",t\n" for col in target.T.tolist()))
        out = tmp_path / "m.json"
        code = main(["train", "--data", str(data), "--target-class", "t", "--out", str(out),
                     "--dim", "2", "--iters", "3"])
        assert code == 3 and not out.exists()
