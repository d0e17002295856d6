import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsvdd.errors import DimensionMismatch, NotSymmetric, RankDeficient
from oracles import damped_pinv_factor, solve_damped
from subsvdd.numerics import qr_orthonormalize_rows, sym_eig


def pinv(m, rel_tol=1e-10):
    """The oracle's pseudo-inverse U diag(inv) U'."""
    u, inv = damped_pinv_factor(m, rel_tol=rel_tol)
    return (u * inv) @ u.T


class TestQrOrthonormalizeRows:
    def test_orthonormal_input_is_fixed_point(self):
        m = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(qr_orthonormalize_rows(m), m, atol=1e-14)

    def test_scaling_removed(self):
        m = np.array([[2.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
        np.testing.assert_allclose(
            qr_orthonormalize_rows(m), np.array([[1.0, 0, 0], [0, 1.0, 0]]), atol=1e-14
        )

    def test_random_rows_become_orthonormal(self, rng):
        m = rng.standard_normal((3, 5))
        q = qr_orthonormalize_rows(m)
        np.testing.assert_allclose(q @ q.T, np.eye(3), atol=1e-10)

    def test_row_space_preserved(self, rng):
        m = rng.standard_normal((3, 6))
        q = qr_orthonormalize_rows(m)
        # every original row must lie in the span of the output rows
        proj = m @ q.T @ q
        np.testing.assert_allclose(proj, m, atol=1e-10)

    def test_sign_convention_largest_entry_nonnegative(self, rng):
        for _ in range(20):
            q = qr_orthonormalize_rows(rng.standard_normal((2, 4)))
            for row in q:
                assert row[np.argmax(np.abs(row))] >= 0.0

    def test_row_signs_match_row_by_row_rule(self, rng):
        # the rule applied one row at a time; ties go to the first index
        def by_loop(m):
            out = np.linalg.qr(m.T)[0].T.copy()
            for i in range(out.shape[0]):
                j = int(np.argmax(np.abs(out[i])))
                if out[i, j] < 0.0:
                    out[i] = -out[i]
            return out

        tied = [np.array([[-1.0, 1.0, 0.0, 0.0], [0.0, 0.0, -2.0, 2.0]]),
                np.array([[1.0, -1.0, 1.0], [-3.0, 0.0, 3.0]])]
        signs = [rng.choice([-1.0, 1.0], (3, 6)) for _ in range(10)]
        normal = [rng.standard_normal((d, 8)) for d in (1, 3, 8)]
        for m in tied + signs + normal:
            assert np.array_equal(qr_orthonormalize_rows(m), by_loop(m))

    def test_rank_deficient_raises_with_rows(self):
        m = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
        with pytest.raises(RankDeficient) as exc:
            qr_orthonormalize_rows(m)
        assert 1 in exc.value.rows

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(d=st.integers(1, 4), extra=st.integers(0, 3), seed=st.integers(0, 2**32 - 1),
           kinds=st.lists(st.sampled_from(["random", "zero", "copy", "sum"]), min_size=4,
                          max_size=4))
    def test_every_rank_deficiency_names_its_rows(self, d, extra, seed, kinds):
        # rows that are zero, a scaled copy or a sum of earlier rows; each
        # RankDeficient must name at least one row of the matrix, for the
        # caller redraws exactly the rows it names
        gen = np.random.default_rng(seed)
        m = gen.standard_normal((d, d + extra))
        for i, kind in enumerate(kinds[:d]):
            if kind == "zero":
                m[i] = 0.0
            elif kind == "copy" and i:
                m[i] = -3.0 * m[gen.integers(i)]
            elif kind == "sum" and i:
                m[i] = m[:i].sum(axis=0)
        for case in (m, np.zeros_like(m)):
            try:
                qr_orthonormalize_rows(case)
            except RankDeficient as exc:
                assert exc.rows and set(exc.rows) <= set(range(d)), exc.rows
            else:
                assert np.linalg.matrix_rank(case) == d

    def test_wide_requirement(self):
        with pytest.raises(DimensionMismatch):
            qr_orthonormalize_rows(np.ones((3, 2)))


class TestSymEig:
    def test_identity(self):
        vals, _ = sym_eig(np.eye(3))
        np.testing.assert_allclose(vals, [1.0, 1.0, 1.0])

    def test_diagonal_sorted_descending(self):
        vals, _ = sym_eig(np.diag([5.0, 2.0, -1.0]))
        np.testing.assert_allclose(vals, [5.0, 2.0, -1.0])

    def test_reconstruction_and_orthogonality(self, rng):
        for n in (5, 50, 200):
            a = rng.standard_normal((n, n))
            s = 0.5 * (a + a.T)
            lam, u = sym_eig(s)
            assert np.abs(u.T @ u - np.eye(n)).max() < 1e-10
            rec = u @ np.diag(lam) @ u.T
            assert np.linalg.norm(rec - s) / np.linalg.norm(s) < 1e-8

    def test_centered_rbf_kernel_is_psd(self, rng):
        from subsvdd.kernel import center_kernel, rbf_kernel

        x = rng.standard_normal((3, 10))
        k_hat = center_kernel(rbf_kernel(x, 1.0))
        vals, _ = sym_eig(k_hat)
        assert vals.min() >= -1e-10 * vals.max()

    def test_asymmetric_rejected(self):
        with pytest.raises(NotSymmetric):
            sym_eig(np.array([[1.0, 2.0], [0.5, 1.0]]))


class TestPinv:
    """Pseudo-inverse of symmetric matrices from ``damped_pinv_factor``."""

    def test_invertible_diagonal(self):
        np.testing.assert_allclose(
            pinv(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]), atol=1e-14
        )

    def test_zero_matrix(self):
        np.testing.assert_allclose(pinv(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_rank_one(self):
        m = np.array([[1.0, 1.0], [1.0, 1.0]])
        np.testing.assert_allclose(pinv(m), np.full((2, 2), 0.25), atol=1e-12)

    def test_nonpositive_tolerance_rejected(self):
        with pytest.raises(ValueError):
            pinv(np.eye(2), rel_tol=0.0)

    def test_penrose_conditions_random(self, rng):
        for shape in ((5, 5), (20, 8), (8, 20), (50, 50)):
            a = rng.standard_normal(shape)
            m = a @ np.diag(rng.choice([-1.0, 1.0], shape[1])) @ a.T  # rank <= min(shape)
            p = pinv(m)
            scale = np.linalg.norm(m)
            assert np.linalg.norm(m @ p @ m - m) <= 1e-8 * max(scale, 1.0)
            assert np.linalg.norm(p @ m @ p - p) <= 1e-8 * max(np.linalg.norm(p), 1.0)
            assert np.abs((m @ p) - (m @ p).T).max() < 1e-8
            assert np.abs((p @ m) - (p @ m).T).max() < 1e-8


class TestSolveDamped:
    def test_identity(self, rng):
        g = rng.standard_normal(4)
        np.testing.assert_allclose(solve_damped(np.eye(4), g), g, atol=1e-12)

    def test_null_space_component_dropped(self):
        h = np.diag([2.0, 0.0])
        x = solve_damped(h, np.array([4.0, 1.0]))
        np.testing.assert_allclose(x, [2.0, 0.0], atol=1e-12)

    def test_spd_residual(self, rng):
        a = rng.standard_normal((8, 8))
        h = a @ a.T + 0.5 * np.eye(8)
        g = rng.standard_normal(8)
        x = solve_damped(h, g)
        assert np.linalg.norm(h @ x - g) / np.linalg.norm(g) < 1e-8

    def test_matches_direct_solve_when_nonsingular(self, rng):
        a = rng.standard_normal((6, 6))
        h = a @ a.T + np.eye(6)
        g = rng.standard_normal(6)
        ref = np.linalg.solve(h, g)
        assert np.linalg.norm(solve_damped(h, g) - ref) / np.linalg.norm(ref) < 1e-8

    def test_damping_shifts_spectrum(self, rng):
        h = np.diag([1.0, 0.0])
        g = np.array([1.0, 1.0])
        x = solve_damped(h, g, mu=0.5)
        np.testing.assert_allclose(x, [1.0 / 1.5, 2.0], atol=1e-12)
