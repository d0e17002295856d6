import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsvdd import svdd
from subsvdd.errors import (
    DimensionMismatch,
    InfeasibleC,
    NoSupportVectors,
    NotConverged,
)
from oracles import assert_feasible, dual_objective, pair_sweep_full, simplex_grid_max
from subsvdd.pipeline import fit_occ_model, parse_method
from subsvdd.svdd import (
    AlphaVector,
    _face_step,
    _gram_block,
    _pair_sweep,
    check_feasible_c,
    decide_batch,
    describe,
    solve_dual,
)


class TestSolveDual:
    def test_single_point(self):
        # the general loop, with no case of its own for N = 1, puts all the
        # mass on the point for every feasible C
        for c in (1.0, 2.0, 1e6):
            av = solve_dual(np.array([[2.0]]), C=c)
            np.testing.assert_allclose(av.alpha, [1.0])
            assert av.alpha.tolist() == [1.0] and av.C == c

    def test_symmetric_pair(self):
        y = np.array([[-1.0, 1.0]])
        av = solve_dual(y.T, C=1.0)
        np.testing.assert_allclose(av.alpha, [0.5, 0.5], atol=1e-9)

    def test_infeasible_c(self):
        with pytest.raises(InfeasibleC):
            solve_dual(np.eye(4), C=0.2)

    @pytest.mark.parametrize("c", [float("inf"), float("nan"), True, "0.5"],
                             ids=["inf", "nan", "true", "str"])
    def test_c_out_of_range(self, c):
        # C = inf would make the cold start's remainder 1 - 0 * inf a NaN
        for call in (lambda: solve_dual(np.eye(4), C=c), lambda: check_feasible_c(c, 4)):
            with pytest.raises(ValueError, match="^C must be a positive finite number"):
                call()

    def test_c_equal_one_over_n_forces_uniform(self):
        av = solve_dual(np.eye(4), C=0.25)
        np.testing.assert_allclose(av.alpha, np.full(4, 0.25), atol=1e-12)

    def test_points_must_be_rows(self):
        with pytest.raises(DimensionMismatch):
            solve_dual(np.ones(4), C=0.5)

    def test_constraints_always_hold(self, rng):
        for _ in range(10):
            y = rng.standard_normal((3, 12))
            c = float(rng.uniform(1.0 / 12, 0.6))
            av = solve_dual(y.T, c)
            assert_feasible(av)

    @pytest.mark.parametrize(
        "n,c,seed",
        [(2, 1.0, 0), (3, 0.5, 1), (4, 0.5, 2), (4, 0.3, 3), (5, 0.21, 4)],
    )
    def test_matches_simplex_grid_oracle(self, n, c, seed):
        gen = np.random.default_rng(seed)
        y = gen.standard_normal((2, n))
        gram = y.T @ y
        av = solve_dual(y.T, c)
        got = dual_objective(gram, av.alpha)
        oracle = simplex_grid_max(gram, c, step=1e-3)
        assert got >= oracle - 1e-5

    def test_frozen_small_instance(self):
        # seeded 2-D points, N=3, C=0.5; oracle value computed once with
        # simplex_grid_max and frozen here as a regression anchor
        gen = np.random.default_rng(99)
        y = gen.standard_normal((2, 3))
        gram = y.T @ y
        oracle = simplex_grid_max(gram, 0.5, step=1e-3)
        av = solve_dual(y.T, 0.5)
        assert dual_objective(gram, av.alpha) >= oracle - 1e-5
        assert oracle == pytest.approx(3.0267915186149077, abs=1e-9)

    def test_deterministic(self, rng):
        y = rng.standard_normal((3, 15))
        a1 = solve_dual(y.T, 0.2).alpha
        a2 = solve_dual(y.T, 0.2).alpha
        assert np.array_equal(a1, a2)

    def test_not_converged_when_budget_exhausted(self, rng):
        from subsvdd.errors import NotConverged

        y = rng.standard_normal((3, 30))
        with pytest.raises(NotConverged):
            solve_dual(y.T, 0.1, max_passes=2)

    def test_translation_invariance_of_alpha(self, rng):
        y = rng.standard_normal((2, 10))
        t = np.array([5.0, -3.0])
        a1 = solve_dual(y.T, 0.3).alpha
        a2 = solve_dual((y + t[:, None]).T, 0.3).alpha
        np.testing.assert_allclose(a1, a2, atol=1e-9)


# alpha entries are multiples of 1/UNITS, so sum(alpha) = 1 and the bounds
# 0 and C hold exactly
UNITS = 64


@st.composite
def sweep_instances(draw):
    """Points as rows (possibly rank-deficient, with duplicates), their G_ii,
    a feasible alpha with entries exactly at 0 and at C, and the dual
    gradient."""
    n = draw(st.integers(2, 12))
    rank = draw(st.integers(1, n))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        pts = gen.integers(-2, 3, (rank, n)).astype(float)  # ties in the gradient
    else:
        pts = gen.standard_normal((rank, n))
    for src, dst in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                  max_size=3)):
        pts[:, dst] = pts[:, src]
    points = pts.T
    gram = _gram_block(points, points)
    cap = draw(st.integers(-(-UNITS // n), UNITS))
    counts = draw(st.lists(st.integers(0, cap), min_size=n, max_size=n))
    # move units onto or off the entries in turn until they sum to UNITS;
    # cap * n >= UNITS, so this stays within [0, cap]
    excess = sum(counts) - UNITS
    for k in range(n):
        move = max(-counts[k], min(cap - counts[k], -excess))
        counts[k] += move
        excess += move
    alpha = np.array(counts, dtype=float) / UNITS
    diag = np.diag(gram).copy()
    return diag, points, alpha, diag - 2.0 * gram @ alpha, cap / UNITS


class TestPairSweep:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(sweep_instances())
    def test_block_matches_full_sweep(self, instance):
        diag, points, alpha, grad, c = instance
        assert alpha.sum() == 1.0 and alpha.min() >= 0.0 and alpha.max() <= c
        full = pair_sweep_full(diag, points, alpha, grad, c)
        block = _pair_sweep(diag, points, alpha, grad, c)
        if full[3] > 0.0:
            assert block == full
        else:
            assert block[3] == 0.0
        # one row per tile: ties between rows are settled across tiles
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(svdd, "SWEEP_TILE", 1)
            assert _pair_sweep(diag, points, alpha, grad, c) == block

    @staticmethod
    def spread(n, seed=0):
        """Centered points with alpha = 1/N spread over all of them, C = 0.5:
        nearly every pair can gain, so the block is about N x N."""
        gen = np.random.default_rng(seed)
        pts = gen.standard_normal((n, 5)) * gen.uniform(0.5, 2.0, 5)
        pc = np.ascontiguousarray(pts - pts.mean(axis=0))
        diag = np.einsum("ik,ik->i", pc, pc)
        alpha = np.full(n, 1.0 / n)
        return diag, pc, alpha, diag - 2.0 * pc @ (pc.T @ alpha), 0.5

    @pytest.mark.parametrize("tile", [7, 1000, svdd.SWEEP_TILE])
    @pytest.mark.parametrize("n", [40, 300])
    def test_row_tiles_match_full_sweep(self, n, tile, monkeypatch):
        # tiles of one row, of a few rows and (the default) the whole block
        monkeypatch.setattr(svdd, "SWEEP_TILE", tile)
        instance = self.spread(n, seed=n)
        full = pair_sweep_full(*instance)
        assert full[3] > 0.0
        assert _pair_sweep(*instance) == full

    def test_tiles_give_the_one_block_result(self, monkeypatch):
        instance = self.spread(1000)
        tiled = _pair_sweep(*instance)
        monkeypatch.setattr(svdd, "SWEEP_TILE", 2**40)
        assert _pair_sweep(*instance) == tiled

    def test_sweep_memory_is_bounded(self):
        # one N x N float64 array at N = 2000 is 30.5 MB; scoring the whole
        # block at once takes about 183 MB
        instance = self.spread(2000)
        tracemalloc.start()
        try:
            best = _pair_sweep(*instance)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert best[3] > 0.0
        assert peak <= 32 * 2**20

    def test_full_sweep_gives_bit_identical_fit(self, monkeypatch):
        gen = np.random.default_rng(400)
        x = gen.standard_normal((10, 400)) * gen.uniform(0.5, 2.0, (10, 1))
        spec = parse_method("nssvdd-linear-psi2-min")
        kw = dict(C=0.01, d=3, k_max=4, seed=1)
        model, _ = fit_occ_model(x, spec, **kw)
        gains = []

        def full(*args):
            out = pair_sweep_full(*args)
            gains.append(out[3])
            return out

        monkeypatch.setattr(svdd, "_pair_sweep", full)
        swapped, _ = fit_occ_model(x, spec, **kw)
        # every pair update and each dual solve's certificate come from the
        # sweep: at least one sweep per solve, and the best pairs gain
        assert len(gains) >= kw["k_max"] and min(gains) > 0.0
        assert np.array_equal(model.q, swapped.q)
        assert np.array_equal(model.description.alpha.alpha, swapped.description.alpha.alpha)
        assert model.description.radius_sq == swapped.description.radius_sq


class TestDescribe:
    def test_symmetric_pair(self):
        y = np.array([[-1.0, 1.0], [0.0, 0.0]])
        av = AlphaVector(alpha=np.array([0.5, 0.5]), C=1.0)
        desc = describe(av, y)
        np.testing.assert_allclose(desc.center, [0.0, 0.0], atol=1e-12)
        assert desc.radius_sq == pytest.approx(1.0)

    def test_single_point_radius_zero(self):
        av = AlphaVector(alpha=np.array([1.0]), C=1.0)
        desc = describe(av, np.array([[3.0], [4.0]]))
        np.testing.assert_allclose(desc.center, [3.0, 4.0])
        assert desc.radius_sq == 0.0
        assert desc.boundary_sv_indices.size == 0

    def test_radius_without_boundary_sv_is_primal_optimal(self):
        # both outer points sit at C, the inner two at 0: no boundary support
        # vector, so every R^2 in [0.01, 1] is optimal; R^2 is the midpoint
        y = np.array([[-1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.1, -0.1]])
        av = AlphaVector(alpha=np.array([0.5, 0.5, 0.0, 0.0]), C=0.5)
        desc = describe(av, y)
        assert desc.boundary_sv_indices.size == 0
        assert desc.radius_sq == pytest.approx(0.505)
        dist = ((y - desc.center[:, None]) ** 2).sum(axis=0)

        def primal(r2):
            return r2 + av.C * np.maximum(dist - r2, 0.0).sum()

        assert primal(desc.radius_sq) == pytest.approx(min(primal(r) for r in dist))

    def test_radius_when_every_alpha_at_c(self):
        av = AlphaVector(alpha=np.array([0.5, 0.5]), C=0.5)
        desc = describe(av, np.array([[-1.0, 1.0], [0.0, 0.0]]))
        assert desc.boundary_sv_indices.size == 0
        assert desc.radius_sq == pytest.approx(0.5)

    def test_no_support_vectors_defensive(self):
        av = AlphaVector(alpha=np.zeros(3), C=1.0)
        with pytest.raises(NoSupportVectors):
            describe(av, np.zeros((2, 3)))

    def test_kkt_complementarity_on_cloud(self, rng):
        y = rng.standard_normal((2, 20))
        c = 0.2
        av = solve_dual(y.T, c)
        desc = describe(av, y)
        dist = ((y - desc.center[:, None]) ** 2).sum(axis=0)
        slack = 1e-6 * (1.0 + desc.radius_sq)
        at_bound = av.alpha >= c - 1e-6 * c
        interior = av.alpha <= 1e-6 * c
        assert np.all(dist[at_bound] >= desc.radius_sq - slack)
        assert np.all(dist[interior] <= desc.radius_sq + slack)
        # boundary support vectors sit on the sphere
        for s in desc.boundary_sv_indices:
            assert dist[s] == pytest.approx(desc.radius_sq, rel=1e-6, abs=1e-9)


class TestDecide:
    def _desc(self):
        y = np.array([[-1.0, 1.0], [0.0, 0.0]])
        av = AlphaVector(alpha=np.array([0.5, 0.5]), C=1.0)
        return describe(av, y)

    def test_center_is_positive(self):
        desc = self._desc()
        dist, pos = decide_batch(desc.center[:, None], desc)
        assert dist[0] == pytest.approx(0.0, abs=1e-12)
        assert pos[0]

    def test_far_point_negative(self):
        desc = self._desc()
        dist, pos = decide_batch(np.array([[0.0], [3.0]]), desc)
        assert dist[0] == pytest.approx(9.0)
        assert not pos[0]

    def test_dimension_mismatch(self):
        desc = self._desc()
        with pytest.raises(DimensionMismatch):
            decide_batch(np.array([[1.0], [2.0], [3.0]]), desc)

    def test_translation_covariance_end_to_end(self, rng):
        y = rng.standard_normal((2, 15))
        t = np.array([2.0, -7.0])
        av1 = solve_dual(y.T, 0.25)
        yt = y + t[:, None]
        av2 = solve_dual(yt.T, 0.25)
        d1 = describe(av1, y)
        d2 = describe(av2, yt)
        np.testing.assert_allclose(d2.center, d1.center + t, atol=1e-8)
        assert d2.radius_sq == pytest.approx(d1.radius_sq, abs=1e-8)
        probes = rng.standard_normal((2, 30))
        _, lab1 = decide_batch(probes, d1)
        _, lab2 = decide_batch(probes + t[:, None], d2)
        assert np.array_equal(lab1, lab2)


@st.composite
def dual_instances(draw):
    """Centered points as rows (possibly rank-deficient, with duplicates) and
    a box bound C in [1/N, 1.5], with C = 1/N exactly and C N = 1 - 5e-10
    (inside the feasibility slack) among the draws."""
    n = draw(st.integers(2, 12))
    rank = draw(st.integers(1, n))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = gen.standard_normal((rank, n)) * gen.uniform(0.1, 10.0)
    for src, dst in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                  max_size=3)):
        pts[:, dst] = pts[:, src]
    pts -= pts.mean(axis=1, keepdims=True)
    c = draw(st.one_of(st.just(1.0 / n), st.just((1.0 - 5e-10) / n),
                       st.floats(1.0 / n, 1.5)))
    return pts.T, c


@st.composite
def shifted_instances(draw):
    """Rows with unequal spreads, the same rows shifted by up to 1e7 times
    their spread, and a box bound C in [1/N, 1]."""
    n = draw(st.integers(2, 30))
    k = draw(st.integers(1, 6))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = gen.standard_normal((n, k)) * gen.uniform(0.1, 10.0, k)
    shift = gen.choice([-1.0, 1.0], k) * 10.0 ** draw(st.floats(0.0, 7.0)) * pts.std(axis=0)
    return pts, pts + shift, draw(st.floats(1.0 / n, 1.0))


class TestLowRankSolve:
    @pytest.mark.parametrize("c", [0.5, 0.05, 0.005])
    def test_no_n_by_n_array(self, c):
        # an N x N float64 array at N = 2000 is 30.5 MB
        gen = np.random.default_rng(0)
        pts = gen.standard_normal((2000, 5)) * gen.uniform(0.5, 2.0, 5)
        tracemalloc.start()
        try:
            solve_dual(pts, c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(shifted_instances())
    def test_shift_keeps_alpha_and_dual_value(self, instance):
        pts, moved, c = instance
        alpha = solve_dual(pts, c).alpha
        moved_alpha = solve_dual(moved, c).alpha
        np.testing.assert_allclose(moved_alpha, alpha, rtol=0, atol=1e-4 * c)
        # both solutions are scored on the unshifted points
        centered = pts - pts.mean(axis=0)
        gram = centered @ centered.T
        tol = 1e-12 * max(1.0, float(np.diag(gram).max()))
        gap = dual_objective(gram, alpha) - dual_objective(gram, moved_alpha)
        assert abs(gap) <= pts.shape[0] * tol


class TestColdStart:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(dual_instances())
    def test_start_is_feasible_and_reaches_the_uniform_starts_optimum(self, instance):
        points, c = instance
        n = points.shape[0]
        gram = _gram_block(points, points)
        diag = np.diag(gram).copy()
        start = svdd._cold_start(diag, c)
        assert_feasible(AlphaVector(alpha=start, C=c), tol=1e-9)
        tol = 1e-12 * max(1.0, float(diag.max()))
        alpha = solve_dual(points, c).alpha
        grad = diag - 2.0 * gram @ alpha
        assert pair_sweep_full(diag, points, alpha, grad, c)[3] <= tol
        # from the uniform start every alpha can be free, so the solve can
        # take face steps; its result carries the same certificate
        uniform = solve_dual(points, c, alpha0=np.full(n, 1.0 / n)).alpha
        assert_feasible(AlphaVector(alpha=uniform, C=c), tol=1e-9)
        grad = diag - 2.0 * gram @ uniform
        assert pair_sweep_full(diag, points, uniform, grad, c)[3] <= tol
        gap = n * tol
        assert abs(dual_objective(gram, alpha) - dual_objective(gram, uniform)) <= gap
        # the dual falls by at least ||Y alpha - Y alpha*||^2 away from its
        # optimum alpha*, so an objective within gap of the optimum places the
        # center within sqrt(gap) of the optimal one
        dist = np.linalg.norm(points.T @ alpha - points.T @ uniform)
        assert dist <= 2.0 * np.sqrt(gap)

    def test_mass_on_the_farthest_points(self):
        diag = np.array([1.0, 4.0, 2.0, 4.0, 3.0])
        np.testing.assert_allclose(svdd._cold_start(diag, 0.3), [0, 0.3, 0.1, 0.3, 0.3])
        np.testing.assert_array_equal(svdd._cold_start(diag, 1.0), [0, 1, 0, 0, 0])
        np.testing.assert_array_equal(svdd._cold_start(diag, 1.5), [0, 1, 0, 0, 0])
        np.testing.assert_array_equal(svdd._cold_start(diag, 0.2), np.full(5, 0.2))

    def test_seeds_shaped_solve_fits_a_budget_the_uniform_start_exceeds(self):
        # from alpha = 1/N an exchange zeroes at most one alpha, so reaching
        # about 10 support vectors out of 40 takes at least 30 updates
        gen = np.random.default_rng(0)
        mean = np.array([14.85, 14.56, 0.871, 5.63, 3.26, 3.70, 5.41])
        std = np.array([2.91, 1.31, 0.024, 0.44, 0.38, 1.50, 0.49])
        y = mean[:, None] + std[:, None] * gen.standard_normal((7, 40))
        alpha = solve_dual(y.T, 0.1, max_passes=20).alpha
        assert np.count_nonzero(alpha) <= 20
        with pytest.raises(NotConverged):
            solve_dual(y.T, 0.1, max_passes=20, alpha0=np.full(40, 1.0 / 40))


FLAT_DUAL = Path(__file__).parent / "fixtures" / "flat_dual" / "seeds_rosa37.json"


def face_instance(points, alpha):
    """What ``solve_dual`` hands ``_face_step``: centered points, G_ii, the
    gradient at alpha, and the Gram matrix for the checks."""
    pc = points - points.mean(axis=0)
    gram = _gram_block(pc, pc)
    diag = np.diag(gram).copy()
    return pc, diag, diag - 2.0 * gram @ alpha, gram


def certificate_gain(points, alpha, c):
    """Best pair gain at alpha on the centered points, and the solver's tol."""
    pc, diag, grad, _ = face_instance(points, alpha)
    return pair_sweep_full(diag, pc, alpha, grad, c)[3], 1e-12 * max(1.0, float(diag.max()))


class TestFaceStep:
    def test_flat_face_puts_one_alpha_on_a_bound(self):
        # k = 1 and |F| = 5 > k + 1: the dual is linear along a move on F
        pts = np.random.default_rng(3).standard_normal((7, 1))
        c = 0.3
        alpha = np.array([0.1, 0.15, 0.2, 0.1, 0.15, 0.3, 0.0])
        pc, diag, grad, gram = face_instance(pts, alpha)
        tol = 1e-12 * max(1.0, float(diag.max()))
        new = _face_step(diag, pc, alpha, grad, c, tol)
        assert new is not None
        assert new.min() >= 0.0 and new.max() <= c
        assert abs(new.sum() - alpha.sum()) <= 1e-14
        np.testing.assert_array_equal(new[5:], alpha[5:])
        assert np.count_nonzero((new[:5] == 0.0) | (new[:5] == c)) == 1
        # the move kept the center: P_F'v = 0
        np.testing.assert_allclose(pc.T @ new, pc.T @ alpha, rtol=0, atol=1e-15)
        assert dual_objective(gram, new) > dual_objective(gram, alpha)

    def test_curved_face_step_reaches_the_face_optimum(self):
        # k = 3 and |F| = 4 <= k + 1. F is a perturbed regular tetrahedron,
        # whose circumcenter the free alphas can reach inside the box, so the
        # Newton step is not clipped
        tet = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
        gen = np.random.default_rng(0)
        pts = np.vstack([tet + 0.05 * gen.standard_normal((4, 3)),
                         [[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]], 0.2 * gen.standard_normal((2, 3))])
        c = 0.3
        alpha = np.array([0.1, 0.25, 0.2, 0.15, 0.0, 0.3, 0.0, 0.0])
        pc, diag, grad, gram = face_instance(pts, alpha)
        tol = 1e-12 * max(1.0, float(diag.max()))
        new = _face_step(diag, pc, alpha, grad, c, tol)
        assert new is not None
        np.testing.assert_array_equal(new[4:], alpha[4:])
        assert new[:4].min() > 0.0 and new[:4].max() < c
        assert abs(new.sum() - alpha.sum()) <= 1e-14
        assert np.ptp(grad[:4]) > 1.0
        assert np.ptp((diag - 2.0 * gram @ new)[:4]) <= tol
        assert dual_objective(gram, new) > dual_objective(gram, alpha)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(sweep_instances())
    def test_step_stays_feasible_and_does_not_lower_the_dual(self, instance):
        diag, points, alpha, grad, c = instance
        tol = 1e-12 * max(1.0, float(diag.max()))
        new = _face_step(diag, points, alpha, grad, c, tol)
        if new is None:
            return
        free = (alpha > 0.0) & (alpha < c)
        np.testing.assert_array_equal(new[~free], alpha[~free])
        assert new.min() >= 0.0 and new.max() <= c
        assert abs(new.sum() - 1.0) <= 1e-14
        gram = _gram_block(points, points)
        assert dual_objective(gram, new) >= dual_objective(gram, alpha) - tol

    def test_flat_dual_converges(self):
        # pair updates alone needed more than the 10 N^2 = 12,250 cap here,
        # warm-started or not (see fixtures/flat_dual/README.md)
        case = json.loads(FLAT_DUAL.read_text())
        pts, c = np.array(case["points"]), case["C"]
        for start in (np.array(case["alpha0"]), None):
            alpha = solve_dual(pts, c, max_passes=100, alpha0=start).alpha
            assert_feasible(AlphaVector(alpha=alpha, C=c), tol=1e-12)
            gain, tol = certificate_gain(pts, alpha, c)
            assert gain <= tol

    def test_flat_dual_fit_converges(self):
        x = np.array(json.loads(FLAT_DUAL.read_text())["x"])
        model, trace = fit_occ_model(
            x, parse_method("nssvdd-rbf-psi2-min"), C=0.4, d=5, sigma=0.1, beta=100.0,
            eta=0.01, k_max=10, seed=37,
        )
        assert len(trace) == 10
        assert model.description.sv_indices.size >= 3

    def test_cell_solve_fits_a_budget_the_pair_updates_exceed(self):
        # shaped like a fit-store grid cell's solve: N = 110, k = 10, points
        # of near-constant norm as in an rbf feature space, C = 0.06; pair
        # updates alone take 906 here
        gen = np.random.default_rng(0)
        x = gen.standard_normal((110, 40)) * 0.9 ** np.arange(40)
        pts = (x / np.linalg.norm(x, axis=1, keepdims=True))[:, :10]
        c = 0.06
        alpha = solve_dual(pts, c, max_passes=200).alpha
        assert 3 <= np.count_nonzero((alpha > 0.0) & (alpha < c)) <= 11
        gain, tol = certificate_gain(pts, alpha, c)
        assert gain <= tol
