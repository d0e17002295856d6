"""SVDD in a fixed feature space: dual solver, hypersphere description, decisions.

The dual maximizes sum_i a_i G_ii - sum_ij a_i G_ij a_j over the simplex
sum(a) = 1 with box 0 <= a_i <= C, where G = P P' is the Gram matrix of the
N training points, the rows of P (their projections in ``subspace.train``,
their features for plain SVDD). Because sum(a) = 1, the dual does not change
when every point moves by the same offset, so ``solve_dual`` centers the
points itself and works on Pc, the points less their mean: the solution does
not depend on where the origin lies. G is never formed. The solver keeps
h = G a = Pc (Pc' a) in O(Nk) for k columns and updates it after each
exchange from the two rows it moved, and it forms G_ij only for the rows and
columns of the block it scores. The center is c = sum_i a_i y_i in the
caller's coordinates, and a point is inside the description when
||y - c||^2 <= R^2.

The solver is a deterministic pairwise coordinate exchange: every update
applies the feasible pair exchange of largest gain (maximal-gain working-set
selection, Fan, Chen & Lin 2005), by the closed-form 2-variable solution
clipped to the box. That pair is found on the block of pairs that can gain at
all (i free to grow, j free to shrink, gradient of i above that of j); every
other pair's step and gain are exactly 0, so the block gives the same answer
as scoring all N^2 pairs. The gradient is updated incrementally; when the
best gain falls to ``tol`` after an update, the gradient is recomputed from
scratch and the block scored once more. The solve stops only when the best
gain on a freshly computed gradient is at most ``tol``, which certifies that
no feasible exchange improves the objective by more; a start that is already
optimal costs one sweep. Without a warm start the solver begins with
alpha = C on the floor(1/C) points of largest G_ii, the points farthest from
the mean, where the support vectors lie; an exchange zeroes at most one
alpha, so a start spread over all N points would need at least N - #SV
updates.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    InfeasibleC,
    NoSupportVectors,
    NotConverged,
)

# alpha_i counts as a support vector when alpha_i > SV_EPS_FACTOR * C, and as
# a boundary support vector when additionally alpha_i < C - SV_EPS_FACTOR * C.
SV_EPS_FACTOR = 1e-6


@dataclass(frozen=True)
class AlphaVector:
    """Dual solution: simplex weights alpha with box bound C."""

    alpha: np.ndarray
    C: float

    def validate(self, tol=1e-8):
        a = self.alpha
        if abs(a.sum() - 1.0) > tol:
            raise ValueError(f"sum(alpha) = {a.sum()!r}, expected 1")
        if a.min() < -tol or a.max() > self.C + tol:
            raise ValueError("alpha outside [0, C]")


@dataclass(frozen=True)
class DataDescription:
    """Trained hypersphere: center, squared radius and support-vector index sets."""

    alpha: AlphaVector
    center: np.ndarray
    radius_sq: float
    sv_indices: np.ndarray = field(repr=False)
    boundary_sv_indices: np.ndarray = field(repr=False)


def check_feasible_c(C, n):
    """Raise InfeasibleC unless N points admit sum(alpha) = 1 with alpha <= C."""
    if C * n < 1.0 - 1e-9:
        raise InfeasibleC(f"C = {C} < 1/N = {1.0 / n}")


def _gram_block(a, b):
    """Gram entries a_i . b_j for the rows of a and b.

    Non-optimizing ``einsum`` on C-ordered rows sums the k products of each
    entry in the same order whatever the shapes of a and b, so a block's
    entries are the same bits as the full product's (``@`` is not: BLAS
    splits the sums by the shape of the block).
    """
    return np.einsum("ik,jk->ij", np.ascontiguousarray(a), np.ascontiguousarray(b))


def _pair_sweep(diag, points, alpha, grad, C):
    """Best feasible pairwise exchange: returns (i, j, t, improvement).

    ``points`` are the rows of P, G = P P', and ``diag`` holds G_ii. For the
    ordered pair (i, j), mass t >= 0 moves from j to i; the gain of the
    optimal clipped step is num*t - den*t^2 with num = grad_i - grad_j and
    den = G_ii + G_jj - 2 G_ij (>= 0 for PSD G). Only positive directions
    are scanned; the reversed pair covers the other sign. den <= 0
    (numerically) degrades the subproblem to a linear one, where the optimal
    move is the full boundary step; flooring den makes the exact quotient
    land beyond the bound and clip to it without special cases.

    A pair gains only when alpha_i < C, alpha_j > 0 and num > 0. So only rows
    i with alpha_i < C and grad_i above the least grad_j over alpha_j > 0,
    and columns j with alpha_j > 0 and grad_j below the largest grad_i over
    alpha_i < C, are scored, and G_ij is formed for those alone
    (``_gram_block``); every other pair has step and gain exactly 0. On the
    block the bound t_hi is positive, and a pair with num <= 0 gets a step
    of (signed) zero from the clip at 0, as den is floored above 0; so the
    block holds the same values as the full N x N scan, up to the sign of a
    zero gain, in the same row-major order, and it returns the same
    maximum and the same first argmax. With no positive gain it returns
    (0, 0, 0.0, 0.0).
    """
    up = alpha < C
    dn = alpha > 0.0
    g_up, g_dn = grad[up], grad[dn]
    if g_up.size and g_dn.size:
        rows = np.nonzero(up & (grad > g_dn.min()))[0]
        cols = np.nonzero(dn & (grad < g_up.max()))[0]
        if rows.size:
            num = grad[rows][:, None] - grad[cols][None, :]
            den = (diag[rows][:, None] + diag[cols][None, :]
                   - 2.0 * _gram_block(points[rows], points[cols]))
            t_hi = np.minimum(alpha[cols][None, :], C - alpha[rows][:, None])
            t = np.minimum(np.maximum(num / (2.0 * np.maximum(den, 1e-30)), 0.0), t_hi)
            gain = num * t - den * t * t
            r, c = divmod(int(np.argmax(gain)), cols.size)
            if gain[r, c] > 0.0:
                return int(rows[r]), int(cols[c]), float(t[r, c]), float(gain[r, c])
    return 0, 0, 0.0, 0.0


def _cold_start(diag, C):
    """Feasible start with the mass on the points of largest G_ii.

    alpha = C on the floor(1/C) points of largest G_ii (ties in index order)
    and the remainder 1 - floor(1/C) C on the next one. When C N is within
    the feasibility slack of 1, no such split fits and the start is the
    uniform 1/N, the only point with sum 1 whose entries exceed C by at most
    that slack.
    """
    n = diag.shape[0]
    k = int(1.0 / C)
    if k >= n:
        return np.full(n, 1.0 / n)
    order = np.argsort(-diag, kind="stable")
    alpha = np.zeros(n)
    alpha[order[:k]] = C
    alpha[order[k]] = min(max(1.0 - k * C, 0.0), C)
    return alpha


def solve_dual(points, C, tol=None, max_passes=None, alpha0=None):
    """Solve the SVDD dual of the N x k ``points`` (one row per sample) for box bound ``C``.

    The dual's Gram matrix is G = Pc Pc' of the points less their mean
    (centering is exact because sum(alpha) = 1); it is never formed, so the
    solve needs O(Nk) memory besides the scored block. A caller holding a
    d x N array of columns passes its transpose. Deterministic for fixed
    inputs. ``tol`` is the KKT residual: at return no feasible pairwise
    exchange improves the objective by more than tol. The default,
    1e-12 * max(1, max G_ii), is far tighter than the documented 1e-6 bound
    so that boundary support vectors agree with the radius to ~1e-6
    relative. Each update takes the best pair of ``_pair_sweep``, scored on
    the block of pairs that can gain, which near the solution is a few rows
    and columns, not N x N; the final sweep, on a freshly computed
    G alpha = Pc (Pc' alpha), is the certificate. ``alpha0`` warm-starts the
    iteration when it is already feasible (the iterative trainer passes the
    previous alpha); otherwise alpha starts at C on the floor(1/C) points of
    largest G_ii (ties in index order), with the remainder on the next point
    (``_cold_start``). Raises InfeasibleC when C < 1/N and NotConverged when
    the criterion is not met within ``max_passes`` pair updates (default
    10*N^2).
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise DimensionMismatch(f"points must be an N x k array, got shape {pts.shape}")
    n = pts.shape[0]
    if n == 0:
        raise DimensionMismatch("no points")
    c_bound = float(C)
    check_feasible_c(c_bound, n)
    if n == 1:
        return AlphaVector(alpha=np.array([1.0]), C=c_bound)
    if max_passes is None:
        max_passes = 10 * n * n

    pc = np.ascontiguousarray(pts - pts.mean(axis=0))
    diag = np.einsum("ik,ik->i", pc, pc)  # G_ii, the same bits as _gram_block's
    if tol is None:
        tol = 1e-12 * max(1.0, float(diag.max()))
    alpha = None
    if alpha0 is not None:
        cand = np.asarray(alpha0, dtype=np.float64)
        if (
            cand.shape == (n,)
            and abs(cand.sum() - 1.0) < 1e-9
            and cand.min() >= 0.0
            and cand.max() <= c_bound + 1e-15
        ):
            alpha = np.clip(cand, 0.0, c_bound)
    if alpha is None:
        alpha = _cold_start(diag, c_bound)
    h = pc @ (pc.T @ alpha)  # cached G @ alpha
    fresh = True  # h formed from scratch, no update since
    updates = 0
    while True:
        i, j, t, gain = _pair_sweep(diag, pc, alpha, diag - 2.0 * h, c_bound)
        if gain <= tol:
            if fresh:
                break
            # the cached h carries the rounding of every update since it was
            # formed: certify on a fresh G @ alpha before declaring convergence
            h = pc @ (pc.T @ alpha)
            fresh = True
            continue

        old_i, old_j = alpha[i], alpha[j]
        total = old_i + old_j
        alpha[i] = min(max(old_i + t, 0.0), c_bound)
        alpha[j] = total - alpha[i]
        if alpha[j] < 0.0:
            alpha[j] = 0.0
            alpha[i] = total
        elif alpha[j] > c_bound:
            alpha[j] = c_bound
            alpha[i] = total - c_bound
        h += pc @ (pc[i] * (alpha[i] - old_i) + pc[j] * (alpha[j] - old_j))
        fresh = False
        updates += 1
        if updates > max_passes:
            raise NotConverged(
                f"KKT residual above {tol} after {max_passes} pair updates"
            )

    return AlphaVector(alpha=alpha, C=c_bound)


def _dist_sq(y, center):
    """Squared distance of every column of y to the center."""
    return ((y - center[:, None]) ** 2).sum(axis=0)


def describe(alpha: AlphaVector, y):
    """Build the hypersphere description from the dual solution.

    ``y`` holds the projected training data, one column per sample. The
    squared radius is the mean squared distance of the boundary support
    vectors to the center. When no boundary support vector exists, any R^2 in
    [max d_i over a_i < C, min d_j over a_j > 0] is primal-optimal; R^2 is the
    midpoint of that interval (LIBSVM's rule), with the lower end 0 when every
    a_i sits at C.
    """
    y_mat = np.asarray(y, dtype=np.float64)
    a = alpha.alpha
    if y_mat.ndim != 2 or y_mat.shape[1] != a.shape[0]:
        raise DimensionMismatch(
            f"projected data {y_mat.shape} does not match alpha length {a.shape[0]}"
        )
    eps = SV_EPS_FACTOR * alpha.C
    sv = np.nonzero(a > eps)[0]
    if sv.size == 0:
        raise NoSupportVectors("all alpha_i below the support-vector threshold")
    below_c = a < alpha.C - eps
    boundary = sv[below_c[sv]]
    center = y_mat @ a
    dist_sq = _dist_sq(y_mat, center)
    if boundary.size:
        radius_sq = float(dist_sq[boundary].mean())
    else:
        lower = float(dist_sq[below_c].max()) if below_c.any() else 0.0
        radius_sq = 0.5 * (lower + float(dist_sq[sv].min()))
    return DataDescription(
        alpha=alpha,
        center=center,
        radius_sq=radius_sq,
        sv_indices=sv,
        boundary_sv_indices=boundary,
    )


def decide_batch(y_new, desc: DataDescription):
    """Classify a d x M block of projected points by distance to the center.

    Returns (distance_sq, positive) per column, with positive True iff
    ||y - c||^2 <= R^2. The distance is formed as in ``describe``.
    """
    pts = np.asarray(y_new, dtype=np.float64)
    dim = desc.center.shape[0]
    if pts.ndim != 2 or pts.shape[0] != dim:
        raise DimensionMismatch(
            f"test block {pts.shape} does not match center dimension {dim}"
        )
    dist_sq = _dist_sq(pts, desc.center)
    return dist_sq, dist_sq <= desc.radius_sq
