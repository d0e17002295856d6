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
best gain falls to the tolerance tol = 1e-12 max(1, max G_ii) after an
update, the gradient is recomputed from scratch and the block scored once
more. The solve stops only when the best gain on a freshly computed gradient
is at most tol, which certifies that no feasible exchange improves the
objective by more; a start that is already optimal costs one sweep. Without
a warm start the solver begins with alpha = C on the floor(1/C) points of
largest G_ii, the points farthest from the mean, where the support vectors
lie; an exchange zeroes at most one alpha, so a start spread over all N
points would need at least N - #SV updates.

Pair exchange converges only linearly once the free set F = {0 < a < C} and
the set at C have settled (Keerthi et al. 2001), and on a flat dual it can
creep across F for thousands of updates. So after two pair updates in a row
that keep F (both moved a_i stay strictly inside (0, C)), and when |F| >= 3,
the solver takes one face step (``_face_step``): an exact ascent on the face
where every a at 0 or C stays fixed and sum(a_F) is constant. Where the dual
is linear along a move on that face (always once |F| exceeds k + 1: the face
has |F| - 1 dimensions, the points k), the step follows that move until an
a_F reaches 0 or C; otherwise it is the min-norm Newton step to the face's
optimum, clipped by the ratio test. A step is taken only when a stays in the
box with sum(a) = 1 and the dual does not fall; the gradient is then
recomputed from scratch. The face step only moves a between pair updates:
the loop, its stopping test and tol are unchanged, so every returned a
carries the same certificate, and ``max_passes`` still counts pair updates.
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
from .settings import check_setting

# the margin, as a fraction of C, that ``support_sets`` keeps from 0 and C
SV_EPS_FACTOR = 1e-6
# how far alpha may stray from the simplex capped at C, and C * N below 1
FEASIBILITY_SLACK = 1e-9

# in the face step, singular values of the free points (less their mean) at
# most this fraction of the largest count as zero
FACE_RANK_CUT = 1e-10
SWEEP_TILE = 2**18  # entries in one row tile of the pair sweep's block


@dataclass(frozen=True)
class AlphaVector:
    """Dual solution: simplex weights alpha with box bound C."""

    alpha: np.ndarray
    C: float


@dataclass(frozen=True)
class DataDescription:
    """Trained hypersphere: center, squared radius and support-vector index sets."""

    alpha: AlphaVector
    center: np.ndarray
    radius_sq: float
    sv_indices: np.ndarray = field(repr=False)
    boundary_sv_indices: np.ndarray = field(repr=False)


def support_sets(alpha: AlphaVector):
    """(sv, boundary): the indices of the support vectors, alpha_i >
    SV_EPS_FACTOR * C, and of the boundary support vectors among them,
    alpha_i < C - SV_EPS_FACTOR * C, in increasing order."""
    a, eps = alpha.alpha, SV_EPS_FACTOR * alpha.C
    sv = np.nonzero(a > eps)[0]
    return sv, sv[a[sv] < alpha.C - eps]


def check_feasible_c(C, n):
    """Raise ValueError unless C lies in its range (``settings.RANGES``), and
    InfeasibleC unless N points admit sum(alpha) = 1 with alpha <= C."""
    check_setting("C", C)
    if C * n < 1.0 - FEASIBILITY_SLACK:
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
    maximum and the same first argmax. It is scored in tiles of whole rows,
    at most SWEEP_TILE entries (or one row), so its memory stays bounded; a
    tile's best replaces the incumbent only when strictly larger, and
    ``_gram_block`` gives a tile the bits of the whole block. With no
    positive gain it returns (0, 0, 0.0, 0.0).
    """
    best = (0, 0, 0.0, 0.0)
    up = alpha < C
    dn = alpha > 0.0
    g_up, g_dn = grad[up], grad[dn]
    if g_up.size and g_dn.size:
        rows = np.nonzero(up & (grad > g_dn.min()))[0]
        cols = np.nonzero(dn & (grad < g_up.max()))[0]
        height = max(1, SWEEP_TILE // max(cols.size, 1))
        for top in range(0, rows.size, height):
            tile = rows[top:top + height]
            num = grad[tile][:, None] - grad[cols][None, :]
            den = (diag[tile][:, None] + diag[cols][None, :]
                   - 2.0 * _gram_block(points[tile], points[cols]))
            t_hi = np.minimum(alpha[cols][None, :], C - alpha[tile][:, None])
            t = np.minimum(np.maximum(num / (2.0 * np.maximum(den, 1e-30)), 0.0), t_hi)
            gain = num * t - den * t * t
            r, c = divmod(int(np.argmax(gain)), cols.size)
            if gain[r, c] > best[3]:
                best = int(tile[r]), int(cols[c]), float(t[r, c]), float(gain[r, c])
    return best


def _line_search(step, pf, a_f, g_f, C):
    """Best length along a face move: returns (t, stop, gain), or None.

    The dual changes by t s - t^2 q along ``step`` with slope s = g_F'step
    and curvature q = ||P_F'step||^2. t is the maximizer s / (2q), clipped by
    the ratio test at the first alpha_F to reach 0 or C; ``stop`` is that
    alpha's position in F, or -1 when the maximizer lies inside the box.
    None when the move does not ascend.
    """
    slope = float(g_f @ step)
    if not slope > 0.0:
        return None
    rate = np.abs(step)
    room = np.where(step > 0.0, C - a_f, a_f)
    reach = np.divide(room, rate, out=np.full(rate.size, np.inf), where=rate > 0.0)
    stop = int(np.argmin(reach))
    t = float(reach[stop])
    proj = pf.T @ step
    curv = float(proj @ proj)
    if 2.0 * curv * t > slope:
        t, stop = slope / (2.0 * curv), -1
    return t, stop, t * slope - t * t * curv


def _face_step(diag, points, alpha, grad, C, tol):
    """Exact ascent on the face of the free set: returns the new alpha, or None.

    F = {i : 0 < alpha_i < C}. The face keeps every alpha at 0 or C fixed and
    sum(alpha_F) constant, so a move d on it has 1'd = 0. For such d,
    P_F'd = Q'd with Q = P_F less its mean over F, and the dual changes by
    t g~'d - t^2 ||Q'd||^2 along t d, where g~ is g_F less its mean. Every
    vector below is orthogonal to 1, so it is a move on the face. With
    Q = U S V', from the thin SVD of the |F| x k Q (singular values of at most
    FACE_RANK_CUT times the largest dropped):

    - flat face: when rank(Q) < |F| - 1, a move with Q'v = 0 exists, and the
      dual is linear along it. v = b~ - U U'b~, the part of b~ (G_ii on F
      less its mean) outside range(Q), has g~'v = ||v||^2 (g_F - b is
      -2 P_F P'alpha, whose centered part lies in range(Q)), so the dual rises
      along v until an alpha_F reaches 0 or C. Taken when that gains more
      than ``tol``;
    - curved face: otherwise the min-norm Newton step d = U S^-2 U'g~ / 2,
      which solves 2 Q Q'd = g~ on range(Q) and reaches the face's optimum at
      length 1. It is the Newton step of the bordered KKT system
      [[2 P_F P_F', 1], [1', 0]] without forming it.

    Both need O(|F| k) memory, whatever |F| is. The length comes from
    ``_line_search``, and the alpha that stops the move is set exactly to its
    bound, so alpha stays in the box. The step is returned only when it
    raises the dual and keeps sum(alpha_F) to rounding.
    """
    free = np.nonzero((alpha > 0.0) & (alpha < C))[0]
    m = free.size
    if m < 3:
        return None
    pf, a_f, g_f = points[free], alpha[free], grad[free]
    q = pf - pf.mean(axis=0)
    u, sv, _ = np.linalg.svd(q, full_matrices=False)
    keep = sv > FACE_RANK_CUT * sv[0]
    u, sv = u[:, keep], sv[keep]
    move = None
    if sv.size < m - 1:
        # b~ - U U'b~, projected twice and centered again last, so that
        # Q'v = 0 and 1'v = 0 hold to rounding relative to v, not to b
        step = diag[free] - diag[free].mean()
        step -= u @ (u.T @ step)
        step -= u @ (u.T @ step)
        step -= step.mean()
        move = _line_search(step, pf, a_f, g_f, C)
    if move is None or move[2] <= tol:
        step = u @ ((u.T @ (g_f - g_f.mean())) / (2.0 * sv * sv))
        move = _line_search(step, pf, a_f, g_f, C)
    if move is None or not move[2] > 0.0:
        return None
    t, stop, _ = move
    new = np.clip(a_f + t * step, 0.0, C)
    if stop >= 0:
        new[stop] = C if step[stop] > 0.0 else 0.0
    if abs(float(new.sum()) - float(a_f.sum())) > 4.0 * m * np.finfo(float).eps:
        return None
    out = alpha.copy()
    out[free] = new
    return out


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


def solve_dual(points, C, max_passes=None, alpha0=None):
    """Solve the SVDD dual of the N x k ``points`` (one row per sample) for box bound ``C``.

    The dual's Gram matrix is G = Pc Pc' of the points less their mean
    (centering is exact because sum(alpha) = 1); it is never formed, so the
    solve needs O(Nk) memory besides the scored block. A caller holding a
    d x N array of columns passes its transpose. Deterministic for fixed
    inputs. At return no feasible pairwise exchange improves the objective
    by more than the KKT tolerance tol = 1e-12 * max(1, max G_ii), far
    tighter than the documented 1e-6 bound so that boundary support vectors
    agree with the radius to ~1e-6 relative. Each update takes the best pair
    of ``_pair_sweep``, scored on the block of pairs that can gain, which
    near the solution is a few rows and columns, not N x N; the final sweep,
    on a freshly computed G alpha = Pc (Pc' alpha), is the certificate.
    ``alpha0`` warm-starts the iteration when it is already feasible (the
    iterative trainer passes the previous alpha); otherwise alpha starts at
    C on the floor(1/C) points of largest G_ii (ties in index order), with
    the remainder on the next point (``_cold_start``). After two pair
    updates in a row that keep the free set F = {0 < alpha < C}, with
    |F| >= 3, one face step (``_face_step``) solves the dual on the face of
    F exactly, or follows a direction along which the dual is linear to the
    next bound; it is kept only when alpha stays feasible and the dual does
    not fall, and the gradient is then recomputed from scratch. It does not
    count as a pair update, and the solve still ends only on the certificate
    above. Raises ValueError when C is not a positive finite number,
    InfeasibleC when C < 1/N and NotConverged when the criterion is not met
    within ``max_passes`` pair updates (default 10*N^2).
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise DimensionMismatch(f"points must be an N x k array, got shape {pts.shape}")
    n = pts.shape[0]
    if n == 0:
        raise DimensionMismatch("no points")
    check_feasible_c(C, n)
    c_bound = float(C)
    if max_passes is None:
        max_passes = 10 * n * n

    pc = np.ascontiguousarray(pts - pts.mean(axis=0))
    diag = np.einsum("ik,ik->i", pc, pc)  # G_ii, the same bits as _gram_block's
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
    inside = 0  # pair updates in a row that kept the free set
    while True:
        grad = diag - 2.0 * h
        if inside == 2:
            inside = 0
            face = _face_step(diag, pc, alpha, grad, c_bound, tol)
            if face is not None:
                alpha = face
                h = pc @ (pc.T @ alpha)
                fresh = True
                continue
        i, j, t, gain = _pair_sweep(diag, pc, alpha, grad, c_bound)
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
        # i grew and j shrank: the free set is unchanged iff both stay inside
        if old_i > 0.0 and old_j < c_bound and alpha[i] < c_bound and alpha[j] > 0.0:
            inside += 1
        else:
            inside = 0
        if updates > max_passes:
            raise NotConverged(
                f"KKT residual above {tol} after {max_passes} pair updates"
            )

    return AlphaVector(alpha=alpha, C=c_bound)


def _dist_sq(y, center):
    """Squared distance of every column of y to the center, squared and summed
    in a difference array of its own, so ``y`` is never written."""
    diff = y - center[:, None]
    return np.square(diff, out=diff).sum(axis=0)


def describe(alpha: AlphaVector, y):
    """Build the hypersphere description from the dual solution.

    ``y`` holds the projected training data, one column per sample. The
    support-vector index sets are ``support_sets(alpha)``, a function of
    alpha and C alone, so a model file need not store them. The squared
    radius is the mean squared distance of the boundary support vectors to
    the center. When no boundary support vector exists, any R^2 in
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
    sv, boundary = support_sets(alpha)
    if sv.size == 0:
        raise NoSupportVectors("all alpha_i below the support-vector threshold")
    center = y_mat @ a
    dist_sq = _dist_sq(y_mat, center)
    if boundary.size:
        radius_sq = float(dist_sq[boundary].mean())
    else:
        below_c = np.delete(dist_sq, sv)  # with no boundary SV, every SV is at C
        lower = float(below_c.max()) if below_c.size else 0.0
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
