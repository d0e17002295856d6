"""Brute-force reference computations the tests compare the package against.

None of these is used by the package itself: each recomputes a quantity
from its definition, slowly and without the package's shortcuts. Besides
them: the seeded problem instances and the finite differences of the
package's objective and gradient that the derivative checks use.
"""
import numpy as np

from subsvdd.errors import DimensionMismatch, NotSymmetric
from subsvdd.numerics import as_matrix, sym_eig
from subsvdd.subspace import (
    build_lambda,
    gradient,
    hessian_core,
    init_projection,
    objective,
    support_block,
)
from subsvdd.svdd import _gram_block, solve_dual

HESSIAN_FULL_CAP = 2500  # hard cap on d*D for the brute-force assembly


class TooLarge(Exception):
    """Input exceeds the brute-force assembly's size cap."""


def hessian_full(x, alpha_values, lam, d):
    """Brute-force dD x dD Hessian of the Newton step via literal
    structure-matrix assembly.

    Entry ((i,j),(k,l)) is 2 tr[X M X' (S^ij)' S^kl] with S^ij the single-entry
    d x D matrix and M = diag(a) - aa' + lam lam', the lam lam' term weighted
    by 1 as the paper writes it. Refuses d*D > HESSIAN_FULL_CAP.
    """
    x_mat = np.asarray(x, dtype=np.float64)
    big_d = x_mat.shape[0]
    if d * big_d > HESSIAN_FULL_CAP:
        raise TooLarge(f"d*D = {d * big_d} exceeds cap {HESSIAN_FULL_CAP}")
    a = np.asarray(alpha_values, dtype=np.float64)
    lam_v = np.asarray(lam, dtype=np.float64)
    core = np.diag(a) - np.outer(a, a) + np.outer(lam_v, lam_v)
    g_mat = x_mat @ core @ x_mat.T
    g_mat = 0.5 * (g_mat + g_mat.T)  # X M X' is symmetric; enforce it exactly
    n_flat = d * big_d
    h_full = np.empty((n_flat, n_flat))
    for i in range(d):
        for j in range(big_d):
            s_ij = np.zeros((d, big_d))
            s_ij[i, j] = 1.0
            row = i * big_d + j
            for k in range(d):
                for l_col in range(big_d):
                    s_kl = np.zeros((d, big_d))
                    s_kl[k, l_col] = 1.0
                    h_full[row, k * big_d + l_col] = 2.0 * np.trace(
                        g_mat @ s_ij.T @ s_kl
                    )
    return h_full


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


def damped_pinv_factor(h, mu=0.0, rel_tol=1e-10):
    """Factor (H + mu*I)^+ for symmetric H as (U, inv_eigenvalues).

    Eigenvalues of the damped matrix with |lambda + mu| below
    rel_tol * max|lambda + mu| are inverted to zero, so a singular (or
    indefinite) H is handled without error. Applying the factor to a vector g
    as U (inv * (U' g)) gives the minimum-norm least-squares solution of
    (H + mu*I) x = g.
    """
    if mu < 0.0:
        raise ValueError("mu must be >= 0")
    if rel_tol <= 0.0:
        raise ValueError("rel_tol must be positive")
    vals, vecs = sym_eig(h)
    lam = vals + mu
    scale = np.abs(lam).max() if lam.size else 0.0
    inv = np.zeros_like(lam)
    if scale > 0.0:
        keep = np.abs(lam) >= rel_tol * scale
        inv[keep] = 1.0 / lam[keep]
    return vecs, inv


def solve_damped(h, g, mu=0.0, rel_tol=1e-10):
    """Minimum-norm least-squares solve of (H + mu*I) x = g for symmetric H."""
    a = as_matrix(h, "h")
    rhs = np.asarray(g, dtype=np.float64)
    if rhs.ndim != 1 or rhs.shape[0] != a.shape[0]:
        raise DimensionMismatch(f"rhs length {rhs.shape} does not match H {a.shape}")
    u, inv = damped_pinv_factor(a, mu=mu, rel_tol=rel_tol)
    return u @ (inv * (u.T @ rhs))


def assert_feasible(alpha, tol=1e-8):
    """Assert that the AlphaVector ``alpha`` is a feasible dual point to
    ``tol``: sum(alpha) = 1 and every entry in [0, C]."""
    a = alpha.alpha
    assert abs(a.sum() - 1.0) <= tol, f"sum(alpha) = {a.sum()!r}, expected 1"
    assert a.min() >= -tol and a.max() <= alpha.C + tol, "alpha outside [0, C]"


def dual_objective(gram, alpha):
    """Value of the SVDD dual objective at alpha."""
    return float(np.dot(alpha, np.diag(gram)) - alpha @ gram @ alpha)


def simplex_grid_max(gram, c_bound, step=1e-3):
    """Exhaustive maximization of the dual objective over the grid
    {alpha : sum(alpha)=1, 0 <= alpha_i <= C, alpha_i a multiple of step}.

    Independent oracle: the leading coordinates are enumerated recursively,
    with box/sum pruning, up to the last two free ones; for each prefix those
    two span one 2-D block of counts t, the last coordinate closes the sum,
    and the whole block is evaluated at once. With alpha = base + V t (base
    holds the prefix and puts the rest of the mass on the last coordinate; V
    moves mass from it to the free ones) the objective f(a) = diag'a - a'Ga
    is f(base) + (diag - 2 G base)'V t - t'V'GV t. Returns the best value of
    a feasible point.
    """
    n = gram.shape[0]
    if n == 1:
        return float(gram[0, 0] - gram[0, 0])
    steps = int(round(1.0 / step))
    cap = int(np.floor(c_bound / step + 1e-9))
    free = min(2, n - 1)
    diag = np.diag(gram)
    best = -np.inf

    def block(prefix_counts):
        nonlocal best
        m = len(prefix_counts)
        rem = steps - sum(prefix_counts)
        base = np.zeros(n)
        base[:m] = prefix_counts
        base[-1] = rem
        base *= step
        v = np.zeros((n, free))
        v[m:m + free] = np.eye(free)
        v[-1] = -1.0
        lin = (diag - 2.0 * gram @ base) @ v
        quad = v.T @ gram @ v
        counts = np.meshgrid(*[np.arange(min(cap, rem) + 1)] * free, indexing="ij", sparse=True)
        t = [c * step for c in counts]
        values = float(diag @ base - base @ gram @ base) + sum(lin[j] * t[j] for j in range(free))
        values = values - sum(quad[j, k] * t[j] * t[k] for j in range(free) for k in range(free))
        last = rem - sum(counts)
        feasible = (last >= 0) & (last <= cap)
        if feasible.any():
            best = max(best, values[feasible].max())

    def rec(prefix_counts):
        m = len(prefix_counts)
        if m == n - 1 - free:
            block(prefix_counts)
            return
        rem = steps - sum(prefix_counts)
        slots_after = n - m - 1
        lo = max(0, rem - slots_after * cap)
        hi = min(cap, rem)
        for v in range(lo, hi + 1):
            rec(prefix_counts + [v])

    rec([])
    return float(best)


def pair_sweep_full(diag, points, alpha, grad, C):
    """Best pairwise exchange of the SVDD dual, scoring all N x N pairs.

    Same contract as ``svdd._pair_sweep``: (i, j, t, gain) for moving mass
    t >= 0 from j to i, the first row-major maximum of the gain. The step is
    the clipped optimum of num*t - den*t^2, num = grad_i - grad_j and
    den = G_ii + G_jj - 2 G_ij, with t <= min(alpha_j, C - alpha_i). The
    full Gram G = P P' of the rows of ``points`` comes from the solver's own
    ``_gram_block``, whose entries do not depend on the block's shape.
    """
    num = grad[:, None] - grad[None, :]
    den = diag[:, None] + diag[None, :] - 2.0 * _gram_block(points, points)
    t_hi = np.maximum(np.minimum(alpha[None, :], C - alpha[:, None]), 0.0)
    t = np.minimum(np.maximum(num / (2.0 * np.maximum(den, 1e-30)), 0.0), t_hi)
    t[num <= 0.0] = 0.0
    gain = num * t - den * t * t
    np.fill_diagonal(gain, 0.0)
    i, j = divmod(int(np.argmax(gain)), alpha.shape[0])
    return i, j, float(t[i, j]), float(gain[i, j])


# The rbf kernel layer and the distance rule written out of place, one new
# array per operation. The package runs the same operations in the same order
# in buffers of its own, so it must return the same bits, warn where these
# warn and write none of its arguments.


def pairwise_sq_dists(x, z):
    """N x M squared distances of the columns of x and z, clamped at 0."""
    xx = (x * x).sum(axis=0)
    zz = (z * z).sum(axis=0)
    d2 = xx[:, None] + zz[None, :] - 2.0 * (x.T @ z)
    return np.maximum(d2, 0.0)


def rbf_kernel_cross(x_train, x_new, sigma):
    """N x M block exp(-||x_i - z_j||^2 / (2 sigma^2))."""
    a = np.asarray(x_train, dtype=np.float64)
    b = np.asarray(x_new, dtype=np.float64)
    return np.exp(-pairwise_sq_dists(a, b) / (2.0 * sigma * sigma))


def rbf_kernel(x, sigma):
    """N x N kernel of the columns of x, symmetrized, with a unit diagonal."""
    k = rbf_kernel_cross(x, x, sigma)
    k = 0.5 * (k + k.T)
    np.fill_diagonal(k, 1.0)
    return k


def center_kernel(k):
    """(I - 11'/N) K (I - 11'/N), after the package's symmetry test."""
    if np.abs(k - k.T).max() > 1e-9:
        raise NotSymmetric("kernel matrix is not symmetric")
    row_mean = k.mean(axis=1, keepdims=True)
    return k - row_mean - row_mean.T + k.mean()


def kernel_vectors(x_new, kmap):
    """Kernel vectors of new columns, centered with the training row means
    of the kernel map ``kmap``."""
    v = rbf_kernel_cross(kmap.train_x, x_new, kmap.sigma) - kmap.k_row_mean[:, None]
    return v - v.mean(axis=0, keepdims=True)


def dist_sq(y, center):
    """Squared distance of every column of y to the center."""
    return ((y - center[:, None]) ** 2).sum(axis=0)


def _grid_sort_key(point):
    return tuple(-1.0 if point[k] is None else float(point[k]) for k in
                 ("d", "C", "beta", "eta", "sigma"))


def enumerate_grid_sorted(method, grid, input_dim):
    """The grid points of ``method`` from unsorted candidate lists that may
    repeat values: every combination, points equal as floats dropped after the
    first, then sorted by (d, C, beta, eta, sigma). ``grid`` is any object with
    the lists as attributes; it need not have sorted or de-duplicated them."""
    sigmas = list(grid.sigma) if method.kernel == "rbf" else [None]
    if method.family == "svdd":
        points = [
            {"d": None, "C": c, "beta": None, "eta": None, "sigma": s}
            for c in grid.C
            for s in sigmas
        ]
    else:
        betas = [min(grid.beta)] if method.psi == 0 else list(grid.beta)
        dims = [d for d in grid.d if method.kernel == "rbf" or d <= input_dim]
        points = [
            {"d": dd, "C": c, "beta": b, "eta": e, "sigma": s}
            for dd in dims
            for c in grid.C
            for b in betas
            for e in grid.eta
            for s in sigmas
        ]
    seen = set()
    unique = []
    for p in points:
        key = _grid_sort_key(p)
        if key not in seen:
            seen.add(key)
            unique.append(p)
    return sorted(unique, key=_grid_sort_key)
