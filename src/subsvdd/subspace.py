"""Joint optimization of a linear projection and an SVDD description.

The projection Q (d x D, row-orthonormal) is updated iteratively: solve the
SVDD dual in the current subspace, then move Q along the gradient of the
augmented objective

    L(Q) = sum_i a_i x_i'Q'Qx_i - sum_ij a_i a_j x_i'Q'Qx_j + beta * Psi(Q)

with Psi = Tr(Q X lam lam' X' Q'), either directly (gradient optimizer) or
by the Newton step (newton optimizer). ``update_step`` is the one step both
optimizers take; after it the rows of Q are re-orthonormalized (QR).

The gradient and the Hessian are formed at the a-weighted mean X a: because
sum(a) = 1, X (diag(a) - aa') X' = M_s M_s' with M_s = X_c diag(sqrt(a_s)),
the support columns (a_i > 0) of X_c = X - (X a) 1' scaled by sqrt(a_i).
``support_block`` builds (M_s, X lam) once per iteration. This needs no
N x N matrix, and it does not subtract two large terms when the data lie far
from the origin. The lam lam' part uses X as it is.

Under row-major vectorization the Hessian is block diagonal, H = I_d kron B,
with B = 2 M M' and M = [M_s, X lam] (``hessian_core``), of rank at most
s + 1 for s support vectors. B weights lam lam' by 1, not by beta, as the
paper writes the Hessian. The gradient is Q B + 2 (beta - 1)(Q X lam)(X lam)',
so the Newton step, the gradient times B^+, needs no gradient. With
B = U diag(b) U' over its kept eigenpairs it is

    Q U U' + 2 (beta - 1) (Q X lam)(U diag(1 / b) U' X lam)'.

Nothing lies outside range(B) = range(M) for B^+ to drop: the rows of Q B
lie in it, and so does X lam. ``newton_step`` eigendecomposes the smaller
Gram of M, the (s+1) x (s+1) M'M when s + 1 < D (U is then
M V Lambda^{-1/2} and b = 2 Lambda) and MM' otherwise, so a fit with few
support vectors in a large feature space (the rbf eigenmap) pays for its
support, not for D.

The first term is Q projected onto range(B). A step proportional to Q does
not move the subspace, so the Newton step moves it only when B is singular
or the rank-one term is there (beta != 1 and lam != 0). With a full-rank
core the step is exactly Q for psi0 and for beta = 1: the update is
(1 -+ eta) Q, which re-orthonormalization undoes. With a singular core and
no rank-one term, ``min`` multiplies the part of each row of Q inside
range(B), the span of the centered support vectors and X lam, by (1 - eta),
so after the QR Q tilts toward null(B); ``max`` tilts it toward range(B).

The dual in each subspace receives the projections themselves, Y' (N x d),
and ``solve_dual`` centers them, which is exact because sum(a) = 1 and keeps
the solution independent of where the origin lies. Their Gram matrix has
rank at most d and is never formed: the solver works from the N x d rows.
The objective's SVDD part is likewise formed on projections centered at Y a.
The center (Y a) and the regularizers use the projections as they are: Psi
depends on the origin by definition. Plain SVDD is one pass of ``train`` at
Q = I, so its dual receives the D x N features' transpose.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DegenerateSubspace, DimensionMismatch, RankDeficient
from .numerics import qr_orthonormalize_rows, sym_eig
from .settings import MethodSpec, check_settings
from .svdd import (
    AlphaVector,
    DataDescription,
    check_feasible_c,
    describe,
    solve_dual,
    support_sets,
)

# eigenvalues of B at or below this fraction of the largest are dropped
EIG_REL_TOL = 1e-10
MAX_REDRAWS = 3  # redraws of dependent rows of Q before a fit fails


@dataclass(frozen=True)
class TrainConfig:
    """All knobs of one training run: the method and its settings, of which
    one it does not read may be None. ``seed`` drives the Q initialization."""

    method: MethodSpec
    C: float
    d: int | None = None
    beta: float | None = 1.0
    eta: float | None = 0.01
    k_max: int = 100
    seed: int = 42

    def __post_init__(self):
        if not isinstance(self.method, MethodSpec):
            raise ValueError(f"method must be a MethodSpec, got {self.method!r}")
        check_settings(self.method, {n: v for n, v in vars(self).items() if n != "method"})


@dataclass(frozen=True)
class TraceRow:
    """One per-iteration record: objective, optional eval score, QQ' deviation."""

    iteration: int
    objective: float
    gmean: float | None
    orth_error: float


@dataclass(frozen=True)
class SubspaceFit:
    """Result of ``train``: final projection, description, projected data, trace."""

    q: np.ndarray
    description: DataDescription
    y_train: np.ndarray
    trace: list[TraceRow] = field(repr=False)


def project(q, x):
    """Map data columns to the subspace: column i of the result is Q x_i."""
    q_mat = np.asarray(q, dtype=np.float64)
    x_mat = np.asarray(x, dtype=np.float64)
    if q_mat.ndim != 2 or x_mat.ndim != 2 or q_mat.shape[1] != x_mat.shape[0]:
        raise DimensionMismatch(f"cannot project {x_mat.shape} through {q_mat.shape}")
    return q_mat @ x_mat


def build_lambda(psi, alpha: AlphaVector):
    """Per-sample weights of the regularizer psi``psi`` for the given alpha.

    psi0 and None (plain SVDD) weigh nothing, psi1 every sample, psi2 each
    sample by a_i and psi3 only the boundary support vectors, by a_i.
    """
    a = alpha.alpha
    if psi in (None, 0):
        return np.zeros_like(a)
    if psi == 1:
        return np.ones_like(a)
    if psi == 2:
        return a.copy()
    _, boundary = support_sets(alpha)
    lam = np.zeros_like(a)
    lam[boundary] = a[boundary]
    return lam


def objective(y, alpha_values, lam, beta):
    """Augmented objective L(Q) of the projections Y = Q X.

    It reduces to the dual value when beta*Psi = 0. The SVDD part is
    sum_i a_i ||y_i - Y a||^2 (sum(a) = 1), formed on the projections
    centered at Y a, so that it does not lose digits when the data lie far
    from the origin.
    """
    y = np.asarray(y, dtype=np.float64)
    a = np.asarray(alpha_values, dtype=np.float64)
    lam_v = np.asarray(lam, dtype=np.float64)
    if a.shape[0] != y.shape[1] or lam_v.shape[0] != y.shape[1]:
        raise DimensionMismatch("alpha/lambda length does not match sample count")
    yc = y - (y @ a)[:, None]
    yl = y @ lam_v
    return float(a @ (yc * yc).sum(axis=0) + beta * (yl @ yl))


def support_block(x, alpha_values, lam):
    """(M_s, X lam): the columns the gradient and the Hessian core are made of.

    M_s = X_c diag(sqrt(a_s)) holds the support columns (a_i > 0) centered at
    the a-weighted mean X a and scaled by sqrt(a_i), so that
    X (diag(a) - aa') X' = M_s M_s' (sum(a) = 1); the other columns add
    nothing to it.
    """
    x_mat = np.asarray(x, dtype=np.float64)
    a = np.asarray(alpha_values, dtype=np.float64)
    lam_v = np.asarray(lam, dtype=np.float64)
    if x_mat.ndim != 2 or a.shape[0] != x_mat.shape[1] or lam_v.shape[0] != x_mat.shape[1]:
        raise DimensionMismatch("alpha/lambda length does not match sample count")
    sv = np.flatnonzero(a > 0.0)
    a_s, m_s = a[sv], x_mat[:, sv]
    m_s -= (m_s @ a_s)[:, None]
    m_s *= np.sqrt(a_s)
    return m_s, x_mat @ lam_v


def gradient(q, block, beta):
    """Gradient of L with respect to Q: 2 Q X (diag(a) - aa' + beta*lam lam') X'.

    Formed from ``support_block``'s (M_s, X lam) as
    2 [(Q M_s) M_s' + beta (Q X lam)(X lam)'].
    """
    m_s, xl = block
    q_mat = np.asarray(q, dtype=np.float64)
    return 2.0 * (project(q_mat, m_s) @ m_s.T + beta * np.outer(q_mat @ xl, xl))


def hessian_core(block):
    """Factor M of the D x D Hessian block B = 2 M M'; the Hessian is I_d kron B.

    M = [M_s, X lam] is D x (s+1) for s support vectors, so
    B = 2 [X_c diag(a) X_c' + (X lam)(X lam)'] (sum(a) = 1) has rank at most
    s + 1. It weights lam lam' by 1, as the paper writes the Hessian; the
    true second derivative of the beta-weighted objective weights it by beta.
    """
    m_s, xl = block
    return np.column_stack([m_s, xl])


def newton_step(q, block, beta):
    """Newton step of Q: the gradient times B^+, in closed form.

    B = 2 M M' with M from ``hessian_core(block)``, and the gradient is
    Q B + 2 (beta - 1)(Q X lam)(X lam)'. Over the kept eigenpairs
    B = U diag(b) U' the step is

        Q U U' + 2 (beta - 1) (Q X lam)(U diag(1 / b) U' X lam)',

    Q projected onto range(B) plus one rank-one term, which is there only
    when beta != 1. One eigendecomposition serves both: of the Gram M'M =
    V Lambda V' when M has fewer columns than rows (U = M V Lambda^{-1/2},
    b = 2 Lambda), otherwise of MM' itself. Eigenpairs with b at or below
    EIG_REL_TOL times the largest are dropped, so a zero core gives a zero
    step. The result equals the minimum-norm solve of the full system
    H vec(S) = vec(gradient), H = I_d kron B.
    """
    m = hessian_core(block)
    thin = m.shape[1] < m.shape[0]
    lam, vecs = sym_eig(m.T @ m if thin else m @ m.T)
    b = 2.0 * lam
    keep = b > EIG_REL_TOL * b.max()
    if thin:
        keep &= lam > 0.0
        u = m @ (vecs[:, keep] / np.sqrt(lam[keep]))
    else:
        u = vecs[:, keep]
    b = b[keep]
    q_mat = np.asarray(q, dtype=np.float64)
    step = (q_mat @ u) @ u.T
    if beta != 1.0:
        xl = block[1]
        step += 2.0 * (beta - 1.0) * np.outer(q_mat @ xl, u @ ((xl @ u) / b))
    return step


def update_step(q, block, cfg: TrainConfig):
    """One optimizer step from ``support_block``'s block, before re-orthonormalization.

    The newton optimizer moves Q along ``newton_step``, the gradient
    optimizer along ``gradient``: Q - eta * step for ``min``, + for ``max``.
    """
    if cfg.method.optimizer == "newton":
        step = newton_step(q, block, cfg.beta)
    else:
        step = gradient(q, block, cfg.beta)
    sign = -1.0 if cfg.method.direction == "min" else 1.0
    return q + sign * cfg.eta * step


def _orthonormalize_with_recovery(q_raw, rng):
    """Orthonormalize q_raw's rows (QR), redrawing rows the QR flags as dependent.

    At most MAX_REDRAWS redraws; after them a still dependent Q raises
    DegenerateSubspace.
    """
    attempt = q_raw
    for _ in range(MAX_REDRAWS):
        try:
            return qr_orthonormalize_rows(attempt)
        except RankDeficient as exc:
            attempt = attempt.copy()
            for r in exc.rows:
                attempt[r] = rng.standard_normal(attempt.shape[1])
    try:
        return qr_orthonormalize_rows(attempt)
    except RankDeficient as exc:
        raise DegenerateSubspace(
            f"projection stayed rank-deficient after {MAX_REDRAWS} redraws"
        ) from exc


def init_projection(d, big_d, rng):
    """Seeded Gaussian init followed by QR orthonormalization of its rows."""
    return _orthonormalize_with_recovery(rng.standard_normal((d, big_d)), rng)


def train(x, cfg: TrainConfig, eval_fn=None, q0=None):
    """Run the full iterative optimization and describe the final subspace.

    ``x`` is D x N training data (one column per sample). Each iteration
    k = 1..k_max projects the data, solves the dual (warm-started from the
    previous alpha), builds lam and appends one trace row (objective of the
    current subspace and, when ``eval_fn`` is given, its score); while
    k < k_max it then updates Q. So k_max = 1 performs no update and
    describes the randomly initialized subspace, and the final row belongs
    to the returned model. Plain SVDD holds Q = I for one pass (no draw, no QR).

    ``eval_fn(q, desc) -> float`` may be attached to score each
    iteration's model on held-out data. ``q0`` overrides the seeded random
    initialization (it is re-orthonormalized), used for equivariance studies.
    """
    x_mat = np.asarray(x, dtype=np.float64)
    if x_mat.ndim != 2:
        raise DimensionMismatch("training data must be a D x N matrix")
    big_d, n = x_mat.shape
    if n < 2:
        raise DimensionMismatch("need at least 2 training samples")
    plain = cfg.method.optimizer is None
    if plain:  # one pass at Q = I; lam is zero, so beta (maybe None) weighs nothing
        cfg = replace(cfg, d=big_d, beta=0.0, k_max=1)
    if cfg.d > big_d:
        raise DimensionMismatch(f"subspace dimension {cfg.d} exceeds data dimension {big_d}")
    check_feasible_c(cfg.C, n)

    rng = np.random.default_rng(cfg.seed)
    if plain:
        q = np.eye(big_d)
    elif q0 is None:
        q = init_projection(cfg.d, big_d, rng)
    else:
        q = _orthonormalize_with_recovery(np.asarray(q0, dtype=np.float64), rng)

    trace: list[TraceRow] = []
    warm = None
    for k in range(1, cfg.k_max + 1):
        y = project(q, x_mat)
        alpha = solve_dual(y.T, cfg.C, alpha0=warm)
        warm = alpha.alpha
        lam = build_lambda(cfg.method.psi, alpha)
        desc = describe(alpha, y) if eval_fn is not None or k == cfg.k_max else None
        score = None if eval_fn is None else eval_fn(q, desc)
        orth = float(np.abs(q @ q.T - np.eye(cfg.d)).max())
        trace.append(TraceRow(k, objective(y, alpha.alpha, lam, cfg.beta), score, orth))
        if k < cfg.k_max:
            block = support_block(x_mat, alpha.alpha, lam)
            q = _orthonormalize_with_recovery(update_step(q, block, cfg), rng)
    return SubspaceFit(q=q, description=desc, y_train=y, trace=trace)
