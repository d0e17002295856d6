"""Nonlinear feature construction via the kernel eigendecomposition trick.

An RBF kernel over the training data is double-centered and eigendecomposed,
K_hat = U A U'. Retaining the eigenpairs with lambda > RANK_TOL * lambda_max
gives an explicit r-dimensional feature map Phi = A_r^{-1/2} U_r' K_hat whose
Gram matrix reproduces K_hat, so the linear subspace machinery runs unchanged
on Phi; ``build_npt`` builds this basis. A new point x enters through its
kernel vector against the training set, centered by the training statistics
(``kernel_vectors``); its features are phi(x) = A_r^{-1/2} U_r' k_hat(x)
(``npt_map``). A fitted subspace Q composes with that map into one d x N
matrix W = Q A_r^{-1/2} U_r' (``subspace_map``), so Q phi(x) = W k_hat(x)
and a model needs neither U_r nor the eigenvalues to predict.

A kernel block of M new points costs two N x M arrays: the product x'z, and
one buffer in which the squared distances are formed, clamped, scaled,
exponentiated and centered, in the order of the out-of-place expressions, so
each entry has the bits those give.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NotSymmetric, ZeroKernel
from .numerics import sym_eig
from .settings import check_setting

# eigenpairs of the centered kernel at or below this fraction of the largest
# eigenvalue are dropped from the basis
RANK_TOL = 1e-10


@dataclass(frozen=True)
class KernelMap:
    """What maps new points to their centered kernel vectors."""

    k_row_mean: np.ndarray  # N row means of the uncentered training kernel
    sigma: float
    train_x: np.ndarray = field(repr=False)  # D x N original features


@dataclass(frozen=True)
class NptBasis(KernelMap):
    """A kernel map plus the retained eigenpairs of the centered training
    kernel and the training features they give."""

    u_r: np.ndarray  # N x r retained eigenvectors
    eigvals_r: np.ndarray  # r retained (positive) eigenvalues
    phi: np.ndarray = field(repr=False)  # r x N


def _pairwise_sq_dists(x, z):
    """N x M squared distances of columns x_i and z_j, clamped at 0: one
    buffer takes xx + zz, then -= 2 x'z, then the clamp. The 2 scales the
    product rather than an operand: with ``z is x`` numpy computes ``x.T @ z``
    by syrk, and an operand 2 z would make it a gemm of other bits."""
    xz = x.T @ z
    xz *= 2.0
    d2 = np.add.outer((x * x).sum(axis=0), (z * z).sum(axis=0))
    d2 -= xz
    return np.maximum(d2, 0.0, out=d2)


def rbf_kernel_cross(x_train, x_new, sigma):
    """N x M kernel block of columns x_i and z_j, exp(-||x_i - z_j||^2 / (2 sigma^2)),
    scaled and exponentiated in the distances' buffer. A sigma out of its
    range (``settings.RANGES``) raises ValueError."""
    check_setting("sigma", sigma)
    a = np.asarray(x_train, dtype=np.float64)
    b = np.asarray(x_new, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"cannot compare columns of {a.shape} and {b.shape}")
    k = _pairwise_sq_dists(a, b)
    k /= -(2.0 * sigma * sigma)  # the bits of -d2 / (2 sigma^2)
    return np.exp(k, out=k)


def rbf_kernel(x, sigma):
    """N x N RBF kernel of the columns of x: ``rbf_kernel_cross(x, x, sigma)``
    made exactly symmetric, with a unit diagonal."""
    k = rbf_kernel_cross(x, x, sigma)
    k_sym = np.add(k, k.T)
    k_sym *= 0.5
    np.fill_diagonal(k_sym, 1.0)
    return k_sym


def center_kernel(k):
    """Double centering (I - 11'/N) K (I - 11'/N); removes the feature-space
    mean. The symmetry test and the centering share one output array."""
    k_mat = np.asarray(k, dtype=np.float64)
    if k_mat.ndim != 2 or k_mat.shape[0] != k_mat.shape[1]:
        raise DimensionMismatch(f"kernel must be square, got {k_mat.shape}")
    out = np.subtract(k_mat, k_mat.T)
    if np.abs(out, out=out).max() > 1e-9:
        raise NotSymmetric("kernel matrix is not symmetric")
    row_mean = k_mat.mean(axis=1, keepdims=True)
    total_mean = k_mat.mean()
    np.subtract(k_mat, row_mean, out=out)
    out -= row_mean.T
    out += total_mean
    return out


def build_npt(x, sigma):
    """The kernel basis of the D x N training columns ``x`` at ``sigma``.

    The RBF kernel K of the columns is double-centered and eigendecomposed,
    K_hat = U A U'. Eigenpairs with lambda <= RANK_TOL * lambda_max are
    dropped (negative eigenvalues always are), and ZeroKernel is raised when
    nothing survives; the training features are Phi = A_r^{-1/2} U_r' K_hat.
    """
    x_mat = np.ascontiguousarray(x, dtype=np.float64)  # C order, as a loaded model holds it
    k = rbf_kernel(x_mat, sigma)
    k_hat = center_kernel(k)
    vals, vecs = sym_eig(k_hat)
    if not (vals.size and vals[0] > 0.0):
        raise ZeroKernel("centered kernel has no positive eigenvalue")
    keep = vals > RANK_TOL * vals[0]
    vals_r = vals[keep]
    u_r = np.ascontiguousarray(vecs[:, keep])  # C order, as a loaded model holds it
    return NptBasis(
        u_r=u_r,
        eigvals_r=vals_r,
        k_row_mean=k.mean(axis=1),
        sigma=float(sigma),
        train_x=x_mat,
        phi=(u_r / np.sqrt(vals_r)).T @ k_hat,
    )


def kernel_vectors(x_new, kmap: KernelMap):
    """The centered kernel vectors of a D x M block of new points, N x M.

    Each column's kernel vector against the training set is centered with the
    training statistics, k_hat* = (I - 11'/N)(k* - K 1/N). Of the training
    kernel K only its stored row means K 1/N are read.
    """
    pts = np.asarray(x_new, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] != kmap.train_x.shape[0]:
        raise DimensionMismatch(
            f"new points {pts.shape} do not match training dimension "
            f"{kmap.train_x.shape[0]}"
        )
    k_hat = rbf_kernel_cross(kmap.train_x, pts, kmap.sigma)  # N x M
    k_hat -= kmap.k_row_mean[:, None]
    k_hat -= k_hat.mean(axis=0, keepdims=True)
    return k_hat


def npt_map(x_new, basis: NptBasis):
    """Map a D x M block of new points to the r-dimensional feature space:
    phi* = A_r^{-1/2} U_r' k_hat*, with k_hat* from ``kernel_vectors``."""
    return (basis.u_r / np.sqrt(basis.eigvals_r)).T @ kernel_vectors(x_new, basis)


def subspace_map(q, u_r, eigvals_r):
    """W = Q A_r^{-1/2} U_r', the d x N map (C order) that takes a centered
    kernel vector to the subspace: W k_hat(x) = Q phi(x) up to rounding.

    Subtracting the row means and centering before W is applied, rather than
    folding the centering into W, keeps the rounding of k(x) ~ 1 (a large
    sigma) from cancelling.
    """
    return q @ (u_r / np.sqrt(eigvals_r)).T

