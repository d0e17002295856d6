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
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NonPositiveSigma, NotSymmetric, ZeroKernel
from .numerics import sym_eig

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
    xx = (x * x).sum(axis=0)
    zz = (z * z).sum(axis=0)
    d2 = xx[:, None] + zz[None, :] - 2.0 * (x.T @ z)
    return np.maximum(d2, 0.0)


def rbf_kernel_cross(x_train, x_new, sigma):
    """N x M kernel block of columns x_i and z_j, exp(-||x_i - z_j||^2 / (2 sigma^2))."""
    if not sigma > 0.0:  # false for NaN too
        raise NonPositiveSigma(f"sigma must be positive, got {sigma}")
    a = np.asarray(x_train, dtype=np.float64)
    b = np.asarray(x_new, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"cannot compare columns of {a.shape} and {b.shape}")
    return np.exp(-_pairwise_sq_dists(a, b) / (2.0 * sigma * sigma))


def rbf_kernel(x, sigma):
    """N x N RBF kernel of the columns of x: ``rbf_kernel_cross(x, x, sigma)``
    made exactly symmetric, with a unit diagonal."""
    k = rbf_kernel_cross(x, x, sigma)
    k = 0.5 * (k + k.T)
    np.fill_diagonal(k, 1.0)
    return k


def center_kernel(k):
    """Double centering (I - 11'/N) K (I - 11'/N); removes the feature-space mean."""
    k_mat = np.asarray(k, dtype=np.float64)
    if k_mat.ndim != 2 or k_mat.shape[0] != k_mat.shape[1]:
        raise DimensionMismatch(f"kernel must be square, got {k_mat.shape}")
    if np.abs(k_mat - k_mat.T).max() > 1e-9:
        raise NotSymmetric("kernel matrix is not symmetric")
    row_mean = k_mat.mean(axis=1, keepdims=True)
    total_mean = k_mat.mean()
    return k_mat - row_mean - row_mean.T + total_mean


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
    k_star = rbf_kernel_cross(kmap.train_x, pts, kmap.sigma)  # N x M
    v = k_star - kmap.k_row_mean[:, None]
    return v - v.mean(axis=0, keepdims=True)


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

