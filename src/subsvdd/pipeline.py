"""End-to-end fitting: scaling, kernel basis, training, bundling.

Every method (see ``settings``) is fitted by ``subspace.train`` in the
(possibly kernel-induced) feature space, and decides the fit: plain SVDD is
one pass at Q = I, the subspace families run the iterative optimizer.

A fit runs in two steps. ``prepare_features`` z-scores the raw training
columns (when asked) and, for rbf kernels, holds the kernel basis of their
centered kernel, built on first use; ``fit_occ_model`` fits on such prepared
features, preparing a raw array itself. Fits that share the training columns,
the kernel, sigma and the scaling can share one prepared object, and with it
one O(N^3) basis; grid search does so per (fold, sigma).
"""
from __future__ import annotations

import dataclasses
import logging

import numpy as np

from .data import zscore_fit
from .errors import DataError, DimensionMismatch
from .kernel import build_npt, subspace_map
from .metrics import confusion_from_labels, gmean
from .model_store import TrainedModel, input_features
# MethodSpec and parse_method are imported from here too
from .settings import KERNELS, MethodSpec, check_setting, parse_method
from .subspace import TrainConfig, train
from .svdd import check_feasible_c, decide_batch

log = logging.getLogger("subsvdd")


class PreparedFeatures:
    """Training columns made ready for fits: z-scored when ``zscore`` is set,
    and for rbf kernels mapped through the kernel basis of their centered
    kernel at ``sigma`` (None for linear). The basis is built on first use,
    so a fit whose C is infeasible builds none, and every fit handed this
    object shares it."""

    def __init__(self, x_raw, kernel, sigma, zscore):
        self.n = x_raw.shape[1]
        self.kernel = kernel
        self.sigma = sigma
        self.zscore = zscore
        self.scaling = None
        if zscore:
            mean, std = zscore_fit(x_raw)
            self.scaling = {"mean": mean, "std": std}
        self.scaled = input_features(x_raw, self.scaling, None)
        self._npt = None

    @property
    def npt(self):
        """The kernel basis (rbf), or None (linear)."""
        if self.kernel == "rbf" and self._npt is None:
            self._npt = build_npt(self.scaled, self.sigma)
        return self._npt


def prepare_features(x_raw, kernel, sigma=None, zscore=False):
    """The D x N block of raw training columns ``x_raw`` made ready for fits
    with this kernel, sigma and scaling (see ``PreparedFeatures``). The
    columns are copied, so a later write to ``x_raw`` cannot reach the basis
    built on first use. A column holding NaN or Inf raises DataError. The
    linear kernel takes no sigma: one given is checked, then held as None.
    ``zscore`` must be a bool. A ``PreparedFeatures`` given as ``x_raw`` is
    returned itself, once sigma and zscore are checked and it matches this
    kernel, sigma and scaling (else ValueError)."""
    if kernel == "rbf" or sigma is not None:
        check_setting("sigma", sigma)
    if not isinstance(zscore, (bool, np.bool_)):
        raise ValueError(f"zscore must be a bool, got {zscore!r}")
    given = (kernel, float(sigma) if kernel == "rbf" else None, bool(zscore))
    if isinstance(x_raw, PreparedFeatures):
        held = (x_raw.kernel, x_raw.sigma, x_raw.zscore)
        if given != held:
            raise ValueError(f"features prepared for (kernel, sigma, zscore) = {held}, "
                             f"not {given}")
        return x_raw
    x_mat = np.array(x_raw, dtype=np.float64)
    if x_mat.ndim != 2:
        raise DimensionMismatch("training features must be a D x N matrix")
    bad = np.flatnonzero(~np.isfinite(x_mat).all(axis=0))
    if bad.size:
        raise DataError(f"training columns {bad.tolist()} hold NaN or Inf")
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}")
    return PreparedFeatures(x_mat, *given)


def fit_occ_model(features, method: MethodSpec, *, C, d=None, beta=1.0, eta=0.01, sigma=None,
                  k_max=100, seed=42, zscore=False, eval_data=None):
    """Fit one model on target-class training columns.

    ``features`` is a D x N block of raw columns or what ``prepare_features``
    made of one, for the method's kernel, ``sigma`` and ``zscore``. Each
    setting must lie in its range in ``settings.RANGES``, before any work,
    unless the method does not read it (``MethodSpec.reads``) and it is left
    out: the fit then records none. ``eval_data`` is an optional (X_eval,
    is_target) pair in the raw input space; when given, each iteration of the
    trace carries the Gmean of the current model on it, scored as ``predict``
    scores it. Returns (TrainedModel, trace).
    """
    cfg = TrainConfig(method, C, d=d, beta=beta, eta=eta, k_max=k_max, seed=seed)
    prepared = prepare_features(features, method.kernel, sigma, zscore)
    # before the O(N^3) kernel basis, which C < 1/N would waste
    check_feasible_c(C, prepared.n)
    scaling, npt = prepared.scaling, prepared.npt
    work = prepared.scaled if npt is None else npt.phi

    def prediction_map(q):
        return q if npt is None else subspace_map(q, npt.u_r, npt.eigvals_r)

    eval_fn = None
    if eval_data is not None:
        x_eval, is_target = eval_data
        x_eval_work = input_features(np.asarray(x_eval, dtype=np.float64), scaling, npt)

        def eval_fn(q, desc):
            _, pos = decide_batch(prediction_map(q) @ x_eval_work, desc)
            return gmean(confusion_from_labels(is_target, pos))

    if npt is not None and method.reads("d") and d > len(work):
        log.warning("requested d=%d exceeds retained kernel rank %d; clamping", d, len(work))
        cfg = dataclasses.replace(cfg, d=len(work))
    fit = train(work, cfg, eval_fn=eval_fn)

    config = {
        "method": method.family,
        "kernel": method.kernel,
        "psi": method.psi,
        "direction": method.direction,
        "optimizer": method.optimizer,
        "d": len(fit.q),
        "C": float(C),
        "beta": None if beta is None else float(beta),
        "eta": None if eta is None else float(eta),
        "k_max": int(k_max),
        "seed": int(seed),
        "sigma": prepared.sigma,
        "zscore": bool(zscore),
        "scaling": None if scaling is None else {k: v.tolist() for k, v in scaling.items()},
    }
    model = TrainedModel(config=config, w=prediction_map(fit.q), description=fit.description,
                         npt=npt, q=fit.q, y_train=fit.y_train)
    return model, fit.trace
