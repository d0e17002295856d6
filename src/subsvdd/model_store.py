"""Serialization of trained models and the standalone prediction path.

Models are stored as JSON (format_version 4) with matrices as nested
row-major lists. Python's float repr round-trips IEEE doubles exactly, so a
save/load cycle reproduces predictions bit for bit. A file holds what
prediction reads, the config and scaling, the map W, the center and radius,
plus alpha, and no value that ``load`` can recompute from these.

Every model predicts the same way: the input features (z-scored raw inputs,
and for rbf models their centered kernel vectors against the training set)
are multiplied by W and thresholded at the radius. A linear model's W is Q.
An rbf model's W is the d x N product Q A_r^{-1/2} U_r' of the subspace and
the kernel eigenmap, so its file holds W, sigma and the training inputs, and
no U_r, eigenvalues, Q or kernel row means. Format 1 to 3 files still load
(see ``load``).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import zscore_apply
from .errors import (
    DataError,
    DimensionMismatch,
    InvariantViolation,
    SchemaError,
    VersionError,
)
from .kernel import KernelMap, center_kernel, kernel_vectors, rbf_kernel, subspace_map
from .settings import RANGES, MethodSpec, check_setting
from .svdd import FEASIBILITY_SLACK, AlphaVector, DataDescription, decide_batch, support_sets

FORMAT_VERSION = 4

DESCRIPTION_KEYS = ("alpha", "center", "radius_sq")

# the config entries save writes and load requires; files written while the
# Newton step had a Hessian mode and a damping may also hold "hessian_beta_mode"
# and "damping": load accepts them, save leaves them out, and no code ever
# read them to predict
CONFIG_KEYS = (
    "method",
    "kernel",
    "psi",
    "direction",
    "optimizer",
    "d",
    "C",
    "beta",
    "eta",
    "k_max",
    "seed",
    "sigma",
    "zscore",
    "scaling",
)

# W K_hat W' = I is checked entry by entry to MAP_TOL * eps * N * ||K_hat|| *
# ||w_a|| ||w_b||: rounding in K_hat's eigenpairs reaches W amplified by
# A_r^{-1/2}, by up to sqrt(lambda_max / lambda_min) near the rank cut
MAP_TOL = 16.0


@dataclass(frozen=True)
class TrainedModel:
    """Everything the test phase needs, independent of the training data files."""

    config: dict
    w: np.ndarray  # d x F map from input features to the subspace (Q for linear models)
    description: DataDescription
    # rbf models: the kernel map (a fit keeps its whole NptBasis)
    npt: KernelMap | None = field(repr=False, default=None)
    q: np.ndarray | None = field(repr=False, default=None)  # d x D or d x r; None once loaded
    y_train: np.ndarray | None = field(repr=False, default=None)  # d x N; None once loaded


def _check_config(cfg):
    """``cfg`` itself, once it is a config a fit writes: its method parts form
    a method, each setting lies in its range, the optimizer is the family's
    and ``zscore`` is set exactly when a scaling is stored."""
    cfg = _fields(cfg, "config", CONFIG_KEYS)
    try:
        method = MethodSpec(cfg["method"], cfg["kernel"], cfg["psi"], cfg["direction"])
        for name in RANGES:
            # a linear fit records no sigma; earlier ones recorded the one given
            if not (name == "sigma" and method.kernel == "linear" and cfg[name] is None):
                check_setting(name, cfg[name])
    except ValueError as exc:
        raise SchemaError(f"config: {exc}") from None
    if cfg["optimizer"] != method.optimizer:
        raise SchemaError(f"config: a {method.family} model's optimizer is "
                          f"{method.optimizer!r}, not {cfg['optimizer']!r}")
    if cfg["zscore"] is not (cfg["scaling"] is not None):
        raise SchemaError("config: zscore must be true with a scaling and false without")
    return cfg


def _check_model(model: TrainedModel, k=None):
    """Raise unless the invariants of a model whose config passed
    ``_check_config`` hold; ``k`` is the rbf training kernel, if built."""
    cfg, npt, w = model.config, model.npt, model.w
    if (cfg["kernel"] == "rbf") != (npt is not None):
        raise InvariantViolation("kernel == 'rbf' must coincide with an npt block")
    if cfg["d"] != w.shape[0]:
        raise InvariantViolation(f"config d = {cfg['d']} does not match the {w.shape[0]} "
                                 "rows of W")
    if npt is not None and cfg["sigma"] != npt.sigma:
        raise InvariantViolation(f"config sigma = {cfg['sigma']} is not the npt block's "
                                 f"{npt.sigma}")
    desc = model.description
    if desc.center.shape[0] != w.shape[0]:
        raise InvariantViolation("center dimension does not match the rows of W")
    if not desc.radius_sq >= 0.0:
        raise InvariantViolation("radius_sq is negative")
    # on a list: three numpy reductions of a small model's alpha cost more
    a, slack = desc.alpha.alpha.tolist(), FEASIBILITY_SLACK
    if not (abs(sum(a) - 1.0) <= slack and min(a) >= -slack and max(a) <= desc.alpha.C + slack):
        raise InvariantViolation("alpha must sum to 1 with each entry between 0 and C")
    if npt is None:
        dev = np.abs(w @ w.T - np.eye(w.shape[0])).max()
        if not dev <= 1e-8:  # false for NaN too
            raise InvariantViolation(f"Q rows not orthonormal (deviation {dev:.3e})")
    else:
        if k is None:
            k = _training_kernel(w, npt.sigma, npt.train_x, desc.alpha.alpha.shape[0])
        _check_kernel_map(w, k)
    if cfg["scaling"] is not None:
        scaling = _fields(cfg["scaling"], "scaling", ("mean", "std"))
        mean, std = (_array(scaling[key], key, 1) for key in ("mean", "std"))
        dim = _input_dim(model)
        if not (mean.shape == std.shape == (dim,) and np.all(std > 0.0)):
            raise SchemaError(f"scaling must hold a mean and a positive std of {dim} features")


def _training_kernel(w, sigma, train_x, n):
    """The rbf kernel of the training inputs, once W's columns, the inputs
    and the ``n`` alphas agree in number and sigma is in range."""
    if not train_x.shape[1] == w.shape[1] == n:
        raise InvariantViolation("npt block does not match the alpha length")
    try:
        check_setting("sigma", sigma)
    except ValueError as exc:
        raise InvariantViolation(f"npt block: {exc}") from None
    return rbf_kernel(train_x, sigma)


def _check_kernel_map(w, k):
    """W K_hat W' = I, the rbf form of QQ' = I, with K_hat the centered
    training kernel ``k``."""
    k_hat = center_kernel(k)
    n = k.shape[0]
    row_norm = np.sqrt((w * w).sum(axis=1))
    k_norm = np.abs(k_hat).sum(axis=1).max()  # >= ||K_hat||_2
    tol = MAP_TOL * np.finfo(np.float64).eps * n * k_norm * np.outer(row_norm, row_norm)
    dev = np.abs(w @ k_hat @ w.T - np.eye(w.shape[0]))
    if not np.all(dev <= tol):  # false for NaN too
        worst = float(np.max(dev / np.maximum(tol, np.finfo(np.float64).tiny)))
        raise InvariantViolation(
            f"W K_hat W' is not the identity ({worst:.3e} times the rounding tolerance)"
        )


def _input_dim(model: TrainedModel):
    if model.npt is not None:
        return model.npt.train_x.shape[0]
    return model.w.shape[1]


def save(model: TrainedModel, path):
    """Write the model as a format_version 4 JSON document."""
    _check_config(model.config)
    _check_model(model)
    desc = model.description
    payload = {
        "format_version": FORMAT_VERSION,
        "config": {k: model.config[k] for k in CONFIG_KEYS},
    }
    if model.npt is None:
        payload["Q"] = model.w.tolist()
    payload["description"] = {
        "alpha": desc.alpha.alpha.tolist(),
        "center": desc.center.tolist(),
        "radius_sq": desc.radius_sq,
    }
    if model.npt is not None:
        payload["npt"] = {
            "W": model.w.tolist(),
            "sigma": model.npt.sigma,
            "train_X": model.npt.train_x.tolist(),
        }
    # json.dump streams through the pure-Python encoder; one dumps call uses
    # the C encoder and gives the same bytes
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload) + "\n")


def _fields(obj, name, keys):
    """``obj`` itself, once it is a JSON object that holds every key in ``keys``."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{name} must be an object")
    for key in keys:
        if key not in obj:
            raise SchemaError(f"{name} is missing field {key!r}")
    return obj


def _array(obj, key, ndim):
    """A JSON number (ndim 0), list (1) or list of lists (2) of finite floats.

    The kind of the array numpy builds from ``obj`` rejects strings ("U"),
    booleans ("b") and nulls ("O") in one test, with no pass over the entries
    in Python. A boolean mixed among numbers still passes, as 0 or 1.
    """
    try:
        a = np.asarray(obj)
    except (TypeError, ValueError):
        a = None
    if a is None or a.dtype.kind not in "iuf" or a.ndim != ndim or not np.isfinite(a).all():
        shape = ("number", "vector", "matrix")[ndim]
        raise SchemaError(f"field {key!r} must be a {shape} of finite values")
    return a.astype(np.float64, copy=False)


def _old_rbf_map(payload, n_raw):
    """W composed from a format 1 or 2 file's Q, U_r and eigenvalues, as a fit
    composes it."""
    _fields(payload, "model file", ("Q",))
    q = _array(payload["Q"], "Q", 2)
    u_r = _array(n_raw["U_r"], "U_r", 2)
    eigvals_r = _array(n_raw["eigvals_r"], "eigvals_r", 1)
    if not q.shape[1] == u_r.shape[1] == eigvals_r.shape[0]:
        raise InvariantViolation("Q columns do not match the kernel rank")
    if not np.all(eigvals_r > 0.0):
        raise InvariantViolation("the kept eigenvalues must be positive")
    return subspace_map(q, u_r, eigvals_r)


def load(path) -> TrainedModel:
    """Read and validate a model file; invariants are re-checked.

    The support-vector index sets come from alpha and C (``support_sets``).
    An rbf model's training kernel is built once: its row means centre new
    kernel vectors, and it gives the W K_hat W' = I check. A format 1 or 2
    rbf model's W is composed from its ``Q``, ``npt.U_r`` and
    ``npt.eigvals_r``. Older files' index lists, ``npt.K_row_mean`` and
    format 1's ``Y_train``, ``npt.Phi`` and ``npt.K_train`` are ignored.
    """
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON ({exc})") from None
    _fields(payload, f"{path}: top level", ())
    version = payload.get("format_version")
    # type(): True == 1 and 3.0 == 3, but neither is a JSON integer
    if type(version) is not int or version not in (1, 2, 3, FORMAT_VERSION):
        raise VersionError(f"unknown format_version {version!r}")
    _fields(payload, "model file", ("config", "description"))
    cfg = _check_config(payload["config"])
    d_raw = _fields(payload["description"], "description", DESCRIPTION_KEYS)
    alpha = AlphaVector(_array(d_raw["alpha"], "alpha", 1), float(cfg["C"]))
    desc = DataDescription(alpha, _array(d_raw["center"], "center", 1),
                           float(_array(d_raw["radius_sq"], "radius_sq", 0)),
                           *support_sets(alpha))
    npt = k = None
    if "npt" in payload:
        n_raw = _fields(payload["npt"], "npt block", ("sigma", "train_X"))
        if version >= 3:
            w = _array(_fields(n_raw, "npt block", ("W",))["W"], "W", 2)
        else:
            w = _old_rbf_map(payload, _fields(n_raw, "npt block", ("U_r", "eigvals_r")))
        sigma = float(_array(n_raw["sigma"], "sigma", 0))
        train_x = _array(n_raw["train_X"], "train_X", 2)
        k = _training_kernel(w, sigma, train_x, alpha.alpha.shape[0])
        npt = KernelMap(k_row_mean=k.mean(axis=1), sigma=sigma, train_x=train_x)
    else:
        w = _array(_fields(payload, "model file", ("Q",))["Q"], "Q", 2)
    model = TrainedModel(config=cfg, w=w, description=desc, npt=npt)
    _check_model(model, k)
    return model


def predict(model: TrainedModel, x_new):
    """Score a D x M block of raw inputs: (distance_sq, positive) per column.

    Maps the inputs to the model's input features (``input_features``),
    applies W, and thresholds the squared distance at the stored radius. An
    input whose distance is NaN (it holds NaN, or Inf where W mixes it)
    raises DataError.
    """
    pts = np.asarray(x_new, dtype=np.float64)
    if pts.ndim != 2:
        raise DimensionMismatch("input must be a D x M matrix")
    expected = _input_dim(model)
    if pts.shape[0] != expected:
        raise DimensionMismatch(
            f"input has {pts.shape[0]} features, model expects {expected}"
        )
    if pts.shape[1] == 0:
        return np.empty(0), np.empty(0, dtype=bool)
    pts = input_features(pts, model.config.get("scaling"), model.npt)
    dist, pos = decide_batch(model.w @ pts, model.description)
    if np.isnan(dist.max()):  # max propagates NaN: one pass, no temporary array
        raise DataError(f"input columns {np.flatnonzero(np.isnan(dist)).tolist()} "
                        "have no distance: they hold NaN or Inf")
    return dist, pos


def input_features(pts, scaling, npt):
    """Map a D x M block of raw inputs to the features W multiplies: z-score
    it with ``scaling`` (a dict of per-feature mean and std) when that is set,
    then take its centered kernel vectors against the training set of the
    kernel map ``npt`` when that is set."""
    if scaling is not None:
        pts = zscore_apply(pts, np.asarray(scaling["mean"], dtype=np.float64),
                           np.asarray(scaling["std"], dtype=np.float64))
    if npt is not None:
        pts = kernel_vectors(pts, npt)
    return pts
