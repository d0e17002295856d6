"""Serialization of trained models and the standalone prediction path.

Models are stored as JSON (format_version 2) with matrices as nested
row-major lists. Python's float repr round-trips IEEE doubles exactly, so a
save/load cycle reproduces predictions bit for bit. A file holds what
prediction reads (the config and scaling, Q, the center and radius, and for
rbf models the kernel eigenmap) plus alpha and the support-vector indices,
which are validated but not used to decide. Format 1 files still load.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import zscore_apply
from .errors import (
    DimensionMismatch,
    InvariantViolation,
    SchemaError,
    VersionError,
)
from .kernel import NptBasis, npt_map
from .svdd import AlphaVector, DataDescription, decide_batch

FORMAT_VERSION = 2

DESCRIPTION_KEYS = ("alpha", "center", "radius_sq", "sv_indices", "boundary_sv_indices")

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
    "hessian_beta_mode",
    "damping",
    "sigma",
    "zscore",
    "scaling",
)


@dataclass(frozen=True)
class TrainedModel:
    """Everything the test phase needs, independent of the training data files."""

    config: dict
    q: np.ndarray
    description: DataDescription
    y_train: np.ndarray | None = field(repr=False, default=None)  # d x N; None once loaded
    npt: NptBasis | None = field(repr=False, default=None)


def _check_model(model: TrainedModel):
    cfg = _fields(model.config, "config", CONFIG_KEYS)
    npt = model.npt
    if (cfg["kernel"] == "rbf") != (npt is not None):
        raise InvariantViolation("kernel == 'rbf' must coincide with an npt block")
    q = model.q
    dev = np.abs(q @ q.T - np.eye(q.shape[0])).max()
    if not dev <= 1e-8:  # false for NaN too
        raise InvariantViolation(f"Q rows not orthonormal (deviation {dev:.3e})")
    desc = model.description
    n = desc.alpha.alpha.shape[0]
    for name in ("sv_indices", "boundary_sv_indices"):
        idx = getattr(desc, name)
        if idx.size and not (idx.min() >= 0 and idx.max() < n):
            raise InvariantViolation(f"{name} point outside the {n} training points")
    if desc.center.shape[0] != q.shape[0]:
        raise InvariantViolation("center dimension does not match Q rows")
    if not desc.radius_sq >= 0.0:
        raise InvariantViolation("radius_sq is negative")
    if npt is not None:
        r = npt.eigvals_r.shape[0]
        if npt.train_x.shape[1] != n or npt.u_r.shape != (n, r) or npt.k_row_mean.shape != (n,):
            raise InvariantViolation("npt block does not match the alpha length")
        if q.shape[1] != r:
            raise InvariantViolation("Q columns do not match the kernel rank")
        if not (npt.sigma > 0.0 and np.all(npt.eigvals_r > 0.0)):
            raise InvariantViolation("sigma and the kept eigenvalues must be positive")
    if cfg["scaling"] is not None:
        scaling = _fields(cfg["scaling"], "scaling", ("mean", "std"))
        mean, std = (_array(scaling[key], key, 1) for key in ("mean", "std"))
        dim = _input_dim(model)
        if not (mean.shape == std.shape == (dim,) and np.all(std > 0.0)):
            raise SchemaError(f"scaling must hold a mean and a positive std of {dim} features")


def _input_dim(model: TrainedModel):
    if model.npt is not None:
        return model.npt.train_x.shape[0]
    return model.q.shape[1]


def save(model: TrainedModel, path):
    """Write the model as a format_version 2 JSON document."""
    _check_model(model)
    desc = model.description
    payload = {
        "format_version": FORMAT_VERSION,
        "config": {k: model.config[k] for k in CONFIG_KEYS},
        "Q": model.q.tolist(),
        "description": {
            "alpha": desc.alpha.alpha.tolist(),
            "center": desc.center.tolist(),
            "radius_sq": desc.radius_sq,
            "sv_indices": desc.sv_indices.tolist(),
            "boundary_sv_indices": desc.boundary_sv_indices.tolist(),
        },
    }
    if model.npt is not None:
        payload["npt"] = {
            "U_r": model.npt.u_r.tolist(),
            "eigvals_r": model.npt.eigvals_r.tolist(),
            "K_row_mean": model.npt.k_row_mean.tolist(),
            "sigma": model.npt.sigma,
            "train_X": model.npt.train_x.tolist(),
        }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def _fields(obj, name, keys):
    """``obj`` itself, once it is a JSON object that holds every key in ``keys``."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{name} must be an object")
    for key in keys:
        if key not in obj:
            raise SchemaError(f"{name} is missing field {key!r}")
    return obj


def _array(obj, key, ndim):
    """A JSON number (ndim 0), list (1) or list of lists (2) of finite floats."""
    try:
        a = np.asarray(obj, dtype=np.float64)
    except (TypeError, ValueError):
        a = None
    if a is None or a.ndim != ndim or not np.isfinite(a).all():
        shape = ("number", "vector", "matrix")[ndim]
        raise SchemaError(f"field {key!r} must be a {shape} of finite values")
    return a


def _indices(obj, key):
    """A JSON list of integers."""
    try:
        idx = np.asarray(obj)
    except ValueError:
        idx = None
    if idx is None or idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
        raise SchemaError(f"field {key!r} must be a list of integers")
    return idx.astype(np.int64)


def load(path) -> TrainedModel:
    """Read and validate a model file; invariants are re-checked.

    A format 1 file's ``Y_train`` and ``npt.Phi`` are ignored, and of its
    ``npt.K_train`` only the row means are kept.
    """
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON ({exc})") from None
    _fields(payload, f"{path}: top level", ())
    version = payload.get("format_version")
    if version not in (1, FORMAT_VERSION):
        raise VersionError(f"unknown format_version {version!r}")
    _fields(payload, "model file", ("config", "Q", "description"))
    cfg = _fields(payload["config"], "config", CONFIG_KEYS)
    d_raw = _fields(payload["description"], "description", DESCRIPTION_KEYS)
    desc = DataDescription(
        alpha=AlphaVector(_array(d_raw["alpha"], "alpha", 1), float(_array(cfg["C"], "C", 0))),
        center=_array(d_raw["center"], "center", 1),
        radius_sq=float(_array(d_raw["radius_sq"], "radius_sq", 0)),
        sv_indices=_indices(d_raw["sv_indices"], "sv_indices"),
        boundary_sv_indices=_indices(d_raw["boundary_sv_indices"], "boundary_sv_indices"),
    )
    npt = None
    if "npt" in payload:
        n_raw = _fields(payload["npt"], "npt block", ("U_r", "eigvals_r", "sigma", "train_X"))
        if version == 1:  # format 1 held the whole N x N training kernel
            k_row_mean = _array(n_raw.get("K_train"), "K_train", 2).mean(axis=1)
        else:
            k_row_mean = _array(n_raw.get("K_row_mean"), "K_row_mean", 1)
        npt = NptBasis(
            u_r=_array(n_raw["U_r"], "U_r", 2),
            eigvals_r=_array(n_raw["eigvals_r"], "eigvals_r", 1),
            k_row_mean=k_row_mean,
            sigma=float(_array(n_raw["sigma"], "sigma", 0)),
            train_x=_array(n_raw["train_X"], "train_X", 2),
        )
    model = TrainedModel(config=cfg, q=_array(payload["Q"], "Q", 2), description=desc, npt=npt)
    _check_model(model)
    return model


def predict(model: TrainedModel, x_new):
    """Score a D x M block of raw inputs: (distance_sq, positive) per column.

    Applies the model's feature scaling (when trained with it), maps through
    the kernel basis for rbf models, projects with Q, and thresholds the
    squared distance at the stored radius.
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
    return decide_batch(model.q @ pts, model.description)


def input_features(pts, scaling, npt):
    """Map a D x M block of raw inputs into the space Q projects: z-score it
    with ``scaling`` (a dict of per-feature mean and std) when that is set,
    then map it through the rbf kernel basis ``npt`` when that is set."""
    if scaling is not None:
        pts = zscore_apply(pts, np.asarray(scaling["mean"], dtype=np.float64),
                           np.asarray(scaling["std"], dtype=np.float64))
    if npt is not None:
        pts = npt_map(pts, npt)
    return pts
