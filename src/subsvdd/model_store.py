"""Serialization of trained models and the standalone prediction path.

Models are stored as JSON (format_version 1) with matrices as nested
row-major lists. Python's float repr round-trips IEEE doubles exactly, so a
save/load cycle reproduces predictions bit for bit. Prediction reads Q, the
center and the radius (and the kernel basis for rbf models); ``Y_train`` and
``alpha`` are stored and validated but not used to decide.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatch,
    InvariantViolation,
    SchemaError,
    VersionError,
)
from .kernel import NptBasis, npt_map
from .svdd import AlphaVector, DataDescription, decide_batch

FORMAT_VERSION = 1

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
    y_train: np.ndarray = field(repr=False)
    npt: NptBasis | None = field(repr=False, default=None)
    format_version: int = FORMAT_VERSION


def _check_model(model: TrainedModel):
    cfg = model.config
    missing = [k for k in CONFIG_KEYS if k not in cfg]
    if missing:
        raise SchemaError(f"config is missing keys {missing}")
    if (cfg["kernel"] == "rbf") != (model.npt is not None):
        raise InvariantViolation("kernel == 'rbf' must coincide with an npt block")
    q = model.q
    dev = np.abs(q @ q.T - np.eye(q.shape[0])).max()
    if dev > 1e-8:
        raise InvariantViolation(f"Q rows not orthonormal (deviation {dev:.3e})")
    desc = model.description
    n = model.y_train.shape[1]
    if desc.alpha.alpha.shape[0] != n:
        raise InvariantViolation("alpha length does not match Y_train columns")
    if desc.center.shape[0] != q.shape[0]:
        raise InvariantViolation("center dimension does not match Q rows")
    if desc.radius_sq < 0.0:
        raise InvariantViolation("radius_sq is negative")
    if cfg["scaling"] is not None:
        mean = np.asarray(cfg["scaling"]["mean"])
        if mean.shape[0] != _input_dim(model):
            raise InvariantViolation("scaling vectors do not match the input dimension")


def _input_dim(model: TrainedModel):
    if model.npt is not None:
        return model.npt.train_x.shape[0]
    return model.q.shape[1]


def save(model: TrainedModel, path):
    """Write the model as a format_version 1 JSON document."""
    _check_model(model)
    desc = model.description
    payload = {
        "format_version": model.format_version,
        "config": {k: model.config[k] for k in CONFIG_KEYS},
        "Q": model.q.tolist(),
        "description": {
            "alpha": desc.alpha.alpha.tolist(),
            "center": desc.center.tolist(),
            "radius_sq": desc.radius_sq,
            "sv_indices": desc.sv_indices.tolist(),
            "boundary_sv_indices": desc.boundary_sv_indices.tolist(),
        },
        "Y_train": model.y_train.tolist(),
    }
    if model.npt is not None:
        payload["npt"] = {
            "Phi": model.npt.phi.tolist(),
            "U_r": model.npt.u_r.tolist(),
            "eigvals_r": model.npt.eigvals_r.tolist(),
            "K_train": model.npt.k_train.tolist(),
            "sigma": model.npt.sigma,
            "train_X": model.npt.train_x.tolist(),
        }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def _matrix(obj, key):
    try:
        m = np.asarray(obj, dtype=np.float64)
    except (TypeError, ValueError):
        raise SchemaError(f"field {key!r} is not a numeric matrix") from None
    if m.ndim != 2:
        raise SchemaError(f"field {key!r} must be 2-D")
    return m


def _vector(obj, key):
    try:
        v = np.asarray(obj, dtype=np.float64)
    except (TypeError, ValueError):
        raise SchemaError(f"field {key!r} is not a numeric vector") from None
    if v.ndim != 1:
        raise SchemaError(f"field {key!r} must be 1-D")
    return v


def load(path) -> TrainedModel:
    """Read and validate a model file; invariants are re-checked."""
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise SchemaError(f"{path}: top level must be an object")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise VersionError(f"unknown format_version {version!r}")
    for key in ("config", "Q", "description", "Y_train"):
        if key not in payload:
            raise SchemaError(f"model file is missing field {key!r}")
    cfg = payload["config"]
    if not isinstance(cfg, dict):
        raise SchemaError("field 'config' must be an object")
    q = _matrix(payload["Q"], "Q")
    y_train = _matrix(payload["Y_train"], "Y_train")
    d_raw = payload["description"]
    if not isinstance(d_raw, dict):
        raise SchemaError("field 'description' must be an object")
    for key in ("alpha", "center", "radius_sq", "sv_indices", "boundary_sv_indices"):
        if key not in d_raw:
            raise SchemaError(f"description is missing field {key!r}")
    alpha = AlphaVector(alpha=_vector(d_raw["alpha"], "alpha"), C=float(cfg.get("C", 0.0)))
    desc = DataDescription(
        alpha=alpha,
        center=_vector(d_raw["center"], "center"),
        radius_sq=float(d_raw["radius_sq"]),
        sv_indices=np.asarray(d_raw["sv_indices"], dtype=np.int64),
        boundary_sv_indices=np.asarray(d_raw["boundary_sv_indices"], dtype=np.int64),
    )
    npt = None
    if "npt" in payload:
        n_raw = payload["npt"]
        for key in ("Phi", "U_r", "eigvals_r", "K_train", "sigma", "train_X"):
            if key not in n_raw:
                raise SchemaError(f"npt block is missing field {key!r}")
        npt = NptBasis(
            phi=_matrix(n_raw["Phi"], "Phi"),
            u_r=_matrix(n_raw["U_r"], "U_r"),
            eigvals_r=_vector(n_raw["eigvals_r"], "eigvals_r"),
            k_train=_matrix(n_raw["K_train"], "K_train"),
            sigma=float(n_raw["sigma"]),
            train_x=_matrix(n_raw["train_X"], "train_X"),
        )
    model = TrainedModel(
        config=cfg, q=q, description=desc, y_train=y_train, npt=npt, format_version=version
    )
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
    scaling = model.config.get("scaling")
    if scaling is not None:
        mean = np.asarray(scaling["mean"], dtype=np.float64)
        std = np.asarray(scaling["std"], dtype=np.float64)
        pts = (pts - mean[:, None]) / std[:, None]
    if model.npt is not None:
        pts = npt_map(pts, model.npt)
    return decide_batch(model.q @ pts, model.description)
