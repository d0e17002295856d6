"""Serialization of trained models and the standalone prediction path.

Models are stored as one JSON document (format_version 5). The config,
alpha, the radius and sigma are plain JSON; each dense float array (a linear
model's Q, an rbf model's W and training inputs, and the center) is one
base64 string of its little-endian IEEE doubles ("<f8") in row-major order.
The file stores no shapes: ``load`` takes them from ``config.d`` and the
length of alpha. A save/load cycle reproduces predictions bit for bit, since
the bytes are the doubles themselves. A file holds what prediction reads,
the config and scaling, the map W, the center and radius, plus alpha, and no
value that ``load`` can recompute from these.

Every model predicts the same way: the input features (z-scored raw inputs,
and for rbf models their centered kernel vectors against the training set)
are multiplied by W and thresholded at the radius. A linear model's W is Q.
An rbf model's W is the d x N product Q A_r^{-1/2} U_r' of the subspace and
the kernel eigenmap, so its file holds W, sigma and the training inputs, and
no U_r, eigenvalues, Q or kernel row means. Format 1 to 4 files, which store
the arrays as nested JSON lists, still load (see ``load``).
"""
from __future__ import annotations

import base64
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
from .kernel import (
    KernelMap,
    NptBasis,
    center_kernel,
    kernel_vectors,
    rbf_kernel,
    subspace_map,
)
from .settings import FIT_SETTINGS, MethodSpec, check_setting, check_settings
from .svdd import FEASIBILITY_SLACK, AlphaVector, DataDescription, decide_batch, support_sets

FORMAT_VERSION = 5

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
        # every fit records d, the rows of W, though plain SVDD reads none
        check_settings(method, {name: cfg[name] for name in FIT_SETTINGS})
        check_setting("d", cfg["d"])
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
    ``_check_config`` hold. An rbf model that holds a fit's NptBasis is
    checked through it and no kernel is built (``_check_basis_map``); any
    other through its training kernel ``k``, built here when None."""
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
    if not np.isfinite(desc.center).all():
        raise InvariantViolation("center holds NaN or Inf")
    if not 0.0 <= desc.radius_sq < np.inf:  # false for NaN too
        raise InvariantViolation("radius_sq must be a non-negative finite number")
    # on a list: three numpy reductions of a small model's alpha cost more
    a, slack = desc.alpha.alpha.tolist(), FEASIBILITY_SLACK
    if not (abs(sum(a) - 1.0) <= slack and min(a) >= -slack and max(a) <= desc.alpha.C + slack):
        raise InvariantViolation("alpha must sum to 1 with each entry between 0 and C")
    if npt is None:
        dev = np.abs(w @ w.T - np.eye(w.shape[0])).max()
        if not dev <= 1e-8:  # false for NaN too
            raise InvariantViolation(f"Q rows not orthonormal (deviation {dev:.3e})")
    elif isinstance(npt, NptBasis):
        _check_basis_map(w, npt, desc.alpha.alpha.shape[0])
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


def _check_npt_block(w, sigma, train_x, n):
    """Raise unless W's columns, the training inputs and the ``n`` alphas
    agree in number and sigma is in range."""
    if not train_x.shape[1] == w.shape[1] == n:
        raise InvariantViolation("npt block does not match the alpha length")
    try:
        check_setting("sigma", sigma)
    except ValueError as exc:
        raise InvariantViolation(f"npt block: {exc}") from None


def _training_kernel(w, sigma, train_x, n):
    """The rbf kernel of the training inputs, once ``_check_npt_block`` passed."""
    _check_npt_block(w, sigma, train_x, n)
    return rbf_kernel(train_x, sigma)


def _check_kernel_map(w, k):
    """W K_hat W' = I, the rbf form of QQ' = I, with K_hat the centered
    training kernel ``k``."""
    k_hat = center_kernel(k)
    _check_identity(w @ k_hat @ w.T, w, np.abs(k_hat).sum(axis=1).max())  # >= ||K_hat||_2


def _check_basis_map(w, basis: NptBasis, n):
    """W K_hat W' = I through a fit's kernel basis of ``n`` training inputs,
    in O(dNr) and with no kernel, once the npt block's shapes and sigma pass.

    W's rows lie in span(U_r), so W K_hat W' = (W U_r) A_r (W U_r)'. The
    part of a row outside span(U_r), of norm o_a = (||w_a||^2 - ||w_a U_r||^2)^(1/2),
    meets only the dropped eigenpairs, so ``basis.dropped_max`` * o_a o_b is
    added to each deviation. The tolerance
    is ``_check_kernel_map``'s with ||K_hat|| = lambda_max = ||K_hat||_2, at
    most the ||K_hat||_inf that one takes: this check is the tighter, so a
    model it passes, ``load`` passes. It trusts the basis to be that of
    ``basis.train_x``; ``_check_basis_band`` tests that first.
    """
    _check_npt_block(w, basis.sigma, basis.train_x, n)
    if basis.u_r.shape[0] != n:
        raise InvariantViolation("npt block: U_r does not match the training inputs")
    lam_max = basis.eigvals_r.max()
    _check_basis_band(basis, lam_max)
    wu = w @ basis.u_r
    outside = np.sqrt(np.maximum((w * w).sum(axis=1) - (wu * wu).sum(axis=1), 0.0))
    _check_identity((wu * basis.eigvals_r) @ wu.T, w, lam_max,
                    basis.dropped_max * np.outer(outside, outside))


def _check_basis_band(basis: NptBasis, lam_max):
    """Raise unless the basis is that of its training inputs, sigma and row
    means, on the kernel entries K_{i,i+h}, h = N // 2, which meet every
    training input: each from ``train_x`` and sigma in O(D), against
    U_r A_r U_r' plus the row means m (K = K_hat + m 1' + 1 m' - mean(m)) in
    O(r).

    An entry may differ by the dropped eigenpairs (``basis.dropped_max``),
    the eigensolver's rounding (MAP_TOL * eps * N * lambda_max), the
    centering's and its undoing's of entries and means at most 1 (MAP_TOL *
    eps), and the rounding of ||x_i - x_j||^2: at most (2D + 3) eps (||x_i||^2
    + ||x_j||^2) in the fit's Gram form x_i'x_i + x_j'x_j - 2 x_i'x_j, and
    (2D + 4) eps (||x_i||^2 + ||x_j||^2) here, which the exponential passes on
    divided by 2 sigma^2 and no larger. Other training inputs (a permutation
    too), another sigma or other row means fail this by far.
    """
    x, u, lam, m = basis.train_x, basis.u_r, basis.eigvals_r, basis.k_row_mean
    dim, n = x.shape
    h = max(n // 2, 1)
    scale = 2.0 * basis.sigma * basis.sigma
    step = x[:, h:] - x[:, :n - h]
    k = np.exp(np.einsum("ij,ij->j", step, step) / -scale)
    rebuilt = (u[h:] * u[:n - h]) @ lam + (m[h:] + m[:n - h] - m.mean())
    sq = np.einsum("ij,ij->j", x, x)
    eps = np.finfo(np.float64).eps
    tol = (basis.dropped_max + MAP_TOL * eps * (n * lam_max + 1.0)
           + (4 * dim + 7) * eps * (sq[h:] + sq[:n - h]) / scale)
    if not np.all(np.abs(k - rebuilt) <= tol):  # false for NaN too
        raise InvariantViolation("npt block: the kernel basis is not that of the training "
                                 "inputs at sigma")


def _check_identity(gram, w, k_norm, extra=0.0):
    """|gram - I| + ``extra`` within MAP_TOL * eps * N * ``k_norm`` *
    ||w_a|| ||w_b||, entry by entry, for a gram that is W K_hat W'."""
    row_norm = np.sqrt((w * w).sum(axis=1))
    tol = MAP_TOL * np.finfo(np.float64).eps * w.shape[1] * k_norm * np.outer(row_norm, row_norm)
    dev = np.abs(gram - np.eye(w.shape[0])) + extra
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
    """Write the model as a format_version 5 JSON document."""
    _check_config(model.config)
    _check_model(model)
    desc = model.description
    payload = {
        "format_version": FORMAT_VERSION,
        "config": {k: model.config[k] for k in CONFIG_KEYS},
    }
    if model.npt is None:
        payload["Q"] = _encoded(model.w)
    payload["description"] = {
        "alpha": desc.alpha.alpha.tolist(),
        "center": _encoded(desc.center),
        "radius_sq": desc.radius_sq,
    }
    if model.npt is not None:
        payload["npt"] = {
            "W": _encoded(model.w),
            "sigma": model.npt.sigma,
            "train_X": _encoded(model.npt.train_x),
        }
    # json.dump streams through the pure-Python encoder; one dumps call uses
    # the C encoder and gives the same bytes
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload) + "\n")


def _encoded(a):
    """The base64 text of ``a``'s little-endian doubles in row-major order."""
    return base64.b64encode(np.asarray(a, dtype="<f8").tobytes()).decode("ascii")


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
    booleans ("b") and nulls ("O"); a boolean among numbers, which numpy reads
    as 1 or 0, is caught by a test of each entry.
    """
    try:
        a = np.asarray(obj)
    except (TypeError, ValueError):
        a = None
    if (a is None or a.dtype.kind not in "iuf" or a.ndim != ndim or not np.isfinite(a).all()
            or _holds_bool(obj, ndim)):
        shape = ("number", "vector", "matrix")[ndim]
        raise SchemaError(f"field {key!r} must be a {shape} of finite values")
    return a.astype(np.float64, copy=False)


def _holds_bool(obj, ndim):
    """Whether a list (ndim 1) or list of lists (2) of numbers holds a boolean."""
    rows = obj if ndim == 2 else [obj] if ndim == 1 else []
    return any(bool in map(type, row) for row in rows)


def _decoded(obj, key, shape):
    """The array of ``shape`` a format 5 field encodes, with -1 standing for
    the one extent its length gives: ``obj`` must be base64 text of finite
    little-endian doubles in row-major order, at least one. Returns a
    writable, native-endian, C-ordered float64 copy."""
    a = None
    if isinstance(obj, str):
        # each raises a ValueError: b64decode off the alphabet (binascii.Error)
        # or beyond ASCII, frombuffer for a partial double, reshape for a
        # length the shape does not fit
        try:
            a = np.frombuffer(base64.b64decode(obj, validate=True), dtype="<f8").reshape(shape)
        except ValueError:
            pass
    if a is None or not a.size:
        dims = " x ".join("n" if n == -1 else str(n) for n in shape)
        raise SchemaError(f"field {key!r} must be base64 text of a {dims} array of doubles")
    if not np.isfinite(a).all():
        raise SchemaError(f"field {key!r} must hold finite values")
    return a.astype(np.float64)


def _dense(version, obj, key, shape):
    """A dense array field of a file of ``version``: base64 text in format 5
    (``_decoded``), nested lists (``_array``) before."""
    if version == FORMAT_VERSION:
        return _decoded(obj, key, shape)
    return _array(obj, key, len(shape))


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

    A format 5 file's dense arrays are decoded by ``_decoded``, with the
    shapes ``config.d`` and the length N of alpha give: d rows for ``Q``,
    ``W`` and ``center``, N columns for ``train_X``. Older files store them
    as lists (``_array``).

    The support-vector index sets come from alpha and C (``support_sets``).
    An rbf model's training kernel is built once: its row means centre new
    kernel vectors, and it gives the W K_hat W' = I check. A format 1 or 2
    rbf model's W is composed from its ``Q``, ``npt.U_r`` and
    ``npt.eigvals_r``. Older files' index lists, ``npt.K_row_mean`` and
    format 1's ``Y_train``, ``npt.Phi`` and ``npt.K_train`` are ignored.
    """
    path = Path(path)
    # json.loads decodes the UTF-8 bytes itself, faster than a text-mode read
    try:
        payload = json.loads(path.read_bytes())
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise SchemaError(f"{path}: not valid JSON ({exc})") from None
    _fields(payload, f"{path}: top level", ())
    version = payload.get("format_version")
    # type(): True == 1 and 3.0 == 3, but neither is a JSON integer
    if type(version) is not int or not 1 <= version <= FORMAT_VERSION:
        raise VersionError(f"unknown format_version {version!r}")
    _fields(payload, "model file", ("config", "description"))
    cfg = _check_config(payload["config"])
    d_raw = _fields(payload["description"], "description", DESCRIPTION_KEYS)
    alpha = AlphaVector(_array(d_raw["alpha"], "alpha", 1), float(cfg["C"]))
    d, n = cfg["d"], alpha.alpha.shape[0]
    desc = DataDescription(alpha, _dense(version, d_raw["center"], "center", (d,)),
                           float(_array(d_raw["radius_sq"], "radius_sq", 0)),
                           *support_sets(alpha))
    npt = k = None
    if "npt" in payload:
        n_raw = _fields(payload["npt"], "npt block", ("sigma", "train_X"))
        if version >= 3:
            w = _dense(version, _fields(n_raw, "npt block", ("W",))["W"], "W", (d, -1))
        else:
            w = _old_rbf_map(payload, _fields(n_raw, "npt block", ("U_r", "eigvals_r")))
        sigma = float(_array(n_raw["sigma"], "sigma", 0))
        train_x = _dense(version, n_raw["train_X"], "train_X", (-1, n))
        k = _training_kernel(w, sigma, train_x, n)
        npt = KernelMap(k_row_mean=k.mean(axis=1), sigma=sigma, train_x=train_x)
    else:
        w = _dense(version, _fields(payload, "model file", ("Q",))["Q"], "Q", (d, -1))
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
