"""CSV ingestion, one-class splits, and k-fold index generation.

Conventions: features are stored as a D x N matrix (one column per sample),
labels are strings, and every split or fold is a pure function of
(data, parameters, seed).
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    EmptyFile,
    ParseError,
    RaggedRows,
    TooFewSamples,
    UnknownClass,
)
from .settings import check_setting


@dataclass(frozen=True)
class DataSet:
    features: np.ndarray  # D x N
    labels: np.ndarray  # N strings
    class_names: list[str]
    name: str

    @property
    def n_samples(self):
        return self.features.shape[1]

    @property
    def n_features(self):
        return self.features.shape[0]


@dataclass(frozen=True)
class OccSplit:
    """A stratified 70/30-style split for one target class.

    ``train_target`` holds the target-class members of the training portion
    (the only samples a one-class model is fitted on); ``train_all`` holds the
    whole training portion (all classes, used to build CV folds whose held-out
    parts contain negatives); ``test_indices`` holds the all-classes test
    portion.
    """

    train_target: np.ndarray
    train_all: np.ndarray = field(repr=False)
    test_indices: np.ndarray
    target_class: str


def _read_rows(path, has_header, label_column=None):
    """Parse a CSV's rows into a D x N float matrix and a list of labels.

    Blank lines are skipped and, with ``has_header``, the first row. With
    ``label_column`` ('first' or 'last') that column is split off as a
    stripped string label; otherwise every cell is a feature and the label
    list stays empty. Feature cells must parse as finite floats; the
    offending cell is reported by row and feature column otherwise.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if has_header and rows:
        rows = rows[1:]
    if not rows:
        raise EmptyFile(f"{path} has no data rows")
    width = len(rows[0])
    if label_column is not None and width < 2:
        raise ParseError(f"{path}: rows need at least one feature and a label")
    features = []
    labels = []
    for r, row in enumerate(rows):
        if len(row) != width:
            raise RaggedRows(f"{path}: row {r} has {len(row)} fields, expected {width}")
        if label_column == "last":
            row, label = row[:-1], row[-1]
            labels.append(label.strip())
        elif label_column == "first":
            label, row = row[0], row[1:]
            labels.append(label.strip())
        vals = []
        for c, cell in enumerate(row):
            try:
                v = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: row {r} column {c}: {cell!r} is not numeric"
                ) from None
            if not math.isfinite(v):
                raise ParseError(f"{path}: row {r} column {c}: non-finite value {cell!r}")
            vals.append(v)
        features.append(vals)
    return np.asarray(features, dtype=np.float64).T, labels


def load_csv(path, has_header=False, label_column="last", name=None):
    """Load a rectangular numeric CSV with a string class label per row.

    ``label_column`` selects which column carries the label ('first' or
    'last'). Feature cells must parse as finite floats; the offending cell is
    reported otherwise.
    """
    if label_column not in ("first", "last"):
        raise ValueError("label_column must be 'first' or 'last'")
    path = Path(path)
    mat, labels = _read_rows(path, has_header, label_column)
    return DataSet(
        features=mat,
        labels=np.asarray(labels, dtype=object),
        class_names=sorted(set(labels)),
        name=name if name is not None else path.stem,
    )


def load_features_csv(path, has_header=False):
    """Load an unlabeled CSV of feature rows as a D x M matrix (for predict)."""
    return _read_rows(Path(path), has_header)[0]


def make_occ_split(ds: DataSet, target, train_frac, seed):
    """Stratified shuffle split; training is per-class, test keeps all classes."""
    check_setting("train_frac", train_frac)
    if target not in ds.class_names:
        raise UnknownClass(f"{target!r} not among classes {ds.class_names}")
    rng = np.random.default_rng(seed)
    train_parts = []
    test_parts = []
    train_target = None
    for cls in ds.class_names:
        idx = np.nonzero(ds.labels == cls)[0]
        perm = idx[rng.permutation(idx.size)]
        n_train = int(math.floor(train_frac * idx.size + 0.5))
        train_parts.append(perm[:n_train])
        test_parts.append(perm[n_train:])
        if cls == target:
            train_target = np.sort(perm[:n_train])
    if train_target.size < 3:
        raise TooFewSamples(
            f"target class {target!r} has only {train_target.size} training samples"
        )
    return OccSplit(
        train_target=train_target,
        train_all=np.sort(np.concatenate(train_parts)),
        test_indices=np.sort(np.concatenate(test_parts)),
        target_class=target,
    )


def kfold(indices, k, seed):
    """Deterministic k-fold partition; validation folds cover all indices."""
    idx = np.asarray(indices)
    check_setting("k", k)
    if idx.size < k:
        raise TooFewSamples(f"{idx.size} indices cannot form {k} folds")
    rng = np.random.default_rng(seed)
    perm = idx[rng.permutation(idx.size)]
    folds = np.array_split(perm, k)
    out = []
    for i in range(k):
        val = np.sort(folds[i])
        train = np.sort(np.concatenate([folds[j] for j in range(k) if j != i]))
        out.append((train, val))
    return out


def zscore_fit(features):
    """Per-feature mean/std over columns; zero-variance features get std 1."""
    mean = features.mean(axis=1)
    std = features.std(axis=1)
    std = np.where(std < 1e-12, 1.0, std)
    return mean, std


def zscore_apply(features, mean, std):
    return (features - mean[:, None]) / std[:, None]
