"""Metrics, cross-validated grid search, repeated-split benchmarking, traces.

The benchmark protocol per (dataset, target class, method): five stratified
70/30 splits; on each training portion a 5-fold grid search picks the
hyperparameters with the best mean validation Gmean (folds are cut from the
all-classes training portion, models are fitted on the target-class members
of the non-held-out folds so the held-out fold supplies negatives; the fits
of one fold and sigma share one kernel basis, see ``grid_search``); the final
model is refitted on all training targets and scored on the test portion.
All randomness is derived from one base seed, so every cell is reproducible.
"""
from __future__ import annotations

import csv
import functools
import hashlib
import itertools
import logging
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .data import DataSet, OccSplit, kfold, make_occ_split
from .errors import DataError, SubsvddError
from .metrics import ConfusionCounts, confusion_from_labels, gmean
from .model_store import predict
from .pipeline import fit_occ_model, prepare_features
from .settings import MethodSpec, check_setting, parse_method

__all__ = [
    "ConfusionCounts",
    "gmean",
    "confusion_from_labels",
    "GridSpec",
    "grid_search",
    "run_benchmark",
    "trace_run",
    "BenchmarkRow",
    "BenchmarkReport",
    "derive_seed",
]

log = logging.getLogger("subsvdd")

REPORT_COLUMNS = (
    "dataset",
    "target_class",
    "method",
    "kernel",
    "psi",
    "direction",
    "split_index",
    "gmean",
    "selected_beta",
    "selected_C",
    "selected_sigma",
    "selected_d",
    "selected_eta",
    "wall_ms",
)

TRACE_COLUMNS = ("split_index", "iteration", "objective", "gmean")

# share of each class in a split's training portion
TRAIN_FRAC = 0.7

# the fit_occ_model keywords a run hands to every fit; the grid point (or the
# trace's params) and the cell set the others
FIT_OPTIONS = ("k_max", "zscore")


def derive_seed(base, *parts):
    """Stable 63-bit seed from a base seed and any hashable path of parts."""
    text = "|".join([str(base)] + [str(p) for p in parts])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class GridSpec:
    """Hyperparameter candidate lists; defaults are the standard search ranges.
    Each entry of each list must lie in the range of its setting. Each list
    is held sorted and without repeats: of values that are equal as floats
    (``1`` and ``1.0``), the first given is kept."""

    beta: tuple = (1e-2, 1e-1, 1.0, 1e1, 1e2)
    C: tuple = (0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5)
    sigma: tuple = (1e-1, 1.0, 1e1, 1e2, 1e3)
    d: tuple = (1, 2, 3, 4, 5, 10, 20)
    eta: tuple = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1)

    def __post_init__(self):
        for name in (f.name for f in fields(self)):
            values = getattr(self, name)
            if not (isinstance(values, (list, tuple)) and values):
                raise ValueError(f"grid list {name!r} must be a non-empty list")
            first = {}
            for value in values:
                try:
                    check_setting(name, value)
                except ValueError as exc:
                    raise ValueError(f"grid list {name!r}: {exc}") from None
                first.setdefault(float(value), value)
            object.__setattr__(self, name, tuple(first[key] for key in sorted(first)))


# the settings a grid point sets, in the order points are enumerated
GRID_ORDER = ("d", "C", "beta", "eta", "sigma")


def enumerate_grid(method: MethodSpec, grid: GridSpec, input_dim):
    """All candidate hyperparameter points for one method, in lexicographic
    (d, C, beta, eta, sigma) order.

    A setting the method does not read (``MethodSpec.reads``) is None in
    every point. For linear subspace methods d > input_dim is skipped (the
    projection must reduce dimension); for rbf the fit clamps d at the
    retained kernel rank. With psi0 the regularizer vanishes, so the beta
    sweep collapses to its smallest value.
    """
    lists = {name: getattr(grid, name) if method.reads(name) else (None,)
             for name in GRID_ORDER}
    if method.psi == 0:
        lists["beta"] = lists["beta"][:1]
    if method.kernel == "linear" and method.reads("d"):
        lists["d"] = [d for d in lists["d"] if d <= input_dim]
    return [dict(zip(GRID_ORDER, values)) for values in itertools.product(*lists.values())]


def _grid_points(ds: DataSet, method: MethodSpec, grid: GridSpec):
    """``enumerate_grid`` on ``ds``; DataError when it has no point (every d > D)."""
    points = enumerate_grid(method, grid, ds.n_features)
    if not points:
        raise DataError(f"dataset {ds.name!r}: no grid point for {method}: every d in "
                        f"{list(grid.d)} exceeds its {ds.n_features} features")
    return points


def _fit(features, method, point, seed, **options):
    """``fit_occ_model`` on one hyperparameter point. Its ``None`` entries
    (hyperparameters the method does not use) are left out, so they take
    ``fit_occ_model``'s defaults; ``options`` pass through unchanged."""
    given = {name: value for name, value in point.items() if value is not None}
    return fit_occ_model(features, method, seed=seed, **given, **options)


def _fold_score(prepared, x_val, is_target, method, point, seed, options):
    """Validation Gmean of one fold's fit at one point; 0.0 when it fails."""
    try:
        model, _ = _fit(prepared, method, point, seed, **options)
        _, pos = predict(model, x_val)
        return gmean(confusion_from_labels(is_target, pos))
    except SubsvddError as exc:
        log.debug("grid point %s failed on a fold: %s", point, exc)
        return 0.0


def grid_search(ds: DataSet, split: OccSplit, method: MethodSpec, grid: GridSpec,
                k=5, seed=0, **options):
    """Pick the grid point with the best mean validation Gmean.

    ``options`` go to every ``fit_occ_model`` call unchanged; a key not in
    FIT_OPTIONS raises ValueError before any fold is cut. The loop runs
    over folds, then over sigma, then over that sigma's points, and prepares
    each fold's training columns once per sigma (``prepare_features``): the
    fits of one (fold, sigma) share its z-scoring and its kernel basis, which
    is built on the first feasible fit and dropped when the next sigma's
    features replace it, so one basis is held at a time. A point's score is
    its mean over the folds, in fold order. Ties go to the smallest (d, C,
    beta, eta, sigma) in lexicographic order because candidates are scanned
    in that order and only strict improvements replace the incumbent. A
    grid with no point for the method raises DataError.
    """
    _check_options(options)
    points = _grid_points(ds, method, grid)
    folds = kfold(split.train_all, k, seed)
    by_sigma = {}
    for i, point in enumerate(points):
        by_sigma.setdefault(point["sigma"], []).append(i)
    # the one fit option that shapes the features; left out, it keeps its default
    shaping = {"zscore": options["zscore"]} if "zscore" in options else {}
    scores = [[] for _ in points]
    for train_idx, val_idx in folds:
        fit_idx = train_idx[ds.labels[train_idx] == split.target_class]
        x_val = ds.features[:, val_idx]
        is_target = ds.labels[val_idx] == split.target_class
        for sigma, members in by_sigma.items():
            prepared = prepare_features(ds.features[:, fit_idx], method.kernel, sigma, **shaping)
            for i in members:
                scores[i].append(_fold_score(prepared, x_val, is_target, method, points[i],
                                             seed, options))
    best_point = None
    best_score = -1.0
    for point, fold_scores in zip(points, scores):
        score = float(np.mean(fold_scores))
        if score > best_score:
            best_score = score
            best_point = point
    return best_point, best_score


@dataclass(frozen=True)
class BenchmarkRow:
    dataset: str
    target_class: str
    method: MethodSpec
    split_index: int
    gmean: float | None
    selected: dict
    wall_ms: float | None


@dataclass(frozen=True)
class BenchmarkReport:
    rows: list = field(repr=False)

    def mean_gmean(self, dataset, target_class, method_str):
        vals = [
            r.gmean
            for r in self.rows
            if r.dataset == dataset
            and r.target_class == target_class
            and str(r.method) == method_str
            and r.gmean is not None
        ]
        return float(np.mean(vals)) if vals else None

    def write_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(REPORT_COLUMNS)
            for r in self.rows:
                sel = r.selected or {}
                w.writerow(
                    [
                        r.dataset,
                        r.target_class,
                        r.method.family,
                        r.method.kernel,
                        "" if r.method.psi is None else r.method.psi,
                        "" if r.method.direction is None else r.method.direction,
                        r.split_index,
                        "" if r.gmean is None else repr(r.gmean),
                        _cell(sel.get("beta")),
                        _cell(sel.get("C")),
                        _cell(sel.get("sigma")),
                        _cell(sel.get("d")),
                        _cell(sel.get("eta")),
                        "" if r.wall_ms is None else repr(r.wall_ms),
                    ]
                )

    def format_table(self):
        """Aligned per-dataset table: one row per method, one column per class."""
        lines = []
        datasets = _stable_unique(r.dataset for r in self.rows)
        for ds_name in datasets:
            ds_rows = [r for r in self.rows if r.dataset == ds_name]
            classes = _stable_unique(r.target_class for r in ds_rows)
            methods = _stable_unique(str(r.method) for r in ds_rows)
            header = ["method".ljust(26)] + [c[:12].rjust(12) for c in classes]
            header.append("Av.".rjust(12))
            lines.append(f"== {ds_name} ==")
            lines.append(" ".join(header))
            for m in methods:
                cells = []
                means = []
                for c in classes:
                    v = self.mean_gmean(ds_name, c, m)
                    cells.append(("-" if v is None else f"{v:.2f}").rjust(12))
                    if v is not None:
                        means.append(v)
                avg = f"{np.mean(means):.2f}" if means else "-"
                lines.append(" ".join([m.ljust(26)] + cells + [avg.rjust(12)]))
            lines.append("")
        return "\n".join(lines)


def _cell(v):
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return str(int(v))
    return repr(float(v))


def _stable_unique(items):
    seen = []
    for it in items:
        if it not in seen:
            seen.append(it)
    return seen


def _split_and_seed(ds, target, rep, base_seed):
    """Split ``rep`` of target class ``target``, at TRAIN_FRAC, and its final fit's seed."""
    split = make_occ_split(ds, target, TRAIN_FRAC, derive_seed(base_seed, ds.name, target, rep))
    return split, derive_seed(base_seed, ds.name, target, rep, "fit")


def _bench_cell(cell, options, *, base_seed, grid, k, timing):
    """One benchmark cell: split, grid search, final fit, test Gmean. A cell
    that fails is logged and reported with no Gmean, selection or time."""
    ds, target, method, rep = cell
    row = functools.partial(BenchmarkRow, dataset=ds.name, target_class=target, method=method,
                            split_index=rep)
    t0 = time.perf_counter()
    try:
        split, fit_seed = _split_and_seed(ds, target, rep, base_seed)
        cv_seed = derive_seed(base_seed, ds.name, target, rep, "cv")
        point, _ = grid_search(ds, split, method, grid, k, cv_seed, **options)
        model, _ = _fit(ds.features[:, split.train_target], method, point, fit_seed, **options)
        _, pos = predict(model, ds.features[:, split.test_indices])
        score = gmean(confusion_from_labels(ds.labels[split.test_indices] == target, pos))
    except SubsvddError as exc:
        log.warning("benchmark cell failed (%s / %s / %s / split %d): %s",
                    ds.name, target, method, rep, exc)
        return row(gmean=None, selected={}, wall_ms=None)
    wall = (time.perf_counter() - t0) * 1000.0 if timing else None
    return row(gmean=score, selected=point, wall_ms=wall)


def _check_options(options):
    unknown = sorted(set(options) - set(FIT_OPTIONS))
    if unknown:
        raise ValueError(f"unknown fit option {unknown[0]!r}; the options a run passes to "
                         f"every fit are {', '.join(FIT_OPTIONS)}")


def run_benchmark(datasets, methods, repetitions=5, seed=42, *, grid=None, k=5, jobs=1,
                  timing=False, **options):
    """Full repeated-split benchmark over datasets x target classes x methods.

    ``options`` go to every ``fit_occ_model`` call unchanged. A key of
    ``options`` not in FIT_OPTIONS, or a run setting (or the base ``seed``)
    out of its range in ``settings.RANGES``, raises ValueError before any
    cell runs, and so does DataError for a (dataset, method) the grid has no
    point for.
    """
    _check_options(options)
    for name, value in (("repetitions", repetitions), ("seed", seed), ("k", k), ("jobs", jobs)):
        check_setting(name, value)
    specs = [parse_method(m) for m in methods]
    grid = grid or GridSpec()
    for ds, method in itertools.product(datasets, specs):
        _grid_points(ds, method, grid)
    cells = [
        (ds, target, method, rep)
        for ds in datasets
        for target in ds.class_names
        for method in specs
        for rep in range(repetitions)
    ]
    run_cell = functools.partial(_bench_cell, options=options, base_seed=seed,
                                 grid=grid, k=k, timing=timing)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(run_cell, cells, chunksize=1))
    else:
        rows = [run_cell(cell) for cell in cells]
    return BenchmarkReport(rows=rows)


def trace_run(ds: DataSet, target, method: MethodSpec, params, seed=42, splits=5, **options):
    """Per-iteration (objective, test Gmean) trace over repeated splits.

    ``params`` maps hyperparameter names (C, d, beta, eta, sigma) to fixed
    values; no search happens here, and ``None`` values take
    ``fit_occ_model``'s defaults. ``options`` go to ``fit_occ_model``
    unchanged; a key not in FIT_OPTIONS raises ValueError before any fit.
    ``splits`` and the base ``seed`` must lie in their ranges in
    ``settings.RANGES``. Split and fit seed are those of a benchmark cell
    (``_split_and_seed``). Returns rows (split_index, iteration, objective,
    gmean) for each split, followed by the across-split average series with
    split_index 'avg'.
    """
    _check_options(options)
    check_setting("splits", splits)
    check_setting("seed", seed)
    per_split = []
    for rep in range(splits):
        split, fit_seed = _split_and_seed(ds, target, rep, seed)
        truth = ds.labels[split.test_indices] == target
        _, trace = _fit(
            ds.features[:, split.train_target], method, params, fit_seed,
            eval_data=(ds.features[:, split.test_indices], truth), **options,
        )
        per_split.append(trace)
    rows = []
    for rep, trace in enumerate(per_split):
        for tr in trace:
            rows.append((rep, tr.iteration, tr.objective, tr.gmean))
    n_iter = min(len(t) for t in per_split)
    for i in range(n_iter):
        obj = float(np.mean([t[i].objective for t in per_split]))
        gms = [t[i].gmean for t in per_split if t[i].gmean is not None]
        avg_g = float(np.mean(gms)) if gms else None
        rows.append(("avg", per_split[0][i].iteration, obj, avg_g))
    return rows


def write_trace_csv(rows, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(TRACE_COLUMNS)
        for split_index, iteration, objective, score in rows:
            w.writerow(
                [
                    split_index,
                    iteration,
                    repr(float(objective)),
                    "" if score is None else repr(float(score)),
                ]
            )
