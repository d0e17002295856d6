"""Seeded inputs and the timed passes of the benchmark's workloads.

Every workload runs every operation a user of the toolkit runs: grid-search
cells (``run_benchmark``), training (``fit_occ_model``), the model store
(``save``, ``load``) and prediction (``predict``). The workloads differ in the
data's shape and in where the time goes; see README.md.

A pass is a fixed list of operations on inputs made once in set-up, so two
passes of one run do identical work. Inside a pass the timed windows of the
different operations take turns, so each metric is sampled throughout the run
rather than in one stretch of it.
"""
from __future__ import annotations

import json
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import subsvdd
from subsvdd import GridSpec, evaluate, model_store, parse_method
from subsvdd.errors import SubsvddError

import checks

TRAIN_FRAC = 0.7  # run_benchmark's split of each class into train and test

# ---------------------------------------------------------------- inputs

# Seeds (UCI): 7 features of wheat kernels, 3 classes of 70. Means and
# standard deviations are those of the real set; class offsets are in units
# of the standard deviation; a shared size factor correlates the geometric
# features as in the real data.
SEEDS_MEAN = np.array([14.85, 14.56, 0.871, 5.63, 3.26, 3.70, 5.41])
SEEDS_STD = np.array([2.91, 1.31, 0.024, 0.44, 0.38, 1.50, 0.49])
SEEDS_OFFSET = {
    "kama": np.array([0.0, 0.0, 0.3, 0.0, 0.0, -0.3, 0.0]),
    "rosa": np.array([1.2, 1.2, 0.3, 1.2, 1.2, 0.0, 1.2]),
    "canadian": np.array([-1.2, -1.2, -0.8, -1.1, -1.2, 0.9, -0.8]),
}
SEEDS_SIZE_LOADING = np.array([0.45, 0.45, 0.1, 0.4, 0.4, 0.0, 0.4])
SEEDS_NOISE = 0.25

# Ionosphere (UCI): 34 radar features in [-1, 1], 225 "good" and 126 "bad"
# returns. Good returns follow a damped oscillation, bad returns an
# opposite-phase one; each class has two latent factors and noise 0.2.
# Loadings are fixed; only the draws depend on the seed.
IONO_DIM = 34
_j = np.arange(IONO_DIM)
IONO_GOOD_MEAN = 0.7 * np.cos(np.pi * _j / 8.0) * np.exp(-_j / 40.0)
IONO_BAD_MEAN = 0.1 - 0.8 * IONO_GOOD_MEAN
IONO_GOOD_LOADING = np.random.default_rng(34).standard_normal((IONO_DIM, 2)) * 0.2
IONO_BAD_LOADING = np.random.default_rng(35).standard_normal((IONO_DIM, 2)) * 0.2
IONO_NOISE = 0.2


def seeds_like(rng, n_per_class=70):
    blocks, labels = [], []
    for cls, offset in SEEDS_OFFSET.items():
        size = rng.standard_normal(n_per_class)
        noise = rng.standard_normal((SEEDS_MEAN.size, n_per_class))
        z = offset[:, None] + SEEDS_SIZE_LOADING[:, None] * size + SEEDS_NOISE * noise
        blocks.append(SEEDS_MEAN[:, None] + SEEDS_STD[:, None] * z)
        labels += [cls] * n_per_class
    return subsvdd.DataSet(
        features=np.hstack(blocks), labels=np.array(labels, dtype=object),
        class_names=sorted(SEEDS_OFFSET), name="seeds",
    )


def _iono_class(rng, n, mean, loading):
    x = mean[:, None] + loading @ rng.standard_normal((2, n))
    return np.clip(x + IONO_NOISE * rng.standard_normal((IONO_DIM, n)), -1.0, 1.0)


def iono_good(rng, n):
    return _iono_class(rng, n, IONO_GOOD_MEAN, IONO_GOOD_LOADING)


def iono_bad(rng, n):
    return _iono_class(rng, n, IONO_BAD_MEAN, IONO_BAD_LOADING)


def ionosphere_like(rng, n_good=225, n_bad=126):
    return subsvdd.DataSet(
        features=np.hstack([iono_good(rng, n_good), iono_bad(rng, n_bad)]),
        labels=np.array(["g"] * n_good + ["b"] * n_bad, dtype=object),
        class_names=["b", "g"], name="ionosphere",
    )


def mixed_block(ds, rng, size):
    """Points to predict: training-set columns plus small jitter."""
    cols = rng.integers(0, ds.n_samples, size)
    spread = ds.features.std(axis=1, keepdims=True)
    return ds.features[:, cols] + 0.1 * spread * rng.standard_normal((ds.n_features, size))


# ---------------------------------------------------------- pass results

@dataclass
class Case:
    """A model the benchmark trained, with what it needs to check it."""

    model: object
    x_train: np.ndarray
    x_test: np.ndarray
    truth: np.ndarray
    expected_gmean: float | None = None
    # the model was trained on a C-ordered array the benchmark made, so its
    # saved-and-loaded copy must predict bit for bit the same
    bitwise_store: bool = False


# metrics measured in items per second rather than in seconds
RATES = ("predict_pts_per_s",)

# The host's speed drifts by up to 2x over seconds to minutes. Each timed
# window is therefore divided by the mean time of a fixed reference loop run
# after every window of its pass, and reported in reference seconds:
# REFERENCE_S times that ratio.
REFERENCE_S = 0.05
_REF_RNG = np.random.default_rng(0)
_REF_MATRIX = _REF_RNG.standard_normal((40, 40))
_REF_LISTS = [_REF_MATRIX.tolist() for _ in range(3)]
_REF_CENTERS = _REF_RNG.standard_normal((34, 200))
_REF_POINTS = _REF_RNG.standard_normal((34, 2000))


def reference_loop():
    """Time a fixed loop that calls nothing of the package, made of the kinds
    of work the package does in about equal shares: JSON round trips of
    nested float lists, small symmetric eigenproblems, and a Gaussian kernel
    block of 200 x 2000 points."""
    start = time.perf_counter()
    for _ in range(2):
        json.loads(json.dumps(_REF_LISTS))
        for _ in range(20):
            np.linalg.eigh(_REF_MATRIX @ _REF_MATRIX.T)
        sq = (np.square(_REF_CENTERS).sum(axis=0)[:, None] - 2.0 * (_REF_CENTERS.T @ _REF_POINTS)
              + np.square(_REF_POINTS).sum(axis=0))
        np.exp(-sq / 34.0)
    return time.perf_counter() - start


@dataclass
class PassResult:
    """What one pass measured and checked.

    ``windows`` maps a timed metric to its pieces, and a piece to its timed
    windows as (seconds, items). A piece is one fixed stretch of work that
    every pass repeats, such as one method's grid cells or one large fit.
    ``references`` holds the time of the reference loop run after each
    window. ``samples`` holds the untimed metrics, one value per pass.
    """

    windows: dict = field(default_factory=dict)
    reference: bool = True  # False in warm-up passes, whose times are not used
    references: list = field(default_factory=list)
    samples: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    store_bytes: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def sample(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def timed(self, name, piece, seconds, items=0):
        """Record a window of ``piece`` that took ``seconds`` for ``items``
        (cells, repetitions or points; 0 when the window is the unit), and
        run the reference loop."""
        if self.reference:
            self.references.append(reference_loop())
        self.windows.setdefault(name, {}).setdefault(piece, []).append((seconds, items))


def reduce_windows(name, pieces):
    """One value of a timed metric from all windows of a run, given as
    (seconds, items, mean reference loop of the window's pass).

    Every window of a piece does the same work, so each piece counts with
    the median over the run of its windows, in reference seconds. The medians
    are summed over pieces and divided by their items; a rate is items per
    reference second.
    """
    seconds = REFERENCE_S * sum(statistics.median(s / ref for s, _, ref in windows)
                                for windows in pieces.values())
    items = sum(windows[0][1] for windows in pieces.values())
    if name in RATES:
        return items / seconds
    return seconds / items if items else seconds


class FitCounter:
    """Counts the fits grid search makes, and those that raise, by wrapping the
    ``fit_occ_model`` that ``evaluate`` looks up."""

    def __init__(self):
        self.calls = 0
        self.raised = 0
        self._inner = None

    def __enter__(self):
        self._inner = inner = evaluate.fit_occ_model

        def counted(*args, **kwargs):
            self.calls += 1
            try:
                return inner(*args, **kwargs)
            except SubsvddError:
                self.raised += 1
                raise

        evaluate.fit_occ_model = counted
        return self

    def __exit__(self, *exc):
        evaluate.fit_occ_model = self._inner


# -------------------------------------------------------- shared steps

def run_cells(ds, method, grid, k_max, seed, repetitions, result, piece=None):
    """One run_benchmark call: a cell per target class and split of one
    method, timed as a window of cell_s (piece ``method`` by default)."""
    with FitCounter() as fits:
        start = time.perf_counter()
        report = subsvdd.run_benchmark([ds], [method], repetitions=repetitions, seed=seed,
                                       grid=grid, k_max=k_max)
        elapsed = time.perf_counter() - start
    result.timed("cell_s", piece or method, elapsed, len(report.rows))
    result.attempted += fits.calls
    result.failed += fits.raised + sum(row.gmean is None for row in report.rows)
    return [row for row in report.rows if row.gmean is not None]


def _split(ds, target, rep, seed):
    return subsvdd.make_occ_split(ds, target, TRAIN_FRAC,
                                  evaluate.derive_seed(seed, ds.name, target, rep))


def _fit_seed(ds, target, rep, seed):
    return evaluate.derive_seed(seed, ds.name, target, rep, "fit")


def refit_cells(ds, rows, k_max, seed):
    """Refit each row's selected point on its split, as run_benchmark does."""
    cases = []
    for row in rows:
        split, point = _split(ds, row.target_class, row.split_index, seed), row.selected
        x_train = ds.features[:, split.train_target]
        model, _ = subsvdd.fit_occ_model(
            x_train, row.method, C=point["C"], d=point["d"],
            beta=1.0 if point["beta"] is None else point["beta"],
            eta=0.01 if point["eta"] is None else point["eta"],
            sigma=point["sigma"], k_max=k_max,
            seed=_fit_seed(ds, row.target_class, row.split_index, seed))
        cases.append(Case(model, x_train, ds.features[:, split.test_indices],
                          ds.labels[split.test_indices] == row.target_class, row.gmean))
    return cases


def make_splits(ds, methods, repetitions, seed):
    """The training splits run_benchmark makes, per method, class and split."""
    splits = []
    for method in methods:
        spec = parse_method(method)
        for target in ds.class_names:
            for rep in range(repetitions):
                split = _split(ds, target, rep, seed)
                splits.append(dict(method=spec, x_train=ds.features[:, split.train_target],
                                   x_test=ds.features[:, split.test_indices],
                                   truth=ds.labels[split.test_indices] == target,
                                   seed=_fit_seed(ds, target, rep, seed)))
    return splits


def train_window(splits, points, k_max, result):
    """Fit fixed hyperparameter points on every split: one train_s window.

    The grid's selected points vary with the data, and so would their cost;
    fixed points keep a window's work the same for every seed. Returns the
    models of the first point as cases.
    """
    models = []
    start = time.perf_counter()
    for split in splits:
        for i, point in enumerate(points):
            model, _ = subsvdd.fit_occ_model(split["x_train"], split["method"], k_max=k_max,
                                             seed=split["seed"], **point)
            if i == 0:
                models.append((model, split))
    result.timed("train_s", "window", time.perf_counter() - start)
    return [Case(model, s["x_train"], s["x_test"], s["truth"]) for model, s in models]


def check_cases(cases, result):
    """Check every case against the benchmark's own computations; returns
    their recomputed Gmeans."""
    scores, notes = [], result.notes
    for case in cases:
        _, positive = model_store.predict(case.model, case.x_test)
        problems, score, info = checks.check_model(case.model, case.x_train, case.x_test,
                                                   positive, case.truth, case.expected_gmean)
        result.problems += problems
        scores.append(score)
        notes["max_kkt_gap"] = max(notes.get("max_kkt_gap", 0.0), info.get("kkt", 0.0))
        notes["max_duality_gap"] = max(notes.get("max_duality_gap", 0.0), info.get("gap", 0.0))
        notes["radius_not_optimal"] = (notes.get("radius_not_optimal", 0)
                                       + int(info.get("radius_excess", 0.0) > 1e-6))
        notes["models"] = notes.get("models", 0) + 1
    return scores


def save_files(cases, workdir, result, parse):
    """Save the pass's models to files, untimed, and check that loading them
    keeps every decision. With ``parse`` the files are read as JSON for the
    size of their parts. Returns the paths and the loaded models."""
    paths = [workdir / f"model{i}.json" for i in range(len(cases))]
    for case, path in zip(cases, paths):
        model_store.save(case.model, path)
    result.sample("model_bytes", sum(path.stat().st_size for path in paths))
    if parse:
        result.store_bytes = _part_sizes(paths)
    loaded = [model_store.load(path) for path in paths]
    for case, model in zip(cases, loaded):
        result.problems += checks.check_round_trip(
            model_store.predict(case.model, case.x_test), model_store.predict(model, case.x_test),
            case.model.description.radius_sq, case.bitwise_store)
    result.attempted += len(cases)
    return paths, loaded


def store_window(cases, paths, reps, result):
    """One timed window of saving, and one of loading, the models ``reps`` times.

    save_s and load_s are the time to save or load the models once. The timed saves write into anonymous in-memory files (memfd), so
    save_s is the time of ``save`` and not of the disk, whose write latency
    drifted up to 2x within minutes here. The loads read the files of
    ``save_files``, which are in the page cache.
    """
    files = [os.memfd_create("model") for _ in range(reps * len(cases))]
    handles = [os.dup(fd) for fd in files]  # save closes the descriptor it gets
    start = time.perf_counter()
    for case, handle in zip(cases * reps, handles):
        model_store.save(case.model, handle)
    result.timed("save_s", "window", time.perf_counter() - start, reps)
    for fd in files:
        os.close(fd)
    start = time.perf_counter()
    for _ in range(reps):
        for path in paths:
            model_store.load(path)
    result.timed("load_s", "window", time.perf_counter() - start, reps)


def _part_sizes(paths):
    """Bytes of the kernel basis and of the stored training projections."""
    sizes = {"npt": 0, "Y_train": 0}
    for path in paths:
        payload = json.loads(path.read_text(encoding="utf-8"))
        for key in sizes:
            if key in payload:
                sizes[key] += len(json.dumps(payload[key]))
    return {"model_store.npt_bytes": sizes["npt"], "model_store.y_train_bytes": sizes["Y_train"]}


def predict_window(models, block, inner, result):
    """One predict_pts_per_s window: a fixed block predicted ``inner`` times
    with every model."""
    start = time.perf_counter()
    for _ in range(inner):
        for model in models:
            model_store.predict(model, block)
    result.timed("predict_pts_per_s", "window", time.perf_counter() - start,
                 inner * len(models) * block.shape[1])


# ------------------------------------------------------------ workloads

class GridWorkload:
    """Grid-search cells, fixed-point training, and the trained models
    checked, stored and used.

    A pass takes each method in turn: a training window, a store and a
    predict window, the method's grid cells, and another store and predict
    window. Every kind of timed window thus recurs through the pass and
    through the run.
    """

    def __init__(self, make_data, warm_data, methods, grid, repetitions, k_max, train_points,
                 store_reps, block_size, predict_inner, warm_grid):
        self.make_data = make_data
        self.warm_data = warm_data
        self.repetitions = repetitions
        self.methods = methods
        self.grid = grid
        self.k_max = k_max
        self.train_points = train_points
        self.store_reps = store_reps
        self.block_size = block_size
        self.predict_inner = predict_inner
        self.warm_grid = warm_grid

    def setup(self, seed, warm=False):
        rng = np.random.default_rng([seed, int(warm)])
        ds = self.warm_data(rng) if warm else self.make_data(rng)
        cell_seed = int(rng.integers(2**31))
        repetitions = 1 if warm else self.repetitions
        return {
            "warm": warm,
            "ds": ds,
            "cell_seed": cell_seed,
            "splits": make_splits(ds, self.methods, repetitions, cell_seed),
            "block": mixed_block(ds, rng, 500 if warm else self.block_size),
            "grid": self.warm_grid if warm else self.grid,
            "repetitions": repetitions,
            "store_reps": 1 if warm else self.store_reps,
            "predict_inner": 1 if warm else self.predict_inner,
        }

    def run_pass(self, state, workdir, parse_store=False):
        result = PassResult(reference=not state["warm"])
        ds, seed = state["ds"], state["cell_seed"]
        cases = paths = loaded = None
        gmeans = []
        for method in self.methods:
            trained = train_window(state["splits"], self.train_points, self.k_max, result)
            if cases is None:
                cases = trained
                check_cases(cases, result)
                paths, loaded = save_files(cases, workdir, result, parse_store)
            store_window(cases, paths, state["store_reps"], result)
            predict_window(loaded, state["block"], state["predict_inner"], result)
            rows = run_cells(ds, method, state["grid"], self.k_max, seed, state["repetitions"],
                             result)
            gmeans += check_cases(refit_cells(ds, rows, self.k_max, seed), result)
            store_window(cases, paths, state["store_reps"], result)
            predict_window(loaded, state["block"], state["predict_inner"], result)
        for path in paths:
            path.unlink()
        result.sample("test_gmean", statistics.fmean(gmeans))
        return result


class FitStoreWorkload:
    """Large fits, stored, loaded and used on large blocks; rbf grid cells;
    and the translation-invariance check.

    A pass fits the first linear and rbf draws and runs the grid cells, then
    alternates store and predict windows with the fits of the second draws
    and the grid cells on other splits. train_s is the time of the four large
    fits together. The models of the first draws are the ones stored and
    used.
    """

    LINEAR = dict(method="nssvdd-linear-psi2-min", n=400, C=0.01, d=5, beta=1.0, eta=0.01)
    RBF = dict(method="nssvdd-rbf-psi2-min", n=200, C=0.01, d=5, beta=1.0, eta=0.01,
               sigma=3.0)
    K_MAX = 100  # the CLI default
    DRAWS = 2  # independent training sets per model kind, to average their cost
    CELL_METHOD = "nssvdd-rbf-psi2-min"
    CELL_GRID = GridSpec(beta=(1.0,), C=(0.03, 0.06), d=(10,), eta=(0.01,), sigma=(2.0, 4.0, 8.0))
    WARM_CELL_GRID = GridSpec(beta=(1.0,), C=(0.06,), d=(10,), eta=(0.01,), sigma=(4.0,))
    CELL_K_MAX = 10  # as in configs/
    N_TEST = 150  # per class
    BLOCK = 2000
    PREDICT_INNER = 8
    # translation check: fixed inputs, not drawn from the run's seed
    SHIFT_SEED = 20230925
    SHIFT_SCALE = 1e5
    SHIFT_FITS = (("svdd-linear", {}), ("nssvdd-linear-psi0-min", {"d": 2}))

    def setup(self, seed, warm=False):
        rng = np.random.default_rng([seed, int(warm)])
        scale = 0.5 if warm else 1.0
        draws = [[] for _ in range(self.DRAWS)]
        for spec in (self.LINEAR, self.RBF):
            for fits in draws:
                fits.append((spec, iono_good(rng, int(spec["n"] * scale))))
        x_test = np.hstack([iono_good(rng, self.N_TEST), iono_bad(rng, self.N_TEST)])
        truth = np.arange(2 * self.N_TEST) < self.N_TEST
        cell_ds = ionosphere_like(rng, n_good=80, n_bad=60) if warm else ionosphere_like(rng)
        shift_rng = np.random.default_rng(self.SHIFT_SEED)
        shift_x = shift_rng.standard_normal((5, 80))
        shift_test = 1.5 * shift_rng.standard_normal((5, 400))
        return {
            "warm": warm,
            "draws": draws,
            "k_max": 5 if warm else self.K_MAX,
            "x_test": x_test,
            "truth": truth,
            "cell_ds": cell_ds,
            "cell_grid": self.WARM_CELL_GRID if warm else self.CELL_GRID,
            "cell_seeds": [int(v) for v in rng.integers(2**31, size=2)],
            "block": mixed_block(cell_ds, rng, 500 if warm else self.BLOCK),
            "predict_inner": 1 if warm else self.PREDICT_INNER,
            "shift": (shift_x, shift_test, self.SHIFT_SCALE * shift_x.std(axis=1, keepdims=True)),
        }

    def fit(self, state, piece, spec, x_train, result):
        start = time.perf_counter()
        model, _ = subsvdd.fit_occ_model(
            x_train, parse_method(spec["method"]), C=spec["C"], d=spec["d"],
            beta=spec["beta"], eta=spec["eta"], sigma=spec.get("sigma"),
            k_max=state["k_max"], seed=state["cell_seeds"][0])
        result.timed("train_s", piece, time.perf_counter() - start)
        return Case(model, x_train, state["x_test"], state["truth"], bitwise_store=True)

    def cells(self, state, index, result):
        """The grid cells on the splits of ``cell_seeds[index]``, each cell
        refitted and checked; returns their Gmeans."""
        ds, seed = state["cell_ds"], state["cell_seeds"][index]
        rows = run_cells(ds, self.CELL_METHOD, state["cell_grid"], self.CELL_K_MAX, seed, 1,
                         result, piece=f"{self.CELL_METHOD}/{index}")
        return check_cases(refit_cells(ds, rows, self.CELL_K_MAX, seed), result)

    def run_pass(self, state, workdir, parse_store=False):
        result = PassResult(reference=not state["warm"])
        (linear, rbf), (linear2, rbf2) = (
            [(f"{spec['method']}/{draw}", spec, x_train) for spec, x_train in specs]
            for draw, specs in enumerate(state["draws"]))
        stored = [self.fit(state, *linear, result), self.fit(state, *rbf, result)]
        gmeans = check_cases(stored, result) + self.cells(state, 0, result)
        paths, loaded = save_files(stored, workdir, result, parse_store)
        for fit, more_cells in ((linear2, True), (rbf2, False)):
            store_window(stored, paths, 1, result)
            predict_window(loaded, state["block"], state["predict_inner"], result)
            gmeans += check_cases([self.fit(state, *fit, result)], result)
            if more_cells:
                gmeans += self.cells(state, 1, result)
        for path in paths:
            path.unlink()
        self.translation(state, result)
        result.sample("test_gmean", statistics.fmean(gmeans))
        return result

    def translation(self, state, result):
        """Fit on X and on X + offset; count the fit as failed when the two
        describe different sets (ROADMAP item 2)."""
        x, x_test, offset = state["shift"]
        flips = {}
        for method, extra in self.SHIFT_FITS:
            spec = parse_method(method)
            kw = dict(C=0.1, k_max=state["k_max"], seed=7, **extra)
            model, _ = subsvdd.fit_occ_model(x, spec, **kw)
            moved, _ = subsvdd.fit_occ_model(x + offset, spec, **kw)
            _, positive = model_store.predict(model, x_test)
            _, moved_positive = model_store.predict(moved, x_test + offset)
            problems = checks.check_translation(model, moved, x, x_test, positive,
                                                moved_positive)
            result.attempted += 1
            if problems:
                result.failed += 1
                flips[method] = problems
        result.notes["translation"] = flips


def _grid_linear():
    return GridWorkload(
        make_data=seeds_like,
        warm_data=lambda rng: seeds_like(rng, n_per_class=25),
        methods=["ssvdd-linear-psi2-min", "nssvdd-linear-psi2-min"],
        grid=GridSpec(beta=(0.1, 10.0), C=(0.1, 0.3), d=(3,), eta=(0.1,)),
        repetitions=3, k_max=10,
        train_points=[dict(d=3, C=c, beta=1.0, eta=0.1) for c in (0.1, 0.3)],
        store_reps=12, block_size=20_000, predict_inner=15,
        warm_grid=GridSpec(beta=(1.0,), C=(0.3,), d=(3,), eta=(0.1,)),
    )


WORKLOADS = {
    "grid-linear": _grid_linear,
    "fit-store": FitStoreWorkload,
}
