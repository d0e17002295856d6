"""Non-finite numbers raise typed errors instead of reaching a model.

A NaN or Inf in a fit's training columns is a DataError before any
arithmetic; a numerical routine handed one raises NonFinite, a
NumericalError (CLI exit code 3); an input that ``predict`` cannot place
raises DataError; and a benchmark records the cells such data spoils as
failed and finishes the others.
"""
import numpy as np
import pytest

from subsvdd.data import DataSet, make_occ_split
from subsvdd.errors import DataError, NonFinite, NumericalError
from subsvdd.evaluate import TRAIN_FRAC, GridSpec, derive_seed, run_benchmark
from subsvdd.model_store import predict
from subsvdd.numerics import qr_orthonormalize_rows, sym_eig
from subsvdd.pipeline import fit_occ_model, parse_method

METHODS = ["svdd-linear", "svdd-rbf", "nssvdd-linear-psi2-min", "ssvdd-linear-psi1-min"]


def columns(seed=0, n=20):
    return np.random.default_rng(seed).standard_normal((3, n))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("method", METHODS)
def test_fit_rejects_a_non_finite_column(method, bad):
    x = columns()
    x[1, 5] = bad
    for zscore in (False, True):
        with pytest.raises(DataError, match=r"columns \[5\]"):
            fit_occ_model(x, parse_method(method), C=0.2, d=2, sigma=1.0, zscore=zscore)


@pytest.mark.parametrize("routine", [qr_orthonormalize_rows, sym_eig])
def test_numerics_raise_a_numerical_error(routine):
    m = np.eye(2)
    m[0, 1] = np.nan
    with pytest.raises(NonFinite):
        routine(m)
    assert issubclass(NonFinite, NumericalError)


@pytest.mark.parametrize("method", ["svdd-linear", "nssvdd-rbf-psi2-min"])
def test_predict_rejects_an_input_without_a_distance(method):
    model, _ = fit_occ_model(columns(), parse_method(method), C=0.2, d=2, sigma=1.0,
                             zscore=True)
    probes = np.zeros((3, 4))
    probes[2, 1] = np.nan
    with pytest.raises(DataError, match=r"columns \[1\]"):
        predict(model, probes)
    dist, _ = predict(model, probes[:, [0, 2, 3]])
    assert np.all(np.isfinite(dist))


def test_benchmark_records_the_spoiled_cells_and_finishes():
    gen = np.random.default_rng(1)
    features = np.hstack([gen.standard_normal((3, 12)), gen.standard_normal((3, 12)) + 6.0])
    features[2, 4] = np.nan  # a "pos" sample
    labels = np.array(["pos"] * 12 + ["neg"] * 12, dtype=object)
    ds = DataSet(features=features, labels=labels, class_names=["neg", "pos"], name="nan")
    grid = GridSpec(C=(0.3,), beta=(1.0,), d=(2,), eta=(0.01,))
    methods = ["svdd-linear", "nssvdd-linear-psi2-min"]
    report = run_benchmark([ds], methods, repetitions=3, seed=5, grid=grid, k=2, k_max=2)
    assert len(report.rows) == 2 * 2 * 3
    for row in report.rows:
        split = make_occ_split(ds, row.target_class, TRAIN_FRAC,
                               derive_seed(5, ds.name, row.target_class, row.split_index))
        # the NaN sample is fitted on, or tested on, in every "pos" cell; a
        # "neg" cell fails only when the sample lands in its test portion
        spoiled = row.target_class == "pos" or 4 in split.test_indices
        assert (row.gmean is None) == spoiled
    assert any(r.gmean is not None for r in report.rows)
