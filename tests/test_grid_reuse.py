"""Fits on prepared features, and the kernel bases grid search shares.

``prepare_features`` z-scores a block of training columns and, for rbf,
holds the kernel basis of its centered kernel, built on first use; a fit on
it must be bit for bit the fit on the raw columns. ``grid_search`` prepares
each (fold, sigma) once, builds its basis only when a fit needs it, and holds
one basis at a time.
"""
import json
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsvdd import pipeline
from subsvdd.cli import main
from subsvdd.data import DataSet, make_occ_split
from subsvdd.evaluate import GridSpec, grid_search
from subsvdd.pipeline import fit_occ_model, parse_method, prepare_features

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
GRID_FIXTURES = Path(__file__).parent / "fixtures" / "grid"


@st.composite
def fit_cases(draw):
    kernel = draw(st.sampled_from(["linear", "rbf"]))
    family = draw(st.sampled_from(["svdd", "ssvdd", "nssvdd"]))
    if family == "svdd":
        method = f"svdd-{kernel}"
    else:
        psi = draw(st.integers(0, 3))
        method = f"{family}-{kernel}-psi{psi}-{draw(st.sampled_from(['min', 'max']))}"
    n = draw(st.integers(8, 40))
    dim = draw(st.integers(2, 5))
    seed = draw(st.integers(0, 2**31 - 1))
    gen = np.random.default_rng(seed)
    x = 10.0 ** gen.uniform(-1.0, 1.0) * gen.standard_normal((dim, n)) + gen.uniform(-5, 5)
    params = {
        "C": max(0.1, 2.0 / n),
        "zscore": draw(st.booleans()),
        "k_max": 4,
        "seed": seed % 1000,
    }
    if kernel == "rbf":
        params["sigma"] = float(np.exp(draw(st.floats(np.log(0.3), np.log(30.0)))))
    if family != "svdd":
        params.update(d=draw(st.integers(1, dim - 1)), beta=10.0, eta=0.05)
    return x, parse_method(method), params


def assert_same_fit(a, b):
    (ma, ta), (mb, tb) = a, b
    assert np.array_equal(ma.w, mb.w)
    assert np.array_equal(ma.q, mb.q)
    assert np.array_equal(ma.description.alpha.alpha, mb.description.alpha.alpha)
    assert ma.description.radius_sq == mb.description.radius_sq
    assert [r.objective for r in ta] == [r.objective for r in tb]
    assert ma.config == mb.config


@PROPERTY
@given(fit_cases())
def test_fit_on_prepared_features_is_the_raw_fit(case):
    x, method, params = case
    raw = fit_occ_model(x, method, **params)
    prepared = prepare_features(x, method.kernel, params.get("sigma"), params["zscore"])
    # the first fit builds the basis, the second reuses it
    assert_same_fit(fit_occ_model(prepared, method, **params), raw)
    assert_same_fit(fit_occ_model(prepared, method, **params), raw)


class TestMismatch:
    @pytest.fixture
    def x(self):
        return np.random.default_rng(3).standard_normal((3, 20))

    @pytest.mark.parametrize(
        "kernel, sigma, zscore, method, fit_sigma, fit_zscore",
        [
            ("rbf", 1.0, False, "svdd-rbf", 2.0, False),  # sigma
            ("rbf", 1.0, False, "svdd-rbf", None, False),  # sigma left out
            ("rbf", 1.0, False, "svdd-linear", 1.0, False),  # kernel
            ("linear", None, False, "svdd-rbf", 1.0, False),  # kernel
            ("linear", None, True, "svdd-linear", None, False),  # zscore
            ("rbf", 1.0, False, "svdd-rbf", 1.0, True),  # zscore
        ],
    )
    def test_raises(self, x, kernel, sigma, zscore, method, fit_sigma, fit_zscore):
        prepared = prepare_features(x, kernel, sigma, zscore)
        with pytest.raises(ValueError):
            fit_occ_model(prepared, parse_method(method), C=0.2, sigma=fit_sigma,
                          zscore=fit_zscore)

    @pytest.mark.parametrize("kernel, sigma, zscore", [("linear", None, False),
                                                       ("linear", None, True),
                                                       ("rbf", 1.5, False)])
    def test_prepared_features_are_returned_themselves(self, x, kernel, sigma, zscore):
        prepared = prepare_features(x, kernel, sigma, zscore)
        assert prepare_features(prepared, kernel, sigma, zscore) is prepared
        other = "linear" if kernel == "rbf" else "rbf"
        for given in [(other, 1.5, zscore), (kernel, sigma, not zscore)]:
            with pytest.raises(ValueError, match=r"^features prepared for \(kernel, sigma, "
                                                 r"zscore\) = .*, not "):
                prepare_features(prepared, *given)
        # sigma is checked first, whatever the features were prepared for
        with pytest.raises(ValueError, match="^sigma must be"):
            prepare_features(prepared, kernel, -1.0, zscore)

    def test_sigma_is_ignored_for_linear(self, x):
        prepared = prepare_features(x, "linear")
        assert_same_fit(fit_occ_model(prepared, parse_method("svdd-linear"), C=0.2, sigma=4.0),
                        fit_occ_model(x, parse_method("svdd-linear"), C=0.2, sigma=4.0))

    def test_later_writes_to_the_columns_do_not_reach_the_basis(self, x):
        # the basis is built on first use: a buffer refilled with the next
        # fold's columns after preparing must not change the fit
        fold_a, fold_b = x[:, :12], x[:, 8:]
        method = parse_method("svdd-rbf")
        buffer = fold_a.copy()
        prepared = prepare_features(buffer, "rbf", 1.5)
        buffer[:] = fold_b
        on_a = fit_occ_model(prepared, method, C=0.2, sigma=1.5)
        assert_same_fit(on_a, fit_occ_model(fold_a, method, C=0.2, sigma=1.5))


def blobs(seed=0, n_target=40, n_out=36):
    gen = np.random.default_rng(seed)
    features = np.hstack([gen.standard_normal((2, n_target)),
                          gen.standard_normal((2, n_out)) + 4.0])
    labels = np.array(["pos"] * n_target + ["neg"] * n_out, dtype=object)
    return DataSet(features=features, labels=labels, class_names=["neg", "pos"], name="blobs")


@pytest.fixture
def npt_builds(monkeypatch):
    """The sizes of the bases grid search builds; each call also checks that
    no basis built before it is still alive."""
    built, alive = [], []
    inner = pipeline.build_npt

    def counted(x, sigma, *args, **kwargs):
        assert all(ref() is None for ref in alive), "an earlier basis is still held"
        basis = inner(x, sigma, *args, **kwargs)
        built.append((x.shape[1], sigma))
        alive.append(weakref.ref(basis))
        return basis

    monkeypatch.setattr(pipeline, "build_npt", counted)
    return built


class TestGridBases:
    K = 3

    def search(self, method, C, sigma=(0.5, 2.0), **options):
        ds = blobs()
        split = make_occ_split(ds, "pos", 0.7, seed=7)
        grid = GridSpec(C=C, sigma=sigma, beta=(10.0,), d=(2,), eta=(0.01,))
        return grid_search(ds, split, parse_method(method), grid, k=self.K, seed=5, k_max=3,
                           **options)

    @pytest.mark.parametrize("method", ["svdd-rbf", "nssvdd-rbf-psi2-min"])
    @pytest.mark.parametrize("zscore", [False, True])
    def test_one_basis_per_fold_and_sigma(self, npt_builds, method, zscore):
        self.search(method, C=(0.1, 0.3, 0.5), zscore=zscore)
        assert len(npt_builds) == 2 * self.K
        # fold-major: both sigmas of a fold, then the next fold
        assert [s for _, s in npt_builds] == [0.5, 2.0] * self.K

    def test_infeasible_c_builds_no_basis(self, npt_builds):
        # about 19 targets per fold: C = 0.01 and 0.04 are below 1/N_fold
        point, score = self.search("svdd-rbf", C=(0.01, 0.04))
        assert npt_builds == []
        assert score == 0.0
        assert point == {"d": None, "C": 0.01, "beta": None, "eta": None, "sigma": 0.5}

    def test_mixed_grid_builds_one_basis_per_fold_and_sigma(self, npt_builds):
        self.search("svdd-rbf", C=(0.01, 0.04, 0.3))
        assert len(npt_builds) == 2 * self.K

    def test_linear_builds_no_basis(self, npt_builds):
        self.search("nssvdd-linear-psi2-min", C=(0.1, 0.3), zscore=True)
        assert npt_builds == []


def test_two_csv_is_its_awk_recipe():
    """two.csv is format1/train.csv with a copy of each target row shifted by
    4 and labelled other, as the awk command of tests/fixtures/grid/README.md
    writes it: awk prints a computed number with %.6g, an integral one as an
    integer."""
    train = (GRID_FIXTURES.parent / "format1" / "train.csv").read_text(encoding="utf-8")
    rows = []
    for line in train.splitlines():
        rows.append(line)
        *values, label = line.split(",")
        if label == "target":
            shifted = [float(v) + 4 for v in values]
            rows.append(",".join(str(int(v)) if v.is_integer() else "%.6g" % v
                                 for v in shifted) + ",other")
    assert ("\n".join(rows) + "\n").encode() == (GRID_FIXTURES / "two.csv").read_bytes()


@pytest.mark.parametrize("name", ["zscore", "raw"])
def test_benchmark_matches_the_parent_written_fixture(tmp_path, name):
    """The benchmark CSV and table of a grid with two sigmas, three C (one
    infeasible on two of the target class's folds) and four methods, as the
    code before shared bases wrote them (tests/fixtures/grid/README.md)."""
    config = json.loads((GRID_FIXTURES / f"{name}.json").read_text(encoding="utf-8"))
    config["datasets"] = [{"path": str(GRID_FIXTURES / "two.csv")}]
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out_csv, out_table = tmp_path / "bench.csv", tmp_path / "bench.txt"
    assert main(["benchmark", "--config", str(cfg_path), "--out-csv", str(out_csv),
                 "--out-table", str(out_table)]) == 0
    assert out_csv.read_bytes() == (GRID_FIXTURES / f"{name}.csv").read_bytes()
    assert out_table.read_bytes() == (GRID_FIXTURES / f"{name}.txt").read_bytes()
