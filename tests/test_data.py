import numpy as np
import pytest

from subsvdd.data import kfold, load_csv, load_features_csv, make_occ_split, zscore_apply, zscore_fit
from subsvdd.errors import (
    EmptyFile,
    ParseError,
    RaggedRows,
    TooFewSamples,
    UnknownClass,
)


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestLoadCsv:
    def test_small_file(self, tmp_path):
        p = write(tmp_path, "1,2,A\n3,4,A\n5,6,B\n")
        ds = load_csv(p)
        assert ds.n_samples == 3
        assert ds.n_features == 2
        assert ds.class_names == ["A", "B"]
        np.testing.assert_allclose(ds.features[:, 0], [1.0, 2.0])

    def test_first_column_labels(self, tmp_path):
        p = write(tmp_path, "A,1,2\nB,3,4\n")
        ds = load_csv(p, label_column="first")
        np.testing.assert_allclose(ds.features[:, 1], [3.0, 4.0])
        assert list(ds.labels) == ["A", "B"]

    def test_header_skipped(self, tmp_path):
        p = write(tmp_path, "f1,f2,label\n1,2,A\n3,4,B\n")
        ds = load_csv(p, has_header=True)
        assert ds.n_samples == 2

    def test_nan_cell_rejected_with_location(self, tmp_path):
        p = write(tmp_path, "1,2,A\n3,NaN,B\n")
        with pytest.raises(ParseError, match="row 1 column 1"):
            load_csv(p)

    def test_non_numeric_cell(self, tmp_path):
        p = write(tmp_path, "1,x,A\n")
        with pytest.raises(ParseError, match="row 0 column 1"):
            load_csv(p)

    def test_ragged_rows(self, tmp_path):
        p = write(tmp_path, "1,2,A\n3,B\n")
        with pytest.raises(RaggedRows):
            load_csv(p)

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmptyFile):
            load_csv(write(tmp_path, ""))

    def test_one_column_holds_no_feature(self, tmp_path):
        with pytest.raises(ParseError, match="at least one feature and a label"):
            load_csv(write(tmp_path, "A\nB\n"))

    def test_label_column_is_first_or_last(self, tmp_path):
        with pytest.raises(ValueError, match="label_column must be"):
            load_csv(write(tmp_path, "1,2,A\n"), label_column="middle")

    def test_iris_shape_when_available(self, tmp_path):
        sklearn = pytest.importorskip("sklearn.datasets")
        iris = sklearn.load_iris()
        rows = []
        for vec, lab in zip(iris.data, iris.target):
            rows.append(",".join(str(v) for v in vec) + f",{iris.target_names[lab]}")
        p = write(tmp_path, "\n".join(rows) + "\n", name="iris.csv")
        ds = load_csv(p)
        assert ds.n_samples == 150
        assert ds.n_features == 4
        assert all((ds.labels == c).sum() == 50 for c in ds.class_names)

    def test_features_only_loader(self, tmp_path):
        p = write(tmp_path, "1,2\n3,4\n5,6\n")
        feats = load_features_csv(p)
        assert feats.shape == (2, 3)


class TestOccSplit:
    def _ds(self, tmp_path):
        lines = [f"{i},{i * 2},A" for i in range(10)] + [f"{i},{i + 1},B" for i in range(10)]
        return load_csv(write(tmp_path, "\n".join(lines) + "\n"))

    def test_stratified_counts(self, tmp_path):
        ds = self._ds(tmp_path)
        split = make_occ_split(ds, "A", 0.7, seed=0)
        assert split.train_target.size == 7
        assert split.test_indices.size == 6
        assert np.all(ds.labels[split.train_target] == "A")
        test_labels = ds.labels[split.test_indices]
        assert (test_labels == "A").sum() == 3
        assert (test_labels == "B").sum() == 3

    def test_train_and_test_disjoint(self, tmp_path):
        ds = self._ds(tmp_path)
        split = make_occ_split(ds, "B", 0.7, seed=3)
        assert not set(split.train_target) & set(split.test_indices)
        assert not set(split.train_all) & set(split.test_indices)
        assert set(split.train_target) <= set(split.train_all)

    def test_deterministic(self, tmp_path):
        ds = self._ds(tmp_path)
        s1 = make_occ_split(ds, "A", 0.7, seed=11)
        s2 = make_occ_split(ds, "A", 0.7, seed=11)
        assert np.array_equal(s1.train_target, s2.train_target)
        assert np.array_equal(s1.test_indices, s2.test_indices)

    def test_seeds_like_class_size(self, tmp_path):
        # 70 samples per class at frac 0.7 leaves 49 training targets
        lines = [f"{i},{i},K" for i in range(70)] + [f"{i},{i},R" for i in range(70)]
        ds = load_csv(write(tmp_path, "\n".join(lines) + "\n"))
        split = make_occ_split(ds, "K", 0.7, seed=5)
        assert split.train_target.size == 49

    def test_unknown_class(self, tmp_path):
        ds = self._ds(tmp_path)
        with pytest.raises(UnknownClass):
            make_occ_split(ds, "Z", 0.7, seed=0)

    def test_too_few_samples(self, tmp_path):
        lines = ["1,2,A", "3,4,A", "5,6,B", "7,8,B", "9,0,B"]
        ds = load_csv(write(tmp_path, "\n".join(lines) + "\n"))
        with pytest.raises(TooFewSamples):
            make_occ_split(ds, "A", 0.7, seed=0)


class TestKfold:
    def test_even_split(self):
        folds = kfold(np.arange(10), 5, seed=1)
        assert len(folds) == 5
        assert all(val.size == 2 for _, val in folds)

    def test_validation_folds_partition_input(self):
        idx = np.arange(40, 89)  # 49 indices
        folds = kfold(idx, 5, seed=2)
        sizes = sorted(val.size for _, val in folds)
        assert sizes == [9, 10, 10, 10, 10]
        union = np.sort(np.concatenate([val for _, val in folds]))
        assert np.array_equal(union, idx)
        for train, val in folds:
            assert not set(train) & set(val)
            assert np.array_equal(np.sort(np.concatenate([train, val])), idx)

    def test_deterministic(self):
        f1 = kfold(np.arange(20), 4, seed=9)
        f2 = kfold(np.arange(20), 4, seed=9)
        for (t1, v1), (t2, v2) in zip(f1, f2):
            assert np.array_equal(t1, t2)
            assert np.array_equal(v1, v2)

    def test_too_few(self):
        with pytest.raises(TooFewSamples):
            kfold(np.arange(3), 5, seed=0)


class TestZscore:
    def test_round_trip_statistics(self, rng):
        f = rng.standard_normal((4, 50)) * 3.0 + 1.0
        mean, std = zscore_fit(f)
        z = zscore_apply(f, mean, std)
        np.testing.assert_allclose(z.mean(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(z.std(axis=1), 1.0, atol=1e-12)

    def test_constant_feature_safe(self):
        f = np.vstack([np.ones(10), np.arange(10.0)])
        mean, std = zscore_fit(f)
        assert std[0] == 1.0
        z = zscore_apply(f, mean, std)
        assert np.all(np.isfinite(z))
