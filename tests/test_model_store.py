import json

import numpy as np
import pytest

from conftest import make_blobs
from subsvdd.errors import (
    DimensionMismatch,
    InvariantViolation,
    SchemaError,
    VersionError,
)
from subsvdd.model_store import load, predict, save
from subsvdd.pipeline import MethodSpec, fit_occ_model, parse_method


def linear_model(seed=0, zscore=False):
    target, _ = make_blobs(seed=seed)
    method = MethodSpec(family="nssvdd", kernel="linear", psi=2, direction="min")
    model, _ = fit_occ_model(
        target, method, C=0.2, d=2, beta=1.0, eta=0.01, k_max=5, seed=3, zscore=zscore
    )
    return model


def rbf_model(seed=0):
    target, _ = make_blobs(seed=seed, n_target=30)
    method = MethodSpec(family="ssvdd", kernel="rbf", psi=1, direction="max")
    model, _ = fit_occ_model(
        target, method, C=0.2, d=3, beta=0.5, eta=0.001, sigma=3.0, k_max=4, seed=9
    )
    return model


class TestRoundTrip:
    def test_linear_predictions_identical(self, tmp_path, rng):
        model = linear_model()
        path = tmp_path / "m.json"
        save(model, path)
        loaded = load(path)
        probes = rng.standard_normal((5, 100))
        d1, l1 = predict(model, probes)
        d2, l2 = predict(loaded, probes)
        assert np.array_equal(d1, d2)
        assert np.array_equal(l1, l2)

    def test_rbf_predictions_identical(self, tmp_path, rng):
        model = rbf_model()
        path = tmp_path / "m.json"
        save(model, path)
        loaded = load(path)
        probes = rng.standard_normal((5, 40))
        d1, l1 = predict(model, probes)
        d2, l2 = predict(loaded, probes)
        assert np.array_equal(d1, d2)
        assert np.array_equal(l1, l2)

    @pytest.mark.parametrize("method", ["svdd-rbf", "nssvdd-rbf-psi2-min"])
    def test_rbf_on_column_slice_predictions_identical(self, tmp_path, rng, method):
        # what evaluate passes: a column selection of a row-per-feature matrix,
        # which is not C-ordered, while a loaded model's arrays are
        features = rng.standard_normal((120, 34)).T
        x_train = features[:, rng.permutation(120)[:60]]
        assert not x_train.flags["C_CONTIGUOUS"]
        model, _ = fit_occ_model(
            x_train, parse_method(method), C=0.05, d=5, sigma=6.0, k_max=5, seed=2
        )
        path = tmp_path / "m.json"
        save(model, path)
        probes = rng.standard_normal((34, 200))
        d1, l1 = predict(model, probes)
        d2, l2 = predict(load(path), probes)
        assert d1.tobytes() == d2.tobytes()
        assert np.array_equal(l1, l2)

    def test_zscore_scaling_persisted(self, tmp_path, rng):
        model = linear_model(zscore=True)
        path = tmp_path / "m.json"
        save(model, path)
        loaded = load(path)
        probes = rng.standard_normal((5, 20)) * 4 + 2
        d1, _ = predict(model, probes)
        d2, _ = predict(loaded, probes)
        assert np.array_equal(d1, d2)

    def test_linear_model_has_no_npt_block(self, tmp_path):
        path = tmp_path / "m.json"
        save(linear_model(), path)
        payload = json.loads(path.read_text())
        assert "npt" not in payload
        assert payload["format_version"] == 1

    def test_rbf_model_has_npt_block(self, tmp_path):
        path = tmp_path / "m.json"
        save(rbf_model(), path)
        payload = json.loads(path.read_text())
        assert set(payload["npt"]) == {"Phi", "U_r", "eigvals_r", "K_train", "sigma", "train_X"}


class TestLoadValidation:
    def test_missing_q_named(self, tmp_path):
        path = tmp_path / "m.json"
        save(linear_model(), path)
        payload = json.loads(path.read_text())
        del payload["Q"]
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match="'Q'"):
            load(path)

    def test_unknown_version(self, tmp_path):
        path = tmp_path / "m.json"
        save(linear_model(), path)
        payload = json.loads(path.read_text())
        payload["format_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(VersionError):
            load(path)

    def test_non_orthonormal_q_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        save(linear_model(), path)
        payload = json.loads(path.read_text())
        payload["Q"][0][0] += 0.5
        path.write_text(json.dumps(payload))
        with pytest.raises(InvariantViolation, match="orthonormal"):
            load(path)

    def test_garbage_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError):
            load(path)


class TestPredict:
    def test_empty_input_gives_empty_output(self):
        model = linear_model()
        dist, labels = predict(model, np.zeros((5, 0)))
        assert dist.shape == (0,)
        assert labels.shape == (0,)

    def test_dimension_mismatch(self):
        model = linear_model()
        with pytest.raises(DimensionMismatch):
            predict(model, np.zeros((4, 3)))

    def test_training_points_mostly_inside(self):
        target, _ = make_blobs(seed=1)
        method = MethodSpec(family="nssvdd", kernel="linear", psi=2, direction="min")
        model, _ = fit_occ_model(target, method, C=0.2, d=2, k_max=5, seed=3)
        _, pos = predict(model, target)
        # soft margin: at most ~C*N points can sit outside the sphere
        assert pos.mean() >= 0.5

    def test_boundary_sv_sits_on_sphere(self):
        model = linear_model()
        desc = model.description
        assert desc.boundary_sv_indices.size > 0
        s = desc.boundary_sv_indices[0]
        y_s = model.y_train[:, s]
        dist = float(((y_s - desc.center) ** 2).sum())
        assert abs(dist - desc.radius_sq) <= 1e-5 * (1.0 + desc.radius_sq)

    def test_matches_project_plus_decide(self, rng):
        from subsvdd.svdd import decide_batch

        model = linear_model()
        probes = rng.standard_normal((5, 30))
        d1, l1 = predict(model, probes)
        d2, l2 = decide_batch(model.q @ probes, model.description)
        assert np.array_equal(d1, d2)
        assert np.array_equal(l1, l2)
