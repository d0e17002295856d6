import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import make_blobs
from subsvdd.cli import main
from subsvdd.data import load_features_csv
from subsvdd.errors import (
    DimensionMismatch,
    InvariantViolation,
    SchemaError,
    VersionError,
)
from subsvdd.metrics import confusion_from_labels, gmean
from subsvdd.model_store import CONFIG_KEYS, load, predict, save
from subsvdd.pipeline import MethodSpec, fit_occ_model, parse_method


FIXTURES = Path(__file__).parent / "fixtures"
FORMAT1 = FIXTURES / "format1"
FORMAT2 = FIXTURES / "format2"
FORMAT3 = FIXTURES / "format3"
LINEAR_KEYS = {"format_version", "config", "Q", "description"}
RBF_KEYS = {"format_version", "config", "description", "npt"}
DESCRIPTION_KEYS = {"alpha", "center", "radius_sq"}
# one method of each family and kernel
FAMILY_KERNELS = ["svdd-linear", "svdd-rbf", "ssvdd-linear-psi1-max", "ssvdd-rbf-psi3-min",
                  "nssvdd-linear-psi2-min", "nssvdd-rbf-psi3-max"]


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


class TestInputFeatures:
    @pytest.mark.parametrize("method", ["nssvdd-rbf-psi2-min", "ssvdd-linear-psi1-max", "svdd-rbf"])
    def test_last_trace_gmean_equals_predict(self, method):
        # the trace scores held-out points while fitting; predict scores them
        # from the finished model: both must map raw inputs to features alike
        target, outlier = make_blobs(seed=4, n_target=60, n_outlier=30, dim=4, shift=1.5)
        scale = np.array([[1.0], [10.0], [0.1], [3.0]])
        offset = np.array([[50.0], [-5.0], [0.0], [200.0]])
        x_train = target[:, :40] * scale + offset
        x_eval = np.hstack([target[:, 40:], outlier]) * scale + offset
        truth = np.arange(x_eval.shape[1]) < 20
        model, trace = fit_occ_model(
            x_train, parse_method(method), C=0.1, d=2, sigma=2.0, k_max=5, seed=3,
            zscore=True, eval_data=(x_eval, truth),
        )
        _, pos = predict(model, x_eval)
        score = gmean(confusion_from_labels(truth, pos))
        assert 0.0 < score < 1.0
        assert trace[-1].gmean == score


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
        assert set(payload) == LINEAR_KEYS
        assert set(payload["description"]) == DESCRIPTION_KEYS
        assert payload["format_version"] == 4

    def test_rbf_model_has_npt_block(self, tmp_path):
        model = rbf_model()
        path = tmp_path / "m.json"
        save(model, path)
        payload = json.loads(path.read_text())
        assert set(payload) == RBF_KEYS
        assert set(payload["description"]) == DESCRIPTION_KEYS
        assert set(payload["npt"]) == {"W", "sigma", "train_X"}
        assert payload["format_version"] == 4
        assert np.array_equal(payload["npt"]["W"], model.w)
        assert model.w.shape == (3, 30) and model.w.flags["C_CONTIGUOUS"]

    def test_fitted_rbf_map_composes_q_and_the_eigenmap(self):
        model = rbf_model()
        npt = model.npt
        expected = model.q @ (npt.u_r / np.sqrt(npt.eigvals_r)).T
        assert model.w.tobytes() == expected.tobytes()

    def test_loaded_model_holds_no_training_features(self, tmp_path):
        path = tmp_path / "m.json"
        save(rbf_model(), path)
        loaded = load(path)
        assert loaded.y_train is None
        assert loaded.q is None
        for name in ("phi", "u_r", "eigvals_r"):
            assert not hasattr(loaded.npt, name)

    @pytest.mark.parametrize("method", FAMILY_KERNELS)
    def test_loaded_model_derives_the_support_sets(self, tmp_path, rng, method):
        # the file stores alpha but no index set and no kernel row mean:
        # load derives both, and predicts with the fitted model's bits
        target, _ = make_blobs(seed=2, n_target=40)
        model, _ = fit_occ_model(target, parse_method(method), C=0.2, d=2, sigma=2.0,
                                 k_max=4, seed=5, zscore=True)
        path = tmp_path / "m.json"
        save(model, path)
        loaded = load(path)
        desc, got = model.description, loaded.description
        assert got.alpha.alpha.tobytes() == desc.alpha.alpha.tobytes()
        assert desc.boundary_sv_indices.size > 0
        assert np.array_equal(got.sv_indices, desc.sv_indices)
        assert np.array_equal(got.boundary_sv_indices, desc.boundary_sv_indices)
        probes = rng.standard_normal((5, 50)) * 2.0
        for before, after in zip(predict(model, probes), predict(loaded, probes)):
            assert before.tobytes() == after.tobytes()

    def test_resave_is_byte_identical(self, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save(rbf_model(), first)
        save(load(first), second)
        assert first.read_bytes() == second.read_bytes()


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

    def test_rbf_file_without_w_named(self, tmp_path):
        path = tmp_path / "m.json"
        save(rbf_model(), path)
        payload = json.loads(path.read_text())
        del payload["npt"]["W"]
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match="'W'"):
            load(path)

    def test_garbage_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError):
            load(path)


def _edited(tmp_path, source, edit):
    """Save ``source`` (a model, or the path of a model file to copy), apply
    ``edit`` to the parsed file and write it back."""
    path = tmp_path / "m.json"
    if isinstance(source, Path):
        payload = json.loads(source.read_text())
    else:
        save(source, path)
        payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    return path


def _set(*keys_and_value):
    *keys, last, value = keys_and_value

    def edit(payload):
        for key in keys:
            payload = payload[key]
        payload[last] = value

    return edit


def _scale_w_row(payload):
    payload["npt"]["W"][0] = [v * (1.0 + 1e-6) for v in payload["npt"]["W"][0]]


def _swap_train_columns(payload):
    for row in payload["npt"]["train_X"]:
        row[0], row[1] = row[1], row[0]


def _shift_train_entry(payload):
    payload["npt"]["train_X"][0][0] += 0.5


def _drop_w_column(payload):
    for row in payload["npt"]["W"]:
        row.pop()


MODELS = {"linear": linear_model, "linear-zscore": lambda: linear_model(zscore=True),
          "rbf": rbf_model}
# (id, model, edit): files whose config no fit writes, or whose alpha is off
# the simplex capped at C
NOT_FROM_A_FIT = [
    ("kernel-banana", "linear", _set("config", "kernel", "banana")),
    ("method-foo", "linear", _set("config", "method", "foo")),
    ("psi-true", "linear", _set("config", "psi", True)),
    ("psi-4", "linear", _set("config", "psi", 4)),
    ("direction-up", "linear", _set("config", "direction", "up")),
    ("optimizer-gradient", "linear", _set("config", "optimizer", "gradient")),
    ("d-7", "linear", _set("config", "d", 7)),
    ("d-float", "linear", _set("config", "d", 2.0)),
    ("C-negative", "linear", _set("config", "C", -1)),
    ("beta-negative", "linear", _set("config", "beta", -1.0)),
    ("eta-zero", "linear", _set("config", "eta", 0)),
    ("k_max-zero", "linear", _set("config", "k_max", 0)),
    ("seed-float", "linear", _set("config", "seed", 1.5)),
    ("sigma-negative", "linear", _set("config", "sigma", -2.0)),
    ("zscore-yes", "linear", _set("config", "zscore", "yes")),
    ("zscore-without-scaling", "linear", _set("config", "zscore", True)),
    ("no-zscore-with-scaling", "linear-zscore", _set("config", "zscore", False)),
    ("alpha-off-simplex", "linear", _set("description", "alpha", [5, -3])),
    ("alpha-sum", "linear", lambda payload: payload["description"]["alpha"].append(0.5)),
    ("alpha-above-C", "linear", _set("config", "C", 0.01)),
    ("rbf-sigma-changed", "rbf", _set("config", "sigma", 3.3)),
    ("rbf-sigma-null", "rbf", _set("config", "sigma", None)),
]


class TestLoadRejectsMalformedFields:
    @pytest.mark.parametrize(
        "edit",
        [
            _set("Q", 0, 0, float("nan")),
            _set("description", "center", 0, float("nan")),
            _set("description", "radius_sq", float("nan")),
            _set("description", "radius_sq", float("inf")),
            _set("description", "alpha", 0, float("-inf")),
        ],
        ids=["Q-nan", "center-nan", "radius_sq-nan", "radius_sq-inf", "alpha-inf"],
    )
    def test_non_finite_linear_field(self, tmp_path, edit):
        with pytest.raises(SchemaError, match="finite"):
            load(_edited(tmp_path, linear_model(), edit))

    @pytest.mark.parametrize(
        "edit",
        [
            _set("npt", "sigma", float("nan")),
            _set("npt", "W", 0, 0, float("inf")),
            _set("npt", "train_X", 0, 0, float("nan")),
            _set("npt", "sigma", None),
        ],
        ids=["sigma-nan", "W-inf", "train_X-nan", "sigma-null"],
    )
    def test_non_finite_rbf_field(self, tmp_path, edit):
        with pytest.raises(SchemaError, match="finite"):
            load(_edited(tmp_path, rbf_model(), edit))

    @pytest.mark.parametrize(
        "edit",
        [
            _set("description", "radius_sq", None),
            _set("description", "alpha", ["a"]),
            _set("description", "center", [[0.5]]),
            _set("config", "C", None),
            _set("config", "scaling", [1.0, 2.0]),
            _set("config", "scaling", {"mean": [0.0] * 5}),
            _set("config", "scaling", {"mean": [0.0] * 4, "std": [1.0] * 4}),
            _set("config", "scaling", {"mean": [0.0] * 5, "std": [1.0] * 4 + [0.0]}),
        ],
        ids=[
            "radius_sq-null", "alpha-str", "center-nested", "C-null",
            "scaling-list", "scaling-no-std", "scaling-short", "scaling-zero-std",
        ],
    )
    def test_malformed_linear_field(self, tmp_path, edit):
        with pytest.raises(SchemaError):
            load(_edited(tmp_path, linear_model(zscore=True), edit))

    def test_alpha_longer_than_the_training_points(self, tmp_path):
        def edit(payload):
            payload["description"]["alpha"].append(0.0)

        with pytest.raises(InvariantViolation, match="npt block"):
            load(_edited(tmp_path, rbf_model(), edit))

    @pytest.mark.parametrize(
        "edit, fixture",
        [(_set("npt", "sigma", -1.0), None),
         # format 3 stores no eigenvalues, so a zero one comes in a format-2 file
         (_set("npt", "eigvals_r", 0, 0.0), FORMAT2 / "rbf.json")],
        ids=["sigma-negative", "eigval-zero"],
    )
    def test_non_positive_kernel_scale(self, tmp_path, edit, fixture):
        with pytest.raises(InvariantViolation, match="positive"):
            load(_edited(tmp_path, fixture or rbf_model(), edit))

    @pytest.mark.parametrize(
        "edit",
        [
            _set("npt", "W", 0, 0, float("nan")),
            _scale_w_row,
            _set("npt", "sigma", 3.3),
            _swap_train_columns,
            _drop_w_column,
            _shift_train_entry,
        ],
        ids=["W-nan", "W-row-scaled", "sigma-changed", "train_X-swapped", "W-short",
             "train_X-shifted"],
    )
    def test_corrupt_rbf_map(self, tmp_path, edit):
        with pytest.raises((SchemaError, InvariantViolation)):
            load(_edited(tmp_path, rbf_model(), edit))

    def test_corrupt_rbf_map_exits_2(self, tmp_path):
        path = _edited(tmp_path, rbf_model(), _scale_w_row)
        probes = tmp_path / "probes.csv"
        probes.write_text("0,0,0,0,0\n")
        assert main(["predict", "--model", str(path), "--data", str(probes)]) == 2

    @pytest.mark.parametrize("source, edit", [source_edit for _, *source_edit in NOT_FROM_A_FIT],
                             ids=[case[0] for case in NOT_FROM_A_FIT])
    def test_config_no_fit_writes(self, tmp_path, source, edit):
        path = _edited(tmp_path, MODELS[source](), edit)
        with pytest.raises((SchemaError, InvariantViolation)):
            load(path)
        probes = tmp_path / "probes.csv"
        probes.write_text("0,0,0,0,0\n")
        assert main(["predict", "--model", str(path), "--data", str(probes)]) == 2

    def test_linear_file_with_a_sigma_loads(self, tmp_path):
        model = linear_model()
        path = _edited(tmp_path, model, _set("config", "sigma", 3.0))
        x = make_blobs(seed=1)[1]
        for before, after in zip(predict(model, x), predict(load(path), x)):
            assert before.tobytes() == after.tobytes()

    def test_save_checks_the_config(self, tmp_path):
        model = linear_model()
        bad = dataclasses.replace(model, config={**model.config, "eta": float("nan")})
        with pytest.raises(SchemaError, match="eta must be"):
            save(bad, tmp_path / "m.json")
        assert not (tmp_path / "m.json").exists()

    def test_training_inputs_of_wrong_length(self, tmp_path):
        def edit(payload):
            for row in payload["npt"]["train_X"]:
                row.pop()

        with pytest.raises(InvariantViolation, match="npt block"):
            load(_edited(tmp_path, rbf_model(), edit))


def _read_predictions(path):
    """(distances, labels) of a ``subsvdd predict`` CSV."""
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    return np.array([float(r[1]) for r in rows]), [r[2] for r in rows]


def _predict_file(tmp_path, model_path):
    out = tmp_path / "p.csv"
    args = ["predict", "--model", str(model_path), "--data", str(FORMAT1 / "probes.csv"),
            "--out", str(out)]
    assert main(args) == 0
    return out


def _assert_same_predictions(got, expected):
    """Equal labels; distances equal to 1e-13 relative."""
    (d1, l1), (d2, l2) = _read_predictions(got), _read_predictions(expected)
    assert l1 == l2
    np.testing.assert_allclose(d1, d2, rtol=1e-13, atol=0)


def _assert_resaved_predicts_the_same(tmp_path, old_path, kind):
    old = load(old_path)
    path = tmp_path / "m.json"
    save(old, path)
    payload = json.loads(path.read_text())
    assert payload["format_version"] == 4
    assert set(payload) == (RBF_KEYS if kind == "rbf" else LINEAR_KEYS)
    assert tuple(payload["config"]) == CONFIG_KEYS
    probes = load_features_csv(FORMAT1 / "probes.csv")
    for before, after in zip(predict(old, probes), predict(load(path), probes)):
        assert before.tobytes() == after.tobytes()


class TestFormat1:
    """Format-1 files, written by the format-1 writer (see fixtures/format1/README.md)."""

    @pytest.mark.parametrize("kind", ["linear", "rbf"])
    def test_predictions_byte_identical(self, tmp_path, kind):
        out = _predict_file(tmp_path, FORMAT1 / f"{kind}.json")
        assert out.read_bytes() == (FORMAT1 / f"{kind}_predictions.csv").read_bytes()

    def test_rbf_predictions_match_the_format1_code(self, tmp_path):
        out = _predict_file(tmp_path, FORMAT1 / "rbf.json")
        _assert_same_predictions(out, FORMAT1 / "rbf_predictions_format1_code.csv")

    @pytest.mark.parametrize("kind", ["linear", "rbf"])
    def test_resaved_as_format4_predicts_the_same(self, tmp_path, kind):
        _assert_resaved_predicts_the_same(tmp_path, FORMAT1 / f"{kind}.json", kind)


class TestFormat2:
    """Format-2 files and predictions, written by the format-2 code (see
    fixtures/format2/README.md)."""

    def test_linear_predictions_byte_identical(self, tmp_path):
        out = _predict_file(tmp_path, FORMAT2 / "linear.json")
        assert out.read_bytes() == (FORMAT2 / "linear_predictions.csv").read_bytes()

    def test_rbf_predictions_match_the_format2_code(self, tmp_path):
        out = _predict_file(tmp_path, FORMAT2 / "rbf.json")
        _assert_same_predictions(out, FORMAT2 / "rbf_predictions.csv")

    @pytest.mark.parametrize("kind", ["linear", "rbf"])
    def test_resaved_as_format4_predicts_the_same(self, tmp_path, kind):
        _assert_resaved_predicts_the_same(tmp_path, FORMAT2 / f"{kind}.json", kind)


class TestFormat3:
    """Format-3 files whose configs still hold "hessian_beta_mode" and
    "damping", and their predictions, written by the code that had both
    options (see fixtures/format3/README.md)."""

    @pytest.mark.parametrize("kind", ["linear", "rbf"])
    def test_predictions_byte_identical(self, tmp_path, kind):
        out = _predict_file(tmp_path, FORMAT3 / f"{kind}.json")
        assert out.read_bytes() == (FORMAT3 / f"{kind}_predictions.csv").read_bytes()

    @pytest.mark.parametrize("kind", ["linear", "rbf"])
    def test_saved_again_without_the_two_keys(self, tmp_path, kind):
        config = json.loads((FORMAT3 / f"{kind}.json").read_text())["config"]
        assert {"hessian_beta_mode", "damping"} <= set(config)
        _assert_resaved_predicts_the_same(tmp_path, FORMAT3 / f"{kind}.json", kind)

    def test_stored_row_means_and_index_sets_are_ignored(self, tmp_path):
        # load recomputes both, so wrong stored values change nothing
        def edit(payload):
            payload["npt"]["K_row_mean"] = [0.5] * len(payload["npt"]["K_row_mean"])
            payload["description"]["sv_indices"] = [0, 10_000]
            payload["description"]["boundary_sv_indices"] = ["a"]

        edited = _edited(tmp_path, FORMAT3 / "rbf.json", edit)
        out = _predict_file(tmp_path, edited)
        assert out.read_bytes() == (FORMAT3 / "rbf_predictions.csv").read_bytes()


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
