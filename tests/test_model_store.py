import base64
import dataclasses
import functools
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import make_blobs, store_array, stored_array
from subsvdd import model_store
from subsvdd.cli import main
from subsvdd.data import load_features_csv
from subsvdd.errors import (
    DimensionMismatch,
    InvariantViolation,
    SchemaError,
    VersionError,
)
from subsvdd.metrics import confusion_from_labels, gmean
from subsvdd.kernel import RANK_TOL, center_kernel, rbf_kernel
from subsvdd.model_store import CONFIG_KEYS, MAP_TOL, _decoded, _encoded, load, predict, save
from subsvdd.pipeline import MethodSpec, fit_occ_model, parse_method


FIXTURES = Path(__file__).parent / "fixtures"
FORMAT1 = FIXTURES / "format1"
FORMAT2 = FIXTURES / "format2"
FORMAT3 = FIXTURES / "format3"
FORMAT4 = FIXTURES / "format4"
TRAIN = FIXTURES / "train"
# the model files of tests/fixtures/train, also kept in format 4
TRAIN_MODELS = ["nssvdd_linear", "nssvdd_rbf", "svdd_rbf"]
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
        assert payload["format_version"] == 5

    def test_rbf_model_has_npt_block(self, tmp_path):
        model = rbf_model()
        path = tmp_path / "m.json"
        save(model, path)
        payload = json.loads(path.read_text())
        assert set(payload) == RBF_KEYS
        assert set(payload["description"]) == DESCRIPTION_KEYS
        assert set(payload["npt"]) == {"W", "sigma", "train_X"}
        assert payload["format_version"] == 5
        assert stored_array(payload, "npt", "W").tobytes() == model.w.tobytes()
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

    @settings(max_examples=30, deadline=None)
    @given(method=st.sampled_from(FAMILY_KERNELS), seed=st.integers(0, 2**32 - 1),
           zscore=st.booleans(), spread=st.sampled_from([0.1, 1.0, 30.0]))
    def test_saved_and_loaded_predictions_bit_identical(self, method, seed, zscore, spread):
        gen = np.random.default_rng(seed)
        target = gen.standard_normal((4, 25)) * spread
        model, _ = fit_occ_model(target, parse_method(method), C=0.1, d=2, sigma=2.0 * spread,
                                 k_max=3, seed=seed, zscore=zscore)
        probes = gen.standard_normal((4, 30)) * 2.0 * spread
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.json"
            save(model, path)
            loaded = load(path)
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
        path = _edited(tmp_path, linear_model(), _edit_array("Q", change=_shift_first_entry))
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

    @pytest.mark.parametrize("version", [True, 4.0, 3.0], ids=["true", "4.0", "3.0"])
    def test_version_not_an_integer(self, tmp_path, version):
        path = _edited(tmp_path, linear_model(), _set("format_version", version))
        with pytest.raises(VersionError):
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


def _as_strings(*keys):
    """An edit that writes every number under the top-level ``keys`` as a
    string, "0.5" for 0.5."""
    def strings(obj):
        if isinstance(obj, dict):
            return {k: strings(v) for k, v in obj.items()}
        if isinstance(obj, list):
            return [strings(v) for v in obj]
        return repr(obj) if isinstance(obj, float) else obj

    def edit(payload):
        for key in keys:
            payload[key] = strings(payload[key])

    return edit


def _edit_array(*keys, change):
    """An edit of a format-5 file: decode the array at ``keys``, apply
    ``change`` (which edits it in place, or returns the new array) and encode
    the result in its place."""
    def edit(payload):
        a = stored_array(payload, *keys)
        changed = change(a)
        store_array(payload, keys, a if changed is None else changed)

    return edit


def _put(*keys, at, value):
    """An edit of a format-5 file that sets entry ``at`` of the array at ``keys``."""
    def change(a):
        a[at] = value

    return _edit_array(*keys, change=change)


def _shift_first_entry(a):
    a[0, 0] += 0.5


def _scale_first_row(a):
    a[0] *= 1.0 + 1e-6


def _swap_first_columns(a):
    a[:, [0, 1]] = a[:, [1, 0]]


def _drop_last_column(a):
    return a[:, :-1]


def _edit_bytes(*keys, change):
    """An edit of a format-5 file that applies ``change`` to the raw bytes the
    base64 text at ``keys`` encodes and writes the result back as base64."""
    def edit(payload):
        for key in keys[:-1]:
            payload = payload[key]
        raw = base64.b64decode(payload[keys[-1]])
        payload[keys[-1]] = base64.b64encode(change(raw)).decode("ascii")

    return edit


MODELS = {"linear": linear_model, "linear-zscore": lambda: linear_model(zscore=True),
          "rbf": rbf_model,
          "svdd": lambda: fit_occ_model(make_blobs()[0], parse_method("svdd-linear"), C=0.2)[0],
          # the train fixtures in format 4, whose arrays are nested JSON lists
          "format4-linear": lambda: FORMAT4 / "nssvdd_linear.json",
          "format4-rbf": lambda: FORMAT4 / "nssvdd_rbf.json",
          "format2-rbf": lambda: FORMAT2 / "rbf.json"}


# (id, model, edit): files whose config no fit writes, whose alpha is off the
# simplex capped at C, or whose arrays do not fit each other
NOT_FROM_A_FIT = [
    ("kernel-banana", "linear", _set("config", "kernel", "banana")),
    ("method-foo", "linear", _set("config", "method", "foo")),
    ("psi-true", "linear", _set("config", "psi", True)),
    ("psi-4", "linear", _set("config", "psi", 4)),
    ("direction-up", "linear", _set("config", "direction", "up")),
    ("optimizer-gradient", "linear", _set("config", "optimizer", "gradient")),
    ("d-7", "linear", _set("config", "d", 7)),
    ("d-float", "linear", _set("config", "d", 2.0)),
    # plain SVDD reads no d, but Q's rows are d; in format 5 they are decoded by it
    ("svdd-d-null", "svdd", _set("config", "d", None)),
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
    ("rbf-config-with-Q", "linear",
     lambda payload: payload["config"].update(kernel="rbf", sigma=1.0)),
    ("Q-one-row-more", "format4-linear", lambda payload: payload["Q"].append(payload["Q"][0])),
    ("center-one-entry-more", "format4-linear",
     lambda payload: payload["description"]["center"].append(0.0)),
    ("radius_sq-negative", "linear", _set("description", "radius_sq", -1)),
    ("Q-ragged", "format4-linear", lambda payload: payload["Q"][0].pop()),
    ("format2-Q-short-of-U_r", "format2-rbf",
     lambda payload: payload.update(Q=[row[:-1] for row in payload["Q"]])),
]


class TestLoadRejectsMalformedFields:
    @pytest.mark.parametrize(
        "edit",
        [
            _put("Q", at=(0, 0), value=float("nan")),
            _put("description", "center", at=0, value=float("nan")),
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
            _put("npt", "W", at=(0, 0), value=float("inf")),
            _put("npt", "train_X", at=(0, 0), value=float("nan")),
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

    # the arrays a format-5 file encodes are lists in formats 1 to 4, so a
    # string or boolean among their entries is tested on the format-4 files
    @pytest.mark.parametrize("source, edit", [
        ("format4-linear", _as_strings("Q", "description")),
        ("linear", _as_strings("Q", "description")),
        ("format4-linear", _set("Q", 0, 0, "0.5")),
        ("format4-linear", _set("description", "center", 0, "0.5")),
        ("linear", _set("description", "radius_sq", "0.5")),
        ("linear", _set("description", "radius_sq", True)),
        ("format4-linear", _set("description", "center", [False] * 2)),
        ("linear-zscore", _set("config", "scaling", "mean", ["0.0"] * 5)),
        ("format4-rbf", _as_strings("npt")),
        ("rbf", _as_strings("npt")),
        ("rbf", _set("npt", "sigma", "3.0")),
        ("rbf", _set("npt", "sigma", True)),
        ("linear", _set("description", "alpha", 1, True)),
        ("linear-zscore", _set("config", "scaling", "std", 2, True)),
        ("format4-linear", _set("Q", 1, 0, True)),
        ("format4-rbf", _set("npt", "train_X", 0, 3, False)),
    ], ids=["format4-linear-all-str", "linear-all-str", "Q-str", "center-str", "radius_sq-str",
            "radius_sq-true", "center-bool", "scaling-str", "format4-rbf-all-str",
            "rbf-all-str", "sigma-str", "sigma-true", "alpha-true-among-numbers",
            "scaling-std-true", "format4-Q-row-true", "format4-train_X-false"])
    def test_number_written_as_another_type(self, tmp_path, source, edit):
        path = _edited(tmp_path, MODELS[source](), edit)
        with pytest.raises(SchemaError, match="finite values"):
            load(path)
        assert main(["predict", "--model", str(path), "--data", str(FORMAT1 / "probes.csv")]) == 2

    def test_alpha_longer_than_the_training_points(self, tmp_path):
        # in format 5 the length of alpha gives train_X its columns, and a
        # longer alpha does not divide train_X's length
        def edit(payload):
            payload["description"]["alpha"].append(0.0)

        with pytest.raises(SchemaError, match="train_X"):
            load(_edited(tmp_path, rbf_model(), edit))

    def test_alpha_longer_than_the_format4_training_points(self, tmp_path):
        def edit(payload):
            payload["description"]["alpha"].append(0.0)

        with pytest.raises(InvariantViolation, match="npt block"):
            load(_edited(tmp_path, MODELS["format4-rbf"](), edit))

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
            _put("npt", "W", at=(0, 0), value=float("nan")),
            _edit_array("npt", "W", change=_scale_first_row),
            _set("npt", "sigma", 3.3),
            _edit_array("npt", "train_X", change=_swap_first_columns),
            _edit_array("npt", "W", change=_drop_last_column),
            _edit_array("npt", "train_X", change=_shift_first_entry),
        ],
        ids=["W-nan", "W-row-scaled", "sigma-changed", "train_X-swapped", "W-short",
             "train_X-shifted"],
    )
    def test_corrupt_rbf_map(self, tmp_path, edit):
        with pytest.raises((SchemaError, InvariantViolation)):
            load(_edited(tmp_path, rbf_model(), edit))

    def test_corrupt_rbf_map_exits_2(self, tmp_path):
        path = _edited(tmp_path, rbf_model(), _edit_array("npt", "W", change=_scale_first_row))
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

    @pytest.mark.parametrize("kind", ["linear", "rbf"])
    @pytest.mark.parametrize("name, value", [
        ("center", np.nan), ("center", np.inf), ("center", -np.inf), ("radius_sq", np.inf),
    ], ids=["center-nan", "center-inf", "center-minus-inf", "radius_sq-inf"])
    def test_save_writes_no_file_load_would_reject(self, tmp_path, kind, name, value):
        model = MODELS[kind]()
        desc = model.description
        if name == "center":
            value = np.concatenate([[value], desc.center[1:]])
        bad = dataclasses.replace(model, description=dataclasses.replace(desc, **{name: value}))
        with pytest.raises(InvariantViolation, match=name):
            save(bad, tmp_path / "m.json")
        assert not (tmp_path / "m.json").exists()

    def test_training_inputs_of_wrong_length(self, tmp_path):
        # a format-5 train_X one column short is test_format5_field's
        # "train_X-short"; its length then does not divide by N
        def edit(payload):
            for row in payload["npt"]["train_X"]:
                row.pop()

        with pytest.raises(InvariantViolation, match="npt block"):
            load(_edited(tmp_path, MODELS["format4-rbf"](), edit))

    @pytest.mark.parametrize("source, edit", [
        # without validate=True, b64decode would drop the "!" and decode the rest
        ("linear", lambda payload: payload.update(Q=payload["Q"][:4] + "!" + payload["Q"][4:])),
        ("linear", _set("Q", "0.5")),
        ("linear", _set("description", "center", "é" * 4)),
        ("linear", _set("Q", "")),
        ("linear", _edit_bytes("Q", change=lambda raw: raw[:-1])),
        ("linear", _edit_bytes("Q", change=lambda raw: raw[:-8])),
        ("linear", _edit_bytes("description", "center", change=lambda raw: raw + raw[:8])),
        ("rbf", _edit_bytes("npt", "W", change=lambda raw: raw[:-8])),
        ("rbf", _edit_array("npt", "train_X", change=_drop_last_column)),
        ("rbf", _edit_bytes("npt", "train_X", change=lambda raw: raw + raw[:8])),
        ("linear", _set("Q", [[1.0, 0.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0, 0.0]])),
        ("linear", _set("description", "center", [0.0, 0.0])),
        ("linear", _set("Q", 0.5)),
        ("linear", _set("Q", None)),
        ("rbf", lambda payload: payload["npt"].update(W=stored_array(payload, "npt", "W").tolist())),
        ("rbf", lambda payload: payload["npt"].update(
            train_X=stored_array(payload, "npt", "train_X").tolist())),
    ], ids=["char-outside-alphabet", "decimal-text", "non-ascii", "empty",
            "not-whole-doubles", "Q-short-of-a-row", "center-too-long", "W-short-of-a-row",
            "train_X-short", "train_X-long", "Q-list", "center-list", "Q-number", "Q-null",
            "W-list", "train_X-list"])
    def test_format5_field(self, tmp_path, source, edit):
        # each must be base64 text of whole doubles whose count fits d or N
        path = _edited(tmp_path, MODELS[source](), edit)
        with pytest.raises(SchemaError, match="base64 text"):
            load(path)
        probes = tmp_path / "probes.csv"
        probes.write_text("0,0,0,0,0\n")
        assert main(["predict", "--model", str(path), "--data", str(probes)]) == 2

    @pytest.mark.parametrize("bits", [0x7FF8000000000000, 0x7FF0000000000001, 0xFFF8000000000000,
                                      0x7FFFFFFFFFFFFFFF, 0x7FF0000000000000, 0xFFF0000000000000],
                             ids=["quiet-nan", "signalling-nan", "negative-nan", "nan-all-ones",
                                  "inf", "minus-inf"])
    @pytest.mark.parametrize("source, keys", [
        ("linear", ("Q",)), ("linear", ("description", "center")),
        ("rbf", ("npt", "W")), ("rbf", ("npt", "train_X")),
    ], ids=["Q", "center", "W", "train_X"])
    def test_format5_non_finite_bits(self, tmp_path, bits, source, keys):
        pattern = bits.to_bytes(8, "little")
        path = _edited(tmp_path, MODELS[source](),
                       _edit_bytes(*keys, change=lambda raw: raw[:8] + pattern + raw[16:]))
        with pytest.raises(SchemaError, match="finite"):
            load(path)


# fitted rbf models: a gradient and a Newton subspace fit and plain SVDD, on
# inputs of three spreads
BASIS_FITS = [("ssvdd-rbf-psi1-max", 1.0), ("nssvdd-rbf-psi2-min", 30.0), ("svdd-rbf", 0.1)]
EPS = np.finfo(np.float64).eps


@functools.cache
def fitted_rbf(index):
    method, spread = BASIS_FITS[index]
    target, _ = make_blobs(seed=index, n_target=40)
    model, _ = fit_occ_model(target * spread, parse_method(method), C=0.1, d=3, beta=0.5,
                             eta=0.001, sigma=2.0 * spread, k_max=4, seed=index)
    return model


def _map_moved(model, kind, a, t):
    """W with row ``a`` moved so that W K_hat W' departs from I by about ``t``
    times the basis check's tolerance MAP_TOL eps N lambda_max ||w_a|| ||w_b||:
    at (a, a) when ``kind`` is "scale", at (a, a + 1) when it is "mix"."""
    w = model.w.copy()
    unit = MAP_TOL * EPS * w.shape[1] * model.npt.eigvals_r.max()
    norm = np.sqrt((w * w).sum(axis=1))
    if kind == "scale":  # (1 + e)^2 - 1 is about 2e
        w[a] *= 1.0 + t * unit * norm[a] ** 2 / 2.0
    else:  # w_a K_hat w_b' goes from 0 to about e
        b = (a + 1) % w.shape[0]
        w[a] += t * unit * norm[a] * norm[b] * w[b]
    return w


def _saves(model, path):
    """Whether ``save`` writes ``model``; a refusal writes no file."""
    try:
        save(model, path)
    except InvariantViolation:
        assert not path.exists()
        return False
    return True


def _loads_with_map(model, w, path):
    """Whether ``load`` accepts ``model``'s file with its W replaced by ``w``."""
    save(model, path)
    payload = json.loads(path.read_text())
    store_array(payload, ("npt", "W"), w)
    path.write_text(json.dumps(payload))
    try:
        load(path)
    except InvariantViolation:
        return False
    return True


def _kernel_ratio(model):
    """||K_hat||_inf / lambda_max, the kernel check's tolerance over the
    basis check's: between 1 and sqrt(N)."""
    npt = model.npt
    k_hat = center_kernel(rbf_kernel(npt.train_x, npt.sigma))
    return np.abs(k_hat).sum(axis=1).max() / npt.eigvals_r.max()


class TestSaveChecksThroughTheBasis:
    """``save`` checks a fitted rbf model's W K_hat W' = I through its kernel
    basis, with lambda_max <= ||K_hat||_inf in the tolerance, so it is the
    tighter check: a model it writes, ``load`` accepts. Deviations between
    1/2 and 2 rho times its tolerance (rho = ||K_hat||_inf / lambda_max) are
    the band where save may refuse what load would accept."""

    def test_save_builds_no_kernel_and_load_does(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("kernel built")

        for name in ("rbf_kernel", "center_kernel"):
            monkeypatch.setattr(model_store, name, refuse)
        save(rbf_model(), tmp_path / "m.json")
        with pytest.raises(AssertionError, match="kernel built"):
            load(tmp_path / "m.json")

    @pytest.mark.parametrize("change", [
        lambda npt: {"train_x": make_blobs(seed=5, n_target=30)[0]},
        lambda npt: {"train_x": np.ascontiguousarray(npt.train_x[:, ::-1])},
        lambda npt: {"train_x": npt.train_x[:, [1, 0] + list(range(2, 30))].copy()},
        lambda npt: {"train_x": npt.train_x + np.where(np.arange(30) == 7, 1e-6, 0.0)},
        lambda npt: {"sigma": 3.3},
        lambda npt: {"k_row_mean": npt.k_row_mean[::-1].copy()},
        lambda npt: {"u_r": npt.u_r[:-1]},
    ], ids=["other-inputs", "inputs-reversed", "two-inputs-swapped", "one-input-moved",
            "other-sigma", "other-row-means", "U_r-short"])
    def test_a_basis_not_of_the_inputs_is_refused(self, tmp_path, change):
        model = rbf_model()
        npt = dataclasses.replace(model.npt, **change(model.npt))
        bad = dataclasses.replace(model, npt=npt, config={**model.config, "sigma": npt.sigma})
        with pytest.raises(InvariantViolation, match="npt block"):
            save(bad, tmp_path / "m.json")
        assert not (tmp_path / "m.json").exists()

    def test_a_map_along_a_dropped_eigenvector_is_refused(self, tmp_path):
        # on 1-D inputs the centered kernel has eigenvalues below RANK_TOL *
        # lambda_max, which the basis drops; W moved along one of them leaves
        # (W U_r) A_r (W U_r)' as it was, and W K_hat W' not
        target, _ = make_blobs(seed=3, n_target=40, dim=1)
        model, _ = fit_occ_model(target, parse_method("nssvdd-rbf-psi2-min"), C=0.1, d=2,
                                 sigma=2.0, k_max=4, seed=3)
        npt = model.npt
        vals, vecs = np.linalg.eigh(center_kernel(rbf_kernel(npt.train_x, npt.sigma)))
        dropped = vecs[:, vals <= RANK_TOL * npt.eigvals_r.max()]
        w = model.w.copy()
        w[0] += 1e3 * np.linalg.norm(w[0]) * dropped[:, -1]
        assert not _saves(dataclasses.replace(model, w=w), tmp_path / "moved.json")
        assert not _loads_with_map(model, w, tmp_path / "m.json")

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(index=st.integers(0, len(BASIS_FITS) - 1), log_change=st.floats(-14.0, -6.0))
    def test_a_file_save_writes_from_scaled_inputs_loads(self, index, log_change):
        # every training input scaled by a hair moves every compared entry:
        # save may refuse the model, but a file it writes loads
        model = fitted_rbf(index)
        x = model.npt.train_x * (1.0 + 10.0 ** log_change)
        moved = dataclasses.replace(model, npt=dataclasses.replace(model.npt, train_x=x))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.json"
            saved = _saves(moved, path)
            if saved:
                load(path)
        if log_change >= -9.0:
            assert not saved

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(index=st.integers(0, len(BASIS_FITS) - 1), kind=st.sampled_from(["scale", "mix"]),
           row=st.integers(0, 2), log_t=st.floats(-2.0, 2.0))
    def test_agrees_with_the_loaded_kernel_check(self, index, kind, row, log_t):
        model = fitted_rbf(index)
        t = 10.0 ** log_t
        w = _map_moved(model, kind, row, t)
        with tempfile.TemporaryDirectory() as tmp:
            saved = _saves(dataclasses.replace(model, w=w), Path(tmp) / "moved.json")
            loaded = _loads_with_map(model, w, Path(tmp) / "m.json")
        if t <= 0.5:
            assert saved and loaded
        elif t >= 2.0 * _kernel_ratio(model):
            assert not saved and not loaded
        else:
            assert loaded or not saved

    @pytest.mark.parametrize("index", range(len(BASIS_FITS)))
    def test_save_refuses_what_load_would_accept_only_in_the_band(self, tmp_path, index):
        model = fitted_rbf(index)
        rho = _kernel_ratio(model)
        assert rho > 1.1
        w = _map_moved(model, "scale", 0, (1.0 + rho) / 2.0)
        assert not _saves(dataclasses.replace(model, w=w), tmp_path / "moved.json")
        assert _loads_with_map(model, w, tmp_path / "m.json")


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
    assert payload["format_version"] == 5
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
    def test_saved_again_predicts_the_same(self, tmp_path, kind):
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
    def test_saved_again_predicts_the_same(self, tmp_path, kind):
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


class TestFormat4:
    """Format-4 files: the train fixtures as format 4 wrote them (see
    fixtures/format4/README.md), and their predictions."""

    @pytest.mark.parametrize("name", TRAIN_MODELS)
    def test_predictions_byte_identical(self, tmp_path, name):
        out = _predict_file(tmp_path, FORMAT4 / f"{name}.json")
        assert out.read_bytes() == (FORMAT4 / f"{name}_predictions.csv").read_bytes()

    @pytest.mark.parametrize("name", TRAIN_MODELS)
    def test_saved_again_as_format5_predicts_the_same(self, tmp_path, name):
        kind = "linear" if "linear" in name else "rbf"
        _assert_resaved_predicts_the_same(tmp_path, FORMAT4 / f"{name}.json", kind)

    @pytest.mark.parametrize("name", TRAIN_MODELS)
    def test_train_fixture_decodes_to_the_format4_lists(self, name):
        # the format-5 train fixtures hold the same fit as their format-4
        # copies: every field equal, every encoded double the same bits
        old = json.loads((FORMAT4 / f"{name}.json").read_text())
        new = json.loads((TRAIN / f"{name}.json").read_text())
        assert (old.pop("format_version"), new.pop("format_version")) == (4, 5)
        keys = [("Q",), ("description", "center"), ("npt", "W"), ("npt", "train_X")]
        keys = [k for k in keys if k[0] in new]
        assert len(keys) == (2 if name == "nssvdd_linear" else 3)
        for k in keys:
            want = np.array(_field(old, k), dtype=np.float64)
            assert stored_array(new, *k).tobytes() == want.tobytes()
            _drop(old, k)
            _drop(new, k)
        assert new == old


def _field(payload, keys):
    for key in keys:
        payload = payload[key]
    return payload


def _drop(payload, keys):
    del _field(payload, keys[:-1])[keys[-1]]


FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
                     1.7976931348623157e308, -1.7976931348623157e308]),
)


class TestEncoding:
    @settings(max_examples=200, deadline=None)
    @given(a=arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 6)), elements=FINITE),
           big_endian=st.booleans(), fortran=st.booleans())
    def test_round_trip_bit_exact(self, a, big_endian, fortran):
        source = a.astype(">f8") if big_endian else a
        source = np.asfortranarray(source) if fortran else source
        text = _encoded(source)
        assert text == _encoded(a)
        got = _decoded(text, "A", (a.shape[0], -1))
        assert got.tobytes() == a.tobytes()
        assert got.dtype == np.float64 and got.dtype.isnative
        assert got.flags["C_CONTIGUOUS"] and got.flags["WRITEABLE"] and got.flags["OWNDATA"]
        by_columns = _decoded(text, "A", (-1, a.shape[1]))
        assert by_columns.tobytes() == a.tobytes()

    def test_little_endian_row_major(self):
        # 1.0 is 3ff0 0000 0000 0000; little-endian puts its zero bytes first
        text = _encoded(np.array([[1.0, 2.0], [-0.0, 0.5]]))
        raw = base64.b64decode(text)
        assert raw == (b"\0" * 6 + b"\xf0\x3f" + b"\0" * 7 + b"\x40"
                       + b"\0" * 7 + b"\x80" + b"\0" * 6 + b"\xe0\x3f")


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
