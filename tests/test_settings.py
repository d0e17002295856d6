"""One range per fit or run setting: every entry point accepts and rejects
the same values (``settings.RANGES``)."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsvdd import evaluate, model_store, pipeline
from subsvdd.cli import main, read_benchmark_config
from subsvdd.data import DataSet, kfold, make_occ_split
from subsvdd.errors import DataError, SubsvddError
from subsvdd.evaluate import GridSpec, run_benchmark, trace_run
from subsvdd.kernel import rbf_kernel
from subsvdd.pipeline import fit_occ_model, parse_method, prepare_features
from subsvdd.settings import FIT_SETTINGS, RANGES, MethodSpec, check_setting
from subsvdd.subspace import TrainConfig
from subsvdd.svdd import solve_dual

X = np.random.default_rng(2).standard_normal((3, 12))
# a fit that runs quickly for every value in range; the drawn one replaces its own
FIT = {"C": 0.3, "d": 1, "beta": 1.0, "eta": 0.01, "sigma": 2.0, "k_max": 2, "seed": 5}
GRID_LISTS = ("beta", "C", "sigma", "d", "eta")
TRAIN_FIELDS = ("d", "C", "beta", "eta", "k_max", "seed")
PLAIN = parse_method("svdd-linear")

values = st.one_of(st.booleans(), st.integers(-3, 40),
                   st.floats(allow_nan=True, allow_infinity=True),
                   st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.5, 2.0]))


def _rejects(name, make):
    """Whether ``make()`` rejects the value of ``name`` with the table's
    ValueError; a value in range may still fail the fit in another way."""
    try:
        with np.errstate(all="ignore"):
            make()
    except ValueError as exc:
        assert str(exc).startswith(f"{name} must be") or f"{name!r}: {name} must be" in str(exc)
        return True
    except (SubsvddError, ArithmeticError):
        pass
    return False


@pytest.mark.parametrize("name", sorted(FIT_SETTINGS))
@settings(max_examples=60, deadline=None)
@given(value=values)
def test_every_entry_point_agrees_with_the_table(name, value):
    try:
        check_setting(name, value)
        expected = False
    except ValueError:
        expected = True
    method = parse_method("nssvdd-rbf-psi2-min" if name == "sigma" else "nssvdd-linear-psi2-min")
    assert _rejects(name, lambda: fit_occ_model(X, method, **{**FIT, name: value})) == expected
    if name in TRAIN_FIELDS:
        fields = {key: FIT[key] for key in TRAIN_FIELDS}
        # a value given is checked whether or not the method reads it
        for spec in (method, PLAIN):
            assert _rejects(name, lambda: TrainConfig(spec, **{**fields, name: value})) == expected
        if not PLAIN.reads(name):
            # plain SVDD reads no d, beta or eta: left out, each is not checked
            assert TrainConfig(PLAIN, **{**fields, name: None}).method is PLAIN
    if name in GRID_LISTS:
        assert _rejects(name, lambda: GridSpec(**{name: (value,)})) == expected
    if name == "C":
        assert _rejects(name, lambda: solve_dual(X.T, value)) == expected
    if name == "sigma":
        assert _rejects(name, lambda: rbf_kernel(X, value)) == expected


@pytest.mark.parametrize("value", [True, False, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", sorted(RANGES))
def test_nan_inf_and_bools_fail_every_setting(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        check_setting(name, value)


@pytest.mark.parametrize("name, value", [("d", 2.0), ("k_max", 3.0), ("seed", -1), ("C", 0),
                                         ("eta", 0.0), ("beta", -1e-300), ("sigma", "1")])
def test_out_of_range(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be .*, got {value!r}$"):
        check_setting(name, value)


INTEGER_SETTINGS = ("d", "k_max", "seed", "repetitions", "k", "splits", "jobs")


@pytest.mark.parametrize("name", INTEGER_SETTINGS)
def test_integer_settings_end_at_the_largest_int64(name):
    check_setting(name, 2**63 - 1)
    check_setting(name, np.int64(2**63 - 1))
    for value in (2**63, 10**400):
        with pytest.raises(ValueError, match=f"^{name} must be .* up to 2\\*\\*63 - 1, got"):
            check_setting(name, value)


def test_the_integer_settings_are_the_integer_ranges():
    assert {name for name, (types, _, _) in RANGES.items() if float not in types} == set(
        INTEGER_SETTINGS)


def test_grid_rejects_an_integer_no_float_holds():
    # float(10**400) overflows: the range test must come first
    with pytest.raises(ValueError, match=r"^grid list 'd': d must be"):
        GridSpec(d=(2, 10**400))


@pytest.mark.parametrize("name, value", [("d", np.int64(3)), ("C", np.float32(0.5)),
                                         ("beta", 0), ("seed", 0), ("sigma", 1e300)])
def test_in_range(name, value):
    check_setting(name, value)


@pytest.mark.parametrize("name, value", [("C", math.nan), ("sigma", math.inf), ("d", 2.5),
                                         ("eta", -1.0), ("seed", -1), ("k_max", 0)])
def test_fit_checks_before_the_kernel_basis(monkeypatch, name, value):
    def no_basis(*args, **kwargs):
        raise AssertionError("build_npt called for a value out of range")

    monkeypatch.setattr(pipeline, "build_npt", no_basis)
    method = parse_method("nssvdd-rbf-psi2-min")
    for features in (X, prepare_features(X, "rbf", 2.0)):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            fit_occ_model(features, method, **{**FIT, name: value})


@pytest.mark.parametrize("sigma", [None, 3.0])
def test_linear_fit_records_no_sigma(sigma):
    model, _ = fit_occ_model(X, parse_method("svdd-linear"), C=0.3, sigma=sigma)
    assert model.config["sigma"] is None


def test_grid_message_names_the_list():
    with pytest.raises(ValueError, match=r"^grid list 'eta': eta must be .*, got inf$"):
        GridSpec(eta=(0.1, math.inf))


@pytest.mark.parametrize("parts", [("svdd", "linear", 1, "min"), ("nssvdd", "linear", True, "min"),
                                   ("nssvdd", "linear", 1.0, "min"), ("nssvdd", "linear", 4, "min"),
                                   ("nssvdd", "linear", 1, "up"), ("foo", "linear", None, None),
                                   ("svdd", "banana", None, None)])
def test_method_vocabulary(parts):
    with pytest.raises(ValueError):
        MethodSpec(*parts)


@pytest.mark.parametrize("make, method", [
    (lambda m: TrainConfig(m, C=0.3, d=1), "nssvdd-linear-psi2-min"),
    (lambda m: fit_occ_model(X, m, C=0.2), "svdd-linear"),
], ids=["TrainConfig", "fit_occ_model"])
def test_method_must_be_a_method_spec(make, method):
    with pytest.raises(ValueError, match=f"^method must be a MethodSpec, got {method!r}$"):
        make(method)


@pytest.mark.parametrize("zscore", ["no", 1, None])
def test_zscore_must_be_a_bool(zscore):
    # bool("no") is True: a string must not z-score the data
    for make in (lambda: prepare_features(X, "linear", zscore=zscore),
                 lambda: fit_occ_model(X, PLAIN, C=0.3, zscore=zscore)):
        with pytest.raises(ValueError, match="^zscore must be a bool"):
            make()
    assert prepare_features(X, "linear", zscore=np.bool_(True)).zscore is True


@pytest.mark.parametrize("method, unread", [("svdd-linear", {"d", "beta", "eta", "sigma"}),
                                            ("svdd-rbf", {"d", "beta", "eta"}),
                                            ("ssvdd-linear-psi0-max", {"sigma"}),
                                            ("nssvdd-rbf-psi2-min", set())])
def test_reads(method, unread):
    spec = parse_method(method)
    assert {name for name in FIT_SETTINGS if not spec.reads(name)} == unread


def test_unread_settings_may_be_left_out(tmp_path):
    # plain SVDD reads no d, beta or eta: left out, they are not checked, and
    # the file records none (d is the dimension of its Q = I); a read one may not be
    model, _ = fit_occ_model(X, parse_method("svdd-linear"), C=0.3, d=None, beta=None, eta=None)
    assert [model.config[name] for name in ("d", "beta", "eta", "sigma")] == [3, None, None, None]
    model_store.save(model, tmp_path / "m.json")
    assert model_store.load(tmp_path / "m.json").config == model.config
    with pytest.raises(ValueError, match="^beta must be"):
        fit_occ_model(X, parse_method("ssvdd-linear-psi1-min"), C=0.3, d=1, beta=None)


# ---------------------------------------------------------------- run settings

RUN_SETTINGS = ("repetitions", "k", "train_frac", "splits", "jobs")
# a two-class set whose runs take milliseconds
DS = DataSet(features=np.random.default_rng(3).standard_normal((2, 16)),
             labels=np.array(["a", "b"] * 8, dtype=object), class_names=["a", "b"], name="two")
# the run settings of a quick run, and the base seed; the drawn one replaces its own
RUN = {"repetitions": 1, "seed": 3, "k": 2, "train_frac": 0.7, "jobs": 1, "splits": 1}
run_values = st.one_of(st.booleans(), st.integers(-3, 4), st.floats(-0.5, 1.5),
                       st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 1.0, 2.0]))


def test_the_run_settings_are_the_rest_of_the_table():
    assert set(RANGES) == set(FIT_SETTINGS) | set(RUN_SETTINGS)


def _api_entry_points(name, value):
    """Each API call that takes run setting ``name`` (or the base seed), given
    ``value``. The benchmark runs on no data, so a value in range costs nothing."""
    run = {**RUN, name: value}
    calls = {}
    if name != "splits":
        bench = {key: run[key] for key in ("repetitions", "seed", "k", "train_frac", "jobs")}
        calls["run_benchmark"] = lambda: run_benchmark([], ["svdd-linear"], **bench)
    if name in ("splits", "seed"):
        calls["trace_run"] = lambda: trace_run(DS, "a", parse_method("svdd-linear"), {"C": 0.5},
                                               seed=run["seed"], splits=run["splits"], k_max=1)
    if name == "k":
        calls["kfold"] = lambda: kfold(np.arange(8), value, 0)
    if name == "train_frac":
        calls["make_occ_split"] = lambda: make_occ_split(DS, "a", value, 0)
    return calls


@pytest.mark.parametrize("name", RUN_SETTINGS + ("seed",))
@settings(max_examples=40, deadline=None)
@given(value=run_values)
def test_every_run_entry_point_agrees_with_the_table(name, value):
    try:
        check_setting(name, value)
        expected = False
    except ValueError:
        expected = True
    calls = _api_entry_points(name, value)
    assert calls
    for call, make in calls.items():
        assert _rejects(name, make) == expected, call


# run setting, its benchmark config key (None: no key sets it), a flag that
# sets it (None: no flag), and values out of its range
RUN_TABLE = [
    ("repetitions", "repetitions", None, [0, -1]),
    ("k", "kfolds", None, [1, 0]),
    ("train_frac", "train_frac", None, [0, 1, 1.5, -0.0]),
    ("splits", None, ["trace", "--splits"], [0, -2]),
    ("jobs", None, ["benchmark", "--jobs"], [0, -2]),
    ("seed", "seed", ["trace", "--seed"], [-1]),
]
CASES = [(name, key, flag, value) for name, key, flag, bad in RUN_TABLE for value in bad]


def _write_data(tmp_path):
    rows = [",".join(repr(float(v)) for v in col) + f",{label}"
            for col, label in zip(DS.features.T, DS.labels)]
    path = tmp_path / "two.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


def _write_config(tmp_path, **keys):
    cfg = {"datasets": [{"path": str(_write_data(tmp_path))}], "methods": ["svdd-linear"],
           "repetitions": 1, "kfolds": 2, "iters": 1, "grid": {"C": [0.5]}, **keys}
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


@pytest.mark.parametrize("name, key, flag, value", CASES,
                         ids=[f"{case[0]}={case[3]!r}" for case in CASES])
def test_each_entry_point_rejects_a_run_setting_out_of_range(tmp_path, caplog, monkeypatch,
                                                             name, key, flag, value):
    def no_fit(*args, **kwargs):
        raise AssertionError("a fit ran for a setting out of range")

    monkeypatch.setattr(evaluate, "fit_occ_model", no_fit)
    message = f"{name} must be {RANGES[name][2]}, got {value!r}"
    for call, make in _api_entry_points(name, value).items():
        with pytest.raises(ValueError) as exc:
            make()
        assert str(exc.value) == message, call
    out = tmp_path / "out.csv"
    if key is not None:
        config = _write_config(tmp_path, **{key: value})
        with pytest.raises(DataError) as exc:
            read_benchmark_config(config)
        assert str(exc.value) == f"benchmark config key {key!r}: {message}"
        assert main(["benchmark", "--config", str(config), "--out-csv", str(out)]) == 2
        assert caplog.records[-1].getMessage() == str(exc.value)
    if flag is not None:
        command, option = flag
        data = ["--config", str(_write_config(tmp_path)), "--out-csv"] if command == "benchmark" \
            else ["--data", str(_write_data(tmp_path)), "--target-class", "a", "--out"]
        assert main([command, *data, str(out), option, str(value)]) == 1
        assert caplog.records[-1].getMessage() == message
    assert not out.exists()
