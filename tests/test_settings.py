"""One range per fit setting: every entry point accepts and rejects the same
values (``settings.RANGES``)."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsvdd import pipeline
from subsvdd.errors import SubsvddError
from subsvdd.evaluate import GridSpec
from subsvdd.pipeline import fit_occ_model, parse_method, prepare_features
from subsvdd.settings import RANGES, MethodSpec, check_setting
from subsvdd.subspace import TrainConfig

X = np.random.default_rng(2).standard_normal((3, 12))
# a fit that runs quickly for every value in range; the drawn one replaces its own
FIT = {"C": 0.3, "d": 1, "beta": 1.0, "eta": 0.01, "sigma": 2.0, "k_max": 2, "seed": 5}
GRID_LISTS = ("beta", "C", "sigma", "d", "eta")
TRAIN_FIELDS = ("d", "C", "beta", "eta", "k_max", "seed")

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


@pytest.mark.parametrize("name", sorted(RANGES))
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
        assert _rejects(name, lambda: TrainConfig(**{**fields, name: value})) == expected
    if name in GRID_LISTS:
        assert _rejects(name, lambda: GridSpec(**{name: (value,)})) == expected


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
