"""Input a routine cannot take raises its typed error, one case per check: an
array of the wrong rank, or of sizes that do not fit each other, is a
DimensionMismatch (CLI exit code 2); a method string, kernel name or label
pair no routine knows is a ValueError.
"""
import numpy as np
import pytest

from subsvdd.errors import DimensionMismatch
from subsvdd.kernel import center_kernel, rbf_kernel_cross
from subsvdd.metrics import confusion_from_labels
from subsvdd.model_store import predict
from subsvdd.numerics import sym_eig
from subsvdd.pipeline import fit_occ_model, parse_method, prepare_features
from subsvdd.subspace import TrainConfig, objective, support_block, train
from subsvdd.svdd import AlphaVector, describe, solve_dual

X = np.random.default_rng(0).standard_normal((3, 6))
ALPHA = AlphaVector(np.full(6, 1 / 6), 0.5)
PLAIN = parse_method("svdd-linear")

# (id, call, error, message)
CASES = [
    ("objective", lambda: objective(X, ALPHA.alpha[:5], ALPHA.alpha, 1.0),
     DimensionMismatch, "alpha/lambda length"),
    ("support_block", lambda: support_block(X, ALPHA.alpha, ALPHA.alpha[:5]),
     DimensionMismatch, "alpha/lambda length"),
    ("train-vector", lambda: train(X[0], TrainConfig(PLAIN, 0.5)),
     DimensionMismatch, "D x N matrix"),
    ("train-one-sample", lambda: train(X[:, :1], TrainConfig(PLAIN, 0.5)),
     DimensionMismatch, "at least 2"),
    ("solve_dual-no-points", lambda: solve_dual(np.zeros((0, 2)), 0.5),
     DimensionMismatch, "no points"),
    ("describe", lambda: describe(ALPHA, X[:, :5]), DimensionMismatch, "alpha length"),
    ("sym_eig-vector", lambda: sym_eig(np.ones(3)), DimensionMismatch, "2-D"),
    ("sym_eig-not-square", lambda: sym_eig(np.ones((2, 3))), DimensionMismatch, "square"),
    ("rbf_kernel_cross", lambda: rbf_kernel_cross(X, X[:2], 1.0),
     DimensionMismatch, "cannot compare"),
    ("center_kernel", lambda: center_kernel(np.ones((2, 3))), DimensionMismatch, "square"),
    ("prepare_features-vector", lambda: prepare_features(X[0], "linear"),
     DimensionMismatch, "D x N matrix"),
    ("predict-vector", lambda: predict(fit_occ_model(X, PLAIN, C=0.5)[0], X[:, 0]),
     DimensionMismatch, "D x M matrix"),
    ("prepare_features-poly", lambda: prepare_features(X, "poly"), ValueError, "unknown kernel"),
    ("parse_method-no-psi", lambda: parse_method("nssvdd-linear-x2-min"),
     ValueError, "bad method string"),
    ("parse_method-three-parts", lambda: parse_method("nssvdd-linear-psi2"),
     ValueError, "bad method string"),
    ("confusion_from_labels", lambda: confusion_from_labels([True, False], [True]),
     ValueError, "equal length"),
]


@pytest.mark.parametrize("call, error, message", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_input_no_routine_takes_raises_its_typed_error(call, error, message):
    with pytest.raises(error, match=message):
        call()
