import base64

import numpy as np
import pytest

# verdict lines appended by test_acceptance.py, echoed in the summary
ACCEPTANCE_LINES = []


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def make_blobs(seed=7, n_target=60, n_outlier=60, dim=5, shift=8.0):
    """Two Gaussian blobs: target at the origin (sigma 1), outliers shifted by
    ``shift`` along the all-ones direction. Returns (X_target, X_outlier),
    both dim x n."""
    gen = np.random.default_rng(seed)
    target = gen.standard_normal((dim, n_target))
    outlier = gen.standard_normal((dim, n_outlier)) + shift
    return target, outlier


def stored_array(payload, *keys):
    """The float64 array at ``keys`` of a parsed format-5 model file, decoded
    here as the format says, not by model_store: base64 text of "<f8" doubles
    in row-major order, with d = config.d rows for Q, W and center and
    N = len(alpha) columns for train_X."""
    obj = payload
    for key in keys:
        obj = obj[key]
    d, n = payload["config"]["d"], len(payload["description"]["alpha"])
    shape = {"Q": (d, -1), "W": (d, -1), "train_X": (-1, n), "center": (d,)}[keys[-1]]
    return np.frombuffer(base64.b64decode(obj), dtype="<f8").reshape(shape).copy()


def store_array(payload, keys, a):
    """Write ``a`` at ``keys`` of a parsed format-5 model file, encoded as
    ``stored_array`` decodes it."""
    for key in keys[:-1]:
        payload = payload[key]
    payload[keys[-1]] = base64.b64encode(np.asarray(a, dtype="<f8").tobytes()).decode("ascii")


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running acceptance checks")
