"""``subsvdd train`` and ``subsvdd trace`` give the bytes the earlier code
wrote (tests/fixtures/train/README.md)."""
from pathlib import Path

import pytest

from subsvdd.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
TRAIN_CSV = FIXTURES / "format1" / "train.csv"

TRAIN_RUNS = {
    "nssvdd_rbf.json": ["--kernel", "rbf", "--sigma", "2.0", "--dim", "3", "--iters", "5",
                        "--seed", "4"],
    "nssvdd_linear.json": ["--iters", "20"],
    "svdd_rbf.json": ["--method", "svdd", "--kernel", "rbf", "--sigma", "1.0"],
}


@pytest.mark.parametrize("name", sorted(TRAIN_RUNS))
def test_train_matches_the_fixture(tmp_path, name):
    out = tmp_path / name
    assert main(["train", "--data", str(TRAIN_CSV), "--target-class", "target",
                 "--out", str(out), *TRAIN_RUNS[name]]) == 0
    assert out.read_bytes() == (FIXTURES / "train" / name).read_bytes()


def test_trace_matches_the_fixture(tmp_path):
    out = tmp_path / "trace.csv"
    assert main(["trace", "--data", str(FIXTURES / "grid" / "two.csv"),
                 "--target-class", "target", "--out", str(out), "--kernel", "rbf",
                 "--sigma", "2.0", "--iters", "5", "--splits", "2"]) == 0
    assert out.read_bytes() == (FIXTURES / "train" / "trace_rbf.csv").read_bytes()
