"""The rbf kernel layer and the distance rule build each block in buffers of
their own: the same operations in the same order as the out-of-place
expressions in ``oracles``, so every output keeps its bits.

The properties draw data of spreads from 1e-2 to 1e2, kernel widths from 1e-3
to 1e4 times the spread, and NaN or +-Inf entries. A RuntimeWarning is an
error here as everywhere in the suite; where an oracle raises one, the package
must raise the same one, and where it returns, the package returns an equal
array. No function may write an argument.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from subsvdd.kernel import (
    KernelMap,
    _pairwise_sq_dists,
    center_kernel,
    kernel_vectors,
    rbf_kernel,
    rbf_kernel_cross,
)
from subsvdd.svdd import AlphaVector, _dist_sq, describe

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
NONFINITE = (np.nan, np.inf, -np.inf)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _holes(draw, arr, symmetric=False):
    """Set up to two entries of ``arr`` (and their mirrors) to NaN or +-Inf."""
    spots = st.tuples(st.integers(0, arr.shape[0] - 1), st.integers(0, arr.shape[1] - 1),
                      st.sampled_from(NONFINITE))
    for i, j, value in draw(st.lists(spots, max_size=2)):
        arr[i, j] = value
        if symmetric:
            arr[j, i] = value


@st.composite
def blocks(draw):
    """(x, z, sigma): D x N and D x M columns of one spread, some of z's
    columns copies of x's, in C or F order, with sigma from 1e-3 to 1e4
    times the spread; in about half the draws some entries are NaN or +-Inf."""
    dim, n, m = draw(st.integers(1, 5)), draw(st.integers(1, 25)), draw(st.integers(1, 25))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = 10.0 ** draw(st.floats(-2.0, 2.0))
    x = spread * gen.standard_normal((dim, n))
    z = spread * gen.standard_normal((dim, m))
    shared = draw(st.integers(0, min(n, m)))
    z[:, :shared] = x[:, :shared]
    if draw(st.booleans()):
        _holes(draw, x)
        _holes(draw, z)
    if draw(st.booleans()):
        x = np.asfortranarray(x)
    return x, z, spread * 10.0 ** draw(st.floats(-3.0, 4.0))


def _outcome(fn, *args):
    """``fn(*args)``, or the message of the RuntimeWarning it raised."""
    try:
        return fn(*args)
    except RuntimeWarning as warning:
        return f"RuntimeWarning: {warning}"


def _assert_same(fn, oracle, *args):
    """``fn`` and ``oracle`` warn alike or return equal arrays, and ``fn``
    leaves the bytes of every array argument as they were."""
    arrays = [a for a in args if isinstance(a, np.ndarray)]
    before = [a.tobytes() for a in arrays]
    got = _outcome(fn, *args)
    assert [a.tobytes() for a in arrays] == before
    want = _outcome(oracle, *args)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
    else:
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want, equal_nan=True)


class TestSameBitsAsTheOracles:
    @PROPERTY
    @given(blocks())
    def test_pairwise_sq_dists(self, block):
        x, z, _ = block
        _assert_same(_pairwise_sq_dists, oracles.pairwise_sq_dists, x, z)

    @PROPERTY
    @given(blocks())
    def test_rbf_kernel_cross(self, block):
        _assert_same(rbf_kernel_cross, oracles.rbf_kernel_cross, *block)

    @PROPERTY
    @given(blocks())
    def test_rbf_kernel(self, block):
        x, _, sigma = block
        _assert_same(rbf_kernel, oracles.rbf_kernel, x, sigma)

    @PROPERTY
    @given(blocks(), st.data())
    def test_center_kernel(self, block, data):
        x, _, sigma = block
        with np.errstate(all="ignore"):
            k = oracles.rbf_kernel(x, sigma)
        _holes(data.draw, k, symmetric=True)
        _assert_same(center_kernel, oracles.center_kernel, k)

    @PROPERTY
    @given(blocks())
    def test_kernel_vectors(self, block):
        x, z, sigma = block
        with np.errstate(all="ignore"):
            row_mean = oracles.rbf_kernel(x, sigma).mean(axis=1)
        kmap = KernelMap(k_row_mean=row_mean, sigma=sigma, train_x=x)
        before = (row_mean.tobytes(), x.tobytes())
        _assert_same(kernel_vectors, oracles.kernel_vectors, z, kmap)
        assert (kmap.k_row_mean.tobytes(), kmap.train_x.tobytes()) == before

    @PROPERTY
    @given(blocks())
    def test_dist_sq(self, block):
        x, z, _ = block
        _assert_same(_dist_sq, oracles.dist_sq, z, x[:, 0].copy())


class TestDescribe:
    @PROPERTY
    @given(blocks())
    def test_projections_left_as_they_were(self, block):
        _, y, _ = block
        y = np.nan_to_num(y, posinf=1.0, neginf=-1.0)
        n = y.shape[1]
        # every alpha_i below C = 2: each column is a boundary support vector
        alpha = AlphaVector(alpha=np.full(n, 1.0 / n), C=2.0)
        before = y.tobytes()
        desc = describe(alpha, y)
        assert y.tobytes() == before
        assert desc.radius_sq == float(oracles.dist_sq(y, y @ alpha.alpha).mean())


def _peak_bytes(fn, *args):
    """The most memory traced while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kernel_vectors_hold_two_arrays_of_the_block(rng):
    # x'z and the buffer that becomes the centered block, plus numpy's
    # fixed-size broadcasting buffers (128 KiB here)
    n, m = 400, 300
    x = rng.standard_normal((6, n))
    kmap = KernelMap(k_row_mean=rbf_kernel(x, 2.0).mean(axis=1), sigma=2.0, train_x=x)
    assert _peak_bytes(kernel_vectors, rng.standard_normal((6, m)), kmap) < 2 * n * m * 8 + 2**18
