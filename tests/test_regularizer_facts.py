"""Two facts of the subspace fits that hold in exact arithmetic, as properties
on Seeds-shaped data (7 features, 39 training targets):

- psi1 weighs every sample, so its term is ||Q X 1||^2, and X 1 = 0 on
  centred features: the rbf eigenmap Phi of a centred kernel, or z-scored
  linear features. There a psi1 fit is the psi0 fit.
- A Newton step whose core B has full rank is Q plus 2 (beta - 1)(Q X lam)(...)',
  so at psi0 (lam = 0) or at beta = 1 it is (1 -+ eta) Q, which the QR
  undoes: the fit ends in its start's subspace.
"""
import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from subsvdd.data import zscore_apply, zscore_fit
from subsvdd.pipeline import fit_occ_model, parse_method
from subsvdd.subspace import (
    EIG_REL_TOL,
    TrainConfig,
    build_lambda,
    hessian_core,
    init_projection,
    support_block,
    train,
)
from subsvdd.svdd import solve_dual

EPS = np.finfo(np.float64).eps
# per-feature mean and spread of the UCI Seeds set
SEEDS_MEAN = np.array([14.85, 14.56, 0.871, 5.63, 3.26, 3.70, 5.41])
SEEDS_STD = np.array([2.91, 1.31, 0.024, 0.44, 0.38, 1.50, 0.49])


def seeds_fold(seed, n=39):
    """n Seeds-shaped training targets, 7 x n."""
    gen = np.random.default_rng(seed)
    return SEEDS_MEAN[:, None] + SEEDS_STD[:, None] * gen.standard_normal((7, n))


SETTINGS = dict(
    seed=st.integers(0, 2**16),
    C=st.sampled_from([0.05, 0.1, 0.3]),
    d=st.sampled_from([1, 3]),
    direction=st.sampled_from(["min", "max"]),
    eta=st.sampled_from([0.001, 0.01, 0.1]),
    k_max=st.integers(30, 50),
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(family=st.sampled_from(["ssvdd", "nssvdd"]),
       features=st.sampled_from([("rbf", False), ("rbf", True), ("linear", True)]),
       beta=st.sampled_from([0.5, 10.0]), sigma=st.sampled_from([1.0, 3.0]), **SETTINGS)
def test_psi1_is_psi0_on_centred_features(family, features, beta, sigma, seed, C, d,
                                          direction, eta, k_max):
    # X 1 is zero up to rounding, so psi1's term is a rounding-sized column:
    # the gradient step adds (Q X 1)(X 1)' far below Q B's last digit and
    # gives the same bits; the Newton step eigendecomposes a core with that
    # column too, which moves each iterate by a few eps (up to about 12 k_max
    # eps seen on raw rbf inputs, whose smallest kept eigenvalues amplify it)
    kernel, zscore = features
    x = seeds_fold(seed)
    q = [fit_occ_model(x, parse_method(f"{family}-{kernel}-psi{psi}-{direction}"), C=C, d=d,
                       beta=beta, eta=eta, sigma=sigma if kernel == "rbf" else None,
                       k_max=k_max, seed=seed, zscore=zscore)[0].q for psi in (1, 0)]
    if family == "ssvdd":
        assert np.array_equal(q[0], q[1])
    else:
        assert np.abs(q[0] - q[1]).max() <= 64 * k_max * EPS


def first_core_rank(x, q0, C, psi):
    """The rank of the first Newton step's core B = 2 M M', by its kept
    eigenvalues as ``newton_step`` keeps them (above EIG_REL_TOL times the
    largest)."""
    alpha = solve_dual((q0 @ x).T, C)
    block = support_block(x, alpha.alpha, build_lambda(psi, alpha))
    sv = np.linalg.svd(hessian_core(block), compute_uv=False)
    return int(np.count_nonzero(sv ** 2 > EIG_REL_TOL * sv[0] ** 2))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(psi=st.integers(0, 3), beta=st.sampled_from([0.5, 10.0, 100.0]),
       **{**SETTINGS, "C": st.sampled_from([0.03, 0.05, 0.1, 0.2, 0.3])})
def test_a_full_rank_newton_fit_ends_in_its_start(psi, beta, seed, C, d, direction, eta,
                                                  k_max):
    # each step is (1 -+ eta) Q plus the rounding of B's eigenpairs and of the
    # QR, a few eps per row, so the subspace drifts by at most about
    # 4 k_max sqrt(d) eps (8.5e-15 seen at k_max <= 50)
    if psi != 0:
        beta = 1.0
    x = seeds_fold(seed)
    x = zscore_apply(x, *zscore_fit(x))
    q0 = init_projection(d, x.shape[0], np.random.default_rng(seed))
    assume(first_core_rank(x, q0, C, psi) == x.shape[0])
    cfg = TrainConfig(parse_method(f"nssvdd-linear-psi{psi}-{direction}"), C=C, d=d,
                      beta=beta, eta=eta, k_max=k_max, seed=seed)
    q = train(x, cfg, q0=q0).q
    assert np.linalg.norm(q - q @ q0.T @ q0) <= 4 * k_max * np.sqrt(d) * EPS
