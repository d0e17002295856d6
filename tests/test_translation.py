"""Moving the data by a constant offset must not change the fitted description.

The SVDD dual depends only on differences of the (projected) points, because
sum(alpha) = 1. So a fit on X + o must find the same alpha and support
vectors as a fit on X, and must decide every test point the same way, except
for points whose squared distance lies within 1e-9 R^2 of the radius.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsvdd.model_store import predict
from subsvdd.pipeline import fit_occ_model, parse_method

BAND = 1e-9
ALPHA_TOL = 1e-4
PROPERTY = settings(max_examples=20, deadline=None, derandomize=True, database=None)


def _fit_pair(method, seed, log_offset, c, **kw):
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((5, 40)) * gen.uniform(0.5, 2.0, (5, 1))
    x_test = 1.5 * gen.standard_normal((5, 200)) * x.std(axis=1, keepdims=True)
    sign = gen.choice([-1.0, 1.0], (5, 1))
    offset = sign * 10.0**log_offset * x.std(axis=1, keepdims=True)
    spec = parse_method(method)
    model, _ = fit_occ_model(x, spec, C=c, seed=seed, **kw)
    moved, _ = fit_occ_model(x + offset, spec, C=c, seed=seed, **kw)
    return model, moved, predict(model, x_test), predict(moved, x_test + offset)


def _assert_same_description(model, moved, decided, moved_decided):
    a, b = model.description, moved.description
    np.testing.assert_array_equal(a.sv_indices, b.sv_indices)
    # alpha is unique only up to the solver's tolerance where the dual is flat
    # (more free support vectors than the dimension plus one)
    np.testing.assert_allclose(b.alpha.alpha, a.alpha.alpha, rtol=0, atol=ALPHA_TOL * a.alpha.C)
    (dist, pos), (_, moved_pos) = decided, moved_decided
    clear = np.abs(dist - a.radius_sq) > BAND * a.radius_sq
    np.testing.assert_array_equal(pos[clear], moved_pos[clear])


@PROPERTY
@given(
    seed=st.integers(0, 2**31 - 1),
    log_offset=st.floats(0.0, 7.0),
    c=st.sampled_from([0.05, 0.1, 0.3]),
)
def test_svdd_linear_ignores_offsets(seed, log_offset, c):
    _assert_same_description(*_fit_pair("svdd-linear", seed, log_offset, c))


SUBSPACE = dict(d=2, eta=0.05, k_max=5)


@PROPERTY
@given(
    seed=st.integers(0, 2**31 - 1),
    log_offset=st.floats(0.0, 7.0),
    c=st.sampled_from([0.05, 0.1]),
    method=st.sampled_from(["ssvdd-linear-psi0-min", "nssvdd-linear-psi0-min"]),
)
def test_subspace_psi0_ignores_offsets(seed, log_offset, c, method):
    # C <= 0.1 puts mass on more than D + 1 = 6 points: full-rank Hessian core
    _assert_same_description(*_fit_pair(method, seed, log_offset, c, **SUBSPACE))


@PROPERTY
@given(seed=st.integers(0, 2**31 - 1), log_offset=st.floats(0.0, 7.0))
def test_newton_psi0_singular_core_ignores_offsets(seed, log_offset):
    # C = 0.3 leaves about 4 support vectors in 5-D, so the Hessian core is
    # singular and its pseudo-inverse would pass any rounding of an uncentered
    # X diag(a) X' - (Xa)(Xa)' into the step
    _assert_same_description(
        *_fit_pair("nssvdd-linear-psi0-min", seed, log_offset, 0.3, **SUBSPACE)
    )


def test_newton_psi0_singular_core_at_large_offset():
    _assert_same_description(
        *_fit_pair("nssvdd-linear-psi0-min", 3, 5.0, 0.3, **SUBSPACE)
    )


@pytest.mark.parametrize("log_offset,rtol", [(4.0, 1e-11), (7.0, 1e-8)])
def test_traced_objective_ignores_offsets(log_offset, rtol):
    # psi0 leaves only sum_i a_i ||y_i - Y a||^2, which does not depend on the
    # origin. Adding the offset rounds every entry by up to half an ulp of
    # 10^log_offset * spread (about 1e-9 spread at 1e7), so the moved fit sees
    # other data to that accuracy; sums of squares of uncentered projections
    # lost all but about 3 digits at 1e7
    x = np.random.default_rng(3).standard_normal((5, 40))
    offset = 10.0**log_offset * x.std(axis=1, keepdims=True)
    spec = parse_method("nssvdd-linear-psi0-min")
    kw = dict(C=0.1, seed=3, **SUBSPACE)
    _, trace = fit_occ_model(x, spec, **kw)
    _, moved = fit_occ_model(x + offset, spec, **kw)
    np.testing.assert_allclose([r.objective for r in moved], [r.objective for r in trace],
                               rtol=rtol, atol=0)
