"""An rbf model predicts through one d x N map W = Q A_r^{-1/2} U_r'.

The squared distance of a point x is ||Q phi(x) - c||^2 with the kernel
eigenmap phi(x) = A_r^{-1/2} U_r' k_hat(x), where k_hat(x) is x's kernel
vector against the training set, centered by the training statistics.
``predict`` computes k_hat(x) from the row means, then W k_hat(x). These
tests compare it with that definition evaluated in long double from the
fitted model's Q, U_r and eigenvalues, across kernel widths from 0.3 to 3000
times the data's spread, and check that every file ``save`` writes loads and
predicts bit for bit the same.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from subsvdd.kernel import kernel_vectors, rbf_kernel_cross
from subsvdd.model_store import load, predict, save
from subsvdd.pipeline import fit_occ_model, parse_method

EPS = np.finfo(np.float64).eps
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def rbf_fits(draw):
    n = draw(st.integers(8, 60))
    dim = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**31 - 1))
    width = draw(st.floats(np.log(0.3), np.log(3000.0)))
    family = draw(st.sampled_from(["ssvdd", "nssvdd"]))
    psi = draw(st.integers(0, 3))
    direction = draw(st.sampled_from(["min", "max"]))
    d = draw(st.integers(1, 3))
    gen = np.random.default_rng(seed)
    scale = 10.0 ** gen.uniform(-1.0, 1.0)
    x = scale * gen.standard_normal((dim, n))
    probes = 1.5 * scale * gen.standard_normal((dim, 50))
    model, _ = fit_occ_model(
        x, parse_method(f"{family}-rbf-psi{psi}-{direction}"), C=max(0.1, 2.0 / n), d=d,
        sigma=float(np.exp(width)) * scale, k_max=3, seed=seed % 1000,
    )
    return model, probes


def eigenmap_distances(model, probes):
    """||Q phi(x) - c||^2 in long double, from the same kernel values."""
    wide = np.longdouble
    npt = model.npt
    v = (rbf_kernel_cross(npt.train_x, probes, npt.sigma).astype(wide)
         - npt.k_row_mean.astype(wide)[:, None])
    k_hat = v - v.mean(axis=0, keepdims=True)
    phi = (npt.u_r.astype(wide).T @ k_hat) / np.sqrt(npt.eigvals_r.astype(wide))[:, None]
    z = model.q.astype(wide) @ phi - model.description.center.astype(wide)[:, None]
    return (z * z).sum(axis=0), z


@PROPERTY
@given(rbf_fits())
def test_predict_matches_the_eigenmap_definition(fit):
    model, probes = fit
    dist, _ = predict(model, probes)
    expected, z = eigenmap_distances(model, probes)
    # The rounding of W k_hat is bounded by N eps |W| |k_hat| per coordinate
    # (Higham, ch. 3); centering first keeps |k_hat| small where k ~ 1.
    # Folding the centering into W bounds it by N eps |W| |k| instead, and
    # errs by up to 1e-3 R^2 at sigma = 3000 times the spread.
    n = model.w.shape[1]
    rounding = n * EPS * (np.abs(z.astype(np.float64))
                          * (np.abs(model.w) @ np.abs(kernel_vectors(probes, model.npt)))).sum(axis=0)
    err = np.abs(dist - expected.astype(np.float64))
    assert np.all(err <= 1e-9 * model.description.radius_sq + rounding)


@PROPERTY
@given(rbf_fits())
def test_every_saved_file_loads_and_predicts_bit_for_bit(tmp_path_factory, fit):
    model, probes = fit
    path = tmp_path_factory.mktemp("rbf") / "m.json"
    save(model, path)
    loaded = load(path)
    for before, after in zip(predict(model, probes), predict(loaded, probes)):
        assert before.tobytes() == after.tobytes()
