"""Each check of checks.py must pass on intact output and reject a corrupted one.

Run from the repository root with ``python -m pytest bench``.
"""
import dataclasses

import numpy as np
import pytest

import checks
import subsvdd
import tracing
import workloads
from subsvdd import evaluate, model_store, parse_method, pipeline
from subsvdd.errors import InfeasibleC


def _blobs(seed, dim=5, n_train=40, n_test=60):
    rng = np.random.default_rng(seed)
    x_train = rng.standard_normal((dim, n_train)) + 2.0
    x_test = np.hstack([rng.standard_normal((dim, n_test)) + 2.0,
                        rng.standard_normal((dim, n_test)) * 3.0 + 2.0])
    truth = np.arange(2 * n_test) < n_test
    return x_train, x_test, truth


@pytest.fixture(scope="module", params=["nssvdd-linear-psi2-min", "ssvdd-rbf-psi1-min"])
def fitted(request):
    x_train, x_test, truth = _blobs(3)
    model, _ = subsvdd.fit_occ_model(x_train, parse_method(request.param), C=0.1, d=2,
                                     sigma=3.0, k_max=5, seed=11)
    _, positive = model_store.predict(model, x_test)
    return model, x_train, x_test, truth, positive


def _with_alpha(model, alpha, center=None):
    desc = model.description
    new_desc = dataclasses.replace(
        desc, alpha=dataclasses.replace(desc.alpha, alpha=alpha),
        center=desc.center if center is None else center)
    return dataclasses.replace(model, description=new_desc)


def test_intact_model_passes(fitted):
    model, x_train, x_test, truth, positive = fitted
    problems, score, info = checks.check_model(model, x_train, x_test, positive, truth)
    assert problems == []
    assert 0.0 <= score <= 1.0
    assert info["kkt"] <= checks.KKT_SLACK
    # the reported Gmean is the package's own, from the same decisions
    expected = subsvdd.gmean(subsvdd.evaluate.confusion_from_labels(truth, positive))
    assert checks.check_model(model, x_train, x_test, positive, truth, expected)[0] == []


def _moved_alpha(model):
    """Move a tenth of the largest weight onto the point nearest the center."""
    alpha = model.description.alpha.alpha.copy()
    src = int(np.argmax(alpha))
    dst = int(np.argmin(np.where(alpha > 0.0, np.inf,
                                 ((model.y_train - model.description.center[:, None]) ** 2)
                                 .sum(axis=0))))
    step = 0.1 * alpha[src]
    alpha[src] -= step
    alpha[dst] += step
    return alpha


def test_perturbed_alpha_is_rejected(fitted):
    model, x_train, x_test, truth, positive = fitted
    alpha = _moved_alpha(model)
    # center left as it was: center = Y alpha fails
    problems, _, _ = checks.check_model(_with_alpha(model, alpha), x_train, x_test, positive)
    assert any("center" in p for p in problems)
    # center moved with alpha: the KKT check alone catches it
    consistent = _with_alpha(model, alpha, center=model.y_train @ alpha)
    problems, _, _ = checks.check_model(consistent, x_train, x_test, positive)
    assert any("KKT" in p for p in problems)


def test_rotated_q_is_rejected(fitted):
    model, x_train, x_test, truth, positive = fitted
    big_d = model.q.shape[1]
    rot = np.eye(big_d)
    c, s = np.cos(0.3), np.sin(0.3)
    rot[:2, :2] = [[c, -s], [s, c]]
    rotated = dataclasses.replace(model, q=model.q @ rot)
    problems, _, _ = checks.check_model(rotated, x_train, x_test, positive)
    assert any("projections" in p for p in problems)
    assert not any("QQ'" in p for p in problems)  # still row-orthonormal
    stretched = dataclasses.replace(model, q=1.01 * model.q)
    problems, _, _ = checks.check_model(stretched, x_train, x_test, positive)
    assert any("QQ'" in p for p in problems)


def test_flipped_decision_is_rejected(fitted):
    model, x_train, x_test, truth, positive = fitted
    dist, _ = model_store.predict(model, x_test)
    flipped = positive.copy()
    far = int(np.argmax(np.abs(dist - model.description.radius_sq)))
    flipped[far] = not flipped[far]
    problems, _, _ = checks.check_model(model, x_train, x_test, flipped)
    assert any("decisions disagree" in p for p in problems)


def test_wrong_gmean_is_rejected(fitted):
    model, x_train, x_test, truth, positive = fitted
    _, score, _ = checks.check_model(model, x_train, x_test, positive, truth)
    problems, _, _ = checks.check_model(model, x_train, x_test, positive, truth, score + 0.01)
    assert any("Gmean" in p for p in problems)


def test_corrupted_kernel_basis_is_rejected():
    x_train, x_test, _ = _blobs(5, n_train=30)
    model, _ = subsvdd.fit_occ_model(x_train, parse_method("svdd-rbf"), C=0.1, sigma=2.0)
    _, positive = model_store.predict(model, x_test)
    assert checks.check_model(model, x_train, x_test, positive)[0] == []
    npt = model.npt
    bad_phi = dataclasses.replace(npt, phi=npt.phi * (1.0 + 1e-6))
    problems, _, _ = checks.check_model(dataclasses.replace(model, npt=bad_phi),
                                        x_train, x_test, positive)
    assert any("Phi'Phi" in p for p in problems)
    bad_eig = dataclasses.replace(npt, eigvals_r=npt.eigvals_r * (1.0 + 1e-6))
    problems, _, _ = checks.check_model(dataclasses.replace(model, npt=bad_eig),
                                        x_train, x_test, positive)
    assert any("eigenpairs" in p for p in problems)


def test_duality_gap_vanishes_only_at_the_optimum(fitted):
    model, x_train, *_ = fitted
    y, alpha, c_box = model.y_train, model.description.alpha.alpha, model.description.alpha.C
    dist = checks.squared_distances(np.eye(y.shape[0]), y, y @ alpha)
    gap, dual = checks.duality_gap(dist, alpha, c_box)
    assert abs(gap) <= 1e-6 * dual
    moved = _moved_alpha(model)
    gap, dual = checks.duality_gap(checks.squared_distances(np.eye(y.shape[0]), y, y @ moved),
                                   moved, c_box)
    assert gap > 1e-4 * dual


def test_round_trip_check(fitted, tmp_path):
    model, _, x_test, _, _ = fitted
    path = tmp_path / "model.json"
    model_store.save(model, path)
    before = model_store.predict(model, x_test)
    after = model_store.predict(model_store.load(path), x_test)
    r2 = model.description.radius_sq
    assert checks.check_round_trip(before, after, r2, bitwise=True) == []
    dist, positive = after
    nudged = dist.copy()
    nudged[0] = np.nextafter(nudged[0], np.inf)
    assert checks.check_round_trip(before, (nudged, positive), r2, bitwise=True)
    assert checks.check_round_trip(before, (nudged, positive), r2, bitwise=False) == []
    far = int(np.argmax(np.abs(dist - r2)))
    flipped = positive.copy()
    flipped[far] = not flipped[far]
    assert checks.check_round_trip(before, (dist, flipped), r2, bitwise=False)


def test_translation_check():
    x_train, x_test, _ = _blobs(9)
    method = parse_method("svdd-linear")
    model, _ = subsvdd.fit_occ_model(x_train, method, C=0.1)
    _, positive = model_store.predict(model, x_test)
    assert checks.check_translation(model, model, x_train, x_test, positive, positive) == []
    other, _ = subsvdd.fit_occ_model(x_train, method, C=0.3)
    _, other_positive = model_store.predict(other, x_test)
    problems = checks.check_translation(model, other, x_train, x_test, positive, other_positive)
    assert any("support vectors" in p for p in problems)
    assert any("flip" in p for p in problems)


def test_fit_counter_counts_raising_fits():
    x_train, _, _ = _blobs(1, n_train=10)
    with workloads.FitCounter() as fits:
        evaluate.fit_occ_model(x_train, parse_method("svdd-linear"), C=0.5)
        with pytest.raises(InfeasibleC):
            evaluate.fit_occ_model(x_train, parse_method("svdd-linear"), C=0.01)
    assert (fits.calls, fits.raised) == (2, 1)
    assert evaluate.fit_occ_model is pipeline.fit_occ_model


def test_tracer_records_self_time_and_restores():
    x_train, _, _ = _blobs(2, n_train=25)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        subsvdd.fit_occ_model(x_train, parse_method("nssvdd-linear-psi2-min"), C=0.1, d=2,
                              k_max=3)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["svdd.solve_dual"]["calls"] == 3
    assert summary["subspace.train"]["notes"] == [{"iters": 3}]
    assert all(entry["self_s"] >= 0.0 for entry in summary.values())
    assert tracing.PER_LAYER["svdd.solve_dual_n_mean"][1](summary) == 25
    assert subsvdd.fit_occ_model is pipeline.fit_occ_model
    assert evaluate.fit_occ_model is pipeline.fit_occ_model


def test_reduce_windows_scales_each_piece_by_its_reference():
    ref = workloads.REFERENCE_S
    # the first piece ran at half the reference speed in every window
    cells = {"a": [(1.0, 3, 2 * ref), (3.0, 3, 2 * ref), (1.2, 3, 2 * ref)],
             "b": [(0.5, 2, ref), (0.7, 2, ref), (0.6, 2, ref)]}
    assert workloads.reduce_windows("cell_s", cells) == pytest.approx((0.6 + 0.6) / 5)
    points = {"window": [(0.2, 1000, ref), (0.4, 1000, 2 * ref)]}
    assert workloads.reduce_windows("predict_pts_per_s", points) == pytest.approx(5000.0)
