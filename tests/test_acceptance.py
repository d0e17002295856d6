"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL lines as
they happen (they are also echoed in the terminal summary via conftest).
Criterion 8 needs real datasets: Iris is materialized from scikit-learn when
available; Seeds is looked for at data/seeds.csv (see README) and skipped
otherwise.
"""
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES, make_blobs
from oracles import (
    core_matrix,
    dual_objective,
    fd_gradient,
    fd_hessian,
    hessian_full,
    random_instance,
    simplex_grid_max,
    true_curvature,
)

from subsvdd.data import DataSet, load_csv
from subsvdd.evaluate import run_benchmark
from subsvdd.metrics import confusion_from_labels, gmean
from subsvdd.model_store import predict
from subsvdd.pipeline import MethodSpec, fit_occ_model
from subsvdd.subspace import (
    TrainConfig,
    gradient,
    hessian_core,
    support_block,
    train,
    update_step,
)
from subsvdd.svdd import describe, solve_dual

REPO = Path(__file__).resolve().parent.parent


def report(line):
    ACCEPTANCE_LINES.append(line)
    print(line)


def test_criterion_1_gradient_matches_finite_differences():
    t0 = time.perf_counter()
    kinds = (0, 1, 2, 3)
    betas = (0.1, 1.0, 10.0)
    worst = 0.0
    for i in range(50):
        d = 1 + i % 3
        big_d = 2 + i % 5
        n = 3 + i % 8
        d = min(d, big_d)
        q, x, alpha, lam = random_instance(
            seed=1000 + i, d=d, big_d=big_d, n=n, reg=kinds[i % 4], beta=betas[i % 3]
        )
        beta = betas[i % 3]
        g = gradient(q, support_block(x, alpha.alpha, lam), beta)
        fd = fd_gradient(q, x, alpha.alpha, lam, beta)
        rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12)
        worst = max(worst, rel)
        assert rel <= 1e-5
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(
        f"ACCEPTANCE 1 PASS gradient vs central differences on 50 instances "
        f"(worst rel {worst:.2e}, {elapsed:.1f}s)"
    )


def test_criterion_2_hessian_structure_and_curvature():
    t0 = time.perf_counter()
    worst_assembly = 0.0
    worst_fd = 0.0
    sizes = [(2, 5, 8), (3, 10, 12), (2, 20, 15), (4, 25, 20), (5, 40, 30)] * 4
    for i, (d, big_d, n) in enumerate(sizes[:20]):
        assert d * big_d <= 200
        beta = (0.1, 1.0, 10.0)[i % 3]
        q, x, alpha, lam = random_instance(
            seed=2000 + i, d=d, big_d=big_d, n=n, reg=(1, 2)[i % 2], beta=beta
        )
        b = core_matrix(x, alpha.alpha, lam)
        full = hessian_full(x, alpha.alpha, lam, d=d)
        dev = np.abs(np.kron(np.eye(d), b) - full).max()
        worst_assembly = max(worst_assembly, dev)
        assert dev <= 1e-12
        # the true curvature of the beta-weighted objective (the gradient
        # always carries beta) is the core plus 2 (beta - 1)(X lam)(X lam)'
        fd = fd_hessian(q, x, alpha.alpha, lam, beta)
        analytic = np.kron(np.eye(d), true_curvature(x, alpha.alpha, lam, beta))
        rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-12)
        worst_fd = max(worst_fd, rel)
        assert rel <= 1e-4
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(
        f"ACCEPTANCE 2 PASS Hessian: kron structure vs literal assembly "
        f"(worst {worst_assembly:.1e}) and vs gradient differences "
        f"(worst rel {worst_fd:.1e}, {elapsed:.1f}s)"
    )


def test_criterion_3_newton_degeneracy_identity():
    worst = 0.0
    for seed in range(10):
        q, x, alpha, lam = random_instance(
            seed=3000 + seed, d=2, big_d=4, n=14, reg=2, beta=1.0, c=0.15
        )
        block = support_block(x, alpha.alpha, lam)
        m = hessian_core(block)
        assert np.linalg.matrix_rank(m) == m.shape[0]
        eta = 0.07
        for direction, scale in (("min", 1 - eta), ("max", 1 + eta)):
            cfg = TrainConfig(MethodSpec("nssvdd", "linear", 2, direction), d=2, C=0.15,
                              beta=1.0, eta=eta)
            raw = update_step(q, block, cfg)
            dev = np.abs(raw - scale * q).max()
            worst = max(worst, dev)
            assert dev <= 1e-8
    report(
        f"ACCEPTANCE 3 PASS full-rank Newton update at beta = 1 equals (1 -+ eta)Q "
        f"(worst dev {worst:.1e})"
    )


def test_criterion_4_dual_optimality_against_grid_oracle():
    t0 = time.perf_counter()
    cases = [(2, 1.0, 40), (3, 0.5, 41), (4, 0.5, 42), (4, 0.3, 43), (5, 0.21, 44)]
    for n, c, seed in cases:
        gen = np.random.default_rng(seed)
        y = gen.standard_normal((2, n))
        gram = y.T @ y
        av = solve_dual(y.T, c)
        got = dual_objective(gram, av.alpha)
        oracle = simplex_grid_max(gram, c, step=1e-3)
        assert got >= oracle - 1e-5
        # KKT complementarity at the solution
        desc = describe(av, y)
        dist = ((y - desc.center[:, None]) ** 2).sum(axis=0)
        slack = 1e-6 * (1.0 + desc.radius_sq)
        eps = 1e-6 * c
        assert np.all(dist[av.alpha <= eps] <= desc.radius_sq + slack)
        assert np.all(dist[av.alpha >= c - eps] >= desc.radius_sq - slack)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(
        f"ACCEPTANCE 4 PASS dual solver vs exhaustive simplex grid on N<=5 "
        f"({elapsed:.1f}s)"
    )


def test_criterion_5_npt_reconstruction_and_test_pipeline():
    from subsvdd.kernel import build_npt, npt_map

    worst_rec = 0.0
    worst_map = 0.0
    gen = np.random.default_rng(55)
    for n in (20, 100):
        for sigma in (0.1, 1.0, 10.0, 100.0, 1000.0):
            x = gen.standard_normal((6, n))
            basis = build_npt(x, sigma)
            k_hat = basis.phi.T @ basis.phi
            from subsvdd.kernel import center_kernel, rbf_kernel

            ref = center_kernel(rbf_kernel(x, sigma))
            rel = np.linalg.norm(k_hat - ref) / np.linalg.norm(ref)
            worst_rec = max(worst_rec, rel)
            assert rel <= 1e-8
            dev = np.abs(npt_map(x, basis) - basis.phi).max()
            worst_map = max(worst_map, dev)
            assert dev <= 1e-6
    report(
        f"ACCEPTANCE 5 PASS kernel eigenmap reconstruction (worst rel "
        f"{worst_rec:.1e}) and train-point round trip (worst {worst_map:.1e})"
    )


def test_criterion_6_projection_orthonormal_every_iteration():
    gen = np.random.default_rng(66)
    x = gen.standard_normal((6, 30))
    worst = 0.0
    for optimizer in ("gradient", "newton"):
        for direction in ("min", "max"):
            for psi in (0, 1, 2, 3):
                family = {"gradient": "ssvdd", "newton": "nssvdd"}[optimizer]
                cfg = TrainConfig(
                    MethodSpec(family, "linear", psi, direction),
                    d=3, C=0.2, beta=10.0, eta=0.01, k_max=8, seed=5,
                )
                fit = train(x, cfg)
                worst = max(worst, max(t.orth_error for t in fit.trace))
    assert worst <= 1e-10
    report(
        f"ACCEPTANCE 6 PASS QQ' = I after every iteration, all optimizers/"
        f"directions/regularizers (worst dev {worst:.1e})"
    )


def test_criterion_7_synthetic_end_to_end():
    t0 = time.perf_counter()
    target, outlier = make_blobs(seed=7, n_target=90, n_outlier=60, dim=5, shift=8.0)
    x_train = target[:, :60]
    x_test = np.hstack([target[:, 60:], outlier])
    truth = np.array([True] * 30 + [False] * 60)

    ns = MethodSpec(family="nssvdd", kernel="linear", psi=2, direction="min")
    model, _ = fit_occ_model(
        x_train, ns, C=0.3, d=2, beta=10.0, eta=0.01, k_max=20, seed=42
    )
    _, pos = predict(model, x_test)
    g_ns = gmean(confusion_from_labels(truth, pos))
    assert g_ns >= 0.95

    plain = MethodSpec(family="svdd", kernel="linear")
    model2, _ = fit_occ_model(x_train, plain, C=0.3, seed=42)
    _, pos2 = predict(model2, x_test)
    g_plain = gmean(confusion_from_labels(truth, pos2))
    assert g_plain >= 0.90
    elapsed = time.perf_counter() - t0
    assert elapsed < 20.0
    report(
        f"ACCEPTANCE 7 PASS synthetic blobs: NS-psi2-min Gmean {g_ns:.3f} >= 0.95, "
        f"plain SVDD {g_plain:.3f} >= 0.90 ({elapsed:.1f}s)"
    )


def _iris_dataset():
    try:
        from sklearn.datasets import load_iris
    except ImportError:
        return None
    iris = load_iris()
    features = np.asarray(iris.data, dtype=np.float64).T
    labels = np.array([str(iris.target_names[t]) for t in iris.target], dtype=object)
    return DataSet(
        features=features,
        labels=labels,
        class_names=sorted(set(labels)),
        name="iris",
    )


def test_criterion_8a_iris_linear_svdd_reproduction():
    ds = _iris_dataset()
    if ds is None:
        report("ACCEPTANCE 8a SKIP Iris data unavailable (scikit-learn not installed)")
        pytest.skip("iris data unavailable")
    t0 = time.perf_counter()
    reportt = run_benchmark([ds], ["svdd-linear"], repetitions=5, seed=42, k=5)
    per_class = [
        reportt.mean_gmean("iris", cls, "svdd-linear") for cls in ds.class_names
    ]
    avg = float(np.mean(per_class))
    elapsed = time.perf_counter() - t0
    ok = abs(avg - 0.91) <= 0.07
    line = (
        f"ACCEPTANCE 8a {'PASS' if ok else 'FAIL'} Iris linear SVDD mean Gmean "
        f"{avg:.3f} vs reported 0.91 +- 0.07 ({elapsed:.0f}s; per class "
        + ", ".join(f"{c}={v:.2f}" for c, v in zip(ds.class_names, per_class))
        + ")"
    )
    report(line)
    assert ok
    assert elapsed < 900.0


def test_criterion_8b_seeds_nssvdd_psi2_min_reproduction():
    path = REPO / "data" / "seeds.csv"
    if not path.exists():
        report(
            "ACCEPTANCE 8b SKIP Seeds dataset not found at data/seeds.csv "
            "(see README for download instructions)"
        )
        pytest.skip("seeds.csv not present")
    ds = load_csv(path, has_header=False, label_column="last", name="seeds")
    assert ds.n_features == 7 and ds.n_samples == 210 and len(ds.class_names) == 3
    t0 = time.perf_counter()
    reportt = run_benchmark(
        [ds], ["nssvdd-linear-psi2-min"], repetitions=5, seed=42, k=5, k_max=10, jobs=2
    )
    per_class = [
        reportt.mean_gmean("seeds", cls, "nssvdd-linear-psi2-min")
        for cls in ds.class_names
    ]
    avg = float(np.mean(per_class))
    elapsed = time.perf_counter() - t0
    ok = abs(avg - 0.90) <= 0.07
    line = (
        f"ACCEPTANCE 8b {'PASS' if ok else 'FAIL'} Seeds NS-SVDD psi2-min mean "
        f"Gmean {avg:.3f} vs reported 0.90 +- 0.07 ({elapsed:.0f}s; per class "
        + ", ".join(f"{c}={v:.2f}" for c, v in zip(ds.class_names, per_class))
        + ")"
    )
    report(line)
    assert ok
    assert elapsed < 900.0


def test_criterion_9_byte_identical_reruns(tmp_path):
    from subsvdd.cli import main

    gen = np.random.default_rng(9)
    rows = []
    for v in gen.standard_normal((40, 4)):
        rows.append(",".join(str(x) for x in v) + ",target")
    for v in gen.standard_normal((30, 4)) + 7.0:
        rows.append(",".join(str(x) for x in v) + ",other")
    data = tmp_path / "d.csv"
    data.write_text("\n".join(rows) + "\n")

    model_bytes = []
    for name in ("m1.json", "m2.json"):
        out = tmp_path / name
        assert main(
            ["train", "--data", str(data), "--target-class", "target",
             "--out", str(out), "--method", "nssvdd", "--psi", "2",
             "--dim", "2", "--C", "0.3", "--beta", "10", "--iters", "5",
             "--seed", "3"]
        ) == 0
        model_bytes.append(out.read_bytes())
    assert model_bytes[0] == model_bytes[1]

    import json

    cfg = {
        "datasets": [{"path": str(data), "name": "blobs", "label_column": "last"}],
        "methods": ["svdd-linear", "ssvdd-linear-psi1-min"],
        "repetitions": 2,
        "seed": 5,
        "iters": 3,
        "kfolds": 3,
        "grid": {"beta": [1.0], "C": [0.3, 0.5], "sigma": [1.0], "d": [2], "eta": [0.01]},
    }
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps(cfg))
    bench_bytes = []
    for name in ("r1.csv", "r2.csv"):
        out = tmp_path / name
        assert main(
            ["benchmark", "--config", str(cfg_path), "--out-csv", str(out),
             "--out-table", str(tmp_path / (name + ".txt"))]
        ) == 0
        bench_bytes.append(out.read_bytes())
    assert bench_bytes[0] == bench_bytes[1]

    trace_bytes = []
    for name in ("t1.csv", "t2.csv"):
        out = tmp_path / name
        assert main(
            ["trace", "--data", str(data), "--target-class", "target",
             "--method", "nssvdd", "--psi", "2", "--dim", "2", "--C", "0.3",
             "--beta", "10", "--iters", "4", "--splits", "2", "--seed", "11",
             "--out", str(out)]
        ) == 0
        trace_bytes.append(out.read_bytes())
    assert trace_bytes[0] == trace_bytes[1]
    report("ACCEPTANCE 9 PASS train/benchmark/trace reruns are byte-identical")
