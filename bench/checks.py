"""Checks of fitted models against computations made apart from the program.

Nothing here calls into subsvdd: distances, kernels, the dual's KKT conditions
and the Gmean are recomputed from their definitions with plain numpy. Every
check returns a list of problems (empty when it passes), so the runner can
count them and the tests can show that each one rejects a corrupted output.

The model is read only through ``model_view``, the one function that knows
which fields a trained model carries.
"""
from __future__ import annotations

import math

import numpy as np

# max |QQ' - I|; the package re-orthonormalizes Q by QR after every step
ORTH_TOL = 1e-10
# relative agreement of recomputed quantities that the program forms by the
# same arithmetic (projected data, center = Y alpha)
MATCH_TOL = 1e-10
# The dual solver stops when no pairwise exchange of alpha mass gains more
# than 1e-12 * max(1, max_i G_ii). The check recomputes the best exchange
# from the Gram matrix of the projected data and allows KKT_SLACK times that.
KKT_TOL = 1e-12
KKT_SLACK = 1e3
# a decision may differ from the recomputed one only for points whose
# recomputed squared distance lies within this share of R^2
BAND = 1e-9
# Phi'Phi against the centered kernel, and the eigen-equation, as a share of
# the largest eigenvalue: the basis drops eigenvalues below 1e-10 of it
KERNEL_TOL = 1e-9


def model_view(model):
    """The fields of a trained model that the checks read, as plain arrays."""
    desc = model.description
    view = {
        "q": np.asarray(model.q, dtype=np.float64),
        "alpha": np.asarray(desc.alpha.alpha, dtype=np.float64),
        "C": float(desc.alpha.C),
        "center": np.asarray(desc.center, dtype=np.float64),
        "radius_sq": float(desc.radius_sq),
        "sv": np.asarray(desc.sv_indices),
        "y_train": np.asarray(model.y_train, dtype=np.float64),
        "kernel": model.config["kernel"],
    }
    if model.npt is not None:
        view.update(
            sigma=float(model.npt.sigma),
            train_x=np.asarray(model.npt.train_x, dtype=np.float64),
            phi=np.asarray(model.npt.phi, dtype=np.float64),
            u_r=np.asarray(model.npt.u_r, dtype=np.float64),
            eigvals_r=np.asarray(model.npt.eigvals_r, dtype=np.float64),
        )
    return view


def rbf_kernel(a, b, sigma):
    """exp(-||a_i - b_j||^2 / (2 sigma^2)) from explicit differences."""
    diff = a[:, :, None] - b[:, None, :]
    return np.exp(-(diff * diff).sum(axis=0) / (2.0 * sigma * sigma))


def _centering(n):
    return np.eye(n) - np.full((n, n), 1.0 / n)


def _kernel_problems(view, x_train):
    """The rbf basis must be built on x_train and reproduce its centered kernel."""
    if view["train_x"].shape != x_train.shape or not np.array_equal(view["train_x"], x_train):
        return ["rbf basis was not built on the training data"]
    n = x_train.shape[1]
    h = _centering(n)
    k_hat = h @ rbf_kernel(x_train, x_train, view["sigma"]) @ h
    lam = view["eigvals_r"]
    scale = float(lam.max()) if lam.size else 0.0
    problems = []
    gram_err = float(np.abs(view["phi"].T @ view["phi"] - k_hat).max())
    if not gram_err <= KERNEL_TOL * scale:
        problems.append(f"Phi'Phi differs from the centered kernel by {gram_err:.3e} "
                        f"(largest eigenvalue {scale:.3e})")
    eig_err = float(np.abs(k_hat @ view["u_r"] - view["u_r"] * lam).max())
    if not eig_err <= KERNEL_TOL * scale:
        problems.append(f"retained eigenpairs miss the centered kernel by {eig_err:.3e}")
    return problems


def features(view, x_train, x):
    """The feature vectors the projection acts on, one column per point of x.

    Linear models use x itself. Rbf models use the definition
    phi(x) = A_r^{-1/2} U_r' k_hat(x), with the kernel vector k(x) against the
    training set centered by the training statistics.
    """
    if view["kernel"] != "rbf":
        return x
    n = x_train.shape[1]
    k_train_mean = rbf_kernel(x_train, x_train, view["sigma"]).mean(axis=1)
    k_star = rbf_kernel(x_train, x, view["sigma"]) - k_train_mean[:, None]
    k_hat = _centering(n) @ k_star
    return (view["u_r"].T @ k_hat) / np.sqrt(view["eigvals_r"])[:, None]


def squared_distances(q, feats, center):
    """||Q phi(x) - c||^2 for every column."""
    z = q @ feats - center[:, None]
    return (z * z).sum(axis=0)


def gmean(truth, positive):
    """sqrt(TPR * TNR) from a confusion count of the target class."""
    truth = np.asarray(truth, dtype=bool)
    positive = np.asarray(positive, dtype=bool)
    tp = int(np.count_nonzero(truth & positive))
    fn = int(np.count_nonzero(truth & ~positive))
    tn = int(np.count_nonzero(~truth & ~positive))
    fp = int(np.count_nonzero(~truth & positive))
    return math.sqrt(tp / (tp + fn) * tn / (tn + fp))


def best_exchange_gain(y, alpha, c_box):
    """Largest gain of the dual objective from moving mass t between two points.

    For moving t >= 0 from j to i the gain is num*t - den*t^2 with
    num = g_i - g_j (g the dual gradient) and den = ||y_i - y_j||^2, and t is
    bounded by alpha_j and C - alpha_i. The Gram matrix is formed from
    centered columns; the gains do not depend on the origin.
    """
    yc = y - y.mean(axis=1, keepdims=True)
    gram = yc.T @ yc
    diag = np.diag(gram)
    grad = diag - 2.0 * (gram @ alpha)
    num = grad[:, None] - grad[None, :]
    den = np.maximum(diag[:, None] + diag[None, :] - 2.0 * gram, 0.0)
    room = np.maximum(np.minimum(c_box - alpha[:, None], alpha[None, :]), 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(den > 0.0, np.minimum(num / (2.0 * den), room), room)
    t = np.where(num > 0.0, np.maximum(t, 0.0), 0.0)
    gain = num * t - den * t * t
    np.fill_diagonal(gain, 0.0)
    return float(gain.max())


def primal_optimum(dist, c_box):
    """min_R R + C sum_i max(0, d_i - R), the SVDD primal at a fixed center.

    The function is piecewise linear in R, so its minimum is reached at one
    of the squared distances d_i.
    """
    d = np.sort(dist)[::-1]
    above = np.cumsum(d) - d * np.arange(1, d.size + 1)  # sum_{i<=k} (d_i - d_k)
    return float((d + c_box * above).min())


def duality_gap(dist, alpha, c_box):
    """(P* - D, D) for the SVDD problem with the center fixed at Y alpha.

    ``dist`` holds the squared distances d_i of the training points to that
    center and D = sum_i a_i d_i is the dual value. Weak duality gives
    P* >= D, with equality exactly when alpha solves the dual.
    """
    dual = float(alpha @ dist)
    return primal_optimum(dist, c_box) - dual, dual


def check_model(model, x_train, x_test, decisions, truth=None, expected_gmean=None):
    """Check one trained model and its decisions on x_test.

    ``decisions`` are the program's positive/negative labels for the columns
    of ``x_test``. When ``truth`` is given, the Gmean is recomputed from them;
    when ``expected_gmean`` is given too, it must match. Returns (problems,
    gmean or None, info) where info holds the KKT gap in units of the solver's
    tolerance, and, reported but not checked, the relative duality gap and how
    far R^2 is from the primal-optimal radius.
    """
    view = model_view(model)
    problems = []
    q, alpha, c_box = view["q"], view["alpha"], view["C"]

    orth = float(np.abs(q @ q.T - np.eye(q.shape[0])).max())
    if not orth <= ORTH_TOL:
        problems.append(f"QQ' deviates from I by {orth:.3e}")

    if view["kernel"] == "rbf":
        problems += _kernel_problems(view, x_train)
        train_feats = view["phi"]
    else:
        train_feats = x_train
    y = q @ train_feats
    y_scale = max(1.0, float(np.abs(y).max()))
    if view["y_train"].shape != y.shape or not (
        float(np.abs(view["y_train"] - y).max()) <= MATCH_TOL * y_scale
    ):
        problems.append("stored training projections differ from Q phi(X)")

    if alpha.shape != (y.shape[1],):
        return problems + [f"alpha has shape {alpha.shape}, expected ({y.shape[1]},)"], None, {}
    if not (abs(alpha.sum() - 1.0) <= 1e-9 and alpha.min() >= -1e-12
            and alpha.max() <= c_box * (1.0 + 1e-12)):
        problems.append("alpha is not feasible (sum 1, 0 <= alpha <= C)")

    center = y @ alpha
    if not float(np.abs(center - view["center"]).max()) <= MATCH_TOL * y_scale:
        problems.append("center differs from Y alpha")

    kkt_scale = KKT_TOL * max(1.0, float((y * y).sum(axis=0).max()))
    kkt = best_exchange_gain(y, alpha, c_box) / kkt_scale
    if not kkt <= KKT_SLACK:
        problems.append(f"dual KKT gap {kkt:.3e} times the solver's tolerance")
    dist = squared_distances(q, train_feats, center)
    gap, dual = duality_gap(dist, alpha, c_box)
    r2 = view["radius_sq"]

    d_test = squared_distances(q, features(view, x_train, x_test), center)
    own = d_test <= r2
    band = np.abs(d_test - r2) <= BAND * r2
    decisions = np.asarray(decisions, dtype=bool)
    wrong = int(np.count_nonzero((own != decisions) & ~band))
    if wrong:
        problems.append(f"{wrong} of {own.size} decisions disagree with ||Q phi(x) - c||^2 <= R^2")

    score = None
    if truth is not None:
        score = gmean(truth, np.where(band, decisions, own))
        if expected_gmean is not None and not abs(score - expected_gmean) <= 1e-12:
            problems.append(f"reported Gmean {expected_gmean!r} != recomputed {score!r}")
    info = {"kkt": kkt, "gap": gap / dual,
            "radius_excess": radius_excess(dist, c_box, r2) / dual}
    return problems, score, info


def radius_excess(dist, c_box, r2):
    """How far R^2 is from optimal for the primal at the model's center."""
    return r2 + c_box * float(np.maximum(dist - r2, 0.0).sum()) - primal_optimum(dist, c_box)


def check_round_trip(before, after, radius_sq, bitwise):
    """Predictions of a model and of its saved-and-loaded copy.

    With ``bitwise`` the (distance_sq, positive) pairs must be bit-identical;
    otherwise the decisions must agree except within the band of R^2.
    """
    d1, p1 = (np.asarray(v) for v in before)
    d2, p2 = (np.asarray(v) for v in after)
    if d1.shape != d2.shape or p1.shape != p2.shape:
        return ["predictions changed shape across save/load"]
    if bitwise:
        if d1.dtype != d2.dtype or d1.tobytes() != d2.tobytes() or p1.tobytes() != p2.tobytes():
            return ["predictions are not bit-identical across save/load"]
        return []
    band = np.abs(d1 - radius_sq) <= BAND * radius_sq
    flips = int(np.count_nonzero((p1 != p2) & ~band))
    return [f"{flips} decisions changed across save/load"] if flips else []


def check_translation(model, shifted, x_train, x_test, decisions, shifted_decisions):
    """A fit on data moved by a constant offset must describe the same set.

    SVDD's dual and decision do not depend on the origin, so the support
    vectors must coincide and every decision must agree, except for points
    within the band of R^2. ``shifted`` was fitted on x_train + o and asked
    about x_test + o.
    """
    view, moved = model_view(model), model_view(shifted)
    problems = []
    if not np.array_equal(np.sort(view["sv"]), np.sort(moved["sv"])):
        problems.append(f"support vectors differ: {view['sv'].size} vs {moved['sv'].size}")
    center = view["q"] @ features(view, x_train, x_train) @ view["alpha"]
    d_test = squared_distances(view["q"], features(view, x_train, x_test), center)
    band = np.abs(d_test - view["radius_sq"]) <= BAND * view["radius_sq"]
    flips = int(np.count_nonzero((np.asarray(decisions) != np.asarray(shifted_decisions)) & ~band))
    if flips:
        problems.append(f"{flips} of {d_test.size} decisions flip under translation")
    return problems
