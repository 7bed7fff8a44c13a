"""Scalar reference formulas the vectorized package code is checked against."""

import itertools
from dataclasses import fields

import numpy as np

from blsbench import if_scores, linalg, network, stats, trainer
from blsbench.errors import BlsBenchError, ClassBalanceError, ConfigError
from blsbench.fuzzy import DEFAULT_DELTA
from blsbench.linalg import as_matrix

# Negative radicands larger than this are an invalid kernel, not rounding.
RADICAND_TOL = 1e-12


class InvalidKernel(BlsBenchError, ValueError):
    """Kernel values are inconsistent with a positive-semidefinite kernel."""


def kernel_distance(k_rr: float, k_ll: float, k_rl: float) -> float:
    """RKHS distance between two points from their three kernel values."""
    radicand = k_rr + k_ll - 2.0 * k_rl
    if radicand < -RADICAND_TOL:
        raise InvalidKernel(
            f"negative squared kernel distance {radicand}; kernel is not PSD"
        )
    return float(np.sqrt(max(radicand, 0.0)))


def fuzzy_membership(x, label: int, X, labels, delta: float) -> float:
    """Membership of a single sample x of class label (+1 or -1) in the
    training set (X, labels): 1 - dist_to_own_center / (radius + delta),
    where the center is the class mean and the radius the largest member
    distance to it."""
    if delta <= 0:
        raise ConfigError(f"delta must be positive, got {delta!r}")
    if label not in (1, -1):
        raise ConfigError(f"label must be +1 or -1, got {label!r}")
    members = as_matrix(X, "X")[np.asarray(labels) == label]
    if members.shape[0] == 0:
        raise ClassBalanceError(f"class {label} has no samples")
    center = members.sum(axis=0) / members.shape[0]
    radius = max(float(np.linalg.norm(m - center)) for m in members)
    dist = float(np.linalg.norm(np.asarray(x, dtype=np.float64).ravel() - center))
    return 1.0 - dist / (radius + delta)


def signed_labels(labels) -> np.ndarray:
    """A +/-1 label sequence holding both classes, as an int array."""
    t = np.asarray(labels)
    if t.ndim != 1 or not np.isin(t, (-1, 1)).all():
        raise ConfigError("labels must be a flat sequence of +1 and -1")
    if not ((t == 1).any() and (t == -1).any()):
        raise ClassBalanceError("both classes must have at least one sample")
    return t.astype(np.int64)


def sigmoid(z):
    with np.errstate(over="ignore"):  # exp(-z) overflows to inf below about -709
        return 1.0 / (1.0 + np.exp(-z))


# The activations by name, as textbook formulas on fresh arrays.
ACTIVATIONS = {"linear": lambda z: z, "tanh": np.tanh, "sigmoid": sigmoid,
               "relu": lambda z: np.maximum(z, 0.0)}


def ridge_objective(G, S, T, c_reg: float, W) -> float:
    """Value of the weighted ridge objective (C/2)||S(GW - T)||^2 + ||W||^2/2."""
    resid = np.asarray(S)[:, None] * (G @ W - T)
    return 0.5 * c_reg * float(np.sum(resid * resid)) + 0.5 * float(np.sum(W * W))


def scipy_solve(A, rhs, c_reg: float, branch: str, G):
    """The ridge solve as scipy.linalg runs it on A + I/C: cho_factor and
    cho_solve on the primal, lu_factor and lu_solve mapped back through G
    on the dual. The reference of the direct LAPACK calls."""
    import scipy.linalg

    a = A.copy()
    a[np.diag_indices_from(a)] += 1.0 / c_reg
    if branch == "primal":
        return scipy.linalg.cho_solve(scipy.linalg.cho_factor(a, lower=True, check_finite=False),
                                      rhs, check_finite=False)
    return G.T @ scipy.linalg.lu_solve(scipy.linalg.lu_factor(a, check_finite=False), rhs,
                                       check_finite=False)


def fit_w_out(X, labels, cfg):
    """fit's output weights composed from fresh arrays: the matrix the ridge
    step solves on, then the whole system, U' (S^2 U) on the primal or
    S^2 (U U') on the dual, then scipy_solve; every step at one BLAS thread,
    as fit runs. Under a linear feature map of m*p > d+1 columns U is
    [Z, act(Z (Q' We_j) + be_j)] with Z = Xn R'[:d] + R'[d], from
    scipy.linalg's thin QR Wf' = Q R of the feature weights stacked over
    their biases, and the solution b is mapped back to [Q b1; b2], b1 its
    first k rows; otherwise U is the state matrix G."""
    import scipy.linalg

    with linalg._single_threaded_blas():
        Xn, _, classes, indices = trainer._prepare(X, labels, cfg.variant)
        s = trainer._sample_weights(Xn, indices, cfg)
        s2 = s * s
        layer = network.init_random_layer(cfg.network, Xn.shape[1])
        d, net = Xn.shape[1], cfg.network
        if net.feature_activation == "linear" and net.m * net.p > d + 1:
            act = ACTIVATIONS[net.enhancement_activation]
            Wf = np.vstack((np.hstack(layer.feature_weights), np.hstack(layer.feature_biases)))
            Q, R = scipy.linalg.qr(Wf.T, mode="economic")
            Z = Xn @ R.T[:d] + R.T[d:]
            U = np.hstack([Z] + [act(Z @ (Q.T @ W) + b) for W, b in
                                 zip(layer.enhancement_weights, layer.enhancement_biases)])
        else:
            Q, U = None, network._forward(layer, Xn)
        T = np.eye(len(classes))[indices]
        if trainer._solve_branch(U.shape[1], U.shape[0]) == "primal":
            b = scipy_solve(U.T @ (s2[:, None] * U), U.T @ (s2[:, None] * T), cfg.c_reg,
                            "primal", U)
        else:
            b = scipy_solve(s2[:, None] * (U @ U.T), s2[:, None] * T, cfg.c_reg, "dual", U)
        return b if Q is None else np.vstack((Q @ b[:Q.shape[1]], b[Q.shape[1]:]))


def svd_ridge(G, s, T, c_reg):
    """The weighted ridge solution on the full state matrix G by the SVD of
    S G = U diag(sigma) V': V diag(sigma / (sigma^2 + 1/C)) U' S T, with no
    normal equations formed."""
    u, sigma, vt = np.linalg.svd(s[:, None] * G, full_matrices=False)
    return vt.T @ ((sigma / (sigma * sigma + 1.0 / c_reg))[:, None] * (u.T @ (s[:, None] * T)))


def pairwise_sq_dist(A, B):
    """Squared row distances by the ||a||^2 + ||b||^2 - 2 a.b expansion, with
    every pair at or below the fix-up tolerance recomputed directly, the
    diagonal of (A, A) included."""
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    a2 = np.einsum("ij,ij->i", A, A)
    b2 = np.einsum("ij,ij->i", B, B)
    d2 = a2[:, None] + b2[None, :] - 2.0 * (A @ B.T)
    np.maximum(d2, 0.0, out=d2)
    tol = 16.0 * np.finfo(np.float64).eps * (a2[:, None] + b2[None, :])
    for i, j in zip(*np.nonzero(d2 <= tol)):
        diff = A[i] - B[j]
        d2[i, j] = diff @ diff
    return d2


def gaussian_kernel(A, B, mu: float):
    """K(a, b) = exp(-||a - b||^2 / mu^2) on pairwise_sq_dist above."""
    return np.exp(-pairwise_sq_dist(A, B) / (mu * mu))


# --- step-by-step IF scoring ----------------------------------------------
#
# The IF-BLS pipeline as a chain of separately checked steps, each taking
# the full kernel matrix and sharing no code with the package's kernel or
# scoring; the kernel is gaussian_kernel above. The geometry steps accept
# any PSD kernel (criterion 6 feeds them a linear one) and read its
# diagonal, where the package relies on the Gaussian unit diagonal.
# if_scores._score_vector must match the pipeline exactly.


def center_sq_dists(K, mask):
    """Squared RKHS distance of every masked sample to its class centroid."""
    n = int(mask.sum())
    block = K[np.ix_(mask, mask)]
    center_sq = block.sum() / (n * n)
    cross = block.sum(axis=1) / n
    sq = np.diag(K)[mask] + center_sq - 2.0 * cross
    if sq.min() < -RADICAND_TOL:
        raise InvalidKernel(
            f"negative squared center distance {sq.min()}; kernel is not PSD"
        )
    return np.maximum(sq, 0.0)


def kernel_pairwise_distances(K):
    """All pairwise RKHS distances from a full kernel matrix."""
    K = as_matrix(K, "K")
    if K.shape[0] != K.shape[1]:
        raise ConfigError("kernel matrix must be square")
    diag = np.diag(K)
    sq = diag[:, None] + diag[None, :] - 2.0 * K
    if sq.min() < -RADICAND_TOL:
        raise InvalidKernel(
            f"negative squared kernel distance {sq.min()}; kernel is not PSD"
        )
    np.maximum(sq, 0.0, out=sq)
    np.fill_diagonal(sq, 0.0)
    return np.sqrt(sq)


def kernel_class_radii(K, labels):
    """Max RKHS distance of each class member to its class centroid."""
    K = as_matrix(K, "K")
    t = signed_labels(labels)
    if K.shape[0] != K.shape[1] or K.shape[0] != t.shape[0]:
        raise ConfigError("kernel matrix must be N x N matching the labels")
    radii = []
    for sign in (1, -1):
        mask = t == sign
        if not mask.any():
            raise ClassBalanceError("both classes must have at least one sample")
        radii.append(float(np.sqrt(center_sq_dists(K, mask).max())))
    return radii[0], radii[1]


def kernel_membership(K, labels, radii, delta=DEFAULT_DELTA):
    """Membership per sample: 1 - centroid_distance / (class_radius + delta)."""
    if delta <= 0:
        raise ConfigError(f"delta must be positive, got {delta!r}")
    K = as_matrix(K, "K")
    t = signed_labels(labels)
    r_pos, r_neg = radii
    theta = np.empty(t.shape[0])
    for sign, radius in ((1, r_pos), (-1, r_neg)):
        mask = t == sign
        if not mask.any():
            raise ClassBalanceError("both classes must have at least one sample")
        dist = np.sqrt(center_sq_dists(K, mask))
        theta[mask] = 1.0 - dist / (radius + delta)
    return theta


def non_membership(K, labels, theta, epsilon):
    """(hetero_ratio, non_membership): opposite-class share of each
    epsilon-neighborhood, and (1 - theta) times that share."""
    if not (np.isfinite(epsilon) and epsilon >= 0):
        raise ConfigError(f"epsilon must be nonnegative, got {epsilon!r}")
    K = as_matrix(K, "K")
    t = signed_labels(labels)
    theta = np.asarray(theta, dtype=np.float64).ravel()
    dists = kernel_pairwise_distances(K)
    within = dists <= epsilon
    different = t[:, None] != t[None, :]
    hetero = (within & different).sum(axis=1) / within.sum(axis=1)
    return hetero, (1.0 - theta) * hetero


def resolve_epsilon(K, policy):
    """Turn an epsilon policy into a concrete value for this kernel matrix."""
    if isinstance(policy, str):
        if policy != if_scores.MEDIAN_HEURISTIC:
            raise ConfigError(f"unknown epsilon policy {policy!r}")
        dists = kernel_pairwise_distances(K)
        iu = np.triu_indices(dists.shape[0], k=1)
        if iu[0].size == 0:
            return 0.0
        return float(np.median(dists[iu]))
    return float(policy)


def if_score(theta: float, theta_tilde: float) -> float:
    """Combine membership and non-membership into one weight."""
    if not (0.0 <= theta <= 1.0 and 0.0 <= theta_tilde <= 1.0):
        raise ConfigError("theta and theta_tilde must lie in [0, 1]")
    if theta + theta_tilde > 1.0 + 1e-12:
        raise ConfigError("theta + theta_tilde must not exceed 1")
    if theta_tilde == 0.0:
        return theta
    if theta <= theta_tilde:
        return 0.0
    return (1.0 - theta_tilde) / (2.0 - theta - theta_tilde)


def if_score_vector(X, labels, params):
    """Reference pipeline: kernel, radii, membership, epsilon,
    non-membership, then the scalar score rule per sample."""
    X = as_matrix(X, "X")
    t = signed_labels(labels)
    K = gaussian_kernel(X, X, params.mu)
    radii = kernel_class_radii(K, t)
    theta = kernel_membership(K, t, radii, params.delta)
    np.clip(theta, 0.0, 1.0, out=theta)
    epsilon = resolve_epsilon(K, params.epsilon)
    hetero, theta_tilde = non_membership(K, t, theta, epsilon)
    scores = np.array([if_score(th, tt) for th, tt in zip(theta, theta_tilde)])
    return scores, if_scores.IFScoreBreakdown(
        membership=theta,
        non_membership=theta_tilde,
        hetero_ratio=hetero,
        score=scores,
        epsilon_used=epsilon,
    )


def configs_by_flat(grid, variant, seed):
    """stats.GridSpec.configs as one ModelConfig.from_flat per grid point, over
    the flat keys that apply to the variant, c_reg outermost: the reference
    that building each network and weighting once reproduces."""
    applies = trainer.ModelConfig(variant).to_flat()
    keys = [f.name for f in fields(grid) if f.name in applies]
    return [trainer.ModelConfig.from_flat({"variant": variant, "seed": seed,
                                           **dict(zip(keys, point))})
            for point in itertools.product(*(getattr(grid, k) for k in keys))]


def cross_validate_by_fit(ds, cfg, plan):
    """stats.cross_validate as one trainer.fit and trainer.accuracy per fold:
    the reference that the network-major engine reproduces exactly."""
    return grid_search_by_fit(ds, [cfg], plan)[0]


def grid_search_by_fit(ds, configs, plan):
    """Each config's CvResult from one trainer.fit and trainer.accuracy per
    fold and config, run in the engine's cell order: network by network in
    the order of their first appearance, per fold, the network's configs by
    the first appearance of their weighting among them, then enumeration
    index. The first error raises there; a ClassBalanceError skips the fold.
    (The engine builds every fold and then every weight vector before any
    cell, so their errors raise first, in fold and then weighting order;
    this loop meets them at their first fit. The two agree on a run with
    one failure, or whose failures all happen in cells.)"""
    first_weighting, networks = {}, {}
    for i, cfg in enumerate(configs):
        first_weighting.setdefault((cfg.network, cfg.delta, cfg.kernel), i)
        networks.setdefault(cfg.network, []).append(i)
    outcomes = [[None] * plan.k for _ in configs]
    for net, group in networks.items():
        group.sort(key=lambda i: (first_weighting[net, configs[i].delta, configs[i].kernel], i))
        for fold in range(plan.k):
            train, test = plan.train_indices(fold), plan.test_indices(fold)
            for i in group:
                try:
                    model = trainer.fit(ds.X[train], [ds.labels[j] for j in train], configs[i])
                except ClassBalanceError as exc:
                    outcomes[i][fold] = exc
                    continue
                outcomes[i][fold] = trainer.accuracy(
                    model, ds.X[test], [ds.labels[j] for j in test])
    return [_cv_result(ds.name, cfg, row) for cfg, row in zip(configs, outcomes)]


def _cv_result(name, cfg, outcomes):
    """A config's CvResult from its fold accuracies and skipping ClassBalanceErrors."""
    per_fold, skipped, reasons = [], [], []
    for fold, outcome in enumerate(outcomes):
        if isinstance(outcome, ClassBalanceError):
            skipped.append(f"fold {fold} of {name!r} skipped: {outcome}")
            reasons.append(str(outcome))
            outcome = None
        per_fold.append(outcome)
    present = [a for a in per_fold if a is not None]
    if not present:
        raise ClassBalanceError(
            f"every fold of {name!r} was degenerate for {cfg.variant}: "
            + "; ".join(dict.fromkeys(reasons))
        )
    return stats.CvResult(
        per_fold_accuracy=tuple(per_fold),
        mean_accuracy=float(np.mean(present)),
        std_dev=float(np.std(present, ddof=1)) if len(present) > 1 else 0.0,
        best_config=cfg,
        skipped=tuple(skipped),
    )
