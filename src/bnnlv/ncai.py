"""Noise-constrained inference: penalties that keep the latent posterior
means distributed like the latent prior instead of memorizing the data.

Three differentiable penalties act on the matrix of variational means
(never on samples, never on the scales): a multivariate-normality
statistic, the off-diagonal mass of the empirical covariance, and mean
absolute Pearson correlation against inputs and targets. The first and
last enter as hinges above their values on prior draws (exact penalties),
so the objective is the negative ELBO wherever those constraints hold.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from . import vi as vi_mod
from .diffcore import Architecture
from .exceptions import ConfigError
from .model import log_joint

_HZ_RIDGE = 1e-6  # hz_statistic's covariance ridge, relative to the mean variance
_HZ_CHUNK = 64  # rows of the pairwise kernel hz_statistic holds at once


@dataclass(frozen=True)
class NcaiConfig:
    """Penalty weights for the constrained objective: each hinge enters as lambda / eps."""

    lambda1: float = 1.0
    lambda2: float = 10.0
    lambda3: float = 1.0
    eps_t: float = 0.01
    eps_x: float = 0.5
    eps_y: float = 0.1

    def __post_init__(self):
        for name in ("lambda1", "lambda2", "lambda3"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        for name in ("eps_t", "eps_x", "eps_y"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be finite and > 0, got {getattr(self, name)}")

    @property
    def penalty_free(self):
        return self.lambda1 == 0.0 and self.lambda2 == 0.0 and self.lambda3 == 0.0


def _hinge(u):
    """max(0, u), with a zero subgradient at u = 0 (``sqrt``'s convention)."""
    return dc.mul(u, 1.0 if float(dc._val(u)) > 0.0 else 0.0)


def hz_constants(n, p):
    """(b^2, m0) of ``hz_statistic`` on n rows of p columns: the squared smoothing
    bandwidth, and the statistic's mean under normality (Henze & Zirkler, 1990)."""
    b2 = (((2 * p + 1) / 4.0) ** (1.0 / (p + 4)) * n ** (1.0 / (p + 4)) / np.sqrt(2.0)) ** 2
    a = 1.0 + 2.0 * b2
    return b2, 1.0 - a ** (-p / 2.0) * (1.0 + p * b2 / a + p * (p + 2) * b2 * b2 / (2.0 * a * a))


def hz_statistic(points):
    """Henze-Zirkler multivariate-normality statistic of the rows of ``points``.

    Larger values mean stronger departure from a single Gaussian. A small
    ridge proportional to the covariance trace (with a tiny absolute floor)
    keeps the standardization invertible when the rows collapse to a
    cluster, which happens at the start of training.

    One tape op with a hand-derived gradient. The N x N kernel
    ``E = exp(-b^2/2 * d_jk)`` is built ``_HZ_CHUNK`` rows at a time, each
    chunk as one matrix product with inner dimension p + 2 and one ``exp``,
    and only its row sums and ``E @ xc`` are kept, so memory is
    O(N * _HZ_CHUNK).
    """
    pv = dc._val(points)
    if pv.ndim != 2:
        raise ValueError("points must be a 2-D matrix")
    n, p = pv.shape
    if n < 3:
        raise ValueError(f"need at least 3 rows, got {n}")
    if p < 1:
        raise ValueError("need at least one column")

    xc = pv - pv.mean(axis=0)
    ridge_rel = _HZ_RIDGE / p
    cov = xc.T @ xc / n + (ridge_rel * np.sum(xc * xc) / n + 1e-12) * np.eye(p)
    a = np.linalg.inv(cov)
    t = xc @ a
    dj = np.sum(xc * t, axis=1)

    b2, _ = hz_constants(n, p)
    # one pass over row chunks of E = exp(-b2/2 * (d_j + d_k - 2 M_jk)), M = xc A xc^T.
    # With u = -b2/2 * d the exponent is b2 * t_j . xc_k + u_j + u_k, so a chunk's
    # exponent is one product [b2 t, 1, u] @ [xc^T; u^T; 1], every entry <= ~0.
    # (Factored as exp(u_j) exp(u_k) exp(b2 M_jk), an outlier row's exp(b2 M_jj)
    # overflows to inf and its product with exp(u_j) = 0 is NaN.)
    # E @ [1, xc] then gives the row sums and E @ xc in one product.
    u = (-b2 / 2.0) * dj
    left = np.hstack([b2 * t, np.ones((n, 1)), u[:, None]])
    right = np.vstack([xc.T, u, np.ones(n)])
    ones_xc = np.hstack([np.ones((n, 1)), xc])
    e_ones_xc = np.empty((n, p + 1))
    buf = np.empty((min(_HZ_CHUNK, n), n))
    for lo in range(0, n, _HZ_CHUNK):
        hi = min(lo + _HZ_CHUNK, n)
        blk = np.matmul(left[lo:hi], right, out=buf[: hi - lo])
        np.exp(blk, out=blk)
        e_ones_xc[lo:hi] = blk @ ones_xc
    rowsum, ex = e_ones_xc[:, 0], e_ones_xc[:, 1:]

    coef2 = 2.0 * (1.0 + b2) ** (-p / 2.0) / n
    c2 = b2 / (2.0 * (1.0 + b2))
    e2 = np.exp(-c2 * dj)
    term3 = (1.0 + 2.0 * b2) ** (-p / 2.0)
    out = float(n * (rowsum.sum() / (n * n) - coef2 * e2.sum() + term3))

    def vjp(g):
        # dHZ/dM = diag(h) - 2k E, back through M = xc A xc^T, A = C^-1,
        # C = xc^T xc / n + ridge I, and the centring
        k = -b2 / (2.0 * n)
        h = 2.0 * k * rowsum + n * coef2 * c2 * e2
        gm_xc = h[:, None] * xc - 2.0 * k * ex
        g_a = xc.T @ gm_xc
        g_c = -a @ g_a @ a
        g_xc = 2.0 * gm_xc @ a + (2.0 / n) * xc @ g_c + (2.0 * ridge_rel / n * np.trace(g_c)) * xc
        return g * (g_xc - g_xc.mean(axis=0))

    return dc._op("hz", out, (points, vjp))


def offdiag_penalty(points):
    """Frobenius norm of the off-diagonal of the sample covariance of the rows."""
    pv = dc._val(points)
    if pv.ndim != 2:
        raise ValueError("points must be a 2-D matrix")
    n, p = pv.shape
    if n < 2:
        raise ValueError(f"need at least 2 rows, got {n}")
    if p == 1:
        # an empty off-diagonal: the norm is exactly 0, and so is its gradient
        # through sqrt's zero subgradient, so no tape node is built
        return 0.0
    xc = dc.add(points, dc.neg(dc.mean_(points, axis=0, keepdims=True)))
    cov = dc.mul(dc.matmul(dc.transpose(xc), xc), 1.0 / (n - 1))
    off = dc.mul(cov, 1.0 - np.eye(p))
    out = dc.sqrt(dc.sum_(dc.mul(off, off)))
    return out if isinstance(out, dc.Node) else float(out)


def pearson_penalty(a, b):
    """Mean absolute Pearson correlation over all column pairs of (a, b).

    ``a`` is a constant data matrix; ``b`` may be a Node. Pairs where
    either column has zero variance contribute zero. One tape op with a
    hand-derived gradient.
    """
    av = np.atleast_2d(np.asarray(dc._val(a), dtype=np.float64))
    bv = dc._val(b)
    if bv.ndim != 2:
        raise ValueError("b must be a 2-D matrix")
    if av.shape[0] != bv.shape[0]:
        raise ValueError("a and b must have the same number of rows")
    if av.shape[0] < 2:
        raise ValueError("need at least 2 rows")
    (n, d), k = av.shape, bv.shape[1]
    # pair (j, i) is column j of b with column i of a; each of its sums runs
    # over one contiguous row of n products, and the VJP keeps the order of the
    # per-pair composite of generic tape ops: at d = k = 1 the two agree to the bit
    ac, bc = av - av.mean(axis=0), bv - bv.mean(axis=0)
    bt = bc.T.copy()
    ssa, ssb = (ac * ac).sum(axis=0), (bt * bt).sum(axis=1)
    kept = (ssb[:, None] != 0.0) & (ssa != 0.0)  # a NaN variance is kept, and propagates
    den = np.sqrt(np.where(kept, ssb[:, None] * ssa, 1.0))
    num = (bt[:, None, :] * ac.T.copy()).sum(axis=2)
    r = np.where(kept, num / den, 0.0)

    def vjp(g):  # through |r|, r = num / den, den = sqrt(ssb * ssa) and b's centring
        s = g * (1.0 / (d * k)) * np.sign(r)
        half_ss = bc * (-s * num / (den * den) * 0.5 / den * ssa).sum(axis=1)
        g_bc = (dc._matmul(ac, (s / den).T) + half_ss) + half_ss
        return g_bc - g_bc.sum(axis=0) / n

    return dc._op("pearson", float(np.abs(r).sum() * (1.0 / (d * k))), (b, vjp))


def objective_graph(arch, leaves, x, y, priors, cfg, n_mc, seed):
    """Constrained objective: negative ELBO plus the latent-mean penalties.

    Returns the objective Node and a dict of the raw penalty statistics.
    """
    elbo_node, elbo_parts = vi_mod.elbo_graph(arch, leaves, x, y, priors, n_mc, seed)
    obj = dc.neg(elbo_node)
    parts = {"elbo": elbo_node, **elbo_parts}
    if cfg.penalty_free:
        return obj, parts
    if arch.input_dim_z == 0:
        raise ConfigError("constrained objective needs latent inputs (input_dim_z >= 1)")
    n = x.shape[0]
    mu_z = leaves["mu_z"]
    if cfg.lambda1 > 0.0:
        parts["hz"] = hz = hz_statistic(mu_z)
        _, m0 = hz_constants(n, arch.input_dim_z)
        obj = dc.add(obj, dc.mul(_hinge(dc.add(hz, -m0)), cfg.lambda1 * n / cfg.eps_t))
    if cfg.lambda2 > 0.0:
        parts["offdiag"] = off = offdiag_penalty(mu_z)
        if isinstance(off, dc.Node):  # else 0.0, at one latent column
            obj = dc.add(obj, dc.mul(off, cfg.lambda2 * n))
    if cfg.lambda3 > 0.0:
        tau = np.sqrt(2.0 / (np.pi * (n - 1)))  # about E|r| of two independent columns
        for key, cols, eps in (("pc_x", x, cfg.eps_x), ("pc_y", y, cfg.eps_y)):
            parts[key] = pc = pearson_penalty(cols, mu_z)
            obj = dc.add(obj, dc.mul(_hinge(dc.add(pc, -tau)), cfg.lambda3 * n / eps))
    return obj, parts


def ncai_objective(q, data, priors, cfg, n_mc=64, seed=0):
    """Scalar value of the constrained objective on the training split."""
    node, _ = objective_graph(*vi_mod._train_inputs(q, data), priors, cfg, n_mc, seed)
    return float(dc._val(node))


def fit_point_mlp(x, y, arch, learning_rate=0.01, epochs=2000, seed=0):
    """Fit a deterministic net by ``epochs`` epochs of Adam on mean squared error.

    Latent input columns, if the architecture has any, are clamped to zero.
    Returns the flat weight vector.
    """
    from .train import optimize

    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64).reshape(x.shape[0], -1)
    rng = np.random.default_rng(seed)
    params = {"w": dc.xavier_normal_weights(arch, rng)}
    z0 = np.zeros((x.shape[0], arch.input_dim_z)) if arch.input_dim_z > 0 else None

    def mse(leaves):
        resid = dc.add(dc.mlp_forward(arch, leaves["w"], x, z0), -y)
        return dc.mean_(dc.mul(resid, resid))

    optimize(mse, params, learning_rate, epochs)
    return params["w"]


def warm_start(data, arch, learning_rate, epochs, seed):
    """Two-stage initialization for the constrained method.

    Fits a deterministic net on x alone (latent inputs clamped to zero) by
    ``epochs`` epochs of Adam at ``learning_rate``, copies its weights into
    the weight means except the latent-input weights which are re-drawn at
    layer scale, zeroes the latent means, and draws every scale parameter at
    layer scale.
    """
    if arch.input_dim_z == 0:
        raise ConfigError("warm start needs latent inputs (input_dim_z >= 1)")
    view = data.view("train")
    rng = np.random.default_rng(seed)
    fit_seed = int(rng.integers(0, 2**32))
    mu_w = fit_point_mlp(view.x, view.y, arch, learning_rate, epochs, fit_seed)
    mask = arch.z_weight_mask()
    first_std = dc.xavier_std(arch.input_dim, arch.layer_dims[1])
    mu_w = mu_w.copy()
    mu_w[mask] = rng.normal(0.0, first_std, int(mask.sum()))
    rho_w = dc.xavier_normal_weights(arch, rng)
    n = view.x.shape[0]
    k = arch.input_dim_z
    z_std = dc.xavier_std(k, arch.layer_dims[1])
    mu_z = np.zeros((n, k))
    rho_z = rng.normal(0.0, z_std, size=(n, k))
    return vi_mod.MeanFieldPosterior(arch, mu_w, rho_w, mu_z, rho_z)


@dataclass
class MapResult:
    w: np.ndarray
    z: np.ndarray
    log_joint: float
    history: np.ndarray


def map_estimate(data, priors, arch, init="random", learning_rate=0.01, epochs=3000, seed=0):
    """Maximize the log joint over weights and latents by ``epochs`` epochs of
    Adam at ``learning_rate``.

    ``init`` is "random" (layer-scaled weights, latents from the prior) or
    "ground_truth" (requires stored generative weights and latents, and
    ``arch`` equal to their architecture). ``history`` holds the log joint
    before each epoch and after the last.
    """
    from .train import optimize

    view = data.view("train")
    n = view.x.shape[0]
    k = arch.input_dim_z
    rng = np.random.default_rng(seed)
    if init == "random":
        w = dc.xavier_normal_weights(arch, rng)
        z = rng.normal(0.0, np.sqrt(priors.sigma2_z), size=(n, k))
    elif init == "ground_truth":
        w, z = data.ground_truth(arch)
    else:
        raise ConfigError(f"unknown map init {init!r}; use 'random' or 'ground_truth'")

    params = {"w": w, "z": z}
    neg_lj = optimize(
        lambda leaves: dc.neg(log_joint(arch, leaves["w"], leaves["z"], view, priors)),
        params, learning_rate, epochs,
    )
    final = float(log_joint(arch, params["w"], params["z"], view, priors))
    history = np.array([-v for v in neg_lj] + [final])
    return MapResult(w=params["w"], z=params["z"], log_joint=final, history=history)
