"""Mean-field variational inference for the latent-noise network model.

The posterior factorizes over every weight and every per-observation
latent coordinate; each factor is Gaussian with its scale parameterized
through softplus. The ELBO uses the reparameterization trick with a
closed-form KL against the Gaussian priors.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import diffcore as dc
from .diffcore import Architecture
from .exceptions import ConfigError
from .model import log_likelihood

_LOGPDF_CHUNK = 64  # rows of points aggregated_posterior_logpdf scores at once


@dataclass
class MeanFieldPosterior:
    """Factorized Gaussian posterior over weights and per-point latents.

    ``mu_z``/``rho_z`` have one row per training observation; for
    architectures without latent inputs they are (N, 0).
    """

    arch: Architecture
    mu_w: np.ndarray
    rho_w: np.ndarray
    mu_z: np.ndarray
    rho_z: np.ndarray

    def __post_init__(self):
        self.mu_w = np.asarray(self.mu_w, dtype=np.float64)
        self.rho_w = np.asarray(self.rho_w, dtype=np.float64)
        self.mu_z = np.atleast_2d(np.asarray(self.mu_z, dtype=np.float64))
        self.rho_z = np.atleast_2d(np.asarray(self.rho_z, dtype=np.float64))
        p = self.arch.param_count
        if self.mu_w.shape != (p,) or self.rho_w.shape != (p,):
            raise ValueError(f"weight blocks must have shape ({p},)")
        if self.mu_z.shape != self.rho_z.shape:
            raise ValueError("mu_z and rho_z must have matching shapes")
        if self.mu_z.shape[1] != self.arch.input_dim_z:
            raise ValueError(
                f"latent blocks must have {self.arch.input_dim_z} columns, got {self.mu_z.shape[1]}"
            )

    @property
    def n_train(self):
        return self.mu_z.shape[0]

    @property
    def input_dim_z(self):
        return self.arch.input_dim_z

    @property
    def output_dim(self):
        return self.arch.output_dim

    @property
    def sigma_w(self):
        return dc.softplus(self.rho_w)

    @property
    def sigma_z(self):
        return dc.softplus(self.rho_z)

    def draw_function(self, rng):
        w = self.mu_w + self.sigma_w * rng.standard_normal(self.mu_w.shape)
        arch = self.arch
        return lambda x, z=None: dc.mlp_forward(arch, w, x, z)

    def params(self):
        return [self.mu_w, self.rho_w, self.mu_z, self.rho_z]

    def to_dict(self):
        return {
            "arch": asdict(self.arch),
            "mu_w": self.mu_w.tolist(),
            "rho_w": self.rho_w.tolist(),
            "mu_z": self.mu_z.tolist(),
            "rho_z": self.rho_z.tolist(),
        }

    @classmethod
    def from_dict(cls, d):
        """Rebuild a posterior from ``to_dict`` output (a loaded model.json).

        Raises ConfigError naming the block when one does not fit ``arch``
        or holds a non-finite value, so a bad file fails before any work.
        """
        arch = Architecture(**d["arch"])
        p, k = arch.param_count, arch.input_dim_z
        # one row per training point, also when the rows are empty (no latent inputs)
        n = len(d["mu_z"])
        blocks = {}
        for name, shape in (("mu_w", (p,)), ("rho_w", (p,)), ("mu_z", (n, k)), ("rho_z", (n, k))):
            try:
                block = np.asarray(d[name], dtype=np.float64)
            except (TypeError, ValueError):
                raise ConfigError(f"model block {name} is not an array of numbers") from None
            if block.shape != shape:
                raise ConfigError(
                    f"model block {name} has shape {block.shape}; the architecture needs {shape}"
                )
            if not np.all(np.isfinite(block)):
                raise ConfigError(f"model block {name} holds a non-finite value")
            blocks[name] = block
        return cls(arch, **blocks)


def random_init(arch, n_train, seed):
    """Draw every variational parameter from a layer-scaled zero-mean normal.

    Weight blocks use each layer's fan pair; latent blocks use the fan pair
    of the layer the latents feed (latent width in, first layer width out).
    """
    rng = np.random.default_rng(seed)
    mu_w = dc.xavier_normal_weights(arch, rng)
    rho_w = dc.xavier_normal_weights(arch, rng)
    k = arch.input_dim_z
    if k > 0:
        std = dc.xavier_std(k, arch.layer_dims[1])
        mu_z = rng.normal(0.0, std, size=(n_train, k))
        rho_z = rng.normal(0.0, std, size=(n_train, k))
    else:
        mu_z = np.empty((n_train, 0))
        rho_z = np.empty((n_train, 0))
    return MeanFieldPosterior(arch, mu_w, rho_w, mu_z, rho_z)


def kl_diag_gaussian(mu_q, var_q, mu_p, var_p):
    """KL divergence between diagonal Gaussians, summed over coordinates.

    Accepts broadcastable arrays; ``mu_q``/``var_q`` may be Nodes.
    """
    var_q_v = dc._val(var_q)
    var_p_v = dc._val(var_p)
    if np.any(var_q_v <= 0.0):
        raise ValueError("var_q must be positive")
    if np.any(var_p_v <= 0.0):
        raise ValueError("var_p must be positive")
    diff = dc.add(mu_q, dc.neg(mu_p))
    terms = dc.add(
        dc.add(np.log(var_p_v), dc.neg(dc.log(var_q))),
        dc.add(dc.div(dc.add(var_q, dc.mul(diff, diff)), var_p_v), -1.0),
    )
    # broadcast against a common shape so scalar priors count every coordinate
    shape = np.broadcast_shapes(np.shape(dc._val(mu_q)), np.shape(var_q_v))
    total = dc.sum_(dc.mul(terms, np.ones(shape)))
    out = dc.mul(total, 0.5)
    return out if isinstance(out, dc.Node) else float(out)


def elbo_graph(arch, leaves, x, y, priors, n_mc, seed):
    """Build the ELBO as a graph over the leaf dict {mu_w, rho_w, mu_z, rho_z}.

    The expected log-likelihood is the mean over ``n_mc`` joint draws of
    the weights and the latents. All draws go through one
    reparameterisation, one forward pass and one ``log_likelihood`` as a
    (n_mc, P) weight block and (n_mc, N, K) latents; the rng fills them in
    the per-sample order, each sample's weights and then its latents.
    """
    if n_mc < 1:
        raise ConfigError(f"n_mc must be >= 1, got {n_mc}")
    rng = np.random.default_rng(seed)
    n = x.shape[0]
    has_z = arch.input_dim_z > 0
    k = arch.input_dim_z

    eps_w = np.empty((n_mc, arch.param_count))
    eps_z = np.empty((n_mc, n, k))
    for s in range(n_mc):
        eps_w[s] = rng.standard_normal(arch.param_count)
        if has_z:
            eps_z[s] = rng.standard_normal((n, k))
    w = dc.gaussian_reparam(leaves["mu_w"], leaves["rho_w"], eps_w)
    Z = dc.gaussian_reparam(leaves["mu_z"], leaves["rho_z"], eps_z) if has_z else None
    ell = dc.mul(log_likelihood(arch, w, Z, x, y, priors.sigma2_eps), 1.0 / n_mc)

    sigma_w = dc.softplus(leaves["rho_w"])
    kl_w = kl_diag_gaussian(leaves["mu_w"], dc.mul(sigma_w, sigma_w), 0.0, priors.sigma2_w)
    if has_z:
        sigma_z = dc.softplus(leaves["rho_z"])
        kl_z = kl_diag_gaussian(leaves["mu_z"], dc.mul(sigma_z, sigma_z), 0.0, priors.sigma2_z)
    else:
        kl_z = 0.0
    value = dc.add(ell, dc.neg(dc.add(kl_w, kl_z)))
    return value, {"ell": ell, "kl_w": kl_w, "kl_z": kl_z}


def _leaves_of(q):
    return {
        "mu_w": dc.leaf(q.mu_w),
        "rho_w": dc.leaf(q.rho_w),
        "mu_z": dc.leaf(q.mu_z),
        "rho_z": dc.leaf(q.rho_z),
    }


def elbo(q, data, priors, n_mc=64, seed=0):
    """Monte Carlo ELBO of the training split of ``data`` under posterior ``q``."""
    view = data.view("train")
    if view.x.shape[0] != q.n_train:
        raise ValueError(
            f"posterior holds {q.n_train} latent rows but the train split has {view.x.shape[0]}"
        )
    node, _ = elbo_graph(q.arch, _leaves_of(q), view.x, view.y, priors, n_mc, seed)
    return float(dc._val(node))


def _logsumexp_rows(a):
    """``scipy.special.logsumexp(a, axis=1)`` for a real 2-D float array,
    computed step for step as scipy 1.17 does; ``a`` is overwritten.

    scipy splits the m entries equal to the row max out of the shifted sum
    (Blanchard, Higham & Higham, 2021): with s the pairwise sum of
    exp(a - max) over the other entries, a row is log1p(s / m) + log(m) +
    max. scipy also computes log(sum(exp(row))) for every row and keeps it
    where that result is not finite. Here the max entries are zeroed after
    the exp, not set to -inf before it, so a row whose max is -inf, +inf or
    NaN already comes out -inf, +inf or NaN as that fallback would, and the
    second exp pass over the block is skipped.
    """
    if a.shape[1] == 0:
        return np.full(a.shape[0], -np.inf)
    amax = a.max(axis=1, keepdims=True)
    is_max = a == amax
    m = np.count_nonzero(is_max, axis=1).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):  # only rows with a non-finite max
        np.subtract(a, amax, out=a)
        np.exp(a, out=a)
        np.copyto(a, 0.0, where=is_max)
        s = a.sum(axis=1)
        np.divide(s, m, out=s, where=s != 0)
        out = np.log1p(s)
        out += np.log(m)
        out += amax[:, 0]
    return out


def aggregated_posterior_logpdf(q, points):
    """Log density of the equal-weight mixture of all per-point latent factors.

    ``points`` is (M, K); returns (M,). Memory is O(_LOGPDF_CHUNK * N * K)
    for N components.
    """
    if q.input_dim_z == 0:
        raise ValueError("posterior has no latent block")
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != q.input_dim_z:
        raise ValueError(f"points must be an (M, K) array with {q.input_dim_z} columns")
    mu = q.mu_z
    var = np.asarray(q.sigma_z) ** 2
    log_norm = np.log(2.0 * np.pi * var)
    n, k = mu.shape
    rows = min(_LOGPDF_CHUNK, pts.shape[0])
    terms = np.empty((rows, n, k))
    # (rows, N) component log densities, summed over coordinates; at K = 1
    # they are the terms' only coordinate, since a sum of one term is exact
    comp = terms[:, :, 0] if k == 1 else np.empty((rows, n))
    out = np.empty(pts.shape[0])
    # each row's logsumexp is independent of the others, so chunks change
    # no value
    for lo in range(0, pts.shape[0], _LOGPDF_CHUNK):
        r = min(_LOGPDF_CHUNK, pts.shape[0] - lo)
        t, c = terms[:r], comp[:r]
        np.subtract(pts[lo : lo + r, None, :], mu, out=t)
        np.square(t, out=t)
        t /= var
        t += log_norm
        if k > 1:
            np.sum(t, axis=2, out=c)
        c *= -0.5
        out[lo : lo + r] = _logsumexp_rows(c)
    out -= np.log(n)
    return out
