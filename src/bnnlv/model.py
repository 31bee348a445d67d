"""Generative model: Gaussian weight and latent priors, Gaussian output noise.

Targets arise as y_n = f(x_n, z_n; W) + eps_n with W ~ N(0, sigma2_w I),
z_n ~ N(0, sigma2_z I) and eps_n ~ N(0, sigma2_eps I). The log densities
here accept either plain arrays or autodiff Nodes for W and Z, so the same
code serves evaluation and gradient-based optimization.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .exceptions import ConfigError

LOG_2PI = float(np.log(2.0 * np.pi))
_DRAW_CHUNK = 4  # predictive draws per forward pass in predictive_means


@dataclass(frozen=True)
class PriorConfig:
    """Prior variances plus the inverse-gamma hyper-prior on them.

    ``eb_w`` / ``eb_z`` mark which variances are re-estimated from the
    variational posterior during training; fixed ones come from a grid.
    """

    sigma2_w: float = 1.0
    sigma2_z: float = 1.0
    sigma2_eps: float = 0.1
    ig_alpha: float = 3.0
    ig_beta: float = 0.5
    eb_w: bool = False
    eb_z: bool = False

    def __post_init__(self):
        for name in ("sigma2_w", "sigma2_z", "sigma2_eps", "ig_beta"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if not 1.0 < self.ig_alpha < np.inf:
            raise ConfigError(f"ig_alpha must be finite and > 1, got {self.ig_alpha}")


def _scalar(x):
    return x if isinstance(x, dc.Node) else float(x)


def log_likelihood(arch, w, Z, x, y, sigma2_eps):
    """Gaussian log-likelihood of the rows of (x, y) under weights ``w``.

    ``Z`` rows align with the rows of ``x``; pass None for architectures
    without latent inputs. With a block of C weight draws ``w`` (C, P) and
    latents ``Z`` (C, N, K), this is the sum of the C draws'
    log-likelihoods from one forward pass. Returns nats (a Node when w or
    Z is a Node).
    """
    if sigma2_eps <= 0.0:
        raise ValueError(f"sigma2_eps must be positive, got {sigma2_eps}")
    pred = dc.mlp_forward(arch, w, x, Z if arch.input_dim_z > 0 else None)
    resid = dc.add(pred, -y)
    ssq = dc.sum_(dc.mul(resid, resid))
    const = 0.5 * np.size(dc._val(resid)) * (LOG_2PI + np.log(sigma2_eps))
    return _scalar(dc.add(dc.mul(ssq, -0.5 / sigma2_eps), -const))


def log_prior_w(w, sigma2_w):
    """Log density of an isotropic zero-mean Gaussian over the flat weights."""
    if sigma2_w <= 0.0:
        raise ValueError(f"sigma2_w must be positive, got {sigma2_w}")
    wv = dc._val(w)
    h = wv.size
    ssq = dc.sum_(dc.mul(w, w))
    const = 0.5 * h * (LOG_2PI + np.log(sigma2_w))
    return _scalar(dc.add(dc.mul(ssq, -0.5 / sigma2_w), -const))


def log_prior_z(Z, sigma2_z):
    """Log density of the latent matrix under its row-wise Gaussian prior."""
    if sigma2_z <= 0.0:
        raise ValueError(f"sigma2_z must be positive, got {sigma2_z}")
    return log_prior_w(Z, sigma2_z)


def log_joint(arch, w, Z, data, priors):
    """log p(Y, W, Z | X) = log-likelihood + weight prior + latent prior."""
    ll = log_likelihood(arch, w, Z, data.x, data.y, priors.sigma2_eps)
    lw = log_prior_w(w, priors.sigma2_w)
    lz = log_prior_z(Z, priors.sigma2_z) if arch.input_dim_z > 0 else 0.0
    return _scalar(dc.add(dc.add(ll, lw), lz))


class FixedFunction:
    """Adapter exposing an f(x, z) with one output row per x row as a point-mass posterior."""

    def __init__(self, f, input_dim_z=1, output_dim=1):
        self.f = f
        self.input_dim_z = input_dim_z
        self.output_dim = output_dim

    def draw_function(self, rng):
        return self.f


def predictive_means(q_w, priors, X, S, rng):
    """f(X, z) for S joint draws of a function and of the latents; (S, N, L).

    Each draw takes one function from ``q_w`` and one latent row per input
    from the prior p(z), never from trained per-point posteriors (z is None
    when the model has no latent inputs). This is the only loop over
    predictive draws; every predictive sampler and metric reads its array.
    A posterior with weights runs ``_DRAW_CHUNK`` draws per forward pass,
    with one standard-normal call per chunk whose row j holds draw j's
    weight noise, then its latent noise; a ``FixedFunction`` is called
    once per draw. Either way the rng gives each draw its weights, then its
    latents, in draw order: ``Generator.normal(loc, scale)`` returns
    ``loc + scale * z`` for the same standard normals z, so the chunking
    changes no value.
    """
    n, k = X.shape[0], q_w.input_dim_z
    sd_z = np.sqrt(priors.sigma2_z)
    out = np.empty((S, n, q_w.output_dim))
    if isinstance(q_w, FixedFunction):
        for s in range(S):
            f = q_w.draw_function(rng)
            z = rng.normal(0.0, sd_z, size=(n, k)) if k > 0 else None
            out[s] = np.reshape(f(X, z), (n, -1))
        return out
    p = q_w.arch.param_count
    mu_w, sigma_w = q_w.mu_w, q_w.sigma_w
    eps = np.empty((_DRAW_CHUNK, p + n * k))
    for lo in range(0, S, _DRAW_CHUNK):
        c = min(_DRAW_CHUNK, S - lo)
        rng.standard_normal(out=eps[:c])
        w = sigma_w * eps[:c, :p] + mu_w
        # + 0.0 as in Generator.normal, which also turns a -0.0 draw into 0.0
        z = (sd_z * eps[:c, p:] + 0.0).reshape(c, n, k) if k > 0 else None
        out[lo : lo + c] = dc.mlp_forward(q_w.arch, w, X, z)
    return out


def add_output_noise(means, priors, rng):
    """Add one block of N(0, sigma2_eps) noise from ``rng`` to ``means`` in place."""
    means += rng.normal(0.0, np.sqrt(priors.sigma2_eps), size=means.shape)
    return means


def predictive_sample_matrix(q_w, priors, X, S, seed):
    """S posterior-predictive draws per row of X: the means plus noise; (N, S, L)."""
    rng = np.random.default_rng(seed)
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    means = predictive_means(q_w, priors, X, S, rng)
    return add_output_noise(means, priors, rng).transpose(1, 0, 2)
