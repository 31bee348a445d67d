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


@dataclass
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
    if x.shape[0] == 0:
        return 0.0
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


def _check_variances(var):
    if not np.all(np.asarray(var) >= 0.0):
        raise ConfigError(f"x sampler variance must be >= 0, got {var}")


def make_x_sampler(spec):
    """Build an input sampler from a spec: a callable, or a tuple like
    ("uniform", lo, hi), ("normal", mean, var), ("mixture", [(w, mean, var), ...]).
    """
    if callable(spec):
        return spec
    if not isinstance(spec, (tuple, list)) or not spec:
        raise ConfigError(f"unrecognized x sampler spec: {spec!r}")
    kind = spec[0]
    if kind == "uniform":
        _, lo, hi = spec
        return lambda rng, n: rng.uniform(lo, hi, size=(n, 1))
    if kind == "normal":
        _, mean, var = spec
        _check_variances(var)
        return lambda rng, n: rng.normal(mean, np.sqrt(var), size=(n, 1))
    if kind == "mixture":
        comps = spec[1]
        weights = np.array([c[0] for c in comps], dtype=float)
        weights = weights / weights.sum()
        means = np.array([c[1] for c in comps], dtype=float)
        variances = np.array([c[2] for c in comps], dtype=float)
        _check_variances(variances)
        stds = np.sqrt(variances)

        def sample(rng, n):
            which = rng.choice(len(comps), size=n, p=weights)
            return (means[which] + stds[which] * rng.standard_normal(n)).reshape(n, 1)

        return sample
    raise ConfigError(f"unrecognized x sampler spec: {spec!r}")


class PointMassWeights:
    """Degenerate weight posterior concentrated on one weight vector."""

    def __init__(self, arch, w):
        w = np.asarray(w, dtype=np.float64)
        if w.shape != (arch.param_count,):
            raise ValueError(f"expected {arch.param_count} weights, got {w.shape}")
        self.arch = arch
        self.w = w
        self.input_dim_z = arch.input_dim_z
        self.output_dim = arch.output_dim

    def weight_sampler(self):
        """rng -> the one weight vector (the rng is not used)."""
        w = self.w
        return lambda rng: w


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
    A posterior with weights (``weight_sampler``, made once per call so
    the weight scale is computed once) runs ``_DRAW_CHUNK`` draws per
    forward pass; a ``FixedFunction`` is called once per draw. Either
    way the rng gives each draw its weights, then its latents, in draw
    order, so the chunking changes no value.
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
    draw_weights = q_w.weight_sampler()
    w = np.empty((_DRAW_CHUNK, q_w.arch.param_count))
    z = np.empty((_DRAW_CHUNK, n, k))
    for lo in range(0, S, _DRAW_CHUNK):
        c = min(_DRAW_CHUNK, S - lo)
        for j in range(c):
            w[j] = draw_weights(rng)
            if k > 0:
                z[j] = rng.normal(0.0, sd_z, size=(n, k))
        out[lo : lo + c] = dc.mlp_forward(q_w.arch, w[:c], X, z[:c])
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
