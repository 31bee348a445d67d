"""Output-preserving reparameterizations of latent-input networks.

Each transform here leaves every network output unchanged while moving
probability mass between the weight prior and the latent prior. Pushed
far enough, the transformed configuration becomes more probable under
the posterior than the generative one, which is the bias mechanism the
constrained inference procedure defends against. The Monte Carlo harness
at the bottom measures how often that happens as the sample size grows.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError


def node_transform(w, x, z, c):
    """Rescale a tied single-node weight by 1/c and shift the latents so the
    pre-activation w*(x+z) is unchanged: returns (w/c, (c-1)*x + c*z)."""
    if c == 0.0:
        raise ValueError("c must be non-zero")
    w = np.asarray(w, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    return w / c, (c - 1.0) * x + c * z


@dataclass
class SingleLayerWeights:
    """Structured view of a one-hidden-layer network's weights."""

    w_x: np.ndarray  # (H, D)
    w_z: np.ndarray  # (H, D)
    b: np.ndarray  # (H,)
    w_out: np.ndarray  # (H, L)
    b_out: np.ndarray  # (L,)

    def __post_init__(self):
        for name in ("w_x", "w_z", "b", "w_out", "b_out"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        h = self.w_x.shape[0]
        if self.w_z.shape[0] != h or self.b.shape != (h,) or self.w_out.shape[0] != h:
            raise ValueError("inconsistent hidden width across weight blocks")

    def to_flat(self, arch):
        if len(arch.hidden_layers) != 1:
            raise ConfigError("transform requires exactly one hidden layer")
        d, k, h = arch.input_dim_x, arch.input_dim_z, arch.hidden_layers[0]
        if k != d:
            raise ConfigError(f"transform requires input_dim_z == input_dim_x, got {k} != {d}")
        if self.w_x.shape != (h, d) or self.w_z.shape != (h, d):
            raise ValueError("weight blocks do not match the architecture")
        w1 = np.concatenate([self.w_x.T, self.w_z.T], axis=0)
        return np.concatenate([w1.ravel(), self.b, self.w_out.ravel(), self.b_out])


@dataclass
class LayerTransformSpec:
    """Parameters (S diag, U, R, T) of the layer-wise reparameterization.

    Requires w_z = R @ T; any diagonal S, any shift U, and any invertible
    factor T yield an output-preserving transform.
    """

    s: np.ndarray  # (D,) diagonal entries
    u: np.ndarray  # (D,)
    r: np.ndarray  # (H, D)
    t: np.ndarray  # (D, D)

    def __post_init__(self):
        for name in ("s", "u", "r", "t"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        d = self.s.shape[0]
        if self.u.shape != (d,) or self.t.shape != (d, d) or self.r.shape[1] != d:
            raise ValueError("inconsistent dimensions in transform spec")


def t_diag_layer_spec(w_z, diag):
    """The diagonal-scaling special case: S = I, U = 0, T = diag(diag), R = w_z T^-1."""
    w_z = np.asarray(w_z, dtype=np.float64)
    diag = np.asarray(diag, dtype=np.float64).ravel()
    if np.any(diag == 0.0):
        raise ValueError("t entries must be non-zero")
    d = w_z.shape[1]
    if diag.shape != (d,):
        raise ValueError(f"t must have {d} entries")
    with np.errstate(over="ignore"):  # an overflowed R is inf, which callers check for
        r = w_z / diag
    return LayerTransformSpec(s=np.ones(d), u=np.zeros(d), r=r, t=np.diag(diag))


def layer_transform(weights, spec, x, z):
    """Apply the layer-wise reparameterization to weights and latents.

    New first layer: w_x + w_z diag(s), R, b + R u; new latents
    T z - T diag(s) x - u. Pre-activations, and hence outputs, match the
    originals exactly.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    # R = w_z T^-1 rounds in proportion to |w_z|, so the check scales with it
    tol = 1e-10 * max(1.0, np.max(np.abs(weights.w_z)))
    if np.max(np.abs(spec.r @ spec.t - weights.w_z)) > tol:
        raise ValueError("spec does not factor w_z: need w_z = R @ T")
    if np.linalg.slogdet(spec.t)[0] == 0.0:
        raise ValueError("T must be invertible")
    new_weights = SingleLayerWeights(
        w_x=weights.w_x + weights.w_z * spec.s[None, :],
        w_z=spec.r.copy(),
        b=weights.b + spec.r @ spec.u,
        w_out=weights.w_out.copy(),
        b_out=weights.b_out.copy(),
    )
    z_hat = z @ spec.t.T - (x * spec.s[None, :]) @ spec.t.T - spec.u[None, :]
    return new_weights, z_hat


def _leaky_inverse(v, alpha):
    return np.where(v >= 0.0, v, v / alpha)


def y_encoding_transform(data, arch):
    """Weights and latents that reproduce every training target exactly.

    Zeroes the x-path, writes the activation-inverted target into every
    latent coordinate, and averages it back out through uniform output
    weights 1/(D*H). Positive homogeneity of the activation makes the
    reconstruction exact regardless of the latent width.
    """
    if len(arch.hidden_layers) != 1:
        raise ConfigError("target encoding requires exactly one hidden layer")
    if arch.output_dim != 1:
        raise ConfigError("target encoding requires a scalar output")
    if arch.input_dim_z != arch.input_dim_x:
        raise ConfigError("target encoding requires input_dim_z == input_dim_x")
    d, h = arch.input_dim_x, arch.hidden_layers[0]
    view = data.view("train")
    z_hat = np.repeat(_leaky_inverse(view.y[:, :1], arch.leaky_slope), d, axis=1)
    weights = SingleLayerWeights(
        w_x=np.zeros((h, d)),
        w_z=np.ones((h, d)),
        b=np.zeros(h),
        w_out=np.full((h, 1), 1.0 / (d * h)),
        b_out=np.zeros(1),
    )
    return weights, z_hat


def t_upper_bound(mu_xd, sigma2_xd, sigma2_z):
    """Diagonal factors below this (in magnitude) make the per-dimension
    layer-transform gap positive in expectation."""
    if sigma2_xd < 0.0 or sigma2_z <= 0.0:
        raise ValueError("variances must be positive")
    return float(np.sqrt(sigma2_z / (mu_xd**2 + sigma2_xd + sigma2_z)))


def bias_probability(transform, n_values, trials, priors, mu_x, sigma2_x, seed):
    """Monte Carlo estimate of how often a transform beats the generative
    configuration under the log joint, per sample size.

    ``transform`` is {"kind": "node", "c": ...} or {"kind": "layer",
    "t_scale": ..., "hidden": ...}; weights are drawn from the prior each
    trial, and the n inputs from N(mu_x, sigma2_x). The likelihood is
    output-invariant under both transforms so the gap reduces to the two
    prior terms, which is what gets computed.
    Returns one record per n: fraction of positive gaps, mean gap, and the
    mean per-observation latent-only gap.
    """
    kind = transform.get("kind")
    if kind not in ("node", "layer"):
        raise ConfigError(f"unknown transform kind {transform.get('kind')!r}")
    if trials < 1 or any(n < 1 for n in n_values):
        raise ConfigError(f"need trials >= 1 and every n >= 1, got {trials} and {list(n_values)}")
    # a zero or non-finite factor has no inverse, so it defines no transform
    factor = "c" if kind == "node" else "t_scale"
    if not (np.isfinite(transform[factor]) and transform[factor] != 0.0):
        raise ConfigError(f"{factor} must be finite and non-zero, got {transform[factor]}")
    if kind == "layer" and int(transform["hidden"]) < 1:
        raise ConfigError(f"hidden must be >= 1, got {transform['hidden']}")
    if not np.isfinite(mu_x):
        raise ConfigError(f"mu_x must be finite, got {mu_x}")
    if not 0.0 <= sigma2_x < np.inf:
        raise ConfigError(f"sigma2_x must be finite and >= 0, got {sigma2_x}")
    rng = np.random.default_rng(seed)
    s2z, s2w = priors.sigma2_z, priors.sigma2_w
    if kind == "node":
        c = transform["c"]
    else:
        h = int(transform["hidden"])
        try:
            t = transform["t_scale"] * t_upper_bound(mu_x, sigma2_x, s2z)
        except OverflowError:  # mu_x**2 beyond the float range: the bound is 0
            t = 0.0
        # like a zero t_scale, a factor that is 0 or not finite has no inverse
        if not (np.isfinite(t) and t != 0.0):
            raise ConfigError(
                f"t_scale * t_upper_bound(mu_x, sigma2_x, sigma2_z) must be finite and "
                f"non-zero, got {t} (mu_x={mu_x}, sigma2_x={sigma2_x}, sigma2_z={s2z})"
            )
    records = []
    for n in n_values:
        gaps = np.empty(trials)
        latent_gaps = np.empty(trials)
        for trial in range(trials):
            x = rng.normal(mu_x, np.sqrt(sigma2_x), size=(n, 1))
            z = rng.normal(0.0, np.sqrt(s2z), size=(n, 1))
            if kind == "node":
                w = rng.normal(0.0, np.sqrt(s2w))
                w_hat, z_hat = node_transform(w, x, z, c)
                weight_gap = (w**2 - w_hat**2) / (2.0 * s2w)
            else:
                w_x = rng.normal(0.0, np.sqrt(s2w), size=(h, 1))
                w_z = rng.normal(0.0, np.sqrt(s2w), size=(h, 1))
                spec = t_diag_layer_spec(w_z, [t])
                if np.all(np.isfinite(spec.r)):
                    net = SingleLayerWeights(w_x, w_z, np.zeros(h), np.zeros((h, 1)), np.zeros(1))
                    moved, z_hat = layer_transform(net, spec, x, z)
                    with np.errstate(over="ignore"):  # the finite check below catches it
                        weight_gap = (
                            np.sum(w_x**2) - np.sum(moved.w_x**2)
                            + np.sum(w_z**2) - np.sum(moved.w_z**2)
                        ) / (2.0 * s2w)
                else:  # R overflowed, so its square takes the weight gap to -inf
                    weight_gap, z_hat = -np.inf, z
            with np.errstate(over="ignore"):  # the finite check below catches it
                latent_gap = float(np.sum(z * z - z_hat * z_hat) / (2.0 * s2z))
            gaps[trial] = weight_gap + latent_gap
            # finite moments can still overflow the squares; no later trial mends that
            if not np.isfinite(gaps[trial]):
                raise ConfigError(
                    f"the log-joint gap is not finite at n={n}, trial {trial} "
                    f"(mu_x={mu_x}, sigma2_x={sigma2_x}, sigma2_z={s2z})"
                )
            latent_gaps[trial] = latent_gap / n
        records.append(
            {
                "n": int(n),
                "frac_positive": float(np.mean(gaps > 0.0)),
                "mean_gap": float(np.mean(gaps)),
                "mean_latent_gap_per_obs": float(np.mean(latent_gaps)),
            }
        )
    return records
