"""Evaluation metrics: predictive quality, interval calibration, latent
diagnostics, and entropy-based uncertainty decomposition.

Predictive metrics draw latents from the prior, matching how the model is
used on new points. Latent diagnostics operate on the trained variational
means. Mutual information and entropy use k-nearest-neighbor estimators
under the Chebyshev norm, searched with k-d trees.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .diffcore import mlp_forward
from .exceptions import ConfigError
from .model import add_output_noise, predictive_means, predictive_sample_matrix
from .ncai import hz_statistic, pearson_penalty
from .train import fork_map
from .vi import aggregated_posterior_logpdf


def _tie_jitter(a, seed=0):
    """Magnitude-scaled noise far below float precision of the data, to
    break exact ties before nearest-neighbor queries."""
    a = np.asarray(a, dtype=np.float64)
    scale = max(1.0, float(np.max(np.abs(a)))) if a.size else 1.0
    rng = np.random.default_rng(seed)
    return a + 1e-10 * scale * rng.standard_normal(a.shape)


def check_interval_samples(s):
    """Raise ConfigError unless ``s`` draws give stable interval percentiles."""
    if s < 100:
        raise ConfigError(f"need at least 100 predictive samples, got {s}")


def _draw_means(q_w, data, priors, which, s, seed):
    """Targets of a split, its (S, N, L) predictive means, and their rng."""
    view, rng = data.view(which), np.random.default_rng(seed)
    return view.y, predictive_means(q_w, priors, view.x, s, rng), rng


def _logp_matrix(means, y, sigma2_eps):
    """(S, N) log-likelihood of each target under each of S means, in one
    buffer beside ``means`` (with one output it needs no sum)."""
    l = y.shape[1]
    sq = y - means
    np.square(sq, out=sq)
    sq = sq[:, :, 0] if l == 1 else sq.sum(axis=2)
    sq *= -0.5
    sq /= sigma2_eps
    sq -= 0.5 * l * np.log(2.0 * np.pi * sigma2_eps)
    return sq


def _rmse(means, y):
    return float(np.sqrt(np.mean((y - means.mean(axis=0)) ** 2)))


def _interval(draws, y, level):
    """(picp, mpiw) of central intervals from (N, S, L) predictive draws,
    averaged over every point and every output."""
    tail = 100.0 * (1.0 - level) / 2.0
    lo, hi = np.percentile(draws, [tail, 100.0 - tail], axis=1)
    return float(np.mean((y >= lo) & (y <= hi))), float(np.mean(hi - lo))


def avg_marginal_ll(q_w, data, priors, which="test", s=2000, seed=0):
    """Average per-point expected log-likelihood under the predictive.

    Draws weights from ``q_w`` and latents from the prior, takes the mean
    of log p(y|x,W,z) over the S joint draws, then averages over points.
    By Jensen this is a lower bound on the log predictive density (the log
    of the mean likelihood over the draws). The c08 gate, restart selection
    (``train.restart_select``) and ``bnnlv grid`` all score with this bound;
    ``result.json``'s ``val_avg_marginal_ll`` is the winning restart's
    selection score, this bound on "val" at the run's seed.
    """
    y, means, _ = _draw_means(q_w, data, priors, which, s, seed)
    return float(np.mean(_logp_matrix(means, y, priors.sigma2_eps)))


def predictive_rmse(q_w, data, priors, which="test", s=2000, seed=0):
    """RMSE of the posterior-predictive mean against held-out targets."""
    y, means, _ = _draw_means(q_w, data, priors, which, s, seed)
    return _rmse(means, y)


def recon_mse(q, data):
    """Training reconstruction error at the variational means.

    Runs the mean weights on (x_n, mu_zn) for every training point. Only
    defined for posteriors that carry a per-point latent block; returns
    None otherwise.
    """
    mu_z = getattr(q, "mu_z", None)
    if mu_z is None or q.input_dim_z == 0:
        return None
    view = data.view("train")
    pred = mlp_forward(q.arch, q.mu_w, view.x, mu_z)
    return float(np.mean((view.y - pred) ** 2))


def picp_mpiw(q_w, data, priors, which="test", s=2000, seed=0, level=0.95):
    """Coverage and mean width of central predictive intervals.

    Interval endpoints are empirical percentiles of S predictive draws per
    point and output; both numbers average over every point and output.
    Returns (picp, mpiw).
    """
    check_interval_samples(s)
    view = data.view(which)
    return _interval(predictive_sample_matrix(q_w, priors, view.x, s, seed), view.y, level)


def kraskov_mi(a, b, k=5):
    """Kraskov-Stoegbauer-Grassberger mutual information estimate (nats).

    Variant 1 with Chebyshev distances and strict inequality in the
    marginal counts. Inputs are jittered to break ties, so exact duplicates
    do not collapse the neighborhood radius to zero. k-d trees find each
    point's k-th joint neighbour and count the marginal neighbours inside
    it, so time is O(N log N) and memory O(N).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    a = a[:, None] if a.ndim == 1 else a
    b = b[:, None] if b.ndim == 1 else b
    n = a.shape[0]
    if b.shape[0] != n:
        raise ValueError("a and b must have the same number of rows")
    if n <= k:
        raise ValueError(f"need more than k={k} points, got {n}")
    from scipy.spatial import cKDTree  # deferred: slow to import, and only k-NN needs it
    from scipy.special import digamma

    a = _tie_jitter(a, seed=0)
    b = _tie_jitter(b, seed=1)
    joint = np.hstack([a, b])
    # the max norm of a joint row is the larger of its two marginal ones; each
    # point is its own nearest neighbour, so column k is its k-th other one
    eps = cKDTree(joint).query(joint, k=k + 1, p=np.inf)[0][:, k]
    # the largest radius below eps keeps the count strict; minus the point itself
    r = np.nextafter(eps, 0.0)
    nx = cKDTree(a).query_ball_point(a, r, p=np.inf, return_length=True) - 1
    ny = cKDTree(b).query_ball_point(b, r, p=np.inf, return_length=True) - 1
    return float(digamma(k) + digamma(n) - np.mean(digamma(nx + 1) + digamma(ny + 1)))


def ks_two_sample(a, b):
    """Two-sample Kolmogorov-Smirnov statistic (sup CDF gap).

    Computed as scipy's ``ks_2samp`` computes its statistic, without the
    p-value: the largest gap between the two empirical CDFs over the pooled
    points, rounded to the exact rational h / lcm(n1, n2). For
    max(n1, n2) <= 10000 the result equals ``ks_2samp(a, b).statistic``
    bit for bit. Above that ``ks_2samp`` switches to its asymptotic p-value
    and leaves the gap unrounded, so the two can differ by a few ulps.

    A NaN in either sample gives NaN, as ``ks_2samp``'s default
    ``nan_policy`` does. An empty sample raises ``ValueError``, where
    ``ks_2samp`` returns NaN with a warning.
    """
    a = np.sort(np.asarray(a, dtype=np.float64).ravel())
    b = np.sort(np.asarray(b, dtype=np.float64).ravel())
    n1, n2 = a.size, b.size
    if min(n1, n2) == 0:
        raise ValueError("ks_two_sample needs two non-empty samples")
    if np.isnan(a[-1]) or np.isnan(b[-1]):  # np.sort puts NaN last
        return float("nan")
    both = np.concatenate([a, b])
    gaps = np.searchsorted(a, both, side="right") / n1
    gaps -= np.searchsorted(b, both, side="right") / n2
    d = max(float(np.clip(-gaps.min(), 0.0, 1.0)), float(gaps.max()))
    lcm = (n1 // math.gcd(n1, n2)) * n2
    return round(d * lcm) / lcm


def js_divergence_mc(log_p, sample_p, log_q, sample_q, s=5000, seed=0):
    """Monte Carlo Jensen-Shannon divergence between two densities (nats).

    ``log_*`` map an (n, d) array to per-row log densities; ``sample_*``
    take (rng, n) and return (n, d) draws.
    """
    rng = np.random.default_rng(seed)
    xp = sample_p(rng, s)
    xq = sample_q(rng, s)
    lp_p, lq_p = np.asarray(log_p(xp)), np.asarray(log_q(xp))
    lp_q, lq_q = np.asarray(log_p(xq)), np.asarray(log_q(xq))
    lm_p = np.logaddexp(lp_p, lq_p) - np.log(2.0)
    lm_q = np.logaddexp(lp_q, lq_q) - np.log(2.0)
    return float(0.5 * np.mean(lp_p - lm_p) + 0.5 * np.mean(lq_q - lm_q))


def knn_entropy(x, k=5):
    """Kozachenko-Leonenko differential entropy estimate (nats)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    n, d = x.shape
    if n <= k:
        raise ValueError(f"need more than k={k} points, got {n}")
    from scipy.spatial import cKDTree  # deferred: slow to import, and only k-NN needs it
    from scipy.special import digamma

    x = _tie_jitter(x, seed=2)
    dist, _ = cKDTree(x).query(x, k=k + 1, p=np.inf)
    eps = dist[:, k]
    return float(digamma(n) - digamma(k) + d * np.log(2.0) + d * np.mean(np.log(eps)))


def uncertainty_decomposition(q_w, priors, x_star, s_w=100, s_y=500, seed=0):
    """Split total predictive entropy at one input into aleatoric and
    epistemic parts.

    Aleatoric is the average entropy of the per-weight-draw predictive
    (latents and noise still random); epistemic is the remainder. All
    entropies come from the same k-NN estimator so the pieces are
    comparable. Returns {"total", "aleatoric", "epistemic"}.
    """
    x_star = np.asarray(x_star, dtype=np.float64).reshape(1, -1)
    x_rep = np.repeat(x_star, s_y, axis=0)
    # (s_y, s_w, L): column i holds the s_y outputs of weight draw i
    ys = predictive_sample_matrix(q_w, priors, x_rep, s_w, seed)
    per_w = [knn_entropy(ys[:, i, :]) for i in range(s_w)]
    total = knn_entropy(ys.transpose(1, 0, 2).reshape(s_w * s_y, -1))
    aleatoric = float(np.mean(per_w))
    return {"total": total, "aleatoric": aleatoric, "epistemic": total - aleatoric}


@dataclass
class MetricsReport:
    """Bundle of evaluation results; latent fields are None when the model
    has no latent block."""

    method: str
    avg_marginal_ll: float
    rmse: float
    picp: float
    mpiw: float
    recon_mse: float | None = None
    mi_x_z: float | None = None
    mi_y_z: float | None = None
    pc_x_z: float | None = None
    pc_y_z: float | None = None
    hz_mu_z: float | None = None
    ks_z_prior: float | None = None
    js_z_prior: float | None = None

    def to_dict(self):
        return asdict(self)


def compute_report(q_w, data, priors, method="NCAI", which="test", s=2000, seed=0):
    """Full evaluation of a trained posterior on one split.

    Predictive metrics use the requested split; latent diagnostics always
    use the training block, where the per-point factors live. The report is
    made of independent jobs, each drawing from its own seed: the predictive
    pass, and for a latent model the KSG/Pearson/KS/reconstruction group, HZ
    and JS. They run through ``train.fork_map``, so the report, and the
    error a bad input raises, are those of the one-process loop whatever the
    number of processes. None of the jobs holds an N x N array (KSG is O(N),
    HZ and JS work in row chunks).
    """
    check_interval_samples(s)

    def predictive():
        # one predictive pass: the interval draws add noise to the means in place
        y, means, rng = _draw_means(q_w, data, priors, which, s, seed)
        avg_ll = float(np.mean(_logp_matrix(means, y, priors.sigma2_eps)))
        rmse = _rmse(means, y)
        picp, mpiw = _interval(add_output_noise(means, priors, rng).transpose(1, 0, 2), y, 0.95)
        return {"avg_marginal_ll": avg_ll, "rmse": rmse, "picp": picp, "mpiw": mpiw}

    jobs = [predictive]
    mu_z = getattr(q_w, "mu_z", None)
    if mu_z is not None and q_w.input_dim_z > 0:
        # the k-NN estimators import these where they run; loaded here, before
        # any fork, they stay loaded for the next report in this process
        import scipy.spatial  # noqa: F401
        import scipy.special  # noqa: F401

        # with two processes the caller runs jobs 0 and 2 (predictive pass,
        # HZ) and the worker 1 and 3, about equal shares; job 1 comes before
        # HZ because it makes the checks (row count, KSG's N > k) that the
        # one-process loop meets first
        jobs += [lambda: _latent_diagnostics(q_w, data, priors, seed + 3),
                 lambda: {"hz_mu_z": float(hz_statistic(mu_z))},
                 lambda: {"js_z_prior": _js_to_prior(q_w, priors, seed + 4)}]
    fields = {}
    for part in fork_map(lambda i: jobs[i](), len(jobs)):
        fields.update(part)
    return MetricsReport(method=method, **fields)


def _latent_diagnostics(q_w, data, priors, seed):
    """Reconstruction error, KSG MI and Pearson of the latent means against
    x and y, and KS against prior draws at ``seed``."""
    mu_z, train = q_w.mu_z, data.view("train")
    if mu_z.shape[0] != train.x.shape[0]:
        raise ConfigError(
            f"model carries latent factors for {mu_z.shape[0]} training points "
            f"but the data has {train.x.shape[0]}; latent diagnostics need the "
            "training set the model was fit on"
        )
    prior_draws = np.random.default_rng(seed).normal(0.0, np.sqrt(priors.sigma2_z),
                                                     size=mu_z.size)
    return {
        "recon_mse": recon_mse(q_w, data),
        "mi_x_z": kraskov_mi(train.x, mu_z),
        "mi_y_z": kraskov_mi(train.y, mu_z),
        "pc_x_z": float(pearson_penalty(train.x, mu_z)),
        "pc_y_z": float(pearson_penalty(train.y, mu_z)),
        "ks_z_prior": ks_two_sample(mu_z.ravel(), prior_draws),
    }


def _js_to_prior(q_w, priors, seed):
    """JS divergence between the aggregated latent posterior and the prior."""
    mu_z, sigma_z = q_w.mu_z, np.asarray(q_w.sigma_z)
    n, kdim = mu_z.shape
    s2z = priors.sigma2_z

    def log_prior(pts):
        pts = np.atleast_2d(pts)
        return -0.5 * np.sum(pts * pts / s2z + np.log(2.0 * np.pi * s2z), axis=1)

    def sample_prior(r, m):
        return r.normal(0.0, np.sqrt(s2z), size=(m, kdim))

    def sample_agg(r, m):
        idx = r.integers(0, n, size=m)
        return mu_z[idx] + sigma_z[idx] * r.standard_normal((m, kdim))

    # a zero latent scale (an underflowed softplus) makes the mixture density
    # and so the divergence NaN, which the report's writer rejects
    with np.errstate(divide="ignore", invalid="ignore"):
        return js_divergence_mc(
            lambda pts: aggregated_posterior_logpdf(q_w, pts),
            sample_agg,
            log_prior,
            sample_prior,
            s=2000,
            seed=seed,
        )
