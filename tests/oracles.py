"""Independent reference implementations used to check the package.

Everything here is deliberately written the slow, obvious way and shares
no code with the implementations under test, except ``composite_mlp_forward``,
``composite_hz_statistic`` and ``composite_pearson_penalty``, which compose
generic tape ops to give value and gradient references for the fused network,
Henze-Zirkler and Pearson ops, and the per-sample ELBO and per-draw
predictive loops, which run the single-draw forward pass once per Monte
Carlo draw to check the batched paths. The generic ops that only these
composites use (``exp``, ``absolute``, ``take``, ``reshape``, ``concat``,
``leaky_relu`` and the matrix inverse) are defined here, on ``diffcore``'s
``_op``.
The dense estimators hold every pairwise N x N (or M x N) array and check the
k-d tree and row-chunked versions. ``point_mass`` builds the degenerate weight
posterior that several metric tests score.
"""
import functools

import numpy as np
from scipy.special import digamma, logsumexp

from bnnlv import diffcore as dc
from bnnlv.model import FixedFunction, log_likelihood
from bnnlv.vi import kl_diag_gaussian


def finite_diff_grad(f, x, h=1e-5):
    """Central finite differences of a scalar function over a flat vector."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        hi = np.zeros_like(x)
        hi.flat[i] = h
        g.flat[i] = (f(x + hi) - f(x - hi)) / (2.0 * h)
    return g


def finite_diff_coord(f, x, i, h=1e-5):
    """Central finite difference of one coordinate only."""
    x = np.asarray(x, dtype=np.float64)
    hi = np.zeros_like(x)
    hi.flat[i] = h
    return (f(x + hi) - f(x - hi)) / (2.0 * h)


def rel_err(approx, exact, floor=1e-7):
    """Relative error with an absolute floor for near-zero gradients."""
    denom = max(abs(exact), abs(approx), floor)
    return abs(approx - exact) / denom


def golden_section_min(f, lo, hi, tol=1e-12, max_iter=500):
    """Golden-section search for the minimum of a unimodal 1-D function."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if abs(b - a) < tol * (abs(a) + abs(b)):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def naive_mlp_forward(dims, alpha, w, x_row):
    """Loop-based forward pass through a leaky-ReLU net for one input row.

    ``dims`` is the full list of layer widths including input and output;
    ``w`` is the flat weight vector in (weights row-major, then bias) order.
    """
    h = list(x_row)
    offset = 0
    for layer in range(len(dims) - 1):
        din, dout = dims[layer], dims[layer + 1]
        W = np.array(w[offset : offset + din * dout]).reshape(din, dout)
        offset += din * dout
        b = np.array(w[offset : offset + dout])
        offset += dout
        pre = [sum(h[i] * W[i, j] for i in range(din)) + b[j] for j in range(dout)]
        if layer < len(dims) - 2:
            h = [p if p > 0 else alpha * p for p in pre]
        else:
            h = pre
    return np.array(h)


def exp(a):
    out = np.exp(dc._val(a))
    return dc._op("exp", out, (a, lambda g, o=out: g * o))


def absolute(a):
    av = dc._val(a)
    return dc._op("abs", np.abs(av), (a, lambda g, x=av: g * np.sign(x)))


def take(a, key):
    """Slice or index; the backward pass scatter-adds into the source shape."""
    av = dc._val(a)

    def vjp(g, shape=av.shape, key=key):
        z = np.zeros(shape)
        np.add.at(z, key, g)
        return z

    return dc._op("take", av[key], (a, vjp))


def reshape(a, shape):
    av = dc._val(a)
    return dc._op("reshape", av.reshape(shape), (a, lambda g, s=av.shape: g.reshape(s)))


def concat(parts, axis=0):
    vals = [dc._val(p) for p in parts]
    out = np.concatenate(vals, axis=axis)
    pairs, offset = [], 0
    for p, v in zip(parts, vals):
        width = v.shape[axis]
        sl = [slice(None)] * out.ndim
        sl[axis] = slice(offset, offset + width)
        pairs.append((p, lambda g, sl=tuple(sl): g[sl]))
        offset += width
    return dc._op("concat", out, *pairs)


def leaky_relu(a, alpha=0.01):
    """Piecewise-linear activation x -> max(x, alpha*x) for 0 < alpha < 1.

    The subgradient at exactly zero is taken from the negative branch.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"leaky_relu slope must lie in (0, 1), got {alpha}")
    av = dc._val(a)
    out = np.multiply(av, alpha, out=np.empty_like(av))
    np.maximum(av, out, out=out)
    return dc._op("leaky_relu", out, (a, lambda g, x=av: g * np.maximum(x > 0.0, alpha)))


def composite_mlp_forward(arch, w, x, z=None):
    """``diffcore.mlp_forward`` built from generic tape ops, layer by layer:
    the weight and bias slices as ``take`` and ``reshape`` nodes, then
    ``matmul``, ``add`` and ``leaky_relu``, with x and z joined by ``concat``."""
    lead = dc._val(w).shape[:-1]
    if z is None:
        h = x
    else:
        h = concat([np.broadcast_to(x, (*lead, *x.shape)), z], axis=-1)
    slices = arch.layer_slices()
    for i, (w_sl, b_sl, din, dout) in enumerate(slices):
        wl = reshape(take(w, (..., w_sl)), (*lead, din, dout))
        bl = take(w, (..., b_sl))
        if lead:
            bl = reshape(bl, (*lead, 1, dout))
        h = dc.add(dc.matmul(h, wl), bl)
        if i < len(slices) - 1:
            h = leaky_relu(h, arch.leaky_slope)
    return h


def naive_hz_statistic(points, ridge_rel=1e-6, ridge_floor=1e-12):
    """Double-loop Henze-Zirkler statistic for multivariate normality."""
    X = np.asarray(points, dtype=np.float64)
    n, p = X.shape
    Xc = X - X.mean(axis=0)
    S = (Xc.T @ Xc) / n
    S = S + (ridge_rel * np.trace(S) / p + ridge_floor) * np.eye(p)
    Sinv = np.linalg.inv(S)
    b = ((2 * p + 1) / 4.0) ** (1.0 / (p + 4)) * n ** (1.0 / (p + 4)) / np.sqrt(2.0)
    term1 = 0.0
    for j in range(n):
        for k in range(n):
            d = Xc[j] - Xc[k]
            term1 += np.exp(-(b**2) / 2.0 * (d @ Sinv @ d))
    term1 /= n * n
    term2 = 0.0
    for j in range(n):
        term2 += np.exp(-(b**2) / (2.0 * (1.0 + b**2)) * (Xc[j] @ Sinv @ Xc[j]))
    term2 *= 2.0 * (1.0 + b**2) ** (-p / 2.0) / n
    term3 = (1.0 + 2.0 * b**2) ** (-p / 2.0)
    return n * (term1 - term2 + term3)


def _tape_inverse(a):
    """Matrix inverse of a square 2-D array as a tape op."""
    out = np.linalg.inv(dc._val(a))
    return dc._op("inverse", out, (a, lambda g, o=out: -o.T @ g @ o.T))


def composite_hz_statistic(points, ridge_rel=1e-6):
    """Henze-Zirkler statistic built from generic tape ops, N x N arrays and all."""
    n, p = dc._val(points).shape
    xc = dc.add(points, dc.neg(dc.mean_(points, axis=0, keepdims=True)))
    cov = dc.mul(dc.matmul(dc.transpose(xc), xc), 1.0 / n)
    trace = dc.mul(dc.sum_(dc.mul(xc, xc)), 1.0 / n)
    ridge = dc.add(dc.mul(trace, ridge_rel / p), 1e-12)
    cov_inv = _tape_inverse(dc.add(cov, dc.mul(ridge, np.eye(p))))

    t = dc.matmul(xc, cov_inv)
    dj = dc.sum_(dc.mul(xc, t), axis=1)
    cross = dc.matmul(t, dc.transpose(xc))
    djk = dc.add(
        dc.add(reshape(dj, (n, 1)), reshape(dj, (1, n))), dc.mul(cross, -2.0)
    )

    b2 = (((2 * p + 1) / 4.0) ** (1.0 / (p + 4)) * n ** (1.0 / (p + 4)) / np.sqrt(2.0)) ** 2
    term1 = dc.mul(dc.sum_(exp(dc.mul(djk, -b2 / 2.0))), 1.0 / (n * n))
    coef2 = 2.0 * (1.0 + b2) ** (-p / 2.0) / n
    term2 = dc.mul(dc.sum_(exp(dc.mul(dj, -b2 / (2.0 * (1.0 + b2))))), coef2)
    term3 = (1.0 + 2.0 * b2) ** (-p / 2.0)
    return dc.mul(dc.add(dc.add(term1, dc.neg(term2)), term3), float(n))


def composite_pearson_penalty(a, b):
    """Mean absolute Pearson correlation over the column pairs of (a, b), one
    chain of generic tape ops per pair; a pair with a zero-variance column is
    skipped, so with every pair skipped the result is the float 0.0."""
    av = np.asarray(a, dtype=np.float64)
    ac = av - av.mean(axis=0)
    ssa = (ac * ac).sum(axis=0)
    d, k = ac.shape[1], dc._val(b).shape[1]
    bc = dc.add(b, dc.neg(dc.mean_(b, axis=0, keepdims=True)))
    total = 0.0
    for j in range(k):
        col = take(bc, (slice(None), j))
        ssb = dc.sum_(dc.mul(col, col))
        if float(dc._val(ssb)) == 0.0:
            continue
        for i in range(d):
            if ssa[i] == 0.0:
                continue
            num = dc.sum_(dc.mul(col, ac[:, i]))
            corr = dc.div(num, dc.sqrt(dc.mul(ssb, float(ssa[i]))))
            total = dc.add(total, absolute(corr))
    return dc.mul(total, 1.0 / (d * k))


def _jitter(a, seed):
    scale = max(1.0, float(np.max(np.abs(a)))) if a.size else 1.0
    return a + 1e-10 * scale * np.random.default_rng(seed).standard_normal(a.shape)


def _chebyshev_pairwise(a):
    d = np.abs(a[:, None, 0] - a[None, :, 0])
    for c in range(1, a.shape[1]):
        np.maximum(d, np.abs(a[:, None, c] - a[None, :, c]), out=d)
    return d


def dense_kraskov_mi(a, b, k=5):
    """KSG mutual information from full N x N Chebyshev distance matrices,
    with the tie jitter ``metrics.kraskov_mi`` applies."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    a = _jitter(a[:, None] if a.ndim == 1 else a, seed=0)
    b = _jitter(b[:, None] if b.ndim == 1 else b, seed=1)
    n = a.shape[0]
    da, db = _chebyshev_pairwise(a), _chebyshev_pairwise(b)
    joint = np.maximum(da, db)
    np.fill_diagonal(joint, np.inf)
    eps = np.partition(joint, k - 1, axis=1)[:, k - 1]
    np.fill_diagonal(da, np.inf)
    np.fill_diagonal(db, np.inf)
    nx = np.sum(da < eps[:, None], axis=1)
    ny = np.sum(db < eps[:, None], axis=1)
    return float(digamma(k) + digamma(n) - np.mean(digamma(nx + 1) + digamma(ny + 1)))


def dense_mixture_logpdf(mu, var, points):
    """Log density of the equal-weight Gaussian mixture with diagonal
    components (mu, var), from the full (M, N) component matrix."""
    diff = points[:, None, :] - mu[None, :, :]
    comp = -0.5 * np.sum(diff * diff / var[None, :, :] + np.log(2.0 * np.pi * var)[None], axis=2)
    return logsumexp(comp, axis=1) - np.log(mu.shape[0])


def naive_ks_statistic(a, b):
    """Exhaustive two-sample Kolmogorov-Smirnov statistic."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    best = 0.0
    for t in np.concatenate([a, b]):
        fa = np.mean(a <= t)
        fb = np.mean(b <= t)
        best = max(best, abs(fa - fb))
    return best


def gaussian_entropy(var):
    """Differential entropy of a 1-D Gaussian with the given variance."""
    return 0.5 * np.log(2.0 * np.pi * np.e * var)


def per_sample_elbo_graph(arch, leaves, x, y, priors, n_mc, seed):
    """``vi.elbo_graph`` with one reparameterisation, forward pass and
    log-likelihood per Monte Carlo sample, from the same rng draws; each
    scale block's one softplus feeds every draw and the KL."""
    rng = np.random.default_rng(seed)
    has_z = arch.input_dim_z > 0
    sigma_w = dc.softplus(leaves["rho_w"])
    sigma_z = dc.softplus(leaves["rho_z"]) if has_z else None

    ll_sum = None
    for _ in range(n_mc):
        eps_w = rng.standard_normal(dc._val(leaves["mu_w"]).shape)
        w = dc.add(leaves["mu_w"], dc.mul(sigma_w, eps_w))
        if has_z:
            eps_z = rng.standard_normal((x.shape[0], arch.input_dim_z))
            Z = dc.add(leaves["mu_z"], dc.mul(sigma_z, eps_z))
        else:
            Z = None
        ll = log_likelihood(arch, w, Z, x, y, priors.sigma2_eps)
        ll_sum = ll if ll_sum is None else dc.add(ll_sum, ll)
    ell = dc.mul(ll_sum, 1.0 / n_mc)

    kl_w = kl_diag_gaussian(leaves["mu_w"], dc.mul(sigma_w, sigma_w), priors.sigma2_w)
    if has_z:
        kl_z = kl_diag_gaussian(leaves["mu_z"], dc.mul(sigma_z, sigma_z), priors.sigma2_z)
    else:
        kl_z = 0.0
    return dc.add(ell, dc.neg(dc.add(kl_w, kl_z)))


def per_draw_predictive_means(q_w, priors, X, S, rng):
    """``model.predictive_means`` with one function and one forward pass per
    draw: the weights mu_w + softplus(rho_w) * standard_normal(P) (a
    ``FixedFunction``'s function from ``draw_function``), then the prior
    latents from ``rng.normal(0, sd_z, (N, K))``."""
    n, k = X.shape[0], q_w.input_dim_z
    out = np.empty((S, n, q_w.output_dim))
    for s in range(S):
        if isinstance(q_w, FixedFunction):
            f = q_w.draw_function(rng)
        else:
            w = q_w.mu_w + dc.softplus(q_w.rho_w) * rng.standard_normal(q_w.arch.param_count)
            f = functools.partial(dc.mlp_forward, q_w.arch, w)
        z = rng.normal(0.0, np.sqrt(priors.sigma2_z), size=(n, k)) if k > 0 else None
        out[s] = np.reshape(f(X, z), (n, -1))
    return out


def point_mass(arch, w):
    """The network at one weight vector ``w``, as a ``FixedFunction``: a
    weight posterior with all its mass on ``w``."""
    return FixedFunction(
        lambda x, z: dc.mlp_forward(arch, w, x, z),
        input_dim_z=arch.input_dim_z, output_dim=arch.output_dim,
    )
