"""Training loop: Adam, empirical-Bayes prior updates, restarts.

One epoch is one full-batch gradient step on the chosen objective
(negative ELBO, or the constrained objective for the NCAI method), with
the prior variances optionally re-estimated in closed form before each
step. Restarts are independent seeded runs, spread over the usable CPUs
by ``fork_map``; the winner is picked by average marginal log-likelihood
on the validation split.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from . import diffcore as dc
from . import ncai as ncai_mod
from . import vi as vi_mod
from .exceptions import ConfigError, DivergenceError

METHODS = ("BNN", "BNNLV_BBB", "NCAI")


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and schedule settings."""

    learning_rate: float = 0.01
    epochs: int = 3000
    restarts: int = 10
    n_mc: int = 1
    warm_epochs: int = 2000
    init: str = "auto"

    def __post_init__(self):
        if not 0.0 < self.learning_rate < np.inf:
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.restarts < 1:
            raise ConfigError(f"restarts must be >= 1, got {self.restarts}")
        if self.n_mc < 1:
            raise ConfigError(f"n_mc must be >= 1, got {self.n_mc}")
        if self.warm_epochs < 0:  # 0 is a warm or MAP start with no fit
            raise ConfigError(f"warm_epochs must be >= 0, got {self.warm_epochs}")
        if self.init not in ("auto", "random", "warm", "ground_truth", "map"):
            raise ConfigError(f"unknown init scheme {self.init!r}")


def adam_init(params):
    """Fresh Adam state for a list of arrays."""
    return {
        "t": 0,
        "m": [np.zeros_like(p) for p in params],
        "v": [np.zeros_like(p) for p in params],
    }


def adam_step(params, grads, state, learning_rate, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam update; returns (new params, new state).

    The gradients are taken as given: ``optimize`` checks them for non-finite
    values before it steps.
    """
    t = state["t"] + 1
    new_params, new_m, new_v = [], [], []
    for p, g, m, v in zip(params, grads, state["m"], state["v"]):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        new_params.append(p - learning_rate * m_hat / (np.sqrt(v_hat) + eps))
        new_m.append(m)
        new_v.append(v)
    return new_params, {"t": t, "m": new_m, "v": new_v}


def optimize(loss_fn, params, learning_rate, epochs):
    """Minimize ``loss_fn`` over the named arrays in ``params`` by Adam.

    Each of the ``epochs`` epochs wraps every block of ``params`` in a fresh
    leaf, builds the objective with ``loss_fn(leaves)``, backpropagates and
    takes one Adam step at ``learning_rate``; there is no early stop.
    ``params`` is updated in place; returns the per-epoch objective values.

    Raises DivergenceError on a non-finite objective, on a non-finite
    gradient, naming the first such block in ``params`` order, or on a
    DivergenceError of ``loss_fn``, whose message and diagnostics gain the
    epoch.
    """
    names = list(params)
    state = adam_init([params[k] for k in names])
    values = []
    for epoch in range(epochs):
        leaves = {k: dc.leaf(params[k]) for k in names}
        try:
            obj = loss_fn(leaves)
        except DivergenceError as e:
            raise DivergenceError(f"{e} at epoch {epoch}", history=values,
                                  diagnostics={**e.diagnostics, "epoch": epoch}) from e
        value = float(obj.value)
        if not np.isfinite(value):
            raise DivergenceError(f"objective became non-finite at epoch {epoch}",
                                  history=values, diagnostics={"epoch": epoch})
        dc.backward(obj)
        values.append(value)
        grads = []
        for k in names:
            g = leaves[k].grad
            if g is None:  # a block the objective does not depend on
                g = np.zeros_like(params[k])
            elif not np.all(np.isfinite(g)):
                raise DivergenceError(f"non-finite gradient in block {k} at epoch {epoch}",
                                      history=values, diagnostics={"block": k, "epoch": epoch})
            grads.append(g)
        stepped, state = adam_step([params[k] for k in names], grads, state, learning_rate)
        params.update(zip(names, stepped))
    return values


def eb_update_sz(mu_z, var_z, alpha, beta):
    """Closed-form refresh of the latent prior variance.

    Posterior-mean solution under the inverse-gamma hyper-prior using the
    per-observation average of E[||z_n||^2] under the variational factors:
    s* = (2 beta + mean_n sum_k (var + mu^2)) / (K + 2 alpha - 2).
    """
    mu_z = np.atleast_2d(np.asarray(mu_z, dtype=np.float64))
    var_z = np.atleast_2d(np.asarray(var_z, dtype=np.float64))
    return _eb_variance(mu_z, var_z, "z", alpha, beta)


def eb_update_sw(mu_w, var_w, alpha, beta):
    """Closed-form refresh of the weight prior variance.

    s* = (2 beta + sum_i (var + mu^2)) / (H + 2 alpha - 2) with H the
    total number of weights.
    """
    # one row of all H weights
    mu_w = np.asarray(mu_w, dtype=np.float64).reshape(1, -1)
    var_w = np.asarray(var_w, dtype=np.float64).reshape(1, -1)
    return _eb_variance(mu_w, var_w, "w", alpha, beta)


def _eb_variance(mu, var, block, alpha, beta):
    """(2 beta + mean over rows of sum(var + mu^2)) / (dim + 2 alpha - 2) for
    (rows, dim) moments of ``block`` "w" or "z": both closed-form refreshes."""
    if mu.shape != var.shape:
        raise ValueError(f"mu_{block} and var_{block} must have matching shapes")
    if np.any(var < 0.0):
        raise ValueError(f"var_{block} must be non-negative")
    rows, dim = mu.shape
    if rows < 1 or dim < 1:
        raise ValueError(f"{'weight' if block == 'w' else 'latent'} block must be non-empty")
    if dim + 2.0 * alpha - 2.0 <= 0.0:
        raise ValueError("alpha too small for a defined update")
    stat = float(np.sum(var + mu * mu) / rows)
    return (2.0 * beta + stat) / (dim + 2.0 * alpha - 2.0)


class TrainHistory:
    """Per-epoch trace of the objective and its pieces, one list per history.csv column.

    ``seed`` is the run's seed; ``train`` sets ``priors``, the priors the run
    ended on, and ``train_restarts`` sets ``score``, the run's validation score.
    """

    COLUMNS = ("epoch", "phase", "objective", "elbo", "hz", "offdiag", "pc_x", "pc_y", "s_w", "s_z")

    def __init__(self, seed):
        self.columns = {name: [] for name in self.COLUMNS}
        self.seed = seed
        self.priors = None
        self.score = None

    def append(self, objective, parts, priors, phase):
        row = {
            "epoch": len(self),
            "phase": phase,
            "objective": objective,
            "elbo": float(dc._val(parts["elbo"])),
            **{k: float(dc._val(parts[k])) if k in parts else np.nan
               for k in ("hz", "offdiag", "pc_x", "pc_y")},
            "s_w": priors.sigma2_w,
            "s_z": priors.sigma2_z,
        }
        for name, column in self.columns.items():
            column.append(row[name])

    def __len__(self):
        return len(self.columns["epoch"])

    def rows(self):
        return zip(*self.columns.values())


def _init_posterior(data, arch, priors, train_cfg, method, rng):
    scheme = train_cfg.init
    if scheme == "auto":
        scheme = "warm" if method == "NCAI" else "random"
    n = len(data.view("train").x)
    if scheme == "random":
        return vi_mod.random_init(arch, n, int(rng.integers(0, 2**32))), scheme
    # a warm start and a MAP start fit warm_epochs epochs at the run's learning rate
    lr, fit_epochs = train_cfg.learning_rate, train_cfg.warm_epochs
    if scheme == "warm":
        return ncai_mod.warm_start(data, arch, lr, fit_epochs, int(rng.integers(0, 2**32))), scheme
    if scheme == "map":
        res = ncai_mod.map_estimate(data, priors, arch, "random", lr, fit_epochs,
                                    seed=int(rng.integers(0, 2**32)))
        w0, z0 = res.w, res.z
    else:  # ground_truth
        w0, z0 = data.ground_truth(arch)
    q = vi_mod.random_init(arch, n, int(rng.integers(0, 2**32)))
    return replace(q, mu_w=w0, mu_z=z0), scheme


def train(data, arch, priors, ncai_cfg, train_cfg, method, seed):
    """Fit one posterior with the given method; returns (posterior, history).

    Methods: "BNN" (no latent inputs), "BNNLV_BBB" (plain negative-ELBO
    descent), "NCAI" (warm start plus the constrained objective). The run
    is deterministic given (seed, configuration).
    """
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}; choose one of {METHODS}")
    if method == "BNN" and arch.input_dim_z != 0:
        raise ConfigError("method BNN requires input_dim_z == 0")
    if method != "BNN" and arch.input_dim_z < 1:
        raise ConfigError(f"method {method} requires input_dim_z >= 1")
    ncai_cfg = ncai_cfg or ncai_mod.NcaiConfig()
    cfg = ncai_cfg if method == "NCAI" else replace(ncai_cfg, lambda1=0.0, lambda2=0.0, lambda3=0.0)

    rng = np.random.default_rng(seed)
    q, scheme = _init_posterior(data, arch, priors, train_cfg, method, rng)
    view = data.view("train")
    priors = replace(priors)
    history = TrainHistory(seed)
    epoch_seed = np.random.default_rng(int(rng.integers(0, 2**32)))
    # a start from fitted or generative means first fits only the scales
    phases = ["variance", "joint"] if scheme in ("ground_truth", "map") else ["joint"]

    blocks = dict(zip(vi_mod.BLOCKS, q.params()))

    def objective(leaves):
        nonlocal priors
        # blocks the current phase does not train enter the graph as frozen leaves
        leaves = {**{k: dc.leaf(v) for k, v in blocks.items() if k not in leaves}, **leaves}
        if priors.eb_w:
            sw = dc.softplus(leaves["rho_w"].value)
            priors = replace(priors, sigma2_w=eb_update_sw(leaves["mu_w"].value, sw * sw, priors.ig_alpha, priors.ig_beta))
        if priors.eb_z and arch.input_dim_z > 0:
            sz = dc.softplus(leaves["rho_z"].value)
            priors = replace(priors, sigma2_z=eb_update_sz(leaves["mu_z"].value, sz * sz, priors.ig_alpha, priors.ig_beta))
        obj, parts = ncai_mod.objective_graph(
            arch, leaves, view.x, view.y, priors, cfg, train_cfg.n_mc,
            int(epoch_seed.integers(0, 2**32)),
        )
        history.append(float(obj.value), parts, priors, phase)
        return obj

    for phase in phases:
        # a variance phase trains the scale blocks, rho_w and rho_z
        trainable = vi_mod.BLOCKS[1::2] if phase == "variance" else vi_mod.BLOCKS
        stepped = {k: blocks[k] for k in trainable}
        optimize(objective, stepped, train_cfg.learning_rate, train_cfg.epochs)
        blocks.update(stepped)

    q = vi_mod.MeanFieldPosterior(arch, **blocks)
    history.priors = priors
    return q, history


def restart_select(q, priors, data, s_ll=2000, seed=0):
    """Score one trained restart: its validation average marginal
    log-likelihood at ``seed`` and S=``s_ll`` (the training split's when
    ``data`` has no validation rows). ``train_restarts`` keeps the restart
    with the highest score.
    """
    from .metrics import avg_marginal_ll

    which = "val" if len(data.val_idx) else "train"
    return avg_marginal_ll(q, data, priors, which=which, s=s_ll, seed=seed)


def train_restarts(data, arch, priors, ncai_cfg, train_cfg, method, seed, s_ll=2000):
    """Run seeded restarts and return (best posterior, final priors, histories,
    index, score): the winner's ``restart_select`` score at ``seed`` and S=``s_ll``.

    Each restart is trained and scored as one job, and the jobs run through
    ``fork_map``; the result does not depend on how many processes ran them.
    Each history carries its restart's ``seed``, final ``priors`` and ``score``.
    """
    seeds = [int(ss.generate_state(1)[0])
             for ss in np.random.SeedSequence(seed).spawn(train_cfg.restarts)]

    def job(i):
        q, history = train(data, arch, priors, ncai_cfg, train_cfg, method, seeds[i])
        history.score = restart_select(q, history.priors, data, s_ll=s_ll, seed=seed)
        return q, history

    results = fork_map(job, len(seeds))
    scores = [h.score for _, h in results]
    best = int(np.argmax(scores))
    q, history = results[best]
    return q, history.priors, [h for _, h in results], best, scores[best]


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


_JOB = None  # fork_map's job while a call runs; forked workers inherit it


def _run_job(i):
    return _JOB(i)


def fork_map(fn, n):
    """``[fn(0), ..., fn(n-1)]``, on up to one process per usable CPU.

    With k = min(n, usable CPUs) processes, the caller computes indices
    0, k, 2k, ... itself, and k - 1 forked workers compute the others. A
    worker inherits ``fn`` and what it closes over from the caller's memory,
    so only indices and results are pickled. The caller collects the results
    in index order, so they, and the exception raised, are those of the
    plain loop: the lowest index that raises wins, no caller index after it
    runs, and the worker indices after it that have not started are
    cancelled. No worker outlives the call. Without ``fork``, or in a
    process that runs other threads (where forking can deadlock), the loop
    runs in the caller.

    The order has a price: before its index i + k the caller waits for the
    workers' indices below it, so a worker job that outlasts the caller's
    index i leaves the caller idle. Restarts and MAP starts cost about the
    same each, and a report's first job (the predictive pass) is its
    longest, so the callers in this package do not wait. List the
    expensive jobs first.
    """
    k = min(n, _usable_cpus())
    if k > 1:
        import multiprocessing
        import threading

        if "fork" not in multiprocessing.get_all_start_methods() or threading.active_count() > 1:
            k = 1
    if k <= 1:
        return [fn(i) for i in range(n)]
    from concurrent.futures import ProcessPoolExecutor

    global _JOB
    _JOB = fn
    pool = ProcessPoolExecutor(k - 1, mp_context=multiprocessing.get_context("fork"))
    try:
        theirs = pool.map(_run_job, [i for i in range(n) if i % k])
        return [next(theirs) if i % k else fn(i) for i in range(n)]
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
        _JOB = None
