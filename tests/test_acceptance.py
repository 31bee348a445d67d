"""Acceptance suite: one test per release criterion.

Each test here is a single pass/fail gate (`pytest -v tests/test_acceptance.py`
prints one line per criterion). The cheap criteria check exact properties
against independent oracles; the expensive ones reproduce the directional
claims at desk scale (small epoch budgets, a handful of seeds) rather than
the multi-hour configurations behind the reported tables.
"""

import time

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.stats import pearsonr

import bnnlv.diffcore as dc
import bnnlv.vi as vi_mod
from bnnlv.data import DataSet, gen_synthetic, ground_truth_fn
from bnnlv.diffcore import Architecture, mlp_forward
from bnnlv.metrics import (
    avg_marginal_ll,
    js_divergence_mc,
    knn_entropy,
    kraskov_mi,
    picp_mpiw,
    uncertainty_decomposition,
)
from bnnlv.model import FixedFunction, PriorConfig, log_joint
from bnnlv.ncai import (
    NcaiConfig,
    hz_statistic,
    map_estimate,
    ncai_objective,
    objective_graph,
    offdiag_penalty,
    pearson_penalty,
)
from bnnlv.nonident import (
    SingleLayerWeights,
    bias_probability,
    layer_transform,
    node_transform,
    y_encoding_transform,
    LayerTransformSpec,
)
from bnnlv.train import TrainConfig, eb_update_sw, eb_update_sz, fork_map, train
from bnnlv.vi import elbo, elbo_graph, random_init

ONE_NODE = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(1,), output_dim=1)


def _one_node_w(w):
    return np.array([w, w, 0.0, 1.0, 0.0])


def test_c01_transform_exactness():
    start = time.time()
    rng = np.random.default_rng(0)

    for _ in range(100):
        w = rng.normal(0.0, 2.0)
        x = rng.standard_normal((25, 1))
        z = rng.standard_normal((25, 1))
        c = rng.uniform(0.5, 1.0)
        w_hat, z_hat = node_transform(w, x, z, c)
        before = mlp_forward(ONE_NODE, _one_node_w(w), x, z)
        after = mlp_forward(ONE_NODE, _one_node_w(float(w_hat)), x, z_hat)
        assert np.max(np.abs(before - after)) <= 1e-9

    arch = Architecture(input_dim_x=2, input_dim_z=2, hidden_layers=(5,), output_dim=1)
    for _ in range(100):
        weights = SingleLayerWeights(
            w_x=rng.standard_normal((5, 2)),
            w_z=rng.standard_normal((5, 2)),
            b=rng.standard_normal(5),
            w_out=rng.standard_normal((5, 1)),
            b_out=rng.standard_normal(1),
        )
        t = rng.standard_normal((2, 2)) + 3.0 * np.eye(2)
        spec = LayerTransformSpec(
            s=rng.standard_normal(2),
            u=rng.standard_normal(2),
            r=weights.w_z @ np.linalg.inv(t),
            t=t,
        )
        x = rng.standard_normal((20, 2))
        z = rng.standard_normal((20, 2))
        new_w, z_hat = layer_transform(weights, spec, x, z)
        before = mlp_forward(arch, weights.to_flat(arch), x, z)
        after = mlp_forward(arch, new_w.to_flat(arch), x, z_hat)
        assert np.max(np.abs(before - after)) <= 1e-9

    for i in range(100):
        n, h = int(rng.integers(10, 40)), int(rng.integers(2, 12))
        data = DataSet(
            x=rng.standard_normal((n, 1)),
            y=rng.normal(0.0, 3.0, size=(n, 1)),
            train_idx=np.arange(n),
            val_idx=np.empty(0, dtype=np.intp),
            test_idx=np.empty(0, dtype=np.intp),
        )
        enc_arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(h,), output_dim=1)
        weights, z_hat = y_encoding_transform(data, enc_arch)
        recon = mlp_forward(enc_arch, weights.to_flat(enc_arch), data.x, z_hat)
        assert np.max(np.abs(recon - data.y)) <= 1e-9

    assert time.time() - start < 5.0


def test_c02_asymptotic_bias_monte_carlo():
    start = time.time()
    n_values = [10, 100, 1000]

    node_priors = PriorConfig(sigma2_w=1.0, sigma2_z=0.01, sigma2_eps=0.1)
    rec = bias_probability(
        {"kind": "node", "c": 0.99}, n_values, 200, node_priors, 0.0, 1.0, seed=0
    )
    fracs = [r["frac_positive"] for r in rec]
    assert fracs == sorted(fracs)
    assert fracs[-1] >= 0.95

    layer_priors = PriorConfig(sigma2_w=1.0, sigma2_z=1.0, sigma2_eps=0.1)
    rec = bias_probability(
        {"kind": "layer", "t_scale": 0.5, "hidden": 5},
        n_values, 200, layer_priors, 0.0, 1.0, seed=0,
    )
    fracs = [r["frac_positive"] for r in rec]
    assert fracs == sorted(fracs)
    assert fracs[-1] >= 0.95

    assert time.time() - start < 120.0


@pytest.mark.slow
def test_c03_map_overfits_past_ground_truth():
    start = time.time()
    data = gen_synthetic("heavy_tail", seed=0, distill=True)
    priors = PriorConfig(sigma2_w=10.0, sigma2_z=0.01, sigma2_eps=0.1)
    train_view = data.view("train")
    gt_lj = log_joint(
        data.gt_arch, data.w_true, data.z_true[data.train_idx], train_view, priors
    )

    seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(0).spawn(10)]

    def random_start(i):
        fit = map_estimate(data, priors, data.gt_arch, init="random", learning_rate=0.01,
                           epochs=3000, seed=seeds[i])
        return len(fit.history) - 1, fit.log_joint

    starts = fork_map(random_start, len(seeds))
    _print_margins(
        ["method", "seed", "epochs", "log_joint", "minus_gt"],
        [("MAP", s, ep, lj, lj - gt_lj) for s, (ep, lj) in zip(seeds, starts)],
        f"random starts 100 nats or more above the ground truth ({gt_lj:.6g}): "
        f"{sum(lj - gt_lj >= 100.0 for _, lj in starts)} of {len(seeds)} (needs 1)",
    )
    best = max(lj for _, lj in starts)
    assert best - gt_lj >= 100.0
    assert time.time() - start < 600.0


def test_c04_gradients_match_finite_differences():
    # Penalty scales are set so the exponential terms stay O(1); with the
    # sharp defaults the objective is dominated by huge penalty constants
    # and central differences on unrelated coordinates cancel to zero in
    # double precision. The analytic gradients are scale-independent.
    start = time.time()
    data = gen_synthetic("heavy_tail", seed=0, sizes=(30, 5, 5))
    arch = Architecture(input_dim_x=1, input_dim_z=2, hidden_layers=(8,), output_dim=1)
    priors = PriorConfig(sigma2_w=1.0, sigma2_z=0.01, sigma2_eps=0.1)
    cfg = NcaiConfig(eps_t=1.0, eps_x=1.0, eps_y=1.0)
    q = random_init(arch, 30, seed=3)
    q.mu_z[:] = np.random.default_rng(9).normal(0.0, 0.1, size=q.mu_z.shape)
    view = data.view("train")
    n_mc, seed = 8, 11
    rng = np.random.default_rng(0)

    def sweep(build_graph, evaluate, n_coords):
        leaves = vi_mod._leaves_of(q)
        node = build_graph(leaves)
        dc.backward(node)
        grads = {k: leaves[k].grad for k in leaves}
        coords = []
        for name in ("mu_w", "rho_w", "mu_z", "rho_z"):
            arr = getattr(q, name)
            coords.extend((name, idx) for idx in np.ndindex(arr.shape))
        picks = rng.choice(len(coords), size=n_coords, replace=False)
        good = 0
        for ci in picks:
            name, idx = coords[ci]
            arr = getattr(q, name)
            h = 1e-5 * max(1.0, abs(arr[idx]))
            orig = arr[idx]
            arr[idx] = orig + h
            fp = evaluate()
            arr[idx] = orig - h
            fm = evaluate()
            arr[idx] = orig
            fd = (fp - fm) / (2.0 * h)
            an = grads[name][idx]
            good += abs(an - fd) / max(abs(fd), abs(an), 1e-7) <= 1e-4
        return good

    ok = sweep(
        lambda leaves: elbo_graph(arch, leaves, view.x, view.y, priors, n_mc, seed)[0],
        lambda: elbo(q, data, priors, n_mc=n_mc, seed=seed),
        100,
    )
    ok += sweep(
        lambda leaves: objective_graph(arch, leaves, view.x, view.y, priors, cfg, n_mc, seed)[0],
        lambda: ncai_objective(q, data, priors, cfg, n_mc=n_mc, seed=seed),
        100,
    )
    assert ok >= 190
    assert time.time() - start < 60.0


def test_c05_eb_updates_match_numerical_minimum():
    start = time.time()
    rng = np.random.default_rng(0)

    def golden_min(stat, dim, alpha, beta):
        def kl_part(s):
            return 0.5 * stat / s + 0.5 * dim * np.log(s) + (alpha - 1.0) * np.log(s) + beta / s

        return minimize_scalar(kl_part, bracket=(1e-3, 1.0, 1e3), method="golden").x

    for _ in range(50):
        n = int(rng.integers(2, 12))
        k = int(rng.integers(1, 4))
        mu = rng.standard_normal((n, k))
        var = rng.uniform(0.01, 2.0, size=(n, k))
        alpha = float(rng.uniform(1.5, 5.0))
        beta = float(rng.uniform(0.1, 2.0))
        target = golden_min(np.sum(var + mu * mu) / n, k, alpha, beta)
        assert abs(eb_update_sz(mu, var, alpha, beta) - target) / target <= 1e-6

        h = int(rng.integers(1, 20))
        mu_w = rng.standard_normal(h)
        var_w = rng.uniform(0.01, 2.0, size=h)
        target = golden_min(np.sum(var_w + mu_w * mu_w), h, alpha, beta)
        assert abs(eb_update_sw(mu_w, var_w, alpha, beta) - target) / target <= 1e-6

    assert time.time() - start < 30.0


def test_c06_penalty_oracles():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((200, 2))
    assert abs(hz_statistic(5.0 * x + 3.0) - hz_statistic(x)) <= 1e-8

    wins = 0
    for seed in range(100):
        r = np.random.default_rng(seed)
        gauss = r.standard_normal((1000, 1))
        tri = r.triangular(-1.0, 0.0, 1.0, size=(1000, 1))
        wins += hz_statistic(tri) > hz_statistic(gauss)
    assert wins >= 95

    corners = np.array([[1.0, 1.0], [-1.0, -1.0]])
    assert offdiag_penalty(corners) == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-12)
    uncorr = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    assert offdiag_penalty(uncorr) == 0.0

    t = np.linspace(0.0, 1.0, 40).reshape(-1, 1)
    assert pearson_penalty(t, 2.0 * t + 1.0) == pytest.approx(1.0, abs=1e-12)
    assert pearson_penalty(t, -0.5 * t) == pytest.approx(1.0, abs=1e-12)
    a = rng.standard_normal((300, 1))
    b = rng.standard_normal((300, 1))
    expected = abs(pearsonr(a.ravel(), b.ravel()).statistic)
    assert pearson_penalty(a, b) == pytest.approx(expected, abs=1e-12)


def test_c07_metric_estimators_are_calibrated():
    start = time.time()
    rng = np.random.default_rng(0)

    a = rng.standard_normal((1000, 1))
    b = rng.standard_normal((1000, 1))
    assert abs(kraskov_mi(a, b)) <= 0.05

    rho = 0.9
    u = rng.standard_normal(2000)
    v = rho * u + np.sqrt(1.0 - rho**2) * rng.standard_normal(2000)
    truth = -0.5 * np.log(1.0 - rho**2)
    assert kraskov_mi(u, v) == pytest.approx(truth, abs=0.1)

    assert knn_entropy(rng.standard_normal(4000)) == pytest.approx(1.4189, abs=0.05)

    logp = lambda pts: -0.5 * (pts.ravel() ** 2 + np.log(2.0 * np.pi))
    sample = lambda r, s: r.standard_normal((s, 1))
    assert js_divergence_mc(logp, sample, logp, sample, s=10_000, seed=1) == pytest.approx(
        0.0, abs=0.01
    )

    data = gen_synthetic("depeweg", seed=2, sizes=(10, 0, 250))
    truth_fn = FixedFunction(ground_truth_fn("depeweg"), input_dim_z=1, output_dim=1)
    priors = PriorConfig(sigma2_z=1.0, sigma2_eps=0.1)
    picp, _ = picp_mpiw(truth_fn, data, priors, which="test", s=4000, seed=0)
    assert 0.93 <= picp <= 0.97

    assert time.time() - start < 120.0


DESK_ARCH = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(50,), output_dim=1)
DESK_CFG = TrainConfig(epochs=3000, restarts=1, warm_epochs=2000, init="warm")


# NCAI first: a desk NCAI run costs about three BBB runs, and fork_map's
# caller takes indices 0, k, 2k, ..., so the NCAI runs spread over the processes
DESK_RUNS = [(method, seed) for method in ("NCAI", "BNNLV_BBB") for seed in range(5)]


def _print_margins(header, rows, wins):
    """Print one row per run of a gate and its win count, so that a failure
    or ``pytest -rP`` shows the margin."""
    for row in [header, *rows]:
        print("  ".join(f"{c:>11.6g}" if isinstance(c, float) else f"{c:>11}" for c in row))
    print(wins)


def _desk_runs(name, sigma2_z, score):
    """{(method, seed): (epochs run, *score(data, priors, q, seed))} over
    DESK_RUNS, one fork_map job per run."""
    def job(i):
        method, seed = DESK_RUNS[i]
        data = gen_synthetic(name, seed=seed)
        priors = PriorConfig(sigma2_w=1.0, sigma2_z=sigma2_z, sigma2_eps=0.1, eb_w=True)
        q, history = train(data, DESK_ARCH, priors, NcaiConfig(), DESK_CFG, method, seed=seed)
        return (len(history), *score(data, priors, q, seed))

    return dict(zip(DESK_RUNS, fork_map(job, len(DESK_RUNS))))


def _print_desk_margins(runs, scores, wins):
    _print_margins(["method", "seed", "epochs", *scores],
                   [(method, seed, *runs[method, seed]) for method, seed in DESK_RUNS], wins)


@pytest.mark.slow
def test_c08_constrained_beats_plain_descent_on_depeweg():
    start = time.time()

    def score(data, priors, q, seed):
        train_view = data.view("train")
        return (
            avg_marginal_ll(q, data, priors, which="test", s=2000, seed=seed),
            abs(pearson_penalty(train_view.y, q.mu_z)),
            hz_statistic(q.mu_z),
        )

    runs = _desk_runs("depeweg", 1.0, score)
    ll_wins = pc_wins = hz_wins = 0
    for seed in range(5):
        ncai, bbb = runs["NCAI", seed], runs["BNNLV_BBB", seed]
        ll_wins += ncai[1] > bbb[1]
        pc_wins += ncai[2] < bbb[2]
        hz_wins += ncai[3] < bbb[3]
    _print_desk_margins(runs, ["test_avg_ll", "abs_pc_y", "hz"],
                        f"NCAI wins out of 5 (each needs 4): test_avg_ll {ll_wins}, "
                        f"abs_pc_y {pc_wins}, hz {hz_wins}")
    assert ll_wins >= 4
    assert pc_wins >= 4
    assert hz_wins >= 4
    assert time.time() - start < 3600.0


@pytest.mark.slow
def test_c09_constraints_suppress_input_latent_dependence():
    runs = _desk_runs("heavy_tail", 0.01,
                      lambda data, priors, q, seed: (kraskov_mi(data.view("train").x, q.mu_z),))
    mi_wins = sum(runs["NCAI", seed][1] < runs["BNNLV_BBB", seed][1] for seed in range(5))
    _print_desk_margins(runs, ["mi_x_z"], f"NCAI wins out of 5 (needs 4): mi_x_z {mi_wins}")
    assert mi_wins >= 4


def test_c10_uncertainty_decomposition_tracks_noise_amplitude():
    truth_fn = FixedFunction(ground_truth_fn("depeweg"), input_dim_z=1, output_dim=1)
    priors = PriorConfig(sigma2_z=1.0, sigma2_eps=0.1)
    for seed in range(5):
        at0 = uncertainty_decomposition(truth_fn, priors, np.array([0.0]), s_w=30, s_y=400, seed=seed)
        at4 = uncertainty_decomposition(truth_fn, priors, np.array([4.0]), s_w=30, s_y=400, seed=seed)
        assert at0["aleatoric"] > at4["aleatoric"]

    arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(3,), output_dim=1)
    w = np.random.default_rng(10).standard_normal(arch.param_count)
    point = FixedFunction(lambda x, z: mlp_forward(arch, w, x, z), input_dim_z=1, output_dim=1)
    out = uncertainty_decomposition(point, priors, np.array([0.5]), s_w=40, s_y=400, seed=0)
    assert abs(out["epistemic"]) <= 0.05
    assert out["total"] == pytest.approx(out["aleatoric"], abs=0.05)
