import importlib
import multiprocessing
import os
import threading
import time

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from bnnlv import diffcore as dc
from bnnlv.data import DataSet, gen_synthetic
from bnnlv.diffcore import Architecture, mlp_forward
from bnnlv.exceptions import ConfigError, DivergenceError
from bnnlv.metrics import avg_marginal_ll
from bnnlv.model import PriorConfig
from bnnlv.ncai import NcaiConfig
from bnnlv.train import (
    TrainConfig,
    adam_init,
    adam_step,
    eb_update_sw,
    eb_update_sz,
    fork_map,
    optimize,
    restart_select,
    train,
    train_restarts,
)
from bnnlv.vi import MeanFieldPosterior, elbo_graph, random_init

# the module, which the package's ``train`` function shadows as an attribute
train_mod = importlib.import_module("bnnlv.train")


def _linear_data(n=40, slope=2.0, noise=0.05, seed=0):
    rng = np.random.default_rng(seed)
    x = np.linspace(-1.0, 1.0, n).reshape(-1, 1)
    y = slope * x + rng.normal(0.0, noise, size=(n, 1))
    k = int(0.8 * n)
    return DataSet(x=x, y=y, train_idx=list(range(k)), val_idx=list(range(k, n)), test_idx=[])


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        w = np.array([1.0, -2.0])
        state = adam_init([w])
        (out,), _ = adam_step([w], [np.zeros(2)], state, 0.1)
        assert np.array_equal(out, w)

    def test_first_step_magnitude_is_learning_rate(self):
        w = np.array([0.0])
        state = adam_init([w])
        (out,), _ = adam_step([w], [np.array([7.3])], state, 0.05)
        assert abs(out[0] + 0.05) < 1e-6

    def test_trajectory_matches_reference(self):
        # independent textbook implementation, run side by side on f(w) = w^2
        lr, b1, b2, eps = 0.02, 0.9, 0.999, 1e-8
        w = np.array([1.0, -0.5])
        state = adam_init([w])
        w_ref = w.copy()
        m = np.zeros(2)
        v = np.zeros(2)
        for t in range(1, 101):
            g = 2.0 * w
            (w,), state = adam_step([w], [g], state, lr, b1, b2, eps)
            g_ref = 2.0 * w_ref
            m = b1 * m + (1 - b1) * g_ref
            v = b2 * v + (1 - b2) * g_ref * g_ref
            w_ref = w_ref - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
            assert np.allclose(w, w_ref, atol=1e-10)


class TestOptimize:
    def test_flat_objective_runs_all_epochs(self):
        # no early stop: an objective that never moves still runs every epoch
        params = {"a": np.zeros(2)}

        def flat(leaves):
            return dc.add(dc.mul(dc.sum_(leaves["a"]), 0.0), 1.0)

        values = optimize(flat, params, 0.01, 500)
        assert values == [1.0] * 500

    def test_nonfinite_gradient_names_block(self):
        # b**0.5 as exp(0.5 log b) is finite (0) at b = 0, but its derivative is not
        params = {"a": np.ones(2), "b": np.zeros(3)}

        def loss(leaves):
            a, b = leaves["a"], leaves["b"]
            root_b = dc.exp(dc.mul(dc.log(b), 0.5))
            return dc.add(dc.sum_(dc.mul(a, a)), dc.sum_(root_b))

        with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(
            DivergenceError, match="block b"
        ) as err:
            optimize(loss, params, 0.01, 10)
        assert str(err.value) == "non-finite gradient in block b at epoch 0"
        assert err.value.diagnostics == {"block": "b", "epoch": 0}
        assert err.value.history == [2.0]

    @pytest.mark.parametrize("block", ["rho_w", "rho_z"])
    def test_underflowed_variance_names_block(self, block):
        # softplus(-1000) is 0 in float64, where the ELBO's KL has no value
        arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(3,), output_dim=1)
        params = dict(zip(("mu_w", "rho_w", "mu_z", "rho_z"), random_init(arch, 6, 0).params()))
        params[block] = np.full_like(params[block], -1000.0)
        x = np.linspace(-1.0, 1.0, 6).reshape(-1, 1)

        def loss(leaves):
            return dc.neg(elbo_graph(arch, leaves, x, x, PriorConfig(), 1, 0)[0])

        with pytest.raises(DivergenceError) as err:
            optimize(loss, params, 0.01, 5)
        assert str(err.value) == f"variance underflowed to 0 in block {block} at epoch 0"
        assert err.value.diagnostics == {"block": block, "epoch": 0}
        assert err.value.history == []


class TestTrainConfig:
    @pytest.mark.parametrize("n_mc", [0, -1])
    def test_rejects_bad_n_mc(self, n_mc):
        # before any training: an NCAI run would otherwise finish its warm
        # start first
        with pytest.raises(ConfigError, match="n_mc"):
            TrainConfig(n_mc=n_mc)

    @pytest.mark.parametrize("warm_epochs", [-1, -3])
    def test_rejects_negative_warm_epochs(self, warm_epochs):
        with pytest.raises(ConfigError, match="warm_epochs must be >= 0"):
            TrainConfig(warm_epochs=warm_epochs)

    def test_zero_warm_epochs_is_allowed(self):
        assert TrainConfig(warm_epochs=0).warm_epochs == 0


class TestEbUpdates:
    def test_sz_worked_example(self):
        mu = np.zeros((4, 1))
        var = np.full((4, 1), 0.25)
        assert eb_update_sz(mu, var, alpha=3.0, beta=0.5) == pytest.approx(0.25)

    def test_sz_degenerate_limit(self):
        mu = np.zeros((3, 2))
        var = np.full((3, 2), 1e-300)
        assert eb_update_sz(mu, var, alpha=3.0, beta=0.5) == pytest.approx(1.0 / 6.0)

    def test_sw_worked_example(self):
        assert eb_update_sw(np.zeros(1), np.ones(1), alpha=3.0, beta=0.5) == pytest.approx(0.4)

    def test_sw_mean_scaling(self):
        mu = np.array([1.0, 2.0])
        var = np.array([0.1, 0.2])
        base = eb_update_sw(mu, var, 3.0, 0.5)
        scaled = eb_update_sw(3.0 * mu, var, 3.0, 0.5)
        h = 2
        denom = h + 2 * 3.0 - 2
        assert scaled - base == pytest.approx(8.0 * np.sum(mu * mu) / denom)

    def test_sz_matches_golden_section(self):
        # the closed form minimizes the latent-block KL as a function of s
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            k = int(rng.integers(1, 4))
            mu = rng.standard_normal((n, k))
            var = rng.uniform(0.01, 2.0, size=(n, k))
            alpha = float(rng.uniform(1.5, 5.0))
            beta = float(rng.uniform(0.1, 2.0))
            stat = np.sum(var + mu * mu) / n

            def kl_part(s, stat=stat, k=k, alpha=alpha, beta=beta):
                return (
                    0.5 * stat / s
                    + 0.5 * k * np.log(s)
                    + (alpha - 1.0) * np.log(s)
                    + beta / s
                )

            res = minimize_scalar(kl_part, bracket=(1e-3, 1.0, 1e3), method="golden")
            closed = eb_update_sz(mu, var, alpha, beta)
            assert abs(closed - res.x) / res.x <= 1e-6

    def test_sw_matches_golden_section(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            h = int(rng.integers(1, 20))
            mu = rng.standard_normal(h)
            var = rng.uniform(0.01, 2.0, size=h)
            alpha = float(rng.uniform(1.5, 5.0))
            beta = float(rng.uniform(0.1, 2.0))
            stat = np.sum(var + mu * mu)

            def kl_part(s, stat=stat, h=h, alpha=alpha, beta=beta):
                return (
                    0.5 * stat / s
                    + 0.5 * h * np.log(s)
                    + (alpha - 1.0) * np.log(s)
                    + beta / s
                )

            res = minimize_scalar(kl_part, bracket=(1e-3, 1.0, 1e3), method="golden")
            closed = eb_update_sw(mu, var, alpha, beta)
            assert abs(closed - res.x) / res.x <= 1e-6

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            eb_update_sz(np.zeros((2, 1)), np.zeros((2, 1)), alpha=0.5, beta=0.5)
        with pytest.raises(ValueError):
            eb_update_sw(np.zeros(1), -np.ones(1), alpha=3.0, beta=0.5)


class TestTrain:
    def test_linear_slope_recovery(self):
        data = _linear_data()
        arch = Architecture(input_dim_x=1, input_dim_z=0, hidden_layers=(), output_dim=1)
        cfg = TrainConfig(epochs=1500, restarts=1, learning_rate=0.02, n_mc=1)
        q, _ = train(data, arch, PriorConfig(sigma2_w=10.0, sigma2_eps=0.05), None, cfg, "BNN", seed=0)
        x = np.array([[0.0], [1.0]])
        pred = mlp_forward(arch, q.mu_w, x, None)
        slope = float(pred[1, 0] - pred[0, 0])
        assert 1.8 <= slope <= 2.2

    def test_bnn_has_no_latent_block(self):
        data = _linear_data(n=20)
        arch = Architecture(input_dim_x=1, input_dim_z=0, hidden_layers=(2,), output_dim=1)
        cfg = TrainConfig(epochs=5, restarts=1)
        q, _ = train(data, arch, PriorConfig(), None, cfg, "BNN", seed=0)
        assert q.mu_z.size == 0

    def test_method_architecture_mismatch(self):
        data = _linear_data(n=10)
        with_z = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(2,), output_dim=1)
        without = Architecture(input_dim_x=1, input_dim_z=0, hidden_layers=(2,), output_dim=1)
        cfg = TrainConfig(epochs=1, restarts=1)
        with pytest.raises(ConfigError):
            train(data, with_z, PriorConfig(), None, cfg, "BNN", seed=0)
        with pytest.raises(ConfigError):
            train(data, without, PriorConfig(), None, cfg, "NCAI", seed=0)
        with pytest.raises(ConfigError, match="method"):
            train(data, with_z, PriorConfig(), None, cfg, "SGLD", seed=0)

    def test_penalty_free_ncai_equals_bbb(self):
        data = gen_synthetic("heavy_tail", seed=0, sizes=(20, 5, 0))
        arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(5,), output_dim=1)
        zero = NcaiConfig(lambda1=0.0, lambda2=0.0, lambda3=0.0)
        cfg = TrainConfig(epochs=30, restarts=1, init="warm", warm_epochs=50)
        _, h_ncai = train(data, arch, PriorConfig(sigma2_eps=0.1), zero, cfg, "NCAI", seed=4)
        _, h_bbb = train(data, arch, PriorConfig(sigma2_eps=0.1), zero, cfg, "BNNLV_BBB", seed=4)
        assert h_ncai.columns["objective"] == h_bbb.columns["objective"]

    def test_deterministic_given_seed(self):
        data = gen_synthetic("heavy_tail", seed=1, sizes=(15, 0, 0))
        arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(3,), output_dim=1)
        cfg = TrainConfig(epochs=10, restarts=1, warm_epochs=20)
        qa, ha = train(data, arch, PriorConfig(), NcaiConfig(), cfg, "NCAI", seed=9)
        qb, hb = train(data, arch, PriorConfig(), NcaiConfig(), cfg, "NCAI", seed=9)
        assert np.array_equal(qa.mu_w, qb.mu_w)
        assert ha.columns["objective"] == hb.columns["objective"]

    def test_eb_updates_move_prior_variances(self):
        data = gen_synthetic("heavy_tail", seed=2, sizes=(15, 0, 0))
        arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(3,), output_dim=1)
        priors = PriorConfig(sigma2_w=5.0, sigma2_z=5.0, eb_w=True, eb_z=True)
        cfg = TrainConfig(epochs=20, restarts=1, warm_epochs=20)
        _, h = train(data, arch, priors, NcaiConfig(), cfg, "NCAI", seed=0)
        assert h.columns["s_z"][-1] != 5.0
        assert h.columns["s_w"][-1] != 5.0
        assert min(h.columns["s_z"]) > 0.0 and min(h.columns["s_w"]) > 0.0
        # the run ends on its last epoch's variances
        assert h.priors.sigma2_w == h.columns["s_w"][-1]
        assert h.priors.sigma2_z == h.columns["s_z"][-1]

    def test_ground_truth_init_runs_variance_phase_first(self):
        data = gen_synthetic("heavy_tail", seed=3, sizes=(12, 0, 0), distill=True)
        cfg = TrainConfig(epochs=4, restarts=1, init="ground_truth")
        _, h = train(
            data, data.gt_arch, PriorConfig(sigma2_w=10.0), NcaiConfig(), cfg, "NCAI", seed=0
        )
        phases = list(dict.fromkeys(h.columns["phase"]))
        assert phases == ["variance", "joint"]

    @pytest.mark.parametrize(
        "init, phases",
        [("map", ["variance", "joint"]), ("random", ["joint"]), ("warm", ["joint"])],
        ids=["map", "random", "warm"],
    )
    def test_only_fitted_means_get_a_variance_phase(self, init, phases):
        data = gen_synthetic("heavy_tail", seed=3, sizes=(12, 0, 0))
        arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(3,), output_dim=1)
        cfg = TrainConfig(epochs=4, restarts=1, warm_epochs=10, init=init)
        _, h = train(data, arch, PriorConfig(), NcaiConfig(), cfg, "NCAI", seed=0)
        assert list(dict.fromkeys(h.columns["phase"])) == phases

    def test_map_start_repeats_for_a_seed(self):
        data = gen_synthetic("depeweg", seed=6, sizes=(12, 0, 0))
        arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(3,), output_dim=1)
        cfg = TrainConfig(epochs=6, restarts=1, warm_epochs=15, init="map")
        qa, ha = train(data, arch, PriorConfig(), NcaiConfig(), cfg, "NCAI", seed=2)
        qb, hb = train(data, arch, PriorConfig(), NcaiConfig(), cfg, "NCAI", seed=2)
        for a, b in zip(qa.params(), qb.params()):
            assert np.array_equal(a, b)
        assert ha.columns == hb.columns

    @pytest.mark.parametrize("warm_epochs", [0, 3])
    def test_map_start_fits_warm_epochs(self, monkeypatch, warm_epochs):
        # 0 means no fit: the start keeps the MAP fit's initial means
        fits = []
        real_map = train_mod.ncai_mod.map_estimate

        def recording(*args, **kwargs):
            fits.append(real_map(*args, **kwargs))
            return fits[-1]

        monkeypatch.setattr(train_mod.ncai_mod, "map_estimate", recording)
        data = gen_synthetic("depeweg", seed=6, sizes=(12, 0, 0))
        arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(3,), output_dim=1)
        cfg = TrainConfig(epochs=2, restarts=1, warm_epochs=warm_epochs, init="map")
        train(data, arch, PriorConfig(), NcaiConfig(), cfg, "NCAI", seed=2)
        assert [len(fit.history) - 1 for fit in fits] == [warm_epochs]

    @pytest.mark.parametrize(
        "method, hidden", [("NCAI", (10,)), ("BNN", (50,))], ids=["hidden", "bnn"]
    )
    def test_ground_truth_init_needs_generative_architecture(self, method, hidden):
        data = gen_synthetic("heavy_tail", seed=3, sizes=(12, 0, 0), distill=True)
        arch = Architecture(input_dim_x=1, input_dim_z=int(method != "BNN"), hidden_layers=hidden)
        cfg = TrainConfig(epochs=4, restarts=1, init="ground_truth")
        with pytest.raises(ConfigError, match="generative architecture") as err:
            train(data, arch, PriorConfig(), NcaiConfig(), cfg, method, seed=0)
        assert str(data.gt_arch) in str(err.value) and str(arch) in str(err.value)

    def test_divergence_carries_history(self):
        data = gen_synthetic("heavy_tail", seed=4, sizes=(10, 0, 0))
        arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(3,), output_dim=1)
        priors = PriorConfig(sigma2_eps=1e-320)
        cfg = TrainConfig(epochs=5, restarts=1, warm_epochs=5)
        with pytest.raises(DivergenceError) as err:
            train(data, arch, priors, NcaiConfig(), cfg, "BNNLV_BBB", seed=0)
        assert err.value.history is not None

    def test_large_learning_rate_is_a_divergence(self):
        # steps of size 100 drive rho_w so low that its softplus underflows to 0
        data = gen_synthetic("heavy_tail", seed=0, sizes=(25, 8, 8))
        arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(5,), output_dim=1)
        cfg = TrainConfig(learning_rate=100.0, epochs=50, restarts=1)
        with pytest.raises(DivergenceError) as err:
            train(data, arch, PriorConfig(), NcaiConfig(), cfg, "BNNLV_BBB", seed=0)
        epoch = len(err.value.history)
        assert 0 < epoch < 50
        assert str(err.value) == f"variance underflowed to 0 in block rho_w at epoch {epoch}"
        assert err.value.diagnostics == {"block": "rho_w", "epoch": epoch}


class TestRestarts:
    def _handmade_pair(self, data):
        arch = Architecture(input_dim_x=1, input_dim_z=0, hidden_layers=(), output_dim=1)
        good = MeanFieldPosterior(
            arch, np.array([2.0, 0.0]), np.full(2, -6.0), np.zeros((32, 0)), np.zeros((32, 0))
        )
        bad = MeanFieldPosterior(
            arch, np.array([-5.0, 3.0]), np.full(2, -6.0), np.zeros((32, 0)), np.zeros((32, 0))
        )
        return good, bad

    def test_selects_best_validation_likelihood(self):
        # each restart's score is its validation bound at the shared seed;
        # train_restarts keeps the highest
        data = _linear_data(n=40)
        good, bad = self._handmade_pair(data)
        priors = PriorConfig(sigma2_eps=0.05)
        scores = [restart_select(q, priors, data, s_ll=200, seed=0) for q in (bad, good)]
        assert scores == [
            avg_marginal_ll(q, data, priors, which="val", s=200, seed=0) for q in (bad, good)
        ]
        assert scores[1] > scores[0]

    def test_single_candidate_is_scored(self):
        # without validation rows a restart is scored on the training split
        data = _linear_data(n=40)
        good, _ = self._handmade_pair(data)
        assert restart_select(good, PriorConfig(), data, s_ll=200, seed=3) == avg_marginal_ll(
            good, data, PriorConfig(), which="val", s=200, seed=3)
        no_val = DataSet(x=data.x, y=data.y, train_idx=data.train_idx, val_idx=[], test_idx=[])
        assert restart_select(good, PriorConfig(), no_val, s_ll=200, seed=3) == avg_marginal_ll(
            good, no_val, PriorConfig(), which="train", s=200, seed=3)

    def test_same_seed_repeats(self):
        data = gen_synthetic("heavy_tail", seed=5, sizes=(12, 4, 0))
        arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(3,), output_dim=1)
        cfg = TrainConfig(epochs=8, restarts=3, warm_epochs=10)
        q1, p1, h1, b1, s1 = train_restarts(
            data, arch, PriorConfig(), NcaiConfig(), cfg, "NCAI", seed=0, s_ll=300
        )
        q2, p2, h2, b2, s2 = train_restarts(
            data, arch, PriorConfig(), NcaiConfig(), cfg, "NCAI", seed=0, s_ll=300
        )
        assert b1 == b2
        assert np.array_equal(q1.mu_w, q2.mu_w)
        assert len(h1) == len(h2) == 3
        assert p1 == p2
        # the score passed on is the winner's, at the run seed
        assert s1 == s2 == avg_marginal_ll(q1, data, p1, which="val", s=300, seed=0)

    @pytest.mark.parametrize("method", ["NCAI", "BNNLV_BBB"])
    def test_forked_restarts_equal_in_process(self, monkeypatch, method):
        # two processes (forced, so a one-CPU host runs the fork path too)
        # give the bits of one: the job depends on its restart seed alone
        data = gen_synthetic("heavy_tail", seed=5, sizes=(12, 4, 0))
        arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(3,), output_dim=1)
        cfg = TrainConfig(epochs=8, restarts=3, warm_epochs=10, n_mc=2)
        real_train = train_mod.train

        def train_noting_pid(*args, **kwargs):
            q, history = real_train(*args, **kwargs)
            history.pid = os.getpid()
            return q, history

        monkeypatch.setattr(train_mod, "train", train_noting_pid)
        runs = {}
        for cpus in (1, 2):
            monkeypatch.setattr(train_mod, "_usable_cpus", lambda cpus=cpus: cpus)
            runs[cpus] = train_restarts(data, arch, PriorConfig(), NcaiConfig(), cfg, method,
                                        seed=0, s_ll=300)
            assert multiprocessing.active_children() == []
        (q1, p1, h1, b1, s1), (q2, p2, h2, b2, s2) = runs[1], runs[2]
        assert [h.pid == os.getpid() for h in h2] == [True, False, True]
        for a, b in zip(q1.params(), q2.params()):
            assert np.array_equal(a, b)
        for one, two in zip(h1, h2):
            assert (one.seed, one.score) == (two.seed, two.score)
            assert one.columns["phase"] == two.columns["phase"]
            for name in one.COLUMNS:
                if name != "phase":
                    assert np.array_equal(one.columns[name], two.columns[name], equal_nan=True)
        assert (b1, s1, p1) == (b2, s2, p2)
        assert s1 == max(h.score for h in h1)

    def test_divergence_in_a_worker(self, monkeypatch, diverging_restart):
        # restart 1 diverges; with two processes it runs in the worker, and the
        # error that arrives is the one the in-process loop raises
        data = gen_synthetic("heavy_tail", seed=4, sizes=(10, 4, 0))
        arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(3,), output_dim=1)
        cfg = TrainConfig(epochs=5, restarts=3, warm_epochs=5)
        diverging_restart(1, 3, seed=0)
        errors = {}
        for cpus in (1, 2):
            monkeypatch.setattr(train_mod, "_usable_cpus", lambda cpus=cpus: cpus)
            with pytest.raises(DivergenceError) as err:
                train_restarts(data, arch, PriorConfig(), NcaiConfig(), cfg, "BNNLV_BBB", seed=0)
            errors[cpus] = err.value
            assert multiprocessing.active_children() == []
        for e in errors.values():
            assert str(e) == "non-finite gradient in block mu_z at epoch 2"
            assert e.history == [3.0, 2.0]
            assert e.diagnostics == {"block": "mu_z", "epoch": 2}


class TestForkMap:
    @pytest.fixture
    def cpus(self, monkeypatch):
        def use(n):
            monkeypatch.setattr(train_mod, "_usable_cpus", lambda: n)
        return use

    def test_caller_takes_one_share(self, cpus):
        cpus(2)
        out = fork_map(lambda i: (i * i, os.getpid()), 5)
        assert [v for v, _ in out] == [0, 1, 4, 9, 16]
        assert [pid == os.getpid() for _, pid in out] == [True, False, True, False, True]
        assert multiprocessing.active_children() == []

    def test_one_cpu_runs_in_the_caller(self, cpus):
        cpus(1)
        assert fork_map(lambda i: os.getpid(), 3) == [os.getpid()] * 3

    def test_other_threads_keep_the_loop_in_the_caller(self, cpus):
        # forking while another thread may hold a lock can deadlock the child
        cpus(2)
        release = threading.Event()
        waiter = threading.Thread(target=release.wait, args=(30,))
        waiter.start()
        try:
            assert fork_map(lambda i: os.getpid(), 3) == [os.getpid()] * 3
        finally:
            release.set()
            waiter.join(timeout=30)
        assert not waiter.is_alive()

    @pytest.mark.parametrize("failing, raised", [({1, 2}, 1), ({0, 1}, 0), ({3}, 3)])
    def test_lowest_failing_index_raises(self, cpus, failing, raised):
        cpus(2)

        def job(i):
            if i in failing:
                raise ValueError(i)
            return i

        with pytest.raises(ValueError) as err:
            fork_map(job, 6)
        assert err.value.args == (raised,)
        assert multiprocessing.active_children() == []

    def test_caller_failure_cancels_later_jobs(self, cpus, tmp_path):
        # the worker is busy with index 1 when the caller fails at index 0,
        # so index 7 has not started and is never run, nor are the caller's
        # later indices; 3 and 5 may already be queued for the worker
        cpus(2)

        def job(i):
            if i == 0:
                raise RuntimeError("first")
            if i == 1:
                time.sleep(0.5)
            (tmp_path / str(i)).touch()

        with pytest.raises(RuntimeError, match="first"):
            fork_map(job, 8)
        assert multiprocessing.active_children() == []
        ran = {int(p.name) for p in tmp_path.iterdir()}
        assert 1 in ran
        assert ran.isdisjoint({2, 4, 6, 7})

    def test_worker_failure_stops_the_callers_later_indices(self, cpus, tmp_path):
        # the worker fails at index 1 while the caller is still busy with
        # index 0; the caller collects index 1 before it would start index 2,
        # so neither 2 nor 4 runs
        cpus(2)

        def job(i):
            if i == 1:
                raise RuntimeError("worker")
            if i == 0:
                time.sleep(0.3)
            (tmp_path / str(i)).touch()

        with pytest.raises(RuntimeError, match="worker"):
            fork_map(job, 6)
        assert multiprocessing.active_children() == []
        ran = {int(p.name) for p in tmp_path.iterdir()}
        assert 0 in ran
        assert ran.isdisjoint({1, 2, 4})
