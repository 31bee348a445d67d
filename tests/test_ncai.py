import importlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import ndtri

from bnnlv import diffcore as dc
from bnnlv.data import DataSet, gen_synthetic, standardize
from bnnlv.diffcore import Architecture, mlp_forward
from bnnlv.exceptions import ConfigError, DivergenceError
from bnnlv.model import PriorConfig
from bnnlv.ncai import (
    _HZ_CHUNK,
    NcaiConfig,
    _hinge,
    fit_point_mlp,
    hz_constants,
    hz_statistic,
    map_estimate,
    ncai_objective,
    objective_graph,
    offdiag_penalty,
    pearson_penalty,
    warm_start,
)
from bnnlv.train import optimize
from bnnlv.vi import BLOCKS, _leaves_of, _train_inputs, elbo, elbo_graph, random_init
from oracles import (
    composite_hz_statistic,
    composite_pearson_penalty,
    finite_diff_coord,
    naive_hz_statistic,
    rel_err,
)

train_mod = importlib.import_module("bnnlv.train")  # the package's ``train`` shadows it


class TestHinge:
    @pytest.mark.parametrize("u, value, slope", [(-0.5, 0.0, 0.0), (0.0, 0.0, 0.0),
                                                 (0.25, 0.25, 1.0)])
    def test_value_and_gradient(self, u, value, slope):
        # at the kink the subgradient is 0, as sqrt's is at 0
        leaf = dc.leaf(np.array(u))
        out = _hinge(leaf)
        dc.backward(out)
        assert float(out.value) == value and float(leaf.grad) == slope
        assert float(_hinge(u)) == value

    def test_nan_propagates(self):
        assert np.isnan(float(_hinge(np.nan)))


def _tau(n):
    return np.sqrt(2.0 / (np.pi * (n - 1)))


class TestNullValues:
    """The hinges sit at each statistic's mean on draws from the prior."""

    @pytest.mark.parametrize("n, p, m0", [(30, 2, 0.456), (300, 1, 0.439)])
    def test_hz_m0_is_the_mean_on_gaussian_rows(self, n, p, m0):
        assert hz_constants(n, p)[1] == pytest.approx(m0, abs=5e-4)
        rng = np.random.default_rng(n + p)
        draws = [hz_statistic(rng.standard_normal((n, p))) for _ in range(500)]
        se = np.std(draws, ddof=1) / np.sqrt(len(draws))
        assert abs(np.mean(draws) - hz_constants(n, p)[1]) <= 3.0 * se

    def test_tau_is_the_mean_abs_pearson_of_independent_columns(self):
        n, rng = 300, np.random.default_rng(3)
        draws = [pearson_penalty(rng.standard_normal((n, 1)), rng.standard_normal((n, 1)))
                 for _ in range(2000)]
        se = np.std(draws, ddof=1) / np.sqrt(len(draws))
        assert abs(np.mean(draws) - _tau(n)) <= 3.0 * se


def _hz_grads(pts):
    """Value and gradient of the fused op and of the composite oracle."""
    fused, ref = dc.leaf(pts), dc.leaf(pts)
    out, ref_out = hz_statistic(fused), composite_hz_statistic(ref)
    dc.backward(out)
    dc.backward(ref_out)
    return float(out.value), fused.grad, float(ref_out.value), ref.grad


class TestHz:
    def test_matches_pairwise_reference(self):
        rng = np.random.default_rng(0)
        for n, p in ((40, 1), (60, 2), (30, 3)):
            pts = rng.standard_normal((n, p))
            assert float(hz_statistic(pts)) == pytest.approx(naive_hz_statistic(pts), abs=1e-10)

    def test_affine_invariance(self):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((200, 2))
        a = float(hz_statistic(pts))
        b = float(hz_statistic(5.0 * pts + 3.0))
        assert abs(a - b) <= 1e-8

    def test_triangle_beats_gaussian(self):
        wins = 0
        for s in range(20):
            r = np.random.default_rng(s)
            g = r.standard_normal((1000, 1))
            t = r.triangular(-1.0, 0.0, 1.0, size=(1000, 1))
            wins += float(hz_statistic(t)) > float(hz_statistic(g))
        assert wins >= 18

    def test_collapsed_cluster_is_finite(self):
        pts = np.full((50, 2), 0.37)
        val, grad, ref_val, ref_grad = _hz_grads(pts)
        assert np.isfinite(val) and val == pytest.approx(ref_val, rel=1e-12)
        np.testing.assert_allclose(grad, ref_grad, atol=1e-15)
        # a cluster collapsed to within the ridge, as at the start of training
        pts = pts + 1e-7 * np.random.default_rng(4).standard_normal(pts.shape)
        val, grad, ref_val, ref_grad = _hz_grads(pts)
        assert val == pytest.approx(ref_val, rel=1e-10)
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-7, atol=1e-9 * np.abs(ref_grad).max())

    def test_input_validation(self):
        with pytest.raises(ValueError):
            hz_statistic(np.zeros(5))
        with pytest.raises(ValueError, match="3 rows"):
            hz_statistic(np.zeros((2, 1)))

    def test_differentiable(self):
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((20, 2))
        leaf = dc.leaf(pts)
        out = hz_statistic(leaf)
        dc.backward(out)
        g = leaf.grad
        eps = 1e-6
        bumped = pts.copy()
        bumped[3, 1] += eps
        fd = (naive_hz_statistic(bumped) - naive_hz_statistic(pts)) / eps
        assert g[3, 1] == pytest.approx(fd, rel=1e-3)


class TestHzFused:
    @pytest.mark.parametrize("n", [20, 2 * _HZ_CHUNK + 1], ids=["one_chunk", "ragged_chunks"])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_matches_composite_and_finite_differences(self, n, p):
        rng = np.random.default_rng(10 * n + p)
        pts = rng.standard_normal((n, p)) * rng.uniform(0.5, 2.0, p) + 1.0
        val, grad, ref_val, ref_grad = _hz_grads(pts)
        assert val == pytest.approx(ref_val, rel=1e-12)
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-9, atol=1e-11 * np.abs(ref_grad).max())
        f = lambda v: hz_statistic(v.reshape(n, p))
        for i in rng.choice(n * p, size=min(n * p, 10), replace=False):
            assert rel_err(grad.flat[i], finite_diff_coord(f, pts.ravel(), i)) <= 1e-5

    # each chunk's exponent is one product [b2 t, 1, u] @ [xc^T; u^T; 1]; checked
    # against the oracle's N x N arrays at desk size, on a ragged last chunk
    # and on one chunk shorter than _HZ_CHUNK
    @pytest.mark.parametrize("n, p", [(750, 1), (750, 2), (3 * _HZ_CHUNK + 5, 2),
                                      (_HZ_CHUNK - 1, 1)],
                             ids=["desk_p1", "desk_p2", "ragged_chunks", "below_one_chunk"])
    def test_chunk_kernel_matches_composite(self, n, p):
        pts = np.random.default_rng(n + p).standard_normal((n, p))
        val, grad, ref_val, ref_grad = _hz_grads(pts)
        assert val == pytest.approx(ref_val, rel=1e-12)
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-9, atol=1e-11 * np.abs(ref_grad).max())

    # an outlier row has d_j near N: exp(b2 M_jk) alone would overflow, and a
    # factored kernel exp(-c d_j) exp(-c d_k) exp(2c M_jk) would give inf * 0 = NaN
    @pytest.mark.parametrize("p", [1, 3])
    def test_outlier_row_matches_composite(self, p):
        pts = np.random.default_rng(40 + p).standard_normal((750, p))
        pts[17] += 50.0
        val, grad, ref_val, ref_grad = _hz_grads(pts)
        assert np.isfinite(val) and np.all(np.isfinite(grad))
        assert val == pytest.approx(ref_val, rel=1e-12)
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-9, atol=1e-11 * np.abs(ref_grad).max())

    def test_one_tape_node(self):
        leaf = dc.leaf(np.random.default_rng(5).standard_normal((30, 2)))
        out = hz_statistic(leaf)
        assert out.op == "hz" and out._parents == (leaf,)
        assert type(hz_statistic(leaf.value)) is float

    def test_no_n_by_n_buffer(self):
        # one float64 N x N block at N = 10 000 is 800 MB
        leaf = dc.leaf(np.random.default_rng(6).standard_normal((10_000, 1)))
        tracemalloc.start()
        try:
            dc.backward(hz_statistic(leaf))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(leaf.grad))
        assert peak < 60e6


class TestOffdiag:
    def test_closed_form(self):
        pts = np.array([[1.0, 1.0], [-1.0, -1.0]])
        # sample covariance is [[2, 2], [2, 2]], so the off-diagonal
        # Frobenius norm is sqrt(2^2 + 2^2)
        assert float(offdiag_penalty(pts)) == pytest.approx(2.0 * np.sqrt(2.0))

    def test_matches_cov_oracle(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((25, 3))
        c = np.cov(pts, rowvar=False)
        expected = np.sqrt(np.sum(c * c) - np.sum(np.diag(c) ** 2))
        assert float(offdiag_penalty(pts)) == pytest.approx(expected, abs=1e-12)

    def test_uncorrelated_columns(self):
        pts = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        assert float(offdiag_penalty(pts)) == pytest.approx(0.0, abs=1e-15)

    def test_single_column_is_zero(self):
        assert float(offdiag_penalty(np.random.default_rng(0).standard_normal((10, 1)))) == 0.0

    def test_single_column_builds_no_tape_node(self):
        out = offdiag_penalty(dc.leaf(np.random.default_rng(0).standard_normal((10, 1))))
        assert type(out) is float and out == 0.0


class TestPearson:
    def test_perfect_correlation(self):
        a = np.linspace(0.0, 1.0, 20).reshape(-1, 1)
        assert float(pearson_penalty(a, 2.0 * a + 1.0)) == pytest.approx(1.0)
        assert float(pearson_penalty(a, -a)) == pytest.approx(1.0)

    def test_matches_corrcoef(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((30, 2))
        b = rng.standard_normal((30, 1))
        expected = np.mean(
            [abs(np.corrcoef(a[:, i], b[:, 0])[0, 1]) for i in range(2)]
        )
        assert float(pearson_penalty(a, b)) == pytest.approx(expected, abs=1e-12)

    def test_constant_column_contributes_zero(self):
        a = np.linspace(0.0, 1.0, 10).reshape(-1, 1)
        assert float(pearson_penalty(a, np.full((10, 1), 3.0))) == 0.0

    def test_independent_near_zero(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((2000, 1))
        b = rng.standard_normal((2000, 1))
        assert float(pearson_penalty(a, b)) < 0.1


def _pearson_grads(a, b):
    """Value and gradient of the fused op and of the composite oracle; an
    oracle that skipped every pair built no node and has a zero gradient."""
    fused, ref = dc.leaf(b), dc.leaf(b)
    out, ref_out = pearson_penalty(a, fused), composite_pearson_penalty(a, ref)
    dc.backward(out)
    if isinstance(ref_out, dc.Node):
        dc.backward(ref_out)
    ref_grad = np.zeros_like(b) if ref.grad is None else ref.grad
    return float(out.value), fused.grad, float(dc._val(ref_out)), ref_grad


PEARSON_SHAPES = pytest.mark.parametrize("d, k", [(1, 1), (1, 2), (2, 3)])


class TestPearsonFused:
    @PEARSON_SHAPES
    def test_matches_composite_and_finite_differences(self, d, k):
        rng = np.random.default_rng(10 * d + k)
        a = rng.standard_normal((40, d)) * 2.0 + 1.0
        b = 0.5 * a[:, :1] + rng.standard_normal((40, k))
        val, grad, ref_val, ref_grad = _pearson_grads(a, b)
        if (d, k) == (1, 1):
            assert val == ref_val
        assert val == pytest.approx(ref_val, rel=1e-12)
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-12, atol=1e-12 * np.abs(ref_grad).max())
        f = lambda v: pearson_penalty(a, v.reshape(b.shape))
        floor = 1e-3 * np.abs(grad).max()  # a tiny entry cancels in its difference
        for i in range(b.size):
            assert rel_err(grad.flat[i], finite_diff_coord(f, b.ravel(), i), floor) <= 1e-6

    @PEARSON_SHAPES
    def test_zero_variance_column_matches_composite(self, d, k):
        rng = np.random.default_rng(20 + d + k)
        a, b = rng.standard_normal((30, d)), rng.standard_normal((30, k))
        b[:, -1] = 2.5
        if d > 1:
            a[:, 0] = -1.0
        val, grad, ref_val, ref_grad = _pearson_grads(a, b)
        assert val == pytest.approx(ref_val, rel=1e-12)
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-12, atol=1e-12 * np.abs(ref_grad).max())
        assert np.all(grad[:, -1] == 0.0)

    @PEARSON_SHAPES
    def test_all_zero_means_give_zero_and_zero_gradient(self, d, k):
        # the warm start's latent means
        a = np.random.default_rng(d + k).standard_normal((30, d))
        val, grad, ref_val, _ = _pearson_grads(a, np.zeros((30, k)))
        assert val == ref_val == 0.0
        assert np.all(grad == 0.0)

    @PEARSON_SHAPES
    def test_nan_entry_propagates_as_in_composite(self, d, k):
        rng = np.random.default_rng(30 + d + k)
        a, b = rng.standard_normal((30, d)), rng.standard_normal((30, k))
        b[3, 0] = np.nan
        with np.errstate(invalid="ignore"):
            val, grad, ref_val, ref_grad = _pearson_grads(a, b)
        assert np.isnan(val) and np.isnan(ref_val)
        np.testing.assert_array_equal(np.isnan(grad), np.isnan(ref_grad))
        assert np.all(np.isnan(grad[:, 0]))
        np.testing.assert_allclose(grad[:, 1:], ref_grad[:, 1:], rtol=1e-12, atol=1e-15)

    def test_one_tape_node(self):
        rng = np.random.default_rng(6)
        leaf = dc.leaf(rng.standard_normal((30, 2)))
        out = pearson_penalty(rng.standard_normal((30, 3)), leaf)
        assert out.op == "pearson" and out._parents == (leaf,)
        assert type(pearson_penalty(np.ones((30, 1)), leaf.value)) is float

    def test_objective_tape_holds_two_pearson_nodes(self):
        # one node per Pearson term of an NCAI objective at one latent column,
        # and no per-pair |r| node
        data = gen_synthetic("depeweg", seed=0, sizes=(50, 0, 0))
        arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(5,), output_dim=1)
        obj, _ = objective_graph(*_train_inputs(random_init(arch, 50, seed=0), data),
                                 PriorConfig(sigma2_eps=0.1), NcaiConfig(), n_mc=1, seed=0)
        ops, stack, seen = [], [obj], set()
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                ops.append(node.op)
                stack.extend(node._parents)
        assert ops.count("pearson") == 2
        assert "abs" not in ops


class TestObjective:
    def _setup(self, n=8, seed=0):
        data = gen_synthetic("heavy_tail", seed=seed, sizes=(n, 0, 0))
        arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(3,), output_dim=1)
        q = random_init(arch, n, seed=seed)
        priors = PriorConfig(sigma2_eps=0.1)
        return data, q, priors

    def test_penalty_free_equals_negative_elbo(self):
        data, q, priors = self._setup()
        cfg = NcaiConfig(lambda1=0.0, lambda2=0.0, lambda3=0.0)
        obj = ncai_objective(q, data, priors, cfg, n_mc=4, seed=7)
        ref = elbo(q, data, priors, n_mc=4, seed=7)
        assert obj == -ref

    def test_penalties_ignore_scale_parameters(self):
        data, q, priors = self._setup()
        cfg = NcaiConfig()
        qb = replace(q)
        qb.rho_z = qb.rho_z + 1.3
        qb.rho_w = qb.rho_w - 0.7
        pen_a = ncai_objective(q, data, priors, cfg, n_mc=2, seed=3) + elbo(
            q, data, priors, n_mc=2, seed=3
        )
        pen_b = ncai_objective(qb, data, priors, cfg, n_mc=2, seed=3) + elbo(
            qb, data, priors, n_mc=2, seed=3
        )
        assert pen_a == pytest.approx(pen_b, rel=1e-12)

    def test_penalties_respond_to_means(self):
        data, q, priors = self._setup()
        cfg = NcaiConfig()
        qb = replace(q)
        qb.mu_z = qb.mu_z + np.linspace(0.0, 5.0, qb.mu_z.shape[0]).reshape(-1, 1)
        pen_a = ncai_objective(q, data, priors, cfg, n_mc=2, seed=3) + elbo(
            q, data, priors, n_mc=2, seed=3
        )
        pen_b = ncai_objective(qb, data, priors, cfg, n_mc=2, seed=3) + elbo(
            qb, data, priors, n_mc=2, seed=3
        )
        assert pen_a != pytest.approx(pen_b, rel=1e-6)

    def test_inactive_hinges_leave_the_negative_elbo(self):
        # normal quantiles in random order, with a constant, x and y projected
        # out: HZ below its null mean and both |Pearson| terms near 0
        n = 40
        data, q, priors = self._setup(n)
        view = data.view("train")
        z = ndtri((np.arange(n) + 0.5) / n)[np.random.default_rng(0).permutation(n), None]
        basis = np.column_stack([np.ones(n), view.x, view.y])
        q.mu_z = z - basis @ np.linalg.lstsq(basis, z, rcond=None)[0]
        leaves, elbo_leaves = _leaves_of(q), _leaves_of(q)
        obj, parts = objective_graph(q.arch, leaves, view.x, view.y, priors, NcaiConfig(),
                                     n_mc=2, seed=3)
        assert float(parts["hz"].value) < hz_constants(n, 1)[1]
        assert max(float(parts["pc_x"].value), float(parts["pc_y"].value)) < _tau(n)
        neg_elbo = dc.neg(elbo_graph(q.arch, elbo_leaves, view.x, view.y, priors, 2, 3)[0])
        assert float(obj.value) == float(neg_elbo.value)
        dc.backward(obj)
        dc.backward(neg_elbo)
        for name in BLOCKS:
            np.testing.assert_array_equal(leaves[name].grad, elbo_leaves[name].grad)

    def test_active_hinges_match_finite_differences(self):
        # latent means that are skewed and track x and y: every hinge is
        # active, and the off-diagonal term is on at two latent columns
        n = 30
        data = gen_synthetic("heavy_tail", seed=0, sizes=(n, 0, 0))
        view = data.view("train")
        arch = Architecture(input_dim_x=1, input_dim_z=2, hidden_layers=(4,), output_dim=1)
        q, priors, cfg = random_init(arch, n, seed=1), PriorConfig(sigma2_eps=0.1), NcaiConfig()
        noise = 0.1 * np.random.default_rng(2).standard_normal((n, 2))
        q.mu_z = np.column_stack([view.x[:, 0] ** 3, view.y[:, 0]]) + noise
        leaves = _leaves_of(q)
        obj, parts = objective_graph(arch, leaves, view.x, view.y, priors, cfg, n_mc=4, seed=5)
        assert float(parts["hz"].value) > hz_constants(n, 2)[1]
        assert min(float(parts["pc_x"].value), float(parts["pc_y"].value)) > _tau(n)
        dc.backward(obj)
        for name in BLOCKS:  # c04's step and tolerance, at every coordinate
            arr = getattr(q, name)
            for idx in np.ndindex(arr.shape):
                h, orig = 1e-5 * max(1.0, abs(arr[idx])), arr[idx]
                arr[idx] = orig + h
                fp = ncai_objective(q, data, priors, cfg, n_mc=4, seed=5)
                arr[idx] = orig - h
                fm = ncai_objective(q, data, priors, cfg, n_mc=4, seed=5)
                arr[idx] = orig
                assert rel_err(leaves[name].grad[idx], (fp - fm) / (2.0 * h)) <= 1e-4

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_means_diverge_at_one_latent_column(self, bad):
        # the off-diagonal penalty is 0.0 there whatever the means hold; the
        # ELBO, HZ and Pearson still see a non-finite mean, so training stops
        data, q, priors = self._setup()
        q.mu_z[3, 0] = bad
        view = data.view("train")

        def loss(leaves):
            obj, parts = objective_graph(q.arch, leaves, view.x, view.y, priors, NcaiConfig(),
                                         n_mc=1, seed=0)
            assert parts["offdiag"] == 0.0
            return obj

        with pytest.raises(DivergenceError, match="non-finite at epoch 0"), \
                np.errstate(invalid="ignore", over="ignore"):
            optimize(loss, dict(zip(BLOCKS, q.params())), 0.01, epochs=3)

    def test_needs_latent_inputs(self):
        n = 6
        data = gen_synthetic("heavy_tail", seed=0, sizes=(n, 0, 0))
        arch = Architecture(input_dim_x=1, input_dim_z=0, hidden_layers=(3,), output_dim=1)
        q = random_init(arch, n, seed=0)
        with pytest.raises(ConfigError, match="latent"):
            ncai_objective(q, data, PriorConfig(), NcaiConfig(), n_mc=1, seed=0)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            NcaiConfig(lambda2=-1.0)
        with pytest.raises(ConfigError):
            NcaiConfig(eps_t=0.0)
        assert NcaiConfig(lambda1=0.0, lambda2=0.0, lambda3=0.0).penalty_free
        assert not NcaiConfig().penalty_free


class TestWarmStart:
    def test_zero_latent_means_and_fit_quality(self):
        x = np.linspace(0.0, 1.0, 60).reshape(-1, 1)
        data = DataSet(
            x=x, y=np.sin(2.0 * np.pi * x), train_idx=list(range(60)), val_idx=[], test_idx=[]
        )
        arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(20,), output_dim=1)
        q = warm_start(data, arch, learning_rate=0.02, epochs=1500, seed=0)
        assert np.all(q.mu_z == 0.0)
        assert q.rho_z.shape == (60, 1)
        view = data.view("train")
        pred = mlp_forward(arch, q.mu_w, view.x, np.zeros((60, 1)))
        rmse = np.sqrt(np.mean((pred - view.y) ** 2))
        assert rmse < 0.1

    def test_requires_latent_inputs(self):
        data = gen_synthetic("heavy_tail", seed=0, sizes=(10, 0, 0))
        arch = Architecture(input_dim_x=1, input_dim_z=0, hidden_layers=(4,), output_dim=1)
        with pytest.raises(ConfigError):
            warm_start(data, arch, learning_rate=0.01, epochs=2000, seed=0)


class TestFitPointMlp:
    def test_recovers_linear_map(self):
        x = np.linspace(-1.0, 1.0, 40).reshape(-1, 1)
        y = 2.0 * x + 1.0
        arch = Architecture(input_dim_x=1, input_dim_z=0, hidden_layers=(), output_dim=1)
        w = fit_point_mlp(x, y, arch, learning_rate=0.05, epochs=3000, seed=0)
        assert np.allclose(w, [2.0, 1.0], atol=1e-3)

    def test_runs_all_epochs_on_targets_it_fits(self, monkeypatch):
        # targets made by the fit's own initial weights: the error is 0 from
        # the first epoch, and the fit still runs every epoch
        x = np.linspace(-1.0, 1.0, 12).reshape(-1, 1)
        arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(4,), output_dim=1)
        w0 = dc.xavier_normal_weights(arch, np.random.default_rng(3))
        y = mlp_forward(arch, w0, x, np.zeros((12, 1)))
        values = []

        def recording(*args):
            values.extend(optimize(*args))
            return values

        monkeypatch.setattr(train_mod, "optimize", recording)
        w = fit_point_mlp(x, y, arch, epochs=250, seed=3)
        assert values == [0.0] * 250
        assert np.array_equal(w, w0)


class TestMapEstimate:
    def test_improves_and_stabilizes(self):
        data = gen_synthetic("heavy_tail", seed=1, sizes=(30, 0, 0))
        arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(5,), output_dim=1)
        priors = PriorConfig(sigma2_eps=0.1)
        res = map_estimate(data, priors, arch, init="random", learning_rate=0.02, epochs=800,
                           seed=0)
        assert res.log_joint > res.history[0]
        more = map_estimate(data, priors, arch, init="random", learning_rate=0.02, epochs=1100,
                            seed=0)
        assert more.log_joint == pytest.approx(res.log_joint, abs=2.0)

    @pytest.mark.parametrize("epochs", [0, 5])
    def test_runs_exactly_its_epochs(self, epochs):
        # the log joint before each epoch, then after the last
        data = gen_synthetic("heavy_tail", seed=1, sizes=(12, 0, 0))
        arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(3,), output_dim=1)
        res = map_estimate(data, PriorConfig(sigma2_eps=0.1), arch, epochs=epochs, seed=0)
        assert len(res.history) == epochs + 1
        assert res.history[-1] == res.log_joint

    def test_ground_truth_init(self):
        data = gen_synthetic("heavy_tail", seed=2, sizes=(20, 0, 0), distill=True)
        priors = PriorConfig(sigma2_w=10.0, sigma2_eps=0.1)
        res = map_estimate(data, priors, data.gt_arch, init="ground_truth", learning_rate=0.005,
                           epochs=50, seed=0)
        assert res.log_joint >= res.history[0] - 1e-6

    def test_ground_truth_init_needs_stored_weights(self):
        data = gen_synthetic("heavy_tail", seed=2, sizes=(10, 0, 0))
        arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(5,), output_dim=1)
        with pytest.raises(ConfigError):
            map_estimate(data, PriorConfig(), arch, init="ground_truth", seed=0)
        with pytest.raises(ConfigError, match="init"):
            map_estimate(data, PriorConfig(), arch, init="bogus", seed=0)

    def test_ground_truth_init_needs_generative_architecture(self):
        data = gen_synthetic("heavy_tail", seed=2, sizes=(10, 0, 0), distill=True)
        arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(5,), output_dim=1)
        with pytest.raises(ConfigError, match="generative architecture") as err:
            map_estimate(data, PriorConfig(), arch, init="ground_truth", seed=0)
        assert str(data.gt_arch) in str(err.value) and str(arch) in str(err.value)

    def test_ground_truth_init_rejects_standardized_data(self):
        data = standardize(gen_synthetic("heavy_tail", seed=2, sizes=(10, 0, 0), distill=True))
        with pytest.raises(ConfigError, match="standardize") as err:
            map_estimate(data, PriorConfig(), data.gt_arch, init="ground_truth", seed=0)
        assert "init = ground_truth" in str(err.value)

    def test_divergence_raises(self):
        data = gen_synthetic("heavy_tail", seed=3, sizes=(10, 0, 0))
        arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(3,), output_dim=1)
        priors = PriorConfig(sigma2_eps=1e-320)
        with pytest.raises(DivergenceError):
            map_estimate(data, priors, arch, init="random", epochs=5, seed=0)
