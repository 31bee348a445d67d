import numpy as np
import pytest
from scipy import stats

from bnnlv.data import DataSet, gen_synthetic, ground_truth_fn
from bnnlv.diffcore import Architecture, mlp_forward
from bnnlv.exceptions import ConfigError
from bnnlv.model import (
    _DRAW_CHUNK,
    FixedFunction,
    PriorConfig,
    log_joint,
    log_likelihood,
    log_prior_w,
    log_prior_z,
    predictive_means,
    predictive_sample_matrix,
)
from bnnlv.nonident import node_transform
from bnnlv.vi import random_init
from oracles import per_draw_predictive_means, point_mass


def _single_row(x, y):
    return DataSet(x=[[x]], y=[[y]], train_idx=[0], val_idx=[], test_idx=[])


ONE_NODE = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(1,), output_dim=1)


def _one_node_w(w):
    # tied input weights, zero biases, unit output weight: y = g(w*(x+z))
    return np.array([w, w, 0.0, 1.0, 0.0])


class TestLogLikelihood:
    def test_zero_residual_normalizer(self):
        data = _single_row(0.0, 0.0)
        arch = Architecture(input_dim_x=1, input_dim_z=0, hidden_layers=(1,), output_dim=1)
        w = np.zeros(arch.param_count)
        got = log_likelihood(arch, w, np.zeros((1, 0)), data.x, data.y, 0.1)
        assert got == pytest.approx(-0.5 * np.log(2.0 * np.pi * 0.1), abs=1e-12)

    def test_matches_per_point_summation(self):
        rng = np.random.default_rng(0)
        data = gen_synthetic("heavy_tail", seed=1, sizes=(9, 0, 0))
        arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(4,), output_dim=1)
        w = rng.standard_normal(arch.param_count)
        Z = rng.standard_normal((9, 1))
        view = data.view("train")
        total = 0.0
        for n in range(9):
            mu = mlp_forward(arch, w, view.x[n : n + 1], Z[n : n + 1])
            total += float(
                -0.5 * (view.y[n, 0] - mu[0, 0]) ** 2 / 0.3
                - 0.5 * np.log(2.0 * np.pi * 0.3)
            )
        got = log_likelihood(arch, w, Z, data.x, data.y, 0.3)
        assert got == pytest.approx(total, abs=1e-12)

    def test_invariant_under_node_transform(self):
        rng = np.random.default_rng(5)
        data = gen_synthetic("heavy_tail", seed=2, sizes=(20, 0, 0))
        x = data.view("train").x
        for _ in range(100):
            w = rng.standard_normal()
            z = rng.normal(0.0, 0.1, size=(20, 1))
            c = rng.uniform(0.5, 1.0)
            w_hat, z_hat = node_transform(w, x, z, c)
            a = log_likelihood(ONE_NODE, _one_node_w(w), z, data.x, data.y, 0.1)
            b = log_likelihood(ONE_NODE, _one_node_w(float(w_hat)), z_hat, data.x, data.y, 0.1)
            assert abs(a - b) <= 1e-9

    def test_rejects_bad_variance(self):
        data = _single_row(0.0, 0.0)
        arch = Architecture(input_dim_x=1, input_dim_z=0, hidden_layers=(1,), output_dim=1)
        with pytest.raises(ValueError):
            log_likelihood(arch, np.zeros(arch.param_count), np.zeros((1, 0)), data.x, data.y, 0.0)


class TestPriors:
    def test_single_coordinate_normalizer(self):
        assert log_prior_w(np.zeros(1), 1.0) == pytest.approx(-0.5 * np.log(2.0 * np.pi))

    def test_scaling_quadratic(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((7, 2))
        s2 = 0.3
        diff = log_prior_z(2.0 * z, s2) - log_prior_z(z, s2)
        assert diff == pytest.approx(-3.0 * np.sum(z * z) / (2.0 * s2), abs=1e-10)

    def test_log_joint_recomposition(self):
        rng = np.random.default_rng(2)
        data = gen_synthetic("heavy_tail", seed=3, sizes=(12, 0, 0))
        arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(3,), output_dim=1)
        w = rng.standard_normal(arch.param_count)
        Z = rng.standard_normal((12, 1))
        priors = PriorConfig(sigma2_w=2.0, sigma2_z=0.5, sigma2_eps=0.1)
        expected = (
            log_likelihood(arch, w, Z, data.x, data.y, 0.1)
            + log_prior_w(w, 2.0)
            + log_prior_z(Z, 0.5)
        )
        assert log_joint(arch, w, Z, data, priors) == pytest.approx(expected, abs=1e-12)

    def test_log_joint_empty_data(self):
        data = DataSet(
            x=np.zeros((0, 1)), y=np.zeros((0, 1)),
            train_idx=[], val_idx=[], test_idx=[],
        )
        arch = Architecture(input_dim_x=1, input_dim_z=0, hidden_layers=(2,), output_dim=1)
        w = np.ones(arch.param_count)
        priors = PriorConfig()
        assert log_joint(arch, w, np.zeros((0, 0)), data, priors) == pytest.approx(
            log_prior_w(w, 1.0)
        )

    def test_prior_config_validation(self):
        with pytest.raises(ConfigError):
            PriorConfig(sigma2_w=0.0)
        with pytest.raises(ConfigError):
            PriorConfig(ig_alpha=1.0)


class TestSampling:
    def test_depeweg_generation(self):
        data = gen_synthetic("depeweg", seed=9, sizes=(20_000, 10, 10))
        resid = data.y - ground_truth_fn("depeweg")(data.x, data.z_true)
        assert resid.var() == pytest.approx(0.1, rel=0.1)

    def test_latent_mean_lln(self):
        data = gen_synthetic("depeweg", seed=1, sizes=(100_000, 1, 1))  # sigma2_z = 1
        assert abs(data.z_true.mean()) <= 0.01


class TestPredictive:
    def test_point_mass_zero_weights(self):
        arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(3,), output_dim=1)
        q = point_mass(arch, np.zeros(arch.param_count))
        priors = PriorConfig(sigma2_z=1.0, sigma2_eps=0.25)
        ys = predictive_sample_matrix(q, priors, np.array([[0.7]]), 4000, seed=0)[0]
        assert ys.mean() == pytest.approx(0.0, abs=0.05)
        assert ys.var() == pytest.approx(0.25, rel=0.1)

    def test_latents_come_from_prior(self):
        # the predictive never touches trained per-point factors; a function
        # that returns its latent input exposes the z draws
        f = FixedFunction(lambda x, z: z, input_dim_z=1, output_dim=1)
        priors = PriorConfig(sigma2_z=0.04, sigma2_eps=1e-18)
        zs = predictive_sample_matrix(f, priors, np.array([[0.0]]), 10_000, seed=1)[0]
        p = stats.kstest(zs[:, 0], stats.norm(scale=0.2).cdf).pvalue
        assert p > 0.01

    def test_true_depeweg_interval_coverage(self):
        f = FixedFunction(ground_truth_fn("depeweg"), input_dim_z=1, output_dim=1)
        priors = PriorConfig(sigma2_z=1.0, sigma2_eps=0.1)
        draws = predictive_sample_matrix(f, priors, np.array([[0.0]]), 4000, seed=2)[0, :, 0]
        lo, hi = np.percentile(draws, [2.5, 97.5])
        fresh = predictive_sample_matrix(f, priors, np.array([[0.0]]), 2000, seed=3)[0, :, 0]
        cover = np.mean((fresh >= lo) & (fresh <= hi))
        assert 0.93 <= cover <= 0.97

    def test_linear_mean_matches_forward(self):
        # no hidden layers: the map is exactly linear, so the noise-free
        # predictive mean equals the forward pass at the mean latent
        arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(), output_dim=1)
        w = np.array([1.5, -0.5, 0.25])
        q = point_mass(arch, w)
        priors = PriorConfig(sigma2_z=1.0, sigma2_eps=1e-18)
        x = np.array([[2.0]])
        draws = predictive_sample_matrix(q, priors, x, 4000, seed=4)[0, :, 0]
        expected = mlp_forward(arch, w, x, np.zeros((1, 1)))[0, 0]
        se = draws.std() / np.sqrt(len(draws))
        assert abs(draws.mean() - expected) <= 3.0 * se

    @pytest.mark.parametrize("k", [0, 1])
    def test_means_are_one_s_by_n_by_l_array(self, k):
        arch = Architecture(input_dim_x=1, input_dim_z=k, hidden_layers=(3,), output_dim=2)
        q = random_init(arch, 4, seed=0)
        x = np.linspace(-1.0, 1.0, 7).reshape(-1, 1)
        means = predictive_means(q, PriorConfig(), x, 5, np.random.default_rng(1))
        assert isinstance(means, np.ndarray)
        assert means.shape == (5, 7, 2)
        # every draw takes its own weights
        assert not np.array_equal(means[0], means[1])

    @pytest.mark.parametrize("kind", ["mean_field", "fixed"])
    @pytest.mark.parametrize("k", [0, 1])
    def test_chunked_draws_equal_per_draw_loop(self, kind, k):
        # two full chunks and a ragged one of a single draw
        arch = Architecture(input_dim_x=1, input_dim_z=k, hidden_layers=(5, 3), output_dim=2)
        q = random_init(arch, 4, seed=6)
        q_w = {
            "mean_field": q,
            "fixed": FixedFunction(
                lambda x, z: np.hstack([np.sin(x), x * x]) + (0.0 if z is None else z),
                input_dim_z=k, output_dim=2,
            ),
        }[kind]
        priors = PriorConfig(sigma2_z=0.7)
        x = np.linspace(-2.0, 2.0, 9).reshape(-1, 1)
        s = 2 * _DRAW_CHUNK + 1
        got = predictive_means(q_w, priors, x, s, np.random.default_rng(3))
        want = per_draw_predictive_means(q_w, priors, x, s, np.random.default_rng(3))
        assert got.shape == (s, 9, 2)
        np.testing.assert_array_equal(got, want)

    def test_noise_is_drawn_after_all_means(self):
        arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(3,), output_dim=1)
        q = random_init(arch, 4, seed=0)
        priors = PriorConfig(sigma2_z=0.5, sigma2_eps=0.3)
        x = np.linspace(-1.0, 1.0, 6).reshape(-1, 1)
        rng = np.random.default_rng(5)
        means = predictive_means(q, priors, x, 40, rng)
        noise = rng.normal(0.0, np.sqrt(0.3), size=means.shape)
        draws = predictive_sample_matrix(q, priors, x, 40, seed=5)
        assert draws.shape == (6, 40, 1)
        np.testing.assert_array_equal(draws, (means + noise).transpose(1, 0, 2))
