from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from bnnlv.data import DataSet, gen_synthetic
from bnnlv.diffcore import Architecture, mlp_forward
from bnnlv.exceptions import ConfigError
from bnnlv.model import PriorConfig, log_joint, log_prior_w, log_prior_z
from bnnlv.ncai import pearson_penalty
from bnnlv.nonident import (
    LayerTransformSpec,
    SingleLayerWeights,
    bias_probability,
    c_lower_bound,
    identity_layer_spec,
    layer_transform,
    node_transform,
    t_diag_layer_spec,
    t_upper_bound,
    y_encoding_transform,
)

TIED = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(1,), output_dim=1)


def _tied_flat(w):
    return np.array([w, w, 0.0, 1.0, 0.0])


def _random_layer(rng, h=5, d=2):
    return SingleLayerWeights(
        w_x=rng.standard_normal((h, d)),
        w_z=rng.standard_normal((h, d)),
        b=rng.standard_normal(h),
        w_out=rng.standard_normal((h, 1)),
        b_out=rng.standard_normal(1),
    )


class TestNodeTransform:
    def test_identity_at_one(self):
        w_hat, z_hat = node_transform(2.0, np.array([1.0]), np.array([0.5]), 1.0)
        assert w_hat == 2.0
        assert z_hat[0] == 0.5

    def test_worked_example(self):
        w_hat, z_hat = node_transform(2.0, 1.0, 0.5, 0.5)
        assert w_hat == pytest.approx(4.0)
        assert float(z_hat) == pytest.approx(-0.25)
        before = max(2.0 * 1.5, 0.01 * 2.0 * 1.5)
        after = max(4.0 * 0.75, 0.01 * 4.0 * 0.75)
        assert before == after == pytest.approx(3.0)

    def test_output_invariance_random(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            w = rng.standard_normal()
            x = rng.standard_normal((1, 1))
            z = rng.normal(0.0, 0.1, size=(1, 1))
            c = rng.uniform(0.5, 1.0)
            w_hat, z_hat = node_transform(w, x, z, c)
            a = mlp_forward(TIED, _tied_flat(w), x, z)
            b = mlp_forward(TIED, _tied_flat(float(w_hat)), x, z_hat)
            assert abs(a[0, 0] - b[0, 0]) <= 1e-12

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            node_transform(1.0, 0.0, 0.0, 0.0)


class TestLayerTransform:
    def test_identity_spec(self):
        rng = np.random.default_rng(1)
        w = _random_layer(rng)
        x = rng.standard_normal((6, 2))
        z = rng.standard_normal((6, 2))
        new, z_hat = layer_transform(w, identity_layer_spec(w.w_z), x, z)
        assert np.allclose(new.w_x, w.w_x)
        assert np.allclose(new.w_z, w.w_z)
        assert np.allclose(new.b, w.b)
        assert np.allclose(z_hat, z)

    def test_diag_simplification(self):
        rng = np.random.default_rng(2)
        w = _random_layer(rng, h=4, d=3)
        t = np.array([0.5, -0.3, 1.2])
        spec = t_diag_layer_spec(w.w_z, t)
        x = rng.standard_normal((5, 3))
        z = rng.standard_normal((5, 3))
        new, z_hat = layer_transform(w, spec, x, z)
        assert np.allclose(new.w_x, w.w_x + w.w_z)
        assert np.allclose(z_hat, t[None, :] * (z - x))

    def test_output_invariance_random(self):
        rng = np.random.default_rng(3)
        arch = Architecture(input_dim_x=2, input_dim_z=2, hidden_layers=(5,), output_dim=1)
        for _ in range(1000):
            w = _random_layer(rng, h=5, d=2)
            t = rng.standard_normal((2, 2)) + 3.0 * np.eye(2)
            spec = LayerTransformSpec(
                s=rng.standard_normal(2),
                u=rng.standard_normal(2),
                r=w.w_z @ np.linalg.inv(t),
                t=t,
            )
            x = rng.standard_normal((3, 2))
            z = rng.standard_normal((3, 2))
            new, z_hat = layer_transform(w, spec, x, z)
            a = mlp_forward(arch, w.to_flat(arch), x, z)
            b = mlp_forward(arch, new.to_flat(arch), x, z_hat)
            assert np.max(np.abs(a - b)) <= 1e-10

    def test_rejects_bad_factorization(self):
        rng = np.random.default_rng(4)
        w = _random_layer(rng)
        spec = identity_layer_spec(w.w_z + 1.0)
        with pytest.raises(ValueError, match="factor"):
            layer_transform(w, spec, np.zeros((2, 2)), np.zeros((2, 2)))

    def test_rejects_zero_t(self):
        rng = np.random.default_rng(5)
        w = _random_layer(rng, d=2)
        with pytest.raises(ValueError):
            t_diag_layer_spec(w.w_z, [1.0, 0.0])

    def test_rejects_singular_t(self):
        rng = np.random.default_rng(7)
        t = np.array([[1.0, 1.0], [1.0, 1.0]])
        r = rng.standard_normal((5, 2))
        w = replace(_random_layer(rng, d=2), w_z=r @ t)
        spec = LayerTransformSpec(s=np.ones(2), u=np.zeros(2), r=r, t=t)
        with pytest.raises(ValueError, match="T must be invertible"):
            layer_transform(w, spec, np.zeros((2, 2)), np.zeros((2, 2)))

    def test_flat_roundtrip(self):
        rng = np.random.default_rng(6)
        arch = Architecture(input_dim_x=2, input_dim_z=2, hidden_layers=(4,), output_dim=1)
        w = _random_layer(rng, h=4, d=2)
        back = SingleLayerWeights.from_flat(arch, w.to_flat(arch))
        for name in ("w_x", "w_z", "b", "w_out", "b_out"):
            assert np.array_equal(getattr(back, name), getattr(w, name))


class TestYEncoding:
    def test_reconstructs_goldberg(self):
        data = gen_synthetic("goldberg", seed=0, sizes=(60, 0, 0))
        arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(8,), output_dim=1)
        weights, z_hat = y_encoding_transform(data, arch)
        view = data.view("train")
        pred = mlp_forward(arch, weights.to_flat(arch), view.x, z_hat)
        assert np.max(np.abs(pred - view.y)) <= 1e-10

    def test_latents_encode_targets(self):
        # the encoding is monotone in y everywhere, hence rank correlation 1;
        # linear correlation reaches 0.99 once the targets share a sign,
        # where the activation inverse is linear
        data = gen_synthetic("goldberg", seed=1, sizes=(80, 0, 0))
        arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(8,), output_dim=1)
        _, z_hat = y_encoding_transform(data, arch)
        y = data.view("train").y
        rho = stats.spearmanr(y[:, 0], z_hat[:, 0]).statistic
        assert rho == pytest.approx(1.0)

        shifted = DataSet(
            x=data.x, y=data.y + 12.0,
            train_idx=data.train_idx, val_idx=[], test_idx=[],
        )
        _, z_pos = y_encoding_transform(shifted, arch)
        assert float(pearson_penalty(shifted.view("train").y, z_pos)) >= 0.99

    def test_uniform_output_weights(self):
        data = gen_synthetic("goldberg", seed=2, sizes=(20, 0, 0))
        arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(10,), output_dim=1)
        weights, _ = y_encoding_transform(data, arch)
        assert np.all(weights.w_out == 1.0 / 10.0)
        assert np.all(weights.w_x == 0.0)

    def test_requires_single_hidden_layer(self):
        data = gen_synthetic("goldberg", seed=3, sizes=(10, 0, 0))
        arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(4, 4), output_dim=1)
        with pytest.raises(ConfigError):
            y_encoding_transform(data, arch)


class TestPosteriorGap:
    def test_identity_is_zero(self):
        data = gen_synthetic("heavy_tail", seed=0, sizes=(10, 0, 0))
        w = _tied_flat(0.7)
        z = np.zeros((10, 1))
        priors = PriorConfig()
        assert log_joint(TIED, w, z, data, priors) - log_joint(TIED, w, z, data, priors) == 0.0

    def test_reduces_to_prior_difference(self):
        # the transform preserves the likelihood, so the gap must equal the
        # difference of the two prior terms computed independently
        rng = np.random.default_rng(7)
        data = gen_synthetic("heavy_tail", seed=1, sizes=(50, 0, 0))
        priors = PriorConfig(sigma2_w=2.0, sigma2_z=0.01, sigma2_eps=0.1)
        w = rng.standard_normal()
        z = rng.normal(0.0, 0.1, size=(50, 1))
        c = 0.99
        w_hat, z_hat = node_transform(w, data.view("train").x, z, c)
        got = log_joint(TIED, _tied_flat(float(w_hat)), z_hat, data, priors) - log_joint(
            TIED, _tied_flat(w), z, data, priors
        )
        expected = (
            log_prior_w(_tied_flat(float(w_hat)), 2.0)
            - log_prior_w(_tied_flat(w), 2.0)
            + log_prior_z(z_hat, 0.01)
            - log_prior_z(z, 0.01)
        )
        assert got == pytest.approx(expected, abs=1e-9)

    def test_matches_analytic_expansion(self):
        rng = np.random.default_rng(8)
        data = gen_synthetic("heavy_tail", seed=2, sizes=(30, 0, 0))
        x = data.view("train").x
        priors = PriorConfig(sigma2_w=1.0, sigma2_z=0.01, sigma2_eps=0.1)
        for _ in range(20):
            w = rng.standard_normal()
            z = rng.normal(0.0, 0.1, size=(30, 1))
            c = rng.uniform(0.9, 0.999)
            w_hat, z_hat = node_transform(w, x, z, c)
            got = log_joint(TIED, _tied_flat(float(w_hat)), z_hat, data, priors) - log_joint(
                TIED, _tied_flat(w), z, data, priors
            )
            latent = (
                (2 * c - c * c - 1) * np.sum(x * x)
                + (1 - c * c) * np.sum(z * z)
                + (2 * c - 2 * c * c) * np.sum(x * z)
            ) / (2 * 0.01)
            # the tied net stores the scalar weight twice
            weight = 2.0 * (w**2 - float(w_hat) ** 2) / 2.0
            assert got == pytest.approx(latent + weight, abs=1e-10)

    def test_positive_for_valid_c_at_large_n(self):
        rng = np.random.default_rng(9)
        priors = PriorConfig(sigma2_w=1.0, sigma2_z=0.01, sigma2_eps=0.1)
        rec = bias_probability(
            {"kind": "node", "c": 0.99}, [1000], 1, priors, 0.0, 1.0,
            seed=int(rng.integers(1000)),
        )
        assert rec[0]["mean_gap"] > 0.0


class TestBounds:
    def test_c_lower_bound_examples(self):
        assert c_lower_bound(0.0, 1.0, 1.0) == pytest.approx(0.0)
        assert c_lower_bound(0.0, 1.0, 0.01) == pytest.approx(0.99 / 1.01)
        assert c_lower_bound(0.0, 0.5, 1.0) < 0.0

    def test_c_lower_bound_below_one(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            mu = rng.standard_normal()
            s2x = rng.uniform(0.01, 4.0)
            s2z = rng.uniform(0.01, 4.0)
            assert c_lower_bound(mu, s2x, s2z) < 1.0

    def test_t_upper_bound_examples(self):
        assert t_upper_bound(0.0, 0.0, 1.0) == pytest.approx(1.0)
        assert t_upper_bound(0.0, 1.0, 1.0) == pytest.approx(np.sqrt(0.5))

    def test_t_bound_marks_sign_change(self):
        # the mean per-observation latent gap flips sign across the bound
        rng = np.random.default_rng(11)
        bound = t_upper_bound(0.0, 1.0, 1.0)
        w = _random_layer(rng, h=3, d=1)
        n = 40_000
        x = rng.standard_normal((n, 1))
        z = rng.standard_normal((n, 1))
        gaps = {}
        for factor in (0.9, 1.1):
            spec = t_diag_layer_spec(w.w_z, [factor * bound])
            _, z_hat = layer_transform(w, spec, x, z)
            gaps[factor] = float(np.mean(z * z - z_hat * z_hat) / 2.0)
        assert gaps[0.9] > 0.0
        assert gaps[1.1] < 0.0


class TestBiasProbability:
    PRIORS = PriorConfig(sigma2_w=1.0, sigma2_z=0.01, sigma2_eps=0.1)

    def test_identity_never_positive(self):
        rec = bias_probability(
            {"kind": "node", "c": 1.0}, [10, 100], 20, self.PRIORS, 0.0, 1.0, seed=0
        )
        assert all(r["frac_positive"] == 0.0 for r in rec)
        assert all(r["mean_gap"] == 0.0 for r in rec)

    def test_node_transform_dominates_at_large_n(self):
        rec = bias_probability(
            {"kind": "node", "c": 0.99}, [1000], 40, self.PRIORS, 0.0, 1.0, seed=0
        )
        assert rec[0]["frac_positive"] >= 0.85
        assert rec[0]["mean_latent_gap_per_obs"] > 0.0

    def test_layer_transform_dominates_at_large_n(self):
        priors = PriorConfig(sigma2_w=1.0, sigma2_z=1.0, sigma2_eps=0.1)
        rec = bias_probability(
            {"kind": "layer", "t_scale": 0.5, "hidden": 5},
            [1000], 30, priors, 0.0, 1.0, seed=0,
        )
        assert rec[0]["frac_positive"] >= 0.9

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            bias_probability({"kind": "swap"}, [10], 5, self.PRIORS, 0.0, 1.0, seed=0)

    @pytest.mark.parametrize("n_values, trials", [([0], 5), ([10, -3], 5), ([10], 0)])
    def test_rejects_sizes_below_one(self, n_values, trials):
        with pytest.raises(ConfigError, match="n >= 1"):
            bias_probability(
                {"kind": "node", "c": 0.99}, n_values, trials, self.PRIORS, 0.0, 1.0, seed=0
            )

    @pytest.mark.parametrize("sigma2_x", [-1.0, np.nan])
    def test_rejects_negative_or_nan_x_variance(self, sigma2_x):
        with pytest.raises(ConfigError, match="sigma2_x"):
            bias_probability(
                {"kind": "node", "c": 0.99}, [10], 5, self.PRIORS, 0.0, sigma2_x, seed=0
            )

    @pytest.mark.parametrize("kind, mu_x, sigma2_x, match", [
        ("node", np.nan, 1.0, "mu_x"), ("layer", np.inf, 1.0, "mu_x"),
        ("node", 0.0, np.inf, "sigma2_x"), ("layer", 0.0, np.inf, "sigma2_x"),
        # mu_x**2 overflows, so the layer factor t would be 0
        ("layer", 1e200, 1.0, "t_upper_bound"),
    ])
    def test_rejects_moments_without_a_finite_gap(self, kind, mu_x, sigma2_x, match):
        transform = {"kind": "node", "c": 0.99} if kind == "node" else {
            "kind": "layer", "t_scale": 0.5, "hidden": 5}
        with pytest.raises(ConfigError, match=match):
            bias_probability(transform, [10], 5, self.PRIORS, mu_x, sigma2_x, seed=0)

    @pytest.mark.parametrize("kind", ["node", "layer"])
    def test_matches_transforms_and_log_priors(self, kind):
        # bias_probability inlines both transforms and both prior gaps; one
        # trial replays its rng order (x, z, then the weights) through
        # node_transform or layer_transform and the model's log priors
        priors = PriorConfig(sigma2_w=1.5, sigma2_z=0.5, sigma2_eps=0.1)
        mu_x, sigma2_x, n, h, seed = 0.3, 2.0, 200, 4, 7
        if kind == "node":
            transform = {"kind": "node", "c": 0.9}
        else:
            transform = {"kind": "layer", "t_scale": 0.5, "hidden": h}
        (rec,) = bias_probability(transform, [n], 1, priors, mu_x, sigma2_x, seed)

        rng = np.random.default_rng(seed)
        x = rng.normal(mu_x, np.sqrt(sigma2_x), size=(n, 1))
        z = rng.normal(0.0, np.sqrt(priors.sigma2_z), size=(n, 1))
        sd_w = np.sqrt(priors.sigma2_w)
        if kind == "node":
            w = np.array([rng.normal(0.0, sd_w)])
            w_hat, z_hat = node_transform(w, x, z, 0.9)
        else:
            weights = SingleLayerWeights(
                w_x=rng.normal(0.0, sd_w, size=(h, 1)),
                w_z=rng.normal(0.0, sd_w, size=(h, 1)),
                b=np.zeros(h), w_out=np.zeros((h, 1)), b_out=np.zeros(1),
            )
            t = 0.5 * t_upper_bound(mu_x, sigma2_x, priors.sigma2_z)
            moved, z_hat = layer_transform(weights, t_diag_layer_spec(weights.w_z, [t]), x, z)
            w = np.concatenate([weights.w_x, weights.w_z])
            w_hat = np.concatenate([moved.w_x, moved.w_z])
        latent = log_prior_z(z_hat, priors.sigma2_z) - log_prior_z(z, priors.sigma2_z)
        weight = log_prior_w(w_hat, priors.sigma2_w) - log_prior_w(w, priors.sigma2_w)
        assert rec["mean_gap"] == pytest.approx(latent + weight, rel=1e-12)
        assert rec["mean_latent_gap_per_obs"] == pytest.approx(latent / n, rel=1e-12)
