import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import logsumexp
from scipy.stats import norm

from bnnlv import diffcore as dc
from bnnlv.data import DataSet, gen_synthetic
from bnnlv.diffcore import Architecture, softplus
from bnnlv.exceptions import ConfigError
from bnnlv.model import PriorConfig
from bnnlv.vi import (
    _LOGPDF_CHUNK,
    MeanFieldPosterior,
    _logsumexp_rows,
    aggregated_posterior_logpdf,
    elbo,
    elbo_graph,
    kl_diag_gaussian,
    random_init,
)
from oracles import dense_mixture_logpdf, per_sample_elbo_graph


def _softplus_inv(s):
    return np.log(np.expm1(s))


def _dataset(x, y):
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    n = x.shape[0]
    return DataSet(x=x, y=y, train_idx=list(range(n)), val_idx=[], test_idx=[])


class TestKl:
    def test_unit_mean_shift(self):
        assert kl_diag_gaussian(1.0, 1.0, 0.0, 1.0) == pytest.approx(0.5)

    def test_half_variance(self):
        expected = 0.5 * (np.log(2.0) - 0.5)
        assert kl_diag_gaussian(0.0, 0.5, 0.0, 1.0) == pytest.approx(expected)

    def test_matching_distributions(self):
        rng = np.random.default_rng(0)
        mu = rng.standard_normal(6)
        var = rng.uniform(0.1, 2.0, size=6)
        assert kl_diag_gaussian(mu, var, mu, var) == pytest.approx(0.0, abs=1e-12)

    def test_scalar_prior_counts_every_coordinate(self):
        one = kl_diag_gaussian(0.3, 0.7, 0.0, 1.0)
        many = kl_diag_gaussian(np.full(5, 0.3), np.full(5, 0.7), 0.0, 1.0)
        assert many == pytest.approx(5.0 * one)

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError):
            kl_diag_gaussian(0.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            kl_diag_gaussian(0.0, 1.0, 0.0, -1.0)


class TestPosterior:
    def test_sigma_is_softplus_of_rho(self):
        arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(2,), output_dim=1)
        q = random_init(arch, 4, seed=0)
        assert np.allclose(q.sigma_w, softplus(q.rho_w))
        assert np.allclose(q.sigma_z, softplus(q.rho_z))
        assert np.all(q.sigma_w > 0)

    def test_shape_validation(self):
        arch = Architecture(input_dim_x=1, input_dim_z=2, hidden_layers=(2,), output_dim=1)
        p = arch.param_count
        with pytest.raises(ValueError):
            MeanFieldPosterior(arch, np.zeros(p + 1), np.zeros(p + 1), np.zeros((3, 2)), np.zeros((3, 2)))
        with pytest.raises(ValueError, match="columns"):
            MeanFieldPosterior(arch, np.zeros(p), np.zeros(p), np.zeros((3, 1)), np.zeros((3, 1)))

    def test_random_init_deterministic(self):
        arch = Architecture(input_dim_x=2, input_dim_z=1, hidden_layers=(3,), output_dim=1)
        a = random_init(arch, 5, seed=7)
        b = random_init(arch, 5, seed=7)
        for u, v in zip(a.params(), b.params()):
            assert np.array_equal(u, v)
        c = random_init(arch, 5, seed=8)
        assert not np.array_equal(a.mu_w, c.mu_w)

    def test_no_latent_block(self):
        arch = Architecture(input_dim_x=1, input_dim_z=0, hidden_layers=(2,), output_dim=1)
        q = random_init(arch, 6, seed=0)
        assert q.mu_z.shape == (6, 0)

    def test_dict_roundtrip(self):
        # with latent inputs, and without (empty latent blocks)
        for k in (1, 0):
            arch = Architecture(
                input_dim_x=2, input_dim_z=k, hidden_layers=(3, 2), output_dim=1, leaky_slope=0.2
            )
            q = random_init(arch, 4, seed=3)
            # in memory, and through JSON as model.json stores it
            for d in (q.to_dict(), json.loads(json.dumps(q.to_dict()))):
                back = MeanFieldPosterior.from_dict(d)
                assert back.arch == q.arch
                for u, v in zip(q.params(), back.params()):
                    assert u.shape == v.shape and np.array_equal(u, v)

    def test_draws_deterministic_given_rng(self):
        arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(2,), output_dim=1)
        q = random_init(arch, 4, seed=1)
        w1 = q.weight_sampler()(np.random.default_rng(9))
        w2 = q.weight_sampler()(np.random.default_rng(9))
        assert np.array_equal(w1, w2)
        eps = np.random.default_rng(9).standard_normal(q.mu_w.shape)
        assert np.array_equal(w1, q.mu_w + softplus(q.rho_w) * eps)
        f = q.draw_function(np.random.default_rng(9))
        x = np.array([[0.3]])
        z = np.array([[0.1]])
        assert np.array_equal(f(x, z), f(x, z))
        with pytest.raises(ValueError, match="architecture requires latent inputs z"):
            f(x)

    def test_new_sampler_reads_updated_scale(self):
        # training updates rho_w in place; a sampler made afterwards must
        # not reuse the old scale
        arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(2,), output_dim=1)
        q = random_init(arch, 4, seed=1)
        before = q.weight_sampler()(np.random.default_rng(9))
        q.rho_w += 1.0
        after = q.weight_sampler()(np.random.default_rng(9))
        eps = np.random.default_rng(9).standard_normal(q.mu_w.shape)
        assert np.array_equal(after, q.mu_w + softplus(q.rho_w) * eps)
        assert not np.array_equal(before, after)


class TestElbo:
    def test_linear_gaussian_closed_form(self):
        # no hidden layers and no latents: y = w1*x + w2, so the expected
        # squared residual under q is (y - a*mu1 - mu2)^2 + a^2 s1^2 + s2^2
        arch = Architecture(input_dim_x=1, input_dim_z=0, hidden_layers=(), output_dim=1)
        a, y = 0.5, 1.0
        data = _dataset([[a]], [[y]])
        mu = np.array([0.8, 0.3])
        rho = np.array([-4.0, -4.5])
        s2 = softplus(rho) ** 2
        q = MeanFieldPosterior(arch, mu, rho, np.zeros((1, 0)), np.zeros((1, 0)))
        priors = PriorConfig(sigma2_w=2.0, sigma2_eps=0.1)

        resid2 = (y - a * mu[0] - mu[1]) ** 2 + a * a * s2[0] + s2[1]
        ell = -0.5 * resid2 / 0.1 - 0.5 * np.log(2.0 * np.pi * 0.1)
        kl = kl_diag_gaussian(mu, s2, 0.0, 2.0)
        got = elbo(q, data, priors, n_mc=2000, seed=0)
        assert got == pytest.approx(ell - kl, abs=0.01)

    def test_prior_matching_posterior_has_zero_kl(self):
        arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(2,), output_dim=1)
        priors = PriorConfig(sigma2_w=1.0, sigma2_z=0.25, sigma2_eps=0.1)
        n = 3
        q = MeanFieldPosterior(
            arch,
            np.zeros(arch.param_count),
            np.full(arch.param_count, _softplus_inv(1.0)),
            np.zeros((n, 1)),
            np.full((n, 1), _softplus_inv(0.5)),
        )
        data = _dataset(np.zeros((n, 1)), np.zeros((n, 1)))
        leaves = dict(zip(("mu_w", "rho_w", "mu_z", "rho_z"), q.params()))
        _, parts = elbo_graph(arch, leaves, data.x, data.y, priors, n_mc=2, seed=0)
        assert parts["kl_w"] == pytest.approx(0.0, abs=1e-9)
        assert parts["kl_z"] == pytest.approx(0.0, abs=1e-9)

    def test_same_seed_reproduces(self):
        arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(3,), output_dim=1)
        q = random_init(arch, 5, seed=0)
        data = _dataset(np.linspace(0, 1, 5).reshape(-1, 1), np.zeros((5, 1)))
        priors = PriorConfig()
        assert elbo(q, data, priors, n_mc=4, seed=11) == elbo(q, data, priors, n_mc=4, seed=11)

    def test_row_count_mismatch(self):
        arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(2,), output_dim=1)
        q = random_init(arch, 4, seed=0)
        data = _dataset(np.zeros((3, 1)), np.zeros((3, 1)))
        with pytest.raises(ValueError, match="latent rows"):
            elbo(q, data, PriorConfig(), n_mc=1, seed=0)

    def test_rejects_bad_n_mc(self):
        arch = Architecture(input_dim_x=1, input_dim_z=0, hidden_layers=(), output_dim=1)
        q = random_init(arch, 1, seed=0)
        data = _dataset([[0.0]], [[0.0]])
        with pytest.raises(ConfigError):
            elbo(q, data, PriorConfig(), n_mc=0, seed=0)


class TestBatchedElbo:
    """All Monte Carlo samples in one forward pass, against the per-sample loop."""

    @staticmethod
    def _value_and_grads(build, q):
        leaves = {k: dc.leaf(v) for k, v in zip(("mu_w", "rho_w", "mu_z", "rho_z"), q.params())}
        node = build(leaves)
        dc.backward(node)
        return float(node.value), {k: leaf.grad for k, leaf in leaves.items()}

    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("n_mc", [1, 16])
    def test_matches_per_sample_loop(self, n_mc, k):
        data = gen_synthetic("heavy_tail", seed=4, sizes=(20, 0, 0))
        view = data.view("train")
        arch = Architecture(input_dim_x=1, input_dim_z=k, hidden_layers=(6, 4), output_dim=1)
        q = random_init(arch, 20, seed=2)
        priors = PriorConfig(sigma2_w=0.8, sigma2_z=0.6, sigma2_eps=0.2)
        args = (arch, view.x, view.y, priors, n_mc, 5)
        got, got_g = self._value_and_grads(
            lambda lv: elbo_graph(args[0], lv, *args[1:])[0], q
        )
        want, want_g = self._value_and_grads(
            lambda lv: per_sample_elbo_graph(args[0], lv, *args[1:]), q
        )
        # one sample draws exactly what one pass of the loop draws; more
        # samples sum the same terms in another order
        tol = 0.0 if n_mc == 1 else 1e-12
        assert abs(got - want) <= tol * abs(want)
        for name, g in want_g.items():
            if g is None:
                assert got_g[name] is None
                continue
            assert got_g[name].shape == g.shape
            assert np.max(np.abs(got_g[name] - g), initial=0.0) <= tol * np.max(
                np.abs(g), initial=0.0
            ), name


def _assert_matches_scipy(a):
    want = logsumexp(a, axis=1)
    got = _logsumexp_rows(a.copy())
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True), (got, want)


class TestLogsumexpRows:
    # the private copy must equal the installed scipy bit for bit; a scipy
    # release that changes its algorithm fails here rather than drifting

    def test_tied_maxima(self):
        a = np.round(np.random.default_rng(0).standard_normal((40, 30)))
        a[0] = 2.5
        a[1, [3, 7, 11]] = 9.0
        _assert_matches_scipy(a)

    def test_rows_with_minus_inf(self):
        a = np.random.default_rng(1).standard_normal((6, 20))
        a[0, :5] = -np.inf
        a[1, ::2] = -np.inf
        a[2, :-1] = -np.inf
        a[3] = -np.inf  # all -inf: the fallback gives -inf
        _assert_matches_scipy(a)

    def test_plus_inf_and_nan(self):
        a = np.random.default_rng(2).standard_normal((6, 10))
        a[0, 4] = np.inf
        a[1, [2, 5]] = np.inf
        a[2, 3] = np.nan
        a[3, :] = np.nan
        a[4, [0, 1, 2]] = np.inf, -np.inf, np.nan
        a[5, [0, 1]] = np.inf, -np.inf
        _assert_matches_scipy(a)

    def test_extreme_magnitudes(self):
        a = np.random.default_rng(3).standard_normal((4, 9))
        a[0] = 1e308
        a[1, 2] = 1e308
        a[2] = -1e308
        a[3, 5] = -1e308
        _assert_matches_scipy(a)

    def test_single_column_and_single_row(self):
        a = np.random.default_rng(4).standard_normal((5, 7))
        _assert_matches_scipy(a[:, :1])
        _assert_matches_scipy(a[:1])
        _assert_matches_scipy(a[:1, :1])
        _assert_matches_scipy(np.empty((3, 0)))

    @given(data=st.data())
    def test_random_shapes_and_scales(self, data):
        rows = data.draw(st.integers(1, 70))
        cols = data.draw(st.integers(1, 400))
        scale = 10.0 ** data.draw(st.floats(-3.0, 3.0))
        seed = data.draw(st.integers(0, 2**32 - 1))
        a = scale * np.random.default_rng(seed).standard_normal((rows, cols))
        if data.draw(st.booleans()):
            a = np.round(a)  # many ties
        _assert_matches_scipy(a)


class TestAggregatedPosterior:
    def test_matches_direct_mixture(self):
        arch = Architecture(input_dim_x=1, input_dim_z=2, hidden_layers=(2,), output_dim=1)
        rng = np.random.default_rng(6)
        mu_z = rng.standard_normal((3, 2))
        rho_z = rng.uniform(-2.0, 0.0, size=(3, 2))
        q = MeanFieldPosterior(
            arch, np.zeros(arch.param_count), np.zeros(arch.param_count), mu_z, rho_z
        )
        pts = rng.standard_normal((4, 2))
        sig = softplus(rho_z)
        expected = np.empty(4)
        for m in range(4):
            comp = [
                norm.logpdf(pts[m], loc=mu_z[i], scale=sig[i]).sum() for i in range(3)
            ]
            expected[m] = logsumexp(comp) - np.log(3.0)
        got = aggregated_posterior_logpdf(q, pts)
        assert np.allclose(got, expected, atol=1e-12)

    def test_rejects_wrong_width_and_missing_block(self):
        arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(2,), output_dim=1)
        q = random_init(arch, 3, seed=0)
        with pytest.raises(ValueError, match="columns"):
            aggregated_posterior_logpdf(q, np.zeros((2, 3)))
        with pytest.raises(ValueError, match="columns"):
            aggregated_posterior_logpdf(q, np.array([0.2]))
        arch0 = Architecture(input_dim_x=1, input_dim_z=0, hidden_layers=(2,), output_dim=1)
        q0 = random_init(arch0, 3, seed=0)
        with pytest.raises(ValueError, match="latent"):
            aggregated_posterior_logpdf(q0, np.zeros((2, 1)))

    @pytest.mark.parametrize("m", [1, 2 * _LOGPDF_CHUNK + 1, 2000])
    @pytest.mark.parametrize("k", [1, 2])
    def test_row_chunks_match_dense_oracle_exactly(self, m, k):
        # rows are independent, so scoring them in chunks (the last one
        # ragged) changes no bit of any value
        arch = Architecture(input_dim_x=1, input_dim_z=k, hidden_layers=(2,), output_dim=1)
        q = random_init(arch, 300, seed=m)
        pts = np.random.default_rng(m).standard_normal((m, k))
        got = aggregated_posterior_logpdf(q, pts)
        assert np.array_equal(got, dense_mixture_logpdf(q.mu_z, np.asarray(q.sigma_z) ** 2, pts))

    @pytest.mark.parametrize("k", [1, 2])
    def test_points_on_component_means_match_dense_oracle_exactly(self, k):
        # a point on a mean ties its component's top term with no other
        arch = Architecture(input_dim_x=1, input_dim_z=k, hidden_layers=(2,), output_dim=1)
        q = random_init(arch, 300, seed=11)
        q.rho_z[:] = 0.3  # equal scales: repeated means give tied maxima
        q.mu_z[150:] = q.mu_z[:150]
        pts = q.mu_z[::2].copy()
        got = aggregated_posterior_logpdf(q, pts)
        assert np.array_equal(got, dense_mixture_logpdf(q.mu_z, np.asarray(q.sigma_z) ** 2, pts))

    @pytest.mark.parametrize("k", [1, 2])
    def test_single_component_matches_dense_oracle_exactly(self, k):
        arch = Architecture(input_dim_x=1, input_dim_z=k, hidden_layers=(2,), output_dim=1)
        q = random_init(arch, 1, seed=12)
        pts = np.vstack([q.mu_z, np.random.default_rng(12).standard_normal((70, k))])
        got = aggregated_posterior_logpdf(q, pts)
        assert np.array_equal(got, dense_mixture_logpdf(q.mu_z, np.asarray(q.sigma_z) ** 2, pts))

    @pytest.mark.parametrize("n", [1, 300])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_zero_scale_component_matches_dense_oracle_exactly(self, k, n):
        # softplus(-800) underflows to 0: that component's terms are inf or
        # NaN, so every row takes the non-finite fallback
        arch = Architecture(input_dim_x=1, input_dim_z=k, hidden_layers=(2,), output_dim=1)
        q = random_init(arch, n, seed=13)
        q.rho_z[0] = -800.0
        assert np.all(q.sigma_z[0] == 0.0)
        pts = np.vstack([q.mu_z[:1], np.random.default_rng(13).standard_normal((70, k))])
        got = aggregated_posterior_logpdf(q, pts)
        want = dense_mixture_logpdf(q.mu_z, np.asarray(q.sigma_z) ** 2, pts)
        assert not np.any(np.isfinite(want))
        assert np.array_equal(got, want, equal_nan=True)
