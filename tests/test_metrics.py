import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import logsumexp
from scipy.stats import ks_2samp, norm

from bnnlv import diffcore as dc
from bnnlv.data import DataSet, gen_synthetic, ground_truth_fn
from bnnlv.diffcore import Architecture
from bnnlv.exceptions import ConfigError
from bnnlv.metrics import (
    MetricsReport,
    avg_marginal_ll,
    compute_report,
    js_divergence_mc,
    knn_entropy,
    kraskov_mi,
    ks_two_sample,
    picp_mpiw,
    predictive_rmse,
    recon_mse,
    uncertainty_decomposition,
)
from bnnlv.model import FixedFunction, PriorConfig, predictive_means
from bnnlv.nonident import y_encoding_transform
from bnnlv.train import TrainConfig, train
from bnnlv.vi import MeanFieldPosterior, random_init
from oracles import dense_kraskov_mi, point_mass

LINEAR = Architecture(input_dim_x=1, input_dim_z=0, hidden_layers=(), output_dim=1)


def _identity_data(n=20):
    x = np.linspace(-1.0, 1.0, n).reshape(-1, 1)
    return DataSet(x=x, y=x.copy(), train_idx=[], val_idx=[], test_idx=list(range(n)))


def _identity_model():
    return point_mass(LINEAR, np.array([1.0, 0.0]))


def _log_predictive_density(q_w, data, priors, s, seed):
    """Monte Carlo log predictive density of the test split, per point: the
    log of the mean likelihood over the S draws whose mean log-likelihood
    avg_marginal_ll takes (same rng stream)."""
    view = data.view("test")
    means = predictive_means(q_w, priors, view.x, s, np.random.default_rng(seed))
    logp = norm.logpdf(view.y[:, 0], means[:, :, 0], np.sqrt(priors.sigma2_eps))
    return float(np.mean(logsumexp(logp, axis=0) - np.log(s)))


class TestAvgMarginalLl:
    def test_zero_residual_normalizer(self):
        data = _identity_data()
        priors = PriorConfig(sigma2_eps=0.1)
        got = avg_marginal_ll(_identity_model(), data, priors, s=10)
        assert got == pytest.approx(-0.5 * np.log(2.0 * np.pi * 0.1), abs=1e-12)

    def test_degenerate_predictive_matches_lme_variant(self):
        data = _identity_data()
        priors = PriorConfig(sigma2_eps=0.1)
        a = avg_marginal_ll(_identity_model(), data, priors, s=50, seed=3)
        b = _log_predictive_density(_identity_model(), data, priors, s=50, seed=3)
        assert a == pytest.approx(b, abs=1e-12)

    def test_jensen_orders_the_variants(self):
        data = gen_synthetic("heavy_tail", seed=0, sizes=(10, 0, 20))
        arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(3,), output_dim=1)
        q = random_init(arch, 10, seed=0)
        priors = PriorConfig(sigma2_eps=0.1)
        a = avg_marginal_ll(q, data, priors, s=300, seed=1)
        b = _log_predictive_density(q, data, priors, s=300, seed=1)
        assert a < b

    def test_worse_fit_scores_lower(self):
        data = _identity_data()
        priors = PriorConfig(sigma2_eps=0.1)
        good = avg_marginal_ll(_identity_model(), data, priors, s=10)
        shifted = point_mass(LINEAR, np.array([1.0, 0.5]))
        bad = avg_marginal_ll(shifted, data, priors, s=10)
        assert bad < good


class TestPredictiveRmse:
    def test_perfect_model(self):
        data = _identity_data()
        priors = PriorConfig(sigma2_eps=0.1)
        assert predictive_rmse(_identity_model(), data, priors, s=20) == pytest.approx(0.0, abs=1e-12)

    def test_constant_zero_predictor(self):
        rng = np.random.default_rng(1)
        y = rng.standard_normal((200, 1))
        data = DataSet(x=np.zeros((200, 1)), y=y, train_idx=[], val_idx=[], test_idx=list(range(200)))
        zero = point_mass(LINEAR, np.zeros(2))
        got = predictive_rmse(zero, data, PriorConfig(), s=10)
        assert got == pytest.approx(float(np.sqrt(np.mean(y**2))), abs=1e-12)


class TestReconMse:
    def test_target_encoding_reconstructs(self):
        data = gen_synthetic("goldberg", seed=0, sizes=(40, 0, 0))
        arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(6,), output_dim=1)
        weights, z_hat = y_encoding_transform(data, arch)
        q = MeanFieldPosterior(
            arch,
            weights.to_flat(arch),
            np.full(arch.param_count, -9.0),
            z_hat,
            np.full_like(z_hat, -9.0),
        )
        assert recon_mse(q, data) == pytest.approx(0.0, abs=1e-20)

    def test_not_applicable_without_latents(self):
        data = _identity_data()
        assert recon_mse(_identity_model(), data) is None

    def test_fitted_latents_beat_prior_draws(self):
        data = gen_synthetic("goldberg", seed=1, sizes=(40, 0, 40))
        arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(10,), output_dim=1)
        priors = PriorConfig(sigma2_eps=0.1)
        cfg = TrainConfig(epochs=400, restarts=1, warm_epochs=400, learning_rate=0.02)
        q, _ = train(data, arch, priors, None, cfg, "BNNLV_BBB", seed=0)
        rec = recon_mse(q, data)
        pred_mse = predictive_rmse(q, data, priors, which="train", s=500, seed=0) ** 2
        assert rec < pred_mse


class TestPicpMpiw:
    def test_degenerate_samples_cover_exactly(self):
        data = _identity_data()
        priors = PriorConfig(sigma2_eps=1e-30)
        picp, mpiw = picp_mpiw(_identity_model(), data, priors, s=200, seed=0)
        assert picp == 1.0
        assert mpiw == pytest.approx(0.0, abs=1e-10)

    def test_true_depeweg_calibration(self):
        data = gen_synthetic("depeweg", seed=0, sizes=(10, 0, 250))
        f = FixedFunction(ground_truth_fn("depeweg"), input_dim_z=1, output_dim=1)
        priors = PriorConfig(sigma2_z=1.0, sigma2_eps=0.1)
        picp, _ = picp_mpiw(f, data, priors, s=4000, seed=0)
        assert 0.93 <= picp <= 0.97

    def test_wider_level_widens(self):
        data = gen_synthetic("heavy_tail", seed=2, sizes=(5, 0, 40))
        arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(3,), output_dim=1)
        q = random_init(arch, 5, seed=0)
        priors = PriorConfig(sigma2_eps=0.1)
        p95, w95 = picp_mpiw(q, data, priors, s=500, seed=1, level=0.95)
        p99, w99 = picp_mpiw(q, data, priors, s=500, seed=1, level=0.99)
        assert w99 > w95
        assert p99 >= p95

    def test_needs_enough_samples(self):
        with pytest.raises(ValueError):
            picp_mpiw(_identity_model(), _identity_data(), PriorConfig(), s=50)

    def test_every_output_is_scored(self):
        # output 0 is centred on its target; output 1 sits ten of its sds
        # above its target, so half of the (point, output) intervals cover
        n = 20
        x = np.linspace(-1.0, 1.0, n).reshape(-1, 1)
        data = DataSet(x=x, y=np.hstack([x, x]), train_idx=[], val_idx=[],
                       test_idx=list(range(n)))
        f = FixedFunction(lambda x, z: np.hstack([x, x + 100.0 + 10.0 * z]),
                          input_dim_z=1, output_dim=2)
        priors = PriorConfig(sigma2_z=1.0, sigma2_eps=0.01)
        picp, mpiw = picp_mpiw(f, data, priors, s=4000, seed=0)
        assert picp == 0.5
        widths = 2.0 * norm.ppf(0.975) * np.sqrt([0.01, 100.01])
        assert mpiw == pytest.approx(widths.mean(), rel=0.05)


class TestKraskovMi:
    def test_independent_near_zero(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(1000)
        b = rng.standard_normal(1000)
        assert abs(kraskov_mi(a, b)) <= 0.05

    def test_deterministic_dependence_large(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal(1000)
        assert kraskov_mi(a, a.copy()) >= 2.0

    def test_correlated_gaussian_analytic(self):
        rho = 0.9
        rng = np.random.default_rng(5)
        a = rng.standard_normal(1000)
        b = rho * a + np.sqrt(1.0 - rho * rho) * rng.standard_normal(1000)
        analytic = -0.5 * np.log(1.0 - rho * rho)
        assert kraskov_mi(a, b) == pytest.approx(analytic, abs=0.1)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            kraskov_mi(np.zeros(4), np.zeros(4), k=5)

    def test_one_row_matrix_is_one_point(self):
        # a (1, d) matrix is one point in d dimensions, not d points
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError, match="need more than"):
            kraskov_mi(rng.normal(size=(1, 6)), rng.normal(size=(1, 6)))

    @pytest.mark.parametrize("n", [6, 300, 3000])
    @pytest.mark.parametrize("shape", ["1d", "2col"])
    @pytest.mark.parametrize("ties", [False, True])
    def test_matches_dense_oracle_exactly(self, n, shape, ties):
        rng = np.random.default_rng(n)
        size = (n, 2) if shape == "2col" else n
        a = rng.standard_normal(size)
        b = a + rng.standard_normal(size)
        if ties:
            # coarse rounding makes many exact duplicates before the jitter
            a, b = np.round(a, 1), np.round(b)
        assert kraskov_mi(a, b) == dense_kraskov_mi(a, b)
        assert kraskov_mi(a, b, k=1) == dense_kraskov_mi(a, b, k=1)

    def test_memory_is_linear_in_n(self):
        # the dense estimator would hold several 20 000 x 20 000 arrays (3.2 GB each)
        rng = np.random.default_rng(12)
        a = rng.standard_normal(20_000)
        b = a + rng.standard_normal(20_000)
        tracemalloc.start()
        try:
            kraskov_mi(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6


class TestKsTwoSample:
    """The numpy statistic against scipy's ``ks_2samp``, compared with ``==``."""

    @staticmethod
    def _assert_matches_scipy(a, b):
        assert ks_two_sample(a, b) == ks_2samp(a, b).statistic

    def test_identical(self):
        a = np.linspace(0.0, 1.0, 50)
        assert ks_two_sample(a, a.copy()) == 0.0

    def test_disjoint_supports(self):
        assert ks_two_sample(np.arange(10), np.arange(100, 110)) == 1.0
        self._assert_matches_scipy(np.arange(10.0), np.arange(100.0, 113.0))
        self._assert_matches_scipy(np.arange(100.0, 113.0), np.arange(10.0))

    def test_ties(self):
        rng = np.random.default_rng(4)
        a = rng.integers(0, 4, size=37).astype(float)
        b = rng.integers(1, 6, size=52).astype(float)
        self._assert_matches_scipy(a, b)
        self._assert_matches_scipy(np.zeros(5), np.zeros(8))

    def test_single_points(self):
        self._assert_matches_scipy([0.5], [0.5])
        self._assert_matches_scipy([0.5], [1.5])
        self._assert_matches_scipy([0.5], np.linspace(0.0, 1.0, 9))

    def test_unequal_sizes(self):
        rng = np.random.default_rng(5)
        self._assert_matches_scipy(rng.standard_normal(750), rng.standard_normal(3000) + 0.05)

    # scipy's exact p-value can fail and fall back to the asymptotic one with
    # a warning; its statistic stays rounded either way
    @pytest.mark.filterwarnings("ignore:ks_2samp. Exact calculation unsuccessful")
    @given(
        st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=1, max_size=2000),
        st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=1, max_size=2000),
        st.integers(0, 3),
    )
    def test_matches_scipy_property(self, a, b, decimals):
        # rounding makes ties between and within the samples common
        a, b = np.round(a, decimals), np.round(b, decimals)
        self._assert_matches_scipy(a, b)

    def test_matches_scipy_at_the_exact_limit(self):
        # scipy rounds the statistic to h / lcm(n1, n2) while max(n1, n2) <= 10000
        rng = np.random.default_rng(7)
        self._assert_matches_scipy(rng.standard_normal(10_000), rng.standard_normal(10_000) + 0.02)

    def test_above_the_exact_limit_is_the_exact_rational(self):
        # scipy leaves the statistic unrounded here; this one is still h / lcm
        rng = np.random.default_rng(8)
        a, b = rng.standard_normal(12_000), rng.standard_normal(10_001) + 0.02
        n1, n2 = a.size, b.size
        pooled = np.concatenate([a, b])
        ca = np.searchsorted(np.sort(a), pooled, side="right")
        cb = np.searchsorted(np.sort(b), pooled, side="right")
        g = math.gcd(n1, n2)
        h = int(np.max(np.abs(ca * n2 - cb * n1))) // g
        got = ks_two_sample(a, b)
        assert got == h / ((n1 // g) * n2)
        assert got == pytest.approx(ks_2samp(a, b).statistic, rel=1e-14)

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError, match="non-empty"):
            ks_two_sample([], [1.0, 2.0])
        with pytest.raises(ValueError, match="non-empty"):
            ks_two_sample([1.0], np.empty((0, 3)))

    def test_nan_propagates(self):
        assert np.isnan(ks_two_sample([np.nan, 1.0], [1.0, 2.0]))
        assert np.isnan(ks_two_sample([1.0, 2.0], [3.0, np.nan]))
        assert np.isnan(ks_2samp([np.nan, 1.0], [1.0, 2.0]).statistic)

    def test_matches_step_function_oracle(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal(83)
        b = rng.standard_normal(131) + 0.3
        grid = np.sort(np.concatenate([a, b]))
        fa = np.searchsorted(np.sort(a), grid, side="right") / len(a)
        fb = np.searchsorted(np.sort(b), grid, side="right") / len(b)
        assert ks_two_sample(a, b) == pytest.approx(np.max(np.abs(fa - fb)), abs=1e-12)


class TestJsDivergence:
    @staticmethod
    def _gauss(mu):
        return (
            lambda pts: norm.logpdf(np.atleast_2d(pts)[:, 0], loc=mu),
            lambda rng, n: rng.normal(mu, 1.0, size=(n, 1)),
        )

    def test_same_distribution(self):
        log_p, sample_p = self._gauss(0.0)
        log_q, sample_q = self._gauss(0.0)
        assert abs(js_divergence_mc(log_p, sample_p, log_q, sample_q, s=10_000)) <= 0.01

    def test_separated_saturates_below_ln2(self):
        log_p, sample_p = self._gauss(0.0)
        log_q, sample_q = self._gauss(40.0)
        val = js_divergence_mc(log_p, sample_p, log_q, sample_q, s=4000)
        assert 0.6 <= val <= np.log(2.0) + 0.01

    def test_matches_quadrature(self):
        log_p, sample_p = self._gauss(0.0)
        log_q, sample_q = self._gauss(3.0)

        def integrand(x):
            p = norm.pdf(x, 0.0)
            q = norm.pdf(x, 3.0)
            m = 0.5 * (p + q)
            out = 0.0
            if p > 0:
                out += 0.5 * p * np.log(p / m)
            if q > 0:
                out += 0.5 * q * np.log(q / m)
            return out

        oracle, _ = quad(integrand, -12.0, 15.0)
        got = js_divergence_mc(log_p, sample_p, log_q, sample_q, s=20_000, seed=1)
        assert got == pytest.approx(oracle, abs=0.02)


class TestKnnEntropy:
    def test_standard_normal(self):
        x = np.random.default_rng(7).standard_normal(10_000)
        assert knn_entropy(x) == pytest.approx(0.5 * np.log(2.0 * np.pi * np.e), abs=0.05)

    def test_uniform(self):
        x = np.random.default_rng(8).uniform(0.0, 1.0, 10_000)
        assert knn_entropy(x) == pytest.approx(0.0, abs=0.05)

    def test_scaling_shift_law(self):
        x = np.random.default_rng(9).standard_normal(4000)
        assert knn_entropy(3.0 * x) - knn_entropy(x) == pytest.approx(np.log(3.0), abs=0.02)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            knn_entropy(np.zeros(3), k=5)


class TestUncertaintyDecomposition:
    def test_point_mass_has_no_epistemic_part(self):
        arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(3,), output_dim=1)
        q = point_mass(arch, np.random.default_rng(10).standard_normal(arch.param_count))
        priors = PriorConfig(sigma2_z=1.0, sigma2_eps=0.1)
        out = uncertainty_decomposition(q, priors, np.array([0.5]), s_w=40, s_y=400, seed=0)
        assert abs(out["epistemic"]) <= 0.05
        assert out["total"] == pytest.approx(out["aleatoric"], abs=0.05)

    def test_depeweg_noise_amplitude_ordering(self):
        f = FixedFunction(ground_truth_fn("depeweg"), input_dim_z=1, output_dim=1)
        priors = PriorConfig(sigma2_z=1.0, sigma2_eps=0.1)
        at0 = uncertainty_decomposition(f, priors, np.array([0.0]), s_w=30, s_y=400, seed=1)
        at4 = uncertainty_decomposition(f, priors, np.array([4.0]), s_w=30, s_y=400, seed=1)
        assert at0["aleatoric"] > at4["aleatoric"]

    def test_pure_gaussian_noise_matches_closed_form(self):
        q = point_mass(LINEAR, np.zeros(2))
        priors = PriorConfig(sigma2_eps=0.25)
        out = uncertainty_decomposition(q, priors, np.array([0.0]), s_w=20, s_y=2000, seed=2)
        assert out["aleatoric"] == pytest.approx(0.5 * np.log(2.0 * np.pi * np.e * 0.25), abs=0.05)


class TestComputeReport:
    def test_latent_fields_populated(self):
        data = gen_synthetic("heavy_tail", seed=3, sizes=(30, 0, 20))
        arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(3,), output_dim=1)
        q = random_init(arch, 30, seed=0)
        report = compute_report(q, data, PriorConfig(), method="NCAI", s=150, seed=0)
        d = report.to_dict()
        assert d["method"] == "NCAI"
        for key in ("recon_mse", "mi_x_z", "mi_y_z", "pc_x_z", "pc_y_z",
                    "hz_mu_z", "ks_z_prior", "js_z_prior"):
            assert d[key] is not None
        assert 0.0 <= report.picp <= 1.0
        assert report.mpiw >= 0.0

    def test_no_latent_fields_for_weight_only_model(self):
        data = _identity_data()
        report = compute_report(_identity_model(), data, PriorConfig(), method="BNN", s=150)
        assert report.recon_mse is None
        assert report.mi_x_z is None
        assert report.js_z_prior is None

    def test_row_mismatch_guard(self):
        data = gen_synthetic("heavy_tail", seed=4, sizes=(25, 0, 10))
        arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(3,), output_dim=1)
        q = random_init(arch, 30, seed=0)
        with pytest.raises(ConfigError, match="latent factors"):
            compute_report(q, data, PriorConfig(), s=150)

    def test_deterministic(self):
        data = gen_synthetic("heavy_tail", seed=5, sizes=(20, 0, 15))
        arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(3,), output_dim=1)
        q = random_init(arch, 20, seed=1)
        a = compute_report(q, data, PriorConfig(), s=120, seed=9)
        b = compute_report(q, data, PriorConfig(), s=120, seed=9)
        assert a == b

    def test_one_pass_matches_standalone_metrics(self):
        # the report's predictive metrics come from the draws the standalone
        # metrics make at the same seed
        data = gen_synthetic("heavy_tail", seed=6, sizes=(20, 0, 25))
        arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(3,), output_dim=1)
        q = random_init(arch, 20, seed=2)
        priors = PriorConfig(sigma2_z=0.5, sigma2_eps=0.1)
        report = compute_report(q, data, priors, s=300, seed=4)
        assert report.avg_marginal_ll == avg_marginal_ll(q, data, priors, s=300, seed=4)
        assert report.rmse == predictive_rmse(q, data, priors, s=300, seed=4)
        assert (report.picp, report.mpiw) == picp_mpiw(q, data, priors, s=300, seed=4)

    def test_one_draw_per_sample(self, monkeypatch):
        data = gen_synthetic("heavy_tail", seed=7, sizes=(15, 0, 10))
        arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(3,), output_dim=1)
        q = random_init(arch, 15, seed=3)
        rows, scales = [], []
        forward, softplus = dc.mlp_forward, dc.softplus

        def counted_forward(arch, w, x, z=None):
            rows.append(1 if np.ndim(w) == 1 else len(w))
            return forward(arch, w, x, z)

        def counted_softplus(a):
            scales.append(a is q.rho_w)
            return softplus(a)

        # the sampler reaches both through the diffcore module
        monkeypatch.setattr(dc, "mlp_forward", counted_forward)
        monkeypatch.setattr(dc, "softplus", counted_softplus)
        compute_report(q, data, PriorConfig(), s=150, seed=0)
        # one weight row per sample, and one weight scale per predictive pass
        assert sum(rows) == 150
        assert sum(scales) == 1

    def test_keeps_at_most_two_sample_blocks(self):
        # a weight-only model has no latent diagnostics, so the peak is the
        # predictive pass: the S x N means plus one block beside them
        arch = Architecture(input_dim_x=1, input_dim_z=0, hidden_layers=(3,), output_dim=1)
        q = point_mass(arch, np.random.default_rng(0).standard_normal(arch.param_count))
        n, s = 400, 500
        data = _identity_data(n)
        tracemalloc.start()
        try:
            compute_report(q, data, PriorConfig(), s=s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * s * n * 8

    def test_latent_diagnostics_hold_no_n_by_n_array(self):
        # at N_train = 5000 one N x N float array is 200 MB; the report's
        # predictive pass is small here (S = 100 on 10 test points)
        n = 5000
        data = gen_synthetic("heavy_tail", seed=8, sizes=(n, 0, 10))
        arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(3,), output_dim=1)
        q = random_init(arch, n, seed=4)
        tracemalloc.start()
        try:
            report = compute_report(q, data, PriorConfig(), s=100, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.mi_x_z is not None and report.js_z_prior is not None
        assert peak < 40e6
