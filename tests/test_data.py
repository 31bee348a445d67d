import numpy as np
import pytest

from bnnlv.data import (
    DATASET_NAMES,
    gen_synthetic,
    ground_truth_fn,
    load_csv,
    standardize,
)
from bnnlv.diffcore import mlp_forward
from bnnlv.exceptions import ConfigError, CsvParseError


def test_depeweg_formula():
    f = ground_truth_fn("depeweg")
    x = np.array([[0.3], [-1.2]])
    z = np.array([[0.7], [0.1]])
    expected = 7.0 * np.sin(x) + 3.0 * np.abs(np.cos(x / 2.0)) * z
    assert np.allclose(f(x, z), expected, atol=0.0)


def test_heavy_tail_formula():
    f = ground_truth_fn("heavy_tail")
    x = np.array([[1.5]])
    z = np.array([[-0.2]])
    inner = 0.1 * x**3 * (z + 1.0) ** 6 - 10.0 * x * z**2 + z
    assert np.allclose(f(x, z), 6.0 * np.tanh(inner))


def test_bimodal_formula():
    f = ground_truth_fn("bimodal")
    x = np.array([[0.4], [0.4]])
    z = np.array([[0.3], [-0.3]])
    out = f(x, z)
    assert out[0, 0] == pytest.approx(10.0 * np.sin(0.4))
    assert out[1, 0] == pytest.approx(10.0 * np.cos(0.4))


def test_default_sizes():
    expected = {
        "heavy_tail": (300, 300, 300),
        "depeweg": (750, 250, 250),
        "bimodal": (750, 250, 250),
        "goldberg": (200, 200, 200),
        "yuan": (200, 200, 200),
        "williams": (200, 200, 200),
    }
    for name, (n_tr, n_va, n_te) in expected.items():
        data = gen_synthetic(name, seed=0)
        assert len(data.train_idx) == n_tr
        assert len(data.val_idx) == n_va
        assert len(data.test_idx) == n_te


def test_gen_deterministic():
    a = gen_synthetic("depeweg", seed=11)
    b = gen_synthetic("depeweg", seed=11)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    c = gen_synthetic("depeweg", seed=12)
    assert not np.array_equal(a.y, c.y)


def test_latent_ground_truth_stored():
    data = gen_synthetic("heavy_tail", seed=0)
    assert data.z_true is not None and data.z_true.shape == (900, 1)
    assert data.sigma2_eps_true == pytest.approx(0.1)
    assert data.sigma2_z_true == pytest.approx(0.01)
    # targets really are f(x, z) + noise at the stated level
    resid = data.y - ground_truth_fn("heavy_tail")(data.x, data.z_true)
    assert abs(resid.mean()) < 0.05
    assert resid.var() == pytest.approx(0.1, rel=0.2)


def test_latent_draws_match_prior_scale():
    data = gen_synthetic("depeweg", seed=4, sizes=(50_000, 10, 10))
    z = data.z_true
    assert abs(z.mean()) < 0.02
    assert z.var() == pytest.approx(1.0, rel=0.05)


def test_x_sampler_supports():
    bi = gen_synthetic("bimodal", seed=1)
    assert bi.x.min() >= -0.5 and bi.x.max() <= 2.0
    for name in ("goldberg", "yuan", "williams"):
        d = gen_synthetic(name, seed=1)
        assert d.x.min() >= 0.0 and d.x.max() <= 1.0
    ht = gen_synthetic("heavy_tail", seed=1)
    assert ht.x.min() >= -4.0 and ht.x.max() <= 4.0


def test_depeweg_mixture_components():
    data = gen_synthetic("depeweg", seed=2, sizes=(30_000, 10, 10))
    x = data.x[:, 0]
    # three well-separated clusters with roughly equal mass
    for center in (-4.0, 0.0, 4.0):
        frac = np.mean(np.abs(x - center) < 2.0)
        assert 0.28 < frac < 0.39


def test_unknown_dataset():
    with pytest.raises(ConfigError):
        gen_synthetic("nope", seed=0)
    assert "heavy_tail" in DATASET_NAMES


def test_heteroscedastic_noise_profiles():
    # goldberg noise variance grows linearly in x; compare two x bands
    data = gen_synthetic("goldberg", seed=5, sizes=(30_000, 10, 10))
    x, y = data.x[:, 0], data.y[:, 0]
    mean = 2.0 * np.sin(2.0 * np.pi * x)
    resid = y - mean
    lo = resid[x < 0.2]
    hi = resid[x > 0.8]
    assert lo.var() == pytest.approx(0.1 + 0.5, rel=0.15)  # x + 0.5 near E[x]=0.1
    assert hi.var() == pytest.approx(0.9 + 0.5, rel=0.15)


def test_williams_noise_vanishes_at_peak():
    # at sin(2.5x)=1 the noise std collapses to 0.1
    data = gen_synthetic("williams", seed=6, sizes=(30_000, 10, 10))
    x, y = data.x[:, 0], data.y[:, 0]
    mean = np.sin(2.5 * x) * np.sin(1.5 * x)
    resid = y - mean
    peak = np.abs(x - np.pi / 5.0) < 0.03  # sin(2.5x) = 1 at x = pi/5
    assert resid[peak].std() == pytest.approx(0.1, rel=0.25)


def test_distill_stores_exact_ground_truth(tmp_path):
    data = gen_synthetic("heavy_tail", seed=7, sizes=(60, 20, 20), distill_epochs=400, distill=True)
    assert data.w_true is not None and data.gt_arch is not None
    pred = mlp_forward(data.gt_arch, data.w_true, data.x, data.z_true)
    resid = data.y - pred
    # targets were regenerated from the net: residuals are pure output noise
    assert abs(resid.mean()) < 0.1
    assert resid.var() == pytest.approx(0.1, rel=0.5)


def test_load_csv_roundtrip(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("x0,x1,y0\n1.0,2.0,3.0\n4.5,-1.25,0.0\n")
    data = load_csv(p, n_targets=1)
    assert data.x.shape == (2, 2) and data.y.shape == (2, 1)
    assert data.x[1, 1] == -1.25 and data.y[0, 0] == 3.0


def test_load_csv_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x,y\n1.0,2.0\n1.0\n")
    with pytest.raises(CsvParseError, match="3"):  # failing line number
        load_csv(p)
    p2 = tmp_path / "empty.csv"
    p2.write_text("")
    with pytest.raises(CsvParseError):
        load_csv(p2)
    p3 = tmp_path / "text.csv"
    p3.write_text("x,y\nfoo,2.0\n")
    with pytest.raises(CsvParseError, match="2"):
        load_csv(p3)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_load_csv_rejects_non_finite_cells(tmp_path, cell):
    # float() reads each of these; a run on them would fail later as a divergence
    p = tmp_path / "d.csv"
    p.write_text(f"x0,x1,y0\n1.0,2.0,3.0\n4.0,{cell},6.0\n")
    with pytest.raises(CsvParseError) as err:
        load_csv(p)
    assert str(err.value) == f"{p}:3: column 'x1' holds {cell!r}, not a finite number"


def test_standardize_and_back():
    data = gen_synthetic("goldberg", seed=0)
    std = standardize(data)
    tr = std.view("train")
    assert abs(tr.x.mean()) < 1e-12
    assert tr.x.std() == pytest.approx(1.0)
    ys = data.y[data.train_idx]
    assert np.allclose(std.y * ys.std(axis=0) + ys.mean(axis=0), data.y)
    assert std.standardized and not data.standardized
    with pytest.raises(ConfigError):
        standardize(std)


def test_standardize_rejects_constant_column():
    from bnnlv.data import DataSet

    d = DataSet(
        x=np.column_stack([np.arange(4.0), np.ones(4)]),
        y=np.arange(4.0),
        train_idx=np.arange(4),
        val_idx=[],
        test_idx=[],
    )
    with pytest.raises(ConfigError, match="x"):
        standardize(d)
