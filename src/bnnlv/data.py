"""Datasets: synthetic generators, CSV loading, split views, standardization.

Five of the six synthetic problems are heteroscedastic or multimodal
regressions from the evaluation suite; three of them (heavy_tail,
depeweg, bimodal) are generated by pushing Gaussian latent noise through
a known function, and those can optionally be distilled into an actual
network so that ground-truth weights exist.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .diffcore import Architecture, mlp_forward
from .exceptions import ConfigError, CsvParseError


def _split_rows(n_train, n_val, n_test):
    """``DataSet`` split fields for rows stacked as train, then val, then test."""
    a, b = n_train, n_train + n_val
    return {"train_idx": np.arange(a), "val_idx": np.arange(a, b),
            "test_idx": np.arange(b, b + n_test)}


@dataclass
class DataSet:
    """Inputs, targets, split indices, and optional generative ground truth."""

    x: np.ndarray
    y: np.ndarray
    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray
    name: str | None = None
    z_true: np.ndarray | None = None
    w_true: np.ndarray | None = None
    gt_arch: Architecture | None = None
    sigma2_eps_true: float | None = None
    sigma2_z_true: float | None = None
    standardized: bool = False

    def __post_init__(self):
        self.x = np.atleast_2d(np.asarray(self.x, dtype=np.float64))
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.y.ndim == 1:
            self.y = self.y.reshape(-1, 1)
        if self.x.shape[0] != self.y.shape[0]:
            raise ValueError("x and y must have the same number of rows")
        for attr in ("train_idx", "val_idx", "test_idx"):
            setattr(self, attr, np.asarray(getattr(self, attr), dtype=np.intp))

    @property
    def n(self):
        return self.x.shape[0]

    @property
    def input_dim(self):
        return self.x.shape[1]

    @property
    def output_dim(self):
        return self.y.shape[1]

    def ground_truth(self, arch):
        """Generative weights and train-split latents, for a net shaped ``arch``.

        Raises ConfigError when the data set stores none, when ``arch`` is
        not the architecture the weights belong to, or when the data are
        standardized (the weights fit the targets in their original units).
        """
        if self.w_true is None or self.z_true is None:
            raise ConfigError("ground_truth init requires stored generative weights and latents")
        if self.standardized:
            raise ConfigError(
                "init = ground_truth cannot start on standardized data: the generative "
                "weights are in original units; drop standardize or pick another init"
            )
        if arch != self.gt_arch:
            raise ConfigError(
                f"ground_truth init needs the generative architecture {self.gt_arch}, got {arch}"
            )
        w = np.array(self.w_true, dtype=np.float64)
        z = np.array(self.view("train").z_true, dtype=np.float64)
        return w, z

    def view(self, which="train"):
        """Row-sliced copy where every row belongs to the chosen split."""
        idx = {"train": self.train_idx, "val": self.val_idx, "test": self.test_idx}[which]
        return replace(
            self,
            x=self.x[idx],
            y=self.y[idx],
            **_split_rows(len(idx), 0, 0),
            z_true=None if self.z_true is None else self.z_true[idx],
        )

    @classmethod
    def stacked(cls, train, val, test):
        """One data set holding the rows of three, as its train, val and test splits."""
        parts = (train, val, test)
        return cls(x=np.concatenate([p.x for p in parts]), y=np.concatenate([p.y for p in parts]),
                   **_split_rows(*(p.n for p in parts)), name=train.name)


def _heavy_tail_f(x, z):
    u = 0.1 * x**3 * (z + 1.0) ** 6 - 10.0 * x * z**2 + z
    return 6.0 * np.tanh(u)


def _depeweg_f(x, z):
    return 7.0 * np.sin(x) + 3.0 * np.abs(np.cos(x / 2.0)) * z


def _bimodal_f(x, z):
    return np.where(z > 0.0, 10.0 * np.sin(x), 10.0 * np.cos(x))


_GT_FUNCTIONS = {
    "heavy_tail": _heavy_tail_f,
    "depeweg": _depeweg_f,
    "bimodal": _bimodal_f,
}

# the latent-noise datasets: (sigma2_eps, sigma2_z, (n_train, n_val, n_test))
LATENT_SPECS = {
    "heavy_tail": (0.1, 0.01, (300, 300, 300)),
    "depeweg": (0.1, 1.0, (750, 250, 250)),
    "bimodal": (1.0, 0.1, (750, 250, 250)),
}

_NOISELESS_SIZES = (200, 200, 200)

_DISTILL_HIDDEN = {
    "heavy_tail": (50,),
    "depeweg": (50,),
    "bimodal": (50, 50),
}

DATASET_NAMES = ("heavy_tail", "depeweg", "bimodal", "goldberg", "yuan", "williams")


def ground_truth_fn(name):
    """The deterministic part f(x, z) for the latent-noise generators."""
    try:
        return _GT_FUNCTIONS[name]
    except KeyError:
        raise ConfigError(f"no ground-truth function for dataset {name!r}") from None


def _sample_x(name, n, rng):
    if name == "heavy_tail":
        return rng.uniform(-4.0, 4.0, size=(n, 1))
    if name == "depeweg":
        centers = np.array([-4.0, 0.0, 4.0])
        stds = np.sqrt(np.array([0.16, 0.81, 0.16]))
        comp = rng.integers(0, 3, size=n)
        return (centers[comp] + stds[comp] * rng.standard_normal(n)).reshape(n, 1)
    if name == "bimodal":
        x = rng.exponential(scale=0.5, size=n) - 0.5
        return np.clip(x, -0.5, 2.0).reshape(n, 1)
    if name in ("goldberg", "yuan", "williams"):
        return rng.uniform(0.0, 1.0, size=(n, 1))
    raise ConfigError(f"unknown dataset {name!r}")


def _noise_variance(name, x):
    if name == "goldberg":
        return x + 0.5
    if name == "yuan":
        return np.exp(np.sin(2.0 * np.pi * x))
    if name == "williams":
        return 0.01 + 0.25 * (1.0 - np.sin(2.5 * x)) ** 2
    raise ConfigError(f"no heteroscedastic noise profile for dataset {name!r}")


def _mean_function(name, x):
    if name == "goldberg":
        return 2.0 * np.sin(2.0 * np.pi * x)
    if name == "yuan":
        return 2.0 * np.exp(-30.0 * (x - 0.25) ** 2 + np.sin(np.pi * x**2)) - 2.0
    if name == "williams":
        return np.sin(2.5 * x) * np.sin(1.5 * x)
    raise ConfigError(f"no mean function for dataset {name!r}")


def gen_synthetic(name, seed, sizes=None, distill=False, distill_epochs=4000):
    """Generate one of the named synthetic regression problems.

    ``sizes`` overrides the default (n_train, n_val, n_test). With
    ``distill=True`` (latent-noise datasets only) the closed-form function
    is first fit by a deterministic net on the sampled (x, z) pairs and the
    targets are then regenerated from that net, so the returned data set
    carries exact ground-truth weights.
    """
    rng = np.random.default_rng(seed)
    if name in LATENT_SPECS:
        sigma2_eps, sigma2_z, default_sizes = LATENT_SPECS[name]
        n_tr, n_va, n_te = sizes or default_sizes
        n = n_tr + n_va + n_te
        x = _sample_x(name, n, rng)
        z = rng.normal(0.0, np.sqrt(sigma2_z), size=(n, 1))
        f = _GT_FUNCTIONS[name](x, z)
        w_true = None
        gt_arch = None
        if distill:
            gt_arch = Architecture(
                input_dim_x=1, input_dim_z=1, hidden_layers=_DISTILL_HIDDEN[name]
            )
            from .ncai import fit_point_mlp

            w_true = fit_point_mlp(
                np.concatenate([x, z], axis=1),
                f,
                Architecture(input_dim_x=2, hidden_layers=_DISTILL_HIDDEN[name]),
                learning_rate=0.01,
                epochs=distill_epochs,
                seed=rng.integers(0, 2**32),
            )
            f = mlp_forward(gt_arch, w_true, x, z)
        y = f + rng.normal(0.0, np.sqrt(sigma2_eps), size=(n, 1))
        return DataSet(
            x=x,
            y=y,
            **_split_rows(n_tr, n_va, n_te),
            name=name,
            z_true=z,
            w_true=w_true,
            gt_arch=gt_arch,
            sigma2_eps_true=sigma2_eps,
            sigma2_z_true=sigma2_z,
        )

    if name in ("goldberg", "yuan", "williams"):
        if distill:
            raise ConfigError(f"dataset {name!r} has no latent ground truth to distill")
        n_tr, n_va, n_te = sizes or _NOISELESS_SIZES
        n = n_tr + n_va + n_te
        x = _sample_x(name, n, rng)
        var = _noise_variance(name, x)
        y = _mean_function(name, x) + rng.standard_normal((n, 1)) * np.sqrt(var)
        return DataSet(x=x, y=y, **_split_rows(n_tr, n_va, n_te), name=name)

    raise ConfigError(f"unknown dataset {name!r}; choose one of {DATASET_NAMES}")


def load_csv(path, n_targets=1):
    """Load a numeric CSV with a header row; the last ``n_targets`` columns are y."""
    if n_targets < 1:
        raise ConfigError(f"n_targets must be >= 1, got {n_targets}")
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvParseError(f"{path}: file is empty") from None
        width = len(header)
        if width < n_targets + 1:
            raise CsvParseError(f"{path}: need at least {n_targets + 1} columns, header has {width}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise CsvParseError(f"{path}:{lineno}: expected {width} fields, got {len(row)}")
            try:
                rows.append([float(c) for c in row])
            except ValueError as e:
                raise CsvParseError(f"{path}:{lineno}: {e}") from None
            for name, cell, v in zip(header, row, rows[-1]):
                if not math.isfinite(v):  # float() reads nan and inf
                    raise CsvParseError(f"{path}:{lineno}: column {name!r} holds {cell!r}, "
                                        "not a finite number")
    if not rows:
        raise CsvParseError(f"{path}: no data rows")
    mat = np.array(rows, dtype=np.float64)
    return DataSet(x=mat[:, :-n_targets], y=mat[:, -n_targets:], **_split_rows(len(mat), 0, 0),
                   name=str(path))


def standardize(data):
    """Z-score x and y by the training-split statistics.

    Returns the transformed copy, marked ``standardized``; every metric of
    a model fit to it is in standardized units.
    """
    if data.standardized:
        raise ConfigError("data is already standardized")
    xs = data.x[data.train_idx]
    ys = data.y[data.train_idx]
    x_mean, x_std = xs.mean(axis=0), xs.std(axis=0)
    y_mean, y_std = ys.mean(axis=0), ys.std(axis=0)
    for label, std in (("x", x_std), ("y", y_std)):
        zero = np.nonzero(std == 0.0)[0]
        if zero.size:
            raise ConfigError(f"column {zero[0]} of {label} has zero variance in the train split")
    return replace(
        data,
        x=(data.x - x_mean) / x_std,
        y=(data.y - y_mean) / y_std,
        standardized=True,
    )
