"""Experiment driver: data generation, training runs, evaluation,
reparameterization demos, MAP comparisons, uncertainty grids, and
hyperparameter sweeps.

Configs are flat ``key = value`` text; list values in square brackets
spell out sweep grids. Every command writes its outputs atomically and
returns its manifest config and its summary line; ``main`` writes the
manifest (the exact config, seed, and package version) and prints the line.
Exit codes: 0 success, 2 bad config or data, 3 numerical divergence.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import itertools
import json
import math
import os
import sys
import tempfile
import typing
from dataclasses import MISSING, asdict, fields

import numpy as np

from . import __version__
from .data import DATASET_NAMES, LATENT_SPECS, DataSet, gen_synthetic, ground_truth_fn
from .data import load_csv, standardize
from .diffcore import Architecture
from .exceptions import ConfigError, CsvParseError, DivergenceError
# avg_marginal_ll is unused here; the benchmark's tracer patches bnnlv.cli.avg_marginal_ll
from .metrics import (  # noqa: F401
    MetricsReport, avg_marginal_ll, check_interval_samples, compute_report,
    uncertainty_decomposition,
)
from .model import FixedFunction, PriorConfig, predictive_sample_matrix
from .ncai import NcaiConfig, map_estimate
from .nonident import bias_probability
from .train import METHODS, TrainConfig, fork_map, train_restarts
from .vi import BLOCKS, MeanFieldPosterior

# ---------------------------------------------------------------------------
# config files

# keys the CLI reads itself; every other key is a field of PriorConfig,
# NcaiConfig or TrainConfig, or Architecture.leaky_slope
CLI_KEYS = {
    "method": str, "dataset": str, "data_seed": int, "sizes": list[int],
    "distill": bool, "standardize": bool,
    "train_csv": str, "val_csv": str, "test_csv": str, "n_targets": int,
    "hidden": list[int], "latent_dim": int, "s_eval": int,
    # retired with the stop rule; build_experiment accepts it only above epochs
    "convergence_window": int,
}

# each data source's keys, the naming key first; a config names one source
# and holds no key of the other
DATA_SOURCES = {
    "dataset": ("dataset", "sizes", "data_seed", "distill"),
    "train_csv": ("train_csv", "val_csv", "test_csv", "n_targets"),
}

# the data keys a run's model.json records, each only when the run set it
# true, so that evaluate rebuilds the data as training did
MODEL_DATA_KEYS = ("distill", "standardize")

# the CLI's departures from the library defaults; build_experiment also
# derives latent_dim from the method and the noise priors from the dataset
CLI_DEFAULTS = {"method": "NCAI", "eb_w": True, "s_eval": 2000}

_LIBRARY_CONFIGS = (PriorConfig, NcaiConfig, TrainConfig)

KEY_TYPES = {
    **{f.name: typing.get_type_hints(cls)[f.name]
       for cls in _LIBRARY_CONFIGS for f in fields(cls)},
    "leaky_slope": typing.get_type_hints(Architecture)["leaky_slope"],
    **CLI_KEYS,
}

# keys a grid sweep may hold lists for; `hidden` and `sizes` are structural
# lists and never expanded
GRID_KEYS = (
    "lambda1", "lambda2", "lambda3", "eps_t", "eps_x", "eps_y",
    "learning_rate", "sigma2_w", "sigma2_z", "sigma2_eps", "n_mc",
)


def _typed(key, value, typ=None):
    """``value`` as the type of config key ``key`` (or ``typ``), else ConfigError.

    Float keys take any number, int keys an integral one, bool keys only
    true or false, and a list key takes one value as a one-item list.
    """
    typ = KEY_TYPES[key] if typ is None else typ
    if typing.get_origin(typ) is list:
        (item,) = typing.get_args(typ)
        return [_typed(key, v, item) for v in (value if isinstance(value, list) else [value])]
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if typ is float and number:
        return float(value)
    if typ is int and number and (isinstance(value, int) or value.is_integer()):
        return int(value)
    if typ in (bool, str) and isinstance(value, typ):
        return value
    raise ConfigError(f"{key} must be {typ.__name__}, got {value!r}")


def parse_sizes(value):
    """(train, val, test) counts from "a,b,c" text or a config list."""
    sizes = _typed("sizes", _comma_list(value) if isinstance(value, str) else value)
    if len(sizes) != 3 or min(sizes) < 1:
        raise ConfigError(f"sizes must be three positive integers, got {value!r}")
    return tuple(sizes)


def _comma_list(text):
    return [_parse_scalar(s) for s in text.split(",")]


def _parse_scalar(tok):
    t = tok.strip()
    low = t.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(t)
    except ValueError:
        pass
    try:
        return float(t)
    except ValueError:
        pass
    return t


def parse_config(text):
    """Parse flat key=value config text; [a, b] values become lists."""
    cfg = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not key or not val:
            raise ConfigError(f"config line {lineno}: empty key or value")
        if key not in KEY_TYPES:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        if val.startswith("["):
            if not val.endswith("]"):
                raise ConfigError(f"config line {lineno}: unterminated list")
            items = [s for s in (p.strip() for p in val[1:-1].split(",")) if s]
            if not items and key in GRID_KEYS:
                raise ConfigError(f"config line {lineno}: {key} = [] sweeps no value; "
                                  "give it at least one")
            cfg[key] = [_parse_scalar(s) for s in items]
        else:
            cfg[key] = _parse_scalar(val)
        try:  # values stay as written, for the manifest; this only checks them
            _typed(key, cfg[key], list[KEY_TYPES[key]] if key in GRID_KEYS else None)
        except ConfigError as e:
            raise ConfigError(f"config line {lineno}: {e}") from None
    return cfg


def expand_grid(cfg):
    """All config cells implied by list-valued sweep keys (product order)."""
    listed = [(k, cfg[k]) for k in GRID_KEYS if isinstance(cfg.get(k), list)]
    cells = []
    for combo in itertools.product(*(vals for _, vals in listed)):
        cell = dict(cfg)
        cell.update({k: v for (k, _), v in zip(listed, combo)})
        cells.append(cell)
    return cells


# ---------------------------------------------------------------------------
# atomic output helpers

def _write_text_atomic(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _nonfinite_key(obj, key=""):
    """The dotted key of the first NaN or infinite number in ``obj``, else None."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else key
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    else:
        return None
    for k, v in items:
        found = _nonfinite_key(v, f"{key}.{k}" if key else str(k))
        if found is not None:
            return found
    return None


def _write_json(path, obj, schema=None):
    """Write ``obj`` as JSON; with a ``schema``, raise jsonschema.ValidationError
    and write nothing unless ``obj`` fits it."""
    if schema is not None:
        import jsonschema  # deferred: slow to import, and only a check needs it

        # a validator of its own skips jsonschema.validate's check of the schema
        jsonschema.Draft202012Validator(schema).validate(obj)
    try:  # JSON has no NaN or Infinity, which json.dumps writes by default
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise DivergenceError(
            f"{os.path.basename(path)}: {_nonfinite_key(obj)} is not finite; nothing written"
        ) from None
    _write_text_atomic(path, text + "\n")


def _write_csv(path, header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(c) for c in row])
    _write_text_atomic(path, buf.getvalue())


def _fmt(c):
    if isinstance(c, float):
        return format(c, ".17g")
    return c


def _write_manifest(out_dir, command, config, seed):
    _write_json(
        os.path.join(out_dir, "manifest.json"),
        {"command": command, "config": config, "seed": seed, "version": __version__},
    )


# ---------------------------------------------------------------------------
# result schemas

_JSON_TYPES = {int: "integer", float: "number", bool: "boolean", str: "string",
               type(None): "null"}


def _json_type(hint):
    if typing.get_origin(hint) is tuple:  # tuple[int, ...]
        return {"type": "array", "items": _json_type(typing.get_args(hint)[0])}
    if typing.get_args(hint):  # float | None
        return {"type": [_JSON_TYPES[h] for h in typing.get_args(hint)]}
    return {"type": _JSON_TYPES[hint]}


def _fields_schema(cls):
    """An object of ``cls``'s dataclass fields only, each of its JSON type; the
    fields without a default are required."""
    hints = typing.get_type_hints(cls)
    props = {f.name: _json_type(hints[f.name]) for f in fields(cls)}
    required = [f.name for f in fields(cls)
                if f.default is MISSING and f.default_factory is MISSING]
    return {"type": "object", "properties": props, "required": required,
            "additionalProperties": False}


METRICS_SCHEMA = _fields_schema(MetricsReport)

RESULT_SCHEMA = {
    "type": "object",
    "required": ["method", "dataset", "seed", "best_restart", "priors", "metrics", "version"],
    "properties": {
        "method": {"enum": list(METHODS)},
        "dataset": {"type": ["string", "null"]},
        "seed": {"type": "integer"},
        "best_restart": {"type": "integer"},
        "priors": {**_fields_schema(PriorConfig),  # result.json writes every field
                   "required": [f.name for f in fields(PriorConfig)]},
        "metrics": METRICS_SCHEMA,
        "version": {"type": "string"},
        "val_avg_marginal_ll": {"type": "number"},
        "epochs": {"type": "integer"},
        "restarts": {"type": "integer"},
        "restart_runs": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["seed", "objective", "val_avg_marginal_ll", "epochs"],
                "properties": {
                    "seed": {"type": "integer"},
                    "objective": {"type": "number"},
                    "val_avg_marginal_ll": {"type": "number"},
                    "epochs": {"type": "integer"},
                },
                "additionalProperties": False,
            },
        },
    },
}


# keys and scalar types only: a schema that walked every weight would take
# longer than the rest of loading a large model; from_dict checks the blocks
MODEL_SCHEMA = {
    "type": "object",
    "required": ["posterior", "priors"],
    "properties": {
        "method": {"enum": list(METHODS)},
        "posterior": {
            "type": "object",
            "required": ["arch", *BLOCKS],
            "properties": {"arch": _fields_schema(Architecture),
                           **dict.fromkeys(BLOCKS, {"type": "array"})},
        },
        "priors": _fields_schema(PriorConfig),
        **dict.fromkeys(MODEL_DATA_KEYS, {"type": "boolean"}),
        "train_sha256": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
    },
}

GAPS_SCHEMA = {
    "type": "object",
    "required": ["transform", "records"],
    "properties": {
        "transform": {"type": "object"},
        "records": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["n", "frac_positive", "mean_gap", "mean_latent_gap_per_obs"],
            },
        },
    },
}


# ---------------------------------------------------------------------------
# experiment assembly

def _require(cfg, key, default=None):
    val = cfg.get(key, default)
    if val is None:
        raise ConfigError(f"config is missing required key {key!r}")
    return val


def _data_source(cfg):
    """The DATA_SOURCES key ``cfg`` reads its data from, else ConfigError naming
    the first key of the other source that it also holds."""
    source = next((s for s in DATA_SOURCES if s in cfg), None)
    if source is None:
        raise ConfigError("config needs either dataset= or train_csv=/val_csv=/test_csv=")
    stray = [k for s, keys in DATA_SOURCES.items() if s != source for k in keys if k in cfg]
    if stray:
        sources = " or ".join("/".join(keys) for keys in DATA_SOURCES.values())
        raise ConfigError(f"{stray[0]} does not apply to {source} = {cfg[source]}: a config "
                          f"takes the keys of one data source, {sources}")
    return source


def build_dataset(cfg, seed):
    source = _data_source(cfg)
    if cfg.get("data_seed", 0) < 0:
        raise ConfigError(f"data_seed must be >= 0, got {cfg['data_seed']}")
    if source == "dataset":
        data = gen_synthetic(
            cfg["dataset"],
            seed=cfg.get("data_seed", seed),
            sizes=parse_sizes(cfg["sizes"]) if "sizes" in cfg else None,
            distill=cfg.get("distill", False),
        )
    else:
        parts = [load_csv(_require(cfg, key), cfg.get("n_targets", 1))
                 for key in DATA_SOURCES[source] if key.endswith("_csv")]
        data = DataSet.stacked(*parts)
    if cfg.get("standardize", False):
        data = standardize(data)
    return data


def _train_sha256(data):
    """SHA-256 of the train split's x and then y as float64 bytes: the rows a
    latent model's ``mu_z`` pairs with."""
    view = data.view("train")
    digest = hashlib.sha256(np.asarray(view.x, dtype=np.float64).tobytes())
    digest.update(np.asarray(view.y, dtype=np.float64).tobytes())
    return digest.hexdigest()


def build_experiment(cfg, seed):
    """Turn a flat config dict into (data, arch, priors, ncai_cfg, train_cfg, method, s_eval).

    Keys the config leaves out take the library defaults, apart from
    CLI_DEFAULTS and the two derived rules below.
    """
    cfg = {k: _typed(k, v) for k, v in {**CLI_DEFAULTS, **cfg}.items()}
    method = cfg["method"]
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}; choose one of {METHODS}")
    check_interval_samples(cfg["s_eval"])
    data = build_dataset(cfg, seed)
    truth = {"sigma2_z": data.sigma2_z_true, "sigma2_eps": data.sigma2_eps_true}
    cfg = {
        "latent_dim": 0 if method == "BNN" else 1,
        **{k: v for k, v in truth.items() if v is not None},
        # a latent variance that neither the config nor the data gives is estimated
        "eb_z": "sigma2_z" not in cfg and truth["sigma2_z"] is None,
        **cfg,
    }
    if "hidden" in cfg:
        cfg["hidden_layers"] = cfg["hidden"]

    def given(cls):
        return {f.name: cfg[f.name] for f in fields(cls) if f.name in cfg}

    arch = Architecture(input_dim_x=data.input_dim, input_dim_z=cfg["latent_dim"],
                        output_dim=data.output_dim, **given(Architecture))
    n_train = len(data.train_idx)
    if arch.input_dim_z > 0 and n_train <= 5:
        # the report's KSG MI needs more rows than its k = 5 neighbours; say so before training
        source = "sizes" if "dataset" in cfg else f"train_csv {cfg['train_csv']}"
        raise ConfigError(f"{source} gives {n_train} training rows; a latent model "
                          "needs more than 5")
    priors, ncai_cfg, train_cfg = (cls(**given(cls)) for cls in _LIBRARY_CONFIGS)
    # a window above the epoch count is the one range where the old rule never fired
    if "convergence_window" in cfg and cfg["convergence_window"] <= train_cfg.epochs:
        raise ConfigError(f"convergence_window = {cfg['convergence_window']}: the stop rule "
                          f"is gone and every phase runs its {train_cfg.epochs} epochs; "
                          "drop the key")
    return data, arch, priors, ncai_cfg, train_cfg, method, cfg["s_eval"]


def _read_config(args):
    """The config file's keys, with --epochs and --restarts laid over them."""
    with open(args.config) as fh:
        cfg = parse_config(fh.read())
    overrides = {k: getattr(args, k) for k in ("epochs", "restarts")}
    cfg.update({k: v for k, v in overrides.items() if v is not None})
    return cfg


def _run_training(cfg, experiment, seed, out_dir):
    """Train ``build_experiment(cfg, seed)``, given as ``experiment``; write the
    full run directory and return the result dict."""
    data, arch, priors, ncai_cfg, train_cfg, method, s_eval = experiment
    q, fin_priors, histories, best, val_ll = train_restarts(
        data, arch, priors, ncai_cfg, train_cfg, method, seed, s_ll=s_eval
    )
    report = compute_report(q, data, fin_priors, method=method, s=s_eval, seed=seed)
    result = {
        "method": method,
        "dataset": cfg.get("dataset", cfg.get("train_csv")),
        "seed": int(seed),
        "best_restart": int(best),
        "priors": {k: v for k, v in asdict(fin_priors).items()},
        "metrics": report.to_dict(),
        "val_avg_marginal_ll": val_ll,
        "epochs": train_cfg.epochs,
        "restarts": train_cfg.restarts,
        "restart_runs": [
            {"seed": h.seed, "objective": h.columns["objective"][-1],
             "val_avg_marginal_ll": h.score, "epochs": len(h)}
            for h in histories
        ],
        "version": __version__,
    }
    _write_json(os.path.join(out_dir, "result.json"), result, schema=RESULT_SCHEMA)
    hist = histories[best]
    _write_csv(os.path.join(out_dir, "history.csv"), hist.COLUMNS, hist.rows())
    model = {"method": method, "posterior": q.to_dict(), "priors": asdict(fin_priors),
             **{k: True for k in MODEL_DATA_KEYS if cfg.get(k, False)}}
    if arch.input_dim_z > 0:
        model["train_sha256"] = _train_sha256(data)
    _write_json(os.path.join(out_dir, "model.json"), model)
    if data.input_dim == 1 and data.output_dim == 1:
        _write_predictive_grid(out_dir, q, fin_priors, data, s=max(200, min(s_eval, 500)))
    if arch.input_dim_z > 0:
        train_view = data.view("train")
        header = (
            ["x%d" % j for j in range(data.input_dim)]
            + ["y%d" % j for j in range(data.output_dim)]
            + ["mu_z%d" % j for j in range(arch.input_dim_z)]
        )
        rows = np.concatenate([train_view.x, train_view.y, q.mu_z], axis=1)
        _write_csv(os.path.join(out_dir, "latent_means.csv"), header, rows.tolist())
    return result


def _write_predictive_grid(out_dir, q, priors, data, s, points=200):
    lo, hi = float(np.min(data.x)), float(np.max(data.x))
    grid = np.linspace(lo, hi, points).reshape(-1, 1)
    draws = predictive_sample_matrix(q, priors, grid, s, seed=7)[:, :, 0]
    qs = np.percentile(draws, [2.5, 25.0, 50.0, 75.0, 97.5], axis=1)
    rows = np.column_stack([grid[:, 0], qs.T, draws.mean(axis=1)]).tolist()
    _write_csv(
        os.path.join(out_dir, "predictive_grid.csv"),
        ("x", "q025", "q25", "q50", "q75", "q975", "mean"),
        rows,
    )


# ---------------------------------------------------------------------------
# commands

def cmd_gen_data(args):
    sizes = parse_sizes(args.sizes) if args.sizes else None
    data = gen_synthetic(args.name, args.seed, sizes=sizes, distill=args.distill)
    out = args.out
    x_cols = ["x%d" % j for j in range(data.input_dim)]
    y_cols = ["y%d" % j for j in range(data.output_dim)]
    for which in ("train", "val", "test"):
        view = data.view(which)
        rows = np.concatenate([view.x, view.y], axis=1).tolist()
        _write_csv(os.path.join(out, f"{which}.csv"), x_cols + y_cols, rows)
    if data.z_true is not None:
        z_cols = ["z%d" % j for j in range(data.z_true.shape[1])]
        _write_csv(
            os.path.join(out, "latents_train.csv"),
            z_cols,
            data.view("train").z_true.tolist(),
        )
    if data.w_true is not None:
        _write_json(
            os.path.join(out, "ground_truth.json"),
            {
                "arch": asdict(data.gt_arch),
                "w": data.w_true.tolist(),
                "sigma2_eps": data.sigma2_eps_true,
                "sigma2_z": data.sigma2_z_true,
            },
        )
    config = {"name": args.name, "sizes": list(sizes) if sizes else None, "distill": args.distill}
    return config, {"out": out, "n": data.n}


def cmd_train(args):
    cfg = _read_config(args)
    for key in GRID_KEYS:
        if isinstance(cfg.get(key), list):
            raise ConfigError(f"{key} is a list; sweeps run through the grid subcommand")
    experiment = build_experiment(cfg, args.seed)
    metrics = _run_training(cfg, experiment, args.seed, args.out)["metrics"]
    return cfg, {"out": args.out, "avg_marginal_ll": metrics["avg_marginal_ll"],
                 "rmse": metrics["rmse"]}


def _load_model(path):
    """(posterior, priors, method, data record, train_sha256 or None) from a
    model.json, else ConfigError naming the key; the record holds its
    MODEL_DATA_KEYS."""
    with open(path) as fh:
        try:
            blob = json.load(fh)
        except ValueError as e:  # also a file that is not UTF-8 text
            raise ConfigError(f"{path} is not JSON: {e}") from None
    import jsonschema  # deferred: slow to import, and only a check needs it

    # JSON Schema counts 1.0 as an integer, which Architecture would take as a
    # float (a TypeError) or truncate (50.7 hidden units); here it is not one
    base = jsonschema.Draft202012Validator
    whole = base.TYPE_CHECKER.redefine(
        "integer", lambda _, v: isinstance(v, int) and not isinstance(v, bool))
    try:  # a validator of its own skips jsonschema.validate's check of the schema
        jsonschema.validators.extend(base, type_checker=whole)(MODEL_SCHEMA).validate(blob)
    except jsonschema.ValidationError as e:
        where = ".".join(map(str, e.absolute_path)) or "top level"
        raise ConfigError(f"{path}: {where}: {e.message}") from None
    q = MeanFieldPosterior.from_dict(blob["posterior"])
    priors = PriorConfig(**blob["priors"])
    record = {k: True for k in MODEL_DATA_KEYS if blob.get(k, False)}
    return q, priors, blob.get("method", "NCAI"), record, blob.get("train_sha256")


def cmd_evaluate(args):
    check_interval_samples(args.samples)
    # the data flags are named as their config keys
    cfg = {k: v for keys in DATA_SOURCES.values() for k in keys
           if (v := getattr(args, k, None)) is not None}
    if "sizes" in cfg:
        cfg["sizes"] = list(parse_sizes(cfg["sizes"]))
    source = _data_source(cfg)  # a mix of sources fails before the model loads
    q, priors, method, record, trained_on = _load_model(args.model)
    # a distilled run's CSVs hold its distilled targets already
    cfg.update({k: v for k, v in record.items() if k != "distill" or source == "dataset"})
    data = build_dataset(cfg, args.seed)
    # a model written without the hash, or without latents, is scored on any rows
    if trained_on is not None and q.input_dim_z > 0:
        found = _train_sha256(data)
        if found != trained_on:
            raise ConfigError(
                f"{args.model}'s latent factors were fit on training rows with sha256 "
                f"{trained_on}, but these data's training rows have sha256 {found}; pass "
                "the training run's --seed (or its data_seed) and sizes, or the CSVs that "
                "gen-data wrote for it")
    report = compute_report(q, data, priors, method=method, s=args.samples, seed=args.seed)
    _write_json(os.path.join(args.out, "metrics.json"), report.to_dict(), schema=METRICS_SCHEMA)
    return {"model": args.model, **cfg, "samples": args.samples}, report.to_dict()


# each transform's own nonident-demo flags, with the value a flag left out takes
DEMO_FLAGS = {"node": {"c": 0.99}, "layer": {"t_scale": 0.5, "hidden": 5}}


def cmd_nonident_demo(args):
    other = "layer" if args.transform == "node" else "node"
    for key in DEMO_FLAGS[other]:
        if getattr(args, key) is not None:
            raise ConfigError(f"--{key.replace('_', '-')} applies only to --transform {other}")
    transform = {"kind": args.transform}
    for key, default in DEMO_FLAGS[args.transform].items():
        value = getattr(args, key)
        transform[key] = default if value is None else value
    priors = PriorConfig(sigma2_w=args.sigma2_w, sigma2_z=args.sigma2_z)
    n_values = _typed("--n", _comma_list(args.n), list[int])
    records = bias_probability(
        transform,
        n_values,
        args.trials,
        priors,
        args.mu_x,
        args.sigma2_x,
        args.seed,
    )
    out_obj = {"transform": transform, "records": records}
    _write_json(os.path.join(args.out, "gaps.json"), out_obj, schema=GAPS_SCHEMA)
    config = {
        "transform": transform, "n": n_values, "trials": args.trials,
        "mu_x": args.mu_x, "sigma2_x": args.sigma2_x,
        "sigma2_z": args.sigma2_z, "sigma2_w": args.sigma2_w,
    }
    return config, records


def cmd_map_demo(args):
    # built first, so that TrainConfig rejects bad counts before any work
    opt = TrainConfig(epochs=args.epochs, restarts=args.restarts, learning_rate=args.learning_rate)
    data = gen_synthetic(args.dataset, args.seed, distill=True)
    priors = PriorConfig(
        sigma2_w=args.sigma2_w,
        sigma2_z=data.sigma2_z_true,
        sigma2_eps=data.sigma2_eps_true,
    )
    arch = data.gt_arch
    seeds = [int(s.generate_state(1)[0])
             for s in np.random.SeedSequence(args.seed).spawn(args.restarts)]

    def log_joint(i):  # the random starts, then the generative one
        if i < len(seeds):
            return map_estimate(data, priors, arch, "random", opt.learning_rate, opt.epochs,
                                seed=seeds[i]).log_joint
        return map_estimate(data, priors, arch, "ground_truth", opt.learning_rate, opt.epochs,
                            seed=args.seed).log_joint

    *random_ljs, gt_lj = fork_map(log_joint, args.restarts + 1)
    out_obj = {
        "dataset": args.dataset,
        "random_log_joints": random_ljs,
        "best_random": max(random_ljs),
        "ground_truth_log_joint": gt_lj,
        "gap": max(random_ljs) - gt_lj,
    }
    _write_json(os.path.join(args.out, "map.json"), out_obj)
    config = {
        "dataset": args.dataset, "restarts": args.restarts,
        "epochs": args.epochs, "learning_rate": args.learning_rate,
        "sigma2_w": args.sigma2_w,
    }
    return config, {"best_random": out_obj["best_random"], "gap": out_obj["gap"]}


def _parse_grid_spec(spec):
    try:
        lo, hi, count = spec.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        raise ConfigError(f"bad x-grid spec {spec!r}; expected lo:hi:count") from None
    if count < 1:
        raise ConfigError(f"x-grid needs a count >= 1, got {spec!r}")
    return np.linspace(lo, hi, count)


def cmd_decompose(args):
    if args.s_w < 1 or args.s_inner <= 5:
        raise ConfigError("decompose needs --s-w >= 1 and --s-inner > 5")
    grid = _parse_grid_spec(args.x_grid)
    if bool(args.model) == bool(args.dataset):
        raise ConfigError("decompose needs exactly one of --model and --dataset")
    if args.model:
        q_w, priors, _, record, _ = _load_model(args.model)
        if record.get("standardize"):
            raise ConfigError(f"{args.model} was trained on standardized data; --x-grid "
                              "is in raw units")
    else:
        sigma2_eps, sigma2_z, _ = LATENT_SPECS[args.dataset]
        q_w = FixedFunction(ground_truth_fn(args.dataset), input_dim_z=1, output_dim=1)
        priors = PriorConfig(sigma2_z=sigma2_z, sigma2_eps=sigma2_eps)
    rows = []
    for i, xv in enumerate(grid):
        parts = uncertainty_decomposition(
            q_w, priors, np.array([xv]), s_w=args.s_w, s_y=args.s_inner,
            seed=args.seed + i,
        )
        rows.append((float(xv), parts["total"], parts["aleatoric"], parts["epistemic"]))
    _write_csv(
        os.path.join(args.out, "decomposition.csv"),
        ("x", "total", "aleatoric", "epistemic"),
        rows,
    )
    config = {
        "model": args.model, "dataset": args.dataset, "x_grid": args.x_grid,
        "s_w": args.s_w, "s_inner": args.s_inner,
    }
    return config, {"out": args.out, "points": len(rows)}


def cmd_grid(args):
    cfg = _read_config(args)
    cells = expand_grid(cfg)
    # every cell's config is checked before the first cell trains
    experiments = [build_experiment(cell, args.seed) for cell in cells]
    summaries = []
    for i, (cell, experiment) in enumerate(zip(cells, experiments)):
        cell_dir = os.path.join(args.out, f"cell_{i:03d}")
        result = _run_training(cell, experiment, args.seed, cell_dir)
        _write_manifest(cell_dir, "grid-cell", cell, args.seed)
        summaries.append(
            {
                "dir": cell_dir,
                "config": {k: cell[k] for k in GRID_KEYS if k in cell},
                "val_avg_marginal_ll": result["val_avg_marginal_ll"],
                "test_avg_marginal_ll": result["metrics"]["avg_marginal_ll"],
            }
        )
    best = int(np.argmax([s["val_avg_marginal_ll"] for s in summaries]))
    out_obj = {"cells": summaries, "best": best, "best_config": summaries[best]["config"]}
    _write_json(os.path.join(args.out, "grid.json"), out_obj)
    return cfg, {"best": best, "best_config": summaries[best]["config"]}


# ---------------------------------------------------------------------------
# argument plumbing

def build_parser():
    parser = argparse.ArgumentParser(
        prog="bnnlv",
        description="Latent-input Bayesian network experiments",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, epochs=False, restarts=False):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)
        if epochs:
            p.add_argument("--epochs", type=int, default=None)
        if restarts:
            p.add_argument("--restarts", type=int, default=None)

    p = sub.add_parser("gen-data", help="write a synthetic dataset as CSV splits")
    p.add_argument("--name", required=True, choices=DATASET_NAMES)
    p.add_argument("--sizes", default=None, help="train,val,test counts")
    p.add_argument("--distill", action="store_true",
                   help="refit targets through a net so ground-truth weights exist")
    common(p)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="fit one model per a config file")
    p.add_argument("--config", required=True)
    common(p, epochs=True, restarts=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="metric report for a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", default=None, choices=DATASET_NAMES)
    p.add_argument("--sizes", default=None, help="train,val,test counts for --dataset")
    p.add_argument("--train-csv", dest="train_csv", default=None)
    p.add_argument("--val-csv", dest="val_csv", default=None)
    p.add_argument("--test-csv", dest="test_csv", default=None)
    p.add_argument("--samples", type=int, default=2000)
    common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("nonident-demo", help="Monte Carlo log-joint gaps for the transforms")
    p.add_argument("--transform", required=True, choices=("node", "layer"))
    p.add_argument("--c", type=float, default=None, help="node only")
    p.add_argument("--t-scale", dest="t_scale", type=float, default=None, help="layer only")
    p.add_argument("--hidden", type=int, default=None, help="layer only")
    p.add_argument("--n", default="10,100,1000")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--mu-x", dest="mu_x", type=float, default=0.0)
    p.add_argument("--sigma2-x", dest="sigma2_x", type=float, default=1.0)
    p.add_argument("--sigma2-z", dest="sigma2_z", type=float, default=0.01)
    p.add_argument("--sigma2-w", dest="sigma2_w", type=float, default=1.0)
    common(p)
    p.set_defaults(func=cmd_nonident_demo)

    p = sub.add_parser("map-demo", help="best-of-restarts MAP vs the generative configuration")
    p.add_argument("--dataset", default="heavy_tail", choices=tuple(LATENT_SPECS))
    p.add_argument("--learning-rate", dest="learning_rate", type=float, default=0.01)
    p.add_argument("--sigma2-w", dest="sigma2_w", type=float, default=10.0)
    common(p, epochs=True, restarts=True)
    p.set_defaults(func=cmd_map_demo, epochs=3000, restarts=9)

    p = sub.add_parser("decompose", help="entropy split across an input grid")
    p.add_argument("--model", default=None)
    p.add_argument("--dataset", default=None, choices=tuple(LATENT_SPECS))
    p.add_argument("--x-grid", dest="x_grid", default="-4:4:9")
    p.add_argument("--s-w", dest="s_w", type=int, default=50)
    p.add_argument("--s-inner", dest="s_inner", type=int, default=400)
    common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("grid", help="sweep list-valued config keys, select by validation")
    p.add_argument("--config", required=True)
    common(p, epochs=True, restarts=True)
    p.set_defaults(func=cmd_grid)

    return parser


def _fail(code, kind, message):
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)
    return code


def _schema_errors():
    """jsonschema's ValidationError once a check has imported jsonschema, else
    no class; an except clause evaluates this only when an error reaches it."""
    loaded = sys.modules.get("jsonschema")
    return (loaded.ValidationError,) if loaded is not None else ()


def main(argv=None):
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    # grid specs like -4:4:9 start with a dash; fold them into the flag so
    # argparse does not read them as an unknown option
    argv = list(argv)
    for i, tok in enumerate(argv[:-1]):
        if tok == "--x-grid" and argv[i + 1].startswith("-"):
            argv[i : i + 2] = [f"--x-grid={argv[i + 1]}"]
            break
    args = parser.parse_args(argv)
    if args.out is None:
        args.out = os.path.join("runs", args.command)
    try:
        if args.seed < 0:  # every subcommand takes --seed
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        # each command returns its manifest config and its one summary line
        config, summary = args.func(args)
        _write_manifest(args.out, args.command, config, args.seed)
        print(json.dumps(summary))
        return 0
    except (ConfigError, CsvParseError, FileNotFoundError) as e:
        return _fail(2, "config", str(e))
    except DivergenceError as e:
        return _fail(3, "divergence", str(e))
    except _schema_errors() as e:
        return _fail(3, "internal", f"output failed schema validation: {e.message}")


if __name__ == "__main__":
    sys.exit(main())
