import argparse
import copy
import importlib
import json
import multiprocessing
import os
import re
import subprocess
import sys
from dataclasses import fields

import jsonschema
import numpy as np
import pytest

import bnnlv
from bnnlv import cli
from bnnlv.cli import (
    GAPS_SCHEMA,
    METRICS_SCHEMA,
    MODEL_SCHEMA,
    RESULT_SCHEMA,
    _write_csv,
    _write_json,
    _write_text_atomic,
    build_experiment,
    build_parser,
    expand_grid,
    main,
    parse_config,
)
from bnnlv.data import gen_synthetic
from bnnlv.diffcore import Architecture
from bnnlv.exceptions import ConfigError, DivergenceError
from bnnlv.metrics import avg_marginal_ll, compute_report
from bnnlv.model import PriorConfig
from bnnlv.ncai import NcaiConfig
from bnnlv.train import TrainConfig
from bnnlv.vi import MeanFieldPosterior, random_init

train_mod = importlib.import_module("bnnlv.train")  # the package's ``train`` shadows it


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _fails_if_called(*args, **kwargs):
    raise AssertionError("work started before the inputs were checked")


# each float config key with each non-finite value
NON_FINITE = [
    (k, v) for k in sorted(k for k, t in cli.KEY_TYPES.items() if t is float)
    for v in ("nan", "inf", "-inf")
]


def _assert_config_error(code, capsys, out):
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert not os.path.exists(out)


class TestParseConfig:
    def test_scalars_and_comments(self):
        cfg = parse_config(
            "method = NCAI   # constrained\n"
            "\n"
            "epochs = 50\n"
            "learning_rate = 1e-2\n"
            "eb_z = true\n"
        )
        assert cfg == {
            "method": "NCAI",
            "epochs": 50,
            "learning_rate": 0.01,
            "eb_z": True,
        }

    def test_lists(self):
        cfg = parse_config("lambda1 = [0, 1, 10]\nhidden = [20]\n")
        assert cfg["lambda1"] == [0, 1, 10]
        assert cfg["hidden"] == [20]

    def test_error_lines_are_numbered(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("epochs = 5\nnot a pair\n")
        with pytest.raises(ConfigError, match="line 1.*unknown key"):
            parse_config("epoch = 5\n")
        with pytest.raises(ConfigError, match="unterminated"):
            parse_config("lambda1 = [1, 2\n")
        with pytest.raises(ConfigError, match="empty"):
            parse_config("epochs =\n")

    @pytest.mark.parametrize("key", cli.GRID_KEYS)
    def test_empty_sweep_list(self, key):
        with pytest.raises(ConfigError, match=f"config line 2: {key} = \\[\\] sweeps no value"):
            parse_config(f"epochs = 5\n{key} = [ ]\n")


def test_every_field_is_a_key():
    field_names = {f.name for cls in (PriorConfig, NcaiConfig, TrainConfig) for f in fields(cls)}
    field_names.add("leaky_slope")
    keys = set(cli.KEY_TYPES)
    assert field_names <= keys
    assert keys - field_names == set(cli.CLI_KEYS)
    assert not field_names & set(cli.CLI_KEYS)


def _csv_splits(tmp_path):
    rows = "x0,y0\n" + "".join(f"{i / 10},{i % 3}\n" for i in range(12))
    cfg = {}
    for split in ("train", "val", "test"):
        (tmp_path / f"{split}.csv").write_text(rows)
        cfg[f"{split}_csv"] = str(tmp_path / f"{split}.csv")
    return cfg


def _latent_model(path, **extra):
    """Write a random 25-row latent model.json to ``path``; return the path."""
    arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(5,), output_dim=1)
    path.write_text(json.dumps({
        "method": "NCAI", "posterior": random_init(arch, 25, seed=0).to_dict(),
        "priors": {"sigma2_w": 1.0, "sigma2_z": 1.0, "sigma2_eps": 0.1}, **extra,
    }))
    return str(path)


class TestBuildExperiment:
    @pytest.mark.parametrize(
        "cfg, priors, latent_dim",
        [
            ({"dataset": "depeweg"}, {"sigma2_z": 1.0, "sigma2_eps": 0.1}, 1),
            ({"dataset": "bimodal"}, {"sigma2_z": 0.1, "sigma2_eps": 1.0}, 1),
            ({"csv": True, "sigma2_z": 0.5}, {"sigma2_z": 0.5}, 1),
            ({"csv": True}, {"eb_z": True}, 1),
            ({"dataset": "heavy_tail", "method": "BNN"}, {"sigma2_z": 0.01, "sigma2_eps": 0.1}, 0),
        ],
        ids=["depeweg", "bimodal", "csv_with_sigma2_z", "csv_without_sigma2_z", "bnn"],
    )
    def test_cli_departures(self, tmp_path, cfg, priors, latent_dim):
        cfg = dict(cfg)
        if cfg.pop("csv", False):
            cfg.update(_csv_splits(tmp_path))
        else:
            cfg["sizes"] = [20, 5, 5]
        _, arch, got_priors, ncai_cfg, train_cfg, method, s_eval = build_experiment(cfg, 0)
        assert got_priors == PriorConfig(eb_w=True, **priors)
        assert arch == Architecture(input_dim_x=1, input_dim_z=latent_dim)
        assert s_eval == 2000
        assert method == cfg.get("method", "NCAI")
        assert ncai_cfg == NcaiConfig()
        assert train_cfg == TrainConfig()

    def test_values_take_the_field_type(self):
        cfg = {"dataset": "depeweg", "sizes": [20, 5, 5], "sigma2_w": 1, "epochs": 1e3,
               "hidden": 7}
        _, arch, priors, _, train_cfg, _, _ = build_experiment(cfg, 0)
        assert type(priors.sigma2_w) is float and priors.sigma2_w == 1.0
        assert type(train_cfg.epochs) is int and train_cfg.epochs == 1000
        assert arch.hidden_layers == (7,)


class TestExpandGrid:
    def test_no_sweep(self):
        cells = expand_grid({"method": "NCAI", "epochs": 5})
        assert cells == [{"method": "NCAI", "epochs": 5}]

    def test_product_order(self):
        cells = expand_grid({"lambda1": [0, 1], "sigma2_eps": [0.1, 0.01, 1.0], "epochs": 3})
        assert len(cells) == 6
        assert cells[0]["lambda1"] == 0 and cells[0]["sigma2_eps"] == 0.1
        assert cells[1]["lambda1"] == 0 and cells[1]["sigma2_eps"] == 0.01
        assert cells[-1]["lambda1"] == 1 and cells[-1]["sigma2_eps"] == 1.0
        assert all(c["epochs"] == 3 for c in cells)

    def test_structural_lists_not_swept(self):
        cells = expand_grid({"hidden": [10, 10], "sizes": [40, 10, 10]})
        assert len(cells) == 1
        assert cells[0]["hidden"] == [10, 10]


class TestWriters:
    def test_atomic_text_leaves_no_droppings(self, tmp_path):
        target = tmp_path / "out.txt"
        _write_text_atomic(str(target), "hello\n")
        _write_text_atomic(str(target), "replaced\n")
        assert target.read_text() == "replaced\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_json_schema_enforced(self, tmp_path):
        bad = {"transform": {}, "records": "nope"}
        with pytest.raises(jsonschema.ValidationError):
            _write_json(str(tmp_path / "x.json"), bad, GAPS_SCHEMA)
        assert not (tmp_path / "x.json").exists()

    def test_schema_failure_exits_3_internal(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "GAPS_SCHEMA", {"type": "array"})
        out = tmp_path / "demo"
        code = main(["nonident-demo", "--transform", "node", "--n", "10", "--trials", "2",
                     "--out", str(out)])
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"] == "internal"
        assert not (out / "gaps.json").exists()

    def test_other_errors_are_not_caught(self, tmp_path, monkeypatch):
        def fails(*args, **kwargs):
            raise RuntimeError("not a schema failure")

        monkeypatch.setattr(cli, "bias_probability", fails)
        with pytest.raises(RuntimeError, match="not a schema failure"):
            main(["nonident-demo", "--transform", "node", "--out", str(tmp_path / "demo")])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_json_refuses_non_finite_numbers(self, tmp_path, value):
        with pytest.raises(DivergenceError, match=r"x\.json: a\.b\.1 is not finite"):
            _write_json(str(tmp_path / "x.json"), {"a": {"b": [1.0, value]}, "c": 2.0})
        assert not (tmp_path / "x.json").exists()

    def test_csv_floats_roundtrip(self, tmp_path):
        path = tmp_path / "vals.csv"
        val = 0.1 + 0.2
        _write_csv(str(path), ("a", "b"), [(val, 1)])
        lines = path.read_text().splitlines()
        assert lines[0] == "a,b"
        back = float(lines[1].split(",")[0])
        assert back == val


class TestGenData:
    def test_deterministic_outputs(self, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (out1, out2):
            code = main(["gen-data", "--name", "depeweg", "--seed", "3",
                         "--sizes", "30,10,10", "--out", out])
            assert code == 0
        for fname in ("train.csv", "val.csv", "test.csv", "latents_train.csv"):
            assert _read(os.path.join(out1, fname)) == _read(os.path.join(out2, fname))

    def test_manifest_written(self, tmp_path):
        out = str(tmp_path / "d")
        assert main(["gen-data", "--name", "goldberg", "--sizes", "20,5,5", "--out", out]) == 0
        with open(os.path.join(out, "manifest.json")) as fh:
            manifest = json.load(fh)
        assert manifest["command"] == "gen-data"
        assert manifest["seed"] == 0
        assert "version" in manifest
        # goldberg has no generative latents, so no sidecar
        assert not os.path.exists(os.path.join(out, "latents_train.csv"))

    @pytest.mark.parametrize("sizes", ["10,,5", "10,5"])
    def test_bad_sizes_are_config_error(self, tmp_path, capsys, monkeypatch, sizes):
        monkeypatch.setattr("bnnlv.cli.gen_synthetic", _fails_if_called)
        out = tmp_path / "d"
        code = main(["gen-data", "--name", "depeweg", "--sizes", sizes, "--out", str(out)])
        _assert_config_error(code, capsys, out)

    def test_rejects_unknown_name(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["gen-data", "--name", "mystery", "--out", str(tmp_path / "x")])


TRAIN_CONFIG = """
method = {method}
dataset = heavy_tail
sizes = [25, 8, 8]
hidden = [5]
latent_dim = 1
sigma2_eps = 0.1
sigma2_z = 1.0
epochs = 25
restarts = 1
warm_epochs = 40
init = warm
"""


# a depeweg run small enough to test the training row count, the first of sizes
FEW_ROWS_CONFIG = """
method = {method}
dataset = depeweg
sizes = {sizes}
hidden = [5]
epochs = 5
restarts = 1
"""


def _run_train(tmp_path, method, name):
    cfg_path = tmp_path / f"{name}.cfg"
    cfg_path.write_text(TRAIN_CONFIG.format(method=method))
    out = str(tmp_path / name)
    code = main(["train", "--config", str(cfg_path), "--seed", "5", "--out", out])
    assert code == 0
    return out


class TestTrain:
    def test_writes_all_artifacts(self, tmp_path):
        out = _run_train(tmp_path, "NCAI", "run")
        for fname in ("result.json", "history.csv", "model.json",
                      "predictive_grid.csv", "latent_means.csv", "manifest.json"):
            assert os.path.exists(os.path.join(out, fname)), fname
        with open(os.path.join(out, "result.json")) as fh:
            result = json.load(fh)
        jsonschema.validate(result, RESULT_SCHEMA)
        assert result["method"] == "NCAI"
        assert result["metrics"]["recon_mse"] is not None
        with open(os.path.join(out, "model.json")) as fh:
            jsonschema.validate(json.load(fh), MODEL_SCHEMA)

    def test_grid_only_for_one_output(self, tmp_path):
        # the grid holds one output's quantiles, so two targets write none
        rows = "x0,y0,y1\n" + "".join(f"{i / 10},{i % 3},{i % 5}\n" for i in range(12))
        for split in ("train", "val", "test"):
            (tmp_path / f"{split}.csv").write_text(rows)
        cfg_path = tmp_path / "two.cfg"
        cfg_path.write_text(
            "".join(f"{split}_csv = {tmp_path / split}.csv\n" for split in ("train", "val", "test"))
            + "n_targets = 2\nhidden = [4]\nepochs = 5\nwarm_epochs = 5\ns_eval = 100\n"
        )
        out = tmp_path / "two"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == ["history.csv", "latent_means.csv", "manifest.json",
                                           "model.json", "result.json"]
        with open(out / "latent_means.csv") as fh:
            assert fh.readline() == "x0,y0,y1,mu_z0\n"

    @pytest.mark.parametrize("restarts", [1, 3])
    def test_val_score_is_the_winners_selection_score(self, tmp_path, restarts):
        # restart selection scores every restart at the run seed; the
        # winner's score is the one result.json reports
        text = TRAIN_CONFIG.format(method="BNNLV_BBB").replace(
            "restarts = 1", f"restarts = {restarts}") + "s_eval = 300\n"
        cfg_path = tmp_path / "r.cfg"
        cfg_path.write_text(text)
        out = tmp_path / "r"
        assert main(["train", "--config", str(cfg_path), "--seed", "5", "--out", str(out)]) == 0
        with open(out / "result.json") as fh:
            result = json.load(fh)
        with open(out / "model.json") as fh:
            model = json.load(fh)
        q = MeanFieldPosterior.from_dict(model["posterior"])
        priors = PriorConfig(**model["priors"])
        data = build_experiment(parse_config(text), 5)[0]
        assert result["restarts"] == restarts
        assert result["val_avg_marginal_ll"] == avg_marginal_ll(
            q, data, priors, which="val", s=300, seed=5
        )

    @pytest.mark.parametrize("restarts", [1, 3])
    def test_restart_runs_record_each_restart(self, tmp_path, restarts):
        cfg_path = tmp_path / "r.cfg"
        cfg_path.write_text(TRAIN_CONFIG.format(method="NCAI").replace(
            "restarts = 1", f"restarts = {restarts}"))
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["train", "--config", str(cfg_path), "--seed", "5",
                         "--out", str(out)]) == 0
            blobs.append(_read(out / "result.json"))
        assert blobs[0] == blobs[1]  # no wall time: a fixed seed repeats exactly
        result = json.loads(blobs[0])
        runs = result["restart_runs"]
        seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(5).spawn(restarts)]
        assert [r["seed"] for r in runs] == seeds
        assert [r["epochs"] for r in runs] == [25] * restarts
        scores = [r["val_avg_marginal_ll"] for r in runs]
        best = runs[result["best_restart"]]
        assert result["best_restart"] == int(np.argmax(scores))
        assert best["val_avg_marginal_ll"] == result["val_avg_marginal_ll"]
        with open(tmp_path / "a" / "history.csv") as fh:
            last = fh.read().splitlines()[-1].split(",")
        assert best["objective"] == float(last[2])

    def test_penalty_free_matches_plain_descent(self, tmp_path):
        cfg = TRAIN_CONFIG + "lambda1 = 0\nlambda2 = 0\nlambda3 = 0\n"
        paths = {}
        for method, name in (("NCAI", "zero"), ("BNNLV_BBB", "bbb")):
            cfg_path = tmp_path / f"{name}.cfg"
            cfg_path.write_text(cfg.format(method=method))
            out = str(tmp_path / name)
            assert main(["train", "--config", str(cfg_path), "--seed", "7", "--out", out]) == 0
            paths[name] = out
        h_zero = _read(os.path.join(paths["zero"], "history.csv"))
        h_bbb = _read(os.path.join(paths["bbb"], "history.csv"))
        assert h_zero == h_bbb

    def test_grid_keys_rejected_outside_grid(self, tmp_path):
        cfg_path = tmp_path / "sweep.cfg"
        cfg_path.write_text(TRAIN_CONFIG.format(method="NCAI") + "lambda1 = [0, 1]\n")
        code = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize(
        "line",
        [
            "convergence_window = 0", "convergence_window = -1", "convergence_tol = -1e-6",
            "convergence_window = 25", "convergence_window = 26",
        ],
    )
    def test_bad_stop_rule_is_config_error(self, tmp_path, capsys, line):
        # the stop rule is gone: convergence_tol is an unknown key, and the retired
        # convergence_window is accepted only above epochs (25), where the rule never fired
        cfg_path = tmp_path / "stop.cfg"
        cfg_path.write_text(TRAIN_CONFIG.format(method="BNNLV_BBB") + line + "\n")
        out = tmp_path / "o"
        code = main(["train", "--config", str(cfg_path), "--out", str(out)])
        if line == "convergence_window = 26":
            assert code == 0
            assert len((out / "history.csv").read_text().splitlines()) == 1 + 25
            return
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"

    @pytest.mark.parametrize(
        "line",
        [
            "eb_w = no", "standardize = no", "variance_only_first = true", "sigma2_w = abc",
            "epochs = 1.5", "epochs = [2, 3]", "batch_size = 8", "data_seed = abc",
            "hidden = abc", "hidden = 0", "leaky_slope = 2", "latent_dim = -1",
            "sizes = [10, 5]", "sizes = [0, 20, 20]", "n_mc = 0", "n_mc = -1",
            "warm_epochs = none", "eb_z = null", "warm_epochs = -4",
        ],
    )
    def test_bad_value_is_config_error(self, tmp_path, capsys, monkeypatch, line):
        monkeypatch.setattr("bnnlv.cli.train_restarts", _fails_if_called)
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(TRAIN_CONFIG.format(method="NCAI") + line + "\n")
        out = tmp_path / "o"
        code = main(["train", "--config", str(cfg_path), "--out", str(out)])
        _assert_config_error(code, capsys, out)

    @pytest.mark.parametrize(
        "key,value", NON_FINITE, ids=[k if v == "nan" else f"{k}-{v}" for k, v in NON_FINITE]
    )
    def test_nan_is_config_error(self, tmp_path, capsys, monkeypatch, key, value):
        monkeypatch.setattr("bnnlv.cli.train_restarts", _fails_if_called)
        cfg_path = tmp_path / "nan.cfg"
        cfg_path.write_text(TRAIN_CONFIG.format(method="NCAI") + f"{key} = {value}\n")
        out = tmp_path / "o"
        code = main(["train", "--config", str(cfg_path), "--out", str(out)])
        _assert_config_error(code, capsys, out)

    @pytest.mark.parametrize("line", ["method = BNN", "hidden = [10]"])
    def test_ground_truth_init_needs_generative_architecture(
        self, tmp_path, capsys, monkeypatch, line
    ):
        # distilling the data fits a net, but no training epoch may start
        monkeypatch.setattr("bnnlv.ncai.objective_graph", _fails_if_called)
        cfg_path = tmp_path / "gt.cfg"
        cfg_path.write_text(
            "dataset = heavy_tail\ndistill = true\nsizes = [12, 4, 4]\n"
            "init = ground_truth\nepochs = 2\nrestarts = 1\n" + line + "\n"
        )
        out = tmp_path / "o"
        code = main(["train", "--config", str(cfg_path), "--out", str(out)])
        _assert_config_error(code, capsys, out)

    def test_ground_truth_init_on_standardized_data_is_config_error(
        self, tmp_path, capsys, monkeypatch
    ):
        # the generative weights fit the raw targets, not the z-scored ones
        monkeypatch.setattr("bnnlv.ncai.objective_graph", _fails_if_called)
        cfg_path = tmp_path / "gt_std.cfg"
        cfg_path.write_text(
            "dataset = heavy_tail\ndistill = true\nstandardize = true\nsizes = [12, 4, 4]\n"
            "init = ground_truth\nepochs = 2\nrestarts = 1\n"
        )
        out = tmp_path / "o"
        code = main(["train", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert "standardize" in err["message"] and "init = ground_truth" in err["message"]
        assert not os.path.exists(out)

    def test_too_few_eval_samples_is_config_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("bnnlv.cli.train_restarts", _fails_if_called)
        cfg_path = tmp_path / "few.cfg"
        cfg_path.write_text(TRAIN_CONFIG.format(method="NCAI") + "s_eval = 50\n")
        out = tmp_path / "o"
        code = main(["train", "--config", str(cfg_path), "--out", str(out)])
        _assert_config_error(code, capsys, out)

    @pytest.mark.parametrize("method, n_train", [
        ("NCAI", 5), ("NCAI", 4), ("NCAI", 2), ("BNNLV_BBB", 4),
    ])
    def test_too_few_training_rows_is_config_error(self, tmp_path, capsys, monkeypatch,
                                                   method, n_train):
        # the report's KSG MI needs more than 5 training rows; that is
        # checked before training, not after it
        monkeypatch.setattr("bnnlv.cli.train_restarts", _fails_if_called)
        cfg_path = tmp_path / "few.cfg"
        cfg_path.write_text(FEW_ROWS_CONFIG.format(method=method, sizes=f"[{n_train}, 4, 4]"))
        out = tmp_path / "o"
        code = main(["train", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert err["message"].startswith(f"sizes gives {n_train} training rows")
        assert not os.path.exists(out)

    def test_six_training_rows_train(self, tmp_path):
        cfg_path = tmp_path / "six.cfg"
        cfg_path.write_text(FEW_ROWS_CONFIG.format(method="NCAI", sizes="[6, 4, 4]"))
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0

    def test_too_few_csv_training_rows_is_config_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("bnnlv.cli.train_restarts", _fails_if_called)
        splits = _csv_splits(tmp_path)
        (tmp_path / "train.csv").write_text("x0,y0\n" + "".join(f"{i},{i}\n" for i in range(5)))
        cfg_path = tmp_path / "csv.cfg"
        cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in splits.items()))
        out = tmp_path / "o"
        code = main(["train", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["message"].startswith(f"train_csv {splits['train_csv']} gives 5 training rows")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("n_targets", [0, -1])
    def test_n_targets_below_one_is_config_error(self, tmp_path, capsys, monkeypatch,
                                                 n_targets):
        monkeypatch.setattr("bnnlv.cli.train_restarts", _fails_if_called)
        rows = "x0,x1,y0\n" + "".join(f"{i / 10},{i % 3},{i % 5}\n" for i in range(12))
        cfg = {"n_targets": n_targets}
        for split in ("train", "val", "test"):
            (tmp_path / f"{split}.csv").write_text(rows)
            cfg[f"{split}_csv"] = str(tmp_path / f"{split}.csv")
        cfg_path = tmp_path / "targets.cfg"
        cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
        out = tmp_path / "o"
        code = main(["train", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "config", "message": f"n_targets must be >= 1, got {n_targets}"}
        assert not os.path.exists(out)

    @pytest.mark.parametrize("lines, stray", [
        ("dataset = depeweg\n{csv}", "train_csv"),
        ("{csv}sizes = [12, 4, 4]\n", "sizes"),
        ("dataset = depeweg\nn_targets = 1\n", "n_targets"),
        ("{csv}data_seed = 3\n", "data_seed"),
        ("{csv}distill = true\n", "distill"),
    ], ids=["dataset-with-csvs", "csvs-with-sizes", "dataset-with-n_targets",
            "csvs-with-data_seed", "csvs-with-distill"])
    def test_mixed_data_sources_are_config_errors(self, tmp_path, capsys, monkeypatch,
                                                  lines, stray):
        # a key of the other source is refused, not dropped, before any data is read
        for name in ("gen_synthetic", "load_csv", "train_restarts"):
            monkeypatch.setattr(f"bnnlv.cli.{name}", _fails_if_called)
        csv = "".join(f"{k} = {v}\n" for k, v in _csv_splits(tmp_path).items())
        cfg_path = tmp_path / "mixed.cfg"
        cfg_path.write_text("hidden = [5]\nepochs = 2\nrestarts = 1\n" + lines.format(csv=csv))
        out = tmp_path / "o"
        code = main(["train", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert err["message"].startswith(f"{stray} does not apply to ")
        assert not os.path.exists(out)

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path / "absent.cfg"),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"

    def test_divergence_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "div.cfg"
        cfg_path.write_text(TRAIN_CONFIG.format(method="BNNLV_BBB").replace(
            "sigma2_eps = 0.1", "sigma2_eps = 1e-320"))
        code = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "divergence"

    def test_large_learning_rate_exit_code(self, tmp_path, capsys):
        # the variational scales underflow to 0: a divergence, not a traceback
        cfg_path = tmp_path / "lr.cfg"
        cfg_path.write_text("method = BNNLV_BBB\ndataset = heavy_tail\nsizes = [25, 8, 8]\n"
                            "hidden = [5]\nlatent_dim = 1\nlearning_rate = 100\n"
                            "epochs = 50\nrestarts = 1\ns_eval = 100\n")
        code = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "divergence"
        assert re.fullmatch(r"variance underflowed to 0 in block rho_w at epoch \d+",
                            err["message"])

    def test_divergence_in_a_worker_exit_code(self, tmp_path, capsys, monkeypatch,
                                              diverging_restart):
        # restart 1 of 2 diverges in the forked worker: the same exit and
        # error line as when both restarts run in this process
        cfg_path = tmp_path / "two.cfg"
        cfg_path.write_text(TRAIN_CONFIG.format(method="BNNLV_BBB").replace(
            "restarts = 1", "restarts = 2"))
        diverging_restart(1, 2, seed=5)
        lines = []
        for cpus in (1, 2):
            monkeypatch.setattr(train_mod, "_usable_cpus", lambda cpus=cpus: cpus)
            code = main(["train", "--config", str(cfg_path), "--seed", "5",
                         "--out", str(tmp_path / f"o{cpus}")])
            assert code == 3
            assert multiprocessing.active_children() == []
            lines.append(capsys.readouterr().err)
        assert lines[0] == lines[1]
        assert json.loads(lines[1]) == {
            "error": "divergence", "message": "non-finite gradient in block mu_z at epoch 2"}


@pytest.fixture(scope="module")
def ncai_result(tmp_path_factory):
    """The result.json of a small NCAI training run."""
    out = _run_train(tmp_path_factory.mktemp("schema"), "NCAI", "run")
    with open(os.path.join(out, "result.json")) as fh:
        return json.load(fh)


class TestResultSchemas:
    def test_real_outputs_validate(self, ncai_result):
        jsonschema.validate(ncai_result, RESULT_SCHEMA)
        jsonschema.validate(ncai_result["metrics"], METRICS_SCHEMA)
        # a report without a latent block holds nulls
        arch = Architecture(input_dim_x=1, hidden_layers=(5,))
        data = gen_synthetic("heavy_tail", 0, sizes=(25, 8, 8))
        report = compute_report(random_init(arch, 25, seed=0), data, PriorConfig(),
                                method="BNN", s=200).to_dict()
        assert report["hz_mu_z"] is None
        jsonschema.validate(report, METRICS_SCHEMA)

    @pytest.mark.parametrize("edit", [
        lambda m: m.pop("rmse"),
        lambda m: m.update(sharpness=1.0),
        lambda m: m.update(avg_marginal_ll=None),
        lambda m: m.update(mi_x_z="x"),
    ], ids=["no-rmse", "extra-key", "null-avg-ll", "string-mi"])
    def test_bad_metrics_are_rejected(self, ncai_result, edit):
        result = copy.deepcopy(ncai_result)
        edit(result["metrics"])
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(result["metrics"], METRICS_SCHEMA)
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(result, RESULT_SCHEMA)

    def test_result_priors_need_sigma2_eps(self, ncai_result):
        result = copy.deepcopy(ncai_result)
        del result["priors"]["sigma2_eps"]
        with pytest.raises(jsonschema.ValidationError, match="sigma2_eps"):
            jsonschema.validate(result, RESULT_SCHEMA)


class TestEvaluate:
    def test_report_for_saved_model(self, tmp_path):
        out = _run_train(tmp_path, "NCAI", "base")
        eval_out = str(tmp_path / "eval")
        code = main(["evaluate", "--model", os.path.join(out, "model.json"),
                     "--dataset", "heavy_tail", "--sizes", "25,8,8",
                     "--samples", "200", "--seed", "5", "--out", eval_out])
        assert code == 0
        with open(os.path.join(eval_out, "metrics.json")) as fh:
            metrics = json.load(fh)
        assert "avg_marginal_ll" in metrics
        assert metrics["pc_y_z"] is not None
        with open(os.path.join(eval_out, "manifest.json")) as fh:
            assert json.load(fh)["config"]["samples"] == 200

    def test_report_for_saved_bnn_model(self, tmp_path):
        cfg_path = tmp_path / "bnn.cfg"
        cfg_path.write_text(
            TRAIN_CONFIG.format(method="BNN").replace("latent_dim = 1\n", "").replace(
                "init = warm\n", "")
        )
        out = str(tmp_path / "bnn")
        assert main(["train", "--config", str(cfg_path), "--seed", "5", "--out", out]) == 0
        eval_out = str(tmp_path / "eval")
        code = main(["evaluate", "--model", os.path.join(out, "model.json"),
                     "--dataset", "heavy_tail", "--sizes", "25,8,8",
                     "--samples", "200", "--seed", "5", "--out", eval_out])
        assert code == 0
        with open(os.path.join(eval_out, "metrics.json")) as fh:
            metrics = json.load(fh)
        assert metrics["method"] == "BNN"
        assert metrics["hz_mu_z"] is None

    def test_too_few_samples_is_config_error(self, tmp_path, capsys, monkeypatch):
        arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(5,), output_dim=1)
        model = tmp_path / "model.json"
        model.write_text(json.dumps({
            "method": "NCAI",
            "posterior": random_init(arch, 25, seed=0).to_dict(),
            "priors": {"sigma2_w": 1.0, "sigma2_z": 1.0, "sigma2_eps": 0.1},
        }))
        monkeypatch.setattr("bnnlv.cli.build_dataset", _fails_if_called)
        out = tmp_path / "e"
        code = main(["evaluate", "--model", str(model), "--dataset", "heavy_tail",
                     "--sizes", "25,8,8", "--samples", "50", "--out", str(out)])
        _assert_config_error(code, capsys, out)

    @pytest.mark.parametrize("sizes", ["10,,5", "10,5"])
    def test_bad_sizes_are_config_error(self, tmp_path, capsys, monkeypatch, sizes):
        monkeypatch.setattr("bnnlv.cli._load_model", _fails_if_called)
        out = tmp_path / "e"
        code = main(["evaluate", "--model", str(tmp_path / "model.json"), "--dataset",
                     "heavy_tail", "--sizes", sizes, "--out", str(out)])
        _assert_config_error(code, capsys, out)

    def test_non_finite_metric_exits_3_and_writes_nothing(self, tmp_path, capsys):
        # a zero latent scale (softplus(-800) underflows) makes the
        # aggregated posterior density, and so js_z_prior, NaN
        arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(5,), output_dim=1)
        q = random_init(arch, 25, seed=0)
        q.rho_z[3, 0] = -800.0
        model = tmp_path / "model.json"
        model.write_text(json.dumps({
            "method": "NCAI", "posterior": q.to_dict(),
            "priors": {"sigma2_w": 1.0, "sigma2_z": 1.0, "sigma2_eps": 0.1},
        }))
        out = tmp_path / "e"
        code = main(["evaluate", "--model", str(model), "--dataset", "heavy_tail",
                     "--sizes", "25,8,8", "--samples", "100", "--out", str(out)])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "divergence"
        assert "js_z_prior" in err["message"]
        assert not os.path.exists(out)

    @pytest.mark.parametrize("flags", [
        ["--sizes", "5,5,5", "--train-csv", "tr.csv", "--val-csv", "va.csv", "--test-csv", "te.csv"],
        ["--dataset", "heavy_tail", "--train-csv", "tr.csv"],
        ["--dataset", "heavy_tail", "--val-csv", "va.csv"],
        ["--dataset", "heavy_tail", "--test-csv", "te.csv"],
    ], ids=["sizes-with-csv", "dataset-with-train-csv", "dataset-with-val-csv",
            "dataset-with-test-csv"])
    def test_ignored_data_flags_are_config_errors(self, tmp_path, capsys, monkeypatch, flags):
        monkeypatch.setattr("bnnlv.cli._load_model", _fails_if_called)
        out = tmp_path / "e"
        code = main(["evaluate", "--model", str(tmp_path / "model.json"), *flags,
                     "--out", str(out)])
        _assert_config_error(code, capsys, out)

    @pytest.mark.parametrize("block, edit", [
        ("mu_z", lambda post: post["mu_z"][3].__setitem__(0, float("nan"))),
        ("mu_w", lambda post: post["mu_w"].__setitem__(7, float("nan"))),
        ("mu_w", lambda post: post["mu_w"].pop()),
        ("rho_z", lambda post: post["rho_z"][0].append(0.5)),
    ], ids=["nan-in-mu_z", "nan-in-mu_w", "mu_w-one-short", "ragged-rho_z"])
    def test_bad_model_block_is_config_error(self, tmp_path, capsys, monkeypatch, block, edit):
        arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(5,), output_dim=1)
        posterior = random_init(arch, 25, seed=0).to_dict()
        edit(posterior)
        model = tmp_path / "model.json"
        model.write_text(json.dumps({
            "method": "NCAI", "posterior": posterior,
            "priors": {"sigma2_w": 1.0, "sigma2_z": 1.0, "sigma2_eps": 0.1},
        }))
        monkeypatch.setattr("bnnlv.cli.build_dataset", _fails_if_called)
        out = tmp_path / "e"
        code = main(["evaluate", "--model", str(model), "--dataset", "heavy_tail",
                     "--sizes", "25,8,8", "--samples", "100", "--out", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert f"model block {block} " in err["message"]
        assert not os.path.exists(out)

    @pytest.mark.parametrize("train_on, evaluate_on",
                             [("dataset", "dataset"), ("csv", "csv"), ("dataset", "csv")],
                             ids=["dataset", "csv", "dataset-then-csv"])
    @pytest.mark.parametrize("standardize", [False, True], ids=["plain", "standardized"])
    def test_metrics_equal_the_training_report(self, tmp_path, train_on, evaluate_on,
                                               standardize):
        # evaluate rebuilds the training data, z-scored as training did, so a
        # report at the run's seed and sample count repeats the run's own; the
        # CSVs gen-data writes at that seed hold the rows of the run's dataset
        assert main(["gen-data", "--name", "depeweg", "--sizes", "30,10,10", "--seed", "4",
                     "--out", str(tmp_path / "data")]) == 0
        splits = {s: str(tmp_path / "data" / f"{s}.csv") for s in ("train", "val", "test")}
        data_lines = {"dataset": "dataset = depeweg\nsizes = [30, 10, 10]\n",
                      "csv": "".join(f"{s}_csv = {p}\n" for s, p in splits.items())}
        data_flags = {"dataset": ["--dataset", "depeweg", "--sizes", "30,10,10"],
                      "csv": [a for s, p in splits.items() for a in (f"--{s}-csv", p)]}
        cfg_path = tmp_path / "std.cfg"
        cfg_path.write_text(data_lines[train_on] + f"standardize = {str(standardize).lower()}\n"
                            "hidden = [5]\nepochs = 20\nwarm_epochs = 20\nrestarts = 1\n"
                            "s_eval = 100\n")
        run = str(tmp_path / "run")
        assert main(["train", "--config", str(cfg_path), "--seed", "4", "--out", run]) == 0
        with open(os.path.join(run, "model.json")) as fh:
            blob = json.load(fh)
        assert blob.get("standardize") == (True if standardize else None)
        assert len(blob["train_sha256"]) == 64
        eval_out = str(tmp_path / "eval")
        assert main(["evaluate", "--model", os.path.join(run, "model.json"),
                     *data_flags[evaluate_on], "--samples", "100", "--seed", "4",
                     "--out", eval_out]) == 0
        with open(os.path.join(run, "result.json")) as fh:
            trained = json.load(fh)["metrics"]
        with open(os.path.join(eval_out, "metrics.json")) as fh:
            assert json.load(fh) == trained

    def test_distilled_run_metrics_equal_the_training_report(self, tmp_path):
        # model.json records distill, so evaluate --dataset distills its data too
        cfg_path = tmp_path / "distill.cfg"
        cfg_path.write_text("dataset = heavy_tail\nsizes = [40, 10, 10]\ndistill = true\n"
                            "hidden = [5]\nepochs = 20\nwarm_epochs = 20\nrestarts = 1\n"
                            "s_eval = 100\n")
        run = str(tmp_path / "run")
        assert main(["train", "--config", str(cfg_path), "--seed", "2", "--out", run]) == 0
        with open(os.path.join(run, "model.json")) as fh:
            blob = json.load(fh)
        assert blob["distill"] is True and "standardize" not in blob
        eval_out = str(tmp_path / "eval")
        assert main(["evaluate", "--model", os.path.join(run, "model.json"),
                     "--dataset", "heavy_tail", "--sizes", "40,10,10",
                     "--samples", "100", "--seed", "2", "--out", eval_out]) == 0
        with open(os.path.join(run, "result.json")) as fh:
            trained = json.load(fh)["metrics"]
        with open(os.path.join(eval_out, "metrics.json")) as fh:
            assert json.load(fh) == trained
        with open(os.path.join(eval_out, "manifest.json")) as fh:
            assert json.load(fh)["config"]["distill"] is True

    def test_other_training_rows_are_config_error(self, tmp_path, capsys):
        # the same row count at another seed: the latent means would pair with
        # unrelated rows, so the recorded hash refuses them
        cfg_path = tmp_path / "std.cfg"
        cfg_path.write_text("dataset = depeweg\nsizes = [60, 20, 20]\nstandardize = true\n"
                            "hidden = [5]\nepochs = 20\nwarm_epochs = 20\nrestarts = 1\n"
                            "s_eval = 100\n")
        run = str(tmp_path / "run")
        assert main(["train", "--config", str(cfg_path), "--out", run]) == 0
        model = os.path.join(run, "model.json")
        out = tmp_path / "e"
        argv = ["evaluate", "--model", model, "--dataset", "depeweg", "--sizes", "60,20,20",
                "--samples", "100", "--seed", "1", "--out", str(out)]
        code = main(argv)
        err = json.loads(capsys.readouterr().err)
        assert code == 2 and err["error"] == "config" and not out.exists()
        with open(model) as fh:
            blob = json.load(fh)
        assert blob["train_sha256"] in err["message"] and "--seed" in err["message"]
        assert re.search(r"training rows have sha256 [0-9a-f]{64}", err["message"])
        # a model.json written before the hash existed is scored as before
        del blob["train_sha256"]
        with open(model, "w") as fh:
            json.dump(blob, fh)
        assert main(argv) == 0

    def test_latent_row_mismatch_is_config_error(self, tmp_path, capsys):
        out = _run_train(tmp_path, "NCAI", "base2")
        code = main(["evaluate", "--model", os.path.join(out, "model.json"),
                     "--dataset", "heavy_tail", "--sizes", "40,8,8",
                     "--samples", "200", "--out", str(tmp_path / "e2")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert "latent factors" in err["message"]


class TestNonidentDemo:
    def test_node_gap_table(self, tmp_path):
        out = str(tmp_path / "nd")
        code = main(["nonident-demo", "--transform", "node", "--c", "0.99",
                     "--n", "10,50", "--trials", "20", "--out", out])
        assert code == 0
        with open(os.path.join(out, "gaps.json")) as fh:
            gaps = json.load(fh)
        jsonschema.validate(gaps, GAPS_SCHEMA)
        assert [r["n"] for r in gaps["records"]] == [10, 50]

    def test_layer_gap_table(self, tmp_path):
        out = str(tmp_path / "nl")
        code = main(["nonident-demo", "--transform", "layer", "--t-scale", "0.5",
                     "--sigma2-z", "1.0", "--n", "50", "--trials", "10", "--out", out])
        assert code == 0
        with open(os.path.join(out, "gaps.json")) as fh:
            gaps = json.load(fh)
        assert gaps["transform"]["kind"] == "layer"

    @pytest.mark.parametrize("transform, flag, value", [
        ("layer", "--c", "0.5"), ("node", "--t-scale", "0.5"), ("node", "--hidden", "5"),
    ])
    def test_other_transforms_flag_is_config_error(self, tmp_path, capsys, transform, flag,
                                                   value):
        out = tmp_path / "nd"
        code = main(["nonident-demo", "--transform", transform, flag, value,
                     "--n", "10", "--trials", "5", "--out", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert flag in err["message"]
        assert not os.path.exists(out)

    @pytest.mark.parametrize("transform, flag, value", [
        ("node", "--mu-x", "nan"), ("layer", "--mu-x", "nan"), ("layer", "--mu-x", "1e200"),
        ("node", "--sigma2-x", "inf"), ("layer", "--sigma2-x", "inf"),
    ])
    def test_input_moments_without_a_finite_gap_are_config_errors(
        self, tmp_path, capsys, transform, flag, value
    ):
        out = tmp_path / "nd"
        code = main(["nonident-demo", "--transform", transform, flag, value,
                     "--n", "10", "--trials", "5", "--out", str(out)])
        _assert_config_error(code, capsys, out)

    @pytest.mark.parametrize("transform, mu_x", [("node", "1e200"), ("layer", "1e154")])
    def test_overflowing_gap_stops_at_the_first_trial(self, tmp_path, capsys, transform, mu_x):
        # the moments are finite, but the squared transformed latents or
        # weights overflow, so no trial has a finite gap
        out = tmp_path / "nd"
        code = main(["nonident-demo", "--transform", transform, "--mu-x", mu_x,
                     "--n", "10", "--trials", "5", "--out", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert "n=10, trial 0" in err["message"] and f"mu_x={float(mu_x)}" in err["message"]
        assert not os.path.exists(out)

    @pytest.mark.parametrize("flags, code", [
        (["--sigma2-w", "1e12"], 0),
        (["--sigma2-w", "1e20"], 0),
        (["--t-scale", "1e-310"], 2),
        (["--sigma2-w", "1e300", "--t-scale", "1e-160"], 2),
    ], ids=["w-1e12", "w-1e20", "t-1e-310", "w-1e300-t-1e-160"])
    def test_extreme_layer_scales(self, tmp_path, capsys, flags, code):
        # |w_z| of 1e6 or 1e10 still factors as R @ T up to rounding; a
        # w_z / t that overflows leaves no finite gap
        out = tmp_path / "nd"
        assert main(["nonident-demo", "--transform", "layer", *flags,
                     "--n", "10", "--trials", "5", "--out", str(out)]) == code
        if code == 0:
            assert os.path.exists(out / "gaps.json")
        else:
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "config"
            assert "gap is not finite at n=10, trial 0" in err["message"]
            assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "flag, value", [("--n", "0"), ("--n", "-3"), ("--n", "10,,5"), ("--trials", "0")]
    )
    def test_bad_size_is_config_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "nd"
        code = main(["nonident-demo", "--transform", "node", flag, value, "--out", str(out)])
        _assert_config_error(code, capsys, out)


class TestMapDemo:
    def test_gap_report(self, tmp_path):
        out = str(tmp_path / "md")
        code = main(["map-demo", "--dataset", "heavy_tail", "--seed", "1", "--epochs", "60",
                     "--restarts", "2", "--learning-rate", "0.02", "--out", out])
        assert code == 0
        with open(os.path.join(out, "map.json")) as fh:
            report = json.load(fh)
        assert len(report["random_log_joints"]) == 2
        assert report["best_random"] == max(report["random_log_joints"])
        assert report["gap"] == pytest.approx(
            report["best_random"] - report["ground_truth_log_joint"]
        )
        with open(os.path.join(out, "manifest.json")) as fh:
            assert json.load(fh)["config"]["learning_rate"] == 0.02

    def test_same_report_in_one_process_and_two(self, tmp_path, monkeypatch):
        reports = []
        for cpus in (1, 2):
            monkeypatch.setattr(train_mod, "_usable_cpus", lambda cpus=cpus: cpus)
            out = tmp_path / f"md{cpus}"
            assert main(["map-demo", "--dataset", "heavy_tail", "--seed", "1", "--epochs", "40",
                         "--restarts", "2", "--out", str(out)]) == 0
            assert multiprocessing.active_children() == []
            reports.append(_read(out / "map.json"))
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("flag", ["--epochs", "--restarts"])
    def test_zero_count_is_config_error(self, tmp_path, capsys, monkeypatch, flag):
        def no_data(*args, **kwargs):
            raise AssertionError("the dataset was built before the flags were checked")

        monkeypatch.setattr("bnnlv.cli.gen_synthetic", no_data)
        code = main(["map-demo", flag, "0", "--out", str(tmp_path / "md")])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"
        assert not os.path.exists(tmp_path / "md")


class TestDecompose:
    def test_grid_csv_from_true_model(self, tmp_path):
        out = str(tmp_path / "dc")
        code = main(["decompose", "--dataset", "bimodal", "--x-grid", "0:1:3",
                     "--s-w", "10", "--s-inner", "150", "--out", out])
        assert code == 0
        with open(os.path.join(out, "decomposition.csv")) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "x,total,aleatoric,epistemic"
        assert len(lines) == 4
        first = [float(v) for v in lines[1].split(",")]
        assert first[1] == pytest.approx(first[2] + first[3], abs=1e-9)

    def test_grid_spec_may_start_negative(self, tmp_path):
        out = str(tmp_path / "dn")
        code = main(["decompose", "--dataset", "depeweg", "--x-grid", "-1:1:2",
                     "--s-w", "5", "--s-inner", "100", "--out", out])
        assert code == 0
        with open(os.path.join(out, "decomposition.csv")) as fh:
            rows = fh.read().splitlines()
        assert [float(r.split(",")[0]) for r in rows[1:]] == [-1.0, 1.0]


    @pytest.mark.parametrize("flags", [["--model", "model.json", "--dataset", "bimodal"], []],
                             ids=["model-and-dataset", "neither"])
    def test_needs_exactly_one_source(self, tmp_path, capsys, monkeypatch, flags):
        monkeypatch.setattr("bnnlv.cli._load_model", _fails_if_called)
        monkeypatch.setattr("bnnlv.cli.gen_synthetic", _fails_if_called)
        out = tmp_path / "dc"
        code = main(["decompose", *flags, "--x-grid", "0:1:3", "--out", str(out)])
        _assert_config_error(code, capsys, out)

    def test_standardized_model_is_config_error(self, tmp_path, capsys, monkeypatch):
        # the model's inputs are z-scored, the --x-grid values are not
        model = _latent_model(tmp_path / "model.json", standardize=True)
        monkeypatch.setattr("bnnlv.cli.uncertainty_decomposition", _fails_if_called)
        out = tmp_path / "dc"
        code = main(["decompose", "--model", model, "--out", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and "standardized" in err["message"]
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "flag, value", [("--s-w", "0"), ("--s-inner", "3"), ("--s-inner", "5")]
    )
    def test_too_few_draws_is_config_error(self, tmp_path, capsys, monkeypatch, flag, value):
        monkeypatch.setattr("bnnlv.cli.gen_synthetic", _fails_if_called)
        out = tmp_path / "dc"
        code = main(["decompose", "--dataset", "bimodal", "--x-grid", "0:1:3",
                     flag, value, "--out", str(out)])
        _assert_config_error(code, capsys, out)


# evaluate and decompose read model.json the same way
@pytest.mark.parametrize("edit, key", [
    (lambda blob: "{not json", "is not JSON"),
    (lambda blob: blob.pop("posterior"), "'posterior' is a required"),
    (lambda blob: blob.pop("priors"), "'priors' is a required"),
    (lambda blob: blob["posterior"].pop("arch"), "'arch' is a required"),
    (lambda blob: blob["posterior"].pop("rho_w"), "'rho_w' is a required"),
    (lambda blob: blob["posterior"]["arch"].update(width=3), "'width' was unexpected"),
    (lambda blob: blob["priors"].update(sigma2_q=1.0), "'sigma2_q' was unexpected"),
    # JSON Schema counts 1.0 as an integer; a model file's arch does not
    (lambda blob: blob["posterior"]["arch"].update(input_dim_x=1.0), "arch.input_dim_x"),
    (lambda blob: blob["posterior"]["arch"].update(output_dim=1.0), "arch.output_dim"),
    (lambda blob: blob["posterior"]["arch"].update(hidden_layers=[5.7]), "arch.hidden_layers.0"),
    (lambda blob: blob["posterior"]["arch"].update(hidden_layers=[5.0]), "arch.hidden_layers.0"),
    (lambda blob: blob["posterior"]["arch"].update(hidden_layers=["5"]), "arch.hidden_layers.0"),
    (lambda blob: blob.update(standardize="true"), "standardize"),
    (lambda blob: blob.update(distill=1), "distill"),
    (lambda blob: blob.update(train_sha256="5eed"), "train_sha256"),
], ids=["not-json", "no-posterior", "no-priors", "no-arch", "no-block", "arch-key",
        "priors-key", "input-dim-float", "output-dim-float", "hidden-fraction", "hidden-float",
        "hidden-string", "standardize-string", "distill-int", "sha256-short"])
@pytest.mark.parametrize("command", [
    ["evaluate", "--dataset", "heavy_tail", "--sizes", "25,8,8"], ["decompose"],
], ids=["evaluate", "decompose"])
def test_bad_model_file_is_config_error(tmp_path, capsys, monkeypatch, edit, key, command):
    arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=(5,), output_dim=1)
    blob = {"method": "NCAI", "posterior": random_init(arch, 25, seed=0).to_dict(),
            "priors": {"sigma2_w": 1.0, "sigma2_z": 1.0, "sigma2_eps": 0.1}}
    text = edit(blob)
    model = tmp_path / "model.json"
    model.write_text(text if isinstance(text, str) else json.dumps(blob))
    monkeypatch.setattr("bnnlv.cli.build_dataset", _fails_if_called)
    monkeypatch.setattr("bnnlv.cli.uncertainty_decomposition", _fails_if_called)
    out = tmp_path / "e"
    code = main([command[0], "--model", str(model), *command[1:], "--out", str(out)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert str(model) in err["message"] and key in err["message"]
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "argv",
    [
        ["nonident-demo", "--transform", "node", "--c", "0"],
        ["nonident-demo", "--transform", "layer", "--sigma2-x", "-1"],
        ["nonident-demo", "--transform", "node", "--sigma2-x", "-1"],
        ["nonident-demo", "--transform", "layer", "--t-scale", "0"],
        ["nonident-demo", "--transform", "layer", "--hidden", "-1"],
        ["decompose", "--dataset", "depeweg", "--x-grid", "1:2:0"],
    ],
    ids=["node-c-0", "layer-sigma2-x", "node-sigma2-x", "layer-t-scale-0", "layer-hidden",
         "empty-x-grid"],
)
def test_degenerate_demo_parameters_are_config_errors(tmp_path, capsys, monkeypatch, argv):
    # decompose checks its grid before it builds a model
    monkeypatch.setattr("bnnlv.cli.gen_synthetic", _fails_if_called)
    out = tmp_path / "demo"
    code = main(argv + ["--out", str(out)])
    _assert_config_error(code, capsys, out)


# every subcommand's seed, and a config's data_seed, is checked before any work
@pytest.mark.parametrize("argv, line, key", [
    (["gen-data", "--name", "depeweg", "--seed", "-1"], "", "--seed"),
    (["train", "--seed", "-2"], "", "--seed"),
    (["evaluate", "--model", "model.json", "--dataset", "depeweg", "--seed", "-1"], "", "--seed"),
    (["nonident-demo", "--transform", "node", "--seed", "-5"], "", "--seed"),
    (["map-demo", "--seed", "-1"], "", "--seed"),
    (["decompose", "--dataset", "depeweg", "--seed", "-1"], "", "--seed"),
    (["grid", "--seed", "-1"], "", "--seed"),
    (["train"], "data_seed = -3", "data_seed"),
    (["grid"], "data_seed = -3", "data_seed"),
], ids=["gen-data", "train", "evaluate", "nonident-demo", "map-demo", "decompose", "grid",
        "train-data_seed", "grid-data_seed"])
def test_negative_seed_is_config_error(tmp_path, capsys, monkeypatch, argv, line, key):
    for name in ("gen_synthetic", "_load_model", "bias_probability", "uncertainty_decomposition",
                 "train_restarts"):
        monkeypatch.setattr(f"bnnlv.cli.{name}", _fails_if_called)
    if argv[0] in ("train", "grid"):
        cfg_path = tmp_path / "seed.cfg"
        cfg_path.write_text(TRAIN_CONFIG.format(method="NCAI") + line + "\n")
        argv = [*argv, "--config", str(cfg_path)]
    out = tmp_path / "o"
    code = main([*argv, "--out", str(out)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert err["message"].startswith(f"{key} must be >= 0, got -")
    assert not os.path.exists(out)


class TestGrid:
    def test_too_few_training_rows_is_config_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("bnnlv.cli.train_restarts", _fails_if_called)
        cfg_path = tmp_path / "grid.cfg"
        cfg_path.write_text(FEW_ROWS_CONFIG.format(method="NCAI", sizes="[5, 4, 4]")
                            + "lambda2 = [0, 10]\n")
        out = tmp_path / "gr"
        code = main(["grid", "--config", str(cfg_path), "--out", str(out)])
        _assert_config_error(code, capsys, out)

    def test_mixed_data_sources_are_config_error(self, tmp_path, capsys, monkeypatch):
        for name in ("gen_synthetic", "load_csv", "train_restarts"):
            monkeypatch.setattr(f"bnnlv.cli.{name}", _fails_if_called)
        cfg_path = tmp_path / "grid.cfg"
        cfg_path.write_text(TRAIN_CONFIG.format(method="NCAI") + "lambda2 = [0, 10]\n"
                            + "".join(f"{k} = {v}\n" for k, v in _csv_splits(tmp_path).items()))
        out = tmp_path / "gr"
        code = main(["grid", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["message"].startswith(
            "train_csv does not apply to dataset = heavy_tail")
        assert not os.path.exists(out)

    def test_sweep_and_selection(self, tmp_path):
        cfg_path = tmp_path / "grid.cfg"
        cfg_path.write_text(TRAIN_CONFIG.format(method="NCAI") + "lambda2 = [0, 10]\n")
        out = str(tmp_path / "gr")
        code = main(["grid", "--config", str(cfg_path), "--seed", "2", "--out", out])
        assert code == 0
        with open(os.path.join(out, "grid.json")) as fh:
            summary = json.load(fh)
        assert len(summary["cells"]) == 2
        assert os.path.exists(os.path.join(out, "cell_000", "result.json"))
        assert os.path.exists(os.path.join(out, "cell_001", "result.json"))
        scores = [c["val_avg_marginal_ll"] for c in summary["cells"]]
        assert scores[summary["best"]] == max(scores)
        assert summary["best_config"]["lambda2"] in (0, 10)

    @pytest.mark.parametrize("sweep", ["n_mc = [1, 0]", "learning_rate = [0.01, -1]",
                                       "lambda1 = []"])
    def test_every_cell_is_checked_before_training(self, tmp_path, capsys, monkeypatch, sweep):
        monkeypatch.setattr("bnnlv.cli.train_restarts", _fails_if_called)
        cfg_path = tmp_path / "grid.cfg"
        cfg_path.write_text(TRAIN_CONFIG.format(method="NCAI") + sweep + "\n")
        out = tmp_path / "gr"
        code = main(["grid", "--config", str(cfg_path), "--out", str(out)])
        _assert_config_error(code, capsys, out)  # no cell_000 either

    def test_too_few_eval_samples_is_config_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("bnnlv.cli.train_restarts", _fails_if_called)
        cfg_path = tmp_path / "grid.cfg"
        cfg_path.write_text(TRAIN_CONFIG.format(method="NCAI") + "lambda2 = [0, 10]\ns_eval = 50\n")
        out = tmp_path / "gr"
        code = main(["grid", "--config", str(cfg_path), "--out", str(out)])
        _assert_config_error(code, capsys, out)


def _subcommands():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sorted(sub.choices)


def _config(tmp, extra):
    path = tmp / "run.cfg"
    path.write_text(FEW_ROWS_CONFIG.format(method="NCAI", sizes="[6, 4, 4]")
                    + "warm_epochs = 5\ns_eval = 100\n" + extra)
    return str(path)


# one small run of each subcommand, without --out
CONTRACT_ARGV = {
    "gen-data": lambda tmp: ["--name", "yuan", "--sizes", "10,5,5"],
    "train": lambda tmp: ["--config", _config(tmp, "")],
    "grid": lambda tmp: ["--config", _config(tmp, "lambda2 = [0, 10]\n")],
    "evaluate": lambda tmp: ["--model", _latent_model(tmp / "model.json"), "--dataset",
                             "heavy_tail", "--sizes", "25,8,8", "--samples", "100"],
    "nonident-demo": lambda tmp: ["--transform", "node", "--n", "10", "--trials", "2"],
    "map-demo": lambda tmp: ["--epochs", "5", "--restarts", "1"],
    "decompose": lambda tmp: ["--dataset", "bimodal", "--x-grid", "0:1:2", "--s-w", "2",
                              "--s-inner", "50"],
}


@pytest.mark.parametrize("command", _subcommands())
def test_command_contract(tmp_path, capsys, command):
    # every subcommand prints one JSON line and writes one manifest of the same shape
    out = tmp_path / "out"
    argv = [command, *CONTRACT_ARGV[command](tmp_path), "--seed", "3", "--out", str(out)]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert printed.endswith("\n") and printed.count("\n") == 1
    json.loads(printed)
    with open(out / "manifest.json") as fh:
        manifest = json.load(fh)
    assert set(manifest) == {"command", "config", "seed", "version"}
    assert manifest["command"] == command
    assert manifest["seed"] == 3
    assert manifest["version"] == bnnlv.__version__


def test_module_entry_point(tmp_path):
    out = str(tmp_path / "ep")
    # the child imports the same bnnlv as this process, installed or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(bnnlv.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "bnnlv.cli", "gen-data", "--name", "yuan",
         "--sizes", "10,5,5", "--out", out],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert os.path.exists(os.path.join(out, "train.csv"))
