"""The benchmark's workloads: how each one writes its inputs, which `bnnlv`
command it runs, and how that command's outputs are checked.

Every workload is a closed loop with one client: the next command starts as
soon as the previous one has returned. The workload seed derives
INPUT_SETS input sets (a data seed, a run seed and, for evaluate, a model
seed each); commands take the sets in turn. test_avg_ll is the median over
the sets, which keeps the data's own seed-to-seed spread small. The same seed
always gives the same files.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, replace

import numpy as np

# Ground-truth noise levels of the synthetic generators (sigma2_eps, sigma2_z).
# Train configs state them so the priors are the ones `dataset = <name>` would
# pick, although the commands read the data from CSV files.
TRUE_NOISE = {"depeweg": (0.1, 1.0), "heavy_tail": (0.1, 0.01)}
INPUT_SETS = 6


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "train" or "evaluate"
    dataset: str
    sizes: tuple  # (n_train, n_val, n_test)
    samples: int  # S: s_eval for train, --samples for evaluate
    method: str = "NCAI"
    hidden: tuple = (50,)
    n_mc: int = 1
    restarts: int = 1
    init: str = "random"
    learning_rate: float = 0.01
    warm_epochs: int = 0
    epochs: int = 0

    @property
    def n_train(self):
        return self.sizes[0]

    def sizes_record(self):
        """Provenance: every size that sets the amount of work per command."""
        rec = {
            "command": self.command,
            "dataset": self.dataset,
            "n_train": self.sizes[0],
            "n_val": self.sizes[1],
            "n_test": self.sizes[2],
            "hidden": list(self.hidden),
            "latent_dim": 1,
            "S": self.samples,
        }
        if self.command == "train":
            rec.update(
                method=self.method,
                n_mc=self.n_mc,
                restarts=self.restarts,
                init=self.init,
                learning_rate=self.learning_rate,
                warm_epochs=self.warm_epochs if self.init == "warm" else 0,
                epochs=self.epochs,
                restart_select_S=2000 if self.restarts > 1 else 0,
            )
        return rec


# Why each workload exists is stated in BENCHMARK.json and README.md. Epoch
# counts are fixed so that VI epochs take most of a train command and several
# commands fit in one run. NCAI uses learning_rate 0.05: at the default 0.01
# its test_avg_ll after 100 epochs still swings by about 20% between seeds.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ncai_depeweg",
            command="train",
            dataset="depeweg",
            sizes=(750, 250, 250),
            samples=2000,
            method="NCAI",
            init="warm",
            learning_rate=0.05,
            warm_epochs=500,
            epochs=100,
        ),
        Workload(
            name="bbb_heavy_tail_mc16",
            command="train",
            dataset="heavy_tail",
            sizes=(300, 300, 300),
            samples=2000,
            method="BNNLV_BBB",
            n_mc=16,
            restarts=2,
            init="random",
            epochs=60,
        ),
        Workload(
            name="evaluate_depeweg_n3000",
            command="evaluate",
            dataset="depeweg",
            sizes=(3000, 250, 250),
            samples=2000,
        ),
    )
}


def tiny(w):
    """The same workload at sizes that run in well under a second."""
    return replace(
        w,
        sizes=(40, 20, 20),
        samples=100,
        warm_epochs=min(w.warm_epochs, 5),
        epochs=min(w.epochs, 3) if w.epochs else 0,
    )


def derive_seeds(seed):
    """[(data seed, run seed, model seed)] for each input set of the workload seed."""
    return [tuple(int(v) for v in ss.generate_state(3))
            for ss in np.random.SeedSequence(seed).spawn(INPUT_SETS)]


def _paths(dest):
    data_dir = os.path.join(dest, "data")
    csvs = {k: os.path.join(data_dir, f"{k}.csv") for k in ("train", "val", "test")}
    return data_dir, csvs, os.path.join(dest, "train.cfg"), os.path.join(dest, "model.json")


def command_argvs(w, seed, dest):
    """For each input set, the argv (without ``--out``) of the workload's command."""
    argvs = []
    for j, (_, run_seed, _) in enumerate(derive_seeds(seed)):
        _, csvs, config, model = _paths(os.path.join(dest, f"set{j}"))
        if w.command == "train":
            argvs.append(["train", "--config", config, "--seed", str(run_seed)])
        else:
            argvs.append([
                "evaluate", "--model", model, "--train-csv", csvs["train"],
                "--val-csv", csvs["val"], "--test-csv", csvs["test"],
                "--samples", str(w.samples), "--seed", str(run_seed),
            ])
    return argvs


def write_inputs(w, seed, dest):
    """Write every input set (dataset CSVs, train config or evaluate model) under ``dest``."""
    for j, (data_seed, _, model_seed) in enumerate(derive_seeds(seed)):
        _write_set(w, data_seed, model_seed, os.path.join(dest, f"set{j}"))


def _write_set(w, data_seed, model_seed, dest):
    from bnnlv import cli, vi
    from bnnlv.diffcore import Architecture
    from bnnlv.model import PriorConfig

    data_dir, csvs, config, model = _paths(dest)
    rc = cli.main([
        "gen-data", "--name", w.dataset, "--sizes", ",".join(map(str, w.sizes)),
        "--seed", str(data_seed), "--out", data_dir,
    ])
    if rc != 0:
        raise RuntimeError(f"bnnlv gen-data exited with {rc}")
    sigma2_eps, sigma2_z = TRUE_NOISE[w.dataset]

    if w.command == "train":
        lines = {
            "method": w.method,
            "train_csv": csvs["train"],
            "val_csv": csvs["val"],
            "test_csv": csvs["test"],
            "hidden": "[" + ", ".join(map(str, w.hidden)) + "]",
            "latent_dim": 1,
            "sigma2_eps": sigma2_eps,
            "sigma2_z": sigma2_z,
            "n_mc": w.n_mc,
            "restarts": w.restarts,
            "init": w.init,
            "learning_rate": w.learning_rate,
            "warm_epochs": max(w.warm_epochs, 1),
            "epochs": w.epochs,
            # the stop rule compares objectives this many epochs apart, so it
            # cannot fire and every command runs exactly `epochs` epochs
            "convergence_window": w.epochs + 1,
            "s_eval": w.samples,
        }
        with open(config, "w") as fh:
            fh.writelines(f"{k} = {v}\n" for k, v in lines.items())
        return

    arch = Architecture(input_dim_x=1, input_dim_z=1, hidden_layers=w.hidden)
    q = vi.random_init(arch, w.n_train, model_seed)
    priors = PriorConfig(sigma2_z=sigma2_z, sigma2_eps=sigma2_eps)
    with open(model, "w") as fh:
        json.dump({"method": "NCAI", "posterior": q.to_dict(), "priors": asdict(priors)}, fh)


def check_outputs(w, out_dir, band):
    """Check one command's outputs; returns (test_avg_ll, list of problems).

    The checks hold for any random stream: schema validity, finite metrics,
    picp in [0, 1], and test_avg_ll inside the workload's reference band
    (``band`` is (low, high), or None to skip that check).
    """
    import jsonschema
    from bnnlv import cli

    problems = []
    name = "result.json" if w.command == "train" else "metrics.json"
    schema = cli.RESULT_SCHEMA if w.command == "train" else cli.METRICS_SCHEMA
    try:
        with open(os.path.join(out_dir, name)) as fh:
            blob = json.load(fh)
        jsonschema.validate(blob, schema)
    except (OSError, ValueError, jsonschema.ValidationError) as e:
        return None, [f"{name}: {e}"]
    metrics = blob["metrics"] if w.command == "train" else blob
    numbers = {k: v for k, v in metrics.items() if k != "method"}
    if w.command == "train":
        numbers["val_avg_marginal_ll"] = blob.get("val_avg_marginal_ll")
    for key, value in numbers.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{key} is not a finite number: {value!r}")
    picp = metrics.get("picp")
    if isinstance(picp, (int, float)) and not 0.0 <= picp <= 1.0:
        problems.append(f"picp {picp} outside [0, 1]")
    ll = metrics.get("avg_marginal_ll")
    if band is not None and isinstance(ll, (int, float)) and not band[0] <= ll <= band[1]:
        problems.append(f"test avg_marginal_ll {ll} outside reference band {list(band)}")
    return ll, problems
