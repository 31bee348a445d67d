"""What importing the package, and a command that needs neither, loads.

Every ``bnnlv`` command pays for the modules the package imports at start-up.
scipy and jsonschema are the two slowest of them, and no command needs them
at import time: ``softplus``'s gradient is numpy's, the k-NN estimators
import scipy when they run, and a schema check imports jsonschema where it
runs. Training a network without latent inputs needs no scipy at all. A
fresh interpreter checks the module table, so the tests do not depend on
timing.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# print the sorted module table of this interpreter as JSON, as its last line
_REPORT = "import json, sys\nprint(json.dumps(sorted(sys.modules)))\n"


def _modules_loaded(code):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code + _REPORT], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert "numpy" in loaded  # the probe sees the modules the package loads
    return loaded


def _slow_modules(loaded):
    return [m for m in loaded if m.split(".")[0] in ("scipy", "jsonschema")]


def test_package_import_loads_neither_scipy_stats_nor_spatial():
    loaded = _modules_loaded("import bnnlv, bnnlv.cli\n")
    assert [m for m in loaded if m.split(".")[:2] in (["scipy", "stats"],
                                                       ["scipy", "spatial"])] == []


def test_package_import_loads_neither_scipy_nor_jsonschema():
    assert _slow_modules(_modules_loaded("import bnnlv, bnnlv.cli\n")) == []


def test_package_import_loads_no_process_pool():
    # fork_map imports these where it forks, so start-up does not pay for them
    loaded = _modules_loaded("import bnnlv, bnnlv.cli\n")
    assert [m for m in loaded if m.split(".")[0] == "multiprocessing"
            or m.startswith("concurrent.futures")] == []


def test_gen_data_loads_neither_scipy_nor_jsonschema(tmp_path):
    code = (
        "from bnnlv.cli import main\n"
        f"assert main(['gen-data', '--name', 'depeweg', '--sizes', '20,5,5', "
        f"'--out', {str(tmp_path / 'data')!r}]) == 0\n"
    )
    assert _slow_modules(_modules_loaded(code)) == []
    assert (tmp_path / "data" / "train.csv").is_file()


def test_training_without_latents_loads_no_scipy(tmp_path):
    data = tmp_path / "data"
    cfg = tmp_path / "bnn.cfg"
    cfg.write_text("method = BNN\nhidden = [5]\nepochs = 5\nrestarts = 1\n"
                   + "".join(f"{w}_csv = {data / (w + '.csv')}\n" for w in ("train", "val", "test")))
    code = (
        "from bnnlv.cli import main\n"
        f"assert main(['gen-data', '--name', 'depeweg', '--sizes', '20,5,5', "
        f"'--out', {str(data)!r}]) == 0\n"
        f"assert main(['train', '--config', {str(cfg)!r}, '--seed', '0', "
        f"'--out', {str(tmp_path / 'run')!r}]) == 0\n"
    )
    assert [m for m in _modules_loaded(code) if m.split(".")[0] == "scipy"] == []
    assert (tmp_path / "run" / "model.json").is_file()
