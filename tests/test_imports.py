"""What importing the package loads.

Every ``bnnlv`` command pays for the modules the package imports at start-up.
``scipy.stats`` and ``scipy.spatial`` were the two slowest of them, and no
command needs them at import time: the KS statistic is computed in numpy, and
only the k-NN estimators load ``scipy.spatial``, when they run. A fresh
interpreter checks the module table, so the test does not depend on timing.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_package_import_loads_neither_scipy_stats_nor_spatial():
    code = (
        "import json, sys\n"
        "import bnnlv, bnnlv.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy.'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    loaded = json.loads(proc.stdout)
    assert "scipy.special" in loaded  # the probe sees scipy modules at all
    assert [m for m in loaded if m.split(".")[1] in ("stats", "spatial")] == []
