"""The traced benchmark run (`perfbench/run.py --trace 1`) swaps bnnlv
functions for wrappers by looking them up by name. A rename or a deleted
import in the package would break that run without failing any other test,
so every name it patches is checked here, against the tracer's own table."""
import importlib.util
from pathlib import Path

from bnnlv.vi import MeanFieldPosterior

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_resolves():
    tracing = _load_tracing()
    missing = [
        f"{mod_name}.{attr}"
        for mod_name, attr, _ in tracing.PATCHES
        if not callable(getattr(tracing._module(mod_name), attr, None))
    ]
    assert missing == []
    assert callable(MeanFieldPosterior.draw_function)
