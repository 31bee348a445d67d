import importlib
import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

import numpy as np
import pytest
from hypothesis import settings

from bnnlv.exceptions import DivergenceError

# property tests draw the same examples on every run, so the suite stays
# deterministic and writes no example database
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def diverging_restart(monkeypatch):
    """Make restart ``index`` of a ``restarts``-restart run at ``seed`` diverge
    at epoch 2, wherever it runs, with a history and diagnostics to compare."""
    train_mod = importlib.import_module("bnnlv.train")  # the package's ``train`` shadows it
    real_train = train_mod.train

    def patch(index, restarts, seed):
        child = np.random.SeedSequence(seed).spawn(restarts)[index]
        diverging = int(child.generate_state(1)[0])

        def train_diverging(*args):
            if args[-1] == diverging:
                raise DivergenceError("non-finite gradient in block mu_z at epoch 2",
                                      history=[3.0, 2.0],
                                      diagnostics={"block": "mu_z", "epoch": 2})
            return real_train(*args)

        monkeypatch.setattr(train_mod, "train", train_diverging)

    return patch
