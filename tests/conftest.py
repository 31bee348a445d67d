import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

from hypothesis import settings

# property tests draw the same examples on every run, so the suite stays
# deterministic and writes no example database
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
