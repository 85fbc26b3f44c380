"""Test session setup: the deterministic hypothesis profile and the ``rng``
fixture. Shared helpers live in ``oracles.py``."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import settings

# Property tests draw the same examples on every run and keep no example
# database, so tier-1 stays deterministic. Hypothesis still caches the
# constants it mines from source files; that cache goes to the temp dir, so
# the tests write no .hypothesis/ into the working tree.
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      os.path.join(tempfile.gettempdir(), "prunecast-hypothesis"))
settings.register_profile("prunecast", derandomize=True, database=None,
                          deadline=None, max_examples=150)
settings.load_profile("prunecast")


@pytest.fixture
def rng():
    return np.random.default_rng(0)
