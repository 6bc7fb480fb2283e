"""Session setup shared by the test modules."""

import shutil
import tempfile

from hypothesis.configuration import set_hypothesis_home_dir

_hypothesis_home = None


def pytest_configure(config):
    # database=None keeps no examples, but hypothesis still caches source
    # constants under .hypothesis/ while collecting; keep them in a
    # temporary directory instead of the working tree
    global _hypothesis_home
    _hypothesis_home = tempfile.mkdtemp(prefix="linhyp-hypothesis-")
    set_hypothesis_home_dir(_hypothesis_home)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    if _hypothesis_home is not None:
        shutil.rmtree(_hypothesis_home, ignore_errors=True)
