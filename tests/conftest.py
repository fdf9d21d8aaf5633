"""Keep hypothesis's storage out of the checkout.

Besides its example database, hypothesis caches the constants it collects
from source files, and its pytest plugin does so while collecting, before
any fixture runs. Pointing its home at a temporary directory here keeps
the rule that tests write only to temporary directories.
"""

import tempfile

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

_HOME = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    home = config.stash[_HOME] = tempfile.TemporaryDirectory(prefix="hypothesis-")
    set_hypothesis_home_dir(home.name)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    config.stash[_HOME].cleanup()
