"""One hypothesis profile, and hypothesis's storage kept out of the checkout.

Every property test runs derandomized, without a deadline and without an
example database; a test sets only its `max_examples`.

Hypothesis also caches the constants it collects from source files, and
its pytest plugin does so while collecting, before any fixture runs. Pointing its home at a temporary directory here keeps
the rule that tests write only to temporary directories.
"""

import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("cftseg", derandomize=True, deadline=None, database=None)
settings.load_profile("cftseg")

_HOME = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    home = config.stash[_HOME] = tempfile.TemporaryDirectory(prefix="hypothesis-")
    set_hypothesis_home_dir(home.name)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    config.stash[_HOME].cleanup()
