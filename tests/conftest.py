"""Settings shared by the whole test suite."""

import shutil
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# Every run draws the same examples, no example takes a deadline on a
# loaded host, and no example database is written.
settings.register_profile("circjoin", derandomize=True, deadline=None, database=None)
settings.load_profile("circjoin")


def pytest_configure(config):
    # Hypothesis also caches the constants it reads from source files in
    # its home directory, at collection; keep that out of the working tree.
    home = tempfile.mkdtemp(prefix="circjoin-hypothesis-")
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))
    set_hypothesis_home_dir(home)
