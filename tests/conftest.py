import shutil
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# Property tests draw the same examples on every run, have no per-example
# deadline (a slow host must not turn a passing example into a failure), and
# keep no example database.
settings.register_profile("choimaps", derandomize=True, deadline=None, database=None)
settings.load_profile("choimaps")

# Hypothesis also caches the constants it reads from local source files, from
# collection on; keep that cache in a temporary directory, not in the checkout.
_HYPOTHESIS_HOME = tempfile.mkdtemp(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME)


def pytest_unconfigure(config):
    shutil.rmtree(_HYPOTHESIS_HOME, ignore_errors=True)
