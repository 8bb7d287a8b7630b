import time
import warnings

import pytest

from suite_builder import build_suite

# hypothesis imports its failure-patch printer (which needs libcst) only
# when a test fails, and on the way a dependency warns DeprecationWarning;
# under the suite's error::DeprecationWarning that warning would abort the
# whole session as an INTERNALERROR instead of reporting the failure.
# Importing the module here, with that warning ignored for this import
# only, keeps every other DeprecationWarning an error.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


@pytest.fixture(scope="session")
def suite():
    """The shared randomized run family, with its wall-clock build time."""
    t0 = time.monotonic()
    runs = build_suite()
    elapsed = time.monotonic() - t0
    return {"runs": runs, "elapsed": elapsed}
