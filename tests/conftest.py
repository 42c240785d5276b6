import contextlib
import io

import hypothesis
import pytest

import orthopet.cli as cli

hypothesis.settings.register_profile(
    "lab",
    derandomize=True,
    deadline=None,
    max_examples=60,
)
hypothesis.settings.load_profile("lab")


@pytest.fixture(scope="session")
def verify_stdout():
    """The exit code and stdout of one real `orthopet verify` run, which the
    tests that read it share."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify"])
    return code, out.getvalue()
