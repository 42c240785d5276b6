import contextlib
import io
import warnings
from pathlib import Path

import hypothesis
import pytest

import orthopet.cli as cli
from orthopet.projection import EmptyBasisWarning

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


@pytest.fixture(scope="session")
def ablation_report(tmp_path_factory):
    """The `ablation.jsonl` of one real `orthopet ablate` run of criterion
    7's grid, epsilon 0.6, 0.15 and 1e-4 on `configs/ablation_lora.json`,
    which criterion 7 and the golden hash share."""
    out = tmp_path_factory.mktemp("ablation")
    config = Path(__file__).resolve().parent.parent / "configs" / "ablation_lora.json"
    with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptyBasisWarning)
        code = cli.main(["ablate", "--config", str(config), "--sweep", "epsilon=0.6,0.15,0.0001",
                         "--out", str(out)])
    assert code == 0
    return out / "ablation.jsonl"
