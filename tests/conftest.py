import contextlib
import io
import warnings
from pathlib import Path

import hypothesis
import pytest

import orthopet.cli as cli
from orthopet import workers
from orthopet.projection import EmptyBasisWarning

hypothesis.settings.register_profile(
    "lab",
    derandomize=True,
    deadline=None,
    max_examples=60,
)
hypothesis.settings.load_profile("lab")

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="session")
def verify_stdout():
    """The exit code and stdout of one real `orthopet verify` run, which the
    tests that read it share."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify"])
    return code, out.getvalue()


def _train(config, out) -> int:
    """`orthopet train --config <config> --out <out>` of a shipped config,
    its stdout and `EmptyBasisWarning`s dropped."""
    with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptyBasisWarning)
        return cli.main(["train", "--config", str(CONFIGS / config), "--out", str(out)])


class ShippedRuns:
    """One real `orthopet train` of each shipped config per session, which
    the golden hashes and criteria 5 and 6 share.

    `start(config, run)` deals the train to a `workers.pool`'s `run`, where
    it rebuilds inline, so that it trains beside other jobs of that pool,
    and returns a `wait()` that gives its out directory.  Calling with a
    config trains it here and gives the out directory.  Either way a config
    trains at most once."""

    def __init__(self, tmp_path_factory):
        self.tmp_path_factory = tmp_path_factory
        self.outs = {}

    def start(self, config, run=workers.inline):
        if config not in self.outs:
            out = self.tmp_path_factory.mktemp(config.removesuffix(".json"))
            wait = run.start(_train, [config], [out])

            def done():
                assert wait() == [0]
                self.outs[config] = lambda: out
                return out

            self.outs[config] = done
        return self.outs[config]

    def __call__(self, config):
        return self.start(config)()


@pytest.fixture(scope="session")
def shipped_run(tmp_path_factory):
    return ShippedRuns(tmp_path_factory)


@pytest.fixture(scope="session")
def ablation_report(tmp_path_factory):
    """The `ablation.jsonl` of one real `orthopet ablate` run of criterion
    7's grid, epsilon 0.6, 0.15 and 1e-4 on `configs/ablation_lora.json`,
    which criterion 7 and the golden hash share."""
    out = tmp_path_factory.mktemp("ablation")
    config = CONFIGS / "ablation_lora.json"
    with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptyBasisWarning)
        code = cli.main(["ablate", "--config", str(config), "--sweep", "epsilon=0.6,0.15,0.0001",
                         "--out", str(out)])
    assert code == 0
    return out / "ablation.jsonl"
