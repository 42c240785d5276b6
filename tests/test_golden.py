"""The shipped outputs, bit for bit: the sha256 of both shipped configs'
`report.jsonl` and checkpoints, of criterion 7's `ablation.jsonl` and of
`orthopet verify` stdout, against `golden_sha256.json`.

The bits depend on numpy's dispatch, so the golden values are keyed by a
dispatch signature: numpy's version, its BLAS and the SIMD extensions it
found on this CPU.  On a signature with no golden values the tests skip,
naming the signature; they never pass without comparing.  A changed golden
value is a test change, to be stated with its old value and the reason.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import orthopet.cli as cli

HERE = Path(__file__).resolve().parent
GOLDEN = json.loads((HERE / "golden_sha256.json").read_text())


def dispatch_signature() -> str:
    config = np.show_config(mode="dicts")
    return " | ".join([np.__version__, config["Build Dependencies"]["blas"]["name"],
                       " ".join(config["SIMD Extensions"]["found"])])


def _golden(key):
    signature = dispatch_signature()
    if signature not in GOLDEN:
        pytest.skip(f"no golden sha256 for dispatch signature {signature!r}")
    return GOLDEN[signature][key]


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.filterwarnings("ignore::orthopet.projection.EmptyBasisWarning")
@pytest.mark.parametrize("config", ["cil_prompt.json", "oil_lora.json"])
def test_shipped_train_outputs_match_golden(config, tmp_path):
    want = _golden(config)
    assert cli.main(["train", "--config", str(HERE.parent / "configs" / config),
                     "--out", str(tmp_path)]) == 0
    files = [tmp_path / "report.jsonl", *sorted((tmp_path / "checkpoints").glob("*.npz"))]
    assert {str(f.relative_to(tmp_path)): _sha256(f) for f in files} == want


def test_verify_stdout_matches_golden(verify_stdout):
    assert hashlib.sha256(verify_stdout[1].encode()).hexdigest() == _golden("verify")


def test_criterion_7_ablation_matches_golden(ablation_report):
    assert _sha256(ablation_report) == _golden("ablation.jsonl")
