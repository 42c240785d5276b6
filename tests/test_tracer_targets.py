"""Every function the perfbench span tracer wraps still exists.

`perfbench/tracer.py` names its targets as (module, attribute) strings, so a
refactor that renames or removes one of them breaks only a traced benchmark
run.  This loads the tracer by path, without importing it as a package, and
resolves each target the way `Tracer.install` does.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in tracer.TARGETS])
def test_tracer_target_resolves(module, attr):
    owner, name = tracer.resolve(module, attr)
    assert callable(getattr(owner, name, None)), f"{module}.{attr} is gone"
