"""The benchmark's tracer (`bench/run.py --trace 1`) wraps package
functions by module and attribute name; a refactor that renames one of
them must fail here, not in a traced run."""

import importlib
import runpy
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.mark.skipif(not TRACER.exists(), reason="bench/tracer.py is absent")
def test_every_traced_name_resolves():
    # run_path compiles the source without importing the bench directory
    tracer = runpy.run_path(str(TRACER))
    targets = [(mod, attr) for mod, attr, _ in tracer["TIMED"]] + list(tracer["COUNTED"])
    assert targets
    missing = []
    for mod, attr in targets:
        module = importlib.import_module(f"proofnets.{mod}")
        owner, _, name = attr.rpartition(".")
        scope = vars(getattr(module, owner)) if owner else vars(module)
        if not callable(scope.get(name)):
            missing.append(f"{mod}.{attr}")
    assert not missing, missing
