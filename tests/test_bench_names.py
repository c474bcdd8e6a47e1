"""The benchmark tracer patches finbeam functions by module and name; a
refactor that moves or renames one breaks ``bench/run.py --trace 1`` and
``--self-test`` without failing any other test."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = tracer.TIMED + tracer.COUNTED
    assert targets
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in targets
               if not callable(getattr(module, attr, None))]
    assert missing == []
