"""The benchmark reaches into finbeam by module, name and signature: the
tracer patches functions in place, and the workloads' output check calls
``finbeam.solver.residual``. A refactor that moves, renames or re-signs one
of them breaks ``bench/run.py`` without failing any other test."""

import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    tracer = _load("tracer")
    targets = tracer.TIMED + tracer.COUNTED
    assert targets
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in targets
               if not callable(getattr(module, attr, None))]
    assert missing == []


def test_forward_check_accepts_a_solved_study_finger():
    workloads = _load("workloads")
    models = workloads.generate_models("study_solves")
    request = workloads.Request(1, 0.5)   # the default finger
    case, result = workloads.run_forward(models, request)
    assert workloads.check_forward(models[1].structure, case, result)
