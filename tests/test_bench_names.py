"""The benchmark reaches into finbeam by module, name and signature: the
tracer patches functions in place, and the workloads' output check calls
``finbeam.solver.residual``. A refactor that moves, renames or re-signs one
of them breaks ``bench/run.py`` without failing any other test."""

import importlib.util
import math
import sys
from pathlib import Path

import finbeam.cli
import finbeam.solver
from finbeam import (FinRayParams, SolverConfig, generate,
                     load_at_contact_node)

BENCH = Path(__file__).resolve().parents[1] / "bench"
CRITERION_6_DIRECTION = (math.cos(math.radians(40.0)),
                         -math.sin(math.radians(40.0)))


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


def test_traced_solve_and_probe_count_every_kernel_call():
    # every state of a path, the unloaded one included, is evaluated
    # through finbeam.solver's names, so the tracer sees one assembly per
    # factorization and one geometry per element-state update; the solve
    # and the probe are called through the modules the tracer patches
    tracer = _load("tracer")
    model = generate(FinRayParams())
    case = load_at_contact_node(model, 2, 0.5)
    pattern = load_at_contact_node(model, 2, 1.0,
                                   direction=CRITERION_6_DIRECTION).f_total
    config = SolverConfig(n_inc=10)
    traced = tracer.Tracer()
    with traced.installed():
        result = finbeam.solver.solve(model.structure, case, config)
        force = finbeam.cli.probe_max_force(
            model.structure, pattern, config=config, f_lo=0.05, f_hi=4.0,
            resolution=0.05)
    counts = traced.counts()
    assert counts["solver.solve"] == counts[tracer.PROBE] == 1
    assert (counts["assembly.assemble_tangent"]
            == counts["assembly.solve_linear"] > 0)
    assert (counts["assembly.update_member_data"]
            == counts["corotational.current_geometry"] > 0)
    assert result.completed and traced.diverged_solves == 0
    assert traced.increments == len(result.increments) == 10
    assert traced.newton_iters == sum(r.iterations
                                      for r in result.increments) > 0
    assert 0.05 < force < 4.0
    assert traced.probe_needed == max(10, math.ceil(force / 0.05))
