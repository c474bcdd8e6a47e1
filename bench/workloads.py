"""Seeded inputs, set-up and output checks for the three benchmark workloads.

The seed fixes every input the program receives: the load magnitudes and
the order of the forward solves, and the magnitudes in the sweep file.
finbeam itself only ever sees the generated models, load cases and files.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

import numpy as np

import finbeam.assembly
import finbeam.finray
import finbeam.solver
from finbeam import FinRayParams, SolverConfig, load_at_contact_node

FORWARD = ("study_solves", "fine_mesh")
SWEEP = "probe_sweep"
WORKLOADS = FORWARD + (SWEEP,)

# The eight design-study fingers of acceptance criterion 7.
STUDY_FINGERS = (
    ("n_crossbeams=2", {"n_crossbeams": 2}),
    ("default", {}),
    ("n_crossbeams=4", {"n_crossbeams": 4}),
    ("top_angle=30", {"top_angle": 30.0}),
    ("top_angle=40", {"top_angle": 40.0}),
    ("inclination=-10", {"inclination": -10.0}),
    ("inclination=+10", {"inclination": 10.0}),
    ("connection=simple", {"connection": "simple"}),
)
REFINEMENT = {"study_solves": 4, "fine_mesh": 12}
LOAD_NODE_RANK = 2
# The two-crossbeam finger reaches its limit point just above 0.59 N at
# refinement 12, where force-controlled Newton fails for some magnitudes, so
# its draws stop at 0.55 N on both forward workloads.
MAGNITUDE_RANGE = {2: (0.1, 0.55)}
DEFAULT_MAGNITUDE_RANGE = (0.1, 0.8)
SOLVER = SolverConfig(n_inc=10)
# Magnitudes follow an additive golden-ratio sequence from a seeded start,
# so any prefix of the request stream covers each finger's range evenly and
# the mix of cheap and near-collapse solves barely varies between seeds.
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Criterion 6 loading: inward normal rotated 40 degrees toward the base.
SWEEP_DIRECTION = (math.cos(math.radians(40.0)), -math.sin(math.radians(40.0)))
SWEEP_VALUES = (2, 3, 4)
SWEEP_MAGNITUDE_RANGE = (0.1, 0.6)
SWEEP_MAGNITUDES = 3
# Criterion 6 reference collapse loads (N) and the allowed relative error.
SWEEP_REFERENCE_FORCE = {2: 0.8, 3: 1.2, 4: 1.9}
SWEEP_FORCE_TOLERANCE = 0.25


@dataclass(frozen=True)
class Request:
    """One forward solve: which finger, at which load magnitude."""

    finger: int
    magnitude: float

    def to_dict(self) -> dict:
        return {"finger": STUDY_FINGERS[self.finger][0],
                "magnitude_n": self.magnitude}


def forward_requests(seed: int):
    """Endless seeded request stream: rounds that visit every finger once."""
    rng = random.Random(seed)
    offsets = [rng.random() for _ in STUDY_FINGERS]
    round_index = 0
    while True:
        order = list(range(len(STUDY_FINGERS)))
        rng.shuffle(order)
        for finger in order:
            lo, hi = magnitude_range(finger)
            fraction = (offsets[finger] + round_index * GOLDEN) % 1.0
            yield Request(finger, lo + (hi - lo) * fraction)
        round_index += 1


def magnitude_range(finger: int) -> tuple[float, float]:
    crossbeams = STUDY_FINGERS[finger][1].get("n_crossbeams", 3)
    return MAGNITUDE_RANGE.get(crossbeams, DEFAULT_MAGNITUDE_RANGE)


def sweep_document(seed: int) -> dict:
    """Sweep file for the probe workload: distinct ascending seeded
    magnitudes."""
    rng = random.Random(seed)
    lo, hi = SWEEP_MAGNITUDE_RANGE
    magnitudes: list[float] = []
    while len(set(magnitudes)) < SWEEP_MAGNITUDES:
        magnitudes = sorted(rng.uniform(lo, hi)
                            for _ in range(SWEEP_MAGNITUDES))
    return {
        "axis": "n_crossbeams",
        "values": list(SWEEP_VALUES),
        "load_node_rank": LOAD_NODE_RANK,
        "load_magnitudes": magnitudes,
        "load_direction": list(SWEEP_DIRECTION),
        "solver": {"n_inc": SOLVER.n_inc},
    }


def finger_params(workload: str) -> list[FinRayParams]:
    if workload == SWEEP:
        return [FinRayParams(n_crossbeams=v) for v in SWEEP_VALUES]
    return [replace(FinRayParams(**kw), refinement=REFINEMENT[workload])
            for _, kw in STUDY_FINGERS]


def generate_models(workload: str) -> list:
    # Looked up at call time so that a traced pass sees the wrapped function.
    return [finbeam.finray.generate(p) for p in finger_params(workload)]


def setup(workload: str, seed: int) -> dict:
    """Everything a run does before its first timed request.

    Forward workloads also take one untimed solve of the first finger, so
    that BLAS and scipy finish their lazy start-up before timing begins.
    """
    models = generate_models(workload)
    state = {"models": models,
             "dof": [m.structure.n_dof for m in models]}
    if workload == SWEEP:
        state["sweep"] = sweep_document(seed)
    else:
        lo, _ = magnitude_range(0)
        finbeam.solver.solve(models[0].structure,
                             load_at_contact_node(models[0], LOAD_NODE_RANK, lo),
                             SOLVER)
    return state


def run_forward(models: list, request: Request):
    """Issue one forward solve; returns (load case, result)."""
    model = models[request.finger]
    case = load_at_contact_node(model, LOAD_NODE_RANK, request.magnitude)
    return case, finbeam.solver.solve(model.structure, case, SOLVER)


def check_forward(structure, case, result) -> bool:
    """A completed, finite solve whose recomputed free-DOF residual is
    within the solve's tolerance."""
    if not result.completed:
        return False
    u = result.final_displacement
    if not np.all(np.isfinite(u)):
        return False
    _, f_int = finbeam.assembly.update_member_data(structure, u)
    _, r_norm = finbeam.solver.residual(f_int, case.f_total,
                                        structure.supports)
    return math.isfinite(r_norm) and r_norm <= SOLVER.tolerance


def check_sweep(exit_code: int, summary: dict | None, csv_rows: int) -> bool:
    """Exit 0, one CSV row per variant, magnitude and contact node, and
    maximum allowable forces ascending and within the criterion 6 bands."""
    if exit_code != 0 or summary is None:
        return False
    # a finger with k crossbeams has k + 1 contact nodes
    expected_rows = sum(SWEEP_MAGNITUDES * (v + 1) for v in SWEEP_VALUES)
    if csv_rows != expected_rows:
        return False
    forces = {v.get("value"): v.get("max_allowable_force")
              for v in summary.get("variants", [])}
    if sorted(forces) != list(SWEEP_VALUES):
        return False
    values = [forces[v] for v in SWEEP_VALUES]
    if any(f is None or not math.isfinite(f) for f in values):
        return False
    if not all(a < b for a, b in zip(values, values[1:])):
        return False
    return all(abs(forces[v] - ref) <= SWEEP_FORCE_TOLERANCE * ref
               for v, ref in SWEEP_REFERENCE_FORCE.items())
