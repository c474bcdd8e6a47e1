"""finbeam: geometrically nonlinear 2D frame analysis for Fin-Ray fingers.

Co-rotational beam elements, a path-following Newton-Raphson
force-displacement solver, a parametric Fin-Ray finger generator and a
design-sweep command line front end.

Typical use::

    from finbeam import FinRayParams, SolverConfig, generate
    from finbeam import load_at_contact_node, solve

    model = generate(FinRayParams(n_crossbeams=4))
    case = load_at_contact_node(model, node_rank=2, magnitude=0.8)
    result = solve(model.structure, case, SolverConfig(n_inc=10))
    print(result.final_displacement)
"""

from .model import (
    COMPONENTS,
    KIND_BEAM,
    KIND_PIN,
    DanglingElement,
    Disconnected,
    DuplicateNode,
    Element,
    ElementProps,
    FreeBand,
    LoadCase,
    ModelError,
    Node,
    Structure,
    SupportSet,
    UnconstrainedStructure,
    UnknownNode,
    build_structure,
    load_case,
    make_load_case,
    structure_from_dict,
    structure_to_dict,
)
from .assembly import (
    DegenerateElement,
    SingularMatrix,
    apply_supports,
    assemble_tangent,
    solve_linear,
    update_member_data,
)
from .solver import (
    BracketInvalid,
    IncrementRecord,
    SolveResult,
    SolverConfig,
    path_is_stable,
    probe_max_force,
    residual,
    solve,
    trace_loads,
)
from .finray import (
    CONNECTION_RIGID,
    CONNECTION_SIMPLE,
    FinRayModel,
    FinRayParams,
    GeometryInfeasible,
    UnknownContactNode,
    generate,
    load_at_contact_node,
    model_to_dict,
    params_from_dict,
)

__version__ = "0.1.0"

__all__ = [
    # model
    "Node", "ElementProps", "Element", "SupportSet", "FreeBand", "Structure",
    "LoadCase",
    "build_structure", "load_case", "make_load_case",
    "structure_to_dict", "structure_from_dict",
    "COMPONENTS", "KIND_BEAM", "KIND_PIN",
    "ModelError", "DuplicateNode", "DanglingElement", "Disconnected",
    "UnconstrainedStructure", "UnknownNode",
    # assembly
    "update_member_data", "assemble_tangent", "apply_supports",
    "solve_linear", "SingularMatrix", "DegenerateElement",
    # solver
    "SolverConfig", "IncrementRecord", "SolveResult", "residual", "solve",
    "probe_max_force", "path_is_stable", "BracketInvalid", "trace_loads",
    # finray
    "FinRayParams", "FinRayModel", "generate", "load_at_contact_node",
    "params_from_dict", "model_to_dict",
    "CONNECTION_SIMPLE", "CONNECTION_RIGID",
    "GeometryInfeasible", "UnknownContactNode",
]
