import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finbeam.solver
from finbeam import (
    KIND_BEAM,
    BracketInvalid,
    ElementProps,
    FinRayParams,
    LoadCase,
    ModelError,
    SolverConfig,
    SupportSet,
    build_structure,
    generate,
    load_at_contact_node,
    load_case,
    make_load_case,
    path_is_stable,
    probe_max_force,
    residual,
    solve,
    update_member_data,
)
from conftest import AREA, E_MOD, FINGER_HEIGHT, INERTIA

from oracles import elastica_cantilever_tip
from strategies import small_frames

FIXED = (True, True, True)
# Design-study loading: inward normal rotated 40 degrees to the base.
STUDY_DIRECTION = (math.cos(math.radians(40.0)),
                   -math.sin(math.radians(40.0)))


class TestResidual:
    def test_balanced(self):
        r, norm = residual(np.ones(6), np.ones(6), SupportSet({0: FIXED}))
        assert np.array_equal(r, np.zeros(6))
        assert norm == 0.0

    def test_reactions_excluded(self):
        f_int = np.zeros(6)
        f_int[0] = 99.0   # support reaction only
        r, norm = residual(f_int, np.zeros(6), SupportSet({0: FIXED}))
        assert norm == 0.0
        assert r[0] == 0.0

    def test_euclidean_norm(self):
        f_int = np.zeros(6)
        f_int[3] = 3.0
        f_int[4] = 4.0
        _, norm = residual(f_int, np.zeros(6), SupportSet({0: FIXED}))
        assert norm == pytest.approx(5.0)


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.tolerance == 1e-3
        assert cfg.maxiter == 100

    @pytest.mark.parametrize("kwargs", [
        {"n_inc": 0}, {"tolerance": 0.0}, {"tolerance": math.nan},
        {"tolerance": math.inf}, {"maxiter": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


def test_zero_load_gives_zero_history(make_cantilever):
    s = make_cantilever(4)
    result = solve(s, load_case(s, {}), SolverConfig(n_inc=3))
    assert result.completed
    assert len(result.increments) == 3
    for rec in result.increments:
        assert np.array_equal(rec.displacement, np.zeros(s.n_dof))
        assert rec.iterations == 0


def test_axial_bar_matches_closed_form(make_cantilever):
    length = 0.072
    s = make_cantilever(8, length=length)
    load = 0.4   # strain 1e-4 scale: F/EA = 1e-4
    case = load_case(s, {8: (load, 0.0, 0.0)})
    result = solve(s, case, SolverConfig(n_inc=4))
    tip_u = result.final_displacement[s.dof_index(8, "u")]
    assert tip_u == pytest.approx(load * length / (E_MOD * AREA), rel=1e-3)


def test_cantilever_large_deflection_matches_elastica(make_cantilever):
    length = 0.072
    s = make_cantilever(16, length=length)
    alpha = 2.0
    load = alpha * E_MOD * INERTIA / length**2
    case = load_case(s, {16: (0.0, load, 0.0)})
    result = solve(s, case, SolverConfig(n_inc=10, tolerance=1e-8))
    assert result.completed
    tip = result.final_displacement[48:50]
    x_ref, y_ref = elastica_cantilever_tip(alpha)
    assert tip[0] == pytest.approx((x_ref - 1.0) * length, rel=0.01)
    assert tip[1] == pytest.approx(y_ref * length, rel=0.01)


def test_step_size_independence(make_cantilever):
    s = make_cantilever(8)
    load = 2.0 * E_MOD * INERTIA / 0.072**2
    case = load_case(s, {8: (0.0, load, 0.0)})
    d10 = solve(s, case, SolverConfig(n_inc=10, tolerance=1e-8))
    d40 = solve(s, case, SolverConfig(n_inc=40, tolerance=1e-8))
    diff = np.linalg.norm(d10.final_displacement - d40.final_displacement)
    assert diff <= 1e-3 * np.linalg.norm(d40.final_displacement)


def test_equilibrium_and_load_bookkeeping(make_cantilever):
    s = make_cantilever(8)
    load = 1.5 * E_MOD * INERTIA / 0.072**2
    case = load_case(s, {8: (0.0, load, 0.0)})
    cfg = SolverConfig(n_inc=5)
    result = solve(s, case, cfg)
    free = np.setdiff1d(np.arange(s.n_dof), s.supports.dofs)
    for rec in result.increments:
        assert rec.residual_norm <= cfg.tolerance
        # internal forces balance the load fraction n/n_inc at free DOFs
        _, f_int = update_member_data(s, rec.displacement)
        f_n = (rec.n / cfg.n_inc) * case.f_total
        assert np.linalg.norm((f_int - f_n)[free]) <= cfg.tolerance


def test_determinism(make_cantilever):
    s = make_cantilever(8)
    load = 2.0 * E_MOD * INERTIA / 0.072**2
    case = load_case(s, {8: (0.0, load, 0.0)})
    a = solve(s, case, SolverConfig(n_inc=10))
    b = solve(s, case, SolverConfig(n_inc=10))
    assert len(a.increments) == len(b.increments)
    for ra, rb in zip(a.increments, b.increments):
        assert np.array_equal(ra.displacement, rb.displacement)
        assert ra.iterations == rb.iterations
        assert ra.residual_norm == rb.residual_norm


def von_mises_truss(half_span=0.1, rise=0.02):
    """Two shallow pin-ended bars meeting at a loaded apex.

    The classic snap-through problem: the apex load has a limit point
    with a closed-form force-displacement relation, used as the oracle.
    """
    pin = ElementProps(E_MOD, AREA, INERTIA, "pin-ended")
    nodes = [(0, 0.0, 0.0), (1, half_span, rise), (2, 2 * half_span, 0.0)]
    elements = [(0, 1, pin), (1, 2, pin)]
    # the apex rotation has no stiffness with two pin bars; fix it
    supports = {0: FIXED, 2: FIXED, 1: (False, False, True)}
    return build_structure(nodes, elements, supports)


def von_mises_limit_load(half_span=0.1, rise=0.02):
    """Maximum of the exact apex force-deflection curve."""
    l0 = math.hypot(half_span, rise)

    def apex_force(w):
        current = math.hypot(half_span, rise - w)
        axial = E_MOD * AREA * (current - l0) / l0
        return -2.0 * axial * (rise - w) / current

    ws = np.linspace(1e-6, rise, 20001)
    return max(apex_force(w) for w in ws)


def test_snap_through_limit_point_detected():
    s = von_mises_truss()
    limit = von_mises_limit_load()
    below = make_load_case(s, _apex_load(s, 0.8 * limit))
    above = make_load_case(s, _apex_load(s, 1.05 * limit))
    assert solve(s, below, SolverConfig(n_inc=20)).completed
    result = solve(s, above, SolverConfig(n_inc=100))
    # force control cannot pass the limit point smoothly; the solve's
    # stability audit ends the path at the snap
    assert (not result.completed) or not path_is_stable(result)
    assert result.cause == "snap"


def test_probe_matches_von_mises_limit():
    s = von_mises_truss()
    limit = von_mises_limit_load()
    pattern = _apex_load(s, 1.0)
    cfg = SolverConfig(n_inc=10)
    resolution = 0.002
    found = probe_max_force(s, pattern, cfg, 0.1 * limit, 2.0 * limit,
                            resolution)
    assert found == pytest.approx(limit, abs=3 * resolution)
    # determinism
    again = probe_max_force(s, pattern, cfg, 0.1 * limit, 2.0 * limit,
                            resolution)
    assert found == again


@pytest.mark.parametrize("bracket", [
    (math.nan, 0.5, 0.01), (0.01, math.inf, 0.01), (0.01, 0.5, math.nan),
    (-math.inf, 0.5, 0.01), (0.01, 0.5, math.inf),
])
def test_probe_rejects_non_finite_bracket(make_cantilever, bracket):
    s = make_cantilever(4)
    pattern = np.zeros(s.n_dof)
    pattern[s.dof_index(4, "w")] = 1.0
    with pytest.raises(ValueError, match="finite") as excinfo:
        probe_max_force(s, pattern, SolverConfig(n_inc=5), *bracket)
    # a sweep logs BracketInvalid and goes on; invalid input must stop it
    assert not isinstance(excinfo.value, BracketInvalid)


def test_probe_bracket_invalid_when_structure_holds(make_cantilever):
    s = make_cantilever(4)
    pattern = np.zeros(s.n_dof)
    pattern[s.dof_index(4, "u")] = 1.0   # axial load never collapses a bar
    with pytest.raises(BracketInvalid):
        probe_max_force(s, pattern, SolverConfig(n_inc=5), 0.01, 0.5, 0.01)


def test_divergence_returns_partial_history():
    s = von_mises_truss()
    limit = von_mises_limit_load()
    case = make_load_case(s, _apex_load(s, 3.0 * limit))
    result = solve(s, case, SolverConfig(n_inc=30, maxiter=20))
    assert not result.completed
    assert result.status == "diverged"
    assert result.diverged_at is not None
    assert len(result.increments) == result.diverged_at - 1


def test_hand_built_load_on_fixed_dof_rejected():
    # make_load_case rejects this vector; built by hand, it used to pass
    # solve's shape check, and the zero-and-one elimination turned the
    # force on the clamped root into a 0.1 m prescribed displacement
    model = generate(FinRayParams())
    s = model.structure
    f = load_at_contact_node(model, 1, 0.1).f_total.copy()
    f[s.dof_index(0, "u")] = 0.1
    with pytest.raises(ModelError):
        solve(s, LoadCase(f), SolverConfig())


def test_mechanism_diverges_as_singular_matrix():
    # a pin-ended bar has no transverse or rotational stiffness at its
    # free end, so the very first predictor meets a singular tangent
    pin = ElementProps(E_MOD, AREA, INERTIA, "pin-ended")
    s = build_structure([(0, 0.0, 0.0), (1, 0.05, 0.0)], [(0, 1, pin)],
                        {0: FIXED})
    result = solve(s, load_case(s, {1: (0.0, 0.01, 0.0)}),
                   SolverConfig(n_inc=3))
    assert result.status == "diverged"
    assert result.cause == "SingularMatrix"
    assert result.diverged_at == 1
    assert result.increments == []


def test_non_finite_residual_diverges(make_cantilever, monkeypatch):
    def nan_residual(f_int, f_ext, supports):
        return np.full_like(f_int, np.nan), float("nan")

    monkeypatch.setattr(finbeam.solver, "residual", nan_residual)
    s = make_cantilever(4)
    result = solve(s, load_case(s, {4: (0.0, 0.1, 0.0)}),
                   SolverConfig(n_inc=3))
    assert result.status == "diverged"
    assert result.cause == "non-finite"
    assert result.diverged_at == 1
    assert result.increments == []


def test_infinite_rotation_diverges_as_non_finite(monkeypatch):
    exact = finbeam.solver.solve_linear
    model = generate(FinRayParams())
    # solve_linear works in band order
    rotations = model.structure.free_band.order % 3 == 2

    def infinite_rotation_step(k_s, rhs):
        step, negative = exact(k_s, rhs)
        step[rotations] = np.inf
        return step, negative

    monkeypatch.setattr(finbeam.solver, "solve_linear",
                        infinite_rotation_step)
    result = solve(model.structure, load_at_contact_node(model, 2, 0.1),
                   SolverConfig(n_inc=3))
    assert result.status == "diverged"
    assert result.cause == "non-finite"
    assert result.diverged_at == 1


def test_probe_reports_first_limit_point_for_top_angle_30():
    # Force control tunnels past the limit point near 2.85 N at some step
    # sizes, so a search over repeated solves reported 3.81 N here.
    model = generate(FinRayParams(top_angle=30.0))
    pattern = load_at_contact_node(model, 2, 1.0,
                                   direction=STUDY_DIRECTION).f_total
    found = probe_max_force(model.structure, pattern, SolverConfig(n_inc=10),
                            0.05, 4.0, 0.05)
    assert found < 3.0
    n_inc = round(found / 0.05)
    result = solve(model.structure,
                   make_load_case(model.structure, found * pattern),
                   SolverConfig(n_inc=n_inc))
    assert result.completed
    assert path_is_stable(result)


def test_euler_column_ends_at_critical_load(make_cantilever):
    # clamped-free column under axial tip compression buckles at
    # P_cr = pi^2 EI / (4 L^2); the perfect column stays straight, so only
    # the tangent's negative-eigenvalue count can show the bifurcation
    s = make_cantilever(16, length=FINGER_HEIGHT)
    p_cr = math.pi**2 * E_MOD * INERTIA / (4 * FINGER_HEIGHT**2)
    pattern = np.zeros(s.n_dof)
    pattern[s.dof_index(16, "u")] = -1.0
    step = p_cr / 100
    found = probe_max_force(s, pattern, SolverConfig(n_inc=10),
                            0.1 * p_cr, 2.0 * p_cr, step)
    assert p_cr - step <= found <= p_cr * (1 + 1e-12)

    result = solve(s, make_load_case(s, 2.0 * p_cr * pattern),
                   SolverConfig(n_inc=20))
    assert result.cause == "indefinite"
    assert result.diverged_at == 11
    assert len(result.increments) == 10
    assert not path_is_stable(result)


def test_column_far_past_buckling_ends_indefinite(make_cantilever):
    # at 10 P_cr the straight column's tangent has two negative
    # eigenvalues: an even count, which a determinant sign cannot see
    s = make_cantilever(16, length=FINGER_HEIGHT)
    p_cr = math.pi**2 * E_MOD * INERTIA / (4 * FINGER_HEIGHT**2)
    pattern = np.zeros(s.n_dof)
    pattern[s.dof_index(16, "u")] = -1.0
    result = solve(s, make_load_case(s, 20.0 * p_cr * pattern),
                   SolverConfig(n_inc=2))
    assert result.cause == "indefinite"
    assert result.diverged_at == 1
    assert result.increments == []


def test_path_stops_at_first_snap():
    # the probe's path for the two-crossbeam study finger; force control
    # used to run on to 4 N after snapping at increment 15. Whether that
    # increment ends as "snap" or "no convergence" is decided by roundoff
    # in a long Newton wander, so only the stop is asserted.
    model = generate(FinRayParams(n_crossbeams=2))
    case = load_at_contact_node(model, 2, 4.0, direction=STUDY_DIRECTION)
    result = solve(model.structure, case, SolverConfig(n_inc=80))
    assert not result.completed
    assert result.diverged_at == 15
    assert len(result.increments) == 14


def _apex_load(structure, magnitude):
    f = np.zeros(structure.n_dof)
    f[structure.dof_index(1, "w")] = -magnitude
    return f


# the largest loads overflow F_int; no numpy warning may escape the solve
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(structure=small_frames(kinds=(KIND_BEAM,)),
       node=st.integers(1, 6),
       direction=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
                           st.floats(-1.0, 1.0)),
       log_magnitude=st.one_of(st.floats(-3.0, 4.0),
                               st.floats(300.0, 307.0)),
       n_inc=st.integers(1, 5))
def test_never_completed_with_a_non_finite_state(
        structure, node, direction, log_magnitude, n_inc):
    # frames of beams only, which form no mechanism, under loads from well
    # inside the elastic range to far past any collapse, and loads so large
    # that F_int overflows
    node = min(node, len(structure.nodes) - 1)
    case = load_case(structure, {node: 10.0**log_magnitude
                                 * np.array(direction)})
    config = SolverConfig(n_inc=n_inc, maxiter=30)
    result = solve(structure, case, config)
    for record in result.increments:
        assert np.all(np.isfinite(record.displacement))
        assert math.isfinite(record.residual_norm)
    if result.completed:
        _, f_int = update_member_data(structure, result.final_displacement)
        _, r_norm = residual(f_int, case.f_total, structure.supports)
        assert r_norm <= config.tolerance
