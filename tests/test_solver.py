import dataclasses
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finbeam.solver
from finbeam import (
    KIND_BEAM,
    BracketInvalid,
    DegenerateElement,
    ElementProps,
    FinRayParams,
    LoadCase,
    ModelError,
    SolveResult,
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
    structure_from_dict,
    structure_to_dict,
    trace_loads,
    update_member_data,
)
from conftest import (AREA, E_MOD, FINGER_HEIGHT, INERTIA, STUDY_FINGERS,
                      one_element_frame)

from oracles import (dense_tangent, elastica_cantilever_tip, plain_path,
                     plain_probe, plain_solve)
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
    # the continuation passes the limit point, where the tangent turns
    # indefinite, and no level above the limit load is recorded
    assert result.cause == "indefinite"
    assert not path_is_stable(result)
    assert result.increments
    assert all(record.n / 100 * 1.05 * limit <= limit
               for record in result.increments)


def test_probe_matches_von_mises_limit():
    s = von_mises_truss()
    limit = von_mises_limit_load()
    pattern = _apex_load(s, 1.0)
    cfg = SolverConfig(n_inc=10)
    resolution = 0.002
    found = probe_max_force(s, pattern, cfg, 0.1 * limit, 2.0 * limit,
                            resolution)
    assert limit - resolution <= found <= limit
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
    assert not result.completed
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
    assert not result.completed
    assert result.cause == "non-finite"
    assert result.diverged_at == 1
    assert result.increments == []


def test_infinite_rotation_diverges_as_non_finite(monkeypatch):
    exact = finbeam.solver.solve_linear
    model = generate(FinRayParams())
    # solve_linear works in band order
    rotations = model.structure.free_band.order % 3 == 2

    def infinite_rotation_step(k_s, rhs):
        step, positive_definite = exact(k_s, rhs)
        step[rotations] = np.inf
        return step, positive_definite

    monkeypatch.setattr(finbeam.solver, "solve_linear",
                        infinite_rotation_step)
    result = solve(model.structure, load_at_contact_node(model, 2, 0.1),
                   SolverConfig(n_inc=3))
    assert not result.completed
    assert result.cause == "non-finite"
    assert result.diverged_at == 1


@pytest.mark.parametrize("params", [
    pytest.param(params, id=name)
    for name, params in STUDY_FINGERS.items() if name != "top_angle=40"])
def test_solve_reaches_the_probed_force_stably(params):
    # The study fingers of criterion 6 (top angle 40 holds at 4 N). Force
    # control with a snap heuristic ended inclination +10 and the simple
    # connection below their probed force, on stable ground.
    model = generate(params)
    pattern = load_at_contact_node(model, 2, 1.0,
                                   direction=STUDY_DIRECTION).f_total
    found = probe_max_force(model.structure, pattern, SolverConfig(n_inc=10),
                            0.05, 4.0, 0.05)
    result = solve(model.structure,
                   make_load_case(model.structure, found * pattern),
                   SolverConfig(n_inc=math.ceil(found / 0.05)))
    assert result.completed
    assert path_is_stable(result)


def test_probe_factorizations_of_the_two_crossbeam_finger(monkeypatch):
    # every tangent the probe factors goes through finbeam.solver's global
    # solve_linear, where a tracer can wrap it; force control took 132
    # factorizations for this probe, 41 of them dense
    exact = finbeam.solver.solve_linear
    calls = []

    def counted(band, rhs):
        calls.append(rhs.shape)
        return exact(band, rhs)

    monkeypatch.setattr(finbeam.solver, "solve_linear", counted)
    model = generate(FinRayParams(n_crossbeams=2))
    pattern = load_at_contact_node(model, 2, 1.0,
                                   direction=STUDY_DIRECTION).f_total
    probe_max_force(model.structure, pattern, SolverConfig(n_inc=10),
                    0.05, 4.0, 0.05)
    assert len(calls) == 25
    # audits solve for the load alone, correctors for load and residual
    assert {shape[1:] for shape in calls} == {(), (2,)}


def test_euler_column_ends_at_critical_load(make_cantilever):
    # clamped-free column under axial tip compression buckles at
    # P_cr = pi^2 EI / (4 L^2); the perfect column stays straight, so only
    # the Cholesky pivot test, which fails once the tangent is no longer
    # positive definite, can show the bifurcation
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


@pytest.mark.parametrize("share, n_inc", [(20.0, 2), (1.5, 1), (3.0, 1)])
def test_column_far_past_buckling_ends_indefinite(make_cantilever, share,
                                                  n_inc):
    # at 10 P_cr the straight column's tangent has two negative
    # eigenvalues: an even count, which a determinant sign cannot see; in
    # one increment the last state is the first one past buckling, and
    # its audit ends the path
    s = make_cantilever(16, length=FINGER_HEIGHT)
    p_cr = math.pi**2 * E_MOD * INERTIA / (4 * FINGER_HEIGHT**2)
    pattern = np.zeros(s.n_dof)
    pattern[s.dof_index(16, "u")] = -1.0
    result = solve(s, make_load_case(s, share * p_cr * pattern),
                   SolverConfig(n_inc=n_inc))
    assert result.cause == "indefinite"
    assert result.diverged_at == 1
    assert result.increments == []


def test_path_stops_at_first_instability():
    # the probe's path for the two-crossbeam study finger, which collapses
    # at 0.7177 N: force control used to run on to 4 N after snapping at
    # increment 15, and whether that increment ended as "snap" or "no
    # convergence" was decided by roundoff in a long Newton wander
    model = generate(FinRayParams(n_crossbeams=2))
    case = load_at_contact_node(model, 2, 4.0, direction=STUDY_DIRECTION)
    result = solve(model.structure, case, SolverConfig(n_inc=80))
    assert result.cause == "indefinite"
    assert result.diverged_at == 15
    assert len(result.increments) == 14


def test_solve_ends_past_the_top_angle_30_limit():
    # force control completed 3.5 N in 10 steps on another branch, the
    # loaded node turned by 0.91 rad, though the limit is at 2.88 N
    model = generate(FinRayParams(top_angle=30.0))
    case = load_at_contact_node(model, 2, 3.5, direction=STUDY_DIRECTION)
    result = solve(model.structure, case, SolverConfig(n_inc=10))
    assert result.cause == "indefinite"
    assert result.diverged_at == 9
    assert not path_is_stable(result)


def test_solve_passes_the_inclination_minus_10_plateau():
    # under the normal load force control ended this path as a snap at 1.5
    # and at 2.0 N on stable ground; its first instability is at 3.08 N
    model = generate(FinRayParams(inclination=-10.0))
    result = solve(model.structure, load_at_contact_node(model, 2, 2.0),
                   SolverConfig(n_inc=10))
    assert result.completed
    assert len(result.increments) == 10


# Each study finger's criterion-6 probe value at refinement 4 (N); top
# angle 40 still holds at the 4 N bracket end.
STUDY_LIMIT = {"n_crossbeams=2": 0.71, "default": 1.28, "n_crossbeams=4": 2.23,
               "top_angle=30": 2.88, "top_angle=40": 4.0,
               "inclination=-10": 1.07, "inclination=+10": 1.70,
               "connection=simple": 0.80}


def _identity_cases():
    # below the limit the path completes; above it, it ends "indefinite"
    # past the limit point (top angle 40 holds). One or two corrector
    # iterations per level end some paths at "no convergence", and the
    # column past buckling ends "indefinite".
    for name in STUDY_FINGERS:
        for refinement in (4, 12):
            for share, label in ((0.8, "below"), (1.2, "above")):
                yield pytest.param(name, refinement, share, 100,
                                   id=f"{name}-{refinement}-{label}")
        for maxiter in (1, 2):
            for share in (0.5, 0.8, 1.2):
                yield pytest.param(name, 4, share, maxiter,
                                   id=f"{name}-4-{share}-maxiter{maxiter}")
    yield pytest.param("column", 16, 20.0, 100, id="column-20-Pcr")


@pytest.mark.parametrize("name, refinement, share, maxiter",
                         _identity_cases())
def test_solve_is_bit_identical_to_the_plain_path(
        name, refinement, share, maxiter, make_cantilever):
    if name == "column":
        # share is of the clamped-free column's Euler load
        structure = make_cantilever(refinement, length=FINGER_HEIGHT)
        pattern = np.zeros(structure.n_dof)
        pattern[structure.dof_index(refinement, "u")] = -1.0
        p_cr = math.pi**2 * E_MOD * INERTIA / (4 * FINGER_HEIGHT**2)
        case = make_load_case(structure, share * p_cr * pattern)
        config = SolverConfig(n_inc=2, maxiter=maxiter)
    else:
        model = generate(dataclasses.replace(STUDY_FINGERS[name],
                                             refinement=refinement))
        structure = model.structure
        case = load_at_contact_node(model, 2, share * STUDY_LIMIT[name],
                                    direction=STUDY_DIRECTION)
        config = SolverConfig(n_inc=10, maxiter=maxiter)
    result = solve(structure, case, config)
    levels = [n / config.n_inc for n in range(1, config.n_inc + 1)]
    records, cause, _ = plain_path(structure, case.f_total, levels,
                                   config.tolerance, config.maxiter,
                                   math.inf)
    assert result.cause == cause
    assert len(result.increments) == len(records)
    for record, (n, displacement, iterations, r_norm) in zip(
            result.increments, records):
        assert (record.n, record.iterations) == (n, iterations)
        assert np.array_equal(record.displacement, displacement)
        assert record.residual_norm == r_norm
    if name == "column":
        assert cause == "indefinite"
    elif maxiter < 100:
        assert cause in (None, "no convergence")
    elif share > 1.0:
        assert cause == ("indefinite" if name != "top_angle=40" else None)
    else:
        # Below the limit force control reaches every level too. Both end
        # each level within the residual tolerance of equilibrium, so
        # their states differ by at most ||K^-1|| 2 tolerance =
        # 2 tolerance / lambda_min(K) on the free DOFs, to first order,
        # with K the tangent at force control's state.
        forced, forced_cause = plain_solve(structure, case, config)
        assert cause is None and forced_cause is None
        free = np.setdiff1d(np.arange(structure.n_dof),
                            structure.supports.dofs)
        for record, (_, displacement, _, _) in zip(result.increments,
                                                   forced):
            state, _ = update_member_data(structure, displacement)
            k_free = dense_tangent(structure, state)[np.ix_(free, free)]
            bound = 2.0 * config.tolerance / np.linalg.eigvalsh(k_free)[0]
            assert np.linalg.norm(record.displacement
                                  - displacement) <= bound


@pytest.mark.parametrize("resolution", [0.05, 5e-4])
@pytest.mark.parametrize("name", STUDY_FINGERS)
def test_probe_is_bit_identical_to_the_plain_continuation(name, resolution):
    # criterion 6 loading and bracket; top angle 40 still holds at 4 N.
    # Exact equality, not pinned values: BLAS builds round differently.
    model = generate(STUDY_FINGERS[name])
    pattern = load_at_contact_node(model, 2, 1.0,
                                   direction=STUDY_DIRECTION).f_total
    config = SolverConfig(n_inc=10)
    expected = plain_probe(model.structure, pattern, config.tolerance, 4.0,
                           resolution)
    try:
        found = probe_max_force(model.structure, pattern, config, 0.05, 4.0,
                                resolution)
    except BracketInvalid as exc:
        assert "still holds" in str(exc)
        found = None
    assert found == expected
    assert (found is None) == (name == "top_angle=40")


@pytest.mark.parametrize("name", STUDY_FINGERS)
def test_sweep_path_agrees_with_a_solve_per_magnitude(name):
    # a sweep's one path per variant lands on each magnitude on its way to
    # the probe's f_hi; a solve from zero in 10 steps lands on the same
    # load elsewhere within the residual tolerance of equilibrium, so the
    # states differ by at most 2 tolerance / lambda_min(K) on the free
    # DOFs, to first order, with K the tangent at the solve's state
    model = generate(STUDY_FINGERS[name])
    structure = model.structure
    pattern = load_at_contact_node(model, 2, 1.0,
                                   direction=STUDY_DIRECTION).f_total
    config = SolverConfig(n_inc=10)
    loads = (0.4 * STUDY_LIMIT[name], 0.8 * STUDY_LIMIT[name])
    records, _, _ = trace_loads(structure, pattern, loads, config,
                                (0.05, 4.0, 0.05))
    free = np.setdiff1d(np.arange(structure.n_dof), structure.supports.dofs)
    for load, record in zip(loads, records):
        result = solve(structure,
                       make_load_case(structure, load * pattern), config)
        assert result.completed and record is not None
        state, _ = update_member_data(structure, result.final_displacement)
        k_free = dense_tangent(structure, state)[np.ix_(free, free)]
        bound = 2.0 * config.tolerance / np.linalg.eigvalsh(k_free)[0]
        assert np.linalg.norm(record.displacement
                              - result.final_displacement) <= bound


@pytest.mark.parametrize("loads", [(), (0.0,), (-0.1,), (math.nan,),
                                   (0.1, math.inf)])
def test_trace_loads_needs_positive_finite_loads(make_cantilever, loads):
    s = make_cantilever(4)
    pattern = np.zeros(s.n_dof)
    pattern[s.dof_index(4, "w")] = 1.0
    with pytest.raises(ValueError, match="loads must be positive"):
        trace_loads(s, pattern, loads, SolverConfig())


@pytest.mark.parametrize("call, error, match", [
    (lambda s, p: trace_loads(s, p, (), SolverConfig(), (0.5, 0.5, 0.01)),
     BracketInvalid, r"need 0 <= f_lo < f_hi, got \[0.5, 0.5\]"),
    (lambda s, p: trace_loads(s, 0.0 * p, (0.1,), SolverConfig()),
     ValueError, "load pattern must be nonzero"),
    (lambda s, p: SolveResult([], "SingularMatrix").final_displacement,
     ValueError, "no converged increments"),
], ids=["empty-bracket", "zero-pattern", "no-increments"])
def test_unusable_requests_raise(make_cantilever, call, error, match):
    s = make_cantilever(4)
    pattern = np.zeros(s.n_dof)
    pattern[s.dof_index(4, "w")] = 1.0
    with pytest.raises(error, match=match):
        call(s, pattern)


def test_trace_loads_records_each_load_once(make_cantilever):
    # a repeated load shares its record, and the probe's f_hi gets none
    s = make_cantilever(4)
    pattern = np.zeros(s.n_dof)
    pattern[s.dof_index(4, "u")] = 1.0   # axial load never collapses a bar
    records, force, error = trace_loads(s, pattern, (0.2, 0.2, 0.4),
                                        SolverConfig(), (0.01, 0.5, 0.01))
    assert records[0] is records[1]
    assert [r.n for r in records] == [1, 1, 2]
    assert force == math.inf
    assert error == "structure still holds at f_hi = 0.5"


def test_a_collapse_below_f_lo_is_minus_infinity():
    # criterion 6 loading; the two-crossbeam finger collapses at 0.71 N
    model = generate(FinRayParams(n_crossbeams=2))
    pattern = load_at_contact_node(model, 2, 1.0,
                                   direction=STUDY_DIRECTION).f_total
    bracket = (1.0, 4.0, 0.05)
    _, force, error = trace_loads(model.structure, pattern, (),
                                  SolverConfig(), bracket)
    assert force == -math.inf
    assert error == "structure already collapses at f_lo = 1.0"
    with pytest.raises(BracketInvalid) as exc:
        probe_max_force(model.structure, pattern, SolverConfig(), *bracket)
    assert str(exc.value) == error


class Livelock(Exception):
    """Raised by the counting solve_linear once a probe has spent far more
    solves than any probe needs."""


@pytest.mark.parametrize("params, f_hi, resolution", [
    (FinRayParams(n_crossbeams=2), 4.0, 1e-30),
    (FinRayParams(n_crossbeams=2), 4.0, 1e-300),
    (FinRayParams(top_angle=40.0), 3000.0, 0.05),
], ids=["refining-1e-30", "refining-1e-300", "growth"])
def test_probe_ends_when_a_step_cannot_move_the_load_factor(
        params, f_hi, resolution, monkeypatch):
    # Refining: the arc halves below the float spacing of lambda, and every
    # later step lands on the same lambda on a positive-definite state.
    # Growth: near lambda 0.846, on states of 518% axial strain, steps of
    # about 1e-16 alternately fail and succeed, lambda advances an ulp at a
    # time and each success resets the cuts. Both used to run forever.
    exact = finbeam.solver.solve_linear
    calls = []

    def counted(band, rhs):
        calls.append(rhs.shape)
        if len(calls) > 2000:
            raise Livelock
        return exact(band, rhs)

    monkeypatch.setattr(finbeam.solver, "solve_linear", counted)
    model = generate(params)
    pattern = load_at_contact_node(model, 2, 1.0,
                                   direction=STUDY_DIRECTION).f_total
    config = SolverConfig()
    found = probe_max_force(model.structure, pattern, config, 0.05, f_hi,
                            resolution)
    assert found == plain_probe(model.structure, pattern, config.tolerance,
                                f_hi, resolution)
    if resolution < 1e-20 * f_hi:
        # below the float spacing of lambda, every resolution ends the path
        # at the same state
        assert found == probe_max_force(model.structure, pattern, config,
                                        0.05, f_hi, 1e-20 * f_hi)


def _tip_loaded_beam():
    """One clamped beam element under a tip force and moment, and the
    pattern's bracket end, 0.526 N."""
    props = ElementProps(E_MOD, AREA, INERTIA)
    s = build_structure([(0, 0.0, 0.0), (1, -0.1533, 0.6554)],
                        [(0, 1, props)], {0: FIXED})
    return s, np.array([0.0, 0.0, 0.0, -0.3405, 0.5769, -0.3936]), 0.0, 0.526


def _simple_connection_finger():
    model = generate(FinRayParams(connection="simple"))
    pattern = load_at_contact_node(model, 2, 1.0,
                                   direction=STUDY_DIRECTION).f_total
    return model.structure, pattern, 0.05, 4.0


@pytest.mark.parametrize("case, share, solves", [
    (_tip_loaded_beam, 1e-4, 168), (_tip_loaded_beam, 1e-5, 168),
    (_simple_connection_finger, 1e-9 / 4.0, 160),
], ids=["beam-1e-4", "beam-1e-5", "simple-1e-9"])
def test_probe_refinement_ends_at_its_bound(case, share, solves,
                                            monkeypatch):
    # Past a first instability that a corrector jump found, the path never
    # reaches it again and crawls toward it by about 3e-13 in lambda per
    # step; these probes used to run past 4000 linear solves. Probes that
    # resolve their instability accept at most 18 states past it.
    exact = finbeam.solver.solve_linear
    calls = []

    def counted(band, rhs):
        calls.append(rhs.shape)
        if len(calls) > 2000:
            raise Livelock
        return exact(band, rhs)

    monkeypatch.setattr(finbeam.solver, "solve_linear", counted)
    structure, pattern, f_lo, f_hi = case()
    resolution = share * f_hi
    _, force, error = trace_loads(structure, pattern, (), SolverConfig(),
                                  (f_lo, f_hi, resolution))
    assert force is None
    assert error == (
        "refinement bound: the first instability is not resolved to "
        f"resolution = {resolution} within "
        f"{finbeam.solver.REFINE_MAX_STATES} states past it")
    assert len(calls) == solves


@pytest.mark.xfail(strict=True, raises=BracketInvalid, reason=(
    "the first step from f_hi = 1e4 N converges at 71 kN on a state of "
    "10,000% axial strain, which the probe reads as still holding"))
def test_probe_finds_the_two_crossbeam_limit_from_a_wide_bracket():
    # the same finger collapses at 0.7177 N from a 4 N bracket
    model = generate(FinRayParams(n_crossbeams=2))
    pattern = load_at_contact_node(model, 2, 1.0,
                                   direction=STUDY_DIRECTION).f_total
    found = probe_max_force(model.structure, pattern, SolverConfig(), 0.05,
                            1e4, 0.05)
    assert 0.7177 - 0.05 <= found <= 0.7177


class Escaped(Exception):
    """Raised from a replaced kernel to leave a path by an exception."""


def _escape(*args):
    raise Escaped


def _degenerate(structure, u):
    if np.any(u):
        raise DegenerateElement("element 0 has (nearly) coincident nodes")
    return update_member_data(structure, u)


@pytest.mark.parametrize("ending", [
    "completed", "DegenerateElement", "SingularMatrix", "raised"])
def test_solve_restores_the_floating_point_error_state(ending, monkeypatch):
    # solve silences overflow and invalid operations for its own path only;
    # a return, a divergence caught inside it or an exception escaping it
    # leaves the caller's np.errstate as it was
    if ending == "SingularMatrix":
        # a pin-ended bar has no transverse stiffness
        pin = ElementProps(E_MOD, AREA, INERTIA, "pin-ended")
        s = build_structure([(0, 0.0, 0.0), (1, 0.05, 0.0)], [(0, 1, pin)],
                            {0: FIXED})
    else:
        s = one_element_frame(1.0)
    if ending == "DegenerateElement":
        # every displaced trial state collapses an element, so every step
        # and every halving of it fails
        monkeypatch.setattr(finbeam.solver, "update_member_data", _degenerate)
    if ending == "raised":
        monkeypatch.setattr(finbeam.solver, "solve_linear", _escape)
    with np.errstate(over="raise", invalid="raise"):
        before = np.geterr()
        try:
            result = solve(s, load_case(s, {1: (0.0, 0.01, 0.0)}),
                           SolverConfig(n_inc=1))
        except Escaped:
            result = None
        assert np.geterr() == before
    if ending == "raised":
        assert result is None
    else:
        assert result.cause == (None if ending == "completed" else ending)


@pytest.mark.parametrize("ending", ["found", "BracketInvalid", "raised"])
def test_probe_restores_the_floating_point_error_state(ending, monkeypatch):
    s = von_mises_truss()
    limit = von_mises_limit_load()
    # below its limit load the truss still holds at f_hi
    f_hi = (0.5 if ending == "BracketInvalid" else 2.0) * limit
    if ending == "raised":
        monkeypatch.setattr(finbeam.solver, "update_member_data", _escape)
    with np.errstate(over="raise", invalid="raise"):
        before = np.geterr()
        try:
            found = probe_max_force(s, _apex_load(s, 1.0), SolverConfig(),
                                    0.1 * limit, f_hi, 0.002)
        except (BracketInvalid, Escaped) as exc:
            found = type(exc).__name__
        assert np.geterr() == before
    expected = {"BracketInvalid": "BracketInvalid", "raised": "Escaped"}
    assert found == expected.get(ending, pytest.approx(limit, abs=0.002))


def test_concurrent_solves_of_one_structure():
    # two threads solve one shared study Structure at once, one load that
    # completes and one (1e300 N) that overflows, each thread under its own
    # np.errstate: each gets the single-threaded records, and each path's
    # fresh errstate leaves its own thread's state as it was
    model = generate(STUDY_FINGERS["default"])
    s, config = model.structure, SolverConfig(n_inc=5)
    cases = [load_at_contact_node(model, 2, magnitude)
             for magnitude in (0.3, 1e300)]

    def records(result):
        return result.cause, [(r.n, r.displacement.tobytes(), r.iterations,
                               r.residual_norm) for r in result.increments]

    expected = [records(solve(s, case, config)) for case in cases]
    assert [cause for cause, _ in expected] == [None, "non-finite"]
    start = threading.Barrier(2)
    outcomes = [[], []]

    def run(k):
        try:
            mode = ("raise", "warn")[k]
            with np.errstate(over=mode, invalid=mode):
                before = np.geterr()
                start.wait()
                for _ in range(20):
                    outcomes[k].append(records(solve(s, cases[k], config)))
                    assert np.geterr() == before
        except BaseException as exc:  # reported by the main thread
            outcomes[k].append(exc)

    threads = [threading.Thread(target=run, args=(k,)) for k in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for k in (0, 1):
        assert outcomes[k] == [expected[k]] * 20


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


def _rotated(structure, pattern, degrees):
    """A structure and a nodal load pattern turned by ``degrees`` about the
    origin, through the structure document."""
    c, s = math.cos(math.radians(degrees)), math.sin(math.radians(degrees))
    doc = structure_to_dict(structure)
    for node in doc["nodes"]:
        node["x"], node["y"] = (c * node["x"] - s * node["y"],
                                s * node["x"] + c * node["y"])
    fx, fy, m = pattern.reshape(-1, 3).T
    turned = np.column_stack((c * fx - s * fy, s * fx + c * fy, m)).ravel()
    return structure_from_dict(doc), turned


# Relative bound on the similarity and frame laws below. They hold exactly
# in exact arithmetic: scaling E with the bracket, resolution and tolerance
# scales every residual and its test alike, and a rotated frame has the
# same local deformations. In floats the scaled and rotated inputs round
# differently, which moved the answers by at most 3.2e-12 relative on
# these fingers. 1e-9 leaves that roundoff room to grow 300-fold and lies
# far below the tolerance (1e-3 N) and the resolution (0.05 N), the scales
# on which a step or convergence decision that went the other way would
# move the answer.
SIMILARITY_RTOL = 1e-9


@pytest.mark.parametrize("name", ["n_crossbeams=2", "default",
                                  "top_angle=30", "connection=simple"])
def test_probe_obeys_the_modulus_similarity_and_frame_invariance(name):
    def probe(params, scale=1.0, degrees=None):
        model = generate(params)
        structure = model.structure
        pattern = load_at_contact_node(model, 2, 1.0,
                                       direction=STUDY_DIRECTION).f_total
        if degrees is not None:
            structure, pattern = _rotated(structure, pattern, degrees)
        return probe_max_force(structure, pattern,
                               SolverConfig(tolerance=1e-3 * scale),
                               0.05 * scale, 4.0 * scale, 0.05 * scale)

    params = STUDY_FINGERS[name]
    force = probe(params)
    assert 0.05 < force < 4.0
    stiffer = dataclasses.replace(params, e_modulus=10 * params.e_modulus)
    assert probe(stiffer, scale=10.0) == pytest.approx(
        10 * force, rel=SIMILARITY_RTOL, abs=0)
    for degrees in (90.0, 200.0):
        assert probe(params, degrees=degrees) == pytest.approx(
            force, rel=SIMILARITY_RTOL, abs=0)
