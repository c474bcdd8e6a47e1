"""Acceptance suite: one test per release criterion, each printing a
PASS line (run with ``pytest tests/test_acceptance.py -v -s``).

Design-study probes press the contact node along the inward face normal
rotated 40 degrees toward the base (a contact force with a friction-like
tangential component); purely normal point loads do not destabilise these
fingers, so collapse loads are only meaningful with the tangential part.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import finbeam
from finbeam import (
    BracketInvalid,
    ElementProps,
    FinRayParams,
    SolverConfig,
    build_structure,
    generate,
    load_at_contact_node,
    load_case,
    probe_max_force,
    solve,
    update_member_data,
)
from finbeam.assembly import element_tangent_stiffness
from finbeam.cli import main as cli_main
from conftest import (AREA, E_MOD, FINGER_HEIGHT, INERTIA, element_forces,
                      one_element_frame)

from oracles import (
    central_difference_jacobian,
    dense_tangent,
    elastica_cantilever_tip,
)

FIXED = (True, True, True)

# Normalised elastica tip positions (x/L, y/L) for alpha = F L^2 / (EI),
# frozen from the shooting oracle; the oracle is re-run against them below.
ELASTICA_TIP = {
    1.0: (0.943566763716, 0.301720773800),
    2.0: (0.839358279175, 0.493457480397),
    3.0: (0.745579815436, 0.603253441130),
}

# Contact force direction for the design studies: inward normal rotated
# 40 degrees toward the base.
CONTACT_DIR = (math.cos(math.radians(40.0)), -math.sin(math.radians(40.0)))

# Reference collapse loads for the design-study variants (N).
REFERENCE_MAX_FORCE = {
    "crossbeams": {2: 0.8, 3: 1.2, 4: 1.9},
    "connection": {"simple": 0.7, "rigid": 1.2},
}


def cantilever(n_elements=16, length=FINGER_HEIGHT):
    props = ElementProps(E_MOD, AREA, INERTIA)
    nodes = [(i, i * length / n_elements, 0.0) for i in range(n_elements + 1)]
    elements = [(i, i + 1, props) for i in range(n_elements)]
    return build_structure(nodes, elements, {0: FIXED})


def test_criterion_1_linear_oracles():
    started = time.perf_counter()
    length = FINGER_HEIGHT
    s = cantilever(16, length)
    tip = 16

    # bending: pick the load so the tip deflection is ~1% of the length
    load = 0.03 * E_MOD * INERTIA / length**2
    result = solve(s, load_case(s, {tip: (0.0, load, 0.0)}),
                   SolverConfig(n_inc=2, tolerance=1e-9))
    w_tip = result.final_displacement[s.dof_index(tip, "w")]
    w_ref = load * length**3 / (3 * E_MOD * INERTIA)
    assert w_ref < 0.02 * length
    assert w_tip == pytest.approx(w_ref, rel=0.01)

    # axial bar
    load_ax = 0.4
    result = solve(s, load_case(s, {tip: (load_ax, 0.0, 0.0)}),
                   SolverConfig(n_inc=2, tolerance=1e-9))
    u_tip = result.final_displacement[s.dof_index(tip, "u")]
    assert u_tip == pytest.approx(load_ax * length / (E_MOD * AREA),
                                  rel=0.001)

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1 (linear oracles): PASS "
          f"(bending err {abs(w_tip - w_ref) / w_ref:.2e}, {elapsed:.2f}s)")


def test_criterion_2_elastica_large_deflection():
    started = time.perf_counter()
    length = FINGER_HEIGHT
    s = cantilever(16, length)
    worst = 0.0
    for alpha, (x_frozen, y_frozen) in ELASTICA_TIP.items():
        # the independent shooting oracle must agree with its frozen output
        x_oracle, y_oracle = elastica_cantilever_tip(alpha)
        assert x_oracle == pytest.approx(x_frozen, abs=1e-9)
        assert y_oracle == pytest.approx(y_frozen, abs=1e-9)

        load = alpha * E_MOD * INERTIA / length**2
        result = solve(s, load_case(s, {16: (0.0, load, 0.0)}),
                       SolverConfig(n_inc=10, tolerance=1e-8))
        assert result.completed
        ux = result.final_displacement[s.dof_index(16, "u")]
        uy = result.final_displacement[s.dof_index(16, "w")]
        ux_ref = (x_frozen - 1.0) * length
        uy_ref = y_frozen * length
        err = max(abs(ux - ux_ref) / abs(ux_ref),
                  abs(uy - uy_ref) / abs(uy_ref))
        worst = max(worst, err)
        assert err < 0.01, f"alpha={alpha}: tip error {err:.3%}"

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"criterion 2 took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 2 (elastica large deflection): PASS "
          f"(worst tip error {worst:.3%}, {elapsed:.2f}s)")


def _random_element_state(rng):
    """A one-element frame and a large displacement of it."""
    l0 = rng.uniform(0.3, 2.0)
    beta0 = rng.uniform(-math.pi, math.pi)
    kind = "pin-ended" if rng.uniform() < 0.2 else "beam"
    frame = one_element_frame(l0, beta0, kind)
    rot = rng.uniform(-1.0, 1.0)
    stretch = rng.uniform(-0.05, 0.05) * l0
    t1, t2 = rng.uniform(-0.2, 0.2, size=2)
    shift = rng.uniform(-0.5, 0.5, size=2)
    x2 = np.array([l0 * math.cos(beta0), l0 * math.sin(beta0)])
    c, s = math.cos(rot), math.sin(rot)
    x2_new = np.array([[c, -s], [s, c]]) @ x2 * (1 + stretch / l0) + shift
    p = np.array([shift[0], shift[1], rot + t1,
                  x2_new[0] - x2[0], x2_new[1] - x2[1], rot + t2])
    return frame, p


def test_criterion_3_tangent_consistency():
    rng = np.random.default_rng(7)
    worst_fd = 0.0
    worst_sym = 0.0
    for _ in range(100):
        # one element: the frame's F_int is the element's internal force
        frame, p = _random_element_state(rng)
        rows, _ = update_member_data(frame, p)
        k = element_tangent_stiffness(rows)[0]

        scale = np.abs(k).max()
        worst_sym = max(worst_sym, np.abs(k - k.T).max() / scale)

        step = 1e-7 * max(frame.element_l0[0], 1.0)
        k_fd = central_difference_jacobian(
            lambda x: update_member_data(frame, x)[1], p, step)
        worst_fd = max(worst_fd, np.linalg.norm(k - k_fd, "fro")
                       / np.linalg.norm(k_fd, "fro"))
    assert worst_sym < 1e-10
    assert worst_fd < 1e-4

    # assembled tangent against finite differences of the global F_int
    props = ElementProps(E_MOD, AREA, INERTIA)
    nodes = [(0, 0.0, 0.0), (1, 0.4, 0.0), (2, 0.8, 0.0), (3, 0.4, 0.3)]
    specs = [(0, 1, props), (1, 2, props), (1, 3, props)]
    s = build_structure(nodes, specs, {0: FIXED})
    worst_global = 0.0
    for _ in range(10):
        u = rng.uniform(-0.02, 0.02, size=12)
        k = dense_tangent(s, update_member_data(s, u)[0])
        k_fd = central_difference_jacobian(
            lambda x: update_member_data(s, x)[1], u, 1e-7)
        worst_global = max(worst_global,
                           np.linalg.norm(k - k_fd, "fro")
                           / np.linalg.norm(k_fd, "fro"))
    assert worst_global < 1e-4
    print(f"\nACCEPTANCE 3 (tangent consistency): PASS "
          f"(element fd {worst_fd:.2e}, assembled fd {worst_global:.2e}, "
          f"symmetry {worst_sym:.2e})")


def test_criterion_4_rigid_motion_objectivity():
    rng = np.random.default_rng(11)
    model = generate(FinRayParams())
    s = model.structure
    worst = 0.0
    for _ in range(20):
        angle = rng.uniform(-math.pi, math.pi)
        shift = rng.uniform(-1.0, 1.0, size=2)
        c, si = math.cos(angle), math.sin(angle)
        rot = np.array([[c, -si], [si, c]])
        u = np.zeros(s.n_dof)
        for node in s.nodes:
            x = np.array([node.x0, node.y0])
            moved = rot @ x + shift
            u[3 * node.id:3 * node.id + 2] = moved - x
            u[3 * node.id + 2] = angle
        _, f_int = update_member_data(s, u)
        # N, M1 and M2 of every element
        worst = max(worst, np.abs(element_forces(s, u)).max())
        worst = max(worst, np.abs(f_int).max())
    assert worst <= 1e-10
    print(f"\nACCEPTANCE 4 (rigid-motion objectivity): PASS "
          f"(max residual force {worst:.2e})")


def test_criterion_5_equilibrium_and_step_independence():
    model = generate(FinRayParams())
    case = load_at_contact_node(model, 2, 0.8)
    s = model.structure
    free = np.setdiff1d(np.arange(s.n_dof), s.supports.dofs)

    cfg = SolverConfig(n_inc=10)
    result = solve(s, case, cfg)
    assert result.completed
    for rec in result.increments:
        _, f_int = update_member_data(s, rec.displacement)
        f_n = (rec.n / cfg.n_inc) * case.f_total
        residual_norm = np.linalg.norm((f_int - f_n)[free])
        assert residual_norm <= 1e-3

    d10 = solve(s, case, SolverConfig(n_inc=10, tolerance=1e-6))
    d40 = solve(s, case, SolverConfig(n_inc=40, tolerance=1e-6))
    diff = (np.linalg.norm(d10.final_displacement - d40.final_displacement)
            / np.linalg.norm(d40.final_displacement))
    assert diff <= 1e-3
    print(f"\nACCEPTANCE 5 (equilibrium & step independence): PASS "
          f"(n_inc 10 vs 40 diff {diff:.2e})")


def _probe(params, f_hi=4.0):
    """Collapse load for the standard study loading, inf when the finger
    sustains the whole bracket."""
    model = generate(params)
    pattern = load_at_contact_node(model, 2, 1.0,
                                   direction=CONTACT_DIR).f_total
    try:
        return probe_max_force(model.structure, pattern,
                               SolverConfig(n_inc=10), 0.05, f_hi, 0.05)
    except BracketInvalid as exc:
        if "still holds" in str(exc):
            return math.inf
        raise


def test_criterion_6_design_study_reproduction():
    started = time.perf_counter()

    crossbeams = {k: _probe(FinRayParams(n_crossbeams=k)) for k in (2, 3, 4)}
    assert crossbeams[2] < crossbeams[3] < crossbeams[4]
    for k, reference in REFERENCE_MAX_FORCE["crossbeams"].items():
        assert abs(crossbeams[k] - reference) <= 0.25 * reference, (
            f"{k} crossbeams: {crossbeams[k]:.2f} N vs {reference} N")

    angles = {a: _probe(FinRayParams(top_angle=a)) for a in (20.0, 30.0, 40.0)}
    assert angles[20.0] < angles[30.0] < angles[40.0], (
        "max force must rise with top angle "
        f"(got {angles[20.0]:.2f} / {angles[30.0]:.2f} / {angles[40.0]})")

    inclinations = {g: _probe(FinRayParams(inclination=g))
                    for g in (-10.0, 0.0, 10.0)}
    assert inclinations[-10.0] < inclinations[0.0] < inclinations[10.0]

    connection = {c: _probe(FinRayParams(connection=c))
                  for c in ("simple", "rigid")}
    assert connection["rigid"] > connection["simple"]
    for c, reference in REFERENCE_MAX_FORCE["connection"].items():
        assert abs(connection[c] - reference) <= 0.25 * reference

    ratio_pair = []
    for c in ("simple", "rigid"):
        model = generate(FinRayParams(connection=c))
        case = load_at_contact_node(model, 2, 0.4, direction=CONTACT_DIR)
        result = solve(model.structure, case, SolverConfig(n_inc=8))
        assert result.completed
        node = model.contact_nodes[1]
        d = result.final_displacement
        ratio_pair.append(math.hypot(d[3 * node], d[3 * node + 1]))
    ratio = ratio_pair[0] / ratio_pair[1]
    assert 1.5 <= ratio <= 4.0

    # The probe values to 1e-9 N, so that a change meant to leave outputs
    # alone shows any that it moves; another BLAS build may round the last
    # bits differently. Each is within the 0.05 N resolution below the
    # first instability.
    default = pytest.approx(1.2815612778424734, abs=1e-9)
    assert crossbeams == {2: pytest.approx(0.71284650575757, abs=1e-9),
                          3: default,
                          4: pytest.approx(2.227657769540545, abs=1e-9)}
    assert angles == {20.0: default,
                      30.0: pytest.approx(2.878988788646324, abs=1e-9),
                      40.0: math.inf}
    assert inclinations == {
        -10.0: pytest.approx(1.0729427504264564, abs=1e-9), 0.0: default,
        10.0: pytest.approx(1.7041144543916191, abs=1e-9)}
    assert connection == {"simple": pytest.approx(0.7991369553871157,
                                                  abs=1e-9),
                          "rigid": default}
    # Force control in 0.05 N steps ended these fingers at their limit
    # point, so the limit lay in the grid cell above its last good step,
    # and so must the continuation's value. (It ended inclination +10 and
    # the simple connection by a snap heuristic on stable ground instead.)
    forced_limit_cells = [(crossbeams[2], 0.70), (crossbeams[3], 1.25),
                          (crossbeams[4], 2.20), (angles[30.0], 2.85),
                          (inclinations[-10.0], 1.05)]
    for found, cell in forced_limit_cells:
        assert cell <= found < cell + 0.05
    # with 8 levels the first step is an arc step, not a landing, so the
    # states sit elsewhere within the residual tolerance than in 10 steps
    assert ratio == pytest.approx(3.0460, abs=1e-3)

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"criterion 6 took {elapsed:.1f}s"
    fmt = {k: f"{v:.2f}" for k, v in crossbeams.items()}
    print(f"\nACCEPTANCE 6 (design studies): PASS\n"
          f"    crossbeams 2/3/4 -> {fmt} N (reference 0.8/1.2/1.9)\n"
          f"    top angle 20/30/40 -> {angles[20.0]:.2f}/{angles[30.0]:.2f}/"
          f"{angles[40.0]:.2f} N ascending (reference 1.2/1.6/1.8)\n"
          f"    inclination -10/0/+10 -> {inclinations[-10.0]:.2f}/"
          f"{inclinations[0.0]:.2f}/{inclinations[10.0]:.2f} N "
          f"(reference 1.15/1.2/1.35)\n"
          f"    connection simple/rigid -> {connection['simple']:.2f}/"
          f"{connection['rigid']:.2f} N (reference 0.7/1.2), "
          f"compliance ratio {ratio:.2f}\n"
          f"    ({elapsed:.1f}s)")


def test_criterion_7_convergence_efficiency():
    # the two-crossbeam finger collapses right at 0.8 N, so its loads stop
    # at 0.6 N; every other study case holds the full 0.8 N
    cases = [(FinRayParams(n_crossbeams=2), (0.2, 0.4, 0.6))]
    cases += [(p, (0.2, 0.4, 0.6, 0.8)) for p in (
        FinRayParams(),
        FinRayParams(n_crossbeams=4),
        FinRayParams(top_angle=30.0),
        FinRayParams(top_angle=40.0),
        FinRayParams(inclination=-10.0),
        FinRayParams(inclination=10.0),
        FinRayParams(connection="simple"),
    )]
    worst = 0.0
    for params, magnitudes in cases:
        model = generate(params)
        for magnitude in magnitudes:
            case = load_at_contact_node(model, 2, magnitude)
            result = solve(model.structure, case, SolverConfig(n_inc=10))
            assert result.completed
            mean_iters = np.mean([r.iterations for r in result.increments])
            worst = max(worst, mean_iters)
    assert worst <= 5.0
    print(f"\nACCEPTANCE 7 (convergence efficiency): PASS "
          f"(worst mean corrector iterations {worst:.2f})")


def _probe_sweep_bytes(spec_file, out_dir, blas_threads):
    """CSV and summary bytes of ``finbeam sweep --probe-max-force`` run in a
    fresh interpreter with the given OpenBLAS thread count."""
    src = str(Path(finbeam.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    out_dir.mkdir()
    out = out_dir / "report.csv"
    subprocess.run([sys.executable, "-m", "finbeam", "sweep", str(spec_file),
                    str(out), "--probe-max-force"],
                   env=env, check=True, timeout=300)
    return out.read_bytes(), (out_dir / "report.summary.json").read_bytes()


def test_criterion_8_determinism(tmp_path):
    import json

    params_file = tmp_path / "params.json"
    params_file.write_text(json.dumps({"n_crossbeams": 3}))
    structure_file = tmp_path / "structure.json"
    assert cli_main(["generate", str(params_file), str(structure_file)]) == 0
    doc = json.loads(structure_file.read_text())
    node2 = doc["contact_nodes"][1]
    load_file = tmp_path / "load.json"
    load_file.write_text(json.dumps(
        {"forces": [{"node": node2, "fx": 0.6, "fy": -0.2}]}))

    outputs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert cli_main(["solve", str(structure_file), str(load_file),
                         str(out), "--n-inc", "10"]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]

    # the same sweeps and probes under 1 and 2 BLAS threads; the probes at
    # refinement 12 solve tangents that are not positive definite by LU
    specs = [{"values": [2, 3, 4, 5], "load_magnitudes": [0.2, 0.4, 0.6]},
             {"values": [2, 3, 4], "load_magnitudes": [0.2, 0.4],
              "base_params": {"refinement": 12}}]
    for index, spec in enumerate(specs):
        spec_file = tmp_path / f"sweep{index}.json"
        spec_file.write_text(json.dumps({
            "axis": "n_crossbeams", "load_direction": list(CONTACT_DIR),
            **spec}))
        one, two = (_probe_sweep_bytes(spec_file,
                                       tmp_path / f"sweep{index}-threads{n}", n)
                    for n in (1, 2))
        assert one[0] == two[0]
        assert one[1] == two[1]
    print("\nACCEPTANCE 8 (determinism): PASS (byte-identical CSV; "
          "sweep files identical at 1 and 2 BLAS threads)")
