import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dsytrf

from finbeam import (
    KIND_BEAM,
    KIND_PIN,
    DegenerateElement,
    ElementProps,
    FinRayParams,
    SingularMatrix,
    SupportSet,
    apply_supports,
    assemble_tangent,
    build_structure,
    current_geometry,
    element_tangent_stiffness,
    generate,
    global_internal_force,
    local_displacements,
    local_forces,
    solve_linear,
    transformation_matrix,
    update_member_data,
)
from conftest import AREA, E_MOD, INERTIA

from oracles import central_difference_jacobian, linear_frame_stiffness

FIXED = (True, True, True)


def props():
    return ElementProps(E_MOD, AREA, INERTIA)


def single_bar():
    return build_structure([(0, 0.0, 0.0), (1, 1.0, 0.0)],
                           [(0, 1, props())], {0: FIXED})


def test_zero_displacement_gives_zero_forces():
    s = single_bar()
    state, f_int = update_member_data(s, np.zeros(6))
    assert np.array_equal(f_int, np.zeros(6))
    assert state.n_axial[0] == 0.0
    assert state.m1[0] == 0.0


def test_single_bar_stretch_internal_force():
    s = single_bar()
    u = np.zeros(6)
    u[3] = 1e-4
    _, f_int = update_member_data(s, u)
    ea = E_MOD * AREA
    assert f_int[3] == pytest.approx(ea * 1e-4, rel=1e-9)
    assert f_int[0] == pytest.approx(-ea * 1e-4, rel=1e-9)


def test_interior_node_cancels_under_uniform_stretch():
    s = build_structure(
        [(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 2.0, 0.0)],
        [(0, 1, props()), (1, 2, props())], {0: FIXED})
    u = np.zeros(9)
    u[3] = 1e-4   # node 1 moves by strain * x
    u[6] = 2e-4   # node 2 twice as far: uniform strain
    _, f_int = update_member_data(s, u)
    assert abs(f_int[3]) <= 1e-12 * E_MOD * AREA * 1e-4
    assert abs(f_int[4]) <= 1e-12


def test_degenerate_element_reports_index():
    s = single_bar()
    u = np.zeros(6)
    u[3] = -1.0
    with pytest.raises(DegenerateElement, match="element 0"):
        update_member_data(s, u)


def test_assembled_block_is_linear_frame_matrix():
    s = single_bar()
    states, _ = update_member_data(s, np.zeros(6))
    k = assemble_tangent(s, states)
    assert np.allclose(k, linear_frame_stiffness(E_MOD, AREA, INERTIA, 1.0),
                       rtol=1e-12, atol=1e-9)


def test_unconnected_node_pairs_have_zero_blocks():
    s = build_structure(
        [(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 2.0, 0.0)],
        [(0, 1, props()), (1, 2, props())], {0: FIXED})
    states, _ = update_member_data(s, np.zeros(9))
    k = assemble_tangent(s, states)
    assert np.array_equal(k[0:3, 6:9], np.zeros((3, 3)))
    assert np.array_equal(k[6:9, 0:3], np.zeros((3, 3)))


def test_assembly_order_invariance(rng):
    nodes = [(0, 0.0, 0.0), (1, 1.0, 0.1), (2, 2.0, -0.1), (3, 2.5, 0.8)]
    specs = [(0, 1, props()), (1, 2, props()), (1, 3, props()),
             (2, 3, props())]
    s1 = build_structure(nodes, specs, {0: FIXED})
    s2 = build_structure(nodes, list(reversed(specs)), {0: FIXED})
    u = rng.uniform(-0.05, 0.05, size=12)
    k1 = assemble_tangent(s1, update_member_data(s1, u)[0])
    k2 = assemble_tangent(s2, update_member_data(s2, u)[0])
    assert np.allclose(k1, k2, rtol=1e-12, atol=1e-12 * np.abs(k1).max())


def test_assembled_tangent_symmetric(rng):
    s = build_structure(
        [(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 1.0, 1.0)],
        [(0, 1, props()), (1, 2, props())], {0: FIXED})
    u = rng.uniform(-0.1, 0.1, size=9)
    k = assemble_tangent(s, update_member_data(s, u)[0])
    assert np.allclose(k, k.T, rtol=1e-9, atol=1e-9 * np.abs(k).max())


class TestApplySupports:
    def test_fully_fixed_node(self):
        k = np.arange(36, dtype=float).reshape(6, 6)
        k = k + k.T
        k_s = apply_supports(k, SupportSet({0: FIXED}))
        for d in (0, 1, 2):
            row = k_s[d].copy()
            row[d] = 0.0
            assert np.array_equal(row, np.zeros(6))
            assert k_s[d, d] == 1.0
        assert np.array_equal(k_s[3:, 3:], k[3:, 3:])

    def test_pin_support_touches_two_dofs(self):
        k = np.eye(6) * 7.0
        k_s = apply_supports(k, SupportSet({0: (True, True, False)}))
        assert k_s[0, 0] == 1.0
        assert k_s[1, 1] == 1.0
        assert k_s[2, 2] == 7.0

    def test_no_supports_is_identity_operation(self):
        k = np.arange(16, dtype=float).reshape(4, 4)
        assert np.array_equal(apply_supports(k, SupportSet({})), k)


class TestSolveLinear:
    def test_identity(self):
        rhs = np.zeros(4)
        rhs[2] = 1.0
        x, negative = solve_linear(np.eye(4), rhs)
        assert np.allclose(x, rhs, atol=1e-15)
        assert negative == 0

    def test_cantilever_tip_deflection_first_solve(self):
        length = 0.5
        s = build_structure([(0, 0.0, 0.0), (1, length, 0.0)],
                            [(0, 1, props())], {0: FIXED})
        states, _ = update_member_data(s, np.zeros(6))
        k_s = apply_supports(assemble_tangent(s, states), s.supports)
        f = np.zeros(6)
        load = 0.05
        f[4] = load
        x, negative = solve_linear(k_s, f)
        assert negative == 0
        assert x[4] == pytest.approx(load * length**3 / (3 * E_MOD * INERTIA),
                                     rel=1e-10)
        assert x[5] == pytest.approx(load * length**2 / (2 * E_MOD * INERTIA),
                                     rel=1e-10)
        assert np.allclose(x[:3], 0.0, atol=1e-30)

    def test_mechanism_raises_singular(self):
        # free-floating beam: no supports applied at all
        s = single_bar()
        states, _ = update_member_data(s, np.zeros(6))
        k = assemble_tangent(s, states)
        with pytest.raises(SingularMatrix):
            solve_linear(k, np.zeros(6))

    def test_negative_count_of_a_pure_row_swap(self):
        # eigenvalues +1 and -1, held in one 2x2 block with zero diagonal
        x, negative = solve_linear(np.array([[0.0, 1.0], [1.0, 0.0]]),
                                   np.array([2.0, 3.0]))
        assert np.array_equal(x, [3.0, 2.0])
        assert negative == 1

    @pytest.mark.parametrize("n_negative", [0, 1, 2, 3, 5, 10])
    def test_negative_count_matches_eigenvalues(self, rng, n_negative):
        n = 30
        blocks = 0
        for _ in range(20):
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            spectrum = rng.uniform(0.1, 10.0, n)
            spectrum[:n_negative] *= -1.0
            k = (q * spectrum) @ q.T
            k = 0.5 * (k + k.T)
            expected = np.count_nonzero(np.linalg.eigvalsh(k) < 0.0)
            assert expected == n_negative
            x, negative = solve_linear(k, np.ones(n))
            assert negative == expected
            assert np.allclose(k @ x, 1.0, atol=1e-10)
            blocks += np.any(dsytrf(k, lower=1)[1] < 0)
        # Bunch-Kaufman pivoting chose a 2x2 block for some of the
        # indefinite matrices; such a block is indefinite itself, so a
        # positive definite matrix never gets one
        assert (blocks > 0) == (n_negative > 0)


def test_global_tangent_matches_finite_differences(rng):
    # 4-node frame, 12 DOFs, at a random displaced state
    nodes = [(0, 0.0, 0.0), (1, 0.4, 0.0), (2, 0.8, 0.0), (3, 0.4, 0.3)]
    specs = [(0, 1, props()), (1, 2, props()), (1, 3, props())]
    s = build_structure(nodes, specs, {0: FIXED})
    u = rng.uniform(-0.02, 0.02, size=12)

    k = assemble_tangent(s, update_member_data(s, u)[0])
    k_fd = central_difference_jacobian(
        lambda x: update_member_data(s, x)[1], u, 1e-7)
    err = np.linalg.norm(k - k_fd, "fro") / np.linalg.norm(k_fd, "fro")
    assert err < 1e-4, f"relative Frobenius error {err:.3e}"


def scalar_reference(structure, u):
    """F_int and K from a loop over the scalar corotational kernels."""
    n = structure.n_dof
    f_int = np.zeros(n)
    k = np.zeros((n, n))
    for index, element in enumerate(structure.elements):
        dofs = structure.element_dofs[index]
        p = u[dofs]
        geometry = current_geometry(element, p)
        forces = local_forces(element.props, element.l0,
                              local_displacements(element, p, geometry))
        f_int[dofs] += global_internal_force(
            transformation_matrix(geometry), forces)
        k[np.ix_(dofs, dofs)] += element_tangent_stiffness(
            element.props, element.l0, geometry, forces)
    return f_int, k


def rigid_motion(structure, angle, shift):
    """Displacement vector of a rigid turn by angle about the origin plus a
    translation by shift."""
    c, s = math.cos(angle), math.sin(angle)
    x = structure.coords
    moved = x @ np.array([[c, s], [-s, c]]) + shift
    u = np.zeros(structure.n_dof)
    u[0::3] = moved[:, 0] - x[:, 0]
    u[1::3] = moved[:, 1] - x[:, 1]
    u[2::3] = angle
    return u


@pytest.mark.parametrize("params", [
    FinRayParams(), FinRayParams(connection="simple"),
    FinRayParams(n_crossbeams=5)], ids=["default", "simple", "crossbeams5"])
def test_batched_kernels_match_scalar_reference(params, rng):
    s = generate(params).structure
    for angle in (-7.0, -math.pi - 0.3, 0.0, 2.5, math.pi + 0.3, 7.0):
        u = rigid_motion(s, angle, rng.uniform(-0.05, 0.05, size=2))
        u[0::3] += rng.uniform(-5e-4, 5e-4, size=len(s.nodes))
        u[1::3] += rng.uniform(-5e-4, 5e-4, size=len(s.nodes))
        u[2::3] += rng.uniform(-0.3, 0.3, size=len(s.nodes))
        f_ref, k_ref = scalar_reference(s, u)
        state, f_int = update_member_data(s, u)
        k = assemble_tangent(s, state)
        assert np.abs(f_int - f_ref).max() <= 1e-12 * np.abs(f_ref).max()
        assert np.abs(k - k_ref).max() <= 1e-12 * np.abs(k_ref).max()


@st.composite
def small_frames(draw):
    """Tree-connected frames of 2 to 6 elements, mixing beam and pin-ended
    elements, with every element at least 0.1 m long, clamped at node 0."""
    n_elements = draw(st.integers(2, 6))
    coordinate = st.floats(-1.0, 1.0)
    nodes = [(0, 0.0, 0.0)]
    specs = []
    for j in range(1, n_elements + 1):
        i = draw(st.integers(0, j - 1))
        x, y = draw(st.tuples(coordinate, coordinate).filter(
            lambda q: math.hypot(q[0] - nodes[i][1], q[1] - nodes[i][2])
            >= 0.1))
        nodes.append((j, x, y))
        kind = draw(st.sampled_from([KIND_BEAM, KIND_PIN]))
        specs.append((i, j, ElementProps(E_MOD, AREA, INERTIA, kind)))
    return build_structure(nodes, specs, {0: FIXED})


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(structure=small_frames(),
       angle=st.floats(-7.0, 7.0),
       shift=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
       seed=st.integers(0, 2**32 - 1))
def test_rigid_motion_is_force_free_and_tangent_symmetric(
        structure, angle, shift, seed):
    u = rigid_motion(structure, angle, np.array(shift))
    state, f_int = update_member_data(structure, u)
    assert np.abs(f_int).max() <= 1e-10
    for forces in (state.n_axial, state.m1, state.m2):
        assert np.abs(forces).max() <= 1e-10

    u += np.random.default_rng(seed).uniform(-0.01, 0.01, size=u.size)
    k = assemble_tangent(structure, update_member_data(structure, u)[0])
    assert np.abs(k - k.T).max() <= 1e-12 * np.abs(k).max()
