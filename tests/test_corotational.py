"""The co-rotational element, checked through the batched kernels on
one-element frames: with one element, the frame's DOFs are the element's
six and F_int is its global internal force."""

import math
import warnings

import numpy as np
import pytest

from finbeam import (
    DegenerateElement,
    SolverConfig,
    generate,
    load_at_contact_node,
    solve,
    update_member_data,
)
from finbeam.assembly import (
    _wrap_angles,
    current_geometry,
    element_tangent_stiffness,
)
from conftest import (AREA, E_MOD, INERTIA, STUDY_FINGERS, element_forces,
                      one_element_frame)

from oracles import (
    central_difference_jacobian,
    chord_vectors,
    corotational_element,
    dense_tangent,
    linear_frame_stiffness,
    scalar_reference,
)


def geometry(structure, p):
    """(length, c, s) of the one element displaced by p."""
    cs = np.empty((4, 1))
    length = current_geometry(structure, np.asarray(p, float)[None, :], cs)
    return length[0], cs[0, 0], cs[1, 0]


def local_deformations(structure, p):
    """[u_l, theta_1l, theta_2l] of a beam element displaced by p, read
    back from its local forces [N, M1, M2] through Cl^-1: N is row 3 of
    the state, M1 and M2 are F_int[2] and F_int[5]."""
    rows, f_int = update_member_data(structure, np.asarray(p, float))
    forces = [rows[3, 0], f_int[2], f_int[5]]
    ea_l0, ei_l0 = structure.element_tangent_rows[:2, 0]
    cl = np.array([[ea_l0, 0, 0], [0, 4 * ei_l0, 2 * ei_l0],
                   [0, 2 * ei_l0, 4 * ei_l0]])
    return np.linalg.solve(cl, forces)


def tangent_of(structure, p):
    rows, _ = update_member_data(structure, p)
    return element_tangent_stiffness(rows)[0]


def test_wrap_angle():
    wrapped = _wrap_angles(np.array(
        [0.0, math.pi, -math.pi, 3 * math.pi, 2 * math.pi + 0.25]))
    assert wrapped[0] == 0.0
    assert wrapped[1] == pytest.approx(math.pi)
    assert wrapped[2] == pytest.approx(math.pi)
    assert wrapped[3] == pytest.approx(math.pi)
    assert wrapped[4] == pytest.approx(0.25, abs=1e-14)


def exact_wrap(angles):
    """_wrap_angles with a per-angle test, the largest |angle| below pi,
    in place of its sum-of-squares test."""
    if np.maximum.reduce(np.abs(angles), axis=None, initial=0.0) < math.pi:
        return angles
    np.fmod(angles, math.tau, out=angles)
    angles[angles > math.pi] -= math.tau
    angles[angles <= -math.pi] += math.tau
    return angles


def outcome(wrap, angles):
    """The wrapped bytes, or the type of what wrap raised, under
    np.errstate(all="raise")."""
    angles = np.array(angles, dtype=float).reshape(2, -1)
    try:
        with np.errstate(all="raise"):
            assert wrap(angles) is angles
    except FloatingPointError as exc:
        return type(exc)
    return angles.tobytes()


BELOW_PI, ABOVE_PI = np.nextafter(math.pi, 0.0), np.nextafter(math.pi, 4.0)


WRAP_CASES = {
    "pi": [math.pi, -math.pi], "pi-small": [math.pi, 1e-3],
    "-pi-small": [-math.pi, 1e-3], "-pi-zero": [-math.pi, 0.0],
    "below-pi": [BELOW_PI, -BELOW_PI], "above-pi": [ABOVE_PI, -ABOVE_PI],
    "below-pi-zero": [BELOW_PI, 0.0], "above-pi-zero": [ABOVE_PI, 0.0],
    "3.2-among-1e-3": [3.2] + [1e-3] * 87, "1e-3": [1e-3] * 88,
    "0.5": [0.5] * 88, "1e200": [1e200, 1e-3], "-1e200": [-1e200, 1e-3],
    "nan": [math.nan, 1e-3], "inf": [math.inf, 1e-3],
    "-inf": [-math.inf, 1e-3], "zeros": [0.0, -0.0],
}


@pytest.mark.parametrize("angles", WRAP_CASES.values(), ids=WRAP_CASES)
def test_wrap_angles_matches_the_exact_test(angles):
    # the same bytes, and nothing more raised: 0.5 sums past pi^2 with
    # every angle below pi, where fmod leaves each as it is, 1e200 squares
    # to inf, and NaN and inf fail both tests
    assert outcome(_wrap_angles, angles) == outcome(exact_wrap, angles)


class TestCurrentGeometry:
    def test_undeformed(self):
        s = one_element_frame(5.0, math.atan2(4, 3))
        length, c, sin = geometry(s, np.zeros(6))
        assert length == pytest.approx(5.0)
        assert c == pytest.approx(3 / 5)
        assert sin == pytest.approx(4 / 5)

    def test_pure_stretch(self):
        length, c, s = geometry(one_element_frame(), [0, 0, 0, 1.0, 0, 0])
        assert length == pytest.approx(2.0)
        assert c == pytest.approx(1.0)
        assert s == pytest.approx(0.0)

    def test_rigid_quarter_turn(self):
        # node 2 moved from (1,0) to (0,1): pure rotation about node 1
        length, c, s = geometry(one_element_frame(), [0, 0, 0, -1.0, 1.0, 0])
        assert length == pytest.approx(1.0)
        assert math.atan2(s, c) == pytest.approx(math.pi / 2)

    def test_degenerate(self):
        with pytest.raises(DegenerateElement):
            geometry(one_element_frame(), [0, 0, 0, -1.0, 0, 0])


class TestLocalDisplacements:
    def test_zero(self):
        u_l, theta_1l, theta_2l = local_deformations(one_element_frame(),
                                                     np.zeros(6))
        assert (u_l, theta_1l, theta_2l) == (0.0, 0.0, 0.0)

    def test_rigid_rotation_produces_no_deformation(self):
        p = [0, 0, math.pi / 2, -1.0, 1.0, math.pi / 2]
        u_l, theta_1l, theta_2l = local_deformations(one_element_frame(), p)
        assert u_l == pytest.approx(0.0, abs=1e-15)
        assert theta_1l == pytest.approx(0.0, abs=1e-15)
        assert theta_2l == pytest.approx(0.0, abs=1e-15)

    def test_pure_stretch(self):
        u_l, theta_1l, theta_2l = local_deformations(one_element_frame(),
                                                     [0, 0, 0, 1e-3, 0, 0])
        assert u_l == pytest.approx(1e-3, rel=1e-12)
        assert theta_1l == 0.0
        assert theta_2l == 0.0


class TestLocalForces:
    def test_axial_force_hand_value(self):
        # E*A*u_l/L0 = 2e7 * 2e-5 * 1e-3 / 0.1 = 4.0 N
        rows, _ = update_member_data(one_element_frame(0.1),
                                     np.array([0, 0, 0, 1e-3, 0, 0]))
        assert rows[3, 0] == pytest.approx(4.0, rel=1e-12)

    def test_symmetric_rotation_moments(self):
        phi = 0.05
        _, q = update_member_data(one_element_frame(0.1),
                                  np.array([0, 0, phi, 0, 0, phi]))
        expected = 6 * E_MOD * INERTIA * phi / 0.1
        # F_int[2] and F_int[5] are M1 and M2
        assert q[2] == pytest.approx(expected, rel=1e-12)
        assert q[5] == pytest.approx(expected, rel=1e-12)

    def test_pin_ended_carries_no_moment(self):
        # local deformations (1e-3, 0.2, -0.1) of an unrotated element
        rows, q = update_member_data(one_element_frame(0.1, kind="pin-ended"),
                                     np.array([0, 0, 0.2, 1e-3, 0, -0.1]))
        assert q[2] == 0.0
        assert q[5] == 0.0
        assert rows[3, 0] == pytest.approx(4.0, rel=1e-12)


class TestTransformationMatrix:
    def test_horizontal_rows(self):
        r, z, b = chord_vectors(update_member_data(one_element_frame(),
                                                   np.zeros(6))[0])
        expected = np.array([
            [-1, 0, 0, 1, 0, 0],
            [0, 1, 1, 0, -1, 0],
            [0, 1, 0, 0, -1, 1],
        ], dtype=float)
        assert np.allclose(b[0], expected, atol=1e-15)
        # r is B's first row, z its perpendicular
        assert np.array_equal(r[0], b[0, 0])
        assert np.allclose(z[0], [0, -1, 0, 0, 1, 0], atol=1e-15)

    def test_translation_invariance(self, rng):
        beta = rng.uniform(-math.pi, math.pi)
        _, _, b = chord_vectors(update_member_data(
            one_element_frame(1.7, beta), np.zeros(6))[0])
        dp = np.array([0.3, -0.8, 0.0, 0.3, -0.8, 0.0])
        assert np.allclose(b[0] @ dp, 0.0, atol=1e-15)

    def test_infinitesimal_rotation_about_midpoint(self):
        _, _, b = chord_vectors(update_member_data(one_element_frame(),
                                                   np.zeros(6))[0])
        eps = 1e-7
        # rotate both nodes of the unit element about (0.5, 0) by eps
        dp = np.array([0.5 * (1 - math.cos(eps)), -0.5 * math.sin(eps), eps,
                       -0.5 * (1 - math.cos(eps)), 0.5 * math.sin(eps), eps])
        # local increments vanish to first order in eps
        assert np.all(np.abs(b[0] @ dp) < 10 * eps**2 + 1e-15)


class TestGlobalInternalForce:
    def test_zero(self):
        _, q = update_member_data(one_element_frame(), np.zeros(6))
        assert np.array_equal(q, np.zeros(6))

    def test_pure_axial_pair(self):
        # a stretch that makes N = 5 N in the unit horizontal element
        stretch = 5.0 / (E_MOD * AREA)
        _, q = update_member_data(one_element_frame(),
                                  np.array([0, 0, 0, stretch, 0, 0]))
        assert np.allclose(q, [-5, 0, 0, 5, 0, 0], atol=1e-15)

    def test_self_equilibrium(self, rng):
        # F_int = B^T [N, M1, M2], here for arbitrary local forces
        for _ in range(25):
            beta = rng.uniform(-math.pi, math.pi)
            length = rng.uniform(0.2, 3.0)
            r, _, b = chord_vectors(update_member_data(
                one_element_frame(length, beta), np.zeros(6))[0])
            q = b[0].T @ rng.uniform(-10, 10, size=3)
            c, sin = r[0, 3:5]
            scale = np.abs(q).max() + 1e-30
            assert abs(q[0] + q[3]) <= 1e-10 * scale
            assert abs(q[1] + q[4]) <= 1e-10 * scale
            # moment balance about node 1
            moment = q[2] + q[5] + length * c * q[4] - length * sin * q[3]
            assert abs(moment) <= 1e-10 * (abs(q[2]) + abs(q[5]) + scale)


def random_state(rng, kind="beam"):
    """One-element frame and a displacement with rotation up to 1 rad and
    strain up to 5%."""
    l0 = rng.uniform(0.3, 2.0)
    beta0 = rng.uniform(-math.pi, math.pi)
    s = one_element_frame(l0, beta0, kind)
    rot = rng.uniform(-1.0, 1.0)
    stretch = rng.uniform(-0.05, 0.05) * l0
    t1, t2 = rng.uniform(-0.2, 0.2, size=2)
    shift = rng.uniform(-0.5, 0.5, size=2)
    x1 = np.array([0.0, 0.0])
    x2 = np.array([l0 * math.cos(beta0), l0 * math.sin(beta0)])
    c, sin = math.cos(rot), math.sin(rot)
    rot_m = np.array([[c, -sin], [sin, c]])
    x2_new = rot_m @ (x2 - x1) * (1 + stretch / l0) + x1 + shift
    x1_new = x1 + shift
    p = np.array([x1_new[0], x1_new[1], rot + t1,
                  x2_new[0] - x2[0], x2_new[1] - x2[1], rot + t2])
    return s, p


@pytest.mark.parametrize("kind", ["beam", "pin-ended"])
def test_kernels_match_scalar_oracle(rng, kind):
    # F_int and k of the basis products against the scalar B-form element
    for _ in range(200):
        s, p = random_state(rng, kind)
        q_ref, k_ref = corotational_element(s.elements[0], p)
        rows, q = update_member_data(s, p)
        k = element_tangent_stiffness(rows)[0]
        assert np.abs(q - q_ref).max() <= 1e-13 * np.abs(q_ref).max()
        assert np.abs(k - k_ref).max() <= 1e-13 * np.abs(k_ref).max()


@pytest.mark.parametrize("kind", ["beam", "pin-ended"])
def test_state_rows_hold_chord_forces_and_template(rng, kind):
    # the rows (EA/L0, EI/L0, EI/L0, N, M1+M2, 1, c, s, c/L, s/L)
    for _ in range(50):
        s, p = random_state(rng, kind)
        template = s.element_tangent_rows
        before = template.copy()
        rows, q = update_member_data(s, p)
        cs = np.empty((4, 1))
        current_geometry(s, p[None, :], cs)
        assert np.array_equal(rows[6:], cs)
        assert rows[4, 0] == q[2] + q[5]
        assert np.array_equal(rows[[0, 1, 2, 5]], template[[0, 1, 2, 5]])
        assert np.array_equal(template, before)
        assert not template.flags.writeable
        # an unrotated stretch: N = EA/L0 (L - L0)
        l0, beta0 = s.element_l0[0], s.element_beta0[0]
        stretch = rng.uniform(-0.05, 0.05) * l0
        rows, _ = update_member_data(s, np.array(
            [0.0, 0.0, 0.0, stretch * math.cos(beta0),
             stretch * math.sin(beta0), 0.0]))
        assert rows[3, 0] == pytest.approx(E_MOD * AREA / l0 * stretch,
                                           rel=1e-9)


def assembled_b_form(structure, u):
    """Element forces q = B^T [N, M1, M2], and F_int and K assembled from q
    and k = B^T Cl B + (N/L) z z^T + ((M1+M2)/L^2) (r z^T + z r^T) at the
    displacement u, with r, z and B from the chord rows of the state,
    L from current_geometry and [N, M1, M2] from each element alone."""
    rows, _ = update_member_data(structure, u)
    r, z, b = chord_vectors(rows)
    length = current_geometry(structure, u[structure.element_dofs],
                              np.empty_like(rows[6:]))
    ea_l0, ei_l0 = rows[:2]
    cl = np.zeros((len(length), 3, 3))
    cl[:, 0, 0] = ea_l0
    cl[:, 1:, 1:] = ei_l0[:, None, None] * np.array([[4.0, 2.0], [2.0, 4.0]])
    forces = element_forces(structure, u)
    n_axial, m1, m2 = forces.T
    q = np.einsum("eij,ei->ej", b, forces)
    k = b.transpose(0, 2, 1) @ cl @ b
    k += (n_axial / length)[:, None, None] * np.einsum("ei,ej->eij", z, z)
    rz = np.einsum("ei,ej->eij", r, z)
    k += ((m1 + m2) / length**2)[:, None, None] * (rz + rz.transpose(0, 2, 1))
    f_int = np.zeros(structure.n_dof)
    k_global = np.zeros((structure.n_dof, structure.n_dof))
    for dofs, q_e, k_e in zip(structure.element_dofs, q, k):
        f_int[dofs] += q_e
        k_global[np.ix_(dofs, dofs)] += k_e
    return q, f_int, k_global


@pytest.mark.parametrize("name", STUDY_FINGERS)
def test_kernels_match_assembled_b_form_on_study_fingers(name):
    model = generate(STUDY_FINGERS[name])
    s = model.structure
    result = solve(s, load_at_contact_node(model, 2, 0.5),
                   SolverConfig(n_inc=5))
    assert result.completed
    rows, f_int = update_member_data(s, result.final_displacement)
    k = dense_tangent(s, rows)
    q_b, f_b, k_b = assembled_b_form(s, result.final_displacement)
    # at equilibrium F_int is the small load; the element forces q that
    # sum to it set the roundoff scale
    assert np.abs(f_int - f_b).max() <= 1e-13 * np.abs(q_b).max()
    assert np.abs(k - k_b).max() <= 1e-13 * np.abs(k_b).max()
    # and the tangent against the scalar element, which recomputes the
    # local forces in its own arithmetic order
    _, k_ref = scalar_reference(s, result.final_displacement)
    assert np.abs(k - k_ref).max() <= 1e-13 * np.abs(k_ref).max()


def test_overflow_scale_forces_raise_no_warning():
    s = one_element_frame(0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # N = 1e300: the old (N/L) and 1/L^2 forms overflowed here
        rows, q = update_member_data(
            s, np.array([0.0, 0.0, 0.1, 2.5e296, 0.0, -0.1]))
        k = element_tangent_stiffness(rows)
        assert rows[3, 0] == pytest.approx(1e300)
        assert np.isfinite(q).all() and np.isfinite(k).all()
        # an overflowed feature N c (c/L) gives a non-finite tangent; the
        # kernel follows the caller's np.errstate
        rows = s.element_tangent_rows.copy()
        rows[3], rows[6:] = 1e300, [[1.0], [0.0], [1e9], [0.0]]
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                element_tangent_stiffness(rows)
        with np.errstate(all="ignore"):
            assert not np.isfinite(element_tangent_stiffness(rows)).all()


def test_rest_tangent_matches_linear_frame_matrix():
    k = tangent_of(one_element_frame(0.25), np.zeros(6))
    k_ref = linear_frame_stiffness(E_MOD, AREA, INERTIA, 0.25)
    assert np.allclose(k, k_ref, rtol=1e-12, atol=1e-9)


def test_tangent_symmetry(rng):
    for _ in range(50):
        k = tangent_of(*random_state(rng))
        assert np.allclose(k, k.T, rtol=1e-10, atol=1e-10 * np.abs(k).max())


def test_tangent_matches_finite_differences(rng):
    worst = 0.0
    for i in range(100):
        kind = "pin-ended" if i % 5 == 0 else "beam"
        s, p = random_state(rng, kind)
        k = tangent_of(s, p)
        step = 1e-7 * max(s.element_l0[0], 1.0)
        k_fd = central_difference_jacobian(
            lambda x: update_member_data(s, x)[1], p, step)
        err = (np.linalg.norm(k - k_fd, "fro")
               / np.linalg.norm(k_fd, "fro"))
        worst = max(worst, err)
    assert worst < 1e-4, f"worst relative Frobenius error {worst:.3e}"


def test_rigid_motion_objectivity(rng):
    for _ in range(50):
        l0 = rng.uniform(0.2, 2.0)
        beta0 = rng.uniform(-math.pi, math.pi)
        s = one_element_frame(l0, beta0)
        rot = rng.uniform(-math.pi, math.pi)
        shift = rng.uniform(-3.0, 3.0, size=2)
        x2 = np.array([l0 * math.cos(beta0), l0 * math.sin(beta0)])
        c, sin = math.cos(rot), math.sin(rot)
        x2_new = np.array([[c, -sin], [sin, c]]) @ x2 + shift
        p = np.array([shift[0], shift[1], rot,
                      x2_new[0] - x2[0], x2_new[1] - x2[1], rot])
        u_l, theta_1l, theta_2l = local_deformations(s, p)
        assert abs(u_l) <= 1e-10
        assert abs(theta_1l) <= 1e-10
        assert abs(theta_2l) <= 1e-10
        _, q = update_member_data(s, p)
        assert np.all(np.abs(q) <= 1e-10)
