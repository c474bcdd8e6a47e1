import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

import finbeam
import finbeam.solver
from finbeam import (
    DegenerateElement,
    ElementProps,
    FinRayParams,
    SingularMatrix,
    SupportSet,
    apply_supports,
    assemble_tangent,
    build_structure,
    generate,
    load_at_contact_node,
    solve,
    solve_linear,
    update_member_data,
)
from finbeam import assembly
from finbeam.assembly import K_BASIS
from finbeam.cli import main as cli_main
from conftest import AREA, E_MOD, INERTIA, STUDY_FINGERS, element_forces

from oracles import (
    central_difference_jacobian,
    dense_tangent,
    linear_frame_stiffness,
    scalar_reference,
)
from strategies import pinned_frames, small_frames

FIXED = (True, True, True)


def props():
    return ElementProps(E_MOD, AREA, INERTIA)


def single_bar():
    return build_structure([(0, 0.0, 0.0), (1, 1.0, 0.0)],
                           [(0, 1, props())], {0: FIXED})


def test_zero_displacement_gives_zero_forces():
    s = single_bar()
    rows, f_int = update_member_data(s, np.zeros(6))
    assert np.array_equal(f_int, np.zeros(6))
    assert rows[3, 0] == 0.0
    assert f_int[2] == 0.0  # M1


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
    k = dense_tangent(s, states)
    assert np.allclose(k, linear_frame_stiffness(E_MOD, AREA, INERTIA, 1.0),
                       rtol=1e-12, atol=1e-9)


def test_unconnected_node_pairs_have_zero_blocks():
    # only node 1's u is fixed, so nodes 0 and 2 are both in the band
    s = build_structure(
        [(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 2.0, 0.0)],
        [(0, 1, props()), (1, 2, props())], {1: (True, False, False)})
    states, _ = update_member_data(s, np.zeros(9))
    k = expand(assemble_tangent(s, states), s)
    assert np.array_equal(k[0:3, 6:9], np.zeros((3, 3)))
    assert np.array_equal(k[6:9, 0:3], np.zeros((3, 3)))


def test_assembly_order_invariance(rng):
    nodes = [(0, 0.0, 0.0), (1, 1.0, 0.1), (2, 2.0, -0.1), (3, 2.5, 0.8)]
    specs = [(0, 1, props()), (1, 2, props()), (1, 3, props()),
             (2, 3, props())]
    s1 = build_structure(nodes, specs, {0: FIXED})
    s2 = build_structure(nodes, list(reversed(specs)), {0: FIXED})
    u = rng.uniform(-0.05, 0.05, size=12)
    k1 = expand(assemble_tangent(s1, update_member_data(s1, u)[0]), s1)
    k2 = expand(assemble_tangent(s2, update_member_data(s2, u)[0]), s2)
    assert np.allclose(k1, k2, rtol=1e-12, atol=1e-12 * np.abs(k1).max())


def test_assembled_tangent_symmetric(rng):
    s = build_structure(
        [(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 1.0, 1.0)],
        [(0, 1, props()), (1, 2, props())], {0: FIXED})
    u = rng.uniform(-0.1, 0.1, size=9)
    k = dense_tangent(s, update_member_data(s, u)[0])
    assert np.allclose(k, k.T, rtol=1e-9, atol=1e-9 * np.abs(k).max())


def lower_band(k):
    """The whole lower triangle of a dense matrix in LAPACK's lower band
    storage: slot (r, j) holds k[j + r, j], and the slots past the matrix
    hold 0."""
    n = len(k)
    band = np.zeros((n, n))
    for r in range(n):
        band[r, :n - r] = np.diagonal(k, -r)
    return band


def band_to_lower(band):
    """The dense lower triangle held in a lower band, ignoring the slots
    past the matrix."""
    n = band.shape[1]
    lower = np.zeros((n, n))
    for r in range(band.shape[0]):
        lower[np.arange(r, n), np.arange(n - r)] = band[r, :n - r]
    return lower


def expand(band, structure):
    """The symmetric n_dof x n_dof matrix held in a structure's free-DOF
    band, with zero rows and columns on the fixed DOFs."""
    order = structure.free_band.order
    lower = band_to_lower(band)
    k = np.zeros((structure.n_dof, structure.n_dof))
    k[np.ix_(order, order)] = lower + np.tril(lower, -1).T
    return k


def bent_state(s, rng):
    """Element state at a random bending displacement of a frame."""
    u = rng.uniform(-0.01, 0.01, size=s.n_dof)
    return update_member_data(s, u)[0]


class TestApplySupports:
    def test_fully_fixed_node(self, rng):
        s = single_bar()
        free = s.free_band
        # the fixed DOFs are absent from the band
        assert sorted(free.order) == [3, 4, 5]
        state = bent_state(s, rng)
        k = dense_tangent(s, state)
        assert np.array_equal(band_to_lower(assemble_tangent(s, state)),
                              np.tril(k[np.ix_(free.order, free.order)]))
        vector = np.arange(6.0)
        assert np.array_equal(apply_supports(vector, free),
                              vector[free.order])

    def test_pin_support_touches_two_dofs(self, rng):
        s = replace(single_bar(), supports=SupportSet({0: (True, True, False)}))
        free = s.free_band
        assert sorted(free.order) == [2, 3, 4, 5]
        state = bent_state(s, rng)
        k = dense_tangent(s, state)
        assert np.array_equal(assemble_tangent(s, state)[0],
                              np.diagonal(k)[free.order])

    def test_no_supports_is_identity_operation(self, rng):
        s = replace(single_bar(), supports=SupportSet({}))
        state = bent_state(s, rng)
        k = dense_tangent(s, state)
        assert np.array_equal(expand(assemble_tangent(s, state), s), k)
        vector = np.arange(6.0)
        assert np.array_equal(np.sort(apply_supports(vector, s.free_band)),
                              vector)


def assert_band_is_dense_lower_band(s, state):
    """assemble_tangent's band equals, bit for bit, the lower band of the
    dense tangent's free block, and its slots past the matrix hold 0."""
    free = s.free_band
    band = assemble_tangent(s, state)
    block = dense_tangent(s, state)[np.ix_(free.order, free.order)]
    assert band.shape == (free.bandwidth + 1, len(free.order))
    assert np.array_equal(band, lower_band(block)[:free.bandwidth + 1])


@pytest.mark.parametrize("params", [
    FinRayParams(), FinRayParams(connection="simple"),
    FinRayParams(n_crossbeams=5)], ids=["default", "simple", "crossbeams5"])
def test_gathered_band_is_the_lower_band_of_the_free_block(params, rng):
    # the tangent at a small random displacement of the free DOFs
    s = generate(params).structure
    free = s.free_band
    u = np.zeros(s.n_dof)
    u[free.order] = rng.uniform(-1e-4, 1e-4, size=len(free.order))
    assert_band_is_dense_lower_band(s, update_member_data(s, u)[0])


@pytest.mark.parametrize("refinement", [4, 12])
@pytest.mark.parametrize("name", STUDY_FINGERS)
def test_band_equals_dense_tangent_on_study_fingers(name, refinement, rng):
    s = generate(replace(STUDY_FINGERS[name], refinement=refinement)).structure
    for scale in (0.0, 1e-4, 3e-3):
        u = np.zeros(s.n_dof)
        u[s.free_band.order] = rng.uniform(-scale, scale,
                                           size=len(s.free_band.order))
        assert_band_is_dense_lower_band(s, update_member_data(s, u)[0])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(structure=pinned_frames(), seed=st.integers(0, 2**32 - 1))
def test_band_equals_dense_tangent_on_random_frames(structure, seed):
    u = np.random.default_rng(seed).uniform(-0.01, 0.01,
                                            size=structure.n_dof)
    assert_band_is_dense_lower_band(structure,
                                    update_member_data(structure, u)[0])


def test_positive_definite_band_solve_matches_dense_solve(rng):
    # the default finger's tangent at its converged 0.5 N state
    model = generate(FinRayParams())
    s, free = model.structure, model.structure.free_band
    u = solve(s, load_at_contact_node(model, 2, 0.5)).final_displacement
    state = update_member_data(s, u)[0]
    block = dense_tangent(s, state)[np.ix_(free.order, free.order)]
    rhs = rng.standard_normal(len(free.order))
    x, positive_definite = solve_linear(assemble_tangent(s, state), rhs)
    assert positive_definite
    expected = np.linalg.solve(block, rhs)
    assert np.abs(x - expected).max() <= 1e-10 * np.abs(expected).max()


class TestSolveLinear:
    def test_identity(self):
        rhs = np.zeros(4)
        rhs[2] = 1.0
        x, positive_definite = solve_linear(lower_band(np.eye(4)), rhs)
        assert np.allclose(x, rhs, atol=1e-15)
        assert positive_definite

    def test_cantilever_tip_deflection_first_solve(self):
        length = 0.5
        s = build_structure([(0, 0.0, 0.0), (1, length, 0.0)],
                            [(0, 1, props())], {0: FIXED})
        states, _ = update_member_data(s, np.zeros(6))
        free = s.free_band
        k_s = assemble_tangent(s, states)
        f = np.zeros(6)
        load = 0.05
        f[4] = load
        x = np.zeros(6)
        x[free.order], positive_definite = solve_linear(
            k_s, apply_supports(f, free))
        assert positive_definite
        assert x[4] == pytest.approx(load * length**3 / (3 * E_MOD * INERTIA),
                                     rel=1e-10)
        assert x[5] == pytest.approx(load * length**2 / (2 * E_MOD * INERTIA),
                                     rel=1e-10)
        assert np.allclose(x[:3], 0.0, atol=1e-30)

    def test_mechanism_raises_singular(self):
        # free-floating beam: no supports applied at all
        s = single_bar()
        states, _ = update_member_data(s, np.zeros(6))
        k = dense_tangent(s, states)
        with pytest.raises(SingularMatrix):
            solve_linear(lower_band(k), np.zeros(6))

    def test_pivot_test_of_a_pure_row_swap(self):
        # eigenvalues +1 and -1: Cholesky stops at the zero first pivot, so
        # the pivot test finds K not positive definite, and LU exchanges
        # the two rows
        x, positive_definite = solve_linear(
            lower_band(np.array([[0.0, 1.0], [1.0, 0.0]])),
            np.array([2.0, 3.0]))
        assert np.array_equal(x, [3.0, 2.0])
        assert not positive_definite

    # the default finger's tangent at rest, positive definite, and the
    # same less half its largest diagonal entry on the diagonal, which is
    # indefinite and so solved by dgbsv, also at refinement 12 (n 384)
    SHIFTED_BANDS = pytest.mark.parametrize(
        "refinement, shift", [(4, 0.0), (4, 0.5), (12, 0.5)],
        ids=["dpbsv", "dgbsv", "dgbsv-refinement-12"])

    @staticmethod
    def shifted_band(refinement, shift):
        s = generate(FinRayParams(refinement=refinement)).structure
        band = assemble_tangent(s, update_member_data(s, np.zeros(s.n_dof))[0])
        assert band.shape == ((12, 120) if refinement == 4 else (12, 384))
        band[0] -= shift * band[0].max()
        return band

    @SHIFTED_BANDS
    def test_slots_past_the_matrix_are_not_read(self, rng, refinement, shift):
        band = self.shifted_band(refinement, shift)
        offset, column = np.indices(band.shape)
        past = offset + column >= band.shape[1]
        assert past.any() and np.all(band[past] == 0.0)
        poisoned = band.copy()
        poisoned[past] = np.nan
        rhs = rng.standard_normal(band.shape[1])
        x, positive_definite = solve_linear(band, rhs)
        assert positive_definite == (shift == 0)
        x_poisoned, positive_definite_poisoned = solve_linear(poisoned, rhs)
        assert np.array_equal(x_poisoned, x)
        assert positive_definite_poisoned == positive_definite

    @SHIFTED_BANDS
    def test_columns_solve_as_single_right_hand_sides(self, rng, refinement,
                                                      shift):
        # a 2-column solve shares one factorization, and each column must
        # come out as its own solve
        band = self.shifted_band(refinement, shift)
        rhs = rng.standard_normal((band.shape[1], 2))
        x, positive_definite = solve_linear(band, rhs)
        assert x.shape == rhs.shape
        for column in range(2):
            single, single_positive_definite = solve_linear(
                band, rhs[:, column].copy())
            assert np.array_equal(x[:, column], single)
            assert single_positive_definite == positive_definite
        assert positive_definite == (shift == 0)
        if not positive_definite:
            # the LU solve against a dense one; the unshifted tangent's
            # condition number is 5e8, too large for this bound
            lower = band_to_lower(band)
            expected = np.linalg.solve(lower + np.tril(lower, -1).T, rhs)
            assert (np.abs(x - expected).max()
                    <= 1e-12 * np.abs(expected).max())

    @staticmethod
    def counted_dgbsv(monkeypatch):
        calls = []
        exact = assembly.dgbsv

        def counted(*args, **kwargs):
            calls.append(args[2].shape)
            return exact(*args, **kwargs)

        monkeypatch.setattr(assembly, "dgbsv", counted)
        return calls

    @pytest.mark.parametrize("slot, first, lu_calls", [
        ((0, 0), 4.0, 0), ((0, 1), 4.0, 0), ((1, 0), 4.0, 0),
        ((1, 1), -4.0, 1),
    ], ids=["first-pivot", "pivot", "coupling", "after-a-negative-pivot"])
    def test_nan_fails_the_pivot_ratio(self, monkeypatch, slot, first,
                                       lu_calls):
        # banded Cholesky carries a NaN through to the factor's diagonal
        # without stopping; after a negative first pivot LU carries it to
        # U's diagonal; either pivot-ratio test refuses it
        calls = self.counted_dgbsv(monkeypatch)
        band = np.array([[first, 4.0, 4.0], [1.0, 1.0, 0.0]])
        band[slot] = np.nan
        with pytest.raises(SingularMatrix, match="pivot ratio nan"):
            solve_linear(band, np.array([1.0, 2.0, 3.0]))
        assert len(calls) == lu_calls

    @pytest.mark.parametrize("share", [0.999, 1.001], ids=["under", "over"])
    def test_cholesky_pivot_at_the_singular_ratio(self, monkeypatch, share):
        # pivots 1, share * SINGULAR_PIVOT_RATIO and 1: just under the
        # ratio the completed Cholesky factor is refused, with no LU
        # solve; just over it, the Cholesky solve stands
        calls = self.counted_dgbsv(monkeypatch)
        pivot = share * assembly.SINGULAR_PIVOT_RATIO
        band = np.array([[1.0, pivot, 1.0]])
        rhs = np.array([1.0, 2.0, 3.0])
        if share < 1.0:
            with pytest.raises(SingularMatrix, match="pivot ratio 9.990e-13"):
                solve_linear(band, rhs)
        else:
            x, positive_definite = solve_linear(band, rhs)
            assert x == pytest.approx([1.0, 2.0 / pivot, 3.0], rel=1e-14)
            assert positive_definite
        assert calls == []

    @pytest.mark.parametrize("n_negative", [0, 1, 2, 3, 5, 10])
    def test_pivot_test_matches_eigenvalues(self, rng, n_negative):
        # the Cholesky pivot test finds K positive definite exactly when
        # eigvalsh finds no negative eigenvalue, and either factor solves
        n = 30
        for _ in range(20):
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            spectrum = rng.uniform(0.1, 10.0, n)
            spectrum[:n_negative] *= -1.0
            k = (q * spectrum) @ q.T
            k = 0.5 * (k + k.T)
            expected = np.count_nonzero(np.linalg.eigvalsh(k) < 0.0)
            assert expected == n_negative
            x, positive_definite = solve_linear(lower_band(k), np.ones(n))
            assert positive_definite == (expected == 0)
            assert np.allclose(k @ x, 1.0, atol=1e-10)


def test_global_tangent_matches_finite_differences(rng):
    # 4-node frame, 12 DOFs, at a random displaced state
    nodes = [(0, 0.0, 0.0), (1, 0.4, 0.0), (2, 0.8, 0.0), (3, 0.4, 0.3)]
    specs = [(0, 1, props()), (1, 2, props()), (1, 3, props())]
    s = build_structure(nodes, specs, {0: FIXED})
    u = rng.uniform(-0.02, 0.02, size=12)

    k = dense_tangent(s, update_member_data(s, u)[0])
    k_fd = central_difference_jacobian(
        lambda x: update_member_data(s, x)[1], u, 1e-7)
    err = np.linalg.norm(k - k_fd, "fro") / np.linalg.norm(k_fd, "fro")
    assert err < 1e-4, f"relative Frobenius error {err:.3e}"


def rigid_motion(structure, angle, shift):
    """Displacement vector of a rigid turn by angle about the origin plus a
    translation by shift."""
    c, s = math.cos(angle), math.sin(angle)
    x = np.array([(n.x0, n.y0) for n in structure.nodes])
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
        k = dense_tangent(s, state)
        assert np.abs(f_int - f_ref).max() <= 1e-12 * np.abs(f_ref).max()
        assert np.abs(k - k_ref).max() <= 1e-12 * np.abs(k_ref).max()


def test_tangent_basis_rows_are_symmetric():
    # 15 features; each row of K_BASIS is a symmetric 6x6 pattern of small
    # integers, so the tangent is symmetric term by term and exact
    patterns = K_BASIS.reshape(-1, 6, 6)
    assert patterns.shape == (15, 6, 6)
    assert np.array_equal(patterns, patterns.transpose(0, 2, 1))
    assert np.array_equal(K_BASIS, np.round(K_BASIS))
    assert np.all(patterns.any(axis=(1, 2)))


def test_packed_basis_is_the_upper_triangle_of_k_basis():
    # the 21 columns (a, b), a <= b, of K_BASIS, row by row
    upper = [6 * a + b for a in range(6) for b in range(a, 6)]
    assert np.array_equal(assembly._K_PACKED, K_BASIS[:, upper])


@pytest.mark.parametrize("name", STUDY_FINGERS)
def test_element_tangents_are_the_full_product_and_symmetric(rng, name):
    # the 21 packed columns, unpacked, equal the 36-column product of
    # K_BASIS bit for bit, so the band keeps its sums; each k is symmetric
    s = generate(STUDY_FINGERS[name]).structure
    u = rng.uniform(-2e-3, 2e-3, size=s.n_dof)
    u[2::3] *= 100.0
    rows, _ = update_member_data(s, u)
    k = assembly.element_tangent_stiffness(rows)
    assert np.array_equal(k, k.transpose(0, 2, 1))
    factors = rows[assembly._FEATURE_ROWS]
    features = factors[0] * factors[1] * factors[2]
    assert np.array_equal(k.reshape(-1, 36), features.T @ K_BASIS)


def test_one_implementation_per_kernel():
    # one version of each kernel: the solver calls the public ones, which
    # follow the caller's np.errstate
    assert finbeam.solver.update_member_data is assembly.update_member_data
    assert finbeam.solver.assemble_tangent is assembly.assemble_tangent
    for kernel in (assembly.current_geometry, assembly.update_member_data,
                   assembly.element_tangent_stiffness,
                   assembly.assemble_tangent):
        assert not hasattr(kernel, "__wrapped__")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(structure=small_frames(),
       angle=st.floats(-7.0, 7.0),
       shift=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
       seed=st.integers(0, 2**32 - 1))
def test_rigid_motion_is_force_free_and_tangent_symmetric(
        structure, angle, shift, seed):
    u = rigid_motion(structure, angle, np.array(shift))
    _, f_int = update_member_data(structure, u)
    assert np.abs(f_int).max() <= 1e-10
    # N, M1 and M2 of every element
    assert np.abs(element_forces(structure, u)).max() <= 1e-10

    u += np.random.default_rng(seed).uniform(-0.01, 0.01, size=u.size)
    k = dense_tangent(structure, update_member_data(structure, u)[0])
    assert np.abs(k - k.T).max() <= 1e-12 * np.abs(k).max()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(structure=small_frames(),
       angle=st.floats(-7.0, 7.0),
       shift=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
       seed=st.integers(0, 2**32 - 1))
def test_tangent_matches_finite_differences_on_random_frames(
        structure, angle, shift, seed):
    # a rigid motion of any size plus a deformation that stretches and bends
    # every element, so the geometric terms of K are present
    u = rigid_motion(structure, angle, np.array(shift))
    u += np.random.default_rng(seed).uniform(
        [-1e-3, -1e-3, -0.05], [1e-3, 1e-3, 0.05],
        size=(len(structure.nodes), 3)).ravel()
    k = dense_tangent(structure, update_member_data(structure, u)[0])
    # F_int is linear in the nodal rotations, so their columns take a large
    # step, free of truncation error and far above F_int's roundoff
    translation = np.ones(structure.n_dof, dtype=bool)
    translation[2::3] = False
    k_fd = central_difference_jacobian(
        lambda x: update_member_data(structure, x)[1], u,
        np.where(translation, 1e-6, 1e-3))
    # translation and rotation columns each at their own scale, so the
    # bending entries are not hidden under the axial stiffness
    for columns in (translation, ~translation):
        error = np.abs(k - k_fd)[:, columns].max()
        assert error <= 1e-7 * np.abs(k[:, columns]).max()


# LAPACK binding. The test process has imported scipy.linalg already (the
# oracles use scipy), so the fast binding is checked in fresh interpreters.

def fresh_python(*args, **run_kwargs):
    """Run a fresh interpreter that imports this finbeam; subprocess.run's
    result, which checks the exit code unless run_kwargs say check=False."""
    src = str(Path(finbeam.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, timeout=60,
                          **{"check": True, **run_kwargs})


# scipy's LAPACK extension is the one scipy module finbeam loads: the
# package inits of scipy.linalg, scipy.sparse or scipy.sparse.csgraph would
# each cost more than the rest of the start-up
NO_SCIPY_LINALG = """
import sys
for name in ("scipy.linalg", "numpy.testing"):
    assert name not in sys.modules, name
scipy = [name for name in sys.modules if name.split(".")[0] == "scipy"]
assert scipy == ["scipy.linalg._flapack"], scipy
"""
SAME_ROUTINES = """
import scipy.linalg.lapack
from finbeam import assembly
for name in ("dpbsv", "dgbsv"):
    assert getattr(assembly, name) is getattr(scipy.linalg.lapack, name), name
"""

# the path finder finds no extension for finbeam; scipy.linalg's own import,
# once begun, still finds it
HIDE_FLAPACK = """
import importlib.machinery, sys
find_spec = importlib.machinery.PathFinder.find_spec
def hidden(name, path=None, target=None):
    if name == "scipy.linalg._flapack" and "scipy.linalg" not in sys.modules:
        return None
    return find_spec(name, path, target)
importlib.machinery.PathFinder.find_spec = hidden
"""


@pytest.mark.parametrize("script", [
    # scipy.linalg then shares the one extension module finbeam loaded
    "import finbeam" + NO_SCIPY_LINALG + "import finbeam.cli"
    + NO_SCIPY_LINALG + "flapack = sys.modules['scipy.linalg._flapack']"
    + SAME_ROUTINES + "assert scipy.linalg.lapack._flapack is flapack",
    "import scipy.linalg" + SAME_ROUTINES,
    # no extension found: finbeam imports scipy.linalg.lapack itself
    HIDE_FLAPACK + "import finbeam\nassert 'scipy.linalg' in sys.modules"
    + SAME_ROUTINES,
], ids=["finbeam-first", "scipy-linalg-first", "no-extension-file"])
def test_lapack_routines_are_scipy_linalg_lapacks(script):
    fresh_python("-c", script)


def test_lapack_falls_back_to_scipy_linalg_lapack(monkeypatch):
    monkeypatch.setattr(assembly, "_flapack_spec", lambda: None)
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    names = ("dpbsv", "dgbsv")
    for name, routine in zip(names, assembly._lapack(*names)):
        assert routine is getattr(lapack, name)
        monkeypatch.setattr(assembly, name, routine)
    # pinned from the scipy.linalg.lapack binding, bit for bit
    k = (np.diag([4.0, 5.0, 6.0, 7.0])
         + np.diag([-1.0, -1.5, -2.0], 1) + np.diag([-1.0, -1.5, -2.0], -1))
    x, positive_definite = solve_linear(lower_band(k),
                                        np.array([1.0, 2.0, 3.0, 4.0]))
    assert [v.hex() for v in x] == [
        "0x1.c872fc80f89e7p-2", "0x1.90e5f901f13cep-1",
        "0x1.f582e9db7bebcp-1", "0x1.b3dc42d0fed5bp-1"]
    assert positive_definite
    k = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 1.0], [0.0, 1.0, -3.0]])
    x, positive_definite = solve_linear(lower_band(k),
                                        np.array([1.0, 2.0, 3.0]))
    assert x.tolist() == [1.75, -0.375, -1.125]
    assert not positive_definite


def test_fresh_process_sweep_is_byte_identical(tmp_path):
    tilted = [math.cos(math.radians(40.0)), -math.sin(math.radians(40.0))]
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({
        "axis": "n_crossbeams", "values": [2, 3], "load_node_rank": 2,
        "load_magnitudes": [0.3], "load_direction": tilted,
        "solver": {"n_inc": 5},
        "probe": {"f_lo": 0.05, "f_hi": 1.5, "resolution": 0.05}}))
    outputs = []
    for run in ("fresh", "here"):
        (tmp_path / run).mkdir()
        args = ["sweep", str(spec), str(tmp_path / run / "out.csv"),
                "--probe-max-force"]
        if run == "fresh":
            fresh_python("-m", "finbeam", *args)
        else:
            assert cli_main(args) == 0
        outputs.append([(tmp_path / run / name).read_bytes()
                        for name in ("out.csv", "out.summary.json")])
    assert outputs[0] == outputs[1]
