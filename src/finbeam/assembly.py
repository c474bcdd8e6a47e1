"""Co-rotational beam elements and global assembly: internal force vector,
tangent stiffness, supports, solve.

The motion of each two-node element is split into a rigid rotation of a
local frame that follows the element chord, plus small local deformations
measured in that frame: an axial stretch u_l and two end rotations
(theta_1l, theta_2l). Local constitutive laws then stay linear while the
global kinematics remain exact for arbitrarily large displacements. An
element's six nodal displacements enter as p = [u1, w1, theta1, u2, w2,
theta2].

The element kernels work on arrays of all elements at once.
``update_member_data`` computes each state's chords (``current_geometry``),
kinematics (r, z and B) and local forces once, into an ``ElementState``;
``assemble_tangent`` scatters the element tangents that
``element_tangent_stiffness`` builds from it, without recomputing any
geometry. Fin-Ray scale models have at most a few hundred DOFs, so K is
assembled dense. Only its free-DOF block is factorised, as a band in
reverse Cuthill-McKee order: by Cholesky when it is positive definite,
otherwise as L D L^T, whose exact inertia is the stability audit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs, dsytrf, dsytrs

from .model import FreeBand, Structure

# Pivots below this fraction of the largest pivot flag a mechanism or a
# buckled (singular) configuration rather than roundoff.
SINGULAR_PIVOT_RATIO = 1e-12
# The same bound on the Cholesky factor's diagonal L_jj, whose squares are
# the pivots; comparing L_jj itself cannot overflow.
_SINGULAR_CHOLESKY_RATIO = math.sqrt(SINGULAR_PIVOT_RATIO)


class SingularMatrix(RuntimeError):
    """The free-DOF tangent is singular: mechanism or instability."""


class DegenerateElement(RuntimeError):
    """The two displaced nodes of an element (nearly) coincide."""


@dataclass(frozen=True)
class ElementState:
    """Kinematics and local forces of every element at one displacement state.

    ``update_member_data`` builds it once per state; ``assemble_tangent``
    reads it without recomputing any geometry. In element order:

    - ``length``, ``n_axial``, ``m1``, ``m2``: (n_elements,) arrays of the
      current chord length and the local forces [N, M1, M2];
    - ``r``, ``z``: (n_elements, 6) axial direction vectors
      r = [-c, -s, 0, c, s, 0] and their perpendiculars
      z = [s, -c, 0, -s, c, 0], with (c, s) the chord's direction cosines;
    - ``b``: (n_elements, 3, 6) matrices B = [r; e3 - z/L; e6 - z/L] that
      map global increments to local ones: row 1 is the axial direction,
      rows 2 and 3 subtract the chord rotation increment from each nodal
      rotation increment.
    """

    length: np.ndarray
    r: np.ndarray
    z: np.ndarray
    b: np.ndarray
    n_axial: np.ndarray
    m1: np.ndarray
    m2: np.ndarray


def _wrap_angles(angles: np.ndarray) -> np.ndarray:
    """Wrap angles into (-pi, pi] in place and return them.

    fmod is exact, and so is the single shift by tau that follows (the
    operands are within a factor of two of each other).
    """
    np.fmod(angles, math.tau, out=angles)
    angles[angles > math.pi] -= math.tau
    angles[angles <= -math.pi] += math.tau
    return angles


# The axial direction vector r = [-c, -s, 0, c, s, 0] and its perpendicular
# z = [s, -c, 0, -s, c, 0] as linear maps of (c, s) = (cos beta, sin beta).
_R_OF_CS = np.array([[-1.0, 0.0, 0.0, 1.0, 0.0, 0.0],
                     [0.0, -1.0, 0.0, 0.0, 1.0, 0.0]])
_Z_OF_CS = np.array([[0.0, -1.0, 0.0, 0.0, 1.0, 0.0],
                     [1.0, 0.0, 0.0, -1.0, 0.0, 0.0]])
# The nodal rotation entries of B's two moment rows.
_B_ROTATIONS = np.array([[0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                         [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
                         [0.0, 0.0, 0.0, 0.0, 0.0, 1.0]])
# [z | B] with B = [r; w; w] flattened and w = -z/L, as one linear map of
# (c, s, c/L, s/L) plus the constant rotation entries. Entries of 0 and +-1
# keep the product exact.
_ZERO = np.zeros((2, 6))
_KINEMATICS = np.block([[_Z_OF_CS, _R_OF_CS, _ZERO, _ZERO],
                        [_ZERO, _ZERO, -_Z_OF_CS, -_Z_OF_CS]])
_KINEMATICS_CONSTANT = np.concatenate([np.zeros(6), _B_ROTATIONS.ravel()])


def current_geometry(
    structure: Structure,
    p: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Chord lengths and orientations of every displaced element.

    ``p`` is (n_elements, 6), each element's nodal displacements. The chord
    is the reference chord plus the relative nodal translations; nodal
    rotations do not move it. Returns the (n_elements,) lengths L and the
    (n_elements, 4) columns (c, s, c/L, s/L), with (c, s) the chord's
    direction cosines. Raises DegenerateElement when an element's displaced
    nodes (nearly) coincide. A non-finite displacement gives non-finite
    geometry (and numpy's warnings, which update_member_data silences).
    """
    l0 = structure.element_l0
    chord = structure.element_chord0 + (p[:, 3:5] - p[:, 0:2])
    length = np.hypot(chord[:, 0], chord[:, 1])
    degenerate = length <= 1e-14 * l0
    if degenerate.any():
        index = np.flatnonzero(degenerate)[0]
        raise DegenerateElement(
            f"element {index}: displaced nodes coincide (length "
            f"{length[index]:.3e} from l0 {l0[index]:.3e})")
    cs = np.empty((len(l0), 4))
    np.divide(chord, length[:, None], out=cs[:, :2])
    np.divide(cs[:, :2], length[:, None], out=cs[:, 2:])
    return length, cs


def update_member_data(
    structure: Structure,
    displacement: np.ndarray,
) -> tuple[ElementState, np.ndarray]:
    """Refresh every element's kinematics/local forces and assemble F_int.

    Gathers all elements' six DOFs at once, takes the chords from
    ``current_geometry`` and computes r, z, B, the local deformations and
    the local forces [N, M1, M2] = Cl [u_l, theta_1l, theta_2l] as arrays
    (Cl: see Structure.element_stiffness). The stretch is u_l = L - L0;
    the end rotations lose the rigid chord rotation beta - beta0 and are
    wrapped into (-pi, pi], so elements stay valid through arbitrarily
    large rigid turns. The global internal forces B^T [N, M1, M2] are
    scatter-added in element order. A non-finite displacement yields a
    non-finite F_int rather than an exception, so the solver can end the
    solve as diverged.
    """
    p = displacement[structure.element_dofs]
    with np.errstate(invalid="ignore", over="ignore"):
        length, cs = current_geometry(structure, p)
        n_el = len(length)
        kinematics = cs @ _KINEMATICS
        kinematics += _KINEMATICS_CONSTANT
        z = kinematics[:, :6]
        b = kinematics[:, 6:].reshape(n_el, 3, 6)
        beta = np.arctan2(cs[:, 1], cs[:, 0])

        local = np.empty((n_el, 3, 1))
        local[:, 0, 0] = length - structure.element_l0
        local[:, 1:, 0] = _wrap_angles(
            p[:, 2::3] + (structure.element_beta0 - beta)[:, None])
        forces = (structure.element_stiffness @ local)[:, :, 0]
        q = (forces[:, None, :] @ b)[:, 0, :]
    f_int = np.bincount(structure.element_dofs.ravel(), weights=q.ravel(),
                        minlength=structure.n_dof)
    state = ElementState(length, b[:, 0, :], z, b,
                         forces[:, 0], forces[:, 1], forces[:, 2])
    return state, f_int


def element_tangent_stiffness(
    structure: Structure,
    state: ElementState,
) -> np.ndarray:
    """(n_elements, 6, 6) consistent tangents, the exact Jacobians of each
    element's global internal force:

    k = B^T Cl B + (N/L) z z^T + ((M1+M2)/L^2) (r z^T + z r^T)

    with r the axial direction vector, z its in-plane perpendicular and Cl
    the local material stiffness. The material part uses the reference
    length L0; the geometric terms use the current length L. For pin-ended
    elements the rotational block of Cl vanishes and M1 = M2 = 0, leaving
    the bar tangent (EA/L0) r r^T + (N/L) z z^T.
    """
    r, z, b = state.r, state.z, state.b
    k_el = b.transpose(0, 2, 1) @ (structure.element_stiffness @ b)
    length = state.length
    # one-term matmuls form the outer products exactly, and faster than
    # broadcasting does
    rz = r[:, :, None] @ z[:, None, :]
    k_el += (state.n_axial / length)[:, None, None] * (
        z[:, :, None] @ z[:, None, :])
    # a far overstretched element's L^2 overflows; its moment term is then 0
    with np.errstate(over="ignore"):
        bending = (state.m1 + state.m2) / length**2
    k_el += bending[:, None, None] * (rz + rz.transpose(0, 2, 1))
    return k_el


def assemble_tangent(
    structure: Structure,
    state: ElementState,
) -> np.ndarray:
    """Consistent global tangent K: every element's tangent from
    ``element_tangent_stiffness``, scatter-added in element order, so the
    summation order and the result are deterministic."""
    k_el = element_tangent_stiffness(structure, state)
    n = structure.n_dof
    return np.bincount(structure.element_scatter, weights=k_el.ravel(),
                       minlength=n * n).reshape(n, n)


def apply_supports(k: np.ndarray, band: FreeBand) -> np.ndarray:
    """The free-DOF block of K as a lower band in band order.

    One gather through ``band.gather`` (see FreeBand): the fixed DOFs'
    rows and columns are left out, so supports need no zero-and-one rows,
    and the result is ready for LAPACK's band routines.
    """
    return k.ravel()[band.gather]


def solve_linear(band: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, int]:
    """Direct solve of the symmetric system K x = rhs, K held as a band.

    ``band`` is K in LAPACK's lower band storage, (bandwidth + 1, n) with
    band[r, j] = K[j + r, j]; the slots with j + r >= n are not read.
    Returns x and the number of negative eigenvalues of K.

    K is first factorised by banded Cholesky (LAPACK dpbtrf) and solved
    with dpbtrs when that succeeds and every pivot L_jj^2 is at least
    SINGULAR_PIVOT_RATIO of the largest: K is then positive definite, with
    no negative eigenvalue. Any other K (indefinite, near singular or not
    finite) is expanded to its dense lower triangle and factorised as
    L D L^T with Bunch-Kaufman pivoting (LAPACK dsytrf). The count is then
    that of the block-diagonal D, by Sylvester's law of inertia; each 2x2
    block of D has a negative determinant and so one eigenvalue of each
    sign. Raises SingularMatrix when an eigenvalue of D falls below
    SINGULAR_PIVOT_RATIO of the largest, which signals a mechanism or
    structural instability.
    """
    factor, info = dpbtrf(band, lower=1)
    diagonal = factor[0]
    if info == 0 and np.all(diagonal >= _SINGULAR_CHOLESKY_RATIO
                            * diagonal.max(initial=0.0)):
        return dpbtrs(factor, rhs, lower=1)[0], 0

    offset, column = np.indices(band.shape)
    row = offset + column
    inside = row < band.shape[1]
    lower = np.zeros((band.shape[1], band.shape[1]))
    lower[row[inside], column[inside]] = band[inside]
    ldu, ipiv, info = dsytrf(lower, lower=1)
    eigenvalues = np.diagonal(ldu)
    # ipiv[k] == ipiv[k + 1] < 0 marks a 2x2 block of D in rows k and k + 1
    two_by_two = ipiv < 0
    if two_by_two.any():
        eigenvalues = eigenvalues.copy()
        blocks = np.flatnonzero(two_by_two).reshape(-1, 2)
        eigenvalues[blocks] = np.linalg.eigvalsh(
            ldu[blocks[:, :, None], blocks[:, None, :]])
    pivots = np.abs(eigenvalues)
    largest = pivots.max() if pivots.size else 0.0
    if info > 0 or largest == 0.0 or (
            pivots.min() < SINGULAR_PIVOT_RATIO * largest):
        raise SingularMatrix(
            f"pivot ratio {pivots.min() / largest if largest else 0.0:.3e} "
            "below threshold; structure is unstable or a mechanism")
    x, _ = dsytrs(ldu, ipiv, rhs, lower=1)
    return x, np.count_nonzero(eigenvalues < 0)
