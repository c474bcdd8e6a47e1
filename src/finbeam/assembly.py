"""Global assembly: internal force vector, tangent stiffness, supports, solve.

Element kinematics, local forces and tangents are evaluated as arrays over
all elements at once; the scalar kernels in ``corotational`` are the
per-element reference they are tested against. ``update_member_data``
computes each displacement state's kinematics (r, z and B) and local forces
once, into an ``ElementState``; ``assemble_tangent`` reads that state and
recomputes no geometry. Fin-Ray scale models have at most a few hundred
DOFs, so K is assembled dense. Only its free-DOF block is factorised, as a
band in reverse Cuthill-McKee order: by Cholesky when it is positive
definite, otherwise as L D L^T, whose exact inertia is the stability audit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs, dsytrf, dsytrs

# current_geometry and element_tangent_stiffness are not called here; they
# stay importable from this module because bench/tracer.py counts calls to
# them under these names.
from .corotational import (  # noqa: F401
    DegenerateElement,
    current_geometry,
    element_tangent_stiffness,
)
from .model import FreeBand, Structure

# Pivots below this fraction of the largest pivot flag a mechanism or a
# buckled (singular) configuration rather than roundoff.
SINGULAR_PIVOT_RATIO = 1e-12
# The same bound on the Cholesky factor's diagonal L_jj, whose squares are
# the pivots; comparing L_jj itself cannot overflow.
_SINGULAR_CHOLESKY_RATIO = math.sqrt(SINGULAR_PIVOT_RATIO)


class SingularMatrix(RuntimeError):
    """The free-DOF tangent is singular: mechanism or instability."""


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
      map global increments to local ones (see
      corotational.transformation_matrix).
    """

    length: np.ndarray
    r: np.ndarray
    z: np.ndarray
    b: np.ndarray
    n_axial: np.ndarray
    m1: np.ndarray
    m2: np.ndarray


def _wrap_angles(angles: np.ndarray) -> np.ndarray:
    """Wrap angles into (-pi, pi] in place, exactly as
    corotational.wrap_angle, and return them.

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


def update_member_data(
    structure: Structure,
    displacement: np.ndarray,
) -> tuple[ElementState, np.ndarray]:
    """Refresh every element's kinematics/local forces and assemble F_int.

    Gathers all elements' six DOFs at once, computes the chord geometry,
    r, z and B, the wrapped local end rotations and the local forces as
    arrays, and scatter-adds the global internal forces B^T [N, M1, M2] in
    element order. A non-finite displacement yields a non-finite F_int
    rather than an exception, so the solver can end the solve as diverged.
    """
    p = displacement[structure.element_dofs]
    l0 = structure.element_l0
    n_el = len(l0)
    with np.errstate(invalid="ignore", over="ignore"):
        chord = structure.element_chord0 + (p[:, 3:5] - p[:, 0:2])
        length = np.hypot(chord[:, 0], chord[:, 1])
        degenerate = length <= 1e-14 * l0
        if degenerate.any():
            index = np.flatnonzero(degenerate)[0]
            raise DegenerateElement(
                f"element {index}: displaced nodes coincide (length "
                f"{length[index]:.3e} from l0 {l0[index]:.3e})")
        # (c, s, c/L, s/L)
        cs = np.empty((n_el, 4))
        np.divide(chord, length[:, None], out=cs[:, :2])
        np.divide(cs[:, :2], length[:, None], out=cs[:, 2:])
        kinematics = cs @ _KINEMATICS
        kinematics += _KINEMATICS_CONSTANT
        z = kinematics[:, :6]
        b = kinematics[:, 6:].reshape(n_el, 3, 6)
        beta = np.arctan2(cs[:, 1], cs[:, 0])

        local = np.empty((n_el, 3, 1))
        local[:, 0, 0] = length - l0
        local[:, 1:, 0] = _wrap_angles(
            p[:, 2::3] + (structure.element_beta0 - beta)[:, None])
        forces = (structure.element_stiffness @ local)[:, :, 0]
        q = (forces[:, None, :] @ b)[:, 0, :]
    f_int = np.bincount(structure.element_dofs.ravel(), weights=q.ravel(),
                        minlength=structure.n_dof)
    state = ElementState(length, b[:, 0, :], z, b,
                         forces[:, 0], forces[:, 1], forces[:, 2])
    return state, f_int


def assemble_tangent(
    structure: Structure,
    state: ElementState,
) -> np.ndarray:
    """Consistent global tangent K from every element's 6x6 tangent

    k = B^T Cl B + (N/L) z z^T + ((M1+M2)/L^2) (r z^T + z r^T),

    evaluated for all elements at once (see
    corotational.element_tangent_stiffness) and scatter-added in element
    order, so the summation order and the result are deterministic.
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
