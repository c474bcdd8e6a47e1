"""Global assembly: internal force vector, tangent stiffness, supports, solve.

Element kinematics, local forces and tangents are evaluated as arrays over
all elements at once; the scalar kernels in ``corotational`` are the
per-element reference they are tested against. Fin-Ray scale models have
at most a few hundred DOFs, so the global matrix is kept dense and
factorised directly with partial pivoting.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

# current_geometry and element_tangent_stiffness are not called here; they
# stay importable from this module because bench/tracer.py counts calls to
# them under these names.
from .corotational import (  # noqa: F401
    DegenerateElement,
    current_geometry,
    element_tangent_stiffness,
)
from .model import Structure, SupportSet

# Pivots below this fraction of the largest pivot flag a mechanism or a
# buckled (singular) configuration rather than roundoff.
SINGULAR_PIVOT_RATIO = 1e-12


class SingularMatrix(RuntimeError):
    """The support-modified tangent is singular: mechanism or instability."""


@dataclass(frozen=True)
class ElementState:
    """Geometry and local forces of every element at one displacement state.

    Each field is an (n_elements,) array in element order: the current
    chord length and direction cosines, and the local forces [N, M1, M2].
    """

    length: np.ndarray
    cos_beta: np.ndarray
    sin_beta: np.ndarray
    n_axial: np.ndarray
    m1: np.ndarray
    m2: np.ndarray


def _wrap_angles(angles: np.ndarray) -> np.ndarray:
    """Wrap angles into (-pi, pi], exactly as corotational.wrap_angle.

    fmod is exact, and so is the single shift by tau that follows (the
    operands are within a factor of two of each other).
    """
    wrapped = np.fmod(angles, math.tau)
    wrapped = np.where(wrapped > math.pi, wrapped - math.tau, wrapped)
    return np.where(wrapped <= -math.pi, wrapped + math.tau, wrapped)


# The axial direction vector r = [-c, -s, 0, c, s, 0] and its perpendicular
# z = [s, -c, 0, -s, c, 0] as linear maps of (c, s) = (cos beta, sin beta);
# entries of 0 and +-1 keep the products exact.
_R_OF_CS = np.array([[-1.0, 0.0, 0.0, 1.0, 0.0, 0.0],
                     [0.0, -1.0, 0.0, 0.0, 1.0, 0.0]])
_Z_OF_CS = np.array([[0.0, -1.0, 0.0, 0.0, 1.0, 0.0],
                     [1.0, 0.0, 0.0, -1.0, 0.0, 0.0]])
# The nodal rotation entries of B's two moment rows.
_B_ROTATIONS = np.array([[0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                         [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
                         [0.0, 0.0, 0.0, 0.0, 0.0, 1.0]])


def _element_vectors(
    state: ElementState,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """r and z as (n_elements, 6) arrays, and the (n_elements, 3, 6)
    matrices B = [r; e3 - z/L; e6 - z/L] mapping global increments to
    local ones (see corotational.transformation_matrix)."""
    cs = np.stack([state.cos_beta, state.sin_beta], axis=1)
    r = cs @ _R_OF_CS
    z = cs @ _Z_OF_CS
    w = -z / state.length[:, None]
    return r, z, np.stack([r, w, w], axis=1) + _B_ROTATIONS


def update_member_data(
    structure: Structure,
    displacement: np.ndarray,
) -> tuple[ElementState, np.ndarray]:
    """Refresh every element's geometry/local forces and assemble F_int.

    Gathers all elements' six DOFs at once, computes the chord geometry,
    the wrapped local end rotations and the local forces as arrays, and
    scatter-adds the global internal forces B^T [N, M1, M2] in element
    order. A non-finite displacement yields a non-finite F_int rather than
    an exception, so the solver can end the solve as diverged.
    """
    p = displacement[structure.element_dofs]
    l0 = structure.element_l0
    with np.errstate(invalid="ignore", over="ignore"):
        chord = structure.element_chord0 + (p[:, 3:5] - p[:, 0:2])
        length = np.hypot(chord[:, 0], chord[:, 1])
        degenerate = np.flatnonzero(length <= 1e-14 * l0)
        if degenerate.size:
            index = degenerate[0]
            raise DegenerateElement(
                f"element {index}: displaced nodes coincide (length "
                f"{length[index]:.3e} from l0 {l0[index]:.3e})")
        cos_beta = chord[:, 0] / length
        sin_beta = chord[:, 1] / length
        beta = np.arctan2(sin_beta, cos_beta)

        local = np.empty((len(l0), 3, 1))
        local[:, 0, 0] = length - l0
        local[:, 1:, 0] = _wrap_angles(
            p[:, 2::3] + (structure.element_beta0 - beta)[:, None])
        forces = (structure.element_stiffness @ local)[:, :, 0]
        state = ElementState(length, cos_beta, sin_beta,
                             forces[:, 0], forces[:, 1], forces[:, 2])
        _, _, b = _element_vectors(state)
        q = (forces[:, None, :] @ b)[:, 0, :]
    f_int = np.bincount(structure.element_dofs.ravel(), weights=q.ravel(),
                        minlength=structure.n_dof)
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
    r, z, b = _element_vectors(state)
    k_el = b.transpose(0, 2, 1) @ (structure.element_stiffness @ b)
    length = state.length
    rz = r[:, :, None] * z[:, None, :]
    k_el += (state.n_axial / length)[:, None, None] * (
        z[:, :, None] * z[:, None, :])
    k_el += ((state.m1 + state.m2) / length**2)[:, None, None] * (
        rz + rz.transpose(0, 2, 1))
    n = structure.n_dof
    return np.bincount(structure.element_scatter, weights=k_el.ravel(),
                       minlength=n * n).reshape(n, n)


def apply_supports(k: np.ndarray, supports: SupportSet) -> np.ndarray:
    """Row/column elimination for fixed DOFs.

    Constrained rows and columns are zeroed and the diagonal entry set to 1,
    which keeps the system invertible while forcing zero increments at the
    supports. Unconstrained entries are untouched.
    """
    k_s = k.copy()
    dofs = [d for d in supports.constrained_dofs() if d < k.shape[0]]
    if dofs:
        k_s[dofs, :] = 0.0
        k_s[:, dofs] = 0.0
        k_s[dofs, dofs] = 1.0
    return k_s


def solve_linear(k_s: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Direct dense solve of K_s x = rhs with partial pivoting.

    Raises SingularMatrix when any pivot falls below SINGULAR_PIVOT_RATIO
    of the largest pivot, which signals a mechanism or structural
    instability rather than a solvable system.
    """
    with warnings.catch_warnings():
        # the pivot check below raises SingularMatrix instead
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(k_s, check_finite=False)
    pivots = np.abs(np.diag(lu))
    largest = pivots.max() if pivots.size else 0.0
    if largest == 0.0 or pivots.min() < SINGULAR_PIVOT_RATIO * largest:
        raise SingularMatrix(
            f"pivot ratio {pivots.min() / largest if largest else 0.0:.3e} "
            "below threshold; structure is unstable or a mechanism")
    return lu_solve((lu, piv), rhs, check_finite=False)
