"""Co-rotational beam elements and global assembly: internal force vector,
tangent stiffness, supports, solve.

The motion of each two-node element is split into a rigid rotation of a
local frame that follows the element chord, plus small local deformations
measured in that frame: an axial stretch u_l and two end rotations
(theta_1l, theta_2l). Local constitutive laws then stay linear while the
global kinematics remain exact for arbitrarily large displacements. An
element's six nodal displacements enter as p = [u1, w1, theta1, u2, w2,
theta2].

The kernels work on all elements at once, each quantity a contiguous row
over the elements. Every vector of an element's force and tangent is
linear in x = (1, c, s, c/L, s/L), with (c, s) the chord's direction
cosines and L its length, so F_int is six weights per element times
Q_BASIS and the tangent 15 features (a coefficient times x_i x_j) times
K_BASIS, both fixed at import. K is assembled straight into the lower
band of its free DOFs, in reverse Cuthill-McKee order, and factorised:
by Cholesky when it is positive definite, otherwise as L D L^T, whose
exact inertia is the stability audit. Each public kernel runs
``silenced``; a solver path, silenced once, calls their ``__wrapped__``.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import itertools
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .model import FreeBand, Structure

_FLAPACK = "scipy.linalg._flapack"


def _flapack_file() -> str | None:
    """Path of scipy's compiled LAPACK extension, found without importing
    scipy, or None."""
    spec = importlib.util.find_spec("scipy")
    for root in (spec and spec.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                return path
    return None


def _lapack(*names: str) -> list:
    """scipy's LAPACK routines ``names``, the very objects that
    ``scipy.linalg.lapack`` exports.

    The package init of scipy.linalg takes twice as long as the rest of
    ``import finbeam.cli`` (its array-API layer pulls in numpy.testing,
    numpy.f2py and numpy.ma), so the extension is loaded alone, under its
    own name, where an earlier or later ``import scipy.linalg`` finds it.
    Falls back to ``scipy.linalg.lapack`` when the file is not found.
    """
    module = sys.modules.get(_FLAPACK)
    if module is None:
        path = _flapack_file()
        if path is None:
            from scipy.linalg import lapack as module
        else:
            loader = importlib.machinery.ExtensionFileLoader(_FLAPACK, path)
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_loader(_FLAPACK, loader))
            loader.exec_module(module)
            sys.modules[_FLAPACK] = module
    return [getattr(module, name) for name in names]


dpbsv, dsytrf, dsytrs = _lapack("dpbsv", "dsytrf", "dsytrs")

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


@dataclass(slots=True)
class ElementState:
    """Chords and local forces of every element at one displacement state,
    built by ``update_member_data`` and read by ``assemble_tangent``.

    In element order: ``length`` (n,) the chord lengths L, ``cs`` (n, 4)
    the chord columns (c, s, c/L, s/L) of ``current_geometry``, and
    ``n_axial``, ``m1``, ``m2`` (n,) the local forces [N, M1, M2]; ``cs``
    and ``n_axial`` view ``rows``, the state's filled copy of
    Structure.element_tangent_rows. Derived on access: ``r`` and ``z`` (n, 6), the axial
    directions [-c, -s, 0, c, s, 0] and their perpendiculars, and ``b``
    (n, 3, 6), B = [r; e3 - z/L; e6 - z/L], which maps global increments
    to local ones. Not frozen: a frozen dataclass's __init__ costs four
    times as much, once per Newton iteration."""

    length: np.ndarray
    cs: np.ndarray
    n_axial: np.ndarray
    m1: np.ndarray
    m2: np.ndarray
    rows: np.ndarray

    @property
    def r(self) -> np.ndarray:
        return self.cs[:, :2] @ _R_OF_CS

    @property
    def z(self) -> np.ndarray:
        return self.cs[:, :2] @ _Z_OF_CS

    @property
    def b(self) -> np.ndarray:
        w = -(self.cs[:, 2:] @ _Z_OF_CS)
        return np.stack([self.r, _E3 + w, _E6 + w], axis=1)


def _wrap_angles(angles: np.ndarray) -> np.ndarray:
    """Wrap angles into (-pi, pi] in place and return them. fmod is exact,
    and so is the single shift by tau that follows (the operands are within
    a factor of two of each other); angles inside (-pi, pi) skip both."""
    if np.abs(angles).max(initial=0.0) < math.pi:
        return angles
    np.fmod(angles, math.tau, out=angles)
    angles[angles > math.pi] -= math.tau
    angles[angles <= -math.pi] += math.tau
    return angles


# The axial direction vector r = [-c, -s, 0, c, s, 0] and its perpendicular
# z = [s, -c, 0, -s, c, 0] as linear maps of (c, s) = (cos beta, sin beta).
_R_OF_CS = np.array([[-1.0, 0.0, 0.0, 1.0, 0.0, 0.0],
                     [0.0, -1.0, 0.0, 0.0, 1.0, 0.0]])
_Z_OF_CS = np.array([_R_OF_CS[1], -_R_OF_CS[0]])
_E3, _E6 = np.eye(6)[[2, 5]]
# B^T [N, M1, M2] = N r + M1 (e3 - z/L) + M2 (e6 - z/L)
#                 = [N c, N s, (M1+M2) c/L, (M1+M2) s/L, M1, M2] @ Q_BASIS
Q_BASIS = np.vstack([_R_OF_CS, -_Z_OF_CS, _E3, _E6])
# [N, N, M1+M2, M1+M2, M1, M2] from [EA/L0 u_l, EI/L0 theta_1l,
# EI/L0 theta_2l], by Cl = diag(EA/L0, (EI/L0) [[4, 2], [2, 4]])
_FORCE_ROWS = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 6.0, 6.0],
                        [0.0, 6.0, 6.0], [0.0, 4.0, 2.0], [0.0, 2.0, 4.0]])


def _tangent_basis() -> tuple[np.ndarray, np.ndarray]:
    """The element tangent's features and their flattened 6x6 patterns.

    A vector is held as {i: its coefficient vector of x_i}, so a term
    a u v^T adds a x_i x_j outer(u_i, v_j) for every i and j. Monomials
    with equal powers of c, s and 1/L are one number and share one basis
    row: x_i x_j with x_j x_i, and c (s/L) with s (c/L). Each term is
    symmetric for every chord, so each row is too. Returns the features'
    (coefficient, x_i, x_j) as numbers of the rows (EA/L0, EI/L0, EI/L0,
    N, M1+M2, 1, c, s, c/L, s/L), and the basis, of small exact
    integers."""
    (r0, r1), (z0, z1) = _R_OF_CS, _Z_OF_CS
    r, z = {1: r0, 2: r1}, {1: z0, 2: z1}
    r_l, z_l = {3: r0, 4: r1}, {3: z0, 4: z1}   # r/L and z/L
    b2, b3 = {0: _E3, 3: -z0, 4: -z1}, {0: _E6, 3: -z0, 4: -z1}
    terms = ([(1, r, r)], [(4, b2, b2), (2, b2, b3), (2, b3, b2), (4, b3, b3)],
             [(1, z, z_l)], [(1, r_l, z_l), (1, z_l, r_l)])
    powers = np.array([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)])
    rows: dict[tuple, tuple] = {}
    for coefficient, pattern in zip((0, 1, 3, 4), terms):
        for weight, u, v in pattern:
            for (i, u_i), (j, v_j) in itertools.product(u.items(), v.items()):
                key = (coefficient, *(powers[i] + powers[j]))
                block = rows.setdefault(key, ((coefficient, 5 + i, 5 + j),
                                              np.zeros((6, 6))))[1]
                block += weight * np.outer(u_i, v_j)
    features, blocks = zip(*rows.values())
    return np.array(features).T, np.array(blocks).reshape(len(blocks), 36)


_FEATURE_ROWS, K_BASIS = _tangent_basis()


def silenced(body):
    """``body`` inside np.errstate(over="ignore", invalid="ignore")."""
    def wrapper(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore"):
            return body(*args, **kwargs)
    return functools.update_wrapper(wrapper, body)


def current_geometry(
    structure: Structure,
    p: np.ndarray,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Chord lengths and orientations of every displaced element.

    ``p`` is (n_elements, 6), each element's nodal displacements. The chord
    is the reference chord plus the relative nodal translations; nodal
    rotations do not move it. Returns the (n_elements,) lengths L and the
    column-major (n_elements, 4) columns (c, s, c/L, s/L), (c, s) the
    direction cosines, transposed from ``out`` if given. Raises
    DegenerateElement when an element's displaced nodes (nearly) coincide.
    A non-finite displacement gives non-finite geometry and warnings.
    """
    chord = structure.element_chord0.T + (p.T[3:5] - p.T[:2])
    length = np.hypot(chord[0], chord[1])
    degenerate = length <= structure.element_min_length
    if np.count_nonzero(degenerate):  # a C count, where any() is a reduction
        index = np.flatnonzero(degenerate)[0]
        raise DegenerateElement(
            f"element {index}: displaced nodes coincide (length "
            f"{length[index]:.3e} from l0 "
            f"{structure.element_l0[index]:.3e})")
    columns = np.empty((4, len(length))) if out is None else out
    np.divide(chord, length, out=columns[:2])
    np.divide(columns[:2], length, out=columns[2:])
    return length, columns.T


@silenced
def update_member_data(
    structure: Structure,
    displacement: np.ndarray,
) -> tuple[ElementState, np.ndarray]:
    """Refresh every element's chord and local forces; assemble F_int.

    The local deformations are the stretch u_l = L - L0 and the end
    rotations less the chord's rigid turn beta - beta0, wrapped into
    (-pi, pi]; [N, M1, M2] = Cl [u_l, theta_1l, theta_2l] (Cl: see
    Structure.element_moduli), written with the chords into the state's
    tangent rows. Each element's B^T [N, M1, M2] is [N c, N s, (M1+M2) c/L,
    (M1+M2) s/L, M1, M2] @ Q_BASIS, scatter-added in element order. A
    non-finite displacement gives a non-finite F_int, not an exception.
    """
    p = displacement[structure.element_dof_rows]
    rows = structure.element_tangent_rows.copy()
    length, cs = current_geometry(structure, p.T, rows[6:])
    beta = np.arctan2(cs[:, 1], cs[:, 0])
    local = np.empty((3, len(length)))  # u_l, theta_1l, theta_2l
    np.subtract(length, structure.element_l0, out=local[0])
    np.add(p[2::3], structure.element_beta0 - beta, out=local[1:])
    _wrap_angles(local[1:])
    local *= rows[:3]  # local[0] is now N
    rows[3] = local[0]
    weights = _FORCE_ROWS @ local  # [N, N, M1+M2, M1+M2, M1, M2]
    np.add(weights[4], weights[5], out=rows[4])
    state = ElementState(length, cs, rows[3], weights[4], weights[5], rows)
    weights[:4] *= cs.T
    q = weights.T @ Q_BASIS
    f_int = np.bincount(structure.element_dofs.ravel(), weights=q.ravel(),
                        minlength=structure.n_dof)
    return state, f_int


@silenced
def element_tangent_stiffness(
    structure: Structure,
    state: ElementState,
) -> np.ndarray:
    """(n_elements, 6, 6) consistent tangents, the exact Jacobians of the
    element forces: k = B^T Cl B + (N/L) z z^T + ((M1+M2)/L^2)(r z^T + z r^T),
    with Cl from L0 and the geometric terms from L. With b2 = e3 - z/L and
    b3 = e6 - z/L, B's rows below r, this is

    (EA/L0) r r^T + (EI/L0) [4 b2 b2^T + 2 (b2 b3^T + b3 b2^T) + 4 b3 b3^T]
        + N z (z/L)^T + (M1+M2) [(r/L)(z/L)^T + (z/L)(r/L)^T],

    a bilinear form in x = (1, c, s, c/L, s/L): (n_elements, 15) features,
    each a coefficient times x_i x_j, times the (15, 36) symmetric patterns
    of K_BASIS (see _tangent_basis). Pin-ended elements have EI/L0 = 0 and
    M1 = M2 = 0. An overflowed feature gives a non-finite k, not a warning.
    """
    # half the cost of state.rows[_FEATURE_ROWS]
    factors = state.rows.take(_FEATURE_ROWS, axis=0)
    features = factors[0] * factors[1]
    features *= factors[2]
    return (features.T @ K_BASIS).reshape(len(state.length), 6, 6)


_element_tangents = element_tangent_stiffness.__wrapped__


@silenced
def assemble_tangent(
    structure: Structure,
    state: ElementState,
) -> np.ndarray:
    """Consistent tangent of the free DOFs in LAPACK's lower band storage,
    (bandwidth + 1, n_free) in band order (see Structure.free_band).

    Every element's tangent from ``element_tangent_stiffness`` is
    scatter-added straight into its band slots in element order, so the
    summation order and the result are deterministic. The fixed DOFs'
    rows and columns are left out, so supports need no zero-and-one rows;
    the slots past the matrix, which LAPACK does not read, hold 0.
    """
    band = structure.free_band
    n_free = len(band.order)
    size = (band.bandwidth + 1) * n_free
    k_el = _element_tangents(structure, state)
    slots = np.bincount(band.slots, weights=k_el.ravel(), minlength=size + 1)
    return slots[:size].reshape(n_free, -1).T


def apply_supports(vector: np.ndarray, band: FreeBand) -> np.ndarray:
    """The free entries of a global vector in band order, the right-hand
    side of the band system that ``assemble_tangent`` returns."""
    return vector[band.order]


def solve_linear(band: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, int]:
    """Direct solve of the symmetric system K x = rhs, K held as a band.

    ``band`` is K in LAPACK's lower band storage, (bandwidth + 1, n) with
    band[r, j] = K[j + r, j]; the slots with j + r >= n are not read.
    ``rhs`` is one right-hand side (n,) or k of them as columns (n, k),
    all solved from one factorization; each column of x equals, bit for
    bit, the solve of that column alone. Returns x, shaped like rhs, and
    the number of negative eigenvalues of K.

    K is first factorised and solved by banded Cholesky in one LAPACK call
    (dpbsv). When that succeeds and every pivot L_jj^2 is at least
    SINGULAR_PIVOT_RATIO of the largest, K is positive definite, with no
    negative eigenvalue. Any other K (indefinite, near singular or not
    finite) is expanded to its dense lower triangle and factorised as
    L D L^T with Bunch-Kaufman pivoting (LAPACK dsytrf). The count is then
    that of the block-diagonal D, by Sylvester's law of inertia; each 2x2
    block of D has a negative determinant and so one eigenvalue of each
    sign. Raises SingularMatrix when an eigenvalue of D falls below
    SINGULAR_PIVOT_RATIO of the largest, which signals a mechanism or
    structural instability.
    """
    factor, x, info = dpbsv(band, rhs, lower=1)
    diagonal = factor[0]
    # a NaN fails the comparison and so takes the L D L^T path
    if info == 0 and (diagonal.min()
                      >= _SINGULAR_CHOLESKY_RATIO * diagonal.max()):
        return x, 0

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
    # one dsytrs call per column: a multi-column call blocks its updates
    # differently and so rounds differently from a single column
    columns = [dsytrs(ldu, ipiv, column, lower=1)[0]
               for column in rhs.reshape(len(rhs), -1).T]
    x = np.stack(columns, axis=-1).reshape(rhs.shape)
    return x, np.count_nonzero(eigenvalues < 0)
