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
over the elements; ten such rows are an element state (see
update_member_data). Every vector of an element's force and tangent is
linear in x = (1, c, s, c/L, s/L), with (c, s) the chord's direction
cosines and L its length, so F_int is six weights per element times
Q_BASIS and the tangent 15 features (a coefficient times x_i x_j) times
K_BASIS, both fixed at import. K is assembled straight into the lower
band of its free DOFs, in reverse Cuthill-McKee order, and factorised:
by Cholesky when it is positive definite, otherwise by LU with partial
pivoting; whether Cholesky succeeds is the stability audit. The kernels
follow the caller's np.errstate on an overflowing or non-finite state.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import itertools
import math
import os
import sys

import numpy as np

from .model import FreeBand, Structure

_FLAPACK = "scipy.linalg._flapack"


def _flapack_spec() -> importlib.machinery.ModuleSpec | None:
    """The path finder's spec of scipy's compiled LAPACK extension in
    scipy's linalg directories, found without importing scipy, or None."""
    scipy = importlib.util.find_spec("scipy")
    roots = (scipy and scipy.submodule_search_locations) or ()
    return importlib.machinery.PathFinder.find_spec(
        _FLAPACK, [os.path.join(root, "linalg") for root in roots])


def _lapack(*names: str) -> list:
    """scipy's LAPACK routines ``names``, the very objects that
    ``scipy.linalg.lapack`` exports.

    The package init of scipy.linalg takes twice as long as the rest of
    ``import finbeam.cli`` (its array-API layer pulls in numpy.testing,
    numpy.f2py and numpy.ma), so the extension that _flapack_spec finds is
    loaded alone, under its own name, where an earlier or later
    ``import scipy.linalg`` finds it. Falls back to ``scipy.linalg.lapack``
    when the path finder finds no extension.
    """
    module = sys.modules.get(_FLAPACK)
    if module is None:
        spec = _flapack_spec()
        if spec is None:
            from scipy.linalg import lapack as module
        else:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[_FLAPACK] = module
    return [getattr(module, name) for name in names]


dpbsv, dgbsv = _lapack("dpbsv", "dgbsv")

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
    A non-finite displacement gives non-finite geometry.
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


def update_member_data(
    structure: Structure,
    displacement: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Every element's state at a displacement, and F_int. The state is
    one (10, n_elements) array, the filled copy of
    Structure.element_tangent_rows: the rows (EA/L0, EI/L0, EI/L0, N,
    M1+M2, 1, c, s, c/L, s/L) in element order, rows 6-9 the chord columns
    of current_geometry.

    The local deformations are the stretch u_l = L - L0 and the end
    rotations less the chord's rigid turn beta - beta0, wrapped into
    (-pi, pi]; [N, M1, M2] = Cl [u_l, theta_1l, theta_2l], with
    Cl = diag(EA/L0, (EI/L0) [[4, 2], [2, 4]]). Each element's
    B^T [N, M1, M2] is [N c, N s, (M1+M2) c/L, (M1+M2) s/L, M1, M2]
    @ Q_BASIS, scatter-added in element order. A non-finite displacement
    gives a non-finite F_int.
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
    weights[:4] *= cs.T
    q = weights.T @ Q_BASIS
    f_int = np.bincount(structure.element_dofs.ravel(), weights=q.ravel(),
                        minlength=structure.n_dof)
    return rows, f_int


def element_tangent_stiffness(rows: np.ndarray) -> np.ndarray:
    """(n_elements, 6, 6) consistent tangents of the element state ``rows``
    (see update_member_data), the exact Jacobians of the element forces:
    k = B^T Cl B + (N/L) z z^T + ((M1+M2)/L^2)(r z^T + z r^T), with Cl
    from L0 and the geometric terms from L. With b2 = e3 - z/L and
    b3 = e6 - z/L, B's rows below r, this is

    (EA/L0) r r^T + (EI/L0) [4 b2 b2^T + 2 (b2 b3^T + b3 b2^T) + 4 b3 b3^T]
        + N z (z/L)^T + (M1+M2) [(r/L)(z/L)^T + (z/L)(r/L)^T],

    a bilinear form in x = (1, c, s, c/L, s/L): (n_elements, 15) features,
    each a coefficient times x_i x_j, times the (15, 36) symmetric patterns
    of K_BASIS (see _tangent_basis). Pin-ended elements have EI/L0 = 0 and
    M1 = M2 = 0. An overflowed feature gives a non-finite k.
    """
    # half the cost of rows[_FEATURE_ROWS]
    factors = rows.take(_FEATURE_ROWS, axis=0)
    features = factors[0] * factors[1]
    features *= factors[2]
    return (features.T @ K_BASIS).reshape(rows.shape[1], 6, 6)


def assemble_tangent(structure: Structure, rows: np.ndarray) -> np.ndarray:
    """Consistent tangent of the free DOFs at the element state ``rows``
    (see update_member_data), in LAPACK's lower band storage,
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
    k_el = element_tangent_stiffness(rows)
    slots = np.bincount(band.slots, weights=k_el.ravel(), minlength=size + 1)
    return slots[:size].reshape(n_free, -1).T


def apply_supports(vector: np.ndarray, band: FreeBand) -> np.ndarray:
    """The free entries of a global vector in band order, the right-hand
    side of the band system that ``assemble_tangent`` returns."""
    return vector[band.order]


def solve_linear(band: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, bool]:
    """Direct solve of the symmetric system K x = rhs, K held as a band.

    ``band`` is K in LAPACK's lower band storage, (bandwidth + 1, n) with
    band[r, j] = K[j + r, j]; the slots with j + r >= n are not read.
    ``rhs`` is one right-hand side (n,) or k of them as columns (n, k),
    all solved from one factorization; each column of x equals, bit for
    bit, the solve of that column alone. Returns x, shaped like rhs, and
    whether K is positive definite.

    K is first factorised and solved by banded Cholesky in one LAPACK call
    (dpbsv). When that factor completes, K is positive definite, unless a
    pivot L_jj^2 falls below SINGULAR_PIVOT_RATIO of the largest. When it
    stops at a pivot that is not positive (K indefinite or singular), K is
    solved by banded LU with partial pivoting (dgbsv, Golub & Van Loan
    2013, section 4.3) and is not positive definite. That is a pivot test,
    not an eigenvalue test: it says that K has a non-positive eigenvalue,
    not how many. Raises SingularMatrix, which signals a mechanism or
    structural instability, when a pivot of either factor, L_jj^2 or
    |U_jj|, is zero, below SINGULAR_PIVOT_RATIO of the largest or not a
    number.
    """
    factor, x, info = dpbsv(band, rhs, lower=1)
    if info == 0:
        diagonal = factor[0]
        # a NaN fails the comparison
        if diagonal.min() >= _SINGULAR_CHOLESKY_RATIO * diagonal.max():
            return x, True
        ratio = (diagonal.min() / diagonal.max()) ** 2
    else:
        # LAPACK's general band storage: K[i, j] in row 2 bw + i - j, the
        # bw rows above it left for the fill-in of the row exchanges
        bandwidth, n = band.shape[0] - 1, band.shape[1]
        general = np.zeros((3 * bandwidth + 1, n))
        for r in range(bandwidth + 1):
            general[2 * bandwidth + r, :n - r] = band[r, :n - r]
            general[2 * bandwidth - r, r:] = band[r, :n - r]
        lu, _, x, info = dgbsv(bandwidth, bandwidth, general, rhs)
        pivots = np.abs(lu[2 * bandwidth])
        ratio = pivots.min() / pivots.max() if info == 0 else 0.0
        if ratio >= SINGULAR_PIVOT_RATIO:
            return x, False
    raise SingularMatrix(
        f"pivot ratio {ratio:.3e} below threshold; structure is unstable or "
        "a mechanism")
