"""Independent reference solutions used to cross-check the solver.

These are deliberately built on different numerics than the package under
test: the large-deflection benchmark integrates the inextensible-rod ODE
with an adaptive Runge-Kutta scheme plus curvature shooting, tangent
matrices are checked against plain central differences, and the batched
element kernels against a scalar co-rotational element evaluated one
element at a time. Nothing here imports from ``finbeam``.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq


def elastica_cantilever_tip(alpha):
    """Dimensionless tip position of a clamped-free inextensible rod.

    The rod lies along +x, is clamped at arc length 0 and carries a
    transverse point load at the free end with ``alpha = F * L**2 / (E*I)``.
    Integrates ``theta''(s) = -alpha * cos(theta)`` with ``theta(0) = 0``
    and shoots on the root curvature until the free end is moment-free,
    ``theta'(1) = 0``.

    Returns ``(x_tip, y_tip)`` normalised by the rod length.
    """

    def integrate(kappa0):
        def rhs(s, y):
            theta = y[0]
            return [y[1], -alpha * np.cos(theta), np.cos(theta), np.sin(theta)]

        return solve_ivp(rhs, (0.0, 1.0), [0.0, kappa0, 0.0, 0.0],
                         method="RK45", rtol=1e-11, atol=1e-13)

    def end_curvature(kappa0):
        return integrate(kappa0).y[1, -1]

    # Root curvature is bracketed by 0 (pure sag) and alpha (moment of the
    # full load at lever arm L).
    kappa = brentq(end_curvature, 0.0, alpha, xtol=1e-13)
    final = integrate(kappa).y[:, -1]
    return final[2], final[3]


def central_difference_jacobian(func, x, step):
    """Central-difference Jacobian of a vector-valued function at x.

    step is one step for every coordinate or an array of one per coordinate.
    """
    x = np.asarray(x, dtype=float)
    steps = np.broadcast_to(np.asarray(step, dtype=float), x.shape)
    columns = []
    for j in range(x.size):
        dx = np.zeros_like(x)
        dx[j] = steps[j]
        f_plus = np.asarray(func(x + dx), dtype=float)
        f_minus = np.asarray(func(x - dx), dtype=float)
        columns.append((f_plus - f_minus) / (2.0 * steps[j]))
    return np.column_stack(columns)


def linear_frame_stiffness(e_modulus, area, inertia, length):
    """Textbook 2D Euler-Bernoulli frame stiffness for a horizontal member."""
    ea = e_modulus * area
    ei = e_modulus * inertia
    l = length
    return np.array([
        [ea / l, 0.0, 0.0, -ea / l, 0.0, 0.0],
        [0.0, 12 * ei / l**3, 6 * ei / l**2, 0.0, -12 * ei / l**3, 6 * ei / l**2],
        [0.0, 6 * ei / l**2, 4 * ei / l, 0.0, -6 * ei / l**2, 2 * ei / l],
        [-ea / l, 0.0, 0.0, ea / l, 0.0, 0.0],
        [0.0, -12 * ei / l**3, -6 * ei / l**2, 0.0, 12 * ei / l**3, -6 * ei / l**2],
        [0.0, 6 * ei / l**2, 2 * ei / l, 0.0, -6 * ei / l**2, 4 * ei / l],
    ])


def wrap_angle(angle):
    """Wrap an angle into (-pi, pi]."""
    wrapped = math.remainder(angle, math.tau)
    if wrapped <= -math.pi:
        wrapped += math.tau
    return wrapped


def corotational_element(element, p):
    """Global internal force q and consistent 6x6 tangent k of one
    co-rotational beam element, in scalar arithmetic.

    ``element`` has ``l0``, ``beta0`` and ``props`` (``e_modulus``,
    ``area``, ``inertia`` and ``kind``, ``"beam"`` or ``"pin-ended"``);
    p = [u1, w1, theta1, u2, w2, theta2] are its nodal displacements. The
    element's motion is a rigid rotation of the chord plus a local stretch
    u_l and end rotations theta_1l, theta_2l, whose linear local forces
    [N, M1, M2] give q = B^T [N, M1, M2] and
    k = B^T Cl B + (N/L) z z^T + ((M1+M2)/L^2) (r z^T + z r^T).
    """
    # current chord: the reference chord plus the relative translations
    u1, w1, theta1, u2, w2, theta2 = p
    dx = element.l0 * math.cos(element.beta0) + (u2 - u1)
    dy = element.l0 * math.sin(element.beta0) + (w2 - w1)
    length = math.hypot(dx, dy)
    c, s = dx / length, dy / length

    # local deformations: the rigid rotation beta - beta0 removed
    beta = math.atan2(s, c)
    u_l = length - element.l0
    theta_1l = wrap_angle(theta1 + element.beta0 - beta)
    theta_2l = wrap_angle(theta2 + element.beta0 - beta)

    # local forces: N = EA u_l / L0, [M1, M2] = (2EI/L0) [[2, 1], [1, 2]]
    # [theta_1l, theta_2l]; a pin-ended element carries no moments
    props = element.props
    n_axial = props.e_modulus * props.area * u_l / element.l0
    ea_l0 = props.e_modulus * props.area / element.l0
    if props.kind == "pin-ended":
        m1 = m2 = 0.0
        c_local = np.diag([ea_l0, 0.0, 0.0])
    else:
        factor = 2.0 * props.e_modulus * props.inertia / element.l0
        m1 = factor * (2.0 * theta_1l + theta_2l)
        m2 = factor * (theta_1l + 2.0 * theta_2l)
        ei_l0 = props.e_modulus * props.inertia / element.l0
        c_local = np.array([[ea_l0, 0.0, 0.0],
                            [0.0, 4.0 * ei_l0, 2.0 * ei_l0],
                            [0.0, 2.0 * ei_l0, 4.0 * ei_l0]])

    # B maps global increments to local ones: row 1 is the axial direction
    # r, rows 2 and 3 subtract the chord rotation from each nodal rotation
    r = np.array([-c, -s, 0.0, c, s, 0.0])
    z = np.array([s, -c, 0.0, -s, c, 0.0])
    b = np.array([r,
                  [-s / length, c / length, 1.0, s / length, -c / length, 0.0],
                  [-s / length, c / length, 0.0, s / length, -c / length, 1.0]])
    q = b.T @ np.array([n_axial, m1, m2])
    k = b.T @ c_local @ b
    k += (n_axial / length) * np.outer(z, z)
    k += ((m1 + m2) / length**2) * (np.outer(r, z) + np.outer(z, r))
    return q, k


def scalar_reference(structure, u):
    """F_int and K of a structure (``n_dof``, ``elements`` and
    ``element_dofs``) from a loop over the scalar co-rotational element."""
    n = structure.n_dof
    f_int = np.zeros(n)
    k = np.zeros((n, n))
    for index, element in enumerate(structure.elements):
        dofs = structure.element_dofs[index]
        q, k_element = corotational_element(element, u[dofs])
        f_int[dofs] += q
        k[np.ix_(dofs, dofs)] += k_element
    return f_int, k
