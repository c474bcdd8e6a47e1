"""Independent reference solutions used to cross-check the solver.

These are deliberately built on different numerics than the package under
test: the large-deflection benchmark integrates the inextensible-rod ODE
with an adaptive Runge-Kutta scheme plus curvature shooting, and tangent
matrices are checked against plain central differences. Nothing here
imports from ``finbeam``.
"""

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
