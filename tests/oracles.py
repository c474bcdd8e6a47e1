"""Independent reference solutions used to cross-check the solver.

These are deliberately built on different numerics than the package under
test: the large-deflection benchmark integrates the inextensible-rod ODE
with an adaptive Runge-Kutta scheme plus curvature shooting, tangent
matrices are checked against plain central differences, the batched
element kernels against a scalar co-rotational element evaluated one
element at a time, and the band assembly against a dense scatter. Only
four oracles import from ``finbeam``: that scatter, ``dense_tangent``,
places the package's own element tangents, so that only the placement is
checked, and ``plain_solve``, ``plain_path`` and ``plain_probe`` run
force-controlled Newton (the reference ``solve`` replaced) and the
arc-length continuation on the package's public kernels, so that only
the loops' bookkeeping is checked.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from finbeam.assembly import (
    DegenerateElement,
    SingularMatrix,
    apply_supports,
    assemble_tangent,
    element_tangent_stiffness,
    solve_linear,
    update_member_data,
)
from finbeam.model import make_load_case
from finbeam.solver import (
    ARC_FIRST_STEP,
    ARC_MAX_CUTS,
    ARC_MAX_GROWTH,
    ARC_MAX_ITERATIONS,
    ARC_TARGET_ITERATIONS,
    residual,
)

# The force-controlled path's snap heuristic: an increment whose step
# along the load exceeds this multiple of the previous one is a snap.
SNAP_JUMP_RATIO = 3.0


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


def chord_vectors(rows):
    """r, z and B of every element from rows 6-9 (c, s, c/L, s/L) of its
    state: the axial directions r = [-c, -s, 0, c, s, 0] and their
    perpendiculars z = [s, -c, 0, -s, c, 0], each (n_elements, 6), and the
    (n_elements, 3, 6) B = [r; e3 - z/L; e6 - z/L], which maps global
    increments to local ones."""
    c, s, c_l, s_l = rows[6:]
    zero = np.zeros_like(c)
    r = np.stack([-c, -s, zero, c, s, zero], axis=1)
    z = np.stack([s, -c, zero, -s, c, zero], axis=1)
    z_l = np.stack([s_l, -c_l, zero, -s_l, c_l, zero], axis=1)
    e3, e6 = np.eye(6)[[2, 5]]
    return r, z, np.stack([r, e3 - z_l, e6 - z_l], axis=1)


def dense_tangent(structure, rows):
    """The dense n_dof x n_dof tangent: every element's 6x6 tangent from
    ``element_tangent_stiffness`` at the element state ``rows`` added into
    its rows and columns, one element after another, supports ignored. Each entry receives the same
    contributions in the same order as its band slot does."""
    n = structure.n_dof
    k = np.zeros((n, n))
    k_el = element_tangent_stiffness(rows)
    for dofs, k_e in zip(structure.element_dofs, k_el):
        k[np.ix_(dofs, dofs)] += k_e
    return k


def plain_solve(structure, load_case, config):
    """A force-controlled Newton path with a snap heuristic, as
    ``finbeam.solve`` once traced it, the reference for the sampled
    continuation that replaced it, written plainly: every state from
    update_member_data, every tangent from assemble_tangent, the unloaded
    one included, and full-length displacement vectors, the trial state
    (u + du) + delta_u. Returns the (n, displacement, iterations, residual
    norm) of each converged increment and the cause that ended the path
    (None when it completed).
    """
    n_dof = structure.n_dof
    band = structure.free_band
    f_total = load_case.f_total
    d_f = f_total / config.n_inc
    with np.errstate(over="ignore"):
        direction = f_total / (np.linalg.norm(f_total) or 1.0)
    u = np.zeros(n_dof)
    states, _ = update_member_data(structure, u)
    records = []
    prev_step = math.inf
    for n in range(1, config.n_inc + 1):
        f_ext = (n / config.n_inc) * f_total
        try:
            step, positive_definite = solve_linear(
                assemble_tangent(structure, states), apply_supports(d_f, band))
            if not positive_definite and records:
                return records[:-1], "indefinite"
            du = np.zeros(n_dof)
            du[band.order] = step
            u_trial = u + du
            states, f_int = update_member_data(structure, u_trial)
            r_vec, r_norm = residual(f_int, f_ext, structure.supports)
            delta_u = np.zeros(n_dof)
            iterations = 0
            while r_norm > config.tolerance and iterations < config.maxiter:
                delta_u[band.order] -= solve_linear(
                    assemble_tangent(structure, states),
                    apply_supports(r_vec, band))[0]
                u_trial = u + du + delta_u
                states, f_int = update_member_data(structure, u_trial)
                r_vec, r_norm = residual(f_int, f_ext, structure.supports)
                iterations += 1
        except (SingularMatrix, DegenerateElement) as exc:
            return records, type(exc).__name__
        if not math.isfinite(r_norm):
            return records, "non-finite"
        if r_norm > config.tolerance:
            return records, "no convergence"
        step = float(direction @ (u_trial - u))
        if prev_step > 1e-15 and step / prev_step > SNAP_JUMP_RATIO:
            return records, "snap"
        prev_step = step
        u = u_trial
        records.append((n, u.copy(), iterations, r_norm))
    return records, None


def plain_path(structure, f_ref, levels, tolerance, maxiter, lam_resolution):
    """The arc-length continuation of ``finbeam.solve`` and
    ``finbeam.probe_max_force``, written plainly: every state from
    update_member_data, every tangent from assemble_tangent, the unloaded
    one included, and each trial displacement a full-length vector, the
    start plus the step scattered from band order. Returns the (n,
    displacement, iterations, residual norm) of each load level reached,
    the cause that ended the path (None when it reached every level) and
    the last positive-definite state as (u, lam, r_vec, x_f), or None when
    the unloaded tangent is not positive definite.
    """
    band = structure.free_band
    f_free = apply_supports(f_ref, band)

    def displaced(u, du):
        step = np.zeros(structure.n_dof)
        step[band.order] = du
        return u + step

    def audited(state):
        # (x_f, cause), the cause None when the tangent is positive definite
        try:
            x_f, positive_definite = solve_linear(
                assemble_tangent(structure, state), f_free)
        except SingularMatrix:
            return None, "SingularMatrix"
        return x_f, None if positive_definite else "indefinite"

    def step(good, d_lam, lam, budget, arc):
        # ((u, lam, state, r_vec, r_norm), iterations) once converged, or
        # (None, cause); arc None holds the load at lam
        u0, _, _, x_f0 = good
        du = d_lam * x_f0
        iterations = 0
        try:
            while True:
                u = displaced(u0, du)
                state, f_int = update_member_data(structure, u)
                r_vec, r_norm = residual(f_int, lam * f_ref,
                                         structure.supports)
                if not math.isfinite(r_norm):
                    return None, "non-finite"
                if r_norm <= tolerance:
                    return (u, lam, state, r_vec, r_norm), iterations
                if iterations == budget:
                    return None, "no convergence"
                iterations += 1
                tangent = assemble_tangent(structure, state)
                if arc is None:
                    du = du - solve_linear(tangent,
                                           apply_supports(r_vec, band))[0]
                    continue
                x, _ = solve_linear(
                    tangent,
                    apply_supports(np.column_stack((f_ref, -r_vec)), band))
                x_f, x_r = x.T
                # the root d of ||du + x_r + d x_f|| = arc that turns least
                # from du (Crisfield 1981)
                base = du + x_r
                a = x_f @ x_f
                b = 2.0 * (x_f @ base)
                c = base @ base - arc * arc
                disc = b * b - 4.0 * a * c
                if not (disc >= 0.0 and a > 0.0):
                    return None, "no convergence"
                q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
                roots = (q / a, c / q) if q != 0.0 else (0.0, 0.0)
                d = max(roots) if du @ x_f >= 0 else min(roots)
                du += x_r + d * x_f
                lam += d
        except (SingularMatrix, DegenerateElement) as exc:
            return None, type(exc).__name__

    u = np.zeros(structure.n_dof)
    state, f_int = update_member_data(structure, u)
    r_vec, r_norm = residual(f_int, 0.0 * f_ref, structure.supports)
    converged = (u, 0.0, state, r_vec, r_norm)
    records = []
    good = None
    landed = refining = False
    cuts = spent = iterations = 0
    while True:
        u, lam, state, r_vec, r_norm = converged
        x_f, cause = audited(state)
        if cause is not None:
            # an instability after good: refine down to lam_resolution
            if good is None or d_lam <= lam_resolution:
                return records, cause, good
            refining = True
            arc *= 0.5
        else:
            if good is None:
                arc = min(ARC_FIRST_STEP, levels[0]) * np.linalg.norm(x_f)
            elif not refining:
                arc *= min(ARC_MAX_GROWTH, math.sqrt(
                    ARC_TARGET_ITERATIONS / max(iterations, 1)))
            good, cuts = (u, lam, r_vec, x_f), 0
            if landed:
                records.append((len(records) + 1, u, spent, r_norm))
                spent = 0
                if len(records) == len(levels):
                    return records, None, good
        cause = "no convergence"
        while True:
            level = levels[len(records)]
            norm = np.linalg.norm(good[3])
            budget = min(ARC_MAX_ITERATIONS, maxiter - spent)
            # a step that would reach or pass the level lands on it at
            # fixed load, restarting the arc from its length
            landed = not arc < (level - good[1]) * norm
            if landed:
                d_lam = level - good[1]
                arc = abs(d_lam) * norm
            else:
                d_lam = arc / norm
            if cuts > ARC_MAX_CUTS or budget == 0:
                return records, cause, good
            if not landed and good[1] + d_lam == good[1]:
                # the step no longer moves the load factor
                return records, cause, good
            converged, outcome = step(good, d_lam,
                                      level if landed else good[1] + d_lam,
                                      budget, None if landed else arc)
            if converged is not None:
                iterations = outcome
                spent += iterations
                break
            # a failed step spends its whole allowance
            cause = outcome
            cuts += 1
            spent += budget
            arc *= 0.5


def plain_probe(structure, load_pattern, tolerance, f_hi, resolution):
    """The maximum force of ``finbeam.probe_max_force`` from plain_path:
    the load carried by the last positive-definite state before the first
    instability, or by the last one reached when a step can no longer move
    the load factor, or None when a positive-definite state reaches f_hi.
    """
    pattern = np.asarray(load_pattern, dtype=float)
    f_ref = make_load_case(structure, f_hi * pattern).f_total
    records, _, good = plain_path(structure, f_ref, [1.0], tolerance,
                                  math.inf, resolution / f_hi)
    if records:
        return None
    if good is None:
        return 0.0
    _, lam, r_vec, _ = good
    return f_hi * float(lam + (f_ref @ r_vec) / (f_ref @ f_ref))
