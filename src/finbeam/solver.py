"""Incremental-iterative Newton-Raphson force-displacement solver.

``solve`` applies the total load in ``n_inc`` equal increments, each a
tangent predictor step and then full-Newton corrector iterations (tangent
reassembled from the current trial state every iteration) until the force
residual norm over the free DOFs drops below the tolerance. The path ends
at its first instability: Newton failure, a snap, or a negative eigenvalue
of a converged tangent, counted exactly from the next predictor's
factorization. Such an end is reported as data, not raised, so design
sweeps can observe failures gracefully.

The maximum-force probe follows the path by arc-length continuation, which
passes the limit points where force control fails, with the same corrector
(``_correct``) and a constraint that sets the load change. It stops at the
first state whose tangent is not positive definite, or where a step can no
longer move the load factor.

``solve`` and the probe's ``_trace`` run silenced (assembly.silenced), so
this module's update_member_data and assemble_tangent are unsilenced bodies.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import assembly
from .assembly import (DegenerateElement, SingularMatrix, apply_supports,
                       silenced, solve_linear)
from .model import (LoadCase, Structure, SupportSet, make_load_case,
                    typed_fields)

log = logging.getLogger(__name__)
update_member_data = assembly.update_member_data.__wrapped__
assemble_tangent = assembly.assemble_tangent.__wrapped__

# A load increment whose conjugate displacement step exceeds this multiple
# of the previous step is read as a snap-through.
SNAP_JUMP_RATIO = 3.0
# Arc-length continuation of the maximum-force probe: the first predictor's
# share of f_hi, the corrector iterations a step adapts toward and may take,
# the largest growth of the arc length per step, and the halvings in a row
# after which a path whose steps do not converge ends.
ARC_FIRST_STEP = 0.1
ARC_TARGET_ITERATIONS = 3
ARC_MAX_ITERATIONS = 5
ARC_MAX_GROWTH = 2.0
ARC_MAX_CUTS = 10


class BracketInvalid(ValueError):
    """The probe bracket does not straddle the collapse load."""


@dataclass(frozen=True)
class SolverConfig:
    """Stepping and convergence controls.

    n_inc and maxiter are integers of at least 1, never bools; maxiter
    bounds the corrector iterations per increment. tolerance is the
    force-residual norm threshold in Newtons, finite and positive.
    """

    n_inc: int = 10
    tolerance: float = 1e-3
    maxiter: int = 100

    def __post_init__(self):
        # a NaN or infinite tolerance would accept any residual unchecked
        typed_fields(self)
        for name in ("n_inc", "tolerance", "maxiter"):
            if not getattr(self, name) > 0:
                raise ValueError(
                    f"{name} must be positive, got {getattr(self, name)}")


@dataclass(frozen=True)
class IncrementRecord:
    """Converged state after one load increment."""

    n: int
    displacement: np.ndarray
    iterations: int
    residual_norm: float


@dataclass(frozen=True)
class SolveResult:
    """Increment history plus the cause that ended the path early.

    ``cause`` is None when every increment converged. Otherwise the path
    ended at increment ``diverged_at``, and ``increments`` holds exactly
    the records before it, so ``len(increments) == diverged_at - 1``.
    """

    increments: list[IncrementRecord]
    cause: Optional[str] = None

    @property
    def completed(self) -> bool:
        return self.cause is None

    @property
    def status(self) -> str:
        return "completed" if self.completed else "diverged"

    @property
    def diverged_at(self) -> Optional[int]:
        return None if self.completed else len(self.increments) + 1

    @property
    def final_displacement(self) -> np.ndarray:
        if not self.increments:
            raise ValueError("no converged increments recorded")
        return self.increments[-1].displacement


def residual(
    f_int: np.ndarray,
    f_ext: np.ndarray,
    supports: SupportSet,
) -> tuple[np.ndarray, float]:
    """Force residual with support reactions excluded.

    R = F_int - F_ext with constrained-DOF entries zeroed (those carry the
    reactions, not an equilibrium error), and its Euclidean norm.
    """
    r = f_int - f_ext
    r[supports.dofs] = 0.0
    # beyond 1e154 N the norm overflows to inf, where np.vdot never warns
    return r, math.sqrt(np.vdot(r, r))


@silenced
def solve(
    structure: Structure,
    load_case: LoadCase,
    config: SolverConfig = SolverConfig(),
) -> SolveResult:
    """Trace the equilibrium path under incrementally applied load up to
    its first instability.

    Per increment n: assemble the tangent's free-DOF band K_s at the last
    converged state, take the predictor step du = K_s^-1 dF and run the
    corrector at fixed load from u + du until ||R|| <= tolerance or maxiter
    is hit. Each solve runs in band order: the right-hand side's free
    entries are gathered into it and the solution scattered back, so the
    fixed DOFs never move.

    The solve ends with status "diverged", a cause and the history before
    increment ``diverged_at`` on: a singular tangent or a degenerate
    element, a non-finite residual or no convergence in increment n; a
    snap, when n's displacement step along the load exceeds
    SNAP_JUMP_RATIO times the previous one ("snap", at n); or any negative
    eigenvalue of K_s, counted exactly from n's predictor factorization, at
    the state converged in n - 1 ("indefinite", at n - 1). The count costs
    no extra factorization. The unloaded state and the last converged
    state have no predictor to audit them and go unchecked.

    Raises ModelError when the load fails make_load_case's check: a wrong
    shape, a non-finite entry or a force on a fixed DOF.
    """
    f_total = make_load_case(structure, load_case.f_total).f_total
    direction = f_total / (np.linalg.norm(f_total) or 1.0)
    band = structure.free_band
    d_f_free = apply_supports(f_total / config.n_inc, band)
    u = np.zeros(structure.n_dof)
    states, _, k_s = structure.unloaded
    records: list[IncrementRecord] = []
    prev_step = math.inf

    for n in range(1, config.n_inc + 1):
        try:
            if n > 1:
                k_s = assemble_tangent(structure, states)
            step, negative = solve_linear(k_s, d_f_free)
            if negative > 0 and records:
                log.info("increment %d converged to an indefinite tangent",
                         n - 1)
                return SolveResult(records[:-1], "indefinite")

            # the trial state is (u + du) + delta_u, added on the free DOFs
            # only: the fixed DOFs stay exactly 0
            base = u.copy()
            base[band.order] += step
            u_trial, _, states, _, r_norm, iterations = _correct(
                structure, base, np.zeros(len(step)), n / config.n_inc,
                f_total, config.tolerance, config.maxiter)
        except (SingularMatrix, DegenerateElement) as exc:
            log.info("increment %d failed: %s", n, exc)
            return SolveResult(records, type(exc).__name__)

        if not math.isfinite(r_norm):
            log.info("increment %d reached a non-finite residual", n)
            return SolveResult(records, "non-finite")
        if r_norm > config.tolerance:
            log.info("increment %d did not converge in %d iterations "
                     "(residual %.3e)", n, iterations, r_norm)
            return SolveResult(records, "no convergence")

        step = float(direction @ (u_trial - u))
        if prev_step > 1e-15 and step / prev_step > SNAP_JUMP_RATIO:
            log.info("increment %d snapped (step ratio %.3g)", n,
                     step / prev_step)
            return SolveResult(records, "snap")
        prev_step = step

        u = u_trial
        log.debug("increment %d converged in %d iterations (residual %.3e)",
                  n, iterations, r_norm)
        records.append(IncrementRecord(n, u, iterations, r_norm))

    return SolveResult(records, None)


def path_is_stable(result: SolveResult) -> bool:
    """False when the path ended at an indefinite tangent or a snap."""
    return result.cause not in ("indefinite", "snap")


def probe_max_force(
    structure: Structure,
    load_pattern: np.ndarray,
    config: SolverConfig,
    f_lo: float,
    f_hi: float,
    resolution: float,
) -> float:
    """Load magnitude at the first instability of the path, within
    resolution below it.

    Follows the equilibrium path of ``lam * f_hi * load_pattern``
    (typically a unit force at one node) from the unloaded state by
    Crisfield's cylindrical arc-length continuation, which passes limit
    points that force control cannot. The arc length adapts toward
    ARC_TARGET_ITERATIONS corrector iterations per step, and a step that
    has not converged within ARC_MAX_ITERATIONS is retried at half the
    length. The path ends at the first converged state whose tangent,
    factored for its next predictor, has a negative eigenvalue or is
    singular: a limit point or a bifurcation. The probe then restarts from
    the last positive-definite state at half the arc length until a
    predictor step from that state is worth at most ``resolution`` of load
    and still crosses the instability, and returns the load that state
    carries. The path also ends at its last state after ARC_MAX_CUTS
    halvings in a row without convergence, or once a step cannot move the
    load factor in floating point. ``config`` supplies the residual
    tolerance; ``n_inc`` and ``maxiter`` do not step the path. Raises
    BracketInvalid when f_lo >= f_hi, when a positive-definite state at or
    past f_hi is reached ("still holds at f_hi") and when the returned force
    falls below f_lo ("already collapses at f_lo"), and ValueError when
    f_lo, f_hi or resolution is not finite. Deterministic for fixed inputs.
    """
    if not all(map(math.isfinite, (f_lo, f_hi, resolution))):
        raise ValueError("f_lo, f_hi and resolution must be finite, got "
                         f"{f_lo}, {f_hi} and {resolution}")
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    if not 0 <= f_lo < f_hi:
        raise BracketInvalid(f"need 0 <= f_lo < f_hi, got [{f_lo}, {f_hi}]")

    pattern = np.asarray(load_pattern, dtype=float)
    if not np.any(pattern):
        raise ValueError("load pattern must be nonzero")

    f_ref = make_load_case(structure, f_hi * pattern).f_total
    lam = _trace(structure, f_ref, config.tolerance, resolution / f_hi)
    if lam is None:
        raise BracketInvalid(f"structure still holds at f_hi = {f_hi}")
    force = f_hi * lam
    if force < f_lo:
        raise BracketInvalid(f"structure already collapses at f_lo = {f_lo}")
    return force


@dataclass(frozen=True)
class _PathState:
    """A converged state of the continuation whose tangent is positive
    definite: displacement, load factor, force residual, and
    x_f = K^-1 f_ref in band order, the direction of its predictor."""

    u: np.ndarray
    lam: float
    r_vec: np.ndarray
    x_f: np.ndarray


@silenced
def _trace(
    structure: Structure,
    f_ref: np.ndarray,
    tolerance: float,
    lam_resolution: float,
) -> Optional[float]:
    """Load factor carried by the last positive-definite state before the
    first instability on the path F_ext = lam * f_ref, to within
    ``lam_resolution``, or None when a positive-definite state reaches
    lam >= 1 (see probe_max_force). Each converged state's tangent is
    factored once: its negative-eigenvalue count audits the state and its
    solve gives the next predictor."""
    f_free = apply_supports(f_ref, structure.free_band)
    _, f_int, k_s = structure.unloaded
    r_vec, _ = residual(f_int, 0.0 * f_ref, structure.supports)
    good = _audited(k_s, f_free, np.zeros(structure.n_dof), 0.0, r_vec)
    if good is None:
        log.info("probe: the unloaded tangent is not positive definite")
        return 0.0
    arc = ARC_FIRST_STEP * float(np.linalg.norm(good.x_f))
    refining = False
    cuts = 0
    while True:
        # the predictor du = d x_f with d = arc / ||x_f|| > 0: from a
        # positive-definite state the path rises
        d_lam = arc / np.linalg.norm(good.x_f)
        if good.lam + d_lam == good.lam:
            log.info("probe: steps no longer move load factor %.6g", good.lam)
            return _carried(good, f_ref)
        try:
            u, lam, states, r_vec, r_norm, iterations = _correct(
                structure, good.u, d_lam * good.x_f, good.lam + d_lam,
                f_ref, tolerance, ARC_MAX_ITERATIONS, arc)
        except (SingularMatrix, DegenerateElement):
            r_norm = math.inf
        if not r_norm <= tolerance:
            cuts += 1
            if cuts > ARC_MAX_CUTS:
                log.info("probe: no step from load factor %.6g converges",
                         good.lam)
                return _carried(good, f_ref)
            arc *= 0.5
            continue
        audited = _audited(assemble_tangent(structure, states), f_free, u,
                           lam, r_vec)
        if audited is not None:
            good, cuts = audited, 0
            if good.lam >= 1.0:
                return None
            if not refining:
                arc *= min(ARC_MAX_GROWTH, math.sqrt(
                    ARC_TARGET_ITERATIONS / max(iterations, 1)))
            continue
        log.debug("probe: instability between load factors %.6g and %.6g",
                  good.lam, lam)
        if d_lam <= lam_resolution:
            return _carried(good, f_ref)
        refining = True
        arc *= 0.5


def _carried(state: _PathState, f_ref: np.ndarray) -> float:
    """The load factor carried by a state's internal force along f_ref: lam
    plus the residual's component along f_ref, (f_ref . R) / (f_ref . f_ref).
    lam alone can exceed the peak of the path by up to tolerance / ||f_ref||,
    since a converged state may be that far from equilibrium."""
    return float(state.lam + (f_ref @ state.r_vec) / (f_ref @ f_ref))


def _audited(
    k_s: np.ndarray,
    f_free: np.ndarray,
    u: np.ndarray,
    lam: float,
    r_vec: np.ndarray,
) -> Optional[_PathState]:
    """The converged state with its predictor direction, or None when its
    tangent band k_s has a negative eigenvalue or is singular. f_free is
    f_ref in band order."""
    try:
        x_f, negative = solve_linear(k_s, f_free)
    except SingularMatrix:
        return None
    return None if negative else _PathState(u, lam, r_vec, x_f)


def _correct(
    structure: Structure,
    start: np.ndarray,
    du: np.ndarray,
    lam: float,
    f_ref: np.ndarray,
    tolerance: float,
    maxiter: int,
    arc: Optional[float] = None,
) -> tuple:
    """Newton corrector on the path F_ext = lam * f_ref from the trial state
    start + du, du in band order on the free DOFs. With ``arc`` None the
    load stays fixed and du <- du - K^-1 R; otherwise each iteration solves
    K [x_f, x_r] = [f_ref, -R] with one factorization and takes the load
    change d that keeps ||du + x_r + d x_f|| = arc, the root whose step
    turns least from du (Crisfield 1981). Returns (u, lam, states, r_vec,
    r_norm, iterations) once ||R|| <= tolerance, ||R|| is NaN (or infinite
    on the arc), maxiter iterations are spent or the arc has no real root.
    Raises SingularMatrix and DegenerateElement."""
    band = structure.free_band
    f_ext = lam * f_ref
    iterations = 0
    while True:
        u = start.copy()
        u[band.order] += du
        states, f_int = update_member_data(structure, u)
        r_vec, r_norm = residual(f_int, f_ext, structure.supports)
        # force control iterates on from an infinite norm, which may be the
        # overflowed sum of finite forces; the arc stops there
        if (not r_norm > tolerance or iterations == maxiter
                or arc is not None and r_norm == math.inf):
            return u, lam, states, r_vec, r_norm, iterations
        iterations += 1
        k_s = assemble_tangent(structure, states)
        if arc is None:
            du -= solve_linear(k_s, apply_supports(r_vec, band))[0]
            continue
        x, _ = solve_linear(
            k_s, apply_supports(np.column_stack((f_ref, -r_vec)), band))
        x_f, x_r = x.T
        d_lam = _arc_root(x_f, du + x_r, arc, du @ x_f >= 0)
        if d_lam is None:
            return u, lam, states, r_vec, r_norm, iterations
        du += x_r + d_lam * x_f
        lam += d_lam
        f_ext = lam * f_ref


def _arc_root(
    x_f: np.ndarray,
    base: np.ndarray,
    arc: float,
    larger: bool,
) -> Optional[float]:
    """The root d of ||base + d x_f||^2 = arc^2, the larger one when
    ``larger``, or None when there is no real root."""
    a = x_f @ x_f
    b = 2.0 * (x_f @ base)
    c = base @ base - arc * arc
    disc = b * b - 4.0 * a * c
    if not (disc >= 0.0 and a > 0.0):
        return None
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    roots = (q / a, c / q) if q != 0.0 else (0.0, 0.0)
    return max(roots) if larger else min(roots)
