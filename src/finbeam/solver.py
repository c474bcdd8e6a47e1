"""Path-following force-displacement solver.

One tracer, ``_trace``, follows the equilibrium path of a load pattern from
the unloaded state by Crisfield's cylindrical arc-length continuation,
which passes the limit points where force control fails. Each step is a
tangent predictor and full-Newton corrector iterations (``_correct``,
tangent reassembled from the current trial state every iteration) until
the force residual norm over the free DOFs drops below the tolerance. A
step that would reach or pass the next requested load level lands on it
exactly, at fixed load. Every converged state's tangent is factored once:
whether its Cholesky factor completes, a pivot test rather than an
eigenvalue count, audits the state, and its solve gives the next
predictor.

``solve`` samples the path at ``n_inc`` equal load levels and ends at its
first instability, reported as data, not raised. ``trace_loads``, a design
sweep's one path per variant, lands on given loads and on a probe's f_hi,
refining the first instability to the probe's resolution. ``_trace``
enters a fresh np.errstate per path that ignores overflow and invalid
operations, which a diverging path meets in the element kernels.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .assembly import (DegenerateElement, SingularMatrix, apply_supports,
                       assemble_tangent, solve_linear, update_member_data)
from .model import (LoadCase, Structure, SupportSet, make_load_case,
                    typed_fields)

log = logging.getLogger(__name__)

# Arc-length continuation: the first predictor's largest share of the load
# pattern, the corrector iterations a step adapts toward and may take,
# the largest growth of the arc length per step, and the halvings in a row
# after which a path whose steps do not converge ends.
ARC_FIRST_STEP = 0.1
ARC_TARGET_ITERATIONS = 3
ARC_MAX_ITERATIONS = 5
ARC_MAX_GROWTH = 2.0
ARC_MAX_CUTS = 10
# The positive-definite states a path may accept past its first instability
# while it refines the crossing step; more than 3x the 18 that any probe
# that resolves its instability accepts on the study fingers. A refinement
# past it crawls toward an instability it no longer reaches.
REFINE_MAX_STATES = 64


class BracketInvalid(ValueError):
    """The probe bracket does not straddle the collapse load."""


@dataclass(frozen=True)
class SolverConfig:
    """Stepping and convergence controls.

    n_inc and maxiter are integers of at least 1, never bools, and step
    only ``solve``; maxiter bounds the corrector iterations per increment,
    summed over the steps to its load level, a step that does not converge
    counting all it was allowed. tolerance is the force-residual norm
    threshold in Newtons, finite and positive.
    """

    n_inc: int = 10
    tolerance: float = 1e-3
    maxiter: int = 100

    def __post_init__(self):
        # a NaN or infinite tolerance would accept any residual unchecked
        typed_fields(self, positive=("n_inc", "tolerance", "maxiter"))


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


def solve(
    structure: Structure,
    load_case: LoadCase,
    config: SolverConfig = SolverConfig(),
) -> SolveResult:
    """Trace the equilibrium path of the total load up to its first
    instability, sampled at the ``n_inc`` equal load levels n / n_inc (see
    _trace). Record n is the converged state at level n.

    The solve ends not completed, with a cause and the records before
    level ``diverged_at`` on: a converged state, the last one included,
    whose tangent is not positive definite ("indefinite") or is singular
    ("SingularMatrix"), by solve_linear's pivot tests; or, when
    ARC_MAX_CUTS halvings in a row or the level's maxiter iterations are
    spent or a step no longer moves the load, the last failed step's
    singular tangent, degenerate element ("DegenerateElement"), non-finite
    residual ("non-finite") or non-convergence ("no convergence").

    Raises ModelError when the load fails make_load_case's check: a wrong
    shape, a non-finite entry or a force on a fixed DOF.
    """
    f_total = make_load_case(structure, load_case.f_total).f_total
    levels = [n / config.n_inc for n in range(1, config.n_inc + 1)]
    records, cause, _ = _trace(structure, f_total, levels, config.tolerance,
                               config.maxiter, math.inf)
    return SolveResult(records, cause)


def path_is_stable(result: SolveResult) -> bool:
    """False when the path ended at an indefinite tangent."""
    return result.cause != "indefinite"


def probe_max_force(
    structure: Structure,
    load_pattern: np.ndarray,
    config: SolverConfig,
    f_lo: float,
    f_hi: float,
    resolution: float,
) -> float:
    """The force of trace_loads with no loads and the bracket (f_lo, f_hi,
    resolution); raises BracketInvalid with its probe error."""
    _, force, error = trace_loads(structure, load_pattern, (), config,
                                  (f_lo, f_hi, resolution))
    if error:
        raise BracketInvalid(error)
    return force


def trace_loads(
    structure: Structure,
    load_pattern: np.ndarray,
    loads: Sequence[float],
    config: SolverConfig,
    bracket: Optional[tuple[float, float, float]] = None,
) -> tuple[list[Optional[IncrementRecord]], Optional[float], Optional[str]]:
    """Trace the path of ``lam * top * load_pattern`` (typically a unit
    force at one node) once, landing on each of ``loads`` and, with a
    probe bracket (f_lo, f_hi, resolution), on f_hi, top the largest of
    them (see _trace). ``config`` supplies the residual tolerance;
    ``n_inc`` and ``maxiter`` do not step the path.

    Returns the record at each of ``loads``, None past the path's end, its
    iterations those spent since the previous level; and, with a bracket,
    the probe's force and error, else None and None. The force is the load
    carried by the last positive-definite state before the first
    instability, found to within ``resolution``, or before the path ends
    otherwise, with the error None. It is inf, with the error "structure
    still holds at f_hi = ...", when a positive-definite state at f_hi is
    reached; -inf, with "structure already collapses at f_lo = ...", when
    it falls below f_lo; and None, with an error naming the resolution and
    REFINE_MAX_STATES, when the refinement ends at that bound. Raises
    BracketInvalid when f_lo >= f_hi, and ValueError when f_lo, f_hi or
    resolution is not finite, resolution is not positive, or there is no
    load or one is not positive and finite. Deterministic for fixed
    inputs.
    """
    f_lo, f_hi, resolution = bracket or (0.0, math.inf, math.inf)
    if bracket and not (all(map(math.isfinite, bracket)) and resolution > 0):
        raise ValueError("f_lo, f_hi and resolution must be finite and "
                         f"resolution positive, got {bracket}")
    if not 0 <= f_lo < f_hi:
        raise BracketInvalid(f"need 0 <= f_lo < f_hi, got [{f_lo}, {f_hi}]")
    targets = sorted({*loads, f_hi} if bracket else {*loads})
    if not targets or not all(0 < f < math.inf for f in targets):
        raise ValueError(f"loads must be positive and finite, got {loads}")

    pattern = np.asarray(load_pattern, dtype=float)
    if not np.any(pattern):
        raise ValueError("load pattern must be nonzero")

    top = targets[-1]
    f_ref = make_load_case(structure, top * pattern).f_total
    records, cause, good = _trace(structure, f_ref,
                                  [f / top for f in targets],
                                  config.tolerance, math.inf, resolution / top)
    reached = dict(zip(targets, records))
    force = error = None
    if f_hi in reached:
        force, error = math.inf, f"structure still holds at f_hi = {f_hi}"
    elif cause == "refinement bound":
        error = (f"refinement bound: the first instability is not resolved "
                 f"to resolution = {resolution} within {REFINE_MAX_STATES} "
                 "states past it")
    elif bracket:
        force = 0.0 if good is None else top * _carried(good, f_ref)
        if force < f_lo:
            force = -math.inf
            error = f"structure already collapses at f_lo = {f_lo}"
    return [reached.get(f) for f in loads], force, error


@dataclass(frozen=True)
class _PathState:
    """A converged state of the continuation whose tangent is positive
    definite: displacement, load factor, force residual, and
    x_f = K^-1 f_ref in band order, the direction of its predictor."""

    u: np.ndarray
    lam: float
    r_vec: np.ndarray
    x_f: np.ndarray


def _trace(
    structure: Structure,
    f_ref: np.ndarray,
    levels: list[float],
    tolerance: float,
    maxiter: float,
    lam_resolution: float,
) -> tuple[list[IncrementRecord], Optional[str], Optional[_PathState]]:
    """Follow the path F_ext = lam * f_ref from the unloaded state by
    cylindrical arc length, landing exactly on each of the ascending load
    factors ``levels``.

    Every state, the unloaded one (u = 0, lam = 0) included, is evaluated
    by this module's update_member_data and residual, and its tangent is
    assembled and factored once, at the top of the step loop: whether it
    is positive definite audits the state and x_f = K^-1 f_ref is the next
    predictor's direction, du = d x_f. An arc step takes d = arc / ||x_f||,
    the first arc min(ARC_FIRST_STEP, levels[0]) ||x_f||. A step that would
    reach or pass the next level is a fixed-load step to it instead, which
    restarts the arc from its own length; its state is recorded with the
    corrector iterations spent since the last level. A step may take
    ARC_MAX_ITERATIONS iterations, the steps to a level maxiter in all, a
    step that does not converge spending all it was allowed; it is retried
    at half the length, ARC_MAX_CUTS times in a row at most. The arc adapts
    toward ARC_TARGET_ITERATIONS per step, growing by at most
    ARC_MAX_GROWTH.

    Past an instability the path restarts from the last positive-definite
    state at half the step length until the crossing step is at most
    ``lam_resolution``; it ends "refinement bound" at the first
    positive-definite state past REFINE_MAX_STATES in that refinement.
    Returns the records of the levels reached, the cause that ended the
    path (None when every level was reached) and the last
    positive-definite state (None when the unloaded tangent is not).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        f_free = apply_supports(f_ref, structure.free_band)
        u, lam = np.zeros(structure.n_dof), 0.0
        rows, f_int = update_member_data(structure, u)
        r_vec, _ = residual(f_int, lam * f_ref, structure.supports)
        records: list[IncrementRecord] = []
        good = None
        landed = refining = False
        cuts = spent = refined = 0
        while True:
            try:
                x_f, positive_definite = solve_linear(
                    assemble_tangent(structure, rows), f_free)
                cause = None if positive_definite else "indefinite"
            except SingularMatrix:
                cause = "SingularMatrix"
            if cause is not None:
                if good is None or d_lam <= lam_resolution:
                    log.info("path ended at load factor %.6g (%s)", lam, cause)
                    return records, cause, good
                refining = True
                arc *= 0.5
            else:
                if good is None:
                    arc = min(ARC_FIRST_STEP, levels[0]) * np.linalg.norm(x_f)
                elif not refining:
                    arc *= min(ARC_MAX_GROWTH, math.sqrt(
                        ARC_TARGET_ITERATIONS / max(iterations, 1)))
                elif refined == REFINE_MAX_STATES:
                    log.info("refinement ended at load factor %.6g after %d "
                             "states", lam, refined)
                    return records, "refinement bound", good
                else:
                    refined += 1
                good, cuts = _PathState(u, lam, r_vec, x_f), 0
                if landed:
                    records.append(IncrementRecord(len(records) + 1, u, spent,
                                                   r_norm))
                    spent = 0
                    if len(records) == len(levels):
                        return records, None, good

            cause = "no convergence"
            while True:
                level = levels[len(records)]
                x_norm = np.linalg.norm(good.x_f)
                # d = arc / ||x_f|| > 0: from a positive-definite state the
                # path rises; the landing step may run back to a level the
                # arc passed
                d_lam = arc / x_norm
                landed = not arc < (level - good.lam) * x_norm
                if landed:
                    d_lam = level - good.lam
                    arc = abs(d_lam) * x_norm
                budget = min(ARC_MAX_ITERATIONS, maxiter - spent)
                if (cuts > ARC_MAX_CUTS or not budget
                        or not landed and good.lam + d_lam == good.lam):
                    log.info("no step from load factor %.6g converges (%s)",
                             good.lam, cause)
                    return records, cause, good
                try:
                    u, lam, rows, r_vec, r_norm, iterations = _correct(
                        structure, good.u, d_lam * good.x_f,
                        level if landed else good.lam + d_lam, f_ref,
                        tolerance, budget, None if landed else arc)
                    cause = ("no convergence" if math.isfinite(r_norm)
                             else "non-finite")
                except (SingularMatrix, DegenerateElement) as exc:
                    cause, r_norm = type(exc).__name__, math.inf
                if r_norm <= tolerance:
                    break
                cuts += 1
                spent += budget
                arc *= 0.5
            spent += iterations


def _carried(state: _PathState, f_ref: np.ndarray) -> float:
    """The load factor carried by a state's internal force along f_ref: lam
    plus the residual's component along f_ref, (f_ref . R) / (f_ref . f_ref).
    lam alone can exceed the peak of the path by up to tolerance / ||f_ref||,
    since a converged state may be that far from equilibrium."""
    return float(state.lam + (f_ref @ state.r_vec) / (f_ref @ f_ref))


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
    turns least from du (Crisfield 1981). Returns (u, lam, rows, r_vec,
    r_norm, iterations) once ||R|| <= tolerance, ||R|| is not finite,
    maxiter iterations are spent or the arc has no real root.
    Raises SingularMatrix and DegenerateElement."""
    band = structure.free_band
    f_ext = lam * f_ref
    iterations = 0
    while True:
        u = start.copy()
        u[band.order] += du
        rows, f_int = update_member_data(structure, u)
        r_vec, r_norm = residual(f_int, f_ext, structure.supports)
        if (not r_norm > tolerance or iterations == maxiter
                or r_norm == math.inf):
            return u, lam, rows, r_vec, r_norm, iterations
        iterations += 1
        k_s = assemble_tangent(structure, rows)
        if arc is None:
            du -= solve_linear(k_s, apply_supports(r_vec, band))[0]
            continue
        x, _ = solve_linear(
            k_s, apply_supports(np.column_stack((f_ref, -r_vec)), band))
        x_f, x_r = x.T
        d_lam = _arc_root(x_f, du + x_r, arc, du @ x_f >= 0)
        if d_lam is None:
            return u, lam, rows, r_vec, r_norm, iterations
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
