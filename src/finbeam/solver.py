"""Incremental-iterative Newton-Raphson force-displacement solver.

The total load is applied in ``n_inc`` equal increments. Each increment
takes a tangent predictor step and then full-Newton corrector iterations
(tangent reassembled from the current trial state every iteration) until
the force residual norm over the free DOFs drops below the tolerance.
Non-convergence is reported as data, not raised, so design sweeps and
maximum-force probes can observe failures gracefully.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .assembly import (
    ElementState,
    SingularMatrix,
    apply_supports,
    assemble_tangent,
    solve_linear,
    update_member_data,
)
from .corotational import DegenerateElement
from .model import LoadCase, Structure, SupportSet, make_load_case

log = logging.getLogger(__name__)

STATUS_COMPLETED = "completed"
STATUS_DIVERGED = "diverged"


class BracketInvalid(ValueError):
    """The probe bracket does not straddle the collapse load."""


@dataclass(frozen=True)
class SolverConfig:
    """Stepping and convergence controls.

    tolerance is the force-residual norm threshold in Newtons; maxiter
    bounds the corrector iterations per increment.
    """

    n_inc: int = 10
    tolerance: float = 1e-3
    maxiter: int = 100

    def __post_init__(self):
        if self.n_inc < 1:
            raise ValueError("n_inc must be at least 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.maxiter < 1:
            raise ValueError("maxiter must be at least 1")


@dataclass(frozen=True)
class IncrementRecord:
    """Converged state after one load increment."""

    n: int
    displacement: np.ndarray
    element_states: ElementState
    iterations: int
    residual_norm: float


@dataclass(frozen=True)
class SolveResult:
    """Full increment history plus the termination status."""

    increments: list[IncrementRecord]
    status: str
    diverged_at: Optional[int] = None
    cause: Optional[str] = None

    @property
    def completed(self) -> bool:
        return self.status == STATUS_COMPLETED

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
    for d in supports.constrained_dofs():
        if d < r.size:
            r[d] = 0.0
    return r, float(math.sqrt(r @ r))


def solve(
    structure: Structure,
    load_case: LoadCase,
    config: SolverConfig = SolverConfig(),
) -> SolveResult:
    """Trace the equilibrium path under incrementally applied load.

    Per increment n: assemble the support-modified tangent at the last
    converged state, take the predictor step du = K_s^-1 dF, then iterate
    delta_u <- delta_u - K_s^-1 R with the tangent reassembled from the
    current trial state, until ||R|| <= tolerance or maxiter is hit. On
    failure (no convergence, a non-finite residual or a singular tangent)
    the history up to the previous increment is returned with status
    "diverged".
    """
    f_total = load_case.f_total
    if f_total.shape != (structure.n_dof,):
        raise ValueError(
            f"load vector length {f_total.shape} does not match n_dof "
            f"{structure.n_dof}")
    d_f = f_total / config.n_inc
    u = np.zeros(structure.n_dof)
    states, _ = update_member_data(structure, u)
    records: list[IncrementRecord] = []

    for n in range(1, config.n_inc + 1):
        f_ext = (n / config.n_inc) * f_total
        try:
            k_s = apply_supports(assemble_tangent(structure, states),
                                 structure.supports)
            du = solve_linear(k_s, d_f)

            u_trial = u + du
            states, f_int = update_member_data(structure, u_trial)
            r_vec, r_norm = residual(f_int, f_ext, structure.supports)

            delta_u = np.zeros(structure.n_dof)
            iterations = 0
            while r_norm > config.tolerance and iterations < config.maxiter:
                k_s = apply_supports(assemble_tangent(structure, states),
                                     structure.supports)
                delta_u = delta_u - solve_linear(k_s, r_vec)
                u_trial = u + du + delta_u
                states, f_int = update_member_data(structure, u_trial)
                r_vec, r_norm = residual(f_int, f_ext, structure.supports)
                iterations += 1
        except (SingularMatrix, DegenerateElement) as exc:
            log.info("increment %d failed: %s", n, exc)
            return SolveResult(records, STATUS_DIVERGED, diverged_at=n,
                               cause=type(exc).__name__)

        if not math.isfinite(r_norm):
            log.info("increment %d reached a non-finite residual", n)
            return SolveResult(records, STATUS_DIVERGED, diverged_at=n,
                               cause="non-finite")
        if r_norm > config.tolerance:
            log.info("increment %d did not converge in %d iterations "
                     "(residual %.3e)", n, iterations, r_norm)
            return SolveResult(records, STATUS_DIVERGED, diverged_at=n,
                               cause="no convergence")

        u = u_trial
        log.debug("increment %d converged in %d iterations (residual %.3e)",
                  n, iterations, r_norm)
        records.append(IncrementRecord(n, u.copy(), states, iterations,
                                       r_norm))

    return SolveResult(records, STATUS_COMPLETED)


# A load increment whose conjugate displacement step exceeds this multiple
# of the previous step is read as a snap-through.
SNAP_JUMP_RATIO = 3.0


def _stable_increments(
    structure: Structure,
    result: SolveResult,
    pattern_unit: np.ndarray,
) -> int:
    """Number of converged increments before the first instability event.

    Collapse shows up in force control either as Newton-Raphson failure
    (the history simply ends), as the converged tangent turning indefinite
    (the path crossed a limit or bifurcation point), or as a snap: a
    sudden jump of the load-conjugate displacement while the force step
    stays constant. The increment showing either of the latter two is not
    counted, nor is anything after it.
    """
    prev_proj = 0.0
    prev_step = None
    for held, record in enumerate(result.increments):
        k_s = apply_supports(
            assemble_tangent(structure, record.element_states),
            structure.supports)
        eigenvalues = np.linalg.eigvalsh(k_s)
        if eigenvalues[0] < -1e-8 * eigenvalues[-1]:
            return held
        proj = float(pattern_unit @ record.displacement)
        step = proj - prev_proj
        if (prev_step is not None and prev_step > 1e-15
                and step / prev_step > SNAP_JUMP_RATIO):
            return held
        prev_proj, prev_step = proj, step
    return len(result.increments)


def path_is_stable(
    structure: Structure,
    result: SolveResult,
    pattern_unit: np.ndarray,
) -> bool:
    """True when no converged increment shows an indefinite tangent or a
    snap jump (Newton failure is carried by the result status)."""
    return _stable_increments(structure, result, pattern_unit) == len(
        result.increments)


def probe_max_force(
    structure: Structure,
    load_pattern: np.ndarray,
    config: SolverConfig,
    f_lo: float,
    f_hi: float,
    resolution: float,
) -> float:
    """Largest load magnitude (within resolution) the structure sustains.

    Traces one force-controlled load path of ``load_pattern`` (typically a
    unit force at one node) from zero to ``f_hi`` in
    ``n_inc = max(config.n_inc, ceil(f_hi / resolution))`` equal steps and
    returns the load of the last increment before the first instability
    event: Newton-Raphson failure, an indefinite converged tangent or a
    snap jump. The result is therefore a multiple of the step
    ``f_hi / n_inc``. Raises BracketInvalid when f_lo >= f_hi, when the
    whole path to f_hi completes without an instability ("still holds at
    f_hi") and when the returned force would fall below f_lo ("already
    collapses at f_lo"). Deterministic for fixed inputs.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    if not 0 <= f_lo < f_hi:
        raise BracketInvalid(f"need 0 <= f_lo < f_hi, got [{f_lo}, {f_hi}]")

    pattern = np.asarray(load_pattern, dtype=float)
    norm = float(np.linalg.norm(pattern))
    if norm == 0.0:
        raise ValueError("load pattern must be nonzero")

    n_inc = max(config.n_inc, math.ceil(f_hi / resolution))
    result = solve(structure, make_load_case(structure, f_hi * pattern),
                   replace(config, n_inc=n_inc))
    held = _stable_increments(structure, result, pattern / norm)
    if held == n_inc:
        raise BracketInvalid(f"structure still holds at f_hi = {f_hi}")
    force = held * f_hi / n_inc
    if force < f_lo:
        raise BracketInvalid(f"structure already collapses at f_lo = {f_lo}")
    return force
