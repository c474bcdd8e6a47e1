"""Incremental-iterative Newton-Raphson force-displacement solver.

The total load is applied in ``n_inc`` equal increments. Each increment
takes a tangent predictor step and then full-Newton corrector iterations
(tangent reassembled from the current trial state every iteration) until
the force residual norm over the free DOFs drops below the tolerance.
The path ends at its first instability: Newton failure, a snap, or a
negative eigenvalue of a converged tangent, counted exactly from the next
predictor's factorization. Such an end is reported as data, not raised, so
design sweeps and maximum-force probes can observe failures gracefully.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .assembly import (
    DegenerateElement,
    SingularMatrix,
    apply_supports,
    assemble_tangent,
    solve_linear,
    update_member_data,
)
from .model import LoadCase, Structure, SupportSet, make_load_case

log = logging.getLogger(__name__)

# A load increment whose conjugate displacement step exceeds this multiple
# of the previous step is read as a snap-through.
SNAP_JUMP_RATIO = 3.0


class BracketInvalid(ValueError):
    """The probe bracket does not straddle the collapse load."""


@dataclass(frozen=True)
class SolverConfig:
    """Stepping and convergence controls.

    tolerance is the force-residual norm threshold in Newtons, finite and
    positive; maxiter bounds the corrector iterations per increment.
    """

    n_inc: int = 10
    tolerance: float = 1e-3
    maxiter: int = 100

    def __post_init__(self):
        if self.n_inc < 1:
            raise ValueError("n_inc must be at least 1")
        # a NaN or infinite tolerance would accept any residual unchecked
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError("tolerance must be finite and positive")
        if self.maxiter < 1:
            raise ValueError("maxiter must be at least 1")


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
    # a residual beyond 1e154 N overflows to an infinite norm: non-finite
    with np.errstate(over="ignore"):
        return r, float(math.sqrt(r @ r))


def solve(
    structure: Structure,
    load_case: LoadCase,
    config: SolverConfig = SolverConfig(),
) -> SolveResult:
    """Trace the equilibrium path under incrementally applied load up to
    its first instability.

    Per increment n: assemble the tangent's free-DOF band K_s at the last
    converged state, take the predictor step du = K_s^-1 dF,
    then iterate delta_u <- delta_u - K_s^-1 R with the tangent
    reassembled from the current trial state, until ||R|| <= tolerance or
    maxiter is hit. Each solve runs in band order: the right-hand side's
    free entries are gathered into it and the solution scattered back, so
    the fixed DOFs never move.

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
    d_f = f_total / config.n_inc
    with np.errstate(over="ignore"):
        direction = f_total / (np.linalg.norm(f_total) or 1.0)
    band = structure.free_band
    order = band.order
    u = np.zeros(structure.n_dof)
    states, _ = update_member_data(structure, u)
    records: list[IncrementRecord] = []
    prev_step = math.inf

    for n in range(1, config.n_inc + 1):
        f_ext = (n / config.n_inc) * f_total
        try:
            step, negative = solve_linear(assemble_tangent(structure, states),
                                          apply_supports(d_f, band))
            if negative > 0 and records:
                log.info("increment %d converged to an indefinite tangent",
                         n - 1)
                return SolveResult(records[:-1], "indefinite")

            du = np.zeros(structure.n_dof)
            du[order] = step
            u_trial = u + du
            states, f_int = update_member_data(structure, u_trial)
            r_vec, r_norm = residual(f_int, f_ext, structure.supports)

            delta_u = np.zeros(structure.n_dof)
            iterations = 0
            while r_norm > config.tolerance and iterations < config.maxiter:
                delta_u[order] -= solve_linear(
                    assemble_tangent(structure, states),
                    apply_supports(r_vec, band))[0]
                u_trial = u + du + delta_u
                states, f_int = update_member_data(structure, u_trial)
                r_vec, r_norm = residual(f_int, f_ext, structure.supports)
                iterations += 1
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
        records.append(IncrementRecord(n, u.copy(), iterations, r_norm))

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
    """Largest load magnitude (within resolution) the structure sustains.

    Traces one force-controlled load path of ``load_pattern`` (typically a
    unit force at one node) from zero to ``f_hi`` in
    ``n_inc = max(config.n_inc, ceil(f_hi / resolution))`` equal steps.
    ``solve`` ends that path at its first instability event (Newton-Raphson
    failure, an indefinite converged tangent or a snap), so the probe
    returns the load of its last recorded increment, a multiple of the
    step ``f_hi / n_inc``. Raises BracketInvalid when f_lo >= f_hi, when
    the whole path to f_hi completes ("still holds at f_hi") and when the
    returned force would fall below f_lo ("already collapses at f_lo"),
    and ValueError when f_lo, f_hi or resolution is not finite.
    Deterministic for fixed inputs.
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

    n_inc = max(config.n_inc, math.ceil(f_hi / resolution))
    result = solve(structure, make_load_case(structure, f_hi * pattern),
                   replace(config, n_inc=n_inc))
    held = len(result.increments)
    if held == n_inc:
        raise BracketInvalid(f"structure still holds at f_hi = {f_hi}")
    force = held * f_hi / n_inc
    if force < f_lo:
        raise BracketInvalid(f"structure already collapses at f_lo = {f_lo}")
    return force
