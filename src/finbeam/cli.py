"""Command line front end: generate fingers, run solves, run design sweeps
that trace each variant's load path once (solver.trace_loads).

Exit codes are a stable contract: 0 success, 2 invalid input, 3 divergence
(the partial history is still written). Set FINBEAM_LOG_LEVEL=INFO or DEBUG
for solver progress on stderr.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import logging
import math
import operator
import os
import sys
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .finray import (
    FinRayParams,
    generate,
    load_at_contact_node,
    model_to_dict,
    params_from_dict,
)
from .model import known_keys, load_case, structure_from_dict, typed
# unused here, but bench/tracer.py wraps finbeam.cli.probe_max_force
from .solver import SolverConfig, probe_max_force, solve, trace_loads

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DIVERGED = 3

SWEEP_AXES = ("n_crossbeams", "top_angle", "inclination", "connection")
DEFAULT_PROBE = {"f_lo": 0.05, "f_hi": 4.0, "resolution": 0.05}
# the keys each input document section may hold; any other is a typo
LOAD_KEYS = ("forces",)
FORCE_KEYS = ("node", "fx", "fy", "m")
SWEEP_KEYS = ("axis", "values", "load_node_rank", "load_magnitudes",
              "load_direction", "base_params", "solver", "probe")
# the loaded node's displacement trend along each numeric axis
DISPLACEMENT_TRENDS = {
    "n_crossbeams": ("displacement_decreasing_with_crossbeams", operator.gt),
    "top_angle": ("displacement_increasing_with_top_angle", operator.lt),
    "inclination": ("displacement_increasing_with_inclination", operator.lt)}

log = logging.getLogger(__name__)


def main(argv: Optional[Sequence[str]] = None) -> int:
    level = os.environ.get("FINBEAM_LOG_LEVEL", "WARNING").upper()
    known = {"CRITICAL", "ERROR", "WARNING", "INFO", "DEBUG", "NOTSET"}
    logging.basicConfig(
        level=level if level in known else "WARNING",
        format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # ModelError and json.JSONDecodeError are ValueErrors
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def run() -> int:
    """The program entry of `finbeam` and `python -m finbeam`: main()'s exit
    code, with the heap frozen on the way out (also when argparse exits), so
    that the exiting interpreter's garbage collections skip every object
    numpy and the run created. Exit still runs atexit, which flushes
    logging, and flushes stdio; main() has closed its output files. main()
    itself never freezes: library callers keep their collector as it was."""
    try:
        return main()
    finally:
        gc.freeze()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finbeam",
        description="Nonlinear 2D frame solver and Fin-Ray design sweeps")
    sub = parser.add_subparsers(required=True)

    gen = sub.add_parser("generate", help="mesh a finger from a params file")
    gen.add_argument("params_file")
    gen.add_argument("out_file")
    gen.set_defaults(func=_cmd_generate)

    slv = sub.add_parser("solve", help="run one incremental solve")
    slv.add_argument("structure_file")
    slv.add_argument("load_file")
    slv.add_argument("out_file")
    slv.add_argument("--n-inc", type=int, default=SolverConfig.n_inc)
    slv.add_argument("--tolerance", type=float, default=SolverConfig.tolerance)
    slv.add_argument("--maxiter", type=int, default=SolverConfig.maxiter)
    slv.set_defaults(func=_cmd_solve)

    swp = sub.add_parser("sweep", help="run a design-parameter sweep")
    swp.add_argument("sweep_file")
    swp.add_argument("out_file")
    swp.add_argument("--probe-max-force", action="store_true")
    swp.set_defaults(func=_cmd_sweep)

    return parser


def _read_json(path: str):
    """An input document's JSON value; its reader checks it is an object."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _cmd_generate(args) -> int:
    params = params_from_dict(_read_json(args.params_file))
    model = generate(params)
    with open(args.out_file, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")
    return EXIT_OK


def _load_vector_from_file(structure, data):
    entries = known_keys("load file", data, LOAD_KEYS).get("forces", [])
    if not isinstance(entries, list):
        raise ValueError(f"forces must be a list, got {entries!r}")
    forces = {}
    for index, entry in enumerate(entries):
        entry = _numbers(f"forces[{index}]", entry, FORCE_KEYS,
                         integers=("node",))
        if "node" not in entry:
            raise ValueError(f"forces[{index}]: missing key 'node'")
        node = entry["node"]
        fx, fy, m = (entry.get(key, 0.0) for key in ("fx", "fy", "m"))
        prev = forces.get(node, (0.0, 0.0, 0.0))
        forces[node] = (prev[0] + fx, prev[1] + fy, prev[2] + m)
    return load_case(structure, forces)


def _cmd_solve(args) -> int:
    structure = structure_from_dict(_read_json(args.structure_file))
    case = _load_vector_from_file(structure, _read_json(args.load_file))
    config = SolverConfig(n_inc=args.n_inc, tolerance=args.tolerance,
                          maxiter=args.maxiter)

    result = solve(structure, case, config)

    with open(args.out_file, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["increment", "node", "u", "w", "theta",
                         "residual_norm", "iterations"])
        for n, record in enumerate(result.increments, start=1):
            for node, (u, w, theta) in enumerate(
                    record.displacement.reshape(-1, 3)):
                writer.writerow([
                    n, node, repr(float(u)), repr(float(w)),
                    repr(float(theta)), repr(float(record.residual_norm)),
                    record.iterations,
                ])

    if not result.completed:
        print(f"diverged at increment {result.diverged_at} "
              f"({result.cause})", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


@dataclass(frozen=True)
class SweepSpec:
    """One-axis design study: which parameter varies, how it is loaded."""

    axis: str
    values: tuple
    load_node_rank: int
    load_magnitudes: tuple[float, ...]
    base_params: FinRayParams
    config: SolverConfig
    probe: dict
    load_direction: Optional[tuple[float, float]] = None


def _parse_sweep_spec(data) -> SweepSpec:
    axis = known_keys("sweep", data, SWEEP_KEYS).get("axis")
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    values = tuple(_list("values", data.get("values")))
    if axis in ("top_angle", "inclination"):
        values = tuple(typed("values", v, float) for v in values)
    magnitudes = tuple(typed("load_magnitudes", m, float) for m in
                       _list("load_magnitudes", data.get("load_magnitudes")))
    base = params_from_dict(data.get("base_params", {}))
    # every variant's parameters are checked here, before any solve
    contact_nodes = min(replace(base, **{axis: v}).n_contact_nodes
                        for v in values)
    for index, value in enumerate(values):
        if value in values[:index]:
            raise ValueError(f"values must be distinct, got {value!r} twice")
    rank = typed("load_node_rank", data.get("load_node_rank", 2), int)
    if not 1 <= rank <= contact_nodes:
        raise ValueError(f"load_node_rank must be in 1..{contact_nodes}, the "
                         f"contact nodes of every variant, got {rank}")
    solver_cfg = SolverConfig(**known_keys("solver", data.get("solver", {}),
                                           SolverConfig.__dataclass_fields__))
    probe = dict(DEFAULT_PROBE)
    probe.update(_numbers("probe", data.get("probe", {}), DEFAULT_PROBE))
    if not (0 <= probe["f_lo"] < probe["f_hi"] and probe["resolution"] > 0):
        raise ValueError("probe needs 0 <= f_lo < f_hi and resolution > 0, "
                         f"got {probe}")
    direction = data.get("load_direction")
    if direction is not None:
        if not isinstance(direction, list) or len(direction) != 2:
            raise ValueError(f"load_direction must be [x, y], got "
                             f"{direction!r}")
        direction = tuple(typed("load_direction", d, float) for d in direction)
    return SweepSpec(axis, values, rank, magnitudes, base, solver_cfg, probe,
                     direction)


def _numbers(section: str, entries, keys, integers=()) -> dict:
    """A section of the given keys whose values are numbers, as ints under
    the keys in ``integers`` and floats under the others."""
    return {key: typed(f"{section}.{key}", value,
                       int if key in integers else float)
            for key, value in known_keys(section, entries, keys).items()}


def _list(name: str, value) -> list:
    if not isinstance(value, list) or not value:
        raise ValueError(f"{name} must be a non-empty list, got {value!r}")
    return value


def _run_variant(spec: SweepSpec, value, do_probe: bool) -> dict:
    """Trace one sweep variant's path once (trace_loads): its CSV rows at
    every load magnitude, as the writer takes them, the loaded node's
    |(u, w)| at each magnitude the path reached and, optionally, its probe:
    trace_loads's force, and the summary's max_allowable_force, that force
    when it is finite, else None."""
    model = generate(replace(spec.base_params, **{spec.axis: value}))
    label = f"{spec.axis}={value}"
    pattern = load_at_contact_node(model, spec.load_node_rank, 1.0,
                                   direction=spec.load_direction).f_total
    bracket = tuple(spec.probe[k] for k in DEFAULT_PROBE) if do_probe else None
    result = trace_loads(model.structure, pattern, spec.load_magnitudes,
                         spec.config, bracket)
    if result.error:
        log.warning("probe for %s: %s", label, result.error)
    rows, loaded_node_disp = [], []
    records = result.increments + [None] * len(spec.load_magnitudes)
    for magnitude, record in zip(spec.load_magnitudes, records):
        for rank, node in enumerate(model.contact_nodes, start=1):
            u, w, theta = (record.displacement.reshape(-1, 3)[node]
                           if record else [math.nan] * 3)
            rows.append([
                label, repr(float(magnitude)), rank, repr(float(u)),
                repr(float(w)), repr(float(theta)), record is not None,
                repr(float(record.iterations if record else math.nan))])
            if rank == spec.load_node_rank and record:
                loaded_node_disp.append(math.hypot(u, w))
    force = result.force
    finite = force is not None and math.isfinite(force)
    return {"label": label, "value": value, "rows": rows, "force": force,
            "max_allowable_force": force if finite else None,
            "probe_error": result.error, "loaded_node_disp": loaded_node_disp}


def _trend_checks(spec: SweepSpec, variants: list[dict], probed: bool) -> dict:
    """Monotonicity verdicts for the design-study properties on this axis,
    taken along the axis: in ascending order of the variants' values on
    every axis but ``connection``, whatever their order in the sweep file.

    Displacement trends are judged at the largest magnitude every variant
    sustained: compliance differences between variants only develop once
    the response is meaningfully nonlinear.
    """
    if spec.axis != "connection":
        variants = sorted(variants, key=operator.itemgetter("value"))
    trends: dict = {}
    # every path reached load_magnitudes[:reached]; judged at the last
    reached = min(len(v["loaded_node_disp"]) for v in variants)
    disp = ([v["loaded_node_disp"][reached - 1] for v in variants]
            if reached else [])

    if spec.axis in DISPLACEMENT_TRENDS and disp:
        name, order = DISPLACEMENT_TRENDS[spec.axis]
        trends[name] = all(map(order, disp, disp[1:]))
    elif spec.axis == "connection" and disp:
        by_value = {v["value"]: d for v, d in zip(variants, disp)}
        if "simple" in by_value and "rigid" in by_value and by_value["rigid"]:
            trends["simple_over_rigid_ratio"] = (
                by_value["simple"] / by_value["rigid"])

    if probed:
        # trace_loads's force: inf holds at f_hi (variants that all hold tie
        # at the top), -inf collapses below f_lo, None leaves no verdict
        ranks = [v["force"] for v in variants]
        if spec.axis == "connection":
            by_value = {v["value"]: r for v, r in zip(variants, ranks)}
            pair = by_value.get("simple"), by_value.get("rigid")
            if None not in pair:
                trends["rigid_max_force_exceeds_simple"] = _ascending(*pair)
        else:
            trends["max_force_ascending"] = None not in ranks and all(
                map(_ascending, ranks, ranks[1:]))
    return trends


def _ascending(a: float, b: float) -> bool:
    """Whether strength b ranks above strength a, or both hold at f_hi."""
    return a < b or a == b == math.inf


def _cmd_sweep(args) -> int:
    spec = _parse_sweep_spec(_read_json(args.sweep_file))

    variants = [_run_variant(spec, v, args.probe_max_force)
                for v in spec.values]

    with open(args.out_file, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["variant", "load_n", "node_rank", "u", "w", "theta",
                         "converged", "iterations"])
        for variant in variants:
            writer.writerows(variant["rows"])

    summary = {
        "axis": spec.axis,
        "load_node_rank": spec.load_node_rank,
        "load_magnitudes": list(spec.load_magnitudes),
        "variants": [
            {"label": v["label"], "value": v["value"],
             "max_allowable_force": v["max_allowable_force"],
             "probe_error": v["probe_error"]}
            for v in variants
        ],
        "trends": _trend_checks(spec, variants, args.probe_max_force),
    }
    summary_path = os.path.splitext(args.out_file)[0] + ".summary.json"
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return EXIT_OK
