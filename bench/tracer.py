"""In-memory spans and counters around finbeam's layer boundaries.

Callers inside finbeam bind names at import time (``from .assembly import
solve_linear``), so each wrapper is installed in the module where the name
is looked up, not where it is defined. The wrappers are removed again when
the ``installed`` context ends, which leaves untraced passes untouched.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import math
import time
from collections import Counter, defaultdict

import finbeam.assembly
import finbeam.cli
import finbeam.finray
import finbeam.solver

# (module, attribute, span name). Timed wrappers record a span per call.
TIMED = (
    (finbeam.solver, "update_member_data", "assembly.update_member_data"),
    (finbeam.solver, "assemble_tangent", "assembly.assemble_tangent"),
    (finbeam.solver, "apply_supports", "assembly.apply_supports"),
    (finbeam.solver, "solve_linear", "assembly.solve_linear"),
    (finbeam.solver, "solve", "solver.solve"),
    (finbeam.solver, "path_is_stable", "solver.path_is_stable"),
    (finbeam.finray, "generate", "finray.generate"),
    (finbeam.cli, "generate", "finray.generate"),
    (finbeam.cli, "solve", "solver.solve"),
    (finbeam.cli, "probe_max_force", "solver.probe_max_force"),
)
# Per-element kernels are only counted: a timer per call would cost more
# than the functions themselves.
COUNTED = (
    (finbeam.assembly, "current_geometry", "corotational.current_geometry"),
    (finbeam.assembly, "element_tangent_stiffness",
     "corotational.element_tangent_stiffness"),
)
PROBE = "solver.probe_max_force"
_PROBE_SIGNATURE = inspect.signature(finbeam.solver.probe_max_force)


class Tracer:
    """Spans (id, parent, request, name, start, end) and work counters."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.request = -1
        self.increments = 0
        self.newton_iters = 0
        self.diverged_solves = 0
        self.solves_in_probes = 0
        self.probe_needed = 0
        self.probe_attempted = 0
        self.factor_flop = 0.0
        self._stack: list[int] = []
        self._next_id = 0
        self._in_probe = False
        self._probe_increments = 0

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named name; return its result."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, self.request, name,
                               start, end))
            self.calls[name] += 1

    def _timed(self, name: str, fn):
        if name == "solver.solve":
            def wrapper(*args, **kwargs):
                result = self.span(name, fn, *args, **kwargs)
                self._count_solve(result)
                return result
        elif name == "assembly.solve_linear":
            def wrapper(k_s, *args, **kwargs):
                self.factor_flop += 2.0 / 3.0 * k_s.shape[0] ** 3
                return self.span(name, fn, k_s, *args, **kwargs)
        elif name == PROBE:
            def wrapper(*args, **kwargs):
                return self._probe(fn, args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                return self.span(name, fn, *args, **kwargs)
        return wrapper

    def _counted(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _count_solve(self, result) -> None:
        self.increments += len(result.increments)
        self.newton_iters += sum(r.iterations for r in result.increments)
        if not result.completed:
            self.diverged_solves += 1
        if self._in_probe:
            self.solves_in_probes += 1
            # a diverged solve also attempted the increment it failed in
            self._probe_increments += (len(result.increments)
                                       + (not result.completed))

    def _probe(self, fn, args, kwargs):
        self._in_probe, self._probe_increments = True, 0
        try:
            force = self.span(PROBE, fn, *args, **kwargs)
        finally:
            self._in_probe = False
        bound = _PROBE_SIGNATURE.bind(*args, **kwargs).arguments
        # increments a single solve needs to reach the returned force at
        # the probe's step size, as the probe itself would step it
        self.probe_needed += max(bound["config"].n_inc,
                                 math.ceil(force / bound["resolution"]))
        self.probe_attempted += self._probe_increments
        return force

    @contextlib.contextmanager
    def installed(self):
        """Patch every wrapper in place for the duration of the block."""
        originals = []
        try:
            for table, make in ((TIMED, self._timed), (COUNTED, self._counted)):
                for module, attr, name in table:
                    original = getattr(module, attr)
                    originals.append((module, attr, original))
                    setattr(module, attr, make(name, original))
            yield self
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)

    def counts(self) -> dict:
        """Work counters that must repeat exactly for a given seed."""
        out = {name: self.calls[name] for name in sorted(self.calls)}
        out.update(increments=self.increments,
                   newton_iters=self.newton_iters,
                   diverged_solves=self.diverged_solves,
                   solves_in_probes=self.solves_in_probes,
                   probe_needed=self.probe_needed,
                   probe_attempted=self.probe_attempted,
                   factor_flop=self.factor_flop)
        return out

    def self_seconds(self) -> dict:
        """Total self time per span name: duration minus child spans."""
        child = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        total = defaultdict(float)
        for span_id, _, _, name, start, end in self.spans:
            total[name] += end - start - child[span_id]
        return dict(total)

    def write_jsonl(self, fh, pass_index: int) -> None:
        origin = min((s[4] for s in self.spans), default=0.0)
        for span_id, parent, request, name, start, end in self.spans:
            fh.write(json.dumps({
                "pass": pass_index, "id": span_id, "parent": parent,
                "request": request, "name": name,
                "start_s": start - origin, "end_s": end - origin}))
            fh.write("\n")
