"""Parametric generation of Fin-Ray finger structures.

Layout of the generated finger (undeformed, SI units)::

        y
        ^
      tip = (0, height)
        *
        |\\
        | \\      back fin
  front | _\\
  fin   |=  \\
        j2   \\
        | ___ \\
        |=     \\
        j1      \\
        |        \\
        *---------*--> x
    front root   back root = (height * tan(top_angle), 0)
      (fixed)      (fixed)

The front (contact) fin is vertical; the back fin root sits where the two
fins enclose ``top_angle`` at the tip. Crossbeam front junctions j1..jk are
placed at equal height fractions i/(k+1) of the front fin and double as the
contact nodes; the tip completes the contact-node list.

Crossbeams climb from their front junction toward the back fin. At zero
inclination they run perpendicular to the nominal design's back fin, a
rise of NOMINAL_CROSSBEAM_RISE_DEG above horizontal (the rung layout of
the commercial fingers). The inclination angle tilts them from that
baseline::

    inclination < 0        inclination = 0        inclination > 0
    steeper climb,         perpendicular          flatter climb,
    back end raised        baseline               back end lowered
    (stiffer finger)                              (more compliant,
                                                   higher max force)

``width`` records the nominal base width of the design family; the
realized base width follows from height and top_angle so the top angle can
be varied independently (a triangle of fixed base and height caps the tip
angle near 31 degrees, well short of the design range).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from typing import Mapping, Optional, Sequence

from .model import (
    KIND_BEAM,
    KIND_PIN,
    ElementProps,
    LoadCase,
    Structure,
    build_structure,
    known_keys,
    load_case,
    structure_to_dict,
    typed_fields,
)

CONNECTION_SIMPLE = "simple"
CONNECTION_RIGID = "rigid"

# Crossbeam rise above horizontal at zero inclination: perpendicular to the
# nominal (Table-model) back fin, a fixed property of the design family
# rather than re-derived per top-angle variant.
NOMINAL_CROSSBEAM_RISE_DEG = 20.0


class GeometryInfeasible(ValueError):
    """A crossbeam endpoint misses its fin segment."""


class UnknownContactNode(LookupError):
    """Contact-node rank outside 1..len(contact_nodes)."""


@dataclass(frozen=True)
class FinRayParams:
    """The four design parameters plus material/section data.

    Angles in degrees; all lengths in metres, modulus in Pa. ``refinement``
    is the number of co-rotational elements per physical segment. Each
    field is of its annotated type, numbers finite and never bools.
    """

    width: float = 40e-3
    height: float = 72e-3
    n_crossbeams: int = 3
    top_angle: float = 20.0
    inclination: float = 0.0
    connection: str = CONNECTION_RIGID
    section_b: float = 20e-3
    section_h: float = 1e-3
    e_modulus: float = 2e7
    refinement: int = 4

    def __post_init__(self):
        typed_fields(self, positive=("width", "height", "section_b",
                                     "section_h", "e_modulus", "refinement"))
        if not 0 < self.top_angle < 90:
            raise ValueError(f"top_angle must be in (0, 90) degrees, "
                             f"got {self.top_angle}")
        if not abs(self.inclination) < 45:
            raise ValueError(f"|inclination| must be below 45 degrees, "
                             f"got {self.inclination}")
        if self.n_crossbeams < 0:
            raise ValueError("n_crossbeams must be >= 0")
        if self.connection not in (CONNECTION_SIMPLE, CONNECTION_RIGID):
            raise ValueError(f"connection must be 'simple' or 'rigid', "
                             f"got {self.connection!r}")
        try:
            finite = math.isfinite(self.area) and math.isfinite(self.inertia)
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"section_b = {self.section_b} and section_h = "
                             f"{self.section_h} overflow the area or inertia")

    @property
    def n_contact_nodes(self) -> int:
        """The loadable front-fin nodes: one per crossbeam, and the tip."""
        return self.n_crossbeams + 1

    @property
    def area(self) -> float:
        return self.section_b * self.section_h

    @property
    def inertia(self) -> float:
        return self.section_b * self.section_h**3 / 12.0

    def to_dict(self) -> dict:
        return asdict(self)


def params_from_dict(data: Mapping) -> FinRayParams:
    """Build FinRayParams from a JSON document, rejecting unknown keys."""
    return FinRayParams(**known_keys("parameters", data,
                                     FinRayParams.__dataclass_fields__))


@dataclass(frozen=True)
class FinRayModel:
    """Generated finger: structure plus contact-node and crossbeam indices.

    contact_nodes are ordered base to tip and addressed 1-based by
    load_at_contact_node, matching the usual node 1..k naming.
    """

    structure: Structure
    contact_nodes: tuple[int, ...]
    crossbeam_elements: tuple[int, ...]


def generate(params: FinRayParams) -> FinRayModel:
    """Mesh a finger for the given design parameters.

    Both fin roots are fully fixed. Fin segments between junctions are
    subdivided into ``refinement`` beam elements. Rigid-connection
    crossbeams are subdivided the same way and share the junction nodes
    moment-rigidly; simple-connection crossbeams become a single pin-ended
    element each (an axial two-force member needs no interior nodes, and
    subdividing one would create zero-stiffness interior DOFs).
    """
    alpha = math.radians(params.top_angle)
    gamma = math.radians(params.inclination)
    h = params.height
    w_b = h * math.tan(alpha)
    k = params.n_crossbeams

    front_y = [i * h / (k + 1) for i in range(1, k + 1)]
    phi = math.radians(NOMINAL_CROSSBEAM_RISE_DEG) - gamma
    back_points = []
    last_t = 0.0
    for y in front_y:
        denom = math.cos(phi) + math.sin(phi) * w_b / h
        if denom <= 0.0:
            raise GeometryInfeasible(
                f"crossbeam at height {y:.4g} never reaches the back fin "
                f"(inclination {params.inclination} deg)")
        s = w_b * (1.0 - y / h) / denom
        t = (y + s * math.sin(phi)) / h
        if s <= 0.0 or not 0.0 < t < 1.0:
            raise GeometryInfeasible(
                f"crossbeam at height {y:.4g} attaches outside the back fin "
                f"(parameter {t:.3f})")
        if t <= last_t:
            raise GeometryInfeasible(
                "crossbeams overlap on the back fin; reduce |inclination| "
                "or the crossbeam count")
        last_t = t
        back_points.append((w_b * (1.0 - t), h * t))

    coords: list[tuple[float, float]] = []

    def new_node(x: float, y: float) -> int:
        coords.append((x, y))
        return len(coords) - 1

    front_root = new_node(0.0, 0.0)
    front_junctions = [new_node(0.0, y) for y in front_y]
    tip = new_node(0.0, h)
    back_root = new_node(w_b, 0.0)
    back_junctions = [new_node(x, y) for x, y in back_points]

    beam = ElementProps(params.e_modulus, params.area, params.inertia,
                        KIND_BEAM)
    pin = ElementProps(params.e_modulus, params.area, params.inertia,
                       KIND_PIN)
    elements: list[tuple[int, int, ElementProps]] = []

    def connect(a: int, b: int, pieces: int, props: ElementProps) -> None:
        xa, ya = coords[a]
        xb, yb = coords[b]
        prev = a
        for m in range(1, pieces):
            f = m / pieces
            prev_new = new_node(xa + f * (xb - xa), ya + f * (yb - ya))
            elements.append((prev, prev_new, props))
            prev = prev_new
        elements.append((prev, b, props))

    for a, b in zip([front_root, *front_junctions],
                    [*front_junctions, tip]):
        connect(a, b, params.refinement, beam)
    for a, b in zip([back_root, *back_junctions],
                    [*back_junctions, tip]):
        connect(a, b, params.refinement, beam)

    crossbeam_elements: list[int] = []
    for a, b in zip(front_junctions, back_junctions):
        start = len(elements)
        if params.connection == CONNECTION_SIMPLE:
            elements.append((a, b, pin))
        else:
            connect(a, b, params.refinement, beam)
        crossbeam_elements.extend(range(start, len(elements)))

    structure = build_structure(
        [(i, x, y) for i, (x, y) in enumerate(coords)],
        elements,
        {front_root: (True, True, True), back_root: (True, True, True)},
    )
    return FinRayModel(structure, tuple([*front_junctions, tip]),
                       tuple(crossbeam_elements))


def load_at_contact_node(
    model: FinRayModel,
    node_rank: int,
    magnitude: float,
    direction: Optional[Sequence[float]] = None,
) -> LoadCase:
    """Concentrated force at the rank-th contact node (1-based, base first).

    ``direction`` is an (x, y) vector, normalised internally; by default
    the force acts along the inward normal of the undeformed front fin,
    pressing the contact face toward the finger body.
    """
    if not 1 <= node_rank <= len(model.contact_nodes):
        raise UnknownContactNode(
            f"contact node rank {node_rank} outside 1.."
            f"{len(model.contact_nodes)}")
    node = model.contact_nodes[node_rank - 1]

    if direction is None:
        root = model.structure.nodes[0]
        tip = model.structure.nodes[model.contact_nodes[-1]]
        tx, ty = tip.x0 - root.x0, tip.y0 - root.y0
        # rotate the fin tangent by -90 degrees: the body lies on that side
        dx, dy = ty, -tx
    else:
        dx, dy = float(direction[0]), float(direction[1])
    norm = math.hypot(dx, dy)
    if norm == 0.0:
        raise ValueError("load direction must be a nonzero vector")
    fx = magnitude * dx / norm
    fy = magnitude * dy / norm
    return load_case(model.structure, {node: (fx, fy, 0.0)})


def model_to_dict(model: FinRayModel) -> dict:
    """Structure document extended with the contact-node ids."""
    doc = structure_to_dict(model.structure)
    doc["contact_nodes"] = list(model.contact_nodes)
    return doc
