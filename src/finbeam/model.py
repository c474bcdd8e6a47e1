"""Structural data model for 2D frames: nodes, elements, supports, loads.

Every node carries three degrees of freedom ordered (u, w, theta), so node
``i`` owns global DOFs ``3*i``, ``3*i + 1`` and ``3*i + 2``. Node ids must
be the contiguous range ``0 .. n_nodes - 1`` so that this mapping is a
bijection onto ``[0, n_dof)``.

Units are SI throughout: coordinates in m, moduli in Pa, areas in m^2,
second moments in m^4, forces in N, moments in N*m.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

COMPONENTS = ("u", "w", "theta")

KIND_BEAM = "beam"
KIND_PIN = "pin-ended"

# the keys a structure document and each of its entries may hold; finbeam
# generate adds the finger's contact_nodes, which a solve does not read
STRUCTURE_KEYS = ("nodes", "elements", "supports", "contact_nodes")
NODE_KEYS = ("id", "x", "y")
SUPPORT_KEYS = ("node", *COMPONENTS)


class ModelError(ValueError):
    """Base class for structural model validation failures."""


class DuplicateNode(ModelError):
    """Two nodes share the same id."""


class DanglingElement(ModelError):
    """An element references a node id that does not exist."""


class Disconnected(ModelError):
    """The element connectivity graph does not span all nodes."""


class UnconstrainedStructure(ModelError):
    """No translational DOF is fixed anywhere; the model is a mechanism."""


class UnknownNode(ModelError):
    """A node id lookup failed."""


@dataclass(frozen=True)
class Node:
    """A mesh node with its reference (undeformed) coordinates."""

    id: int
    x0: float
    y0: float


def document_key(f) -> str:
    """A dataclass field's metadata "key", else its name."""
    return f.metadata.get("key", f.name)


@dataclass(frozen=True)
class ElementProps:
    """Material and section data of one element.

    E, A and I are finite positive numbers, never bools. ``kind`` is either
    ``"beam"`` (moment-carrying at both ends) or ``"pin-ended"``
    (moment-free at both ends, axial force only). Messages name a field
    by its document_key."""

    e_modulus: float = field(metadata={"key": "E"})
    area: float = field(metadata={"key": "A"})
    inertia: float = field(metadata={"key": "I"})
    kind: str = KIND_BEAM

    def __post_init__(self):
        typed_fields(self)
        if self.e_modulus <= 0 or self.area <= 0 or self.inertia <= 0:
            raise ModelError(
                f"element properties must be positive, got E={self.e_modulus}, "
                f"A={self.area}, I={self.inertia}")
        if self.kind not in (KIND_BEAM, KIND_PIN):
            raise ModelError(f"unknown element kind {self.kind!r}")


ELEMENT_KEYS = ("i", "j", *map(document_key, fields(ElementProps)))


@dataclass(frozen=True)
class Element:
    """A two-node element with its reference length and orientation."""

    node_i: int
    node_j: int
    props: ElementProps
    l0: float
    beta0: float


@dataclass(frozen=True)
class SupportSet:
    """Per-node fixities: node id -> (u fixed, w fixed, theta fixed)."""

    constrained: Mapping[int, tuple[bool, bool, bool]]

    @cached_property
    def dofs(self) -> np.ndarray:
        """Sorted global DOF indices that are fixed to zero, read-only."""
        return _read_only([3 * node_id + k
                           for node_id in sorted(self.constrained)
                           for k, fixed in enumerate(self.constrained[node_id])
                           if fixed], np.intp)


# the (a, b) of the 21 distinct entries of an element's symmetric 6x6
# tangent, a <= b, row by row in element-local order
PACKED_ENTRIES = np.triu_indices(6)


@dataclass(frozen=True)
class FreeBand:
    """The free DOFs in band order and where each element's tangent entries
    go in their lower band.

    - ``order``: (n_free,) the free global DOFs, node by node in reverse
      Cuthill-McKee order; row and column j of the band system is global
      DOF ``order[j]``;
    - ``bandwidth``: the number of sub-diagonals of that system;
    - ``slots``: (n_elements * 21,) for the 21 distinct entries (a, b),
      a <= b, of each element's symmetric 6x6 tangent (PACKED_ENTRIES), in
      element order, the flat index of its slot in LAPACK's lower band
      storage, (bandwidth + 1, n_free) in Fortran order: the entry goes to
      whichever of (a, b) and (b, a) lies in the lower band, and at band
      position (j + r, j) that is slot j * (bandwidth + 1) + r. Entries on
      a fixed DOF go to the one discard slot (bandwidth + 1) * n_free,
      past the band.

    Both arrays are read-only.
    """

    order: np.ndarray
    bandwidth: int
    slots: np.ndarray


def _read_only(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Structure:
    """Immutable meshed structure; safe to share across concurrent solves."""

    nodes: tuple[Node, ...]
    elements: tuple[Element, ...]
    supports: SupportSet
    n_dof: int

    def dof_index(self, node_id: int, component: str) -> int:
        """Global DOF index of (node, component), component in {u, w, theta}."""
        if not 0 <= node_id < len(self.nodes):
            raise UnknownNode(f"node {node_id} not in structure")
        if component not in COMPONENTS:
            raise UnknownNode(f"unknown DOF component {component!r}")
        return 3 * node_id + COMPONENTS.index(component)

    @cached_property
    def element_dofs(self) -> np.ndarray:
        """(n_elements, 6) global DOF indices per element, read-only."""
        return _read_only(
            [[3 * e.node_i, 3 * e.node_i + 1, 3 * e.node_i + 2,
              3 * e.node_j, 3 * e.node_j + 1, 3 * e.node_j + 2]
             for e in self.elements], np.intp).reshape(len(self.elements), 6)

    @cached_property
    def element_dof_rows(self) -> np.ndarray:
        """(6, n_elements) element_dofs transposed, C-contiguous, so that a
        gather through it gives one row per local DOF; read-only."""
        rows = np.ascontiguousarray(self.element_dofs.T)
        rows.setflags(write=False)
        return rows

    @cached_property
    def element_l0(self) -> np.ndarray:
        """(n_elements,) reference lengths, read-only."""
        return _read_only([e.l0 for e in self.elements])

    @cached_property
    def element_min_length(self) -> np.ndarray:
        """(n_elements,) 1e-14 * L0, the chord length at or below which an
        element is degenerate; read-only."""
        return _read_only(1e-14 * self.element_l0)

    @cached_property
    def element_beta0(self) -> np.ndarray:
        """(n_elements,) reference chord angles, read-only."""
        return _read_only([e.beta0 for e in self.elements])

    @cached_property
    def element_chord0(self) -> np.ndarray:
        """(n_elements, 2) reference chords l0*(cos beta0, sin beta0),
        column-major, read-only."""
        return _read_only(
            [[e.l0 * math.cos(e.beta0) for e in self.elements],
             [e.l0 * math.sin(e.beta0) for e in self.elements]]).T

    @cached_property
    def element_tangent_rows(self) -> np.ndarray:
        """(10, n_elements) template of an element state, the rows (EA/L0,
        EI/L0, EI/L0, N, M1+M2, 1, c, s, c/L, s/L) of update_member_data:
        EA/L0 and EI/L0 (0 for pin-ended elements), the moduli of the local
        deformations [u_l, theta_1l, theta_2l], and the row of ones filled
        in, zeros in the rows each state fills in its own copy; read-only."""
        rows = np.zeros((10, len(self.elements)))
        rows[0] = [e.props.e_modulus * e.props.area / e.l0
                   for e in self.elements]
        rows[1:3] = [0.0 if e.props.kind == KIND_PIN
                     else e.props.e_modulus * e.props.inertia / e.l0
                     for e in self.elements]
        rows[5] = 1.0
        return _read_only(rows)

    @cached_property
    def free_band(self) -> FreeBand:
        """The free DOFs in reverse Cuthill-McKee node order and the band
        slots of every element's distinct tangent entries (see FreeBand)."""
        free = np.ones(self.n_dof, dtype=bool)
        free[self.supports.dofs] = False
        has_free = free.reshape(-1, 3).any(axis=1).tolist()
        nodes = _reverse_cuthill_mckee(_adjacency(self.elements, has_free),
                                       has_free)
        order = np.array([dof for node in nodes
                          for dof in range(3 * node, 3 * node + 3)
                          if free[dof]], dtype=np.intp)
        n_free = len(order)
        # the band holds every coupling: the widest spread of band
        # positions among one element's free DOFs
        position = np.full(self.n_dof, -1, dtype=np.intp)
        position[order] = np.arange(n_free)
        spread = position[self.element_dofs]
        lowest = np.where(spread >= 0, spread, n_free).min(axis=1)
        bandwidth = int(np.max(spread.max(axis=1) - lowest, initial=0))

        a, b = spread[:, PACKED_ENTRIES[0]], spread[:, PACKED_ENTRIES[1]]
        row, column = np.maximum(a, b), np.minimum(a, b)
        slots = np.where(column >= 0,
                         column * (bandwidth + 1) + row - column,
                         (bandwidth + 1) * n_free).ravel()
        order.setflags(write=False)
        slots.setflags(write=False)
        return FreeBand(order, bandwidth, slots)


@dataclass(frozen=True)
class LoadCase:
    """Total externally applied global nodal force vector."""

    f_total: np.ndarray


def build_structure(
    nodes: Iterable[tuple[int, float, float]],
    element_specs: Iterable[tuple[int, int, ElementProps]],
    supports: Mapping[int, tuple[bool, bool, bool]],
) -> Structure:
    """Validate inputs and assemble an immutable Structure.

    Nodes come as (id, x, y) tuples, elements as (node_i, node_j, props)
    with reference length and orientation computed from the node
    coordinates, and supports as a mapping of node id to (u, w, theta)
    fixities: integer ids and ends, finite coordinates and three booleans,
    each checked by typed under its structure document key. Raises
    DuplicateNode, DanglingElement, Disconnected or UnconstrainedStructure
    on malformed input, and ModelError for a mistyped input, when every
    DOF is fixed or an element's EA/L0 or EI/L0 is not a normal finite
    float; only a pin-ended element's EI/L0 is 0.
    """
    node_list, seen = [], set()
    for node_id, x, y in nodes:
        node_id = typed("id", node_id, int)
        if node_id in seen:
            raise DuplicateNode(f"node id {node_id} appears more than once")
        seen.add(node_id)
        if not all(math.isfinite(c) for c in (x, y)
                   if isinstance(c, numbers.Real)):
            raise ModelError(f"node {node_id} has non-finite coordinates "
                             f"(x, y) = ({x!r}, {y!r})")
        node_list.append(Node(node_id, typed("x", x, float),
                              typed("y", y, float)))
    n_nodes = len(node_list)
    if seen != set(range(n_nodes)):
        raise ModelError(
            "node ids must be the contiguous range 0..n-1 so DOF indexing "
            "is a bijection")
    node_list.sort(key=lambda n: n.id)

    elements = []
    for i, j, props in element_specs:
        i, j = typed("i", i, int), typed("j", j, int)
        if i == j:
            raise ModelError(f"element connects node {i} to itself")
        for end in (i, j):
            if not 0 <= end < n_nodes:
                raise DanglingElement(
                    f"element ({i}, {j}) references missing node {end}")
        ni, nj = node_list[i], node_list[j]
        dx = nj.x0 - ni.x0
        dy = nj.y0 - ni.y0
        l0 = math.hypot(dx, dy)
        if l0 <= 0.0:
            raise ModelError(f"element ({i}, {j}) has zero reference length")
        elements.append(Element(i, j, props, l0, math.atan2(dy, dx)))

    constrained = {}
    for node_id, fixities in supports.items():
        node_id, fixities = typed("node", node_id, int), tuple(fixities)
        if not 0 <= node_id < n_nodes:
            raise UnknownNode(f"support references missing node {node_id}")
        if len(fixities) != 3:
            raise ModelError(f"support at node {node_id} must give (u, w, "
                             f"theta) fixities, got {fixities!r}")
        constrained[node_id] = tuple(typed(key, fixed, bool) for key, fixed
                                     in zip(COMPONENTS, fixities))
    if not any(fix[0] or fix[1] for fix in constrained.values()):
        raise UnconstrainedStructure(
            "no translational DOF is constrained; structure is a mechanism")

    supports = SupportSet(constrained)
    if len(supports.dofs) == 3 * n_nodes:
        raise ModelError("every DOF is fixed; the structure has no free DOF "
                         "to solve for")

    _check_connected(n_nodes, elements)

    structure = Structure(tuple(node_list), tuple(elements), supports,
                          3 * n_nodes)
    moduli = structure.element_tangent_rows[:2]
    normal = (moduli >= sys.float_info.min) & (moduli <= sys.float_info.max)
    pinned = np.array([e.props.kind == KIND_PIN for e in elements], bool)
    invalid = ~(normal[0] & (normal[1] | pinned))
    if invalid.any():
        index = int(np.flatnonzero(invalid)[0])
        e = elements[index]
        raise ModelError(
            f"element {index} ({e.node_i}, {e.node_j}): EA/L0 or EI/L0 "
            f"overflows or is subnormal or 0 (E={e.props.e_modulus}, "
            f"A={e.props.area}, I={e.props.inertia}, L0={e.l0})")
    return structure


def _check_connected(n_nodes: int, elements: Sequence[Element]) -> None:
    if n_nodes == 0:
        raise ModelError("structure has no nodes")
    levels = _breadth_first(_adjacency(elements, [True] * n_nodes), 0)
    missing = sorted(set(range(n_nodes)).difference(*levels))
    if missing:
        raise Disconnected(f"nodes {missing} are not connected to node 0")


def _adjacency(elements: Sequence[Element], included: Sequence[bool]) -> list:
    """Each node's neighbours through the elements that join two included
    nodes, by ascending degree, then node id."""
    linked: list[set[int]] = [set() for _ in included]
    for e in elements:
        if included[e.node_i] and included[e.node_j]:
            linked[e.node_i].add(e.node_j)
            linked[e.node_j].add(e.node_i)
    return [sorted(nbs, key=lambda nb: (len(linked[nb]), nb))
            for nbs in linked]


def _breadth_first(adjacency: Sequence[list[int]], root: int) -> list:
    """The levels of root's component, breadth first, each node's
    unvisited neighbours in adjacency order."""
    seen, levels = {root}, [[root]]
    while levels[-1]:
        level = []
        for node in levels[-1]:
            fresh = [nb for nb in adjacency[node] if nb not in seen]
            seen.update(fresh)
            level += fresh
        levels.append(level)
    return levels[:-1]


def _reverse_cuthill_mckee(adjacency: Sequence[list[int]],
                           included: Sequence[bool]) -> list[int]:
    """The included nodes in reverse Cuthill-McKee order (Cuthill & McKee
    1969), which keeps every edge close to the diagonal.

    Each connected component is numbered by _breadth_first from a
    pseudo-peripheral node (George & Liu 1979): from the component's node
    of lowest (degree, id), the search moves to the lowest of the last
    level until the levels stop growing in number; its last walk is the
    numbering, which is then reversed. ``adjacency`` links included nodes
    only.
    """
    def key(node: int) -> tuple[int, int]:
        return len(adjacency[node]), node

    numbered, order = set(), []
    for root in sorted(range(len(adjacency)), key=key):
        if root in numbered or not included[root]:
            continue
        levels, walk = [], _breadth_first(adjacency, root)
        while len(walk) > len(levels):
            levels = walk
            walk = _breadth_first(adjacency, min(levels[-1], key=key))
        component = [node for level in walk for node in level]
        numbered.update(component)
        order.extend(component)
    return order[::-1]


def load_case(
    structure: Structure,
    nodal_forces: Mapping[int, Sequence[float]],
) -> LoadCase:
    """Build a LoadCase from {integer node id: (fx, fy, moment)}.

    Loads on constrained DOFs are rejected rather than silently dropped,
    so modelling mistakes surface early; typed checks ids and components.
    """
    f = np.zeros(structure.n_dof)
    for node_id, comps in nodal_forces.items():
        node_id = typed("load node", node_id, int)
        if not 0 <= node_id < len(structure.nodes):
            raise UnknownNode(f"load references missing node {node_id}")
        comps = [typed(f"load at node {node_id}", c, float) for c in comps]
        if len(comps) != 3:
            raise ModelError(
                f"load at node {node_id} must give (fx, fy, moment)")
        f[3 * node_id:3 * node_id + 3] += comps
    return make_load_case(structure, f)


def make_load_case(structure: Structure, f_total: np.ndarray) -> LoadCase:
    """Wrap a full global force vector as a LoadCase, validating it."""
    f = np.asarray(f_total, dtype=float).copy()
    if f.shape != (structure.n_dof,):
        raise ModelError(
            f"force vector has shape {f.shape}, expected ({structure.n_dof},)")
    if not np.all(np.isfinite(f)):
        raise ModelError("force vector has non-finite entries")
    fixed = structure.supports.dofs
    bad = fixed[f[fixed] != 0.0]
    if bad.size:
        raise ModelError(
            f"load applied at constrained DOF(s) {bad.tolist()}; fix the "
            "support or move the load")
    f.setflags(write=False)
    return LoadCase(f)


def structure_to_dict(structure: Structure) -> dict:
    """JSON-ready document: nodes, elements, supports (SI units)."""
    return {
        "nodes": [{"id": n.id, "x": n.x0, "y": n.y0} for n in structure.nodes],
        "elements": [
            {"i": e.node_i, "j": e.node_j,
             **{document_key(f): getattr(e.props, f.name)
                for f in fields(ElementProps)}}
            for e in structure.elements
        ],
        "supports": [
            {"node": node_id, "u": fix[0], "w": fix[1], "theta": fix[2]}
            for node_id, fix in sorted(structure.supports.constrained.items())
        ],
    }


def structure_from_dict(data: Mapping) -> Structure:
    """Inverse of structure_to_dict; runs full build validation. Ids,
    element ends and support nodes must be integers, coordinates and
    properties finite numbers, fixities booleans and ``kind`` a string.
    The document and its node, element and support entries may hold only
    the keys in STRUCTURE_KEYS, NODE_KEYS, ELEMENT_KEYS and SUPPORT_KEYS,
    and a node may have one support entry at most."""
    def entries(section, keys):
        return [known_keys(f"{section}[{index}]", entry, keys)
                for index, entry in enumerate(data[section])]

    known_keys("structure", data, STRUCTURE_KEYS)
    try:
        nodes = [(n["id"], n["x"], n["y"])
                 for n in entries("nodes", NODE_KEYS)]
        specs = [(e["i"], e["j"], ElementProps(**{
                      f.name: e[document_key(f)] for f in fields(ElementProps)
                      if f.default is MISSING or document_key(f) in e}))
                 for e in entries("elements", ELEMENT_KEYS)]
        supports = {}
        for s in entries("supports", SUPPORT_KEYS):
            if s["node"] in supports:
                raise ModelError(f"supports: node {s['node']} is listed more "
                                 "than once")
            supports[s["node"]] = tuple(s[key] for key in COMPONENTS)
    except (KeyError, TypeError) as exc:
        raise ModelError(f"malformed structure document: {exc}") from exc
    return build_structure(nodes, specs, supports)


def known_keys(section: str, entries, keys) -> Mapping:
    """entries, or ModelError if it is no object or has a key not in keys."""
    if not isinstance(entries, Mapping):
        raise ModelError(f"{section} must be an object, got {entries!r:.40}")
    unknown = sorted(set(entries) - set(keys))
    if unknown:
        raise ModelError(f"{section}: unknown key(s) {unknown}, expected "
                         f"some of {list(keys)}")
    return entries


_KINDS = {int: (numbers.Integral, "an integer"), str: (str, "a string"),
          float: (numbers.Real, "a finite number"),
          bool: ((bool, np.bool_), "a boolean")}
_BY_NAME = {kind.__name__: kind for kind in _KINDS}


def typed(name: str, value, kind: type):
    """value as kind (int, float, bool or str), or ModelError when it is
    not one. A bool is only a bool; a float must lie in a float's finite
    range."""
    types, noun = _KINDS[kind]
    if (isinstance(value, (bool, np.bool_)) != (kind is bool)
            or not isinstance(value, types)
            or kind is float and not abs(value) <= sys.float_info.max):
        raise ModelError(f"{name} must be {noun}, got {value!r:.40}")
    return kind(value)


def typed_fields(instance, positive: Sequence[str] = ()) -> None:
    """Store each dataclass field as typed returns it, of the kind its
    annotation text names, so that 2e7 and 20000000 make equal instances;
    then ValueError when a field named in ``positive`` is not above 0."""
    for f in fields(instance):
        object.__setattr__(instance, f.name, typed(
            document_key(f), getattr(instance, f.name), _BY_NAME[f.type]))
    for name in positive:
        if not getattr(instance, name) > 0:
            raise ValueError(
                f"{name} must be positive, got {getattr(instance, name)}")
