import dataclasses
import hashlib
import math
import typing

import numpy as np
import pytest

import finbeam
from finbeam import (
    COMPONENTS,
    DanglingElement,
    Disconnected,
    DuplicateNode,
    ElementProps,
    FinRayParams,
    ModelError,
    SolverConfig,
    SupportSet,
    UnconstrainedStructure,
    UnknownNode,
    build_structure,
    generate,
    load_case,
    make_load_case,
    structure_from_dict,
    structure_to_dict,
)
from conftest import STUDY_FINGERS

FIXED = (True, True, True)


def props(kind="beam"):
    return ElementProps(2e7, 2e-5, 1.6667e-12, kind)


def test_horizontal_unit_beam():
    s = build_structure([(0, 0.0, 0.0), (1, 1.0, 0.0)],
                        [(0, 1, props())], {0: FIXED})
    assert s.elements[0].l0 == 1.0
    assert s.elements[0].beta0 == 0.0
    assert s.n_dof == 6


def test_3_4_5_triangle_element():
    s = build_structure([(0, 0.0, 0.0), (1, 3.0, 4.0)],
                        [(0, 1, props())], {0: FIXED})
    assert s.elements[0].l0 == pytest.approx(5.0, rel=1e-15)
    assert s.elements[0].beta0 == pytest.approx(math.atan2(4, 3), rel=1e-15)


def test_dangling_element_rejected():
    with pytest.raises(DanglingElement):
        build_structure([(0, 0.0, 0.0), (1, 1.0, 0.0)],
                        [(0, 7, props())], {0: FIXED})


def test_duplicate_node_rejected():
    with pytest.raises(DuplicateNode):
        build_structure([(0, 0.0, 0.0), (0, 1.0, 0.0)],
                        [(0, 1, props())], {0: FIXED})


def test_non_contiguous_ids_rejected():
    with pytest.raises(ModelError):
        build_structure([(0, 0.0, 0.0), (2, 1.0, 0.0)],
                        [(0, 2, props())], {0: FIXED})


def test_self_loop_rejected():
    with pytest.raises(ModelError):
        build_structure([(0, 0.0, 0.0), (1, 1.0, 0.0)],
                        [(0, 0, props())], {0: FIXED})


def test_disconnected_rejected():
    nodes = [(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 5.0, 0.0), (3, 6.0, 0.0)]
    with pytest.raises(Disconnected):
        build_structure(nodes, [(0, 1, props()), (2, 3, props())], {0: FIXED})


def test_unconstrained_rejected():
    with pytest.raises(UnconstrainedStructure):
        build_structure([(0, 0.0, 0.0), (1, 1.0, 0.0)],
                        [(0, 1, props())], {0: (False, False, True)})


def two_nodes(first=(0, 0.0, 0.0), second=(1, 1.0, 0.0), j=1,
              supports=None):
    """One element from node 0 to node j, node 0 clamped by default."""
    return build_structure([first, second], [(0, j, props())],
                           supports or {0: FIXED})


@pytest.mark.parametrize("make, error, match", [
    (lambda: build_structure([(0, 0.0, 0.0), (1, math.inf, 0.0)],
                             [(0, 1, props())], {0: FIXED}),
     ModelError, "node 1 has non-finite coordinates"),
    (lambda: build_structure([(0, 0.0, 0.0), (1, 1.0, 0.0)],
                             [(0, 1, props())], {0: FIXED, 2: FIXED}),
     UnknownNode, "support references missing node 2"),
    (lambda: build_structure([], [], {}), UnconstrainedStructure,
     "mechanism"),
    (lambda: build_structure([], [], {0: FIXED}), UnknownNode,
     "missing node 0"),
    # build_structure stops both before its connectivity check
    (lambda: finbeam.model._check_connected(0, []), ModelError,
     "structure has no nodes"),
    (lambda: load_case(chain(2), {1: (1.0, 0.0)}),
     ModelError, r"load at node 1 must give \(fx, fy, moment\)"),
    (lambda: make_load_case(chain(2), np.zeros(5)),
     ModelError, r"force vector has shape \(5,\), expected \(6,\)"),
    # each was read by float() or indexed with: 1 N, 0.3 N, node 1, an
    # IndexError and a TypeError
    (lambda: load_case(chain(4), {1: (True, 0, 0)}), ModelError,
     "load at node 1 must be a finite number, got True"),
    (lambda: load_case(chain(4), {1: ("0.3", 0, 0)}), ModelError,
     "load at node 1 must be a finite number, got '0.3'"),
    (lambda: load_case(chain(4), {True: (1.0, 0.0, 0.0)}), ModelError,
     "load node must be an integer, got True"),
    (lambda: load_case(chain(4), {2.0: (1.0, 0.0, 0.0)}), ModelError,
     "load node must be an integer, got 2.0"),
    (lambda: load_case(chain(4), {"3": (1.0, 0.0, 0.0)}), ModelError,
     "load node must be an integer, got '3'"),
    # each was coerced or taken as given: "no" read as True, a missing
    # theta left free, a fourth fixity fixing node 1's u, ids False, True
    # and 0.0 read as 0 and 1, x = True as 1.0, and a float end a TypeError
    (lambda: two_nodes(supports={0: ("no", "no", "no")}), ModelError,
     "u must be a boolean, got 'no'"),
    (lambda: two_nodes(supports={0: (True, True)}), ModelError,
     r"support at node 0 must give \(u, w, theta\) fixities"),
    (lambda: two_nodes(supports={0: (True,) * 4}), ModelError,
     r"support at node 0 must give \(u, w, theta\) fixities"),
    (lambda: two_nodes(supports={False: FIXED}), ModelError,
     "node must be an integer, got False"),
    (lambda: two_nodes(first=(False, 0.0, 0.0)), ModelError,
     "id must be an integer, got False"),
    (lambda: two_nodes(second=(True, 1.0, 0.0)), ModelError,
     "id must be an integer, got True"),
    (lambda: two_nodes(first=(0.0, 0.0, 0.0)), ModelError,
     "id must be an integer, got 0.0"),
    (lambda: two_nodes(second=(1, True, 0.0)), ModelError,
     "x must be a finite number, got True"),
    (lambda: two_nodes(j=1.0), ModelError, "j must be an integer, got 1.0"),
], ids=["non-finite-node", "support-on-missing-node", "no-nodes",
        "no-nodes-supported", "no-nodes-connected", "load-not-3-components",
        "force-wrong-shape", "load-bool", "load-string", "load-node-bool",
        "load-node-float", "load-node-string", "fixity-string",
        "two-fixities", "four-fixities", "support-node-bool", "id-false",
        "id-true", "id-float", "x-bool", "end-float"])
def test_malformed_input_rejected(make, error, match):
    with pytest.raises(error, match=match):
        make()


def test_every_dof_fixed_rejected():
    # nothing is left to solve for; the band solve would get an empty system
    with pytest.raises(ModelError, match="no free DOF"):
        build_structure([(0, 0.0, 0.0), (1, 1.0, 0.0)], [(0, 1, props())],
                        {0: FIXED, 1: FIXED})


@pytest.mark.parametrize("area, inertia", [(1e10, 1.0), (1e-10, 1e10)],
                         ids=["EA", "EI"])
def test_overflowing_moduli_rejected(area, inertia):
    # E, A and I are finite, but EA/L0 or EI/L0 is not
    with pytest.raises(ModelError, match="overflows"):
        build_structure([(0, 0.0, 0.0), (1, 0.01, 0.0)],
                        [(0, 1, ElementProps(1e300, area, inertia))],
                        {0: FIXED})


def test_overflowing_finger_moduli_rejected():
    with pytest.raises(ModelError, match="EA/L0 or EI/L0 overflows"):
        generate(FinRayParams(e_modulus=1e300, section_b=1e10))


@pytest.mark.parametrize("area, inertia",
                         [(1e-10, 1.0), (1.0, 1e-12), (1.0, 1e-30)],
                         ids=["EA", "EI", "EI-zero"])
def test_subnormal_moduli_rejected(area, inertia):
    # EA/L0 or EI/L0 below sys.float_info.min, or underflowing to exactly 0
    # in a beam: a beam so soft carries any load at absurd displacements, or
    # solves with denormal arithmetic
    props = ElementProps(1e-300, area, inertia)
    with pytest.raises(ModelError, match="subnormal"):
        build_structure([(0, 0.0, 0.0), (1, 0.01, 0.0)], [(0, 1, props)],
                        {0: FIXED})
    # a pin-ended element's EI/L0 is exactly 0 by design
    pin = ElementProps(1e-300, 1.0, inertia, "pin-ended")
    build_structure([(0, 0.0, 0.0), (1, 0.01, 0.0)], [(0, 1, pin)],
                    {0: FIXED})


@pytest.mark.parametrize("connection", ["rigid", "simple"])
def test_underflowing_finger_moduli_rejected(connection):
    # E = 1e-320 makes EA/L0 and EI/L0 exactly 0; such a finger used to end
    # its first solve increment with a singular tangent
    with pytest.raises(ModelError, match="subnormal or 0"):
        generate(FinRayParams(e_modulus=1e-320, connection=connection))


def test_subnormal_finger_moduli_rejected():
    # EI/L0 is about 1e-309; such a finger "completed" a 0.3 N solve with
    # displacements of 3e302 m
    with pytest.raises(ModelError, match="EA/L0 or EI/L0 overflows or is "
                                         "subnormal"):
        generate(FinRayParams(e_modulus=1e-300))


def test_zero_length_element_rejected():
    with pytest.raises(ModelError):
        build_structure([(0, 0.0, 0.0), (1, 0.0, 0.0)],
                        [(0, 1, props())], {0: FIXED})


def test_props_validation():
    with pytest.raises(ModelError):
        ElementProps(-1.0, 2e-5, 1e-12)
    with pytest.raises(ModelError):
        ElementProps(2e7, 0.0, 1e-12)
    with pytest.raises(ModelError):
        ElementProps(2e7, 2e-5, 1e-12, kind="welded")


# values outside each field type: a bool is no number and no count, and a
# number must be finite
MISTYPED = {float: (math.nan, math.inf, -math.inf, True), int: (True, 2.5),
            str: (1,)}


@pytest.mark.parametrize("valid", [props(), FinRayParams(), SolverConfig()],
                         ids=lambda valid: type(valid).__name__)
def test_every_field_rejects_values_outside_its_type(valid):
    # read from the fields, so that a field added later is covered too; the
    # message names the field's document key (ElementProps' E, A and I)
    hints = typing.get_type_hints(type(valid))
    for field in dataclasses.fields(valid):
        key = field.metadata.get("key", field.name)
        for value in MISTYPED[hints[field.name]]:
            with pytest.raises(ValueError, match=f"^{key} must"):
                dataclasses.replace(valid, **{field.name: value})


def chain(n):
    nodes = [(i, float(i), 0.0) for i in range(n)]
    elements = [(i, i + 1, props()) for i in range(n - 1)]
    return build_structure(nodes, elements, {0: FIXED})


def test_dof_index_examples():
    s = chain(3)
    assert s.dof_index(0, "u") == 0
    assert s.dof_index(2, "theta") == 8
    assert s.dof_index(1, "w") == 4


def test_dof_index_unknown():
    s = chain(2)
    with pytest.raises(UnknownNode):
        s.dof_index(9, "u")
    with pytest.raises(UnknownNode):
        s.dof_index(0, "rx")


def test_dof_index_bijection():
    s = chain(5)
    hits = {s.dof_index(n.id, c) for n in s.nodes for c in COMPONENTS}
    assert hits == set(range(s.n_dof))


def test_build_deterministic():
    a, b = chain(4), chain(4)
    assert a.nodes == b.nodes
    assert a.elements == b.elements


def test_reference_length_reproducible(rng):
    pts = np.cumsum(rng.uniform(-1.0, 1.0, size=(10, 2)), axis=0)
    nodes = [(i, x, y) for i, (x, y) in enumerate(pts)]
    elements = [(i, i + 1, props()) for i in range(9)]
    s = build_structure(nodes, elements, {0: FIXED})
    for e in s.elements:
        ni, nj = s.nodes[e.node_i], s.nodes[e.node_j]
        l_ref = math.hypot(nj.x0 - ni.x0, nj.y0 - ni.y0)
        assert abs(l_ref - e.l0) <= 1e-12 * e.l0


def test_load_case_basic():
    s = chain(3)
    case = load_case(s, {2: (1.5, -2.0, 0.25)})
    expected = np.zeros(9)
    expected[6:9] = [1.5, -2.0, 0.25]
    assert np.array_equal(case.f_total, expected)


def test_load_on_constrained_dof_rejected():
    s = chain(3)
    with pytest.raises(ModelError):
        load_case(s, {0: (1.0, 0.0, 0.0)})


def test_load_on_unknown_node_rejected():
    s = chain(3)
    with pytest.raises(UnknownNode):
        load_case(s, {11: (1.0, 0.0, 0.0)})


def test_load_non_finite_rejected():
    s = chain(3)
    with pytest.raises(ModelError):
        load_case(s, {1: (float("nan"), 0.0, 0.0)})


def test_support_dofs_sorted_and_read_only():
    supports = SupportSet({2: (False, True, False), 0: FIXED})
    assert supports.dofs.tolist() == [0, 1, 2, 7]
    with pytest.raises(ValueError):
        supports.dofs[0] = 5


def test_json_round_trip():
    nodes = [(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 1.0, 1.0)]
    elements = [(0, 1, props()), (1, 2, props("pin-ended"))]
    s = build_structure(nodes, elements,
                        {0: FIXED, 2: (True, True, False)})
    doc = structure_to_dict(s)
    s2 = structure_from_dict(doc)
    assert s2.nodes == s.nodes
    assert s2.elements == s.elements
    assert np.array_equal(s2.supports.dofs, s.supports.dofs)
    assert s2.elements[1].props.kind == "pin-ended"


def test_from_dict_rejects_malformed():
    with pytest.raises(ModelError):
        structure_from_dict({"nodes": [{"id": 0}], "elements": [],
                             "supports": []})


def two_element_document():
    return structure_to_dict(build_structure(
        [(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 1.0, 1.0)],
        [(0, 1, props()), (1, 2, props("pin-ended"))], {0: FIXED}))


@pytest.mark.parametrize("section, field, value", [
    ("supports", "theta", "false"), ("supports", "u", 1),
    ("supports", "node", "0"), ("supports", "node", 0.0),
    ("nodes", "id", 1.0), ("nodes", "id", True), ("nodes", "x", "0.5"),
    ("nodes", "y", math.nan), ("nodes", "x", math.inf),
    ("elements", "E", "2e7"), ("elements", "A", False),
    ("elements", "I", math.inf), ("elements", "i", 0.5),
    ("elements", "j", "1"), ("elements", "kind", 5),
    ("elements", "kind", None)])
def test_from_dict_rejects_mistyped_fields(section, field, value):
    # each of these was converted by bool(), int(), float() or str() and
    # read as something else, or solved with a string modulus
    doc = two_element_document()
    doc[section][0][field] = value
    with pytest.raises(ModelError, match=field):
        structure_from_dict(doc)


def test_from_dict_accepts_numpy_numbers():
    doc = two_element_document()
    doc["nodes"][1].update(id=np.int64(1), x=np.float64(1.0))
    doc["supports"][0]["theta"] = np.bool_(True)
    assert structure_from_dict(doc).nodes == structure_from_dict(
        two_element_document()).nodes


def split_by_a_fixed_node():
    # the fixed middle node leaves two free parts that share no element
    return build_structure(
        [(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 2.0, 0.0), (3, 2.0, 1.0)],
        [(0, 1, props()), (1, 2, props()), (2, 3, props())],
        {1: FIXED, 3: (True, True, False)})


@pytest.mark.parametrize("structure", [
    *(generate(p).structure for p in STUDY_FINGERS.values()),
    split_by_a_fixed_node()], ids=[*STUDY_FINGERS, "split"])
def test_band_order_is_a_permutation_of_the_free_dofs(structure):
    free = structure.free_band
    assert np.array_equal(
        np.sort(free.order),
        np.setdiff1d(np.arange(structure.n_dof), structure.supports.dofs))
    assert not free.order.flags.writeable
    assert not free.slots.flags.writeable


@pytest.mark.parametrize("name", ["default", "connection=simple"])
def test_per_structure_constants(name):
    structure = generate(STUDY_FINGERS[name]).structure
    rows = structure.element_dof_rows
    assert np.array_equal(rows, structure.element_dofs.T)
    assert rows.flags.c_contiguous
    assert np.array_equal(structure.element_min_length,
                          1e-14 * structure.element_l0)
    template = structure.element_tangent_rows
    ea_l0 = [e.props.e_modulus * e.props.area / e.l0
             for e in structure.elements]
    ei_l0 = [0.0 if e.props.kind == "pin-ended"
             else e.props.e_modulus * e.props.inertia / e.l0
             for e in structure.elements]
    assert np.array_equal(template[:3], [ea_l0, ei_l0, ei_l0])
    assert np.all(template[5] == 1.0)
    assert not template[[3, 4, 6, 7, 8, 9]].any()
    for arr in (rows, structure.element_min_length, template):
        assert not arr.flags.writeable


@pytest.mark.parametrize("name", STUDY_FINGERS)
def test_band_holds_every_element_coupling(name):
    structure = generate(STUDY_FINGERS[name]).structure
    free = structure.free_band
    position = {dof: j for j, dof in enumerate(free.order.tolist())}
    for dofs in structure.element_dofs.tolist():
        inside = [position[d] for d in dofs if d in position]
        assert max(inside) - min(inside) <= free.bandwidth
    # reverse Cuthill-McKee puts the two ends of every element at most
    # three nodes apart (two with simple connections); in node order the
    # default finger's band is 107 wide
    assert free.bandwidth == (8 if name == "connection=simple" else 11)


@pytest.mark.parametrize("structure", [
    *(generate(p).structure for p in STUDY_FINGERS.values()),
    split_by_a_fixed_node()], ids=[*STUDY_FINGERS, "split"])
def test_each_element_adds_each_free_coupling_once(structure):
    # an element's 21 distinct tangent entries go to distinct slots, apart
    # from the discard slot, and fill every lower-band coupling of its
    # free DOFs
    free = structure.free_band
    discard = (free.bandwidth + 1) * len(free.order)
    position = {dof: j for j, dof in enumerate(free.order.tolist())}
    slots = free.slots.reshape(-1, 21).tolist()
    assert len(slots) == len(structure.elements)
    for dofs, element_slots in zip(structure.element_dofs.tolist(), slots):
        inside = [position[d] for d in dofs if d in position]
        couplings = {j * (free.bandwidth + 1) + i - j
                     for i in inside for j in inside if i >= j}
        kept = [slot for slot in element_slots if slot != discard]
        assert len(kept) == len(set(kept))
        assert set(kept) == couplings


# sha256 of each free band's (order, bandwidth, slots). The band order sets
# the summation order, and so the roundoff, of every factor and solve; the
# angle variants share the default finger's mesh graph.
DEFAULT_BAND = {
    4: "924676c04a199ad8037fcc6eb7e46cce71a994ff1fdc7a19fb1666e65064047b",
    12: "d167a43508291bd2ffe664a4ffe94093b778936a7b2c9dddfae6495b44521190"}
BAND_DIGESTS = {
    "n_crossbeams=2": {
        4: "fe79b6b0bed047571221a4056ecb40de9a4574b1d3f71add75f70a93f066edaa",
        12: "9b1f07d162c9cd284bb409c538585f5c076d01cadc50794338a77393d9527e42"},
    "n_crossbeams=4": {
        4: "5f00207f9c696dd350c0d25bb1261e3d9a9b9eae737e8931b2b7bbb2ddf6248e",
        12: "9915577e79c8d1926f98035db9baad5f7822311fa9a6c4024e96407e1601b82e"},
    "connection=simple": {
        4: "d39599cf2e6601c619d4fb98fc8dd175803838191dbb7913b177fa181eacfa19",
        12: "f858fbc9d6dd0b2dc6adeca7e445eba85db9f12d61b928060879efc3d395f215"},
}
SPLIT_BAND = "d31aaefb0d102693f802b8d955db7f75aa2754a46246f26c1482dd86520c0a5b"


def band_digest(structure):
    free = structure.free_band
    return hashlib.sha256(repr((free.order.tolist(), free.bandwidth,
                                free.slots.tolist())).encode()).hexdigest()


@pytest.mark.parametrize("refinement", [4, 12])
@pytest.mark.parametrize("name", STUDY_FINGERS)
def test_band_order_is_pinned(name, refinement):
    params = dataclasses.replace(STUDY_FINGERS[name], refinement=refinement)
    assert band_digest(generate(params).structure) == BAND_DIGESTS.get(
        name, DEFAULT_BAND)[refinement]


def test_band_order_of_a_split_structure_is_pinned():
    assert band_digest(split_by_a_fixed_node()) == SPLIT_BAND


def test_public_names_resolve_and_are_unique():
    names = finbeam.__all__
    assert [name for name in names if not hasattr(finbeam, name)] == []
    assert len(names) == len(set(names))
