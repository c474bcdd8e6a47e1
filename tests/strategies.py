"""Hypothesis strategies shared by the property tests."""

import math

from hypothesis import strategies as st

from finbeam import KIND_BEAM, KIND_PIN, ElementProps, build_structure
from conftest import AREA, E_MOD, INERTIA

FIXED = (True, True, True)


@st.composite
def small_frames(draw, kinds=(KIND_BEAM, KIND_PIN)):
    """Tree-connected frames of 2 to 6 elements of the given kinds (by
    default mixing beam and pin-ended elements), with every element at least
    0.1 m long, clamped at node 0."""
    n_elements = draw(st.integers(2, 6))
    coordinate = st.floats(-1.0, 1.0)
    nodes = [(0, 0.0, 0.0)]
    specs = []
    for j in range(1, n_elements + 1):
        i = draw(st.integers(0, j - 1))
        x, y = draw(st.tuples(coordinate, coordinate).filter(
            lambda q: math.hypot(q[0] - nodes[i][1], q[1] - nodes[i][2])
            >= 0.1))
        nodes.append((j, x, y))
        kind = draw(st.sampled_from(kinds))
        specs.append((i, j, ElementProps(E_MOD, AREA, INERTIA, kind)))
    return build_structure(nodes, specs, {0: FIXED})
