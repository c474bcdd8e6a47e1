import math

import numpy as np
import pytest

from finbeam import ElementProps, FinRayParams, build_structure

# Material and section of the reference design: E = 2e7 Pa, rectangular
# 20 mm x 1 mm cross-section.
E_MOD = 2e7
SECTION_B = 20e-3
SECTION_H = 1e-3
AREA = SECTION_B * SECTION_H
INERTIA = SECTION_B * SECTION_H**3 / 12.0
FINGER_HEIGHT = 72e-3

# The eight design-study fingers of acceptance criterion 7.
STUDY_FINGERS = {
    "n_crossbeams=2": FinRayParams(n_crossbeams=2),
    "default": FinRayParams(),
    "n_crossbeams=4": FinRayParams(n_crossbeams=4),
    "top_angle=30": FinRayParams(top_angle=30.0),
    "top_angle=40": FinRayParams(top_angle=40.0),
    "inclination=-10": FinRayParams(inclination=-10.0),
    "inclination=+10": FinRayParams(inclination=10.0),
    "connection=simple": FinRayParams(connection="simple"),
}


def one_element_frame(l0=1.0, beta0=0.0, kind="beam"):
    """A frame of one element from (0, 0), of reference length l0 at angle
    beta0, with node 0 clamped. Its DOFs are the element's six, in order,
    so F_int is the element's global internal force."""
    props = ElementProps(E_MOD, AREA, INERTIA, kind)
    return build_structure(
        [(0, 0.0, 0.0), (1, l0 * math.cos(beta0), l0 * math.sin(beta0))],
        [(0, 1, props)], {0: (True, True, True)})


@pytest.fixture
def table_props():
    return ElementProps(E_MOD, AREA, INERTIA)


@pytest.fixture
def make_cantilever():
    """Factory for a horizontal clamped-free beam along +x."""

    def build(n_elements=16, length=FINGER_HEIGHT, props=None):
        props = props or ElementProps(E_MOD, AREA, INERTIA)
        nodes = [(i, i * length / n_elements, 0.0)
                 for i in range(n_elements + 1)]
        elements = [(i, i + 1, props) for i in range(n_elements)]
        return build_structure(nodes, elements, {0: (True, True, True)})

    return build


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
