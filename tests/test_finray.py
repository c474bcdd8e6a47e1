import dataclasses
import math
import warnings

import numpy as np
import pytest

from finbeam import (
    FinRayParams,
    GeometryInfeasible,
    KIND_BEAM,
    KIND_PIN,
    SolverConfig,
    UnknownContactNode,
    generate,
    load_at_contact_node,
    model_to_dict,
    params_from_dict,
    solve,
    structure_from_dict,
)


def contact_disp(model, rank, magnitude, n_inc=8, direction=None):
    case = load_at_contact_node(model, rank, magnitude, direction=direction)
    result = solve(model.structure, case, SolverConfig(n_inc=n_inc))
    assert result.completed
    node = model.contact_nodes[rank - 1]
    d = result.final_displacement
    return math.hypot(d[3 * node], d[3 * node + 1])


class TestParams:
    def test_defaults_are_table_values(self):
        p = FinRayParams()
        assert p.width == pytest.approx(40e-3)
        assert p.height == pytest.approx(72e-3)
        assert p.e_modulus == pytest.approx(2e7)
        assert p.area == pytest.approx(2e-5, rel=1e-12)
        assert p.inertia == pytest.approx(20e-3 * (1e-3) ** 3 / 12, rel=1e-12)

    @pytest.mark.parametrize("kwargs", [
        {"top_angle": 0.0}, {"top_angle": 95.0}, {"inclination": 50.0},
        {"n_crossbeams": -1}, {"connection": "welded"}, {"refinement": 0},
        {"width": -1.0}, {"e_modulus": 0.0},
        # values of the wrong type; a bool is not a number
        {"n_crossbeams": "3"}, {"n_crossbeams": 2.5}, {"n_crossbeams": True},
        {"refinement": 2.5}, {"height": "0.07"}, {"top_angle": None},
        {"e_modulus": True}, {"connection": 1},
        # section_h**3 overflows the inertia
        {"section_h": 1e308},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            FinRayParams(**kwargs)

    def test_numpy_numbers_accepted(self):
        p = FinRayParams(n_crossbeams=np.int64(4), top_angle=np.float64(30.0))
        assert len(generate(p).contact_nodes) == p.n_contact_nodes == 5

    def test_non_default_width_is_deprecated(self):
        with pytest.warns(FutureWarning, match="width changes no geometry"):
            wide = FinRayParams(width=50e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert FinRayParams() == dataclasses.replace(wide, width=40e-3)

    def test_json_round_trip(self):
        p = FinRayParams(n_crossbeams=4, inclination=-10.0,
                         connection="simple")
        assert params_from_dict(dataclasses.asdict(p)) == p

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            params_from_dict({"n_ribs": 3})


class TestGenerate:
    def test_baseline_has_four_contact_nodes(self):
        model = generate(FinRayParams())   # 3 crossbeams
        assert len(model.contact_nodes) == 4

    def test_contact_nodes_ascend_toward_tip(self):
        model = generate(FinRayParams(n_crossbeams=4))
        heights = [model.structure.nodes[n].y0 for n in model.contact_nodes]
        assert heights == sorted(heights)
        assert heights[-1] == pytest.approx(72e-3)

    def test_section_applied_uniformly(self):
        model = generate(FinRayParams())
        for e in model.structure.elements:
            assert e.props.area == pytest.approx(2e-5, rel=1e-12)
            assert e.props.inertia == pytest.approx(1.6667e-12, rel=1e-4)
            assert e.props.e_modulus == 2e7

    def test_zero_crossbeams_still_connected(self):
        model = generate(FinRayParams(n_crossbeams=0))
        assert model.contact_nodes == (model.contact_nodes[0],)
        assert FinRayParams(n_crossbeams=0).n_contact_nodes == 1
        assert model.crossbeam_elements == ()
        # build_structure would have raised Disconnected otherwise
        assert model.structure.n_dof == 3 * len(model.structure.nodes)

    def test_simple_connection_marks_crossbeams_pinned(self):
        model = generate(FinRayParams(connection="simple"))
        kinds = {model.structure.elements[i].props.kind
                 for i in model.crossbeam_elements}
        assert kinds == {KIND_PIN}
        assert len(model.crossbeam_elements) == 3   # one element per beam
        fins = set(range(len(model.structure.elements))) \
            - set(model.crossbeam_elements)
        assert {model.structure.elements[i].props.kind
                for i in fins} == {KIND_BEAM}

    def test_rigid_connection_subdivides_crossbeams(self):
        model = generate(FinRayParams(refinement=4))
        assert len(model.crossbeam_elements) == 3 * 4
        kinds = {model.structure.elements[i].props.kind
                 for i in model.crossbeam_elements}
        assert kinds == {KIND_BEAM}

    def test_both_roots_fully_fixed(self):
        model = generate(FinRayParams())
        fixed = model.structure.supports.constrained
        assert len(fixed) == 2
        assert all(f == (True, True, True) for f in fixed.values())

    def test_crossbeam_junctions_strictly_inside_fins(self):
        for params in (FinRayParams(top_angle=35.0, inclination=12.0),
                       FinRayParams(n_crossbeams=6, inclination=-12.0)):
            model = generate(params)
            h = params.height
            for idx in model.crossbeam_elements:
                e = model.structure.elements[idx]
                for n in (e.node_i, e.node_j):
                    y = model.structure.nodes[n].y0
                    assert 0.0 < y < h

    def test_infeasible_layout_rejected(self):
        with pytest.raises(GeometryInfeasible):
            generate(FinRayParams(top_angle=60.0, inclination=44.0))

    @pytest.mark.parametrize("kwargs, error, match", [
        ({"top_angle": 80.0, "inclination": 44.0}, GeometryInfeasible,
         "never reaches the back fin"),
        # a back fin that lies almost flat, where consecutive crossbeams
        # would attach within rounding of each other, is out of range
        ({"top_angle": 90.0 - 1e-13, "inclination": -40.0,
          "n_crossbeams": 5}, ValueError, r"top_angle must be in \(0, 89\]"),
    ], ids=["never-reaches", "overlap"])
    def test_infeasible_layout_names_its_cause(self, kwargs, error, match):
        with pytest.raises(error, match=match):
            generate(FinRayParams(**kwargs))

    def test_deterministic(self):
        a = generate(FinRayParams())
        b = generate(FinRayParams())
        assert a.structure.nodes == b.structure.nodes
        assert a.structure.elements == b.structure.elements
        assert a.contact_nodes == b.contact_nodes


class TestLoadAtContactNode:
    def test_two_nonzero_entries_with_magnitude(self):
        model = generate(FinRayParams())
        case = load_at_contact_node(model, 2, 0.8)
        nz = np.flatnonzero(case.f_total)
        node = model.contact_nodes[1]
        assert set(nz) <= {3 * node, 3 * node + 1}
        assert np.hypot(case.f_total[3 * node],
                        case.f_total[3 * node + 1]) == pytest.approx(0.8)

    def test_default_direction_is_inward_normal(self):
        model = generate(FinRayParams())
        case = load_at_contact_node(model, 2, 1.0)
        node = model.contact_nodes[1]
        # vertical front fin: inward normal is +x
        assert case.f_total[3 * node] == pytest.approx(1.0)
        assert case.f_total[3 * node + 1] == pytest.approx(0.0, abs=1e-15)

    def test_zero_magnitude(self):
        model = generate(FinRayParams())
        case = load_at_contact_node(model, 2, 0.0)
        assert not case.f_total.any()

    def test_unknown_rank(self):
        model = generate(FinRayParams())
        with pytest.raises(UnknownContactNode):
            load_at_contact_node(model, 99, 0.5)

    def test_zero_direction_rejected(self):
        model = generate(FinRayParams())
        with pytest.raises(ValueError, match="nonzero vector"):
            load_at_contact_node(model, 1, 2.0, direction=(0.0, 0.0))

    @pytest.mark.parametrize("direction", [
        (1.0, 0.0, 5.0), (1.0,), (1.0, "0"), (True, 0.0), (math.inf, 1.0)])
    def test_direction_must_be_two_finite_numbers(self, direction):
        # (1, 0, 5) once loaded along (1, 0), (1,) raised IndexError and
        # "0" was read as 0.0
        model = generate(FinRayParams())
        with pytest.raises(ValueError, match="direction must be"):
            load_at_contact_node(model, 1, 2.0, direction=direction)

    def test_custom_direction_normalised(self):
        model = generate(FinRayParams())
        case = load_at_contact_node(model, 1, 2.0, direction=(3.0, -4.0))
        node = model.contact_nodes[0]
        assert case.f_total[3 * node] == pytest.approx(1.2)
        assert case.f_total[3 * node + 1] == pytest.approx(-1.6)


class TestDesignTrends:
    def test_stiffness_rises_with_crossbeam_count(self):
        disps = [contact_disp(generate(FinRayParams(n_crossbeams=k)), 2, 0.4)
                 for k in (2, 3, 4)]
        assert disps[0] > disps[1] > disps[2]

    def test_simple_connection_compliance_ratio(self):
        simple = contact_disp(generate(FinRayParams(connection="simple")),
                              2, 0.4)
        rigid = contact_disp(generate(FinRayParams(connection="rigid")),
                             2, 0.4)
        assert 1.5 <= simple / rigid <= 4.0

    def test_deformation_grows_with_top_angle(self):
        disps = [contact_disp(generate(FinRayParams(top_angle=a)), 2, 0.4)
                 for a in (20.0, 30.0, 40.0)]
        assert disps[0] < disps[1] < disps[2]

    def test_deformation_grows_with_inclination(self):
        for rank in (2, 3):
            disps = [contact_disp(generate(FinRayParams(inclination=g)),
                                  rank, 0.4)
                     for g in (-10.0, 0.0, 10.0)]
            assert disps[0] < disps[1] < disps[2]

    def test_mesh_objectivity(self):
        tips = [_tip_disp(generate(FinRayParams(refinement=r)))
                for r in (4, 8)]
        assert abs(tips[1] - tips[0]) <= 0.02 * tips[0]


def _tip_disp(model):
    case = load_at_contact_node(model, 2, 0.4)
    result = solve(model.structure, case, SolverConfig(n_inc=8))
    assert result.completed
    tip = model.contact_nodes[-1]
    d = result.final_displacement
    return math.hypot(d[3 * tip], d[3 * tip + 1])


def test_model_to_dict_round_trips_structure():
    model = generate(FinRayParams(n_crossbeams=2))
    doc = model_to_dict(model)
    assert doc["contact_nodes"] == list(model.contact_nodes)
    rebuilt = structure_from_dict(doc)
    assert rebuilt.nodes == model.structure.nodes
    assert rebuilt.elements == model.structure.elements
