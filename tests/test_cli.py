import csv
import json
import math

import pytest

from finbeam import cli
from finbeam.cli import main

TILTED = [math.cos(math.radians(40.0)), -math.sin(math.radians(40.0))]


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def params_file(tmp_path):
    return write_json(tmp_path / "params.json", {"n_crossbeams": 3})


@pytest.fixture
def structure_file(tmp_path, params_file):
    out = tmp_path / "structure.json"
    assert main(["generate", params_file, str(out)]) == 0
    return str(out)


class TestGenerate:
    def test_writes_structure_with_table_modulus(self, tmp_path, params_file):
        out = tmp_path / "structure.json"
        assert main(["generate", params_file, str(out)]) == 0
        doc = json.loads(out.read_text())
        assert {e["E"] for e in doc["elements"]} == {2e7}
        assert len(doc["contact_nodes"]) == 4
        assert doc["supports"][0] == {"node": 0, "u": True, "w": True,
                                      "theta": True}

    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["generate", str(bad), str(tmp_path / "out.json")]) == 2

    def test_invalid_params_exit_2(self, tmp_path):
        bad = write_json(tmp_path / "p.json", {"top_angle": 120.0})
        assert main(["generate", bad, str(tmp_path / "out.json")]) == 2

    def test_overflowing_moduli_exit_2(self, tmp_path, capsys):
        # E and the section are finite, but EA/L0 is not: such a model
        # could only end its solve as singular
        params = write_json(tmp_path / "p.json",
                            {"e_modulus": 1e300, "section_b": 1e10})
        out = tmp_path / "out.json"
        assert main(["generate", params, str(out)]) == 2
        assert "EA/L0 or EI/L0 overflows" in capsys.readouterr().err
        assert not out.exists()

    def test_subnormal_moduli_exit_2(self, tmp_path, capsys):
        # EI/L0 is subnormal: solves "completed" at absurd displacements
        params = write_json(tmp_path / "p.json", {"e_modulus": 1e-300})
        out = tmp_path / "out.json"
        assert main(["generate", params, str(out)]) == 2
        assert "subnormal" in capsys.readouterr().err
        assert not out.exists()

    def test_underflowing_modulus_exit_2(self, tmp_path, capsys):
        # EA/L0 and EI/L0 are exactly 0: its solve used to end singular
        params = write_json(tmp_path / "p.json", {"e_modulus": 1e-320})
        out = tmp_path / "out.json"
        assert main(["generate", params, str(out)]) == 2
        assert "subnormal or 0" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_crossbeams_valid(self, tmp_path):
        p = write_json(tmp_path / "p.json", {"n_crossbeams": 0})
        out = tmp_path / "out.json"
        assert main(["generate", p, str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["contact_nodes"]) == 1


class TestSolve:
    def test_zero_load_writes_zero_csv(self, tmp_path, structure_file):
        load = write_json(tmp_path / "load.json", {"forces": []})
        out = tmp_path / "result.csv"
        code = main(["solve", structure_file, load, str(out), "--n-inc", "4"])
        assert code == 0
        rows = read_csv(out)
        n_nodes = len(json.loads(open(structure_file).read())["nodes"])
        assert len(rows) == 4 * n_nodes
        assert all(float(r["u"]) == 0.0 and float(r["w"]) == 0.0
                   and float(r["theta"]) == 0.0 for r in rows)

    def test_completed_solve_with_low_iteration_count(self, tmp_path):
        params = write_json(tmp_path / "p.json", {"n_crossbeams": 4})
        structure = tmp_path / "s.json"
        assert main(["generate", params, str(structure)]) == 0
        doc = json.loads(structure.read_text())
        node2 = doc["contact_nodes"][1]
        load = write_json(tmp_path / "load.json",
                          {"forces": [{"node": node2, "fx": 0.8}]})
        out = tmp_path / "r.csv"
        code = main(["solve", str(structure), load, str(out),
                     "--n-inc", "20"])
        assert code == 0
        rows = read_csv(out)
        per_increment = {int(r["increment"]): int(r["iterations"])
                         for r in rows}
        assert len(per_increment) == 20
        mean_iters = sum(per_increment.values()) / len(per_increment)
        assert mean_iters <= 5.0

    def test_divergence_exits_3_with_partial_csv(self, tmp_path):
        # The two-crossbeam finger is near its limit point at 0.8 N. With
        # two corrector iterations per increment, Newton fails at increment
        # 6 to 8 regardless of roundoff (0.7 to 0.85 N all diverge), while
        # the default 100 iterations make the outcome at 0.8 N hinge on the
        # last bits of the tangent.
        params = write_json(tmp_path / "p.json", {"n_crossbeams": 2})
        structure = tmp_path / "s.json"
        assert main(["generate", params, str(structure)]) == 0
        doc = json.loads(structure.read_text())
        node2 = doc["contact_nodes"][1]
        load = write_json(tmp_path / "load.json",
                          {"forces": [{"node": node2, "fx": 0.8}]})
        out = tmp_path / "r.csv"
        code = main(["solve", str(structure), load, str(out),
                     "--n-inc", "10", "--maxiter", "2"])
        assert code == 3
        rows = read_csv(out)
        increments = {int(r["increment"]) for r in rows}
        assert increments and max(increments) < 10

    def test_indefinite_tangent_exits_3_with_history_before_it(
            self, tmp_path, capsys):
        # clamped-free column pushed to twice its Euler load in 20 steps:
        # the state at increment 11 (1.1 P_cr) is the first unstable one
        length, e_mod, area, inertia = 72e-3, 2e7, 2e-5, 20e-3 * 1e-9 / 12
        p_cr = math.pi**2 * e_mod * inertia / (4 * length**2)
        structure = write_json(tmp_path / "s.json", {
            "nodes": [{"id": i, "x": i * length / 16, "y": 0.0}
                      for i in range(17)],
            "elements": [{"i": i, "j": i + 1, "E": e_mod, "A": area,
                          "I": inertia, "kind": "beam"} for i in range(16)],
            "supports": [{"node": 0, "u": True, "w": True, "theta": True}]})
        load = write_json(tmp_path / "load.json",
                          {"forces": [{"node": 16, "fx": -2.0 * p_cr}]})
        out = tmp_path / "r.csv"
        code = main(["solve", structure, load, str(out), "--n-inc", "20"])
        assert code == 3
        assert "diverged at increment 11 (indefinite)" in (
            capsys.readouterr().err)
        assert {int(r["increment"]) for r in read_csv(out)} == set(
            range(1, 11))

    @pytest.mark.parametrize("tolerance", ["nan", "inf"])
    def test_non_finite_tolerance_exits_2(self, tmp_path, structure_file,
                                          tolerance):
        doc = json.loads(open(structure_file).read())
        load = write_json(tmp_path / "load.json",
                          {"forces": [{"node": doc["contact_nodes"][1],
                                       "fx": 3.0}]})
        code = main(["solve", structure_file, load, str(tmp_path / "r.csv"),
                     "--tolerance", tolerance])
        assert code == 2

    def test_every_dof_fixed_exits_2(self, tmp_path, structure_file,
                                     capsys):
        doc = json.loads(open(structure_file).read())
        doc["supports"] = [{"node": node["id"], "u": True, "w": True,
                            "theta": True} for node in doc["nodes"]]
        structure = write_json(tmp_path / "fixed.json", doc)
        load = write_json(tmp_path / "load.json", {"forces": []})
        out = tmp_path / "r.csv"
        assert main(["solve", structure, load, str(out)]) == 2
        assert "no free DOF" in capsys.readouterr().err
        assert not out.exists()

    def test_load_on_support_exits_2(self, tmp_path, structure_file):
        load = write_json(tmp_path / "load.json",
                          {"forces": [{"node": 0, "fx": 1.0}]})
        code = main(["solve", structure_file, load,
                     str(tmp_path / "r.csv")])
        assert code == 2

    @pytest.mark.parametrize("document", [
        {"force": [{"node": 4, "fx": 0.1}]},
        {"forces": [{"node": 4, "fx": 0.1, "fz": 0.1}]}],
        ids=["force", "fz"])
    def test_unknown_load_key_exits_2(self, tmp_path, structure_file, capsys,
                                      document):
        # the structure document's own extra key, which generate writes,
        # is still accepted
        assert "contact_nodes" in json.loads(open(structure_file).read())
        load = write_json(tmp_path / "load.json", document)
        out = tmp_path / "out.csv"
        assert main(["solve", structure_file, load, str(out)]) == 2
        assert "unknown key(s) ['f" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_runs_byte_identical(self, tmp_path, structure_file):
        doc = json.loads(open(structure_file).read())
        node2 = doc["contact_nodes"][1]
        load = write_json(tmp_path / "load.json",
                          {"forces": [{"node": node2, "fx": 0.4,
                                       "fy": -0.1}]})
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["solve", structure_file, load, str(out1)]) == 0
        assert main(["solve", structure_file, load, str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


def sweep_spec(values=(2, 3), probe_hi=2.0):
    return {
        "axis": "n_crossbeams",
        "values": list(values),
        "load_node_rank": 2,
        "load_magnitudes": [0.2, 0.4],
        "load_direction": TILTED,
        "solver": {"n_inc": 10},
        "probe": {"f_lo": 0.05, "f_hi": probe_hi, "resolution": 0.05},
    }


class TestSweep:
    def test_probe_reports_ascending_max_force(self, tmp_path):
        spec = write_json(tmp_path / "sweep.json", sweep_spec())
        out = tmp_path / "report.csv"
        code = main(["sweep", spec, str(out), "--probe-max-force"])
        assert code == 0
        summary = json.loads((tmp_path / "report.summary.json").read_text())
        forces = [v["max_allowable_force"] for v in summary["variants"]]
        assert all(f is not None for f in forces)
        assert forces[0] < forces[1]
        assert summary["trends"]["max_force_ascending"] is True
        assert summary["trends"]["displacement_decreasing_with_crossbeams"] \
            is True
        rows = read_csv(out)
        # one row per variant x magnitude x contact node: 3 + 4 nodes
        assert len(rows) == 2 * (3 + 4)

    def test_probe_rigid_connection_outlasts_simple(self, tmp_path):
        data = sweep_spec(values=("simple", "rigid"), probe_hi=4.0)
        data["axis"] = "connection"
        spec = write_json(tmp_path / "sweep.json", data)
        out = tmp_path / "report.csv"
        assert main(["sweep", spec, str(out), "--probe-max-force"]) == 0
        summary = json.loads((tmp_path / "report.summary.json").read_text())
        forces = [v["max_allowable_force"] for v in summary["variants"]]
        assert forces == [pytest.approx(0.7991369553871157, abs=1e-9),
                          pytest.approx(1.2815612778424734, abs=1e-9)]
        assert [v["probe_error"] for v in summary["variants"]] == [None, None]
        assert summary["trends"]["rigid_max_force_exceeds_simple"] is True
        assert summary["trends"]["simple_over_rigid_ratio"] > 1.0

    def test_probe_error_names_a_variant_that_holds(self, tmp_path):
        data = sweep_spec(values=(30, 40), probe_hi=4.0)
        data["axis"] = "top_angle"
        spec = write_json(tmp_path / "sweep.json", data)
        out = tmp_path / "report.csv"
        assert main(["sweep", spec, str(out), "--probe-max-force"]) == 0
        summary = json.loads((tmp_path / "report.summary.json").read_text())
        top30, top40 = summary["variants"]
        assert top30["max_allowable_force"] is not None
        assert top30["probe_error"] is None
        assert top40["max_allowable_force"] is None
        assert top40["probe_error"] == "structure still holds at f_hi = 4.0"
        # a variant that holds the whole bracket counts as the strongest
        assert summary["trends"]["max_force_ascending"] is True

    def test_no_row_past_the_probed_force_reads_converged(self, tmp_path):
        # force control completed top angle 30 at 3.5 N in 10 steps on
        # another branch, past its 2.88 N limit, and the sweep wrote
        # converged=True there next to the probed force
        data = sweep_spec(values=(30.0,), probe_hi=4.0)
        data["axis"] = "top_angle"
        data["load_magnitudes"] = [2.0, 3.5]
        spec = write_json(tmp_path / "sweep.json", data)
        out = tmp_path / "report.csv"
        assert main(["sweep", spec, str(out), "--probe-max-force"]) == 0
        summary = json.loads((tmp_path / "report.summary.json").read_text())
        assert summary["variants"][0]["max_allowable_force"] == \
            pytest.approx(2.878988788646324, abs=1e-9)
        converged = {(float(r["load_n"]), r["converged"])
                     for r in read_csv(out)}
        assert converged == {(2.0, "True"), (3.5, "False")}

    def test_invalid_axis_exits_2(self, tmp_path):
        spec = write_json(tmp_path / "sweep.json",
                          {"axis": "colour", "values": [1],
                           "load_magnitudes": [0.1]})
        assert main(["sweep", spec, str(tmp_path / "r.csv")]) == 2

    @pytest.mark.parametrize("probe", [
        {"f_hi": math.inf}, {"resolution": math.nan}])
    def test_non_finite_probe_exits_2(self, tmp_path, probe):
        data = sweep_spec(values=(3,))
        data["probe"].update(probe)
        # json writes these as the non-standard Infinity and NaN, which
        # json.load reads back
        spec = write_json(tmp_path / "sweep.json", data)
        out = str(tmp_path / "r.csv")
        assert main(["sweep", spec, out, "--probe-max-force"]) == 2

    @pytest.mark.parametrize("solver", [
        {"tolerance": "0.001"}, {"n_inc": True}, {"maxiter": 20.5},
        {"n_steps": 10}])
    def test_non_number_solver_setting_exits_2(self, tmp_path, solver):
        data = sweep_spec(values=(3,))
        data["solver"] = solver
        spec = write_json(tmp_path / "sweep.json", data)
        assert main(["sweep", spec, str(tmp_path / "r.csv")]) == 2

    @pytest.mark.parametrize("probe", [{"f_hi": "4"}, {"resolution": False}])
    def test_non_number_probe_setting_exits_2(self, tmp_path, probe):
        data = sweep_spec(values=(3,))
        data["probe"].update(probe)
        spec = write_json(tmp_path / "sweep.json", data)
        out = str(tmp_path / "r.csv")
        assert main(["sweep", spec, out, "--probe-max-force"]) == 2

    @pytest.mark.parametrize("section, key, value", [
        (None, "load_directon", TILTED),
        (None, "base_param", {"connection": "simple"}),
        ("probe", "resolutoin", 0.1)],
        ids=["load_directon", "base_param", "probe-resolutoin"])
    def test_unknown_sweep_key_exits_2(self, tmp_path, capsys, section, key,
                                       value):
        data = sweep_spec(values=(3,))
        (data[section] if section else data)[key] = value
        spec = write_json(tmp_path / "sweep.json", data)
        out = tmp_path / "r.csv"
        assert main(["sweep", spec, str(out), "--probe-max-force"]) == 2
        assert f"unknown key(s) ['{key}']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("probe", [
        {"f_lo": 3.0, "f_hi": 1.0}, {"f_lo": 2.0}, {"f_lo": -0.1},
        {"resolution": 0.0}, {"resolution": -0.05}],
        ids=["reversed", "empty", "negative-f_lo", "zero-resolution",
             "negative-resolution"])
    def test_invalid_probe_bracket_exits_2_before_any_solve(
            self, tmp_path, monkeypatch, capsys, probe):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran")
        monkeypatch.setattr(cli, "solve", no_solve)
        monkeypatch.setattr(cli, "probe_max_force", no_solve)
        data = sweep_spec(values=(3,))
        data["probe"].update(probe)
        spec = write_json(tmp_path / "sweep.json", data)
        out = str(tmp_path / "r.csv")
        assert main(["sweep", spec, out, "--probe-max-force"]) == 2
        assert "probe needs 0 <= f_lo < f_hi" in capsys.readouterr().err

    def test_descending_magnitudes_exit_2(self, tmp_path):
        data = sweep_spec()
        data["load_magnitudes"] = [0.4, 0.2]
        spec = write_json(tmp_path / "sweep.json", data)
        assert main(["sweep", spec, str(tmp_path / "r.csv")]) == 2


@pytest.mark.parametrize("command, document", [
    ("generate", {"n_crossbeams": "3"}),
    ("generate", []),
    ("solve", []),
    ("solve", {"forces": ["x"]}),
    ("solve", {"forces": {"node": 1}}),
    ("solve", {"forces": [{"node": 1, "fx": [0.1]}]}),
    ("sweep", []),
    ("sweep", {**sweep_spec(values=(3,)), "load_direction": 5}),
    ("sweep", {**sweep_spec(values=(3,)), "load_node_rank": 99}),
    ("sweep", {**sweep_spec(values=(3,)), "values": 3}),
    ("sweep", {**sweep_spec(values=(3,)), "base_params": {"refinement": 2.5}}),
    # json.dumps writes these as Infinity, so the documents carry them
    ("generate", {"e_modulus": math.inf}),
    ("generate", {"width": math.inf}),
    ("generate", {"section_h": 1e308}),
    ("sweep", {**sweep_spec(values=(3,)),
               "base_params": {"e_modulus": math.inf}}),
], ids=["string-count", "params-list", "load-list", "force-string",
        "forces-object", "force-list-value", "sweep-list", "direction-number",
        "rank-past-tip", "values-number", "fractional-refinement",
        "infinite-modulus", "infinite-width", "overflowing-section",
        "sweep-infinite-modulus"])
def test_malformed_document_exits_2(tmp_path, structure_file, capsys,
                                    command, document):
    doc = write_json(tmp_path / "doc.json", document)
    out = str(tmp_path / "out.csv")
    args = ([command, structure_file, doc, out] if command == "solve"
            else [command, doc, out])
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("section, field, value", [
    ("supports", "theta", "false"), ("elements", "E", "2e7"),
    ("nodes", "id", 3.0)])
def test_mistyped_structure_exits_2(tmp_path, structure_file, capsys,
                                    section, field, value):
    doc = json.loads(open(structure_file).read())
    doc[section][0][field] = value
    bad = write_json(tmp_path / "bad.json", doc)
    load = write_json(tmp_path / "load.json",
                      {"forces": [{"node": 4, "fx": 0.1}]})
    assert main(["solve", bad, load, str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field} must be")
