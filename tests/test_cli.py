import csv
import gc
import json
import math

import pytest

import finbeam.solver
from finbeam import (FinRayParams, SolverConfig, generate,
                     load_at_contact_node, make_load_case, probe_max_force)
from finbeam import cli
from finbeam.cli import main
from conftest import AREA, E_MOD, INERTIA
from oracles import plain_path
from test_assembly import fresh_python

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

    def test_deprecated_width_still_generates(self, tmp_path):
        params = write_json(tmp_path / "p.json", {"width": 0.05})
        out = tmp_path / "out.json"
        with pytest.warns(FutureWarning, match="width"):
            assert main(["generate", params, str(out)]) == 0
        assert out.exists()

    def test_zero_crossbeams_valid(self, tmp_path):
        p = write_json(tmp_path / "p.json", {"n_crossbeams": 0})
        out = tmp_path / "out.json"
        assert main(["generate", p, str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["contact_nodes"]) == 1


    def test_integer_spellings_write_the_same_bytes(self, tmp_path):
        # each parameter is stored as its field's type, so an integer
        # spelling of a float no longer writes "E": 20000000
        written = []
        for name, params in (
                ("int", {"e_modulus": 20000000, "top_angle": 30}),
                ("float", {"e_modulus": 2e7, "top_angle": 30.0})):
            out = tmp_path / f"{name}.json"
            assert main(["generate", write_json(tmp_path / f"{name}-p.json",
                                                params), str(out)]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]
        assert b'"E": 20000000.0,' in written[0]


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

    def test_force_without_node_names_the_key(self, tmp_path,
                                              structure_file, capsys):
        load = write_json(tmp_path / "load.json", {"forces": [{"fx": 0.3}]})
        out = tmp_path / "out.csv"
        assert main(["solve", structure_file, load, str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: forces[0]: missing key 'node'\n")
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


def _probed(**params):
    """The bare probe's force for one finger under the sweeps' loading
    and the bracket (0.05, 4.0, 0.05), as criterion 6 pins it."""
    model = generate(FinRayParams(**params))
    pattern = load_at_contact_node(model, 2, 1.0, direction=TILTED).f_total
    return probe_max_force(model.structure, pattern, SolverConfig(), 0.05,
                           4.0, 0.05)


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

    def test_integer_spellings_write_the_same_bytes(self, tmp_path):
        # the probe bracket is read as floats: its error once read
        # "f_hi = 4" for "f_hi": 4 and "f_hi = 4.0" for 4.0
        written = []
        for name, number in (("int", int), ("float", float)):
            data = {"axis": "top_angle", "values": [number(20), number(40)],
                    "load_magnitudes": [number(1)], "load_direction": TILTED,
                    "probe": {"f_lo": number(1), "f_hi": number(4),
                              "resolution": number(1)}}
            spec = write_json(tmp_path / f"{name}.json", data)
            out = tmp_path / f"{name}.csv"
            assert main(["sweep", spec, str(out), "--probe-max-force"]) == 0
            written.append((out.read_bytes(),
                            (tmp_path / f"{name}.summary.json").read_bytes()))
        assert written[0] == written[1]
        top40 = json.loads(written[0][1])["variants"][1]
        assert top40["probe_error"] == "structure still holds at f_hi = 4.0"

    def test_probe_rigid_connection_outlasts_simple(self, tmp_path):
        data = sweep_spec(values=("simple", "rigid"), probe_hi=4.0)
        data["axis"] = "connection"
        spec = write_json(tmp_path / "sweep.json", data)
        out = tmp_path / "report.csv"
        assert main(["sweep", spec, str(out), "--probe-max-force"]) == 0
        summary = json.loads((tmp_path / "report.summary.json").read_text())
        forces = [v["max_allowable_force"] for v in summary["variants"]]
        assert forces == [pytest.approx(0.8003654692660995, abs=1e-9),
                          pytest.approx(1.2813096210723034, abs=1e-9)]
        # the path lands on the magnitudes on its way, so its force differs
        # from the bare probe's (0.7991 and 1.2816 N in criterion 6) by
        # less than the resolution
        for force, connection in zip(forces, ("simple", "rigid")):
            assert abs(force - _probed(connection=connection)) <= 0.05
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

    @pytest.mark.parametrize("axis, values, probe, ascending", [
        # 2 crossbeams collapse below 1.0 N, 3 hold to 1.28 N, in either
        # order of the file
        ("n_crossbeams", [3, 2], {"f_lo": 1.0}, True),
        ("n_crossbeams", [2, 3], {"f_lo": 1.0}, True),
        # top angle 30's probe ends at the refinement bound
        ("top_angle", [20.0, 30.0], {"resolution": 1e-9}, False),
        # the simple connection collapses below 1.0 N, the rigid one holds
        # to 1.28 N, in either order
        ("connection", ["simple", "rigid"], {"f_lo": 1.0}, True),
        ("connection", ["rigid", "simple"], {"f_lo": 1.0}, True),
    ], ids=["collapse-last", "collapse-first", "refinement-bound",
            "connection", "connection-reversed"])
    def test_probe_errors_rank_in_the_force_trend(self, tmp_path, axis,
                                                  values, probe, ascending):
        data = {"axis": axis, "values": values, "load_magnitudes": [0.2],
                "load_direction": TILTED, "probe": probe}
        spec = write_json(tmp_path / "sweep.json", data)
        out = tmp_path / "report.csv"
        assert main(["sweep", spec, str(out), "--probe-max-force"]) == 0
        summary = json.loads((tmp_path / "report.summary.json").read_text())
        errors = [v["probe_error"] for v in summary["variants"]]
        assert sum(e is None for e in errors) == 1
        assert [e for e in errors if e] in (
            ["structure already collapses at f_lo = 1.0"],
            ["refinement bound: the first instability is not resolved to "
             "resolution = 1e-09 within 64 states past it"])
        trend = ("rigid_max_force_exceeds_simple" if axis == "connection"
                 else "max_force_ascending")
        assert summary["trends"][trend] is ascending

    @pytest.mark.parametrize("axis, ascending, shuffled", [
        ("n_crossbeams", [2, 3, 4], [4, 3, 2]),
        ("top_angle", [20.0, 25.0, 30.0], [30.0, 20.0, 25.0]),
    ], ids=["n_crossbeams", "top_angle"])
    def test_trends_follow_the_axis_not_the_file(self, tmp_path, axis,
                                                 ascending, shuffled):
        summaries = []
        for values in (ascending, shuffled):
            data = {"axis": axis, "values": values, "load_magnitudes": [0.2],
                    "load_direction": TILTED}
            spec = write_json(tmp_path / "sweep.json", data)
            out = tmp_path / "report.csv"
            assert main(["sweep", spec, str(out), "--probe-max-force"]) == 0
            summaries.append(
                json.loads((tmp_path / "report.summary.json").read_text()))
        first, second = summaries
        assert len(first["trends"]) == 2
        assert all(v is True for v in first["trends"].values())
        assert second["trends"] == first["trends"]
        # the variants keep the file's order
        assert [v["value"] for v in second["variants"]] == shuffled

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
        force = summary["variants"][0]["max_allowable_force"]
        assert force == pytest.approx(2.880755438798847, abs=1e-9)
        # criterion 6's bare probe gives 2.8790 N
        assert abs(force - _probed(top_angle=30.0)) <= 0.05
        rows = read_csv(out)
        converged = {(float(r["load_n"]), r["converged"]) for r in rows}
        assert converged == {(2.0, "True"), (3.5, "False")}
        # a row the path did not reach has no displacement or iterations
        assert all(math.isnan(float(r[key])) for r in rows
                   if r["converged"] == "False"
                   for key in ("u", "w", "theta", "iterations"))

    def test_converged_rows_never_exceed_the_probed_force(self, tmp_path):
        # a solve from zero per magnitude reached 0.715 N on the
        # two-crossbeam finger, while the probe's own path gave 0.71285 N.
        # The pattern is a unit force, so the load a landed state carries
        # differs from its level by at most the residual tolerance.
        data = sweep_spec(values=(2,), probe_hi=4.0)
        data["load_magnitudes"] = [0.2, 0.715]
        spec = write_json(tmp_path / "sweep.json", data)
        out = tmp_path / "report.csv"
        assert main(["sweep", spec, str(out), "--probe-max-force"]) == 0
        summary = json.loads((tmp_path / "report.summary.json").read_text())
        force = summary["variants"][0]["max_allowable_force"]
        rows = read_csv(out)
        assert {r["converged"] for r in rows} == {"True"}
        assert all(float(r["load_n"]) <= force + SolverConfig().tolerance
                   for r in rows if r["converged"] == "True")

    def test_rows_and_force_are_the_plain_path_at_the_sweep_levels(
            self, tmp_path):
        # the two-crossbeam finger collapses before 1.0 N, the default one
        # holds the 1.2 N bracket end; exact equality, not pinned values
        data = sweep_spec(values=(2, 3), probe_hi=1.2)
        data["load_magnitudes"] = [0.2, 0.715, 1.0]
        spec = write_json(tmp_path / "sweep.json", data)
        out = tmp_path / "report.csv"
        assert main(["sweep", spec, str(out), "--probe-max-force"]) == 0
        summary = json.loads((tmp_path / "report.summary.json").read_text())
        rows = read_csv(out)
        tolerance = SolverConfig().tolerance
        targets = [0.2, 0.715, 1.0, 1.2]
        for value, variant in zip((2, 3), summary["variants"]):
            model = generate(FinRayParams(n_crossbeams=value))
            pattern = load_at_contact_node(model, 2, 1.0,
                                           direction=TILTED).f_total
            f_ref = make_load_case(model.structure, 1.2 * pattern).f_total
            records, _, good = plain_path(
                model.structure, f_ref, [f / 1.2 for f in targets],
                tolerance, math.inf, 0.05 / 1.2)
            if len(records) == len(targets):
                assert variant["max_allowable_force"] is None
                assert variant["probe_error"] == \
                    "structure still holds at f_hi = 1.2"
            else:
                _, lam, r_vec, _ = good
                assert variant["max_allowable_force"] == 1.2 * float(
                    lam + (f_ref @ r_vec) / (f_ref @ f_ref))
            mine = [r for r in rows if r["variant"] == variant["label"]]
            assert len(mine) == 3 * len(model.contact_nodes)
            for row in mine:
                index = targets.index(float(row["load_n"]))
                node = model.contact_nodes[int(row["node_rank"]) - 1]
                got = [float(row[k]) for k in ("u", "w", "theta",
                                               "iterations")]
                if index < len(records):
                    _, displacement, iterations, _ = records[index]
                    assert row["converged"] == "True"
                    assert got == [*displacement[3 * node:3 * node + 3],
                                   iterations]
                else:
                    assert row["converged"] == "False"
                    assert all(map(math.isnan, got))
        assert [v["max_allowable_force"] is None
                for v in summary["variants"]] == [False, True]

    def test_displacement_trend_is_judged_at_the_last_common_magnitude(
            self, tmp_path):
        # the two-crossbeam finger's path ends between 0.715 and 1.0 N, so
        # the trend compares the loaded node's |(u, w)| at 0.715 N
        data = sweep_spec(values=(2, 3))
        data["load_magnitudes"] = [0.2, 0.715, 1.0]
        spec = write_json(tmp_path / "sweep.json", data)
        out = tmp_path / "report.csv"
        assert main(["sweep", spec, str(out)]) == 0
        summary = json.loads((tmp_path / "report.summary.json").read_text())
        loaded = {(row["variant"], row["load_n"]): row
                  for row in read_csv(out) if row["node_rank"] == "2"}
        assert [loaded[f"n_crossbeams={v}", "1.0"]["converged"]
                for v in (2, 3)] == ["False", "True"]
        disp = [math.hypot(float(row["u"]), float(row["w"]))
                for row in (loaded[f"n_crossbeams={v}", "0.715"]
                            for v in (2, 3))]
        assert summary["trends"] == {
            "displacement_decreasing_with_crossbeams": disp[0] > disp[1]}

    def test_each_variant_is_traced_once_without_solve(self, tmp_path,
                                                       monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran")
        monkeypatch.setattr(cli, "solve", no_solve)
        monkeypatch.setattr(finbeam.solver, "solve", no_solve)
        traced = []
        trace = finbeam.solver._trace

        def counted(*args):
            traced.append(args[0])
            return trace(*args)
        monkeypatch.setattr(finbeam.solver, "_trace", counted)
        spec = write_json(tmp_path / "sweep.json", sweep_spec())
        out = str(tmp_path / "report.csv")
        assert main(["sweep", spec, out, "--probe-max-force"]) == 0
        assert len(traced) == 2
        assert traced[0] is not traced[1]

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
        monkeypatch.setattr(cli, "trace_loads", no_solve)
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

    @pytest.mark.parametrize("magnitudes", [[0.2, 0.2], [0.2, 0.4, 0.4]])
    def test_repeated_magnitudes_exit_2(self, tmp_path, capsys, magnitudes):
        data = sweep_spec(values=(3,))
        data["load_magnitudes"] = magnitudes
        spec = write_json(tmp_path / "sweep.json", data)
        out = tmp_path / "r.csv"
        assert main(["sweep", spec, str(out)]) == 2
        assert "strictly ascending" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("axis, values, repeated", [
        ("top_angle", [20, 20.0, 25], "20.0"),
        ("n_crossbeams", [2, 2], "2"),
        ("connection", ["simple", "rigid", "simple"], "'simple'")])
    def test_repeated_values_exit_2(self, tmp_path, capsys, axis, values,
                                    repeated):
        data = {**sweep_spec(), "axis": axis, "values": values}
        spec = write_json(tmp_path / "sweep.json", data)
        out = tmp_path / "r.csv"
        assert main(["sweep", spec, str(out), "--probe-max-force"]) == 2
        assert (f"values must be distinct, got {repeated} twice"
                in capsys.readouterr().err)
        assert not out.exists()


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


CLAMPED = {"node": 0, "u": True, "w": True, "theta": True}


def _clamped_beams():
    """A beam clamped at node 0 and a second element from node 1 to node 2,
    all along x; its load is 1e-7 N across the beams at node 2."""
    beam = {"E": E_MOD, "A": AREA, "I": INERTIA}
    return ({"nodes": [{"id": k, "x": 0.1 * k, "y": 0.0} for k in range(3)],
             "elements": [{"i": 0, "j": 1, **beam}, {"i": 1, "j": 2, **beam}],
             "supports": [CLAMPED]},
            {"forces": [{"node": 2, "fy": 1e-7}]})


@pytest.mark.parametrize("edit, code, message", [
    (lambda doc: None, 0, ""),
    # a pin-ended second element leaves node 2's rotation free
    (lambda doc: doc["elements"][1].update(kind="pin-ended"), 3,
     "diverged at increment 1 (SingularMatrix)"),
    # each of these was ignored, and the misspelt kind solved as a beam
    (lambda doc: doc["elements"][1].update(knd="pin-ended"), 2,
     "error: elements[1]: unknown key(s) ['knd']"),
    (lambda doc: doc["nodes"][2].update(z=0.0), 2,
     "error: nodes[2]: unknown key(s) ['z']"),
    (lambda doc: doc.update(material="steel"), 2,
     "error: structure: unknown key(s) ['material']"),
    # the last entry won, and the pinned beam was a mechanism
    (lambda doc: doc["supports"].append({**CLAMPED, "theta": False}), 2,
     "error: supports: node 0 is listed more than once"),
], ids=["as-built", "pin-ended", "misspelt-kind", "node-z", "top-level-key",
        "repeated-support"])
def test_misread_structure_exits_2(tmp_path, capsys, edit, code, message):
    doc, load = _clamped_beams()
    edit(doc)
    structure = write_json(tmp_path / "structure.json", doc)
    load = write_json(tmp_path / "load.json", load)
    assert main(["solve", structure, load, str(tmp_path / "out.csv")]) == code
    assert capsys.readouterr().err.startswith(message)


def test_main_leaves_the_collector_as_it_was(tmp_path):
    # run() freezes the heap on the way out of the program; main() is also
    # the library's entry, and must not freeze its caller's heap
    spec = write_json(tmp_path / "sweep.json", sweep_spec())
    before = gc.get_freeze_count(), gc.isenabled()
    assert main(["sweep", spec, str(tmp_path / "r.csv"),
                 "--probe-max-force"]) == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == before


def _exits_alike(capsys, args, code):
    """`python -m finbeam ARGS` in a fresh interpreter exits with code, and
    its stderr ends with all that main(ARGS) printed here (log records,
    which FINBEAM_LOG_LEVEL may turn on, go to pytest here)."""
    assert main(args) == code
    err = capsys.readouterr().err
    fresh = fresh_python("-m", "finbeam", *args, check=False,
                         capture_output=True, text=True)
    assert fresh.returncode == code
    assert err and fresh.stderr.endswith(err)
    return err


def test_fresh_process_invalid_input_exits_2(tmp_path, capsys):
    data = {**sweep_spec(values=(3,)), "load_directon": TILTED}
    spec = write_json(tmp_path / "sweep.json", data)
    err = _exits_alike(capsys, ["sweep", spec, str(tmp_path / "r.csv")], 2)
    assert err == ("error: sweep: unknown key(s) ['load_directon'], "
                   f"expected some of {list(cli.SWEEP_KEYS)}\n")


def test_fresh_process_divergence_exits_3(tmp_path, capsys):
    # past the top-angle-30 finger's 2.88 N limit point
    params = write_json(tmp_path / "p.json", {"top_angle": 30.0})
    structure = tmp_path / "s.json"
    assert main(["generate", params, str(structure)]) == 0
    node = json.loads(structure.read_text())["contact_nodes"][1]
    load = write_json(tmp_path / "load.json", {"forces": [
        {"node": node, "fx": 3.5 * TILTED[0], "fy": 3.5 * TILTED[1]}]})
    err = _exits_alike(capsys, ["solve", str(structure), load,
                                str(tmp_path / "r.csv"), "--n-inc", "10"], 3)
    assert err.startswith("diverged at increment ")
