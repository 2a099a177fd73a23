"""CLI contract: exit codes, report schema, determinism, CSV outputs."""

import csv
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

import bmkit
from bmkit import NONDIMENSIONAL, field_line_generator, integrate, write_orbit_csv
from bmkit.catalog import build_catalog_field
from bmkit.cli import build_field, main, parse_field_spec
from bmkit.errors import ConfigError
from bmkit.scalars import Plan

BM_SPEC = "beltrami_maxwell{v=t3_mode{n=1,c=1},e0=1}"


def run_cli(args):
    return main(list(args))


# -- field spec micro-syntax -----------------------------------------------------


def test_parse_field_spec_flat():
    name, params = parse_field_spec("t3_mode{n=2,c=1.5}")
    assert name == "t3_mode"
    assert params == {"n": "2", "c": "1.5"}


def test_parse_field_spec_nested():
    name, params = parse_field_spec(BM_SPEC)
    assert name == "beltrami_maxwell"
    assert params["e0"] == "1"
    assert params["v"] == ("t3_mode", {"n": "1", "c": "1"})


def test_parse_field_spec_words_and_bare_name():
    assert parse_field_spec("traveling_wave") == ("traveling_wave", {})
    _, params = parse_field_spec("solid_torus_mode{sign=plus,k_c=2}")
    assert params == {"sign": "plus", "k_c": "2"}


@pytest.mark.parametrize("bad", ["t3_mode{n=1", "t3_mode{n}", "t3_mode{=1}",
                                 "t3_mode{n=1}}", ""])
def test_parse_field_spec_errors(bad):
    with pytest.raises(ConfigError):
        parse_field_spec(bad)


@pytest.mark.parametrize("spec", ["t3_mode{n=2,n=1}", "beltrami_maxwell{v=t3_mode{c=1,c=2}}",
                                  "beltrami_maxwell{v=t3_mode,v=abc_flow}"])
def test_repeated_spec_key_is_an_error(spec, capsys):
    key = re.findall(r"[{,](\w+)=", spec)[-1]
    with pytest.raises(ConfigError, match=f"repeated key '{key}'"):
        parse_field_spec(spec)
    assert run_cli(["verify", "--field", spec, "--checks", "beltrami"]) == 2
    assert f"repeated key '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("word,n", [("2", 2), ("2.0", 2), ("1e3", 1000),
                                    ("9007199254740993", 9007199254740993)])
def test_int_param_words_accepted_alike(word, n):
    # the CLI's spec words and the library's values convert in one place, the catalog
    cli_n = build_field(f"t3_mode{{n={word}}}", NONDIMENSIONAL).params["n"]
    lib_n = build_catalog_field("t3_mode", {"n": word}).params["n"]
    assert type(cli_n) is type(lib_n) is int and cli_n == lib_n == n


@pytest.mark.parametrize("word", ["1.7", "2.5e-1", "inf", "x"])
def test_int_param_words_rejected_alike(word, capsys):
    with pytest.raises(ConfigError, match="t3_mode.n: expected an integer"):
        build_catalog_field("t3_mode", {"n": word})
    assert run_cli(["verify", "--field", f"t3_mode{{n={word}}}", "--checks", "beltrami"]) == 2
    assert f"t3_mode.n: expected an integer, got '{word}'" in capsys.readouterr().err


def test_catalog_defaults_round_trip_through_specs(capsys):
    # a spec written from `bmk catalog --json` defaults builds the entry at its defaults
    assert run_cli(["catalog", "--json"]) == 0
    for entry in json.loads(capsys.readouterr().out)["catalog"]:
        spec = entry["name"] + "{" + ",".join(
            f"{p}={d['default']}" for p, d in entry["params"].items()) + "}"
        built = build_field(spec, NONDIMENSIONAL)
        assert built.params == build_catalog_field(entry["name"]).params, spec


# -- catalog ------------------------------------------------------------------------


def test_catalog_lists_entries(capsys):
    assert run_cli(["catalog"]) == 0
    out = capsys.readouterr().out
    for name in ("t3_mode", "abc_flow", "solid_torus_mode"):
        assert name in out
    assert out.count("identity:") >= 8


def test_catalog_json(capsys):
    assert run_cli(["catalog", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["schema"] == "bmk-report/1"
    names = {e["name"] for e in data["catalog"]}
    assert {"t3_mode", "beltrami_maxwell", "traveling_wave"} <= names


# -- verify -------------------------------------------------------------------------


def test_verify_full_suite_passes(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_cli(["verify", "--field", BM_SPEC,
                    "--x0", "0.7853981633974483", "--checks", "all",
                    "--grid", "6", "--tgrid", "4", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema"] == "bmk-report/1"
    assert report["summary"]["n_failed"] == 0
    assert report["summary"]["n_checks"] >= 10
    names = {c["check"] for c in report["checks"]}
    assert any(c.startswith("shs_be") for c in names)


def test_verify_single_time_sample_is_the_instant(tmp_path):
    out = tmp_path / "r.json"
    code = run_cli(["verify", "--field", BM_SPEC, "--x0", "0.5", "--tgrid", "1",
                    "--checks", "maxwell", "--grid", "4", "--no-meta", "--out", str(out)])
    assert code == 0
    (check,) = json.loads(out.read_text())["checks"]
    assert check["grid"]["x0"] == [0.5]
    assert check["witness"][0][0] == 0.5


def test_main_calls_share_one_parser_and_parse_independently(tmp_path, capsys):
    from bmkit.cli import build_parser
    assert build_parser() is build_parser()
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(["verify", "--field", BM_SPEC, "--x0", "0.5", "--x0", "0.7",
                    "--tgrid", "1", "--checks", "maxwell", "contact_e", "--grid", "4",
                    "--no-meta", "--out", str(first)]) == 0
    assert run_cli(["catalog", "--json"]) == 0
    assert "catalog" in json.loads(capsys.readouterr().out)
    # neither the appended instants nor the check list of the first call carry over
    assert run_cli(["verify", "--field", BM_SPEC, "--tgrid", "1", "--checks", "maxwell",
                    "--grid", "4", "--no-meta", "--out", str(second)]) == 0
    assert run_cli(["catalog"]) == 0
    assert not capsys.readouterr().out.lstrip().startswith("{")
    checks = json.loads(first.read_text())["checks"]
    assert [c["check"].split("@")[0] for c in checks] == ["maxwell", "contact_e", "contact_e"]
    assert checks[0]["grid"]["x0"] == [0.5, 0.7]
    (check,) = json.loads(second.read_text())["checks"]
    assert check["check"] == "maxwell" and check["grid"]["x0"] == [0.25 * math.pi]


def test_verify_degenerate_instant_fails_shs(tmp_path):
    code = run_cli(["verify", "--field", BM_SPEC, "--x0", "0",
                    "--checks", "shs_be", "shs_dh", "--grid", "5", "--tgrid", "3",
                    "--out", str(tmp_path / "r.json")])
    assert code == 1
    report = json.loads((tmp_path / "r.json").read_text())
    assert all(not c["pass"] for c in report["checks"])


def test_verify_traveling_wave_symplectic_fails(tmp_path):
    code = run_cli(["verify", "--field", "traveling_wave",
                    "--checks", "symplectic_f0", "--grid", "5", "--tgrid", "3",
                    "--out", str(tmp_path / "r.json")])
    assert code == 1
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["checks"][0]["min_margin"] == 0.0


def test_verify_conservation_at_degenerate_instant_is_config_error(tmp_path):
    code = run_cli(["verify", "--field", BM_SPEC, "--x0", "0",
                    "--checks", "conservation_y1", "--grid", "5", "--tgrid", "3"])
    assert code == 2
    # with --allow-degenerate the check is skipped, not failed
    out = tmp_path / "r.json"
    code = run_cli(["verify", "--field", BM_SPEC, "--x0", "0",
                    "--checks", "conservation_y1", "--grid", "5", "--tgrid", "3",
                    "--allow-degenerate", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["summary"]["n_skipped"] == 1


@pytest.mark.parametrize("constants", ["nondim", "si"])
@pytest.mark.parametrize("field", ["traveling_wave", "beltrami_nonparallel"])
def test_verify_conservation_fails_where_no_reeb_field_exists(field, constants, tmp_path):
    # lambda . Omega# = 0 at every point: no Reeb field, so conservation along it FAILs,
    # also at the instants where traveling_wave's e vanishes on a grid plane
    from bmkit.reeb import DEGENERACY_TOL, NO_REEB_FIELD
    out = tmp_path / "r.json"
    x0s = ["0", "0.785398", str(math.pi)]
    assert run_cli(["verify", "--field", field, "--constants", constants,
                    *(a for x0 in x0s for a in ("--x0", x0)),
                    "--checks", "conservation_y0", "conservation_y1", "--grid", "8",
                    "--tgrid", "3", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["skipped"] == [] and len(report["checks"]) == 6
    for c in report["checks"]:
        assert (c["pass"], c["details"], c["tolerance"]) == (
            False, {"reason": NO_REEB_FIELD}, {"margin": DEGENERACY_TOL})
        assert c["min_margin"] <= DEGENERACY_TOL and len(c["witness"][0]) == 3


@pytest.mark.parametrize("constants", ["nondim", "si"])
@pytest.mark.parametrize("e0", ["1e-08", "1.0", "1e+08"])
def test_verify_conservation_fails_where_lambda_vanishes_at_a_point(e0, constants, tmp_path):
    # e = e0 sin(x3) w is round-off dust on the x3 = 0 grid plane: there lambda . Omega# is
    # round-off too, whatever its angle, so the pair has no Reeb field on the grid (the
    # field built there reached 1e16 and FAILed through its conservation residual)
    from bmkit.reeb import DEGENERACY_TOL, NO_REEB_FIELD
    out = tmp_path / "r.json"
    assert run_cli(["verify", "--field", f"parallel_nonbeltrami{{e0={e0}}}",
                    "--constants", constants, "--x0", "0.3", "--checks", "conservation_y0",
                    "--out", str(out)]) == 1
    (c,) = json.loads(out.read_text())["checks"]
    assert (c["pass"], c["details"], c["tolerance"]) == (
        False, {"reason": NO_REEB_FIELD}, {"margin": DEGENERACY_TOL})
    assert c["max_residual"] == 0.0 and c["min_margin"] <= 1e-12
    assert len(c["witness"][0]) == 3 and c["witness"][0][2] == 0.0


def test_verify_conservation_of_fields_scaled_apart_passes(tmp_path):
    # e = 1e-6 dx1, h = 1e6 dx1: a Reeb field exists at every point, and e is far from
    # zero next to its own amplitude, however small next to h's
    out = tmp_path / "r.json"
    assert run_cli(["verify", "--field", "constant_field{e0=1e-6,h0=1e6}", "--x0", "0.3",
                    "--checks", "conservation_y0", "conservation_y1",
                    "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert [(c["check"], c["pass"]) for c in report["checks"]] == [
        ("conservation_y0@x0=0.3", True), ("conservation_y1@x0=0.3", True)]
    assert report["skipped"] == []


def test_verify_bessel_field_shares_leaf_kernels(tmp_path, monkeypatch):
    """Equal J0/J1 leaves run bessel_j once per evaluation call, on the r axis alone.

    8 calls: J0 and J1 once each on the window, on the slice grid in each of
    its two rounds and on the singularity scan (a grid of more than
    verify.BLOCK_ROWS = 2^14 points runs them once per block).  Each call takes the
    grid's r coordinates, not one per point: a leaf reads r only, and a plan
    runs on the grid's axes, so 6 values on the grids here (24 on the scan's
    lattice), where the window alone has 648 points.  It was 46 with one
    evaluation call per check, 134 when conservation took finite-difference
    partials on 22 stencil grids, 162 when some checks made one call per form,
    882 with one call per finite-difference partial, stencil offset and
    residual form, and 4565 when every leaf is evaluated on its own.
    """
    import bmkit.bessel

    calls = []
    original = bmkit.bessel.bessel_j

    def counting(order, z):
        calls.append(np.size(z))
        return original(order, z)

    monkeypatch.setattr(bmkit.bessel, "bessel_j", counting)
    spec = "beltrami_maxwell{v=solid_torus_mode{k_c=2,beta=1,sign=minus}}"
    code = run_cli(["verify", "--field", spec,
                    "--checks", "all", "--allow-degenerate", "--no-meta",
                    "--grid", "6", "--tgrid", "3", "--out", str(tmp_path / "r.json")])
    assert code == 0
    assert 0 < len(calls) <= 8 and set(calls) <= {6, 24}


def _record_plans(monkeypatch):
    """Patch every module's Plan: returns the (fields, nested) of each plan compiled,
    nested when another plan was running."""
    import bmkit.catalog
    import bmkit.forms
    import bmkit.scalars
    import bmkit.verify

    built, running = [], []

    class RecordingPlan(bmkit.scalars.Plan):
        __slots__ = ()

        def __init__(self, fields, *args, **kwargs):
            fields = list(fields)
            built.append((fields, bool(running)))
            super().__init__(fields, *args, **kwargs)

        def __call__(self, pts):
            running.append(1)
            try:
                return super().__call__(pts)
            finally:
                running.pop()

    for module in (bmkit.scalars, bmkit.catalog, bmkit.forms, bmkit.verify):
        monkeypatch.setattr(module, "Plan", RecordingPlan, raising=False)
    return built


def test_verify_compiles_one_plan_per_point_set_per_round(tmp_path, monkeypatch):
    """The window, the slice grid (base form, Reeb degeneracy tests), and the slice grid
    again (slice checks, Reeb-dependent columns), plus the base form's singularity scan:
    4 outermost plans (23 with one per check).  meta.evaluation counts the batch's plans,
    columns and points."""
    built = _record_plans(monkeypatch)
    out = tmp_path / "r.json"
    assert run_cli(["verify", "--field", BM_SPEC, "--checks", "all",
                    "--grid", "5", "--tgrid", "3", "--out", str(out)]) == 0
    assert sum(1 for _, nested in built if not nested) <= 4
    evaluation = json.loads(out.read_text())["meta"]["evaluation"]
    assert evaluation["plans"] == 3
    assert evaluation["points"] == 5 ** 3 * 3 + 2 * 5 ** 3
    assert 0 < evaluation["columns"] <= sum(len(fields) for fields, _ in built)
    assert run_cli(["verify", "--field", BM_SPEC, "--checks", "all",
                    "--grid", "5", "--tgrid", "3", "--no-meta", "--out", str(out)]) == 0
    assert "meta" not in json.loads(out.read_text())


@pytest.mark.parametrize("spec, extra, code, steps, all_steps", [
    ("beltrami_maxwell{v=solid_torus_mode{k_c=2,beta=1,sign=minus}}", [], 0, 791, 815),
    ("beltrami_maxwell{v=t3_mode{n=2}}", ["--allow-degenerate"], 1, 201, 208),
])
def test_verify_plan_steps_with_one_node_per_structure(spec, extra, code, steps, all_steps,
                                                      tmp_path, monkeypatch):
    """meta.evaluation counts the steps of the batch's 3 plans, each run once on a window of
    10^4 points or a grid of 10^3 (7 runs in blocks of 2048 points).  All the plans the
    command compiles, the singularity scan's too, run 815 steps on the Bessel field and 208
    on t3 (827 and 207 when the Reeb field was sharp(lambda) / |lambda|^2); when plans
    merged nodes only by id, 1582 and 316."""
    built = _record_plans(monkeypatch)
    out = tmp_path / "r.json"
    assert run_cli(["verify", "--field", spec, "--checks", "all", "--grid", "10",
                    "--tgrid", "10", "--out", str(out), *extra]) == code
    evaluation = json.loads(out.read_text())["meta"]["evaluation"]
    assert (evaluation["plans"], evaluation["runs"], evaluation["steps"]) == (3, 3, steps)
    assert sum(len(Plan(fields).steps) for fields, _ in built) == all_steps


def test_verify_counts_the_nodes_it_makes():
    """meta.evaluation.nodes counts the ScalarField nodes a command makes: 791 for the CI
    Bessel command in a fresh process.  Run again in the same process it makes no more, and
    leaves the intern table as large as the first run did."""
    code = """if True:
        import contextlib, gc, io, json, sys
        from bmkit import scalars
        from bmkit.cli import main
        for _ in range(2):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                assert main(sys.argv[1:]) == 0
            gc.collect()
            print(json.loads(out.getvalue())["meta"]["evaluation"]["nodes"], len(scalars._NODES))
    """
    src = os.path.dirname(os.path.dirname(bmkit.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", code, "verify", "--checks", "all", "--grid", "10", "--tgrid",
         "10", "--field", "beltrami_maxwell{v=solid_torus_mode{k_c=2,beta=1,sign=minus}}",
         "--stdout-json"], capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))})
    assert proc.returncode == 0, proc.stderr
    (first, table), (second, table_again) = (map(int, line.split())
                                             for line in proc.stdout.splitlines())
    assert first == 791
    assert second <= first and table_again == table


def test_verify_counts_plan_runs_per_block(tmp_path):
    """A grid of more than verify.BLOCK_ROWS points is run in blocks: at --grid 40 --tgrid 10
    the window's 640000 points take 40 runs and each round on the 64000-point slice grid 4,
    so meta.evaluation reports 48 runs of 3 plans."""
    out = tmp_path / "r.json"
    assert run_cli(["verify", "--checks", "all", "--grid", "40", "--tgrid", "10", "--field",
                    "beltrami_maxwell{v=abc_flow{A=2,B=1,C=0.5}}", "--out", str(out)]) == 0
    evaluation = json.loads(out.read_text())["meta"]["evaluation"]
    assert (evaluation["plans"], evaluation["runs"]) == (3, 48)


def test_verify_reads_the_coordinates_of_reported_witnesses_only(tmp_path, monkeypatch):
    """A Maxwell --checks all command calls SampleGrid.point at most once per witness its
    reports carry (87 times for 12 witnesses when every need read its witness)."""
    from bmkit.verify import SampleGrid

    rows = []
    point = SampleGrid.point
    monkeypatch.setattr(SampleGrid, "point", lambda self, row: rows.append(row) or point(self, row))
    out = tmp_path / "r.json"
    assert run_cli(["verify", "--checks", "all", "--grid", "10", "--tgrid", "10", "--field",
                    "beltrami_maxwell{v=solid_torus_mode{k_c=2,beta=1,sign=minus}}",
                    "--no-meta", "--out", str(out)]) == 0
    witnesses = sum(len(c["witness"]) for c in json.loads(out.read_text())["checks"])
    assert 0 < len(rows) <= witnesses == 12


def test_verify_values_are_counted_on_the_shapes_of_the_axes_read(tmp_path, monkeypatch):
    """meta.evaluation.values sums, over the batch's steps and blocks, the values computed:
    a value has the shape of the grid axes its node reads, so the Bessel command of CI
    computes 228050 values where one per step and point would be 2.8 million (234490 in
    blocks of 2048 points, each of which computed again the values that do not read x0)."""
    import bmkit.verify

    runs = []   # (steps, points) of each plan run of the batch

    class RecordingPlan(bmkit.verify.Plan):
        __slots__ = ()

        def __call__(self, cols):
            runs.append((len(self.steps), math.prod(np.broadcast_shapes(*(c.shape for c in cols)))))
            return super().__call__(cols)

    monkeypatch.setattr(bmkit.verify, "Plan", RecordingPlan)
    out = tmp_path / "r.json"
    assert run_cli(["verify", "--checks", "all", "--grid", "10", "--tgrid", "10", "--field",
                    "beltrami_maxwell{v=solid_torus_mode{k_c=2,beta=1,sign=minus}}",
                    "--out", str(out)]) == 0
    evaluation = json.loads(out.read_text())["meta"]["evaluation"]
    assert sum(points for _, points in runs) == evaluation["points"] == 12000
    assert 0 < evaluation["values"] <= 0.2 * sum(steps * points for steps, points in runs)


@pytest.mark.parametrize("check", ["beltrami", "parallel"])
def test_verify_slices_and_amplitudes_only_when_a_check_reads_them(check, tmp_path,
                                                                    monkeypatch):
    import bmkit.cli
    from bmkit.catalog import MaxwellFieldSet

    built, slices, targets = _record_plans(monkeypatch), [], []
    at_time = MaxwellFieldSet.at_time
    monkeypatch.setattr(MaxwellFieldSet, "at_time",
                        lambda self, x0: slices.append(x0) or at_time(self, x0))
    build = bmkit.cli.build_field
    monkeypatch.setattr(bmkit.cli, "build_field",
                        lambda *a: targets.append(build(*a)) or targets[-1])
    assert run_cli(["verify", "--field", "beltrami_maxwell{v=t3_mode}", "--checks", check,
                    "--grid", "4", "--tgrid", "2", "--out", str(tmp_path / "r.json")]) == 0
    (M,) = targets
    assert slices == []
    read = {id(c) for f in (M.e, M.h) for c in f.coeffs.values()}
    amplitude_only = {id(c) for f in (M.B, M.D) for c in f.coeffs.values()} - read
    assert amplitude_only
    assert not amplitude_only & {id(f) for fields, _ in built for f in fields}


def test_verify_slices_each_instant_once(tmp_path, monkeypatch):
    # the slice checks and both conservation checks share M.at_time(x0)
    import bmkit.catalog
    from bmkit.catalog import beltrami_maxwell, t3_mode

    sliced, restrict = [], bmkit.catalog.restrict_form
    monkeypatch.setattr(bmkit.catalog, "restrict_form",
                        lambda *a: sliced.append(a[2]) or restrict(*a))
    assert run_cli(["verify", "--field", BM_SPEC, "--checks", "all", "--grid", "4",
                    "--tgrid", "2", "--x0", "0.3", "--x0", "1.1",
                    "--out", str(tmp_path / "r.json")]) == 0
    assert sliced == [0.3] * 4 + [1.1] * 4   # e, h, B and D once per instant
    M = beltrami_maxwell(t3_mode())
    assert M.at_time(0.3) is M.at_time(np.float64(0.3))
    assert M.at_time(0.0) is not M.at_time(-0.0)


@pytest.mark.parametrize("second", ["0.5", "0.50000001"])
def test_verify_rejects_instants_with_one_report_label(second, capsys):
    code = run_cli(["verify", "--field", BM_SPEC, "--x0", "0.5", "--x0", second,
                    "--checks", "contact_e", "--grid", "4", "--tgrid", "2"])
    assert code == 2
    assert "share a report label x0=%.6g" in capsys.readouterr().err


def test_verify_unknown_field_exit_2():
    assert run_cli(["verify", "--field", "warp_core{q=1}"]) == 2


def test_verify_inapplicable_check_exit_2():
    assert run_cli(["verify", "--field", "t3_mode{n=1,c=1}",
                    "--checks", "symplectic_f0"]) == 2


MAXWELL_ALL = ["maxwell", "constitutive", "parallel", "symplectic_f0", "symplectic_f1",
               "contact_e", "contact_h", "shs_be", "shs_dh",
               "conservation_y0", "conservation_y1"]


def _slice_names(x0):
    return [f"{c}@x0={x0}" for c in ("contact_e", "contact_h", "shs_be", "shs_dh",
                                      "conservation_y0", "conservation_y1")]


@pytest.mark.parametrize("field, argv, config, names, skipped", [
    ("t3_mode{n=1,c=1}", ["--checks", "all"],
     ["beltrami", "contact", "shs"], ["beltrami", "contact", "shs"], []),
    (BM_SPEC, ["--x0", "0", "--x0", "0.5", "--allow-degenerate"],
     MAXWELL_ALL + ["beltrami"],
     ["maxwell", "constitutive", "parallel", "symplectic_F0", "symplectic_F1", "beltrami"]
     + _slice_names(0)[:-1] + _slice_names(0.5),
     ["conservation_y1@x0=0"]),
    ("traveling_wave", [], MAXWELL_ALL,
     ["maxwell", "constitutive", "parallel", "symplectic_F0", "symplectic_F1"]
     + _slice_names(0.785398), []),
    (BM_SPEC, ["--checks", "conservation_y0", "contact_e", "maxwell", "beltrami"],
     ["conservation_y0", "contact_e", "maxwell", "beltrami"],
     ["maxwell", "beltrami", "contact_e@x0=0.785398", "conservation_y0@x0=0.785398"], []),
    (BM_SPEC, ["--checks", "maxwell", "maxwell"], ["maxwell", "maxwell"], ["maxwell"], []),
])
def test_verify_check_names_order_and_skips(field, argv, config, names, skipped, tmp_path):
    """Requested checks go to config as given; reports run window, beltrami, then slices per x0."""
    out = tmp_path / "r.json"
    code = run_cli(["verify", "--field", field, *argv, "--grid", "4", "--tgrid", "2",
                    "--no-meta", "--out", str(out)])
    assert code in (0, 1)
    report = json.loads(out.read_text())
    assert report["config"]["checks"] == config
    assert [c["check"] for c in report["checks"]] == names
    assert [s["check"] for s in report["skipped"]] == skipped


def test_verify_calls_each_verifier_through_the_cli_globals(monkeypatch):
    """A wrapper set on a bmkit.cli global, as the benchmark tracer sets one, sees every call."""
    import collections

    import bmkit.cli

    calls = collections.Counter()
    for name in ("maxwell_residuals", "constitutive_residuals", "parallel_check",
                 "symplectic_margin", "beltrami_residual", "contact_margin", "shs_check",
                 "conservation_along", "reeb_for_maxwell", "hodge_star"):
        def counted(*args, _name=name, _fn=getattr(bmkit.cli, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(bmkit.cli, name, counted)
    assert run_cli(["verify", "--field", BM_SPEC, "--grid", "4", "--tgrid", "2"]) == 0
    assert calls == {"maxwell_residuals": 1, "constitutive_residuals": 1, "parallel_check": 1,
                     "symplectic_margin": 2, "beltrami_residual": 1, "contact_margin": 2,
                     "shs_check": 2, "conservation_along": 2, "reeb_for_maxwell": 2}
    calls.clear()
    assert run_cli(["verify", "--field", "t3_mode{n=1,c=1}", "--grid", "4"]) == 0
    assert calls == {"beltrami_residual": 1, "contact_margin": 1, "shs_check": 1,
                     "hodge_star": 1}


def test_verify_beltrami_form_checks(tmp_path):
    out = tmp_path / "r.json"
    code = run_cli(["verify", "--field", "t3_mode{n=1,c=1}", "--grid", "6",
                    "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert {c["check"] for c in report["checks"]} == {"beltrami", "contact", "shs"}


@pytest.mark.parametrize("n", ["1.7", "0.5", "2.5e0", "inf", "nan"])
def test_verify_non_integral_int_param_exit_2(n, capsys):
    code = run_cli(["verify", "--field", f"beltrami_maxwell{{v=t3_mode{{n={n},c=1}}}}"])
    assert code == 2
    assert "expected an integer" in capsys.readouterr().err


@pytest.mark.parametrize("spec,check", [
    ("t3_mode{n=1,c=inf}", "beltrami"),
    ("t3_mode{n=1,c=-inf}", "beltrami"),
    ("beltrami_maxwell{e0=inf}", "maxwell"),
    ("beltrami_maxwell{e0=nan}", "maxwell"),
])
def test_verify_non_finite_float_param_exit_2(spec, check, capsys):
    assert run_cli(["verify", "--field", spec, "--checks", check]) == 2
    assert "expected a finite number" in capsys.readouterr().err


def test_verify_integral_float_int_param_accepted(tmp_path):
    out = tmp_path / "r.json"
    code = run_cli(["verify", "--field", "t3_mode{n=2.0,c=1}", "--grid", "4",
                    "--checks", "beltrami", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["checks"][0]["details"]["k"] == -2.0


def test_unknown_flag_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "--field", BM_SPEC, "--bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize("args", [
    ["trace", "--step", "nan"],
    ["trace", "--step", "0"],
    ["survey", "--s-max", "inf"],
    ["survey", "--s-max", "nan"],
    ["survey", "--tol", "nan"],
    ["survey", "--tol", "-1"],
    ["trace", "--x0", "nan"],
    ["survey", "--seeds", "nan,0,0"],
    ["trace", "--seeds", "0,inf,0"],
    ["verify", "--tgrid", "0"],
    ["verify", "--t-window", "-0.1"],
    ["verify", "--t-window", "inf"],
    ["verify", "--x0", "nan"],
    # step counts too large to store: rejected before anything is allocated
    ["survey", "--seeds", "0,0,0", "--step", "1e-300"],
    ["trace", "--s-max", "1e300"],
    ["survey", "--step", "1e-320", "--s-max", "1e10"],
    # grid counts: one or one per axis, each >= 2, checked by SampleGrid.regular
    ["verify", "--grid", "4,4"],
    ["verify", "--grid", "1"],
    ["verify", "--grid", "x"],
    ["reeb", "--grid", "4,4,4,4"],
    ["survey", "--seed-grid", "1"],
    # lattices over 2^63 bytes: rejected before anything is allocated
    ["verify", "--grid", "99999999999999999999"],
    ["verify", "--grid", "3000000,3000000,3000000"],
    ["survey", "--seed-grid", "99999999999999999999"],
    # budgets below 100 RK4 steps (ceil(s_max / step)); 5 / 0.05 is valid
    ["survey", "--seeds", "0,0,0", "--s-max", "0.5", "--step", "0.1"],
    ["trace", "--s-max", "0.99", "--step", "0.01"],
    # time windows over 2^63 bytes (the second alone fits in linspace): rejected first
    ["verify", "--tgrid", "99999999999999999999"],
    ["verify", "--tgrid", "300000000000000000"],
    # an empty count is a bad grid spec, not a count left out
    ["verify", "--grid", "6,,6,6"],
    ["survey", "--seed-grid", "3,3,3,"],
])
def test_bad_numeric_flag_exit_2(args, capsys):
    argv = args[:1] + ["--field", "constant_field"] + args[1:]
    try:
        code = run_cli(argv)
    except SystemExit as exc:  # argparse rejects the flag itself
        code = exc.code
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_byte_determinism_with_no_meta(tmp_path):
    args = ["verify", "--field", "traveling_wave", "--checks", "maxwell",
            "--grid", "5", "--tgrid", "3", "--no-meta"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_stdout_silent_by_default(capsys):
    run_cli(["verify", "--field", "traveling_wave", "--checks", "maxwell",
             "--grid", "5", "--tgrid", "3"])
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "maxwell" in captured.err


def test_elapsed_time_ignores_a_wall_clock_that_steps_back(monkeypatch, tmp_path):
    # each read of the wall clock is an hour before the last, as after an NTP step
    clock = itertools.count(1e9, -3600.0)
    monkeypatch.setattr(time, "time", lambda: next(clock))
    out = tmp_path / "r.json"
    assert run_cli(["verify", "--field", "traveling_wave", "--checks", "maxwell",
                    "--grid", "5", "--tgrid", "3", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["meta"]["elapsed_s"] >= 0


def test_stdout_json_flag(capsys):
    run_cli(["verify", "--field", "traveling_wave", "--checks", "maxwell",
             "--grid", "5", "--tgrid", "3", "--stdout-json", "--no-meta"])
    data = json.loads(capsys.readouterr().out)
    assert data["schema"] == "bmk-report/1"


# -- trace / survey / reeb -------------------------------------------------------------


def test_trace_writes_csv_and_report(tmp_path):
    out = tmp_path / "trace.json"
    code = run_cli(["trace", "--field", BM_SPEC, "--which", "e", "--x0", "0",
                    "--seeds", "0,0,0;0,0,1.5707963267948966",
                    "--step", "0.01", "--s-max", "15",
                    "--out-prefix", str(tmp_path / "orbit"),
                    "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["summary"]["closed_count"] == 2
    with open(tmp_path / "orbit_000.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "s"
    assert len(rows) > 100


def test_trace_malformed_seeds_exit_2():
    assert run_cli(["trace", "--field", "constant_field",
                    "--seeds", "0,0,0;nope,1,2"]) == 2
    assert run_cli(["trace", "--field", "constant_field", "--seeds", "0,0"]) == 2
    # an empty piece is malformed, not skipped
    assert run_cli(["survey", "--field", "t3_mode", "--seeds", "0,0,0;;0.5,0,0;",
                    "--s-max", "10"]) == 2
    assert run_cli(["survey", "--field", "t3_mode", "--seeds", "0,0,0;", "--s-max", "10"]) == 2


@pytest.mark.parametrize("command", ["survey", "trace"])
@pytest.mark.parametrize("seed", ["0,0,0", "100,0,0", "5,0,0"])
def test_seeds_outside_the_chart_exit_2(command, seed, tmp_path, capsys):
    # r = 0, 100 and 5 lie outside the solid torus's r interval [0.001, 1]: each is rejected
    # before it is integrated, with no numpy warning and no Bessel range error
    code = run_cli([command, "--field", "solid_torus_mode", "--s-max", "2", "--seeds", seed,
                    "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: point outside chart domain: {[float(x) for x in seed.split(',')]}\n")
    assert not (tmp_path / "r.json").exists()


def test_survey_constant_field_r3_none_closed(tmp_path):
    out = tmp_path / "survey.json"
    code = run_cli(["survey", "--field", "constant_field", "--which", "e",
                    "--seed-grid", "2", "--step", "0.01", "--s-max", "5",
                    "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["survey"]["closed_count"] == 0
    assert report["survey"]["witnesses"] == []
    notes = {r["note"] for r in report["survey"]["results"]}
    assert notes == {"none found within budget"}


def test_trace_seed_grid_finds_closed_orbits(tmp_path):
    # 27-seed lattice on the t3-mode slice: the x3 = 0 plane rows close
    out = tmp_path / "trace.json"
    code = run_cli(["trace", "--field", BM_SPEC, "--which", "e", "--x0", "0",
                    "--seed-grid", "3", "--step", "0.01", "--s-max", "10",
                    "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["summary"]["n_seeds"] == 27
    assert report["summary"]["closed_count"] >= 1


def test_trace_agrees_with_survey(tmp_path):
    # one closed line, one with winding (2, 1, 0), one irrational slope
    seeds = "0,0,0;0,0,0.4636476090008061;0,0,0.9553166181245093"
    common = ["--field", BM_SPEC, "--which", "e", "--x0", "0", "--seeds", seeds,
              "--step", "0.01", "--s-max", "16", "--tol", "1e-4", "--no-meta"]
    trace_out, survey_out = tmp_path / "trace.json", tmp_path / "survey.json"
    assert run_cli(["trace", *common, "--out", str(trace_out),
                    "--out-prefix", str(tmp_path / "orbit")]) == 0
    assert run_cli(["survey", *common, "--out", str(survey_out)]) == 0
    orbits = json.loads(trace_out.read_text())["orbits"]
    results = json.loads(survey_out.read_text())["survey"]["results"]
    assert [o["closure"] for o in orbits] == results
    assert [r["closed"] for r in results] == [True, True, False]

    Y = field_line_generator(build_field(BM_SPEC, NONDIMENSIONAL), "e", 0.0)
    write_orbit_csv(integrate(Y, [0.0, 0.0, 0.0], 0.01, 1600), str(tmp_path / "ref.csv"))
    assert (tmp_path / "orbit_000.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_survey_witnesses_recorded(tmp_path):
    out = tmp_path / "survey.json"
    code = run_cli(["survey", "--field", BM_SPEC, "--which", "e", "--x0", "0",
                    "--seeds", "0,0,0;1,1,0", "--step", "0.01", "--s-max", "10",
                    "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    ws = report["survey"]["witnesses"]
    assert len(ws) == 2
    assert all(abs(w["period"] - 2 * math.pi) < 1e-4 for w in ws)
    assert all(w["winding"] == [1, 0, 0] for w in ws)


def test_survey_meta_counts_dedup_and_no_meta_strips_it(tmp_path):
    # (1, 0, 0) lies on the line of (0, 0, 0) and merges with it; the first
    # point of (1, 1, 0) rejects its pair
    common = ["survey", "--field", BM_SPEC, "--which", "e", "--x0", "0",
              "--seeds", "0,0,0;1,0,0;1,1,0", "--step", "0.01", "--s-max", "10"]
    with_meta, bare = tmp_path / "meta.json", tmp_path / "bare.json"
    assert run_cli([*common, "--out", str(with_meta)]) == 0
    assert run_cli([*common, "--no-meta", "--out", str(bare)]) == 0
    report = json.loads(with_meta.read_text())
    assert report["survey"]["unique_orbits"] == [0, 2]
    assert report["meta"]["dedup"] == {"pairs_compared": 2, "first_point_rejects": 1,
                                       "fallback_points": 0}
    del report["meta"]
    assert bare.read_text() == json.dumps(report, indent=2, sort_keys=True) + "\n"


# s_max / step = 100 lockstep steps; the second seed leaves the solid torus on its
# 9th step, which it computes but does not commit.  An RK4 step runs 4 stages of
# the flow's numpy operations and 13 of its own: 4 * 32 + 13 on the solid torus
_SOLID_TORUS_RUN = (["--field", "solid_torus_mode", "--seeds", "0.5,4,5;0.9,2,1",
                     "--step", "0.05", "--s-max", "5"],
                    {"lockstep_steps": 100, "seed_steps": 109, "wrap": False, "step_ops": 141})


@pytest.mark.parametrize("command, args, integration", [
    pytest.param("survey", *_SOLID_TORUS_RUN, id="survey"),
    pytest.param("trace", *_SOLID_TORUS_RUN, id="trace"),
    # the survey whose counts CI reports: a t3 stage is 1 term product, 2 sums, 2 cos,
    # 2 amplitude products, the table and its 3 columns, so 4 * 11 + 13 operations
    pytest.param("survey", ["--field", "t3_mode", "--seeds", "0,0,0", "--s-max", "10"],
                 {"lockstep_steps": 1000, "seed_steps": 1000, "wrap": False, "step_ops": 57},
                 id="ci-t3-survey"),
])
def test_meta_counts_rk4_steps_and_no_meta_strips_them(tmp_path, command, args, integration):
    common = [command, *args]
    with_meta, bare = tmp_path / "meta.json", tmp_path / "bare.json"
    assert run_cli([*common, "--out", str(with_meta)]) == 0
    assert run_cli([*common, "--no-meta", "--out", str(bare)]) == 0
    report = json.loads(with_meta.read_text())
    assert report["meta"]["integration"] == integration
    del report["meta"]
    assert bare.read_text() == json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_surveys_that_differ_in_amplitude_compile_one_rk4_step(tmp_path):
    # c and e0 are globals of the generated flow, not literals of its source (an e0
    # of 1 would be another structure: the product by 1 is folded away)
    from bmkit import forms

    forms._flow_code.cache_clear()
    for c, e0 in (("0.8", "2.0"), ("1.3", "0.5")):
        assert run_cli(["survey", "--field", f"beltrami_maxwell{{v=t3_mode{{n=1,c={c}}},e0={e0}}}",
                        "--seeds", "0,0,0;1,2,0.5", "--s-max", "2",
                        "--out", str(tmp_path / "s.json")]) == 0
    info = forms._flow_code.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_survey_beltrami_form_closes(tmp_path):
    out = tmp_path / "survey.json"
    code = run_cli(["survey", "--field", "t3_mode{n=1,c=1}", "--seeds", "0,0,0",
                    "--s-max", "10", "--out", str(out)])
    assert code == 0
    (res,) = json.loads(out.read_text())["survey"]["results"]
    assert res["closed"] and res["winding"] == [1, 0, 0]
    assert abs(res["period_estimate"] - 2 * math.pi) < 1e-4


def test_reeb_csv_output(tmp_path):
    out = tmp_path / "reeb.csv"
    code = run_cli(["reeb", "--field", BM_SPEC, "--which", "y0",
                    "--x0", "0.785398", "--grid", "3", "--out", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x1", "x2", "x3", "Y_x1", "Y_x2", "Y_x3"]
    assert len(rows) == 28  # 3^3 + header


@pytest.mark.parametrize("spec, which", [(BM_SPEC, "y1"), ("t3_mode", "y"),
                                         ("solid_torus_mode", "z")])
@pytest.mark.parametrize("grid", ["6", "3,4,5"])
def test_reeb_residuals_are_those_of_the_written_grid(spec, which, grid, tmp_path, capsys):
    from bmkit.cli import build_field
    from bmkit.reeb import normalization_residuals
    out = tmp_path / "reeb.csv"
    assert run_cli(["reeb", "--field", spec, "--which", which, "--x0", "0.3",
                    "--grid", grid, "--out", str(out)]) == 0
    err = capsys.readouterr().err
    target = build_field(spec, bmkit.NONDIMENSIONAL)
    chart = getattr(target, "chart3", None) or target.chart
    grid = bmkit.SampleGrid.regular(chart, [int(c) for c in grid.split(",")])
    if spec == BM_SPEC:
        rb = bmkit.reeb_for_maxwell(target, "Y1", 0.3, grid)
    else:
        rb = bmkit.reeb_closed_form_beltrami(
            target, "normalized" if which == "y" else "unnormalized", grid)
    r_omega, r_lam = normalization_residuals(rb.Y, rb.pair, grid)
    assert err == (f"wrote {out}; residuals: |i_Y Omega| <= {r_omega:.3e}, "
                   f"|i_Y lambda - 1| <= {r_lam:.3e}\n")


@pytest.mark.parametrize("spec, default", [("t3_mode", "y"), (BM_SPEC, "y0")])
def test_reeb_which_defaults_by_target_kind(spec, default, tmp_path, capsys):
    runs = []
    for which in ([], ["--which", default]):
        out = tmp_path / f"reeb{len(runs)}.csv"
        assert run_cli(["reeb", "--field", spec, *which, "--x0", "0.3", "--grid", "4",
                        "--out", str(out)]) == 0
        runs.append((out.read_bytes(), capsys.readouterr().err.replace(str(out), "OUT")))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("spec, which, line", [
    ("t3_mode", "y0", "error: for Beltrami forms --which must be y or z"),
    ("t3_mode", "y1", "error: for Beltrami forms --which must be y or z"),
    (BM_SPEC, "y", "error: for Maxwell fields --which must be y0 or y1"),
    (BM_SPEC, "z", "error: for Maxwell fields --which must be y0 or y1"),
])
def test_reeb_which_of_the_other_target_kind_exits_2(spec, which, line, tmp_path, capsys):
    out = tmp_path / "never.csv"
    assert run_cli(["reeb", "--field", spec, "--which", which, "--out", str(out)]) == 2
    assert capsys.readouterr().err == line + "\n"
    assert not out.exists()


def test_reeb_degenerate_instant_exit_2():
    assert run_cli(["reeb", "--field", BM_SPEC, "--which", "y0",
                    "--x0", str(0.5 * math.pi), "--out", "/tmp/never.csv"]) == 2


@pytest.mark.parametrize("argv,line", [
    # ConfigError
    (["verify", "--field", "nope"],
     r"error: unknown catalog entry 'nope'; known: abc_flow, beltrami_maxwell, "
     r"beltrami_nonparallel, constant_field, parallel_nonbeltrami, "
     r"solid_torus_mode, t3_mode, traveling_wave"),
    # DegenerateInstantError keeps its prefix
    (["reeb", "--field", BM_SPEC, "--which", "y0", "--x0", str(0.5 * math.pi)],
     r"error: degenerate instant: Y0: defining 1-form vanishes at "
     r"x0 = 1\.5707963267948966 \(max \|lambda\| = 6\.123e-17, "
     r"window amplitude 3\.429e-01\)"),
    # SingularFieldError, a plain BmkitError
    (["reeb", "--field", "abc_flow", "--which", "y"],
     r"error: abc_flow: form vanishes on the sample grid \(min norm\^2 = \d\.\d{3}e-\d+\)"),
    # DegeneratePointError: e and B are orthogonal, so (B, e) has no Reeb field
    (["reeb", "--field", "beltrami_nonparallel", "--which", "y0", "--x0", "0.3", "--grid", "4"],
     r"error: lambda \. Omega# vanishes: \(Omega, lambda\) has no Reeb field "
     r"\(angle 0\.000e\+00 at \[0\.0, 0\.0, 0\.0\]\)"),
    # a BmkitError of a parameter: an all-zero field is rejected, not checked vacuously;
    # a message that starts with the entry's name is not prefixed with it again
    (["verify", "--field", "parallel_nonbeltrami{e0=0}"],
     r"error: parallel_nonbeltrami needs e0 > 0"),
    (["verify", "--field", "beltrami_maxwell{e0=0}"], r"error: beltrami_maxwell needs e0 > 0"),
    (["verify", "--field", "t3_mode{n=0}"], r"error: t3_mode needs n >= 1"),
    # a MemoryError: numpy refuses the 7 PiB of 10^15 instants before it allocates any
    (["verify", "--field", "beltrami_maxwell", "--grid", "4", "--tgrid", "1000000000000000"],
     r"error: Unable to allocate 7\.11 PiB for an array with shape \(1000000000000000,\) "
     r"and data type float64"),
])
def test_errors_exit_2_with_one_stderr_line(argv, line, tmp_path, capsys):
    out = tmp_path / "never.csv"
    assert run_cli(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(line + "\n", captured.err)
    assert not out.exists()


@pytest.mark.parametrize("name", ["t3_mode", "solid_torus_mode"])
def test_nested_bare_name_is_the_empty_spec(name, capsys):
    runs = []
    for v in (name, name + "{}"):
        code = run_cli(["verify", "--field", f"beltrami_maxwell{{v={v}}}", "--grid", "4",
                        "--tgrid", "2", "--no-meta", "--stdout-json"])
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["config"].pop("field") == f"beltrami_maxwell{{v={v}}}"
        runs.append((code, report, captured.err))
    assert runs[0] == runs[1]
    assert runs[0][1]["summary"]["n_checks"] > 0


def test_cli_as_subprocess():
    # entry point behaves identically when spawned as a process; the child
    # imports the same bmkit as this process, installed or not
    src = os.path.dirname(os.path.dirname(bmkit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "bmkit.cli", "catalog"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "t3_mode" in proc.stdout


MAXWELL_FIELDS = ["beltrami_maxwell", "beltrami_maxwell{v=abc_flow{A=2,B=1,C=0.5}}",
                  "beltrami_maxwell{v=solid_torus_mode}", "traveling_wave", "constant_field",
                  "parallel_nonbeltrami", "beltrami_nonparallel"]


def _alone_reports(M, x0_list, counts, tgrid, t_window):
    """The reports of `bmk verify --checks all --allow-degenerate`, each verifier run alone."""
    from bmkit import (CheckReport, DegenerateInstantError, DegeneratePointError, SampleGrid,
                       beltrami_residual, conservation_along, constitutive_residuals,
                       contact_margin, maxwell_residuals, parallel_check, reeb_for_maxwell,
                       shs_check, symplectic_margin)
    from bmkit.reeb import DEGENERACY_TOL, NO_REEB_FIELD

    grid3 = SampleGrid.regular(M.chart3, counts)
    t_values = np.unique(np.concatenate(
        [np.linspace(x0 - t_window, x0 + t_window, tgrid) for x0 in x0_list]))
    grid4 = grid3.with_time(M.chart4, t_values)
    amp = {n: getattr(M, n).max_abs(grid4.points) for n in "ehBD"}
    reports = {r.check: r.to_json_dict() for r in (
        maxwell_residuals(M, grid4), constitutive_residuals(M, grid4),
        parallel_check(M, grid4),
        symplectic_margin(M.F0, grid4, companion=(M.B, M.e), label="F0"),
        symplectic_margin(M.F1, grid4, companion=(M.D, M.h), label="F1"))}
    if M.base is not None:
        reports["beltrami"] = beltrami_residual(
            M.base.form, M.base.k_expected, M.base.metric, grid3).to_json_dict()
    skipped = {}
    for x0 in x0_list:
        sl = M.at_time(x0)
        at = f"@x0={x0:.6g}"
        slice_reports = {
            "contact_e": contact_margin(sl.e, grid3, zero_scale=amp["e"]),
            "contact_h": contact_margin(sl.h, grid3, zero_scale=amp["h"]),
            "shs_be": shs_check(sl.B, sl.e, grid3, zero_scales=(amp["B"], amp["e"])),
            "shs_dh": shs_check(sl.D, sl.h, grid3, zero_scales=(amp["D"], amp["h"]))}
        for name, which, forms, names in (
                ("conservation_y0", "Y0", [sl.e, sl.B], ["e", "B"]),
                ("conservation_y1", "Y1", [sl.h, sl.D], ["h", "D"])):
            try:
                Y = reeb_for_maxwell(M, which, x0, grid3, grid4).Y
            except DegenerateInstantError as exc:
                skipped[name + at] = str(exc)
                continue
            except DegeneratePointError as exc:   # no Reeb field: a FAIL at the worst point
                slice_reports[name] = CheckReport(
                    "conservation", False, 0.0, exc.margin, {"margin": DEGENERACY_TOL},
                    [exc.witness], grid3.spec, {"reason": NO_REEB_FIELD})
                continue
            slice_reports[name] = conservation_along(
                Y, [*forms, *sl.energy_forms()], grid3, [*names, "E_e", "E_h"])
        for name, r in slice_reports.items():
            reports[name + at] = {**r.to_json_dict(), "check": name + at}
    return reports, skipped


@pytest.mark.parametrize("constants", ["nondim", "si"])
@pytest.mark.parametrize("field", MAXWELL_FIELDS)
def test_verify_reports_equal_each_verifier_run_alone(field, constants, tmp_path):
    """One batch for every check of a command gives each check's report bit for bit as
    its public verifier alone, at a generic instant and one where h vanishes."""
    out = tmp_path / "r.json"
    assert run_cli(["verify", "--field", field, "--constants", constants, "--x0", "0",
                    "--x0", "0.7", "--checks", "all", "--allow-degenerate", "--grid", "4",
                    "--tgrid", "3", "--no-meta", "--out", str(out)]) in (0, 1)
    report = json.loads(out.read_text())
    M = build_field(field, bmkit.SI if constants == "si" else NONDIMENSIONAL)
    want, skipped = _alone_reports(M, [0.0, 0.7], 4, 3, 0.35)
    assert {c["check"]: c for c in report["checks"]} == want
    assert {s["check"]: s["reason"] for s in report["skipped"]} == skipped


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc malloc and ru_minflt")
def test_main_keeps_freed_value_arrays_on_the_heap():
    """After `main`, a command's freed 320 KB value arrays are reused without page faults.

    In a fresh process glibc maps such arrays or trims them off the heap top once
    freed, so each round faults its pages in again.
    """
    code = (
        "import resource, numpy as np\n"
        "from bmkit.cli import main\n"
        "main(['catalog'])\n"
        "faults = []\n"
        "for _ in range(20):\n"
        "    f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    a = np.ones(40_000)\n"
        "    b = a * 2.0\n"
        "    c = a + b\n"
        "    del a, b, c\n"
        "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)\n"
        "print(sum(faults[2:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        os.path.join(os.path.dirname(__file__), os.pardir, "src"), os.environ.get("PYTHONPATH")])))
    env = {k: v for k, v in env.items() if not k.startswith("MALLOC_")}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert int(out.split()[-1]) < 20
