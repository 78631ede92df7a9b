import json
import math
import os
import pathlib
import shlex

import numpy as np
import pytest

from rigidori.cli import build_parser, run, write_obj
from rigidori.embedding import FoldedMesh

PI = math.pi


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_classify_fig6_vertex(capsys):
    code, data = run_json(capsys, ["classify", "--alphas", "45,90,45,90", "--degrees"])
    assert code == 0
    assert data["curvature"] == "elliptic" and data["flat_foldable"] is False
    assert data["meta"]["tool"] == "rigidori" and "config" in data["meta"]


def test_dual_in_input_units(capsys):
    code, data = run_json(capsys, ["dual", "--alphas", "45,90,45,90", "--degrees"])
    assert code == 0
    assert data["alphas"] == pytest.approx([135.0, 90.0, 135.0, 90.0], abs=1e-12)
    assert data["units"] == "degrees"


def test_modes_constants(capsys):
    code, data = run_json(
        capsys, ["modes", "--alphas", "45,90,135,90", "--degrees", "--samples", "5"]
    )
    assert code == 0
    assert data["k1"] == pytest.approx(math.tan(PI / 8), abs=1e-12)
    assert data["k2"] == pytest.approx(-math.tan(PI / 8), abs=1e-12)
    assert len(data["curves"]["mode1"]) == 5


def test_solve_and_oracle(capsys):
    code, data = run_json(
        capsys,
        ["solve", "--alphas", "45,90,45,90", "--degrees",
         "--driver-index", "3", "--driver", "90", "--branch", "pp"],
    )
    assert code == 0
    assert abs(abs(data["rhos"][0]) - PI / 2) < 1e-9
    assert data["residual"] < 1e-9

    code, data = run_json(
        capsys,
        ["oracle", "--alphas", "45,90,135,90", "--degrees",
         "--driver-index", "1", "--driver", "60",
         "--guess", "60,-20,60,20"],
    )
    assert code == 0 and data["converged"]


def test_range_and_trace_csv(capsys, tmp_path):
    code, data = run_json(
        capsys,
        ["range", "--alphas", "45,90,135,90", "--degrees",
         "--driver-index", "1", "--branch", "pm"],
    )
    assert code == 0
    assert data["intervals"][0] == pytest.approx([-PI, PI], abs=1e-8)

    out = tmp_path / "curve.csv"
    code = run(
        ["trace", "--alphas", "45,90,135,90", "--degrees",
         "--driver-index", "1", "--branch", "pm",
         "--samples", "9", "--step-max", "0.05", "--output", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# rigidori")
    assert lines[1] == "driver_index,branch,rho1,rho2,rho3,rho4,residual"
    assert len(lines) >= 11
    row = lines[2].split(",")
    assert row[0] == "1" and row[1] == "pm"
    assert float(row[6]) < 1e-9


def test_verify_duality_cli(capsys):
    code, data = run_json(
        capsys,
        ["verify-duality", "--alphas", "45,90,45,90", "--degrees",
         "--driver-index", "3", "--samples", "9", "--step-max", "0.05"],
    )
    assert code == 0
    assert data["max_abs_rho_mismatch"] < 1e-6
    assert data["sign_pattern_ok"] is True


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def test_verify_duality_failure_exits_1_with_strict_json(capsys):
    # a vertex outside the realizable region: no branch traces
    code = run(["verify-duality", "--alphas", "1.6032,2.8058,0.5952,2.8008",
                "--samples", "9", "--step-max", "0.05"])
    out = capsys.readouterr()
    assert code == 1
    data = _strict_json(out.out)
    assert data["branches"] == []
    assert data["max_abs_rho_mismatch"] is None and data["sign_pattern_ok"] is False
    assert out.err.count("\n") == 1 and "no branch" in out.err


@pytest.mark.parametrize(
    "mismatch, signs_ok, reason",
    [(math.inf, True, "closure"), (1e-12, False, "one-pair-flipped")],
)
def test_verify_duality_failed_branch_exits_1(capsys, monkeypatch, mismatch, signs_ok, reason):
    from rigidori import cli
    from rigidori.kinematics import BRANCH_PP, DualityBranchReport, DualityReport

    def fake(v, *args):
        return DualityReport(v, (DualityBranchReport(BRANCH_PP, 1, 9, mismatch, signs_ok),))

    monkeypatch.setattr(cli, "verify_duality", fake)
    code = run(["verify-duality", "--alphas", "45,90,45,90", "--degrees"])
    out = capsys.readouterr()
    assert code == 1
    data = _strict_json(out.out)
    expect = mismatch if math.isfinite(mismatch) else None
    assert data["max_abs_rho_mismatch"] == expect
    assert data["branches"][0]["max_abs_rho_mismatch"] == expect
    assert out.err.count("\n") == 1 and reason in out.err


def test_combine_and_split(tmp_path, capsys):
    out = tmp_path / "combined.obj"
    code = run(
        ["combine", "--alphas", "45,90,45,90", "--degrees",
         "--theta", "90", "--variant", "parallel", "--output", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert sum(1 for l in lines if l.startswith("f ")) == 8

    code, data = run_json(
        capsys,
        ["split", "--alphas", "45,90,45,90", "--degrees", "--theta", "90"],
    )
    assert code == 0
    assert data["v1"]["alphas"] == pytest.approx(
        [PI / 4, PI / 2, 3 * PI / 4, PI / 2], abs=1e-12
    )


def test_sheet_stack_auxetic(tmp_path):
    obj = tmp_path / "sheet.obj"
    code = run(
        ["sheet", "--alphas", "45,90,135,90", "--degrees",
         "--rows", "1", "--cols", "1", "--rho", "1.0", "--output", str(obj)]
    )
    assert code == 0 and obj.exists()

    code = run(
        ["stack", "--alphas", "45,90,135,90", "--degrees",
         "--rows", "1", "--cols", "2", "--layers", "2", "--rho", "1.0",
         "--output", str(tmp_path / "stack.obj")]
    )
    assert code == 0

    csv = tmp_path / "aux.csv"
    code = run(
        ["auxetic", "--alphas", "45,90,135,90", "--degrees",
         "--rows", "1", "--cols", "1", "--layers", "2",
         "--samples", "4", "--output", str(csv)]
    )
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[1] == "rho,bbox_x,bbox_y,bbox_z,regime"
    assert len(lines) == 6


def test_rotated_one_column_stack_writes_the_library_layers(tmp_path):
    from rigidori.tessellation import build_square_twist_sheet, stack_complex
    from rigidori.vertex import Vertex4

    alphas = (PI / 4, PI / 2, 3 * PI / 4, PI / 2)
    obj = tmp_path / "stack.obj"
    code = run(
        ["stack", "--alphas", ",".join(map(repr, alphas)),
         "--rows", "5", "--cols", "1", "--layers", "3", "--variant", "rotated",
         "--rho", "1.0", "--output", str(obj)]
    )
    assert code == 0
    cx = stack_complex(build_square_twist_sheet(Vertex4(alphas), 5, 1), 3, 1.0, "rotated")
    written = [
        [float(x) for x in line.split()[1:]]
        for line in obj.read_text().splitlines() if line.startswith("v ")
    ]
    # %.17g round-trips every double, so the layers come back exactly
    assert np.array_equal(np.array(written), np.concatenate([m.vertices for m in cx.meshes]))


@pytest.mark.parametrize("variant", ["parallel", "rotated"])
def test_stack_obj_is_the_concatenated_layer_mesh(tmp_path, variant):
    from rigidori.tessellation import build_square_twist_sheet, stack_complex
    from rigidori.vertex import Vertex4

    alphas = (PI / 4, PI / 2, 3 * PI / 4, PI / 2)
    obj = tmp_path / "stack.obj"
    code = run(
        ["stack", "--alphas", ",".join(map(repr, alphas)), "--rows", "3", "--cols", "2",
         "--layers", "3", "--variant", variant, "--rho", "1.0", "--output", str(obj)]
    )
    assert code == 0
    cx = stack_complex(build_square_twist_sheet(Vertex4(alphas), 3, 2), 3, 1.0, variant)
    offsets = np.cumsum([0] + [len(m.vertices) for m in cx.meshes]).tolist()
    faces = tuple(tuple(i + o for i in f) for m, o in zip(cx.meshes, offsets) for f in m.faces)
    whole = FoldedMesh(np.concatenate([m.vertices for m in cx.meshes]), faces)
    layers, concatenated = tmp_path / "layers.obj", tmp_path / "whole.obj"
    write_obj(cx.meshes, str(layers))
    write_obj((whole,), str(concatenated))
    assert layers.read_bytes() == concatenated.read_bytes()
    # the command writes the same body after its header line
    assert obj.read_bytes().split(b"\n", 1)[1] == concatenated.read_bytes()


def test_degrees_flag_leaves_radian_defaults_alone(tmp_path):
    csv = tmp_path / "a.csv"
    code = run(
        ["auxetic", "--alphas", "45,90,135,90", "--degrees",
         "--rows", "1", "--cols", "1", "--layers", "2",
         "--samples", "3", "--output", str(csv)]
    )
    assert code == 0
    first = float(csv.read_text().splitlines()[2].split(",")[0])
    assert first == pytest.approx(0.05 * PI, abs=1e-12)
    # explicitly supplied sweep bounds are converted
    code = run(
        ["auxetic", "--alphas", "45,90,135,90", "--degrees",
         "--rows", "1", "--cols", "1", "--layers", "2",
         "--rho-min", "10", "--rho-max", "80",
         "--samples", "3", "--output", str(csv)]
    )
    assert code == 0
    first = float(csv.read_text().splitlines()[2].split(",")[0])
    assert first == pytest.approx(math.radians(10), abs=1e-12)


def test_frame_sequence_export(tmp_path):
    # a dot in a directory name is not the file's extension
    for output in ("anim.obj", "out.d/anim"):
        target = tmp_path / output
        target.parent.mkdir(exist_ok=True)
        code = run(
            ["sheet", "--alphas", "45,90,135,90", "--degrees",
             "--rows", "1", "--cols", "1", "--frames", "3",
             "--output", str(target)]
        )
        assert code == 0
        names = sorted(os.listdir(target.parent))
        assert names == ["anim_000.obj", "anim_001.obj", "anim_002.obj"]


def test_obj_single_plate_and_determinism(tmp_path):
    mesh = FoldedMesh(
        ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (0.0, 1.0, 0.0)),
        ((0, 1, 2, 3),),
    )
    p1, p2 = tmp_path / "a.obj", tmp_path / "b.obj"
    write_obj((mesh,), str(p1))
    write_obj((mesh,), str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert sum(1 for l in lines if l.startswith("v ")) == 4
    assert sum(1 for l in lines if l.startswith("f ")) == 1
    assert lines[-1] == "f 1 2 3 4"


def test_obj_vertex_lines_match_per_value_formatting(tmp_path):
    pts = (
        (-0.0, 0.0, 0.0), (2.0, 0.0, -0.0), (2.0, 3.0, 0.0), (0.1, 1 / 3, 0.0),
        (5e-324, 1e300, -7.0), (-2.5e-7, -1e300, 123456789.0), (-1.0, 0.5, 0.0),
    )
    faces = ((0, 1, 2, 3), (0, 4, 5), (0, 1, 2, 3, 6))
    path = tmp_path / "m.obj"
    write_obj((FoldedMesh(pts, faces),), str(path))
    expect = [f"v {x:.17g} {y:.17g} {z:.17g}" for x, y, z in pts]
    expect += ["f " + " ".join(str(i + 1) for i in f) for f in faces]
    assert path.read_bytes() == ("\n".join(expect) + "\n").encode()
    assert expect[0] == "v -0 0 0"
    assert expect[4] == "v 4.9406564584124654e-324 1.0000000000000001e+300 -7"


def test_obj_merged_crease_shared_indices(tmp_path):
    out = tmp_path / "cv.obj"
    code = run(
        ["combine", "--alphas", "45,90,45,90", "--degrees",
         "--theta", "90", "--output", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    faces = [l.split()[1:] for l in lines if l.startswith("f ")]
    counts = {}
    for f in faces:
        for a, b in zip(f, f[1:] + f[:1]):
            key = tuple(sorted((a, b)))
            counts[key] = counts.get(key, 0) + 1
    assert sorted(c for c in counts.values() if c > 2) == [4, 4]


def test_vertex_json_input_round_trip(tmp_path, capsys):
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"alphas": [0.3, 1.2, 2.0, 0.9], "units": "radians"}))
    code, data = run_json(capsys, ["dual", "--vertex-json", str(path)])
    assert code == 0
    assert data["alphas"] == pytest.approx(
        [PI - 0.3, PI - 1.2, PI - 2.0, PI - 0.9], abs=1e-15
    )


@pytest.mark.parametrize(
    "text",
    ['{"alphas": [0.3, 1.2', '{"alphas": ["a", 1, 1, 1]}', '{"alphas": 5}', '{"alphas": "1111"}'],
    ids=["invalid-json", "non-numeric-alpha", "alphas-not-a-list", "alphas-a-string"],
)
def test_malformed_vertex_json_is_a_domain_error(tmp_path, capsys, text):
    path = tmp_path / "v.json"
    path.write_text(text)
    assert run(["classify", "--vertex-json", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("rigidori: error: ") and "Traceback" not in err


def test_parser_is_built_once_and_runs_do_not_share_state(capsys):
    calls = [
        ["trace", "--alphas", "45,90,135,90", "--degrees",
         "--driver-index", "2", "--branch", "mp", "--samples", "9", "--step-max", "0.05"],
        ["classify", "--alphas", "1,2,1,2"],
        ["trace", "--alphas", "45,90,135,90", "--degrees", "--samples", "9"],
        ["modes", "--alphas", "45,90,135,90", "--degrees", "--samples", "3"],
    ]

    def alone(argv):
        build_parser.cache_clear()  # as in a fresh process
        return run(argv), capsys.readouterr()

    expected = [alone(argv) for argv in calls]
    parser = build_parser()
    together = [(run(argv), capsys.readouterr()) for argv in calls]
    assert build_parser() is parser
    assert together == expected


def test_domain_error_exit_code(capsys):
    # flat-foldable modes on a non-flat-foldable vertex is a domain error
    code = run(["modes", "--alphas", "45,90,45,90", "--degrees"])
    err = capsys.readouterr().err
    assert code == 1 and "error" in err


@pytest.mark.parametrize("argv, name", [
    (["verify-duality", "--samples", "9", "--residual-tol", "inf"], "residual_tol"),
    (["range", "--branch", "pp", "--residual-tol", "3"], "residual_tol"),
    (["trace", "--branch", "pp", "--step-max", "nan"], "trace_step_max"),
    (["verify-duality", "--samples", "9", "--step-max", "inf"], "trace_step_max"),
    (["trace", "--branch", "pp", "--step-max", "0"], "trace_step_max"),
])
def test_vacuous_tolerances_exit_1_with_the_input_error(capsys, argv, name):
    argv = [*argv, "--alphas", "1.0,1.3,1.1,1.7"]
    if name == "residual_tol":
        # the closure gate is fixed, so a vacuous value cannot even be passed:
        # the removed flag is a usage error (exit 2), not an input error
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --residual-tol" in capsys.readouterr().err
        return
    code = run(argv)
    out = capsys.readouterr()
    assert code == 1 and out.out == ""
    assert out.err.startswith(f"rigidori: error: {name} must be") and out.err.count("\n") == 1


COMMANDS = ("classify", "dual", "modes", "solve", "oracle", "range", "trace",
            "verify-duality", "combine", "split", "sheet", "stack", "auxetic")
REQUIRED = {"solve": ["--driver", "0.5"], "oracle": ["--driver", "0.5", "--guess", "0,0,0,0"],
            "combine": ["--theta", "1", "--output", "x.obj"], "split": ["--theta", "1"],
            "sheet": ["--output", "x.obj"], "stack": ["--output", "x.obj"]}


def test_removed_tolerance_flags_are_usage_errors(capsys):
    # the closure gate and the thresholds are fixed; --step-max belongs to
    # the two commands that trace
    parser = build_parser()
    assert "{" + ",".join(COMMANDS) + "}" in parser.format_usage()
    for command in COMMANDS:
        argv = [command, "--alphas", "1.0,1.3,1.1,1.7", *REQUIRED.get(command, [])]
        parser.parse_args(argv)
        flags = ["--residual-tol", "--angle-eps", "--solver-tol"]
        if command not in ("trace", "verify-duality"):
            flags.append("--step-max")
        for flag in flags:
            with pytest.raises(SystemExit) as exc:
                run([*argv, flag, "1e-3"])
            assert exc.value.code == 2, (command, flag)
            assert f"unrecognized arguments: {flag} 1e-3" in capsys.readouterr().err


def test_usage_error_exit_code(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["solve", "--alphas", "45,90,45,90"])  # missing --driver
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["classify"])  # no vertex given
    assert exc.value.code == 2
    sheet = ["--alphas", "45,90,135,90", "--degrees"]
    out = ["--output", str(tmp_path / "out.obj")]
    for argv in (
        ["auxetic", *sheet, "--samples", "2"],
        ["auxetic", *sheet, "--layers", "0"],
        ["auxetic", *sheet, "--rows", "0"],
        ["stack", *sheet, *out, "--layers", "0"],
        ["stack", *sheet, *out, "--cols", "0"],
        ["sheet", *sheet, *out, "--rows", "0"],
        ["sheet", *sheet, *out, "--pleat-length", "0"],
        ["sheet", *sheet, *out, "--pleat-length", "nan"],
        ["sheet", *sheet, *out, "--pleat-length", "inf"],
    ):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2, argv
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv", [
    ["sheet", "--rows", "0", "--output", "x.obj"],
    ["stack", "--cols", "0", "--output", "x.obj"],
    ["auxetic", "--rows", "0", "--output", "x.csv"],
])
def test_bad_counts_are_usage_errors_before_the_vertex_file_is_read(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--vertex-json", "missing.json"])
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv, message", [
    (["sheet", "--rows", "30000", "--cols", "30000", "--rho", "1.0"], "--rows: must be at most 120, got 30000"),
    (["stack", "--cols", "121"], "--cols: must be at most 120, got 121"),
    (["stack", "--layers", "17"], "--layers: must be at most 16, got 17"),
    (["auxetic", "--layers", "17"], "--layers: must be at most 16, got 17"),
    (["sheet", "--frames", "1001"], "--frames: must be at most 1000, got 1001"),
])
def test_sizes_over_their_ceiling_are_usage_errors_before_any_build(tmp_path, monkeypatch, capsys, argv, message):
    from rigidori import cli

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "build_square_twist_sheet", lambda *a: pytest.fail("a sheet was built"))
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--alphas", "45,90,135,90", "--degrees", "--output", "x.obj"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith(f"error: argument {message}") and "Traceback" not in err
    assert os.listdir(tmp_path) == []


def test_size_ceilings_are_accepted():
    args = build_parser().parse_args(["stack", "--alphas", "45,90,135,90", "--output", "x.obj", "--rows", "120",
                                      "--cols", "120", "--layers", "16", "--frames", "1000"])
    assert (args.rows, args.cols, args.layers, args.frames) == (120, 120, 16, 1000)


def test_json_output_file_holds_the_stdout_payload(capsys, tmp_path):
    argv = ["modes", "--alphas", "45,90,135,90", "--degrees", "--samples", "3"]
    code, printed = run_json(capsys, argv)
    out = tmp_path / "modes.json"
    assert code == 0 and run([*argv, "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    saved = json.loads(out.read_text())
    assert saved["meta"]["config"].pop("output") == str(out)
    assert saved == printed


def test_trace_csv_goes_to_stdout_without_output(capsys, tmp_path):
    argv = ["trace", "--alphas", "45,90,135,90", "--degrees", "--branch", "pm",
            "--samples", "9", "--step-max", "0.05"]
    assert run(argv) == 0
    printed = capsys.readouterr().out.splitlines()
    out = tmp_path / "curve.csv"
    assert run([*argv, "--output", str(out)]) == 0
    saved = out.read_text().splitlines()
    assert printed[0].startswith("# rigidori") and len(printed) >= 11
    assert printed[1:] == saved[1:]


@pytest.mark.parametrize("command", ["sheet", "stack"])
def test_obj_commands_require_output(command):
    with pytest.raises(SystemExit) as exc:
        run([command, "--alphas", "45,90,135,90", "--degrees"])
    assert exc.value.code == 2


def test_unwritable_output_and_missing_vertex_json_are_io_errors(capsys, tmp_path):
    missing = tmp_path / "no-such-dir"
    for argv in (
        ["classify", "--alphas", "45,90,45,90", "--degrees", "--output", str(missing / "c.json")],
        ["classify", "--vertex-json", str(missing / "v.json")],
    ):
        assert run(argv) == 1
        assert capsys.readouterr().err.startswith("rigidori: i/o error")
    assert not missing.exists()


def test_conflicting_vertex_sources_rejected():
    with pytest.raises(SystemExit) as exc:
        run(["classify", "--alphas", "1,1,1,1", "--vertex-json", "x.json"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["sheet", "stack"])
@pytest.mark.parametrize("frames", ["0", "-1"])
def test_frames_below_one_is_usage_error(tmp_path, command, frames):
    with pytest.raises(SystemExit) as exc:
        run([command, "--alphas", "45,90,135,90", "--degrees",
             "--frames", frames, "--output", str(tmp_path / "anim.obj")])
    assert exc.value.code == 2
    assert os.listdir(tmp_path) == []


def test_non_numeric_angles_are_usage_errors():
    with pytest.raises(SystemExit) as exc:
        run(["classify", "--alphas", "a,b,c,d"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["oracle", "--alphas", "45,90,135,90", "--degrees",
             "--driver", "60", "--guess", "60,x,60,20"])
    assert exc.value.code == 2


def test_modes_single_sample_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["modes", "--alphas", "45,90,135,90", "--degrees", "--samples", "1"])
    assert exc.value.code == 2


ELLIPTIC = ["--alphas", "45,90,45,90", "--degrees"]


@pytest.mark.parametrize("argv", [
    ["trace", *ELLIPTIC, "--samples", "1"],
    ["verify-duality", *ELLIPTIC, "--samples", "1"],
    ["combine", *ELLIPTIC, "--theta", "90", "--output", "c.obj", "--radius", "0"],
    ["combine", *ELLIPTIC, "--theta", "90", "--output", "c.obj", "--radius", "-1"],
    ["combine", *ELLIPTIC, "--theta", "90", "--output", "c.obj", "--arc-segments", "0"],
    # theta 9 rad is unreachable; the missing --output is reported before solving
    ["combine", *ELLIPTIC, "--theta", "9"],
    ["combine", *ELLIPTIC, "--theta", "90", "--output", "c.obj", "--radius", "inf"],
])
def test_bad_sample_and_mesh_options_are_usage_errors(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert os.listdir(tmp_path) == []


def _readme_block(heading):
    """The first fenced block after a README heading, with its info string."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    return readme.read_text().split(heading, 1)[1].split("```")[1]


def _readme_commands():
    """The argv of each command in the README's "Command line" block."""
    lines = _readme_block("## Command line").replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.strip()]


def test_readme_command_line_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert len(commands) == 13
    for argv in commands:
        assert run(argv) == 0, argv
        out = capsys.readouterr().out
        if argv[0] == "range":
            causes = {c for pair in json.loads(out)["endpoint_causes"] for c in pair}
            assert causes
            assert causes <= {"flat_folded_crease", "crease_through_zero", "driver_limit"}


def test_readme_library_example_runs(capsys):
    code = _readme_block("## Library example").removeprefix("python\n")
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    curvature, verdict = capsys.readouterr().out.splitlines()
    assert curvature == "Curvature.ELLIPTIC"
    assert verdict == "0.0 True"
    # the split range's longest interval is the first, [-pi, 0]
    drivers = namespace["curve"].drivers
    assert drivers[0] == -math.pi and drivers[-1] == 0.0
