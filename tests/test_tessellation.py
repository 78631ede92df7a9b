import math
import types
from collections import Counter

import numpy as np
import pytest

from rigidori import tessellation
from rigidori.closure import LoopEvaluator
from rigidori.errors import GluingError, InputError, MeshConsistencyError, RigidFoldabilityError
from rigidori.flatfold import MODE_1, MODE_2, fold_mode, mode_constants
from rigidori.numerics import rotation_about_axis
from rigidori.tessellation import (
    PATCH,
    PATCH_TREE,
    REGIME_2C1E,
    REGIME_3C,
    REGIME_OTHER,
    SquareTwistSheet,
    auxetic_sweep,
    build_square_twist_sheet,
    combined_vertex_multisets,
    fold_sheet,
    stack_complex,
)
from rigidori.tessellation import _crease_coefficients, _fold
from rigidori.vertex import Vertex4, dual

PI = math.pi
GEN = Vertex4((PI / 4, PI / 2, 3 * PI / 4, PI / 2))


def _twist(a: float) -> Vertex4:
    """The square-twist generator (a, pi/2, pi - a, pi/2)."""
    return Vertex4((a, PI / 2, PI - a, PI / 2))


def _positions(fs) -> dict:
    return dict(zip(fs.sheet.corners, fs.mesh.vertices))


def _crease_angles(fs) -> dict:
    return dict(zip(fs.sheet.creases, fs.rho.tolist()))


@pytest.fixture(scope="module")
def sheet22():
    return build_square_twist_sheet(GEN, 2, 2)


def test_unit_cell_has_four_interior_vertices():
    sheet = build_square_twist_sheet(GEN, 1, 1)
    assert len(sheet.vertices) == 4
    for rec in sheet.vertices.values():
        # each corner realizes the generator's sector multiset exactly
        assert sorted(sheet.generator.alphas) == sorted(GEN.alphas)


def test_every_interior_vertex_satisfies_kawasaki_exactly():
    sheet = build_square_twist_sheet(GEN, 1, 1)
    assert sheet.generator.kawasaki_defect() == 0.0


def test_pattern_tiles_by_translation(sheet22):
    # corresponding corners of adjacent cells differ by the constant
    # lattice vectors
    c = sheet22.corners
    lat_r = np.subtract(c[("P1", 1, 0)], c[("P1", 0, 0)])
    lat_u = np.subtract(c[("P1", 0, 1)], c[("P1", 0, 0)])
    for p in ("P1", "P2", "P3", "P4"):
        for i, j in ((0, 0), (0, 1)):
            assert np.allclose(
                np.subtract(c[(p, i + 1, j)], c[(p, i, j)]), lat_r, atol=1e-12
            )
        for i, j in ((0, 0), (1, 0)):
            assert np.allclose(
                np.subtract(c[(p, i, j + 1)], c[(p, i, j)]), lat_u, atol=1e-12
            )


def test_mv_assignment_structure():
    # every coefficient is exactly +-1 or +-k1, so each vertex row is one
    # of four, on every sheet size and twist angle
    sheets = [(a, build_square_twist_sheet(_twist(a), 12, 12)) for a in (PI / 4, 0.3, 1.2, math.radians(70))]
    sheets.append((0.6, build_square_twist_sheet(_twist(0.6), 3, 5, pleat_length=0.8)))
    for a, sheet in sheets:
        k1 = mode_constants(a, PI / 2).k1
        coefs = list(sheet.mv_coefficients.values())
        assert set(coefs) == {1.0, -1.0, k1, -k1}
        assert len(sheet.fold_plan.loop_creases) == 4
        # as many mountain (negative) as valley (positive) creases
        signs = Counter(np.sign(coefs).tolist())
        assert signs[-1.0] == signs[1.0]


def test_generator_must_be_flat_foldable_square_shape():
    with pytest.raises(InputError):
        build_square_twist_sheet(Vertex4((PI / 4, PI / 2, PI / 4, PI / 2)), 1, 1)
    with pytest.raises(InputError):
        # flat-foldable but no right-angle sector pair
        build_square_twist_sheet(Vertex4((0.6, 0.8, PI - 0.6, PI - 0.8)), 1, 1)


@pytest.mark.parametrize("pleat_length", [0.0, math.inf, math.nan])
def test_pleat_length_must_be_positive_and_finite(pleat_length):
    with pytest.raises(InputError, match="pleat_length"):
        build_square_twist_sheet(Vertex4((PI / 4, PI / 2, 3 * PI / 4, PI / 2)), 1, 1, pleat_length)


def test_flat_and_flat_folded_limits(sheet22):
    m0 = fold_sheet(sheet22, 0.0)
    assert np.ptp(m0.vertices[:, 2]) < 1e-12
    fold_sheet(sheet22, PI)  # flat-folded limit builds
    cx = stack_complex(sheet22, 3, PI)
    assert cx.bbox[2] < 1e-9


def test_interior_vertices_close_at_eleven_drivers(sheet22):
    for rho in np.linspace(-0.95 * PI, 0.95 * PI, 11):
        fs = _fold(sheet22, float(rho))
        assert fs.residuals.max() < 1e-9


def _assert_on_generator_modes(sheet: SquareTwistSheet, rho: float) -> None:
    """Every vertex of the folded sheet sits on its generator mode, driven
    by its own driver crease."""
    angles = _crease_angles(_fold(sheet, rho))
    assert list(angles) == list(sheet.creases)
    for name, rec in sheet.vertices.items():
        rhos = tuple(angles[k] for k in rec.creases)
        mode = MODE_2 if rec.mode == 2 else MODE_1
        drv = rhos[1] if rec.mode == 2 else rhos[0]
        expect = fold_mode(sheet.generator, mode, drv)
        assert max(abs(a - b) for a, b in zip(rhos, expect.rhos)) < 1e-12, (name, rho)


def test_local_states_match_generator_modes(sheet22):
    _assert_on_generator_modes(sheet22, 1.1)


def test_folded_periodicity(sheet22):
    pos = _positions(_fold(sheet22, 0.9))
    lat_r = pos[("P1", 1, 0)] - pos[("P1", 0, 0)]
    lat_u = pos[("P1", 0, 1)] - pos[("P1", 0, 0)]
    for p in ("P1", "P2", "P3", "P4"):
        for i, j in ((0, 0), (0, 1)):
            d = pos[(p, i + 1, j)] - pos[(p, i, j)]
            assert np.linalg.norm(d - lat_r) < 1e-8
        for i, j in ((0, 0), (1, 0)):
            d = pos[(p, i, j + 1)] - pos[(p, i, j)]
            assert np.linalg.norm(d - lat_u) < 1e-8


def test_propagation_conflict_detected(sheet22):
    import dataclasses

    broken_vertices = dict(sheet22.vertices)
    rec = broken_vertices[("P2", 0, 0)]
    broken_vertices[("P2", 0, 0)] = dataclasses.replace(rec, mode=2)
    broken = dataclasses.replace(sheet22, vertices=broken_vertices)
    with pytest.raises(RigidFoldabilityError, match="inconsistent .* crease"):
        _crease_coefficients(broken)
    # a crease of P1(0, 0) alone, to P2(-1, 0) on the boundary, has no row
    lonely = {n: rec for n, rec in sheet22.vertices.items() if n != ("P1", 0, 0)}
    with pytest.raises(RigidFoldabilityError, match="meets no interior vertex"):
        _crease_coefficients(dataclasses.replace(sheet22, vertices=lonely))
    # a = pi/2 zeroes k1 exactly: the creases it multiplies never fold
    with pytest.raises(RigidFoldabilityError, match="zero mode constant"):
        build_square_twist_sheet(Vertex4((PI / 2,) * 4), 1, 1)


def test_single_layer_stack_is_the_sheet(sheet22):
    cx = stack_complex(sheet22, 1, 1.0)
    assert cx.layers == 1 and len(cx.meshes) == 1 and not cx.glue_map


def test_two_layer_glue_rows_coincide(sheet22):
    cx = stack_complex(sheet22, 2, 1.0)
    assert cx.glue_residual < 1e-8
    assert cx.glue_map
    # connectivity: consecutive layers share a full crease row
    layers_touched = {la for (la, _), _ in cx.glue_map} | {
        lb for _, (lb, _) in cx.glue_map
    }
    assert layers_touched == {0, 1}


def test_glued_vertices_realize_combined_vertex(sheet22):
    # sector angles are measured in the folded, stacked layer meshes
    gen_ms = sorted(GEN.alphas)
    dual_ms = sorted(dual(GEN).alphas)
    for variant in ("parallel", "rotated"):
        cx = stack_complex(sheet22, 3, 1.0, variant=variant)
        pairs = combined_vertex_multisets(cx)
        assert len(pairs) == len(cx.glue_map) > 0
        for ms_a, ms_b in pairs:
            assert ms_a == pytest.approx(gen_ms, abs=1e-9)
            assert ms_b == pytest.approx(dual_ms, abs=1e-9)
    # the angles come from the meshes: an affine stretch of every layer
    # (faces stay planar) changes them
    import dataclasses

    stretch = np.diag([1.0, 2.0, 1.0])
    stretched = dataclasses.replace(cx, meshes=tuple(m.transformed(stretch) for m in cx.meshes))
    assert any(
        ms_a != pytest.approx(gen_ms, abs=1e-3)
        for ms_a, _ in combined_vertex_multisets(stretched)
    )


def test_rotated_variant_builds_and_flexes():
    # Fig-6-style construction: the elliptic vertex's rotated combination
    # splits into square-twist generators, whose sheets stack crosswise
    sheet = build_square_twist_sheet(GEN, 2, 2)
    for rho in (0.5, 0.8, 1.1, 1.4):
        cx = stack_complex(sheet, 2, rho, variant="rotated")
        assert cx.glue_residual < 1e-8


def _rigid_fit(src: np.ndarray, dst: np.ndarray):
    """Least-squares proper rigid motion (R, t) taking src onto dst."""
    cs, cd = src.mean(axis=0), dst.mean(axis=0)
    U, _, Vt = np.linalg.svd((src - cs).T @ (dst - cd))
    R = Vt.T @ np.diag([1.0, 1.0, np.sign(np.linalg.det(Vt.T @ U.T))]) @ U.T
    return R, cd - R @ cs


@pytest.mark.parametrize("rho", [0.5, 1.0, -2.0, 3.0])
def test_one_column_sheets_share_the_lattice_frame(sheet22, rho):
    # every sheet has the folded row translation, so a one-column sheet
    # carries the frame of a wider sheet of the same generator
    ref = stack_complex(sheet22, 1, rho).lattice_axes
    for rows, cols in ((1, 1), (2, 1), (5, 1)):
        axes = stack_complex(build_square_twist_sheet(GEN, rows, cols), 1, rho).lattice_axes
        assert np.abs(axes - ref).max() <= 1e-12
    # and its layers turn as the wider sheet's do, although its glued rows
    # are two points each
    narrow, wide = build_square_twist_sheet(GEN, 5, 1), build_square_twist_sheet(GEN, 5, 5)
    for variant in ("parallel", "rotated"):
        turns = [
            _rigid_fit(*(m.vertices for m in stack_complex(sheet, 2, rho, variant).meshes))[0]
            for sheet in (narrow, wide)
        ]
        assert np.abs(turns[0] - turns[1]).max() <= 1e-12


def test_layer_motion_is_the_least_squares_fit_of_the_glued_rows():
    gen = Vertex4((0.6, PI / 2, PI - 0.6, PI / 2))
    sheets = [build_square_twist_sheet(GEN, r, c) for r, c in ((2, 2), (1, 2), (12, 12))]
    sheets.append(build_square_twist_sheet(gen, 3, 5, pleat_length=0.8))
    for sheet in sheets:
        for variant in ("parallel", "rotated"):
            for rho in (-2.9, -0.6, 0.3, 1.0, 2.5):
                cx = stack_complex(sheet, 2, rho, variant)
                pos = _positions(_fold(sheet, rho))
                upper = np.array([pos[nb] for _, (_, nb) in cx.glue_map])
                lower = np.array([pos[na] for (_, na), _ in cx.glue_map])
                R, t = _rigid_fit(upper, lower)
                fitted = cx.meshes[0].vertices @ R.T + t
                assert np.abs(cx.meshes[1].vertices - fitted).max() <= 1e-12


def test_one_column_parallel_stack_glues_every_row_under_rounding_noise(monkeypatch):
    # positions a rounding step away from the exact fold must glue the
    # same rows: a two-point crease row does not fix a registration
    import dataclasses

    from rigidori.embedding import FoldedMesh

    sheet = build_square_twist_sheet(GEN, 5, 1)
    exact = tessellation._fold
    rng = np.random.default_rng(5)

    def noisy(sheet, major_rho):
        fs = exact(sheet, major_rho)
        m = fs.mesh
        scale = np.abs(m.vertices).max()
        pts = m.vertices + 1e-16 * scale * rng.standard_normal(m.vertices.shape)
        return dataclasses.replace(fs, mesh=FoldedMesh(pts, m.faces, m.face_index))

    monkeypatch.setattr(tessellation, "_fold", noisy)
    for rho in np.linspace(0.05 * PI, 0.95 * PI, 47):
        cx = stack_complex(sheet, 2, rho)
        assert len(cx.glue_map) == 2 * sheet.rows * sheet.cols
        assert cx.glue_residual <= 1e-8


def test_auxetic_regimes_windows(sheet22):
    rep = auxetic_sweep(sheet22, 3, 0.05 * PI, 0.45 * PI, 9)
    assert all(r == REGIME_2C1E for r in rep.regimes)
    rep2 = auxetic_sweep(sheet22, 3, 0.55 * PI, 0.95 * PI, 9)
    assert all(r == REGIME_3C for r in rep2.regimes)


def test_auxetic_flat_limit(sheet22):
    rep = auxetic_sweep(sheet22, 3, 1e-6, 0.2, 3)
    rho0, bx, by, bz = rep.samples[0]
    flat = stack_complex(sheet22, 3, 1e-9)
    assert bz < 1e-5
    assert abs(bx - flat.bbox[0]) < 1e-4 and abs(by - flat.bbox[1]) < 1e-4


def test_general_alpha_generator_folds():
    gen = Vertex4((0.6, PI / 2, PI - 0.6, PI / 2))
    sheet = build_square_twist_sheet(gen, 1, 2, pleat_length=0.8)
    fs = _fold(sheet, 0.7)
    assert fs.residuals.max() < 1e-9
    cx = stack_complex(sheet, 2, 0.7)
    assert cx.glue_residual < 1e-8


PLAN_DRIVERS = (0.0, 1e-9, -1e-9, 0.4, -1.3, 2.8, -3.1, PI, -PI)


@pytest.fixture(scope="module", params=["12x12", "3x5"])
def planned_sheet(request):
    if request.param == "12x12":
        return build_square_twist_sheet(GEN, 12, 12)
    return build_square_twist_sheet(_twist(0.6), 3, 5, pleat_length=0.8)


def test_fold_scales_frozen_coefficients(planned_sheet):
    # scaling the frozen coefficients puts every vertex on its generator
    # mode, through the flat state and out to the flat-folded limits
    for rho in PLAN_DRIVERS:
        _assert_on_generator_modes(planned_sheet, rho)


def test_placed_faces_keep_flat_lengths(planned_sheet):
    for rho in PLAN_DRIVERS:
        fs = _fold(planned_sheet, rho)
        pts = fs.mesh.vertices
        for names, idx in zip(planned_sheet.faces, fs.mesh.faces):
            flat = np.array([planned_sheet.corners[n] for n in names])
            folded = pts[list(idx)]
            # every edge and both diagonals: the plate moved rigidly
            for i in range(4):
                for j in range(i + 1, 4):
                    d0 = np.linalg.norm(flat[i] - flat[j])
                    assert abs(np.linalg.norm(folded[i] - folded[j]) - d0) < 1e-12


def test_fold_plan_belongs_to_its_sheet(sheet22):
    # a sheet built field by field folds like the built one, and a copy
    # made with dataclasses.replace builds its own plan
    import dataclasses

    fields = {f.name: getattr(sheet22, f.name) for f in dataclasses.fields(sheet22)}
    direct = SquareTwistSheet(**fields)
    assert fold_sheet(direct, 0.7) == fold_sheet(sheet22, 0.7)
    shifted = {n: (x + 1.0, y) for n, (x, y) in sheet22.corners.items()}
    moved = dataclasses.replace(sheet22, corners=shifted)
    assert moved.fold_plan is not sheet22.fold_plan
    a, b = fold_sheet(moved, 0.7).vertices, fold_sheet(sheet22, 0.7).vertices
    # folding commutes with translating the flat layout; a stale plan
    # would fold the old corners and leave the mesh where it was
    assert np.max(np.abs(a - b - [1.0, 0.0, 0.0])) < 1e-12


def _depth_first_positions(sheet: SquareTwistSheet, major_rho: float) -> dict:
    """Corner positions composed one face at a time down a depth-first
    face tree from face 0: a child face moves by its parent's map after
    turning by its crease's fold angle about the shared edge."""
    flat = {n: np.array([x, y, 0.0]) for n, (x, y) in sheet.corners.items()}
    coefs = sheet.mv_coefficients
    if abs(major_rho) == PI:
        rho = {k: math.copysign(PI, major_rho) * np.sign(c) for k, c in coefs.items()}
    else:
        rho = {k: 2.0 * math.atan(c * math.tan(0.5 * major_rho)) for k, c in coefs.items()}
    edge_faces: dict[frozenset, list[int]] = {}
    for fi, f in enumerate(sheet.faces):
        for a, b in zip(f, f[1:] + f[:1]):
            if frozenset((a, b)) in rho:
                edge_faces.setdefault(frozenset((a, b)), []).append(fi)
    maps = {0: (np.eye(3), np.zeros(3))}
    stack = [0]
    while stack:
        fi = stack.pop()
        R, t = maps[fi]
        f = sheet.faces[fi]
        for a, b in zip(f, f[1:] + f[:1]):
            key = frozenset((a, b))
            for fj in edge_faces.get(key, ()):
                if fj not in maps:
                    # the child lies right of a -> b: it turns by +rho about b -> a
                    axis = (flat[a] - flat[b]) / np.linalg.norm(flat[a] - flat[b])
                    Rh = rotation_about_axis(axis, rho[key])
                    maps[fj] = (R @ Rh, R @ (flat[b] - Rh @ flat[b]) + t)
                    stack.append(fj)
    out = {}
    for fi, f in enumerate(sheet.faces):
        R, t = maps[fi]
        for n in f:
            out.setdefault(n, R @ flat[n] + t)
    return out


def test_tiled_placement_matches_depth_first_composition():
    gen = Vertex4((0.6, PI / 2, PI - 0.6, PI / 2))
    sheets = [build_square_twist_sheet(GEN, r, c) for r, c in ((1, 1), (1, 5), (5, 1), (3, 4))]
    sheets.append(build_square_twist_sheet(gen, 3, 5, pleat_length=0.8))
    for sheet in sheets:
        for rho in PLAN_DRIVERS:
            ref = _depth_first_positions(sheet, rho)
            pos = _positions(_fold(sheet, rho))
            assert pos.keys() == ref.keys()
            worst = max(np.max(np.abs(pos[n] - p)) for n, p in ref.items())
            assert worst < 1e-12, (sheet.rows, sheet.cols, rho, worst)


def _reference_bbox(sheet: SquareTwistSheet, major_rho: float, layers: int) -> tuple:
    """The complex's block dimensions from depth-first positions, looked
    up by corner name: cell periods along rows and columns, and the rise
    P1(0, 0) -> P4(0, 0) along the first corner plate's normal."""
    pos = _depth_first_positions(sheet, major_rho)
    plate = [pos[n] for n in sheet.faces[sheet.face_kinds.index("corner")]]
    n3 = np.cross(plate[1] - plate[0], plate[3] - plate[0])
    n3 /= np.linalg.norm(n3)
    p0 = pos[("P1", 0, 0)]
    return (
        sheet.cols * np.linalg.norm(pos[("P1", 1, 0)] - p0),
        sheet.rows * np.linalg.norm(pos[("P1", 0, 1)] - p0),
        layers * abs(np.dot(pos[("P4", 0, 0)] - p0, n3)),
    )


def test_auxetic_sweep_matches_depth_first_reference(sheet22):
    for lo, hi in ((0.05 * PI, 0.45 * PI), (0.55 * PI, 0.95 * PI), (-PI, PI)):
        rep = auxetic_sweep(sheet22, 3, lo, hi, 9)
        ref = [(rho, *_reference_bbox(sheet22, rho, 3)) for rho, *_ in rep.samples]
        assert np.max(np.abs(np.subtract(rep.samples, ref))) < 1e-12
        # the regimes follow from the samples alone
        for regime, a, b in zip(rep.regimes, ref, ref[1:]):
            deltas = np.subtract(b[1:], a[1:])
            dec, inc = int(np.sum(deltas < 0)), int(np.sum(deltas > 0))
            assert regime == (REGIME_3C if dec == 3 else REGIME_2C1E if (dec, inc) == (2, 1) else REGIME_OTHER)


def test_fold_plan_arrays_are_read_only(sheet22):
    plan = sheet22.fold_plan
    arrays = list(vars(plan).values())
    assert all(isinstance(a, np.ndarray) for a in arrays)
    for a in arrays:
        with pytest.raises(ValueError):
            a.flat[0] = a.flat[0]
    # the patch tree places every patch face once, each parent before its
    # child, from the square of cell (0, 0)
    placed = {0}
    for child, parent in PATCH_TREE:
        assert parent in placed and child not in placed
        placed.add(child)
    assert placed == set(range(len(PATCH)))
    # every face's shifted corners coincide with its kind's cell-(0, 0)
    # face, and every corner's first slot lists that corner
    patch = [np.flatnonzero((plan.face_kind == k) & (plan.face_cell == (i, j)).all(axis=1)) for k, i, j in PATCH]
    assert all(len(f) == 1 for f in patch)
    assert np.max(np.abs(plan.local - plan.local[[patch[k][0] for k in plan.face_kind]])) < 1e-14
    assert plan.face_corners.ravel()[plan.first_slot].tolist() == list(range(len(sheet22.corners)))
    names = list(sheet22.corners)
    for j in range(sheet22.rows):
        assert [names[n] for n in plan.mountain_rows[j]] == sheet22.mountain_path(j)
        assert [names[n] for n in plan.valley_rows[j]] == sheet22.valley_path(j)


def _with_coefficient(sheet: SquareTwistSheet, c: int, factor: float) -> SquareTwistSheet:
    """A copy of the sheet with crease c's frozen coefficient scaled; the
    copy builds its own fold plan, distinct loops included."""
    import dataclasses

    key = sheet.creases[c]
    coefs = {**sheet.mv_coefficients, key: factor * sheet.mv_coefficients[key]}
    return dataclasses.replace(sheet, mv_coefficients=coefs)


def test_wrong_hinge_angle_fails(sheet22):
    # a patch hinge bends the tiling (corner spread or lattice rotation);
    # any other crease breaks its vertices' closure
    plan = sheet22.fold_plan
    for c in (*plan.patch_hinge.tolist(), len(plan.coef) // 2, len(plan.coef) - 1):
        with pytest.raises(MeshConsistencyError):
            _fold(_with_coefficient(sheet22, c, 1.01), 1.0)


@pytest.mark.parametrize("shape", ["1x1", "3x5", "12x12"])
def test_distinct_loops_give_every_vertex_its_own_residual(shape):
    rows, cols = map(int, shape.split("x"))
    gen = Vertex4((0.6, PI / 2, PI - 0.6, PI / 2)) if shape == "3x5" else GEN
    sheet = build_square_twist_sheet(gen, rows, cols)
    index = {key: c for c, key in enumerate(sheet.creases)}
    creases = np.array([[index[key] for key in rec.creases] for rec in sheet.vertices.values()])
    if shape == "12x12":
        assert len(sheet.fold_plan.loop_creases) < len(sheet.vertices)
    for rho in PLAN_DRIVERS:
        fs = _fold(sheet, rho)
        every = LoopEvaluator(sheet.generator).residuals(fs.rho[creases])
        assert fs.residuals.tobytes() == every.tobytes()


@pytest.mark.parametrize("shape", ["2x2", "12x12"])
def test_one_wrong_crease_fails_closure_at_its_vertex(shape, sheet22):
    # a crease outside the patch tree moves no face, so only the closure
    # certificate of its vertices can catch it, shared loops or not
    rows, cols = map(int, shape.split("x"))
    sheet = sheet22 if shape == "2x2" else build_square_twist_sheet(GEN, rows, cols)
    free = sorted(set(range(len(sheet.creases))) - set(sheet.fold_plan.patch_hinge.tolist()))
    for c in free if shape == "2x2" else free[len(free) // 2 :: len(free) // 4]:
        with pytest.raises(MeshConsistencyError, match="fails closure") as err:
            _fold(_with_coefficient(sheet, c, 1.01), 1.0)
        named = [n for n, rec in sheet.vertices.items() if f"vertex {n} fails" in str(err.value)]
        assert len(named) == 1 and sheet.creases[c] in sheet.vertices[named[0]].creases


def _counting_planarity(monkeypatch) -> list:
    """Record each _max_planarity call in the returned list."""
    from rigidori import embedding

    calls = []
    measure = embedding._max_planarity
    monkeypatch.setattr(embedding, "_max_planarity", lambda pts: calls.append(1) or measure(pts))
    return calls


def _face_sigma_min(mesh) -> float:
    """Largest smallest singular value of any face's centered corners."""
    q = mesh.vertices[mesh.face_index[4]]
    return float(np.linalg.svd(q - q.mean(axis=1, keepdims=True), compute_uv=False)[:, -1].max())


def test_stack_measures_no_face(sheet22, monkeypatch):
    calls = _counting_planarity(monkeypatch)
    for variant in ("parallel", "rotated"):
        cx = stack_complex(sheet22, 3, 1.0, variant)
        assert not calls and all(m.planarity < 1e-12 for m in cx.meshes)


@pytest.mark.parametrize("rho", [-3.0, -1.0, 0.3, 1.3, 3.0])
def test_carried_planarity_bounds_every_face(rho, monkeypatch):
    calls = _counting_planarity(monkeypatch)
    cx = stack_complex(build_square_twist_sheet(GEN, 12, 12), 3, rho, "rotated")
    assert not calls
    for mesh in cx.meshes:
        assert _face_sigma_min(mesh) <= mesh.planarity <= 1e-9


def _with_plan(sheet: SquareTwistSheet, **changes) -> SquareTwistSheet:
    """A copy of the sheet whose fold plan has the given fields replaced."""
    import dataclasses

    copy = dataclasses.replace(sheet)
    copy.__dict__["fold_plan"] = dataclasses.replace(sheet.fold_plan, **changes)
    return copy


def _corner_plates_moved(sheet: SquareTwistSheet, dx: float) -> SquareTwistSheet:
    """A copy of the sheet whose corner plates sit dx further along x; the
    other plates place their shared corners, so each spreads by dx."""
    plan = sheet.fold_plan
    local = plan.local.copy()
    local[plan.face_kind == tessellation.KINDS.index("corner"), :, 0] += dx
    return _with_plan(sheet, local=local)


def test_fold_plan_corners_lie_flat(sheet22):
    # a corner lifted off z = 0, even one that no other face shares and no
    # spread would reveal, is rejected before any fold could carry it
    plan = sheet22.fold_plan
    local = plan.local.copy()
    first_corner_plate = plan.face_kind.tolist().index(tessellation.KINDS.index("corner"))
    local[first_corner_plate, 2, 2] = 1e-15  # P3(-1, -1)
    with pytest.raises(MeshConsistencyError, match="z = 0"):
        _with_plan(sheet22, local=local)


def test_corner_spread_decides_carry_or_measure(sheet22, monkeypatch):
    # in the flat state a spread of dx adds sqrt(12) dx to the bound: at
    # 2e-10 it stays within 1e-9 and is carried, at 1e-9 it is not, and
    # the mesh is measured instead
    calls = _counting_planarity(monkeypatch)
    carried = _fold(_corner_plates_moved(sheet22, 2e-10), 0.0).mesh
    assert not calls and math.sqrt(12) * 2e-10 < carried.planarity <= 1e-9
    measured = _fold(_corner_plates_moved(sheet22, 1e-9), 0.0).mesh
    assert len(calls) == 1 and measured.planarity < 1e-12


def test_corner_spread_bound_is_1e_8(sheet22):
    _fold(_corner_plates_moved(sheet22, 0.99e-8), 0.0)
    with pytest.raises(MeshConsistencyError, match="corner spread 1.01"):
        _fold(_corner_plates_moved(sheet22, 1.01e-8), 0.0)


def test_glue_bound_is_1e_8(sheet22, monkeypatch):
    import dataclasses

    from rigidori.embedding import FoldedMesh

    exact = tessellation._fold
    valley = sheet22.fold_plan.valley_rows

    def shifted(sheet, major_rho):
        # flat, so a shift along x keeps every face planar
        fs = exact(sheet, major_rho)
        pts = fs.mesh.vertices.copy()
        pts[valley[1], 0] += miss
        return dataclasses.replace(fs, mesh=FoldedMesh(pts, fs.mesh.faces, fs.mesh.face_index))

    monkeypatch.setattr(tessellation, "_fold", shifted)
    miss = 0.99e-8
    assert stack_complex(sheet22, 2, 0.0).glue_residual == pytest.approx(miss, rel=1e-6)
    miss = 1.01e-8
    with pytest.raises(GluingError, match="crease row 1 misses its partner by 1.01"):
        stack_complex(sheet22, 2, 0.0)


def test_glue_map_is_built_once_per_variant_and_layers(sheet22):
    for variant in ("parallel", "rotated"):
        first = stack_complex(sheet22, 3, 1.0, variant).glue_map
        assert stack_complex(sheet22, 3, -0.5, variant).glue_map is first
        assert stack_complex(sheet22, 4, 1.0, variant).glue_map[: len(first)] == first


def test_rotated_lattice_step_does_not_tile(sheet22, monkeypatch):
    # pleat_v(1, 0) carries an extra 1e-6 rotation about the sheet normal
    e = [child for child, _ in PATCH_TREE].index(4)
    turn = rotation_about_axis([0.0, 0.0, 1.0], 1e-6)
    exact = tessellation.rotation_matrix_about_axis

    def injected(axis, angle):
        out = exact(axis, angle)
        out[e] = out[e] @ turn
        return out

    monkeypatch.setattr(tessellation, "rotation_matrix_about_axis", injected)
    with pytest.raises(MeshConsistencyError, match="rotational part"):
        _fold(sheet22, 1.0)


def test_generator_that_does_not_close_fails(sheet22):
    import dataclasses

    # still flat-foldable with right-angle sectors, but the frozen fold
    # angles no longer close its loops
    bent = Vertex4((PI / 4 + 1e-3, PI / 2, 3 * PI / 4 - 1e-3, PI / 2))
    with pytest.raises(MeshConsistencyError, match="fails closure"):
        _fold(dataclasses.replace(sheet22, generator=bent), 1.0)


def test_shifted_valley_row_does_not_glue(sheet22, monkeypatch):
    import dataclasses

    exact = tessellation._fold
    valley = sheet22.fold_plan.valley_rows

    def shifted(sheet, major_rho):
        fs = exact(sheet, major_rho)
        pts = fs.mesh.vertices.copy()
        pts[valley[row, 1:]] += shift  # the row's first corner stays
        # the shift bends the row's faces, so the points ride on a stand-in
        # for the mesh, which FoldedMesh would reject
        return dataclasses.replace(fs, mesh=types.SimpleNamespace(vertices=pts))

    monkeypatch.setattr(tessellation, "_fold", shifted)
    # the rotated variant glues row 0 alone, so row 1 is free to move; a
    # NaN misses by more than any bound
    both = ("parallel", "rotated")
    for row, shift, failing in ((0, 1e-6, both), (1, 1e-6, both[:1]), (1, math.nan, both[:1])):
        for variant in failing:
            with pytest.raises(GluingError, match=f"crease row {row} misses"):
                stack_complex(sheet22, 2, 1.0, variant=variant)


def test_folded_vertices_are_read_only(sheet22):
    fs = _fold(sheet22, 0.7)
    with pytest.raises(ValueError):
        fs.mesh.vertices[0, 0] = 1.0
