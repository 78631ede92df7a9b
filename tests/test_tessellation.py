import dataclasses
import hashlib
import math
import types
from collections import Counter

import numpy as np
import pytest

from rigidori import tessellation
from rigidori.closure import LoopEvaluator
from rigidori.embedding import _ray_angle
from rigidori.errors import GluingError, InputError, MeshConsistencyError, RigidFoldabilityError
from rigidori.flatfold import MODE_1, MODE_2, fold_mode, mode_constants
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
from rigidori.tessellation import _crease_coefficients, _fold, _patch_motion
from rigidori.vertex import Vertex4, dual
from rodrigues import rotation_about_axis

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
        coefs = sheet.fold_plan.coef.tolist()
        assert set(coefs) == {1.0, -1.0, k1, -k1}
        assert len(sheet.fold_plan.loop_creases) == 4
        # as many mountain (negative) as valley (positive) creases
        signs = Counter(np.sign(coefs).tolist())
        assert signs[-1.0] == signs[1.0]


def _reference_layout(sheet: SquareTwistSheet):
    """The sheet's layout spelled out by corner name: each plate kind over
    its cells, corners in order of first appearance, creases as the edges
    two faces share, and every interior vertex's star with its mode and
    closed-form coefficient row."""
    a, D = sheet.generator.alphas[0], sheet.pleat_length
    lat_r = np.array([1.0 + D * math.sin(a), -D * math.cos(a)])
    lat_u = np.array([D * math.cos(a), 1.0 + D * math.sin(a)])
    offs = {"P1": (0.0, 0.0), "P2": (1.0, 0.0), "P3": (1.0, 1.0), "P4": (0.0, 1.0)}

    def pos(name):
        p, i, j = name
        xy = i * lat_r + j * lat_u + np.array(offs[p])
        return (float(xy[0]), float(xy[1]))

    rows, cols = sheet.rows, sheet.cols
    plates = (
        (cols, rows, (("P1", 0, 0), ("P2", 0, 0), ("P3", 0, 0), ("P4", 0, 0))),
        (cols, rows + 1, (("P4", 0, -1), ("P3", 0, -1), ("P2", 0, 0), ("P1", 0, 0))),
        (cols + 1, rows, (("P2", -1, 0), ("P1", 0, 0), ("P4", 0, 0), ("P3", -1, 0))),
        (cols + 1, rows + 1, (("P1", 0, 0), ("P2", -1, 0), ("P3", -1, -1), ("P4", 0, -1))),
    )
    faces = [
        tuple((p, i + di, j + dj) for p, di, dj in star)
        for ni, nj, star in plates
        for i in range(ni)
        for j in range(nj)
    ]
    corners = {name: pos(name) for name in dict.fromkeys(n for f in faces for n in f)}
    edge_count = Counter(frozenset(e) for f in faces for e in zip(f, f[1:] + f[:1]))
    creases = tuple(key for key, count in edge_count.items() if count == 2)
    stars = {
        "P1": (2, (("P4", 0, 0), ("P2", -1, 0), ("P4", 0, -1), ("P2", 0, 0))),
        "P2": (1, (("P1", 0, 0), ("P3", 0, -1), ("P1", 1, 0), ("P3", 0, 0))),
        "P3": (2, (("P2", 0, 0), ("P4", 1, 0), ("P2", 0, 1), ("P4", 0, 0))),
        "P4": (1, (("P3", 0, 0), ("P1", 0, 1), ("P3", -1, 0), ("P1", 0, 0))),
    }
    k = mode_constants(a, PI / 2).k1
    patterns = {1: (1.0, -k, 1.0, k), 2: (-k, 1.0, k, 1.0)}
    vertices, coef = {}, {}
    for i in range(cols):
        for j in range(rows):
            for p, (mode, star) in stars.items():
                keys = tuple(frozenset(((p, i, j), (q, i + di, j + dj))) for q, di, dj in star)
                vertices[(p, i, j)] = tessellation.SheetVertex(mode, keys)
                sign = 1.0 if p in ("P1", "P2") else -1.0
                for key, c in zip(keys, patterns[mode]):
                    assert coef.setdefault(key, sign * c) == sign * c
    return corners, creases, vertices, [coef[key] for key in creases]


def test_built_layout_matches_the_named_reference():
    sheets = [build_square_twist_sheet(GEN, r, c) for r, c in ((1, 1), (1, 5), (5, 1), (12, 12))]
    sheets.append(build_square_twist_sheet(_twist(0.6), 3, 4, pleat_length=0.8))
    for sheet in sheets:
        corners, creases, vertices, coef = _reference_layout(sheet)
        assert list(sheet.corners) == list(corners)
        assert np.array(list(sheet.corners.values())).tobytes() == np.array(list(corners.values())).tobytes()
        assert sheet.creases == creases
        assert list(sheet.vertices.items()) == list(vertices.items())
        assert sheet.fold_plan.coef.tobytes() == np.array(coef).tobytes()


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
    plan = sheet22.fold_plan
    # P2(0, 0)'s creases rolled one place take the mode-2 row
    swapped = plan.vertex_creases.copy()
    swapped[1] = np.roll(swapped[1], 1)
    with pytest.raises(RigidFoldabilityError, match="inconsistent .* crease"):
        _crease_coefficients(sheet22.generator, swapped, len(plan.coef))
    # a crease past every vertex's creases has no row
    with pytest.raises(RigidFoldabilityError, match="meets no interior vertex"):
        _crease_coefficients(sheet22.generator, plan.vertex_creases, len(plan.coef) + 1)
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
    stretch = np.diag([1.0, 2.0, 1.0])
    stretched = dataclasses.replace(cx, meshes=tuple(m.transformed(stretch) for m in cx.meshes))
    assert any(
        ms_a != pytest.approx(gen_ms, abs=1e-3)
        for ms_a, _ in combined_vertex_multisets(stretched)
    )


def _pair_sectors(cx) -> list:
    """combined_vertex_multisets one glued vertex at a time: each crease's
    far end looked up by name, each sector angle from its two rays."""
    corner_index = {name: n for n, name in enumerate(cx.sheet.corners)}

    def sectors(layer, name):
        pts = cx.meshes[layer].vertices
        ends = [next(n for n in key if n != name) for key in cx.sheet.vertices[name].creases]
        d = pts[[corner_index[n] for n in ends]] - pts[corner_index[name]]
        return tuple(sorted(_ray_angle(d[k - 1], d[k]) for k in range(4)))

    return [(sectors(la, na), sectors(lb, nb)) for (la, na), (lb, nb) in cx.glue_map]


@pytest.mark.parametrize("variant", ["parallel", "rotated"])
def test_combined_multisets_match_the_pairwise_reference(variant):
    sheet = build_square_twist_sheet(_twist(0.6), 3, 4, pleat_length=0.8)
    for rho in (-2.0, 0.7):
        cx = stack_complex(sheet, 3, rho, variant)
        got, ref = combined_vertex_multisets(cx), _pair_sectors(cx)
        assert len(got) == len(ref) == len(cx.glue_map)
        assert np.max(np.abs(np.subtract(got, ref))) <= 1e-15
    assert combined_vertex_multisets(stack_complex(sheet, 1, 0.7, variant)) == []


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
        pts, plan = fs.mesh.vertices, planned_sheet.fold_plan
        for f, idx in zip(plan.face_corners, fs.mesh.faces):
            flat = plan.flat[f]
            folded = pts[list(idx)]
            # every edge and both diagonals: the plate moved rigidly
            for i in range(4):
                for j in range(i + 1, 4):
                    d0 = np.linalg.norm(flat[i] - flat[j])
                    assert abs(np.linalg.norm(folded[i] - folded[j]) - d0) < 1e-12


def test_fold_plan_belongs_to_its_sheet(sheet22):
    # a sheet built field by field folds like the built one
    fields = {f.name: getattr(sheet22, f.name) for f in dataclasses.fields(sheet22)}
    direct = SquareTwistSheet(**fields)
    assert fold_sheet(direct, 0.7) == fold_sheet(sheet22, 0.7)


def _depth_first_positions(sheet: SquareTwistSheet, major_rho: float) -> dict:
    """Corner positions composed one face at a time down a depth-first
    face tree from face 0: a child face moves by its parent's map after
    turning by its crease's fold angle about the shared edge."""
    flat = {n: np.array([x, y, 0.0]) for n, (x, y) in sheet.corners.items()}
    coefs = dict(zip(sheet.creases, sheet.fold_plan.coef.tolist()))
    names = list(flat)
    faces = [tuple(names[n] for n in f) for f in sheet.fold_plan.face_corners.tolist()]
    if abs(major_rho) == PI:
        rho = {k: math.copysign(PI, major_rho) * np.sign(c) for k, c in coefs.items()}
    else:
        rho = {k: 2.0 * math.atan(c * math.tan(0.5 * major_rho)) for k, c in coefs.items()}
    edge_faces: dict[frozenset, list[int]] = {}
    for fi, f in enumerate(faces):
        for a, b in zip(f, f[1:] + f[:1]):
            if frozenset((a, b)) in rho:
                edge_faces.setdefault(frozenset((a, b)), []).append(fi)
    maps = {0: (np.eye(3), np.zeros(3))}
    stack = [0]
    while stack:
        fi = stack.pop()
        R, t = maps[fi]
        f = faces[fi]
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
    for fi, f in enumerate(faces):
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
    plan = sheet.fold_plan
    names = list(sheet.corners)
    first = plan.face_kind.tolist().index(tessellation.KINDS.index("corner"))
    plate = [pos[names[n]] for n in plan.face_corners[first]]
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
    # every face's corners, shifted back by its cell, coincide with its
    # kind's cell-(0, 0) face, and every corner is the kind-corner of its
    # first slot in that slot's cell
    patch = [np.flatnonzero((plan.face_kind == k) & (plan.face_cell == (i, j)).all(axis=1)) for k, i, j in PATCH]
    assert all(len(f) == 1 for f in patch)
    assert np.array_equal(plan.local, plan.flat[plan.face_corners[[f[0] for f in patch[:4]]]])
    shifted = plan.flat[plan.face_corners] - (plan.face_cell @ plan.lattice)[:, None]
    assert np.max(np.abs(shifted - plan.local[plan.face_kind])) < 1e-14
    face, slot = np.divmod(_first_slots(plan), 4)
    assert np.array_equal(plan.corner_kc, 4 * plan.face_kind[face] + slot)
    assert np.array_equal(plan.corner_cell, plan.face_cell[face])
    names = list(sheet22.corners)
    for j in range(sheet22.rows):
        assert [names[n] for n in plan.mountain_rows[j]] == sheet22.mountain_path(j)
        assert [names[n] for n in plan.valley_rows[j]] == sheet22.valley_path(j)


def _first_slots(plan) -> np.ndarray:
    """Flat index into (F, 4) of the first face slot listing each corner."""
    return np.unique(plan.face_corners.ravel(), return_index=True)[1]


def _slot_positions(sheet: SquareTwistSheet, major_rho: float) -> tuple[np.ndarray, float]:
    """Corner positions placed slot by slot: every face's flat corners,
    shifted back into cell (0, 0), moved by its kind's patch motion and its
    cell's folded lattice translation, then gathered at each corner's first
    slot; with the largest spread of any slot from its corner's first slot."""
    plan = sheet.fold_plan
    R, t = _patch_motion(plan, tessellation.coupled_angle(plan.coef, major_rho))
    lattice = np.stack([t[4] - t[2] + R[2] @ plan.lattice[0], t[5] - t[1] + R[1] @ plan.lattice[1]])
    local = plan.flat[plan.face_corners] - (plan.face_cell @ plan.lattice)[:, None]
    rotations = R.transpose(0, 2, 1)[plan.face_kind]
    placed = local @ rotations + (t[plan.face_kind] + plan.face_cell @ lattice)[:, None]
    pos = placed.reshape(-1, 3)[_first_slots(plan)]
    return pos, float(np.max(np.abs(placed - pos[plan.face_corners])))


@pytest.fixture(scope="module")
def sheet48():
    return build_square_twist_sheet(GEN, 48, 48)


@pytest.mark.parametrize("shape", ["1x1", "1x5", "5x1", "3x4", "3x4 twist", "12x12", "48x48"])
def test_kind_corner_placement_matches_slot_placement(shape, sheet48):
    rows, cols = map(int, shape.split()[0].split("x"))
    if shape == "48x48":
        sheet = sheet48
    elif shape.endswith("twist"):
        sheet = build_square_twist_sheet(_twist(0.6), rows, cols, pleat_length=0.8)
    else:
        sheet = build_square_twist_sheet(GEN, rows, cols)
    for rho in PLAN_DRIVERS:
        ref, spread = _slot_positions(sheet, rho)
        fs = _fold(sheet, rho)
        assert np.max(np.abs(fs.mesh.vertices - ref)) < 1e-13, (shape, rho)
        # every face cycle of the sheet closes to rounding
        assert spread < 1e-13


@pytest.mark.parametrize("shape", ["1x1", "1x4", "4x1", "3x4", "12x12"])
def test_every_face_slot_is_a_lattice_identity_or_its_corners_first(shape):
    rows, cols = map(int, shape.split("x"))
    plan = build_square_twist_sheet(GEN, rows, cols).fold_plan
    n = plan.face_corners
    slot = 4 * plan.face_kind[:, None] + np.arange(4)
    step = plan.face_cell[:, None] - plan.corner_cell[n]
    table = np.concatenate([np.stack([slot, plan.corner_kc[n]], axis=2), step], axis=2).reshape(-1, 4)
    listed = set(map(tuple, plan.identity.tolist()))
    first = np.zeros(n.size, dtype=bool)
    first[_first_slots(plan)] = True
    used = set()
    for r, is_first in zip(map(tuple, table.tolist()), first):
        if is_first:
            assert r[0] == r[1] and r[2:] == (0, 0)
        else:
            assert r in listed
            used.add(r)
    # no identity is listed that no slot needs, there are 20 of them, and
    # each steps at most one cell each way (the carried planarity bound)
    assert used == listed and len(listed) == 20
    assert np.abs(plan.identity[:, 2:]).max() <= 1


def test_fold_plan_copies_the_arrays_it_is_given(sheet22):
    c = sheet22.fold_plan.coef.copy()
    plan = dataclasses.replace(sheet22.fold_plan, coef=c)
    assert c.flags.writeable and not plan.coef.flags.writeable
    c[0] += 1.0
    assert plan.coef[0] == sheet22.fold_plan.coef[0]


def _with_coefficient(sheet: SquareTwistSheet, c: int, factor: float) -> SquareTwistSheet:
    """A copy of the sheet with crease c's frozen coefficient scaled; the
    copy's fold plan derives its own distinct loops."""
    coef = sheet.fold_plan.coef.copy()
    coef[c] *= factor
    return _with_plan(sheet, coef=coef)


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


def test_replaced_coefficients_rederive_the_loops():
    # a plan copied with new coefficients dedupes its vertex loops afresh,
    # so a crease outside the patch tree still fails closure on a sheet
    # whose 576 vertices share 4 loops
    sheet = build_square_twist_sheet(GEN, 12, 12)
    plan = sheet.fold_plan
    free = sorted(set(range(len(plan.coef))) - set(plan.patch_hinge.tolist()))
    for c in free[:: len(free) // 8]:
        coef = plan.coef.copy()
        coef[c] *= 1.01
        replaced = dataclasses.replace(plan, coef=coef)
        rows = replaced.coef[replaced.loop_creases]
        assert np.array_equal(rows[replaced.vertex_loop], coef[plan.vertex_creases])
        with pytest.raises(MeshConsistencyError, match="fails closure"):
            _fold(dataclasses.replace(sheet, fold_plan=replaced), 1.0)


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


@pytest.mark.parametrize(
    "size, variant, rho",
    [pytest.param(12, "rotated", rho, id=str(rho)) for rho in (-3.0, -1.0, 0.3, 1.3, 3.0)]
    + [pytest.param(48, "parallel", -2.5, id="48x48-parallel")],
)
def test_carried_planarity_bounds_every_face(size, variant, rho, monkeypatch, sheet48):
    calls = _counting_planarity(monkeypatch)
    sheet = sheet48 if size == 48 else build_square_twist_sheet(GEN, size, size)
    cx = stack_complex(sheet, 3, rho, variant)
    assert not calls
    for mesh in cx.meshes:
        assert _face_sigma_min(mesh) <= mesh.planarity <= 1e-9


# digests of every stack output (layer positions, glue residual, bbox,
# lattice axes, glue map), keyed size-variant-layers-driver and pinned from
# layers copied as x @ R.T + t; zeros are unsigned first, so equal digests
# mean np.array_equal
STACK_DIGESTS = {
    "1-parallel-1--3.0": "b337c45590dbba47",
    "1-parallel-1-0.3": "4a0f9acd11a62647",
    "1-parallel-1-1.3": "7abc753e69e5b398",
    "1-parallel-3--3.0": "0f643f056d47f722",
    "1-parallel-3-0.3": "686e55531e49b2e8",
    "1-parallel-3-1.3": "df6d9193265b1bab",
    "1-rotated-1--3.0": "b337c45590dbba47",
    "1-rotated-1-0.3": "4a0f9acd11a62647",
    "1-rotated-1-1.3": "7abc753e69e5b398",
    "1-rotated-3--3.0": "bd7f5c5936f07844",
    "1-rotated-3-0.3": "acd2712f7d908237",
    "1-rotated-3-1.3": "03fe47227c70e5f3",
    "4-parallel-1--3.0": "f1915b3dc23e78ec",
    "4-parallel-1-0.3": "0cca200064e24943",
    "4-parallel-1-1.3": "b30a7dc8ca27289b",
    "4-parallel-3--3.0": "e82bc1a6ac048505",
    "4-parallel-3-0.3": "884b93cedb6f8c5a",
    "4-parallel-3-1.3": "c05937ea469f96ea",
    "4-rotated-1--3.0": "f1915b3dc23e78ec",
    "4-rotated-1-0.3": "0cca200064e24943",
    "4-rotated-1-1.3": "b30a7dc8ca27289b",
    "4-rotated-3--3.0": "81d9ad424f6fe822",
    "4-rotated-3-0.3": "f710354627d30c8a",
    "4-rotated-3-1.3": "a2494a0ffe0d45e0",
    "12-parallel-1--3.0": "8142b77b7206fc08",
    "12-parallel-1-0.3": "aab80bb68d514b7e",
    "12-parallel-1-1.3": "918521de19638d48",
    "12-parallel-3--3.0": "fc4f276b576a4b6d",
    "12-parallel-3-0.3": "3b2da39a9016d01f",
    "12-parallel-3-1.3": "d2be3775a0055ae0",
    "12-rotated-1--3.0": "8142b77b7206fc08",
    "12-rotated-1-0.3": "aab80bb68d514b7e",
    "12-rotated-1-1.3": "918521de19638d48",
    "12-rotated-3--3.0": "29efab03268abee6",
    "12-rotated-3-0.3": "aff6c2867b75b099",
    "12-rotated-3-1.3": "fa9442d12667b5ec",
    "24-parallel-1--3.0": "c49195fbfe102709",
    "24-parallel-1-0.3": "65e71e42b01edd92",
    "24-parallel-1-1.3": "f560db0b27162ec5",
    "24-parallel-3--3.0": "db20765dbabb90fe",
    "24-parallel-3-0.3": "0efe8f76fa162459",
    "24-parallel-3-1.3": "2deb71fdf647727b",
    "24-rotated-1--3.0": "c49195fbfe102709",
    "24-rotated-1-0.3": "65e71e42b01edd92",
    "24-rotated-1-1.3": "f560db0b27162ec5",
    "24-rotated-3--3.0": "7ea7c100a9607f9c",
    "24-rotated-3-0.3": "6027a359ca952e41",
    "24-rotated-3-1.3": "b8ab8dd8b3736665",
}


def _stack_digest(cx) -> str:
    h = hashlib.sha256()
    for a in (*(m.vertices for m in cx.meshes), [cx.glue_residual], cx.bbox, cx.lattice_axes):
        h.update(np.ascontiguousarray(np.asarray(a, dtype=float) + 0.0).tobytes())
    h.update(repr(cx.glue_map).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("size", (1, 4, 12, 24))
def test_stack_outputs_are_pinned(size):
    sheet = build_square_twist_sheet(GEN, size, size)
    got = {
        f"{size}-{variant}-{layers}-{rho}": _stack_digest(stack_complex(sheet, layers, rho, variant))
        for variant in ("parallel", "rotated") for layers in (1, 3) for rho in (-3.0, 0.3, 1.3)
    }
    assert got == {key: d for key, d in STACK_DIGESTS.items() if key.startswith(f"{size}-")}


@pytest.mark.parametrize("shape", [(1, 1), (3, 5), (12, 12)])
def test_fold_reads_corner_plate_0_0_from_its_kind_corners(shape):
    # the first slots of the plate's corners are kind-corners CORNER_PLATE in
    # cell (0, 0), so the fold's points are the mesh's, bit for bit
    sheet = build_square_twist_sheet(GEN, *shape)
    plan = sheet.fold_plan
    corners = plan.face_corners[np.searchsorted(plan.face_kind, tessellation.KINDS.index("corner"))]
    assert plan.corner_kc[corners].tolist() == list(tessellation.CORNER_PLATE)
    assert not plan.corner_cell[corners].any()
    for rho in (-3.0, 0.3, 1.3):
        fs = _fold(sheet, rho)
        assert np.array_equal(fs.corner_plate, fs.mesh.vertices[corners])


def _with_plan(sheet: SquareTwistSheet, **changes) -> SquareTwistSheet:
    """A copy of the sheet whose fold plan has the given fields replaced."""
    return dataclasses.replace(sheet, fold_plan=dataclasses.replace(sheet.fold_plan, **changes))


def _corner_plates_moved(sheet: SquareTwistSheet, dx: float) -> SquareTwistSheet:
    """A copy of the sheet whose corner plates sit dx further along x; the
    other plates place their shared corners, so each spreads by dx."""
    local = sheet.fold_plan.local.copy()
    local[tessellation.KINDS.index("corner"), :, 0] += dx
    return _with_plan(sheet, local=local)


def test_fold_plan_corners_lie_flat(sheet22):
    # a corner lifted off z = 0, even one that no other face shares and no
    # spread would reveal, is rejected before any fold could carry it
    local = sheet22.fold_plan.local.copy()
    local[tessellation.KINDS.index("corner"), 2, 2] = 1e-15  # P3(-1, -1)
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


def _turn_pleat_v_1_0(monkeypatch, angle: float) -> None:
    """Give pleat_v(1, 0) an extra rotation by angle about the sheet normal."""
    turn = rotation_about_axis([0.0, 0.0, 1.0], angle)

    def injected(plan, rho):
        R, t = _patch_motion(plan, rho)
        k = PATCH.index((2, 1, 0))
        R[k] = R[k] @ turn
        return R, t

    monkeypatch.setattr(tessellation, "_patch_motion", injected)


def test_rotated_lattice_step_does_not_tile(sheet22, monkeypatch):
    _turn_pleat_v_1_0(monkeypatch, 1e-6)
    with pytest.raises(MeshConsistencyError, match="rotational part"):
        _fold(sheet22, 1.0)


def test_lattice_step_turn_bound_is_1e_8(sheet22, monkeypatch):
    # unfolded, every hinge is the identity, so the lattice step's
    # rotational part is the turn's largest entry, sin(angle)
    _turn_pleat_v_1_0(monkeypatch, math.asin(0.99e-8))
    _fold(sheet22, 0.0)
    _turn_pleat_v_1_0(monkeypatch, math.asin(1.01e-8))
    with pytest.raises(MeshConsistencyError, match="rotational part 1.010e-08"):
        _fold(sheet22, 0.0)


def test_generator_that_does_not_close_fails(sheet22):
    # still flat-foldable with right-angle sectors, but the frozen fold
    # angles no longer close its loops
    bent = Vertex4((PI / 4 + 1e-3, PI / 2, 3 * PI / 4 - 1e-3, PI / 2))
    with pytest.raises(MeshConsistencyError, match="fails closure"):
        _fold(dataclasses.replace(sheet22, generator=bent), 1.0)


def test_shifted_valley_row_does_not_glue(sheet22, monkeypatch):
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
