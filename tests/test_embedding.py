import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rigidori.embedding import (
    CombinedVertex,
    FoldedMesh,
    achievable_theta_interval,
    combined_mesh,
    crease_pair_angle,
    dual_alignment,
    embed_vertex,
    junction_dihedrals,
    mesh_from_polygons,
    split_combined,
    synchronize,
)
from rigidori.closure import closure_residual
from rigidori.errors import (
    InfeasibleDriverError,
    InputError,
    MeshConsistencyError,
    NonClosingStateError,
    TraceAbortError,
    UnsupportedVariantError,
)
from rigidori.flatfold import MODE_1, fold_mode
from rigidori.kinematics import ALL_BRANCHES, BRANCH_PP, VertexKinematics
from rigidori.numerics import Tolerances
from rigidori.vertex import Curvature, FoldState, Vertex4, ZERO_STATE, classify, dual

PI = math.pi
SQ_TWIST = Vertex4((PI / 4, PI / 2, 3 * PI / 4, PI / 2))
ELLIPTIC = Vertex4((PI / 4, PI / 2, PI / 4, PI / 2))


def edge_face_counts(mesh: FoldedMesh) -> Counter:
    counts = Counter()
    for f in mesh.faces:
        for a, b in zip(f, f[1:] + f[:1]):
            counts[tuple(sorted((a, b)))] += 1
    return counts


def test_flat_crease_directions_are_cumulative_sums():
    g = embed_vertex(SQ_TWIST, ZERO_STATE)
    angles = [math.atan2(d[1], d[0]) % (2 * PI) for d in g.crease_dirs]
    assert angles == pytest.approx([0.0, PI / 4, 3 * PI / 4, 3 * PI / 2], abs=1e-12)


def test_rigidity_of_sector_angles_in_any_state():
    for drv in (0.4, 1.3, 2.7):
        s = fold_mode(SQ_TWIST, MODE_1, drv)
        g = embed_vertex(SQ_TWIST, s)
        for i in range(1, 5):
            assert abs(g.crease_angle(i, i % 4 + 1) - SQ_TWIST.alphas[i - 1]) < 1e-10


def test_elliptic_cone_state_embeds():
    from rigidori.kinematics import solve_state

    s = solve_state(ELLIPTIC, 3, PI / 2, BRANCH_PP)
    g = embed_vertex(ELLIPTIC, s)
    # non-planar cone: crease directions span 3D
    dirs = np.array(g.crease_dirs)
    assert abs(np.linalg.det(np.cov(dirs.T))) > 0 or np.linalg.matrix_rank(dirs) == 3


def test_non_closing_state_rejected():
    with pytest.raises(NonClosingStateError):
        embed_vertex(ELLIPTIC, ZERO_STATE)


def test_plate_polygons_planar_and_through_origin():
    s = fold_mode(SQ_TWIST, MODE_1, 1.0)
    g = embed_vertex(SQ_TWIST, s, radius=2.0, arc_segments=6)
    for poly in g.plate_polys:
        assert np.linalg.norm(poly[0]) < 1e-15  # origin on the boundary
        n = np.cross(poly[1] - poly[0], poly[-1] - poly[0])
        n /= np.linalg.norm(n)
        assert max(abs(np.dot(p - poly[0], n)) for p in poly) < 1e-10


def theta_interval():
    return achievable_theta_interval(ELLIPTIC, (2, 4))


def test_euclidean_base_at_flat_theta_gives_zero_states():
    th = crease_pair_angle(SQ_TWIST, ZERO_STATE, (2, 4))
    cv = synchronize(SQ_TWIST, "parallel", th)
    assert max(abs(r) for r in cv.base_state.rhos) < 1e-9
    assert max(abs(r) for r in cv.dual_state.rhos) < 1e-9


def test_synchronize_matches_duality_relations():
    lo, hi = theta_interval()
    cv = synchronize(ELLIPTIC, "parallel", 0.5 * (lo + hi))
    b, d = cv.base_state.rhos, cv.dual_state.rhos
    # merged creases carry exactly equal fold angles
    assert abs(b[1] - d[1]) < 1e-9 and abs(b[3] - d[3]) < 1e-9
    # the non-merged pair flips
    assert abs(b[0] + d[0]) < 1e-9 and abs(b[2] + d[2]) < 1e-9
    # theta realized in both geometries
    assert abs(crease_pair_angle(cv.base, cv.base_state, (2, 4)) - cv.theta) < 1e-9
    assert abs(crease_pair_angle(cv.dual_vertex, cv.dual_state, (2, 4)) - cv.theta) < 1e-9


@pytest.mark.parametrize("pair", [(2, 4), (1, 3)])
def test_wrong_matched_dual_state_fails_closure(monkeypatch, pair):
    # negating all four angles keeps theta but is not the duality map,
    # so only the closure certificate can reject it
    from rigidori import embedding

    lo, hi = achievable_theta_interval(ELLIPTIC, pair)
    synchronize(ELLIPTIC, "parallel", 0.5 * (lo + hi), pair)
    monkeypatch.setattr(
        embedding, "_matched_dual_state", lambda s, _pair: FoldState(tuple(-r for r in s.rhos))
    )
    with pytest.raises(MeshConsistencyError, match="closure"):
        synchronize(ELLIPTIC, "parallel", 0.5 * (lo + hi), pair)


def test_synchronize_out_of_range_reports_interval():
    with pytest.raises(InfeasibleDriverError) as err:
        synchronize(ELLIPTIC, "parallel", 0.05)
    assert "achievable range" in str(err.value)


SECTOR = st.floats(0.2, PI - 0.2)


@settings(max_examples=40, deadline=None)
@given(
    st.tuples(SECTOR, SECTOR, SECTOR, SECTOR),
    st.sampled_from([(2, 4), (1, 3)]),
    st.sampled_from(["parallel", "rotated"]),
    st.floats(0.0, 1.0),
)
# degenerate corners: both triangles collapse at theta = 0 (equal sector
# pairs), or one collapses within 1e-12 of a bound next to flat-folded creases
@example((1.0, 1.0, 1.0, 1.0), (2, 4), "parallel", 1e-12)
@example((0.5, 0.5, 0.5, 0.5), (2, 4), "parallel", 1e-11)
@example((0.75, 1.0, 1.0, 0.75), (2, 4), "parallel", 1e-12)
@example((1.0, 1.0, 0.25, 1.0), (2, 4), "parallel", 1e-12)
@example((2.0, 2.0, 2.0, 2.0), (2, 4), "rotated", 1.0)
@example((1.263671875, 0.9921875, 2.390625, 2.1171875), (1, 3), "parallel", 0.0)
def test_every_achievable_theta_synchronizes(alphas, pair, variant, f):
    v = Vertex4(alphas)
    lo, hi = achievable_theta_interval(v, pair)
    if lo > hi:
        with pytest.raises(InfeasibleDriverError, match="achievable range"):
            synchronize(v, variant, 0.5 * (lo + hi), merge_pair=pair)
        return
    for theta in (lo, min(lo + f * (hi - lo), hi), hi):
        cv = synchronize(v, variant, theta, merge_pair=pair)
        assert closure_residual(v, cv.base_state) < 1e-9
        assert closure_residual(cv.dual_vertex, cv.dual_state) < 1e-9
        assert abs(crease_pair_angle(v, cv.base_state, pair) - theta) <= 1e-12
        assert abs(crease_pair_angle(cv.dual_vertex, cv.dual_state, pair) - theta) <= 1e-12
    with pytest.raises(InfeasibleDriverError, match="achievable range"):
        synchronize(v, variant, hi + 1e-6, merge_pair=pair)


def test_base_state_is_first_certified_candidate_in_branch_order():
    # cross-check against the kinematics relations: the closed-form state
    # is the first of the certified candidates at its apex driver +-rho,
    # ordered by first matching branch, then driver, then fold angles
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 30:
        v = Vertex4(tuple(rng.uniform(0.2, PI - 0.2, size=4)))
        pair = ((2, 4), (1, 3))[checked % 2]
        lo, hi = achievable_theta_interval(v, pair)
        if lo >= hi:
            continue
        cv = synchronize(v, "parallel", lo + rng.uniform(0.05, 0.95) * (hi - lo), pair)
        apex = 1 if pair == (2, 4) else 2
        rho = abs(cv.base_state.rhos[apex - 1])
        kin = VertexKinematics(v)
        cands = [s for drv in (-rho, rho) for s in kin.certified_candidates(apex, drv)]
        rank = [next(k for k, b in enumerate(ALL_BRANCHES) if b.matches(s)) for s in cands]
        first = cands[rank.index(min(rank))]
        assert max(abs(a - b) for a, b in zip(first.rhos, cv.base_state.rhos)) < 1e-9
        checked += 1


def test_traced_crease_pair_angles_lie_in_closed_form_interval():
    bf = Vertex4((0.6, 0.6, 1.0, 1.0))
    generic = Vertex4((0.9, 1.4, 1.1, 2.0))
    coarse = Tolerances(trace_step_max=0.05)
    checked = 0
    for v in (ELLIPTIC, dual(ELLIPTIC), bf, generic, dual(generic), SQ_TWIST):
        kin = VertexKinematics(v, coarse)
        seen = {(2, 4): [], (1, 3): []}
        for branch in ALL_BRANCHES:
            try:
                curve = kin.trace_curve(1, branch, 9)
            except (InfeasibleDriverError, TraceAbortError):
                continue
            for pair, angles in seen.items():
                angles += [crease_pair_angle(v, s, pair) for s in curve.samples]
        for pair, angles in seen.items():
            lo, hi = achievable_theta_interval(v, pair)
            assert lo - 1e-12 <= min(angles) and max(angles) <= hi + 1e-12
            # the traces reach both bounds, so the interval is tight
            assert min(angles) < lo + 1e-3 and max(angles) > hi - 1e-3
            checked += len(angles)
    assert checked > 100


def test_birds_foot_merged_crease_angles_equal():
    # the two identified creases bisect the equal sector pairs; merged
    # fold angles come out equal in magnitude, like two folded discs
    bf = Vertex4((0.6, 0.6, 1.0, 1.0))
    assert classify(bf).curvature is Curvature.ELLIPTIC
    lo, hi = achievable_theta_interval(bf, (2, 4))
    cv = synchronize(bf, "parallel", 0.5 * (lo + hi), merge_pair=(2, 4))
    assert abs(abs(cv.base_state.rhos[1]) - abs(cv.dual_state.rhos[1])) < 1e-9
    assert abs(abs(cv.base_state.rhos[3]) - abs(cv.dual_state.rhos[3])) < 1e-9


def test_half_plane_property_across_theta_sweep():
    lo, hi = theta_interval()
    for k in range(10):
        theta = lo + (hi - lo) * (k + 0.5) / 11
        cv = synchronize(ELLIPTIC, "parallel", theta)
        for d in junction_dihedrals(cv):
            assert abs(d - PI) < 1e-8


def test_combined_mesh_nonmanifold_merged_creases():
    lo, hi = theta_interval()
    cv = synchronize(ELLIPTIC, "parallel", 0.5 * (lo + hi))
    mesh = combined_mesh(cv)
    counts = edge_face_counts(mesh)
    # the two merged crease edges carry four incident faces each
    assert sorted(c for c in counts.values() if c > 2) == [4, 4]


def test_rotated_variant_crease_map_and_split():
    lo, hi = theta_interval()
    cv = synchronize(ELLIPTIC, "rotated", 0.5 * (lo + hi))
    assert cv.crease_map == {2: 4, 4: 2}
    v1, v2 = split_combined(cv)
    expect = (PI / 4, PI / 2, 3 * PI / 4, PI / 2)
    assert v1.alphas == pytest.approx(expect, abs=1e-15)
    assert v2.alphas == pytest.approx(expect, abs=1e-15)
    # both pass the alternating-sum test exactly and are Euclidean
    for u in (v1, v2):
        assert u.kawasaki_defect() == 0.0
        assert abs(u.angle_sum() - 2 * PI) < 1e-12
    mesh = combined_mesh(cv)
    assert len(mesh.faces) == 8


def test_split_rejects_parallel_variant():
    lo, hi = theta_interval()
    cv = synchronize(ELLIPTIC, "parallel", 0.5 * (lo + hi))
    with pytest.raises(UnsupportedVariantError):
        split_combined(cv)


def test_split_general_base_kawasaki_exact():
    rng = np.random.default_rng(9)
    for _ in range(20):
        a = rng.uniform(0.2, PI - 0.2, size=4)
        v1 = Vertex4((a[0], a[1], PI - a[0], PI - a[1]))
        # exact up to one rounding of the pi - a subtractions
        assert abs(v1.kawasaki_defect()) <= 2 * math.ulp(PI)
        assert abs(v1.angle_sum() - 2 * PI) < 1e-12


def test_theta_sweep_traces_matched_magnitudes():
    lo, hi = theta_interval()
    for k in range(8):
        theta = lo + (hi - lo) * (k + 0.5) / 9
        cv = synchronize(ELLIPTIC, "parallel", theta)
        mags_b = sorted(abs(r) for r in cv.base_state.rhos)
        mags_d = sorted(abs(r) for r in cv.dual_state.rhos)
        assert max(abs(x - y) for x, y in zip(mags_b, mags_d)) < 1e-6


def test_orientation_reversal_same_theta_to_state_map():
    lo, hi = theta_interval()
    theta = 0.5 * (lo + hi)
    cv = synchronize(ELLIPTIC, "parallel", theta)
    rev = Vertex4(tuple(reversed(ELLIPTIC.alphas)))
    cv2 = synchronize(rev, "parallel", theta)
    a = sorted(abs(r) for r in cv.base_state.rhos)
    b = sorted(abs(r) for r in cv2.base_state.rhos)
    assert max(abs(x - y) for x, y in zip(a, b)) < 1e-9


def test_dual_alignment_maps_creases_exactly():
    lo, hi = theta_interval()
    cv = synchronize(ELLIPTIC, "parallel", 0.6 * lo + 0.4 * hi)
    R = dual_alignment(cv)
    assert abs(np.linalg.det(R) - 1.0) < 1e-12


def test_mesh_from_polygons_welds_shared_points():
    tri1 = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
    tri2 = [(1, 0, 0), (1, 1, 0), (0, 1, 0)]
    mesh = mesh_from_polygons([tri1, tri2])
    assert len(mesh.vertices) == 4
    assert len(mesh.faces) == 2


def test_weld_joins_the_first_kept_vertex_only():
    # b is within weld_tol of a, c of b but not of a: c joins no kept
    # vertex, so it is kept even though its nearest point was welded
    a, b, c = (0.0, 0.0, 0.0), (0.6e-8, 0.0, 0.0), (1.2e-8, 0.0, 0.0)
    mesh = mesh_from_polygons([[a, b, c], [c, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)]])
    assert mesh.vertices == (a, c, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    assert mesh.faces == ((0, 0, 1), (1, 2, 3))


def _tilted_grid(nx: int, ny: int):
    """Planar quad grid (nx * ny faces) in a generic plane through space."""
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    xy = np.array([(x, y, 0.0) for y in range(ny + 1) for x in range(nx + 1)], dtype=float)
    pts = xy @ q.T + rng.normal(size=3)
    faces = [
        (y * (nx + 1) + x, y * (nx + 1) + x + 1, (y + 1) * (nx + 1) + x + 1, (y + 1) * (nx + 1) + x)
        for y in range(ny)
        for x in range(nx)
    ]
    return pts, faces, q[:, 2]


def test_mesh_rejects_one_nonplanar_quad_among_many():
    pts, faces, normal = _tilted_grid(20, 30)
    FoldedMesh(tuple(map(tuple, pts)), tuple(faces))
    bent = pts.copy()
    bent[-1] += 1e-6 * normal  # a grid corner: only the last quad bends
    with pytest.raises(MeshConsistencyError):
        FoldedMesh(tuple(map(tuple, bent)), tuple(faces))


def test_mesh_validates_mixed_face_lengths():
    pts, faces, normal = _tilted_grid(4, 3)
    # split two quads into triangles and widen one into a pentagon through
    # the midpoint of its bottom edge
    mid = len(pts)
    pts = np.vstack([pts, 0.5 * (pts[faces[5][0]] + pts[faces[5][1]])])
    a, b, c, d = faces[5]
    mixed = [faces[0][:3], faces[0][::2] + (faces[0][3],), (a, mid, b, c, d)] + faces[6:]
    FoldedMesh(tuple(map(tuple, pts)), tuple(mixed))
    for k in (mid, c):  # the pentagon alone, then a vertex it shares with quads
        bent = pts.copy()
        bent[k] += 1e-6 * normal
        with pytest.raises(MeshConsistencyError):
            FoldedMesh(tuple(map(tuple, bent)), tuple(mixed))
    for bad in ((0, 1, -1), (0, 1, len(pts)), (0, 1), (0, 1, 2.5)):
        with pytest.raises(InputError):
            FoldedMesh(tuple(map(tuple, pts)), tuple(mixed) + (bad,))
