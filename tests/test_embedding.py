import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rigidori.embedding import (
    CombinedVertex,
    FoldedMesh,
    achievable_theta_interval,
    combined_mesh,
    crease_pair_angle,
    dual_alignment,
    embed_vertex,
    junction_dihedrals,
    split_combined,
    synchronize,
)
from rigidori import embedding
from rigidori.embedding import _max_planarity
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
from rigidori.numerics import Tolerances, rotation_about_axis
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
        for i in range(1, 5):
            angle = crease_pair_angle(SQ_TWIST, s, (i, i % 4 + 1))
            assert abs(angle - SQ_TWIST.alphas[i - 1]) < 1e-10


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


@pytest.mark.parametrize("radius", [0.0, -1.0, math.inf, math.nan])
def test_radius_must_be_positive_and_finite(radius):
    cv = synchronize(SQ_TWIST, "parallel", crease_pair_angle(SQ_TWIST, ZERO_STATE, (2, 4)))
    with pytest.raises(InputError, match="radius"):
        embed_vertex(SQ_TWIST, ZERO_STATE, radius=radius)
    with pytest.raises(InputError, match="radius"):
        combined_mesh(cv, radius=radius)


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


def test_synchronize_theta_bound_is_1e_9(monkeypatch):
    # every measured crease-pair angle is moved by delta: the request is
    # missed by |delta|, which passes within 1e-9 and raises beyond
    from rigidori import embedding

    lo, hi = theta_interval()
    theta = 0.5 * (lo + hi)
    exact = embedding._frames_pair_angle

    def moved(frames, pair):
        return exact(frames, pair) + delta

    monkeypatch.setattr(embedding, "_frames_pair_angle", moved)
    for delta in (0.99e-9, -0.99e-9):
        assert synchronize(ELLIPTIC, "parallel", theta).theta == pytest.approx(theta + delta, abs=1e-14)
    for delta in (1.01e-9, -1.01e-9):
        with pytest.raises(MeshConsistencyError, match="synchronizing angle mismatch"):
            synchronize(ELLIPTIC, "parallel", theta)


@pytest.mark.parametrize("variant", ["parallel", "rotated"])
def test_dual_alignment_bound_is_1e_9(variant):
    # the dual's second merged crease turned by delta within the plane of
    # the merged pair misses its base crease by 2 sin(delta / 2)
    lo, hi = theta_interval()
    for delta, fits in ((0.99e-9, True), (-0.99e-9, True), (1.01e-9, False), (-1.01e-9, False)):
        cv = synchronize(ELLIPTIC, variant, 0.6 * lo + 0.4 * hi)
        i, j = cv.merge_pair
        normal = np.cross(cv.dual_frames[i - 1][:, 0], cv.dual_frames[j - 1][:, 0])
        frames = list(cv.dual_frames)
        frames[j - 1] = rotation_about_axis(normal / np.linalg.norm(normal), delta) @ frames[j - 1]
        object.__setattr__(cv, "dual_frames", tuple(frames))
        if fits:
            dual_alignment(cv)
        else:
            with pytest.raises(MeshConsistencyError, match="fail to coincide within 1e-9"):
                dual_alignment(cv)


def test_combined_vertex_is_certified_once_and_carries_its_frames(monkeypatch):
    # synchronize builds each sheet's plate frames and certifies the dual
    # state; the mesh, alignment and dihedrals read the frames it keeps
    from rigidori import embedding

    calls = Counter()

    def counted(name):
        fn = getattr(embedding, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(embedding, name, wrapper)

    th = crease_pair_angle(SQ_TWIST, fold_mode(SQ_TWIST, MODE_1, 1.0), (2, 4))
    counted("plate_orientations")
    counted("closure_residual")
    cv = synchronize(SQ_TWIST, "parallel", th)
    combined_mesh(cv)
    junction_dihedrals(cv)
    dual_alignment(cv)
    assert calls == {"plate_orientations": 2, "closure_residual": 1}
    for frames in (cv.base_frames, cv.dual_frames):
        assert len(frames) == 4 and not any(w.flags.writeable for w in frames)
    assert "frames" not in repr(cv)
    # a copy with another state has no certified frames, so it cannot mesh
    moved = dataclasses.replace(cv, base_state=fold_mode(SQ_TWIST, MODE_1, 0.5))
    with pytest.raises(AttributeError):
        combined_mesh(moved)


def _distance_weld(polygons, weld_tol: float = 1e-8) -> FoldedMesh:
    """Reference topology: each point joins the first kept vertex within
    weld_tol (Chebyshev), and a point near no kept vertex is kept."""
    pts = np.concatenate(polygons)
    near = np.all(np.abs(pts[:, None] - pts) < weld_tol, axis=2)
    kept, index = [], []
    for row in near:
        j = next((n for n, k in enumerate(kept) if row[k]), len(kept))
        if j == len(kept):
            kept.append(len(index))
        index.append(j)
    m = len(polygons[0])
    return FoldedMesh(pts[kept], tuple(tuple(index[k : k + m]) for k in range(0, len(pts), m)))


def test_combined_mesh_matches_distance_weld_on_generic_states():
    # away from flat folds only the shared apex and crease tips coincide,
    # so the fixed topology is the distance weld's, first coordinates kept
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 48:
        v = Vertex4(tuple(rng.uniform(0.2, PI - 0.2, size=4)))
        pair = ((2, 4), (1, 3))[checked % 2]
        lo, hi = achievable_theta_interval(v, pair)
        if lo >= hi:
            continue
        variant = ("parallel", "rotated")[checked // 2 % 2]
        cv = synchronize(v, variant, lo + rng.uniform(0.05, 0.95) * (hi - lo), pair)
        segments = (1, 3, 8)[checked % 3]
        R = dual_alignment(cv)
        ge = embed_vertex(cv.base, cv.base_state, 1.5, segments)
        gh = embed_vertex(cv.dual_vertex, cv.dual_state, 1.5, segments)
        welded = _distance_weld([*ge.plate_polys, *(p @ R.T for p in gh.plate_polys)])
        assert combined_mesh(cv, 1.5, segments) == welded
        checked += 1


P_FLAT = Vertex4((1.0, 1.0, PI - 1.0, PI - 1.0))
EQUAL = Vertex4((1.0, 1.0, 1.0, 1.0))
ALTERNATING = Vertex4((0.8, 1.2, 0.8, 1.2))


@pytest.mark.parametrize("segments", [1, 3, 8])
@pytest.mark.parametrize("variant", ["parallel", "rotated"])
@pytest.mark.parametrize(
    "v, end",
    [(P_FLAT, "lo"), (EQUAL, 2.0), (ALTERNATING, "lo"), (ALTERNATING, "hi")],
    ids=["pi-minus-lo", "equal-2", "alternating-lo", "alternating-hi"],
)
def test_flat_fold_plates_keep_distinct_vertices(v, end, variant, segments):
    # at these flat folds distinct plate points coincide in space; a
    # distance weld merged them, the fixed topology keeps them apart
    lo, hi = achievable_theta_interval(v, (2, 4))
    theta = {"lo": lo, "hi": hi}.get(end, end)
    mesh = combined_mesh(synchronize(v, variant, theta), arc_segments=segments)
    assert len(mesh.vertices) == 1 + 6 + 8 * (segments - 1)
    assert len(mesh.faces) == 8
    assert all(len(set(f)) == segments + 2 for f in mesh.faces)


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


# ---------------------------------------------------------------------------
# face planarity


def _sigma_min(pts: np.ndarray) -> tuple[float, float]:
    """Smallest and largest singular values of a face's centered corners."""
    s = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
    return float(s[-1]), float(s[0])


def _planar_polygon(rng: np.random.Generator, m: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Star-shaped m-gon in a random plane at a random offset and scale;
    returns its corners, the plane normal and the scale."""
    frame, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    scale = 10.0 ** rng.uniform(-3, 3)
    ang = 2 * PI * (np.arange(m) + rng.uniform(-0.4, 0.4, m)) / m
    r = rng.uniform(0.5, 1.0, m)
    local = np.column_stack([r * np.cos(ang), r * np.sin(ang), np.zeros(m)])
    return scale * (local @ frame.T + rng.uniform(-10, 10, 3)), frame[:, 2], scale


def _measure(pts: np.ndarray) -> float:
    return _max_planarity(pts[None])


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(4, 10), near=st.floats(-3, -1))
def test_planarity_measure_is_never_below_sigma_min(seed, m, near):
    # sigma_min from LAPACK is accurate to about eps * sigma_max, so the
    # comparison is made where sigma_min >= 1e-3 sigma_max resolves it:
    # random faces, and planar faces bent off their plane by 10**near
    rng = np.random.default_rng(seed)
    pts, normal, scale = _planar_polygon(rng, m)
    bent = pts + (10.0**near * scale) * rng.normal(size=(m, 1)) * normal
    for face in (rng.normal(size=(m, 3)) * rng.uniform(0.1, 10, 3), bent):
        sigma, top = _sigma_min(face)
        assume(sigma >= 1e-3 * top)
        assert _measure(face) >= sigma * (1 - 1e-12)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(4, 10), near=st.floats(-11, -7))
def test_planarity_check_rejects_what_sigma_min_rejects(seed, m, near):
    rng = np.random.default_rng(seed)
    pts, normal, scale = _planar_polygon(rng, m)
    # an exactly planar face measures at rounding level
    assert _measure(pts) < 1e-12 * scale
    # bent by about 10**near at unit scale: whenever sigma_min is over the
    # threshold, so is the measure and the mesh is rejected
    pts = pts / scale
    bent = pts + 10.0**near * rng.normal(size=(m, 1)) * normal
    faces = (tuple(range(m)),)
    sigma, _ = _sigma_min(bent)
    if sigma > 1e-9 * (1 + 1e-4):
        with pytest.raises(MeshConsistencyError):
            FoldedMesh(bent, faces)
    FoldedMesh(pts, faces)


def test_zero_newell_hexagon_is_judged_by_sigma_min():
    # non-planar hexagon whose Newell vector is exactly zero: it has no
    # normal, and a measure taken along a zero normal would be zero
    hexagon = np.array(
        [[1, -1, 1], [-2, 2, -1], [2, -2, 1], [0, 2, 1], [1, -2, 0], [-2, 1, -2]], dtype=float
    )
    assert not np.cross(hexagon, np.roll(hexagon, -1, axis=0)).sum(axis=0).any()
    sigma, _ = _sigma_min(hexagon)
    assert sigma > 0.3
    assert _measure(hexagon) == pytest.approx(sigma, rel=1e-12)
    with pytest.raises(MeshConsistencyError):
        FoldedMesh(hexagon, (tuple(range(6)),))


def test_collinear_quad_is_accepted():
    # its Newell vector is rounding noise with no direction; sigma_min is
    # at rounding level, as the face lies on a line
    quad = np.array([0.5, 1.0, 2.5, 4.0])[:, None] * [0.3, -0.7, 0.2] + [0.1, -2.0, 3.0]
    assert _measure(quad) < 1e-15
    FoldedMesh(quad, ((0, 1, 2, 3),))


# ---------------------------------------------------------------------------
# mesh storage


def test_mesh_from_tuples_holds_a_read_only_array():
    triples = ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (0.0, 1.0, 0.0))
    mesh = FoldedMesh(triples, ((0, 1, 2, 3),))
    assert mesh.vertices.dtype == np.float64 and mesh.vertices.shape == (4, 3)
    assert mesh == FoldedMesh(np.array(triples), ((0, 1, 2, 3),))
    assert mesh != FoldedMesh(np.array(triples) + 1.0, ((0, 1, 2, 3),))
    with pytest.raises(ValueError):
        mesh.vertices[0, 0] = 1.0
    source = np.array(triples)
    copied = FoldedMesh(source, ((0, 1, 2, 3),))
    source[0, 0] = 5.0  # the caller's array is neither frozen nor shared
    assert copied.vertices[0, 0] == 0.0


def test_transformed_layers_are_validated(monkeypatch):
    square = ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (0.0, 1.0, 0.0))
    mesh = FoldedMesh(square, ((0, 1, 2, 3),))
    moved = mesh.transformed(np.eye(3), np.array([1.0, 2.0, 3.0]))
    assert moved.vertices.tolist()[0] == [1.0, 2.0, 3.0]
    for bad in (np.nan, np.inf):
        with pytest.raises(MeshConsistencyError):
            mesh.transformed(np.eye(3), np.array([0.0, bad, 0.0]))
    # a saddle bent to a planarity of 0.8e-9: its Newell normal stays on z
    saddle = FoldedMesh(np.array(square) + [[0, 0, 4e-10], [0, 0, -4e-10]] * 2, ((0, 1, 2, 3),))
    assert saddle.planarity == pytest.approx(8e-10, rel=1e-9)
    calls = _counting_planarity(monkeypatch)
    # a rotation carries the planarity over: nothing is measured
    turn = rotation_about_axis(np.array([1.0, 2.0, -0.5]) / math.sqrt(5.25), 2.0)
    copy = saddle.transformed(turn, [3.0, -2.0, 5.0])
    assert not calls and saddle.planarity < copy.planarity < saddle.planarity + 1e-13
    # a stretch is no rotation: measured afresh, the doubled bend is rejected
    with pytest.raises(MeshConsistencyError):
        saddle.transformed(np.diag([1.0, 1.0, 2.0]))
    assert len(calls) == 1
    # an exact shift by 2**16 carries the bound below 1e-9; by 2**17 the
    # rounding bound (about 2e-10) lifts it above, and the copy is measured
    calls.clear()
    assert saddle.transformed(np.eye(3), [2.0**16, 0.0, 0.0]).planarity < 1e-9 and not calls
    far = saddle.transformed(np.eye(3), [2.0**17, 0.0, 0.0])
    assert len(calls) == 1 and far.planarity == saddle.planarity
    # a shift per point is no rigid motion: the bend it makes is measured
    with pytest.raises(MeshConsistencyError):
        saddle.transformed(np.eye(3), [[0.0, 0.0, 0.0]] * 3 + [[0.0, 0.0, 1e-6]])
    assert len(calls) == 2


def _counting_planarity(monkeypatch) -> list:
    """Record each _max_planarity call in the returned list."""
    calls = []
    measure = embedding._max_planarity
    monkeypatch.setattr(embedding, "_max_planarity", lambda pts: calls.append(1) or measure(pts))
    return calls


@pytest.mark.parametrize("variant", ["parallel", "rotated"])
@pytest.mark.parametrize("frac", [0.0, 0.3, 0.5, 1.0])
def test_combined_mesh_carries_its_planarity(variant, frac, monkeypatch):
    calls = _counting_planarity(monkeypatch)
    lo, hi = theta_interval()
    mesh = combined_mesh(synchronize(ELLIPTIC, variant, lo + frac * (hi - lo)), radius=3.0)
    assert not calls
    assert max(_sigma_min(mesh.vertices[list(f)])[0] for f in mesh.faces) <= mesh.planarity <= 1e-9


def test_combined_mesh_with_a_displaced_merged_tip_is_measured(monkeypatch):
    # dual plate 2 starts on merged crease 2, whose tip the mesh takes from
    # the base: moving the dual's own tip leaves the mesh as it is, but the
    # spread it makes enters the bound, which then asks for a measurement
    lo, hi = theta_interval()
    cv = synchronize(ELLIPTIC, "parallel", 0.5 * (lo + hi))
    exact = embedding._plate_polys

    def displaced(v, frames, radius, arc_segments):
        polys = exact(v, frames, radius, arc_segments)
        if frames is cv.dual_frames:
            polys[1][1, 2] += tip
        return polys

    monkeypatch.setattr(embedding, "_plate_polys", displaced)
    tip = 0.0
    reference = combined_mesh(cv)
    calls = _counting_planarity(monkeypatch)
    tip = 1e-11  # sqrt(30) tip on 10-corner faces stays within 1e-9
    mesh = combined_mesh(cv)
    assert mesh == reference and not calls and mesh.planarity >= math.sqrt(30) * tip
    tip = 3e-10
    assert combined_mesh(cv) == reference and len(calls) == 1
