"""3D realization of folded vertices and combined non-manifold vertices.

A folded vertex is embedded by fixing crease 1 along +x in the z=0
reference plane and composing the loop factors plate by plate: plate k
(the rigid wedge of sector alpha_k between creases k and k+1) is placed
by the orientation

    W_1 = I,    W_{k+1} = W_k Rz(alpha_k) Rx(rho_{k+1})

so crease k points along W_k x_hat and the wedge spans local polar angles
[0, alpha_k]. Closure of the loop guarantees the fourth plate meets the
first.

A combined vertex joins an elliptic vertex C with its hyperbolic dual C*
along an identified opposite crease pair, synchronized so the angle theta
between the identified creases agrees in both folded geometries. The two
sector paths joining the pair are spherical triangles sharing the diagonal
theta, so the achievable theta range is given by their triangle
inequalities, and spherical trigonometry turns theta into every fold angle
of the base in closed form. In the
parallel variant each sector alpha_i of C becomes coplanar with the dual
sector pi - alpha_i, so the union is the intersection of two folded
planes; the rotated variant identifies the pair crosswise and decomposes
into two flat-foldable vertices instead.

Self-intersection of the material over the folding motion is not
detected here: depending on the base's orientation a combined vertex can
sweep through itself while flexing, but reversing the orientation gives
the same synchronized kinematics (same theta-to-state map), so the
kinematic results are unaffected.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

# oracle_solve is unused here, but bench/spans.py times it in every module that binds it
from .closure import LoopEvaluator, closure_residual, oracle_solve  # noqa: F401
from .errors import (
    InfeasibleDriverError,
    InputError,
    MeshConsistencyError,
    NonClosingStateError,
    UnsupportedVariantError,
)
from .kinematics import ALL_BRANCHES
from .numerics import DEFAULT_TOL, Tolerances, rot_x, rot_z
from .vertex import FoldState, Vertex4, dual

PARALLEL = "parallel"
ROTATED = "rotated"

_X = np.array([1.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# meshes


@dataclass(frozen=True)
class FoldedMesh:
    """Vertices and polygonal faces; non-manifold edge sharing permitted."""

    vertices: tuple[tuple[float, float, float], ...]
    faces: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.vertices)
        by_len: dict[int, list[tuple[int, ...]]] = {}
        for f in self.faces:
            by_len.setdefault(len(f), []).append(f)
        faces = {m: np.asarray(fs) for m, fs in by_len.items()}
        if any(
            m < 3 or idx.dtype.kind not in "iu" or idx.min() < 0 or idx.max() >= n
            for m, idx in faces.items()
        ):
            raise InputError("face indices out of range")
        pts = self.points()
        if not np.isfinite(pts).all():
            raise MeshConsistencyError("vertex coordinates are not finite")
        for m, idx in faces.items():
            if m > 3 and _max_planarity(pts[idx]) > 1e-9:
                raise MeshConsistencyError("face deviates from planarity beyond 1e-9")

    def points(self) -> np.ndarray:
        return np.array(self.vertices, dtype=float)

    def transformed(self, rotation: np.ndarray, translation=np.zeros(3)) -> "FoldedMesh":
        pts = self.points() @ np.asarray(rotation, dtype=float).T + translation
        return FoldedMesh(tuple(map(tuple, pts.tolist())), self.faces)


def _max_planarity(pts: np.ndarray) -> float:
    """Largest deviation scale from its best-fit plane over a stack of
    faces of equal length, shape (faces, corners, 3): the smallest
    singular value of each face's centered corners."""
    q = pts - pts.mean(axis=1, keepdims=True)
    return float(np.linalg.svd(q, compute_uv=False)[:, -1].max())


def mesh_from_polygons(polygons, weld_tol: float = 1e-8) -> FoldedMesh:
    """Weld a list of 3D polygons (arrays of points) into one indexed mesh.

    A point joins the first kept vertex within weld_tol (Chebyshev
    distance), so shared crease endpoints appear once; a point near no
    kept vertex is kept. Ordering is deterministic (construction order).
    The distances are one (points, points) array, sized for the few dozen
    points of a combined vertex.
    """
    polys = [np.asarray(poly, dtype=float).reshape(-1, 3) for poly in polygons]
    pts = np.concatenate(polys) if polys else np.empty((0, 3))
    near = (np.abs(pts[:, None] - pts[None]).max(axis=2) < weld_tol).tolist()
    kept: list[int] = []  # point index of each mesh vertex
    index = []
    for row in near:
        j = next((n for n, k in enumerate(kept) if row[k]), len(kept))
        if j == len(kept):
            kept.append(len(index))
        index.append(j)
    ends = np.cumsum([len(p) for p in polys]).tolist()
    faces = tuple(tuple(index[e - len(p) : e]) for p, e in zip(polys, ends))
    return FoldedMesh(tuple(map(tuple, pts[kept].tolist())), faces)


# ---------------------------------------------------------------------------
# single-vertex embedding


@dataclass(frozen=True)
class FoldedVertexGeometry:
    crease_dirs: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    plate_polys: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    plate_frames: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    source: tuple[Vertex4, FoldState]

    def crease_angle(self, i: int, j: int) -> float:
        return _ray_angle(self.crease_dirs[(i - 1) % 4], self.crease_dirs[(j - 1) % 4])


def _ray_angle(d1: np.ndarray, d2: np.ndarray) -> float:
    """Angle in [0, pi] between two rays of any length; unlike acos of the
    dot product, accurate near 0 and pi."""
    return math.atan2(float(np.linalg.norm(np.cross(d1, d2))), float(np.dot(d1, d2)))


def plate_orientations(v: Vertex4, s: FoldState) -> list[np.ndarray]:
    """World orientation W_k of each plate's local frame, k = 1..4."""
    frames = [np.eye(3)]
    for k in range(3):
        frames.append(frames[-1] @ rot_z(v.alphas[k]) @ rot_x(s.rhos[k + 1]))
    return frames


def crease_directions(v: Vertex4, s: FoldState) -> list[np.ndarray]:
    """Unit direction of each crease in the embedded folded state."""
    return [w @ _X for w in plate_orientations(v, s)]


def crease_pair_angle(v: Vertex4, s: FoldState, pair: tuple[int, int]) -> float:
    """Unsigned angle in [0, pi] between two crease rays of a folded state."""
    d = crease_directions(v, s)
    return _ray_angle(d[(pair[0] - 1) % 4], d[(pair[1] - 1) % 4])


def embed_vertex(
    v: Vertex4,
    s: FoldState,
    radius: float = 1.0,
    arc_segments: int = 8,
    tol: Tolerances = DEFAULT_TOL,
) -> FoldedVertexGeometry:
    """Crease rays and sector wedges of a folded vertex.

    The state must close: closure residual below residual_tol, otherwise
    the state is rejected with the residual in the diagnostic.
    """
    if radius <= 0 or arc_segments < 1:
        raise InputError("radius must be positive and arc_segments >= 1")
    res = closure_residual(v, s)
    if res >= tol.residual_tol:
        raise NonClosingStateError(
            f"state does not close: residual {res:.3e} >= {tol.residual_tol:.1e}"
        )
    frames = plate_orientations(v, s)
    dirs = []
    polys = []
    for k, w in enumerate(frames):
        dirs.append(w @ _X)
        thetas = [v.alphas[k] * j / arc_segments for j in range(arc_segments + 1)]
        local = np.array(
            [[0.0, 0.0, 0.0]]
            + [[radius * math.cos(t), radius * math.sin(t), 0.0] for t in thetas]
        )
        polys.append(local @ w.T)
    return FoldedVertexGeometry(
        crease_dirs=tuple(dirs),
        plate_polys=tuple(polys),
        plate_frames=tuple(frames),
        source=(v, s),
    )


# ---------------------------------------------------------------------------
# combined vertices


@dataclass(frozen=True)
class CombinedVertex:
    base: Vertex4
    dual_vertex: Vertex4
    variant: str
    theta: float
    merge_pair: tuple[int, int]
    base_state: FoldState
    dual_state: FoldState

    @property
    def crease_map(self) -> dict[int, int]:
        """Base crease index -> dual crease index for the merged pair."""
        i, j = self.merge_pair
        if self.variant == PARALLEL:
            return {i: i, j: j}
        return {i: j, j: i}


def _matched_dual_state(s: FoldState, merge_pair: tuple[int, int]) -> FoldState:
    """Dual state glued to the base state across the merged crease pair.

    The merged creases carry exactly equal fold angles (in each sheet's
    own labeling) and the non-merged pair flips sign; this is the sign
    assignment for which a proper rotation aligns the identified creases
    AND every base sector becomes coplanar with its dual counterpart
    (the half-plane property), verified against the embedded geometry.
    The apparent sign flip of the merged pair in the combined object is
    the dual sheet's reversed orientation in the glued frame, not a
    different fold angle.
    """
    merged = {((merge_pair[0] - 1) % 4), ((merge_pair[1] - 1) % 4)}
    return FoldState(
        tuple(r if k in merged else -r for k, r in enumerate(s.rhos))
    )


#: merge pair -> apex crease: the crease between the pair whose sectors
#: (x, y) form a spherical triangle with the diagonal theta
_APEX = {(2, 4): 1, (1, 3): 2}


def _apex_sectors(v: Vertex4, pair: tuple[int, int]) -> tuple[float, float, float, float]:
    """Sectors (x, y) at the apex crease of ``pair``, then (z, w) on the
    other path between the pair."""
    if pair not in _APEX:
        raise InputError("merge_pair must be (2, 4) or (1, 3)")
    c = _APEX[pair]
    return v.alpha(c - 1), v.alpha(c), v.alpha(c + 1), v.alpha(c + 2)


def achievable_theta_interval(v: Vertex4, pair: tuple[int, int]) -> tuple[float, float]:
    """Exact [lo, hi] of the angle theta between the creases of ``pair``
    over the configuration space of v: the triangle inequalities of the
    spherical triangles (x, y, theta) and (z, w, theta) that the two sector
    paths joining the pair form. lo > hi means no theta is achievable."""
    x, y, z, w = _apex_sectors(v, pair)
    lo = max(abs(x - y), abs(z - w))
    return lo, min(x + y, z + w, 2 * math.pi - x - y, 2 * math.pi - z - w)


def _triangle_angles(p: float, q: float, theta: float) -> tuple[float, ...]:
    """Angles opposite theta, p and q of the spherical triangle with sides
    p, q and theta, by the half-angle formulas. Each sine factor is written
    so that it vanishes exactly at its bound of achievable_theta_interval,
    which makes a degenerate triangle's angles exactly 0 or pi."""
    s0, st, sp, sq = (
        math.sin(0.5 * u)
        for u in (2 * math.pi - p - q - theta, p + q - theta, q - p + theta, p - q + theta)
    )
    return tuple(
        2.0 * math.atan2(math.sqrt(max(num, 0.0)), math.sqrt(max(den, 0.0)))
        for num, den in ((sp * sq, s0 * st), (st * sq, s0 * sp), (st * sp, s0 * sq))
    )


def synchronize(
    base: Vertex4,
    variant: str,
    theta: float,
    merge_pair: tuple[int, int] = (2, 4),
    tol: Tolerances = DEFAULT_TOL,
) -> CombinedVertex:
    """Fold base and dual(base) so the angle between the identified crease
    pair equals theta in both, and pair the states per the duality sign
    map.

    theta must lie in ``achievable_theta_interval(base, merge_pair)``. It
    fixes both triangles on the diagonal theta and so every fold angle up
    to sign, in closed form: pi minus the triangle angle at the apex and at
    the far crease, and at each merged crease pi minus the sum or the
    difference of its two triangle angles (triangles on opposite sides of
    the diagonal, or on one side). All sign assignments are certified in
    one closure batch. The base state is the first certified one in
    ALL_BRANCHES order (a state's branch is the first label it matches;
    ties go to the lower apex driver). The dual state is the base state
    under the duality sign map (_matched_dual_state), certified against
    the closure loop of the dual vertex as it stands.
    """
    if variant not in (PARALLEL, ROTATED):
        raise InputError(f"variant must be '{PARALLEL}' or '{ROTATED}'")
    lo, hi = achievable_theta_interval(base, merge_pair)
    if not lo <= theta <= hi:
        raise InfeasibleDriverError(
            f"theta {theta:.6g} outside achievable range [{lo:.6g}, {hi:.6g}] "
            f"of crease pair {merge_pair}"
        )
    c = _APEX[merge_pair] - 1  # 0-based: apex c, merged c - 1 and c + 1, far c + 2
    x, y, z, w = _apex_sectors(base, merge_pair)
    at_apex, b_next, b_prev = _triangle_angles(x, y, theta)
    at_far, g_prev, g_next = _triangle_angles(z, w, theta)
    rows = []
    for m_next, m_prev in (
        (abs(math.pi - b_next - g_next), abs(math.pi - b_prev - g_prev)),
        (math.pi - abs(b_next - g_next), math.pi - abs(b_prev - g_prev)),
    ):
        mags = np.roll([math.pi - at_apex, m_next, math.pi - at_far, m_prev], c).tolist()
        rows += itertools.product(*[(m, -m) if m else (m,) for m in mags])
    closes = LoopEvaluator(base).residuals(rows) < tol.residual_tol
    states = [FoldState(r) for r, ok in zip(rows, closes) if ok]
    if not states:
        raise NonClosingStateError(f"no closure-certified base state at theta {theta:.6g}")
    rank = {s: next(k for k, b in enumerate(ALL_BRANCHES) if b.matches(s)) for s in states}
    base_state = min(states, key=lambda s: (rank[s], s.rhos[c], s.rhos))

    vd = dual(base)
    dual_st = _matched_dual_state(base_state, merge_pair)
    if not closure_residual(vd, dual_st) < tol.residual_tol:
        raise MeshConsistencyError("matched dual state failed closure certification")
    th_base = crease_pair_angle(base, base_state, merge_pair)
    th_dual = crease_pair_angle(vd, dual_st, merge_pair)
    if max(abs(th_base - theta), abs(th_dual - theta), abs(th_base - th_dual)) > 1e-9:
        raise MeshConsistencyError(
            f"synchronizing angle mismatch: requested {theta:.12g}, "
            f"base {th_base:.12g}, dual {th_dual:.12g}"
        )
    return CombinedVertex(base, vd, variant, th_base, merge_pair, base_state, dual_st)


def _orthonormal_frame(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    e1 = u / np.linalg.norm(u)
    e2 = w - np.dot(w, e1) * e1
    n = np.linalg.norm(e2)
    if n < 1e-12:
        raise MeshConsistencyError("identified creases are collinear; frame undefined")
    e2 = e2 / n
    return np.column_stack([e1, e2, np.cross(e1, e2)])


def dual_alignment(cv: CombinedVertex) -> np.ndarray:
    """Proper rotation placing the dual geometry so the identified creases
    coincide with the base's."""
    ge = crease_directions(cv.base, cv.base_state)
    gh = crease_directions(cv.dual_vertex, cv.dual_state)
    i, j = cv.merge_pair
    if cv.variant == PARALLEL:
        targets = (ge[(i - 1) % 4], ge[(j - 1) % 4])
    else:
        targets = (ge[(j - 1) % 4], ge[(i - 1) % 4])
    sources = (gh[(i - 1) % 4], gh[(j - 1) % 4])
    R = _orthonormal_frame(*targets) @ _orthonormal_frame(*sources).T
    for src, tgt in zip(sources, targets):
        if np.linalg.norm(R @ src - tgt) > 1e-9:
            raise MeshConsistencyError("identified creases fail to coincide within 1e-9")
    return R


def combined_mesh(
    cv: CombinedVertex,
    radius: float = 1.0,
    arc_segments: int = 8,
    tol: Tolerances = DEFAULT_TOL,
) -> FoldedMesh:
    """Both folded geometries in one frame, identified creases coincident;
    the merged creases become non-manifold edges with four incident faces."""
    ge = embed_vertex(cv.base, cv.base_state, radius, arc_segments, tol)
    gh = embed_vertex(cv.dual_vertex, cv.dual_state, radius, arc_segments, tol)
    R = dual_alignment(cv)
    polys = list(ge.plate_polys) + [p @ R.T for p in gh.plate_polys]
    return mesh_from_polygons(polys)


def junction_dihedrals(cv: CombinedVertex, tol: Tolerances = DEFAULT_TOL) -> list[float]:
    """Dihedral angles between each base sector and its dual counterpart
    across the merged creases (parallel variant: all equal pi, i.e. each
    base sector and the dual sector form a half-plane)."""
    ge = embed_vertex(cv.base, cv.base_state, tol=tol)
    gh = embed_vertex(cv.dual_vertex, cv.dual_state, tol=tol)
    R = dual_alignment(cv)
    i, j = cv.merge_pair
    out = []
    # plate k spans creases k, k+1; merged crease index m is shared with
    # base plate m-1 and m, and likewise in the dual
    for m in (i, j):
        for plate in ((m - 2) % 4, (m - 1) % 4):
            axis = ge.crease_dirs[(m - 1) % 4]
            u_e = _plate_interior_dir(ge, plate, axis)
            u_h = R @ _plate_interior_dir(gh, plate, np.linalg.solve(R, axis))
            out.append(_ray_angle(u_e, u_h))
    return out


def _plate_interior_dir(geom: FoldedVertexGeometry, plate: int, axis: np.ndarray) -> np.ndarray:
    v, _ = geom.source
    mid = geom.plate_frames[plate] @ rot_z(0.5 * v.alphas[plate]) @ _X
    u = mid - np.dot(mid, axis) * axis
    n = np.linalg.norm(u)
    if n < 1e-12:
        raise MeshConsistencyError("degenerate plate interior direction")
    return u / n


def split_combined(cv: CombinedVertex) -> tuple[Vertex4, Vertex4]:
    """Decompose a rotated combined vertex into its two flat-foldable
    vertices (a1, a2, pi-a1, pi-a2) and (a3, a4, pi-a3, pi-a4); both pass
    the alternating-sum test exactly and are Euclidean."""
    if cv.variant != ROTATED:
        raise UnsupportedVariantError("split is defined for the rotated variant only")
    a = cv.base.alphas
    v1 = Vertex4((a[0], a[1], math.pi - a[0], math.pi - a[1]))
    v2 = Vertex4((a[2], a[3], math.pi - a[2], math.pi - a[3]))
    return v1, v2
