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
between the identified creases agrees in both folded geometries. In the
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

import math
from dataclasses import dataclass, replace

import numpy as np

from .closure import closure_residual, oracle_solve
from .errors import (
    InfeasibleDriverError,
    InputError,
    MeshConsistencyError,
    NonClosingStateError,
    RigidOriError,
    UnsupportedVariantError,
)
from .kinematics import ALL_BRANCHES, BranchLabel, VertexKinematics, dual_state
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

    Points closer than weld_tol are identified, so shared crease endpoints
    appear once. Ordering is deterministic (construction order).
    """
    verts: list[np.ndarray] = []
    faces = []
    for poly in polygons:
        idxs = []
        for p in np.asarray(poly, dtype=float):
            found = None
            for j, q in enumerate(verts):
                if np.max(np.abs(p - q)) < weld_tol:
                    found = j
                    break
            if found is None:
                verts.append(p)
                found = len(verts) - 1
            idxs.append(found)
        faces.append(tuple(idxs))
    return FoldedMesh(tuple(tuple(map(float, p)) for p in verts), tuple(faces))


# ---------------------------------------------------------------------------
# single-vertex embedding


@dataclass(frozen=True)
class FoldedVertexGeometry:
    crease_dirs: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    plate_polys: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    plate_frames: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    source: tuple[Vertex4, FoldState]

    def crease_angle(self, i: int, j: int) -> float:
        d = float(np.dot(self.crease_dirs[(i - 1) % 4], self.crease_dirs[(j - 1) % 4]))
        return math.acos(max(-1.0, min(1.0, d)))


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
    dot = float(np.dot(d[(pair[0] - 1) % 4], d[(pair[1] - 1) % 4]))
    return math.acos(max(-1.0, min(1.0, dot)))


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


def achievable_theta_interval(
    v: Vertex4,
    pair: tuple[int, int],
    driver_index: int,
    branch: BranchLabel,
    tol: Tolerances = DEFAULT_TOL,
    n_scan: int = 41,
) -> tuple[float, float]:
    """Numerically found [min, max] of the crease-pair angle over one
    branch (no completeness claim)."""
    _, thetas = _theta_scan(v, pair, driver_index, branch, tol, n_scan)
    return min(thetas), max(thetas)


def _theta_scan(v, pair, driver_index, branch, tol, n_scan):
    """Coarse trace of one branch, at the largest step Tolerances allows,
    and the crease-pair angle at each of its samples."""
    scan_tol = replace(tol, trace_step_max=0.05)
    curve = VertexKinematics(v, scan_tol).trace_curve(driver_index, branch, n_scan)
    return curve, [crease_pair_angle(v, s, pair) for s in curve.samples]


def synchronize(
    base: Vertex4,
    variant: str,
    theta: float,
    merge_pair: tuple[int, int] = (2, 4),
    driver_index: int | None = None,
    branch: BranchLabel | None = None,
    tol: Tolerances = DEFAULT_TOL,
    n_scan: int = 61,
) -> CombinedVertex:
    """Fold base and dual(base) so the angle between the identified crease
    pair equals theta in both, and pair the states per the duality sign
    map. Solved by bisection of the base driver against the measured
    crease angle; the dual state is certified by the closure oracle.
    """
    if variant not in (PARALLEL, ROTATED):
        raise InputError(f"variant must be '{PARALLEL}' or '{ROTATED}'")
    if merge_pair not in ((2, 4), (1, 3)):
        raise InputError("merge_pair must be (2, 4) or (1, 3)")
    vd = dual(base)

    choices: list[tuple[int, BranchLabel]] = []
    if driver_index is not None and branch is not None:
        choices = [(driver_index, branch)]
    else:
        drivers = [driver_index] if driver_index is not None else [1, 2, 3, 4]
        branches = [branch] if branch is not None else list(ALL_BRANCHES)
        choices = [(d, b) for d in drivers for b in branches]

    intervals = []
    for d, b in choices:
        try:
            curve, thetas = _theta_scan(base, merge_pair, d, b, tol, max(n_scan, 9))
        except RigidOriError:
            continue
        intervals.append((min(thetas), max(thetas)))
        # exact sample hit (e.g. the unfolded state of a Euclidean base,
        # where theta is extremal and bracketing degenerates)
        exact = min(range(len(thetas)), key=lambda k: abs(thetas[k] - theta))
        if abs(thetas[exact] - theta) < 1e-12:
            return _assemble_combined(
                base, vd, variant, theta, merge_pair, curve.samples[exact], tol
            )
        bracket = None
        for k in range(len(thetas) - 1):
            lo, hi = sorted((thetas[k], thetas[k + 1]))
            if lo - 1e-12 <= theta <= hi + 1e-12:
                bracket = k
                break
        if bracket is None:
            continue
        base_state = _bisect_theta(
            VertexKinematics(base, curve.tol), d, b, merge_pair,
            curve.drivers[bracket], curve.samples[bracket],
            curve.drivers[bracket + 1], theta, tol,
        )
        return _assemble_combined(base, vd, variant, theta, merge_pair, base_state, tol)

    if intervals:
        lo = min(iv[0] for iv in intervals)
        hi = max(iv[1] for iv in intervals)
        raise InfeasibleDriverError(
            f"theta {theta:.6g} outside achievable range: base [{lo:.6g}, {hi:.6g}], "
            f"dual [{lo:.6g}, {hi:.6g}] (duality-matched)"
        )
    raise InfeasibleDriverError("no realizable folding branch found for the base vertex")


def _bisect_theta(kin, driver_index, branch, pair, d_lo, s_lo, d_hi, theta, tol):
    f_lo = crease_pair_angle(kin.vertex, s_lo, pair) - theta
    state = s_lo
    lo, hi = d_lo, d_hi
    for _ in range(200):
        if hi - lo <= tol.solver_tol:
            break
        mid = 0.5 * (lo + hi)
        s_mid = kin.solve_near(driver_index, mid, state, branch)
        if s_mid is None:
            hi = mid  # shrink toward the known-good side
            continue
        f_mid = crease_pair_angle(kin.vertex, s_mid, pair) - theta
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo, state = mid, f_mid, s_mid
        else:
            hi = mid
    return state


def _assemble_combined(base, vd, variant, theta, merge_pair, base_state, tol):
    seed = _matched_dual_state(base_state, merge_pair)
    drv_idx = merge_pair[0]
    rep = oracle_solve(vd, drv_idx, seed.rhos[(drv_idx - 1) % 4], seed, tol)
    if not rep.converged:
        raise MeshConsistencyError("matched dual state failed closure certification")
    dual_st = rep.state
    th_base = crease_pair_angle(base, base_state, merge_pair)
    th_dual = crease_pair_angle(vd, dual_st, merge_pair)
    if abs(th_base - th_dual) > 1e-9:
        raise MeshConsistencyError(
            f"synchronizing angle mismatch: base {th_base:.12g}, dual {th_dual:.12g}"
        )
    return CombinedVertex(
        base=base,
        dual_vertex=vd,
        variant=variant,
        theta=th_base,
        merge_pair=merge_pair,
        base_state=base_state,
        dual_state=dual_st,
    )


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
            cross = np.cross(u_e, u_h)
            out.append(math.atan2(float(np.linalg.norm(cross)), float(np.dot(u_e, u_h))))
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
