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
into two flat-foldable vertices instead. A combined vertex is certified
once, in synchronize, and carries both sheets' plate frames: its
alignment, mesh and junction dihedrals are all read from those frames.

Self-intersection of the material over the folding motion is not
detected here: depending on the base's orientation a combined vertex can
sweep through itself while flexing, but reversing the orientation gives
the same synchronized kinematics (same theta-to-state map), so the
kinematic results are unaffected.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

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
from .kinematics import _DUAL_SIGNS, _LABEL_SIGNS, _admitted, _pair_signs
from .numerics import DEFAULT_TOL, Tolerances, cross, rot_x, rot_z
from .vertex import FoldState, Vertex4, dual

PARALLEL = "parallel"
ROTATED = "rotated"

_X = np.array([1.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# meshes


@dataclass(frozen=True, eq=False)
class FoldedMesh:
    """Vertices and polygonal faces; non-manifold edge sharing permitted.

    The faces' indices alone are the topology: coincident points are not
    welded. ``vertices`` is a read-only (N, 3) float64 copy of the given
    points (an array or a sequence of triples). ``face_index`` holds the
    faces as read-only index arrays, one per corner count, built from
    ``faces`` unless a caller that holds it for the same faces passes it.
    Construction validates face indices, finite coordinates and the
    planarity of every face of four or more corners within 1e-9, kept as
    ``planarity``: measured (see _max_planarity), or for flat faces placed
    rigidly (a folded sheet, a combined vertex, a ``transformed`` copy) a
    bound on their sigma_min from that construction (see ``_placed``).
    Meshes are equal when vertex values and faces are.
    """

    vertices: np.ndarray
    faces: tuple[tuple[int, ...], ...]
    face_index: dict[int, np.ndarray] | None = field(default=None, repr=False)
    planarity: float | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        pts = np.array(self.vertices, dtype=float) if len(self.vertices) else np.empty((0, 3))
        if pts.shape[1:] != (3,):
            raise InputError("vertices must be an (N, 3) array of points")
        pts.flags.writeable = False
        object.__setattr__(self, "vertices", pts)
        if self.face_index is None:
            by_len: dict[int, list[tuple[int, ...]]] = {}
            for f in self.faces:
                by_len.setdefault(len(f), []).append(f)
            object.__setattr__(self, "face_index", {m: np.asarray(fs) for m, fs in by_len.items()})
            for idx in self.face_index.values():
                idx.flags.writeable = False
        faces = self.face_index
        n = len(pts)
        if any(
            m < 3 or idx.dtype.kind not in "iu" or idx.min() < 0 or idx.max() >= n
            for m, idx in faces.items()
        ):
            raise InputError("face indices out of range")
        if not np.isfinite(pts).all():
            raise MeshConsistencyError("vertex coordinates are not finite")
        if self.planarity is None:
            measures = [_max_planarity(pts[idx]) for m, idx in faces.items() if m > 3]
            worst = max(measures, default=0.0, key=lambda v: math.inf if math.isnan(v) else v)
            object.__setattr__(self, "planarity", worst)
        if not self.planarity <= 1e-9:
            raise MeshConsistencyError("face deviates from planarity beyond 1e-9")

    def __eq__(self, other):
        if not isinstance(other, FoldedMesh):
            return NotImplemented
        return self.faces == other.faces and np.array_equal(self.vertices, other.vertices)

    @classmethod
    def _placed(cls, vertices, faces, face_index, bound: float) -> "FoldedMesh":
        """A mesh whose faces' sigma_min is at most ``bound`` by construction,
        kept as ``planarity`` if within 1e-9, else measured; checked as any."""
        mesh = object.__new__(cls)  # no __init__ argument can skip a check
        vars(mesh).update(vertices=vertices, faces=faces, face_index=face_index,
                          planarity=bound if bound <= 1e-9 else None)
        mesh.__post_init__()
        return mesh

    def transformed(self, rotation: np.ndarray, translation=np.zeros(3)) -> "FoldedMesh":
        """This mesh moved by x -> R x + t, checked like any mesh. A rotation R
        (|R^T R - I|_F <= 1e-12) with one shift t carries (1 + 1e-12) planarity
        plus its _rounding over; other maps are measured afresh."""
        R = np.asarray(rotation, dtype=float)
        size = math.sqrt(3) * np.abs(self.vertices).max(initial=0.0) + np.abs(translation).max()
        carry = np.ndim(translation) < 2 and np.linalg.norm(R.T @ R - np.eye(3)) <= 1e-12
        bound = (1 + 1e-12) * self.planarity + _rounding(max(self.face_index, default=0), size)
        return FoldedMesh._placed(self.vertices @ R.T + translation, self.faces,
                                  self.face_index, bound if carry else math.inf)


def _rounding(m: int, size: float) -> float:
    """Most that rounding moves the sigma_min of a face of m corners placed by x -> R x + t,
    R a rotation, size >= |x|_2 + |t|_inf (gamma_4, Higham 2002, sec. 3.1; Weyl)."""
    return 2.01 * np.finfo(float).eps * math.sqrt(3 * m) * size


def _max_planarity(pts: np.ndarray) -> float:
    """Largest deviation scale from planarity over a stack of faces of
    equal length, shape (faces, corners, 3): sqrt(sum_i (n . q_i)^2) for
    the centered corners q_i and the unit Newell normal n of each face.

    This is never below the smallest singular value of the centered
    corners, sigma_min^2 = min over unit n of sum_i (n . q_i)^2, so a
    threshold on it rejects every face that the same threshold on
    sigma_min rejects. A face whose Newell vector is zero up to rounding
    (collinear or area-cancelling corners) has no normal and is measured
    by sigma_min itself.
    """
    q = pts - np.einsum("fki->fi", pts)[:, None] / pts.shape[1]
    # Newell vector sum_i q_i x q_{i+1}, the antisymmetric part of
    # sum_i q_i q_{i+1}^T
    M = q.transpose(0, 2, 1) @ np.roll(q, -1, axis=1)
    newell = (M - M.transpose(0, 2, 1))[:, (1, 2, 0), (2, 0, 1)]
    length = np.sqrt(np.einsum("fi,fi->f", newell, newell))
    degenerate = length <= 8 * np.finfo(float).eps * np.einsum("fki,fki->f", q, q)
    h = np.einsum("fki,fi->fk", q, newell / np.where(degenerate, 1.0, length)[:, None])
    dev = np.sqrt(np.einsum("fk,fk->f", h, h))
    if degenerate.any():
        dev[degenerate] = np.linalg.svd(q[degenerate], compute_uv=False)[:, -1]
    return float(dev.max())


# ---------------------------------------------------------------------------
# single-vertex embedding


@dataclass(frozen=True)
class FoldedVertexGeometry:
    crease_dirs: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    plate_polys: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _ray_angle(d1: np.ndarray, d2: np.ndarray) -> float:
    """Angle in [0, pi] between two rays of any length; unlike acos of the
    dot product, accurate near 0 and pi."""
    return math.atan2(float(np.linalg.norm(cross(d1, d2))), float(np.dot(d1, d2)))


def plate_orientations(v: Vertex4, s: FoldState) -> tuple[np.ndarray, ...]:
    """World orientation W_k of each plate's local frame, k = 1..4, as
    read-only arrays; crease k points along W_k x_hat."""
    frames = [np.eye(3)]
    for rz, rx in zip(map(rot_z, v.alphas[:3]), rot_x(s.rhos[1:])):
        frames.append(frames[-1] @ rz @ rx)
    for w in frames:
        w.flags.writeable = False
    return tuple(frames)


def _frames_pair_angle(frames, pair: tuple[int, int]) -> float:
    return _ray_angle(frames[(pair[0] - 1) % 4] @ _X, frames[(pair[1] - 1) % 4] @ _X)


def crease_pair_angle(v: Vertex4, s: FoldState, pair: tuple[int, int]) -> float:
    """Unsigned angle in [0, pi] between two crease rays of a folded state."""
    return _frames_pair_angle(plate_orientations(v, s), pair)


def _plate_polys(v: Vertex4, frames, radius: float, arc_segments: int) -> list[np.ndarray]:
    """Each plate's wedge placed by its frame: the apex, then arc_segments
    + 1 points on the arc of the given radius from crease k to k + 1."""
    if not 0 < radius < math.inf or arc_segments < 1:
        raise InputError("radius must be positive and finite and arc_segments >= 1")
    polys = []
    for k, w in enumerate(frames):
        thetas = [v.alphas[k] * j / arc_segments for j in range(arc_segments + 1)]
        local = np.array(
            [[0.0, 0.0, 0.0]]
            + [[radius * math.cos(t), radius * math.sin(t), 0.0] for t in thetas]
        )
        polys.append(local @ w.T)
    return polys


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
    frames = plate_orientations(v, s)
    polys = _plate_polys(v, frames, radius, arc_segments)
    res = closure_residual(v, s)
    if res >= tol.residual_tol:
        raise NonClosingStateError(
            f"state does not close: residual {res:.3e} >= {tol.residual_tol:.1e}"
        )
    return FoldedVertexGeometry(tuple(w @ _X for w in frames), tuple(polys))


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
    #: plate_orientations of each state, set only by synchronize once it has
    #: certified both; a copy built any other way has no frames to mesh from
    base_frames: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    dual_frames: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

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
    For merge pair (1, 3) this is the duality map _DUAL_SIGNS, for (2, 4)
    its global mirror image.
    The apparent sign flip of the merged pair in the combined object is
    the dual sheet's reversed orientation in the glued frame, not a
    different fold angle.
    """
    signs = _DUAL_SIGNS if merge_pair == (1, 3) else -_DUAL_SIGNS
    return FoldState(np.multiply(s.rhos, signs))


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
    rows = np.array(rows, dtype=float)
    rows = rows[LoopEvaluator(base).residuals(rows) < tol.residual_tol]
    if not len(rows):
        raise NonClosingStateError(f"no closure-certified base state at theta {theta:.6g}")
    # a row's branch is the first label that admits its pair signs
    rank = _admitted(_pair_signs(rows)[:, None], _LABEL_SIGNS).argmax(axis=1)
    ranked = zip(rank.tolist(), rows.tolist())
    base_state = FoldState(min(ranked, key=lambda p: (p[0], p[1][c], p[1]))[1])

    vd = dual(base)
    dual_st = _matched_dual_state(base_state, merge_pair)
    if not closure_residual(vd, dual_st) < tol.residual_tol:
        raise MeshConsistencyError("matched dual state failed closure certification")
    frames = plate_orientations(base, base_state), plate_orientations(vd, dual_st)
    th_base, th_dual = (_frames_pair_angle(f, merge_pair) for f in frames)
    if max(abs(th_base - theta), abs(th_dual - theta), abs(th_base - th_dual)) > 1e-9:
        raise MeshConsistencyError(
            f"synchronizing angle mismatch: requested {theta:.12g}, "
            f"base {th_base:.12g}, dual {th_dual:.12g}"
        )
    cv = CombinedVertex(base, vd, variant, th_base, merge_pair, base_state, dual_st)
    object.__setattr__(cv, "base_frames", frames[0])
    object.__setattr__(cv, "dual_frames", frames[1])
    return cv


def _orthonormal_frame(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    e1 = u / np.linalg.norm(u)
    e2 = w - np.dot(w, e1) * e1
    n = np.linalg.norm(e2)
    if n < 1e-12:
        raise MeshConsistencyError("identified creases are collinear; frame undefined")
    e2 = e2 / n
    return np.column_stack([e1, e2, cross(e1, e2)])


def dual_alignment(cv: CombinedVertex) -> np.ndarray:
    """Proper rotation placing the dual geometry so the identified creases
    coincide with the base's, checked to within 1e-9."""
    base_of = {k: m for m, k in cv.crease_map.items()}  # dual crease -> base crease
    sources = [cv.dual_frames[k - 1] @ _X for k in cv.merge_pair]
    targets = [cv.base_frames[base_of[k] - 1] @ _X for k in cv.merge_pair]
    R = _orthonormal_frame(*targets) @ _orthonormal_frame(*sources).T
    for src, tgt in zip(sources, targets):
        if np.linalg.norm(R @ src - tgt) > 1e-9:
            raise MeshConsistencyError("identified creases fail to coincide within 1e-9")
    return R


@functools.lru_cache(maxsize=16)
def _combined_topology(arc_segments: int, merged: tuple[tuple[int, int], ...]):
    """Vertex table of a combined mesh from plate labels alone: the first
    point of each vertex among the eight plate polygons (base plates 1..4,
    then dual plates 1..4; plate k is the apex, the tip on crease k, the
    arc points and the tip on crease k + 1), and the faces as a tuple and
    a read-only array. Plates share the apex and their creases' tips; a
    merged dual crease (``merged``: (base, dual) pairs) takes the base's."""
    tip = {(sheet, c): (sheet, c) for sheet in (0, 1) for c in range(1, 5)}
    tip.update({(1, d): (0, b) for b, d in merged})
    labels = []
    for sheet, k in itertools.product((0, 1), range(1, 5)):
        arc = [(sheet, k, j) for j in range(1, arc_segments)]
        labels += ["apex", tip[sheet, k], *arc, tip[sheet, k % 4 + 1]]
    index: dict = {}  # label -> (mesh vertex, first point)
    for n, label in enumerate(labels):
        index.setdefault(label, (len(index), n))
    kept = np.array([n for _, n in index.values()])
    faces = np.array([index[label][0] for label in labels]).reshape(8, arc_segments + 2)
    for a in (kept, faces):
        a.flags.writeable = False
    return kept, tuple(map(tuple, faces.tolist())), {arc_segments + 2: faces}


def combined_mesh(cv: CombinedVertex, radius: float = 1.0, arc_segments: int = 8) -> FoldedMesh:
    """Both folded geometries in one frame, identified creases coincident;
    the merged creases become non-manifold edges with four incident faces.
    The topology is fixed: 1 + 6 + 8 (arc_segments - 1) vertices in plate
    order (apex, crease tips, arc points) at their first plate's points;
    plates that only touch, as at a flat fold, keep distinct vertices.
    No closure check: cv's frames were certified by synchronize, and the
    planarity is the bound the wedges' placement carries."""
    base_polys = _plate_polys(cv.base, cv.base_frames, radius, arc_segments)
    dual_polys = _plate_polys(cv.dual_vertex, cv.dual_frames, radius, arc_segments)
    R = dual_alignment(cv)
    kept, faces, face_index = _combined_topology(arc_segments, tuple(cv.crease_map.items()))
    pts = np.concatenate([*base_polys, *(p @ R.T for p in dual_polys)])
    # flat wedges placed by their frames, the dual's then by R (orthonormal to 1e-3 by
    # the collinearity guard): three roundings at most; shared points take a first plate's
    m = arc_segments + 2
    spread = np.abs(pts - pts[kept[face_index[m].ravel()]]).max()
    bound = 3 * _rounding(m, radius) + math.sqrt(3 * m) * spread
    return FoldedMesh._placed(pts[kept], faces, face_index, bound)


def junction_dihedrals(cv: CombinedVertex) -> list[float]:
    """Dihedral angles between each base sector and its dual counterpart
    across the merged creases (parallel variant: all equal pi, i.e. each
    base sector and the dual sector form a half-plane)."""
    R = dual_alignment(cv)
    i, j = cv.merge_pair
    out = []
    # plate k spans creases k, k+1; merged crease index m is shared with
    # base plate m-1 and m, and likewise in the dual
    for m in (i, j):
        for plate in ((m - 2) % 4, (m - 1) % 4):
            axis = cv.base_frames[(m - 1) % 4] @ _X
            u_e = _plate_interior_dir(cv.base, cv.base_frames, plate, axis)
            dual_axis = np.linalg.solve(R, axis)
            u_h = R @ _plate_interior_dir(cv.dual_vertex, cv.dual_frames, plate, dual_axis)
            out.append(_ray_angle(u_e, u_h))
    return out


def _plate_interior_dir(v: Vertex4, frames, plate: int, axis: np.ndarray) -> np.ndarray:
    mid = frames[plate] @ rot_z(0.5 * v.alphas[plate]) @ _X
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
