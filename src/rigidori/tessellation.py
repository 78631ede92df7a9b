"""Square-twist tessellation sheets, stacked CW complexes, and the
auxetic bounding-box sweep.

Layout. The generating vertex must have the square-twist shape
(a, pi/2, pi - a, pi/2) after cyclic normalization: the two right-angle
sectors become the central square's corner angles and ``a`` is the twist
angle. Each unit cell holds one central square of side 1 whose four
corners are the cell's interior vertices; four pleat parallelograms of
width sin(a) and length D (the pleat_length) connect it to its lateral
neighbors, and square corner plates of side D fill the gaps. Cells tile
the plane by pure translation along the orthogonal lattice vectors

    R = (1 + D sin a, -D cos a),      U = (D cos a, 1 + D sin a).

The sheet's index arrays follow by arithmetic from (label, di, dj)
tables of the unit cell's plates and vertex stars; the corner, crease and
vertex names are views of those arrays.

Every interior vertex is a rotated copy of the generator; corners P1 and
P3 of each square fold in mode 2, P2 and P4 in mode 1. In closed form, a
vertex's creases c1..c4 have half-tangents s times its row, for
s = tan(major_rho / 2) and k = k1 of the generator (k2 = -k1 here):

    P1 (mode 2)  (-k,  1,  k,  1)      P3 (mode 2)  ( k, -1, -k, -1)
    P2 (mode 1)  ( 1, -k,  1,  k)      P4 (mode 1)  (-1,  k, -1, -k)

that is, the mode pattern times +1 at P1/P2 and -1 at P3/P4. This is the
one mode assignment under which the two vertices of every crease agree,
so a single degree of freedom folds the whole sheet. The rows freeze each
crease's coefficient at build time, exactly +-1 or +-k, so every interior
vertex loop is one of four. Folding scales the frozen coefficients
(rho = 2 atan(coef * s)) and composes the hinges of a patch of faces
around cell (0, 0). Every interior vertex folds alike, so the folded
sheet is periodic: the patch's neighbours in cells (1, 0) and (0, 1) give
the two folded lattice translations, and a lattice step with a rotational
part above 1e-8 raises. The 16 corners of the kinds' cell-(0, 0) faces
are placed, and every corner is one of them plus a cell's translation, in
one broadcast. A face slot and its corner's first slot differ by one of
20 lattice identities, each of which must hold within 1e-8, so every face
cycle of the sheet is checked, not only the patch's; each distinct
interior vertex loop is certified once, in one batch. Each face is flat
(z = 0) and placed rigidly, so the mesh carries a planarity bound from
rounding and the worst identity instead of measuring it.

Stacking glues the mountain crease rows of each layer to the valley
crease rows of the next (the rows are the zigzag paths of major creases
through P3/P4 and P1/P2 corners respectively); each glued vertex pair
realizes the combined vertex of the generator and its dual. The layer
motion has a closed form. The parallel variant translates each layer by
the folded rise from P1(0, 0) to P4(0, 0), which carries every valley row
onto its mountain row, so every row glues. The rotated variant reverses
the row correspondence: the crease pattern's half-turn about a square
centre negates every fold angle, so the half-turn about the normal of
mountain row 0's plane carries valley row 0, reversed, onto it. Only row
0 glues, and successive sheets interpenetrate by design. A glued row that
misses its partner by more than 1e-8 raises. The glue map is built once
per (variant, layers) and kept on the sheet.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .closure import LoopEvaluator
from .embedding import PARALLEL, ROTATED, FoldedMesh, _rounding
from .errors import (
    GluingError,
    InfeasibleDriverError,
    InputError,
    MeshConsistencyError,
    RigidFoldabilityError,
)
from .flatfold import coupled_angle, mode_constants
from .numerics import RESIDUAL_TOL, cross
from .vertex import Curvature, Vertex4, classify

Name = tuple[str, int, int]  # corner label P1..P4 with cell indices
PLACEMENT_TOL = 1e-8  # most a lattice step may turn, a corner spread, a glued row miss


# ---------------------------------------------------------------------------
# sheet construction


@dataclass(frozen=True)
class SheetVertex:
    mode: int
    # crease keys in package order c1..c4 for this vertex's own labeling
    creases: tuple[frozenset, frozenset, frozenset, frozenset]


LABELS = ("P1", "P2", "P3", "P4")
OFFSET = np.array([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (0.0, 1.0, 0.0)])  # flat, in a cell
KINDS = ("square", "pleat_h", "pleat_v", "corner")
EXTENT = ((0, 0), (0, 1), (1, 0), (1, 1))  # a kind's plates span (cols + ei) x (rows + ej) cells
# each plate's corners as (label, di, dj) cell offsets, by kind; the pleats
# join cells (i, j-1) and (i, j), or (i-1, j) and (i, j)
PLATES = np.array([
    ((0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)),
    ((3, 0, -1), (2, 0, -1), (1, 0, 0), (0, 0, 0)),
    ((1, -1, 0), (0, 0, 0), (3, 0, 0), (2, -1, 0)),
    ((0, 0, 0), (1, -1, 0), (2, -1, -1), (3, 0, -1)),
])
# each interior vertex's crease neighbours c1..c4 in package order, as
# (label, di, dj) cell offsets, by label
STARS = np.array([
    ((3, 0, 0), (1, -1, 0), (3, 0, -1), (1, 0, 0)),
    ((0, 0, 0), (2, 0, -1), (0, 1, 0), (2, 0, 0)),
    ((1, 0, 0), (3, 1, 0), (1, 0, 1), (3, 0, 0)),
    ((2, 0, 0), (0, 0, 1), (2, -1, 0), (0, 0, 0)),
])
MODES = (2, 1, 2, 1)
# the closed-form coefficient rows by label are ONE + k K (module docstring)
ONE = np.array([(0, 1, 0, 1), (1, 0, 1, 0), (0, -1, 0, -1), (-1, 0, -1, 0)])
K = np.array([(-1, 0, 1, 0), (0, -1, 0, 1), (1, 0, -1, 0), (0, 1, 0, -1)])
# the hinge patch as (kind, i, j): one face of each kind in cell (0, 0),
# then pleat_v(1, 0) and pleat_h(0, 1), which every sheet has and which
# give the lattice translations
PATCH = ((0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (2, 1, 0), (1, 0, 1))
# the patch hinge tree as (child, parent) pairs, parents placed first; the
# square carries the identity
PATCH_TREE = ((1, 0), (2, 0), (4, 0), (5, 0), (3, 2))
HINGE_SLOT = (0, 3, 1, 2, 0)  # each hinge is its parent's edge from corner slot s to s + 1
CORNER_PLATE = (0, 8, 14, 4)  # corner plate (0, 0)'s corners by their first slots, all in cell (0, 0)


@dataclass(frozen=True, eq=False)
class FoldPlan:
    """The sheet as index arrays, with everything a fold needs that does
    not depend on the driver angle.

    Arrays are read-only copies. Faces run kind by kind (KINDS) over cells
    (i, j), i outer; interior vertices run over cells likewise, then labels.
    Corners and creases (edges two faces share) are in order of first
    appearance in the faces. Hinge e of PATCH_TREE turns its child about
    the edge it shares with its parent. A face's cell is the cell of its
    one P1 corner. Kind-corner 4 kind + s is slot s of the kind's cell-(0, 0)
    face; a corner is its first face's kind-corner moved by that face's cell.
    """

    corner: np.ndarray  # (N, 3) label index, i and j of each corner
    flat: np.ndarray  # (N, 3) flat corner positions, z = 0
    crease_ends: np.ndarray  # (C, 2) corner indices
    vertex_creases: np.ndarray  # (V, 4) creases c1..c4 of each interior vertex
    coef: np.ndarray  # (C,) crease half-tangent per unit driver half-tangent
    patch_hinge: np.ndarray  # (5,) crease of each PATCH_TREE hinge
    axis_point: np.ndarray  # (5, 3) a flat point on the hinge
    hinge_k: np.ndarray  # (5, 3, 3) cross-product matrix K of the unit hinge direction
    hinge_k2: np.ndarray  # (5, 3, 3) K @ K; the child turns by I + sin(rho) K + (1 - cos(rho)) K^2
    lattice: np.ndarray  # (2, 3) flat lattice vectors R and U
    face_kind: np.ndarray  # (F,) kind of each face
    face_cell: np.ndarray  # (F, 2) lattice cell (i, j) of each face
    local: np.ndarray  # (4, 4, 3) flat corners of each kind's cell-(0, 0) face
    face_corners: np.ndarray  # (F, 4) corner indices per face
    corner_kc: np.ndarray  # (N,) kind-corner of each corner's first face slot
    corner_cell: np.ndarray  # (N, 2) float cell of each corner's first face
    identity: np.ndarray  # (I, 4) kind-corners a, b and cell step d: a + d @ lattice is b
    mountain_rows: np.ndarray  # (rows, 2 cols) corner indices of mountain_path(j)
    valley_rows: np.ndarray  # (rows, 2 cols) corner indices of valley_path(j)
    loop_creases: np.ndarray = dataclasses.field(init=False)  # (L, 4) creases of one vertex per distinct row
    vertex_loop: np.ndarray = dataclasses.field(init=False)  # (V,) each vertex's row in loop_creases

    def __post_init__(self):
        if self.local[..., 2].any():  # _fold carries every face's planarity on this
            raise MeshConsistencyError("fold plan corners must lie at z = 0")
        # vertices with equal coefficient rows fold alike: one loop each
        _, first, loop = np.unique(self.coef[self.vertex_creases], axis=0, return_index=True, return_inverse=True)
        object.__setattr__(self, "loop_creases", self.vertex_creases[first])
        object.__setattr__(self, "vertex_loop", loop.reshape(-1))
        for name, value in list(vars(self).items()):
            object.__setattr__(self, name, value.copy())  # the caller's arrays stay theirs
            getattr(self, name).flags.writeable = False


@dataclass(frozen=True)
class SquareTwistSheet:
    generator: Vertex4
    rows: int
    cols: int
    pleat_length: float
    fold_plan: FoldPlan

    @functools.cached_property
    def corners(self) -> dict[Name, tuple[float, float]]:
        """Flat position of every corner by name, in corner order."""
        plan = self.fold_plan
        return {(LABELS[p], i, j): (x, y) for (p, i, j), (x, y, _) in zip(plan.corner.tolist(), plan.flat.tolist())}

    @functools.cached_property
    def creases(self) -> tuple[frozenset, ...]:
        """Every crease as the pair of its corner names, in crease order."""
        names = list(self.corners)
        return tuple(frozenset((names[a], names[b])) for a, b in self.fold_plan.crease_ends.tolist())

    @functools.cached_property
    def vertices(self) -> dict[Name, SheetVertex]:
        """Mode and creases of every interior vertex by name, in vertex order."""
        names = [(p, i, j) for i in range(self.cols) for j in range(self.rows) for p in LABELS]
        return {
            name: SheetVertex(MODES[v % 4], tuple(self.creases[c] for c in row))
            for v, (name, row) in enumerate(zip(names, self.fold_plan.vertex_creases.tolist()))
        }

    @functools.cached_property
    def _mesh_faces(self) -> tuple[tuple[int, ...], ...]:
        """The faces of every folded mesh: the plan's face corners as tuples."""
        return tuple(map(tuple, self.fold_plan.face_corners.tolist()))

    @functools.cached_property
    def _loops(self) -> LoopEvaluator:
        """The generator's loop evaluator, shared by every fold."""
        return LoopEvaluator(self.generator)

    @functools.cached_property
    def _glue_maps(self) -> dict[tuple[str, int], tuple]:
        """CwComplex.glue_map by (variant, layers), each built on first use."""
        return {}

    def valley_path(self, j: int) -> list[Name]:
        """Major-crease row through the P1/P2 corners of grid row j."""
        return [(p, i, j) for i in range(self.cols) for p in ("P1", "P2")]

    def mountain_path(self, j: int) -> list[Name]:
        """Major-crease row through the P4/P3 corners of grid row j."""
        return [(p, i, j) for i in range(self.cols) for p in ("P4", "P3")]


def _normalize_generator(v: Vertex4) -> tuple[float, Vertex4]:
    """Cyclic shift putting the generator into (a, pi/2, pi-a, pi/2) form."""
    cls = classify(v)
    if cls.curvature is not Curvature.EUCLIDEAN or not cls.flat_foldable:
        raise InputError("square-twist generator must be Euclidean flat-foldable")
    a = v.alphas
    for shift in range(4):
        rolled = tuple(a[(k + shift) % 4] for k in range(4))
        if abs(rolled[1] - math.pi / 2) < 1e-9 and abs(rolled[3] - math.pi / 2) < 1e-9:
            return rolled[0], Vertex4(rolled)
    raise InputError(
        "square-twist generator needs two opposite right-angle sectors "
        "(shape (a, pi/2, pi-a, pi/2) up to cyclic relabeling)"
    )


def build_square_twist_sheet(v: Vertex4, rows: int, cols: int, pleat_length: float = 1.0) -> SquareTwistSheet:
    """Unfolded square-twist crease layout with rows x cols unit cells.

    Every interior vertex (the central-square corners) realizes the
    generator's sector angles; the mountain/valley assignment is frozen
    from the closed-form mode rows at construction time, together with the
    fold plan that every later fold reuses.
    """
    if rows < 1 or cols < 1:
        raise InputError("rows and cols must be at least 1")
    if not 0 < pleat_length < math.inf:
        raise InputError("pleat_length must be positive and finite")
    alpha, gen = _normalize_generator(v)
    D = pleat_length
    sin, cos = math.sin(alpha), math.cos(alpha)
    lattice = np.array([(1.0 + D * sin, -D * cos, 0.0), (D * cos, 1.0 + D * sin, 0.0)])  # R and U

    def code(p, i, j):  # corner (p, i, j) for -1 <= i <= cols, -1 <= j <= rows
        return 4 * ((i + 1) * (rows + 2) + j + 1) + p

    cells = [np.divmod(np.arange((cols + ei) * (rows + ej)), rows + ej) for ei, ej in EXTENT]
    face_kind = np.repeat(np.arange(len(KINDS)), [len(i) for i, _ in cells])
    face_cell = np.concatenate([np.stack(c, axis=1) for c in cells])
    star = PLATES[face_kind]
    face_codes = code(star[..., 0], face_cell[:, :1] + star[..., 1], face_cell[:, 1:] + star[..., 2])

    # every corner once, in order of first appearance
    unique, first, inverse = np.unique(face_codes.ravel(), return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.argsort(order)
    face_corners = rank[inverse].reshape(face_codes.shape)
    cell, label = np.divmod(unique[order], 4)
    ci, cj = np.divmod(cell, rows + 2)
    corner = np.stack([label, ci - 1, cj - 1], axis=1)
    flat = corner[:, 1:2] * lattice[0] + corner[:, 2:3] * lattice[1] + OFFSET[label]

    def index(p, i, j):
        return rank[np.searchsorted(unique, code(p, i, j))]

    # fold lines are exactly the edges shared by two faces, in order of
    # first appearance; single-face edges are the sheet boundary
    ends = np.stack([face_corners, np.roll(face_corners, -1, axis=1)], axis=2).reshape(-1, 2)
    n = len(order)
    keys, e_first, e_inverse, e_count = np.unique(
        ends.min(axis=1) * n + ends.max(axis=1), return_index=True, return_inverse=True, return_counts=True
    )
    shared = np.flatnonzero(e_count == 2)
    shared = shared[np.argsort(e_first[shared])]
    crease_of = np.full(len(keys), -1)
    crease_of[shared] = np.arange(len(shared))

    # each interior vertex's creases are the edges to its star's corners
    i, j = np.divmod(np.arange(cols * rows)[:, None, None], rows)
    centre = index(np.arange(4)[:, None], i, j)
    across = index(STARS[..., 0], i + STARS[..., 1], j + STARS[..., 2])
    edge = np.minimum(centre, across) * n + np.maximum(centre, across)
    vertex_creases = crease_of[np.searchsorted(keys, edge)].reshape(-1, 4)

    # the patch hinges. The child sits right of the parent's directed edge
    # a -> b, so it turns by +rho about the axis from b toward a
    patch = [np.flatnonzero((face_kind == k) & (face_cell == ij).all(axis=1))[0] for k, *ij in PATCH]
    f, s = np.array(patch)[[parent for _, parent in PATCH_TREE]], np.array(HINGE_SLOT)
    hinge = crease_of[e_inverse.reshape(face_corners.shape)[f, s]]
    a_idx, b_idx = face_corners[f, s], face_corners[f, (s + 1) % 4]
    axis = flat[a_idx] - flat[b_idx]
    axis /= np.linalg.norm(axis, axis=1, keepdims=True)
    hinge_k = np.cross(np.eye(3), axis[:, None])  # row i is e_i x axis

    # each corner is its first slot's kind-corner plus that face's cell; a
    # slot and its corner's first slot differ by one lattice identity
    kc = 4 * face_kind[:, None] + np.arange(4)
    corner_kc, corner_cell = kc.ravel()[first[order]], face_cell[first[order] // 4]
    slots = np.dstack([kc, corner_kc[face_corners], face_cell[:, None] - corner_cell[face_corners]]).reshape(-1, 4)
    identity = slots[np.unique(slots @ (1 << 48, 1 << 32, 1 << 16, 1), return_index=True)[1]]  # distinct rows
    identity = identity[(identity[:, 0] != identity[:, 1]) | identity[:, 2:].any(axis=1)]  # not a first slot

    # corner rows of valley_path(j) (P1, P2) and mountain_path(j) (P4, P3)
    ri, rj = np.arange(cols)[None, :, None], np.arange(rows)[:, None, None]
    plan = FoldPlan(
        corner=corner,
        flat=flat,
        crease_ends=ends[e_first[shared]],
        vertex_creases=vertex_creases,
        coef=_crease_coefficients(gen, vertex_creases, len(shared)),
        patch_hinge=hinge,
        axis_point=flat[b_idx],
        hinge_k=hinge_k,
        hinge_k2=hinge_k @ hinge_k,
        lattice=lattice,
        face_kind=face_kind,
        face_cell=face_cell,
        local=flat[face_corners[patch[:4]]],
        face_corners=face_corners,
        corner_kc=corner_kc,
        corner_cell=corner_cell.astype(float),
        identity=identity,
        mountain_rows=index(np.array([3, 2]), ri, rj).reshape(rows, -1),
        valley_rows=index(np.array([0, 1]), ri, rj).reshape(rows, -1),
    )
    return SquareTwistSheet(generator=gen, rows=rows, cols=cols, pleat_length=D, fold_plan=plan)


# ---------------------------------------------------------------------------
# crease coefficients (build time)


def _crease_coefficients(gen: Vertex4, vertex_creases: np.ndarray, n_creases: int) -> np.ndarray:
    """Half-tangent of each crease per unit driver half-tangent, from the
    closed-form rows of the interior vertices (vertex v has label v % 4 and
    creases ``vertex_creases[v]``). RigidFoldabilityError is raised where
    the two vertices of a crease disagree, where a crease meets no interior
    vertex, and at k = 0: the creases k multiplies would never fold, and
    the one driver would no longer determine the sheet.
    """
    k = mode_constants(gen.alphas[0], math.pi / 2).k1
    if k == 0.0:
        raise RigidFoldabilityError("zero mode constant: the driver does not determine the sheet")
    rows = np.tile(ONE + k * K, (len(vertex_creases) // 4, 1))
    coef = np.full(n_creases, np.nan)
    coef[vertex_creases] = rows
    clash = coef[vertex_creases] != rows
    if clash.any():
        c, want = vertex_creases[clash][0], rows[clash][0]
        raise RigidFoldabilityError(f"inconsistent coefficient at crease {c}: {coef[c]} vs {want}")
    if np.isnan(coef).any():
        raise RigidFoldabilityError(f"crease {np.isnan(coef).argmax()} meets no interior vertex")
    return coef


# ---------------------------------------------------------------------------
# folding to 3D


@dataclass(frozen=True)
class FoldedSheet:
    """A folded sheet as arrays: the mesh (corners in ``sheet.corners``
    order), the fold angle of every crease, the closure residual of every
    interior vertex, the two folded lattice translations and corner plate (0, 0)."""

    sheet: SquareTwistSheet
    major_rho: float
    mesh: FoldedMesh
    rho: np.ndarray  # (C,) in sheet.creases order
    residuals: np.ndarray  # (V,) in sheet.vertices order
    lattice: np.ndarray  # (2, 3) folded cell-to-cell translations R and U
    corner_plate: np.ndarray  # (4, 3) corners of corner plate (0, 0), P1 to P4


def _patch_motion(plan: FoldPlan, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each patch face's motion x -> R x + t: its parent's after its hinge's."""
    angle = rho[plan.patch_hinge][:, None, None]
    Rh = np.eye(3) + np.sin(angle) * plan.hinge_k + (1.0 - np.cos(angle)) * plan.hinge_k2
    th = plan.axis_point - np.einsum("eij,ej->ei", Rh, plan.axis_point)
    R, t = np.zeros((len(PATCH), 3, 3)) + np.eye(3), np.zeros((len(PATCH), 3))  # the square stays
    for e, (child, parent) in enumerate(PATCH_TREE):
        R[child], t[child] = R[parent] @ Rh[e], R[parent] @ th[e] + t[parent]
    return R, t


def _fold(sheet: SquareTwistSheet, major_rho: float) -> FoldedSheet:
    if not -math.pi <= major_rho <= math.pi:
        raise InfeasibleDriverError("major_rho must lie in [-pi, pi]")
    plan = sheet.fold_plan
    rho = coupled_angle(plan.coef, major_rho)
    R, t = _patch_motion(plan, rho)

    # pleat_v(1, 0) and pleat_h(0, 1) are their cell-(0, 0) kinds moved one
    # lattice step, which must be a pure translation
    drift = max(float(np.max(np.abs(R[4] - R[2]))), float(np.max(np.abs(R[5] - R[1]))))
    if not drift <= PLACEMENT_TOL:
        raise MeshConsistencyError(f"cell-to-cell motion has a rotational part {drift:.3e}")
    lattice = np.stack([t[4] - t[2] + R[2] @ plan.lattice[0], t[5] - t[1] + R[1] @ plan.lattice[1]])

    # place the kinds' cell-(0, 0) corners; every face cycle of the sheet
    # holds if each lattice identity does (loop consistency)
    base = (plan.local @ R[:4].transpose(0, 2, 1) + t[:4, None]).reshape(-1, 3)
    a, b, step = plan.identity[:, 0], plan.identity[:, 1], plan.identity[:, 2:]
    worst_spread = float(np.max(np.abs(base.take(a, axis=0) - base.take(b, axis=0) + step @ lattice)))
    if not worst_spread <= PLACEMENT_TOL:
        raise MeshConsistencyError(
            f"internal face-cycle inconsistency: corner spread {worst_spread:.3e}"
        )
    pos = base.take(plan.corner_kc, axis=0) + plan.corner_cell @ lattice  # take: faster than [] here

    # per-vertex loop closure certificates, one per distinct loop
    res = sheet._loops.residuals(rho[plan.loop_creases])[plan.vertex_loop]
    worst = int(np.argmax(res))
    if not res[worst] < RESIDUAL_TOL:
        name = list(sheet.vertices)[worst]
        raise MeshConsistencyError(f"vertex {name} fails closure: residual {res[worst]:.3e}")

    # a face's corners are its flat image x -> R x + t + cell @ lattice within
    # worst_spread and rounding: 9u span (>= 9u |base|), 3u (rows + cols + 2)
    # |lattice|, as cells lie in [0, cols] x [0, rows], identity steps in [-1, 1]^2; size >= |pos|_inf
    m = plan.face_corners.shape[1]
    span = math.sqrt(3) * np.abs(plan.local).max() + np.abs(t[:4]).max()
    size = 3 * span + (sheet.rows + sheet.cols + 2) * np.abs(lattice).max()
    bound = _rounding(m, size) + math.sqrt(3 * m) * worst_spread
    plate = base.take(CORNER_PLATE, axis=0)  # pos of those corners: cell (0, 0) adds zeros
    for a in (rho, res, lattice, plate):
        a.flags.writeable = False
    return FoldedSheet(
        sheet=sheet,
        major_rho=major_rho,
        mesh=FoldedMesh._placed(pos, sheet._mesh_faces, {m: plan.face_corners}, bound, size),
        rho=rho,
        residuals=res,
        lattice=lattice,
        corner_plate=plate,
    )


def fold_sheet(sheet: SquareTwistSheet, major_rho: float):
    """Rigidly fold the sheet at the given major crease angle.

    Fold angles scale the crease coefficients frozen at build time
    (rho = 2 atan(coef * tan(major_rho / 2))). The lattice step must be a
    pure translation, every lattice identity must hold, and each distinct
    interior vertex loop is certified against the closure oracle before
    the mesh is returned.
    """
    return _fold(sheet, major_rho).mesh


# ---------------------------------------------------------------------------
# stacking


@dataclass(frozen=True)
class CwComplex:
    sheet: SquareTwistSheet
    layers: int
    major_rho: float
    variant: str
    meshes: tuple
    glue_map: tuple[tuple[tuple[int, Name], tuple[int, Name]], ...]
    glue_residual: float
    lattice_axes: np.ndarray
    bbox: tuple[float, float, float]


def _lattice_axes(fs: FoldedSheet) -> np.ndarray:
    """Orthonormal frame carried along from the flat layout's axes.

    The third axis is the corner-plate normal (those plates are mutually
    parallel translates in every folded state and play the role of the
    structure's base plane); the first is the in-plane component of the
    folded row translation, which every sheet has, one column or more. At
    zero fold this is the flat frame.
    """
    n3 = cross(fs.corner_plate[1] - fs.corner_plate[0], fs.corner_plate[3] - fs.corner_plate[0])
    n3 = n3 / math.sqrt(n3.dot(n3))  # np.linalg.norm's arithmetic, as below
    e_row = fs.lattice[0]
    e1 = e_row - np.dot(e_row, n3) * n3
    n1 = math.sqrt(e1.dot(e1))
    if n1 < 1e-12:
        e1 = np.array([1.0, 0.0, 0.0])
    else:
        e1 = e1 / n1
    return np.column_stack([e1, cross(n3, e1), n3])


def stack_complex(sheet: SquareTwistSheet, layers: int, major_rho: float, variant: str = PARALLEL) -> CwComplex:
    """Stack folded copies of the sheet, gluing each layer's mountain
    crease rows to the next layer's valley rows. Each glued vertex pair
    realizes the combined vertex of the generator with its dual.

    The layer motion is exact, not fitted. ``parallel`` translates by the
    folded rise from P1(0, 0) to P4(0, 0) and glues every row. ``rotated``
    turns by the half-turn about the normal of mountain row 0's plane and
    glues row 0 alone, reversed. A glued row that misses its partner by
    more than 1e-8 raises GluingError naming the row.
    """
    if layers < 1:
        raise InputError("layers must be at least 1")
    if variant not in (PARALLEL, ROTATED):
        raise InputError(f"variant must be '{PARALLEL}' or '{ROTATED}'")
    fs = _fold(sheet, major_rho)
    plan, pos = sheet.fold_plan, fs.mesh.vertices
    axes = _lattice_axes(fs)
    # valley row to mountain row: P1(0, 0) to P4(0, 0)
    rise = pos[plan.mountain_rows[0, 0]] - pos[plan.valley_rows[0, 0]]
    meshes, glue_residual = [fs.mesh], 0.0
    if layers > 1:
        # mountain rows of the lower layer receive valley rows of the
        # upper; at negative drivers the roles swap, the motion is the same
        if variant == PARALLEL:
            # every cell is a translate and its central square is rigid, so
            # each mountain row is its valley row moved by the rise
            a_rows, moved = plan.mountain_rows, pos.take(plan.valley_rows, axis=0) + rise
            motions = [(None, tk) for tk in itertools.accumulate([rise] * (layers - 1))]
        else:
            # the crease pattern's half-turn about a square centre (P1 <-> P3,
            # P2 <-> P4) negates every fold angle, so it maps the folded sheet
            # to its point reflection and each valley row, reversed, onto a
            # mountain row. On the plane of mountain row 0 (the row
            # translation and a square edge) the half-turn about the plane's
            # normal does the same; the other rows overlap nothing
            a_rows, b_rows = plan.mountain_rows[:1], plan.valley_rows[:1, ::-1]
            n = cross(fs.lattice[0], pos[a_rows[0, 1]] - pos[a_rows[0, 0]])
            R = 2.0 * np.outer(n, n) / np.dot(n, n) - np.eye(3)
            t = pos[a_rows[0, 0]] - R @ pos[b_rows[0, 0]]
            moved = pos.take(b_rows, axis=0) @ R.T + t
            motions = itertools.accumulate([(R, t)] * (layers - 1), lambda m, _: (R @ m[0], R @ m[1] + t))
        d2 = np.square(moved - pos.take(a_rows, axis=0))
        dev = np.sqrt((d2[..., 0] + d2[..., 1] + d2[..., 2]).max(axis=1))  # np.linalg.norm's arithmetic
        row = int(np.argmax(dev))  # a NaN is the maximum
        if not dev[row] <= PLACEMENT_TOL:
            raise GluingError(f"crease row {row} misses its partner by {dev[row]:.3e} (limit {PLACEMENT_TOL})")
        meshes += [fs.mesh.transformed(Rk, tk) for Rk, tk in motions]
        glue_residual = float(dev[row])
    key = (variant, layers)
    if key not in sheet._glue_maps:  # every row, or row 0 with the valley reversed
        rows, step = (range(sheet.rows), 1) if variant == PARALLEL else ((0,), -1)
        pairs = [p for j in rows for p in zip(sheet.mountain_path(j), sheet.valley_path(j)[::step])]
        sheet._glue_maps[key] = tuple(((k - 1, a), (k, b)) for k in range(1, layers) for a, b in pairs)
    return CwComplex(
        sheet=sheet,
        layers=layers,
        major_rho=major_rho,
        variant=variant,
        meshes=tuple(meshes),
        glue_map=sheet._glue_maps[key],
        glue_residual=glue_residual,
        lattice_axes=axes,
        bbox=_lattice_bbox(fs, axes, rise, layers),
    )


def _lattice_bbox(fs: FoldedSheet, axes: np.ndarray, rise: np.ndarray, layers: int):
    """Block dimensions of the complex from its lattice periods.

    The structure is a sheared 3D lattice, so a raw point bounding box
    mixes boundary-plate fringe into every extent and blurs the regime
    boundaries; the intrinsic dimensions are the in-plane cell periods
    times the cell counts, and the per-layer rise along the corner-plate
    normal times the layer count. At zero fold these reduce to the flat
    block dimensions with zero height. ``rise`` is the folded step from
    P1(0, 0) to P4(0, 0), valley row to mountain row.
    """
    sheet = fs.sheet
    v_row, v_col = fs.lattice
    n3 = axes[:, 2]
    return (
        float(sheet.cols * np.linalg.norm(v_row)),
        float(sheet.rows * np.linalg.norm(v_col)),
        float(layers * abs(np.dot(rise, n3))),
    )


def combined_vertex_multisets(cx: CwComplex) -> list[tuple[tuple, tuple]]:
    """Sorted sector angles of each glued vertex pair, measured between
    the crease vectors of the folded layer meshes, for checking that
    glued neighborhoods realize the generator together with its dual."""
    plan, index = cx.sheet.fold_plan, {name: n for n, name in enumerate(cx.sheet.corners)}
    glued = [[(la, index[na]), (lb, index[nb])] for (la, na), (lb, nb) in cx.glue_map]
    layer, centre = np.array(glued, dtype=int).reshape(-1, 2, 2).transpose(2, 0, 1)
    label, i, j = plan.corner[centre].transpose(2, 0, 1)
    ends = plan.crease_ends[plan.vertex_creases[4 * (i * cx.sheet.rows + j) + label]]
    across = ends.sum(axis=-1) - centre[..., None]  # each crease's other end
    pts = np.stack([mesh.vertices for mesh in cx.meshes])
    d = pts[layer[..., None], across] - pts[layer, centre][..., None, :]
    d1 = np.roll(d, 1, axis=2)  # sector k lies between creases k - 1 and k
    angles = np.arctan2(np.linalg.norm(np.cross(d1, d), axis=-1), np.einsum("...i,...i", d1, d))
    return [(tuple(a), tuple(b)) for a, b in np.sort(angles, axis=-1).tolist()]


# ---------------------------------------------------------------------------
# auxetic sweep


@dataclass(frozen=True)
class AuxeticReport:
    samples: tuple[tuple[float, float, float, float], ...]  # (rho, bx, by, bz)
    regimes: tuple[str, ...]  # one per interval between samples


REGIME_2C1E = "2-contract/1-expand"
REGIME_3C = "3-contract"
REGIME_OTHER = "other"


def auxetic_sweep(
    sheet: SquareTwistSheet,
    layers: int,
    rho_min: float,
    rho_max: float,
    n: int,
    variant: str = PARALLEL,
) -> AuxeticReport:
    """Bounding-box extents of the stacked complex over an even driver
    sweep, with each interval classified by the finite-difference signs of
    the three extents."""
    if n < 3:
        raise InputError("n must be at least 3")
    if not (rho_min < rho_max):
        raise InputError("rho_min must be below rho_max")
    samples = []
    for k in range(n):
        rho = rho_min + (rho_max - rho_min) * k / (n - 1)
        cx = stack_complex(sheet, layers, rho, variant)
        samples.append((rho, *cx.bbox))
    regimes = []
    for (r0, x0, y0, z0), (r1, x1, y1, z1) in zip(samples, samples[1:]):
        deltas = (x1 - x0, y1 - y0, z1 - z0)
        dec = sum(1 for d in deltas if d < 0)
        inc = sum(1 for d in deltas if d > 0)
        if dec == 3:
            regimes.append(REGIME_3C)
        elif dec == 2 and inc == 1:
            regimes.append(REGIME_2C1E)
        else:
            regimes.append(REGIME_OTHER)
    return AuxeticReport(samples=tuple(samples), regimes=tuple(regimes))
