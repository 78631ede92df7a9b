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
around cell (0, 0). Every interior vertex folds alike, so the
folded sheet is periodic: the patch's neighbours in cells (1, 0) and
(0, 1) give the two folded lattice translations, and every face is placed
in one broadcast as its kind's cell-(0, 0) motion plus its cell's
translation. A lattice step with a rotational part above 1e-8 raises.
Every corner's placements by all of its faces must agree within 1e-8, so
every face cycle of the sheet is checked, not only the patch's, and each
distinct interior vertex loop is certified once, in one batch. Each face
is flat (z = 0) and placed rigidly, so the mesh carries a planarity bound
from rounding and the corner spread instead of measuring it.

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
import math
from dataclasses import dataclass

import numpy as np

from .closure import LoopEvaluator
from .embedding import PARALLEL, ROTATED, FoldedMesh, _ray_angle, _rounding
from .errors import (
    GluingError,
    InfeasibleDriverError,
    InputError,
    MeshConsistencyError,
    RigidFoldabilityError,
)
from .flatfold import coupled_angle, mode_constants
from .numerics import RESIDUAL_TOL, cross, rotation_matrix_about_axis
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


KINDS = ("square", "pleat_h", "pleat_v", "corner")
# the hinge patch as (kind, i, j): one face of each kind in cell (0, 0),
# then pleat_v(1, 0) and pleat_h(0, 1), which every sheet has and which
# give the lattice translations
PATCH = ((0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (2, 1, 0), (1, 0, 1))
# the patch hinge tree as (child, parent) pairs, parents placed first; the
# square carries the identity
PATCH_TREE = ((1, 0), (2, 0), (4, 0), (5, 0), (3, 2))


@dataclass(frozen=True, eq=False)
class FoldPlan:
    """Everything a fold needs that does not depend on the driver angle.

    Arrays are read-only. Corners are indexed in ``sheet.corners`` order,
    creases in ``sheet.creases`` order, interior vertices in
    ``sheet.vertices`` order and faces in ``sheet.faces`` order; kinds
    index KINDS. Hinge e of PATCH_TREE turns its child about the edge it
    shares with its parent. A face's cell is the cell of its one P1
    corner. A corner takes its position from the first face that lists it,
    so the square of cell (0, 0) keeps its flat corners exactly.
    """

    coef: np.ndarray  # (C,) crease half-tangent per unit driver half-tangent
    loop_creases: np.ndarray  # (L, 4) creases c1..c4 of one vertex per distinct coef row
    vertex_loop: np.ndarray  # (V,) each vertex's coef row in loop_creases; equal rows fold alike
    patch_hinge: np.ndarray  # (5,) crease of each PATCH_TREE hinge
    axis_point: np.ndarray  # (5, 3) a flat point on the hinge
    axis: np.ndarray  # (5, 3) unit hinge direction; the child turns by +rho
    lattice: np.ndarray  # (2, 3) flat lattice vectors R and U
    face_kind: np.ndarray  # (F,) kind of each face
    face_cell: np.ndarray  # (F, 2) lattice cell (i, j) of each face
    local: np.ndarray  # (F, 4, 3) flat corners shifted back into cell (0, 0)
    face_corners: np.ndarray  # (F, 4) corner indices per face
    first_slot: np.ndarray  # (N,) flat index into (F, 4) of each corner's first face
    mountain_rows: np.ndarray  # (rows, 2 cols) corner indices of mountain_path(j)
    valley_rows: np.ndarray  # (rows, 2 cols) corner indices of valley_path(j)

    def __post_init__(self):  # _fold carries every face's planarity on this
        if self.local[..., 2].any():
            raise MeshConsistencyError("fold plan corners must lie at z = 0")


@dataclass(frozen=True)
class SquareTwistSheet:
    generator: Vertex4
    rows: int
    cols: int
    pleat_length: float
    corners: dict[Name, tuple[float, float]]
    faces: tuple[tuple[Name, ...], ...]
    face_kinds: tuple[str, ...]
    creases: tuple[frozenset, ...]
    vertices: dict[Name, SheetVertex]
    mv_coefficients: dict[frozenset, float]

    @functools.cached_property
    def fold_plan(self) -> FoldPlan:
        """Driver-independent fold data, built on first use from this
        sheet's own fields, so a copy made with ``dataclasses.replace``
        gets a plan of its own."""
        return _fold_plan(self)

    @functools.cached_property
    def _mesh_faces(self) -> tuple[tuple[int, ...], ...]:
        """The faces of every folded mesh: the plan's face corners as tuples."""
        return tuple(map(tuple, self.fold_plan.face_corners.tolist()))

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
    lat_r = np.array([1.0 + D * math.sin(alpha), -D * math.cos(alpha)])
    lat_u = np.array([D * math.cos(alpha), 1.0 + D * math.sin(alpha)])
    offs = {"P1": (0.0, 0.0), "P2": (1.0, 0.0), "P3": (1.0, 1.0), "P4": (0.0, 1.0)}

    def pos(name: Name) -> tuple[float, float]:
        p, i, j = name
        xy = i * lat_r + j * lat_u + np.array(offs[p])
        return (float(xy[0]), float(xy[1]))

    # each plate kind over its cells, corners as (corner, di, dj) cell
    # offsets; the pleats join cells (i, j-1) and (i, j), or (i-1, j) and (i, j)
    plates = (
        ("square", cols, rows, (("P1", 0, 0), ("P2", 0, 0), ("P3", 0, 0), ("P4", 0, 0))),
        ("pleat_h", cols, rows + 1, (("P4", 0, -1), ("P3", 0, -1), ("P2", 0, 0), ("P1", 0, 0))),
        ("pleat_v", cols + 1, rows, (("P2", -1, 0), ("P1", 0, 0), ("P4", 0, 0), ("P3", -1, 0))),
        ("corner", cols + 1, rows + 1, (("P1", 0, 0), ("P2", -1, 0), ("P3", -1, -1), ("P4", 0, -1))),
    )
    faces: list[tuple[Name, ...]] = []
    kinds: list[str] = []
    for kind, ni, nj, star in plates:
        for i in range(ni):
            for j in range(nj):
                faces.append(tuple([(p, i + di, j + dj) for p, di, dj in star]))
                kinds.append(kind)

    # every corner once, in order of first appearance
    corners = {name: pos(name) for name in dict.fromkeys(n for f in faces for n in f)}

    edge_count: dict[frozenset, int] = {}
    for f in faces:
        for a_, b_ in zip(f, f[1:] + f[:1]):
            edge_count[frozenset((a_, b_))] = edge_count.get(frozenset((a_, b_)), 0) + 1
    # fold lines are exactly the edges shared by two faces; single-face
    # edges are the sheet boundary
    crease_set = [k for k, c in edge_count.items() if c == 2]

    # package-order crease neighbours (c1..c4), as (corner, di, dj) cell
    # offsets, and mode of each interior vertex
    stars = {
        "P1": (2, (("P4", 0, 0), ("P2", -1, 0), ("P4", 0, -1), ("P2", 0, 0))),
        "P2": (1, (("P1", 0, 0), ("P3", 0, -1), ("P1", 1, 0), ("P3", 0, 0))),
        "P3": (2, (("P2", 0, 0), ("P4", 1, 0), ("P2", 0, 1), ("P4", 0, 0))),
        "P4": (1, (("P3", 0, 0), ("P1", 0, 1), ("P3", -1, 0), ("P1", 0, 0))),
    }
    vertices: dict[Name, SheetVertex] = {}
    for i in range(cols):
        for j in range(rows):
            for p, (mode, star) in stars.items():
                name = (p, i, j)
                creases = tuple(frozenset((name, (q, i + di, j + dj))) for q, di, dj in star)
                vertices[name] = SheetVertex(mode, creases)

    sheet = SquareTwistSheet(
        generator=gen,
        rows=rows,
        cols=cols,
        pleat_length=D,
        corners=corners,
        faces=tuple(faces),
        face_kinds=tuple(kinds),
        creases=tuple(crease_set),
        vertices=vertices,
        mv_coefficients={},
    )
    sheet = dataclasses.replace(sheet, mv_coefficients=_crease_coefficients(sheet))
    sheet.fold_plan  # built now, so the first fold does not pay for it
    return sheet


# ---------------------------------------------------------------------------
# crease coefficients (build time)


def _crease_coefficients(sheet: SquareTwistSheet) -> dict[frozenset, float]:
    """Half-tangent of every crease per unit driver half-tangent, in
    ``sheet.creases`` order, from the closed-form rows of its interior
    vertices (module docstring). RigidFoldabilityError is raised where the
    two vertices of a crease disagree, where a crease meets no interior
    vertex, and at k = 0: the creases k multiplies would never fold, and
    the one driver would no longer determine the sheet.
    """
    k = mode_constants(sheet.generator.alphas[0], math.pi / 2).k1
    if k == 0.0:
        raise RigidFoldabilityError("zero mode constant: the driver does not determine the sheet")
    patterns = {1: (1.0, -k, 1.0, k), 2: (-k, 1.0, k, 1.0)}
    coef: dict[frozenset, float] = {}
    for name, rec in sheet.vertices.items():
        sign = 1.0 if name[0] in ("P1", "P2") else -1.0
        for key, c in zip(rec.creases, patterns[rec.mode]):
            c *= sign
            if coef.setdefault(key, c) != c:
                raise RigidFoldabilityError(
                    f"inconsistent coefficient at crease {sorted(key)}: {coef[key]!r} vs {c!r}"
                )
    for key in sheet.creases:
        if key not in coef:
            raise RigidFoldabilityError(f"crease {sorted(key)} meets no interior vertex")
    return {key: coef[key] for key in sheet.creases}


def _fold_plan(sheet: SquareTwistSheet) -> FoldPlan:
    """Driver-independent fold data: coefficient array, per-vertex crease
    indices, the patch hinge tree with its axes, and every face's kind,
    cell, corner indices and flat corners shifted back into cell (0, 0)."""
    crease_index = {key: c for c, key in enumerate(sheet.creases)}
    corner_index = {name: n for n, name in enumerate(sheet.corners)}
    flat = np.array([(*xy, 0.0) for xy in sheet.corners.values()])
    face_corners = np.array([[corner_index[n] for n in f] for f in sheet.faces])
    face_kind = np.array([KINDS.index(k) for k in sheet.face_kinds])
    face_cell = np.array([next(n[1:] for n in f if n[0] == "P1") for f in sheet.faces])
    origin = flat[corner_index[("P1", 0, 0)]]
    lattice = flat[[corner_index[("P1", 1, 0)], corner_index[("P1", 0, 1)]]] - origin
    local = flat[face_corners] - (face_cell @ lattice)[:, None]

    # the patch hinges. The child sits right of the parent's directed edge
    # a -> b, so it turns by +rho about the axis from b toward a
    face_at = {(k, i, j): fi for fi, (k, (i, j)) in enumerate(zip(face_kind.tolist(), face_cell.tolist()))}
    patch = [sheet.faces[face_at[key]] for key in PATCH]
    hinges = []
    for child, parent in PATCH_TREE:
        f = patch[parent]
        a_, b_ = next(e for e in zip(f, f[1:] + f[:1]) if set(e) <= set(patch[child]))
        hinges.append((crease_index[frozenset((a_, b_))], corner_index[a_], corner_index[b_]))
    hinge, a_idx, b_idx = np.array(hinges).T
    axis = flat[a_idx] - flat[b_idx]
    axis /= np.linalg.norm(axis, axis=1, keepdims=True)

    first_slot: dict[int, int] = {}
    for slot, n in enumerate(face_corners.ravel().tolist()):
        first_slot.setdefault(n, slot)

    def rows(path) -> np.ndarray:
        return np.array([[corner_index[n] for n in path(j)] for j in range(sheet.rows)])

    coef = np.array([sheet.mv_coefficients[key] for key in sheet.creases])
    creases = np.array([[crease_index[key] for key in rec.creases] for rec in sheet.vertices.values()])
    coef_rows = list(map(tuple, coef[creases].tolist()))
    vertex_of = {row: v for v, row in enumerate(coef_rows)}  # each distinct row -> a vertex with it
    loop_of = {row: k for k, row in enumerate(vertex_of)}
    plan = FoldPlan(
        coef=coef,
        loop_creases=creases[list(vertex_of.values())],
        vertex_loop=np.array([loop_of[row] for row in coef_rows]),
        patch_hinge=hinge,
        axis_point=flat[b_idx],
        axis=axis,
        lattice=lattice,
        face_kind=face_kind,
        face_cell=face_cell,
        local=local,
        face_corners=face_corners,
        first_slot=np.array([first_slot[n] for n in range(len(flat))]),
        mountain_rows=rows(sheet.mountain_path),
        valley_rows=rows(sheet.valley_path),
    )
    for value in vars(plan).values():
        value.flags.writeable = False
    return plan


# ---------------------------------------------------------------------------
# folding to 3D


@dataclass(frozen=True)
class FoldedSheet:
    """A folded sheet as arrays: the mesh (corners in ``sheet.corners``
    order), the fold angle of every crease, the closure residual of every
    interior vertex and the two folded lattice translations."""

    sheet: SquareTwistSheet
    major_rho: float
    mesh: FoldedMesh
    rho: np.ndarray  # (C,) in sheet.creases order
    residuals: np.ndarray  # (V,) in sheet.vertices order
    lattice: np.ndarray  # (2, 3) folded cell-to-cell translations R and U


def _fold(sheet: SquareTwistSheet, major_rho: float) -> FoldedSheet:
    if not -math.pi <= major_rho <= math.pi:
        raise InfeasibleDriverError("major_rho must lie in [-pi, pi]")
    plan = sheet.fold_plan
    rho = coupled_angle(plan.coef, major_rho)

    # compose the patch hinges, each a homogeneous map x -> Rh x + th about
    # a line through its flat axis point: a child face moves by its
    # parent's map after its own hinge rotation
    Rh = rotation_matrix_about_axis(plan.axis, rho[plan.patch_hinge])
    H = np.zeros((len(Rh), 4, 4))
    H[:, :3, :3] = Rh
    H[:, :3, 3] = plan.axis_point - np.einsum("eij,ej->ei", Rh, plan.axis_point)
    H[:, 3, 3] = 1.0
    M = np.empty((len(PATCH), 4, 4))
    M[0] = np.eye(4)
    for e, (child, parent) in enumerate(PATCH_TREE):
        M[child] = M[parent] @ H[e]
    R, t = M[:, :3, :3], M[:, :3, 3]

    # pleat_v(1, 0) and pleat_h(0, 1) are their cell-(0, 0) kinds moved one
    # lattice step, which must be a pure translation
    drift = max(float(np.max(np.abs(R[4] - R[2]))), float(np.max(np.abs(R[5] - R[1]))))
    if not drift <= PLACEMENT_TOL:
        raise MeshConsistencyError(f"cell-to-cell motion has a rotational part {drift:.3e}")
    lattice = np.stack([t[4] - t[2] + R[2] @ plan.lattice[0], t[5] - t[1] + R[1] @ plan.lattice[1]])

    # place every face by its kind's motion and its cell's translation; all
    # faces sharing a corner must agree (loop consistency)
    kind = plan.face_kind
    rotations = np.ascontiguousarray(R.transpose(0, 2, 1))[kind]  # contiguous: a faster matmul
    shift = t[kind] + plan.face_cell @ lattice
    placed = plan.local @ rotations + shift[:, None]
    pos = placed.reshape(-1, 3)[plan.first_slot]
    worst_spread = float(np.max(np.abs(placed - pos[plan.face_corners])))
    if not worst_spread <= PLACEMENT_TOL:
        raise MeshConsistencyError(
            f"internal face-cycle inconsistency: corner spread {worst_spread:.3e}"
        )

    # per-vertex loop closure certificates, one per distinct loop
    res = LoopEvaluator(sheet.generator).residuals(rho[plan.loop_creases])[plan.vertex_loop]
    worst = int(np.argmax(res))
    if not res[worst] < RESIDUAL_TOL:
        name = list(sheet.vertices)[worst]
        raise MeshConsistencyError(f"vertex {name} fails closure: residual {res[worst]:.3e}")

    # flat faces moved rigidly; a mesh face's corners are within worst_spread
    m = plan.face_corners.shape[1]
    size = math.sqrt(3) * np.abs(plan.local).max() + np.abs(shift).max()
    bound = _rounding(m, size) + math.sqrt(3 * m) * worst_spread
    for a in (rho, res, lattice):
        a.flags.writeable = False
    return FoldedSheet(
        sheet=sheet,
        major_rho=major_rho,
        mesh=FoldedMesh._placed(pos, sheet._mesh_faces, {m: plan.face_corners}, bound),
        rho=rho,
        residuals=res,
        lattice=lattice,
    )


def fold_sheet(sheet: SquareTwistSheet, major_rho: float):
    """Rigidly fold the sheet at the given major crease angle.

    Fold angles scale the crease coefficients frozen at build time
    (rho = 2 atan(coef * tan(major_rho / 2))). The hinges of one cell's
    patch are composed, and every plate is placed by its kind's motion in
    cell (0, 0) plus its cell's folded lattice translation. The lattice
    motion must be a pure translation, every corner's placements must
    agree, and every interior vertex loop is certified against the closure
    oracle before the mesh is returned, each distinct loop once.
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
    pts = fs.mesh.vertices[fs.sheet.fold_plan.face_corners[fs.sheet.face_kinds.index("corner")]]
    n3 = cross(pts[1] - pts[0], pts[3] - pts[0])
    n3 = n3 / np.linalg.norm(n3)
    e_row = fs.lattice[0]
    e1 = e_row - np.dot(e_row, n3) * n3
    n1 = np.linalg.norm(e1)
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
            a_rows, b_rows = plan.mountain_rows, plan.valley_rows
            R, t = np.eye(3), rise
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
        dev = np.max(np.linalg.norm(pos[b_rows] @ R.T + t - pos[a_rows], axis=2), axis=1)
        row = int(np.argmax(dev))  # a NaN is the maximum
        if not dev[row] <= PLACEMENT_TOL:
            raise GluingError(f"crease row {row} misses its partner by {dev[row]:.3e} (limit {PLACEMENT_TOL})")
        Rk, tk = np.eye(3), np.zeros(3)
        for _ in range(1, layers):
            Rk, tk = R @ Rk, R @ tk + t
            meshes.append(fs.mesh.transformed(Rk, tk))
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
    corner_index = {name: n for n, name in enumerate(cx.sheet.corners)}

    def sectors(layer: int, name: Name) -> tuple[float, ...]:
        pts = cx.meshes[layer].vertices
        ends = [next(n for n in key if n != name) for key in cx.sheet.vertices[name].creases]
        d = pts[[corner_index[n] for n in ends]] - pts[corner_index[name]]
        return tuple(sorted(_ray_angle(d[k - 1], d[k]) for k in range(4)))

    return [(sectors(la, na), sectors(lb, nb)) for (la, na), (lb, nb) in cx.glue_map]


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
