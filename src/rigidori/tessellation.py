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
P3 of each square fold in mode 2, P2 and P4 in mode 1, which is the one
mode assignment that propagates a single degree of freedom consistently
through the whole sheet (all crease half-tangents are +-s or +-k1*s for
s = tan(major_rho / 2)).

Because every half-tangent is linear in s, the mode relations are walked
once, at build time, from s = 1; that reference propagation freezes each
crease's coefficient and certifies the layout. The sheet also stores its
fold plan: the coefficient array, each interior vertex's crease indices,
a spanning tree of the face adjacency with the hinge axis of every tree
edge, and each face's corner indices. Folding then scales the frozen
coefficients (rho = 2 atan(coef * s)), composes the hinge rotations down
the tree, places every corner in one array pass, and certifies every
interior vertex's loop closure in one batch.

Stacking glues the mountain crease row of each layer to the valley
crease row of the next (the rows are the zigzag paths of major creases
through P3/P4 and P1/P2 corners respectively); each glued vertex pair
realizes the combined vertex of the generator and its dual. The rotated
variant reverses the row correspondence, which makes successive sheets
interpenetrate by design.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .closure import LoopEvaluator
from .embedding import PARALLEL, ROTATED, FoldedMesh, _ray_angle
from .errors import (
    GluingError,
    InfeasibleDriverError,
    InputError,
    MeshConsistencyError,
    RigidFoldabilityError,
)
from .flatfold import mode_constants
from .numerics import DEFAULT_TOL, Tolerances, rotation_matrix_about_axis
from .vertex import Curvature, Vertex4, classify

Name = tuple[str, int, int]  # corner label P1..P4 with cell indices


# ---------------------------------------------------------------------------
# sheet construction


@dataclass(frozen=True)
class SheetVertex:
    name: Name
    position: tuple[float, float]
    mode: int
    # crease keys in package order c1..c4 for this vertex's own labeling
    creases: tuple[frozenset, frozenset, frozenset, frozenset]


@dataclass(frozen=True, eq=False)
class FoldPlan:
    """Everything a fold needs that does not depend on the driver angle.

    Arrays are read-only. Corners are indexed in ``sheet.corners`` order
    (first seen over the faces), creases in ``sheet.creases`` order and
    interior vertices in ``sheet.vertices`` order. The face tree is a
    breadth-first spanning tree of the face adjacency, rooted at face 0
    (which carries the identity) and listed in traversal order. Level k
    holds the tree edges whose child face lies k + 1 hinges from the root,
    so every parent is placed by an earlier level; a 12 x 12 sheet has 46
    levels.
    """

    coef: np.ndarray  # (C,) crease half-tangent per unit driver half-tangent
    vertex_creases: np.ndarray  # (V, 4) crease indices in package order c1..c4
    tree_face: np.ndarray  # (F-1,) child face of each tree edge
    tree_parent: np.ndarray  # (F-1,) its parent face
    tree_hinge: np.ndarray  # (F-1,) the crease they share
    axis_point: np.ndarray  # (F-1, 3) a flat point on the hinge
    axis: np.ndarray  # (F-1, 3) unit hinge direction; the child turns by +rho
    levels: tuple[np.ndarray, ...]  # tree-edge indices of each tree level
    flat: np.ndarray  # (N, 3) flat corner positions
    face_corners: np.ndarray  # (F, 4) corner indices per face
    first_slot: np.ndarray  # (N,) flat index into (F, 4) of each corner's first face


@dataclass(frozen=True)
class SquareTwistSheet:
    generator: Vertex4
    rows: int
    cols: int
    pleat_length: float
    twist_angle: float
    corners: dict[Name, tuple[float, float]]
    faces: tuple[tuple[Name, ...], ...]
    face_kinds: tuple[str, ...]
    creases: tuple[frozenset, ...]
    vertices: dict[Name, SheetVertex]
    driver_crease: frozenset
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

    @property
    def mv_assignment(self) -> dict[frozenset, str]:
        """Mountain/valley letter per crease at positive driver angles."""
        return {
            k: ("V" if c > 0 else "M" if c < 0 else "flat")
            for k, c in self.mv_coefficients.items()
        }

    def valley_path(self, j: int) -> list[Name]:
        """Major-crease row through the P1/P2 corners of grid row j."""
        out = []
        for i in range(self.cols):
            out += [("P1", i, j), ("P2", i, j)]
        return out

    def mountain_path(self, j: int) -> list[Name]:
        """Major-crease row through the P4/P3 corners of grid row j."""
        out = []
        for i in range(self.cols):
            out += [("P4", i, j), ("P3", i, j)]
        return out


def _normalize_generator(v: Vertex4, tol: Tolerances) -> tuple[float, Vertex4]:
    """Cyclic shift putting the generator into (a, pi/2, pi-a, pi/2) form."""
    cls = classify(v, tol)
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


def build_square_twist_sheet(
    v: Vertex4,
    rows: int,
    cols: int,
    pleat_length: float = 1.0,
    tol: Tolerances = DEFAULT_TOL,
) -> SquareTwistSheet:
    """Unfolded square-twist crease layout with rows x cols unit cells.

    Every interior vertex (the central-square corners) realizes the
    generator's sector angles; the mountain/valley assignment is frozen
    from a reference propagation at construction time, together with the
    fold plan that every later fold reuses.
    """
    if rows < 1 or cols < 1:
        raise InputError("rows and cols must be at least 1")
    if pleat_length <= 0:
        raise InputError("pleat_length must be positive")
    alpha, gen = _normalize_generator(v, tol)
    D = pleat_length
    lat_r = np.array([1.0 + D * math.sin(alpha), -D * math.cos(alpha)])
    lat_u = np.array([D * math.cos(alpha), 1.0 + D * math.sin(alpha)])
    offs = {"P1": (0.0, 0.0), "P2": (1.0, 0.0), "P3": (1.0, 1.0), "P4": (0.0, 1.0)}

    def pos(name: Name) -> tuple[float, float]:
        p, i, j = name
        xy = i * lat_r + j * lat_u + np.array(offs[p])
        return (float(xy[0]), float(xy[1]))

    faces: list[tuple[Name, ...]] = []
    kinds: list[str] = []
    for i in range(cols):
        for j in range(rows):
            faces.append((("P1", i, j), ("P2", i, j), ("P3", i, j), ("P4", i, j)))
            kinds.append("square")
    for i in range(cols):  # horizontal pleats between (i, j-1) and (i, j)
        for j in range(rows + 1):
            faces.append(
                (("P4", i, j - 1), ("P3", i, j - 1), ("P2", i, j), ("P1", i, j))
            )
            kinds.append("pleat_h")
    for i in range(cols + 1):  # vertical pleats between (i-1, j) and (i, j)
        for j in range(rows):
            faces.append(
                (("P2", i - 1, j), ("P1", i, j), ("P4", i, j), ("P3", i - 1, j))
            )
            kinds.append("pleat_v")
    for i in range(cols + 1):  # corner plates
        for j in range(rows + 1):
            faces.append(
                (("P1", i, j), ("P2", i - 1, j), ("P3", i - 1, j - 1), ("P4", i, j - 1))
            )
            kinds.append("corner")

    corners: dict[Name, tuple[float, float]] = {}
    for f in faces:
        for name in f:
            corners.setdefault(name, pos(name))

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
                vertices[name] = SheetVertex(name, pos(name), mode, creases)

    sheet = SquareTwistSheet(
        generator=gen,
        rows=rows,
        cols=cols,
        pleat_length=D,
        twist_angle=alpha,
        corners=corners,
        faces=tuple(faces),
        face_kinds=tuple(kinds),
        creases=tuple(crease_set),
        vertices=vertices,
        driver_crease=frozenset((("P1", 0, 0), ("P2", -1, 0))),
        mv_coefficients={},
    )
    # freeze the MV assignment from a reference propagation; this also
    # certifies rigid-foldability of the layout once at build time
    sheet = dataclasses.replace(sheet, mv_coefficients=_propagate(sheet, 1.0))
    sheet.fold_plan  # built now, so the first fold does not pay for it
    return sheet


# ---------------------------------------------------------------------------
# fold-angle propagation (build time)


def _mode_state_from_crease(mode: int, k1: float, k2: float, local: int, t: float):
    """Full half-tangent 4-tuple of a vertex given one crease value.

    mode 1: (x, -k1 x, x, k1 x); mode 2: (k2 y, y, -k2 y, y). A crease
    whose mode coefficient vanishes cannot determine the state, which
    raises RigidFoldabilityError.
    """
    pattern = (1.0, -k1, 1.0, k1) if mode == 1 else (k2, 1.0, -k2, 1.0)
    c = pattern[local]
    if c == 0.0:
        raise RigidFoldabilityError(
            f"mode {mode} relations cannot be solved from crease c{local + 1} "
            f"(zero mode constant)"
        )
    x = t / c
    return tuple(p * x for p in pattern)


def _propagate(sheet: SquareTwistSheet, s: float) -> dict[frozenset, float]:
    """Half-tangent of every crease from the driver value s, by walking
    the mode relations vertex to vertex, in time linear in the sheet
    size. Conflicting assignments raise RigidFoldabilityError naming the
    crease."""
    k = mode_constants(sheet.generator.alphas[0], sheet.generator.alphas[1])
    at_crease: dict[frozenset, list[Name]] = {}
    for name, rec in sheet.vertices.items():
        for key in rec.creases:
            at_crease.setdefault(key, []).append(name)
    t_of: dict[frozenset, float] = {sheet.driver_crease: s}
    solved: set[Name] = set()
    queue = list(at_crease.get(sheet.driver_crease, ()))
    while queue:
        name = queue.pop()
        if name in solved:
            continue
        solved.add(name)
        rec = sheet.vertices[name]
        local, key = next((i, c) for i, c in enumerate(rec.creases) if c in t_of)
        state = _mode_state_from_crease(rec.mode, k.k1, k.k2, local, t_of[key])
        for key, val in zip(rec.creases, state):
            if key in t_of:
                old = t_of[key]
                if abs(2.0 * math.atan(val) - 2.0 * math.atan(old)) > 1e-9:
                    raise RigidFoldabilityError(
                        f"inconsistent fold angle reaching crease {sorted(key)}: "
                        f"{2 * math.atan(old):.12g} vs {2 * math.atan(val):.12g}"
                    )
            else:
                t_of[key] = val
                queue.extend(other for other in at_crease[key] if other not in solved)
    # creases not reached by any interior vertex never fold
    for key in sheet.creases:
        if key not in t_of:
            raise RigidFoldabilityError(f"crease {sorted(key)} not reached by propagation")
    return t_of


def _fold_plan(sheet: SquareTwistSheet) -> FoldPlan:
    """Driver-independent fold data: coefficient array, per-vertex crease
    indices, a spanning tree of the face adjacency with its hinge axes,
    and the corner indices of every face."""
    crease_index = {key: c for c, key in enumerate(sheet.creases)}
    corner_index = {name: n for n, name in enumerate(sheet.corners)}
    flat = np.array([(*xy, 0.0) for xy in sheet.corners.values()])
    face_corners = np.array([[corner_index[n] for n in f] for f in sheet.faces])

    # face adjacency over shared creases; breadth-first from face 0. The
    # child sits right of the parent's directed edge a -> b, so it turns
    # by +rho about the axis from b toward a
    edge_faces: dict[frozenset, list[int]] = {}
    for fi, f in enumerate(sheet.faces):
        for a_, b_ in zip(f, f[1:] + f[:1]):
            key = frozenset((a_, b_))
            if key in crease_index:
                edge_faces.setdefault(key, []).append(fi)
    reached = [False] * len(sheet.faces)
    reached[0] = True
    tree: list[tuple[int, int, int, int, int]] = []  # child, parent, hinge, a, b
    levels = []
    frontier = [0]
    while frontier:
        start = len(tree)
        for fi in frontier:
            f = sheet.faces[fi]
            for a_, b_ in zip(f, f[1:] + f[:1]):
                key = frozenset((a_, b_))
                for fj in edge_faces.get(key, ()):
                    if not reached[fj]:
                        reached[fj] = True
                        tree.append((fj, fi, crease_index[key], corner_index[a_], corner_index[b_]))
        frontier = [edge[0] for edge in tree[start:]]
        if frontier:
            levels.append(np.arange(start, len(tree)))
    if not all(reached):
        raise MeshConsistencyError("face adjacency graph is not connected")
    child, parent, hinge, a_idx, b_idx = (np.array(col, dtype=np.intp) for col in zip(*tree))
    axis = flat[a_idx] - flat[b_idx]
    axis /= np.linalg.norm(axis, axis=1, keepdims=True)

    # a corner takes its position from the first face that lists it
    first_slot: dict[int, int] = {}
    for slot, n in enumerate(face_corners.ravel().tolist()):
        first_slot.setdefault(n, slot)

    plan = FoldPlan(
        coef=np.array([sheet.mv_coefficients[key] for key in sheet.creases]),
        vertex_creases=np.array(
            [[crease_index[key] for key in rec.creases] for rec in sheet.vertices.values()]
        ),
        tree_face=child,
        tree_parent=parent,
        tree_hinge=hinge,
        axis_point=flat[b_idx],
        axis=axis,
        levels=tuple(levels),
        flat=flat,
        face_corners=face_corners,
        first_slot=np.array([first_slot[n] for n in range(len(flat))]),
    )
    for value in (*vars(plan).values(), *plan.levels):
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return plan


# ---------------------------------------------------------------------------
# folding to 3D


@dataclass(frozen=True)
class FoldedSheet:
    sheet: SquareTwistSheet
    major_rho: float
    positions: dict[Name, np.ndarray]
    crease_angles: dict[frozenset, float]
    vertex_residuals: dict[Name, float]
    mesh: FoldedMesh


def _fold(sheet: SquareTwistSheet, major_rho: float, tol: Tolerances) -> FoldedSheet:
    if not -math.pi <= major_rho <= math.pi:
        raise InfeasibleDriverError("major_rho must lie in [-pi, pi]")
    plan = sheet.fold_plan
    if abs(abs(major_rho) - math.pi) < 1e-15:
        # s = +-inf: every crease is flat-folded by the sign of its coefficient
        rho = math.copysign(math.pi, major_rho) * np.sign(plan.coef)
    else:
        rho = 2.0 * np.arctan(plan.coef * math.tan(0.5 * major_rho))

    # hinge rotations as homogeneous maps x -> Rh x + th about lines
    # through the flat axis points
    Rh = rotation_matrix_about_axis(plan.axis, rho[plan.tree_hinge])
    H = np.zeros((len(Rh), 4, 4))
    H[:, :3, :3] = Rh
    H[:, :3, 3] = plan.axis_point - np.einsum("eij,ej->ei", Rh, plan.axis_point)
    H[:, 3, 3] = 1.0

    # compose down the tree one level at a time: a child face moves by its
    # parent's map after its own hinge rotation
    M = np.empty((len(plan.face_corners), 4, 4))
    M[0] = np.eye(4)
    for e in plan.levels:
        M[plan.tree_face[e]] = M[plan.tree_parent[e]] @ H[e]

    # place every corner of every face; all faces sharing a corner must
    # agree (loop consistency)
    corners = plan.flat[plan.face_corners]
    placed = (corners @ M[:, :3, :3].transpose(0, 2, 1) + M[:, None, :3, 3]).reshape(-1, 3)
    pos = placed[plan.first_slot]
    worst_spread = float(np.max(np.abs(placed - pos[plan.face_corners.ravel()])))
    if not worst_spread <= 1e-8:
        raise MeshConsistencyError(
            f"internal face-cycle inconsistency: corner spread {worst_spread:.3e}"
        )
    pos.flags.writeable = False

    # per-vertex loop closure certificates
    res = LoopEvaluator(sheet.generator).residuals(rho[plan.vertex_creases])
    worst = int(np.argmax(res))
    if not res[worst] < tol.residual_tol:
        name = list(sheet.vertices)[worst]
        raise MeshConsistencyError(f"vertex {name} fails closure: residual {res[worst]:.3e}")

    return FoldedSheet(
        sheet=sheet,
        major_rho=major_rho,
        positions=dict(zip(sheet.corners, pos)),
        crease_angles=dict(zip(sheet.creases, rho.tolist())),
        vertex_residuals=dict(zip(sheet.vertices, res.tolist())),
        mesh=FoldedMesh(pos, sheet._mesh_faces, {plan.face_corners.shape[1]: plan.face_corners}),
    )


def fold_sheet(sheet: SquareTwistSheet, major_rho: float, tol: Tolerances = DEFAULT_TOL):
    """Rigidly fold the sheet at the given major crease angle.

    Fold angles scale the crease coefficients frozen at build time
    (rho = 2 atan(coef * tan(major_rho / 2))); plates are placed by
    composing the hinge rotations down the face tree of the sheet's fold
    plan, and every interior vertex loop is certified against the closure
    oracle before the mesh is returned.
    """
    return _fold(sheet, major_rho, tol).mesh


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


def _kabsch(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Least-squares proper rigid motion src -> dst and its residual."""
    cs, cd = src.mean(axis=0), dst.mean(axis=0)
    H = (src - cs).T @ (dst - cd)
    U, _, Vt = np.linalg.svd(H)
    S = np.diag([1.0, 1.0, np.sign(np.linalg.det(Vt.T @ U.T))])
    R = Vt.T @ S @ U.T
    t = cd - R @ cs
    res = float(np.max(np.linalg.norm(src @ R.T + t - dst, axis=1)))
    return R, t, res


def _lattice_axes(fs: FoldedSheet) -> np.ndarray:
    """Orthonormal frame carried along from the flat layout's axes.

    The third axis is the corner-plate normal (those plates are mutually
    parallel translates in every folded state and play the role of the
    structure's base plane); the first is the in-plane component of the
    row lattice direction. At zero fold this is the flat frame.
    """
    sheet = fs.sheet
    kc = sheet.face_kinds.index("corner")
    pts = np.array([fs.positions[n] for n in sheet.faces[kc]])
    n3 = np.cross(pts[1] - pts[0], pts[3] - pts[0])
    n3 = n3 / np.linalg.norm(n3)
    if sheet.cols > 1:
        e_row = fs.positions[("P1", 1, 0)] - fs.positions[("P1", 0, 0)]
    else:
        e_row = fs.positions[("P2", 0, 0)] - fs.positions[("P1", 0, 0)]
    e1 = e_row - np.dot(e_row, n3) * n3
    n1 = np.linalg.norm(e1)
    if n1 < 1e-12:
        e1 = np.array([1.0, 0.0, 0.0])
    else:
        e1 = e1 / n1
    return np.column_stack([e1, np.cross(n3, e1), n3])


def stack_complex(
    sheet: SquareTwistSheet,
    layers: int,
    major_rho: float,
    variant: str = PARALLEL,
    tol: Tolerances = DEFAULT_TOL,
) -> CwComplex:
    """Stack folded copies of the sheet, gluing each layer's mountain
    crease rows to the next layer's valley rows by least-squares rigid
    registration of the row polylines (accepted only at machine-precision
    residual). Each glued vertex pair realizes the combined vertex of the
    generator with its dual."""
    if layers < 1:
        raise InputError("layers must be at least 1")
    if variant not in (PARALLEL, ROTATED):
        raise InputError(f"variant must be '{PARALLEL}' or '{ROTATED}'")
    fs = _fold(sheet, major_rho, tol)
    axes = _lattice_axes(fs)

    if layers == 1:
        bbox = _lattice_bbox(fs, axes, 1)
        return CwComplex(
            sheet=sheet,
            layers=1,
            major_rho=major_rho,
            variant=variant,
            meshes=(fs.mesh,),
            glue_map=(),
            glue_residual=0.0,
            lattice_axes=axes,
            bbox=bbox,
        )

    # mountain rows of the lower layer receive valley rows of the upper;
    # at negative drivers the roles swap, the registration is identical
    j_glue = 0
    a_names = sheet.mountain_path(j_glue)
    b_names = sheet.valley_path(j_glue)
    if variant == ROTATED:
        b_names = list(reversed(b_names))
    A = np.array([fs.positions[n] for n in a_names])
    B = np.array([fs.positions[n] for n in b_names])
    R, t, res = _kabsch(B, A)
    if res > 1e-8:
        raise GluingError(f"crease-row registration residual {res:.3e} exceeds 1e-8")

    # rows that actually coincide under the registration; the parallel
    # variant preserves the row lattice so every row glues, the rotated
    # variant reverses it so only the registered row overlaps on a
    # finite sheet
    glued_rows = []
    for j in range(sheet.rows):
        av = sheet.mountain_path(j)
        bv = sheet.valley_path(j)
        if variant == ROTATED:
            bv = list(reversed(bv))
        Aj = np.array([fs.positions[n] for n in av])
        Bj = np.array([fs.positions[n] for n in bv])
        dev = float(np.max(np.linalg.norm(Bj @ R.T + t - Aj, axis=1)))
        if dev <= 1e-8:
            glued_rows.append((j, av, bv, dev))
    if not glued_rows:
        raise GluingError("no crease row coincides under the registration")

    meshes = [fs.mesh]
    glue_pairs = []
    Rk, tk = np.eye(3), np.zeros(3)
    for layer in range(1, layers):
        Rk, tk = R @ Rk, R @ tk + t
        meshes.append(fs.mesh.transformed(Rk, tk))
        for j, av, bv, _ in glued_rows:
            for na, nb in zip(av, bv):
                glue_pairs.append(((layer - 1, na), (layer, nb)))
    worst = max(dev for _, _, _, dev in glued_rows)
    bbox = _lattice_bbox(fs, axes, layers)
    return CwComplex(
        sheet=sheet,
        layers=layers,
        major_rho=major_rho,
        variant=variant,
        meshes=tuple(meshes),
        glue_map=tuple(glue_pairs),
        glue_residual=worst,
        lattice_axes=axes,
        bbox=bbox,
    )


def _lattice_bbox(fs: FoldedSheet, axes: np.ndarray, layers: int):
    """Block dimensions of the complex from its lattice periods.

    The structure is a sheared 3D lattice, so a raw point bounding box
    mixes boundary-plate fringe into every extent and blurs the regime
    boundaries; the intrinsic dimensions are the in-plane cell periods
    times the cell counts, and the per-layer rise along the corner-plate
    normal times the layer count. At zero fold these reduce to the flat
    block dimensions with zero height.
    """
    sheet = fs.sheet
    p0 = fs.positions[("P1", 0, 0)]
    v_row = fs.positions[("P1", 1, 0)] - p0
    v_col = fs.positions[("P1", 0, 1)] - p0
    rise = fs.positions[("P4", 0, 0)] - p0  # valley row to mountain row
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
    tol: Tolerances = DEFAULT_TOL,
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
        cx = stack_complex(sheet, layers, rho, variant, tol)
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
