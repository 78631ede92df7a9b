"""rigidori: degree-4 rigid origami vertex kinematics and constructions.

Library layout:
  numerics      rotation algebra, angle utilities, tolerance policy
  vertex        the degree-4 vertex type, classification, duality map
  flatfold      closed-form modes of Euclidean flat-foldable vertices
  kinematics    general vertex relations, state solving, curve tracing
  closure       independent rotation-loop closure oracle
  embedding     3D realization, combined non-manifold vertices
  tessellation  square-twist sheets, stacked CW complexes, auxetic sweep
  cli           command-line interface and file formats
"""

__version__ = "0.1.0"

from .numerics import DEFAULT_TOL, Tolerances, wrap_angle
from .vertex import Curvature, FoldState, Vertex4, VertexClass, classify, cyclically_equal, dual
from .flatfold import MODE_1, MODE_2, ModeConstants, fold_mode, mode_constants
from .closure import ClosureReport, closure_residual, oracle_solve
from .kinematics import (
    ALL_BRANCHES,
    BRANCH_MM,
    BRANCH_MP,
    BRANCH_PM,
    BRANCH_PP,
    MODE1_BRANCH,
    MODE2_BRANCH,
    BranchLabel,
    ConfigCurve,
    DualityReport,
    FoldingRange,
    adjacent_origin_slopes,
    adjacent_residual,
    dual_state,
    folding_range,
    opposite_t_squared,
    solve_state,
    trace_curve,
    verify_duality,
)
from .embedding import (
    CombinedVertex,
    FoldedMesh,
    FoldedVertexGeometry,
    combined_mesh,
    embed_vertex,
    split_combined,
    synchronize,
)
from .tessellation import (
    AuxeticReport,
    CwComplex,
    SquareTwistSheet,
    auxetic_sweep,
    build_square_twist_sheet,
    fold_sheet,
    stack_complex,
)

__all__ = [name for name in dir() if not name.startswith("_")]
