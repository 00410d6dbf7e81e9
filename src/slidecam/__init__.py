"""Sliding-camera guarding of orthogonal polygons.

A sliding camera travels along an axis-parallel segment inside the polygon
and sees every point whose perpendicular onto the segment stays inside.
The package discretizes the problem (pixelation, crosses, guard segments),
provides exact, greedy, net-sampling and treewidth-based solvers, and ships
generators for the standard tight families.
"""

from .errors import (
    BudgetInsufficient,
    CapExceeded,
    DegenerateRing,
    GenerationFailed,
    HoleOutsideOuter,
    Infeasible,
    NonOrthogonalEdge,
    NotPathSegmentation,
    PolygonError,
    PreconditionViolated,
    SelfIntersection,
    SlidecamError,
    TooLargeForOracle,
    WidthExceeded,
)
from .geometry import (
    HORIZONTAL,
    VERTICAL,
    CoverageReport,
    Cross,
    GuardSegment,
    OrthoPolygon,
    Pixelation,
    Slice,
    SliceSegment,
    guard_segments,
    hits,
    pixelate,
    segmentation,
    segmentation_dual,
    validate_polygon,
    verify_cover,
    visible_region,
)
from .hitset import (
    AuxiliaryGraph,
    HittingInstance,
    SegmentCoveringInstance,
    SupportGraph,
    build_auxiliary_graph,
    build_instance,
    build_support_graph,
    to_segment_covering,
)
from .exact import Solution, brute_force_min_cover, greedy_cover, make_solution
from .approx import ApproxReport, NetRequest, bg_hitting_set, combined_net, find_net, is_net
from .treewidth import (
    NumberedDecomposition,
    TreeDecomposition,
    decompose,
    dp_solve,
    dual_graph,
    is_tree,
    lift_decomposition,
    validate_decomposition,
)
from .gallery import (
    BoundReport,
    PeelStep,
    check_bounds,
    gen_comb,
    gen_path_lb,
    gen_random_simple,
    gen_thin_tree,
    guard_small,
    path_guard,
    path_guard_steps,
    polygon_from_cells,
)
from .render import render_svg
from .solve import solve_polygon

__version__ = "0.1.0"
