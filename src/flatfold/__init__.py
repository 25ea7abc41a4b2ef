"""Flat-foldability analysis for origami crease patterns.

Exact single-vertex tests (closure, mountain-valley parity, equal-angle run
conditions), exact counting of valid mountain-valley assignments, an
exhaustive layer-ordering oracle that cross-validates the fast algorithms at
desk scale, and necessary-condition checks for multi-vertex patterns.
"""

from .core import (
    AngleSequence,
    CountResult,
    CreasePattern,
    MVAssignment,
    MVLabel,
    PatternTally,
    ReductionStep,
    Vertex,
    normalize_pattern,
    vertex_star,
)
from .oracle import (
    LayerModel,
    enumerate_valid,
    fold_directions,
    oracle_count,
    oracle_is_valid,
    run_restricted_valid,
    stacking_valid,
)
from .pattern import (
    AffineMap,
    TraceResult,
    curve_around_vertex,
    generalized_maekawa,
    local_kawasaki_all,
    reflection,
    reflection_trace,
)
from .vertex import (
    RunCondition,
    alternating_sum,
    bounds,
    count_mv,
    crimp_validity,
    enumerate_mv,
    find_runs,
    kawasaki,
    maekawa_check,
    run_validity,
)

__version__ = "0.1.0"

__all__ = [
    "AngleSequence",
    "AffineMap",
    "CountResult",
    "CreasePattern",
    "LayerModel",
    "MVAssignment",
    "MVLabel",
    "PatternTally",
    "ReductionStep",
    "RunCondition",
    "TraceResult",
    "Vertex",
    "alternating_sum",
    "bounds",
    "count_mv",
    "crimp_validity",
    "curve_around_vertex",
    "enumerate_mv",
    "enumerate_valid",
    "find_runs",
    "fold_directions",
    "generalized_maekawa",
    "kawasaki",
    "local_kawasaki_all",
    "maekawa_check",
    "normalize_pattern",
    "oracle_count",
    "oracle_is_valid",
    "reflection",
    "reflection_trace",
    "run_restricted_valid",
    "run_validity",
    "stacking_valid",
    "vertex_star",
]
