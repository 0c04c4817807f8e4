"""The paper's primary contribution: overlay scenarios, the overlay
constraint graph, pseudo-coloring, linear-time color flipping, and cut
conflict analysis."""

from .relation import Direction2, GeometryRelation, classify_relation
from .scenarios import (
    HARD,
    ScenarioType,
    ScenarioRule,
    SCENARIO_RULES,
    scenario_for_relation,
)
from .scenario_detect import (
    DetectedScenario,
    ScenarioDetector,
    ShapeRecord,
    VectorScenarioDetector,
)
from .edges import ConstraintEdge, EdgeKind
from .edge_store import EdgeStore
from .odd_cycle import ParityUnionFind
from .constraint_graph import OverlayConstraintGraph
from .constraint_graph_soa import SoAOverlayConstraintGraph
from .pseudo_color import pseudo_color
from .color_flip import flip_colors, optimal_tree_coloring
from .cut_conflict import CutConflict, CutConflictChecker

__all__ = [
    "Direction2",
    "GeometryRelation",
    "classify_relation",
    "HARD",
    "ScenarioType",
    "ScenarioRule",
    "SCENARIO_RULES",
    "scenario_for_relation",
    "DetectedScenario",
    "ScenarioDetector",
    "ShapeRecord",
    "VectorScenarioDetector",
    "ConstraintEdge",
    "EdgeKind",
    "EdgeStore",
    "ParityUnionFind",
    "OverlayConstraintGraph",
    "SoAOverlayConstraintGraph",
    "pseudo_color",
    "flip_colors",
    "optimal_tree_coloring",
    "CutConflict",
    "CutConflictChecker",
]
