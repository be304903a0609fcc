"""Word-representable temporal graphs.

A word over an alphabet of vertex tokens induces a static graph (edges join
symbols that alternate) and a temporal graph (the word is split into factors
with pairwise distinct symbols; each factor's letters activate their incident
edges for one timestep). This package materialises both, schedules and
validates exploration walks, computes exact optima on small instances,
generates families with predictable structure, and mechanically checks the
structural guarantees of the construction on arbitrary inputs.
"""

from .explore import (
    ExplorationResult,
    OracleResult,
    Schedule,
    ScheduleViolation,
    exploration_bound,
    oracle_explore,
    schedule_explore,
    validate_schedule,
)
from .families import (
    LayeredFamilySpec,
    OutOfFormulaRangeError,
    PathFamilySpec,
    layered_edge_oracle,
    layered_word,
    path_word,
    predicted_path_timesteps,
    predicted_symbol_at,
)
from .formats import (
    ParseError,
    emit_graph,
    emit_reports,
    emit_schedule,
    emit_word,
    parse_schedule,
    parse_word_file,
)
from .graphs import (
    DisconnectedGraphError,
    Edge,
    StaticGraph,
    build_graph,
    diameter,
    distance,
    is_connected,
    make_edge,
    min_degree,
    spanning_walk,
)
from .lemmas import (
    CHECKS,
    LemmaReport,
    check_edge_recurrence,
    check_interleaving,
    check_letter_recurrence,
    check_occurrence_balance,
    check_union_windows,
    run_all,
)
from .temporal import (
    TemporalGraph,
    build_temporal,
    is_edge_active,
    next_activation,
    start_points,
)
from .words import Symbol, Word, alternates, occurrence_indices, power, project

__version__ = "0.1.0"

__all__ = [
    "Symbol",
    "Word",
    "project",
    "alternates",
    "power",
    "occurrence_indices",
    "StaticGraph",
    "Edge",
    "make_edge",
    "build_graph",
    "distance",
    "diameter",
    "min_degree",
    "is_connected",
    "spanning_walk",
    "DisconnectedGraphError",
    "TemporalGraph",
    "start_points",
    "build_temporal",
    "is_edge_active",
    "next_activation",
    "Schedule",
    "ScheduleViolation",
    "ExplorationResult",
    "OracleResult",
    "schedule_explore",
    "validate_schedule",
    "oracle_explore",
    "exploration_bound",
    "PathFamilySpec",
    "LayeredFamilySpec",
    "OutOfFormulaRangeError",
    "path_word",
    "predicted_symbol_at",
    "predicted_path_timesteps",
    "layered_word",
    "layered_edge_oracle",
    "LemmaReport",
    "CHECKS",
    "run_all",
    "check_letter_recurrence",
    "check_edge_recurrence",
    "check_occurrence_balance",
    "check_interleaving",
    "check_union_windows",
    "ParseError",
    "parse_word_file",
    "emit_word",
    "emit_graph",
    "emit_schedule",
    "parse_schedule",
    "emit_reports",
]
