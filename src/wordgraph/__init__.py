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
from .families import layered_word, path_word
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
    StaticGraph,
    build_graph,
    diameter,
    is_connected,
    spanning_walk,
)
from .lemmas import CHECKS, LemmaReport, run_all
from .temporal import (
    TemporalGraph,
    build_temporal,
    next_activation,
    start_points,
)
from .words import Symbol, Word, power

__version__ = "0.1.0"

__all__ = [
    "Symbol",
    "Word",
    "power",
    "StaticGraph",
    "build_graph",
    "diameter",
    "is_connected",
    "spanning_walk",
    "DisconnectedGraphError",
    "TemporalGraph",
    "start_points",
    "build_temporal",
    "next_activation",
    "Schedule",
    "ScheduleViolation",
    "ExplorationResult",
    "OracleResult",
    "schedule_explore",
    "validate_schedule",
    "oracle_explore",
    "exploration_bound",
    "path_word",
    "layered_word",
    "LemmaReport",
    "CHECKS",
    "run_all",
    "ParseError",
    "parse_word_file",
    "emit_word",
    "emit_graph",
    "emit_schedule",
    "parse_schedule",
    "emit_reports",
]
