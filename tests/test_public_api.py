"""The package's public surface: the names it exports, and the README's
library tour run as written."""

import re
from pathlib import Path

import pytest

import wordgraph

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC_NAMES = [
    "CHECKS",
    "DisconnectedGraphError",
    "ExplorationResult",
    "LemmaReport",
    "OracleResult",
    "ParseError",
    "Schedule",
    "ScheduleViolation",
    "StaticGraph",
    "Symbol",
    "TemporalGraph",
    "Word",
    "build_graph",
    "build_temporal",
    "diameter",
    "emit_graph",
    "emit_reports",
    "emit_schedule",
    "emit_word",
    "exploration_bound",
    "is_connected",
    "layered_word",
    "next_activation",
    "oracle_explore",
    "parse_schedule",
    "parse_word_file",
    "path_word",
    "power",
    "run_all",
    "schedule_explore",
    "spanning_walk",
    "start_points",
    "validate_schedule",
]

# Deleted aliases and wrappers, the references now kept beside the tests
# that compare against them, and names that only the tests use, which they
# import from the modules that define them.
NOT_EXPORTED = [
    "alternates",
    "project",
    "is_edge_active",
    "occurrence_indices",
    "distance",
    "PathFamilySpec",
    "LayeredFamilySpec",
    "OutOfFormulaRangeError",
    "predicted_symbol_at",
    "predicted_path_timesteps",
    "layered_edge_oracle",
    "check_letter_recurrence",
    "check_edge_recurrence",
    "check_occurrence_balance",
    "check_interleaving",
    "check_union_windows",
    "Edge",
    "make_edge",
    "min_degree",
]


def test_exported_names_are_pinned_and_resolve():
    assert sorted(wordgraph.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(wordgraph, name) is not None


@pytest.mark.parametrize("name", NOT_EXPORTED)
def test_removed_names_are_not_importable(name):
    with pytest.raises(ImportError):
        exec(f"from wordgraph import {name}", {})


def test_readme_library_tour_runs_as_written():
    text = README.read_text(encoding="utf-8")
    tour = re.search(r"## Library tour\n\n```python\n(.*?)```", text, re.S)
    assert tour is not None
    exec(compile(tour.group(1), str(README), "exec"), {})
