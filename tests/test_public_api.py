"""The package's public surface: the names it exports, the README's
library tour run as written, and the README's CLI synopsis against the
parser."""

import argparse
import re
from pathlib import Path

import pytest

import wordgraph
from wordgraph.cli import build_parser

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


def subcommands(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_readme_cli_synopsis_matches_the_parser():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## CLI reference\n\n```\n(.*?)```", text, re.S)
    assert block is not None
    synopsis = block.group(1)
    gen = re.search(r"^wordgraph gen\s+(.*)$", synopsis, re.M)
    assert gen is not None
    named = (
        set(re.findall(r"^wordgraph (\w+)", synopsis, re.M)),
        {alternative.split()[0] for alternative in gen.group(1).split("|")},
        set(re.findall(r"--[a-z][a-z-]*", synopsis)),
    )

    parser = build_parser()
    commands = subcommands(parser)
    families = subcommands(commands["gen"])
    options = {
        option
        for p in [parser, *commands.values(), *families.values()]
        for action in p._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }
    assert named == (set(commands), set(families), options)
