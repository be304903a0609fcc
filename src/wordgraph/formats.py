"""File formats and serialisation: word files, graph DOT/JSON, schedule and
report JSON.

Word files are whitespace-separated tokens; lines starting with '#' are
comments. All emitters order their output lexicographically so results are
byte-deterministic, and parse/emit round-trips reproduce the same value.
"""

from __future__ import annotations

import json
from typing import Any

from .explore import Schedule
from .graphs import StaticGraph
from .lemmas import LemmaReport
from .temporal import TemporalGraph
from .words import Symbol, Word


class ParseError(ValueError):
    """Input text that does not encode the expected document."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


def parse_word_file(text: str, chars: bool = False) -> Word:
    """Read a word document. With ``chars`` every non-space character of a
    content line is one symbol; otherwise tokens are whitespace-separated."""
    tokens: list[str] = []
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if chars:
            tokens.extend(ch for ch in line if not ch.isspace())
        else:
            tokens.extend(line.split())
    if not tokens:
        raise ParseError("no symbol tokens found", line=max(len(lines), 1))
    return Word.from_tokens(tokens)


def emit_word(word: Word) -> str:
    return f"{word}\n"


def graph_to_document(graph: StaticGraph) -> dict[str, Any]:
    return {
        "vertices": sorted(graph.vertices),
        "edges": [list(edge) for edge in sorted(graph.edges)],
    }


def temporal_to_document(tg: TemporalGraph) -> dict[str, Any]:
    doc = graph_to_document(tg.base)
    doc["start_points"] = list(tg.start_points)
    doc["timesteps"] = [
        {
            "range": [lo, hi],
            "letters": sorted(tg.factor(t).alphabet),
            "edges": [list(edge) for edge in sorted(tg.edges_at(t))],
        }
        for t, (lo, hi) in enumerate(tg.factor_bounds, start=1)
    ]
    return doc


def _dot_id(sym: Symbol) -> str:
    """A DOT quoted string holding the token; backslash and quote escaped."""
    return '"' + sym.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _graph_to_dot(graph: StaticGraph) -> str:
    lines = ["graph {"]
    lines.extend(f"  {_dot_id(v)};" for v in sorted(graph.vertices))
    lines.extend(f"  {_dot_id(u)} -- {_dot_id(v)};" for u, v in sorted(graph.edges))
    lines.append("}")
    return "\n".join(lines) + "\n"


def emit_graph(obj: StaticGraph | TemporalGraph, fmt: str = "json") -> str:
    """Render a static or temporal graph as DOT or JSON.

    DOT shows the underlying undirected structure only; temporal detail
    (start points and per-timestep activity) is carried by the JSON form.
    """
    if fmt == "dot":
        graph = obj.base if isinstance(obj, TemporalGraph) else obj
        return _graph_to_dot(graph)
    if fmt == "json":
        if isinstance(obj, TemporalGraph):
            return json.dumps(temporal_to_document(obj), indent=2) + "\n"
        return json.dumps(graph_to_document(obj), indent=2) + "\n"
    raise ValueError(f"unknown format: {fmt!r}")


def schedule_to_document(schedule: Schedule, visited_all: bool) -> dict[str, Any]:
    return {
        "start": schedule.start,
        "steps": [{"edge": list(edge), "t": t} for edge, t in schedule.steps],
        "length": schedule.length,
        "visited_all": visited_all,
    }


def emit_schedule(schedule: Schedule, visited_all: bool) -> str:
    return json.dumps(schedule_to_document(schedule, visited_all), indent=2) + "\n"


def parse_schedule(text: str) -> tuple[Schedule, bool]:
    """Inverse of emit_schedule; validates shape and the length field."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    try:
        start = Symbol(doc["start"])
        steps = tuple(
            ((Symbol(step["edge"][0]), Symbol(step["edge"][1])), int(step["t"]))
            for step in doc["steps"]
        )
        length = int(doc["length"])
        visited_all = bool(doc["visited_all"])
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ParseError(f"malformed schedule document: {exc!r}") from exc
    schedule = Schedule(start, steps)
    if schedule.length != length:
        raise ParseError(
            f"length field {length} does not match final step {schedule.length}"
        )
    return schedule, visited_all


def report_to_document(report: LemmaReport) -> dict[str, Any]:
    return {
        "lemma_id": report.lemma_id,
        "applicable": report.applicable,
        "pass": report.passed,
        "violations": [list(witness) for witness in report.violations],
        "notes": report.notes,
    }


def emit_reports(reports: list[LemmaReport]) -> str:
    doc = {
        "pass": all(r.passed for r in reports),
        "reports": [report_to_document(r) for r in reports],
    }
    return json.dumps(doc, indent=2) + "\n"
