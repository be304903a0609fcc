"""File formats and serialisation: word files, graph DOT/JSON, schedule and
report JSON.

Word files are whitespace-separated tokens; lines starting with '#' are
comments. All emitters order their output lexicographically so results are
byte-deterministic, and parse/emit round-trips reproduce the same value.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

from .explore import Schedule
from .graphs import Edge, StaticGraph
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


def _json_list(items: list[str], indent: int) -> str:
    """Rendered JSON values as a list in ``json.dumps(..., indent=2)``
    layout, for a list whose own line is indented by ``indent`` spaces."""
    if not items:
        return "[]"
    pad = "\n" + " " * (indent + 2)
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * indent + "]"


def _json_edge(edge: Edge, indent: int) -> str:
    return _json_list(list(map(encode_basestring_ascii, edge)), indent)


def _graph_json(graph: StaticGraph, tail: str = "") -> str:
    """The ``indent=2`` JSON object of ``graph``'s vertices and edges, with
    the rendered members ``tail`` appended."""
    vertices = [encode_basestring_ascii(v) for v in sorted(graph.vertices)]
    edges = [_json_edge(e, 4) for e in sorted(graph.edges)]
    return (
        f'{{\n  "vertices": {_json_list(vertices, 2)},\n'
        f'  "edges": {_json_list(edges, 2)}{tail}\n}}\n'
    )


def _temporal_json(tg: TemporalGraph) -> str:
    # Each base edge is rendered once and appended at each of its activation
    # times; walking the edges in order leaves every timestep's list in edge
    # order.
    active: list[list[str]] = [[] for _ in range(tg.lifetime)]
    times = tg._activation_times
    for edge in sorted(tg.base.edges):
        block = _json_edge(edge, 8)
        for t in times[edge]:
            active[t - 1].append(block)
    quoted = {v: encode_basestring_ascii(v) for v in tg.base.vertices}
    symbols = tg.word.symbols
    timesteps = []
    for (lo, hi), edges in zip(tg.factor_bounds, active):
        letters = [quoted[v] for v in sorted(set(symbols[lo - 1 : hi]))]
        timesteps.append(
            f'{{\n      "range": [\n        {lo},\n        {hi}\n      ],\n'
            f'      "letters": {_json_list(letters, 6)},\n'
            f'      "edges": {_json_list(edges, 6)}\n    }}'
        )
    starts = _json_list(list(map(str, tg.start_points)), 2)
    return _graph_json(
        tg.base,
        f',\n  "start_points": {starts},\n  "timesteps": {_json_list(timesteps, 2)}',
    )


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
            return _temporal_json(obj)
        return _graph_json(obj)
    raise ValueError(f"unknown format: {fmt!r}")


def emit_schedule(schedule: Schedule, visited_all: bool) -> str:
    """The schedule as ``json.dumps(..., indent=2)`` would render it."""
    steps = [
        f'{{\n      "edge": {_json_edge(edge, 6)},\n      "t": {t}\n    }}'
        for edge, t in schedule.steps
    ]
    return (
        f'{{\n  "start": {encode_basestring_ascii(schedule.start)},\n'
        f'  "steps": {_json_list(steps, 2)},\n'
        f'  "length": {schedule.length},\n'
        f'  "visited_all": {"true" if visited_all else "false"}\n}}\n'
    )


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


def emit_reports(reports: list[LemmaReport]) -> str:
    doc = {
        "pass": all(r.passed for r in reports),
        "reports": [
            {
                "lemma_id": r.lemma_id,
                "applicable": r.applicable,
                "pass": r.passed,
                "violations": [list(witness) for witness in r.violations],
                "notes": r.notes,
            }
            for r in reports
        ],
    }
    return json.dumps(doc, indent=2) + "\n"
