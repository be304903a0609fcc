"""File formats and serialisation: word files, graph DOT/JSON, schedule and
report JSON.

Word files are whitespace-separated tokens; lines starting with '#' are
comments. All emitters order their output lexicographically so results are
byte-deterministic, and parse/emit round-trips reproduce the same value.
"""

from __future__ import annotations

import json
from itertools import pairwise
from json.encoder import encode_basestring_ascii

from .explore import Schedule
from .graphs import Edge, StaticGraph
from .lemmas import LemmaReport
from .temporal import TemporalGraph
from .words import Symbol, Word, _period_of


class ParseError(ValueError):
    """Input text that does not encode the expected document."""


def parse_word_file(text: str, chars: bool = False) -> Word:
    """Read a word document. With ``chars`` every non-space character of a
    content line is one symbol; otherwise tokens are whitespace-separated.

    A file laid out as ``gen`` writes it, one line of single-spaced tokens,
    is read by the primitive root of its text. With a space for the final
    newline, the text is x^m for a root x that ends in a space, so its
    tokens are those of x, m times. When x is one such line that is no
    comment, only x is split, and its tokens are the word's primitive root:
    tokens t^j with j >= 2 would make x the text of t repeated j times. Any
    other layout is read line by line.
    """
    if not chars:
        spaced = text.removesuffix("\n") + " "
        root = spaced[: _period_of(spaced)]
        tokens = root.split()
        if tokens and root[0] != "#" and " ".join(tokens) + " " == root:
            return Word._from_root(tokens, len(spaced) // len(root))
    tokens = []
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
        raise ParseError(f"line {max(len(lines), 1)}: no symbol tokens found")
    return Word.from_tokens(tokens)


def emit_word(word: Word) -> str:
    """The tokens on one line, single-spaced."""
    return f"{word}\n"


def _json_list(items: list[str], indent: int) -> str:
    """Rendered JSON values as a list in ``json.dumps(..., indent=2)``
    layout, for a list whose own line is indented by ``indent`` spaces."""
    if not items:
        return "[]"
    pad = "\n" + " " * (indent + 2)
    return f"[{pad}{(',' + pad).join(items)}\n{' ' * indent}]"


def _graph_json(graph: StaticGraph, edges: list[Edge], *tail: str) -> str:
    """The ``indent=2`` JSON object of ``graph``'s vertices and its edges,
    ``edges`` in sorted order, with the rendered members ``tail`` appended.
    The document is joined once from its pieces."""
    quoted = {v: encode_basestring_ascii(v) for v in graph.vertices}
    vertices = [quoted[v] for v in sorted(graph.vertices)]
    blocks = [f"[\n      {quoted[u]},\n      {quoted[v]}\n    ]" for u, v in edges]
    return "".join(
        [
            '{\n  "vertices": ',
            _json_list(vertices, 2),
            ',\n  "edges": ',
            _json_list(blocks, 2),
            *tail,
            "\n}\n",
        ]
    )


def _temporal_json(tg: TemporalGraph) -> str:
    # A timestep's letters and edges depend only on its factor: the active
    # edges are the base edges with an endpoint among its letters. The base
    # edges are sorted once and each vertex lists the indices of its edges,
    # so a factor's active edges are its letters' edge indices, sorted as
    # ints. Each distinct factor's tail is rendered once; a timestep adds
    # its range and a reference to that tail, and the pieces are joined
    # once, in ``_graph_json``. Emitting never fills ``letter_times``.
    vertices = sorted(tg.base.vertices)
    rank = {v: r for r, v in enumerate(vertices)}
    quoted = list(map(encode_basestring_ascii, vertices))
    edges = sorted(tg.base.edges)
    incident: list[list[int]] = [[] for _ in vertices]
    blocks = []
    for i, (u, v) in enumerate(edges):
        ru, rv = rank[u], rank[v]
        incident[ru].append(i)
        incident[rv].append(i)
        blocks.append(f"[\n          {quoted[ru]},\n          {quoted[rv]}\n        ]")
    tails: dict[tuple[Symbol, ...], str] = {}
    symbols = tg.word.symbols
    starts = _json_list(list(map(str, tg.start_points)), 2)
    pieces = [f',\n  "start_points": {starts},\n  "timesteps": [']
    for lo, end in pairwise((*tg.start_points, len(symbols) + 1)):
        factor = symbols[lo - 1 : end - 1]
        tail = tails.get(factor)
        if tail is None:
            letters = sorted({rank[v] for v in factor})
            active = sorted({i for r in letters for i in incident[r]})
            tail = tails[factor] = (
                f'      "letters": {_json_list([quoted[r] for r in letters], 6)},\n'
                f'      "edges": {_json_list([blocks[i] for i in active], 6)}\n    }}'
            )
        pieces += (
            f'\n    {{\n      "range": [\n        {lo},\n        {end - 1}\n      ],\n',
            tail,
            ",",
        )
    pieces[-1] = "\n  ]"
    return _graph_json(tg.base, edges, *pieces)


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
        return _graph_json(obj, sorted(obj.edges))
    raise ValueError(f"unknown format: {fmt!r}")


def emit_schedule(schedule: Schedule, visited_all: bool) -> str:
    """The schedule as ``json.dumps(..., indent=2)`` would render it."""
    steps = [
        f'{{\n      "edge": [\n        {encode_basestring_ascii(u)},\n'
        f'        {encode_basestring_ascii(v)}\n      ],\n      "t": {t}\n    }}'
        for (u, v), t in schedule.steps
    ]
    return (
        f'{{\n  "start": {encode_basestring_ascii(schedule.start)},\n'
        f'  "steps": {_json_list(steps, 2)},\n'
        f'  "length": {schedule.length},\n'
        f'  "visited_all": {"true" if visited_all else "false"}\n}}\n'
    )


def _int_field(value, name: str) -> int:
    if type(value) is not int:
        raise TypeError(f"{name} must be a JSON integer, got {value!r}")
    return value


def _edge_field(value) -> tuple[Symbol, Symbol]:
    # Symbol rejects a token that is not a string.
    if not isinstance(value, list) or len(value) != 2:
        raise TypeError(f"edge must be a list of two strings, got {value!r}")
    return Symbol(value[0]), Symbol(value[1])


def parse_schedule(text: str) -> tuple[Schedule, bool]:
    """Inverse of emit_schedule. Validates the shape: ``t`` and ``length``
    are JSON integers, each ``edge`` is two strings and ``visited_all`` a
    JSON boolean. Then checks the length field against the last step. A
    missing field is named in the error message."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    try:
        if not isinstance(doc, dict):
            raise TypeError(f"expected a JSON object, got {type(doc).__name__}")
        start = Symbol(doc["start"])
        steps = tuple(
            (_edge_field(step["edge"]), _int_field(step["t"], "t")) for step in doc["steps"]
        )
        length = _int_field(doc["length"], "length")
        visited_all = doc["visited_all"]
        if not isinstance(visited_all, bool):
            raise TypeError(f"visited_all must be a JSON boolean, got {visited_all!r}")
    except KeyError as exc:
        raise ParseError(f"malformed schedule document: missing field {exc}") from exc
    except (TypeError, IndexError, ValueError) as exc:
        raise ParseError(f"malformed schedule document: {exc}") from exc
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
