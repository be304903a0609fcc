"""Independent reference model used to check every benchmark op.

Nothing here imports wordgraph. Every expected value is computed from the
definitions in the README: the greedy factor scan, pairwise alternation of
occurrence runs, and "factor t activates every edge with an endpoint among
its letters". The family generators follow the documented position rules.
"""

from __future__ import annotations

import json
from itertools import zip_longest
from typing import Iterator

LEMMA_IDS = (
    "letter-recurrence",
    "edge-recurrence",
    "occurrence-balance",
    "interleaving",
    "union-windows",
)


def path_tokens(n: int) -> list[str]:
    """Path-family word: 1 2 1, then x+1 x for x in 2..n-1, then n."""
    out = [1, 2, 1] + [v for x in range(2, n) for v in (x + 1, x)] + [n]
    return [str(v) for v in out]


def layered_tokens(n: int, d: int) -> list[str]:
    """Layered-family word: column l lists the l-th symbols of the n/d path
    words over (row, layer); forward on column 1 and on even columns before
    the last, reversed otherwise."""
    rows = list(range(1, n // d + 1))
    out = []
    for column, layer in enumerate(path_tokens(d), start=1):
        forward = column == 1 or (column % 2 == 0 and column != 2 * d)
        out.extend(f"({row},{layer})" for row in (rows if forward else rows[::-1]))
    return out


def word_text(tokens: list[str]) -> str:
    """A word file, byte for byte as `gen` prints it."""
    return " ".join(tokens) + "\n"


def _alternate(px: list[int], py: list[int]) -> bool:
    # Interleave the two runs rank by rank, starting with the run that
    # occurs first; the symbols alternate exactly when that is sorted.
    if px[0] > py[0]:
        px, py = py, px
    if not 0 <= len(px) - len(py) <= 1:
        return False
    merged = [p for pair in zip_longest(px, py) for p in pair if p is not None]
    return all(a < b for a, b in zip(merged, merged[1:]))


class Ref:
    """Reference facts about one word: vertices, edges, factors, activity."""

    def __init__(self, tokens: list[str]):
        occ: dict[str, list[int]] = {}
        for pos, tok in enumerate(tokens, start=1):
            occ.setdefault(tok, []).append(pos)
        self.tokens = tokens
        self.vertices = sorted(occ)
        self.edges = [
            (x, y)
            for i, x in enumerate(self.vertices)
            for y in self.vertices[i + 1 :]
            if _alternate(occ[x], occ[y])
        ]
        self.edge_set = frozenset(self.edges)
        self.adj: dict[str, set[str]] = {v: set() for v in self.vertices}
        for x, y in self.edges:
            self.adj[x].add(y)
            self.adj[y].add(x)
        self.starts = [1]
        factor: set[str] = set()
        for pos, tok in enumerate(tokens, start=1):
            if tok in factor:
                self.starts.append(pos)
                factor = set()
            factor.add(tok)
        ends = [s - 1 for s in self.starts[1:]] + [len(tokens)]
        self.bounds = list(zip(self.starts, ends))
        self.letters = [frozenset(tokens[lo - 1 : hi]) for lo, hi in self.bounds]
        self.activations = sum(
            sum(len(self.adj[v]) for v in f)
            - sum(1 for v in f for u in self.adj[v] if u in f and v < u)
            for f in self.letters
        )
        dist = [self._bfs(v) for v in self.vertices]
        self.connected = len(dist[0]) == len(self.vertices)
        self.diameter = max(max(d.values()) for d in dist) if self.connected else None
        self.always_connected = self.connected and all(
            self._spans(f) for f in self.letters
        )

    @property
    def lifetime(self) -> int:
        return len(self.starts)

    def _bfs(self, source: str) -> dict[str, int]:
        dist = {source: 0}
        frontier = [source]
        while frontier:
            nxt = []
            for v in frontier:
                for u in self.adj[v]:
                    if u not in dist:
                        dist[u] = dist[v] + 1
                        nxt.append(u)
            frontier = nxt
        return dist

    def _spans(self, factor: frozenset[str]) -> bool:
        # One timestep's graph (edges touching the factor) is connected.
        parent = {v: v for v in self.vertices}

        def root(v: str) -> str:
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        parts = len(self.vertices)
        for v in factor:
            for u in self.adj[v]:
                a, b = root(v), root(u)
                if a != b:
                    parent[a] = b
                    parts -= 1
        return parts == 1

    def active(self, t: int) -> list[tuple[str, str]]:
        """Sorted edges of timestep t (1-based), from the factor definition."""
        f = self.letters[t - 1]
        return sorted({(v, u) if v < u else (u, v) for v in f for u in self.adj[v]})

    def applicability(self) -> tuple[bool, ...]:
        """Which checkers apply, in LEMMA_IDS order."""
        windows = self.connected and self.diameter <= self.lifetime
        return (
            self.always_connected,
            self.always_connected,
            self.connected,
            self.connected,
            windows,
        )


def json_chunks(value, level: int = 0) -> Iterator[str]:
    """``json.dumps(value, indent=2)`` in pieces; containers may be lazy."""
    if isinstance(value, (str, int, bool)):
        yield json.dumps(value)
        return
    pad = "\n" + "  " * (level + 1)
    if isinstance(value, dict):
        pairs = ((json.dumps(k) + ": ", v) for k, v in value.items())
        opening, closing = "{", "}"
    else:
        pairs = (("", v) for v in value)
        opening, closing = "[", "]"
    first = True
    for prefix, v in pairs:
        yield (opening if first else ",") + pad + prefix
        first = False
        yield from json_chunks(v, level + 1)
    yield opening + closing if first else "\n" + "  " * level + closing


def check_build(ref: Ref, text: str) -> str | None:
    """`build --temporal` JSON must equal the reference document byte for
    byte; the expected text is streamed, never held whole."""
    doc = {
        "vertices": ref.vertices,
        "edges": [list(e) for e in ref.edges],
        "start_points": ref.starts,
        "timesteps": (
            {
                "range": [lo, hi],
                "letters": sorted(ref.letters[t]),
                "edges": [list(e) for e in ref.active(t + 1)],
            }
            for t, (lo, hi) in enumerate(ref.bounds)
        ),
    }
    pos = 0
    for chunk in json_chunks(doc):
        if not text.startswith(chunk, pos):
            return f"build output differs from the reference at byte {pos}"
        pos += len(chunk)
    if text[pos:] != "\n":
        return f"build output has {len(text) - pos} unexpected trailing bytes"
    return None


def replay(ref: Ref, start: str, steps, length: int, visited_all: bool) -> str | None:
    """Replay a schedule against the reference activity."""
    if start not in ref.adj:
        return f"schedule starts at unknown vertex {start!r}"
    here, last, seen = start, 0, {start}
    for i, ((u, v), t) in enumerate(steps, start=1):
        if t <= last or not 1 <= t <= ref.lifetime:
            return f"step {i} at t={t} after t={last}, lifetime {ref.lifetime}"
        if u != here:
            return f"step {i} leaves {u} while the agent is at {here}"
        if ((u, v) if u < v else (v, u)) not in ref.edge_set:
            return f"step {i} uses ({u}, {v}), not an edge"
        if u not in ref.letters[t - 1] and v not in ref.letters[t - 1]:
            return f"step {i}: ({u}, {v}) is inactive at t={t}"
        here, last = v, t
        seen.add(v)
    if length != last:
        return f"length {length} but the last step is at t={last}"
    if visited_all != (len(seen) == len(ref.vertices)):
        return f"visited_all={visited_all} but the walk covers {len(seen)} vertices"
    return None


def check_reports(ref: Ref, reports) -> str | None:
    """Reports as (lemma_id, applicable, passed, violations) in checker order:
    every one passes, and applicability follows the reference."""
    if [r[0] for r in reports] != list(LEMMA_IDS):
        return f"unexpected checker list {[r[0] for r in reports]}"
    for (lemma, applicable, passed, violations), expected in zip(
        reports, ref.applicability()
    ):
        if not passed or violations:
            return f"{lemma} reports {len(violations)} violations"
        if applicable != expected:
            return f"{lemma} applicable={applicable}, reference says {expected}"
    return None
