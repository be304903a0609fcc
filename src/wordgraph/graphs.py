"""Static graphs built from words by symbol alternation.

Also provides the metric and traversal utilities the exploration schedulers
need: distances, diameter, minimum degree, and a deterministic spanning
visiting walk.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from operator import lt
from typing import Iterable, Iterator

from .words import Symbol, Word

Edge = tuple[Symbol, Symbol]


class DisconnectedGraphError(ValueError):
    """Raised when an operation is only defined on connected graphs."""


def make_edge(u: Symbol, v: Symbol) -> Edge:
    """Normalise an undirected edge so (u, v) and (v, u) compare equal."""
    if u == v:
        raise ValueError(f"self-loops are not edges: {u!r}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class StaticGraph:
    """Undirected graph over symbol-labelled vertices.

    Edges are stored once, normalised with the lexicographically smaller
    endpoint first. Immutable after construction.
    """

    vertices: tuple[Symbol, ...]
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        if not self.vertices:
            raise ValueError("a graph needs at least one vertex")
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise ValueError("duplicate vertices")
        for u, v in self.edges:
            if u == v or not u < v:
                raise ValueError(f"edge is not normalised: ({u!r}, {v!r})")
            if u not in vset or v not in vset:
                raise ValueError(f"edge uses an unknown vertex: ({u!r}, {v!r})")

    @classmethod
    def from_edges(
        cls,
        vertices: Iterable[Symbol],
        edges: Iterable[tuple[Symbol, Symbol]] = (),
    ) -> "StaticGraph":
        """Build a graph from any iterable of vertices and unordered edges."""
        vs = tuple(sorted(set(vertices)))
        es = frozenset(make_edge(u, v) for u, v in edges)
        return cls(vs, es)

    @cached_property
    def adjacency(self) -> dict[Symbol, frozenset[Symbol]]:
        acc: dict[Symbol, set[Symbol]] = {v: set() for v in self.vertices}
        for u, v in self.edges:
            acc[u].add(v)
            acc[v].add(u)
        return {v: frozenset(nbrs) for v, nbrs in acc.items()}

    @cached_property
    def distances(self) -> dict[Symbol, dict[Symbol, int]]:
        """BFS distances from every vertex. A row holds only the vertices its
        source reaches, so rows are short on a disconnected graph."""
        return {v: _bfs_distances(self, v) for v in self.vertices}

    def require_vertex(self, v: Symbol) -> None:
        if v not in self.adjacency:
            raise ValueError(f"unknown vertex: {v!r}")


def build_graph(word: Word) -> StaticGraph:
    """Graph with one vertex per letter of ``word`` and an edge wherever two
    symbols alternate."""
    if len(word) == 0:
        raise ValueError("cannot build a graph from the empty word")
    occurrences = word.occurrences
    vertices = tuple(sorted(word.alphabet))
    edges = set()
    for x, y in combinations(vertices, 2):
        if _alternating_positions(occurrences[x], occurrences[y]):
            edges.add((x, y))
    return StaticGraph(vertices, frozenset(edges))


def _alternating_positions(px: tuple[int, ...], py: tuple[int, ...]) -> bool:
    # Two nonempty, strictly increasing position runs alternate exactly when,
    # with px the run that starts first, px is as long as py or one longer
    # and px[i] < py[i] < px[i + 1] throughout. Most pairs fail on the
    # lengths or on px's second position, so those are tested first.
    if py[0] < px[0]:
        px, py = py, px
    if not 0 <= len(px) - len(py) <= 1:
        return False
    if len(px) > 1 and px[1] < py[0]:
        return False
    return all(map(lt, px, py)) and all(map(lt, py, px[1:]))


def _bfs_distances(graph: StaticGraph, source: Symbol) -> dict[Symbol, int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for u in graph.adjacency[v]:
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def is_connected(graph: StaticGraph) -> bool:
    return len(_bfs_distances(graph, graph.vertices[0])) == len(graph.vertices)


def diameter(graph: StaticGraph) -> int:
    """Largest pairwise distance. Undefined (raises) on disconnected graphs."""
    rows = graph.distances.values()
    if any(len(row) != len(graph.vertices) for row in rows):
        raise DisconnectedGraphError("diameter is undefined: graph is disconnected")
    return max(max(row.values()) for row in rows)


def min_degree(graph: StaticGraph) -> int:
    return min(len(graph.adjacency[v]) for v in graph.vertices)


def spanning_walk(graph: StaticGraph, start: Symbol) -> list[tuple[Symbol, Symbol]]:
    """A walk from ``start`` whose traversal visits every vertex.

    The walk is the depth-first tree tour rooted at ``start``, truncated
    immediately after the last first-visit, so it has at most 2(n-1) edges.
    Neighbours are explored in token order, making the output deterministic.
    Edges are returned directed in traversal order.
    """
    graph.require_vertex(start)
    if not is_connected(graph):
        raise DisconnectedGraphError("graph is not explorable: it is disconnected")
    seen = {start}
    walk: list[tuple[Symbol, Symbol]] = []
    last_discovery = 0
    stack: list[tuple[Symbol, Iterator[Symbol]]] = [
        (start, iter(sorted(graph.adjacency[start])))
    ]
    while stack:
        v, neighbours = stack[-1]
        descended = False
        for u in neighbours:
            if u not in seen:
                seen.add(u)
                walk.append((v, u))
                last_discovery = len(walk)
                stack.append((u, iter(sorted(graph.adjacency[u]))))
                descended = True
                break
        if not descended:
            stack.pop()
            if stack:
                walk.append((v, stack[-1][0]))
    return walk[:last_discovery]
