"""Static graphs built from words by symbol alternation.

Also provides the metric and traversal utilities the exploration schedulers
need: distances, diameter, minimum degree, and a deterministic spanning
visiting walk.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from operator import lt
from typing import Iterable, Iterator

from .words import Symbol, Word, cached

Edge = tuple[Symbol, Symbol]


class DisconnectedGraphError(ValueError):
    """Raised when an operation is only defined on connected graphs."""


def make_edge(u: Symbol, v: Symbol) -> Edge:
    """Normalise an undirected edge so (u, v) and (v, u) compare equal."""
    if u == v:
        raise ValueError(f"self-loops are not edges: {str(u)!r}")
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
                raise ValueError(f"edge is not normalised: {(str(u), str(v))}")
            if u not in vset or v not in vset:
                raise ValueError(f"edge uses an unknown vertex: {(str(u), str(v))}")

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

    @cached
    def adjacency(self) -> dict[Symbol, frozenset[Symbol]]:
        acc: dict[Symbol, set[Symbol]] = {v: set() for v in self.vertices}
        for u, v in self.edges:
            acc[u].add(v)
            acc[v].add(u)
        return {v: frozenset(nbrs) for v, nbrs in acc.items()}

    @cached
    def _connected(self) -> Symbol | None:
        """Backs ``is_connected``: a vertex farthest from the first one, or
        None on a disconnected graph. A graph with fewer than n - 1 edges has
        no spanning tree, so it is disconnected without a search. A search
        reaches the vertices in order of distance, so the last one it
        reaches is farthest."""
        n = len(self.vertices)
        if len(self.edges) < n - 1:
            return None
        dist = _bfs_distances(self, self.vertices[0])
        return next(reversed(dist)) if len(dist) == n else None

    @cached
    def _diameter(self) -> int | None:
        """Backs ``diameter``; None on a disconnected graph.

        A connected graph with n - 1 edges is a tree, and in a tree the
        vertex farthest from any vertex ends a longest path, so one search
        from the far vertex the connectivity search found suffices.
        Otherwise one search runs from the first member of each
        ``neighbourhood_classes`` class: for twins u and v, every other
        vertex is as far from u as from v, so they share an eccentricity.
        """
        far = self._connected
        if far is None:
            return None
        vertices = self.vertices
        if len(self.edges) == len(vertices) - 1:
            return max(_bfs_distances(self, far).values())
        return max(
            max(_bfs_distances(self, vertices[group[0]]).values())
            for group in neighbourhood_classes(self)
        )

    def require_vertex(self, v: Symbol) -> None:
        if v not in self.adjacency:
            raise ValueError(f"unknown vertex: {str(v)!r}")


def build_graph(word: Word) -> StaticGraph:
    """Graph with one vertex per letter of ``word`` and an edge wherever two
    symbols alternate."""
    if len(word) == 0:
        raise ValueError("cannot build a graph from the empty word")
    # In a power u^k with k >= 2, x and y alternate exactly when they
    # alternate in u and occur equally often there: the projection
    # (u|xy)^k alternates only if u|xy ends on the letter it does not start
    # with. So a power is read from the occurrences of one copy of its
    # primitive root.
    occurrences = word._root_occurrences
    slack = 1 if word._period == len(word.symbols) else 0
    # ``occurrences`` is keyed in first-occurrence order. Symbols alternate
    # only if the later one first occurs before the earlier one's second
    # occurrence, so each symbol is paired only with the symbols whose first
    # occurrence falls in that range. Such a pair alternates exactly when
    # px, the run that starts first, is as long as py or up to ``slack``
    # longer and px[i] < py[i] < px[i + 1] throughout.
    runs = list(occurrences.items())
    firsts = [px[0] for _, px in runs]
    edges = set()
    for i, (x, px) in enumerate(runs, start=1):
        end = bisect_left(firsts, px[1], i) if len(px) > 1 else len(runs)
        for y, py in runs[i:end]:
            if (
                0 <= len(px) - len(py) <= slack
                and all(map(lt, px, py))
                and all(map(lt, py, px[1:]))
            ):
                edges.add((x, y) if x < y else (y, x))
    return StaticGraph(tuple(sorted(occurrences)), frozenset(edges))


def neighbourhood_classes(graph: StaticGraph) -> list[list[int]]:
    """Vertex ids grouped in order of first member: vertices with the same
    open neighbourhood, N(u) = N(v), or the same closed one, N[u] = N[v]
    (then they are adjacent). A vertex alone in its class is a group of one."""
    # An open neighbourhood N(v) = N[u] would hold u, so v would lie in N[u]
    # but not in N(v): one dict keys both kinds. A vertex v with an open
    # twin w has no closed twin x, since w would lie in N[x] = N[v].
    keyed: dict[frozenset[Symbol], list[int]] = {}
    groups = []
    for i, v in enumerate(graph.vertices):
        opened = graph.adjacency[v]
        closed = opened | {v}
        group = keyed.get(opened) or keyed.get(closed)
        if group is None:
            group = keyed[opened] = keyed[closed] = []
            groups.append(group)
        group.append(i)
    return groups


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
    """Whether every vertex reaches every other; decided once per graph."""
    return graph._connected is not None


def diameter(graph: StaticGraph) -> int:
    """Largest pairwise distance. Undefined (raises) on disconnected graphs.

    Decided once per graph: on a tree one search after the connectivity
    search, otherwise one search per class of vertices with equal open or
    closed neighbourhoods.
    """
    dia = graph._diameter
    if dia is None:
        raise DisconnectedGraphError("diameter is undefined: graph is disconnected")
    return dia


def min_degree(graph: StaticGraph) -> int:
    return min(len(graph.adjacency[v]) for v in graph.vertices)


def spanning_walk(graph: StaticGraph, start: Symbol) -> list[tuple[Symbol, Symbol]]:
    """A walk from ``start`` whose traversal visits every vertex.

    The walk is the depth-first tree tour rooted at ``start``, stopped
    immediately after the last first-visit, so it has at most 2(n-1) edges.
    Neighbours are explored in token order, making the output deterministic.
    Edges are returned directed in traversal order.
    """
    graph.require_vertex(start)
    if not is_connected(graph):
        raise DisconnectedGraphError("graph is not explorable: it is disconnected")
    n = len(graph.vertices)
    seen = {start}
    walk: list[tuple[Symbol, Symbol]] = []
    stack: list[tuple[Symbol, Iterator[Symbol]]] = [
        (start, iter(sorted(graph.adjacency[start])))
    ]
    # The graph is connected, so the root stays stacked until all are seen.
    while len(seen) < n:
        v, neighbours = stack[-1]
        for u in neighbours:
            if u not in seen:
                seen.add(u)
                walk.append((v, u))
                stack.append((u, iter(sorted(graph.adjacency[u]))))
                break
        else:
            stack.pop()
            walk.append((v, stack[-1][0]))
    return walk
