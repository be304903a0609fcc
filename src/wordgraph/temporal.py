"""Temporal graphs induced by the timestep partition of a word.

The word is split left to right into factors, opening a new factor at the
first position whose symbol already occurred in the factor being built. Each
factor therefore has pairwise distinct symbols, and every closed interval
between consecutive start points repeats exactly one symbol: the one at the
later start point. Timestep t activates every underlying edge with at least
one endpoint among the letters of factor t, so the temporal graph is fully
determined by the word's start points and its underlying graph: each edge's
activation times are the union of its endpoints' letter times.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .graphs import Edge, StaticGraph, build_graph, make_edge
from .words import Symbol, Word


def start_points(word: Word) -> tuple[int, ...]:
    """1-based factor start positions of ``word``; always begins with 1.

    Greedy left-to-right scan: a factor closes right before the first symbol
    already seen since the factor opened, and that symbol opens the next one.
    """
    if len(word) == 0:
        raise ValueError("the empty word has no timestep partition")
    starts = [1]
    seen: set[Symbol] = set()
    for pos, sym in enumerate(word.symbols, start=1):
        if sym in seen:
            starts.append(pos)
            seen = {sym}
        else:
            seen.add(sym)
    return tuple(starts)


@dataclass(frozen=True)
class TemporalGraph:
    """A word, its timestep partition and its underlying graph.

    Activity is derived, never stored: timestep t (1-based) activates every
    edge of ``base`` with an endpoint among the letters of factor t. Every
    query goes through ``letter_times``, the timesteps at which each vertex
    is a letter, or through the factor slices of the word. Immutable after
    construction; all queries are read-only.
    """

    word: Word
    start_points: tuple[int, ...]
    base: StaticGraph

    @property
    def lifetime(self) -> int:
        return len(self.start_points)

    @cached_property
    def factor_bounds(self) -> tuple[tuple[int, int], ...]:
        """Closed 1-based position interval of every factor."""
        ends = tuple(s - 1 for s in self.start_points[1:]) + (len(self.word),)
        return tuple(zip(self.start_points, ends))

    def _require_timestep(self, t: int) -> None:
        if not 1 <= t <= self.lifetime:
            raise ValueError(f"timestep {t} outside [1, {self.lifetime}]")

    @cached_property
    def letter_times(self) -> dict[Symbol, tuple[int, ...]]:
        """Strictly increasing timesteps whose factor holds each vertex."""
        # step[p] is the timestep holding 1-based position p.
        step = [0]
        for t, (lo, hi) in enumerate(self.factor_bounds, start=1):
            step += [t] * (hi - lo + 1)
        occurrences = self.word.occurrences
        return {
            v: tuple(dict.fromkeys(map(step.__getitem__, occurrences[v])))
            for v in self.base.vertices
        }

    def edges_at(self, t: int) -> frozenset[Edge]:
        """The edge set of timestep ``t``: every edge incident to a letter of
        factor t."""
        self._require_timestep(t)
        lo, hi = self.factor_bounds[t - 1]
        adjacency = self.base.adjacency
        return frozenset(
            make_edge(sym, nb) for sym in self.word.symbols[lo - 1 : hi] for nb in adjacency[sym]
        )

    @cached_property
    def _activation_times(self) -> dict[Edge, tuple[int, ...]]:
        times = self.letter_times
        return {(u, v): tuple(sorted({*times[u], *times[v]})) for u, v in self.base.edges}

    @cached_property
    def always_connected(self) -> bool:
        """True when every timestep's graph is one component spanning all
        vertices. In timestep t a letter of factor t reaches all its
        neighbours, and any other vertex only its neighbours among those
        letters."""
        adjacency = self.base.adjacency
        root = self.base.vertices[0]
        n = len(self.base.vertices)
        for lo, hi in self.factor_bounds:
            letters = frozenset(self.word.symbols[lo - 1 : hi])
            reached = {root}
            queue = deque([root])
            while queue:
                v = queue.popleft()
                reach = adjacency[v] if v in letters else adjacency[v] & letters
                for u in reach - reached:
                    reached.add(u)
                    queue.append(u)
            if len(reached) != n:
                return False
        return True


def build_temporal(word: Word) -> TemporalGraph:
    """The temporal graph of ``word``: its greedy start points over its own
    alternation graph."""
    base = build_graph(word)
    return TemporalGraph(word=word, start_points=start_points(word), base=base)


def is_edge_active(tg: TemporalGraph, e: tuple[Symbol, Symbol], t: int) -> bool:
    """Membership of an underlying edge in timestep ``t``'s edge set."""
    tg._require_timestep(t)
    return next_activation(tg, e, t - 1) == t


def next_activation(tg: TemporalGraph, e: tuple[Symbol, Symbol], t: int) -> int | None:
    """Smallest timestep strictly after ``t`` at which ``e`` is active.

    ``t`` may be 0, meaning "before time begins". Returns None when the edge
    never activates again within the lifetime.
    """
    if t < 0:
        raise ValueError(f"timestep cursor must be >= 0, got {t}")
    edge = make_edge(*e)
    times = tg._activation_times.get(edge)
    if times is None:
        raise ValueError(f"not an underlying edge: ({e[0]!r}, {e[1]!r})")
    idx = bisect_right(times, t)
    return times[idx] if idx < len(times) else None
