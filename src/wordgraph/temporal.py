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
from operator import sub

from .graphs import StaticGraph, build_graph, is_connected, make_edge
from .words import Symbol, Word, cached


def start_points(word: Word) -> tuple[int, ...]:
    """1-based factor start positions of ``word``; always begins with 1.

    Greedy left-to-right scan: a factor closes right before the first symbol
    already seen since the factor opened, and that symbol opens the next one.

    A power u^k is scanned one copy of its primitive root u at a time. A
    factor is no longer than u, so the scan entering a copy depends only on
    where the open factor started, relative to that copy. Once that offset
    repeats, the starts found since it first occurred repeat, shifted by the
    distance between the two copies, to the end of the word.
    """
    symbols = word.symbols
    n = len(symbols)
    if n == 0:
        raise ValueError("the empty word has no timestep partition")
    period = word._period
    root = symbols[:period]
    starts = [1]
    seen = _scan(root, 1, starts, set())
    # No factor is open where the first copy starts, and one is open where
    # every later copy starts, so only the later copies are recorded.
    entered: dict[int, tuple[int, int]] = {}
    for base in range(period, n, period):
        offset = starts[-1] - base
        if offset in entered:
            first, index = entered[offset]
            block, shift = starts[index:], base - first
            starts += [s + j for j in range(shift, n - first, shift) for s in block]
            del starts[bisect_right(starts, n) :]
            break
        entered[offset] = base, len(starts)
        seen = _scan(root, base + 1, starts, seen)
    return tuple(starts)


def _scan(
    symbols: tuple[Symbol, ...], at: int, starts: list[int], seen: set[Symbol]
) -> set[Symbol]:
    """Continue the greedy scan over ``symbols``, the first of them at
    position ``at``: append each factor start to ``starts``, and return the
    letters of the factor left open, which ``seen`` held on entry."""
    for pos, sym in enumerate(symbols, start=at):
        if sym in seen:
            starts.append(pos)
            seen = {sym}
        else:
            seen.add(sym)
    return seen


def largest_gap(times: tuple[int, ...], lifetime: int) -> int:
    """The largest step between consecutive entries of (0, *times,
    lifetime + 1). A window of k consecutive timesteps inside [1, lifetime]
    holds none of the increasing ``times`` exactly when this exceeds k."""
    bounds = (0, *times, lifetime + 1)
    return max(map(sub, bounds[1:], bounds))


@dataclass(frozen=True)
class TemporalGraph:
    """A word, its timestep partition and its underlying graph.

    Activity is derived, never stored: timestep t (1-based) activates every
    edge of ``base`` with an endpoint among the letters of factor t. Every
    query goes through ``letter_times``, the timesteps at which each vertex
    is a letter, or through the factor slices of the word, except
    ``next_activation``, which reads the word's positions and the start
    points. Immutable after construction; all queries are read-only.
    """

    word: Word
    start_points: tuple[int, ...]
    base: StaticGraph

    @property
    def lifetime(self) -> int:
        return len(self.start_points)

    @cached
    def factor_bounds(self) -> tuple[tuple[int, int], ...]:
        """Closed 1-based position interval of every factor."""
        ends = tuple(s - 1 for s in self.start_points[1:]) + (len(self.word),)
        return tuple(zip(self.start_points, ends))

    @cached
    def letter_times(self) -> dict[Symbol, tuple[int, ...]]:
        """Timesteps whose factor holds each vertex; strictly increasing
        unless non-greedy start points repeat a letter inside a factor."""
        times: dict[Symbol, list[int]] = {v: [] for v in self.base.vertices}
        for t, (lo, hi) in enumerate(self.factor_bounds, start=1):
            for v in self.word.symbols[lo - 1 : hi]:
                times[v].append(t)
        return {v: tuple(ts) for v, ts in times.items()}

    @cached
    def letter_gaps(self) -> dict[Symbol, int]:
        """``largest_gap`` of each vertex's letter times."""
        lifetime = self.lifetime
        return {v: largest_gap(ts, lifetime) for v, ts in self.letter_times.items()}

    def activation_times(self, u: Symbol, v: Symbol) -> tuple[int, ...]:
        """Increasing timesteps at which the edge (u, v) is active: the union
        of its endpoints' letter times."""
        return tuple(sorted({*self.letter_times[u], *self.letter_times[v]}))

    @cached
    def always_connected(self) -> bool:
        """True when every timestep's graph is one component spanning all
        vertices. In timestep t a letter of factor t reaches all its
        neighbours, and any other vertex only its neighbours among those
        letters."""
        # Every timestep graph is a spanning subgraph of the base, and one
        # whose factor holds every vertex activates every base edge.
        if not is_connected(self.base):
            return False
        adjacency = self.base.adjacency
        root = self.base.vertices[0]
        n = len(self.base.vertices)
        for lo, hi in self.factor_bounds:
            letters = frozenset(self.word.symbols[lo - 1 : hi])
            if len(letters) == n:
                continue
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


def next_activation(tg: TemporalGraph, e: tuple[Symbol, Symbol], t: int) -> int | None:
    """Smallest timestep strictly after ``t`` at which ``e`` is active.

    ``t`` may be 0, meaning "before time begins". Returns None when the edge
    never activates again within the lifetime. Reads the occurrences of the
    word's primitive root and the start points, never ``letter_times``, so
    it holds for any start points, and a base vertex absent from the word
    never activates.
    """
    if t < 0:
        raise ValueError(f"timestep cursor must be >= 0, got {t}")
    edge = make_edge(*e)
    if edge not in tg.base.edges:
        raise ValueError(f"not an underlying edge: {(str(e[0]), str(e[1]))}")
    starts = tg.start_points
    if t >= len(starts):
        return None
    # The next time v is a letter is the timestep that holds v's first
    # occurrence at or after starts[t]. A power u^k is searched in the
    # occurrences of one copy of u: the copy that holds starts[t], or the
    # copy after it. ``first`` counts from the start of the copy that holds
    # starts[t], and n + 1 stands for no occurrence.
    word = tg.word
    n = len(word.symbols)
    period = word._period
    roots = word._root_occurrences
    copy, offset = divmod(starts[t] - 1, period)
    first = n + 1
    for v in edge:
        positions = roots.get(v)
        if positions:
            i = bisect_right(positions, offset)
            pos = positions[i] if i < len(positions) else period + positions[0]
            if pos < first:
                first = pos
    first += copy * period
    return bisect_right(starts, first) if first <= n else None
