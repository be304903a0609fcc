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
from itertools import pairwise
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
    n = len(word)
    if n == 0:
        raise ValueError("the empty word has no timestep partition")
    root = word.root
    period = len(root)
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


@dataclass(frozen=True)
class TemporalGraph:
    """A word, its timestep partition and its underlying graph.

    Activity is derived, never stored: timestep t (1-based) activates every
    edge of ``base`` with an endpoint among the letters of factor t, and
    position p lies in timestep ``bisect_right(start_points, p)``.
    ``_times(t)`` bisects the primitive root's occurrences in one cycle of
    the timeline (``_cycle``), and in every copy through timestep t, into
    the start points: ``letter_times`` reads ``_times(T)`` and
    ``letter_gaps`` ``_times(0)``. ``_gap_bound`` bounds every letter gap
    from the start points of one cycle. ``next_activation`` searches one
    copy, and ``always_connected`` walks consecutive start points. Immutable
    after construction; all queries are read-only.

    The base's vertices are the word's letters, and the start points rise
    from 1 within the word; they need not be the greedy ones.
    """

    word: Word
    start_points: tuple[int, ...]
    base: StaticGraph

    @property
    def lifetime(self) -> int:
        return len(self.start_points)

    @cached
    def letter_times(self) -> dict[Symbol, tuple[int, ...]]:
        """Timesteps whose factor holds each vertex, one per occurrence;
        strictly increasing unless non-greedy start points repeat a letter
        inside a factor."""
        return self._times(self.lifetime)

    @cached
    def _cycle(self) -> int:
        """The number of copies of the primitive root u in one cycle of the
        timeline: the greedy scan of u^k enters copy ``_cycle - 1`` at an
        offset it entered an earlier copy at. ``build_temporal`` stores it when that
        happens; any other graph reads k, every copy."""
        return self.word.copies

    def _times(self, t: int) -> dict[Symbol, tuple[int, ...]]:
        """Each vertex's letter times over one cycle of the timeline and
        every copy of the primitive root up to the one that holds the end
        of timestep ``t``: the timesteps that hold its occurrences there.
        ``t`` = 0 reads one cycle, and ``t`` = T every copy."""
        starts = self.start_points
        word = self.word
        period = len(word.root)
        end = starts[t] - 1 if t < len(starts) else len(word)
        bases = range(0, max(self._cycle * period, end), period)
        return {
            v: tuple([bisect_right(starts, c + p) for c in bases for p in roots])
            for v, roots in word._root_occurrences.items()
        }

    @cached
    def letter_gaps(self) -> dict[Symbol, int]:
        """The largest step between consecutive entries of (0, *times, T + 1)
        for each vertex's letter times: a window of k consecutive timesteps
        inside [1, T] holds none of them exactly when this exceeds k."""
        # Past the copy at which the scan first entered at the offset it
        # enters copy ``_cycle - 1`` at, each later stretch of as many
        # copies holds the same timesteps, shifted. So every gap between two
        # consecutive letter times of v is a gap between two of its
        # occurrences in one cycle, the first ``_cycle`` copies: the later
        # one lies at most one copy after the earlier. The gap to T + 1 is
        # v's last occurrence's, in the last copy.
        lifetime = self.lifetime
        starts = self.start_points
        word = self.word
        last = len(word) - len(word.root)
        roots = word._root_occurrences
        gaps = {}
        for v, times in self._times(0).items():
            end = lifetime + 1 - bisect_right(starts, last + roots[v][-1])
            gaps[v] = max(end, *map(sub, times, (0, *times)))
        return gaps

    @cached
    def _gap_bound(self) -> int:
        """An upper bound on every ``letter_gaps`` value, read from the
        start points alone: T + 1 unless the word is a proper power."""
        # In u^k, k >= 2, consecutive occurrences of a letter lie at most
        # |u| positions apart, and the first lies in the first copy. So a
        # gap between two letter times, or from 0 to the first, is at most
        # the number of start points in |u| consecutive positions, which is
        # largest in a window opening at a start point. Those windows repeat,
        # shifted, past one cycle. The last occurrence lies in the last copy.
        starts = self.start_points
        word = self.word
        if word.copies < 2:
            return len(starts) + 1
        period = len(word.root)
        last = len(starts) + 1 - bisect_right(starts, len(word) - period + 1)
        cycle = bisect_right(starts, self._cycle * period)
        return max(
            last,
            *[bisect_right(starts, s + period - 1, i) - i for i, s in enumerate(starts[:cycle])],
        )

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
        # A timestep's graph depends only on its factor, so each distinct
        # factor is searched once.
        adjacency = self.base.adjacency
        root = self.base.vertices[0]
        n = len(self.base.vertices)
        symbols = self.word.symbols
        searched = set()
        for lo, end in pairwise((*self.start_points, len(symbols) + 1)):
            factor = symbols[lo - 1 : end - 1]
            if factor in searched:
                continue
            searched.add(factor)
            letters = frozenset(factor)
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
    alternation graph. On a proper power whose timeline repeats it also
    stores ``_cycle``."""
    base = build_graph(word)
    tg = TemporalGraph(word=word, start_points=start_points(word), base=base)
    # The offset at which the open factor enters each copy after the first,
    # as ``start_points`` tracks it, read back from the start points: the
    # factor that holds the position before the copy is the open one.
    period = len(word.root)
    starts = tg.start_points
    entered = set()
    for before in range(period, len(word), period):
        offset = starts[bisect_right(starts, before) - 1] - before
        if offset in entered:
            vars(tg)["_cycle"] = before // period + 1
            break
        entered.add(offset)
    return tg


def next_activation(tg: TemporalGraph, e: tuple[Symbol, Symbol], t: int) -> int | None:
    """Smallest timestep strictly after ``t`` at which ``e`` is active.

    ``t`` may be 0, meaning "before time begins". Returns None when the edge
    never activates again within the lifetime. Reads the occurrences of the
    word's primitive root and the start points, never ``letter_times``, so
    it holds for any start points.
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
    n = len(word)
    period = len(word.root)
    roots = word._root_occurrences
    copy, offset = divmod(starts[t] - 1, period)
    first = n + 1
    for v in edge:
        positions = roots[v]
        i = bisect_right(positions, offset)
        pos = positions[i] if i < len(positions) else period + positions[0]
        if pos < first:
            first = pos
    first += copy * period
    return bisect_right(starts, first) if first <= n else None
