"""Slow references and shared inputs for the tests.

Every fast path of the library is compared with one reference here, written
from the definition rather than for speed:

- alternation: ``alternates`` scans the projection onto a pair, and
  ``reference_edges`` keeps the pairs that alternate;
- factorisation: ``reference_start_points`` is the plain greedy scan and
  ``reference_period`` the shortest divisor of the length that the word
  repeats with;
- connectivity and diameter: ``reference_connected`` grows the reached set
  over the edge list, and ``reference_diameter`` relaxes the edge list from
  every vertex;
- timestep activity: ``edges_at`` gives one timestep's edge set, and
  ``ReferenceActivity`` every timestep's letter and edge sets, with window
  checkers that scan them; ``assert_matches_reference`` compares every
  derived query and checker of a temporal graph with them;
- the pair lemmas: ``reference_interleaving`` walks every vertex pair rank by
  rank, and ``reference_occurrence_balance`` compares every pair's counts;
- the exact optimum: ``reference_oracle`` is plain Dijkstra over concrete
  (visited set, vertex) states;
- the families: ``predicted_path_timesteps`` and ``layered_edge_oracle`` are
  closed forms written apart from the generators.

The word generators and constants that more than one test module uses live
here too. Pytest does not collect this module; test modules import it by
name and import nothing from one another.
"""

import heapq
import itertools
import json
import random
from bisect import bisect_right
from collections import deque

from hypothesis import strategies as st

from wordgraph.formats import emit_graph
from wordgraph.graphs import Edge, is_connected, make_edge
from wordgraph.lemmas import (
    EDGE_RECURRENCE,
    INTERLEAVING,
    LETTER_RECURRENCE,
    OCCURRENCE_BALANCE,
    UNION_WINDOWS,
    LemmaReport,
    check_edge_recurrence,
    check_interleaving,
    check_letter_recurrence,
    check_occurrence_balance,
    check_union_windows,
)
from wordgraph.families import layered_word, path_word
from wordgraph.temporal import next_activation
from wordgraph.words import Symbol, Word, power

REFERENCE_TEMPORAL_WORD = "abacbdcedfegfhg"

# path-family optima from v1 on word^n, computed once by the exact oracle
# and frozen; the ratios opt/n must grow strictly
PATH_GROWTH_OPTIMA = {5: 4, 6: 6, 8: 9, 10: 15}
# layered optima from (1,1) on layered_word(2d, d)^(2d), frozen likewise
LAYERED_GROWTH_OPTIMA = {4: 7, 5: 10, 6: 14}

PATH_FAMILY_GRID = [(n, k) for n in (6, 8, 10, 12) for k in (1, 2, 3)]
LAYERED_FAMILY_GRID = [(8, 4), (12, 4), (15, 5), (12, 6)]


def syms(*tokens):
    return [Symbol(t) for t in tokens]


def edge(u, v):
    return make_edge(Symbol(u), Symbol(v))


def path_edges(tokens):
    """The edges of the path through ``tokens`` in order."""
    return frozenset(edge(a, b) for a, b in zip(tokens, tokens[1:]))


def words(max_size=30, sigma=5, min_size=1):
    """Hypothesis words over the first ``sigma`` of the letters a-h."""
    alphabet = st.sampled_from(syms(*"abcdefgh"[:sigma]))
    return st.lists(alphabet, min_size=min_size, max_size=max_size).map(
        lambda items: Word(tuple(items))
    )


def corpus_words(count=10_000, seed=20240817):
    rng = random.Random(seed)
    alphabets = {
        sigma: [Symbol(str(i)) for i in range(1, sigma + 1)] for sigma in range(3, 9)
    }
    out = []
    for _ in range(count):
        alphabet = alphabets[rng.randint(3, 8)]
        length = rng.randint(1, 60)
        out.append(Word(tuple(rng.choice(alphabet) for _ in range(length))))
    return out


def short_words(count, seed):
    # short words over small alphabets keep most pairs alternating, so their
    # graphs are frequently connected and their schedules frequently complete
    rng = random.Random(seed)
    alphabets = {
        sigma: [Symbol(str(i)) for i in range(1, sigma + 1)] for sigma in (3, 4, 5)
    }
    out = []
    for _ in range(count):
        alphabet = alphabets[rng.choice((3, 4, 5))]
        length = rng.randint(1, 12)
        out.append(Word(tuple(rng.choice(alphabet) for _ in range(length))))
    return out


def exhaustive_words(sigma, max_length):
    alphabet = [Symbol(str(i)) for i in range(1, sigma + 1)]
    for length in range(1, max_length + 1):
        for symbols in itertools.product(alphabet, repeat=length):
            yield Word(symbols)


def family_instances():
    words = [power(path_word(n), k) for n, k in PATH_FAMILY_GRID]
    words += [layered_word(n, d) for n, d in LAYERED_FAMILY_GRID]
    return words


def permutation_power_words(count, seed):
    # Blocks of random permutations repeated: two symbols alternate exactly
    # when every block orders them alike, so the graphs are dense and the
    # oracle searches rather than returning the scheduler's walk.
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(5, 7)
        blocks = [rng.sample([f"r{i}" for i in range(n)], n) for _ in range(rng.choice((2, 3)))]
        out.append(Word.from_tokens([tok for _ in range(6) for block in blocks for tok in block]))
    return out


def twinned(word, symbol, copies):
    """``word`` with each ``symbol`` followed by ``copies`` fresh symbols.
    They join its factors and alternate with whatever it alternates with,
    so it and they form a class of closed twins."""
    extra = [symbol + "'" * i for i in range(1, copies + 1)]
    tokens = []
    for sym in word.symbols:
        tokens += [sym, *extra] if sym == symbol else [sym]
    return Word.from_tokens(tokens)


def with_closed_twins(word, rng):
    return twinned(word, rng.choice(sorted(word.occurrences)), rng.choice((1, 2)))


def project(word, symbols):
    """Longest subsequence of ``word`` using only the given symbols.

    ``symbols`` may include symbols that never occur; they simply select
    nothing. The order of the kept positions is preserved.
    """
    keep = frozenset(symbols)
    return Word(tuple(sym for sym in word.symbols if sym in keep))


def alternates(word, x, y):
    """True when ``x`` and ``y`` strictly alternate within ``word``: the
    projection onto {x, y} never repeats a symbol in two adjacent positions.
    Projections of length 0 or 1 alternate trivially."""
    if x == y:
        raise ValueError(f"alternation needs two distinct symbols, got {x!r} twice")
    projected = project(word, (x, y)).symbols
    return all(a != b for a, b in zip(projected, projected[1:]))


def reference_edges(word):
    """Every pair of letters that alternates in ``word``, smaller first."""
    return {
        (x, y)
        for x, y in itertools.combinations(sorted(word.occurrences), 2)
        if alternates(word, x, y)
    }


def reference_period(word):
    n = len(word)
    return next(
        (p for p in range(1, n) if n % p == 0 and word.symbols[:p] * (n // p) == word.symbols),
        n,
    )


def reference_start_points(word):
    starts, factor = [1], set()
    for pos, sym in enumerate(word.symbols, start=1):
        if sym in factor:
            starts.append(pos)
            factor = set()
        factor.add(sym)
    return tuple(starts)


def reference_connected(graph):
    reached = {graph.vertices[0]}
    grew = True
    while grew:
        grew = False
        for u, v in graph.edges:
            if (u in reached) != (v in reached):
                reached |= {u, v}
                grew = True
    return len(reached) == len(graph.vertices)


def reference_distances(graph):
    """Distances from every vertex by relaxing every edge until no distance
    shrinks. A row holds only the vertices its source reaches."""
    n = len(graph.vertices)
    rows = {}
    for source in graph.vertices:
        dist = {v: n for v in graph.vertices}
        dist[source] = 0
        changed = True
        while changed:
            changed = False
            for u, v in graph.edges:
                for a, b in ((u, v), (v, u)):
                    if dist[a] + 1 < dist[b]:
                        dist[b] = dist[a] + 1
                        changed = True
        rows[source] = {v: d for v, d in dist.items() if d < n}
    return rows


def reference_diameter(graph):
    """Largest pairwise distance; None on a disconnected graph."""
    rows = reference_distances(graph).values()
    if any(len(row) < len(graph.vertices) for row in rows):
        return None
    return max(max(row.values()) for row in rows)


def predicted_path_timesteps(n: int, k: int) -> tuple[int, tuple[int, ...]]:
    """Closed form for (lifetime, start points) of path_word(n)^k.

    One copy yields t1 = floor((n+3)/2) factors; for even n this equals
    floor((2n+5)/4) and every interior start follows 4i - 5. The last start
    of a copy is 2n - 1 for even n but 2n for odd n, and the pattern repeats
    with period 2n, giving lifetime k*(t1 - 1) + 1. Verified against the
    greedy scan for every supported (n, k).
    """
    if n < 4:
        raise ValueError(f"start-point closed form needs n >= 4, got {n}")
    if k < 1:
        raise ValueError(f"power must be >= 1, got {k}")
    t1 = (n + 3) // 2
    tail = [4 * i - 5 for i in range(2, t1 + 1)]
    if n % 2:
        tail[-1] -= 1
    starts = [1]
    for copy in range(k):
        offset = 2 * copy * n
        starts.extend(offset + s for s in tail)
    lifetime = k * (t1 - 1) + 1
    return lifetime, tuple(starts)


def layered_edge_oracle(n: int, d: int) -> frozenset[Edge]:
    """Expected edge set of the layered family: complete bipartite between
    consecutive layers, nothing else."""
    per_layer = n // d
    edges: set[Edge] = set()
    for layer in range(1, d):
        for i in range(1, per_layer + 1):
            for j in range(1, per_layer + 1):
                edges.add(
                    make_edge(Symbol(f"({i},{layer})"), Symbol(f"({j},{layer + 1})"))
                )
    return frozenset(edges)


def edges_at(tg, t):
    """The edge set of timestep ``t``: every base edge incident to a letter
    of factor t."""
    lo, hi = tg.factor_bounds[t - 1]
    adjacency = tg.base.adjacency
    return frozenset(
        make_edge(sym, nb) for sym in tg.word.symbols[lo - 1 : hi] for nb in adjacency[sym]
    )


class ReferenceActivity:
    """Per-timestep letter sets and edge sets of a temporal graph."""

    def __init__(self, tg):
        starts = tg.start_points
        ends = tuple(s - 1 for s in starts[1:]) + (len(tg.word),)
        adjacency = tg.base.adjacency
        self.tg = tg
        self.letters = []
        self.active = []
        for lo, hi in zip(starts, ends):
            factor = frozenset(tg.word.symbols[lo - 1 : hi])
            self.letters.append(factor)
            self.active.append(
                frozenset(make_edge(sym, nb) for sym in factor for nb in adjacency[sym])
            )

    def always_connected(self):
        verts = self.tg.base.vertices
        n = len(verts)
        if n == 1:
            return True
        for edges in self.active:
            adjacency = {}
            for u, v in edges:
                adjacency.setdefault(u, []).append(v)
                adjacency.setdefault(v, []).append(u)
            reached = {verts[0]}
            queue = deque([verts[0]])
            while queue:
                v = queue.popleft()
                for u in adjacency.get(v, ()):
                    if u not in reached:
                        reached.add(u)
                        queue.append(u)
            if len(reached) != n:
                return False
        return True

    def next_activation(self, e, t):
        return next(
            (s for s in range(t + 1, self.tg.lifetime + 1) if e in self.active[s - 1]),
            None,
        )

    def is_edge_active(self, e, t):
        if not 1 <= t <= self.tg.lifetime:
            raise ValueError(f"timestep {t} outside [1, {self.tg.lifetime}]")
        if e not in self.tg.base.edges:
            raise ValueError(f"not an underlying edge: {e!r}")
        return e in self.active[t - 1]

    def temporal_json(self):
        tg = self.tg
        doc = {
            "vertices": sorted(v.token for v in tg.base.vertices),
            "edges": [[u.token, v.token] for u, v in sorted(tg.base.edges)],
            "start_points": list(tg.start_points),
            "timesteps": [
                {
                    "range": [lo, hi],
                    "letters": sorted(sym.token for sym in self.letters[t]),
                    "edges": [[u.token, v.token] for u, v in sorted(self.active[t])],
                }
                for t, (lo, hi) in enumerate(tg.factor_bounds)
            ],
        }
        return json.dumps(doc, indent=2) + "\n"

    def letter_recurrence(self):
        tg = self.tg
        if not self.always_connected():
            return LemmaReport(
                LETTER_RECURRENCE, False, True, (), "not connected in every timestep"
            )
        lifetime = tg.lifetime
        violations = []
        unfit = []
        for v in tg.base.vertices:
            span = len(tg.base.adjacency[v]) + 1
            if lifetime - span + 1 < 1:
                unfit.append(v.token)
                continue
            for t in range(1, lifetime - span + 2):
                if all(v not in self.letters[s] for s in range(t - 1, t - 1 + span)):
                    violations.append((v.token, t))
        notes = ""
        if unfit:
            notes = "windows exceed the lifetime for: " + ", ".join(sorted(unfit))
        return LemmaReport(LETTER_RECURRENCE, True, not violations, tuple(violations), notes)

    def edge_recurrence(self):
        tg = self.tg
        if not self.always_connected():
            return LemmaReport(
                EDGE_RECURRENCE, False, True, (), "not connected in every timestep"
            )
        lifetime = tg.lifetime
        if not tg.base.edges:
            return LemmaReport(EDGE_RECURRENCE, True, True, (), "no edges to check")
        delta = min(len(tg.base.adjacency[v]) for v in tg.base.vertices)
        violations = []
        any_window = False
        for u, v in sorted(tg.base.edges):
            local = min(len(tg.base.adjacency[u]), len(tg.base.adjacency[v]))
            for kind, gap in (("delta-window", delta), ("min-degree-window", local)):
                for t in range(1, lifetime - gap + 1):
                    any_window = True
                    if all((u, v) not in self.active[s] for s in range(t - 1, t + gap)):
                        violations.append((kind, u.token, v.token, t))
        notes = "" if any_window else "no window fits inside the lifetime"
        return LemmaReport(EDGE_RECURRENCE, True, not violations, tuple(violations), notes)

    def union_windows(self):
        tg = self.tg
        if not is_connected(tg.base):
            return LemmaReport(
                UNION_WINDOWS, False, True, (), "underlying graph is disconnected"
            )
        graph = tg.base
        lifetime = tg.lifetime
        dia = reference_diameter(graph)
        edges = graph.edges
        active = self.active
        violations = []
        skipped = []
        if dia <= lifetime:
            seen = frozenset().union(*active[:dia]) if dia else frozenset()
            for u, v in sorted(edges - seen):
                violations.append(("first-window", u.token, v.token))
        else:
            skipped.append("first-window")
        if lifetime - dia - 1 >= 1:
            for t in range(1, lifetime - dia):
                for u, v in sorted(active[t - 1]):
                    if all((u, v) not in active[s] for s in range(t, t + dia + 1)):
                        violations.append(("reactivation", u.token, v.token, t))
        else:
            skipped.append("reactivation")
        if lifetime - dia >= 1:
            for t in range(1, lifetime - dia + 1):
                window = frozenset().union(*active[t - 1 : t + dia])
                for u, v in sorted(edges - window):
                    violations.append(("window-union", t, u.token, v.token))
        else:
            skipped.append("window-union")
        if len(skipped) == 3:
            return LemmaReport(
                UNION_WINDOWS,
                False,
                True,
                (),
                f"diameter {dia} exceeds lifetime {lifetime}: no window fits",
            )
        notes = ""
        if skipped:
            notes = "skipped (window does not fit): " + ", ".join(skipped)
        return LemmaReport(UNION_WINDOWS, True, not violations, tuple(violations), notes)


def reference_interleaving(tg):
    """Every rank i of y's occurrences lies between x's ranks i - d' and
    i + d', out-of-range ranks meaning -inf and +inf."""
    if not is_connected(tg.base):
        return LemmaReport(INTERLEAVING, False, True, (), "underlying graph is disconnected")
    distances = reference_distances(tg.base)
    occurrences = tg.word.occurrences
    violations = []
    for x in tg.base.vertices:
        chi = occurrences[x]

        def chi_at(rank):
            if rank < 1:
                return float("-inf")
            if rank > len(chi):
                return float("inf")
            return chi[rank - 1]

        for y in tg.base.vertices:
            if x == y:
                continue
            spread = distances[x][y]
            for i, position in enumerate(occurrences[y], start=1):
                if not chi_at(i - spread) <= position <= chi_at(i + spread):
                    violations.append((x.token, y.token, i))
    return LemmaReport(INTERLEAVING, True, not violations, tuple(violations))


def reference_occurrence_balance(tg):
    """Every pair's occurrence counts differ by at most their distance."""
    if not is_connected(tg.base):
        return LemmaReport(
            OCCURRENCE_BALANCE, False, True, (), "underlying graph is disconnected"
        )
    distances = reference_distances(tg.base)
    counts = {v: len(tg.word.occurrences[v]) for v in tg.base.vertices}
    violations = [
        (x.token, y.token, counts[x], counts[y], distances[x][y])
        for x, y in itertools.combinations(tg.base.vertices, 2)
        if abs(counts[x] - counts[y]) > distances[x][y]
    ]
    return LemmaReport(OCCURRENCE_BALANCE, True, not violations, tuple(violations))


def witness_kinds(report):
    # letter-recurrence, occurrence-balance and interleaving witnesses start
    # with a token, not a kind
    if report.lemma_id in (LETTER_RECURRENCE, OCCURRENCE_BALANCE, INTERLEAVING):
        return {report.lemma_id} if report.violations else set()
    return {witness[0] for witness in report.violations}


def assert_matches_reference(tg):
    """Compare every derived query with the reference; return the witness
    kinds the checkers reported."""
    ref = ReferenceActivity(tg)
    assert tg.always_connected == ref.always_connected()
    reports = [
        (check_letter_recurrence(tg), ref.letter_recurrence()),
        (check_edge_recurrence(tg), ref.edge_recurrence()),
        (check_union_windows(tg), ref.union_windows()),
        (check_occurrence_balance(tg), reference_occurrence_balance(tg)),
        (check_interleaving(tg), reference_interleaving(tg)),
    ]
    for report, expected in reports:
        assert report == expected, (str(tg.word), tg.start_points)
    for t in range(1, tg.lifetime + 1):
        assert edges_at(tg, t) == ref.active[t - 1]
    for e in tg.base.edges:
        for t in range(tg.lifetime + 1):
            assert next_activation(tg, e, t) == ref.next_activation(e, t)
        for t in range(1, tg.lifetime + 1):
            assert (next_activation(tg, e, t - 1) == t) is ref.is_edge_active(e, t)
    assert emit_graph(tg) == ref.temporal_json()
    return set().union(*(witness_kinds(report) for report, _ in reports))


def random_start_points(rng, length):
    """A random set of start points for a word of ``length`` symbols: 1 and
    a random subset of the later positions, so a factor may repeat a
    letter."""
    later = rng.sample(range(2, length + 1), rng.randint(0, length - 1))
    return (1, *sorted(later))


def reference_oracle(tg, start):
    """Plain Dijkstra over concrete (visited set, vertex) states, with no
    bound, pruning or twin classes. A walk moves at any later timestep along
    an edge of ``edges_at`` that timestep.

    Returns (optimum, earliest). The optimum is the earliest time at which
    some temporal walk from ``start`` has visited every vertex, or None.
    ``earliest`` maps each state (visited mask, vertex id), with ids in
    vertex order, to its earliest time: for every state reached no later
    than the optimum, or for every reachable state when there is none. Each
    move takes time, so those states are settled when the first full state
    is taken off the heap."""
    vertices = tg.base.vertices
    tg.base.require_vertex(start)
    ids = {v: i for i, v in enumerate(vertices)}
    times = [{} for _ in vertices]
    for t in range(1, tg.lifetime + 1):
        for u, v in edges_at(tg, t):
            times[ids[u]].setdefault(ids[v], []).append(t)
            times[ids[v]].setdefault(ids[u], []).append(t)
    moves = [sorted(row.items()) for row in times]
    full = (1 << len(vertices)) - 1
    s = ids[start]
    earliest = {(1 << s, s): 0}
    heap = [(0, 1 << s, s)]
    while heap:
        t, mask, v = heapq.heappop(heap)
        if earliest[mask, v] != t:
            continue
        if mask == full:
            return t, {state: e for state, e in earliest.items() if e <= t}
        for u, ts in moves[v]:
            i = bisect_right(ts, t)
            state = (mask | 1 << u, u)
            if i < len(ts) and ts[i] < earliest.get(state, ts[i] + 1):
                earliest[state] = ts[i]
                heapq.heappush(heap, (ts[i], *state))
    return None, earliest
