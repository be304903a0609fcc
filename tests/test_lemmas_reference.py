"""Derived timestep activity against slow per-timestep references.

``ReferenceActivity`` (in ``references``) builds every timestep's letter
set and edge set explicitly: factor t's letters, and every base edge with an
endpoint among them. Its window checkers scan those sets window by window,
and its activity queries scan them timestep by timestep. The library derives
the same facts from per-vertex letter times, so ``check_letter_recurrence``,
``check_edge_recurrence``, ``check_union_windows``, ``always_connected``,
``next_activation`` and the temporal JSON must agree
with them exactly, witnesses and their order included, and each timestep's
edges must equal ``edges_at``. ``per_edge_temporal_json`` (in ``references``)
builds the temporal JSON as Python data edge by edge from activation times
and renders it with ``json.dumps``; the library renders each distinct factor
once and joins the document once, and the two must agree byte for byte.
``reference_interleaving`` walks every vertex pair rank by rank and
``reference_occurrence_balance`` compares every pair's counts;
``check_interleaving`` and ``check_occurrence_balance`` read pairs only when
some base edge fails its local certificate.

Words alone never violate a checker, so three probe sets build temporal
graphs that no word yields: start points other than the greedy ones, a base
graph that is not the word's own, and a connected spanning subgraph of the
word's own graph. The first two between them produce every witness kind, and
each kind is compared. In the third every edge alternates, so the edge
certificates pass, while distances and the diameter grow past those of the
word's own graph. The word sets do not reach the union fallback of
``edge-recurrence`` and ``union-windows``, so the foreign-base probes must.
``test_planted_violation`` adds one fixed graph per checker with its full
report spelled out, each gap at the checker's threshold, so an off-by-one in
a violation path fails a named test rather than one random draw.
"""

import itertools
import json
import random
from collections import Counter, deque

import pytest

from references import (
    ReferenceActivity,
    assert_matches_reference,
    corpus_words,
    exhaustive_words,
    family_instances,
    graph_doc,
    per_edge_temporal_json,
    random_start_points,
    reference_diameter,
    reference_distances,
    reference_interleaving,
    short_words,
)
from wordgraph.formats import emit_graph
from wordgraph.graphs import StaticGraph, is_connected, make_edge
from wordgraph.lemmas import (
    CHECKS,
    EDGE_RECURRENCE,
    INTERLEAVING,
    LETTER_RECURRENCE,
    OCCURRENCE_BALANCE,
    UNION_WINDOWS,
    LemmaReport,
    check_interleaving,
)
from wordgraph.families import layered_word, path_word
from wordgraph.temporal import TemporalGraph, build_temporal
from wordgraph.words import Symbol, Word, power

WITNESS_KINDS = {
    "letter-recurrence",
    "delta-window",
    "min-degree-window",
    "first-window",
    "reactivation",
    "window-union",
    "occurrence-balance",
    "interleaving",
}


def test_random_words():
    for word in corpus_words(count=1000, seed=31) + short_words(1000, seed=31):
        assert not assert_matches_reference(build_temporal(word))


@pytest.mark.parametrize("sigma, max_length", [(2, 8), (3, 7)])
def test_exhaustive_words(sigma, max_length):
    for word in exhaustive_words(sigma, max_length):
        assert not assert_matches_reference(build_temporal(word))


def test_family_words():
    words = family_instances()
    words += [power(path_word(n), n) for n in (3, 5, 8)]
    words += [power(layered_word(n, d), 3) for n, d in ((6, 3), (8, 4), (9, 3))]
    # permutation powers are always connected, so the recurrence checkers
    # apply to them
    words += [
        power(Word.from_tokens(str(i) for i in range(n)), k)
        for n in (2, 3, 5, 8)
        for k in (1, 3, 9)
    ]
    for word in words:
        assert not assert_matches_reference(build_temporal(word))


def non_greedy_probes(rng, count):
    """Words paired with a random set of start points that begins at 1."""
    for word in short_words(count, seed=rng.random()):
        starts = random_start_points(rng, len(word))
        yield TemporalGraph(word, starts, build_temporal(word).base)


def foreign_base_probes(rng, count):
    """Greedy temporal graphs over the complete graph on the word's alphabet,
    or over a random subset of its pairs."""
    for word in short_words(count, seed=rng.random()):
        alphabet = sorted(word.occurrences)
        pairs = list(itertools.combinations(alphabet, 2))
        if rng.random() < 0.5:
            pairs = [p for p in pairs if rng.random() < 0.6]
        base = StaticGraph.from_edges(alphabet, pairs)
        yield TemporalGraph(word, build_temporal(word).start_points, base)


def spanning_subgraph_probes(rng, words):
    """Greedy temporal graphs over a BFS spanning tree of each word's own
    graph, when that graph is connected, half of them with some of the
    remaining edges added back."""
    for word in words:
        own = build_temporal(word)
        if not is_connected(own.base):
            continue
        root = rng.choice(own.base.vertices)
        reached = {root}
        queue = deque([root])
        kept = []
        while queue:
            v = queue.popleft()
            for u in sorted(own.base.adjacency[v] - reached):
                reached.add(u)
                queue.append(u)
                kept.append(make_edge(v, u))
        if rng.random() < 0.5:
            rest = sorted(own.base.edges.difference(kept))
            kept += [e for e in rest if rng.random() < 0.3]
        base = StaticGraph.from_edges(own.base.vertices, kept)
        yield TemporalGraph(word, own.start_points, base)


def test_non_greedy_start_points_probe():
    rng = random.Random(5)
    kinds = set()
    for tg in non_greedy_probes(rng, 1500):
        kinds |= assert_matches_reference(tg)
    assert kinds >= {"first-window", "reactivation", "window-union"}


# One small temporal graph per checker, each a word over the complete graph
# on its letters (so every timestep is connected and every distance is 1),
# with the checker's full report. The gaps sit at the checkers' thresholds.
PLANTED = [
    # Vertex 1 (degree 3) is a letter at times 1-3 only, of 7: its gap to
    # T+1 = 8 is 5, one more than the window of 4.
    ("1 1 1 4 3 4 2 2 3 3 3", LemmaReport(LETTER_RECURRENCE, True, (("1", 4),))),
    # Edge (a, b) is active at time 1 only, of 4: a gap of 4, one more than
    # the window of delta + 1 = 3.
    (
        "a b c c c c",
        LemmaReport(
            EDGE_RECURRENCE,
            True,
            (("delta-window", "a", "b", 2), ("min-degree-window", "a", "b", 2)),
        ),
    ),
    ("a b b b", LemmaReport(OCCURRENCE_BALANCE, True, (("a", "b", 1, 3, 1),))),
    # b's one occurrence, 3, lies past a's rank 1 + 1 = 2, and a's second
    # lies before b's rank 2 - 1 = 1.
    ("a a b", LemmaReport(INTERLEAVING, True, (("a", "b", 1), ("b", "a", 2)))),
    # Diameter 1 over 7 timesteps: edges (1, 2) and (2, 4) go dark after
    # time 5, (1, 4) after time 4; no edge of 2, 3 and 4 is active at time 1.
    (
        "1 1 1 4 3 4 2 2 3 3 3",
        LemmaReport(
            UNION_WINDOWS,
            True,
            (
                ("first-window", "2", "3"),
                ("first-window", "2", "4"),
                ("first-window", "3", "4"),
                ("reactivation", "1", "4", 4),
                ("reactivation", "1", "2", 5),
                ("reactivation", "2", "4", 5),
                ("window-union", 1, "2", "3"),
                ("window-union", 1, "2", "4"),
                ("window-union", 1, "3", "4"),
                ("window-union", 5, "1", "4"),
                ("window-union", 6, "1", "2"),
                ("window-union", 6, "1", "4"),
                ("window-union", 6, "2", "4"),
            ),
        ),
    ),
]


@pytest.mark.parametrize(
    "tokens, expected", PLANTED, ids=[report.lemma_id for _, report in PLANTED]
)
def test_planted_violation(tokens, expected):
    word = Word.from_tokens(tokens.split())
    alphabet = sorted(word.occurrences)
    base = StaticGraph.from_edges(alphabet, itertools.combinations(alphabet, 2))
    tg = TemporalGraph(word, build_temporal(word).start_points, base)
    assert CHECKS[expected.lemma_id](tg) == expected
    assert_matches_reference(tg)


def union_fallbacks(tg):
    """Edges that edge-recurrence and union-windows, where they apply, leave
    to the edge's own union: both endpoints' letter times have a gap longer
    than the window. Counted per lemma as "undecided", and as "passed" when
    the union then has no such gap."""
    lifetime = tg.lifetime
    times = tg.letter_times

    def largest_gap(ts):
        bounds = (0, *ts, lifetime + 1)
        return max(b - a for a, b in zip(bounds, bounds[1:]))

    graph = tg.base
    windows = {}
    if ReferenceActivity(tg).always_connected() and graph.edges:
        windows[EDGE_RECURRENCE] = min(len(graph.adjacency[v]) for v in graph.vertices) + 1
    if is_connected(graph):
        dia = reference_diameter(graph)
        windows[UNION_WINDOWS] = dia + 1
    counts = Counter()
    for lemma, size in windows.items():
        for u, v in graph.edges:
            if min(largest_gap(times[u]), largest_gap(times[v])) > size:
                counts[lemma, "undecided"] += 1
                counts[lemma, "passed"] += largest_gap(sorted({*times[u], *times[v]})) <= size
    return counts


def test_foreign_base_probe():
    rng = random.Random(6)
    kinds = set()
    fallbacks = Counter()
    for tg in foreign_base_probes(rng, 1500):
        kinds |= assert_matches_reference(tg)
        fallbacks += union_fallbacks(tg)
    assert kinds == WITNESS_KINDS
    # These probes are the union fallback's test: each lemma must meet
    # edges left undecided, some of which then pass.
    assert fallbacks[EDGE_RECURRENCE, "undecided"] > 40
    assert fallbacks[EDGE_RECURRENCE, "passed"] > 15
    assert fallbacks[UNION_WINDOWS, "undecided"] > 300
    assert fallbacks[UNION_WINDOWS, "passed"] > 100


def test_emitter_matches_per_edge_renderer():
    """The temporal JSON renders each distinct factor once and joins the
    document once; it must match the per-edge rendering byte for byte,
    without filling ``letter_times``, and the base's JSON must match
    ``json.dumps`` of ``graph_doc``. Path(48)^48 (~500 KB), layered
    (48,3)^10 (~660 KB) and the 18-symbol permutation to the 72nd power,
    whose every timestep holds all 153 edges, are large documents."""
    rng = random.Random(9)
    graphs = [build_temporal(word) for word in corpus_words()]
    graphs += non_greedy_probes(rng, 1500)
    graphs += foreign_base_probes(rng, 1500)
    words = [power(path_word(n), k) for n in (3, 5, 8, 20) for k in (1, 2, n)]
    words += [
        power(layered_word(n, d), k)
        for n, d in ((6, 3), (8, 4), (12, 6), (15, 5))
        for k in (1, 2, n)
    ]
    words += [
        power(Word.from_tokens(str(i) for i in range(n)), k)
        for n in (1, 2, 5, 12)
        for k in (1, 3, 2 * n)
    ]
    words += [
        power(path_word(48), 48),
        power(layered_word(48, 3), 10),
        power(Word.from_tokens(str(i) for i in range(18)), 72),
    ]
    graphs += map(build_temporal, words)
    for tg in graphs:
        text = emit_graph(tg)
        assert "letter_times" not in tg.__dict__
        assert text == per_edge_temporal_json(tg), (str(tg.word), tg.start_points)
        assert emit_graph(tg.base) == json.dumps(graph_doc(tg.base), indent=2) + "\n"


def test_spanning_subgraph_probe():
    rng = random.Random(7)
    words = [w for w in short_words(3000, seed=7) if len(w.occurrences) >= 3]
    words += [power(path_word(n), n) for n in (4, 6, 9)]
    words += [power(layered_word(n, d), 4) for n, d in ((6, 3), (8, 4), (9, 3))]
    words += [power(Word.from_tokens(str(i) for i in range(n)), 6) for n in (4, 6, 8)]
    grown = 0
    for tg in spanning_subgraph_probes(rng, words):
        assert_matches_reference(tg)
        grown += reference_distances(tg.base) != reference_distances(build_temporal(tg.word).base)
    # most probes must stretch some distance past the word's own graph
    assert grown > 150


def test_interleaving_certificate_keeps_the_length_guard():
    # On the edge (a, b) the runs (1, 3, 5) and (2,) pass both slice
    # comparisons of the spread-1 condition, but their lengths differ by
    # 2; (b, c) passes all of it. So only the length guard can fail the
    # certificate and send the check to the pair scan.
    word = Word.from_tokens("abaca")
    a, b, c = map(Symbol, "abc")
    base = StaticGraph.from_edges([a, b, c], [(a, b), (b, c)])
    tg = TemporalGraph(word, build_temporal(word).start_points, base)
    report = check_interleaving(tg)
    assert not report.passed
    assert report == reference_interleaving(tg)
    assert ("b", "a", 3) in report.violations
