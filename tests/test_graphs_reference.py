"""The alternation graph, connectivity and the diameter against the slow
references of ``references``.

``build_graph`` decides each pair from the run lengths and two slice
comparisons, so its edge set must equal ``reference_edges``, the pairs
whose projection alternates, on the corpus, on every short word, on family
powers, and on powers of permutation blocks, where a pair that alternates
does so along the whole word. The reference tests every pair of letters,
while ``build_graph`` tests only candidate pairs, those whose later symbol
first occurs before the earlier one's second occurrence, so the two
agreeing also shows that no other pair alternates.

``is_connected`` is decided once per graph and answers False without a
search below n - 1 edges. It must agree with ``reference_connected`` on the
corpus and on hand-built graphs at and around that edge count.

``diameter`` is decided once per graph. On a tree it takes one search,
from the far vertex the connectivity search reached last, and otherwise
one search per class of vertices with equal open or closed neighbourhoods
(``neighbourhood_classes``), never one search per vertex. It must agree
with ``reference_diameter`` on the corpus, on the same hand-built graphs
and path powers, and on twin-rich graphs that are not trees: complete-word
and layered powers, complete bipartite and multipartite graphs, and two
cliques that share a vertex.
"""

import random
from itertools import combinations

import pytest

import wordgraph.graphs as graphs
from references import (
    corpus_words,
    exhaustive_words,
    family_instances,
    reference_connected,
    reference_diameter,
    reference_edges,
    short_words,
)
from wordgraph.explore import exploration_bound, schedule_explore
from wordgraph.families import layered_word, path_word
from wordgraph.graphs import (
    StaticGraph,
    build_graph,
    diameter,
    is_connected,
    neighbourhood_classes,
)
from wordgraph.lemmas import run_all
from wordgraph.temporal import build_temporal
from wordgraph.words import Symbol, Word, power


def permutation_block_words(rng, count):
    out = []
    for _ in range(count):
        n, blocks = rng.randint(2, 9), rng.randint(1, 3)
        symbols = [Symbol(f"p{v}") for v in range(n)]
        block = []
        for _ in range(blocks):
            block += rng.sample(symbols, n)
        out.append(power(Word(tuple(block)), rng.randint(1, n)))
    return out


@pytest.fixture(scope="module")
def corpus_graphs():
    """The corpus and 2,000 short words, each with its graph, built once for
    the module."""
    return [(word, build_graph(word)) for word in corpus_words() + short_words(2000, seed=17)]


def test_corpus_words(corpus_graphs):
    for word, graph in corpus_graphs:
        assert graph.edges == reference_edges(word)


@pytest.mark.parametrize("sigma, max_length", [(2, 10), (3, 8), (4, 6)])
def test_exhaustive_words(sigma, max_length):
    for word in exhaustive_words(sigma, max_length):
        assert build_graph(word).edges == reference_edges(word)


def test_family_powers():
    words = family_instances()
    words += [power(path_word(n), k) for n in (3, 5, 8, 12, 20) for k in (1, 2, n)]
    words += [
        power(layered_word(n, d), k)
        for n, d in ((6, 3), (8, 4), (12, 6), (15, 5))
        for k in (1, 2, n)
    ]
    for word in words:
        assert build_graph(word).edges == reference_edges(word)


def test_permutation_block_powers():
    words = permutation_block_words(random.Random(7), 400)
    words += [Word.from_tokens([f"k{v}" for v in range(n)] * n) for n in range(1, 13)]
    for word in words:
        assert build_graph(word).edges == reference_edges(word)


def connectivity_probes(rng, count):
    """Graphs from ``StaticGraph.from_edges``: single vertices, trees (n - 1
    edges), forests (fewer), trees with extra edges, random edge sets, and
    a clique of three or more beside isolated vertices, which is
    disconnected with n - 1 or more edges."""
    probes = [StaticGraph.from_edges([Symbol("v")])]
    for _ in range(count):
        n = rng.randint(2, 9)
        vs = [Symbol(f"v{i}") for i in range(n)]
        tree = [(vs[i], vs[rng.randrange(i)]) for i in range(1, n)]
        pairs = list(combinations(vs, 2))
        extra = rng.sample(pairs, rng.randint(1, len(pairs)))
        forest = rng.sample(tree, rng.randrange(n - 1))
        probes += [
            StaticGraph.from_edges(vs, tree),
            StaticGraph.from_edges(vs, forest),
            StaticGraph.from_edges(vs, tree + extra),
            StaticGraph.from_edges(vs, extra),
        ]
        if n >= 4:
            k = rng.randint(3, n - 1)
            probes.append(StaticGraph.from_edges(vs, combinations(vs[:k], 2)))
    return probes


def test_is_connected_on_corpus_words(corpus_graphs):
    built = [graph for _, graph in corpus_graphs]
    assert {reference_connected(g) for g in built} == {True, False}
    for graph in built:
        assert is_connected(graph) == reference_connected(graph)


def test_is_connected_on_built_graphs():
    probes = connectivity_probes(random.Random(11), 400)
    # Every class is present, including disconnected graphs that meet the
    # edge count and so need the search.
    n_minus_1 = [g for g in probes if len(g.edges) == len(g.vertices) - 1]
    assert any(map(reference_connected, n_minus_1))
    assert not all(map(reference_connected, n_minus_1))
    assert any(
        not reference_connected(g) and len(g.edges) > len(g.vertices) - 1 for g in probes
    )
    for graph in probes:
        assert is_connected(graph) == reference_connected(graph)


def assert_diameter_matches_reference(graph):
    expected = reference_diameter(graph)
    if expected is None:
        with pytest.raises(graphs.DisconnectedGraphError):
            diameter(graph)
    else:
        assert diameter(graph) == expected


def test_diameter_on_corpus_words(corpus_graphs):
    built = [graph for _, graph in corpus_graphs]
    # Trees take the two-sweep path, other connected graphs one search per class.
    assert any(len(g.edges) == len(g.vertices) - 1 and is_connected(g) for g in built)
    assert any(len(g.edges) > len(g.vertices) - 1 and is_connected(g) for g in built)
    for graph in built:
        assert_diameter_matches_reference(graph)


def test_diameter_on_built_graphs():
    # Single vertices, trees, forests, trees with extra edges, random edge
    # sets, a clique beside isolated vertices, and the paths of path(n)^n,
    # whose diameter is n - 1.
    paths = [build_graph(power(path_word(n), n)) for n in (3, 4, 9)]
    assert [reference_diameter(graph) for graph in paths] == [2, 3, 8]
    for graph in connectivity_probes(random.Random(12), 400) + paths:
        assert_diameter_matches_reference(graph)


def twin_rich_graphs():
    """Connected graphs with more edges than a tree and fewer neighbourhood
    classes than vertices."""
    built = [
        build_graph(power(Word.from_tokens(str(i) for i in range(n)), k))
        for n in (3, 5, 9, 14)
        for k in (1, 2, n)
    ]
    built += [
        build_graph(power(layered_word(n, d), k))
        for n, d in ((6, 3), (8, 4), (12, 4), (12, 6), (15, 5), (21, 7))
        for k in (1, 2, n)
    ]
    vs = [Symbol(f"v{i}") for i in range(12)]
    # Complete multipartite graphs, two parts (complete bipartite) and more.
    for sizes in ((2, 2), (2, 5), (3, 4), (1, 1, 3), (2, 3, 4), (1, 2, 2, 3)):
        part = [p for p, size in enumerate(sizes) for _ in range(size)]
        members = vs[: len(part)]
        built.append(
            StaticGraph.from_edges(
                members,
                [
                    (u, v)
                    for (u, pu), (v, pv) in combinations(zip(members, part), 2)
                    if pu != pv
                ],
            )
        )
    # Two cliques that share the vertex v0.
    for a, b in ((3, 3), (3, 5), (4, 6)):
        left, right = vs[:a], [vs[0], *vs[a : a + b - 1]]
        built.append(
            StaticGraph.from_edges(left + right, [*combinations(left, 2), *combinations(right, 2)])
        )
    return built


def test_diameter_on_twin_rich_graphs():
    built = twin_rich_graphs()
    assert len(built) == 39
    for graph in built:
        assert is_connected(graph) and len(graph.edges) > len(graph.vertices) - 1
        assert len(neighbourhood_classes(graph)) < len(graph.vertices)
        assert_diameter_matches_reference(graph)


def counted_searches(monkeypatch):
    calls = []
    search = graphs._bfs_distances

    def counting(graph, source):
        calls.append(source)
        return search(graph, source)

    monkeypatch.setattr(graphs, "_bfs_distances", counting)
    return calls


def test_sparse_disconnected_word_runs_no_search(monkeypatch):
    tg = build_temporal(Word.from_tokens("ababcdcd"))
    assert len(tg.base.edges) < len(tg.base.vertices) - 1
    calls = counted_searches(monkeypatch)
    run_all(tg)
    assert not is_connected(tg.base)
    assert calls == []
    # The per-timestep searches of always_connected read adjacency.
    assert "adjacency" not in tg.base.__dict__


def test_connected_word_searches_once(monkeypatch):
    tg = build_temporal(power(path_word(5), 5))
    calls = counted_searches(monkeypatch)
    run_all(tg)
    assert is_connected(tg.base)
    result = schedule_explore(tg, tg.base.vertices[0])
    exploration_bound(tg)
    assert result.visited_all
    # One connectivity search, from vertex 1. The base is the path
    # 1-2-3-4-5, a tree, so the diameter is one more sweep, from vertex 5,
    # the far end that search reached last; exploration_bound reads the one
    # union-windows found.
    first, far = tg.base.vertices[0], tg.base.vertices[-1]
    assert calls == [first, far]


@pytest.mark.parametrize(
    "word, searches",
    [
        # Each of the 4 layers is one class of open twins.
        (power(layered_word(12, 4), 12), 4),
        # K_9: every vertex is a closed twin of every other.
        (Word.from_tokens([f"k{i}" for i in range(9)] * 9), 1),
    ],
)
def test_diameter_searches_once_per_class(monkeypatch, word, searches):
    graph = build_graph(word)
    calls = counted_searches(monkeypatch)
    assert is_connected(graph)
    assert len(calls) == 1
    diameter(graph)
    diameter(graph)
    assert len(calls) == 1 + searches
