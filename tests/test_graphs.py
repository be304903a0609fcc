import pytest
from hypothesis import given
from hypothesis import strategies as st

from references import edge, path_edges, reference_edges, syms, words
from wordgraph.graphs import (
    DisconnectedGraphError,
    StaticGraph,
    build_graph,
    diameter,
    is_connected,
    make_edge,
    min_degree,
    spanning_walk,
)
from wordgraph.words import Symbol, Word, power


class TestBuildGraph:
    def test_reference_word_is_a_path(self):
        g = build_graph(Word.from_chars("abacbdcedfegfhg"))
        assert g.edges == path_edges("abcdefgh")
        assert g.vertices == tuple(sorted(syms(*"abcdefgh")))

    def test_small_path(self):
        g = build_graph(Word.from_chars("121323"))
        assert g.edges == path_edges("123")

    def test_all_single_occurrences_give_complete_graph(self):
        g = build_graph(Word.from_chars("xyz"))
        assert g.edges == frozenset({edge("x", "y"), edge("x", "z"), edge("y", "z")})

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            build_graph(Word())

    @given(words(sigma=5))
    def test_agrees_with_alternation_form_oracle(self, w):
        assert build_graph(w).edges == reference_edges(w)

    @given(words(sigma=4), st.integers(min_value=1, max_value=3))
    def test_powers_never_add_edges_and_vertices_agree(self, w, k):
        g, gk = build_graph(w), build_graph(power(w, k))
        assert g.vertices == gk.vertices
        assert gk.edges <= g.edges

    @given(words(sigma=4), st.integers(min_value=1, max_value=3))
    def test_powers_preserve_balanced_alternating_pairs(self, w, k):
        g, gk = build_graph(w), build_graph(power(w, k))
        for x, y in g.edges:
            if len(w.occurrences[x]) == len(w.occurrences[y]):
                assert (x, y) in gk.edges

    def test_unbalanced_pair_loses_its_edge_under_powers(self):
        # both symbols occur at least twice, yet the edge does not survive
        w = Word.from_chars("xyxyx")
        assert build_graph(w).edges == {edge("x", "y")}
        assert build_graph(power(w, 2)).edges == frozenset()


class TestMetrics:
    def test_distance_on_path(self):
        g = build_graph(Word.from_chars("abacbdcedfegfhg"))
        assert g.distances[Symbol("a")][Symbol("h")] == 7
        assert g.distances[Symbol("c")][Symbol("c")] == 0

    def test_distance_unreachable_is_none(self):
        g = StaticGraph.from_edges(
            syms("a", "b", "c", "d"),
            [(Symbol("a"), Symbol("b")), (Symbol("c"), Symbol("d"))],
        )
        assert Symbol("c") not in g.distances[Symbol("a")]

    def test_diameter_examples(self):
        assert diameter(build_graph(Word.from_chars("abacbdcedfegfhg"))) == 7
        assert diameter(build_graph(Word.from_chars("xyz"))) == 1
        assert diameter(build_graph(Word.from_chars("a"))) == 0

    def test_diameter_undefined_when_disconnected(self):
        g = StaticGraph.from_edges(syms("a", "b", "c"), [(Symbol("a"), Symbol("b"))])
        with pytest.raises(DisconnectedGraphError):
            diameter(g)

    def test_min_degree_examples(self):
        assert min_degree(build_graph(Word.from_chars("abacbdcedfegfhg"))) == 1
        assert min_degree(build_graph(Word.from_chars("xyz"))) == 2
        assert min_degree(build_graph(Word.from_chars("a"))) == 0

    @given(words(sigma=5, max_size=25))
    def test_distance_symmetry_and_triangle_inequality(self, w):
        g = build_graph(w)
        vs = g.vertices
        dist = {(u, v): g.distances[u].get(v) for u in vs for v in vs}
        for u in vs:
            for v in vs:
                assert dist[(u, v)] == dist[(v, u)]
                for z in vs:
                    d_uv, d_uz, d_zv = dist[(u, v)], dist[(u, z)], dist[(z, v)]
                    if d_uz is not None and d_zv is not None:
                        assert d_uv is not None and d_uv <= d_uz + d_zv

    @given(words(sigma=6, max_size=25))
    def test_diameter_below_vertex_count(self, w):
        g = build_graph(w)
        if is_connected(g):
            assert diameter(g) <= len(g.vertices) - 1


class TestSpanningWalk:
    def test_path_from_endpoint_needs_no_backtracking(self):
        g = build_graph(Word.from_chars("121323"))
        assert spanning_walk(g, Symbol("1")) == [
            (Symbol("1"), Symbol("2")),
            (Symbol("2"), Symbol("3")),
        ]

    def test_path_from_middle_backtracks_once(self):
        g = build_graph(Word.from_chars("121323"))
        walk = spanning_walk(g, Symbol("2"))
        assert len(walk) == 3
        assert walk[0][0] == Symbol("2")

    def test_star_tour_truncates_after_last_leaf(self):
        g = StaticGraph.from_edges(
            syms("c", "x", "y", "z"),
            [(Symbol("c"), Symbol("x")), (Symbol("c"), Symbol("y")), (Symbol("c"), Symbol("z"))],
        )
        walk = spanning_walk(g, Symbol("c"))
        assert len(walk) == 5
        assert walk[-1] == (Symbol("c"), Symbol("z"))

    def test_single_vertex_walk_is_empty(self):
        assert spanning_walk(build_graph(Word.from_chars("a")), Symbol("a")) == []

    def test_disconnected_is_not_explorable(self):
        g = StaticGraph.from_edges(syms("a", "b", "c"), [(Symbol("a"), Symbol("b"))])
        with pytest.raises(DisconnectedGraphError):
            spanning_walk(g, Symbol("a"))

    def test_unknown_start(self):
        g = build_graph(Word.from_chars("ab"))
        with pytest.raises(ValueError):
            spanning_walk(g, Symbol("z"))

    @given(words(sigma=6, max_size=30))
    def test_walk_is_valid_visits_all_and_is_short(self, w):
        g = build_graph(w)
        if not is_connected(g):
            return
        start = g.vertices[0]
        walk = spanning_walk(g, start)
        assert len(walk) <= 2 * (len(g.vertices) - 1)
        position = start
        visited = {start}
        for u, v in walk:
            assert u == position
            assert make_edge(u, v) in g.edges
            position = v
            visited.add(v)
        assert visited == set(g.vertices)
