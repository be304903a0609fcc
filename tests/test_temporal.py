import pytest
from hypothesis import given
from hypothesis import strategies as st

from references import edges_at, factor_bounds, words
from wordgraph.graphs import build_graph
from wordgraph.temporal import (
    build_temporal,
    next_activation,
    start_points,
)
from wordgraph.words import Symbol, Word


def factors(tg):
    return [" ".join(tg.word.symbols[lo - 1 : hi]) for lo, hi in factor_bounds(tg)]


def edge_tokens(edges):
    return {(u.token, v.token) for u, v in edges}


class TestStartPoints:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("abacbdcedfegfhg", (1, 3, 7, 11, 15)),
            ("12132434", (1, 3, 7)),
            ("abcdef", (1,)),
            ("aa", (1, 2)),
            ("121323", (1, 3, 6)),
        ],
    )
    def test_greedy_scan(self, text, expected):
        assert start_points(Word.from_chars(text)) == expected

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            start_points(Word())

    @given(words(), st.integers(min_value=1, max_value=3))
    def test_scan_is_prefix_stable_under_concatenation(self, w, k):
        from wordgraph.words import power

        single = start_points(w)
        repeated = start_points(power(w, k))
        assert tuple(s for s in repeated if s <= len(w)) == single


class TestBuildTemporal:
    def test_reference_word(self):
        tg = build_temporal(Word.from_chars("abacbdcedfegfhg"))
        assert tg.lifetime == 5
        assert edge_tokens(edges_at(tg, 1)) == {("a", "b"), ("b", "c")}
        assert edge_tokens(edges_at(tg, 5)) == {("f", "g"), ("g", "h")}
        assert factors(tg) == [
            "a b",
            "a c b d",
            "c e d f",
            "e g f h",
            "g",
        ]

    def test_small_path(self):
        tg = build_temporal(Word.from_chars("121323"))
        assert tg.lifetime == 3
        assert factors(tg) == ["1 2", "1 3 2", "3"]
        assert edge_tokens(edges_at(tg, 1)) == {("1", "2"), ("2", "3")}
        assert edge_tokens(edges_at(tg, 2)) == {("1", "2"), ("2", "3")}
        assert edge_tokens(edges_at(tg, 3)) == {("2", "3")}

    def test_single_factor_triangle(self):
        tg = build_temporal(Word.from_chars("xyz"))
        assert tg.lifetime == 1
        assert len(edges_at(tg, 1)) == 3

    @given(words())
    def test_union_of_timesteps_is_underlying_edge_set(self, w):
        tg = build_temporal(w)
        assert frozenset().union(
            *(edges_at(tg, t) for t in range(1, tg.lifetime + 1))
        ) == tg.base.edges

    @given(words())
    def test_factor_structure(self, w):
        tg = build_temporal(w)
        for t, (lo, hi) in enumerate(factor_bounds(tg), start=1):
            factor = tg.word.symbols[lo - 1 : hi]
            assert len(factor) == len(set(factor))
            assert frozenset(factor) == {v for v, ts in tg.letter_times.items() if t in ts}
        for ts in tg.letter_times.values():
            assert all(a < b for a, b in zip(ts, ts[1:]))
        # each closed interval between consecutive starts repeats exactly
        # one symbol: the one at the later start point
        for s, s_next in zip(tg.start_points, tg.start_points[1:]):
            closed = tg.word.symbols[s - 1 : s_next]
            assert len(closed) == len(set(closed)) + 1
            assert tg.word.symbols[s_next - 1] in tg.word.symbols[s - 1 : s_next - 1]


class TestEdgeActivity:
    def test_examples(self):
        tg = build_temporal(Word.from_chars("abacbdcedfegfhg"))
        # an edge is active at t when its next activation after t - 1 is t
        assert next_activation(tg, (Symbol("e"), Symbol("f")), 4) != 5
        assert next_activation(tg, (Symbol("g"), Symbol("h")), 4) == 5
        triangle = build_temporal(Word.from_chars("xyz"))
        assert next_activation(triangle, (Symbol("x"), Symbol("y")), 0) == 1

    def test_errors(self):
        tg = build_temporal(Word.from_chars("121323"))
        # the lifetime is 3, so no edge is active at timestep 4
        assert next_activation(tg, (Symbol("1"), Symbol("2")), 3) is None
        with pytest.raises(ValueError, match="self-loop"):
            next_activation(tg, (Symbol("1"), Symbol("1")), 0)

    def test_next_activation_examples(self):
        tg = build_temporal(Word.from_chars("121323"))
        assert next_activation(tg, (Symbol("1"), Symbol("2")), 0) == 1
        assert next_activation(tg, (Symbol("1"), Symbol("2")), 2) is None
        triangle = build_temporal(Word.from_chars("xyz"))
        assert next_activation(triangle, (Symbol("x"), Symbol("y")), 1) is None

    def test_next_activation_errors(self):
        tg = build_temporal(Word.from_chars("121323"))
        with pytest.raises(ValueError):
            next_activation(tg, (Symbol("1"), Symbol("3")), 0)
        with pytest.raises(ValueError):
            next_activation(tg, (Symbol("1"), Symbol("2")), -1)

    @given(words(), st.integers(min_value=0, max_value=12))
    def test_next_activation_agrees_with_linear_scan(self, w, t):
        tg = build_temporal(w)
        for e in tg.base.edges:
            expected = next(
                (s for s in range(t + 1, tg.lifetime + 1) if e in edges_at(tg, s)),
                None,
            )
            assert next_activation(tg, e, t) == expected


class TestUnderlyingAndConnectivity:
    def test_underlying_examples(self):
        fig = build_temporal(Word.from_chars("abacbdcedfegfhg"))
        assert fig.base == build_graph(fig.word)
        assert len(fig.base.edges) == 7
        assert len(build_temporal(Word.from_chars("121323")).base.edges) == 2
        assert len(build_temporal(Word.from_chars("xyz")).base.edges) == 3

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("xyzxyz", True),
            ("121323", False),
            ("a", True),
            ("abacbdcedfegfhg", False),
        ],
    )
    def test_always_connected(self, text, expected):
        assert build_temporal(Word.from_chars(text)).always_connected is expected
