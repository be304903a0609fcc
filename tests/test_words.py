import pytest
from hypothesis import given
from hypothesis import strategies as st

from references import alternates, project, syms, words
from wordgraph.words import Symbol, Word, power

# Words of up to 40 letters over a-e, the empty word included.
any_words = words(max_size=40, min_size=0)


class TestSymbol:
    def test_identity_is_token_text(self):
        assert Symbol("a") == Symbol("a")
        assert Symbol("a") != Symbol("b")
        assert Symbol("(2,3)").token == "(2,3)"
        assert sorted(syms("b", "a", "(1,2)")) == syms("(1,2)", "a", "b")

    @pytest.mark.parametrize("bad", ["", "a b", "x\t", "\n"])
    def test_rejects_empty_and_whitespace(self, bad):
        with pytest.raises(ValueError):
            Symbol(bad)

    def test_equals_hashes_and_orders_as_its_token(self):
        assert Symbol("a") == "a" and "a" == Symbol("a")
        assert Symbol("a") != "b"
        assert hash(Symbol("a")) == hash("a")
        assert {Symbol("a"): 1}["a"] == 1
        assert sorted([Symbol("b"), "a", Symbol("(1,2)"), "c"]) == ["(1,2)", "a", "b", "c"]

    def test_token_is_plain_str_and_repr_names_the_class(self):
        assert type(Symbol("a").token) is str
        assert Symbol("(2,3)").token == "(2,3)"
        assert repr(Symbol("a")) == "Symbol('a')"
        assert repr(Symbol("it's")) == 'Symbol("it\'s")'

    @pytest.mark.parametrize("bad", [None, 7, b"a"])
    def test_rejects_non_str_tokens(self, bad):
        with pytest.raises(TypeError):
            Symbol(bad)


class TestWord:
    def test_one_based_access(self):
        w = Word.from_chars("acb")
        assert w.occurrences[Symbol("a")] == (1,)
        assert w.occurrences[Symbol("b")] == (3,)
        assert w.symbols[0] == Symbol("a")
        assert w.symbols[2] == Symbol("b")
        with pytest.raises(IndexError):
            w.symbols[3]

    def test_alphabet_is_occurring_symbols(self):
        assert Word.from_chars("aab").alphabet == frozenset(syms("a", "b"))
        assert Word().alphabet == frozenset()

    def test_rejects_non_symbol_values(self):
        with pytest.raises(TypeError, match="got str"):
            Word((Symbol("a"), "b", 7))
        with pytest.raises(TypeError, match="got int"):
            Word([Symbol("a"), 7, "b"])

    def test_from_tokens_keeps_order(self):
        w = Word.from_tokens(["(1,1)", "(2,1)", "(1,1)"])
        assert w.symbols == ("(1,1)", "(2,1)", "(1,1)")

    def test_from_tokens_shares_one_symbol_per_token(self):
        w = Word.from_tokens("a b a".split())
        assert w.symbols[0] is w.symbols[2]
        assert w.symbols[0] is not w.symbols[1]
        chars = Word.from_chars("abab")
        assert chars.symbols[1] is chars.symbols[3]


class TestProject:
    # expected values recomputed with the recursive keep/drop definition
    @pytest.mark.parametrize(
        "keep, expected",
        [
            ("a", "aaa"),
            ("ab", "ababab"),
            ("ac", "acaca"),
            ("bc", "cbcbb"),
            ("", ""),
            ("abc", "acbacbab"),
        ],
    )
    def test_reference_word(self, keep, expected):
        w = Word.from_chars("acbacbab")
        assert project(w, syms(*keep)) == Word.from_chars(expected)

    def test_symbols_absent_from_word_are_allowed(self):
        w = Word.from_chars("aba")
        assert project(w, syms("a", "z")) == Word.from_chars("aa")

    @given(any_words)
    def test_projecting_onto_own_alphabet_is_identity(self, w):
        assert project(w, w.alphabet) == w

    @given(any_words, st.sets(st.sampled_from(syms(*"abcdefgh")), max_size=4))
    def test_length_is_sum_of_occurrence_counts(self, w, keep):
        projected = project(w, keep)
        assert len(projected) == sum(len(w.occurrences.get(x, ())) for x in keep)


class TestAlternates:
    def test_reference_pairs(self):
        w = Word.from_chars("acbacbab")
        assert alternates(w, Symbol("a"), Symbol("b")) is True
        assert alternates(w, Symbol("b"), Symbol("c")) is False

    def test_single_occurrences_alternate(self):
        assert alternates(Word.from_chars("xy"), Symbol("x"), Symbol("y"))

    def test_empty_and_one_sided_projections_alternate(self):
        w = Word.from_chars("aaa")
        assert alternates(w, Symbol("b"), Symbol("c"))
        assert alternates(w, Symbol("a"), Symbol("b")) is False

    def test_equal_symbols_rejected(self):
        with pytest.raises(ValueError):
            alternates(Word.from_chars("ab"), Symbol("a"), Symbol("a"))

    @given(any_words, st.sampled_from(syms(*"abcde")), st.sampled_from(syms(*"abcde")))
    def test_symmetry(self, w, x, y):
        if x == y:
            return
        assert alternates(w, x, y) == alternates(w, y, x)

    @given(words(max_size=40, sigma=3, min_size=4), st.integers(min_value=1, max_value=4))
    def test_false_is_preserved_under_powers(self, w, k):
        x, y = Symbol("a"), Symbol("b")
        both_twice = all(len(w.occurrences.get(s, ())) >= 2 for s in (x, y))
        if not both_twice or alternates(w, x, y):
            return
        assert alternates(power(w, k), x, y) is False


class TestPower:
    @pytest.mark.parametrize(
        "text, k, expected",
        [
            ("ab", 2, "abab"),
            ("121323", 1, "121323"),
            ("12132434", 2, "1213243412132434"),
        ],
    )
    def test_examples(self, text, k, expected):
        assert power(Word.from_chars(text), k) == Word.from_chars(expected)

    @pytest.mark.parametrize("k", [0, -1])
    def test_rejects_nonpositive_power(self, k):
        with pytest.raises(ValueError):
            power(Word.from_chars("ab"), k)

    @given(words(max_size=12), st.integers(min_value=1, max_value=4))
    def test_positional_formula_at_every_position(self, w, k):
        repeated = power(w, k)
        assert len(repeated) == k * len(w)
        for i in range(1, len(repeated) + 1):
            assert repeated.symbols[i - 1] == w.symbols[(i - 1) % len(w)]


class TestOccurrenceIndices:
    def test_examples(self):
        assert Word.from_chars("abacbdcedfegfhg").occurrences[Symbol("c")] == (4, 7)
        assert Word.from_chars("acbacbab").occurrences[Symbol("a")] == (1, 4, 7)
        assert Symbol("c") not in Word.from_chars("ab").occurrences

    @given(any_words)
    def test_keyed_in_first_occurrence_order(self, w):
        # build_graph bisects the first positions in key order.
        assert list(w.occurrences) == list(dict.fromkeys(w.symbols))

    @given(any_words)
    def test_positions_strictly_increase_and_point_at_symbol(self, w):
        for sym in w.alphabet:
            positions = w.occurrences[sym]
            assert list(positions) == sorted(set(positions))
            assert all(w.symbols[p - 1] == sym for p in positions)
