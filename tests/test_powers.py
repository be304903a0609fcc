"""Reading a power word by its primitive root.

``Word._period`` is the length of the primitive root u of a word w = u^k,
and ``Word._root_occurrences`` the occurrences of one copy of u:
``occurrences`` itself when w is no proper power.
``build_graph`` tests the pairs of a proper power on one copy of u, where x
and y alternate in u^k (k >= 2) exactly when they alternate in u and occur
equally often there. ``start_points`` scans a power one copy at a time and,
once the open factor enters two copies at the same offset, repeats the
starts found between them. Here the period must equal
``reference_period``, the shortest divisor of the length that the word
repeats with; the graph ``reference_edges``, the pairwise-alternation scan
of the full word; and the starts ``reference_start_points``, the plain
greedy scan. They are compared on random powers, non-primitive roots, every
family instance and the corpus; on the corpus, the graph is compared by
``test_graphs_reference.py``.

``Word.from_tokens``, and so ``parse_word_file``, reads the period on the
tokens, makes symbols of one copy of the root only and stores the period.
The parsed word must equal the word of one ``Symbol`` per token, share one
``Symbol`` between equal tokens, and hold ``reference_period``. On parsed
powers, ``next_activation``, which searches the root's occurrences, is
compared at every timestep by ``assert_matches_reference``.
"""

import itertools
import random

import pytest

import wordgraph.temporal as temporal
from references import (
    ReferenceActivity,
    assert_letter_gaps_match,
    assert_matches_reference,
    corpus_words,
    family_instances,
    permutation_power_words,
    random_start_points,
    reference_edges,
    reference_period,
    reference_start_points,
)
from wordgraph.explore import oracle_explore, schedule_explore, validate_schedule
from wordgraph.families import layered_word, path_word
from wordgraph.formats import emit_graph, parse_word_file
from wordgraph.graphs import build_graph
from wordgraph.lemmas import run_all
from wordgraph.temporal import TemporalGraph, build_temporal, start_points
from wordgraph.words import Symbol, Word, power


def assert_matches_references(word):
    assert build_graph(word).edges == reference_edges(word)
    assert_root_matches_references(word)
    tg = build_temporal(word)
    assert_letter_gaps_match(tg, ReferenceActivity(tg).letters)


def assert_root_matches_references(word):
    """The period, the root's occurrences and the start points."""
    assert word._period == reference_period(word)
    roots = word._root_occurrences
    assert roots == Word(word.symbols[: word._period]).occurrences
    assert (roots is word.occurrences) is (word._period == len(word))
    assert start_points(word) == reference_start_points(word)


@pytest.fixture(scope="module")
def corpus():
    """The 10^4-word corpus, built once for the module."""
    return corpus_words()


def random_powers(rng, count):
    out = []
    for _ in range(count):
        alphabet = [Symbol(str(v)) for v in range(rng.randint(1, 6))]
        root = Word(tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 12))))
        out.append(power(root, rng.randint(1, 6)))
    return out


@pytest.mark.parametrize(
    "text, period",
    [
        ("a", 1),
        ("aaaaaaa", 1),
        ("abababab", 2),
        ("abcabc", 3),
        # Length 6 and three a's share the factor 3, but it is no power.
        ("ababba", 6),
        ("abab" "abba", 8),
    ],
)
def test_period_examples(text, period):
    word = Word.from_chars(text)
    assert word._period == period == reference_period(word)


def test_period_of_the_empty_word_is_its_length():
    assert Word()._period == 0


def test_equal_symbols_that_are_distinct_objects_keep_the_root():
    # The boundary test is by equality: a power built from equal but
    # distinct symbols is read by its root.
    word = Word(tuple(Symbol(c) for c in "abababab"))
    assert word._period == 2
    assert_matches_references(word)


@pytest.mark.parametrize(
    "root, k",
    [
        ("a", 6),
        ("ab", 1),
        ("abab", 2),
        ("abab", 3),
        ("aab", 4),
        ("abcacb", 5),
        ("aabb", 3),
    ],
)
def test_power_examples(root, k):
    word = power(Word.from_chars(root), k)
    assert word._period == reference_period(Word.from_chars(root))
    assert_matches_references(word)


def test_factorization_that_settles_after_one_copy():
    # One copy alone starts factors at 1, 3, 6. The factor left open enters
    # copy 2 one position early and copies 3 and 4 at their first position,
    # so the starts of copy 3 repeat those of copy 2, shifted by 7, and the
    # starts of copy 1 (1, 3, 6) differ from those of copy 2 (9, 12, 14).
    root = Word.from_tokens("3 1 3 2 1 2 1".split())
    word = power(root, 5)
    assert word._period == 7
    expected = (1, 3, 6, 9, 12, 14, 16, 19, 21, 23, 26, 28, 30, 33, 35)
    assert start_points(word) == reference_start_points(word) == expected
    assert_matches_references(word)


def test_offsets_that_repeat_every_second_copy():
    # The open factor enters the copies of this root at two offsets in
    # turn, so the starts repeat with a shift of two copies, and an odd
    # number of copies ends in half a repetition.
    root = Word.from_tokens("2 3 5 2 4 5 4 0 5 2 0 3".split())
    starts = start_points(power(root, 6))
    assert [s - 12 for s in starts if 24 < s <= 36] != [s for s in starts if 12 < s <= 24]
    assert [s - 24 for s in starts if 36 < s <= 60] == [s for s in starts if 12 < s <= 36]
    for k in range(1, 8):
        assert_matches_references(power(root, k))


@pytest.mark.parametrize(
    "word",
    [power(path_word(n), n) for n in (5, 6, 20, 21)]
    + [power(layered_word(n, d), 8) for n, d in ((24, 4), (30, 5))],
)
def test_family_powers_scan_two_copies(monkeypatch, word):
    # The open factor enters copies 2 and 3 at the same offset, so the scan
    # stops after two copies and the rest of the starts are shifted copies.
    scanned = []
    scan = temporal._scan

    def counting(symbols, at, starts, seen):
        scanned.append(len(symbols))
        return scan(symbols, at, starts, seen)

    monkeypatch.setattr(temporal, "_scan", counting)
    assert start_points(word) == reference_start_points(word)
    assert scanned == [word._period] * 2


def test_random_powers():
    words = random_powers(random.Random(11), 3000)
    assert sum(w._period < len(w) for w in words) > 2000
    for word in words:
        assert_matches_references(word)


def test_powers_of_non_primitive_roots():
    rng = random.Random(5)
    for root in random_powers(rng, 300):
        for k in (2, 3, 4):
            word = power(root, k)
            assert word._period == root._period
            assert_matches_references(word)


def test_family_instances():
    for word in family_instances():
        assert_matches_references(word)


def test_corpus_words(corpus):
    # test_graphs_reference.py::test_corpus_words compares these words'
    # graphs with reference_edges.
    for word in corpus:
        assert_root_matches_references(word)


def word_text(tokens):
    """A word file, byte for byte as ``gen`` prints it."""
    return " ".join(tokens) + "\n"


def assert_root_parsed(tokens):
    """The parsed word is the word of one fresh Symbol per token, equal
    tokens share one Symbol, and the stored period is the reference's."""
    for word in (parse_word_file(word_text(tokens)), Word.from_tokens(tokens)):
        assert word == Word(tuple(Symbol(tok) for tok in tokens))
        shared = {}
        assert all(shared.setdefault(sym, sym) is sym for sym in word.symbols)
        assert vars(word)["_period"] == reference_period(word)


def tokens_of(word):
    return [sym.token for sym in word.symbols]


def random_power_tokens(rng, count):
    """The tokens of random powers u^k, each u taken to k = 1..6."""
    return [tokens_of(root) * k for root in random_powers(rng, count) for k in range(1, 7)]


def test_root_parsed_random_powers():
    for tokens in random_power_tokens(random.Random(13), 500):
        assert_root_parsed(tokens)


def test_root_parsed_family_and_permutation_powers():
    words = family_instances() + permutation_power_words(200, seed=17)
    for word in words:
        assert_root_parsed(tokens_of(word))


def test_root_parsed_corpus_words(corpus):
    for word in corpus:
        assert_root_parsed(tokens_of(word))


def test_root_parsed_one_token():
    assert_root_parsed(["x"])


def test_root_parsed_tokens_that_are_distinct_objects():
    # Equal tokens that are distinct str objects are read by their root.
    tokens = ["".join(pair) for pair in ["ab", "cd", "ab", "ef"] * 6]
    assert tokens[0] == tokens[2] and tokens[0] is not tokens[2]
    assert_root_parsed(tokens)
    assert Word.from_tokens(tokens)._period == 4


def test_root_parsed_powers_match_activity_references():
    # ``assert_matches_reference`` checks ``next_activation`` at every
    # timestep, on the greedy start points and on random ones.
    rng = random.Random(19)
    tokens_lists = random_power_tokens(rng, 40)
    tokens_lists += [tokens_of(path_word(n)) * n for n in (3, 5, 8)]
    tokens_lists += [tokens_of(layered_word(6, 3)) * 3]
    tokens_lists += map(tokens_of, permutation_power_words(10, seed=23))
    for word in (parse_word_file(word_text(tokens)) for tokens in tokens_lists):
        tg = build_temporal(word)
        assert not assert_matches_reference(tg)
        starts = random_start_points(rng, len(word))
        assert_matches_reference(TemporalGraph(word, starts, tg.base))


@pytest.mark.parametrize(
    "word",
    [power(path_word(12), 12), power(layered_word(12, 4), 12), power(layered_word(24, 6), 6)],
    ids=["path", "layered-12-4", "layered-24-6"],
)
def test_verify_reads_one_cycle_of_a_power(word):
    # build_temporal keeps the copy at which the greedy timeline repeats,
    # so the checkers read the letter gaps from the copies up to it, and
    # the counts and the interleaving certificate from one copy of the
    # root: neither the letter times nor the full word's occurrences fill.
    tg = build_temporal(word)
    assert tg._repeat == 2
    assert all(report.passed for report in run_all(tg))
    assert "letter_times" not in vars(tg)
    assert "occurrences" not in vars(word)
    assert_letter_gaps_match(tg, ReferenceActivity(tg).letters)


@pytest.mark.parametrize(
    "word, start, optimum",
    [(power(layered_word(12, 6), 12), "(1,1)", 14), (power(path_word(12), 12), "1", 19)],
    ids=["layered-12-6", "path"],
)
def test_no_query_fills_the_full_occurrences_of_a_power(word, start, optimum):
    # Both optima lie above n - 1, so the oracle searches its twin classes
    # and reads the letter times. Those, like every other query that maps a
    # position to its timestep, bisect the root's positions copy by copy.
    # ``assert_matches_reference`` compares the letter times with the
    # reference letter sets on every graph it sees.
    tg = build_temporal(word)
    start = Symbol(start)
    result = schedule_explore(tg, start)
    assert result.visited_all
    assert validate_schedule(tg, result.schedule) is None
    assert oracle_explore(tg, start).length == optimum
    assert all(report.passed for report in run_all(tg))
    emit_graph(tg)
    assert "letter_times" in vars(tg)
    assert "occurrences" not in vars(word)


def test_letter_gap_between_the_repeating_copy_and_the_one_before():
    # Copies count from 0 here, as in ``_repeat``. The factor open at the
    # end of copies 0 and 1 starts at their last position, 9 and 18 alike,
    # so the timeline repeats from copy 2 on. Letter 2 occurs once per
    # copy, at times 3, 6, 10, 14, 18 of 20: its largest gap, 4, first lies
    # between its occurrences in copies 1 and 2, so the gaps are read up to
    # copy 2.
    word = power(Word.from_tokens("4 1 3 4 3 4 2 3 3".split()), 5)
    tg = build_temporal(word)
    assert tg._repeat == 2
    assert tg.letter_gaps[Symbol("2")] == 4
    assert_letter_gaps_match(tg, ReferenceActivity(tg).letters)


def test_letter_gaps_of_every_short_root_cubed():
    # Every primitive root of length 2 to 8 over three letters, cubed.
    # Copies count from 0, as in ``_repeat``. The timeline of a cube
    # repeats from copy 2 if at all, so its letter gaps read copies 0 to 2,
    # and the last of them ends the word. On six of these words, ababacbb
    # and its renamings, a letter's largest gap lies only between its
    # occurrences in copies 1 and 2.
    repeats = set()
    for length in range(2, 9):
        for letters in itertools.product("abc", repeat=length):
            root = Word.from_chars(letters)
            if reference_period(root) < length:
                continue
            tg = build_temporal(power(root, 3))
            repeats.add(tg._repeat)
            assert_letter_gaps_match(tg, ReferenceActivity(tg).letters)
    assert repeats == {None, 2}


def test_power_with_other_start_points_reads_every_copy():
    # Only build_temporal knows that its start points are the greedy ones,
    # so a power over random start points reads its letter gaps from every
    # copy of its root, without filling its letter times, and still
    # matches the references.
    rng = random.Random(29)
    word = power(path_word(6), 6)
    greedy = build_temporal(word)
    assert greedy._repeat is not None
    tg = TemporalGraph(word, random_start_points(rng, len(word)), greedy.base)
    assert tg._repeat is None
    assert_letter_gaps_match(tg, ReferenceActivity(tg).letters)
    assert "letter_times" not in vars(tg)
    assert_matches_reference(tg)
