"""The alternation graph against a slow reference.

``reference_alternating`` merges two occurrence runs position by position
and fails at the first two consecutive positions from the same run.
``build_graph`` decides each pair from the run lengths and two slice
comparisons instead, so its edge set must equal the one the merge gives, on
the corpus, on every short word, on family powers, and on powers of
permutation blocks, where a pair that alternates does so along the whole
word.
"""

import random
from itertools import combinations

import pytest

from test_acceptance import corpus_words, family_instances, short_words
from test_lemmas_reference import exhaustive_words
from wordgraph.families import layered_word, path_word
from wordgraph.graphs import build_graph
from wordgraph.words import Symbol, Word, power


def reference_alternating(px, py):
    i = j = 0
    last_was_x = None
    while i < len(px) or j < len(py):
        take_x = j == len(py) or (i < len(px) and px[i] < py[j])
        if take_x == last_was_x:
            return False
        last_was_x = take_x
        if take_x:
            i += 1
        else:
            j += 1
    return True


def assert_matches_reference(word):
    occurrences = word.occurrences
    expected = {
        (x, y)
        for x, y in combinations(sorted(word.alphabet), 2)
        if reference_alternating(occurrences[x], occurrences[y])
    }
    assert build_graph(word).edges == expected


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


def test_corpus_words():
    for word in corpus_words() + short_words(2000, seed=17):
        assert_matches_reference(word)


@pytest.mark.parametrize("sigma, max_length", [(2, 10), (3, 8), (4, 6)])
def test_exhaustive_words(sigma, max_length):
    for word in exhaustive_words(sigma, max_length):
        assert_matches_reference(word)


def test_family_powers():
    words = family_instances()
    words += [power(path_word(n), k) for n in (3, 5, 8, 12, 20) for k in (1, 2, n)]
    words += [
        power(layered_word(n, d), k)
        for n, d in ((6, 3), (8, 4), (12, 6), (15, 5))
        for k in (1, 2, n)
    ]
    for word in words:
        assert_matches_reference(word)


def test_permutation_block_powers():
    words = permutation_block_words(random.Random(7), 400)
    words += [Word.from_tokens([f"k{v}" for v in range(n)] * n) for n in range(1, 13)]
    for word in words:
        assert_matches_reference(word)
