"""The exact oracle against ``reference_oracle``, plain Dijkstra over
(visited set, current vertex) states with no bound, pruning or twin classes.

``oracle_explore`` searches over twin classes. It must give the reference's
length and feasibility, and a witness that validates and starts at the
start, on every instance below: family words and complete permutation
powers from every start, the corpus, layered powers where dominance pruning
acts, and words with injected closed twins. The optima of the layered powers are
also pinned, and one witness is pinned byte for byte through the CLI.
"""

import json
import random

import pytest

from references import (
    LAYERED_FAMILY_GRID,
    LAYERED_GROWTH_OPTIMA,
    PATH_FAMILY_GRID,
    PATH_GROWTH_OPTIMA,
    REFERENCE_TEMPORAL_WORD,
    assert_agrees,
    corpus_words,
    permutation_power_words,
    short_words,
    with_closed_twins,
)
from wordgraph.cli import run_cli
from wordgraph.explore import _twin_classes, oracle_explore
from wordgraph.families import layered_word, path_word
from wordgraph.temporal import build_temporal
from wordgraph.words import Symbol, Word, power


def path_cases():
    paths = set(PATH_FAMILY_GRID) | {(n, n) for n in PATH_GROWTH_OPTIMA}
    return [(f"path-{n}^{k}", power(path_word(n), k)) for n, k in sorted(paths)]


def layered_cases():
    layered = {(n, d, 1) for n, d in LAYERED_FAMILY_GRID}
    layered |= {(2 * d, d, 2 * d) for d in LAYERED_GROWTH_OPTIMA}
    return [
        (f"layered-{n}-{d}^{k}", power(layered_word(n, d), k)) for n, d, k in sorted(layered)
    ]


def family_cases():
    """Each family word with the number of its first starts compared here:
    all of them for a path word, one for a layered word, whose other starts
    test_pruned_witness_on_layered_family_from_every_start compares."""
    cases = [pytest.param(w, None, id=name) for name, w in path_cases()]
    return cases + [pytest.param(w, 1, id=name) for name, w in layered_cases()]


@pytest.mark.parametrize("word, starts", family_cases())
def test_agrees_on_family_instances(word, starts):
    tg = build_temporal(word)
    for start in tg.base.vertices[:starts]:
        assert_agrees(tg, start)


@pytest.mark.parametrize("n", range(2, 12))
def test_agrees_on_complete_permutation_powers(n):
    tg = build_temporal(Word.from_tokens([f"k{v}" for v in range(n)] * n))
    assert assert_agrees(tg, Symbol("k0")).length == n - 1


def test_agrees_on_the_infeasible_example():
    tg = build_temporal(Word.from_chars(REFERENCE_TEMPORAL_WORD))
    assert not assert_agrees(tg, Symbol("a")).feasible


def test_agrees_on_the_small_corpus():
    checked = 0
    for word in corpus_words(count=400, seed=13) + short_words(800, seed=13):
        tg = build_temporal(word)
        if len(tg.base.vertices) > 8:
            continue
        assert_agrees(tg, tg.base.vertices[0])
        checked += 1
    assert checked > 500


def test_cli_witness_bytes_on_layered_12_6(tmp_path, capsys):
    path = tmp_path / "layered.txt"
    path.write_text(str(power(layered_word(12, 6), 12)) + "\n")
    assert run_cli(["oracle", str(path), "--start", "(1,1)"]) == 0
    walk = [
        ("(1,1)", "(1,2)", 1),
        ("(1,2)", "(1,3)", 2),
        ("(1,3)", "(1,4)", 3),
        ("(1,4)", "(1,5)", 4),
        ("(1,5)", "(1,6)", 6),
        ("(1,6)", "(2,5)", 7),
        ("(2,5)", "(2,6)", 9),
        ("(2,6)", "(1,5)", 10),
        ("(1,5)", "(2,4)", 11),
        ("(2,4)", "(2,3)", 12),
        ("(2,3)", "(2,2)", 13),
        ("(2,2)", "(2,1)", 14),
    ]
    doc = {
        "start": "(1,1)",
        "steps": [{"edge": [u, v], "t": t} for u, v, t in walk],
        "length": 14,
        "visited_all": True,
    }
    assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"


# Optima from (1,1) of layered (n, d)^n, as recorded by the benchmark's
# oracle workload.
LAYERED_POWER_OPTIMA = {(12, 4): 11, (12, 6): 14, (14, 7): 19, (15, 5): 17}


@pytest.mark.parametrize("n, d", sorted(LAYERED_POWER_OPTIMA))
def test_layered_power_optima(n, d):
    tg = build_temporal(power(layered_word(n, d), n))
    assert oracle_explore(tg, Symbol("(1,1)")).length == LAYERED_POWER_OPTIMA[n, d]


@pytest.mark.parametrize("n, d", sorted(LAYERED_POWER_OPTIMA) + [(16, 4), (16, 8)])
def test_pruned_witness_on_layered_powers(n, d):
    tg = build_temporal(power(layered_word(n, d), n))
    assert_agrees(tg, Symbol("(1,1)"))


@pytest.mark.parametrize("word", [pytest.param(w, id=name) for name, w in layered_cases()])
def test_pruned_witness_on_layered_family_from_every_start(word):
    tg = build_temporal(word)
    # The first start is compared in test_agrees_on_family_instances.
    for start in tg.base.vertices[1:]:
        assert_agrees(tg, start)


@pytest.mark.parametrize("n", range(2, 12))
def test_pruned_witness_on_complete_permutation_powers(n):
    tg = build_temporal(Word.from_tokens([f"k{v}" for v in range(n)] * n))
    # The start k0 is compared in test_agrees_on_complete_permutation_powers.
    for start in tg.base.vertices[1:]:
        assert assert_agrees(tg, start).length == n - 1


def test_pruned_witness_on_words_with_injected_twins():
    rng = random.Random(11)
    words = corpus_words(count=1000, seed=17) + short_words(600, seed=17)
    words += permutation_power_words(200, seed=17)
    checked = twinned_words = 0
    for word in words:
        tg = build_temporal(with_closed_twins(word, rng))
        if len(tg.base.vertices) > 10:
            continue
        for start in tg.base.vertices:
            assert_agrees(tg, start)
        checked += 1
        twinned_words += len(_twin_classes(tg.base, tg.letter_times)) < len(tg.base.vertices)
    assert checked >= 300
    assert twinned_words >= 20
