"""Temporal twin classes and the oracle's witness over them.

``_twin_classes`` groups interchangeable vertices. The oracle searches over
class states and maps its class path back to vertices: a new visit takes
the class's lowest-id unvisited member, a revisit its lowest-id visited
member other than the current vertex. Optima are compared with
``reference_oracle``. Every concrete state the witness passes must be
entered between its earliest time, from ``reference_oracle``, and the
latest time from which some walk still visits every vertex by the optimum.
"""

import random
from bisect import bisect_right
from functools import lru_cache

import pytest

from references import (
    REFERENCE_TEMPORAL_WORD,
    assert_agrees,
    permutation_power_words,
    reference_oracle,
    twinned,
    with_closed_twins,
)
from wordgraph.explore import _twin_classes, oracle_explore
from wordgraph.families import layered_word
from wordgraph.graphs import is_connected
from wordgraph.temporal import build_temporal
from wordgraph.words import Symbol, Word, power

# Three blocks of a permutation of r0..r6, repeated: a connected word with
# no temporal twins, on which the oracle searches from r0.
TWIN_FREE_BLOCKS = ["r2 r1 r3 r6 r5 r0 r4", "r1 r2 r3 r5 r4 r0 r6", "r1 r4 r5 r3 r6 r2 r0"]


def twin_free_word():
    return Word.from_tokens(" ".join(TWIN_FREE_BLOCKS * 6).split())


def classes_of(word):
    """The temporal graph of ``word`` and its twin classes, as (member ids,
    whether the members are adjacent) in order of first member."""
    tg = build_temporal(word)
    vertices = tg.base.vertices
    classes = [
        (tuple(ids), len(ids) > 1 and vertices[ids[1]] in tg.base.adjacency[vertices[ids[0]]])
        for ids in _twin_classes(tg.base, tg.letter_times)
    ]
    return tg, classes


def named(tg, classes):
    vertices = tg.base.vertices
    return [({vertices[i] for i in ids}, closed) for ids, closed in classes]


@pytest.mark.parametrize("n, d, k", [(6, 3, 1), (8, 4, 8), (12, 4, 1), (12, 6, 12), (15, 5, 15)])
def test_layered_word_has_one_open_class_per_layer(n, d, k):
    tg, classes = classes_of(power(layered_word(n, d), k))
    assert sorted(len(ids) for ids, _ in classes) == [n // d] * d
    assert not any(closed for _, closed in classes)


def test_an_injected_copy_joins_a_closed_class():
    word = twin_free_word()
    tg, classes = classes_of(word)
    assert all(len(ids) == 1 for ids, _ in classes)
    for copies in (1, 2):
        tg, classes = classes_of(twinned(word, "r3", copies))
        members = {"r3", *("r3" + "'" * i for i in range(1, copies + 1))}
        assert (members, True) in named(tg, classes)
        assert sum(len(ids) > 1 for ids, _ in classes) == 1


@pytest.mark.parametrize("n", range(2, 9))
def test_complete_permutation_power_is_one_closed_class(n):
    tg, classes = classes_of(Word.from_tokens([f"k{v}" for v in range(n)] * n))
    assert classes == [(tuple(range(n)), True)]


@pytest.mark.parametrize("text, pair", [("baca", {"a", "b"}), ("cbac", {"a", "c"})])
def test_equal_neighbourhoods_with_different_letter_times_stay_apart(text, pair):
    # The pair has the same open (baca) or closed (cbac) neighbourhood,
    # but different letter times, so their edges activate differently.
    tg, classes = classes_of(Word.from_chars(text))
    a, b = sorted(pair)
    adjacency = tg.base.adjacency
    assert adjacency[a] == adjacency[b] or adjacency[a] | {a} == adjacency[b] | {b}
    assert tg.letter_times[a] != tg.letter_times[b]
    assert not any(pair <= members for members, _ in named(tg, classes))


def test_witness_on_neighbourhood_classes_split_by_letter_times():
    # a and c have the same open neighbourhood, b and d the same closed one,
    # but a and b are letters of timestep 3 and c and d are not: every twin
    # class is one vertex. Split pair by pair, the classes would read a, c,
    # b, d; in order of first member they fix the search's state layout,
    # and so which of two optimal walks it returns.
    tg = build_temporal(Word.from_chars("bacdbcadba"))
    assert _twin_classes(tg.base, tg.letter_times) == [[0], [1], [2], [3]]
    steps = oracle_explore(tg, Symbol("a")).schedule.steps
    assert [(u.token, v.token, t) for (u, v), t in steps] == [
        ("a", "d", 1),
        ("d", "b", 2),
        ("b", "c", 3),
    ]


def witness_cases():
    words = [power(layered_word(6, 3), 6), power(layered_word(8, 4), 8)]
    words.append(Word.from_tokens([f"k{v}" for v in range(5)] * 5))
    words.append(twin_free_word())
    words.append(Word.from_chars(REFERENCE_TEMPORAL_WORD))
    rng = random.Random(5)
    for word in permutation_power_words(60, seed=5):
        word = with_closed_twins(word, rng)
        if len(word.occurrences) <= 8 and is_connected(build_temporal(word).base):
            words.append(word)
    return [pytest.param(w, id=f"case-{i}") for i, w in enumerate(words[:14])]


@pytest.mark.parametrize("word", witness_cases())
def test_witness_takes_the_lowest_id_twin(word):
    tg = build_temporal(word)
    vertices = tg.base.vertices
    group = {}
    for ids in _twin_classes(tg.base, tg.letter_times):
        for i in ids:
            group[vertices[i]] = [vertices[j] for j in ids]
    for start in vertices:
        result = assert_agrees(tg, start)
        if not result.feasible:
            continue
        visited = {start}
        for (u, v), _ in result.schedule.steps:
            if v in visited:
                assert v == next(w for w in group[v] if w in visited and w != u)
            else:
                assert v == next(w for w in group[v] if w not in visited)
                visited.add(v)


def brute_latest(tg, earliest, target):
    """{(mask, vertex id): (e, L)} for every state of ``earliest`` that a
    walk reaches by ``target``: e is its earliest time, and L the last time
    from which some walk still visits every vertex by ``target``, or -1."""
    vertices = tg.base.vertices
    n = len(vertices)
    ids = {v: i for i, v in enumerate(vertices)}
    full = (1 << n) - 1
    # An edge is active whenever either endpoint is a letter.
    times = tg.letter_times
    moves = [
        [(ids[u], tuple(sorted({*times[v], *times[u]}))) for u in tg.base.adjacency[v]]
        for v in vertices
    ]

    def next_time(ts, t):
        i = bisect_right(ts, t)
        return ts[i] if i < len(ts) and ts[i] <= target else None

    @lru_cache(maxsize=None)
    def finishes(mask, v, t):
        return mask == full or any(
            (t_next := next_time(ts, t)) is not None and finishes(mask | 1 << u, u, t_next)
            for u, ts in moves[v]
        )

    return {
        state: (e, max((t for t in range(e, target + 1) if finishes(*state, t)), default=-1))
        for state, e in earliest.items()
        if e <= target
    }


@pytest.mark.parametrize("word", witness_cases())
def test_latest_times_match_brute_force(word):
    # The optimum is the first target the brute force can meet, and the
    # witness enters each concrete state between its earliest and latest time.
    tg = build_temporal(word)
    vertices = tg.base.vertices
    ids = {v: i for i, v in enumerate(vertices)}
    start = vertices[0]
    result = oracle_explore(tg, start)
    _, earliest = reference_oracle(tg, start)
    state = (1 << 0, 0)
    if not result.feasible:
        assert brute_latest(tg, earliest, tg.lifetime)[state][1] == -1
        return
    target = result.length
    assert brute_latest(tg, earliest, target - 1)[state][1] == -1
    latest = brute_latest(tg, earliest, target)
    assert latest[state][1] >= 0
    for (u, v), t in result.schedule.steps:
        assert ids[u] == state[1]
        state = (state[0] | 1 << ids[v], ids[v])
        e, last = latest[state]
        assert e <= t <= last
