"""The exact oracle against a slow reference search.

``reference_oracle`` is plain Dijkstra over (visited set, current vertex)
states keyed by symbols, with no lower or upper bound. ``oracle_explore``
must give the same length and feasibility, and a witness that validates,
on every instance below.
"""

import heapq

import pytest

from test_acceptance import (
    LAYERED_FAMILY_GRID,
    LAYERED_GROWTH_OPTIMA,
    PATH_FAMILY_GRID,
    PATH_GROWTH_OPTIMA,
    REFERENCE_TEMPORAL_WORD,
    corpus_words,
    short_words,
)
from wordgraph.explore import ORACLE_MAX_VERTICES, oracle_explore, validate_schedule
from wordgraph.families import layered_word, path_word
from wordgraph.temporal import build_temporal, next_activation
from wordgraph.words import Symbol, Word, power


def reference_oracle(tg, start, vertex_limit=15):
    """Earliest time at which some temporal walk from ``start`` has visited
    every vertex, or None."""
    graph = tg.base
    graph.require_vertex(start)
    n = len(graph.vertices)
    if n > vertex_limit:
        raise ValueError(
            f"oracle refused: {n} vertices exceeds the limit of {vertex_limit}"
        )
    index = {v: i for i, v in enumerate(graph.vertices)}
    full = (1 << n) - 1
    start_mask = 1 << index[start]
    if full == start_mask:
        return 0
    best = {(start_mask, start): 0}
    heap = [(0, start_mask, index[start])]
    while heap:
        t, mask, vi = heapq.heappop(heap)
        v = graph.vertices[vi]
        if best.get((mask, v), -1) != t:
            continue
        if mask == full:
            return t
        for u in sorted(graph.adjacency[v]):
            t_next = next_activation(tg, (v, u), t)
            if t_next is None:
                continue
            state = (mask | (1 << index[u]), u)
            if state not in best or t_next < best[state]:
                best[state] = t_next
                heapq.heappush(heap, (t_next, state[0], index[u]))
    return None


def assert_agrees(tg, start):
    expected = reference_oracle(tg, start, vertex_limit=ORACLE_MAX_VERTICES)
    result = oracle_explore(tg, start, vertex_limit=ORACLE_MAX_VERTICES)
    assert result.length == expected
    assert result.feasible == (expected is not None)
    if result.feasible:
        assert validate_schedule(tg, result.schedule) is None
        assert result.schedule.start == start


def family_cases():
    paths = set(PATH_FAMILY_GRID) | {(n, n) for n in PATH_GROWTH_OPTIMA}
    layered = {(n, d, 1) for n, d in LAYERED_FAMILY_GRID}
    layered |= {(2 * d, d, 2 * d) for d in LAYERED_GROWTH_OPTIMA}
    cases = [(f"path-{n}^{k}", power(path_word(n), k)) for n, k in sorted(paths)]
    cases += [
        (f"layered-{n}-{d}^{k}", power(layered_word(n, d), k))
        for n, d, k in sorted(layered)
    ]
    return [pytest.param(w, id=name) for name, w in cases if len(w.alphabet) <= 12]


@pytest.mark.parametrize("word", family_cases())
def test_agrees_on_family_instances(word):
    tg = build_temporal(word)
    for start in tg.base.vertices:
        assert_agrees(tg, start)


@pytest.mark.parametrize("n", range(2, 12))
def test_agrees_on_complete_permutation_powers(n):
    tg = build_temporal(Word.from_tokens([f"k{v}" for v in range(n)] * n))
    assert_agrees(tg, Symbol("k0"))
    assert oracle_explore(tg, Symbol("k0")).length == n - 1


def test_agrees_on_the_infeasible_example():
    tg = build_temporal(Word.from_chars(REFERENCE_TEMPORAL_WORD))
    assert_agrees(tg, Symbol("a"))
    assert not oracle_explore(tg, Symbol("a")).feasible


def test_agrees_on_the_small_corpus():
    checked = 0
    for word in corpus_words(count=400, seed=13) + short_words(800, seed=13):
        tg = build_temporal(word)
        if len(tg.base.vertices) > 8:
            continue
        assert_agrees(tg, tg.base.vertices[0])
        checked += 1
    assert checked > 500


def test_limit_above_the_maximum_is_refused():
    tg = build_temporal(Word.from_chars("121323"))
    with pytest.raises(ValueError, match="exceeds the maximum"):
        oracle_explore(tg, Symbol("1"), vertex_limit=ORACLE_MAX_VERTICES + 1)
