"""The exact oracle against a slow reference search.

``reference_oracle`` is plain Dijkstra over (visited set, current vertex)
states keyed by symbols, with no lower or upper bound. ``oracle_explore``
must give the same length and feasibility, and a witness that validates,
on every instance below. The larger layered powers, where dominance
pruning acts, are too costly for the reference; their optima are pinned
instead, and one witness is pinned byte for byte through the CLI.
"""

import heapq
import json

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
from wordgraph.cli import run_cli
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


# Optima from (1,1) of layered (n, d)^n, as recorded by the benchmark's
# oracle workload.
LAYERED_POWER_OPTIMA = {(12, 4): 11, (12, 6): 14, (14, 7): 19, (15, 5): 17}


@pytest.mark.parametrize("n, d", sorted(LAYERED_POWER_OPTIMA))
def test_layered_power_optima(n, d):
    tg = build_temporal(power(layered_word(n, d), n))
    result = oracle_explore(tg, Symbol("(1,1)"))
    assert result.length == LAYERED_POWER_OPTIMA[n, d]
    assert validate_schedule(tg, result.schedule) is None


def test_cli_witness_bytes_on_layered_12_6(tmp_path, capsys):
    path = tmp_path / "layered.txt"
    path.write_text(str(power(layered_word(12, 6), 12)) + "\n")
    assert run_cli(["oracle", str(path), "--start", "(1,1)"]) == 0
    walk = [
        ("(1,1)", "(1,2)", 1),
        ("(1,2)", "(1,3)", 2),
        ("(1,3)", "(1,4)", 3),
        ("(1,4)", "(1,5)", 4),
        ("(1,5)", "(2,6)", 6),
        ("(2,6)", "(2,5)", 7),
        ("(2,5)", "(1,6)", 9),
        ("(1,6)", "(1,5)", 10),
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
