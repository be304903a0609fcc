"""The exact oracle against a slow reference search.

``reference_oracle`` is plain Dijkstra over (visited set, current vertex)
states keyed by symbols, with no lower or upper bound. ``oracle_explore``
must give the same length and feasibility, and a witness that validates,
on every instance below. The larger layered powers, where dominance
pruning acts, are too costly for the reference; their optima are pinned
instead, and one witness is pinned byte for byte through the CLI.

``unpruned_oracle`` is the concrete A* over (visited set, vertex) states,
with no twin classes. On larger instances the oracle's search over twin
classes must give its length, and a witness that validates.
"""

import heapq
import json
import random
from bisect import bisect_right

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
from wordgraph.explore import (
    OracleResult,
    Schedule,
    Step,
    _twin_classes,
    oracle_explore,
    schedule_explore,
    validate_schedule,
)
from wordgraph.families import layered_word, path_word
from wordgraph.graphs import DisconnectedGraphError
from wordgraph.temporal import TemporalGraph, build_temporal, next_activation
from wordgraph.words import Symbol, Word, power


def reference_oracle(tg, start):
    """Earliest time at which some temporal walk from ``start`` has visited
    every vertex, or None."""
    graph = tg.base
    graph.require_vertex(start)
    n = len(graph.vertices)
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
    expected = reference_oracle(tg, start)
    result = oracle_explore(tg, start)
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


def unpruned_oracle(tg: TemporalGraph, start: Symbol) -> OracleResult:
    """The exact optimum by A* over concrete (visited set, vertex) states,
    with the bounds and dominance skip of ``oracle_explore`` but no twin
    classes."""
    graph = tg.base
    graph.require_vertex(start)
    vertices = graph.vertices
    n = len(vertices)
    if n == 1:
        return OracleResult(Schedule(start))
    try:
        scheduled = schedule_explore(tg, start)
    except DisconnectedGraphError:
        return OracleResult(None)
    upper = scheduled.schedule.length if scheduled.visited_all else tg.lifetime
    if scheduled.visited_all and upper == n - 1:
        return OracleResult(scheduled.schedule)

    # Vertex ids follow token order, so each row lists (neighbour id, its
    # bit, activation times) in token order. An edge is active whenever
    # either endpoint is a letter.
    index = {v: i for i, v in enumerate(vertices)}
    times = tg.letter_times
    rows = [
        [
            (index[u], 1 << index[u], tuple(sorted({*times[v], *times[u]})))
            for u in sorted(graph.adjacency[v])
        ]
        for v in vertices
    ]
    full = (1 << n) - 1
    start_key = (1 << index[start]) * n + index[start]
    # States are keyed by mask * n + vertex id; the heap orders them by
    # (time + unvisited count, later time first, key).
    best = {start_key: 0}
    parent: dict[int, int] = {}
    heap = [(n - 1, 0, start_key)]
    while heap:
        _, neg_t, key = heapq.heappop(heap)
        t = -neg_t
        if best[key] != t:
            continue
        mask, v = divmod(key, n)
        if mask == full:
            break
        # Skip a state dominated by one at the same vertex, reached no later
        # with one more vertex visited: that state can wait here and copy any
        # continuation of this one. Its f is smaller, so it, or a state that
        # dominates it, was expanded first.
        rest = full ^ mask
        while rest:
            low = rest & -rest
            if best.get(key + low * n, t + 1) <= t:
                break
            rest ^= low
        if rest:
            continue
        unvisited = n - mask.bit_count()
        for u, bit, ts in rows[v]:
            if t >= ts[-1]:
                continue
            t_next = ts[bisect_right(ts, t)]
            f = t_next + (unvisited if mask & bit else unvisited - 1)
            if f > upper:
                continue
            state = (mask | bit) * n + u
            if t_next < best.get(state, upper + 1):
                best[state] = t_next
                parent[state] = key
                heapq.heappush(heap, (f, -t_next, state))
    else:
        return OracleResult(None)

    steps: list[Step] = []
    while key != start_key:
        prev = parent[key]
        steps.append(((vertices[prev % n], vertices[key % n]), best[key]))
        key = prev
    steps.reverse()
    schedule = Schedule(start, tuple(steps))
    return OracleResult(schedule)


def assert_optimal_witness(tg, start):
    result = oracle_explore(tg, start)
    expected = unpruned_oracle(tg, start)
    assert result.length == expected.length
    if result.feasible:
        assert validate_schedule(tg, result.schedule) is None
        assert result.schedule.start == start


@pytest.mark.parametrize("n, d", sorted(LAYERED_POWER_OPTIMA) + [(16, 4), (16, 8)])
def test_pruned_witness_on_layered_powers(n, d):
    tg = build_temporal(power(layered_word(n, d), n))
    assert_optimal_witness(tg, Symbol("(1,1)"))


def layered_family_cases():
    layered = {(n, d, 1) for n, d in LAYERED_FAMILY_GRID}
    layered |= {(2 * d, d, 2 * d) for d in LAYERED_GROWTH_OPTIMA}
    return [
        pytest.param(power(layered_word(n, d), k), id=f"layered-{n}-{d}^{k}")
        for n, d, k in sorted(layered)
    ]


@pytest.mark.parametrize("word", layered_family_cases())
def test_pruned_witness_on_layered_family_from_every_start(word):
    tg = build_temporal(word)
    for start in tg.base.vertices:
        assert_optimal_witness(tg, start)


@pytest.mark.parametrize("n", range(2, 12))
def test_pruned_witness_on_complete_permutation_powers(n):
    tg = build_temporal(Word.from_tokens([f"k{v}" for v in range(n)] * n))
    for start in tg.base.vertices:
        assert_optimal_witness(tg, start)


def twinned(word, symbol, copies):
    """``word`` with each ``symbol`` followed by ``copies`` fresh symbols.
    They join its factors and alternate with whatever it alternates with,
    so it and they form a class of closed twins."""
    extra = [symbol + "'" * i for i in range(1, copies + 1)]
    tokens = []
    for sym in word.symbols:
        tokens += [sym, *extra] if sym == symbol else [sym]
    return Word.from_tokens(tokens)


def with_closed_twins(word, rng):
    return twinned(word, rng.choice(sorted(word.alphabet)), rng.choice((1, 2)))


def permutation_power_words(count, seed):
    # Blocks of random permutations repeated: two symbols alternate exactly
    # when every block orders them alike, so the graphs are dense and the
    # oracle searches rather than returning the scheduler's walk.
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(5, 7)
        blocks = [rng.sample([f"r{i}" for i in range(n)], n) for _ in range(rng.choice((2, 3)))]
        out.append(Word.from_tokens([tok for _ in range(6) for block in blocks for tok in block]))
    return out


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
            assert_optimal_witness(tg, start)
        checked += 1
        first = _twin_classes(tg)
        twinned_words += len(set(first)) < len(first)
    assert checked >= 300
    assert twinned_words >= 20
