"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Expected values fall into three groups: reference values recomputed with
independent references (the recursive projection here, the closed forms of
``references``), hand-derived micro-instance optima, and oracle-computed
growth constants frozen as regression values.
"""

import csv
from pathlib import Path

import pytest

from references import (
    LAYERED_FAMILY_GRID,
    LAYERED_GROWTH_OPTIMA,
    PATH_FAMILY_GRID,
    PATH_GROWTH_OPTIMA,
    REFERENCE_TEMPORAL_WORD,
    corpus_words,
    family_instances,
    layered_edge_oracle,
    path_edges,
    predicted_path_timesteps,
    project,
    short_words,
)
from wordgraph.cli import run_cli
from wordgraph.explore import (
    exploration_bound,
    oracle_explore,
    schedule_explore,
    validate_schedule,
)
from wordgraph.families import layered_word, path_word
from wordgraph.formats import emit_schedule, emit_word, parse_schedule, parse_word_file
from wordgraph.graphs import build_graph, diameter, is_connected, make_edge, min_degree
from wordgraph.lemmas import run_all
from wordgraph.temporal import build_temporal, start_points
from wordgraph.words import Symbol, Word, power

REPO_ROOT = Path(__file__).resolve().parent.parent

REFERENCE_PROJECTION_WORD = "acbacbab"


def announce(number, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number:02d}: PASS{suffix}")


def recursive_projection(tokens, keep):
    if not tokens:
        return ""
    head, *rest = tokens
    tail = recursive_projection(rest, keep)
    return head + tail if head in keep else tail


def test_criterion_01_projection_reference_table():
    # the four projection rows of the reference word, recomputed with the
    # recursive keep/drop definition
    word = Word.from_chars(REFERENCE_PROJECTION_WORD)
    rows = {("a",): "aaa", ("a", "b"): "ababab", ("a", "c"): "acaca", ("b", "c"): "cbcbb"}
    for keep, expected in rows.items():
        assert recursive_projection(list(REFERENCE_PROJECTION_WORD), set(keep)) == expected
        assert project(word, [Symbol(t) for t in keep]) == Word.from_chars(expected)
    announce(1, "all four projection rows")


def test_criterion_02_reference_temporal_structure():
    word = Word.from_chars(REFERENCE_TEMPORAL_WORD)
    expected_path = frozenset(
        make_edge(Symbol(a), Symbol(b)) for a, b in zip("abcdefg", "bcdefgh")
    )
    assert build_graph(word).edges == expected_path
    assert start_points(word) == (1, 3, 7, 11, 15)
    # the start-point discrepancy of this example must be documented
    readme = (REPO_ROOT / "README.md").read_text()
    assert REFERENCE_TEMPORAL_WORD in readme
    assert "1, 3, 7, 11, 15" in readme
    announce(2, "8-path, start points [1, 3, 7, 11, 15], documented")


@pytest.mark.parametrize("n, k", PATH_FAMILY_GRID)
def test_criterion_03_path_family_formulas(n, k):
    word = power(path_word(n), k)
    path = [str(x) for x in range(1, n + 1)]
    assert build_graph(word).edges == path_edges(path)

    scanned = start_points(word)
    lifetime, predicted = predicted_path_timesteps(n, k)
    assert predicted == scanned
    assert lifetime == len(scanned)

    # closed forms for even n: lifetime factor and interior/seam start points
    t1 = (2 * n + 5) // 4
    assert lifetime == k * (t1 - 1) + 1
    for i in range(2, t1 + 1):
        assert scanned[i - 1] == 4 * i - 5
    for j in range(1, k):
        for i in range(1, t1):
            assert scanned[j * (t1 - 1) + i - 1] == 2 * j * n + 4 * i - 5
    if (n, k) == PATH_FAMILY_GRID[-1]:
        announce(3, "n in {6,8,10,12}, k in {1,2,3}")


@pytest.mark.parametrize("n, d", LAYERED_FAMILY_GRID)
def test_criterion_04_layered_family_structure(n, d):
    assert build_graph(layered_word(n, d)).edges == layered_edge_oracle(n, d)
    if (n, d) == LAYERED_FAMILY_GRID[-1]:
        announce(4, "no fake edges, all consecutive-layer edges")


def test_criterion_05_lemma_suite_on_corpus():
    words = corpus_words()
    assert len(words) >= 10_000
    words += family_instances()
    failures = []
    for word in words:
        for report in run_all(build_temporal(word)):
            if not report.passed:
                failures.append((str(word), report))
    assert not failures, failures[:5]
    announce(5, f"{len(words)} words, zero violations")


def test_criterion_06_scheduler_soundness(tmp_path):
    sample = (
        corpus_words(count=500, seed=7)
        + short_words(800, seed=7)
        + family_instances()
        + [power(path_word(n), 2 * n) for n in (4, 5, 6, 7)]
    )
    completed = 0
    headline_held = 0
    for word in sample:
        tg = build_temporal(word)
        if not is_connected(tg.base):
            continue
        result = schedule_explore(tg, tg.base.vertices[0])
        if not result.visited_all:
            continue
        completed += 1
        assert validate_schedule(tg, result.schedule) is None
        n = len(tg.base.vertices)
        bound_base = (
            min_degree(tg.base)
            if tg.always_connected
            else diameter(tg.base)
        )
        assert result.schedule.length <= 2 * (n - 1) * (bound_base + 1)
        headline, _ = exploration_bound(tg)
        if result.schedule.length <= headline:
            headline_held += 1
    assert completed > 100

    # the benchmark table records headline-bound satisfaction per row,
    # reported rather than asserted
    out_csv = tmp_path / "bench.csv"
    code = run_cli(
        ["bench", "--family", "path", "--n-range", "4:10", "--step", "2",
         "--power-mode", "n", "--csv", str(out_csv)]
    )
    assert code == 0
    rows = list(csv.DictReader(out_csv.read_text().splitlines()))
    assert all("paper_bound_held" in row for row in rows)
    reported = {row["n"]: row["paper_bound_held"] for row in rows}
    announce(
        6,
        f"{completed} completed schedules within structural bound; "
        f"headline bound held on {headline_held}/{completed}; csv reports {reported}",
    )


def test_criterion_07_oracle_optimality_and_micro_instances():
    micro = [("121323", "1", 2), ("xyzxyz", "x", 2), ("a", "a", 0)]
    for text, start, expected in micro:
        result = oracle_explore(build_temporal(Word.from_chars(text)), Symbol(start))
        assert result.feasible and result.length == expected

    checked = 0
    for word in corpus_words(count=400, seed=13) + short_words(800, seed=13):
        tg = build_temporal(word)
        if len(tg.base.vertices) > 8 or not is_connected(tg.base):
            continue
        start = tg.base.vertices[0]
        scheduled = schedule_explore(tg, start)
        if not scheduled.visited_all:
            continue
        optimal = oracle_explore(tg, start)
        assert optimal.feasible
        assert optimal.length <= scheduled.schedule.length
        checked += 1
    assert checked > 100
    announce(7, f"micro-optima exact; oracle <= scheduler on {checked} instances")


def test_criterion_08_path_growth_trend():
    ratios = []
    for n, frozen in sorted(PATH_GROWTH_OPTIMA.items()):
        tg = build_temporal(power(path_word(n), n))
        result = oracle_explore(tg, Symbol("1"))
        assert result.feasible
        assert result.length == frozen
        ratios.append(result.length / n)
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    announce(8, f"opt/n strictly increasing: {[round(r, 3) for r in ratios]}")


def test_criterion_09_layered_growth_trend():
    ratios = []
    for d, frozen in sorted(LAYERED_GROWTH_OPTIMA.items()):
        n = 2 * d
        tg = build_temporal(power(layered_word(n, d), n))
        result = oracle_explore(tg, Symbol("(1,1)"))
        assert result.feasible
        assert result.length == frozen
        ratios.append(result.length / n)
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    announce(9, f"opt/n strictly increasing in d: {[round(r, 3) for r in ratios]}")


def test_criterion_10_format_round_trips():
    words = family_instances() + [
        Word.from_chars(REFERENCE_PROJECTION_WORD),
        Word.from_chars(REFERENCE_TEMPORAL_WORD),
        Word.from_tokens(["(1,1)", "(2,1)", "(1,1)"]),
    ]
    for word in words:
        assert parse_word_file(emit_word(word)) == word
        assert emit_word(parse_word_file(emit_word(word))) == emit_word(word)

    schedules = 0
    for word in words:
        tg = build_temporal(word)
        if not is_connected(tg.base):
            continue
        result = schedule_explore(tg, tg.base.vertices[0])
        text = emit_schedule(result.schedule, result.visited_all)
        schedule, visited_all = parse_schedule(text)
        assert (schedule, visited_all) == (result.schedule, result.visited_all)
        assert emit_schedule(schedule, visited_all) == text
        schedules += 1
    assert schedules > 0
    announce(10, f"{len(words)} word and {schedules} schedule documents")
