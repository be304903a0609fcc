import pytest
from hypothesis import given, settings

import wordgraph
from references import reference_oracle, words
from wordgraph import explore, graphs, temporal
from wordgraph.explore import (
    OracleBudgetError,
    Schedule,
    exploration_bound,
    oracle_explore,
    schedule_explore,
    validate_schedule,
)
from wordgraph.families import layered_word, path_word
from wordgraph.graphs import (
    DisconnectedGraphError,
    diameter,
    is_connected,
    make_edge,
    min_degree,
)
from wordgraph.temporal import build_temporal
from wordgraph.words import Symbol, Word, power


def step(u, v, t):
    return ((Symbol(u), Symbol(v)), t)


class TestScheduleExplore:
    def test_small_path_exact_schedule(self):
        tg = build_temporal(Word.from_tokens("121323"))
        result = schedule_explore(tg, Symbol("1"))
        assert result.visited_all
        assert result.schedule.steps == (step("1", "2", 1), step("2", "3", 2))
        assert result.schedule.length == 2
        assert result.waits == (0, 0)

    def test_lifetime_exhaustion_returns_partial_schedule(self):
        tg = build_temporal(Word.from_tokens("abacbdcedfegfhg"))
        result = schedule_explore(tg, Symbol("a"))
        assert not result.visited_all
        assert result.schedule.steps == (
            step("a", "b", 1),
            step("b", "c", 2),
            step("c", "d", 3),
            step("d", "e", 4),
        )

    def test_single_vertex(self):
        result = schedule_explore(build_temporal(Word.from_tokens("a")), Symbol("a"))
        assert result.visited_all
        assert result.schedule.steps == ()
        assert result.schedule.length == 0

    def test_mode_resolution(self):
        # B is the minimum degree on an always-connected graph, else the
        # diameter; each word below tells the two choices apart.
        tg = build_temporal(Word.from_tokens("xyzxyz"))
        assert tg.always_connected
        n, delta, d = 3, min_degree(tg.base), diameter(tg.base)
        assert (delta, d) == (2, 1)
        assert exploration_bound(tg) == (2 * delta * n, 2 * (n - 1) * (delta + 1))
        tg = build_temporal(Word.from_tokens("121323"))
        assert not tg.always_connected
        n, delta, d = 3, min_degree(tg.base), diameter(tg.base)
        assert (delta, d) == (1, 2)
        assert exploration_bound(tg) == (2 * d * n, 2 * (n - 1) * (d + 1))

    def test_disconnected_underlying_is_not_explorable(self):
        tg = build_temporal(Word.from_tokens("aabb"))
        with pytest.raises(DisconnectedGraphError):
            schedule_explore(tg, Symbol("a"))

    def test_unknown_start(self):
        tg = build_temporal(Word.from_tokens("121323"))
        with pytest.raises(ValueError):
            schedule_explore(tg, Symbol("9"))

    @given(words(sigma=6))
    def test_completed_schedules_validate_and_meet_structural_bound(self, w):
        tg = build_temporal(w)
        if not is_connected(tg.base):
            return
        result = schedule_explore(tg, tg.base.vertices[0])
        if not result.visited_all:
            return
        assert validate_schedule(tg, result.schedule) is None
        n = len(tg.base.vertices)
        bound_base = (
            min_degree(tg.base) if tg.always_connected else diameter(tg.base)
        )
        assert result.schedule.length <= 2 * (n - 1) * (bound_base + 1)

    def test_always_connected_with_long_lifetime_never_exhausts(self):
        # powers large enough that the lifetime meets 2(n-1)(delta+1)
        for base, start in [("xyz", "x"), ("xyzxzy", "y"), ("wxyz", "w")]:
            word = power(Word.from_tokens(base), 30)
            tg = build_temporal(word)
            assert tg.always_connected
            _, structural = exploration_bound(tg)
            assert tg.lifetime >= structural
            result = schedule_explore(tg, Symbol(start))
            assert result.visited_all
            delta = min_degree(tg.base)
            assert all(wait <= delta for wait in result.waits)

    @pytest.mark.parametrize("n, k", [(4, 14), (5, 28), (6, 45)])
    def test_general_mode_with_long_word_completes_with_short_waits(self, n, k):
        # k chosen so the word length reaches n * (2*d*n + d) with d = n - 1
        word = power(path_word(n), k)
        d = n - 1
        assert len(word) >= n * (2 * d * n + d)
        tg = build_temporal(word)
        result = schedule_explore(tg, Symbol("1"))
        assert result.visited_all
        assert all(wait <= d for wait in result.waits)


class TestValidateSchedule:
    def test_scheduler_output_is_valid(self):
        tg = build_temporal(Word.from_tokens("121323"))
        result = schedule_explore(tg, Symbol("1"))
        assert validate_schedule(tg, result.schedule) is None

    @pytest.mark.parametrize(
        "word, start",
        [(power(path_word(12), 12), "1"), (power(layered_word(12, 4), 12), "(1,1)")],
        ids=["path", "layered"],
    )
    def test_scheduling_leaves_letter_times_unfilled(self, word, start):
        # next_activation reads the word's root occurrences and the start
        # points, so neither the scheduler nor the checker fills the
        # per-vertex letter times.
        tg = build_temporal(word)
        result = schedule_explore(tg, Symbol(start))
        assert result.visited_all
        assert validate_schedule(tg, result.schedule) is None
        assert "letter_times" not in tg.__dict__

    @pytest.mark.parametrize(
        "word, start",
        [(power(path_word(6), 6), "1"), (power(layered_word(12, 6), 12), "(1,1)")],
        ids=["path", "layered"],
    )
    def test_each_step_normalises_its_edge_once(self, monkeypatch, word, start):
        # One next_activation call per step both finds the edge and tells
        # whether it is active, so a schedule of s steps normalises s edges.
        tg = build_temporal(word)
        schedule = schedule_explore(tg, Symbol(start)).schedule
        calls = []

        def counting(u, v):
            calls.append((u, v))
            return make_edge(u, v)

        for module in (graphs, temporal, explore):
            if hasattr(module, "make_edge"):
                monkeypatch.setattr(module, "make_edge", counting)
        assert validate_schedule(tg, schedule) is None
        assert len(calls) == len(schedule.steps) > 0

    @pytest.mark.parametrize(
        "steps, index, message",
        [
            ((step("1", "2", 1), step("2", "2", 2)), 2, "self-loop"),
            (
                (step("1", "2", 1), step("2", "3", 2), step("3", "1", 3)),
                3,
                "not an underlying edge",
            ),
        ],
        ids=["self-loop", "non-edge"],
    )
    def test_unknown_edge_names_its_step(self, steps, index, message):
        tg = build_temporal(Word.from_tokens("121323"))
        violation = validate_schedule(tg, Schedule(Symbol("1"), steps))
        assert violation.kind == "unknown-edge"
        assert violation.step == index
        assert violation.message.startswith(f"step {index}: ")
        assert message in violation.message

    def test_non_increasing_timesteps(self):
        tg = build_temporal(Word.from_tokens("121323"))
        bad = Schedule(Symbol("1"), (step("1", "2", 1), step("2", "3", 1)))
        violation = validate_schedule(tg, bad)
        assert violation is not None
        assert violation.kind == "timesteps-not-increasing"
        assert violation.step == 2

    def test_inactive_edge(self):
        tg = build_temporal(Word.from_tokens("121323"))
        bad = Schedule(Symbol("1"), (step("1", "2", 3),))
        violation = validate_schedule(tg, bad)
        assert violation is not None
        assert violation.kind == "edge-inactive"
        assert violation.step == 1

    def test_broken_walk(self):
        tg = build_temporal(Word.from_tokens("121323"))
        bad = Schedule(Symbol("1"), (step("2", "3", 1),))
        assert validate_schedule(tg, bad).kind == "broken-walk"

    def test_unknown_edge(self):
        tg = build_temporal(Word.from_tokens("121323"))
        bad = Schedule(Symbol("1"), (step("1", "3", 2),))
        assert validate_schedule(tg, bad).kind == "unknown-edge"

    def test_timestep_out_of_range(self):
        tg = build_temporal(Word.from_tokens("121323"))
        bad = Schedule(Symbol("1"), (step("1", "2", 9),))
        assert validate_schedule(tg, bad).kind == "timestep-out-of-range"

    def test_incomplete_coverage(self):
        tg = build_temporal(Word.from_tokens("121323"))
        partial = Schedule(Symbol("1"), (step("1", "2", 1),))
        violation = validate_schedule(tg, partial)
        assert violation.kind == "incomplete-coverage"
        assert violation.step is None


class TestOracle:
    @pytest.mark.parametrize(
        "text, start, expected",
        [
            ("121323", "1", 2),
            ("xyzxyz", "x", 2),
            ("a", "a", 0),
        ],
    )
    def test_micro_instances(self, text, start, expected):
        tg = build_temporal(Word.from_tokens(text))
        result = oracle_explore(tg, Symbol(start))
        assert result.feasible
        assert result.length == expected
        if result.schedule.steps:
            assert validate_schedule(tg, result.schedule) is None

    def test_infeasible_instance(self):
        tg = build_temporal(Word.from_tokens("abacbdcedfegfhg"))
        result = oracle_explore(tg, Symbol("a"))
        assert not result.feasible
        assert result.length is None

    def test_state_budget_guard(self, monkeypatch):
        # n vertices give at most n * 2^n class states, so the budget admits
        # every word of up to 16 vertices.
        assert explore.ORACLE_BUDGET >= 16 * 2**16
        tg = build_temporal(power(layered_word(12, 6), 12))
        monkeypatch.setattr(explore, "ORACLE_BUDGET", 10)
        with pytest.raises(OracleBudgetError, match="exceed the budget of 10"):
            oracle_explore(tg, Symbol("(1,1)"))
        assert issubclass(OracleBudgetError, ValueError)
        assert "OracleBudgetError" not in wordgraph.__all__

    def test_words_beyond_fifteen_vertices_are_solved(self):
        # Words beyond the old 15-vertex cap, whose class searches stay small.
        assert not oracle_explore(build_temporal(path_word(16)), Symbol("1")).feasible
        for word, start, length in (
            (power(path_word(16), 16), "1", 33),
            (power(layered_word(24, 6), 24), "(1,1)", 32),
        ):
            tg = build_temporal(word)
            result = oracle_explore(tg, Symbol(start))
            assert result.length == length
            assert validate_schedule(tg, result.schedule) is None

    @given(words(sigma=4, max_size=16))
    @settings(max_examples=40)
    def test_matches_brute_force_on_tiny_instances(self, w):
        tg = build_temporal(w)
        if len(tg.base.vertices) > 4 or tg.lifetime > 8:
            return
        start = tg.base.vertices[0]
        result = oracle_explore(tg, start)
        assert result.length == reference_oracle(tg, start)[0]
        if result.feasible and result.schedule.steps:
            assert validate_schedule(tg, result.schedule) is None

    @given(words(sigma=6))
    def test_never_beaten_by_the_scheduler(self, w):
        tg = build_temporal(w)
        if not is_connected(tg.base) or len(tg.base.vertices) > 10:
            return
        start = tg.base.vertices[0]
        scheduled = schedule_explore(tg, start)
        if not scheduled.visited_all:
            return
        optimal = oracle_explore(tg, start)
        assert optimal.feasible
        assert optimal.length <= scheduled.schedule.length

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_start_monotone_on_paths(self, n):
        # an endpoint start is never worse than the best interior start
        tg = build_temporal(power(path_word(n), n))
        opts = {v: oracle_explore(tg, v).length for v in tg.base.vertices}
        assert all(value is not None for value in opts.values())
        endpoint_best = min(opts[Symbol("1")], opts[Symbol(str(n))])
        interior = [
            value
            for vertex, value in opts.items()
            if vertex not in (Symbol("1"), Symbol(str(n)))
        ]
        assert endpoint_best <= min(interior)


class TestExplorationBound:
    def test_examples(self):
        fig = build_temporal(Word.from_tokens("abacbdcedfegfhg"))
        assert not fig.always_connected
        assert exploration_bound(fig) == (112, 112)
        triangle = build_temporal(Word.from_tokens("xyzxyz"))
        assert triangle.always_connected
        assert exploration_bound(triangle) == (12, 12)
        single = build_temporal(Word.from_tokens("a"))
        assert exploration_bound(single) == (0, 0)

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            exploration_bound(build_temporal(Word.from_tokens("aabb")))

    def test_layered_bounds_use_measured_diameter(self):
        tg = build_temporal(layered_word(8, 4))
        n = len(tg.base.vertices)
        d = diameter(tg.base)
        assert d == 3
        assert not tg.always_connected
        assert exploration_bound(tg) == (2 * d * n, 2 * (n - 1) * (d + 1))
