import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordgraph.explore import (
    Schedule,
    exploration_bound,
    oracle_explore,
    schedule_explore,
    validate_schedule,
)
from wordgraph.families import layered_word, path_word
from wordgraph.graphs import DisconnectedGraphError, diameter, is_connected, min_degree
from wordgraph.temporal import build_temporal
from wordgraph.words import Symbol, Word, power


def syms(*tokens):
    return [Symbol(t) for t in tokens]


def step(u, v, t):
    return ((Symbol(u), Symbol(v)), t)


def words(max_size=30, sigma=5, min_size=1):
    alphabet = st.sampled_from(syms(*"abcdefgh"[:sigma]))
    return st.lists(alphabet, min_size=min_size, max_size=max_size).map(
        lambda items: Word(tuple(items))
    )


def brute_min_exploration(tg, start):
    # exhaustive search over all temporal walks, for tiny instances only
    n = len(tg.base.vertices)
    best = None

    def recurse(vertex, visited, now):
        nonlocal best
        if len(visited) == n:
            best = now if best is None else min(best, now)
            return
        if best is not None and now >= best:
            return
        for t in range(now + 1, tg.lifetime + 1):
            for u, v in tg.edges_at(t):
                if vertex in (u, v):
                    nxt = v if vertex == u else u
                    recurse(nxt, visited | {nxt}, t)

    recurse(start, frozenset({start}), 0)
    return best


class TestScheduleExplore:
    def test_small_path_exact_schedule(self):
        tg = build_temporal(Word.from_chars("121323"))
        result = schedule_explore(tg, Symbol("1"))
        assert result.visited_all
        assert result.schedule.steps == (step("1", "2", 1), step("2", "3", 2))
        assert result.schedule.length == 2
        assert result.waits == (0, 0)

    def test_lifetime_exhaustion_returns_partial_schedule(self):
        tg = build_temporal(Word.from_chars("abacbdcedfegfhg"))
        result = schedule_explore(tg, Symbol("a"))
        assert not result.visited_all
        assert result.schedule.steps == (
            step("a", "b", 1),
            step("b", "c", 2),
            step("c", "d", 3),
            step("d", "e", 4),
        )

    def test_single_vertex(self):
        result = schedule_explore(build_temporal(Word.from_chars("a")), Symbol("a"))
        assert result.visited_all
        assert result.schedule.steps == ()
        assert result.schedule.length == 0

    def test_mode_resolution(self):
        # B is the minimum degree on an always-connected graph, else the
        # diameter; each word below tells the two choices apart.
        tg = build_temporal(Word.from_chars("xyzxyz"))
        assert tg.always_connected
        n, delta, d = 3, min_degree(tg.base), diameter(tg.base)
        assert (delta, d) == (2, 1)
        assert exploration_bound(tg) == (2 * delta * n, 2 * (n - 1) * (delta + 1))
        tg = build_temporal(Word.from_chars("121323"))
        assert not tg.always_connected
        n, delta, d = 3, min_degree(tg.base), diameter(tg.base)
        assert (delta, d) == (1, 2)
        assert exploration_bound(tg) == (2 * d * n, 2 * (n - 1) * (d + 1))

    def test_disconnected_underlying_is_not_explorable(self):
        tg = build_temporal(Word.from_chars("aabb"))
        with pytest.raises(DisconnectedGraphError):
            schedule_explore(tg, Symbol("a"))

    def test_unknown_start(self):
        tg = build_temporal(Word.from_chars("121323"))
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
            word = power(Word.from_chars(base), 30)
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
        tg = build_temporal(Word.from_chars("121323"))
        result = schedule_explore(tg, Symbol("1"))
        assert validate_schedule(tg, result.schedule) is None

    def test_non_increasing_timesteps(self):
        tg = build_temporal(Word.from_chars("121323"))
        bad = Schedule(Symbol("1"), (step("1", "2", 1), step("2", "3", 1)))
        violation = validate_schedule(tg, bad)
        assert violation is not None
        assert violation.kind == "timesteps-not-increasing"
        assert violation.step == 2

    def test_inactive_edge(self):
        tg = build_temporal(Word.from_chars("121323"))
        bad = Schedule(Symbol("1"), (step("1", "2", 3),))
        violation = validate_schedule(tg, bad)
        assert violation is not None
        assert violation.kind == "edge-inactive"
        assert violation.step == 1

    def test_broken_walk(self):
        tg = build_temporal(Word.from_chars("121323"))
        bad = Schedule(Symbol("1"), (step("2", "3", 1),))
        assert validate_schedule(tg, bad).kind == "broken-walk"

    def test_unknown_edge(self):
        tg = build_temporal(Word.from_chars("121323"))
        bad = Schedule(Symbol("1"), (step("1", "3", 2),))
        assert validate_schedule(tg, bad).kind == "unknown-edge"

    def test_timestep_out_of_range(self):
        tg = build_temporal(Word.from_chars("121323"))
        bad = Schedule(Symbol("1"), (step("1", "2", 9),))
        assert validate_schedule(tg, bad).kind == "timestep-out-of-range"

    def test_incomplete_coverage(self):
        tg = build_temporal(Word.from_chars("121323"))
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
        tg = build_temporal(Word.from_chars(text))
        result = oracle_explore(tg, Symbol(start))
        assert result.feasible
        assert result.length == expected
        if result.schedule.steps:
            assert validate_schedule(tg, result.schedule) is None

    def test_infeasible_instance(self):
        tg = build_temporal(Word.from_chars("abacbdcedfegfhg"))
        result = oracle_explore(tg, Symbol("a"))
        assert not result.feasible
        assert result.length is None

    def test_vertex_limit_guard(self):
        tg = build_temporal(path_word(16))
        with pytest.raises(ValueError):
            oracle_explore(tg, Symbol("1"))
        # raising the guard lets the same instance through
        result = oracle_explore(tg, Symbol("1"), vertex_limit=16)
        assert isinstance(result.feasible, bool)

    @given(words(sigma=4, max_size=16))
    @settings(max_examples=40)
    def test_matches_brute_force_on_tiny_instances(self, w):
        tg = build_temporal(w)
        if len(tg.base.vertices) > 4 or tg.lifetime > 8:
            return
        start = tg.base.vertices[0]
        result = oracle_explore(tg, start)
        assert result.length == brute_min_exploration(tg, start)
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
        fig = build_temporal(Word.from_chars("abacbdcedfegfhg"))
        assert not fig.always_connected
        assert exploration_bound(fig) == (112, 112)
        triangle = build_temporal(Word.from_chars("xyzxyz"))
        assert triangle.always_connected
        assert exploration_bound(triangle) == (12, 12)
        single = build_temporal(Word.from_chars("a"))
        assert exploration_bound(single) == (0, 0)

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            exploration_bound(build_temporal(Word.from_chars("aabb")))

    def test_layered_bounds_use_measured_diameter(self):
        tg = build_temporal(layered_word(8, 4))
        n = len(tg.base.vertices)
        d = diameter(tg.base)
        assert d == 3
        assert not tg.always_connected
        assert exploration_bound(tg) == (2 * d * n, 2 * (n - 1) * (d + 1))
