import pytest
from hypothesis import given

from references import words
from wordgraph.lemmas import (
    CHECKS,
    LemmaReport,
    check_edge_recurrence,
    check_interleaving,
    check_letter_recurrence,
    check_occurrence_balance,
    check_union_windows,
    run_all,
)
from wordgraph.temporal import build_temporal
from wordgraph.words import Word, power


def tg_of(text):
    return build_temporal(Word.from_tokens(text))


class TestLetterRecurrence:
    def test_always_connected_triangle_powers(self):
        report = check_letter_recurrence(tg_of("xyzxyzxyz"))
        assert report.applicable and report.passed and not report.violations

    def test_not_applicable_when_some_timestep_disconnects(self):
        report = check_letter_recurrence(tg_of("121323"))
        assert not report.applicable
        assert report.passed
        assert report.notes

    def test_single_vertex_word(self):
        report = check_letter_recurrence(tg_of("a"))
        assert report.applicable and report.passed

    def test_oversized_windows_are_noted(self):
        # two vertices, degree 1, lifetime 1: the window does not fit
        report = check_letter_recurrence(tg_of("ab"))
        assert report.applicable and report.passed
        assert "windows exceed the lifetime" in report.notes


class TestEdgeRecurrence:
    def test_always_connected_pass(self):
        report = check_edge_recurrence(tg_of("xyzxyz"))
        assert report.applicable and report.passed

    def test_not_applicable_for_path_family_powers(self):
        from wordgraph.families import path_word

        report = check_edge_recurrence(build_temporal(power(path_word(6), 2)))
        assert not report.applicable

    def test_single_timestep_with_all_edges_active(self):
        report = check_edge_recurrence(tg_of("xyz"))
        assert report.applicable and report.passed


class TestOccurrenceBalance:
    def test_path_family_counts(self):
        from wordgraph.families import path_word

        report = check_occurrence_balance(build_temporal(path_word(9)))
        assert report.applicable and report.passed

    def test_reference_word_extremes_within_distance(self):
        report = check_occurrence_balance(tg_of("abacbdcedfegfhg"))
        assert report.applicable and report.passed

    def test_single_vertex_vacuous(self):
        report = check_occurrence_balance(tg_of("aa"))
        assert report.applicable and report.passed

    def test_disconnected_not_applicable(self):
        report = check_occurrence_balance(tg_of("aabb"))
        assert not report.applicable


class TestInterleaving:
    def test_adjacent_pair_on_path_word(self):
        from wordgraph.families import path_word

        report = check_interleaving(build_temporal(path_word(8)))
        assert report.applicable and report.passed

    def test_always_connected_instance(self):
        report = check_interleaving(tg_of("xyzxzyxyz"))
        assert report.applicable and report.passed

    def test_one_vertex_graph_vacuous(self):
        report = check_interleaving(tg_of("aaa"))
        assert report.applicable and report.passed

    def test_disconnected_not_applicable(self):
        report = check_interleaving(tg_of("aabb"))
        assert not report.applicable


class TestUnionWindows:
    def test_path_family_power_passes_all_subchecks(self):
        from wordgraph.families import path_word

        report = check_union_windows(build_temporal(power(path_word(6), 3)))
        assert report.applicable and report.passed
        assert report.notes == ""

    def test_reference_word_windows_do_not_fit(self):
        # diameter 7 exceeds lifetime 5
        report = check_union_windows(tg_of("abacbdcedfegfhg"))
        assert not report.applicable
        assert "no window fits" in report.notes

    def test_single_timestep_triangle(self):
        report = check_union_windows(tg_of("xyz"))
        assert report.applicable and report.passed


class TestRunAll:
    def test_runs_every_checker_once(self):
        reports = run_all(tg_of("xyzxyz"))
        assert [r.lemma_id for r in reports] == list(CHECKS)
        assert all(r.passed for r in reports)

    def test_disconnected_word_yields_vacuous_reports(self):
        reports = run_all(tg_of("aabb"))
        assert all(not r.applicable and r.passed for r in reports)

    def test_reports_are_deterministic_and_do_not_mutate(self):
        tg = tg_of("abacabadcba")
        first = run_all(tg)
        assert tg == tg_of("abacabadcba")
        second = run_all(tg_of("abacabadcba"))
        assert first == second

    @given(words(max_size=40, sigma=6))
    def test_random_words_never_violate(self, w):
        for report in run_all(build_temporal(w)):
            assert report.passed, (str(w), report)


class TestLemmaReport:
    def test_pass_mirrors_violations(self):
        assert LemmaReport("x", True).passed
        assert not LemmaReport("x", True, (("a", 1),)).passed
        assert LemmaReport("x", False).passed
        with pytest.raises(ValueError):
            LemmaReport("x", False, (("a", 1),))
