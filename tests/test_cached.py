"""Cached fields: filled once into the instance ``__dict__``, invisible to
``==`` and ``hash``, and shared vacuous lemma reports."""

from dataclasses import dataclass
from functools import cached_property

import pytest

from wordgraph.graphs import StaticGraph, build_graph, is_connected
from wordgraph.lemmas import (
    EDGE_RECURRENCE,
    INTERLEAVING,
    LETTER_RECURRENCE,
    OCCURRENCE_BALANCE,
    UNION_WINDOWS,
    LemmaReport,
    run_all,
)
from wordgraph.temporal import TemporalGraph, build_temporal
from wordgraph.words import Word, cached

FIELDS = {
    Word: ("symbols", "occurrences", "_root_occurrences"),
    StaticGraph: ("adjacency", "_connected", "_diameter"),
    TemporalGraph: (
        "letter_times",
        "_cycle",
        "letter_gaps",
        "_gap_bound",
        "always_connected",
    ),
}

CALLS: list[int] = []


@dataclass(frozen=True)
class Counted:
    x: int

    @cached
    def double(self):
        """Twice x."""
        CALLS.append(self.x)
        return 2 * self.x


def test_fills_once_into_the_instance_dict_of_a_frozen_dataclass():
    CALLS.clear()
    obj = Counted(3)
    assert "double" not in obj.__dict__
    assert obj.double == 6 and obj.double == 6
    assert CALLS == [3]
    assert obj.__dict__["double"] == 6
    with pytest.raises(AttributeError):
        obj.x = 4


@pytest.mark.parametrize("cls, name", [(cls, n) for cls, names in FIELDS.items() for n in names])
def test_class_access_returns_the_descriptor(cls, name):
    field = getattr(cls, name)
    assert isinstance(field, cached)
    assert field is cls.__dict__[name]
    assert field.func.__name__ == name
    assert field.__doc__ == field.func.__doc__


@pytest.mark.parametrize("cls", FIELDS)
def test_every_cached_field_uses_the_descriptor(cls):
    kinds = {type(v) for v in vars(cls).values()}
    assert cached_property not in kinds
    assert {n for n, v in vars(cls).items() if isinstance(v, cached)} == set(FIELDS[cls])


def fill(obj):
    for name in FIELDS[type(obj)]:
        getattr(obj, name)


@pytest.mark.parametrize("text", ["121323", "ababcdcd", "a", "abcabcab", "abcabcabc"])
def test_equality_and_hash_ignore_filled_caches(text):
    def word():
        return Word.from_tokens(text)

    pairs = [
        (word(), word()),
        (build_graph(word()), build_graph(word())),
        (build_temporal(word()), build_temporal(word())),
    ]
    for filled, fresh in pairs:
        before = hash(filled)
        fill(filled)
        if isinstance(filled, TemporalGraph):
            fill(filled.base)
        assert set(FIELDS[type(filled)]) <= set(vars(filled))
        # A word stores only its root and copies, and build_temporal the
        # copies in one cycle of a power's timeline.
        stored = set()
        if isinstance(fresh, TemporalGraph) and fresh.word.copies > 1:
            stored = {"_cycle"}
        assert set(FIELDS[type(fresh)]) & set(vars(fresh)) == stored
        assert filled == fresh and fresh == filled
        assert hash(filled) == before == hash(fresh)


def test_disconnected_word_gets_the_five_vacuous_reports():
    tg = build_temporal(Word.from_tokens("ababcdcd"))
    assert not is_connected(tg.base)
    reports = run_all(tg)
    not_always = "not connected in every timestep"
    disconnected = "underlying graph is disconnected"
    assert [(r.lemma_id, r.notes) for r in reports] == [
        (LETTER_RECURRENCE, not_always),
        (EDGE_RECURRENCE, not_always),
        (OCCURRENCE_BALANCE, disconnected),
        (INTERLEAVING, disconnected),
        (UNION_WINDOWS, disconnected),
    ]
    for report in reports:
        assert report == LemmaReport(report.lemma_id, False, (), report.notes)
    assert run_all(build_temporal(Word.from_tokens("aabb"))) == reports
