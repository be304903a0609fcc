import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from references import edges_at, factor_bounds
from wordgraph.explore import Schedule, schedule_explore
from wordgraph.formats import (
    ParseError,
    emit_graph,
    emit_reports,
    emit_schedule,
    emit_word,
    parse_schedule,
    parse_word_file,
)
from wordgraph.graphs import build_graph
from wordgraph.lemmas import run_all
from wordgraph.temporal import build_temporal
from wordgraph.words import Symbol, Word


def schedule_doc(step=(), **fields):
    """A one-step schedule document with the given step and top-level fields
    replaced."""
    steps = [{"edge": ["1", "2"], "t": 1, **dict(step)}]
    doc = {"start": "1", "steps": steps, "length": 1, "visited_all": True}
    return json.dumps({**doc, **fields})


# Each malformed schedule document by its test id, with the start of its
# error message; the JSON decoder's own wording follows "not valid JSON: ".
MALFORMED_SCHEDULES = {
    "truncated": ("{", "not valid JSON: "),
    "list": ("[]", "malformed schedule document: expected a JSON object, got list"),
    "no-steps": ('{"start": "1"}', "malformed schedule document: missing field 'steps'"),
    # Well-formed JSON with one field of the wrong type or shape.
    "t-float": (
        schedule_doc({"t": 1.9}),
        "malformed schedule document: t must be a JSON integer, got 1.9",
    ),
    "t-bool": (
        schedule_doc({"t": True}),
        "malformed schedule document: t must be a JSON integer, got True",
    ),
    "t-string": (
        schedule_doc({"t": "3"}, length=3),
        "malformed schedule document: t must be a JSON integer, got '3'",
    ),
    "edge-three-ends": (
        schedule_doc({"edge": ["1", "2", "3"]}),
        "malformed schedule document: edge must be a list of two strings, got ['1', '2', '3']",
    ),
    "edge-string": (
        schedule_doc({"edge": "ab"}),
        "malformed schedule document: edge must be a list of two strings, got 'ab'",
    ),
    "length-float": (
        schedule_doc(steps=[], length=0.5),
        "malformed schedule document: length must be a JSON integer, got 0.5",
    ),
    "visited-all-string": (
        schedule_doc(visited_all="no"),
        "malformed schedule document: visited_all must be a JSON boolean, got 'no'",
    ),
    "visited-all-int": (
        schedule_doc(visited_all=0),
        "malformed schedule document: visited_all must be a JSON boolean, got 0",
    ),
}


class TestWordDocuments:
    def test_parse_tokens(self):
        word = parse_word_file("a b a c b d c e d f e g f h g\n")
        assert word == Word.from_tokens("abacbdcedfegfhg")

    def test_parse_skips_comments_and_blank_lines(self):
        word = parse_word_file("# a comment\n\n1 2 1 3 2 3\n")
        assert word == Word.from_tokens("1 2 1 3 2 3".split())

    def test_parse_chars_mode(self):
        assert parse_word_file("acb acb\n", chars=True) == Word.from_tokens("acbacb")

    def test_parse_multiline(self):
        word = parse_word_file("(1,1) (2,1)\n(1,2) (2,2)\n")
        assert word.symbols == ("(1,1)", "(2,1)", "(1,2)", "(2,2)")

    def test_parse_comment_lines_inside_a_periodic_text(self):
        # The text is the square of "a\n#c ", but its last two lines are
        # comments, so the word is read line by line.
        assert parse_word_file("a\n#c a\n#c\n") == Word.from_tokens(["a"])

    # The message names the document's last line, or line 1 when it has none.
    # "#x #x" is the square of "#x ", but one comment line.
    @pytest.mark.parametrize(
        "text, line",
        [
            ("", 1),
            ("   \n", 1),
            ("# only a comment\n", 1),
            ("#x\n#y\n", 2),
            ("#x #x\n", 1),
        ],
        ids=["empty", "blank", "comment", "two-comments", "periodic-comment"],
    )
    def test_parse_empty_is_an_error(self, text, line):
        with pytest.raises(ParseError) as info:
            parse_word_file(text)
        assert str(info.value) == f"line {line}: no symbol tokens found"

    @given(
        st.lists(
            st.sampled_from(["a", "b", "(1,2)", "x7", "10"]), min_size=1, max_size=30
        )
    )
    def test_round_trip(self, tokens):
        word = Word.from_tokens(tokens)
        assert parse_word_file(emit_word(word)) == word
        assert emit_word(parse_word_file(emit_word(word))) == emit_word(word)


class TestGraphDocuments:
    def test_triangle_json(self):
        doc = json.loads(emit_graph(build_graph(Word.from_tokens("xyz"))))
        assert doc["vertices"] == ["x", "y", "z"]
        assert doc["edges"] == [["x", "y"], ["x", "z"], ["y", "z"]]

    def test_temporal_json_carries_start_points_and_timesteps(self):
        tg = build_temporal(Word.from_tokens("abacbdcedfegfhg"))
        doc = json.loads(emit_graph(tg))
        assert doc["start_points"] == [1, 3, 7, 11, 15]
        assert len(doc["timesteps"]) == 5
        assert doc["timesteps"][0] == {
            "range": [1, 2],
            "letters": ["a", "b"],
            "edges": [["a", "b"], ["b", "c"]],
        }
        assert doc["timesteps"][4]["range"] == [15, 15]

    @pytest.mark.parametrize(
        "text, golden",
        [
            (
                "abacbdcedfegfhg",
                '{"vertices": ["a", "b", "c", "d", "e", "f", "g", "h"], '
                '"edges": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "e"], '
                '["e", "f"], ["f", "g"], ["g", "h"]], '
                '"start_points": [1, 3, 7, 11, 15], "timesteps": ['
                '{"range": [1, 2], "letters": ["a", "b"], '
                '"edges": [["a", "b"], ["b", "c"]]}, '
                '{"range": [3, 6], "letters": ["a", "b", "c", "d"], '
                '"edges": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "e"]]}, '
                '{"range": [7, 10], "letters": ["c", "d", "e", "f"], '
                '"edges": [["b", "c"], ["c", "d"], ["d", "e"], ["e", "f"], ["f", "g"]]}, '
                '{"range": [11, 14], "letters": ["e", "f", "g", "h"], '
                '"edges": [["d", "e"], ["e", "f"], ["f", "g"], ["g", "h"]]}, '
                '{"range": [15, 15], "letters": ["g"], '
                '"edges": [["f", "g"], ["g", "h"]]}]}',
            ),
            (
                "121323",
                '{"vertices": ["1", "2", "3"], "edges": [["1", "2"], ["2", "3"]], '
                '"start_points": [1, 3, 6], "timesteps": ['
                '{"range": [1, 2], "letters": ["1", "2"], '
                '"edges": [["1", "2"], ["2", "3"]]}, '
                '{"range": [3, 5], "letters": ["1", "2", "3"], '
                '"edges": [["1", "2"], ["2", "3"]]}, '
                '{"range": [6, 6], "letters": ["3"], "edges": [["2", "3"]]}]}',
            ),
        ],
        ids=["path-8", "121323"],
    )
    def test_temporal_json_bytes(self, text, golden):
        # The golden document in key order; the emitted bytes are exactly its
        # two-space indented rendering with a trailing newline.
        expected = json.dumps(json.loads(golden), indent=2) + "\n"
        assert emit_graph(build_temporal(Word.from_tokens(text))) == expected

    @pytest.mark.parametrize(
        "tokens",
        [
            ["é", "α", '"', "\\", "\x01", "\x7f"] * 2,
            ["é", "a", "é", "α", "a", '"', "\\", '"', "\x01", "\x7f", "\x01", "é\\α"],
            ["x\u2603y", "\U0001f600", "x\u2603y", "a\"b", "\U0001f600", "a\"b"],
        ],
    )
    def test_json_escapes_tokens_as_json_dumps(self, tokens):
        # json.dumps escapes with ensure_ascii=True: "é" is "\u00e9".
        tg = build_temporal(Word.from_tokens(tokens))
        doc = {
            "vertices": sorted(set(tokens)),
            "edges": [list(edge) for edge in sorted(tg.base.edges)],
        }
        assert emit_graph(tg.base) == json.dumps(doc, indent=2) + "\n"
        doc["start_points"] = list(tg.start_points)
        doc["timesteps"] = [
            {
                "range": [lo, hi],
                "letters": sorted(set(tokens[lo - 1 : hi])),
                "edges": [list(edge) for edge in sorted(edges_at(tg, t))],
            }
            for t, (lo, hi) in enumerate(factor_bounds(tg), start=1)
        ]
        assert emit_graph(tg) == json.dumps(doc, indent=2) + "\n"
        assert emit_graph(tg).isascii()

    def test_dot_output(self):
        from wordgraph.families import path_word

        dot = emit_graph(build_graph(path_word(4)), fmt="dot")
        assert dot.startswith("graph {")
        assert dot.count("--") == 3
        assert '"1" -- "2";' in dot

    def test_dot_escapes_quotes_and_backslashes(self):
        graph = build_graph(Word.from_tokens(['a"b', "a\\", 'a"b', "a\\"]))
        assert emit_graph(graph, fmt="dot") == (
            'graph {\n  "a\\"b";\n  "a\\\\";\n  "a\\"b" -- "a\\\\";\n}\n'
        )

    def test_dot_for_temporal_graph_renders_underlying(self):
        tg = build_temporal(Word.from_tokens("121323"))
        assert emit_graph(tg, fmt="dot") == emit_graph(tg.base, fmt="dot")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_graph(build_graph(Word.from_tokens("ab")), fmt="yaml")

    def test_emission_is_deterministic(self):
        tg = build_temporal(Word.from_tokens("12132434"))
        assert emit_graph(tg) == emit_graph(build_temporal(Word.from_tokens("12132434")))


class TestScheduleDocuments:
    def test_round_trip_of_scheduler_output(self):
        tg = build_temporal(Word.from_tokens("121323"))
        result = schedule_explore(tg, Symbol("1"))
        text = emit_schedule(result.schedule, result.visited_all)
        schedule, visited_all = parse_schedule(text)
        assert schedule == result.schedule
        assert visited_all == result.visited_all
        assert emit_schedule(schedule, visited_all) == text

    def test_document_shape(self):
        schedule = Schedule(Symbol("1"), (((Symbol("1"), Symbol("2")), 1),))
        doc = json.loads(emit_schedule(schedule, False))
        assert doc == {
            "start": "1",
            "steps": [{"edge": ["1", "2"], "t": 1}],
            "length": 1,
            "visited_all": False,
        }

    @pytest.mark.parametrize("visited_all", [True, False])
    @pytest.mark.parametrize(
        "tokens",
        [
            [],
            ["é", "α", '"', "\\", "\x01", "\x7f"],
            ["a", "\u2603", "\U0001f600", "a", "é\\α", "\U0001f600"],
        ],
    )
    def test_bytes_match_json_dumps(self, tokens, visited_all):
        start = Symbol(tokens[0] if tokens else "s")
        steps = tuple(
            ((Symbol(u), Symbol(v)), t)
            for t, (u, v) in enumerate(zip(tokens, tokens[1:]), start=1)
        )
        schedule = Schedule(start, steps)
        doc = {
            "start": schedule.start,
            "steps": [{"edge": list(edge), "t": t} for edge, t in schedule.steps],
            "length": schedule.length,
            "visited_all": visited_all,
        }
        text = emit_schedule(schedule, visited_all)
        assert text == json.dumps(doc, indent=2) + "\n"
        assert text.isascii()

    def test_inconsistent_length_rejected(self):
        text = json.dumps(
            {
                "start": "1",
                "steps": [{"edge": ["1", "2"], "t": 3}],
                "length": 1,
                "visited_all": True,
            }
        )
        with pytest.raises(ParseError):
            parse_schedule(text)

    @pytest.mark.parametrize(
        "text, expected", MALFORMED_SCHEDULES.values(), ids=MALFORMED_SCHEDULES
    )
    def test_malformed_documents_rejected(self, text, expected):
        with pytest.raises(ParseError) as info:
            parse_schedule(text)
        message = str(info.value)
        assert message.startswith(expected)
        assert "Error(" not in message


class TestReportDocuments:
    def test_reports_serialise_with_pass_flag(self):
        tg = build_temporal(Word.from_tokens("xyzxyz"))
        doc = json.loads(emit_reports(run_all(tg)))
        assert doc["pass"] is True
        assert [r["lemma_id"] for r in doc["reports"]] == [
            "letter-recurrence",
            "edge-recurrence",
            "occurrence-balance",
            "interleaving",
            "union-windows",
        ]
        for report in doc["reports"]:
            assert report["violations"] == []
            assert set(report) == {
                "lemma_id",
                "applicable",
                "pass",
                "violations",
                "notes",
            }
