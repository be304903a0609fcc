import csv
import errno
import io
import json
import os
import stat
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import wordgraph
from wordgraph import explore
from wordgraph.cli import run_cli
from wordgraph.families import layered_word
from wordgraph.words import power


@pytest.fixture
def word_file(tmp_path):
    def write(text, name="word.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def fresh_env(**extra):
    """The environment of a fresh ``python -m wordgraph`` process that
    imports this checkout's package."""
    src = str(Path(wordgraph.__file__).parents[1])
    pythonpath = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return {**os.environ, "PYTHONPATH": pythonpath, **extra}


# Characters a word file may mix with its tokens: comment marks, tabs,
# carriage returns and the line breaks U+2028 and U+0085, NUL, a byte order
# mark, quotes and backslashes.
NOISE = ["#", "\t", "\r", "\n", " ", "\u2028", "\u0085", "\x00", "\ufeff", '"', "'", "\\"]


@st.composite
def word_files_and_commands(draw):
    """Word-file bytes of at most 40 tokens over at most 10 distinct ones,
    each followed by a space and one ``NOISE`` character or none, and the
    argument vector of one command on it."""
    pool = draw(
        st.lists(
            st.text(st.sampled_from("ab1(,)é\"'#\x00"), min_size=1, max_size=3),
            min_size=1,
            max_size=10,
            unique=True,
        )
    )
    tokens = draw(st.lists(st.sampled_from(pool), max_size=40))
    gaps = st.sampled_from(["", *NOISE])
    gaps = draw(st.lists(gaps, min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    text = gaps[0] + "".join(f"{token} {gap}" for token, gap in zip(tokens, gaps[1:]))
    command = draw(
        st.sampled_from(
            [
                ["build"],
                ["build", "--temporal"],
                ["build", "--format", "dot"],
                ["build", "--chars"],
                ["explore"],
                ["oracle"],
                ["verify"],
            ]
        )
    )
    if command[0] in ("explore", "oracle"):
        command.append(f"--start={draw(st.sampled_from(pool))}")
    return text.encode("utf-8"), command


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_gen_path(self, capsys):
        code, out, _ = run(capsys, "gen", "path", "--n", "3")
        assert code == 0
        assert out == "1 2 1 3 2 3\n"

    def test_gen_path_power(self, capsys):
        code, out, _ = run(capsys, "gen", "path", "--n", "4", "--k", "2")
        assert code == 0
        assert out == "1 2 1 3 2 4 3 4 1 2 1 3 2 4 3 4\n"

    def test_gen_layered(self, capsys):
        code, out, _ = run(capsys, "gen", "layered", "--n", "6", "--d", "3")
        assert code == 0
        assert len(out.split()) == 12

    def test_gen_layered_bad_shape_is_domain_error(self, capsys):
        code, out, err = run(capsys, "gen", "layered", "--n", "7", "--d", "3")
        assert code == 1
        assert json.loads(err)["error"] == "invalid-arguments"


class TestBuild:
    def test_json_graph(self, capsys, word_file):
        path = word_file("1 2 1 3 2 3\n")
        code, out, _ = run(capsys, "build", path)
        assert code == 0
        doc = json.loads(out)
        assert doc == {"vertices": ["1", "2", "3"], "edges": [["1", "2"], ["2", "3"]]}

    def test_temporal_json(self, capsys, word_file):
        path = word_file("a b a c b d c e d f e g f h g\n")
        code, out, _ = run(capsys, "build", path, "--temporal")
        assert code == 0
        assert json.loads(out)["start_points"] == [1, 3, 7, 11, 15]

    def test_chars_flag(self, capsys, word_file):
        path = word_file("abacbdcedfegfhg\n")
        code, out, _ = run(capsys, "build", path, "--chars")
        assert code == 0
        assert json.loads(out)["vertices"] == list("abcdefgh")

    def test_dot_format(self, capsys, word_file):
        path = word_file("1 2 1 3 2 3\n")
        code, out, _ = run(capsys, "build", path, "--format", "dot")
        assert code == 0
        assert out.count("--") == 2

    def test_missing_file_is_domain_error(self, capsys):
        code, _, err = run(capsys, "build", "/nonexistent/word.txt")
        assert code == 1
        assert json.loads(err)["error"] == "parse-error"

    def test_empty_file_is_domain_error(self, capsys, word_file):
        path = word_file("# nothing\n")
        code, _, err = run(capsys, "build", path)
        assert code == 1
        assert json.loads(err)["error"] == "parse-error"

    def test_non_utf8_file_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "word.txt"
        path.write_bytes(b"a b \xff a\n")
        code, out, err = run(capsys, "build", str(path))
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "parse-error"


class TestExplore:
    def test_complete_schedule(self, capsys, word_file):
        path = word_file("1 2 1 3 2 3\n")
        code, out, _ = run(capsys, "explore", path, "--start", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["length"] == 2
        assert doc["visited_all"] is True

    def test_exhausted_schedule_is_reported_not_an_error(self, capsys, word_file):
        path = word_file("a b a c b d c e d f e g f h g\n")
        code, out, _ = run(capsys, "explore", path, "--start", "a")
        assert code == 0
        doc = json.loads(out)
        assert doc["visited_all"] is False
        assert doc["length"] == 4

    def test_unknown_start_is_domain_error(self, capsys, word_file):
        path = word_file("1 2 1 3 2 3\n")
        code, _, err = run(capsys, "explore", path, "--start", "9")
        assert code == 1
        assert json.loads(err) == {"error": "invalid-arguments", "message": "unknown vertex: '9'"}

    def test_disconnected_word(self, capsys, word_file):
        path = word_file("a a b b\n")
        code, _, err = run(capsys, "explore", path, "--start", "a")
        assert code == 1
        assert json.loads(err)["error"] == "disconnected-graph"


class TestOracle:
    def test_optimal_length(self, capsys, word_file):
        path = word_file("1 2 1 3 2 3\n")
        code, out, _ = run(capsys, "oracle", path, "--start", "1")
        assert code == 0
        assert json.loads(out)["length"] == 2

    def test_infeasible_is_reported(self, capsys, word_file):
        path = word_file("a b a c b d c e d f e g f h g\n")
        code, out, _ = run(capsys, "oracle", path, "--start", "a")
        assert code == 0
        assert json.loads(out) == {"start": "a", "infeasible": True}

    def test_budget_hit_fails_closed(self, capsys, word_file, monkeypatch):
        monkeypatch.setattr(explore, "ORACLE_BUDGET", 10)
        path = word_file(str(power(layered_word(12, 6), 12)) + "\n")
        code, out, err = run(capsys, "oracle", path, "--start", "(1,1)")
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        doc = json.loads(err)
        assert doc["error"] == "oracle-budget"
        assert doc["message"].endswith("exceed the budget of 10")

    def test_layered_24_6_is_solved(self, capsys, word_file):
        path = word_file(str(power(layered_word(24, 6), 24)) + "\n")
        code, out, err = run(capsys, "oracle", path, "--start", "(1,1)")
        assert (code, err) == (0, "")
        assert json.loads(out)["length"] == 32

    def test_disconnected_word_is_infeasible(self, capsys, word_file):
        path = word_file("a a b b\n")
        code, out, _ = run(capsys, "oracle", path, "--start", "a")
        assert code == 0
        assert json.loads(out) == {"start": "a", "infeasible": True}


class TestVerify:
    def test_clean_word_exits_zero(self, capsys, word_file):
        path = word_file("x y z x y z\n")
        code, out, _ = run(capsys, "verify", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert len(doc["reports"]) == 5

    def test_single_lemma_selection(self, capsys, word_file):
        path = word_file("x y z x y z\n")
        code, out, _ = run(capsys, "verify", path, "--lemma", "interleaving")
        assert code == 0
        doc = json.loads(out)
        assert [r["lemma_id"] for r in doc["reports"]] == ["interleaving"]


# How an OSError on a directory begins, as ``str`` renders it.
IS_A_DIRECTORY = f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}"


class TestBench:
    def test_path_family_csv(self, capsys, word_file, tmp_path):
        out_csv = tmp_path / "bench.csv"
        code, _, _ = run(
            capsys,
            "bench",
            "--family",
            "path",
            "--n-range",
            "4:8",
            "--step",
            "2",
            "--power-mode",
            "n",
            "--csv",
            str(out_csv),
        )
        assert code == 0
        rows = list(csv.DictReader(out_csv.read_text().splitlines()))
        assert [row["n"] for row in rows] == ["4", "6", "8"]
        for row in rows:
            assert row["family"] == "path"
            assert row["d"] == ""
            assert int(row["measured_diameter"]) == int(row["n"]) - 1
            assert int(row["scheduler_len"]) <= int(row["structural_bound"])
            assert int(row["oracle_len"]) <= int(row["scheduler_len"])
            assert row["paper_bound_held"] == "yes"

    def test_layered_family_csv(self, capsys, tmp_path):
        out_csv = tmp_path / "layered.csv"
        code, _, _ = run(
            capsys,
            "bench",
            "--family",
            "layered",
            "--n-range",
            "8:12",
            "--step",
            "2",
            "--ratio",
            "2",
            "--power-mode",
            "fixed:8",
            "--csv",
            str(out_csv),
        )
        assert code == 0
        rows = list(csv.DictReader(out_csv.read_text().splitlines()))
        assert [(row["n"], row["d"]) for row in rows] == [
            ("8", "4"),
            ("10", "5"),
            ("12", "6"),
        ]
        for row in rows:
            assert int(row["measured_diameter"]) == int(row["d"]) - 1

    def test_layered_24_6_fills_oracle_len(self, capsys, tmp_path):
        out_csv = tmp_path / "layered.csv"
        code, _, _ = run(
            capsys,
            "bench",
            "--family",
            "layered",
            "--n-range",
            "24:24",
            "--ratio",
            "4",
            "--csv",
            str(out_csv),
        )
        assert code == 0
        rows = list(csv.DictReader(out_csv.read_text().splitlines()))
        assert [(row["n"], row["d"], row["oracle_len"]) for row in rows] == [("24", "6", "32")]

    def test_bench_output_is_deterministic(self, capsys, tmp_path):
        paths = []
        for name in ("a.csv", "b.csv"):
            out_csv = tmp_path / name
            code, _, _ = run(
                capsys,
                "bench",
                "--family",
                "path",
                "--n-range",
                "4:6",
                "--csv",
                str(out_csv),
            )
            assert code == 0
            paths.append(out_csv.read_text())
        assert paths[0] == paths[1]

    def test_bad_range_is_domain_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "bench",
            "--family",
            "path",
            "--n-range",
            "4-6",
            "--csv",
            str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert json.loads(err)["error"] == "parse-error"

    def test_zero_ratio_is_domain_error(self, capsys, tmp_path):
        out_csv = tmp_path / "bench.csv"
        code, out, err = run(
            capsys,
            "bench",
            "--family",
            "layered",
            "--n-range",
            "4:4",
            "--ratio",
            "0",
            "--csv",
            str(out_csv),
        )
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "invalid-arguments"
        assert not out_csv.exists()

    @pytest.mark.parametrize("step", ["0", "-1"])
    def test_step_below_one_is_domain_error(self, capsys, tmp_path, step):
        out_csv = tmp_path / "bench.csv"
        code, out, err = run(
            capsys,
            "bench",
            "--family",
            "path",
            "--n-range",
            "4:6",
            "--step",
            step,
            "--csv",
            str(out_csv),
        )
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "invalid-arguments"
        assert not out_csv.exists()

    def test_inverted_range_is_domain_error(self, capsys, tmp_path):
        out_csv = tmp_path / "bench.csv"
        code, out, err = run(
            capsys, "bench", "--family", "path", "--n-range", "5:3", "--csv", str(out_csv)
        )
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "invalid-arguments"
        assert not out_csv.exists()

    def test_missing_output_directory_is_io_error(self, capsys, tmp_path):
        out_csv = tmp_path / "missing" / "bench.csv"
        code, out, err = run(
            capsys, "bench", "--family", "path", "--n-range", "4:4", "--csv", str(out_csv)
        )
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "io-error"

    def bench_csv(self, capsys, path):
        return run(capsys, "bench", "--family", "path", "--n-range", "4:4", "--csv", str(path))

    def test_missing_output_directory_error_names_the_given_path(self, capsys, tmp_path):
        # The temporary file beside the target has a random name, so an
        # error that named it would differ from run to run.
        out_csv = tmp_path / "missing" / "bench.csv"
        first, second = (self.bench_csv(capsys, out_csv) for _ in range(2))
        assert first == second
        assert json.loads(first[2]) == {
            "error": "io-error",
            "message": f"[Errno 2] No such file or directory: {str(out_csv)!r}",
        }

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes here")
    def test_csv_onto_a_fifo_writes_through_it(self, capsys, tmp_path):
        plain = tmp_path / "bench.csv"
        assert self.bench_csv(capsys, plain) == (0, "", "")
        fifo = tmp_path / "bench.fifo"
        os.mkfifo(fifo)
        got = []
        # A writer that replaced the FIFO would leave the reader blocked
        # for good, so it reads in a daemon thread with a deadline.
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        result = self.bench_csv(capsys, fifo)
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert result == (0, "", "")
        assert stat.S_ISFIFO(fifo.lstat().st_mode)
        assert got == [plain.read_bytes()]

    def test_csv_through_a_link_writes_its_target(self, capsys, tmp_path):
        plain = tmp_path / "plain" / "bench.csv"
        plain.parent.mkdir()
        assert self.bench_csv(capsys, plain) == (0, "", "")
        target = tmp_path / "target.csv"
        target.write_text("old\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        assert self.bench_csv(capsys, link) == (0, "", "")
        assert link.is_symlink() and link.resolve() == target
        assert target.read_bytes() == plain.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "plain", "target.csv"]

    def test_csv_onto_a_directory_is_io_error_and_leaves_no_file(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code, out, err = self.bench_csv(capsys, out_dir)
        assert (code, out, err.count("\n")) == (1, "", 1)
        assert json.loads(err)["error"] == "io-error"
        assert list(tmp_path.iterdir()) == [out_dir]
        assert list(out_dir.iterdir()) == []

    def test_csv_onto_a_relative_directory_names_the_given_path(
        self, capsys, tmp_path, monkeypatch
    ):
        (tmp_path / "out").mkdir()
        monkeypatch.chdir(tmp_path)
        code, out, err = self.bench_csv(capsys, "out")
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "io-error",
            "message": f"{IS_A_DIRECTORY}: 'out'",
        }

    def test_csv_through_a_link_to_a_directory_names_the_link(self, capsys, tmp_path):
        (tmp_path / "out").mkdir()
        link = tmp_path / "link"
        link.symlink_to(tmp_path / "out")
        code, out, err = self.bench_csv(capsys, link)
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "io-error",
            "message": f"{IS_A_DIRECTORY}: {str(link)!r}",
        }
        assert list((tmp_path / "out").iterdir()) == []

    def test_csv_leaves_a_file_named_like_a_temporary_alone(self, capsys, tmp_path):
        out_csv = tmp_path / "bench.csv"
        own = tmp_path / "bench.csv.tmp"
        own.write_text("mine\n")
        assert self.bench_csv(capsys, out_csv) == (0, "", "")
        assert own.read_text() == "mine\n"
        assert out_csv.read_text().startswith("family,n,")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bench.csv", "bench.csv.tmp"]


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_unknown_flag(self, capsys, word_file):
        code, _, _ = run(capsys, "gen", "path", "--n", "3", "--zap")
        assert code == 2

    def test_missing_required_flag(self, capsys, word_file):
        path = word_file("1 2 1 3 2 3\n")
        code, _, _ = run(capsys, "explore", path)
        assert code == 2


class TestParserReuse:
    """The parser is built once per process, so every command after the
    first reuses it; each must behave as it does in a fresh process."""

    @pytest.mark.parametrize(
        "commands",
        [
            [
                (2, ["oracle", "{path}", "--start", "1", "--limit", "40"]),
                (0, ["oracle", "{path}", "--start", "1"]),
            ],
            [
                (2, ["explore", "{path}"]),
                (0, ["explore", "{path}", "--start", "1"]),
            ],
        ],
    )
    def test_commands_in_one_process_match_fresh_processes(
        self, capsys, word_file, monkeypatch, commands
    ):
        # a fixed width, so that argparse wraps usage lines alike in both
        monkeypatch.setenv("COLUMNS", "80")
        env = fresh_env()
        path = word_file("1 2 1 3 2 3\n")
        for expected_code, template in commands:
            argv = [arg.format(path=path) for arg in template]
            in_process = run(capsys, *argv)
            fresh = subprocess.run(
                [sys.executable, "-m", "wordgraph", *argv],
                capture_output=True,
                text=True,
                env=env,
                timeout=60,
            )
            assert in_process == (fresh.returncode, fresh.stdout, fresh.stderr)
            assert in_process[0] == expected_code


# Runs each command of the JSON list in argv[1] through run_cli and prints
# one JSON list of [exit code, stdout, stderr], one entry per command.
RUN_COMMANDS = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
from wordgraph.cli import run_cli

runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_cli(argv)
    runs.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(runs))
"""


class TestHashSeeds:
    """Emitted bytes do not depend on the hash seed of the process."""

    @pytest.mark.parametrize("n, d", [(12, 6), (24, 6)])
    def test_stdout_is_identical_across_hash_seeds(self, word_file, n, d):
        path = word_file(str(power(layered_word(n, d), n)) + "\n")
        commands = [
            ["build", path, "--temporal"],
            ["explore", path, "--start", "(1,1)"],
            ["oracle", path, "--start", "(1,1)"],
            ["verify", path],
        ]
        outs = set()
        for seed in ("0", "1", "2"):
            fresh = subprocess.run(
                [sys.executable, "-c", RUN_COMMANDS, json.dumps(commands)],
                capture_output=True,
                env=fresh_env(PYTHONHASHSEED=seed),
                timeout=60,
            )
            assert (fresh.returncode, fresh.stderr) == (0, b"")
            runs = json.loads(fresh.stdout)
            assert [(code, err) for code, _, err in runs] == [(0, "")] * len(commands)
            outs.add(tuple(out for _, out, _ in runs))
        assert len(outs) == 1


class TestFailClosed:
    """Any word file ends in output and exit 0, or in exit 1 and one JSON
    error line; never in a traceback."""

    @given(word_files_and_commands())
    @settings(suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
    def test_any_word_file_fails_closed(self, tmp_path, case):
        data, (name, *options) = case
        path = tmp_path / "word.txt"
        path.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run_cli([name, str(path), *options])
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1), (code, err)
        if code == 0:
            assert err == ""
            if "dot" not in options:
                json.loads(out)
        else:
            assert out == ""
            assert err.endswith("\n") and err.count("\n") == 1
            assert set(json.loads(err)) == {"error", "message"}
