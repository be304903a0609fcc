"""The ops the workloads run, and the self-test of their checks.

CLI ops call ``run_cli`` in process with stdout and stderr captured. In the
traced run the same commands are replayed as the CLI runs them, a fresh
``build_parser().parse_args`` followed by the handler, so that the calls it
makes into the library get spans.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import wordgraph
from wordgraph.cli import build_parser, run_cli

from reference import path_tokens, word_text
from workloads import Checker, Item, cli_item, check_cli, check_sweep, sweep_record


def _captured(call, argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = call(argv)
    return code, out.getvalue(), err.getvalue()


def cli_op(item: Item) -> list[tuple[int, str, str]]:
    return [_captured(run_cli, argv) for _, argv in item.commands]


def traced_cli_op(tracer):
    parse = tracer.wrap(lambda argv: build_parser().parse_args(argv), "cli.parse_args")

    def replay(argv) -> int:
        args = parse(argv)
        return args.handler(args)

    def op(item: Item) -> list[tuple[int, str, str]]:
        return [_captured(replay, argv) for _, argv in item.commands]

    return op


def sweep_op(lib, item: Item) -> tuple:
    tg = lib.build_temporal(lib.Word.from_tokens(item.tokens))
    reports = lib.run_all(tg)
    connected = lib.is_connected(tg.base)
    result = violation = best = None
    if connected:
        start = tg.base.vertices[0]
        result = lib.schedule_explore(tg, start)
        violation = lib.validate_schedule(tg, result.schedule)
        if result.visited_all and len(tg.base.vertices) <= 8:
            best = lib.oracle_explore(tg, start)
    return tg, reports, connected, result, violation, best


def self_test(workdir: Path) -> list[str]:
    """Feed the checks corrupted outputs and require each to count as a
    failed op; the honest outputs must pass. Returns the cases that did not
    behave."""
    tokens = path_tokens(5) * 5
    word_file = workdir / "self-test.txt"
    word_file.write_text(word_text(tokens))
    gen = ["gen", "path", "--n", "5", "--k", "5"]
    item = cli_item("self-test", tokens, "1", word_file, ("build", "explore", "verify"), gen)
    outs = cli_op(item)
    kinds = [kind for kind, _ in item.commands]

    def edited(kind: str, edit) -> list:
        i = kinds.index(kind)
        doc = json.loads(outs[i][1])
        edit(doc)
        text = json.dumps(doc, indent=2) + "\n"
        return outs[:i] + [(outs[i][0], text, outs[i][2])] + outs[i + 1 :]

    def wrong_starts(doc):
        doc["start_points"][1] += 1

    def corrupt_schedule(doc):
        doc["steps"][0]["edge"].reverse()

    sweep_item = Item("self-test-sweep", list("121323"), "1")
    record = sweep_record(*sweep_op(wordgraph, sweep_item))
    bad_record = (tuple(s + 1 for s in record[0]),) + record[1:]

    wrong_digest = Checker(check_cli)
    wrong_digest.digests[item.key] = "0" * 64
    cases = {
        "honest CLI output": (Checker(check_cli), item, outs, True),
        "honest sweep record": (Checker(check_sweep), sweep_item, record, True),
        "corrupted schedule": (Checker(check_cli), item, edited("explore", corrupt_schedule), False),
        "wrong start points (CLI)": (Checker(check_cli), item, edited("build", wrong_starts), False),
        "wrong start points (sweep)": (Checker(check_sweep), sweep_item, bad_record, False),
        "wrong digest": (wrong_digest, item, outs, False),
    }
    return [name for name, (checker, it, rec, good) in cases.items() if checker.ok(it, rec) != good]
