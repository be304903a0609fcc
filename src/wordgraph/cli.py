"""Command-line interface.

Exit codes: 0 success, 1 domain failure or verification violation, 2 usage
error. Domain failures print one machine-readable JSON line to stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from functools import cache
from pathlib import Path

from . import families
from .explore import OracleBudgetError, exploration_bound, oracle_explore, schedule_explore
from .formats import (
    ParseError,
    emit_graph,
    emit_reports,
    emit_schedule,
    emit_word,
    parse_word_file,
)
from .graphs import DisconnectedGraphError, build_graph, diameter
from .lemmas import CHECKS, run_all
from .temporal import build_temporal
from .words import Symbol, power

BENCH_COLUMNS = [
    "family",
    "n",
    "d",
    "k",
    "T",
    "scheduler_len",
    "oracle_len",
    "paper_bound",
    "structural_bound",
    "measured_diameter",
    "paper_bound_held",
]

_ERROR_KINDS = {
    ParseError: "parse-error",
    DisconnectedGraphError: "disconnected-graph",
    OracleBudgetError: "oracle-budget",
}


def _load_word(path: str, chars: bool):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}")
    return parse_word_file(text, chars=chars)


def _cmd_build(args) -> int:
    word = _load_word(args.word_file, args.chars)
    obj = build_temporal(word) if args.temporal else build_graph(word)
    sys.stdout.write(emit_graph(obj, args.format))
    return 0


def _cmd_explore(args) -> int:
    word = _load_word(args.word_file, args.chars)
    tg = build_temporal(word)
    result = schedule_explore(tg, Symbol(args.start))
    sys.stdout.write(emit_schedule(result.schedule, result.visited_all))
    return 0


def _cmd_oracle(args) -> int:
    word = _load_word(args.word_file, args.chars)
    tg = build_temporal(word)
    result = oracle_explore(tg, Symbol(args.start))
    if not result.feasible:
        sys.stdout.write(json.dumps({"start": args.start, "infeasible": True}) + "\n")
        return 0
    sys.stdout.write(emit_schedule(result.schedule, True))
    return 0


def _cmd_gen(args) -> int:
    if args.family == "path":
        base = families.path_word(args.n)
    else:
        base = families.layered_word(args.n, args.d)
    sys.stdout.write(emit_word(power(base, args.k)))
    return 0


def _cmd_verify(args) -> int:
    word = _load_word(args.word_file, args.chars)
    tg = build_temporal(word)
    if args.lemma == "all":
        reports = run_all(tg)
    else:
        reports = [CHECKS[args.lemma](tg)]
    sys.stdout.write(emit_reports(reports))
    return 0 if all(r.passed for r in reports) else 1


def _parse_range(spec: str) -> tuple[int, int]:
    try:
        lo, hi = spec.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise ParseError(f"range must look like A:B, got {spec!r}")


def _parse_power_mode(spec: str, n: int) -> int:
    if spec == "n":
        return n
    if spec.startswith("fixed:"):
        try:
            return int(spec.removeprefix("fixed:"))
        except ValueError:
            pass
    raise ParseError(f"power mode must be 'n' or 'fixed:K', got {spec!r}")


def _bench_row(family: str, n: int, d_param: int | None, k: int) -> dict:
    base = families.path_word(n) if family == "path" else families.layered_word(n, d_param)
    tg = build_temporal(power(base, k))
    start = min(tg.base.vertices)
    result = schedule_explore(tg, start)
    paper_bound, structural_bound = exploration_bound(tg)
    try:
        oracle_len = oracle_explore(tg, start).length
    except OracleBudgetError:
        oracle_len = None
    scheduler_len: int | str = result.schedule.length if result.visited_all else ""
    held = ""
    if result.visited_all:
        held = "yes" if result.schedule.length <= paper_bound else "no"
    return {
        "family": family,
        "n": n,
        "d": "" if d_param is None else d_param,
        "k": k,
        "T": tg.lifetime,
        "scheduler_len": scheduler_len,
        "oracle_len": "" if oracle_len is None else oracle_len,
        "paper_bound": paper_bound,
        "structural_bound": structural_bound,
        "measured_diameter": diameter(tg.base),
        "paper_bound_held": held,
    }


def _cmd_bench(args) -> int:
    lo, hi = _parse_range(args.n_range)
    if lo > hi:
        raise ValueError(f"--n-range A:B needs A <= B, got {args.n_range}")
    if args.step < 1:
        raise ValueError(f"--step must be at least 1, got {args.step}")
    if args.family == "layered" and args.ratio < 1:
        raise ValueError(f"--ratio must be at least 1, got {args.ratio}")
    rows = []
    for n in range(lo, hi + 1, args.step):
        if args.family == "path":
            d_param = None
        else:
            if n % args.ratio:
                raise ParseError(f"n={n} is not divisible by --ratio {args.ratio}")
            d_param = n // args.ratio
        k = _parse_power_mode(args.power_mode, n)
        rows.append(_bench_row(args.family, n, d_param, k))
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=BENCH_COLUMNS)
    writer.writeheader()
    writer.writerows(rows)
    tmp = args.csv + ".tmp"
    Path(tmp).write_text(buffer.getvalue())
    os.replace(tmp, args.csv)
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; ``parse_args`` returns a
    fresh namespace on every call, so the parser is safe to reuse."""
    parser = argparse.ArgumentParser(
        prog="wordgraph",
        description="Build, explore and verify word-representable temporal graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def word_file_args(p):
        p.add_argument("word_file", help="path to a word document")
        p.add_argument(
            "--chars",
            action="store_true",
            help="read one symbol per character instead of per token",
        )

    p = sub.add_parser("build", help="emit the (temporal) graph of a word")
    word_file_args(p)
    p.add_argument("--temporal", action="store_true")
    p.add_argument("--format", choices=["dot", "json"], default="json")
    p.set_defaults(handler=_cmd_build)

    p = sub.add_parser("explore", help="run the walk-following scheduler")
    word_file_args(p)
    p.add_argument("--start", required=True, help="start vertex token")
    p.set_defaults(handler=_cmd_explore)

    p = sub.add_parser("oracle", help="exact optimal exploration, within a state budget")
    word_file_args(p)
    p.add_argument("--start", required=True, help="start vertex token")
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("gen", help="generate a family word")
    gen_sub = p.add_subparsers(dest="family", required=True)
    pg = gen_sub.add_parser("path")
    pg.add_argument("--n", type=int, required=True)
    pg.add_argument("--k", type=int, default=1)
    pg.set_defaults(handler=_cmd_gen)
    lg = gen_sub.add_parser("layered")
    lg.add_argument("--n", type=int, required=True)
    lg.add_argument("--d", type=int, required=True)
    lg.add_argument("--k", type=int, default=1)
    lg.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("verify", help="run the structural checkers")
    word_file_args(p)
    p.add_argument("--lemma", choices=["all", *CHECKS], default="all")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("bench", help="benchmark table over a family")
    p.add_argument("--family", choices=["path", "layered"], required=True)
    p.add_argument("--n-range", required=True, metavar="A:B")
    p.add_argument("--step", type=int, default=1)
    p.add_argument(
        "--power-mode",
        default="n",
        help="'n' powers each word by its vertex count, 'fixed:K' by K",
    )
    p.add_argument(
        "--ratio",
        type=int,
        default=2,
        help="vertices per layer for the layered family (n/d)",
    )
    p.add_argument("--csv", required=True, help="output CSV path")
    p.set_defaults(handler=_cmd_bench)

    return parser


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValueError, OverflowError) as exc:
        return _fail(_ERROR_KINDS.get(type(exc), "invalid-arguments"), str(exc))
    except MemoryError as exc:
        return _fail("out-of-memory", str(exc) or "not enough memory to finish the command")
    except OSError as exc:
        return _fail("io-error", str(exc))


def _fail(kind: str, message: str) -> int:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")
    return 1


def main() -> None:
    raise SystemExit(run_cli())
