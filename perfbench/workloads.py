"""Workload inputs, ops and output checks.

Each workload turns the seed into a pool of inputs. A run replays the pool
in passes, one op per input, in a closed loop with a single caller. Pools are
stratified over their size ranges, so that seeds change the inputs but not
how much work one pass holds.

An op is checked in full against the reference model the first time its
input runs; every later run of the same input must reproduce the checked
output exactly (its digest), which is also the byte-determinism check.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable

from reference import (
    Ref,
    check_build,
    check_reports,
    layered_tokens,
    path_tokens,
    replay,
    word_text,
)

# Optima of the fixed oracle instances, recorded from the seed code after
# checking that each witness replays and is no longer than the scheduler.
ORACLE_OPTIMA = {
    "layered-12-4": 11,
    "layered-12-6": 14,
    "layered-14-7": 19,
    "layered-15-5": 17,
    "infeasible-abacbdcedfegfhg": None,
}

OP = {
    "path-long": "CLI: gen path --n N --k N; build --temporal; explore --start 1; verify",
    "dense": "CLI: gen layered (layered words only); build --temporal; explore"
    " --start S; verify",
    "oracle": "CLI: explore --start S; oracle --start S",
    "sweep": "library: Word.from_tokens; build_temporal; run_all; is_connected;"
    " schedule_explore + validate_schedule if connected; oracle_explore if"
    " n <= 8 and the scheduler completed",
}


@dataclass
class Item:
    """One input of a pool: its word, reference, and the op's commands."""

    key: str
    tokens: list[str]
    start: str
    commands: list[tuple[str, list[str]]] = field(default_factory=list)
    optimum: int | None | str = "unknown"

    @cached_property
    def ref(self) -> Ref:
        return Ref(self.tokens)


def _strata(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """One uniform draw from each of ``count`` equal slices of [lo, hi]."""
    span = hi - lo + 1
    slices = [(lo + i * span // count, lo + (i + 1) * span // count - 1) for i in range(count)]
    return [rng.randint(a, max(a, b)) for a, b in slices]


def cli_item(key, tokens, start, word_file, kinds, gen=None, optimum="unknown"):
    commands = [("gen", gen)] if gen else []
    for kind in kinds:
        argv = [kind, str(word_file)]
        if kind == "build":
            argv.append("--temporal")
        if kind in ("explore", "oracle"):
            argv += ["--start", start]
        commands.append((kind, argv))
    return Item(key, tokens, start, commands, optimum)


def _permutation_power(rng, prefix: str, n: int, blocks: int, copies: int):
    perms = [rng.sample([f"{prefix}{i}" for i in range(n)], n) for _ in range(blocks)]
    return [tok for _ in range(copies) for perm in perms for tok in perm]


def pool_path_long(rng: random.Random, workdir: Path) -> list[Item]:
    items = []
    for n in _strata(rng, 20, 48, 24):
        tokens = path_tokens(n) * n
        path = workdir / f"path-{n}.txt"
        path.write_text(word_text(tokens))
        gen = ["gen", "path", "--n", str(n), "--k", str(n)]
        items.append(
            cli_item(f"path n={n}", tokens, "1", path, ("build", "explore", "verify"), gen)
        )
    rng.shuffle(items)
    return items


def pool_dense(rng: random.Random, workdir: Path) -> list[Item]:
    # Size and power strata are paired in order, so the costliest inputs, and
    # with them the op_p90_ms, come from the same strata for every seed.
    items = []
    sizes, powers = _strata(rng, 24, 48, 16), _strata(rng, 6, 10, 16)
    for i, (size, k) in enumerate(zip(sizes, powers)):
        d = 3 + i % 4
        n = size - size % d
        tokens = layered_tokens(n, d) * k
        path = workdir / f"layered-{i}.txt"
        path.write_text(word_text(tokens))
        gen = ["gen", "layered", "--n", str(n), "--d", str(d), "--k", str(k)]
        items.append(
            cli_item(
                f"layered-{i} n={n} d={d} k={k}", tokens, "(1,1)", path,
                ("build", "explore", "verify"), gen,
            )
        )
    for i, n in enumerate(_strata(rng, 12, 18, 8)):
        tokens = _permutation_power(rng, "k", n, 1, 4 * n)
        path = workdir / f"complete-{i}.txt"
        path.write_text(word_text(tokens))
        items.append(
            cli_item(
                f"complete-{i} n={n}", tokens, tokens[0], path, ("build", "explore", "verify")
            )
        )
    rng.shuffle(items)
    return items


def pool_oracle(rng: random.Random, workdir: Path) -> list[Item]:
    kinds = ("explore", "oracle")
    fixed = []
    for n, d in ((12, 4), (12, 6), (14, 7), (15, 5)):
        fixed.append((f"layered-{n}-{d}", layered_tokens(n, d) * n, "(1,1)"))
    fixed.append(("infeasible-abacbdcedfegfhg", list("abacbdcedfegfhg"), "a"))
    items = []
    for key, tokens, start in fixed:
        path = workdir / f"{key}.txt"
        path.write_text(word_text(tokens))
        items.append(cli_item(key, tokens, start, path, kinds, optimum=ORACLE_OPTIMA[key]))
    for i, n in enumerate((13, 12, 11, 11, 11, 11, 11)):
        # Every factor is the whole permutation, so every edge is active at
        # every timestep and the optimum visits one new vertex per step. The
        # permutation is fixed: the oracle's search order, and so its cost,
        # depends on it. K11 appears five times, so that op_p90_ms (the 8th
        # costliest input of 76) falls inside a group of equal costs rather
        # than between unequal ones.
        tokens = [f"k{v}" for v in range(n)] * n
        path = workdir / f"complete-{i}.txt"
        path.write_text(word_text(tokens))
        items.append(cli_item(f"complete-{i} n={n}", tokens, tokens[0], path, kinds, optimum=n - 1))
    for i in range(64):
        # Blocks of random permutations: two symbols alternate exactly when
        # every block orders them the same way; redraw until connected. They
        # are kept at 8-9 vertices, where the oracle's cost varies least, so
        # that the median op is steady across seeds.
        n, blocks = 8 + i % 2, 2 + i // 2 % 2
        ref = None
        while ref is None or not ref.connected:
            tokens = _permutation_power(rng, "r", n, blocks, n)
            ref = Ref(tokens)
        path = workdir / f"random-{i}.txt"
        path.write_text(word_text(tokens))
        items.append(cli_item(f"random-{i} n={n}", tokens, tokens[0], path, kinds))
        items[-1].ref = ref
    rng.shuffle(items)
    return items


def pool_sweep(rng: random.Random, workdir: Path) -> list[Item]:
    # The test suite's corpus: sigma 3-8 with length 1-60, short words over
    # sigma 3-5, plus small permutation powers, which are always connected.
    words = []
    for _ in range(2000):
        sigma = rng.randint(3, 8)
        words.append([str(rng.randint(1, sigma)) for _ in range(rng.randint(1, 60))])
    for _ in range(800):
        sigma = rng.randint(3, 5)
        words.append([str(rng.randint(1, sigma)) for _ in range(rng.randint(1, 12))])
    for _ in range(200):
        sigma = rng.randint(3, 6)
        words.append(_permutation_power(rng, "", sigma, 1, rng.randint(1, 6)))
    rng.shuffle(words)
    return [Item(f"word-{i}", tokens, min(tokens)) for i, tokens in enumerate(words)]


POOLS: dict[str, Callable[[random.Random, Path], list[Item]]] = {
    "path-long": pool_path_long,
    "dense": pool_dense,
    "oracle": pool_oracle,
    "sweep": pool_sweep,
}


def _schedule(doc) -> tuple[str, list, int, bool]:
    steps = [((s["edge"][0], s["edge"][1]), s["t"]) for s in doc["steps"]]
    return doc["start"], steps, doc["length"], doc["visited_all"]


def check_cli(item: Item, outs: list[tuple[int, str, str]]) -> str | None:
    """Check the (exit code, stdout, stderr) of each command of a CLI op."""
    ref = item.ref
    scheduled = None
    for (kind, argv), (code, out, err) in zip(item.commands, outs, strict=True):
        if code != 0 or err:
            return f"{kind} exited {code} with stderr {err[:200]!r}"
        if kind == "gen":
            problem = None if out == word_text(item.tokens) else "gen bytes differ"
        elif kind == "build":
            problem = check_build(ref, out)
        elif kind == "verify":
            doc = json.loads(out)
            problem = None if doc["pass"] is True else "verify did not pass"
            problem = problem or check_reports(
                ref,
                [
                    (r["lemma_id"], r["applicable"], r["pass"], r["violations"])
                    for r in doc["reports"]
                ],
            )
        elif kind == "explore":
            start, steps, length, visited_all = _schedule(json.loads(out))
            problem = None if start == item.start else f"explore starts at {start}"
            problem = problem or replay(ref, start, steps, length, visited_all)
            scheduled = length if visited_all else None
        else:
            problem = _check_oracle(item, json.loads(out), scheduled)
        if problem:
            return f"{kind}: {problem}"
    return None


def _check_oracle(item: Item, doc, scheduled: int | None) -> str | None:
    if doc.get("infeasible"):
        if doc != {"start": item.start, "infeasible": True}:
            return f"malformed infeasible document {doc}"
        if scheduled is not None:
            return "infeasible, yet the scheduler explored everything"
        optimum = None
    else:
        start, steps, length, visited_all = _schedule(doc)
        problem = replay(item.ref, start, steps, length, visited_all)
        if problem or not visited_all or start != item.start:
            return problem or "the witness does not explore from the start"
        if scheduled is not None and length > scheduled:
            return f"optimum {length} exceeds the scheduler's {scheduled}"
        optimum = length
    if item.optimum != "unknown" and optimum != item.optimum:
        return f"optimum {optimum}, recorded {item.optimum}"
    return None


def sweep_record(tg, reports, connected, result, violation, best) -> tuple:
    """Plain-data view of one sweep op's results, for checking and digest."""
    schedule = None
    if result is not None:
        s = result.schedule
        steps = tuple(((u.token, v.token), t) for (u, v), t in s.steps)
        schedule = (s.start.token, steps, s.length, result.visited_all)
    oracle = None
    if best is not None:
        steps = tuple(((u.token, v.token), t) for (u, v), t in best.schedule.steps)
        oracle = (best.length, steps)
    return (
        tuple(tg.start_points),
        tuple(sorted((u.token, v.token) for u, v in tg.base.edges)),
        tuple((r.lemma_id, r.applicable, r.passed, r.violations) for r in reports),
        connected,
        schedule,
        violation and violation.kind,
        oracle,
    )


def check_sweep(item: Item, record: tuple) -> str | None:
    ref = item.ref
    starts, edges, reports, connected, schedule, violation, oracle = record
    if list(starts) != ref.starts:
        return f"start points {list(starts)[:8]}... differ from the greedy scan"
    if list(edges) != ref.edges:
        return "edge set differs from pairwise alternation"
    problem = check_reports(ref, reports)
    if problem:
        return problem
    if connected != ref.connected or (schedule is None) == connected:
        return f"connected={connected}, reference {ref.connected}"
    if schedule is None:
        return None
    start, steps, length, visited_all = schedule
    problem = replay(ref, start, steps, length, visited_all)
    if problem or start != item.start:
        return problem or f"schedule starts at {start}"
    if violation != (None if visited_all else "incomplete-coverage"):
        return f"validate_schedule reports {violation} on a replayed schedule"
    if (oracle is not None) != (visited_all and len(ref.vertices) <= 8):
        return "oracle ran when it should not, or not when it should"
    if oracle is not None:
        best, best_steps = oracle
        problem = replay(ref, start, best_steps, best, True)
        if problem or best > length:
            return problem or f"oracle {best} exceeds the scheduler's {length}"
    return None


def digest(record) -> str:
    """Digest of one op's output: exit code, stdout and stderr of each
    command, or the sweep record."""
    if isinstance(record, list):
        text = "".join(f"{code}\0{out}\0{err}\0" for code, out, err in record)
    else:
        text = repr(record)
    return hashlib.sha256(text.encode()).hexdigest()


class Checker:
    """Full check on an input's first run, digest equality afterwards."""

    def __init__(self, check: Callable[[Item, object], str | None]):
        self.check = check
        self.digests: dict[str, str] = {}
        self.problems: list[str] = []

    def ok(self, item: Item, record) -> bool:
        got = digest(record)
        first = self.digests.get(item.key)
        if first is not None:
            problem = None if got == first else "output differs from its first run"
        else:
            problem = self.check(item, record)
            if problem is None:
                self.digests[item.key] = got
        if problem:
            self.problems.append(f"{item.key}: {problem}")
        return problem is None

    def pool_digest(self, pool: list[Item]) -> str:
        h = hashlib.sha256()
        for item in pool:
            h.update(self.digests.get(item.key, "unchecked").encode())
        return h.hexdigest()


def totals(pool: list[Item]) -> dict[str, int]:
    """Input totals of one pass: words, sum |w|, sum n, sum m, sum T."""
    return {
        "words": len(pool),
        "sum_w": sum(len(i.tokens) for i in pool),
        "sum_n": sum(len(i.ref.vertices) for i in pool),
        "sum_m": sum(len(i.ref.edges) for i in pool),
        "sum_T": sum(i.ref.lifetime for i in pool),
    }

