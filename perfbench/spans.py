"""Spans and counters for the traced run.

Each op is a root span; each call into a public layer function is a child
span {name, start, end, parent, op}. Calls are wrapped where the library
looks them up (module attributes, the checker table, two cached properties),
so nested layers such as ``build_graph`` inside ``build_temporal`` get their
own spans without running twice. The program's files are not changed, and
the untraced run installs nothing. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import tracemalloc
from collections import Counter, defaultdict
from contextlib import ExitStack
from functools import cached_property
from time import perf_counter
from types import SimpleNamespace
from unittest import mock

import wordgraph.cli as cli
import wordgraph.explore as explore
import wordgraph.families as families
import wordgraph.graphs as graphs
import wordgraph.lemmas as lemmas
import wordgraph.temporal as temporal
from wordgraph.temporal import TemporalGraph
from wordgraph.words import Word

# Layer self times (seconds) and counts, in the order they are reported.
TIMES = [
    "lemmas.interleaving.s",
    "lemmas.union-windows.s",
    "lemmas.occurrence-balance.s",
    "lemmas.letter-recurrence.s",
    "lemmas.edge-recurrence.s",
    "temporal.build_temporal.s",
    "temporal.start_points.s",
    "temporal.always_connected.s",
    "graphs.build_graph.s",
    "words.occurrences.s",
    "formats.emit_graph.s",
    "formats.parse_word_file.s",
    "formats.emit_schedule.s",
    "formats.emit_reports.s",
    "formats.emit_word.s",
    "explore.oracle_explore.s",
    "explore.schedule_explore.s",
    "explore.validate_schedule.s",
    "graphs.spanning_walk.s",
    "cli.parse_args.s",
    "families.path_word.s",
    "families.layered_word.s",
]
COUNTS = [
    "lemmas.applicable",
    "lemmas.violations",
    "temporal.timesteps",
    "temporal.activations",
    "graphs.pairs",
    "graphs.edges",
    "formats.bytes_out",
    "formats.tokens_in",
    "explore.oracle_infeasible",
    "explore.scheduler_waits",
    "explore.scheduler_incomplete",
]
MEMORY = ["temporal.build_temporal.retained_kb", "formats.emit_graph.peak_kb"]


class Tracer:
    """Spans, counts and tracemalloc maxima of one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.memory: dict[str, float] = defaultdict(float)
        self.measure_memory = False
        self.ref = None
        self._stack: list[int] = []
        self._op = 0

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self._op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    def op(self, run, *args):
        """Run one op as a root span; ``self.ref`` feeds reference counts."""
        self._op += 1
        rec = self._open("op")
        try:
            return run(*args)
        finally:
            self._close(rec)

    def wrap(self, fn, name: str, count=None, memory: str | None = None):
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                if memory and self.measure_memory:
                    out = self._measured(fn, memory, args, kwargs)
                else:
                    out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if count:
                count(out)
            return out

        return traced

    def _measured(self, fn, metric: str, args, kwargs):
        tracemalloc.start()
        try:
            out = fn(*args, **kwargs)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kb = (peak if metric.endswith("peak_kb") else current) / 1024
        self.memory[metric] = max(self.memory[metric], kb)
        return out

    def self_times(self, factors: list[float]) -> dict[str, float]:
        """Span time minus the time its children cover, summed by name, each
        scaled by the calibration factor of its op (op ids count from 1)."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, op), child in zip(self.spans, covered):
            out[name] += (end - start - child) * factors[op - 1]
        return out

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._op = 0

    def instrument(self) -> tuple[ExitStack, SimpleNamespace]:
        """Install the wrappers; closing the stack restores the library.

        Also returns the wrapped library functions that library-level ops
        call directly."""
        c = self.counts

        def temporal_counts(tg):
            c["temporal.timesteps"] += tg.lifetime
            c["temporal.activations"] += self.ref.activations

        def graph_counts(g):
            n = len(g.vertices)
            c["graphs.pairs"] += n * (n - 1) // 2
            c["graphs.edges"] += len(g.edges)

        def bytes_out(text):
            c["formats.bytes_out"] += len(text)

        def tokens_in(word):
            c["formats.tokens_in"] += len(word)

        def schedule_counts(result):
            c["explore.scheduler_waits"] += sum(result.waits)
            c["explore.scheduler_incomplete"] += not result.visited_all

        def oracle_counts(result):
            c["explore.oracle_infeasible"] += not result.feasible

        def report_counts(report):
            c["lemmas.applicable"] += report.applicable
            c["lemmas.violations"] += len(report.violations)

        wrapped = {
            "build_temporal": self.wrap(
                temporal.build_temporal, "temporal.build_temporal", temporal_counts,
                memory="temporal.build_temporal.retained_kb",
            ),
            "emit_graph": self.wrap(
                cli.emit_graph, "formats.emit_graph", bytes_out,
                memory="formats.emit_graph.peak_kb",
            ),
            "parse_word_file": self.wrap(
                cli.parse_word_file, "formats.parse_word_file", tokens_in
            ),
            "emit_schedule": self.wrap(cli.emit_schedule, "formats.emit_schedule", bytes_out),
            "emit_reports": self.wrap(cli.emit_reports, "formats.emit_reports", bytes_out),
            "emit_word": self.wrap(cli.emit_word, "formats.emit_word", bytes_out),
            "schedule_explore": self.wrap(
                explore.schedule_explore, "explore.schedule_explore", schedule_counts
            ),
            "validate_schedule": self.wrap(
                explore.validate_schedule, "explore.validate_schedule"
            ),
            "oracle_explore": self.wrap(
                explore.oracle_explore, "explore.oracle_explore", oracle_counts
            ),
        }
        stack = ExitStack()
        for attr, fn in wrapped.items():
            if hasattr(cli, attr):
                stack.enter_context(mock.patch.object(cli, attr, fn))
        for module, attr, name, count in (
            (temporal, "build_graph", "graphs.build_graph", graph_counts),
            (temporal, "start_points", "temporal.start_points", None),
            (explore, "spanning_walk", "graphs.spanning_walk", None),
            (families, "path_word", "families.path_word", None),
            (families, "layered_word", "families.layered_word", None),
        ):
            fn = self.wrap(getattr(module, attr), name, count)
            stack.enter_context(mock.patch.object(module, attr, fn))
        checks = {k: self.wrap(f, f"lemmas.{k}", report_counts) for k, f in lemmas.CHECKS.items()}
        stack.enter_context(mock.patch.dict(lemmas.CHECKS, checks))
        for cls, attr, name in (
            (Word, "occurrences", "words.occurrences"),
            (TemporalGraph, "always_connected", "temporal.always_connected"),
        ):
            prop = cached_property(self.wrap(getattr(cls, attr).func, name))
            prop.__set_name__(cls, attr)
            stack.enter_context(mock.patch.object(cls, attr, prop))
        lib = SimpleNamespace(
            Word=Word, run_all=lemmas.run_all, is_connected=graphs.is_connected, **wrapped
        )
        return stack, lib
