"""Mutation check: tier-1 must fail on every mutant of ``src/`` listed below.

Run it from any directory with ``python tests/mutants.py``. The unmutated
copy of ``src/`` runs first and must pass. Then, for each mutant, the
script copies ``src/`` to a temporary directory and replaces the mutant's
old text in its file. The old text must occur there exactly once, so a
refactor that moves or rewrites the line must update the entry. It then
runs ``python -m pytest -x -q -p no:cacheprovider --hypothesis-seed=0`` from
the repository root, with ``PYTHONPATH`` set to the copy. The mutant is
killed only when pytest exits 1, meaning a test failed; a collection error
(exit 2) or any other code does not count. The script prints one line per
mutant, with the first failing test, and exits 1 unless every mutant was
killed. Pytest does not collect this file.

On words, the five theorems hold, so a checker's violation path runs only
on a temporal graph that no word yields. ``test_lemmas_reference.py`` builds
such graphs and compares every report with the slow references. Its
``test_planted_violation`` pins one fixed graph per checker, and run alone
(``-k planted``) it kills ``letter-recurrence-gap``,
``interleaving-witness-spread``, ``union-windows-reactivation`` and
``gapped-edges-threshold``; in the full run it is the first to fail on the
first two. The random probe ``test_non_greedy_start_points_probe``, with
start points other than the greedy ones, runs before it and is the first to
fail on ``union-windows-reactivation`` and ``gapped-edges-threshold``.
``schedule_explore`` reads ``visited_all`` off the walk's length, so on
``spanning-walk-stops-early`` it reports a complete schedule that misses a
vertex, and ``validate_schedule`` in
``test_acceptance.py::test_criterion_06_scheduler_soundness`` is the first
to fail.

``largest-gap-to-lifetime`` moves the end of the windows that
``_uncovered_windows`` scans; the non-greedy probe is the first to fail on
it. ``assert_matches_reference`` compares the letter times and the letter
gaps with the reference letter sets on every graph it sees:
``test_random_words`` is the first to fail on ``cycle-gaps-without-end``,
and, run alone, on ``letter-times-bisect-left``, which in the full run
first fails ``test_acceptance.py::test_criterion_09_layered_growth_trend``,
whose oracle reads letter times.

``TemporalGraph._times(t)`` reads one cycle of the timeline and every copy
of the root through the end of timestep t, and each of its three readings
has a mutant. ``letter-times-one-copy-short`` ends the reading through the
last timestep one copy early, which leaves the root's last copy out of
``letter_times``; ``test_random_words`` is the first to fail on it.
``cycle-gaps-one-copy-short`` reads one cycle as one copy fewer than
``_cycle``, unless that is the only copy, so ``letter_gaps``, which reads
``_times(0)``, reads short. As ``_cycle`` is every copy of a power whose
timeline does not repeat, it also reads those short, and
``test_lemmas_reference.py::test_exhaustive_words`` is the first to fail on
it. A gap that only the copy at which the timeline repeats holds is rare in
random powers; the planted
``test_powers.py::test_letter_gap_between_the_repeating_copy_and_the_one_before``
and ``test_letter_gaps_of_every_short_root_cubed`` each fail on it alone.
``cycle-one-copy-short`` has ``build_temporal`` store one copy fewer as
``_cycle``; ``test_powers.py::test_verify_reads_one_cycle_of_a_power`` is
the first to fail on it.

The oracle reads ``_times(upper)``, up to the end of timestep ``upper``, its
upper bound. ``oracle-times-to-start-of-upper`` reads ``_times(upper - 1)``,
so a link can miss its activation at ``upper``: on path(8)^8 from vertex 8
the oracle then reports no walk, although the scheduler finds one of length
13, and ``test_oracle_reference.py::test_agrees_on_family_instances[path-8^8]``
is the first to fail. ``link-times-drop-upper`` keeps each link's times
only up to ``upper - 1``, so an optimum that equals the scheduler's length
is lost; ``test_acceptance.py::test_criterion_08_path_growth_trend`` is the
first to fail. The twin classes read one cycle through ``_times`` too, and
read one copy short they are unchanged: where ``build_temporal`` stored
``_cycle``, the timeline repeats from a copy before copy ``_cycle - 1``, so
copies 0 to ``_cycle - 2`` already hold one full period.

``twin-classes-ignore-letter-times`` joins vertices with equal
neighbourhoods but different letter times, and
``test_oracle_reference.py::test_agrees_on_the_small_corpus`` is the first
to fail on it. ``twin-classes-unsorted`` leaves the twin classes in the
order the neighbourhood classes split into them, not in order of first
member. That moves the oracle's bit fields, and so, among equal optima,
its witness; only the pinned
``test_twin_quotient.py::test_witness_on_neighbourhood_classes_split_by_letter_times``
fails on it.
``connected-factor-one-long`` and ``json-factor-one-long`` read each factor
one symbol past its end, in ``always_connected`` and in the temporal JSON.
On greedy start points the next factor's first symbol already lies in the
factor, so the extra symbol never changes a letter set: only tests over
other start points fail on them, ``test_non_greedy_start_points_probe``
first. The temporal JSON reads each distinct factor's active edges from the
edge indices at its letters: ``json-tail-keyed-by-first-letter`` reuses one
factor's tail for another that opens with the same letter, and
``test_formats.py::TestGraphDocuments::test_temporal_json_bytes[path-8]`` is
the first to fail on it; ``json-active-edges-first-letter-only`` reads the
edge indices at a factor's first letter only, and
``test_formats.py::TestGraphDocuments::test_temporal_json_carries_start_points_and_timesteps``
is the first to fail on it.
``parse_word_file`` splits only the primitive root of a text in ``gen``'s
layout. ``parse-root-any-layout`` splits the root of any layout, so a root
that spans lines reads a comment line's text as tokens:
``test_formats.py::TestWordDocuments::test_parse_comment_lines_inside_a_periodic_text``
is the first to fail on it.
On words every base edge of a power has equal counts in the root, so only
a base that is not the word's own tells the root certificate and counts
apart: ``test_foreign_base_probe`` is the first to fail on
``root-certificate-without-count-guard`` and ``balance-counts-of-one-copy``.
A word is stored as its primitive root and its copy count.
``power-drops-base-copies`` gives ``power(w, k)`` k copies of the root, not
k times ``w``'s: ``test_powers.py::test_period_of_the_empty_word_is_its_length``
is the first to fail on it, since the empty word cubed then has three
copies, and ``test_powers.py::test_root_parsed_power_of_a_power`` fails on
it too. ``word-init-keeps-full-tuple`` has ``Word(symbols)`` store every
symbol as the root, so a power built from a tuple is unequal to the same
word read from its tokens:
``test_acceptance.py::test_criterion_01_projection_reference_table`` is the
first to fail on it.
``TemporalGraph._gap_bound`` bounds every letter gap of a proper power from
the start points of one cycle, and the window checkers read no letter gap
when it decides them. ``gap-bound-window-one-short`` counts the start
points in one position fewer than a copy of the root; only
``test_powers.py::test_gap_bound_and_reports_on_powers_with_other_start_points``
fails on it. ``gap-bound-without-last-gap`` drops the gap from the last
copy's first position to T + 1, and
``test_lemmas_reference.py::test_foreign_base_probe`` is the first to fail
on it. ``first-window-skip-reads-first-key`` has union-windows (a) skip its
edge scan unless the first letter, not the last, first occurs after the
first d timesteps, so it never scans;
``test_lemmas_reference.py::test_non_greedy_start_points_probe`` is the
first to fail on it.

Each later fast path should add a mutant of itself here.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PYTEST = [
    sys.executable,
    "-m",
    "pytest",
    "-x",
    "-q",
    "-p",
    "no:cacheprovider",
    "--hypothesis-seed=0",
]

# (name, file under src/wordgraph, exact old text, new text)
MUTANTS = [
    (
        "connected-edge-count",
        "graphs.py",
        "if len(self.edges) < n - 1:",
        "if len(self.edges) <= n - 1:",
    ),
    (
        "candidate-range-one-short",
        "graphs.py",
        "for y, py in runs[i:end]:",
        "for y, py in runs[i : end - 1]:",
    ),
    (
        "power-slack-1",
        "graphs.py",
        "slack = 1 if word.copies == 1 else 0",
        "slack = 1",
    ),
    (
        "start-points-shift-by-period",
        "temporal.py",
        "block, shift = starts[index:], base - first",
        "block, shift = starts[index:], period",
    ),
    (
        "start-points-no-end-cut",
        "temporal.py",
        "            del starts[bisect_right(starts, n) :]\n",
        "",
    ),
    (
        "period-without-slice-comparison",
        "words.py",
        "if n % p == 0 and seq[p] == first and seq[p:] == seq[:-p]:",
        "if n % p == 0 and seq[p] == first:",
    ),
    (
        "parse-root-any-layout",
        "formats.py",
        'if tokens and root[0] != "#" and " ".join(tokens) + " " == root:',
        'if tokens and root[0] != "#":',
    ),
    (
        "json-tail-keyed-by-first-letter",
        "formats.py",
        "tail = tails.get(factor)\n"
        "        if tail is None:\n"
        "            letters = sorted({rank[v] for v in factor})\n"
        "            active = sorted({i for r in letters for i in incident[r]})\n"
        "            tail = tails[factor] = (",
        "tail = tails.get(factor[0])\n"
        "        if tail is None:\n"
        "            letters = sorted({rank[v] for v in factor})\n"
        "            active = sorted({i for r in letters for i in incident[r]})\n"
        "            tail = tails[factor[0]] = (",
    ),
    (
        "json-active-edges-first-letter-only",
        "formats.py",
        "active = sorted({i for r in letters for i in incident[r]})",
        "active = sorted(incident[letters[0]])",
    ),
    (
        "twin-classes-ignore-letter-times",
        "explore.py",
        "split.setdefault((c, times[vertices[i]]), []).append(i)",
        "split.setdefault((c, ()), []).append(i)",
    ),
    (
        "twin-classes-unsorted",
        "explore.py",
        "return sorted(split.values())",
        "return list(split.values())",
    ),
    (
        "dominance-one-step-late",
        "explore.py",
        "if best.get(key + more, cap) <= t:",
        "if best.get(key + more, cap) <= t + 1:",
    ),
    (
        "largest-gap-to-lifetime",
        "lemmas.py",
        "bounds = (0, *times, lifetime + 1)",
        "bounds = (0, *times, lifetime)",
    ),
    (
        "letter-recurrence-gap",
        "lemmas.py",
        "and tg.letter_gaps[v] > span:",
        "and tg.letter_gaps[v] > span + 1:",
    ),
    (
        "interleaving-witness-spread",
        "lemmas.py",
        "<= position <= chi_at(i + spread):",
        "<= position <= chi_at(i + spread + 1):",
    ),
    (
        "union-windows-reactivation",
        "lemmas.py",
        "if a and t == a + 1:",
        "if a and t == a + 2:",
    ),
    (
        "gapped-edges-threshold",
        "lemmas.py",
        "if any(_uncovered_windows(times, size, lifetime)):",
        "if any(_uncovered_windows(times, size + 1, lifetime)):",
    ),
    (
        "cycle-gaps-one-copy-short",
        "temporal.py",
        "bases = range(0, max(self._cycle * period, end), period)",
        "bases = range(0, max(self._cycle * period - period, end, period), period)",
    ),
    (
        "letter-times-bisect-left",
        "temporal.py",
        "v: tuple([bisect_right(starts, c + p) for c in bases for p in roots])",
        "v: tuple([bisect_right(starts, c + p - 1) for c in bases for p in roots])",
    ),
    (
        "letter-times-one-copy-short",
        "temporal.py",
        "end = starts[t] - 1 if t < len(starts) else len(word)",
        "end = starts[t] - 1 if t < len(starts) else len(word) - period",
    ),
    (
        "connected-factor-one-long",
        "temporal.py",
        "factor = symbols[lo - 1 : end - 1]",
        "factor = symbols[lo - 1 : end]",
    ),
    (
        "json-factor-one-long",
        "formats.py",
        "factor = symbols[lo - 1 : end - 1]",
        "factor = symbols[lo - 1 : end]",
    ),
    (
        "cycle-gaps-without-end",
        "temporal.py",
        "gaps[v] = max(end, *map(sub, times, (0, *times)))",
        "gaps[v] = max(map(sub, times, (0, *times)))",
    ),
    (
        "root-certificate-without-count-guard",
        "lemmas.py",
        "slack = 1 if word.copies == 1 else 0",
        "slack = 1",
    ),
    (
        "balance-counts-of-one-copy",
        "lemmas.py",
        "counts = {v: word.copies * len(ps) for v, ps in word._root_occurrences.items()}",
        "counts = {v: len(ps) for v, ps in word._root_occurrences.items()}",
    ),
    (
        "gap-bound-window-one-short",
        "temporal.py",
        "bisect_right(starts, s + period - 1, i) - i",
        "bisect_right(starts, s + period - 2, i) - i",
    ),
    (
        "gap-bound-without-last-gap",
        "temporal.py",
        "            last,\n            *[bisect_right(",
        "            0,\n            *[bisect_right(",
    ),
    (
        "first-window-skip-reads-first-key",
        "lemmas.py",
        "if next(reversed(roots.values()))[0] >= bound:",
        "if next(iter(roots.values()))[0] >= bound:",
    ),
    (
        "spanning-walk-stops-early",
        "graphs.py",
        "while len(seen) < n:",
        "while len(seen) < n - 1:",
    ),
    (
        "cycle-one-copy-short",
        "temporal.py",
        'vars(tg)["_cycle"] = before // period + 1',
        'vars(tg)["_cycle"] = before // period',
    ),
    (
        "oracle-times-to-start-of-upper",
        "explore.py",
        "times = tg._times(upper)",
        "times = tg._times(upper - 1)",
    ),
    (
        "link-times-drop-upper",
        "explore.py",
        "ts = (*ts[: bisect_right(ts, upper)], cap)",
        "ts = (*ts[: bisect_right(ts, upper - 1)], cap)",
    ),
    (
        "power-drops-base-copies",
        "words.py",
        "return _power(word.root, word.copies * k)",
        "return _power(word.root, k)",
    ),
    (
        "word-init-keeps-full-tuple",
        "words.py",
        "period = _period_of(symbols)\n",
        "period = len(symbols)\n",
    ),
]


def run_tests(mutant=None):
    """Run tier-1 on a copy of ``src/``, with ``mutant`` applied; return
    pytest's exit code, its first failing test and the seconds it took."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            name, file, old, new = mutant
            path = src / "wordgraph" / file
            text = path.read_text()
            if text.count(old) != 1:
                sys.exit(f"{name}: old text occurs {text.count(old)} times in {file}")
            path.write_text(text.replace(old, new))
        began = time.perf_counter()
        run = subprocess.run(
            PYTEST,
            cwd=ROOT,
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
        )
        seconds = time.perf_counter() - began
    failed = [
        line.split(" - ")[0]
        for line in run.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    ]
    return run.returncode, (failed or [""])[0], seconds


def main():
    code, test, seconds = run_tests()
    print(f"unmutated: exit {code} in {seconds:.1f} s {test}", flush=True)
    if code != 0:
        sys.exit("the unmutated tests must pass")
    survivors = []
    for mutant in MUTANTS:
        code, test, seconds = run_tests(mutant)
        verdict = "killed" if code == 1 else "SURVIVED"
        print(f"{mutant[0]}: {verdict}, exit {code} in {seconds:.1f} s {test}", flush=True)
        if code != 1:
            survivors.append(mutant[0])
    if survivors:
        sys.exit(f"survived: {', '.join(survivors)}")


if __name__ == "__main__":
    main()
