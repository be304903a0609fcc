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
on a temporal graph that no word yields. ``test_lemmas_reference.py::
test_foreign_base_probe`` builds such graphs, with a base graph that is not
the word's own, and compares every report with the slow references. It is
the probe that makes a fault in a violation path fail: it is the only test
that fails on ``letter-recurrence-gap`` and on
``interleaving-witness-spread``. The other probe of that module,
``test_non_greedy_start_points_probe``, is the first to fail on
``largest-gap-to-lifetime`` and ``union-windows-first-window``.

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
        "slack = 1 if word._period == len(word.symbols) else 0",
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
        "json-tail-keyed-by-first-letter",
        "formats.py",
        "tail = tails.get(factor)\n"
        "        if tail is None:\n"
        "            letters = sorted(set(factor))\n"
        "            edges = sorted(\n"
        "                {(v, u) if v < u else (u, v) for v in letters for u in adjacency[v]}\n"
        "            )\n"
        "            tail = tails[factor] = (",
        "tail = tails.get(factor[0])\n"
        "        if tail is None:\n"
        "            letters = sorted(set(factor))\n"
        "            edges = sorted(\n"
        "                {(v, u) if v < u else (u, v) for v in letters for u in adjacency[v]}\n"
        "            )\n"
        "            tail = tails[factor[0]] = (",
    ),
    (
        "twin-classes-ignore-letter-times",
        "explore.py",
        "if list(map(times.__getitem__, first)) != times:",
        "if False:",
    ),
    (
        "dominance-one-step-late",
        "explore.py",
        "if best.get(key + more, cap) <= t:",
        "if best.get(key + more, cap) <= t + 1:",
    ),
    (
        "largest-gap-to-lifetime",
        "temporal.py",
        "bounds = (0, *times, lifetime + 1)",
        "bounds = (0, *times, lifetime)",
    ),
    (
        "letter-recurrence-gap",
        "lemmas.py",
        "if tg.letter_gaps[v] > span:",
        "if tg.letter_gaps[v] > span + 1:",
    ),
    (
        "interleaving-witness-spread",
        "lemmas.py",
        "<= position <= chi_at(i + spread):",
        "<= position <= chi_at(i + spread + 1):",
    ),
    (
        "union-windows-first-window",
        "lemmas.py",
        "if a <= lifetime - dia - 1 and b > a + dia + 1",
        "if a <= lifetime - dia - 2 and b > a + dia + 1",
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
