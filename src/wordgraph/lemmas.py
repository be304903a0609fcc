"""Mechanical checkers for the structural guarantees of word-built temporal
graphs.

Each checker takes a temporal graph and returns a LemmaReport: either the
preconditions did not hold (not applicable, vacuously passing, with a note),
or the property was checked everywhere it is quantified and any violations
are listed with concrete witnesses. The properties are theorems of the
construction, so a violation on any input means an implementation bug; the
checkers exist to make that falsifiable on arbitrary inputs.

Checker ids, their claims, and their witness tuples:

* letter-recurrence (always-connected only): every symbol occurs in every
  window of degree(v)+1 consecutive factors that fits inside the lifetime.
  Witness: (token, window_start).
* edge-recurrence (always-connected only): every underlying edge is active in
  every window of delta+1 consecutive timesteps (delta = minimum degree), and
  in every window of min(deg(u), deg(v))+1 timesteps.
  Witness: (window_kind, u, v, window_start).
* occurrence-balance (connected underlying only): occurrence counts of any
  two symbols differ by at most their distance.
  Witness: (x, y, count_x, count_y, distance).
* interleaving (connected underlying only): for symbols x, y at distance d',
  the i-th occurrence position of y lies between the (i-d')-th and (i+d')-th
  occurrence positions of x, out-of-range indices meaning -inf/+inf.
  Witness: (x, y, i).
* union-windows (connected underlying only): (a) the first d timestep edge
  sets union to the underlying edge set, d the diameter; (b) an edge active
  at t <= T-d-1 is active again within [t+1, t+d+1]; (c) every window of d+1
  consecutive timesteps unions to the underlying edge set. Windows that do
  not fit inside the lifetime are skipped and noted. Witnesses of (a) are in
  edge order, of (b) and (c) in (t, u, v) order.
  Witness: ("first-window", u, v) | ("reactivation", u, v, t)
  | ("window-union", t, u, v).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import le

from .graphs import _bfs_distances, diameter, is_connected, min_degree
from .temporal import TemporalGraph

LETTER_RECURRENCE = "letter-recurrence"
EDGE_RECURRENCE = "edge-recurrence"
OCCURRENCE_BALANCE = "occurrence-balance"
INTERLEAVING = "interleaving"
UNION_WINDOWS = "union-windows"


@dataclass(frozen=True)
class LemmaReport:
    lemma_id: str
    applicable: bool
    violations: tuple[tuple, ...] = ()
    notes: str = ""

    def __post_init__(self) -> None:
        if not self.applicable and self.violations:
            raise ValueError("inapplicable reports pass vacuously, without witnesses")

    @property
    def passed(self) -> bool:
        return not self.violations


# A checker whose connectivity precondition fails reports the same thing on
# every input, and reports are frozen with immutable fields, so these are
# built once and shared.
_UNMET = {
    lemma: LemmaReport(lemma, False, notes=note)
    for lemma, note in (
        (LETTER_RECURRENCE, "not connected in every timestep"),
        (EDGE_RECURRENCE, "not connected in every timestep"),
        (OCCURRENCE_BALANCE, "underlying graph is disconnected"),
        (INTERLEAVING, "underlying graph is disconnected"),
        (UNION_WINDOWS, "underlying graph is disconnected"),
    )
}


def _uncovered_windows(times: tuple[int, ...], size: int, lifetime: int):
    """Pairs (a, t), t ascending, for the windows [t, t+size-1] inside
    [1, lifetime] that hold none of the increasing ``times``: a is the last
    of ``times`` before t, or 0 when there is none. There are none unless
    a step of (0, *times, lifetime + 1) exceeds ``size``."""
    last = lifetime - size + 1
    bounds = (0, *times, lifetime + 1)
    for a, b in zip(bounds, bounds[1:]):
        for t in range(a + 1, min(b - size, last) + 1):
            yield a, t


def _gapped_edges(tg: TemporalGraph, size: int):
    """Triples (u, v, times), in edge order, for the edges whose activation
    times leave some window of ``size`` timesteps uncovered. An edge's times
    contain each endpoint's letter times, so both endpoints' letter gaps
    must exceed ``size`` too, and so must ``_gap_bound``, read first."""
    if tg._gap_bound <= size:
        return
    gaps = tg.letter_gaps
    lifetime = tg.lifetime
    wide = [(u, v) for u, v in tg.base.edges if gaps[u] > size and gaps[v] > size]
    for u, v in sorted(wide):
        times = tg.activation_times(u, v)
        if any(_uncovered_windows(times, size, lifetime)):
            yield u, v, times


def check_letter_recurrence(tg: TemporalGraph) -> LemmaReport:
    """Every symbol recurs within any degree(v)+1 consecutive factors."""
    if not tg.always_connected:
        return _UNMET[LETTER_RECURRENCE]
    lifetime = tg.lifetime
    bound = tg._gap_bound
    violations: list[tuple] = []
    unfit: list[str] = []
    for v in tg.base.vertices:
        span = len(tg.base.adjacency[v]) + 1
        if lifetime - span + 1 < 1:
            unfit.append(v.token)
            continue
        if bound > span and tg.letter_gaps[v] > span:
            for _, t in _uncovered_windows(tg.letter_times[v], span, lifetime):
                violations.append((v.token, t))
    notes = ""
    if unfit:
        notes = "windows exceed the lifetime for: " + ", ".join(sorted(unfit))
    return LemmaReport(LETTER_RECURRENCE, True, tuple(violations), notes)


def check_edge_recurrence(tg: TemporalGraph) -> LemmaReport:
    """Every edge recurs within delta+1 timesteps, and within
    min(deg(u), deg(v))+1 timesteps."""
    if not tg.always_connected:
        return _UNMET[EDGE_RECURRENCE]
    lifetime = tg.lifetime
    if not tg.base.edges:
        return LemmaReport(EDGE_RECURRENCE, True, notes="no edges to check")
    delta = min_degree(tg.base)
    violations: list[tuple] = []
    # delta <= local, so an edge without an uncovered delta-window has no
    # uncovered window of either kind.
    for u, v, times in _gapped_edges(tg, delta + 1):
        local = min(len(tg.base.adjacency[u]), len(tg.base.adjacency[v]))
        for kind, gap in (("delta-window", delta), ("min-degree-window", local)):
            for _, t in _uncovered_windows(times, gap + 1, lifetime):
                violations.append((kind, u.token, v.token, t))
    # delta <= local for every edge, so some window fits exactly when a
    # delta-window does.
    notes = "" if lifetime > delta else "no window fits inside the lifetime"
    return LemmaReport(EDGE_RECURRENCE, True, tuple(violations), notes)


def check_occurrence_balance(tg: TemporalGraph) -> LemmaReport:
    """Occurrence counts of two symbols differ by at most their distance."""
    if not is_connected(tg.base):
        return _UNMET[OCCURRENCE_BALANCE]
    # A power u^k holds each letter k times as often as u does.
    word = tg.word
    counts = {v: word.copies * len(ps) for v, ps in word._root_occurrences.items()}
    # Counts within 1 on every edge bound |count x - count y| by the length
    # of a shortest x-y path, which is their distance (triangle inequality).
    if all(abs(counts[u] - counts[v]) <= 1 for u, v in tg.base.edges):
        return LemmaReport(OCCURRENCE_BALANCE, True)
    violations: list[tuple] = []
    vertices = tg.base.vertices
    for i, x in enumerate(vertices):
        distance = _bfs_distances(tg.base, x)
        for y in vertices[i + 1 :]:
            gap = abs(counts[x] - counts[y])
            if gap > distance[y]:
                violations.append((x.token, y.token, counts[x], counts[y], distance[y]))
    return LemmaReport(OCCURRENCE_BALANCE, True, tuple(violations))


def _interleaved(chi: tuple[int, ...], psi: tuple[int, ...], spread: int) -> bool:
    """Every rank i of ``psi`` lies between ranks i - spread and i + spread
    of ``chi``, out-of-range ranks meaning -inf and +inf.

    No rank i - spread may pass chi's last (that bound is +inf); then it
    suffices that chi and psi, offset by spread, are ordered both ways."""
    return (
        len(psi) - spread <= len(chi)
        and all(map(le, chi, psi[spread:]))
        and all(map(le, psi, chi[spread:]))
    )


def check_interleaving(tg: TemporalGraph) -> LemmaReport:
    """Occurrences of symbols at distance d' stay within d' occurrence ranks
    of each other."""
    if not is_connected(tg.base):
        return _UNMET[INTERLEAVING]
    # Edges certify every pair. The spread-1 condition in both directions
    # on an edge (a, b) makes the same two slice comparisons either way, so
    # it is one ``_interleaved`` call plus both count guards,
    # |len a - len b| <= 1. With ranks out of range read as -inf and +inf,
    # it gives a_at(j) <= b_at(j+1) and b_at(j-1) <= a_at(j) for every
    # integer j: inside the ranks that is the spread-1 condition, and past
    # them the count guards make +inf meet +inf. Chaining these along a
    # shortest path from x to y, s edges long, gives
    # chi_at(i-s) <= psi[i] <= chi_at(i+s), the condition at distance s.
    # In a proper power u^k, counts that differ in u differ by k >= 2 in
    # the word, and with equal counts every comparison across a copy
    # boundary holds, so the certificate is read on one copy of u.
    word = tg.word
    roots = word._root_occurrences
    slack = 1 if word.copies == 1 else 0
    if all(
        abs(len(roots[u]) - len(roots[v])) <= slack and _interleaved(roots[u], roots[v], 1)
        for u, v in tg.base.edges
    ):
        return LemmaReport(INTERLEAVING, True)
    occurrences = word.occurrences
    violations: list[tuple] = []
    for x in tg.base.vertices:
        chi = occurrences[x]
        distance = _bfs_distances(tg.base, x)

        def chi_at(rank: int) -> float:
            if rank < 1:
                return float("-inf")
            if rank > len(chi):
                return float("inf")
            return chi[rank - 1]

        for y in tg.base.vertices:
            if x == y:
                continue
            spread = distance[y]
            psi = occurrences[y]
            # Only a failing pair is walked rank by rank, so witnesses keep
            # their order.
            if _interleaved(chi, psi, spread):
                continue
            for i, position in enumerate(psi, start=1):
                if not chi_at(i - spread) <= position <= chi_at(i + spread):
                    violations.append((x.token, y.token, i))
    return LemmaReport(INTERLEAVING, True, tuple(violations))


def check_union_windows(tg: TemporalGraph) -> LemmaReport:
    """Diameter-sized windows of timesteps jointly activate every edge."""
    if not is_connected(tg.base):
        return _UNMET[UNION_WINDOWS]
    lifetime = tg.lifetime
    dia = diameter(tg.base)
    violations: list[tuple] = []
    skipped: list[str] = []

    if dia <= lifetime:
        # A vertex is first a letter after timestep dia exactly when it
        # first occurs at or after the start of timestep dia + 1. The root's
        # occurrences are keyed in first-occurrence order, so none does
        # unless the last key does.
        roots = tg.word._root_occurrences
        bound = tg.start_points[dia] if dia < lifetime else len(tg.word) + 1
        if next(reversed(roots.values()))[0] >= bound:
            for u, v in sorted(tg.base.edges):
                if roots[u][0] >= bound and roots[v][0] >= bound:
                    violations.append(("first-window", u.token, v.token))
    else:
        skipped.append("first-window")

    # (b) fires at an activation a <= T-dia-1 exactly when the window
    # [a+1, a+dia+1], which fits inside the lifetime, holds no activation:
    # that is the first uncovered window (c) finds after a. Neither fires
    # where no window fits.
    late: list[tuple] = []
    uncovered: list[tuple] = []
    for u, v, times in _gapped_edges(tg, dia + 1):
        for a, t in _uncovered_windows(times, dia + 1, lifetime):
            if a and t == a + 1:
                late.append((a, u, v))
            uncovered.append((t, u, v))
    if lifetime - dia - 1 < 1:
        skipped.append("reactivation")
    if lifetime - dia < 1:
        skipped.append("window-union")
    violations += [("reactivation", u.token, v.token, a) for a, u, v in sorted(late)]
    violations += [("window-union", t, u.token, v.token) for t, u, v in sorted(uncovered)]

    if len(skipped) == 3:
        note = f"diameter {dia} exceeds lifetime {lifetime}: no window fits"
        return LemmaReport(UNION_WINDOWS, False, notes=note)
    notes = ""
    if skipped:
        notes = "skipped (window does not fit): " + ", ".join(skipped)
    return LemmaReport(UNION_WINDOWS, True, tuple(violations), notes)


CHECKS = {
    LETTER_RECURRENCE: check_letter_recurrence,
    EDGE_RECURRENCE: check_edge_recurrence,
    OCCURRENCE_BALANCE: check_occurrence_balance,
    INTERLEAVING: check_interleaving,
    UNION_WINDOWS: check_union_windows,
}


def run_all(tg: TemporalGraph) -> list[LemmaReport]:
    """Run every checker; never raises on any well-formed temporal graph."""
    return [check(tg) for check in CHECKS.values()]
