"""Exploration of temporal graphs.

Two entry points answer the same question at different costs:

* ``schedule_explore`` realises a spanning visiting walk as a temporal walk by
  waiting at each vertex for the next activation of the walk's next edge. Its
  length is structurally bounded by 2(n-1)(B+1), where B is the minimum
  degree when every timestep is connected and the diameter otherwise,
  provided the lifetime is long enough.
* ``oracle_explore`` finds the exact optimum by one A* search over twin-class
  states: how many members of each class of temporal twins are visited, and
  the class of the current vertex. Twins are interchangeable, so the class
  path maps back to a walk on vertices. On a twin-free word these are the
  (visited set, current vertex) states; the search is exponential in n, so
  it stops with ``OracleBudgetError`` once it stores ``ORACLE_BUDGET``
  states.

The agent occupies its start vertex at time 0 and may move first at timestep
1; it traverses at most one edge per timestep, and waiting consumes
timesteps.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass

from .graphs import (
    DisconnectedGraphError,
    StaticGraph,
    diameter,
    is_connected,
    min_degree,
    neighbourhood_classes,
    spanning_walk,
)
from .temporal import TemporalGraph, next_activation
from .words import Symbol

Step = tuple[tuple[Symbol, Symbol], int]

# States oracle_explore may store, about 150 bytes each; n vertices give at
# most n * 2^n class states, so every word of up to 16 vertices fits.
ORACLE_BUDGET = 16 << 16


class OracleBudgetError(ValueError):
    """The oracle's search stored more than ``ORACLE_BUDGET`` states."""


@dataclass(frozen=True)
class Schedule:
    """A temporal walk: directed (edge, timestep) steps with rising timesteps.

    ``length`` is the timestep of the final step, 0 for the empty schedule.
    """

    start: Symbol
    steps: tuple[Step, ...] = ()

    @property
    def length(self) -> int:
        return self.steps[-1][1] if self.steps else 0

    def visited(self) -> frozenset[Symbol]:
        out = {self.start}
        for (u, v), _ in self.steps:
            out.add(u)
            out.add(v)
        return frozenset(out)


@dataclass(frozen=True)
class ExplorationResult:
    schedule: Schedule
    visited_all: bool
    waits: tuple[int, ...]


@dataclass(frozen=True)
class ScheduleViolation:
    """First condition a schedule breaks; ``step`` is 1-based, None for
    whole-schedule conditions."""

    kind: str
    step: int | None
    message: str


@dataclass(frozen=True)
class OracleResult:
    schedule: Schedule | None

    @property
    def length(self) -> int | None:
        return None if self.schedule is None else self.schedule.length

    @property
    def feasible(self) -> bool:
        return self.schedule is not None


def schedule_explore(tg: TemporalGraph, start: Symbol) -> ExplorationResult:
    """Follow a spanning visiting walk, waiting for each edge to activate.

    Returns a complete schedule whenever the lifetime suffices; otherwise the
    partial schedule built so far, with ``visited_all`` False. An unknown
    start raises ``ValueError`` and a disconnected underlying graph
    ``DisconnectedGraphError``, both from ``spanning_walk``.
    """
    steps: list[Step] = []
    waits: list[int] = []
    now = 0
    walk = spanning_walk(tg.base, start)
    for u, v in walk:
        t = next_activation(tg, (u, v), now)
        if t is None:
            break
        waits.append(t - now - 1)
        steps.append(((u, v), t))
        now = t
    # The walk ends at its last first-visit: only a full schedule visits all.
    return ExplorationResult(
        schedule=Schedule(start, tuple(steps)),
        visited_all=len(steps) == len(walk),
        waits=tuple(waits),
    )


def validate_schedule(tg: TemporalGraph, schedule: Schedule) -> ScheduleViolation | None:
    """Check a schedule against the temporal graph; None means it is valid.

    Conditions, in reporting order per step: timesteps strictly increase, the
    walk chains from the start vertex, the timestep is within the lifetime,
    the edge exists in the underlying graph and is active at its timestep.
    Finally the schedule must visit every vertex.
    """
    previous_t = 0
    position = schedule.start
    for index, ((u, v), t) in enumerate(schedule.steps, start=1):
        if t <= previous_t:
            return ScheduleViolation(
                "timesteps-not-increasing",
                index,
                f"step {index} at t={t} does not follow t={previous_t}",
            )
        if u != position:
            return ScheduleViolation(
                "broken-walk",
                index,
                f"step {index} leaves {u} but the agent is at {position}",
            )
        if not 1 <= t <= tg.lifetime:
            return ScheduleViolation(
                "timestep-out-of-range",
                index,
                f"step {index} at t={t} outside [1, {tg.lifetime}]",
            )
        try:
            active = next_activation(tg, (u, v), t - 1)
        except ValueError as error:
            return ScheduleViolation("unknown-edge", index, f"step {index}: {error}")
        if active != t:
            return ScheduleViolation(
                "edge-inactive",
                index,
                f"step {index}: edge ({u}, {v}) is inactive at t={t}",
            )
        previous_t = t
        position = v
    missing = frozenset(tg.base.vertices) - schedule.visited()
    if missing:
        names = ", ".join(sorted(missing))
        return ScheduleViolation(
            "incomplete-coverage", None, f"schedule never visits: {names}"
        )
    return None


def oracle_explore(tg: TemporalGraph, start: Symbol) -> OracleResult:
    """Exact minimum exploration length from ``start``, with a witness.

    A* over class states with arrival time as cost. Temporal twins
    (``_twin_classes``) are interchangeable, so a class state records only
    how many members of each twin class are visited and the class of the
    current vertex; two walks with the same class state are swapped by an
    automorphism and can finish by the same times. This is counter
    abstraction for symmetric systems (Emerson & Sistla, "Symmetry and
    model checking", FMSD 1996; Ip & Dill, "Better verification through
    symmetry", FMSD 1996). On a twin-free word every class is one vertex,
    and a class state is a (visited set, current vertex) state.

    A move from class c to a joined class d takes the next activation of
    their link, and visits either a new member of d or a visited one other
    than the current vertex. Each move costs at least one timestep and
    visits at most one new vertex, so the unvisited count is a consistent
    lower bound on the time still needed, and the first complete state
    popped is optimal. A completed ``schedule_explore`` run is an upper
    bound, returned as is when it meets the lower bound ``n - 1``; without
    one the lifetime is the upper bound. No move is taken after it, so
    letter times are read by ``TemporalGraph._times`` up to its end and
    over one cycle of the timeline, never filling ``letter_times``. A
    popped state is skipped when the state with one more member of some
    class visited, in the same current class, was reached no later, which
    loses no optimum.

    The witness maps the class path to vertices: a new visit to class d
    takes d's lowest-id unvisited member, a revisit d's lowest-id visited
    member other than the current vertex, each at the link's activation
    time. Vertex ids follow token order, and classes the order of their
    first members; the class order lays out the state keys, and so decides
    which of several optimal walks is the witness.

    Disconnected graphs are infeasible. The search raises
    ``OracleBudgetError`` when it is about to expand a state while storing
    more than ``ORACLE_BUDGET`` states; the budget is read once per
    expansion, so at most one expansion's moves lie beyond it.
    """
    graph = tg.base
    graph.require_vertex(start)
    vertices = graph.vertices
    n = len(vertices)
    if n == 1:
        return OracleResult(Schedule(start))
    try:
        scheduled = schedule_explore(tg, start)
    except DisconnectedGraphError:
        return OracleResult(None)
    upper = scheduled.schedule.length if scheduled.visited_all else tg.lifetime
    if scheduled.visited_all and upper == n - 1:
        return OracleResult(scheduled.schedule)

    # Letter times over one cycle of the timeline, which decides the twin
    # classes, and through the end of timestep upper, the last a move takes.
    times = tg._times(upper)
    groups = _twin_classes(graph, times)
    cls = {vertices[i]: c for c, group in enumerate(groups) for i in group}
    # A state is keyed by the current class in its low cb bits, and above
    # them one bit field per class, in class order, holding its visited
    # count plus a bias that makes a fully visited class read all ones. So
    # the fields left to visit are the set bits of done ^ key >> cb, and a
    # twin-free word's key is its visited mask above its vertex id.
    cb = (len(groups) - 1).bit_length()
    cm = (1 << cb) - 1
    unit, field, bias = [], [], []
    # owner[p] is (unit, the bits below the field) of the field holding
    # bit p - 1 of the counts.
    owner: list[tuple[int, int]] = [(0, 0)]
    for group in groups:
        width = len(group).bit_length()
        offset = len(owner) - 1
        unit.append(1 << cb + offset)
        field.append(((1 << width) - 1) << cb + offset)
        bias.append(((1 << width) - 1 - len(group)) << cb + offset)
        owner += [(unit[-1], (1 << offset) - 1)] * width
    kb = cb + len(owner) - 1
    km = (1 << kb) - 1
    done = km >> cb
    c0 = cls[start]
    start_key = sum(bias) + unit[c0] | c0

    # links[c] lists (class d, its unit and field, the count a revisit must
    # exceed, activation times) for each class d joined to c; twins make
    # every edge between two classes share its times, kept up to upper and
    # then the sentinel upper + 1. Each move of an expansion reaches its own
    # state, so the order of a row does not affect the search.
    cap = upper + 1
    links: list[list[tuple[int, int, int, int, tuple[int, ...]]]] = []
    for c, group in enumerate(groups):
        a = vertices[group[0]]
        row = {}
        for b in graph.adjacency[a]:
            d = cls[b]
            if d not in row:
                ts = sorted({*times[a], *times[b]})
                ts = (*ts[: bisect_right(ts, upper)], cap)
                row[d] = (d, unit[d], field[d], bias[d] + (unit[d] if d == c else 0), ts)
        links.append(list(row.values()))

    # A heap entry packs (time + unvisited count, later time first, key)
    # into one int, ordered as that tuple.
    tb = upper.bit_length()
    tm = (1 << tb) - 1
    tshift = kb + tb
    best = {start_key: 0}
    parent: dict[int, int] = {}
    heap = [((n - 1) << tb | upper) << kb | start_key]
    pop = heapq.heappop
    push = heapq.heappush
    while heap:
        entry = pop(heap)
        key = entry & km
        t = upper - (entry >> kb & tm)
        if best[key] != t:
            continue
        if key >> cb == done:
            break
        # Skip a state dominated by one in the same class, reached no later
        # with one more member of some class visited: by symmetry that state
        # can wait here and copy any continuation of this one. Its f is
        # smaller, so it, or a state that dominates it, was expanded first.
        rest = done ^ key >> cb
        while rest:
            more, below = owner[rest.bit_length()]
            if best.get(key + more, cap) <= t:
                break
            rest &= below
        if rest:
            continue
        if len(best) > ORACLE_BUDGET:
            raise OracleBudgetError(
                f"oracle stopped: {len(best)} states stored on {n} vertices "
                f"exceed the budget of {ORACLE_BUDGET}"
            )
        unvisited = (entry >> tshift) - t
        base = key & ~cm
        for d, more, bits, least, ts in links[key & cm]:
            t_next = ts[bisect_right(ts, t)]
            count = key & bits
            # A new visit, when d has an unvisited member.
            if count != bits:
                f = t_next + unvisited - 1
                state = base + more | d
                if f <= upper and t_next < best.get(state, cap):
                    best[state] = t_next
                    parent[state] = key
                    push(heap, (f << tb | upper - t_next) << kb | state)
            # A revisit, when d has a visited member other than the current
            # vertex.
            if count > least:
                f = t_next + unvisited
                state = base | d
                if f <= upper and t_next < best.get(state, cap):
                    best[state] = t_next
                    parent[state] = key
                    push(heap, (f << tb | upper - t_next) << kb | state)
    else:
        return OracleResult(None)

    path = []
    while key != start_key:
        path.append(key)
        key = parent[key]
    here = vertices.index(start)
    visited = {here}
    steps: list[Step] = []
    for key in reversed(path):
        group = groups[key & cm]
        if key >> cb != parent[key] >> cb:
            u = next(i for i in group if i not in visited)
            visited.add(u)
        else:
            u = next(i for i in group if i in visited and i != here)
        steps.append(((vertices[here], vertices[u]), best[key]))
        here = u
    return OracleResult(Schedule(start, tuple(steps)))


def _twin_classes(graph: StaticGraph, times: dict[Symbol, tuple[int, ...]]) -> list[list[int]]:
    """The vertex ids grouped into temporal twin classes, in order of first
    member.

    Two vertices are temporal twins when they share a class of
    ``neighbourhood_classes`` (the same open or closed neighbourhood) and
    the same letter times. Their incident edges then have equal activation
    times, so swapping them is an automorphism of the temporal graph. Equal
    neighbourhoods alone do not make twins, since different letter times
    give their edges different activation times. A vertex without twins is
    a class of its own. Each layer of a layered word is one class of open
    twins; a permutation power of K_n is one class of closed twins, and so
    is a symbol x together with copies that follow every x. ``times`` may
    be ``TemporalGraph._times(t)`` for any t: letter times equal over one
    cycle of the timeline are equal everywhere, since later copies repeat
    that cycle's timesteps, shifted.
    """
    vertices = graph.vertices
    split: dict[tuple, list[int]] = {}
    for c, group in enumerate(neighbourhood_classes(graph)):
        for i in group:
            split.setdefault((c, times[vertices[i]]), []).append(i)
    return sorted(split.values())


def exploration_bound(tg: TemporalGraph) -> tuple[int, int]:
    """(headline bound, structural bound) for the walk-following scheduler.

    B is the minimum degree when ``tg.always_connected`` holds, else the
    diameter. The headline figure is 2*B*n; the bound the construction
    literally guarantees is 2(n-1)(B+1), counting at most B+1 timesteps per
    walk edge.
    """
    graph = tg.base
    if not is_connected(graph):
        raise DisconnectedGraphError(
            "exploration bounds are undefined: underlying graph is disconnected"
        )
    n = len(graph.vertices)
    bound_base = min_degree(graph) if tg.always_connected else diameter(graph)
    return 2 * bound_base * n, 2 * (n - 1) * (bound_base + 1)
