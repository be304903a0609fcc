"""Exploration of temporal graphs.

Two entry points answer the same question at different costs:

* ``schedule_explore`` realises a spanning visiting walk as a temporal walk by
  waiting at each vertex for the next activation of the walk's next edge. Its
  length is structurally bounded by 2(n-1)(B+1), where B is the minimum
  degree (always-connected mode) or the diameter (general mode), provided the
  lifetime is long enough.
* ``oracle_explore`` finds the exact optimum by shortest-path search over
  (visited set, current vertex) states; exponential in n, so it is guarded by
  a vertex limit.

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
    diameter,
    is_connected,
    make_edge,
    min_degree,
    spanning_walk,
)
from .temporal import TemporalGraph, is_edge_active, next_activation
from .words import Symbol

Step = tuple[tuple[Symbol, Symbol], int]

# Largest vertex_limit oracle_explore accepts; its search holds up to 2^n * n states.
ORACLE_MAX_VERTICES = 16


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
    length: int | None
    schedule: Schedule | None

    @property
    def feasible(self) -> bool:
        return self.schedule is not None


def schedule_explore(tg: TemporalGraph, start: Symbol) -> ExplorationResult:
    """Follow a spanning visiting walk, waiting for each edge to activate.

    Returns a complete schedule whenever the lifetime suffices; otherwise the
    partial schedule built so far, with ``visited_all`` False.
    """
    graph = tg.base
    graph.require_vertex(start)
    if not is_connected(graph):
        raise DisconnectedGraphError(
            "temporal graph is not explorable: underlying graph is disconnected"
        )
    steps: list[Step] = []
    waits: list[int] = []
    now = 0
    for u, v in spanning_walk(graph, start):
        t = next_activation(tg, (u, v), now)
        if t is None:
            partial = Schedule(start, tuple(steps))
            return ExplorationResult(
                schedule=partial,
                visited_all=partial.visited() == frozenset(graph.vertices),
                waits=tuple(waits),
            )
        waits.append(t - now - 1)
        steps.append(((u, v), t))
        now = t
    schedule = Schedule(start, tuple(steps))
    return ExplorationResult(
        schedule=schedule,
        visited_all=schedule.visited() == frozenset(graph.vertices),
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
            edge = make_edge(u, v)
        except ValueError:
            return ScheduleViolation("unknown-edge", index, f"step {index} is a self-loop")
        if edge not in tg.base.edges:
            return ScheduleViolation(
                "unknown-edge",
                index,
                f"step {index} uses ({u}, {v}), not an underlying edge",
            )
        if not is_edge_active(tg, edge, t):
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


def oracle_explore(
    tg: TemporalGraph, start: Symbol, vertex_limit: int = 15
) -> OracleResult:
    """Exact minimum exploration length from ``start``, with a witness.

    A* over (visited set, current vertex) states with arrival time as cost;
    transitions take the next activation of each incident edge. Each move
    costs at least one timestep and visits at most one new vertex, so the
    unvisited count is a consistent lower bound on the time still needed.
    A completed ``schedule_explore`` run is an upper bound, returned as is
    when it meets the lower bound ``n - 1``. A popped state is skipped when
    its vertex was reached no later with one more vertex visited, which
    loses no optimum. Disconnected graphs are infeasible. Refuses more than
    ``vertex_limit`` vertices, and limits above ``ORACLE_MAX_VERTICES``,
    since the state space is 2^n * n.
    """
    if vertex_limit > ORACLE_MAX_VERTICES:
        raise ValueError(
            f"oracle refused: a vertex limit of {vertex_limit} exceeds the "
            f"maximum of {ORACLE_MAX_VERTICES}"
        )
    graph = tg.base
    graph.require_vertex(start)
    vertices = graph.vertices
    n = len(vertices)
    if n > vertex_limit:
        raise ValueError(
            f"oracle refused: {n} vertices exceeds the limit of {vertex_limit}"
        )
    if n == 1:
        return OracleResult(0, Schedule(start))
    try:
        scheduled = schedule_explore(tg, start)
    except DisconnectedGraphError:
        return OracleResult(None, None)
    upper = scheduled.schedule.length if scheduled.visited_all else tg.lifetime
    if scheduled.visited_all and upper == n - 1:
        return OracleResult(upper, scheduled.schedule)

    # Vertex ids follow token order, so each row lists (neighbour id, its
    # bit, activation times) in token order.
    index = {v: i for i, v in enumerate(vertices)}
    times = tg._activation_times
    rows = [
        [
            (index[u], 1 << index[u], times[make_edge(v, u)])
            for u in sorted(graph.adjacency[v])
        ]
        for v in vertices
    ]
    full = (1 << n) - 1
    start_key = (1 << index[start]) * n + index[start]
    # States are keyed by mask * n + vertex id; the heap orders them by
    # (time + unvisited count, later time first, key).
    best = {start_key: 0}
    parent: dict[int, int] = {}
    heap = [(n - 1, 0, start_key)]
    while heap:
        _, neg_t, key = heapq.heappop(heap)
        t = -neg_t
        if best[key] != t:
            continue
        mask, v = divmod(key, n)
        if mask == full:
            break
        # Skip a state dominated by one at the same vertex, reached no later
        # with one more vertex visited: that state can wait here and copy any
        # continuation of this one. Its f is smaller, so it, or a state that
        # dominates it, was expanded first.
        rest = full ^ mask
        while rest:
            low = rest & -rest
            if best.get(key + low * n, t + 1) <= t:
                break
            rest ^= low
        if rest:
            continue
        unvisited = n - mask.bit_count()
        for u, bit, ts in rows[v]:
            if t >= ts[-1]:
                continue
            t_next = ts[bisect_right(ts, t)]
            f = t_next + (unvisited if mask & bit else unvisited - 1)
            if f > upper:
                continue
            state = (mask | bit) * n + u
            if t_next < best.get(state, upper + 1):
                best[state] = t_next
                parent[state] = key
                heapq.heappush(heap, (f, -t_next, state))
    else:
        return OracleResult(None, None)

    steps: list[Step] = []
    while key != start_key:
        prev = parent[key]
        steps.append(((vertices[prev % n], vertices[key % n]), best[key]))
        key = prev
    steps.reverse()
    schedule = Schedule(start, tuple(steps))
    return OracleResult(schedule.length, schedule)


def exploration_bound(tg: TemporalGraph, mode: str = "auto") -> tuple[int, int]:
    """(headline bound, structural bound) for the walk-following scheduler.

    Always-connected mode uses B = minimum degree, general mode B = diameter;
    ``mode`` is "always-connected", "general", or "auto", which picks
    always-connected mode exactly when ``tg.always_connected`` holds.
    The headline figure is 2*B*n; the bound the construction literally
    guarantees is 2(n-1)(B+1), counting at most B+1 timesteps per walk edge.
    """
    graph = tg.base
    if not is_connected(graph):
        raise DisconnectedGraphError(
            "exploration bounds are undefined: underlying graph is disconnected"
        )
    if mode == "auto":
        mode = "always-connected" if tg.always_connected else "general"
    elif mode not in ("always-connected", "general"):
        raise ValueError(f"unknown mode: {mode!r}")
    n = len(graph.vertices)
    bound_base = min_degree(graph) if mode == "always-connected" else diameter(graph)
    return 2 * bound_base * n, 2 * (n - 1) * (bound_base + 1)
