"""Exploration of temporal graphs.

Two entry points answer the same question at different costs:

* ``schedule_explore`` realises a spanning visiting walk as a temporal walk by
  waiting at each vertex for the next activation of the walk's next edge. Its
  length is structurally bounded by 2(n-1)(B+1), where B is the minimum
  degree when every timestep is connected and the diameter otherwise,
  provided the lifetime is long enough.
* ``oracle_explore`` finds the exact optimum by shortest-path search over
  (visited set, current vertex) states; exponential in n, so it is guarded by
  a vertex limit. Where temporal twins shrink the state space enough, a
  search over twin classes first bounds each state's latest useful time,
  which prunes the search without changing its witness.

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
    partial schedule built so far, with ``visited_all`` False. An unknown
    start raises ``ValueError`` and a disconnected underlying graph
    ``DisconnectedGraphError``, both from ``spanning_walk``.
    """
    steps: list[Step] = []
    waits: list[int] = []
    now = 0
    for u, v in spanning_walk(tg.base, start):
        t = next_activation(tg, (u, v), now)
        if t is None:
            break
        waits.append(t - now - 1)
        steps.append(((u, v), t))
        now = t
    schedule = Schedule(start, tuple(steps))
    return ExplorationResult(
        schedule=schedule,
        visited_all=schedule.visited() == frozenset(tg.base.vertices),
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
    loses no optimum.

    Temporal twins (``_twin_classes``) prune the search when their quotient
    has at most 1/8 of its n * 2^n states: ``_TwinQuotient`` finds the
    optimum C* and, for each class state, the latest time L from which it
    can still finish by C*, and the search skips every push later than L
    of its class state. A skipped state has no completion by C*, and
    neither has any state reached from it. So every completable state keeps
    its best time, parent and heap position, and the first goal popped and
    its witness are those of the unpruned search. Below the 1/8 gate the
    quotient prunes too little to pay for itself: a single class of two
    leaves 3/4 of the states.

    Disconnected graphs are infeasible. Refuses more than ``vertex_limit``
    vertices, and limits above ``ORACLE_MAX_VERTICES``, since the state
    space is 2^n * n.
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

    index = {v: i for i, v in enumerate(vertices)}
    s0 = index[start]
    # A pushed state's class state is code + class, where code sums weight
    # over its visited vertices, and latest holds each class state's L.
    first = _twin_classes(tg)
    firsts = set(first)
    space = len(firsts)
    for i in firsts:
        space *= first.count(i) + 1
    if 8 * space <= n << n:
        quotient = _TwinQuotient(tg, first)
        solved = quotient.latest_times(s0, upper)
        if solved is None:
            return OracleResult(None, None)
        upper, latest = solved
        cls = quotient.cls
        weight = [quotient.strides[c] for c in cls]
    else:
        # One class of all vertices: code is the visited count, and L is
        # what the unvisited-count bound leaves of the upper bound.
        cls = [0] * n
        weight = [1] * n
        latest = [upper - n + visited for visited in range(n + 1)]

    # rows[i] lists (neighbour id, its bit, activation times, class, code
    # weight) in neighbour order, which is token order. The times end in
    # the sentinel upper + 1, later than every L.
    cap = upper + 1
    rows: list[list[tuple[int, int, tuple[int, ...], int, int]]] = [[] for _ in vertices]
    for (a, b), ts in tg._activation_times.items():
        i, j = index[a], index[b]
        ts += (cap,)
        rows[i].append((j, 1 << j, ts, cls[j], weight[j]))
        rows[j].append((i, 1 << i, ts, cls[i], weight[i]))
    for row in rows:
        row.sort()
    # States are keyed by mask << vb | vertex id, which orders them as
    # (mask, vertex). A heap entry packs (time + unvisited count, later time
    # first, key) into one int, ordered as that tuple, above the code of the
    # state's class state.
    vb = (n - 1).bit_length()
    vm = (1 << vb) - 1
    kb = n + vb
    km = (1 << kb) - 1
    tb = upper.bit_length()
    tm = (1 << tb) - 1
    cb = len(latest).bit_length()
    cm = (1 << cb) - 1
    tshift = cb + kb
    full = (1 << n) - 1
    start_key = (1 << s0) << vb | s0
    best = {start_key: 0}
    parent: dict[int, int] = {}
    heap = [(((n - 1) << tb | upper) << kb | start_key) << cb | weight[s0]]
    pop = heapq.heappop
    push = heapq.heappush
    while heap:
        entry = pop(heap)
        key = entry >> cb & km
        t = upper - (entry >> tshift & tm)
        if best[key] != t:
            continue
        mask = key >> vb
        if mask == full:
            break
        # Skip a state dominated by one at the same vertex, reached no later
        # with one more vertex visited: that state can wait here and copy any
        # continuation of this one. Its f is smaller, so it, or a state that
        # dominates it, was expanded first.
        rest = full ^ mask
        while rest:
            low = rest & -rest
            if best.get(key + (low << vb), t + 1) <= t:
                break
            rest ^= low
        if rest:
            continue
        code = entry & cm
        unvisited = n - mask.bit_count()
        for u, bit, ts, c, w in rows[key & vm]:
            t_next = ts[bisect_right(ts, t)]
            if mask & bit:
                f = t_next + unvisited
                next_code = code
            else:
                f = t_next + unvisited - 1
                next_code = code + w
            # L + unvisited <= upper, so this also drops f > upper.
            if t_next > latest[next_code + c]:
                continue
            state = (mask | bit) << vb | u
            if t_next < best.get(state, cap):
                best[state] = t_next
                parent[state] = key
                push(heap, (((f << tb | upper - t_next) << kb | state) << cb) | next_code)
    else:
        return OracleResult(None, None)

    steps: list[Step] = []
    while key != start_key:
        prev = parent[key]
        steps.append(((vertices[prev & vm], vertices[key & vm]), best[key]))
        key = prev
    steps.reverse()
    schedule = Schedule(start, tuple(steps))
    return OracleResult(schedule.length, schedule)


def _twin_classes(tg: TemporalGraph) -> list[int]:
    """The temporal twin class of each vertex id, named by its first member.

    Two vertices are temporal twins when they have the same open
    neighbourhood, or the same closed one (then they are adjacent), and the
    same ``letter_times``. Their incident edges then have equal activation
    times, so swapping them is an automorphism of the temporal graph. Equal
    neighbourhoods alone do not make twins, since different letter times
    give their edges different activation times. A vertex without twins is
    a class of its own.
    """
    vertices = tg.base.vertices
    opened = list(map(tg.base.adjacency.__getitem__, vertices))
    closed = list(map(frozenset.union, opened, zip(vertices)))
    # A dict built from a reversed list keeps each key's first vertex id.
    ids = range(len(vertices))[::-1]
    first_open = dict(zip(opened[::-1], ids))
    first_closed = dict(zip(closed[::-1], ids))
    # A vertex v with an open twin w has no closed twin x: x would be a
    # neighbour of w, so w would be in N[x] = N[v]. One of the two firsts
    # is therefore v itself, and the smaller one names its class.
    first = list(
        map(min, map(first_open.__getitem__, opened), map(first_closed.__getitem__, closed))
    )
    times = list(map(tg.letter_times.__getitem__, vertices))
    if list(map(times.__getitem__, first)) != times:
        keys = list(zip(first, times))
        first = list(map(dict(zip(keys[::-1], ids)).__getitem__, keys))
    return first


class _TwinQuotient:
    """The exploration search over twin classes (counter abstraction).

    A class state records how many members of each class are visited and
    the class of the current vertex. Every (visited set, vertex) state maps
    to one, and two states with the same class state are swapped by an
    automorphism, so they can finish by the same times. A class state is
    the sum of count * stride over the classes plus the current class, so
    there are k * prod(size + 1) of them for k classes.
    """

    def __init__(self, tg: TemporalGraph, first: list[int]):
        vertices = tg.base.vertices
        adjacency = tg.base.adjacency
        times = tg._activation_times
        members: dict[int, list[int]] = {}
        for i, f in enumerate(first):
            members.setdefault(f, []).append(i)
        k = len(members)
        number = {f: c for c, f in enumerate(members)}
        self.cls = [number[f] for f in first]
        self.classes = [
            (tuple(ids), len(ids) > 1 and vertices[ids[1]] in adjacency[vertices[ids[0]]])
            for ids in members.values()
        ]
        self.strides = []
        stride = k
        for ids, _ in self.classes:
            self.strides.append(stride)
            stride *= len(ids) + 1
        self.space = stride
        # links[c] holds (class, its stride, its size + 1, whether c is that
        # class, activation times) for every class joined to c by edges;
        # twins make the times equal over all those edges.
        reps = [vertices[ids[0]] for ids, _ in self.classes]
        self.links = []
        for c, rep in enumerate(reps):
            row = []
            for d, (ids, closed) in enumerate(self.classes):
                if c == d and closed:
                    other = vertices[ids[1]]
                elif c != d and reps[d] in adjacency[rep]:
                    other = reps[d]
                else:
                    continue
                ts = times[make_edge(rep, other)]
                row.append((d, self.strides[d], len(ids) + 1, c == d, ts))
            self.links.append(row)

    def moves(self, s: int) -> list[tuple[int, tuple[int, ...], bool]]:
        """(next class state, activation times, new visit) for each move
        from class state ``s``: to an unvisited member of a joined class, or
        to a visited member other than the current vertex."""
        c = s % len(self.links)
        code = s - c
        out = []
        for d, stride, cap, here, ts in self.links[c]:
            count = code // stride % cap
            if count < cap - 1:
                out.append((code + stride + d, ts, True))
            if count > here:
                out.append((code + d, ts, False))
        return out

    def latest_times(self, start: int, upper: int) -> tuple[int, list[int]] | None:
        """The optimum C* from vertex id ``start``, and the latest time L of
        every class state, or None when nothing visits every vertex by
        ``upper``.

        An A* over class states finds C*, then runs on until every state
        with f <= C* is settled at its earliest time e. A backward pass then
        takes those states in falling order of L: a goal has L = C*, and a
        move over activation times ts into a state with L = l gives its
        source ts[i - 1] - 1, one before the last activation <= l. A state
        that cannot finish by C* from its e keeps L = -1, as does every
        state outside the pass. Each L satisfies L + unvisited <= C*.
        """
        heappop, heappush = heapq.heappop, heapq.heappush
        c0 = self.cls[start]
        s0 = self.strides[c0] + c0
        best = {s0: 0}
        settled: dict[int, int] = {}
        preds: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
        goals = []
        bound = upper
        heap = [(len(self.cls) - 1, 0, s0)]
        while heap:
            f, t, s = heappop(heap)
            if f > bound:
                break
            if best[s] != t:
                continue
            settled[s] = t
            if f == t:
                bound = t
                goals.append(s)
                continue
            for s_next, ts, new in self.moves(s):
                if t >= ts[-1]:
                    continue
                t_next = ts[bisect_right(ts, t)]
                f_next = t_next + f - t - new
                # Only a move whose successor is reached within the bound
                # can give its source an L at or after its e.
                if f_next > bound:
                    continue
                preds.setdefault(s_next, []).append((s, ts))
                if t_next < best.get(s_next, bound + 1):
                    best[s_next] = t_next
                    heappush(heap, (f_next, t_next, s_next))
        if not goals:
            return None
        latest = [-1] * self.space
        for s in goals:
            latest[s] = bound
        heap = [(-bound, s) for s in sorted(goals)]
        while heap:
            neg_l, s = heappop(heap)
            if latest[s] != -neg_l:
                continue
            for p, ts in preds.get(s, ()):
                i = bisect_right(ts, -neg_l)
                if i and latest[p] < ts[i - 1] - 1 >= settled[p]:
                    latest[p] = ts[i - 1] - 1
                    heappush(heap, (1 - ts[i - 1], p))
        return bound, latest


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
