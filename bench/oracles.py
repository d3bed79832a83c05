"""Answer checks that share no code with causalplan.

Every figure here comes from a hand-written transition model of the
benchmark's domains: a Hanoi simulator, a joint breadth-first search for
two robots on a grid, and a search over robot, box and holding states.
The package's parser, grounder, compiler and solver are never called, so
a wrong answer from the program cannot also be the expected answer.
States are plain dicts keyed by (fluent name, argument tuple), the shape
causalplan's trajectories have.
"""

from __future__ import annotations

from collections import deque

DIRECTIONS = {"up": (0, -1), "down": (0, 1), "left": (-1, 0), "right": (1, 0)}


# --- grids ---------------------------------------------------------------------

def grid_free(rows: list[str]) -> set[tuple[int, int]]:
    return {(x, y) for y, row in enumerate(rows) for x, ch in enumerate(row) if ch != "#"}


def grid_distances(free: set[tuple[int, int]], start: tuple[int, int]) -> dict:
    """4-neighbour BFS distances from start over the free cells."""
    dist = {start: 0}
    queue = deque([start])
    while queue:
        x, y = queue.popleft()
        for dx, dy in DIRECTIONS.values():
            nxt = (x + dx, y + dy)
            if nxt in free and nxt not in dist:
                dist[nxt] = dist[(x, y)] + 1
                queue.append(nxt)
    return dist


def landmark_distances(free, cells: dict[str, tuple[int, int]]) -> dict:
    """(src, dst) -> shortest path length, for every connected landmark pair."""
    out = {}
    for src, cell in cells.items():
        dist = grid_distances(free, cell)
        for dst, other in cells.items():
            if other in dist:
                out[(src, dst)] = dist[other]
    return out


# --- Tower of Hanoi ------------------------------------------------------------

def check_hanoi(plan, num_disks: int) -> str | None:
    """Replay a plan move by move.  Returns a complaint or None.

    Disk D1 is the smallest; on(d) names the peg or larger disk that d
    rests on.  Only a disk with nothing on it moves, and only onto a peg
    or a larger disk that has nothing on it."""
    disks = [f"D{i}" for i in range(1, num_disks + 1)]
    size = {d: i for i, d in enumerate(disks, 1)}

    def tower(peg):
        on = {disks[-1]: peg}
        for small, big in zip(disks, disks[1:]):
            on[small] = big
        return on

    on = tower("P1")
    goal = tower("P3")
    want = 2 ** num_disks - 1
    if len(plan.steps) != want:
        return f"plan has {len(plan.steps)} steps, the optimum is {want}"
    if len(plan.trajectory) != len(plan.steps) + 1:
        return "trajectory length does not match the steps"

    def as_state(on_map):
        return {("on", (d,)): on_map[d] for d in disks}

    if plan.trajectory[0] != as_state(on):
        return "state 0 is not the initial tower"
    for t, step in enumerate(plan.steps):
        if len(step) != 1 or step[0][0] != "move" or len(step[0][1]) != 2:
            return f"step {t} is not a single move: {step}"
        d, dest = step[0][1]
        if d not in size:
            return f"step {t} moves unknown disk {d}"
        supports = set(on.values())
        if d in supports:
            return f"step {t} moves {d}, which is covered"
        if dest in supports or dest == d:
            return f"step {t} puts {d} on {dest}, which is covered"
        if dest in size and size[dest] < size[d]:
            return f"step {t} puts {d} on the smaller {dest}"
        if dest not in size and dest not in ("P1", "P2", "P3"):
            return f"step {t} names unknown place {dest}"
        on[d] = dest
        if plan.trajectory[t + 1] != as_state(on):
            return f"state {t + 1} differs from the replay"
    if on != goal:
        return "the replay does not end in the goal tower"
    return None


# --- two robots on a grid ------------------------------------------------------

def _joint_moves(free, pos):
    """Successor positions of two robots moving at once: each stays or steps
    to a free 4-neighbour; they never share a cell and never swap."""
    a, b = pos
    opts_a = [a] + [(a[0] + dx, a[1] + dy) for dx, dy in DIRECTIONS.values()
                    if (a[0] + dx, a[1] + dy) in free]
    opts_b = [b] + [(b[0] + dx, b[1] + dy) for dx, dy in DIRECTIONS.values()
                    if (b[0] + dx, b[1] + dy) in free]
    for na in opts_a:
        for nb in opts_b:
            if na == nb or (na == b and nb == a):
                continue
            yield na, nb


def joint_makespan(free, starts, goals, limit: int) -> int | None:
    """Fewest joint steps from starts to goals, or None beyond limit."""
    start, goal = tuple(starts), tuple(goals)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        pos = queue.popleft()
        if pos == goal:
            return dist[pos]
        if dist[pos] == limit:
            continue
        for nxt in _joint_moves(free, pos):
            if nxt not in dist:
                dist[nxt] = dist[pos] + 1
                queue.append(nxt)
    return None


def cell_name(cell) -> str:
    return f"c{cell[0]}_{cell[1]}"


def check_mapp(plan, free, starts, goals, makespan: int) -> str | None:
    """Replay a two-robot plan against the move rules and the BFS optimum."""
    if len(plan.steps) != makespan:
        return f"plan has {len(plan.steps)} steps, the joint BFS optimum is {makespan}"
    if len(plan.trajectory) != len(plan.steps) + 1:
        return "trajectory length does not match the steps"
    robots = ("R1", "R2")

    def state_of(pos):
        return {("at", (r,)): cell_name(c) for r, c in zip(robots, pos)}

    pos = tuple(starts)
    if plan.trajectory[0] != state_of(pos):
        return "state 0 is not the start"
    for t, step in enumerate(plan.steps):
        nxt = list(pos)
        moved = set()
        for name, args in step:
            if name != "move" or len(args) != 2 or args[0] not in robots \
                    or args[1] not in DIRECTIONS:
                return f"step {t} has unknown action {name}{args}"
            i = robots.index(args[0])
            if i in moved:
                return f"step {t} moves {args[0]} twice"
            moved.add(i)
            dx, dy = DIRECTIONS[args[1]]
            nxt[i] = (pos[i][0] + dx, pos[i][1] + dy)
            if nxt[i] not in free:
                return f"step {t} moves {args[0]} into a wall"
        nxt = tuple(nxt)
        if nxt not in set(_joint_moves(free, pos)):
            return f"step {t} collides or swaps"
        pos = nxt
        if plan.trajectory[t + 1] != state_of(pos):
            return f"state {t + 1} differs from the replay"
    if pos != tuple(goals):
        return "the replay does not end at the goals"
    return None


# --- robot and boxes -----------------------------------------------------------

class BoxWorld:
    """The robot-and-boxes transition system over landmark locations.

    A state is (robot, box locations, held box index or None).  goto(y) is
    allowed when the grid connects the robot to y and costs the path
    length; a held box travels with the robot; pickup needs the robot on
    the box and empty hands; two boxes that are not held never share a
    location.  A wait step does nothing and costs nothing."""

    def __init__(self, locations, boxes, dist):
        self.locations = list(locations)
        self.boxes = list(boxes)
        self.dist = dist  # (src, dst) -> path length, connected pairs only

    def legal(self, state) -> bool:
        _, locs, held = state
        resting = [l for i, l in enumerate(locs) if i != held]
        return len(resting) == len(set(resting))

    def moves(self, state):
        """(action, cost, next state) for every executable action, waits
        included as (None, 0, state)."""
        robot, locs, held = state
        yield None, 0, state
        for y in self.locations:
            if (robot, y) in self.dist:
                new_locs = tuple(y if i == held else l for i, l in enumerate(locs))
                nxt = (y, new_locs, held)
                if self.legal(nxt):
                    yield ("goto", (y,)), self.dist[(robot, y)], nxt
        for i, b in enumerate(self.boxes):
            if held is None and locs[i] == robot:
                yield ("pickup", (b,)), 0, (robot, locs, i)
            if held == i:
                nxt = (robot, locs, None)
                if self.legal(nxt):
                    yield ("putdown", (b,)), 0, nxt

    def cheapest_by_depth(self, start, is_goal, depth: int) -> list:
        """best[d] = cheapest cost of a plan of at most d steps, or None."""
        frontier = {start: 0}
        best = []
        for d in range(depth + 1):
            goal_costs = [c for s, c in frontier.items() if is_goal(s)]
            best.append(min(goal_costs) if goal_costs else None)
            if d == depth:
                break
            nxt_frontier: dict = {}
            for s, c in frontier.items():
                for _, cost, nxt in self.moves(s):
                    if c + cost < nxt_frontier.get(nxt, float("inf")):
                        nxt_frontier[nxt] = c + cost
            frontier = nxt_frontier
        return best

    def as_state(self, state) -> dict:
        robot, locs, held = state
        out = {("atRobo", ()): robot}
        for i, b in enumerate(self.boxes):
            out[("atObj", (b,))] = locs[i]
            out[("holding", (b,))] = "true" if held == i else "false"
        return out

    def from_state(self, st: dict):
        held = [i for i, b in enumerate(self.boxes) if st[("holding", (b,))] == "true"]
        locs = tuple(st[("atObj", (b,))] for b in self.boxes)
        return st[("atRobo", ())], locs, held

    def run(self, state, steps):
        """Replay a schedule; returns (trajectory of states, cost) or None
        when some step cannot be executed."""
        trajectory = [state]
        total = 0
        for step in steps:
            if len(step) > 1:
                return None
            if not step:
                trajectory.append(state)
                continue
            for act, cost, nxt in self.moves(state):
                if act == (step[0][0], tuple(step[0][1])):
                    state = nxt
                    total += cost
                    break
            else:
                return None
            trajectory.append(state)
        return trajectory, total

    def static_ok(self, st: dict) -> str | None:
        """The domain's state constraints, evaluated on a full state."""
        try:
            robot, locs, held = self.from_state(st)
        except KeyError as e:
            return f"witness lacks {e}"
        if robot not in self.locations or any(l not in self.locations for l in locs):
            return "witness has a value outside the location sort"
        for i in held:
            if locs[i] != robot:
                return f"held box {self.boxes[i]} is not where the robot is"
        resting = [l for i, l in enumerate(locs) if i not in held]
        if len(resting) != len(set(resting)):
            return "two resting boxes share a location"
        return None

    def count_outcomes(self, partial: dict, open_box: int, steps) -> int:
        """How many complete trajectories the schedule has when one box's
        start location is left open: one per start location from which the
        start state is legal and every step executes."""
        robot = partial[("atRobo", ())]
        held = [i for i, b in enumerate(self.boxes) if partial[("holding", (b,))] == "true"]
        count = 0
        for loc in self.locations:
            locs = tuple(loc if i == open_box else partial[("atObj", (b,))]
                         for i, b in enumerate(self.boxes))
            if any(locs[i] != robot for i in held):
                continue
            state = (robot, locs, held[0] if held else None)
            if self.legal(state) and self.run(state, steps) is not None:
                count += 1
        return count
