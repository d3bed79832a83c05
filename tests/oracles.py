"""Independent verification routes for the test suite.

Nothing in here touches the package's solver or compiler: CNF
satisfiability is decided by truth-table bitmasks, learnt clauses are
derived by explicit resolution, and optimal makespans come from
breadth-first search over hand-written transition rules.
Tests compare package output against these.
"""

from __future__ import annotations

import functools
import itertools
from collections import deque

# --- CNF ground truth by truth table -------------------------------------------

def truth_table_models(n_vars: int, clauses) -> set[tuple[bool, ...]]:
    """All satisfying assignments, brute force.  Keep n_vars small."""
    models = set()
    for bits in itertools.product((False, True), repeat=n_vars):
        assign = (False,) + bits  # 1-based
        if all(any(assign[l] if l > 0 else not assign[-l] for l in c) for c in clauses):
            models.add(bits)
    return models


@functools.lru_cache(maxsize=None)
def _var_columns(n_vars: int) -> tuple:
    """cols[v] has bit a set iff variable v is true in assignment a."""
    width = 1 << n_vars
    cols = [0]
    for v in range(1, n_vars + 1):
        half = 1 << (v - 1)
        rep = ((1 << half) - 1) << half  # one period: half zeros, half ones
        length = 2 * half
        while length < width:
            rep |= rep << length
            length *= 2
        cols.append(rep)
    return tuple(cols)


def truth_table_sat(n_vars: int, clauses) -> bool:
    """Satisfiability via bigint bitmasks: column v holds variable v's
    value across all 2^n assignments.  Fast enough for n up to ~18."""
    full = (1 << (1 << n_vars)) - 1
    cols = _var_columns(n_vars)
    acc = full
    for clause in clauses:
        mask = 0
        for l in clause:
            mask |= cols[l] if l > 0 else full & ~cols[-l]
        acc &= mask
        if not acc:
            return False
    return True


def php_clauses(pigeons: int, holes: int):
    """Pigeonhole principle CNF: var(p, h) means pigeon p sits in hole h.
    Unsatisfiable whenever pigeons > holes."""
    var = lambda p, h: p * holes + h + 1
    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1, p2 in itertools.combinations(range(pigeons), 2):
            clauses.append([-var(p1, h), -var(p2, h)])
    return pigeons * holes, clauses


# --- conflict analysis by resolution -------------------------------------------

def first_uip(conflict, trail, level, reason, current: int):
    """The clause that first-UIP learning derives from the false clause
    conflict, then locally minimized, as (its literals as a set, its
    asserting literal, the level to backjump to).

    Written as resolution: starting from conflict, the clause is
    resolved with the reason of its latest-assigned literal of level
    current until one literal of that level (the first UIP) is left;
    literals fixed at level 0 are dropped.  A literal other than the
    UIP is then dropped when every other literal of its reason has a
    variable of that clause or is fixed at level 0 (Sorensson & Biere,
    "Minimizing Learned Clauses", 2009).  The backjump level is the
    highest level among the kept literals other than the UIP, 0 if
    there are none.  trail lists the assigned literals in assignment
    order; level[v] and reason[v] are variable v's decision level and
    implying clause (None for a decision)."""
    rank = {abs(l): i for i, l in enumerate(trail)}
    clause = {l for l in conflict if level[abs(l)] > 0}
    while True:
        top = [l for l in clause if level[abs(l)] == current]
        if len(top) == 1:
            break
        latest = max(top, key=lambda l: rank[abs(l)])
        clause.remove(latest)
        clause |= {l for l in reason[abs(latest)] if l != -latest and level[abs(l)] > 0}
    uip = top[0]
    in_clause = {abs(l) for l in clause}

    def redundant(q):
        r = reason[abs(q)]
        return r is not None and all(abs(l) in in_clause or level[abs(l)] == 0
                                     for l in r if l != -q)

    learnt = {q for q in clause if q == uip or not redundant(q)}
    backjump = max((level[abs(q)] for q in learnt if q != uip), default=0)
    return learnt, uip, backjump


# --- breadth-first search -------------------------------------------------------

def bfs_optimal(start, is_goal, successors) -> int | None:
    """Length of a shortest action sequence, or None if unreachable."""
    if is_goal(start):
        return 0
    seen = {start}
    frontier = deque([(start, 0)])
    while frontier:
        state, depth = frontier.popleft()
        for nxt in successors(state):
            if nxt in seen:
                continue
            if is_goal(nxt):
                return depth + 1
            seen.add(nxt)
            frontier.append((nxt, depth + 1))
    return None


# --- Tower of Hanoi -------------------------------------------------------------

def toh_optimal(num_disks: int) -> int:
    """Shortest move count from all-on-peg-0 to all-on-peg-2, by search
    over the classic rules (move a top disk onto a larger top or an
    empty peg); the state is the peg index of each disk."""
    start = (0,) * num_disks
    goal = (2,) * num_disks

    def successors(state):
        out = []
        for d in range(num_disks):
            if any(state[e] == state[d] for e in range(d)):
                continue  # a smaller disk sits on d
            for peg in range(3):
                if peg == state[d]:
                    continue
                if any(state[e] == peg for e in range(d)):
                    continue  # destination's top is smaller than d
                out.append(state[:d] + (peg,) + state[d + 1:])
        return out

    return bfs_optimal(start, lambda s: s == goal, successors)


# --- robot and boxes -------------------------------------------------------------

def boxes_optimal(num_locations: int, robot: int, boxes: tuple[int, ...],
                  goal_box: int, goal_loc: int,
                  reachable=None) -> int | None:
    """Shortest sequential plan delivering one box.  State: (robot
    location, box locations, held box index or None).  Locations are
    0-based ints; `reachable(a, b)` gates goto moves when given."""

    def successors(state):
        loc, at, held = state
        out = []
        for dest in range(num_locations):
            if dest != loc and (reachable is None or reachable(loc, dest)):
                moved = at if held is None else at[:held] + (dest,) + at[held + 1:]
                out.append((dest, moved, held))
        if held is None:
            for b, bloc in enumerate(at):
                if bloc == loc:
                    out.append((loc, at, b))
        else:
            others = [b for b, bloc in enumerate(at)
                      if bloc == loc and b != held]
            if not others:  # two boxes may not rest at one location
                out.append((loc, at, None))
        return out

    def is_goal(state):
        loc, at, held = state
        return at[goal_box] == goal_loc and held != goal_box

    return bfs_optimal((robot, boxes, None), is_goal, successors)


# --- grid path planning -----------------------------------------------------------

def _mapp_moves(cells: frozenset, pos):
    """Per-robot options: stay, or step to an adjacent free cell."""
    options = []
    for (x, y) in pos:
        opts = [(x, y)]
        opts += [c for c in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1))
                 if c in cells]
        options.append(opts)
    return options


def mapp_optimal(cells, starts, goals, *, concurrent: bool) -> int | None:
    """Shortest makespan moving every robot to its goal.  Vertex conflicts
    and head-on swaps are forbidden; a robot may enter a cell vacated in
    the same step.  Sequential mode moves at most one robot per step."""
    cells = frozenset(cells)
    start, goal = tuple(starts), tuple(goals)

    def successors(pos):
        out = []
        for joint in itertools.product(*_mapp_moves(cells, pos)):
            moved = sum(a != b for a, b in zip(pos, joint))
            if moved == 0:
                continue
            if not concurrent and moved > 1:
                continue
            if len(set(joint)) != len(joint):
                continue
            if any(joint[i] == pos[j] and joint[j] == pos[i]
                   for i in range(len(pos)) for j in range(i + 1, len(pos))
                   if pos[i] != joint[i]):
                continue
            out.append(joint)
        return out

    return bfs_optimal(start, lambda s: s == goal, successors)
