"""Seeded instance lists for the benchmark workloads, as plain text.

Every instance is the text a user would hand to causalplan: a domain, a
problem (or query) and, for grid workloads, a world.  The same workload
seed always gives the same list.  The lists are built so that the amount
of work barely depends on the seed: the seed picks geometry (wall
layout, which of a grid's eight mirror images, landmark cells, start
and goal cells), while the logical size of each slot in the list is
fixed.  That keeps medians comparable across seeds and keeps the
encodings of a workload the same size whatever the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import oracles

# --- Tower of Hanoi ------------------------------------------------------------

TOH_DISKS = 4
TOH_QUERIES = 12  # solver seeds per pass


def toh_domain(n: int) -> str:
    disks = [f"D{i}" for i in range(1, n + 1)]
    pegs = ["P1", "P2", "P3"]
    lines = [
        ":sorts disk peg place",
        ":objects",
        f"  {', '.join(disks)} :: disk;",
        f"  {', '.join(pegs)} :: peg;",
        f"  {', '.join(pegs + disks)} :: place;",
        ":constants",
        "  move(disk, place) :: action;",
        "  on(disk) :: inertialFluent(place);",
        ":laws",
        "  inertial on;",
        "  vars d :: disk p :: place;",
        "  move(d, p) causes on(d)=p;",
        "  vars d :: disk e :: disk p :: place;",
        "  nonexecutable move(d, p) if on(e)=d;",
        "  nonexecutable move(d, p) if on(e)=p;",
    ]
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            lines.append(f"  constraint ~(on(D{i})=D{j});")
    lines.append("  vars p :: place;")
    for i, d1 in enumerate(disks):
        for d2 in disks[i + 1:]:
            lines.append(f"  constraint ~(on({d1})=p & on({d2})=p);")
    return "\n".join(lines) + "\n"


def toh_problem(n: int) -> str:
    disks = [f"D{i}" for i in range(1, n + 1)]

    def tower(peg):
        parts = [f"on({disks[-1]})={peg}"]
        parts += [f"on({disks[i]})={disks[i + 1]}" for i in range(n - 2, -1, -1)]
        return " & ".join(parts)

    return (f":init {tower('P1')};\n:goal {tower('P3')};\n"
            f":horizon 0..{2 ** n - 1};\n:noconcurrency;\n")


@dataclass
class TohInstance:
    domain: str
    problem: str
    disks: int
    solver_seeds: list[int]


def toh_instances(seed: int) -> list[TohInstance]:
    """One 4-disk tower; the seed varies only the solver seeds."""
    rng = random.Random(f"toh-deepen/{seed}")
    seeds = [rng.randrange(1 << 30) for _ in range(TOH_QUERIES)]
    return [TohInstance(toh_domain(TOH_DISKS), toh_problem(TOH_DISKS), TOH_DISKS, seeds)]


# --- two robots on a grid ------------------------------------------------------

# Wall templates per size and the joint makespan every start/goal pair of
# that size must have.  The seed picks a mirror image of the template and
# the cells, so the encoding size of a slot does not depend on the seed.
MAPP_TEMPLATES = [
    ([".....",
      ".....",
      ".....",
      ".....",
      "....."], 6),
    (["......",
      ".##...",
      "......",
      "...#..",
      "...#..",
      "......"], 6),
    ([".......",
      ".#...#.",
      ".#.....",
      "...#...",
      ".....#.",
      ".#...#.",
      "......."], 6),
]
MAPP_PER_SIZE = 3
MAPP_HORIZON = 10


def _symmetry(rows: list[str], k: int) -> list[str]:
    """One of the eight rotations and reflections of a square grid."""
    grid = [list(r) for r in rows]
    if k & 4:
        grid = [list(reversed(r)) for r in grid]
    for _ in range(k & 3):
        grid = [list(r) for r in zip(*grid[::-1])]
    return ["".join(r) for r in grid]


def mapp_domain(rows: list[str]) -> str:
    """Two robots on the free cells: the text build_mapp would generate."""
    free = oracles.grid_free(rows)
    cells = sorted(free)
    names = [oracles.cell_name(c) for c in cells]
    dirs = oracles.DIRECTIONS
    lines = [
        ":sorts robot cell dir",
        ":objects",
        "  R1, R2 :: robot;",
        f"  {', '.join(names)} :: cell;",
        f"  {', '.join(sorted(dirs))} :: dir;",
        ":constants",
        "  at(robot) :: inertialFluent(cell);",
        "  move(robot, dir) :: action;",
        ":laws",
        "  inertial at;",
        "  vars r :: robot;",
    ]
    for x, y in cells:
        here = oracles.cell_name((x, y))
        for d in sorted(dirs):
            dx, dy = dirs[d]
            if (x + dx, y + dy) in free:
                there = oracles.cell_name((x + dx, y + dy))
                lines.append(f"  move(r, {d}) causes at(r)={there} if at(r)={here};")
            else:
                lines.append(f"  nonexecutable move(r, {d}) if at(r)={here};")
    lines.append("  vars c :: cell;")
    lines.append("  constraint ~(at(R1)=c & at(R2)=c);")
    for x, y in cells:
        for d in ("right", "down"):
            dx, dy = dirs[d]
            if (x + dx, y + dy) in free:
                a, b = oracles.cell_name((x, y)), oracles.cell_name((x + dx, y + dy))
                lines.append(f"  caused false if at(R1)={b} & at(R2)={a}"
                             f" after at(R1)={a} & at(R2)={b};")
                lines.append(f"  caused false if at(R1)={a} & at(R2)={b}"
                             f" after at(R1)={b} & at(R2)={a};")
    return "\n".join(lines) + "\n"


@dataclass
class MappInstance:
    domain: str
    problem: str
    rows: list[str]
    starts: tuple
    goals: tuple
    makespan: int
    solver_seed: int


def mapp_instances(seed: int) -> list[MappInstance]:
    rng = random.Random(f"mapp-wide/{seed}")
    out = []
    for template, makespan in MAPP_TEMPLATES:
        for _ in range(MAPP_PER_SIZE):
            rows = _symmetry(template, rng.randrange(8))
            free = sorted(oracles.grid_free(rows))
            while True:
                starts = tuple(rng.sample(free, 2))
                goals = tuple(rng.sample(free, 2))
                if oracles.joint_makespan(set(free), starts, goals, MAPP_HORIZON) == makespan:
                    break
            problem = (
                f":init at(R1)={oracles.cell_name(starts[0])} & at(R2)={oracles.cell_name(starts[1])};\n"
                f":goal at(R1)={oracles.cell_name(goals[0])} & at(R2)={oracles.cell_name(goals[1])};\n"
                f":horizon 0..{MAPP_HORIZON};\n")
            out.append(MappInstance(mapp_domain(rows), problem, rows, starts, goals,
                                    makespan, rng.randrange(1 << 30)))
    return out


# --- robot and boxes -----------------------------------------------------------

BOXES_SIZE = 7
BOXES_WALLS = 9
BOXES_HORIZON = 7
# (landmarks, boxes) per slot.  With four landmarks the fourth is walled
# into a corner, so @pathExists prunes every goto into or out of it.
BOXES_SLOTS = [(3, 1), (3, 2), (4, 1), (4, 2)] * 2
COST_SPEC = "goto=timeEstimate(@atRobo,$0)"
# The solver seed is fixed: across six solver seeds the no-plan query of
# one instance took from 0.88 to 1.29 times its median, which would swamp
# the geometry the workload seed is meant to vary.  With it fixed, a slot's
# CNFs and the no-plan query's search are the same for every seed.
BOXES_SOLVER_SEED = 0


def boxes_domain(locations: list[str], boxes: list[str]) -> str:
    lines = [
        ":sorts location box",
        ":objects",
        f"  {', '.join(locations)} :: location;",
        f"  {', '.join(boxes)} :: box;",
        ":constants",
        "  atObj(box) :: inertialFluent(location);",
        "  atRobo :: inertialFluent(location);",
        "  goto(location) :: action;",
        "  holding(box) :: inertialFluent;",
        "  pickup(box) :: action;",
        "  putdown(box) :: action;",
        ":externals",
        "  pathExists/2;",
        ":laws",
        "  inertial atObj;",
        "  inertial atRobo;",
        "  inertial holding;",
        "  vars y :: location;",
        "  goto(y) causes atRobo=y;",
        "  vars x :: location y :: location;",
        "  nonexecutable goto(y) if atRobo=x & ~@pathExists(x, y);",
        "  vars b :: box y :: location;",
        "  caused atObj(b)=y if holding(b) & atRobo=y;",
        "  nonexecutable pickup(b) if atRobo=y & ~(atObj(b)=y);",
        "  vars b :: box c :: box;",
        "  nonexecutable pickup(b) if holding(c);",
        "  vars b :: box;",
        "  pickup(b) causes holding(b);",
        "  putdown(b) causes holding(b)=false;",
        "  nonexecutable putdown(b) if ~holding(b);",
    ]
    if len(boxes) > 1:
        lines.append("  vars y :: location;")
        for i, b1 in enumerate(boxes):
            for b2 in boxes[i + 1:]:
                lines.append(f"  constraint ~(atObj({b1})=y & atObj({b2})=y"
                             f" & ~holding({b1}) & ~holding({b2}));")
    return "\n".join(lines) + "\n"


def _boxes_world(rng: random.Random, n_landmarks: int):
    """A 7x7 world with walls whose first three landmarks are connected
    to each other; a fourth landmark, if any, is sealed into a corner."""
    size = BOXES_SIZE
    corners = [(0, 0), (size - 1, 0), (0, size - 1), (size - 1, size - 1)]
    while True:
        walls: set = set()
        sealed = None
        if n_landmarks == 4:
            sealed = rng.choice(corners)
            sx, sy = sealed
            walls |= {(sx + (1 if sx == 0 else -1), sy), (sx, sy + (1 if sy == 0 else -1))}
        inner = [(x, y) for y in range(size) for x in range(size)
                 if (x, y) not in walls and (x, y) != sealed
                 and (sealed is None or abs(x - sealed[0]) + abs(y - sealed[1]) > 1)]
        walls |= set(rng.sample(inner, BOXES_WALLS))
        free = {(x, y) for y in range(size) for x in range(size) if (x, y) not in walls}
        open_cells = sorted(free - {sealed})
        marks = rng.sample(open_cells, 3)
        dist = oracles.grid_distances(free, marks[0])
        if all(m in dist for m in marks):
            break
    cells = {f"L{i + 1}": m for i, m in enumerate(marks)}
    if sealed is not None:
        cells["L4"] = sealed
    rows = []
    for y in range(size):
        row = []
        for x in range(size):
            ch = "#" if (x, y) in walls else "."
            for name, c in cells.items():
                if c == (x, y):
                    ch = name[1:]
            row.append(ch)
        rows.append("".join(row))
    return rows, cells


@dataclass
class BoxesInstance:
    domain: str
    world: str
    problem: str          # the :maxcost problem, feasible
    deadline_problem: str  # one below the cheapest cost in the window
    locations: list[str]
    boxes: list[str]
    dist: dict
    init: tuple           # oracle state (robot, box locations, held)
    goal_location: str
    maxcost: int
    makespan: int         # fewest steps of a plan within maxcost
    cheapest: int         # cheapest plan cost within the window
    solver_seed: int


def boxes_instances(seed: int) -> list[BoxesInstance]:
    rng = random.Random(f"boxes-session/{seed}")
    out = []
    for n_loc, n_box in BOXES_SLOTS:
        rows, cells = _boxes_world(rng, n_loc)
        locations = [f"L{i}" for i in range(1, n_loc + 1)]
        boxes = [f"B{i}" for i in range(1, n_box + 1)]
        dist = oracles.landmark_distances(oracles.grid_free(rows), cells)
        world = oracles.BoxWorld(locations, boxes, dist)
        # robot at L3, B1 at L1, B2 at L2; deliver B1 to L3
        init = ("L3", tuple(f"L{i + 1}" for i in range(n_box)), None)
        goal = "L3"

        def is_goal(s):
            return s[1][0] == goal and s[2] != 0

        best = world.cheapest_by_depth(init, is_goal, BOXES_HORIZON)
        cheapest = min(c for c in best if c is not None)
        maxcost = cheapest + rng.randrange(0, 3)
        makespan = next(d for d, c in enumerate(best) if c is not None and c <= maxcost)
        init_text = " & ".join(
            [f"atRobo={init[0]}"]
            + [f"atObj({b})={init[1][i]}" for i, b in enumerate(boxes)]
            + [f"~holding({b})" for b in boxes])
        base = (f":init {init_text};\n:goal atObj(B1)={goal} & ~holding(B1);\n"
                f":horizon 0..{BOXES_HORIZON};\n:noconcurrency;\n")
        out.append(BoxesInstance(
            boxes_domain(locations, boxes), "\n".join(rows) + "\n",
            base + f":maxcost {maxcost};\n", base + f":maxcost {cheapest - 1};\n",
            locations, boxes, dist, init, goal, maxcost, makespan, cheapest,
            BOXES_SOLVER_SEED))
    return out


def write_instances(workload: str, seed: int, out_dir) -> list[str]:
    """Write one workload's instance texts as files a user can pass to the
    causalplan command line; returns the file names."""
    from pathlib import Path
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = {}
    if workload == "toh-deepen":
        for i, inst in enumerate(toh_instances(seed)):
            files[f"toh{i}.cp"], files[f"toh{i}.prob"] = inst.domain, inst.problem
            files[f"toh{i}.seeds"] = "\n".join(map(str, inst.solver_seeds)) + "\n"
    elif workload == "mapp-wide":
        for i, inst in enumerate(mapp_instances(seed)):
            files[f"mapp{i}.cp"], files[f"mapp{i}.prob"] = inst.domain, inst.problem
            files[f"mapp{i}.world"] = "\n".join(inst.rows) + "\n"
    elif workload == "boxes-session":
        for i, inst in enumerate(boxes_instances(seed)):
            files[f"boxes{i}.cp"], files[f"boxes{i}.world"] = inst.domain, inst.world
            files[f"boxes{i}.prob"] = inst.problem
            files[f"boxes{i}-deadline.prob"] = inst.deadline_problem
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    for name, text in files.items():
        (out / name).write_text(text, encoding="utf-8")
    return sorted(files)


if __name__ == "__main__":
    import argparse
    ap = argparse.ArgumentParser(description="write a workload's instance files")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="directory to write the files to")
    a = ap.parse_args()
    print("\n".join(write_instances(a.workload, a.seed, a.out)))
