"""Bundled sample domains: robot-and-boxes, Tower of Hanoi, and grid
multi-robot path planning.

Each builder assembles domain and problem text in the surface grammar
and parses it, so the bundles double as parser exercise and as the
source for the files under samples/.  Geometry enters two ways: the
box-world robot consults @pathExists at ground time when a world is
given, while the path-planning domain bakes the grid's adjacency into
generated move laws.

The box domain deliberately lets the robot enter a location that holds
a resting box: the co-location ban applies to pairs of unheld boxes
only, and a held box travels with the robot (a static ramification, not
an explicit effect).  Note the robot's own movement is unrestricted; a
blanket "cannot go where some box sits" rule would make every box
unreachable, so box crowding is ruled out instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grid import GridWorld, registry_for
from .grounding import ExternalRegistry
from .model import DomainDescription, PlanningProblem
from .parser import parse_domain, parse_problem

DIRECTIONS = {"up": (0, -1), "down": (0, 1), "left": (-1, 0), "right": (1, 0)}


@dataclass
class DomainBundle:
    domain: DomainDescription
    problem: PlanningProblem
    world: GridWorld | None = None
    expected: int | None = None  # known-optimal makespan, when one is known

    @property
    def registry(self) -> ExternalRegistry | None:
        return registry_for(self.world) if self.world is not None else None


def build_robot_boxes(num_locations: int = 2, num_boxes: int = 1,
                      world: GridWorld | None = None) -> DomainBundle:
    """Robot moving boxes between locations.

    goto teleports the robot (any distance, one step); pickup requires
    co-location and empty hands; a held box follows the robot through the
    static law rather than a goto effect.  With a world, goto additionally
    requires a collision-free path between the two landmarks.
    """
    if num_locations < 2:
        raise ValueError("need at least two locations")
    if num_boxes < 1:
        raise ValueError("need at least one box")
    if num_boxes > num_locations:
        raise ValueError("the bundled problem needs a distinct location per box")
    locs = [f"L{i}" for i in range(1, num_locations + 1)]
    boxes = [f"B{i}" for i in range(1, num_boxes + 1)]
    if world is not None:
        missing = [l for l in locs if l not in world.landmarks]
        if missing:
            raise ValueError(f"world has no landmark for: {', '.join(missing)}")

    lines = [
        ":sorts location box",
        ":objects",
        f"  {', '.join(locs)} :: location;",
        f"  {', '.join(boxes)} :: box;",
        ":constants",
        "  atObj(box) :: inertialFluent(location);",
        "  atRobo :: inertialFluent(location);",
        "  goto(location) :: action;",
        "  holding(box) :: inertialFluent;",
        "  pickup(box) :: action;",
        "  putdown(box) :: action;",
    ]
    if world is not None:
        lines += [":externals", "  pathExists/2;"]
    lines += [
        ":laws",
        "  inertial atObj;",
        "  inertial atRobo;",
        "  inertial holding;",
        "  vars y :: location;",
        "  goto(y) causes atRobo=y;",
    ]
    if world is not None:
        lines += [
            "  vars x :: location y :: location;",
            "  nonexecutable goto(y) if atRobo=x & ~@pathExists(x, y);",
        ]
    lines += [
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
    if num_boxes > 1:
        lines.append("  vars y :: location;")
        for i, b1 in enumerate(boxes):
            for b2 in boxes[i + 1:]:
                lines.append(
                    f"  constraint ~(atObj({b1})=y & atObj({b2})=y"
                    f" & ~holding({b1}) & ~holding({b2}));")
    domain = parse_domain("\n".join(lines) + "\n", source="<robot-boxes>")

    # robot starts at the delivery site, boxes spread from L1 up
    init = [f"atRobo={locs[-1]}"]
    init += [f"atObj({b})={locs[i]}" for i, b in enumerate(boxes)]
    init += [f"~holding({b})" for b in boxes]
    deliverable = num_boxes < num_locations
    if deliverable and world is not None:
        deliverable = world.path_exists(locs[-1], locs[0]) and \
            world.path_exists(locs[0], locs[-1])
    goal = f"atObj(B1)={locs[-1]} & ~holding(B1)" if deliverable else "true"
    problem = parse_problem(
        f":init {' & '.join(init)};\n"
        f":goal {goal};\n"
        ":horizon 0..8;\n"
        ":noconcurrency;\n",
        domain, source="<robot-boxes-problem>")
    return DomainBundle(domain, problem, world, expected=4 if deliverable else 0)


def build_toh(num_disks: int = 3) -> DomainBundle:
    """Tower of Hanoi with the multi-valued support encoding: on(d) names
    what d directly rests on, a peg or a larger disk.  D1 is the smallest
    disk.  One move per step; optimum is 2^n - 1."""
    if not 1 <= num_disks <= 6:
        raise ValueError("disk count must be between 1 and 6")
    disks = [f"D{i}" for i in range(1, num_disks + 1)]
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
        "  nonexecutable move(d, p) if on(e)=d;",  # something rests on d
        "  nonexecutable move(d, p) if on(e)=p;",  # the destination is covered
    ]
    # a disk may rest only on a strictly larger disk
    for i in range(1, num_disks + 1):
        for j in range(1, i + 1):
            lines.append(f"  constraint ~(on(D{i})=D{j});")
    # no two disks directly on the same support
    if num_disks > 1:
        lines.append("  vars p :: place;")
        for i, d1 in enumerate(disks):
            for d2 in disks[i + 1:]:
                lines.append(f"  constraint ~(on({d1})=p & on({d2})=p);")
    domain = parse_domain("\n".join(lines) + "\n", source="<toh>")

    def stack(peg: str) -> str:
        parts = [f"on({disks[-1]})={peg}"]
        parts += [f"on({disks[i]})={disks[i + 1]}" for i in range(num_disks - 2, -1, -1)]
        return " & ".join(parts)

    best = 2 ** num_disks - 1
    problem = parse_problem(
        f":init {stack('P1')};\n"
        f":goal {stack('P3')};\n"
        f":horizon 0..{best};\n"
        ":noconcurrency;\n",
        domain, source="<toh-problem>")
    return DomainBundle(domain, problem, world=None, expected=best)


def _cell_name(x: int, y: int) -> str:
    return f"c{x}_{y}"


def _resolve_cell(world: GridWorld, spec, what: str) -> tuple[int, int]:
    if isinstance(spec, str):
        if spec not in world.landmarks:
            raise ValueError(f"{what}: unknown landmark {spec!r}")
        return world.landmarks[spec]
    x, y = spec
    if not world.is_free(x, y):
        raise ValueError(f"{what}: cell ({x}, {y}) is blocked or outside the grid")
    return x, y


def build_mapp(world: GridWorld, num_robots: int, starts, goals,
               horizon: tuple[int, int] = (0, 10)) -> DomainBundle:
    """Multi-robot path planning on a grid.  at(r) ranges over free cells;
    move(r, dir) shifts one robot to a 4-adjacent free cell.  Robots never
    share a cell and never swap head-on; concurrent moves are allowed.
    starts and goals are landmark names or (x, y) pairs, and horizon is
    the problem's (lo, hi) window."""
    if num_robots < 1:
        raise ValueError("need at least one robot")
    if len(starts) != num_robots or len(goals) != num_robots:
        raise ValueError(f"expected {num_robots} starts and goals")
    start_cells = [_resolve_cell(world, s, "start") for s in starts]
    goal_cells = [_resolve_cell(world, g, "goal") for g in goals]
    if len(set(start_cells)) != num_robots:
        raise ValueError("robots cannot share a start cell")
    if len(set(goal_cells)) != num_robots:
        raise ValueError("robots cannot share a goal cell")

    free = sorted((x, y) for y in range(world.height) for x in range(world.width)
                  if world.is_free(x, y))
    if not free:
        raise ValueError("the world has no free cells")
    robots = [f"R{i}" for i in range(1, num_robots + 1)]
    cells = [_cell_name(x, y) for x, y in free]

    lines = [
        ":sorts robot cell dir",
        ":objects",
        f"  {', '.join(robots)} :: robot;",
        f"  {', '.join(cells)} :: cell;",
        f"  {', '.join(sorted(DIRECTIONS))} :: dir;",
        ":constants",
        "  at(robot) :: inertialFluent(cell);",
        "  move(robot, dir) :: action;",
        ":laws",
        "  inertial at;",
        "  vars r :: robot;",
    ]
    for x, y in free:
        here = _cell_name(x, y)
        for d in sorted(DIRECTIONS):
            dx, dy = DIRECTIONS[d]
            if world.is_free(x + dx, y + dy):
                there = _cell_name(x + dx, y + dy)
                lines.append(f"  move(r, {d}) causes at(r)={there} if at(r)={here};")
            else:
                lines.append(f"  nonexecutable move(r, {d}) if at(r)={here};")
    if num_robots > 1:
        lines.append("  vars c :: cell;")
        for i, r1 in enumerate(robots):
            for r2 in robots[i + 1:]:
                lines.append(f"  constraint ~(at({r1})=c & at({r2})=c);")
        for i, r1 in enumerate(robots):
            for r2 in robots[i + 1:]:
                for (x, y) in free:
                    for d in ("right", "down"):  # one law covers both orders
                        dx, dy = DIRECTIONS[d]
                        if world.is_free(x + dx, y + dy):
                            a, b = _cell_name(x, y), _cell_name(x + dx, y + dy)
                            lines.append(
                                f"  caused false if at({r1})={b} & at({r2})={a}"
                                f" after at({r1})={a} & at({r2})={b};")
                            lines.append(
                                f"  caused false if at({r1})={a} & at({r2})={b}"
                                f" after at({r1})={b} & at({r2})={a};")
    domain = parse_domain("\n".join(lines) + "\n", source="<mapp>")

    init = " & ".join(f"at({r})={_cell_name(*c)}" for r, c in zip(robots, start_cells))
    goal = " & ".join(f"at({r})={_cell_name(*c)}" for r, c in zip(robots, goal_cells))
    problem = parse_problem(
        f":init {init};\n:goal {goal};\n:horizon {horizon[0]}..{horizon[1]};\n",
        domain, source="<mapp-problem>")
    return DomainBundle(domain, problem, world=world, expected=None)
