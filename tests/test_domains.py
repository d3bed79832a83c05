"""The bundled sample domains: generated law shapes, makespan agreement
with blind search, safety of returned trajectories, and builder input
validation."""

import pytest

from causalplan import (PlanFound, check_consistency, parse_problem,
                        parse_world, plan, validate_plan, validate_problem)
from causalplan.domains import build_mapp, build_robot_boxes, build_toh
from causalplan.grounding import ground
from causalplan.model import Caused, Causes, Nonexecutable
from causalplan.planner import Consistent

from enumeration import oracle_transitions
from oracles import boxes_optimal, mapp_optimal, toh_optimal

CORRIDOR = "1.2...3"
SQUARE = "..\n.."

BUNDLES = {
    "boxes-2-1": lambda: build_robot_boxes(2, 1),
    "boxes-3-2": lambda: build_robot_boxes(3, 2),
    "boxes-corridor": lambda: build_robot_boxes(3, 1, parse_world(CORRIDOR)),
    "toh-1": lambda: build_toh(1),
    "toh-2": lambda: build_toh(2),
    "toh-3": lambda: build_toh(3),
    "mapp-swap": lambda: build_mapp(parse_world(SQUARE), 2,
                                    [(0, 0), (1, 1)], [(1, 1), (0, 0)]),
    "mapp-line": lambda: build_mapp(parse_world("..."), 1, [(0, 0)], [(2, 0)]),
}


@pytest.mark.parametrize("name", sorted(BUNDLES))
def test_bundle_is_wellformed(name):
    bundle = BUNDLES[name]()
    gd = ground(bundle.domain, bundle.registry)
    assert gd.laws
    assert validate_problem(bundle.problem, bundle.domain) == []
    verdict = check_consistency(bundle.domain, bundle.registry)
    assert isinstance(verdict, Consistent)


@pytest.mark.parametrize("name", sorted(BUNDLES))
def test_bundle_plan_is_optimal_and_valid(name):
    bundle = BUNDLES[name]()
    res = plan(bundle.domain, bundle.problem, bundle.registry)
    assert isinstance(res, PlanFound)
    if bundle.expected is not None:
        assert res.horizon == bundle.expected
    ok, problems = validate_plan(bundle.domain, bundle.problem, res.plan,
                                 bundle.registry)
    assert ok and problems == []


# --- robot and boxes ---------------------------------------------------------------

def test_boxes_atom_counts():
    gd = ground(build_robot_boxes(2, 1).domain)
    # atObj(B1) and atRobo over two locations, plus Boolean holding(B1)
    assert len(gd.fluent_atoms) == 5
    # goto(L1), goto(L2), pickup(B1), putdown(B1)
    assert len(gd.action_atoms) == 4


def test_boxes_ramification_grounds_per_box_location_pair():
    gd = ground(build_robot_boxes(3, 2).domain)
    carried = [l for l in gd.laws
               if isinstance(l, Caused) and l.head is not None
               and l.head.constant.name == "atObj"]
    assert len(carried) == 3 * 2


def test_boxes_blocked_destination_matches_blind_search():
    # delivering B1 onto B2's location first forces B2 out of the way
    bundle = build_robot_boxes(4, 2)
    problem = parse_problem(
        ":init atRobo=L4 & atObj(B1)=L1 & atObj(B2)=L2"
        " & ~holding(B1) & ~holding(B2);\n"
        ":goal atObj(B1)=L2 & ~holding(B1);\n"
        ":horizon 0..8;\n:noconcurrency;\n", bundle.domain)
    assert boxes_optimal(4, 3, (0, 1), goal_box=0, goal_loc=1) == 8
    res = plan(bundle.domain, problem)
    assert isinstance(res, PlanFound) and res.horizon == 8


def test_walled_world_keeps_goto_bans():
    def goto_bans(bundle):
        gd = ground(bundle.domain, bundle.registry)
        return [l for l in gd.laws if isinstance(l, Nonexecutable)
                and l.action.constant.name == "goto"]

    assert goto_bans(build_robot_boxes(2, 1, parse_world("1.2"))) == []
    walled = goto_bans(build_robot_boxes(2, 1, parse_world("1#2")))
    assert len(walled) == 2  # one per direction between the cut landmarks


def test_boxes_builder_rejects_bad_sizes():
    with pytest.raises(ValueError):
        build_robot_boxes(1, 1)
    with pytest.raises(ValueError):
        build_robot_boxes(2, 0)
    with pytest.raises(ValueError):
        build_robot_boxes(2, 3)


def test_boxes_builder_requires_landmarks():
    with pytest.raises(ValueError, match="landmark"):
        build_robot_boxes(3, 1, parse_world("1.2"))


# --- Tower of Hanoi ----------------------------------------------------------------

@pytest.mark.parametrize("disks", [1, 2, 3])
def test_toh_matches_blind_search(disks):
    assert toh_optimal(disks) == 2 ** disks - 1
    bundle = build_toh(disks)
    res = plan(bundle.domain, bundle.problem)
    assert isinstance(res, PlanFound) and res.horizon == 2 ** disks - 1


def test_toh_moves_one_disk_at_a_time():
    bundle = build_toh(2)
    res = plan(bundle.domain, bundle.problem)
    assert all(len(step) == 1 for step in res.plan.steps)


def test_toh_builder_rejects_bad_count():
    with pytest.raises(ValueError):
        build_toh(0)
    with pytest.raises(ValueError):
        build_toh(7)


# --- grid path planning ------------------------------------------------------------

def _positions(state, robots):
    return tuple(state[("at", (r,))] for r in robots)


def test_mapp_move_laws_cover_every_cell_direction():
    world = parse_world("..\n.#")
    bundle = build_mapp(world, 1, [(0, 0)], [(0, 1)])
    gd = ground(bundle.domain, bundle.registry)
    moves = [l for l in gd.laws if isinstance(l, Causes)
             and l.action.constant.name == "move"]
    bans = [l for l in gd.laws if isinstance(l, Nonexecutable)
            and l.action.constant.name == "move"]
    assert len(moves) + len(bans) == 3 * 4  # three free cells, four directions
    assert all(l.effect.value != "c1_1" for l in moves)  # never into the wall


def test_mapp_transitions_never_collide_or_swap():
    bundle = BUNDLES["mapp-swap"]()
    gd = ground(bundle.domain, bundle.registry)
    for s0, _, s1 in oracle_transitions(gd):
        p0 = dict((args[0], v) for (n, args, v) in s0 if n == "at")
        p1 = dict((args[0], v) for (n, args, v) in s1 if n == "at")
        assert len(set(p0.values())) == 2 and len(set(p1.values())) == 2
        swapped = p1["R1"] == p0["R2"] and p1["R2"] == p0["R1"]
        assert not (swapped and p0["R1"] != p1["R1"])


def test_mapp_swap_makespans_match_blind_search():
    cells = [(0, 0), (1, 0), (0, 1), (1, 1)]
    starts, goals = [(0, 0), (1, 1)], [(1, 1), (0, 0)]
    assert mapp_optimal(cells, starts, goals, concurrent=True) == 2
    assert mapp_optimal(cells, starts, goals, concurrent=False) == 4

    bundle = build_mapp(parse_world(SQUARE), 2, starts, goals)
    res = plan(bundle.domain, bundle.problem, bundle.registry)
    assert isinstance(res, PlanFound) and res.horizon == 2
    for state, robots in ((t, ("R1", "R2")) for t in res.plan.trajectory):
        assert len(set(_positions(state, robots))) == 2


def test_mapp_accepts_landmark_names():
    world = parse_world("1.\n.2")
    bundle = build_mapp(world, 2, ["L1", "L2"], ["L2", "L1"])
    res = plan(bundle.domain, bundle.problem, bundle.registry)
    assert isinstance(res, PlanFound) and res.horizon == 2


def test_mapp_builder_rejects_bad_input():
    world = parse_world(SQUARE)
    with pytest.raises(ValueError, match="starts"):
        build_mapp(world, 2, [(0, 0)], [(1, 1), (0, 0)])
    with pytest.raises(ValueError, match="share"):
        build_mapp(world, 2, [(0, 0), (0, 0)], [(1, 1), (0, 1)])
    with pytest.raises(ValueError, match="blocked"):
        build_mapp(parse_world(".#"), 1, [(1, 0)], [(0, 0)])
    with pytest.raises(ValueError, match="landmark"):
        build_mapp(world, 1, ["L9"], [(1, 1)])
