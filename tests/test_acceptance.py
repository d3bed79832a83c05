"""Acceptance gate.

One test per shipped guarantee, each printing a single pass/fail line
under ``pytest -v``.  Every expected number here comes from an
independent route (truth tables, breadth-first search, exhaustive
window enumeration, or arithmetic done by hand); nothing is read back
from the code under test.
"""

import dataclasses
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import toy_domains
from enumeration import oracle_paths, oracle_states
import causalplan
from causalplan import (NoPlanUpTo, PlanFound, parse_problem, parse_world,
                        plan, predict)
from causalplan.compiler import TimedAtom, compile_cnf
from causalplan.domains import build_mapp, build_robot_boxes, build_toh
from causalplan.grounding import ground
from causalplan.model import TRUE, Atom, freeze_state
from causalplan.planner import encode_problem, parse_cost_spec
from causalplan.sat import Solver, enumerate_models, solve

from oracles import (boxes_optimal, mapp_optimal, php_clauses, toh_optimal,
                     truth_table_sat)


def _cnf_trajectories(gd, h, *, seed=0):
    """Every model of the h-step encoding, projected onto the timed atoms
    and decoded to a (state, actions, ..., state) tuple."""
    cnf = compile_cnf(gd, h)
    out = set()
    for model in enumerate_models(Solver(cnf.var_count, cnf.clauses, seed=seed), cnf.index.values()):
        truth = {ta: model[v] for ta, v in cnf.index.items()}
        parts = []
        for t in range(h + 1):
            state = {}
            for c, args in gd.fluent_instances:
                if c.is_boolean:
                    v = "true" if truth[TimedAtom(Atom(c, args, "true"), t)] else "false"
                else:
                    v = next(val for val in c.value_sort.members
                             if truth[TimedAtom(Atom(c, args, val), t)])
                state[(c.name, args)] = v
            parts.append(freeze_state(state))
            if t < h:
                parts.append(frozenset((a.constant.name, a.args)
                                       for a in gd.action_atoms
                                       if truth[TimedAtom(a, t)]))
        out.add(tuple(parts))
    return out


def test_encoding_models_equal_enumerated_trajectories():
    t0 = time.monotonic()
    assert len(toy_domains.ALL_SMALL) >= 10
    for must in ("pq", "toggle", "boxes-m2n1"):
        assert must in toy_domains.ALL_SMALL
    for name in toy_domains.ALL_SMALL:
        gd = toy_domains.load(name)
        assert len(gd.fluent_atoms) + len(gd.action_atoms) <= 22, name
        for h in (0, 1, 2):
            got = _cnf_trajectories(gd, h)
            want = set(oracle_paths(gd, h))
            assert got == want, f"{name} at horizon {h}"
    assert time.monotonic() - t0 < 10.0


def test_plan_makespans_are_search_optimal():
    def timed_plan(bundle, problem=None):
        t0 = time.monotonic()
        res = plan(bundle.domain, problem or bundle.problem, bundle.registry)
        assert time.monotonic() - t0 < 5.0
        assert isinstance(res, PlanFound)
        return res.horizon

    for disks, moves in ((1, 1), (2, 3), (3, 7)):
        assert toh_optimal(disks) == moves
        assert timed_plan(build_toh(disks)) == moves

    assert boxes_optimal(2, 1, (0,), goal_box=0, goal_loc=1) == 4
    assert timed_plan(build_robot_boxes(2, 1)) == 4

    cells = [(0, 0), (1, 0), (0, 1), (1, 1)]
    starts, goals = [(0, 0), (1, 1)], [(1, 1), (0, 0)]
    swap = build_mapp(parse_world("..\n.."), 2, starts, goals)
    assert mapp_optimal(cells, starts, goals, concurrent=True) == 2
    assert timed_plan(swap) == 2
    assert mapp_optimal(cells, starts, goals, concurrent=False) == 4
    sequential = dataclasses.replace(swap.problem, noconcurrency=True)
    assert timed_plan(swap, sequential) == 4


def test_held_box_follows_the_robot():
    bundle = build_robot_boxes(2, 1)
    res = predict(bundle.domain,
                  {("atRobo", ()): "L1", ("holding", ("B1",)): "true"},
                  [[("goto", ("L2",))]])
    assert len(res.outcomes) == 1
    assert res.outcomes[0][-1][("atObj", ("B1",))] == "L2"


def test_resting_boxes_never_share_a_location():
    def resting_ok(state):
        locs = [state[("atObj", (b,))] for b in boxes
                if state[("holding", (b,))] == "false"]
        return len(locs) == len(set(locs))

    boxes = ("B1", "B2")
    tight = build_robot_boxes(2, 2)
    gd = ground(tight.domain)
    legal = oracle_states(gd)
    assert legal and all(resting_ok(s) for s in legal)

    roomy = build_robot_boxes(3, 2)
    res = plan(roomy.domain, roomy.problem)
    assert isinstance(res, PlanFound)
    assert all(resting_ok(s) for s in res.plan.trajectory)

    crowded = parse_problem(
        ":goal atObj(B1)=L1 & atObj(B2)=L1 & ~holding(B1) & ~holding(B2);\n"
        ":horizon 0..8;\n", tight.domain)
    out = plan(tight.domain, crowded)
    assert isinstance(out, NoPlanUpTo) and out.max_horizon == 8


def test_walls_make_unreachable_landmarks_unusable():
    problem_text = (":init atRobo=L2 & atObj(B1)=L1 & ~holding(B1);\n"
                    ":goal atObj(B1)=L3 & ~holding(B1);\n"
                    ":horizon 0..8;\n:noconcurrency;\n")

    walled_world = parse_world("1.2#3")
    walled = build_robot_boxes(3, 1, walled_world)
    blocked = plan(walled.domain, parse_problem(problem_text, walled.domain),
                   walled.registry)
    assert isinstance(blocked, NoPlanUpTo) and blocked.max_horizon == 8

    # the same delivery goes through once the wall comes down
    open_bundle = build_robot_boxes(3, 1, parse_world("1.2.3"))
    assert isinstance(
        plan(open_bundle.domain, parse_problem(problem_text, open_bundle.domain),
             open_bundle.registry), PlanFound)

    # stronger than checking returned plans one by one: at every horizon
    # up to 8, no model of the encoding fires goto across the wall
    gd = ground(walled.domain, walled.registry)
    at_robo = next(c for c in walled.domain.constants if c.name == "atRobo")
    goto = next(c for c in walled.domain.constants if c.name == "goto")
    locs = ("L1", "L2", "L3")
    cut = [(x, y) for x in locs for y in locs
           if not walled_world.path_exists(x, y)]
    assert sorted(cut) == [("L1", "L3"), ("L2", "L3"), ("L3", "L1"), ("L3", "L2")]
    for h in range(1, 9):
        cnf = encode_problem(gd, TRUE, TRUE, [], h, noconcurrency=True).cnf()
        for t in range(h):
            for x, y in cut:
                here = cnf.index[TimedAtom(Atom(at_robo, (), x), t)]
                go = cnf.index[TimedAtom(Atom(goto, (y,), "true"), t)]
                assert not solve(cnf, assumptions=(here, go)).is_sat, (h, t, x, y)


def test_travel_time_deadline_prunes_plans():
    world = parse_world("1.2...3")  # L1-L2 takes 2 steps, L2-L3 takes 4
    assert world.time_estimate("L1", "L2") == 2
    assert world.time_estimate("L2", "L3") == 4
    bundle = build_robot_boxes(3, 1, world)
    costs = (parse_cost_spec("goto=timeEstimate(@atRobo,$0)"),)
    text = (":init atRobo=L1 & atObj(B1)=L2 & ~holding(B1);\n"
            ":goal atObj(B1)=L3 & ~holding(B1);\n"
            ":horizon 0..5;\n:maxcost 6;\n:noconcurrency;\n")
    problem = parse_problem(text, bundle.domain)

    res = plan(bundle.domain, problem, bundle.registry, costs=costs)
    assert isinstance(res, PlanFound)
    assert res.plan.cost == 6

    # price the plan again straight from the world's distance table
    recomputed = 0
    for step, before in zip(res.plan.steps, res.plan.trajectory):
        for name, args in step:
            if name == "goto":
                recomputed += world.time_estimate(before[("atRobo", ())], args[0])
    assert recomputed == 6 == res.plan.cost

    tighter = dataclasses.replace(problem, cost_deadline=5)
    assert isinstance(plan(bundle.domain, tighter, bundle.registry, costs=costs),
                      NoPlanUpTo)


def test_solver_agrees_with_truth_tables():
    t0 = time.monotonic()
    rng = random.Random(271828)
    for trial in range(1000):
        n = rng.randint(1, 16)
        clauses = []
        for _ in range(rng.randint(1, 60)):
            width = rng.randint(1, min(4, n))
            chosen = rng.sample(range(1, n + 1), width)
            clauses.append([v if rng.random() < 0.5 else -v for v in chosen])
        res = solve((n, clauses), seed=trial)
        assert res.is_sat == truth_table_sat(n, clauses), (trial, n, clauses)
        if res.is_sat:
            assert all(any(res.model[abs(l)] == (l > 0) for l in c)
                       for c in clauses)
    for holes in range(1, 5):
        n_vars, clauses = php_clauses(holes + 1, holes)
        assert not solve((n_vars, clauses), seed=holes).is_sat
    assert time.monotonic() - t0 < 30.0


def test_fixed_seed_runs_are_byte_identical(tmp_path):
    # The child runs in its own directory, so a relative PYTHONPATH (as in
    # ``PYTHONPATH=src``) would no longer find the package.  Put the root
    # of the package this process imported in front of the child's path.
    pythonpath = str(Path(causalplan.__file__).resolve().parent.parent)
    if os.environ.get("PYTHONPATH"):
        pythonpath += os.pathsep + os.environ["PYTHONPATH"]

    def run(tag, hash_seed):
        workdir = tmp_path / tag
        workdir.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=pythonpath)
        proc = subprocess.run(
            [sys.executable, "-m", "causalplan.cli", "demo", "toh",
             "--disks", "3", "--seed", "0",
             "--plan-out", "plan.txt", "--dimacs-out", "enc.cnf"],
            capture_output=True, text=True, env=env, cwd=workdir,
            timeout=120)
        assert proc.returncode == 0, proc.stderr
        return ((workdir / "plan.txt").read_bytes(),
                (workdir / "enc.cnf").read_bytes(), proc.stdout)

    plan_a, dimacs_a, out_a = run("a", "1")
    plan_b, dimacs_b, out_b = run("b", "9999")
    assert plan_a == plan_b
    assert dimacs_a == dimacs_b
    assert out_a == out_b
