"""Planning, prediction, consistency, plan validation, and the
enumeration oracles."""

import dataclasses
import math

import pytest

import sample_files
import toy_domains
from enumeration import freeze_state, oracle_paths, oracle_states, oracle_transitions
from causalplan import (NoPlanUpTo, Plan, PlanFound, check_consistency,
                        parse_domain, parse_problem, parse_query, parse_world,
                        plan, predict, registry_for, validate_plan)
from causalplan.domains import build_robot_boxes
from causalplan.grounding import ground
from causalplan.planner import (ActionCost, Consistent, FluentRef,
                                Inconsistent, ActionArg, parse_cost_spec,
                                plan_cost)


def domain_of(text):
    return parse_domain(text)


# --- consistency ------------------------------------------------------------------

@pytest.mark.parametrize("name", toy_domains.ALL_SMALL)
def test_toy_corpus_is_consistent(name):
    gd = toy_domains.load(name)
    verdict = check_consistency(gd.domain, toy_domains.registry_of(name))
    assert isinstance(verdict, Consistent)
    assert verdict.example_state  # a concrete witness comes back


def test_static_contradiction_is_level_0():
    d = domain_of("""
:constants p :: simpleFluent;
:laws
  caused p;
  constraint ~p;
""")
    verdict = check_consistency(d)
    assert isinstance(verdict, Inconsistent) and verdict.level == 0


def test_stuck_state_is_level_1():
    # every successor is demanded to be both true and false
    d = domain_of("""
:constants p :: simpleFluent;
:laws
  caused p after true;
  caused p=false after true;
""")
    verdict = check_consistency(d)
    assert isinstance(verdict, Inconsistent) and verdict.level == 1
    assert "transition" in verdict.message


# --- plan -------------------------------------------------------------------------

def boxes_problem(goal, domain, horizon="0..8", extra=""):
    return parse_problem(
        f":init atRobo=L2 & atObj(B1)=L1 & ~holding(B1);\n"
        f":goal {goal};\n:horizon {horizon};\n:noconcurrency;\n{extra}", domain)


def test_plan_finds_shortest_delivery():
    b = build_robot_boxes(2, 1)
    out = plan(b.domain, b.problem)
    assert isinstance(out, PlanFound) and out.horizon == 4
    assert out.plan.steps[0] == [("goto", ("L1",))]
    assert out.plan.steps[1] == [("pickup", ("B1",))]
    ok, issues = validate_plan(b.domain, b.problem, out.plan)
    assert ok, issues


def test_plan_zero_horizon_when_goal_already_holds():
    b = build_robot_boxes(2, 1)
    p = boxes_problem("atObj(B1)=L1", b.domain)
    out = plan(b.domain, p)
    assert isinstance(out, PlanFound) and out.horizon == 0
    assert out.plan.trajectory[0][("atRobo", ())] == "L2"


def test_plan_unreachable_goal_reports_bound():
    b = build_robot_boxes(2, 1)
    p = boxes_problem("holding(B1) & ~holding(B1)", b.domain, horizon="0..3")
    out = plan(b.domain, p)
    assert isinstance(out, NoPlanUpTo) and out.max_horizon == 3


def test_plan_respects_at_observations():
    b = build_robot_boxes(2, 1)
    p = boxes_problem("atObj(B1)=L2 & ~holding(B1)", b.domain,
                      extra=":at 1 ~pickup(B1);\n")
    out = plan(b.domain, p)
    assert isinstance(out, PlanFound)
    assert ("pickup", ("B1",)) not in out.plan.steps[1]
    ok, issues = validate_plan(b.domain, p, out.plan)
    assert ok, issues


def test_init_with_actions_forces_a_step():
    d = domain_of("""
:constants p :: inertialFluent; a :: action;
:laws
  inertial p;
  a causes p;
""")
    p = parse_problem(":init ~p & a;\n:goal p;\n:horizon 0..3;\n", d)
    out = plan(d, p)
    assert isinstance(out, PlanFound) and out.horizon == 1
    assert out.plan.steps[0] == [("a", ())]


def test_plan_seed_determinism():
    b = build_robot_boxes(3, 2)
    outs = [plan(b.domain, b.problem, seed=4) for _ in range(2)]
    assert outs[0].plan.steps == outs[1].plan.steps


def test_wait_steps_trimmed():
    d = domain_of("""
:constants p :: inertialFluent; a :: action;
:laws
  inertial p;
  a causes p;
""")
    p = parse_problem(":init ~p;\n:goal p;\n:horizon 2..5;\n", d)
    out = plan(d, p)
    assert isinstance(out, PlanFound)
    assert out.horizon == 2  # lo is respected, nothing beyond it survives
    assert out.plan.steps[0] == [("a", ())] or out.plan.steps[1] == [("a", ())]


# --- costs ------------------------------------------------------------------------

def corridor_bundle():
    world = parse_world("1.2...3")
    return build_robot_boxes(3, 1, world)


def corridor_problem(domain, deadline=None):
    text = (":init atRobo=L1 & atObj(B1)=L2 & ~holding(B1);\n"
            ":goal atObj(B1)=L3 & ~holding(B1);\n:horizon 0..5;\n:noconcurrency;\n")
    if deadline is not None:
        text += f":maxcost {deadline};\n"
    return parse_problem(text, domain)


GOTO_COST = "goto=timeEstimate(@atRobo,$0)"


def test_parse_cost_spec_shapes():
    spec = parse_cost_spec(GOTO_COST)
    assert spec.action == "goto" and spec.external == "timeEstimate"
    assert spec.args == (FluentRef("atRobo"), ActionArg(0))
    with pytest.raises(ValueError):
        parse_cost_spec("goto=")
    with pytest.raises(ValueError):
        parse_cost_spec("no equals sign")
    assert parse_cost_spec("goto=flat()").args == parse_cost_spec("goto=flat( )").args == ()
    assert parse_cost_spec("goto=f(@at(a,b), $0)").args == (FluentRef("at", ("a", "b")),
                                                            ActionArg(0))
    for bad in ("goto=f(a,)", "goto=f(a,,b)", "goto=f(,)"):
        with pytest.raises(ValueError, match="bad cost argument ''"):
            parse_cost_spec(bad)


def test_plan_cost_sums_charges():
    b = corridor_bundle()
    out = plan(b.domain, corridor_problem(b.domain), b.registry,
               costs=(parse_cost_spec(GOTO_COST),))
    assert isinstance(out, PlanFound)
    assert out.plan.cost == 6  # 2 to the box plus 4 to the drop-off


def test_cost_deadline_met_and_missed():
    b = corridor_bundle()
    costs = (parse_cost_spec(GOTO_COST),)
    ok = plan(b.domain, corridor_problem(b.domain, deadline=6), b.registry, costs=costs)
    assert isinstance(ok, PlanFound) and ok.plan.cost == 6
    miss = plan(b.domain, corridor_problem(b.domain, deadline=5), b.registry, costs=costs)
    assert isinstance(miss, NoPlanUpTo)


def test_deadline_without_cost_model_rejected():
    b = corridor_bundle()
    with pytest.raises(ValueError):
        plan(b.domain, corridor_problem(b.domain, deadline=6), b.registry)


def test_cost_model_for_an_undeclared_action_is_refused():
    # a cost model names its action by the declared name; any other name
    # would charge nothing, so plan and validate_plan refuse it, deadline
    # or not
    b = corridor_bundle()
    costs = (parse_cost_spec("Goto=timeEstimate(@atRobo,$0)"),)
    found = plan(b.domain, corridor_problem(b.domain), b.registry).plan
    for deadline in (None, 1):
        prob = corridor_problem(b.domain, deadline=deadline)
        with pytest.raises(ValueError, match="cost model charges unknown action 'Goto'"):
            plan(b.domain, prob, b.registry, costs=costs)
        with pytest.raises(ValueError, match="cost model charges unknown action 'Goto'"):
            validate_plan(b.domain, prob, found, b.registry, costs=costs)


def test_unreachable_charge_is_infinite():
    world = parse_world("1#2")
    reg = registry_for(world)
    p = Plan([[("goto", ("L2",))]],
             [{("atRobo", ()): "L1"}, {("atRobo", ()): "L2"}])
    charge = plan_cost(p, (parse_cost_spec(GOTO_COST),), reg)
    assert charge == math.inf


# --- predict ----------------------------------------------------------------------

def test_predict_unique_deterministic_outcome():
    gd = toy_domains.load("toggle")
    res = predict(gd.domain, {("b", ()): "false"}, [[("flip", ())]])
    assert len(res.outcomes) == 1
    assert res.outcomes[0][1] == {("b", ()): "true"}


def test_predict_branches_on_exogenous_fluent():
    gd = toy_domains.load("weather")
    res = predict(gd.domain, {("rain", ()): "false", ("wet", ()): "false"}, [[]])
    finals = {freeze_state(tr[-1]) for tr in res.outcomes}
    assert len(finals) == 2  # rain may start or not; wet follows


def test_predict_partial_state_completes():
    b = build_robot_boxes(2, 1)
    res = predict(b.domain, parse_problem(":init atRobo=L1 & holding(B1);\n", b.domain).init,
                  [[("goto", ("L2",))]])
    assert len(res.outcomes) == 1
    final = res.outcomes[0][-1]
    assert final[("atObj", ("B1",))] == "L2"


def test_predict_inexecutable_gives_no_outcomes():
    gd = toy_domains.load("counter")
    res = predict(gd.domain, {("v", ()): "z2"}, [[("inc", ())]])
    assert res.outcomes == []


def test_predict_rejects_unknown_action():
    gd = toy_domains.load("toggle")
    with pytest.raises(ValueError):
        predict(gd.domain, {("b", ()): "false"}, [[("warp", ())]])


def test_predict_limit_gives_distinct_outcomes_of_the_full_set():
    # a partial start with several completions: each limit k gives k
    # different outcomes, all of them among the unlimited ones, and the
    # unlimited ones are exactly the oracle's trajectories
    domain = parse_domain((sample_files.samples_dir() / "boxes.cp").read_text())
    init, steps = parse_query(":state atRobo=L1;\n:do goto(L2);\n", domain)

    def key(trajectory):
        return tuple(map(freeze_state, trajectory))

    full = [key(tr) for tr in predict(domain, init, steps).outcomes]
    want = {(p[0], p[2]) for p in oracle_paths(ground(domain), 1)
            if ("atRobo", (), "L1") in p[0] and p[1] == frozenset({("goto", ("L2",))})}
    assert len(full) == len(set(full)) == len(want) > 1
    assert set(full) == want
    for k in range(1, len(full) + 1):
        got = [key(tr) for tr in predict(domain, init, steps, limit=k).outcomes]
        assert len(set(got)) == len(got) == k
        assert set(got) <= set(full)


@pytest.mark.parametrize("limit", [0, -2])
def test_predict_rejects_nonpositive_limit(limit):
    gd = toy_domains.load("toggle")
    with pytest.raises(ValueError, match="limit"):
        predict(gd.domain, {("b", ()): "false"}, [[("flip", ())]], limit=limit)


# --- validate_plan ----------------------------------------------------------------

def test_validate_rejects_teleporting_box():
    b = build_robot_boxes(2, 1)
    good = plan(b.domain, b.problem).plan
    bad = Plan([list(s) for s in good.steps],
               [dict(s) for s in good.trajectory])
    bad.trajectory[1][("atObj", ("B1",))] = "L2"  # box jumps with nobody holding it
    ok, issues = validate_plan(b.domain, b.problem, bad)
    assert not ok and issues


def test_validate_rejects_goal_miss():
    b = build_robot_boxes(2, 1)
    good = plan(b.domain, b.problem).plan
    short = Plan(good.steps[:1], good.trajectory[:2])
    ok, issues = validate_plan(b.domain, b.problem, short)
    assert not ok
    assert any("goal" in i for i in issues)


def test_validate_rejects_concurrency_when_banned():
    d = domain_of("""
:constants p :: inertialFluent; a :: action; b :: action;
:laws
  inertial p;
  a causes p; b causes p;
""")
    prob = parse_problem(":init ~p;\n:goal p;\n:horizon 0..2;\n:noconcurrency;\n", d)
    p2 = Plan([[("a", ()), ("b", ())]],
              [{("p", ()): "false"}, {("p", ()): "true"}])
    ok, issues = validate_plan(d, prob, p2)
    assert not ok


def test_validate_rejects_bad_values_and_shapes():
    b = build_robot_boxes(2, 1)
    good = plan(b.domain, b.problem).plan
    wrong_value = Plan([list(s) for s in good.steps],
                       [dict(s) for s in good.trajectory])
    wrong_value.trajectory[0][("atRobo", ())] = "L9"
    ok, issues = validate_plan(b.domain, b.problem, wrong_value)
    assert not ok and any("L9" in i for i in issues)

    missing = Plan([list(s) for s in good.steps],
                   [dict(s) for s in good.trajectory])
    del missing.trajectory[2][("holding", ("B1",))]
    ok, issues = validate_plan(b.domain, b.problem, missing)
    assert not ok


def test_validate_checks_cost_deadline():
    b = corridor_bundle()
    prob = corridor_problem(b.domain, deadline=6)
    costs = (parse_cost_spec(GOTO_COST),)
    found = plan(b.domain, prob, b.registry, costs=costs).plan
    ok, issues = validate_plan(b.domain, prob, found, b.registry, costs=costs)
    assert ok, issues
    tight = corridor_problem(b.domain, deadline=5)
    ok, issues = validate_plan(b.domain, tight, found, b.registry, costs=costs)
    assert not ok and any("cost" in i or "deadline" in i for i in issues)


# --- enumeration oracles -----------------------------------------------------------

def test_oracle_states_pq():
    gd = toy_domains.load("pq")
    states = oracle_states(gd)
    flat = {tuple(sorted(s.values())) for s in states}
    assert flat == {("true", "true"), ("false", "false")}


def test_oracle_transitions_toggle_by_hand():
    gd = toy_domains.load("toggle")
    got = set(oracle_transitions(gd))
    f = lambda v: frozenset({("b", (), v)})
    flip = frozenset({("flip", ())})
    wait = frozenset()
    assert got == {
        (f("false"), wait, f("false")),
        (f("false"), flip, f("true")),
        (f("true"), wait, f("true")),
        (f("true"), flip, f("false")),
    }


def test_oracle_transitions_respects_noconcurrency():
    gd = toy_domains.load("gate")
    free = oracle_transitions(gd)
    seq = oracle_transitions(gd, noconcurrency=True)
    assert any(len(acts) == 2 for _, acts, _ in free)
    assert all(len(acts) <= 1 for _, acts, _ in seq)


def test_oracle_paths_compose_transitions():
    gd = toy_domains.load("toggle")
    paths = oracle_paths(gd, 2)
    assert len(paths) == 8  # 2 states x 2 choices x 2 choices
    starts = {p[0] for p in paths}
    assert len(starts) == 2
    # every adjacent window of a path is itself a transition
    trans = set(oracle_transitions(gd))
    for p in paths:
        assert (p[0], p[1], p[2]) in trans and (p[2], p[3], p[4]) in trans


def test_oracle_paths_h0_is_the_state_set():
    gd = toy_domains.load("pq")
    assert {p[0] for p in oracle_paths(gd, 0)} == \
        {freeze_state(s) for s in oracle_states(gd)}
