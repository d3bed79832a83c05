"""The law-level check (semantics.py) against the completion.

Two oracles enumerate states and transitions here: enumeration.py keeps
the assignments that satisfy the symbolic completion, and law_states /
law_transitions below keep those that semantics.check_trajectory finds
no fault in.  They share nothing below the ground laws, so they must
agree on every domain, including where the completion reads a Boolean's
false face leniently.  The mutation tests hold validate_plan, which uses
the law-level check, to the completion's verdict on plans with one
value or one action changed.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import HealthCheck, given, settings

import sample_files
import toy_domains
from enumeration import freeze_state, oracle_states, oracle_transitions, window_truth
from test_parser import domains
from causalplan import (Plan, ParseError, parse_domain, parse_problem, parse_world,
                        plan, registry_for, validate_plan)
from causalplan.compiler import completion_for, eval_completion
from causalplan.domains import build_mapp, build_robot_boxes, build_toh
from causalplan.grounding import GroundDomain, GroundingError, ground
from causalplan.model import FALSE, TRUE, Atom, AtomF, Caused, Constraint, PlanningProblem
from causalplan.planner import parse_cost_spec
from causalplan.semantics import NOCONCURRENCY, UNIVERSAL_CAUSATION, check_trajectory


# --- a second enumeration oracle ---------------------------------------------------

def _assignments(gd: GroundDomain):
    keys = [(c.name, args) for c, args in gd.fluent_instances]
    values = [("false", "true") if c.is_boolean else c.value_sort.members
              for c, _ in gd.fluent_instances]
    for choice in itertools.product(*values):
        yield dict(zip(keys, choice))


def law_states(gd: GroundDomain) -> set:
    return {freeze_state(s) for s in _assignments(gd) if not check_trajectory(gd, [s], [])}


def law_transitions(gd: GroundDomain, *, noconcurrency: bool = False) -> set:
    """(state, action set, successor) triples that the law-level check
    accepts.  A fault at step 0 reads only the first state and the action
    set, so a pair that has one is dropped before its successors are
    tried."""
    insts = gd.action_instances
    subsets = [frozenset(i for i, on in zip(insts, mask) if on)
               for mask in itertools.product((False, True), repeat=len(insts))]
    candidates = list(_assignments(gd))
    out = set()
    for s0 in candidates:
        for acts in subsets:
            first = check_trajectory(gd, [s0, s0], [acts], noconcurrency=noconcurrency)
            if any(v.step == 0 for v in first):
                continue
            for s1 in candidates:
                if not check_trajectory(gd, [s0, s1], [acts], noconcurrency=noconcurrency):
                    out.add((freeze_state(s0), acts, freeze_state(s1)))
    return out


def _assert_oracles_agree(gd: GroundDomain, *, noconcurrency: bool = False):
    # the completion's oracles first: they refuse a domain too large to
    # enumerate
    states = {freeze_state(s) for s in oracle_states(gd)}
    transitions = set(oracle_transitions(gd, noconcurrency=noconcurrency))
    assert law_states(gd) == states
    assert law_transitions(gd, noconcurrency=noconcurrency) == transitions


@pytest.mark.parametrize("noconcurrency", [False, True])
@pytest.mark.parametrize("name", toy_domains.ALL_SMALL)
def test_law_check_enumerates_the_completions_states_and_transitions(name, noconcurrency):
    _assert_oracles_agree(toy_domains.load(name), noconcurrency=noconcurrency)


# Each pair differs only in a law whose false-face head has a body that is
# contradictory as written.  The completion drops such a body, so the face
# stays unruled; the law-level check must read it the same way.
LENIENT = {
    "effect-if-contradiction": """
:constants f0 :: inertialFluent; f1 :: simpleFluent; a0 :: action;
:laws
  inertial f0;
  caused f1 if f0;
  a0 causes f1=false if ~f0 & f0;
""",
    "static-contradiction": """
:constants p :: simpleFluent; q :: simpleFluent;
:laws
  caused p if q; caused q if q; caused q=false if ~q;
  caused p=false if q & ~q;
""",
    "static-false": """
:constants p :: simpleFluent; q :: simpleFluent;
:laws
  caused p if q; caused q if q; caused q=false if ~q;
  caused p=false if false;
""",
}


@pytest.mark.parametrize("name", sorted(LENIENT))
def test_a_contradictory_body_leaves_a_false_face_unruled(name):
    gd = ground(parse_domain(LENIENT[name]))
    _assert_oracles_agree(gd)
    _assert_oracles_agree(gd, noconcurrency=True)
    if name != "effect-if-contradiction":
        # p is free when q is false: a ruled false face would pin it false
        assert len(law_states(gd)) == 2


def test_ruled_false_face_must_be_caused():
    # the same law with a body that can hold rules p's false face
    gd = ground(parse_domain("""
:constants p :: simpleFluent; q :: simpleFluent;
:laws
  caused p if q; caused q if q; caused q=false if ~q;
  caused p=false if q & ~p;
"""))
    _assert_oracles_agree(gd)
    assert len(law_states(gd)) == 1


def test_a_callers_law_that_can_never_fire_is_checked_as_given():
    # ground() drops such laws; one passed as a rule of its own stays a
    # law that never fires
    d = parse_domain(":constants p :: inertialFluent; q :: simpleFluent;\n"
                     ":laws\n  inertial p;\n  caused q if p;\n")
    q = Atom(d.constant_by_key[("q", 0)], (), "true")
    extra = (Caused(q, FALSE), Constraint(TRUE))
    base = ground(d)
    gd = GroundDomain(d, tuple((law, ()) for law in base.laws + extra))
    assert gd.laws[-2:] == extra
    _assert_oracles_agree(gd)
    for s in _assignments(gd):
        assert check_trajectory(gd, [s], []) == check_trajectory(base, [s], [])


def test_static_law_with_an_action_head():
    # validation refuses such a law; the ground domain is built directly,
    # as a library caller could, to hold both routes to one reading
    d = parse_domain("""
:constants b :: inertialFluent; flip :: action; stop :: action;
:laws
  inertial b;
  flip causes b if ~b;
  flip causes b=false if b;
""")
    flip, stop, b = (Atom(d.constant_by_key[(n, 0)], (), "true") for n in ("flip", "stop", "b"))
    extra = (Caused(flip, AtomF(b)), Caused(Atom(stop.constant, (), "false"), AtomF(b)))
    gd = GroundDomain(d, tuple((law, ()) for law in ground(d).laws + extra))
    _assert_oracles_agree(gd)
    _assert_oracles_agree(gd, noconcurrency=True)
    v = check_trajectory(gd, [{("b", ()): "true"}, {("b", ()): "true"}], [{("stop", ())}])
    assert [(x.step, x.action, x.law) for x in v][:2] == [(0, True, extra[0]), (0, True, extra[1])]


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(domains())
def test_law_check_agrees_with_the_completion_on_random_domains(text):
    try:
        gd = ground(parse_domain(text))
        _assert_oracles_agree(gd)
    except (ParseError, GroundingError):
        return  # the generator may draw clashing names
    except ValueError as e:
        if "enumerat" not in str(e):
            raise  # only the oracle's size guard may refuse a domain


# --- one value or one action changed ------------------------------------------------

def _mutants(gd: GroundDomain, p: Plan):
    """p with one fluent value at one state changed, or one action added to
    or dropped from one step, in a fixed order."""
    for t, state in enumerate(p.trajectory):
        for c, args in gd.fluent_instances:
            key = (c.name, args)
            for v in ("false", "true") if c.is_boolean else c.value_sort.members:
                if v != state[key]:
                    states = [dict(s) for s in p.trajectory]
                    states[t][key] = v
                    yield Plan([list(s) for s in p.steps], states)
    for t, step in enumerate(p.steps):
        for inst in gd.action_instances:
            steps = [list(s) for s in p.steps]
            steps[t] = sorted(set(step) ^ {inst})
            yield Plan(steps, [dict(s) for s in p.trajectory])


def _grid_bundle():
    samples = sample_files.samples_dir()
    world = parse_world((samples / "corridor.world").read_text())
    domain = parse_domain((samples / "boxes-grid.cp").read_text(), "boxes-grid.cp")
    problem = parse_problem((samples / "boxes-grid.prob").read_text(), domain)
    return domain, problem, registry_for(world), (parse_cost_spec("goto=timeEstimate(@atRobo,$0)"),)


def _bundle(name):
    if name == "boxes-grid":
        return _grid_bundle()
    b = {"toh3": lambda: build_toh(3),
         "boxes-m2n1": lambda: build_robot_boxes(2, 1),
         "mapp-3x3": lambda: build_mapp(parse_world("1..\n...\n..2"), 2,
                                        ["L1", "L2"], ["L2", "L1"])}[name]()
    return b.domain, b.problem, b.registry, ()


@pytest.mark.parametrize("name", ["toh3", "boxes-m2n1", "mapp-3x3", "boxes-grid"])
def test_every_single_mutation_gets_the_completions_verdict(name):
    domain, problem, registry, costs = _bundle(name)
    found = plan(domain, problem, registry, costs=costs).plan
    gd = ground(domain, registry)
    # no initial condition or goal, so validate_plan judges the laws alone
    open_problem = PlanningProblem(horizon=(0, found.horizon),
                                   noconcurrency=problem.noconcurrency)
    assert validate_plan(domain, open_problem, found, registry, costs=costs) == (True, [])
    formulas = completion_for(gd, found.horizon, noconcurrency=problem.noconcurrency)
    verdicts = []
    for m in _mutants(gd, found):
        ok, issues = validate_plan(domain, open_problem, m, registry, costs=costs)
        steps = [set(s) for s in m.steps]
        want = eval_completion(formulas, window_truth(m.trajectory, steps)) is None
        assert ok == want, (m, issues)
        assert ok == (not check_trajectory(gd, m.trajectory, steps,
                                           noconcurrency=problem.noconcurrency))
        verdicts.append(ok)
    assert verdicts and not all(verdicts)


# --- what a violation says ------------------------------------------------------------

def test_a_changed_move_names_the_step_and_the_law():
    samples = sample_files.samples_dir()
    domain = parse_domain((samples / "toh.cp").read_text(), "toh.cp")
    problem = parse_problem((samples / "toh.prob").read_text(), domain)
    found = plan(domain, problem).plan
    # the first move puts D1 on P2 instead of P3 and the trajectory is kept
    assert found.steps[0] == [("move", ("D1", "P3"))]
    steps = [list(s) for s in found.steps]
    steps[0] = [("move", ("D1", "P2"))]
    ok, issues = validate_plan(domain, problem, Plan(steps, found.trajectory))
    assert not ok
    line = next(l for l, law in enumerate((samples / "toh.cp").read_text().splitlines(), 1)
                if "move(d, p) causes on(d)=p" in law)
    assert issues == [
        f"state 1: toh.cp:{line}:3: 'move(D1, P2) causes on(D1)=P2;' "
        "causes on(D1)=P2, which does not hold",
        f"state 1: {UNIVERSAL_CAUSATION}: on(D1)=P3 holds, but no law causes it",
    ]


def test_issues_are_those_of_the_first_step_that_breaks_a_law():
    d = parse_domain("""
:constants p :: inertialFluent; a :: action; b :: action;
:laws
  inertial p;
  a causes p; b causes p;
""")
    prob = parse_problem(":init ~p;\n:goal p;\n:horizon 0..2;\n:noconcurrency;\n", d)
    both = [("a", ()), ("b", ())]
    p = Plan([both, both], [{("p", ()): "false"}, {("p", ()): "true"}, {("p", ()): "true"}])
    gd = ground(d)
    every = check_trajectory(gd, p.trajectory, p.steps, noconcurrency=True)
    assert [(v.step, v.action, v.rule) for v in every] == \
        [(0, True, NOCONCURRENCY), (1, True, NOCONCURRENCY)]
    ok, issues = validate_plan(d, prob, p)
    assert not ok and issues == [f"step 0: {NOCONCURRENCY}: a and b occur together"]
