"""Planning, prediction, and consistency queries.

Everything here sits on top of the compiler: a query builds the
completion encoding, asserts its own formulas on top (initial state,
goal, observations), and hands the clauses to the embedded solver.
Planning deepens the horizon one step at a time on one growing
encoding and one solver, which keeps what it learnt: each horizon adds
a step, and what holds only while h is the last step (the goal, :at
final constraints and the cost bound) is assumed by h's solve call
rather than given as clauses.  The solve call assumes h's activation
literal, then the literals of each of those conditions that is a
conjunction of literals, then the cost bound; a condition that is not
(a disjunction, or false) is given as clauses that carry the negation
of h's activation literal, which the next horizon retires.  Every
clause the solver learns follows from the given clauses alone, so it
stays valid at every later horizon, and one learnt from an assumed
literal, not from a guarded clause, keeps pruning there.  A cost
deadline is encoded too (charges.ChargeCounter), so every horizon is
one solve call, and plan_cost prices the plan found on its own.
check_consistency asks horizon 0 and then 1 the same way.  predict
grows the encoding to its one horizon, loads it into its solver with
the activation literal asserted, and enumerates the models there,
blocking the fluent values of each.  decode_model reads every model
through the encoding's rows.  validate_plan checks a trajectory law by
law (semantics.py), with no completion, clause or solver.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .charges import ChargeCounter
# compile_cnf, completion_for, eval_completion and sat_solve are not
# called here, but stay importable from this module: tools that trace its
# layers hook them by name
from .compiler import Encoder, compile_cnf, completion_for, eval_completion
from .grounding import ExternalRegistry, GroundDomain, close_formula, ground
from .model import (FINAL, ActionArg, ActionCost, Atom, AtomF,
                    DomainDescription, FluentRef, Formula, GroundInstance,
                    PlanningProblem, State, charge, conj, eval_formula,
                    instance_str, mentions_action, split_top_level)
from .sat import Solver, enumerate_models
from .sat import solve as sat_solve
from .semantics import _valuation, check_trajectory

__all__ = [
    "ActionArg", "ActionCost", "Consistent", "FluentRef", "Inconsistent",
    "NoPlanUpTo", "Plan", "PlanFound", "Predicted", "check_consistency",
    "close_problem", "decode_model", "encode_problem", "parse_cost_spec",
    "plan", "plan_cost", "predict", "validate_plan",
]


# --- results ------------------------------------------------------------------

@dataclass
class Plan:
    """Concurrent plan: steps[t] are the actions taken between state t and
    t+1, trajectory has one more entry than steps."""

    steps: list[list[GroundInstance]]
    trajectory: list[State]
    cost: int | None = None

    @property
    def horizon(self) -> int:
        return len(self.steps)


@dataclass
class PlanFound:
    plan: Plan
    horizon: int


@dataclass
class NoPlanUpTo:
    max_horizon: int


@dataclass
class Consistent:
    example_state: State


@dataclass
class Inconsistent:
    level: int  # 0: no state satisfies the static laws, 1: no transition exists
    message: str


@dataclass
class Predicted:
    steps: list[list[GroundInstance]]
    outcomes: list[list[State]]  # one trajectory per consistent completion


# --- action costs -------------------------------------------------------------

def parse_cost_spec(text: str) -> ActionCost:
    """Parse 'action=external(arg, ...)' where an arg is @fluent, @fluent(a,b),
    $N (action argument index), or a literal object name."""
    m = re.fullmatch(r"\s*(\w+)\s*=\s*(\w+)\s*\((.*)\)\s*", text, re.S)
    if not m:
        raise ValueError(f"bad cost spec {text!r}; expected action=external(args)")
    action, external, argtext = m.groups()
    args: list = []
    for raw in split_top_level(argtext) if argtext.strip() else []:
        raw = raw.strip()
        if raw.startswith("$"):
            try:
                args.append(ActionArg(int(raw[1:])))
            except ValueError:
                raise ValueError(f"bad action-argument reference {raw!r}") from None
        elif raw.startswith("@"):
            fm = re.fullmatch(r"@(\w+)(?:\(([^()]*)\))?", raw)
            if not fm:
                raise ValueError(f"bad fluent reference {raw!r}")
            fargs = tuple(a.strip() for a in fm.group(2).split(",")) if fm.group(2) else ()
            args.append(FluentRef(fm.group(1), fargs))
        elif re.fullmatch(r"\w+", raw):
            args.append(raw)
        else:
            raise ValueError(f"bad cost argument {raw!r}")
    return ActionCost(action, external, tuple(args))


def plan_cost(plan: Plan, costs, registry: ExternalRegistry) -> int | float:
    """Total cost, or inf when some charge evaluates to None (infeasible).
    A charge must be a nonnegative integer, as ChargeCounter requires."""
    total = 0
    for t, step in enumerate(plan.steps):
        state = plan.trajectory[t]
        for name, args in step:
            for ac in costs:
                if ac.action == name:
                    got = charge(ac, args, state, registry)
                    if got is None:
                        return math.inf
                    total += got
    return total


def check_cost_actions(domain: DomainDescription, costs) -> None:
    """Refuse a cost model for an action the domain does not declare,
    which would otherwise charge nothing."""
    declared = {c.name for c in domain.actions()}
    for ac in costs:
        if ac.action not in declared:
            raise ValueError(f"cost model charges unknown action '{ac.action}'")


# --- model decoding -----------------------------------------------------------

def decode_model(layout, model) -> Plan:
    """Turn a satisfying assignment into states plus per-step action sets.
    model must be indexable by variable number; layout is the Encoder or
    CnfFormula that the model satisfies, whose rows place each step."""
    gd, rows = layout.ground, layout.rows
    trajectory: list[State] = []
    for row in rows:
        state: State = {}
        for key, boolean, values in gd.fluent_slots:
            if boolean:
                state[key] = "true" if model[row[values[0][1]]] else "false"
            else:
                state[key] = next(v for v, p in values if model[row[p]])
        trajectory.append(state)
    nf = len(gd.fluent_atoms)
    steps = [sorted(k for k, v in zip(gd.action_instances, row[nf:]) if model[v])
             for row in rows[:-1]]
    return Plan(steps, trajectory)


def _state_formula(domain: DomainDescription, state: State) -> Formula:
    parts = []
    for (name, args), value in sorted(state.items()):
        c = domain.constant_by_key[(name, len(args))]
        parts.append(AtomF(Atom(c, tuple(args), value)))
    return conj(parts)


# --- queries ------------------------------------------------------------------

class _Deepening:
    """One encoding and one solver that grow together."""

    def __init__(self, gd: GroundDomain, horizon: int, *, noconcurrency: bool, seed: int):
        self.enc = Encoder(gd, horizon, noconcurrency=noconcurrency)
        self.solver = Solver(0, (), seed=seed)
        self.loaded = 0

    def load(self) -> None:
        """Hand the solver what the encoder added since the last load."""
        enc = self.enc
        self.solver.extend(enc.var_count, enc.clauses[self.loaded:])
        self.loaded = len(enc.clauses)

    def solve(self, assumed=(), **limits):
        """Solve the current horizon: load, then assume the activation
        literal and then assumed.  A retired horizon's clauses stay
        loaded, satisfied at level 0, and never propagate."""
        self.load()
        return self.solver.solve([self.enc.active, *assumed], **limits)


def check_consistency(domain: DomainDescription,
                      registry: ExternalRegistry | None = None,
                      *, seed: int = 0) -> Consistent | Inconsistent:
    """Level 0: do any states exist?  Level 1: does any state have an
    outgoing transition?  Both ask one solver, grown from horizon 0 to 1."""
    gd = ground(domain, registry)
    search = _Deepening(gd, 0, noconcurrency=False, seed=seed)
    res0 = search.solve()
    if not res0.is_sat:
        return Inconsistent(0, "the static laws admit no state")
    example = decode_model(search.enc, res0.model).trajectory[0]
    search.enc.extend()
    if not search.solve().is_sat:
        return Inconsistent(1, "states exist but none has an outgoing transition")
    return Consistent(example)


def close_problem(domain: DomainDescription, problem: PlanningProblem,
                  registry: ExternalRegistry | None = None):
    """Close the problem formulas over externals and squeeze the horizon
    window: a formula that mentions actions at step k forces at least k+1
    steps.  Returns (init, goal, extras, lo, hi)."""
    init = close_formula(problem.init, registry=registry)
    goal = close_formula(problem.goal, registry=registry)
    extras = [(when, close_formula(f, registry=registry)) for when, f in problem.extra]
    if mentions_action(goal):
        raise ValueError("the goal may not mention actions")
    lo, hi = problem.horizon
    if mentions_action(init):
        lo = max(lo, 1)
    for when, f in extras:
        if when == FINAL:
            if mentions_action(f):
                raise ValueError("a final-step constraint may not mention actions")
        else:
            lo = max(lo, when + 1 if mentions_action(f) else when)
    return init, goal, extras, lo, hi


def encode_problem(gd: GroundDomain, init: Formula, goal: Formula, extras,
                   h: int, *, noconcurrency: bool = False) -> Encoder:
    """The encoding of a closed problem at horizon h, ready for cnf()."""
    enc = Encoder(gd, h, noconcurrency=noconcurrency)
    enc.assert_formula(init, 0)
    enc.assert_formula(goal, h)
    for when, f in extras:
        enc.assert_formula(f, h if when == FINAL else when)
    return enc


def plan(domain: DomainDescription, problem: PlanningProblem,
         registry: ExternalRegistry | None = None, *, costs=(), seed: int = 0,
         max_conflicts: int | None = None,
         max_seconds: float | None = None) -> PlanFound | NoPlanUpTo:
    """Iterative-deepening plan search over problem.horizon, on one solver,
    for domain ground against registry.

    Horizon h solves assuming h's activation literal and the literals of
    the goal and of each :at final constraint whose DNF is one
    conjunction of literals, in increasing variable order; any other of
    these conditions is asserted as clauses under h's activation
    literal.  On UNSAT, h's literal is retired and step h + 1 added.
    With a cost deadline, a ChargeCounter evaluates the cost model's
    charges before the search (so its errors surface even if no plan
    would use the action) and sums them in the encoding, and h's solve
    also assumes that the sum stays within the deadline.  Whenever costs
    are given, plan_cost prices the plan found; a price over the deadline
    would be an internal error.  Resource limits apply per solve call and
    surface as sat.ResourceLimit.
    """
    gd = ground(domain, registry)
    init, goal, extras, lo, hi = close_problem(domain, problem, registry)
    if problem.cost_deadline is not None and not costs:
        raise ValueError("the problem sets a cost deadline but no cost model was given")
    if costs and registry is None:
        raise ValueError("a cost model needs an external registry to evaluate charges")
    check_cost_actions(domain, costs)
    if lo > hi:
        return NoPlanUpTo(hi)

    counter = None
    if problem.cost_deadline is not None:
        counter = ChargeCounter(gd, costs, registry, problem.cost_deadline)
    search = _Deepening(gd, lo, noconcurrency=problem.noconcurrency, seed=seed)
    enc = search.enc
    enc.assert_formula(init, 0)
    for when, f in extras:
        if when != FINAL:
            enc.assert_formula(f, when)
    finals = [f for when, f in extras if when == FINAL]
    for h in range(lo, hi + 1):
        if h > lo:
            enc.extend()
        assumed: list[int] = []
        for f in [goal, *finals]:
            lits = enc.literals(f, h)
            if lits is None:
                enc.assert_formula(f, h, guard=enc.active)
            else:
                assumed += lits
        if counter is not None:
            bound = counter.update(enc)
            if bound is not None:
                assumed.append(bound)
        res = search.solve(assumed, max_conflicts=max_conflicts, max_seconds=max_seconds)
        if not res.is_sat:
            continue
        found = decode_model(enc, res.model)
        if costs:
            price = plan_cost(found, costs, registry)
            if problem.cost_deadline is not None and price > problem.cost_deadline:
                raise AssertionError(f"internal error: plan cost {price} exceeds "
                                     f"the deadline {problem.cost_deadline}")
            found.cost = None if price == math.inf else price
        return PlanFound(found, found.horizon)
    return NoPlanUpTo(hi)


def predict(domain: DomainDescription, init, actions,
            registry: ExternalRegistry | None = None, *, seed: int = 0,
            limit: int | None = None) -> Predicted:
    """All trajectories consistent with the initial condition and the given
    action schedule.  init is a formula (possibly partial) or a state dict;
    actions is one collection of ground action instances per step, empty
    for a wait step.  No outcomes means the schedule is not executable."""
    if limit is not None and limit < 1:
        raise ValueError(f"the outcome limit must be at least 1, got {limit}")
    gd = ground(domain, registry)
    if isinstance(init, dict):
        init = _state_formula(domain, init)
    init = close_formula(init, registry=registry)

    declared = set(gd.action_instances)
    steps: list[list[GroundInstance]] = []
    for step in actions:
        insts = [(name, tuple(args)) for name, args in step]
        for inst in insts:
            if inst not in declared:
                raise ValueError(f"unknown action instance {instance_str(inst)}")
        steps.append(sorted(insts))
    h = len(steps)

    search = _Deepening(gd, h, noconcurrency=False, seed=seed)
    enc = search.enc
    enc.assert_formula(init, 0)
    nf = len(gd.fluent_atoms)
    for row, step in zip(enc.rows, steps):
        want = set(step)
        enc.clauses += [(l,) for l in sorted(v if inst in want else -v
                                             for inst, v in zip(gd.action_instances, row[nf:]))]
    enc.clauses.append((enc.active,))  # the horizon never grows
    search.load()

    # the schedule fixes every action variable, so blocking the fluent
    # values seen blocks exactly the trajectories seen
    fluents = [v for row in enc.rows for v in row[:nf]]
    outcomes = [decode_model(enc, model).trajectory
                for model in enumerate_models(search.solver, fluents, limit=limit)]
    outcomes.sort(key=lambda tr: [sorted(s.items()) for s in tr])
    return Predicted(steps, outcomes)


def validate_plan(domain: DomainDescription, problem: PlanningProblem, p: Plan,
                  registry: ExternalRegistry | None = None,
                  *, costs=()) -> tuple[bool, list[str]]:
    """Check a plan by evaluating every ground law at every step
    (semantics.check_trajectory), then the problem's formulas and cost
    deadline.  Neither the completion, the clauses nor the solver is
    involved, so this is a route independent of the one that finds plans.
    Of the laws the plan breaks, only those of the first step at which it
    breaks one are reported, each with its step and its law or built-in
    rule; later faults often follow from that one.  As in plan, a cost
    model for an action the domain does not declare raises ValueError."""
    check_cost_actions(domain, costs)
    issues: list[str] = []
    gd = ground(domain, registry)
    h = len(p.steps)
    if len(p.trajectory) != h + 1:
        return False, [f"trajectory has {len(p.trajectory)} states for {h} steps"]

    instances = {(c.name, args): c for c, args in gd.fluent_instances}
    for t, state in enumerate(p.trajectory):
        for key, c in instances.items():
            v = state.get(key)
            legal = ("false", "true") if c.is_boolean else c.value_sort.members
            if v is None:
                issues.append(f"state {t} has no value for {instance_str(key)}")
            elif v not in legal:
                issues.append(f"state {t}: {instance_str(key)}={v} is not a legal value")
        for key in state:
            if key not in instances:
                issues.append(f"state {t} mentions unknown fluent {instance_str(key)}")
    declared = set(gd.action_instances)
    step_sets: list[set[GroundInstance]] = []
    for t, step in enumerate(p.steps):
        insts = {(name, tuple(args)) for name, args in step}
        for inst in insts - declared:
            issues.append(f"step {t} uses unknown action {instance_str(inst)}")
        step_sets.append(insts)
    if issues:
        return False, issues

    broken = check_trajectory(gd, p.trajectory, step_sets,
                              noconcurrency=problem.noconcurrency)
    issues += [str(v) for v in broken if v.step == broken[0].step]

    def holds(f: Formula, step: int, label: str) -> bool:
        if mentions_action(f) and step >= h:
            issues.append(f"{label} mentions actions but lands on the final state")
            return True
        acts = step_sets[step] if step < h else set()
        return eval_formula(f, _valuation(p.trajectory[step], acts))

    init = close_formula(problem.init, registry=registry)
    goal = close_formula(problem.goal, registry=registry)
    if not holds(init, 0, "initial condition"):
        issues.append("initial condition fails in state 0")
    if not holds(goal, h, "goal"):
        issues.append(f"goal fails in state {h}")
    for when, f in problem.extra:
        f = close_formula(f, registry=registry)
        if when != FINAL and when > h:
            issues.append(f"constraint at step {when} exceeds the plan horizon {h}")
        elif not holds(f, h if when == FINAL else when, f"constraint at {when}"):
            issues.append(f"constraint at {when} fails")

    if problem.cost_deadline is not None:
        if not costs:
            issues.append("the problem sets a cost deadline but no cost model was given")
        else:
            price = plan_cost(p, costs, registry)
            if price > problem.cost_deadline:
                issues.append(f"plan cost {price} exceeds the deadline {problem.cost_deadline}")

    return (not issues), issues
