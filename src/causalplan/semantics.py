"""Check a trajectory against the causal laws themselves.

A trajectory (states 0..h and the action sets of steps 0..h-1) is a
model of a causal theory when every fact that holds is caused and every
fact that is caused holds (McCain & Turner, "Causal Theories of Action
and Change", 1997; Giunchiglia, Lee, Lifschitz, McCain & Turner,
"Nonmonotonic Causal Theories", 2004).  check_trajectory evaluates
every ground law at every step with model.eval_formula and reports each
condition that fails.  It builds no normal form, no completion and no
clause, and imports nothing from the compiler, so it rechecks the
encoder's answers by a route of its own.

What each law does (t is a state index, h the number of steps):

    caused F if G            G at t causes F at t, for every t (for
                             t < h only when the law reads or causes
                             an action, which no step h has)
    caused F if G after H    H at t-1 and G at t cause F at t, t >= 1
    a causes F if G          a & G at t-1 cause F at t, t >= 1
    nonexecutable a if G     a & G must not hold at any step t < h
    constraint G             G holds wherever the law applies
    caused false if ...      the body must not hold
    inertial c               a value of c is caused at t >= 1 when it
                             is the value c had at t-1
    exogenous c              every value of c is caused wherever it
                             holds

and the built-in rules:

    action exogeneity        an action occurs or not without a cause;
                             a law that causes an action, or its
                             absence, must still be obeyed
    initial freedom          an inertial fluent's value at state 0 is
                             caused
    :noconcurrency           when asked for, at most one action per step
    universal causation      every fluent value that holds is caused

A Boolean fluent's false face is read leniently: at state t, its
holding without a cause is a fault only where it is ruled, that is
where some law or built-in rule with that face as its head applies at
t and has an if-part and an after-part that are not contradictory as
written.  A part is contradictory as written when no choice of
literals, each atom taken one way, makes it true; "p & ~p" is, and
"x=a & x=b" for a multi-valued x is not.  An unruled false face is left
free, as the completion leaves it (see compiler.py).  Every other atom,
and a ruled false face, holds exactly when some law whose body holds
causes it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grounding import GroundDomain
from .model import (
    TRUE, And, Atom, AtomF, Caused, Causes, Constraint, Exogenous, FalseF,
    Formula, GroundInstance, Inertial, Kind, Law, Nonexecutable, Not, Or,
    State, TrueF, eval_formula, instance_str, mentions_action,
)

__all__ = ["NOCONCURRENCY", "UNIVERSAL_CAUSATION", "Violation", "check_trajectory"]

# the built-in rules that a violation can name
NOCONCURRENCY = ":noconcurrency"
UNIVERSAL_CAUSATION = "universal causation"


@dataclass(frozen=True)
class Violation:
    """A condition that fails at one step.  step is a state index, or, when
    action is set, the index of a step's action set.  The condition is a
    ground law, or the built-in rule named by rule when law is None."""

    step: int
    action: bool
    law: Law | None
    rule: str | None
    what: str

    def __str__(self):
        at = f"{'step' if self.action else 'state'} {self.step}"
        if self.law is None:
            return f"{at}: {self.rule}: {self.what}"
        span = f"{self.law.span}: " if self.law.span is not None else ""
        return f"{at}: {span}'{self.law}' {self.what}"


def check_trajectory(gd: GroundDomain, trajectory: list[State], actions,
                     *, noconcurrency: bool = False) -> list[Violation]:
    """Every condition the trajectory breaks, ordered by step, states
    before the actions that leave them, then by law.  trajectory has one
    value-complete state per state index, with legal values only, and
    actions one collection of ground action instances per step, so
    len(trajectory) == len(actions) + 1."""
    table = _law_table(gd)
    h = len(actions)
    steps = [set(a) for a in actions] + [set()]
    found: list[tuple[tuple, Violation]] = []

    def report(key, step, action, law, rule, what):
        found.append(((step, action, *key), Violation(step, action, law, rule, what)))

    prev_holds = None
    for t in range(h + 1):
        state = trajectory[t]
        holds = _valuation(state, steps[t])
        caused: dict[Atom, int] = {}
        for i, law, head, cond, reads_actions in table.static:
            if reads_actions and t == h or not eval_formula(cond, holds):
                continue
            if head is None:
                report((0, i), t, reads_actions, law, None, "is violated")
            elif caused.get(head, i) >= i:
                caused[head] = i
        if t:
            fired = [entry for inst in steps[t - 1] for entry in table.by_action.get(inst, ())]
            for i, law, head, cond, after in fired + table.dynamic:
                if not (eval_formula(after, prev_holds) and eval_formula(cond, holds)):
                    continue
                if head is None:
                    if isinstance(law, Nonexecutable):
                        report((0, i), t - 1, True, law, None, "is violated")
                    else:
                        report((0, i), t, False, law, None, "is violated")
                elif caused.get(head, i) >= i:
                    caused[head] = i
        for head, i in caused.items():
            if not holds(head):
                is_action = head.constant.is_action
                report((0, i), t, is_action, table.laws[i], None,
                       f"causes {head}, which does not {'occur' if is_action else 'hold'}")
        for n, (key, faces, exogenous, initial, inertial, ruled) in enumerate(table.fluents):
            value = state[key]
            if value == "false" and ruled is not None and not (
                    ruled[0] or ruled[1] and t == 0 or ruled[2] and t or ruled[3] and t < h):
                continue  # an unruled false face is free
            if faces[value] in caused or exogenous or (initial and t == 0) or (
                    inertial and t and trajectory[t - 1][key] == value):
                continue
            report((1, n), t, False, None, UNIVERSAL_CAUSATION,
                   f"{instance_str(key)}={value} holds, but no law causes it")
        if noconcurrency and t < h and len(steps[t]) > 1:
            names = sorted(steps[t])
            report((2,), t, True, None, NOCONCURRENCY,
                   " and ".join([", ".join(map(instance_str, names[:-1])),
                                 instance_str(names[-1])]) + " occur together")
        prev_holds = holds
    found.sort(key=lambda kv: kv[0])
    return [v for _, v in found]


def _valuation(state: State, acts: set[GroundInstance]):
    """Atom -> bool at one step: a fluent's value in state, an action's
    occurrence in acts."""
    def holds(atom: Atom) -> bool:
        c = atom.constant
        if c.kind is Kind.ACTION:
            return ((c.name, atom.args) in acts) == (atom.value == "true")
        return state[(c.name, atom.args)] == atom.value
    return holds


# --- the laws of one ground domain, sorted by how they are read ---------------------

class _LawTable:
    """The ground domain's laws, split for check_trajectory.  Every entry
    carries the law's index in laws, which orders the reports.

    static      (i, law, head atom or None, body, reads actions): read
                within a state; a constraint's body is its negation
    dynamic     (i, law, head atom or None, if-part, after-part): read
                across a step, after-part at t-1 and if-part at t
    by_action   the dynamic entries of action laws (causes and
                nonexecutable), by the action instance that triggers them
    fluents     per fluent instance: its state key, its atom for each
                value (a Boolean's false face under "false"), whether
                exogeneity, initial freedom and inertia cause its values,
                and, for a Boolean, where its false face is ruled: at
                every state, at state 0, at states after 0, at states
                before the last
    """

    def __init__(self, gd: GroundDomain):
        self.laws = gd.laws
        self.static: list = []
        self.dynamic: list = []
        self.by_action: dict[GroundInstance, list] = {}
        exogenous, inertial, windows = set(), set(), {}

        def rule_false_face(head: Atom | None, window: str, *parts: Formula) -> None:
            if (head is not None and head.constant.is_boolean and head.value == "false"
                    and all(_consistent(p) for p in parts)):
                windows.setdefault((head.constant, head.args), set()).add(window)

        for i, law in enumerate(gd.laws):
            if isinstance(law, Caused):
                if law.after is None:
                    reads = law.head is not None and law.head.constant.is_action \
                        or mentions_action(law.cond)
                    self.static.append((i, law, law.head, law.cond, reads))
                    rule_false_face(law.head, "early" if reads else "always", law.cond)
                else:
                    self.dynamic.append((i, law, law.head, law.cond, law.after))
                    rule_false_face(law.head, "later", law.cond, law.after)
            elif isinstance(law, Constraint):
                self.static.append((i, law, None, Not(law.body), mentions_action(law.body)))
            elif isinstance(law, (Causes, Nonexecutable)):
                head = law.effect if isinstance(law, Causes) else None
                after = AtomF(law.action) if isinstance(law.cond, TrueF) \
                    else And((AtomF(law.action), law.cond))
                entry = (i, law, head, TRUE, after)
                if law.action.value == "true":
                    inst = (law.action.constant.name, law.action.args)
                    self.by_action.setdefault(inst, []).append(entry)
                else:
                    self.dynamic.append(entry)
                rule_false_face(head, "later", after)
            elif isinstance(law, Inertial):
                inertial.add(law.constant)
            elif isinstance(law, Exogenous):
                exogenous.add(law.constant)
            else:
                raise TypeError(f"cannot check {law!r}")

        self.fluents = []
        for c, args in gd.fluent_instances:
            values = ("false", "true") if c.is_boolean else c.value_sort.members
            faces = {v: Atom(c, args, v) for v in values}
            initial, exo, inert = c.kind is Kind.INERTIAL_FLUENT, c in exogenous, c in inertial
            ruled = None
            if c.is_boolean:
                w = windows.get((c, args), ())
                ruled = (exo or "always" in w, initial, inert or "later" in w, "early" in w)
            self.fluents.append(((c.name, args), faces, exo, initial, inert, ruled))


def _law_table(gd: GroundDomain) -> _LawTable:
    """The ground domain's law table, made on first use and kept on it (in
    the instance dict, as its cached properties are)."""
    table = gd.__dict__.get("_law_table")
    if table is None:
        table = gd.__dict__["_law_table"] = _LawTable(gd)
    return table


# --- contradiction as written ---------------------------------------------------------

def _consistent(f: Formula) -> bool:
    """Whether some choice of literals, each atom taken one way, makes f
    true as written.  A Boolean atom's false face is its true face taken
    the other way; two values of a multi-valued constant are two atoms."""
    return _extend([(f, True)], {})


def _extend(todo: list[tuple[Formula, bool]], chosen: dict) -> bool:
    while todo:
        f, positive = todo.pop()
        if isinstance(f, Not):
            todo.append((f.sub, not positive))
        elif isinstance(f, (TrueF, FalseF)):
            if isinstance(f, TrueF) != positive:
                return False
        elif isinstance(f, AtomF):
            a = f.atom
            if a.constant.is_boolean:
                key, value = (a.constant, a.args), positive == (a.value == "true")
            else:
                key, value = a, positive
            if chosen.setdefault(key, value) != value:
                return False
        elif isinstance(f, (And, Or)):
            if isinstance(f, And) == positive:
                todo.extend((p, positive) for p in f.parts)
            else:
                return any(_extend(todo + [(p, positive)], dict(chosen)) for p in f.parts)
        else:
            raise ValueError(f"cannot check {f!r} (ungrounded external?)")
    return True
