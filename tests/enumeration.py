"""Brute-force oracles that cross-check the SAT route.

Each oracle enumerates value-complete assignments outright and keeps
those that satisfy the symbolic completion formulas (completion_for),
evaluated directly.  Nothing here builds clauses or calls a solver, so
an encoder or solver fault cannot hide itself from these answers.
Unlike oracles.py, these draw on the package's compiler: the completion
is what they enumerate against, valued over a trajectory by window_truth
below.  The encoder's step template is built without the completion, and
planner.validate_plan checks plans law by law (semantics.py), so neither
shares this valuation.
"""

from __future__ import annotations

import itertools

from causalplan.compiler import (Nogood, Support, TimedAtom, TimedLit, atom_table,
                                 completion_for, desugar, eval_completion)
from causalplan.grounding import GroundDomain
from causalplan.model import Kind, State

__all__ = ["freeze_state", "oracle_paths", "oracle_states", "oracle_transitions",
           "window_truth"]


def freeze_state(state: State) -> frozenset:
    """A state as a hashable set of (name, args, value) triples."""
    return frozenset((name, args, val) for (name, args), val in state.items())


def window_truth(trajectory, step_actions):
    """TimedLit -> bool over a trajectory and its per-step action sets, for
    eval_completion."""
    def truth(l: TimedLit) -> bool:
        a = l.atom
        if a.constant.is_action:
            held = (a.constant.name, a.args) in step_actions[l.step]
            v = held if a.value == "true" else not held
        else:
            v = trajectory[l.step][(a.constant.name, a.args)] == a.value
        return v if l.positive else not v
    return truth


def _value_complete_states(gd: GroundDomain, limit: int):
    keys = []
    value_lists = []
    combos = 1
    for c, args in gd.fluent_instances:
        vals = ("false", "true") if c.is_boolean else tuple(c.value_sort.members)
        keys.append((c.name, args))
        value_lists.append(vals)
        combos *= len(vals)
    if combos > limit:
        raise ValueError(f"state space too large to enumerate ({combos} assignments)")
    for choice in itertools.product(*value_lists):
        yield dict(zip(keys, choice))


def oracle_states(gd: GroundDomain, *, limit: int = 1 << 18) -> list[State]:
    """Every value-complete assignment satisfying the single-step completion,
    found by brute enumeration and direct evaluation."""
    formulas = completion_for(gd, 0)
    out = []
    for state in _value_complete_states(gd, limit):
        if eval_completion(formulas, window_truth([state], [])) is None:
            out.append(state)
    out.sort(key=lambda s: sorted(s.items()))
    return out


def _compile_window(formulas, table):
    """Index completion formulas over the window's atom table so the inner
    enumeration loop runs on plain ints."""
    index = {ta: i + 1 for i, ta in enumerate(table)}

    def lid(l: TimedLit) -> int:
        v = index[TimedAtom(l.atom, l.step)]
        return v if l.positive else -v

    compiled = []
    for f in formulas:
        if isinstance(f, Support):
            compiled.append(("S", lid(f.head),
                             tuple(tuple(sorted(lid(l) for l in b)) for b in f.bodies)))
        elif isinstance(f, Nogood):
            compiled.append(("N", tuple(sorted(lid(l) for l in f.body)), ()))
        else:
            compiled.append(("X", tuple(index[ta] for ta in f.atoms), ()))
    return index, compiled


def _eval_compiled(compiled, bits) -> bool:
    for kind, a, b in compiled:
        if kind == "S":
            hv = bits[a] if a > 0 else not bits[-a]
            fires = False
            for body in b:
                for l in body:
                    if not (bits[l] if l > 0 else not bits[-l]):
                        break
                else:
                    fires = True
                    break
            if hv != fires:
                return False
        elif kind == "N":
            for l in a:
                if not (bits[l] if l > 0 else not bits[-l]):
                    break
            else:
                return False
        else:
            if sum(bits[v] for v in a) != 1:
                return False
    return True


def oracle_transitions(gd: GroundDomain, *, noconcurrency: bool = False,
                       max_window_atoms: int = 26,
                       max_triples: int = 2_000_000):
    """All one-step transitions (state, action set, successor) by exhaustive
    enumeration against the horizon-1 completion.  Purely evaluative; shares
    nothing with the SAT route.  Guarded against combinatorial blowup."""
    n_window = 2 * len(gd.fluent_atoms) + len(gd.action_atoms)
    if n_window > max_window_atoms:
        raise ValueError(f"window has {n_window} atoms; enumeration refused")

    states0 = oracle_states(gd)
    statics = [f for f in completion_for(gd, 0) if isinstance(f, Nogood)]
    cand1 = [s for s in _value_complete_states(gd, 1 << 18)
             if eval_completion(statics, window_truth([s], [])) is None]
    # under :noconcurrency only the empty set and the singletons can occur
    actions = gd.action_instances
    n_subsets = len(actions) + 1 if noconcurrency else 2 ** len(actions)
    if len(states0) * len(cand1) * n_subsets > max_triples:
        raise ValueError("too many candidate transitions; enumeration refused")

    table = atom_table(gd, 1)
    index, compiled = _compile_window(completion_for(gd, 1, noconcurrency=noconcurrency), table)
    n_step0 = len(gd.fluent_atoms) + len(gd.action_atoms)

    def lits_of(c):
        if c[0] == "S":
            return [c[1]] + [l for body in c[2] for l in body]
        return list(c[1])

    # formulas confined to step 0 prune (state, actions) pairs before the
    # successor loop runs
    comp_a: list = []
    comp_b: list = []
    for c in compiled:
        (comp_a if all(abs(l) <= n_step0 for l in lits_of(c)) else comp_b).append(c)

    flu0, act0, flu1 = [], [], []
    for ta, i in index.items():
        a = ta.atom
        if a.constant.is_action:
            act0.append((i, (a.constant.name, a.args)))
        elif ta.step == 0:
            flu0.append((i, (a.constant.name, a.args), a.value))
        else:
            flu1.append((i, (a.constant.name, a.args), a.value))

    if noconcurrency:
        subsets = [frozenset(), *(frozenset([inst]) for inst in actions)]
    else:
        subsets = [frozenset(inst for inst, on in zip(actions, mask) if on)
                   for mask in itertools.product((False, True), repeat=len(actions))]

    bits = [False] * (len(table) + 1)
    out = []
    for s0 in states0:
        for i, key, val in flu0:
            bits[i] = s0[key] == val
        for acts in subsets:
            for i, key in act0:
                bits[i] = key in acts
            if not _eval_compiled(comp_a, bits):
                continue
            for s1 in cand1:
                for i, key, val in flu1:
                    bits[i] = s1[key] == val
                if _eval_compiled(comp_b, bits):
                    out.append((freeze_state(s0), acts, freeze_state(s1)))
    out.sort(key=lambda tr: (sorted(tr[0]), sorted(tr[1]), sorted(tr[2])))
    return out


def oracle_paths(gd: GroundDomain, horizon: int, *, noconcurrency: bool = False):
    """Length-h trajectories (state, actions, state, actions, ..., state)
    built by chaining one-step windows.  Chaining is only sound when no
    dynamically caused fluent bypasses the static closure at intermediate
    steps, so every after-law head must be an inertial fluent."""
    for r in desugar(gd):
        if r.after is not None and r.head is not None:
            const = r.head[0].constant
            if const.is_fluent and const.kind is not Kind.INERTIAL_FLUENT:
                raise ValueError(
                    f"'{const.name}' is dynamically caused but not inertial; "
                    "window chaining would be unsound")
    if horizon == 0:
        return [(freeze_state(s),) for s in oracle_states(gd)]
    transitions = oracle_transitions(gd, noconcurrency=noconcurrency)
    by_source: dict = {}
    for s0, acts, s1 in transitions:
        by_source.setdefault(s0, []).append((acts, s1))
    paths = [(s0, acts, s1) for s0, acts, s1 in transitions]
    for _ in range(horizon - 1):
        paths = [p + (acts, s2)
                 for p in paths
                 for acts, s2 in by_source.get(p[-1], ())]
    return paths
