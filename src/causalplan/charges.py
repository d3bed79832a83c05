"""A :maxcost deadline as clauses on a growing plan encoding.

A charge is one action occurrence at a step together with one
combination of pre-state values of the fluents its ActionCost reads.
Its weight is the cost external evaluated on those values, once, when
the counter is built.  A charge of None (no path) becomes a nogood on
the occurrence in that state, a zero charge is dropped, and a positive
one gets a variable defined as the conjunction of the occurrence and
the fluent values (the action variable itself when the cost reads no
fluent).

The charges of one ActionCost and one action instance at a step never
hold together, since they read different values of the same fluents;
they form a group.  A sequential weight counter (Eén & Sörensson,
"Translating Pseudo-Boolean Constraints into SAT", 2006; Hölldobler,
Manthey & Steinke, "A Compact Encoding of Pseudo-Boolean Constraints
into SAT", 2012) sums the groups in step order: after each group,
register r is implied whenever the charges so far sum to at least r,
for every r up to deadline + 1 that some of those charges can reach.
It grows with the encoding, one step at a time, and every clause it
adds holds at every longer horizon, since a longer plan pays at least
the charges of its first steps.  Only "the sum reaches deadline + 1" is
forbidden per horizon, and no clause says so: update() returns the
negated top register, which the horizon's solve call assumes.  A clause
the solver learns from that assumption names the register, not the
horizon's activation literal, so it keeps pruning at later horizons:
the register still means that the first steps' charges reach
deadline + 1, which the next top register then holds too.
"""

from __future__ import annotations

import itertools

from .grounding import ExternalRegistry, GroundDomain
from .model import FluentRef, charge

__all__ = ["ChargeCounter"]


class ChargeCounter:
    """Adds the charges of an Encoder's new steps, and gives the bound of
    its current horizon as a literal to assume; call update() once per
    horizon, after any extend() and before solving."""

    def __init__(self, gd: GroundDomain, costs, registry: ExternalRegistry, deadline: int):
        self.cap = deadline + 1
        self.steps = 0  # steps whose charges are counted
        self.regs: dict[int, int] = {}  # reachable sum (at most cap) -> register
        self.nogoods, self.groups = _charges(gd, costs, registry)

    def update(self, enc) -> int | None:
        """Count the charges of the steps that enc added since the last
        call.  Returns the literal that keeps enc's current horizon within
        the deadline, for the solve call to assume, or None when no
        charges so far can pass it."""
        clauses = enc.clauses
        for row in enc.rows[self.steps:enc.horizon]:
            # window literal +-(p + 1) -> entry +-(p + 1), which Python's
            # negative indexing maps to -row[p]
            var = [0, *row, *(-v for v in reversed(row))].__getitem__
            clauses += [tuple(-var(w) for w in cond) for cond in self.nogoods]
            for group in self.groups:
                self._count(enc, [(weight, enc.arms([list(map(var, cond))])[0])
                                  for weight, cond in group])
        self.steps = enc.horizon
        top = self.regs.get(self.cap)
        return None if top is None else -top

    def _count(self, enc, options) -> None:
        """Add one group of exclusive (weight, literal) charges to the sum."""
        cap, old = self.cap, self.regs
        sums = set(old)
        for w, _ in options:
            sums.add(min(cap, w))
            sums.update(min(cap, r + w) for r in old)
        new = {s: enc.fresh() for s in sorted(sums)}
        clauses = enc.clauses
        clauses += [(-v, new[r]) for r, v in old.items()]
        for w, c in options:
            clauses.append((-c, new[min(cap, w)]))
            clauses += [(-c, -v, new[min(cap, r + w)]) for r, v in old.items() if r < cap]
        self.regs = new


def _charges(gd: GroundDomain, costs, registry: ExternalRegistry):
    """(nogoods, groups) over window literals: +-(p + 1) for the atom at
    position p of one step (GroundDomain.atom_position).  A nogood is a
    condition that must not hold; a group is a list of (weight, condition)
    charges of which at most one holds at a step."""
    nf = len(gd.fluent_atoms)
    slots = {key: (boolean, values) for key, boolean, values in gd.fluent_slots}
    nogoods: list[tuple[int, ...]] = []
    groups: list[list[tuple[int, tuple[int, ...]]]] = []
    for ac in costs:
        for i, atom in enumerate(gd.action_atoms):
            name, args = atom.constant.name, atom.args
            if name != ac.action:
                continue
            # distinct fluent instances read, in order; charge() refuses
            # an unknown one, and an argument the action lacks
            reads = list(dict.fromkeys((a.name, a.args) for a in ac.args
                                       if isinstance(a, FluentRef) and (a.name, a.args) in slots))
            group = []
            for combo in itertools.product(*(_values(*slots[key]) for key in reads)):
                got = charge(ac, args, {key: v for key, (v, _) in zip(reads, combo)}, registry)
                cond = (nf + i + 1, *(l for _, l in combo))
                if got is None:
                    nogoods.append(cond)
                elif got:
                    group.append((got, cond))
            if group:
                groups.append(group)
    return nogoods, groups


def _values(boolean: bool, values) -> list[tuple[str, int]]:
    """(value, window literal) for each value of one fluent instance."""
    if boolean:
        p = values[0][1] + 1
        return [("true", p), ("false", -p)]
    return [(v, p + 1) for v, p in values]
