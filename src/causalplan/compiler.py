"""Compile ground causal laws into propositional CNF over a bounded horizon.

Pipeline (each stage is exposed for testing):

    desugar   a law -> (head literal, if-part, after-part) triples
              (_desugared; desugar gives every ground law's, for the
              symbolic completion)
    template  StepTemplate: each triple's parts, in DNF, stamped once into
              window literals (per law shape, from GroundDomain.rules,
              not from ground laws) and clausified per ground domain (which
              ground() keeps across queries) into three integer clause
              blocks: the first step, any later step, and the nogoods
              that read a step's actions.  A block holds the completion
              of its step: each atom's support, the head true exactly
              when one of its rule bodies holds, the exactly-ones of the
              multi-valued fluents and the nogoods; an exactly-one over
              at most 8 values becomes pairwise "not both" clauses, a
              wider one a sequential counter whose registers are
              definition variables of the block, like those of
              multi-body supports; then the blocks are presimplified with
              their facts (below)
    grow      Encoder: horizon h = the blocks placed one step at a time
              from horizon 0, each step after every variable in use
              (its rows table records where each step's atoms land),
              plus asserted query formulas, those that hold only at the
              last step under an activation literal (the plan search
              assumes a last-step formula instead when it is a
              conjunction of literals, see Encoder); every query grows
              one encoding on one solver, and cnf() gives the plain CNF
              of the current horizon, which compile_cnf returns for the
              query-free case

A fact is a literal that holds at every step where its atom exists
because unit propagation over the blocks' own clauses fixes it, as a
static constraint such as Hanoi's "no disk on itself" fixes a fluent,
and as an effect on a ruled-out value then rules out its action.  The
fluent facts come from the first step's block alone at step 0 and, at
step h + 1, from the blocks that Encoder.extend always places together
(the nogoods on step h's actions and the block of step h + 1) with step
h's fluents assumed only at fluent facts; the action facts come from
the latter.  So, by induction over the steps, the completion implies
every fact, and a clause that a fact satisfies can go, a literal that
one falsifies can be stripped and a fact can stand as a unit clause
without changing any model (MiniSat's level-0 simplification, Een &
Sorensson, "An Extensible SAT-solver", 2003, done once per template).
Each block keeps its variables, so numbering, rows, decoding and a
DIMACS file's atom comments are as without facts; see StepTemplate.

completion_for(h) is the test suite's reference: one pass that stamps
every desugared rule over steps 0..h into symbolic supports and nogoods,
with the exactly-ones of the multi-valued fluents (Support, Nogood and
ExactlyOne over timed literals), which eval_completion evaluates.  No
query reads it, and the template is built without it, from the ground
domain's rules rather than its ground laws, so the two share nothing
below the desugaring of one law (_desugared) and _dnf.  cnf() is,
up to the numbering of its variables, clause for clause the clausified
completion_for(h) under the template's facts: each clause that a fact
satisfies dropped, each literal that one falsifies stripped, and a unit
clause per fact and step; the tests clausify the completion with code
of their own and compare, and their enumeration oracles check the
completion without touching the template.  validate_plan shares none of
this: it checks a plan law by law (semantics.py), and the tests hold the
two readings to the same states, transitions and verdicts.

A support H <-> B1 | ... | Bk is clausified in a smaller form than the
plain biconditional (see _ClauseSink): a body that holds H, as
inertia's and exogeneity's do, loses H and its "body implies head"
clause, every other body implies H in one clause, and a multi-literal
body in H's own clause is a one-way definition variable, an "arm" d
with only d -> body.  The models projected onto the atoms are exactly
the completion's, while an arm may be false where its body holds:
enumerate_models and predict project onto atoms, so a free arm adds no
outcome, and an outside solver's values for a DIMACS file's "c aux"
variables mean nothing.

Semantics in brief: a rule ``head <- body`` says the head literal is
caused whenever the body holds.  The completion asserts that a literal
holds exactly when one of its rule bodies fires.  Every positive atom
gets a support biconditional (an atom with no rules is thereby forced
false).  The negated face of a Boolean constant gets one only when some
rule has that negative head (inertia and exogeneity rules do); an
unruled negative face is left unconstrained rather than forced, which
is what makes partially described constants behave leniently instead of
pinning them true.  The reading is lenient in one more way: _dnf drops
a body that is contradictory as written (one that needs some atom both
true and false, as "q & ~q" does), so a law whose if-part or after-part
is contradictory as written makes no rule, and its head is not ruled by
it.  "caused p=false if q & ~q" therefore leaves p's false face as free
as "caused p=false if false" does.

Timing: fluent atoms live at steps 0..h, action atoms at 0..h-1.
Static rules are stamped at every step where their atoms exist; after-
rules put the head and if-part at t+1 and the after-part at t.  Action
exogeneity is implicit.  Inertial-kind fluents get time-0 exogeneity so
initial states are free; everything else must earn its value.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from .grounding import GroundDomain
from .model import (
    TRUE, Atom, AtomF, And, Caused, Causes, Constraint, Exogenous, FalseF,
    Formula, Inertial, Kind, Nonexecutable, Not, Or, TrueF, formula_atoms,
    mentions_action,
)


class CompileError(Exception):
    pass


@dataclass(frozen=True)
class TimedAtom:
    atom: Atom
    step: int

    def __str__(self):
        return f"{self.atom}@{self.step}"


@dataclass(frozen=True)
class TimedLit:
    atom: Atom
    step: int
    positive: bool = True

    def __str__(self):
        s = f"{self.atom}@{self.step}"
        return s if self.positive else f"~{s}"


# untimed literal used between desugar and stamping
Lit = tuple[Atom, bool]


def _norm_lit(atom: Atom, positive: bool) -> Lit:
    """Fold a Boolean constant's false face onto the negated true face."""
    if atom.constant.is_boolean and atom.value == "false":
        return (Atom(atom.constant, atom.args, "true"), not positive)
    return (atom, positive)


@dataclass(frozen=True)
class Desugared:
    head: Lit | None  # None = FALSE
    cond: Formula = TRUE
    after: Formula | None = None


def _instances(const):
    for args in itertools.product(*(s.members for s in const.arg_sorts)):
        for v in const.value_sort.members:
            yield Atom(const, tuple(args), v)


def desugar(ground: GroundDomain) -> list[Desugared]:
    """Reduce every ground law to plain caused-if-after triples."""
    return [rule for law in ground.laws for rule in _desugared(law)]


def _desugared(law) -> list[Desugared]:
    """The caused-if-after triples of one law, ground or schematic."""
    if isinstance(law, Caused):
        head = _norm_lit(law.head, True) if law.head is not None else None
        return [Desugared(head, law.cond, law.after)]
    if isinstance(law, Causes):
        # a causes F if G  ==  caused F after a & G
        return [Desugared(_norm_lit(law.effect, True), TRUE,
                          And((AtomF(law.action), law.cond))
                          if not isinstance(law.cond, TrueF) else AtomF(law.action))]
    if isinstance(law, Nonexecutable):
        return [Desugared(None, TRUE,
                          And((AtomF(law.action), law.cond))
                          if not isinstance(law.cond, TrueF) else AtomF(law.action))]
    if isinstance(law, Constraint):
        return [Desugared(None, Not(law.body))]
    if isinstance(law, Inertial):
        if law.constant.is_action:
            raise CompileError(f"'{law.constant.name}' is an action; it cannot be inertial")
        return [Desugared(_norm_lit(atom, True), AtomF(atom), AtomF(atom))
                for atom in _instances(law.constant)]
    if isinstance(law, Exogenous):
        if law.constant.is_action:
            return []  # actions are exogenous implicitly
        return [Desugared(_norm_lit(atom, True), AtomF(atom))
                for atom in _instances(law.constant)]
    raise CompileError(f"cannot desugar {law!r}")


# --- DNF over literals -------------------------------------------------------

def _dnf(f: Formula, positive: bool = True, lit=_norm_lit) -> list[frozenset[Lit]] | None:
    """Disjunctive normal form as literal sets; None encodes FALSE, [frozenset()]
    encodes TRUE.  Syntactically inconsistent conjunctions are dropped.
    lit(atom, positive) makes each literal; it is called once per atom
    occurrence, left to right."""
    if isinstance(f, TrueF):
        return None if not positive else [frozenset()]
    if isinstance(f, FalseF):
        return None if positive else [frozenset()]
    if isinstance(f, AtomF):
        return [frozenset([lit(f.atom, positive)])]
    if isinstance(f, Not):
        return _dnf(f.sub, not positive, lit)
    parts = f.parts if isinstance(f, (And, Or)) else None
    if parts is None:
        raise CompileError(f"cannot normalize {f!r} (ungrounded external?)")
    conjunctive = isinstance(f, And) == positive
    sub = [_dnf(p, positive, lit) for p in parts]
    if conjunctive:
        disjuncts: list[frozenset[Lit]] = [frozenset()]
        for alternatives in sub:
            if alternatives is None:
                return None
            combined = []
            for d in disjuncts:
                for alt in alternatives:
                    if any((a, not pos) in d for a, pos in alt):
                        continue  # p & ~p
                    combined.append(d | alt)
            disjuncts = combined
            if not disjuncts:
                return None
        return _dedup(disjuncts)
    merged: list[frozenset[Lit]] = []
    for alternatives in sub:
        if alternatives is not None:
            merged.extend(alternatives)
    return _dedup(merged) if merged else None


def _dedup(disjuncts: list[frozenset[Lit]]) -> list[frozenset[Lit]]:
    seen = set()
    out = []
    for d in disjuncts:
        if d not in seen:
            seen.add(d)
            out.append(d)
    return out


# --- the steps a rule reaches ------------------------------------------------

def _mentions_action(rule: Desugared) -> bool:
    if rule.head and rule.head[0].constant.is_action:
        return True
    return any(f is not None and mentions_action(f) for f in (rule.cond, rule.after))


def _shape(f: Formula, atoms: list[tuple[str, ...]]):
    """f's structure with its atoms taken out: a key that formulas which
    differ only in their atoms share.  The atoms go to atoms, as (name,
    *args, value), in the order _dnf meets them; each leaves whether it
    is an action's."""
    kind = f.__class__
    if kind is AtomF:
        a = f.atom
        atoms.append((a.constant.name, *a.args, a.value))
        return a.constant.kind is Kind.ACTION
    if kind is Not:
        return (Not, _shape(f.sub, atoms))
    if kind is And or kind is Or:
        return (kind, *[_shape(p, atoms) for p in f.parts])
    return f  # TRUE, FALSE, or an external call, which _dnf refuses


def _law_shape(law) -> tuple[tuple, list[tuple[str, ...]]]:
    """A key for the shape of law's desugared rules (see _desugared), and
    their atoms as (name, *args, value): per rule its head's atom, then
    the atoms of its if-part and of its after-part, each in the order
    _dnf meets them.  Laws with one key have rules that differ only in
    these atoms."""
    atoms: list[tuple[str, ...]] = []

    def head_key(head: Lit | None):
        if head is None:
            return None
        a = head[0]
        atoms.append((a.constant.name, *a.args, a.value))
        return a.constant.kind is Kind.ACTION, head[1]

    if isinstance(law, Caused):
        head = head_key(_norm_lit(law.head, True) if law.head is not None else None)
        rules = [(head, _shape(law.cond, atoms),
                  None if law.after is None else _shape(law.after, atoms))]
    elif isinstance(law, (Causes, Nonexecutable)):
        head = head_key(_norm_lit(law.effect, True) if isinstance(law, Causes) else None)
        # the after-part is a & G, or a alone
        a = law.action
        atoms.append((a.constant.name, *a.args, a.value))
        act = a.constant.kind is Kind.ACTION
        rules = [(head, TRUE, act if isinstance(law.cond, TrueF)
                  else (And, act, _shape(law.cond, atoms)))]
    elif isinstance(law, Constraint):
        rules = [(None, (Not, _shape(law.body, atoms)), None)]
    else:  # inertial and exogenous laws: rules over the constant's ground atoms
        rules = [(head_key(r.head), _shape(r.cond, atoms),
                  None if r.after is None else _shape(r.after, atoms))
                 for r in _desugared(law)]
    return tuple(rules), atoms


def _law_rules(law) -> tuple[bool, list[tuple]]:
    """Whether law's rules would differ at the last step, and the rules,
    desugared and put in DNF once, over the atoms that _law_shape gives:
    per rule (into, up, head, cond, after).  into lists the template
    blocks the rule goes to and up is the step by which an after-rule is
    moved up there; head is the head literal +-(1 + the index of its
    atom), or None for FALSE; cond and after are the DNFs of the if-part
    and the after-part, each disjunct a tuple of literals +-(1 + atom
    index), after None for a static rule.  As every atom occurrence is a
    literal of its own, these DNFs drop nothing: _disjuncts does that
    once the atoms are known.

    The last step has no actions: a rule differs there when it is an
    after-rule whose if-part reads an action, which would sit at the
    step after its after-part, or a static rule with a head that reads
    or causes one, which is stamped only where its atoms exist."""
    n = itertools.count(1)

    def occurrence(atom: Atom, positive: bool) -> Lit:
        return (next(n), positive)

    def dnf(f) -> list[tuple[int, ...]]:
        return [tuple(k if pos else -k for k, pos in d) for d in _dnf(f, lit=occurrence) or ()]

    apart, rules = False, []
    for rule in _desugared(law):
        head = None if rule.head is None else next(n) * (1 if rule.head[1] else -1)
        cond = dnf(rule.cond)
        if rule.after is None:
            acts = _mentions_action(rule)
            apart |= acts and head is not None
            into, up, after = (2,) if head is None and acts else (0, 1), 0, None
        else:
            if head is not None and rule.head[0].constant.is_action:
                raise CompileError(f"after-rule head {rule.head[0]} is an action atom")
            apart |= mentions_action(rule.cond)
            up = 1 if head is None else 0  # a nogood reads a step's actions
            into, after = (1 + up,), dnf(rule.after)
        rules.append((into, up, head, cond, after))
    return apart, rules


def _disjuncts(dnf: list[tuple[int, ...]], vals: list[int]) -> list[frozenset[int]]:
    """A DNF of _law_rules bound: each literal +-k read as +-vals[k], a
    signed atom position, and as _dnf does to the ground law's DNF, each
    disjunct that needs an atom both true and false dropped, and each
    repeat."""
    out: list[frozenset[int]] = []
    seen: set[frozenset[int]] = set()
    for d in dnf:
        c = frozenset([vals[l] if l > 0 else -vals[-l] for l in d])
        if c not in seen and len({*map(abs, c)}) == len(c):
            seen.add(c)
            out.append(c)
    return out


# --- the symbolic completion: the tests' reference ---------------------------

def _stamp_rule(rule: Desugared, horizon: int):
    """Yield (head, body) for one desugared rule over 0..horizon: the head
    a TimedLit, or None for FALSE, and the body a frozenset of TimedLits.
    A static rule is stamped at every step where the atoms it mentions
    exist; an after-rule puts its head and if-part at t + 1 and its
    after-part at t."""
    def at(lits: frozenset[Lit], t: int) -> frozenset[TimedLit]:
        return frozenset(TimedLit(a, t, pos) for a, pos in lits)

    cond_dnf = _dnf(rule.cond)
    head = rule.head
    if rule.after is None:
        if cond_dnf is None:
            return
        last = horizon - 1 if _mentions_action(rule) else horizon
        for t in range(0, last + 1):
            h = TimedLit(head[0], t, head[1]) if head is not None else None
            for d in cond_dnf:
                yield h, at(d, t)
        return
    if head is not None and head[0].constant.is_action:
        raise CompileError(f"after-rule head {head[0]} is an action atom")
    after_dnf = _dnf(rule.after)
    if after_dnf is None or cond_dnf is None:
        return
    for t in range(0, horizon):
        h = TimedLit(head[0], t + 1, head[1]) if head is not None else None
        for ad in after_dnf:
            extra = at(ad, t)
            for d in cond_dnf:
                yield h, at(d, t + 1) | extra


@dataclass(frozen=True)
class Support:
    """head literal <-> one of the bodies fires (empty bodies = forced out)."""

    head: TimedLit
    bodies: tuple[frozenset[TimedLit], ...]

    def __str__(self):
        rhs = " | ".join(
            "(" + " & ".join(sorted(map(str, b))) + ")" if b else "true"
            for b in self.bodies) or "false"
        return f"{self.head} <-> {rhs}"


@dataclass(frozen=True)
class Nogood:
    """The body conjunction must not hold."""

    body: frozenset[TimedLit]

    def __str__(self):
        return "never " + " & ".join(sorted(map(str, self.body)))


@dataclass(frozen=True)
class ExactlyOne:
    atoms: tuple[TimedAtom, ...]

    def __str__(self):
        return "one-of {" + ", ".join(map(str, self.atoms)) + "}"


CompletionFormula = Support | Nogood | ExactlyOne


def atom_table(ground: GroundDomain, horizon: int) -> list[TimedAtom]:
    """The timed atoms of a horizon: step-major, fluents before actions,
    lexicographic inside each group."""
    table: list[TimedAtom] = []
    for t in range(0, horizon + 1):
        table.extend(TimedAtom(a, t) for a in ground.fluent_atoms)
        if t < horizon:
            table.extend(TimedAtom(a, t) for a in ground.action_atoms)
    return table


def completion_for(ground: GroundDomain, horizon: int,
                   *, noconcurrency: bool = False) -> list[CompletionFormula]:
    """The completion of a horizon as symbolic formulas, in one pass over
    the desugared rules: a support per timed atom in atom_table order,
    then its negated face's if some rule has that head, with the bodies
    in rule order, the implicit rules last; then the exactly-ones of the
    multi-valued fluents; then the nogoods in rule order, the
    :noconcurrency pairs last.  The test suite's reference: the
    encoder's template is built without it."""
    rules = desugar(ground)
    if horizon < 0:
        raise CompileError("horizon must be nonnegative")
    by_head: dict[TimedLit, list[frozenset[TimedLit]]] = {}
    nogoods: list[Nogood] = []
    for rule in rules:
        for head, body in _stamp_rule(rule, horizon):
            if head is None:
                nogoods.append(Nogood(body))
            else:
                by_head.setdefault(head, []).append(body)

    def free(lit: TimedLit) -> None:
        by_head.setdefault(lit, []).append(frozenset([lit]))

    # actions choose their own values at every step they exist
    for atom in ground.action_atoms:
        for t in range(0, horizon):
            free(TimedLit(atom, t))
            free(TimedLit(atom, t, False))
    # inertial-kind fluents are free at time 0
    for const, args in ground.fluent_instances:
        if const.kind is Kind.INERTIAL_FLUENT:
            for v in ("true", "false") if const.is_boolean else const.value_sort.members:
                a, pos = _norm_lit(Atom(const, args, v), True)
                free(TimedLit(a, 0, pos))
    if noconcurrency:
        for a, b in itertools.combinations(ground.action_atoms, 2):
            for t in range(0, horizon):
                nogoods.append(Nogood(frozenset([TimedLit(a, t), TimedLit(b, t)])))

    out: list[CompletionFormula] = []
    for ta in atom_table(ground, horizon):
        for lit in (TimedLit(ta.atom, ta.step), TimedLit(ta.atom, ta.step, False)):
            if lit.positive or lit in by_head:
                out.append(Support(lit, tuple(by_head.get(lit, ()))))
    for const, args in ground.fluent_instances:
        if not const.is_boolean:
            for t in range(0, horizon + 1):
                out.append(ExactlyOne(tuple(TimedAtom(Atom(const, args, v), t)
                                            for v in const.value_sort.members)))
    out.extend(nogoods)
    return out


def eval_completion(formulas: list[CompletionFormula], lit_truth) -> CompletionFormula | None:
    """Return the first violated formula, or None if all hold.  lit_truth maps
    a TimedLit to a bool."""
    for f in formulas:
        if isinstance(f, Support):
            fires = any(all(lit_truth(l) for l in body) for body in f.bodies)
            if lit_truth(f.head) != fires:
                return f
        elif isinstance(f, Nogood):
            if all(lit_truth(l) for l in f.body):
                return f
        else:
            n = sum(1 for ta in f.atoms if lit_truth(TimedLit(ta.atom, ta.step)))
            if n != 1:
                return f
    return None


# --- CNF ---------------------------------------------------------------------

@dataclass
class CnfFormula:
    """Plain CNF over one horizon, as Encoder.cnf() gives it.  rows is a
    copy of the Encoder's: rows[t][p] is the variable of the atom at
    position p at step t, 0 where no atom exists.  Every other variable is
    a definition variable or an unused activation variable.  The atom
    table, in atom_table order, which is that of the rows' nonzero
    variables, is built on first use."""

    var_count: int
    clauses: list[tuple[int, ...]]
    ground: GroundDomain = field(repr=False)
    horizon: int
    rows: list[tuple[int, ...]]

    # no query reads it; bench/trace.py's compile_cnf hook counts the
    # definition variables as var_count less its length
    @cached_property
    def atoms(self) -> tuple[TimedAtom, ...]:
        return tuple(atom_table(self.ground, self.horizon))


# An exactly-one over at most this many values gets pairwise "not both"
# clauses, n(n - 1)/2 of them; a wider one gets a sequential counter, with
# 3n - 4 binary clauses over n - 1 registers.  Below this the counter's
# extra variables cost more search than its fewer clauses save.
PAIRWISE_MAX_VALUES = 8


class _ClauseSink:
    """Clausifies supports, exactly-ones and asserted disjunctions.  Definition
    variables, numbered after var_count, are introduced only for
    multi-literal bodies inside multi-body supports and disjunctions, and
    for the registers of a sequential-counter at-most-one: an exactly-one
    over n values is one "at least one" clause plus pairwise "not both"
    clauses for n <= PAIRWISE_MAX_VALUES, or a sequential counter (Sinz,
    "Towards an Optimal CNF Encoding of Boolean Cardinality Constraints",
    2005) above that.

    A support H <-> B1 | ... | Bk becomes:
    - for a body that contains H: no clause of its own, since it implies
      H; in H's clause it stands for the rest of the body, so
      H <-> (H & X) | R becomes (~H | X | R) & (R -> H), and a body that
      is H alone leaves only R -> H;
    - for every other body b1 & ... & bn: (H | ~b1 | ... | ~bn);
    - H's clause (~H | a1 | ...), where a one-literal body is its literal
      and a longer one an arm d with (~d | l) for each body literal l.
    An arm occurs positively in H's clause only, so it needs no
    (d | ~b1 | ...) clause (Plaisted & Greenbaum, "A Structure-preserving
    Clause Form Translation", 1986).  arms() keeps both directions for
    its callers: an asserted query disjunction, and ChargeCounter's
    charges, each of which occurs only negatively, in (~c | register),
    and so must be forced true by its body."""

    def __init__(self, var_count: int):
        self.var_count = var_count
        self.clauses: list[tuple[int, ...]] = []

    def fresh(self) -> int:
        """A new variable, numbered after every one in use."""
        self.var_count += 1
        return self.var_count

    def _add(self, lits) -> None:
        c = tuple(lits)
        if len({*map(abs, c)}) != len(c):
            seen = set(c)
            if any(-x in seen for x in c):
                return  # tautology
            c = tuple(dict.fromkeys(c))
        if not c:
            # an always-false formula: encode falsum on a fresh variable
            v = self.fresh()
            self.clauses.append((v,))
            self.clauses.append((-v,))
            return
        self.clauses.append(c)

    def arms(self, bodies: list[list[int]]) -> list[int]:
        """One literal per body: the literal itself, or a fresh d <-> AND(body)."""
        arms = []
        for b in bodies:
            if len(b) == 1:
                arms.append(b[0])
                continue
            d = self._one_way_arm(b)
            self._add([d] + [-l for l in b])
            arms.append(d)
        return arms

    def _add_support(self, head: int, bodies: list[list[int]]) -> None:
        """head <-> B1 | ... | Bk, in the form the class docstring gives."""
        disjuncts = [[l for l in b if l != head] for b in bodies]
        if all(disjuncts):  # else a body is head alone, and head -> true
            if len(disjuncts) == 1:
                for l in disjuncts[0]:
                    self._add((-head, l))
            else:
                self._add([-head] + [b[0] if len(b) == 1 else self._one_way_arm(b)
                                     for b in disjuncts])
        for b in bodies:
            if head not in b:
                self._add([head] + [-l for l in b])

    def _one_way_arm(self, body: list[int]) -> int:
        """A fresh d -> AND(body)."""
        d = self.fresh()
        for l in body:
            self._add((-d, l))
        return d

    def exactly_one(self, vars_: list[int]) -> None:
        """Exactly one of vars_, in the form the class docstring gives."""
        self._add(vars_)
        if len(vars_) <= PAIRWISE_MAX_VALUES:
            for a, b in itertools.combinations(vars_, 2):
                self._add((-a, -b))
            return
        # Sinz's sequential counter: register s_i is implied by any of
        # the first i values, and value i + 1 may not hold with s_i
        s = self.fresh()
        self._add((-vars_[0], s))
        for x in vars_[1:-1]:
            t = self.fresh()
            self._add((-x, t))
            self._add((-s, t))
            self._add((-x, -s))
            s = t
        self._add((-vars_[-1], -s))


# --- per-step template ---------------------------------------------------------

# A block is (groups, order, n_aux): clauses over window variables, kept
# by length.  groups has one (L, lits) per clause length L, shortest
# first: lits holds the block's L-literal clauses one after another, in
# block order, as one flat list.  order[k] is where the block's k-th
# clause falls among the groups' clauses taken group after group.  Placed
# at step t, window variable (d + 1) * width + p + 1 stands for the atom
# at position p (GroundDomain.atom_position) at step t + d, for d in -1,
# 0, 1, and 3 * width + k, for k in 1..n_aux, for the block's k-th
# definition variable.
Block = tuple[list[tuple[int, list[int]]], list[int], int]


class StepTemplate:
    """Integer clause blocks from which Encoder grows any horizon of one
    ground domain, step by step.

    The blocks are clausified straight from the ground domain's rules,
    each law shape's DNF made once and each rule's stamped once into
    window literals (see _clausified); no ground law is built.
    first holds step 0's supports, exactly-one clauses and the nogoods
    that read only that step, initial freedom among the supports; step
    holds the same for any later step, since a step's supports read only
    that step and the one before; actions holds the nogoods that read a
    step's actions or the step after it.  Together they clausify the
    completion that completion_for gives symbolically, which the tests
    hold them to.  A step's blocks are the same whether or not it is the
    last one: the template refuses the laws that would set the last step
    apart, which validation rejects too.

    facts holds the literals that hold at every step where their atoms
    exist, as (atom, truth) pairs, fluents first, each group in position
    order.  Unit propagation over first alone fixes step 0's fluents;
    over actions and step together, placed at steps h and h + 1 as
    Encoder.extend always places them, from step h's fluents assumed at
    the fluent facts, it fixes step h's actions and step h + 1's fluents.
    A fluent literal is a fact if it is fixed at step 0 and, from the
    facts at step h, at step h + 1: the assumption starts at step 0's
    fixed fluents and shrinks to those that propagation keeps at the
    next step, so each holds at every step by induction.  An action fact
    rules its action out; a literal that forces an action is not kept,
    as it would make every :noconcurrency pair a unit.  Definition
    variables have no facts.  Each block then drops every clause that a
    fact satisfies at any of its steps, strips every literal that a fact
    falsifies, and starts with the facts of the step it is placed at as
    unit clauses, first and step the fluents', actions the actions'.
    Every fact follows from the blocks, so the encoding keeps its models
    and its variables.  paired holds the positions of the actions that
    no fact rules out, the only ones that :noconcurrency pairs.  A
    domain whose propagation conflicts, or fixes nothing, as every mapp
    and boxes domain, has no facts, and its blocks are as clausified.
    """

    def __init__(self, ground: GroundDomain):
        self.ground = ground
        self.n_fluents = len(ground.fluent_atoms)
        self.width = self.n_fluents + len(ground.action_atoms)
        blocks = self._clausified()
        facts = self._facts(*blocks)
        atoms = ground.fluent_atoms + ground.action_atoms
        self.facts = tuple((atoms[abs(q) - 1], q > 0) for q in facts)
        self.paired = [p for p in range(self.n_fluents, self.width) if -(p + 1) not in facts]
        if facts:
            # a fact holds at each of a window's three steps; each block
            # states it as a unit at the step it is placed at: first and
            # step the fluents' facts, actions the actions'
            width = self.width
            true = {_shift(q, d * width) for q in facts for d in (0, 1, 2)}
            here = [_shift(q, width) for q in facts]
            fluents = [l for l in here if abs(l) <= width + self.n_fluents]
            actions = here[len(fluents):]
            blocks = [_simplified(b, true, units)
                      for b, units in zip(blocks, (fluents, fluents, actions))]
        # a template lives as long as its ground domain, across queries:
        # its blocks share one int object per window literal or index
        ints: dict = {}
        self.first, self.step, self.actions = (self._block(b, ints) for b in blocks)

    def _facts(self, first, step, actions) -> list[int]:
        """The template's facts as position literals, +-(p + 1) for the
        atom at position p, fluents first, each group in position order;
        see the class docstring.  Each argument is a clausified block."""
        width, nf = self.width, self.n_fluents
        if not any(1 in map(len, clauses) for clauses, _ in (first, step, actions)):
            return []  # nothing to propagate
        fixed = _unit_propagation(first[0])
        if fixed is None:
            return []
        # step 0's fluents, window variables width + 1 .. width + nf of first
        facts = {_shift(l, -width) for l in fixed if width < abs(l) <= width + nf}
        # actions(h), placed at h, and step(h + 1) in one window, the
        # actions block's, where step h is at offset 0 and step h + 1 at
        # offset 1: step's window, which reads only its own step and the
        # one before, moves up a step, and its definition variables go
        # after those of actions
        clauses, n_aux = actions
        bound = 3 * width
        clauses = clauses + [tuple(_shift(l, width if abs(l) <= bound else n_aux) for l in c)
                             for c in step[0]]
        while True:
            fixed = _unit_propagation(clauses, [_shift(q, width) for q in facts])
            if fixed is None:
                return []
            later = {_shift(l, -2 * width) for l in fixed if 2 * width < abs(l) <= 2 * width + nf}
            if facts <= later:
                break
            facts &= later
        return sorted(facts, key=abs) + [-(p + 1) for p in range(nf, width)
                                         if -(width + p + 1) in fixed]

    def _clausified(self) -> list[tuple[list[tuple[int, ...]], int]]:
        """The blocks first, step and actions, clausified from the
        desugared rules into window literals: the clauses and the number
        of definition variables of each.  The rules are read from
        GroundDomain.rules, not from ground laws: the laws of one shape
        (_law_shape), as the instances of a schema are, are desugared and
        put in DNF once (_law_rules); each instance maps that DNF to atom
        positions and redoes what _dnf does to its literal sets
        (_disjuncts), so the bodies are those of the ground law's DNF.
        A rule's DNF is stamped with a head at offset 0, an after-part at
        -1 and its if-part at 0, one step up in the actions block.  A
        block holds, in order, each fluent position's support and then
        its negated face's if some rule has that head, with the bodies in
        rule order and initial freedom last (an action's support, its
        exogeneity, gives no clause); then the exactly-ones in
        fluent_slots order; then the nogoods in rule order."""
        ground, width = self.ground, self.width
        # a ground atom's signed position, by (name, *args, value): +(p +
        # 1) for the atom at position p, -(p + 1) for a Boolean's false
        # face (a name and an arity make one constant)
        slot: dict[tuple[str, ...], int] = {}
        for p, a in enumerate(ground.fluent_atoms + ground.action_atoms):
            slot[(a.constant.name, *a.args, a.value)] = p + 1
            if a.constant.is_boolean:
                slot[(a.constant.name, *a.args, "false")] = -p - 1

        blocks: list[tuple[dict[int, list], list]] = [({}, []) for _ in range(3)]
        # id(law) -> (variable names, rules, its atoms as (name, terms)),
        # or (None, rules, vals) for a law without variables
        laws: dict[int, tuple] = {}
        shapes: dict[tuple, tuple] = {}  # _law_shape key -> _law_rules
        for i, (law, binding) in enumerate(ground.rules):
            known = laws.get(id(law))
            if known is None:
                key, atoms = _law_shape(law)
                shape = shapes.get(key)
                if shape is None:
                    # whether a law sets the last step apart shows in its key
                    shape = shapes[key] = _law_rules(law)
                apart, rules = shape
                if apart:
                    raise CompileError(f"cannot compile '{ground.laws[i]}': its rules would "
                                       "differ at the last step, which has no actions")
                if law.vars:
                    known = ([v for v, _ in law.vars], rules, [(a[0], a[1:]) for a in atoms])
                else:  # one binding, the empty one
                    known = (None, rules, [0] + [slot[a] for a in atoms])
                laws[id(law)] = known
            names, rules, atoms = known
            if names is None:
                vals = atoms
            else:
                get = dict(zip(names, binding)).get
                vals = [0] + [slot[(name, *map(get, terms, terms))] for name, terms in atoms]
            for into, up, head, cond, after in rules:
                cond = _disjuncts(cond, vals)
                if after is None:
                    bodies = [sorted([x + width if x > 0 else x - width for x in c])
                              for c in cond]
                else:
                    here, before = (up + 1) * width, up * width
                    bodies = [sorted([x + here if x > 0 else x - here for x in c]
                                     + [x + before if x > 0 else x - before for x in a])
                              for a in _disjuncts(after, vals) for c in cond]
                for k in into:
                    by_head, nogoods = blocks[k]
                    if head is None:
                        nogoods += bodies
                    elif bodies:
                        h = vals[head] if head > 0 else -vals[-head]
                        by_head.setdefault(h + width if h > 0 else h - width, []).extend(bodies)
        # inertial-kind fluents are free at step 0
        for (const, _), (_, boolean, values) in zip(ground.fluent_instances, ground.fluent_slots):
            if const.kind is Kind.INERTIAL_FLUENT:
                for _, p in values:
                    v = width + p + 1
                    for l in (v, -v) if boolean else (v,):
                        blocks[0][0].setdefault(l, []).append([l])

        out = []
        for k, (by_head, nogoods) in enumerate(blocks):
            sink = _ClauseSink(3 * width)
            if k < 2:  # actions holds nogoods only
                for v in range(width + 1, width + self.n_fluents + 1):
                    sink._add_support(v, by_head.get(v, []))
                    if -v in by_head:
                        sink._add_support(-v, by_head[-v])
                for _, boolean, values in ground.fluent_slots:
                    if not boolean:
                        sink.exactly_one([width + p + 1 for _, p in values])
            for b in nogoods:  # sorted, with no atom twice
                if b:
                    sink.clauses.append(tuple([-l for l in reversed(b)]))
                else:
                    sink._add(())
            out.append((sink.clauses, sink.var_count - 3 * width))
        return out

    def _block(self, clausified, ints: dict) -> Block:
        """Pack clausified window clauses by length, taking each int object
        from ints."""
        clauses, n_aux = clausified
        one = ints.setdefault
        size = list(map(len, clauses)).__getitem__
        ranked = sorted(range(len(clauses)), key=size)  # stable: block order per length
        order = [0] * len(ranked)
        for i, k in enumerate(ranked):
            order[k] = one(i, i)
        groups = [(n, [one(l, l) for k in ks for l in clauses[k]])
                  for n, ks in itertools.groupby(ranked, key=size)]
        return groups, order, n_aux


def _shift(lit: int, by: int) -> int:
    """lit with its variable moved up by by."""
    return lit + by if lit > 0 else lit - by


def _unit_propagation(clauses, assumed=()) -> set[int] | None:
    """The literals that unit propagation over clauses fixes, starting
    from the assumed literals and the unit clauses; None on a conflict."""
    falsified: dict[int, list] = {}  # literal -> the clauses its truth shortens
    for c in clauses:
        for l in c:
            falsified.setdefault(-l, []).append(c)
    todo = [*assumed, *(c[0] for c in clauses if len(c) == 1)]
    true: set[int] = set()
    while todo:
        x = todo.pop()
        if x in true:
            continue
        if -x in true:
            return None
        true.add(x)
        for c in falsified.get(x, ()):
            free = [l for l in c if -l not in true]
            if not free:
                return None
            if len(free) == 1:
                todo.append(free[0])
    return true


def _simplified(clausified, true: set[int], units: list[int]):
    """A clausified block under the true window literals: the units
    first, then its clauses in order, less those that a true literal
    satisfies and less the literals that one falsifies."""
    clauses, n_aux = clausified
    false = {-l for l in true}
    out = [(l,) for l in units]
    for c in clauses:
        if true.isdisjoint(c):
            out.append(c if false.isdisjoint(c) else tuple(l for l in c if l not in false))
    return out, n_aux


def step_template(ground: GroundDomain) -> StepTemplate:
    """The ground domain's template, made on first use and kept on it (in
    the instance dict, as the ground domain's cached properties are)."""
    tpl = ground.__dict__.get("_step_template")
    if tpl is None:
        tpl = ground.__dict__["_step_template"] = StepTemplate(ground)
    return tpl


class Encoder(_ClauseSink):
    """The clause builder: the completion CNF of a horizon plus whatever
    query formulas the caller asserts on top (initial/goal/observation
    constraints).

    The encoding is built from horizon 0 and grows with extend(), one
    step at a time, from the ground domain's StepTemplate blocks.  A new
    step's variables, real and definition alike, are numbered after every
    variable in use, so a step's variables keep their numbers at every
    later horizon.  rows holds the layout, and only __init__ and extend()
    number atoms: rows[t][p] is the variable of the atom at position p
    (GroundDomain.atom_position) at step t, and 0 for the last step's
    actions, which do not exist.  Asserted formulas given guard=active
    hold only while the current horizon is the last one: their clauses
    end in -active, the negation of the horizon's activation variable, so
    solve under the assumption active.  extend() retires it with the unit
    clause (-active,) and makes a new one.  An activation literal appears
    nowhere but as the last literal of the clauses it guards, which is
    what cnf() relies on.

    The plan search guards only what it cannot assume: literals() gives
    a formula that is a conjunction of literals as literals for the
    solve call to assume, and adds nothing, so the clauses that the
    solver learns from it do not carry -active and stay useful after
    the horizon retires.  Only a formula that is not such a conjunction
    (a disjunction, or false) is asserted with guard=active."""

    def __init__(self, ground: GroundDomain, horizon: int, *, noconcurrency: bool = False):
        tpl = step_template(ground)
        if horizon < 0:
            raise CompileError("horizon must be nonnegative")
        nf = tpl.n_fluents
        super().__init__(nf)
        self.ground = ground
        self.noconcurrency = noconcurrency
        self.horizon = 0
        self.rows = [(*range(1, nf + 1), *[0] * (tpl.width - nf))]
        self.retired: list[int] = []
        self.active = self.fresh()
        self._place(tpl.first, 0)
        for _ in range(horizon):
            self.extend()

    def extend(self) -> None:
        """Grow the encoding by one step; see the class docstring."""
        tpl = step_template(self.ground)
        h, width, nf, rows = self.horizon, tpl.width, tpl.n_fluents, self.rows
        self.retired.append(self.active)
        self.clauses.append((-self.active,))
        # the actions of step h, then the fluents of step h + 1
        n = self.var_count + width - nf
        rows[h] = (*rows[h][:nf], *range(self.var_count + 1, n + 1))
        rows.append((*range(n + 1, n + nf + 1), *[0] * (width - nf)))
        self.var_count += width
        self.horizon = h + 1
        self.active = self.fresh()
        self._place(tpl.actions, h)
        if self.noconcurrency:
            acts = [rows[h][p] for p in tpl.paired]
            self.clauses += [(-b, -a) for a, b in itertools.combinations(acts, 2)]
        self._place(tpl.step, h + 1)

    def _place(self, block: Block, step: int) -> None:
        """Append the block's clauses at step, numbering its definition
        variables after every variable in use.  Window literal v reads
        entry v of a lookup table, 0 (which no solver accepts) where no
        atom exists; a negative -v reads entry -v, which Python's negative
        indexing maps to -table[v].  Each group is mapped in one pass and
        cut into its clauses, which then go back into block order."""
        groups, order, n_aux = block
        rows = self.rows
        pos: list[int] = [0]
        for t in (step - 1, step, step + 1):
            pos += rows[t] if 0 <= t < len(rows) else [0] * len(rows[0])
        pos += range(self.var_count + 1, self.var_count + n_aux + 1)
        self.var_count += n_aux
        get = (pos + [-v for v in pos[:0:-1]]).__getitem__
        placed: list[tuple[int, ...]] = []
        for n, lits in groups:
            placed += zip(*[map(get, lits)] * n)
        self.clauses += map(placed.__getitem__, order)

    def _lit(self, atom: Atom, step: int, positive: bool) -> int:
        p = self.ground.atom_position.get(atom)
        v = self.rows[step][p] if p is not None and 0 <= step < len(self.rows) else 0
        if not v:
            raise CompileError(f"{atom}@{step} is outside the encoding horizon")
        return v if positive else -v

    def _bodies(self, f: Formula, step: int) -> list[list[int]] | None:
        """The ground formula's DNF at the given step: one sorted literal
        list per conjunction, [[]] when it is trivially true, and None
        when it is unsatisfiable."""
        for atom in formula_atoms(f):
            if atom.constant.is_action and step >= self.horizon:
                raise CompileError(f"action atom {atom} cannot be asserted at step {step}")
        disjuncts = _dnf(f)
        if disjuncts is None:
            return None
        bodies = [sorted(self._lit(a, step, pos) for a, pos in d) for d in disjuncts]
        return [[]] if any(not b for b in bodies) else bodies

    def assert_formula(self, f: Formula, step: int, guard: int | None = None) -> None:
        """Add clauses forcing the ground formula to hold at the given step;
        with a guard, each clause also gets -guard, so the formula holds
        only while guard is assumed."""
        start = len(self.clauses)
        bodies = self._bodies(f, step)
        if bodies is None:
            self._add(())  # unsatisfiable
        elif len(bodies) == 1:
            for l in bodies[0]:
                self._add((l,))
        else:
            self._add(self.arms(bodies))
        if guard is not None:
            self.clauses[start:] = [(*c, -guard) for c in self.clauses[start:]]

    def literals(self, f: Formula, step: int) -> list[int] | None:
        """The literals whose conjunction is the ground formula at the given
        step, in increasing variable order (none when it is trivially
        true), for a solve call to assume.  None when its DNF is not one
        conjunction of literals (a disjunction, or false): such a formula
        must be asserted as clauses instead.  Adds nothing."""
        bodies = self._bodies(f, step)
        if bodies is None or len(bodies) > 1:
            return None
        return sorted(bodies[0], key=abs)

    def cnf(self) -> CnfFormula:
        """The encoding at its current horizon as plain CNF: every clause
        that ends in the negation of a retired activation literal (the
        retirement units among them) is dropped, and -active is stripped
        from the clauses of the current horizon."""
        retired, now = {-a for a in self.retired}, -self.active
        clauses = [c[:-1] if c[-1] == now else c
                   for c in self.clauses if c[-1] not in retired]
        return CnfFormula(self.var_count, clauses, self.ground, self.horizon, list(self.rows))


def compile_cnf(ground: GroundDomain, horizon: int,
                *, noconcurrency: bool = False) -> CnfFormula:
    """The completion CNF for one horizon, with no query formulas."""
    return Encoder(ground, horizon, noconcurrency=noconcurrency).cnf()
