"""Compile ground causal laws into propositional CNF over a bounded horizon.

Pipeline (each stage is exposed for testing):

    desugar   ground laws -> (head literal, if-part, after-part) triples
    unroll    triples -> time-stamped definite rules, bodies in DNF
    complete  rules -> support biconditionals + nogoods + exactly-one
    clausify  Encoder: completion (plus asserted query formulas) -> CNF
              with a stable atom table; compile_cnf is the query-free case

Semantics in brief: a rule ``head <- body`` says the head literal is
caused whenever the body holds.  The completion asserts that a literal
holds exactly when one of its rule bodies fires.  Every positive atom
gets a support biconditional (an atom with no rules is thereby forced
false).  The negated face of a Boolean constant gets one only when some
rule has that negative head (inertia and exogeneity rules do); an
unruled negative face is left unconstrained rather than forced, which
is what makes partially described constants behave leniently instead of
pinning them true.

Timing: fluent atoms live at steps 0..h, action atoms at 0..h-1.
Static rules are stamped at every step where their atoms exist; after-
rules put the head and if-part at t+1 and the after-part at t.  Action
exogeneity is implicit.  Inertial-kind fluents get time-0 exogeneity so
initial states are free; everything else must earn its value.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

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

    @property
    def timed_atom(self) -> TimedAtom:
        return TimedAtom(self.atom, self.step)

    def negated(self) -> "TimedLit":
        return TimedLit(self.atom, self.step, not self.positive)


@dataclass(frozen=True)
class CausalRule:
    """Definite time-stamped rule: head literal (None = FALSE) <- conjunction."""

    head: TimedLit | None
    body: frozenset[TimedLit]

    def __str__(self):
        body = " & ".join(sorted(map(str, self.body))) or "true"
        return f"{self.head if self.head else 'false'} <- {body}"


# untimed literal used between desugar and unroll
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
    """Reduce every law form to plain caused-if-after triples."""
    out: list[Desugared] = []
    for law in ground.laws:
        if isinstance(law, Caused):
            head = _norm_lit(law.head, True) if law.head is not None else None
            out.append(Desugared(head, law.cond, law.after))
        elif isinstance(law, Causes):
            # a causes F if G  ==  caused F after a & G
            out.append(Desugared(_norm_lit(law.effect, True), TRUE,
                                 And((AtomF(law.action), law.cond))
                                 if not isinstance(law.cond, TrueF) else AtomF(law.action)))
        elif isinstance(law, Nonexecutable):
            out.append(Desugared(None, TRUE,
                                 And((AtomF(law.action), law.cond))
                                 if not isinstance(law.cond, TrueF) else AtomF(law.action)))
        elif isinstance(law, Constraint):
            out.append(Desugared(None, Not(law.body)))
        elif isinstance(law, Inertial):
            if law.constant.is_action:
                raise CompileError(f"'{law.constant.name}' is an action; it cannot be inertial")
            for atom in _instances(law.constant):
                lit = _norm_lit(atom, True)
                out.append(Desugared(lit, AtomF(atom), AtomF(atom)))
        elif isinstance(law, Exogenous):
            if law.constant.is_action:
                continue  # actions are exogenous implicitly
            for atom in _instances(law.constant):
                out.append(Desugared(_norm_lit(atom, True), AtomF(atom)))
        else:
            raise CompileError(f"cannot desugar {law!r}")
    return out


# --- DNF over literals -------------------------------------------------------

def _dnf(f: Formula, positive: bool = True) -> list[frozenset[Lit]] | None:
    """Disjunctive normal form as literal sets; None encodes FALSE, [frozenset()]
    encodes TRUE.  Syntactically inconsistent conjunctions are dropped."""
    if isinstance(f, TrueF):
        return None if not positive else [frozenset()]
    if isinstance(f, FalseF):
        return None if positive else [frozenset()]
    if isinstance(f, AtomF):
        return [frozenset([_norm_lit(f.atom, positive)])]
    if isinstance(f, Not):
        return _dnf(f.sub, not positive)
    parts = f.parts if isinstance(f, (And, Or)) else None
    if parts is None:
        raise CompileError(f"cannot normalize {f!r} (ungrounded external?)")
    conjunctive = isinstance(f, And) == positive
    sub = [_dnf(p, positive) for p in parts]
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


# --- unroll ------------------------------------------------------------------

def _mentions_action(rule: Desugared) -> bool:
    if rule.head and rule.head[0].constant.is_action:
        return True
    return any(f is not None and mentions_action(f) for f in (rule.cond, rule.after))


def _stamp(lits: frozenset[Lit], step: int) -> frozenset[TimedLit]:
    return frozenset(TimedLit(a, step, pos) for a, pos in lits)


def unroll(rules: list[Desugared], ground: GroundDomain, horizon: int,
           *, noconcurrency: bool = False) -> list[CausalRule]:
    """Stamp rules over 0..horizon and add the implicit exogeneity rules."""
    if horizon < 0:
        raise CompileError("horizon must be nonnegative")
    out: list[CausalRule] = []

    def emit(head: Lit | None, body_disjuncts, head_step: int, body_step: int,
             extra: frozenset[TimedLit] = frozenset()):
        if body_disjuncts is None:
            return
        h = TimedLit(head[0], head_step, head[1]) if head is not None else None
        for d in body_disjuncts:
            out.append(CausalRule(h, _stamp(d, body_step) | extra))

    for rule in rules:
        cond_dnf = _dnf(rule.cond)
        if rule.after is None:
            # static: every step where the mentioned atoms exist
            last = horizon - 1 if _mentions_action(rule) else horizon
            for t in range(0, last + 1):
                emit(rule.head, cond_dnf, t, t)
        else:
            if rule.head is not None and rule.head[0].constant.is_action:
                raise CompileError(f"after-rule head {rule.head[0]} is an action atom")
            after_dnf = _dnf(rule.after)
            if after_dnf is None or cond_dnf is None:
                continue
            for t in range(0, horizon):
                for ad in after_dnf:
                    emit(rule.head, cond_dnf, t + 1, t + 1, extra=_stamp(ad, t))

    # actions choose their own values at every step they exist
    for atom in ground.action_atoms:
        for t in range(0, horizon):
            for pos in (True, False):
                lit = TimedLit(atom, t, pos)
                out.append(CausalRule(lit, frozenset([lit])))

    # inertial-kind fluents are free at time 0
    for const, args in ground.fluent_instances:
        if const.kind is not Kind.INERTIAL_FLUENT:
            continue
        values = ("true", "false") if const.is_boolean else const.value_sort.members
        for v in values:
            a, pos = _norm_lit(Atom(const, args, v), True)
            lit = TimedLit(a, 0, pos)
            out.append(CausalRule(lit, frozenset([lit])))

    if noconcurrency:
        acts = ground.action_atoms
        for i, j in itertools.combinations(range(len(acts)), 2):
            for t in range(0, horizon):
                out.append(CausalRule(None, frozenset(
                    [TimedLit(acts[i], t), TimedLit(acts[j], t)])))

    return out


# --- completion --------------------------------------------------------------

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
    """Propositional variable order: step-major, fluents before actions,
    lexicographic inside each group.  Variable i+1 is table[i]."""
    table: list[TimedAtom] = []
    for t in range(0, horizon + 1):
        table.extend(TimedAtom(a, t) for a in ground.fluent_atoms)
        if t < horizon:
            table.extend(TimedAtom(a, t) for a in ground.action_atoms)
    return table


def complete(rules: list[CausalRule], ground: GroundDomain,
             horizon: int) -> list[CompletionFormula]:
    by_head: dict[TimedLit, list[frozenset[TimedLit]]] = {}
    nogoods: list[Nogood] = []
    for r in rules:
        if r.head is None:
            nogoods.append(Nogood(r.body))
        else:
            by_head.setdefault(r.head, []).append(r.body)

    out: list[CompletionFormula] = []
    for ta in atom_table(ground, horizon):
        pos = TimedLit(ta.atom, ta.step, True)
        out.append(Support(pos, tuple(by_head.get(pos, ()))))
        neg_lit = pos.negated()
        if neg_lit in by_head:
            out.append(Support(neg_lit, tuple(by_head[neg_lit])))

    for const, args in ground.fluent_instances:
        if const.is_boolean:
            continue
        for t in range(0, horizon + 1):
            out.append(ExactlyOne(tuple(
                TimedAtom(Atom(const, args, v), t) for v in const.value_sort.members)))

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


def completion_for(ground: GroundDomain, horizon: int,
                   *, noconcurrency: bool = False) -> list[CompletionFormula]:
    rules = unroll(desugar(ground), ground, horizon, noconcurrency=noconcurrency)
    return complete(rules, ground, horizon)


# --- CNF ---------------------------------------------------------------------

@dataclass
class CnfFormula:
    """Plain CNF with the TimedAtom table.  Variables 1..len(atoms) are real
    atoms following the table order; variables >= aux_start are definition
    variables introduced by the Encoder."""

    var_count: int
    clauses: list[tuple[int, ...]]
    atoms: tuple[TimedAtom, ...]
    index: dict[TimedAtom, int] = field(repr=False)

    @property
    def aux_start(self) -> int:
        return len(self.atoms) + 1

    def var_of(self, ta: TimedAtom) -> int:
        return self.index[ta]


class Encoder:
    """The clause builder: completion CNF for one horizon plus whatever query
    formulas the caller asserts on top (initial/goal/observation constraints).

    Definition variables are introduced only for multi-literal bodies inside
    multi-body supports and asserted disjunctions; they are numbered after
    every real atom."""

    def __init__(self, ground: GroundDomain, horizon: int, *, noconcurrency: bool = False):
        self.horizon = horizon
        self.table = tuple(atom_table(ground, horizon))
        self.index = {ta: i + 1 for i, ta in enumerate(self.table)}
        self.var_count = len(self.table)
        self.clauses: list[tuple[int, ...]] = []
        for f in completion_for(ground, horizon, noconcurrency=noconcurrency):
            self._add_formula(f)

    def _lit(self, l: TimedLit) -> int:
        try:
            v = self.index[TimedAtom(l.atom, l.step)]
        except KeyError:
            raise CompileError(f"{l.atom}@{l.step} is outside the encoding horizon") from None
        return v if l.positive else -v

    def _fresh(self) -> int:
        self.var_count += 1
        return self.var_count

    def _add(self, lits) -> None:
        c = tuple(lits)
        if len(set(abs(x) for x in c)) != len(c):
            seen = set(c)
            if any(-x in seen for x in c):
                return  # tautology
            c = tuple(dict.fromkeys(c))
        if not c:
            # an always-false formula: encode falsum on a fresh variable
            v = self._fresh()
            self.clauses.append((v,))
            self.clauses.append((-v,))
            return
        self.clauses.append(c)

    def _arms(self, bodies: list[list[int]]) -> list[int]:
        """One literal per body: the literal itself, or a fresh d <-> AND(body)."""
        arms = []
        for b in bodies:
            if len(b) == 1:
                arms.append(b[0])
                continue
            d = self._fresh()
            for l in b:
                self._add((-d, l))
            self._add([d] + [-l for l in b])
            arms.append(d)
        return arms

    def _add_support(self, head: int, bodies: list[list[int]]) -> None:
        if not bodies:
            self._add((-head,))
            return
        if len(bodies) == 1:
            b = bodies[0]
            for l in b:
                self._add((-head, l))
            self._add([head] + [-l for l in b])
            return
        arms = self._arms(bodies)
        self._add([-head] + arms)
        for a in arms:
            self._add((head, -a))

    def _add_formula(self, f: CompletionFormula) -> None:
        if isinstance(f, Support):
            self._add_support(self._lit(f.head),
                              [sorted(self._lit(l) for l in body) for body in f.bodies])
        elif isinstance(f, Nogood):
            self._add(sorted(-self._lit(l) for l in f.body))
        else:
            vars_ = [self.index[ta] for ta in f.atoms]
            self._add(vars_)
            for a, b in itertools.combinations(vars_, 2):
                self._add((-a, -b))

    def assert_formula(self, f: Formula, step: int) -> None:
        """Add clauses forcing the ground formula to hold at the given step."""
        for atom in formula_atoms(f):
            if atom.constant.is_action and step >= self.horizon:
                raise CompileError(f"action atom {atom} cannot be asserted at step {step}")
        disjuncts = _dnf(f)
        if disjuncts is None:
            self._add(())  # unsatisfiable
            return
        bodies = [sorted(self._lit(TimedLit(a, step, pos)) for a, pos in d)
                  for d in disjuncts]
        if any(not b for b in bodies):
            return  # trivially true
        if len(bodies) == 1:
            for l in bodies[0]:
                self._add((l,))
            return
        self._add(self._arms(bodies))

    def cnf(self) -> CnfFormula:
        return CnfFormula(self.var_count, list(self.clauses), self.table, dict(self.index))


def compile_cnf(ground: GroundDomain, horizon: int,
                *, noconcurrency: bool = False) -> CnfFormula:
    """The completion CNF for one horizon, with no query formulas."""
    return Encoder(ground, horizon, noconcurrency=noconcurrency).cnf()
