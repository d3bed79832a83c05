"""Grounding: instantiate law schemas over their sorts and close external calls.

A schema with variables v1::S1 ... vk::Sk has one instance per element
of S1 x ... x Sk (in declaration order, so two runs over equal inputs
produce identical law lists).  External calls are evaluated against the
registry while grounding and replaced by TRUE/FALSE; the resulting
formulas are simplified, and instances whose firing condition became
FALSE are dropped.

ground() does eagerly only what can fail or what a later ground() must
re-ask: it validates the signature, enumerates each schema's bindings
and evaluates every external call of every binding, so its
GroundingErrors come at once.  It builds no formula and no ground law.
What it keeps is GroundDomain.rules, one (law, binding) pair per
surviving instance: law is the schema with its external calls closed
to that binding's truths (one such law per schema and distinct truths,
shared by all the bindings that give them), and binding the objects of
its variables in order; a schema is closed as a ground law is built,
by a _Closer whose memo already holds the truths.  The step template
reads these pairs directly (compiler.StepTemplate).  GroundDomain.laws,
the ground Law objects, is built from them on first read, for the
readers that need laws: the trajectory check (semantics.py), `ground
--emit theory`, the symbolic completion and messages.  The rules are
the one way to make a GroundDomain: a caller with ground laws of its
own passes each as a rule with the empty binding.

Each domain is ground once: its GroundDomain is kept on it together with
the external calls that grounding made and their results.  A later
ground() re-asks only those calls, and grounds afresh when one of them
gives another result.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .model import (
    FALSE, TRUE, And, Atom, AtomF, Caused, Causes, Constant, Constraint,
    DomainDescription, Exogenous, ExternalCall, FalseF, Formula, Inertial,
    Law, Nonexecutable, Not, Or, TrueF, conj, disj, neg, validate_signature,
)


class GroundingError(Exception):
    pass


class ExternalRegistry:
    """Maps (name, arity) to an evaluator returning bool or a nonnegative int
    (None is allowed as an out-of-band 'unreachable' for integer evaluators).

    Evaluators must be pure; results are memoized per grounding run, not
    here, so a registry can be shared across worlds and runs safely.
    Every ground() call asks the registry again for each external call
    that the domain's kept grounding made, so registering a new evaluator
    takes effect at the next query: when any call gives another result,
    the domain is ground afresh.
    """

    def __init__(self):
        self._fns: dict[tuple[str, int], object] = {}

    def register(self, name: str, arity: int, fn) -> None:
        self._fns[(name, arity)] = fn

    def __contains__(self, key: tuple[str, int]) -> bool:
        return key in self._fns

    def evaluate(self, name: str, args: tuple[str, ...]):
        try:
            fn = self._fns[(name, len(args))]
        except KeyError:
            raise GroundingError(f"no external registered for '{name}/{len(args)}'") from None
        return fn(*args)


#: one instance of a law schema: the schema with its external calls closed,
#: and the objects its variables take, in the order of its vars
Rule = tuple[Law, tuple[str, ...]]


class GroundDomain:
    """A validated domain together with its instantiated laws.

    rules holds one (law, binding) pair per ground law, in ground law
    order (see the module docstring); laws holds the ground laws, built
    from rules on first read.  A ground law is a rule of its own, with
    the empty binding."""

    def __init__(self, domain: DomainDescription, rules: tuple[Rule, ...]):
        self.domain = domain
        self.rules = rules

    @cached_property
    def laws(self) -> tuple[Law, ...]:
        closer = _Closer(None)  # rules hold no external call
        # ground() keeps no law that can never fire; a caller's own such
        # law stays as given, so laws[i] is always rules[i]'s
        return tuple(
            law if isinstance(law, (Inertial, Exogenous))
            else _ground_one(law, dict(zip([v for v, _ in law.vars], binding)), closer) or law
            for law, binding in self.rules)

    @cached_property
    def fluent_atoms(self) -> tuple[Atom, ...]:
        return tuple(a for a in signature_atoms(self) if a.constant.is_fluent)

    @cached_property
    def action_atoms(self) -> tuple[Atom, ...]:
        return tuple(a for a in signature_atoms(self) if a.constant.is_action)

    @cached_property
    def action_instances(self) -> tuple[tuple[str, tuple[str, ...]], ...]:
        """The (name, args) instance of each action atom, in action_atoms
        order."""
        return tuple((a.constant.name, a.args) for a in self.action_atoms)

    @cached_property
    def atom_position(self) -> dict[Atom, int]:
        """Index of each atom in fluent_atoms + action_atoms: the order of one
        step's variables in every encoding."""
        return {a: i for i, a in enumerate(self.fluent_atoms + self.action_atoms)}

    @cached_property
    def fluent_slots(self) -> tuple[tuple[tuple[str, tuple[str, ...]], bool,
                                          tuple[tuple[str, int], ...]], ...]:
        """Per fluent instance, in fluent_instances order: its state key,
        whether it is Boolean, and (value, atom_position) for each of its
        atoms.  A Boolean instance has the one atom ("true", position)."""
        pos = self.atom_position
        return tuple(
            ((c.name, args), c.is_boolean,
             tuple((v, pos[Atom(c, args, v)])
                   for v in (("true",) if c.is_boolean else c.value_sort.members)))
            for c, args in self.fluent_instances)

    @cached_property
    def fluent_instances(self) -> tuple[tuple[Constant, tuple[str, ...]], ...]:
        return tuple(
            (c, args)
            for c in sorted(self.domain.fluents(), key=lambda c: (c.name, len(c.arg_sorts)))
            for args in _arg_tuples(c)
        )


def _arg_tuples(const: Constant):
    return itertools.product(*(s.members for s in const.arg_sorts))


def _constant_atoms(const: Constant):
    values = ("true",) if const.is_boolean else const.value_sort.members
    for args in _arg_tuples(const):
        for v in values:
            yield Atom(const, tuple(args), v)


def signature_atoms(ground: GroundDomain) -> list[Atom]:
    """All ground atoms, fluents before actions, each group ordered
    lexicographically.  A Boolean constant contributes exactly one atom."""
    def key(a: Atom):
        return (a.constant.name, a.args, a.value)

    fluents = sorted((a for c in ground.domain.fluents() for a in _constant_atoms(c)), key=key)
    actions = sorted((a for c in ground.domain.actions() for a in _constant_atoms(c)), key=key)
    return fluents + actions


class _Closer:
    """Substitutes an environment into formulas and closes external calls."""

    def __init__(self, registry: ExternalRegistry | None):
        self.registry = registry
        self.memo: dict[tuple[str, tuple[str, ...]], object] = {}
        self.atoms: dict[tuple, AtomF] = {}  # see atom_formula

    def call(self, name: str, args: tuple[str, ...]):
        key = (name, args)
        if key not in self.memo:
            if self.registry is None:
                raise GroundingError(
                    f"domain declares external '@{name}/{len(args)}' but no registry was given")
            self.memo[key] = self.registry.evaluate(name, args)
        return self.memo[key]

    def truth(self, name: str, args: tuple[str, ...]) -> bool:
        """The call's result, which must be a bool: the call sits in a
        formula."""
        val = self.call(name, args)
        if not isinstance(val, bool):
            raise GroundingError(
                f"external '@{name}' returned {val!r} inside a formula; "
                "only Boolean externals may appear in formulas")
        return val

    def atom_formula(self, a: Atom, env: dict[str, str]) -> AtomF:
        """a under env, as a formula.  Equal ground atoms come back as one
        AtomF over one Atom, so the ground laws hold one copy of each, and
        the Atom computes its hash once."""
        key = (a.constant, tuple(env.get(t, t) for t in a.args), env.get(a.value, a.value))
        got = self.atoms.get(key)
        if got is None:
            got = self.atoms[key] = AtomF(Atom(*key))
        return got

    def atom(self, a: Atom, env: dict[str, str]) -> Atom:
        """a under env, shared as atom_formula shares it."""
        return self.atom_formula(a, env).atom

    def formula(self, f: Formula, env: dict[str, str]) -> Formula:
        if isinstance(f, (TrueF, FalseF)):
            return f
        if isinstance(f, AtomF):
            return self.atom_formula(f.atom, env)
        if isinstance(f, Not):
            return neg(self.formula(f.sub, env))
        if isinstance(f, And):
            return conj([self.formula(p, env) for p in f.parts])
        if isinstance(f, Or):
            return disj([self.formula(p, env) for p in f.parts])
        if isinstance(f, ExternalCall):
            return TRUE if self.truth(f.name, tuple(env.get(t, t) for t in f.args)) else FALSE
        raise GroundingError(f"cannot ground {f!r}")


def _scan(f: Formula, calls: dict, top: type | None) -> bool:
    """Whether f is as a _Closer leaves a formula without external calls,
    with a top-level constant only of type top; f's external calls go to
    calls, as (name, argument terms) keys, in the order a _Closer
    evaluates them."""
    if isinstance(f, AtomF):
        return True
    if isinstance(f, Not):
        return _scan(f.sub, calls, None) and not isinstance(f.sub, (Not, TrueF, FalseF))
    if isinstance(f, (And, Or)):
        closed = len(f.parts) > 1
        for p in f.parts:
            closed = _scan(p, calls, None) and closed and type(p) is not type(f)
        return closed
    if isinstance(f, ExternalCall):
        calls.setdefault((f.name, f.args))
        return False
    return top is not None and isinstance(f, top)


def close_formula(f: Formula, *, registry: ExternalRegistry | None = None) -> Formula:
    """Close external calls in an already-ground formula (used for problem
    formulas, which may call externals just like law bodies).  registry
    is keyword-only, so that a call in the old form close_formula(f,
    domain, registry), or with the registry left out, fails at once."""
    return _Closer(registry).formula(f, {})


def ground(domain: DomainDescription, registry: ExternalRegistry | None = None) -> GroundDomain:
    """Instantiate every schema, or return the domain's kept GroundDomain.

    Instantiating validates the domain, enumerates each schema's
    bindings and evaluates every external call of each, and records the
    surviving instances as GroundDomain.rules (see the module
    docstring).  Each schema is closed once per distinct truths of its
    calls, as the first binding that gives them would close it.

    The result is kept on domain with the external calls its grounding
    made and their results.  A later call returns the kept GroundDomain,
    with its cached atom tables and step template, when the registry
    gives the identical object for every recorded call (so a True that
    became 1 counts as changed); it then neither validates nor
    instantiates.  Otherwise the domain is ground afresh and the new
    GroundDomain is kept.  This is sound because the domain is frozen
    and ExternalRegistry requires pure evaluators."""
    for decl in domain.externals:
        if registry is None or decl not in registry:
            raise GroundingError(f"no external registered for '{decl[0]}/{decl[1]}'")
    kept = domain.__dict__.get("_grounded")
    if kept is not None:
        gd, calls = kept
        if all(registry.evaluate(name, args) is val for (name, args), val in calls):
            return gd

    diags = validate_signature(domain)
    if diags:
        raise GroundingError("invalid domain: " + "; ".join(str(d) for d in diags))
    closer = _Closer(registry)
    rules: list[Rule] = []
    for law in domain.laws:
        if isinstance(law, (Inertial, Exogenous)):
            rules.append((law, ()))
            continue
        names = [v for v, _ in law.vars]
        bindings = itertools.product(*(s.members for _, s in law.vars))
        calls: dict = {}  # a list below, so that every formula is scanned
        as_closed = all([_scan(f, calls, top) for f, top in _formulas(law)])
        if not calls:
            only = law if as_closed else _closed(law, {})
            if only is not None:
                rules += [(only, b) for b in bindings]
            continue
        closed: dict[tuple[bool, ...], Law | None] = {}
        for b in bindings:
            env = dict(zip(names, b))
            truths = {key: closer.truth(key[0], tuple(env.get(t, t) for t in key[1]))
                      for key in calls}
            key = tuple(truths.values())
            if key not in closed:
                closed[key] = _closed(law, truths)
            if closed[key] is not None:
                rules.append((closed[key], b))
    gd = GroundDomain(domain, tuple(rules))
    domain.__dict__["_grounded"] = (gd, tuple(closer.memo.items()))
    return gd


def _formulas(law: Law) -> list[tuple[Formula, type]]:
    """The formulas of a law schema, in the order _ground_one closes them,
    each with the type of constant that it keeps the law with."""
    if isinstance(law, Caused):
        return [(law.cond, TrueF)] + ([] if law.after is None else [(law.after, TrueF)])
    if isinstance(law, Constraint):
        return [(law.body, FalseF)]
    return [(law.cond, TrueF)]


def _closed(law: Law, truths: dict) -> Law | None:
    """The schema with its external calls closed to truths and its
    formulas simplified, keeping its variables; None when it can never
    fire.  truths holds the result of each of its calls, by (name,
    argument terms), so the closer evaluates none.  Closing does not look
    at atoms, so each of its instances is this law instantiated."""
    closer = _Closer(None)
    closer.memo = truths
    return _instance(law, {}, closer, law.vars)


def _ground_one(law: Law, env: dict[str, str], closer: _Closer) -> Law | None:
    """The ground law that law gives under env, or None when it can never
    fire."""
    return _instance(law, env, closer, ())


def _instance(law: Law, env: dict[str, str], closer: _Closer, vars_) -> Law | None:
    if isinstance(law, Caused):
        head = closer.atom(law.head, env) if law.head is not None else None
        cond = closer.formula(law.cond, env)
        after = closer.formula(law.after, env) if law.after is not None else None
        if isinstance(cond, FalseF) or isinstance(after, FalseF):
            return None  # can never fire
        return Caused(head, cond, after, vars_, law.span)
    if isinstance(law, Causes):
        cond = closer.formula(law.cond, env)
        if isinstance(cond, FalseF):
            return None
        return Causes(closer.atom(law.action, env), closer.atom(law.effect, env),
                      cond, vars_, law.span)
    if isinstance(law, Nonexecutable):
        cond = closer.formula(law.cond, env)
        if isinstance(cond, FalseF):
            return None
        return Nonexecutable(closer.atom(law.action, env), cond, vars_, law.span)
    if isinstance(law, Constraint):
        body = closer.formula(law.body, env)
        if isinstance(body, TrueF):
            return None  # vacuously satisfied
        return Constraint(body, vars_, law.span)
    raise GroundingError(f"cannot ground {law!r}")
