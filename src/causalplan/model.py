"""Core data model for the action-description language.

Sorts, constants, atoms, formulas, causal-law schemas, and planning
problems.  Everything here is an immutable value object; behaviour is
limited to construction, equality, well-formedness checking, and a
canonical ordering pass used by the pretty-printer and the tests.

Conventions baked in here rather than repeated everywhere else:

* A Boolean-valued constant has the built-in two-member value sort
  ``BOOLEAN`` with members ``false``/``true``.  Downstream encodings
  represent the ``false`` atom as the negation of the ``true`` atom, so
  a Boolean constant contributes exactly one propositional variable.
* Action constants are always Boolean-valued.
* Terms (argument and value positions) are plain strings: either object
  names or schema variables.  A schema's ``vars`` tuple says which names
  are variables and what sort each ranges over.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Callable, Union


@dataclass(frozen=True)
class SourceSpan:
    """Half-open region of an input file, 1-based lines and columns."""

    source: str
    line: int
    col: int
    end_line: int
    end_col: int

    def __str__(self):
        return f"{self.source}:{self.line}:{self.col}"


@dataclass(frozen=True)
class Diagnostic:
    message: str
    span: SourceSpan | None = None

    def __str__(self):
        if self.span is None:
            return self.message
        return f"{self.span}: {self.message}"


def _hash_once(cls):
    """Class decorator for a frozen dataclass that atoms, and so most dict
    keys, are made of.  Its hash is computed once per object, to the value
    that dataclass's own __hash__ gives (the hash of the compared fields),
    and is left out of pickles, since str hashes differ between processes.
    Equality is dataclass's."""
    names = tuple(f.name for f in fields(cls) if f.compare)

    def __hash__(self) -> int:
        d = self.__dict__
        h = d.get("_hash")
        if h is None:
            h = d["_hash"] = hash(tuple([getattr(self, n) for n in names]))
        return h

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


@_hash_once
@dataclass(frozen=True)
class Sort:
    """A finite set of named objects."""

    name: str
    members: tuple[str, ...]
    span: SourceSpan | None = field(default=None, compare=False)

    @cached_property
    def member_set(self) -> frozenset[str]:
        return frozenset(self.members)


#: Built-in value sort for Boolean constants.  Kept out of
#: DomainDescription.sorts; it exists implicitly in every domain.
BOOLEAN = Sort("boolean", ("false", "true"))


class Kind(enum.Enum):
    INERTIAL_FLUENT = "inertialFluent"
    SIMPLE_FLUENT = "simpleFluent"
    ACTION = "action"


@_hash_once
@dataclass(frozen=True)
class Constant:
    """A fluent or action constant family, e.g. ``atObj(box) :: inertialFluent(location)``."""

    name: str
    arg_sorts: tuple[Sort, ...]
    kind: Kind
    value_sort: Sort = BOOLEAN
    span: SourceSpan | None = field(default=None, compare=False)

    @property
    def is_boolean(self) -> bool:
        return self.value_sort == BOOLEAN

    @property
    def is_action(self) -> bool:
        return self.kind is Kind.ACTION

    @property
    def is_fluent(self) -> bool:
        return self.kind is not Kind.ACTION

    @property
    def key(self) -> tuple[str, int]:
        return (self.name, len(self.arg_sorts))

    def __str__(self):
        args = f"({', '.join(s.name for s in self.arg_sorts)})" if self.arg_sorts else ""
        val = "" if self.is_boolean else f"({self.value_sort.name})"
        return f"{self.name}{args} :: {self.kind.value}{val}"


@_hash_once
@dataclass(frozen=True)
class Atom:
    """``constant(args)=value``.  For Boolean constants value is "true"/"false"."""

    constant: Constant
    args: tuple[str, ...]
    value: str

    def __str__(self):
        base = self.constant.name
        if self.args:
            base += f"({', '.join(self.args)})"
        if self.constant.is_boolean and self.value == "true":
            return base
        return f"{base}={self.value}"


# --- formulas ---------------------------------------------------------------

@dataclass(frozen=True)
class TrueF:
    def __str__(self):
        return "true"


@dataclass(frozen=True)
class FalseF:
    def __str__(self):
        return "false"


TRUE = TrueF()
FALSE = FalseF()


@dataclass(frozen=True)
class AtomF:
    atom: Atom

    def __str__(self):
        return str(self.atom)


@dataclass(frozen=True)
class Not:
    sub: "Formula"

    def __str__(self):
        if isinstance(self.sub, (And, Or)):
            return f"~({self.sub})"
        return f"~{self.sub}"


@dataclass(frozen=True)
class And:
    parts: tuple["Formula", ...]

    def __str__(self):
        return " & ".join(
            f"({p})" if isinstance(p, Or) else str(p) for p in self.parts
        )


@dataclass(frozen=True)
class Or:
    parts: tuple["Formula", ...]

    def __str__(self):
        return " | ".join(str(p) for p in self.parts)


@dataclass(frozen=True)
class ExternalCall:
    """``@name(args)``: closed to TRUE/FALSE during grounding."""

    name: str
    args: tuple[str, ...]

    def __str__(self):
        return f"@{self.name}({', '.join(self.args)})"


Formula = Union[TrueF, FalseF, AtomF, Not, And, Or, ExternalCall]


def conj(parts) -> Formula:
    """n-ary conjunction with flattening and TRUE/FALSE simplification."""
    flat: list[Formula] = []
    for p in parts:
        if isinstance(p, TrueF):
            continue
        if isinstance(p, FalseF):
            return FALSE
        if isinstance(p, And):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def disj(parts) -> Formula:
    flat: list[Formula] = []
    for p in parts:
        if isinstance(p, FalseF):
            continue
        if isinstance(p, TrueF):
            return TRUE
        if isinstance(p, Or):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def neg(f: Formula) -> Formula:
    if isinstance(f, TrueF):
        return FALSE
    if isinstance(f, FalseF):
        return TRUE
    if isinstance(f, Not):
        return f.sub
    return Not(f)


def formula_atoms(f: Formula):
    """Yield every Atom occurring in f (externals contribute none)."""
    if isinstance(f, AtomF):
        yield f.atom
    elif isinstance(f, Not):
        yield from formula_atoms(f.sub)
    elif isinstance(f, (And, Or)):
        for p in f.parts:
            yield from formula_atoms(p)


def mentions_action(f: Formula) -> bool:
    """Whether some atom of f belongs to an action constant."""
    return any(a.constant.is_action for a in formula_atoms(f))


def eval_formula(f: Formula, atom_truth: Callable[[Atom], bool]) -> bool:
    """Evaluate a ground, external-free formula against an atom valuation."""
    if isinstance(f, TrueF):
        return True
    if isinstance(f, FalseF):
        return False
    if isinstance(f, AtomF):
        return atom_truth(f.atom)
    if isinstance(f, Not):
        return not eval_formula(f.sub, atom_truth)
    if isinstance(f, And):
        return all(eval_formula(p, atom_truth) for p in f.parts)
    if isinstance(f, Or):
        return any(eval_formula(p, atom_truth) for p in f.parts)
    raise ValueError(f"cannot evaluate {f!r}")


# --- causal-law schemas -----------------------------------------------------

#: (variable name, sort it ranges over)
VarBinding = tuple[str, Sort]


@dataclass(frozen=True)
class Caused:
    """``caused head if cond after pre;`` head None encodes the FALSE head."""

    head: Atom | None
    cond: Formula = TRUE
    after: Formula | None = None
    vars: tuple[VarBinding, ...] = ()
    span: SourceSpan | None = field(default=None, compare=False)

    def __str__(self):
        s = f"caused {self.head if self.head is not None else 'false'}"
        if not isinstance(self.cond, TrueF):
            s += f" if {self.cond}"
        if self.after is not None:
            s += f" after {self.after}"
        return s + ";"


@dataclass(frozen=True)
class Causes:
    action: Atom
    effect: Atom
    cond: Formula = TRUE
    vars: tuple[VarBinding, ...] = ()
    span: SourceSpan | None = field(default=None, compare=False)

    def __str__(self):
        s = f"{self.action} causes {self.effect}"
        if not isinstance(self.cond, TrueF):
            s += f" if {self.cond}"
        return s + ";"


@dataclass(frozen=True)
class Nonexecutable:
    action: Atom
    cond: Formula = TRUE
    vars: tuple[VarBinding, ...] = ()
    span: SourceSpan | None = field(default=None, compare=False)

    def __str__(self):
        s = f"nonexecutable {self.action}"
        if not isinstance(self.cond, TrueF):
            s += f" if {self.cond}"
        return s + ";"


@dataclass(frozen=True)
class Constraint:
    body: Formula
    vars: tuple[VarBinding, ...] = ()
    span: SourceSpan | None = field(default=None, compare=False)

    def __str__(self):
        return f"constraint {self.body};"


@dataclass(frozen=True)
class Inertial:
    constant: Constant
    span: SourceSpan | None = field(default=None, compare=False)
    vars: tuple[VarBinding, ...] = ()

    def __str__(self):
        return f"inertial {self.constant.name};"


@dataclass(frozen=True)
class Exogenous:
    constant: Constant
    span: SourceSpan | None = field(default=None, compare=False)
    vars: tuple[VarBinding, ...] = ()

    def __str__(self):
        return f"exogenous {self.constant.name};"


Law = Union[Caused, Causes, Nonexecutable, Constraint, Inertial, Exogenous]

_LAW_RANK = {Inertial: 0, Exogenous: 1, Caused: 2, Causes: 3, Nonexecutable: 4, Constraint: 5}


def law_sort_key(law: Law) -> tuple:
    """Stable total order on laws.  Variable-free laws sort first so the
    pretty-printer never leaves a stale ``vars`` scope hanging over them."""
    vars_txt = " ".join(f"{v}::{s.name}" for v, s in law.vars)
    return (1 if law.vars else 0, _LAW_RANK[type(law)], str(law), vars_txt)


# --- domain and problem -----------------------------------------------------

@dataclass(frozen=True)
class DomainDescription:
    sorts: tuple[Sort, ...]
    constants: tuple[Constant, ...]
    laws: tuple[Law, ...]
    externals: tuple[tuple[str, int], ...] = ()

    @cached_property
    def sort_by_name(self) -> dict[str, Sort]:
        return {s.name: s for s in self.sorts}

    @cached_property
    def constant_by_key(self) -> dict[tuple[str, int], Constant]:
        return {c.key: c for c in self.constants}

    @cached_property
    def object_sorts(self) -> dict[str, Sort]:
        """object name -> the first sort declaring it (an object may belong
        to several sorts; this map only answers 'is this an object')."""
        out: dict[str, Sort] = {}
        for s in self.sorts:
            for m in s.members:
                out.setdefault(m, s)
        return out

    def fluents(self) -> tuple[Constant, ...]:
        return tuple(c for c in self.constants if c.is_fluent)

    def actions(self) -> tuple[Constant, ...]:
        return tuple(c for c in self.constants if c.is_action)


def canonical(domain: DomainDescription) -> DomainDescription:
    """Reorder laws into the canonical stable order.  Idempotent; sorts,
    objects, and constants keep their declaration order."""
    return DomainDescription(
        sorts=domain.sorts,
        constants=domain.constants,
        laws=tuple(sorted(domain.laws, key=law_sort_key)),
        externals=domain.externals,
    )


#: extra problem constraints are tagged with an absolute step or "final"
FINAL = "final"
TimeTag = Union[int, str]


@dataclass(frozen=True)
class PlanningProblem:
    init: Formula = TRUE
    goal: Formula = TRUE
    extra: tuple[tuple[TimeTag, Formula], ...] = ()
    horizon: tuple[int, int] = (0, 20)
    cost_deadline: int | None = None
    noconcurrency: bool = False

    def __post_init__(self):
        lo, hi = self.horizon
        if not (0 <= lo <= hi):
            raise ValueError(f"bad horizon range {self.horizon}")
        if self.cost_deadline is not None and self.cost_deadline < 0:
            raise ValueError("cost deadline must be nonnegative")


# --- action costs -----------------------------------------------------------

@dataclass(frozen=True)
class FluentRef:
    """Cost argument read from the state the action starts in: @name(args)."""

    name: str
    args: tuple[str, ...] = ()


@dataclass(frozen=True)
class ActionArg:
    """Cost argument taken from the action instance itself: $i."""

    index: int


@dataclass(frozen=True)
class ActionCost:
    """Charges external(args...) for every occurrence of the named action."""

    action: str
    external: str
    args: tuple = ()


def charge(cost: ActionCost, args: tuple[str, ...], state, registry) -> int | None:
    """What cost charges for one occurrence of cost.action(args) in state
    (fluent instance -> value): its external evaluated on the arguments
    taken from state and args, or None when the external has no answer.
    A charge must be a nonnegative integer, which a cost deadline can
    bound; any other answer, a fluent state lacks, or an argument args
    lacks, raises ValueError."""
    call = []
    for a in cost.args:
        if isinstance(a, FluentRef):
            key = (a.name, a.args)
            if key not in state:
                raise ValueError(f"cost model reads unknown fluent {instance_str(key)}")
            call.append(state[key])
        elif isinstance(a, ActionArg):
            if a.index >= len(args):
                raise ValueError(
                    f"cost model reads argument ${a.index} of {cost.action}/{len(args)}")
            call.append(args[a.index])
        else:
            call.append(a)
    got = registry.evaluate(cost.external, tuple(call))
    if got is None:
        return None
    if isinstance(got, bool) or not isinstance(got, int):
        raise ValueError(f"cost external '{cost.external}' returned {got!r}, expected an integer")
    if got < 0:
        raise ValueError(
            f"cost external '{cost.external}' returned {got} for {instance_str((cost.action, args))},"
            " a negative charge, which a cost deadline cannot bound")
    return got


# --- signature validation ---------------------------------------------------

def _check_term(term: str, expected: Sort, scope: dict[str, Sort],
                span, where: str | Law, out: list[Diagnostic]):
    sort = scope.get(term)
    if sort is not None:
        # accept narrower sorts by extension (every disk is a place)
        if sort is not expected and sort != expected:
            members = expected.member_set
            extra = next((m for m in sort.members if m not in members), None)
            if extra is not None:
                out.append(Diagnostic(
                    f"{where}: variable '{term}' has sort {sort.name}, "
                    f"expected {expected.name} ('{extra}' is not a member)", span))
        return
    if term not in expected.member_set:
        out.append(Diagnostic(
            f"{where}: '{term}' is not a member of sort {expected.name}", span))


def _check_atom(atom: Atom, scope: dict[str, Sort], domain: DomainDescription,
                span, where: str | Law, out: list[Diagnostic]):
    const = atom.constant
    known = domain.constant_by_key.get(const.key)
    if known is not const and known != const:
        out.append(Diagnostic(f"{where}: unknown constant '{const.name}/{len(atom.args)}'", span))
        return
    if len(atom.args) != len(const.arg_sorts):
        out.append(Diagnostic(f"{where}: '{const.name}' expects {len(const.arg_sorts)} arguments", span))
        return
    # an object that is a member needs no closer look
    for term, sort in zip(atom.args, const.arg_sorts):
        if term in scope or term not in sort.member_set:
            _check_term(term, sort, scope, span, where, out)
    if atom.value in scope or atom.value not in const.value_sort.member_set:
        _check_term(atom.value, const.value_sort, scope, span, where, out)


def _check_formula(f: Formula, scope, domain, span, where, out, *, allow_actions: bool):
    if isinstance(f, (TrueF, FalseF)):
        return
    if isinstance(f, AtomF):
        _check_atom(f.atom, scope, domain, span, where, out)
        if not allow_actions and f.atom.constant.is_action:
            out.append(Diagnostic(
                f"{where}: action constant '{f.atom.constant.name}' not allowed here", span))
    elif isinstance(f, Not):
        _check_formula(f.sub, scope, domain, span, where, out, allow_actions=allow_actions)
    elif isinstance(f, (And, Or)):
        for p in f.parts:
            _check_formula(p, scope, domain, span, where, out, allow_actions=allow_actions)
    elif isinstance(f, ExternalCall):
        if (f.name, len(f.args)) not in domain.externals:
            out.append(Diagnostic(f"{where}: undeclared external '@{f.name}/{len(f.args)}'", span))
        for term in f.args:
            if term not in scope and term not in domain.object_sorts:
                out.append(Diagnostic(f"{where}: unknown term '{term}' in external call", span))


def validate_signature(domain: DomainDescription) -> list[Diagnostic]:
    """Well-formedness diagnostics for a domain; empty list means valid."""
    out: list[Diagnostic] = []

    seen_sorts: set[str] = set()
    for s in domain.sorts:
        if s.name in seen_sorts:
            out.append(Diagnostic(f"duplicate sort '{s.name}'", s.span))
        seen_sorts.add(s.name)
        # an object may belong to several sorts, but only once to each
        local: set[str] = set()
        for m in s.members:
            if m in local:
                out.append(Diagnostic(f"object '{m}' appears twice in sort '{s.name}'", s.span))
            local.add(m)

    seen_consts: set[tuple[str, int]] = set()
    used_sorts: set[str] = set()
    for c in domain.constants:
        if c.key in seen_consts:
            out.append(Diagnostic(f"duplicate constant '{c.name}/{len(c.arg_sorts)}'", c.span))
        seen_consts.add(c.key)
        if c.is_action and not c.is_boolean:
            out.append(Diagnostic(f"action constant '{c.name}' must be Boolean-valued", c.span))
        for s in c.arg_sorts:
            used_sorts.add(s.name)
            if domain.sort_by_name.get(s.name) != s:
                out.append(Diagnostic(f"constant '{c.name}' uses undeclared sort '{s.name}'", c.span))
        if not c.is_boolean:
            used_sorts.add(c.value_sort.name)
            if domain.sort_by_name.get(c.value_sort.name) != c.value_sort:
                out.append(Diagnostic(
                    f"constant '{c.name}' uses undeclared value sort '{c.value_sort.name}'", c.span))

    for s in domain.sorts:
        if s.name in used_sorts and not s.members:
            out.append(Diagnostic(f"sort '{s.name}' is used but has no members", s.span))

    for law in domain.laws:
        scope = dict(law.vars)
        where = law  # formatted only when a diagnostic is made
        for v, _sort in law.vars:
            if v in domain.object_sorts:
                out.append(Diagnostic(f"{where}: variable '{v}' shadows an object name", law.span))
        if isinstance(law, Caused):
            if law.head is not None:
                _check_atom(law.head, scope, domain, law.span, where, out)
                if law.head.constant.is_action and law.after is not None:
                    out.append(Diagnostic(f"{where}: head of an 'after' law cannot be an action", law.span))
            # a fluent-headed static law must not read actions: there is no
            # step at which both sides would be well-defined
            head_is_false = law.head is None
            _check_formula(law.cond, scope, domain, law.span, where, out,
                           allow_actions=head_is_false and law.after is None)
            if law.after is not None:
                _check_formula(law.after, scope, domain, law.span, where, out, allow_actions=True)
            if law.head is not None and law.head.constant.is_action and law.after is None:
                # static action head: only exogeneity-style self-support makes sense,
                # and that is generated implicitly; reject to avoid silent surprises
                out.append(Diagnostic(f"{where}: action constants cannot be caused explicitly", law.span))
        elif isinstance(law, Causes):
            _check_atom(law.action, scope, domain, law.span, where, out)
            _check_atom(law.effect, scope, domain, law.span, where, out)
            if not law.action.constant.is_action:
                out.append(Diagnostic(f"{where}: '{law.action.constant.name}' is not an action", law.span))
            if law.effect.constant.is_action:
                out.append(Diagnostic(f"{where}: effect must be a fluent atom", law.span))
            _check_formula(law.cond, scope, domain, law.span, where, out, allow_actions=True)
        elif isinstance(law, Nonexecutable):
            _check_atom(law.action, scope, domain, law.span, where, out)
            if not law.action.constant.is_action:
                out.append(Diagnostic(f"{where}: '{law.action.constant.name}' is not an action", law.span))
            _check_formula(law.cond, scope, domain, law.span, where, out, allow_actions=True)
        elif isinstance(law, Constraint):
            _check_formula(law.body, scope, domain, law.span, where, out, allow_actions=True)
        elif isinstance(law, (Inertial, Exogenous)):
            if domain.constant_by_key.get(law.constant.key) != law.constant:
                out.append(Diagnostic(f"{where}: unknown constant '{law.constant.name}'", law.span))
            elif isinstance(law, Inertial) and law.constant.is_action:
                out.append(Diagnostic(f"{where}: actions cannot be inertial", law.span))

    return out


def validate_problem(problem: PlanningProblem, domain: DomainDescription) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    scope: dict[str, Sort] = {}
    hi = problem.horizon[1]

    # :init may mention actions (the first step is then forced to exist);
    # the goal sits at the final step, after the last action
    _check_formula(problem.init, scope, domain, None, ":init", out, allow_actions=True)
    _check_formula(problem.goal, scope, domain, None, ":goal", out, allow_actions=False)
    if mentions_action(problem.init) and hi < 1:
        out.append(Diagnostic(":init mentions actions but the horizon is fixed at 0"))
    for tag, f in problem.extra:
        if isinstance(tag, int) and tag < 0:
            out.append(Diagnostic(f":at {tag}: step must be nonnegative"))
        elif not isinstance(tag, int) and tag != FINAL:
            out.append(Diagnostic(f":at {tag}: bad time tag"))
        _check_formula(f, scope, domain, None, f":at {tag}", out, allow_actions=True)
        if isinstance(tag, int) and tag > hi:
            out.append(Diagnostic(f":at {tag}: beyond the horizon bound {hi}"))
        elif isinstance(tag, int) and tag == hi and mentions_action(f):
            out.append(Diagnostic(
                f":at {tag}: actions cannot occur at the final step of the horizon"))
        elif tag == FINAL and mentions_action(f):
            out.append(Diagnostic(":at final: may not mention actions"))
    return out


# --- ground states ----------------------------------------------------------

#: a ground fluent or action instance: (constant name, argument objects)
GroundInstance = tuple[str, tuple[str, ...]]

#: value-complete assignment of fluent instances for one time step
State = dict[GroundInstance, str]


def instance_str(inst: GroundInstance) -> str:
    name, args = inst
    return name + (f"({','.join(args)})" if args else "")


def split_top_level(text: str) -> list[str]:
    """Split text at the commas outside parentheses.  Each part keeps its
    whitespace, and an empty text is one empty part."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
            continue
        depth += ch == "("
        depth -= ch == ")"
        cur.append(ch)
    parts.append("".join(cur))
    return parts


def freeze_state(state: State) -> frozenset:
    return frozenset((name, args, val) for (name, args), val in state.items())
