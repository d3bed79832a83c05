"""Lexer, parser, and pretty-printer for domain and problem files.

The surface syntax is section-oriented:

    :sorts location box
    :objects L1, L2 :: location; B1 :: box;
    :constants atRobo :: inertialFluent(location); goto(location) :: action;
    :externals pathExists/2;
    :laws
      vars y :: location;
      goto(y) causes atRobo=y;
      inertial atRobo;

The sections come in this fixed order (``:sorts``, ``:objects`` and
``:externals`` may be left out), so every sort has its final members
before a constant or a ``vars`` line names it.  Each Sort, Constant and
law is built once: the constants and laws of a parsed domain refer to
the very Sort and Constant objects it lists.

Problems:

    :init atRobo=L1;  :goal atObj(B1)=L3;  :horizon 0..10;

``%`` starts a comment.  The lexer is one compiled regular expression;
its tokens are plain tuples, and a token's SourceSpan is built only for
what keeps one: a diagnostic, a sort, a constant or a law.

Parsing never raises on bad input by accident:
every failure is reported as a Diagnostic with a source span, collected
in a ParseError.  Panic-mode recovery (skip to the next ``;`` or
section) lets one pass report several errors.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .model import (
    BOOLEAN, FALSE, FINAL, TRUE, And, Atom, AtomF, Caused, Causes, Constant,
    Constraint, Diagnostic, DomainDescription, Exogenous, ExternalCall,
    Formula, Inertial, Kind, Law, Nonexecutable, Not, Or, PlanningProblem,
    Sort, SourceSpan, TrueF, canonical, conj, disj, neg,
)

MAX_DIAGNOSTICS = 25


class ParseError(Exception):
    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(str(d) for d in diagnostics[:3])
                         + ("; ..." if len(diagnostics) > 3 else ""))


# --- lexer -------------------------------------------------------------------

_PUNCT = {
    "::": "DCOLON", "..": "DOTDOT", ";": "SEMI", ",": "COMMA", "(": "LPAREN",
    ")": "RPAREN", "=": "EQ", "~": "TILDE", "&": "AMP", "|": "PIPE",
    "@": "AT", "/": "SLASH",
}

# One named alternative per token kind, tried in this order; each
# punctuation mark is its own group, so a match's lastgroup is its kind.
# An integer is decimal digits only, which int() always accepts.
_TOKEN = re.compile("|".join([
    r"(?P<SKIP>[ \t\r]+|%[^\n]*)",
    r"(?P<NEWLINE>\n)",
    r"(?P<SECTION>:[^\W\d]\w*)",
    r"(?P<NAME>[^\W\d]\w*)",
    r"(?P<INT>\d+)",
    *(f"(?P<{kind}>{re.escape(mark)})" for mark, kind in _PUNCT.items()),
    r"(?P<OTHER>.)",
]))


class Token(NamedTuple):
    kind: str  # SECTION NAME INT punct-kinds EOF
    text: str
    line: int
    col: int
    source: str

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.source, self.line, self.col, self.line, self.col + len(self.text))


def _lex(text: str, source: str, error) -> list[Token]:
    """Tokens of text, ending in EOF; each unexpected character is passed
    to error(message, span)."""
    toks: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "SKIP":
            continue
        if kind == "NEWLINE":
            line += 1
            line_start = m.end()
            continue
        tok = Token(kind, m.group(), line, m.start() - line_start + 1, source)
        if kind == "OTHER":
            error(f"unexpected character {tok.text!r}", tok.span)
        else:
            toks.append(tok)
    toks.append(Token("EOF", "", line, len(text) - line_start + 1, source))
    return toks


# --- parser ------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str, source: str):
        self.diags: list[Diagnostic] = []
        self.toks = _lex(text, source, self.error)
        self.pos = 0

    # token plumbing

    @property
    def cur(self) -> Token:
        return self.toks[self.pos]

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.cur
        return t.kind == kind and (text is None or t.text == text)

    def advance(self) -> Token:
        t = self.cur
        if t.kind != "EOF":
            self.pos += 1
        return t

    def error(self, msg: str, span: SourceSpan | None = None):
        if len(self.diags) < MAX_DIAGNOSTICS:
            self.diags.append(Diagnostic(msg, span or self.cur.span))

    def expect(self, kind: str, what: str) -> Token | None:
        if self.at(kind):
            return self.advance()
        self.error(f"expected {what}, found {self.cur.text or 'end of input'!r}")
        return None

    def recover(self):
        """Skip to just past the next ';' (or stop at a section/EOF)."""
        while not self.at("EOF") and not self.at("SECTION"):
            if self.advance().kind == "SEMI":
                return

    def end_section(self) -> None:
        """Expect the ';' that closes a section; on anything else, report
        it once and skip past the next ';'."""
        if self.expect("SEMI", "';'") is None:
            self.recover()

    def fail(self) -> ParseError:
        if not self.diags:
            self.error("parse failed")
        return ParseError(self.diags)


def _parse_name_list(p: _Parser) -> list[Token]:
    names = []
    t = p.expect("NAME", "a name")
    if t:
        names.append(t)
    while p.at("COMMA"):
        p.advance()
        t = p.expect("NAME", "a name")
        if t:
            names.append(t)
    return names


class _DomainParser(_Parser):
    def __init__(self, text: str, source: str):
        super().__init__(text, source)
        self.members: dict[str, list[str]] = {}  # sort name -> objects so far
        self.sort_spans: dict[str, SourceSpan] = {}
        self.sorts: dict[str, Sort] = {}  # built when :constants starts
        self.constants: dict[tuple[str, int], Constant] = {}
        self.externals: list[tuple[str, int]] = []
        self.laws: list[Law] = []
        self.scope: dict[str, Sort] = {}  # current `vars` scope

    # sections ---------------------------------------------------------------

    def parse(self) -> DomainDescription:
        if self.at("EOF"):
            self.error("empty input: missing :constants section")
            raise self.fail()
        # purely Boolean domains need no sorts or objects
        if self.at("SECTION", ":sorts"):
            self.section_sorts()
        if self.at("SECTION", ":objects"):
            self.section_objects()
        self.section_constants()
        if self.at("SECTION", ":externals"):
            self.section_externals()
        self.section_laws()
        if self.diags:
            raise self.fail()
        return DomainDescription(
            sorts=tuple(self.sorts.values()),
            constants=tuple(self.constants.values()),
            laws=tuple(self.laws),
            externals=tuple(self.externals),
        )

    def section_sorts(self):
        if not self.at("SECTION", ":sorts"):
            self.error("missing :sorts section")
            raise self.fail()
        self.advance()
        got = False
        while self.at("NAME"):
            t = self.advance()
            got = True
            if t.text in self.members:
                self.error(f"duplicate sort '{t.text}'", t.span)
            else:
                self.members[t.text] = []
                self.sort_spans[t.text] = t.span
        if not got:
            self.error("expected at least one sort name after :sorts")

    def section_objects(self):
        if not self.at("SECTION", ":objects"):
            self.error("missing :objects section")
            raise self.fail()
        self.advance()
        while self.at("NAME"):
            names = _parse_name_list(self)
            if not self.expect("DCOLON", "'::'"):
                self.recover()
                continue
            sort_t = self.expect("NAME", "a sort name")
            self.expect("SEMI", "';'")
            if sort_t is None:
                continue
            members = self.members.get(sort_t.text)
            if members is None:
                self.error(f"unknown sort '{sort_t.text}'", sort_t.span)
                continue
            for t in names:
                # an object may belong to several sorts (union sorts), but
                # not twice to the same one
                if t.text in members:
                    self.error(f"object '{t.text}' appears twice in sort '{sort_t.text}'", t.span)
                else:
                    members.append(t.text)

    def get_sort(self, tok: Token) -> Sort | None:
        s = self.sorts.get(tok.text)
        if s is None:
            self.error(f"unknown sort '{tok.text}'", tok.span)
        return s

    def section_constants(self):
        if not self.at("SECTION", ":constants"):
            self.error("missing :constants section")
            raise self.fail()
        self.advance()
        # :objects is behind us, so every sort has its final members
        self.sorts = {n: Sort(n, tuple(m), self.sort_spans[n]) for n, m in self.members.items()}
        while self.at("NAME"):
            name_t = self.advance()
            arg_sorts: list[Sort] = []
            if self.at("LPAREN"):
                self.advance()
                while True:
                    t = self.expect("NAME", "a sort name")
                    if t is None:
                        break
                    s = self.get_sort(t)
                    if s is not None:
                        arg_sorts.append(s)
                    if self.at("COMMA"):
                        self.advance()
                        continue
                    break
                self.expect("RPAREN", "')'")
            if not self.expect("DCOLON", "'::'"):
                self.recover()
                continue
            kind_t = self.expect("NAME", "a constant kind")
            if kind_t is None:
                self.recover()
                continue
            try:
                kind = Kind(kind_t.text)
            except ValueError:
                self.error(f"unknown constant kind '{kind_t.text}' "
                           "(expected inertialFluent, simpleFluent, or action)", kind_t.span)
                self.recover()
                continue
            value_sort = BOOLEAN
            if self.at("LPAREN"):
                self.advance()
                t = self.expect("NAME", "a value sort")
                if t is not None:
                    s = self.get_sort(t)
                    if s is not None:
                        value_sort = s
                self.expect("RPAREN", "')'")
            self.expect("SEMI", "';'")
            const = Constant(name_t.text, tuple(arg_sorts), kind, value_sort, name_t.span)
            if const.key in self.constants:
                self.error(f"duplicate constant '{const.name}/{len(arg_sorts)}'", name_t.span)
            else:
                self.constants[const.key] = const

    def section_externals(self):
        self.advance()
        while self.at("NAME"):
            name_t = self.advance()
            if not self.expect("SLASH", "'/'"):
                self.recover()
                continue
            arity_t = self.expect("INT", "an arity")
            if arity_t is None:
                self.recover()
                continue
            self.expect("SEMI", "';'")
            decl = (name_t.text, int(arity_t.text))
            if decl in self.externals:
                self.error(f"duplicate external declaration '{name_t.text}/{arity_t.text}'", name_t.span)
            else:
                self.externals.append(decl)

    # terms, atoms, formulas ---------------------------------------------------

    def parse_atom(self) -> Atom | None:
        name_t = self.expect("NAME", "a constant name")
        if name_t is None:
            return None
        args: list[str] = []
        if self.at("LPAREN"):
            self.advance()
            while True:
                t = self.expect("NAME", "an argument")
                if t is None:
                    return None
                args.append(t.text)
                if self.at("COMMA"):
                    self.advance()
                    continue
                break
            if not self.expect("RPAREN", "')'"):
                return None
        const = self.constants.get((name_t.text, len(args)))
        if const is None:
            self.error(f"unknown constant '{name_t.text}/{len(args)}'", name_t.span)
            return None
        if self.at("EQ"):
            self.advance()
            val_t = self.expect("NAME", "a value")
            if val_t is None:
                return None
            value = val_t.text
        else:
            if not const.is_boolean:
                self.error(f"constant '{const.name}' is {const.value_sort.name}-valued; "
                           "'=value' is required", name_t.span)
                return None
            value = "true"
        return Atom(const, tuple(args), value)

    def parse_formula(self) -> Formula | None:
        parts = [self.parse_and()]
        while self.at("PIPE"):
            self.advance()
            parts.append(self.parse_and())
        if any(p is None for p in parts):
            return None
        return disj(parts) if len(parts) > 1 else parts[0]

    def parse_and(self) -> Formula | None:
        parts = [self.parse_unary()]
        while self.at("AMP"):
            self.advance()
            parts.append(self.parse_unary())
        if any(p is None for p in parts):
            return None
        return conj(parts) if len(parts) > 1 else parts[0]

    def parse_unary(self) -> Formula | None:
        if self.at("TILDE"):
            self.advance()
            sub = self.parse_unary()
            return None if sub is None else neg(sub)
        if self.at("LPAREN"):
            self.advance()
            f = self.parse_formula()
            self.expect("RPAREN", "')'")
            return f
        if self.at("AT"):
            return self.parse_external()
        if self.at("NAME", "true"):
            self.advance()
            return TRUE
        if self.at("NAME", "false"):
            self.advance()
            return FALSE
        if self.at("NAME"):
            a = self.parse_atom()
            return None if a is None else AtomF(a)
        self.error(f"expected a formula, found {self.cur.text or 'end of input'!r}")
        return None

    def parse_external(self) -> Formula | None:
        self.advance()  # '@'
        name_t = self.expect("NAME", "an external name")
        if name_t is None or not self.expect("LPAREN", "'('"):
            return None
        args: list[str] = []
        if not self.at("RPAREN"):
            while True:
                t = self.expect("NAME", "an argument")
                if t is None:
                    return None
                args.append(t.text)
                if self.at("COMMA"):
                    self.advance()
                    continue
                break
        if not self.expect("RPAREN", "')'"):
            return None
        return ExternalCall(name_t.text, tuple(args))

    # laws ---------------------------------------------------------------------

    def law_vars(self, *formulas) -> tuple:
        """Restrict the current scope to the variables the law actually uses."""
        used: set[str] = set()

        def walk(f):
            if isinstance(f, Atom):
                used.update(t for t in f.args if t in self.scope)
                if f.value in self.scope:
                    used.add(f.value)
            elif isinstance(f, AtomF):
                walk(f.atom)
            elif isinstance(f, Not):
                walk(f.sub)
            elif isinstance(f, (And, Or)):
                for p in f.parts:
                    walk(p)
            elif isinstance(f, ExternalCall):
                used.update(t for t in f.args if t in self.scope)

        for f in formulas:
            if f is not None:
                walk(f)
        return tuple((v, s) for v, s in self.scope.items() if v in used)

    def section_laws(self):
        if not self.at("SECTION", ":laws"):
            self.error("missing :laws section")
            raise self.fail()
        self.advance()
        while not self.at("EOF"):
            if self.at("SECTION"):
                self.error(f"unexpected section '{self.cur.text}' inside :laws")
                self.advance()
                continue
            before = self.pos
            self.parse_law()
            if self.pos == before:  # always make progress
                self.advance()
            if len(self.diags) >= MAX_DIAGNOSTICS:
                raise self.fail()

    def parse_law(self):
        t = self.cur
        if t.kind != "NAME":
            self.error(f"expected a law, found {t.text!r}")
            self.recover()
            return
        if t.text == "vars":
            self.parse_vars()
            return
        span = t.span
        if t.text == "caused":
            self.advance()
            if self.at("NAME", "false"):
                self.advance()
                head = None
            else:
                head = self.parse_atom()
                if head is None:
                    self.recover()
                    return
            cond: Formula = TRUE
            after: Formula | None = None
            if self.at("NAME", "if"):
                self.advance()
                cond = self.parse_formula()
            has_after = self.at("NAME", "after")
            if has_after:
                self.advance()
                after = self.parse_formula()
            if cond is None or (has_after and after is None):
                self.recover()
                return
            self.expect("SEMI", "';'")
            self.laws.append(Caused(head, cond, after,
                                    self.law_vars(head, cond, after), span))
        elif t.text == "nonexecutable":
            self.advance()
            act = self.parse_atom()
            if act is None:
                self.recover()
                return
            cond = TRUE
            if self.at("NAME", "if"):
                self.advance()
                cond = self.parse_formula()
                if cond is None:
                    self.recover()
                    return
            self.expect("SEMI", "';'")
            self.laws.append(Nonexecutable(act, cond, self.law_vars(act, cond), span))
        elif t.text == "constraint":
            self.advance()
            body = self.parse_formula()
            if body is None:
                self.recover()
                return
            self.expect("SEMI", "';'")
            self.laws.append(Constraint(body, self.law_vars(body), span))
        elif t.text in ("inertial", "exogenous"):
            self.advance()
            name_t = self.expect("NAME", "a constant name")
            self.expect("SEMI", "';'")
            if name_t is None:
                return
            matches = [c for (n, _a), c in self.constants.items() if n == name_t.text]
            if not matches:
                self.error(f"unknown constant '{name_t.text}'", name_t.span)
                return
            cls = Inertial if t.text == "inertial" else Exogenous
            self.laws.append(cls(matches[0], span))
        else:
            act = self.parse_atom()
            if act is None:
                self.recover()
                return
            if not self.at("NAME", "causes"):
                self.error("expected 'causes'")
                self.recover()
                return
            self.advance()
            effect = self.parse_atom()
            if effect is None:
                self.recover()
                return
            cond = TRUE
            if self.at("NAME", "if"):
                self.advance()
                cond = self.parse_formula()
                if cond is None:
                    self.recover()
                    return
            self.expect("SEMI", "';'")
            self.laws.append(Causes(act, effect, cond,
                                    self.law_vars(act, effect, cond), span))

    def parse_vars(self):
        self.advance()  # 'vars'
        bindings: list[tuple[str, Sort]] = []
        while self.at("NAME"):
            v = self.advance()
            if not self.expect("DCOLON", "'::'"):
                self.recover()
                return
            sort_t = self.expect("NAME", "a sort name")
            if sort_t is None:
                self.recover()
                return
            s = self.get_sort(sort_t)
            if s is not None:
                bindings.append((v.text, s))
        self.expect("SEMI", "';'")
        if not bindings:
            self.error("vars declaration needs at least one binding")
        self.scope = dict(bindings)  # a new declaration replaces the scope


def parse_domain(text: str, source: str = "<domain>") -> DomainDescription:
    """Parse a domain file.  Raises ParseError carrying diagnostics."""
    return _DomainParser(text, source).parse()


# --- problems ----------------------------------------------------------------

class _ProblemParser(_DomainParser):
    """Reuses the formula machinery with a fixed domain signature."""

    def __init__(self, text: str, source: str, domain: DomainDescription):
        _Parser.__init__(self, text, source)
        self.constants = dict(domain.constant_by_key)
        self.scope = {}

    def parse_problem(self) -> PlanningProblem:
        init: Formula | None = None
        goal: Formula | None = None
        extra: list[tuple] = []
        horizon: tuple[int, int] | None = None
        deadline: int | None = None
        noconc = False
        while not self.at("EOF"):
            if not self.at("SECTION"):
                self.error(f"expected a problem section, found {self.cur.text!r}")
                self.recover()
                continue
            t = self.advance()
            if t.text == ":init":
                if init is not None:
                    self.error("duplicate :init section", t.span)
                init = self.parse_formula()
                self.end_section()
            elif t.text == ":goal":
                if goal is not None:
                    self.error("duplicate :goal section", t.span)
                goal = self.parse_formula()
                self.end_section()
            elif t.text == ":at":
                if self.at("INT"):
                    tag = int(self.advance().text)
                elif self.at("NAME", "final"):
                    self.advance()
                    tag = FINAL
                else:
                    self.error("expected a step number or 'final' after :at")
                    self.recover()
                    continue
                f = self.parse_formula()
                self.end_section()
                if f is not None:
                    extra.append((tag, f))
            elif t.text == ":horizon":
                lo = self.expect("INT", "a horizon bound")
                hi = lo and self.expect("DOTDOT", "'..'") and self.expect("INT", "a horizon bound")
                if hi is None:
                    self.recover()
                    continue
                self.end_section()
                if horizon is not None:
                    self.error("duplicate :horizon section", t.span)
                horizon = (int(lo.text), int(hi.text))
                if horizon[0] > horizon[1]:
                    self.error(f"empty horizon range {horizon[0]}..{horizon[1]}", t.span)
                    horizon = (horizon[0], horizon[0])
            elif t.text == ":maxcost":
                v = self.expect("INT", "a cost bound")
                if v is None:
                    self.recover()
                    continue
                self.end_section()
                deadline = int(v.text)
            elif t.text == ":noconcurrency":
                self.end_section()
                noconc = True
            else:
                self.error(f"unknown problem section '{t.text}'", t.span)
                self.recover()
        if self.diags:
            raise self.fail()
        return PlanningProblem(
            init=init if init is not None else TRUE,
            goal=goal if goal is not None else TRUE,
            extra=tuple(extra),
            horizon=horizon if horizon is not None else (0, 20),
            cost_deadline=deadline,
            noconcurrency=noconc,
        )


def parse_problem(text: str, domain: DomainDescription,
                  source: str = "<problem>") -> PlanningProblem:
    if not text.strip():
        raise ParseError([Diagnostic("empty problem file", SourceSpan(source, 1, 1, 1, 1))])
    return _ProblemParser(text, source, domain).parse_problem()


# --- prediction queries --------------------------------------------------------

class _QueryParser(_ProblemParser):
    def parse_query(self):
        init: Formula | None = None
        steps: list[list[tuple[str, tuple[str, ...]]]] = []
        while not self.at("EOF"):
            if not self.at("SECTION"):
                self.error(f"expected :state or :do, found {self.cur.text!r}")
                self.recover()
                continue
            t = self.advance()
            if t.text == ":state":
                if init is not None:
                    self.error("duplicate :state section", t.span)
                init = self.parse_formula()
                self.expect("SEMI", "';'")
            elif t.text == ":do":
                acts: list[tuple[str, tuple[str, ...]]] = []
                if not self.at("SEMI"):
                    while True:
                        a = self.parse_atom()
                        if a is None:
                            self.recover()
                            break
                        if not a.constant.is_action:
                            self.error(f"'{a.constant.name}' is not an action", t.span)
                        elif a.value != "true":
                            self.error("an action in :do cannot carry '=value'", t.span)
                        else:
                            acts.append((a.constant.name, a.args))
                        if self.at("COMMA"):
                            self.advance()
                            continue
                        self.expect("SEMI", "';'")
                        break
                else:
                    self.advance()  # bare ':do;' is a wait step
                steps.append(sorted(acts))
            else:
                self.error(f"unknown query section '{t.text}'", t.span)
                self.recover()
        if self.diags:
            raise self.fail()
        return (init if init is not None else TRUE), steps


def parse_query(text: str, domain: DomainDescription,
                source: str = "<query>"):
    """Parse a prediction query: one ':state <formula>;' section and one
    ':do a1, a2;' section per step (':do;' alone is a wait step).  Returns
    (initial formula, action steps)."""
    if not text.strip():
        raise ParseError([Diagnostic("empty query file", SourceSpan(source, 1, 1, 1, 1))])
    return _QueryParser(text, source, domain).parse_query()


# --- pretty printer ----------------------------------------------------------

def _print_law(law: Law) -> str:
    if law.vars:
        vars_txt = " ".join(f"{v} :: {s.name}" for v, s in law.vars)
        return f"vars {vars_txt};\n  {law}"
    return str(law)


def pretty_print(obj) -> str:
    """Render a DomainDescription or PlanningProblem to canonical text.

    Domains are canonicalized first, so parse(pretty_print(d)) equals
    canonical(d) for any valid d.
    """
    if isinstance(obj, DomainDescription):
        d = canonical(obj)
        lines = []
        if d.sorts:
            lines.append(":sorts " + " ".join(s.name for s in d.sorts))
        if any(s.members for s in d.sorts):
            lines.append(":objects")
            for s in d.sorts:
                if s.members:
                    lines.append(f"  {', '.join(s.members)} :: {s.name};")
        lines.append(":constants")
        for c in d.constants:
            lines.append(f"  {c};")
        if d.externals:
            lines.append(":externals")
            for name, arity in d.externals:
                lines.append(f"  {name}/{arity};")
        lines.append(":laws")
        for law in d.laws:
            lines.append("  " + _print_law(law))
        return "\n".join(lines) + "\n"

    if isinstance(obj, PlanningProblem):
        p = obj
        lines = []
        if not isinstance(p.init, TrueF):
            lines.append(f":init {p.init};")
        if not isinstance(p.goal, TrueF):
            lines.append(f":goal {p.goal};")
        for tag, f in p.extra:
            lines.append(f":at {tag} {f};")
        lines.append(f":horizon {p.horizon[0]}..{p.horizon[1]};")
        if p.cost_deadline is not None:
            lines.append(f":maxcost {p.cost_deadline};")
        if p.noconcurrency:
            lines.append(":noconcurrency;")
        return "\n".join(lines) + "\n"

    raise TypeError(f"cannot pretty-print {type(obj).__name__}")
