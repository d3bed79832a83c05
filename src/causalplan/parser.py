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

Parsing never raises on bad input by accident: every failure is
reported as a Diagnostic with a source span, at most MAX_DIAGNOSTICS of
them collected in a ParseError.  Every statement -- an object, constant
or external declaration, a law, a ``vars`` line, a problem or query
section -- ends in ``;``, and one rule recovers from a mistake in any of
them, so that one mistake gives one diagnostic:

* a mistake inside a statement is reported where it is found, and
  parsing skips past the statement's ``;`` (or to the next section);
* a statement that parses but lacks its ``;`` is kept: the missing
  ``;`` is reported, and parsing resumes at the token found instead, so
  a statement on the next line is still read;
* after either, nothing more is reported until a ``;`` or a section
  name is passed.

A constant whose declaration was reported is not reported again as
unknown where a law uses it.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .model import (
    BOOLEAN, FALSE, FINAL, TRUE, And, Atom, AtomF, Caused, Causes, Constant,
    Constraint, Diagnostic, DomainDescription, Exogenous, ExternalCall,
    Formula, Inertial, Kind, Law, Nonexecutable, Not, Or, PlanningProblem,
    Sort, SourceSpan, TrueF, canonical, conj, disj, instance_str, neg,
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
        self.quiet = False  # reports held back after a broken statement
        self.toks = _lex(text, source, self.error)
        self.pos = 0

    # token plumbing

    @property
    def cur(self) -> Token:
        return self.toks[self.pos]

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.toks[self.pos]
        return t.kind == kind and (text is None or t.text == text)

    def advance(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "EOF":
            self.pos += 1
            if t.kind == "SEMI" or t.kind == "SECTION":
                self.quiet = False  # a statement boundary: report again
        return t

    def error(self, msg: str, span: SourceSpan | None = None):
        if not self.quiet and len(self.diags) < MAX_DIAGNOSTICS:
            self.diags.append(Diagnostic(msg, span or self.cur.span))

    def expect(self, kind: str, what: str) -> Token | None:
        if self.at(kind):
            return self.advance()
        self.error(f"expected {what}, found {self.cur.text or 'end of input'!r}")
        return None

    def statement(self, parse):
        """Parse one statement with parse() and take the ';' that closes
        it, recovering as the module docstring says.  parse() reports the
        statement's first mistake and returns None; otherwise its result
        is returned, even when the ';' is missing."""
        result = parse()
        if result is None:
            self.quiet = True
            while not self.at("EOF") and not self.at("SECTION"):
                if self.advance().kind == "SEMI":
                    break
        elif self.expect("SEMI", "';'") is None:
            self.quiet = True
        return result

    def separated(self, item, *args, sep: str = "COMMA") -> list | None:
        """One or more items read by item(*args), separated by sep; None
        as soon as an item fails."""
        items = []
        while (x := item(*args)) is not None:
            items.append(x)
            if not self.at(sep):
                return items
            self.advance()
        return None

    def fail(self) -> ParseError:
        if not self.diags:
            self.error("parse failed")
        return ParseError(self.diags)


class _DomainParser(_Parser):
    def __init__(self, text: str, source: str):
        super().__init__(text, source)
        self.members: dict[str, list[str]] = {}  # sort name -> objects so far
        self.sort_spans: dict[str, SourceSpan] = {}
        self.sorts: dict[str, Sort] = {}  # built when :constants starts
        self.constants: dict[tuple[str, int], Constant] = {}
        self.broken: set[str] = set()  # names of constants declared wrongly
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
        self.advance()
        if not self.at("NAME"):
            # the token found is not reported again, say as a missing section
            self.error("expected at least one sort name after :sorts")
            self.quiet = True
        while self.at("NAME"):
            t = self.advance()
            if t.text in self.members:
                self.error(f"duplicate sort '{t.text}'", t.span)
            else:
                self.members[t.text] = []
                self.sort_spans[t.text] = t.span

    def section_objects(self):
        self.advance()
        while self.at("NAME"):
            decl = self.statement(self.object_decl)
            if decl is None:
                continue
            names, sort_t = decl
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

    def object_decl(self):
        names = self.separated(self.expect, "NAME", "a name")
        sort_t = names and self.expect("DCOLON", "'::'") and self.expect("NAME", "a sort name")
        return (names, sort_t) if sort_t else None

    def sort(self, what: str = "a sort name") -> Sort | None:
        t = self.expect("NAME", what)
        if t is None:
            return None
        s = self.sorts.get(t.text)
        if s is None:
            self.error(f"unknown sort '{t.text}'", t.span)
        return s

    def section_constants(self):
        if not self.at("SECTION", ":constants"):
            self.error("missing :constants section")
            raise self.fail()
        self.advance()
        # :objects is behind us, so every sort has its final members
        self.sorts = {n: Sort(n, tuple(m), self.sort_spans[n]) for n, m in self.members.items()}
        while self.at("NAME"):
            name_t = self.cur
            const = self.statement(self.constant_decl)
            if const is None:
                self.broken.add(name_t.text)
            elif const.key in self.constants:
                self.error(f"duplicate constant '{const.name}/{len(const.arg_sorts)}'", name_t.span)
            else:
                self.constants[const.key] = const

    def constant_decl(self) -> Constant | None:
        name_t = self.advance()
        arg_sorts: list[Sort] = []
        if self.at("LPAREN"):
            self.advance()
            arg_sorts = self.separated(self.sort)
            if arg_sorts is None or not self.expect("RPAREN", "')'"):
                return None
        kind_t = self.expect("DCOLON", "'::'") and self.expect("NAME", "a constant kind")
        if kind_t is None:
            return None
        try:
            kind = Kind(kind_t.text)
        except ValueError:
            self.error(f"unknown constant kind '{kind_t.text}' "
                       "(expected inertialFluent, simpleFluent, or action)", kind_t.span)
            return None
        value_sort = BOOLEAN
        if self.at("LPAREN"):
            self.advance()
            value_sort = self.sort("a value sort")
            if value_sort is None or not self.expect("RPAREN", "')'"):
                return None
        return Constant(name_t.text, tuple(arg_sorts), kind, value_sort, name_t.span)

    def section_externals(self):
        self.advance()
        while self.at("NAME"):
            decl = self.statement(self.external_decl)
            if decl is None:
                continue
            name_t, arity = decl
            if (name_t.text, arity) in self.externals:
                self.error(f"duplicate external declaration '{name_t.text}/{arity}'", name_t.span)
            else:
                self.externals.append((name_t.text, arity))

    def external_decl(self):
        name_t = self.advance()
        arity_t = self.expect("SLASH", "'/'") and self.expect("INT", "an arity")
        return (name_t, int(arity_t.text)) if arity_t else None

    # terms, atoms, formulas ---------------------------------------------------

    def unknown_constant(self, name_t: Token, what: str) -> None:
        # a constant whose declaration was reported is not reported again
        if name_t.text not in self.broken:
            self.error(f"unknown constant '{what}'", name_t.span)

    def parse_atom(self) -> Atom | None:
        name_t = self.expect("NAME", "a constant name")
        if name_t is None:
            return None
        args: tuple[str, ...] = ()
        if self.at("LPAREN"):
            self.advance()
            arg_toks = self.separated(self.expect, "NAME", "an argument")
            if arg_toks is None or not self.expect("RPAREN", "')'"):
                return None
            args = tuple(t.text for t in arg_toks)
        const = self.constants.get((name_t.text, len(args)))
        if const is None:
            self.unknown_constant(name_t, f"{name_t.text}/{len(args)}")
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
        return Atom(const, args, value)

    def parse_formula(self) -> Formula | None:
        parts = self.separated(self.parse_and, sep="PIPE")
        if parts is None:
            return None
        return disj(parts) if len(parts) > 1 else parts[0]

    def parse_and(self) -> Formula | None:
        parts = self.separated(self.parse_unary, sep="AMP")
        if parts is None:
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
            return f if f is not None and self.expect("RPAREN", "')'") else None
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
        args = [] if self.at("RPAREN") else self.separated(self.expect, "NAME", "an argument")
        if args is None or not self.expect("RPAREN", "')'"):
            return None
        return ExternalCall(name_t.text, tuple(t.text for t in args))

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
            t = self.cur
            if t.kind == "SECTION":
                self.error(f"unexpected section '{t.text}' inside :laws")
                self.advance()
            elif t.text == "vars":
                scope = self.statement(self.vars_line)
                if scope == {}:
                    # what follows is most likely the lost bindings, so
                    # report nothing more until the next ';'
                    self.error("vars declaration needs at least one binding", t.span)
                    self.quiet = True
                elif scope is not None:
                    self.scope = scope  # a new declaration replaces the scope
            elif t.text in ("inertial", "exogenous"):
                name_t = self.statement(
                    lambda: self.advance() and self.expect("NAME", "a constant name"))
                if name_t is not None:
                    matches = [c for (n, _a), c in self.constants.items() if n == name_t.text]
                    if not matches:
                        self.unknown_constant(name_t, name_t.text)
                    else:
                        cls = Inertial if t.text == "inertial" else Exogenous
                        self.laws.append(cls(matches[0], t.span))
            else:
                law = self.statement(self.parse_law)
                if law is not None:
                    self.laws.append(law)
            if len(self.diags) >= MAX_DIAGNOSTICS:
                raise self.fail()

    def parse_law(self) -> Law | None:
        t = self.cur
        if t.kind != "NAME":
            self.error(f"expected a law, found {t.text!r}")
            return None
        span = t.span
        if t.text == "caused":
            self.advance()
            if self.at("NAME", "false"):
                self.advance()
                head = None
            elif (head := self.parse_atom()) is None:
                return None
            cond = self.condition("if")
            has_after = cond is not None and self.at("NAME", "after")
            after = self.condition("after") if has_after else None
            if cond is None or (has_after and after is None):
                return None
            return Caused(head, cond, after, self.law_vars(head, cond, after), span)
        if t.text == "nonexecutable":
            self.advance()
            act = self.parse_atom()
            cond = act and self.condition("if")
            if cond is None:
                return None
            return Nonexecutable(act, cond, self.law_vars(act, cond), span)
        if t.text == "constraint":
            self.advance()
            body = self.parse_formula()
            return body and Constraint(body, self.law_vars(body), span)
        act = self.parse_atom()
        if act is None:
            return None
        if not self.at("NAME", "causes"):
            self.error("expected 'causes'")
            return None
        self.advance()
        effect = self.parse_atom()
        cond = effect and self.condition("if")
        if cond is None:
            return None
        return Causes(act, effect, cond, self.law_vars(act, effect, cond), span)

    def condition(self, keyword: str) -> Formula | None:
        """The formula after keyword, TRUE without it; None if it fails."""
        if not self.at("NAME", keyword):
            return TRUE
        self.advance()
        return self.parse_formula()

    def vars_line(self) -> dict[str, Sort] | None:
        """The bindings 'v :: sort' after 'vars'.  A name that starts a new
        line and is not followed by '::' ends them: it begins the next
        statement, after a missing ';'."""
        self.advance()  # 'vars'
        bindings: dict[str, Sort] = {}
        while self.at("NAME"):
            if (self.cur.line > self.toks[self.pos - 1].line
                    and self.toks[self.pos + 1].kind != "DCOLON"):
                break
            v = self.advance()
            s = self.expect("DCOLON", "'::'") and self.sort()
            if s is None:
                return None
            bindings[v.text] = s
        return bindings


def parse_domain(text: str, source: str = "<domain>") -> DomainDescription:
    """Parse a domain file.  Raises ParseError carrying diagnostics."""
    return _DomainParser(text, source).parse()


# --- problems and prediction queries -----------------------------------------

class _ProblemParser(_DomainParser):
    """Reuses the formula machinery with a fixed domain signature."""

    def __init__(self, text: str, source: str, domain: DomainDescription):
        _Parser.__init__(self, text, source)
        self.constants = dict(domain.constant_by_key)
        self.broken = set()
        self.scope = {}

    def sections(self, parsers: dict, expected: str, kind: str):
        """Yield (section name token, value) for each section statement
        that parses; parsers maps a section name to its body's parser."""
        def section():
            t = self.cur
            if t.kind != "SECTION":
                self.error(f"expected {expected}, found {t.text!r}")
                return None
            self.advance()
            if t.text not in parsers:
                self.error(f"unknown {kind} section '{t.text}'", t.span)
                return None
            return parsers[t.text]()

        while not self.at("EOF"):
            t = self.cur
            value = self.statement(section)
            if value is not None:
                yield t, value

    def parse_problem(self) -> PlanningProblem:
        parsers = {":init": self.parse_formula, ":goal": self.parse_formula,
                   ":at": self.at_section, ":horizon": self.horizon,
                   ":maxcost": self.cost_bound, ":noconcurrency": lambda: True}
        got: dict = {}  # section name -> its last value
        extra: list[tuple] = []
        for t, value in self.sections(parsers, "a problem section", "problem"):
            if t.text == ":at":
                extra.append(value)
                continue
            if t.text in got and t.text in (":init", ":goal", ":horizon"):
                self.error(f"duplicate {t.text} section", t.span)
            got[t.text] = value
            if t.text == ":horizon" and value[0] > value[1]:
                self.error(f"empty horizon range {value[0]}..{value[1]}", t.span)
        if self.diags:
            raise self.fail()
        return PlanningProblem(
            init=got.get(":init", TRUE),
            goal=got.get(":goal", TRUE),
            extra=tuple(extra),
            horizon=got.get(":horizon", (0, 20)),
            cost_deadline=got.get(":maxcost"),
            noconcurrency=":noconcurrency" in got,
        )

    def at_section(self):
        if self.at("INT"):
            tag = int(self.advance().text)
        elif self.at("NAME", "final"):
            self.advance()
            tag = FINAL
        else:
            self.error("expected a step number or 'final' after :at")
            return None
        f = self.parse_formula()
        return None if f is None else (tag, f)

    def horizon(self):
        lo = self.expect("INT", "a horizon bound")
        hi = lo and self.expect("DOTDOT", "'..'") and self.expect("INT", "a horizon bound")
        return (int(lo.text), int(hi.text)) if hi else None

    def cost_bound(self):
        v = self.expect("INT", "a cost bound")
        return None if v is None else int(v.text)

    def parse_query(self):
        init: Formula | None = None
        steps: list[list[tuple[str, tuple[str, ...]]]] = []
        for t, value in self.sections({":state": self.parse_formula, ":do": self.actions},
                                      ":state or :do", "query"):
            if t.text == ":do":
                steps.append(value)
                continue
            if init is not None:
                self.error("duplicate :state section", t.span)
            init = value
        if self.diags:
            raise self.fail()
        return (init if init is not None else TRUE), steps

    def actions(self):
        """The sorted action instances after ':do'; ':do;' alone is a wait step."""
        acts: list[tuple[str, tuple[str, ...]]] = []

        def action():
            name_t = self.cur
            a = self.parse_atom()
            if a is None:
                return None
            if not a.constant.is_action:
                self.error(f"'{a.constant.name}' is not an action", name_t.span)
                return None
            if a.value != "true":
                self.error("an action in :do cannot carry '=value'", name_t.span)
                return None
            inst = (a.constant.name, a.args)
            if inst in acts:
                self.error(f"action '{instance_str(inst)}' appears twice in one step", name_t.span)
                return None
            acts.append(inst)
            return inst

        if self.at("SEMI") or self.separated(action) is not None:
            return sorted(acts)
        return None


def parse_problem(text: str, domain: DomainDescription,
                  source: str = "<problem>") -> PlanningProblem:
    if not text.strip():
        raise ParseError([Diagnostic("empty problem file", SourceSpan(source, 1, 1, 1, 1))])
    return _ProblemParser(text, source, domain).parse_problem()


def parse_query(text: str, domain: DomainDescription,
                source: str = "<query>"):
    """Parse a prediction query: one ':state <formula>;' section and one
    ':do a1, a2;' section per step (':do;' alone is a wait step).  Returns
    (initial formula, action steps)."""
    if not text.strip():
        raise ParseError([Diagnostic("empty query file", SourceSpan(source, 1, 1, 1, 1))])
    return _ProblemParser(text, source, domain).parse_query()


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
