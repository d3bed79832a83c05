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
before a constant or a ``vars`` line names it.  Each Sort, Constant,
law and distinct atom is built once: the constants and laws of a parsed
domain refer to the very Sort and Constant objects it lists.

Problems:

    :init atRobo=L1;  :goal atObj(B1)=L3;  :horizon 0..10;

``%`` starts a comment.

Tokens are three parallel lists, the kinds, texts and start offsets, and
a token is its index into them.  The lexer builds them in a few passes
that run in C: one regular-expression scan yields one string per token,
the token with the blanks after it; each distinct string is stripped
once, and accumulate() over the strings' lengths gives the offsets.  No
Python code runs per token, and no object is made per token but its
string; equal texts are one str object.  Kinds are decided once per
distinct text.  A token's line and column are worked out from its
offset only when a SourceSpan is needed (a diagnostic, a sort, a
constant or a law), by bisecting the offsets at which lines start.

A well-formed atom written on one line -- ``name(arg, ...)``,
``name=value`` or both, with blanks between the parts -- is one ATOM
token, unless its name is one of the words the grammar reads by their
text (``if``, ``true``, ...).  Most tokens of a ground domain are inside
such atoms.  Every place that reads ``name(...)`` or ``=value`` (an atom
in a formula or a law, an ``@external(...)`` call, a ``:do`` instance)
takes the parts from split(), and reports a mistake in an atom at the
span of its name, the token that lexing token by token would have made
there.  Anything else -- a malformed atom, one split across lines, one
with a comment inside -- is lexed token by token.  Where the grammar
needs an ATOM token's parts as tokens of their own (a name that stands
alone, or one inside an atom read token by token, as ``q`` in the
malformed ``p(x, q(y))``), refine() lexes that token again token by
token, in place; the ``:constants`` section is refined whole, so a
constant declaration is always read token by token.  So the grammar
reads every text as if it were lexed token by token, and reports every
mistake at the same place with the same message.  The lexer knows
nothing of sections.

A formula may sit inside at most MAX_NESTING of ``(`` and ``~``, so
that parsing and everything after it stay well inside Python's
recursion limit.  The ``(`` or ``~`` one level deeper is reported as a
diagnostic, like any other mistake.

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
unknown where a law uses it, and no place is reported twice.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from functools import cached_property
from itertools import accumulate, compress

from .model import (
    BOOLEAN, FALSE, FINAL, TRUE, Atom, AtomF, Caused, Causes, Constant,
    Constraint, Diagnostic, DomainDescription, Exogenous, ExternalCall,
    Formula, Inertial, Kind, Law, Nonexecutable, PlanningProblem, Sort,
    SourceSpan, TrueF, canonical, conj, disj, instance_str, neg,
)

MAX_DIAGNOSTICS = 25
MAX_NESTING = 100  # '(' and '~' a formula may sit in


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

_NAME = r"[^\W\d]\w*"
# The words that the parser tells apart by their text where a name may
# stand.  No ATOM token starts with one, so each is a NAME token
# wherever it is written.
_KEYWORDS = ("after", "caused", "causes", "constraint", "exogenous", "false",
             "final", "if", "inertial", "nonexecutable", "true", "vars")
_PART = rf"[ \t]*{_NAME}"  # an argument or a value, after blanks on its line
# A well-formed atom on one line: name(arg, ...), name=value, or both.
# Its one unbounded repeat ends in a ',', which no name or blank
# matches, so a failed match gives back one argument per ',' it passed.
_ATOM = (rf"(?!(?:{'|'.join(_KEYWORDS)})(?!\w)){_NAME}[ \t]*"
         rf"(?:\((?:{_PART}[ \t]*,)*{_PART}[ \t]*\)(?:[ \t]*={_PART})?|={_PART})")
# Every token kind with its pattern, in the order they are tried.  An
# integer is decimal digits only, which int() always accepts.
_KINDS = [
    ("SECTION", r":[^\W\d]\w*"),
    ("ATOM", _ATOM),
    ("NAME", _NAME),
    ("INT", r"\d+"),
    *((kind, re.escape(mark)) for mark, kind in _PUNCT.items()),
    ("OTHER", "."),
]
_BLANKS = " \t\r\n"


def _scanner(kinds: list[tuple[str, str]]) -> re.Pattern:
    """A token and the blanks after it, as one match.  A run of blanks
    is matched only there, and an atom's arguments as _ATOM says, so the
    scan makes one pass over the text."""
    return re.compile("(?:" + "|".join(p for _, p in kinds) + f")[{_BLANKS}]*")


_FINE_KINDS = [k for k in _KINDS if k[0] != "ATOM"]
_SCAN = _scanner(_KINDS)
_FINE_SCAN = _scanner(_FINE_KINDS)  # an atom token by token
# The kind of a token's text: the alternative that scanned a token is the
# first that matches its text, since every earlier one failed on it.  An
# ATOM token's text is the one that no other kind matches whole: only
# its name matches, as a NAME.
_KIND = re.compile("|".join(f"(?P<{kind}>{p})" for kind, p in _FINE_KINDS))
_COMMENT = re.compile(r"%[^\n]*")
_NAME_AT = re.compile(_NAME).match  # an ATOM token's name, without splitting it


def _blank(m: re.Match) -> str:
    return " " * (m.end() - m.start())


def _lex(text: str, scan: re.Pattern = _SCAN
         ) -> tuple[list[str], list[str], list[int], dict[str, str]]:
    """The kinds, texts and start offsets of text's tokens, as three
    parallel lists, and the one str object of each distinct text.  Index
    0 holds a START marker, so every token's index is true; the last
    token is EOF.  A character that starts no token is an OTHER token of
    its own."""
    if "%" in text:
        # a comment becomes blanks of its own length: offsets stay put
        text = _COMMENT.sub(_blank, text)
    first = len(text) - len(text.lstrip(_BLANKS))
    found = scan.findall(text, first)  # each token with the blanks after it
    # one str object per distinct text: equal names in the parsed objects
    # are then one object, and compare by identity
    names: dict[str, str] = {}
    text_of = {}
    for s in set(found):
        t = s.rstrip(_BLANKS)
        text_of[s] = names.setdefault(t, t)
    texts = list(map(text_of.__getitem__, found))
    kind_of = {t: m.lastgroup if (m := _KIND.match(t)).end() == len(t) else "ATOM"
               for t in names}
    # each token starts where the one before ends; EOF starts after the last
    offsets = list(accumulate(map(len, found), initial=first))
    return (["START", *map(kind_of.__getitem__, texts), "EOF"], ["", *texts, ""],
            [0, *offsets], names)


# --- parser ------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str, source: str):
        self.text = text
        self.source = source
        self.diags: list[Diagnostic] = []
        self.quiet = False  # reports held back after a broken statement
        self.kinds, self.texts, self.offsets, self.names = _lex(text)
        self.pos = 1
        if "OTHER" in self.kinds:
            self.drop_unexpected()

    def drop_unexpected(self) -> None:
        """Report each OTHER token and take it out of the token lists."""
        keep = [k != "OTHER" for k in self.kinds]
        for i, kept in enumerate(keep):
            if not kept:
                self.error(f"unexpected character {self.texts[i]!r}", self.span(i))
        self.kinds, self.texts, self.offsets = (
            list(compress(xs, keep)) for xs in (self.kinds, self.texts, self.offsets))

    # token plumbing: a token is its index into the lists

    @cached_property
    def line_starts(self) -> list[int]:
        """The offset at which each line starts, and one past the end."""
        return list(accumulate((len(line) + 1 for line in self.text.split("\n")), initial=0))

    def line(self, i: int) -> int:
        return bisect_right(self.line_starts, self.offsets[i])

    def span(self, i: int, word: bool = False) -> SourceSpan:
        """Where token i is; with word, where only word(i) is: an ATOM
        token's name, the token that lexing token by token makes there."""
        offset = self.offsets[i]
        line = bisect_right(self.line_starts, offset)
        col = offset - self.line_starts[line - 1] + 1
        end = col + len(self.word(i) if word else self.texts[i])
        return SourceSpan(self.source, line, col, line, end)

    def split(self, i: int) -> tuple[str, tuple[str, ...], str | None]:
        """ATOM token i's name, its arguments and its value (None without
        '='), as the lexer's str objects."""
        text = self.texts[i]
        # the names are what the marks of a well-formed atom leave
        words = text.replace("(", " ").replace(")", " ").replace(",", " ").replace("=", " ")
        words = words.split()
        words = tuple(map(self.names.setdefault, words, words))
        if "=" in text:  # the value is the last name
            return words[0], words[1:-1], words[-1]
        return words[0], words[1:], None

    def refine(self, lo: int, hi: int | None = None) -> None:
        """Lex tokens lo up to hi (token lo alone by default) again token
        by token, in place, where the grammar reads an atom's parts one
        by one.  A token boundary is one in both lexings, so the tokens
        around them stay as they are.  An OTHER token was reported
        already and is dropped again."""
        hi = lo + 1 if hi is None else hi
        start = self.offsets[lo]
        kinds, texts, offsets, _ = _lex(self.text[start:self.offsets[hi]], _FINE_SCAN)
        keep = [k != "OTHER" for k in kinds]
        keep[0] = keep[-1] = False  # the START and EOF markers
        names = self.names
        self.kinds[lo:hi] = compress(kinds, keep)
        self.texts[lo:hi] = [names.setdefault(t, t) for t in compress(texts, keep)]
        self.offsets[lo:hi] = [start + o for o in compress(offsets, keep)]

    def word(self, i: int) -> str:
        """The text of token i, or an ATOM token's name."""
        text = self.texts[i]
        return _NAME_AT(text)[0] if self.kinds[i] == "ATOM" else text

    def at(self, kind: str, text: str | None = None) -> bool:
        """Whether the current token is of kind, with text if given.  An
        ATOM token asked for as any NAME is lexed token by token first,
        and is no keyword, since no keyword starts one."""
        i = self.pos
        if self.kinds[i] == kind:
            return text is None or self.texts[i] == text
        return kind == "NAME" and text is None and self.name_at(i)

    def advance(self) -> int:
        i = self.pos
        kind = self.kinds[i]
        if kind != "EOF":
            self.pos = i + 1
            if kind == "SEMI" or kind == "SECTION":
                self.quiet = False  # a statement boundary: report again
        return i

    def name_at(self, i: int) -> bool:
        """Whether token i is a NAME token, once an ATOM token there is
        lexed token by token: inside an atom read token by token, an
        argument or a value is a name of its own."""
        if self.kinds[i] == "ATOM":
            self.refine(i)
        return self.kinds[i] == "NAME"

    def found(self) -> str:
        return repr(self.word(self.pos) or "end of input")

    def error(self, msg: str, span: SourceSpan | None = None):
        """Report msg at span (the current token by default), unless a
        broken statement holds reports back, the cap is reached, or the
        place was reported already."""
        if self.quiet or len(self.diags) >= MAX_DIAGNOSTICS:
            return
        span = span or self.span(self.pos, word=True)
        if all((d.span.line, d.span.col) != (span.line, span.col) for d in self.diags):
            self.diags.append(Diagnostic(msg, span))

    def expect(self, kind: str, what: str) -> int | None:
        if self.kinds[self.pos] == kind or kind == "NAME" and self.name_at(self.pos):
            return self.advance()
        self.error(f"expected {what}, found {self.found()}")
        return None

    def statement(self, parse):
        """Parse one statement with parse() and take the ';' that closes
        it, recovering as the module docstring says.  parse() reports the
        statement's first mistake and returns None; otherwise its result
        is returned, even when the ';' is missing."""
        result = parse()
        if result is None:
            self.quiet = True
            kinds = self.kinds
            while kinds[self.pos] != "EOF" and kinds[self.pos] != "SECTION":
                if kinds[self.advance()] == "SEMI":
                    break
        elif self.expect("SEMI", "';'") is None:
            self.quiet = True
        return result

    def separated(self, item, *args) -> list | None:
        """One or more items read by item(*args), separated by ','; None
        as soon as an item fails."""
        items = []
        kinds = self.kinds
        while (x := item(*args)) is not None:
            items.append(x)
            if kinds[self.pos] != "COMMA":
                return items
            self.pos += 1  # a ',' is no statement boundary
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
        self.used: set[str] = set()  # argument and value names of the current law
        # (name, args, value), and the text of an ATOM token -> its atom
        self.atoms: dict[tuple | str, AtomF] = {}

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
            name = self.texts[t]
            if name in self.members:
                self.error(f"duplicate sort '{name}'", self.span(t))
            else:
                self.members[name] = []
                self.sort_spans[name] = self.span(t)

    def section_objects(self):
        self.advance()
        while self.at("NAME"):
            decl = self.statement(self.object_decl)
            if decl is None:
                continue
            names, sort_t = decl
            sort_name = self.texts[sort_t]
            members = self.members.get(sort_name)
            if members is None:
                self.error(f"unknown sort '{sort_name}'", self.span(sort_t))
                continue
            for t in names:
                # an object may belong to several sorts (union sorts), but
                # not twice to the same one
                if self.texts[t] in members:
                    self.error(f"object '{self.texts[t]}' appears twice in sort '{sort_name}'",
                               self.span(t))
                else:
                    members.append(self.texts[t])

    def object_decl(self):
        names = self.separated(self.expect, "NAME", "a name")
        sort_t = names and self.expect("DCOLON", "'::'") and self.expect("NAME", "a sort name")
        return (names, sort_t) if sort_t else None

    def sort(self, what: str = "a sort name") -> Sort | None:
        t = self.expect("NAME", what)
        if t is None:
            return None
        s = self.sorts.get(self.texts[t])
        if s is None:
            self.error(f"unknown sort '{self.texts[t]}'", self.span(t))
        return s

    def section_constants(self):
        if not self.at("SECTION", ":constants"):
            self.error("missing :constants section")
            raise self.fail()
        self.advance()
        # :objects is behind us, so every sort has its final members
        self.sorts = {n: Sort(n, tuple(m), self.sort_spans[n]) for n, m in self.members.items()}
        # a declaration is read token by token: its head and kind may
        # be ATOM tokens, and the few declarations are refined in one go
        end = self.pos
        while self.kinds[end] != "SECTION" and self.kinds[end] != "EOF":
            end += 1
        self.refine(self.pos, end)
        while self.at("NAME"):
            name_t = self.pos
            const = self.statement(self.constant_decl)
            if const is None:
                self.broken.add(self.texts[name_t])
            elif const.key in self.constants:
                self.error(f"duplicate constant '{const.name}/{len(const.arg_sorts)}'",
                           self.span(name_t))
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
            kind = Kind(self.texts[kind_t])
        except ValueError:
            self.error(f"unknown constant kind '{self.texts[kind_t]}' "
                       "(expected inertialFluent, simpleFluent, or action)", self.span(kind_t))
            return None
        value_sort = BOOLEAN
        if self.at("LPAREN"):
            self.advance()
            value_sort = self.sort("a value sort")
            if value_sort is None or not self.expect("RPAREN", "')'"):
                return None
        return Constant(self.texts[name_t], tuple(arg_sorts), kind, value_sort, self.span(name_t))

    def section_externals(self):
        self.advance()
        while self.at("NAME"):
            decl = self.statement(self.external_decl)
            if decl is None:
                continue
            name_t, arity = decl
            name = self.texts[name_t]
            if (name, arity) in self.externals:
                self.error(f"duplicate external declaration '{name}/{arity}'", self.span(name_t))
            else:
                self.externals.append((name, arity))

    def external_decl(self):
        name_t = self.advance()
        arity_t = self.expect("SLASH", "'/'") and self.expect("INT", "an arity")
        return (name_t, int(self.texts[arity_t])) if arity_t else None

    # terms, atoms, formulas ---------------------------------------------------

    def unknown_constant(self, name_t: int, what: str) -> None:
        # a constant whose declaration was reported is not reported again
        if self.word(name_t) not in self.broken:
            self.error(f"unknown constant '{what}'", self.span(name_t, word=True))

    def parse_atom(self) -> Atom | None:
        f = self.atom_formula()
        return None if f is None else f.atom

    def atom_formula(self) -> AtomF | None:
        """name, name(arg, ...), either one followed by '=value': one
        ATOM token, or where the lexer made none, the tokens of its
        parts.  The tokens are read from the lists directly: an atom's
        tokens never end a statement, so no advance() is needed.  Each
        distinct atom is built once per parse, and each distinct ATOM
        text read once."""
        kinds, texts = self.kinds, self.texts
        name_t = i = self.pos
        if kinds[i] == "ATOM":
            f = self.atoms.get(texts[i])
            if f is not None and kinds[i + 1] != "EQ":
                self.pos = i + 1
                self.used.update(f.atom.args)
                self.used.add(f.atom.value)
                return f
            name, args, value = self.split(i)
            i += 1
        elif kinds[i] != "NAME":
            return self.expect("NAME", "a constant name")
        else:
            name, args, value = texts[i], (), None
            i += 1
            if kinds[i] == "LPAREN":
                first = i = i + 1
                while self.name_at(i) and kinds[i + 1] == "COMMA":
                    i += 2
                if not self.name_at(i):
                    self.pos = i
                    return self.expect("NAME", "an argument")
                if kinds[i + 1] != "RPAREN":
                    self.pos = i + 1
                    return self.expect("RPAREN", "')'")
                args = tuple(texts[first:i + 1:2])
                i += 2
        self.used.update(args)
        self.pos = i
        const = self.constants.get((name, len(args)))
        if const is None:
            self.unknown_constant(name_t, f"{name}/{len(args)}")
            return None
        if value is None:
            if kinds[i] == "EQ":
                if not self.name_at(i + 1):
                    self.pos = i + 1
                    return self.expect("NAME", "a value")
                value = texts[i + 1]
                self.pos = i + 2
            elif not const.is_boolean:
                self.error(f"constant '{const.name}' is {const.value_sort.name}-valued; "
                           "'=value' is required", self.span(name_t, word=True))
                return None
            else:
                value = "true"
        self.used.add(value)
        key = (name, args, value)
        f = self.atoms.get(key)
        if f is None:
            f = self.atoms[key] = AtomF(Atom(const, args, value))
        if self.pos == name_t + 1 and kinds[name_t] == "ATOM":
            self.atoms[texts[name_t]] = f  # read without an '=' after it
        return f

    def parse_formula(self, depth: int = 0) -> Formula | None:
        """Disjunctions of conjunctions of unary formulas; depth is the
        number of '(' and '~' the formula sits in."""
        kinds = self.kinds
        disjuncts = []
        while True:
            conjuncts = []
            while (f := self.parse_unary(depth)) is not None:
                conjuncts.append(f)
                if kinds[self.pos] != "AMP":
                    break
                self.pos += 1
            else:
                return None
            disjuncts.append(conj(conjuncts) if len(conjuncts) > 1 else conjuncts[0])
            if kinds[self.pos] != "PIPE":
                return disj(disjuncts) if len(disjuncts) > 1 else disjuncts[0]
            self.pos += 1

    def parse_unary(self, depth: int) -> Formula | None:
        i = self.pos
        kind = self.kinds[i]
        if kind == "ATOM":
            return self.atom_formula()
        if kind == "NAME":
            if self.texts[i] == "true":
                self.pos = i + 1
                return TRUE
            if self.texts[i] == "false":
                self.pos = i + 1
                return FALSE
            return self.atom_formula()
        if kind == "TILDE" or kind == "LPAREN":
            if depth == MAX_NESTING:
                self.error(f"formula nested more than {MAX_NESTING} levels deep")
                return None
            self.pos = i + 1
            if kind == "TILDE":
                sub = self.parse_unary(depth + 1)
                return None if sub is None else neg(sub)
            f = self.parse_formula(depth + 1)
            return f if f is not None and self.expect("RPAREN", "')'") else None
        if kind == "AT":
            return self.parse_external()
        self.error(f"expected a formula, found {self.found()}")
        return None

    def parse_external(self) -> Formula | None:
        self.advance()  # '@'
        i = self.pos
        if self.kinds[i] == "ATOM":
            name, args, value = self.split(i)
            if args and value is None:
                self.pos = i + 1
                self.used.update(args)
                return ExternalCall(name, args)
            self.refine(i)  # read as the grammar reads a malformed call
        name_t = self.expect("NAME", "an external name")
        if name_t is None or not self.expect("LPAREN", "'('"):
            return None
        args = [] if self.at("RPAREN") else self.separated(self.expect, "NAME", "an argument")
        if args is None or not self.expect("RPAREN", "')'"):
            return None
        args = tuple(self.texts[t] for t in args)
        self.used.update(args)
        return ExternalCall(self.texts[name_t], args)

    # laws ---------------------------------------------------------------------

    def law_vars(self) -> tuple:
        """Restrict the current scope to the variables the law actually
        uses: the names its atoms and external calls were read with."""
        return tuple((v, s) for v, s in self.scope.items() if v in self.used)

    def section_laws(self):
        if not self.at("SECTION", ":laws"):
            self.error("missing :laws section")
            raise self.fail()
        self.advance()
        while not self.at("EOF"):
            t = self.pos
            text = self.texts[t]
            if self.kinds[t] == "SECTION":
                self.error(f"unexpected section '{text}' inside :laws")
                self.advance()
            elif text == "vars":
                scope = self.statement(self.vars_line)
                if scope == {}:
                    # what follows is most likely the lost bindings, so
                    # report nothing more until the next ';'
                    self.error("vars declaration needs at least one binding", self.span(t))
                    self.quiet = True
                elif scope is not None:
                    self.scope = scope  # a new declaration replaces the scope
            elif text in ("inertial", "exogenous"):
                name_t = self.statement(
                    lambda: self.advance() and self.expect("NAME", "a constant name"))
                if name_t is not None:
                    name = self.texts[name_t]
                    matches = [c for (n, _a), c in self.constants.items() if n == name]
                    if not matches:
                        self.unknown_constant(name_t, name)
                    else:
                        cls = Inertial if text == "inertial" else Exogenous
                        self.laws.append(cls(matches[0], self.span(t)))
            else:
                law = self.statement(self.parse_law)
                if law is not None:
                    self.laws.append(law)
            if len(self.diags) >= MAX_DIAGNOSTICS:
                raise self.fail()

    def parse_law(self) -> Law | None:
        t = self.pos
        if self.kinds[t] != "NAME" and self.kinds[t] != "ATOM":
            self.error(f"expected a law, found {self.texts[t]!r}")
            return None
        span = self.span(t, word=True)
        text = self.texts[t]
        self.used = set()
        if text == "caused":
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
            return Caused(head, cond, after, self.law_vars(), span)
        if text == "nonexecutable":
            self.advance()
            act = self.parse_atom()
            cond = act and self.condition("if")
            if cond is None:
                return None
            return Nonexecutable(act, cond, self.law_vars(), span)
        if text == "constraint":
            self.advance()
            body = self.parse_formula()
            return body and Constraint(body, self.law_vars(), span)
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
        return Causes(act, effect, cond, self.law_vars(), span)

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
            if (self.line(self.pos) > self.line(self.pos - 1)
                    and self.kinds[self.pos + 1] != "DCOLON"):
                break
            v = self.advance()
            s = self.expect("DCOLON", "'::'") and self.sort()
            if s is None:
                return None
            bindings[self.texts[v]] = s
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
        self.used = set()
        self.atoms = {}

    def sections(self, parsers: dict, expected: str, kind: str):
        """Yield (section name, its token, value) for each section statement
        that parses; parsers maps a section name to its body's parser."""
        def section():
            t = self.pos
            if self.kinds[t] != "SECTION":
                self.error(f"expected {expected}, found {self.found()}")
                return None
            self.advance()
            if self.texts[t] not in parsers:
                self.error(f"unknown {kind} section '{self.texts[t]}'", self.span(t))
                return None
            return parsers[self.texts[t]]()

        while not self.at("EOF"):
            t = self.pos
            value = self.statement(section)
            if value is not None:
                yield self.texts[t], t, value

    def parse_problem(self) -> PlanningProblem:
        parsers = {":init": self.parse_formula, ":goal": self.parse_formula,
                   ":at": self.at_section, ":horizon": self.horizon,
                   ":maxcost": self.cost_bound, ":noconcurrency": lambda: True}
        got: dict = {}  # section name -> its last value
        extra: list[tuple] = []
        for name, t, value in self.sections(parsers, "a problem section", "problem"):
            if name == ":at":
                extra.append(value)
                continue
            if name in got and name in (":init", ":goal", ":horizon"):
                self.error(f"duplicate {name} section", self.span(t))
            got[name] = value
            if name == ":horizon" and value[0] > value[1]:
                self.error(f"empty horizon range {value[0]}..{value[1]}", self.span(t))
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
            tag = int(self.texts[self.advance()])
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
        return (int(self.texts[lo]), int(self.texts[hi])) if hi else None

    def cost_bound(self):
        v = self.expect("INT", "a cost bound")
        return None if v is None else int(self.texts[v])

    def parse_query(self):
        init: Formula | None = None
        steps: list[list[tuple[str, tuple[str, ...]]]] = []
        for name, t, value in self.sections({":state": self.parse_formula, ":do": self.actions},
                                               ":state or :do", "query"):
            if name == ":do":
                steps.append(value)
                continue
            if init is not None:
                self.error("duplicate :state section", self.span(t))
            init = value
        if self.diags:
            raise self.fail()
        return (init if init is not None else TRUE), steps

    def actions(self):
        """The sorted action instances after ':do'; ':do;' alone is a wait step."""
        acts: list[tuple[str, tuple[str, ...]]] = []

        def action():
            name_t = self.pos
            a = self.parse_atom()
            if a is None:
                return None
            if not a.constant.is_action:
                self.error(f"'{a.constant.name}' is not an action", self.span(name_t, word=True))
                return None
            if a.value != "true":
                self.error("an action in :do cannot carry '=value'", self.span(name_t, word=True))
                return None
            inst = (a.constant.name, a.args)
            if inst in acts:
                self.error(f"action '{instance_str(inst)}' appears twice in one step",
                           self.span(name_t, word=True))
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
