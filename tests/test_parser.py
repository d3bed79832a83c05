"""Surface syntax: lexing, laws, problems, queries, and the
parse/pretty-print round trip."""

import ast
import re
from dataclasses import astuple
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalplan import parse_domain, parse_problem, parse_query, pretty_print
from causalplan.model import (BOOLEAN, And, AtomF, Caused, Causes,
                              Constraint, Exogenous, Inertial, Nonexecutable,
                              Not, Or, TrueF, canonical, formula_atoms)
from causalplan import parser
from causalplan.parser import (_KEYWORDS, _PUNCT, MAX_DIAGNOSTICS, MAX_NESTING, ParseError,
                               _DomainParser, _Parser, _ProblemParser)

import parser_golden
import sample_files


BOXES = """
:sorts location box
:objects
  L1, L2 :: location;
  B1 :: box;
:constants
  atObj(box) :: inertialFluent(location);
  goto(location) :: action;
  holding(box) :: inertialFluent;
:laws
  inertial atObj;
  vars b :: box y :: location;
  caused atObj(b)=y if holding(b);
  goto(y) causes atObj(b)=y if holding(b);
  nonexecutable goto(y) if atObj(b)=y;
  constraint ~(atObj(b)=y & holding(b));
"""


def _assert_shared(d):
    """Constants, vars and law atoms refer to the very Sort and Constant
    objects the domain lists (or to the built-in BOOLEAN)."""
    sorts, consts = set(map(id, d.sorts)), set(map(id, d.constants))
    for c in d.constants:
        assert all(id(s) in sorts for s in c.arg_sorts), c
        assert c.value_sort is BOOLEAN or id(c.value_sort) in sorts, c
    for law in d.laws:
        assert all(id(s) in sorts for _, s in law.vars), law
        if isinstance(law, (Inertial, Exogenous)):
            used = [law.constant]
        else:
            atoms = [getattr(law, n, None) for n in ("head", "action", "effect")]
            for n in ("cond", "after", "body"):
                f = getattr(law, n, None)
                if f is not None:
                    atoms += formula_atoms(f)
            used = [a.constant for a in atoms if a is not None]
        assert all(id(c) in consts for c in used), law


def test_parse_boxes_shapes():
    d = parse_domain(BOXES)
    assert [s.name for s in d.sorts] == ["location", "box"]
    assert {c.name for c in d.constants} == {"atObj", "goto", "holding"}
    kinds = [type(l).__name__ for l in d.laws]
    assert kinds == ["Inertial", "Caused", "Causes", "Nonexecutable", "Constraint"]
    _assert_shared(d)


def test_law_vars_narrow_to_used_variables():
    d = parse_domain(BOXES)
    caused = d.laws[1]
    assert isinstance(caused, Caused)
    assert [v for v, _ in caused.vars] == ["b", "y"]
    nonexec = d.laws[3]
    assert [v for v, _ in nonexec.vars] == ["b", "y"]


def test_boolean_atom_sugar():
    d = parse_domain("""
:constants p :: inertialFluent; a :: action;
:laws
  a causes p=false if p;
""")
    law = d.laws[0]
    assert isinstance(law, Causes)
    assert law.effect.value == "false"
    assert law.cond == AtomF(law.cond.atom)
    assert law.cond.atom.value == "true"


def test_precedence_or_under_and():
    d = parse_domain("""
:constants p :: simpleFluent; q :: simpleFluent; r :: simpleFluent;
:laws
  constraint ~p & q | r;
""")
    body = d.laws[0].body
    assert isinstance(body, Or)
    assert isinstance(body.parts[0], And)
    assert isinstance(body.parts[0].parts[0], Not)


def test_comments_and_whitespace_ignored():
    d = parse_domain("""
% a comment
:constants p :: simpleFluent;   % trailing
:laws
  caused p if p;  % another
""")
    assert len(d.laws) == 1


def _lexed(text):
    """The tokens after the start marker, with their spans, and the
    lexer's diagnostics."""
    p = _Parser(text, "t")
    toks = [(p.kinds[i], p.texts[i], astuple(p.span(i))[1:]) for i in range(1, len(p.kinds))]
    return toks, [(d.message, astuple(d.span)[1:]) for d in p.diags]


def test_lexer_golden():
    text = ("% header comment\r\n"
            ":sorts\tpeg_1 d2\r\n"
            "  f(x) :: a..b; % note\n"
            "\t@g = 42 / ~c & d | e $\n"
            "_x9,")
    toks, diags = _lexed(text)
    assert toks == [
        ("SECTION", ":sorts", (2, 1, 2, 7)),
        ("NAME", "peg_1", (2, 8, 2, 13)),
        ("NAME", "d2", (2, 14, 2, 16)),
        ("ATOM", "f(x)", (3, 3, 3, 7)),
        ("DCOLON", "::", (3, 8, 3, 10)),
        ("NAME", "a", (3, 11, 3, 12)),
        ("DOTDOT", "..", (3, 12, 3, 14)),
        ("NAME", "b", (3, 14, 3, 15)),
        ("SEMI", ";", (3, 15, 3, 16)),
        ("AT", "@", (4, 2, 4, 3)),
        ("NAME", "g", (4, 3, 4, 4)),
        ("EQ", "=", (4, 5, 4, 6)),
        ("INT", "42", (4, 7, 4, 9)),
        ("SLASH", "/", (4, 10, 4, 11)),
        ("TILDE", "~", (4, 12, 4, 13)),
        ("NAME", "c", (4, 13, 4, 14)),
        ("AMP", "&", (4, 15, 4, 16)),
        ("NAME", "d", (4, 17, 4, 18)),
        ("PIPE", "|", (4, 19, 4, 20)),
        ("NAME", "e", (4, 21, 4, 22)),
        ("NAME", "_x9", (5, 1, 5, 4)),
        ("COMMA", ",", (5, 4, 5, 5)),
        ("EOF", "", (5, 5, 5, 5)),
    ]
    assert diags == [("unexpected character '$'", (4, 23, 4, 24))]


@pytest.mark.parametrize("text,last", [
    (":objects a :: s;", [("SEMI", ";", (1, 16, 1, 17)), ("EOF", "", (1, 17, 1, 17))]),
    ("a % c", [("NAME", "a", (1, 1, 1, 2)), ("EOF", "", (1, 6, 1, 6))]),
    ("a;\n", [("SEMI", ";", (1, 2, 1, 3)), ("EOF", "", (2, 1, 2, 1))]),
])
def test_lexer_end_of_input(text, last):
    toks, diags = _lexed(text)
    assert toks[-2:] == last and diags == []


@pytest.mark.parametrize("text,toks,diags", [
    # CRLF line endings: the '\r' ends the line it is on
    ("a\r\nb;\r\n", [("NAME", "a", (1, 1, 1, 2)), ("NAME", "b", (2, 1, 2, 2)),
                     ("SEMI", ";", (2, 2, 2, 3)), ("EOF", "", (3, 1, 3, 1))], []),
    # a tab is one column
    ("\ta\tb", [("NAME", "a", (1, 2, 1, 3)), ("NAME", "b", (1, 4, 1, 5)),
               ("EOF", "", (1, 5, 1, 5))], []),
    # a comment at the end of the input, with no newline after it
    ("a\n% c", [("NAME", "a", (1, 1, 1, 2)), ("EOF", "", (2, 4, 2, 4))], []),
    ("x %c\r\n%d", [("NAME", "x", (1, 1, 1, 2)), ("EOF", "", (2, 3, 2, 3))], []),
    # a lone ':' starts no token; one before a name starts a section name
    ("x : y", [("NAME", "x", (1, 1, 1, 2)), ("NAME", "y", (1, 5, 1, 6)), ("EOF", "", (1, 6, 1, 6))],
     [("unexpected character ':'", (1, 3, 1, 4))]),
    (":", [("EOF", "", (1, 2, 1, 2))], [("unexpected character ':'", (1, 1, 1, 2))]),
    ("a:b", [("NAME", "a", (1, 1, 1, 2)), ("SECTION", ":b", (1, 2, 1, 4)), ("EOF", "", (1, 4, 1, 4))],
     []),
    # '..' is taken before '.', which starts no token
    ("1...2", [("INT", "1", (1, 1, 1, 2)), ("DOTDOT", "..", (1, 2, 1, 4)),
               ("INT", "2", (1, 5, 1, 6)), ("EOF", "", (1, 6, 1, 6))],
     [("unexpected character '.'", (1, 4, 1, 5))]),
    (". ..", [("DOTDOT", "..", (1, 3, 1, 5)), ("EOF", "", (1, 5, 1, 5))],
     [("unexpected character '.'", (1, 1, 1, 2))]),
])
def test_lexer_edge_cases(text, toks, diags):
    assert _lexed(text) == (toks, diags)


@pytest.mark.parametrize("tail,eof", [("", (16669, 1)), ("% last", (16669, 7))])
def test_lexer_long_run_of_blanks_and_comments(tail, eof):
    # about 200,000 characters with no token in them: one pass, no
    # backtracking from every position of the run
    block = "  \t% a comment %% with % signs\n\r\n\t \n"
    text = block * (200_000 // len(block) + 1) + tail
    assert _lexed(text) == ([("EOF", "", (*eof, *eof))], [])


@pytest.mark.parametrize("text", ["f(" + "x, " * 50_000, "f(x" * 20_000])
def test_lexer_long_unclosed_atom(text):
    # no ')' closes the arguments, so no atom token forms: one pass, in
    # which a failed atom gives back the arguments it passed only once
    p = _Parser(text, "t")
    assert p.texts[1:-1] == re.findall(r"\w+|\S", text)
    assert "ATOM" not in p.kinds and p.diags == []


def _words_read_by_text():
    """Every word that parser.py compares a token's text with: the text
    asked for by at("NAME", ...), a condition()'s keyword, and each
    string that text or self.texts[...] is compared with."""
    def strings(node):
        nodes = node.elts if isinstance(node, ast.Tuple) else [node]
        return {n.value for n in nodes if isinstance(n, ast.Constant) and isinstance(n.value, str)}

    words = set()
    for node in ast.walk(ast.parse(Path(parser.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "at" and strings(node.args[0]) == {"NAME"} and len(node.args) == 2:
                words |= strings(node.args[1])
            elif node.func.attr == "condition":
                words |= strings(node.args[0])
        elif isinstance(node, ast.Compare):
            left = node.left
            if (isinstance(left, ast.Name) and left.id == "text"
                    or isinstance(left, ast.Subscript) and isinstance(left.value, ast.Attribute)
                    and left.value.attr == "texts"):
                for right in node.comparators:
                    words |= strings(right)
    return words


def test_every_word_read_by_its_text_is_a_keyword():
    # no ATOM token starts with a keyword; a word missing from _KEYWORDS
    # would lex as part of an atom in "word (f)" or "word = x"
    words = _words_read_by_text()
    assert "caused" in words and "if" in words and "after" in words
    assert words == set(_KEYWORDS)


_ONE_ROUTE = """:sorts robot dir
:objects R1 :: robot; down, up :: dir;
:constants
  at(robot) :: inertialFluent(dir);
  move(robot, dir) :: action;
  ok :: simpleFluent;
:externals g/2;
:laws
  inertial at;
  vars r :: robot;
  caused at(r)=up if at(r)=down & @g(r, r);
  move(r, up) causes ok;
  nonexecutable move(r, down) if ok;
"""


def _two_lines(text, old, atom, split):
    """text with the atom in old followed by a comment and a line break,
    which keep it on one line, and text with old rewritten as split."""
    assert text.count(old) == 1
    one, two = text.replace(old, old.replace(atom, atom + " % a note\n", 1)), text.replace(old, split)
    # the first is one atom token, the second is read token by token
    assert atom in _Parser(one, "t").texts and atom not in _Parser(two, "t").texts
    return one, two


@pytest.mark.parametrize("old,atom,split", [
    ("move(robot, dir) :: action", "move(robot, dir)", "move(robot,\n  dir) :: action"),
    ("inertialFluent(dir);", "inertialFluent(dir)", "inertialFluent(\ndir);"),
    ("at(r)=up if", "at(r)=up", "at(r)\n=up if"),
    ("at(r)=down &", "at(r)=down", "at(r % a note\n)=down &"),
    ("g(r, r);", "g(r, r)", "g(r,\n r);"),
    ("move(r, up) causes", "move(r, up)", "move(r, % a note\nup) causes"),
    ("move(r, down) if", "move(r, down)", "move(\n  r, down) if"),
])
def test_an_atom_over_two_lines_parses_as_on_one(old, atom, split):
    one, two = _two_lines(_ONE_ROUTE, old, atom, split)
    assert parse_domain(two) == parse_domain(one)
    # the spans too: both forms break the line once, inside the atom or after it
    assert repr(parse_domain(two)) == repr(parse_domain(one))


@pytest.mark.parametrize("parse,text,atom,split", [
    (parse_problem, ":init at(R1)=up;", "at(R1)=up", ":init at(\n R1)=up;"),
    (parse_problem, ":goal at(R1)=down;", "at(R1)=down", ":goal at(R1 % a note\n) = down;"),
    (parse_query, ":do move(R1, up);", "move(R1, up)", ":do move(R1,\n up);"),
])
def test_a_problem_atom_over_two_lines_parses_as_on_one(parse, text, atom, split):
    one, two = _two_lines(text, text, atom, split)
    domain = parse_domain(_ONE_ROUTE)
    assert parse(two, domain) == parse(one, domain)


def test_unknown_constant_is_an_error():
    with pytest.raises(ParseError) as e:
        parse_domain(":constants p :: simpleFluent;\n:laws\n  caused nope if p;\n")
    assert any("nope" in str(d) for d in e.value.diagnostics)


def test_error_carries_position():
    with pytest.raises(ParseError) as e:
        parse_domain(":constants p :: wrongKind;\n:laws\n")
    d = e.value.diagnostics[0]
    assert d.span is not None and d.span.line == 1


def test_recovery_reports_multiple_errors():
    with pytest.raises(ParseError) as e:
        parse_domain("""
:constants p :: simpleFluent;
:laws
  caused nope1 if p;
  caused nope2 if p;
""")
    text = " ".join(str(d) for d in e.value.diagnostics)
    assert "nope1" in text and "nope2" in text


def test_lexer_errors_share_the_diagnostic_cap():
    with pytest.raises(ParseError) as e:
        parse_domain(":constants p :: simpleFluent;\n:laws\n" + "$" * 200 + "\n")
    assert len(e.value.diagnostics) == MAX_DIAGNOSTICS == 25


@pytest.mark.parametrize("bad", ["²", "①", "x"])
def test_non_decimal_digit_is_not_an_integer(bad):
    # one diagnostic for the one bad token: the section recovers past it
    with pytest.raises(ParseError) as e:
        parse_domain(f":constants p :: simpleFluent;\n:externals f/{bad};\n:laws\n")
    [only] = e.value.diagnostics
    assert only.message == f"expected an arity, found '{bad}'"
    assert astuple(only.span)[1:] == (2, 14, 2, 15)
    with pytest.raises(ParseError) as e:
        parse_problem(f":horizon 0..{bad};\n", parse_domain(BOXES))
    [only] = e.value.diagnostics
    assert only.message == f"expected a horizon bound, found '{bad}'"
    assert astuple(only.span)[1:] == (1, 13, 1, 14)
    with pytest.raises(ParseError) as e:
        parse_problem(f":maxcost {bad};\n:goal true;\n", parse_domain(BOXES))
    [only] = e.value.diagnostics
    assert only.message == f"expected a cost bound, found '{bad}'"
    assert astuple(only.span)[1:] == (1, 10, 1, 11)


@pytest.mark.parametrize("text,at", [
    (":init holding(B1) x;\n", (1, 19)), (":goal atObj(B1)=L2 x;\n", (1, 20)),
    (":at 0 holding(B1) x;\n", (1, 19)), (":at final holding(B1) x;\n", (1, 23)),
    (":goal atObj(B1)=L2;\n:horizon 0..5 x;\n", (2, 15)), (":maxcost 3 x;\n", (1, 12)),
    (":noconcurrency x;\n", (1, 16))])
def test_missing_semicolon_is_one_diagnostic(text, at):
    # the section recovers past the stray token, which the main loop would
    # otherwise report again as a section
    with pytest.raises(ParseError) as e:
        parse_problem(text, parse_domain(BOXES))
    [only] = e.value.diagnostics
    assert only.message == "expected ';', found 'x'"
    assert astuple(only.span)[1:] == (*at, at[0], at[1] + 1)


_WITH_EXTERNALS = BOXES.replace(":laws", ":externals\n  near/2;\n  far/2;\n:laws")


def _failed_domain(text):
    """The diagnostics of a domain that does not parse, and the parser,
    which holds the statements it kept."""
    p = _DomainParser(text, "t")
    with pytest.raises(ParseError):
        p.parse()
    return [(d.message, astuple(d.span)[1:3]) for d in p.diags], p


def _failed_query(text):
    """The diagnostics of a query that does not parse, and the sections
    it kept."""
    p = _ProblemParser(text, "t", parse_domain(BOXES))
    kept = [(name, value) for name, _t, value in p.sections(
        {":state": p.parse_formula, ":do": p.actions}, ":state or :do", "query")]
    assert p.diags
    return [(d.message, astuple(d.span)[1:3]) for d in p.diags], kept


# a stray token before a statement's ';'
@pytest.mark.parametrize("old,new,at", [
    ("B1 :: box;", "B1 :: box x;", (5, 13)),
    ("goto(location) :: action;", "goto(location) :: action x;", (8, 28)),
    ("near/2;", "near/2 x;", (11, 10)),
    ("inertial atObj;", "inertial atObj x;", (14, 18)),
    ("vars b :: box y :: location;", "vars b :: box y :: location =;", (15, 31)),
])
def test_missing_semicolon_in_a_domain_is_one_diagnostic(old, new, at):
    text = _WITH_EXTERNALS.replace(old, new)
    found = new[-2]
    assert _failed_domain(text)[0] == [(f"expected ';', found {found!r}", at)]


# a statement without its ';' and a valid statement on the next line,
# which is kept
@pytest.mark.parametrize("old,found,at,kept", [
    ("L1, L2 :: location;", "B1", (5, 3), lambda p: p.members["box"] == ["B1"]),
    ("atObj(box) :: inertialFluent(location);", "goto", (8, 3),
     lambda p: ("goto", 1) in p.constants),
    ("near/2;", "far", (12, 3), lambda p: p.externals == [("near", 2), ("far", 2)]),
    ("caused atObj(b)=y if holding(b);", "goto", (17, 3),
     lambda p: [type(law) for law in p.laws]
     == [Inertial, Caused, Causes, Nonexecutable, Constraint]),
])
def test_missing_semicolon_keeps_the_next_statement(old, found, at, kept):
    diags, p = _failed_domain(_WITH_EXTERNALS.replace(old, old[:-1]))
    assert diags == [(f"expected ';', found {found!r}", at)]
    assert kept(p)


def test_vars_line_without_semicolon_keeps_the_next_law():
    # the law's first name starts a new line and is not followed by '::',
    # so it ends the bindings instead of being read as another variable
    text = sample_files.samples_dir().joinpath("toh.cp").read_text()
    old = "  vars d :: disk p :: place;\n  move(d, p) causes on(d)=p;\n"
    assert old in text
    diags, p = _failed_domain(text.replace(old, old.replace("place;", "place", 1)))
    assert diags == [("expected ';', found 'move'", (18, 3))]
    assert "move(d, p) causes on(d)=p;" in [str(law) for law in p.laws]
    assert p.laws == list(parse_domain(text).laws)
    # a name on the same line still reads as a variable
    diags, _ = _failed_domain(text.replace("vars d :: disk p :: place;", "vars d :: disk p place;", 1))
    assert diags == [("expected '::', found 'place'", (17, 20))]


# the second: what follows the ';' is the lost bindings, and goes unreported
@pytest.mark.parametrize("line", ["vars;", "vars ; :: p;"])
def test_empty_vars_line_is_reported_at_vars(line):
    diags, p = _failed_domain(f":constants p :: inertialFluent;\n:laws\n  {line}\n  caused p if p;\n")
    assert diags == [("vars declaration needs at least one binding", (3, 3))]
    assert [type(law) for law in p.laws] == [Caused]


@pytest.mark.parametrize("text,found,at,kept", [
    (":state atObj(B1)=L1 & holding(B1) x;\n:do goto(L2);\n", "x", (1, 35), [":state", ":do"]),
    (":state atObj(B1)=L1 & holding(B1);\n:do goto(L2) x;\n", "x", (2, 14), [":state", ":do"]),
    (":state atObj(B1)=L1 & holding(B1)\n:do goto(L2);\n", ":do", (2, 1), [":state", ":do"]),
    (":do goto(L2)\n:do goto(L1);\n", ":do", (2, 1), [":do", ":do"]),
])
def test_missing_semicolon_in_a_query_is_one_diagnostic(text, found, at, kept):
    diags, sections = _failed_query(text)
    assert diags == [(f"expected ';', found {found!r}", at)]
    assert [name for name, _ in sections] == kept


@pytest.mark.parametrize("law,message,at", [
    # a failed sub-parse does not go on to expect what would follow it
    ("constraint (holding(B1) & ;", "expected a formula, found ';'", (17, 29)),
    ("goto(;", "expected an argument, found ';'", (17, 8)),
    ("inertial holding(B1);", "expected ';', found '('", (17, 19)),
])
def test_one_mistake_in_a_law_is_one_diagnostic(law, message, at):
    assert _failed_domain(BOXES + "  " + law + "\n")[0] == [(message, at)]


def test_a_place_is_reported_once():
    # the missing ';' and the empty vars line are both found at 'vars'
    diags, _ = _failed_domain(":constants p :: inertialFluent;\n:laws\n  caused p if p vars ;\n")
    assert diags == [("expected ';', found 'vars'", (3, 17))]


# --- nesting -----------------------------------------------------------------------

_NESTED = {  # a formula inside n of '(' and '~'
    "parens": lambda n: "(" * n + "p" + ")" * n,
    "tildes": lambda n: "~" * n + "p",
    "both": lambda n: "~(" * (n // 2) + "~" * (n % 2) + "p" + ")" * (n // 2),
}


@pytest.mark.parametrize("shape", sorted(_NESTED))
def test_a_formula_at_the_nesting_limit_parses(shape):
    d = parse_domain(":constants p :: simpleFluent;\n:laws\n"
                     f"  caused p if {_NESTED[shape](MAX_NESTING)};\n")
    assert str(d.laws[0]) == "caused p if p;"


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 3000])
@pytest.mark.parametrize("shape", sorted(_NESTED))
def test_a_formula_past_the_nesting_limit_is_one_diagnostic(shape, depth):
    # reported at the '(' or '~' one level past the limit, which is column
    # 15 + MAX_NESTING; the next law is read as usual
    text = (":constants p :: simpleFluent;\n:laws\n"
            f"  caused p if {_NESTED[shape](depth)};\n  caused p if p;\n")
    diags, p = _failed_domain(text)
    assert diags == [(f"formula nested more than {MAX_NESTING} levels deep",
                      (3, 15 + MAX_NESTING))]
    assert [str(law) for law in p.laws] == ["caused p if p;"]


def test_nesting_limit_in_problems_and_queries():
    deep = "(" * (MAX_NESTING + 1) + "holding(B1)" + ")" * (MAX_NESTING + 1)
    with pytest.raises(ParseError) as e:
        parse_problem(f":goal {deep};\n", parse_domain(BOXES))
    [only] = e.value.diagnostics
    assert astuple(only.span)[1:3] == (1, 7 + MAX_NESTING)
    diags, _ = _failed_query(f":state {deep};\n:do goto(L2);\n")
    assert diags == [(f"formula nested more than {MAX_NESTING} levels deep", (1, 8 + MAX_NESTING))]


# --- problems --------------------------------------------------------------------

def test_parse_problem_sections():
    d = parse_domain(BOXES)
    p = parse_problem("""
:init atObj(B1)=L1 & ~holding(B1);
:goal atObj(B1)=L2;
:at 1 goto(L2);
:at final ~holding(B1);
:horizon 1..6;
:maxcost 9;
:noconcurrency;
""", d)
    assert p.horizon == (1, 6)
    assert p.cost_deadline == 9
    assert p.noconcurrency
    tags = [tag for tag, _ in p.extra]
    assert tags == [1, "final"]


def test_problem_sections_any_order():
    d = parse_domain(BOXES)
    p = parse_problem(":horizon 0..3;\n:goal atObj(B1)=L2;\n", d)
    assert p.horizon == (0, 3)
    assert isinstance(p.init, TrueF)


def test_problem_rejects_unknown_section():
    d = parse_domain(BOXES)
    with pytest.raises(ParseError):
        parse_problem(":bogus p;\n", d)


# --- queries ---------------------------------------------------------------------

def test_parse_query_states_and_steps():
    d = parse_domain(BOXES)
    init, steps = parse_query("""
:state atObj(B1)=L1 & ~holding(B1);
:do goto(L2);
:do;
:do goto(L1), goto(L2);
""", d)
    assert not isinstance(init, TrueF)
    assert steps == [[("goto", ("L2",))], [],
                     [("goto", ("L1",)), ("goto", ("L2",))]]


def test_query_rejects_fluent_in_do():
    d = parse_domain(BOXES)
    with pytest.raises(ParseError) as e:
        parse_query(":do holding(B1);", d)
    assert any("action" in str(x) for x in e.value.diagnostics)


@pytest.mark.parametrize("step,message", [
    ("holding(B1)", "'holding' is not an action"),
    ("goto(L1), goto(L2)=false", "an action in :do cannot carry '=value'"),
])
def test_query_reports_a_bad_action_at_the_atom(step, message):
    with pytest.raises(ParseError) as e:
        parse_query(f":state atObj(B1)=L1;\n:do {step};\n", parse_domain(BOXES))
    [only] = e.value.diagnostics
    assert only.message == message
    col = 5 + step.rindex(step.split(", ")[-1])
    assert astuple(only.span)[1:3] == (2, col)


def test_query_rejects_a_repeated_action():
    with pytest.raises(ParseError) as e:
        parse_query(":do goto(L2), goto(L1), goto(L2);\n", parse_domain(BOXES))
    [only] = e.value.diagnostics
    assert only.message == "action 'goto(L2)' appears twice in one step"
    assert astuple(only.span)[1:] == (1, 25, 1, 29)


# --- round trip -------------------------------------------------------------------

@pytest.mark.parametrize("name", ["pq", "toggle", "lamp", "counter", "weather",
                                  "deadend", "gate"])
def test_roundtrip_toy_corpus(name):
    import toy_domains
    d = parse_domain(toy_domains._TEXTUAL[name], source=name)
    _assert_shared(d)
    printed = pretty_print(d)
    assert parse_domain(printed, source=name) == canonical(d)
    # printing is a fixed point after one canonicalization
    assert pretty_print(parse_domain(printed)) == printed


def test_roundtrip_boxes():
    d = parse_domain(BOXES)
    assert parse_domain(pretty_print(d)) == canonical(d)


def test_problem_roundtrip():
    d = parse_domain(BOXES)
    text = (":init atObj(B1)=L1;\n:goal atObj(B1)=L2;\n"
            ":at 1 goto(L2);\n:horizon 0..4;\n:noconcurrency;\n")
    p = parse_problem(text, d)
    assert parse_problem(pretty_print(p), d) == p


# --- property: random domains survive the round trip ------------------------------

_name = st.from_regex(r"[a-z][a-zA-Z0-9]{0,5}", fullmatch=True)


@st.composite
def domains(draw):
    n_objects = draw(st.integers(1, 4))
    objects = [f"o{i}" for i in range(n_objects)]
    sort_name = draw(_name.filter(lambda s: s not in ("true", "false", "vars")))
    fluent_names = draw(st.lists(_name, min_size=1, max_size=3, unique=True))
    action_names = draw(st.lists(_name, min_size=0, max_size=2, unique=True))
    action_names = [a for a in action_names if a not in fluent_names]

    consts = []
    for f in fluent_names:
        arity = draw(st.integers(0, 1))
        kind = draw(st.sampled_from(["inertialFluent", "simpleFluent"]))
        valued = draw(st.booleans())
        args = f"({sort_name})" if arity else ""
        val = f"({sort_name})" if valued else ""
        consts.append(f"{f}{args} :: {kind}{val};")
    for a in action_names:
        consts.append(f"{a} :: action;")

    def atom(draw):
        f = draw(st.sampled_from(fluent_names))
        const = next(c for c in consts if c.startswith(f + " ") or c.startswith(f + "("))
        arg = f"({draw(st.sampled_from(objects))})" if "(" + sort_name + ")" in const.split("::")[0] else ""
        if "::" in const and const.split("::")[1].strip().endswith(f"({sort_name});"):
            return f"{f}{arg}={draw(st.sampled_from(objects))}"
        return f"{f}{arg}" + draw(st.sampled_from(["", "=false"]))

    def formula(draw, depth=2):
        if depth == 0 or draw(st.booleans()):
            return atom(draw)
        op = draw(st.sampled_from(["&", "|", "~"]))
        if op == "~":
            return f"~({formula(draw, depth - 1)})"
        return f"({formula(draw, depth - 1)} {op} {formula(draw, depth - 1)})"

    laws = []
    for _ in range(draw(st.integers(1, 4))):
        shape = draw(st.sampled_from(["caused", "constraint", "causes", "nonexec"]))
        if shape == "caused":
            laws.append(f"caused {atom(draw)} if {formula(draw)};")
        elif shape == "constraint":
            laws.append(f"constraint {formula(draw)};")
        elif shape == "causes" and action_names:
            laws.append(f"{draw(st.sampled_from(action_names))} causes {atom(draw)};")
        elif shape == "nonexec" and action_names:
            laws.append(f"nonexecutable {draw(st.sampled_from(action_names))} if {formula(draw)};")

    if not laws:
        laws = [f"caused {atom(draw)} if {atom(draw)};"]
    return (f":sorts {sort_name}\n:objects {', '.join(objects)} :: {sort_name};\n"
            ":constants\n  " + "\n  ".join(consts) + "\n:laws\n  " + "\n  ".join(laws) + "\n")


@settings(max_examples=60, deadline=None)
@given(domains())
def test_roundtrip_random_domains(text):
    try:
        d = parse_domain(text)
    except ParseError:
        return  # generator may hit name collisions; only valid parses round-trip
    _assert_shared(d)
    printed = pretty_print(d)
    assert parse_domain(printed) == canonical(d), printed


# --- property: one mistake is reported once -----------------------------------------

@st.composite
def _mutants(draw):
    """A sample file with one token deleted, replaced by ';', or preceded
    by an inserted name or punctuation mark."""
    name = draw(st.sampled_from(sorted(parser_golden.PARSED)))
    text = (sample_files.samples_dir() / name).read_text()
    places, names = parser_golden.tokens(text)
    start, length = draw(st.sampled_from(places))
    op = draw(st.sampled_from(parser_golden.OPS))
    new = ""
    if op in ("name", "punct"):
        new = draw(st.sampled_from(names if op == "name" else sorted(_PUNCT)))
    return name, parser_golden.mutate(text, start, length, op, new)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_mutants())
def test_a_mutated_sample_reports_no_place_twice(mutant):
    places = [tuple(d[2:4]) for d in parser_golden.diagnostics(*mutant)]
    assert len(places) == len(set(places)), places


def test_the_pinned_mutants_are_drawn_again():
    # the mutations land on the tokens of token-by-token lexing, inside
    # atoms too, whatever tokens the parser reads
    mutants = [{k: v for k, v in m.items() if k != "diagnostics"}
               for m in parser_golden.pinned()["mutants"]]
    assert parser_golden.draw_mutants() == mutants


def test_parser_matches_golden():
    # parser_golden.json pins the parsed objects and the diagnostics
    golden = parser_golden.pinned()
    assert parser_golden.parse_digests() == golden["parses"]
    mutants = [{k: v for k, v in m.items() if k != "diagnostics"} for m in golden["mutants"]]
    assert parser_golden.mutant_diagnostics(mutants) == golden["mutants"]
