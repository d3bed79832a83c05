"""What the parser made of a fixed set of texts, pinned.

parser_golden.json records:

- for every sample file, and for every domain, problem and deadline
  problem text that bench/instances.py generates at seeds 1 and 7, the
  SHA-256 of repr() of what parse_domain, parse_problem or parse_query
  returns.  repr() shows every field, source spans included;
- for a fixed, seeded set of mutated sample files, the message and span
  of every diagnostic the parser reports.  A mutation is one of the
  operations of test_parser's _mutants, and each is recorded by its
  character offset, so the pinned texts do not depend on the lexer.

test_parser.py checks the parser against the file.  The file was written
once, from a parser whose results were known good; run this module with
--write only for a change that moves the parser's results on purpose:

    PYTHONPATH=src python tests/parser_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
from dataclasses import astuple
from pathlib import Path

from causalplan import parse_domain, parse_problem, parse_query
from causalplan.parser import _FINE_SCAN, _PUNCT, ParseError, _lex

import sample_files

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "parser_golden.json"
BENCH = HERE.parent / "bench"

# each sample the parser reads, with the domain it is parsed against
PARSED = {"boxes.cp": None, "boxes-grid.cp": None, "mapp.cp": None, "toh.cp": None,
          "boxes.prob": "boxes.cp", "boxes-grid.prob": "boxes-grid.cp",
          "mapp.prob": "mapp.cp", "toh.prob": "toh.cp", "boxes.query": "boxes.cp"}

OPS = ("delete", "semi", "name", "punct")
MUTANT_SEED = "parser-golden"
MUTANTS = 240
BENCH_SEEDS = (1, 7)

# prints the bench instance texts as {key: (domain text, [problem texts])}
_BENCH_TEXTS = """
import json, sys, instances
out = {}
for seed in map(int, sys.argv[1:]):
    for i, t in enumerate(instances.toh_instances(seed)):
        out[f"toh-deepen/{seed}/{i}"] = (t.domain, [t.problem])
    for i, m in enumerate(instances.mapp_instances(seed)):
        out[f"mapp-wide/{seed}/{i}"] = (m.domain, [m.problem])
    for i, b in enumerate(instances.boxes_instances(seed)):
        out[f"boxes-session/{seed}/{i}"] = (b.domain, [b.problem, b.deadline_problem])
print(json.dumps(out))
"""


def mutate(text: str, start: int, length: int, op: str, new: str) -> str:
    """text with the token text[start:start + length] deleted ("delete"),
    replaced by ';' ("semi"), or preceded by new ("name", "punct")."""
    if op in ("delete", "semi"):
        return text[:start] + ("" if op == "delete" else ";") + text[start + length:]
    return text[:start] + f" {new} " + text[start:]


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def parse_sample(name: str, text: str):
    """What the parser makes of the sample file name with text in it."""
    if PARSED[name] is None:
        return parse_domain(text, name)
    domain = parse_domain((sample_files.samples_dir() / PARSED[name]).read_text())
    return (parse_query if name.endswith(".query") else parse_problem)(text, domain, name)


def diagnostics(name: str, text: str) -> list:
    try:
        parse_sample(name, text)
    except ParseError as e:
        return [[d.message, *astuple(d.span)] for d in e.diagnostics]
    return []


def bench_texts() -> dict:
    out = subprocess.run([sys.executable, "-c", _BENCH_TEXTS, *map(str, BENCH_SEEDS)],
                         cwd=BENCH, capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def parse_digests() -> dict[str, str]:
    out = {}
    for name in sorted(PARSED):
        out[f"samples/{name}"] = digest(
            parse_sample(name, (sample_files.samples_dir() / name).read_text()))
    for key, (domain_text, problems) in bench_texts().items():
        domain = parse_domain(domain_text, "domain.cp")
        out[f"{key}/domain"] = digest(domain)
        for j, problem in enumerate(problems):
            out[f"{key}/problem{j}"] = digest(parse_problem(problem, domain, "problem.prob"))
    return out


def tokens(text: str) -> tuple[list[tuple[int, int]], list[str]]:
    """Where a mutation may land in text: the offset and length of each
    token, as text lexes token by token (with no ATOM token, so a part
    of an atom is a token of its own), then EOF; and the names a "name"
    mutation may insert, each once per token it is."""
    kinds, texts, offsets, _ = _lex(text, _FINE_SCAN)
    toks = [(k, t, o) for k, t, o in zip(kinds, texts, offsets) if k != "OTHER"][1:]
    return [(o, len(t)) for _, t, o in toks], ["x"] + [t for k, t, _ in toks if k == "NAME"]


def draw_mutants() -> list[dict]:
    """The seeded mutations; each is kept by offset and length, so
    replaying it needs no lexer."""
    rng = random.Random(MUTANT_SEED)
    out = []
    for _ in range(MUTANTS):
        name = rng.choice(sorted(PARSED))
        places, names = tokens((sample_files.samples_dir() / name).read_text())
        start, length = places[rng.randrange(len(places))]
        op = rng.choice(OPS)
        new = rng.choice(names if op == "name" else sorted(_PUNCT)) if op in ("name", "punct") else ""
        out.append({"file": name, "start": start, "length": length, "op": op, "new": new})
    return out


def mutant_diagnostics(mutants: list[dict]) -> list[dict]:
    out = []
    for m in mutants:
        text = (sample_files.samples_dir() / m["file"]).read_text()
        mutant = mutate(text, m["start"], m["length"], m["op"], m["new"])
        out.append({**m, "diagnostics": diagnostics(m["file"], mutant)})
    return out


def pinned() -> dict:
    return json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/parser_golden.py --write")
    golden = {"parses": parse_digests(), "mutants": mutant_diagnostics(draw_mutants())}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {GOLDEN}: {len(golden['parses'])} parses, {len(golden['mutants'])} mutants")
