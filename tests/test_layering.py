"""Module layering: the brute-force oracles share no code with the SAT
route they cross-check, so an encoder or solver fault cannot agree with
itself through them."""

import ast
from pathlib import Path

import causalplan

FORBIDDEN_MODULES = {"causalplan.sat", "causalplan.planner"}
FORBIDDEN_NAMES = {"Encoder", "compile_cnf", "encode_problem"}


def _imports(path: Path):
    """(absolute module, imported name or None) for every import in path."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            base = "causalplan" if node.level else ""
            module = ".".join(p for p in (base, node.module or "") if p)
            for alias in node.names:
                yield module, alias.name


def test_oracle_imports_nothing_from_the_sat_route():
    path = Path(causalplan.__file__).with_name("oracle.py")
    bad = []
    for module, name in _imports(path):
        full = f"{module}.{name}" if name else module
        if (module in FORBIDDEN_MODULES or full in FORBIDDEN_MODULES
                or name in FORBIDDEN_NAMES):
            bad.append(full)
    assert bad == [], f"oracle.py imports from the route it checks: {bad}"

