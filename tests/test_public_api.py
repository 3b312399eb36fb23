"""Every top-level function, class and assigned name of the package and of
the benchmark scripts, private ones included, has a reference outside its
own definition.  Code that only tests call is deleted rather than kept:
tests are not scanned, and the re-exports in `__init__.py` are import
aliases, not references.  Dunders are exempt."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = (sorted((ROOT / "src" / "smallbox").glob("*.py"))
           + sorted((ROOT / "perfbench").glob("*.py")))

# the paper's bound evaluators; ROADMAP item 6 wires them into records
ALLOWED = {"bound_I", "bound_J", "bound_N"}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _referenced(node: ast.AST) -> set[str]:
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def _bound_names(node: ast.AST) -> set[str]:
    """The names a top-level statement defines."""
    if isinstance(node, DEFINITIONS):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {n.id for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    return set()


def test_every_definition_has_a_reference():
    defined: list[tuple[str, str]] = []
    references: set[str] = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            names = _referenced(node)
            for name in _bound_names(node):
                names.discard(name)  # a definition or recursion is not a caller
                if not (name.startswith("__") and name.endswith("__")):
                    defined.append((name, f"{path.relative_to(ROOT)}:{node.lineno}"))
            references |= names
    orphans = sorted(f"{where} {name}" for name, where in defined
                     if name not in references and name not in ALLOWED)
    assert not orphans, "definitions without a reference:\n" + "\n".join(orphans)


def test_the_scan_sees_the_package():
    assert {p.name for p in SOURCES} >= {"ffield.py", "lattice.py", "run.py"}
