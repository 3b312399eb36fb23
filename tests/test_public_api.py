"""Every top-level function, class and assigned name of the package and of
the benchmark scripts, private ones included, has a reference outside its
own definition, and every method, property and annotated field of their
classes is read as an attribute outside its own definition.  Code that
only tests call is deleted rather than kept: tests are not scanned, and
the re-exports in `__init__.py` are import aliases, not references.
Dunders are exempt.  The package's modules import each other without a
cycle, function-level imports included, read every name they import
(save two aliases the benchmark's tracer wraps), and hold no `assert` statement:
checks on results raise, since `python -O` strips every `assert`.  Only
`ffield.py` writes the int64 limit 2**63 or the uint32 limit 2**32, or
defines a module-level guard (save the Weyl loop count), so that the dtype
rules and the byte budget each live in one place."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "smallbox"
SOURCES = (sorted(PACKAGE.glob("*.py"))
           + sorted((ROOT / "perfbench").glob("*.py")))

# the paper's bound evaluators; ROADMAP item 6 wires them into records
ALLOWED = {"bound_I", "bound_J", "bound_N"}

# classes and members read other than by attribute, with the reason
MEMBERS_ALLOWED = {
    "ResultRecord": "harness.emit writes every field through vars()",
    "BoundReport.regime": "a bound evaluator's label; ROADMAP item 6 records it",
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


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


def _attribute_reads(node: ast.AST) -> Counter:
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


def _members(cls: ast.ClassDef):
    """(name, node) of each method, property and annotated field."""
    for item in cls.body:
        if isinstance(item, FUNCTIONS):
            yield item.name, item
        elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            yield item.target.id, item


def test_every_member_is_read():
    members: list[tuple[str, str, ast.AST, str]] = []
    reads: Counter = Counter()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        reads += _attribute_reads(tree)
        rel = path.relative_to(ROOT)
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                members += [(cls.name, name, node, f"{rel}:{node.lineno}")
                            for name, node in _members(cls)
                            if not (name.startswith("__") and name.endswith("__"))]
    orphans = sorted(
        f"{where} {cls}.{name}" for cls, name, node, where in members
        # a method's reads of its own name (recursion) are not readers
        if reads[name] == _attribute_reads(node)[name]
        and cls not in MEMBERS_ALLOWED and f"{cls}.{name}" not in MEMBERS_ALLOWED)
    assert not orphans, "members nobody reads:\n" + "\n".join(orphans)


def _sibling_imports(path: Path) -> set[str]:
    """The package modules that `from . import x` and `from .x import y`
    name anywhere in the module, function bodies included."""
    out: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out |= {node.module} if node.module else {a.name for a in node.names}
    return out


def test_imports_are_acyclic():
    graph = {path.stem: _sibling_imports(path) for path in PACKAGE.glob("*.py")}
    assert graph["dynsys"] >= {"boxcount", "ffield"}

    def reachable(module: str) -> set[str]:
        seen: set[str] = set()
        todo = [module]
        while todo:
            for nxt in graph.get(todo.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        return seen
    cyclic = sorted(m for m in graph if m in reachable(m))
    assert not cyclic, f"modules on an import cycle: {cyclic}"


def test_no_assert_in_the_package():
    asserts = sorted(f"{path.relative_to(ROOT)}:{node.lineno}"
                     for path in PACKAGE.rglob("*.py")
                     for node in ast.walk(ast.parse(path.read_text(), str(path)))
                     if isinstance(node, ast.Assert))
    assert not asserts, "assert statements, which python -O strips:\n" + "\n".join(asserts)


def test_the_scan_sees_the_package():
    assert {p.name for p in SOURCES} >= {"ffield.py", "lattice.py", "run.py"}


def _is_dtype_limit(node: ast.AST) -> bool:
    """`2 ** 63` or `1 << 63` (int64), `2 ** 32` or `1 << 32` (uint32 keys)."""
    return isinstance(node, ast.BinOp) and (
        type(node.op), getattr(node.left, "value", None), getattr(node.right, "value", None)
    ) in {(ast.Pow, 2, 63), (ast.LShift, 1, 63), (ast.Pow, 2, 32), (ast.LShift, 1, 32)}


# module-level guards other than ffield.BYTE_GUARD, with the reason they stay
GUARDS_ALLOWED = {
    ("analytic", "WEYL_LOOP_GUARD"): "bounds the loop count of weyl_majorant, "
                                     "whose slices are already memory-bounded",
}


# modules other than ffield.py that price objects by sys.getsizeof, with
# the reason they stay
SIZEOF_ALLOWED = {
    "dynsys": "prices the seen-set walk's dict slot beside its value and "
              "index ints, a cost no ffield rule holds",
}


def test_dtype_and_byte_rules_live_in_ffield():
    stray = []
    for path in SOURCES:
        if path.name == "ffield.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        where = path.relative_to(ROOT)
        stray += [f"{where}:{node.lineno} {ast.unparse(node)} literal"
                  for node in ast.walk(tree) if _is_dtype_limit(node)]
        stray += [f"{where}:{node.lineno} getsizeof" for node in ast.walk(tree)
                  if "getsizeof" in (getattr(node, "attr", None), getattr(node, "id", None))
                  and path.stem not in SIZEOF_ALLOWED]
        stray += [f"{where}:{node.lineno} {name}" for node in tree.body
                  for name in _bound_names(node) if name.endswith("_GUARD")
                  and (path.stem, name) not in GUARDS_ALLOWED]
    assert not stray, "outside ffield.py:\n" + "\n".join(stray)


# imports nobody reads in their module, with the reason they stay
UNREAD_IMPORTS = {
    ("boxcount", "sqrt_mod_int"): "perfbench/layertrace.py traces this alias",
    ("lattice", "sqrt_mod_int"): "perfbench/layertrace.py traces this alias",
}


def test_every_import_is_read():
    # `__init__.py` re-exports, so its imports are the package's API
    unread = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__" for alias in node.names}
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unread |= {(path.stem, name) for name in imported - read}
    assert unread == set(UNREAD_IMPORTS), (f"unread: {sorted(unread - set(UNREAD_IMPORTS))}, "
                                           f"listed but read: {sorted(set(UNREAD_IMPORTS) - unread)}")
