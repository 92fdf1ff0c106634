"""Static checks of the package layout and of the README's library example.

Every module of ``src/qpopf`` imports the package's other modules at its
top and uses only their public names; every private function or method is
called from somewhere in the package; the package exports exactly the
names the README's ``## Library`` block imports from it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qpopf"


def parse_package() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(PACKAGE.glob("*.py"))}


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__") and name != "_"


def is_package_import(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "qpopf"
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "qpopf" for alias in node.names)
    return False


def function_imports(modules: dict[str, ast.Module]) -> list[str]:
    """Imports of a package module inside a function body."""
    found = set()
    for name, tree in modules.items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.update(f"{name}.{fn.name}:{node.lineno}"
                             for node in ast.walk(fn) if is_package_import(node))
    return sorted(found)


def private_names(tree: ast.Module) -> set[str]:
    """Private names a module defines or imports from outside the package."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and not is_package_import(node):
            names.update(a.asname or a.name.split(".")[-1] for a in node.names)
    return {n for n in names if is_private(n)}


def private_reads(modules: dict[str, ast.Module]) -> list[str]:
    """Imports of, and attribute reads of, private names another module defines."""
    defined = {name: private_names(tree) for name, tree in modules.items()}
    found = []
    for name, tree in modules.items():
        foreign = set().union(*(d for other, d in defined.items() if other != name))
        foreign -= defined[name]
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and is_package_import(node):
                found += [f"{name}:{node.lineno} imports {a.name}"
                          for a in node.names if is_private(a.name)]
            elif isinstance(node, ast.Attribute) and node.attr in foreign:
                found.append(f"{name}:{node.lineno} reads .{node.attr}")
    return found


def unreferenced_private_functions(modules: dict[str, ast.Module]) -> list[str]:
    """Private functions and methods that no line of the package names."""
    defined, used = [], set()
    for name, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and is_private(node.name):
                defined.append((node.name, f"{name}.{node.name}:{node.lineno}"))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    return sorted(where for fn, where in defined if fn not in used)


def test_no_function_imports_a_package_module():
    assert function_imports(parse_package()) == []


def test_no_module_reads_another_modules_private_names():
    assert private_reads(parse_package()) == []


def test_the_checks_flag_planted_violations():
    planted = {
        "a": ast.parse("def _helper():\n    pass\n"),
        "b": ast.parse(
            "from qpopf import a\nfrom qpopf.a import _helper\n\n"
            "def f():\n    from qpopf import a\n    return a._helper()\n"
        ),
    }
    assert function_imports(planted) == ["b.f:5"]
    assert private_reads(planted) == ["b:2 imports _helper", "b:6 reads ._helper"]
    assert unreferenced_private_functions(planted) == []
    planted["c"] = ast.parse(
        "class C:\n    def _used(self):\n        pass\n\n    def _unused(self):\n"
        "        return self._used()\n\n\ndef _kernel():\n    pass\n"
    )
    assert unreferenced_private_functions(planted) == ["c._kernel:9", "c._unused:5"]


def test_every_private_function_is_used_in_the_package():
    assert unreferenced_private_functions(parse_package()) == []


def library_block() -> ast.Module:
    section = (ROOT / "README.md").read_text().split("\n## Library\n", 1)[1]
    return ast.parse(re.search(r"```python\n(.*?)```", section, re.S).group(1))


def imported_names(tree: ast.Module, module: str | None = None) -> set[str]:
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and module in (None, node.module)
            for alias in node.names}


def test_the_readme_library_imports_run():
    imports = [n for n in library_block().body if isinstance(n, (ast.Import, ast.ImportFrom))]
    namespace = {}
    exec(compile(ast.Module(body=imports, type_ignores=[]), "README.md", "exec"), namespace)
    assert imported_names(library_block(), "qpopf") <= set(namespace)


def test_the_package_exports_exactly_the_readme_names():
    exported = imported_names(ast.parse((PACKAGE / "__init__.py").read_text()))
    assert exported == imported_names(library_block(), "qpopf")
