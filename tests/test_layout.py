"""Static checks of the package layout and of the README's library example.

Every module of ``src/qpopf`` imports the package's other modules at its
top and uses only their public names; every private function or method is
called from somewhere in the package; every public function, and every
public method of a package class, is named by the package, the benchmark
or the README's library example, bar a listed few; only ``lp`` names the
state it keeps on an LP (``solver_state``); the package exports exactly
the names the README's ``## Library`` block imports from it.  Also tests
``tools/src_lines.py``, the line counter of the package source.
"""

import ast
import importlib.util
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


def solver_state_uses(modules: dict[str, ast.Module]) -> list[str]:
    """Lines of modules other than ``lp`` that name an LP's ``solver_state``,
    as an attribute or as the string ``getattr`` would take."""
    return [f"{name}:{node.lineno}" for name, tree in modules.items() if name != "lp"
            for node in ast.walk(tree)
            if (isinstance(node, ast.Attribute) and node.attr == "solver_state")
            or (isinstance(node, ast.Constant) and node.value == "solver_state")]


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


def bound_names(fn) -> set[str]:
    """Names a function or lambda binds: its arguments and every name it assigns."""
    args = fn.args
    names = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg,
                             args.kwarg) if a}
    return names | {node.id for node in ast.walk(fn)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}


def referenced_names(tree: ast.AST) -> set[str]:
    """Names a module imports, reads or takes as an attribute.

    A read of a name that the enclosing function binds (an argument or a
    local) refers to that binding, not to a module-level function.
    """
    found = set()

    def visit(node, local):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            local = local | bound_names(node)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in local:
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
        for child in ast.iter_child_nodes(node):
            visit(child, local)

    visit(tree, frozenset())
    return found


def public_functions(tree: ast.Module):
    """(qualified name, name) of each module-level public function and each
    public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{fn.name}", fn.name) for fn in node.body
                        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)))


def unnamed_public_functions(modules: dict[str, ast.Module], readers: list[ast.AST]) -> list[str]:
    """Public functions and methods of ``modules`` that no reader names."""
    used = set().union(*map(referenced_names, readers))
    return sorted(f"{name}.{qualified}" for name, tree in modules.items()
                  for qualified, fn in public_functions(tree)
                  if not fn.startswith("_") and fn not in used)


# public functions and methods that only tests call, and why each stays in the package
TEST_ONLY_FUNCTIONS = {
    "privacy.calibrate_sigma": "ROADMAP item 9: the noise scale of the matched-privacy MLP",
}


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
    public = {"d": ast.parse("def used():\n    pass\n\ndef shadowed():\n    pass\n\n"
                             "def unused(shadowed):\n    return shadowed\n\n"
                             "class C:\n    def called(self):\n        pass\n\n"
                             "    def idle(self):\n        pass\n\n"
                             "    def __len__(self):\n        return 0\n")}
    reader = ast.parse("from qpopf.d import used\n\nf = lambda unused: unused\n"
                       "g = lambda c: c.called()\n")
    readers = [*public.values(), reader]
    assert unnamed_public_functions(public, readers) == ["d.C.idle", "d.shadowed", "d.unused"]
    state = {
        "grid": ast.parse("class P:\n    solver_state: object = None\n"),
        "lp": ast.parse("def _kept(plp):\n    return plp.solver_state\n"),
        "evaluate": ast.parse("def f(plp):\n    a = plp.solver_state\n"
                              "    return getattr(plp, 'solver_state', a)\n"),
    }
    assert solver_state_uses(state) == ["evaluate:2", "evaluate:3"]


def test_only_lp_names_the_lp_solver_state():
    assert solver_state_uses(parse_package()) == []


def test_every_private_function_is_used_in_the_package():
    assert unreferenced_private_functions(parse_package()) == []


def test_every_public_function_is_named_outside_the_tests():
    sources = (*PACKAGE.rglob("*.py"), *ROOT.glob("perfbench/*.py"))
    readers = [*(ast.parse(p.read_text()) for p in sources), library_block()]
    assert unnamed_public_functions(parse_package(), readers) == sorted(TEST_ONLY_FUNCTIONS)


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


def test_the_line_counter_skips_docstrings_comments_and_blank_lines(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
    src_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(src_lines)
    planted = ('"""Module\ndocstring."""\n\n# a comment\nimport os  # trailing\n\n\n'
               'class C:\n    """Doc."""\n\n    def f(self):\n        """Two\n        lines."""\n'
               '        return (1,\n\n                2)\n\n\nTEXT = """kept\nstring"""\n')
    # import, class, def, the two lines of the return, the two of TEXT
    assert src_lines.code_lines(planted) == 7
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(planted)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    src_lines.main([str(tmp_path)])
    assert capsys.readouterr().out.split("\n")[-2].split() == ["22", "8", "total"]
