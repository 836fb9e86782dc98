"""Each module of the package uses only the public names of its siblings,
so a private helper can change without touching another module."""
from __future__ import annotations

import ast
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "oscbound"
# public names kept for a planned pipeline path, as "module.name"
UNREAD_ALLOWED = {"torsion.estimate_order"}  # the refinement-ladder order
# public class members kept for a planned pipeline path, as
# "module.Class.member": the excluded fractions of the record health columns
UNREAD_MEMBERS_ALLOWED = {"torsion.TensorField.excluded_fraction",
                          "torsion.BoundaryTrace.excluded_fraction"}
# the functions that start member solves, and the only functions of the
# package that may call each, as "module.function"
SOLVE_CALLERS = {
    "run_family": {"cli._cmd_stability"},
    "build_pipeline_data": {"stability._run_one", "cli._cmd_domain_verify"},
}
# a string that names an attribute path, such as a CSV schema's "primary.slope"
_ATTRIBUTE_PATH = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_sibling_imports(source: str) -> list[str]:
    """``module.name`` for every ``from .module import _name`` in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            found += [f"{node.module}.{alias.name}" for alias in node.names
                      if alias.name.startswith("_")]
    return found


def private_definitions(source: str) -> set[str]:
    """The private names that source defines at module level or in a class
    body: functions, classes and assigned names."""
    tree = ast.parse(source)
    bodies = [tree.body] + [node.body for node in ast.walk(tree)
                            if isinstance(node, ast.ClassDef)]
    names = set()
    for body in bodies:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if _private(name)}


def private_attribute_reads(sources: dict[str, str]) -> dict[str, list[str]]:
    """Per module, ``sibling._name`` for every attribute ``x._name`` that it
    reads and a sibling module defines, unless it defines ``_name`` too."""
    defined = {name: private_definitions(src) for name, src in sources.items()}
    found = {}
    for name, src in sources.items():
        reads = sorted({node.attr for node in ast.walk(ast.parse(src))
                        if isinstance(node, ast.Attribute)
                        and _private(node.attr)} - defined[name])
        hits = [f"{other}.{attr}" for attr in reads
                for other in sorted(defined) if attr in defined[other]]
        if hits:
            found[name] = hits
    return found


def names_read(source: str) -> set[str]:
    """Every name that source loads, reads as an attribute or imports; a
    definition alone is not a read."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def unread_public_names(sources: dict[str, str],
                        readers: list[str]) -> list[str]:
    """``module.name`` for every name in a module's ``__all__`` that neither
    a module of sources nor one of the extra reader sources reads."""
    read = set().union(*map(names_read, [*sources.values(), *readers]))
    unread = []
    for name, src in sources.items():
        for node in ast.parse(src).body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                unread += [f"{name}.{public}"
                           for public in ast.literal_eval(node.value)
                           if public not in read]
    return sorted(unread)


def attribute_path_names(source: str) -> set[str]:
    """Every name in a string constant of source that is an attribute path:
    the CSV schemas read record members through such strings."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and _ATTRIBUTE_PATH.fullmatch(node.value)):
            found.update(node.value.split("."))
    return found


def unread_public_members(sources: dict[str, str],
                          readers: list[str]) -> list[str]:
    """``module.Class.member`` for every public method or property of a class
    in sources that no module of sources or of readers reads, as an
    attribute, a name or in an attribute-path string."""
    texts = [*sources.values(), *readers]
    read = set().union(*map(names_read, texts),
                       *map(attribute_path_names, texts))
    unread = []
    for name, src in sources.items():
        for cls in ast.walk(ast.parse(src)):
            if isinstance(cls, ast.ClassDef):
                unread += [f"{name}.{cls.name}.{node.name}"
                           for node in cls.body
                           if isinstance(node, (ast.FunctionDef,
                                                ast.AsyncFunctionDef))
                           and not node.name.startswith("_")
                           and node.name not in read]
    return sorted(unread)


def call_sites(sources: dict[str, str],
               callees: set[str]) -> dict[str, set[str]]:
    """Per callee, ``module.function`` for every function of sources that
    calls it by name or as an attribute (``module.<module>`` at top level)."""
    found: dict[str, set[str]] = {callee: set() for callee in callees}

    def visit(node, module, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        elif isinstance(node, ast.Call):
            func = node.func
            name = (func.id if isinstance(func, ast.Name) else
                    func.attr if isinstance(func, ast.Attribute) else None)
            if name in found:
                found[name].add(f"{module}.{owner}")
        for child in ast.iter_child_nodes(node):
            visit(child, module, owner)

    for module, src in sources.items():
        visit(ast.parse(src), module, "<module>")
    return found


def package_sources() -> dict[str, str]:
    return {path.stem: path.read_text()
            for path in sorted(PACKAGE.glob("*.py"))}


def test_no_module_imports_a_private_sibling_name():
    assert private_sibling_imports(
        "from .stardomain import StarDomain2D, _coarse\n"
        "from numpy import _private\n") == ["stardomain._coarse"]
    found = {name: private_sibling_imports(src)
             for name, src in package_sources().items()}
    assert len(found) > 1
    assert {name: names for name, names in found.items() if names} == {}


def test_no_module_reads_a_private_sibling_attribute():
    assert private_attribute_reads({
        "shape": "class Shape:\n"
                 "    _cache = None\n"
                 "    def _arrays(self):\n"
                 "        return self._cache\n"
                 "def _helper():\n"
                 "    pass\n",
        "grid": "def area(shape):\n"
                "    shape._arrays(); shape.__class__; x._replace()\n"
                "    return shape._helper\n",
        "own": "def _arrays():\n"
               "    pass\n"
               "def f(shape):\n"
               "    return shape._arrays()\n",
    }) == {"grid": ["own._arrays", "shape._arrays", "shape._helper"]}
    sources = package_sources()
    assert len(sources) > 1
    assert private_attribute_reads(sources) == {}


def test_cli_import_leaves_out_scipy_ndimage(fresh_env):
    # the grid's connectivity check counts its row-run graph's components
    # with scipy.sparse.csgraph, not with scipy.ndimage.label
    code = "import sys, oscbound.cli; print('scipy.ndimage' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=fresh_env, check=True)
    assert done.stdout.strip() == "False"


def test_every_public_name_is_read_by_a_pipeline_path():
    assert unread_public_names({
        "shape": '__all__ = ["area", "spare", "Shape"]\n'
                 "class Shape:\n"
                 "    pass\n"
                 "def spare():\n"
                 "    return Shape()\n"
                 "def area():\n"
                 "    pass\n",
        "grid": "from .shape import area\n",
    }, ["import shape\nshape.Shape\n"]) == ["shape.spare"]
    readers = [path.read_text()
               for path in sorted((ROOT / "perfbench").rglob("*.py"))]
    assert readers
    assert unread_public_names(package_sources(), readers) \
        == sorted(UNREAD_ALLOWED)


def test_every_public_class_member_is_read_by_a_pipeline_path():
    assert unread_public_members({
        "shape": "class Shape:\n"
                 "    def area(self):\n"
                 "        pass\n"
                 "    @property\n"
                 "    def spare(self):\n"
                 "        pass\n"
                 "    @property\n"
                 "    def slope(self):\n"
                 "        pass\n"
                 "    def _helper(self):\n"
                 "        pass\n"
                 "    def __len__(self):\n"
                 "        return 0\n",
        "grid": "SCHEMA = {'gradient': 'fit.slope'}\n"
                "def f(shape):\n"
                "    return shape.area()\n",
    }, ["import shape\n"]) == ["shape.Shape.spare"]
    readers = [path.read_text()
               for path in sorted((ROOT / "perfbench").rglob("*.py"))]
    assert readers
    assert unread_public_members(package_sources(), readers) \
        == sorted(UNREAD_MEMBERS_ALLOWED)


def test_member_solves_start_only_in_known_places():
    # a comparison that reran the family would show up as a new caller
    assert call_sites({
        "stab": "def solve():\n"
                "    pass\n"
                "def run():\n"
                "    return solve()\n"
                "def compare(levels):\n"
                "    def inner():\n"
                "        return stab.solve()\n"
                "    return inner\n"
                "solve()\n",
    }, {"solve"}) == {"solve": {"stab.run", "stab.inner", "stab.<module>"}}
    assert call_sites(package_sources(), set(SOLVE_CALLERS)) == SOLVE_CALLERS
