"""Every public function and class of the library has a caller.

A public top-level name of a module in src/finsite must be named somewhere
that runs it: elsewhere in the package (outside its own definition, and not
in a docstring, which the syntax tree keeps as a string), or in demos/ or
perfbench/, where a string "module.name" also counts, as perfbench traces
functions by that key. The few that only the tests and the paper's
statements need are listed in ALLOWED, each with its reason. A name that
fails this test has lost its last caller: delete it, or give it a caller.
"""

from __future__ import annotations

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "finsite")

ALLOWED = {
    "solve": "the one-right-hand-side reference that solve_matrix is "
             "tested against",
    "restrict_to_ideal": "topologies restrict to ideals, the step toward "
                         "FI's and VI's full subcategories",
    "matching_colimit_dimension": "the colimit over all covers that the "
                                  "minimum-cover plus construction equals",
    "restrict_family": "its one library caller is "
                       "matching_colimit_dimension, itself listed here",
}


def python_files(directory: str) -> list[str]:
    return sorted(os.path.join(directory, name)
                  for name in os.listdir(directory) if name.endswith(".py"))


def names_in(tree: ast.AST) -> set[str]:
    """Every identifier the tree uses: names, attributes and imported
    names."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
    return out


def traced_names(tree: ast.AST, modules: set[str]) -> set[str]:
    """The names in string constants "module.name" of a package module."""
    return {name for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            for module, name in re.findall(r"\b(\w+)\.(\w+)", node.value)
            if module in modules}


def parse(path: str) -> ast.Module:
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def uncalled_public_names() -> list[str]:
    library = {os.path.splitext(os.path.basename(path))[0]: parse(path)
               for path in python_files(PACKAGE)}
    # the names each top-level statement of the package uses
    used_by = [(node, names_in(node))
               for tree in library.values() for node in tree.body]
    outside: set[str] = set()
    for directory in ("demos", "perfbench"):
        for path in python_files(os.path.join(ROOT, directory)):
            tree = parse(path)
            outside |= names_in(tree) | traced_names(tree, set(library))
    missing = []
    for module, tree in library.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("_") or name in outside or name in ALLOWED:
                continue
            if not any(name in names for other, names in used_by
                       if other is not node):
                missing.append(f"{module}.{name}")
    return missing


def test_every_public_name_has_a_caller():
    assert uncalled_public_names() == []


def test_allowed_names_exist():
    defined = {node.name for path in python_files(PACKAGE)
               for node in parse(path).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert set(ALLOWED) <= defined
