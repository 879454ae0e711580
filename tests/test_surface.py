"""Every public function, class, method, field and option of the library
has a caller.

A public top-level name of a module in src/finsite must be named somewhere
that runs it: elsewhere in the package (outside its own definition, and not
in a docstring, which the syntax tree keeps as a string), or in demos/ or
perfbench/, where a string "module.name" also counts, as perfbench traces
functions by that key.

A public method, property or annotated field of a class of the package
must be read outside its own definition: in the package, in demos/ or in
perfbench/. A string constant that is exactly its name counts as a read,
as cli._AXIOMS names AxiomReport's fields for getattr. Passing a field to
a constructor by keyword writes it and does not count.

A defaulted parameter of a public top-level function must be passed, by
keyword or by position, by some call in the package (outside the function
itself), in demos/ or in perfbench/. Calls are matched by the function's
name, so a call through another function of the same name counts too.

A defaulted parameter must also take two values: when every such call
passes it, each as the same literal, and that literal is not the default,
the parameter is a knob with one value in use. Drop it, and let the
function do what that value does.

The checks go by name: a reused name such as `row` passes them. The few
names that only the tests and the paper's statements need are listed in
ALLOWED, each with its reason. A name that fails has lost its last
caller: delete it, or give it a caller.
"""

from __future__ import annotations

import ast
import os
import re
from collections import Counter, defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "finsite")
OUTSIDE = ("demos", "perfbench")

ALLOWED = {
    "contains": "Echelon's membership test, the oracle the tests hold its "
                "incremental span against",
}


def python_files(directory: str) -> list[str]:
    return sorted(os.path.join(directory, name)
                  for name in os.listdir(directory) if name.endswith(".py"))


def parse(path: str) -> ast.Module:
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def library() -> dict[str, ast.Module]:
    return {os.path.splitext(os.path.basename(path))[0]: parse(path)
            for path in python_files(PACKAGE)}


def outside_trees() -> list[ast.Module]:
    return [parse(path) for directory in OUTSIDE
            for path in python_files(os.path.join(ROOT, directory))]


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


def reads_in(tree: ast.AST) -> Counter[str]:
    """How often the tree reads each identifier: loaded names and
    attributes, imported names, and string constants that are exactly an
    identifier."""
    out: Counter[str] = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out[node.id] += 1
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rsplit(".", 1)[-1]] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            out[node.value] += 1
    return out


def traced_names(tree: ast.AST, modules: set[str]) -> set[str]:
    """The names in string constants "module.name" of a package module."""
    return {name for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            for module, name in re.findall(r"\b(\w+)\.(\w+)", node.value)
            if module in modules}


def public_functions(lib: dict[str, ast.Module]):
    for module, tree in lib.items():
        for node in tree.body:
            if (isinstance(node, ast.FunctionDef)
                    and not node.name.startswith("_")):
                yield module, node


def class_members(lib: dict[str, ast.Module]):
    """(module, class, member name, member node) for every method,
    property and annotated field of a package class whose name does not
    start with an underscore."""
    for module, tree in lib.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    name = node.name
                elif (isinstance(node, ast.AnnAssign)
                      and isinstance(node.target, ast.Name)):
                    name = node.target.id
                else:
                    continue
                if not name.startswith("_"):
                    yield module, cls.name, name, node


def uncalled_public_names() -> list[str]:
    lib = library()
    # the names each top-level statement of the package uses
    used_by = [(node, names_in(node))
               for tree in lib.values() for node in tree.body]
    outside: set[str] = set()
    for tree in outside_trees():
        outside |= names_in(tree) | traced_names(tree, set(lib))
    missing = []
    for module, tree in lib.items():
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


def unread_members() -> list[str]:
    lib = library()
    package_reads: Counter[str] = Counter()
    for tree in lib.values():
        package_reads += reads_in(tree)
    outside: set[str] = set()
    for tree in outside_trees():
        outside |= set(reads_in(tree)) | traced_names(tree, set(lib))
    missing = []
    for module, cls, name, node in class_members(lib):
        if name in outside or name in ALLOWED:
            continue
        if package_reads[name] - reads_in(node)[name] <= 0:
            missing.append(f"{module}.{cls}.{name}")
    return missing


def _passes(call: ast.Call, index: int | None, name: str) -> bool:
    """Whether the call passes the parameter at that position (None for a
    keyword-only one) or by that name; *args and **kwargs pass all."""
    if index is not None and (len(call.args) > index or any(
            isinstance(a, ast.Starred) for a in call.args)):
        return True
    return any(k.arg in (None, name) for k in call.keywords)


def _calls(tree: ast.AST):
    """(function name, call) for every call in the tree."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                yield func.id, node
            elif isinstance(func, ast.Attribute):
                yield func.attr, node
        stack.extend(ast.iter_child_nodes(node))


def _defaulted(fn: ast.FunctionDef):
    """(position or None for keyword-only, name, default node) for every
    defaulted parameter of fn."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(i, a.arg, args.defaults[i - first])
           for i, a in enumerate(positional) if i >= first]
    out += [(None, a.arg, d) for a, d in zip(args.kwonlyargs,
                                              args.kw_defaults)
            if d is not None]
    return out


def _callers(lib: dict[str, ast.Module]):
    """(module, function, its calls) for every public top-level function:
    every call of its name in the package outside the function itself,
    in demos/ and in perfbench/."""
    # every call, walked once and keyed by the called name: in the package
    # with the top-level statement that encloses it, outside it bare
    package_calls = defaultdict(list)
    for tree in lib.values():
        for top in tree.body:
            for name, call in _calls(top):
                package_calls[name].append((top, call))
    outside_calls = defaultdict(list)
    for tree in outside_trees():
        for name, call in _calls(tree):
            outside_calls[name].append(call)
    for module, fn in public_functions(lib):
        calls = [call for top, call in package_calls[fn.name]
                 if top is not fn]
        yield module, fn, calls + outside_calls[fn.name]


def unpassed_options() -> list[str]:
    missing = []
    for module, fn, calls in _callers(library()):
        for index, arg, _ in _defaulted(fn):
            if arg in ALLOWED:
                continue
            if not any(_passes(call, index, arg) for call in calls):
                missing.append(f"{module}.{fn.name}({arg})")
    return missing


def _literal(node: ast.AST | None) -> str | None:
    """The repr of a literal expression's value, or None for any other
    expression and for no expression."""
    try:
        return repr(ast.literal_eval(node))
    except (ValueError, TypeError, SyntaxError):
        return None


def _passed(call: ast.Call, index: int | None, name: str) -> ast.AST | None:
    """The expression the call passes for the parameter, or None when it
    passes none or passes it through *args or **kwargs."""
    if index is not None and len(call.args) > index and not any(
            isinstance(a, ast.Starred) for a in call.args[:index + 1]):
        return call.args[index]
    return next((k.value for k in call.keywords if k.arg == name), None)


def one_valued_options() -> list[str]:
    found = []
    for module, fn, calls in _callers(library()):
        for index, arg, default in _defaulted(fn):
            values = {_literal(_passed(call, index, arg)) for call in calls}
            if (len(values) == 1 and None not in values
                    and values != {_literal(default)}):
                found.append(f"{module}.{fn.name}({arg})")
    return found


def test_every_public_name_has_a_caller():
    assert uncalled_public_names() == []


def test_every_member_is_read():
    assert unread_members() == []


def test_every_option_is_passed():
    assert unpassed_options() == []


def test_every_option_takes_two_values():
    assert one_valued_options() == []


def test_allowed_names_exist():
    lib = library()
    defined = {node.name for tree in lib.values() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {name for _, _, name, _ in class_members(lib)}
    defined |= {a.arg for _, fn in public_functions(lib)
                for a in fn.args.args + fn.args.kwonlyargs}
    assert set(ALLOWED) <= defined
