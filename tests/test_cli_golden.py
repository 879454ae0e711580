"""Byte-for-byte pins of the command line.

`cli_verbs.json` holds the stdout and exit code of every verb in both
formats, on quiver2 with the dense rule and on trunc_fi(2) read from
documents (category, rule, module), plus refusals with exit codes 1, 2
and 3.
`cli_parser.json` holds every command's options: flags, destination,
default, type, `required` and `choices`, in declaration order.

After a deliberate change to the output or the options, regenerate both
files with `PYTHONPATH=src python tests/test_cli_golden.py` and review the
diff.
"""

from __future__ import annotations

import argparse
import json
import os

import pytest

from finsite.cli import build_parser, run

DATA = os.path.join(os.path.dirname(__file__), "data")
VERBS = os.path.join(DATA, "golden", "cli_verbs.json")
PARSER = os.path.join(DATA, "golden", "cli_parser.json")


def _doc(name: str) -> str:
    return os.path.join(DATA, name)


SPEC_110 = '{"kind": "generic", "indicator": [1, 1, 0], "tail": 0}'
_Q = ["--category", "quiver2", "--topology", "dense"]
_T = ["--category", _doc("trunc_fi2.json"),
      "--topology", _doc("trunc_fi2_rule.json")]
_SAMPLING = ["--samples", "3", "--seed", "1"]

_ARGVS = {
    "category_validate_quiver2":
        ["category", "validate", "--category", _doc("quiver2.json")],
    "category_validate_trunc_fi2":
        ["category", "validate", "--category", _doc("trunc_fi2.json")],
    "category_build_quiver": [
        "category", "build", "--kind", "free_acyclic_quiver", "--params",
        '{"vertices": ["a", "b"], "arrows": [["u", "a", "b"]]}'],
    "topology_enumerate_quiver2":
        ["topology", "enumerate", "--category", "quiver2"],
    "topology_enumerate_trunc_fi2":
        ["topology", "enumerate", "--category", _doc("trunc_fi2.json")],
    "topology_check_quiver2": ["topology", "check", *_Q],
    "topology_check_trunc_fi2": ["topology", "check", *_T],
    "topology_named_quiver2":
        ["topology", "named", "--category", "quiver2", "--name", "dense"],
    "topology_named_trunc_fi2":
        ["topology", "named", "--category", _doc("trunc_fi2.json"),
         "--name", "trivial"],
    "topology_rigidity_quiver2": ["topology", "rigidity", *_Q],
    "topology_rigidity_trunc_fi2": ["topology", "rigidity", *_T],
    "torsion_submodule_quiver2":
        ["torsion", "submodule", *_Q, "--module", _doc("p_y.json")],
    "torsion_submodule_trunc_fi2":
        ["torsion", "submodule", *_T,
         "--module", _doc("trunc_fi2_module.json")],
    "torsion_classify_quiver2":
        ["torsion", "classify", *_Q, "--module", _doc("dense_sheaf.json")],
    "torsion_classify_trunc_fi2":
        ["torsion", "classify", *_T,
         "--module", _doc("trunc_fi2_module.json")],
    "torsion_pair_quiver2": ["torsion", "pair", *_Q, *_SAMPLING],
    "torsion_pair_trunc_fi2":
        ["torsion", "pair", *_T, "--field", "Fp:3", *_SAMPLING],
    "torsion_roundtrip_quiver2": ["torsion", "roundtrip", *_Q],
    "torsion_roundtrip_trunc_fi2": ["torsion", "roundtrip", *_T],
    "sheaf_check_quiver2":
        ["sheaf", "check", *_Q, "--module", _doc("p_y.json")],
    "sheaf_check_trunc_fi2":
        ["sheaf", "check", *_T, "--module", _doc("trunc_fi2_module.json")],
    "sheaf_sheafify_quiver2":
        ["sheaf", "sheafify", *_Q, "--module", _doc("p_y.json")],
    "sheaf_sheafify_trunc_fi2":
        ["sheaf", "sheafify", *_T,
         "--module", _doc("trunc_fi2_module.json")],
    "sheaf_equivalence_quiver2": ["sheaf", "equivalence", *_Q, *_SAMPLING],
    "sheaf_equivalence_trunc_fi2":
        ["sheaf", "equivalence", *_T, "--field", "Q", *_SAMPLING],
    "typen_validate": ["typen", "validate", "--spec", SPEC_110],
    "typen_validate_invalid": [
        "typen", "validate", "--spec",
        '{"kind": "nongeneric", "indicator": [1, 1], "cutoff": 2}'],
    "typen_census": ["typen", "census", "--horizon", "2"],
    "typen_pullback":
        ["typen", "pullback", "--object", "3", "--rank", "5", "--deg", "2"],
    "typen_pullback_empty": ["typen", "pullback", "--object", "1",
                             "--rank", "empty", "--deg", "1"],
    "typen_crosscheck":
        ["typen", "crosscheck", "--spec", SPEC_110, "--horizon", "2"],
    # refusals: a failed precondition (1), unusable input (2), a budget (3)
    "refused_atomic_quiver2":
        ["topology", "named", "--category", "quiver2", "--name", "atomic"],
    "refused_rigidity_idem_monoid":
        ["topology", "rigidity", "--category", "idem_monoid",
         "--topology", "dense"],
    "refused_unknown_builtin":
        ["category", "validate", "--category", "no_such_builtin"],
    "refused_roundtrip_over_q":
        ["torsion", "roundtrip", *_Q, "--field", "Q"],
    "refused_field_fp4": ["torsion", "pair", *_Q, "--field", "Fp:4"],
    "refused_bad_rank":
        ["typen", "pullback", "--object", "3", "--rank", "x", "--deg", "1"],
    # with several unusable inputs, the first in resolution order is named
    "refused_category_first":
        ["sheaf", "check", "--category", "no_such_builtin",
         "--topology", "missing/rule.json", "--module", "missing/mod.json"],
    "refused_topology_before_module":
        ["sheaf", "check", "--category", "quiver2",
         "--topology", "missing/rule.json", "--module", "missing/mod.json"],
    "refused_topology_before_field":
        ["torsion", "pair", "--category", "quiver2",
         "--topology", "missing/rule.json", "--field", "Fp:4"],
    "refused_enumerate_budget":
        ["topology", "enumerate", "--category", "chain4", "--budget", "3"],
    "refused_crosscheck_window":
        ["typen", "crosscheck", "--spec", SPEC_110, "--horizon", "5"],
}

CASES = {f"{name}_{fmt}": ["--format", fmt, *argv]
         for name, argv in _ARGVS.items() for fmt in ("table", "json")}


def _outcome(argv) -> dict:
    code, text = run(argv)
    return {"code": code, "stdout": text}


def _parser_shape() -> dict:
    """Each command's options as plain data, keyed by its command path."""
    shape: dict = {}

    def walk(parser: argparse.ArgumentParser, path: str) -> None:
        options = []
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                options.append({"commands": list(action.choices)})
                for name, sub in action.choices.items():
                    walk(sub, f"{path} {name}".strip())
                continue
            options.append({
                "flags": list(action.option_strings),
                "dest": action.dest,
                "default": action.default,
                "type": getattr(action.type, "__name__", action.type),
                "required": action.required,
                "choices": (None if action.choices is None
                            else list(action.choices)),
            })
        shape[path] = options

    walk(build_parser(), "")
    return shape


def _load(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_verb_golden(name):
    assert _outcome(CASES[name]) == _load(VERBS)[name]


def test_cli_verb_goldens_cover_every_command():
    golden = _load(VERBS)
    assert sorted(golden) == sorted(CASES)
    assert {c["code"] for c in golden.values()} == {0, 1, 2, 3}
    commands = {" ".join(argv[2:4]) for argv in CASES.values()}
    assert commands == {path for path in _parser_shape() if " " in path}


def test_parser_options_golden():
    assert _parser_shape() == _load(PARSER)


if __name__ == "__main__":
    for path, doc in ((VERBS, {name: _outcome(argv)
                               for name, argv in sorted(CASES.items())}),
                      (PARSER, _parser_shape())):
        with open(path, "w", encoding="utf-8") as out:
            json.dump(doc, out, indent=2, sort_keys=True, ensure_ascii=False)
            out.write("\n")
