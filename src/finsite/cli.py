"""Deterministic command line front end.

Commands are grouped as `finsite <group> <command>`; every command reads
JSON documents, dispatches to one library operation, and renders the
result either as a machine document (--format json, canonically ordered)
or as a fixed-width table. Exit codes separate mathematics from plumbing:
0 when every verdict in the output passed, 1 when a verified property
failed (with witnesses in the output), 2 for usage and input errors, and
3 when a size budget refused the work (the input may be fine, only too
large for the budget).

One table declares the commands. `_COMMANDS` lists each command's group,
name, handler and argument names, in help order; `_ARGS` maps an argument
name to its flag and `add_argument` keywords; `build_parser` reads both.
Before dispatch, `_resolve_inputs` turns the inputs a command declares into
library objects, always in this order: the category (under --budget) onto
`args.cat`, the topology onto `args.j`, the module onto `args.v`, the field
onto `args.field` and the spec onto `args.spec`; a horizon, when given,
and a sample count are then checked to be natural, and the sample count
to be within _MAX_SAMPLES (exit 3). The first unusable input in that
order is the one reported, whatever the command, and handlers start from
the resolved objects. `category validate` declares its document as
`category_doc`, which the resolver skips: for that command an invalid
category is the verdict (exit 1), not unusable input.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable, Mapping, Sequence

from . import fincat, linalg, modrep, sheaves, sieves, topology, torsion, typen
from .errors import (
    CyclicQuiver,
    FieldMismatch,
    FinsiteError,
    InfiniteFieldUnsupported,
    InvalidSieve,
    Malformed,
    NotAGroupTable,
    NotAPoset,
    ShapeMismatch,
    SizeBudgetExceeded,
    UnknownObject,
    ValidationFailed,
    WrongDomain,
    parsing,
)

# input-shaped failures: the command never got a well-formed question.
# Input that fails to parse becomes ValidationFailed where it is parsed
# (errors.parsing); a bare KeyError or ValueError anywhere else is a bug.
_INPUT_ERRORS = (
    ValidationFailed, UnknownObject, WrongDomain, InvalidSieve,
    CyclicQuiver, NotAPoset, NotAGroupTable, ShapeMismatch, FieldMismatch,
    InfiniteFieldUnsupported, OSError,
)

_NAMED_TOPOLOGIES = ("trivial", "maximal", "dense", "atomic")
# sampled modules per report: about 20 s at 0.42 s per 200 on a 2-vCPU VM
_MAX_SAMPLES = 10_000


# ---------------------------------------------------------------------------
# input resolution

def _builtin_category(name: str) -> Callable[[fincat.SizeBudget],
                                              fincat.FiniteCategory]:
    """The builder a stock category name stands for, taking the budget,
    with the name's parameters parsed and checked. A bad name raises
    ValueError here, before anything is built, so the caller reads the
    name under parsing and runs the builder outside it."""
    if name == "quiver2":
        return lambda budget: fincat.build_quiver_category(
            ["x", "y"], [("f", "x", "y"), ("g", "x", "y")],
            name="quiver2", budget=budget)
    if name.startswith("chain"):
        n = int(name[len("chain"):])
        if n < 0:
            raise ValueError(f"chain length must be natural, got {n}")
        objs = [str(i) for i in range(n)]
        return lambda budget: fincat.build_poset_category(
            objs, [(str(i), str(i + 1)) for i in range(n - 1)],
            name=name, budget=budget)
    if name == "diamond":
        return lambda budget: fincat.build_poset_category(
            ["0", "a", "b", "1"],
            [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")],
            name="diamond", budget=budget)
    if name == "idem_monoid":
        return lambda budget: fincat.build_monoid_category(
            [[0, 1], [1, 1]], element_names=["1", "e"], name="idem_monoid",
            budget=budget)
    if name.startswith("trunc_fi:"):
        return fincat.standard_builder("trunc_fi",
                                       {"n": int(name.split(":")[1])})
    if name.startswith("trunc_vi:"):
        _, q, n = name.split(":")
        return fincat.standard_builder("trunc_vi", {"q": int(q), "n": int(n)})
    if name.startswith("orbit:"):
        return fincat.standard_builder("orbit", {"group": name.split(":")[1]})
    raise ValueError(f"unknown builtin category {name!r}")


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _resolve_category(spec: str, budget: fincat.SizeBudget) -> fincat.FiniteCategory:
    if spec.endswith(".json") or "/" in spec:
        with parsing("category"):
            doc = _load_json(spec)
        # validate_category reads the document under parsing("category")
        # itself and checks the category outside it
        return fincat.validate_category(doc, budget)
    with parsing("category"):
        build = _builtin_category(spec)
    return build(budget)


def _budget(args) -> fincat.SizeBudget:
    if args.budget is None:
        return fincat.DEFAULT_BUDGET
    return fincat.SizeBudget(max_objects=args.budget,
                             max_morphisms=args.budget)


def _resolve_inputs(args) -> None:
    """Resolve the inputs the command declares, in the module's order."""
    names = args.inputs
    if "category" in names:
        args.cat = _resolve_category(args.category, _budget(args))
    if "topology" in names:
        if args.topology in _NAMED_TOPOLOGIES:
            args.j = topology.named_topology(args.cat, args.topology)
        else:
            with parsing("topology"):
                doc = _load_json(args.topology)
            # topology_from_doc, likewise, reads under parsing("topology")
            args.j = topology.topology_from_doc(args.cat, doc)
    if "module" in names:
        with parsing("module"):
            doc = _load_json(args.module)
        # validate_module reads the document under parsing("module") itself
        # and checks the module outside it
        args.v = modrep.validate_module(args.cat, doc)
    if "field" in names or "finite_field" in names:
        with parsing("field"):
            args.field = modrep.parse_field_label(args.field)
    if "spec" in names:
        with parsing("spec"):
            raw = args.spec
            args.spec = typen.spec_from_doc(
                json.loads(raw) if raw.lstrip().startswith("{")
                else _load_json(raw))
    if "horizon" in names or "optional_horizon" in names:
        with parsing("horizon"):
            if args.horizon is not None and args.horizon < 0:
                raise ValueError("horizon must be natural")
    if "samples" in names:
        with parsing("samples"):
            if args.samples < 0:
                raise ValueError("sample count must be natural")
        if args.samples > _MAX_SAMPLES:
            raise SizeBudgetExceeded(
                f"{args.samples} samples exceeds budget {_MAX_SAMPLES}")


# ---------------------------------------------------------------------------
# rendering

def _plain(value):
    """Recursively turn report payloads into JSON-serializable data."""
    if isinstance(value, Mapping):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=repr)
        return [_plain(v) for v in items]
    if isinstance(value, sieves.Sieve):
        return sieves.sieve_to_doc(value)
    return value


def _json_text(doc) -> str:
    return json.dumps(_plain(doc), sort_keys=True, indent=2) + "\n"


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    cols = len(headers)
    widths = [len(headers[i]) for i in range(cols)]
    for row in rows:
        for i in range(cols):
            widths[i] = max(widths[i], len(row[i]))
    def fmt(row):
        return "  ".join(cell.ljust(widths[i])
                         for i, cell in enumerate(row)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines) + "\n"


def _kv_table(pairs: Sequence[tuple[str, str]]) -> str:
    return _table(("field", "value"), [(k, v) for k, v in pairs])


def _sieve_label(s: sieves.Sieve) -> str:
    if not s.members:
        return "{}"
    return "{" + ", ".join(s.members) + "}"


def _bool(value: bool) -> str:
    return "true" if value else "false"


# ---------------------------------------------------------------------------
# torsion-pair descriptors for census tables

def _class_descriptors(cat: fincat.FiniteCategory,
                       smin: Mapping[str, sieves.Sieve]) -> tuple[str, str]:
    """Support predicates for the torsion and torsion-free classes of the
    rule whose minimal covering sieve at x is smin[x].

    A maximal minimum forces the value to vanish on the torsion side, an
    empty minimum forces it on the free side, and a proper sieve
    contributes its generators. A generator condition whose targets are
    already forced to zero is implied and dropped.
    """
    t_zero = [x for x in cat.objects if sieves.is_maximal(cat, smin[x])]
    f_zero = [x for x in cat.objects if not smin[x].members]
    t_conds = [f"V_{x} = 0" for x in t_zero]
    f_conds = [f"V_{x} = 0" for x in f_zero]
    for x in cat.objects:
        if x in t_zero or x in f_zero:
            continue
        gens = sieves.minimal_generators(cat, smin[x])
        if not all(cat.cod[g] in t_zero for g in gens):
            t_conds.extend(f"V_{g} = 0" for g in gens)
        f_conds.append(" ∩ ".join(f"ker V_{g}" for g in gens) + " = 0")

    def render(conds, zeroed):
        if not conds:
            return "all"
        if len(zeroed) == len(cat.objects):
            return "0"
        return ", ".join(conds)

    return render(t_conds, t_zero), render(f_conds, f_zero)


# ---------------------------------------------------------------------------
# command handlers: each returns (exit_code, document, table_text)

def _cmd_category_validate(args) -> tuple[int, Any, str]:
    try:
        cat = _resolve_category(args.category, _budget(args))
    except Malformed:
        raise
    except ValidationFailed as err:
        doc = {"ok": False,
               "violations": [{"kind": v.kind, "witness": list(v.witness),
                               "detail": v.detail}
                              for v in err.violations]}
        rows = [(v["kind"], " ".join(v["witness"]), v["detail"])
                for v in doc["violations"]]
        return 1, doc, _table(("kind", "witness", "detail"), rows)
    doc = {"ok": True, "name": cat.name,
           "objects": len(cat.objects), "morphisms": len(cat.morphisms)}
    text = _kv_table([("ok", "true"), ("name", cat.name),
                      ("objects", str(len(cat.objects))),
                      ("morphisms", str(len(cat.morphisms)))])
    return 0, doc, text


def _cmd_category_build(args) -> tuple[int, Any, str]:
    with parsing("params"):
        build = fincat.standard_builder(
            args.kind, json.loads(args.params) if args.params else {})
    cat = build(_budget(args))
    doc = fincat.category_to_doc(cat)
    text = _kv_table([("name", cat.name),
                      ("objects", " ".join(cat.objects)),
                      ("morphisms", str(len(cat.morphisms)))])
    return 0, doc, text


def _cmd_topology_enumerate(args) -> tuple[int, Any, str]:
    cat = args.cat
    tops = topology.enumerate_topologies(cat)
    named = [(kind, topology.named_topology(cat, kind))
             for kind in ("trivial", "dense", "maximal")]
    entries = []
    cover_rows = []
    for i, j in enumerate(tops, start=1):
        smin = {x: topology.minimal_covering_sieve(cat, j, x)
                for x in cat.objects}
        t_desc, f_desc = _class_descriptors(cat, smin)
        name = next((kind for kind, rule in named if rule == j), None)
        entries.append({
            "index": i,
            "name": name,
            "covers": topology.topology_to_doc(j)["covers"],
            "torsion_class": t_desc,
            "torsion_free_class": f_desc,
        })
        cover_rows.append([str(i), name or "-"]
                          + [_sieve_label(smin[x]) for x in cat.objects])
    doc = {"category": cat.name, "count": len(tops), "topologies": entries}
    lines = [f"{len(tops)} topologies on {cat.name}", ""]
    lines.append(_table(["#", "name"] + [f"min_cover({x})"
                                         for x in cat.objects], cover_rows))
    pair_rows = [[str(e["index"]), e["name"] or "-",
                  e["torsion_class"], e["torsion_free_class"]]
                 for e in entries]
    lines.append(_table(("#", "name", "T(J)", "F(J)"), pair_rows))
    return 0, doc, "\n".join(lines)


_AXIOMS = ("is_topology", "maximal_ok", "stability_ok", "transitivity_ok",
           "inclusion_closed", "intersection_closed")


def _cmd_topology_check(args) -> tuple[int, Any, str]:
    report = topology.check_axioms(args.cat, args.j)
    doc = {k: getattr(report, k) for k in _AXIOMS}
    doc["witnesses"] = report.witnesses
    text = _kv_table([(k, _bool(doc[k])) for k in _AXIOMS])
    return (0 if report.is_topology else 1), doc, text


def _cmd_topology_named(args) -> tuple[int, Any, str]:
    j = topology.named_topology(args.cat, args.name)
    doc = topology.topology_to_doc(j)
    rows = [(x, "; ".join(_sieve_label(s) for s in j.covers_at(x)))
            for x in args.cat.objects]
    return 0, doc, _table(("object", "covers"), rows)


def _cmd_topology_rigidity(args) -> tuple[int, Any, str]:
    report = topology.rigidity(args.cat, args.j)
    doc = {
        "rigid": report.rigid,
        "irreducibles": list(report.irreducibles),
        "minimal_covers": (None if report.minimal_covers is None else
                           {x: list(s.members)
                            for x, s in report.minimal_covers.items()}),
        "failures": [list(f) for f in report.failures],
    }
    pairs = [("rigid", _bool(report.rigid)),
             ("irreducibles", " ".join(report.irreducibles) or "-")]
    if report.failures:
        pairs.extend(("failure", f"{y}: {_sieve_label(sieves.Sieve(y, m))}")
                     for y, m in report.failures)
    return (0 if report.rigid else 1), doc, _kv_table(pairs)


def _cmd_torsion_submodule(args) -> tuple[int, Any, str]:
    cat, v = args.cat, args.v
    sub, incl = torsion.torsion_submodule(cat, args.j, v)
    doc = {
        "dims": dict(sub.dims),
        "module_dims": dict(v.dims),
        "inclusion": {x: linalg.mat_to_strings(v.field, incl.components[x])
                      for x in cat.objects},
    }
    rows = [(x, str(sub.dims[x]), str(v.dims[x])) for x in cat.objects]
    return 0, doc, _table(("object", "torsion_dim", "module_dim"), rows)


def _cmd_torsion_classify(args) -> tuple[int, Any, str]:
    report = torsion.torsion_class(args.cat, args.j, args.v)
    doc = report.to_doc()
    pairs = [("classification", report.classification)]
    pairs.extend((f"torsion_dim({x})", str(report.dims[x]))
                 for x in args.cat.objects)
    return 0, doc, _kv_table(pairs)


def _cmd_torsion_pair(args) -> tuple[int, Any, str]:
    report = torsion.verify_torsion_pair(args.cat, args.j, field=args.field,
                                         sample_count=args.samples,
                                         seed=args.seed)
    doc = report.to_doc()
    pairs = [("passed", _bool(report.passed)),
             ("hom_vanishes", _bool(report.hom_vanishes)),
             ("closed_under_submodules", _bool(report.closed_under_submodules)),
             ("closed_under_quotients", _bool(report.closed_under_quotients)),
             ("quotients_torsion_free", _bool(report.quotients_torsion_free)),
             ("sample_count", str(report.sample_count))]
    return (0 if report.passed else 1), doc, _kv_table(pairs)


def _cmd_torsion_roundtrip(args) -> tuple[int, Any, str]:
    if not args.field.is_finite:
        raise InfiniteFieldUnsupported(
            "the annihilator round trip enumerates vectors; pick Fp:P")
    agrees, doc = torsion.nullstellensatz_roundtrip(args.cat, args.j,
                                                    args.field.p)
    pairs = [("agrees", _bool(agrees))]
    pairs.extend((f"realized({x})", str(n))
                 for x, n in sorted(doc["realized_counts"].items()))
    return (0 if agrees else 1), doc, _kv_table(pairs)


def _cmd_sheaf_check(args) -> tuple[int, Any, str]:
    verdict = sheaves.sheaf_verdict(args.cat, args.j, args.v)
    doc = verdict.to_doc()
    pairs = [("separated", _bool(verdict.separated)),
             ("sheaf", _bool(verdict.sheaf)),
             ("saturated", _bool(verdict.saturated.saturated)),
             ("perpendicular", _bool(verdict.perpendicular.perpendicular)),
             ("consistent", "true" if verdict.consistent else "INCONSISTENT")]
    return (0 if verdict.consistent else 1), doc, _kv_table(pairs)


def _cmd_sheaf_sheafify(args) -> tuple[int, Any, str]:
    cat, v = args.cat, args.v
    sh, unit = sheaves.sheafify(cat, args.j, v)
    doc = {
        "module": modrep.module_to_doc(sh),
        "unit": {x: linalg.mat_to_strings(v.field, unit.components[x])
                 for x in cat.objects},
    }
    rows = [(x, str(v.dims[x]), str(sh.dims[x])) for x in cat.objects]
    return 0, doc, _table(("object", "input_dim", "sheaf_dim"), rows)


def _cmd_sheaf_equivalence(args) -> tuple[int, Any, str]:
    report = sheaves.verify_rigid_equivalence(args.cat, args.j,
                                              field=args.field,
                                              sample_count=args.samples,
                                              seed=args.seed)
    doc = report.to_doc()
    pairs = [("passed", _bool(report.passed)),
             ("irreducibles", " ".join(report.irreducibles) or "-"),
             ("sample_count", str(report.sample_count))]
    return (0 if report.passed else 1), doc, _kv_table(pairs)


def _cmd_typen_validate(args) -> tuple[int, Any, str]:
    outcome = typen.validate_spec(args.spec, horizon=args.horizon)
    doc = outcome.to_doc()
    doc["rigid"] = typen.rigid_spec(args.spec) if outcome.valid else None
    pairs = [("valid", _bool(outcome.valid)),
             ("recurrence_ok", _bool(outcome.recurrence_ok)),
             ("pieces_ok", _bool(outcome.pieces_ok)),
             ("violation", outcome.violation or "-"),
             ("rigid", "-" if doc["rigid"] is None else _bool(doc["rigid"]))]
    return (0 if outcome.valid else 1), doc, _kv_table(pairs)


def _cmd_typen_census(args) -> tuple[int, Any, str]:
    census = typen.spec_census(args.horizon)
    doc = census.to_doc()
    text = (f"generic: {len(census.generic)},"
            f" nongeneric: {len(census.nongeneric)}\n")
    return 0, doc, text


def _cmd_typen_pullback(args) -> tuple[int, Any, str]:
    with parsing("pullback"):
        rank = None if args.rank in ("empty", "none") else int(args.rank)
        s = typen.symbolic_pullback(args.object, rank, args.deg)
    doc = {"n": s.n, "rank": s.rank, "display": repr(s)}
    return 0, doc, repr(s) + "\n"


def _cmd_typen_crosscheck(args) -> tuple[int, Any, str]:
    report = typen.truncation_crosscheck(args.spec, args.horizon)
    doc = report.to_doc()
    pairs = [("passed", _bool(report.passed)),
             ("sieve_inventory_ok", _bool(report.sieve_inventory_ok)),
             ("pullback_agreement_ok", _bool(report.pullback_agreement_ok)),
             ("stability_ok", _bool(report.stability_ok)),
             ("transitivity", report.transitivity)]
    return (0 if report.passed else 1), doc, _kv_table(pairs)


# ---------------------------------------------------------------------------
# the command table

_CATEGORY = ("--category", dict(required=True,
                                help="category document path or builtin name"))

# argument name -> (flag, add_argument keywords); two names may share a
# flag when their keywords or their resolution differ
_ARGS: dict[str, tuple[str, dict[str, Any]]] = {
    "category": _CATEGORY,
    "category_doc": _CATEGORY,
    "budget": ("--budget", dict(type=int, default=None,
                                help="size budget for objects and morphisms")),
    "kind": ("--kind", dict(
        required=True,
        help="poset|free_acyclic_quiver|orbit|trunc_fi|trunc_vi")),
    "params": ("--params", dict(default="",
                                help="JSON object of builder parameters")),
    "topology": ("--topology", dict(
        required=True,
        help="topology document path or one of: "
             + "|".join(_NAMED_TOPOLOGIES))),
    "name": ("--name", dict(required=True, choices=_NAMED_TOPOLOGIES)),
    "module": ("--module", dict(required=True)),
    "field": ("--field", dict(default="Fp:2", help="Q or Fp:P")),
    "finite_field": ("--field", dict(default="Fp:2",
                                     help="Fp:P (finite only)")),
    "samples": ("--samples", dict(type=int, default=20)),
    "seed": ("--seed", dict(type=int, default=0)),
    "spec": ("--spec", dict(required=True,
                            help="spec document path or inline JSON")),
    "horizon": ("--horizon", dict(type=int, required=True)),
    "optional_horizon": ("--horizon", dict(type=int, default=None)),
    "object": ("--object", dict(type=int, required=True)),
    "rank": ("--rank", dict(
        required=True,
        help="natural number, or empty for the empty sieve")),
    "deg": ("--deg", dict(type=int, required=True)),
}

_ON = ("category", "budget", "topology")
_SAMPLING = ("field", "samples", "seed")

# (group, command, handler, argument names), in help order
_COMMANDS: list[tuple[str, str, Callable[..., tuple[int, Any, str]],
                      tuple[str, ...]]] = [
    ("category", "validate", _cmd_category_validate,
     ("category_doc", "budget")),
    ("category", "build", _cmd_category_build, ("kind", "params", "budget")),
    ("topology", "enumerate", _cmd_topology_enumerate, ("category", "budget")),
    ("topology", "check", _cmd_topology_check, _ON),
    ("topology", "named", _cmd_topology_named, ("category", "budget", "name")),
    ("topology", "rigidity", _cmd_topology_rigidity, _ON),
    ("torsion", "submodule", _cmd_torsion_submodule, (*_ON, "module")),
    ("torsion", "classify", _cmd_torsion_classify, (*_ON, "module")),
    ("torsion", "pair", _cmd_torsion_pair, (*_ON, *_SAMPLING)),
    ("torsion", "roundtrip", _cmd_torsion_roundtrip, (*_ON, "finite_field")),
    ("sheaf", "check", _cmd_sheaf_check, (*_ON, "module")),
    ("sheaf", "sheafify", _cmd_sheaf_sheafify, (*_ON, "module")),
    ("sheaf", "equivalence", _cmd_sheaf_equivalence, (*_ON, *_SAMPLING)),
    ("typen", "validate", _cmd_typen_validate, ("spec", "optional_horizon")),
    ("typen", "census", _cmd_typen_census, ("horizon",)),
    ("typen", "pullback", _cmd_typen_pullback, ("object", "rank", "deg")),
    ("typen", "crosscheck", _cmd_typen_crosscheck, ("spec", "horizon")),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finsite",
        description="Cover rules, torsion pairs, and sheaves on finite"
                    " categories.")
    parser.add_argument("--format", choices=("json", "table"),
                        default="table")
    groups = parser.add_subparsers(dest="group", required=True)
    commands = {}
    for group, name, handler, inputs in _COMMANDS:
        if group not in commands:
            commands[group] = groups.add_parser(group).add_subparsers(
                dest="command", required=True)
        p = commands[group].add_parser(name)
        # --format is declared top-level but accepted trailing as well;
        # SUPPRESS keeps the leaf from clobbering what the top parser wrote
        p.add_argument("--format", choices=("json", "table"),
                       default=argparse.SUPPRESS)
        for arg in inputs:
            flag, keywords = _ARGS[arg]
            p.add_argument(flag, **keywords)
        p.set_defaults(handler=handler, inputs=inputs)
    return parser


def run(argv: Sequence[str]) -> tuple[int, str]:
    """Parse and dispatch; return (exit code, rendered output)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed its message to stderr
        return (2 if exc.code else 0), ""
    try:
        _resolve_inputs(args)
        code, doc, table_text = args.handler(args)
    except _INPUT_ERRORS as err:
        return 2, f"error: {err}\n"
    except SizeBudgetExceeded as err:
        return 3, f"SizeBudgetExceeded: {err}\n"
    except FinsiteError as err:
        return 1, f"{type(err).__name__}: {err}\n"
    if args.format == "json":
        return code, _json_text(doc)
    return code, table_text


def main() -> int:
    code, text = run(sys.argv[1:])
    if text:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
