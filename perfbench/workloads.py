"""Seeded inputs and task lists for the benchmark workloads.

Each workload is a fixed list of tasks drawn from ``--seed``; a task is one
call into finsite with a reference answer. Nothing here reads the clock:
the worker times the tasks. Finsite functions are reached through their
modules (``topology.enumerate_topologies``), never bound by name, so the
tracer's rebinding reaches every call the benchmark makes.

census    enumerate_topologies on fixed fixtures and seed-drawn 5-element
          posets, typen spec censuses to horizon 10, truncation
          cross-checks to horizon 4. Time sits in check_axioms.
sheaf_fp  every enumerated rule on the EI fixtures, over F2 and F3, under
          five task kinds. Time sits in random_module and linalg.
sheaf_q   the same task mix over Q (Fraction entries, grid search in
          are_isomorphic); runnable, but not a BENCHMARK.json workload
          (see README.md).
cli       one closed-loop client running CLI verbs as subprocesses on
          generated documents; pays start-up, import, parse and render.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable

from finsite import cli, fincat, modrep, sheaves, sieves, topology, torsion, typen

WORKLOADS = ("census", "sheaf_fp", "sheaf_q", "cli")

# Chains 3-6 and the small fixtures with their known topology counts. chain7
# (about 77 s), chain8 and orbit(S4) (refused by the enumeration budget) are
# left out so that a change making them feasible is not charged for them.
CENSUS_COUNTS = {
    "chain3": 8, "chain4": 16, "chain5": 32, "chain6": 64, "diamond": 16,
    "quiver2": 4, "trunc_fi2": 8, "orbit_C2": 4, "orbit_C3": 4,
    "orbit_S3": 16, "C2": 2, "C3": 2, "S3": 2, "idem_monoid": 3,
}
RANDOM_POSETS = 3
POSET_SIZE = 5
# enumerate_topologies cost grows with the candidate product; drawing every
# random poset from one band of it keeps the census pass time steady
# across seeds while the posets themselves still vary
POSET_CANDIDATE_BAND = (360, 480)
SPEC_CENSUS_HORIZONS = range(11)
# the two specs acceptance gate 10 grounds: generic (1, 1, 0) and the
# nongeneric (1, 0) with cutoff 2
CROSSCHECK_SPECS = (("generic", (1, 1, 0), {"tail": 0}),
                    ("nongeneric", (1, 0), {"cutoff": 2}))
CROSSCHECK_HORIZONS = range(5)

SHEAF_FIXTURES = ("quiver2", "chain2", "chain3", "diamond", "trunc_fi2",
                  "orbit_C3")
SHEAF_KINDS = ("verdict", "sheafify", "torsion_class", "torsion_pair",
               "rigid")
VERDICT_MAX_DIM = 3
SAMPLED_MAX_DIM = 2
MODULES_PER_TASK = 2

CLI_REPEATS = 2
CLI_CENSUS_HORIZON = 8
CLI_TIMEOUT_S = 60


@dataclass(frozen=True)
class Task:
    kind: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


@dataclass(frozen=True)
class Workload:
    name: str
    tasks: list[Task]
    # the list the traced run times; differs from tasks only for cli, whose
    # traced run calls cli.run in process
    traced_tasks: list[Task]
    # JSON-ready description of everything drawn from the seed
    inputs: dict


# ---------------------------------------------------------------------------
# fixtures

def _chain(n: int) -> fincat.FiniteCategory:
    objs = [str(i) for i in range(n)]
    return fincat.build_poset_category(
        objs, [(str(i), str(i + 1)) for i in range(n - 1)], name=f"chain{n}")


_GROUPS = {"C2": lambda: fincat.cyclic_group_table(2),
           "C3": lambda: fincat.cyclic_group_table(3),
           "S3": lambda: fincat.symmetric_group_table(3)}


def fixture(name: str) -> fincat.FiniteCategory:
    if name.startswith("chain"):
        return _chain(int(name[len("chain"):]))
    if name == "diamond":
        return fincat.build_poset_category(
            ["0", "a", "b", "1"],
            [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")], name="diamond")
    if name == "quiver2":
        return fincat.build_quiver_category(
            ["x", "y"], [("f", "x", "y"), ("g", "x", "y")], name="quiver2")
    if name == "trunc_fi2":
        return fincat.build_trunc_fi_category(2)
    if name == "idem_monoid":
        return fincat.build_monoid_category(
            [[0, 1], [1, 1]], element_names=["1", "e"], name="idem_monoid")
    if name.startswith("orbit_"):
        group = name[len("orbit_"):]
        return fincat.build_orbit_category(_GROUPS[group](), name=name)[0]
    return fincat.build_monoid_category(_GROUPS[name](), name=name)


def _poset_pairs(rng: random.Random, n: int) -> list[list[str]]:
    """Random strict order relations on n labelled elements."""
    order = [f"p{i}" for i in range(n)]
    rng.shuffle(order)
    return [[order[a], order[b]] for a in range(n) for b in range(a + 1, n)
            if rng.random() < 0.5]


def _candidate_count(cat: fincat.FiniteCategory) -> int:
    total = 1
    for x in cat.objects:
        total *= len(sieves.all_sieves(cat, x))
    return total


def _banded_poset(rng: random.Random) -> list[list[str]]:
    """Order relations of a random poset whose candidate product lies in
    POSET_CANDIDATE_BAND, found by rejection sampling."""
    low, high = POSET_CANDIDATE_BAND
    while True:
        pairs = _poset_pairs(rng, POSET_SIZE)
        cat = fincat.build_poset_category(
            [f"p{i}" for i in range(POSET_SIZE)], pairs)
        if low <= _candidate_count(cat) <= high:
            return pairs


def _serials(rules) -> set[str]:
    return {topology.canonical_serialization(j) for j in rules}


# ---------------------------------------------------------------------------
# census

def _enumerate_task(cat: fincat.FiniteCategory, expected: int | None) -> Task:
    flags = fincat.classify_category(cat)
    directed_ei = flags.directed and flags.ei

    def check(found) -> bool:
        if expected is not None and len(found) != expected:
            return False
        if directed_ei:
            return _serials(found) == _serials(
                topology.enumerate_consistent_families(cat))
        return True

    return Task("enumerate", f"enumerate {cat.name}",
                lambda: topology.enumerate_topologies(cat), check)


def _census(drawn: dict) -> Workload:
    tasks = [_enumerate_task(fixture(name), count)
             for name, count in CENSUS_COUNTS.items()]
    posets = drawn["posets"]
    for k, pairs in enumerate(posets):
        cat = fincat.build_poset_category(
            [f"p{i}" for i in range(POSET_SIZE)], pairs, name=f"poset{k}")
        tasks.append(_enumerate_task(cat, None))
    for h in SPEC_CENSUS_HORIZONS:
        tasks.append(Task(
            "spec_census", f"spec_census {h}",
            lambda h=h: typen.spec_census(h),
            lambda c, h=h: len(c.generic) == len(c.nongeneric) == 2 ** h))
    specs = [typen.make_spec(kind, word, **extra)
             for kind, word, extra in CROSSCHECK_SPECS]
    for k, spec in enumerate(specs):
        for h in CROSSCHECK_HORIZONS:
            tasks.append(Task(
                "crosscheck", f"crosscheck spec{k} {h}",
                lambda spec=spec, h=h: typen.truncation_crosscheck(spec, h),
                lambda rep: rep.passed))
    inputs = {"fixtures": list(CENSUS_COUNTS), "posets": posets,
              "crosscheck_specs": [typen.spec_to_doc(s) for s in specs]}
    return Workload("census", tasks, tasks, inputs)


# ---------------------------------------------------------------------------
# sheaf verification

def _torsion_class_ok(cat, j, result) -> bool:
    # reference: the quotient by the torsion part is torsion-free, and the
    # label agrees with the torsion dimensions
    v, report = result
    t, incl = torsion.torsion_submodule(cat, j, v)
    if dict(t.dims) != dict(report.dims):
        return False
    q, _ = modrep.quotient_module(v, incl)
    if not (q.is_zero()
            or torsion.torsion_class(cat, j, q).classification
            == "torsion_free"):
        return False
    if report.classification == "torsion":
        return dict(t.dims) == dict(v.dims)
    if report.classification == "torsion_free":
        return t.is_zero()
    return not t.is_zero() and dict(t.dims) != dict(v.dims)


def _sheaf_task(kind: str, cat, j, idx: int, field, seed: int) -> Task:
    """One (rule, field, kind) task over MODULES_PER_TASK sampled modules:
    as many module seeds for the per-module kinds, as many samples for the
    two reports."""
    label = f"{kind} {cat.name} rule{idx} {field.label()} seed{seed}"
    seeds = [seed + k for k in range(MODULES_PER_TASK)]
    if kind == "verdict":
        def run():
            return [sheaves.sheaf_verdict(
                        cat, j, modrep.random_module(cat, field, s,
                                                     VERDICT_MAX_DIM))
                    for s in seeds]
        return Task(kind, label, run,
                    lambda got: all(verdict.consistent for verdict in got))
    if kind == "sheafify":
        def run():
            out = []
            for s in seeds:
                v = modrep.random_module(cat, field, s, SAMPLED_MAX_DIM)
                _, unit = sheaves.sheafify(cat, j, v)
                ker, _ = modrep.kernel_of_map(unit)
                coker, _ = modrep.cokernel_of_map(unit)
                out.append((torsion.torsion_class(cat, j, ker).classification,
                            torsion.torsion_class(cat, j, coker).classification))
            return out
        return Task(kind, label, run,
                    lambda got: all(g == ("torsion", "torsion") for g in got))
    if kind == "torsion_class":
        def run():
            out = []
            for s in seeds:
                v = modrep.random_module(cat, field, s, VERDICT_MAX_DIM)
                out.append((v, torsion.torsion_class(cat, j, v)))
            return out
        return Task(kind, label, run,
                    lambda got: all(_torsion_class_ok(cat, j, g) for g in got))
    if kind == "torsion_pair":
        return Task(kind, label,
                    lambda: torsion.verify_torsion_pair(
                        cat, j, field, sample_count=MODULES_PER_TASK,
                        seed=seed, max_dim=SAMPLED_MAX_DIM),
                    lambda rep: rep.passed)
    return Task(kind, label,
                lambda: sheaves.verify_rigid_equivalence(
                    cat, j, field, sample_count=MODULES_PER_TASK, seed=seed,
                    max_dim=SAMPLED_MAX_DIM),
                lambda rep: rep.passed)


def _sheaf(name: str, seed: int, field_labels: tuple[str, ...]) -> Workload:
    rng = random.Random(f"perfbench:{name}:{seed}")
    fields = [modrep.parse_field_label(label) for label in field_labels]
    tasks = []
    seeds = []
    for fix in SHEAF_FIXTURES:
        cat = fixture(fix)
        for idx, j in enumerate(topology.enumerate_topologies(cat)):
            for field in fields:
                for kind in SHEAF_KINDS:
                    s = rng.randrange(2 ** 30)
                    seeds.append(s)
                    tasks.append(_sheaf_task(kind, cat, j, idx, field, s))
    inputs = {"fixtures": list(SHEAF_FIXTURES), "fields": list(field_labels),
              "kinds": list(SHEAF_KINDS), "module_seeds": seeds}
    return Workload(name, tasks, tasks, inputs)


# ---------------------------------------------------------------------------
# cli

def _write(path: str, doc) -> str:
    with open(path, "w", encoding="utf-8") as out:
        json.dump(doc, out, indent=2, sort_keys=True)
    return path


def _cli_argvs(rng: random.Random, doc_dir: str) -> tuple[list[list[str]], dict]:
    """The distinct CLI calls of one pass, on documents written to doc_dir.

    Every call is expected to exit 0: rules are enumerated topologies on
    EI fixtures (all rigid), modules are random, specs come from a census.
    """
    os.makedirs(doc_dir, exist_ok=True)
    fix = SHEAF_FIXTURES[rng.randrange(len(SHEAF_FIXTURES))]
    cat = fixture(fix)
    rules = topology.enumerate_topologies(cat)
    rule_idx = rng.randrange(len(rules))
    field_label = ("Fp:2", "Fp:3", "Q")[rng.randrange(3)]
    module_seed = rng.randrange(2 ** 30)
    module = modrep.random_module(cat, modrep.parse_field_label(field_label),
                                  module_seed, SAMPLED_MAX_DIM)
    poset_pairs = _poset_pairs(rng, 4)
    poset = fincat.build_poset_category(
        [f"p{i}" for i in range(4)], poset_pairs, name="poset4")
    pool = typen.spec_census(4)
    pool = pool.generic + pool.nongeneric
    spec = pool[rng.randrange(len(pool))]
    sample_seed = rng.randrange(1000)
    pull = [rng.randint(0, 9), rng.randint(0, 5), rng.randint(0, 5)]

    cat_doc = _write(os.path.join(doc_dir, "category.json"),
                     fincat.category_to_doc(cat))
    poset_doc = _write(os.path.join(doc_dir, "poset4.json"),
                       fincat.category_to_doc(poset))
    top_doc = _write(os.path.join(doc_dir, "topology.json"),
                     topology.topology_to_doc(rules[rule_idx]))
    mod_doc = _write(os.path.join(doc_dir, "module.json"),
                     modrep.module_to_doc(module))
    spec_doc = _write(os.path.join(doc_dir, "spec.json"),
                      typen.spec_to_doc(spec))
    on = ["--category", cat_doc, "--topology", top_doc]
    sampling = ["--samples", "2", "--seed", str(sample_seed)]
    argvs = [
        ["category", "validate", "--category", poset_doc],
        ["--format", "json", "category", "validate", "--category", cat_doc],
        ["topology", "enumerate", "--category", poset_doc],
        ["--format", "json", "topology", "check", *on],
        ["topology", "rigidity", *on],
        ["torsion", "classify", *on, "--module", mod_doc],
        ["--format", "json", "torsion", "submodule", *on, "--module", mod_doc],
        ["torsion", "pair", *on, *sampling],
        ["--format", "json", "sheaf", "check", *on, "--module", mod_doc],
        ["sheaf", "sheafify", *on, "--module", mod_doc],
        ["--format", "json", "sheaf", "equivalence", *on, *sampling],
        ["typen", "validate", "--spec", spec_doc],
        ["--format", "json", "typen", "census", "--horizon",
         str(CLI_CENSUS_HORIZON)],
        ["typen", "crosscheck", "--spec", spec_doc, "--horizon", "3"],
        ["typen", "pullback", "--object", str(pull[0]), "--rank",
         str(pull[1]), "--deg", str(pull[2])],
    ]
    inputs = {"category": fix, "rule": rule_idx, "field": field_label,
              "module_seed": module_seed, "poset4": poset_pairs,
              "spec": typen.spec_to_doc(spec), "sample_seed": sample_seed,
              "pullback": pull}
    return argvs, inputs


def _cli(seed: int, doc_dir: str) -> Workload:
    rng = random.Random(f"perfbench:cli:{seed}")
    argvs, inputs = _cli_argvs(rng, doc_dir)
    # the first output seen for each argv; every later one must match it
    first: dict[tuple[str, ...], bytes] = {}

    def same_as_first(argv, code: int, out: bytes) -> bool:
        return code == 0 and first.setdefault(tuple(argv), out) == out

    def subprocess_task(argv) -> Task:
        def run():
            done = subprocess.run(
                [sys.executable, "-m", "finsite.cli", *argv],
                capture_output=True, timeout=CLI_TIMEOUT_S, check=False)
            return done.returncode, done.stdout
        return Task(argv[2] if argv[0] == "--format" else argv[0],
                    " ".join(argv), run,
                    lambda got, argv=argv: same_as_first(argv, *got))

    def inprocess_task(argv) -> Task:
        return Task("cli.run", " ".join(argv), lambda: cli.run(argv),
                    lambda got, argv=argv: same_as_first(
                        argv, got[0], got[1].encode("utf-8")))

    order = [argv for _ in range(CLI_REPEATS) for argv in argvs]
    return Workload("cli", [subprocess_task(a) for a in order],
                    [inprocess_task(a) for a in order],
                    dict(inputs, argvs=argvs))


def draw(name: str, seed: int) -> dict:
    """The seeded inputs that are found by search rather than drawn
    directly: the census posets. How long the search takes depends on the
    seed alone, so the worker runs it before it times the set-up."""
    if name != "census":
        return {}
    rng = random.Random(f"perfbench:census:{seed}")
    return {"posets": [_banded_poset(rng) for _ in range(RANDOM_POSETS)]}


def setup(name: str, seed: int, doc_dir: str,
          drawn: dict | None = None) -> Workload:
    if drawn is None:
        drawn = draw(name, seed)
    if name == "census":
        return _census(drawn)
    if name == "sheaf_fp":
        return _sheaf(name, seed, ("Fp:2", "Fp:3"))
    if name == "sheaf_q":
        return _sheaf(name, seed, ("Q",))
    if name == "cli":
        return _cli(seed, doc_dir)
    raise ValueError(f"unknown workload {name!r}")
