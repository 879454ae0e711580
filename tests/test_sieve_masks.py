"""The mask index against the tuple sieves it replaced.

Every sieve operation once worked on tuple Sieves: it composed, pulled back
and intersected member sets through compose and sorted the results. Those
implementations are kept here verbatim as oracles, and the mask-backed
functions must agree with them: all_sieves, generated_sieve,
minimal_generators, is_maximal, make_sieve (accepted sieves and refusals
alike), pullback_sieve, subcategory_sieve, minimal_covering_sieve,
check_axioms and the stability scan behind require_stable, witnesses and
their order included, on every enumerated rule and on random rules, stable
or not. A sieve with a member out of place must be refused with
WrongDomain or InvalidSieve by every entry point, each category's mask
index is built once, and the topology search builds its sieve tables once
per call.
"""

from __future__ import annotations

import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsite import fincat, linalg, sieves, topology, torsion
from finsite.errors import (
    FinsiteError,
    InvalidSieve,
    SizeBudgetExceeded,
    StabilityFails,
    UnknownObject,
    WrongDomain,
)
from finsite.sieves import Sieve, sieve_sort_key

from conftest import chain, constant_module, diamond, idem_monoid, quiver2


# ---------------------------------------------------------------------------
# the tuple implementations, kept as oracles

def old_make_sieve(cat, base, members):
    if base not in cat.identity:
        raise UnknownObject(base)
    mem = tuple(sorted(set(members)))
    for f in mem:
        if f not in cat.dom:
            raise InvalidSieve(f"unknown morphism {f!r}")
        if cat.dom[f] != base:
            raise WrongDomain(f"{f} has domain {cat.dom[f]}, not {base}")
    mset = set(mem)
    for f in mem:
        for g in cat.morphisms_from(cat.cod[f]):
            if cat.compose(g, f) not in mset:
                raise InvalidSieve(
                    f"not postcomposition closed: {g}.{f} missing on {base}")
    return Sieve(base, mem)


def old_generated_sieve(cat, x, generators):
    if x not in cat.identity:
        raise UnknownObject(x)
    gens = list(generators)
    for f in gens:
        if f not in cat.dom:
            raise InvalidSieve(f"unknown morphism {f!r}")
        if cat.dom[f] != x:
            raise WrongDomain(f"{f} has domain {cat.dom[f]}, not {x}")
    return Sieve(x, tuple(sorted({cat.compose(g, f) for f in gens
                                  for g in cat.morphisms_from(cat.cod[f])})))


def old_minimal_generators(cat, s):
    if s.base not in cat.identity:
        raise UnknownObject(s.base)
    kept = []
    covered = set()
    for f in s.members:
        if f in covered:
            continue
        kept.append(f)
        covered |= set(old_generated_sieve(cat, s.base, [f]).members)
    return tuple(kept)


def old_union_sieves(a, b):
    if a.base != b.base:
        raise WrongDomain("union of sieves on different objects")
    return Sieve(a.base, tuple(sorted(set(a.members) | set(b.members))))


def old_intersect_sieves(a, b):
    if a.base != b.base:
        raise WrongDomain("intersection of sieves on different objects")
    return Sieve(a.base, tuple(sorted(set(a.members) & set(b.members))))


def old_subcategory_sieve(cat, objs, x):
    d = set(objs)
    unknown = d - cat.identity.keys()
    if unknown:
        raise UnknownObject(min(unknown))
    return old_generated_sieve(cat, x, [f for f in cat.morphisms_from(x)
                                        if cat.cod[f] in d])


def old_minimal_covering_sieve(cat, j, x):
    covers = j.covers_at(x)
    if not covers:
        raise UnknownObject(f"no covers recorded at {x}")
    out = covers[0]
    for s in covers[1:]:
        out = old_intersect_sieves(out, s)
    return out


def old_all_sieves(cat, x, max_sieves=sieves.DEFAULT_MAX_SIEVES):
    if x not in cat.identity:
        raise UnknownObject(x)
    found = {Sieve(x, ()): None}
    for f in cat.morphisms_from(x):
        p = old_generated_sieve(cat, x, [f])
        for s in list(found):
            u = old_union_sieves(s, p)
            if u not in found:
                if len(found) >= max_sieves:
                    raise SizeBudgetExceeded(
                        f"more than {max_sieves} sieves on {x}")
                found[u] = None
    return sorted(found, key=sieve_sort_key)


def old_pullback_sieve(cat, s, f):
    if cat.dom[f] != s.base:
        raise WrongDomain(f"{f} has domain {cat.dom[f]}, not {s.base}")
    y = cat.cod[f]
    mset = s.member_set
    members = tuple(sorted(g for g in cat.morphisms_from(y)
                           if cat.compose(g, f) in mset))
    return Sieve(y, members)


def old_stability_violations(cat, j):
    for x in cat.objects:
        for s in sorted(j.covers.get(x, frozenset()), key=sieve_sort_key):
            for f in cat.morphisms_from(x):
                if (old_pullback_sieve(cat, s, f)
                        not in j.covers.get(cat.cod[f], frozenset())):
                    yield (x, s.members, f)


def old_check_axioms(cat, j):
    found = {
        "maximal": [], "stability": list(old_stability_violations(cat, j)),
        "transitivity": [], "inclusion": [], "intersection": []}
    for x in cat.objects:
        jx = j.covers.get(x, frozenset())
        ordered = sorted(jx, key=sieve_sort_key)
        universe = old_all_sieves(cat, x)
        if sieves.maximal_sieve(cat, x) not in jx:
            found["maximal"].append((x,))
        for t in universe:
            if t in jx:
                continue
            covered = {}
            for s in ordered:
                for f in s.members:
                    if f not in covered:
                        covered[f] = (old_pullback_sieve(cat, t, f)
                                      in j.covers.get(cat.cod[f], frozenset()))
                    if not covered[f]:
                        break
                else:
                    found["transitivity"].append((x, s.members, t.members))
        found["inclusion"].extend(
            (x, s.members, t.members) for s in ordered for t in universe
            if s.member_set <= t.member_set and t not in jx)
        found["intersection"].extend(
            (x, s.members, t.members)
            for s, t in itertools.combinations(ordered, 2)
            if old_intersect_sieves(s, t) not in jx)
    return topology.AxiomReport(
        not found["maximal"], not found["stability"],
        not found["transitivity"], not found["inclusion"],
        not found["intersection"],
        {kind: tuple(w) for kind, w in found.items() if w})


# ---------------------------------------------------------------------------
# categories and rules

def group(name, table):
    return fincat.build_monoid_category(table, name=name)


def orbit(name, table):
    return fincat.build_orbit_category(table, name=name)[0]


MASK_CATS = [
    chain(3), chain(4), chain(5), diamond(), quiver2(),
    fincat.build_trunc_fi_category(2), fincat.build_trunc_fi_category(3),
    orbit("orbit_C3", fincat.cyclic_group_table(3)),
    orbit("orbit_S3", fincat.symmetric_group_table(3)),
    idem_monoid(),
    group("C2", fincat.cyclic_group_table(2)),
    group("C3", fincat.cyclic_group_table(3)),
    group("S3", fincat.symmetric_group_table(3)),
    fincat.build_trunc_vi_category(2, 2),
]
UNIVERSES = {cat.name: {x: old_all_sieves(cat, x) for x in cat.objects}
             for cat in MASK_CATS}
ENUMERATED = {cat.name: topology.enumerate_topologies(cat)
              for cat in MASK_CATS}


def assert_reports_agree(cat, j):
    assert topology.check_axioms(cat, j) == old_check_axioms(cat, j)
    witness = next(old_stability_violations(cat, j), None)
    assert topology.check_stability_only(cat, j) == witness
    if witness is None:
        topology.require_stable(cat, j)
    else:
        with pytest.raises(StabilityFails) as caught:
            topology.require_stable(cat, j)
        assert caught.value.witness == witness


@st.composite
def rules(draw):
    """A random rule on a MASK_CATS category: any set of sieves per object,
    or an enumerated topology with covers removed and added, so that both
    stable and unstable rules come up."""
    cat = draw(st.sampled_from(MASK_CATS))
    universe = UNIVERSES[cat.name]
    if draw(st.booleans()):
        covers = {x: draw(st.sets(st.sampled_from(universe[x])))
                  for x in cat.objects}
    else:
        base = draw(st.sampled_from(ENUMERATED[cat.name]))
        covers = {}
        for x in cat.objects:
            keep = draw(st.sets(st.sampled_from(universe[x]), max_size=1))
            drop = draw(st.sets(st.sampled_from(universe[x]), max_size=1))
            covers[x] = (set(base.covers[x]) | keep) - drop
    return cat, topology.make_rule(cat, covers)


# ---------------------------------------------------------------------------
# differential tests

def test_all_sieves_match_the_tuple_scan(monkeypatch):
    for cat in MASK_CATS + [chain(6), fincat.build_trunc_fi_category(4)]:
        for x in cat.objects:
            old = old_all_sieves(cat, x)
            assert sieves.all_sieves(cat, x) == old, (cat.name, x)
            with monkeypatch.context() as patch:
                patch.setattr(sieves, "DEFAULT_MAX_SIEVES", len(old) - 1)
                with pytest.raises(SizeBudgetExceeded):
                    sieves.all_sieves(cat, x)


def test_pullbacks_match_the_tuple_pullback():
    for cat in MASK_CATS:
        for x, universe in UNIVERSES[cat.name].items():
            for s in universe:
                for f in cat.morphisms_from(x):
                    assert (sieves.pullback_sieve(cat, s, f)
                            == old_pullback_sieve(cat, s, f)), (cat.name, s, f)


def test_reports_match_on_every_enumerated_rule():
    for cat in MASK_CATS:
        for j in ENUMERATED[cat.name]:
            assert_reports_agree(cat, j)


@settings(max_examples=150, deadline=None)
@given(rules())
def test_reports_match_on_random_rules(drawn):
    cat, j = drawn
    assert_reports_agree(cat, j)


def test_reports_match_on_named_rules():
    for cat in MASK_CATS:
        for kind in ("trivial", "maximal", "dense"):
            assert_reports_agree(cat, topology.named_topology(cat, kind))


def outcome(fn, *args):
    """fn's result, or the class and message of the FinsiteError it
    raises."""
    try:
        return fn(*args)
    except FinsiteError as err:
        return type(err), str(err)


@st.composite
def member_sets(draw):
    """A category, an object x and a sorted, duplicate-free set of
    morphisms out of x: a sieve or not."""
    cat = draw(st.sampled_from(MASK_CATS))
    x = draw(st.sampled_from(cat.objects))
    members = draw(st.sets(st.sampled_from(cat.morphisms_from(x))))
    return cat, x, tuple(sorted(members))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_generated_sieves_match_on_generator_subsets(data):
    cat = data.draw(st.sampled_from(MASK_CATS))
    x = data.draw(st.sampled_from(cat.objects))
    # any order, repeats allowed, now and then a morphism out of place
    gens = data.draw(st.lists(st.sampled_from(cat.morphisms_from(x))))
    if data.draw(st.integers(0, 9)) == 0:
        gens.append(data.draw(st.sampled_from(cat.morphisms + ("zz",))))
    assert (outcome(sieves.generated_sieve, cat, x, gens)
            == outcome(old_generated_sieve, cat, x, gens))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_minimal_generators_and_maximality_match(data):
    cat = data.draw(st.sampled_from(MASK_CATS))
    x = data.draw(st.sampled_from(cat.objects))
    s = data.draw(st.sampled_from(UNIVERSES[cat.name][x]))
    assert (sieves.minimal_generators(cat, s)
            == old_minimal_generators(cat, s))
    assert sieves.is_maximal(cat, s) == (s == sieves.maximal_sieve(cat, x))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_subcategory_sieves_match(data):
    cat = data.draw(st.sampled_from(MASK_CATS))
    x = data.draw(st.sampled_from(cat.objects))
    d = data.draw(st.sets(st.sampled_from(cat.objects)))
    assert (topology.subcategory_sieve(cat, d, x)
            == old_subcategory_sieve(cat, d, x))


@settings(max_examples=150, deadline=None)
@given(rules())
def test_minimal_covering_sieves_match(drawn):
    cat, j = drawn
    for x in cat.objects:
        assert (outcome(topology.minimal_covering_sieve, cat, j, x)
                == outcome(old_minimal_covering_sieve, cat, j, x))


@settings(max_examples=200, deadline=None)
@given(member_sets(), st.data())
def test_make_sieve_accepts_and_refuses_as_before(drawn, data):
    cat, x, members = drawn
    # in any order, with now and then a morphism out of place
    members = list(data.draw(st.permutations(members)))
    if data.draw(st.integers(0, 4)) == 0:
        members.append(data.draw(st.sampled_from(cat.morphisms + ("zz",))))
    got = outcome(sieves.make_sieve, cat, x, members)
    assert got == outcome(old_make_sieve, cat, x, members)
    assert isinstance(got, Sieve) == (got in UNIVERSES[cat.name][x])


@settings(max_examples=200, deadline=None)
@given(member_sets(), st.data())
def test_pullbacks_of_member_sets_match(drawn, data):
    # f*(S) reads only the member set, closed or not
    cat, x, members = drawn
    f = data.draw(st.sampled_from(cat.morphisms_from(x)))
    s = Sieve(x, members)
    assert (sieves.pullback_sieve(cat, s, f)
            == old_pullback_sieve(cat, s, f))


# ---------------------------------------------------------------------------
# a sieve with a member out of place is refused, never a KeyError

# each way a hand-built Sieve on chain3's object 0 can be wrong
BAD_SIEVES = [
    ("foreign member", Sieve("0", ("0->1", "0->2", "1->2", "1_0"))),
    ("unknown member", Sieve("0", ("0->1", "0->2", "0->9", "1_0"))),
    ("unsorted members", Sieve("0", ("1_0", "0->1", "0->2"))),
]


def test_bad_sieves_are_refused_at_every_entry_point():
    cat = chain(3)
    for label, bad in BAD_SIEVES:
        rule = topology.make_rule(cat, {
            "0": [bad], "1": [sieves.maximal_sieve(cat, "1")],
            "2": [sieves.maximal_sieve(cat, "2")]})
        with pytest.raises((WrongDomain, InvalidSieve)):
            topology.check_axioms(cat, rule)
        with pytest.raises((WrongDomain, InvalidSieve)):
            topology.require_stable(cat, rule)
        with pytest.raises((WrongDomain, InvalidSieve)):
            topology.minimal_covering_sieve(cat, rule, "0")
        with pytest.raises((WrongDomain, InvalidSieve)):
            sieves.pullback_sieve(cat, bad, "0->1")
        with pytest.raises((WrongDomain, InvalidSieve)):
            sieves.is_maximal(cat, bad)
        with pytest.raises((WrongDomain, InvalidSieve)):
            sieves.minimal_generators(cat, bad)
    # as long as the maximal sieve, with a member repeated
    with pytest.raises(InvalidSieve):
        sieves.is_maximal(cat, Sieve("0", ("0->1", "0->1", "1_0")))
    with pytest.raises(WrongDomain):
        sieves.pullback_sieve(cat, sieves.maximal_sieve(cat, "0"), "1->2")
    with pytest.raises(WrongDomain):
        sieves.pullback_sieve(cat, sieves.maximal_sieve(cat, "0"), "nope")


def test_unclosed_and_misfiled_covers_are_refused_by_the_axiom_scan():
    cat = chain(3)
    unclosed = Sieve("0", ("0->1",))
    rule = topology.make_rule(cat, {"0": [unclosed]})
    with pytest.raises(InvalidSieve):
        topology.check_axioms(cat, rule)
    # filed under "1" though based on "0"; make_rule refuses it, so build
    # the record directly
    misfiled = topology.GrothendieckTopology(cat, {
        "0": frozenset(), "1": frozenset({sieves.maximal_sieve(cat, "0")}),
        "2": frozenset()})
    with pytest.raises(WrongDomain):
        topology.check_axioms(cat, misfiled)
    with pytest.raises(WrongDomain):
        topology.require_stable(cat, misfiled)


# ---------------------------------------------------------------------------
# one mask index per category; the search builds its sieve tables once

def test_one_index_build_per_category(monkeypatch):
    builds = []
    init = sieves._Index.__init__

    def counted(index, cat, *args):
        builds.append(cat)
        init(index, cat, *args)

    monkeypatch.setattr(sieves._Index, "__init__", counted)
    cat = chain(3)
    shown = repr(cat)
    found = topology.enumerate_topologies(cat)
    j = found[len(found) // 2]
    topology.check_axioms(cat, j)
    topology.require_stable(cat, j)
    topology.saturate_rule(cat, topology.make_rule(
        cat, {"0": [sieves.make_sieve(cat, "0", ["0->2"])]}))
    for x in cat.objects:
        for s in sieves.all_sieves(cat, x):
            sieves.make_sieve(cat, x, s.members)
            for f in cat.morphisms_from(x):
                sieves.pullback_sieve(cat, s, f)
    torsion.inclusion_closure(cat, j)
    topology.enumerate_consistent_families(cat)
    torsion.torsion_class(cat, j, constant_module(cat, linalg.GF(2)))
    assert len(builds) == 1 and builds[0] is cat
    # the index is kept on the instance, outside the record's fields
    assert repr(cat) == shown
    copy = pickle.loads(pickle.dumps(cat))
    assert copy == cat and "_mask_index" not in vars(copy)


def test_enumeration_builds_its_sieve_tables_once(monkeypatch):
    # the search, its certificates, and every later reader of the sieves
    # share the tables the mask index keeps: one universe scan per
    # (category, object), and one pullback table per morphism
    cat = chain(6)
    scans, tables = [], {}
    scan, universe = sieves._Index.scan, sieves._Index.universe

    def scanned(index, x, *args):
        scans.append((index, x))
        return scan(index, x, *args)

    def read(index, x, *args):
        out = universe(index, x, *args)
        # the tables themselves are held, so no two share an id
        for f, table in zip(index.out_of[x], out[2]):
            tables.setdefault((index, f), []).append(table)
        return out

    monkeypatch.setattr(sieves._Index, "scan", scanned)
    monkeypatch.setattr(sieves._Index, "universe", read)
    rules_found = topology.enumerate_topologies(cat)
    assert len(rules_found) == 64
    for j in rules_found:
        assert topology.check_axioms(cat, j).is_topology
    topology.saturate_rule(cat, topology.make_rule(
        cat, {"0": [sieves.make_sieve(cat, "0", ["0->5"])]}))
    for x in cat.objects:
        sieves.all_sieves(cat, x)
    torsion.inclusion_closure(cat, rules_found[10])
    topology.enumerate_consistent_families(cat)
    index = sieves._mask_index(cat)
    assert all(i is index for i, _ in scans + list(tables))
    assert sorted(x for _, x in scans) == sorted(cat.objects)
    assert sorted(f for _, f in tables) == sorted(cat.morphisms)
    for kept in tables.values():
        assert len(kept) > 1 and all(t is kept[0] for t in kept)


def test_kept_sieves_answer_to_the_budget_of_each_call(monkeypatch):
    cat = chain(4)
    index = sieves._mask_index(cat)
    kept = sieves.all_sieves(cat, "1")
    monkeypatch.setattr(sieves, "DEFAULT_MAX_SIEVES", len(kept) - 1)
    # a refused scan keeps nothing; a kept list past the budget is refused
    with pytest.raises(SizeBudgetExceeded, match="sieves on 0"):
        sieves.all_sieves(cat, "0")
    assert "0" not in index.universes
    with pytest.raises(SizeBudgetExceeded, match="sieves on 1"):
        sieves.all_sieves(cat, "1")
    with pytest.raises(SizeBudgetExceeded):
        topology.check_axioms(cat, topology.named_topology(cat, "trivial"))
    monkeypatch.undo()
    assert sieves.all_sieves(cat, "1") == kept
    assert len(sieves.all_sieves(cat, "0")) == len(kept) + 1


def test_stability_scan_builds_no_sieve_universe(monkeypatch):
    # require_stable runs once per sheafify and torsion call; it pulls back
    # the covers alone, and listing every sieve would cost more than that
    def refuse(*args):
        raise AssertionError("the stability scan listed a sieve universe")

    monkeypatch.setattr(sieves._Index, "scan", refuse)
    for cat in MASK_CATS:
        for j in ENUMERATED[cat.name]:
            topology.require_stable(cat, j)


def test_pullback_builds_no_sieve_universe(monkeypatch):
    # pullback_sieve lists f*(S) from pre[f] alone: a universe scan would
    # list every sieve on cod f and answer to DEFAULT_MAX_SIEVES
    def refuse(*args):
        raise AssertionError("pullback_sieve listed a sieve universe")

    monkeypatch.setattr(sieves._Index, "scan", refuse)
    cat = chain(6)
    pulled = 0
    for x in cat.objects:
        for found in old_all_sieves(cat, x):
            s = sieves.make_sieve(cat, x, found.members)
            for f in cat.morphisms_from(x):
                assert (sieves.pullback_sieve(cat, s, f)
                        == old_pullback_sieve(cat, s, f)), (s, f)
                pulled += 1
    assert pulled == 112 and not sieves._mask_index(cat).universes
