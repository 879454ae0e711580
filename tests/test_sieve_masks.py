"""The mask index against the tuple sieves it replaced.

all_sieves, pullback_sieve, check_axioms and the stability scan behind
require_stable once worked on tuple Sieves: they pulled back member sets
through compose and sorted the results. Those implementations are kept here
verbatim as oracles, and the mask-backed functions must agree with them,
witnesses and their order included, on every enumerated rule and on random
rules, stable or not. A sieve with a member out of place must be refused
with WrongDomain or InvalidSieve, and the topology search builds its sieve
tables once per call.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsite import fincat, sieves, topology
from finsite.errors import (
    InvalidSieve,
    SizeBudgetExceeded,
    StabilityFails,
    UnknownObject,
    WrongDomain,
)
from finsite.sieves import Sieve, sieve_sort_key

from conftest import chain, diamond, idem_monoid, quiver2


# ---------------------------------------------------------------------------
# the tuple implementations, kept as oracles

def old_all_sieves(cat, x, max_sieves=sieves.DEFAULT_MAX_SIEVES):
    if x not in cat.identity:
        raise UnknownObject(x)
    found = {Sieve(x, ()): None}
    for f in cat.morphisms_from(x):
        p = sieves.generated_sieve(cat, x, [f])
        for s in list(found):
            u = sieves.union_sieves(s, p)
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
            if sieves.intersect_sieves(s, t) not in jx)
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
        if label != "unsorted members":  # a member set needs no order
            with pytest.raises((WrongDomain, InvalidSieve)):
                sieves.pullback_sieve(cat, bad, "0->1")
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
# the search builds its sieve tables once

def test_enumeration_builds_its_sieve_tables_once(monkeypatch):
    cat = chain(6)
    calls = []
    masks = sieves._Index.masks

    def counted(index, x, *args):
        calls.append(x)
        return masks(index, x, *args)

    monkeypatch.setattr(sieves._Index, "masks", counted)
    rules_found = topology.enumerate_topologies(cat)
    assert len(rules_found) == 64
    # one universe per object for the search and all 64 certificates
    assert sorted(calls) == sorted(cat.objects)


def test_stability_scan_builds_no_sieve_universe(monkeypatch):
    # require_stable runs once per sheafify and torsion call; it pulls back
    # the covers alone, and listing every sieve would cost more than that
    def refuse(*args):
        raise AssertionError("the stability scan listed a sieve universe")

    monkeypatch.setattr(sieves._Index, "masks", refuse)
    for cat in MASK_CATS:
        for j in ENUMERATED[cat.name]:
            topology.require_stable(cat, j)
