from __future__ import annotations

import copy
import itertools
import pickle
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsite import fincat, sieves, topology
from finsite.errors import (
    FinsiteError,
    NotDirectedEI,
    OreConditionFails,
    SizeBudgetExceeded,
    UnknownObject,
)

from conftest import chain, diamond, ei_fixture_categories, idem_monoid, quiver2


def sv(cat, x, members):
    return sieves.make_sieve(cat, x, members)


def cover_shape(j):
    # covers_at is already sorted smallest-first
    return {x: [s.members for s in j.covers_at(x)] for x in j.cat.objects}


def test_named_trivial_and_maximal(cat_quiver2):
    t = topology.named_topology(cat_quiver2, "trivial")
    assert cover_shape(t) == {"x": [("1_x", "f", "g")], "y": [("1_y",)]}
    m = topology.named_topology(cat_quiver2, "maximal")
    assert len(m.covers_at("x")) == 5 and len(m.covers_at("y")) == 2


def test_named_dense_quiver(cat_quiver2):
    d = topology.named_topology(cat_quiver2, "dense")
    assert cover_shape(d) == {"x": [("f", "g"), ("1_x", "f", "g")],
                              "y": [("1_y",)]}


def test_named_atomic_requires_ore(cat_quiver2, cat_idem_monoid):
    with pytest.raises(OreConditionFails):
        topology.named_topology(cat_quiver2, "atomic")
    a = topology.named_topology(cat_idem_monoid, "atomic")
    d = topology.named_topology(cat_idem_monoid, "dense")
    assert a == d


def test_check_axioms_on_named():
    for cat in ei_fixture_categories():
        for kind in ["trivial", "maximal", "dense"]:
            j = topology.named_topology(cat, kind)
            report = topology.check_axioms(cat, j)
            assert report.is_topology, (cat.name, kind, report.witnesses)
            assert report.inclusion_closed and report.intersection_closed


def test_check_axioms_nontopology_witness(cat_quiver2):
    c = cat_quiver2
    rule = topology.make_rule(c, {
        "x": [sieves.make_sieve(c, "x", ()), sieves.maximal_sieve(c, "x")],
        "y": [sieves.make_sieve(c, "y", ()), sieves.maximal_sieve(c, "y")],
    })
    report = topology.check_axioms(c, rule)
    assert report.maximal_ok and report.stability_ok
    assert not report.transitivity_ok
    # the empty cover makes the transitivity antecedent vacuous
    assert ("x", (), ("f", "g")) in report.witnesses["transitivity"]


def test_enumerate_quiver_census(cat_quiver2):
    c = cat_quiver2
    tops = topology.enumerate_topologies(c)
    assert len(tops) == 4
    shapes = [cover_shape(j) for j in tops]
    expected = [
        {"x": [("1_x", "f", "g")], "y": [("1_y",)]},                      # trivial
        {"x": [("f", "g"), ("1_x", "f", "g")], "y": [("1_y",)]},          # dense
        {"x": [("1_x", "f", "g")], "y": [(), ("1_y",)]},                  # empty covers y
        {"x": [(), ("f",), ("g",), ("f", "g"), ("1_x", "f", "g")],
         "y": [(), ("1_y",)]},                                            # maximal
    ]
    for e in expected:
        assert e in shapes
    assert len(shapes) == len(expected)
    # canonical order: total cover count, then serialization
    counts = [j.total_cover_count() for j in tops]
    assert counts == sorted(counts)


def test_enumerate_chain2(cat_chain2):
    tops = topology.enumerate_topologies(cat_chain2)
    assert len(tops) == 4
    mins = sorted(tuple(sorted(topology.minimal_covering_sieve(cat_chain2, j, x).members
                               for x in cat_chain2.objects))
                  for j in tops)
    assert mins == sorted([
        tuple(sorted([("0->1", "1_0"), ("1_1",)])),
        tuple(sorted([("0->1", "1_0"), ()])),
        tuple(sorted([("0->1",), ("1_1",)])),
        tuple(sorted([(), ()])),
    ])


def brute_force_topologies(cat):
    """Oracle: certify the up-set rule of every element of the product of
    per-object sieve lists with check_axioms, in the enumeration's order."""
    universe = {x: sieves.all_sieves(cat, x) for x in cat.objects}
    found = []
    for choice in itertools.product(*(universe[x] for x in cat.objects)):
        rule = topology.make_rule(cat, {
            x: [t for t in universe[x] if s.member_set <= t.member_set]
            for x, s in zip(cat.objects, choice)})
        if topology.check_axioms(cat, rule).is_topology:
            found.append(rule)
    found.sort(key=topology.topology_sort_key)
    return found


def assert_search_matches_oracle(cat):
    search = topology.enumerate_topologies(cat)
    oracle = brute_force_topologies(cat)
    assert ([topology.canonical_serialization(j) for j in search]
            == [topology.canonical_serialization(j) for j in oracle])


@st.composite
def posets(draw):
    n = draw(st.integers(1, 5))
    # objects in a drawn order; relations follow a drawn linear extension
    objs = draw(st.permutations([f"p{i}" for i in range(n)]))
    ext = draw(st.permutations(objs))
    pairs = [(a, b) for a, b in itertools.combinations(ext, 2)
             if draw(st.booleans())]
    return fincat.build_poset_category(objs, pairs)


@st.composite
def acyclic_quivers(draw):
    n = draw(st.integers(1, 3))
    verts = [f"v{i}" for i in range(n)]
    edges = list(itertools.combinations(verts, 2))
    if not edges:
        return fincat.build_quiver_category(verts, [])
    ends = draw(st.lists(st.sampled_from(edges), max_size=4))
    return fincat.build_quiver_category(
        verts, [(f"a{k}", s, t) for k, (s, t) in enumerate(ends)])


def transformation_monoid(n: int) -> fincat.FiniteCategory:
    """Every map {0..n-1} -> {0..n-1} under composition, identity first."""
    ident = tuple(range(n))
    maps = [ident] + [m for m in itertools.product(range(n), repeat=n)
                      if m != ident]
    idx = {m: i for i, m in enumerate(maps)}
    table = [[idx[tuple(g[f[k]] for k in range(n))] for f in maps]
             for g in maps]
    return fincat.build_monoid_category(table, name=f"T{n}")


@settings(max_examples=30, deadline=None)
@given(posets())
def test_search_matches_product_on_posets(cat):
    assert_search_matches_oracle(cat)


@settings(max_examples=30, deadline=None)
@given(acyclic_quivers())
def test_search_matches_product_on_quivers(cat):
    assert_search_matches_oracle(cat)


def test_search_matches_product_on_monoids():
    for name, table in [("C2", fincat.cyclic_group_table(2)),
                        ("C3", fincat.cyclic_group_table(3)),
                        ("S3", fincat.symmetric_group_table(3))]:
        assert_search_matches_oracle(
            fincat.build_monoid_category(table, name=name))
    assert_search_matches_oracle(idem_monoid())
    t3 = transformation_monoid(3)
    assert len(sieves.all_sieves(t3, "*")) == 10
    assert len(topology.enumerate_topologies(t3)) == 4
    assert_search_matches_oracle(t3)


def test_search_matches_product_on_fixtures():
    # trunc_fi2, orbit(C3) and orbit(S3) have a morphism into an object
    # assigned later, so some conditions wait for that object
    cats = ei_fixture_categories()
    cats.append(fincat.build_orbit_category(
        fincat.symmetric_group_table(3))[0])
    for cat in cats:
        assert_search_matches_oracle(cat)


@pytest.mark.parametrize("n", range(3, 9))
def test_chain_carries_two_to_the_n_topologies(n):
    assert len(topology.enumerate_topologies(chain(n))) == 2 ** n


def test_small_enumeration_budget_is_refused(monkeypatch):
    monkeypatch.setattr(topology, "DEFAULT_ENUM_BUDGET", 5)
    with pytest.raises(SizeBudgetExceeded):
        topology.enumerate_topologies(chain(4))


def test_rejected_leaf_is_an_error_not_a_drop(cat_quiver2, monkeypatch):
    rejected = topology.AxiomReport(True, False, True, True, True)
    # the search certifies through check_axioms
    monkeypatch.setattr(topology, "check_axioms", lambda *a, **k: rejected)
    with pytest.raises(FinsiteError):
        topology.enumerate_topologies(cat_quiver2)


def test_consistent_families_match_enumeration():
    for cat in ei_fixture_categories():
        brute = topology.enumerate_topologies(cat)
        fams = topology.enumerate_consistent_families(cat)
        assert len(fams) == 2 ** len(cat.objects)
        assert [cover_shape(j) for j in fams] == [cover_shape(j) for j in brute]


def search_consistent_families(cat):
    """Oracle: the consistent minimum-sieve family search. From the top of
    the order down, the minimum sieve at x is the maximal sieve or the
    morphisms that factor through the minimum sieve of a strictly higher
    object."""
    universe = {x: sieves.all_sieves(cat, x) for x in cat.objects}
    above = {x: [y for y in cat.objects if y != x and cat.hom(x, y)]
             for x in cat.objects}
    families = [{}]
    for x in sorted(cat.objects, key=lambda x: (len(above[x]), x)):
        extended = []
        for fam in families:
            induced = sieves.Sieve(x, tuple(sorted(
                {cat.compose(g, f) for y in above[x] for f in cat.hom(x, y)
                 for g in fam[y].members})))
            top = sieves.maximal_sieve(cat, x)
            for choice in dict.fromkeys([top, induced]):
                extended.append({**fam, x: choice})
        families = extended
    out = [topology.make_rule(cat, {
        x: [t for t in universe[x] if fam[x].member_set <= t.member_set]
        for x in cat.objects}) for fam in families]
    out.sort(key=topology.topology_sort_key)
    return out


def directed_ei_fixture_categories():
    return ei_fixture_categories() + [
        chain(4), chain(5), chain(6),
        fincat.build_orbit_category(fincat.cyclic_group_table(2))[0],
        fincat.build_orbit_category(fincat.symmetric_group_table(3))[0],
        fincat.build_trunc_fi_category(3),
        fincat.build_trunc_vi_category(2, 2),
        fincat.build_trunc_vi_category(3, 2),
    ]


def test_consistent_families_match_family_search():
    for cat in directed_ei_fixture_categories():
        assert ([topology.canonical_serialization(j)
                 for j in topology.enumerate_consistent_families(cat)]
                == [topology.canonical_serialization(j)
                    for j in search_consistent_families(cat)]), cat.name


def test_subcategory_sieve_examples(cat_quiver2, cat_chain3):
    assert topology.subcategory_sieve(cat_quiver2, ["y"], "x").members == (
        "f", "g")
    assert topology.subcategory_sieve(cat_quiver2, ["x"], "x").members == (
        "1_x", "f", "g")
    assert topology.subcategory_sieve(cat_quiver2, [], "y").members == ()
    assert topology.subcategory_sieve(cat_chain3, {"1"}, "0").members == (
        "0->1", "0->2")


def test_subcategory_sieve_rejects_unknown_object(cat_quiver2):
    with pytest.raises(UnknownObject):
        topology.subcategory_sieve(cat_quiver2, ["y", "zz"], "x")
    with pytest.raises(UnknownObject):
        topology.subcategory_sieve(cat_quiver2, ["y"], "zz")


def iso_class_count(cat):
    """Number of isomorphism classes, found by brute force."""
    def iso(x, y):
        return any(cat.compose(g, f) == cat.identity[x]
                   and cat.compose(f, g) == cat.identity[y]
                   for f in cat.hom(x, y) for g in cat.hom(y, x))
    reps = []
    for x in cat.objects:
        if not any(iso(r, x) for r in reps):
            reps.append(x)
    return len(reps)


def indiscrete2():
    """Two isomorphic objects with one morphism between any two: EI, not
    skeletal, one isomorphism class."""
    objs = ["a", "b"]
    mors = [(f"{x}{y}", x, y) for x in objs for y in objs]
    compose = {(f"{y}{z}", f"{x}{y}"): f"{x}{z}"
               for x in objs for y in objs for z in objs}
    return fincat.make_category("indiscrete2", objs, mors,
                                {"a": "aa", "b": "bb"}, compose)


def test_ei_topology_count_is_two_to_the_iso_classes():
    cats = ei_fixture_categories() + [
        fincat.build_monoid_category(fincat.cyclic_group_table(2), name="C2"),
        fincat.build_monoid_category(fincat.cyclic_group_table(3), name="C3"),
        fincat.build_monoid_category(fincat.symmetric_group_table(3),
                                     name="S3"),
        fincat.build_orbit_category(fincat.symmetric_group_table(3),
                                    name="orbit_S3")[0],
        fincat.build_trunc_fi_category(3),
        fincat.build_trunc_vi_category(2, 2),
        indiscrete2(),
    ]
    counts = {}
    for cat in cats:
        assert fincat.classify_category(cat).ei, cat.name
        counts[cat.name] = len(topology.enumerate_topologies(cat))
        assert counts[cat.name] == 2 ** iso_class_count(cat), cat.name
    assert counts["C2"] == counts["indiscrete2"] == 2
    assert counts["orbit_S3"] == 16


def minimal_ideal(table, names):
    """The smallest nonempty two-sided ideal of a finite monoid."""
    n = len(table)
    ideals = [set(sub) for r in range(1, n + 1)
              for sub in itertools.combinations(range(n), r)
              if all(table[a][i] in sub and table[i][a] in sub
                     for i in sub for a in range(n))]
    smallest = min(ideals, key=len)
    assert all(smallest <= i for i in ideals)
    return tuple(sorted(names[i] for i in smallest))


NON_GROUP_MONOIDS = [
    # e.e = e
    ("idem_monoid", [[0, 1], [1, 1]], ["1", "e"]),
    # a.a = z, z absorbing
    ("zero_monoid", [[0, 1, 2], [1, 2, 2], [2, 2, 2]], ["1", "a", "z"]),
    # u.v = u for u, v in {l, r}, identity adjoined
    ("left_zero", [[0, 1, 2], [1, 1, 1], [2, 2, 2]], ["1", "l", "r"]),
]


@pytest.mark.parametrize("name, table, names", NON_GROUP_MONOIDS)
def test_non_group_monoid_has_a_topology_that_is_no_subcategory_topology(
        name, table, names):
    cat = fincat.build_monoid_category(table, element_names=names, name=name)
    assert not fincat.classify_category(cat).ei
    j_d = [topology.make_rule(cat, {"*": [
               t for t in sieves.all_sieves(cat, "*")
               if topology.subcategory_sieve(cat, d, "*").member_set
               <= t.member_set]})
           for d in ([], ["*"])]
    others = [j for j in topology.enumerate_topologies(cat)
              if not any(j == k for k in j_d)]
    witness = [topology.minimal_covering_sieve(cat, j, "*").members
               for j in others]
    assert witness == [minimal_ideal(table, names)], witness
    assert others[0] == topology.named_topology(cat, "dense")


def test_consistent_families_requires_directed_ei(cat_idem_monoid):
    with pytest.raises(NotDirectedEI):
        topology.enumerate_consistent_families(cat_idem_monoid)


def test_group_has_exactly_two_topologies():
    for name, table in [("C2", fincat.cyclic_group_table(2)),
                        ("C3", fincat.cyclic_group_table(3)),
                        ("S3", fincat.symmetric_group_table(3))]:
        cat = fincat.build_monoid_category(table, name=name)
        assert len(topology.enumerate_topologies(cat)) == 2


def test_idem_monoid_has_dense_with_proper_ideal(cat_idem_monoid):
    tops = topology.enumerate_topologies(cat_idem_monoid)
    assert len(tops) == 3
    d = topology.named_topology(cat_idem_monoid, "dense")
    assert any(j == d for j in tops)
    assert sv(cat_idem_monoid, "*", ["e"]) in d.covers["*"]


def test_irreducibles_and_rigidity(cat_quiver2):
    c = cat_quiver2
    tops = topology.enumerate_topologies(c)
    by_shape = {tuple(sorted((x, tuple(map(tuple, v)))
                             for x, v in cover_shape(j).items())): j for j in tops}
    trivial = topology.named_topology(c, "trivial")
    dense = topology.named_topology(c, "dense")
    assert topology.irreducible_objects(c, trivial) == ["x", "y"]
    assert topology.irreducible_objects(c, dense) == ["y"]
    maximal = topology.named_topology(c, "maximal")
    assert topology.irreducible_objects(c, maximal) == []
    for j in tops:
        rep = topology.rigidity(c, j)
        assert rep.rigid, rep.failures
        assert rep.minimal_covers is not None


def test_rigidity_minimal_covers_dense(cat_quiver2):
    d = topology.named_topology(cat_quiver2, "dense")
    rep = topology.rigidity(cat_quiver2, d)
    assert rep.minimal_covers["x"].members == ("f", "g")
    assert rep.minimal_covers["y"].members == ("1_y",)
    # the sieve generated by the morphisms into irreducible objects
    assert topology.subcategory_sieve(
        cat_quiver2, rep.irreducibles, "x").members == ("f", "g")


# the paper's restriction of a topology to an ideal, the step toward FI's
# and VI's full subcategories; no gate or command needs it, so it lives here

class NotAnIdeal(FinsiteError):
    """The object set is not closed under morphisms out of it."""


def restrict_to_ideal(cat, j, ideal_objs):
    """Restrict a topology to an ideal (an upward closed object set: every
    morphism out of the ideal stays in it). Covers restrict memberwise; for
    an ideal the member sets are unchanged because every morphism out of an
    ideal object already lands in the ideal."""
    ideal = list(dict.fromkeys(ideal_objs))
    ideal_set = set(ideal)
    for x in ideal:
        if x not in cat.identity:
            raise UnknownObject(x)
        for f in cat.morphisms_from(x):
            if cat.cod[f] not in ideal_set:
                raise NotAnIdeal(f"{x} maps to {cat.cod[f]} outside the ideal")
    sub = fincat.full_subcategory(cat, ideal)
    sub_mors = set(sub.morphisms)
    covers = {}
    for x in ideal:
        covers[x] = [sieves.Sieve(x, tuple(m for m in s.members
                                           if m in sub_mors))
                     for s in j.covers_at(x)]
    return sub, topology.make_rule(sub, covers)


def test_restrict_to_ideal(cat_quiver2, cat_chain2):
    d = topology.named_topology(cat_quiver2, "dense")
    sub, jd = restrict_to_ideal(cat_quiver2, d, ["y"])
    assert sub.objects == ("y",)
    assert cover_shape(jd) == {"y": [("1_y",)]}
    assert topology.check_axioms(sub, jd).is_topology

    tops = topology.enumerate_topologies(cat_chain2)
    tiv = next(j for j in tops
               if cover_shape(j) == {"0": [("0->1", "1_0")], "1": [(), ("1_1",)]})
    sub2, j2 = restrict_to_ideal(cat_chain2, tiv, ["1"])
    assert cover_shape(j2) == {"1": [(), ("1_1",)]}
    assert topology.check_axioms(sub2, j2).is_topology

    with pytest.raises(NotAnIdeal):
        restrict_to_ideal(cat_chain2, tiv, ["0"])


def test_restriction_of_every_topology_is_topology(cat_chain3):
    for j in topology.enumerate_topologies(cat_chain3):
        for ideal in (["2"], ["1", "2"]):
            sub, jr = restrict_to_ideal(cat_chain3, j, ideal)
            assert topology.check_axioms(sub, jr).is_topology


def test_saturate_rule_is_smallest(cat_quiver2):
    c = cat_quiver2
    rule = topology.make_rule(c, {"x": [sv(c, "x", ["f", "g"])], "y": []})
    sat = topology.saturate_rule(c, rule)
    assert topology.check_axioms(c, sat).is_topology
    assert sat == topology.named_topology(c, "dense")
    # already-saturated rules are fixed points
    for j in topology.enumerate_topologies(c):
        assert topology.saturate_rule(c, j) == j


def saturate_rule_by_closure(cat, j):
    """Oracle: close the rule under the maximal-sieve axiom, stability and
    transitivity, with its own pullback loops, to a fixpoint."""
    universe = {x: sieves.all_sieves(cat, x) for x in cat.objects}
    covers = {x: set(j.covers.get(x, frozenset())) for x in cat.objects}
    for x in cat.objects:
        covers[x].add(sieves.maximal_sieve(cat, x))
    changed = True
    while changed:
        changed = False
        for x in cat.objects:
            for s in list(covers[x]):
                for f in cat.morphisms_from(x):
                    pb = sieves.pullback_sieve(cat, s, f)
                    if pb not in covers[cat.cod[f]]:
                        covers[cat.cod[f]].add(pb)
                        changed = True
            for t in universe[x]:
                if t in covers[x]:
                    continue
                if any(all(sieves.pullback_sieve(cat, t, f) in covers[cat.cod[f]]
                           for f in s.members)
                       for s in covers[x]):
                    covers[x].add(t)
                    changed = True
    return topology.make_rule(cat, covers)


SATURATION_CATS = [quiver2(), chain(3), diamond(), idem_monoid(),
                   fincat.build_trunc_fi_category(2),
                   fincat.build_orbit_category(
                       fincat.symmetric_group_table(3), name="orbit_S3")[0]]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_saturate_rule_matches_closure_oracle(data):
    cat = data.draw(st.sampled_from(SATURATION_CATS))
    rule = topology.make_rule(cat, {
        x: data.draw(st.sets(st.sampled_from(sieves.all_sieves(cat, x))))
        for x in cat.objects})
    sat = topology.saturate_rule(cat, rule)
    assert sat == saturate_rule_by_closure(cat, rule)
    assert topology.check_axioms(cat, sat).is_topology


def test_sipp_on_orbit_s3():
    cat, data = fincat.build_orbit_category(fincat.symmetric_group_table(3),
                                            name="orbit_S3")
    order_of = data.order_of
    for p, orders in [(2, {1, 2}), (3, {1, 3})]:
        j = topology.sipp_topology(cat, data, p)
        assert topology.check_axioms(cat, j).is_topology
        irr = topology.irreducible_objects(cat, j)
        assert {order_of[x] for x in irr} == orders


def test_topology_doc_roundtrip(cat_quiver2):
    d = topology.named_topology(cat_quiver2, "dense")
    doc = topology.topology_to_doc(d)
    back = topology.topology_from_doc(cat_quiver2, doc)
    assert back == d


# ---------------------------------------------------------------------------
# the facts a rule keeps: its first stability witness and its least covers

KEPT_FIXTURES = ei_fixture_categories()
# equal to KEPT_FIXTURES, index by index, and other objects
KEPT_TWINS = ei_fixture_categories()


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except FinsiteError as err:
        return (type(err), str(err))


def least_covers_oracle(j, x):
    covers = j.covers_at(x)
    return [s for s in covers
            if not any(t.member_set < s.member_set for t in covers)]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_kept_facts_match_a_fresh_scan(data):
    index = data.draw(st.integers(0, len(KEPT_FIXTURES) - 1))
    cat, twin = KEPT_FIXTURES[index], KEPT_TWINS[index]
    assert cat == twin and cat is not twin
    covers = {x: data.draw(st.lists(st.sampled_from(sieves.all_sieves(cat, x)),
                                    unique=True, max_size=4))
              for x in cat.objects}
    if data.draw(st.booleans()):
        # a member tuple filed as a sieve unchecked: the scan may raise
        # InvalidSieve or WrongDomain
        x = data.draw(st.sampled_from(cat.objects))
        members = data.draw(st.sets(st.sampled_from(cat.morphisms),
                                    min_size=1, max_size=3))
        covers[x].append(sieves.Sieve(x, tuple(sorted(members))))
    scans = []
    scan = topology._stability_scan

    def counted(on, rule):
        scans.append("own" if on is cat else "twin")
        return scan(on, rule)

    j = topology.make_rule(cat, covers)
    with mock.patch.object(topology, "_stability_scan", counted):
        fresh = outcome(topology.check_stability_only, cat,
                        topology.make_rule(cat, covers))
        # a category equal to j.cat, but another object, keeps nothing
        assert outcome(topology.check_stability_only, twin, j) == fresh
        assert scans == ["own", "twin"]
        for _ in range(2):
            assert outcome(topology.check_stability_only, cat, j) == fresh
            assert outcome(topology.check_stability_only, twin, j) == fresh
        raised = fresh[0] != "ok"
        # a scan that raises keeps nothing, so it raises again
        assert scans == ["own", "twin"] * 2 + ["own"] * raised + ["twin"]
        if not raised:
            stable = outcome(topology.require_stable, cat, j)
            assert (stable == ("ok", None)) == (fresh[1] is None)
            assert len(scans) == 5
    for x in cat.objects:
        least = least_covers_oracle(j, x)
        assert j.least_covers(x) == least
        assert j.least_covers(x) == least
        assert topology.make_rule(cat, covers).least_covers(x) == least


def test_covers_are_read_only_and_survive_copies():
    # kept facts cannot go stale: covers refuse every write, a mapping
    # handed to make_rule is copied, and copies and pickles rebuild a rule
    # that is equal, read-only too, and keeps the same facts as a fresh one
    cat = quiver2()
    unstable = topology.make_rule(cat, {"x": [sieves.make_sieve(cat, "x", ["f"])],
                                        "y": [sieves.maximal_sieve(cat, "y")]})
    sieve = sieves.maximal_sieve(cat, "x")
    writes = (lambda c: c.__setitem__("x", frozenset()),
              lambda c: c.__delitem__("x"), lambda c: c.clear(),
              lambda c: c.pop("x"), lambda c: c.popitem(),
              lambda c: c.setdefault("z", frozenset()),
              lambda c: c.update(x=frozenset()),
              lambda c: c.__ior__({"x": frozenset()}))
    for j in [*topology.enumerate_topologies(cat), unstable]:
        given_covers = {x: set(j.covers[x]) for x in cat.objects}
        rule = topology.make_rule(cat, given_covers)
        witness = topology.check_stability_only(cat, rule)
        least = {x: rule.least_covers(x) for x in cat.objects}
        given_covers["x"].add(sieve)
        given_covers["y"] = set()
        before = dict(rule.covers)
        for write in writes:
            with pytest.raises(TypeError):
                write(rule.covers)
        assert rule.covers == before == j.covers
        for twin in (copy.copy(rule), copy.deepcopy(rule),
                     pickle.loads(pickle.dumps(rule))):
            assert twin == rule and twin is not rule
            with pytest.raises(TypeError):
                twin.covers["x"] = frozenset()
            fresh = topology.make_rule(twin.cat, dict(twin.covers))
            for on in (rule, twin, fresh):
                assert topology.check_stability_only(on.cat, on) == witness
                assert {x: on.least_covers(x) for x in cat.objects} == least
    assert topology.check_stability_only(cat, unstable) is not None
