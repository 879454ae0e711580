from __future__ import annotations

import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsite import fincat, linalg, modrep, sieves, topology, torsion
from finsite.errors import (
    FinsiteError,
    PreconditionFailed,
    ShapeMismatch,
    SizeBudgetExceeded,
    StabilityFails,
    UnknownObject,
)
from finsite.linalg import GF, QQ, Mat

from conftest import (
    chain,
    closed_spans,
    constant_module,
    ei_fixture_categories,
    idem_monoid,
    quiver2,
)

F2 = GF(2)


def dense_sheaf_module(cat, field):
    return modrep.make_module(
        cat, field, {"x": 2, "y": 1},
        {"1_x": linalg.identity(field, 2),
         "1_y": linalg.identity(field, 1),
         "f": Mat(1, 2, ((field.one(), field.zero()),)),
         "g": Mat(1, 2, ((field.zero(), field.one()),))})


def topology_iv(cat):
    """Covers: everything at x, the empty sieve (and all above it) at y."""
    return topology.make_rule(cat, {
        "x": [sieves.maximal_sieve(cat, "x")],
        "y": [sieves.make_sieve(cat, "y", ()), sieves.maximal_sieve(cat, "y")],
    })


def nontransitive_chain3_rule(cat):
    """Stable but not transitive: each stage demands only the next arrow."""
    s0 = sieves.generated_sieve(cat, "0", ["0->1"])
    s1 = sieves.generated_sieve(cat, "1", ["1->2"])
    return torsion.inclusion_closure(cat, {
        "0": [s0], "1": [s1], "2": [sieves.maximal_sieve(cat, "2")]})


# ---------------------------------------------------------------------------
# the torsion part

def test_torsion_dims_named_topologies(cat_quiver2):
    v = dense_sheaf_module(cat_quiver2, F2)
    trivial = topology.named_topology(cat_quiver2, "trivial")
    dense = topology.named_topology(cat_quiver2, "dense")
    maximal = topology.named_topology(cat_quiver2, "maximal")
    t_triv, _ = torsion.torsion_submodule(cat_quiver2, trivial, v)
    assert t_triv.is_zero()
    t_dense, _ = torsion.torsion_submodule(cat_quiver2, dense, v)
    assert t_dense.is_zero()  # the two projections have no common kernel
    t_max, _ = torsion.torsion_submodule(cat_quiver2, maximal, v)
    assert t_max.dims == v.dims  # the empty sieve covers, killing nothing


def test_torsion_class_spec_examples(cat_quiver2):
    iv = topology_iv(cat_quiver2)
    px = modrep.yoneda_module(cat_quiver2, F2, "x")
    py = modrep.yoneda_module(cat_quiver2, F2, "y")
    assert torsion.torsion_class(cat_quiver2, iv, py).classification == "torsion"
    rep = torsion.torsion_class(cat_quiver2, iv, px)
    assert rep.classification == "mixed"
    assert rep.dims == {"x": 0, "y": 2}
    assert "torsion_element" in rep.witnesses
    assert "obstruction" in rep.witnesses


def test_torsion_class_zero_module_flag(cat_quiver2):
    dense = topology.named_topology(cat_quiver2, "dense")
    z = modrep.zero_module(cat_quiver2, F2)
    rep = torsion.torsion_class(cat_quiver2, dense, z)
    assert rep.classification == "torsion"
    assert rep.zero_module
    assert rep.to_doc()["witnesses"]["zero_module"] is True


def test_torsion_requires_stability(cat_quiver2):
    # covering x by the sieve {f} alone is not stable along g
    rule = topology.make_rule(cat_quiver2, {
        "x": [sieves.make_sieve(cat_quiver2, "x", ["f"]),
              sieves.maximal_sieve(cat_quiver2, "x")],
        "y": [sieves.maximal_sieve(cat_quiver2, "y")],
    })
    v = dense_sheaf_module(cat_quiver2, F2)
    with pytest.raises(StabilityFails):
        torsion.torsion_submodule(cat_quiver2, rule, v)


def test_torsion_ignores_added_supersets(cat_quiver2):
    # enlarging a sieve shrinks its kernel, so closure adds nothing
    small = topology.make_rule(cat_quiver2, {
        "x": [sieves.make_sieve(cat_quiver2, "x", ["f", "g"])],
        "y": [sieves.maximal_sieve(cat_quiver2, "y")],
    })
    big = torsion.inclusion_closure(cat_quiver2, small)
    for seed in range(4):
        v = modrep.random_module(cat_quiver2, F2, seed=seed, max_dim=3)
        assert (torsion.torsion_spans(cat_quiver2, small, v)
                == torsion.torsion_spans(cat_quiver2, big, v))


def test_torsion_monotone_in_the_rule(cat_quiver2):
    tops = topology.enumerate_topologies(cat_quiver2)
    v = modrep.random_module(cat_quiver2, F2, seed=3, max_dim=3)
    for a in tops:
        for b in tops:
            if all(set(a.covers[x]) <= set(b.covers[x]) for x in a.covers):
                sa = torsion.torsion_spans(cat_quiver2, a, v)
                sb = torsion.torsion_spans(cat_quiver2, b, v)
                for x in cat_quiver2.objects:
                    inside = linalg.Echelon(F2, v.dims[x], sb[x])
                    assert all(inside.contains(vec) for vec in sa[x])


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=60))
def test_torsion_left_exact(seed):
    # the torsion part of a submodule is its slice of the ambient torsion
    cat = quiver2()
    dense = topology.named_topology(cat, "dense")
    v = modrep.random_module(cat, F2, seed=seed, max_dim=3)
    busy = [x for x in cat.objects if v.dims[x] > 0]
    if not busy:
        return
    x0 = busy[0]
    spans = {x0: [tuple(F2.of(i == 0) for i in range(v.dims[x0]))]}
    w, incl = modrep.submodule_from_spans(v, closed_spans(v, spans))
    tv = torsion.torsion_spans(cat, dense, v)
    tw = torsion.torsion_spans(cat, dense, w)
    for x in cat.objects:
        image = [incl.components[x].col(k) for k in range(w.dims[x])]
        torsion_x = linalg.Echelon(F2, v.dims[x], tv[x])
        image_x = linalg.Echelon(F2, v.dims[x], image)
        # dim (T + I) + dim (T meet I) = dim T + dim I
        meet = (torsion_x.rank + image_x.rank
                - linalg.Echelon(F2, v.dims[x], tv[x] + image).rank)
        pushed = [linalg.mat_vec(F2, incl.components[x], vec)
                  for vec in tw[x]]
        assert linalg.Echelon(F2, v.dims[x], pushed).rank == len(pushed) == meet
        for vec in pushed:
            assert torsion_x.contains(vec) and image_x.contains(vec)


# ---------------------------------------------------------------------------
# annihilators

def test_annihilator_of_zero_is_maximal(cat_quiver2):
    px = modrep.yoneda_module(cat_quiver2, F2, "x")
    s = torsion.annihilator_sieve(px, "x", (F2.zero(),))
    assert sieves.is_maximal(cat_quiver2, s)


def test_annihilator_of_identity_vector_is_empty(cat_quiver2):
    px = modrep.yoneda_module(cat_quiver2, F2, "x")
    s = torsion.annihilator_sieve(px, "x", (F2.one(),))
    assert s.members == ()


def test_annihilator_of_quotient_generator_recovers_sieve(cat_quiver2):
    for members in ([], ["f"], ["f", "g"], ["1_x", "f", "g"]):
        s = sieves.make_sieve(cat_quiver2, "x", members)
        pres = modrep.sieve_quotient_module(cat_quiver2, F2, s)
        if pres.quotient.dims["x"] == 0:
            continue
        # the quotient at x is free on the endomorphisms outside s; the
        # generator is the image of the identity's basis vector
        outside = [f for f in cat_quiver2.hom("x", "x") if f not in s]
        generator = tuple(F2.one() if f == "1_x" else F2.zero()
                          for f in outside)
        back = torsion.annihilator_sieve(pres.quotient, "x", generator)
        assert back == s


def test_annihilator_input_errors(cat_quiver2):
    px = modrep.yoneda_module(cat_quiver2, F2, "x")
    with pytest.raises(UnknownObject):
        torsion.annihilator_sieve(px, "z", ())
    with pytest.raises(ShapeMismatch):
        torsion.annihilator_sieve(px, "x", (F2.one(), F2.one()))


def test_realized_annihilators_representable(cat_quiver2):
    px = modrep.yoneda_module(cat_quiver2, F2, "x")
    got = torsion.realized_annihilators(cat_quiver2, [px], "x")
    assert got == {sieves.maximal_sieve(cat_quiver2, "x"),
                   sieves.make_sieve(cat_quiver2, "x", ())}


def test_realized_annihilators_guards(cat_quiver2, cat_chain2):
    pq = modrep.yoneda_module(cat_quiver2, QQ, "x")
    with pytest.raises(Exception):
        torsion.realized_annihilators(cat_quiver2, [pq], "x")
    px = modrep.yoneda_module(cat_chain2, F2, "0")
    with pytest.raises(PreconditionFailed):
        torsion.realized_annihilators(cat_quiver2, [px], "x")
    big = constant_module(cat_quiver2, GF(7))
    wide = modrep.direct_sum(cat_quiver2, GF(7), [big] * 8)
    with pytest.raises(SizeBudgetExceeded):
        torsion.realized_annihilators(cat_quiver2, [wide], "x")


def test_inclusion_closure_examples(cat_quiver2):
    c = cat_quiver2
    everything = torsion.inclusion_closure(c, {
        "x": [sieves.make_sieve(c, "x", ())],
        "y": [sieves.make_sieve(c, "y", ())]})
    assert len(everything.covers["x"]) == 5
    assert len(everything.covers["y"]) == 2
    dense = torsion.inclusion_closure(c, {
        "x": [sieves.make_sieve(c, "x", ["f", "g"])],
        "y": [sieves.maximal_sieve(c, "y")]})
    assert dense == topology.named_topology(c, "dense")


# ---------------------------------------------------------------------------
# the torsion pair

def test_torsion_pair_on_enumerated_topologies(cat_quiver2):
    for j in topology.enumerate_topologies(cat_quiver2):
        rep = torsion.verify_torsion_pair(cat_quiver2, j, sample_count=8,
                                          max_dim=2)
        assert rep.passed, rep.witnesses
        assert rep.sample_count >= 8


def test_torsion_pair_fails_without_transitivity(cat_chain3):
    rule = nontransitive_chain3_rule(cat_chain3)
    report = topology.check_axioms(cat_chain3, rule)
    assert report.stability_ok and not report.transitivity_ok
    # the certificate's witness is the quotient of the representable at 0
    # by the long arrow: its torsion part sits in the middle and leaves a
    # torsion quotient behind
    rep = torsion.verify_torsion_pair(cat_chain3, rule, sample_count=0)
    assert not rep.passed and not rep.quotients_torsion_free
    assert rep.closed_under_submodules
    assert rep.witnesses == {"quotient_torsion_free": (
        ("0", ("0->1", "0->2"), ("0->2",), {"0": 1, "1": 1, "2": 0},
         "0", ("1",)),)}
    s = sieves.make_sieve(cat_chain3, "0", ["0->2"])
    witness_module = modrep.sieve_quotient_module(cat_chain3, F2, s).quotient
    # the old probe finds the same failure on that module, after the five
    # generators of the rule
    old = old_verify_torsion_pair(cat_chain3, rule, F2, sample_count=0,
                                  extra_modules=(witness_module,))
    assert old.witnesses["quotient_torsion_free"] == (
        (5, {"0": 1, "1": 1, "2": 0}, "0", ("1",)),)


def test_torsion_pair_submodule_witness(cat_quiver2):
    # covers {f} and {g} at x but not their intersection, the empty sieve
    # (the empty sieve at y keeps the rule stable): P(x)/{} = P(x) sits
    # diagonally in P(x)/{f} + P(x)/{g} and is not torsion
    rule = topology.make_rule(cat_quiver2, {
        "x": [sieves.make_sieve(cat_quiver2, "x", ["f"]),
              sieves.make_sieve(cat_quiver2, "x", ["g"])],
        "y": [sieves.make_sieve(cat_quiver2, "y", ()),
              sieves.maximal_sieve(cat_quiver2, "y")]})
    rep = torsion.verify_torsion_pair(cat_quiver2, rule, sample_count=0)
    assert not rep.closed_under_submodules and not rep.quotients_torsion_free
    assert rep.hom_vanishes and rep.closed_under_quotients
    assert rep.witnesses["submodule"] == (
        ("x", ("f",), ("g",), {"x": 1, "y": 2}),)
    confirm_witnesses(cat_quiver2, rule, F2, rep)


def test_unconfirmed_witnesses_are_library_bugs(cat_chain3, cat_quiver2,
                                                monkeypatch):
    rule = nontransitive_chain3_rule(cat_chain3)
    with monkeypatch.context() as patch:
        patch.setattr(torsion, "_torsion_in_quotient", lambda *args: None)
        with pytest.raises(FinsiteError, match="torsion-free quotient"):
            torsion.verify_torsion_pair(cat_chain3, rule, sample_count=0)
    rule = topology.make_rule(cat_quiver2, {
        "x": [sieves.make_sieve(cat_quiver2, "x", ["f"]),
              sieves.make_sieve(cat_quiver2, "x", ["g"])],
        "y": [sieves.make_sieve(cat_quiver2, "y", ()),
              sieves.maximal_sieve(cat_quiver2, "y")]})
    monkeypatch.setattr(torsion, "is_torsion", lambda *args: True)
    with pytest.raises(FinsiteError, match="is no cover"):
        torsion.verify_torsion_pair(cat_quiver2, rule, sample_count=0)


def test_sampled_failures_fail_the_verdict(cat_quiver2, monkeypatch):
    dense = topology.named_topology(cat_quiver2, "dense")
    calls = []

    def broken(cat, j, v):
        calls.append(v)
        return ("x", ("1",))

    monkeypatch.setattr(torsion, "_torsion_in_quotient", broken)
    rep = torsion.verify_torsion_pair(cat_quiver2, dense, sample_count=3,
                                      max_dim=2)
    assert len(calls) == 3
    assert not rep.passed and not rep.quotients_torsion_free
    assert [w[0] for w in rep.witnesses["sampled_quotient_torsion_free"]] \
        == [0, 1, 2]
    assert set(rep.witnesses) == {"sampled_quotient_torsion_free"}


def test_torsion_pair_scans_stability_once(cat_trunc_fi2, monkeypatch):
    # a new rule with the covers of each enumerated one, so nothing is kept
    # on it before the torsion pair runs
    rules = topology.enumerate_topologies(cat_trunc_fi2)
    scans = []
    scan = topology._stability_scan

    def counting(cat, j):
        scans.append(cat.name)
        return scan(cat, j)

    monkeypatch.setattr(topology, "_stability_scan", counting)
    for j in (rules[0], rules[-1]):
        j = topology.make_rule(cat_trunc_fi2, j.covers)
        scans.clear()
        torsion.verify_torsion_pair(cat_trunc_fi2, j, sample_count=20)
        assert len(scans) == 1


def test_torsion_class_requires_stability(cat_quiver2):
    rule = topology.make_rule(cat_quiver2, {
        "x": [sieves.make_sieve(cat_quiver2, "x", ["f"]),
              sieves.maximal_sieve(cat_quiver2, "x")],
        "y": [sieves.maximal_sieve(cat_quiver2, "y")],
    })
    v = dense_sheaf_module(cat_quiver2, F2)
    with pytest.raises(StabilityFails):
        torsion.torsion_class(cat_quiver2, rule, v)
    with pytest.raises(StabilityFails):
        torsion.verify_torsion_pair(cat_quiver2, rule, sample_count=1)


def test_torsion_pair_to_doc(cat_quiver2):
    dense = topology.named_topology(cat_quiver2, "dense")
    rep = torsion.verify_torsion_pair(cat_quiver2, dense, sample_count=4)
    doc = rep.to_doc()
    assert doc["passed"] is True
    assert set(doc["conditions"]) == {
        "hom_vanishes", "closed_under_submodules",
        "closed_under_quotients", "quotients_torsion_free"}


# ---------------------------------------------------------------------------
# annihilator round trip

def test_roundtrip_on_quiver_census(cat_quiver2):
    for j in topology.enumerate_topologies(cat_quiver2):
        for p in (2, 3):
            agrees, report = torsion.nullstellensatz_roundtrip(cat_quiver2, j, p)
            assert agrees, report
            assert report["missing"] == {} and report["extra"] == {}


def test_roundtrip_requires_inclusion_closed(cat_quiver2):
    c = cat_quiver2
    above_f_and_g = [sieves.make_sieve(c, "x", m)
                     for m in (["f"], ["g"], ["f", "g"])]
    cases = [
        ({"x": [sieves.make_sieve(c, "x", ["f", "g"])]},
         "rule not inclusion closed at x: ('f', 'g') inside ('1_x', 'f', 'g')"),
        ({"x": above_f_and_g + [sieves.maximal_sieve(c, "x")]},
         "rule not intersection closed at x: ('f',) with ('g',)"),
        # the first object in order is reported: x's intersection failure
        # comes before y's inclusion failure
        ({"x": above_f_and_g + [sieves.maximal_sieve(c, "x")],
          "y": [sieves.make_sieve(c, "y", ())]},
         "rule not intersection closed at x: ('f',) with ('g',)"),
        ({"x": [sieves.maximal_sieve(c, "x")], "y": [sieves.make_sieve(c, "y", ())]},
         "rule not inclusion closed at y: () inside ('1_y',)"),
    ]
    for covers, message in cases:
        rule = topology.make_rule(c, {"y": [sieves.maximal_sieve(c, "y")],
                                      **covers})
        with pytest.raises(PreconditionFailed) as err:
            torsion.nullstellensatz_roundtrip(c, rule, 2)
        assert str(err.value) == message


def test_torsion_membership_matches_annihilator(cat_quiver2):
    # for an inclusion-closed rule: torsion vectors are the ones whose
    # annihilator is itself a cover
    for j in topology.enumerate_topologies(cat_quiver2):
        for seed in range(3):
            v = modrep.random_module(cat_quiver2, F2, seed=seed, max_dim=2)
            spans = torsion.torsion_spans(cat_quiver2, j, v)
            for x in cat_quiver2.objects:
                jx = set(j.covers[x])
                for vec in modrep.all_vectors(F2, v.dims[x]):
                    in_torsion = linalg.Echelon(F2, v.dims[x],
                                                spans[x]).contains(vec)
                    ann = torsion.annihilator_sieve(v, x, vec)
                    assert in_torsion == (ann in jx)


# ---------------------------------------------------------------------------
# sieve kernels

def generator_sieve_kernel(v, s):
    """The kernel through a generating set of the sieve only."""
    gens = sieves.minimal_generators(v.cat, s)
    stacked = linalg.vstack([v.action[f] for f in gens], cols=v.dims[s.base])
    return linalg.kernel_basis(v.field, stacked)


@settings(max_examples=30, deadline=None)
@given(cat=st.sampled_from(ei_fixture_categories()),
       field=st.sampled_from((GF(2), GF(3), QQ)),
       seed=st.integers(0, 10_000), max_dim=st.integers(0, 3))
def test_sieve_kernel_matches_generator_oracle(cat, field, seed, max_dim):
    v = modrep.random_module(cat, field, seed, max_dim)
    for x in cat.objects:
        for s in sieves.all_sieves(cat, x):
            assert torsion.sieve_kernel(v, s) == generator_sieve_kernel(v, s)


def test_stability_witness_is_the_first_axiom_witness(cat_quiver2):
    # {f} pulls back along g, and {g} along f, to the empty sieve at y
    rule = topology.make_rule(cat_quiver2, {
        "x": [sieves.make_sieve(cat_quiver2, "x", ["f"]),
              sieves.make_sieve(cat_quiver2, "x", ["g"]),
              sieves.maximal_sieve(cat_quiver2, "x")],
        "y": [sieves.maximal_sieve(cat_quiver2, "y")],
    })
    witnesses = topology.check_axioms(cat_quiver2, rule).witnesses
    assert witnesses["stability"] == (("x", ("f",), "g"), ("x", ("g",), "f"))
    first = topology.check_stability_only(cat_quiver2, rule)
    assert first == witnesses["stability"][0]
    with pytest.raises(StabilityFails) as err:
        topology.require_stable(cat_quiver2, rule)
    assert err.value.witness == first
    dense = topology.named_topology(cat_quiver2, "dense")
    assert topology.check_stability_only(cat_quiver2, dense) is None
    topology.require_stable(cat_quiver2, dense)


# ---------------------------------------------------------------------------
# torsion spans over the minimal covers against the loop over every cover
# they replaced, kept as an oracle

def old_torsion_spans(cat, j, v):
    spans = {}
    for x in cat.objects:
        vecs = []
        for s in j.covers_at(x):
            vecs.extend(torsion.sieve_kernel(v, s))
        spans[x] = linalg.span_basis(v.field, vecs, v.dims[x])
    return spans


SPAN_FIXTURES = ei_fixture_categories() + [idem_monoid()]
SPAN_FIELDS = (GF(2), GF(3), QQ)


@pytest.mark.parametrize("cat", SPAN_FIXTURES, ids=lambda c: c.name)
def test_torsion_spans_match_all_covers_on_enumerated_rules(cat):
    for i, j in enumerate(topology.enumerate_topologies(cat)):
        for field in SPAN_FIELDS:
            v = modrep.random_module(cat, field, seed=i, max_dim=1 + i % 3)
            assert torsion.torsion_spans(cat, j, v) == old_torsion_spans(cat, j, v)


@settings(max_examples=200, deadline=None)
@given(cat=st.sampled_from(SPAN_FIXTURES), field=st.sampled_from(SPAN_FIELDS),
       seed=st.integers(0, 10_000), max_dim=st.integers(0, 3), data=st.data())
def test_torsion_spans_match_all_covers_on_random_rules(cat, field, seed,
                                                        max_dim, data):
    # arbitrary cover sets, stable or not: the raw computation needs neither
    covers = {x: data.draw(st.lists(st.sampled_from(sieves.all_sieves(cat, x)),
                                    max_size=5))
              for x in cat.objects}
    j = topology.make_rule(cat, covers)
    v = modrep.random_module(cat, field, seed, max_dim)
    assert torsion.torsion_spans(cat, j, v) == old_torsion_spans(cat, j, v)


def quiver3():
    """Two objects x, y with three parallel arrows x -> y."""
    return fincat.build_quiver_category(
        ["x", "y"], [("f", "x", "y"), ("g", "x", "y"), ("h", "x", "y")],
        name="quiver3")


@settings(max_examples=200, deadline=None)
@given(field=st.sampled_from(SPAN_FIELDS), data=st.data())
def test_torsion_spans_match_all_covers_on_quiver_representations(field, data):
    # any three matrices make a module here, so the kernels of incomparable
    # covers need not be nested, as they mostly are in random_module's
    cat = quiver3()
    a, b = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 3))
    entry = st.integers(0, 2).map(field.of)
    action = {"1_x": linalg.identity(field, a), "1_y": linalg.identity(field, b)}
    for u in ("f", "g", "h"):
        action[u] = Mat(b, a, tuple(tuple(data.draw(entry) for _ in range(a))
                                    for _ in range(b)))
    v = modrep.make_module(cat, field, {"x": a, "y": b}, action)
    covers = {x: data.draw(st.lists(st.sampled_from(sieves.all_sieves(cat, x)),
                                    max_size=6))
              for x in cat.objects}
    j = topology.make_rule(cat, covers)
    assert torsion.torsion_spans(cat, j, v) == old_torsion_spans(cat, j, v)


# ---------------------------------------------------------------------------
# the torsion-pair certificate against the sampled probe it replaced, kept
# as an oracle

HOM_PAIR_CAP = 400  # (torsion, torsion-free) sample pairs whose hom is solved


def torsion_vector(cat, j, v):
    """The first nonzero torsion vector (x, entries) of v, or None."""
    spans = torsion.torsion_spans(cat, j, v)
    return next(((x, tuple(v.field.fmt(a) for a in spans[x][0]))
                 for x in cat.objects if spans[x]), None)


def random_submodule(v, rng):
    busy = [x for x in v.cat.objects if v.dims[x] > 0]
    if not busy:
        return None
    spans = {}
    for _ in range(rng.randint(1, 2)):
        x = rng.choice(busy)
        spans.setdefault(x, []).append(
            tuple(modrep._random_entry(v.field, rng) for _ in range(v.dims[x])))
    return modrep.submodule_from_spans(v, closed_spans(v, spans))


def old_verify_torsion_pair(cat, j, field=F2, sample_count=20, seed=0,
                            max_dim=3, extra_modules=()):
    """Probe the pair on the rule's sieve-quotient generators, the extra
    modules and sampled modules: hom from torsion to torsion-free, random
    submodules and quotients of torsion samples, and each sample modulo
    its torsion part."""
    topology.require_stable(cat, j)
    rng = random.Random(f"finsite:pair:{field.label()}:{seed}")
    samples = []
    for x in cat.objects:
        for s in j.covers_at(x):
            samples.append(modrep.sieve_quotient_module(cat, field, s).quotient)
    samples.extend(extra_modules)
    for _ in range(sample_count):
        samples.append(modrep.random_module(cat, field,
                                            seed=rng.randrange(2 ** 30),
                                            max_dim=max_dim))

    torsion_list, free_list, tf_witnesses = [], [], []
    for idx, v in enumerate(samples):
        t, incl = torsion.torsion_submodule(cat, j, v)
        q, _ = modrep.quotient_module(v, incl)
        bad = torsion_vector(cat, j, q)
        q_free = bad is None
        if not q_free:
            tf_witnesses.append((idx, dict(v.dims)) + bad)
        if not v.is_zero() and t.dims == v.dims:
            torsion_list.append((idx, v))
        if not t.is_zero() and torsion.is_torsion(cat, j, t):
            torsion_list.append((idx, t))
        if q_free and not q.is_zero():
            free_list.append((idx, q))
        if not v.is_zero() and t.is_zero():
            free_list.append((idx, v))

    hom_witnesses = []
    pairs = itertools.islice(itertools.product(torsion_list, free_list),
                             HOM_PAIR_CAP)
    for (i, t), (k, f) in pairs:
        if modrep.hom_space(t, f):
            hom_witnesses.append((i, k, dict(t.dims), dict(f.dims)))

    sub_witnesses, quo_witnesses = [], []
    for i, t in torsion_list[:12]:
        made = random_submodule(t, rng)
        if made is None:
            continue
        w, w_incl = made
        if not torsion.is_torsion(cat, j, w):
            sub_witnesses.append((i, dict(w.dims)))
        t_over_w, _ = modrep.quotient_module(t, w_incl)
        if not torsion.is_torsion(cat, j, t_over_w):
            quo_witnesses.append((i, dict(t_over_w.dims)))

    witnesses = {}
    for key, found in (("hom", hom_witnesses), ("submodule", sub_witnesses),
                       ("quotient", quo_witnesses),
                       ("quotient_torsion_free", tf_witnesses)):
        if found:
            witnesses[key] = tuple(found)
    return torsion.TorsionPairReport(
        hom_vanishes=not hom_witnesses,
        closed_under_submodules=not sub_witnesses,
        closed_under_quotients=not quo_witnesses,
        quotients_torsion_free=not tf_witnesses,
        sample_count=len(samples),
        witnesses=witnesses,
    )


PAIR_FIXTURES = [chain(2), chain(3), quiver2(),
                 fincat.build_orbit_category(fincat.cyclic_group_table(3),
                                             name="orbit_C3")[0],
                 fincat.build_trunc_fi_category(2)]


@functools.lru_cache(maxsize=None)
def stable_rules(index):
    """every_stable_rule on PAIR_FIXTURES[index]."""
    return every_stable_rule(PAIR_FIXTURES[index])


def every_stable_rule(cat):
    """Every stable rule on cat: any set of sieves per object, so rules that
    are not inclusion closed, lack a maximal sieve or cover nothing at an
    object come up too."""
    choices = [[c for k in range(len(u) + 1)
                for c in itertools.combinations(u, k)]
               for u in (sieves.all_sieves(cat, x) for x in cat.objects)]
    rules = (topology.make_rule(cat, dict(zip(cat.objects, pick)))
             for pick in itertools.product(*choices))
    return [j for j in rules if topology.check_stability_only(cat, j) is None]


def confirm_witnesses(cat, j, field, rep):
    """Check each certificate witness with the module-level code."""
    for x, s, t, dims, *bad in rep.witnesses.get("quotient_torsion_free", ()):
        q = modrep.sieve_quotient_module(cat, field,
                                         sieves.Sieve(x, t)).quotient
        assert dict(q.dims) == dims
        assert torsion.is_torsion(cat, j, modrep.sieve_quotient_module(
            cat, field, sieves.Sieve(x, s)).quotient)
        _, incl = torsion.torsion_submodule(cat, j, q)
        quot, _ = modrep.quotient_module(q, incl)
        assert not quot.is_zero() and torsion.is_torsion(cat, j, quot)
        assert torsion_vector(cat, j, quot) == tuple(bad)
    for x, s, t, dims in rep.witnesses.get("submodule", ()):
        meet = sieves.make_sieve(cat, x, set(s) & set(t))
        q = modrep.sieve_quotient_module(cat, field, meet).quotient
        assert dict(q.dims) == dims
        assert not torsion.is_torsion(cat, j, q)
        for cover in (s, t):
            assert torsion.is_torsion(cat, j, modrep.sieve_quotient_module(
                cat, field, sieves.Sieve(x, cover)).quotient)


@pytest.mark.parametrize("index", range(len(PAIR_FIXTURES)),
                         ids=[c.name for c in PAIR_FIXTURES])
def test_torsion_pair_certificate_on_every_stable_rule(index):
    cat = PAIR_FIXTURES[index]
    failing = 0
    for j in stable_rules(index):
        closed = torsion.inclusion_closure(cat, {
            x: (*j.covers[x], sieves.maximal_sieve(cat, x))
            for x in cat.objects})
        transitive = topology.check_axioms(cat, closed).transitivity_ok
        for field in (F2, GF(3)):
            rep = torsion.verify_torsion_pair(cat, j, field, sample_count=0)
            assert rep.passed == transitive
            assert rep.passed == (not rep.witnesses)
            confirm_witnesses(cat, j, field, rep)
            if not rep.passed:
                failing += 1
                # the old probe, handed the certificate's module, fails too
                x, _, t, *_ = rep.witnesses["quotient_torsion_free"][0]
                q = modrep.sieve_quotient_module(cat, field,
                                                 sieves.Sieve(x, t)).quotient
                assert not old_verify_torsion_pair(
                    cat, j, field, sample_count=0,
                    extra_modules=(q,)).quotients_torsion_free
    assert failing > 0


# categories with nontrivial endomorphisms, where the certificate's
# witnesses are proved only when the closure is intersection closed: the
# idempotent monoid, {1, a, 0} with a a = a, the C3 monoid, and the orbit
# categories of C2, C4 and S3
SWEEP_FIXTURES = [
    idem_monoid(),
    fincat.build_monoid_category([[0, 1, 2], [1, 1, 2], [2, 2, 2]],
                                 name="idem_zero"),
    fincat.build_monoid_category(fincat.cyclic_group_table(3), name="C3"),
    *(fincat.build_orbit_category(table, name=name)[0] for name, table in (
        ("orbit_C2", fincat.cyclic_group_table(2)),
        ("orbit_C4", fincat.cyclic_group_table(4)),
        ("orbit_S3", fincat.symmetric_group_table(3))))]


def test_torsion_pair_certificate_never_stops_short():
    # no run meets a witness it cannot confirm (a FinsiteError), over every
    # stable rule of the sweep, over F2, F3 and Q: 1,629 runs
    unconfirmed, runs, passed = [], 0, 0
    for cat in SWEEP_FIXTURES:
        for j in every_stable_rule(cat):
            for field in (F2, GF(3), QQ):
                try:
                    rep = torsion.verify_torsion_pair(cat, j, field,
                                                      sample_count=0)
                except FinsiteError as err:
                    unconfirmed.append((cat.name, field.label(), str(err)))
                    continue
                runs += 1
                passed += rep.passed
                assert rep.passed == (not rep.witnesses)
    assert unconfirmed == []
    assert (runs, passed) == (1629, 795)


def test_torsion_pair_certificate_tries_every_witness(monkeypatch):
    # {f} covers x and the empty sieve covers y: the closure is not
    # transitive, with four witnesses at x. With the first refused, the
    # report cites the second; with all four refused, it raises
    cat = quiver2()
    j = topology.make_rule(cat, {
        "x": [sieves.make_sieve(cat, "x", ["f"])],
        "y": [sieves.make_sieve(cat, "y", []),
              sieves.maximal_sieve(cat, "y")]})
    closed = torsion.inclusion_closure(cat, {
        x: (*j.covers[x], sieves.maximal_sieve(cat, x)) for x in cat.objects})
    found = topology.check_axioms(cat, closed).witnesses["transitivity"]
    assert len(found) == 4
    plain = torsion.verify_torsion_pair(cat, j, F2, sample_count=0)
    assert plain.witnesses["quotient_torsion_free"][0][:3] == found[0]
    confirm = torsion._torsion_in_quotient
    refuted = []

    def refute(first):
        def call(cat, j, v):
            refuted.append(v)
            return None if len(refuted) <= first else confirm(cat, j, v)
        return call

    monkeypatch.setattr(torsion, "_torsion_in_quotient", refute(1))
    rep = torsion.verify_torsion_pair(cat, j, F2, sample_count=0)
    assert len(refuted) == 2
    (cited,) = rep.witnesses["quotient_torsion_free"]
    assert cited[:3] == found[1]
    assert not rep.quotients_torsion_free and not rep.passed
    confirm_witnesses(cat, j, F2, rep)
    refuted.clear()
    monkeypatch.setattr(torsion, "_torsion_in_quotient", refute(4))
    with pytest.raises(FinsiteError, match="each of 4 P"):
        torsion.verify_torsion_pair(cat, j, F2, sample_count=0)
    assert len(refuted) == 4


@settings(max_examples=200, deadline=None)
@given(data=st.data(), field=st.sampled_from((F2, GF(3))),
       seed=st.integers(0, 10_000))
def test_torsion_pair_certificate_matches_the_sampled_oracle(data, field,
                                                             seed):
    # the oracle can only miss failures: each condition it refutes, the
    # certificate refutes too, and the certificate is deterministic
    index = data.draw(st.integers(0, len(PAIR_FIXTURES) - 1))
    cat = PAIR_FIXTURES[index]
    j = data.draw(st.sampled_from(stable_rules(index)))
    old = old_verify_torsion_pair(cat, j, field, sample_count=4, seed=seed,
                                  max_dim=2)
    rep = torsion.verify_torsion_pair(cat, j, field, sample_count=0)
    for condition in ("hom_vanishes", "closed_under_submodules",
                      "closed_under_quotients", "quotients_torsion_free"):
        assert getattr(old, condition) or not getattr(rep, condition)
    sampled = torsion.verify_torsion_pair(cat, j, field, sample_count=4,
                                          seed=seed, max_dim=2)
    assert sampled.passed == rep.passed
    assert sampled.sample_count == 4
    assert {k: w for k, w in sampled.witnesses.items()
            if not k.startswith("sampled_")} == rep.witnesses
