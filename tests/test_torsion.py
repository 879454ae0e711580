from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsite import fincat, linalg, modrep, sieves, topology, torsion
from finsite.errors import (
    PreconditionFailed,
    ShapeMismatch,
    SizeBudgetExceeded,
    StabilityFails,
    UnknownObject,
)
from finsite.linalg import GF, QQ, Mat

from conftest import (
    chain,
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
    w, incl = modrep.submodule_from_spans(v, spans, close=True)
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
    # quotient of the representable at 0 by the long arrow: its torsion
    # part sits in the middle and leaves a torsion quotient behind
    s = sieves.make_sieve(cat_chain3, "0", ["0->2"])
    witness_module = modrep.sieve_quotient_module(cat_chain3, F2, s).quotient
    assert witness_module.dims == {"0": 1, "1": 1, "2": 0}
    rep = torsion.verify_torsion_pair(cat_chain3, rule, sample_count=4,
                                      extra_modules=(witness_module,))
    assert not rep.quotients_torsion_free
    assert "quotient_torsion_free" in rep.witnesses
    assert not rep.passed


def test_torsion_pair_scans_stability_once(cat_trunc_fi2, monkeypatch):
    rules = topology.enumerate_topologies(cat_trunc_fi2)
    scans = []
    scan = topology.check_stability_only

    def counting(cat, j):
        scans.append(cat.name)
        return scan(cat, j)

    monkeypatch.setattr(topology, "check_stability_only", counting)
    for j in (rules[0], rules[-1]):
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
