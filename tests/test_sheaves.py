from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsite import fincat, linalg, modrep, sheaves, sieves, topology, torsion
from finsite.errors import FinsiteError, NotRigid, PreconditionFailed
from finsite.linalg import GF, QQ, Mat

from conftest import chain, quiver2

F2 = GF(2)
F3 = GF(3)


def dense_sheaf_module(cat, field):
    return modrep.make_module(
        cat, field, {"x": 2, "y": 1},
        {"1_x": linalg.identity(field, 2),
         "1_y": linalg.identity(field, 1),
         "f": Mat(1, 2, ((field.one(), field.zero()),)),
         "g": Mat(1, 2, ((field.zero(), field.one()),))})


def topology_iv(cat):
    return topology.make_rule(cat, {
        "x": [sieves.maximal_sieve(cat, "x")],
        "y": [sieves.empty_sieve(cat, "y"), sieves.maximal_sieve(cat, "y")],
    })


# ---------------------------------------------------------------------------
# matching families and amalgamation

def test_matching_space_dimensions(cat_quiver2):
    v = dense_sheaf_module(cat_quiver2, F2)
    top = sieves.maximal_sieve(cat_quiver2, "x")
    assert sheaves.matching_space(v, "x", top).dimension == v.dims["x"]
    bot = sieves.empty_sieve(cat_quiver2, "x")
    assert sheaves.matching_space(v, "x", bot).dimension == 0
    pair = sieves.make_sieve(cat_quiver2, "x", ["f", "g"])
    # no composable arrows out of y, so the two blocks are unconstrained
    assert sheaves.matching_space(v, "x", pair).dimension == 2 * v.dims["y"]


def test_matching_space_compatibility(cat_chain3):
    p0 = modrep.yoneda_module(cat_chain3, F2, "0")
    s = sieves.generated_sieve(cat_chain3, "0", ["0->1"])
    assert s.members == ("0->1", "0->2")
    space = sheaves.matching_space(p0, "0", s)
    # the block at 0->2 is forced by the block at 0->1
    assert space.dimension == 1
    fam = space.basis[0]
    pushed = p0.apply("1->2", space.block(fam, "0->1"))
    assert pushed == space.block(fam, "0->2")


def test_amalgamation_of_representable(cat_quiver2):
    px = modrep.yoneda_module(cat_quiver2, F2, "x")
    pair = sieves.make_sieve(cat_quiver2, "x", ["f", "g"])
    m = modrep.induced_family_map(px, "x",
                                  sheaves.matching_space(px, "x", pair))
    assert (m.rows, m.cols) == (4, 1)
    assert linalg.rank(F2, m) == 1  # injective but far from onto


def test_restrict_family_subsieve_only(cat_quiver2):
    v = dense_sheaf_module(cat_quiver2, F2)
    big = sieves.maximal_sieve(cat_quiver2, "x")
    small = sieves.make_sieve(cat_quiver2, "x", ["f", "g"])
    space = sheaves.matching_space(v, "x", big)
    fam = space.basis[0]
    restricted = sheaves.restrict_family(space, fam, small)
    assert len(restricted) == 2 * v.dims["y"]
    with pytest.raises(PreconditionFailed):
        sheaves.restrict_family(sheaves.matching_space(v, "x", small),
                                space.basis[0][:2], big)


# ---------------------------------------------------------------------------
# the three detectors

def test_everything_is_a_trivial_sheaf(cat_quiver2):
    trivial = topology.named_topology(cat_quiver2, "trivial")
    for seed in range(4):
        v = modrep.random_module(cat_quiver2, F2, seed=seed, max_dim=3)
        st_ = sheaves.sheaf_status(cat_quiver2, trivial, v)
        assert st_.separated and st_.sheaf


def test_only_zero_is_a_maximal_sheaf(cat_quiver2):
    maximal = topology.named_topology(cat_quiver2, "maximal")
    z = modrep.zero_module(cat_quiver2, F2)
    assert sheaves.sheaf_status(cat_quiver2, maximal, z).sheaf
    px = modrep.yoneda_module(cat_quiver2, F2, "x")
    st_ = sheaves.sheaf_status(cat_quiver2, maximal, px)
    assert not st_.separated and not st_.sheaf
    assert st_.witnesses


def test_dense_sheaf_example(cat_quiver2):
    dense = topology.named_topology(cat_quiver2, "dense")
    v = dense_sheaf_module(cat_quiver2, F2)
    assert sheaves.sheaf_status(cat_quiver2, dense, v).sheaf
    sat = sheaves.saturation_status(cat_quiver2, dense, v)
    assert sat.torsion_free and sat.r1_zero
    perp = sheaves.perpendicular_status(cat_quiver2, dense, v)
    assert perp.hom_zero and perp.ext1_zero


def test_representable_fails_dense_saturation(cat_quiver2):
    dense = topology.named_topology(cat_quiver2, "dense")
    px = modrep.yoneda_module(cat_quiver2, F2, "x")
    st_ = sheaves.sheaf_status(cat_quiver2, dense, px)
    assert st_.separated and not st_.sheaf
    sat = sheaves.saturation_status(cat_quiver2, dense, px)
    assert sat.torsion_free and not sat.r1_zero
    perp = sheaves.perpendicular_status(cat_quiver2, dense, px)
    assert perp.hom_zero and not perp.ext1_zero


def test_constant_module_not_maximal_perpendicular(cat_quiver2):
    maximal = topology.named_topology(cat_quiver2, "maximal")
    c = modrep.constant_module(cat_quiver2, F2)
    perp = sheaves.perpendicular_status(cat_quiver2, maximal, c)
    assert not perp.hom_zero


def test_verdict_triangle_on_census(cat_quiver2, cat_chain3):
    for cat in (cat_quiver2, cat_chain3):
        for j in topology.enumerate_topologies(cat):
            for seed in range(4):
                v = modrep.random_module(cat, F2, seed=seed, max_dim=2)
                verdict = sheaves.sheaf_verdict(cat, j, v)
                assert verdict.consistent, (cat.name, j.covers, v.dims,
                                            verdict.to_doc())


def test_verdict_triangle_over_rationals(cat_quiver2):
    dense = topology.named_topology(cat_quiver2, "dense")
    for seed in range(3):
        v = modrep.random_module(cat_quiver2, QQ, seed=seed, max_dim=2)
        assert sheaves.sheaf_verdict(cat_quiver2, dense, v).consistent


def test_verdict_to_doc(cat_quiver2):
    dense = topology.named_topology(cat_quiver2, "dense")
    doc = sheaves.sheaf_verdict(cat_quiver2, dense,
                                dense_sheaf_module(cat_quiver2, F2)).to_doc()
    assert doc["consistent"] is True
    assert doc["sheaf"] is True and doc["separated"] is True
    assert doc["saturated"] == {"torsion_free": True, "r1_zero": True}
    assert doc["perpendicular"] == {"hom_zero": True, "ext1_zero": True}


# ---------------------------------------------------------------------------
# plus construction and sheafification

def test_plus_fixes_sheaves(cat_quiver2):
    dense = topology.named_topology(cat_quiver2, "dense")
    v = dense_sheaf_module(cat_quiver2, F2)
    plus, unit = sheaves.plus_construction(cat_quiver2, dense, v)
    assert plus.dims == v.dims
    for x in cat_quiver2.objects:
        assert linalg.is_invertible(F2, unit.components[x])


def test_plus_kills_dense_torsion(cat_quiver2):
    dense = topology.named_topology(cat_quiver2, "dense")
    ex = modrep.standard_injective(cat_quiver2, F2, "x")  # zero away from x
    plus, _ = sheaves.plus_construction(cat_quiver2, dense, ex)
    assert plus.is_zero()


def test_plus_requires_minimum_cover(cat_quiver2):
    c = cat_quiver2
    rule = topology.make_rule(c, {
        "x": [sieves.principal_sieve(c, "f"), sieves.principal_sieve(c, "g"),
              sieves.make_sieve(c, "x", ["f", "g"]),
              sieves.maximal_sieve(c, "x")],
        "y": [sieves.maximal_sieve(c, "y")]})
    # the intersection {f} * {g} is empty and missing, so no minimum exists
    with pytest.raises(PreconditionFailed):
        sheaves.plus_construction(c, rule, dense_sheaf_module(c, F2))


def test_sheafify_contract(cat_quiver2):
    dense = topology.named_topology(cat_quiver2, "dense")
    for seed in range(5):
        v = modrep.random_module(cat_quiver2, F2, seed=seed, max_dim=2)
        sh, unit = sheaves.sheafify(cat_quiver2, dense, v)
        assert sheaves.sheaf_status(cat_quiver2, dense, sh).sheaf
        _, unit2 = sheaves.sheafify(cat_quiver2, dense, sh)
        for x in cat_quiver2.objects:
            assert linalg.is_invertible(F2, unit2.components[x])


def test_sheafify_spec_example(cat_quiver2):
    # universally closing up the representable at y under the rule that
    # lets the empty sieve cover y collapses it entirely
    iv = topology_iv(cat_quiver2)
    py = modrep.yoneda_module(cat_quiver2, F2, "y")
    sh, _ = sheaves.sheafify(cat_quiver2, iv, py)
    assert sh.is_zero()


def test_sheafify_maximal_collapses_everything(cat_quiver2):
    maximal = topology.named_topology(cat_quiver2, "maximal")
    v = dense_sheaf_module(cat_quiver2, F2)
    sh, _ = sheaves.sheafify(cat_quiver2, maximal, v)
    assert sh.is_zero()


def test_matching_colimit_matches_plus(cat_quiver2, cat_chain3):
    for cat in (cat_quiver2, cat_chain3):
        for j in topology.enumerate_topologies(cat):
            for seed in range(2):
                v = modrep.random_module(cat, F2, seed=seed, max_dim=2)
                plus, _ = sheaves.plus_construction(cat, j, v)
                for x in cat.objects:
                    assert (sheaves.matching_colimit_dimension(cat, j, v, x)
                            == plus.dims[x])


def test_saturation_order_independent(cat_quiver2):
    dense = topology.named_topology(cat_quiver2, "dense")
    px = modrep.yoneda_module(cat_quiver2, F2, "x")
    a = sheaves.saturation_status(cat_quiver2, dense, px,
                                  summand_order=("x", "y"))
    b = sheaves.saturation_status(cat_quiver2, dense, px,
                                  summand_order=("y", "x"))
    assert a.saturated == b.saturated == False
    assert a.torsion_free and b.torsion_free


def test_injective_torsion_free_is_sheaf(cat_quiver2):
    # torsion-free injectives pass the sheaf test under every topology
    for j in topology.enumerate_topologies(cat_quiver2):
        for x in cat_quiver2.objects:
            e = modrep.standard_injective(cat_quiver2, F2, x)
            if torsion.torsion_class(cat_quiver2, j, e).dims != \
                    {z: 0 for z in cat_quiver2.objects}:
                continue
            assert sheaves.sheaf_status(cat_quiver2, j, e).sheaf


# ---------------------------------------------------------------------------
# the rigid equivalence

def test_rigid_equivalence_dense_quiver(cat_quiver2):
    dense = topology.named_topology(cat_quiver2, "dense")
    rep = sheaves.verify_rigid_equivalence(cat_quiver2, dense,
                                           sample_count=6, max_dim=2)
    assert rep.passed, rep.witnesses
    assert rep.irreducibles == ("y",)
    assert rep.sample_count > 6


def test_rigid_equivalence_all_chain2_topologies(cat_chain2):
    for j in topology.enumerate_topologies(cat_chain2):
        rep = sheaves.verify_rigid_equivalence(cat_chain2, j,
                                               sample_count=5, max_dim=2)
        assert rep.passed, (j.covers, rep.witnesses)


def test_rigid_equivalence_no_irreducibles(cat_quiver2):
    # the everything-covers rule is rigid with an empty core: all modules
    # are torsion and the only sheaf is zero
    maximal = topology.named_topology(cat_quiver2, "maximal")
    rep = sheaves.verify_rigid_equivalence(cat_quiver2, maximal,
                                           sample_count=3, max_dim=2)
    assert rep.passed
    assert rep.irreducibles == ()


def test_rigid_equivalence_records_a_failed_counit(cat_quiver2, monkeypatch):
    real = modrep.coinduction_with_counit
    calls = []

    def degenerate_first_two(cat, sub, w):
        # the first two calls coinduce the sampled core modules
        calls.append(w)
        if len(calls) <= 2:
            raise PreconditionFailed("counit degenerate at y")
        return real(cat, sub, w)

    monkeypatch.setattr(modrep, "coinduction_with_counit",
                        degenerate_first_two)
    dense = topology.named_topology(cat_quiver2, "dense")
    rep = sheaves.verify_rigid_equivalence(cat_quiver2, dense,
                                           sample_count=2, max_dim=2)
    assert not rep.restrict_after_coinduce_identity
    assert len(rep.witnesses["restrict_coinduce"]) == 2
    assert rep.coinduction_makes_sheaves
    assert rep.coinduce_after_restrict_identity


def test_rigid_equivalence_records_a_degenerate_unit(cat_quiver2,
                                                     monkeypatch):
    def degenerate(cat, sub, v):
        # a unit one dimension short of square at every object
        coind, _ = modrep.coinduction_with_counit(
            cat, sub, modrep.restriction(cat, sub, v))
        bigger = modrep.direct_sum(cat, v.field,
                                   [coind, modrep.constant_module(cat, v.field)])
        return bigger, modrep.zero_map(v, bigger)

    monkeypatch.setattr(modrep, "coinduction_unit", degenerate)
    dense = topology.named_topology(cat_quiver2, "dense")
    rep = sheaves.verify_rigid_equivalence(cat_quiver2, dense,
                                           sample_count=3, max_dim=2)
    assert not rep.coinduce_after_restrict_identity
    assert [i for i, _ in rep.witnesses["coinduce_restrict"]] == [0, 1, 2]
    assert rep.restrict_after_coinduce_identity
    assert rep.coinduction_makes_sheaves
    assert rep.torsion_matches_restriction


def test_rigid_equivalence_rejects_nonrigid(cat_idem_monoid):
    dense = topology.named_topology(cat_idem_monoid, "dense")
    assert not topology.rigidity(cat_idem_monoid, dense).rigid
    with pytest.raises(NotRigid):
        sheaves.verify_rigid_equivalence(cat_idem_monoid, dense)


def test_rigid_equivalence_report_doc(cat_chain2):
    dense = topology.named_topology(cat_chain2, "trivial")
    rep = sheaves.verify_rigid_equivalence(cat_chain2, dense,
                                           sample_count=3, max_dim=2)
    doc = rep.to_doc()
    assert doc["passed"] is True
    assert set(doc["conditions"]) == {
        "torsion_matches_restriction", "coinduction_makes_sheaves",
        "restrict_after_coinduce_identity", "coinduce_after_restrict_identity"}
