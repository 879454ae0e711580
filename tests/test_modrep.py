from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pickle
import random
import types

from finsite import fincat, linalg, modrep, sheaves, sieves, topology, torsion
from finsite.errors import (
    FUNCTORIALITY_VIOLATION,
    NATURALITY_VIOLATION,
    NON_IDENTITY_AT_OBJECT,
    SHAPE_VIOLATION,
    FieldMismatch,
    FinsiteError,
    NotFullSubcategory,
    PreconditionFailed,
    SizeBudgetExceeded,
    ValidationFailed,
    Violation,
)
from finsite.linalg import GF, QQ, Mat

from conftest import (
    chain,
    constant_module,
    diamond,
    ei_fixture_categories,
    hstack,
    idem_monoid,
    quiver2,
)

F2 = GF(2)
F3 = GF(3)


def dense_sheaf_module(cat, field):
    """V_x = k^2, V_y = k with f, g the two coordinate projections."""
    return modrep.make_module(
        cat, field, {"x": 2, "y": 1},
        {"1_x": linalg.identity(field, 2),
         "1_y": linalg.identity(field, 1),
         "f": Mat(1, 2, ((field.one(), field.zero()),)),
         "g": Mat(1, 2, ((field.zero(), field.one()),))})


# ---------------------------------------------------------------------------
# construction and validation

def test_yoneda_dims(cat_quiver2, cat_chain3):
    px = modrep.yoneda_module(cat_quiver2, F2, "x")
    py = modrep.yoneda_module(cat_quiver2, F2, "y")
    assert px.dims == {"x": 1, "y": 2}
    assert py.dims == {"x": 0, "y": 1}
    p0 = modrep.yoneda_module(cat_chain3, QQ, "0")
    assert p0.dims == {"0": 1, "1": 1, "2": 1}


def test_yoneda_action_is_postcomposition(cat_quiver2):
    px = modrep.yoneda_module(cat_quiver2, F2, "x")
    # basis of P(x)_y is hom(x, y) in sorted order: (f, g), and f, g send
    # the basis vector 1_x to the basis vectors f and g
    assert cat_quiver2.hom("x", "y") == ("f", "g")
    assert px.action["f"].col(0) == (F2.one(), F2.zero())
    assert px.action["g"].col(0) == (F2.zero(), F2.one())


def test_validate_module_rejects_bad_identity(cat_chain2):
    doc = {
        "field": {"Fp": 2},
        "dims": {"0": 1, "1": 1},
        "action": {"1_0": [["0"]], "1_1": [["1"]], "0->1": [["1"]]},
    }
    with pytest.raises(ValidationFailed) as err:
        modrep.validate_module(cat_chain2, doc)
    assert any(v.kind == NON_IDENTITY_AT_OBJECT for v in err.value.violations)


def test_validate_module_rejects_bad_functoriality(cat_chain3):
    action = {f: [["1"]] for f in cat_chain3.morphisms}
    action["0->2"] = [["0"]]  # disagrees with 1->2 after 0->1
    doc = {"field": {"Fp": 2},
           "dims": {x: 1 for x in cat_chain3.objects},
           "action": action}
    with pytest.raises(ValidationFailed) as err:
        modrep.validate_module(cat_chain3, doc)
    assert any(v.kind == FUNCTORIALITY_VIOLATION for v in err.value.violations)


def test_validate_module_rejects_bad_shape(cat_chain2):
    doc = {"field": "Q",
           "dims": {"0": 2, "1": 1},
           "action": {"1_0": [["1", "0"], ["0", "1"]], "1_1": [["1"]],
                      "0->1": [["1"]]}}
    with pytest.raises(ValidationFailed) as err:
        modrep.validate_module(cat_chain2, doc)
    assert any(v.kind == SHAPE_VIOLATION for v in err.value.violations)


def test_make_module_checks_dims_as_given():
    cat = fincat.build_poset_category(["a", "b"], [("a", "b")])
    action = {"1_a": linalg.identity(F2, 1), "1_b": linalg.identity(F2, 0),
              "a->b": linalg.zeros(F2, 0, 1)}
    missing = (SHAPE_VIOLATION, ("b",), "missing or negative dimension")
    unknown = (SHAPE_VIOLATION, ("bogus",), "unknown object")
    for dims, want in (({"a": 1, "bogus": 3}, [missing, unknown]),
                       ({"a": 1, "b": 0, "bogus": 3}, [unknown]),
                       ({"a": 1, "b": -1}, [missing])):
        with pytest.raises(ValidationFailed) as err:
            modrep.make_module(cat, F2, dims, action)
        assert [(v.kind, v.witness, v.detail)
                for v in err.value.violations] == want
    # unchecked construction still fills in the missing objects with 0
    v = modrep.make_module(cat, F2, {"a": 1}, action, check=False)
    assert v.dims == {"a": 1, "b": 0}
    assert modrep.make_module(cat, F2, {"a": 1, "b": 0}, action) == v


def test_module_doc_roundtrip(cat_quiver2):
    v = dense_sheaf_module(cat_quiver2, F3)
    doc = modrep.module_to_doc(v)
    assert modrep.validate_module(cat_quiver2, doc) == v
    w = modrep.yoneda_module(cat_quiver2, QQ, "x")
    assert modrep.validate_module(cat_quiver2, modrep.module_to_doc(w)) == w


def test_modules_maps_and_rules_compare_by_value_and_do_not_hash(
        cat_quiver2):
    """Modules, module maps and cover rules take errors.Record's equality
    and hash: equal fields compare equal, another type compares unequal,
    and the mapping fields make hash raise TypeError."""
    def build():
        v = dense_sheaf_module(cat_quiver2, F2)
        ident = modrep.make_module_map(
            v, v, {x: linalg.identity(F2, v.dims[x]) for x in v.dims})
        return v, ident, topology.named_topology(cat_quiver2, "dense")

    for a, b in zip(build(), build()):
        assert a == b and not a != b and a is not b
        assert a != cat_quiver2 and a != a.__class__.__name__
        with pytest.raises(TypeError):
            hash(a)
    v, _, _ = build()
    assert v != dense_sheaf_module(cat_quiver2, F3)


def test_field_doc_roundtrip():
    for field in (QQ, F2, GF(7)):
        assert modrep.field_from_doc(modrep.field_to_doc(field)) == field
    assert modrep.parse_field_label("Q") == QQ
    assert modrep.parse_field_label("Fp:5") == GF(5)


def test_direct_sum_dims(cat_quiver2):
    px = modrep.yoneda_module(cat_quiver2, F2, "x")
    py = modrep.yoneda_module(cat_quiver2, F2, "y")
    s = modrep.direct_sum(cat_quiver2, F2, [px, py])
    assert s.dims == {"x": 1, "y": 3}
    with pytest.raises(FieldMismatch):
        modrep.direct_sum(cat_quiver2, F2,
                          [px, modrep.yoneda_module(cat_quiver2, F3, "y")])


# ---------------------------------------------------------------------------
# maps and hom spaces

def test_hom_space_yoneda_dimension(cat_quiver2, cat_chain3, cat_diamond):
    # maps out of a representable are the points of the target there
    for cat in (cat_quiver2, cat_chain3, cat_diamond):
        for seed in range(3):
            v = modrep.random_module(cat, F2, seed=seed, max_dim=2)
            for x in cat.objects:
                p = modrep.yoneda_module(cat, F2, x)
                assert len(modrep.hom_space(p, v)) == v.dims[x]


def test_hom_space_members_are_natural(cat_quiver2):
    v = modrep.random_module(cat_quiver2, F3, seed=1, max_dim=2)
    w = modrep.random_module(cat_quiver2, F3, seed=2, max_dim=2)
    for phi in modrep.hom_space(v, w):
        # make_module_map re-checks naturality
        modrep.make_module_map(v, w, phi.components, check=True)


YONEDA_CATS = [*ei_fixture_categories(), idem_monoid(),
               fincat.build_monoid_category(fincat.cyclic_group_table(3),
                                            name="C3"),
               fincat.build_orbit_category(fincat.symmetric_group_table(3),
                                           name="orbit_S3")[0]]


@settings(max_examples=150, deadline=None)
@given(cat=st.sampled_from(YONEDA_CATS), field=st.sampled_from((F2, F3, QQ)),
       seed=st.integers(0, 10_000), max_dim=st.integers(0, 3), data=st.data())
def test_yoneda_maps_span_the_hom_space(cat, field, seed, max_dim, data):
    # the maps h -> V_h e_i are a basis of Hom(P(x), V): as many as dim V(x),
    # and spanning what the naturality solve, the oracle, finds
    v = modrep.random_module(cat, field, seed, max_dim)
    x = data.draw(st.sampled_from(cat.objects))
    p = modrep.yoneda_module(cat, field, x)
    maps = modrep.yoneda_maps(v, x)
    oracle = modrep.hom_space(p, v)
    assert len(maps) == len(oracle) == v.dims[x]
    assert all(m.source is p and m.target is v for m in maps)
    vecs = [modrep.map_to_vector(m) for m in maps]
    both = vecs + [modrep.map_to_vector(m) for m in oracle]
    n = len(both[0]) if both else 0
    assert (len(linalg.span_basis(field, vecs, n))
            == len(linalg.span_basis(field, both, n)) == v.dims[x])
    # e_i is where the identity of x sends its basis vector
    at_x = cat.hom(x, x).index(cat.identity[x])
    for i, m in enumerate(maps):
        assert m.components[x].col(at_x) == tuple(
            field.one() if k == i else field.zero() for k in range(v.dims[x]))


def test_hom_space_system_budget(monkeypatch, cat_quiver2):
    v = dense_sheaf_module(cat_quiver2, F3)
    w = modrep.yoneda_module(cat_quiver2, F3, "x")
    unknowns = sum(w.dims[x] * v.dims[x] for x in cat_quiver2.objects)
    equations = sum(w.dims[cat_quiver2.cod[f]] * v.dims[cat_quiver2.dom[f]]
                    for f in cat_quiver2.morphisms)
    assert equations * unknowns > 0
    basis = modrep.hom_space(v, w)
    # a system of exactly the budget is solved, one entry more is refused
    monkeypatch.setattr(modrep, "_HOM_SYSTEM_CAP", equations * unknowns)
    assert modrep.hom_space(v, w) == basis
    monkeypatch.setattr(modrep, "_HOM_SYSTEM_CAP", equations * unknowns - 1)
    with pytest.raises(SizeBudgetExceeded, match=f"{equations} equations"):
        modrep.hom_space(v, w)


def test_compatibility_system_budget(monkeypatch, cat_quiver2):
    # the maximal sieve on x: 1_x, f, g. The block at 1_x is constrained by
    # f and g (a row each, W being 1-dimensional at y); nothing
    # but the identity leaves y
    v = dense_sheaf_module(cat_quiver2, F3)
    members = sieves.maximal_sieve(cat_quiver2, "x").members
    unknowns = sum(v.dims[cat_quiver2.cod[f]] for f in members)
    equations = sum(v.dims[cat_quiver2.cod[g]] for f in members
                    for g in cat_quiver2.morphisms_from(cat_quiver2.cod[f])
                    if not cat_quiver2.is_identity(g))
    assert (equations, unknowns) == (2, 4)
    systems = []
    kernel_basis = linalg.kernel_basis

    def counted(field, a):
        systems.append((a.rows, a.cols))
        return kernel_basis(field, a)

    monkeypatch.setattr(linalg, "kernel_basis", counted)
    families = modrep.compatible_families(cat_quiver2, v, members)
    assert systems == [(equations, unknowns)]
    # a system of exactly the budget is solved, one entry more is refused
    # before any row reads the action
    monkeypatch.setattr(modrep, "_HOM_SYSTEM_CAP", equations * unknowns)
    assert modrep.compatible_families(cat_quiver2, v, members) == families
    monkeypatch.setattr(modrep, "_HOM_SYSTEM_CAP", equations * unknowns - 1)

    class Unread(dict):
        def __getitem__(self, f):
            raise AssertionError(f"a row read the action at {f}")

    unread = modrep.KModule(v.field, v.cat, v.dims, Unread(v.action))
    with pytest.raises(SizeBudgetExceeded,
                       match=f"{equations} equations in {unknowns} unknowns"):
        modrep.compatible_families(cat_quiver2, unread, members)


def test_compose_and_identity_maps(cat_quiver2):
    v = dense_sheaf_module(cat_quiver2, F2)
    ident = modrep.make_module_map(
        v, v, {x: linalg.identity(F2, v.dims[x]) for x in v.cat.objects})
    z = modrep.make_module_map(
        v, v, {x: linalg.zeros(F2, v.dims[x], v.dims[x]) for x in v.cat.objects})
    assert modrep.compose_maps(ident, ident) == ident
    assert modrep.compose_maps(ident, z).is_zero()


def test_map_vector_roundtrip(cat_quiver2):
    v = modrep.yoneda_module(cat_quiver2, F2, "x")
    w = dense_sheaf_module(cat_quiver2, F2)
    for phi in modrep.hom_space(v, w):
        vec = modrep.map_to_vector(phi)
        assert modrep.map_from_vector(v, w, vec) == phi


# ---------------------------------------------------------------------------
# subquotients

def test_submodule_requires_closure(cat_quiver2):
    px = modrep.yoneda_module(cat_quiver2, F2, "x")
    # the span of 1_x at x is not closed under postcomposition by f
    spans = {"x": [(F2.one(),)], "y": []}
    with pytest.raises(PreconditionFailed):
        modrep.submodule_from_spans(px, spans, close=False)
    sub, incl = modrep.submodule_from_spans(px, spans, close=True)
    assert sub.dims == px.dims  # 1_x generates everything


def image_of_map(m):
    """The image of a module map as a submodule of its target, with the
    inclusion: the reference for the image that cokernel_of_map quotients
    by without building it."""
    spans = {x: [m.components[x].col(j) for j in range(m.components[x].cols)]
             for x in m.source.cat.objects}
    return modrep.submodule_from_spans(m.target, spans, close=False)


def test_quotient_and_exactness(cat_quiver2):
    s = sieves.make_sieve(cat_quiver2, "x", ["f", "g"])
    pres = modrep.sieve_quotient_module(cat_quiver2, F2, s)
    assert pres.sub.dims == {"x": 0, "y": 2}
    assert pres.quotient.dims == {"x": 1, "y": 0}
    img, _ = image_of_map(pres.inclusion)
    assert img.dims == pres.sub.dims
    coker, proj = modrep.cokernel_of_map(pres.inclusion)
    assert coker.dims == pres.quotient.dims
    ker, _ = modrep.kernel_of_map(proj)
    assert ker.dims == pres.sub.dims


def test_sieve_quotient_extremes(cat_quiver2):
    top = sieves.maximal_sieve(cat_quiver2, "x")
    pres = modrep.sieve_quotient_module(cat_quiver2, F2, top)
    assert pres.quotient.is_zero()
    bot = sieves.make_sieve(cat_quiver2, "x", ())
    pres2 = modrep.sieve_quotient_module(cat_quiver2, F2, bot)
    assert pres2.sub.is_zero()
    assert pres2.quotient == pres2.ambient


# ---------------------------------------------------------------------------
# injectives

def is_injective(v):
    """v is injective iff its canonical embedding iota into injectives
    splits: the identity of v is r iota for some map r back to v."""
    i0, iota = modrep.canonical_injective_embedding(v)
    ident = modrep.make_module_map(
        v, v, {x: linalg.identity(v.field, v.dims[x]) for x in v.cat.objects})
    through = linalg.Echelon(
        v.field, sum(d * d for d in v.dims.values()),
        [modrep.map_to_vector(modrep.compose_maps(r, iota))
         for r in modrep.hom_space(i0, v)])
    return through.contains(modrep.map_to_vector(ident))


def test_standard_injective_dims(cat_quiver2):
    ex = modrep.standard_injective(cat_quiver2, F2, "x")
    ey = modrep.standard_injective(cat_quiver2, F2, "y")
    assert ex.dims == {"x": 1, "y": 0}
    assert ey.dims == {"x": 2, "y": 1}


def test_standard_injectives_are_injective(cat_quiver2, cat_chain3):
    for cat in (cat_quiver2, cat_chain3):
        for x in cat.objects:
            assert is_injective(modrep.standard_injective(cat, F2, x))
    assert is_injective(modrep.zero_module(cat_quiver2, F2))


def test_injectivity_detects_non_injective(cat_chain2):
    # on the 2-chain the representable at 1 is concentrated at the top;
    # its hull is E(1) = P(0) and the retraction forces zero at the bottom
    p1 = modrep.yoneda_module(cat_chain2, F2, "1")
    assert not is_injective(p1)
    p0 = modrep.yoneda_module(cat_chain2, F2, "0")
    assert is_injective(p0)


def test_injective_closed_under_sums(cat_quiver2):
    ex = modrep.standard_injective(cat_quiver2, QQ, "x")
    ey = modrep.standard_injective(cat_quiver2, QQ, "y")
    assert is_injective(modrep.direct_sum(cat_quiver2, QQ, [ex, ey]))


def test_canonical_embedding_is_embedding(cat_quiver2):
    px = modrep.yoneda_module(cat_quiver2, F2, "x")
    i0, iota = modrep.canonical_injective_embedding(px)
    for x in cat_quiver2.objects:
        assert linalg.rank(F2, iota.components[x]) == px.dims[x]
    assert is_injective(i0)
    # the hull has one standard injective summand per basis vector
    assert i0.dims["y"] == sum(
        px.dims[z] * modrep.standard_injective(cat_quiver2, F2, z).dims["y"]
        for z in cat_quiver2.objects)


def test_embedding_order_permutable(cat_quiver2):
    # the embedding lists its summands in the order of cat.objects, so the
    # same category with its objects listed the other way round permutes
    # them; b is read back on cat_quiver2, whose morphisms it shares
    swapped = fincat.build_quiver_category(
        ["y", "x"], [("f", "x", "y"), ("g", "x", "y")], name="quiver2")
    v = dense_sheaf_module(cat_quiver2, F2)
    a, _ = modrep.canonical_injective_embedding(v)
    b, _ = modrep.canonical_injective_embedding(
        dense_sheaf_module(swapped, F2))
    b = modrep.make_module(cat_quiver2, F2, b.dims, b.action)
    assert a.dims == b.dims
    # a lists its summands as v_x copies of E(x), then v_y copies of E(y);
    # b lists the E(y) block first, so swapping the blocks carries a to b
    comps = {}
    for z in cat_quiver2.objects:
        ex = (v.dims["x"]
              * modrep.standard_injective(cat_quiver2, F2, "x").dims[z])
        ey = a.dims[z] - ex
        perm = list(range(ex, ex + ey)) + list(range(ex))
        comps[z] = Mat(a.dims[z], a.dims[z], tuple(
            tuple(F2.one() if perm[i] == k else F2.zero()
                  for k in range(a.dims[z])) for i in range(a.dims[z])))
    iso = modrep.make_module_map(a, b, comps, check=True)
    for z in cat_quiver2.objects:
        assert linalg.is_invertible(F2, iso.components[z])


# ---------------------------------------------------------------------------
# restriction and coinduction

def test_restriction_filters(cat_quiver2):
    sub = fincat.full_subcategory(cat_quiver2, ["y"])
    v = dense_sheaf_module(cat_quiver2, F2)
    r = modrep.restriction(cat_quiver2, sub, v)
    assert r.dims == {"y": 1}
    assert set(r.action) == {"1_y"}
    with pytest.raises(NotFullSubcategory):
        modrep.restriction(cat_quiver2, sub, constant_module(sub, F2))


def test_coinduction_quiver_point(cat_quiver2):
    sub = fincat.full_subcategory(cat_quiver2, ["y"])
    w = constant_module(sub, F2)
    c, counit = modrep.coinduction_with_counit(cat_quiver2, sub, w)
    assert c.dims == {"x": 2, "y": 1}
    assert linalg.is_invertible(F2, counit.components["y"])
    # the dense sheaf restricts to w, and its unit identifies it with c
    again, unit = modrep.coinduction_unit(
        cat_quiver2, sub, dense_sheaf_module(cat_quiver2, F2))
    assert again == c
    for x in cat_quiver2.objects:
        assert linalg.is_invertible(F2, unit.components[x])


def test_coinduction_from_whole_category(cat_chain3):
    sub = fincat.full_subcategory(cat_chain3, list(cat_chain3.objects))
    v = modrep.random_module(cat_chain3, F3, seed=4, max_dim=2)
    c, unit = modrep.coinduction_unit(cat_chain3, sub, v)
    assert c == modrep.coinduction_with_counit(
        cat_chain3, sub, modrep.restriction(cat_chain3, sub, v))[0]
    for x in cat_chain3.objects:
        assert linalg.is_invertible(F3, unit.components[x])


def test_coinduction_unit_of_a_non_sheaf_is_not_invertible(cat_quiver2):
    # P(x) is no sheaf for the dense rule, whose core is {y}: coinducing
    # its restriction gives dims x: 4 against x: 1
    sub = fincat.full_subcategory(cat_quiver2, ["y"])
    px = modrep.yoneda_module(cat_quiver2, F2, "x")
    c, unit = modrep.coinduction_unit(cat_quiver2, sub, px)
    assert dict(c.dims) == {"x": 4, "y": 2}
    assert (unit.components["x"].rows, unit.components["x"].cols) == (4, 1)
    assert not linalg.is_invertible(F2, unit.components["x"])
    assert linalg.is_invertible(F2, unit.components["y"])
    with pytest.raises(NotFullSubcategory):
        modrep.coinduction_unit(cat_quiver2, sub, constant_module(sub, F2))


def test_coinduction_chain_point(cat_chain2):
    sub = fincat.full_subcategory(cat_chain2, ["1"])
    w = constant_module(sub, F2)
    c, _ = modrep.coinduction_with_counit(cat_chain2, sub, w)
    assert c.dims == {"0": 1, "1": 1}
    assert linalg.is_invertible(F2, c.action["0->1"])


def test_coinduction_checks_the_subcategory_once(monkeypatch):
    calls = []

    def counted(cat, sub):
        calls.append(sub)
        return fincat.require_full_subcategory(cat, sub)

    monkeypatch.setattr(modrep, "require_full_subcategory", counted)
    cat = fincat.build_trunc_fi_category(3)
    sub = fincat.full_subcategory(cat, ["2", "3"])
    w = modrep.random_module(sub, F2, seed=1, max_dim=2)
    coind, counit = modrep.coinduction_with_counit(cat, sub, w)
    assert calls == [sub]
    assert counit.target == w
    assert counit.source == modrep.restriction(cat, sub, coind)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=50))
def test_coinduction_adjoint_dimension(seed):
    # maps from a restriction match maps into the coinduction
    cat = quiver2()
    sub = fincat.full_subcategory(cat, ["y"])
    v = modrep.random_module(cat, F2, seed=seed, max_dim=2)
    w = modrep.random_module(sub, F2, seed=seed + 1000, max_dim=2)
    left = modrep.hom_space(modrep.restriction(cat, sub, v), w)
    right = modrep.hom_space(v, modrep.coinduction_with_counit(cat, sub, w)[0])
    assert len(left) == len(right)


# ---------------------------------------------------------------------------
# sampling

def test_random_module_is_deterministic(cat_diamond):
    a = modrep.random_module(cat_diamond, F2, seed=7, max_dim=3)
    b = modrep.random_module(cat_diamond, F2, seed=7, max_dim=3)
    assert a == b
    c = modrep.random_module(cat_diamond, F2, seed=8, max_dim=3)
    assert a != c or a.dims == c.dims  # different seeds may rarely collide


def test_random_module_respects_cap_and_functoriality(cat_diamond):
    for seed in range(8):
        v = modrep.random_module(cat_diamond, QQ, seed=seed, max_dim=2)
        assert all(d <= 2 for d in v.dims.values())
        modrep.make_module(cat_diamond, QQ, v.dims, v.action, check=True)


GOLDEN_STREAM = os.path.join(os.path.dirname(__file__), "data", "golden",
                             "random_modules.json")


def stream_categories() -> dict[str, fincat.FiniteCategory]:
    orbit, _ = fincat.build_orbit_category(fincat.cyclic_group_table(3),
                                           name="orbit_C3")
    return {"quiver2": quiver2(), "chain3": chain(3), "diamond": diamond(),
            "trunc_fi2": fincat.build_trunc_fi_category(2), "orbit_C3": orbit,
            "idem_monoid": idem_monoid()}


def test_random_module_stream_is_pinned():
    # module_to_doc of every seeded sample, and the torsion inclusions of a
    # few of them under every topology (which pins the basis order that
    # submodule_from_spans selects), as the stream stood when pinned
    with open(GOLDEN_STREAM, encoding="utf-8") as handle:
        golden = json.load(handle)
    modules, inclusions = {}, {}
    for name, cat in stream_categories().items():
        tops = topology.enumerate_topologies(cat)
        for field in (F2, F3, QQ):
            for seed in range(10):
                for max_dim in (1, 2, 3):
                    v = modrep.random_module(cat, field, seed, max_dim)
                    key = f"{name}/{field.label()}/{seed}/{max_dim}"
                    modules[key] = modrep.module_to_doc(v)
                    if seed < 3 and max_dim == 3:
                        for i, j in enumerate(tops):
                            _, incl = torsion.torsion_submodule(cat, j, v)
                            inclusions[f"{key}/{i}"] = {
                                x: linalg.mat_to_strings(field,
                                                         incl.components[x])
                                for x in cat.objects}
    assert modules == golden["modules"]
    assert inclusions == golden["torsion_inclusions"]


@pytest.mark.parametrize("field", (F2, F3, QQ))
def test_random_module_builds_one_quotient(monkeypatch, field):
    calls = []
    quotient = modrep._quotient

    def counted(v, spans):
        calls.append(v)
        return quotient(v, spans)

    monkeypatch.setattr(modrep, "_quotient", counted)
    for name, cat in stream_categories().items():
        for seed in range(10):
            calls.clear()
            modrep.random_module(cat, field, seed, max_dim=1)
            assert len(calls) == 1, (name, seed)


def test_all_vectors_finite_only():
    assert len(list(modrep.all_vectors(F3, 2))) == 9
    with pytest.raises(Exception):
        list(modrep.all_vectors(QQ, 1))


# ---------------------------------------------------------------------------
# the hand-built relabelling loops and the two-elimination quotient, kept as
# oracles of the shared relabelling helper and the one-elimination quotient

def old_yoneda_module(cat, field, x):
    basis = {y: cat.hom(x, y) for y in cat.objects}
    action = {}
    for u in cat.morphisms:
        src, dst = basis[cat.dom[u]], basis[cat.cod[u]]
        index = {h: i for i, h in enumerate(dst)}
        cols = []
        for f in src:
            col = [field.zero()] * len(dst)
            col[index[cat.compose(u, f)]] = field.one()
            cols.append(tuple(col))
        action[u] = linalg.from_cols(cols, rows=len(dst))
    return modrep.make_module(cat, field, {y: len(basis[y]) for y in basis},
                              action, check=False)


def old_standard_injective(cat, field, x):
    basis = {y: cat.hom(y, x) for y in cat.objects}
    action = {}
    for u in cat.morphisms:
        src, dst = basis[cat.dom[u]], basis[cat.cod[u]]
        index = {h: i for i, h in enumerate(src)}
        rows = []
        for h in dst:
            row = [field.zero()] * len(src)
            row[index[cat.compose(h, u)]] = field.one()
            rows.append(tuple(row))
        action[u] = Mat(len(dst), len(src), tuple(rows))
    return modrep.make_module(cat, field, {y: len(basis[y]) for y in basis},
                              action, check=False)


def old_sieve_quotient_module(cat, field, s):
    x = s.base
    ambient = old_yoneda_module(cat, field, x)
    mset = s.member_set

    def part_module(inside):
        basis = {y: tuple(f for f in cat.hom(x, y) if (f in mset) == inside)
                 for y in cat.objects}
        action = {}
        for u in cat.morphisms:
            src, dst = basis[cat.dom[u]], basis[cat.cod[u]]
            index = {h: i for i, h in enumerate(dst)}
            cols = []
            for f in src:
                col = [field.zero()] * len(dst)
                uf = cat.compose(u, f)
                if (uf in mset) == inside:
                    col[index[uf]] = field.one()
                cols.append(tuple(col))
            action[u] = linalg.from_cols(cols, rows=len(dst))
        return modrep.make_module(cat, field,
                                  {y: len(basis[y]) for y in basis}, action,
                                  check=False), basis

    (sub, labels), (quotient, _) = part_module(True), part_module(False)

    def unit_columns(labels, y):
        index = {h: i for i, h in enumerate(cat.hom(x, y))}
        cols = []
        for f in labels[y]:
            col = [field.zero()] * len(index)
            col[index[f]] = field.one()
            cols.append(tuple(col))
        return linalg.from_cols(cols, rows=len(index))

    inclusion = modrep.make_module_map(
        sub, ambient, {y: unit_columns(labels, y) for y in cat.objects})
    return modrep.SievePresentation(
        base=x, ambient=ambient, sub=sub, inclusion=inclusion,
        quotient=quotient)


def old_inverse(field, a):
    x = linalg.solve_matrix(field, a, linalg.identity(field, a.rows))
    assert linalg.matmul(field, a, x) == linalg.identity(field, a.rows)
    return x


def old_quotient_module(v, sub_inclusion):
    field, cat = v.field, v.cat
    reps, projections, dims = {}, {}, {}
    for x in cat.objects:
        b = sub_inclusion.components[x]
        n = v.dims[x]
        stacked = hstack([b, linalg.identity(field, n)], rows=n)
        pivots = linalg.rref(field, stacked)[1]
        sub_cols = [b.col(p) for p in pivots if p < b.cols]
        comp_cols = [stacked.col(p) for p in pivots if p >= b.cols]
        dims[x] = n - len(sub_cols)
        reps[x] = linalg.from_cols(comp_cols, rows=n)
        if n == 0:
            projections[x] = linalg.zeros(field, 0, 0)
            continue
        inv = old_inverse(field, linalg.from_cols(sub_cols + comp_cols, rows=n))
        projections[x] = Mat(dims[x], n, inv.entries[len(sub_cols):])
    action = {f: linalg.matmul(field, projections[cat.cod[f]],
                               linalg.matmul(field, v.action[f],
                                             reps[cat.dom[f]]))
              for f in cat.morphisms}
    # the full scans over every pair and every morphism check the result
    violations = old_module_violations(cat, field, dims, action)
    if violations:
        raise ValidationFailed("module", violations)
    q = modrep.make_module(cat, field, dims, action, check=False)
    violations = old_naturality_violations(v, q, projections)
    if violations:
        raise ValidationFailed("module map", violations)
    return q, modrep.make_module_map(v, q, projections, check=False)


def module_bytes(v):
    return modrep.module_to_doc(v)


def map_bytes(m):
    return {x: linalg.mat_to_strings(m.source.field, m.components[x])
            for x in m.source.cat.objects}


FIXTURES = ei_fixture_categories() + [idem_monoid()]
fixtures = st.sampled_from(FIXTURES)
fields = st.sampled_from((F2, F3, QQ))


@settings(max_examples=25, deadline=None)
@given(cat=fixtures, field=fields)
def test_relabelled_modules_match_hand_built(cat, field):
    for x in cat.objects:
        assert (module_bytes(modrep.yoneda_module(cat, field, x))
                == module_bytes(old_yoneda_module(cat, field, x)))
        assert (module_bytes(modrep.standard_injective(cat, field, x))
                == module_bytes(old_standard_injective(cat, field, x)))
        for s in sieves.all_sieves(cat, x):
            new = modrep.sieve_quotient_module(cat, field, s)
            old = old_sieve_quotient_module(cat, field, s)
            assert new.base == old.base
            for part in ("ambient", "sub", "quotient"):
                assert (module_bytes(getattr(new, part))
                        == module_bytes(getattr(old, part))), part
            assert map_bytes(new.inclusion) == map_bytes(old.inclusion)


def test_sieve_presentation_maps_are_natural():
    # sieve_quotient_module builds its inclusion unchecked
    orbit_s3, _ = fincat.build_orbit_category(
        fincat.symmetric_group_table(3), name="orbit_S3")
    for cat in ei_fixture_categories() + [idem_monoid(), orbit_s3]:
        for field in (F2, QQ):
            for x in cat.objects:
                for s in sieves.all_sieves(cat, x):
                    pres = modrep.sieve_quotient_module(cat, field, s)
                    modrep.make_module_map(pres.sub, pres.ambient,
                                           pres.inclusion.components,
                                           check=True)


# the closure check submodule_from_spans(close=False) made before it left
# the check to _submodule's solves, kept as the oracle: one pass over the
# non-identities, raising at the first image of a basis vector that falls
# outside its span

def old_closure_check(v, spans):
    echelons = {x: linalg.Echelon(v.field, v.dims[x], spans.get(x, ()))
                for x in v.cat.objects}
    for f in modrep._non_identities(v.cat):
        target = echelons[v.cat.cod[f]]
        for b in echelons[v.cat.dom[f]].basis:
            if target.add(v.apply(f, b)):
                raise PreconditionFailed(
                    f"spans not closed under the action at {f}")


@settings(max_examples=60, deadline=None)
@given(cat=fixtures, field=fields, seed=st.integers(0, 10_000),
       data=st.data())
def test_unclosed_spans_fail_as_the_verify_pass_did(cat, field, seed, data):
    v = modrep.random_module(cat, field, seed, 3)
    spans = {x: [tuple(field.of(a) for a in data.draw(
                    st.lists(st.integers(-2, 2), min_size=v.dims[x],
                             max_size=v.dims[x])))
                 for _ in range(data.draw(st.integers(0, 2)))]
             for x in cat.objects}
    try:
        old_closure_check(v, spans)
    except PreconditionFailed as err:
        with pytest.raises(PreconditionFailed) as got:
            modrep.submodule_from_spans(v, spans, close=False)
        assert str(got.value) == str(err)
    else:
        sub, _ = modrep.submodule_from_spans(v, spans, close=False)
        assert (module_bytes(sub)
                == module_bytes(modrep.submodule_from_spans(v, spans)[0]))


def assert_quotients_match(v, incl):
    q, proj = modrep.quotient_module(v, incl)
    q_old, proj_old = old_quotient_module(v, incl)
    assert module_bytes(q) == module_bytes(q_old)
    assert map_bytes(proj) == map_bytes(proj_old)


@settings(max_examples=40, deadline=None)
@given(cat=fixtures, field=fields, seed=st.integers(0, 10_000),
       max_dim=st.integers(0, 3), data=st.data())
def test_quotient_matches_two_elimination_oracle(cat, field, seed, max_dim,
                                                 data):
    v = modrep.random_module(cat, field, seed, max_dim)
    # a saturated random submodule, and the same inclusion with every
    # column repeated (dependent columns)
    spans = {}
    for x in cat.objects:
        if v.dims[x] and data.draw(st.booleans()):
            spans[x] = [tuple(field.of(a) for a in data.draw(
                st.lists(st.integers(-2, 2), min_size=v.dims[x],
                         max_size=v.dims[x])))]
    _, incl = modrep.submodule_from_spans(v, spans)
    assert_quotients_match(v, incl)
    doubled = {x: hstack([incl.components[x]] * 2, rows=v.dims[x])
               for x in cat.objects}
    assert_quotients_match(v, modrep.ModuleMap(incl.source, v, doubled))
    # the image of a random combination of maps w -> v
    w = modrep.random_module(cat, field, seed + 1, 2)
    basis = modrep.hom_space(w, v)
    coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(basis),
                                max_size=len(basis)))
    combo = [field.zero()] * sum(v.dims[x] * w.dims[x] for x in cat.objects)
    for c, h in zip(coeffs, basis):
        combo = [field.of(a + c * b)
                 for a, b in zip(combo, modrep.map_to_vector(h))]
    h = modrep.make_module_map(
        w, v, modrep.map_from_vector(w, v, tuple(combo)).components)
    assert_quotients_match(v, h)
    # the cokernel quotients by h's columns; the oracle by the built image
    coker, proj = modrep.cokernel_of_map(h)
    coker_old, proj_old = old_quotient_module(v, image_of_map(h)[1])
    assert module_bytes(coker) == module_bytes(coker_old)
    assert map_bytes(proj) == map_bytes(proj_old)


def test_quotient_with_dependent_columns_and_zero_objects(cat_quiver2):
    # P(y) is zero at x; the doubled inclusion repeats every column
    for field in (F2, F3, QQ):
        v = modrep.direct_sum(cat_quiver2, field, [
            modrep.yoneda_module(cat_quiver2, field, "x"),
            modrep.yoneda_module(cat_quiver2, field, "y")])
        assert v.dims["x"] == 1
        py = modrep.yoneda_module(cat_quiver2, field, "y")
        assert py.dims["x"] == 0
        s = sieves.make_sieve(cat_quiver2, "x", ["f"])
        incl = modrep.sieve_quotient_module(cat_quiver2, field, s).inclusion
        assert_quotients_match(incl.target, incl)
        doubled = modrep.ModuleMap(incl.source, incl.target, {
            x: hstack([incl.components[x]] * 2,
                             rows=incl.target.dims[x])
            for x in cat_quiver2.objects})
        assert_quotients_match(incl.target, doubled)
        _, zero_incl = modrep.submodule_from_spans(py, {})
        assert_quotients_match(py, zero_incl)
        _, all_incl = modrep.submodule_from_spans(v, {"x": [(field.one(), )]})
        q, _ = modrep.quotient_module(v, all_incl)
        assert q.dims == {"x": 0, "y": 1}
        assert_quotients_match(v, all_incl)


def test_quotient_refuses_a_span_not_closed(cat_quiver2):
    # 1_x spans P(x) at x, but its images f and g are not in the zero span
    # at y: the projection is not natural, so the quotient's checks refuse
    for field in (F2, F3, QQ):
        px = modrep.yoneda_module(cat_quiver2, field, "x")
        spans = {"x": linalg.identity(field, 1), "y": linalg.zeros(field, 2, 0)}
        with pytest.raises(ValidationFailed):
            modrep._quotient(px, spans)
        with pytest.raises(ValidationFailed):
            modrep.quotient_module(px, modrep.ModuleMap(px, px, spans))
        # the unit at y alone spans a closed subspace: accepted
        y0 = linalg.Mat(2, 1, ((field.one(),), (field.zero(),)))
        q, _ = modrep._quotient(px, {"x": linalg.zeros(field, 1, 0), "y": y0})
        assert q.dims == {"x": 1, "y": 1}


def quotient_outcome(build):
    """The quotient and projection as bytes, or the refusal: its type,
    subject and violation list."""
    try:
        q, proj = build()
    except ValidationFailed as err:
        return ("refused", type(err).__name__, err.subject, err.violations)
    return ("built", module_bytes(q), map_bytes(proj))


def semisimple_module(cat, field, support):
    """k at the objects of support, 0 elsewhere, every non-identity acting
    by 0: a module whenever no two non-identities compose to an identity
    (None otherwise, by the full scan)."""
    dims = {x: int(x in support) for x in cat.objects}
    action = {f: (linalg.identity(field, dims[cat.dom[f]])
                  if cat.is_identity(f)
                  else linalg.zeros(field, dims[cat.cod[f]], dims[cat.dom[f]]))
              for f in cat.morphisms}
    if old_module_violations(cat, field, dims, action):
        return None
    return modrep.make_module(cat, field, dims, action, check=False)


def quotient_inputs(cat, field):
    """Modules with zero-dimensional objects among them: sampled ones, the
    representables, and semisimple ones on each single object and on all
    objects but one."""
    out = [modrep.random_module(cat, field, seed, max_dim)
           for seed in range(3) for max_dim in (1, 2)]
    out.extend(modrep.yoneda_module(cat, field, x) for x in cat.objects)
    for x in cat.objects:
        for support in ({x}, set(cat.objects) - {x}):
            v = semisimple_module(cat, field, support)
            if v is not None:
                out.append(v)
    return out


@pytest.mark.parametrize("cat", FIXTURES, ids=lambda c: c.name)
@pytest.mark.parametrize("field", (F2, F3, QQ), ids=lambda f: f.label())
def test_quotients_match_the_oracle_on_every_fixture(cat, field):
    # _quotient, through quotient_module, against the two-elimination
    # oracle and its full scans: closed spans, the same spans with every
    # column repeated (dependent columns), and spans drawn at random,
    # which are mostly not closed; byte-equal results, or the same
    # refusal with the same violations
    rng = random.Random(f"quotients:{cat.name}:{field.label()}")
    kinds = {"built": 0, "refused": 0}
    zero_objects = 0
    for v in quotient_inputs(cat, field):
        zero_objects += any(v.dims[x] == 0 for x in cat.objects)
        for _ in range(4):
            drawn = {x: [tuple(field.of(rng.randint(-1, 2))
                               for _ in range(v.dims[x]))
                         for _ in range(rng.randint(0, 2))]
                     for x in cat.objects if v.dims[x]}
            _, incl = modrep.submodule_from_spans(v, drawn)
            raw = {x: linalg.from_cols(drawn.get(x, []), rows=v.dims[x])
                   for x in cat.objects}
            for comps in (incl.components,
                          {x: hstack([m, m], rows=m.rows)
                           for x, m in incl.components.items()},
                          raw):
                sub = modrep.ModuleMap(incl.source, v, comps)
                got = quotient_outcome(lambda: modrep.quotient_module(v, sub))
                assert got == quotient_outcome(
                    lambda: old_quotient_module(v, sub))
                kinds[got[0]] += 1
    assert zero_objects and all(kinds.values()), (zero_objects, kinds)


@pytest.mark.parametrize("cat", FIXTURES, ids=lambda c: c.name)
@pytest.mark.parametrize("field", (F2, F3, QQ), ids=lambda f: f.label())
def test_cokernels_and_samples_match_the_oracle(cat, field, monkeypatch):
    # cokernel_of_map hands the map's columns to _quotient; the oracle
    # quotients by the built image. random_module ends in _quotient; with
    # the oracle in its place the stream gives the same modules
    modules = quotient_inputs(cat, field)[::2]
    rng = random.Random(f"cokernels:{cat.name}:{field.label()}")
    for v in modules:
        for w in modules:
            for h in modrep.hom_space(w, v)[:2]:
                coeff = field.of(rng.randint(1, 2))
                h = modrep.map_from_vector(w, v, tuple(
                    field.of(coeff * a) for a in modrep.map_to_vector(h)))
                assert quotient_outcome(
                    lambda: modrep.cokernel_of_map(h)) == quotient_outcome(
                    lambda: old_quotient_module(v, image_of_map(h)[1]))
    new = [module_bytes(modrep.random_module(cat, field, seed, max_dim))
           for seed in range(6) for max_dim in (0, 1, 2, 3)]
    monkeypatch.setattr(modrep, "_quotient", lambda v, spans: (
        old_quotient_module(v, types.SimpleNamespace(components=spans))))
    assert new == [module_bytes(modrep.random_module(cat, field, seed, max_dim))
                   for seed in range(6) for max_dim in (0, 1, 2, 3)]


# ---------------------------------------------------------------------------
# representables and sieve presentations are built once per category

def test_kept_modules_equal_fresh_builds():
    # fresh categories, so the first call builds and the second reads the
    # kept value; both equal the hand-built oracles byte for byte
    for cat in ei_fixture_categories() + [idem_monoid()]:
        shown = repr(cat)
        for field in (F2, F3, QQ):
            for x in cat.objects:
                p = modrep.yoneda_module(cat, field, x)
                assert modrep.yoneda_module(cat, field, x) is p
                assert module_bytes(p) == module_bytes(
                    old_yoneda_module(cat, field, x))
                for s in sieves.all_sieves(cat, x):
                    pres = modrep.sieve_quotient_module(cat, field, s)
                    assert modrep.sieve_quotient_module(cat, field, s) is pres
                    assert pres.ambient is p
                    old = old_sieve_quotient_module(cat, field, s)
                    for part in ("ambient", "sub", "quotient"):
                        assert (module_bytes(getattr(pres, part))
                                == module_bytes(getattr(old, part))), part
                    assert map_bytes(pres.inclusion) == map_bytes(
                        old.inclusion)
        # a field never mixes with another, nor an object with a sieve
        assert len(modrep._built(cat)) == 3 * sum(
            1 + len(sieves.all_sieves(cat, x)) for x in cat.objects)
        # kept outside the record's fields
        assert repr(cat) == shown
        copy = pickle.loads(pickle.dumps(cat))
        assert copy == cat and "_modrep_built" not in vars(copy)
    with pytest.raises(ValidationFailed):
        modrep.yoneda_module(quiver2(), F2, "nowhere")


def test_one_build_per_representable_and_presentation(monkeypatch):
    # a sheaf verdict, a torsion-pair probe and a rigid-equivalence probe
    # on one fixture ask for the same representables and presentations
    # many times; each distinct one is built once, on its own category
    # (the rigid probe samples over a subcategory too)
    asked, builds = [], []
    yoneda = modrep.yoneda_module
    present = modrep.sieve_quotient_module
    build = modrep._postcomposition_module

    def counted_yoneda(cat, field, x):
        asked.append((cat, field, x))
        return yoneda(cat, field, x)

    def counted_present(cat, field, s):
        asked.append((cat, field, s))
        return present(cat, field, s)

    def counted_build(cat, field, basis):
        builds.append(cat)
        return build(cat, field, basis)

    monkeypatch.setattr(modrep, "yoneda_module", counted_yoneda)
    monkeypatch.setattr(modrep, "sieve_quotient_module", counted_present)
    monkeypatch.setattr(modrep, "_postcomposition_module", counted_build)
    cat = chain(3)
    rules = [j for j in topology.enumerate_topologies(cat)
             if topology.rigidity(cat, j).rigid]
    j = rules[len(rules) // 2]
    for field in (F2, F3):
        for seed in range(3):
            v = modrep.random_module(cat, field, seed, 2)
            assert sheaves.sheaf_verdict(cat, j, v).consistent
        torsion.verify_torsion_pair(cat, j, field, sample_count=3)
        sheaves.verify_rigid_equivalence(cat, j, field, sample_count=3)
    distinct = {(id(c), field, key) for c, field, key in asked}
    presentations = sum(isinstance(key, sieves.Sieve)
                        for _, _, key in distinct)
    assert presentations > 0
    assert len(asked) > 2 * len(distinct)
    # one build per representable, two (sub and quotient) per presentation
    assert len(builds) == len(distinct) + presentations


def test_standard_injectives_are_built_once(monkeypatch):
    # the first embedding builds one injective per object and field; a
    # second embedding on the same category builds none, and gives the
    # same injective hull as the first
    relabels = []
    relabel = modrep._relabel

    def counted(*args):
        relabels.append(args)
        return relabel(*args)

    monkeypatch.setattr(modrep, "_relabel", counted)
    for cat in ei_fixture_categories():
        for field in (F2, F3):
            v = modrep.random_module(cat, field, 1, 2)
            first, iota = modrep.canonical_injective_embedding(v)
            relabels.clear()
            again, iota_again = modrep.canonical_injective_embedding(v)
            assert relabels == []
            assert again == first and iota_again == iota
            for x in cat.objects:
                ix = modrep.standard_injective(cat, field, x)
                assert modrep.standard_injective(cat, field, x) is ix
                assert module_bytes(ix) == module_bytes(
                    old_standard_injective(cat, field, x))


# ---------------------------------------------------------------------------
# identities act as identities: the full scans over every composable pair
# and every morphism, kept as oracles of the scans that skip identities

def old_module_violations(cat, field, dims, action):
    violations = []
    for x in cat.objects:
        if x not in dims or dims[x] < 0:
            violations.append(Violation(SHAPE_VIOLATION, (x,),
                                        "missing or negative dimension"))
    for extra in sorted(set(dims) - set(cat.objects)):
        violations.append(Violation(SHAPE_VIOLATION, (extra,),
                                    "unknown object"))
    if violations:
        return violations
    for f in cat.morphisms:
        m = action.get(f)
        if m is None:
            violations.append(Violation(SHAPE_VIOLATION, (f,),
                                        "missing matrix"))
            continue
        want = (dims[cat.cod[f]], dims[cat.dom[f]])
        if (m.rows, m.cols) != want:
            violations.append(Violation(SHAPE_VIOLATION, (f, m.rows, m.cols),
                                        f"expected {want[0]}x{want[1]}"))
    if violations:
        return violations
    for x in cat.objects:
        if action[cat.identity[x]] != linalg.identity(field, dims[x]):
            violations.append(Violation(NON_IDENTITY_AT_OBJECT, (x,)))
    for (g, f), gf in cat.compose_table.items():
        if linalg.matmul(field, action[g], action[f]) != action[gf]:
            violations.append(Violation(FUNCTORIALITY_VIOLATION, (g, f)))
    return violations


def old_naturality_violations(source, target, components):
    """The naturality scan at every morphism, identities included; the
    components are assumed to have the right shapes."""
    field, cat = source.field, source.cat
    return [Violation(NATURALITY_VIOLATION, (f,)) for f in cat.morphisms
            if linalg.matmul(field, components[cat.cod[f]], source.action[f])
            != linalg.matmul(field, target.action[f], components[cat.dom[f]])]


def old_naturality_rows(v, w):
    field, cat = v.field, v.cat
    layout = {x: (r, c, off) for x, r, c, off in modrep._map_layout(v, w)}
    n = sum(r * c for r, c, _ in layout.values())
    rows = []
    for f in cat.morphisms:
        x, y = cat.dom[f], cat.cod[f]
        vf, wf = v.action[f], w.action[f]
        ry, cy, offy = layout[y]
        rx, cx, offx = layout[x]
        for a in range(ry):
            for b in range(cx):
                row = [field.zero()] * n
                for c in range(cy):
                    row[offy + a * cy + c] = vf.entries[c][b]
                for d in range(rx):
                    row[offx + d * cx + b] = field.sub(row[offx + d * cx + b],
                                                       wf.entries[a][d])
                rows.append(tuple(row))
    return n, rows


def old_hom_space(v, w):
    n, rows = old_naturality_rows(v, w)
    if n == 0:
        return []
    a = Mat(len(rows), n, tuple(rows))
    return [modrep.map_from_vector(v, w, k)
            for k in linalg.kernel_basis(v.field, a)]


def sample_modules(cat, field):
    """Valid modules of every size the sampler makes, and the stock ones."""
    out = [modrep.random_module(cat, field, seed, max_dim)
           for seed in range(4) for max_dim in (1, 2, 3)]
    out.append(constant_module(cat, field))
    out.extend(modrep.yoneda_module(cat, field, x) for x in cat.objects)
    out.extend(modrep.standard_injective(cat, field, x) for x in cat.objects)
    # zero-dimensional objects between nonzero ones: the products through
    # them are zero matrices with entries, which the scans still compare
    for x in cat.objects:
        v = semisimple_module(cat, field, set(cat.objects) - {x})
        if v is not None:
            out.append(v)
    return out


def changed(field, m):
    """m with its first entry moved by one."""
    rows = [list(r) for r in m.entries]
    rows[0][0] = field.of(rows[0][0] + 1)
    return Mat(m.rows, m.cols, tuple(map(tuple, rows)))


def corruptions(v):
    """(label, action) for broken copies of a valid module's action: a bad
    identity, a bad non-identity matrix, both, and a bad shape."""
    cat, field = v.cat, v.field
    ids = [cat.identity[x] for x in cat.objects if v.dims[x]]
    others = [f for f in cat.morphisms if not cat.is_identity(f)
              and v.action[f].rows and v.action[f].cols]
    out = []
    for i in ids[:2]:
        out.append(("identity", dict(v.action, **{i: changed(field, v.action[i])})))
    for f in others[:3]:
        out.append(("composite", dict(v.action, **{f: changed(field, v.action[f])})))
    if ids and others:
        out.append(("both", dict(v.action, **{
            ids[-1]: changed(field, v.action[ids[-1]]),
            others[-1]: changed(field, v.action[others[-1]])})))
    f = cat.morphisms[-1]
    m = v.action[f]
    out.append(("shape", dict(v.action, **{
        f: linalg.zeros(field, m.rows + 1, m.cols)})))
    return out


@pytest.mark.parametrize("cat", FIXTURES, ids=lambda c: c.name)
@pytest.mark.parametrize("field", (F2, F3, QQ), ids=lambda f: f.label())
def test_module_violations_match_the_full_scan(cat, field):
    kinds = set()
    for v in sample_modules(cat, field):
        assert modrep._module_violations(cat, field, v.dims, v.action) == []
        assert old_module_violations(cat, field, v.dims, v.action) == []
        for label, action in corruptions(v):
            got = modrep._module_violations(cat, field, v.dims, action)
            assert got == old_module_violations(cat, field, v.dims, action)
            if not got:
                # a new matrix at a morphism that is no factor of a
                # composable pair can still make a module
                assert label == "composite", label
                continue
            kinds.add(label)
            if 0 in v.dims.values():
                kinds.add(label + " with a zero object")
            with pytest.raises(ValidationFailed) as err:
                modrep.make_module(cat, field, v.dims, action)
            assert err.value.violations == got
    assert {"identity", "shape"} <= kinds
    pairs = any(not cat.is_identity(g) and not cat.is_identity(f)
                for g, f in cat.compose_table)
    if pairs:
        assert {"composite", "both"} <= kinds
    # a zero object beside a nonzero one needs two objects
    if len(cat.objects) > 1:
        assert "identity with a zero object" in kinds
        if pairs:
            assert "composite with a zero object" in kinds


@pytest.mark.parametrize("cat", FIXTURES, ids=lambda c: c.name)
@pytest.mark.parametrize("field", (F2, F3, QQ), ids=lambda f: f.label())
def test_naturality_and_hom_spaces_match_the_full_scans(cat, field):
    modules = sample_modules(cat, field)[::2]
    rng = random.Random(f"{cat.name}:{field.label()}")
    verdicts = set()
    for v in modules:
        for w in modules:
            basis = modrep.hom_space(v, w)
            old = old_hom_space(v, w)
            assert [map_bytes(m) for m in basis] == [map_bytes(m) for m in old]
            # every map, natural or not, gets the full scan's verdict
            n = sum(v.dims[x] * w.dims[x] for x in cat.objects)
            vectors = [modrep.map_to_vector(m) for m in basis[:2]]
            vectors.extend(tuple(field.of(rng.randint(-2, 2)) for _ in range(n))
                           for _ in range(3))
            for vec in vectors:
                comps = modrep.map_from_vector(v, w, vec).components
                want = old_naturality_violations(v, w, comps)
                verdicts.add(not want)
                if want and 0 in {**v.dims, **w.dims}.values():
                    verdicts.add("refused with a zero object")
                if want:
                    with pytest.raises(ValidationFailed) as err:
                        modrep.make_module_map(v, w, comps)
                    assert err.value.violations == want
                else:
                    modrep.make_module_map(v, w, comps)
    assert {True, False} <= verdicts
    # a square with entries at both ends, on a pair with a zero object
    if any(0 in {**v.dims, **w.dims}.values()
           and any(w.dims[cat.cod[f]] and v.dims[cat.dom[f]]
                   for f in cat.morphisms if not cat.is_identity(f))
           for v in modules for w in modules):
        assert "refused with a zero object" in verdicts


def test_unchecked_builders_act_by_identities():
    # the scans skip identity terms because every module passes the
    # identity check; the builders that run with check=False keep it so
    for cat in FIXTURES:
        for field in (F2, F3, QQ):
            built = [modrep.zero_module(cat, field)]
            for x in cat.objects:
                built.append(modrep.yoneda_module(cat, field, x))
                built.append(modrep.standard_injective(cat, field, x))
                for s in sieves.all_sieves(cat, x):
                    pres = modrep.sieve_quotient_module(cat, field, s)
                    built.extend([pres.sub, pres.quotient])
            built.append(modrep.direct_sum(cat, field, built[1:4]))
            v = modrep.random_module(cat, field, 7, 2)
            w = modrep.random_module(cat, field, 8, 2)
            built.append(modrep.canonical_injective_embedding(v)[0])
            spans = {x: [tuple(field.one() for _ in range(v.dims[x]))]
                     for x in cat.objects if v.dims[x]}
            built.append(modrep.submodule_from_spans(v, spans)[0])
            maps = modrep.hom_space(v, w)
            built.extend(modrep.kernel_of_map(m)[0] for m in maps[:2])
            sub = fincat.full_subcategory(cat, cat.objects[1:])
            built.append(modrep._restrict(sub, v))
            for m in built:
                assert old_module_violations(
                    m.cat, field, m.dims, m.action) == [], m
            # map_from_vector and compose_maps build maps unchecked
            ends = modrep.hom_space(w, w)
            for m in maps + [modrep.compose_maps(e, m)
                             for e in ends[:2] for m in maps[:2]]:
                assert old_naturality_violations(
                    m.source, m.target, m.components) == []


def test_identity_terms_make_no_products(monkeypatch):
    # diamond: 5 morphisms that are not identities, and 16 composable
    # pairs of which only (a->1, 0->a) and (b->1, 0->b) have no identity
    cat = diamond()
    products = []
    matmul = linalg.matmul

    def counted(field, a, b):
        products.append((a, b))
        return matmul(field, a, b)

    for field in (F2, QQ):
        v = constant_module(cat, field)
        monkeypatch.setattr(linalg, "matmul", counted)
        products.clear()
        modrep.make_module(cat, field, v.dims, v.action)
        assert len(products) == 2
        # a failed identity makes the scan complete again
        products.clear()
        bad = dict(v.action, **{"1_a": linalg.zeros(field, 1, 1)})
        with pytest.raises(ValidationFailed):
            modrep.make_module(cat, field, v.dims, bad)
        assert len(products) == len(cat.compose_table) == 16
        # naturality: two products per morphism that is no identity
        products.clear()
        modrep.make_module_map(v, v, {x: linalg.identity(field, 1)
                                      for x in cat.objects})
        assert len(products) == 2 * 5
        monkeypatch.undo()
        # one block of rows per morphism that is no identity
        _, rows = modrep._naturality_rows(v, v)
        assert len(rows) == 5
        assert len(old_naturality_rows(v, v)[1]) == len(cat.morphisms) == 9


def zero_bottom_diamond(field):
    """The diamond module with k at a, b and 1 and 0 at 0, every arrow
    between nonzero objects acting by 1."""
    one, none = linalg.identity(field, 1), linalg.zeros(field, 1, 0)
    return modrep.make_module(diamond(), field, {"0": 0, "a": 1, "b": 1, "1": 1}, {
        "1_0": linalg.zeros(field, 0, 0), "1_a": one, "1_b": one,
        "1_1": one, "0->a": none, "0->b": none, "0->1": none,
        "a->1": one, "b->1": one})


def test_zero_terms_make_no_products(monkeypatch):
    # diamond with k at a, b and 1 and 0 at 0, every arrow between nonzero
    # objects acting by 1: the two composable pairs of non-identities
    # start at 0, and of the five arrows only a->1 and b->1 have a
    # nonzero space at both ends. A product with a zero dimension is
    # linalg's shared zero, no arithmetic, so only the others count.
    cat = diamond()
    products = []
    matmul = linalg.matmul

    def counted(field, a, b):
        if a.rows and a.cols and b.cols:
            products.append((a.rows, a.cols, b.cols))
        return matmul(field, a, b)

    for field in (F2, QQ):
        one = linalg.identity(field, 1)
        v = zero_bottom_diamond(field)
        monkeypatch.setattr(linalg, "matmul", counted)
        products.clear()
        modrep.make_module(cat, field, v.dims, v.action)
        assert products == []
        # a failed identity makes every pair count again, but the nine of
        # the 16 pairs that start at 0 still have no entries
        products.clear()
        bad = dict(v.action, **{"1_a": linalg.zeros(field, 1, 1)})
        with pytest.raises(ValidationFailed):
            modrep.make_module(cat, field, v.dims, bad)
        assert len(products) == 16 - 9
        # naturality: two products at a->1 and two at b->1
        products.clear()
        modrep.make_module_map(v, v, {x: linalg.identity(field, v.dims[x])
                                      for x in cat.objects})
        assert len(products) == 4
        # the quotient by nothing: M = P_1 A_f and Q_f P_x at a->1 and
        # b->1, and no P B with no columns
        products.clear()
        q, _ = modrep._quotient(v, {x: linalg.zeros(field, v.dims[x], 0)
                                    for x in cat.objects})
        assert module_bytes(q) == module_bytes(v)
        assert len(products) == 4
        # the quotient by all of k at 1: q_1 = 0, so no M, and P B is
        # empty at 1
        products.clear()
        spans = {x: linalg.zeros(field, v.dims[x], 0) for x in cat.objects}
        q, _ = modrep._quotient(v, dict(spans, **{"1": one}))
        assert q.dims == {"0": 0, "a": 1, "b": 1, "1": 0}
        assert products == []
        # the span at a is not closed: q_a = 0, so M = P_1 A_{a->1} is
        # tested for zero (one product), and b->1 takes two
        products.clear()
        with pytest.raises(ValidationFailed) as err:
            modrep._quotient(v, dict(spans, **{"a": one}))
        assert err.value.subject == "module map"
        assert err.value.violations == [
            Violation(NATURALITY_VIOLATION, ("a->1",))]
        assert len(products) == 3
        monkeypatch.undo()


def test_zero_sources_make_no_solves(monkeypatch):
    # the three arrows out of 0 have a zero source, so _submodule,
    # family_module and family_unit do no arithmetic for them, and a->1
    # and b->1 are still solved for. A product with a zero dimension, and
    # a solve with no columns on either side, is fixed by its shape
    # (linalg's zero rule), so only the others count.
    calls = []
    matmul, solve_matrix = linalg.matmul, linalg.solve_matrix

    def counted_matmul(field, a, b):
        if a.rows and a.cols and b.cols:
            calls.append("matmul")
        return matmul(field, a, b)

    def counted_solve(field, a, b):
        if a.cols and b.cols:
            calls.append("solve")
        return solve_matrix(field, a, b)

    for field in (F2, QQ):
        v = zero_bottom_diamond(field)
        one = (field.one(),)
        members = modrep._into(v.cat, v.cat)
        families = {x: modrep.compatible_families(v.cat, v, members[x])
                    for x in v.cat.objects}
        monkeypatch.setattr(linalg, "matmul", counted_matmul)
        monkeypatch.setattr(linalg, "solve_matrix", counted_solve)
        # spans k at a and 1: a->1 is solved for, b->1 starts at a zero span
        sub, _ = modrep._submodule(v, {
            "0": linalg.Echelon(field, 0), "a": linalg.Echelon(field, 1, [one]),
            "b": linalg.Echelon(field, 1), "1": linalg.Echelon(field, 1, [one])})
        assert sub.dims == {"0": 0, "a": 1, "b": 0, "1": 1}
        assert calls == ["matmul", "solve"]
        calls.clear()
        m, _ = modrep.family_module(v.cat, v, members)
        assert m.dims == v.dims
        assert calls.count("solve") == 2
        calls.clear()
        modrep.family_unit(v, m, families)
        assert calls.count("solve") == 3
        monkeypatch.undo()
        calls.clear()


def test_images_into_zero_spaces_are_still_tested(monkeypatch):
    # a term with entries that a check reads is computed even where the
    # matrix it feeds has a zero dimension
    cat = quiver2()
    for field in (F2, F3, QQ):
        px = modrep.yoneda_module(cat, field, "x")
        one = (field.one(),)
        # the image of 1_x under f is not in the zero span at y
        with pytest.raises(PreconditionFailed, match="not closed"):
            modrep._submodule(px, {"x": linalg.Echelon(field, 1, [one]),
                                   "y": linalg.Echelon(field, 2)})
        # nor in the line spanned by g at y
        with pytest.raises(PreconditionFailed, match="not closed"):
            modrep._submodule(px, {
                "x": linalg.Echelon(field, 1, [one]),
                "y": linalg.Echelon(field, 2, [(field.zero(), field.one())])})
        # a family space with blocks but no families: a nonzero induced or
        # reindexed family escapes it
        v = constant_module(chain(2), field)
        members = modrep._into(v.cat, v.cat)
        empty = modrep.CompatibleFamilies(("1_1",), {"1_1": 0},
                                          linalg.zeros(field, 1, 0))
        with pytest.raises(FinsiteError, match="escaped"):
            modrep.induced_family_map(v, "1", empty)
        families = modrep.compatible_families

        def none_at_1(cat, w, members):
            return empty if members == ("1_1",) else families(cat, w, members)

        monkeypatch.setattr(modrep, "compatible_families", none_at_1)
        with pytest.raises(FinsiteError, match="escapes"):
            modrep.family_module(v.cat, v, members)
        monkeypatch.undo()
