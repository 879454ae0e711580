from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsite import fincat, linalg, modrep, sieves, topology, torsion
from finsite.errors import (
    FUNCTORIALITY_VIOLATION,
    NON_IDENTITY_AT_OBJECT,
    SHAPE_VIOLATION,
    FieldMismatch,
    NotFullSubcategory,
    PreconditionFailed,
    SizeBudgetExceeded,
    ValidationFailed,
)
from finsite.linalg import GF, QQ, Mat

from conftest import (
    chain,
    constant_module,
    diamond,
    ei_fixture_categories,
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


def test_quotient_and_exactness(cat_quiver2):
    s = sieves.make_sieve(cat_quiver2, "x", ["f", "g"])
    pres = modrep.sieve_quotient_module(cat_quiver2, F2, s)
    assert pres.sub.dims == {"x": 0, "y": 2}
    assert pres.quotient.dims == {"x": 1, "y": 0}
    img, _ = modrep.image_of_map(pres.inclusion)
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
    quotient = modrep.quotient_module

    def counted(v, incl):
        calls.append(v)
        return quotient(v, incl)

    monkeypatch.setattr(modrep, "quotient_module", counted)
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
        stacked = linalg.hstack([b, linalg.identity(field, n)], rows=n)
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
    q = modrep.make_module(cat, field, dims, action)
    return q, modrep.make_module_map(v, q, projections)


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
    doubled = {x: linalg.hstack([incl.components[x]] * 2, rows=v.dims[x])
               for x in cat.objects}
    assert_quotients_match(v, modrep.ModuleMap(incl.source, v, doubled))
    # the image of a random combination of maps w -> v
    w = modrep.random_module(cat, field, seed + 1, 2)
    basis = modrep.hom_space(w, v)
    coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(basis),
                                max_size=len(basis)))
    combo = [field.zero()] * sum(v.dims[x] * w.dims[x] for x in cat.objects)
    for c, h in zip(coeffs, basis):
        combo = [field.add(a, field.mul(field.of(c), b))
                 for a, b in zip(combo, modrep.map_to_vector(h))]
    assert_quotients_match(v, modrep.make_module_map(
        w, v, modrep.map_from_vector(w, v, tuple(combo)).components))


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
            x: linalg.hstack([incl.components[x]] * 2,
                             rows=incl.target.dims[x])
            for x in cat_quiver2.objects})
        assert_quotients_match(incl.target, doubled)
        _, zero_incl = modrep.submodule_from_spans(py, {})
        assert_quotients_match(py, zero_incl)
        _, all_incl = modrep.submodule_from_spans(v, {"x": [(field.one(), )]})
        q, _ = modrep.quotient_module(v, all_incl)
        assert q.dims == {"x": 0, "y": 1}
        assert_quotients_match(v, all_incl)
