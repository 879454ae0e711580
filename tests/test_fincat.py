from __future__ import annotations

import pytest

from finsite import fincat
from finsite.errors import (
    CyclicQuiver,
    NotAGroupTable,
    NotAPoset,
    SizeBudgetExceeded,
    ValidationFailed,
)


def test_quiver2_shape(cat_quiver2):
    c = cat_quiver2
    assert c.objects == ("x", "y")
    assert set(c.morphisms) == {"1_x", "1_y", "f", "g"}
    assert c.hom("x", "y") == ("f", "g")
    assert c.compose("1_y", "f") == "f"
    assert c.compose("f", "1_x") == "f"


def test_chain3_composition(cat_chain3):
    c = cat_chain3
    assert c.compose("1->2", "0->1") == "0->2"
    assert len(c.morphisms) == 6


def test_validate_category_roundtrip(cat_diamond):
    doc = fincat.category_to_doc(cat_diamond)
    back = fincat.validate_category(doc)
    assert back == cat_diamond


def test_validate_catches_missing_identity(cat_chain2):
    doc = fincat.category_to_doc(cat_chain2)
    doc["identities"].pop("0")
    with pytest.raises(ValidationFailed) as exc:
        fincat.validate_category(doc)
    assert any(v.kind == "MissingIdentity" for v in exc.value.violations)


def test_validate_catches_dangling_endpoint(cat_chain2):
    doc = fincat.category_to_doc(cat_chain2)
    doc["morphisms"].append({"id": "bad", "dom": "0", "cod": "missing"})
    with pytest.raises(ValidationFailed) as exc:
        fincat.validate_category(doc)
    assert any(v.kind == "DanglingEndpoint" for v in exc.value.violations)


def test_validate_catches_duplicate_id(cat_chain2):
    doc = fincat.category_to_doc(cat_chain2)
    doc["morphisms"].append({"id": "0->1", "dom": "0", "cod": "1"})
    with pytest.raises(ValidationFailed) as exc:
        fincat.validate_category(doc)
    assert any(v.kind == "DuplicateId" for v in exc.value.violations)


def test_validate_catches_bad_composite(cat_chain3):
    doc = fincat.category_to_doc(cat_chain3)
    doc["compose"] = [[g, f, ("0->1" if (g, f) == ("1->2", "0->1") else gf)]
                      for g, f, gf in doc["compose"]]
    with pytest.raises(ValidationFailed) as exc:
        fincat.validate_category(doc)
    kinds = {v.kind for v in exc.value.violations}
    assert "BadComposite" in kinds or "NonAssociative" in kinds


def test_validate_catches_nonassociative():
    # three parallel endomaps with a deliberately broken table
    doc = {
        "name": "broken",
        "objects": ["*"],
        "morphisms": [{"id": m, "dom": "*", "cod": "*"} for m in ["1", "a", "b"]],
        "identities": {"*": "1"},
        "compose": [["1", "1", "1"], ["1", "a", "a"], ["1", "b", "b"],
                    ["a", "1", "a"], ["b", "1", "b"],
                    ["a", "a", "b"], ["a", "b", "1"],
                    ["b", "a", "1"], ["b", "b", "a"]],
    }
    # a.(a.a) = a.b = 1 but (a.a).a = b.a = 1 ... craft a genuine failure:
    doc["compose"] = [["1", "1", "1"], ["1", "a", "a"], ["1", "b", "b"],
                      ["a", "1", "a"], ["b", "1", "b"],
                      ["a", "a", "b"], ["a", "b", "b"],
                      ["b", "a", "1"], ["b", "b", "b"]]
    with pytest.raises(ValidationFailed) as exc:
        fincat.validate_category(doc)
    assert any(v.kind == "NonAssociative" for v in exc.value.violations)


def test_poset_rejects_cycle():
    with pytest.raises(NotAPoset):
        fincat.build_poset_category(["a", "b"], [("a", "b"), ("b", "a")])


def test_quiver_rejects_cycle():
    with pytest.raises((CyclicQuiver, SizeBudgetExceeded)):
        fincat.build_quiver_category(["v"], [("loop", "v", "v")])


def test_trunc_fi_hom_sizes():
    c = fincat.build_trunc_fi_category(2)
    assert len(c.hom("1", "2")) == 2
    assert len(c.hom("2", "2")) == 2
    assert len(c.hom("0", "2")) == 1
    assert len(c.hom("2", "1")) == 0


def test_trunc_fi_budget():
    with pytest.raises(SizeBudgetExceeded):
        fincat.build_trunc_fi_category(8)


def test_full_subcategory(cat_trunc_fi2):
    cat = cat_trunc_fi2
    sub = fincat.full_subcategory(cat, ["0", "2"])
    assert sub.objects == ("0", "2")
    assert len(sub.hom("0", "2")) == 1
    assert set(sub.morphisms) == {m for m in cat.morphisms
                                  if {cat.dom[m], cat.cod[m]} <= {"0", "2"}}
    assert fincat.is_full_subcategory(cat, sub)


def test_classify_quiver(cat_quiver2):
    flags = fincat.classify_category(cat_quiver2)
    assert flags.directed and flags.ei and flags.skeletal
    assert not flags.ore


def test_classify_group_and_monoid(cat_idem_monoid):
    # one object: skeletal and antisymmetric hold vacuously, so a group
    # is directed EI; a group is its own Ore completion
    c2 = fincat.build_monoid_category(fincat.cyclic_group_table(2),
                                      element_names=["1", "s"], name="C2")
    flags = fincat.classify_category(c2)
    assert flags.directed and flags.ei and flags.skeletal and flags.ore
    flags2 = fincat.classify_category(cat_idem_monoid)
    assert not flags2.ei
    assert flags2.ore


def test_symmetric_group_table_is_group():
    t = fincat.symmetric_group_table(3)
    assert len(t) == 6
    fincat._check_group_table(t)


def test_all_subgroups_s3():
    t = fincat.symmetric_group_table(3)
    subs = fincat.all_subgroups(t)
    assert sorted(len(s) for s in subs) == [1, 2, 2, 2, 3, 6]


def test_orbit_s3_objects():
    cat, data = fincat.build_orbit_category(fincat.symmetric_group_table(3),
                                            name="orbit_S3")
    assert len(cat.objects) == 4
    assert sorted(data.order_of.values()) == [1, 2, 3, 6]
    flags = fincat.classify_category(cat)
    assert flags.directed and flags.ei and flags.skeletal


def test_orbit_s3_hom_structure():
    cat, data = fincat.build_orbit_category(fincat.symmetric_group_table(3))
    obj = {v: k for k, v in data.order_of.items()}
    # endomorphisms are the Weyl groups N(H)/H
    assert len(cat.hom(obj[1], obj[1])) == 6
    assert len(cat.hom(obj[2], obj[2])) == 1
    assert len(cat.hom(obj[3], obj[3])) == 2
    assert len(cat.hom(obj[6], obj[6])) == 1
    # stored arrows go from big stabilizers to small ones
    assert len(cat.hom(obj[2], obj[1])) == 3
    assert len(cat.hom(obj[3], obj[1])) == 2
    assert len(cat.hom(obj[6], obj[3])) == 1
    assert cat.hom(obj[1], obj[2]) == ()
    assert cat.hom(obj[2], obj[3]) == ()


def test_orbit_rejects_bad_table():
    with pytest.raises(NotAGroupTable):
        fincat.build_orbit_category([[0, 1], [1, 1]])


def test_trunc_vi_counts():
    c = fincat.build_trunc_vi_category(2, 2)
    assert len(c.hom("1", "2")) == 3
    assert len(c.hom("2", "2")) == 6
    assert len(c.hom("0", "1")) == 1


def test_standard_builder_dispatch():
    c = fincat.build_standard_category(
        "poset", {"objects": ["0", "1"], "leq": [["0", "1"]]})
    assert len(c.morphisms) == 3
    with pytest.raises(ValueError):
        fincat.build_standard_category("nope", {})
