from __future__ import annotations

import copy
import itertools
import pickle
from dataclasses import MISSING, dataclass, fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ei_fixture_categories

from finsite import fincat, linalg, topology
from finsite.errors import (
    CyclicQuiver,
    NotAGroupTable,
    NotAPoset,
    NotDirectedEI,
    OreConditionFails,
    Record,
    SizeBudgetExceeded,
    ValidationFailed,
    Violation,
)
from finsite.linalg import FieldSpec
from finsite.sieves import Sieve, all_sieves


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


def build_trunc(kind, args, budget=fincat.DEFAULT_BUDGET):
    return getattr(fincat, f"build_trunc_{kind}_category")(*args,
                                                          budget=budget)


@pytest.mark.parametrize(("kind", "args", "count"), [
    ("fi", (7,), 16_072), ("fi", (8,), 125_673), ("vi", (3, 3), 11_944),
    ("vi", (2, 4), 23_137), ("vi", (5, 3), 1_503_516)])
def test_refused_truncation_builds_nothing(monkeypatch, kind, args, count):
    """The budget is checked on the closed-form morphism count, before any
    injection is drawn or any matrix ranked."""
    drawn, ranked = [], []
    monkeypatch.setattr(itertools, "permutations",
                        lambda *a: drawn.append(a) or iter(()))
    monkeypatch.setattr(linalg, "rank", lambda *a: ranked.append(a))
    with pytest.raises(SizeBudgetExceeded,
                       match=f"^{count} morphisms exceeds budget 4096$"):
        build_trunc(kind, args)
    assert drawn == [] and ranked == []


@pytest.mark.parametrize(("kind", "args"), [
    *[("fi", (n,)) for n in range(5)],
    *[("vi", (q, n)) for q in (2, 3) for n in range(3)]])
def test_truncation_count_is_the_built_count(kind, args):
    """The closed form counts the morphisms the build makes: a budget of
    exactly that many is accepted, one fewer refused."""
    n = len(build_trunc(kind, args).morphisms)
    build_trunc(kind, args, fincat.SizeBudget(max_morphisms=n))
    with pytest.raises(SizeBudgetExceeded, match=f"^{n} morphisms"):
        build_trunc(kind, args, fincat.SizeBudget(max_morphisms=n - 1))


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
    assert flags == fincat.CategoryFlags(directed=True, ei=True)
    # f and g out of x complete to no square: the atomic rule's Ore scan
    with pytest.raises(OreConditionFails):
        topology.named_topology(cat_quiver2, "atomic")


def test_classify_group_and_monoid(cat_idem_monoid):
    # one object: antisymmetry holds vacuously, so a group is directed
    # EI; a group is its own Ore completion, and so is the idempotent
    # monoid, where e completes every cospan
    c2 = fincat.build_monoid_category(fincat.cyclic_group_table(2),
                                      element_names=["1", "s"], name="C2")
    assert c2.objects == ("*",)
    flags = fincat.classify_category(c2)
    assert flags.directed and flags.ei
    flags2 = fincat.classify_category(cat_idem_monoid)
    assert not flags2.ei
    for cat in (c2, cat_idem_monoid):
        atomic = topology.named_topology(cat, "atomic")
        assert atomic.covers_at("*") == [
            s for s in all_sieves(cat, "*") if s.members]


def _iso_pair() -> fincat.FiniteCategory:
    # a and b isomorphic through u and v: EI, but not directed
    morphisms = [("1_a", "a", "a"), ("1_b", "b", "b"),
                 ("u", "a", "b"), ("v", "b", "a")]
    compose = {("v", "u"): "1_a", ("u", "v"): "1_b"}
    for m, dom, cod in morphisms:
        compose[(m, f"1_{dom}")] = m
        compose[(f"1_{cod}", m)] = m
    return fincat.make_category("iso_pair", ["a", "b"], morphisms,
                                {"a": "1_a", "b": "1_b"}, compose)


def test_directed_ei_check_matches_classification(cat_idem_monoid):
    """enumerate_consistent_families accepts exactly the categories that
    classify_category calls directed and EI."""
    cats = [*ei_fixture_categories(), cat_idem_monoid, _iso_pair(),
            fincat.build_monoid_category(fincat.cyclic_group_table(2),
                                         name="C2"),
            fincat.build_orbit_category(fincat.symmetric_group_table(3))[0],
            fincat.build_trunc_vi_category(2, 2)]
    verdicts = set()
    for cat in cats:
        flags = fincat.classify_category(cat)
        if flags.directed and flags.ei:
            rules = topology.enumerate_consistent_families(cat)
            assert len(rules) == 2 ** len(cat.objects), cat.name
        else:
            with pytest.raises(NotDirectedEI):
                topology.enumerate_consistent_families(cat)
        verdicts.add((flags.directed, flags.ei))
    # the list reaches every branch: a non-EI and a non-directed category
    assert verdicts == {(True, True), (True, False), (False, True)}


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
    assert flags.directed and flags.ei


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


# ---------------------------------------------------------------------------
# errors.Record against the frozen dataclasses it replaced, kept as oracles

@dataclass(frozen=True)
class ViolationTwin:
    kind: str
    witness: tuple = ()
    detail: str = ""


@dataclass(frozen=True)
class SizeBudgetTwin:
    max_objects: int = fincat.DEFAULT_MAX_OBJECTS
    max_morphisms: int = fincat.DEFAULT_MAX_MORPHISMS


@dataclass(frozen=True)
class CategoryFlagsTwin:
    directed: bool
    ei: bool


@dataclass(frozen=True)
class FieldSpecTwin:
    p: int | None = None


@dataclass(frozen=True)
class SieveTwin:
    base: str
    members: tuple


class Pair(Record):
    left: object
    right: object = None


class Triple(Pair):
    extra: object = ()


class OtherPair(Record):
    left: object
    right: object = None


@dataclass(frozen=True)
class PairTwin:
    left: object
    right: object = None


@dataclass(frozen=True)
class TripleTwin(PairTwin):
    extra: object = ()


@dataclass(frozen=True)
class OtherPairTwin:
    left: object
    right: object = None


_leaf = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                  st.text(max_size=3),
                  st.tuples(st.integers(0, 2), st.text(max_size=2)))
_names = st.text(alphabet="abfg01>", max_size=4)

RECORD_TWINS = {
    "Violation": (Violation, ViolationTwin, st.tuples(
        _names, st.tuples(_leaf, _leaf), st.text(max_size=5))),
    "SizeBudget": (fincat.SizeBudget, SizeBudgetTwin,
                   st.tuples(st.integers(0, 9), st.integers(0, 9))),
    "CategoryFlags": (fincat.CategoryFlags, CategoryFlagsTwin,
                      st.tuples(*[st.booleans()] * 2)),
    "FieldSpec": (FieldSpec, FieldSpecTwin,
                  st.tuples(st.sampled_from([None, 2, 3, 5]))),
    "Sieve": (Sieve, SieveTwin, st.tuples(
        _names, st.lists(_names, max_size=3).map(lambda m: tuple(sorted(m))))),
    "Pair": (Pair, PairTwin, st.tuples(_leaf, _leaf)),
    "Triple": (Triple, TripleTwin, st.tuples(_leaf, _leaf, _leaf)),
}


def _twin_repr(twin_value, cls) -> str:
    # the oracle's class has another name; the fields must print the same
    return repr(twin_value).replace(
        type(twin_value).__qualname__ + "(", cls.__qualname__ + "(", 1)


def _required(twin) -> int:
    return sum(f.default is MISSING for f in fields(twin))


@pytest.mark.parametrize("name", RECORD_TWINS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_record_value_semantics_match_dataclass(name, data):
    cls, twin, values = RECORD_TWINS[name]
    names = [f.name for f in fields(twin)]
    vals = data.draw(values)
    r, t = cls(*vals), twin(*vals)
    assert repr(r) == _twin_repr(t, cls)
    assert hash(r) == hash(t)
    assert [getattr(r, n) for n in names] == list(vals)
    same = cls(**dict(zip(names, vals)))
    assert r == same and not r != same and hash(r) == hash(same)
    vals2 = data.draw(values)
    r2, t2 = cls(*vals2), twin(*vals2)
    assert (r == r2) == (t == t2)
    assert (r != r2) == (t != t2)
    assert (r == t) is False and (t == r) is False
    assert (r == vals) is False
    k = _required(twin)
    if k < len(names):  # the defaults fill the rest, as the twin's do
        assert repr(cls(*vals[:k])) == _twin_repr(twin(*vals[:k]), cls)
        assert hash(cls(*vals[:k])) == hash(twin(*vals[:k]))


@settings(max_examples=60, deadline=None)
@given(_leaf, _leaf)
def test_records_of_different_classes_are_never_equal(left, right):
    for a, b in ((Pair(left, right), OtherPair(left, right)),
                 (PairTwin(left, right), OtherPairTwin(left, right)),
                 (Pair(left, right), Triple(left, right))):
        assert a != b and b != a and not a == b


@pytest.mark.parametrize("name", RECORD_TWINS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_record_is_immutable_like_dataclass(name, data):
    cls, twin, values = RECORD_TWINS[name]
    vals = data.draw(values)
    r, t = cls(*vals), twin(*vals)
    for attr in [f.name for f in fields(twin)] + ["extra"]:
        for value in (r, t):
            with pytest.raises(AttributeError):
                setattr(value, attr, 0)
            with pytest.raises(AttributeError):
                delattr(value, attr)
    assert r == cls(*vals) and repr(r) == _twin_repr(t, cls)


@pytest.mark.parametrize("name", RECORD_TWINS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_record_copies_and_pickles(name, data):
    cls, _, values = RECORD_TWINS[name]
    r = cls(*data.draw(values))
    for twin in (copy.copy(r), copy.deepcopy(r),
                 pickle.loads(pickle.dumps(r)),
                 pickle.loads(pickle.dumps(r, protocol=0))):
        assert type(twin) is cls
        assert twin == r and hash(twin) == hash(r) and repr(twin) == repr(r)
    assert copy.deepcopy({"a": r})["a"] == r


@pytest.mark.parametrize("name", RECORD_TWINS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_record_rejects_bad_arguments_like_dataclass(name, data):
    cls, twin, values = RECORD_TWINS[name]
    vals = data.draw(values)
    names = [f.name for f in fields(twin)]
    calls = [lambda c: c(*vals, vals[0]),  # one argument too many
             lambda c: c(*vals, bogus=1),  # unknown keyword
             lambda c: c(vals[0], **{names[0]: vals[0]})]  # given twice
    if _required(twin):
        calls.append(lambda c: c())  # missing arguments
    for call in calls:
        for c in (cls, twin):
            with pytest.raises(TypeError):
                call(c)
