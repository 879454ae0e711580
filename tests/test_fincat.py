from __future__ import annotations

import copy
import hashlib
import itertools
import json
import os
import pickle
import subprocess
import sys
from dataclasses import MISSING, dataclass, fields

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    chain,
    diamond,
    ei_fixture_categories,
    idem_monoid,
    quiver2,
)

import finsite
from finsite import fincat, linalg, topology
from finsite.errors import (
    BAD_COMPOSITE,
    DANGLING_ENDPOINT,
    MISSING_COMPOSITE,
    MISSING_IDENTITY,
    NON_ASSOCIATIVE,
    CyclicQuiver,
    NotAGroupTable,
    NotAPoset,
    NotDirectedEI,
    OreConditionFails,
    Record,
    SizeBudgetExceeded,
    UnknownObject,
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


@pytest.mark.parametrize("arrows", [
    [("f", "x", "y"), ("f", "x", "y")],
    [("f", "x", "y"), ("f", "x", "z")],
    # the arrow a.b and the path b then a share a name
    [("a.b", "x", "y"), ("b", "x", "z"), ("a", "z", "y")]])
def test_quiver_refuses_two_morphisms_of_one_name(arrows):
    with pytest.raises(ValidationFailed, match="DuplicateId"):
        fincat.build_quiver_category("xyz", arrows)


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


def composable_triples(cat):
    """Every (h, g, f) with cod f = dom g and cod g = dom h, one by one."""
    return sum(len(cat.morphisms_from(cat.cod[g]))
               for f in cat.morphisms
               for g in cat.morphisms_from(cat.cod[f]))


@pytest.mark.parametrize(("kind", "args"), [
    *[("fi", (n,)) for n in range(5)],
    *[("vi", (q, n)) for q in (2, 3) for n in range(3)]])
def test_truncation_triples_are_the_counted_triples(monkeypatch, kind, args):
    """The closed form counts the composable triples of the built category:
    a triple budget of exactly that many is accepted, and one fewer is
    refused before any injection is drawn or any matrix ranked."""
    n = composable_triples(build_trunc(kind, args))
    monkeypatch.setattr(fincat, "_MAX_TRIPLES", n)
    build_trunc(kind, args)
    monkeypatch.setattr(fincat, "_MAX_TRIPLES", n - 1)
    drawn, ranked = [], []
    monkeypatch.setattr(itertools, "permutations",
                        lambda *a: drawn.append(a) or iter(()))
    monkeypatch.setattr(linalg, "rank", lambda *a: ranked.append(a))
    with pytest.raises(SizeBudgetExceeded,
                       match=f"^{n} composable triples exceeds budget"):
        build_trunc(kind, args)
    assert drawn == [] and ranked == []


def stock_builds():
    """A small category of every other builder: poset, quiver, orbit and
    monoid, plus the fixtures."""
    return [
        lambda b: fincat.build_poset_category(
            "abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
            budget=b),
        lambda b: fincat.build_quiver_category(
            "xyz", [("f", "x", "y"), ("g", "x", "y"), ("h", "y", "z")],
            budget=b),
        lambda b: fincat.build_orbit_category(
            fincat.symmetric_group_table(3), budget=b)[0],
        lambda b: fincat.build_monoid_category(
            [[0, 1, 2], [1, 1, 1], [2, 2, 2]], budget=b),
        *[lambda b, cat=cat: fincat.validate_category(
            fincat.category_to_doc(cat), b)
          for cat in ei_fixture_categories()],
    ]


@pytest.mark.parametrize("build", stock_builds())
def test_counted_triples_are_the_built_triples(monkeypatch, build):
    """make_category counts the composable triples of its morphism list,
    and _from_arrows checks that count before it composes."""
    n = composable_triples(build(fincat.DEFAULT_BUDGET))
    monkeypatch.setattr(fincat, "_MAX_TRIPLES", n)
    build(fincat.DEFAULT_BUDGET)
    monkeypatch.setattr(fincat, "_MAX_TRIPLES", n - 1)
    with pytest.raises(SizeBudgetExceeded,
                       match=f"^{n} composable triples exceeds budget"):
        build(fincat.DEFAULT_BUDGET)


@pytest.mark.parametrize(("kind", "args", "triples"), [
    ("fi", (6,), 1_243_211_002), ("vi", (5, 2), 116_410_671),
    ("vi", (7, 2), 8_393_370_357)])
def test_triple_budget_refuses_what_passes_the_morphism_budget(kind, args,
                                                               triples):
    # each has fewer than 4,096 morphisms, but 19 to 1,400 times the
    # composable triples of trunc_fi(5), the largest truncation admitted
    with pytest.raises(SizeBudgetExceeded,
                       match=f"^{triples} composable triples exceeds budget"
                             f" {2 ** 23}$"):
        build_trunc(kind, args)


# ---------------------------------------------------------------------------
# the associativity scan on positions against the triple-by-triple scan it
# replaced, kept as the oracle

def old_collect_violations(objects, dom, cod, identity, compose,
                           morphism_order):
    violations = []
    obj_set = set(objects)
    for m in morphism_order:
        if dom[m] not in obj_set or cod[m] not in obj_set:
            violations.append(Violation(DANGLING_ENDPOINT, (m, dom[m], cod[m])))
    for o in objects:
        i = identity.get(o)
        if i is None or i not in dom or dom[i] != o or cod[i] != o:
            violations.append(Violation(MISSING_IDENTITY, (o, i)))
    if violations:
        return violations

    mor_set = set(morphism_order)
    for (g, f), gf in compose.items():
        if g not in mor_set or f not in mor_set or gf not in mor_set:
            violations.append(Violation(BAD_COMPOSITE, (g, f, gf), "unknown id"))
            continue
        if cod[f] != dom[g]:
            violations.append(Violation(BAD_COMPOSITE, (g, f, gf), "pair not composable"))
        elif dom[gf] != dom[f] or cod[gf] != cod[g]:
            violations.append(Violation(BAD_COMPOSITE, (g, f, gf), "endpoints of composite"))
    for f in morphism_order:
        for g in morphism_order:
            if cod[f] == dom[g] and (g, f) not in compose:
                violations.append(Violation(MISSING_COMPOSITE, (g, f)))
    if violations:
        return violations

    for f in morphism_order:
        if compose[(identity[cod[f]], f)] != f:
            violations.append(Violation(MISSING_IDENTITY, (cod[f], f), "left unit law"))
        if compose[(f, identity[dom[f]])] != f:
            violations.append(Violation(MISSING_IDENTITY, (dom[f], f), "right unit law"))
    by_dom = {}
    for m in morphism_order:
        by_dom.setdefault(dom[m], []).append(m)
    for f in morphism_order:
        for g in by_dom.get(cod[f], ()):
            gf = compose[(g, f)]
            for h in by_dom.get(cod[g], ()):
                if compose[(h, gf)] != compose[(compose[(h, g)], f)]:
                    violations.append(Violation(NON_ASSOCIATIVE, (h, g, f)))
    return violations


def scans(cat, compose, order):
    """The violations of cat with another composition table and morphism
    order, by the scan and by the oracle."""
    parts = (cat.objects, cat.dom, cat.cod, cat.identity, compose, order)
    return fincat._collect_violations(*parts), old_collect_violations(*parts)


SCANNED = [
    build_trunc("fi", (2,)), build_trunc("fi", (3,)), build_trunc("vi", (2, 2)),
    fincat.build_orbit_category(fincat.symmetric_group_table(3))[0],
    chain(3), diamond(), idem_monoid(),
    fincat.build_quiver_category(
        "xyz", [("f", "x", "y"), ("g", "x", "y"), ("h", "y", "z")]),
]


@st.composite
def corrupted(draw):
    """(kind, category, broken composition table, morphism order): one
    composite redirected within its hom set or out of it, one dropped, or
    one unit law broken."""
    cat = draw(st.sampled_from(SCANNED))
    kind = draw(st.sampled_from(["redirect", "outside", "drop", "unit law"]))

    def hom_of(pair):
        g, f = pair
        return cat.hom(cat.dom[f], cat.cod[g])

    pairs = list(cat.compose_table)
    if kind == "unit law":
        pairs = [(g, f) for g, f in pairs
                 if cat.is_identity(g) or cat.is_identity(f)]
    if kind in ("redirect", "unit law"):
        pairs = [p for p in pairs if len(hom_of(p)) > 1]
    assume(pairs)
    pair = draw(st.sampled_from(pairs))
    compose = dict(cat.compose_table)
    if kind == "drop":
        del compose[pair]
    elif kind == "outside":
        compose[pair] = draw(st.sampled_from(
            [m for m in cat.morphisms if m not in hom_of(pair)] + ["nowhere"]))
    else:
        compose[pair] = draw(st.sampled_from(
            [m for m in hom_of(pair) if m != compose[pair]]))
    return kind, cat, compose, draw(st.permutations(cat.morphisms))


@settings(max_examples=300, deadline=None)
@given(corrupted())
def test_scan_matches_the_triple_by_triple_oracle(case):
    kind, cat, compose, order = case
    new, old = scans(cat, compose, order)
    assert new == old
    # a redirected composite may leave another category; nothing else does
    assert new or kind == "redirect"


@pytest.mark.parametrize("cat", SCANNED, ids=lambda cat: cat.name)
def test_every_redirected_composite_fails_on_the_oracles_triples(cat):
    """Each composite of two non-identities, redirected to every other
    morphism of its hom set in turn: the scan names exactly the oracle's
    NON_ASSOCIATIVE triples, in its order, so every triple is checked."""
    failing = 0
    for (g, f), gf in cat.compose_table.items():
        if cat.is_identity(g) or cat.is_identity(f):
            continue
        for other in cat.hom(cat.dom[f], cat.cod[g]):
            if other != gf:
                new, old = scans(cat, {**cat.compose_table, (g, f): other},
                                 cat.morphisms)
                assert new == old, (g, f, other)
                assert {v.kind for v in new} <= {NON_ASSOCIATIVE}
                failing += bool(new)
    # posets have no hom set of two; the quiver's and the monoid's
    # redirects make other categories (h f = h g, or e e = 1: C2)
    assert failing or cat.name in ("chain3", "diamond", "quiver",
                                   "idem_monoid")


def test_stock_categories_pass_both_scans():
    for cat in SCANNED:
        assert scans(cat, cat.compose_table, cat.morphisms) == ([], [])


# the truncation builders as they were before composites were named by
# lookup, kept as oracles: a freshly formatted name per composite

def formatted_trunc_fi(n):
    def mid(m, k, img):
        return f"[{m}>{k}]({','.join(map(str, img))})"

    morphisms, inj = [], {}
    for m in range(n + 1):
        for k in range(m, n + 1):
            for img in itertools.permutations(range(k), m):
                i = mid(m, k, img)
                morphisms.append((i, str(m), str(k)))
                inj[i] = (m, k, img)
    identity = {str(m): mid(m, m, tuple(range(m))) for m in range(n + 1)}
    compose = {}
    for f, (m, k, img_f) in inj.items():
        for g, (k2, l, img_g) in inj.items():
            if k2 == k:
                compose[(g, f)] = mid(m, l, tuple(img_g[i] for i in img_f))
    return f"trunc_fi_{n}", n, morphisms, identity, compose


def formatted_trunc_vi(q, n):
    field = linalg.GF(q)

    def mid(m, k, a):
        flat = ",".join(str(x) for r in a.entries for x in r)
        return f"[{m}>{k}]({flat})"

    morphisms, mats = [], {}
    for m in range(n + 1):
        for k in range(m, n + 1):
            for c in itertools.product(range(q), repeat=k * m):
                a = linalg.Mat(k, m, tuple(tuple(c[i * m + j] for j in range(m))
                                           for i in range(k)))
                if linalg.rank(field, a) == m:
                    i = mid(m, k, a)
                    morphisms.append((i, str(m), str(k)))
                    mats[i] = (m, k, a)
    identity = {str(m): mid(m, m, linalg.identity(field, m))
                for m in range(n + 1)}
    compose = {}
    for f, (m, k, af) in mats.items():
        for g, (k2, l, ag) in mats.items():
            if k2 == k:
                compose[(g, f)] = mid(m, l, linalg.matmul(field, ag, af))
    return f"trunc_vi_{q}_{n}", n, morphisms, identity, compose


@pytest.mark.parametrize(("kind", "args"), [
    *[("fi", (n,)) for n in range(5)],
    ("vi", (2, 2)), ("vi", (3, 2)), ("vi", (2, 3))])
def test_truncations_match_the_formatted_name_builds(kind, args):
    cat = build_trunc(kind, args)
    name, n, morphisms, identity, compose = {
        "fi": formatted_trunc_fi, "vi": formatted_trunc_vi}[kind](*args)
    objects = [str(m) for m in range(n + 1)]
    doc = {"name": name, "objects": objects,
           "morphisms": [{"id": m, "dom": d, "cod": c}
                         for m, d, c in sorted(morphisms)],
           "identities": {o: identity[o] for o in objects},
           "compose": sorted([g, f, gf] for (g, f), gf in compose.items())}
    assert json.dumps(fincat.category_to_doc(cat)) == json.dumps(doc)
    # and the table in the same order, which modrep's kept pairs follow
    assert list(cat.compose_table.items()) == list(compose.items())


@pytest.mark.parametrize(("group", "digest"), [
    ("C2", "01a0eaef59d569d6ba4b2e25e633078197752349a0c85f2e3d2f81b02aedd80c"),
    ("C3", "ad2369b27a994c56caf1f7eb0a82386f74fe9e7900679602ad0ff134d3bab7d5"),
    ("S3", "0faaea5f97e09f686f437ebd9c99ffb5574eb075fb620741dddae6ad03156901")])
def test_orbit_documents_are_unchanged(group, digest):
    # the SHA-256 of the document json.dumps writes for each orbit
    # category, as the builder wrote it before the scan on positions
    cat = fincat.standard_builder("orbit", {"group": group})(
        fincat.DEFAULT_BUDGET)
    text = json.dumps(fincat.category_to_doc(cat))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize(("build", "digest"), [
    (lambda: chain(3),
     "cfa4395309e33843315a30a819090c81eb6674ef46a3224793f23bf20479dc3d"),
    (diamond,
     "03b2b1a4e01c75d823f9362f24bb206ccb180208e5bd5250e4508845585242b5"),
    (quiver2,
     "3a581d1d5389b89f0b92ec3d0d4cfae231304a0175048d24cd7ef1c979173c2e"),
    (lambda: fincat.build_quiver_category(
        "xyz", [("f", "x", "y"), ("g", "x", "y"), ("h", "y", "z")]),
     "b6fc2f9d09244866be90ec163b1afe449ccf9342af7373ebca4e08beddff21f1"),
    (idem_monoid,
     "40a844878948c1fcba29bfd7a2237e5bf280337ba11ecbd9a6ec8825fdd60ac2"),
    (lambda: fincat.build_monoid_category(fincat.symmetric_group_table(3)),
     "b2b6d0f0f4341d06beb704295043579a179fab6e51a1acc933e38c9a6e262c77")])
def test_poset_quiver_and_monoid_documents_are_unchanged(build, digest):
    # the SHA-256 of the document json.dumps writes, as each builder wrote
    # it before every stock category came from one arrow table
    text = json.dumps(fincat.category_to_doc(build()))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# a diamond module on which V(a->1) V(0->a) and V(b->1) V(0->b) both differ
# from V(0->1): the CLI reports the two violations in compose_table order
_DIAMOND_MODULE = {
    "field": {"Fp": 2}, "dims": {"0": 1, "a": 1, "b": 1, "1": 1},
    "action": {m: [["0" if m == "0->1" else "1"]]
               for m in ("1_0", "1_a", "1_b", "1_1", "0->a", "0->b",
                         "a->1", "b->1", "0->1")}}

_STOCK_ORDERS = """
import sys
from conftest import chain, diamond, idem_monoid, quiver2
from finsite import fincat
from finsite.cli import run
for cat in (chain(3), diamond(), quiver2(), idem_monoid(),
            fincat.build_orbit_category(fincat.symmetric_group_table(3))[0],
            fincat.build_trunc_fi_category(3),
            fincat.build_trunc_vi_category(2, 2)):
    print(cat.name, list(cat.compose_table))
print(run(["torsion", "classify", "--category", "diamond",
           "--topology", "dense", "--module", sys.argv[1]]))
"""


def test_stock_categories_do_not_follow_the_hash_seed(tmp_path):
    module = tmp_path / "diamond_module.json"
    module.write_text(json.dumps(_DIAMOND_MODULE))
    tests = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join([os.path.dirname(os.path.dirname(
        os.path.abspath(finsite.__file__))), tests])
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-c", _STOCK_ORDERS,
                               str(module)], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert "('a->1', '0->a'); FunctorialityViolation" in outputs[0]
    assert outputs[0] == outputs[1]


def test_full_subcategory(cat_trunc_fi2):
    cat = cat_trunc_fi2
    sub = fincat.full_subcategory(cat, ["0", "2"])
    assert sub.objects == ("0", "2")
    assert len(sub.hom("0", "2")) == 1
    assert set(sub.morphisms) == {m for m in cat.morphisms
                                  if {cat.dom[m], cat.cod[m]} <= {"0", "2"}}
    assert fincat.is_full_subcategory(cat, sub)


def test_full_subcategory_is_kept_per_object_tuple():
    for cat in ei_fixture_categories():
        shown = repr(cat)
        objs = cat.objects[1:]
        sub = fincat.full_subcategory(cat, objs)
        assert fincat.full_subcategory(cat, list(objs) + [objs[0]]) is sub
        # equal to a fresh build from the ambient category's parts
        keep = set(objs)
        fresh = fincat.make_category(
            "fresh", objs,
            [(m, cat.dom[m], cat.cod[m]) for m in cat.morphisms
             if {cat.dom[m], cat.cod[m]} <= keep],
            {o: cat.identity[o] for o in objs},
            {(g, f): gf for (g, f), gf in cat.compose_table.items()
             if {cat.dom[f], cat.cod[g]} <= keep})
        assert fresh == sub and fresh is not sub
        assert fincat.is_full_subcategory(cat, fresh)
        # another order is another subcategory
        if len(objs) > 1:
            backwards = fincat.full_subcategory(cat, objs[::-1])
            assert backwards is not sub and backwards != sub
        with pytest.raises(UnknownObject):
            fincat.full_subcategory(cat, ["nowhere"])
        assert repr(cat) == shown
        copied = pickle.loads(pickle.dumps(cat))
        assert copied == cat and "_full_subcategories" not in vars(copied)


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


@pytest.mark.parametrize("entry", [5, -1, "a"])
def test_monoid_rejects_an_entry_that_is_no_element(entry):
    with pytest.raises(NotAGroupTable) as err:
        fincat.build_monoid_category([[0, 1], [1, entry]])
    assert str(err.value) == (f"entry {entry!r} at row 1, column 1 is not an"
                              " element index in range(2)")


def test_trunc_vi_counts():
    c = fincat.build_trunc_vi_category(2, 2)
    assert len(c.hom("1", "2")) == 3
    assert len(c.hom("2", "2")) == 6
    assert len(c.hom("0", "1")) == 1


def test_negative_truncations_are_refused():
    # a truncation at n < 0 would be the empty category
    for build in (lambda: fincat.build_trunc_fi_category(-1),
                  lambda: fincat.build_trunc_vi_category(2, -1),
                  lambda: fincat.standard_builder("trunc_fi", {"n": -1})):
        with pytest.raises(ValueError, match="must be natural, got -1"):
            build()
    assert fincat.build_trunc_fi_category(0).objects == ("0",)


def test_standard_builder_dispatch():
    c = fincat.standard_builder(
        "poset", {"objects": ["0", "1"], "leq": [["0", "1"]]})(
        fincat.DEFAULT_BUDGET)
    assert len(c.morphisms) == 3
    with pytest.raises(ValueError):
        fincat.standard_builder("nope", {})


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
