from __future__ import annotations

import itertools
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finsite
from finsite import fincat, sieves
from finsite.errors import (
    InvalidSieve,
    SizeBudgetExceeded,
    UnknownObject,
    WrongDomain,
)

from conftest import chain, diamond, ei_fixture_categories, idem_monoid
from test_sieve_masks import old_union_sieves


def brute_force_sieves(cat, x):
    """Oracle: filter all subsets of the morphisms out of x by closure."""
    out = cat.morphisms_from(x)
    found = []
    for r in range(len(out) + 1):
        for subset in itertools.combinations(out, r):
            mset = set(subset)
            if all(cat.compose(g, f) in mset
                   for f in subset for g in cat.morphisms_from(cat.cod[f])):
                found.append(sieves.Sieve(x, tuple(sorted(mset))))
    return sorted(found, key=sieves.sieve_sort_key)


def bfs_generated_sieve(cat, x, generators):
    """Oracle: the breadth-first closure of the generators under
    postcomposition."""
    members = set()
    frontier = list(generators)
    while frontier:
        f = frontier.pop()
        if f in members:
            continue
        members.add(f)
        for g in cat.morphisms_from(cat.cod[f]):
            frontier.append(cat.compose(g, f))
    return sieves.Sieve(x, tuple(sorted(members)))


def pairwise_union_sieves(cat, x):
    """Oracle: close {empty} and the principal sieves under pairwise union
    until nothing new appears."""
    found = dict.fromkeys(
        [sieves.make_sieve(cat, x, ())]
        + [bfs_generated_sieve(cat, x, [f]) for f in cat.morphisms_from(x)])
    frontier = list(found)
    while frontier:
        s = frontier.pop()
        for t in list(found):
            u = old_union_sieves(s, t)
            if u not in found:
                found[u] = None
                frontier.append(u)
    return sorted(found, key=sieves.sieve_sort_key)


def group(name, table):
    return fincat.build_monoid_category(table, name=name)


def sieve_fixture_categories():
    """Every fixture category, EI or not, for the sieve oracles."""
    return ei_fixture_categories() + [
        idem_monoid(),
        group("C2", fincat.cyclic_group_table(2)),
        group("C3", fincat.cyclic_group_table(3)),
        group("S3", fincat.symmetric_group_table(3)),
        fincat.build_orbit_category(fincat.symmetric_group_table(3))[0],
        fincat.build_trunc_fi_category(3),
        fincat.build_trunc_vi_category(2, 2),
    ]


SIEVE_FIXTURES = sieve_fixture_categories()


def test_generated_sieve_matches_bfs_on_every_morphism():
    for cat in SIEVE_FIXTURES:
        for x in cat.objects:
            outs = cat.morphisms_from(x)
            for f in outs:
                assert (sieves.generated_sieve(cat, x, [f])
                        == bfs_generated_sieve(cat, x, [f])), (cat.name, f)
            assert (sieves.generated_sieve(cat, x, outs)
                    == bfs_generated_sieve(cat, x, outs))
            assert sieves.generated_sieve(cat, x, []).members == ()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_generated_sieve_matches_bfs_on_generator_subsets(data):
    cat = data.draw(st.sampled_from(SIEVE_FIXTURES))
    x = data.draw(st.sampled_from(cat.objects))
    gens = data.draw(st.lists(st.sampled_from(cat.morphisms_from(x)),
                              unique=True))
    assert (sieves.generated_sieve(cat, x, gens)
            == bfs_generated_sieve(cat, x, gens))


def test_all_sieves_matches_pairwise_unions():
    for cat in SIEVE_FIXTURES:
        for x in cat.objects:
            assert (sieves.all_sieves(cat, x)
                    == pairwise_union_sieves(cat, x)), (cat.name, x)


def test_all_sieves_budget_counts_every_sieve(monkeypatch):
    cases = [(chain(4), "0"), (group("S3", fincat.symmetric_group_table(3)), "*")]
    cases += [(diamond(), x) for x in diamond().objects]
    for cat, x in cases:
        k = len(pairwise_union_sieves(cat, x))
        monkeypatch.setattr(sieves, "DEFAULT_MAX_SIEVES", k)
        assert len(sieves.all_sieves(cat, x)) == k
        monkeypatch.setattr(sieves, "DEFAULT_MAX_SIEVES", k - 1)
        with pytest.raises(SizeBudgetExceeded):
            sieves.all_sieves(cat, x)


def test_quiver_sieve_counts(cat_quiver2):
    assert len(sieves.all_sieves(cat_quiver2, "x")) == 5
    assert len(sieves.all_sieves(cat_quiver2, "y")) == 2


def test_all_sieves_matches_brute_force():
    for cat in ei_fixture_categories():
        for x in cat.objects:
            assert sieves.all_sieves(cat, x) == brute_force_sieves(cat, x)


def test_all_sieves_monoid(cat_idem_monoid):
    got = sieves.all_sieves(cat_idem_monoid, "*")
    members = [s.members for s in got]
    assert members == [(), ("e",), ("1", "e")]


def test_generated_sieve_principal(cat_quiver2):
    s = sieves.generated_sieve(cat_quiver2, "x", ["f"])
    assert s.members == ("f",)
    m = sieves.generated_sieve(cat_quiver2, "x", ["1_x"])
    assert m.members == ("1_x", "f", "g")


def test_generated_sieve_chain(cat_chain3):
    s = sieves.generated_sieve(cat_chain3, "0", ["0->1"])
    assert s.members == ("0->1", "0->2")


def test_make_sieve_rejects_unclosed(cat_chain3):
    with pytest.raises(InvalidSieve):
        sieves.make_sieve(cat_chain3, "0", ["0->1"])
    with pytest.raises(WrongDomain):
        sieves.make_sieve(cat_chain3, "0", ["1->2"])


def test_generated_sieve_rejects_unknown_object(cat_quiver2):
    with pytest.raises(UnknownObject):
        sieves.generated_sieve(cat_quiver2, "zz", [])


def test_minimal_generators_rejects_unknown_object(cat_quiver2):
    with pytest.raises(UnknownObject):
        sieves.minimal_generators(cat_quiver2, sieves.Sieve("zz", ()))


def test_minimal_generators_group_sieve():
    c2 = fincat.build_monoid_category(fincat.cyclic_group_table(2),
                                      element_names=["1", "s"], name="C2")
    full = sieves.maximal_sieve(c2, "*")
    gens = sieves.minimal_generators(c2, full)
    assert len(gens) == 1
    assert sieves.generated_sieve(c2, "*", gens) == full


def test_pullback_examples(cat_quiver2, cat_chain3):
    s = sieves.make_sieve(cat_quiver2, "x", ["f", "g"])
    assert sieves.pullback_sieve(cat_quiver2, s, "f").members == ("1_y",)
    t = sieves.generated_sieve(cat_chain3, "0", ["0->2"])
    assert sieves.pullback_sieve(cat_chain3, t, "0->1").members == ("1->2",)
    assert sieves.pullback_sieve(cat_chain3, t, "0->2").members == ("1_2",)


def test_pullback_of_member_is_maximal():
    for cat in ei_fixture_categories():
        for x in cat.objects:
            for s in sieves.all_sieves(cat, x):
                for f in s.members:
                    pb = sieves.pullback_sieve(cat, s, f)
                    assert sieves.is_maximal(cat, pb)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_pullback_functorial(data):
    cats = ei_fixture_categories()
    cat = data.draw(st.sampled_from(cats))
    x = data.draw(st.sampled_from(sorted(cat.objects)))
    universe = sieves.all_sieves(cat, x)
    s = data.draw(st.sampled_from(universe))
    outs = sorted(cat.morphisms_from(x))
    f = data.draw(st.sampled_from(outs))
    pb = sieves.pullback_sieve(cat, s, f)
    nexts = sorted(cat.morphisms_from(cat.cod[f]))
    g = data.draw(st.sampled_from(nexts))
    lhs = sieves.pullback_sieve(cat, pb, g)
    rhs = sieves.pullback_sieve(cat, s, cat.compose(g, f))
    assert lhs == rhs


def test_sieve_doc_roundtrip(cat_quiver2):
    s = sieves.make_sieve(cat_quiver2, "x", ["f", "g"])
    doc = sieves.sieve_to_doc(s)
    assert doc == {"base": "x", "members": ["f", "g"]}
    assert sieves.make_sieve(cat_quiver2, doc["base"], doc["members"]) == s


WORK_SCRIPT = """
from finsite import fincat, sieves
orders = []
scan = sieves._Index.scan
def recording(index, x, *args):
    out = scan(index, x, *args)
    # the principal masks, in scan order, fix every union the scan makes
    orders.append(([index.principal[f] for f in index.out_of[x]], out))
    return out
sieves._Index.scan = recording
orbit, _ = fincat.build_orbit_category(fincat.symmetric_group_table(3))
diamond = fincat.build_poset_category(
    ["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
for cat in (orbit, diamond):
    for x in cat.objects:
        sieves.all_sieves(cat, x)
print(orders)
"""


def test_all_sieves_work_ignores_hash_seed():
    src = os.path.dirname(os.path.dirname(os.path.abspath(finsite.__file__)))
    traces = []
    # the unions the scan makes are the same for every seed; at least one
    # of these seeds changed their number when the scan kept a set of
    # tuple sieves
    for seed in ("0", "1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        done = subprocess.run([sys.executable, "-c", WORK_SCRIPT],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        traces.append(done.stdout)
    assert len(set(traces)) == 1
    assert traces[0].count("(") == 8  # one record per object scanned
