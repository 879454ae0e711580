"""Microbenchmarks of the topology layer.

`check_axioms` is the one scan of a cover rule's axioms: the enumeration
certifies every candidate rule with it, and `saturate_rule` runs it to a
fixpoint. These time `enumerate_topologies` on three directed EI
categories, chain8 (256 rules), trunc_fi(5) (64) and orbit(D6) (1,024),
each on a fresh build so that it makes its own sieve tables, as a
command-line call does (`extra_info` `rules_certified`); `check_axioms`
over all 64 topologies of chain6, the largest chain of the census, and
over every 64th of the 2,048 subcategory topologies J_D of orbit(S4);
`sipp_topology`, one saturation, on orbit(S4) for p = 2 and 3; and the
two public sieve operations, `all_sieves` on every object and
`pullback_sieve` of every sieve along every morphism out of its base, on
chain6 and trunc_fi(4). Past its first round, every case but the
enumeration reads the sieve tables its category keeps. They are
not part of the tier-1 suite (`testpaths` lists only `tests`); run them
with

    python -m pytest benchmarks --benchmark-only

The table shows wall-clock times; conftest.py adds each median scaled to
perfbench's reference speed to the saved JSON. Neither is steady on a
shared machine, so compare only runs made back to back on one machine.
"""

from __future__ import annotations

import pytest

from finsite import fincat, sieves, topology


@pytest.fixture(scope="module")
def chain6():
    objs = [str(i) for i in range(6)]
    cat = fincat.build_poset_category(
        objs, [(str(i), str(i + 1)) for i in range(5)], name="chain6")
    rules = topology.enumerate_topologies(cat)
    assert len(rules) == 64
    return cat, rules


@pytest.fixture(scope="module")
def orbit_s4():
    return fincat.build_orbit_category(fincat.symmetric_group_table(4),
                                       name="orbit_S4")


def test_check_axioms_chain6(benchmark, chain6):
    cat, rules = chain6

    def certify_all():
        return all(topology.check_axioms(cat, j).is_topology for j in rules)

    assert benchmark(certify_all)


@pytest.mark.parametrize("p", (2, 3))
def test_sipp_topology_orbit_s4(benchmark, orbit_s4, p):
    cat, data = orbit_s4
    j = benchmark(topology.sipp_topology, cat, data, p)
    assert topology.check_axioms(cat, j).is_topology


def test_check_axioms_orbit_s4_subcategory_topologies(benchmark, orbit_s4):
    cat, _ = orbit_s4
    rules = topology.enumerate_consistent_families(cat)[::64]
    assert len(rules) == 32

    def certify_all():
        return all(topology.check_axioms(cat, j).is_topology for j in rules)

    assert benchmark(certify_all)


def dihedral_group_table(n):
    """The dihedral group of order 2n on an n-gon's vertices, identity
    first; table[i][j] is "i after j"."""
    perms = sorted({tuple((s * i + k) % n for i in range(n))
                    for k in range(n) for s in (1, -1)})
    index = {p: k for k, p in enumerate(perms)}
    return [[index[tuple(p[q[i]] for i in range(n))] for q in perms]
            for p in perms]


ENUMERATED = {
    "chain8": (lambda: fincat.build_poset_category(
        [str(i) for i in range(8)], [(str(i), str(i + 1)) for i in range(7)],
        name="chain8"), 256),
    "trunc_fi5": (lambda: fincat.build_trunc_fi_category(5), 64),
    "orbit_D6": (lambda: fincat.build_orbit_category(
        dihedral_group_table(6), name="orbit_D6")[0], 1024),
}


@pytest.mark.parametrize("name", ENUMERATED)
def test_enumerate_topologies(benchmark, name):
    build, count = ENUMERATED[name]
    rules = benchmark.pedantic(topology.enumerate_topologies,
                               setup=lambda: ((build(),), {}), rounds=5)
    # directed EI: every J_D is certified by check_axioms and kept
    assert len(rules) == count
    benchmark.extra_info["rules_certified"] = len(rules)


@pytest.fixture(scope="module", params=("chain6", "trunc_fi4"))
def sieve_cat(request):
    if request.param == "chain6":
        return fincat.build_poset_category(
            [str(i) for i in range(6)],
            [(str(i), str(i + 1)) for i in range(5)], name="chain6")
    return fincat.build_trunc_fi_category(4)


def test_all_sieves(benchmark, sieve_cat):
    cat = sieve_cat
    found = benchmark(lambda: [sieves.all_sieves(cat, x) for x in cat.objects])
    assert all(found)


def test_pullback_sieve(benchmark, sieve_cat):
    cat = sieve_cat
    pairs = [(s, f) for x in cat.objects for s in sieves.all_sieves(cat, x)
             for f in cat.morphisms_from(x)]
    pulled = benchmark(lambda: [sieves.pullback_sieve(cat, s, f)
                                for s, f in pairs])
    assert len(pulled) == len(pairs)
