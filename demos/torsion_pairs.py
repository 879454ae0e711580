"""Torsion pairs from cover rules, and the failure mode without transitivity.

Each cover rule splits the module category into a torsion class and a
torsion-free class. The split is hereditary when the rule satisfies all
axioms; a stable rule that misses transitivity still defines a radical,
but some quotient V / T(V) fails to be torsion-free. verify_torsion_pair
decides the pair from the rule's sieves, and names such a V when it
fails. This script also finds the smallest failure on the 3-chain by
brute force, and it matches the certificate's witness.
"""
from itertools import product

from finsite import fincat, linalg, modrep, topology, torsion
from finsite.modrep import GF


def chain3() -> fincat.FiniteCategory:
    return fincat.build_poset_category(
        ["0", "1", "2"], [("0", "1"), ("1", "2")], name="chain3")


def nontransitive_rule(cat):
    covers = {"0": [torsion.make_sieve(cat, "0", ["0->1", "0->2"])],
              "1": [torsion.make_sieve(cat, "1", ["1->2"])],
              "2": [topology.maximal_sieve(cat, "2")]}
    return torsion.inclusion_closure(cat, covers)


def all_modules(cat, field, bound):
    """Every chain3 module with dims below the bound, smallest first."""
    for dims in sorted(product(range(bound + 1), repeat=3),
                       key=lambda d: (sum(d), d)):
        dmap = dict(zip(cat.objects, dims))
        for a_bits in product(range(field.p), repeat=dims[1] * dims[0]):
            a = linalg.from_rows([a_bits[i * dims[0]:(i + 1) * dims[0]]
                                  for i in range(dims[1])], cols=dims[0])
            for b_bits in product(range(field.p), repeat=dims[2] * dims[1]):
                b = linalg.from_rows([b_bits[i * dims[1]:(i + 1) * dims[1]]
                                      for i in range(dims[2])], cols=dims[1])
                action = {cat.identity[x]: linalg.identity(field, dmap[x])
                          for x in cat.objects}
                action["0->1"] = a
                action["1->2"] = b
                action["0->2"] = linalg.matmul(field, b, a)
                yield modrep.make_module(cat, field, dmap, action)


def main() -> None:
    cat = chain3()
    field = GF(2)

    print("== every honest rule on the 3-chain carries a hereditary pair,"
          " by certificate")
    for j in topology.enumerate_topologies(cat):
        rep = torsion.verify_torsion_pair(cat, j, field, sample_count=0)
        mins = {x: topology.minimal_covering_sieve(cat, j, x).members
                for x in cat.objects}
        print(f"   minima {mins}  passed={rep.passed}")

    print("\n== drop transitivity and search for a bad quotient")
    rule = nontransitive_rule(cat)
    axioms = topology.check_axioms(cat, rule)
    print(f"   stability={axioms.stability_ok} "
          f"transitivity={axioms.transitivity_ok}")
    rep = torsion.verify_torsion_pair(cat, rule, field, sample_count=0)
    (x, s, t, dims, *_), = rep.witnesses["quotient_torsion_free"]
    print(f"   certificate: passed={rep.passed}, witness P({x})/T for"
          f" T = {t}, dims {dims}")
    for v in all_modules(cat, field, bound=2):
        _, incl = torsion.torsion_submodule(cat, rule, v)
        quot, _ = modrep.quotient_module(v, incl)
        if quot.is_zero():
            continue
        verdict = torsion.torsion_class(cat, rule, quot)
        if verdict.classification != "torsion_free":
            print(f"   witness dims {v.dims}: V/T(V) is "
                  f"{verdict.classification}, torsion part {verdict.dims}")
            break


if __name__ == "__main__":
    main()
