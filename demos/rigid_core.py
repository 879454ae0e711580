"""Rigid rules shrink the sheaf category onto an irreducible core.

An object is irreducible for a rule when its only cover is the maximal
sieve. A rule is rigid when every object is covered by the sieve its
morphisms into irreducibles generate; sheaves are then exactly the
modules coinduced from the irreducible full subcategory. The equivalence
is certified on the standard injectives of that core, one per object;
the sampled modules are extra evidence.
"""
from finsite import sheaves, topology
from finsite.fincat import build_quiver_category
from finsite.modrep import GF


def main() -> None:
    cat = build_quiver_category(
        ["x", "y"], [("f", "x", "y"), ("g", "x", "y")], name="quiver2")

    for j in topology.enumerate_topologies(cat):
        report = topology.rigidity(cat, j)
        mins = {x: topology.minimal_covering_sieve(cat, j, x).members
                for x in cat.objects}
        print(f"minima {mins}: rigid={report.rigid} "
              f"irreducibles={report.irreducibles}")

    dense = topology.named_topology(cat, "dense")
    rep = sheaves.verify_rigid_equivalence(cat, dense, GF(2),
                                           sample_count=20, seed=0,
                                           max_dim=2)
    print(f"\ndense rule equivalence over the core {rep.irreducibles},"
          f" certified on its standard injectives, {rep.sample_count}"
          f" sampled modules as extra evidence:")
    print(f"  torsion = vanishing on the core: "
          f"{rep.torsion_matches_restriction}")
    print(f"  coinduction lands in sheaves:    "
          f"{rep.coinduction_makes_sheaves}")
    print(f"  restrict then coinduce is id:    "
          f"{rep.restrict_after_coinduce_identity}")
    print(f"  coinduce then restrict is id:    "
          f"{rep.coinduce_after_restrict_identity}")


if __name__ == "__main__":
    main()
