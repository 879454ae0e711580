"""Reflect a module onto the sheaves and watch the criterion triangle close.

Under the dense rule on the quiver, the representable module at x is
separated but not a sheaf: the sieve {f, g} carries matching families
with no amalgamation. One application of the plus construction repairs
it, and the repair is exactly coinduction from the irreducible core {y}.
"""
from finsite import linalg, modrep, sheaves, topology
from finsite.fincat import build_quiver_category
from finsite.modrep import GF


def main() -> None:
    cat = build_quiver_category(
        ["x", "y"], [("f", "x", "y"), ("g", "x", "y")], name="quiver2")
    dense = topology.named_topology(cat, "dense")
    field = GF(2)

    p_x = modrep.yoneda_module(cat, field, "x")
    status = sheaves.sheaf_status(cat, dense, p_x)
    print(f"P(x) dims {p_x.dims}: separated={status.separated} "
          f"sheaf={status.sheaf}")

    fixed, unit = sheaves.sheafify(cat, dense, p_x)
    kernel, _ = modrep.kernel_of_map(unit)
    print(f"sheafified dims {fixed.dims}; the unit embeds P(x) "
          f"(kernel dims {kernel.dims})")
    print(f"now a sheaf: {sheaves.sheaf_status(cat, dense, fixed).sheaf}")

    sub = topology.full_subcategory(cat, ["y"])
    coinduced, _ = modrep.coinduction_unit(cat, sub, p_x)
    _, unit = modrep.coinduction_unit(cat, sub, fixed)
    invertible = all(linalg.is_invertible(field, unit.components[x])
                     for x in cat.objects)
    print(f"coinducing P(x)'s restriction to {{y}} gives dims "
          f"{coinduced.dims}; the coinduction unit of the sheafification "
          f"is invertible: {invertible}")

    verdict = sheaves.sheaf_verdict(cat, dense, fixed)
    print(f"triangle: sheaf={verdict.sheaf} "
          f"saturated={verdict.saturated.saturated} "
          f"perpendicular={verdict.perpendicular.perpendicular} "
          f"consistent={verdict.consistent}")


if __name__ == "__main__":
    main()
