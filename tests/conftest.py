from __future__ import annotations

import pytest

from finsite import fincat, linalg, modrep
from finsite.errors import ShapeMismatch


def chain(n: int) -> fincat.FiniteCategory:
    """Linear poset 0 < 1 < ... < n-1 as a category (an n-chain)."""
    objs = [str(i) for i in range(n)]
    return fincat.build_poset_category(
        objs, [(str(i), str(i + 1)) for i in range(n - 1)], name=f"chain{n}")


def quiver2() -> fincat.FiniteCategory:
    """Two objects x, y with parallel arrows f, g: x -> y."""
    return fincat.build_quiver_category(
        ["x", "y"], [("f", "x", "y"), ("g", "x", "y")], name="quiver2")


def diamond() -> fincat.FiniteCategory:
    return fincat.build_poset_category(
        ["0", "a", "b", "1"],
        [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")], name="diamond")


def idem_monoid() -> fincat.FiniteCategory:
    """The two-element monoid {1, e} with e*e = e."""
    return fincat.build_monoid_category(
        [[0, 1], [1, 1]], element_names=["1", "e"], name="idem_monoid")


def dihedral_group_table(n: int) -> list[list[int]]:
    """Multiplication table of the dihedral group of order 2n, as the
    symmetries of an n-gon's vertices; element 0 is the identity.
    table[i][j] is "symmetry i after symmetry j"."""
    perms = sorted({tuple((s * i + k) % n for i in range(n))
                    for k in range(n) for s in (1, -1)})
    index = {p: k for k, p in enumerate(perms)}
    return [[index[tuple(p[q[i]] for i in range(n))] for q in perms]
            for p in perms]


def hstack(mats, rows):
    """The matrices side by side, each with the given number of rows."""
    if any(m.rows != rows for m in mats):
        raise ShapeMismatch("hstack row mismatch")
    return linalg.Mat(rows, sum(m.cols for m in mats),
                      tuple(tuple(x for m in mats for x in m.entries[i])
                            for i in range(rows)))


def closed_spans(v: modrep.KModule, spans) -> dict:
    """The spans closed under v's action, as random_module closes its
    relations: what submodule_from_spans needs for the submodule the
    vectors generate."""
    echelons = {x: linalg.Echelon(v.field, v.dims[x], spans.get(x, ()))
                for x in v.cat.objects}
    modrep._saturate(v, echelons, dict.fromkeys(v.cat.morphisms, 0))
    return {x: e.basis for x, e in echelons.items()}


def constant_module(cat: fincat.FiniteCategory, field) -> modrep.KModule:
    """k at every object, every morphism acting by 1."""
    one = linalg.identity(field, 1)
    return modrep.make_module(cat, field, {x: 1 for x in cat.objects},
                              {f: one for f in cat.morphisms})


@pytest.fixture
def cat_chain2():
    return chain(2)


@pytest.fixture
def cat_chain3():
    return chain(3)


@pytest.fixture
def cat_quiver2():
    return quiver2()


@pytest.fixture
def cat_diamond():
    return diamond()


@pytest.fixture
def cat_trunc_fi2():
    return fincat.build_trunc_fi_category(2)


@pytest.fixture
def cat_idem_monoid():
    return idem_monoid()


def ei_fixture_categories() -> list[fincat.FiniteCategory]:
    """The finite EI fixture set exercised by the equivalence checks."""
    cats = [chain(2), chain(3), diamond(), quiver2(),
            fincat.build_trunc_fi_category(2)]
    orbit, _ = fincat.build_orbit_category(
        fincat.cyclic_group_table(3), name="orbit_C3")
    cats.append(orbit)
    return cats
