"""Microbenchmarks of the modrep layer: quotients and sampled modules.

`modrep._quotient` sits under `random_module` (the sampler behind every
sheaf check), `quotient_module` (torsion quotients) and `cokernel_of_map`
(sheafify's post-check). These time the three on diamond and trunc_fi(2)
over F2 and F3: one rref of [B | I] per object with a nonzero space, one
product per morphism for the action, and the module and naturality
checks. They are not part of the tier-1 suite (`testpaths` lists only
`tests`); run them with

    python -m pytest benchmarks/test_modrep_layer.py --benchmark-only

The table shows wall-clock times; conftest.py adds each median scaled to
perfbench's reference speed to the saved JSON. Neither is steady on a
shared machine, so compare only runs made back to back on one machine.
"""

from __future__ import annotations

import pytest

from finsite import fincat, linalg, modrep

CATEGORIES = {
    "diamond": lambda: fincat.build_poset_category(
        ["0", "a", "b", "1"],
        [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")], name="diamond"),
    "trunc_fi2": lambda: fincat.build_trunc_fi_category(2),
}
FIELDS = {"F2": linalg.GF(2), "F3": linalg.GF(3)}
SEED = 11


def inputs(name: str, label: str):
    """A sampled module v, the inclusion of the submodule generated by one
    vector at its first nonzero object x, and a nonzero map from the
    representable at x to v (Hom(P(x), v) is v at x)."""
    cat, field = CATEGORIES[name](), FIELDS[label]
    v = modrep.random_module(cat, field, SEED, 3)
    x = next(x for x in cat.objects if v.dims[x])
    spans = {y: linalg.Echelon(field, v.dims[y]) for y in cat.objects}
    spans[x].add((field.one(),) * v.dims[x])
    modrep._saturate(v, spans, dict.fromkeys(cat.morphisms, 0))
    _, incl = modrep.submodule_from_spans(
        v, {y: e.basis for y, e in spans.items()})
    h = modrep.hom_space(modrep.yoneda_module(cat, field, x), v)[0]
    return cat, field, v, incl, h


@pytest.mark.parametrize("label", FIELDS)
@pytest.mark.parametrize("name", CATEGORIES)
def test_quotient_module(benchmark, name, label):
    _, _, v, incl, _ = inputs(name, label)
    q, _ = benchmark(modrep.quotient_module, v, incl)
    assert q.total_dim() == v.total_dim() - incl.source.total_dim()


@pytest.mark.parametrize("label", FIELDS)
@pytest.mark.parametrize("name", CATEGORIES)
def test_cokernel_of_map(benchmark, name, label):
    _, _, v, _, h = inputs(name, label)
    coker, _ = benchmark(modrep.cokernel_of_map, h)
    assert coker.total_dim() < v.total_dim()


@pytest.mark.parametrize("label", FIELDS)
@pytest.mark.parametrize("name", CATEGORIES)
def test_random_module(benchmark, name, label):
    cat, field = CATEGORIES[name](), FIELDS[label]
    v = benchmark(modrep.random_module, cat, field, SEED, 2)
    assert max(v.dims.values()) <= 2
