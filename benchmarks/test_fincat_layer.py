"""Microbenchmarks of the fincat layer: building a stock category.

`typen.truncation_crosscheck` builds `trunc_fi(h)` on every call, and every
build validates the category in full, associativity on every composable
triple included. These time the whole build of trunc_fi(3), trunc_fi(4)
and trunc_vi(2, 2): enumerating the morphisms, naming each composite by
lookup, and `make_category`'s check. They are not part of the tier-1 suite
(`testpaths` lists only `tests`); run them with

    python -m pytest benchmarks/test_fincat_layer.py --benchmark-only

The table shows wall-clock times; conftest.py adds each median scaled to
perfbench's reference speed to the saved JSON. Neither is steady on a
shared machine, so compare only runs made back to back on one machine.
"""

from __future__ import annotations

import pytest

from finsite import fincat

BUILDS = {
    "trunc_fi3": (lambda: fincat.build_trunc_fi_category(3), 24),
    "trunc_fi4": (lambda: fincat.build_trunc_fi_category(4), 89),
    "trunc_vi2_2": (lambda: fincat.build_trunc_vi_category(2, 2), 13),
}


@pytest.mark.parametrize("name", BUILDS)
def test_build(benchmark, name):
    build, morphisms = BUILDS[name]
    cat = benchmark(build)
    assert len(cat.morphisms) == morphisms
