"""Microbenchmarks of the record layer (`errors.Record`) and of start-up.

Every finsite value is a record. `Sieve`, `KModule` and `ModuleMap` are the
ones built most often: a topology search builds and hashes tens of
thousands of sieves, and one sheaf verdict builds thousands of modules and
module maps. These time their construction and equality, and the hash of
`Sieve` (modules and maps are unhashable). Every CLI call also pays for
`import finsite.cli` in a fresh interpreter, timed here next to a bare
`python -c pass`; without cached bytecode that import includes compiling
the package. They are not part of the tier-1 suite (`testpaths` lists only
`tests`); run them with

    python -m pytest benchmarks --benchmark-only

The table shows wall-clock times; conftest.py adds each median scaled to
perfbench's reference speed to the saved JSON. Neither is steady on a
shared machine, so compare only runs made back to back on one machine.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import finsite
from finsite import fincat, linalg, modrep
from finsite.linalg import GF
from finsite.modrep import KModule, ModuleMap
from finsite.sieves import Sieve, maximal_sieve

SRC = os.path.dirname(os.path.dirname(finsite.__file__))


@pytest.fixture(scope="module")
def sieve():
    cat = fincat.build_trunc_fi_category(3)
    return maximal_sieve(cat, "0")


@pytest.fixture(scope="module")
def module_map():
    cat = fincat.build_trunc_fi_category(2)
    v = modrep.yoneda_module(cat, GF(2), "0")
    return modrep.make_module_map(
        v, v, {x: linalg.identity(v.field, v.dims[x]) for x in v.cat.objects},
        check=False)


def test_sieve_construction(benchmark, sieve):
    benchmark(Sieve, sieve.base, sieve.members)


def test_sieve_hash(benchmark, sieve):
    benchmark(hash, sieve)


def test_sieve_eq(benchmark, sieve):
    benchmark(sieve.__eq__, Sieve(sieve.base, sieve.members))


def test_kmodule_construction(benchmark, module_map):
    v = module_map.source
    benchmark(KModule, v.field, v.cat, v.dims, v.action)


def test_kmodule_eq(benchmark, module_map):
    v = module_map.source
    benchmark(v.__eq__, KModule(v.field, v.cat, v.dims, v.action))


def test_module_map_construction(benchmark, module_map):
    m = module_map
    benchmark(ModuleMap, m.source, m.target, m.components)


def test_module_map_eq(benchmark, module_map):
    m = module_map
    benchmark(m.__eq__, ModuleMap(m.source, m.target, dict(m.components)))


@pytest.mark.parametrize("code", ("pass", "import finsite.cli"),
                         ids=("bare", "finsite.cli"))
def test_interpreter_start(benchmark, code):
    env = dict(os.environ, PYTHONPATH=SRC)
    benchmark.pedantic(subprocess.run, args=([sys.executable, "-c", code],),
                       kwargs={"check": True, "env": env},
                       rounds=20, iterations=1, warmup_rounds=1)
