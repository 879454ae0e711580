"""Microbenchmarks of the typen layer and the pullbacks it grounds on.

`spec_census(h)` builds and validates 2^(h+1) rank specs; perfbench's
`census` workload runs it at every horizon up to 10, so its cost is the
per-spec constant: `make_spec`, `d_sequence` and both validity routes.
`truncation_crosscheck(spec, 4)` rebuilds trunc_fi(4) and pulls every
ranked sieve back along every morphism. These time `spec_census(10)`,
`validate_spec` on one 10-letter word, `truncation_crosscheck` at horizon
4, and `pullback_sieve` of every sieve of trunc_fi(4) along every
morphism out of its base. Each records its count of work in
`extra_info`: specs validated, or pullbacks made. They are not part of
the tier-1 suite (`testpaths` lists only `tests`); run them with

    python -m pytest benchmarks --benchmark-only

The table shows wall-clock times; conftest.py adds each median scaled to
perfbench's reference speed to the saved JSON. Neither is steady on a
shared machine, so compare only runs made back to back on one machine.
"""

from __future__ import annotations

import pytest

from finsite import fincat, sieves, typen


def counting(monkeypatch, module, name):
    """Wrap module.name so each call is counted; returns the count list."""
    calls = []
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_spec_census(benchmark, monkeypatch):
    census = benchmark(typen.spec_census, 10)
    assert len(census.generic) == len(census.nongeneric) == 2 ** 10
    validated = counting(monkeypatch, typen, "validate_spec")
    typen.spec_census(10)
    benchmark.extra_info["specs_validated"] = len(validated)


def test_validate_spec_word(benchmark):
    spec = typen.make_spec("generic", (1, 1, 0, 1, 0, 0, 1, 1, 1, 0))
    outcome = benchmark(typen.validate_spec, spec)
    assert outcome.valid
    benchmark.extra_info["specs_validated"] = 1


def test_truncation_crosscheck(benchmark, monkeypatch):
    spec = typen.make_spec("generic", (1, 1, 0))
    report = benchmark(typen.truncation_crosscheck, spec, 4)
    assert report.passed
    pulled = counting(monkeypatch, typen, "pullback_sieve")
    typen.truncation_crosscheck(spec, 4)
    benchmark.extra_info["pullbacks"] = len(pulled)


@pytest.fixture(scope="module")
def trunc_fi4_pairs():
    cat = fincat.build_trunc_fi_category(4)
    return cat, [(s, f) for x in cat.objects
                 for s in sieves.all_sieves(cat, x)
                 for f in cat.morphisms_from(x)]


def test_pullback_sieve_trunc_fi4(benchmark, trunc_fi4_pairs):
    cat, pairs = trunc_fi4_pairs
    pulled = benchmark(lambda: [sieves.pullback_sieve(cat, s, f)
                                for s, f in pairs])
    assert len(pulled) == len(pairs)
    benchmark.extra_info["pullbacks"] = len(pairs)
