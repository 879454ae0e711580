from __future__ import annotations

import itertools

import pytest

from finsite import typen
from finsite.errors import PreconditionFailed, SizeBudgetExceeded, ValidationFailed
from finsite.typen import INF, NEG_INF


def oracle_valid(values) -> bool:
    """Independent validity check: consecutive pairs only.

    After negative infinity comes negative infinity; after infinity comes
    infinity; after a positive value comes its predecessor; after zero
    comes anything.
    """
    for a, b in zip(values, values[1:]):
        if a is NEG_INF and b is not NEG_INF:
            return False
        if a is INF and b is not INF:
            return False
        if isinstance(a, int) and a > 0 and b != a - 1:
            return False
    return True


# ---------------------------------------------------------------------------
# rank values

def test_d_value_anchors():
    spec = typen.make_spec("generic", (1, 1, 0))
    assert typen.d_sequence(spec, 5) == (2, 1, 0, 0, 0)
    zeros = typen.make_spec("generic", ())
    assert typen.d_sequence(zeros, 3) == (0, 0, 0)
    ones = typen.make_spec("generic", (), tail=1)
    assert typen.d_value(ones, 0) is INF
    assert typen.d_value(ones, 7) is INF


def test_d_value_nongeneric_cutoff():
    spec = typen.make_spec("nongeneric", (1, 0), cutoff=2)
    assert typen.d_sequence(spec, 4) == (1, 0, NEG_INF, NEG_INF)
    point = typen.make_spec("nongeneric", (), cutoff=0)
    assert typen.d_value(point, 0) is NEG_INF


def test_make_spec_structural_checks():
    with pytest.raises(ValueError):
        typen.make_spec("generic", (2,))
    with pytest.raises(ValueError):
        typen.make_spec("generic", (), tail=3)
    with pytest.raises(ValueError):
        typen.make_spec("generic", (), cutoff=1)
    with pytest.raises(ValueError):
        typen.make_spec("nongeneric", ())
    with pytest.raises(ValueError):
        typen.make_spec("sideways", ())
    # entries at or past the cutoff are dropped as unreachable
    spec = typen.make_spec("nongeneric", (1, 0, 1, 1), cutoff=2)
    assert spec.indicator == (1, 0)


def test_spec_doc_roundtrip():
    for spec in (typen.make_spec("generic", (1, 0, 1), tail=1),
                 typen.make_spec("nongeneric", (1, 1, 0), cutoff=3),
                 typen.make_spec("nongeneric", (), cutoff=0)):
        assert typen.spec_from_doc(typen.spec_to_doc(spec)) == spec


# ---------------------------------------------------------------------------
# validity

def test_word_specs_are_always_valid():
    # run lengths read off a word satisfy the step-down law by construction
    for n in range(7):
        for word in itertools.product((0, 1), repeat=n):
            for tail in (0, 1):
                spec = typen.make_spec("generic", word, tail=tail)
                outcome = typen.validate_spec(spec)
                assert outcome.valid, (word, tail, outcome.violation)
                assert outcome.recurrence_ok and outcome.pieces_ok


def test_nongeneric_validity_needs_zero_before_cutoff():
    good = typen.make_spec("nongeneric", (1, 0), cutoff=2)
    assert typen.validate_spec(good).valid
    # a run still open at the cutoff would have to continue into the
    # negative-infinity region
    bad = typen.make_spec("nongeneric", (1, 1), cutoff=2)
    outcome = typen.validate_spec(bad)
    assert not outcome.valid
    assert not outcome.recurrence_ok and not outcome.pieces_ok


def test_validate_spec_rejects_a_short_horizon():
    # indicator [1] with cutoff 1 is invalid; a one-position window would
    # see only the leading 1 and certify it
    spec = typen.make_spec("nongeneric", (1,), cutoff=1)
    assert not typen.validate_spec(spec).valid
    with pytest.raises(ValidationFailed):
        typen.validate_spec(spec, horizon=1)
    assert not typen.validate_spec(spec, horizon=2).valid
    word = typen.make_spec("generic", (1, 1, 0), tail=0)
    with pytest.raises(ValidationFailed):
        typen.validate_spec(word, horizon=3)
    assert typen.validate_spec(word, horizon=4).valid


def test_raw_sequence_examples():
    assert typen.validate_d_sequence((2, 1, 0, 0)).valid
    assert typen.validate_d_sequence((1, 0, NEG_INF)).valid
    assert typen.validate_d_sequence((3, 2)).valid  # truncated piece
    bad = typen.validate_d_sequence((2, 0, 0))
    assert not bad.valid
    assert "position 0" in bad.violation
    assert not typen.validate_d_sequence((NEG_INF, 0)).valid
    assert not typen.validate_d_sequence((1, INF)).valid
    assert typen.validate_d_sequence((0, INF, INF)).valid


def test_both_routes_match_oracle_exhaustively():
    alphabet = (0, 1, 2, INF, NEG_INF)
    for n in range(5):
        for values in itertools.product(alphabet, repeat=n):
            outcome = typen.validate_d_sequence(values)
            assert outcome.valid == oracle_valid(values), values
            assert outcome.recurrence_ok == outcome.pieces_ok, values


# ---------------------------------------------------------------------------
# rigidity and distinguished objects

def test_rigid_spec_anchors():
    assert typen.rigid_spec(typen.make_spec("generic", (1, 1, 0)))
    assert not typen.rigid_spec(typen.make_spec("generic", (), tail=1))
    assert not typen.rigid_spec(typen.make_spec("generic", (0, 1), tail=1))
    assert typen.rigid_spec(typen.make_spec("nongeneric", (1, 0), cutoff=2))


def test_irreducible_and_dense_sets():
    spec = typen.make_spec("generic", (1, 1, 0))
    assert typen.irreducible_set(spec, 5) == [2, 3, 4]
    ones = typen.make_spec("generic", (), tail=1)
    assert typen.irreducible_set(ones, 4) == []


# ---------------------------------------------------------------------------
# the pullback formula

def test_symbolic_pullback_examples():
    s = typen.symbolic_pullback(3, 5, 2)
    assert (s.n, s.rank) == (5, 3)
    clipped = typen.symbolic_pullback(3, 1, 2)
    assert (clipped.n, clipped.rank) == (5, 0)
    assert clipped.rank == 0  # the maximal sieve
    empty = typen.symbolic_pullback(3, None, 2)
    assert empty.is_empty and empty.n == 5
    assert typen.symbolic_pullback(4, 2, 0) == typen.SymbolicSieve(4, 2)
    for bad in ((3, 1, -1), (-1, 2, 1), (3, -2, 0)):
        with pytest.raises(ValueError):
            typen.symbolic_pullback(*bad)


def test_symbolic_pullback_composes():
    for m in range(3):
        for r in [None, 0, 1, 2, 3]:
            for a in range(3):
                for b in range(3):
                    one = typen.symbolic_pullback(m, r, a)
                    two = typen.symbolic_pullback(one.n, one.rank, b)
                    assert two == typen.symbolic_pullback(m, r, a + b)


# ---------------------------------------------------------------------------
# censuses

def test_census_counts_and_distinctness():
    for n in range(6):
        census = typen.spec_census(n)
        assert len(census.generic) == len(census.nongeneric) == 2 ** n
        assert len(set(census.generic)) == 2 ** n
        assert len(set(census.nongeneric)) == 2 ** n
    doc = typen.spec_census(2).to_doc()
    assert doc["generic_count"] == 4 and doc["nongeneric_count"] == 4


def test_one_pass_sequence_matches_d_value():
    # every census spec up to horizon 10, read past its data; and
    # nongeneric specs read past their cutoff
    specs = [s for h in range(11)
             for census in [typen.spec_census(h)]
             for s in census.generic + census.nongeneric]
    for spec in specs:
        length = len(spec.indicator) + (spec.cutoff or 0) + 4
        seq = typen.d_sequence(spec, length)
        assert seq == tuple(typen.d_value(spec, n) for n in range(length))
    # every window length, so the pass starts inside and past the data
    small = [typen.make_spec("generic", word, tail=tail)
             for word in itertools.product((0, 1), repeat=4)
             for tail in (0, 1)]
    small += [typen.make_spec("nongeneric", word, cutoff=c)
              for word in itertools.product((0, 1), repeat=4)
              for c in range(7)]
    for spec in small:
        for length in range(12):
            assert typen.d_sequence(spec, length) == tuple(
                typen.d_value(spec, n) for n in range(length))


def test_census_members_have_distinct_value_sequences():
    census = typen.spec_census(3)
    window = 6
    seqs = [typen.d_sequence(s, window)
            for s in census.generic + census.nongeneric]
    assert len(set(seqs)) == len(seqs)


# ---------------------------------------------------------------------------
# grounding on the truncation

def test_crosscheck_small_horizons():
    spec = typen.make_spec("generic", (1, 1, 0))
    for horizon in range(4):
        report = typen.truncation_crosscheck(spec, horizon)
        assert report.passed, report.witnesses
        assert report.transitivity == "skipped"


def test_crosscheck_other_specs():
    for spec in (typen.make_spec("generic", (), tail=1),
                 typen.make_spec("generic", ()),
                 typen.make_spec("nongeneric", (1, 0), cutoff=2)):
        report = typen.truncation_crosscheck(spec, 3)
        assert report.passed, (spec, report.witnesses)


def test_crosscheck_guards():
    spec = typen.make_spec("generic", (1, 1, 0))
    with pytest.raises(SizeBudgetExceeded):
        typen.truncation_crosscheck(spec, 5)
    with pytest.raises(ValueError):
        typen.truncation_crosscheck(spec, -1)
    bad = typen.make_spec("nongeneric", (1, 1), cutoff=2)
    with pytest.raises(PreconditionFailed):
        typen.truncation_crosscheck(bad, 2)


def test_crosscheck_flags_a_wrong_pullback_formula(monkeypatch):
    # a formula that forgets to lower the rank along the morphism
    monkeypatch.setattr(typen, "symbolic_pullback",
                        lambda m, r, deg: typen.SymbolicSieve(m + deg, r))
    report = typen.truncation_crosscheck(typen.make_spec("generic", ()), 2)
    assert not report.pullback_agreement_ok
    assert report.sieve_inventory_ok and report.stability_ok
    assert ("[0>1]()", 1) in report.witnesses["pullback"]


def test_crosscheck_report_doc():
    spec = typen.make_spec("generic", (1, 0))
    doc = typen.truncation_crosscheck(spec, 2).to_doc()
    assert doc["passed"] is True
    assert doc["transitivity"] == "skipped"
    assert doc["witnesses"] == {}
