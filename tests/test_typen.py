from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsite import typen
from finsite.errors import PreconditionFailed, SizeBudgetExceeded, ValidationFailed
from finsite.typen import INF, NEG_INF, DSpec, d_fmt


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
# the per-position implementations, kept as oracles: d_sequence read each
# bit through _bit, the recurrence indexed both neighbours, and make_spec
# checked each entry; the fast paths must agree with them byte for byte

def old_make_spec(kind, indicator, tail=0, cutoff=None):
    word = tuple(int(b) for b in indicator)
    if any(b not in (0, 1) for b in word):
        raise ValueError("indicator entries must be 0 or 1")
    if kind == "generic":
        if tail not in (0, 1):
            raise ValueError("tail must be 0 or 1")
        if cutoff is not None:
            raise ValueError("generic specs have no cutoff")
        return DSpec("generic", word, tail, None)
    if kind == "nongeneric":
        if cutoff is None or cutoff < 0:
            raise ValueError("nongeneric specs need a natural cutoff")
        return DSpec("nongeneric", word[:cutoff], 0, cutoff)
    raise ValueError(f"unknown spec kind {kind!r}")


def old_bit(spec, n):
    if spec.kind == "nongeneric" and n >= spec.cutoff:
        return 0
    if n < len(spec.indicator):
        return spec.indicator[n]
    return spec.tail


def old_d_sequence(spec, length):
    if length <= 0:
        return ()
    run = typen.d_value(spec, length)
    if run is NEG_INF:
        run = 0
    out = []
    for n in range(length - 1, -1, -1):
        if not old_bit(spec, n):
            run = 0
        elif run is not INF:
            run += 1
        out.append(NEG_INF if spec.kind == "nongeneric" and n >= spec.cutoff
                   else run)
    out.reverse()
    return tuple(out)


def old_check_recurrence(values):
    for n in range(len(values) - 1):
        a, b = values[n], values[n + 1]
        if a is NEG_INF and b is not NEG_INF:
            return f"position {n}: -inf must persist, got {d_fmt(b)}"
        if a is INF and b is not INF:
            return f"position {n}: inf must persist, got {d_fmt(b)}"
        if isinstance(a, int) and a != 0:
            if b is not INF and b != a - 1:
                return (f"position {n}: {a} must be followed by {a - 1},"
                        f" got {d_fmt(b)}")
            if b is INF:
                return f"position {n}: {a} must be followed by {a - 1}"
    return None


def old_check_pieces(values):
    i = 0
    n = len(values)
    while i < n:
        v = values[i]
        if v is NEG_INF:
            for k in range(i, n):
                if values[k] is not NEG_INF:
                    return f"position {k}: -inf tail interrupted"
            return None
        if v is INF:
            for k in range(i, n):
                if values[k] is not INF:
                    return f"position {k}: inf tail interrupted"
            return None
        if not isinstance(v, int) or v < 0:
            return f"position {i}: not a natural number"
        expected = v
        while expected > 0:
            i += 1
            expected -= 1
            if i >= n:
                return None
            if values[i] != expected:
                return (f"position {i}: descending piece expected"
                        f" {expected}, got {d_fmt(values[i])}")
        i += 1
    return None


def old_validation_doc(values):
    rec = old_check_recurrence(values)
    pieces = old_check_pieces(values)
    return {"valid": rec is None and pieces is None,
            "recurrence_ok": rec is None, "pieces_ok": pieces is None,
            "violation": rec if rec is not None else pieces}


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return ("ValueError", str(exc))


def assert_spec_reads_as_before(spec, length):
    seq = typen.d_sequence(spec, length)
    assert seq == old_d_sequence(spec, length), (spec, length)
    assert typen.validate_d_sequence(seq).to_doc() == old_validation_doc(
        seq), (spec, length)


def test_validation_matches_the_old_routes_exhaustively():
    alphabet = (0, 1, 2, INF, NEG_INF)
    for n in range(6):
        for values in itertools.product(alphabet, repeat=n):
            assert typen.validate_d_sequence(values).to_doc() == (
                old_validation_doc(values)), values


def test_census_specs_read_as_before_at_every_window():
    for h in range(11):
        census = typen.spec_census(h)
        for spec in census.generic + census.nongeneric:
            data = max(len(spec.indicator), spec.cutoff or 0)
            for length in (0, 1, data, data + 1, data + 3,
                           len(spec.indicator) + (spec.cutoff or 0) + 3):
                assert_spec_reads_as_before(spec, length)
            default = len(spec.indicator) + (spec.cutoff or 0) + 3
            assert typen.validate_spec(spec).to_doc() == old_validation_doc(
                old_d_sequence(spec, default))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(("generic", "nongeneric", "sideways")),
       st.lists(st.sampled_from((0, 1, 0, 1, 2, -1, True, 1.5, "1")),
                max_size=12),
       st.sampled_from((0, 1, 2)),
       st.one_of(st.none(), st.integers(-1, 14)),
       st.integers(0, 24))
def test_random_specs_read_as_before(kind, word, tail, cutoff, length):
    spec = outcome(typen.make_spec, kind, word, tail=tail, cutoff=cutoff)
    assert spec == outcome(old_make_spec, kind, word, tail=tail,
                           cutoff=cutoff)
    if isinstance(spec, DSpec):
        assert_spec_reads_as_before(spec, length)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from((0, 1)), max_size=10), st.sampled_from((0, 1)),
       st.integers(0, 14), st.integers(0, 24))
def test_hand_built_nongeneric_specs_read_as_before(word, tail, cutoff,
                                                   length):
    # make_spec gives a nongeneric spec a zero tail and a word inside its
    # cutoff; one built by hand may have neither, and reads as before
    spec = DSpec("nongeneric", tuple(word), tail, cutoff)
    assert typen.d_sequence(spec, length) == old_d_sequence(spec, length)
    assert typen.d_sequence(spec, length) == tuple(
        typen.d_value(spec, n) for n in range(length))


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


@pytest.mark.parametrize("doc", [
    {"kind": "generic", "indicator": [1.5, 0.7], "tail": 0},
    {"kind": "generic", "indicator": "110", "tail": 0},
    {"kind": "generic", "indicator": "", "tail": 0},
    {"kind": "generic", "indicator": [True, False], "tail": 0},
    {"kind": "generic", "indicator": [1, 0], "tail": True},
    {"kind": "generic", "indicator": [1, 0], "tail": 0.0},
    {"kind": "nongeneric", "indicator": [1, 0], "cutoff": 2.9},
    {"kind": "nongeneric", "indicator": [1, 0], "cutoff": "2"},
    {"kind": "nongeneric", "indicator": [1, 0], "cutoff": None},
])
def test_spec_documents_take_integers_only(doc):
    # make_spec would read each of these as a spec that validates
    with pytest.raises(ValueError):
        typen.spec_from_doc(doc)


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


def test_windows_have_budgets():
    # the largest windows still run, and one past them is refused
    word = typen.make_spec("generic", (1, 1, 0), tail=0)
    assert typen.validate_spec(word, horizon=typen._MAX_WINDOW).valid
    with pytest.raises(SizeBudgetExceeded):
        typen.validate_spec(word, horizon=typen._MAX_WINDOW + 1)
    # the default window reaches past a cutoff, so a far cutoff is refused
    far = typen.make_spec("nongeneric", (), cutoff=10 ** 9)
    with pytest.raises(SizeBudgetExceeded):
        typen.validate_spec(far)
    with pytest.raises(SizeBudgetExceeded):
        typen.spec_census(typen._MAX_CENSUS_HORIZON + 1)


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
