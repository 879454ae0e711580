"""Symbolic cover calculus for graded EI categories on the natural numbers.

In such a category (finite injections, linear injections over a fixed
field, and their kin) every sieve on n is either empty or consists of all
morphisms of degree at least some r, so a topology collapses to one value
per object: the largest covered rank, possibly infinite (every rank
covers) or negative-infinite (the empty sieve covers). These per-object
values descend by one along any step where they are nonzero, which is the
whole validity theory; indicator words over {0,1} encode exactly the
valid sequences, with the value at n read off as the length of the 1-run
starting there.

Everything here is word arithmetic; truncation_crosscheck grounds it by
rebuilding the same data concretely on a finite truncation and comparing.
"""

from __future__ import annotations

import itertools
from typing import Any, Mapping, Sequence

from .errors import (
    MALFORMED_INPUT,
    PreconditionFailed,
    Record,
    SizeBudgetExceeded,
    ValidationFailed,
    Violation,
)
from .fincat import FiniteCategory, build_trunc_fi_category
from .sieves import Sieve, all_sieves, make_sieve, pullback_sieve
from .topology import GrothendieckTopology, check_stability_only, make_rule


class _Marker:
    """Identity-compared sentinel for the two infinite rank values."""

    def __init__(self, tag: str) -> None:
        self._tag = tag

    def __repr__(self) -> str:
        return self._tag

    def __deepcopy__(self, memo):
        return self


INF = _Marker("INF")
NEG_INF = _Marker("NEG_INF")

DValue = Any  # int | INF | NEG_INF


def d_fmt(value: DValue) -> str:
    if value is INF:
        return "inf"
    if value is NEG_INF:
        return "-inf"
    return str(value)


class SymbolicSieve(Record):
    """S(n, r): every morphism out of n of degree at least r; rank None
    marks the empty sieve. Rank 0 is the maximal sieve."""

    n: int
    rank: int | None

    def __init__(self, n: int, rank: int | None) -> None:
        if n < 0 or (rank is not None and rank < 0):
            raise ValueError("object and rank must be natural numbers")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rank", rank)

    @property
    def is_empty(self) -> bool:
        return self.rank is None

    def __repr__(self) -> str:
        if self.is_empty:
            return f"S({self.n}, empty)"
        return f"S({self.n}, {self.rank})"


class DSpec(Record):
    """Eventually constant description of one topology's rank function.

    generic: the word plus a constant tail bit. nongeneric: the word with
    an implicit zero tail, every position at or past the cutoff reading
    negative infinity. Construct through make_spec, which normalizes.
    """

    kind: str
    indicator: tuple[int, ...]
    tail: int
    cutoff: int | None

    def __repr__(self) -> str:
        word = "".join(str(b) for b in self.indicator)
        if self.kind == "generic":
            return f"DSpec(generic, {word!r}, tail={self.tail})"
        return f"DSpec(nongeneric, {word!r}, cutoff={self.cutoff})"


def make_spec(kind: str, indicator: Sequence[int], tail: int = 0,
              cutoff: int | None = None) -> DSpec:
    """Build a spec, checking structure only; semantic validity is
    validate_spec's job. Nongeneric indicator entries at or past the
    cutoff are dropped, since the negative-infinity tail overrides them.
    """
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


def spec_to_doc(spec: DSpec) -> dict:
    doc: dict[str, Any] = {
        "kind": spec.kind,
        "indicator": list(spec.indicator),
        "tail": spec.tail,
    }
    if spec.kind == "nongeneric":
        doc["cutoff"] = spec.cutoff
    return doc


def spec_from_doc(doc: Mapping[str, Any]) -> DSpec:
    return make_spec(str(doc["kind"]), doc.get("indicator", ()),
                     int(doc.get("tail", 0)),
                     int(doc["cutoff"]) if "cutoff" in doc else None)


def _bit(spec: DSpec, n: int) -> int:
    if spec.kind == "nongeneric" and n >= spec.cutoff:
        return 0
    if n < len(spec.indicator):
        return spec.indicator[n]
    return spec.tail


def d_value(spec: DSpec, n: int) -> DValue:
    """The rank value at n: length of the 1-run starting at n, infinite
    when the run never ends, negative infinity past a cutoff."""
    if n < 0:
        raise ValueError("positions are natural numbers")
    if spec.kind == "nongeneric" and n >= spec.cutoff:
        return NEG_INF
    run = 0
    k = n
    while _bit(spec, k) == 1:
        if k >= len(spec.indicator) and spec.kind == "generic":
            return INF  # inside the all-ones tail
        run += 1
        k += 1
    return run


def d_sequence(spec: DSpec, length: int) -> tuple[DValue, ...]:
    """d_value at 0, ..., length - 1, in one pass from the right: the run
    at a 0 bit is 0, at a 1 bit one more than the run after it, and an
    infinite run stays infinite. d_value supplies the run at length."""
    if length <= 0:
        return ()
    run = d_value(spec, length)
    if run is NEG_INF:  # every bit past a cutoff is 0
        run = 0
    out = []
    for n in range(length - 1, -1, -1):
        if not _bit(spec, n):
            run = 0
        elif run is not INF:
            run += 1
        out.append(NEG_INF if spec.kind == "nongeneric" and n >= spec.cutoff
                   else run)
    out.reverse()
    return tuple(out)


# ---------------------------------------------------------------------------
# validity

class SpecValidation(Record):
    valid: bool
    recurrence_ok: bool
    pieces_ok: bool
    violation: str | None

    def to_doc(self) -> dict:
        return {
            "valid": self.valid,
            "recurrence_ok": self.recurrence_ok,
            "pieces_ok": self.pieces_ok,
            "violation": self.violation,
        }


def _check_recurrence(values: Sequence[DValue]) -> str | None:
    """Nonzero values must step down by one; both infinities absorb."""
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


def _check_pieces(values: Sequence[DValue]) -> str | None:
    """Decompose into descending-to-zero runs, an all-inf tail, or an
    all-negative-inf tail; anything else is a violation."""
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
        # descending piece v, v-1, ..., 0; tolerate prefix truncation
        expected = v
        while expected > 0:
            i += 1
            expected -= 1
            if i >= n:
                return None  # piece runs past the window; cannot falsify
            if values[i] != expected:
                return (f"position {i}: descending piece expected"
                        f" {expected}, got {d_fmt(values[i])}")
        i += 1
    return None


def validate_spec(spec: DSpec, horizon: int | None = None) -> SpecValidation:
    """Run both validity routes over a window covering all spec data.

    The recurrence route checks the step-down law directly; the piece
    route re-derives it from the legal run shapes. The two are equivalent
    and both verdicts are reported so tests can hold them to that. A
    horizon that stops before the end of the spec's data (the word, and
    the cutoff of a nongeneric spec) is unusable input: it raises
    ValidationFailed, so the CLI reports it without catching library
    errors.
    """
    if horizon is None:
        horizon = len(spec.indicator) + (spec.cutoff or 0) + 3
    if horizon < max(len(spec.indicator), spec.cutoff or 0) + 1:
        raise ValidationFailed("horizon", [Violation(
            MALFORMED_INPUT, (),
            f"horizon {horizon} does not cover the spec {spec!r}")])
    return validate_d_sequence(d_sequence(spec, horizon))


def validate_d_sequence(values: Sequence[DValue]) -> SpecValidation:
    """Validate a raw rank-value prefix (implicit constant continuation:
    whatever tail its last value dictates)."""
    rec = _check_recurrence(values)
    pieces = _check_pieces(values)
    return SpecValidation(rec is None and pieces is None, rec is None,
                          pieces is None, rec if rec is not None else pieces)


def rigid_spec(spec: DSpec) -> bool:
    """No position may carry an infinite rank. A generic spec is rigid
    exactly when its tail is zero; nongeneric specs always are."""
    if spec.kind == "nongeneric":
        return True
    return all(d_value(spec, n) is not INF
               for n in range(len(spec.indicator) + 1))


def irreducible_set(spec: DSpec, horizon: int) -> list[int]:
    """Objects below the horizon whose only cover is the maximal sieve."""
    return [n for n in range(horizon) if d_value(spec, n) == 0]


# ---------------------------------------------------------------------------
# the pullback formula

def symbolic_pullback(m: int, r: int | None, deg: int) -> SymbolicSieve:
    """Pull S(m, r) back along a degree-deg morphism out of m.

    Postcomposites of a degree-d morphism have degree d + deg, so the
    threshold drops by deg, bottoming out at the maximal sieve; the empty
    sieve pulls back to the empty sieve.
    """
    SymbolicSieve(m, r)  # rejects a negative object or rank
    if deg < 0:
        raise ValueError("degrees are natural numbers")
    n = m + deg
    if r is None:
        return SymbolicSieve(n, None)
    return SymbolicSieve(n, r - deg if r >= deg else 0)


# ---------------------------------------------------------------------------
# censuses

class SpecCensus(Record):
    horizon: int
    generic: tuple[DSpec, ...]
    nongeneric: tuple[DSpec, ...]

    def to_doc(self) -> dict:
        return {
            "horizon": self.horizon,
            "generic_count": len(self.generic),
            "nongeneric_count": len(self.nongeneric),
            "generic": [spec_to_doc(s) for s in self.generic],
            "nongeneric": [spec_to_doc(s) for s in self.nongeneric],
        }


def spec_census(horizon: int) -> SpecCensus:
    """Enumerate every spec whose data lives below the horizon.

    Generic: all zero-tail words of the horizon's length, one per subset
    of positions. Nongeneric: all cutoffs up to the horizon with a free
    word below the cutoff's last position, which must read zero; both
    families have exactly 2^horizon members and every member validates.
    """
    if horizon < 0:
        raise ValueError("horizon must be natural")
    generic = [make_spec("generic", word, tail=0)
               for word in itertools.product((0, 1), repeat=horizon)]
    nongeneric = [make_spec("nongeneric", (), cutoff=0)]
    for m in range(1, horizon + 1):
        for word in itertools.product((0, 1), repeat=m - 1):
            nongeneric.append(make_spec("nongeneric", word + (0,), cutoff=m))
    for s in generic + nongeneric:
        outcome = validate_spec(s)
        if not outcome.valid:
            raise PreconditionFailed(f"census emitted invalid spec {s!r}:"
                                     f" {outcome.violation}")
    return SpecCensus(horizon=horizon, generic=tuple(generic),
                      nongeneric=tuple(nongeneric))


# ---------------------------------------------------------------------------
# grounding against a finite truncation

def concrete_sieve(cat: FiniteCategory, sym: SymbolicSieve) -> Sieve:
    """Realize a symbolic sieve inside a truncation whose objects are the
    naturals as strings and whose degree is the label difference."""
    x = str(sym.n)
    if sym.is_empty:
        return make_sieve(cat, x, ())
    members = [f for f in cat.morphisms_from(x)
               if int(cat.cod[f]) - sym.n >= sym.rank]
    return make_sieve(cat, x, members)


def _covers_from_spec(cat: FiniteCategory, spec: DSpec, horizon: int,
                      ranked: Mapping[tuple[int, int | None], Sieve]
                      ) -> GrothendieckTopology:
    """The spec's cover rule, clipped to the truncation window; ranked
    holds the realized S(m, r) of that window."""
    covers: dict[str, list[Sieve]] = {}
    for m in range(horizon + 1):
        v = d_value(spec, m)
        if v is NEG_INF:
            sieves = list(all_sieves(cat, str(m)))
        else:
            top = horizon - m if v is INF else min(v, horizon - m)
            sieves = [ranked[m, r] for r in range(top + 1)]
        covers[str(m)] = sieves
    return make_rule(cat, covers)


class CrosscheckReport(Record):
    horizon: int
    sieve_inventory_ok: bool
    pullback_agreement_ok: bool
    stability_ok: bool
    transitivity: str  # always "skipped": clipping makes it meaningless
    witnesses: Mapping[str, tuple]

    @property
    def passed(self) -> bool:
        return (self.sieve_inventory_ok and self.pullback_agreement_ok
                and self.stability_ok)

    def to_doc(self) -> dict:
        return {
            "horizon": self.horizon,
            "passed": self.passed,
            "sieve_inventory_ok": self.sieve_inventory_ok,
            "pullback_agreement_ok": self.pullback_agreement_ok,
            "stability_ok": self.stability_ok,
            "transitivity": self.transitivity,
            "witnesses": {k: list(w) for k, w in self.witnesses.items()},
        }


def truncation_crosscheck(spec: DSpec, horizon: int) -> CrosscheckReport:
    """Ground the symbolic calculus on the injection category truncated at
    the horizon.

    Checks that every sieve on every object is ranked or empty, that
    concrete pullback matches the symbolic formula, and that the spec's
    clipped cover rule is stable in the window. Transitivity is reported
    skipped: clipping at the boundary objects discards exactly the sieves
    a transitivity check would need.
    """
    if horizon < 0:
        raise ValueError("horizon must be natural")
    outcome = validate_spec(spec)
    if not outcome.valid:
        raise PreconditionFailed(f"invalid spec: {outcome.violation}")
    if horizon > 4:
        raise SizeBudgetExceeded(
            f"truncation at {horizon} exceeds the supported window (4)")
    cat = build_trunc_fi_category(horizon)
    witnesses: dict[str, list] = {"inventory": [], "pullback": [],
                                  "stability": []}

    def ranks(m: int) -> list[int | None]:
        return [*range(horizon - m + 1), None]

    # every S(m, r) of the window realized once; rank None is the empty sieve
    ranked = {(m, r): concrete_sieve(cat, SymbolicSieve(m, r))
              for m in range(horizon + 1) for r in ranks(m)}

    for m in range(horizon + 1):
        expected = {ranked[m, r] for r in ranks(m)}
        found = set(all_sieves(cat, str(m)))
        if found != expected:
            witnesses["inventory"].append(
                (m, sorted(len(s.members) for s in found),
                 sorted(len(s.members) for s in expected)))

    for f in cat.morphisms:
        m, n = int(cat.dom[f]), int(cat.cod[f])
        for r in ranks(m):
            sym = symbolic_pullback(m, r, n - m)
            # a formula landing outside the window is a disagreement too
            realized = ranked.get((sym.n, sym.rank))
            if pullback_sieve(cat, ranked[m, r], f) != realized:
                witnesses["pullback"].append((f, r))

    rule = _covers_from_spec(cat, spec, horizon, ranked)
    bad = check_stability_only(cat, rule)
    if bad is not None:
        witnesses["stability"].append(bad)

    packed = {k: tuple(w) for k, w in witnesses.items() if w}
    return CrosscheckReport(
        horizon=horizon,
        sieve_inventory_ok=not witnesses["inventory"],
        pullback_agreement_ok=not witnesses["pullback"],
        stability_ok=not witnesses["stability"],
        transitivity="skipped",
        witnesses=packed,
    )
